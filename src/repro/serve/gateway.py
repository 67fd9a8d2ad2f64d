"""The serving front door: a JSON-RPC gateway over one :class:`Node`.

Two layers:

- :class:`Gateway` — the synchronous, thread-safe core.  It owns the
  admission pipeline (size guard → rate limit → parse → dispatch), maps
  ``TxPool.add -> False`` to a structured backpressure error, produces
  blocks, and implements graceful drain: in-flight requests finish and
  accepted transactions are flushed into final blocks *before* the KV
  store closes, so shutdown can never leave a torn WAL tail behind.
- :class:`AsyncGatewayServer` — an asyncio HTTP/1.1 front end.  The
  event loop only ever parses sockets; every request body is handed to
  the core on a worker thread, and block production runs on its own
  single-thread executor so it serializes with itself while the loop
  keeps accepting connections.

RPC methods: ``submit_tx``, ``deploy``, ``get_receipt``,
``query_state``, ``node_status``, ``chain_status`` (docs/serving.md).
"""

from __future__ import annotations

import asyncio
import os
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

from repro.chain.node import CONSENSUS_PREFIXES, DEFAULT_BLOCK_BYTES, Node
from repro.chain.transaction import (
    TX_CONFIDENTIAL,
    TX_PUBLIC,
    Transaction,
    contract_address,
)
from repro.errors import ChainError, ReproError
from repro.serve import jsonrpc
from repro.serve.jsonrpc import RpcError
from repro.serve.ratelimit import RateLimiter

_TX_HASH_BYTES = 32
_MAX_KEY_BYTES = 256

# Gateway lifecycle states.
SERVING = "serving"
DRAINING = "draining"
CLOSED = "closed"


@dataclass(frozen=True)
class GatewayConfig:
    """Admission-control and block-production knobs."""

    max_request_bytes: int = 1 << 16  # whole JSON-RPC body
    max_tx_bytes: int = 1 << 15  # one encoded transaction
    rate_per_s: float = 0.0  # per-client token refill; 0 disables
    burst: float = 20.0  # per-client bucket depth
    block_interval_s: float = 0.030  # producer cadence (§6.4's 30 ms)
    max_block_bytes: int = DEFAULT_BLOCK_BYTES
    max_block_txs: int | None = None
    cut_empty_blocks: bool = False  # serving skips empty blocks
    drain_rounds: int = 10_000  # flush bound during shutdown


class Gateway:
    """Synchronous request core over one node (thread-safe)."""

    def __init__(self, node: Node, config: GatewayConfig | None = None,
                 clock=time.monotonic):
        self.node = node
        self.config = config or GatewayConfig()
        self.clock = clock
        self.limiter = RateLimiter(
            self.config.rate_per_s, self.config.burst, clock=clock
        )
        self._state = SERVING
        self._state_lock = threading.Lock()
        self._node_lock = threading.Lock()  # serializes block production
        self._inflight = 0
        self._idle = threading.Condition(self._state_lock)
        # Cumulative counters (read by the benchmark and the tests).
        self._counter_lock = threading.Lock()
        self.requests_total: dict[tuple[str, str], int] = {}
        self.backpressure_total = 0
        self.duplicates_total = 0
        self.invalid_total = 0
        self.internal_errors_total = 0
        self.accepted_total = 0
        self.blocks_produced = 0
        self.txs_committed = 0
        self._methods = {
            "submit_tx": self._rpc_submit_tx,
            "deploy": self._rpc_deploy,
            "get_receipt": self._rpc_get_receipt,
            "query_state": self._rpc_query_state,
            "node_status": self._rpc_node_status,
            "chain_status": self._rpc_chain_status,
        }

    # -- lifecycle ---------------------------------------------------------

    @property
    def state(self) -> str:
        return self._state

    def _enter(self) -> None:
        with self._state_lock:
            if self._state == CLOSED:
                raise RpcError(jsonrpc.SHUTTING_DOWN, "gateway is closed")
            self._inflight += 1

    def _leave(self) -> None:
        with self._state_lock:
            self._inflight -= 1
            if self._inflight == 0:
                self._idle.notify_all()

    def begin_drain(self) -> None:
        """Stop admitting transactions; reads keep working."""
        with self._state_lock:
            if self._state == SERVING:
                self._state = DRAINING

    def drain(self, timeout: float | None = None) -> bool:
        """Wait for in-flight requests, then flush every admitted
        transaction into final blocks.  Returns True when the pools are
        empty (every accepted transaction has its receipt)."""
        self.begin_drain()
        deadline = None if timeout is None else time.monotonic() + timeout
        with self._state_lock:
            while self._inflight > 0:
                remaining = None
                if deadline is not None:
                    remaining = deadline - time.monotonic()
                    if remaining <= 0:
                        return False
                self._idle.wait(remaining)
        for _ in range(self.config.drain_rounds):
            if not (len(self.node.unverified) or len(self.node.verified)):
                return True
            if self.produce_block(force=True) is None:
                # Nothing draftable is left (e.g. only invalid txs that
                # pre-verification refused); the pools are as drained as
                # they will ever be.
                return not (len(self.node.unverified)
                            or len(self.node.verified))
        return False

    def close(self, close_node: bool = True,
              drain_timeout: float | None = None) -> None:
        """Graceful shutdown: drain in-flight work, then — and only
        then — close the node and its KV store.  Idempotent."""
        with self._state_lock:
            if self._state == CLOSED:
                return
        self.drain(timeout=drain_timeout)
        with self._state_lock:
            self._state = CLOSED
            while self._inflight > 0:
                self._idle.wait()
        if close_node:
            self.node.close()

    # -- block production --------------------------------------------------

    def produce_block(self, force: bool = False):
        """One producer beat: pre-verify, draft, execute, append.

        Returns the :class:`AppliedBlock` or None when there was
        nothing to cut (and empty blocks are off).  Never runs after
        close — the node (and its WAL) are gone by then.
        """
        with self._node_lock:
            with self._state_lock:
                if self._state == CLOSED:
                    return None
                if self._state == DRAINING and not force:
                    return None
            self.node.preverify_pending()
            batch = self.node.draft_block(
                max_bytes=self.config.max_block_bytes,
                max_txs=self.config.max_block_txs,
            )
            if not batch and not self.config.cut_empty_blocks:
                return None
            applied = self.node.apply_transactions(
                batch, proposer=self.node.node_id
            )
            with self._counter_lock:
                self.blocks_produced += 1
                self.txs_committed += len(batch)
            return applied

    # -- request path ------------------------------------------------------

    def handle_raw(self, body: bytes, client: str = "") -> bytes:
        """The full admission pipeline for one request body.

        Always returns an encoded JSON-RPC response; never raises and
        never lets a traceback or payload bytes into the response.
        """
        request_id = None
        method = "unknown"
        try:
            self._enter()
        except RpcError as exc:
            return jsonrpc.error_response(None, exc.code, exc.message)
        try:
            request = jsonrpc.parse_request(
                body, max_bytes=self.config.max_request_bytes
            )
            request_id = request["id"]
            method = request["method"]
            if not self.limiter.allow(client or "anonymous"):
                raise RpcError(
                    jsonrpc.RATE_LIMITED,
                    data={"retry_after_s": round(1.0 / self.limiter.rate, 3)},
                )
            handler = self._methods.get(method)
            if handler is None:
                raise RpcError(jsonrpc.METHOD_NOT_FOUND,
                               f"unknown method '{method}'"
                               if method.isidentifier() else "unknown method")
            result = handler(request["params"], client)
            self._count(method, "ok")
            return jsonrpc.ok_response(request_id, result)
        except RpcError as exc:
            self._count(method, self._outcome_for(exc.code))
            return jsonrpc.error_response(request_id, exc.code, exc.message,
                                          exc.data)
        except ReproError as exc:
            # Library errors are structured but their messages may name
            # internal state; only the error class crosses the boundary.
            with self._counter_lock:
                self.internal_errors_total += 1
            self._count(method, "internal")
            return jsonrpc.error_response(
                request_id, jsonrpc.INTERNAL_ERROR, "internal error",
                {"error_kind": type(exc).__name__},
            )
        except Exception:
            with self._counter_lock:
                self.internal_errors_total += 1
            self._count(method, "internal")
            return jsonrpc.error_response(
                request_id, jsonrpc.INTERNAL_ERROR, "internal error"
            )
        finally:
            self._leave()

    def _outcome_for(self, code: int) -> str:
        if code == jsonrpc.BACKPRESSURE:
            return "backpressure"
        if code == jsonrpc.RATE_LIMITED:
            return "rate_limited"
        if code == jsonrpc.SHUTTING_DOWN:
            return "shutting_down"
        with self._counter_lock:
            self.invalid_total += 1
        return "invalid"

    def _count(self, method: str, outcome: str) -> None:
        with self._counter_lock:
            key = (method, outcome)
            self.requests_total[key] = self.requests_total.get(key, 0) + 1

    # -- RPC methods -------------------------------------------------------

    def _decode_tx(self, params: dict) -> Transaction:
        blob = jsonrpc.hex_param(params, "tx",
                                 max_bytes=self.config.max_tx_bytes)
        try:
            tx = Transaction.decode(blob)
        except ReproError:
            raise RpcError(jsonrpc.INVALID_PARAMS,
                           "'tx' is not a valid encoded transaction") from None
        if tx.tx_type not in (TX_PUBLIC, TX_CONFIDENTIAL):
            raise RpcError(jsonrpc.INVALID_PARAMS, "unknown transaction type")
        return tx

    def _admit(self, tx: Transaction) -> dict:
        with self._state_lock:
            if self._state != SERVING:
                raise RpcError(jsonrpc.SHUTTING_DOWN,
                               "gateway is draining; not accepting "
                               "transactions")
        if tx.tx_hash in self.node.receipts:
            with self._counter_lock:
                self.duplicates_total += 1
            return {"accepted": False, "duplicate": True,
                    "tx_hash": tx.tx_hash.hex()}
        if not self.node.receive_transaction(tx):
            if (tx.tx_hash in self.node.unverified
                    or tx.tx_hash in self.node.verified):
                with self._counter_lock:
                    self.duplicates_total += 1
                return {"accepted": False, "duplicate": True,
                        "tx_hash": tx.tx_hash.hex()}
            # The unverified pool refused the transaction: backpressure.
            with self._counter_lock:
                self.backpressure_total += 1
            raise RpcError(
                jsonrpc.BACKPRESSURE,
                data={"pool_depth": len(self.node.unverified)},
            )
        with self._counter_lock:
            self.accepted_total += 1
        return {"accepted": True, "tx_hash": tx.tx_hash.hex()}

    def _rpc_submit_tx(self, params: dict, client: str) -> dict:
        return self._admit(self._decode_tx(params))

    def _rpc_deploy(self, params: dict, client: str) -> dict:
        """Deploy = submit, plus the predicted contract address for
        public deploys (a confidential deploy's sender/nonce are sealed;
        the client computes the address itself)."""
        tx = self._decode_tx(params)
        result = self._admit(tx)
        if tx.tx_type == TX_PUBLIC:
            raw = tx.raw()
            if not raw.is_deploy:
                raise RpcError(jsonrpc.INVALID_PARAMS,
                               "transaction is not a deploy")
            result["contract"] = contract_address(raw.sender, raw.nonce).hex()
        return result

    def _rpc_get_receipt(self, params: dict, client: str) -> dict:
        tx_hash = jsonrpc.hex_param(params, "tx_hash",
                                    max_bytes=_TX_HASH_BYTES)
        if len(tx_hash) != _TX_HASH_BYTES:
            raise RpcError(jsonrpc.INVALID_PARAMS,
                           "'tx_hash' must be 32 bytes of hex")
        blob = self.node.receipts.get(tx_hash)
        if blob is None:
            pending = (tx_hash in self.node.unverified
                       or tx_hash in self.node.verified)
            return {"found": False, "pending": pending}
        # Confidential receipts are sealed envelopes under k_tx; public
        # receipts are public by construction.  Either way the blob is
        # exactly what consensus committed — nothing is opened here.
        return {"found": True, "receipt": blob.hex()}

    def _rpc_query_state(self, params: dict, client: str) -> dict:
        key = jsonrpc.hex_param(params, "key", max_bytes=_MAX_KEY_BYTES)
        if not key.startswith(CONSENSUS_PREFIXES):
            raise RpcError(
                jsonrpc.INVALID_PARAMS,
                "key is outside the replicated state namespaces",
            )
        value = self.node.kv.get(key)
        if value is None:
            return {"found": False}
        # Confidential contract state is sealed at rest (D-Protocol), so
        # the value returned here is ciphertext unless the contract
        # wrote a public (#pub) field.
        return {"found": True, "value": value.hex()}

    def _rpc_node_status(self, params: dict, client: str) -> dict:
        node = self.node
        status = {
            "node_id": node.node_id,
            "height": node.height,
            "head_hash": node.head_hash.hex(),
            "state": self._state,
            "unverified_depth": len(node.unverified),
            "verified_depth": len(node.verified),
            "accepted_total": self.accepted_total,
            "backpressure_total": self.backpressure_total,
            "blocks_produced": self.blocks_produced,
        }
        try:
            status["pk_tx"] = node.confidential.pk_tx.hex()
        except ReproError:
            status["pk_tx"] = None  # K-Protocol not provisioned yet
        return status

    def _rpc_chain_status(self, params: dict, client: str) -> dict:
        node = self.node
        status = {
            "height": node.height,
            "head_hash": node.head_hash.hex(),
            "txs_committed": self.txs_committed,
        }
        if node.chain:
            head = node.chain[-1].header
            status["head"] = {
                "height": head.height,
                "num_txs": len(node.chain[-1].transactions),
                "state_root": head.state_root.hex(),
                "receipts_root": head.receipts_root.hex(),
            }
        return status


# -- asyncio HTTP front end ------------------------------------------------

_MAX_HEADER_BYTES = 8192
_RESPONSE_TEMPLATE = (
    "HTTP/1.1 %s\r\n"
    "Content-Type: application/json\r\n"
    "Content-Length: %d\r\n"
    "Connection: %s\r\n"
    "\r\n"
)


class AsyncGatewayServer:
    """Asyncio HTTP/1.1 JSON-RPC server over a :class:`Gateway`.

    Request bodies are dispatched to the gateway core on the loop's
    default thread pool (the core blocks on locks and storage); block
    production beats on a dedicated single-thread executor so it
    serializes with itself.  ``stop()`` performs the ordered shutdown:
    stop accepting → cancel the producer → drain the core (in-flight
    requests, then a mempool flush) → close the node and its store.
    """

    def __init__(self, gateway: Gateway, host: str = "127.0.0.1",
                 port: int = 0):
        self.gateway = gateway
        self.host = host
        self.port = port
        self._server: asyncio.AbstractServer | None = None
        self._producer_task: asyncio.Task | None = None
        self._producer_pool = ThreadPoolExecutor(
            max_workers=1, thread_name_prefix="serve-producer"
        )
        # Requests get their own pool: sharing the loop's default
        # executor with other run_in_executor users (an in-process
        # client, a metrics scraper) can starve request handling
        # outright on small machines — the default pool is only
        # ``cpu_count + 4`` threads deep.
        self._request_pool = ThreadPoolExecutor(
            max_workers=max(8, (os.cpu_count() or 1) * 2),
            thread_name_prefix="serve-rpc",
        )
        self._connections: set[asyncio.Task] = set()
        # Connections between "request read" and "response written".
        self._busy: set[asyncio.Task] = set()
        self._stopping = False

    async def start(self) -> None:
        loop = asyncio.get_running_loop()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._producer_task = loop.create_task(self._producer_loop())

    async def _producer_loop(self) -> None:
        loop = asyncio.get_running_loop()
        interval = self.gateway.config.block_interval_s
        while True:
            await asyncio.sleep(interval)
            await loop.run_in_executor(
                self._producer_pool, self.gateway.produce_block
            )

    async def _handle_connection(self, reader: asyncio.StreamReader,
                                 writer: asyncio.StreamWriter) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._connections.add(task)
        loop = asyncio.get_running_loop()
        try:
            peer = writer.get_extra_info("peername")
            default_client = f"{peer[0]}:{peer[1]}" if peer else "unknown"
            while True:
                request = await self._read_request(reader)
                if request is None:
                    break
                body, headers, keep_alive = request
                client = headers.get("x-client-id", default_client)
                self._busy.add(task)
                try:
                    response = await loop.run_in_executor(
                        self._request_pool, self.gateway.handle_raw,
                        body, client,
                    )
                    keep_alive = keep_alive and not self._stopping
                    await self._write_response(writer, response, keep_alive)
                finally:
                    self._busy.discard(task)
                if not keep_alive:
                    break
        except (asyncio.IncompleteReadError, ConnectionError,
                asyncio.LimitOverrunError):
            pass
        except _HttpError as exc:
            try:
                await self._write_response(
                    writer,
                    jsonrpc.error_response(None, exc.code, exc.message),
                    keep_alive=False, status=exc.status,
                )
            except ConnectionError:
                pass
        finally:
            if task is not None:
                self._connections.discard(task)
            try:
                writer.close()
                await writer.wait_closed()
            except ConnectionError:
                pass

    async def _read_request(self, reader: asyncio.StreamReader):
        try:
            head = await reader.readuntil(b"\r\n\r\n")
        except asyncio.IncompleteReadError as exc:
            if not exc.partial:
                return None  # clean close between requests
            raise _HttpError(400, jsonrpc.PARSE_ERROR,
                             "truncated HTTP request") from None
        except asyncio.LimitOverrunError:
            raise _HttpError(431, jsonrpc.REQUEST_TOO_LARGE,
                             "HTTP headers too large") from None
        if len(head) > _MAX_HEADER_BYTES:
            raise _HttpError(431, jsonrpc.REQUEST_TOO_LARGE,
                             "HTTP headers too large")
        lines = head.decode("latin-1").split("\r\n")
        parts = lines[0].split(" ")
        if len(parts) != 3 or parts[0] != "POST":
            raise _HttpError(405, jsonrpc.INVALID_REQUEST,
                             "only POST is served")
        headers: dict[str, str] = {}
        for line in lines[1:]:
            if not line:
                continue
            name, sep, value = line.partition(":")
            if sep:
                headers[name.strip().lower()] = value.strip()
        try:
            length = int(headers.get("content-length", ""))
        except ValueError:
            raise _HttpError(411, jsonrpc.INVALID_REQUEST,
                             "Content-Length required") from None
        limit = self.gateway.config.max_request_bytes
        if length < 0 or length > limit + 1:
            # Read nothing: the declared body is over budget.
            raise _HttpError(413, jsonrpc.REQUEST_TOO_LARGE,
                             "request body too large")
        body = await reader.readexactly(length)
        keep_alive = headers.get("connection", "keep-alive") != "close"
        return body, headers, keep_alive

    @staticmethod
    async def _write_response(writer: asyncio.StreamWriter, body: bytes,
                              keep_alive: bool, status: int = 200) -> None:
        reason = {200: "200 OK", 400: "400 Bad Request",
                  405: "405 Method Not Allowed", 411: "411 Length Required",
                  413: "413 Payload Too Large",
                  431: "431 Request Header Fields Too Large"}
        head = _RESPONSE_TEMPLATE % (
            reason.get(status, f"{status} Error"), len(body),
            "keep-alive" if keep_alive else "close",
        )
        writer.write(head.encode("latin-1") + body)
        await writer.drain()

    async def stop(self, close_node: bool = True,
                   drain_timeout: float | None = 30.0) -> None:
        """Ordered shutdown; safe to call more than once.

        ``drain_timeout`` is ONE deadline for the whole shutdown —
        answering the requests already read, then draining the core —
        and None means in-flight work may take as long as it needs.
        A connection with no request in flight never counts against it.
        """
        loop = asyncio.get_running_loop()
        deadline = (None if drain_timeout is None
                    else loop.time() + drain_timeout)
        self._stopping = True  # responses from here on say "close"
        if self._server is not None:
            self._server.close()  # stop listening; open connections live on
        if self._producer_task is not None:
            self._producer_task.cancel()
            try:
                await self._producer_task
            except asyncio.CancelledError:
                pass
            self._producer_task = None
        # An idle keep-alive peer has nothing to finish: cancel it now,
        # so it can hold neither the shutdown nor the node's clean close
        # hostage.  Requests already read get the deadline to be
        # answered; past it they are cancelled too.
        for task in self._connections - self._busy:
            task.cancel()
        if self._busy:
            _, late = await asyncio.wait(set(self._busy),
                                         timeout=drain_timeout)
            for task in late:
                task.cancel()
        if self._connections:
            await asyncio.gather(*self._connections, return_exceptions=True)
        if self._server is not None:
            # After the connections: from Python 3.12 this waits for them.
            await self._server.wait_closed()
            self._server = None
        remaining = (None if deadline is None
                     else max(0.0, deadline - loop.time()))
        # Drain + close on the (now idle) producer thread: the core
        # blocks on inflight requests and block execution, which must
        # stall neither the loop nor the request pool it is waiting on.
        await loop.run_in_executor(
            self._producer_pool, lambda: self.gateway.close(
                close_node=close_node, drain_timeout=remaining
            )
        )
        self._producer_pool.shutdown(wait=True)
        self._request_pool.shutdown(wait=True)


class _HttpError(Exception):
    """Transport-level refusal, reported as HTTP status + RPC error."""

    def __init__(self, status: int, code: int, message: str):
        self.status = status
        self.code = code
        self.message = message
        super().__init__(message)
