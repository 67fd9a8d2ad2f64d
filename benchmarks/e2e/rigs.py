"""The two rigs, behind one interface.

``ServeRig`` owns a child process (``serve_child.py``) and talks to it
over loopback HTTP plus the stdin/stdout control channel.  The server
must be a child: with the server inside the generator's interpreter a
prototype spread 58–78 tps run to run; in a child, 77.6–82.4.

``ConsortiumRig`` runs ``build_consortium(4)`` in this process on one
thread, driven by ``Consortium.broadcast`` + ``run_round``.  Injected
message delay is 0: latency there is processor and fsync time only.

Both give: ``pk_tx_hex``, ``commit_all(txs, block_txs)`` (set-up traffic,
applied in large blocks with no gateway), ``serve()``, ``target()``,
``mark(phase)`` → counter snapshot (with ``cpu_s``, the processor
seconds of the system's process), ``calibrate()`` → seconds the system's own process took for one pass of
the speed kernel,
``state_keys()``, ``status()``, ``restart()``, ``finish()`` → final
report, ``data_dirs``, ``close()``.
"""

from __future__ import annotations

import http.client
import json
import os
import subprocess
import sys
import time

import calibrate
import sut
from spans import Recorder

HERE = os.path.dirname(os.path.abspath(__file__))
CONTROL_TIMEOUT_S = 120.0
_REFUSALS = (-32050, -32051, -32053)  # backpressure, rate limit, draining


class RigError(RuntimeError):
    """The rig itself failed (not the system's answer to a request)."""


# -- serve rig ---------------------------------------------------------------


class HttpTarget:
    """One keep-alive JSON-RPC connection; scans every response body."""

    def __init__(self, port: int, needles: list[bytes]):
        self._connection = http.client.HTTPConnection(
            "127.0.0.1", port, timeout=60)
        self._needles = needles
        self.canary_hits = 0
        self.responses = 0
        self.accepted = 0  # transactions this connection got accepted

    def call(self, method: str, params: dict) -> dict:
        body = json.dumps({"jsonrpc": "2.0", "id": 1, "method": method,
                           "params": params}).encode()
        self._connection.request(
            "POST", "/rpc", body=body,
            headers={"Content-Length": str(len(body))})
        raw = self._connection.getresponse().read()
        self.responses += 1
        if any(needle in raw for needle in self._needles):
            self.canary_hits += 1
        return json.loads(raw)

    def submit(self, sealed) -> str:
        try:
            response = self.call("submit_tx", {"tx": sealed.wire})
        except (OSError, http.client.HTTPException, ValueError):
            return "error"
        error = response.get("error")
        if error is not None:
            return "refused" if error.get("code") in _REFUSALS else "error"
        return "accepted" if response["result"].get("accepted") else "error"

    def committed(self) -> int:
        return self.call("chain_status", {})["result"]["txs_committed"]

    def receipt(self, tx_hash: bytes) -> bytes | None:
        result = self.call("get_receipt", {"tx_hash": tx_hash.hex()}).get(
            "result") or {}
        return bytes.fromhex(result["receipt"]) if result.get("found") else None

    def read(self, key: str) -> bytes | None:
        result = self.call("query_state", {"key": key}).get("result") or {}
        return bytes.fromhex(result["value"]) if result.get("found") else None

    def pump(self) -> bool:
        return False  # the server produces blocks on its own beat

    def close(self) -> None:
        self._connection.close()


class ServeRig:
    def __init__(self, run_dir: str, traced: bool, trace_out: str | None):
        self.data_dirs = [os.path.join(run_dir, "node-0")]
        self.nodes = 1
        self.needles: list[bytes] = []
        self.port = 0
        self._targets: list[HttpTarget] = []
        self._child = subprocess.Popen(
            [sys.executable, os.path.join(HERE, "serve_child.py"),
             self.data_dirs[0], "1" if traced else "0", trace_out or "-"],
            stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True,
        )
        try:
            self.pk_tx_hex = self._read_reply()["pk_tx"]
        except BaseException:
            self.close()
            raise

    # control channel

    def _read_reply(self) -> dict:
        line = self._child.stdout.readline()
        if not line:
            raise RigError(
                f"serve child exited (code {self._child.poll()})")
        reply = json.loads(line)
        if "error" in reply:
            raise RigError(f"serve child: {reply['error']}")
        return reply

    def _control(self, **command) -> dict:
        self._child.stdin.write(json.dumps(command) + "\n")
        self._child.stdin.flush()
        return self._read_reply()

    # interface

    def target(self) -> HttpTarget:
        target = HttpTarget(self.port, self.needles)
        self._targets.append(target)
        return target

    def _close_targets(self) -> None:
        # AsyncGatewayServer.stop() awaits open connections with no
        # timeout; an idle keep-alive connection hangs it (README, known
        # defects), so every client connection closes first.
        for target in self._targets:
            target.close()

    def commit_all(self, txs: list, block_txs: int) -> None:
        self._control(cmd="commit", block_txs=block_txs,
                      txs=[tx.encode().hex() for tx in txs])

    def serve(self) -> None:
        self.port = self._control(cmd="serve")["port"]

    def mark(self, phase: str) -> dict:
        return self._control(cmd="mark", phase=phase)

    def calibrate(self) -> float:
        return self._control(cmd="calibrate")["pass_s"]

    def state_keys(self) -> list[str]:
        return self._control(cmd="keys")["keys"]

    def status(self, target: HttpTarget) -> dict:
        return target.call("chain_status", {})["result"]

    def restart(self, height: int) -> dict:
        """Drain, close, reopen the same data dir on the same platform;
        timed from the command to the first ``chain_status`` at full
        height over a fresh connection."""
        self._close_targets()
        started = time.perf_counter()
        reply = self._control(cmd="restart")
        self.port = reply["port"]
        probe = self.target()
        while self.status(probe)["height"] < height:
            if time.perf_counter() - started > CONTROL_TIMEOUT_S:
                raise RigError("restarted node never reached full height")
            time.sleep(0.002)
        reply["restart_s"] = time.perf_counter() - started
        return reply

    def finish(self) -> dict:
        """Clean drain + close of the system; the child then exits."""
        self._close_targets()
        final = self._control(cmd="stop")
        self._child.wait(timeout=CONTROL_TIMEOUT_S)
        return final

    def close(self) -> None:
        """Teardown that cannot hang: ask, wait, then kill."""
        self._close_targets()
        child = self._child
        if child.poll() is None:
            try:
                child.stdin.close()  # EOF on the control channel = stop
                child.wait(timeout=20)
            except (OSError, subprocess.TimeoutExpired):
                child.kill()
                child.wait()
        for pipe in (child.stdin, child.stdout):
            if pipe is not None and not pipe.closed:
                pipe.close()

    @property
    def canary_hits(self) -> int:
        return sum(target.canary_hits for target in self._targets)

    @property
    def responses_scanned(self) -> int:
        return sum(target.responses for target in self._targets)


# -- consortium rig ------------------------------------------------------------


class ConsortiumRig:
    """Four replicas in this process; also its own (only) target."""

    needles: list[bytes] = []
    canary_hits = 0  # no wire: nothing leaves the process
    responses_scanned = 0

    def __init__(self, run_dir: str, traced: bool, trace_out: str | None,
                 nodes: int = 4):
        from repro.chain.node import Consortium, build_consortium

        self.nodes = nodes
        self.data_dirs = [os.path.join(run_dir, f"node-{i}")
                          for i in range(nodes)]
        self._trace_out = trace_out
        self.replicas, _ = build_consortium(
            nodes, config=sut.ENGINE_CONFIG, data_dirs=self.data_dirs)
        self.consortium = Consortium(self.replicas)
        self.recorder = Recorder() if traced else None
        self.waits = sut.PoolWaits(self.recorder) if traced else None
        if traced:
            for node in self.replicas:
                sut.instrument(self.recorder, self.waits, node)
            self.recorder.wrap(
                self.consortium, "run_round", "consortium.run_round",
                lambda applied, _a: (applied.block.header.height,
                                     len(applied.block.transactions)))
        self.pk_tx_hex = self.replicas[0].confidential.pk_tx.hex()
        self._front = self.replicas[0]  # the replica that answers queries
        self.accepted = 0  # business transactions broadcast (loadgen counts)
        self._committed = 0  # ... and committed by a round of pump()

    # target

    def target(self) -> "ConsortiumRig":
        return self

    def submit(self, sealed) -> str:
        self.consortium.broadcast(sealed.tx)
        return "accepted"

    def committed(self) -> int:
        return self._committed

    def receipt(self, tx_hash: bytes) -> bytes | None:
        return self._front.receipts.get(tx_hash)

    def read(self, key: str) -> bytes | None:
        return self._front.kv.get(bytes.fromhex(key))

    def _round(self, max_bytes: int, max_txs: int | None = None):
        """One consensus round, if any transaction is waiting."""
        leader = self.consortium.leader
        if not (len(leader.unverified) or len(leader.verified)):
            return None
        return self.consortium.run_round(max_bytes=max_bytes, max_txs=max_txs)

    def pump(self) -> bool:
        applied = self._round(sut.BLOCK_BYTES)
        if applied is None:
            return False
        self._committed += len(applied.block.transactions)
        return True

    # interface

    def commit_all(self, txs: list, block_txs: int) -> None:
        for tx in txs:
            self.consortium.broadcast(tx)
        while self._round(1 << 30, block_txs) is not None:
            pass

    def serve(self) -> None:
        pass  # no front door on this rig

    def mark(self, phase: str) -> dict:
        if self.recorder is not None:
            self.recorder.phase = phase
        return {
            "node": sut.total([sut.counters(node) for node in self.replicas]),
            "gateway": {},
            **sut.process_usage(),
        }

    def calibrate(self) -> float:
        return calibrate.one_pass()

    def state_keys(self) -> list[str]:
        return sut.state_keys(self._front)

    def status(self, target=None) -> dict:
        head = self._front.chain[-1].header
        return {"height": self._front.height,
                "head": {"state_root": head.state_root.hex()}}

    def restart(self, height: int) -> dict:
        """Close the last replica and reopen its data dir on the same
        platform, restoring keys and chain from storage; it answers the
        queries from then on."""
        index = self.nodes - 1
        old = self.replicas[index]
        started = time.perf_counter()
        old.close()
        close_s = time.perf_counter() - started
        node, timings = sut.restore_node(
            old.node_id, self.data_dirs[index], old.confidential.platform)
        restart_s = time.perf_counter() - started
        if node.height != height:
            raise RigError(
                f"restarted replica at height {node.height}, not {height}")
        if self.recorder is not None:
            sut.instrument(self.recorder, self.waits, node)
        self.replicas[index] = self._front = node
        return {**timings, "restart_s": restart_s, "close_s": close_s}

    def replica_states(self) -> list[tuple[bytes, dict]]:
        from repro.chain.node import consensus_state

        return [(node.state_root(), consensus_state(node.kv))
                for node in self.replicas]

    def finish(self) -> dict:
        final = {"snapshot": self.mark("closed")}
        self.close()
        if self.recorder is not None:
            final.update(sut.trace_report(
                self.recorder, self.waits, self._trace_out))
        return final

    def close(self) -> None:
        for node in self.replicas:
            node.close()
