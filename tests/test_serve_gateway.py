"""Serving gateway tests: JSON-RPC codec, rate limiting, admission
control, and the shutdown ordering fix.

The gateway is the consortium's front door, so these tests hold it to
the boundary contract: every malformed request becomes a *structured*
error (never a traceback), ``TxPool.add -> False`` surfaces as a
backpressure response that provably does not mutate state, responses
never carry confidential payload bytes (canary byte-scan), and shutdown
drains in-flight work before the KV store closes — pinned against a
real sealed-at-rest LSM store with writers still hammering the gateway.
"""

from __future__ import annotations

import asyncio
import http.client
import json
import os
import signal
import socket
import subprocess
import sys
import threading
import time

import pytest

import repro
from repro.chain.node import Node
from repro.core.config import EngineConfig
from repro.core.k_protocol import bootstrap_founder
from repro.errors import ChainError, StorageError
from repro.lang import compile_source
from repro.serve import jsonrpc
from repro.serve.gateway import (
    AsyncGatewayServer,
    CLOSED,
    CUT,
    DRAINING,
    Gateway,
    GatewayConfig,
    HALTED,
    PREVERIFY,
    SERVING,
)
from repro.serve.jsonrpc import RpcError
from repro.serve.ratelimit import RateLimiter, TokenBucket
from repro.sim.invariants import ConfidentialityChecker
from repro.workloads.clients import Client
from repro.workloads.coldchain import (
    COLDCHAIN_CONTRACT,
    COLDCHAIN_SCHEMA_SOURCE,
    encode_reading,
    encode_register,
)
from repro.workloads.mix import CANARY_TAG, TrafficMix

SHIPMENT = b"SHIP0001"


@pytest.fixture(scope="module")
def coldchain_artifact():
    return compile_source(COLDCHAIN_CONTRACT, "wasm")


class FakeClock:
    def __init__(self, now: float = 0.0):
        self.now = now

    def __call__(self) -> float:
        return self.now


def rpc_body(method: str, params: dict | None = None, request_id=1) -> bytes:
    return json.dumps({
        "jsonrpc": "2.0", "id": request_id,
        "method": method, "params": params or {},
    }).encode()


def call(gateway: Gateway, method: str, params: dict | None = None,
         client: str = "test") -> dict:
    response = gateway.handle_raw(rpc_body(method, params), client)
    return json.loads(response)


class GatewayHarness:
    """A provisioned single-node gateway with the coldchain contract
    deployed and one shipment registered, plus a fresh signing client."""

    def __init__(self, artifact, mempool_capacity: int = 1000,
                 config: GatewayConfig | None = None, clock=None,
                 engine_config: EngineConfig | None = None,
                 data_dir: str | None = None):
        self.node = Node(
            0, config=engine_config or EngineConfig(),
            data_dir=data_dir, mempool_capacity=mempool_capacity,
        )
        bootstrap_founder(self.node.confidential.km)
        self.node.confidential.provision_from_km()
        kwargs = {"clock": clock} if clock is not None else {}
        self.gateway = Gateway(self.node, config or GatewayConfig(), **kwargs)
        self.client = Client.from_seed(b"serve-test-client")
        self.pk = self.node.pk_tx
        deploy_tx, self.contract = self.client.confidential_deploy(
            self.pk, artifact, schema_source=COLDCHAIN_SCHEMA_SOURCE
        )
        for tx in (deploy_tx, self.client.confidential_call(
                self.pk, self.contract, "register",
                encode_register(SHIPMENT, -100, 100))):
            result = call(self.gateway, "submit_tx",
                          {"tx": tx.encode().hex()})
            assert result["result"]["accepted"], result
            assert self.gateway.produce_block() is not None

    def record_tx(self, i: int, sensor: bytes = b"sensor01"):
        raw, tx = self.record_raw_tx(i, sensor)
        return tx

    def record_raw_tx(self, i: int, sensor: bytes = b"sensor01"):
        raw = self.client.call_raw(
            self.contract, "record", encode_reading(SHIPMENT, i % 80, sensor)
        )
        return raw, self.client.seal(self.pk, raw)

    def submit(self, tx) -> dict:
        return call(self.gateway, "submit_tx", {"tx": tx.encode().hex()})


@pytest.fixture
def harness(coldchain_artifact):
    h = GatewayHarness(coldchain_artifact)
    yield h
    h.gateway.close()


# ---------------------------------------------------------------------------
# JSON-RPC codec
# ---------------------------------------------------------------------------


class TestJsonRpcCodec:
    def test_valid_request_parses(self):
        request = jsonrpc.parse_request(rpc_body("node_status", {"a": 1}))
        assert request == {"method": "node_status",
                           "params": {"a": 1}, "id": 1}

    def test_oversized_body_rejected(self):
        with pytest.raises(RpcError) as err:
            jsonrpc.parse_request(b"x" * 100, max_bytes=64)
        assert err.value.code == jsonrpc.REQUEST_TOO_LARGE
        assert err.value.data == {"limit_bytes": 64, "request_bytes": 100}

    @pytest.mark.parametrize("body", [
        b"not json at all", b"\xff\xfe\x00garbage", b"{truncated",
    ])
    def test_undecodable_body_is_parse_error(self, body):
        with pytest.raises(RpcError) as err:
            jsonrpc.parse_request(body)
        assert err.value.code == jsonrpc.PARSE_ERROR

    @pytest.mark.parametrize("request_obj,code", [
        ([{"jsonrpc": "2.0", "method": "a"}], jsonrpc.INVALID_REQUEST),
        ({"jsonrpc": "1.0", "method": "a"}, jsonrpc.INVALID_REQUEST),
        ({"jsonrpc": "2.0"}, jsonrpc.INVALID_REQUEST),
        ({"jsonrpc": "2.0", "method": 7}, jsonrpc.INVALID_REQUEST),
        ({"jsonrpc": "2.0", "method": ""}, jsonrpc.INVALID_REQUEST),
        ({"jsonrpc": "2.0", "method": "m" * 65}, jsonrpc.INVALID_REQUEST),
        ({"jsonrpc": "2.0", "method": "a", "params": [1]},
         jsonrpc.INVALID_PARAMS),
        ({"jsonrpc": "2.0", "method": "a", "id": {"x": 1}},
         jsonrpc.INVALID_REQUEST),
    ])
    def test_malformed_shapes(self, request_obj, code):
        with pytest.raises(RpcError) as err:
            jsonrpc.parse_request(json.dumps(request_obj).encode())
        assert err.value.code == code

    def test_responses_are_canonical(self):
        # Sorted keys, compact separators: identical requests must get
        # byte-identical responses (the determinism gate needs this).
        assert jsonrpc.ok_response(1, {"b": 2, "a": 1}) == (
            b'{"id":1,"jsonrpc":"2.0","result":{"a":1,"b":2}}'
        )
        assert jsonrpc.error_response(None, jsonrpc.PARSE_ERROR) == (
            b'{"error":{"code":-32700,"message":"parse error"},'
            b'"id":null,"jsonrpc":"2.0"}'
        )

    @pytest.mark.parametrize("params", [
        {}, {"tx": 7}, {"tx": "zz"}, {"tx": "abc"},
    ])
    def test_hex_param_rejects_bad_values(self, params):
        with pytest.raises(RpcError) as err:
            jsonrpc.hex_param(params, "tx")
        assert err.value.code == jsonrpc.INVALID_PARAMS

    def test_hex_param_size_guard(self):
        with pytest.raises(RpcError) as err:
            jsonrpc.hex_param({"tx": "ab" * 10}, "tx", max_bytes=4)
        assert err.value.code == jsonrpc.REQUEST_TOO_LARGE


# ---------------------------------------------------------------------------
# Rate limiting under a fake clock
# ---------------------------------------------------------------------------


class TestTokenBucket:
    def test_burst_then_refill(self):
        bucket = TokenBucket(rate=1.0, burst=2.0, now=0.0)
        assert bucket.allow(0.0)
        assert bucket.allow(0.0)
        assert not bucket.allow(0.0)
        assert not bucket.allow(0.5)  # only half a token back
        assert bucket.allow(1.5)

    def test_bucket_never_exceeds_burst(self):
        bucket = TokenBucket(rate=10.0, burst=2.0, now=0.0)
        # A long idle gap must not bank more than `burst` tokens.
        assert bucket.allow(100.0)
        assert bucket.allow(100.0)
        assert not bucket.allow(100.0)


class TestRateLimiter:
    def test_per_client_isolation(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=1.0, clock=clock)
        assert limiter.allow("alice")
        assert not limiter.allow("alice")
        assert limiter.allow("bob")  # a noisy neighbour costs bob nothing
        assert limiter.denied_total == 1

    def test_refill_restores_allowance(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=2.0, burst=1.0, clock=clock)
        assert limiter.allow("c")
        assert not limiter.allow("c")
        clock.now += 0.5  # 2/s * 0.5s = one token
        assert limiter.allow("c")

    def test_zero_rate_disables_limiting(self):
        limiter = RateLimiter(rate=0.0, burst=1.0, clock=FakeClock())
        assert all(limiter.allow("c") for _ in range(1000))
        assert len(limiter) == 0  # disabled limiter tracks nobody

    def test_client_table_is_bounded(self):
        clock = FakeClock()
        limiter = RateLimiter(rate=1.0, burst=5.0, clock=clock,
                              max_clients=10)
        for i in range(100):
            limiter.allow(f"client-{i}")
        assert len(limiter) == 10


# ---------------------------------------------------------------------------
# Gateway RPC methods over a real node
# ---------------------------------------------------------------------------


class TestGatewayRpc:
    def test_submit_commit_receipt_roundtrip(self, harness):
        raw, tx = harness.record_raw_tx(1)
        result = harness.submit(tx)["result"]
        assert result == {"accepted": True, "tx_hash": tx.tx_hash.hex()}

        # Before the block: pending, not found.
        pending = call(harness.gateway, "get_receipt",
                       {"tx_hash": tx.tx_hash.hex()})["result"]
        assert pending == {"found": False, "pending": True}

        assert harness.gateway.produce_block() is not None
        receipt = call(harness.gateway, "get_receipt",
                       {"tx_hash": tx.tx_hash.hex()})["result"]
        assert receipt["found"]
        # The sealed receipt opens only with the submitter's tx key.
        opened = harness.client.open_receipt(
            raw.tx_hash, bytes.fromhex(receipt["receipt"])
        )
        assert opened.success, opened.error

    def test_unknown_receipt_is_not_pending(self, harness):
        result = call(harness.gateway, "get_receipt",
                      {"tx_hash": "00" * 32})["result"]
        assert result == {"found": False, "pending": False}

    def test_duplicate_submission_reported(self, harness):
        tx = harness.record_tx(2)
        assert harness.submit(tx)["result"]["accepted"]
        dup = harness.submit(tx)["result"]
        assert dup == {"accepted": False, "duplicate": True,
                       "tx_hash": tx.tx_hash.hex()}
        # ... and again after commit, via the receipts table.
        harness.gateway.produce_block()
        dup = harness.submit(tx)["result"]
        assert dup["duplicate"]
        assert harness.gateway.duplicates_total == 2

    def test_query_state_scoped_to_consensus_namespaces(self, harness):
        status = call(harness.gateway, "chain_status")["result"]
        assert status["height"] == 2  # deploy + register
        # The contract record lives under the replicated c: namespace.
        key = b"c:" + harness.contract
        result = call(harness.gateway, "query_state",
                      {"key": key.hex()})["result"]
        assert result["found"]
        # Node-local keys (sealed key backups, block bodies, ...) are
        # refused: they are not part of the replicated state contract.
        refused = call(harness.gateway, "query_state",
                       {"key": b"blkdata:x".hex()})
        assert refused["error"]["code"] == jsonrpc.INVALID_PARAMS

    def test_node_status_shape(self, harness):
        status = call(harness.gateway, "node_status")["result"]
        assert status["state"] == SERVING
        assert status["height"] == 2
        assert status["pk_tx"] == harness.node.confidential.pk_tx.hex()
        assert status["backpressure_total"] == 0

    def test_public_deploy_returns_predicted_address(
            self, harness, coldchain_artifact):
        client = Client.from_seed(b"public-deployer")
        raw, address = client.deploy_raw(
            coldchain_artifact, COLDCHAIN_SCHEMA_SOURCE
        )
        result = call(harness.gateway, "deploy",
                      {"tx": Client.public(raw).encode().hex()})["result"]
        assert result["accepted"]
        assert result["contract"] == address.hex()

    def test_deploy_rejects_public_non_deploy(self, harness):
        client = Client.from_seed(b"public-caller")
        raw = client.call_raw(b"\x01" * 20, "m", b"")
        tx = Client.public(raw)
        accepted = harness.gateway.accepted_total
        response = call(harness.gateway, "deploy", {"tx": tx.encode().hex()})
        assert response["error"]["code"] == jsonrpc.INVALID_PARAMS
        # Refused means refused: the transaction entered no pool and
        # will never commit.
        assert tx.tx_hash not in harness.node.unverified
        assert tx.tx_hash not in harness.node.verified
        assert harness.gateway.accepted_total == accepted


    def test_transaction_larger_than_a_block_is_refused(self, harness):
        # Regression: a sealed call over the block budget used to be
        # answered "accepted" and then dropped at drafting, so it never
        # got a receipt and get_receipt said it was not even pending.
        budget = harness.gateway.config.max_block_bytes
        tx = harness.client.confidential_call(
            harness.pk, harness.contract, "record", b"x" * 6000
        )
        assert tx.wire_size > budget
        accepted = harness.gateway.accepted_total
        response = harness.submit(tx)
        assert response["error"]["code"] == jsonrpc.REQUEST_TOO_LARGE
        assert response["error"]["data"]["limit_bytes"] == budget
        assert tx.tx_hash not in harness.node.unverified
        assert tx.tx_hash not in harness.node.verified
        assert harness.gateway.accepted_total == accepted


class TestMalformedRequests:
    """Garbage in, structured errors out — never a traceback."""

    @pytest.mark.parametrize("body,code", [
        (b"", jsonrpc.PARSE_ERROR),
        (b"\x00\x01\x02", jsonrpc.PARSE_ERROR),
        (b"[]", jsonrpc.INVALID_REQUEST),
        (b'{"jsonrpc":"2.0","method":"nope","id":1}',
         jsonrpc.METHOD_NOT_FOUND),
        (b'{"jsonrpc":"2.0","method":"submit_tx","id":1}',
         jsonrpc.INVALID_PARAMS),
        (b'{"jsonrpc":"2.0","method":"submit_tx",'
         b'"params":{"tx":"ffff"},"id":1}', jsonrpc.INVALID_PARAMS),
        (b'{"jsonrpc":"2.0","method":"get_receipt",'
         b'"params":{"tx_hash":"abcd"},"id":1}', jsonrpc.INVALID_PARAMS),
    ])
    def test_structured_errors_only(self, harness, body, code):
        response = harness.gateway.handle_raw(body, "fuzzer")
        decoded = json.loads(response)
        assert decoded["error"]["code"] == code
        for needle in (b"Traceback", b"File \"", b".py"):
            assert needle not in response

    def test_oversized_request_body(self, harness):
        body = rpc_body("submit_tx", {"tx": "ab" * (1 << 16)})
        decoded = json.loads(harness.gateway.handle_raw(body, "fuzzer"))
        assert decoded["error"]["code"] == jsonrpc.REQUEST_TOO_LARGE

    def test_error_responses_echo_request_id(self, harness):
        body = rpc_body("nope", request_id="req-77")
        decoded = json.loads(harness.gateway.handle_raw(body, "fuzzer"))
        assert decoded["id"] == "req-77"

    def test_invalid_counter_tracks_garbage(self, harness):
        before = harness.gateway.invalid_total
        harness.gateway.handle_raw(b"garbage", "fuzzer")
        assert harness.gateway.invalid_total == before + 1


class TestBackpressure:
    def test_pool_full_surfaces_as_backpressure(self, coldchain_artifact):
        harness = GatewayHarness(coldchain_artifact, mempool_capacity=2)
        try:
            gateway = harness.gateway
            txs = [harness.record_tx(i) for i in range(3)]
            assert harness.submit(txs[0])["result"]["accepted"]
            assert harness.submit(txs[1])["result"]["accepted"]

            height_before = harness.node.height
            response = harness.submit(txs[2])
            error = response["error"]
            assert error["code"] == jsonrpc.BACKPRESSURE
            assert error["data"]["pool_depth"] == 2
            assert gateway.backpressure_total == 1
            # The rejected transaction must leave no trace: not pooled,
            # no state transition, and no receipt ever.
            assert txs[2].tx_hash not in harness.node.unverified
            assert txs[2].tx_hash not in harness.node.verified
            assert harness.node.height == height_before

            # Draining the pool reopens admission.
            assert gateway.produce_block() is not None
            assert harness.submit(txs[2])["result"]["accepted"]
            gateway.produce_block()
            for tx in txs:
                found = call(gateway, "get_receipt",
                             {"tx_hash": tx.tx_hash.hex()})["result"]
                assert found["found"]
        finally:
            harness.gateway.close()

    def test_preverify_never_drops_pool_overflow(self, coldchain_artifact):
        # Regression: with the verified pool full, preverify_pending used
        # to pop transactions from `unverified` and silently lose them
        # when `verified.add` returned False — an accepted transaction
        # without a receipt.  The backlog must stay in `unverified`.
        harness = GatewayHarness(coldchain_artifact, mempool_capacity=2)
        try:
            node = harness.node
            txs = [harness.record_tx(i) for i in range(4)]
            assert harness.submit(txs[0])["result"]["accepted"]
            assert harness.submit(txs[1])["result"]["accepted"]
            assert node.preverify_pending() == 2
            assert harness.submit(txs[2])["result"]["accepted"]
            assert harness.submit(txs[3])["result"]["accepted"]
            # Verified is full: nothing may move, nothing may vanish.
            assert node.preverify_pending() == 0
            assert len(node.unverified) == 2
            # The drain loop must still flush everything accepted.
            assert harness.gateway.drain()
            for tx in txs:
                assert tx.tx_hash in node.receipts
        finally:
            harness.gateway.close()


def _one_block(txs, budget: int) -> list:
    """The FIFO prefix of ``txs`` that one block of ``budget`` bytes
    takes."""
    size = 0
    for count, tx in enumerate(txs):
        size += tx.wire_size
        if size > budget:
            return txs[:count]
    return list(txs)


class TestProducerSchedule:
    def test_a_pass_verifies_one_block_of_a_burst(self, harness):
        gateway, node = harness.gateway, harness.node
        budget = gateway.config.max_block_bytes
        txs = [harness.record_tx(i) for i in range(45)]
        first = _one_block(txs, budget)
        assert len(txs) >= 3 * len(first)
        for tx in txs:
            assert harness.submit(tx)["result"]["accepted"]
        assert gateway.preverify() == len(first)
        assert all(tx.tx_hash in node.verified for tx in first)
        assert all(tx.tx_hash in node.unverified
                   for tx in txs[len(first):])
        # One block's worth is verified: no further pass before a cut.
        assert gateway.next_step(0.0, None) is None
        # The cut drafts the block an unbounded pass would have.
        applied = gateway.produce_block()
        assert [tx.tx_hash for tx in applied.block.transactions] == [
            tx.tx_hash for tx in first
        ]
        assert gateway.next_step(0.0, None) == PREVERIFY

    def test_a_transaction_too_big_for_the_rest_stays_queued(
            self, harness):
        gateway, node = harness.gateway, harness.node
        budget = gateway.config.max_block_bytes
        small = [harness.record_tx(i) for i in range(10)]
        big = harness.client.confidential_call(
            harness.pk, harness.contract, "record", b"x" * 2000
        )
        used = sum(tx.wire_size for tx in small)
        assert used + big.wire_size > budget >= big.wire_size
        for tx in small + [big]:
            assert harness.submit(tx)["result"]["accepted"]
        assert gateway.preverify() == len(small)
        # Not dropped for overshooting what is left of the block: it
        # waits for the next one.
        assert big.tx_hash in node.unverified
        assert node.unverified.dropped_oversized == 0
        assert gateway.next_step(0.0, None) is None
        assert len(gateway.produce_block().block.transactions) == len(small)
        assert gateway.preverify() == 1
        assert gateway.produce_block().block.transactions[0].tx_hash == (
            big.tx_hash
        )
        assert node.verified.dropped_oversized == 0
        found = call(gateway, "get_receipt", {"tx_hash": big.tx_hash.hex()})
        assert found["result"]["found"]

    def test_idle_beats_and_missing_deadlines_wait(self, harness):
        gateway = harness.gateway
        interval = gateway.config.block_interval_s
        assert gateway.next_step(0.0, None) is None
        assert gateway.next_step(0.0, 1.0) == 1.0
        # A due beat with nothing to cut moves on by one interval.
        assert gateway.next_step(1.5, 1.0) == 1.5 + interval
        # An arrival is pre-verified before the due beat cuts it.
        assert harness.submit(harness.record_tx(1))["result"]["accepted"]
        assert gateway.next_step(1.5, 1.0) == PREVERIFY
        assert gateway.step(PREVERIFY) == 1
        assert gateway.next_step(1.5, 1.0) == CUT

    def test_failed_step_on_a_fake_clock_halts_the_gateway(
            self, coldchain_artifact):
        clock = FakeClock()
        harness = GatewayHarness(coldchain_artifact, clock=clock)
        gateway = harness.gateway
        commits = []

        def failing_commit(puts, deletes):
            commits.append(len(puts))
            raise StorageError("injected commit failure")

        harness.node.kv._commit = failing_commit
        deadline = clock() + gateway.config.block_interval_s
        assert harness.submit(harness.record_tx(1))["result"]["accepted"]
        assert gateway.next_step(clock(), deadline) == PREVERIFY
        assert gateway.step(PREVERIFY) == 1
        assert gateway.next_step(clock(), deadline) == deadline
        clock.now = deadline
        assert gateway.next_step(clock(), deadline) == CUT
        with pytest.raises(StorageError):
            gateway.step(CUT)
        assert commits and gateway.state == HALTED
        refused = harness.submit(harness.record_tx(2))
        assert refused["error"]["code"] == jsonrpc.UNAVAILABLE
        status = call(gateway, "node_status")["result"]
        assert status["state"] == HALTED
        assert call(gateway, "chain_status")["result"]["height"] == 2
        # A halted gateway takes no more passes.
        assert harness.node.receive_transaction(harness.record_tx(3))
        assert gateway.next_step(clock(), None) is None


class TestGatewayRateLimit:
    def test_rate_limited_clients_get_structured_refusal(
            self, coldchain_artifact):
        clock = FakeClock()
        harness = GatewayHarness(
            coldchain_artifact,
            config=GatewayConfig(rate_per_s=1.0, burst=2.0), clock=clock,
        )
        try:
            gateway = harness.gateway
            # The harness setup spent "test"'s burst; use fresh clients.
            assert "error" not in call(gateway, "node_status",
                                       client="alice")
            assert "error" not in call(gateway, "node_status",
                                       client="alice")
            refused = call(gateway, "node_status", client="alice")
            assert refused["error"]["code"] == jsonrpc.RATE_LIMITED
            assert refused["error"]["data"]["retry_after_s"] == 1.0
            # Other clients are unaffected; time refills alice.
            assert "error" not in call(gateway, "node_status", client="bob")
            clock.now += 1.0
            assert "error" not in call(gateway, "node_status",
                                       client="alice")
            assert gateway.limiter.denied_total == 1
        finally:
            harness.gateway.close()

    def test_client_id_header_grants_no_exemption(self):
        """``X-Client-Id`` is chosen by the client, so it names a
        rate-limit bucket and grants nothing: no name skips the budget
        of a running ``repro serve``."""
        src = os.path.dirname(os.path.dirname(repro.__file__))
        proc = subprocess.Popen(
            [sys.executable, "-m", "repro", "serve", "--port", "0",
             "--rate", "0.001", "--burst", "1"],
            stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True,
            env={**os.environ, "PYTHONPATH": src},
        )
        try:
            # Read the banner on a helper thread so a child that stalls
            # before printing it fails the test instead of hanging it.
            banner: list[str] = []
            reader = threading.Thread(
                target=lambda: banner.append(proc.stdout.readline()),
                daemon=True,
            )
            reader.start()
            reader.join(timeout=60)
            assert banner, "repro serve printed no banner within 60 s"
            line = banner[0]
            assert line.startswith("serving on http://"), line
            port = int(line.rsplit(":", 1)[1])
            body = rpc_body("node_status")
            first = json.loads(_post(port, body, client_id="setup"))
            second = json.loads(_post(port, body, client_id="setup"))
            assert "result" in first, first
            assert second["error"]["code"] == jsonrpc.RATE_LIMITED, second
        finally:
            proc.send_signal(signal.SIGINT)
            try:
                proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                proc.kill()
                proc.wait()
            proc.stdout.close()


# ---------------------------------------------------------------------------
# Confidentiality at the response boundary
# ---------------------------------------------------------------------------


class TestResponseConfidentiality:
    def test_no_canary_bytes_in_any_response(self, harness):
        checker = ConfidentialityChecker([CANARY_TAG])
        tx = harness.record_tx(3, sensor=CANARY_TAG)
        scanned = 0

        def rpc(method, params):
            nonlocal scanned
            response = harness.gateway.handle_raw(
                rpc_body(method, params), "canary-client"
            )
            checker.scan_wire(response, f"gateway {method} response")
            scanned += 1
            return json.loads(response)

        assert rpc("submit_tx", {"tx": tx.encode().hex()})["result"][
            "accepted"]
        harness.gateway.produce_block()
        receipt = rpc("get_receipt", {"tx_hash": tx.tx_hash.hex()})
        assert receipt["result"]["found"]
        rpc("node_status", {})
        rpc("chain_status", {})
        key = b"c:" + harness.contract
        rpc("query_state", {"key": key.hex()})
        # The committed receipt blob and the whole store stay sealed too.
        checker.scan_blobs(
            harness.node.receipt_blobs_at(harness.node.height),
            "receipt blobs",
        )
        checker.scan_kv(0, harness.node.kv)
        assert scanned == 5

    def test_mixed_traffic_stays_sealed_and_gets_receipts(self):
        """The SCF-AR, ABS and coldchain mix through one gateway: the
        mix's canaries never reach a response, a committed receipt blob
        or the store, and every accepted transaction gets a receipt."""
        node = Node(0)
        bootstrap_founder(node.confidential.km)
        node.confidential.provision_from_km()
        gateway = Gateway(node, GatewayConfig(max_block_bytes=1 << 14))
        mix = TrafficMix(node.pk_tx, seed=7,
                         weights={"scf": 1.0, "abs": 1.0, "coldchain": 1.0})
        checker = ConfidentialityChecker(mix.canary_needles)

        def rpc(method: str, params: dict) -> dict:
            response = gateway.handle_raw(rpc_body(method, params), "mix")
            checker.scan_wire(response, f"{method} response")
            return json.loads(response)

        def submit(tx) -> bytes:
            result = rpc("submit_tx", {"tx": tx.encode().hex()})["result"]
            assert result["accepted"], result
            return tx.tx_hash

        def commit_pools() -> None:
            while len(node.unverified) or len(node.verified):
                applied = gateway.produce_block()
                assert applied is not None
                checker.scan_blobs(
                    node.receipt_blobs_at(applied.block.header.height),
                    "committed receipt blob",
                )

        try:
            accepted = []
            # A setup call targets the contract a deploy before it
            # created, so each one commits before the next is sent.
            for request in (mix.deploy_transactions()
                            + mix.setup_transactions()):
                accepted.append(submit(request.tx))
                commit_pools()
            # About a dozen business transactions, at least four of each
            # workload; every draw is sent, as each one takes a nonce.
            drawn = {"scf": 0, "abs": 0, "coldchain": 0}
            while min(drawn.values()) < 4:
                request = mix.next_request()
                drawn[request.workload] += 1
                accepted.append(submit(request.tx))
            commit_pools()
            for tx_hash in accepted:
                receipt = rpc("get_receipt", {"tx_hash": tx_hash.hex()})
                assert receipt["result"]["found"], tx_hash.hex()
            checker.scan_kv(0, node.kv)
        finally:
            gateway.close()


# ---------------------------------------------------------------------------
# Status response shape
# ---------------------------------------------------------------------------


class TestStatusShape:
    def test_status_response_shape_is_pinned(self, harness):
        """The exact status response shapes, pinned: the gateway must not
        grow fields (or lose any) silently."""
        node_status = call(harness.gateway, "node_status")["result"]
        assert set(node_status) == {
            "node_id", "height", "head_hash", "state", "unverified_depth",
            "verified_depth", "accepted_total", "backpressure_total",
            "blocks_produced", "pk_tx",
        }
        chain_status = call(harness.gateway, "chain_status")["result"]
        assert set(chain_status) == {
            "height", "head_hash", "txs_committed", "head",
        }


# ---------------------------------------------------------------------------
# Shutdown ordering (the drain-before-close fix)
# ---------------------------------------------------------------------------


class TestShutdownOrdering:
    def test_drain_flushes_accepted_transactions(self, harness):
        txs = [harness.record_tx(i) for i in range(5)]
        for tx in txs:
            assert harness.submit(tx)["result"]["accepted"]
        harness.gateway.close()
        assert harness.gateway.state == CLOSED
        assert harness.node.closed
        # Every accepted transaction committed before the store closed.
        for tx in txs:
            assert tx.tx_hash in harness.node.receipts

    def test_draining_refuses_writes_allows_reads(self, harness):
        tx = harness.record_tx(1)
        assert harness.submit(tx)["result"]["accepted"]
        harness.gateway.begin_drain()
        assert harness.gateway.state == DRAINING
        refused = harness.submit(harness.record_tx(2))
        assert refused["error"]["code"] == jsonrpc.SHUTTING_DOWN
        assert "error" not in call(harness.gateway, "node_status")
        assert harness.gateway.drain()
        assert tx.tx_hash in harness.node.receipts

    def test_preverify_moves_arrivals_only_while_serving(self, harness):
        first, second = harness.record_tx(1), harness.record_tx(2)
        assert harness.submit(first)["result"]["accepted"]
        assert harness.gateway.preverify() == 1
        assert first.tx_hash in harness.node.verified
        assert harness.submit(second)["result"]["accepted"]
        harness.gateway.begin_drain()
        assert harness.gateway.preverify() == 0
        assert second.tx_hash in harness.node.unverified

    def test_closed_gateway_answers_not_raises(self, harness):
        harness.gateway.close()
        response = json.loads(
            harness.gateway.handle_raw(rpc_body("node_status"), "late")
        )
        assert response["error"]["code"] == jsonrpc.SHUTTING_DOWN
        assert harness.gateway.produce_block() is None
        harness.gateway.close()  # idempotent
        harness.node.close()  # so is the node
        with pytest.raises(ChainError):
            harness.node.apply_transactions([])

    def test_shutdown_under_load_leaves_no_torn_state(
            self, coldchain_artifact, tmp_path):
        # The regression this pins: Node.close() used to be callable
        # while block production was mid-flight, tearing the WAL tail.
        # Now the gateway drains first; a post-crash reopen must see a
        # clean chain with every accepted transaction committed.
        engine_config = EngineConfig(storage_backend="lsm")
        harness = GatewayHarness(
            coldchain_artifact, engine_config=engine_config,
            data_dir=str(tmp_path),
        )
        gateway, node = harness.gateway, harness.node
        txs = [harness.record_tx(i) for i in range(24)]
        responses: list[bytes] = []
        responses_lock = threading.Lock()
        start = threading.Barrier(4)

        def writer(chunk):
            start.wait()
            for tx in chunk:
                response = gateway.handle_raw(
                    rpc_body("submit_tx", {"tx": tx.encode().hex()}),
                    "storm",
                )
                with responses_lock:
                    responses.append(response)

        def producer():
            start.wait()
            for _ in range(50):
                gateway.produce_block()

        threads = [threading.Thread(target=writer, args=(txs[i::2],))
                   for i in range(2)]
        threads.append(threading.Thread(target=producer))
        for t in threads:
            t.start()
        start.wait()
        gateway.close()  # races the writers and the producer
        for t in threads:
            t.join()

        accepted = []
        for response in responses:
            decoded = json.loads(response)  # always well-formed JSON
            if "result" in decoded:
                assert decoded["result"]["accepted"]
                accepted.append(decoded["result"]["tx_hash"])
            else:
                assert decoded["error"]["code"] in (
                    jsonrpc.SHUTTING_DOWN, jsonrpc.BACKPRESSURE
                )
        for tx_hash_hex in accepted:
            assert bytes.fromhex(tx_hash_hex) in node.receipts

        # Reopen the store: recovery must restore the full chain (state
        # root re-verified inside) — no torn WAL tail, nothing lost.
        reopened = Node(0, config=engine_config, data_dir=str(tmp_path),
                        platform=node.confidential.platform)
        try:
            assert reopened.restore_chain_from_storage() == node.height
            for tx_hash_hex in accepted:
                assert bytes.fromhex(tx_hash_hex) in reopened.receipts
        finally:
            reopened.close()


# ---------------------------------------------------------------------------
# The asyncio HTTP front end
# ---------------------------------------------------------------------------


def _post(port: int, body: bytes, client_id: str = "http-test") -> bytes:
    connection = http.client.HTTPConnection("127.0.0.1", port, timeout=30)
    try:
        connection.request("POST", "/rpc", body=body,
                           headers={"X-Client-Id": client_id})
        return connection.getresponse().read()
    finally:
        connection.close()


class TestAsyncServer:
    def test_http_serving_end_to_end(self, coldchain_artifact):
        harness = GatewayHarness(coldchain_artifact)
        checker = ConfidentialityChecker([CANARY_TAG])
        num_clients, per_client = 8, 4
        plans = [
            [harness.record_tx(c * per_client + i, sensor=CANARY_TAG)
             for i in range(per_client)]
            for c in range(num_clients)
        ]

        def worker(port: int, index: int) -> list[bytes]:
            results = []
            for tx in plans[index]:
                results.append(_post(
                    port, rpc_body("submit_tx", {"tx": tx.encode().hex()}),
                    client_id=f"client-{index}",
                ))
            return results

        def transport_guards(port: int):
            # Raw-socket HTTP abuse must get status-coded refusals.
            # (Runs on an executor thread: blocking socket reads on the
            # loop thread would deadlock against the server itself.)
            statuses = []
            for head in (
                b"GET /rpc HTTP/1.1\r\n\r\n",
                b"POST /rpc HTTP/1.1\r\n\r\n",
                b"POST /rpc HTTP/1.1\r\nContent-Length: 99999999\r\n\r\n",
            ):
                raw = socket.create_connection(("127.0.0.1", port),
                                               timeout=30)
                try:
                    raw.sendall(head)
                    statuses.append(raw.recv(4096).split(b"\r\n", 1)[0])
                finally:
                    raw.close()
            return statuses

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                statuses = await loop.run_in_executor(
                    None, transport_guards, server.port
                )
                for status, code in zip(statuses, (b"405", b"411", b"413")):
                    assert code in status, statuses

                # Then the concurrent storm.
                return await asyncio.gather(*[
                    loop.run_in_executor(None, worker, server.port, i)
                    for i in range(num_clients)
                ])
            finally:
                await server.stop()

        batches = asyncio.run(scenario())
        accepted = []
        for batch in batches:
            for response in batch:
                checker.scan_wire(response, "http response")
                decoded = json.loads(response)
                assert decoded["result"]["accepted"], decoded
                accepted.append(decoded["result"]["tx_hash"])
        assert len(accepted) == num_clients * per_client
        # stop() drained: every accepted tx committed, then the node
        # closed; the sealed store never saw the canary in plaintext.
        assert harness.node.closed
        for tx_hash_hex in accepted:
            assert bytes.fromhex(tx_hash_hex) in harness.node.receipts
        checker.scan_kv(0, harness.node.kv)

    @pytest.mark.parametrize("drain_timeout", [30.0, None])
    def test_stop_does_not_wait_for_an_idle_keepalive_connection(
            self, coldchain_artifact, drain_timeout):
        # Regression: stop() awaited every open connection with no bound,
        # so one client that answered a request and then sat idle on its
        # keep-alive socket held shutdown — and the node's clean close —
        # forever.  An idle connection has nothing to finish: it costs
        # neither the drain bound nor, with no bound, the shutdown.
        harness = GatewayHarness(coldchain_artifact)

        def one_request_then_idle(port: int):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            connection.request("POST", "/rpc", body=rpc_body("node_status"))
            assert connection.getresponse().status == 200
            return connection  # left open

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            connection = await loop.run_in_executor(
                None, one_request_then_idle, server.port
            )
            try:
                await asyncio.wait_for(
                    server.stop(drain_timeout=drain_timeout), timeout=10
                )
            finally:
                connection.close()

        asyncio.run(scenario())
        assert harness.node.closed

    def test_stop_ends_an_idle_keepalive_connection_cleanly(
            self, coldchain_artifact):
        # Regression: the idle connection stop() cancels used to end as a
        # cancelled task, and asyncio's stream callback then reported
        # "Exception in callback ...connection_made.<locals>.callback"
        # through the loop's exception handler.
        harness = GatewayHarness(coldchain_artifact)
        reports = []

        def one_request_then_idle(port: int):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            connection.request("POST", "/rpc", body=rpc_body("node_status"))
            assert connection.getresponse().read()
            return connection  # left open

        async def scenario():
            loop = asyncio.get_running_loop()
            loop.set_exception_handler(lambda _, context: reports.append(context))
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            connection = await loop.run_in_executor(
                None, one_request_then_idle, server.port
            )
            try:
                assert await asyncio.wait_for(server.stop(), timeout=10) is None
                for _ in range(5):
                    await asyncio.sleep(0)  # let done-callbacks run
            finally:
                connection.close()

        asyncio.run(scenario())
        assert reports == []
        assert harness.node.closed

    def test_stop_answers_the_request_in_flight_and_closes_it(
            self, coldchain_artifact):
        # The other half of the rule: a request already read when stop()
        # begins is answered (inside the drain bound), and the response
        # ends the keep-alive so the connection does not linger.
        harness = GatewayHarness(coldchain_artifact)
        entered, release = threading.Event(), threading.Event()
        handle_raw = harness.gateway.handle_raw

        def slow_handle_raw(body, client=""):
            entered.set()
            assert release.wait(30)
            return handle_raw(body, client)

        harness.gateway.handle_raw = slow_handle_raw

        def one_request(port: int):
            connection = http.client.HTTPConnection("127.0.0.1", port,
                                                    timeout=30)
            try:
                connection.request("POST", "/rpc",
                                   body=rpc_body("node_status"))
                response = connection.getresponse()
                return (response.status, response.getheader("Connection"),
                        json.loads(response.read()))
            finally:
                connection.close()

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            request = loop.run_in_executor(None, one_request, server.port)
            await loop.run_in_executor(None, entered.wait, 30)
            stopping = asyncio.ensure_future(server.stop(drain_timeout=30.0))
            await asyncio.sleep(0.05)
            assert not stopping.done()  # waiting on the request, bounded
            release.set()
            await asyncio.wait_for(stopping, timeout=10)
            return await request

        status, connection_header, decoded = asyncio.run(scenario())
        assert status == 200 and "result" in decoded
        assert connection_header == "close"
        assert harness.node.closed

    def test_arrival_is_preverified_before_the_beat(self, coldchain_artifact):
        # Pre-verification runs between beats, on what has arrived: with
        # a 2 s beat, a submitted transaction is in the verified pool
        # long before the block that will carry it is cut.
        harness = GatewayHarness(
            coldchain_artifact, config=GatewayConfig(block_interval_s=2.0)
        )
        tx = harness.record_tx(1)
        blocks = harness.gateway.blocks_produced

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                response = await loop.run_in_executor(
                    None, _post, server.port,
                    rpc_body("submit_tx", {"tx": tx.encode().hex()}),
                )
                assert json.loads(response)["result"]["accepted"]
                for _ in range(100):
                    if tx.tx_hash in harness.node.verified:
                        break
                    await asyncio.sleep(0.01)
                return (tx.tx_hash in harness.node.verified,
                        harness.gateway.blocks_produced)
            finally:
                assert await server.stop() is None

        verified, produced = asyncio.run(scenario())
        assert verified and produced == blocks
        assert tx.tx_hash in harness.node.receipts  # the drain cut it

    def test_stop_during_the_between_beat_wait_is_prompt(
            self, coldchain_artifact):
        harness = GatewayHarness(
            coldchain_artifact, config=GatewayConfig(block_interval_s=5.0)
        )
        tx = harness.record_tx(1)

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            await loop.run_in_executor(
                None, _post, server.port,
                rpc_body("submit_tx", {"tx": tx.encode().hex()}),
            )
            await asyncio.sleep(0.2)  # pass done; waiting for the beat
            started = time.perf_counter()
            await asyncio.wait_for(server.stop(), timeout=10)
            return time.perf_counter() - started

        assert asyncio.run(scenario()) < 1.0
        assert harness.node.closed
        assert tx.tx_hash in harness.node.receipts

    def test_full_verified_pool_bounds_preverify_passes(
            self, coldchain_artifact):
        # A pass that moves nothing must not be retried before the beat
        # (it would spin): with the verified pool full, arrivals wake
        # the producer at most once or twice per interval.
        harness = GatewayHarness(
            coldchain_artifact, mempool_capacity=4,
            config=GatewayConfig(block_interval_s=2.0),
        )
        for i in range(4):
            assert harness.submit(harness.record_tx(i))["result"]["accepted"]
        assert harness.gateway.preverify() == 4  # verified pool full
        late = [harness.record_tx(i) for i in range(4, 7)]
        events = []
        preverify = harness.gateway.preverify
        produce_block = harness.gateway.produce_block

        def counting_preverify():
            events.append("pass")
            return preverify()

        def counting_produce_block(*args, **kwargs):
            events.append("beat")
            return produce_block(*args, **kwargs)

        harness.gateway.preverify = counting_preverify
        harness.gateway.produce_block = counting_produce_block

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                for tx in late:
                    response = await loop.run_in_executor(
                        None, _post, server.port,
                        rpc_body("submit_tx", {"tx": tx.encode().hex()}),
                    )
                    assert json.loads(response)["result"]["accepted"]
                    await asyncio.sleep(0.05)
                await asyncio.sleep(0.3)
            finally:
                await server.stop()

        asyncio.run(scenario())
        first_beat = (events.index("beat") if "beat" in events
                      else len(events))
        assert 1 <= first_beat <= 2, events
        for tx in late:
            assert tx.tx_hash in harness.node.receipts

    @pytest.mark.parametrize("cut_empty_blocks", [False, True])
    def test_idle_beats_stay_off_the_producer_thread(
            self, coldchain_artifact, cut_empty_blocks):
        # With both pools empty and empty blocks off, a beat has nothing
        # to do and costs no hop to the producer thread; with empty
        # blocks on, every beat still cuts one.
        harness = GatewayHarness(
            coldchain_artifact,
            config=GatewayConfig(block_interval_s=0.02,
                                 cut_empty_blocks=cut_empty_blocks),
        )
        beats = []
        produce_block = harness.gateway.produce_block

        def counting_produce_block(*args, **kwargs):
            beats.append(1)
            return produce_block(*args, **kwargs)

        harness.gateway.produce_block = counting_produce_block
        blocks = harness.gateway.blocks_produced

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            try:
                await asyncio.sleep(0.2)  # ~10 intervals
                return len(beats), harness.gateway.blocks_produced - blocks
            finally:
                await server.stop()

        beat_calls, cut = asyncio.run(scenario())
        if cut_empty_blocks:
            assert beat_calls >= 3 and cut >= 3
        else:
            assert beat_calls == 0 and cut == 0

    def test_reads_trigger_no_preverify_pass(self, coldchain_artifact):
        harness = GatewayHarness(
            coldchain_artifact, config=GatewayConfig(block_interval_s=0.02)
        )
        passes = []
        preverify = harness.gateway.preverify

        def counting_preverify():
            passes.append(1)
            return preverify()

        harness.gateway.preverify = counting_preverify
        tx = harness.record_tx(1)
        reads = [rpc_body("node_status"), rpc_body("chain_status"),
                 rpc_body("get_receipt", {"tx_hash": "00" * 32}),
                 rpc_body("query_state",
                          {"key": (b"c:" + harness.contract).hex()})]

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            try:
                for body in reads * 5:
                    response = await loop.run_in_executor(
                        None, _post, server.port, body
                    )
                    assert "result" in json.loads(response)
                await asyncio.sleep(0.1)  # several beats
                after_reads = len(passes)
                # The control: a write does wake a pass.
                await loop.run_in_executor(
                    None, _post, server.port,
                    rpc_body("submit_tx", {"tx": tx.encode().hex()}),
                )
                for _ in range(200):
                    if passes:
                        break
                    await asyncio.sleep(0.01)
                return after_reads, len(passes)
            finally:
                await server.stop()

        after_reads, after_write = asyncio.run(scenario())
        assert after_reads == 0
        assert after_write >= 1

    def test_failed_beat_halts_admission_and_stop_reports_it(
            self, coldchain_artifact):
        # A beat whose storage commit fails must not leave the server
        # answering "accepted" for transactions nothing will commit, and
        # stop() must still drain what it can, close the node and its
        # thread pools, and report the failure instead of raising it.
        harness = GatewayHarness(
            coldchain_artifact, config=GatewayConfig(block_interval_s=0.01)
        )
        commits = []

        def failing_commit(puts, deletes):
            commits.append(len(puts))
            raise StorageError("injected commit failure")

        harness.node.kv._commit = failing_commit
        first, second, third = (harness.record_tx(i) for i in range(3))

        def submit(port, tx):
            return json.loads(_post(
                port, rpc_body("submit_tx", {"tx": tx.encode().hex()})
            ))

        async def scenario():
            server = AsyncGatewayServer(harness.gateway)
            await server.start()
            loop = asyncio.get_running_loop()
            stopped = False
            try:
                accepted = await loop.run_in_executor(
                    None, submit, server.port, first)
                assert accepted["result"]["accepted"], accepted
                for _ in range(500):
                    if harness.gateway.state == HALTED:
                        break
                    await asyncio.sleep(0.01)
                assert harness.gateway.state == HALTED
                refused = await loop.run_in_executor(
                    None, submit, server.port, second)
                status = json.loads(await loop.run_in_executor(
                    None, _post, server.port, rpc_body("node_status")))
                # Work still in the pool when stop() drains: it is tried.
                assert harness.node.receive_transaction(third)
                failure = await asyncio.wait_for(server.stop(), timeout=10)
                stopped = True
                return refused, status, failure
            finally:
                if not stopped:
                    await server.stop()

        refused, status, failure = asyncio.run(scenario())
        assert refused["error"]["code"] == jsonrpc.UNAVAILABLE
        assert second.tx_hash not in harness.node.unverified
        assert status["result"]["state"] == HALTED
        assert isinstance(failure, StorageError)
        assert len(commits) == 2  # the failed beat, then the drain's try
        assert harness.node.closed
        assert harness.gateway.state == CLOSED
        assert not [thread.name for thread in threading.enumerate()
                    if thread.name.startswith(("serve-producer",
                                               "serve-rpc"))]
