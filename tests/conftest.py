"""Shared fixtures and helpers for the test suite."""

from __future__ import annotations

import os
import random
import zlib

import pytest

from repro.chain.executor import BlockExecutor
from repro.core import ConfidentialEngine, PublicEngine, bootstrap_founder
from repro.crypto.ecc import Comb, decode_point, scalar_mult
from repro.lang import compile_source
from repro.storage import MemoryKV
from repro.vm.host import HostContext
from repro.workloads.clients import Client


class MockHost(HostContext):
    """A plain host context for direct VM tests."""

    def __init__(self, input_data: bytes = b"", caller: bytes = b"\xaa" * 20):
        self._input = input_data
        self._caller = caller
        self.logs: list[bytes] = []
        self.store: dict[bytes, bytes] = {}
        self.calls: list[tuple[bytes, str, bytes]] = []
        self.call_response: bytes = b""

    def get_input(self) -> bytes:
        return self._input

    def get_caller(self) -> bytes:
        return self._caller

    def storage_get(self, key: bytes) -> bytes | None:
        return self.store.get(key)

    def storage_set(self, key: bytes, value: bytes) -> None:
        self.store[key] = value

    def call_contract(self, address: bytes, method: str, argument: bytes) -> bytes:
        self.calls.append((address, method, argument))
        return self.call_response


COUNTER_SOURCE = """
fn increment() {
    let key = "count";
    let buf = alloc(8);
    let n = storage_get(key, 5, buf, 8);
    let v = 0;
    if (n == 8) { v = load64(buf); }
    store64(buf, v + 1);
    storage_set(key, 5, buf, 8);
    output(buf, 8);
}
fn read() {
    let key = "count";
    let buf = alloc(8);
    let n = storage_get(key, 5, buf, 8);
    if (n != 8) { store64(buf, 0); }
    output(buf, 8);
}
fn fail() {
    abort("deliberate failure", 18);
}
"""


# ---------------------------------------------------------------------------
# Deterministic seeding.  Every test runs with the stdlib ``random`` module
# seeded from REPRO_TEST_SEED (or a fixed default) salted per-test, so a
# failure seen in CI replays locally with the same seed.  crc32 (not hash())
# is used for the salt because hash() is randomized per process.
# ---------------------------------------------------------------------------

DEFAULT_TEST_SEED = 20260805


def _session_seed() -> int:
    return int(os.environ.get("REPRO_TEST_SEED", DEFAULT_TEST_SEED))


def _test_seed(nodeid: str) -> int:
    return _session_seed() ^ zlib.crc32(nodeid.encode())


def pytest_report_header(config):
    return (
        f"repro seed: REPRO_TEST_SEED={_session_seed()} "
        f"(set REPRO_TEST_SEED to replay)"
    )


@pytest.fixture(autouse=True)
def _deterministic_random(request):
    """Seed ``random`` per test from the session seed + test id."""
    random.seed(_test_seed(request.node.nodeid))
    yield


@pytest.hookimpl(hookwrapper=True)
def pytest_runtest_makereport(item, call):
    outcome = yield
    report = outcome.get_result()
    if report.when == "call" and report.failed:
        report.sections.append((
            "repro seed",
            f"REPRO_TEST_SEED={_session_seed()} "
            f"(derived per-test seed: {_test_seed(item.nodeid)})",
        ))


@pytest.fixture
def mock_host():
    return MockHost()


@pytest.fixture
def counter_artifact():
    return compile_source(COUNTER_SOURCE, "wasm")


@pytest.fixture
def public_engine():
    return PublicEngine(MemoryKV())


@pytest.fixture
def confidential_engine():
    engine = ConfidentialEngine(MemoryKV())
    bootstrap_founder(engine.km)
    engine.provision_from_km()
    return engine


@pytest.fixture
def client():
    return Client.from_seed(b"test-client")


@pytest.fixture
def comb_builds(monkeypatch):
    """Every ``ecc.Comb`` built from here on (G's comb is built first)."""
    scalar_mult(1)
    built = []
    init = Comb.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        init(self, *args, **kwargs)

    monkeypatch.setattr(Comb, "__init__", counting)
    return built


def deploy_public(engine: PublicEngine, client: Client, source: str,
                  target: str = "wasm", schema: str = ""):
    artifact = compile_source(source, target)
    raw, address = client.deploy_raw(artifact, schema)
    outcome = engine.execute(Client.public(raw))
    assert outcome.receipt.success, outcome.receipt.error
    return address


def deploy_confidential(engine: ConfidentialEngine, client: Client, source: str,
                        target: str = "wasm", schema: str = ""):
    artifact = compile_source(source, target)
    pk = decode_point(engine.pk_tx)
    tx, address = client.confidential_deploy(pk, artifact, schema)
    outcome = engine.execute(tx)
    assert outcome.receipt.success, outcome.receipt.error
    return address


def run_public(engine: PublicEngine, client: Client, contract: bytes,
               method: str, args: bytes = b""):
    raw = client.call_raw(contract, method, args)
    return engine.execute(Client.public(raw))


def run_confidential(engine: ConfidentialEngine, client: Client, contract: bytes,
                     method: str, args: bytes = b""):
    pk = decode_point(engine.pk_tx)
    tx = client.confidential_call(pk, contract, method, args)
    return engine.execute(tx)


def restart_enclave(engine_or_node):
    """Restart the CS enclave the way the fault simulator does: a fresh
    confidential engine over the same store and platform, keys recovered
    from the platform-sealed blob.  Every in-enclave cache (SDM state,
    pre-verified metadata, contract records, code) goes with the old
    enclave, so the next access reads — and re-authenticates — storage.

    Given a node, swaps the new engine in; returns the new engine either
    way.
    """
    old = getattr(engine_or_node, "confidential", engine_or_node)
    engine = ConfidentialEngine(old.kv, old.config, platform=old.platform)
    engine.restore_keys_from_storage()
    old.cs.destroy()
    if engine_or_node is not old:
        engine_or_node.confidential = engine
        engine_or_node.executor = BlockExecutor(engine,
                                                engine_or_node.public)
    return engine
