"""Telemetry confidentiality: an end-to-end coldchain run with tracing
enabled must not leak transaction plaintext, key material, or decrypted
state into the exported trace or metrics.

This is the observability counterpart of the paper's monitor rule ("only
error messages which are not related to any application data"): the
spans instrumenting the preprocessor, protocols, enclave boundary, VM
and storage may describe *what happened* (names, sizes, durations,
cycles) but never *to which data*.
"""

import json

import pytest

from conftest import deploy_confidential, run_confidential
from repro.core import ConfidentialEngine, bootstrap_founder
from repro.obs.export import chrome_trace, prometheus_text
from repro.obs.metrics import engine_samples
from repro.obs.trace import get_tracer
from repro.storage.lsm import LsmKV, StorageSealer
from repro.workloads import COLDCHAIN_CONTRACT, encode_reading, encode_register

# Distinctive plaintext that must never cross the telemetry boundary.
SHIPMENT = b"SECRTSHP"
SENSOR = b"SENSRX"
BREACH_TEMP = 95


@pytest.fixture
def traced():
    """Enable the process-wide tracer for one test, leaving it clean."""
    tracer = get_tracer()
    saved_source = tracer.cycle_source
    tracer.reset()
    tracer.enable()
    yield tracer
    tracer.disable()
    tracer.reset()
    tracer.cycle_source = saved_source


def needles_for(blob: bytes) -> list[str]:
    """Text forms an accidental leak would take inside JSON/exposition."""
    return [blob.decode("latin-1"), blob.hex(), blob.hex().upper()]


class TestNoPlaintextInTelemetry:
    def test_coldchain_run_leaks_nothing(self, traced, confidential_engine,
                                         client):
        register_args = encode_register(SHIPMENT, 20, 80)
        reading_args = encode_reading(SHIPMENT, BREACH_TEMP, SENSOR)

        address = deploy_confidential(
            confidential_engine, client, COLDCHAIN_CONTRACT
        )
        outcome = run_confidential(
            confidential_engine, client, address, "register", register_args
        )
        assert outcome.receipt.success, outcome.receipt.error
        outcome = run_confidential(
            confidential_engine, client, address, "record", reading_args
        )
        assert outcome.receipt.success
        assert b"breach" in outcome.receipt.logs

        spans = traced.drain()
        trace_text = json.dumps(chrome_trace(spans))
        metrics_text = prometheus_text(
            engine_samples(confidential_engine, label="confidential"))

        # The run was actually traced end to end.
        names = {span.name for span in spans}
        assert {"engine.execute_tx", "protocol.tx_decrypt", "tee.ecall",
                "vm.exec", "storage.set"} <= names

        secrets: list[bytes] = [
            SHIPMENT,                      # plaintext shipment identity
            SENSOR,                        # plaintext sensor identity
            register_args,                 # full decrypted tx payloads
            reading_args,
            BREACH_TEMP.to_bytes(8, "big"),  # decrypted telemetry value
            # Client signing key material and envelope root key.
            client.keypair.private.to_bytes(32, "big"),
            client.user_root_key,
        ]
        # The one-time k_tx of every sealed transaction this client made
        # (the T-protocol keys the enclave decrypts with).
        secrets.extend(client._tx_keys.values())
        # Decrypted contract state as the VM wrote it (the sealed KV holds
        # only ciphertext; the plaintext values live inside the enclave).
        secrets.append(SHIPMENT + b":temps")

        for secret in secrets:
            for needle in needles_for(secret):
                assert needle not in trace_text, (
                    f"trace leaked {needle!r}"
                )
                assert needle not in metrics_text, (
                    f"metrics leaked {needle!r}"
                )

    def test_span_args_are_sizes_not_payloads(self, traced,
                                              confidential_engine, client):
        address = deploy_confidential(
            confidential_engine, client, COLDCHAIN_CONTRACT
        )
        run_confidential(
            confidential_engine, client, address, "register",
            encode_register(SHIPMENT, 20, 80),
        )
        for span in traced.drain():
            for key, value in span.args.items():
                assert not isinstance(value, (bytes, bytearray)), (
                    f"span {span.name} carries bytes in {key}"
                )
                if isinstance(value, str):
                    assert len(value) <= 64


class TestStorageSealSpans:
    def test_seal_and_open_spans_carry_kind_and_size_only(self, traced,
                                                          tmp_path, client):
        # A coldchain run on a sealed LSM store small enough to flush,
        # then a reopen that reads every file kind back.
        def open_store():
            return LsmKV(str(tmp_path), memtable_bytes=512,
                         sealer=StorageSealer(b"s" * 16, identity=b"node"))

        kv = open_store()
        engine = ConfidentialEngine(kv)
        bootstrap_founder(engine.km)
        engine.provision_from_km()
        address = deploy_confidential(engine, client, COLDCHAIN_CONTRACT)
        register_args = encode_register(SHIPMENT, 20, 80)
        reading_args = encode_reading(SHIPMENT, BREACH_TEMP, SENSOR)
        for method, args in (("register", register_args),
                             ("record", reading_args)):
            outcome = run_confidential(engine, client, address, method, args)
            assert outcome.receipt.success, outcome.receipt.error
        kv.flush()
        kv.put(b"after-flush", SHIPMENT)
        kv.crash()  # no flush at close: reopening replays the WAL
        reopened = open_store()
        assert len(list(reopened.items())) > 0
        reopened.close()

        spans = traced.drain()
        storage = [span for span in spans
                   if span.name in ("storage.seal", "storage.open")]
        seen = {(span.name, span.args["kind"]) for span in storage}
        assert seen == {(name, kind)
                        for name in ("storage.seal", "storage.open")
                        for kind in ("wal", "sst", "manifest")}
        for span in storage:
            assert set(span.args) == {"kind", "payload_bytes"}
            assert isinstance(span.args["payload_bytes"], int)

        trace_text = json.dumps(chrome_trace(spans))
        secrets = [SHIPMENT, SENSOR, register_args, reading_args,
                   b"s" * 16, *client._tx_keys.values()]
        for secret in secrets:
            for needle in needles_for(secret):
                assert needle not in trace_text, f"trace leaked {needle!r}"
