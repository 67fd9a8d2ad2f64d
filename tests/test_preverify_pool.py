"""The §5.2 off-path pre-verification worker pool.

The pool must be a drop-in for the serial in-enclave path: identical
verdicts in identical (block) order, whatever the worker count, for
good, forged, and undecryptable transactions alike.
"""

from dataclasses import replace

import pytest

from repro.bench.harness import build_confidential_rig
from repro.chain.node import build_consortium
from repro.chain.preverify_pool import PreverifyPool
from repro.chain.transaction import (
    TX_CONFIDENTIAL,
    RawTransaction,
    Transaction,
    address_of,
)
from repro.core.config import DEFAULT_CONFIG
from repro.workloads.clients import Client
from repro.workloads.synthetic import synthetic_workloads


@pytest.fixture(scope="module")
def rig():
    return build_confidential_rig(synthetic_workloads()["crypto-hash"])


def _forged_confidential(rig) -> Transaction:
    """Well-formed envelope around a raw tx whose signature can't verify."""
    keypair = Client.from_seed(b"forger").keypair
    raw = RawTransaction(
        sender=b"\xbb" * 20,  # does not match the pubkey
        contract=rig.contract, method=rig.workload.method,
        args=rig.workload.make_input(0), nonce=0,
    ).signed_by(keypair)
    forger = Client.from_seed(b"forger")
    return forger.seal(rig.pk_tx, raw)


def _mixed_batch(rig) -> list[Transaction]:
    good = [rig.make_tx(i) for i in range(6)]
    bad_sig = _forged_confidential(rig)
    undecryptable = Transaction(TX_CONFIDENTIAL, b"not an envelope")
    keypair = Client.from_seed(b"public-user").keypair
    public_ok = Transaction.public(
        RawTransaction(
            sender=address_of(keypair.public_bytes()),
            contract=b"\x02" * 20, method="m", args=b"", nonce=0,
        ).signed_by(keypair)
    )
    public_bad = Transaction(0, b"garbage raw encoding")
    return good[:3] + [bad_sig, undecryptable, public_ok, public_bad] + good[3:]


class TestPoolEquivalence:
    def test_pooled_verdicts_match_serial(self, rig):
        txs = _mixed_batch(rig)
        sk = rig.engine.export_worker_keys()
        serial = PreverifyPool(workers=0).run(txs, sk)
        with PreverifyPool(workers=3, mode="thread", chunk_size=2) as pool:
            pooled = pool.run(txs, sk)
        assert [r.tx_hash for r in pooled] == [tx.tx_hash for tx in txs]
        assert [(r.verified, r.k_tx) for r in pooled] == [
            (r.verified, r.k_tx) for r in serial
        ]

    def test_verdicts_are_correct(self, rig):
        # _mixed_batch layout: 3 good confidential, forged-signature,
        # undecryptable, public ok, malformed public, 3 good confidential.
        txs = _mixed_batch(rig)
        sk = rig.engine.export_worker_keys()
        with PreverifyPool(workers=2, mode="thread") as pool:
            records = pool.run(txs, sk)
        assert [r.verified for r in records] == [
            True, True, True, False, False, True, False, True, True, True
        ]
        undecryptable = records[4]
        assert not undecryptable.verified and not undecryptable.k_tx

    def test_stats_accounting(self, rig):
        txs = _mixed_batch(rig)
        sk = rig.engine.export_worker_keys()
        with PreverifyPool(workers=2, mode="thread") as pool:
            pool.run(txs, sk)
            stats = pool.stats
        assert stats.submitted == len(txs)
        assert stats.verified_ok == 7  # 6 confidential + 1 public
        assert stats.undecryptable == 1
        assert stats.verified_bad == 2  # forged sig + malformed public
        assert 0.0 <= stats.utilization() <= 1.0
        assert stats.snapshot()["mode"] == "thread"

    def test_record_install_primes_engine(self, rig):
        tx = rig.make_tx(99)
        sk = rig.engine.export_worker_keys()
        with PreverifyPool(workers=2, mode="thread") as pool:
            records = pool.run([tx], sk)
        installed = rig.engine.install_preverified(records)
        assert installed == 1
        # The cached k_tx lets execution skip the envelope decryption.
        preprocessor = rig.engine.preprocessor
        hits = preprocessor.cache_hits
        outcome = rig.engine.execute(tx)
        assert outcome.receipt.success, outcome.receipt.error
        assert preprocessor.cache_hits == hits + 1


class TestModeSelection:
    def test_workers_zero_is_serial(self):
        assert PreverifyPool(workers=0).mode == "serial"

    def test_explicit_serial_ignores_workers(self):
        assert PreverifyPool(workers=8, mode="serial").mode == "serial"

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            PreverifyPool(workers=2, mode="fiber")

    def test_empty_batch(self):
        with PreverifyPool(workers=2, mode="thread") as pool:
            assert pool.run([]) == []


class TestAdaptiveChunking:
    def test_serial_runs_one_submission(self):
        pool = PreverifyPool(workers=0)
        assert pool._effective_chunk_size(500) == 500

    def test_parallel_targets_two_chunks_per_worker(self):
        pool = PreverifyPool(workers=4, mode="thread")
        # 400 txs / (4 workers * 2) = 50 per chunk.
        assert pool._effective_chunk_size(400) == 50

    def test_small_batches_keep_a_floor(self):
        # Sub-floor chunks pay more in dispatch than they win in overlap.
        pool = PreverifyPool(workers=8, mode="thread")
        assert pool._effective_chunk_size(10) == 4

    def test_explicit_chunk_size_honored(self):
        pool = PreverifyPool(workers=4, mode="thread", chunk_size=2)
        assert pool._effective_chunk_size(400) == 2

    def test_adaptive_chunks_bound_dispatch_count(self, rig):
        txs = [rig.make_tx(i) for i in range(12)]
        sk = rig.engine.export_worker_keys()
        with PreverifyPool(workers=2, mode="thread") as pool:
            records = pool.run(txs, sk)
        # ceil(12 / 4-per-chunk-floor) bounded by 2*workers submissions.
        assert pool.stats.queue_depth_peak <= 4
        assert [r.tx_hash for r in records] == [tx.tx_hash for tx in txs]
        assert all(r.verified for r in records)


class TestNodePooledPath:
    def test_pooled_node_admits_same_set_as_serial(self, rig):
        config = replace(
            DEFAULT_CONFIG, preverify_workers=2, preverify_pool_mode="thread"
        )
        (pooled_node,), _ = build_consortium(1, config=config)
        (serial_node,), _ = build_consortium(1)
        try:
            for node in (pooled_node, serial_node):
                pk = node.pk_tx
                client = Client.from_seed(b"pool-path")
                workload = synthetic_workloads()["crypto-hash"]
                for i in range(4):
                    raw = client.call_raw(
                        b"\x05" * 20, workload.method, workload.make_input(i)
                    )
                    node.receive_transaction(client.seal(pk, raw))
                node.receive_transaction(
                    Transaction(TX_CONFIDENTIAL, b"junk envelope")
                )
                moved = node.preverify_pending()
                assert moved == 4
                assert len(node.verified) == 4
                assert len(node.unverified) == 0
        finally:
            pooled_node.close()
            serial_node.close()
