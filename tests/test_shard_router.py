"""Shard routing: deterministic, total, and envelope-aware.

The acceptance property for horizontal scale-out is that routing is a
pure function of the conflict domain: the same sender lands on the same
shard for every seed, every process, and every replica — and no domain
ever maps to two shards (which would split one account's nonce sequence
across groups).
"""

from __future__ import annotations

import random
import subprocess
import sys

import pytest

from repro.chain.transaction import TX_CONFIDENTIAL
from repro.errors import ShardError
from repro.shard.router import (
    ALL_SHARDS,
    ShardRouter,
    TxProfile,
    domain_of,
    shard_of_domain,
)
from repro.workloads.clients import Client


def make_client(seed: bytes) -> Client:
    return Client.from_seed(seed)


class TestShardOfDomain:
    def test_total_and_in_range(self):
        rng = random.Random(1)
        for num_shards in (1, 2, 3, 4, 7):
            for _ in range(200):
                domain = rng.randbytes(rng.randrange(1, 40))
                assert 0 <= shard_of_domain(domain, num_shards) < num_shards

    def test_deterministic_across_seeds(self):
        """Seeding the process RNG differently must not move a domain."""
        domains = [b"a:" + bytes([i]) * 20 for i in range(64)]
        baseline = [shard_of_domain(d, 4) for d in domains]
        for seed in (0, 7, 1249):
            random.seed(seed)
            assert [shard_of_domain(d, 4) for d in domains] == baseline

    def test_deterministic_across_processes(self):
        """PYTHONHASHSEED must not leak into routing (no hash())."""
        domains = [b"a:" + bytes([i]) * 20 for i in range(32)]
        expected = [shard_of_domain(d, 4) for d in domains]
        script = (
            "import sys\n"
            "from repro.shard.router import shard_of_domain\n"
            "domains = [b'a:' + bytes([i]) * 20 for i in range(32)]\n"
            "print([shard_of_domain(d, 4) for d in domains])\n"
        )
        import os

        import repro

        src = os.path.dirname(os.path.dirname(repro.__file__))
        for hashseed in ("0", "1", "12345"):
            out = subprocess.run(
                [sys.executable, "-c", script],
                env={**os.environ, "PYTHONPATH": src,
                     "PYTHONHASHSEED": hashseed},
                capture_output=True, text=True, check=True,
            )
            assert out.stdout.strip() == str(expected)

    def test_no_domain_maps_to_two_shards(self):
        """Exhaustively: repeated evaluation is a single-valued map."""
        seen: dict[bytes, int] = {}
        for i in range(500):
            domain = b"a:" + i.to_bytes(20, "big")
            for _ in range(3):
                shard = shard_of_domain(domain, 5)
                assert seen.setdefault(domain, shard) == shard

    def test_all_shards_reached(self):
        """The route hash spreads real sender domains over every shard."""
        hits = {shard_of_domain(b"a:" + bytes([i]) * 20, 4)
                for i in range(100)}
        assert hits == {0, 1, 2, 3}


class TestShardRouter:
    def test_sender_route_matches_domain_route(self):
        router = ShardRouter(4)
        for i in range(20):
            client = make_client(b"router-%d" % i)
            domain = b"a:" + client.address
            assert router.shard_for_sender(client.address) == \
                shard_of_domain(domain, 4)

    def test_single_shard_routes_everything_to_zero(self):
        router = ShardRouter(1)
        for i in range(10):
            client = make_client(b"router-one-%d" % i)
            assert router.shard_for_sender(client.address) == 0

    def test_rejects_bad_shard_count(self):
        with pytest.raises(ShardError):
            ShardRouter(0).shard_for_sender(b"\xaa" * 20)


class TestRoutingPreprocessor:
    """Confidential envelopes are routed by the §5.2-style preprocessor:
    it holds the worker keys, opens the envelope enough to recover the
    sender domain, and never exports plaintext."""

    @pytest.fixture
    def consortium(self):
        from repro.shard.group import build_sharded_consortium

        consortium = build_sharded_consortium(2, nodes_per_shard=4)
        yield consortium
        consortium.close()

    def test_confidential_call_routes_by_sealed_sender(
            self, consortium, counter_artifact):
        from repro.crypto.ecc import decode_point

        pk = decode_point(consortium.pk_tx)
        client = make_client(b"preproc-route")
        deploy, contract = client.confidential_deploy(pk, counter_artifact)
        assert consortium.submit(deploy) == list(range(2))  # ALL_SHARDS
        consortium.run_until_empty()

        tx = client.confidential_call(pk, contract, "increment", b"")
        assert tx.tx_type == TX_CONFIDENTIAL
        home = consortium.router.shard_for_sender(client.address)
        assert consortium.preprocessor.route(tx) == home
        assert consortium.submit(tx) == [home]

    def test_deploy_routes_to_all_shards(self, consortium, counter_artifact):
        from repro.crypto.ecc import decode_point

        pk = decode_point(consortium.pk_tx)
        client = make_client(b"preproc-deploy")
        deploy, _ = client.confidential_deploy(pk, counter_artifact)
        assert consortium.preprocessor.route(deploy) == ALL_SHARDS

    def test_garbage_envelope_refused(self, consortium):
        from repro.chain.transaction import Transaction

        tx = Transaction(TX_CONFIDENTIAL, b"\x00" * 64)
        with pytest.raises(ShardError):
            consortium.preprocessor.route(tx)

    def test_route_profile_matches_scheduler_domains(self, consortium):
        """The router consumes exactly the senders' nonce-row domains —
        the property that makes per-shard serial order sufficient."""
        profile = TxProfile(sender=b"\xaa" * 20,
                            is_deploy=False, is_upgrade=False)
        (domain,) = sorted(domain_of(profile))
        assert consortium.router.route_profile(profile) == \
            shard_of_domain(domain, 2)

    def test_barrier_profile_goes_everywhere(self, consortium):
        profile = TxProfile(sender=b"\xaa" * 20,
                            is_deploy=True, is_upgrade=False)
        assert consortium.router.route_profile(profile) == ALL_SHARDS
