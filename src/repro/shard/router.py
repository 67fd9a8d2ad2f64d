"""Deterministic conflict-domain → shard routing.

The consortium is partitioned by conflict domain: a transaction's
domain is its sender's nonce row, ``b"a:" + sender``
(:func:`domain_of`), and a pure hash of the domain bytes picks the
shard, so

- every router instance — any process, any seed, any restart — maps a
  domain to the same shard, and
- no domain can ever map to two shards (the map is a function of the
  domain bytes alone; the property test pins this).

Deploys and upgrades are consortium-wide: contract code must exist on
every shard for cross-shard legs to execute, so the router fans them
out to all shards.

Confidential envelopes hide the sender, so routing them needs the §5.2
off-path preprocessor: :class:`RoutingPreprocessor` decrypts with the
exported enclave worker key (the same ``export_worker_keys`` channel
the pre-verification pool uses) and routes on the recovered profile —
the plaintext never leaves the routing tier.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chain.preverify_pool import _preverify_one
from repro.chain.transaction import Transaction
from repro.crypto.hashes import sha256
from repro.crypto.keys import KeyPair
from repro.errors import ShardError

_ROUTE_SALT = b"shard-route:"

# Router verdict for transactions every shard must see (deploy/upgrade).
ALL_SHARDS = -1


@dataclass(frozen=True)
class TxProfile:
    """Routing-visible facts about a transaction (no payload data)."""

    sender: bytes
    is_deploy: bool
    is_upgrade: bool

    @property
    def is_barrier(self) -> bool:
        """Deploys/upgrades mutate the code registry on every shard."""
        return self.is_deploy or self.is_upgrade


def domain_of(profile: TxProfile) -> frozenset[bytes]:
    """A transaction's conflict domain: its sender's nonce row."""
    return frozenset((b"a:" + profile.sender,))


def shard_of_domain(domain: bytes, num_shards: int) -> int:
    """The one shard that owns a conflict domain."""
    if num_shards < 1:
        raise ShardError("need at least one shard")
    return int.from_bytes(sha256(_ROUTE_SALT + domain), "big") % num_shards


@dataclass(frozen=True)
class ShardRouter:
    """Pure routing policy over conflict domains."""

    num_shards: int

    def shard_for_sender(self, sender: bytes) -> int:
        profile = TxProfile(sender=bytes(sender),
                            is_deploy=False, is_upgrade=False)
        return self.route_profile(profile)

    def route_profile(self, profile: TxProfile) -> int:
        """ALL_SHARDS for code-registry mutations, else the owner of the
        sender's nonce-row domain (:func:`domain_of`)."""
        if profile.is_barrier:
            return ALL_SHARDS
        (domain,) = sorted(domain_of(profile))
        return shard_of_domain(domain, self.num_shards)


class RoutingPreprocessor:
    """Routes wire transactions, decrypting confidential envelopes
    off-path with the provisioned worker key (§5.2 preprocessor)."""

    def __init__(self, router: ShardRouter, worker_sk: bytes):
        self.router = router
        self._sk = (KeyPair.from_private(int.from_bytes(worker_sk, "big"))
                    if worker_sk else None)

    def route(self, tx: Transaction) -> int:
        """The shard (or ALL_SHARDS) this transaction belongs on.

        Raises :class:`ShardError` for transactions that do not decrypt
        or whose signature does not verify — an unroutable transaction
        must be rejected at the edge, not guessed onto a shard.
        """
        (_, _, verified, _, sender, is_deploy, is_upgrade,
         _, _) = _preverify_one(self._sk, tx.tx_type, tx.payload)
        if not verified:
            raise ShardError("transaction failed routing pre-verification")
        profile = TxProfile(sender=sender,
                            is_deploy=is_deploy, is_upgrade=is_upgrade)
        return self.router.route_profile(profile)


__all__ = [
    "ALL_SHARDS",
    "RoutingPreprocessor",
    "ShardRouter",
    "TxProfile",
    "domain_of",
    "shard_of_domain",
]
