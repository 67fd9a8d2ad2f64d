"""Horizontal scale-out: sharded consortium with cross-shard commits.

The subsystem splits the consortium into N independent PBFT groups
(:mod:`repro.shard.group`) that share one K-Protocol key domain, routes
transactions to shards by their senders' conflict domains
(:mod:`repro.shard.router`), and commits cross-shard transactions
through a TEE-attested receipt relay with a 2PC quorum fallback and a
deterministic timeout/abort path (:mod:`repro.shard.relay`,
:mod:`repro.shard.coordinator`).  See docs/sharding.md.
"""

from repro.shard.coordinator import (
    CoordinatorJournal,
    JournalRecord,
    ShardCoordinator,
)
from repro.shard.group import (
    ShardGroup,
    ShardedConsortium,
    build_sharded_consortium,
)
from repro.shard.relay import (
    CrossShardBundle,
    ReceiptRelay,
    build_cross_shard_bundle,
)
from repro.shard.router import (
    ALL_SHARDS,
    RoutingPreprocessor,
    ShardRouter,
    shard_of_domain,
)

__all__ = [
    "ALL_SHARDS",
    "CoordinatorJournal",
    "CrossShardBundle",
    "JournalRecord",
    "ReceiptRelay",
    "RoutingPreprocessor",
    "ShardCoordinator",
    "ShardGroup",
    "ShardRouter",
    "ShardedConsortium",
    "build_cross_shard_bundle",
    "build_sharded_consortium",
    "shard_of_domain",
]
