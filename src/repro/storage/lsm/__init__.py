"""Persistent encrypted LSM storage engine (docs/storage.md).

A real storage backend behind the :class:`~repro.storage.kv.KVStore`
interface: a checksummed write-ahead log with atomic batch framing
(:mod:`wal`), a sorted memtable (:mod:`memtable`) flushed into immutable
SSTable segments with block indexes and bloom filters (:mod:`sstable`),
size-tiered compaction (:mod:`compaction`), a block cache (:mod:`cache`),
and a sealed monotonic root manifest that refuses rolled-back or
mix-and-match segment sets on open (:mod:`manifest`).

Confidentiality at rest follows the paper's D-Protocol posture: state
values are already sealed by the Confidential-Engine before they reach
the KV layer, and the engine adds whole-file sealing (WAL records,
SSTable blocks, the manifest) under a platform-derived key so *nothing*
the node persists — not even public metadata, key bytes or block
bodies — is readable off the disk.
"""

from repro.storage.lsm.cache import BlockCache
from repro.storage.lsm.db import LsmKV, LsmStats
from repro.storage.lsm.manifest import (
    CounterFreshness,
    PlatformFreshness,
    RootManifest,
    SegmentRecord,
)
from repro.storage.lsm.memtable import TOMBSTONE, Memtable
from repro.storage.lsm.seal import StorageSealer
from repro.storage.lsm.sstable import SSTableReader, write_sstable
from repro.storage.lsm.wal import WriteAheadLog

__all__ = [
    "BlockCache",
    "CounterFreshness",
    "LsmKV",
    "LsmStats",
    "Memtable",
    "PlatformFreshness",
    "RootManifest",
    "SSTableReader",
    "SegmentRecord",
    "StorageSealer",
    "TOMBSTONE",
    "WriteAheadLog",
    "write_sstable",
]
