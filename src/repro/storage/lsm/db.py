"""The LSM key-value store behind the :class:`KVStore` interface.

Write path (:meth:`LsmKV._commit`, under :class:`KVStore`'s writer
lock): WAL append → WAL fsync → memtable apply.  A batch becomes
readable only after it is durable, and a batch whose fsync failed
never becomes readable.  When the apply leaves the memtable over its
threshold, the committing thread flushes it before it returns:

1. **rotate** under the store lock: close the live WAL generation
   (final fsync), freeze the memtable, open a fresh memtable and WAL
   generation;
2. **write** the frozen memtable's SSTable outside the store lock, so
   readers on other threads keep reading the frozen memtable;
3. **publish** a manifest epoch naming the segment (and the new WAL
   generation) under the store lock, then delete the WAL generations
   it covers;
4. run size-tiered **compaction** rounds the same way: merge outside
   the store lock, publish under it.

A crash at any step leaves the frozen WAL generation on disk until the
manifest that covers it lands, so reopen replays the contiguous run of
generations ``>= manifest.wal_seq`` and lands on a block boundary; a
segment no manifest names is deleted.  A flush or compaction failure
is sticky and **fail-closed**: the commit that triggered it is already
durable and returns, and every later write, flush and close raises.

Read path (:meth:`_read`, under :class:`KVStore`'s staged writes):
memtable → frozen memtable → segments newest-to-oldest (bloom filter,
then block index, through the shared thread-safe block cache).

**Atomic block commits**: :class:`KVStore` stages everything a node
writes while applying one block — every SDM ``kv_set`` ocall, the
engine's scope commits, the block body and receipts — and commits it
through :meth:`_commit` as *one* WAL record.  Recovery therefore always
lands exactly on a block boundary: a torn tail can lose the last
block(s), never half of one.

Everything on disk can be sealed (see :mod:`repro.storage.lsm.seal`)
and the manifest enforces freshness + segment-set integrity (see
:mod:`repro.storage.lsm.manifest`).
"""

from __future__ import annotations

import glob
import os
import re
import threading
import time
from dataclasses import dataclass

from repro.errors import StorageError
from repro.storage.kv import KVStats, KVStore
from repro.storage.lsm.cache import BlockCache
from repro.storage.lsm.compaction import merge_entries, plan_compaction
from repro.storage.lsm.manifest import (
    RootManifest,
    SegmentRecord,
    read_manifest,
    verify_segments,
    write_manifest,
)
from repro.storage.lsm.memtable import TOMBSTONE, Memtable
from repro.storage.lsm.seal import StorageSealer
from repro.storage.lsm.sstable import SegmentMeta, SSTableReader, write_sstable
from repro.storage.lsm.wal import WriteAheadLog, replay_file

_WAL_PATTERN = "wal-*.log"
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")
_SEG_PATTERN = "seg-*.sst"


def _wal_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"wal-{seq:08d}.log")


def _segment_path(directory: str, segment_id: int) -> str:
    return os.path.join(directory, f"seg-{segment_id:08d}.sst")


@dataclass
class LsmStats(KVStats):
    """Cumulative engine counters (exported by ``obs.metrics``)."""

    wal_bytes_written: int = 0
    wal_records_written: int = 0
    wal_truncated_bytes: int = 0
    wal_recovered_batches: int = 0
    wal_fsyncs: int = 0
    flushes: int = 0
    flush_bytes: int = 0
    freezes: int = 0
    compactions: int = 0
    compacted_bytes: int = 0
    recovery_seconds: float = 0.0


class LsmKV(KVStore):
    """Persistent, optionally sealed, crash-consistent KV store."""

    def __init__(
        self,
        directory: str,
        *,
        sealer: StorageSealer | None = None,
        freshness=None,
        sync: bool = False,
        memtable_bytes: int = 256 * 1024,
        auto_compact: bool = True,
    ):
        super().__init__()
        self.directory = directory
        self._sealer = sealer
        self._freshness = freshness
        self._sync = sync
        self._memtable_bytes = memtable_bytes
        self._auto_compact = auto_compact
        self.stats = LsmStats()
        self.cache = BlockCache()
        self._lock = threading.RLock()  # the store lock readers take
        self._memtable = Memtable()
        self._frozen: Memtable | None = None  # while its SSTable is written
        self._error: BaseException | None = None  # sticky flush failure
        self._closed = False
        self._retired_wal_fsyncs = 0
        os.makedirs(directory, exist_ok=True)

        started = time.perf_counter()
        manifest = read_manifest(directory, sealer, freshness)
        if manifest is None:
            manifest = RootManifest(epoch=1, wal_seq=0, segments=())
            write_manifest(directory, manifest, sealer, freshness, sync=sync)
        else:
            verify_segments(directory, manifest)
        self._manifest = manifest
        self._readers: dict[int, SSTableReader] = {}
        for record in manifest.segments:
            self._readers[record.segment_id] = SSTableReader(
                os.path.join(directory, record.filename), sealer, self.cache
            )
        self._next_segment_id = 1 + max(
            (r.segment_id for r in manifest.segments), default=0
        )
        # Stray segment files not named by the manifest are leftovers of a
        # crash between an SSTable write and its manifest commit (or
        # between a compaction commit and the old-file unlink).
        live_files = {record.filename for record in manifest.segments}
        for stray in glob.glob(os.path.join(directory, _SEG_PATTERN)):
            if os.path.basename(stray) not in live_files:
                os.remove(stray)
        for stray in glob.glob(os.path.join(directory, _SEG_PATTERN + ".tmp")):
            os.remove(stray)

        # WAL recovery.  With rotate-at-freeze there can be several live
        # generations: the frozen one(s) whose flush never committed, plus
        # the generation commits moved on to.  Replay the contiguous run
        # starting at manifest.wal_seq, oldest first; generations below it
        # are fully covered by segments and are deleted.
        wal_seqs: list[int] = []
        for path in glob.glob(os.path.join(directory, _WAL_PATTERN)):
            match = _WAL_RE.match(os.path.basename(path))
            if match is None:
                os.remove(path)
                continue
            seq = int(match.group(1))
            if seq < manifest.wal_seq:
                os.remove(path)
            else:
                wal_seqs.append(seq)
        wal_seqs.sort()
        if wal_seqs:
            expected = list(range(manifest.wal_seq, manifest.wal_seq + len(wal_seqs)))
            if wal_seqs != expected:
                raise StorageError(
                    f"WAL generation gap: found {wal_seqs}, manifest expects a "
                    f"contiguous run from {manifest.wal_seq}; refusing partial "
                    "recovery"
                )
        live_seq = wal_seqs[-1] if wal_seqs else manifest.wal_seq
        recovered_batches = 0
        for seq in wal_seqs[:-1]:
            interior = WriteAheadLog(
                _wal_path(directory, seq), seq=seq, sealer=sealer,
                read_only=True,
            )
            if interior.truncated_bytes:
                raise StorageError(
                    f"WAL generation {seq} has a torn tail but later "
                    "generations exist; refusing mid-sequence data loss"
                )
            for puts, deletes in interior.recovered:
                self._memtable.apply(puts, deletes)
            recovered_batches += len(interior.recovered)
        self._wal = WriteAheadLog(
            _wal_path(directory, live_seq),
            seq=live_seq, sync=sync, sealer=sealer,
        )
        for puts, deletes in self._wal.recovered:
            self._memtable.apply(puts, deletes)
        self.stats.wal_recovered_batches = (
            recovered_batches + len(self._wal.recovered)
        )
        self.stats.wal_truncated_bytes = self._wal.truncated_bytes
        self.stats.recovery_seconds = time.perf_counter() - started

    # -- properties ------------------------------------------------------

    @property
    def manifest_epoch(self) -> int:
        return self._manifest.epoch

    @property
    def live_segments(self) -> int:
        return len(self._readers)

    @property
    def sealed(self) -> bool:
        return self._sealer is not None

    def _require_open(self) -> None:
        if self._closed:
            raise StorageError("LSM store is closed")

    def _require_writable(self) -> None:
        self._require_open()
        if self._error is not None:
            raise StorageError(
                f"flush/compaction failed: {self._error}"
            ) from self._error

    # -- KVStore primitives ----------------------------------------------

    def _read(self, key: bytes) -> bytes | None:
        with self._lock:
            self._require_open()
            present, value = self._memtable.get(key)
            if present:
                return value if value is not TOMBSTONE else None
            if self._frozen is not None:
                present, value = self._frozen.get(key)
                if present:
                    return value if value is not TOMBSTONE else None
            # Manifest order is age order; segment ids are not (a merge
            # output has a fresh id but old content).
            for record in reversed(self._manifest.segments):
                found, value = self._readers[record.segment_id].get(key)
                if found:
                    return value
            return None

    def _scan(self) -> list[tuple[bytes, bytes]]:
        with self._lock:
            self._require_open()
            merged: dict[bytes, bytes | None] = {}
            for record in self._manifest.segments:  # oldest first
                for key, value in self._readers[record.segment_id].items():
                    merged[key] = value
            if self._frozen is not None:
                for key, value in self._frozen.items():
                    merged[key] = value
            for key, value in self._memtable.items():
                merged[key] = value
            return [(k, v) for k, v in merged.items() if v is not None]

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    # -- write machinery -------------------------------------------------

    def _commit(self, puts: dict[bytes, bytes], deletes: set[bytes]) -> None:
        """The whole commit path (caller holds the writer lock): append
        under the store lock, fsync outside it so no reader waits on the
        disk, then apply under it.  Readers see the batch only once it
        is durable; a failed fsync poisons the WAL and the batch is
        never applied.  A memtable left over its threshold is flushed
        here, before the commit returns."""
        with self._lock:
            self._require_writable()
            wal = self._wal
            nbytes = wal.append(puts, deletes)
            self.stats.wal_bytes_written += nbytes
            self.stats.wal_records_written += 1
        wal.sync()
        with self._lock:
            self._memtable.apply(puts, deletes)
            full = self._memtable.approximate_bytes >= self._memtable_bytes
        if full:
            self._flush()

    def _flush(self) -> bool:
        """Rotate, write, publish and compact on this thread (caller holds
        the writer lock).  A failure is kept and fails every later
        write, flush and close.  Returns whether a memtable was flushed."""
        try:
            with self._lock:
                if not len(self._memtable):
                    return False
                old_wal = self._wal
                old_wal.close()  # final fsync (when sync): frozen records durable
                self._retired_wal_fsyncs += old_wal.fsyncs
                self._frozen, self._memtable = self._memtable, Memtable()
                self._wal = WriteAheadLog(
                    _wal_path(self.directory, old_wal.seq + 1),
                    seq=old_wal.seq + 1, sync=self._sync, sealer=self._sealer,
                )
                self.stats.freezes += 1
            meta, reader = self._write_segment(self._frozen.items_sorted())
            with self._lock:
                self._publish_manifest(
                    self._manifest.segments + (SegmentRecord.from_meta(meta),),
                    self._wal.seq,
                )
                self._readers[meta.segment_id] = reader
                self._frozen = None
                self.stats.flushes += 1
                self.stats.flush_bytes += meta.size
            if self._auto_compact:
                self._compact()
        except BaseException as exc:  # noqa: BLE001 - sticky, fail-closed
            self._error = exc
            if not isinstance(exc, Exception):
                raise
        return True

    def _write_segment(self, entries) -> tuple[SegmentMeta, SSTableReader]:
        """Write the next segment outside the store lock (caller holds the
        writer lock, which orders segment ids)."""
        segment_id = self._next_segment_id
        self._next_segment_id += 1
        path = _segment_path(self.directory, segment_id)
        meta = write_sstable(path, segment_id, entries, self._sealer,
                             sync=self._sync)
        return meta, SSTableReader(path, self._sealer, self.cache)

    def _compact(self) -> None:
        """Size-tiered compaction rounds (caller holds the writer lock, so
        the plan stays valid across the merge outside the store lock)."""
        while True:
            plan = plan_compaction(
                list(self._manifest.segments), self._memtable_bytes,
            )
            if plan is None:
                return
            chosen = [self._readers[i] for i in plan.segment_ids]
            meta, reader = self._write_segment(merge_entries(
                [(rank, r.items()) for rank, r in enumerate(chosen)],
                plan.drop_tombstones,
            ))
            with self._lock:
                # The merged output takes the run's slot in the manifest
                # order, keeping the list sorted oldest-to-newest.
                old = self._manifest.segments
                end = plan.position + len(plan.segment_ids)
                self._publish_manifest(
                    old[:plan.position] + (SegmentRecord.from_meta(meta),)
                    + old[end:],
                    self._manifest.wal_seq,
                )
                for stale_id in plan.segment_ids:
                    self._readers.pop(stale_id)
                    self.cache.drop_segment(stale_id)
                    os.remove(_segment_path(self.directory, stale_id))
                self._readers[meta.segment_id] = reader
                self.stats.compactions += 1
                self.stats.compacted_bytes += sum(r.size for r in chosen)

    def flush(self) -> bool:
        """Flush the memtable into a segment (and compact); returns
        whether there was anything to flush."""
        with self._writer_lock:
            self._require_writable()
            flushed = self._flush()
            self._require_writable()
            return flushed

    def _publish_manifest(self, segments: tuple[SegmentRecord, ...],
                          wal_seq: int) -> None:
        """Commit one manifest epoch (caller holds the lock) and delete
        WAL generations it supersedes."""
        manifest = RootManifest(
            epoch=self._manifest.epoch + 1,
            wal_seq=wal_seq,
            segments=segments,
            extra=self._manifest.extra,
        )
        write_manifest(self.directory, manifest, self._sealer,
                       self._freshness, sync=self._sync)
        self._manifest = manifest
        for path in glob.glob(os.path.join(self.directory, _WAL_PATTERN)):
            match = _WAL_RE.match(os.path.basename(path))
            if match is not None and int(match.group(1)) < wal_seq:
                os.remove(path)

    def note_state_root(self, state_root: bytes) -> None:
        """Record the chain state root to bind into the next manifest
        commit (surfaces in ``repro db stats``)."""
        with self._lock:
            self._manifest = RootManifest(
                self._manifest.epoch, self._manifest.wal_seq,
                self._manifest.segments, bytes(state_root),
            )

    @property
    def manifest_extra(self) -> bytes:
        return self._manifest.extra

    def compact(self) -> bool:
        """Run compaction to quiescence; returns True if anything merged."""
        with self._writer_lock:
            self._require_writable()
            before = self.stats.compactions
            self._compact()
            return self.stats.compactions > before

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: flush the memtable so reopen skips WAL replay,
        then release every handle."""
        with self._writer_lock:
            if self._closed:
                return
            if self._own_block() is not None:
                raise StorageError("cannot close inside a block_batch")
            self._require_writable()
            self._flush()
            self._require_writable()
            with self._lock:
                self._wal.close()
                self._closed = True

    def crash(self) -> None:
        """Simulated process death: drop handles, flush *nothing*.

        A commit or flush in flight on another thread finishes first, so
        the directory is left exactly as the last committed WAL record /
        manifest epoch wrote it.  A fresh :class:`LsmKV` recovers from
        the directory (replaying every surviving WAL generation).
        """
        with self._writer_lock, self._lock:
            self._closed = True
            self._wal.crash()

    def __enter__(self) -> "LsmKV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    # -- tooling ---------------------------------------------------------

    def verify(self) -> dict[str, int]:
        """Structural integrity sweep (works without the seal key only
        for frame CRCs; sealed stores verify fully since we hold keys)."""
        with self._lock:
            self._require_open()
            blocks = 0
            for reader in self._readers.values():
                blocks += reader.verify_blocks()
            verify_segments(self.directory, self._manifest)
            return {
                "segments": len(self._readers),
                "blocks_checked": blocks,
                "manifest_epoch": self._manifest.epoch,
                "wal_records": len(replay_file(
                    self._wal.path, self._wal.seq, self._sealer
                )) if os.path.exists(self._wal.path) else 0,
            }

    def stats_snapshot(self) -> dict[str, float]:
        with self._lock:
            snap = self.stats.snapshot()
            snap.update({
                "wal_fsyncs": self._retired_wal_fsyncs + self._wal.fsyncs,
                "manifest_epoch": self._manifest.epoch,
                "segments_live": len(self._readers),
                "segment_bytes": sum(
                    r.size for r in self._readers.values()
                ),
                "memtable_bytes": self._memtable.approximate_bytes,
                "memtable_entries": len(self._memtable),
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "cache_evictions": self.cache.evictions,
                "cache_used_bytes": self.cache.used_bytes,
                "cache_hit_rate": self.cache.hit_rate(),
                "sealed": int(self.sealed),
            })
            return snap
