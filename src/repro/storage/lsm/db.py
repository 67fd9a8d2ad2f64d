"""The LSM key-value store behind the :class:`KVStore` interface.

Write path: WAL append → WAL fsync → memtable, as one sequence under
the store's single writer lock (see :meth:`LsmKV._commit`).  A batch
becomes readable only after it is durable, and a batch whose fsync
failed never becomes readable.  When the memtable passes its threshold
it is **frozen**: the store swaps in a fresh memtable + a fresh WAL
generation and hands the frozen one to a background worker, so commits
never stall behind an SSTable seal or a compaction merge.  The worker
writes the segment, commits a manifest epoch naming it (+ the new WAL
generation), deletes superseded WAL files, and runs size-tiered
compaction — all off the commit path.

Ordering rules for the background pipeline:

- at most ONE frozen memtable exists; a commit that needs to freeze
  while a flush is in flight blocks (natural backpressure, counted in
  ``flush_stall_seconds``);
- the frozen WAL generation stays on disk until the manifest epoch that
  covers its contents lands, so a crash at ANY point replays the
  contiguous run of WAL generations ``>= manifest.wal_seq`` in order —
  recovery still lands exactly on a block boundary;
- a background failure is sticky and **fail-closed**: the error is
  re-raised by the next commit/flush/close, never swallowed;
- a simulated :meth:`crash` drains the worker, which aborts *before*
  publishing a manifest, leaving the directory exactly as the last
  committed WAL record/manifest epoch wrote it.

Read path: the open block's staged writes (only on the thread executing
that block) → memtable → frozen memtable → segments newest-to-oldest
(bloom filter, then block index, through the shared thread-safe block
cache).

**Atomic block commits** (:meth:`block_batch`): everything a node writes
while applying one block — every SDM ``kv_set`` ocall, the engine's
scope commits, the block body and receipts — is buffered and lands in
*one* WAL record.  Recovery therefore always lands exactly on a block
boundary: a torn tail can lose the last block(s), never half of one.

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
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

from repro.errors import StorageError
from repro.storage.kv import BlockWrites, KVStore
from repro.storage.lsm.cache import BlockCache
from repro.storage.lsm.compaction import merge_entries, plan_compaction
from repro.storage.lsm.manifest import (
    MANIFEST_NAME,
    RootManifest,
    SegmentRecord,
    read_manifest,
    verify_segments,
    write_manifest,
)
from repro.storage.lsm.memtable import TOMBSTONE, Memtable
from repro.storage.lsm.seal import StorageSealer
from repro.storage.lsm.sstable import SSTableReader, write_sstable
from repro.storage.lsm.wal import WriteAheadLog, replay_file

_WAL_PATTERN = "wal-*.log"
_WAL_RE = re.compile(r"^wal-(\d{8})\.log$")
_SEG_PATTERN = "seg-*.sst"


def _wal_path(directory: str, seq: int) -> str:
    return os.path.join(directory, f"wal-{seq:08d}.log")


def _segment_path(directory: str, segment_id: int) -> str:
    return os.path.join(directory, f"seg-{segment_id:08d}.sst")


@dataclass
class LsmStats:
    """Cumulative engine counters (exported by ``obs.metrics``)."""

    wal_bytes_written: int = 0
    wal_records_written: int = 0
    wal_truncated_bytes: int = 0
    wal_recovered_batches: int = 0
    wal_fsyncs: int = 0
    flushes: int = 0
    flush_bytes: int = 0
    freezes: int = 0
    flush_stall_seconds: float = 0.0
    compactions: int = 0
    compacted_bytes: int = 0
    recovery_seconds: float = 0.0
    gets: int = 0
    puts: int = 0
    block_commits: int = 0

    def snapshot(self) -> dict[str, float]:
        return dict(self.__dict__)


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
        block_bytes: int = 4096,
        cache_bytes: int = 1 << 20,
        compaction_fanin: int = 4,
        auto_compact: bool = True,
    ):
        self.directory = directory
        self._sealer = sealer
        self._freshness = freshness
        self._sync = sync
        self._memtable_bytes = memtable_bytes
        self._block_bytes = block_bytes
        self._compaction_fanin = compaction_fanin
        self._auto_compact = auto_compact
        self.stats = LsmStats()
        self.cache = BlockCache(cache_bytes)
        self._lock = threading.RLock()
        self._bg_cond = threading.Condition(self._lock)
        # The one committer: held from a batch's WAL append to its
        # memtable apply, and by flush/close so no rotation lands between.
        self._writer_lock = threading.Lock()
        self._memtable = Memtable()
        self._buffer: BlockWrites | None = None
        self._buffer_owner: int | None = None  # thread that opened it
        # Signalled when the open block commits or aborts: other
        # threads' writes wait on it rather than join the block.
        self._block_closed = threading.Condition(self._lock)
        self._closed = False
        # Background flush/compaction worker state.
        self._frozen: Memtable | None = None
        self._frozen_wal: WriteAheadLog | None = None
        self._bg_thread: threading.Thread | None = None
        self._bg_busy = False
        self._bg_stop = False
        self._bg_error: BaseException | None = None
        self._crashed = False
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
        # crash between a background SSTable write and its manifest commit
        # (or between a compaction commit and the old-file unlink).
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

    def _raise_bg_error(self) -> None:
        if self._bg_error is not None:
            raise StorageError(
                f"background flush/compaction failed: {self._bg_error}"
            ) from self._bg_error

    # -- KVStore interface -----------------------------------------------

    def get(self, key: bytes) -> bytes | None:
        with self._lock:
            self._require_open()
            self.stats.gets += 1
            key = bytes(key)
            staged = self._staged()
            if staged is not None:
                if key in staged.puts:
                    return staged.puts[key]
                if key in staged.deletes:
                    return None
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

    def put(self, key: bytes, value: bytes) -> None:
        self._write({bytes(key): bytes(value)}, set())

    def delete(self, key: bytes) -> None:
        self._write({}, {bytes(key)})

    def write_batch(self, puts: dict[bytes, bytes], deletes: set[bytes] = frozenset()) -> None:
        self._write(
            {bytes(k): bytes(v) for k, v in puts.items()},
            {bytes(k) for k in deletes},
        )

    def items(self) -> Iterator[tuple[bytes, bytes]]:
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
            staged = self._staged()
            if staged is not None:
                for key in staged.deletes:
                    merged[key] = None
                for key, value in staged.puts.items():
                    merged[key] = value
            return iter([
                (k, v) for k, v in merged.items() if v is not None
            ])

    def __len__(self) -> int:
        return sum(1 for _ in self.items())

    def _staged(self) -> BlockWrites | None:
        """The open block's staged writes, visible only to the thread
        executing that block: no other reader may see a block before it
        is committed and durable."""
        if self._buffer_owner == threading.get_ident():
            return self._buffer
        return None

    # -- atomic block commits --------------------------------------------

    @contextmanager
    def block_batch(self):
        """Stage every write until exit, then commit them as ONE WAL
        record; on exception nothing is committed (see module doc).
        Yields the staging buffer itself — the block's write set (so the
        base class's recording scope is never open on this store)."""
        # The writer lock orders the block against standalone writes:
        # each either commits before the block opens or stages into it.
        with self._writer_lock, self._lock:
            self._require_open()
            if self._buffer is not None:
                raise StorageError("block_batch does not nest")
            writes = self._buffer = BlockWrites()
            self._buffer_owner = threading.get_ident()
        try:
            yield writes
        except BaseException:
            with self._lock:
                self._buffer = None
                self._block_closed.notify_all()
            raise
        else:
            with self._writer_lock:
                with self._lock:
                    self._buffer = None
                    self._block_closed.notify_all()
                if writes.puts or writes.deletes:
                    self._commit(writes.puts, writes.deletes)
                    with self._lock:
                        self.stats.block_commits += 1

    # -- write machinery -------------------------------------------------

    def _write(self, puts: dict[bytes, bytes], deletes: set[bytes]) -> None:
        """Stage into this thread's open block, or commit as a batch of
        its own.  Another thread's open block is waited out, never
        joined: its abort must not discard a write that returned."""
        me = threading.get_ident()
        while True:
            with self._lock:
                while self._buffer is not None and self._buffer_owner != me:
                    self._require_open()
                    self._block_closed.wait()
            with self._writer_lock:
                with self._lock:
                    self._require_open()
                    if self._buffer is not None and self._buffer_owner != me:
                        continue  # another block opened meanwhile
                    self.stats.puts += len(puts)
                    if self._buffer is not None:
                        self._buffer.stage_batch(puts, deletes)
                        return
                self._commit(puts, deletes)
                return

    def _commit(self, puts: dict[bytes, bytes], deletes: set[bytes]) -> None:
        """The whole commit path (caller holds the writer lock): append
        under the store lock, fsync outside it so no reader waits on the
        disk, then apply under it.  Readers see the batch only once it
        is durable; a failed fsync poisons the WAL and the batch is
        never applied."""
        with self._lock:
            self._require_open()
            self._raise_bg_error()
            wal = self._wal
            nbytes = wal.append(puts, deletes)
            self.stats.wal_bytes_written += nbytes
            self.stats.wal_records_written += 1
        wal.sync()
        with self._lock:
            self._memtable.apply(puts, deletes)
            if self._memtable.approximate_bytes >= self._memtable_bytes:
                self._freeze_locked()

    def _freeze_locked(self) -> None:
        """Swap the memtable + WAL generation and hand the frozen pair to
        the background worker.  Blocks while a previous flush is still in
        flight (single-slot backpressure)."""
        if not len(self._memtable):
            return
        stall_started = None
        while (self._frozen is not None and self._bg_error is None
               and not self._crashed and not self._closed):
            if stall_started is None:
                stall_started = time.perf_counter()
            self._bg_cond.wait()
        if stall_started is not None:
            self.stats.flush_stall_seconds += (
                time.perf_counter() - stall_started
            )
        self._require_open()
        self._raise_bg_error()
        old_wal = self._wal
        old_wal.close()  # final fsync (when sync): frozen records durable
        self._frozen = self._memtable
        self._frozen_wal = old_wal
        self._memtable = Memtable()
        new_seq = old_wal.seq + 1
        self._wal = WriteAheadLog(
            _wal_path(self.directory, new_seq),
            seq=new_seq, sync=self._sync, sealer=self._sealer,
        )
        self.stats.freezes += 1
        self._ensure_bg_thread()
        self._bg_cond.notify_all()

    def _ensure_bg_thread(self) -> None:
        if self._bg_thread is None or not self._bg_thread.is_alive():
            self._bg_thread = threading.Thread(
                target=self._bg_loop,
                name=f"lsm-bg-{os.path.basename(self.directory)}",
                daemon=True,
            )
            self._bg_thread.start()

    def _bg_loop(self) -> None:
        while True:
            with self._bg_cond:
                while (self._frozen is None and not self._bg_stop
                       and not self._crashed):
                    self._bg_cond.wait()
                if self._crashed or self._frozen is None:
                    self._bg_busy = False
                    self._bg_cond.notify_all()
                    return
                self._bg_busy = True
                frozen = self._frozen
                frozen_wal = self._frozen_wal
                segment_id = self._next_segment_id
                self._next_segment_id += 1
            error: BaseException | None = None
            try:
                published = self._bg_flush(frozen, frozen_wal, segment_id)
                if published and self._auto_compact:
                    self._bg_compact()
            except BaseException as exc:  # noqa: BLE001 - sticky fail-closed
                error = exc
            with self._bg_cond:
                self._bg_busy = False
                if error is not None and not self._crashed:
                    self._bg_error = error
                self._bg_cond.notify_all()

    def _bg_flush(
        self, frozen: Memtable, frozen_wal: WriteAheadLog, segment_id: int
    ) -> bool:
        """Worker half of a flush: seal the segment OUTSIDE the lock,
        publish the manifest under it.  Returns False on crash-abort."""
        path = _segment_path(self.directory, segment_id)
        meta = write_sstable(
            path, segment_id, frozen.items_sorted(),
            self._sealer, self._block_bytes, sync=self._sync,
        )
        with self._bg_cond:
            if self._crashed:
                # Never publish past a simulated crash: the directory must
                # look exactly as the committed WAL/manifest left it.
                try:
                    os.remove(path)
                except OSError:
                    pass
                return False
            segments = tuple(self._manifest.segments) + (
                SegmentRecord.from_meta(meta),
            )
            self._publish_manifest(segments, frozen_wal.seq + 1)
            self._retired_wal_fsyncs += frozen_wal.fsyncs
            self._readers[segment_id] = SSTableReader(
                path, self._sealer, self.cache,
            )
            self._frozen = None
            self._frozen_wal = None
            self.stats.flushes += 1
            self.stats.flush_bytes += meta.size
            self._bg_cond.notify_all()
        return True

    def _bg_compact(self) -> None:
        """Size-tiered compaction rounds, merge work outside the lock.

        Only the background worker mutates the segment set, so the plan
        taken under the lock stays valid across the unlocked merge."""
        while True:
            with self._bg_cond:
                if (self._crashed or self._closed
                        or self._bg_error is not None):
                    return
                plan = plan_compaction(
                    list(self._manifest.segments), self._memtable_bytes,
                    self._compaction_fanin,
                )
                if plan is None:
                    return
                chosen = {
                    chosen_id: self._readers[chosen_id]
                    for chosen_id in plan.segment_ids
                }
                segment_id = self._next_segment_id
                self._next_segment_id += 1
                merged_bytes = sum(r.size for r in chosen.values())
            readers = [
                (rank, chosen[chosen_id].items())
                for rank, chosen_id in enumerate(plan.segment_ids)
            ]
            path = _segment_path(self.directory, segment_id)
            meta = write_sstable(
                path, segment_id,
                merge_entries(readers, plan.drop_tombstones),
                self._sealer, self._block_bytes, sync=self._sync,
            )
            with self._bg_cond:
                if self._crashed:
                    try:
                        os.remove(path)
                    except OSError:
                        pass
                    return
                # The merged output takes the run's slot in the manifest
                # order, keeping the list sorted oldest-to-newest.
                old = self._manifest.segments
                survivors = (
                    old[:plan.position]
                    + (SegmentRecord.from_meta(meta),)
                    + old[plan.position + len(plan.segment_ids):]
                )
                self._publish_manifest(survivors, self._manifest.wal_seq)
                for stale_id in plan.segment_ids:
                    self._readers.pop(stale_id)
                    self.cache.drop_segment(stale_id)
                    os.remove(_segment_path(self.directory, stale_id))
                self._readers[segment_id] = SSTableReader(
                    path, self._sealer, self.cache,
                )
                self.stats.compactions += 1
                self.stats.compacted_bytes += merged_bytes

    def flush(self) -> bool:
        """Freeze the memtable and wait for the background worker to land
        it (and any follow-on compaction).  Synchronous from the caller's
        point of view, exactly like the historical inline flush."""
        with self._writer_lock:
            return self._flush()

    def _flush(self) -> bool:
        with self._bg_cond:
            self._require_open()
            self._raise_bg_error()
            pending = self._frozen is not None or self._bg_busy
            froze = False
            if len(self._memtable):
                self._freeze_locked()
                froze = True
            while ((self._frozen is not None or self._bg_busy)
                   and self._bg_error is None and not self._crashed):
                self._bg_cond.wait()
            self._raise_bg_error()
            return froze or pending

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
        with self._bg_cond:
            self._require_open()
            self._raise_bg_error()
            before = self.stats.compactions
        self._bg_compact()
        with self._bg_cond:
            self._raise_bg_error()
            return self.stats.compactions > before

    # -- lifecycle -------------------------------------------------------

    def close(self) -> None:
        """Clean shutdown: flush the memtable so reopen skips WAL replay,
        then release every handle."""
        with self._writer_lock:
            with self._bg_cond:
                if self._closed:
                    return
                if self._buffer is not None:
                    raise StorageError("cannot close inside a block_batch")
            self._flush()
            with self._bg_cond:
                self._bg_stop = True
                self._bg_cond.notify_all()
                thread = self._bg_thread
            if thread is not None:
                thread.join()
            with self._bg_cond:
                self._raise_bg_error()
                self._wal.close()
                self._closed = True

    def crash(self) -> None:
        """Simulated process death: drop handles, flush *nothing*.

        The directory is left exactly as the last committed WAL record /
        manifest epoch wrote it: the background worker is drained and
        aborts before any manifest publish; a segment file it was mid-way
        through writing is removed.  A fresh :class:`LsmKV` recovers from
        the directory (replaying every surviving WAL generation).
        """
        with self._bg_cond:
            self._crashed = True
            self._closed = True
            self._bg_stop = True
            self._buffer = None
            self._bg_cond.notify_all()
            self._block_closed.notify_all()
            thread = self._bg_thread
        if thread is not None:
            thread.join()
        with self._bg_cond:
            self._wal.crash()
            if self._frozen_wal is not None:
                self._frozen_wal.crash()

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
            fsyncs = self._retired_wal_fsyncs + self._wal.fsyncs
            if self._frozen_wal is not None:
                fsyncs += self._frozen_wal.fsyncs
            snap.update({
                "wal_fsyncs": fsyncs,
                "manifest_epoch": self._manifest.epoch,
                "segments_live": len(self._readers),
                "segment_bytes": sum(
                    r.size for r in self._readers.values()
                ),
                "memtable_bytes": self._memtable.approximate_bytes,
                "memtable_entries": len(self._memtable),
                "flush_pending": int(self._frozen is not None),
                "cache_hits": self.cache.hits,
                "cache_misses": self.cache.misses,
                "cache_evictions": self.cache.evictions,
                "cache_used_bytes": self.cache.used_bytes,
                "cache_hit_rate": self.cache.hit_rate(),
                "sealed": int(self.sealed),
            })
            return snap
