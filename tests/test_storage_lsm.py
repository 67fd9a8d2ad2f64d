"""LSM storage engine tests: WAL crash-point sweep, SSTables, sealed
manifest freshness (rollback/forged-future/mix-and-match refusal),
model-based store equivalence, node restart-from-disk, snapshot
state-sync, and the at-rest confidentiality byte-scan."""

import os
import shutil

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ChainError, StorageError
from repro.storage.lsm import (
    BlockCache,
    CounterFreshness,
    LsmKV,
    PlatformFreshness,
    SSTableReader,
    StorageSealer,
    WriteAheadLog,
    write_sstable,
)
from repro.storage.lsm.manifest import (
    MANIFEST_NAME,
    RootManifest,
    read_manifest,
    write_manifest,
)
from repro.storage.lsm.wal import replay_file


def _wal_path(tmp_path, name="w.log"):
    return os.path.join(str(tmp_path), name)


def needles_for(blob: bytes) -> list[bytes]:
    """Byte forms an at-rest leak would take inside storage files."""
    return [blob, blob.hex().encode(), blob.hex().upper().encode()]


class TestWriteAheadLog:
    def test_roundtrip(self, tmp_path):
        path = _wal_path(tmp_path)
        wal = WriteAheadLog(path)
        wal.append({b"a": b"1", b"b": b"2"})
        wal.append({b"c": b"3"}, deletes={b"a"})
        wal.close()
        batches = replay_file(path)
        assert batches == [
            ({b"a": b"1", b"b": b"2"}, set()),
            ({b"c": b"3"}, {b"a"}),
        ]

    def test_crash_point_sweep_every_byte(self, tmp_path):
        """Truncating the log at EVERY byte offset must recover exactly
        the longest prefix of complete batches — never a partial one."""
        path = _wal_path(tmp_path)
        wal = WriteAheadLog(path)
        sizes = [
            wal.append({f"k{i}".encode(): bytes([i]) * (i + 1)},
                       deletes={b"dead"} if i % 2 else frozenset())
            for i in range(5)
        ]
        wal.close()
        with open(path, "rb") as f:
            full = f.read()
        assert sum(sizes) == len(full)
        boundaries = [0]
        for size in sizes:
            boundaries.append(boundaries[-1] + size)
        complete_at = lambda cut: sum(1 for b in boundaries[1:] if b <= cut)

        for cut in range(len(full) + 1):
            torn = _wal_path(tmp_path, f"cut-{cut}.log")
            with open(torn, "wb") as f:
                f.write(full[:cut])
            batches = replay_file(torn)
            assert len(batches) == complete_at(cut), f"cut at byte {cut}"
            # replay_file is read-only: the torn tail is left in place.
            assert os.path.getsize(torn) == cut
            # A writable open truncates back to the record boundary.
            WriteAheadLog(torn).close()
            assert os.path.getsize(torn) == boundaries[complete_at(cut)]

    def test_bit_rot_drops_tail(self, tmp_path):
        path = _wal_path(tmp_path)
        wal = WriteAheadLog(path)
        wal.append({b"keep": b"1"})
        wal.append({b"lost": b"2"})
        wal.close()
        with open(path, "r+b") as f:
            f.seek(-1, os.SEEK_END)
            last = f.read(1)
            f.seek(-1, os.SEEK_END)
            f.write(bytes([last[0] ^ 0xFF]))
        batches = replay_file(path)
        assert batches == [({b"keep": b"1"}, set())]

    def test_sealed_wal_tamper_is_not_torn(self, tmp_path):
        """A record whose CRC verifies but whose seal does not open is
        tampering (fail closed), not a torn tail (truncate quietly)."""
        sealer = StorageSealer(b"k" * 16, identity=b"t")
        path = _wal_path(tmp_path)
        wal = WriteAheadLog(path, seq=3, sealer=sealer)
        wal.append({b"a": b"1"})
        wal.close()
        # Replaying under the wrong WAL sequence breaks the seal AAD.
        with pytest.raises(StorageError):
            replay_file(path, seq=4, sealer=sealer)
        # The right sequence opens fine.
        assert replay_file(path, seq=3, sealer=sealer) == [({b"a": b"1"}, set())]

    def _sealed_records(self, tmp_path, count=3):
        """A sealed WAL plus the byte span of each record."""
        sealer = StorageSealer(b"k" * 16, identity=b"t")
        path = _wal_path(tmp_path)
        wal = WriteAheadLog(path, seq=1, sealer=sealer)
        sizes = [wal.append({f"k{i}".encode(): bytes([i])}) for i in range(count)]
        wal.close()
        with open(path, "rb") as f:
            data = f.read()
        records, offset = [], 0
        for size in sizes:
            records.append(data[offset:offset + size])
            offset += size
        return sealer, path, records

    def test_sealed_wal_rejects_reordered_records(self, tmp_path):
        """The seal AAD binds each record's index, so a host swapping
        two interior records within one generation is caught."""
        sealer, path, records = self._sealed_records(tmp_path)
        with open(path, "wb") as f:
            f.write(records[1] + records[0] + records[2])
        with pytest.raises(StorageError, match="authentication"):
            replay_file(path, seq=1, sealer=sealer)

    def test_sealed_wal_rejects_dropped_and_duplicated_records(self, tmp_path):
        sealer, path, records = self._sealed_records(tmp_path)
        with open(path, "wb") as f:  # interior record silently dropped
            f.write(records[0] + records[2])
        with pytest.raises(StorageError, match="authentication"):
            replay_file(path, seq=1, sealer=sealer)
        with open(path, "wb") as f:  # interior record replayed twice
            f.write(records[0] + records[1] + records[1] + records[2])
        with pytest.raises(StorageError, match="authentication"):
            replay_file(path, seq=1, sealer=sealer)

    def test_sealed_wal_append_after_recovery_keeps_indices(self, tmp_path):
        """Reopening a sealed WAL continues the record index where the
        recovered prefix ended, so the whole generation replays."""
        sealer, path, _ = self._sealed_records(tmp_path, count=2)
        wal = WriteAheadLog(path, seq=1, sealer=sealer)
        assert len(wal.recovered) == 2
        wal.append({b"later": b"3"})
        wal.close()
        assert len(replay_file(path, seq=1, sealer=sealer)) == 3

    def test_replay_file_is_read_only(self, tmp_path):
        """`repro db verify` must not mutate the WAL it inspects: a
        torn tail is skipped during replay, never truncated."""
        path = _wal_path(tmp_path)
        wal = WriteAheadLog(path)
        wal.append({b"a": b"1"})
        wal.close()
        with open(path, "ab") as f:
            f.write(b"\xde\xad\xbe")  # torn tail
        size = os.path.getsize(path)
        assert replay_file(path) == [({b"a": b"1"}, set())]
        assert os.path.getsize(path) == size
        # And a read-only log refuses writes outright.
        ro = WriteAheadLog(path, read_only=True)
        with pytest.raises(StorageError, match="read-only"):
            ro.append({b"x": b"y"})


class TestSSTable:
    def _write(self, tmp_path, entries, sealer=None, block_bytes=64):
        path = os.path.join(str(tmp_path), "seg.sst")
        meta = write_sstable(path, 7, entries, sealer, block_bytes)
        return path, meta

    def test_roundtrip_with_tombstones(self, tmp_path):
        entries = [(f"k{i:03d}".encode(), None if i % 5 == 0 else bytes([i]))
                   for i in range(50)]
        path, meta = self._write(tmp_path, entries)
        reader = SSTableReader(path)
        assert meta.count == 50
        assert list(reader.items()) == entries
        assert reader.get(b"k007") == (True, bytes([7]))
        assert reader.get(b"k005") == (True, None)  # tombstone is a hit
        assert reader.get(b"nope") == (False, None)
        assert reader.verify_blocks() > 1  # small blocks -> several

    def test_unsorted_entries_refused(self, tmp_path):
        with pytest.raises(StorageError):
            self._write(tmp_path, [(b"b", b"1"), (b"a", b"2")])

    def test_sealed_reader_needs_matching_sealer(self, tmp_path):
        sealer = StorageSealer(b"s" * 16, identity=b"node")
        entries = [(b"alpha", b"one"), (b"beta", b"two")]
        path, _ = self._write(tmp_path, entries, sealer=sealer)
        assert list(SSTableReader(path, sealer).items()) == entries
        with pytest.raises(StorageError):
            SSTableReader(path, StorageSealer(b"x" * 16, identity=b"node"))
        with pytest.raises(StorageError):
            SSTableReader(path, StorageSealer(b"s" * 16, identity=b"other"))

    def test_seal_many_matches_per_blob_seal(self):
        """The batched seal is byte-identical to per-blob calls — the
        property write_sstable's one-pass sealing rests on."""
        sealer = StorageSealer(b"s" * 16, identity=b"node")
        blobs = [bytes([i]) * (i * 7 + 1) for i in range(20)]
        contexts = [b"ctx:%d" % i for i in range(20)]
        batched = sealer.seal_many(blobs, contexts)
        assert batched == [sealer.seal(b, c)
                           for b, c in zip(blobs, contexts)]
        for blob, sealed in zip(blobs, batched):
            assert len(sealed) == StorageSealer.sealed_size(len(blob))
        with pytest.raises(StorageError):
            sealer.seal_many(blobs, contexts[:-1])

    def test_batched_writer_bytes_match_per_block_sealing(
            self, tmp_path, monkeypatch):
        """Equivalence pin for the seal-batching change: a segment
        written through seal_many is byte-for-byte the segment written
        by sealing each block individually (old writer behavior)."""
        sealer = StorageSealer(b"s" * 16, identity=b"node")
        entries = [(b"key-%04d" % i, os.urandom(1 + i % 90))
                   for i in range(300)]
        entries[17] = (entries[17][0], None)  # keep a tombstone in play
        batched_path = os.path.join(str(tmp_path), "batched.sst")
        write_sstable(batched_path, 9, entries, sealer, block_bytes=256)

        def one_at_a_time(self, blobs, contexts):
            return [self.seal(blob, context)
                    for blob, context in zip(blobs, contexts)]

        monkeypatch.setattr(StorageSealer, "seal_many", one_at_a_time)
        serial_path = os.path.join(str(tmp_path), "serial.sst")
        write_sstable(serial_path, 9, entries, sealer, block_bytes=256)
        with open(batched_path, "rb") as a, open(serial_path, "rb") as b:
            assert a.read() == b.read()
        assert list(SSTableReader(batched_path, sealer).items()) == entries

    def test_block_cache_hits(self, tmp_path):
        entries = [(f"k{i:03d}".encode(), bytes([i])) for i in range(40)]
        path, _ = self._write(tmp_path, entries)
        cache = BlockCache(1 << 16)
        reader = SSTableReader(path, cache=cache)
        reader.get(b"k001")
        reader.get(b"k002")  # same block -> cache hit
        assert cache.hits >= 1
        assert 0.0 < cache.hit_rate() <= 1.0
        cache.drop_segment(reader.segment_id)
        assert cache.used_bytes == 0


class TestManifestFreshness:
    def _store(self, tmp_path, epoch, counter=None, sealer=None):
        manifest = RootManifest(epoch=epoch, wal_seq=epoch, segments=())
        write_manifest(str(tmp_path), manifest, sealer, counter)
        return manifest

    def test_rollback_refused(self, tmp_path):
        counter = CounterFreshness()
        self._store(tmp_path, 1, counter)
        old = open(os.path.join(str(tmp_path), MANIFEST_NAME), "rb").read()
        self._store(tmp_path, 5, counter)
        with open(os.path.join(str(tmp_path), MANIFEST_NAME), "wb") as f:
            f.write(old)  # host restores the old manifest
        with pytest.raises(StorageError, match="rollback"):
            read_manifest(str(tmp_path), freshness=counter)

    def test_forged_future_refused(self, tmp_path):
        self._store(tmp_path, 9)
        with pytest.raises(StorageError, match="ahead of the monotonic"):
            read_manifest(str(tmp_path), freshness=CounterFreshness(5))

    def test_crash_window_accepted(self, tmp_path):
        # Manifest written but the process died before the counter
        # advanced: epoch == counter + 1 is legitimate.
        self._store(tmp_path, 6)
        counter = CounterFreshness(5)
        manifest = read_manifest(str(tmp_path), freshness=counter)
        assert manifest.epoch == 6
        assert counter.current() == 6  # re-advanced on accept

    def test_missing_manifest_with_counter_refused(self, tmp_path):
        with pytest.raises(StorageError, match="manifest missing"):
            read_manifest(str(tmp_path), freshness=CounterFreshness(3))
        assert read_manifest(str(tmp_path)) is None  # genuinely fresh

    def test_platform_freshness_survives_process_death(self, tmp_path):
        class FakePlatform:
            pass

        platform = FakePlatform()
        counter = CounterFreshness()  # stand-in for the write path
        self._store(tmp_path, 4, PlatformFreshness(platform))
        # A "new process" builds a fresh PlatformFreshness over the same
        # platform object and still sees the committed epoch.
        assert PlatformFreshness(platform).current() == 4
        del counter


def _fill(kv, n=120, prefix=b"key"):
    for i in range(n):
        kv.put(prefix + f"{i:04d}".encode(), f"value-{i}".encode() * 3)


class TestLsmKV:
    def test_roundtrip_reopen(self, tmp_path):
        d = str(tmp_path)
        kv = LsmKV(d, memtable_bytes=512)
        _fill(kv)
        kv.delete(b"key0003")
        kv.put(b"key0004", b"overwritten")
        assert kv.stats_snapshot()["flushes"] > 0
        expected = dict(kv.items())
        kv.close()
        reopened = LsmKV(d)
        assert dict(reopened.items()) == expected
        assert reopened.get(b"key0003") is None
        assert reopened.get(b"key0004") == b"overwritten"
        reopened.close()

    def test_tombstone_shadows_older_segment(self, tmp_path):
        kv = LsmKV(str(tmp_path), memtable_bytes=64, auto_compact=False)
        kv.put(b"k", b"old")
        kv.flush()
        kv.delete(b"k")
        kv.flush()  # tombstone lives in a newer segment
        assert kv.get(b"k") is None
        assert b"k" not in dict(kv.items())
        kv.close()

    def test_compaction_preserves_content(self, tmp_path):
        kv = LsmKV(str(tmp_path), memtable_bytes=256, auto_compact=False)
        _fill(kv, 200)
        before = dict(kv.items())
        segments_before = kv.live_segments
        while kv.compact():
            pass
        assert kv.live_segments < segments_before
        assert dict(kv.items()) == before
        # Stale segment files are actually deleted from disk.
        sst_files = [n for n in os.listdir(str(tmp_path)) if n.endswith(".sst")]
        assert len(sst_files) == kv.live_segments
        kv.close()

    def test_tombstone_not_resurrected_across_tiers(self, tmp_path):
        """Tombstone GC soundness: a tier-0 merge must keep a tombstone
        whose deleted value still lives in an older tier-1 segment."""
        kv = LsmKV(str(tmp_path), memtable_bytes=1000,
                   compaction_fanin=4, auto_compact=False)
        kv.put(b"filler0", b"x")
        kv.flush()                       # tier-0 segment, oldest
        kv.put(b"big", b"v" * 3000)      # auto-flushes into tier 1
        kv.delete(b"big")
        kv.flush()                       # tombstone in a tier-0 segment
        for name in (b"f4", b"f5", b"f6"):
            kv.put(name, b"x")
            kv.flush()
        assert kv.compact()              # merges a tier-0 run
        assert kv.get(b"big") is None    # tombstone still shadows tier 1
        assert b"big" not in dict(kv.items())
        kv.close()
        reopened = LsmKV(str(tmp_path))
        assert reopened.get(b"big") is None
        reopened.close()

    def test_compaction_output_does_not_shadow_newer_segment(self, tmp_path):
        """A merge output carries a fresh segment id but OLD content; it
        must not outrank an unmerged newer segment on reads."""
        kv = LsmKV(str(tmp_path), memtable_bytes=1 << 20,
                   compaction_fanin=4, auto_compact=False)
        kv.put(b"k", b"old")
        kv.flush()
        for i in range(3):
            kv.put(f"f{i}".encode(), b"x")
            kv.flush()
        kv.put(b"k", b"new")
        kv.flush()                       # newest segment, not merged
        assert kv.compact()              # merges the 4 oldest segments
        assert kv.get(b"k") == b"new"
        assert dict(kv.items())[b"k"] == b"new"
        kv.close()
        reopened = LsmKV(str(tmp_path))
        assert reopened.get(b"k") == b"new"
        reopened.close()

    def test_sync_durability_roundtrip(self, tmp_path):
        """sync=True (file + directory fsync on every rename/creation)
        must compose with flush, compaction, and reopen."""
        d = str(tmp_path)
        kv = LsmKV(d, sync=True, memtable_bytes=256, auto_compact=False)
        _fill(kv, 40)
        while kv.compact():
            pass
        expected = dict(kv.items())
        kv.close()
        reopened = LsmKV(d, sync=True)
        assert dict(reopened.items()) == expected
        reopened.close()

    def test_block_batch_atomic_over_crash(self, tmp_path):
        d = str(tmp_path)
        kv = LsmKV(d)
        kv.put(b"durable", b"yes")
        with kv.block_batch():
            kv.put(b"a", b"1")
            kv.put(b"b", b"2")
            assert kv.get(b"a") == b"1"  # visible inside the batch
        with pytest.raises(RuntimeError):
            with kv.block_batch():
                kv.put(b"half", b"written")
                raise RuntimeError("mid-block failure")
        assert kv.get(b"half") is None  # discarded, never hit the WAL
        kv.crash()
        recovered = LsmKV(d)
        assert recovered.get(b"durable") == b"yes"
        assert recovered.get(b"a") == b"1"
        assert recovered.get(b"b") == b"2"
        assert recovered.get(b"half") is None
        recovered.close()

    def test_wal_crash_recovers_unflushed_writes(self, tmp_path):
        d = str(tmp_path)
        kv = LsmKV(d)
        kv.put(b"memtable-only", b"v")
        kv.crash()  # no flush: the WAL is the only durable copy
        recovered = LsmKV(d)
        assert recovered.get(b"memtable-only") == b"v"
        assert recovered.stats_snapshot()["wal_recovered_batches"] >= 1
        recovered.close()

    def test_torn_wal_tail_recovers_prefix(self, tmp_path):
        d = str(tmp_path)
        kv = LsmKV(d)
        kv.put(b"first", b"1")
        kv.put(b"second", b"2")
        kv.crash()
        wal = [n for n in os.listdir(d) if n.endswith(".log")][0]
        path = os.path.join(d, wal)
        with open(path, "r+b") as f:
            f.truncate(os.path.getsize(path) - 3)
        recovered = LsmKV(d)
        assert recovered.get(b"first") == b"1"
        assert recovered.get(b"second") is None  # torn record dropped
        assert recovered.stats.wal_truncated_bytes > 0
        recovered.close()

    def test_rollback_of_manifest_refused_on_open(self, tmp_path):
        d = str(tmp_path)
        counter = CounterFreshness()
        kv = LsmKV(d, freshness=counter)
        kv.put(b"a", b"1")
        kv.close()  # flush -> manifest epoch advances
        saved = open(os.path.join(d, MANIFEST_NAME), "rb").read()
        kv = LsmKV(d, freshness=counter)
        kv.put(b"b", b"2")
        kv.close()
        with open(os.path.join(d, MANIFEST_NAME), "wb") as f:
            f.write(saved)  # host rolls the root manifest back
        with pytest.raises(StorageError, match="rollback"):
            LsmKV(d, freshness=counter)

    def test_segment_substitution_refused_on_open(self, tmp_path):
        d = str(tmp_path)
        kv = LsmKV(d, auto_compact=False)
        kv.put(b"epoch1", b"a" * 64)
        kv.flush()
        first = sorted(n for n in os.listdir(d) if n.endswith(".sst"))[0]
        shutil.copyfile(os.path.join(d, first), os.path.join(d, "old.bak"))
        kv.put(b"epoch2", b"b" * 64)
        kv.flush()
        kv.compact()
        kv.close()
        live = sorted(n for n in os.listdir(d) if n.endswith(".sst"))[-1]
        shutil.copyfile(os.path.join(d, "old.bak"), os.path.join(d, live))
        os.remove(os.path.join(d, "old.bak"))
        with pytest.raises(StorageError, match="refused|missing"):
            LsmKV(d)

    def test_sealed_store_reopens_and_rejects_foreign_key(self, tmp_path):
        d = str(tmp_path)
        sealer = StorageSealer(b"p" * 16, identity=b"node-0")
        kv = LsmKV(d, sealer=sealer)
        _fill(kv, 30)
        kv.close()
        same = LsmKV(d, sealer=StorageSealer(b"p" * 16, identity=b"node-0"))
        assert same.get(b"key0010") == b"value-10" * 3
        assert same.sealed
        same.close()
        with pytest.raises(StorageError):
            LsmKV(d, sealer=StorageSealer(b"q" * 16, identity=b"node-0"))
        with pytest.raises(StorageError):
            LsmKV(d)  # unsealed open of a sealed store

    def test_sealed_at_rest_canary_scan(self, tmp_path):
        """No secret byte sequence may appear in ANY storage file — WAL,
        SSTables, or manifest — in raw or hex form."""
        d = str(tmp_path)
        secrets = [b"CANARY-balance-7777777", b"CANARY-acct-SSN-123-45-6789"]
        sealer = StorageSealer(b"m" * 16, identity=b"scan")
        kv = LsmKV(d, sealer=sealer, memtable_bytes=256, auto_compact=False)
        for i, secret in enumerate(secrets * 10):
            kv.put(f"s:{i:04d}".encode(), secret)
        kv.flush()
        kv.put(b"s:wal-only", secrets[0])  # stays in the WAL
        kv.crash()  # leave the WAL un-flushed on disk
        for name in sorted(os.listdir(d)):
            with open(os.path.join(d, name), "rb") as f:
                blob = f.read()
            for secret in secrets:
                for needle in needles_for(secret):
                    assert needle not in blob, f"{needle!r} leaked in {name}"

    def test_unsealed_store_does_leak(self, tmp_path):
        """Sanity check of the scan itself: without a sealer the canary
        IS on disk (so the sealed test above is actually measuring)."""
        d = str(tmp_path)
        kv = LsmKV(d)
        kv.put(b"k", b"CANARY-plaintext-visible")
        kv.flush()
        kv.close()
        blobs = b"".join(
            open(os.path.join(d, n), "rb").read() for n in os.listdir(d)
        )
        assert b"CANARY-plaintext-visible" in blobs

    def test_verify_and_stats(self, tmp_path):
        kv = LsmKV(str(tmp_path), memtable_bytes=512)
        _fill(kv, 60)
        report = kv.verify()
        assert report["segments"] == kv.live_segments
        assert report["blocks_checked"] > 0
        snap = kv.stats_snapshot()
        assert snap["puts"] == 60
        assert snap["manifest_epoch"] == kv.manifest_epoch
        kv.close()
        with pytest.raises(StorageError):
            kv.put(b"late", b"write")  # closed store fails closed

    def test_note_state_root_lands_in_manifest(self, tmp_path):
        d = str(tmp_path)
        kv = LsmKV(d)
        kv.put(b"a", b"1")
        kv.note_state_root(b"\xaa" * 32)
        kv.flush()
        kv.close()
        reopened = LsmKV(d)
        assert reopened.manifest_extra == b"\xaa" * 32
        reopened.close()


_lsm_ops = st.lists(
    st.one_of(
        st.tuples(st.just("put"), st.binary(min_size=1, max_size=8),
                  st.binary(max_size=24)),
        st.tuples(st.just("delete"), st.binary(min_size=1, max_size=8),
                  st.just(b"")),
        st.tuples(st.just("flush"), st.just(b""), st.just(b"")),
    ),
    max_size=50,
)


class TestLsmModelBased:
    @given(ops=_lsm_ops)
    @settings(max_examples=25, deadline=None)
    def test_lsm_matches_dict_after_reopen(self, ops, tmp_path_factory):
        d = str(tmp_path_factory.mktemp("lsm"))
        model: dict[bytes, bytes] = {}
        kv = LsmKV(d, memtable_bytes=128)
        for op, key, value in ops:
            if op == "put":
                kv.put(key, value)
                model[key] = value
            elif op == "delete":
                kv.delete(key)
                model.pop(key, None)
            else:
                kv.flush()
        assert dict(kv.items()) == model
        for key, value in model.items():
            assert kv.get(key) == value
        kv.close()
        reopened = LsmKV(d)
        assert dict(reopened.items()) == model
        reopened.close()


def _one_node_world(tmp_path, backend, num_blocks=3):
    from repro.chain.node import build_consortium
    from repro.core.config import EngineConfig
    from repro.lang import compile_source
    from repro.workloads import Client

    config = EngineConfig(storage_backend=backend)
    data_dir = os.path.join(str(tmp_path), "node-0")
    nodes, _ = build_consortium(1, config=config, data_dirs=[data_dir])
    node = nodes[0]
    client = Client.from_seed(b"storage-test")
    pk = node.pk_tx
    artifact = compile_source(
        """
        fn main() {
            let v = alloc(8);
            let n = storage_get("hits", 4, v, 8);
            let count = 0;
            if (n > 0) { count = load64(v); }
            store64(v, count + 1);
            storage_set("hits", 4, v, 8);
            output(v, 8);
        }
        """,
        "wasm",
    )
    tx, address = client.confidential_deploy(pk, artifact)
    node.receive_transaction(tx)
    node.preverify_pending()
    node.apply_transactions(node.draft_block(max_bytes=1 << 20))
    for _ in range(num_blocks - 1):
        for _ in range(2):
            node.receive_transaction(
                client.confidential_call(pk, address, "main", b"")
            )
        node.preverify_pending()
        applied = node.apply_transactions(node.draft_block(max_bytes=1 << 20))
        for outcome in applied.report.outcomes:
            assert outcome.receipt.success, outcome.receipt.error
    return node, config, data_dir


class TestNodeOnPersistentStorage:
    @pytest.mark.parametrize("backend", ["lsm"])
    def test_restart_from_disk_equivalence(self, tmp_path, backend):
        """Acceptance: a node reopened from its on-disk store recovers
        the exact chain — height, head hash, and state root."""
        from repro.chain.node import Node, make_store

        node, config, data_dir = _one_node_world(tmp_path, backend)
        height = node.height
        head = node.head_hash
        root = node.state_root()
        platform = node.confidential.platform
        node.close()

        kv = make_store(config, data_dir, platform)
        restarted = Node(0, kv=kv, config=config, platform=platform)
        restored = restarted.restore_chain_from_storage()
        assert restored == height
        assert restarted.height == height
        assert restarted.head_hash == head
        assert restarted.state_root() == root
        restarted.close()

    @staticmethod
    def _restart_with_head_receipts(tmp_path, tamper):
        """A sealed LSM node whose head block's receipts record was
        altered through the store (``tamper(kv, key, blobs)``) before a
        clean close, reopened on its own platform."""
        from repro.chain.node import (
            _RECEIPTS_DATA_PREFIX,
            Node,
            _height_key,
            make_store,
        )

        node, config, data_dir = _one_node_world(tmp_path, "lsm")
        key = _height_key(_RECEIPTS_DATA_PREFIX, node.height)
        tamper(node.kv, key, node.receipt_blobs_at(node.height))
        platform = node.confidential.platform
        node.close()
        return Node(0, kv=make_store(config, data_dir, platform),
                    config=config, platform=platform)

    def test_restore_refuses_missing_head_receipts(self, tmp_path):
        restarted = self._restart_with_head_receipts(
            tmp_path, lambda kv, key, blobs: kv.delete(key))
        with pytest.raises(ChainError, match="receipts"):
            restarted.restore_chain_from_storage()
        restarted.close()

    def test_restore_refuses_forged_head_receipts(self, tmp_path):
        from repro.storage import rlp

        def forge(kv, key, blobs):
            assert blobs  # the head block carries transactions
            kv.put(key, rlp.encode([b"forged-receipt"] * len(blobs)))

        restarted = self._restart_with_head_receipts(tmp_path, forge)
        with pytest.raises(ChainError, match="receipts root"):
            restarted.restore_chain_from_storage()
        restarted.close()

    def test_restore_keeps_the_first_receipt_of_a_resubmitted_tx(
            self, tmp_path):
        """A committed transaction included again re-executes into a
        replay rejection; the original receipt stays authoritative
        after a restart, as it is on the live node."""
        from repro.chain.node import Node, make_store

        node, config, data_dir = _one_node_world(tmp_path, "lsm")
        tx = node.chain[-1].transactions[0]
        original = node.receipts[tx.tx_hash]
        replay = node.apply_transactions([tx])
        assert not replay.report.outcomes[0].receipt.success
        assert node.receipts[tx.tx_hash] == original
        platform = node.confidential.platform
        node.close()

        restarted = Node(0, kv=make_store(config, data_dir, platform),
                         config=config, platform=platform)
        assert restarted.restore_chain_from_storage() == node.height
        assert restarted.receipts[tx.tx_hash] == original
        restarted.close()

    def test_lsm_manifest_binds_state_root(self, tmp_path):
        node, _, _ = _one_node_world(tmp_path, "lsm")
        root = node.state_root()
        node.kv.flush()
        assert node.kv.manifest_extra == root
        node.close()

    def test_node_close_releases_store(self, tmp_path):
        node, config, data_dir = _one_node_world(tmp_path, "lsm",
                                                 num_blocks=2)
        platform = node.confidential.platform
        node.close()
        with pytest.raises(StorageError):
            node.kv.put(b"after-close", b"x")
        # And the directory can be reopened immediately (handles freed).
        from repro.chain.node import make_store

        make_store(config, data_dir, platform).close()

    def test_snapshot_state_sync_equivalence(self, tmp_path):
        """A fresh node bootstrapped via snapshot + tail replay ends up
        bit-identical to the peer that executed every block."""
        from repro.chain.node import build_consortium
        from repro.lang import compile_source
        from repro.workloads import Client

        nodes, _ = build_consortium(2)
        source_node, fresh = nodes
        client = Client.from_seed(b"sync-test")
        pk = source_node.pk_tx
        artifact = compile_source(
            "fn main() { let v = alloc(8); store64(v, 9); "
            "storage_set(\"x\", 1, v, 8); output(v, 8); }",
            "wasm",
        )
        tx, address = client.confidential_deploy(pk, artifact)
        source_node.receive_transaction(tx)
        source_node.preverify_pending()
        source_node.apply_transactions(
            source_node.draft_block(max_bytes=1 << 20))
        for _ in range(2):
            source_node.receive_transaction(
                client.confidential_call(pk, address, "main", b""))
            source_node.preverify_pending()
            source_node.apply_transactions(
                source_node.draft_block(max_bytes=1 << 20))
        snap_height = source_node.write_snapshot()
        # Two more blocks AFTER the snapshot: the state-sync tail.
        for _ in range(2):
            source_node.receive_transaction(
                client.confidential_call(pk, address, "main", b""))
            source_node.preverify_pending()
            source_node.apply_transactions(
                source_node.draft_block(max_bytes=1 << 20))

        synced = fresh.state_sync_from(source_node)
        assert synced == source_node.height
        assert snap_height < source_node.height  # tail actually replayed
        assert fresh.height == source_node.height
        assert fresh.head_hash == source_node.head_hash
        assert fresh.state_root() == source_node.state_root()
        # Receipts for pre-snapshot blocks were adopted too.
        assert fresh.receipts.keys() == source_node.receipts.keys()

    def test_state_sync_rejects_tampered_snapshot(self, tmp_path):
        from repro.chain.node import build_consortium

        nodes, _ = build_consortium(2)
        source_node, fresh = nodes
        source_node.write_snapshot()
        snap = source_node.latest_snapshot()
        # Corrupt the advertised state root; install must refuse.
        import dataclasses

        bad = dataclasses.replace(snap, state_root=b"\x00" * 32)
        source_node.write_snapshot()  # rewrite, then override in place
        from repro.chain.node import _SNAPSHOT_KEY
        from repro.storage import rlp

        source_node.kv.put(_SNAPSHOT_KEY, rlp.encode([
            rlp.encode_int(bad.height), bad.head_hash, bad.state_root,
            [[k, v] for k, v in sorted(bad.items.items())],
        ]))
        with pytest.raises(ChainError, match="state root"):
            fresh.state_sync_from(source_node)

    def test_state_sync_rejects_forged_receipts(self, tmp_path):
        """Adopted blocks' receipts must recompute to the header's
        receipts root — a lying peer cannot feed forged receipts."""
        from repro.chain.node import build_consortium
        from repro.lang import compile_source
        from repro.workloads import Client

        nodes, _ = build_consortium(2)
        source_node, fresh = nodes
        client = Client.from_seed(b"forged-receipts")
        artifact = compile_source(
            "fn main() { let v = alloc(8); store64(v, 1); output(v, 8); }",
            "wasm",
        )
        tx, _ = client.confidential_deploy(source_node.pk_tx, artifact)
        source_node.receive_transaction(tx)
        source_node.preverify_pending()
        source_node.apply_transactions(
            source_node.draft_block(max_bytes=1 << 20))
        source_node.write_snapshot()
        forged = [b"forged-receipt"] * len(
            source_node.receipt_blobs_at(1))
        source_node._receipt_blobs_by_height[1] = forged
        with pytest.raises(ChainError, match="receipts root"):
            fresh.state_sync_from(source_node)


class TestSimOnLsm:
    def test_crash_torn_faults_converge(self):
        from repro.sim import SimConfig, run_sim

        config = SimConfig(seed=7, steps=60, faults=frozenset({"crash", "torn"}),
                           num_nodes=4, storage="lsm")
        result = run_sim(config)
        assert result.ok, result.failure_report()
        assert len(set(result.final_state_roots.values())) == 1

    def test_lsm_run_is_deterministic(self):
        from repro.sim import SimConfig, run_sim

        config = SimConfig(seed=11, steps=40,
                           faults=frozenset({"crash", "torn"}),
                           num_nodes=4, storage="lsm")
        first = run_sim(config)
        second = run_sim(config)
        assert first.event_log_text == second.event_log_text
        assert first.final_state_roots == second.final_state_roots

    def test_background_flush_under_sim_faults(self):
        # A tiny memtable makes every node freeze + background-flush
        # constantly, so the crash/torn faults land inside (or right
        # after) in-flight flushes.  Convergence and determinism must
        # survive: crash() drains the worker before the directory is
        # attacked, and recovery replays the surviving generations.
        from dataclasses import replace as dc_replace

        from repro.core.config import DEFAULT_CONFIG
        from repro.sim import SimConfig, run_sim

        engine_config = dc_replace(DEFAULT_CONFIG,
                                   storage_memtable_bytes=2048)
        config = SimConfig(seed=23, steps=50,
                           faults=frozenset({"crash", "torn"}),
                           num_nodes=4, storage="lsm",
                           engine_config=engine_config)
        first = run_sim(config)
        assert first.ok, first.failure_report()
        assert len(set(first.final_state_roots.values())) == 1
        second = run_sim(config)
        assert first.event_log_text == second.event_log_text
        assert first.final_state_roots == second.final_state_roots


class TestBlockCacheConcurrency:
    def test_multithread_hammer_accounting_stays_exact(self):
        # Regression: BlockCache mutated its OrderedDict with no lock, so
        # concurrent readers + drop_segment corrupted the LRU and the
        # byte accounting.  Hammer it from many threads and check the
        # books afterwards.
        import threading as _threading

        cache = BlockCache(capacity_bytes=2048)
        errors: list[BaseException] = []
        start = _threading.Barrier(9)

        def reader(worker: int):
            rng = __import__("random").Random(worker)
            try:
                start.wait()
                for i in range(2000):
                    seg = rng.randrange(4)
                    off = rng.randrange(16) * 64
                    block = cache.get_or_load(
                        seg, off, lambda s=seg, o=off: ((s, o), 64))
                    assert block == (seg, off)
                    if i % 500 == 499:
                        cache.drop_segment(rng.randrange(4))
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [_threading.Thread(target=reader, args=(w,))
                   for w in range(8)]
        for t in threads:
            t.start()
        start.wait()
        for t in threads:
            t.join()
        assert errors == []
        with cache._lock:
            assert cache.used_bytes == sum(
                size for _, size in cache._entries.values()
            )
            assert cache.used_bytes <= cache.capacity_bytes
        assert cache.hits + cache.misses == 8 * 2000

    def test_drop_segment_counts_evictions(self):
        cache = BlockCache(capacity_bytes=4096)
        for off in (0, 64, 128):
            cache.get_or_load(7, off, lambda o=off: (o, 32))
        cache.get_or_load(8, 0, lambda: ("other", 32))
        before = cache.evictions
        cache.drop_segment(7)
        assert cache.evictions == before + 3
        assert len(cache) == 1
        assert cache.used_bytes == 32


class TestLsmBackgroundFlush:
    def test_concurrent_reads_during_freezes(self, tmp_path):
        # Readers race commits that freeze + background-flush; every
        # read must return either "not yet written" or the exact value
        # written for that key — never a torn or stale-after-write one.
        import threading as _threading

        kv = LsmKV(str(tmp_path / "db"), memtable_bytes=1024)
        written: dict[bytes, bytes] = {}
        stop = _threading.Event()
        errors: list[BaseException] = []

        def reader(worker: int):
            rng = __import__("random").Random(worker)
            try:
                while not stop.is_set():
                    i = rng.randrange(400)
                    key = b"k%03d" % i
                    value = kv.get(key)
                    expected = written.get(key)
                    assert value is None or value == b"v%03d" % i, (
                        key, value, expected)
            except BaseException as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [_threading.Thread(target=reader, args=(w,))
                   for w in range(4)]
        for t in threads:
            t.start()
        for i in range(400):
            key, value = b"k%03d" % i, b"v%03d" % i
            kv.put(key, value)
            written[key] = value
        stop.set()
        for t in threads:
            t.join()
        assert errors == []
        assert kv.stats.freezes > 0, "threshold never hit; test is vacuous"
        for key, value in written.items():
            assert kv.get(key) == value
        kv.close()

    def test_commits_do_not_wait_for_flush(self, tmp_path, monkeypatch):
        # The tentpole claim: a commit that freezes hands off to the
        # worker and returns while the SSTable seal is still running.
        import threading as _threading

        import repro.storage.lsm.db as db_mod

        real_write = db_mod.write_sstable
        flushing = _threading.Event()
        release = _threading.Event()

        def slow_write(*args, **kwargs):
            flushing.set()
            assert release.wait(timeout=10)
            return real_write(*args, **kwargs)

        monkeypatch.setattr(db_mod, "write_sstable", slow_write)
        kv = LsmKV(str(tmp_path / "db"), memtable_bytes=512)
        for i in range(40):
            kv.put(b"k%02d" % i, b"x" * 64)
            if flushing.wait(timeout=0.02):
                break
        assert flushing.is_set(), "no freeze triggered"
        # The flush is in flight (blocked); commits must still land.
        kv.put(b"during-flush", b"ok")
        assert kv.get(b"during-flush") == b"ok"
        release.set()
        kv.close()
        reopened = LsmKV(str(tmp_path / "db"))
        assert reopened.get(b"during-flush") == b"ok"
        reopened.close()

    def test_background_failure_is_sticky_and_fail_closed(
            self, tmp_path, monkeypatch):
        import repro.storage.lsm.db as db_mod

        def explode(*args, **kwargs):
            raise OSError("disk on fire")

        monkeypatch.setattr(db_mod, "write_sstable", explode)
        kv = LsmKV(str(tmp_path / "db"), memtable_bytes=256)
        with pytest.raises(StorageError, match="background"):
            for i in range(200):
                kv.put(b"k%03d" % i, b"x" * 64)
            kv.flush()  # at the latest, the explicit flush must raise
        # ... and the error is sticky: later commits refuse too.
        with pytest.raises(StorageError, match="background"):
            kv.put(b"after", b"y")


class TestCrashDuringBackgroundFlush:
    def test_crash_races_inflight_flushes_never_loses_commits(
            self, tmp_path):
        # Nondeterministic race on purpose: crash() lands at whatever
        # point the worker happens to be.  Whatever that point was, every
        # committed block batch must survive recovery in full.
        for round_no in range(3):
            directory = str(tmp_path / f"db{round_no}")
            kv = LsmKV(directory, sync=True, memtable_bytes=1024)
            expected: dict[bytes, bytes] = {}
            for block in range(12):
                with kv.block_batch():
                    for i in range(6):
                        key = b"b%02d-%d" % (block, i)
                        value = b"v" * 48
                        kv.put(key, value)
                        expected[key] = value
            kv.crash()
            reopened = LsmKV(directory, sync=True, memtable_bytes=1024)
            for key, value in expected.items():
                assert reopened.get(key) == value, key
            reopened.close()

    def test_crash_while_worker_blocked_recovers_from_wal_generations(
            self, tmp_path, monkeypatch):
        # Deterministic version: freeze happened (WAL rotated), the
        # worker is mid-SSTable-write, and the process dies.  Nothing
        # was published, so recovery must replay BOTH generations —
        # the frozen one and the live one — in order.
        import threading as _threading

        import repro.storage.lsm.db as db_mod

        real_write = db_mod.write_sstable
        flushing = _threading.Event()
        release = _threading.Event()

        def slow_write(*args, **kwargs):
            flushing.set()
            assert release.wait(timeout=10)
            return real_write(*args, **kwargs)

        monkeypatch.setattr(db_mod, "write_sstable", slow_write)
        directory = str(tmp_path / "db")
        kv = LsmKV(directory, sync=True, memtable_bytes=512)
        with kv.block_batch():
            for i in range(20):
                kv.put(b"frozen-%02d" % i, b"x" * 64)
        assert flushing.wait(timeout=10), "no freeze triggered"
        with kv.block_batch():
            kv.put(b"live", b"after-rotation")

        crasher = _threading.Thread(target=kv.crash)
        crasher.start()
        while not kv._crashed:  # crash flags land before the join
            pass
        release.set()  # worker resumes, sees the crash, aborts publish
        crasher.join(timeout=10)
        assert not crasher.is_alive()

        wals = sorted(os.listdir(directory))
        assert [n for n in wals if n.startswith("wal-")] == [
            "wal-00000000.log", "wal-00000001.log"
        ]
        assert not [n for n in wals if n.startswith("seg-")], (
            "aborted flush must not leave a segment file")
        reopened = LsmKV(directory, sync=True)
        for i in range(20):
            assert reopened.get(b"frozen-%02d" % i) == b"x" * 64
        assert reopened.get(b"live") == b"after-rotation"
        assert reopened.stats.wal_recovered_batches == 2
        reopened.close()

    def test_wal_generation_gap_refused(self, tmp_path, monkeypatch):
        import threading as _threading

        import repro.storage.lsm.db as db_mod

        real_write = db_mod.write_sstable
        flushing = _threading.Event()
        release = _threading.Event()

        def slow_write(*args, **kwargs):
            flushing.set()
            assert release.wait(timeout=10)
            return real_write(*args, **kwargs)

        monkeypatch.setattr(db_mod, "write_sstable", slow_write)
        directory = str(tmp_path / "db")
        kv = LsmKV(directory, sync=True, memtable_bytes=512)
        with kv.block_batch():
            for i in range(20):
                kv.put(b"g%02d" % i, b"y" * 64)
        assert flushing.wait(timeout=10)
        crasher = _threading.Thread(target=kv.crash)
        crasher.start()
        while not kv._crashed:
            pass
        release.set()
        crasher.join(timeout=10)
        generations = sorted(
            n for n in os.listdir(directory) if n.startswith("wal-")
        )
        assert len(generations) == 2
        # Deleting the generation the manifest starts at leaves a hole:
        # its records are gone but never made it into a segment.
        os.remove(os.path.join(directory, generations[0]))
        with pytest.raises(StorageError, match="generation gap"):
            LsmKV(directory, sync=True)

    def test_torn_interior_generation_refused(self, tmp_path, monkeypatch):
        import threading as _threading

        import repro.storage.lsm.db as db_mod

        real_write = db_mod.write_sstable
        flushing = _threading.Event()
        release = _threading.Event()

        def slow_write(*args, **kwargs):
            flushing.set()
            assert release.wait(timeout=10)
            return real_write(*args, **kwargs)

        monkeypatch.setattr(db_mod, "write_sstable", slow_write)
        directory = str(tmp_path / "db")
        kv = LsmKV(directory, sync=True, memtable_bytes=512)
        with kv.block_batch():
            for i in range(20):
                kv.put(b"frozen-%02d" % i, b"x" * 64)
        assert flushing.wait(timeout=10)
        with kv.block_batch():
            kv.put(b"live", b"tail")
        crasher = _threading.Thread(target=kv.crash)
        crasher.start()
        while not kv._crashed:
            pass
        release.set()
        crasher.join(timeout=10)
        # Tear the INTERIOR (frozen) generation: a torn tail there means
        # records between the generations went missing — that is data
        # loss, not a crash tail, and recovery must refuse it.
        interior = os.path.join(directory, "wal-00000000.log")
        with open(interior, "r+b") as f:
            f.truncate(os.path.getsize(interior) - 3)
        with pytest.raises(StorageError, match="torn tail"):
            LsmKV(directory, sync=True)


class _WalOs:
    """``os`` as the WAL module sees it, with ``fsync`` replaced."""

    def __init__(self, fsync):
        self.fsync = fsync

    def __getattr__(self, name):
        return getattr(os, name)


class TestDurableBeforeVisible:
    """A committed batch becomes readable only once its WAL record is
    fsynced; a batch whose fsync failed never becomes readable."""

    def test_no_read_while_the_commit_fsync_is_in_flight(
            self, tmp_path, monkeypatch):
        import threading as _threading

        import repro.storage.lsm.wal as wal_mod

        kv = LsmKV(str(tmp_path / "db"), sync=True)
        with kv.block_batch():
            kv.put(b"k", b"block-1")
        syncing = _threading.Event()
        release = _threading.Event()

        def blocked_fsync(fd):
            syncing.set()
            assert release.wait(timeout=10)
            os.fsync(fd)

        monkeypatch.setattr(wal_mod, "os", _WalOs(blocked_fsync))

        def commit_block_2():
            with kv.block_batch():
                kv.put(b"k", b"block-2")

        committer = _threading.Thread(target=commit_block_2)
        committer.start()
        try:
            assert syncing.wait(timeout=10)
            # Block 2 is appended but not durable: readers (who never
            # wait on the fsync) still see block 1.
            assert kv.get(b"k") == b"block-1"
            assert dict(kv.items())[b"k"] == b"block-1"
        finally:
            release.set()
            committer.join(timeout=10)
        assert kv.get(b"k") == b"block-2"
        kv.close()

    def test_open_block_is_invisible_to_other_threads(self, tmp_path):
        # The executing thread reads its own staged writes; a reader on
        # another thread (the gateway's query_state) sees only committed
        # blocks, never one that may still abort.
        import threading as _threading

        kv = LsmKV(str(tmp_path / "db"))
        kv.put(b"k", b"block-1")
        staged = _threading.Event()
        release = _threading.Event()

        def execute_block_2():
            with kv.block_batch():
                kv.put(b"k", b"block-2")
                kv.put(b"new", b"x")
                assert kv.get(b"k") == b"block-2"
                staged.set()
                assert release.wait(timeout=10)

        executor = _threading.Thread(target=execute_block_2)
        executor.start()
        try:
            assert staged.wait(timeout=10)
            assert kv.get(b"k") == b"block-1"
            assert kv.get(b"new") is None
            assert dict(kv.items()) == {b"k": b"block-1"}
        finally:
            release.set()
            executor.join(timeout=10)
        assert not executor.is_alive()
        assert kv.get(b"k") == b"block-2"
        kv.close()

    def test_concurrent_writers_and_flushes_lose_nothing(self, tmp_path):
        # Writers, explicit flushes (WAL rotations) and readers race
        # under a short switch interval.  A rotation landing between a
        # commit's append and its apply would leave the record only in
        # memory once its WAL generation retires; every commit must
        # survive a crash and pay exactly one fsync.
        import sys
        import threading as _threading

        directory = str(tmp_path / "db")
        kv = LsmKV(directory, sync=True, memtable_bytes=2048)
        writers, per_writer = 4, 30
        expected = {
            b"w%d-%02d" % (w, i): b"v" * 40
            for w in range(writers) for i in range(per_writer)
        }
        done = _threading.Event()
        errors: list[BaseException] = []

        def write(worker):
            try:
                for i in range(per_writer):
                    kv.put(b"w%d-%02d" % (worker, i), b"v" * 40)
            except Exception as exc:  # reported below
                errors.append(exc)

        def churn():
            try:
                while not done.is_set():
                    kv.flush()
                    kv.get(b"w0-00")
            except Exception as exc:  # reported below
                errors.append(exc)

        old_interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [_threading.Thread(target=write, args=(w,))
                       for w in range(writers)]
            churner = _threading.Thread(target=churn)
            churner.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            done.set()
            churner.join(timeout=60)
        finally:
            sys.setswitchinterval(old_interval)
        assert not any(t.is_alive() for t in threads + [churner])
        assert errors == []
        snap = kv.stats_snapshot()
        commits = writers * per_writer
        assert snap["wal_records_written"] == commits
        assert snap["freezes"] > 1, "no rotation raced the writers"
        # One per commit, plus each rotation's final fsync.
        assert snap["wal_fsyncs"] == commits + snap["freezes"]
        kv.crash()
        reopened = LsmKV(directory)
        assert dict(reopened.items()) == expected
        reopened.close()

    def test_failed_fsync_is_never_readable_and_fails_closed(
            self, tmp_path, monkeypatch):
        import errno

        import repro.storage.lsm.wal as wal_mod

        kv = LsmKV(str(tmp_path / "db"), sync=True)
        with kv.block_batch():
            kv.put(b"k", b"block-1")

        def failing_fsync(fd):
            raise OSError(errno.EIO, "injected EIO")

        monkeypatch.setattr(wal_mod, "os", _WalOs(failing_fsync))
        with pytest.raises(StorageError, match="fsync"):
            with kv.block_batch():
                kv.put(b"k", b"block-2")
        monkeypatch.undo()
        # Poisoned: later writes refuse even though fsync works again ...
        with pytest.raises(StorageError, match="poisoned"):
            kv.put(b"other", b"x")
        # ... and the batch whose durability was lost is not served.
        assert kv.get(b"k") == b"block-1"
        assert kv.get(b"other") is None
        kv.crash()
