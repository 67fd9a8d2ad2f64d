"""Checksummed write-ahead log with atomic batch framing.

Every committed batch (a block's worth of puts/deletes, or a single
standalone write) becomes exactly one WAL record::

    [crc32 u32][length u32][payload]

``crc32`` covers the length field and the payload, so a torn write —
the tail of the file cut mid-record by a crash — is detected and the
file is truncated back to the last complete record on open.  Either a
whole batch is recovered or none of it is; a reader can never observe
half a block.

The payload is an RLP list ``[[op, key, value], ...]`` (op ``\\x01`` put,
``\\x02`` delete), optionally sealed: with a :class:`StorageSealer` the
record payload on disk is AES-GCM ciphertext whose AAD binds the WAL
sequence number *and the record's index within the generation*, so
records can neither be spliced between log generations nor reordered,
duplicated, or dropped within one — recovery opens record *i* under
index *i*, and any displaced record fails authentication.

A CRC/short-read failure at the tail is *torn-write tolerance*
(truncate and continue); a record whose CRC verifies but whose seal does
not open is *tampering* and raises :class:`StorageError`.

Durability
----------
:meth:`WriteAheadLog.append` writes and flushes one record under the
log's I/O lock; :meth:`WriteAheadLog.sync` fsyncs under that same lock,
so :meth:`WriteAheadLog.close` can never close the fd in the middle of
an fsync.  A store has exactly one committer, so each commit pays one
fsync.  A failed fsync is sticky: the log is poisoned and every later
append/sync fails closed, because a record whose durability was
reported lost can never be un-reported (the PostgreSQL fsync-retry
lesson).
"""

from __future__ import annotations

import os
import struct
import threading
import zlib

from repro.errors import StorageError
from repro.storage import rlp
from repro.storage.lsm.seal import StorageSealer

_FRAME = struct.Struct(">II")  # crc32, payload length
OP_PUT = b"\x01"
OP_DELETE = b"\x02"

_MAX_RECORD = 1 << 28  # 256 MB sanity bound on one batch


def fsync_dir(directory: str) -> None:
    """Flush a directory entry (new file / rename) to stable storage."""
    fd = os.open(directory or ".", os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _encode_batch(puts: dict[bytes, bytes], deletes) -> bytes:
    items: list[list[bytes]] = []
    for key in sorted(deletes):
        items.append([OP_DELETE, bytes(key), b""])
    for key, value in puts.items():
        items.append([OP_PUT, bytes(key), bytes(value)])
    return rlp.encode(items)


def _decode_batch(payload: bytes) -> tuple[dict[bytes, bytes], set[bytes]]:
    items = rlp.decode(payload)
    if not isinstance(items, list):
        raise StorageError("WAL batch payload is not a list")
    puts: dict[bytes, bytes] = {}
    deletes: set[bytes] = set()
    for item in items:
        if not isinstance(item, list) or len(item) != 3:
            raise StorageError("malformed WAL batch entry")
        op, key, value = item
        if op == OP_PUT:
            puts[key] = value
        elif op == OP_DELETE:
            deletes.add(key)
        else:
            raise StorageError(f"unknown WAL op {op!r}")
    return puts, deletes


class WriteAheadLog:
    """One WAL generation (``wal-<seq>.log``)."""

    def __init__(
        self,
        path: str,
        seq: int = 0,
        sync: bool = False,
        sealer: StorageSealer | None = None,
        read_only: bool = False,
    ):
        self.path = path
        self.seq = seq
        self._sync = sync
        self._sealer = sealer
        self._read_only = read_only
        self.bytes_written = 0
        self.records_written = 0
        self.truncated_bytes = 0
        self.fsyncs = 0
        self.recovered: list[tuple[dict[bytes, bytes], set[bytes]]] = []
        self._io_lock = threading.Lock()
        self._sync_error: BaseException | None = None
        existed = os.path.exists(path)
        if existed:
            self._recover()
        # Appends continue the per-generation record index where the
        # recovered (post-truncation) prefix left off.
        self._next_index = len(self.recovered)
        if read_only:
            self._file = None
        else:
            self._file = open(path, "ab")
            if sync and not existed:
                fsync_dir(os.path.dirname(path))

    def _context(self, index: int) -> bytes:
        return (b"wal:" + self.seq.to_bytes(8, "big")
                + b":" + index.to_bytes(8, "big"))

    def _recover(self) -> None:
        """Replay complete records; truncate a torn tail in place
        (unless the log was opened ``read_only``)."""
        good_end = 0
        with open(self.path, "rb") as f:
            data = f.read()
        pos = 0
        while pos < len(data):
            frame = data[pos:pos + _FRAME.size]
            if len(frame) < _FRAME.size:
                break  # torn frame header
            crc, length = _FRAME.unpack(frame)
            if length > _MAX_RECORD:
                break  # garbage length from a torn/overwritten frame
            payload = data[pos + _FRAME.size:pos + _FRAME.size + length]
            if len(payload) < length:
                break  # torn payload
            if zlib.crc32(frame[4:] + payload) != crc:
                break  # torn or bit-rotted tail record
            if self._sealer is not None:
                # CRC says the record is complete; a seal that will not
                # open is tampering, not a torn write.  The AAD index
                # also makes reordered/dropped/duplicated interior
                # records fail here.
                payload = self._sealer.open(
                    payload, self._context(len(self.recovered))
                )
            self.recovered.append(_decode_batch(payload))
            pos += _FRAME.size + length
            good_end = pos
        if good_end < len(data):
            self.truncated_bytes = len(data) - good_end
            if not self._read_only:
                with open(self.path, "r+b") as f:
                    f.truncate(good_end)

    def append(self, puts: dict[bytes, bytes], deletes=frozenset()) -> int:
        """Write + flush one batch (durable only after :meth:`sync`);
        returns bytes appended."""
        with self._io_lock:
            self._require_writable()
            payload = _encode_batch(puts, deletes)
            if self._sealer is not None:
                payload = self._sealer.seal(
                    payload, self._context(self._next_index)
                )
            frame = _FRAME.pack(
                zlib.crc32(struct.pack(">I", len(payload)) + payload),
                len(payload),
            )
            record = frame + payload
            self._file.write(record)
            self._file.flush()
            self.bytes_written += len(record)
            self.records_written += 1
            self._next_index += 1
            return len(record)

    def sync(self) -> None:
        """Make every appended record durable (no-op unless ``sync``)."""
        if not self._sync:
            return
        with self._io_lock:
            self._require_writable()
            self._fsync_locked()

    def _require_writable(self) -> None:
        if self._file is None:
            raise StorageError(
                "WAL is read-only" if self._read_only else "WAL is closed"
            )
        if self._sync_error is not None:
            raise StorageError(
                f"WAL poisoned by earlier fsync failure: {self._sync_error}"
            )

    def _fsync_locked(self) -> None:
        try:
            os.fsync(self._file.fileno())
        except OSError as exc:
            self._sync_error = exc
            raise StorageError(f"WAL fsync failed: {exc}") from exc
        self.fsyncs += 1

    def close(self) -> None:
        """Close the log; with ``sync``, a final fsync makes every
        appended record durable first (so rotation at memtable freeze
        never strands an un-synced commit)."""
        with self._io_lock:
            if self._file is None:
                return
            try:
                if self._sync and self._sync_error is None:
                    self._fsync_locked()
            finally:
                self._file.close()
                self._file = None

    def crash(self) -> None:
        """Drop the handle without any shutdown work (simulated crash)."""
        with self._io_lock:
            if self._file is not None:
                self._file.close()
                self._file = None
            if self._sync_error is None:
                self._sync_error = StorageError("WAL crashed")

    def __enter__(self) -> "WriteAheadLog":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def replay_file(
    path: str, seq: int = 0, sealer: StorageSealer | None = None
) -> list[tuple[dict[bytes, bytes], set[bytes]]]:
    """Recover a WAL file read-only (used by ``repro db verify``):
    a torn tail is skipped, not truncated, and the file is never opened
    for writing, so verifying a live WAL cannot mutate it."""
    wal = WriteAheadLog(path, seq=seq, sealer=sealer, read_only=True)
    return list(wal.recovered)
