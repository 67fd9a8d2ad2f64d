"""Key-value stores backing blockchain state.

Consortium blockchains let operators bring their own KV store (paper §1:
"storage module may be loosely coupled ... to allow users choose their own
KV stores"), so everything above this layer programs against
:class:`KVStore`.  Three implementations ship:

- :class:`MemoryKV` — dict-backed, for tests and in-process nodes.
- :class:`AppendLogKV` — a persistent append-only log with an in-memory
  index; used to measure realistic block-write latencies for §6.4.
- :class:`NamespacedKV` — a prefix view used to give each contract its own
  keyspace.

Stores also support write batches so a block's state delta commits
atomically.
"""

from __future__ import annotations

import functools
import os
import struct
import zlib
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterator

from repro.errors import StorageError


@dataclass
class BlockWrites:
    """The write set of one :meth:`KVStore.block_batch` scope: every key
    the store was asked to put or delete inside it, last write per key
    winning.  Callers write through the store and read ``puts`` /
    ``deletes``; :class:`KVStore` does the recording."""

    puts: dict[bytes, bytes] = field(default_factory=dict)
    deletes: set[bytes] = field(default_factory=set)

    def stage_put(self, key: bytes, value: bytes) -> None:
        self.deletes.discard(key)
        self.puts[bytes(key)] = bytes(value)

    def stage_delete(self, key: bytes) -> None:
        self.puts.pop(key, None)
        self.deletes.add(bytes(key))

    def stage_batch(self, puts: dict[bytes, bytes],
                    deletes: set[bytes] = frozenset()) -> None:
        for key in deletes:
            self.stage_delete(key)
        for key, value in puts.items():
            self.stage_put(key, value)


def _recorded(write, stage):
    """``write``, followed — inside the scope :meth:`KVStore.block_batch`
    opens, and only once the write has succeeded — by ``stage``."""

    @functools.wraps(write)
    def recorded_write(self, *args, **kwargs):
        write(self, *args, **kwargs)
        if self._block_writes is not None:
            stage(self._block_writes, *args, **kwargs)

    return recorded_write


class KVStore(ABC):
    """Minimal byte-oriented KV interface."""

    _block_writes: BlockWrites | None = None  # set while a scope is open

    def __init_subclass__(cls, **kwargs):
        # The recording lives here and nowhere else: whatever ``put`` /
        # ``delete`` / ``write_batch`` a store defines, the scope opened
        # by this class's ``block_batch`` sees its writes, so a store
        # cannot forget to report them.  A store that overrides
        # ``block_batch`` owns its scope and yields its own write set —
        # for LsmKV the staging buffer *is* the write path.
        super().__init_subclass__(**kwargs)
        if "block_batch" in cls.__dict__:
            return
        for name, stage in (("put", BlockWrites.stage_put),
                            ("delete", BlockWrites.stage_delete),
                            ("write_batch", BlockWrites.stage_batch)):
            if name in cls.__dict__:
                setattr(cls, name, _recorded(cls.__dict__[name], stage))

    @abstractmethod
    def get(self, key: bytes) -> bytes | None:
        """Return the value for key, or None if absent."""

    @abstractmethod
    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite key."""

    @abstractmethod
    def delete(self, key: bytes) -> None:
        """Remove key if present (no error if absent)."""

    @abstractmethod
    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all (key, value) pairs in unspecified order."""

    def has(self, key: bytes) -> bool:
        return self.get(key) is not None

    def write_batch(self, puts: dict[bytes, bytes], deletes: set[bytes] = frozenset()) -> None:
        """Apply a batch of writes; default is sequential, subclasses may
        override for atomic/efficient commits."""
        for key in deletes:
            self.delete(key)
        for key, value in puts.items():
            self.put(key, value)

    def items_with_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        for key, value in self.items():
            if key.startswith(prefix):
                yield key, value

    @contextmanager
    def block_batch(self):
        """Scope under which every write belongs to one block commit.

        Yields the scope's :class:`BlockWrites`, which the caller may
        read at any point to learn exactly what the block has written so
        far.  By default writes still apply as they happen and are only
        recorded; stores with a write-ahead log override this to stage
        the scope's writes and commit them as a single atomic record, so
        crash recovery always lands on a block boundary.
        """
        if self._block_writes is not None:
            raise StorageError("block_batch does not nest")
        writes = self._block_writes = BlockWrites()
        try:
            yield writes
        finally:
            self._block_writes = None


class MemoryKV(KVStore):
    """In-memory store."""

    def __init__(self):
        self._data: dict[bytes, bytes] = {}

    def get(self, key: bytes) -> bytes | None:
        return self._data.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        self._data[bytes(key)] = bytes(value)

    def delete(self, key: bytes) -> None:
        self._data.pop(key, None)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return iter(list(self._data.items()))

    def __len__(self) -> int:
        return len(self._data)

    def snapshot(self) -> dict[bytes, bytes]:
        return dict(self._data)


_RECORD_HEADER = struct.Struct(">IBII")  # crc32, op, key len, value len
_OP_PUT = 1
_OP_DELETE = 2
_MAX_LOG_FIELD = 1 << 28  # sanity bound for lengths read from a torn tail


class AppendLogKV(KVStore):
    """Durable append-only log store with an in-memory index.

    Records are ``(crc32, op, klen, vlen, key, value)`` where the CRC
    covers everything after itself; the full log is replayed on open.  A
    torn tail (record cut short by a crash, or failing its CRC) is
    truncated back to the last complete record rather than refusing to
    open — the prefix before it is intact and usable.  ``sync=True``
    fsyncs on every batch commit, which is what the §6.4
    block-write-latency bench measures.
    """

    def __init__(self, path: str, sync: bool = False):
        self._path = path
        self._sync = sync
        self._index: dict[bytes, bytes] = {}
        self._file = None
        self.truncated_bytes = 0
        if os.path.exists(path):
            self._replay()
        self._file = open(path, "ab")

    def _replay(self) -> None:
        with open(self._path, "rb") as f:
            data = f.read()
        pos = 0
        good_end = 0
        while pos < len(data):
            header = data[pos:pos + _RECORD_HEADER.size]
            if len(header) < _RECORD_HEADER.size:
                break  # torn header
            crc, op, klen, vlen = _RECORD_HEADER.unpack(header)
            if klen > _MAX_LOG_FIELD or vlen > _MAX_LOG_FIELD:
                break  # garbage lengths from a torn record
            body = data[pos + _RECORD_HEADER.size:
                        pos + _RECORD_HEADER.size + klen + vlen]
            if len(body) < klen + vlen:
                break  # torn body
            if zlib.crc32(header[4:] + body) != crc:
                break  # torn or bit-rotted record
            key, value = body[:klen], body[klen:]
            if op == _OP_PUT:
                self._index[key] = value
            elif op == _OP_DELETE:
                self._index.pop(key, None)
            else:
                break  # unknown op: treat as corruption, keep the prefix
            pos += _RECORD_HEADER.size + klen + vlen
            good_end = pos
        if good_end < len(data):
            self.truncated_bytes = len(data) - good_end
            with open(self._path, "r+b") as f:
                f.truncate(good_end)

    @staticmethod
    def _record(op: int, key: bytes, value: bytes) -> bytes:
        tail = struct.pack(">BII", op, len(key), len(value)) + key + value
        return struct.pack(">I", zlib.crc32(tail)) + tail

    def _append(self, op: int, key: bytes, value: bytes) -> None:
        if self._file is None:
            raise StorageError("store is closed")
        self._file.write(self._record(op, key, value))

    def get(self, key: bytes) -> bytes | None:
        return self._index.get(key)

    def put(self, key: bytes, value: bytes) -> None:
        key, value = bytes(key), bytes(value)
        self._append(_OP_PUT, key, value)
        self._flush()
        self._index[key] = value

    def delete(self, key: bytes) -> None:
        if key in self._index:
            self._append(_OP_DELETE, key, b"")
            self._flush()
            del self._index[key]

    def write_batch(self, puts: dict[bytes, bytes], deletes: set[bytes] = frozenset()) -> None:
        # Build the whole batch first and touch the index only after the
        # flush succeeds, so a write error cannot leave the in-memory
        # view ahead of the durable log.
        records = []
        for key in deletes:
            if key in self._index:
                records.append((_OP_DELETE, bytes(key), b""))
        staged = {bytes(k): bytes(v) for k, v in puts.items()}
        records.extend((_OP_PUT, k, v) for k, v in staged.items())
        for op, key, value in records:
            self._append(op, key, value)
        self._flush()
        for key in deletes:
            self._index.pop(key, None)
        self._index.update(staged)

    def _flush(self) -> None:
        assert self._file is not None
        self._file.flush()
        if self._sync:
            os.fsync(self._file.fileno())

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        return iter(list(self._index.items()))

    def close(self) -> None:
        if self._file is not None:
            self._file.close()
            self._file = None

    def __enter__(self) -> "AppendLogKV":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __len__(self) -> int:
        return len(self._index)


class NamespacedKV(KVStore):
    """A prefixed view over another store (per-contract keyspaces)."""

    def __init__(self, inner: KVStore, namespace: bytes):
        self._inner = inner
        self._prefix = bytes(namespace) + b"\x00"

    def _wrap(self, key: bytes) -> bytes:
        return self._prefix + key

    def get(self, key: bytes) -> bytes | None:
        return self._inner.get(self._wrap(key))

    def put(self, key: bytes, value: bytes) -> None:
        self._inner.put(self._wrap(key), value)

    def delete(self, key: bytes) -> None:
        self._inner.delete(self._wrap(key))

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        plen = len(self._prefix)
        for key, value in self._inner.items_with_prefix(self._prefix):
            yield key[plen:], value

    def block_batch(self):
        """The inner store's scope: its write set carries full keys."""
        return self._inner.block_batch()
