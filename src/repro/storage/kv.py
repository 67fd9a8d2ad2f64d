"""Key-value stores backing blockchain state.

Consortium blockchains let operators bring their own KV store (paper §1:
"storage module may be loosely coupled ... to allow users choose their own
KV stores"), so everything above this layer programs against
:class:`KVStore`.  Two implementations ship:

- :class:`MemoryKV` — dict-backed, for tests and in-process nodes.
- :class:`repro.storage.lsm.LsmKV` — the persistent store: a sealed LSM
  engine with a write-ahead log (docs/storage.md).

Stores also support write batches so a block's state delta commits
atomically.
"""

from __future__ import annotations

import functools
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
