"""Key-value stores backing blockchain state.

Consortium blockchains let operators bring their own KV store (paper §1:
"storage module may be loosely coupled ... to allow users choose their own
KV stores"), so everything above this layer programs against
:class:`KVStore`.  Two implementations ship:

- :class:`MemoryKV` — dict-backed, for tests and in-process nodes.
- :class:`repro.storage.lsm.LsmKV` — the persistent store: a sealed LSM
  engine with a write-ahead log (docs/storage.md).

:class:`KVStore` owns the write path: every store stages a block's
writes and commits them as one batch, so a block means the same thing
on every store (atomic delivery).  A store implements three primitives:
read one committed key, scan the committed state, commit one batch.
"""

from __future__ import annotations

import threading
from abc import ABC, abstractmethod
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Iterable, Iterator

from repro.errors import StorageError


@dataclass
class BlockWrites:
    """The write set of one :meth:`KVStore.block_batch` scope: every key
    the store was asked to put or delete inside it, last write per key
    winning.  Callers write through the store and read ``puts`` /
    ``deletes``; :class:`KVStore` does the staging."""

    puts: dict[bytes, bytes] = field(default_factory=dict)
    deletes: set[bytes] = field(default_factory=set)

    def stage(self, puts: dict[bytes, bytes], deletes: set[bytes]) -> None:
        for key in deletes:
            self.puts.pop(key, None)
            self.deletes.add(key)
        for key, value in puts.items():
            self.deletes.discard(key)
            self.puts[key] = value


@dataclass
class KVStats:
    """Calls into the store's interface, counted the same on every store."""

    gets: int = 0  # get calls
    puts: int = 0  # keys passed to put / write_batch
    block_commits: int = 0  # block_batch scopes committed with writes

    def snapshot(self) -> dict[str, float]:
        return dict(self.__dict__)


class KVStore(ABC):
    """Byte-oriented KV interface with one staging path for every store.

    Rules of an open :meth:`block_batch`:

    - only the thread that opened it sees its staged writes;
    - a write from another thread waits until the block ends (the
      block holds the writer lock), so a block's abort never discards
      a write that returned;
    - an abort discards the block; a clean exit commits it once.
    """

    def __init__(self):
        self.stats = KVStats()
        self._gets_lock = threading.Lock()  # readers count from any thread
        # The one committer: held for a whole block and for each
        # standalone write's commit.
        self._writer_lock = threading.RLock()
        self._block: BlockWrites | None = None
        self._block_owner: int | None = None  # thread that opened it

    # -- the three primitives a store implements ---------------------------

    @abstractmethod
    def _read(self, key: bytes) -> bytes | None:
        """The committed value of key, or None if absent."""

    @abstractmethod
    def _scan(self) -> Iterable[tuple[bytes, bytes]]:
        """A snapshot of every committed (key, value) pair."""

    @abstractmethod
    def _commit(self, puts: dict[bytes, bytes], deletes: set[bytes]) -> None:
        """Commit one batch atomically (the caller holds the writer lock)."""

    # -- the interface ---------------------------------------------------

    def _own_block(self) -> BlockWrites | None:
        """The open block's staged writes, if this thread opened it."""
        if self._block_owner == threading.get_ident():
            return self._block
        return None

    def get(self, key: bytes) -> bytes | None:
        """Return the value for key, or None if absent."""
        key = bytes(key)
        with self._gets_lock:
            self.stats.gets += 1
        block = self._own_block()
        if block is not None:
            if key in block.puts:
                return block.puts[key]
            if key in block.deletes:
                return None
        return self._read(key)

    def put(self, key: bytes, value: bytes) -> None:
        """Insert or overwrite key."""
        self._write({bytes(key): bytes(value)}, set())

    def delete(self, key: bytes) -> None:
        """Remove key if present (no error if absent)."""
        self._write({}, {bytes(key)})

    def write_batch(self, puts: dict[bytes, bytes], deletes: set[bytes] = frozenset()) -> None:
        """Apply a batch of writes atomically."""
        self._write({bytes(k): bytes(v) for k, v in puts.items()},
                    {bytes(k) for k in deletes})

    def _write(self, puts: dict[bytes, bytes], deletes: set[bytes]) -> None:
        """Stage into this thread's open block, or commit as a batch of
        its own once no other thread's block is open."""
        with self._writer_lock:
            self.stats.puts += len(puts)
            block = self._own_block()
            if block is not None:
                block.stage(puts, deletes)
            else:
                self._commit(puts, deletes)

    def items(self) -> Iterator[tuple[bytes, bytes]]:
        """Iterate all (key, value) pairs in unspecified order."""
        committed = self._scan()
        block = self._own_block()
        if block is None:
            return iter(committed)
        merged = dict(committed)
        for key in block.deletes:
            merged.pop(key, None)
        merged.update(block.puts)
        return iter(list(merged.items()))

    def has(self, key: bytes) -> bool:
        return self.get(key) is not None

    def items_with_prefix(self, prefix: bytes) -> Iterator[tuple[bytes, bytes]]:
        for key, value in self.items():
            if key.startswith(prefix):
                yield key, value

    @contextmanager
    def block_batch(self):
        """Scope under which every write belongs to one block commit.

        Yields the scope's :class:`BlockWrites`, which the caller may
        read at any point to learn exactly what the block has written so
        far.  The writes are staged until the scope exits cleanly and
        then committed as one batch (for a store with a write-ahead log,
        one record, so crash recovery lands on a block boundary); on an
        exception nothing is committed.
        """
        if self._own_block() is not None:
            raise StorageError("block_batch does not nest")
        with self._writer_lock:
            writes = self._block = BlockWrites()
            self._block_owner = threading.get_ident()
            try:
                yield writes
            finally:
                self._block = self._block_owner = None
            if writes.puts or writes.deletes:
                self._commit(writes.puts, writes.deletes)
                self.stats.block_commits += 1


class MemoryKV(KVStore):
    """In-memory store."""

    def __init__(self):
        super().__init__()
        self._data: dict[bytes, bytes] = {}
        self._lock = threading.Lock()  # a commit is atomic to readers

    def _read(self, key: bytes) -> bytes | None:
        with self._lock:
            return self._data.get(key)

    def _scan(self) -> list[tuple[bytes, bytes]]:
        with self._lock:
            return list(self._data.items())

    def _commit(self, puts: dict[bytes, bytes], deletes: set[bytes]) -> None:
        with self._lock:
            for key in deletes:
                self._data.pop(key, None)
            self._data.update(puts)

    def __len__(self) -> int:
        return len(self._data)
