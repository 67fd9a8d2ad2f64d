"""LRU block cache over decoded SSTable blocks.

Keys are ``(segment_id, block_offset)``; values are the decoded entry
lists, so a cache hit skips the disk read, the unseal *and* the RLP
decode.  The budget is expressed in (approximate plaintext) bytes, the
same way RocksDB's block cache is sized.

The cache is shared by every :class:`SSTableReader` of a store and is
hit concurrently — the serve gateway's request pool and the LSM
background flush/compaction worker — so all
LRU mutation happens under one lock.  Loads run outside the lock (an
unseal is milliseconds; serializing it would make the cache a reader
bottleneck), which means two racing readers may both load the same
block; the second insert simply wins, costing a duplicate load but
never corrupting accounting.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable


class BlockCache:
    """Byte-budgeted LRU of decoded blocks, shared by all segments."""

    def __init__(self, capacity_bytes: int = 1 << 20):
        self.capacity_bytes = capacity_bytes
        self._entries: OrderedDict[tuple[int, int], tuple[object, int]] = (
            OrderedDict()
        )
        self._lock = threading.Lock()
        self._used = 0
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def get_or_load(
        self, segment_id: int, offset: int,
        loader: Callable[[], tuple[object, int]],
    ):
        """Return the cached block, or load/insert it.  ``loader`` returns
        ``(block, approximate_bytes)``."""
        key = (segment_id, offset)
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.hits += 1
                self._entries.move_to_end(key)
                return cached[0]
            self.misses += 1
        block, size = loader()
        with self._lock:
            previous = self._entries.pop(key, None)
            if previous is not None:
                self._used -= previous[1]
            self._entries[key] = (block, size)
            self._used += size
            while self._used > self.capacity_bytes and len(self._entries) > 1:
                _, (_, evicted_size) = self._entries.popitem(last=False)
                self._used -= evicted_size
                self.evictions += 1
        return block

    def drop_segment(self, segment_id: int) -> None:
        """Invalidate every block of a compacted-away segment."""
        with self._lock:
            stale = [key for key in self._entries if key[0] == segment_id]
            for key in stale:
                _, size = self._entries.pop(key)
                self._used -= size
                self.evictions += 1

    @property
    def used_bytes(self) -> int:
        return self._used

    def __len__(self) -> int:
        return len(self._entries)

    def hit_rate(self) -> float:
        total = self.hits + self.misses
        return self.hits / total if total else 0.0
