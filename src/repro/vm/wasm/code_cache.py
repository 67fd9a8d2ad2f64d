"""Contract code cache (part of OPT1).

Without the cache, every transaction that touches a contract pays to
fetch the LEB128 module blob from storage, decode it, validate it,
(when OPT4 is on) run fusion, and translate every function it calls.
CONFIDE-VM "introduces a code cache mechanism" (§6.4) holding the fully
prepared code keyed by code hash: here one
:class:`~repro.vm.wasm.interpreter.ModuleTemplate` per hash, whose
functions are translated on first call and kept, so repeated executions
of hot contracts skip all of that.  Identical function bodies across
the cached modules share one translation.

The cache is bounded (LRU) because prepared modules live in enclave
memory, which is EPC-constrained.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.hashes import sha256
from repro.vm.wasm.interpreter import BodyTable, ModuleTemplate
from repro.vm.wasm.module import Module, decode_module, validate_module
from repro.vm.wasm.optimizer import fuse_module


@dataclass
class CacheStats:
    """A cache's counts: plain numbers, safe to hand to the host."""

    hits: int = 0
    misses: int = 0
    evictions: int = 0
    entries: int = 0


class CodeCache:
    """LRU cache of module templates, keyed by code hash."""

    def __init__(self, capacity: int = 64, fuse: bool = True,
                 stats: CacheStats | None = None):
        self.capacity = capacity
        self.fuse = fuse
        self.stats = stats if stats is not None else CacheStats()
        self._bodies = BodyTable()
        self._entries: OrderedDict[bytes, ModuleTemplate] = OrderedDict()
        # Gateway query threads execute calls beside the block producer;
        # the LRU reorder + insert + evict sequence must be atomic or
        # the OrderedDict corrupts.
        self._lock = threading.Lock()

    def prepare(self, blob: bytes, code_hash: bytes | None = None) -> ModuleTemplate:
        """Return the template for the code blob (``code_hash`` is its
        SHA-256 when the caller already has it)."""
        key = sha256(blob) if code_hash is None else code_hash
        with self._lock:
            cached = self._entries.get(key)
            if cached is not None:
                self.stats.hits += 1
                self._entries.move_to_end(key)
                return cached
            self.stats.misses += 1
        # Decode/validate/fuse outside the lock: it is pure and by far
        # the expensive part; a racing double-prepare just wastes one
        # preparation, it cannot corrupt the cache.
        template = ModuleTemplate(prepare_module(blob, fuse=self.fuse), self._bodies)
        with self._lock:
            if key not in self._entries:
                self._entries[key] = template
                if len(self._entries) > self.capacity:
                    self._entries.popitem(last=False)
                    self.stats.evictions += 1
                self.stats.entries = len(self._entries)
        return template

    def __len__(self) -> int:
        return len(self._entries)


def prepare_module(blob: bytes, fuse: bool = True) -> Module:
    """Uncached preparation pipeline: decode, validate, optionally fuse."""
    module = decode_module(blob)
    validate_module(module)
    if fuse:
        module = fuse_module(module)
    return module
