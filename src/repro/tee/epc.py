"""Enclave Page Cache (EPC) simulator.

SGX v1 exposes 128 MB of protected physical memory of which only about
93.5 MB is usable by enclaves (paper §5.3, citing SCONE and SPEICHER).
Memory demand beyond that triggers page swapping: a victim page is
encrypted and evicted to untrusted memory, and decrypted back on access.

The pager models exactly this: enclave allocations reserve 4 KB pages from
a fixed budget; when the budget is exceeded, least-recently-used resident
pages are evicted (each swap charged to the :class:`CycleAccountant`),
and touching an evicted allocation pages it back in.

A freelist-backed :class:`MemoryPool` mode models the paper's OPT1
"efficient memory management": pooled allocations reuse freed pages,
avoiding both fragmentation growth and per-allocation overhead.

Allocations can optionally carry *content* (:meth:`EpcAllocator.store_bytes`
/ :meth:`EpcAllocator.read_bytes`).  Content follows SGX paging
semantics: while the allocation is resident the plaintext lives inside
the protected region; on eviction it is AES-GCM-encrypted under a
per-allocator swap key and only the ciphertext sits in untrusted memory
(:meth:`EpcAllocator.evicted_blob` is the attacker's view of it); paging
back in decrypts and destroys the untrusted copy.  The fault-injection
simulator's confidentiality invariant byte-scans those evicted blobs.

Page accounting convention: ``resident_pages`` counts every page backed
by an EPC frame — live allocations *and* pages parked on the OPT1
freelist (they hold real frames until reclaimed).  ``_make_room``
reclaims freelist frames before evicting anyone, and keeps both counters
in step so ``resident_pages`` can never exceed ``budget_pages``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from dataclasses import dataclass

from repro.crypto.entropy import token_bytes
from repro.errors import PagingError
from repro.obs.trace import get_tracer
from repro.tee.transitions import CycleAccountant

PAGE_SIZE = 4096
EPC_TOTAL_BYTES = 128 * 1024 * 1024
EPC_USABLE_BYTES = int(93.5 * 1024 * 1024)

# Without a pool, allocator metadata and fragmentation inflate the real
# footprint of each allocation (paper §5.3: the memory pool exists "to
# reduce fragmentation and improve memory utilization").
_FRAGMENTATION_FACTOR = 1.35


@dataclass
class _Allocation:
    handle: int
    pages: int
    resident: bool


class EpcAllocator:
    """Page-granular allocator with LRU eviction over a fixed EPC budget."""

    def __init__(
        self,
        accountant: CycleAccountant,
        budget_bytes: int = EPC_USABLE_BYTES,
        use_pool: bool = False,
    ):
        self._accountant = accountant
        self._budget_pages = budget_bytes // PAGE_SIZE
        self._use_pool = use_pool
        self._allocs: OrderedDict[int, _Allocation] = OrderedDict()  # LRU order
        self._next_handle = 1
        self._resident_pages = 0
        self._pool_pages_free = 0
        # Page-content model: plaintext only while resident; ciphertext
        # (the untrusted-memory copy) only while evicted.
        self._resident_bytes: dict[int, bytes] = {}
        self._evicted_bytes: dict[int, bytes] = {}
        self._swap_key = token_bytes(16)
        # One allocator serves every enclave on the platform, from any
        # thread that enters one: the LRU list, the freelist and the
        # page counters move together under a lock (reentrant — touch()
        # runs inside store/read).
        self._lock = threading.RLock()

    @property
    def use_pool(self) -> bool:
        return self._use_pool

    @use_pool.setter
    def use_pool(self, enabled: bool) -> None:
        self._use_pool = enabled

    @property
    def resident_pages(self) -> int:
        return self._resident_pages

    @property
    def budget_pages(self) -> int:
        return self._budget_pages

    @property
    def pool_pages_free(self) -> int:
        """Pages parked on the OPT1 freelist (0 when the pool is off)."""
        return self._pool_pages_free

    def allocate(self, size_bytes: int) -> int:
        """Reserve pages for `size_bytes`; returns an allocation handle."""
        with self._lock:
            if size_bytes <= 0:
                raise PagingError("allocation size must be positive")
            effective = size_bytes if self._use_pool else int(size_bytes * _FRAGMENTATION_FACTOR)
            pages = max(1, (effective + PAGE_SIZE - 1) // PAGE_SIZE)
            if pages > self._budget_pages:
                raise PagingError(
                    f"allocation of {pages} pages exceeds the whole EPC budget "
                    f"of {self._budget_pages} pages"
                )
            self._accountant.charge_alloc(pooled=self._use_pool)
            if self._use_pool and self._pool_pages_free >= pages:
                # Freelist hit: pages are already resident, no paging pressure.
                self._pool_pages_free -= pages
            else:
                if self._use_pool:
                    pages_needed = pages - self._pool_pages_free
                    self._pool_pages_free = 0
                else:
                    pages_needed = pages
                self._make_room(pages_needed)
                self._resident_pages += pages_needed
            handle = self._next_handle
            self._next_handle += 1
            self._allocs[handle] = _Allocation(handle, pages, resident=True)
            return handle

    def free(self, handle: int) -> None:
        """Release an allocation (pooled pages go back to the freelist)."""
        with self._lock:
            alloc = self._allocs.pop(handle, None)
            if alloc is None:
                raise PagingError(f"unknown allocation handle {handle}")
            self._resident_bytes.pop(handle, None)
            self._evicted_bytes.pop(handle, None)
            if not alloc.resident:
                return  # evicted allocations hold no EPC frames
            if self._use_pool:
                self._pool_pages_free += alloc.pages
            else:
                self._resident_pages -= alloc.pages

    def touch(self, handle: int) -> None:
        """Access an allocation; pages it back in if it was evicted."""
        with self._lock:
            alloc = self._allocs.get(handle)
            if alloc is None:
                raise PagingError(f"unknown allocation handle {handle}")
            self._allocs.move_to_end(handle)
            if not alloc.resident:
                self._make_room(alloc.pages)
                self._accountant.charge_page_swaps(alloc.pages)  # page-in decrypt
                get_tracer().instant("epc.page_swap", pages=alloc.pages,
                                     direction="in")
                self._resident_pages += alloc.pages
                alloc.resident = True
                blob = self._evicted_bytes.pop(handle, None)
                if blob is not None:
                    self._resident_bytes[handle] = self._swap_open(handle, blob)

    # -- page content -------------------------------------------------------

    def store_bytes(self, handle: int, data: bytes) -> None:
        """Attach content to an allocation (pages it in if needed)."""
        with self._lock:
            self.touch(handle)
            self._resident_bytes[handle] = bytes(data)

    def read_bytes(self, handle: int) -> bytes:
        """Read an allocation's content back (pages it in if needed)."""
        with self._lock:
            self.touch(handle)
            return self._resident_bytes.get(handle, b"")

    def evicted_blob(self, handle: int) -> bytes | None:
        """The untrusted-memory copy of an evicted allocation's content
        (always ciphertext), or None while the allocation is resident."""
        with self._lock:
            if handle not in self._allocs:
                raise PagingError(f"unknown allocation handle {handle}")
            return self._evicted_bytes.get(handle)

    def evicted_blobs(self) -> dict[int, bytes]:
        """All untrusted-memory page copies, by handle — the complete
        attacker-visible view of swapped-out enclave memory.  The
        simulator's confidentiality invariant byte-scans these."""
        with self._lock:
            return dict(self._evicted_bytes)

    def _swap_gcm(self):
        from repro.crypto.gcm import for_key

        return for_key(self._swap_key)

    def _swap_seal(self, handle: int, plaintext: bytes) -> bytes:
        from repro.crypto.gcm import deterministic_nonce

        aad = b"epc-page:" + handle.to_bytes(8, "big")
        nonce = deterministic_nonce(self._swap_key, plaintext, aad)
        return nonce + self._swap_gcm().seal(nonce, plaintext, aad)

    def _swap_open(self, handle: int, blob: bytes) -> bytes:
        from repro.crypto.gcm import NONCE_SIZE

        aad = b"epc-page:" + handle.to_bytes(8, "big")
        nonce, body = blob[:NONCE_SIZE], blob[NONCE_SIZE:]
        return self._swap_gcm().open(nonce, body, aad)

    # -- paging -------------------------------------------------------------

    def _make_room(self, pages_needed: int) -> None:
        if pages_needed <= 0:
            return
        # resident_pages already counts freelist pages, so free frames are
        # simply budget - resident (subtracting the freelist again would
        # double-count it and report spurious exhaustion).
        free_now = self._budget_pages - self._resident_pages
        if self._use_pool and free_now < pages_needed and self._pool_pages_free:
            # Reclaim freelist frames before evicting anyone else's pages.
            reclaim = min(self._pool_pages_free, pages_needed - free_now)
            self._pool_pages_free -= reclaim
            self._resident_pages -= reclaim
            free_now += reclaim
        while free_now < pages_needed:
            victim = self._find_victim()
            if victim is None:
                raise PagingError("EPC exhausted and nothing evictable")
            victim.resident = False
            self._resident_pages -= victim.pages
            self._accountant.charge_page_swaps(victim.pages)  # encrypt + evict
            get_tracer().instant("epc.page_swap", pages=victim.pages,
                                 direction="out")
            plaintext = self._resident_bytes.pop(victim.handle, None)
            if plaintext is not None:
                self._evicted_bytes[victim.handle] = self._swap_seal(
                    victim.handle, plaintext
                )
            free_now += victim.pages

    def _find_victim(self) -> _Allocation | None:
        for alloc in self._allocs.values():  # OrderedDict: LRU first
            if alloc.resident:
                return alloc
        return None


class MemoryPool:
    """Convenience wrapper configuring an allocator in pooled (OPT1) mode."""

    def __init__(self, accountant: CycleAccountant, budget_bytes: int = EPC_USABLE_BYTES):
        self.allocator = EpcAllocator(accountant, budget_bytes, use_pool=True)

    def allocate(self, size_bytes: int) -> int:
        return self.allocator.allocate(size_bytes)

    def free(self, handle: int) -> None:
        self.allocator.free(handle)
