"""Size-tiered compaction.

Segment **recency is manifest order**, not segment id: a flush appends
the newest segment at the end of the manifest list, and a compaction
replaces a contiguous run of segments with its merge *in place*, so the
list stays sorted oldest-to-newest even though merge outputs carry
fresh (high) segment ids.  Reads and merges must therefore rank
segments by manifest position — ranking by id would let a merge output
shadow newer unmerged segments.

Segments are bucketed by size tier (powers of ``tier_base`` over the
flush size); when a tier accumulates ``fanin`` *age-contiguous*
segments they are merged into one, newest version per key winning.
Contiguity is required for correctness: merging around an interleaved
segment from another tier would fold values older and newer than it
into one output, destroying the age ordering the read path relies on.
Tombstones are dropped only when the run starts at the oldest live
segment (nothing older can hold a value the tombstone still needs to
shadow).

Compaction runs piggybacked on flushes, on the thread that commits —
there is no background thread, so which files exist after a commit is a
function of the commits, and the store stays deterministic for the
fault simulator.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass

from repro.storage.lsm.manifest import SegmentRecord


@dataclass(frozen=True)
class CompactionPlan:
    """Which segments to merge, where the merge output lands in the
    manifest order, and whether tombstones may drop."""

    segment_ids: tuple[int, ...]
    position: int  # manifest index of the oldest merged segment
    drop_tombstones: bool


def _tier(size: int, flush_bytes: int, tier_base: int) -> int:
    tier = 0
    threshold = max(flush_bytes, 1)
    while size > threshold:
        tier += 1
        threshold *= tier_base
    return tier


def plan_compaction(
    segments: list[SegmentRecord],
    flush_bytes: int,
    fanin: int = 4,
    tier_base: int = 4,
) -> CompactionPlan | None:
    """Pick the oldest ``fanin`` segments of the lowest overfull
    age-contiguous same-tier run (lowest tier first, so small merges
    happen before they cascade).

    ``segments`` must be in manifest (oldest-to-newest) order.
    """
    if len(segments) < fanin:
        return None
    tiers = [_tier(s.size, flush_bytes, tier_base) for s in segments]
    # Maximal runs of adjacent same-tier segments: (tier, start, length).
    runs: list[tuple[int, int, int]] = []
    start = 0
    for i in range(1, len(segments) + 1):
        if i == len(segments) or tiers[i] != tiers[start]:
            runs.append((tiers[start], start, i - start))
            start = i
    candidates = [run for run in runs if run[2] >= fanin]
    if not candidates:
        return None
    _, start, _ = min(candidates)  # lowest tier, then oldest run
    chosen = segments[start:start + fanin]
    return CompactionPlan(
        segment_ids=tuple(s.segment_id for s in chosen),
        position=start,
        # Only the oldest-prefix run has nothing older to shadow.
        drop_tombstones=start == 0,
    )


def merge_entries(readers, drop_tombstones: bool):
    """K-way merge of sorted segment iterators, newest segment winning.

    ``readers`` are (recency_rank, iterator-of-(key, value_or_None))
    where a higher rank means a newer segment — the caller passes
    manifest positions, since segment ids do not track age across
    compactions.  The output is strictly sorted and ready for
    :func:`write_sstable`.
    """
    counter = itertools.count()  # heap tiebreaker; values never compare
    heap: list[tuple[bytes, int, int, bytes | None, object]] = []

    def push(neg_rank: int, iterator) -> None:
        for key, value in iterator:
            heapq.heappush(heap, (key, neg_rank, next(counter), value, iterator))
            return

    for rank, iterator in readers:
        # Higher rank == newer; negated so the newest version of a key
        # pops first.
        push(-rank, iter(iterator))
    while heap:
        key, neg_rank, _, value, iterator = heapq.heappop(heap)
        # Discard every older version of the same key, advancing the
        # iterators they came from.
        while heap and heap[0][0] == key:
            _, stale_neg_rank, _, _, stale_iter = heapq.heappop(heap)
            push(stale_neg_rank, stale_iter)
        if not (value is None and drop_tombstones):
            yield key, value
        push(neg_rank, iterator)
