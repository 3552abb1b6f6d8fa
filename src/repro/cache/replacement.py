"""Cache replacement policies: LRU and FIFO.

The paper uses LRU for the SRAM bank and set-associative baselines, and FIFO
for the fully-associative STT-MRAM bank because "the circuit complexity of
LRU is not affordable in a full-associative cache" (Section V).  Both are
stamp-ordered: each way carries the logical time it was last stamped, and
the victim is the eligible way with the oldest stamp.  They differ only in
whether a hit restamps.

The :class:`~repro.cache.tag_array.TagArray` drives a policy through:

* ``on_fill(set_idx, way)``   -- a block was installed into a way,
* ``on_access(set_idx, way)`` -- a block was hit,
* ``on_reserve(set_idx, way)`` -- a way's fill went in flight,
* ``select_victim_all(set_idx)`` / ``select_victim_scan(set_idx, lines)``
  -- choose a way to evict from a full set, with no reservation pending
  or skipping the reserved ways.
"""

from __future__ import annotations

from heapq import heapify, heappop, heappush
from typing import Optional, Sequence

__all__ = [
    "FIFOPolicy", "LRUPolicy",
]

#: associativity at which the policies switch from a linear minimum scan
#: to a lazily-invalidated min-heap for whole-set victim selection (the
#: 256-way FA-SRAM and 512-way approximated-FA STT banks are the targets;
#: tiny 2/4-way sets scan faster than they heap)
_HEAP_ASSOC_THRESHOLD = 16


class _StampedPolicy:
    """Shared machinery of the stamp-ordered policies.

    Stamps are unique and monotonically increasing, so "the way with the
    minimum stamp" is a deterministic victim.  For wide sets a per-set
    min-heap of ``(stamp, way)`` entries answers victim selection in
    O(log n): entries are pushed on every (re)stamp and invalidated
    lazily -- an entry is stale exactly when the way has been restamped
    since it was pushed.
    """

    def __init__(self, num_sets: int, assoc: int) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must both be >= 1")
        self.num_sets = num_sets
        self.assoc = assoc
        self._tick = 0
        self._stamps = [[-1] * assoc for _ in range(num_sets)]
        self._use_heap = assoc >= _HEAP_ASSOC_THRESHOLD
        self._heaps = (
            [[] for _ in range(num_sets)] if self._use_heap else None
        )

    def _stamp(self, set_idx: int, way: int) -> None:
        self._tick += 1
        self._stamps[set_idx][way] = self._tick
        if self._use_heap:
            heap = self._heaps[set_idx]
            heappush(heap, (self._tick, way))
            # Stale entries are normally dropped during victim selection,
            # but hit-dominated phases (LRU restamps on every access and
            # a high-hit-rate set rarely evicts) would grow the heap
            # O(accesses).  Rebuilding from the live stamps keeps it
            # bounded at O(assoc) amortized-O(1) per stamp, and cannot
            # change any selection: live entries are identical either way.
            if len(heap) > 2 * self.assoc + 64:
                self._heaps[set_idx] = [
                    (stamp, way_)
                    for way_, stamp in enumerate(self._stamps[set_idx])
                    if stamp >= 1
                ]
                heapify(self._heaps[set_idx])

    def on_fill(self, set_idx: int, way: int) -> None:
        """Record that a new block was installed into (set_idx, way)."""
        self._stamp(set_idx, way)

    def select_victim(self, set_idx: int, candidates: Sequence[int]) -> int:
        """Pick the way to evict among *candidates* (never empty)."""
        return min(candidates, key=self._stamps[set_idx].__getitem__)

    def select_victim_all(self, set_idx: int) -> int:
        """Pick a victim when *every* way is a candidate.

        Identical to ``select_victim(set_idx, range(assoc))`` -- the
        steady-state path the tag array takes once a set is full and no
        reservation is pending, answered from the oldest-stamp heap
        instead of scanning the whole (possibly 512-way) set.
        """
        stamps = self._stamps[set_idx]
        if self._use_heap:
            heap = self._heaps[set_idx]
            while heap:
                stamp, way = heap[0]
                if stamps[way] == stamp:
                    return way
                heappop(heap)
        return min(range(self.assoc), key=stamps.__getitem__)

    def on_reserve(self, set_idx: int, way: int) -> None:
        """A way entered the reserved (fill-in-flight) state.

        Reserved ways must never win a victim selection, so the way's live
        heap entry is retired until the completing fill restamps it.  The
        sentinel only has to mismatch every pushed stamp (stamps are
        >= 1); the scan paths never read a reserved way's stamp.
        """
        self._stamps[set_idx][way] = -1

    def select_victim_scan(self, set_idx: int, lines) -> Optional[int]:
        """Pick a victim among the non-reserved ways of a full set.

        *lines* is the set's :class:`~repro.cache.tag_array.CacheLine`
        list; ways whose line is reserved (fill in flight) are not
        eligible.  Returns None when every way is reserved.
        """
        if not self._use_heap:
            candidates = [
                w for w, line in enumerate(lines) if not line.reserved
            ]
            if not candidates:
                return None
            return self.select_victim(set_idx, candidates)
        # reserved ways hold no live entry (see on_reserve), so the first
        # live entry is the oldest-stamped eligible way
        heap = self._heaps[set_idx]
        stamps = self._stamps[set_idx]
        while heap:
            stamp, way = heap[0]
            if stamps[way] == stamp:
                return way
            heappop(heap)
        return None


class LRUPolicy(_StampedPolicy):
    """Least-recently-used: a hit restamps the way."""

    def on_access(self, set_idx: int, way: int) -> None:
        """Record a hit on (set_idx, way)."""
        self._stamp(set_idx, way)


class FIFOPolicy(_StampedPolicy):
    """First-in-first-out: evict the oldest installed block.

    Hits do not refresh a block's age, which is what makes FIFO cheap enough
    for the 512-way approximated fully-associative STT-MRAM bank.
    """

    def on_access(self, set_idx: int, way: int) -> None:
        """FIFO ignores hits by definition."""
