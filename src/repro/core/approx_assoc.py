"""Associativity approximation for the STT-MRAM bank (Section III-B).

A true fully-associative cache compares every stored tag in parallel --
prohibitive at 512 ways (the paper cites 30.6x area and 28.3x power
versus 4-way for even a 16 KB array).  FUSE instead:

1. partitions the 512-way tag array into groups sized to the number of
   parallel comparators (4), and
2. places one counting Bloom filter in front of each group.  A lookup first
   tests every CBF in parallel (one STT-MRAM read, sub-cycle), then polls
   only the *positive* groups, one group per cycle, 4 tags compared per
   iteration.

With well-tuned CBFs the search takes 1-2 cycles across the paper's
workloads; CBF false positives add wasted iterations, which Figure 20
quantifies.  The tag queue keeps those extra cycles off the SM's critical
path (they surface as ``tag_search_stall_cycles``, Figure 15).

Implementation note: the "test every CBF in parallel" step runs on plain
Python ints laid out in **lanes** of ``cbf_counters`` bits, lane *g*
holding group *g*.  One int holds every group's nonzero-counter bitmask
(bit ``c`` of lane *g* is set while counter ``(g, c)`` is nonzero,
maintained on 0<->1 crossings); a key's pattern is one int of the same
shape.  The key's needed-but-zero bits ``pattern & ~nonzero`` get a
lane-wise zero test (add the lane's low-bit mask, so any set bit carries
into the lane's top bit), and ``int.bit_count()`` over the surviving
lanes gives both the positive-group count and the positive groups ahead
of the hit's group.  That is semantically identical to testing each
group's :class:`~repro.core.bloom.CountingBloomFilter` (2-bit saturating
counters, double hashing, no false negatives); a differential property
test checks it against a plain loop over the counter rows.  The slot
and pattern tables are pure functions of the filter geometry, so they
are memoised **process-wide** (shared across every SM's bank and every
run of a sweep) rather than per instance.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro.core.bloom import NVMCBFTimingModel, _mix64

__all__ = [
    "ApproximateAssociativeArray", "SearchResult",
]

#: stride separating the hash streams of adjacent groups
_GROUP_SALT = 0x9E3779B97F4A7C15

#: (num_cbfs, num_hashes, cbf_counters) -> (residue map, key map), both
#: resolving to a ``(slots, pattern)`` pair.  Patterns depend only on the
#: geometry and the key's two double-hash residues, so every bank of
#: every SM in every run of the process shares one set (at most
#: ``cbf_counters^2`` residue pairs each).
_PATTERN_CACHE: Dict[Tuple[int, int, int], Tuple[Dict, Dict]] = {}

#: per-geometry cap on the key -> pattern memo (the residue-pair map
#: underneath is naturally tiny; the key map is what could grow with a
#: huge-footprint workload)
_KEY_CACHE_CAP = 1 << 16


@dataclass(slots=True)
class SearchResult:
    """Outcome of one approximated tag search.

    Attributes:
        way: matching way index, or None on miss.
        cycles: tag-search latency in cycles (CBF test + polling
            iterations).
        iterations: tag-array polling iterations performed.
        false_positives: positive CBF groups that did not hold the tag.
    """

    way: Optional[int]
    cycles: int
    iterations: int
    false_positives: int


class ApproximateAssociativeArray:
    """Tag-search engine mirroring a 1-set x N-way STT-MRAM tag array.

    The owning cache engine places lines in its authoritative
    :class:`~repro.cache.tag_array.TagArray` and keeps this structure in
    sync through :meth:`note_install` / :meth:`note_evict`, so that each
    :meth:`search` is priced against the true contents.

    Args:
        num_ways: ways in the (single-set) array; Table I uses 512.
        num_cbfs: tag-array partitions, one CBF each (Table I: 128).
        num_hashes: hash functions per CBF (Table I: 3).
        cbf_counters: counter-array length per CBF, and the lane width
            of the search (Table I: 16).
        num_comparators: tags compared per polling iteration (4).
        exact: when True, model an ideal fully-associative search (single
            cycle, no CBFs) -- the comparison baseline of Figure 7b.
    """

    COUNTER_MAX = 3  # 2-bit saturating counters

    def __init__(
        self,
        num_ways: int = 512,
        num_cbfs: int = 128,
        num_hashes: int = 3,
        cbf_counters: int = 16,
        num_comparators: int = 4,
        exact: bool = False,
    ) -> None:
        if num_ways < 1:
            raise ValueError("num_ways must be >= 1")
        if num_cbfs < 1 or num_cbfs > num_ways:
            raise ValueError("num_cbfs must be in [1, num_ways]")
        if num_hashes < 1:
            raise ValueError("num_hashes must be >= 1")
        if cbf_counters < 1:
            raise ValueError("cbf_counters must be >= 1")
        self.num_ways = num_ways
        self.num_cbfs = num_cbfs
        self.num_hashes = num_hashes
        self.cbf_counters = cbf_counters
        self.num_comparators = num_comparators
        self.exact = exact
        self.timing = NVMCBFTimingModel()
        self._group_size = (num_ways + num_cbfs - 1) // num_cbfs

        #: 2-bit saturating counters, one row per group (plain ints: the
        #: update loop touches at most ``num_hashes`` scalars per call)
        self._counters: List[List[int]] = [
            [0] * cbf_counters for _ in range(num_cbfs)
        ]
        #: every group's nonzero-counter bitmask, one lane per group
        self._nonzero = 0
        lanes = range(0, num_cbfs * cbf_counters, cbf_counters)
        #: each lane's top bit, and each lane's bits below it
        self._lane_top = sum(1 << (lane + cbf_counters - 1) for lane in lanes)
        self._lane_low = sum(
            ((1 << (cbf_counters - 1)) - 1) << lane for lane in lanes
        )
        self._residues, self._keys = _PATTERN_CACHE.setdefault(
            (num_cbfs, num_hashes, cbf_counters), ({}, {})
        )

        self._way_block: List[int] = [-1] * num_ways
        self._block_way: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _key_pattern(self, key: int) -> Tuple[tuple, int]:
        """*key*'s per-group counter slots and its lane pattern."""
        cached = self._keys.get(key)
        if cached is not None:
            return cached
        m = self.cbf_counters
        h1 = _mix64(key)
        h2 = _mix64(h1 ^ 0xDA942042E4DD58B5) | 1
        h1m, h2m = h1 % m, h2 % m
        resolved = self._residues.get((h1m, h2m))
        if resolved is None:
            salt_step = _GROUP_SALT % m
            slots = tuple(
                tuple(
                    (h1m + (group * salt_step) % m + step * h2m) % m
                    for step in range(self.num_hashes)
                )
                for group in range(self.num_cbfs)
            )
            pattern = 0
            for group, group_slots in enumerate(slots):
                for slot in group_slots:
                    pattern |= 1 << (group * m + slot)
            resolved = (slots, pattern)
            self._residues[(h1m, h2m)] = resolved
        if len(self._keys) < _KEY_CACHE_CAP:
            self._keys[key] = resolved
        return resolved

    # ------------------------------------------------------------------
    def search(self, block_addr: int) -> SearchResult:
        """Perform (and price) one tag search for *block_addr*."""
        actual_way = self._block_way.get(block_addr)

        if self.exact:
            # Ideal fully-associative search: all comparators in parallel.
            return SearchResult(actual_way, 1, 1, 0)

        resolved = self._keys.get(block_addr)
        if resolved is None:
            resolved = self._key_pattern(block_addr)
        # bits the key needs that are zero; a lane with any of them set
        # carries into its top bit and marks the group negative
        missing = resolved[1] & ~self._nonzero
        low = self._lane_low
        top = self._lane_top
        positive = top ^ ((((missing & low) + low) | missing) & top)

        if actual_way is None:
            # A miss polls every positive group before concluding absent.
            iterations = positive.bit_count()
            false_positives = iterations
        else:
            # CBFs have no false negatives: the actual group is positive,
            # and groups are polled in ascending index order.
            ahead = (1 << (actual_way // self._group_size
                           * self.cbf_counters)) - 1
            false_positives = (positive & ahead).bit_count()
            iterations = false_positives + 1

        cycles = self.timing.test_cycles + max(1, iterations)
        return SearchResult(actual_way, cycles, iterations, false_positives)

    # ------------------------------------------------------------------
    def note_install(self, block_addr: int, way: int) -> None:
        """Mirror an install performed by the owning tag array.

        Raises:
            ValueError: when *way* is out of range.
            RuntimeError: when the way already holds a block (the owner
                must evict first).
        """
        if not 0 <= way < self.num_ways:
            raise ValueError(f"way {way} out of range")
        if self._way_block[way] != -1:
            raise RuntimeError(f"way {way} already holds a block")
        if block_addr in self._block_way:
            raise RuntimeError(f"block 0x{block_addr:x} already mirrored")
        self._way_block[way] = block_addr
        self._block_way[block_addr] = way
        group = way // self._group_size
        row = self._counters[group]
        lane = group * self.cbf_counters
        for slot in self._key_pattern(block_addr)[0][group]:
            value = row[slot]
            if value < self.COUNTER_MAX:
                row[slot] = value + 1
                if value == 0:
                    self._nonzero |= 1 << (lane + slot)

    def note_evict(self, block_addr: int) -> None:
        """Mirror an eviction performed by the owning tag array (a block
        that is not mirrored is ignored)."""
        way = self._block_way.pop(block_addr, None)
        if way is None:
            return
        self._way_block[way] = -1
        group = way // self._group_size
        row = self._counters[group]
        lane = group * self.cbf_counters
        for slot in self._key_pattern(block_addr)[0][group]:
            value = row[slot]
            # stuck counters stay at max (decrement would risk a false
            # negative -- see repro.core.bloom)
            if 0 < value < self.COUNTER_MAX:
                row[slot] = value - 1
                if value == 1:
                    self._nonzero &= ~(1 << (lane + slot))
