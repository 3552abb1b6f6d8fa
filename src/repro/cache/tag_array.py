"""Set-associative tag array with reservation support.

The tag array is the bookkeeping heart of every cache model in this
repository.  It follows GPGPU-Sim's allocate-on-miss discipline: a miss
*reserves* a line (so the set cannot over-commit while the fill is in
flight) and the arriving fill completes the reservation.

Lines additionally record the issuing PC and per-residency read/write
counts.  Those feed two paper mechanisms:

* the read-level predictor's accuracy scoring (Figure 16) compares the
  level predicted at fill time against the writes actually observed while
  the line was resident, and
* the read-level analysis of Figure 6 is validated against the same
  counters in integration tests.
"""

from __future__ import annotations

from dataclasses import dataclass
from heapq import heappop, heappush
from typing import Iterator, List, Optional, Tuple

from repro.cache.replacement import LRUPolicy
from repro.cache.request import BLOCK_SIZE

__all__ = [
    "CacheLine", "EvictedLine", "TagArray", "sets_and_ways",
]


def sets_and_ways(size_kb: int, assoc: Optional[int]) -> Tuple[int, int]:
    """``(num_sets, assoc)`` of a *size_kb* array of 128-byte lines.

    ``assoc=None`` gives one fully-associative set of every line.

    Raises:
        ValueError: when the lines do not divide into *assoc*-way sets.
    """
    num_lines = size_kb * 1024 // BLOCK_SIZE
    if assoc is None:
        return 1, num_lines
    if num_lines % assoc:
        raise ValueError(f"{size_kb}KB is not divisible into {assoc}-way sets")
    return num_lines // assoc, assoc


@dataclass(slots=True)
class CacheLine:
    """State of one cache line (one way of one set)."""

    valid: bool = False
    dirty: bool = False
    reserved: bool = False
    #: block address stored (the tag and the set index together)
    block_addr: int = -1
    #: PC of the request that allocated the line (predictor bookkeeping)
    fill_pc: int = 0
    #: read-level predicted at fill time, scored on eviction (Figure 16)
    predicted_level: Optional[object] = None
    #: stores observed while resident (excludes the fill itself)
    writes_observed: int = 0
    #: loads observed while resident
    reads_observed: int = 0

    def reset(self) -> None:
        """Return the line to the invalid state."""
        self.valid = False
        self.dirty = False
        self.reserved = False
        self.block_addr = -1
        self.fill_pc = 0
        self.predicted_level = None
        self.writes_observed = 0
        self.reads_observed = 0


@dataclass(slots=True)
class EvictedLine:
    """Snapshot of a line pushed out by :meth:`TagArray.reserve`."""

    block_addr: int
    dirty: bool
    fill_pc: int
    predicted_level: Optional[object]
    writes_observed: int
    reads_observed: int


class TagArray:
    """A ``num_sets`` x ``assoc`` tag array with LRU or FIFO replacement.

    A fully-associative array is simply ``num_sets=1`` with a large
    associativity, which is exactly how the paper's FA-FUSE configures the
    STT-MRAM bank (1 set x 512 ways, FIFO, Table I).

    Args:
        num_sets: sets (a power of two).
        assoc: ways per set.
        policy: :class:`~repro.cache.replacement.LRUPolicy` (default) or
            :class:`~repro.cache.replacement.FIFOPolicy`.
    """

    def __init__(
        self,
        num_sets: int,
        assoc: int,
        policy: type = LRUPolicy,
    ) -> None:
        if num_sets < 1 or assoc < 1:
            raise ValueError("num_sets and assoc must be >= 1")
        if num_sets & (num_sets - 1):
            raise ValueError("num_sets must be a power of two")
        self.num_sets = num_sets
        self.assoc = assoc
        self.policy = policy(num_sets, assoc)
        self._sets: List[List[CacheLine]] = [
            [CacheLine() for _ in range(assoc)] for _ in range(num_sets)
        ]
        self._set_mask = num_sets - 1
        #: valid-block index: block_addr -> (set_idx, way); keeps lookups
        #: O(1) even for the 512-way fully-associative STT organisation
        self._index: dict = {}
        #: pending reservations: block_addr -> (set_idx, way); lets fills
        #: complete without scanning the set
        self._reserved_index: dict = {}
        #: per-set way counts keeping the reserve path off O(assoc) scans
        #: in the steady state (set full, no reservation pending)
        self._free_count: List[int] = [assoc] * num_sets
        self._reserved_count: List[int] = [0] * num_sets
        #: per-set min-heaps of free (invalid, unreserved) way indices:
        #: popping the minimum is identical to scanning the set for the
        #: first free way, without the O(assoc) walk that dominated the
        #: 512-way STT bank under migration churn (invalidate keeps
        #: punching free ways into the middle of the set)
        self._free_ways: List[List[int]] = [
            list(range(assoc)) for _ in range(num_sets)
        ]

    # ------------------------------------------------------------------
    @property
    def num_lines(self) -> int:
        return self.num_sets * self.assoc

    def set_index(self, block_addr: int) -> int:
        """Set index for a block address (low-order block bits)."""
        return block_addr & self._set_mask

    def line(self, set_idx: int, way: int) -> CacheLine:
        """Direct line access (used by cache engines and tests)."""
        return self._sets[set_idx][way]

    def iter_valid_lines(self) -> Iterator[CacheLine]:
        """Yield every valid (non-reserved) line."""
        for ways in self._sets:
            for line in ways:
                if line.valid:
                    yield line

    # ------------------------------------------------------------------
    def lookup(self, block_addr: int) -> Tuple[int, Optional[int]]:
        """Return ``(set_idx, way)``; way is None on miss.

        Only valid lines match; reserved (in-flight) lines do not count as
        hits -- the MSHR handles those as merged misses.
        """
        entry = self._index.get(block_addr)
        if entry is not None:
            return entry
        return self.set_index(block_addr), None

    def probe_reserved(self, block_addr: int) -> bool:
        """True if a reservation for *block_addr* is pending in its set."""
        return block_addr in self._reserved_index

    def touch(self, set_idx: int, way: int, is_write: bool) -> None:
        """Record a hit for replacement state and residency counters."""
        line = self._sets[set_idx][way]
        self.policy.on_access(set_idx, way)
        if is_write:
            line.dirty = True
            line.writes_observed += 1
        else:
            line.reads_observed += 1

    # ------------------------------------------------------------------
    def can_reserve(self, block_addr: int) -> bool:
        """True when the set has at least one non-reserved way."""
        return self._reserved_count[self.set_index(block_addr)] < self.assoc

    def peek_victim(self, block_addr: int) -> Tuple[bool, Optional[CacheLine]]:
        """Preview what :meth:`reserve` would do, without mutating.

        Returns ``(can_reserve, victim_line)``: ``victim_line`` is the
        valid line that would be displaced, or None when a free way exists
        (or when reservation is impossible).  The subsequent
        :meth:`reserve` picks the same victim, which the check-then-commit
        cache engines rely on.
        """
        set_idx = self.set_index(block_addr)
        if self._free_count[set_idx] > 0:
            return True, None
        ways = self._sets[set_idx]
        if self._reserved_count[set_idx] == 0:
            # steady state: set full, nothing in flight -> every way is a
            # candidate and the policy can answer without a set scan
            return True, ways[self.policy.select_victim_all(set_idx)]
        victim_way = self.policy.select_victim_scan(set_idx, ways)
        if victim_way is None:
            return False, None
        return True, ways[victim_way]

    def reserve(
        self, block_addr: int
    ) -> Tuple[int, int, Optional[EvictedLine]]:
        """Reserve a way for an in-flight fill of *block_addr*.

        Selects a victim among non-reserved ways (invalid ways first), marks
        the chosen way reserved and returns ``(set_idx, way, evicted)``.
        ``evicted`` describes the valid line that was displaced, or None.

        Raises:
            RuntimeError: when every way in the set is already reserved.
                Callers must check :meth:`can_reserve` first; running out of
                ways is the "cannot obtain a free cache line" structural
                hazard that surfaces as a reservation failure.
        """
        set_idx = self.set_index(block_addr)
        ways = self._sets[set_idx]

        victim_way: Optional[int] = None
        if self._free_count[set_idx] > 0:
            # lowest free way index, same choice the old first-free scan
            # made, in O(log assoc)
            victim_way = heappop(self._free_ways[set_idx])
        if victim_way is None:
            if self._reserved_count[set_idx] == 0:
                victim_way = self.policy.select_victim_all(set_idx)
            else:
                victim_way = self.policy.select_victim_scan(set_idx, ways)
                if victim_way is None:
                    raise RuntimeError(
                        f"reserve() with all ways reserved in set {set_idx}"
                    )

        line = ways[victim_way]
        evicted: Optional[EvictedLine] = None
        if line.valid:
            evicted = EvictedLine(
                block_addr=line.block_addr,
                dirty=line.dirty,
                fill_pc=line.fill_pc,
                predicted_level=line.predicted_level,
                writes_observed=line.writes_observed,
                reads_observed=line.reads_observed,
            )
            self._index.pop(line.block_addr, None)
        else:
            self._free_count[set_idx] -= 1
        line.reset()
        line.reserved = True
        line.block_addr = block_addr
        self._reserved_count[set_idx] += 1
        self._reserved_index[block_addr] = (set_idx, victim_way)
        self.policy.on_reserve(set_idx, victim_way)
        return set_idx, victim_way, evicted

    def _complete_reservation(
        self,
        block_addr: int,
        set_idx: int,
        way: int,
        dirty: bool,
        fill_pc: int,
        predicted_level: Optional[object],
    ) -> None:
        line = self._sets[set_idx][way]
        line.reserved = False
        line.valid = True
        line.dirty = dirty
        line.fill_pc = fill_pc
        line.predicted_level = predicted_level
        self._reserved_count[set_idx] -= 1
        del self._reserved_index[block_addr]
        self.policy.on_fill(set_idx, way)
        self._index[block_addr] = (set_idx, way)

    def fill(
        self,
        block_addr: int,
        is_write: bool = False,
        fill_pc: int = 0,
        predicted_level: Optional[object] = None,
    ) -> Tuple[int, int]:
        """Complete the reservation for *block_addr*.

        Returns ``(set_idx, way)`` of the now-valid line.

        Raises:
            RuntimeError: when no reservation exists (fills must always have
                been preceded by a reserve; anything else is an engine bug).
        """
        entry = self._reserved_index.get(block_addr)
        if entry is None:
            raise RuntimeError(
                f"fill() without reservation for 0x{block_addr:x}"
            )
        set_idx, way = entry
        self._complete_reservation(
            block_addr, set_idx, way, is_write, fill_pc, predicted_level,
        )
        return set_idx, way

    def install(
        self,
        block_addr: int,
        dirty: bool = False,
        fill_pc: int = 0,
        predicted_level: Optional[object] = None,
    ) -> Tuple[int, int, Optional[EvictedLine]]:
        """Reserve-and-fill in one step (used for migrations between banks,
        where the data is already on chip and no fill response is pending).
        """
        set_idx, way, evicted = self.reserve(block_addr)
        self._complete_reservation(
            block_addr, set_idx, way, dirty, fill_pc, predicted_level,
        )
        return set_idx, way, evicted

    def invalidate(self, block_addr: int) -> Optional[EvictedLine]:
        """Invalidate *block_addr* if present; return its snapshot."""
        set_idx, way = self.lookup(block_addr)
        if way is None:
            return None
        line = self._sets[set_idx][way]
        snapshot = EvictedLine(
            block_addr=line.block_addr,
            dirty=line.dirty,
            fill_pc=line.fill_pc,
            predicted_level=line.predicted_level,
            writes_observed=line.writes_observed,
            reads_observed=line.reads_observed,
        )
        line.reset()
        self._index.pop(block_addr, None)
        self._free_count[set_idx] += 1
        heappush(self._free_ways[set_idx], way)
        return snapshot

    def occupancy(self) -> int:
        """Number of valid lines currently held."""
        return sum(1 for _ in self.iter_valid_lines())
