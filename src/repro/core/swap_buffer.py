"""Swap buffer: staging registers between the SRAM and STT-MRAM banks.

When the SRAM bank evicts a line whose destiny is the STT-MRAM bank, the
5-cycle STT-MRAM write would stall the SM.  FUSE instead parks the evicted
128-byte line in one of (up to) three swap-buffer registers (Table I) and
enqueues an "F" command into the tag queue; the line drains into STT-MRAM
in the background.  While parked, the line remains *visible*: lookups that
hit the swap buffer are served at register speed, which is how FUSE keeps
coherence without snooping (Section IV-A -- the FIFO tag queue pairs each
"F" command with its buffer entry).

Timing: each entry is occupied from the eviction until its "F" operation
completes in the STT-MRAM bank.  A full buffer is a structural hazard the
cache reports as a reservation failure (counted as an STT-MRAM stall,
Figure 15).
"""

from __future__ import annotations

from typing import Dict

__all__ = [
    "SwapBuffer",
]


class SwapBuffer:
    """A tiny fully-associative buffer of in-flight SRAM->STT migrations.

    An entry is just its release cycle: the line's tag, dirty bit, fill PC
    and predicted level already sit in the STT tag array, installed when
    the line was staged.

    Args:
        num_entries: 128-byte data registers (Table I: 3).
    """

    def __init__(self, num_entries: int = 3) -> None:
        if num_entries < 0:
            raise ValueError("num_entries must be >= 0")
        self.num_entries = num_entries
        #: parked block -> release cycle
        self._entries: Dict[int, int] = {}

    # ------------------------------------------------------------------
    def _prune(self, cycle: int) -> None:
        released = [
            addr
            for addr, release_cycle in self._entries.items()
            if release_cycle <= cycle
        ]
        for addr in released:
            del self._entries[addr]

    def occupancy(self, cycle: int) -> int:
        """Entries still in flight at *cycle*."""
        self._prune(cycle)
        return len(self._entries)

    def is_full(self, cycle: int) -> bool:
        """True when no eviction can be staged at *cycle*."""
        if self.num_entries == 0:
            return True
        return self.occupancy(cycle) >= self.num_entries

    def next_release(self) -> int:
        """Earliest release cycle of a parked line (the first cycle a
        full buffer has a free register again)."""
        return min(self._entries.values())

    def contains(self, block_addr: int, cycle: int) -> bool:
        """True when *block_addr* is parked in the buffer at *cycle* (a
        request for it is served at register speed)."""
        self._prune(cycle)
        return block_addr in self._entries

    # ------------------------------------------------------------------
    def stage(self, block_addr: int, cycle: int, release_cycle: int) -> None:
        """Park an evicted line until its STT-MRAM write completes.

        Args:
            release_cycle: completion cycle of the paired "F" command in
                the tag queue.

        Raises:
            RuntimeError: when the buffer is full (check-then-commit).
        """
        if self.is_full(cycle):
            raise RuntimeError("swap buffer stage() on a full buffer")
        self._entries[block_addr] = release_cycle
