"""``MissPath``: the shared MSHR miss discipline.

Every non-blocking L1D in this repository follows the same
check-then-commit sequence on a tag miss:

1. an outstanding miss to the same block either *merges* (secondary
   miss, no new off-chip traffic) or, when the entry is merge-full,
   rejects the access with a reservation failure;
2. a new primary miss needs a free MSHR entry (and whatever
   engine-specific resources -- a reservable way, a destination bank);
3. the off-chip response *releases* the entry, and every merged
   secondary is replayed against the filled line's residency counters.

``MissPath`` owns steps 1 and 3 plus the primary-allocation accounting
of step 2; the engine keeps only its own resource checks.

Every rejection leaves through :meth:`MissPath.reject`, which builds the
:class:`~repro.cache.interface.Rejection` stating the retry contract:
the engine's per-attempt charge (``charged``) plus any hazard counters
and the ``reservation_fails`` count itself.
"""

from __future__ import annotations

from typing import Callable, Optional

from repro.cache.interface import (
    NEVER,
    AccessOutcome,
    AccessResult,
    Charge,
    Rejection,
)
from repro.cache.mshr import MSHR, MSHREntry
from repro.cache.request import MemoryRequest
from repro.cache.stats import CacheStats

__all__ = [
    "LOOKUP_CHARGE", "MissPath",
]

#: what a homogeneous engine charges a rejected attempt before its miss
#: path decides: the one tag lookup
LOOKUP_CHARGE: Charge = (("tag_lookups", 1),)
_FAIL_CHARGE: Charge = (("reservation_fails", 1),)


def _lookup_charge() -> Charge:
    return LOOKUP_CHARGE


class MissPath:
    """MSHR merge + off-chip forward + fill completion.

    Args:
        mshr / stats: the owning cache's MSHR and counters.
        charged: returns what the engine charged the current attempt
            before rejecting it (called only on rejection).
    """

    __slots__ = ("mshr", "stats", "charged")

    def __init__(
        self,
        mshr: MSHR,
        stats: CacheStats,
        charged: Callable[[], Charge] = _lookup_charge,
    ) -> None:
        self.mshr = mshr
        self.stats = stats
        self.charged = charged

    # ------------------------------------------------------------------
    def merge_or_reject(
        self, request: MemoryRequest, block: int, cycle: int
    ) -> Optional[AccessResult]:
        """Resolve the in-flight-miss cases for *block*.

        Returns the final :class:`AccessResult` when the access merged
        into an outstanding entry (``HIT_PENDING``), could not merge or
        could not allocate (``RESERVATION_FAIL`` with the fail counted),
        or ``None`` when this is a fresh primary miss the engine should
        now find resources for.
        """
        mshr = self.mshr
        if mshr.probe(block):
            if not mshr.can_merge(block):
                return self.reject(block, cycle)
            mshr.merge(block, request)
            self.stats.merged_misses += 1
            return AccessResult(AccessOutcome.HIT_PENDING, cycle, (), block)
        if mshr.full():
            return self.reject(block, cycle)
        return None

    def reject(
        self, block: int, cycle: int, floor: int = NEVER, hazard: Charge = ()
    ) -> Rejection:
        """Count and report one reservation failure.

        *floor* defaults to a structural hazard; *hazard* lists the
        hazard counters the engine already charged for this attempt.
        """
        self.stats.reservation_fails += 1
        return Rejection(
            AccessOutcome.RESERVATION_FAIL, cycle, (), block, floor,
            self.charged() + hazard + _FAIL_CHARGE,
        )

    def allocate(
        self,
        block: int,
        request: MemoryRequest,
        destination: str = "sram",
    ) -> MSHREntry:
        """Commit a primary miss (resources already checked)."""
        entry = self.mshr.allocate(block, request, destination=destination)
        self.stats.misses += 1
        return entry

    # ------------------------------------------------------------------
    def release(self, block: int) -> MSHREntry:
        """Pop the entry for an arrived fill."""
        return self.mshr.release(block)

    @staticmethod
    def apply_merged(entry: MSHREntry, line) -> None:
        """Replay merged secondaries on the filled line's counters.

        The primary request's read/write nature is applied by the tag
        array's fill itself; secondaries only touch residency counters
        (and dirtiness for stores), exactly like a hit would have.
        """
        for merged in entry.requests[1:]:
            if merged.is_write:
                line.dirty = True
                line.writes_observed += 1
            else:
                line.reads_observed += 1
