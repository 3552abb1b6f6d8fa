"""Streaming multiprocessor model.

Each SM owns a private L1D, up to 48 warps and one issue port
(``issue_width`` = 1, matching the in-order shader cores of Section II-A).
Per cycle the scheduler picks one ready warp and the issue path reads
the warp's **packed trace cursor** directly (columnar kind/pc/count
buffers plus the shared transaction pool -- see
:mod:`repro.workloads.arena`), so no ``WarpInstruction`` object exists
on the hot path:

* a **compute block** occupies the issue port for ``count`` cycles and
  credits ``count`` instructions -- identical IPC accounting to issuing
  the instructions one by one, at O(1) simulation cost;
* a **memory instruction** hands its coalesced transactions to the LSU
  as one batch read straight from the arena's transaction pool.  The
  LSU still models one L1D presentation per cycle (transaction ``k``
  arrives at ``cycle + k``), but transactions that hit retire *eagerly*
  through :meth:`~repro.gpu.warp.Warp.complete_transaction_at` -- the
  warp's wake-up cycle accumulates the latest data-ready cycle instead
  of one scheduler event per transaction.  Loads block the warp until
  every transaction's data returns; stores retire once the L1D accepts
  them (write-back semantics -- the store's cost surfaces as bank
  occupancy and write-backs, not as warp stall).  Only genuinely
  asynchronous work -- off-chip fills and hazard retries -- goes
  through the event wheel.

The LSU front-end is **allocation-free on the hit path**:
:class:`~repro.cache.request.MemoryRequest` objects are pooled per SM
and recycled as soon as the cache is done with them (hits and bypasses
immediately; miss-path requests when their fill's completion list is
processed).  The pool never shrinks below the SM's natural outstanding
depth, so steady state creates no request objects at all.

A ``RESERVATION_FAIL`` retries on a ``RETRY_INTERVAL`` grid (slots
``last_fail + 4k``), which is how structural hazards (MSHR full,
tag-queue full, swap-buffer full, all-ways-reserved, Hybrid's blocking
STT write) convert into the stall cycles of Figure 15.  A retry that
cannot succeed is never presented:

* **parking** -- a bundled engine rejects with a
  :class:`~repro.cache.interface.Rejection` whose ``floor`` is the
  earliest cycle a time-based blocker clears (``NEVER`` for a
  structural one).  When the floor lies past the next slot the
  transaction parks;
* **wake rules** -- a parked transaction is re-presented at the first of
  its slots that falls after a fill or an accepted access on this L1D,
  or at its floor, whichever comes first.  Until then the L1D cannot
  change, so every skipped attempt would have been rejected again;
* **charge** -- on re-presentation the skipped attempts are charged in
  closed form: ``retries``, ``lsu_stall_cycles``, the livelock attempt
  count and the rejection's ``charge`` (its ``CacheStats`` delta) times
  the number skipped.  First presentations and accepted accesses pay
  nothing for it;
* **issue** -- while the SM holds a parked transaction its issue port
  stays closed, as it did when every failed attempt pushed
  ``port_busy_until`` past the next slot;
* **same-cycle order** -- memory calls are ``busy_until``-ordered, so a
  re-presented retry keeps the place a per-slot retry event had among
  the events of its cycle: fills first (every fill is scheduled at
  least 48 cycles before it lands), then transactions first rejected at
  batch offset ``k >= 1`` by (-first slot, birth), then those first
  rejected at offset 0 by birth.  :attr:`Retry.key` is that order.

Together these keep every result bit-identical to presenting each
attempt (pinned by ``tests/test_golden_parity.py``).
"""

from __future__ import annotations

from typing import TYPE_CHECKING, List, Optional

from repro.cache.interface import (
    NEVER,
    RETRY_INTERVAL,
    AccessOutcome,
    L1DCacheModel,
)
from repro.cache.request import AccessType, MemoryRequest
from repro.gpu.scheduler import WarpScheduler
from repro.gpu.warp import Warp
from repro.workloads.trace import COMPUTE, LOAD

__all__ = [
    "MAX_RETRIES", "Retry", "SM",
]

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for typing only
    from repro.gpu.simulator import GPUSimulator

#: Retries per transaction before the simulator declares livelock.
MAX_RETRIES = 100_000

#: ``port_busy_until`` while the SM holds a parked transaction
_PARKED = NEVER

#: same-cycle order positions (compared with :attr:`Retry.key`) of a
#: change made by a fill (before every retry of the cycle) and by the
#: issue phase (after all of them)
_BEFORE_RETRIES = (0,)
_AFTER_RETRIES = (3,)


class Retry:
    """A rejected transaction between two presentations.

    ``last`` is the slot of its latest attempt (presented or charged),
    ``due`` the slot it is scheduled at (None: parked until a wake-up),
    ``charge`` the counter delta of one skipped attempt and ``key`` its
    same-cycle order among retries (see the module docs).
    """

    __slots__ = (
        "request", "warp", "key", "attempts", "last", "due", "charge",
        "parked",
    )

    def __init__(self, request: MemoryRequest, warp: Optional[Warp],
                 key: tuple) -> None:
        self.request = request
        self.warp = warp
        self.key = key
        self.attempts = 0
        self.last = 0
        self.due: Optional[int] = None
        self.charge: tuple = ()
        self.parked = False

    def slot_from(self, cycle: int) -> int:
        """Its first retry slot at or after *cycle*."""
        return self.last + RETRY_INTERVAL * max(
            1, -(-(cycle - self.last) // RETRY_INTERVAL))


class SM:
    """One streaming multiprocessor plus its private L1D."""

    def __init__(
        self,
        sm_id: int,
        l1d: L1DCacheModel,
        warps: List[Warp],
        scheduler: WarpScheduler,
        simulator: "GPUSimulator",
    ) -> None:
        self.sm_id = sm_id
        self.l1d = l1d
        self.warps = warps
        self.scheduler = scheduler
        self.sim = simulator
        self.port_busy_until = 0
        self.issue_busy_cycles = 0
        self.lsu_stall_cycles = 0
        self.instructions = 0
        self.load_transactions = 0
        self.store_transactions = 0
        self.retries = 0
        #: live retry chains, and the parked subset of them
        self._chains: List[Retry] = []
        self._parked: List[Retry] = []
        #: ``port_busy_until`` from before the SM parked
        self._port_saved = 0
        self._done = False
        #: recycled MemoryRequest objects (hit-path allocation freedom);
        #: per-SM so ``sm_id`` never needs rewriting on reuse
        self._request_pool: List[MemoryRequest] = []

    # ------------------------------------------------------------------
    @property
    def done(self) -> bool:
        """True when every warp has drained and nothing is outstanding."""
        if self._done:
            return True
        self._done = all(
            warp.done and not warp.blocked for warp in self.warps
        )
        return self._done

    def next_event_time(self, cycle: int) -> Optional[int]:
        """Earliest future cycle at which this SM could issue.

        None when every remaining warp is blocked on memory (an event will
        wake them) or the SM is done.  One fused pass determines both
        (the :attr:`done` property would walk the warps a second time).
        """
        if self._done:
            return None
        best: Optional[int] = None
        alive = False
        for warp in self.warps:
            outstanding = warp.outstanding
            if warp.done:
                if outstanding:
                    alive = True  # drained stream, data still in flight
                continue
            alive = True
            if outstanding == 0:
                ready_at = warp.ready_at
                if best is None or ready_at < best:
                    best = ready_at
        if not alive:
            self._done = True
            return None
        if best is None or self.port_busy_until >= _PARKED:
            return None  # a parked SM re-enters the ready set on wake-up
        return max(best, self.port_busy_until, cycle)

    # ------------------------------------------------------------------
    def try_issue(self, cycle: int) -> bool:
        """Issue at most one instruction; True when something issued."""
        if cycle < self.port_busy_until:
            return False
        warp = self.scheduler.pick(self.warps, cycle)
        if warp is None:
            return False
        index = warp.op_index
        if index >= warp.op_end:
            # exhausted cursor consulted for the first time: the warp
            # retires here, exactly like the lazy stream's StopIteration
            warp.done = True
            return False
        warp.op_index = index + 1
        warp.last_issue = cycle
        kind = warp.op_kind[index]
        if kind == COMPUTE:
            span = warp.op_count[index]
            self.port_busy_until = cycle + span
            self.issue_busy_cycles += span
            warp.ready_at = cycle + span
            warp.instructions_issued += span
            self.instructions += span
        else:
            self._issue_memory(warp, kind, index, cycle)
        return True

    def _issue_memory(
        self, warp: Warp, kind: int, index: int, cycle: int
    ) -> None:
        self.port_busy_until = cycle + 1
        self.issue_busy_cycles += 1
        warp.instructions_issued += 1
        warp.memory_instructions += 1
        self.instructions += 1

        txn_off = warp.txn_off
        start = txn_off[index]
        end = txn_off[index + 1]
        if start == end:
            warp.ready_at = cycle + 1
            return
        count = end - start
        if kind == LOAD:
            access_type = AccessType.LOAD
            waiting_warp: Optional[Warp] = warp
            warp.block_on(count)
            self.load_transactions += count
        else:
            # stores retire at issue; bank pressure is modelled in the cache
            access_type = AccessType.STORE
            waiting_warp = None
            warp.ready_at = cycle + 1
            self.store_transactions += count

        # batch the whole coalesced access: the LSU presents one
        # transaction per cycle, hits retire eagerly, and only misses and
        # hazard retries touch the event wheel.  Transactions are read as
        # a slice of the arena's shared address pool.
        pc = warp.op_pc[index]
        warp_id = warp.warp_id
        pool = self._request_pool
        present = self._present
        arrival = cycle
        for block_addr in warp.txns[start:end]:
            if pool:
                request = pool.pop()
                request.address = block_addr << 7
                request.access_type = access_type
                request.pc = pc
                request.warp_id = warp_id
                request.issue_cycle = arrival
            else:
                request = MemoryRequest(
                    address=block_addr << 7,
                    access_type=access_type,
                    pc=pc,
                    sm_id=self.sm_id,
                    warp_id=warp_id,
                    issue_cycle=arrival,
                )
            present(request, waiting_warp, arrival, None)
            arrival += 1

    # ------------------------------------------------------------------
    def _present(
        self,
        request: MemoryRequest,
        waiting_warp: Optional[Warp],
        cycle: int,
        chain: Optional[Retry],
    ) -> None:
        """Present one transaction to the L1D (*chain*: its retry chain,
        None on the first presentation).

        Requests the cache is finished with (hits and bypasses) return
        to the SM's pool here; miss-path requests stay referenced by the
        MSHR until :meth:`_handle_fill` recycles them.
        """
        sim = self.sim
        result = self.l1d.access(request, cycle)

        for dirty_block in result.writebacks:
            sim.memory.issue_writeback(dirty_block, self.sm_id, cycle)

        outcome = result.outcome
        if outcome is AccessOutcome.RESERVATION_FAIL:
            self._reject(request, waiting_warp, cycle, chain, result)
            return
        if chain is not None:
            chain.due = None
            self._chains.remove(chain)
        if self._parked:
            self._wake(_AFTER_RETRIES if chain is None else chain.key)
        if outcome is AccessOutcome.HIT:
            if waiting_warp is not None and waiting_warp.complete_transaction_at(
                result.ready_cycle
            ):
                sim.schedule_wake(waiting_warp.ready_at, self.sm_id)
            self._request_pool.append(request)
            return
        if outcome is AccessOutcome.HIT_PENDING:
            # the fill's completion list will include this request
            return
        if outcome is AccessOutcome.MISS:
            completion = sim.memory.issue_read(
                request.block_addr, self.sm_id, cycle
            )
            sim.schedule_fill(completion, self, request.block_addr)
            return
        # MISS_BYPASS
        if request.is_write:
            # a bypassed store is write traffic straight to L2
            sim.memory.issue_writeback(request.block_addr, self.sm_id, cycle)
        else:
            completion = sim.memory.issue_read(
                request.block_addr, self.sm_id, cycle
            )
            if waiting_warp is not None and (
                waiting_warp.complete_transaction_at(completion)
            ):
                sim.schedule_wake(waiting_warp.ready_at, self.sm_id)
        self._request_pool.append(request)

    def _reject(
        self,
        request: MemoryRequest,
        waiting_warp: Optional[Warp],
        cycle: int,
        chain: Optional[Retry],
        result,
    ) -> None:
        """RESERVATION_FAIL: the LSU cannot hand the transaction over, so
        the in-order memory pipeline backs up and the SM's issue port
        stalls until the retry -- this is how cache thrashing (MSHR and
        way exhaustion) throttles the whole SM, the paper's motivating
        pathology for the small L1-SRAM.  The request rides its retry
        chain, so it is not recycled yet."""
        self.retries += 1
        self.lsu_stall_cycles += RETRY_INTERVAL
        sim = self.sim
        if chain is None:
            birth = sim.next_seq()
            # first rejection: a batch offset k >= 1 presents ahead of
            # the clock (see the module docs for the order)
            key = (1, -cycle, birth) if cycle > sim.cycle else (2, birth)
            chain = Retry(request, waiting_warp, key)
            self._chains.append(chain)
        chain.attempts += 1
        chain.last = cycle
        retry_at = cycle + RETRY_INTERVAL
        # a model that states no floor retries at the next slot
        floor = getattr(result, "floor", retry_at)
        if floor <= retry_at:
            chain.due = retry_at
            if retry_at > self.port_busy_until:
                self.port_busy_until = retry_at
            sim.schedule_retry(retry_at, self, chain)
            return
        chain.charge = result.charge
        chain.parked = True
        if not self._parked:
            self._port_saved = self.port_busy_until
            self.port_busy_until = _PARKED
        self._parked.append(chain)
        if floor >= NEVER:
            chain.due = None
        else:
            chain.due = chain.slot_from(floor)
            sim.schedule_retry(chain.due, self, chain)

    def _retry(self, chain: Retry, cycle: int) -> None:
        """A retry slot came up: re-present *chain*, first charging the
        attempts it skipped."""
        if chain.due != cycle:
            return  # superseded by an earlier wake-up
        if chain.parked:  # reached its floor
            chain.parked = False
            self._parked.remove(chain)
            if not self._parked:
                self._reopen()
        self._charge_before(chain, cycle)
        if chain.attempts > MAX_RETRIES:
            raise RuntimeError(
                f"livelock: transaction 0x{chain.request.address:x} on SM "
                f"{self.sm_id} exceeded {MAX_RETRIES} retries"
            )
        self._present(chain.request, chain.warp, cycle, chain)

    def _charge_before(self, chain: Retry, cycle: int) -> None:
        """Credit, in closed form, the attempts *chain* skipped at its
        slots before *cycle*."""
        skipped = (cycle - chain.last - 1) // RETRY_INTERVAL
        if skipped <= 0:
            return
        self.retries += skipped
        self.lsu_stall_cycles += RETRY_INTERVAL * skipped
        chain.attempts += skipped
        chain.last += RETRY_INTERVAL * skipped
        stats = self.l1d.stats
        for name, amount in chain.charge:
            setattr(stats, name, getattr(stats, name) + amount * skipped)

    def _wake(self, position: tuple) -> None:
        """The L1D changed at *position* in the current cycle's order:
        every parked chain moves to its first slot after the change."""
        sim = self.sim
        now = sim.cycle
        for chain in self._parked:
            slot = chain.slot_from(now)
            if slot == now and position > chain.key:
                slot += RETRY_INTERVAL  # its slot this cycle came first
            chain.parked = False
            if chain.due is None or slot < chain.due:
                chain.due = slot
                sim.schedule_retry(slot, self, chain)
        self._parked.clear()
        self._reopen()

    def _reopen(self) -> None:
        """The last parked chain left: restore the issue port to where
        the per-slot attempts would have left it."""
        port = self._port_saved
        for chain in self._chains:
            if chain.due > port:
                port = chain.due
        self.port_busy_until = port
        self.sim.note_sm_unparked(self.sm_id)

    # ------------------------------------------------------------------
    def skipped_slot(self, cycle: int) -> Optional[int]:
        """Earliest retry slot at or after *cycle* that a chain skips."""
        best = None
        for chain in self._chains:
            slot = chain.slot_from(cycle)
            if (chain.due is None or slot < chain.due) and (
                best is None or slot < best
            ):
                best = slot
        return best

    def charge_skipped(self, cycle: int) -> None:
        """Credit every skipped attempt before *cycle* (timeline rows
        must count them as if they had been presented)."""
        for chain in self._chains:
            self._charge_before(
                chain, cycle if chain.due is None else min(cycle, chain.due))

    def parked_addresses(self) -> List[int]:
        """Addresses of parked transactions with no retry scheduled."""
        return [
            chain.request.address for chain in self._parked
            if chain.due is None
        ]

    # ------------------------------------------------------------------
    def _handle_fill(self, block_addr: int, cycle: int) -> None:
        """Off-chip response arrived: fill the L1D, retire merged loads."""
        fill = self.l1d.fill(block_addr, cycle)
        for dirty_block in fill.writebacks:
            self.sim.memory.issue_writeback(dirty_block, self.sm_id, cycle)
        ready = fill.ready_cycle
        warps = self.warps
        sim = self.sim
        sm_id = self.sm_id
        for request in fill.completed:
            if request.access_type is AccessType.LOAD:
                warp = warps[request.warp_id]
                if warp.complete_transaction_at(ready):
                    sim.schedule_wake(warp.ready_at, sm_id)
        # the MSHR entry is released; its requests (loads and stores
        # alike) are dead and return to the pool
        self._request_pool.extend(fill.completed)
        if self._parked:
            self._wake(_BEFORE_RETRIES)
