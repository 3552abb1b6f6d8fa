"""The retry contract every bundled L1D engine states on rejection.

A ``RESERVATION_FAIL`` comes back as a
:class:`~repro.cache.interface.Rejection` carrying a ``floor`` (the
earliest cycle the blocker can clear on its own) and a ``charge`` (the
counter delta of the attempt).  The SM relies on it to skip futile
retries: re-presenting the same request at any retry slot before the
floor, with no fill and no accepted access in between, must

* be rejected again, with the same floor and charge,
* change no cache state (tag arrays, MSHR, tag queue, swap buffer,
  predictors, bank timing), and
* add exactly ``charge`` to the counters.

Each case builds two identical caches, rejects the request on both,
re-presents it on one only, and compares the two after every slot.
"""

from __future__ import annotations

import pickle

import pytest

from repro.cache.interface import (
    NEVER,
    RETRY_INTERVAL,
    AccessOutcome,
    AccessResult,
    L1DCacheModel,
    Rejection,
)
from repro.core.factory import l1d_config, make_l1d
from repro.core.fuse_cache import FuseCache, FuseFeatures
from repro.gpu.config import fermi_like
from repro.gpu.simulator import GPUSimulator
from repro.workloads.benchmarks import benchmark
from repro.workloads.trace import TraceScale, load_instruction
from tests.conftest import load

ENGINES = ("L1-SRAM", "FA-SRAM", "L1-NVM", "By-NVM", "Oracle", "Hybrid",
           "Base-FUSE", "FA-FUSE", "Dy-FUSE")

#: re-presentations checked when the floor is NEVER
STRUCTURAL_SLOTS = 6

def _state(cache, cycle: int) -> bytes:
    """*cache*'s complete state as of *cycle*, counters left out: the
    time-based queues are pruned to *cycle* first, so only changes an
    attempt made show up."""
    for part in ("tag_queue", "swap"):
        queue = getattr(cache, part, None)
        if queue is not None:
            queue.occupancy(cycle)
    stats = cache.stats
    saved = stats.as_dict()
    for name in saved:
        setattr(stats, name, 0)
    try:
        return pickle.dumps(cache)
    finally:
        for name, value in saved.items():
            setattr(stats, name, value)


def _delta(after: dict, before: dict) -> dict:
    return {
        name: after[name] - before[name]
        for name in after if after[name] != before[name]
    }


def _requests():
    """One load per block, shared by twin caches (request ids match)."""
    made = {}

    def request(block: int):
        if block not in made:
            made[block] = load(block << 7)
        return made[block]

    return request


def assert_retry_contract(build, setup, block: int, cycle: int) -> int:
    """Check the contract for a load of *block* rejected at *cycle* on
    caches made by *build* and prepared by ``setup(cache, request)``;
    returns the number of re-presentations checked."""
    request = _requests()
    probed, control = build(), build()
    for cache in (probed, control):
        setup(cache, request)
    request = request(block)
    first = probed.access(request, cycle)
    control.access(request, cycle)
    assert first.outcome is AccessOutcome.RESERVATION_FAIL
    assert isinstance(first, Rejection)
    assert first.floor > cycle
    charge = dict(first.charge)
    assert charge["reservation_fails"] == 1
    assert "accesses" not in charge

    last = first.floor if first.floor < NEVER else (
        cycle + RETRY_INTERVAL * (STRUCTURAL_SLOTS + 1))
    slot = cycle + RETRY_INTERVAL
    checked = 0
    while slot < last:
        before = probed.stats.as_dict()
        again = probed.access(request, slot)
        assert again.outcome is AccessOutcome.RESERVATION_FAIL, slot
        assert (again.floor, again.charge) == (first.floor, first.charge)
        assert _delta(probed.stats.as_dict(), before) == {
            name: amount for name, amount in charge.items() if amount
        }
        assert _state(probed, slot) == _state(control, slot)
        slot += RETRY_INTERVAL
        checked += 1
    return checked


# ----------------------------------------------------------------------
# structural hazard on every engine: the MSHR is full
def _fill_mshr(cache, request=None) -> None:
    request = request or _requests()
    for block in range(cache.mshr.num_entries):
        result = cache.access(request(block), block)
        assert result.outcome is AccessOutcome.MISS


@pytest.mark.parametrize("name", ENGINES)
def test_full_mshr_rejects_until_a_fill(name):
    checked = assert_retry_contract(
        lambda: make_l1d(l1d_config(name)), _fill_mshr, 1000, 40,
    )
    assert checked == STRUCTURAL_SLOTS


def _warm_then_miss(cache, request) -> None:
    """Populate the STT-MRAM bank (and its CBFs), then keep misses in
    flight: later rejected searches poll false-positive groups."""
    cycle = 0
    for block in range(600):
        if cache.access(request(block), cycle).outcome is AccessOutcome.MISS:
            cache.fill(block, cycle + 1)
        cycle += 2
    for block in range(1000, 1040):
        cache.access(request(block), cycle)
        cycle += 1


def test_rejected_approximate_search_is_charged():
    build = lambda: make_l1d(l1d_config("Dy-FUSE"))  # noqa: E731
    probe = build()
    _warm_then_miss(probe, _requests())
    result = probe.access(load(2001 << 7), 2000)
    assert dict(result.charge)["tag_search_stall_cycles"] > 0
    checked = assert_retry_contract(build, _warm_then_miss, 2001, 2000)
    assert checked == STRUCTURAL_SLOTS


def test_structural_rejection_reports_never():
    cache = make_l1d(l1d_config("L1-SRAM"))
    _fill_mshr(cache)
    result = cache.access(load(1000 << 7), 40)
    assert result.floor == NEVER
    assert dict(result.charge) == {"tag_lookups": 1, "reservation_fails": 1}


# ----------------------------------------------------------------------
# time-based hazards of the heterogeneous engines
STT_WRITE = 40


def _small_fuse(features, **kwargs):
    # one 8-way SRAM set, so the ninth block evicts into STT-MRAM; a
    # long STT write keeps the blocker up for several retry slots
    return lambda: FuseCache(
        sram_kb=1, sram_assoc=8, stt_kb=8, stt_assoc=2, features=features,
        stt_write_latency=STT_WRITE, **kwargs,
    )


def _evict_into_stt(cache, request=None) -> None:
    """Fill the SRAM set, then miss once more at cycle 20: the victim
    migrates to STT-MRAM (an STT write finishing at 20 + STT_WRITE)."""
    request = request or _requests()
    for block in range(8):
        assert cache.access(request(block), 2 * block).outcome is (
            AccessOutcome.MISS)
        cache.fill(block, 2 * block + 1)
    assert cache.access(request(8), 20).outcome is AccessOutcome.MISS


def test_hybrid_gate_floor_charges_full_interval():
    build = _small_fuse(FuseFeatures.hybrid())
    probe = build()
    _evict_into_stt(probe)
    result = probe.access(load(9 << 7), 21)
    # the gate closes until the STT write completes; every attempt
    # before the floor waits the whole retry interval
    assert result.floor == 20 + STT_WRITE - (RETRY_INTERVAL - 1)
    assert dict(result.charge)["bank_wait_cycles"] == RETRY_INTERVAL
    checked = assert_retry_contract(build, _evict_into_stt, 9, 21)
    assert checked >= 8


@pytest.mark.parametrize("features", [
    FuseFeatures.base_fuse(), FuseFeatures.fa_fuse(),
], ids=["Base-FUSE", "FA-FUSE"])
def test_full_tag_queue_floor_is_oldest_completion(features):
    build = _small_fuse(features, tag_queue_capacity=1)
    probe = build()
    _evict_into_stt(probe)
    result = probe.access(load(9 << 7), 21)
    assert result.floor == 20 + STT_WRITE
    assert dict(result.charge)["tag_queue_full_events"] == 1
    checked = assert_retry_contract(build, _evict_into_stt, 9, 21)
    assert checked >= 9


@pytest.mark.parametrize("features", [
    FuseFeatures.base_fuse(), FuseFeatures.fa_fuse(),
], ids=["Base-FUSE", "FA-FUSE"])
def test_full_swap_buffer_floor_is_first_release(features):
    build = _small_fuse(features, swap_entries=1)
    probe = build()
    _evict_into_stt(probe)
    result = probe.access(load(9 << 7), 21)
    assert result.floor == 20 + STT_WRITE
    assert dict(result.charge)["swap_buffer_full_events"] == 1
    checked = assert_retry_contract(build, _evict_into_stt, 9, 21)
    assert checked >= 9


# ----------------------------------------------------------------------
def test_simulator_skips_futile_attempts():
    """A retry storm presents far fewer attempts than it charges, and
    the charge keeps the counters consistent."""
    scale = TraceScale.smoke()
    model = benchmark("BICG", 2, scale.warps_per_sm, scale)
    presented = [0]

    def l1d_factory():
        cache = make_l1d(l1d_config("L1-SRAM"))
        access = cache.access

        def counted(request, cycle):
            presented[0] += 1
            return access(request, cycle)

        cache.access = counted
        return cache

    sim = GPUSimulator(
        fermi_like().with_overrides(num_sms=2), l1d_factory=l1d_factory,
        warp_streams=model.streams(), warps_per_sm=scale.warps_per_sm,
    )
    result = sim.run()
    assert result.retries == result.l1d.reservation_fails > 0
    assert presented[0] < result.l1d.accesses + result.retries
    assert all(not sm._chains and not sm._parked for sm in sim.sms)


# ----------------------------------------------------------------------
class ScriptedCache(L1DCacheModel):
    """Logs every presentation.  Block ``parked`` is rejected with floor
    NEVER until block ``change`` has been accepted (the one change that
    can clear it); every other block is rejected with no floor its first
    ``rejections[block]`` times, then hits."""

    name = "scripted"

    def __init__(self, parked: int, change: int, rejections: dict) -> None:
        super().__init__()
        self.parked = parked
        self.change = change
        self.rejections = dict(rejections)
        self.changed = False
        self.log = []

    def _access_impl(self, request, cycle):
        block = request.block_addr
        self.log.append((block, cycle))
        if block == self.parked and not self.changed:
            self.stats.reservation_fails += 1
            return Rejection(
                AccessOutcome.RESERVATION_FAIL, cycle, (), block, NEVER,
                (("reservation_fails", 1),),
            )
        if self.rejections.get(block, 0) > 0:
            self.rejections[block] -= 1
            self.stats.reservation_fails += 1
            return AccessResult(AccessOutcome.RESERVATION_FAIL, cycle, (),
                                block)
        if block == self.change:
            self.changed = True
        return AccessResult(AccessOutcome.HIT, cycle + 1, (), block)

    def fill(self, block_addr, cycle):  # pragma: no cover - all hits
        raise AssertionError("no misses in this script")


def _scripted_run(parked: int, change: int, rejections: dict):
    """One warp loads blocks 0..4 (batch offsets 0..4); returns the
    cache and the batch's issue cycle."""
    cache = ScriptedCache(parked, change, rejections)
    stream = [load_instruction(0x40, [block << 7 for block in range(5)])]
    sim = GPUSimulator(
        fermi_like().with_overrides(num_sms=1), l1d_factory=lambda: cache,
        warp_streams=lambda sm_id, warp_id: list(stream), warps_per_sm=1,
    )
    sim.run()
    issue = cache.log[0][1]
    assert cache.log[0][0] == 0
    assert cache.stats.reservation_fails == sim.sms[0].retries
    return cache, issue, sim.sms[0].retries


def _presented(cache, block: int, issue: int):
    return [cycle - issue for b, cycle in cache.log if b == block]


def test_wake_after_a_later_retry_waits_one_slot():
    """Offset 4 parks; offset 0 (ordered after it) is accepted at +8, so
    the parked slot at +8 had already come: it retries at +12."""
    cache, issue, retries = _scripted_run(parked=4, change=0,
                                          rejections={0: 2})
    assert _presented(cache, 0, issue) == [0, 4, 8]
    assert _presented(cache, 4, issue) == [4, 12]
    assert retries == 2 + 2  # the skipped attempt at +8 is charged


def test_wake_after_an_earlier_retry_presents_same_cycle():
    """Offset 0 parks; offset 4 (ordered before it) is accepted at +12,
    so the parked slot at +12 is still ahead: it retries at once."""
    cache, issue, retries = _scripted_run(
        parked=0, change=4, rejections={1: 4, 2: 4, 3: 4, 4: 2})
    assert _presented(cache, 4, issue) == [4, 8, 12]
    assert _presented(cache, 0, issue) == [0, 12]
    assert retries == 3 + 2 + 3 * 4
