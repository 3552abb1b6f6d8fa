"""In-process traced passes: the per-layer split of a list of runs.

Three serial passes over the same specs, each starting from a cold
arena cache:

1. untraced: ``execute_spec`` per spec, timed from outside;
2. wrapped: the steps of ``execute_spec`` called one by one through the
   public functions (``arena_for_spec``, ``make_l1d``,
   ``GPUSimulator.run``, ``compute_energy``), with each L1D instance's
   ``access``/``fill`` and the simulator's ``memory.issue_read``/
   ``issue_writeback`` wrapped by timers.  The result payloads must be
   bit-identical to pass 1;
3. profiled: ``execute_spec`` under cProfile, call counts bucketed by
   ``repro`` package (everything outside ``repro`` is ``stdlib``).

Per-transaction boundaries (10^5..10^6 per run) are kept only as
count/total-time aggregates.
"""

from __future__ import annotations

import cProfile
import time
from typing import Dict, List, Sequence, Tuple

from common import SRC, TraceLog, payload_digest

from repro.core.factory import make_l1d
from repro.energy.model import compute_energy, l1d_energy_params
from repro.engine import RunSpec, arena_for_spec, execute_spec, gpu_profile
from repro.engine.serialize import result_to_dict
from repro.gpu.simulator import GPUSimulator
from repro.workloads.arena import reset_arena_cache


_clock = time.perf_counter


def label(spec: RunSpec) -> str:
    return f"{spec.l1d.name}x{spec.workload}@{spec.seed}"


def transactions(payload: Dict) -> int:
    return payload["load_transactions"] + payload["store_transactions"]


def _timed(method, acc: List):
    """Wrap a bound method; ``acc`` collects ``[calls, seconds]``."""
    def wrapper(*args):
        start = _clock()
        value = method(*args)
        acc[1] += _clock() - start
        acc[0] += 1
        return value
    return wrapper


def _wrapped_run(spec: RunSpec, trace: TraceLog, track: str) -> Tuple[Dict, Dict]:
    """Pass 2 body for one spec: (result payload, boundary aggregates)."""
    agg = {name: [0, 0.0] for name in (
        "access", "fill", "issue_read", "issue_writeback", "make_l1d")}
    machine = gpu_profile(spec.gpu_profile).with_overrides(
        num_sms=spec.num_sms)
    t_arena = _clock()
    arena = arena_for_spec(spec)
    t_build = _clock()

    def l1d_factory():
        start = _clock()
        l1d = make_l1d(spec.l1d)
        agg["make_l1d"][0] += 1
        agg["make_l1d"][1] += _clock() - start
        l1d.access = _timed(l1d.access, agg["access"])
        l1d.fill = _timed(l1d.fill, agg["fill"])
        return l1d

    simulator = GPUSimulator(
        machine, l1d_factory=l1d_factory,
        warps_per_sm=arena.warps_per_sm, arena=arena,
    )
    memory = simulator.memory
    memory.issue_read = _timed(memory.issue_read, agg["issue_read"])
    memory.issue_writeback = _timed(
        memory.issue_writeback, agg["issue_writeback"])
    t_run = _clock()
    result = simulator.run(
        workload_name=spec.workload, config_name=spec.l1d.name)
    t_energy = _clock()
    result.energy = compute_energy(
        result,
        l1d_params=l1d_energy_params(spec.l1d.name),
        core_clock_ghz=machine.core_clock_ghz,
        net_hops=machine.net_hops,
    )
    t_end = _clock()
    timings = {
        "arena_s": t_build - t_arena,
        "run_s": t_energy - t_run,
        "energy_s": t_end - t_energy,
        "agg": agg,
    }
    boundaries = {
        f"{name}.calls": calls for name, (calls, _) in agg.items()}
    boundaries.update({
        f"{name}.total_us": seconds * 1e6
        for name, (_, seconds) in agg.items()})
    trace.span("arena_for_spec", t_arena, t_build, track)
    trace.span("GPUSimulator.init", t_build, t_run, track,
               **{k: v for k, v in boundaries.items()
                  if k.startswith("make_l1d")})
    trace.span("GPUSimulator.run", t_run, t_energy, track, **{
        k: v for k, v in boundaries.items()
        if not k.startswith("make_l1d")})
    trace.span("compute_energy", t_energy, t_end, track)
    return result_to_dict(result), timings


def _bucket(filename: str) -> str:
    marker = str(SRC / "repro") + "/"
    if not filename.startswith(marker):
        return "stdlib"
    rest = filename[len(marker):]
    return rest.split("/", 1)[0] if "/" in rest else "other"


def profile_calls(specs: Sequence[RunSpec]) -> Dict[str, int]:
    """Pass 3: Python calls per package over a cold pass of *specs*."""
    reset_arena_cache()
    profiler = cProfile.Profile()
    profiler.enable()
    try:
        for spec in specs:
            execute_spec(spec)
    finally:
        profiler.disable()
    # raw per-code-object entries: pstats keys by (file, line, name),
    # under which every dataclass-generated __init__ collides
    counts: Dict[str, int] = {}
    for entry in profiler.getstats():
        filename = getattr(entry.code, "co_filename", "")
        bucket = _bucket(filename)
        counts[bucket] = counts.get(bucket, 0) + entry.callcount
    return counts


def traced_passes(
    specs: Sequence[RunSpec], trace: TraceLog, track: str
) -> Dict:
    """Run the three passes; returns the per-layer ``metrics`` plus
    pass 1's ``digests``/``payloads`` by run label, its per-run seconds
    (``serial_s``) and the runs whose pass 2 differed (``mismatches``)."""
    labels = [label(spec) for spec in specs]

    reset_arena_cache()
    payloads: List[Dict] = []
    serial_s: List[float] = []
    pass1_start = _clock()
    for spec, name in zip(specs, labels):
        start = _clock()
        payloads.append(result_to_dict(execute_spec(spec)))
        serial_s.append(_clock() - start)
        trace.span("execute_spec", start, start + serial_s[-1],
                   f"{track}/pass1", run=name)
    wall1 = _clock() - pass1_start

    reset_arena_cache()
    mismatches: List[str] = []
    timings: List[Dict] = []
    pass2_start = _clock()
    for spec, name, expected in zip(specs, labels, payloads):
        payload, timing = _wrapped_run(spec, trace, f"{track}/pass2/{name}")
        timings.append(timing)
        if payload_digest(payload) != payload_digest(expected):
            mismatches.append(name)
    wall2 = _clock() - pass2_start

    calls = profile_calls(specs)

    txns = sum(transactions(p) for p in payloads)
    loads = sum(p["load_transactions"] for p in payloads)
    stores = txns - loads

    def total(name: str, index: int) -> float:
        return sum(t["agg"][name][index] for t in timings)

    presentations = total("access", 0)
    child_s = sum(total(name, 1) for name in (
        "access", "fill", "issue_read", "issue_writeback"))
    run_s = sum(t["run_s"] for t in timings)
    l1d = [p["l1d"] for p in payloads]
    accesses = sum(s["accesses"] for s in l1d)
    instructions = sum(p["instructions"] for p in payloads)
    cycles = sum(p["cycles"] for p in payloads)

    def per_call_us(name: str) -> float:
        count = total(name, 0)
        return total(name, 1) / count * 1e6 if count else 0.0

    metrics = {
        "workloads.pack_s": sum(t["arena_s"] for t in timings),
        "workloads.store_share": stores / txns,
        "gpu.self_us_per_txn": (run_s - child_s) / txns * 1e6,
        "gpu.presentations_per_txn": presentations / txns,
        "gpu.calls_per_txn": calls.get("gpu", 0) / txns,
        "gpu.sim_ipc": instructions / cycles,
        "cache.access_us": per_call_us("access"),
        "cache.fill_us": per_call_us("fill"),
        "cache.resfail_ratio": (
            sum(p["retries"] for p in payloads) / presentations),
        "cache.calls_per_txn": calls.get("cache", 0) / txns,
        "cache.hit_ratio": sum(s["hits"] for s in l1d) / accesses,
        "core.calls_per_txn": calls.get("core", 0) / txns,
        "memory.read_us": per_call_us("issue_read"),
        "memory.reads_per_txn": (
            sum(p["memory"]["reads"] for p in payloads) / txns),
        "memory.calls_per_txn": calls.get("memory", 0) / txns,
        "stdlib.calls_per_txn": calls.get("stdlib", 0) / txns,
        "energy.compute_ms": (
            sum(t["energy_s"] for t in timings) / len(timings) * 1e3),
        "telemetry.trace_overhead": wall2 / wall1 - 1.0,
    }
    return {
        "metrics": metrics,
        "digests": dict(zip(labels, (payload_digest(p) for p in payloads))),
        "payloads": dict(zip(labels, payloads)),
        "serial_s": serial_s,
        "mismatches": mismatches,
    }
