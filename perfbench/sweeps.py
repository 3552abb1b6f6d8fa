"""Cold Table I sweeps through ``ExperimentEngine.run_specs``.

Each timed sweep starts from an empty arena cache and no result store,
so it pays what a user's cold sweep pays: arena packing, the pool fork
and every simulation.
"""

from __future__ import annotations

import subprocess
import sys
import time
from typing import Dict, List

from common import (
    SRC,
    SpeedProbe,
    Tally,
    TraceLog,
    check_digests,
    children_peak_rss_mb,
    latency_line,
    median,
    payload_digest,
    self_peak_rss_mb,
    p90,
)

from repro.engine import ExperimentEngine, RunSpec, execute_spec
from repro.engine.serialize import result_to_dict
from repro.workloads.arena import reset_arena_cache

import layers

#: (config, workload) pairs per sweep workload; see README.md for why
PAIRS = {
    "sweep-worm": [
        ("Dy-FUSE", "GEMM"), ("Dy-FUSE", "2DCONV"), ("Dy-FUSE", "SS"),
        ("Base-FUSE", "GEMM"), ("L1-SRAM", "GEMM"), ("L1-SRAM", "2DCONV"),
    ],
    "sweep-thrash": [
        ("L1-SRAM", "BICG"), ("Hybrid", "PVC"), ("By-NVM", "PVC"),
        ("Dy-FUSE", "histo"),
    ],
}
SCALE = "test"
NUM_SMS = 4
POOL_WORKERS = 2
#: fresh interpreters timed per run for setup_s (median reported)
SETUP_REPEATS = 5
#: speed-probe loops around the set-up and between sweeps (untimed)
SWEEP_PROBES = 5


def specs_for(workload: str, seed: int) -> List[RunSpec]:
    """The sweep's runs at one trace seed."""
    return [
        RunSpec.build(config, name, scale=SCALE, seed=seed, num_sms=NUM_SMS)
        for config, name in PAIRS[workload]
    ]


def reference_specs(workload: str, seed: int) -> List[RunSpec]:
    """The first sweep of a run: its default-seed digests are committed."""
    return specs_for(workload, seed * 1000)


def import_seconds(env: Dict[str, str]) -> float:
    """Wall time of a fresh interpreter importing the engine."""
    start = time.perf_counter()
    subprocess.run(
        [sys.executable, "-c", "import repro.engine"],
        env=env, check=True, cwd=str(SRC.parent),
    )
    return time.perf_counter() - start


def _sweep(engine: ExperimentEngine, specs: List[RunSpec], tally: Tally):
    """One cold sweep: (wall seconds, {label: payload}, per-run seconds
    from the ``run_specs`` call to that run's ``on_outcome``)."""
    reset_arena_cache()
    settled: List[float] = []
    start = time.perf_counter()
    outcomes = engine.run_specs(
        specs, on_outcome=lambda _: settled.append(time.perf_counter()))
    wall = time.perf_counter() - start
    payloads = {}
    for outcome in outcomes:
        name = layers.label(outcome.spec)
        tally.attempt(outcome.ok, f"{name}: {str(outcome.error)[-200:]}")
        if outcome.ok:
            payloads[name] = result_to_dict(outcome.result)
    return wall, payloads, [at - start for at in settled]


def trimmed_mean(values: List[float]) -> float:
    """Mean without the highest and the lowest value (when there are
    at least 5)."""
    ordered = sorted(values)
    if len(ordered) >= 5:
        ordered = ordered[1:-1]
    return sum(ordered) / len(ordered)


def sweep_metrics(sweeps: List[Dict]) -> Dict:
    """The gated timings and rates of a run, from its sweeps.

    Each sweep holds its wall ``seconds``, the ``latencies`` of its
    runs' results, its ``runs`` and simulated ``txns``, and the speed
    ``factor`` the probe measured around it.  Each metric is taken per
    sweep, normalised by that sweep's factor, and averaged over the
    sweeps without the highest and the lowest, so a stall that hits one
    sweep does not move it.  (Pooled over the runs of all sweeps, the
    p50 falls between two completion ranks and jumps from run to run.)
    The same averages without normalisation go under ``raw``.
    """
    def medians(normalise: bool) -> Dict[str, float]:
        rows = []
        for sweep in sweeps:
            factor = sweep["factor"] if normalise else 1.0
            seconds = sweep["seconds"] / factor
            latencies = [at / factor for at in sweep["latencies"]]
            rows.append({
                "sim_txn_per_s": sweep["txns"] / seconds,
                "runs_per_s": sweep["runs"] / seconds,
                "job_s.p50": median(latencies),
                "job_s.p90": p90(latencies),
            })
        return {name: trimmed_mean([row[name] for row in rows])
                for name in rows[0]}

    metrics = medians(True)
    metrics["raw"] = medians(False)
    return metrics


def run(workload: str, seed: int, seconds: float, traced: bool,
        env: Dict[str, str], tally: Tally, trace: TraceLog,
        probe: SpeedProbe, report) -> Dict:
    """One benchmark run; returns its metrics by name (gated timings
    normalised by the speed probe, their raw values under ``raw``)."""
    before_setup = probe.sample(SWEEP_PROBES)
    setup_s = median([import_seconds(env) for _ in range(SETUP_REPEATS)])
    engine = ExperimentEngine(store=None, workers=POOL_WORKERS)

    # sweep i simulates trace seed seed*1000+i: successive sweeps are
    # distinct inputs, so a run averages over inputs as well as noise.
    # A sweep's speed factor is the mean of the probes just before and
    # just after it.
    sweeps: List[Dict] = []
    latencies: List[float] = []
    before = probe.sample(SWEEP_PROBES)
    setup_factor = (before_setup + before) / 2
    started = time.perf_counter()
    while True:
        specs = specs_for(workload, seed * 1000 + len(sweeps))
        t0 = time.perf_counter()
        wall, payloads, settled = _sweep(engine, specs, tally)
        first_s = min(settled)
        trace.span("run_specs", t0, t0 + wall, "sweeps",
                   runs=len(specs), first_outcome_s=first_s)
        after = probe.sample(SWEEP_PROBES)
        if not sweeps:
            first_specs = specs
            reference = {k: payload_digest(v) for k, v in payloads.items()}
        sweeps.append({
            "seconds": wall, "factor": (before + after) / 2,
            "latencies": settled, "runs": len(payloads),
            "txns": sum(layers.transactions(p) for p in payloads.values()),
        })
        before = after
        latencies += settled
        elapsed = time.perf_counter() - started
        if traced or elapsed + median(
                [sweep["seconds"] for sweep in sweeps]) > seconds:
            break
    check_digests(workload, seed, reference, tally)

    # one run of the first sweep, re-executed serially in-process, must
    # match the pool's copy
    sample = first_specs[seed % len(first_specs)]
    direct = payload_digest(result_to_dict(execute_spec(sample)))
    if reference.get(layers.label(sample)) != direct:
        tally.fail(f"{layers.label(sample)}: pool result != execute_spec")

    walls = [sweep["seconds"] for sweep in sweeps]
    report(f"{len(walls)} cold sweeps of {len(first_specs)} runs "
           f"({SCALE} scale, {NUM_SMS} SMs, {POOL_WORKERS} pool workers)")
    report("sweep wall " + latency_line(walls))
    report("run result " + latency_line(latencies))
    report("sweep speed factors " + latency_line(
        [sweep["factor"] for sweep in sweeps]))
    if not traced:
        metrics = sweep_metrics(sweeps)
        metrics["setup_s"] = setup_s / setup_factor
        metrics["raw"]["setup_s"] = setup_s
        metrics["peak_rss_mb"] = (
            self_peak_rss_mb() + POOL_WORKERS * children_peak_rss_mb())
        return metrics

    passes = layers.traced_passes(first_specs, trace, workload)
    if passes["digests"] != reference:
        tally.fail("serial pass digests differ from the pooled sweep")
    for name in passes["mismatches"]:
        tally.fail(f"{name}: wrapped pass not bit-identical to execute_spec")
    if workload == "sweep-worm":
        report(_paper_context(passes["payloads"]))
    metrics = passes["metrics"]
    metrics["engine.first_outcome_s"] = first_s
    metrics["engine.pool_efficiency"] = (
        sum(passes["serial_s"]) / (POOL_WORKERS * walls[-1]))
    return metrics


def _paper_context(payloads: Dict[str, Dict]) -> str:
    """Dy-FUSE / L1-SRAM ratios of off-chip reads and IPC (context only:
    the model is unvalidated against hardware)."""
    parts = []
    for name in ("GEMM", "2DCONV"):
        fuse = next(p for k, p in payloads.items()
                    if k.startswith(f"Dy-FUSEx{name}@"))
        sram = next(p for k, p in payloads.items()
                    if k.startswith(f"L1-SRAMx{name}@"))
        reads = fuse["memory"]["reads"] / sram["memory"]["reads"]
        ipc = ((fuse["instructions"] / fuse["cycles"])
               / (sram["instructions"] / sram["cycles"]))
        parts.append(f"{name}: off-chip reads x{reads:.2f}, IPC x{ipc:.2f}")
    return "Dy-FUSE / L1-SRAM (context, not an error figure): " + "; ".join(parts)
