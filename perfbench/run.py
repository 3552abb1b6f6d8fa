"""Layered benchmark: cold sweeps and service jobs, with a traced split.

Usage (from the repository root)::

    python3 perfbench/run.py --workload sweep-worm --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload service-fleet --seed 1 --seconds 30 --trace 1
    python3 perfbench/run.py --self-test sweep-worm
    python3 perfbench/run.py --write-digests

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1`` (names and
units from ``BENCHMARK.json``).  Any correctness failure makes the exit
code 1.  See ``perfbench/README.md`` for the metric catalogue.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

from common import (  # noqa: E402
    DEFAULT_SEED,
    OUT_DIR,
    ROOT,
    SRC,
    SpeedProbe,
    Tally,
    TraceLog,
    live_descendants,
    payload_digest,
    stamp,
    write_digests,
)

WORKLOADS = ("sweep-worm", "sweep-thrash", "service-fleet")
#: per-layer metrics of layers a workload family never passes through
#: (reported as 0 there)
NOT_APPLICABLE = {
    "sweep": {
        "engine.store_hit_ratio", "service.submit_ms",
        "service.first_run_ms", "service.run_event_gap_ms",
        "service.request_ms.sweeps", "service.request_ms.events",
        "service.request_ms.leases", "service.request_ms.settle",
        "service.journal_appends_per_job", "lease.useful_ratio",
        "lease.runs_per_grant", "fleet.sim_busy_frac", "fleet.settle_ms",
        "fleet.idle_s_per_job",
    },
    "service": {"engine.first_outcome_s", "engine.pool_efficiency"},
}


def sanitize_environment():
    """Drop every ``REPRO_*`` knob (arena spill dirs, backends, stores
    would change what is measured); returns the dropped knobs (name ->
    value) and the environment for subprocesses."""
    dropped = {key: value for key, value in os.environ.items()
               if key.startswith("REPRO_")}
    for key in dropped:
        del os.environ[key]
    tmp = OUT_DIR / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    tempfile.tempdir = str(tmp)
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return dropped, env


def module_for(workload: str):
    if workload.startswith("sweep-"):
        import sweeps
        return sweeps
    import service
    return service


def declared_metrics(traced: bool):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return spec["per_layer" if traced else "end_to_end"]


def measure(args, env, dropped) -> int:
    tally = Tally()
    trace = TraceLog()

    def report(line: str) -> None:
        print(f"# {line}", flush=True)

    report(f"workload {args.workload} seed {args.seed} "
           f"seconds {args.seconds} trace {args.trace}")
    report("stamp " + json.dumps(stamp(dropped), sort_keys=True))
    module = module_for(args.workload)
    probe = SpeedProbe()
    started = time.perf_counter()
    try:
        measured = module.run(args.workload, args.seed, args.seconds,
                              bool(args.trace), env, tally, trace, probe,
                              report)
    except Exception as error:  # the result line must still be printed
        traceback.print_exc()
        tally.fail(f"{type(error).__name__}: {error}")
        measured = {}
    finally:
        probe.close()
    raw = measured.pop("raw", {})
    leaked = live_descendants(os.getpid())
    for pid in leaked:
        tally.fail(f"leaked process {pid}")
        os.kill(pid, 9)
        try:
            os.waitpid(pid, 0)
        except ChildProcessError:  # a grandchild: init reaps it
            pass
    report(f"total wall {time.perf_counter() - started:.1f}s")

    family = "sweep" if args.workload.startswith("sweep-") else "service"
    if probe.samples:
        report(f"host speed factor {probe.factor:.4f} over "
               f"{len(probe.samples)} probe loops on {probe.PROCESSES} "
               "processes (gated timings are divided by the factor of "
               "their stretch, rates multiplied)")
    metrics = {}
    for entry in declared_metrics(bool(args.trace)):
        name = entry["name"]
        if name in measured:
            value = float(measured[name])
            if name in raw:
                report(f"{name:36s} raw {raw[name]:.6g} {entry['unit']}")
        elif args.trace and name in NOT_APPLICABLE[family]:
            value = 0.0
        else:
            tally.fail(f"metric {name} was not measured")
            continue
        metrics[name] = {"value": value, "unit": entry["unit"]}
        report(f"{name:36s} {value:14.6g} {entry['unit']}")
    if args.trace:
        path = OUT_DIR / f"trace-{args.workload}-seed{args.seed}.json"
        trace.write(path)
        report(f"chrome trace: {path.relative_to(ROOT)}")
    for problem in tally.problems:
        report(f"FAIL {problem}")
    correct = tally.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": max(1, tally.attempted),
        "failed": tally.failed,
        "metrics": metrics,
    }))
    return 0 if correct else 1


def self_test(workload: str) -> int:
    """Two traced runs of one seed must repeat every count exactly; a
    run with another seed must change them."""
    counted = ("gpu.calls_per_txn", "cache.calls_per_txn",
               "core.calls_per_txn", "memory.calls_per_txn",
               "stdlib.calls_per_txn", "gpu.presentations_per_txn",
               "memory.reads_per_txn")
    ok = True
    runs = []
    for seed in (DEFAULT_SEED, DEFAULT_SEED, DEFAULT_SEED + 1):
        proc = subprocess.run(
            [sys.executable, __file__, "--workload", workload, "--seed",
             str(seed), "--seconds", "5", "--trace", "1"],
            capture_output=True, text=True, cwd=str(ROOT))
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok &= proc.returncode == 0 and result["correct"]
        runs.append({name: result["metrics"][name]["value"]
                     for name in counted})
    for name in counted:
        same = runs[0][name] == runs[1][name]
        ok &= same
        print(f"{name:28s} {runs[0][name]:.6f} {runs[1][name]:.6f} "
              f"(seed+1: {runs[2][name]:.6f}) {'ok' if same else 'MISMATCH'}")
    differs = runs[0] != runs[2]
    print(f"another seed changes the counts: {differs}")
    ok &= differs
    print("self-test", "passed" if ok else "FAILED")
    return 0 if ok else 1


def record_digests() -> int:
    """Regenerate digests.json for the default seed (in-process)."""
    from repro.engine import execute_spec
    from repro.engine.serialize import result_to_dict
    import layers

    for workload in WORKLOADS:
        digests = {
            layers.label(spec): payload_digest(
                result_to_dict(execute_spec(spec)))
            for spec in module_for(workload).reference_specs(
                workload, DEFAULT_SEED)
        }
        write_digests(workload, digests)
        print(f"{workload}: {len(digests)} digests")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", choices=WORKLOADS, metavar="WORKLOAD",
                        help="check that traced counts repeat exactly")
    parser.add_argument("--write-digests", action="store_true",
                        help="regenerate digests.json for the default seed")
    args = parser.parse_args()
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no repro source tree at {SRC}", file=sys.stderr)
        return 2
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    dropped, env = sanitize_environment()
    sys.path.insert(0, str(SRC))
    if args.self_test:
        return self_test(args.self_test)
    if args.write_digests:
        return record_digests()
    if args.workload is None:
        parser.error("--workload is required")
    return measure(args, env, dropped)


if __name__ == "__main__":
    sys.exit(main())
