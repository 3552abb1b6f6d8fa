"""Shared helpers: statistics, result digests, RSS, report stamp, trace file.

Nothing here imports ``repro``: ``run.py`` must be able to report a
missing source tree before any repository module is touched.
"""

from __future__ import annotations

import hashlib
import json
import multiprocessing
import os
import platform
import resource
import statistics
import sys
import time
from pathlib import Path
from typing import Dict, List, Sequence

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
DIGESTS_PATH = BENCH_DIR / "digests.json"

#: the seed whose per-run result digests are committed in digests.json
DEFAULT_SEED = 1


class Tally:
    """Attempted/failed bookkeeping plus the failure messages."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []

    def attempt(self, ok: bool = True, problem: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.fail(problem)

    def fail(self, problem: str) -> None:
        """A failure outside the attempted operations (a leaked process,
        a digest mismatch): counts as failed and makes the run incorrect."""
        self.failed += 1
        if len(self.problems) < 20:
            self.problems.append(problem)


def median(values: Sequence[float]) -> float:
    return statistics.median(values) if values else 0.0


def mean(values: Sequence[float]) -> float:
    return statistics.fmean(values) if values else 0.0


def p90(values: Sequence[float]) -> float:
    """Inclusive 90th percentile (interpolated inside the sample)."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10, method="inclusive")[8]


def latency_line(values: Sequence[float]) -> str:
    """Sample count and deciles of a latency sample, for the report."""
    if len(values) < 2:
        return f"n={len(values)} " + " ".join(f"{v:.4g}" for v in values)
    deciles = statistics.quantiles(values, n=10, method="inclusive")
    return (f"n={len(values)} min {min(values):.4g} "
            + " ".join(f"p{10 * (i + 1)} {q:.4g}" for i, q in enumerate(deciles))
            + f" max {max(values):.4g}")


def payload_digest(payload: Dict) -> str:
    """SHA-256 of a result payload's canonical JSON encoding."""
    canonical = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode()).hexdigest()


def committed_digests(workload: str) -> Dict[str, str]:
    if not DIGESTS_PATH.exists():
        return {}
    return json.loads(DIGESTS_PATH.read_text()).get(workload, {})


def write_digests(workload: str, digests: Dict[str, str]) -> None:
    table = (
        json.loads(DIGESTS_PATH.read_text()) if DIGESTS_PATH.exists() else {}
    )
    table[workload] = dict(sorted(digests.items()))
    DIGESTS_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")


def check_digests(
    workload: str, seed: int, digests: Dict[str, str], tally: Tally
) -> None:
    """Compare the default seed's per-run digests with the committed ones."""
    if seed != DEFAULT_SEED:
        return
    expected = committed_digests(workload)
    if not expected:
        tally.fail(f"no committed digests for {workload}")
        return
    for label, digest in expected.items():
        if digests.get(label) != digest:
            tally.fail(f"{label}: result digest differs from digests.json")


def vm_hwm_mb(pid: int) -> float:
    """Peak resident set (VmHWM) of a live process, in MB."""
    try:
        for line in Path(f"/proc/{pid}/status").read_text().splitlines():
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    except OSError:
        pass
    return 0.0


def self_peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def children_peak_rss_mb() -> float:
    """Largest peak RSS among reaped child processes (pool workers)."""
    return resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024.0


def live_descendants(pid: int) -> List[int]:
    """Every live descendant of *pid* (zombies excluded)."""
    found: List[int] = []
    stack = [pid]
    while stack:
        parent = stack.pop()
        try:
            tasks = os.listdir(f"/proc/{parent}/task")
        except OSError:
            continue
        for tid in tasks:
            try:
                text = Path(f"/proc/{parent}/task/{tid}/children").read_text()
            except OSError:
                continue
            for child in text.split():
                child_pid = int(child)
                try:
                    state = Path(f"/proc/{child_pid}/stat").read_text()
                except OSError:
                    continue
                if state.rsplit(")", 1)[1].split()[0] != "Z":
                    found.append(child_pid)
                stack.append(child_pid)
    return found


def stamp(repro_env: Dict[str, str]) -> Dict:
    """Host, interpreter and the caller's ``REPRO_*`` environment (which
    the benchmark clears before it measures anything)."""
    return {
        "host": platform.node(),
        "platform": platform.platform(),
        "cpus": os.cpu_count(),
        "python": sys.version.split()[0],
        "implementation": platform.python_implementation(),
        "repro_env": dict(sorted(repro_env.items())),
    }


def _loop_seconds(count: int) -> List[float]:
    """Wall seconds of *count* runs of the fixed probe loop."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        total = 0
        for i in range(SpeedProbe.LOOP):
            total += i * i
        times.append(time.perf_counter() - start)
    return times


def _probe_process(conn) -> None:
    """Time loops on request until told to stop (``None``)."""
    while True:
        count = conn.recv()
        if count is None:
            return
        conn.send(_loop_seconds(count))


class SpeedProbe:
    """The host's current speed, from a fixed pure-Python loop.

    On a shared VM each vCPU runs faster or slower for seconds to
    minutes at a time, by 10-40%, and the two vCPUs do not move
    together.  The loop therefore runs in one process per vCPU at once,
    between measurements, while the workload is paused.  The speed
    factor of a probe is (median loop time / ``NOMINAL_S``) **
    ``ELASTICITY``; gated timings are divided by the factor of the
    stretch they were taken in (rates multiplied), so they read as on a
    host that runs the loop in ``NOMINAL_S``.  ``close()`` stops the
    probe processes.
    """

    LOOP = 100_000
    #: loop time on the 2-vCPU VM the bounds were set on (its fast phase)
    NOMINAL_S = 0.006
    #: the workloads' times move as the loop's to this power: the
    #: log-log slope measured on that VM (a tight loop suffers more from
    #: a busy sibling core than the simulator does)
    ELASTICITY = 0.7
    PROCESSES = 2

    def __init__(self) -> None:
        self.samples: List[float] = []
        context = multiprocessing.get_context("fork")
        self._conns = []
        self._procs = []
        for _ in range(self.PROCESSES):
            parent, child = context.Pipe()
            proc = context.Process(target=_probe_process, args=(child,),
                                   daemon=True)
            proc.start()
            self._conns.append(parent)
            self._procs.append(proc)

    def sample(self, count: int) -> float:
        """Time *count* loops in every probe process; returns their
        speed factor."""
        for conn in self._conns:
            conn.send(count)
        batch = [seconds for conn in self._conns for seconds in conn.recv()]
        self.samples += batch
        return self._factor(batch)

    @property
    def factor(self) -> float:
        """Speed factor over every loop timed so far."""
        return self._factor(self.samples)

    def _factor(self, seconds: List[float]) -> float:
        return (statistics.median(seconds) / self.NOMINAL_S) ** self.ELASTICITY

    def close(self) -> None:
        for conn, proc in zip(self._conns, self._procs):
            try:
                conn.send(None)
            except OSError:
                pass
            proc.join(timeout=5)
            if proc.is_alive():
                proc.kill()
                proc.join()
        self._conns, self._procs = [], []


class TraceLog:
    """Spans kept in memory and written once, as a Chrome trace.

    Per-transaction boundaries never become spans; callers attach them
    to a run's span as count/total-time aggregates in ``args``.
    """

    def __init__(self) -> None:
        self.events: List[Dict] = []

    def span(self, name: str, start_s: float, end_s: float,
             track: str, **args) -> None:
        self.events.append({
            "name": name, "ph": "X", "pid": 1, "tid": track,
            "ts": start_s * 1e6, "dur": max(0.0, end_s - start_s) * 1e6,
            "args": args,
        })

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps({"traceEvents": self.events}))
