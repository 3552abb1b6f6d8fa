"""Service jobs on a fleet: ``repro serve --remote`` and ``repro worker``.

The coordinator and its workers run as subprocesses exactly as a user
starts them; load comes from client threads in this process, each a
closed loop (submit, follow the job's SSE stream to ``done``, submit
the next).  Job latency is timed from the submit call to the arrival
of the SSE ``done`` event.  Layer costs come from client-side spans and
from ``GET /metrics`` scraped before and after the timed window.
"""

from __future__ import annotations

import random
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional, Tuple

from common import (
    OUT_DIR,
    ROOT,
    SpeedProbe,
    Tally,
    TraceLog,
    check_digests,
    latency_line,
    mean,
    median,
    p90,
    payload_digest,
    self_peak_rss_mb,
    vm_hwm_mb,
)

from repro.engine import RunSpec, execute_spec
from repro.engine.serialize import result_to_dict
from repro.service.client import ServiceClient, ServiceError

import layers

SCALE = "smoke"
NUM_SMS = 2
CLIENTS = 2
FLEET_WORKERS = 2
SETUP_REPEATS = 3
#: a block of jobs is two one-run jobs per pair, then one FLEET_GRID
#: job.  Grid jobs stay rare enough that the p50 falls inside the
#: one-run jobs' mode.  Every job has a fresh seed, except that the
#: block's second By-NVM x PVC and Hybrid x PVC jobs share the grid
#: job's seed: the grid job finds those 2 runs (GRID_PAIRS) in the store
#: and leases the other 4 in batches of FLEET_MAX_RUNS, so both workers
#: share it.
FLEET_PAIRS = [
    ("L1-SRAM", "GEMM"), ("Dy-FUSE", "GEMM"),
    ("By-NVM", "PVC"), ("Hybrid", "PVC"),
]
FLEET_GRID = {"configs": ["By-NVM", "Hybrid"],
              "workloads": ["2DCONV", "GEMM", "PVC"]}
FLEET_MAX_RUNS = 2
FLEET_BLOCK = 2 * len(FLEET_PAIRS) + 1
#: the pairs that are also runs of the grid job
GRID_PAIRS = [(config, name) for config, name in FLEET_PAIRS
              if config in FLEET_GRID["configs"]
              and name in FLEET_GRID["workloads"]]
#: the timed window is cut into slices of this length; between slices
#: both clients pause while the speed probe runs PROBE_LOOPS loops
SLICE_S = 2.5
PROBE_LOOPS = 3
#: records per run re-executed in-process and compared
SAMPLED_RECORDS = 3
START_TIMEOUT_S = 30.0
STOP_TIMEOUT_S = 10.0
#: request-time routes reported per layer (label -> metrics route)
ROUTES = {
    "sweeps": "/v1/sweeps",
    "events": "/v1/jobs/{id}/events",
    "leases": "/v1/leases",
    "settle": "/v1/leases/{id}/settle",
}


def job_request(seed: int, client: int, index: int) -> Dict:
    """Job *index* of *client*; ``store_hits`` is how many of its runs
    an earlier job of the same client has already simulated."""
    block, position = divmod(index, FLEET_BLOCK)
    base = seed * 100_000 + client * 10_000 + block * FLEET_BLOCK
    grid_seed = base + FLEET_BLOCK - 1
    if position == FLEET_BLOCK - 1:
        return {**FLEET_GRID, "seed": grid_seed,
                "store_hits": len(GRID_PAIRS)}
    config, name = FLEET_PAIRS[position % len(FLEET_PAIRS)]
    shared = (position >= len(FLEET_PAIRS)
              and (config, name) in GRID_PAIRS)
    return {"configs": [config], "workloads": [name],
            "seed": grid_seed if shared else base + position,
            "store_hits": 0}


def request_specs(request: Dict) -> List[RunSpec]:
    return [
        RunSpec.build(config, name, scale=SCALE, seed=request["seed"],
                      num_sms=NUM_SMS)
        for name in request["workloads"] for config in request["configs"]
    ]


def reference_specs(workload: str, seed: int) -> List[RunSpec]:
    """The runs of each client's first block, whose default-seed
    digests are committed."""
    specs = {}
    for client in range(CLIENTS):
        for index in range(FLEET_BLOCK):
            for spec in request_specs(job_request(seed, client, index)):
                specs[spec.key().digest] = spec
    return list(specs.values())


# ----------------------------------------------------------------------
def parse_metrics(text: str) -> Dict[Tuple[str, str], float]:
    """Prometheus exposition -> {(family sample name, labels): value}."""
    samples = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        match = re.match(r"([a-zA-Z_:][\w:]*)(\{.*\})?\s+(\S+)$", line)
        if match:
            samples[(match.group(1), match.group(2) or "")] = float(
                match.group(3))
    return samples


def _delta(before, after, name: str, labels: str = "") -> float:
    """Counter delta summed over every label set containing *labels*."""
    return sum(
        value - before.get(key, 0.0)
        for key, value in after.items()
        if key[0] == name and labels in key[1]
    )


class Deployment:
    """One ``repro serve --remote`` plus its workers, in a private
    directory."""

    def __init__(self, env: Dict[str, str], tally: Tally):
        self.env = env
        self.tally = tally
        OUT_DIR.mkdir(parents=True, exist_ok=True)
        self.dir = Path(tempfile.mkdtemp(prefix="svc-", dir=OUT_DIR))
        self.serve: Optional[subprocess.Popen] = None
        self.workers: List[subprocess.Popen] = []
        self.url = ""
        self._files = []

    def _spawn(self, args: List[str], name: str) -> subprocess.Popen:
        out = open(self.dir / f"{name}.out", "w")
        err = open(self.dir / f"{name}.err", "w")
        self._files += [out, err]
        return subprocess.Popen(
            [sys.executable, "-m", "repro", *args], stdout=out, stderr=err,
            env=self.env, cwd=str(ROOT),
        )

    def start(self) -> None:
        """Serve until ``/healthz`` answers, then workers until both are
        registered."""
        args = ["serve", "--port", "0", "--remote",
                "--journal", str(self.dir / "journal.jsonl"),
                "--store", str(self.dir / "store"),
                "--store-backend", "sharded"]
        self.serve = self._spawn(args, "serve")
        deadline = time.monotonic() + START_TIMEOUT_S
        announce = self.dir / "serve.out"
        while not self.url:
            match = re.search(r"http://[\d.]+:\d+", announce.read_text())
            if match:
                self.url = match.group(0)
            elif self.serve.poll() is not None or time.monotonic() > deadline:
                raise RuntimeError(
                    "repro serve did not start: "
                    + (self.dir / "serve.err").read_text()[-500:])
            else:
                time.sleep(0.01)
        client = ServiceClient(self.url)
        while True:
            try:
                if client.healthz().get("status") == "ok":
                    break
            except ServiceError:
                pass
            if time.monotonic() > deadline:
                raise RuntimeError("repro serve never became healthy")
            time.sleep(0.01)
        self.workers = [
            self._spawn(["worker", "--url", self.url, "--quiet",
                         "--max-runs", str(FLEET_MAX_RUNS)], f"worker{i}")
            for i in range(FLEET_WORKERS)
        ]
        while sum(
            w["state"] == "live"
            for w in client.workers().get("workers", [])
        ) < FLEET_WORKERS:
            if time.monotonic() > deadline:
                raise RuntimeError("workers did not register")
            time.sleep(0.01)

    def peak_rss_mb(self) -> float:
        procs = ([self.serve] if self.serve else []) + self.workers
        return sum(vm_hwm_mb(proc.pid) for proc in procs)

    def stop(self) -> None:
        """SIGTERM workers first (they retry a vanished coordinator
        forever), then the service; anything still alive is a leak."""
        for proc in self.workers + ([self.serve] if self.serve else []):
            if proc.poll() is None:
                proc.send_signal(signal.SIGTERM)
            try:
                proc.wait(timeout=STOP_TIMEOUT_S)
            except subprocess.TimeoutExpired:
                self.tally.fail(f"pid {proc.pid} ignored SIGTERM (leaked)")
                proc.kill()
                proc.wait()
        for handle in self._files:
            handle.close()
        self.workers, self.serve, self._files = [], None, []
        shutil.rmtree(self.dir, ignore_errors=True)


def run_job(client: ServiceClient, request: Dict, spans: bool) -> Dict:
    """Submit one job and follow its SSE stream to ``done``."""
    record = {"request": request, "t0": time.perf_counter(), "events": []}
    try:
        accepted = client.submit(
            request["configs"], request["workloads"], scale=SCALE,
            seed=request["seed"], num_sms=NUM_SMS)
        record["t_accept"] = time.perf_counter()
        record["job"] = accepted["job"]
        for name, payload in client.events(accepted["job"]):
            now = time.perf_counter()
            if spans:
                record["events"].append((name, now))
            if "t_first_run" not in record and payload.get("completed"):
                record["t_first_run"] = now
            if name == "done":
                record["t_done"] = now
                record["done"] = payload
    except (ServiceError, OSError, ValueError) as error:
        record["error"] = str(error)
    return record


def check_job(record: Dict) -> str:
    """Empty string when the job ended as its request requires."""
    if "error" in record:
        return record["error"][:200]
    done = record.get("done")
    if done is None:
        return "stream ended without a done event"
    expected = len(record["request"]["configs"]) * len(
        record["request"]["workloads"])
    if done.get("state") != "done" or done.get("errors"):
        return f"job {done.get('job', '?')[:12]} ended {done.get('state')}"
    if done.get("total") != expected:
        return f"job has {done.get('total')} runs, expected {expected}"
    hits = record["request"]["store_hits"]
    if done.get("store_hits") != hits or done.get("fresh") != expected - hits:
        return (f"job served {done.get('store_hits')} runs from the store "
                f"and {done.get('fresh')} fresh, expected {hits} and "
                f"{expected - hits}")
    return ""


def _load(url: str, seed: int, seconds: float, traced: bool,
          probe: SpeedProbe):
    """Closed-loop client threads for about *seconds* of load.

    The load runs in slices of ``SLICE_S``; at the end of a slice each
    client finishes its job and waits for the other, and the speed
    probe runs while both are paused.  Returns the job records (each
    tagged with its slice), each slice's loaded seconds, and each
    slice's speed factor (the mean of the probes before and after it).
    """
    records: List[Dict] = []
    lock = threading.Lock()
    slices = max(1, round(seconds / SLICE_S))
    factors = [probe.sample(PROBE_LOOPS)]
    busy: List[float] = []
    state = {"start": time.perf_counter()}

    def between_slices() -> None:
        busy.append(time.perf_counter() - state["start"])
        factors.append(probe.sample(PROBE_LOOPS))
        state["start"] = time.perf_counter()

    barrier = threading.Barrier(CLIENTS, action=between_slices)
    errors: List[str] = []

    def client_loop(client_id: int) -> None:
        client = ServiceClient(url)
        index = 0
        try:
            while len(busy) < slices:
                current = len(busy)
                slice_end = state["start"] + SLICE_S
                while time.perf_counter() < slice_end:
                    request = job_request(seed, client_id, index)
                    # traced runs span alternate blocks of FLEET_BLOCK
                    # jobs, so the unspanned half measures what spans cost
                    spanned = traced and (index // FLEET_BLOCK) % 2 == 0
                    record = run_job(client, request, spans=spanned)
                    record.update(client=client_id, spanned=spanned,
                                  slice=current)
                    with lock:
                        records.append(record)
                    index += 1
                barrier.wait(timeout=START_TIMEOUT_S)
        except threading.BrokenBarrierError:
            errors.append(f"client {client_id}: the other client stopped")
        except Exception as error:  # the other client must not wait forever
            errors.append(f"client {client_id}: {error!r}")
            barrier.abort()

    threads = [threading.Thread(target=client_loop, args=(i,))
               for i in range(CLIENTS)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise RuntimeError("; ".join(errors))
    slice_factors = [(a + b) / 2 for a, b in zip(factors, factors[1:])]
    return records, busy, slice_factors


def run(workload: str, seed: int, seconds: float, traced: bool,
        env: Dict[str, str], tally: Tally, trace: TraceLog,
        probe: SpeedProbe, report) -> Dict:
    """One benchmark run; returns its metrics by name (gated timings
    normalised by the speed probe, their raw values under ``raw``)."""
    # each set-up is normalised by the probes just before and after it
    setups: List[float] = []
    norm_setups: List[float] = []
    deployment = None
    try:
        before = probe.sample(PROBE_LOOPS)
        for attempt in range(SETUP_REPEATS):
            deployment = Deployment(env, tally)
            start = time.perf_counter()
            deployment.start()
            setups.append(time.perf_counter() - start)
            after = probe.sample(PROBE_LOOPS)
            norm_setups.append(setups[-1] / ((before + after) / 2))
            before = after
            if attempt < SETUP_REPEATS - 1:
                deployment.stop()
        measured = _measure(deployment, workload, seed, seconds, traced,
                            tally, trace, probe, report)
        if not traced:
            measured["setup_s"] = median(norm_setups)
            measured["raw"]["setup_s"] = median(setups)
        return measured
    finally:
        if deployment is not None:
            deployment.stop()


def _measure(deployment: Deployment, workload: str, seed: int,
             seconds: float, traced: bool, tally: Tally, trace: TraceLog,
             probe: SpeedProbe, report) -> Dict:
    client = ServiceClient(deployment.url)
    before = parse_metrics(client.metrics())
    records, busy, factors = _load(deployment.url, seed, seconds, traced,
                                   probe)
    after = parse_metrics(client.metrics())

    good = []
    for record in records:
        problem = check_job(record)
        tally.attempt(not problem, problem)
        if not problem:
            good.append(record)
    if not good:
        raise RuntimeError("no service job completed")

    # transactions simulated for every run key the good jobs delivered
    txns = {}
    for record in good:
        for entry in record["done"]["runs"]:
            if entry["key"] not in txns:
                txns[entry["key"]] = layers.transactions(
                    client.result(entry["key"])["result"])
    _check_results(workload, seed, client, good, tally)
    peak_rss = self_peak_rss_mb() + deployment.peak_rss_mb()
    wall = sum(busy)
    job_s = [r["t_done"] - r["t0"] for r in good]
    runs = sum(len(r["done"]["runs"]) for r in good)
    sim_txns = sum(txns[entry["key"]] for r in good
                   for entry in r["done"]["runs"])
    report(f"{len(records)} jobs from {CLIENTS} closed-loop clients over "
           f"{wall:.1f}s in {len(busy)} slices ({SCALE} scale, "
           f"{NUM_SMS} SMs)")
    report("job " + latency_line(job_s))
    report("slice speed factors " + latency_line(factors))

    if not traced:
        # each job's latency is normalised by its slice's speed factor
        # and the wall time slice by slice; quantiles over all jobs
        norm_wall = sum(b / f for b, f in zip(busy, factors))
        norm_job_s = [(r["t_done"] - r["t0"]) / factors[r["slice"]]
                      for r in good]
        return {
            "sim_txn_per_s": sim_txns / norm_wall,
            "job_s.p50": median(norm_job_s),
            "job_s.p90": p90(norm_job_s),
            "runs_per_s": runs / norm_wall,
            "peak_rss_mb": peak_rss,
            "raw": {
                "sim_txn_per_s": sim_txns / wall,
                "job_s.p50": median(job_s),
                "job_s.p90": p90(job_s),
                "runs_per_s": runs / wall,
            },
        }
    return _layer_metrics(workload, seed, good, before, after, wall,
                          tally, trace)


def _check_results(workload: str, seed: int, client: ServiceClient,
                   good: List[Dict], tally: Tally) -> None:
    """Committed digests for the default seed's reference runs, and a
    sample of served records against in-process ``execute_spec``."""
    reference = {}
    for spec in reference_specs(workload, seed):
        try:
            payload = client.result(spec.key().digest)["result"]
        except ServiceError as error:
            tally.fail(f"{layers.label(spec)}: {error}")
            continue
        reference[layers.label(spec)] = payload_digest(payload)
    check_digests(workload, seed, reference, tally)
    rng = random.Random(seed)
    for record in rng.sample(good, min(SAMPLED_RECORDS, len(good))):
        spec = rng.choice(request_specs(record["request"]))
        served = client.result(spec.key().digest)["result"]
        direct = result_to_dict(execute_spec(spec))
        if payload_digest(served) != payload_digest(direct):
            tally.fail(f"{layers.label(spec)}: served record != execute_spec")


def _idle_s(record: Dict) -> float:
    """Job latency not spent simulating: ``job_s`` minus the simulation
    seconds of the busiest worker on that job (its runs' ``timing``)."""
    per_worker: Dict[str, float] = {}
    for entry in record["done"]["runs"]:
        if "timing" in entry:
            worker = entry.get("worker", "")
            per_worker[worker] = (per_worker.get(worker, 0.0)
                                  + entry["timing"].get("sim_s", 0.0))
    return record["t_done"] - record["t0"] - max(per_worker.values(),
                                                  default=0.0)


def _layer_metrics(workload: str, seed: int, good: List[Dict], before,
                   after, wall: float, tally: Tally, trace: TraceLog) -> Dict:
    for record in good:
        if not record["spanned"]:
            continue
        track = f"client{record['client']}/{record['job'][:12]}"
        trace.span("submit", record["t0"], record["t_accept"], track)
        trace.span("job", record["t0"], record["t_done"], track,
                   job=record["job"])
        previous = record["t_accept"]
        for name, at in record["events"]:
            trace.span(name, previous, at, track)
            previous = at

    def gaps(record: Dict) -> List[float]:
        times = [at for _, at in record["events"]
                 if at >= record["t_first_run"]]
        return [b - a for a, b in zip(times, times[1:])]

    spanned = [r for r in good if r["spanned"]]
    plain = [r for r in good if not r["spanned"]]
    jobs = len(good)
    runs = _delta(before, after, "repro_service_runs_store") + _delta(
        before, after, "repro_service_runs_fresh") + _delta(
        before, after, "repro_service_runs_error")
    grants = _delta(before, after, "repro_lease_granted")
    lease_requests = _delta(
        before, after, "repro_service_requests", 'route="/v1/leases"')
    sim_s = _delta(before, after, "repro_fleet_sim_seconds")

    def mean_ms(histogram: str, labels: str = "") -> float:
        count = _delta(before, after, f"{histogram}_count", labels)
        total = _delta(before, after, f"{histogram}_sum", labels)
        return total / count * 1e3 if count else 0.0

    metrics = {
        "engine.store_hit_ratio": (
            _delta(before, after, "repro_service_runs_store") / runs
            if runs else 0.0),
        "service.submit_ms": mean(
            [r["t_accept"] - r["t0"] for r in good]) * 1e3,
        "service.first_run_ms": mean(
            [r["t_first_run"] - r["t0"] for r in good]) * 1e3,
        "service.run_event_gap_ms": mean(
            [g for r in spanned for g in gaps(r)]) * 1e3,
        "service.journal_appends_per_job": _delta(
            before, after, "repro_journal_appends") / jobs,
        "lease.useful_ratio": grants / lease_requests if lease_requests else 0.0,
        "lease.runs_per_grant": (
            _delta(before, after, "repro_lease_runs_leased") / grants
            if grants else 0.0),
        "fleet.sim_busy_frac": sim_s / (FLEET_WORKERS * wall),
        "fleet.settle_ms": mean_ms("repro_fleet_settle_seconds"),
        "fleet.idle_s_per_job": (
            mean([_idle_s(r) for r in good]) if sim_s else 0.0),
        "telemetry.trace_overhead": (
            mean([r["t_done"] - r["t0"] for r in spanned])
            / mean([r["t_done"] - r["t0"] for r in plain]) - 1.0),
    }
    for name, route in ROUTES.items():
        metrics[f"service.request_ms.{name}"] = mean_ms(
            "repro_service_request_seconds", f'route="{route}"')

    # the layers under the service: in-process passes over the
    # reference runs
    passes = layers.traced_passes(reference_specs(workload, seed), trace,
                                  workload)
    for name in passes["mismatches"]:
        tally.fail(f"{name}: wrapped pass not bit-identical to execute_spec")
    passes["metrics"].update(metrics)
    return passes["metrics"]
