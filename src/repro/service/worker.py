"""``repro worker``: the pull-based execution half of remote mode.

:func:`_execute_one` is also what the scheduler's in-process
``local-<i>`` consumers execute, so local and remote runs take the
same path.

A worker is deliberately dumb: it owns no queue, no store and no job
state.  It loops

    lease -> execute -> settle

against a ``repro serve --remote`` scheduler, executing each leased
:class:`~repro.engine.spec.RunSpec` through the exact
:func:`~repro.engine.spec.execute_spec` path a local sweep uses (same
packed-arena cache, bit-identical results).
Everything that can go wrong is the scheduler's problem by design:

* a worker that dies mid-lease simply stops settling -- the lease TTL
  expires and the scheduler re-queues its runs;
* a run that raises settles as an error (traceback attached) instead
  of killing the batch;
* a settle rejected with **410 Gone** means the lease expired while
  the worker was computing: the rest of the batch is dropped (those
  keys are someone else's now) and the loop leases afresh;
* transport errors back off under the shared
  :class:`~repro.service.retry.RetryPolicy` -- capped exponential with
  jitter derived from the worker's name, so a whole fleet waiting out
  a coordinator restart re-leases staggered instead of stampeding the
  fresh listener in lockstep (``--poll`` stays the floor; the cap
  bounds the worst-case reconnect delay).

The worker verifies each leased spec round-trips to the advertised run
key before executing, so a corrupted payload is refused (settled as an
error) rather than silently poisoning the store with a mis-keyed
result.  When the scheduler reports ``draining`` and has no runs left,
the worker exits cleanly -- ``repro worker`` fleets drain with their
scheduler -- and the CLI entry point additionally exits 0 on SIGTERM
(an in-flight lease is covered by its TTL), so fleet managers can stop
workers the ordinary way.
"""

from __future__ import annotations

import os
import socket
import time
import traceback
from typing import Callable, Dict, List, Optional

from repro.engine.spec import RunKey, execute_spec, spec_from_dict
from repro.engine.serialize import result_to_dict
from repro.service.client import ServiceClient, ServiceError
from repro.service.retry import RetryPolicy
from repro.telemetry.tracectx import parse_traceparent, trace_scope
from repro.workloads.arena import arena_cache_stats

__all__ = ["default_worker_name", "run_worker", "transport_delay_s"]

#: test/fault-injection hook: sleep this many seconds between leasing a
#: batch and executing it (lets a harness SIGKILL the worker mid-lease
#: deterministically, or force the lease past its TTL)
HOLD_ENV = "REPRO_WORKER_HOLD_S"


def default_worker_name() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def transport_delay_s(
    policy: RetryPolicy, failures: int, poll_s: float, token: str
) -> float:
    """Sleep before the next attempt after *failures* consecutive
    transport errors: the policy's jittered backoff, floored at the
    idle poll interval (``--poll`` is a promise about minimum pacing,
    not just idle pacing)."""
    return max(poll_s, policy.backoff_s(failures, token=token))


def _execute_one(key: str, run: Dict) -> Dict:
    """Execute one leased run; returns its settle entry (never raises:
    failures settle as errors so the scheduler's ledger always closes).

    The entry carries a ``timing`` object ({"sim_s", "cycles"}) so
    the coordinator can attribute job wall-clock per worker, and the
    run's ``trace`` context (stamped by the coordinator on the grant)
    is adopted for every span the execution emits --
    `simulate`/`arena`/`store_put` lines in this worker's ``REPRO_SPANS``
    log carry the submitting job's trace id.
    """
    trace = parse_traceparent(run.get("trace"))
    started = time.perf_counter()
    try:
        spec = spec_from_dict(run["spec"])
        digest = RunKey.for_spec(spec).digest
        if digest != key:
            raise ValueError(
                f"leased spec hashes to {digest[:12]}, not the "
                f"advertised key {key[:12]} -- refusing to execute"
            )
        with trace_scope(trace[0] if trace else None):
            result = execute_spec(spec)
    except Exception:
        return {
            "key": key,
            "error": traceback.format_exc(limit=20),
            "timing": {
                "sim_s": time.perf_counter() - started,
                "cycles": 0,
            },
        }
    return {
        "key": key,
        "result": result_to_dict(result),
        "timing": {
            "sim_s": time.perf_counter() - started,
            "cycles": result.cycles,
        },
    }


class _WorkerStats:
    """Cumulative counters one worker reports in its heartbeats."""

    def __init__(self, worker: str):
        self.worker = worker
        self.runs = 0
        self.errors = 0
        self.sim_cycles = 0
        self.sim_seconds = 0.0

    def account(self, outcome: Dict) -> None:
        timing = outcome.get("timing") or {}
        self.runs += 1
        if "error" in outcome:
            self.errors += 1
        self.sim_cycles += int(timing.get("cycles", 0))
        self.sim_seconds += float(timing.get("sim_s", 0.0))

    def heartbeat(self) -> Dict:
        arena = arena_cache_stats()
        probes = arena["hits"] + arena["misses"]
        return {
            "name": self.worker,
            "pid": os.getpid(),
            "host": socket.gethostname(),
            "runs": self.runs,
            "errors": self.errors,
            "sim_cycles": self.sim_cycles,
            "sim_seconds": self.sim_seconds,
            "cycles_per_s": (
                self.sim_cycles / self.sim_seconds
                if self.sim_seconds > 0 else 0.0
            ),
            "arena_hit_rate": (
                arena["hits"] / probes if probes else None
            ),
        }


def run_worker(
    url: str,
    name: Optional[str] = None,
    max_runs: Optional[int] = None,
    ttl: Optional[float] = None,
    poll_s: float = 0.5,
    once: bool = False,
    hold_s: Optional[float] = None,
    log: Optional[Callable[[str], None]] = None,
    retry: Optional[RetryPolicy] = None,
) -> int:
    """Lease/execute/settle against *url* until the scheduler drains.

    Args:
        url: the ``repro serve --remote`` base URL.
        name: worker identity in lease grants and ``GET /v1/leases``
            (default ``host:pid``).
        max_runs: batch-size cap per lease (server clamps).
        ttl: requested lease TTL in seconds (server clamps).  Must
            outlast the slowest single batch the worker will take
            between settles, or the scheduler will re-issue its runs.
        poll_s: idle sleep when the queue is empty.
        once: exit after the first settled (or empty) lease -- used by
            tests and one-shot deployments.
        hold_s: fault-injection hook -- sleep this long between lease
            and execute (also ``REPRO_WORKER_HOLD_S``).
        log: line sink for progress (``None`` silences).
        retry: transport backoff policy shared with the client layer
            (default :class:`RetryPolicy`): consecutive failures back
            off exponentially with per-worker jitter, reset on the
            first successful lease.

    Returns:
        Process exit code: 0 after a clean drain/`once` exit.
    """
    policy = retry if retry is not None else RetryPolicy()
    worker = name or default_worker_name()
    client = ServiceClient(url, retry=policy)
    stats = _WorkerStats(worker)
    if hold_s is None:
        raw = os.environ.get(HOLD_ENV, "").strip()
        hold_s = float(raw) if raw else 0.0
    say = log or (lambda line: None)
    say(f"worker {worker} pulling from {url}")
    failures = 0
    while True:
        try:
            grant = client.lease(
                worker=worker, max_runs=max_runs, ttl=ttl,
                heartbeat=stats.heartbeat(),
            )
        except ServiceError as error:
            if error.status == 0:
                # scheduler unreachable (restarting?): jittered backoff
                # -- the fleet re-leases staggered, not in lockstep
                failures += 1
                delay = transport_delay_s(policy, failures, poll_s, worker)
                say(
                    f"worker {worker}: scheduler unreachable "
                    f"({failures}x); retrying in {delay:.2f}s"
                )
                time.sleep(delay)
                continue
            raise
        failures = 0
        runs: List[Dict] = grant.get("runs") or []
        if not runs:
            if grant.get("draining") or once:
                say(f"worker {worker}: queue drained, exiting")
                return 0
            # idle heartbeat: a worker with nothing leased still reads
            # as alive in GET /v1/workers.  Best-effort -- an older
            # coordinator without the endpoint must not kill the loop.
            try:
                client.heartbeat(stats.heartbeat())
            except ServiceError:
                pass
            time.sleep(max(poll_s, 0.05))
            continue
        if hold_s > 0:
            time.sleep(hold_s)
        lease_id = grant["lease"]
        settled = 0
        try:
            # settle one by one: each settle refreshes the lease TTL, so
            # a long batch stays alive as long as runs keep finishing
            for run in runs:
                outcome = _execute_one(run["key"], run)
                stats.account(outcome)
                client.settle(
                    lease_id, [outcome], heartbeat=stats.heartbeat()
                )
                settled += 1
        except ServiceError as error:
            if error.status == 410:
                # lease expired mid-batch: the unfinished keys belong to
                # another worker now -- drop them and lease afresh
                say(f"worker {worker}: lease {lease_id} expired, re-leasing")
            elif error.status == 0:
                # the client layer already retried the settle under the
                # policy; keep pacing the outer loop with the same
                # jittered backoff until the coordinator is back
                failures += 1
                say(f"worker {worker}: scheduler unreachable mid-batch")
                time.sleep(transport_delay_s(policy, failures, poll_s, worker))
            else:
                raise
        say(
            f"worker {worker}: settled {settled}/{len(runs)} "
            f"runs of lease {lease_id}"
        )
        if once:
            return 0
