"""Bounded async job queue over the run-key lease fabric.

The scheduler owns the three layers of single-flight coalescing that
let a busy service do dramatically less work than it is asked for:

1. **job level** -- a submission whose content-addressed id matches a
   queued/running job attaches to it instead of enqueueing a duplicate
   (two clients asking for the same sweep share one execution);
2. **run-key level** -- when a job starts, any of its keys currently
   being simulated by *another* in-flight job are awaited instead of
   re-dispatched (the settling job resolves a future the attached job
   waits on);
3. **completed-key level** -- keys already settled are served from
   cache: the scheduler's in-memory record mirror first, then the
   :class:`~repro.engine.store.ResultStore`.  A warm store answers a
   whole sweep with **zero** simulations.

Every run the service executes goes through one path: a job's
remaining keys are queued on a :class:`~repro.service.leases.
LeaseManager` (in trace-key order, so consecutive runs replay one
packed arena), a consumer leases them, executes each through
:func:`~repro.service.worker._execute_one`, and hands the outcome to
:meth:`JobScheduler.settle` -- claim, persist to the store, settle the
owning jobs.  Consumers are either ``repro worker`` processes pulling
over HTTP (``repro serve --remote``: zero local consumers) or
``local_workers`` in-process asyncio tasks named ``local-<i>``, which
run on a process pool (one thread-executor run at a time when
``local_workers`` is 1).  Local leases take the maximum TTL
(:data:`~repro.service.leases.MAX_LEASE_TTL_S`, one hour): a local
consumer cannot die apart from its coordinator, so only a run longer
than that is ever re-leased.  A reaper task expires overdue leases back
into the queue so no job hangs on a crashed worker.

Jobs beyond ``max_active`` wait in a bounded FIFO queue; submissions
past ``max_queue`` raise :class:`QueueFull`, which the HTTP layer turns
into 429 backpressure.  All scheduler state is mutated on the event
loop thread only, so there are no locks around job state; store writes
run on one dedicated thread, which serialises them.

With a :class:`~repro.service.journal.JobJournal` attached, every
lifecycle transition is journaled -- acceptance (write-ahead: before
the 202), settles, terminal states, lease grants/expiries -- and
:meth:`JobScheduler.recover` replays the log at startup so a restarted
coordinator serves finished jobs from history and re-queues unfinished
ones instead of forgetting them.
"""

from __future__ import annotations

import asyncio
import collections
import math
import sys
import time
from concurrent.futures import ProcessPoolExecutor, ThreadPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from typing import Deque, Dict, List, Optional, Tuple

from repro.engine.engine import _pool_worker_init
from repro.engine.spec import RunSpec, spec_to_dict, trace_key
from repro.engine.store import ResultStore
from repro.service.jobs import Job, SweepRequest
from repro.service.journal import (
    EV_JOB_ACCEPTED,
    EV_JOB_DONE,
    EV_LEASE_EXPIRED,
    EV_LEASE_GRANTED,
    EV_RUN_SETTLED,
    JobJournal,
    load_journal,
    restore_job,
)
from repro.service.leases import (
    DEFAULT_LEASE_RUNS,
    DEFAULT_LEASE_TTL_S,
    MAX_ATTEMPTS,
    MAX_LEASE_TTL_S,
    LeaseManager,
)
from repro.service.registry import WorkerRegistry
from repro.service.worker import _execute_one
from repro.telemetry.metrics import MetricsRegistry
from repro.telemetry.spans import record_span
from repro.telemetry.tracectx import (
    format_traceparent,
    span_id_for_key,
    trace_scope,
)

__all__ = [
    "DEFAULT_MAX_ACTIVE", "DEFAULT_MAX_QUEUE", "Draining", "JobScheduler",
    "QueueFull",
]

#: default bound on jobs waiting to start (HTTP 429 past this)
DEFAULT_MAX_QUEUE = 32
#: default bound on jobs executing concurrently
DEFAULT_MAX_ACTIVE = 1
#: default bound on in-memory completed-run records (LRU evicted)
DEFAULT_RESULT_CACHE = 4096
#: default count of finished jobs kept for GET /v1/jobs/{id}
DEFAULT_JOB_HISTORY = 256


class QueueFull(RuntimeError):
    """The waiting queue is at capacity (HTTP 429)."""


class Draining(RuntimeError):
    """The service is shutting down and takes no new work (HTTP 503)."""


def _settle_timing(raw) -> Optional[Dict[str, float]]:
    """A settle entry's ``timing`` as finite, non-negative numbers, or
    ``None`` when it is missing or unparseable (ignored either way)."""
    if not isinstance(raw, dict):
        return None
    try:
        sim_s = float(raw.get("sim_s", 0.0))
        cycles = int(raw.get("cycles", 0))
    except (TypeError, ValueError, OverflowError):
        return None
    if not math.isfinite(sim_s):
        return None
    return {"sim_s": max(0.0, sim_s), "cycles": max(0, cycles)}


class JobScheduler:
    """Single-flight job execution over the run-key lease queue.

    Args:
        store: the durable cache layer every fresh result is persisted
            to (``None`` keeps results in memory only).
        local_workers: in-process lease consumers; ``0`` leaves every
            run to ``repro worker`` processes pulling over HTTP.
        max_queue: waiting-job bound (:class:`QueueFull` past it).
        max_active: concurrently executing job bound.
        result_cache: in-memory completed-record bound (LRU).
        job_history: finished jobs retained for later GETs.
        lease_reap_interval: reaper tick for expiring dead leases.
        journal: write-ahead job journal for crash recovery (``None``
            keeps behaviour byte-identical to an unjournaled service).
    """

    #: executes one leased run (wire form) into its settle entry, off
    #: the event loop; must be picklable for the process pool
    execute_run = staticmethod(_execute_one)

    def __init__(
        self,
        store: Optional[ResultStore] = None,
        local_workers: int = 0,
        max_queue: int = DEFAULT_MAX_QUEUE,
        max_active: int = DEFAULT_MAX_ACTIVE,
        result_cache: int = DEFAULT_RESULT_CACHE,
        job_history: int = DEFAULT_JOB_HISTORY,
        lease_reap_interval: float = 0.25,
        journal: Optional[JobJournal] = None,
    ) -> None:
        self.store = store
        self.local_workers = max(0, int(local_workers))
        self.max_queue = max(0, max_queue)
        self.max_active = max(1, max_active)
        self.jobs: Dict[str, Job] = {}
        self.draining = False
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._waiting: Deque[Job] = collections.deque()
        self._active: Dict[str, asyncio.Task] = {}
        #: run keys being simulated right now -> future resolving to
        #: ``(source, error)`` for jobs that attach (single-flight)
        self._inflight: Dict[str, asyncio.Future] = {}
        #: completed-run record mirror: key -> {"key", "spec", "result"}
        self._records: "collections.OrderedDict[str, dict]" = (
            collections.OrderedDict()
        )
        self._record_limit = max(0, result_cache)
        self._job_history = max(0, job_history)
        self._subscribers: Dict[str, List[asyncio.Queue]] = {}
        # the store's append handles are single-threaded by design, so
        # every settle's write goes through this one thread
        self._store_io = ThreadPoolExecutor(
            1, thread_name_prefix="repro-store"
        )
        self.leases = LeaseManager()
        self.workers = WorkerRegistry()
        self._reap_interval = max(0.05, float(lease_reap_interval))
        self._reaper: Optional[asyncio.Task] = None
        self._consumers: List[asyncio.Task] = []
        #: set whenever keys enter the pending queue (consumers wake on it)
        self._work = asyncio.Event()
        #: lazily created pool the local consumers execute runs on
        self._pool: Optional[ProcessPoolExecutor] = None
        # per-scheduler registry: concurrent services in one process
        # (tests run many) must never see each other's counters.  The
        # HTTP layer renders this together with the process-wide
        # REGISTRY (arena/store/engine families).
        self.registry = MetricsRegistry()
        self._counters = {
            name: self.registry.counter(f"repro_service_{name}", help_text)
            for name, help_text in (
                ("jobs_submitted", "Sweep jobs accepted (new, not coalesced)"),
                ("jobs_executed", "Jobs whose execution started"),
                ("jobs_coalesced",
                 "Submissions attached to an identical in-flight job"),
                ("keys_coalesced",
                 "Run keys awaited from another job's in-flight execution"),
                ("runs_store", "Runs served from the result store/cache"),
                ("runs_fresh", "Runs simulated by this service"),
                ("runs_error", "Runs that settled with an error"),
            )
        }
        self._register_gauges()
        self._register_lease_metrics()
        self._register_fleet_metrics()
        self.journal = journal
        #: recovery summary after :meth:`recover` (None until then)
        self.recovered: Optional[Dict[str, int]] = None
        if self.journal is not None:
            self._register_journal_metrics()

    def _register_journal_metrics(self) -> None:
        """Journal accounting, registered only when a journal is
        attached so an unjournaled service's exposition is unchanged."""
        self._journal_appends = self.registry.counter(
            "repro_journal_appends", "Journal events appended")
        self._journal_replayed = self.registry.counter(
            "repro_journal_replayed_events",
            "Journal events replayed at startup")
        self._journal_recovered = self.registry.counter(
            "repro_journal_recovered_jobs",
            "Jobs restored from the journal at startup")
        self._journal_requeued = self.registry.counter(
            "repro_journal_requeued_runs",
            "Unsettled runs of recovered jobs re-queued at startup")

    def _register_lease_metrics(self) -> None:
        """Lease-fabric accounting (every executed run is leased)."""
        self._lease_granted = self.registry.counter(
            "repro_lease_granted", "Leases granted to consumers")
        self._lease_runs_leased = self.registry.counter(
            "repro_lease_runs_leased", "Run keys handed out under leases")
        self._lease_settled = self.registry.counter(
            "repro_lease_settled",
            "Consumer-settled run keys by outcome",
            labelnames=("outcome",),
        )
        self._lease_expired = self.registry.counter(
            "repro_lease_expired", "Leases reaped past their TTL")
        self._lease_requeued = self.registry.counter(
            "repro_lease_requeued_runs",
            "Run keys returned to the pending queue by lease expiry")
        self.registry.gauge(
            "repro_lease_active", "Leases currently held by consumers"
        ).set_function(lambda: self.leases.active_leases)
        self.registry.gauge(
            "repro_lease_pending_runs", "Run keys awaiting a consumer"
        ).set_function(lambda: self.leases.pending_runs)

    def _register_fleet_metrics(self) -> None:
        """Fleet-level aggregation over the worker registry (local
        consumers register as ``local-<i>`` workers)."""
        fleet_workers = self.registry.gauge(
            "repro_fleet_workers",
            "Registered workers by liveness state",
            labelnames=("state",),
        )
        for state in ("live", "stale"):
            fleet_workers.labels(state).set_function(
                lambda state=state: self.workers.count(state)
            )
        self._fleet_expired = self.registry.counter(
            "repro_fleet_workers_expired",
            "Workers dropped from the registry after prolonged silence")
        self._fleet_runs = self.registry.counter(
            "repro_fleet_runs",
            "Worker-settled runs by worker and outcome",
            labelnames=("worker", "source"),
        )
        self._fleet_sim_cycles = self.registry.counter(
            "repro_fleet_sim_cycles",
            "Simulated cycles settled by the fleet (from settle timing)")
        self._fleet_sim_seconds = self.registry.counter(
            "repro_fleet_sim_seconds",
            "Simulation wall-seconds settled by the fleet")
        self._fleet_settle_seconds = self.registry.histogram(
            "repro_fleet_settle_seconds",
            "Per-run simulation wall time by worker (from settle timing)",
            labelnames=("worker",),
        )
        self.registry.gauge(
            "repro_fleet_cycles_per_second",
            "Aggregate reported throughput of the live fleet",
        ).set_function(self.workers.fleet_cycles_per_second)

    def _register_gauges(self) -> None:
        """Expose live scheduler state as read-at-scrape-time gauges."""
        gauges = (
            ("queue_depth", "Jobs waiting to start",
             lambda: len(self._waiting)),
            ("queue_limit", "Waiting-job bound (429 past it)",
             lambda: self.max_queue),
            ("active_jobs", "Jobs executing right now",
             lambda: len(self._active)),
            ("max_active", "Concurrent-job bound",
             lambda: self.max_active),
            ("draining", "1 while shutting down, else 0",
             lambda: int(self.draining)),
            ("result_cache_records", "In-memory completed-run records",
             lambda: len(self._records)),
            ("store_hit_rate", "runs_store / (runs_store + runs_fresh)",
             self._store_hit_rate),
        )
        for name, help_text, fn in gauges:
            self.registry.gauge(
                f"repro_service_{name}", help_text
            ).set_function(fn)
        jobs_by_state = self.registry.gauge(
            "repro_service_jobs", "Known jobs by state",
            labelnames=("state",),
        )
        for state in ("queued", "running", "done", "failed"):
            jobs_by_state.labels(state).set_function(
                lambda state=state: sum(
                    1 for job in self.jobs.values() if job.state == state
                )
            )
        if self.store is not None:
            self.registry.gauge(
                "repro_service_store_records", "Live result-store records"
            ).set_function(lambda: self.store.info()["records"])
            self.registry.gauge(
                "repro_service_store_size_bytes", "Result-store file size"
            ).set_function(lambda: self.store.info()["size_bytes"])

    def _store_hit_rate(self) -> float:
        served = (
            self._counters["runs_store"].value
            + self._counters["runs_fresh"].value
        )
        return self._counters["runs_store"].value / served if served else 0.0

    # ------------------------------------------------------------------
    # write-ahead journal: every lifecycle transition lands on disk
    # before (submit) or as (settle/done/lease) it takes effect
    def _journal_event(self, event: str, **fields) -> None:
        if self.journal is None or self.journal.closed:
            return
        try:
            self.journal.append(event, **fields)
        except OSError as error:
            # durability is gone, but the accepted work can still
            # finish: warn loudly and stop journaling instead of
            # killing the coordinator mid-fleet
            self.journal.close()
            print(
                f"repro serve: journal write failed ({error}); "
                "journaling disabled for this process",
                file=sys.stderr, flush=True,
            )
            return
        self._journal_appends.inc()

    async def recover(self) -> Optional[Dict[str, int]]:
        """Replay the journal against the store before serving.

        Jobs whose journal says they finished are restored straight
        into history (their snapshots and SSE ``done`` events serve
        immediately); jobs accepted but unfinished are re-queued
        through the normal execution path, where keys already settled
        into the :class:`~repro.engine.store.ResultStore` serve warm
        and only the true remainder re-enters the lease queue.
        Journaled *error* settles re-run rather than replaying -- a
        restart retries runs that died with the previous incarnation.
        Leases of the dead incarnation are expired by construction:
        the :class:`~repro.service.leases.LeaseManager` starts empty,
        so a surviving worker's late settle hits the settle-pending/410
        path exactly like a reaped lease.

        Recovered jobs bypass the waiting-queue bound: they were
        accepted once and must not bounce with 429 semantics.

        Returns:
            The recovery summary (also kept as :attr:`recovered`), or
            ``None`` when no journal is attached.
        """
        if self.journal is None:
            return None
        self._loop = asyncio.get_running_loop()
        replay = await self._loop.run_in_executor(
            None, load_journal, self.journal.path
        )
        summary = {
            "events": replay.events,
            "skipped_corrupt": replay.skipped["corrupt"],
            "skipped_stale": replay.skipped["stale"],
            "recovered_jobs": 0,
            "recovered_done": 0,
            "requeued_jobs": 0,
            "requeued_runs": 0,
            "unrecoverable_jobs": 0,
        }
        self._journal_replayed.inc(replay.events)
        for entry in replay.jobs.values():
            try:
                job = restore_job(entry)
            except ValueError as error:
                summary["unrecoverable_jobs"] += 1
                print(
                    f"repro serve: skipping unrecoverable journal entry "
                    f"{str(entry.get('job'))[:12]}: {error}",
                    file=sys.stderr, flush=True,
                )
                continue
            self.jobs[job.id] = job
            self._journal_recovered.inc()
            summary["recovered_jobs"] += 1
            if job.done:
                summary["recovered_done"] += 1
                continue
            settled_ok = sum(
                1 for source, error in entry["settled"].values()
                if error is None and source != "error"
            )
            unsettled = max(0, len(job.specs) - settled_ok)
            summary["requeued_jobs"] += 1
            summary["requeued_runs"] += unsettled
            self._journal_requeued.inc(unsettled)
            self._waiting.append(job)
        if self._waiting:
            self._pump()
        self.recovered = summary
        return summary

    @property
    def metrics(self) -> Dict[str, int]:
        """The historical counter-dict view (read-only snapshot)."""
        return {
            name: int(counter.value)
            for name, counter in self._counters.items()
        }

    # ------------------------------------------------------------------
    @property
    def queue_depth(self) -> int:
        return len(self._waiting)

    @property
    def active_jobs(self) -> int:
        return len(self._active)

    # ------------------------------------------------------------------
    def submit(
        self,
        request: SweepRequest,
        specs: Optional[List[RunSpec]] = None,
    ) -> Tuple[Job, bool]:
        """Submit a sweep; returns ``(job, created)``.

        ``created`` is ``False`` when the submission coalesced onto an
        already queued/running identical job.  *specs* lets the caller
        pre-build the run specs off the event loop (``trace:<path>``
        workloads hash their file during spec building); when omitted
        they are built here.

        Raises:
            Draining: the service is shutting down.
            QueueFull: the waiting queue is at capacity.
            InvalidRequest: (from spec building) malformed request.
        """
        if self.draining:
            raise Draining("service is draining; not accepting jobs")
        self._loop = asyncio.get_running_loop()
        job = Job(request, specs if specs is not None else request.to_specs())
        existing = self.jobs.get(job.id)
        if existing is not None and not existing.done:
            self._counters["jobs_coalesced"].inc()
            return existing, False
        # a job that can start immediately never counts against the
        # waiting bound; only jobs that would actually queue do
        if (
            len(self._active) >= self.max_active
            and len(self._waiting) >= self.max_queue
        ):
            raise QueueFull(
                f"queue full ({len(self._waiting)}/{self.max_queue} "
                "jobs waiting)"
            )
        self._counters["jobs_submitted"].inc()
        submitted_ns = time.time_ns()
        with trace_scope(job.trace_id):
            record_span(
                "submit", submitted_ns, submitted_ns, cat="job",
                args={"job": job.id[:12], "total": len(job.specs)},
            )
        self.jobs[job.id] = job
        # write-ahead: the acceptance (request + full canonical specs)
        # is durable before the 202 leaves the process, so a crash at
        # any later point can re-run the job from the journal alone
        self._journal_event(
            EV_JOB_ACCEPTED,
            job=job.id,
            request=request.as_dict(),
            specs=[
                {"key": key, "spec": spec_to_dict(spec)}
                for key, spec in job.specs.items()
            ],
        )
        self._waiting.append(job)
        self._prune_history()
        self._pump()
        return job, True

    def _prune_history(self) -> None:
        """Drop the oldest finished jobs beyond the history bound."""
        finished = [j for j in self.jobs.values() if j.done]
        excess = len(finished) - self._job_history
        if excess <= 0:
            return
        finished.sort(key=lambda j: j.finished or 0.0)
        for job in finished[:excess]:
            self.jobs.pop(job.id, None)
            self._subscribers.pop(job.id, None)

    def _pump(self) -> None:
        """Start waiting jobs while active slots are free."""
        while self._waiting and len(self._active) < self.max_active:
            job = self._waiting.popleft()
            task = self._loop.create_task(self._run_job(job))
            self._active[job.id] = task
            task.add_done_callback(
                lambda _t, job_id=job.id: self._job_task_done(job_id)
            )

    def _job_task_done(self, job_id: str) -> None:
        self._active.pop(job_id, None)
        self._pump()

    # ------------------------------------------------------------------
    async def _run_job(self, job: Job) -> None:
        """Execute one job: cache, attach, dispatch, settle, finish."""
        self._counters["jobs_executed"].inc()
        job_started_ns = time.time_ns()
        job.mark_running()
        self._emit(job, {"event": "state", "state": "running"})

        owned: Dict[str, RunSpec] = {}
        attached: Dict[str, asyncio.Future] = {}
        for key, spec in job.specs.items():
            inflight = self._inflight.get(key)
            if inflight is not None:
                # single-flight: someone else is simulating this key
                self._counters["keys_coalesced"].inc()
                attached[key] = inflight
            elif key in self._records:
                self._records.move_to_end(key)
                self._settle(job, key, "store")
            elif self._stored_record(key) is not None:
                self._settle(job, key, "store")
            else:
                owned[key] = spec
                self._inflight[key] = self._loop.create_future()

        if owned:
            self._ensure_consumers()
            # hold references now: settlement pops the futures from
            # _inflight (settle(), or the reaper's abandon branch)
            futures = [self._inflight[key] for key in owned]
            # trace-key order, as the engine dispatches: consecutive
            # runs replay one packed arena instead of thrashing
            for key in sorted(owned, key=lambda key: trace_key(owned[key])):
                self.leases.add(key, (owned[key], job))
            self._work.set()
            for future in futures:
                await future

        for key, future in attached.items():
            source, error = await future
            self._settle(
                job, key, "coalesced" if error is None else "error", error
            )

        job.finish()
        self._journal_event(
            EV_JOB_DONE, job=job.id, state=job.state, error=job.error
        )
        with trace_scope(job.trace_id):
            record_span(
                "job", job_started_ns, time.time_ns(), cat="job",
                args={
                    "job": job.id[:12], "state": job.state,
                    "total": job.counters["total"],
                    "dispatched": len(owned), "attached": len(attached),
                },
            )
        self._emit(job, {"event": "done", "job": job.snapshot()})

    def _stored_record(self, key: str) -> Optional[dict]:
        """Store lookup before a key is queued (mirrors the hit into
        the in-memory record cache so later jobs skip the store)."""
        if self.store is None:
            return None
        stored = self.store.record(key)
        if stored is None:
            return None
        self._remember(key, {
            "key": key,
            "spec": stored.get("spec"),
            "result": stored.get("result"),
        })
        return stored

    # ------------------------------------------------------------------
    # lease consumers: the reaper plus the in-process local workers
    def _ensure_consumers(self) -> None:
        if self._reaper is None or self._reaper.done():
            self._reaper = self._loop.create_task(self._reap_loop())
        if not self._consumers:
            self._consumers = [
                self._loop.create_task(self._consume(f"local-{index}"))
                for index in range(self.local_workers)
            ]

    async def _consume(self, name: str) -> None:
        """One in-process consumer: lease a run, execute it off the
        loop, settle it -- the loop a ``repro worker`` runs over HTTP."""
        while True:
            grant = self.grant_lease(name, max_runs=1, ttl=MAX_LEASE_TTL_S)
            if grant is None:
                self._work.clear()
                await self._work.wait()
                continue
            (run,) = grant["runs"]
            pool = self._run_pool()
            try:
                outcome = await self._loop.run_in_executor(
                    pool, self.execute_run, run["key"], run
                )
            except Exception as error:
                if isinstance(error, BrokenProcessPool) and self._pool is pool:
                    self._pool = None  # a pool process died: start afresh
                outcome = {
                    "key": run["key"],
                    "error": f"{type(error).__name__}: {error}",
                }
            await self.settle(grant["lease"], [outcome], worker=name)

    def _run_pool(self) -> Optional[ProcessPoolExecutor]:
        """The executor local runs use: a process pool for more than one
        consumer, else ``None`` (the default thread executor -- the
        engine's serial mode)."""
        if self.local_workers > 1 and self._pool is None:
            self._pool = ProcessPoolExecutor(
                self.local_workers, initializer=_pool_worker_init
            )
        return self._pool

    async def _reap_loop(self) -> None:
        while True:
            await asyncio.sleep(self._reap_interval)
            self.reap_expired()

    def reap_expired(self) -> None:
        """Expire overdue leases: unsettled keys re-enter the pending
        queue, and keys past their attempt budget settle as errors so
        their jobs finish instead of hanging on a poison run.  Workers
        silent past the registry's expiry window are dropped on the
        same tick."""
        dead_workers = self.workers.expire()
        if dead_workers:
            self._fleet_expired.inc(len(dead_workers))
        reaped, abandoned = self.leases.expire()
        if not reaped:
            return
        self._lease_expired.inc(len(reaped))
        for lease in reaped:
            self._journal_event(
                EV_LEASE_EXPIRED, lease=lease.lease_id, worker=lease.worker,
                keys=list(lease.runs),
            )
        requeued = sum(len(lease.runs) for lease in reaped) - len(abandoned)
        if requeued:
            self._lease_requeued.inc(requeued)
            self._work.set()
        for key, (spec, job) in abandoned:
            message = (
                f"abandoned after {MAX_ATTEMPTS} lease attempts "
                "(every worker that leased this run died or stalled)"
            )
            self._lease_settled.labels("abandoned").inc()
            self._settle(job, key, "error", message)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result(("error", message))

    def grant_lease(
        self,
        worker: str,
        max_runs: int = DEFAULT_LEASE_RUNS,
        ttl: float = DEFAULT_LEASE_TTL_S,
    ) -> Optional[dict]:
        """Grant a worker a batch of pending runs (wire form), or
        ``None`` when nothing is pending.

        Leases are granted even while draining: accepted jobs must
        still finish, and workers observe ``draining`` in the grant to
        know they can exit once the queue runs dry.
        """
        lease = self.leases.lease(worker, max_runs=max_runs, ttl=ttl)
        if lease is None:
            return None
        self._lease_granted.inc()
        self._lease_runs_leased.inc(len(lease.runs))
        self.workers.record_lease(lease.worker)
        self._journal_event(
            EV_LEASE_GRANTED, lease=lease.lease_id, worker=lease.worker,
            keys=list(lease.runs),
        )
        return {
            "lease": lease.lease_id,
            "worker": lease.worker,
            "ttl": lease.ttl,
            "runs": [
                {
                    "key": digest,
                    "spec": spec_to_dict(payload[0]),
                    # trace context: the owning job's trace id + this
                    # run's span id, adopted by the worker for every
                    # span it emits while executing the run
                    "trace": format_traceparent(
                        payload[1].trace_id, span_id_for_key(digest)
                    ),
                }
                for digest, payload in lease.runs.items()
            ],
            "draining": self.draining,
        }

    async def settle(
        self, lease_id: str, runs: List[dict], worker: Optional[str] = None
    ) -> Dict[str, object]:
        """Settle leased outcomes: claim, persist, finish.

        The one settle path: ``POST /v1/leases/{id}/settle`` and the
        local consumers both end here.  *runs* are settle entries
        (``{"key", "result"|"error", "timing"?}``); *worker* names the
        settler when the lease no longer does.  Every key claimed is
        settled before this returns: a failed store write settles the
        claimed keys as errors carrying the exception text.

        Returns the claim: ``accepted`` tuples, ``duplicates``,
        ``lease_known``, ``worker`` and the lease's ``remaining`` count.
        """
        claim = self._claim_settlements(lease_id, runs)
        accepted = claim["accepted"]
        if accepted and self.store is not None:
            try:
                await asyncio.get_running_loop().run_in_executor(
                    self._store_io, self._persist, accepted
                )
            except Exception as error:
                message = f"result store write failed: {error!r}"
                accepted = [
                    (key, spec, job, None, run_error or message, timing)
                    for key, spec, job, _result, run_error, timing in accepted
                ]
        self._finish_settlements(
            accepted, claim["worker"] or worker or "unknown"
        )
        return claim

    def _claim_settlements(
        self, lease_id: str, runs: List[dict]
    ) -> Dict[str, object]:
        """Pop each reported key from its lease -- or from the pending
        queue, where a reaped lease's keys wait (the late result is
        real, so it still counts).  Keys found in neither place are
        duplicates of a settlement that already happened (or runs now
        owned by another consumer's lease) and are discarded."""
        held = self.leases.get(lease_id)
        # captured before settling: accepting the last key retires the
        # lease, and the fleet ledger still needs the worker's name
        lease_worker = held.worker if held is not None else None
        accepted: List[tuple] = []
        duplicates = 0
        for run in runs:
            key = run["key"]
            payload = self.leases.settle_key(lease_id, key)
            if payload is None:
                payload = self.leases.settle_pending(key)
            if payload is None:
                duplicates += 1
                continue
            spec, job = payload
            accepted.append((
                key, spec, job, run.get("result"), run.get("error"),
                _settle_timing(run.get("timing")),
            ))
        lease = self.leases.get(lease_id)
        return {
            "accepted": accepted,
            "duplicates": duplicates,
            "lease_known": held is not None,
            "worker": lease_worker,
            "remaining": len(lease.runs) if lease is not None else 0,
        }

    def _persist(self, accepted: List[tuple]) -> None:
        """Store-thread half of a settle: append the fresh records."""
        with self.store.batched(flush_every=len(accepted)):
            for key, spec, _job, result_payload, error, _ in accepted:
                if error is None:
                    self.store.put_record(key, {
                        "schema": self.store.schema_version,
                        "key": key,
                        "spec": spec_to_dict(spec),
                        "result": result_payload,
                    })

    def _finish_settlements(self, accepted: List[tuple], worker: str) -> None:
        """Mirror results, settle owning jobs and resolve in-flight
        futures.  *worker* attributes the runs in the fleet ledger
        (``repro_fleet_runs``, ``GET /v1/workers``)."""
        for key, spec, job, result_payload, error, timing in accepted:
            if error is None:
                self._remember(key, {
                    "key": key,
                    "spec": spec_to_dict(spec),
                    "result": result_payload,
                })
                source = "fresh"
            else:
                source = "error"
            self._lease_settled.labels(source).inc()
            self.workers.record_settle(worker, source)
            self._fleet_runs.labels(worker, source).inc()
            if timing is not None:
                self._fleet_sim_seconds.inc(timing["sim_s"])
                self._fleet_sim_cycles.inc(timing["cycles"])
                self._fleet_settle_seconds.labels(worker).observe(
                    timing["sim_s"]
                )
            self._settle(job, key, source, error, worker=worker,
                         timing=timing)
            future = self._inflight.pop(key, None)
            if future is not None and not future.done():
                future.set_result((source, error))

    def _settle(
        self,
        job: Job,
        key: str,
        source: str,
        error: Optional[str] = None,
        worker: Optional[str] = None,
        timing: Optional[dict] = None,
    ) -> None:
        """Record one run settlement and stream it to subscribers."""
        if source == "error":
            self._counters["runs_error"].inc()
        elif source == "fresh":
            self._counters["runs_fresh"].inc()
        elif source == "store":
            self._counters["runs_store"].inc()
        job.settle_run(key, source, error, worker=worker, timing=timing)
        self._journal_event(
            EV_RUN_SETTLED, job=job.id, key=key, source=source, error=error
        )
        self._emit(job, {
            "event": "run", "key": key, "source": source, "error": error,
            "completed": job.counters["completed"],
            "total": job.counters["total"],
        })

    def _remember(self, key: str, record: dict) -> None:
        if self._record_limit <= 0:
            return
        self._records[key] = record
        self._records.move_to_end(key)
        while len(self._records) > self._record_limit:
            self._records.popitem(last=False)

    # ------------------------------------------------------------------
    def result_record(self, key: str) -> Optional[dict]:
        """Completed-run record for *key*: memory mirror first, then the
        result store; ``None`` when unknown."""
        record = self._records.get(key)
        if record is not None:
            self._records.move_to_end(key)
            return record
        if self.store is not None:
            stored = self.store.record(key)
            if stored is not None:
                return {
                    "key": key,
                    "spec": stored.get("spec"),
                    "result": stored.get("result"),
                }
        return None

    # ------------------------------------------------------------------
    def subscribe(self, job_id: str) -> asyncio.Queue:
        """Event queue for a job's SSE stream (seeded lazily: the caller
        sends the current snapshot first, then drains this queue)."""
        queue: asyncio.Queue = asyncio.Queue()
        self._subscribers.setdefault(job_id, []).append(queue)
        return queue

    def unsubscribe(self, job_id: str, queue: asyncio.Queue) -> None:
        listeners = self._subscribers.get(job_id)
        if listeners is None:
            return
        try:
            listeners.remove(queue)
        except ValueError:
            pass
        if not listeners:
            self._subscribers.pop(job_id, None)

    def _emit(self, job: Job, event: dict) -> None:
        for queue in self._subscribers.get(job.id, ()):
            queue.put_nowait(event)

    # ------------------------------------------------------------------
    async def drain(self) -> None:
        """Stop accepting work and wait for queued + active jobs.

        Queued jobs still execute (they were accepted) -- the consumers
        empty the lease queue -- and new submissions raise
        :class:`Draining` the moment this is called.  Then the reaper
        and the idle consumers stop and the run pool shuts down.
        """
        self.draining = True
        while self._waiting or self._active:
            tasks = list(self._active.values())
            if tasks:
                await asyncio.gather(*tasks, return_exceptions=True)
            else:  # queued but not yet pumped (no free slot this tick)
                await asyncio.sleep(0.01)
        background = [t for t in (self._reaper, *self._consumers) if t]
        for task in background:
            task.cancel()
        await asyncio.gather(*background, return_exceptions=True)
        self._reaper, self._consumers = None, []
        if self._pool is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, self._pool.shutdown
            )
            self._pool = None
        self._store_io.shutdown()  # idle: every settle has finished
        if self.journal is not None:
            self.journal.close()  # releases the single-writer flock
