"""Simulation-as-a-service: an async HTTP job layer over the engine.

The service turns the content-hash-keyed simulation core into a
multi-client design-space-exploration backend, using nothing but the
standard library (``asyncio`` server, ``urllib`` client):

* :mod:`repro.service.jobs` -- the job model.  A sweep request
  canonicalises to :class:`~repro.engine.spec.RunSpec` s; the job id is
  a content hash over the sorted :class:`~repro.engine.spec.RunKey`
  digests, so *what* is being asked for -- not *when* or *by whom* --
  names the job.
* :mod:`repro.service.scheduler` -- a bounded async job queue with
  **single-flight coalescing**: concurrent identical jobs collapse to
  one execution, overlapping run keys attach to in-flight work, and
  completed keys are served straight from the
  :class:`~repro.engine.store.ResultStore` -- a warm store answers with
  zero simulations.  Everything else runs through one path: the lease
  queue, consumed by in-process ``local-<i>`` tasks or remote workers,
  and one settle coroutine.
* :mod:`repro.service.server` -- minimal HTTP/1.1 on
  ``asyncio.start_server``: submit sweeps, poll jobs, stream progress
  over SSE, fetch results by run key, health and metrics endpoints,
  backpressure (429) when the queue is full and graceful drain on
  SIGTERM.
* :mod:`repro.service.client` -- ``urllib``-based
  :class:`~repro.service.client.ServiceClient` with submit / poll /
  stream helpers (what ``repro submit`` uses).
* :mod:`repro.service.leases` + :mod:`repro.service.worker` -- the
  lease fabric.  The scheduler queues run keys on a TTL-leased pull
  protocol; its local consumers lease them in-process, and in remote
  mode (``repro serve --remote``, no local consumers) ``repro worker
  --url`` processes lease batches over HTTP.  Both execute through
  :func:`~repro.engine.spec.execute_spec` and settle outcomes back,
  with lease expiry re-queueing a crashed worker's runs.  Single-flight
  holds fleet-wide: the run-key lease is the coalescing layer, so two
  workers can never simulate one key.
* :mod:`repro.service.journal` + :mod:`repro.service.retry` --
  coordinator crash-safety.  ``repro serve --journal PATH``
  write-ahead-journals every job lifecycle event to an append-only
  JSONL log and replays it on startup (finished jobs into history,
  unfinished jobs re-queued, settled keys served warm from the store),
  while the shared :class:`~repro.service.retry.RetryPolicy` gives
  every client and worker capped, jittered, idempotent-only transport
  retries so fleets bridge a restart instead of dying on it.
* :mod:`repro.service.registry` + :mod:`repro.service.console` --
  fleet observability.  Workers heartbeat their identity and
  throughput (piggybacked on lease/settle, or ``POST
  /v1/workers/heartbeat`` while idle) into a TTL'd
  :class:`~repro.service.registry.WorkerRegistry` served at ``GET
  /v1/workers`` and aggregated into ``repro_fleet_*`` metrics; lease
  grants carry a per-job trace context every worker span adopts; and
  ``repro top`` renders the whole fleet as a live terminal console.

See ``docs/service-api.md`` for the wire API and deployment knobs, and
``docs/distributed.md`` for the lease lifecycle and failure model
(including the coordinator failure model).
"""

from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import InvalidRequest, Job, SweepRequest, job_id_for
from repro.service.journal import JobJournal, load_journal, read_journal
from repro.service.leases import Lease, LeaseManager
from repro.service.registry import WorkerRegistry
from repro.service.retry import RetryPolicy
from repro.service.scheduler import Draining, JobScheduler, QueueFull
from repro.service.server import BackgroundService, SimulationService
from repro.service.worker import run_worker

__all__ = [
    "BackgroundService",
    "Draining",
    "InvalidRequest",
    "Job",
    "JobJournal",
    "JobScheduler",
    "Lease",
    "LeaseManager",
    "QueueFull",
    "RetryPolicy",
    "ServiceClient",
    "ServiceError",
    "SimulationService",
    "SweepRequest",
    "WorkerRegistry",
    "job_id_for",
    "load_journal",
    "read_journal",
    "run_worker",
]
