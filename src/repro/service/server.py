"""Minimal HTTP/1.1 service on ``asyncio.start_server``.

Endpoints (see ``docs/service-api.md`` for payload shapes):

* ``POST /v1/sweeps``          -- submit a sweep; 202 with the job id
  (an identical queued/running job coalesces: same id, ``created``
  false), 400 on a malformed request, 429 when the queue is full,
  503 while draining.
* ``GET /v1/jobs/{id}``        -- job snapshot (state, counters, runs).
* ``GET /v1/jobs/{id}/events`` -- Server-Sent Events progress stream:
  a ``snapshot`` event, then one ``run`` event per settled run, closed
  by a ``done`` event carrying the final snapshot.
* ``GET /v1/results?key=...``  -- a completed run's record (spec +
  result) by run-key digest, served from cache without simulating.
* ``GET /v1/jobs/{id}/timeline`` -- the sampled per-run timelines of a
  job submitted with ``"timeline": <interval>`` (null per run until it
  settles or when sampling was off).
* ``POST /v1/leases``          -- (remote mode) a worker pulls a lease
  over a batch of pending runs; 200 with ``{"lease", "ttl", "runs"}``
  (``runs`` empty when nothing is pending), 400 when the service runs
  local consumers (outside clients must not settle into its store).
* ``POST /v1/leases/{id}/settle`` -- (remote mode) a worker settles
  leased outcomes; 200 with accept/duplicate counts, 410 when the
  lease expired and none of the keys were still claimable.
* ``GET /v1/leases``           -- (remote mode) operator snapshot of
  active leases and the pending-run queue.
* ``GET /v1/workers``          -- (remote mode) the fleet registry:
  every known worker with liveness state, settled-run counts and
  reported throughput (``repro top`` renders this).
* ``POST /v1/workers/heartbeat`` -- (remote mode) idle-worker
  liveness; busy workers piggyback the same heartbeat object on their
  lease/settle bodies instead.
* ``GET /v1/jobs``             -- recent job snapshots, newest first
  (``?limit=`` caps the list).
* ``GET /healthz``             -- liveness (``draining`` while
  shutting down).
* ``GET /metrics``             -- Prometheus text exposition (format
  0.0.4) of the scheduler's registry plus the process-wide one: queue
  depth, store hit rate, jobs/runs served, coalescing counters,
  request counts/latency, arena + store + engine families.

Operational behaviour: request bodies are bounded (413 past
``max_body``), non-sweep methods get 405, unknown paths 404; SIGTERM /
SIGINT triggers a graceful drain -- the listener closes, queued and
active jobs finish, then the process exits.  With
``REPRO_SERVICE_ACCESS_LOG=<path>`` every request appends one JSONL
line (ts, method, path, status, duration_ms, bytes_out, job id when a
submission created/coalesced one).  With ``--journal PATH`` /
``REPRO_SERVICE_JOURNAL`` the scheduler write-ahead-journals every job
lifecycle event and replays the log before the listener binds, so a
crashed coordinator restarts without losing accepted work (see
:mod:`repro.service.journal`).

Every knob has a ``REPRO_SERVICE_*`` environment default so ``repro
serve`` deployments can be configured without flags.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import os
import signal
import threading
import time
from typing import Dict, Optional, Tuple
from urllib.parse import parse_qs, urlsplit

from repro.engine.engine import default_workers
from repro.engine.serialize import result_from_dict
from repro.engine.store import ResultStore, default_store_path
from repro.service.jobs import InvalidRequest, SweepRequest
from repro.service.journal import JobJournal
from repro.service.leases import DEFAULT_LEASE_RUNS, DEFAULT_LEASE_TTL_S
from repro.service.scheduler import (
    DEFAULT_MAX_ACTIVE,
    DEFAULT_MAX_QUEUE,
    Draining,
    JobScheduler,
    QueueFull,
)
from repro.telemetry.metrics import (
    CONTENT_TYPE as METRICS_CONTENT_TYPE,
    REGISTRY,
    render_exposition,
)

__all__ = [
    "BackgroundService", "DEFAULT_HOST", "DEFAULT_PORT", "SimulationService",
    "env_int", "serve",
]

#: default bind address (loopback: put a real proxy in front for LAN use)
DEFAULT_HOST = "127.0.0.1"
#: default TCP port
DEFAULT_PORT = 8177
#: default request-body bound in bytes
DEFAULT_MAX_BODY = 1 << 20

#: per-read/write socket timeout: a stalled client must not be able to
#: pin a connection handler open forever (that would wedge the graceful
#: drain, which waits for handlers on Python >= 3.12.1)
IO_TIMEOUT_S = 30.0

_SERVER_NAME = "repro-service"


def env_int(name: str, default: int) -> int:
    """Integer environment knob with a fallback default."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"{name} must be an integer, got {raw!r}")


class _HTTPError(Exception):
    """Terminate request handling with a status + JSON error body."""

    def __init__(self, status: int, message: str):
        super().__init__(message)
        self.status = status
        self.message = message


_STATUS_TEXT = {
    200: "OK", 202: "Accepted", 400: "Bad Request", 404: "Not Found",
    405: "Method Not Allowed", 410: "Gone", 411: "Length Required",
    413: "Payload Too Large", 429: "Too Many Requests",
    500: "Internal Server Error", 503: "Service Unavailable",
}


def _response(
    status: int,
    body: bytes,
    content_type: str = "application/json",
    extra: Tuple[Tuple[str, str], ...] = (),
) -> bytes:
    lines = [
        f"HTTP/1.1 {status} {_STATUS_TEXT.get(status, 'Unknown')}",
        f"Server: {_SERVER_NAME}",
        f"Content-Type: {content_type}",
        f"Content-Length: {len(body)}",
        "Connection: close",
    ]
    lines.extend(f"{name}: {value}" for name, value in extra)
    return ("\r\n".join(lines) + "\r\n\r\n").encode() + body


def _json_response(
    status: int, payload: dict, extra: Tuple[Tuple[str, str], ...] = ()
) -> bytes:
    return _response(
        status, (json.dumps(payload, sort_keys=True) + "\n").encode(),
        extra=extra,
    )


class _Responder:
    """StreamWriter proxy that records what the handler sent.

    Sniffs the status code off the response head (the first write
    always starts with ``HTTP/1.1 ``), counts bytes out, and carries
    the ``job`` id and ``trace_id`` a submit/settle handler attaches --
    everything the access log and the request metrics need, without
    threading a context object through every handler.
    """

    __slots__ = ("_writer", "status", "bytes_out", "job", "trace_id")

    def __init__(self, writer: asyncio.StreamWriter) -> None:
        self._writer = writer
        self.status: Optional[int] = None
        self.bytes_out = 0
        self.job: Optional[str] = None
        self.trace_id: Optional[str] = None

    def write(self, data: bytes) -> None:
        if self.status is None and data.startswith(b"HTTP/1.1 "):
            try:
                self.status = int(data[9:12])
            except ValueError:
                pass
        self.bytes_out += len(data)
        self._writer.write(data)

    def __getattr__(self, name):
        return getattr(self._writer, name)


def _route_label(path: str) -> str:
    """Collapse a request path into a bounded metrics label."""
    if path in ("/healthz", "/metrics", "/v1/sweeps", "/v1/results",
                "/v1/leases", "/v1/workers", "/v1/workers/heartbeat",
                "/v1/jobs"):
        return path
    if path.startswith("/v1/leases/"):
        return "/v1/leases/{id}/settle"
    if path.startswith("/v1/jobs/"):
        rest = path[len("/v1/jobs/"):]
        if rest.endswith("/events"):
            return "/v1/jobs/{id}/events"
        if rest.endswith("/timeline"):
            return "/v1/jobs/{id}/timeline"
        return "/v1/jobs/{id}"
    return "other"


class SimulationService:
    """The HTTP front of a :class:`JobScheduler`.

    Args:
        scheduler: executes the jobs (owns the lease queue + store).
        host/port: bind address; port 0 picks an ephemeral port
            (exposed as :attr:`port` after :meth:`start`).
        max_body: request-body bound in bytes (413 past it).
    """

    def __init__(
        self,
        scheduler: JobScheduler,
        host: str = DEFAULT_HOST,
        port: int = DEFAULT_PORT,
        max_body: int = DEFAULT_MAX_BODY,
        allow_traces: bool = False,
        access_log: Optional[str] = None,
    ) -> None:
        self.scheduler = scheduler
        self.host = host
        self.port = port
        self.max_body = max_body
        self.allow_traces = allow_traces
        self.access_log = access_log or None
        self._access_handle = None
        self.started = time.monotonic()
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop = asyncio.Event()
        # request-level metrics live in the scheduler's registry so one
        # /metrics scrape covers the whole service instance
        registry = scheduler.registry
        registry.gauge(
            "repro_service_uptime_seconds", "Seconds since service start"
        ).set_function(lambda: time.monotonic() - self.started)
        self._requests = registry.counter(
            "repro_service_requests", "HTTP requests served",
            labelnames=("route", "status"),
        )
        self._request_seconds = registry.histogram(
            "repro_service_request_seconds", "HTTP request wall-time",
            labelnames=("route",),
        )

    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener (resolves :attr:`port` when it was 0).

        The result store's index is pre-loaded off the event loop here:
        the first touch parses the whole JSON-lines file, and that must
        never happen inside a request handler (it would stall every
        concurrent connection, health checks included).
        """
        store = self.scheduler.store
        if store is not None:
            await asyncio.get_running_loop().run_in_executor(
                None, len, store
            )
        # journal replay happens before the listener binds: a client
        # that can reach the service never observes a half-recovered
        # job table (its poll either fails to connect or sees the
        # recovered state)
        await self.scheduler.recover()
        self._server = await asyncio.start_server(
            self._handle_connection, self.host, self.port
        )
        self.port = self._server.sockets[0].getsockname()[1]

    def request_stop(self) -> None:
        """Ask the serve loop to drain and exit (signal-handler safe)."""
        self.scheduler.draining = True
        self._stop.set()

    async def serve_until_stopped(self) -> None:
        """Serve until :meth:`request_stop` (or SIGTERM/SIGINT), then
        drain gracefully: close the listener, let every accepted job
        finish, and return."""
        if self._server is None:
            await self.start()
        loop = asyncio.get_running_loop()
        installed = []
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(signum, self.request_stop)
                installed.append(signum)
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-main thread or unsupported platform
        try:
            await self._stop.wait()
        finally:
            for signum in installed:
                loop.remove_signal_handler(signum)
            self._server.close()
            await self._server.wait_closed()
            await self.scheduler.drain()

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        started = time.monotonic()
        responder = _Responder(writer)
        method: Optional[str] = None
        target: Optional[str] = None
        try:
            try:
                method, target, headers = await self._read_head(reader)
                body = await self._read_body(reader, headers)
                await self._route(method, target, body, responder)
            except _HTTPError as error:
                responder.write(_json_response(
                    error.status, {"error": error.message},
                ))
            except ValueError as error:
                # e.g. a request/header line over the StreamReader limit
                responder.write(_json_response(400, {"error": str(error)}))
        except (ConnectionResetError, BrokenPipeError, asyncio.TimeoutError):
            pass  # client went away mid-request/mid-stream
        finally:
            self._account_request(
                method, target, responder, time.monotonic() - started
            )
            with contextlib.suppress(Exception):
                writer.write_eof()
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _account_request(
        self,
        method: Optional[str],
        target: Optional[str],
        responder: _Responder,
        duration_s: float,
    ) -> None:
        """Count one finished request and append the access-log line."""
        if method is None or target is None:
            return  # connection died before a parseable request line
        path = urlsplit(target).path.rstrip("/") or "/"
        route = _route_label(path)
        self._requests.labels(route, str(responder.status or 0)).inc()
        self._request_seconds.labels(route).observe(duration_s)
        if self.access_log is None:
            return
        if self._access_handle is None:
            try:
                self._access_handle = open(
                    self.access_log, "a", encoding="utf-8"
                )
            except OSError:
                self.access_log = None  # unwritable: disable, don't die
                return
        line = json.dumps({
            "ts": time.time(),
            "method": method,
            "path": path,
            "status": responder.status or 0,
            "duration_ms": round(duration_s * 1000.0, 3),
            "bytes_out": responder.bytes_out,
            "job": responder.job,
            "trace_id": responder.trace_id,
        }, sort_keys=True)
        with contextlib.suppress(OSError):
            self._access_handle.write(line + "\n")
            self._access_handle.flush()

    @staticmethod
    async def _read_line(reader: asyncio.StreamReader, what: str) -> bytes:
        """One CRLF-terminated line, bounded in both time and length."""
        try:
            return await asyncio.wait_for(reader.readline(), IO_TIMEOUT_S)
        except asyncio.TimeoutError:
            raise _HTTPError(400, f"timed out reading the {what}")
        except ValueError:
            # the StreamReader 64 KiB line limit: a 400, not a dropped
            # connection + unhandled-task traceback
            raise _HTTPError(400, f"{what} too long")

    async def _read_head(
        self, reader: asyncio.StreamReader
    ) -> Tuple[str, str, Dict[str, str]]:
        request_line = await self._read_line(reader, "request line")
        parts = request_line.decode("latin-1").split()
        if len(parts) != 3:
            raise _HTTPError(400, "malformed request line")
        method, target, _version = parts
        headers: Dict[str, str] = {}
        while True:
            line = await self._read_line(reader, "header line")
            if line in (b"\r\n", b"\n", b""):
                break
            if len(headers) > 100:
                raise _HTTPError(400, "too many headers")
            name, _, value = line.decode("latin-1").partition(":")
            headers[name.strip().lower()] = value.strip()
        return method, target, headers

    async def _read_body(
        self, reader: asyncio.StreamReader, headers: Dict[str, str]
    ) -> bytes:
        raw_length = headers.get("content-length")
        if raw_length is None:
            return b""
        try:
            length = int(raw_length)
        except ValueError:
            raise _HTTPError(400, "malformed Content-Length")
        if length > self.max_body:
            raise _HTTPError(
                413, f"request body exceeds {self.max_body} bytes"
            )
        try:
            return await asyncio.wait_for(
                reader.readexactly(length), IO_TIMEOUT_S
            )
        except asyncio.TimeoutError:
            raise _HTTPError(400, "timed out reading the request body")
        except asyncio.IncompleteReadError:
            raise _HTTPError(400, "request body shorter than Content-Length")

    # ------------------------------------------------------------------
    async def _route(
        self,
        method: str,
        target: str,
        body: bytes,
        writer: asyncio.StreamWriter,
    ) -> None:
        url = urlsplit(target)
        path = url.path.rstrip("/") or "/"

        if path == "/healthz" and method == "GET":
            status = "draining" if self.scheduler.draining else "ok"
            writer.write(_json_response(
                503 if status == "draining" else 200,
                {
                    "status": status,
                    "uptime_s": time.monotonic() - self.started,
                },
            ))
            return
        if path == "/metrics" and method == "GET":
            exposition = render_exposition(self.scheduler.registry, REGISTRY)
            writer.write(_response(
                200, exposition.encode(),
                content_type=METRICS_CONTENT_TYPE,
            ))
            return
        if path == "/v1/sweeps":
            if method != "POST":
                raise _HTTPError(405, "POST only")
            await self._handle_submit(body, writer)
            return
        if path == "/v1/leases":
            if method == "GET":
                self._require_remote()
                writer.write(_json_response(
                    200, self.scheduler.leases.snapshot()
                ))
                return
            if method != "POST":
                raise _HTTPError(405, "GET or POST only")
            self._handle_lease(body, writer)
            return
        if path.startswith("/v1/leases/") and path.endswith("/settle"):
            if method != "POST":
                raise _HTTPError(405, "POST only")
            lease_id = path[len("/v1/leases/"): -len("/settle")].rstrip("/")
            await self._handle_settle(lease_id, body, writer)
            return
        if path == "/v1/workers":
            if method != "GET":
                raise _HTTPError(405, "GET only")
            self._require_remote()
            writer.write(_json_response(
                200, self.scheduler.workers.snapshot()
            ))
            return
        if path == "/v1/workers/heartbeat":
            if method != "POST":
                raise _HTTPError(405, "POST only")
            self._handle_worker_heartbeat(body, writer)
            return
        if path == "/v1/jobs" and method == "GET":
            self._handle_jobs_list(url.query, writer)
            return
        if path == "/v1/results" and method == "GET":
            key = parse_qs(url.query).get("key", [""])[0]
            if not key:
                raise _HTTPError(400, "missing ?key=<run key digest>")
            record = self.scheduler.result_record(key)
            if record is None:
                raise _HTTPError(404, f"no completed result for key {key}")
            writer.write(_json_response(200, record))
            return
        if path.startswith("/v1/jobs/") and method == "GET":
            rest = path[len("/v1/jobs/"):]
            if rest.endswith("/events"):
                await self._handle_events(rest[: -len("/events")].rstrip("/"),
                                          writer)
                return
            if rest.endswith("/timeline"):
                self._handle_timeline(
                    rest[: -len("/timeline")].rstrip("/"), writer
                )
                return
            if "/" not in rest:
                job = self.scheduler.jobs.get(rest)
                if job is None:
                    raise _HTTPError(404, f"unknown job {rest}")
                writer.write(_json_response(200, job.snapshot()))
                return
        raise _HTTPError(404, f"no route for {method} {path}")

    async def _handle_submit(
        self, body: bytes, writer: asyncio.StreamWriter
    ) -> None:
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HTTPError(400, "request body is not valid JSON")
        try:
            request = SweepRequest.from_payload(
                payload, allow_traces=self.allow_traces
            )
            # spec building reads + hashes trace files for trace:<path>
            # workloads -- blocking I/O that must stay off the loop
            specs = await asyncio.get_running_loop().run_in_executor(
                None, request.to_specs
            )
            job, created = self.scheduler.submit(request, specs)
        except InvalidRequest as error:
            raise _HTTPError(400, str(error))
        except QueueFull as error:
            writer.write(_json_response(
                429, {"error": str(error)}, extra=(("Retry-After", "1"),),
            ))
            return
        except Draining as error:
            raise _HTTPError(503, str(error))
        writer.job = job.id
        writer.trace_id = job.trace_id
        writer.write(_json_response(
            202,
            {
                "job": job.id,
                "trace_id": job.trace_id,
                "created": created,
                "state": job.state,
                "total": job.counters["total"],
                "location": f"/v1/jobs/{job.id}",
                "events": f"/v1/jobs/{job.id}/events",
            },
            extra=(("Location", f"/v1/jobs/{job.id}"),),
        ))

    def _handle_jobs_list(self, query: str, writer) -> None:
        """GET /v1/jobs: recent job snapshots (no per-run detail),
        newest first -- the job-history feed ``repro top`` renders."""
        raw = parse_qs(query).get("limit", ["50"])[0]
        try:
            limit = max(1, min(500, int(raw)))
        except ValueError:
            raise _HTTPError(400, "limit must be an integer")
        jobs = sorted(
            self.scheduler.jobs.values(),
            key=lambda job: job.created,
            reverse=True,
        )
        writer.write(_json_response(200, {
            "jobs": [job.snapshot(include_runs=False)
                     for job in jobs[:limit]],
            "known": len(jobs),
        }))

    # ------------------------------------------------------------------
    # remote mode: the worker-pull lease endpoints
    def _require_remote(self) -> None:
        if self.scheduler.local_workers:
            raise _HTTPError(
                400,
                "this service executes locally; start it with "
                "`repro serve --remote` to serve workers",
            )

    def _handle_lease(self, body: bytes, writer) -> None:
        """POST /v1/leases: grant a worker a batch of pending runs.

        Grants continue while draining (accepted jobs must finish);
        the response's ``draining`` flag tells workers they may exit
        once ``runs`` comes back empty.
        """
        self._require_remote()
        try:
            payload = json.loads(body.decode("utf-8") or "{}")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HTTPError(400, "request body is not valid JSON")
        if not isinstance(payload, dict):
            raise _HTTPError(400, "lease request must be a JSON object")
        worker = str(payload.get("worker") or "anonymous")[:120]
        try:
            max_runs = int(payload.get("max_runs", DEFAULT_LEASE_RUNS))
            ttl = float(payload.get("ttl", DEFAULT_LEASE_TTL_S))
        except (TypeError, ValueError, OverflowError):
            raise _HTTPError(400, "max_runs/ttl must be numbers")
        # the lease itself is the liveness signal; a piggybacked
        # heartbeat additionally updates the worker's telemetry
        if self.scheduler.workers.heartbeat(payload.get("heartbeat")) is None:
            self.scheduler.workers.touch(worker)
        grant = self.scheduler.grant_lease(worker, max_runs=max_runs, ttl=ttl)
        if grant is None:
            writer.write(_json_response(200, {
                "lease": None,
                "runs": [],
                "draining": self.scheduler.draining,
            }))
            return
        writer.write(_json_response(200, grant))

    async def _handle_settle(
        self, lease_id: str, body: bytes, writer
    ) -> None:
        """POST /v1/leases/{id}/settle: accept worker outcomes.

        Settlement is idempotent and tolerant of expiry races: keys
        re-queued by the reaper still settle (the result is real),
        keys already settled elsewhere count as duplicates, and a
        fully-unknown lease with nothing claimable is 410 Gone so the
        worker drops the rest of its batch and re-leases.
        """
        self._require_remote()
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HTTPError(400, "request body is not valid JSON")
        if not isinstance(payload, dict) or not isinstance(
            payload.get("runs"), list
        ):
            raise _HTTPError(400, 'settle body must be {"runs": [...]}')
        runs = payload["runs"]
        for run in runs:
            if not isinstance(run, dict) or not isinstance(
                run.get("key"), str
            ):
                raise _HTTPError(400, "every run needs a string key")
            has_result = isinstance(run.get("result"), dict)
            has_error = isinstance(run.get("error"), str) and run["error"]
            if has_result == bool(has_error):
                raise _HTTPError(
                    400, "every run needs a result object XOR an error"
                )

        def validate() -> None:
            # malformed result payloads must be rejected before they
            # can settle a job or reach the store
            for run in runs:
                if run.get("result") is not None:
                    result_from_dict(run["result"])

        loop = asyncio.get_running_loop()
        try:
            await loop.run_in_executor(None, validate)
        except Exception as error:
            raise _HTTPError(400, f"malformed result payload: {error}")

        heartbeat = payload.get("heartbeat")
        self.scheduler.workers.heartbeat(heartbeat)
        worker = None
        if isinstance(heartbeat, dict):
            worker = str(heartbeat.get("name") or "")[:120] or None
        claim = await self.scheduler.settle(lease_id, runs, worker=worker)
        accepted = claim["accepted"]
        if not claim["lease_known"] and not accepted:
            raise _HTTPError(
                410,
                f"lease {lease_id} expired and its runs were re-leased; "
                "drop the batch and lease again",
            )
        if accepted:
            # correlate this settle's access-log line with the job it
            # advanced (the first accepted run's owning job)
            writer.trace_id = accepted[0][2].trace_id
        writer.write(_json_response(200, {
            "settled": len(accepted),
            "duplicates": claim["duplicates"],
            "remaining": claim["remaining"],
            "draining": self.scheduler.draining,
        }))

    def _handle_worker_heartbeat(self, body: bytes, writer) -> None:
        """POST /v1/workers/heartbeat: idle-worker liveness.

        Busy workers piggyback the same object on lease/settle bodies;
        this endpoint keeps a worker with nothing leased visible in
        ``GET /v1/workers`` between polls.
        """
        self._require_remote()
        try:
            payload = json.loads(body.decode("utf-8") or "null")
        except (UnicodeDecodeError, json.JSONDecodeError):
            raise _HTTPError(400, "request body is not valid JSON")
        if self.scheduler.workers.heartbeat(payload) is None:
            raise _HTTPError(
                400, 'heartbeat must be an object with a "name"'
            )
        writer.write(_json_response(200, {
            "workers": len(self.scheduler.workers),
        }))

    async def _handle_events(
        self, job_id: str, writer: asyncio.StreamWriter
    ) -> None:
        """Stream a job's progress as Server-Sent Events."""
        job = self.scheduler.jobs.get(job_id)
        if job is None:
            raise _HTTPError(404, f"unknown job {job_id}")
        # subscribe *before* snapshotting so no settle falls in between
        queue = self.scheduler.subscribe(job_id)

        async def push() -> None:
            # a stalled reader must not pin this handler (and with it
            # the graceful drain) open forever
            await asyncio.wait_for(writer.drain(), IO_TIMEOUT_S)

        try:
            writer.write(
                b"HTTP/1.1 200 OK\r\n"
                b"Server: " + _SERVER_NAME.encode() + b"\r\n"
                b"Content-Type: text/event-stream\r\n"
                b"Cache-Control: no-cache\r\n"
                b"Connection: close\r\n\r\n"
            )
            writer.write(_sse_event("snapshot", job.snapshot()))
            await push()
            if job.done:
                writer.write(_sse_event("done", job.snapshot()))
                await push()
                return
            while True:
                event = await queue.get()
                name = event.get("event", "message")
                if name == "done":
                    writer.write(_sse_event("done", event["job"]))
                    await push()
                    return
                writer.write(_sse_event(name, event))
                await push()
        finally:
            self.scheduler.unsubscribe(job_id, queue)

    def _handle_timeline(self, job_id: str, writer) -> None:
        """GET /v1/jobs/{id}/timeline: the sampled series per run.

        Each run entry carries its timeline payload (interval,
        truncated flag, cumulative columns -- see
        :mod:`repro.telemetry.timeline`) or ``null`` while the run is
        unsettled, errored, or was executed without sampling.
        """
        job = self.scheduler.jobs.get(job_id)
        if job is None:
            raise _HTTPError(404, f"unknown job {job_id}")
        runs = []
        for key, run in job.runs.items():
            timeline = None
            record = self.scheduler.result_record(key)
            if record is not None:
                timeline = (record.get("result") or {}).get("timeline")
            runs.append({
                "key": key,
                "config": run.config,
                "workload": run.workload,
                "state": run.state,
                "timeline": timeline,
            })
        writer.write(_json_response(200, {
            "job": job.id,
            "state": job.state,
            "interval": job.request.timeline,
            "runs": runs,
        }))


def _sse_event(name: str, payload: dict) -> bytes:
    return (
        f"event: {name}\ndata: {json.dumps(payload, sort_keys=True)}\n\n"
    ).encode()


# ----------------------------------------------------------------------
def build_service(
    host: str = DEFAULT_HOST,
    port: int = DEFAULT_PORT,
    store_path=None,
    no_store: bool = False,
    workers: Optional[int] = None,
    max_queue: Optional[int] = None,
    max_active: Optional[int] = None,
    max_body: Optional[int] = None,
    allow_traces: Optional[bool] = None,
    access_log: Optional[str] = None,
    remote: Optional[bool] = None,
    store_backend: Optional[str] = None,
    journal: Optional[str] = None,
) -> SimulationService:
    """Assemble store -> scheduler -> service with env-var defaults.

    ``REPRO_SERVICE_QUEUE`` / ``REPRO_SERVICE_ACTIVE`` /
    ``REPRO_SERVICE_MAX_BODY`` fill unspecified bounds;
    ``REPRO_SERVICE_ALLOW_TRACES=1`` opts in to ``trace:<path>``
    workloads (server-side file access -- off by default);
    ``REPRO_SERVICE_ACCESS_LOG=<path>`` turns on the structured
    per-request JSONL access log.  ``workers`` in-process lease
    consumers execute the runs (default ``REPRO_WORKERS``, else the CPU
    count); ``REPRO_SERVICE_REMOTE=1`` (or ``remote=True``) starts none,
    opening the lease endpoints so `repro worker` processes execute
    them instead.  The store resolves like the CLI's (explicit path,
    else ``REPRO_STORE``, else the user cache directory; ``no_store``
    disables persistence -- the scheduler's in-memory record mirror
    still dedupes within the process lifetime), and ``store_backend``
    picks its on-disk layout for new stores (else
    ``REPRO_STORE_BACKEND``, else single-file).
    ``journal`` (or ``REPRO_SERVICE_JOURNAL=<path>``) attaches the
    write-ahead job journal: accepted work survives coordinator
    restarts, replayed against the store on startup
    (``docs/distributed.md``, "Coordinator failure model").
    """
    store = None
    if not no_store:
        path = store_path if store_path is not None else default_store_path()
        if path:
            store = ResultStore(path, backend=store_backend)
    journal_path = (
        journal if journal is not None
        else os.environ.get("REPRO_SERVICE_JOURNAL", "").strip() or None
    )
    if remote is None:
        remote = os.environ.get("REPRO_SERVICE_REMOTE", "").strip() in (
            "1", "true", "yes"
        )
    scheduler = JobScheduler(
        store=store,
        local_workers=(
            0 if remote
            else default_workers() if workers is None else max(1, workers)
        ),
        max_queue=(
            max_queue if max_queue is not None
            else env_int("REPRO_SERVICE_QUEUE", DEFAULT_MAX_QUEUE)
        ),
        max_active=(
            max_active if max_active is not None
            else env_int("REPRO_SERVICE_ACTIVE", DEFAULT_MAX_ACTIVE)
        ),
        journal=JobJournal(journal_path) if journal_path else None,
    )
    return SimulationService(
        scheduler,
        host=host,
        port=port,
        max_body=(
            max_body if max_body is not None
            else env_int("REPRO_SERVICE_MAX_BODY", DEFAULT_MAX_BODY)
        ),
        allow_traces=(
            allow_traces if allow_traces is not None
            else os.environ.get("REPRO_SERVICE_ALLOW_TRACES", "").strip()
            in ("1", "true", "yes")
        ),
        access_log=(
            access_log if access_log is not None
            else os.environ.get("REPRO_SERVICE_ACCESS_LOG", "").strip()
            or None
        ),
    )


def serve(service: SimulationService, announce=None) -> None:
    """Blocking entry point: run *service* until SIGTERM/SIGINT, then
    drain and return (what ``repro serve`` calls)."""

    async def main() -> None:
        await service.start()
        if announce is not None:
            announce(service)
        await service.serve_until_stopped()

    asyncio.run(main())


class BackgroundService:
    """Run a :class:`SimulationService` on a background thread.

    Context manager for tests and in-process embedding::

        with BackgroundService(workers=1, no_store=True) as svc:
            client = ServiceClient(svc.url)
            ...

    The service binds an ephemeral port by default; :attr:`url` is ready
    once ``__enter__`` returns.  Exit requests a drain and joins the
    thread, so accepted jobs finish before the block ends.
    """

    def __init__(self, service: Optional[SimulationService] = None,
                 **build_kwargs) -> None:
        if service is not None and build_kwargs:
            raise ValueError("pass a service OR build kwargs, not both")
        if service is None:
            build_kwargs.setdefault("port", 0)
            service = build_service(**build_kwargs)
        self.service = service
        self._ready = threading.Event()
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self._thread = threading.Thread(
            target=self._run, name="repro-service", daemon=True
        )

    @property
    def url(self) -> str:
        return f"http://{self.service.host}:{self.service.port}"

    def _run(self) -> None:
        async def main() -> None:
            await self.service.start()
            self._loop = asyncio.get_running_loop()
            self._ready.set()
            await self.service.serve_until_stopped()

        try:
            asyncio.run(main())
        finally:
            self._ready.set()  # unblock __enter__ on startup failure

    def __enter__(self) -> "BackgroundService":
        self._thread.start()
        self._ready.wait(30.0)
        if self._loop is None:
            raise RuntimeError("service failed to start")
        return self

    def __exit__(self, *_exc) -> None:
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.service.request_stop)
        self._thread.join(60.0)
