"""Tests for the simulation service: job model, scheduler single-flight,
HTTP server end-to-end (bit-identity, dedup, backpressure, SSE)."""

from __future__ import annotations

import asyncio
import os
import threading
import time

import pytest

from repro.cache.stats import CacheStats
from repro.engine.serialize import result_to_dict
from repro.engine.spec import RunSpec, execute_spec, spec_from_dict
from repro.gpu.stats import MemorySystemStats, SimulationResult
from repro.service.client import ServiceClient, ServiceError
from repro.service.jobs import InvalidRequest, Job, SweepRequest, job_id_for
from repro.service.scheduler import Draining, JobScheduler, QueueFull
from repro.service.server import BackgroundService, SimulationService


# ----------------------------------------------------------------------
# helpers
# ----------------------------------------------------------------------
def payload(**overrides):
    base = {
        "configs": ["L1-SRAM"], "workloads": ["ATAX"],
        "scale": "smoke", "num_sms": 2,
    }
    base.update(overrides)
    return base


def request(**overrides) -> SweepRequest:
    return SweepRequest.from_payload(payload(**overrides))


def fake_result(spec: RunSpec) -> SimulationResult:
    return SimulationResult(
        config_name=spec.l1d.name, workload_name=spec.workload,
        cycles=100, instructions=50, l1d=CacheStats(),
        memory=MemorySystemStats(),
    )


class StubRunner:
    """Run-executor double: records every executed key, optionally
    blocks or fails.

    ``release`` starts set (non-blocking); clear it to hold runs open
    until the test releases it -- that is the window in which
    single-flight attachment and queue backpressure are observable.
    """

    def __init__(self, fail: bool = False):
        self.fail = fail
        self.dispatches = []  # executed run-key digests, in order
        self.started = threading.Event()
        self.release = threading.Event()
        self.release.set()

    def __call__(self, key, run):
        self.dispatches.append(key)
        self.started.set()
        assert self.release.wait(30.0), "stub runner never released"
        if self.fail:
            raise RuntimeError("runner exploded")
        spec = spec_from_dict(run["spec"])
        return {"key": key, "result": result_to_dict(fake_result(spec)),
                "timing": {"sim_s": 0.0, "cycles": 100}}


def exit_abruptly(key, run):
    """Pool-process run executor that dies mid-run."""
    os._exit(3)


def fake_settle_entry(key, run):
    """Pool-process run executor that settles a fake result."""
    spec = spec_from_dict(run["spec"])
    return {"key": key, "result": result_to_dict(fake_result(spec))}


def stub_scheduler(runner: StubRunner, **kwargs) -> JobScheduler:
    """A one-consumer scheduler whose runs execute on *runner*."""
    scheduler = JobScheduler(local_workers=1, **kwargs)
    scheduler.execute_run = runner
    return scheduler


async def wait_job(job: Job, timeout: float = 15.0) -> None:
    deadline = time.monotonic() + timeout
    while not job.done:
        assert time.monotonic() < deadline, f"job stuck in {job.state}"
        await asyncio.sleep(0.005)


async def runner_started(runner: StubRunner, timeout: float = 10.0) -> None:
    loop = asyncio.get_running_loop()
    assert await loop.run_in_executor(None, runner.started.wait, timeout)


# ----------------------------------------------------------------------
# request validation + canonicalisation
# ----------------------------------------------------------------------
class TestSweepRequest:
    def test_round_trip(self):
        req = request()
        assert req.configs == ("L1-SRAM",)
        assert req.workloads == ("ATAX",)
        assert req.scale == "smoke"
        assert req.num_sms == 2

    def test_comma_strings_accepted(self):
        req = request(configs="L1-SRAM, Dy-FUSE", workloads="ATAX,BICG")
        assert req.configs == ("L1-SRAM", "Dy-FUSE")
        assert req.workloads == ("ATAX", "BICG")

    def test_suite_expansion_canonicalises(self):
        by_suite = request(workloads=["DNN"])
        by_name = request(workloads=["conv2d", "gemm-tile", "attention"])
        assert by_suite.workloads == by_name.workloads
        assert (
            Job(by_suite, by_suite.to_specs()).id
            == Job(by_name, by_name.to_specs()).id
        )

    @pytest.mark.parametrize("bad", [
        {"configs": []},
        {"configs": "L1-MAGIC"},
        {"workloads": ["NOPE"]},
        {"gpu_profile": "pascal"},
        {"scale": "huge"},
        {"seed": "zero"},
        {"seed": True},
        {"num_sms": 0},
        {"num_sms": 100_000_000},  # one request must not OOM the workers
        {"typo_field": 1},
        {"backend": "fast"},  # older clients picked an execution engine
    ])
    def test_invalid_payloads_rejected(self, bad):
        with pytest.raises(InvalidRequest):
            request(**bad)

    def test_trace_workloads_gated_behind_operator_opt_in(self):
        """trace:<path> names server-side files; remote clients must not
        reach the filesystem unless the operator opted in."""
        with pytest.raises(InvalidRequest, match="disabled"):
            request(workloads=["trace:/etc/hosts"])
        allowed = SweepRequest.from_payload(
            payload(workloads=["trace:/tmp/some-trace.jsonl"]),
            allow_traces=True,
        )
        assert allowed.workloads == ("trace:/tmp/some-trace.jsonl",)

    def test_non_object_body_rejected(self):
        with pytest.raises(InvalidRequest):
            SweepRequest.from_payload(["not", "an", "object"])

    def test_missing_required_fields(self):
        with pytest.raises(InvalidRequest):
            SweepRequest.from_payload({"configs": ["L1-SRAM"]})


class TestJobIdentity:
    def test_job_id_is_order_and_dup_insensitive(self):
        assert job_id_for(["b", "a"]) == job_id_for(["a", "b", "a"])
        assert job_id_for(["a"]) != job_id_for(["a", "b"])

    def test_job_dedupes_specs_by_key(self):
        req = request(configs=["L1-SRAM", "L1-SRAM"])
        job = Job(req, req.to_specs())
        assert job.counters["total"] == 1

    def test_same_ask_same_id_different_ask_different_id(self):
        one = Job(request(), request().to_specs())
        two = Job(request(), request().to_specs())
        other = Job(request(seed=7), request(seed=7).to_specs())
        assert one.id == two.id
        assert one.id != other.id


# ----------------------------------------------------------------------
# scheduler single-flight
# ----------------------------------------------------------------------
class TestSchedulerSingleFlight:
    def test_concurrent_identical_jobs_one_dispatch(self):
        async def scenario():
            runner = StubRunner()
            runner.release.clear()
            scheduler = stub_scheduler(runner, max_active=2)
            job1, created1 = scheduler.submit(request())
            job2, created2 = scheduler.submit(request())
            assert created1 and not created2
            assert job1 is job2
            await runner_started(runner)
            runner.release.set()
            await wait_job(job1)
            assert len(runner.dispatches) == 1
            assert scheduler.metrics["jobs_coalesced"] == 1
            assert job1.counters["fresh"] == 1

        asyncio.run(scenario())

    def test_overlapping_keys_attach_to_inflight_job(self):
        async def scenario():
            runner = StubRunner()
            runner.release.clear()
            scheduler = stub_scheduler(runner, max_active=2)
            job_a, _ = scheduler.submit(request(workloads=["ATAX", "BICG"]))
            await runner_started(runner)  # A holds its keys in flight
            job_b, _ = scheduler.submit(request(workloads=["BICG", "GEMM"]))
            assert job_a is not job_b
            runner.release.set()
            await wait_job(job_a)
            await wait_job(job_b)
            # the shared BICG key was executed exactly once, by A
            shared = [
                key for key, spec in job_b.specs.items()
                if spec.workload == "BICG"
            ][0]
            assert runner.dispatches.count(shared) == 1
            assert job_b.runs[shared].source == "coalesced"
            assert job_b.counters["coalesced"] == 1
            assert job_b.counters["fresh"] == 1  # GEMM only
            assert scheduler.metrics["keys_coalesced"] == 1

        asyncio.run(scenario())

    def test_completed_keys_served_from_memory_mirror(self):
        async def scenario():
            runner = StubRunner()
            scheduler = stub_scheduler(runner)
            job1, _ = scheduler.submit(request())
            await wait_job(job1)
            job2, _ = scheduler.submit(request())
            await wait_job(job2)
            assert len(runner.dispatches) == 1  # second job never executed
            assert job2.counters["store_hits"] == job2.counters["total"] == 1
            assert job2.counters["fresh"] == 0

        asyncio.run(scenario())

    def test_queue_full_raises(self):
        async def scenario():
            runner = StubRunner()
            runner.release.clear()
            scheduler = stub_scheduler(runner, max_queue=1, max_active=1)
            job1, _ = scheduler.submit(request(seed=1))
            await runner_started(runner)
            scheduler.submit(request(seed=2))  # fills the one queue slot
            with pytest.raises(QueueFull):
                scheduler.submit(request(seed=3))
            # identical to the *queued* job: coalesces instead of 429
            _, created = scheduler.submit(request(seed=2))
            assert not created
            runner.release.set()
            await wait_job(job1)
            await wait_job(scheduler.jobs[Job(
                request(seed=2), request(seed=2).to_specs()
            ).id])

        asyncio.run(scenario())

    def test_draining_rejects_submissions(self):
        async def scenario():
            scheduler = stub_scheduler(StubRunner())
            scheduler.draining = True
            with pytest.raises(Draining):
                scheduler.submit(request())

        asyncio.run(scenario())

    def test_dead_pool_process_settles_errors_and_pool_restarts(self):
        async def scenario():
            scheduler = JobScheduler(local_workers=2)
            scheduler.execute_run = exit_abruptly
            broken, _ = scheduler.submit(request())
            await wait_job(broken)
            assert broken.state == "failed"
            (run,) = broken.runs.values()
            assert "BrokenProcessPool" in run.error
            scheduler.execute_run = fake_settle_entry
            healthy, _ = scheduler.submit(request(seed=1))
            await wait_job(healthy)
            assert healthy.state == "done"
            assert healthy.counters["fresh"] == 1
            await scheduler.drain()

        asyncio.run(scenario())

    def test_executor_failure_settles_errors_and_releases_attached(self):
        async def scenario():
            runner = StubRunner(fail=True)
            runner.release.clear()
            scheduler = stub_scheduler(runner, max_active=2)
            job_a, _ = scheduler.submit(request(workloads=["ATAX"]))
            await runner_started(runner)
            job_b, _ = scheduler.submit(request(workloads=["ATAX", "BICG"]))
            runner.release.set()
            await wait_job(job_a)
            await wait_job(job_b)
            # every run settled as an error carrying the exception text
            assert job_a.state == "failed"
            assert job_a.error == "every run failed"
            (run_a,) = job_a.runs.values()
            assert "runner exploded" in run_a.error
            assert scheduler.metrics["runs_error"] == 3  # A once, B twice
            # B must not hang on the attached key; its settle is an error
            attached = [
                key for key, spec in job_b.specs.items()
                if spec.workload == "ATAX"
            ][0]
            assert job_b.runs[attached].state == "done"
            assert "runner exploded" in job_b.runs[attached].error
            assert job_b.counters["errors"] == 2
            assert scheduler.leases.pending_runs == 0
            assert scheduler.leases.active_leases == 0

        asyncio.run(scenario())


# ----------------------------------------------------------------------
# HTTP end-to-end (real simulations, smoke scale)
# ----------------------------------------------------------------------
class TestServiceEndToEnd:
    CONFIGS = ["L1-SRAM", "Dy-FUSE"]

    def test_results_over_http_bit_identical_and_warm_store(self, tmp_path):
        store_path = tmp_path / "store.jsonl"
        with BackgroundService(store_path=store_path, workers=1) as svc:
            client = ServiceClient(svc.url)
            assert client.healthz()["status"] == "ok"

            snapshot = client.run_to_completion(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            assert snapshot["state"] == "done"
            assert snapshot["fresh"] == snapshot["total"] == 2
            assert snapshot["errors"] == 0

            # every result served over HTTP is bit-identical to a direct
            # in-process engine run of the same spec
            for run in snapshot["runs"]:
                spec = RunSpec.build(
                    run["config"], run["workload"], scale="smoke", num_sms=2,
                )
                assert spec.key().digest == run["key"]
                record = client.result(run["key"])
                assert record["result"] == result_to_dict(execute_spec(spec))

            # identical resubmission on the warm store: zero simulations
            accepted = client.submit(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            warm = client.wait(accepted["job"], timeout=60)
            assert warm["store_hits"] == warm["total"] == 2
            assert warm["fresh"] == 0

        # a *fresh* service process over the same store file also answers
        # from disk -- the dedup is content-addressed, not per-process
        with BackgroundService(store_path=store_path, workers=1) as svc:
            client = ServiceClient(svc.url)
            snapshot = client.run_to_completion(
                self.CONFIGS, ["ATAX"], scale="smoke", num_sms=2,
            )
            assert snapshot["store_hits"] == snapshot["total"] == 2
            assert snapshot["fresh"] == 0

    def test_sse_stream_reports_progress(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            events = list(client.events(accepted["job"]))
            names = [name for name, _ in events]
            assert names[0] == "snapshot"
            assert names[-1] == "done"
            final = events[-1][1]
            assert final["state"] == "done"
            assert final["completed"] == final["total"] == 1

    def test_job_snapshot_and_errors(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as err:
                client.job("not-a-job")
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.result("0" * 64)
            assert err.value.status == 404
            with pytest.raises(ServiceError) as err:
                client.submit(["L1-MAGIC"], ["ATAX"])
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("POST", "/v1/sweeps", {"configs": ["L1-SRAM"]})
            assert err.value.status == 400
            with pytest.raises(ServiceError) as err:
                client._request("GET", "/v1/nope")
            assert err.value.status == 404

    def test_local_runs_carry_worker_and_timing(self):
        """Local consumers settle through the lease fabric, so their
        runs are attributed and timed exactly like a fleet worker's;
        more consumers than cores still execute each key once."""
        with BackgroundService(no_store=True, workers=3) as svc:
            client = ServiceClient(svc.url)
            snapshot = client.run_to_completion(
                self.CONFIGS, ["2DCONV", "ATAX"], scale="smoke", num_sms=2,
                timeout=120,
            )
            assert snapshot["state"] == "done"
            assert snapshot["fresh"] == snapshot["total"] == 4
            for run in snapshot["runs"]:
                assert run["worker"] in ("local-0", "local-1", "local-2")
                assert run["timing"]["cycles"] > 0
                assert run["timing"]["sim_s"] > 0
            text = client.metrics()
            assert "repro_lease_runs_leased 4" in text
            assert 'repro_lease_settled{outcome="fresh"} 4' in text
            assert "repro_lease_pending_runs 0" in text
            assert "repro_lease_active 0" in text

    def test_metrics_exposed(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            text = client.metrics()
            assert "repro_service_queue_depth 0" in text
            assert "repro_service_runs_fresh 1" in text
            assert "repro_service_store_records 1" in text
            assert "repro_service_uptime_seconds" in text


class TestServiceBackpressure:
    def _stub_service(self, **scheduler_kwargs) -> tuple:
        runner = StubRunner()
        scheduler = stub_scheduler(runner, **scheduler_kwargs)
        return runner, SimulationService(scheduler, port=0)

    def test_full_queue_returns_429(self):
        runner, service = self._stub_service(max_queue=0, max_active=1)
        runner.release.clear()
        with BackgroundService(service=service) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert runner.started.wait(10.0)
            with pytest.raises(ServiceError) as err:
                client.submit(["L1-SRAM"], ["BICG"], scale="smoke", num_sms=2)
            assert err.value.status == 429
            runner.release.set()
            final = client.wait(accepted["job"], timeout=30)
            assert final["state"] == "done"

    def test_oversized_header_line_gets_400_not_dropped(self):
        import socket

        _, service = self._stub_service()
        with BackgroundService(service=service) as svc:
            with socket.create_connection(
                ("127.0.0.1", service.port), timeout=10
            ) as sock:
                sock.sendall(
                    b"GET /healthz HTTP/1.1\r\nX-Pad: "
                    + b"a" * 70_000 + b"\r\n\r\n"
                )
                response = b""
                while b"\r\n\r\n" not in response:
                    chunk = sock.recv(4096)
                    if not chunk:
                        break
                    response += chunk
            assert response.startswith(b"HTTP/1.1 400 ")
            # and the service is still healthy afterwards
            assert ServiceClient(svc.url).healthz()["status"] == "ok"

    def test_oversized_body_rejected(self):
        _, service = self._stub_service()
        service.max_body = 512
        with BackgroundService(service=service) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as err:
                client._request(
                    "POST", "/v1/sweeps",
                    {"configs": ["L1-SRAM"], "workloads": ["x" * 2048]},
                )
            assert err.value.status == 413

    def test_drain_finishes_accepted_jobs(self):
        runner, service = self._stub_service()
        runner.release.clear()
        with BackgroundService(service=service) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert runner.started.wait(10.0)
            job_id = accepted["job"]
            # request the drain while the job is mid-flight, then let the
            # runner finish; __exit__ joins the server thread
            service.scheduler.draining = True
            with pytest.raises(ServiceError) as err:
                client.submit(["L1-SRAM"], ["BICG"], scale="smoke",
                              num_sms=2)
            assert err.value.status == 503
            runner.release.set()
            final = client.wait(job_id, timeout=30)
            assert final["state"] == "done"


# ----------------------------------------------------------------------
# storeless operation
# ----------------------------------------------------------------------
class TestStorelessService:
    def test_memory_mirror_dedupes_without_store(self):
        with BackgroundService(no_store=True, workers=1) as svc:
            client = ServiceClient(svc.url)
            cold = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert cold["fresh"] == 1
            key = cold["runs"][0]["key"]
            assert client.result(key)["result"]["cycles"] > 0
            warm = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            assert warm["store_hits"] == 1
            assert warm["fresh"] == 0
