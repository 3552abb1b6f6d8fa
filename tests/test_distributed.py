"""The distributed sweep fabric: leases, workers, fleet single-flight.

Three layers of proof:

* :class:`~repro.service.leases.LeaseManager` unit tests with an
  injectable clock (FIFO grants, clamps, TTL expiry/requeue, the
  MAX_ATTEMPTS poison-run abandonment);
* the spec wire format (``spec_from_dict``) and the worker's refusal to
  execute mis-keyed payloads;
* end-to-end fleets: a remote-mode service with real ``repro worker``
  subprocesses and real ``repro submit`` submitter processes, proving
  every run key is simulated exactly once fleet-wide (cold), served
  from the store (warm), bit-identical to a serial
  :func:`~repro.engine.spec.execute_spec` pass, and re-issued when a
  worker is SIGKILLed mid-lease.
"""

import json
import re
import subprocess
import sys
import time

import pytest

from faultutil import (
    fake_result,
    smoke_spec,
    spawn_worker,
    stop_workers,
    subprocess_env,
)
from repro.engine import ResultStore
from repro.engine.serialize import result_to_dict
from repro.engine.spec import RunKey, execute_spec, spec_from_dict, spec_to_dict
from repro.service.client import ServiceClient, ServiceError
from repro.service.leases import (
    DEFAULT_LEASE_TTL_S,
    Lease,
    LeaseManager,
    MAX_ATTEMPTS,
    MAX_LEASE_RUNS,
)
from repro.service.server import BackgroundService
from repro.service.worker import _execute_one, run_worker

SWEEP = dict(
    configs="L1-SRAM,By-NVM", workloads="2DCONV,ATAX",
    scale="smoke", num_sms=2, seed=0,
)
SWEEP_TOTAL = 4


def wait_until(predicate, timeout_s=15.0, poll_s=0.05, what="condition"):
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        value = predicate()
        if value:
            return value
        time.sleep(poll_s)
    raise AssertionError(f"timed out waiting for {what}")


def metric_value(exposition: str, name: str, labels: str = "") -> float:
    pattern = re.escape(name + labels) + r"(?:\{\})? ([0-9.eE+-]+)$"
    total = 0.0
    found = False
    for line in exposition.splitlines():
        match = re.match(pattern, line)
        if match:
            total += float(match.group(1))
            found = True
    assert found, f"{name}{labels} not in /metrics"
    return total


# ----------------------------------------------------------------------
class TestLeaseManager:
    def make(self):
        now = [100.0]
        return now, LeaseManager(clock=lambda: now[0])

    def test_fifo_grants_and_dedup(self):
        _, manager = self.make()
        assert manager.add("a", "spec-a")
        assert manager.add("b", "spec-b")
        assert not manager.add("a", "spec-a2")  # pending already
        assert manager.pending_runs == 2

        lease = manager.lease("w1", max_runs=1)
        assert list(lease.runs) == ["a"]  # FIFO
        assert not manager.add("a", "spec-a3")  # leased already
        assert manager.pending_runs == 1
        assert manager.lease("w2", max_runs=8).runs == {"b": "spec-b"}
        assert manager.lease("w3") is None  # nothing pending

    def test_clamps(self):
        _, manager = self.make()
        for index in range(MAX_LEASE_RUNS + 10):
            manager.add(f"k{index:03d}", index)
        lease = manager.lease("w", max_runs=10_000, ttl=0.001)
        assert lease.granted == MAX_LEASE_RUNS
        assert lease.ttl == 1.0  # floor
        lease2 = manager.lease("w", max_runs=0, ttl=10 ** 9)
        assert lease2.granted == 1
        assert lease2.ttl == 3600.0  # ceiling

    def test_settle_refreshes_then_retires(self):
        now, manager = self.make()
        manager.add("a", "sa")
        manager.add("b", "sb")
        lease = manager.lease("w", ttl=10)
        assert lease.expires == 110.0

        now[0] = 105.0
        assert manager.settle_key(lease.lease_id, "a") == "sa"
        assert lease.expires == 115.0  # partial settle refreshed the TTL
        assert manager.attempts("a") == 0  # settled keys forget attempts
        assert manager.settle_key(lease.lease_id, "a") is None  # idempotent

        assert manager.settle_key(lease.lease_id, "b") == "sb"
        assert manager.get(lease.lease_id) is None  # fully settled: retired
        assert manager.active_leases == 0

    def test_expiry_requeues_unsettled_keys(self):
        now, manager = self.make()
        manager.add("a", "sa")
        manager.add("b", "sb")
        lease = manager.lease("w", ttl=10)
        manager.settle_key(lease.lease_id, "a")

        assert manager.expire() == ([], [])  # not expired yet
        now[0] = 200.0
        reaped, abandoned = manager.expire()
        assert [r.lease_id for r in reaped] == [lease.lease_id]
        assert abandoned == []
        assert manager.pending_runs == 1  # only the unsettled key
        assert manager.attempts("b") == 1
        # the requeued key leases again, FIFO
        assert list(manager.lease("w2").runs) == ["b"]
        assert manager.attempts("b") == 2

    def test_poison_key_abandoned_after_max_attempts(self):
        now, manager = self.make()
        manager.add("poison", "spec")
        for attempt in range(1, MAX_ATTEMPTS + 1):
            lease = manager.lease(f"victim-{attempt}", ttl=1)
            assert manager.attempts("poison") == attempt
            now[0] += 100.0
            reaped, abandoned = manager.expire()
            assert len(reaped) == 1
            if attempt < MAX_ATTEMPTS:
                assert abandoned == []
            else:
                assert abandoned == [("poison", "spec")]
        assert manager.pending_runs == 0
        assert manager.attempts("poison") == 0

    def test_settle_pending_accepts_late_results(self):
        now, manager = self.make()
        manager.add("a", "sa")
        lease = manager.lease("slow", ttl=1)
        now[0] += 10.0
        manager.expire()  # key boomerangs to pending
        # the reaped worker reports anyway: the result is real, take it
        assert manager.settle_pending("a") == "sa"
        assert manager.pending_runs == 0
        assert manager.settle_pending("a") is None

    def test_drop_key_everywhere(self):
        _, manager = self.make()
        manager.add("a", "sa")
        manager.add("b", "sb")
        manager.drop_key("a")
        assert manager.pending_runs == 1
        lease = manager.lease("w")
        manager.drop_key("b")
        assert manager.get(lease.lease_id) is None  # emptied lease retired

    def test_snapshot_shape(self):
        now, manager = self.make()
        manager.add("a", "sa")
        lease = manager.lease("w", ttl=30)
        now[0] += 10.0
        snap = manager.snapshot()
        assert snap["pending_runs"] == 0
        (active,) = snap["active"]
        assert active["lease"] == lease.lease_id
        assert active["worker"] == "w"
        assert active["granted"] == active["unsettled"] == 1
        assert active["expires_in"] == 20.0


# ----------------------------------------------------------------------
class TestWireFormat:
    def test_spec_round_trips_bit_exact(self):
        for kwargs in (
            dict(),
            dict(config="By-NVM", workload="VECADD", seed=7),
        ):
            spec = smoke_spec(**kwargs)
            clone = spec_from_dict(spec_to_dict(spec))
            assert spec_to_dict(clone) == spec_to_dict(spec)
            assert clone.key().digest == spec.key().digest

    def test_malformed_payload_is_value_error(self):
        with pytest.raises(ValueError, match="malformed spec payload"):
            spec_from_dict({"workload": "2DCONV"})

    def test_worker_refuses_mis_keyed_spec(self):
        spec = smoke_spec()
        outcome = _execute_one("f" * 64, {"spec": spec_to_dict(spec)})
        assert outcome["key"] == "f" * 64
        assert "refusing to execute" in outcome["error"]

    def test_worker_settles_execution_failure_as_error(self):
        payload = spec_to_dict(smoke_spec())
        payload["workload"] = "NO-SUCH-WORKLOAD"
        digest = RunKey.for_spec(spec_from_dict(payload)).digest
        outcome = _execute_one(digest, {"spec": payload})
        assert "error" in outcome and "result" not in outcome


# ----------------------------------------------------------------------
def remote_service(tmp_path, **kwargs):
    kwargs.setdefault("store_path", tmp_path / "store")
    kwargs.setdefault("store_backend", "sharded")
    kwargs.setdefault("workers", 1)
    return BackgroundService(remote=True, **kwargs)


def submit_proc(url: str) -> subprocess.Popen:
    return subprocess.Popen(
        [sys.executable, "-m", "repro", "submit", "--url", url,
         "--configs", SWEEP["configs"], "--workloads", SWEEP["workloads"],
         "--scale", "smoke", "--sms", "2", "--json", "--quiet"],
        env=subprocess_env(REPRO_STORE="", REPRO_SPANS=""),
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
    )


class TestFleet:
    def test_cold_warm_exactly_once_and_bit_identical(self, tmp_path):
        """M submitter processes x K worker processes: every key runs
        exactly once fleet-wide, warm repeats are pure store hits, and
        the stored payloads match a serial execute_spec pass bit for
        bit."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            workers = [
                spawn_worker(svc.url, f"w{index}", max_runs=2)
                for index in range(2)
            ]
            submitters = [submit_proc(svc.url) for _ in range(2)]
            try:
                snapshots = []
                for proc in submitters:
                    out, err = proc.communicate(timeout=120)
                    assert proc.returncode == 0, err
                    snapshots.append(json.loads(out))
            finally:
                stop_workers(*workers)

            # both submissions coalesced onto one content-addressed job
            assert snapshots[0]["job"] == snapshots[1]["job"]
            for snap in snapshots:
                assert snap["state"] == "done"
                assert snap["errors"] == 0
                assert snap["total"] == SWEEP_TOTAL
                # exactly-once ledger: every run accounted for, none twice
                assert (snap["fresh"] + snap["store_hits"]
                        + snap["coalesced"]) == SWEEP_TOTAL
            assert snapshots[0]["fresh"] == SWEEP_TOTAL  # cold: all executed

            # fleet-wide single-flight, straight from the lease ledger
            exposition = client.metrics()
            assert metric_value(
                exposition, "repro_lease_settled", '{outcome="fresh"}'
            ) == SWEEP_TOTAL
            assert metric_value(exposition, "repro_lease_runs_leased") \
                == SWEEP_TOTAL

            # warm resubmit: zero fresh simulations anywhere
            warm = client.run_to_completion(timeout=60, **SWEEP)
            assert warm["state"] == "done"
            assert warm["fresh"] == 0
            assert warm["store_hits"] == SWEEP_TOTAL

            # bit-identity against a serial in-process pass
            for run in warm["runs"]:
                record = client.result(run["key"])
                spec = spec_from_dict(record["spec"])
                assert record["result"] == result_to_dict(execute_spec(spec))

        # the sharded store holds every record (readable after drain)
        store = ResultStore(tmp_path / "store")
        assert store.backend_name == "sharded"
        assert len(store) == SWEEP_TOTAL

    def test_expired_lease_requeues_to_live_worker(self, tmp_path):
        """A worker that leases work and goes silent forfeits it: the
        reaper requeues the runs and a live worker finishes the job."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**SWEEP)
            # a zombie grabs every pending run... and never settles
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            grant = client.lease(worker="zombie", max_runs=64, ttl=1)
            assert len(grant["runs"]) == SWEEP_TOTAL
            assert client.leases()["active"][0]["worker"] == "zombie"

            worker = spawn_worker(svc.url, "live")
            try:
                snap = client.wait(accepted["job"], timeout=60)
            finally:
                stop_workers(worker)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            assert snap["fresh"] == SWEEP_TOTAL

            exposition = client.metrics()
            assert metric_value(exposition, "repro_lease_expired") >= 1
            assert metric_value(exposition, "repro_lease_requeued_runs") \
                == SWEEP_TOTAL

    def test_worker_sigkilled_mid_lease_work_reissued(self, tmp_path):
        """SIGKILL a worker between lease and execute: its lease
        expires and another worker completes the job, exactly once."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            doomed = spawn_worker(
                svc.url, "doomed", ttl=2, max_runs=64, hold_s=30,
            )
            try:
                accepted = client.submit(**SWEEP)
                wait_until(
                    lambda: any(
                        row["worker"] == "doomed"
                        for row in client.leases()["active"]
                    ),
                    what="the doomed worker to lease the batch",
                )
            finally:
                stop_workers(doomed)  # SIGKILL mid-hold: never settles

            healthy = spawn_worker(svc.url, "healthy")
            try:
                snap = client.wait(accepted["job"], timeout=60)
            finally:
                stop_workers(healthy)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            assert snap["fresh"] == SWEEP_TOTAL  # each key ran exactly once
            assert metric_value(client.metrics(), "repro_lease_expired") >= 1

    def test_settle_races_and_410_semantics(self, tmp_path):
        """Late settles from a reaped lease are accepted while the key
        is still unclaimed; once it is gone the settle is 410."""
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            grant = client.lease(worker="slow", max_runs=64, ttl=1)
            lease_id = grant["lease"]
            wait_until(
                lambda: not client.leases()["active"],
                what="the lease to expire",
            )
            assert client.leases()["pending_runs"] == SWEEP_TOTAL

            # the reaped worker settles anyway: results are real, taken
            outcomes = []
            for run in grant["runs"]:
                spec = spec_from_dict(run["spec"])
                outcomes.append({
                    "key": run["key"],
                    "result": result_to_dict(execute_spec(spec)),
                })
            response = client.settle(lease_id, outcomes[:1])
            assert response["settled"] == 1

            # same key again: nothing claimable on a dead lease -> 410
            with pytest.raises(ServiceError) as gone:
                client.settle(lease_id, outcomes[:1])
            assert gone.value.status == 410
            assert "re-leased" in str(gone.value)

            # remaining keys settle the same way; the job closes clean
            assert client.settle(lease_id, outcomes[1:])["settled"] == 3
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "done"
            assert snap["errors"] == 0
            assert snap["fresh"] == SWEEP_TOTAL

    def test_malformed_settle_payloads_rejected(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**SWEEP)
            wait_until(
                lambda: client.leases()["pending_runs"] == SWEEP_TOTAL,
                what="runs to queue",
            )
            grant = client.lease(worker="w", max_runs=1, ttl=30)
            lease_id = grant["lease"]
            key = grant["runs"][0]["key"]
            for bad in (
                {"key": key},  # neither result nor error
                {"key": key, "result": {"nope": 1}, "error": "boom"},
                {"key": key, "result": {"nope": 1}},  # not a result payload
            ):
                with pytest.raises(ServiceError) as refused:
                    client.settle(lease_id, [bad])
                assert refused.value.status == 400
            # the lease survived the rejections; an error settle lands
            assert client.settle(
                lease_id, [{"key": key, "error": "injected failure"}]
            )["settled"] == 1

            # close out the rest so the job (and the drain) can settle
            rest = client.lease(worker="w2", max_runs=64, ttl=30)
            client.settle(rest["lease"], [
                {"key": run["key"], "error": "injected failure"}
                for run in rest["runs"]
            ])
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "failed"  # every run errored
            assert snap["errors"] == SWEEP_TOTAL

    def test_lease_endpoints_require_remote_mode(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            for call in (
                client.leases,
                lambda: client.lease(worker="w"),
                lambda: client.settle("abc", []),
            ):
                with pytest.raises(ServiceError) as refused:
                    call()
                assert refused.value.status == 400
                assert "--remote" in str(refused.value)

    def test_worker_once_on_idle_queue_exits_clean(self, tmp_path):
        with remote_service(tmp_path) as svc:
            lines = []
            assert run_worker(
                svc.url, name="oneshot", once=True, log=lines.append
            ) == 0
            assert any("exiting" in line for line in lines)

    def test_worker_sigterm_exits_zero(self, tmp_path):
        import signal

        with remote_service(tmp_path) as svc:
            worker = spawn_worker(svc.url, "stoppable")
            wait_until(
                lambda: worker.poll() is None, what="worker to start"
            )
            time.sleep(1.0)  # let it reach the idle poll loop
            worker.send_signal(signal.SIGTERM)
            assert worker.wait(15) == 0


# ----------------------------------------------------------------------
ONE_RUN = dict(configs="L1-SRAM", workloads="2DCONV", scale="smoke",
               num_sms=2)


def lease_one(client: ServiceClient) -> dict:
    """Wait for the submitted run to queue, then lease it."""
    wait_until(lambda: client.leases()["pending_runs"] == 1,
               what="the run to queue")
    return client.lease(worker="w", max_runs=1, ttl=30)


class TestSettleFailures:
    """A settle that fails after its claim must still settle every
    claimed key, or the owning job waits forever."""

    def test_store_write_failure_settles_claimed_keys_as_errors(
        self, tmp_path, monkeypatch
    ):
        with remote_service(tmp_path) as svc:
            def disk_full(*_args, **_kwargs):
                raise OSError(28, "No space left on device")

            monkeypatch.setattr(
                svc.service.scheduler.store, "put_record", disk_full
            )
            client = ServiceClient(svc.url)
            accepted = client.submit(**ONE_RUN)
            grant = lease_one(client)
            (run,) = grant["runs"]
            response = client.settle(
                grant["lease"], [_execute_one(run["key"], run)]
            )
            assert response["settled"] == 1
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "failed"
            (entry,) = snap["runs"]
            assert "No space left on device" in entry["error"]
            assert client.leases() == {"pending_runs": 0, "active": []}

    def test_overflowing_settle_timing_is_ignored(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**ONE_RUN)
            grant = lease_one(client)
            (run,) = grant["runs"]
            entry = _execute_one(run["key"], run)
            entry["timing"]["cycles"] = 1e400  # JSON Infinity on the wire
            assert client.settle(grant["lease"], [entry])["settled"] == 1
            snap = client.wait(accepted["job"], timeout=30)
            assert snap["state"] == "done"
            (settled,) = snap["runs"]
            assert settled["source"] == "fresh"
            assert settled["worker"] == "w"
            assert "timing" not in settled  # unparseable == missing
            assert metric_value(
                client.metrics(), "repro_fleet_sim_cycles"
            ) == 0

    @pytest.mark.parametrize("bad", [
        {"max_runs": "many"},
        {"ttl": [30]},
        {"max_runs": 1e400},  # int(inf) overflows
    ])
    def test_malformed_lease_requests_rejected(self, tmp_path, bad):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            with pytest.raises(ServiceError) as refused:
                client._request(
                    "POST", "/v1/leases", {"worker": "w", **bad},
                    idempotent=False,
                )
            assert refused.value.status == 400
            assert "max_runs/ttl must be numbers" in str(refused.value)

    def test_remote_mode_starts_no_local_consumers(self, tmp_path):
        with remote_service(tmp_path) as svc:
            client = ServiceClient(svc.url)
            accepted = client.submit(**ONE_RUN)
            grant = lease_one(client)
            (run,) = grant["runs"]
            client.settle(grant["lease"], [_execute_one(run["key"], run)])
            assert client.wait(accepted["job"], timeout=30)["state"] == "done"
            scheduler = svc.service.scheduler
            assert scheduler.local_workers == 0
            assert scheduler._consumers == []
            assert scheduler._pool is None
