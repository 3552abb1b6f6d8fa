"""Tests for the telemetry layer: metrics registry semantics, phase-span
logging/export, the in-simulation timeline sampler (on/off parity and
exact end-of-run reconciliation) and the service-level observability
surfaces (``GET /metrics``, ``/v1/jobs/{id}/timeline``, access log)."""

from __future__ import annotations

import json
import math
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.engine.serialize import result_from_dict, result_to_dict
from repro.engine.spec import RunSpec, execute_spec, spec_to_dict, trace_key
from repro.service.client import ServiceClient, ServiceError
from repro.service.server import BackgroundService
from repro.telemetry.metrics import (
    MAX_LABEL_SETS,
    MetricsRegistry,
    render_exposition,
)
from repro.telemetry.spans import (
    disable_spans,
    enable_spans,
    export_chrome_trace,
    read_spans,
    record_span,
    span,
    spans_enabled,
)
from repro.telemetry.timeline import (
    COLUMNS,
    SAMPLER_STOP,
    Timeline,
    TimelineSampler,
    timeline_from_payload,
    timeline_to_payload,
)


# ----------------------------------------------------------------------
# metrics registry
# ----------------------------------------------------------------------
class TestRegistry:
    def test_counter_gauge_histogram_basics(self):
        reg = MetricsRegistry()
        jobs = reg.counter("jobs_total", "Jobs")
        jobs.inc()
        jobs.inc(2)
        assert jobs.value == 3.0

        depth = reg.gauge("queue_depth", "Depth")
        depth.set(4)
        depth.dec()
        assert depth.value == 3.0

        lat = reg.histogram("latency_seconds", "Latency", buckets=(0.1, 1.0))
        for v in (0.05, 0.5, 5.0):
            lat.observe(v)
        assert lat.count == 3
        assert lat.sum == pytest.approx(5.55)
        # cumulative: le=0.1 -> 1, le=1.0 -> 2, +Inf -> 3
        assert lat.cumulative_counts() == [
            (0.1, 1), (1.0, 2), (math.inf, 3),
        ]

    def test_counter_rejects_negative_and_conflicting_shape(self):
        reg = MetricsRegistry()
        c = reg.counter("c_total", "C")
        with pytest.raises(ValueError):
            c.inc(-1)
        # same name, different kind or labels -> hard error, never silent
        with pytest.raises(ValueError):
            reg.gauge("c_total", "C")
        with pytest.raises(ValueError):
            reg.counter("c_total", "C", labelnames=("x",))
        # re-asking with the same shape returns the same family
        assert reg.counter("c_total", "C") is c

    def test_labels_and_cardinality_cap(self):
        reg = MetricsRegistry()
        fam = reg.counter("req_total", "Requests", labelnames=("route",))
        for i in range(MAX_LABEL_SETS + 50):
            fam.labels(f"route-{i}").inc()
        text = render_exposition(reg)
        # past the cap, new label sets collapse into the overflow child
        # instead of growing the exposition without bound
        assert 'route="overflow"' in text
        assert text.count("req_total{") <= MAX_LABEL_SETS + 1
        # existing children keep counting
        fam.labels("route-0").inc()
        assert fam.labels("route-0").value == 2.0

    def test_histogram_bucket_edges_are_inclusive(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", "H", buckets=(1.0, 2.0))
        h.observe(1.0)  # le="1.0" is inclusive, Prometheus semantics
        h.observe(2.0)
        assert h.cumulative_counts() == [
            (1.0, 1), (2.0, 2), (math.inf, 2),
        ]

    def test_thread_safety_under_contention(self):
        reg = MetricsRegistry()
        c = reg.counter("n_total", "N")
        g = reg.gauge("g", "G")
        h = reg.histogram("h_seconds", "H")
        fam = reg.counter("l_total", "L", labelnames=("worker",))

        def hammer(worker: int) -> None:
            for _ in range(1000):
                c.inc()
                g.inc()
                h.observe(0.01)
                fam.labels(str(worker)).inc()

        with ThreadPoolExecutor(max_workers=8) as pool:
            list(pool.map(hammer, range(8)))
        assert c.value == 8000.0
        assert g.value == 8000.0
        assert h.count == 8000
        assert sum(
            fam.labels(str(w)).value for w in range(8)
        ) == 8000.0

    def test_exposition_format(self):
        reg = MetricsRegistry()
        reg.counter("a_total", "Letter a").inc()
        reg.gauge("b", "Letter b").set(2.5)
        fam = reg.counter(
            "c_total", 'Quoted "help" with \\ and newline\n',
            labelnames=("k",),
        )
        fam.labels('va"l\\ue\n').inc()
        text = render_exposition(reg)
        lines = text.splitlines()
        assert "# HELP a_total Letter a" in lines
        assert "# TYPE a_total counter" in lines
        assert "a_total 1" in lines
        assert "b 2.5" in lines
        # label values escape backslash, quote and newline
        assert 'c_total{k="va\\"l\\\\ue\\n"} 1' in text
        # HELP text escapes backslash and newline
        assert '# HELP c_total Quoted "help" with \\\\ and newline\\n' in text
        # families render sorted by name
        assert text.index("a_total") < text.index("b ") < text.index("c_total")

    def test_render_merges_registries(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("x_total", "X").inc()
        b.counter("y_total", "Y").inc(2)
        text = render_exposition(a, b)
        assert "x_total 1" in text and "y_total 2" in text


# ----------------------------------------------------------------------
# phase spans
# ----------------------------------------------------------------------
class TestSpans:
    def test_disabled_is_default_and_free(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        assert not spans_enabled()
        with span("quiet") as attrs:
            attrs["x"] = 1  # must not raise even when disabled
        record_span("quiet", 0, 10)  # no-op, no file created
        assert list(tmp_path.iterdir()) == []

    def test_round_trip_and_chrome_export(self, tmp_path, monkeypatch):
        log = tmp_path / "spans.jsonl"
        monkeypatch.setenv("REPRO_SPANS", str(log))
        with span("phase-a", cat="run", workload="ATAX") as attrs:
            attrs["cycles"] = 123
        record_span("phase-b", 1_000_000, 3_000_000, cat="job")

        spans = read_spans(log)
        assert [s["name"] for s in spans] == ["phase-a", "phase-b"]
        a, b = spans
        assert a["args"] == {"workload": "ATAX", "cycles": 123}
        assert a["dur_us"] >= 0
        assert b["dur_us"] == 2000  # (3e6 - 1e6) ns -> us

        trace = export_chrome_trace(spans)
        events = trace["traceEvents"]
        assert len(events) == 2
        assert all(e["ph"] == "X" for e in events)
        # timestamps normalised to the earliest span
        assert min(e["ts"] for e in events) == 0
        by_name = {e["name"]: e for e in events}
        assert by_name["phase-b"]["dur"] == 2000
        assert by_name["phase-a"]["args"]["cycles"] == 123

    def test_corrupt_lines_are_skipped(self, tmp_path, monkeypatch):
        log = tmp_path / "spans.jsonl"
        monkeypatch.setenv("REPRO_SPANS", str(log))
        record_span("ok", 0, 1000)
        with log.open("a", encoding="utf-8") as fh:
            fh.write("{truncated\n")
        record_span("ok2", 0, 1000)
        assert [s["name"] for s in read_spans(log)] == ["ok", "ok2"]

    def test_enable_disable_helpers(self, tmp_path, monkeypatch):
        monkeypatch.delenv("REPRO_SPANS", raising=False)
        log = tmp_path / "s.jsonl"
        enable_spans(log)
        try:
            assert spans_enabled()
            record_span("x", 0, 500)
        finally:
            disable_spans()
        assert not spans_enabled()
        assert [s["name"] for s in read_spans(log)] == ["x"]


# ----------------------------------------------------------------------
# timeline sampler
# ----------------------------------------------------------------------
SPEC_KW = dict(gpu_profile="fermi", scale="smoke", num_sms=2)


class TestTimelineSampler:
    def test_interval_validation(self):
        with pytest.raises(ValueError):
            TimelineSampler(0)
        with pytest.raises(ValueError):
            RunSpec.build("L1-SRAM", "ATAX", timeline_interval=-1, **SPEC_KW)

    def test_sampler_off_is_bit_identical(self):
        base = execute_spec(RunSpec.build("L1-SRAM", "ATAX", **SPEC_KW))
        again = execute_spec(RunSpec.build("L1-SRAM", "ATAX", **SPEC_KW))
        assert base.timeline is None
        assert result_to_dict(base) == result_to_dict(again)
        # and the payload has no "timeline" key at all, so pre-telemetry
        # golden payloads stay byte-comparable
        assert "timeline" not in result_to_dict(base)

    def test_sampler_on_changes_nothing_but_adds_the_series(self):
        base = execute_spec(RunSpec.build("L1-SRAM", "ATAX", **SPEC_KW))
        sampled = execute_spec(RunSpec.build(
            "L1-SRAM", "ATAX", timeline_interval=200, **SPEC_KW
        ))
        d_base, d_sampled = result_to_dict(base), result_to_dict(sampled)
        timeline = d_sampled.pop("timeline")
        assert d_base == d_sampled  # zero behavioural impact
        assert timeline is not None
        assert len(timeline["columns"]["cycle"]) > 1

    def test_final_row_reconciles_exactly(self):
        result = execute_spec(RunSpec.build(
            "Dy-FUSE", "ATAX", timeline_interval=128, **SPEC_KW
        ))
        tl = result.timeline
        last = tl.row(len(tl) - 1)
        assert last["cycle"] == result.cycles
        assert last["instructions"] == result.instructions
        assert last["l1d_accesses"] == result.l1d.accesses
        assert last["l1d_hits"] == result.l1d.hits
        assert last["l1d_misses"] == result.l1d.misses
        assert last["l1d_bypasses"] == result.l1d.bypasses
        assert last["offchip_reads"] == result.memory.reads
        assert last["writeback_flits"] == result.memory.writeback_flits
        # cumulative columns never decrease
        for name in COLUMNS:
            if name == "mshr_occupancy":
                continue
            col = tl.columns[name]
            assert all(a <= b for a, b in zip(col, col[1:])), name

    def test_deltas_derive_rates(self):
        result = execute_spec(RunSpec.build(
            "L1-SRAM", "ATAX", timeline_interval=256, **SPEC_KW
        ))
        deltas = result.timeline.deltas()
        # one delta per sample: the first covers from cycle 0
        assert len(deltas) == len(result.timeline)
        for row in deltas:
            assert row["l1d_miss_rate"] >= 0.0
            assert row["ipc"] >= 0.0
            assert row["instructions"] >= 0
        total_instr = sum(row["instructions"] for row in deltas)
        assert total_instr == result.instructions

    def test_spec_key_and_payload_stability(self):
        plain = RunSpec.build("L1-SRAM", "ATAX", **SPEC_KW)
        sampled = RunSpec.build(
            "L1-SRAM", "ATAX", timeline_interval=100, **SPEC_KW
        )
        # unsampled specs serialise exactly as before the telemetry PR
        assert "timeline_interval" not in spec_to_dict(plain)
        assert spec_to_dict(sampled)["timeline_interval"] == 100
        # sampling is part of run identity, but not of trace identity
        assert plain.key().digest != sampled.key().digest
        assert trace_key(plain) == trace_key(sampled)

    def test_serialize_round_trip(self):
        result = execute_spec(RunSpec.build(
            "L1-SRAM", "ATAX", timeline_interval=300, **SPEC_KW
        ))
        payload = result_to_dict(result)
        back = result_from_dict(payload)
        assert back.timeline is not None
        assert back.timeline.rows() == result.timeline.rows()
        assert result_to_dict(back) == payload

    def test_truncation_keeps_reconciliation(self):
        sampler = TimelineSampler(1, max_samples=4)

        class _Stats:
            accesses = hits = misses = merged_misses = 0
            bypasses = bank_wait_cycles = 0

        class _L1D:
            stats = _Stats()

            def mshr_occupancy(self):
                return 0

        class _SM:
            instructions = 0
            l1d = _L1D()

        class _MemStats:
            reads = writeback_flits = 0

        class _Memory:
            stats = _MemStats()

        sms, memory = [_SM()], _Memory()
        nxt = 1
        for cycle in range(1, 10):
            _SM.instructions = cycle * 3
            if cycle >= nxt:
                nxt = sampler.sample(cycle, sms, memory)
        assert nxt == SAMPLER_STOP  # sampling stopped at the cap
        _SM.instructions = 42
        tl = sampler.finalize(9, sms, memory)
        assert tl.truncated
        # the cap stops periodic sampling, but finalize still appends
        # the end-of-run row so reconciliation survives truncation
        assert len(tl) == 5
        assert tl.row(len(tl) - 1) == {
            "cycle": 9, "instructions": 42, "l1d_accesses": 0,
            "l1d_hits": 0, "l1d_misses": 0, "l1d_merged_misses": 0,
            "l1d_bypasses": 0, "bank_wait_cycles": 0, "mshr_occupancy": 0,
            "offchip_reads": 0, "writeback_flits": 0,
        }

    def test_payload_helpers_propagate_none(self):
        assert timeline_to_payload(None) is None
        assert timeline_from_payload(None) is None
        tl = Timeline(interval=10, columns={c: [0] for c in COLUMNS})
        assert timeline_from_payload(
            timeline_to_payload(tl)
        ).rows() == tl.rows()


# ----------------------------------------------------------------------
# service surfaces: /metrics, timeline endpoint, access log
# ----------------------------------------------------------------------
class TestServiceObservability:
    def test_metrics_exposition_and_timeline_endpoint(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            snap = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
                timeline=500,
            )
            assert snap["state"] == "done"

            series = client.timeline(snap["job"])
            assert series["interval"] == 500
            (run,) = series["runs"]
            assert run["state"] == "done"
            cols = run["timeline"]["columns"]
            assert set(cols) == set(COLUMNS)
            assert len(cols["cycle"]) >= 2

            text = client.metrics()
            assert "# HELP repro_service_requests " in text
            assert "# TYPE repro_service_requests counter" in text
            assert "# TYPE repro_service_request_seconds histogram" in text
            # local runs go through the lease fabric's one settle path
            assert "repro_service_runs_fresh 1" in text
            assert 'repro_lease_settled{outcome="fresh"} 1' in text
            assert "repro_service_jobs_submitted 1" in text
            assert "repro_store_puts" in text
            assert "repro_service_store_hit_rate" in text
            # every family renders a HELP and TYPE preamble
            for line in text.splitlines():
                if line.startswith("# HELP "):
                    name = line.split()[2]
                    assert f"# TYPE {name} " in text

    def test_unsampled_job_serves_null_timeline(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            snap = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            series = client.timeline(snap["job"])
            assert series["interval"] == 0
            assert series["runs"][0]["timeline"] is None
            with pytest.raises(ServiceError) as excinfo:
                client.timeline("no-such-job")
            assert excinfo.value.status == 404

    def test_sampled_and_unsampled_runs_key_separately(self, tmp_path):
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            plain = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            sampled = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
                timeline=400,
            )
            assert plain["job"] != sampled["job"]
            assert sampled["fresh"] == 1  # not served from the plain run

    def test_access_log_records_requests(self, tmp_path):
        log = tmp_path / "access.jsonl"
        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1,
            access_log=str(log),
        ) as svc:
            client = ServiceClient(svc.url)
            client.healthz()
            snap = client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            with pytest.raises(ServiceError):
                client.result("missing-key")
        entries = [
            json.loads(line) for line in log.read_text().splitlines()
        ]
        assert entries, "access log is empty"
        by_path = {entry["path"]: entry for entry in entries}
        assert by_path["/healthz"]["status"] == 200
        submit = by_path["/v1/sweeps"]
        assert submit["method"] == "POST"
        assert submit["status"] == 202
        assert submit["job"] == snap["job"]
        assert any(entry["status"] == 404 for entry in entries)
        for entry in entries:
            assert entry["duration_ms"] >= 0
            assert entry["bytes_out"] > 0

    def test_metrics_counters_monotone_cold_to_warm(self, tmp_path):
        def scrape(text: str, name: str) -> float:
            for line in text.splitlines():
                if line.startswith(name + " "):
                    return float(line.split()[1])
            raise AssertionError(f"{name} not in exposition")

        with BackgroundService(
            store_path=tmp_path / "s.jsonl", workers=1
        ) as svc:
            client = ServiceClient(svc.url)
            client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            cold = client.metrics()
            client.run_to_completion(
                ["L1-SRAM"], ["ATAX"], scale="smoke", num_sms=2,
            )
            warm = client.metrics()
        assert scrape(warm, "repro_service_jobs_submitted") == 2.0
        assert scrape(cold, "repro_service_jobs_submitted") == 1.0
        for name in (
            "repro_service_jobs_executed", "repro_service_runs_store",
            "repro_service_runs_fresh",
        ):
            assert scrape(warm, name) >= scrape(cold, name), name
        # the repeat is served from the store: store-hit counter moved
        assert scrape(warm, "repro_service_runs_store") == 1.0
