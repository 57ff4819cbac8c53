"""Tests for the live telemetry plane: snapshots, SLO windows, flight
recorder, Prometheus exposition, the HTTP server and the dashboard.

The load-bearing guarantees:

* snapshot/delta reads are consistent under concurrent registry writes
  and counters/histograms difference correctly between snapshots;
* histogram quantiles are exact when a window's mass sits in one bin
  and Prometheus-style interpolated otherwise;
* SLO breach counters fire exactly for configured targets and trigger
  flight-recorder dumps through the plane;
* the exposition server serves well-formed payloads from a *live*
  MicroBatcher session end to end.
"""

import json
import threading
import time
import urllib.request

import numpy as np
import pytest

from repro import obs
from repro.obs import (
    FlightRecorder,
    MetricsRegistry,
    SloConfig,
    SloTracker,
    TelemetryPlane,
    delta_metrics,
    quantile_from_counts,
    render_dashboard,
    render_prometheus,
)
from repro.obs.metrics import MetricsSnapshot
from repro.serve import BatcherConfig, MicroBatcher


@pytest.fixture(autouse=True)
def _no_leaked_recorder():
    assert obs.active() is None
    yield
    obs.disable()


def _snapshot_pair(fill):
    """Two snapshots of one registry, ``fill(registry)`` run in between."""
    registry = MetricsRegistry()
    registry.inc("serve/requests", 0)
    before = registry.snapshot()
    fill(registry)
    return before, registry.snapshot()


class TestSnapshots:
    def test_seq_bumps_on_every_write(self):
        registry = MetricsRegistry()
        start = registry.seq
        registry.inc("a")
        registry.set_gauge("b", 1.0)
        registry.observe("c", 0.5, edges=[0.0, 1.0])
        # Three writes + instrument creations, all sequence-numbered.
        assert registry.seq >= start + 3

    def test_snapshot_is_a_copy(self):
        registry = MetricsRegistry()
        registry.inc("serve/requests", 3)
        snapshot = registry.snapshot()
        registry.inc("serve/requests", 7)
        assert snapshot.metrics["counters"]["serve/requests"] == 3
        assert registry.snapshot().metrics["counters"]["serve/requests"] == 10
        assert registry.snapshot().seq > snapshot.seq

    def test_snapshot_json_round_trip(self):
        registry = MetricsRegistry()
        registry.observe("h", np.array([1.0, 2.0]), edges=[0.0, 1.5, 3.0])
        payload = registry.snapshot().as_dict()
        assert json.loads(json.dumps(payload)) == payload

    def test_delta_counters_subtract(self):
        before, after = _snapshot_pair(
            lambda r: (r.inc("serve/requests", 5), r.inc("fresh", 2))
        )
        delta = delta_metrics(before.metrics, after.metrics)
        assert delta["counters"]["serve/requests"] == 5
        # A counter born inside the window deltas from zero.
        assert delta["counters"]["fresh"] == 2

    def test_delta_histogram_counts_subtract(self):
        edges = [0.0, 1.0, 10.0]

        def fill(registry):
            registry.observe("lat", np.array([0.5, 0.7, 5.0]), edges=edges)

        registry = MetricsRegistry()
        registry.observe("lat", np.array([0.5]), edges=edges)
        before = registry.snapshot()
        fill(registry)
        delta = delta_metrics(before.metrics, registry.snapshot().metrics)
        hist = delta["histograms"]["lat"]
        assert hist["counts"] == [2, 1]
        assert hist["count"] == 3

    def test_concurrent_writes_never_tear_a_snapshot(self):
        registry = MetricsRegistry()
        stop = threading.Event()

        def writer():
            while not stop.is_set():
                registry.inc("pair/a")
                registry.inc("pair/b")

        thread = threading.Thread(target=writer, daemon=True)
        thread.start()
        try:
            for _ in range(200):
                counters = registry.snapshot().metrics["counters"]
                a = counters.get("pair/a", 0)
                b = counters.get("pair/b", 0)
                # a is always incremented first; a consistent view can
                # differ by at most the one in-flight pair.
                assert 0 <= a - b <= 1
        finally:
            stop.set()
            thread.join()


class TestQuantiles:
    def test_single_bin_mass_is_exact(self):
        # All observations equal: every quantile is that value, exactly.
        registry = MetricsRegistry()
        registry.observe(
            "lat", np.full(100, 7.5), edges=[0.0, 5.0, 10.0, 20.0]
        )
        hist = registry.histogram("lat")
        for q in (0.0, 0.5, 0.99, 1.0):
            assert hist.quantile(q) == pytest.approx(7.5)

    def test_interpolates_within_bins(self):
        counts = np.array([2, 2], dtype=float)
        edges = np.array([1.0, 10.0, 100.0])
        q25 = quantile_from_counts(edges, counts, 0.25)
        q75 = quantile_from_counts(edges, counts, 0.75)
        assert 1.0 < q25 < 10.0 < q75 < 100.0
        # Log-spaced edges -> log-linear interpolation: the halfway
        # rank of a bin lands at its geometric midpoint.
        assert quantile_from_counts(edges, counts, 0.25) == pytest.approx(
            np.sqrt(10.0)
        )

    def test_empty_returns_none(self):
        assert quantile_from_counts(
            np.array([0.0, 1.0]), np.array([0.0]), 0.5
        ) is None
        registry = MetricsRegistry()
        registry.histogram("lat", edges=[0.0, 1.0])
        assert registry.histogram("lat").quantile(0.5) is None

    def test_rejects_out_of_range_q(self):
        with pytest.raises(ValueError):
            quantile_from_counts(np.array([0.0, 1.0]), np.array([1.0]), 1.5)

    def test_monotone_in_q(self):
        rng = np.random.default_rng(0)
        registry = MetricsRegistry()
        registry.observe(
            "lat",
            rng.lognormal(1.0, 0.8, size=500),
            edges=[0.1, 0.5, 1.0, 2.0, 5.0, 10.0, 50.0],
        )
        hist = registry.histogram("lat")
        values = [hist.quantile(q) for q in (0.1, 0.5, 0.9, 0.99, 1.0)]
        assert values == sorted(values)
        assert values[-1] <= hist.max


def _snap(monotonic_s, metrics, seq=0):
    return MetricsSnapshot(
        seq=seq, wall_time_s=0.0, monotonic_s=monotonic_s, metrics=metrics
    )


def _serve_metrics(requests=0, failed=0, rejected=0, latencies=()):
    registry = MetricsRegistry()
    registry.inc("serve/requests", requests)
    registry.inc("serve/failed_requests", failed)
    registry.inc("serve/rejected", rejected)
    registry.inc("serve/batches", max(1, requests // 4) if requests else 0)
    if latencies:
        registry.observe(
            "serve/latency_ms",
            np.asarray(latencies, dtype=float),
            edges=[0.1, 1.0, 10.0, 100.0, 1000.0],
        )
    return registry.as_dict()


class TestSloTracker:
    def test_windowed_rates_and_quantiles(self):
        tracker = SloTracker(SloConfig(window_s=60.0))
        tracker.observe(_snap(0.0, _serve_metrics()))
        stats = tracker.observe(
            _snap(
                10.0,
                _serve_metrics(
                    requests=80, failed=20, rejected=25, latencies=[5.0] * 50
                ),
                seq=1,
            )
        )
        assert stats["requests"] == 80
        assert stats["requests_per_second"] == pytest.approx(8.0)
        assert stats["error_rate"] == pytest.approx(0.2)
        assert stats["rejection_rate"] == pytest.approx(0.2)
        assert 1.0 < stats["p99_ms"] < 10.0

    def test_window_evicts_old_snapshots(self):
        tracker = SloTracker(SloConfig(window_s=10.0))
        tracker.observe(_snap(0.0, _serve_metrics(requests=0)))
        tracker.observe(_snap(5.0, _serve_metrics(requests=100), seq=1))
        stats = tracker.observe(
            _snap(20.0, _serve_metrics(requests=130), seq=2)
        )
        # The t=0 snapshot fell out; the window base is t=5 (100 reqs).
        assert stats["requests"] == 30
        assert stats["window_s"] == pytest.approx(15.0)

    def test_breach_counts_and_callback(self):
        seen = []
        tracker = SloTracker(
            SloConfig(window_s=60.0, p99_ms=1.0, max_error_rate=0.5),
            on_breach=lambda name, observed, limit, stats: seen.append(name),
        )
        tracker.observe(_snap(0.0, _serve_metrics()))
        stats = tracker.observe(
            _snap(
                5.0,
                _serve_metrics(requests=40, latencies=[50.0] * 40),
                seq=1,
            )
        )
        assert [b["target"] for b in stats["breaches"]] == ["p99_ms"]
        assert tracker.breach_counts == {"p99_ms": 1, "error_rate": 0}
        assert tracker.total_breaches == 1
        assert seen == ["p99_ms"]

    def test_breach_callback_errors_swallowed(self):
        def boom(*args):
            raise RuntimeError("dump failed")

        tracker = SloTracker(
            SloConfig(window_s=60.0, p99_ms=0.01), on_breach=boom
        )
        tracker.observe(_snap(0.0, _serve_metrics()))
        stats = tracker.observe(
            _snap(1.0, _serve_metrics(requests=4, latencies=[5.0] * 4), seq=1)
        )
        assert stats["breaches"], "breach still recorded despite hook error"

    def test_degenerate_window_is_empty(self):
        tracker = SloTracker(SloConfig(window_s=60.0, p99_ms=1.0))
        stats = tracker.observe(_snap(0.0, _serve_metrics(requests=10)))
        assert stats["requests"] == 0
        assert stats["p99_ms"] is None
        assert stats["breaches"] == []


class TestFlightRecorder:
    def test_ring_wraps_and_counts_drops(self):
        flight = FlightRecorder(capacity=4)
        for i in range(10):
            flight.record("enqueue", rid=i)
        assert len(flight) == 4
        assert flight.seq == 10
        assert flight.dropped == 6
        assert [e["rid"] for e in flight.events()] == [6, 7, 8, 9]
        # seq survives the wrap: gaps are detectable.
        assert [e["seq"] for e in flight.events()] == [7, 8, 9, 10]

    def test_dump_payload_schema(self):
        flight = FlightRecorder(capacity=8)
        flight.record("batch", rids=[1, 2], size=2)
        dump = flight.dump(reason="test")
        assert dump["reason"] == "test"
        assert dump["capacity"] == 8
        assert dump["recorded"] == 1
        assert dump["dropped"] == 0
        assert dump["events"][0]["kind"] == "batch"
        assert json.loads(json.dumps(dump)) == dump
        assert flight.dumps == 1

    def test_auto_dump_fires_and_errors_swallowed(self):
        fired = []
        flight = FlightRecorder(
            capacity=8,
            auto_dump_kinds={"batch_failed"},
            on_auto_dump=lambda kind, event: fired.append(kind),
        )
        flight.record("batch")
        assert fired == []
        flight.record("batch_failed", error="boom")
        assert fired == ["batch_failed"]

        broken = FlightRecorder(
            capacity=8,
            auto_dump_kinds={"x"},
            on_auto_dump=lambda *a: (_ for _ in ()).throw(RuntimeError()),
        )
        event = broken.record("x")  # must not raise
        assert event["kind"] == "x"

    def test_events_filter_by_kind(self):
        flight = FlightRecorder(capacity=8)
        flight.record("enqueue", rid=1)
        flight.record("batch", rids=[1])
        assert [e["kind"] for e in flight.events("batch")] == ["batch"]


class TestRenderPrometheus:
    def test_counter_gauge_histogram_grammar(self):
        registry = MetricsRegistry()
        registry.inc("serve/requests", 12)
        registry.set_gauge("serve/queue_depth", 3)
        registry.observe(
            "serve/latency_ms", np.array([0.5, 2.0, 2.5]), edges=[0.0, 1.0, 5.0]
        )
        text = render_prometheus(registry.as_dict())
        assert "# TYPE repro_serve_requests_total counter" in text
        assert "repro_serve_requests_total 12" in text
        assert "# TYPE repro_serve_queue_depth gauge" in text
        assert "# TYPE repro_serve_latency_ms histogram" in text
        assert 'repro_serve_latency_ms_bucket{le="1.0"} 1' in text
        # Buckets are cumulative; +Inf equals the total count.
        assert 'repro_serve_latency_ms_bucket{le="5.0"} 3' in text
        assert 'repro_serve_latency_ms_bucket{le="+Inf"} 3' in text
        assert "repro_serve_latency_ms_count 3" in text
        assert text.endswith("\n")

    def test_extra_series_and_none_values(self):
        text = render_prometheus(
            {"counters": {}, "gauges": {}, "histograms": {}},
            extra_gauges={"slo/latency_p99_ms": None},
            extra_counters={"slo/breaches/p99_ms": 2},
        )
        assert "repro_slo_latency_p99_ms NaN" in text
        assert "repro_slo_breaches_p99_ms_total 2" in text


def _failing_then_ok_target():
    calls = {"n": 0}

    def infer(batch):
        calls["n"] += 1
        if calls["n"] == 1:
            raise RuntimeError("injected")
        return np.zeros((len(batch), 4))

    return infer


class TestTelemetryPlane:
    def test_sample_over_live_batcher(self):
        plane = TelemetryPlane().install()
        batcher = plane.attach(
            MicroBatcher(
                lambda batch: np.zeros((len(batch), 4)),
                BatcherConfig(max_batch_size=4, workers=1),
            ).start()
        )
        try:
            for future in batcher.submit_many([np.zeros(3)] * 8):
                future.result(timeout=10)
            sample = plane.sample()
        finally:
            batcher.stop()
        assert sample["seq"] > 0
        assert sample["flight"]["recorded"] >= 8  # enqueues + batches
        kinds = {e["kind"] for e in plane.flight.events()}
        assert {"enqueue", "batch"} <= kinds
        assert json.loads(json.dumps(sample)) == sample

    def test_batch_failure_auto_dumps(self):
        plane = TelemetryPlane().install()
        batcher = plane.attach(
            MicroBatcher(
                _failing_then_ok_target(),
                BatcherConfig(max_batch_size=2, workers=1),
            ).start()
        )
        try:
            with pytest.raises(RuntimeError):
                batcher.submit(np.zeros(3)).result(timeout=10)
            batcher.submit(np.zeros(3)).result(timeout=10)
        finally:
            batcher.stop()
        assert plane.dumps, "batch_failed should have auto-dumped the ring"
        assert plane.dumps[0]["reason"] == "event:batch_failed"
        failed = plane.flight.events("batch_failed")
        assert failed and "injected" in failed[0]["error"]
        counters = plane.recorder.metrics.as_dict()["counters"]
        assert counters["serve/failed_requests"] == 1

    def test_windowed_power_per_request(self):
        from repro.obs.power import record_mvm_batch

        plane = TelemetryPlane().install()
        registry = plane.recorder.metrics

        def infer(batch):
            bits = np.zeros((len(batch), 8))
            bits[:, :2] = 1.0  # 25% active rows
            record_mvm_batch(registry, 0, bits, 4, cells_per_weight=2)
            return np.zeros((len(batch), 4))

        batcher = plane.attach(
            MicroBatcher(
                infer, BatcherConfig(max_batch_size=4)
            ).start()
        )
        try:
            plane.sample()  # window base
            for future in batcher.submit_many([np.zeros(3)] * 8):
                future.result(timeout=10)
            time.sleep(0.01)
            sample = plane.sample()
        finally:
            batcher.stop()
        window = sample["window"]
        assert window["requests"] == 8
        assert window["joules_per_request"] > 0
        assert 0 < window["power_saving_vs_static"] < 1

    def test_prometheus_text_includes_slo_series(self):
        plane = TelemetryPlane(slo=SloConfig(window_s=30.0, p99_ms=50.0))
        plane.install()
        plane.recorder.metrics.inc("serve/requests", 4)
        text = plane.prometheus_text()
        assert "repro_slo_latency_p99_ms" in text
        assert "repro_slo_joules_per_request" in text
        assert "repro_slo_window_seconds 30.0" in text
        assert "repro_slo_breaches_p99_ms_total 0" in text
        assert "repro_obs_uptime_seconds" in text

    def test_install_adopts_existing_recorder(self):
        with obs.recording() as rec:
            plane = TelemetryPlane().install()
            assert plane.recorder is rec
        assert obs.active() is None

    def test_uninstall_disables_only_what_install_enabled(self):
        # Plane enabled the global recorder -> uninstall disables it.
        plane = TelemetryPlane().install()
        assert obs.active() is plane.recorder
        plane.uninstall()
        assert obs.active() is None
        # Plane adopted an existing recorder -> uninstall leaves it.
        with obs.recording() as rec:
            adopted = TelemetryPlane().install()
            adopted.uninstall()
            assert obs.active() is rec

    def test_render_dashboard_smoke(self):
        plane = TelemetryPlane().install()
        frame = render_dashboard(plane.sample())
        assert "repro-top" in frame
        assert "latency" in frame
        assert "flight" in frame
        # Dashboard renders a /metrics.json "status" payload unchanged.
        frame2 = render_dashboard(
            json.loads(json.dumps(plane.metrics_json()))["status"]
        )
        assert "repro-top" in frame2


class TestExpositionServer:
    def test_endpoints_over_live_session(self):
        plane = TelemetryPlane(
            slo=SloConfig(window_s=30.0, p99_ms=10_000.0)
        ).install()
        batcher = plane.attach(
            MicroBatcher(
                lambda batch: np.zeros((len(batch), 4)),
                BatcherConfig(max_batch_size=4),
            ).start()
        )
        with plane.serve() as server:
            for future in batcher.submit_many([np.zeros(3)] * 8):
                future.result(timeout=10)

            health = json.loads(
                urllib.request.urlopen(
                    server.url + "/healthz", timeout=10
                ).read()
            )
            assert health["ok"] is True

            response = urllib.request.urlopen(
                server.url + "/metrics", timeout=10
            )
            assert response.headers["Content-Type"].startswith("text/plain")
            text = response.read().decode()
            assert "repro_serve_requests_total 8" in text
            assert "repro_slo_latency_p99_ms" in text

            payload = json.loads(
                urllib.request.urlopen(
                    server.url + "/metrics.json", timeout=10
                ).read()
            )
            assert payload["status"]["flight"]["recorded"] >= 8
            assert (
                payload["metrics"]["counters"]["serve/requests"] == 8
            )

            flight = json.loads(
                urllib.request.urlopen(
                    server.url + "/flight", timeout=10
                ).read()
            )
            assert flight["events"], "flight dump is empty"

            with pytest.raises(urllib.error.HTTPError) as err:
                urllib.request.urlopen(server.url + "/nope", timeout=10)
            assert err.value.code == 404
        batcher.stop()
        assert not server.running

    def test_scrapes_counted(self):
        plane = TelemetryPlane().install()
        with plane.serve() as server:
            for _ in range(3):
                urllib.request.urlopen(
                    server.url + "/healthz", timeout=10
                ).read()
        counters = plane.recorder.metrics.as_dict()["counters"]
        assert counters["obs/scrapes"] == 3
