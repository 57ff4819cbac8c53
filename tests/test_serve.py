"""Tests for repro.serve (sessions + micro-batcher) and the repro.api facade.

The load-bearing property is *batch invariance*: whatever way the
micro-batcher coalesces concurrent requests, every request must receive
bit-identical logits to a one-at-a-time run.  The session's fixed-tile
executor provides that; these tests assert it end to end.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.core.engines import (
    EngineSpec,
    available_engines,
    compile_network,
    resolve_engine,
)
from repro.core.hardware_network import HardwareConfig, assemble_sei_network
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ServeError,
    ShapeError,
)
from repro.serve import (
    BatcherConfig,
    BatcherStats,
    InferenceSession,
    MicroBatcher,
    SessionConfig,
)


@pytest.fixture(scope="module")
def tiny_session(tiny_quantized):
    """A compiled fused-engine session over the tiny test network."""
    return InferenceSession.from_artifacts(
        tiny_quantized.network,
        tiny_quantized.thresholds,
        SessionConfig(network="tiny", tile=4),
    )


@pytest.fixture(scope="module")
def request_images(tiny_dataset):
    return tiny_dataset["test_x"][:24]


class TestSessionExecution:
    def test_single_sample_transparent(self, tiny_session, request_images):
        one = tiny_session.infer(request_images[0])
        assert one.shape == (10,)
        batch = tiny_session.infer(request_images[:3])
        assert batch.shape == (3, 10)

    def test_batch_composition_invariance(self, tiny_session, request_images):
        """Tiled execution: output rows do not depend on batch grouping."""
        whole = tiny_session.infer_batch(request_images)
        one_at_a_time = np.stack(
            [tiny_session.infer(x) for x in request_images]
        )
        odd_chunks = np.concatenate(
            [
                tiny_session.infer_batch(request_images[:5]),
                tiny_session.infer_batch(request_images[5:18]),
                tiny_session.infer_batch(request_images[18:]),
            ]
        )
        assert np.array_equal(whole, one_at_a_time)
        assert np.array_equal(whole, odd_chunks)

    def test_non_numeric_batch_raises_shape_error(
        self, tiny_session, request_images
    ):
        for dtype in (object, complex, str):
            with pytest.raises(ShapeError, match="dtype"):
                tiny_session.infer_batch(request_images[:2].astype(dtype))
        # Bool, integer and float samples are all accepted.
        for dtype in (bool, np.uint8, np.float32):
            tiny_session.infer_batch(request_images[:2].astype(dtype))

    def test_classify_and_error_rate(self, tiny_session, tiny_dataset):
        images = tiny_dataset["test_x"][:16]
        labels = tiny_dataset["test_y"][:16]
        predictions = tiny_session.classify(images)
        assert predictions.shape == (16,)
        err = tiny_session.error_rate(images, labels)
        assert err == pytest.approx(float(np.mean(predictions != labels)))

    def test_deterministic_property(self):
        from repro.hw.device import RRAMDevice

        assert EngineSpec().deterministic
        assert EngineSpec(name="adc").deterministic
        noisy = EngineSpec(
            hardware=HardwareConfig(device=RRAMDevice(read_sigma=0.05))
        )
        assert not noisy.deterministic

    def test_tile_validation(self):
        with pytest.raises(ConfigurationError):
            SessionConfig(tile=0)


class TestMicroBatcher:
    def test_concurrent_equals_sequential(self, tiny_session, request_images):
        sequential = np.stack(
            [tiny_session.infer(x) for x in request_images]
        )
        config = BatcherConfig(max_batch_size=8, workers=2)
        with tiny_session.batcher(config) as mb:
            futures = [None] * len(request_images)

            def client(offset):
                for i in range(offset, len(request_images), 3):
                    futures[i] = mb.submit(request_images[i])

            threads = [
                threading.Thread(target=client, args=(c,)) for c in range(3)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            outputs = np.stack([f.result(timeout=30) for f in futures])
        assert np.array_equal(outputs, sequential)
        assert mb.stats.requests == len(request_images)
        assert mb.stats.batches >= 1

    def test_coalesces_into_batches(self, tiny_session, request_images):
        """Requests queued behind a busy worker share its next batch."""
        entered = threading.Event()
        release = threading.Event()

        class HeldSession:
            # The session's own compute, but the first batch waits until
            # every later request is queued.
            check_batch = tiny_session.check_batch

            def infer_batch(self, images):
                entered.set()
                release.wait(10)
                return tiny_session.infer_batch(images)

        config = BatcherConfig(max_batch_size=16, workers=1)
        with MicroBatcher(HeldSession(), config) as mb:
            futures = [mb.submit(request_images[0])]
            assert entered.wait(10)
            futures += mb.submit_many(request_images[1:12])
            release.set()
            outputs = np.stack([f.result(timeout=30) for f in futures])
        assert mb.stats.batch_sizes == [1, 11]
        sequential = [tiny_session.infer(x) for x in request_images[:12]]
        assert np.array_equal(outputs, np.stack(sequential))

    def test_backpressure_raises_on_timeout(self, request_images):
        release = threading.Event()

        def slow_infer(batch):
            release.wait(10)
            return np.zeros((len(batch), 10))

        config = BatcherConfig(
            max_batch_size=1, max_queue_depth=2, workers=1
        )
        with MicroBatcher(slow_infer, config) as mb:
            # Occupy the worker, then fill the queue.
            mb.submit(request_images[0])
            time.sleep(0.05)  # let the worker take the first request
            mb.submit(request_images[1])
            mb.submit(request_images[2])
            with pytest.raises(BackpressureError):
                mb.submit(request_images[3], timeout=0.05)
            assert mb.stats.rejected == 1
            release.set()

    def test_blocked_submit_completes_after_drain(self, request_images):
        """A submit blocked on a full queue succeeds once a slot frees."""
        gate = threading.Event()

        def gated_infer(batch):
            gate.wait(10)
            return np.arange(len(batch) * 10, dtype=float).reshape(-1, 10)

        config = BatcherConfig(
            max_batch_size=1, max_queue_depth=1, workers=1
        )
        with MicroBatcher(gated_infer, config) as mb:
            mb.submit(request_images[0])
            time.sleep(0.05)
            mb.submit(request_images[1])  # fills the queue
            result = {}

            def blocked_client():
                f = mb.submit(request_images[2])  # blocks: queue full
                result["logits"] = f.result(timeout=10)

            t = threading.Thread(target=blocked_client)
            t.start()
            time.sleep(0.05)
            assert t.is_alive()  # still blocked in submit
            gate.set()  # drain -> slot frees -> submit proceeds
            t.join(timeout=10)
            assert not t.is_alive()
        assert result["logits"].shape == (10,)

    def test_failed_batch_propagates_exception(self, request_images):
        def broken_infer(batch):
            raise RuntimeError("crossbar on fire")

        with MicroBatcher(broken_infer, BatcherConfig(workers=1)) as mb:
            future = mb.submit(request_images[0])
            with pytest.raises(RuntimeError, match="crossbar on fire"):
                future.result(timeout=10)
        assert mb.stats.failed_batches == 1

    def test_misshaped_request_rejected_before_queueing(
        self, tiny_session, request_images
    ):
        """A bad request raises at submit; its neighbours still answer."""
        with tiny_session.batcher(BatcherConfig(workers=1)) as mb:
            good = mb.submit(request_images[0])
            with pytest.raises(ShapeError):
                mb.submit(np.zeros(3))
            with pytest.raises(ShapeError):
                mb.submit(request_images[1].astype(object))
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ShapeError, match="finite"):
                    mb.submit(np.full_like(request_images[1], value))
            also_good = mb.submit(request_images[1])
            np.testing.assert_array_equal(
                good.result(timeout=30), tiny_session.infer(request_images[0])
            )
            np.testing.assert_array_equal(
                also_good.result(timeout=30),
                tiny_session.infer(request_images[1]),
            )
        assert mb.stats.requests == 2
        assert mb.stats.failed_batches == 0

    def test_mixed_shape_batch_fails_every_future(self):
        """A batch a bare callable cannot stack fails, and only it."""
        entered = threading.Event()
        release = threading.Event()

        def held_double(batch):
            entered.set()
            release.wait(10)
            return batch * 2

        config = BatcherConfig(max_batch_size=8, workers=1)
        with MicroBatcher(held_double, config) as mb:
            first = mb.submit(np.ones(2))
            assert entered.wait(10)
            # Queued behind the held batch, so they form the next one.
            mixed = [mb.submit(np.zeros(2)), mb.submit(np.zeros(3))]
            release.set()
            np.testing.assert_array_equal(first.result(timeout=10), [2, 2])
            for future in mixed:
                with pytest.raises(ValueError):
                    future.result(timeout=10)
            # The worker survived the failed assembly.
            after = mb.submit(np.ones(2))
            np.testing.assert_array_equal(after.result(timeout=10), [2, 2])
        assert mb.stats.failed_batches == 1
        assert mb.stats.batch_sizes == [1, 1]

    def test_submit_after_stop_raises(self, tiny_session, request_images):
        mb = tiny_session.batcher()
        mb.start()
        mb.stop()
        with pytest.raises(ServeError):
            mb.submit(request_images[0])

    def test_double_start_raises(self, tiny_session):
        mb = tiny_session.batcher()
        mb.start()
        try:
            with pytest.raises(ServeError):
                mb.start()
        finally:
            mb.stop()

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            BatcherConfig(max_batch_size=0)
        with pytest.raises(ConfigurationError):
            BatcherConfig(max_delay_ms=-1.0)
        with pytest.raises(ConfigurationError):
            BatcherConfig(max_queue_depth=0)
        with pytest.raises(ConfigurationError):
            BatcherConfig(workers=0)
        with pytest.raises(ConfigurationError):
            MicroBatcher(target=42)

    def test_stats_dict(self):
        stats = BatcherStats()
        assert stats.mean_batch_size is None
        assert stats.as_dict()["requests"] == 0


class TestSessionRegistry:
    def test_session_reuse_skips_recompilation(self, monkeypatch, tmp_path):
        """Equal configs return the same warm session; the pipeline runs once."""
        import repro.serve.session as session_mod
        import repro.zoo as zoo_mod

        calls = {"count": 0}
        real_warm = zoo_mod.warm_model

        def counting_warm(*args, **kwargs):
            calls["count"] += 1
            return real_warm(*args, **kwargs)

        monkeypatch.setattr(zoo_mod, "warm_model", counting_warm)
        session_mod.clear_sessions()
        try:
            config = SessionConfig(network="network2", tile=8)
            first = session_mod.compile_session(config)
            second = session_mod.compile_session(config)
            assert first is second
            assert calls["count"] == 1
            fresh = session_mod.compile_session(config, reuse=False)
            assert fresh is not first
        finally:
            session_mod.clear_sessions()

    def test_different_configs_different_sessions(self):
        a = SessionConfig(network="network2", tile=8)
        b = SessionConfig(network="network2", tile=16)
        assert a.digest() != b.digest()


class TestEngineSpec:
    def test_registry_lists_builtins(self):
        assert set(available_engines()) >= {"fused", "reference", "adc"}

    def test_string_engine_rejected(self, tiny_quantized):
        with pytest.raises(ConfigurationError, match="EngineSpec"):
            assemble_sei_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                engine="reference",
            )

    def test_spec_plus_config_rejected(self, tiny_quantized):
        with pytest.raises(ConfigurationError):
            assemble_sei_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                HardwareConfig(),
                engine=EngineSpec(),
            )

    def test_unknown_engine_rejected(self, tiny_quantized):
        with pytest.raises(ConfigurationError, match="supports engines"):
            assemble_sei_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                engine=EngineSpec(name="warp-drive"),
            )

    def test_compile_network_adc_engine(self, tiny_quantized, tiny_dataset):
        net = compile_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            EngineSpec(name="adc"),
            calibration_images=tiny_dataset["train_x"][:16],
        )
        logits = net.forward(tiny_dataset["test_x"][:2])
        assert logits.shape == (2, 10)

    def test_resolve_none_gives_default(self):
        spec = resolve_engine(None)
        assert spec == EngineSpec()


class TestApiFacade:
    def test_top_level_reexports(self):
        import repro

        assert repro.load is api.load
        assert repro.quantize is api.quantize
        assert repro.compile is api.compile
        assert repro.infer is api.infer
        # `repro.serve` stays the subpackage; the verb lives on the facade.
        import repro.serve as serve_pkg

        assert repro.serve is serve_pkg
        assert callable(api.serve)

    def test_compile_explicit_artifacts(self, tiny_quantized, request_images):
        session = api.compile(
            tiny_quantized.network, tiny_quantized.thresholds, tile=4
        )
        assert isinstance(session, InferenceSession)
        assert session.infer(request_images[0]).shape == (10,)

    def test_compile_argument_validation(self, tiny_quantized):
        with pytest.raises(ConfigurationError):
            api.compile("network2", tiny_quantized.thresholds)
        with pytest.raises(ConfigurationError):
            api.compile(tiny_quantized.network)

    def test_quantize_is_algorithm1(
        self, trained_tiny_network, tiny_dataset, tiny_quantized
    ):
        from repro.core import SearchConfig

        result = api.quantize(
            trained_tiny_network,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SearchConfig(thres_max=0.3, search_step=0.02),
        )
        assert result.thresholds == tiny_quantized.thresholds

    def test_serve_rejects_conflicting_batcher_args(self):
        with pytest.raises(ConfigurationError):
            api.serve(batcher=BatcherConfig(), workers=4)


class TestTelemetryWiring:
    """Queue-depth gauge/watermark and flight-recorder batcher hooks."""

    def test_queue_depth_and_watermark_gauges(self, request_images):
        from repro import obs

        release = threading.Event()

        def gated_infer(batch):
            release.wait(timeout=10)
            return np.zeros((len(batch), 4))

        config = BatcherConfig(
            max_batch_size=4, max_queue_depth=16, workers=1
        )
        with obs.recording() as rec:
            with MicroBatcher(gated_infer, config) as batcher:
                futures = [
                    batcher.submit(x) for x in request_images[:8]
                ]
                gauges = rec.metrics.as_dict()["gauges"]
                # Both gauges exist while requests are queued, and the
                # watermark tracks the stats-side maximum.
                assert gauges["serve/queue_depth"] >= 0
                assert (
                    gauges["serve/queue_depth_high_watermark"]
                    == batcher.stats.max_observed_queue_depth
                )
                assert gauges["serve/queue_depth_high_watermark"] >= 1
                release.set()
                for f in futures:
                    f.result(timeout=10)
            gauges = rec.metrics.as_dict()["gauges"]
            # After the drain, the last gauge write came from the drain
            # loop's fresh qsize() sample: the queue is empty.
            assert gauges["serve/queue_depth"] == 0
            assert (
                gauges["serve/queue_depth_high_watermark"]
                == batcher.stats.max_observed_queue_depth
            )

    def test_flight_events_cover_request_lifecycle(
        self, tiny_session, request_images
    ):
        from repro.obs import FlightRecorder

        flight = FlightRecorder(capacity=256)
        config = BatcherConfig(max_batch_size=4)
        with tiny_session.batcher(config) as batcher:
            batcher.flight = flight
            for f in batcher.submit_many(request_images[:6]):
                f.result(timeout=30)
        enqueues = flight.events("enqueue")
        batches = flight.events("batch")
        assert len(enqueues) == 6
        assert sorted(e["rid"] for e in enqueues) == [1, 2, 3, 4, 5, 6]
        assert sum(b["size"] for b in batches) == 6
        batched_rids = sorted(rid for b in batches for rid in b["rids"])
        assert batched_rids == [1, 2, 3, 4, 5, 6]
        # Batch events carry the session identity and stage timings.
        assert batches[0]["session"] == tiny_session.digest
        assert batches[0]["engine"] == "fused"
        assert batches[0]["infer_ms"] >= 0
        assert len(batches[0]["queue_ms"]) == batches[0]["size"]
        assert len(batches[0]["latency_ms"]) == batches[0]["size"]

    def test_flight_records_rejections_and_failures(self, request_images):
        from repro import obs
        from repro.obs import FlightRecorder

        flight = FlightRecorder(capacity=64)
        release = threading.Event()
        fail = {"on": True}

        def infer(batch):
            release.wait(timeout=10)
            if fail["on"]:
                fail["on"] = False
                raise RuntimeError("injected fault")
            return np.zeros((len(batch), 4))

        config = BatcherConfig(
            max_batch_size=1, max_queue_depth=1, workers=1
        )
        with obs.recording() as rec:
            with MicroBatcher(infer, config) as batcher:
                batcher.flight = flight
                doomed = batcher.submit(request_images[0])
                # Worker holds request 1; fill the queue, then overflow.
                batcher.submit(request_images[1])
                with pytest.raises(BackpressureError):
                    batcher.submit(request_images[2], timeout=0.05)
                release.set()
                with pytest.raises(RuntimeError):
                    doomed.result(timeout=10)
            counters = rec.metrics.as_dict()["counters"]
        rejected = flight.events("rejected")
        failed = flight.events("batch_failed")
        assert len(rejected) == 1
        assert len(failed) == 1
        assert "injected fault" in failed[0]["error"]
        assert failed[0]["rids"] == [1]
        assert counters["serve/failed_requests"] == 1
        assert counters["serve/failed_batches"] == 1

    def test_serve_live_wires_plane_and_server(self, tiny_session):
        import json
        import urllib.request

        from repro import obs
        from repro.obs import SloConfig

        batcher, plane, server = tiny_session.serve_live(
            BatcherConfig(max_batch_size=4),
            slo=SloConfig(window_s=30.0),
            listen="127.0.0.1:0",
        )
        try:
            assert batcher.flight is plane.flight
            assert obs.active() is plane.recorder
            images = np.zeros((4,) + tiny_session.hardware.network.input_shape)
            for f in batcher.submit_many(list(images)):
                f.result(timeout=30)
            payload = json.loads(
                urllib.request.urlopen(
                    server.url + "/metrics.json", timeout=10
                ).read()
            )
            assert payload["metrics"]["counters"]["serve/requests"] == 4
        finally:
            server.stop()
            batcher.stop()
            obs.disable()

    def test_no_flight_no_overhead_path(self, tiny_session, request_images):
        """flight=None (the default) keeps the batcher flight-free."""
        with tiny_session.batcher() as batcher:
            assert batcher.flight is None
            for f in batcher.submit_many(request_images[:4]):
                f.result(timeout=30)


class TestTemporalSession:
    """The aging → detection → re-tune closed loop (ISSUE acceptance)."""

    @staticmethod
    def _temporal_config(**kwargs):
        from repro.hw.array import TemporalConfig

        spec = EngineSpec(
            hardware=HardwareConfig(
                temporal=TemporalConfig(
                    drift_nu=0.3, drift_nu_sigma=0.5, seed=5
                )
            )
        )
        return SessionConfig(network="tiny", tile=8, engine=spec, **kwargs)

    def test_fresh_temporal_session_matches_static(
        self, tiny_quantized, tiny_session, request_images
    ):
        """age_per_batch=0 freezes the clock: a temporal session that
        never ages is bit-identical to the static seed behaviour."""
        frozen = InferenceSession.from_artifacts(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            self._temporal_config(age_per_batch=0.0),
        )
        assert frozen.temporal
        assert frozen.device_arrays
        np.testing.assert_array_equal(
            frozen.infer_batch(request_images),
            tiny_session.infer_batch(request_images),
        )

    def test_aging_degrades_then_retune_restores(
        self, tiny_quantized, tiny_dataset
    ):
        """Baseline self_check passes; drift accumulates until the check
        raises; a forced re-tune restores the programmed state and the
        check passes again."""
        from repro.errors import ConformanceError

        session = InferenceSession.from_artifacts(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            self._temporal_config(age_per_batch=200.0),
        )
        probe = tiny_dataset["test_x"][:16]
        session.self_check(probe)  # records the fresh-hardware baseline

        for _ in range(5):
            session.infer_batch(probe)
        drift = max(
            h.drift_level_steps for h in session.health().values()
        )
        assert drift > 0.0
        with pytest.raises(ConformanceError, match="degraded"):
            session.self_check(probe)

        report = session.retune(force=True)
        assert report.retuned
        assert all(e.drift_level_steps > 0 for e in report.events)
        session.self_check(probe)  # back to the baseline predictions
        assert all(
            h.drift_level_steps == 0.0
            for h in session.health().values()
        )

    def test_retune_policy_fires_automatically(
        self, tiny_quantized, tiny_dataset
    ):
        from repro import obs
        from repro.hw.retune import RetunePolicy

        session = InferenceSession.from_artifacts(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            self._temporal_config(
                age_per_batch=200.0,
                retune=RetunePolicy(check_every=2, drift_threshold=0.25),
            ),
        )
        probe = tiny_dataset["test_x"][:8]
        with obs.recording() as rec:
            for _ in range(4):
                session.infer_batch(probe)
        counters = rec.metrics.as_dict()["counters"]
        assert counters.get("hw/retune/events", 0) >= 1
        # The cadence-driven loop kept drift below the threshold.
        assert all(
            h.drift_level_steps < 0.25
            for h in session.health().values()
        )

    def test_empty_batch_rejected_before_any_state_moves(
        self, tiny_quantized
    ):
        from repro import obs

        session = InferenceSession.from_artifacts(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            self._temporal_config(age_per_batch=1.0),
        )
        shape = tiny_quantized.network.input_shape
        before = {
            name: (array.age, array.generation)
            for name, array in session.device_arrays.items()
        }
        with obs.recording() as rec:
            with pytest.raises(ShapeError, match=r"got \(0, "):
                session.infer_batch(np.zeros((0,) + shape))
        assert "serve/samples" not in rec.metrics.as_dict()["counters"]
        assert before == {
            name: (array.age, array.generation)
            for name, array in session.device_arrays.items()
        }

    @pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
    def test_non_finite_batch_rejected_before_any_state_moves(
        self, tiny_quantized, value
    ):
        from repro import obs

        session = InferenceSession.from_artifacts(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            self._temporal_config(age_per_batch=1.0),
        )
        batch = np.zeros((3,) + tiny_quantized.network.input_shape)
        batch[1, 0, 5, 7] = value
        before = {
            name: (array.age, array.generation)
            for name, array in session.device_arrays.items()
        }
        with obs.recording() as rec:
            with pytest.raises(ShapeError, match="finite"):
                session.infer_batch(batch)
        assert "serve/samples" not in rec.metrics.as_dict()["counters"]
        assert before == {
            name: (array.age, array.generation)
            for name, array in session.device_arrays.items()
        }

    def test_misshaped_batch_names_the_callers_shape(
        self, tiny_quantized
    ):
        session = InferenceSession.from_artifacts(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            self._temporal_config(age_per_batch=1.0),
        )
        shape = tiny_quantized.network.input_shape
        wrong = (2,) + shape[1:]
        with pytest.raises(ShapeError) as info:
            session.infer_batch(np.zeros(wrong))
        message = str(info.value)
        assert str(wrong) in message
        assert ", ".join(map(str, shape)) in message
        assert all(
            array.age == 0.0 for array in session.device_arrays.values()
        )

    def test_static_session_self_check_unchanged(
        self, tiny_session, request_images
    ):
        """Deterministic static sessions keep the batch-invariance
        self-check; nothing about the new path disturbs it."""
        tiny_session.self_check(request_images[:8])
