"""Tests for the sharded serving plane: registry, shards, gateway, chaos.

Covers the serving-at-scale guarantees:

* the warm-model registry's LRU/cold-start/prewarm behaviour and
  single-flight concurrent loading;
* shard lifecycle — abrupt ``kill`` fails queued *and* in-flight
  requests promptly with :class:`ShardDeadError` (no hangs, no silent
  drops) and ``rejoin`` is health-gated behind ``self_check``;
* gateway admission control (token bucket + bounded in-flight window
  -> :class:`BackpressureError`), consistent re-routing around dead
  shards, and the chaos scenario run many times back to back;
* **bit-identity**: gateway responses over any shard count equal a
  single inline :class:`InferenceSession` byte for byte, including
  interleaved concurrent tenants;
* the aggregated ``/metrics`` endpoint labelling every shard's series.
"""

from __future__ import annotations

import threading
import time

import numpy as np
import pytest

from repro import api
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ConformanceError,
    ServeError,
    ShapeError,
    ShardDeadError,
)
from repro.serve import (
    AsyncGateway,
    BatcherConfig,
    FakeClock,
    GatewayConfig,
    InferenceSession,
    MicroBatcher,
    SessionConfig,
    SessionShard,
    TokenBucket,
    WarmRegistry,
)


def _echo_tenant():
    """A deterministic tenant: row i of the output encodes input row i."""

    def infer_batch(images: np.ndarray) -> np.ndarray:
        flat = images.reshape(len(images), -1)
        return np.concatenate([flat * 2.0 + 1.0, -flat], axis=1)

    return infer_batch


def _slow_tenant(delay_s: float = 0.002):
    """Like ``_echo_tenant`` but each batch takes a while (chaos food)."""
    echo = _echo_tenant()

    def infer_batch(images: np.ndarray) -> np.ndarray:
        time.sleep(delay_s)
        return echo(images)

    return infer_batch


SMALL_BATCHER = BatcherConfig(
    max_batch_size=8, workers=2, max_queue_depth=64
)


class TestWarmRegistry:
    def test_cold_start_then_hit(self):
        loads = []
        registry = WarmRegistry(lambda key: loads.append(key) or f"<{key}>")
        assert registry.get("a") == "<a>"
        assert registry.get("a") == "<a>"
        assert loads == ["a"]
        assert registry.stats()["hits"] == 1
        assert registry.stats()["misses"] == 1

    def test_lru_eviction_order(self):
        registry = WarmRegistry(lambda key: key.upper(), capacity=2)
        registry.get("a")
        registry.get("b")
        registry.get("a")  # refresh a: b is now coldest
        registry.get("c")  # evicts b
        assert registry.resident == ["a", "c"]
        assert "b" not in registry
        assert registry.stats()["evictions"] == 1

    def test_prewarm_pays_cold_starts_up_front(self):
        loads = []
        registry = WarmRegistry(
            lambda key: loads.append(key) or key, capacity=4
        )
        registry.prewarm(["x", "y"])
        assert loads == ["x", "y"]
        registry.get("x")
        registry.get("y")
        assert loads == ["x", "y"]  # all hits now

    def test_prewarm_beyond_capacity_refuses_to_thrash(self):
        registry = WarmRegistry(lambda key: key, capacity=2)
        with pytest.raises(ServeError):
            registry.prewarm(["a", "b", "c"])

    def test_concurrent_cold_gets_share_one_load(self):
        loads = []
        gate = threading.Event()

        def slow_loader(key):
            gate.wait(timeout=5.0)
            loads.append(key)
            return key

        registry = WarmRegistry(slow_loader)
        results = []
        threads = [
            threading.Thread(
                target=lambda: results.append(registry.get("model"))
            )
            for _ in range(6)
        ]
        for t in threads:
            t.start()
        gate.set()
        for t in threads:
            t.join()
        assert results == ["model"] * 6
        assert loads == ["model"]  # single flight

    def test_loader_failure_is_not_cached(self):
        attempts = []

        def flaky(key):
            attempts.append(key)
            if len(attempts) == 1:
                raise RuntimeError("cold start exploded")
            return key

        registry = WarmRegistry(flaky)
        with pytest.raises(RuntimeError):
            registry.get("m")
        assert registry.get("m") == "m"  # retried, then cached
        assert len(attempts) == 2

    def test_capacity_validation(self):
        with pytest.raises(ConfigurationError):
            WarmRegistry(lambda key: key, capacity=0)
        with pytest.raises(ConfigurationError):
            WarmRegistry("not-callable")  # type: ignore[arg-type]


class TestSessionShard:
    def test_lifecycle_and_submit(self):
        shard = SessionShard(
            "s0", {"default": _echo_tenant}, batcher=SMALL_BATCHER
        )
        with pytest.raises(ShardDeadError):
            shard.submit(np.zeros(3))  # not started yet
        shard.start(prewarm=["default"])
        assert shard.serving
        x = np.array([1.0, 2.0, 3.0])
        out = shard.submit(x).result(timeout=10)
        np.testing.assert_array_equal(out, _echo_tenant()(x[None])[0])
        shard.stop()
        assert not shard.serving

    def test_unknown_tenant_rejected(self):
        shard = SessionShard(
            "s0", {"default": _echo_tenant}, batcher=SMALL_BATCHER
        ).start()
        with pytest.raises(ConfigurationError):
            shard.submit(np.zeros(3), tenant="nope")
        shard.stop()

    def test_kill_fails_in_flight_promptly(self):
        """Queued AND executing requests resolve with ShardDeadError
        fast, even though the worker is wedged."""
        wedge = threading.Event()

        def wedged_tenant():
            def infer_batch(images):
                wedge.wait(timeout=30.0)
                return images

            return infer_batch

        shard = SessionShard(
            "s0",
            {"default": wedged_tenant},
            batcher=BatcherConfig(
                max_batch_size=1, workers=1, max_queue_depth=8,
            ),
        ).start()
        futures = [shard.submit(np.zeros(2)) for _ in range(4)]
        started = time.monotonic()
        shard.kill()
        for future in futures:
            with pytest.raises(ShardDeadError):
                future.result(timeout=5)
        assert time.monotonic() - started < 5.0, "kill was not prompt"
        with pytest.raises(ShardDeadError):
            shard.submit(np.zeros(2))
        wedge.set()

    def test_rejoin_is_health_gated(self):
        class FlakySession:
            def __init__(self):
                self.healthy = True
                self.checks = 0

            def infer_batch(self, images):
                return images * 1.0

            def self_check(self, probes):
                self.checks += 1
                if not self.healthy:
                    raise ConformanceError("probe disagreement")

        session = FlakySession()
        shard = SessionShard(
            "s0", {"default": lambda: session}, batcher=SMALL_BATCHER
        ).start(prewarm=["default"])
        shard.kill()
        session.healthy = False
        with pytest.raises(ConformanceError):
            shard.rejoin(probes=np.zeros((2, 3)))
        assert not shard.serving  # gate failure leaves it dead
        session.healthy = True
        shard.rejoin(probes=np.zeros((2, 3)))
        assert shard.serving
        assert session.checks == 2
        out = shard.submit(np.ones(3)).result(timeout=10)
        np.testing.assert_array_equal(out, np.ones(3))
        shard.stop()

    def test_rejoin_runs_retune_hook(self):
        calls = []

        class RetunableSession:
            def infer_batch(self, images):
                return images

            def retune(self, force=False):
                calls.append(force)

        shard = SessionShard(
            "s0",
            {"default": RetunableSession},
            batcher=SMALL_BATCHER,
        ).start(prewarm=["default"])
        shard.kill()
        shard.rejoin()
        assert calls == [True]
        shard.stop()


class TestGatewayBasics:
    def test_request_response_over_shards(self):
        config = GatewayConfig(shards=3, batcher=SMALL_BATCHER)
        with AsyncGateway({"default": _echo_tenant}, config=config) as gw:
            xs = [np.full(4, float(i)) for i in range(40)]
            outs = [f.result(timeout=10) for f in gw.submit_many(xs)]
            expected = _echo_tenant()(np.stack(xs))
            for i, out in enumerate(outs):
                np.testing.assert_array_equal(out, expected[i])
            assert gw.health()["ok"]
            assert len(gw.live_shards) == 3

    def test_submit_before_start_raises(self):
        gw = AsyncGateway({"default": _echo_tenant})
        with pytest.raises(ServeError):
            gw.submit(np.zeros(2))

    def test_unknown_tenant_raises(self):
        with AsyncGateway(
            {"default": _echo_tenant},
            config=GatewayConfig(shards=1, batcher=SMALL_BATCHER),
        ) as gw:
            with pytest.raises(ConfigurationError):
                gw.submit(np.zeros(2), tenant="ghost")

    def test_bare_callable_shorthand(self):
        with AsyncGateway(
            _echo_tenant,
            config=GatewayConfig(shards=1, batcher=SMALL_BATCHER),
        ) as gw:
            out = gw.infer(np.array([2.0]))
            np.testing.assert_array_equal(out, np.array([5.0, -2.0]))

    def test_sole_tenant_needs_no_tenant_kwarg(self):
        """api.gateway("network2") names its one tenant "network2";
        an unspecified tenant must still route there."""
        with AsyncGateway(
            {"network2": _echo_tenant},
            config=GatewayConfig(shards=1, batcher=SMALL_BATCHER),
        ) as gw:
            out = gw.infer(np.array([2.0]))
            np.testing.assert_array_equal(out, np.array([5.0, -2.0]))

    def test_multi_tenant_default_is_ambiguous(self):
        tenants = {"a": _echo_tenant, "b": _echo_tenant}
        with AsyncGateway(
            tenants, config=GatewayConfig(shards=1, batcher=SMALL_BATCHER)
        ) as gw:
            with pytest.raises(ConfigurationError):
                gw.submit(np.zeros(2))
            out = gw.infer(np.array([2.0]), tenant="a")
            np.testing.assert_array_equal(out, np.array([5.0, -2.0]))

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            GatewayConfig(shards=0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(rate=-1.0)
        with pytest.raises(ConfigurationError):
            GatewayConfig(affinity="sticky")

    def test_tenant_affinity_pins_one_shard(self):
        config = GatewayConfig(
            shards=4, affinity="tenant", batcher=SMALL_BATCHER
        )
        with AsyncGateway({"default": _echo_tenant}, config=config) as gw:
            for _ in range(20):
                gw.infer(np.zeros(3))
            # All requests landed on exactly one shard.
            busy = [
                sid
                for sid in gw.shard_ids
                if gw.shard(sid).recorder.metrics.as_dict()["counters"].get(
                    "serve/requests", 0
                )
                > 0
            ]
            assert len(busy) == 1


class TestFacadeShardIsolation:
    """``api.gateway`` compiles one session per shard when it is stateful,
    however the aging cells are specified."""

    @staticmethod
    def _factory_compiles(monkeypatch, **gateway_kwargs):
        calls = []

        def fake_compile(network, **kwargs):
            calls.append(kwargs)
            return object()

        monkeypatch.setattr(api, "compile", fake_compile)
        gw = api.gateway("network2", shards=2, start=False, **gateway_kwargs)
        build = gw.tenants["network2"]
        build()
        build()
        return calls

    @staticmethod
    def _engine(temporal):
        return api.EngineSpec(hardware=api.HardwareConfig(temporal=temporal))

    def test_aging_engine_spec_compiles_per_shard(self, monkeypatch):
        engine = self._engine(api.TemporalConfig(drift_nu=0.05))
        calls = self._factory_compiles(monkeypatch, engine=engine)
        assert [kw["reuse"] for kw in calls] == [False, False]
        assert all(kw["engine"] is engine for kw in calls)

    def test_retune_policy_compiles_per_shard(self, monkeypatch):
        retune = api.RetunePolicy(check_every=8)
        calls = self._factory_compiles(monkeypatch, retune=retune)
        assert [kw["reuse"] for kw in calls] == [False, False]
        assert all(kw["retune"] is retune for kw in calls)

    @pytest.mark.parametrize(
        "temporal",
        [None, api.TemporalConfig()],
        ids=["no-temporal", "temporal-all-off"],
    )
    def test_static_cells_share_one_session(self, monkeypatch, temporal):
        calls = self._factory_compiles(
            monkeypatch, engine=self._engine(temporal)
        )
        assert [kw["reuse"] for kw in calls] == [True, True]

    def test_no_verb_takes_a_device_keyword(self):
        import inspect

        for verb in (api.compile, api.infer, api.serve, api.gateway):
            assert "device" not in inspect.signature(verb).parameters


class TestAdmissionControl:
    def test_in_flight_window_sheds_load(self):
        wedge = threading.Event()

        def wedged_tenant():
            def infer_batch(images):
                wedge.wait(timeout=30.0)
                return images

            return infer_batch

        config = GatewayConfig(
            shards=1,
            max_in_flight=4,
            submit_timeout_s=5.0,
            batcher=BatcherConfig(
                max_batch_size=1, workers=1, max_queue_depth=64,
            ),
        )
        with AsyncGateway({"default": wedged_tenant}, config=config) as gw:
            held = [gw.submit(np.zeros(2)) for _ in range(4)]
            # Window is full: the next submits must shed, promptly.
            shed = 0
            for _ in range(6):
                try:
                    gw.submit(np.zeros(2)).result(timeout=5)
                except BackpressureError:
                    shed += 1
            assert shed >= 1
            counters = gw.recorder.metrics.as_dict()["counters"]
            assert counters.get("serve/gateway/rejected_inflight", 0) >= 1
            wedge.set()
            for future in held:
                future.result(timeout=10)

    def test_token_bucket_exact_refill_on_fake_clock(self):
        clock = FakeClock()
        bucket = TokenBucket(rate=10.0, burst=5, clock=clock)
        assert [bucket.try_acquire() for _ in range(5)] == [True] * 5
        assert bucket.try_acquire() is False  # drained
        clock.advance(0.1)  # exactly one token at 10/s
        assert bucket.try_acquire() is True
        assert bucket.try_acquire() is False
        clock.advance(10.0)  # way past burst: capped at burst
        assert bucket.tokens == pytest.approx(5.0)

    def test_rate_limited_gateway_rejects_with_backpressure(self):
        config = GatewayConfig(
            shards=1, rate=5.0, burst=3, batcher=SMALL_BATCHER
        )
        with AsyncGateway({"default": _echo_tenant}, config=config) as gw:
            results = []
            for _ in range(10):
                try:
                    gw.infer(np.zeros(2))
                    results.append("ok")
                except BackpressureError:
                    results.append("shed")
            assert "shed" in results  # burst of 3 cannot cover 10
            assert "ok" in results
            counters = gw.recorder.metrics.as_dict()["counters"]
            assert counters.get("serve/gateway/rejected_rate", 0) >= 1

    def test_misshaped_request_fails_and_frees_its_window_slot(
        self, tiny_session, tiny_dataset
    ):
        """A bad request never joins, or hangs, a batch of good ones."""
        entered = threading.Event()
        release = threading.Event()

        class HeldSession:
            # The session's compute; its first batch waits for release.
            check_batch = tiny_session.check_batch

            def infer_batch(self, images):
                entered.set()
                release.wait(timeout=10.0)
                return tiny_session.infer_batch(images)

        config = GatewayConfig(
            shards=1,
            max_in_flight=3,
            batcher=BatcherConfig(max_batch_size=8, workers=1),
        )
        images = tiny_dataset["test_x"]
        with AsyncGateway({"default": HeldSession}, config=config) as gw:
            held = gw.submit(images[0])
            assert entered.wait(timeout=10.0)
            # Queued behind the held batch: the bad request is refused
            # before it can share the good one's batch.
            good = gw.submit(images[1])
            with pytest.raises(ShapeError):
                gw.submit(np.zeros(3)).result(timeout=10)
            release.set()
            for future, x in ((held, images[0]), (good, images[1])):
                np.testing.assert_array_equal(
                    future.result(timeout=10), tiny_session.infer(x)
                )
            # Every window slot came back.
            futures = gw.submit_many(images[2:5])
            for future, x in zip(futures, images[2:5]):
                np.testing.assert_array_equal(
                    future.result(timeout=10), tiny_session.infer(x)
                )

    def test_non_finite_request_fails_and_frees_its_window_slot(
        self, tiny_session, tiny_dataset
    ):
        """With a one-request window, a refused NaN/Inf request must
        give its slot back or every later request would be shed."""
        config = GatewayConfig(
            shards=1, max_in_flight=1, batcher=BatcherConfig(workers=1)
        )
        images = tiny_dataset["test_x"]
        with AsyncGateway({"default": lambda: tiny_session}, config=config) as gw:
            for value in (np.nan, np.inf, -np.inf):
                with pytest.raises(ShapeError, match="finite"):
                    gw.submit(np.full_like(images[0], value)).result(
                        timeout=10
                    )
                np.testing.assert_array_equal(
                    gw.infer(images[0], timeout=10),
                    tiny_session.infer(images[0]),
                )
            assert gw.stats()["in_flight"] == 0


class TestZeroCopyHandoff:
    def test_submit_enqueues_the_callers_buffer(self):
        """The request carries the caller's ndarray by reference — no
        copy between the front-end and the shard worker."""
        wedge = threading.Event()

        def wedged(images):
            wedge.wait(timeout=10.0)
            return images

        batcher = MicroBatcher(
            wedged,
            BatcherConfig(
                max_batch_size=1, workers=1, max_queue_depth=8,
            ),
        ).start()
        try:
            first = np.zeros(2)
            batcher.submit(first)  # occupies the single wedged worker
            # The collector is now parked on the in-flight semaphore,
            # so this request stays observable in the admission queue.
            mine = np.arange(6.0)
            batcher.submit(mine)
            # Wait for the collector to take the wedged request, leaving
            # ours observable at the head of the admission queue.
            deadline = time.monotonic() + 5.0
            queued = None
            while time.monotonic() < deadline:
                items = [
                    req
                    for req in batcher._queue.queue
                    if req.x.shape == mine.shape
                ]
                if items:
                    queued = items[0]
                    break
                time.sleep(0.001)
            assert queued is not None, "request never seen in the queue"
            assert queued.x is mine  # same object: zero-copy handoff
            assert np.shares_memory(queued.x, mine)
        finally:
            wedge.set()
            batcher.stop()


class TestChaosKillAndRejoin:
    #: Consecutive chaos rounds (acceptance: 25 clean runs, no hang,
    #: no silent drop).
    ROUNDS = 25

    def test_kill_midload_no_hangs_no_silent_drops(self):
        config = GatewayConfig(
            shards=3,
            submit_timeout_s=5.0,
            batcher=BatcherConfig(
                max_batch_size=4, workers=1, max_queue_depth=256,
            ),
        )
        probes = np.zeros((2, 3))
        with AsyncGateway(
            {"default": lambda: _slow_tenant(0.002)}, config=config
        ) as gw:
            expected = _echo_tenant()(np.ones((1, 3)))[0]
            for round_no in range(self.ROUNDS):
                victim = f"shard-{round_no % 3}"
                futures = [
                    gw.submit(np.ones(3)) for _ in range(24)
                ]
                gw.kill_shard(victim)
                outcomes = {"ok": 0, "dead": 0}
                for future in futures:
                    # No hang: every future resolves within the bound.
                    try:
                        out = future.result(timeout=10)
                    except ShardDeadError:
                        outcomes["dead"] += 1
                    else:
                        outcomes["ok"] += 1
                        np.testing.assert_array_equal(out, expected)
                # No silent drops: every request is accounted for.
                assert outcomes["ok"] + outcomes["dead"] == len(futures)
                assert victim not in gw.live_shards
                # New traffic re-routes to the survivors.
                np.testing.assert_array_equal(
                    gw.infer(np.ones(3)), expected
                )
                # Health-gated rejoin: back on the ring for next round.
                gw.rejoin_shard(victim, probes=probes)
                assert victim in gw.live_shards
            assert gw.shard("shard-0").deaths >= 8

    def test_rejoin_refused_keeps_shard_off_ring(self):
        class Degraded:
            healthy = True

            def infer_batch(self, images):
                return images * 1.0

            def self_check(self, probes):
                if not Degraded.healthy:
                    raise ConformanceError("degraded beyond tolerance")

        config = GatewayConfig(shards=2, batcher=SMALL_BATCHER)
        with AsyncGateway({"default": Degraded}, config=config) as gw:
            Degraded.healthy = False
            gw.kill_shard("shard-0")
            with pytest.raises(ConformanceError):
                gw.rejoin_shard("shard-0", probes=np.zeros((1, 2)))
            assert gw.live_shards == ["shard-1"]
            # Still serving on the survivor the whole time.
            gw.infer(np.zeros(2))
            Degraded.healthy = True
            gw.rejoin_shard("shard-0", probes=np.zeros((1, 2)))
            assert gw.live_shards == ["shard-0", "shard-1"]

    def test_all_shards_dead_is_an_explicit_error(self):
        config = GatewayConfig(shards=2, batcher=SMALL_BATCHER)
        with AsyncGateway({"default": _echo_tenant}, config=config) as gw:
            gw.kill_shard("shard-0")
            gw.kill_shard("shard-1")
            with pytest.raises((ServeError, ShardDeadError)):
                gw.infer(np.zeros(2))


@pytest.fixture(scope="module")
def tiny_session(tiny_quantized):
    return InferenceSession.from_artifacts(
        tiny_quantized.network,
        tiny_quantized.thresholds,
        SessionConfig(network="tiny", tile=4),
    )


class TestGatewayBitIdentity:
    """Gateway responses == a single inline InferenceSession, byte for
    byte — any shard count, any coalescing, concurrent tenants."""

    @pytest.mark.parametrize(
        "shards, engine",
        [
            pytest.param(1, None, id="1"),
            pytest.param(2, None, id="2"),
            pytest.param(3, None, id="3"),
            # Shards share one stateless session, so every compiled
            # layer's scratch buffers must be per thread; 128-row
            # crossbars split layer 3 into four voting blocks.
            pytest.param(2, "fused", id="fused-split-2"),
            pytest.param(2, "packed", id="packed-split-2"),
        ],
    )
    def test_matches_inline_session(
        self, tiny_session, tiny_quantized, tiny_dataset, shards, engine
    ):
        session = tiny_session
        images = tiny_dataset["test_x"][:24]
        if engine is not None:
            from repro.core.engines import EngineSpec
            from repro.core.hardware_network import HardwareConfig

            session = InferenceSession.from_artifacts(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                SessionConfig(
                    network="tiny",
                    tile=4,
                    engine=EngineSpec(
                        name=engine,
                        hardware=HardwareConfig(max_crossbar_size=128),
                    ),
                ),
            )
            assert session.hardware.hardware_layers[3]["kind"] == "split"
            images = tiny_dataset["test_x"]
        inline = session.infer_batch(images)
        config = GatewayConfig(
            shards=shards,
            batcher=BatcherConfig(
                max_batch_size=5, workers=2, max_queue_depth=256,
            ),
        )
        with AsyncGateway({"default": lambda: session}, config=config) as gw:
            futures = [gw.submit(x) for x in images]
            outputs = np.stack([f.result(timeout=30) for f in futures])
        assert outputs.dtype == inline.dtype
        assert np.array_equal(outputs, inline)
        assert outputs.tobytes() == inline.tobytes()

    def test_concurrent_tenants_stay_bit_identical(
        self, tiny_session, tiny_dataset
    ):
        images = tiny_dataset["test_x"][:16]
        inline = tiny_session.infer_batch(images)
        echo_expected = _echo_tenant()(images)
        config = GatewayConfig(
            shards=2,
            batcher=BatcherConfig(
                max_batch_size=4, workers=2, max_queue_depth=64,
            ),
        )
        tenants = {
            "paper": lambda: tiny_session,
            "echo": _echo_tenant,
        }
        with AsyncGateway(tenants, config=config) as gw:
            paper_futures = [None] * len(images)
            echo_futures = [None] * len(images)

            def drive(kind, futures):
                for i, x in enumerate(images):
                    futures[i] = gw.submit(x, tenant=kind)

            threads = [
                threading.Thread(target=drive, args=("paper", paper_futures)),
                threading.Thread(target=drive, args=("echo", echo_futures)),
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            paper_out = np.stack(
                [f.result(timeout=30) for f in paper_futures]
            )
            echo_out = np.stack([f.result(timeout=30) for f in echo_futures])
        assert paper_out.tobytes() == inline.tobytes()
        assert np.array_equal(echo_out, echo_expected)


class TestAggregatedTelemetry:
    def test_prometheus_text_labels_every_shard(self):
        config = GatewayConfig(shards=2, batcher=SMALL_BATCHER)
        with AsyncGateway({"default": _echo_tenant}, config=config) as gw:
            for _ in range(8):
                gw.infer(np.zeros(2))
            text = gw.prometheus_text()
        assert 'shard="gateway"' in text
        assert 'shard="shard-0"' in text
        assert 'shard="shard-1"' in text
        # One TYPE header per metric, even though two shards publish
        # the same metric names.
        type_lines = [
            line for line in text.splitlines() if line.startswith("# TYPE ")
        ]
        assert len(type_lines) == len(set(type_lines))
        assert "repro_serve_requests_total" in text
        assert "repro_serve_gateway_completed_total" in text

    def test_http_endpoint_serves_aggregated_view(self):
        import json
        from urllib.request import urlopen

        config = GatewayConfig(shards=2, batcher=SMALL_BATCHER)
        with AsyncGateway({"default": _echo_tenant}, config=config) as gw:
            for _ in range(4):
                gw.infer(np.zeros(2))
            server = gw.serve_metrics()
            try:
                with urlopen(server.url + "/metrics", timeout=5) as response:
                    text = response.read().decode("utf-8")
                assert 'shard="shard-1"' in text
                with urlopen(server.url + "/healthz", timeout=5) as response:
                    health = json.loads(response.read())
                assert health["ok"] is True
                assert set(health["shards"]) == {"shard-0", "shard-1"}
                with urlopen(
                    server.url + "/metrics.json", timeout=5
                ) as response:
                    payload = json.loads(response.read())
                assert payload["gateway"]["live_shards"] == [
                    "shard-0",
                    "shard-1",
                ]
                assert "shard-0" in payload["shards"]
            finally:
                server.stop()

    def test_dead_shard_visible_in_health_and_metrics(self):
        config = GatewayConfig(shards=2, batcher=SMALL_BATCHER)
        with AsyncGateway({"default": _echo_tenant}, config=config) as gw:
            gw.infer(np.zeros(2))
            gw.kill_shard("shard-1")
            health = gw.health()
            assert health["ok"]  # still one live shard
            assert health["shards"]["shard-1"]["state"] == "dead"
            text = gw.prometheus_text()
            assert (
                'repro_serve_shard_live{shard="shard-1"} 0.0' in text
            )
