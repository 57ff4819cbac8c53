"""Tests for the seeded trace-driven open-loop load generator.

The loadgen's contract is *determinism with honest statistics*:

* the same ``(profile, seed)`` always yields the byte-identical arrival
  schedule, and a schedule saved to a trace file replays exactly;
* the analytic :func:`stationary_rate` is what long generated
  schedules converge to (Poisson, MMPP-2 burst mixture, diurnal);
* :func:`run_load` under a :class:`FakeClock` with a synchronous
  submit produces a byte-identical summary report JSON run after run;
* :func:`summarize` accounts for every request exactly once
  (ok/rejected/dead/error) and computes the documented quantiles.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.errors import BackpressureError, ConfigurationError, ShardDeadError
from repro.serve import (
    FakeClock,
    LoadProfile,
    generate_schedule,
    load_trace,
    measure_saturation,
    run_load,
    run_profile,
    save_trace,
    stationary_rate,
    summarize,
)
from repro.serve.loadgen import _Record


BURSTY = LoadProfile(
    kind="bursty",
    rate=100.0,
    burst_rate=500.0,
    burst_dwell_s=0.05,
    calm_dwell_s=0.2,
    duration_s=2.0,
)


class _DoneFuture:
    """An already-resolved future: deterministic under a FakeClock."""

    def __init__(self, value=None, error=None):
        self._value = value
        self._error = error

    def result(self, timeout=None):
        if self._error is not None:
            raise self._error
        return self._value

    def add_done_callback(self, fn):
        fn(self)  # already done: fire immediately


class TestProfiles:
    def test_kind_validation(self):
        with pytest.raises(ConfigurationError):
            LoadProfile(kind="constant")
        with pytest.raises(ConfigurationError):
            LoadProfile(rate=0.0)
        with pytest.raises(ConfigurationError):
            LoadProfile(kind="diurnal", amplitude=1.5)
        with pytest.raises(ConfigurationError):
            LoadProfile(kind="replay")  # needs a trace

    def test_stationary_rate_analytic(self):
        assert stationary_rate(LoadProfile(rate=120.0)) == 120.0
        assert stationary_rate(
            LoadProfile(kind="diurnal", rate=80.0)
        ) == 80.0
        # Dwell-weighted MMPP-2 mixture: (0.2*100 + 0.05*500) / 0.25.
        assert stationary_rate(BURSTY) == pytest.approx(180.0)
        replay = LoadProfile(
            kind="replay", trace=(0.5, 1.0, 1.5, 2.0), duration_s=2.0
        )
        assert stationary_rate(replay) == pytest.approx(2.0)


class TestScheduleDeterminism:
    @pytest.mark.parametrize(
        "profile",
        [
            LoadProfile(rate=300.0, duration_s=1.0),
            BURSTY,
            LoadProfile(kind="diurnal", rate=200.0, duration_s=1.5),
        ],
        ids=["poisson", "bursty", "diurnal"],
    )
    def test_same_seed_same_schedule(self, profile):
        a = generate_schedule(profile, seed=7)
        b = generate_schedule(profile, seed=7)
        assert a.tobytes() == b.tobytes()  # bit-identical
        c = generate_schedule(profile, seed=8)
        assert a.shape != c.shape or not np.array_equal(a, c)

    def test_schedules_are_sorted_and_bounded(self):
        for profile in (
            LoadProfile(rate=500.0, duration_s=0.5),
            BURSTY,
            LoadProfile(kind="diurnal", rate=400.0, duration_s=0.5),
        ):
            schedule = generate_schedule(profile, seed=3)
            assert np.all(np.diff(schedule) >= 0)
            assert np.all(schedule >= 0)
            assert np.all(schedule < profile.duration_s)


class TestEmpiricalRates:
    def test_poisson_rate_converges(self):
        profile = LoadProfile(rate=200.0, duration_s=50.0)
        schedule = generate_schedule(profile, seed=1)
        empirical = len(schedule) / profile.duration_s
        # 10000 expected arrivals -> sigma ~1%; 5% is ~5 sigma.
        assert empirical == pytest.approx(200.0, rel=0.05)

    def test_mmpp_stationary_rate_converges(self):
        """The burst generator's long-run rate matches the analytic
        dwell-weighted mixture (satellite: stationary-rate unit test)."""
        profile = LoadProfile(
            kind="bursty",
            rate=100.0,
            burst_rate=500.0,
            burst_dwell_s=0.05,
            calm_dwell_s=0.2,
            duration_s=80.0,
        )
        schedule = generate_schedule(profile, seed=5)
        empirical = len(schedule) / profile.duration_s
        # MMPP counts are over-dispersed vs Poisson; 80 s covers ~320
        # regime cycles, so 10% comfortably bounds the variance.
        assert empirical == pytest.approx(stationary_rate(profile), rel=0.10)

    def test_bursty_is_actually_bursty(self):
        """Windowed arrival counts must be over-dispersed relative to a
        Poisson process of the same mean (variance/mean >> 1)."""
        profile = LoadProfile(
            kind="bursty",
            rate=50.0,
            burst_rate=2000.0,
            burst_dwell_s=0.05,
            calm_dwell_s=0.2,
            duration_s=40.0,
        )
        schedule = generate_schedule(profile, seed=2)
        counts, _ = np.histogram(
            schedule, bins=np.arange(0.0, profile.duration_s + 0.1, 0.1)
        )
        dispersion = counts.var() / counts.mean()
        assert dispersion > 3.0, dispersion

    def test_diurnal_modulation_shows_up(self):
        """One full sine period: the positive half-cycle must receive
        more arrivals than the negative one."""
        profile = LoadProfile(
            kind="diurnal",
            rate=400.0,
            amplitude=0.8,
            period_s=4.0,
            duration_s=4.0,
        )
        schedule = generate_schedule(profile, seed=4)
        first_half = int(np.sum(schedule < 2.0))
        second_half = len(schedule) - first_half
        assert first_half > 1.5 * second_half
        empirical = len(schedule) / profile.duration_s
        assert empirical == pytest.approx(400.0, rel=0.15)


class TestTraceRoundtrip:
    def test_save_load_replays_identically(self, tmp_path):
        profile = LoadProfile(rate=250.0, duration_s=1.0)
        schedule = generate_schedule(profile, seed=11)
        path = tmp_path / "trace.json"
        save_trace(path, schedule, profile=profile, seed=11)
        replay = load_trace(path)
        assert replay.kind == "replay"
        replayed = generate_schedule(replay, seed=999)  # seed is ignored
        # Offsets are persisted at nanosecond resolution.
        np.testing.assert_allclose(replayed, schedule, atol=1e-9)
        assert len(replayed) == len(schedule)
        # Loading twice gives the byte-identical schedule.
        again = generate_schedule(load_trace(path), seed=0)
        assert replayed.tobytes() == again.tobytes()

    def test_trace_file_is_stable_json(self, tmp_path):
        schedule = generate_schedule(LoadProfile(rate=100.0), seed=1)
        path_a, path_b = tmp_path / "a.json", tmp_path / "b.json"
        save_trace(path_a, schedule, seed=1)
        save_trace(path_b, schedule, seed=1)
        assert path_a.read_bytes() == path_b.read_bytes()

    def test_negative_offsets_rejected(self):
        replay = LoadProfile(
            kind="replay", trace=(-0.5, 1.0), duration_s=1.0
        )
        with pytest.raises(ConfigurationError):
            generate_schedule(replay)


class TestDeterministicReports:
    """Satellite: same trace/seed/profile -> identical report JSON."""

    @staticmethod
    def _deterministic_submit(clock, service_s=0.004):
        def submit(x):
            clock.advance(service_s)  # simulated service time
            return _DoneFuture(value=x)

        return submit

    def test_run_load_report_is_byte_identical(self):
        profile = LoadProfile(rate=500.0, duration_s=0.5)
        schedule = generate_schedule(profile, seed=21)
        reports = []
        for _ in range(2):
            clock = FakeClock()
            report = run_load(
                self._deterministic_submit(clock),
                schedule,
                np.zeros(4),
                clock=clock,
            )
            reports.append(json.dumps(report, sort_keys=True))
        assert reports[0] == reports[1]
        parsed = json.loads(reports[0])
        assert parsed["requests"] == len(schedule)
        assert parsed["ok"] == len(schedule)
        # Timed from its due time, every request took the simulated
        # service time plus how late the generator sent it.
        assert parsed["lag_p50_ms"] > 0.0
        assert parsed["p50_ms"] == pytest.approx(parsed["lag_p50_ms"] + 4.0)
        assert parsed["p99_ms"] == pytest.approx(parsed["lag_p99_ms"] + 4.0)

    def test_latency_is_timed_from_the_due_time(self):
        """A synchronous submit slower than the arrival spacing: the
        generator falls further behind each request, and latency grows
        from the due time instead of staying at the service time."""
        clock = FakeClock()
        report = run_load(
            self._deterministic_submit(clock, service_s=0.004),
            [0.001 * i for i in range(10)],
            np.zeros(2),
            clock=clock,
        )
        # Request i is due at i ms, sent at 4i ms and done at 4i + 4 ms.
        assert report["max_ms"] == pytest.approx(31.0)
        assert report["mean_ms"] == pytest.approx(17.5)
        assert report["lag_p50_ms"] == pytest.approx(13.5)
        assert report["lag_p99_ms"] == pytest.approx(26.73)

    def test_run_profile_carries_provenance(self):
        clock = FakeClock()
        report = run_profile(
            self._deterministic_submit(clock),
            BURSTY,
            np.zeros(2),
            seed=3,
            clock=clock,
        )
        assert report["seed"] == 3
        assert report["profile"]["kind"] == "bursty"
        assert report["stationary_rate_rps"] == pytest.approx(180.0)
        json.dumps(report)  # JSON-safe end to end

    def test_replay_provenance_strips_bulky_trace(self):
        clock = FakeClock()
        trace = tuple(float(i) / 100.0 for i in range(50))
        replay = LoadProfile(kind="replay", trace=trace, duration_s=0.5)
        report = run_profile(
            self._deterministic_submit(clock),
            replay,
            np.zeros(2),
            clock=clock,
        )
        assert report["profile"]["trace"] is None
        assert report["profile"]["trace_len"] == 50

    def test_payload_factory_receives_indices(self):
        clock = FakeClock()
        seen = []

        def submit(x):
            seen.append(int(x[0]))
            clock.advance(0.001)
            return _DoneFuture(value=x)

        run_load(
            submit,
            [0.0, 0.1, 0.2],
            lambda i: np.array([float(i)]),
            clock=clock,
        )
        assert seen == [0, 1, 2]


class TestAccounting:
    def test_run_load_counts_every_outcome_once(self):
        clock = FakeClock()
        outcomes = iter(
            ["ok", "reject_sync", "dead_sync", "reject_async",
             "dead_async", "error", "ok"]
        )

        def submit(x):
            clock.advance(0.002)
            outcome = next(outcomes)
            if outcome == "reject_sync":
                raise BackpressureError("queue full")
            if outcome == "dead_sync":
                raise ShardDeadError("shard died")
            if outcome == "reject_async":
                return _DoneFuture(error=BackpressureError("late shed"))
            if outcome == "dead_async":
                return _DoneFuture(error=ShardDeadError("died in flight"))
            if outcome == "error":
                return _DoneFuture(error=ValueError("boom"))
            return _DoneFuture(value=x)

        schedule = [0.01 * i for i in range(7)]
        report = run_load(submit, schedule, np.zeros(2), clock=clock)
        assert report["requests"] == 7
        assert report["ok"] == 2
        assert report["rejected"] == 2
        assert report["dead"] == 2
        assert report["errors"] == 1
        # No silent drops: the categories partition the schedule.
        total = (
            report["ok"] + report["rejected"] + report["dead"]
            + report["errors"]
        )
        assert total == report["requests"]
        assert report["rejection_rate"] == pytest.approx(2 / 7, abs=1e-6)
        assert report["error_rate"] == pytest.approx(3 / 7, abs=1e-6)

    def test_summarize_quantiles_match_numpy(self):
        records = [
            _Record(0.0, "ok", float(ms)) for ms in range(1, 101)
        ]
        report = summarize(records, elapsed_s=2.0)
        values = np.arange(1.0, 101.0)
        assert report["p50_ms"] == pytest.approx(
            float(np.percentile(values, 50))
        )
        assert report["p99_ms"] == pytest.approx(
            float(np.percentile(values, 99))
        )
        assert report["throughput_rps"] == pytest.approx(50.0)
        assert report["mean_ms"] == pytest.approx(50.5)

    def test_summarize_without_latencies(self):
        records = [_Record(0.0, "rejected", None)] * 3
        report = summarize(records, elapsed_s=1.0)
        assert report["ok"] == 0
        assert report["p50_ms"] is None
        assert report["mean_ms"] is None
        assert report["rejection_rate"] == 1.0

    def test_summarize_empty(self):
        report = summarize([], elapsed_s=1.0)
        assert report["requests"] == 0
        assert report["rejection_rate"] == 0.0


class TestSaturationProbe:
    def test_fake_clock_throughput_is_exact(self):
        clock = FakeClock()

        def submit(x):
            clock.advance(0.01)  # 100 req/s service rate, serialized
            return _DoneFuture(value=x)

        report = measure_saturation(
            submit, np.zeros(2), duration_s=1.0, concurrency=8, clock=clock
        )
        # 13 waves of 8 at exactly 10 ms each: 104 done in 1.04 s.
        assert report["completed"] == 104
        assert report["elapsed_s"] == pytest.approx(1.04)
        assert report["throughput_rps"] == pytest.approx(100.0)
        assert report["rejected"] == 0
        assert report["errors"] == 0

    def test_rejections_are_not_throughput(self):
        clock = FakeClock()
        calls = {"n": 0}

        def submit(x):
            clock.advance(0.01)
            calls["n"] += 1
            if calls["n"] % 2 == 0:
                raise BackpressureError("shed")
            return _DoneFuture(value=x)

        report = measure_saturation(
            submit, np.zeros(2), duration_s=0.5, concurrency=4, clock=clock
        )
        assert report["rejected"] > 0
        assert report["completed"] + report["rejected"] == calls["n"]
        assert report["throughput_rps"] == pytest.approx(
            report["completed"] / report["elapsed_s"], rel=1e-3
        )
