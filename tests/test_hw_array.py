"""Tests for repro.hw.array (device arrays) and repro.hw.retune.

The load-bearing properties:

* **Bit identity** — a static :class:`DeviceArray` programs and reads
  through exactly the RNG stream the legacy direct ``RRAMDevice`` calls
  consumed, so every engine compiled through the array interface is
  byte-for-byte the pre-refactor engine.
* **Deterministic trajectories** — temporal arrays age as a seeded
  closed form: equal seeds give equal futures, and snapshot/restore
  reproduces the continuation exactly.
* **Closed loop** — drift past the retune threshold triggers a
  program-and-verify pass that restores the programmed state (exactly,
  when programming is noiseless).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.errors import ConfigurationError
from repro.hw.array import DeviceArray, TemporalConfig
from repro.hw.device import RRAMDevice
from repro.hw.retune import (
    RetunePolicy,
    array_needs_retune,
    check_and_retune,
    retune_array,
)

DRIFTY = TemporalConfig(drift_nu=0.1, drift_nu_sigma=0.5, seed=7)


class TestStaticDeviceArray:
    def test_2d_program_matches_direct_device_call(self, rng):
        device = RRAMDevice(bits=4, program_sigma=0.2)
        targets = rng.random((12, 9))
        array = DeviceArray(device)
        array.program(targets, np.random.default_rng(5))
        expected = device.program(targets, np.random.default_rng(5))
        np.testing.assert_array_equal(array.conductance, expected)

    def test_3d_program_matches_per_slice_loop(self, rng):
        """K slices must be programmed one device.program call per
        leading plane — the stream the legacy SEI loop consumed."""
        device = RRAMDevice(bits=4, program_sigma=0.2)
        targets = rng.random((4, 6, 5))
        array = DeviceArray(device)
        array.program(targets, np.random.default_rng(5))
        legacy = np.random.default_rng(5)
        expected = np.stack(
            [device.program(plane, legacy) for plane in targets]
        )
        np.testing.assert_array_equal(array.conductance, expected)

    def test_read_normalized_uses_weight_scale_base(self, rng):
        """The SEI read base is the normalized cells round-tripped to
        conductance — NOT the raw programmed values (they differ in the
        last ulp under programming noise)."""
        device = RRAMDevice(bits=4, program_sigma=0.3, read_sigma=0.05)
        array = DeviceArray(device)
        array.program(rng.random((8, 8)), np.random.default_rng(1))
        span = device.g_max - device.g_min
        base = device.g_min + array.normalized * span
        expected = device.conductance_to_normalized(
            device.read(base, np.random.default_rng(2))
        )
        got = array.read_normalized(np.random.default_rng(2))
        np.testing.assert_array_equal(got, expected)

    def test_targets_recorded_and_generation_bumps(self, rng):
        array = DeviceArray(RRAMDevice())
        assert array.targets is None
        g0 = array.generation
        targets = rng.random((4, 4))
        array.program(targets, rng)
        np.testing.assert_array_equal(array.targets, targets)
        assert array.generation > g0

    def test_static_array_never_ages(self, rng):
        array = DeviceArray(RRAMDevice())
        array.program(rng.random((4, 4)), rng)
        before = array.conductance.copy()
        gen = array.generation
        array.advance(1e6)
        array.note_reads(10_000)
        np.testing.assert_array_equal(array.conductance, before)
        # Static state never moved: compile-time collapses stay valid.
        assert array.generation == gen
        assert not array.temporal

    def test_unprogrammed_read_raises(self):
        array = DeviceArray(RRAMDevice())
        with pytest.raises(ConfigurationError, match="not been programmed"):
            array.read_normalized()


class TestTemporalTrajectories:
    def test_inert_config_is_static_and_identical(self, rng):
        """All-off temporal config must give a static array and the
        static bits — the acceptance gate for 'temporal disabled ==
        seed behaviour'."""
        inert = DeviceArray(RRAMDevice(), temporal=TemporalConfig())
        static = DeviceArray(RRAMDevice())
        assert inert.config is None
        assert not inert.temporal
        targets = rng.random((6, 6))
        inert.program(targets, np.random.default_rng(3))
        static.program(targets, np.random.default_rng(3))
        np.testing.assert_array_equal(inert.conductance, static.conductance)
        for array in (inert, static):
            array.note_reads(500)
            array.advance(64.0)
        assert inert.generation == static.generation
        assert inert.snapshot().digest() == static.snapshot().digest()

    def test_fresh_temporal_array_matches_static_bit_for_bit(self, rng):
        temporal = DeviceArray(RRAMDevice(program_sigma=0.2), temporal=DRIFTY)
        static = DeviceArray(RRAMDevice(program_sigma=0.2))
        targets = rng.random((4, 6, 5))
        temporal.program(targets, np.random.default_rng(3))
        static.program(targets, np.random.default_rng(3))
        assert temporal.temporal and temporal.config == DRIFTY
        np.testing.assert_array_equal(
            temporal.conductance, static.conductance
        )
        np.testing.assert_array_equal(temporal.normalized, static.normalized)

    def test_drift_is_monotone_in_age(self, rng):
        array = DeviceArray(RRAMDevice(), temporal=DRIFTY)
        array.program(rng.random((16, 16)), rng)
        drifts = []
        for _ in range(4):
            array.advance(32.0)
            drifts.append(array.health().drift_level_steps)
        assert drifts[0] > 0
        assert all(b > a for a, b in zip(drifts, drifts[1:]))

    def test_retention_and_read_disturb_decay_toward_g_min(self, rng):
        device = RRAMDevice()
        retention = DeviceArray(
            device, temporal=TemporalConfig(retention_tau=50.0)
        )
        retention.program(rng.random((8, 8)) * 0.5 + 0.25, rng)
        fresh = retention.conductance.copy()
        retention.advance(100.0)
        assert np.all(retention.conductance <= fresh)
        assert retention.conductance.min() >= device.g_min

        disturb = DeviceArray(
            device, temporal=TemporalConfig(read_disturb_rate=1e-3)
        )
        disturb.program(rng.random((8, 8)) * 0.5 + 0.25, rng)
        fresh = disturb.conductance.copy()
        disturb.note_reads(500)
        assert np.all(disturb.conductance <= fresh)

    def test_trajectory_is_seed_deterministic(self, rng):
        targets = rng.random((10, 10))
        states = []
        for _ in range(2):
            array = DeviceArray(RRAMDevice(program_sigma=0.2), temporal=DRIFTY)
            array.program(targets, np.random.default_rng(9))
            array.note_reads(64)
            array.advance(77.0)
            states.append(array.conductance.copy())
        np.testing.assert_array_equal(states[0], states[1])

    def test_reprogram_redraws_drift_exponents(self, rng):
        """Each program epoch gets its own per-cell exponent draw —
        aging after a re-program must not replay the first epoch."""
        targets = rng.random((12, 12))
        array = DeviceArray(RRAMDevice(), temporal=DRIFTY)
        array.program(targets, np.random.default_rng(1))
        array.advance(64.0)
        first_epoch = array.conductance.copy()
        array.program(targets, np.random.default_rng(1))
        array.advance(64.0)
        assert not np.array_equal(array.conductance, first_epoch)


class TestSnapshotRestore:
    def _aged_array(self, rng, age=40.0, reads=32):
        array = DeviceArray(
            RRAMDevice(program_sigma=0.1),
            temporal=TemporalConfig(
                drift_nu=0.08,
                drift_nu_sigma=0.4,
                retention_tau=500.0,
                read_disturb_rate=1e-4,
                seed=11,
            ),
        )
        array.program(rng.random((9, 7)), np.random.default_rng(2))
        array.note_reads(reads)
        array.advance(age)
        return array

    def test_restore_reproduces_future_trajectory_exactly(self, rng):
        array = self._aged_array(rng)
        snap = array.snapshot()
        array.advance(60.0)
        array.note_reads(100)
        future = array.conductance.copy()

        clone = DeviceArray(array.device, temporal=array.config)
        clone.restore(snap)
        np.testing.assert_array_equal(clone.targets, array.targets)
        clone.advance(60.0)
        clone.note_reads(100)
        np.testing.assert_array_equal(clone.conductance, future)

    def test_digest_stable_and_state_sensitive(self, rng):
        array = self._aged_array(rng)
        digest = array.snapshot().digest()
        assert len(digest) == 16
        assert array.snapshot().digest() == digest  # repeatable
        array.advance(1.0)
        assert array.snapshot().digest() != digest  # age moved

    def test_digest_distinguishes_aging_configs(self, rng):
        """Two arrays with equal programmed state but different aging
        behaviour must not collide: the digest covers the temporal
        config governing the future trajectory."""
        targets = rng.random((6, 6))
        digests = set()
        for nu in (0.02, 0.05, 0.1):
            array = DeviceArray(
                RRAMDevice(), temporal=TemporalConfig(drift_nu=nu, seed=1)
            )
            array.program(targets, np.random.default_rng(4))
            array.advance(16.0)
            digests.add(array.snapshot().digest())
        assert len(digests) == 3

    def test_restore_bumps_generation(self, rng):
        array = self._aged_array(rng)
        snap = array.snapshot()
        gen = array.generation
        array.restore(snap)
        assert array.generation > gen


class TestHealth:
    def test_fresh_array_reports_zero(self, rng):
        array = DeviceArray(RRAMDevice(), temporal=DRIFTY)
        array.program(rng.random((5, 5)), rng)
        health = array.health()
        assert health.drift_level_steps == 0.0
        assert health.age == 0.0
        assert health.reads_since_program == 0
        payload = health.as_dict()
        assert payload["program_epoch"] == 1

    def test_drift_measured_in_level_steps(self, rng):
        device = RRAMDevice(bits=4)
        array = DeviceArray(
            device, temporal=TemporalConfig(retention_tau=100.0)
        )
        array.program(np.full((4, 4), 1.0), rng)
        array.advance(100.0)  # decay factor exp(-1)
        health = array.health()
        # A full-scale cell decayed by 1-1/e spans many 4-bit steps.
        assert health.drift_level_steps > 5.0
        assert health.max_drift_level_steps >= health.drift_level_steps


class TestRetune:
    def _drifted(self, rng, age=200.0):
        array = DeviceArray(
            RRAMDevice(), temporal=TemporalConfig(drift_nu=0.1, seed=3)
        )
        array.program(rng.random((10, 8)), np.random.default_rng(6))
        array.advance(age)
        return array

    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetunePolicy(check_every=0)
        with pytest.raises(ConfigurationError):
            RetunePolicy(drift_threshold=0.0)
        with pytest.raises(ConfigurationError):
            RetunePolicy(mode="anneal")

    def test_needs_retune_threshold(self, rng):
        array = self._drifted(rng)
        assert array_needs_retune(array, RetunePolicy(drift_threshold=0.25))
        assert not array_needs_retune(
            array, RetunePolicy(drift_threshold=1e9)
        )

    def test_tune_mode_restores_programmed_state_exactly(self, rng):
        """Noiseless programming: program-and-verify converges to the
        ideal level conductances, so a retune reproduces the fresh
        state bit-for-bit."""
        array = self._drifted(rng)
        fresh = DeviceArray(RRAMDevice())
        fresh.program(array.targets, np.random.default_rng(6))
        event = retune_array(array, RetunePolicy(), name="l0")
        np.testing.assert_array_equal(array.conductance, fresh.conductance)
        assert array.health().drift_level_steps == 0.0
        assert array.health().age == 0.0
        assert event.drift_level_steps > 0.25
        assert event.yield_fraction == 1.0

    def test_program_mode_also_resets(self, rng):
        array = self._drifted(rng)
        event = retune_array(
            array,
            RetunePolicy(mode="program"),
            rng=np.random.default_rng(0),
            name="l0",
        )
        assert event.iterations == 1.0
        assert array.health().age == 0.0

    def test_unprogrammed_array_rejected(self):
        array = DeviceArray(RRAMDevice(), temporal=DRIFTY)
        with pytest.raises(ConfigurationError, match="no recorded targets"):
            retune_array(array, RetunePolicy())

    def test_check_and_retune_only_fires_past_threshold(self, rng):
        drifted = self._drifted(rng)
        calm = DeviceArray(RRAMDevice(), temporal=DRIFTY)
        calm.program(rng.random((4, 4)), rng)
        report = check_and_retune(
            {"hot": drifted, "cold": calm}, RetunePolicy()
        )
        assert set(report.checked) == {"hot", "cold"}
        assert [e.name for e in report.events] == ["hot"]
        assert report.retuned
        assert report.worst_drift > 0.25
        payload = report.as_dict()
        assert payload["events"][0]["name"] == "hot"
