"""Unit and integration tests for the runtime activation estimator.

The estimator's contract has two halves: a *soundness* half (the suffix
bound tables and fire bands really do bracket every reachable final sum,
so ``mode='exact'`` decisions match the off-mode arithmetic bit for bit)
and a *plumbing* half (engines that cannot honour the contract reject
the policy, and the skipped work flows into the metrics the power model
prices).  Both halves are pinned here against brute-force oracles on
randomized small matrices plus the tiny compiled network.
"""

import numpy as np
import pytest

from repro import obs
from repro.core.engines import EngineSpec, compile_network
from repro.core.estimate import (
    MAX_K,
    EstimatorPolicy,
    PackedSuffixBounds,
    _suffix_bound_table,
    packed_fire_band,
)
from repro.core.hardware_network import HardwareConfig
from repro.errors import ConfigurationError
from repro.hw.array import TemporalConfig
from repro.hw.device import RRAMDevice


class TestEstimatorPolicy:
    def test_defaults_are_off(self):
        policy = EstimatorPolicy()
        assert policy.mode == "off"
        assert not policy.enabled
        assert not policy.exact

    def test_mode_properties(self):
        assert EstimatorPolicy(mode="exact").exact
        assert EstimatorPolicy(mode="exact").enabled
        threshold = EstimatorPolicy(mode="threshold", confidence=0.8)
        assert threshold.enabled and not threshold.exact

    def test_rejects_unknown_mode(self):
        with pytest.raises(ConfigurationError, match="mode"):
            EstimatorPolicy(mode="sometimes")

    @pytest.mark.parametrize("confidence", [0.0, -0.2, 1.5])
    def test_rejects_confidence_outside_unit_interval(self, confidence):
        with pytest.raises(ConfigurationError, match="confidence"):
            EstimatorPolicy(mode="threshold", confidence=confidence)

    @pytest.mark.parametrize(
        "kwargs",
        [{"chunk_rows": 0}, {"group_check": 0}, {"group_check": -1}],
    )
    def test_rejects_degenerate_knobs(self, kwargs):
        with pytest.raises(ConfigurationError, match=">= 1"):
            EstimatorPolicy(**kwargs)


class TestSuffixBoundTable:
    """Row ``k`` of the table is extreme over every k-row subset."""

    @pytest.mark.parametrize("sign", [-1.0, 1.0])
    def test_bounds_every_subset(self, rng, sign):
        parts = sign * np.abs(rng.normal(size=(9, 4)))
        cap = 6
        table = _suffix_bound_table(parts, cap)
        assert table.shape == (cap + 1, 4)
        np.testing.assert_array_equal(table[0], 0.0)
        for _ in range(50):
            k = int(rng.integers(0, parts.shape[0] + 1))
            subset = rng.choice(parts.shape[0], size=k, replace=False)
            total = parts[subset].sum(axis=0)
            bound = table[min(k, cap)]
            if sign < 0:
                assert np.all(bound <= total + 1e-12)
            else:
                assert np.all(bound >= total - 1e-12)

    def test_tail_rows_hold_full_sum(self, rng):
        parts = np.abs(rng.normal(size=(3, 2)))
        table = _suffix_bound_table(parts, 8)
        full = parts.sum(axis=0)
        for k in range(3, 9):
            np.testing.assert_allclose(table[k], full)

    def test_empty_suffix_is_zero(self):
        table = _suffix_bound_table(np.zeros((0, 3)), 4)
        np.testing.assert_array_equal(table, 0.0)


class TestPackedSuffixBounds:
    def test_bounds_bracket_every_pattern(self, rng):
        rows = rng.integers(-200, 201, size=(48, 5)).astype(np.int64)
        policy = EstimatorPolicy(mode="exact", group_check=2)
        bounds = PackedSuffixBounds(rows, policy)
        assert bounds.boundaries == [2, 4]
        assert bounds.cap == MAX_K
        for g in bounds.boundaries:
            suffix = rows[8 * g :]
            for _ in range(40):
                mask = rng.random(suffix.shape[0]) < 0.3
                remaining = suffix[mask].sum(axis=0)
                k = np.array([int(mask.sum())])
                lo, hi = bounds.bounds_at(g, k)
                assert np.all(lo[0] <= remaining)
                assert np.all(remaining <= hi[0])

    def test_confidence_tightens_toward_zero(self, rng):
        rows = rng.integers(-200, 201, size=(32, 4)).astype(np.int64)
        exact = PackedSuffixBounds(rows, EstimatorPolicy(mode="exact"))
        scaled = PackedSuffixBounds(
            rows, EstimatorPolicy(mode="threshold", confidence=0.6)
        )
        for g in exact.boundaries:
            kk = np.arange(8)
            lo_e, hi_e = exact.bounds_at(g, kk)
            lo_s, hi_s = scaled.bounds_at(g, kk)
            assert np.all(lo_s >= lo_e)
            assert np.all(hi_s <= hi_e)

    def test_rejects_ragged_rows(self):
        policy = EstimatorPolicy(mode="exact")
        with pytest.raises(ConfigurationError, match="8\\*groups"):
            PackedSuffixBounds(np.zeros((12, 3), dtype=np.int64), policy)


class TestPackedFireBand:
    def test_band_is_sound_against_float_comparison(self, rng):
        # Any accumulator at/above fire_hi fires the off-mode float64
        # comparison; any at/below kill_lo does not.  The inside of the
        # band is the only place a replay is ever needed.
        for _ in range(30):
            unit = float(rng.uniform(0.001, 0.1))
            threshold = float(rng.uniform(0.0, 1.0))
            bias = rng.normal(scale=0.5, size=6)
            fire_hi, kill_lo = packed_fire_band(
                threshold, bias, unit, acc_bound=500
            )
            accs = np.arange(-500, 501, dtype=np.int64)
            fired = unit * accs[:, None] + bias[None, :] > threshold
            above = accs[:, None] >= fire_hi[None, :]
            below = accs[:, None] <= kill_lo[None, :]
            assert np.all(fired[above])
            assert not np.any(fired[below])

    def test_band_width_is_finite(self):
        fire_hi, kill_lo = packed_fire_band(
            0.5, np.zeros(3), 0.01, acc_bound=100
        )
        assert np.all(fire_hi > kill_lo)
        assert np.all(np.abs(fire_hi) <= 108)
        assert np.all(np.abs(kill_lo) <= 108)


class TestEngineGates:
    """Engines that cannot honour the contract must reject the policy."""

    def _spec(self, engine, mode="exact", **hw):
        return EngineSpec(
            name=engine,
            hardware=HardwareConfig(device=RRAMDevice(bits=4), **hw),
            estimator=EstimatorPolicy(mode=mode),
        )

    def test_adc_engine_rejects_estimator(self, tiny_quantized):
        with pytest.raises(ConfigurationError, match="estimator"):
            compile_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                self._spec("adc"),
            )

    def test_reference_engine_rejects_estimator(self, tiny_quantized):
        with pytest.raises(ConfigurationError, match="estimator-free"):
            compile_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                self._spec("reference"),
            )

    def test_fused_engine_rejects_threshold_mode(self, tiny_quantized):
        with pytest.raises(ConfigurationError, match="packed"):
            compile_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                self._spec("fused", mode="threshold"),
            )

    def test_temporal_aging_rejects_estimator(self, tiny_quantized):
        spec = self._spec(
            "fused", temporal=TemporalConfig(drift_nu=0.05, seed=3)
        )
        with pytest.raises(ConfigurationError, match="temporal"):
            compile_network(
                tiny_quantized.network, tiny_quantized.thresholds, spec
            )


class TestCompiledNetworkIdentity:
    """``mode='exact'`` is bit-identical to ``off`` end to end."""

    def _predict(
        self, engine, tiny_quantized, images, mode, confidence=1.0, **hw
    ):
        spec = EngineSpec(
            name=engine,
            hardware=HardwareConfig(device=RRAMDevice(bits=4), **hw),
            estimator=EstimatorPolicy(mode=mode, confidence=confidence),
        )
        compiled = compile_network(
            tiny_quantized.network, tiny_quantized.thresholds, spec
        )
        return compiled.predict(images)

    @pytest.mark.parametrize("engine", ["fused", "packed"])
    def test_exact_matches_off_unsplit(
        self, engine, tiny_quantized, tiny_dataset
    ):
        images = tiny_dataset["test_x"][:24]
        off = self._predict(engine, tiny_quantized, images, "off")
        exact = self._predict(engine, tiny_quantized, images, "exact")
        np.testing.assert_array_equal(off, exact)

    @pytest.mark.parametrize("engine", ["fused", "packed"])
    def test_exact_matches_off_split(
        self, engine, tiny_quantized, tiny_dataset
    ):
        images = tiny_dataset["test_x"][:24]
        off = self._predict(
            engine, tiny_quantized, images, "off", max_crossbar_size=128
        )
        exact = self._predict(
            engine, tiny_quantized, images, "exact", max_crossbar_size=128
        )
        np.testing.assert_array_equal(off, exact)

    @pytest.mark.parametrize("engine", ["fused", "packed"])
    def test_skip_counters_reach_metrics(
        self, engine, tiny_quantized, tiny_dataset
    ):
        images = tiny_dataset["test_x"][:24]
        with obs.recording() as rec:
            self._predict(
                engine,
                tiny_quantized,
                images,
                "exact",
                max_crossbar_size=128,
            )
        counters = rec.metrics.as_dict()["counters"]
        positions = sum(
            value
            for key, value in counters.items()
            if key.endswith("/est_positions")
        )
        decided = sum(
            value
            for key, value in counters.items()
            if key.endswith("/est_decided")
        )
        assert positions > 0
        assert 0 < decided <= positions
        assert (
            sum(
                value
                for key, value in counters.items()
                if key.endswith("/skipped_slots")
            )
            > 0
        )

    @pytest.mark.parametrize("hw", [{}, {"max_crossbar_size": 128}])
    def test_threshold_disagreement_grows_from_zero(
        self, hw, tiny_quantized, tiny_dataset
    ):
        # Full-confidence threshold mode keeps the entire interval, so
        # its decisions match ``off`` on every sample (on both the
        # unsplit and the split paths); shrinking the confidence can
        # only add disagreement.  Threshold mode is packed-only.
        images = tiny_dataset["test_x"][:40]
        off = self._predict("packed", tiny_quantized, images, "off", **hw)
        rates = []
        for confidence in (1.0, 0.8):
            loose = self._predict(
                "packed",
                tiny_quantized,
                images,
                "threshold",
                confidence=confidence,
                **hw,
            )
            rates.append(float((off != loose).mean()))
        assert rates[0] == 0.0
        assert rates[1] >= rates[0]
