"""Unit and integration tests for the runtime activation estimator.

The estimator's contract has two halves: a *soundness* half (the suffix
bound tables really do bracket every reachable final sum,
so ``mode='exact'`` decisions match the off-mode arithmetic bit for bit)
and a *plumbing* half (engines that cannot honour the contract reject
the policy, and the skipped work flows into the metrics the power model
prices).  Both halves are pinned here against brute-force oracles on
randomized small matrices plus the tiny compiled network.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import obs
from repro.core.engines import EngineSpec, compile_network
from repro.core.estimate import (
    MAX_K,
    EstimatorPolicy,
    PackedSuffixBounds,
    SkipPass,
    _suffix_bound_table,
    vote_reads,
)
from repro.core.hardware_network import HardwareConfig
from repro.core.integer_gemm import integer_layer
from repro.core.splitting import SplitDecision
from repro.errors import ConfigurationError
from repro.hw.array import TemporalConfig
from repro.hw.device import RRAMDevice
from tests.conftest import retire_oracle


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
        for i, g in enumerate(bounds.boundaries):
            suffix = rows[8 * g :]
            for _ in range(40):
                mask = rng.random(suffix.shape[0]) < 0.3
                remaining = suffix[mask].sum(axis=0)
                k = min(int(mask.sum()), MAX_K)
                assert np.all(bounds.lo[i][k] <= remaining)
                assert np.all(remaining <= bounds.hi[i][k])

    def test_confidence_tightens_toward_zero(self, rng):
        rows = rng.integers(-200, 201, size=(32, 4)).astype(np.int64)
        exact = PackedSuffixBounds(rows, EstimatorPolicy(mode="exact"))
        scaled = PackedSuffixBounds(
            rows, EstimatorPolicy(mode="threshold", confidence=0.6)
        )
        assert np.all(scaled.lo >= exact.lo)
        assert np.all(scaled.hi <= exact.hi)

    def test_rejects_ragged_rows(self):
        policy = EstimatorPolicy(mode="exact")
        with pytest.raises(ConfigurationError, match="8\\*groups"):
            PackedSuffixBounds(np.zeros((12, 3), dtype=np.int64), policy)


#: Estimator policies the accounting pass is pinned under.
_MODES = {
    "exact": dict(mode="exact"),
    "threshold-1.0": dict(mode="threshold", confidence=1.0),
    "threshold-0.6": dict(mode="threshold", confidence=0.6),
}


class TestSkipPassOracle:
    """The vectorized accounting pass equals the per-position oracle."""

    @settings(max_examples=150, deadline=None)
    @given(
        seed=st.integers(0, 2**16),
        split=st.booleans(),
        blocks=st.integers(1, 4),
        group_check=st.integers(1, 4),
        mode=st.sampled_from(sorted(_MODES)),
        data=st.data(),
    )
    def test_matches_retire_oracle(
        self, derived_rng, seed, split, blocks, group_check, mode, data
    ):
        rng = derived_rng(seed)
        blocks = blocks if split else 1
        vote = data.draw(st.integers(1, blocks)) if split else 1
        heights = [int(h) for h in rng.integers(1, 41, size=blocks)]
        height, cols, n = max(heights), int(rng.integers(1, 6)), 12
        unit = 1.0 / 64
        ints = np.zeros((blocks, height, cols), dtype=np.int64)
        for k, h in enumerate(heights):
            ints[k, :h] = rng.integers(-20, 21, size=(h, cols))
        # Thresholds on half-integer accumulators certify.
        c0 = float(rng.integers(-10, 11)) + 0.5
        if split:
            decision = SplitDecision(
                unit * c0, unit * float(rng.integers(-1, 2)), vote
            )
            limits = [decision.thresholds_for(np.arange(h + 1.0))
                      for h in heights]
        else:
            limits = [[unit * c0]]
        layer = integer_layer(
            [unit * block[:h] for block, h in zip(ints, heights)],
            [unit] * blocks, height, limits,
        )
        assert layer is not None
        rows = np.zeros((n, blocks, height), dtype=np.uint8)
        for k, h in enumerate(heights):
            rows[:, k, :h] = rng.random((n, h)) < rng.uniform(0.1, 0.9)
        policy = EstimatorPolicy(group_check=group_check, **_MODES[mode])

        counts, stats, sa_events, reads = SkipPass(policy, vote)(layer, rows)
        expected = retire_oracle(
            ints, layer.tables, rows, vote, group_check,
            policy.confidence if mode != "exact" else 1.0,
        )
        np.testing.assert_array_equal(counts, expected[0])
        assert vars(stats) == expected[1]
        assert sa_events == expected[2]
        np.testing.assert_array_equal(reads, expected[3])
        if policy.exact:
            # Exact mode: the off kernel's plane and vote-settled reads.
            ones = rows.sum(axis=2)
            fired = np.zeros((blocks, n, cols), dtype=np.uint8)
            for k in range(blocks):
                fire_at = (
                    layer.tables[k, 0] if layer.static
                    else layer.tables[k][ones[:, k]]
                )
                fired[k] = rows[:, k].astype(np.int64) @ ints[k] >= fire_at
            np.testing.assert_array_equal(
                counts >= vote, fired.sum(axis=0) >= vote
            )
            np.testing.assert_array_equal(
                vote_reads(fired, vote), expected[3]
            )


class TestSkipPassCost:
    """Exact mode prices the skip only while a recorder is on."""

    @pytest.fixture
    def calls(self, monkeypatch):
        counter = []
        original = SkipPass.__call__

        def spy(self, layer, rows):
            counter.append(rows.shape)
            return original(self, layer, rows)

        monkeypatch.setattr(SkipPass, "__call__", spy)
        return counter

    @staticmethod
    def _compile(engine, tiny_quantized, mode, confidence=1.0):
        spec = EngineSpec(
            name=engine,
            hardware=HardwareConfig(
                device=RRAMDevice(bits=4), max_crossbar_size=128
            ),
            estimator=EstimatorPolicy(mode=mode, confidence=confidence),
        )
        compiled = compile_network(
            tiny_quantized.network, tiny_quantized.thresholds, spec
        )
        estimated = sum(
            record["kind"] in ("unsplit", "split")
            and record["threshold"] is not None
            for record in compiled.hardware_layers.values()
        )
        assert estimated > 0
        return compiled, estimated

    @pytest.mark.parametrize("engine", ["fused", "packed"])
    def test_exact_runs_the_pass_only_under_a_recorder(
        self, engine, calls, tiny_quantized, tiny_dataset
    ):
        compiled, estimated = self._compile(engine, tiny_quantized, "exact")
        images = tiny_dataset["test_x"][:8]
        compiled.predict(images)
        compiled.predict(images)
        assert calls == []
        with obs.recording():
            compiled.predict(images)
        assert len(calls) == estimated
        with obs.recording():
            compiled.predict(images)
        assert len(calls) == 2 * estimated

    def test_threshold_runs_the_pass_on_every_call(
        self, calls, tiny_quantized, tiny_dataset
    ):
        compiled, estimated = self._compile(
            "fused", tiny_quantized, "threshold", confidence=0.8
        )
        images = tiny_dataset["test_x"][:8]
        compiled.predict(images)
        compiled.predict(images)
        assert len(calls) == 2 * estimated
        with obs.recording():
            compiled.predict(images)
        assert len(calls) == 3 * estimated


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

    def test_fused_threshold_at_full_confidence_matches_off(
        self, tiny_quantized, tiny_dataset
    ):
        # At confidence 1.0 the bound tables are the exact ones, so
        # threshold mode on the fused engine decides as ``off`` does,
        # vote settle included (split layer).
        images = tiny_dataset["test_x"][:24]
        hw = {"max_crossbar_size": 128}
        off = self._predict("fused", tiny_quantized, images, "off", **hw)
        full = self._predict(
            "fused", tiny_quantized, images, "threshold", **hw
        )
        np.testing.assert_array_equal(full, off)

    @pytest.mark.parametrize("hw", [{}, {"max_crossbar_size": 128}])
    def test_threshold_disagreement_grows_from_zero(
        self, hw, tiny_quantized, tiny_dataset
    ):
        # Full-confidence threshold mode keeps the entire interval, so
        # its decisions match ``off`` on every sample (on both the
        # unsplit and the split paths); shrinking the confidence must
        # add disagreement, and shrinking it further must not remove it.
        images = tiny_dataset["test_x"][:40]
        off = self._predict("fused", tiny_quantized, images, "off", **hw)
        rates = []
        for confidence in (1.0, 0.8, 0.5):
            loose = self._predict(
                "fused",
                tiny_quantized,
                images,
                "threshold",
                confidence=confidence,
                **hw,
            )
            rates.append(float((off != loose).mean()))
        assert rates[0] == 0.0
        assert rates[1] > 0.0
        assert rates[2] >= rates[1]
