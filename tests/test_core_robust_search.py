"""Tests for repro.core.robust_search and repro.analysis.stats."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import repro
from repro.analysis import mcnemar_test, paired_disagreement, wilson_interval
from repro.core import RobustSearchConfig, SearchConfig, robustify_thresholds
from repro.core.robust_search import estimate_sei_output_noise_std
from repro.errors import ConfigurationError, QuantizationError


class TestRobustSearchConfig:
    def test_validation(self):
        with pytest.raises(QuantizationError):
            RobustSearchConfig(program_sigma=-1.0)
        with pytest.raises(QuantizationError):
            RobustSearchConfig(trials=0)
        with pytest.raises(QuantizationError):
            RobustSearchConfig(weight_bits=10, cell_bits=4)


class TestNoiseEstimate:
    def test_scales_linearly_with_sigma(self, rng):
        matrix = rng.normal(size=(20, 4))
        low = estimate_sei_output_noise_std(matrix, 5.0, 0.1)
        high = estimate_sei_output_noise_std(matrix, 5.0, 0.2)
        assert high == pytest.approx(2 * low)

    def test_scales_sqrt_with_activity(self, rng):
        matrix = rng.normal(size=(20, 4))
        one = estimate_sei_output_noise_std(matrix, 4.0, 0.1)
        four = estimate_sei_output_noise_std(matrix, 16.0, 0.1)
        assert four == pytest.approx(2 * one)

    def test_zero_matrix(self):
        assert estimate_sei_output_noise_std(np.zeros((3, 3)), 5.0, 0.1) == 0.0

    def test_negative_activity_rejected(self, rng):
        with pytest.raises(QuantizationError):
            estimate_sei_output_noise_std(rng.normal(size=(2, 2)), -1.0, 0.1)


class TestRobustify:
    def test_returns_thresholds_for_all_layers(
        self, tiny_quantized, tiny_dataset
    ):
        robust = robustify_thresholds(
            tiny_quantized,
            tiny_dataset["train_x"][:80],
            tiny_dataset["train_y"][:80],
            RobustSearchConfig(
                program_sigma=0.5,
                trials=2,
                search=SearchConfig(thres_max=0.3, search_step=0.05),
            ),
        )
        assert set(robust) == set(tiny_quantized.thresholds)

    def test_first_layer_threshold_preserved(
        self, tiny_quantized, tiny_dataset
    ):
        """The DAC-driven input layer keeps its Algorithm 1 threshold."""
        robust = robustify_thresholds(
            tiny_quantized,
            tiny_dataset["train_x"][:80],
            tiny_dataset["train_y"][:80],
            RobustSearchConfig(program_sigma=0.5, trials=2),
        )
        first = min(tiny_quantized.thresholds)
        assert robust[first] == tiny_quantized.thresholds[first]

    def test_zero_noise_reproduces_reasonable_choice(
        self, tiny_quantized, tiny_dataset
    ):
        robust = robustify_thresholds(
            tiny_quantized,
            tiny_dataset["train_x"][:80],
            tiny_dataset["train_y"][:80],
            RobustSearchConfig(
                program_sigma=0.0,
                trials=1,
                search=SearchConfig(thres_max=0.3, search_step=0.02),
            ),
        )
        for threshold in robust.values():
            assert 0.0 <= threshold <= 0.3

    def test_does_not_mutate_input(self, tiny_quantized, tiny_dataset):
        before = dict(tiny_quantized.thresholds)
        robustify_thresholds(
            tiny_quantized,
            tiny_dataset["train_x"][:40],
            tiny_dataset["train_y"][:40],
            RobustSearchConfig(program_sigma=0.3, trials=1),
        )
        assert tiny_quantized.thresholds == before


class TestWilsonInterval:
    def test_contains_point_estimate(self):
        low, high = wilson_interval(10, 100)
        assert low < 0.1 < high

    def test_narrower_with_more_samples(self):
        narrow = wilson_interval(100, 10000)
        wide = wilson_interval(1, 100)
        assert (narrow[1] - narrow[0]) < (wide[1] - wide[0])

    def test_bounds_clipped(self):
        low, high = wilson_interval(0, 50)
        assert low == pytest.approx(0.0, abs=1e-12)
        assert 0.0 <= low <= high <= 1.0
        low, high = wilson_interval(50, 50)
        assert high == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            wilson_interval(5, 0)
        with pytest.raises(ConfigurationError):
            wilson_interval(10, 5)
        with pytest.raises(ConfigurationError):
            wilson_interval(1, 10, confidence=1.5)

    # scipy.stats.norm.ppf-based bounds, recorded with scipy 1.17.1.
    @pytest.mark.parametrize(
        "errors, total, confidence, expected",
        [
            (0, 100, 0.95, (3.469446951953614e-18, 0.03699349820698568)),
            (3, 120, 0.95, (0.008538174769902228, 0.0709300333278661)),
            (17, 1000, 0.9, (0.011463017043479767, 0.025143485926128896)),
            (250, 500, 0.99, (0.4427810961454962, 0.5572189038545038)),
            (1000, 1000, 0.95, (0.996173241514445, 1.0)),
            (42, 10000, 0.999, (0.0025428180425709247, 0.006929682162218469)),
        ],
    )
    def test_matches_scipy_reference(self, errors, total, confidence, expected):
        # abs covers the zero-error lower bound, which is cancellation
        # noise around 0 in either implementation.
        assert wilson_interval(errors, total, confidence) == pytest.approx(
            expected, rel=1e-12, abs=1e-15
        )


class TestMcNemar:
    def test_identical_classifiers(self):
        preds = np.array([0, 1, 2, 0])
        labels = np.array([0, 1, 2, 1])
        result = mcnemar_test(preds, preds, labels)
        assert result.p_value == 1.0
        assert not result.significant

    def test_clear_difference_significant(self):
        labels = np.zeros(40, dtype=int)
        good = np.zeros(40, dtype=int)  # always right
        bad = np.ones(40, dtype=int)  # always wrong
        result = mcnemar_test(good, bad, labels)
        assert result.only_a_correct == 40
        assert result.only_b_correct == 0
        assert result.significant

    def test_symmetric_disagreement_not_significant(self, rng):
        labels = np.zeros(20, dtype=int)
        a = labels.copy()
        b = labels.copy()
        a[:5] = 1  # a wrong on 5
        b[5:10] = 1  # b wrong on a disjoint 5
        result = mcnemar_test(a, b, labels)
        assert result.only_a_correct == result.only_b_correct == 5
        assert not result.significant

    # 2 * scipy.stats.binom.cdf(min(b, c), b + c, 0.5), recorded with
    # scipy 1.17.1.
    @pytest.mark.parametrize(
        "only_a, only_b, expected",
        [
            (1, 0, 1.0),
            (3, 9, 0.14599609375),
            (7, 23, 0.005222879350185395),
            (40, 60, 0.05688793364098089),
            (123, 177, 0.002161138741240763),
            (499, 501, 0.9747749818216395),
        ],
    )
    def test_p_value_matches_scipy_reference(self, only_a, only_b, expected):
        labels = np.zeros(only_a + only_b + 5, dtype=int)
        a = labels.copy()
        b = labels.copy()
        a[only_a : only_a + only_b] = 1
        b[:only_a] = 1
        result = mcnemar_test(a, b, labels)
        assert (result.only_a_correct, result.only_b_correct) == (only_a, only_b)
        assert result.p_value == pytest.approx(expected, rel=1e-12)

    def test_paired_disagreement_shape_check(self):
        with pytest.raises(Exception):
            paired_disagreement(
                np.zeros(3), np.zeros(4), np.zeros(3)
            )


def test_import_does_not_load_scipy():
    """numpy is the only declared runtime dependency."""
    env = dict(os.environ, PYTHONPATH=str(Path(repro.__file__).parents[1]))
    out = subprocess.run(
        [sys.executable, "-c", "import sys, repro; print('scipy' in sys.modules)"],
        env=env,
        capture_output=True,
        text=True,
        check=True,
    )
    assert out.stdout.strip() == "False"
