"""Tests for repro.core.pipeline (the splitting flow of §4.3)."""

import numpy as np
import pytest

from repro.core import SplitConfig, build_split_network
from repro.errors import ConfigurationError


class TestSplitConfig:
    def test_invalid_partition_method(self):
        with pytest.raises(ConfigurationError):
            SplitConfig(partition_method="sorted")

    def test_invalid_final_mode(self):
        with pytest.raises(ConfigurationError):
            SplitConfig(final_layer_mode="adc")

    def test_negative_homogenize_iterations_rejected(self):
        with pytest.raises(ConfigurationError, match="homogenize_iterations"):
            SplitConfig(homogenize_iterations=-1)


@pytest.fixture(scope="module")
def split_inputs(request):
    """Lazy access to the session fixtures from a module-scoped helper."""
    return None


class TestBuildSplitNetwork:
    def test_no_split_when_everything_fits(self, tiny_quantized, tiny_dataset):
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=4096),
        )
        assert result.reports == {}
        assert result.binarized.layer_computes == {}

    def test_split_layers_detected(self, tiny_quantized, tiny_dataset):
        # Tiny net: conv2 matrix 100 rows -> 400 SEI rows; fc 128 -> 512.
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=256),
        )
        assert set(result.reports) == {3, 7}
        assert result.reports[3].num_blocks == 2
        assert result.reports[7].num_blocks == 2
        assert result.reports[7].is_final

    def test_analog_final_layer_keeps_exact_compute(
        self, tiny_quantized, tiny_dataset
    ):
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=256, final_layer_mode="analog"),
        )
        # conv2 gets a compute hook; the final layer does not (analog WTA).
        assert 3 in result.binarized.layer_computes
        assert 7 not in result.binarized.layer_computes

    def test_vote_final_layer_installs_compute(
        self, tiny_quantized, tiny_dataset
    ):
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=256, final_layer_mode="vote"),
        )
        assert 7 in result.binarized.layer_computes
        report = result.reports[7]
        assert np.isfinite(report.calibration_accuracy)

    def test_split_network_accuracy_degrades_gracefully(
        self, tiny_quantized, tiny_dataset
    ):
        unsplit_err = tiny_quantized.binarized().error_rate(
            tiny_dataset["test_x"], tiny_dataset["test_y"]
        )
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=256),
        )
        split_err = result.binarized.error_rate(
            tiny_dataset["test_x"], tiny_dataset["test_y"]
        )
        assert split_err <= unsplit_err + 0.25

    def test_homogenize_beats_or_ties_natural_distance(
        self, tiny_quantized, tiny_dataset
    ):
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=256, partition_method="homogenize"),
        )
        for report in result.reports.values():
            assert report.distance <= report.natural_distance + 1e-12

    def test_dynamic_config_allows_nonzero_slope(
        self, tiny_quantized, tiny_dataset
    ):
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=256, dynamic=True),
        )
        for index, report in result.reports.items():
            if not report.is_final:
                assert report.decision.ones_slope >= 0.0

    def test_random_partition_seeded(self, tiny_quantized, tiny_dataset):
        orders = []
        for seed in (0, 0, 1):
            result = build_split_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                tiny_dataset["train_x"][:64],
                tiny_dataset["train_y"][:64],
                SplitConfig(
                    max_crossbar_size=256,
                    partition_method="random",
                    seed=seed,
                ),
            )
            orders.append(result.reports[3].partition.order.copy())
        np.testing.assert_array_equal(orders[0], orders[1])
        assert not np.array_equal(orders[0], orders[2])

    def test_vote_threshold_within_bounds(self, tiny_quantized, tiny_dataset):
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SplitConfig(max_crossbar_size=256),
        )
        for report in result.reports.values():
            assert 1 <= report.decision.vote_threshold <= report.num_blocks
