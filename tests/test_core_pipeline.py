"""Tests for repro.core.pipeline (the splitting flow of §4.3)."""

import numpy as np
import pytest

from repro import api
from repro.core import (
    EngineSpec,
    HardwareConfig,
    SplitConfig,
    build_split_network,
    compile_network,
)
from repro.errors import ConfigurationError
from repro.hw import RRAMDevice
from repro.serve import SessionConfig
from repro.zoo import get_dataset


class TestSplitConfig:
    # Row partitioning is the hardware's: the split flow reads it from the
    # HardwareConfig it is given, and SplitConfig has no copy of it.
    def test_invalid_partition_method(self):
        with pytest.raises(ConfigurationError, match="partition_method"):
            HardwareConfig(partition_method="sorted")
        with pytest.raises(TypeError):
            SplitConfig(partition_method="homogenize")

    def test_invalid_final_mode(self):
        with pytest.raises(ConfigurationError):
            SplitConfig(final_layer_mode="adc")

    def test_negative_homogenize_iterations_rejected(self):
        with pytest.raises(ConfigurationError, match="homogenize_iterations"):
            HardwareConfig(homogenize_iterations=-1)
        with pytest.raises(TypeError):
            SplitConfig(homogenize_iterations=10)


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
            hardware=HardwareConfig(max_crossbar_size=4096),
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
            hardware=HardwareConfig(max_crossbar_size=256),
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
            SplitConfig(final_layer_mode="analog"),
            HardwareConfig(max_crossbar_size=256),
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
            SplitConfig(final_layer_mode="vote"),
            HardwareConfig(max_crossbar_size=256),
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
            hardware=HardwareConfig(max_crossbar_size=256),
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
            hardware=HardwareConfig(
                max_crossbar_size=256, partition_method="homogenize"
            ),
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
            SplitConfig(dynamic=True),
            HardwareConfig(max_crossbar_size=256),
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
                hardware=HardwareConfig(
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
            hardware=HardwareConfig(max_crossbar_size=256),
        )
        for report in result.reports.values():
            assert 1 <= report.decision.vote_threshold <= report.num_blocks


def compiled_partitions(binarized):
    """Row orders of a compiled network's split and analog-merge layers."""
    return {
        index: (record.get("partition") or record["matrix"].partition).order
        for index, record in binarized.hardware_layers.items()
        if record["kind"] in ("split", "analog_merge")
    }


class TestOnePartitionChooser:
    @pytest.mark.parametrize("method", ["natural", "random", "homogenize"])
    def test_split_flow_and_compiler_pick_the_same_partitions(
        self, method, tiny_quantized, tiny_dataset
    ):
        # Programming variation draws from the cell-programming stream,
        # which the random row orders must not share.
        hardware = HardwareConfig(
            device=RRAMDevice(program_sigma=0.05),
            max_crossbar_size=256,
            partition_method=method,
            seed=5,
        )
        result = build_split_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            tiny_dataset["train_x"][:64],
            tiny_dataset["train_y"][:64],
            hardware=hardware,
        )
        compiled = compiled_partitions(
            compile_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                EngineSpec(hardware=hardware),
            )
        )
        assert sorted(compiled) == sorted(result.reports) == [3, 7]
        for index, report in result.reports.items():
            np.testing.assert_array_equal(
                report.partition.order, compiled[index]
            )
        natural = [
            np.array_equal(order, np.arange(len(order)))
            for order in compiled.values()
        ]
        assert all(natural) == (method == "natural")
        if method == "random":
            # The first split layer takes the first draw of its own stream.
            np.testing.assert_array_equal(
                compiled[3], np.random.default_rng(5).permutation(100)
            )


class TestCalibratedSessions:
    @pytest.mark.parametrize("rows", [512, 256, 128])
    def test_calibration_compiles_at_every_crossbar_size(self, rows):
        """Calibration partitions for the engine's own crossbars, so each
        calibrated session compiles onto exactly the plain partitions."""
        engine = EngineSpec(hardware=HardwareConfig(max_crossbar_size=rows))
        plain, calibrated = (
            api.compile(
                "network2",
                engine=engine,
                calibrate_splits=calibrate,
                reuse=False,
            )
            for calibrate in (False, True)
        )
        expected = compiled_partitions(plain.hardware)
        got = compiled_partitions(calibrated.hardware)
        assert expected and sorted(got) == sorted(expected)
        for index, order in expected.items():
            np.testing.assert_array_equal(got[index], order)
        images = get_dataset().test.images[:8]
        assert calibrated.infer_batch(images).shape == (8, 10)

    def test_calibrated_compiles_read_the_dataset_once(self, monkeypatch):
        """The calibration set comes from the zoo's shared dataset, so a
        second calibrated compile reads no file."""
        from repro import obs, zoo

        reads = []
        real_load = zoo.load_mnist_like

        def counting_load(*args, **kwargs):
            reads.append(args)
            return real_load(*args, **kwargs)

        monkeypatch.setattr(zoo, "_DATASETS", {})
        monkeypatch.setattr(zoo, "load_mnist_like", counting_load)
        with obs.recording() as rec:
            for _ in range(2):
                api.compile(
                    "network2", calibrate_splits=True, reuse=False
                )
        counters = rec.metrics.as_dict()["counters"]
        assert len(reads) == 1
        assert counters["zoo/dataset/misses"] == 1
        assert counters["zoo/dataset/hits"] == 1

    def test_non_sei_engine_rejected_before_calibrating(self):
        with pytest.raises(ConfigurationError, match="calibrate_splits"):
            SessionConfig(
                network="network1",
                engine=EngineSpec(name="adc"),
                calibrate_splits=True,
            )
