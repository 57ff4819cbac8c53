"""Tests for repro.core.hardware_network (full-chip assembly)."""

import numpy as np
import pytest

from repro.core import (
    HardwareConfig,
    HardwareSplitMatrix,
    SplitDecision,
    assemble_adc_network,
    assemble_sei_network,
    natural_partition,
)
from repro.core.hardware_network import PARTITION_METHODS
from repro.errors import ConfigurationError, ShapeError
from repro.hw import RRAMDevice
from tests.conftest import unfold_oracle


class TestHardwareConfig:
    def test_validation(self):
        with pytest.raises(ConfigurationError, match="partition_method"):
            HardwareConfig(partition_method="sorted")

    @pytest.mark.parametrize("method", PARTITION_METHODS)
    def test_every_partition_method_accepted(self, method):
        assert HardwareConfig(partition_method=method).partition_method == method

    def test_cells_per_weight_derived_from_the_cells(self):
        assert HardwareConfig().cells_per_weight == 4
        assert HardwareConfig(device=RRAMDevice(bits=2)).cells_per_weight == 8

    def test_negative_homogenize_iterations_rejected(self):
        with pytest.raises(ConfigurationError, match="homogenize_iterations"):
            HardwareConfig(homogenize_iterations=-1)
        assert HardwareConfig(homogenize_iterations=0).homogenize_iterations == 0

    @pytest.mark.parametrize(
        "options, field",
        [
            (dict(ir_drop_lambda=-1.0), "ir_drop_lambda"),
            (dict(ir_drop_lambda=float("nan")), "ir_drop_lambda"),
            (dict(max_crossbar_size=0), "max_crossbar_size"),
            (dict(max_crossbar_size=-5), "max_crossbar_size"),
            (dict(weight_bits=0), "weight_bits"),
            (dict(weight_bits=6), "weight_bits"),
            (dict(weight_bits=8, device=RRAMDevice(bits=3)), "weight_bits"),
        ],
    )
    def test_bad_values_rejected_at_construction(self, options, field):
        """Values the lowering cannot build fail when the config is made,
        not deep inside a compile."""
        with pytest.raises(ConfigurationError, match=field):
            HardwareConfig(**options)

    @pytest.mark.parametrize(
        "options",
        [
            dict(ir_drop_lambda=0.0),
            dict(max_crossbar_size=1),
            dict(weight_bits=4),
            dict(weight_bits=8, device=RRAMDevice(bits=2)),
        ],
    )
    def test_boundary_values_accepted(self, options):
        HardwareConfig(**options)


class TestHardwareSplitMatrix:
    def test_block_sums_close_to_exact(self, rng):
        weights = rng.normal(size=(40, 6)) * 0.1
        partition = natural_partition(40, 2)
        decision = SplitDecision(block_threshold=0.05, vote_threshold=1)
        config = HardwareConfig(max_crossbar_size=4096)
        hw = HardwareSplitMatrix(weights, partition, decision, config)
        bits = (rng.random((30, 40)) < 0.3).astype(float)

        from repro.core import SplitMatrix

        exact = SplitMatrix(weights, partition, decision)
        np.testing.assert_allclose(
            hw.block_sums(bits),
            exact.block_sums(bits),
            atol=np.abs(weights).max() * 40 / 255,
        )

    def test_fire_mostly_agrees_with_exact(self, rng):
        weights = rng.normal(size=(60, 4)) * 0.05
        partition = natural_partition(60, 3)
        decision = SplitDecision(block_threshold=0.02, vote_threshold=2)
        config = HardwareConfig(max_crossbar_size=4096)
        hw = HardwareSplitMatrix(weights, partition, decision, config)

        from repro.core import SplitMatrix

        exact = SplitMatrix(weights, partition, decision)
        bits = (rng.random((200, 60)) < 0.25).astype(float)
        agreement = (hw.fire(bits) == exact.fire(bits)).mean()
        assert agreement > 0.95


class TestAssembleSEI:
    def test_every_weighted_layer_gets_hardware(
        self, tiny_quantized, tiny_dataset
    ):
        hw = assemble_sei_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            HardwareConfig(max_crossbar_size=4096),
        )
        assert {0, 3, 7} <= set(hw.layer_computes)
        # The only non-weighted computes are the fused engine's
        # identity skips for ReLUs and its uint8 OR-pools, both running
        # on already-binarized data.
        from repro.nn.layers import MaxPool2D, ReLU

        for index in set(hw.layer_computes) - {0, 3, 7}:
            assert isinstance(
                tiny_quantized.network.layers[index], (ReLU, MaxPool2D)
            )

    def test_accuracy_close_to_software(self, tiny_quantized, tiny_dataset):
        hw = assemble_sei_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            HardwareConfig(max_crossbar_size=4096),
        )
        sw_err = tiny_quantized.binarized().error_rate(
            tiny_dataset["test_x"], tiny_dataset["test_y"]
        )
        hw_err = hw.error_rate(tiny_dataset["test_x"], tiny_dataset["test_y"])
        assert hw_err <= sw_err + 0.1

    def test_splitting_engaged_at_small_crossbars(
        self, tiny_quantized, tiny_dataset
    ):
        hw = assemble_sei_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            HardwareConfig(max_crossbar_size=256),
        )
        err = hw.error_rate(tiny_dataset["test_x"], tiny_dataset["test_y"])
        assert err < 0.6  # still a usable classifier

    def test_noise_degrades_gracefully(self, tiny_quantized, tiny_dataset):
        noisy = assemble_sei_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            HardwareConfig(
                device=RRAMDevice(bits=4, program_sigma=0.3),
                max_crossbar_size=4096,
            ),
        )
        clean_err = tiny_quantized.binarized().error_rate(
            tiny_dataset["test_x"], tiny_dataset["test_y"]
        )
        assert (
            noisy.error_rate(tiny_dataset["test_x"], tiny_dataset["test_y"])
            <= clean_err + 0.15
        )


def _metrics_dict(metrics) -> dict:
    exported = metrics.as_dict()
    return {
        kind: {
            name: value
            for name, value in exported.get(kind, {}).items()
            if name.startswith("hw/")
        }
        for kind in ("counters", "gauges", "histograms")
    }


def _conv_split_case(rng, padding, stride, ragged, n):
    """A Conv2D layer, its HardwareSplitMatrix and a 0/1 input batch."""
    from repro.core.homogenize import Partition
    from repro.nn.layers import Conv2D

    layer = Conv2D(3, 5, 3, stride=stride, padding=padding, rng=rng)
    rows = layer.weight_matrix.shape[0]  # 27
    blocks = 4 if ragged else 3
    partition = Partition(order=rng.permutation(rows), num_blocks=blocks)
    split = HardwareSplitMatrix(
        layer.weight_matrix,
        partition,
        SplitDecision(
            block_threshold=0.02, ones_slope=0.01, vote_threshold=2
        ),
        HardwareConfig(max_crossbar_size=40),
        bias=rng.normal(size=5) * 0.1,
    )
    x = (rng.random((n, 3, 9, 9)) < 0.3).astype(float)
    return layer, split, x


def _lowered(kind, layer, threshold=None, **record):
    """One weighted layer lowered by the fused engine, as compiled."""
    from repro.core.estimate import EstimatorPolicy
    from repro.core.hardware_network import lower_fused
    from repro.core.matrix_compute import layer_compute

    record.update(kind=kind, layer=layer, threshold=threshold)
    return layer_compute(3, lower_fused(record, EstimatorPolicy()))


def _expected_metrics(bits, cols, **fields):
    """The hw/layer3 export the recorder writes for 0/1 rows ``bits``."""
    from repro.obs.metrics import MetricsRegistry
    from repro.obs.power import record_mvm_batch

    registry = MetricsRegistry()
    record_mvm_batch(registry, 3, bits, cols, **fields)
    return _metrics_dict(registry)


class TestRowPlan:
    """The compiled row plan against im2col + SplitMatrix._gathered."""

    @pytest.mark.parametrize("n", [1, 4, 17])
    @pytest.mark.parametrize("ragged", [False, True])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_conv_layout_and_split_output(
        self, rng, padding, stride, ragged, n
    ):
        from repro import obs
        from repro.core.matrix_compute import RowPlan, Scratch
        from repro.nn import functional as F

        layer, split, x = _conv_split_case(rng, padding, stride, ragged, n)
        assert split._needs_sentinel == ragged
        bits = F.im2col(x, 3, 3, stride, padding)
        # The plan keeps its dtype: float64 for the float kernels, uint8
        # bit planes for the integer ones — the same layout either way.
        for dtype in (np.float64, np.uint8):
            rows = RowPlan(split._gather, dtype).gather(layer, x, Scratch())
            assert rows.dtype == dtype
            np.testing.assert_array_equal(rows, split._gathered(bits))

        compute = _lowered("split", layer, 0.5, matrix=split)
        assert compute.prebinarized
        with obs.recording() as rec:
            out = compute(layer, x)
        assert _metrics_dict(rec.metrics) == _expected_metrics(
            bits, split.cols, blocks=split.num_blocks,
            cells_per_weight=split._block_crossbars[0].cells_per_weight,
        )
        expected = unfold_oracle(layer, x, split.fire, add_bias=False)
        # Integral blocks: the certified kernel's uint8 vote plane.
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, expected)
        fired = split.fire(bits)
        np.testing.assert_array_equal(
            out.transpose(0, 2, 3, 1).reshape(fired.shape), fired
        )

    @pytest.mark.parametrize("n", [1, 4, 17])
    def test_dense_split_layer(self, rng, n):
        from repro.core.matrix_compute import RowPlan, Scratch
        from repro.nn.layers import Dense

        layer = Dense(50, 6, rng=rng)
        split = HardwareSplitMatrix(
            layer.weight_matrix,
            natural_partition(50, 3),  # ragged: 17/17/16
            SplitDecision(block_threshold=0.01, vote_threshold=2),
            HardwareConfig(max_crossbar_size=80),
        )
        x = (rng.random((n, 50)) < 0.3).astype(float)
        rows = RowPlan(split._gather).gather(layer, x, Scratch())
        np.testing.assert_array_equal(rows, split._gathered(x))
        compute = _lowered("split", layer, 0.5, matrix=split)
        out = compute(layer, x)
        np.testing.assert_array_equal(out, split.fire(x))
        # The compute, not the matrix, validates the selection signals
        # and advances every block array's read clock once per position.
        assert [a.reads_since_program for a in split.block_arrays] == [n] * 3
        with pytest.raises(ShapeError):
            compute(layer, x * 0.5)

    @pytest.mark.parametrize("n", [1, 4, 17])
    @pytest.mark.parametrize("stride", [1, 2])
    @pytest.mark.parametrize("padding", [0, 1, 2])
    def test_dac_layer(self, rng, padding, stride, n):
        from repro import obs
        from repro.core.hardware_network import DacCrossbar
        from repro.nn import functional as F
        from repro.nn.layers import Conv2D

        layer = Conv2D(2, 4, 3, stride=stride, padding=padding, rng=rng)
        crossbar = DacCrossbar(
            layer.weight_matrix, RRAMDevice(bits=4), 8,
            np.random.default_rng(1),
        )
        x = rng.random((n, 2, 9, 9))
        driven = crossbar.quantize(x)
        sums = unfold_oracle(
            layer, driven, lambda rows: rows @ crossbar.merged()
        )
        # The input layer is always thresholded (BinarizedNetwork needs a
        # threshold on every weighted layer but the last); a data-derived
        # threshold makes both decisions occur.
        threshold = float(np.median(sums))
        compute = _lowered("dac", layer, threshold, crossbar=crossbar)
        assert compute.prebinarized
        with obs.recording() as rec:
            out = compute(layer, x)
        # DACs drive every row each cycle: every row counts as active.
        rows = F.im2col(driven, 3, 3, stride, padding)
        assert _metrics_dict(rec.metrics) == _expected_metrics(
            np.ones_like(rows), 4,
            cells_per_weight=crossbar.cells_per_weight,
        )
        assert out.dtype == np.uint8
        np.testing.assert_array_equal(out, sums > threshold)

    def test_scratch_plane_is_overwritten(self, rng):
        # The planned rows live in per-thread scratch: the next gather on
        # the same plan and thread reuses (and overwrites) the storage.
        from repro.core.matrix_compute import RowPlan, Scratch
        from repro.nn.layers import Dense

        layout = np.array([np.arange(0, 20), np.arange(20, 40)])
        plan, scratch = RowPlan(layout, dtype=np.uint8), Scratch()
        layer = Dense(40, 6, rng=rng)
        bits = (rng.random((4, 40)) < 0.4).astype(np.uint8)
        first = plan.gather(layer, bits, scratch)
        stale = first.copy()
        second = plan.gather(layer, 1 - bits, scratch)
        assert not np.array_equal(stale, second)
        assert np.shares_memory(first, second)


class TestAssembleADC:
    def test_full_precision_matches_float_predictions(
        self, trained_tiny_network, tiny_dataset
    ):
        """8-bit DAC+ADC baseline ~= original CNN (Table 5 error column)."""
        from repro.core import rescale_network

        net = trained_tiny_network.copy()
        rescale_network(net, tiny_dataset["train_x"][:64])
        baseline = assemble_adc_network(net)
        x = tiny_dataset["test_x"][:60]
        hw_preds = baseline.predict(x).argmax(1)
        float_preds = net.predict(x).argmax(1)
        assert (hw_preds == float_preds).mean() > 0.93

    def test_onebit_adc_close_to_quantized(self, tiny_quantized, tiny_dataset):
        mid = assemble_adc_network(
            tiny_quantized.network,
            thresholds=tiny_quantized.thresholds,
            data_bits=1,
        )
        sw_err = tiny_quantized.binarized().error_rate(
            tiny_dataset["test_x"], tiny_dataset["test_y"]
        )
        hw_err = mid.error_rate(tiny_dataset["test_x"], tiny_dataset["test_y"])
        assert hw_err <= sw_err + 0.1

    def test_all_layers_hooked(self, trained_tiny_network):
        wrapper = assemble_adc_network(trained_tiny_network)
        assert set(wrapper.layer_computes) == {0, 3, 7}

    def test_full_precision_network_is_complete(self, trained_tiny_network):
        """The thresholdless baseline sets every field, so it prints,
        compares and reports no folded layers; the missing-threshold
        check still holds for every other BinarizedNetwork."""
        from repro.core import BinarizedNetwork
        from repro.errors import QuantizationError

        net = assemble_adc_network(trained_tiny_network)
        assert isinstance(net, BinarizedNetwork)
        assert net.prebinarized == frozenset()
        assert net.thresholds == {} and net.input_bits == 8
        assert "prebinarized" in repr(net)
        assert net == net
        with pytest.raises(QuantizationError, match="missing thresholds"):
            BinarizedNetwork(trained_tiny_network, {})

    def test_engine_decomposes_at_hardware_weight_bits(
        self, tiny_quantized
    ):
        """The adc engine programs its cells at the spec's weight bits:
        8-bit weights on 4-bit cells are 4 signed slices, 4-bit ones 2."""
        from repro.core import EngineSpec, compile_network

        slices = {}
        for bits in (8, 4):
            net = compile_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                EngineSpec(
                    name="adc", hardware=HardwareConfig(weight_bits=bits)
                ),
            )
            slices[bits] = {
                name: array.shape[0]
                for name, array in net.device_arrays.items()
            }
        assert set(slices[8].values()) == {4}
        assert set(slices[4].values()) == {2}
