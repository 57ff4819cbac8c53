"""Every hardware layer model on ``layer_compute``, pinned to the unfold oracle.

The software SEI hooks, the split-vote hooks and the adc layer kernel run
through the one :func:`repro.core.matrix_compute.layer_compute`.  Each is
compared here with its matrix model applied by
:func:`tests.conftest.unfold_oracle` (im2col → model → bias → contiguous
fold): outputs must be ``array_equal`` with equal dtypes, and the
``hw/layer*`` exports equal.
"""

import numpy as np
import pytest

from repro import obs
from repro.core import (
    DynamicThresholdMatrix,
    SEIMatrix,
    SplitDecision,
    SplitMatrix,
    decompose_weights,
    dynamic_threshold_layer_compute,
    final_layer_vote_compute,
    sei_layer_compute,
    split_layer_compute,
)
from repro.core.homogenize import Partition
from repro.core.matrix_compute import layer_compute
from repro.hw import RRAMDevice
from repro.hw.array import DeviceArray
from repro.hw.peripherals import ADC, DAC
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense
from repro.obs.power import record_layer
from tests.conftest import unfold_oracle

SEED = 7
BIG = 1 << 20


def _layer(kind, rng):
    if kind == "conv":
        layer = Conv2D(3, 5, 3, stride=2, padding=1, rng=rng)
        layer.params["bias"][:] = rng.normal(size=5) * 0.1
        return layer, (4, 3, 7, 7)
    return Dense(40, 6, rng=rng), (4, 40)


def _bits(rng, shape):
    return (rng.random(shape) < 0.3).astype(np.float64)


def _hw(metrics):
    exported = metrics.as_dict()
    return {
        kind: {k: v for k, v in exported.get(kind, {}).items() if "hw/" in k}
        for kind in ("counters", "gauges", "histograms")
    }


def _run(fn):
    with obs.recording() as rec:
        out = fn()
    return out, _hw(rec.metrics)


def _assert_same(new, old):
    (out, hw), (expected, expected_hw) = new, old
    assert out.dtype == expected.dtype
    np.testing.assert_array_equal(out, expected)
    assert hw == expected_hw
    return hw


def _split(layer, rng):
    rows = layer.weight_matrix.shape[0]
    return SplitMatrix(
        layer.weight_matrix,
        Partition(order=rng.permutation(rows), num_blocks=4),  # ragged
        SplitDecision(block_threshold=0.02, ones_slope=0.01, vote_threshold=2),
        bias=rng.normal(size=layer.weight_matrix.shape[1]) * 0.1,
    )


def _old_vote(layer, matrix, decide, index=3):
    """The split hook's matrix function: record the rows, then decide."""

    def matrix_fn(bits):
        record_layer(
            index, lambda: bits.sum(axis=1), rows=bits.shape[1],
            cols=matrix.cols, blocks=matrix.num_blocks, cells_per_weight=4,
        )
        return decide(bits)

    return lambda x: unfold_oracle(layer, x, matrix_fn, add_bias=False)


def _old_adc(layer, device, calibration):
    """The DAC+crossbar+ADC matrix function as the adc engine ran it."""
    matrix = layer.weight_matrix
    rng = np.random.default_rng(SEED)
    slices, coefficients, scale = decompose_weights(matrix, 8, device.bits)
    array = DeviceArray(device, rng=rng)
    array.program(slices, rng)
    programmed = array.normalized
    dac, adc = DAC(bits=8), ADC(bits=8)
    cell_max = 2**device.bits - 1
    if calibration is not None:
        if isinstance(layer, Conv2D):
            k = layer.kernel_size
            calibration = F.im2col(
                calibration, k, k, layer.stride, layer.padding
            )
        driven = dac.quantize(np.clip(calibration, 0.0, 1.0))
        full_scales = [
            max(float(((driven @ cells) * cell_max).max()) * 1.25, 1e-12)
            for cells in programmed
        ]
    else:
        full_scales = [
            max(float(cells.sum(axis=0).max()) * cell_max, 1e-12)
            for cells in programmed
        ]

    def matrix_fn(x):
        driven = dac.quantize(np.clip(x, 0.0, 1.0))
        out = np.zeros(x.shape[:-1] + (matrix.shape[1],))
        for coeff, cells, full_scale in zip(
            coefficients, programmed, full_scales
        ):
            currents = (driven @ cells) * cell_max
            out = out + coeff * adc.quantize(currents, full_scale)
        return out * scale

    return lambda x: unfold_oracle(layer, x, matrix_fn)


def _new_adc(layer, device, calibration):
    from repro.core.hardware_network import DacCrossbar, _adc_kernel

    xbar = DacCrossbar(
        layer.weight_matrix, device, 8, np.random.default_rng(SEED)
    )
    compute = layer_compute(None, _adc_kernel(layer, xbar, calibration))
    return lambda x: compute(layer, x)


@pytest.mark.parametrize("kind", ["conv", "dense"])
class TestHooksMatchUnfoldOracle:
    @pytest.mark.parametrize("read_sigma", [0.0, 0.05])
    def test_sei_layer_compute(self, rng, kind, read_sigma):
        layer, shape = _layer(kind, rng)
        x = _bits(rng, shape)
        device = RRAMDevice(bits=4, program_sigma=0.1, read_sigma=read_sigma)
        hook = sei_layer_compute(
            layer, device=device, max_crossbar_size=BIG,
            rng=np.random.default_rng(SEED),
        )
        matrix = SEIMatrix(
            layer.weight_matrix, device=device, max_crossbar_size=BIG,
            rng=np.random.default_rng(SEED),
        )
        _assert_same(
            _run(lambda: hook(layer, x)),
            _run(lambda: unfold_oracle(layer, x, matrix.compute)),
        )
        assert hook.array.reads_since_program == matrix.array.reads_since_program

    def test_dynamic_threshold_layer_compute(self, rng, kind):
        layer, shape = _layer(kind, rng)
        x = _bits(rng, shape)
        hook = dynamic_threshold_layer_compute(
            layer, 0.1, max_crossbar_size=BIG, rng=np.random.default_rng(SEED)
        )
        matrix = DynamicThresholdMatrix(
            layer.weight_matrix, threshold=0.1, max_crossbar_size=BIG,
            rng=np.random.default_rng(SEED),
        )
        _assert_same(
            _run(lambda: hook(layer, x)),
            _run(lambda: unfold_oracle(layer, x, matrix.compute)),
        )

    def test_split_layer_compute(self, rng, kind):
        layer, shape = _layer(kind, rng)
        x = _bits(rng, shape)
        split = _split(layer, rng)
        hook = split_layer_compute(layer, split, obs_index=3)
        hw = _assert_same(
            _run(lambda: hook(layer, x)),
            _run(lambda: _old_vote(layer, split, split.fire)(x)),
        )
        assert hw["counters"]["hw/layer3/active_rows"] > 0

    def test_final_layer_vote_compute(self, rng, kind):
        layer, shape = _layer(kind, rng)
        x = _bits(rng, shape)
        split = _split(layer, rng)
        hook = final_layer_vote_compute(layer, split, obs_index=3)
        hw = _assert_same(
            _run(lambda: hook(layer, x)),
            _run(lambda: _old_vote(layer, split, split.fired_counts)(x)),
        )
        assert hw["counters"]["hw/layer3/active_rows"] > 0

    @pytest.mark.parametrize("calibrated", [True, False])
    def test_adc_layer_kernel(self, rng, kind, calibrated):
        layer, shape = _layer(kind, rng)
        x = rng.random(shape)
        calibration = rng.random(shape) * 0.5 if calibrated else None
        device = RRAMDevice(bits=4)
        _assert_same(
            _run(lambda: _new_adc(layer, device, calibration)(x)),
            _run(lambda: _old_adc(layer, device, calibration)(x)),
        )
