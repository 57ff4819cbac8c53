"""The certified integer GEMM of the fused engine.

A layer on integral crossbars computes exact integer accumulators with
float32 GEMM and decides against firing tables certified to give the
float64 kernel's decision for every reachable accumulator.  These tests
pin the tables against that kernel over every subset of a small block,
check that an uncertifiable layer (an exact tie) and aging cells are
decided by the firing kernel's float64 fallback, that re-programmed
cells are re-certified, and that fused keeps the float64 decision at a
tie.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.estimate import EstimatorPolicy
from repro.core.engines import EngineSpec, compile_network
from repro.core.hardware_network import (
    HardwareConfig,
    HardwareSplitMatrix,
    certify_split,
    grid_unit,
    lower_fused,
)
from repro.core.homogenize import natural_partition
from repro.core.integer_gemm import integer_layer, integer_matrix
from repro.core.matrix_compute import RowPlan, Scratch, layer_compute
from repro.core.splitting import SplitDecision, vote_kernel
from repro.hw.array import TemporalConfig
from repro.hw.device import RRAMDevice
from repro.nn.layers import Dense

ROWS, COLS = 8, 3
#: Every subset of the 8 rows: all reachable accumulators of each block.
SUBSETS = ((np.arange(2**ROWS)[:, None] >> np.arange(ROWS)) & 1).astype(
    np.float64
)


def _split(weights, decision, device=RRAMDevice(bits=4), bias=None):
    """An 8-row matrix on two 4-row SEI blocks (16-row crossbars)."""
    config = HardwareConfig(device=device, max_crossbar_size=16)
    return HardwareSplitMatrix(
        weights, natural_partition(ROWS, 2), decision, config,
        bias=bias, rng=np.random.default_rng(0),
    )


def _record(split, threshold=0.5):
    layer = Dense(ROWS, COLS, rng=np.random.default_rng(0))
    return {"kind": "split", "matrix": split, "threshold": threshold,
            "layer": layer}


def _run(kernel, record, bits=SUBSETS):
    return layer_compute(None, kernel)(record["layer"], bits)


def _ran_integer_gemm(kernel) -> bool:
    """Whether the kernel's integer GEMM has run on this thread (it
    allocates its accumulators in the kernel's scratch)."""
    return "gemm_acc" in getattr(kernel.scratch._local, "bufs", {})


def _float_fired(split, bits=SUBSETS):
    """The float64 kernel's per-block decisions, ``(n, K, cols)``."""
    ones = np.stack(
        [bits[:, block].sum(axis=1) for block in split.blocks], axis=1
    )
    limits = split.decision.thresholds_for(ones)[:, :, None]
    return split.block_sums(bits) > limits


@settings(max_examples=25, deadline=None)
@given(
    seed=st.integers(0, 2**16),
    threshold=st.floats(-0.5, 1.5),
    slope=st.sampled_from([0.0, 0.013, -0.021]),
    with_bias=st.booleans(),
)
def test_tables_give_the_float64_decision(
    derived_rng, seed, threshold, slope, with_bias
):
    """Certified tables decide every reachable accumulator (every subset
    of a block's rows) as the float64 kernel does."""
    rng = derived_rng(seed)
    bias = rng.normal(scale=0.2, size=COLS) if with_bias else None
    device = RRAMDevice(bits=4, stuck_low_rate=0.1, stuck_high_rate=0.1)
    split = _split(
        rng.normal(size=(ROWS, COLS)),
        SplitDecision(threshold, ones_slope=slope),
        device=device, bias=bias,
    )
    certified = certify_split(split)
    if certified is None:
        return
    layer = certified.get()
    expected = _float_fired(split)
    for k, block in enumerate(split.blocks):
        crossbar = split._block_crossbars[k]
        ints = integer_matrix(crossbar.fused_matrix, grid_unit(crossbar))
        acc = SUBSETS[:, block] @ ints
        ones = SUBSETS[:, block].sum(axis=1).astype(np.intp)
        fired = acc >= layer.tables[k][ones]
        np.testing.assert_array_equal(fired, expected[:, k])


def test_exact_tie_is_uncertified_and_lowers_to_float64():
    """A threshold on an exact accumulator boundary cannot be certified:
    the firing kernel decides the layer in its float64 fallback."""
    split = _split(
        np.random.default_rng(1).normal(size=(ROWS, COLS)), SplitDecision(0.3)
    )
    crossbar = split._block_crossbars[0]
    unit = grid_unit(crossbar)
    ints = integer_matrix(crossbar.fused_matrix, unit)
    tie = unit * float(ints[:, 0].clip(min=0).sum())
    assert integer_layer(
        [crossbar.fused_matrix], [unit], 4, [[tie]]
    ) is None
    tied = _split(split.weights, SplitDecision(tie))
    record = _record(tied)
    assert certify_split(tied) is None
    kernel = lower_fused(record, EstimatorPolicy())
    out = _run(kernel, record)
    assert not _ran_integer_gemm(kernel)
    assert kernel.prebinarized and out.dtype == np.uint8
    np.testing.assert_array_equal(out, _float_fired(tied).any(axis=1))


def _find_tie():
    """A block threshold where the exact integer rule ``acc >=
    floor(q) + 1`` and the float64 kernel disagree on some subset of one
    block's rows (the other block stays silent)."""
    for seed in range(200):
        weights = np.random.default_rng(seed).normal(size=(ROWS, COLS))
        split = _split(weights, SplitDecision(1.0))
        sums = split.block_sums(SUBSETS)
        for k, block in enumerate(split.blocks):
            own = SUBSETS[:, block].sum(axis=1) == SUBSETS.sum(axis=1)
            crossbar = split._block_crossbars[k]
            unit = grid_unit(crossbar)
            ints = integer_matrix(crossbar.fused_matrix, unit)
            acc = SUBSETS[own][:, block] @ ints
            values = sums[own, k]
            for limit in (values, np.nextafter(values, -np.inf)):
                exact = acc >= np.floor(limit / unit) + 1
                differ = ((values > limit) != exact) & (limit > 0)
                if differ.any():
                    return weights, float(limit[differ][0])
    raise AssertionError("no tie found")


def test_fused_decides_an_exact_tie_in_float64():
    """At a tie the float64 ``>`` and ``floor(q) + 1`` round apart; the
    layer is uncertified, so fused keeps the float64 fallback's decision.
    (The reference oracle sums slice by slice and may round a tie
    either way, so the float64 block sums are the check here.)"""
    weights, limit = _find_tie()
    split = _split(weights, SplitDecision(limit))
    record = _record(split)
    assert certify_split(split) is None
    kernel = lower_fused(record, EstimatorPolicy())
    out = _run(kernel, record)
    assert not _ran_integer_gemm(kernel)
    np.testing.assert_array_equal(out, _float_fired(split).any(axis=1))


def _reprogram(array, grid: bool) -> None:
    """Re-program a static array on the nibble grid (every cell of its
    first slice to the top level) or off it."""
    if grid:
        conductance = array.conductance.copy()
        conductance[0] = array.device.g_max
    else:
        conductance = array.conductance * 1.013
    array.apply_conductance(conductance)


@pytest.mark.parametrize("grid", [True, False], ids=["on-grid", "off-grid"])
def test_reprogrammed_block_matches_float64_kernel(grid):
    """``apply_conductance`` on a compiled static block array: the next
    call re-certifies (or falls back) and equals the float64 kernel on
    the mutated cells."""
    rng = np.random.default_rng(5)
    split = _split(rng.normal(size=(ROWS, COLS)), SplitDecision(0.21))
    record = _record(split)
    kernel = lower_fused(record, EstimatorPolicy())
    compute = layer_compute(None, kernel)
    bits = SUBSETS
    compute(record["layer"], bits)
    assert _ran_integer_gemm(kernel)
    _reprogram(split.block_arrays[1], grid)
    assert (certify_split(split) is not None) == grid
    scratch = Scratch()
    counts, _ = vote_kernel(split, scratch)(
        RowPlan(split._gather).gather(record["layer"], bits, scratch)
    )
    np.testing.assert_array_equal(
        compute(record["layer"], bits), (counts >= 1).astype(np.float64)
    )


@pytest.mark.parametrize("grid", [True, False], ids=["on-grid", "off-grid"])
def test_reprogrammed_packed_merge_follows_the_cells(
    grid, tiny_quantized, tiny_dataset
):
    """The analog merge of the packed alias follows a re-programmed block
    (on or off the grid) and still matches the reference oracle."""
    images = tiny_dataset["test_x"][:16]
    config = HardwareConfig(device=RRAMDevice(bits=4), max_crossbar_size=128)
    logits = {}
    for engine in ("packed", "reference"):
        net = compile_network(
            tiny_quantized.network, tiny_quantized.thresholds,
            EngineSpec(name=engine, hardware=config),
        )
        final = max(net.hardware_layers)
        assert net.hardware_layers[final]["kind"] == "analog_merge"
        before = net.predict(images)
        _reprogram(net.device_arrays[f"layer{final}/block0"], grid)
        logits[engine] = net.predict(images)
        assert not np.array_equal(logits[engine], before)
    np.testing.assert_allclose(
        logits["packed"], logits["reference"], rtol=1e-9, atol=1e-12
    )


def test_temporal_cells_keep_float64(tiny_quantized, tiny_dataset):
    """Aging arrays never take the integer kernel: every thresholded
    layer is decided by its firing kernel's float64 fallback and still
    emits the layer's uint8 0/1 plane."""
    config = HardwareConfig(
        device=RRAMDevice(bits=4), max_crossbar_size=128,
        temporal=TemporalConfig(drift_nu=0.01),
    )
    compiled = compile_network(
        tiny_quantized.network, tiny_quantized.thresholds,
        EngineSpec(name="fused", hardware=config),
    )
    x = compiled._quantize_input(tiny_dataset["test_x"][:8])
    kinds = set()
    for index, layer in enumerate(compiled.network.layers):
        record = compiled.hardware_layers.get(index)
        if record is not None and record["threshold"] is not None:
            kinds.add(record["kind"])
            kernel = lower_fused(record, EstimatorPolicy())
            out = layer_compute(None, kernel)(layer, x)
            assert not _ran_integer_gemm(kernel)
            assert kernel.prebinarized and out.dtype == np.uint8
        x = compiled.run_layer(index, x)
    assert {"dac", "split"} <= kinds
    assert compiled.prebinarized == set(compiled.thresholds)
