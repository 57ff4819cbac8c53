"""The ``packed`` engine: integer arithmetic for SEI crossbars.

After 1-bit quantization every SEI operand is a selection mask, and a
column current is exactly "sum of the weights on active rows" (Equ. 6).
Without programming variation a programmed SEI crossbar represents
``unit * N`` for an integer matrix ``N`` (4-bit nibbles merged by the
+-16/+-1 extra-port coefficients; stuck cells land on nibble 0 or 15
and keep integrality, and IR drop is a scalar folded into ``unit``).

Estimator off, every layer runs the certified integer GEMM of
:mod:`repro.core.integer_gemm`, shared with the fused engine: the
planned rows stay uint8 (1 byte per activation instead of 8) and are
widened to float32 in cache-sized chunks, where float32 GEMM is exact
integer arithmetic.  Thresholded layers decide against the certified
firing tables and emit uint8 selection planes; the final analog merge
scales each block's exact accumulator by its ``unit``.  These kernels
differ from the fused engine's only in the uint8 planes.

Under the runtime activation estimator a thresholded layer keeps this
kernel and adds the shared skip accounting pass
(:class:`repro.core.estimate.SkipPass`), as the fused engine does; in
threshold mode (packed only) the pass supplies the layer's outputs.

The engine shares the SEI lowering path of
:func:`repro.core.hardware_network.lower_sei_network`: the crossbars are
programmed once (identical RNG stream, identical cells) and each layer
record is lowered to the integer kernel only where it certifies.  Other
layers (programming variation, per-read noise, an uncertified firing
table) get the fused engine's kernel, so noise lands exactly as on the
fused engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.estimate import EstimatorPolicy
from repro.core.hardware_network import (
    certified_dac,
    certified_split,
    certified_unsplit,
    grid_unit,
    lower_fused,
    lower_sei_network,
    skip_binary_relus,
)
from repro.core.integer_gemm import (
    accumulate,
    byte_lanes,
    certify,
    integer_layer,
)
from repro.core.matrix_compute import (
    LayerKernel,
    RowPlan,
    Scratch,
    Tally,
    binary_inputs,
    ensure_binary,
    layer_bias,
)
from repro.core.sei import layer_meter

__all__ = ["assemble_packed_network"]


# -- layer lowerings -----------------------------------------------------------


def lower_packed(record: dict, estimator: EstimatorPolicy) -> LayerKernel:
    """The packed engine's kernel for one weighted-layer record.

    A record whose crossbars do not certify gets the fused engine's
    estimator-off kernel instead, so noisy layers compute exactly as on
    the fused engine.
    """
    kernel = _PACKED[record["kind"]](record, estimator)
    if kernel is None:
        kernel = lower_fused(record, EstimatorPolicy())
    return kernel


def _merge_kernel(
    crossbars, blocks, rows: int, layer: Layer, what: str
) -> Optional[LayerKernel]:
    """Block currents summed in analog before one shared SA bank.

    The final classifier's analog merge; an unsplit layer without a
    threshold is its one-block case.  SA comparisons do not scale with
    the block count and no digital vote runs.  The integer GEMM gives
    each block's exact accumulator, scaled by its ``unit`` in float64.
    """
    height = max(len(block) for block in blocks)
    layout = np.full((len(blocks), height), rows, dtype=np.intp)
    for k, block in enumerate(blocks):
        layout[k, : len(block)] = block
    certified = certify(
        [xbar.array for xbar in crossbars],
        lambda: integer_layer(
            [xbar.fused_matrix for xbar in crossbars],
            [grid_unit(xbar) for xbar in crossbars],
            height,
        ),
    )
    if certified is None:
        return None
    cols = crossbars[0].cols
    lanes = len(blocks) * byte_lanes(height)
    scratch = Scratch()

    def run(bits: np.ndarray):
        n = bits.shape[0]
        out = np.zeros((n, cols))
        integer = certified.get()
        if integer is None:
            # Re-programmed off the grid: the blocks' float64 cells.
            for k, xbar in enumerate(crossbars):
                out += bits[:, k, : len(blocks[k])] @ xbar.fused_matrix
        else:
            units = integer.units

            def emit(acc, start, stop):
                part = out[start:stop]
                np.multiply(acc[0], units[0], out=part, dtype=np.float64)
                term = scratch.get("merge_term", part.shape, np.float64)
                for k in range(1, len(acc)):
                    np.multiply(acc[k], units[k], out=term, dtype=np.float64)
                    part += term

            accumulate(bits, integer.weights, scratch, emit)
        return out, Tally(
            lambda: bits.reshape(n, -1).sum(axis=1, dtype=np.int64),
            sa_events=n * cols,
            popcount_events=n * lanes,
        )

    return LayerKernel(
        run,
        RowPlan(layout, dtype=np.uint8),
        binary_inputs(what),
        layer_meter(crossbars, rows, len(blocks), digital_merge=False),
        arrays=[xbar.array for xbar in crossbars],
        bias=layer_bias(layer),
        scratch=scratch,
    )


def _packed_dac(record: dict, estimator: EstimatorPolicy):
    """The DAC-driven input layer (§3.2) on integer DAC codes: the
    shared certified kernel, emitting the uint8 selection plane."""
    return certified_dac(record, plane=True)


def _packed_unsplit(record: dict, estimator: EstimatorPolicy):
    """An unsplit SEI layer on the packed engine.

    Without a threshold this is the one-block case of the analog merge
    (:func:`_merge_kernel`); with one, the shared certified kernel
    emits the uint8 plane, with the skip accounting pass under an
    enabled ``estimator``.
    """
    xbar = record["crossbar"]
    rows = xbar.logical_rows
    if record["threshold"] is None:
        return _merge_kernel(
            [xbar], [np.arange(rows)], rows, record["layer"], "SEI inputs"
        )
    return certified_unsplit(
        record, plane=True, dtype=np.uint8, lanes=True, estimator=estimator
    )


def _packed_split(record: dict, estimator: EstimatorPolicy):
    """A hidden split layer (§4.3 digital vote) on the packed engine:
    the shared certified kernel
    (:func:`repro.core.hardware_network.certified_split`) on uint8 rows,
    emitting the uint8 vote plane, with the skip accounting pass under
    an enabled ``estimator``."""
    return certified_split(
        record, plane=True, dtype=np.uint8, lanes=True, estimator=estimator
    )


def _packed_analog_merge(record: dict, estimator: EstimatorPolicy):
    """The final analog-merged classifier layer on the integer GEMM."""
    partition = record["partition"]
    return _merge_kernel(
        record["crossbars"], partition.blocks(), partition.num_rows,
        record["layer"], "analog-merge inputs",
    )


#: Each kind's packed lowering; ``None`` when its integer form does not
#: apply.
_PACKED: Dict[str, Callable[..., Optional[LayerKernel]]] = {
    "dac": _packed_dac,
    "unsplit": _packed_unsplit,
    "split": _packed_split,
    "analog_merge": _packed_analog_merge,
}


def packed_pool_compute(trusted: bool = False):
    """OR-pooling on uint8 bit maps (max of 0/1 data is logical OR).

    Pooling a binarized feature map compares 0/1 values, so the window
    maximum runs on uint8 (8x less data through the cache than the
    float64 default).  Non-binary inputs (a pool that is not fed by a
    thresholded layer) fall back to the standard float path untouched.
    ``trusted`` skips the 0/1 validation scan when the assembly proved
    structurally that every upstream path binarizes first — and keeps
    the pooled plane uint8, since every packed (and fused) consumer
    accepts 0/1 planes of either dtype.
    """

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        if x.dtype != np.uint8:
            if not trusted:
                try:
                    ensure_binary(x, "pool inputs")
                except ShapeError:
                    return F.maxpool2d_forward(x, layer.pool, layer.stride)
            x = x.astype(np.uint8)
        pooled = F.maxpool2d_forward(x, layer.pool, layer.stride)
        if trusted:
            return pooled
        return pooled.astype(np.float64)

    return compute


# -- assembly ------------------------------------------------------------------


def assemble_packed_network(
    network: Sequential,
    thresholds: Dict[int, float],
    config=None,
    decisions=None,
    partitions=None,
    rng: Optional[np.random.Generator] = None,
    engine=None,
) -> BinarizedNetwork:
    """Build a BinarizedNetwork on the packed integer engine.

    The crossbars are programmed on the same RNG stream as the fused
    engine's (identical programmed cells, identical per-read noise
    draws); every layer whose crossbars sit on the integer nibble grid
    is lowered to the packed integer kernel, and every other layer
    (programming variation, per-read noise) to the fused kernel, so the
    engine is exact in every noise regime and fast exactly where the
    packed formulation applies.
    """
    # Local import: repro.core.engines registers this module's builder,
    # so the top-level dependency can only point one way.
    from repro.core.engines import resolve_engine

    spec = resolve_engine(
        engine,
        hardware=config,
        allowed=("packed",),
        caller="assemble_packed_network",
    )
    temporal = spec.hardware.temporal
    if temporal is not None and temporal.enabled:
        raise ConfigurationError(
            "the packed engine captures its integer partial-sum tables "
            "from the cells at assemble time; temporal aging requires "
            "the fused or reference engine"
        )
    binarized = lower_sei_network(
        network,
        thresholds,
        spec,
        lower_packed,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
    )
    skip_binary_relus(binarized)

    # Pooling on 0/1 maps is the §3.1 logical OR: run it on uint8.  A
    # pool is "trusted" (no 0/1 validation scan) when the most recent
    # weighted layer upstream is thresholded — binarize() then wrote
    # exact 0.0/1.0, and ReLU/pool/flatten preserve that.
    binary = False
    for index, layer in enumerate(network.layers):
        if isinstance(layer, MaxPool2D):
            binarized.layer_computes[index] = packed_pool_compute(
                trusted=binary
            )
        elif isinstance(layer, (Conv2D, Dense)):
            binary = index in thresholds
    return binarized


def _build_packed(
    network: Sequential,
    thresholds: Dict[int, float],
    spec,
    *,
    decisions=None,
    partitions=None,
    calibration_images=None,
    rng=None,
) -> BinarizedNetwork:
    return assemble_packed_network(
        network,
        thresholds,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
        engine=spec,
    )
