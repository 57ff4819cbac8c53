"""Exact integer GEMM on integral crossbars, decided by certified tables.

After 1-bit quantization an SEI column current is a masked sum of
integer-quantized weights (Equ. 6).  Without programming variation or
read noise a programmed crossbar represents ``unit · N`` for an integer
matrix ``N``: 4-bit nibbles merged by the ±16/±1 extra-port
coefficients (stuck cells land on nibble 0 or 15 and stay on the grid),
with IR drop a scalar folded into ``unit``.  The accumulators
``acc = x · N`` of 0/1 selection bits, or of the DAC layer's integer
codes, then come out of float32 GEMM exactly: float32 is exact integer
arithmetic while every partial sum stays below 2**24
(:data:`F32_EXACT`), whatever order BLAS sums in.

The float64 kernels decide ``fl(x · m) + b > T`` on the programmed
cells ``m``.  A **certified firing table** gives that decision for
every reachable accumulator.  The float64 result lies within a
worst-case error ``E`` of ``s·acc + b`` (``s = unit / max_input``): the
cell residual ``Σ|m − unit·N|``, the dot product's ``γ_R·Σ|m|``, the
bias add and, on the DAC layer, the rounding of the drive levels.  An
entry is certified when no reachable integer lies within ``E/s`` (plus
the rounding of ``q`` itself) of the boundary ``q = (T − b)/s``; then
``fire ⇔ acc ≥ floor(q) + 1``.  A layer with any uncertified entry, an
accumulator bound of 2**24 or more, or cells off the integer grid is
not integral here and is decided by the float64 kernel.

Every thresholded layer of the fused engine runs :func:`firing_kernel`
on uint8 row and output planes: on these operands and tables
(:func:`accumulate`) when they certify, on the layer's float64
``fallback`` when they do not.  The runtime estimator's accounting pass
(:class:`repro.core.estimate.SkipPass`) runs on the certified operands;
the per-layer builders are in :mod:`repro.core.hardware_network`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from repro.hw.array import PerGeneration

from repro.core.estimate import vote_reads
from repro.core.matrix_compute import Scratch, Tally

__all__ = [
    "INT_RESIDUAL_TOL",
    "F32_EXACT",
    "IntegerLayer",
    "certify",
    "integer_matrix",
    "integer_layer",
    "accumulate",
    "firing_kernel",
]

#: Integrality tolerance: ``|m/unit − rint(m/unit)|`` above this means
#: the cells do not sit on the integer nibble grid (programming
#: variation) and the layer stays on the float64 path.
INT_RESIDUAL_TOL = 1e-6

#: float32 represents every integer of magnitude up to 2**24 exactly.
F32_EXACT = 2.0**24

#: Unit roundoff of float64.
_U = 2.0**-53

#: Bytes of float32 planned rows per GEMM chunk: the widened rows and
#: their accumulators stay cache-resident between the GEMM and the
#: decision pass.
_CHUNK_BYTES = 1 << 20


def integer_matrix(matrix: Optional[np.ndarray], unit: float):
    """The int64 ``N`` with ``matrix ≈ unit · N``, or None off the grid.

    ``matrix`` is None for crossbars with per-read noise (no static
    matrix exists).
    """
    if matrix is None or not (unit > 0 and np.isfinite(unit)):
        return None
    quotient = matrix / unit
    ints = np.rint(quotient)
    if np.abs(quotient - ints).max(initial=0.0) > INT_RESIDUAL_TOL:
        return None
    return ints.astype(np.int64)


def _firing_table(matrix, unit, ints, thresholds, bias, height, max_input,
                  level_error):
    """One block's minimal firing accumulators, ``(len(thresholds), cols)``
    float64, or None when an entry is uncertified."""
    step = unit / max_input
    gamma = height * _U / (1.0 - height * _U)
    absolute = np.abs(matrix).sum(axis=0)
    residual = np.abs(matrix - unit * ints).sum(axis=0)
    # Worst-case |float64 result − (step·acc + b)| per column: cell
    # residual, dot-product rounding, drive-level rounding, the bias add.
    error = (
        residual
        + (gamma + level_error + 3.0 * _U) * absolute
        + _U * np.abs(bias)
    )
    lo = np.minimum(ints, 0).sum(axis=0) * max_input
    hi = np.maximum(ints, 0).sum(axis=0) * max_input
    limit = np.asarray(thresholds, dtype=np.float64)[:, None]
    q = (limit - bias) / step
    # Twice the bound, with the rounding of q itself: a certified entry
    # has no reachable integer accumulator within ``margin`` of q.
    margin = 2.0 * (
        error / step
        + 4.0 * _U * (np.abs(q) + (np.abs(limit) + np.abs(bias)) / step)
    )
    nearest_lo = np.maximum(np.ceil(q - margin), lo)
    nearest_hi = np.minimum(np.floor(q + margin), hi)
    if (nearest_lo <= nearest_hi).any():
        return None
    return np.clip(np.floor(q) + 1.0, lo, hi + 1)


@dataclass
class IntegerLayer:
    """K integral crossbar blocks as float32 GEMM operands.

    ``weights`` is ``(K, H, cols)`` float32 integers, with one extra
    all-ones column per block when the firing tables vary with the
    block's active-row count (the GEMM then counts the active rows
    itself).  ``tables`` is ``(K, n_t, cols)`` float32 minimal firing
    accumulators indexed by active-row count, and ``static`` marks
    tables that do not vary with it.
    """

    weights: np.ndarray
    units: np.ndarray
    cols: int
    tables: np.ndarray
    static: bool = True
    _tiled: Optional[np.ndarray] = field(default=None, repr=False)

    def tiled(self, size: int) -> np.ndarray:
        """Static tables repeated over at least ``size`` flat entries,
        ``(K, ≥ size)``: a chunk's decision is then one flat comparison
        rather than a broadcast along narrow rows.  Grows on demand."""
        tiled = self._tiled
        if tiled is None or tiled.shape[1] < size:
            tiled = np.tile(self.tables[:, 0], (1, -(-size // self.cols)))
            self._tiled = tiled
        return tiled


def integer_layer(
    matrices: Sequence[np.ndarray],
    units: Sequence[float],
    height: int,
    thresholds: Sequence[np.ndarray],
    bias: Optional[np.ndarray] = None,
    max_input: int = 1,
    level_error: float = 0.0,
) -> Optional[IntegerLayer]:
    """The integer GEMM operands of K crossbar blocks, or None.

    ``matrices``/``units`` are the blocks' float64 cells and grid units;
    ``height`` is the float64 kernel's dot-product length (the padded
    block height).  ``thresholds`` gives, per block, the float64
    threshold for each active-row count ``0..len(block)``; with the
    ``bias`` the float64 kernel adds, every table entry must certify.
    ``max_input`` is the largest integer input (1 for selection bits,
    the DAC's step count for codes) and ``level_error`` the relative
    rounding of the float64 kernel's drive levels.  Returns None when a
    block is off the grid, an accumulator could reach 2**24, or an entry
    is uncertified.
    """
    ints = []
    for matrix, unit in zip(matrices, units):
        block = integer_matrix(matrix, unit)
        if block is None or (
            np.abs(block).sum(axis=0).max(initial=0) * max_input >= F32_EXACT
        ):
            return None
        ints.append(block)
    cols = ints[0].shape[1]
    bias = np.zeros(cols) if bias is None else np.asarray(bias, np.float64)
    rows = []
    for matrix, unit, block, limits in zip(matrices, units, ints, thresholds):
        table = _firing_table(
            matrix, unit, block, limits, bias, height, max_input, level_error
        )
        if table is None:
            return None
        rows.append(table)
    # Blocks shorter than the longest repeat their last row: those
    # active-row counts are unreachable.
    depth = max(len(table) for table in rows)
    tables = np.stack(
        [np.pad(t, ((0, depth - len(t)), (0, 0)), "edge") for t in rows]
    ).astype(np.float32)
    static = bool((tables == tables[:, :1]).all())
    weights = np.zeros((len(ints), height, cols + (not static)), np.float32)
    for k, block in enumerate(ints):
        weights[k, : len(block), :cols] = block
        weights[k, : len(block), cols:] = 1.0
    return IntegerLayer(
        weights, np.asarray(units, np.float64), cols, tables, static
    )


def certify(
    arrays, build: Callable[[], Optional[IntegerLayer]]
) -> Optional[PerGeneration]:
    """A layer's certified operands, rebuilt per array generation, or
    None when its cells age (temporal arrays) or do not certify at
    compile time.

    ``build`` returns the layer's :class:`IntegerLayer`, or None when
    the operands do not certify; a static array that is re-programmed is
    re-certified on the next ``get()``, like ``SEIMatrix.fused_matrix``.
    """
    if any(array.temporal for array in arrays):
        return None
    certified = PerGeneration(arrays, build)
    return None if certified.get() is None else certified


def accumulate(
    rows: np.ndarray,
    weights: np.ndarray,
    scratch: Scratch,
    emit: Callable[[np.ndarray, int, int], None],
) -> None:
    """Integer accumulators of planned ``(n, K, H)`` rows, chunkwise.

    Rows of any dtype are widened to float32 one cache-sized chunk at a
    time (float32 rows are used in place); the K block GEMMs write the
    ``(K, m, cols)`` accumulators of each chunk, and ``emit(acc, start,
    stop)`` consumes them while they are cache-hot.  The accumulator is
    scratch, overwritten by the next chunk.
    """
    n = rows.shape[0]
    blocks, height, cols = weights.shape
    chunk = max(1, min(n, _CHUNK_BYTES // (4 * blocks * height)))
    widen = rows.dtype != np.float32
    if widen:
        buf = scratch.get("gemm_rows", (chunk, blocks, height), np.float32)
    acc = scratch.get("gemm_acc", (blocks, chunk, cols), np.float32)
    for start in range(0, n, chunk):
        stop = min(n, start + chunk)
        m = stop - start
        operand = rows[start:stop]
        if widen:
            np.copyto(buf[:m], operand, casting="unsafe")
            operand = buf[:m]
        for k in range(blocks):
            np.matmul(operand[:, k], weights[k], out=acc[k, :m])
        emit(acc[:, :m], start, stop)


def firing_kernel(
    certified: Optional[PerGeneration],
    fallback: Callable[[np.ndarray], np.ndarray],
    scratch: Scratch,
    active: Callable[[np.ndarray], object],
    vote: Optional[int] = None,
    skip=None,
):
    """The one kernel of a thresholded layer of the fused engine.

    ``run`` maps planned ``(n, K, H)`` (or ``(n, rows)`` for one block)
    rows to fresh uint8 ``(n, cols)`` fired-block counts — with a
    ``vote``, to the 0/1 plane ``counts >= vote`` — and a
    :class:`Tally` whose active counts come from ``active(rows)``.  One
    block's counts are its 0/1 plane.  ``certified`` (from
    :func:`certify`) gives the integer operands; without them (cells
    that age or never certify, ``None``), or when the layer's arrays
    were re-programmed and no longer certify, ``fallback(rows)`` gives
    the float64 kernel's counts instead.

    ``skip`` is the estimated layer's
    :class:`repro.core.estimate.SkipPass`, run on certified operands
    only.  In exact mode the kernel keeps each block's decisions for the
    vote-settled reads and hands the recorder the pass as a callable; in
    threshold mode the pass runs on every call and supplies the counts.
    """

    def run(rows: np.ndarray):
        n = rows.shape[0]
        layer = None if certified is None else certified.get()
        reads = account = None
        if layer is None:
            counts = fallback(rows)
        else:
            planned = rows.reshape(n, layer.weights.shape[0], -1)
            if skip is not None and not skip.exact:
                counts, stats, sa_events, reads = skip(layer, planned)
                account = lambda: (stats, sa_events)  # noqa: E731
            else:
                counts = np.empty((n, layer.cols), np.uint8)
                fired = None if skip is None else scratch.get(
                    "gemm_blocks", (len(layer.weights), n, layer.cols),
                    np.uint8,
                )
                _fire(layer, planned, counts, scratch, fired)
                if skip is not None:
                    reads = vote_reads(fired, skip.vote)
                    account = lambda: skip(layer, planned)[1:3]  # noqa: E731
        if vote is not None:
            np.greater_equal(counts, vote, out=counts)
        return counts, Tally(active(rows), skip=account, reads=reads)

    return run


def _fire(layer: IntegerLayer, rows, counts, scratch, blocks=None) -> None:
    """Fired-block counts of planned rows into ``counts``, and each
    block's decisions into ``blocks`` (``(K, n, cols)``) when given."""
    cols = layer.cols

    def emit(acc, start, stop):
        out = counts[start:stop]
        hit = scratch.get("gemm_fired", out.shape, np.bool_)
        tiled = layer.tiled(out.size) if layer.static else None
        for k in range(len(acc)):
            if layer.static:
                # Flat views: one long comparison per block.
                fired = np.greater_equal(
                    acc[k].reshape(-1), tiled[k, : out.size],
                    out=(out if k == 0 else hit).reshape(-1),
                )
            else:
                # The extra GEMM column holds the block's active rows.
                limit = np.take(
                    layer.tables[k], acc[k, :, cols].astype(np.intp), axis=0
                )
                fired = np.greater_equal(
                    acc[k, :, :cols], limit, out=out if k == 0 else hit
                )
            if blocks is not None:
                blocks[k, start:stop] = fired.reshape(out.shape)
            if k:
                out += fired.reshape(out.shape)

    accumulate(rows, layer.weights, scratch, emit)
