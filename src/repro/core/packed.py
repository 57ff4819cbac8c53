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

With the runtime activation estimator the engine packs the planned bits
into byte lanes (:meth:`PackedMatrix.pack`) and accumulates per-group
partial-sum tables, so a column can retire mid-block
(:class:`repro.core.estimate.PackedSuffixBounds`).  The tables are built
by shared-prefix grouping (:func:`build_group_tables`): patterns ``p``
and ``p ^ lsb(p)`` share every row above the lowest set bit, so each
entry is one vector add off an already-built prefix.  Active-row counts
come from popcounting the packed planes (:func:`repro._compat.popcount`
— ``np.bitwise_count`` or its LUT fallback).

The engine shares the SEI lowering path of
:func:`repro.core.hardware_network.lower_sei_network`: the crossbars are
programmed once (identical RNG stream, identical cells) and each layer
record is lowered to the integer kernel only where it certifies.  Other
layers (programming variation, per-read noise, an uncertified firing
table) get the fused engine's kernel, so noise lands exactly as on the
fused engine.
"""

from __future__ import annotations

from typing import Callable, Dict, Optional, Sequence

import numpy as np

from repro._compat import popcount
from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.estimate import (
    EstimatorPolicy,
    PackedSuffixBounds,
    SkipStats,
    packed_fire_band,
)
from repro.core.hardware_network import (
    certified_dac,
    certified_split,
    certified_unsplit,
    certify_split,
    certify_unsplit,
    folds_threshold,
    grid_unit,
    lower_fused,
    lower_sei_network,
    skip_binary_relus,
    split_layer_kernel,
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

__all__ = [
    "build_group_tables",
    "PackedMatrix",
    "assemble_packed_network",
]

#: Rows per packed group: one byte lane of the packed activation plane.
GROUP_ROWS = 8


# -- precomputed row-weight partial sums ---------------------------------------


def build_group_tables(rows: np.ndarray) -> np.ndarray:
    """Per-group partial-sum tables for integer weight rows.

    ``rows`` is ``(R, cols)`` integer weight rows with ``R`` a multiple
    of 8.  Returns ``(R/8, 256, cols)`` where entry ``[g, p]`` is the
    column sum of group ``g``'s rows selected by byte pattern ``p``
    (bit ``7-j`` selects row ``8*g + j``, matching ``np.packbits``).

    Construction is by shared-prefix grouping: enumerating patterns in
    ascending bit order, ``p`` and ``p ^ lsb(p)`` agree on every row
    above the lowest set bit, so each entry is exactly one vector add
    on top of an already-built shared prefix::

        T[g, p] = T[g, p ^ lsb(p)] + rows[8*g + bit_row(lsb(p))]

    The dtype is int16 when every possible group sum fits (true for
    8-bit weights on 4-bit cells, |row| <= 255), else int32.
    """
    rows = np.asarray(rows)
    if rows.ndim != 2:
        raise ShapeError(f"expected (rows, cols), got {rows.shape}")
    if rows.shape[0] % GROUP_ROWS != 0:
        raise ShapeError(
            f"row count {rows.shape[0]} is not a multiple of {GROUP_ROWS}; "
            "pad the block layout first"
        )
    if not np.issubdtype(rows.dtype, np.integer):
        raise ConfigurationError(
            f"group tables need integer rows, got dtype {rows.dtype}"
        )
    groups = rows.shape[0] // GROUP_ROWS
    worst = int(
        np.abs(rows.astype(np.int64))
        .reshape(groups, GROUP_ROWS, rows.shape[1])
        .sum(axis=1)
        .max(initial=0)
    )
    dtype = np.int16 if worst <= np.iinfo(np.int16).max else np.int32
    tables = np.zeros((groups, 256, rows.shape[1]), dtype=dtype)
    for g in range(groups):
        group_rows = rows[g * GROUP_ROWS : (g + 1) * GROUP_ROWS]
        for j in range(GROUP_ROWS - 1, -1, -1):
            bit = 1 << (GROUP_ROWS - 1 - j)
            # Patterns [bit, 2*bit) extend the fully-built shared
            # prefixes [0, bit) by exactly row j.
            tables[g, bit : 2 * bit] = tables[g, :bit] + group_rows[j].astype(
                dtype
            )
    return tables


# -- the packed crossbar kernel ------------------------------------------------


class PackedMatrix:
    """One logical SEI matrix on the packed group tables (estimator only).

    Compiled once per crossbar (group) at assemble time from the fused
    block matrices ``unit_k * N_k``; evaluates masked row-sums of all
    blocks for a batch of packed positions in integer arithmetic, one
    byte-lane table gather at a time — the order the estimator's suffix
    bounds retire columns in.

    Parameters
    ----------
    block_matrices:
        Per-block collapsed float matrices (``SEIMatrix.fused_matrix`` —
        scale and IR drop included).
    block_units:
        Per-block ``unit`` such that ``block_matrices[k] == unit_k * N_k``
        for integer ``N_k``.
    blocks:
        Per-block logical-row index lists (the partition; word-line
        order of each block's crossbar).
    rows:
        Logical row count of the unsplit matrix.
    """

    def __init__(
        self,
        block_matrices: Sequence[np.ndarray],
        block_units: Sequence[float],
        blocks: Sequence[np.ndarray],
        rows: int,
    ) -> None:
        if len(block_matrices) != len(blocks):
            raise MappingError(
                f"{len(block_matrices)} block matrices for "
                f"{len(blocks)} partition blocks"
            )
        self.rows = int(rows)
        self.cols = int(block_matrices[0].shape[1])
        self.num_blocks = len(blocks)
        self.block_lengths = [len(block) for block in blocks]
        # Word-line padding: each block pads to a whole number of byte
        # lanes so packed groups never straddle blocks; padded rows
        # gather the row plan's zero sentinel and carry zero weight rows.
        height = max(self.block_lengths)
        self.block_height = -(-height // GROUP_ROWS) * GROUP_ROWS
        self.groups_per_block = self.block_height // GROUP_ROWS
        self.units = np.asarray(block_units, dtype=np.float64)

        layout = np.full(
            (self.num_blocks, self.block_height), self.rows, dtype=np.intp
        )
        int_rows = np.zeros(
            (self.num_blocks, self.block_height, self.cols), dtype=np.int64
        )
        for k, (block, matrix) in enumerate(zip(blocks, block_matrices)):
            index = np.asarray(block, dtype=np.intp)
            layout[k, : len(index)] = index
            int_rows[k, : len(index)] = np.rint(
                matrix / self.units[k]
            ).astype(np.int64)
        #: The ``(K, block_height)`` row layout the row plan gathers.
        self.layout = layout
        #: Per-block integer weight rows, ``(K, block_height, cols)``.
        self.int_rows = int_rows
        self.tables = build_group_tables(int_rows.reshape(-1, self.cols))
        # Accumulator dtype: |acc| never exceeds the per-column sum of
        # |N| over a block's rows, so int16 is safe (and halves memory
        # traffic) whenever that bound fits.
        self.acc_bound = int(np.abs(int_rows).sum(axis=1).max(initial=0))
        self.acc_dtype = (
            np.int16 if self.acc_bound < np.iinfo(np.int16).max else np.int32
        )
        self._scratch = Scratch()

    # -- per-call kernel -------------------------------------------------------
    def plan(self) -> RowPlan:
        """A row plan gathering uint8 bits into this matrix's layout."""
        return RowPlan(self.layout, dtype=np.uint8)

    @staticmethod
    def pack(bits: np.ndarray) -> np.ndarray:
        """The ``(n, K * groups_per_block)`` byte plane of planned bits.

        ``bits`` is the row plan's ``(n, K, block_height)`` uint8 layout;
        every block height is a whole number of byte lanes, so packing
        along the last axis never straddles blocks.
        """
        return np.packbits(bits, axis=-1).reshape(bits.shape[0], -1)

    def ones_per_block(self, codes: np.ndarray) -> np.ndarray:
        """Active-row counts per block, ``(n, K)``, by popcount."""
        counts = popcount(codes).astype(np.int16)
        if self.num_blocks == 1:
            return counts.sum(axis=1, dtype=np.int64)[:, None]
        starts = np.arange(0, codes.shape[1], self.groups_per_block)
        return np.add.reduceat(counts, starts, axis=1).astype(np.int64)

    def accumulate(self, codes: np.ndarray) -> np.ndarray:
        """Integer masked row-sums per block, ``(K, n, cols)``.

        One table gather per non-zero byte lane, accumulated in the
        narrowest safe integer dtype; ``units[k] * acc[k]`` is Equ. 6's
        analog sum with the current summation replaced by integer adds.
        The accumulator is per-thread scratch space, overwritten by the
        next call on this matrix from the same thread.
        """
        acc = self._scratch.get(
            "acc", (self.num_blocks, codes.shape[0], self.cols), self.acc_dtype
        )
        acc.fill(0)
        for k in range(self.num_blocks):
            block_acc = acc[k]
            for g in range(
                k * self.groups_per_block, (k + 1) * self.groups_per_block
            ):
                lane = codes[:, g]
                active = np.flatnonzero(lane)
                if active.size:
                    block_acc[active] += self.tables[g][lane[active]]
        return acc


def _retire(
    codes: np.ndarray,
    tables: np.ndarray,
    bounds: PackedSuffixBounds,
    fire_at: np.ndarray,
    dead_at: np.ndarray,
    undecided: np.ndarray,
    stats: SkipStats,
    resolve: Callable[[np.ndarray, np.ndarray], np.ndarray],
) -> np.ndarray:
    """One block's group accumulation with suffix-bound early retirement.

    At every bound boundary a column is decided once it provably fires
    (``acc + lo >= fire_at``) or provably stays silent
    (``acc + hi <= dead_at``); a position with every ``undecided``
    column decided stops gathering groups, so its remaining rows are
    never driven.  ``fire_at``/``dead_at`` are per column ``(cols,)`` or
    per position ``(n, cols)``.  Columns still undecided after the last
    group get ``resolve(acc, fire_at)`` on their complete accumulator.
    Returns the ``(n, cols)`` bool firing plane and adds the skipped and
    decided work to ``stats``.
    """
    n = codes.shape[0]
    groups = codes.shape[1]
    # rem[:, g] = active rows in groups g.. (suffix popcount).
    pc = popcount(codes).astype(np.int64)
    rem = np.cumsum(pc[:, ::-1], axis=1)[:, ::-1]
    out = np.zeros(undecided.shape, dtype=bool)
    loc = np.arange(n)
    acc = np.zeros(undecided.shape, dtype=np.int64)
    und = undecided
    fired = np.zeros(undecided.shape, dtype=bool)
    per_position = fire_at.ndim == 2
    for g in range(groups):
        if g in bounds.boundaries and loc.size:
            lo, hi = bounds.bounds_at(g, rem[:, g])
            fire = acc + lo >= fire_at
            dead = acc + hi <= dead_at
            newly = (fire | dead) & und
            if newly.any():
                fired |= newly & fire
                und &= ~newly
                stats.est_decided += int(newly.sum())
                done = ~und.any(axis=1)
                if done.any():
                    stats.skipped_rows += int(rem[done, g].sum())
                    stats.skipped_slots += int(done.sum()) * (
                        GROUP_ROWS * (groups - g)
                    )
                    out[loc[done]] = fired[done]
                    keep = ~done
                    loc, acc, und = loc[keep], acc[keep], und[keep]
                    fired, codes, rem = fired[keep], codes[keep], rem[keep]
                    if per_position:
                        fire_at, dead_at = fire_at[keep], dead_at[keep]
        if loc.size == 0:
            break
        lane = codes[:, g]
        active = np.flatnonzero(lane)
        if active.size:
            acc[active] += tables[g][lane[active]]
    if loc.size:
        out[loc] = np.where(und, resolve(acc, fire_at), fired)
    return out


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


def _packed_matrix(crossbars, blocks, rows: int) -> PackedMatrix:
    """The (certified) crossbars of one layer on the group tables."""
    return PackedMatrix(
        [xbar.fused_matrix for xbar in crossbars],
        [grid_unit(xbar) for xbar in crossbars],
        blocks,
        rows,
    )


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
    (:func:`_merge_kernel`); estimator off, the shared certified kernel
    emits the uint8 plane.  With an enabled ``estimator`` (and a hidden
    layer whose threshold lies in ``[0, 1)``), the group accumulation
    carries min/max remaining-sum companion tables
    (:class:`PackedSuffixBounds`): once a position's integer accumulator
    is outside the safe comparison band
    (:func:`repro.core.estimate.packed_fire_band`) on every column, the
    remaining byte groups are never gathered and the kernel emits the
    selection bits directly.  Columns that land *inside* the band are
    decided on their complete accumulator by the certified table, so
    exact mode stays bit-identical.
    """
    xbar = record["crossbar"]
    rows = xbar.logical_rows
    threshold = record["threshold"]
    if threshold is None:
        return _merge_kernel(
            [xbar], [np.arange(rows)], rows, record["layer"], "SEI inputs"
        )
    if not (estimator.enabled and folds_threshold(threshold)):
        return certified_unsplit(
            record, plane=True, dtype=np.uint8, lanes=True
        )
    certified = certify_unsplit(record)
    if certified is None:
        return None
    fire_min = certified.get().tables[0, 0].astype(np.int64)
    matrix = _packed_matrix([xbar], [np.arange(rows)], rows)
    cols = matrix.cols
    bounds = PackedSuffixBounds(matrix.int_rows[0], estimator)
    fire_hi, kill_lo = packed_fire_band(
        float(threshold), layer_bias(record["layer"]),
        float(matrix.units[0]), matrix.acc_bound,
    )

    def run_est(bits: np.ndarray):
        codes = matrix.pack(bits)
        n = codes.shape[0]
        stats = SkipStats(est_positions=n * cols)
        fired = _retire(
            codes, matrix.tables, bounds, fire_hi, kill_lo,
            np.ones((n, cols), dtype=bool), stats,
            lambda acc, _fire_at: acc >= fire_min,
        )
        return fired.view(np.uint8), Tally(
            lambda: matrix.ones_per_block(codes).sum(axis=1),
            sa_events=n * cols - stats.est_decided,
            popcount_events=codes.size,
            skip=stats,
        )

    return LayerKernel(
        run_est,
        matrix.plan(),
        binary_inputs("SEI inputs"),
        layer_meter([xbar], rows),
        arrays=(xbar.array,),
        prebinarized=True,
    )


def _packed_split(record: dict, estimator: EstimatorPolicy):
    """A hidden split layer (§4.3 digital vote) on the packed engine.

    Estimator off, this is the shared certified kernel
    (:func:`repro.core.hardware_network.certified_split`) on uint8
    rows, emitting the uint8 vote plane.

    With an enabled ``estimator`` the per-block accumulation runs on
    the group tables and carries :class:`PackedSuffixBounds` companion
    tables, deciding block firing bits early against the same certified
    firing tables — an early decision is therefore *identical* to the
    final one (all quantities are exact integers), and exact mode costs
    no fallback.  Columns whose §4.3 vote is settled stop caring about
    later blocks, and positions with every column settled skip
    remaining blocks outright.
    """
    if not estimator.enabled:
        return certified_split(record, plane=True, dtype=np.uint8, lanes=True)
    split = record["matrix"]
    certified = certify_split(split)
    if certified is None:
        return None
    fire_tables = certified.get().tables
    crossbars = split._block_crossbars
    matrix = _packed_matrix(crossbars, split.blocks, split.weights.shape[0])
    vote = split.decision.vote_threshold
    num_blocks, cols = matrix.num_blocks, matrix.cols
    gpb = matrix.groups_per_block
    block_bounds = [
        PackedSuffixBounds(matrix.int_rows[k], estimator)
        for k in range(num_blocks)
    ]

    def run_est(bits: np.ndarray):
        codes = matrix.pack(bits)
        ones = matrix.ones_per_block(codes)
        n = codes.shape[0]
        stats = SkipStats()
        counts = np.zeros((n, cols), dtype=np.int16)
        vote_done = np.zeros((n, cols), dtype=bool)
        alive = np.arange(n)
        processed = np.zeros(num_blocks, dtype=np.int64)
        for k in range(num_blocks):
            if alive.size == 0:
                break
            processed[k] = alive.size
            fire_l = np.take(
                fire_tables[k], ones[alive, k], axis=0
            ).astype(np.int64)
            care = ~vote_done[alive]
            stats.est_positions += int(care.sum())
            counts[alive] += _retire(
                codes[alive, k * gpb : (k + 1) * gpb],
                matrix.tables[k * gpb : (k + 1) * gpb],
                block_bounds[k],
                fire_l,
                fire_l - 1,
                care,
                stats,
                np.greater_equal,
            )
            remaining = num_blocks - 1 - k
            sub_counts = counts[alive]
            sub_done = (
                vote_done[alive]
                | (sub_counts >= vote)
                | (sub_counts + remaining < vote)
            )
            vote_done[alive] = sub_done
            if remaining:
                all_done = sub_done.all(axis=1)
                if all_done.any():
                    done_idx = alive[all_done]
                    stats.skipped_rows += int(ones[done_idx, k + 1 :].sum())
                    stats.skipped_slots += (
                        int(all_done.sum()) * remaining * matrix.block_height
                    )
                    alive = alive[~all_done]
        out = np.zeros((n, cols), dtype=np.uint8)
        np.greater_equal(counts, vote, out=out, casting="unsafe")
        return out, Tally(
            lambda: ones.sum(axis=1),
            sa_events=stats.est_positions - stats.est_decided,
            popcount_events=codes.size,
            skip=stats,
            reads=processed,
        )

    return split_layer_kernel(record, run_est, matrix.plan(), plane=True)


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
    """Build a BinarizedNetwork on the packed popcount engine.

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
