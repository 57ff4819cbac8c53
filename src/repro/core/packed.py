"""The ``packed`` engine: bit-packed popcount arithmetic for SEI crossbars.

After 1-bit quantization every SEI operand is a selection mask, and a
column current is exactly "sum of the weights on active rows" (Equ. 6).
The fused engine still evaluates that masked row-sum as a dense float
matmul over 0/1-valued float64 bits.  This engine exploits two facts the
float path cannot:

* **activations pack**: a receptive field of R bits is ``R/8`` bytes
  after :func:`np.packbits`, so the whole batch's selection state moves
  through the cache at 1 bit per activation instead of 64;
* **integral weights**: without programming variation a programmed SEI
  crossbar represents ``unit * N`` for an integer matrix ``N`` (4-bit
  nibbles merged by the +-16/+-1 extra-port coefficients; stuck cells
  land on nibble 0 or 15 and keep integrality, and IR drop is a scalar
  folded into ``unit``).  Masked row-sums over an integer matrix are
  computed exactly in int16 arithmetic.

The kernel precomputes, per crossbar at assemble time, one partial-sum
table per 8-row group: ``tables[g][p]`` holds the column sums of the
group's rows selected by byte pattern ``p``.  Tables are built by
shared-prefix grouping (:func:`build_group_tables`): patterns ``p`` and
``p ^ lsb(p)`` share every row above the lowest set bit, so each entry
is one vector add off an already-built prefix — 256 adds per group
instead of 1024 row sums.  At inference each position then needs one
table gather per *non-zero* byte of its packed pattern; with the paper's
Table 1 activity levels (2-10% ones) ~85% of the byte lanes are zero and
are skipped wholesale.  Active-row counts (for the Fig. 4 dynamic block
thresholds and the `repro.obs` power counters) come from popcounting the
packed planes (:func:`repro._compat.popcount` — ``np.bitwise_count`` or
its LUT fallback), never from float reductions.  Split-layer block
decisions never leave the integer domain either: the Equ. 7 comparison
``unit * acc + bias > T(ones)`` is pre-solved at assemble time into a
per-(block, ones) table of minimal firing accumulator values, so
inference compares int16 accumulators against gathered int16 thresholds.

The engine shares the SEI lowering path of
:func:`repro.core.hardware_network.lower_sei_network`: the crossbars are
programmed once (identical RNG stream, identical cells) and each layer
record is lowered to the packed kernel only where its integer form
applies.  Crossbars that are *not* integral (programming variation,
per-read noise) get the fused engine's kernel for that layer, so noise
lands exactly as on the fused engine.  The DAC-driven input layer (§3.2)
carries 8-bit levels rather than selection bits; with an integral merged
matrix it runs on integer DAC codes (``k/steps`` levels become uint8
``k``) in exact float32 arithmetic.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional, Sequence

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
    all_rows_active,
    folds_threshold,
    lower_fused,
    lower_sei_network,
    skip_binary_relus,
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

#: Integrality tolerance: |fused/unit - round(fused/unit)| above this
#: means the crossbar's cells do not sit on the integer nibble grid
#: (programming variation) and the layer stays on the float path.
_INT_RESIDUAL_TOL = 1e-6

#: Rows per uint8->float32 widening chunk in the DAC input layer; sized
#: so chunk * im2col-width float32 stays cache-resident.
_DAC_CHUNK = 4096

#: Positions per accumulate/decide tile in the split compute; sized so
#: the integer accumulators, decision temporaries and group tables of a
#: tile all stay cache-resident (a whole-batch accumulator gets evicted
#: between the accumulate and decide passes).
_SPLIT_TILE = 4096


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
    """One logical SEI matrix on the packed integer kernel.

    Compiled once per crossbar (group) at assemble time from the fused
    block matrices ``unit_k * N_k``; evaluates masked row-sums of all
    blocks for a batch of packed positions in integer arithmetic.

    Parameters
    ----------
    block_matrices:
        Per-block collapsed float matrices (``SEIMatrix.fused_matrix`` —
        scale and IR drop included).
    block_units:
        Per-block ``unit`` such that ``block_matrices[k] == unit_k * N_k``
        for integer ``N_k`` (within :data:`_INT_RESIDUAL_TOL`).
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

    @classmethod
    def integral_unit(cls, crossbar) -> Optional[float]:
        """The ``unit`` of an :class:`~repro.core.sei.SEIMatrix`'s fused
        matrix if its cells sit on the integer nibble grid, else None.

        Programming variation moves cells off the grid (large residual);
        per-read noise leaves no static fused matrix at all.  Stuck
        cells land on nibble 0 or 15 and stay integral.
        """
        fused = crossbar.fused_matrix
        if fused is None:
            return None
        unit = float(crossbar.scale) * float(crossbar.ir_drop_attenuation)
        if unit <= 0 or not np.isfinite(unit):
            return None
        quotient = fused / unit
        if np.abs(quotient - np.rint(quotient)).max(initial=0.0) > (
            _INT_RESIDUAL_TOL
        ):
            return None
        return unit

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
        narrowest safe integer dtype; scaling by ``units`` happens only
        at the consumer (or never, for the integer decision path) —
        ``units[k] * acc[k]`` is Equ. 6's analog sum with the current
        summation replaced by integer adds.  The accumulator is
        per-thread scratch space, overwritten by the next call on this
        matrix from the same thread.
        """
        acc = self._scratch.get(
            "acc", (self.num_blocks, codes.shape[0], self.cols), self.acc_dtype
        )
        self.accumulate_into(codes, acc)
        return acc

    def accumulate_into(self, codes: np.ndarray, acc: np.ndarray) -> None:
        """Accumulate masked row-sums of a byte plane into ``acc``.

        ``acc`` is ``(num_blocks, len(codes), cols)`` in ``acc_dtype``
        and is zero-filled first.  Callers tile large batches through a
        small ``acc`` so the accumulator, decision temporaries and group
        tables stay cache-resident.
        """
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


def _decision_tables(
    matrix: PackedMatrix, decision, block_bias: np.ndarray
) -> List[np.ndarray]:
    """Per-block integer firing thresholds, indexed by active-row count.

    Solves the §4.3 block comparison ``unit_k * acc + bias_c >
    thresholds_for(ones)`` for the minimal integer accumulator value, so
    inference replaces the float64 sums/thresholds with an int16 table
    gather: block ``k`` fires at a position iff
    ``acc[k] >= table[k][ones_k]`` columnwise.
    """
    tables = []
    bias = np.asarray(block_bias, dtype=np.float64)
    # Any value beyond the accumulator bound means "always"/"never".
    lo, hi = -(matrix.acc_bound + 1), matrix.acc_bound + 1
    for k in range(matrix.num_blocks):
        ones = np.arange(matrix.block_lengths[k] + 1, dtype=np.float64)
        thresholds = np.asarray(
            decision.thresholds_for(ones), dtype=np.float64
        )
        # Strict inequality: the minimal firing acc is floor(q) + 1 both
        # when q = (T - bias) / unit is fractional (= ceil(q)) and when
        # it is exactly integral (equality does not fire).
        quotient = (thresholds[:, None] - bias[None, :]) / matrix.units[k]
        minimal = np.floor(quotient) + 1.0
        tables.append(np.clip(minimal, lo, hi).astype(matrix.acc_dtype))
    return tables


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

    A record whose crossbars are not integral gets the fused engine's
    estimator-off kernel instead, so noisy layers compute exactly as on
    the fused engine.
    """
    kernel = _PACKED[record["kind"]](record, estimator)
    if kernel is None:
        kernel = lower_fused(record, EstimatorPolicy())
    return kernel


def _packed_matrix(crossbars, blocks, rows: int) -> Optional[PackedMatrix]:
    """The crossbars of one layer on the packed kernel, or ``None`` when
    any of them is off the integer nibble grid."""
    units = [PackedMatrix.integral_unit(xbar) for xbar in crossbars]
    if any(unit is None for unit in units):
        return None
    return PackedMatrix(
        [xbar.fused_matrix for xbar in crossbars], units, blocks, rows
    )


def _merge_kernel(
    matrix: PackedMatrix, crossbars, layer: Layer, what: str
) -> LayerKernel:
    """Block currents summed in analog before one shared SA bank.

    The final classifier's analog merge; an unsplit layer is its
    one-block case.  SA comparisons do not scale with the block count
    and no digital vote runs.
    """

    def run(bits: np.ndarray):
        codes = matrix.pack(bits)
        acc = matrix.accumulate(codes)
        out = acc[0].astype(np.float64)
        out *= matrix.units[0]
        for k in range(1, matrix.num_blocks):
            out += acc[k] * matrix.units[k]
        return out, Tally(
            lambda: matrix.ones_per_block(codes).sum(axis=1),
            sa_events=codes.shape[0] * matrix.cols,
            popcount_events=codes.size,
        )

    return LayerKernel(
        run,
        matrix.plan(),
        binary_inputs(what),
        layer_meter(
            crossbars, matrix.rows, matrix.num_blocks, digital_merge=False
        ),
        arrays=[xbar.array for xbar in crossbars],
        bias=layer_bias(layer),
    )


def _packed_dac(record: dict, estimator: EstimatorPolicy):
    """Integer-level lowering of the DAC-driven input layer (§3.2).

    The fused kernel quantizes the feature map to analog levels
    ``k/steps`` in float64 and matmuls them against the merged analog
    matrix.  When ``merged == unit * N`` for integer ``N`` (no
    programming variation), the integer DAC codes ``k`` stay uint8
    through the unfold (8x less cache traffic) and the matmul runs in
    float32 over a cache-resident chunk buffer: DAC codes and ``N`` are
    integers, and as long as every partial sum stays below 2**24 each
    float32 operation is exact integer arithmetic.

    With the layer's threshold on top, its 1-bit quantization (Equ. 4)
    folds into the kernel too: the strict comparison
    ``unit/steps * M + bias_c > T`` is pre-solved for the minimal firing
    integer per column, and the kernel emits the uint8 selection plane
    directly (``prebinarized``).
    """
    xbar = record["crossbar"]
    unit = float(xbar.scale)
    merged = xbar.merged()
    steps = float(2**xbar.dac.bits - 1)
    if not (unit > 0 and np.isfinite(unit)):
        return None
    quotient = merged / unit
    n_rounded = np.rint(quotient)
    residual = np.abs(quotient - n_rounded).max(initial=0.0)
    worst_sum = steps * np.abs(n_rounded).sum(axis=0).max(initial=0.0)
    if residual > _INT_RESIDUAL_TOL or worst_sum >= 2.0**24:
        return None
    int_matrix = np.ascontiguousarray(n_rounded, dtype=np.float32)
    out_scale = unit / steps
    code_dtype = np.uint8 if steps <= np.iinfo(np.uint8).max else np.uint16
    cols = xbar.cols
    bias = layer_bias(record["layer"])
    threshold = record["threshold"]
    fire_min = None
    if threshold is not None:
        # Strict inequality, as in _decision_tables: the minimal firing
        # integer is floor(q) + 1 whether q is fractional or exactly
        # integral.
        bias_vec = np.asarray(bias, dtype=np.float64)
        q = (float(threshold) - bias_vec) * steps / unit
        fire_min = np.clip(
            np.floor(q) + 1.0, -(worst_sum + 1), worst_sum + 1
        ).astype(np.float32)
    scratch = Scratch()

    def prepare(x: np.ndarray) -> np.ndarray:
        # Quantize to integer codes before the unfold (elementwise and
        # exact, as in the fused path: zero maps to code 0 either way).
        return np.rint(np.clip(x, 0.0, 1.0) * steps).astype(code_dtype)

    def run(codes: np.ndarray):
        n = codes.shape[0]
        chunk = min(_DAC_CHUNK, n)
        buf = scratch.get("widen32", (chunk, codes.shape[1]), np.float32)
        acc = scratch.get("acc32", (chunk, cols), np.float32)
        out = np.empty(
            (n, cols), np.float64 if fire_min is None else np.uint8
        )
        for start in range(0, n, _DAC_CHUNK):
            stop = min(n, start + _DAC_CHUNK)
            m = stop - start
            np.copyto(buf[:m], codes[start:stop], casting="unsafe")
            np.matmul(buf[:m], int_matrix, out=acc[:m])
            if fire_min is not None:
                # Exact integers on both sides of the comparison: the
                # selection bits come straight off the f32 accumulator,
                # chunkwise while it is cache-hot.
                np.greater_equal(
                    acc[:m], fire_min, out=out[start:stop], casting="unsafe"
                )
            else:
                np.multiply(acc[:m], out_scale, out=out[start:stop])
        return out, Tally(all_rows_active(codes))

    return LayerKernel(
        run,
        RowPlan(dtype=code_dtype),
        prepare,
        xbar.meter(),
        arrays=(xbar.array,),
        bias=None if fire_min is not None else bias,
        prebinarized=fire_min is not None,
        scratch=scratch,
    )


def _packed_unsplit(record: dict, estimator: EstimatorPolicy):
    """An unsplit SEI layer on the packed kernel.

    Without the estimator this is the one-block case of the analog
    merge (:func:`_merge_kernel`).  With an enabled ``estimator`` (and a hidden layer whose threshold
    lies in ``[0, 1)``), the group accumulation carries min/max
    remaining-sum companion tables (:class:`PackedSuffixBounds`): once a
    position's integer accumulator is outside the safe comparison band
    (:func:`repro.core.estimate.packed_fire_band`) on every column, the
    remaining byte groups are never gathered and the kernel emits the
    selection bits directly.  Columns that land *inside* the band replay
    the off-mode float64 arithmetic on their (complete) accumulator, so
    exact mode stays bit-identical.
    """
    xbar = record["crossbar"]
    rows = xbar.logical_rows
    matrix = _packed_matrix([xbar], [np.arange(rows)], rows)
    if matrix is None:
        return None
    threshold = record["threshold"]
    if not (estimator.enabled and folds_threshold(threshold)):
        return _merge_kernel(matrix, [xbar], record["layer"], "SEI inputs")

    cols = matrix.cols
    unit = float(matrix.units[0])
    bias = layer_bias(record["layer"])
    bounds = PackedSuffixBounds(matrix.int_rows[0], estimator)
    fire_hi, kill_lo = packed_fire_band(
        float(threshold), bias, unit, matrix.acc_bound
    )

    def replay(acc: np.ndarray, _fire_at: np.ndarray) -> np.ndarray:
        # The accumulator is complete, so replaying the off-mode float
        # ops (multiply by unit, add bias, strict compare) reproduces
        # its bits exactly.
        v = acc.astype(np.float64) * unit
        v += bias
        return v > float(threshold)

    def run_est(bits: np.ndarray):
        codes = matrix.pack(bits)
        n = codes.shape[0]
        stats = SkipStats(est_positions=n * cols)
        fired = _retire(
            codes, matrix.tables, bounds, fire_hi, kill_lo,
            np.ones((n, cols), dtype=bool), stats, replay,
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
    """A hidden split layer (§4.3 digital vote) on the packed kernel.

    The per-block firing decision runs entirely in the integer domain:
    int16 accumulators against precomputed per-ones threshold tables,
    then a uint8 vote count — no float64 block sums ever materialise.
    The output is the 0/1 vote plane, so when the layer's threshold lies
    in ``[0, 1)`` the kernel emits uint8 selection bits directly
    (``prebinarized``).

    With an enabled ``estimator`` the per-block accumulation carries
    :class:`PackedSuffixBounds` companion tables and decides block
    firing bits early against the same integer firing tables — an early
    decision is therefore *identical* to the final one (all quantities
    are exact integers), and exact mode costs no fallback.  Columns
    whose §4.3 vote is settled stop caring about later blocks, and
    positions with every column settled skip remaining blocks outright.
    """
    split = record["matrix"]
    crossbars = split._block_crossbars
    matrix = _packed_matrix(crossbars, split.blocks, split.weights.shape[0])
    if matrix is None:
        return None
    fire_tables = _decision_tables(matrix, split.decision, split.block_bias)
    vote = split.decision.vote_threshold
    emit_bits = folds_threshold(record["threshold"])
    out_dtype = np.uint8 if emit_bits else np.float64
    num_blocks, cols = matrix.num_blocks, matrix.cols
    gpb = matrix.groups_per_block
    scratch = Scratch()

    def run(bits: np.ndarray):
        codes = matrix.pack(bits)
        ones = matrix.ones_per_block(codes)
        n = codes.shape[0]
        # A fresh plane: the output escapes the compute (folded layers
        # return it as the layer's bits).
        out = np.empty((n, cols), dtype=out_dtype)
        tile = min(_SPLIT_TILE, n)
        shape = (tile, cols)
        acc = scratch.get("acc", (num_blocks, tile, cols), matrix.acc_dtype)
        counts = scratch.get("counts", shape, np.uint8)
        gathered = scratch.get("gathered", shape, matrix.acc_dtype)
        fired = scratch.get("fired", shape, np.bool_)
        for start in range(0, n, tile):
            stop = min(n, start + tile)
            m = stop - start
            matrix.accumulate_into(codes[start:stop], acc[:, :m])
            counts[:m].fill(0)
            for k in range(num_blocks):
                np.take(
                    fire_tables[k], ones[start:stop, k], axis=0,
                    out=gathered[:m],
                )
                np.greater_equal(acc[k, :m], gathered[:m], out=fired[:m])
                counts[:m] += fired[:m]
            np.greater_equal(
                counts[:m], vote, out=out[start:stop], casting="unsafe"
            )
        return out, Tally(
            lambda: ones.sum(axis=1), popcount_events=codes.size
        )

    if estimator.enabled:
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
                        stats.skipped_rows += int(
                            ones[done_idx, k + 1 :].sum()
                        )
                        stats.skipped_slots += (
                            int(all_done.sum())
                            * remaining
                            * matrix.block_height
                        )
                        alive = alive[~all_done]
            out = np.zeros((n, cols), dtype=out_dtype)
            np.greater_equal(counts, vote, out=out, casting="unsafe")
            return out, Tally(
                lambda: ones.sum(axis=1),
                sa_events=stats.est_positions - stats.est_decided,
                popcount_events=codes.size,
                skip=stats,
                reads=processed,
            )

        run = run_est

    return LayerKernel(
        run,
        matrix.plan(),
        binary_inputs("split-matrix inputs"),
        layer_meter(crossbars, matrix.rows, num_blocks),
        arrays=split.block_arrays,
        prebinarized=emit_bits,
        scratch=scratch,
    )


def _packed_analog_merge(record: dict, estimator: EstimatorPolicy):
    """The final analog-merged classifier layer on the packed kernel."""
    crossbars = record["crossbars"]
    partition = record["partition"]
    matrix = _packed_matrix(crossbars, partition.blocks(), partition.num_rows)
    if matrix is None:
        return None
    return _merge_kernel(
        matrix, crossbars, record["layer"], "analog-merge inputs"
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
