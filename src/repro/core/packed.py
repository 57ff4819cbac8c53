"""The ``packed`` engine: bit-packed popcount arithmetic for SEI crossbars.

After 1-bit quantization every SEI operand is a selection mask, and a
column current is exactly "sum of the weights on active rows" (Equ. 6).
The fused engine still evaluates that masked row-sum as a dense float
matmul over 0/1-valued float64 bits.  This engine exploits two facts the
float path cannot:

* **activations pack**: a receptive field of R bits is ``R/8`` bytes
  after :func:`np.packbits` (uint64 words via :class:`PackedBits`), so
  the whole batch's selection state moves through the cache at 1 bit per
  activation instead of 64;
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

Crossbars that are *not* integral (programming variation, per-read
noise) keep the fused engine's compute for that layer: the assembled
network is built by :func:`repro.core.hardware_network.assemble_sei_network`
first (identical RNG stream, identical programmed cells) and only the
integral crossbars are re-pointed at the packed kernel.  Noise therefore
lands as the same post-accumulation float corrections the fused engine
applies, and conformance against the reference oracle holds at
``SEI_RTOL``/``SEI_ATOL`` in every noise regime.  The DAC-driven input
layer (§3.2) carries 8-bit levels rather than selection bits; it is
re-lowered to integer DAC codes (``k/steps`` levels become uint8 ``k``)
against the same merged analog matrix, which needs no integrality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
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
from repro.core.matrix_compute import (
    Scratch,
    ensure_binary,
    fold_rows,
    layer_bias,
)

__all__ = [
    "PackedBits",
    "pack_bits",
    "unpack_bits",
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

#: Rows per uint8->float64 widening chunk in the DAC input lowering;
#: sized so chunk * im2col-width float64 stays cache-resident.
_DAC_CHUNK = 4096

#: Positions per accumulate/decide tile in the split compute; sized so
#: the integer accumulators, decision temporaries and group tables of a
#: tile all stay cache-resident (a whole-batch accumulator gets evicted
#: between the accumulate and decide passes).
_SPLIT_TILE = 4096


# -- packing -------------------------------------------------------------------


@dataclass(frozen=True)
class PackedBits:
    """A batch of binary activation rows in bit-plane form.

    ``codes`` is the byte plane ``(n, groups)`` produced by
    ``np.packbits`` (row ``8*g + j`` of the source occupies bit ``7-j``
    of byte ``g`` — MSB-first, numpy's default).  ``words`` views the
    same plane as zero-padded uint64 words, the layout word-at-a-time
    popcount consumers use; it is materialised on demand.  ``rows`` is
    the unpadded logical row count.
    """

    codes: np.ndarray
    rows: int

    @property
    def words(self) -> np.ndarray:
        return _codes_to_words(self.codes)

    @property
    def positions(self) -> int:
        return self.codes.shape[0]

    @property
    def groups(self) -> int:
        return self.codes.shape[1]


def _codes_to_words(codes: np.ndarray) -> np.ndarray:
    """View a byte plane as uint64 words, zero-padding to word width."""
    groups = codes.shape[1]
    word_bytes = -(-groups // 8) * 8
    if word_bytes != groups:
        padded = np.zeros((codes.shape[0], word_bytes), dtype=np.uint8)
        padded[:, :groups] = codes
    else:
        padded = np.ascontiguousarray(codes)
    return padded.view(np.uint64)


def pack_bits(bits: np.ndarray) -> PackedBits:
    """Pack ``(n, rows)`` 0/1 values into byte and uint64 bit planes."""
    bits = np.asarray(bits)
    if bits.ndim != 2:
        raise ShapeError(f"pack_bits expects (n, rows), got {bits.shape}")
    codes = np.packbits(bits, axis=1)
    return PackedBits(codes=codes, rows=bits.shape[1])


def unpack_bits(packed: PackedBits) -> np.ndarray:
    """Inverse of :func:`pack_bits`: the ``(n, rows)`` uint8 0/1 plane."""
    return np.unpackbits(packed.codes, axis=1)[:, : packed.rows]


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
        # gather from a zero sentinel and carry zero weight rows.
        height = max(self.block_lengths)
        self.block_height = -(-height // GROUP_ROWS) * GROUP_ROWS
        self.groups_per_block = self.block_height // GROUP_ROWS
        padded_rows = self.num_blocks * self.block_height
        self.units = np.asarray(block_units, dtype=np.float64)

        gather = np.full(padded_rows, self.rows, dtype=np.intp)
        int_rows = np.zeros((padded_rows, self.cols), dtype=np.int64)
        for k, (block, matrix) in enumerate(zip(blocks, block_matrices)):
            index = np.asarray(block, dtype=np.intp)
            start = k * self.block_height
            gather[start : start + len(index)] = index
            int_rows[start : start + len(index)] = np.rint(
                matrix / self.units[k]
            ).astype(np.int64)
        self._gather = gather
        # Contiguous-range partitions (natural splits, unsplit layers)
        # skip the row gather entirely: each block packs straight from a
        # slice of the input, with np.packbits supplying the trailing
        # zero padding.
        self._ranges = self._contiguous_ranges(blocks)
        self.tables = build_group_tables(int_rows)
        # Accumulator dtype: |acc| never exceeds the per-column sum of
        # |N| over a block's rows, so int16 is safe (and halves memory
        # traffic) whenever that bound fits.
        abs_cols = np.abs(int_rows).reshape(
            self.num_blocks, self.block_height, self.cols
        )
        self.acc_bound = int(abs_cols.sum(axis=1).max(initial=0))
        self.acc_dtype = (
            np.int16 if self.acc_bound < np.iinfo(np.int16).max else np.int32
        )
        self._scratch = Scratch()

    @staticmethod
    def _contiguous_ranges(
        blocks: Sequence[np.ndarray],
    ) -> Optional[List[Tuple[int, int]]]:
        ranges: List[Tuple[int, int]] = []
        for block in blocks:
            block = np.asarray(block)
            if block.size == 0:
                return None
            lo = int(block[0])
            if not np.array_equal(block, np.arange(lo, lo + len(block))):
                return None
            ranges.append((lo, lo + len(block)))
        return ranges

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
    def pack(self, bits_u8: np.ndarray) -> PackedBits:
        """Pack validated ``(n, rows)`` uint8 bits in block order.

        The returned plane lives in this matrix's per-thread scratch
        space: it is overwritten by the next ``pack`` call on the same
        matrix from the same thread.
        """
        if bits_u8.ndim != 2 or bits_u8.shape[1] != self.rows:
            raise ShapeError(
                f"input has shape {bits_u8.shape}, matrix has "
                f"{self.rows} logical rows"
            )
        n = bits_u8.shape[0]
        total_groups = self.num_blocks * self.groups_per_block
        if self._ranges is not None:
            codes = self._scratch.get("codes", (n, total_groups), np.uint8)
            codes.fill(0)
            for k, (lo, hi) in enumerate(self._ranges):
                lanes = -(-(hi - lo) // GROUP_ROWS)
                start = k * self.groups_per_block
                codes[:, start : start + lanes] = np.packbits(
                    bits_u8[:, lo:hi], axis=1
                )
        else:
            with_sentinel = self._scratch.get(
                "sentinel", (n, self.rows + 1), np.uint8
            )
            with_sentinel[:, : self.rows] = bits_u8
            with_sentinel[:, self.rows] = 0
            codes = np.packbits(with_sentinel[:, self._gather], axis=1)
        return PackedBits(
            codes=codes, rows=self.num_blocks * self.block_height
        )

    def ones_per_block(self, packed: PackedBits) -> np.ndarray:
        """Active-row counts per block, ``(n, K)``, by popcount."""
        counts = popcount(packed.codes).astype(np.int16)
        if self.num_blocks == 1:
            return counts.sum(axis=1, dtype=np.int64)[:, None]
        starts = np.arange(0, packed.groups, self.groups_per_block)
        return np.add.reduceat(counts, starts, axis=1).astype(np.int64)

    def accumulate(self, packed: PackedBits) -> np.ndarray:
        """Integer masked row-sums per block, ``(K, n, cols)``.

        One table gather per non-zero byte lane, accumulated in the
        narrowest safe integer dtype; scaling by ``units`` happens only
        at the consumer (or never, for the integer decision path) —
        ``units[k] * acc[k]`` is Equ. 6's analog sum with the current
        summation replaced by integer adds.  The accumulator is
        per-thread scratch space, overwritten by the next call on this
        matrix from the same thread.
        """
        codes = packed.codes
        n = codes.shape[0]
        acc = self._scratch.get(
            "acc", (self.num_blocks, n, self.cols), self.acc_dtype
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

    def block_sums(self, packed: PackedBits) -> np.ndarray:
        """Analog per-block column sums, ``(n, K, cols)`` float64."""
        acc = self.accumulate(packed)
        return acc.transpose(1, 0, 2).astype(np.float64) * (
            self.units[None, :, None]
        )

    def compute(self, bits_u8: np.ndarray) -> np.ndarray:
        """Unsplit column outputs ``(n, cols)`` (single-block sum)."""
        packed = self.pack(bits_u8)
        acc = self.accumulate(packed)
        out = acc[0].astype(np.float64)
        out *= self.units[0]
        for k in range(1, self.num_blocks):
            out += acc[k] * self.units[k]
        return out


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


# -- layer computes ------------------------------------------------------------


def _as_uint8_bits(x: np.ndarray, what: str) -> np.ndarray:
    """Validate 0/1 inputs on the compact layout and narrow to uint8."""
    if x.dtype == np.uint8:
        return x
    ensure_binary(x, what)
    return x.astype(np.uint8)


def _apply_packed(
    layer: Layer,
    x: np.ndarray,
    matrix_fn,
    add_bias: bool = True,
    scratch: Optional[Scratch] = None,
) -> np.ndarray:
    """im2col/fold plumbing of ``apply_matrix_fn`` on the uint8 path.

    The unfold runs on uint8 feature maps, so receptive fields move
    8x less data than the float64 im2col of the fused engine; with a
    ``scratch``, the unfolded plane also reuses one buffer across
    batches.  The folded Conv2D output stays a transposed view (the
    enclosing binarization writes a fresh buffer anyway).  As in
    :func:`repro.core.matrix_compute.apply_matrix_fn`, the bias is added
    on the flat ``(positions, cols)`` output before the Conv2D fold.
    """
    if isinstance(layer, Dense):
        if x.ndim != 2 or x.shape[1] != layer.in_features:
            raise ShapeError(
                f"Dense packed compute expects (n, {layer.in_features}), "
                f"got {x.shape}"
            )
        out = matrix_fn(x)
        if add_bias:
            # In-place: every packed matrix_fn's output is writable.
            out += layer_bias(layer)
        return out
    if isinstance(layer, Conv2D):
        n, _, h, w = x.shape
        kernel = layer.kernel_size
        out_h = F.conv_output_size(h, kernel, layer.stride, layer.padding)
        out_w = F.conv_output_size(w, kernel, layer.stride, layer.padding)
        unfold_out = None
        if scratch is not None:
            unfold_out = scratch.get(
                "im2col", (n * out_h * out_w, x.shape[1] * kernel * kernel),
                x.dtype,
            )
        cols = F.im2col(
            x, kernel, kernel, layer.stride, layer.padding, out=unfold_out
        )
        out = matrix_fn(cols)
        if add_bias:
            out += layer_bias(layer)
        return fold_rows(layer, x.shape, out)
    raise ShapeError(f"cannot apply a packed compute to {type(layer).__name__}")


def _record_packed(
    obs_index: Optional[int],
    ones_total: np.ndarray,
    rows: int,
    cols: int,
    *,
    blocks: int = 1,
    cells_per_weight: int,
    sa_events: Optional[int] = None,
    digital_merge: Optional[bool] = None,
    popcount_events: int = 0,
    skip: Optional[SkipStats] = None,
) -> None:
    """Per-layer activity counters from popcounted active-row totals."""
    rec = obs.active()
    if rec is None or obs_index is None:
        return
    from repro.obs.power import record_mvm_batch

    record_mvm_batch(
        rec.metrics,
        obs_index,
        None,
        cols,
        rows=rows,
        active_counts=ones_total,
        blocks=blocks,
        cells_per_weight=cells_per_weight,
        sa_events=sa_events,
        digital_merge=digital_merge,
        popcount_events=popcount_events,
        skipped_rows=skip.skipped_rows if skip else 0,
        skipped_slots=skip.skipped_slots if skip else 0,
        est_positions=skip.est_positions if skip else 0,
        est_decided=skip.est_decided if skip else 0,
    )


def packed_unsplit_compute(
    crossbar,
    unit: float,
    obs_index: Optional[int] = None,
    hidden: bool = True,
    threshold: Optional[float] = None,
    bias: Optional[np.ndarray] = None,
    estimator: Optional[EstimatorPolicy] = None,
):
    """Packed replacement for an unsplit SEI layer.

    Hidden-layer outputs feed straight into the enclosing binarization
    (which writes a fresh plane), so the float output lives in scratch
    and is rewritten on the next batch; a final (non-thresholded) layer
    escapes to the caller and allocates fresh.

    With an enabled ``estimator`` (and a hidden layer whose ``threshold``
    lies in ``[0, 1)``), the group accumulation carries min/max
    remaining-sum companion tables (:class:`PackedSuffixBounds`): once a
    position's integer accumulator is outside the safe comparison band
    on every column, the remaining byte groups are never gathered and
    the compute emits the selection bits directly.  Positions that land
    *inside* the band replay the off-mode float64 arithmetic on their
    (complete) accumulator, so exact mode stays bit-identical.
    """
    matrix = PackedMatrix(
        [crossbar.fused_matrix], [unit], [np.arange(crossbar.logical_rows)],
        crossbar.logical_rows,
    )
    cells = crossbar.cells_per_weight
    scratch = Scratch()

    if (
        estimator is not None
        and estimator.enabled
        and hidden
        and threshold is not None
        and 0.0 <= float(threshold) < 1.0
    ):
        cols_n = matrix.cols
        bias_vec = (
            np.zeros(cols_n)
            if bias is None
            else np.asarray(bias, dtype=np.float64)
        )
        int_rows = np.zeros(
            (matrix.block_height, cols_n), dtype=np.int64
        )
        int_rows[: crossbar.logical_rows] = np.rint(
            crossbar.fused_matrix / unit
        ).astype(np.int64)
        bounds = PackedSuffixBounds(int_rows, estimator)
        boundaries = set(bounds.boundaries)
        fire_hi, kill_lo = packed_fire_band(
            float(threshold), bias_vec, unit, matrix.acc_bound
        )
        groups = matrix.groups_per_block
        thr_f = float(threshold)

        def est_fn(bits_u8: np.ndarray) -> np.ndarray:
            packed = matrix.pack(bits_u8)
            ones = matrix.ones_per_block(packed)
            n = bits_u8.shape[0]
            pc = popcount(packed.codes).astype(np.int64)
            # rem[:, g] = active rows in groups g.. (suffix popcount).
            rem = np.cumsum(pc[:, ::-1], axis=1)[:, ::-1]
            stats = SkipStats(est_positions=n * cols_n)
            out = np.zeros((n, cols_n), dtype=np.uint8)
            loc = np.arange(n)
            acc = np.zeros((n, cols_n), dtype=np.int64)
            und = np.ones((n, cols_n), dtype=bool)
            fired = np.zeros((n, cols_n), dtype=bool)
            codes_l = packed.codes
            rem_l = rem
            for g in range(groups):
                if g in boundaries and loc.size:
                    lo, hi = bounds.bounds_at(g, rem_l[:, g])
                    fire = acc + lo >= fire_hi
                    dead = acc + hi <= kill_lo
                    newly = (fire | dead) & und
                    if newly.any():
                        fired |= newly & fire
                        und &= ~newly
                        stats.est_decided += int(newly.sum())
                        done = ~und.any(axis=1)
                        if done.any():
                            stats.skipped_rows += int(rem_l[done, g].sum())
                            stats.skipped_slots += int(done.sum()) * (
                                matrix.block_height - GROUP_ROWS * g
                            )
                            out[loc[done]] = fired[done]
                            keep = ~done
                            loc = loc[keep]
                            acc = acc[keep]
                            und = und[keep]
                            fired = fired[keep]
                            codes_l = codes_l[keep]
                            rem_l = rem_l[keep]
                if loc.size == 0:
                    break
                lane = codes_l[:, g]
                active = np.flatnonzero(lane)
                if active.size:
                    acc[active] += matrix.tables[g][lane[active]]
            if loc.size:
                # Band survivors and never-retired positions: the
                # accumulator is complete, so replaying the off-mode
                # float ops (multiply by unit, add bias, strict compare)
                # reproduces its bits exactly.
                v = acc.astype(np.float64) * unit
                v += bias_vec
                final = v > thr_f
                out[loc] = np.where(und, final, fired)
            crossbar.array.note_reads(n)
            _record_packed(
                obs_index, ones.sum(axis=1), matrix.rows, cols_n,
                cells_per_weight=cells,
                sa_events=n * cols_n - stats.est_decided,
                popcount_events=packed.codes.size,
                skip=stats,
            )
            return out

        def est_compute(layer: Layer, x: np.ndarray) -> np.ndarray:
            bits = _as_uint8_bits(x, "SEI inputs")
            return _apply_packed(
                layer, bits, est_fn, add_bias=False, scratch=scratch
            )

        est_compute.prebinarized = True
        return est_compute

    def matrix_fn(bits_u8: np.ndarray) -> np.ndarray:
        packed = matrix.pack(bits_u8)
        ones = matrix.ones_per_block(packed)
        _record_packed(
            obs_index, ones.sum(axis=1), matrix.rows, matrix.cols,
            cells_per_weight=cells, popcount_events=packed.codes.size,
        )
        acc = matrix.accumulate(packed)
        if hidden:
            out = scratch.get("out", acc[0].shape, np.float64)
        else:
            out = np.empty(acc[0].shape)
        np.multiply(acc[0], matrix.units[0], out=out, casting="unsafe")
        crossbar.array.note_reads(bits_u8.shape[0])
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        bits = _as_uint8_bits(x, "SEI inputs")
        return _apply_packed(layer, bits, matrix_fn, scratch=scratch)

    return compute


def packed_split_compute(
    split, units: Sequence[float], obs_index=None,
    threshold: Optional[float] = None,
    estimator: Optional[EstimatorPolicy] = None,
):
    """Packed replacement for a hidden split layer (§4.3 digital vote).

    The per-block firing decision runs entirely in the integer domain:
    int16 accumulators against precomputed per-ones threshold tables,
    then a uint8 vote count — no float64 block sums ever materialise.

    The split output is already the 0/1 vote plane, so when the layer's
    own quantization ``threshold`` lies in ``[0, 1)`` the outer binarize
    is an identity on it (``0 > t`` is False, ``1 > t`` is True) and the
    compute emits uint8 selection bits directly; the enclosing network
    must then skip its binarize pass (see ``compute.prebinarized``).

    With an enabled ``estimator`` the per-block accumulation carries
    :class:`PackedSuffixBounds` companion tables and decides block
    firing bits early against the same integer firing tables — an early
    decision is therefore *identical* to the final one (all quantities
    are exact integers), and exact mode costs no fallback.  Columns
    whose §4.3 vote is settled stop caring about later blocks, and
    positions with every column settled skip remaining blocks outright.
    """
    matrix = PackedMatrix(
        [xbar.fused_matrix for xbar in split._block_crossbars],
        units,
        [np.asarray(block, dtype=np.intp) for block in split.blocks],
        split.weights.shape[0],
    )
    decision = split.decision
    fire_tables = _decision_tables(matrix, decision, split.block_bias)
    vote_threshold = decision.vote_threshold
    cells = split._block_crossbars[0].cells_per_weight
    emit_bits = threshold is not None and 0.0 <= float(threshold) < 1.0
    out_dtype = np.uint8 if emit_bits else np.float64
    scratch = Scratch()

    if estimator is not None and estimator.enabled:
        gpb = matrix.groups_per_block
        cols_n = matrix.cols
        num_blocks = matrix.num_blocks
        block_bounds = []
        for k, xbar in enumerate(split._block_crossbars):
            rows_k = np.zeros((matrix.block_height, cols_n), dtype=np.int64)
            rows_k[: xbar.logical_rows] = np.rint(
                xbar.fused_matrix / matrix.units[k]
            ).astype(np.int64)
            block_bounds.append(PackedSuffixBounds(rows_k, estimator))
        boundary_sets = [set(b.boundaries) for b in block_bounds]

        def est_fn(bits_u8: np.ndarray) -> np.ndarray:
            packed = matrix.pack(bits_u8)
            ones = matrix.ones_per_block(packed)
            n = bits_u8.shape[0]
            pc = popcount(packed.codes).astype(np.int64)
            stats = SkipStats()
            counts = np.zeros((n, cols_n), dtype=np.int16)
            vote_done = np.zeros((n, cols_n), dtype=bool)
            alive = np.arange(n)
            processed = np.zeros(num_blocks, dtype=np.int64)
            for k in range(num_blocks):
                if alive.size == 0:
                    break
                processed[k] = alive.size
                bnd = block_bounds[k]
                bset = boundary_sets[k]
                codes_l = packed.codes[:, k * gpb : (k + 1) * gpb][alive]
                pc_l = pc[:, k * gpb : (k + 1) * gpb][alive]
                rem_l = np.cumsum(pc_l[:, ::-1], axis=1)[:, ::-1]
                fire_l = np.take(
                    fire_tables[k], ones[alive, k], axis=0
                ).astype(np.int64)
                care = ~vote_done[alive]
                stats.est_positions += int(care.sum())
                m = alive.size
                out_fire = np.zeros((m, cols_n), dtype=bool)
                loc = np.arange(m)
                acc = np.zeros((m, cols_n), dtype=np.int64)
                und = care.copy()
                fired = np.zeros((m, cols_n), dtype=bool)
                for g in range(gpb):
                    if g in bset and loc.size:
                        lo, hi = bnd.bounds_at(g, rem_l[:, g])
                        fire = acc + lo >= fire_l
                        dead = acc + hi < fire_l
                        newly = (fire | dead) & und
                        if newly.any():
                            fired |= newly & fire
                            und &= ~newly
                            stats.est_decided += int(newly.sum())
                            done = ~und.any(axis=1)
                            if done.any():
                                stats.skipped_rows += int(
                                    rem_l[done, g].sum()
                                )
                                stats.skipped_slots += int(done.sum()) * (
                                    matrix.block_height - GROUP_ROWS * g
                                )
                                out_fire[loc[done]] = fired[done]
                                keep = ~done
                                loc = loc[keep]
                                acc = acc[keep]
                                und = und[keep]
                                fired = fired[keep]
                                codes_l = codes_l[keep]
                                rem_l = rem_l[keep]
                                fire_l = fire_l[keep]
                    if loc.size == 0:
                        break
                    lane = codes_l[:, g]
                    active = np.flatnonzero(lane)
                    if active.size:
                        acc[active] += matrix.tables[k * gpb + g][
                            lane[active]
                        ]
                if loc.size:
                    # Full accumulators: the exact §4.3 comparison.
                    out_fire[loc] = np.where(und, acc >= fire_l, fired)
                counts[alive] += out_fire
                remaining = num_blocks - 1 - k
                sub_counts = counts[alive]
                sub_done = (
                    vote_done[alive]
                    | (sub_counts >= vote_threshold)
                    | (sub_counts + remaining < vote_threshold)
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
            for k in range(num_blocks):
                if processed[k]:
                    split._block_crossbars[k].array.note_reads(
                        int(processed[k])
                    )
            _record_packed(
                obs_index, ones.sum(axis=1), matrix.rows, cols_n,
                blocks=num_blocks, cells_per_weight=cells,
                sa_events=stats.est_positions - stats.est_decided,
                popcount_events=packed.codes.size,
                skip=stats,
            )
            out = np.zeros((n, cols_n), dtype=out_dtype)
            np.greater_equal(
                counts, vote_threshold, out=out, casting="unsafe"
            )
            return out

        def est_compute(layer: Layer, x: np.ndarray) -> np.ndarray:
            bits = _as_uint8_bits(x, "split-matrix inputs")
            return _apply_packed(
                layer, bits, est_fn, add_bias=False, scratch=scratch
            )

        est_compute.prebinarized = emit_bits
        return est_compute

    def matrix_fn(bits_u8: np.ndarray) -> np.ndarray:
        packed = matrix.pack(bits_u8)
        ones = matrix.ones_per_block(packed)
        _record_packed(
            obs_index, ones.sum(axis=1), matrix.rows, matrix.cols,
            blocks=matrix.num_blocks, cells_per_weight=cells,
            popcount_events=packed.codes.size,
        )
        n = bits_u8.shape[0]
        out = scratch.get("out", (n, matrix.cols), out_dtype)
        tile = min(_SPLIT_TILE, n)
        shape = (tile, matrix.cols)
        acc = scratch.get(
            "acc", (matrix.num_blocks, tile, matrix.cols), matrix.acc_dtype
        )
        counts = scratch.get("counts", shape, np.uint8)
        gathered = scratch.get("gathered", shape, matrix.acc_dtype)
        fired = scratch.get("fired", shape, np.bool_)
        for start in range(0, n, tile):
            stop = min(n, start + tile)
            m = stop - start
            matrix.accumulate_into(packed.codes[start:stop], acc[:, :m])
            counts[:m].fill(0)
            for k in range(matrix.num_blocks):
                np.take(
                    fire_tables[k], ones[start:stop, k], axis=0,
                    out=gathered[:m],
                )
                np.greater_equal(acc[k, :m], gathered[:m], out=fired[:m])
                counts[:m] += fired[:m]
            np.greater_equal(
                counts[:m], vote_threshold, out=out[start:stop],
                casting="unsafe",
            )
        for xbar in split._block_crossbars:
            xbar.array.note_reads(n)
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        bits = _as_uint8_bits(x, "split-matrix inputs")
        return _apply_packed(
            layer, bits, matrix_fn, add_bias=False, scratch=scratch
        )

    compute.prebinarized = emit_bits
    return compute


def packed_analog_merge_compute(
    partition, crossbars, units: Sequence[float], obs_index=None
):
    """Packed replacement for the final analog-merged classifier layer."""
    matrix = PackedMatrix(
        [xbar.fused_matrix for xbar in crossbars],
        units,
        [np.asarray(block, dtype=np.intp) for block in partition.blocks()],
        partition.num_rows,
    )
    cells = crossbars[0].cells_per_weight

    def matrix_fn(bits_u8: np.ndarray) -> np.ndarray:
        packed = matrix.pack(bits_u8)
        ones = matrix.ones_per_block(packed)
        _record_packed(
            obs_index, ones.sum(axis=1), matrix.rows, matrix.cols,
            blocks=matrix.num_blocks, cells_per_weight=cells,
            sa_events=packed.positions * matrix.cols, digital_merge=False,
            popcount_events=packed.codes.size,
        )
        acc = matrix.accumulate(packed)
        out = acc[0].astype(np.float64)
        out *= matrix.units[0]
        for k in range(1, matrix.num_blocks):
            out += acc[k] * matrix.units[k]
        for xbar in crossbars:
            xbar.array.note_reads(bits_u8.shape[0])
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        bits = _as_uint8_bits(x, "analog-merge inputs")
        return _apply_packed(layer, bits, matrix_fn)

    return compute


def packed_dac_compute(
    merged,
    dac,
    cells_per_weight,
    obs_index=None,
    hidden: bool = True,
    unit: Optional[float] = None,
    bias: Optional[np.ndarray] = None,
    threshold: Optional[float] = None,
    array=None,
):
    """Integer-level re-lowering of the DAC-driven input layer (§3.2).

    The fused path quantizes the feature map to analog levels
    ``k/steps`` in float64 and matmuls them against the merged analog
    matrix; here the integer DAC codes ``k`` stay uint8 through the
    im2col unfold (8x less cache traffic) and the matmul runs over a
    cache-resident chunk buffer.  No integrality of the weights is
    needed — the same merged matrix drives both paths — so this
    lowering applies in every noise regime.

    When ``unit`` is given and ``merged == unit * N`` for integer
    ``N`` (no programming variation), the matmul additionally drops to
    float32: DAC codes and ``N`` are integers, and as long as every
    partial sum stays below 2**24 each float32 operation is exact
    integer arithmetic — half the memory traffic and double the BLAS
    throughput with zero rounding inside the sum.  The ``bias`` (the
    layer bias, when supplied) is added chunkwise while the output
    slice is cache-hot.

    With a ``threshold`` on top of the exact-integer path, the layer's
    1-bit quantization (Equ. 4) folds into the kernel too: the strict
    comparison ``unit/steps * M + bias_c > T`` is pre-solved for the
    minimal firing integer per column, and the compute emits the uint8
    selection plane directly — the column currents never materialise
    in float64 at all.  The enclosing network must then skip its own
    binarize pass (see ``compute.prebinarized``).
    """
    steps = float(2**dac.bits - 1)
    code_dtype = np.uint8 if steps <= np.iinfo(np.uint8).max else np.uint16
    merged_per_code = merged / steps
    cols = merged.shape[1]
    scratch = Scratch()

    int_matrix = None
    out_scale = None
    fire_min = None
    if unit is not None and unit > 0 and np.isfinite(unit):
        quotient = merged / unit
        n_rounded = np.rint(quotient)
        residual = np.abs(quotient - n_rounded).max(initial=0.0)
        worst_sum = steps * np.abs(n_rounded).sum(axis=0).max(initial=0.0)
        if residual <= _INT_RESIDUAL_TOL and worst_sum < 2.0**24:
            int_matrix = np.ascontiguousarray(n_rounded, dtype=np.float32)
            out_scale = unit / steps
            if threshold is not None:
                # Strict inequality, as in _decision_tables: the minimal
                # firing integer is floor(q) + 1 whether q is fractional
                # or exactly integral.
                bias_vec = (
                    np.zeros(cols)
                    if bias is None
                    else np.asarray(bias, dtype=np.float64)
                )
                q = (float(threshold) - bias_vec) * steps / unit
                fire_min = np.clip(
                    np.floor(q) + 1.0, -(worst_sum + 1), worst_sum + 1
                ).astype(np.float32)

    def matrix_fn(codes: np.ndarray) -> np.ndarray:
        from repro.core.hardware_network import _record_dac

        _record_dac(obs_index, codes, cols, cells_per_weight)
        n = codes.shape[0]
        if array is not None:
            array.note_reads(n)
        chunk = min(_DAC_CHUNK, n)
        if int_matrix is not None:
            buf = scratch.get("widen32", (chunk, codes.shape[1]), np.float32)
            acc = scratch.get("acc32", (chunk, cols), np.float32)
            if fire_min is not None:
                # Exact integers on both sides of the comparison: the
                # uint8 selection plane comes straight off the f32
                # accumulator, chunkwise while it is cache-hot.
                bits = scratch.get("bits", (n, cols), np.uint8)
                for start in range(0, n, _DAC_CHUNK):
                    stop = min(n, start + _DAC_CHUNK)
                    m = stop - start
                    np.copyto(buf[:m], codes[start:stop], casting="unsafe")
                    np.matmul(buf[:m], int_matrix, out=acc[:m])
                    np.greater_equal(
                        acc[:m], fire_min, out=bits[start:stop],
                        casting="unsafe",
                    )
                return bits
            if hidden:
                out = scratch.get("out", (n, cols), np.float64)
            else:
                out = np.empty((n, cols))
            for start in range(0, n, _DAC_CHUNK):
                stop = min(n, start + _DAC_CHUNK)
                m = stop - start
                np.copyto(buf[:m], codes[start:stop], casting="unsafe")
                np.matmul(buf[:m], int_matrix, out=acc[:m])
                np.multiply(acc[:m], out_scale, out=out[start:stop])
                if bias is not None:
                    out[start:stop] += bias
            return out
        if hidden:
            out = scratch.get("out", (n, cols), np.float64)
        else:
            # Final-layer outputs escape to the caller: allocate fresh.
            out = np.empty((n, cols))
        buf = scratch.get("widen", (chunk, codes.shape[1]), np.float64)
        for start in range(0, n, _DAC_CHUNK):
            stop = min(n, start + _DAC_CHUNK)
            piece = buf[: stop - start]
            np.copyto(piece, codes[start:stop], casting="unsafe")
            np.matmul(piece, merged_per_code, out=out[start:stop])
            if bias is not None:
                out[start:stop] += bias
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        # Quantize to integer codes before the unfold (elementwise and
        # exact, as in the fused path: zero maps to code 0 either way).
        codes = np.rint(np.clip(x, 0.0, 1.0) * steps).astype(code_dtype)
        return _apply_packed(
            layer, codes, matrix_fn,
            add_bias=bias is None and fire_min is None,
            scratch=scratch,
        )

    compute.prebinarized = fire_min is not None
    return compute


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

    The fused network is assembled first with the *same* RNG stream
    (identical programmed cells, identical per-read noise draws), then
    every crossbar whose cells sit on the integer nibble grid is
    re-pointed at the packed integer kernel.  Non-integral crossbars
    (programming variation) and per-read-noise crossbars keep the fused
    float path, so the engine is exact in every noise regime and fast
    exactly where the packed formulation applies.
    """
    # Local import: repro.core.engines registers this module's builder,
    # so the top-level dependency can only point one way.
    from repro.core.engines import EngineSpec, resolve_engine
    from repro.core.hardware_network import (
        assemble_sei_network,
        folded_layers,
    )

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
    inner = EngineSpec(
        name="fused", hardware=spec.hardware, data_bits=spec.data_bits
    )
    binarized = assemble_sei_network(
        network,
        thresholds,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
        engine=inner,
    )

    for index, info in binarized.hardware_layers.items():
        kind = info.get("kind")
        if kind == "dac":
            fused_compute = info["compute"]
            binarized.layer_computes[index] = packed_dac_compute(
                fused_compute.merged,
                fused_compute.dac,
                fused_compute.cells_per_weight,
                obs_index=index,
                hidden=index in thresholds,
                unit=getattr(fused_compute, "unit", None),
                bias=layer_bias(network.layers[index]),
                threshold=thresholds.get(index),
                array=getattr(fused_compute, "array", None),
            )
        elif kind == "unsplit":
            crossbar = info["crossbar"]
            unit = PackedMatrix.integral_unit(crossbar)
            if unit is not None:
                binarized.layer_computes[index] = packed_unsplit_compute(
                    crossbar, unit, obs_index=index,
                    hidden=index in thresholds,
                    threshold=thresholds.get(index),
                    bias=layer_bias(network.layers[index]),
                    estimator=spec.estimator,
                )
        elif kind == "split":
            split = info["matrix"]
            units = [
                PackedMatrix.integral_unit(xbar)
                for xbar in split._block_crossbars
            ]
            if all(unit is not None for unit in units):
                binarized.layer_computes[index] = packed_split_compute(
                    split, units, obs_index=index,
                    threshold=thresholds.get(index),
                    estimator=spec.estimator,
                )
        elif kind == "analog_merge":
            crossbars = info["crossbars"]
            units = [PackedMatrix.integral_unit(xbar) for xbar in crossbars]
            if all(unit is not None for unit in units):
                binarized.layer_computes[index] = (
                    packed_analog_merge_compute(
                        info["partition"], crossbars, units, obs_index=index
                    )
                )

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

    # Computes that folded the threshold comparison into their kernel
    # emit the exact selection bits themselves; tell the network to skip
    # the (now identity) outer binarize pass for those layers.
    binarized.prebinarized = folded_layers(binarized.layer_computes)

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
