"""Runtime output-activity estimation: price the skippable MVM work.

The paper's "switched by input" structure already drives only the word
lines whose input bit is 1; the row-activity histograms (3-10% mean
activity in the upper layers, BENCH_perf_engine.json) say most of the
*remaining* work still computes column currents whose sense-amp output
bit is a foregone conclusion.  CompRRAE (Chen et al., arXiv 1906.03180)
cuts RRAM CNN computation by estimating output activity at runtime and
stopping early.  The simulator does not have to execute that skipping
to price it: this module holds the policy, the bound tables and one
accounting pass (:class:`SkipPass`) that counts what the hardware would
skip, run by the fused engine's certified integer kernels.

An estimated layer runs its certified integer kernel
(:mod:`repro.core.integer_gemm`) and, next to it, the pass on the same
integer operands and firing tables.  Per block the pass takes segment
sums at every ``policy.group_check`` byte-group boundary (one batched
float32 GEMM, exact below 2**24), accumulates them, and decides a
column at the first boundary where ``acc + lo >= F`` (it provably
fires) or ``acc + hi <= F - 1`` (it provably stays silent).  ``lo`` /
``hi`` are k-conditioned suffix bounds (:class:`PackedSuffixBounds`:
the least / greatest contribution of the remaining rows given ``k`` of
them are active) and ``F`` the certified minimal firing accumulator.  A
position whose every column is decided stops driving the block's
remaining rows; a position whose §4.3 vote is settled on every column
(enough blocks fired, or the vote is out of reach) skips its remaining
blocks.  An unsplit layer is the one-block case.

* ``mode='exact'``: accumulator, bounds and tables are exact integers,
  so an early decision *is* the final decision and the outputs come
  from the off kernel unchanged.  The per-block reads follow from the
  block-level vote settle on every call (:func:`vote_reads`); the
  skip counters and the sense-amp events are a callable the recorder
  evaluates, so the pass runs only while a recorder is on.
* ``mode='threshold'``: the bound tables are scaled by a
  ``confidence`` knob in ``(0, 1]``, trading bounded, statistically
  monotone output disagreement for earlier decisions.
  The pass runs on every call and supplies the outputs: the decision
  at the first settled boundary, else the certified decision on the
  complete accumulator.

Layers that do not certify (programming variation, per-read noise) run
the off kernel under an enabled policy: no skip counters, every block
read.  See ``docs/engines.md`` for the derivations and
:func:`repro.testing.faults.estimator_confidence_sweep` for the
threshold-mode degradation campaign.

This module is deliberately dependency-light (numpy + errors only): the
engines import it, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "EstimatorPolicy",
    "MAX_K",
    "SkipStats",
    "PackedSuffixBounds",
    "SkipPass",
    "vote_reads",
]

_MODES = ("off", "exact", "threshold")

#: Depth of the k-conditioned suffix tables: remaining-active counts
#: above it fall back to the unconditioned suffix bound.
MAX_K = 32


@dataclass(frozen=True)
class EstimatorPolicy:
    """How aggressively the engines may decide output bits early.

    Parameters
    ----------
    mode:
        ``'off'`` (default; engines run their unmodified paths),
        ``'exact'`` (provable early decisions: emitted bits are
        bit-identical to ``'off'``) or ``'threshold'`` (CompRRAE-style
        probabilistic early decision on the fused engine).
    confidence:
        Bound scaling for ``'threshold'`` mode, in ``(0, 1]``.  1.0
        keeps the full interval (no margin, so near-threshold positions
        may still flip); smaller values shrink the interval and decide
        earlier at the cost of more output disagreement.  Ignored by
        ``'exact'``.
    chunk_rows:
        Has no effect; validated (``>= 1``).  It stays because the
        end-to-end benchmark's ``fused_est``/``fused_ckpt`` variants
        still construct policies with it, and it can go only together
        with them.
    group_check:
        A decision check runs every ``group_check`` 8-row byte groups
        of a block.
    """

    mode: str = "off"
    confidence: float = 1.0
    chunk_rows: int = 32
    group_check: int = 2

    def __post_init__(self) -> None:
        if self.mode not in _MODES:
            raise ConfigurationError(
                f"estimator mode must be one of {', '.join(_MODES)}; "
                f"got {self.mode!r}"
            )
        if not (0.0 < float(self.confidence) <= 1.0):
            raise ConfigurationError(
                f"estimator confidence must lie in (0, 1], got "
                f"{self.confidence}"
            )
        if self.chunk_rows < 1 or self.group_check < 1:
            raise ConfigurationError(
                "chunk_rows and group_check must both be >= 1"
            )

    @property
    def enabled(self) -> bool:
        return self.mode != "off"

    @property
    def exact(self) -> bool:
        return self.mode == "exact"


@dataclass
class SkipStats:
    """Work the estimator avoided (or certified) in one crossbar call.

    ``skipped_rows`` counts *active* rows (input bit 1) whose word-line
    drive / cell reads were skipped — the energy-relevant quantity the
    power model prices.  ``skipped_slots`` counts raw row positions
    regardless of activity.  ``est_positions`` is the number of
    (position, column[, block]) decisions the estimator owned and
    ``est_decided`` how many it closed early (while skippable rows
    remained) — their ratio is the estimator hit rate surfaced on the
    dashboard.
    """

    skipped_rows: int = 0
    skipped_slots: int = 0
    est_positions: int = 0
    est_decided: int = 0


def _suffix_bound_table(parts: np.ndarray, cap: int) -> np.ndarray:
    """Cumulative extreme-first sums: row ``k`` bounds any k-row subset.

    ``parts`` is ``(S, cols)`` of same-sign values (the negative or
    positive part of the remaining weight rows).  Row ``k`` of the
    returned ``(cap+1, cols)`` table is the sum of the ``k`` largest-
    magnitude entries per column — the extreme possible contribution of
    exactly ``k`` active remaining rows; rows beyond the table depth
    hold the full column sum, a sound (unconditioned) bound for any
    larger count.  Dtype follows ``parts`` (int64 for the integer kernels).
    """
    cols = parts.shape[1]
    table = np.zeros((cap + 1, cols), dtype=parts.dtype)
    size = parts.shape[0]
    if size == 0:
        return table
    # Ascending sort puts the most negative first; flip for positives.
    ordered = np.sort(parts, axis=0)
    if parts.max(initial=0) > 0:
        ordered = ordered[::-1]
    csum = np.cumsum(ordered, axis=0)
    depth = min(cap - 1, size)
    if depth > 0:
        table[1 : depth + 1] = csum[:depth]
    table[depth + 1 :] = csum[size - 1]
    return table


class PackedSuffixBounds:
    """Integer min/max remaining-sum tables for one crossbar block.

    At every decision boundary (a multiple of ``policy.group_check``
    8-row byte groups into the block) and for every remaining active
    count ``k`` (capped at :data:`MAX_K`), the least / greatest possible
    contribution of the rows after the boundary to the integer
    accumulator.  All values are exact integers, so an early decision
    against a certified firing table is identical to the final one;
    threshold mode scales the tables by ``confidence`` (rounded toward
    zero, i.e. toward earlier decisions).  ``lo`` / ``hi`` stack the
    tables as ``(boundaries, MAX_K + 1, cols)``: ``lo[i][min(k, MAX_K)]``
    bounds the rows after ``boundaries[i]`` when ``k`` of them are active.
    """

    def __init__(self, int_rows: np.ndarray, policy: EstimatorPolicy) -> None:
        rows = np.asarray(int_rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] % 8 != 0:
            raise ConfigurationError(
                f"packed bounds need (8*groups, cols) integer rows, got "
                f"{rows.shape}"
            )
        check = policy.group_check
        self.cap = MAX_K
        conf = policy.confidence if policy.mode == "threshold" else 1.0
        self.boundaries: List[int] = list(
            range(check, rows.shape[0] // 8, check)
        )
        shape = (len(self.boundaries), self.cap + 1, rows.shape[1])
        self.lo = np.zeros(shape, dtype=np.int64)
        self.hi = np.zeros(shape, dtype=np.int64)
        for i, g in enumerate(self.boundaries):
            suffix = rows[8 * g :]
            lo = _suffix_bound_table(np.minimum(suffix, 0), self.cap)
            hi = _suffix_bound_table(np.maximum(suffix, 0), self.cap)
            if conf < 1.0:
                lo = np.ceil(conf * lo.astype(np.float64)).astype(np.int64)
                hi = np.floor(conf * hi.astype(np.float64)).astype(np.int64)
            self.lo[i], self.hi[i] = lo, hi


def vote_reads(fired: np.ndarray, vote: int) -> np.ndarray:
    """Reads per block under the §4.3 vote settle, ``(K,)`` int64.

    ``fired`` is the ``(K, n, cols)`` 0/1 block decisions.  Block ``k``
    is read by every position whose vote is still open on some column
    after blocks ``0..k-1``: fewer than ``vote`` fired and the vote
    still in reach.  Settling is monotone, so the remaining blocks of a
    settled position are never driven.
    """
    blocks, n = fired.shape[:2]
    reads = np.full(blocks, n, dtype=np.int64)
    counts = np.zeros(fired.shape[1:], dtype=np.uint8)
    for k in range(1, blocks):
        counts += fired[k - 1]
        remaining = blocks - k
        # A vote settles only once it is reached (k >= vote) or out of
        # reach (remaining < vote).
        if k >= vote or remaining < vote:
            settled = (counts >= vote) | (counts + remaining < vote)
            reads[k] = n - int(settled.all(axis=1).sum())
    return reads


#: Bytes of float32 segment sums per chunk of the accounting pass.
_PASS_BYTES = 4 << 20


class SkipPass:
    """The skip accounting of one estimated layer.

    Called with a certified :class:`repro.core.integer_gemm.IntegerLayer`
    and the planned ``(n, K, H)`` 0/1 rows, it returns the fired-block
    counts under the settle semantics (§4.3 vote cells already settled
    do not count later blocks; ``counts >= vote`` is the layer's
    output), the :class:`SkipStats`, the sense-amp comparisons that ran
    (owned decisions minus early ones) and the per-block reads.  An
    unsplit layer is one block with ``vote=1``.  In exact mode the
    counts give the off kernel's plane; in threshold mode they are the
    layer's outputs.
    """

    def __init__(self, policy: EstimatorPolicy, vote: int = 1) -> None:
        self.policy = policy
        self.vote = int(vote)
        self.exact = policy.exact
        self._operands: Optional[tuple] = None

    def _compile(self, layer) -> tuple:
        """Segment weights and stacked bounds of ``layer``, cached per
        certified generation."""
        cached = self._operands
        if cached is not None and cached[0] is layer:
            return cached
        blocks, height = layer.weights.shape[:2]
        cols = layer.cols
        groups = -(-height // 8)
        ints = np.zeros((blocks, 8 * groups, cols), dtype=np.int64)
        ints[:, :height] = layer.weights[:, :, :cols]
        bounds = [PackedSuffixBounds(block, self.policy) for block in ints]
        boundaries = np.asarray(bounds[0].boundaries, dtype=np.int64)
        # Segments end at the boundaries: ``span`` rows each, the last
        # one short.  The extra all-ones column counts active rows.
        span = 8 * self.policy.group_check if len(boundaries) else height
        segments = len(boundaries) + 1
        weights = np.zeros(
            (blocks, segments * span, cols + 1), dtype=np.float32
        )
        weights[:, :height, :cols] = layer.weights[:, :, :cols]
        weights[:, :height, cols] = 1.0
        weights = weights.reshape(blocks, segments, span, cols + 1)
        # Per boundary and remaining count: ``acc - F`` at or above
        # ``-lo`` fires, at or below ``-1 - hi`` stays silent.
        limits = np.concatenate(
            [
                -np.stack([b.lo for b in bounds]),
                -1 - np.stack([b.hi for b in bounds]),
            ],
            axis=-1,
        ).astype(np.float32)
        self._operands = cached = (
            layer, weights, limits, boundaries, 8 * groups,
        )
        return cached

    def __call__(self, layer, rows: np.ndarray):
        _, weights, limits, boundaries, slots = self._compile(layer)
        n, blocks, height = rows.shape
        cols = layer.cols
        segments, span = weights.shape[1:3]
        counts = np.zeros((n, cols), dtype=np.uint8)
        stats = SkipStats()
        reads = np.zeros(blocks, dtype=np.int64)
        chunk = max(1, _PASS_BYTES // (4 * segments * (cols + 1)))
        buf = np.zeros((min(n, chunk), segments * span), dtype=np.float32)
        for start in range(0, n, chunk):
            stop = min(n, start + chunk)
            self._chunk(
                layer, rows[start:stop], counts[start:stop], stats, reads,
                buf[: stop - start], weights, limits, boundaries, slots,
            )
        return counts, stats, stats.est_positions - stats.est_decided, reads

    def _chunk(self, layer, rows, counts, stats, reads, buf, weights,
               limits, boundaries, slots) -> None:
        m, blocks, height = rows.shape
        cols = layer.cols
        vote = self.vote
        segments, span = weights.shape[1:3]
        checks = len(boundaries)
        ones = rows.sum(axis=2, dtype=np.int64)
        alive = np.ones(m, dtype=bool)
        settled = np.zeros((m, cols), dtype=bool)
        for k in range(blocks):
            live = int(alive.sum())
            reads[k] += live
            if live == 0:
                break
            buf[:, :height] = rows[:, k]
            # (segments, m, cols + 1) prefix sums at every boundary; the
            # last one is the complete accumulator.
            acc = np.matmul(
                buf.reshape(m, segments, span).transpose(1, 0, 2),
                weights[k],
            )
            for i in range(1, segments):
                acc[i] += acc[i - 1]
            fire_at = (
                layer.tables[k, 0] if layer.static
                else layer.tables[k][ones[:, k]]
            )
            margin = acc[:, :, :cols] - fire_at
            # ``first`` counts the boundaries a column stays open after:
            # the index of its deciding boundary, ``checks`` if none.
            first = np.zeros((m, cols), dtype=np.int16)
            early = np.zeros((m, cols), dtype=bool)
            open_ = np.ones((m, cols), dtype=bool)
            for i in range(checks):
                kk = np.minimum(
                    ones[:, k] - acc[i, :, cols].astype(np.int64), MAX_K
                )
                bound = limits[k, i][kk]
                fire = margin[i] >= bound[:, :cols]
                closed = margin[i] <= bound[:, cols:]
                closed |= fire
                if not self.exact:
                    early |= fire & open_
                np.greater(open_, closed, out=open_)
                first += open_
            decided = ~open_
            fired = margin[-1] >= 0
            if not self.exact:
                fired = np.where(decided, early, fired)
            care = ~settled
            care &= alive[:, None]
            stats.est_positions += int(care.sum())
            stats.est_decided += int((care & decided).sum())
            # A position stops driving the block at the boundary where
            # its last cared-for column is decided.
            done_at = np.where(care, first, -1).max(axis=1)
            stop = alive & (done_at < checks)
            if stop.any():
                at = done_at[stop]
                stats.skipped_rows += int(
                    (ones[stop, k] - acc[at, np.flatnonzero(stop), cols]).sum()
                )
                stats.skipped_slots += int((slots - 8 * boundaries[at]).sum())
            counts += fired & care
            remaining = blocks - 1 - k
            settled |= (counts >= vote) | (counts + remaining < vote)
            if remaining:
                done = alive & settled.all(axis=1)
                if done.any():
                    stats.skipped_rows += int(ones[done, k + 1 :].sum())
                    stats.skipped_slots += (
                        int(done.sum()) * remaining * slots
                    )
                    alive &= ~done
