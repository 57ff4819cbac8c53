"""Runtime output-activity estimation: predict-and-skip MVM work.

The paper's "switched by input" structure already drives only the word
lines whose input bit is 1; the row-activity histograms (3-10% mean
activity in the upper layers, BENCH_perf_engine.json) say most of the
*remaining* work still computes column currents whose sense-amp output
bit is a foregone conclusion.  CompRRAE (Chen et al., arXiv 1906.03180)
cuts RRAM CNN computation by estimating output activity at runtime and
stopping early; this module holds the policy and the bound tables that
adapt the idea to both SEI engines:

* **packed engine** — k-conditioned suffix bounds in the integer domain
  of :mod:`repro.core.packed`: min/max partial-sum companion tables per
  8-row byte group (:class:`PackedSuffixBounds`), gathered on the same
  per-group path as the partial sums themselves and conditioned on the
  remaining popcount, so a column retires mid-block once its firing bit
  is provable.
* **fused engine** — the deferred-block vote schedule on split layers
  (in :mod:`repro.core.hardware_network`): blocks run in order on the
  layer's planned operands, and a position whose §4.3 vote is settled
  (enough blocks fired, or the vote is out of reach) never drives its
  remaining block crossbars.  Every other fused layer runs the off path.

Safety argument for ``mode='exact'`` (the bit-identity guarantee):

* On the packed engine the accumulator, the bounds and the §4.3 firing
  thresholds are all exact integers, so ``acc + lo >= F`` /
  ``acc + hi < F`` are theorems about the final accumulator — an early
  decision *is* the final decision.  (The unsplit packed layer, whose
  off-mode comparison happens in float64, uses a widened integer band,
  :func:`packed_fire_band`, and replays the off-mode float arithmetic
  for the handful of accumulators that land inside it.)
* On the fused engine every computed block sum is the off path's own
  dgemm on the same operands; skipping a block whose vote outcome is
  already fixed cannot change the vote, so the emitted bits equal
  ``mode='off'`` by construction.

``mode='threshold'`` is the CompRRAE-style probabilistic variant of the
packed bounds: the tables are scaled by a ``confidence`` knob in
``(0, 1]``, trading bounded, statistically monotone output disagreement
for earlier retirement.  It is packed-only; the fused engine rejects it
at compile time.  See ``docs/engines.md`` for the bound derivations and
:func:`repro.testing.faults.estimator_confidence_sweep` for the
degradation campaign.

This module is deliberately dependency-light (numpy + errors only): the
engines import it, never the other way around.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Tuple

import numpy as np

from repro.errors import ConfigurationError

__all__ = [
    "EstimatorPolicy",
    "MAX_K",
    "SkipStats",
    "PackedSuffixBounds",
    "packed_fire_band",
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
        probabilistic early decision; packed engine only).
    confidence:
        Bound scaling for ``'threshold'`` mode, in ``(0, 1]``.  1.0
        keeps the full interval (no margin, so near-threshold positions
        may still flip); smaller values shrink the interval and decide
        earlier at the cost of more output disagreement.  Ignored by
        ``'exact'``.
    chunk_rows:
        Has no effect; validated (``>= 1``) and kept only so existing
        policy constructions stay valid.
    group_check:
        Packed engine: a decision check runs every ``group_check``
        8-row byte groups.
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
    larger count.  Dtype follows ``parts`` (int64 for the packed engine).
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
    """Integer min/max remaining-sum tables for one packed block.

    The companion tables to :func:`repro.core.packed.build_group_tables`:
    at every decision boundary (a multiple of ``policy.group_check`` byte
    groups into the block) and for every remaining popcount ``k`` (capped
    at :data:`MAX_K`), the least / greatest possible contribution of
    the not-yet-gathered groups to the integer accumulator.  All values
    are exact integers, so on the split path an early decision against
    the §4.3 firing tables is identical to the final one; threshold mode
    scales the tables by ``confidence`` (rounded toward zero, i.e. toward
    earlier decisions).
    """

    def __init__(self, int_rows: np.ndarray, policy: EstimatorPolicy) -> None:
        rows = np.asarray(int_rows, dtype=np.int64)
        if rows.ndim != 2 or rows.shape[0] % 8 != 0:
            raise ConfigurationError(
                f"packed bounds need (8*groups, cols) integer rows, got "
                f"{rows.shape}"
            )
        self.groups = rows.shape[0] // 8
        self.cols = rows.shape[1]
        self.check = policy.group_check
        self.cap = MAX_K
        conf = policy.confidence if policy.mode == "threshold" else 1.0
        self.boundaries: List[int] = list(
            range(self.check, self.groups, self.check)
        )
        self._lo = {}
        self._hi = {}
        for g in self.boundaries:
            suffix = rows[8 * g :]
            lo = _suffix_bound_table(np.minimum(suffix, 0), self.cap)
            hi = _suffix_bound_table(np.maximum(suffix, 0), self.cap)
            if conf < 1.0:
                lo = np.ceil(conf * lo.astype(np.float64)).astype(np.int64)
                hi = np.floor(conf * hi.astype(np.float64)).astype(np.int64)
            self._lo[g] = lo
            self._hi[g] = hi

    def bounds_at(
        self, boundary: int, remaining_popcount: np.ndarray
    ) -> Tuple[np.ndarray, np.ndarray]:
        """``(lo, hi)`` int64 ``(n, cols)`` bounds before group ``boundary``."""
        kk = np.minimum(remaining_popcount, self.cap).astype(np.intp)
        return self._lo[boundary][kk], self._hi[boundary][kk]


def packed_fire_band(
    threshold: float,
    bias: np.ndarray,
    unit: float,
    acc_bound: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """Safe integer band for the packed *unsplit* firing comparison.

    The off-mode unsplit layer compares ``unit * acc + bias_c > T`` in
    float64.  ``acc >= fire_hi`` certainly fires it and
    ``acc <= kill_lo`` certainly does not, under any float64 rounding of
    the off-mode expression (the band is 5 integer steps wide, dwarfing
    the ~eps-scale roundings of ``q`` and of ``unit*acc + bias``);
    accumulators inside the band must replay the off-mode float
    arithmetic.  Returns int64 ``(fire_hi, kill_lo)`` per column.
    """
    bias_vec = np.asarray(bias, dtype=np.float64)
    q = np.floor((float(threshold) - bias_vec) / float(unit))
    lim = float(acc_bound) + 8.0
    fire_hi = np.clip(q + 3.0, -lim, lim).astype(np.int64)
    kill_lo = np.clip(q - 2.0, -lim, lim).astype(np.int64)
    return fire_hi, kill_lo
