"""Matrix homogenization: row partitioning for ADC-less splitting (§4.3).

When a weight matrix is split row-wise into K blocks that each make an
independent threshold decision, accuracy collapses if the blocks are
unbalanced — one block can hoard all the large weights and fire alone.
The paper fixes this off-line by *re-ordering the rows* ("enhancing the
priori knowledge of the weight matrix"): find a partition of the rows
into K equal blocks minimising the total Euclidean distance between the
blocks' column-mean vectors (Equ. 10)

    dist = sum_{i != j} || a_i - a_j ||

where ``a_i`` is the column-wise mean of block i.  The paper notes the
exact problem is a stack of knapsacks (NP-complete), accepts brute force
for small cases, and uses a genetic/heuristic search ("randomly exchange
the position of two vectors") otherwise; it reports 80-90% distance
reduction over natural row order.

This module implements the distance metric, a brute-force exact optimiser
for small matrices, and two stochastic optimisers — either reproduces the
80-90% reduction:

* first-improvement hill climbing: draw a random pair of rows, swap them,
  keep the swap if it lowers the distance.  A swap moves at most two
  blocks, so each candidate recomputes only those blocks' column means,
  the K-1 or 2K-3 pair norms that involve them, and the total — not the
  whole partition.  The result is bit-identical to a full re-score;
* a small genetic algorithm with swap mutations (full re-score per
  child; it is not on the compile path).

Both are deterministic in (matrix, K, method, iterations, population,
seed), so :func:`homogenize` memoizes its partitions per process: every
compile of the same model reuses the first compile's search.
"""

from __future__ import annotations

import hashlib
import math
import threading
from collections import OrderedDict
from dataclasses import dataclass
from itertools import combinations
from typing import List, Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ShapeError

__all__ = [
    "Partition",
    "natural_partition",
    "random_partition",
    "block_mean_distance",
    "homogenize",
    "brute_force_partition",
]


@dataclass(frozen=True)
class Partition:
    """An assignment of matrix rows to K blocks.

    ``order`` is a permutation of row indices; block ``i`` holds rows
    ``order[bounds[i]:bounds[i+1]]``.  Blocks are as equal-sized as
    possible (the hardware blocks are crossbars of the same height).
    """

    order: np.ndarray
    num_blocks: int

    def __post_init__(self) -> None:
        order = np.asarray(self.order)
        if self.num_blocks <= 0:
            raise ConfigurationError(
                f"num_blocks must be positive, got {self.num_blocks}"
            )
        if self.num_blocks > len(order):
            raise ConfigurationError(
                f"cannot split {len(order)} rows into {self.num_blocks} blocks"
            )
        if sorted(order.tolist()) != list(range(len(order))):
            raise ShapeError("order must be a permutation of 0..rows-1")
        object.__setattr__(self, "order", order.astype(np.int64))

    @property
    def num_rows(self) -> int:
        return len(self.order)

    def bounds(self) -> np.ndarray:
        """Start offsets of each block within ``order`` (length K+1)."""
        base, extra = divmod(self.num_rows, self.num_blocks)
        sizes = np.full(self.num_blocks, base, dtype=np.int64)
        sizes[:extra] += 1
        return np.concatenate([[0], np.cumsum(sizes)])

    def blocks(self) -> List[np.ndarray]:
        """Row-index arrays, one per block."""
        bounds = self.bounds()
        return [
            self.order[bounds[i] : bounds[i + 1]]
            for i in range(self.num_blocks)
        ]

    def swapped(self, i: int, j: int) -> "Partition":
        """A new partition with positions i and j of the order exchanged."""
        order = self.order.copy()
        order[i], order[j] = order[j], order[i]
        return Partition(order, self.num_blocks)


def natural_partition(num_rows: int, num_blocks: int) -> Partition:
    """Rows in their natural order, split contiguously."""
    return Partition(np.arange(num_rows), num_blocks)


def random_partition(
    num_rows: int, num_blocks: int, rng: Optional[np.random.Generator] = None
) -> Partition:
    """A uniformly random row order, split contiguously."""
    rng = rng if rng is not None else np.random.default_rng()
    return Partition(rng.permutation(num_rows), num_blocks)


def block_mean_distance(matrix: np.ndarray, partition: Partition) -> float:
    """Equ. 10: total pairwise distance between block column-mean vectors."""
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError(f"matrix must be 2D, got shape {matrix.shape}")
    if matrix.shape[0] != partition.num_rows:
        raise ShapeError(
            f"matrix has {matrix.shape[0]} rows, partition covers "
            f"{partition.num_rows}"
        )
    means = np.stack(
        [_block_mean(matrix, block) for block in partition.blocks()]
    )
    return _total(_pair_norms(means))


# Equ. 10 is built from three operations.  The hill climber updates them
# incrementally and block_mean_distance evaluates them in full; both go
# through these helpers, so a partition scores bit-identically either way.


def _block_mean(matrix: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """Column mean of one block, over its rows in their current order.

    ``np.mean``'s own sum-then-divide without its per-call overhead, so
    it equals ``matrix[rows].mean(axis=0)`` bit for bit.
    """
    return np.add.reduce(matrix[rows], axis=0) / len(rows)


def _pair_norm(a: np.ndarray, b: np.ndarray) -> float:
    """``np.linalg.norm(a - b)`` bit for bit: its 1-D path is
    ``sqrt(x.dot(x))``."""
    d = a - b
    return math.sqrt(d.dot(d))


def _pair_norms(means: np.ndarray) -> np.ndarray:
    """Distance of every block pair, flat in ``combinations`` order."""
    return np.array(
        [
            _pair_norm(means[a], means[b])
            for a, b in combinations(range(len(means)), 2)
        ],
        dtype=np.float64,
    )


def _total(norms: np.ndarray) -> float:
    """Left-to-right sum from 0.0 (``sum`` would compensate on 3.12+)."""
    total = 0.0
    for norm in norms.tolist():
        total += norm
    return total


def brute_force_partition(matrix: np.ndarray, num_blocks: int) -> Partition:
    """Exact minimiser by enumerating all balanced partitions.

    Only feasible for small matrices (about 12 rows); raises
    :class:`ConfigurationError` beyond that — use :func:`homogenize`.
    """
    matrix = np.asarray(matrix, dtype=np.float64)
    num_rows = matrix.shape[0]
    if num_rows > 12:
        raise ConfigurationError(
            f"brute force over {num_rows} rows is intractable; "
            "use homogenize() instead"
        )

    best: Optional[Partition] = None
    best_dist = np.inf
    for order in _balanced_orders(num_rows, num_blocks):
        partition = Partition(np.asarray(order), num_blocks)
        dist = block_mean_distance(matrix, partition)
        if dist < best_dist:
            best_dist = dist
            best = partition
    assert best is not None
    return best


def _balanced_orders(num_rows: int, num_blocks: int):
    """Yield one row order per distinct balanced set-partition."""
    bounds = natural_partition(num_rows, num_blocks).bounds()

    def recurse(remaining: frozenset, block: int):
        if block == num_blocks:
            yield []
            return
        size = int(bounds[block + 1] - bounds[block])
        # Fix the smallest remaining row into this block to avoid counting
        # permutations of equal-sized blocks twice.
        items = sorted(remaining)
        head, rest = items[0], items[1:]
        for companions in combinations(rest, size - 1):
            chosen = (head, *companions)
            for tail in recurse(remaining - set(chosen), block + 1):
                yield list(chosen) + tail

    for order in recurse(frozenset(range(num_rows)), 0):
        yield order


def homogenize(
    matrix: np.ndarray,
    num_blocks: int,
    method: str = "hillclimb",
    iterations: int = 4000,
    population: int = 24,
    seed: int = 0,
) -> Partition:
    """Stochastic minimisation of :func:`block_mean_distance`.

    Parameters
    ----------
    method:
        ``'hillclimb'`` — repeated random pair-swap, keep improvements
        (the paper's "randomly exchange the position of two vectors");
        ``'genetic'`` — a small GA with swap mutation and elitist
        selection.
    iterations:
        Swap attempts (hillclimb) or generations (genetic).

    The search is deterministic, so a seeded call is memoized in-process
    (an LRU keyed on a digest of the matrix and every other argument);
    each call returns its own copy of the partition.
    """
    if iterations < 0:
        raise ConfigurationError(
            f"iterations must be non-negative, got {iterations}"
        )
    if method == "genetic" and population < 2:
        raise ConfigurationError(
            f"the genetic search needs a population of at least 2, got "
            f"{population}"
        )
    matrix = np.asarray(matrix, dtype=np.float64)
    if matrix.ndim != 2:
        raise ShapeError(f"matrix must be 2D, got shape {matrix.shape}")
    if method not in ("hillclimb", "genetic"):
        raise ConfigurationError(
            f"method must be 'hillclimb' or 'genetic', got {method!r}"
        )

    # An unseeded search is not deterministic, so it is never memoized.
    if not isinstance(seed, (int, np.integer)):
        return _search(matrix, num_blocks, method, iterations, population, seed)
    key = (
        hashlib.blake2b(matrix.tobytes(), digest_size=16).digest(),
        matrix.shape, num_blocks, method, iterations, population, seed,
    )
    with _MEMO_LOCK:
        order = _MEMO.get(key)
        if order is not None:
            _MEMO.move_to_end(key)
    if order is not None:
        obs.count("compile/homogenize/hits")
        # Partition copies ``order``, so no caller can reach the entry.
        return Partition(order, num_blocks)
    obs.count("compile/homogenize/misses")
    partition = _search(matrix, num_blocks, method, iterations, population, seed)
    # A racing thread may have stored this key meanwhile; the search is
    # deterministic, so both entries hold the same order.
    with _MEMO_LOCK:
        _MEMO[key] = partition.order.copy()
        _MEMO.move_to_end(key)
        while len(_MEMO) > _MEMO_SIZE:
            _MEMO.popitem(last=False)
    return partition


# Partitions by (matrix digest, shape, K, method, iterations, population,
# seed), least recently used first.  A network has a few split layers,
# so 32 entries cover several models' worth of repeated compiles.
_MEMO_SIZE = 32
_MEMO: "OrderedDict[tuple, np.ndarray]" = OrderedDict()
_MEMO_LOCK = threading.Lock()


def _search(
    matrix: np.ndarray,
    num_blocks: int,
    method: str,
    iterations: int,
    population: int,
    seed,
) -> Partition:
    rng = np.random.default_rng(seed)
    if method == "hillclimb":
        return _hillclimb(matrix, num_blocks, iterations, rng)
    return _genetic(matrix, num_blocks, iterations, population, rng)


def _hillclimb(
    matrix: np.ndarray,
    num_blocks: int,
    iterations: int,
    rng: np.random.Generator,
) -> Partition:
    """First-improvement descent over random pair swaps, each candidate
    scored incrementally (see the module docstring)."""
    num_rows = matrix.shape[0]
    bounds = natural_partition(num_rows, num_blocks).bounds()
    block_of = np.repeat(np.arange(num_blocks), np.diff(bounds)).tolist()
    pairs = list(combinations(range(num_blocks), 2))
    pairs_of = [
        {p for p, pair in enumerate(pairs) if block in pair}
        for block in range(num_blocks)
    ]

    order = np.arange(num_rows, dtype=np.int64)

    def mean_of(block: int) -> np.ndarray:
        return _block_mean(matrix, order[bounds[block] : bounds[block + 1]])

    means = np.stack([mean_of(block) for block in range(num_blocks)])
    norms = _pair_norms(means)
    dist = _total(norms)
    for _ in range(iterations):
        i, j = rng.integers(0, num_rows, size=2)
        if i == j:
            continue
        order[i], order[j] = order[j], order[i]
        touched = {block_of[i], block_of[j]}
        candidate_means = means.copy()
        for block in touched:
            candidate_means[block] = mean_of(block)
        candidate_norms = norms.copy()
        for p in set().union(*(pairs_of[block] for block in touched)):
            a, b = pairs[p]
            candidate_norms[p] = _pair_norm(
                candidate_means[a], candidate_means[b]
            )
        candidate_dist = _total(candidate_norms)
        if candidate_dist < dist:
            means, norms, dist = candidate_means, candidate_norms, candidate_dist
        else:
            order[i], order[j] = order[j], order[i]
    return Partition(order, num_blocks)


def _genetic(
    matrix: np.ndarray,
    num_blocks: int,
    generations: int,
    population: int,
    rng: np.random.Generator,
) -> Partition:
    num_rows = matrix.shape[0]
    pool = [natural_partition(num_rows, num_blocks)] + [
        random_partition(num_rows, num_blocks, rng)
        for _ in range(population - 1)
    ]
    scores = [block_mean_distance(matrix, p) for p in pool]

    for _ in range(generations):
        # Elitist truncation selection: keep the better half, refill with
        # swap-mutated children of random survivors.
        ranked = sorted(range(len(pool)), key=lambda idx: scores[idx])
        survivors = [pool[idx] for idx in ranked[: population // 2]]
        survivor_scores = [scores[idx] for idx in ranked[: population // 2]]
        children = []
        child_scores = []
        while len(survivors) + len(children) < population:
            parent = survivors[int(rng.integers(0, len(survivors)))]
            i, j = rng.integers(0, num_rows, size=2)
            child = parent.swapped(int(i), int(j)) if i != j else parent
            children.append(child)
            child_scores.append(block_mean_distance(matrix, child))
        pool = survivors + children
        scores = survivor_scores + child_scores

    best_index = int(np.argmin(scores))
    return pool[best_index]
