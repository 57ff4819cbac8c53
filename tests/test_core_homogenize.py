"""Tests for repro.core.homogenize (Equ. 10 and its optimisers)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import build_network
from repro.core import (
    Partition,
    block_mean_distance,
    brute_force_partition,
    homogenize,
    natural_partition,
    random_partition,
)
from repro.core.matrix_compute import layer_weight_matrix
from repro.core.splitting import required_blocks
from repro.errors import ConfigurationError, ShapeError
from repro.nn import Conv2D, Dense
from repro.zoo import quantized_cache_paths


class TestPartition:
    def test_balanced_bounds(self):
        p = natural_partition(10, 3)
        blocks = p.blocks()
        assert [len(b) for b in blocks] == [4, 3, 3]
        assert sorted(np.concatenate(blocks).tolist()) == list(range(10))

    def test_exact_division(self):
        p = natural_partition(9, 3)
        assert [len(b) for b in p.blocks()] == [3, 3, 3]

    def test_invalid_num_blocks(self):
        with pytest.raises(ConfigurationError):
            Partition(np.arange(5), 0)
        with pytest.raises(ConfigurationError):
            Partition(np.arange(5), 6)

    def test_order_must_be_permutation(self):
        with pytest.raises(ShapeError):
            Partition(np.array([0, 0, 1]), 2)

    def test_swapped(self):
        p = natural_partition(5, 2)
        q = p.swapped(0, 4)
        assert q.order[0] == 4 and q.order[4] == 0
        # Original unchanged.
        assert p.order[0] == 0

    def test_random_partition_is_permutation(self, rng):
        p = random_partition(20, 4, rng)
        assert sorted(p.order.tolist()) == list(range(20))


class TestBlockMeanDistance:
    def test_identical_blocks_zero_distance(self):
        matrix = np.tile(np.array([[1.0, 2.0]]), (6, 1))
        p = natural_partition(6, 3)
        assert block_mean_distance(matrix, p) == pytest.approx(0.0)

    def test_known_value(self):
        matrix = np.array([[0.0], [0.0], [1.0], [1.0]])
        p = natural_partition(4, 2)
        # Block means are 0 and 1 -> single pair distance 1.
        assert block_mean_distance(matrix, p) == pytest.approx(1.0)

    def test_pairwise_sum(self):
        matrix = np.array([[0.0], [1.0], [2.0]])
        p = natural_partition(3, 3)
        # Pairs: |0-1| + |0-2| + |1-2| = 4.
        assert block_mean_distance(matrix, p) == pytest.approx(4.0)

    def test_invariant_to_within_block_order(self, rng):
        matrix = rng.normal(size=(12, 5))
        p = natural_partition(12, 3)
        order = p.order.copy()
        order[0], order[1] = order[1], order[0]  # same block
        q = Partition(order, 3)
        assert block_mean_distance(matrix, p) == pytest.approx(
            block_mean_distance(matrix, q)
        )

    def test_shape_checks(self, rng):
        with pytest.raises(ShapeError):
            block_mean_distance(rng.normal(size=12), natural_partition(12, 3))
        with pytest.raises(ShapeError):
            block_mean_distance(
                rng.normal(size=(10, 2)), natural_partition(12, 3)
            )


class TestBruteForce:
    def test_finds_global_optimum(self):
        """Rows constructed so the optimal pairing is {big,small} per block."""
        matrix = np.array([[10.0], [0.0], [10.0], [0.0], [10.0], [0.0]])
        best = brute_force_partition(matrix, 3)
        assert block_mean_distance(matrix, best) == pytest.approx(0.0)

    def test_beats_or_ties_every_random_partition(self, rng):
        matrix = rng.normal(size=(8, 3))
        best = brute_force_partition(matrix, 2)
        best_dist = block_mean_distance(matrix, best)
        for _ in range(50):
            p = random_partition(8, 2, rng)
            assert best_dist <= block_mean_distance(matrix, p) + 1e-12

    def test_too_large_rejected(self, rng):
        with pytest.raises(ConfigurationError):
            brute_force_partition(rng.normal(size=(20, 2)), 2)


class TestHomogenize:
    def test_hillclimb_reduces_distance(self, rng):
        # Heterogeneous rows: natural order clusters large rows together.
        matrix = np.concatenate(
            [rng.normal(5.0, 0.1, size=(10, 4)), rng.normal(0.0, 0.1, size=(10, 4))]
        )
        natural = block_mean_distance(matrix, natural_partition(20, 2))
        optimised = homogenize(matrix, 2, iterations=2000, seed=0)
        assert block_mean_distance(matrix, optimised) < 0.2 * natural

    def test_genetic_reduces_distance(self, rng):
        matrix = np.concatenate(
            [rng.normal(3.0, 0.1, size=(9, 3)), rng.normal(0.0, 0.1, size=(9, 3))]
        )
        natural = block_mean_distance(matrix, natural_partition(18, 3))
        optimised = homogenize(matrix, 3, method="genetic", iterations=150, seed=0)
        assert block_mean_distance(matrix, optimised) < natural

    def test_paper_band_80_90_percent_reduction(self, rng):
        """§4.3: fine-trained matrices see ~80-90% distance reduction."""
        matrix = rng.lognormal(0.0, 1.0, size=(60, 8))
        natural = block_mean_distance(matrix, natural_partition(60, 3))
        optimised = homogenize(matrix, 3, iterations=4000, seed=1)
        reduction = 1 - block_mean_distance(matrix, optimised) / natural
        assert reduction > 0.5

    def test_unknown_method(self, rng):
        with pytest.raises(ConfigurationError):
            homogenize(rng.normal(size=(6, 2)), 2, method="anneal")

    def test_result_is_valid_partition(self, rng):
        matrix = rng.normal(size=(15, 4))
        p = homogenize(matrix, 4, iterations=200, seed=0)
        assert p.num_blocks == 4
        assert sorted(p.order.tolist()) == list(range(15))

    @pytest.mark.parametrize("method", ["hillclimb", "genetic"])
    def test_negative_iterations_rejected(self, rng, method):
        with pytest.raises(ConfigurationError, match="iterations"):
            homogenize(rng.normal(size=(6, 2)), 2, method=method, iterations=-5)

    @pytest.mark.parametrize("population", [-1, 0, 1])
    def test_genetic_population_below_two_rejected(self, rng, population):
        with pytest.raises(ConfigurationError, match="population"):
            homogenize(
                rng.normal(size=(6, 2)),
                2,
                method="genetic",
                iterations=3,
                population=population,
            )

    def test_zero_iterations_is_natural_order(self, rng):
        p = homogenize(rng.normal(size=(9, 2)), 3, iterations=0)
        np.testing.assert_array_equal(p.order, np.arange(9))


def _full_rescore_hillclimb(matrix, num_blocks, iterations, seed):
    """The optimiser as it was before incremental scoring: every candidate
    swap is re-scored over the whole partition.  Kept here as the oracle
    the incremental loop must reproduce swap for swap."""
    rng = np.random.default_rng(seed)
    current = natural_partition(matrix.shape[0], num_blocks)
    current_dist = block_mean_distance(matrix, current)
    for _ in range(iterations):
        i, j = rng.integers(0, matrix.shape[0], size=2)
        if i == j:
            continue
        candidate = current.swapped(int(i), int(j))
        dist = block_mean_distance(matrix, candidate)
        if dist < current_dist:
            current, current_dist = candidate, dist
    return current


class TestIncrementalHillclimbMatchesFullRescore:
    """The incremental loop must accept exactly the swaps a full re-score
    accepts: same floats, same comparisons, same returned order."""

    @pytest.mark.parametrize(
        "rows, blocks, iterations",
        [
            (36, 2, (0, 1, 300, 2000)),
            (101, 3, (0, 1, 300)),  # ragged: 101 % 3 == 2
            (250, 7, (0, 1, 300)),  # ragged: 250 % 7 == 5
            (256, 16, (1, 150)),
            (1024, 32, (1, 40)),
            (70, 32, (1, 40)),  # ragged: blocks of 3 and 2 rows
        ],
    )
    def test_random_matrices(self, rows, blocks, iterations, derived_rng):
        matrix = derived_rng(rows, blocks).normal(size=(rows, 6))
        for seed in (0, 1, 2):
            for count in iterations:
                np.testing.assert_array_equal(
                    homogenize(matrix, blocks, iterations=count, seed=seed).order,
                    _full_rescore_hillclimb(matrix, blocks, count, seed).order,
                    err_msg=f"seed={seed} iterations={count}",
                )

    @pytest.mark.parametrize("name", ["network1", "network2", "network3"])
    def test_split_layers_of_the_paper_networks(self, name):
        network = build_network(name)
        network.load(quantized_cache_paths(name)[0])
        weighted = [
            layer for layer in network.layers if isinstance(layer, (Conv2D, Dense))
        ]
        checked = 0
        for crossbar in (512, 128):
            for layer in weighted[1:]:
                matrix = layer_weight_matrix(layer)
                blocks = required_blocks(matrix.shape[0], crossbar)
                if blocks <= 1:
                    continue
                iterations = 300 if blocks < 32 else 60
                np.testing.assert_array_equal(
                    homogenize(matrix, blocks, iterations=iterations).order,
                    _full_rescore_hillclimb(matrix, blocks, iterations, 0).order,
                    err_msg=f"{name} crossbar={crossbar} blocks={blocks}",
                )
                checked += 1
        assert checked >= 3


@settings(max_examples=20, deadline=None)
@given(
    rows=st.integers(4, 20),
    blocks=st.integers(2, 4),
    seed=st.integers(0, 100),
)
def test_homogenize_never_worse_than_natural_property(rows, blocks, seed):
    """Hill climbing starts from natural order, so it can only improve."""
    if blocks > rows:
        return
    gen = np.random.default_rng(seed)
    matrix = gen.normal(size=(rows, 3))
    natural = block_mean_distance(matrix, natural_partition(rows, blocks))
    optimised = homogenize(matrix, blocks, iterations=300, seed=seed)
    assert block_mean_distance(matrix, optimised) <= natural + 1e-12
