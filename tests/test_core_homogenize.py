"""Tests for repro.core.homogenize (Equ. 10 and its optimisers)."""

import importlib
import json
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro import obs
from repro.configs import build_network
from repro.core import (
    Partition,
    block_mean_distance,
    brute_force_partition,
    homogenize,
    natural_partition,
    random_partition,
)
from repro.core.engines import EngineSpec, compile_network
from repro.core.homogenize import _block_mean, _pair_norm
from repro.core.matrix_compute import layer_weight_matrix
from repro.core.splitting import required_blocks
from repro.errors import ConfigurationError, ShapeError
from repro.nn import Conv2D, Dense
from repro.zoo import quantized_cache_paths

# The module, not the function that ``repro.core`` re-exports under its name.
homogenize_module = importlib.import_module("repro.core.homogenize")


@pytest.fixture(autouse=True)
def uncached(monkeypatch):
    """Empty the partition memo and hold it empty, so every homogenize()
    call in this module runs the search itself (the memo tests below
    re-enable it through the ``memo`` fixture)."""
    homogenize_module._MEMO.clear()
    monkeypatch.setattr(homogenize_module, "_MEMO_SIZE", 0)
    yield
    homogenize_module._MEMO.clear()


@pytest.fixture
def memo(uncached, monkeypatch):
    """A cold memo of the production size."""
    monkeypatch.setattr(homogenize_module, "_MEMO_SIZE", 32)


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


_finite = st.floats(-1e6, 1e6, allow_nan=False, width=64)


@settings(max_examples=60, deadline=None)
@given(
    pair=st.integers(1, 40).flatmap(
        lambda n: st.tuples(
            hnp.arrays(np.float64, n, elements=_finite),
            hnp.arrays(np.float64, n, elements=_finite),
        )
    )
)
def test_pair_norm_is_numpy_norm_bit_for_bit(pair):
    """The climber's helpers are the pin tests' own scoring, so only this
    test can see a helper drift from NumPy's ``norm``."""
    a, b = pair
    assert _pair_norm(a, b).hex() == float(np.linalg.norm(a - b)).hex()


@settings(max_examples=60, deadline=None)
@given(
    matrix=hnp.arrays(
        np.float64,
        st.tuples(st.integers(1, 30), st.integers(1, 9)),
        elements=_finite,
    ),
    data=st.data(),
)
def test_block_mean_is_numpy_mean_bit_for_bit(matrix, data):
    """Any block of rows, 1-row blocks and repeated rows included."""
    rows = np.asarray(
        data.draw(
            st.lists(
                st.integers(0, matrix.shape[0] - 1),
                min_size=1,
                max_size=matrix.shape[0],
            )
        ),
        dtype=np.int64,
    )
    expected = matrix[rows].mean(axis=0)
    got = _block_mean(matrix, rows)
    assert got.dtype == expected.dtype and got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


def _counters(rec):
    counters = rec.metrics.as_dict()["counters"]
    return (
        counters.get("compile/homogenize/hits", 0),
        counters.get("compile/homogenize/misses", 0),
    )


@pytest.mark.usefixtures("memo")
class TestPartitionMemo:
    """homogenize() memoizes seeded searches per process."""

    ARGS = dict(method="hillclimb", iterations=300, population=24, seed=3)

    def test_hit_equals_the_uncached_search_and_is_a_copy(self, rng):
        matrix = rng.normal(size=(40, 5))
        cold = homogenize_module._search(matrix, 4, **self.ARGS)
        with obs.recording() as rec:
            first = homogenize(matrix, 4, **self.ARGS)
            first.order[:] = 0
            second = homogenize(matrix, 4, **self.ARGS)
            second.order[:2] = second.order[1::-1]
            third = homogenize(matrix, 4, **self.ARGS)
        assert _counters(rec) == (2, 1)
        np.testing.assert_array_equal(third.order, cold.order)
        assert third.num_blocks == 4
        assert third.order is not second.order

    def test_genetic_is_memoized_too(self, rng):
        matrix = rng.normal(size=(12, 3))
        args = dict(method="genetic", iterations=20, population=6, seed=1)
        cold = homogenize_module._search(matrix, 3, **args)
        with obs.recording() as rec:
            homogenize(matrix, 3, **args)
            hit = homogenize(matrix, 3, **args)
        assert _counters(rec) == (1, 1)
        np.testing.assert_array_equal(hit.order, cold.order)

    @pytest.mark.parametrize(
        "change",
        ["element", "shape", "num_blocks", "method", "iterations",
         "population", "seed"],
    )
    def test_any_changed_input_misses(self, rng, change):
        matrix = rng.normal(size=(24, 6))
        args = dict(self.ARGS, num_blocks=4)
        homogenize(matrix, **args)
        if change == "element":
            matrix = matrix.copy()
            matrix[5, 2] = np.nextafter(matrix[5, 2], np.inf)
        elif change == "shape":
            # Same bytes, other shape: only the shape tells them apart.
            matrix = matrix.reshape(48, 3)
        elif change == "method":
            args.update(method="genetic", iterations=5)
            homogenize(matrix, **dict(args, method="hillclimb"))
        elif change == "num_blocks":
            args["num_blocks"] = 3
        elif change == "iterations":
            args["iterations"] += 1
        elif change == "population":
            args["population"] += 1
        elif change == "seed":
            args["seed"] += 1
        with obs.recording() as rec:
            got = homogenize(matrix, **args)
        assert _counters(rec) == (0, 1)
        search_args = {k: v for k, v in args.items() if k != "num_blocks"}
        np.testing.assert_array_equal(
            got.order,
            homogenize_module._search(
                matrix, args["num_blocks"], **search_args
            ).order,
        )

    def test_unseeded_search_is_not_memoized(self, rng):
        matrix = rng.normal(size=(10, 2))
        with obs.recording() as rec:
            homogenize(matrix, 2, iterations=10, seed=None)
            homogenize(matrix, 2, iterations=10, seed=None)
        assert _counters(rec) == (0, 0)
        assert len(homogenize_module._MEMO) == 0

    def test_invalid_arguments_raise_on_a_warm_memo(self, rng):
        matrix = rng.normal(size=(12, 3))
        homogenize(matrix, 3, **self.ARGS)
        bad = [
            (ConfigurationError, dict(self.ARGS, iterations=-1)),
            (ConfigurationError, dict(self.ARGS, method="anneal")),
            (
                ConfigurationError,
                dict(self.ARGS, method="genetic", population=1),
            ),
        ]
        for error, args in bad:
            with pytest.raises(error):
                homogenize(matrix, 3, **args)
        with pytest.raises(ShapeError):
            homogenize(matrix.ravel(), 3, **self.ARGS)
        for blocks in (0, 13):
            with pytest.raises(ConfigurationError):
                homogenize(matrix, blocks, **self.ARGS)
            with pytest.raises(ConfigurationError):
                homogenize(matrix, blocks, **self.ARGS)
        assert len(homogenize_module._MEMO) == 1

    def test_concurrent_callers_get_the_same_partition(self, rng):
        matrix = rng.normal(size=(60, 4))
        cold = homogenize_module._search(matrix, 3, **self.ARGS)
        with ThreadPoolExecutor(max_workers=4) as pool:
            orders = list(
                pool.map(
                    lambda _: homogenize(matrix, 3, **self.ARGS).order,
                    range(8),
                )
            )
        for order in orders:
            np.testing.assert_array_equal(order, cold.order)
        assert len({id(order) for order in orders}) == len(orders)
        assert len(homogenize_module._MEMO) == 1

    def test_least_recently_used_entry_is_evicted(self, rng, monkeypatch):
        monkeypatch.setattr(homogenize_module, "_MEMO_SIZE", 2)
        matrices = [rng.normal(size=(8, 2)) for _ in range(3)]
        homogenize(matrices[0], 2, iterations=5)
        homogenize(matrices[1], 2, iterations=5)
        homogenize(matrices[0], 2, iterations=5)  # now most recent
        homogenize(matrices[2], 2, iterations=5)  # evicts matrices[1]
        with obs.recording() as rec:
            homogenize(matrices[0], 2, iterations=5)
            homogenize(matrices[1], 2, iterations=5)
        assert _counters(rec) == (1, 1)

    def test_recompiling_network1_searches_once_per_split_layer(self):
        network = build_network("network1")
        weights, sidecar = quantized_cache_paths("network1")
        network.load(weights)
        thresholds = {
            int(k): v
            for k, v in json.loads(sidecar.read_text())["thresholds"].items()
        }
        with obs.recording() as rec:
            fused = compile_network(network, thresholds, EngineSpec("fused"))
            reference = compile_network(
                network, thresholds, EngineSpec("reference")
            )
        def partitions(compiled):
            return {
                index: (record.get("partition") or record["matrix"].partition)
                for index, record in compiled.hardware_layers.items()
                if record["kind"] in ("split", "analog_merge")
            }

        split = partitions(fused)
        assert sorted(split) == [3, 7]
        assert _counters(rec) == (2, 2)
        for index, partition in partitions(reference).items():
            np.testing.assert_array_equal(partition.order, split[index].order)
