"""Equivalence tests: fused compute engines vs the retained references.

The fused kernels (SEI slice collapse, split-block stacking, analog
merge concatenation, Algorithm 1's rescoring candidate scan) must agree
with the pre-fusion implementations that are kept as oracles:

* identical results where the arithmetic is unchanged (the threshold
  search computes the same 0/1-row dot products, only fewer of them,
  and must produce the same thresholds, scores and curves), and
* tight ``allclose`` agreement plus identical RNG streams where partial
  sums are re-associated (merging K slice matmuls into one matmul
  changes only the floating-point summation order).
"""

import numpy as np
import pytest

from repro.core.dynamic_threshold import DynamicThresholdMatrix
from repro.core.hardware_network import (
    HardwareConfig,
    HardwareSplitMatrix,
    assemble_sei_network,
)
from repro.core.homogenize import natural_partition
from repro.core.matrix_compute import ensure_binary
from repro.core.sei import SEIMatrix
from repro.core.splitting import SplitDecision
from repro.core.threshold_search import SearchConfig, search_thresholds
from repro.errors import ShapeError
from repro.hw.device import RRAMDevice

TIGHT = dict(rtol=1e-9, atol=1e-12)


def _random_bits(rng, n, rows):
    return (rng.random((n, rows)) > 0.6).astype(np.float64)


class TestSEIMatrixEquivalence:
    def _pair(self, device, seed=0, rows=40, cols=12, ir=0.0):
        """Two identically-programmed crossbars with twin RNG streams."""
        weights = np.random.default_rng(99).normal(size=(rows, cols))
        make = lambda: SEIMatrix(
            weights,
            device=device,
            ir_drop_lambda=ir,
            rng=np.random.default_rng(seed),
        )
        return make(), make()

    def test_noiseless_fused_matches_reference(self, rng):
        fused, reference = self._pair(RRAMDevice(bits=4), ir=0.3)
        assert fused.fused_matrix is not None
        bits = _random_bits(rng, 16, 40)
        np.testing.assert_allclose(
            fused.compute(bits), reference.compute_reference(bits), **TIGHT
        )

    def test_programming_noise_seeded_agreement(self, rng):
        device = RRAMDevice(bits=4, program_sigma=0.4)
        fused, reference = self._pair(device, seed=5)
        bits = _random_bits(rng, 16, 40)
        np.testing.assert_allclose(
            fused.compute(bits), reference.compute_reference(bits), **TIGHT
        )

    def test_read_noise_identical_rng_streams(self, rng):
        device = RRAMDevice(bits=4, program_sigma=0.2, read_sigma=0.05)
        fused, reference = self._pair(device, seed=7)
        assert fused.fused_matrix is None
        bits = _random_bits(rng, 16, 40)
        for _ in range(3):  # repeated reads keep consuming the same stream
            np.testing.assert_allclose(
                fused.compute(bits),
                reference.compute_reference(bits),
                **TIGHT,
            )
        # The stacked single draw consumed exactly what the per-slice
        # loop consumed: the generators are in identical states.
        assert (
            fused.rng.bit_generator.state == reference.rng.bit_generator.state
        )


class TestDynamicThresholdEquivalence:
    def test_stored_sum_matches_reference(self, rng):
        weights = np.random.default_rng(3).normal(size=(30, 8))
        matrix = DynamicThresholdMatrix(
            weights,
            threshold=0.1,
            device=RRAMDevice(bits=4, program_sigma=0.3),
            rng=np.random.default_rng(1),
        )
        bits = _random_bits(rng, 12, 30)
        np.testing.assert_allclose(
            matrix.stored_sum(bits),
            matrix.stored_sum_reference(bits),
            **TIGHT,
        )


class TestSplitEquivalence:
    def _pair(self, device, rows=120, cols=10, blocks=3, seed=0):
        weights = np.random.default_rng(17).normal(size=(rows, cols))
        partition = natural_partition(rows, blocks)
        decision = SplitDecision(block_threshold=0.05, vote_threshold=2)
        config = HardwareConfig(device=device)
        make = lambda: HardwareSplitMatrix(
            weights,
            partition,
            decision,
            config,
            rng=np.random.default_rng(seed),
        )
        return make(), make()

    def test_noiseless_block_sums_match(self, rng):
        fused, reference = self._pair(RRAMDevice(bits=4))
        bits = _random_bits(rng, 8, 120)
        np.testing.assert_allclose(
            fused.block_sums(bits),
            reference.block_sums_reference(bits),
            **TIGHT,
        )
        np.testing.assert_array_equal(fused.fire(bits), reference.fire(bits))

    def test_noisy_block_sums_match(self, rng):
        device = RRAMDevice(bits=4, program_sigma=0.2, read_sigma=0.03)
        fused, reference = self._pair(device, seed=11)
        bits = _random_bits(rng, 8, 120)
        np.testing.assert_allclose(
            fused.block_sums(bits),
            reference.block_sums_reference(bits),
            **TIGHT,
        )


class TestHardwareNetworkEngines:
    @pytest.mark.parametrize(
        "device",
        [
            RRAMDevice(bits=4),
            RRAMDevice(bits=4, program_sigma=0.2, read_sigma=0.02),
        ],
        ids=["noiseless", "noisy"],
    )
    def test_full_network_engines_agree(
        self, device, tiny_quantized, tiny_dataset
    ):
        from repro.core.engines import EngineSpec

        config = HardwareConfig(device=device, max_crossbar_size=128)
        images = tiny_dataset["test_x"][:24]

        def build(engine):
            return assemble_sei_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                rng=np.random.default_rng(config.seed),
                engine=EngineSpec(name=engine, hardware=config),
            )

        fused_logits = build("fused").predict(images)
        reference_logits = build("reference").predict(images)
        np.testing.assert_allclose(fused_logits, reference_logits, **TIGHT)

    def test_engine_validated(self, tiny_quantized):
        from repro.core.engines import EngineSpec
        from repro.errors import ConfigurationError

        with pytest.raises(ConfigurationError, match="engine"):
            assemble_sei_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                engine=EngineSpec(name="typo"),
            )


class TestBatchedSearchEquivalence:
    def test_engine_validated(self):
        from repro.errors import QuantizationError

        with pytest.raises(QuantizationError, match="engine"):
            SearchConfig(engine="typo")

    @pytest.mark.parametrize("refine", [0, 1])
    def test_tiny_network_search_identical(
        self, trained_tiny_network, tiny_dataset, refine
    ):
        kwargs = dict(thres_max=0.3, search_step=0.02, refine_passes=refine)
        fused = search_thresholds(
            trained_tiny_network,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SearchConfig(engine="fused", **kwargs),
        )
        reference = search_thresholds(
            trained_tiny_network,
            tiny_dataset["train_x"],
            tiny_dataset["train_y"],
            SearchConfig(engine="reference", **kwargs),
        )
        assert fused.thresholds == reference.thresholds
        assert fused.divisors == reference.divisors
        assert fused.layer_accuracy == reference.layer_accuracy
        assert fused.search_curves == reference.search_curves
        for fl, rl in zip(fused.network.layers, reference.network.layers):
            for key in fl.params:
                np.testing.assert_array_equal(fl.params[key], rl.params[key])

    def test_network3_search_identical(self):
        """The fused scan reproduces the per-candidate loop on network3
        (conv-entry tail: pool/ReLU commutation + im2col of the ranks +
        rescored conv rows), threshold-for-threshold and curve-for-curve."""
        from repro.zoo import get_dataset, get_trained_network

        dataset = get_dataset()
        network = get_trained_network("network3", dataset=dataset)
        images = dataset.train.images[:300]
        labels = dataset.train.labels[:300]
        fused = search_thresholds(
            network, images, labels, SearchConfig(engine="fused")
        )
        reference = search_thresholds(
            network, images, labels, SearchConfig(engine="reference")
        )
        assert fused.thresholds == reference.thresholds
        assert fused.search_curves == reference.search_curves
        assert fused.layer_accuracy == reference.layer_accuracy

    def test_network2_search_identical_at_scan_edges(self):
        """Network2's conv entry (with its pool) and Dense entry, tail
        thresholds in the refine pass, a part-filled last sample block,
        and top candidates (up to 1.0, the rescaled peak) at which no
        row fires: the rescoring scan still matches the reference."""
        from repro.core import threshold_search
        from repro.zoo import get_dataset, get_trained_network

        dataset = get_dataset()
        network = get_trained_network("network2", dataset=dataset)
        samples = 301
        # Layer 0 feeds 11x11 positions of 4x3x3 features to layer 3.
        block = threshold_search._SCAN_BLOCK_ELEMENTS // (11 * 11 * 36)
        assert samples % block != 0
        images = dataset.train.images[:samples]
        labels = dataset.train.labels[:samples]
        kwargs = dict(thres_max=1.0, search_step=0.05, refine_passes=1)
        fused = search_thresholds(
            network, images, labels, SearchConfig(engine="fused", **kwargs)
        )
        reference = search_thresholds(
            network, images, labels,
            SearchConfig(engine="reference", **kwargs),
        )
        assert fused.thresholds == reference.thresholds
        assert fused.divisors == reference.divisors
        assert fused.layer_accuracy == reference.layer_accuracy
        assert fused.search_curves == reference.search_curves

    def test_more_than_255_candidates_identical(
        self, trained_tiny_network, tiny_dataset
    ):
        """Candidate ranks past 255 must not wrap in the level dtype."""
        config = dict(thres_max=0.3, search_step=0.001)
        assert len(SearchConfig(**config).candidates()) > 256
        images = tiny_dataset["train_x"][:100]
        labels = tiny_dataset["train_y"][:100]
        fused = search_thresholds(
            trained_tiny_network, images, labels,
            SearchConfig(engine="fused", **config),
        )
        reference = search_thresholds(
            trained_tiny_network, images, labels,
            SearchConfig(engine="reference", **config),
        )
        assert fused.thresholds == reference.thresholds
        assert fused.layer_accuracy == reference.layer_accuracy
        assert fused.search_curves == reference.search_curves

    def test_padded_entry_with_negative_candidates_identical(self):
        """A padded entry conv sees zero *bits* in its padding, which
        never fire, even at a candidate below zero."""
        from repro.nn.layers import Conv2D, Dense, Flatten, MaxPool2D, ReLU
        from repro.nn.network import Sequential

        gen = np.random.default_rng(3)
        network = Sequential(
            [
                Conv2D(1, 4, 5, use_bias=False, rng=gen),
                ReLU(),
                MaxPool2D(2),
                Conv2D(4, 8, 3, padding=1, use_bias=False, rng=gen),
                ReLU(),
                MaxPool2D(2),
                Flatten(),
                Dense(8 * 36, 10, rng=gen),
            ],
            (1, 28, 28),
        )
        images = np.random.default_rng(0).random((64, 1, 28, 28))
        labels = np.random.default_rng(1).integers(0, 10, 64)
        config = dict(thres_min=-0.1, thres_max=0.2, search_step=0.02)
        fused = search_thresholds(
            network, images, labels, SearchConfig(engine="fused", **config)
        )
        reference = search_thresholds(
            network, images, labels,
            SearchConfig(engine="reference", **config),
        )
        assert fused.search_curves == reference.search_curves
        assert fused.thresholds == reference.thresholds

    def test_scan_counters_count_switched_rows(
        self, trained_tiny_network, tiny_dataset
    ):
        """``scan_rows_rescored`` is every row once at the first
        candidate plus one rescore per distinct (row, level) pair."""
        from repro import obs
        from repro.core import threshold_search as ts

        net = trained_tiny_network
        images = tiny_dataset["train_x"][:32]
        labels = tiny_dataset["train_y"][:32]
        candidates = SearchConfig(thres_max=0.3, search_step=0.02).candidates()
        pre_acts = ts._collect_pre_activations(net, images, {}, 0, 256)
        pre_acts = pre_acts / pre_acts.max()
        with obs.recording() as rec:
            ts._search_by_accuracy(
                net, pre_acts, labels, 0, candidates, 256, {},
                engine="fused",
            )
        counters = rec.metrics.as_dict()["counters"]

        levels = ts._plan_fused_scan(net, pre_acts, 0, candidates).levels
        count = len(candidates)
        pairs = {
            (row, int(level))
            for row, row_levels in enumerate(levels)
            for level in row_levels
            if 0 < level < count
        }
        assert counters["search/scan_rows"] == len(levels) * count
        assert counters["search/scan_rows_rescored"] == (
            len(pairs) + len(levels)
        )
        assert (
            counters["search/scan_rows_rescored"]
            <= counters["search/scan_rows"]
        )


class TestEnsureBinary:
    def test_accepts_binary_and_empty(self):
        ensure_binary(np.array([0.0, 1.0, 1.0]), "bits")
        ensure_binary(np.zeros((0, 4)), "bits")

    def test_rejects_non_binary(self):
        with pytest.raises(ShapeError, match="0/1"):
            ensure_binary(np.array([0.0, 0.5]), "bits")
        with pytest.raises(ShapeError, match="0/1"):
            ensure_binary(np.array([2.0]), "bits")
