"""Tests for repro.core.sei (the SEI structure, §4.1)."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import SEIMatrix, decompose_weights, sei_layer_compute
from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.hw import RRAMDevice


def random_bits(rng, shape, density=0.2):
    return (rng.random(shape) < density).astype(np.float64)


class TestDecomposeWeights:
    def test_reconstruction_exact_at_8bit_grid(self, rng):
        """A weight already on the signed 8-bit grid reconstructs exactly.

        The decomposition normalises by max|w|, so the grid must contain a
        full-scale entry for the levels to line up exactly.
        """
        grid = rng.integers(-255, 256, size=(6, 4)).astype(np.float64)
        grid[0, 0] = 255.0
        weights = grid / 255.0
        slices, coefficients, scale = decompose_weights(weights, 8, 4)
        cell_max = 15
        recon = sum(
            c * s * cell_max for c, s in zip(coefficients, slices)
        ) * scale
        np.testing.assert_allclose(recon, weights, atol=1e-12)

    def test_reconstruction_error_bounded(self, rng):
        weights = rng.normal(size=(10, 8))
        slices, coefficients, scale = decompose_weights(weights, 8, 4)
        recon = sum(c * s * 15 for c, s in zip(coefficients, slices)) * scale
        w_max = np.abs(weights).max()
        assert np.abs(recon - weights).max() <= w_max / 255 / 2 + 1e-12

    def test_signed_layout(self, rng):
        weights = rng.normal(size=(5, 3))
        slices, coefficients, _ = decompose_weights(weights, 8, 4)
        assert slices.shape == (4, 5, 3)
        np.testing.assert_allclose(coefficients, [16, 1, -16, -1])

    def test_unsigned_layout(self, rng):
        weights = rng.random((5, 3))
        slices, coefficients, _ = decompose_weights(weights, 8, 4, signed=False)
        assert slices.shape == (2, 5, 3)
        np.testing.assert_allclose(coefficients, [16, 1])

    def test_unsigned_rejects_negative(self):
        with pytest.raises(ConfigurationError):
            decompose_weights(np.array([[-1.0]]), 8, 4, signed=False)

    def test_slices_are_valid_cell_values(self, rng):
        slices, _, _ = decompose_weights(rng.normal(size=(8, 8)), 8, 4)
        assert slices.min() >= 0.0 and slices.max() <= 1.0
        # Every slice value is a multiple of 1/15 (a 4-bit level).
        np.testing.assert_allclose(
            slices * 15, np.rint(slices * 15), atol=1e-9
        )

    def test_bits_must_divide(self, rng):
        with pytest.raises(ConfigurationError):
            decompose_weights(rng.normal(size=(2, 2)), 10, 4)

    def test_requires_2d(self, rng):
        with pytest.raises(ShapeError):
            decompose_weights(rng.normal(size=3), 8, 4)

    def test_zero_matrix(self):
        slices, _, scale = decompose_weights(np.zeros((3, 3)), 8, 4)
        assert np.all(slices == 0.0)
        assert scale > 0


class TestSEIMatrix:
    def test_geometry(self, rng):
        sei = SEIMatrix(rng.normal(size=(50, 8)), max_crossbar_size=512)
        assert sei.logical_rows == 50
        assert sei.cells_per_weight == 4
        assert sei.physical_rows == 200
        assert sei.num_cells == 200 * 8

    def test_paper_example_needs_split(self, rng):
        """§5.1: a 300x64 signed 8-bit matrix makes a 1200-row SEI image,
        too tall for one 512 crossbar."""
        with pytest.raises(MappingError):
            SEIMatrix(rng.normal(size=(300, 64)), max_crossbar_size=512)

    def test_too_many_columns(self, rng):
        with pytest.raises(MappingError):
            SEIMatrix(rng.normal(size=(10, 600)), max_crossbar_size=512)

    def test_compute_matches_quantized_matmul(self, rng):
        weights = rng.normal(size=(40, 6))
        sei = SEIMatrix(weights, max_crossbar_size=512)
        bits = random_bits(rng, (20, 40))
        out = sei.compute(bits)
        np.testing.assert_allclose(out, bits @ sei.effective_weights, atol=1e-9)

    def test_effective_weights_close_to_target(self, rng):
        weights = rng.normal(size=(20, 5))
        sei = SEIMatrix(weights, max_crossbar_size=512)
        w_max = np.abs(weights).max()
        assert np.abs(sei.effective_weights - weights).max() <= w_max / 255

    def test_compute_1d_input(self, rng):
        weights = rng.normal(size=(12, 3))
        sei = SEIMatrix(weights, max_crossbar_size=512)
        bits = random_bits(rng, 12)
        np.testing.assert_allclose(
            sei.compute(bits), sei.compute(bits[None, :])[0]
        )

    def test_rejects_non_binary_inputs(self, rng):
        sei = SEIMatrix(rng.normal(size=(8, 2)), max_crossbar_size=512)
        with pytest.raises(ShapeError):
            sei.compute(np.full(8, 0.5))

    def test_rejects_wrong_length(self, rng):
        sei = SEIMatrix(rng.normal(size=(8, 2)), max_crossbar_size=512)
        with pytest.raises(ShapeError):
            sei.compute(np.ones(9))

    def test_device_noise_perturbs_but_close(self, rng):
        weights = rng.normal(size=(30, 4))
        noisy = SEIMatrix(
            weights,
            device=RRAMDevice(program_sigma=0.3),
            max_crossbar_size=512,
            rng=np.random.default_rng(3),
        )
        bits = random_bits(rng, 30)
        exact = bits @ weights
        out = noisy.compute(bits)
        assert not np.allclose(out, exact)
        assert np.abs(out - exact).max() < np.abs(weights).max() * 5

    def test_2bit_cells_make_8_cells_per_weight(self, rng):
        sei = SEIMatrix(
            rng.normal(size=(10, 4)),
            device=RRAMDevice(bits=2),
            max_crossbar_size=512,
        )
        assert sei.cells_per_weight == 8


class TestSEILayerCompute:
    def test_equivalent_to_layer_forward(self, tiny_quantized, tiny_dataset):
        """BinarizedNetwork with SEI hardware matches software inference
        up to 8-bit weight quantization (almost always same predictions)."""
        bn_sw = tiny_quantized.binarized(input_bits=None)
        bn_hw = tiny_quantized.binarized(input_bits=None)
        net = tiny_quantized.network
        bn_hw.layer_computes[3] = sei_layer_compute(
            net.layers[3], max_crossbar_size=2048
        )
        x = tiny_dataset["test_x"][:40]
        sw = bn_sw.predict(x).argmax(1)
        hw = bn_hw.predict(x).argmax(1)
        assert (sw == hw).mean() > 0.9
