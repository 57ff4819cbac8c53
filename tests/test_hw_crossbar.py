"""Unit tests for repro.hw.crossbar."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.hw import Crossbar, RRAMDevice


class TestConstruction:
    def test_rejects_oversized(self, rng):
        with pytest.raises(MappingError):
            Crossbar(rng.random((600, 10)), max_size=512)
        with pytest.raises(MappingError):
            Crossbar(rng.random((10, 600)), max_size=512)

    def test_rejects_non_2d(self, rng):
        with pytest.raises(ShapeError):
            Crossbar(rng.random(10))

    def test_rejects_bad_config(self, rng):
        with pytest.raises(ConfigurationError):
            Crossbar(rng.random((4, 4)), max_size=0)
        with pytest.raises(ConfigurationError):
            Crossbar(rng.random((4, 4)), ir_drop_lambda=-1.0)

    def test_num_cells(self, rng):
        xbar = Crossbar(rng.random((8, 6)))
        assert xbar.num_cells == 48


class TestCompute:
    def test_matches_matmul_ideal(self, rng):
        weights = rng.random((20, 7))
        xbar = Crossbar(weights, device=RRAMDevice(bits=8))
        v = rng.random((5, 20))
        out = xbar.compute(v)
        np.testing.assert_allclose(out, v @ weights, atol=2e-2)

    def test_quantization_error_visible_at_low_bits(self, rng):
        weights = rng.random((30, 5))
        coarse = Crossbar(weights, device=RRAMDevice(bits=2))
        fine = Crossbar(weights, device=RRAMDevice(bits=6))
        v = rng.random(30)
        err_coarse = np.abs(coarse.compute(v) - v @ weights).max()
        err_fine = np.abs(fine.compute(v) - v @ weights).max()
        assert err_fine < err_coarse

    def test_effective_weights_are_quantized(self, rng):
        weights = rng.random((4, 4))
        xbar = Crossbar(weights, device=RRAMDevice(bits=4))
        grid = np.arange(16) / 15
        assert np.all(
            np.isclose(xbar.effective_weights[..., None], grid, atol=1e-12).any(
                axis=-1
            )
        )

    def test_1d_and_2d_inputs_agree(self, rng):
        weights = rng.random((10, 3))
        xbar = Crossbar(weights)
        v = rng.random(10)
        np.testing.assert_allclose(
            xbar.compute(v), xbar.compute(v[None, :])[0]
        )

    def test_wrong_input_length(self, rng):
        xbar = Crossbar(rng.random((10, 3)))
        with pytest.raises(ShapeError):
            xbar.compute(rng.random(9))

    def test_zero_input_zero_output(self, rng):
        xbar = Crossbar(rng.random((10, 3)))
        np.testing.assert_allclose(xbar.compute(np.zeros(10)), np.zeros(3))


class TestNonIdealities:
    def test_ir_drop_attenuates(self, rng):
        weights = rng.random((100, 4))
        clean = Crossbar(weights, ir_drop_lambda=0.0)
        droopy = Crossbar(weights, ir_drop_lambda=1.0)
        v = np.ones(100)
        assert droopy.ir_drop_attenuation < 1.0
        assert np.all(droopy.compute(v) < clean.compute(v))

    def test_ir_drop_worse_for_taller_crossbars(self, rng):
        short = Crossbar(rng.random((10, 4)), ir_drop_lambda=1.0, max_size=512)
        tall = Crossbar(rng.random((500, 4)), ir_drop_lambda=1.0, max_size=512)
        assert tall.ir_drop_attenuation < short.ir_drop_attenuation

    def test_read_noise_randomises_output(self, rng):
        weights = rng.random((50, 4))
        xbar = Crossbar(
            weights,
            device=RRAMDevice(read_sigma=0.05),
            rng=np.random.default_rng(0),
        )
        v = rng.random(50)
        a = xbar.compute(v)
        b = xbar.compute(v)
        assert not np.allclose(a, b)

    def test_programming_noise_reproducible_with_seed(self, rng):
        weights = rng.random((20, 4))
        a = Crossbar(
            weights,
            device=RRAMDevice(program_sigma=0.3),
            rng=np.random.default_rng(7),
        )
        b = Crossbar(
            weights,
            device=RRAMDevice(program_sigma=0.3),
            rng=np.random.default_rng(7),
        )
        np.testing.assert_allclose(a.array.conductance, b.array.conductance)
