"""Tests for repro.core.matrix_compute (the layer<->matrix adapter)."""

import numpy as np
import pytest

from repro.core import layer_bias, layer_weight_matrix
from repro.core.matrix_compute import (
    LayerKernel,
    RowPlan,
    Tally,
    layer_compute,
)
from repro.errors import ShapeError
from repro.nn import Conv2D, Dense, Flatten, ReLU


class TestLayerWeightMatrix:
    def test_dense(self, rng):
        layer = Dense(4, 3, rng=rng)
        np.testing.assert_allclose(
            layer_weight_matrix(layer), layer.params["weight"]
        )

    def test_conv(self, rng):
        layer = Conv2D(2, 3, 3, rng=rng)
        assert layer_weight_matrix(layer).shape == (18, 3)

    def test_rejects_weightless(self):
        with pytest.raises(ShapeError):
            layer_weight_matrix(ReLU())


class TestLayerBias:
    def test_dense_with_bias(self, rng):
        layer = Dense(4, 3, rng=rng)
        layer.params["bias"][:] = 2.0
        np.testing.assert_allclose(layer_bias(layer), [2.0, 2.0, 2.0])

    def test_conv_without_bias_returns_zeros(self, rng):
        layer = Conv2D(1, 4, 3, use_bias=False, rng=rng)
        np.testing.assert_allclose(layer_bias(layer), np.zeros(4))

    def test_rejects_weightless(self):
        with pytest.raises(ShapeError):
            layer_bias(Flatten())


def _software_compute(layer, fn=None, bias=True):
    """``layer_compute`` on a plain software kernel: ``fn(rows)`` (by
    default the exact matrix product) over the layer's planned rows."""
    matrix = layer_weight_matrix(layer)
    fn = fn if fn is not None else (lambda rows: rows @ matrix)
    kernel = LayerKernel(
        lambda rows: (fn(rows), Tally(lambda: rows.sum(axis=1))),
        RowPlan(),
        lambda x: x,
        dict(rows=matrix.shape[0], cols=matrix.shape[1], cells_per_weight=1),
        bias=layer_bias(layer) if bias else None,
    )
    return layer_compute(None, kernel)


class TestApplyMatrixFn:
    """The layer adapter contract, held by ``layer_compute`` with a plain
    software :class:`LayerKernel`: unfold, matrix model, bias, fold."""

    def test_identity_fn_reproduces_dense_forward(self, rng):
        layer = Dense(6, 4, rng=rng)
        x = rng.random((5, 6))
        out = _software_compute(layer)(layer, x)
        np.testing.assert_allclose(out, layer.forward(x))

    def test_identity_fn_reproduces_conv_forward(self, rng):
        layer = Conv2D(2, 3, 3, rng=rng)
        x = rng.random((2, 2, 6, 6))
        out = _software_compute(layer)(layer, x)
        np.testing.assert_allclose(out, layer.forward(x), atol=1e-12)

    def test_add_bias_false_skips_bias(self, rng):
        layer = Dense(6, 4, rng=rng)
        layer.params["bias"][:] = 5.0
        x = rng.random((3, 6))
        with_bias = _software_compute(layer)(layer, x)
        without = _software_compute(layer, bias=False)(layer, x)
        np.testing.assert_allclose(with_bias - without, np.full((3, 4), 5.0))

    def test_conv_output_layout(self, rng):
        """The fold back to (n, c, h, w) matches Conv2D's own layout."""
        layer = Conv2D(1, 2, 3, use_bias=False, rng=rng)
        x = rng.random((1, 1, 5, 5))
        marker = _software_compute(
            layer,
            lambda m: np.tile(np.arange(m.shape[0])[:, None], (1, 2)) * 1.0,
        )(layer, x)
        # Output positions enumerate row-major: (0,0), (0,1), ...
        assert marker[0, 0, 0, 0] == 0
        assert marker[0, 0, 0, 1] == 1
        assert marker[0, 0, 1, 0] == 3

    def test_dense_wrong_shape(self, rng):
        layer = Dense(6, 4, rng=rng)
        with pytest.raises(ShapeError):
            _software_compute(layer)(layer, rng.random((3, 7)))

    def test_rejects_weightless_layer(self, rng):
        compute = _software_compute(Dense(3, 2, rng=rng))
        with pytest.raises(ShapeError):
            compute(ReLU(), rng.random((2, 3)))

    def test_stride_and_padding_respected(self, rng):
        layer = Conv2D(1, 2, 3, stride=2, padding=1, use_bias=False, rng=rng)
        x = rng.random((1, 1, 7, 7))
        out = _software_compute(layer)(layer, x)
        np.testing.assert_allclose(out, layer.forward(x), atol=1e-12)
