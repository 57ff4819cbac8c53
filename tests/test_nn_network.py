"""Unit tests for repro.nn.network.Sequential."""

import numpy as np
import pytest

from repro.errors import ConfigurationError, ShapeError
from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential

from tests.conftest import build_tiny_network


class TestConstruction:
    def test_empty_layer_list_raises(self):
        with pytest.raises(ConfigurationError):
            Sequential([], (1, 28, 28))

    def test_incompatible_layers_raise_at_construction(self, rng):
        layers = [Conv2D(1, 4, 5, rng=rng), Dense(10, 10, rng=rng)]
        with pytest.raises(ShapeError):
            Sequential(layers, (1, 28, 28))

    def test_shape_propagation(self):
        net = build_tiny_network()
        assert net.shape_at(0) == (4, 24, 24)
        assert net.shape_at(2) == (4, 12, 12)
        assert net.shape_at(len(net) - 1) == (10,)


class TestForward:
    def test_forward_shape(self, rng):
        net = build_tiny_network()
        out = net.forward(rng.normal(size=(3, 1, 28, 28)))
        assert out.shape == (3, 10)

    def test_input_shape_check(self, rng):
        net = build_tiny_network()
        with pytest.raises(ShapeError):
            net.forward(rng.normal(size=(3, 1, 27, 27)))

    def test_predict_batches_match_forward(self, rng):
        net = build_tiny_network()
        x = rng.normal(size=(10, 1, 28, 28))
        np.testing.assert_allclose(net.predict(x, batch_size=3), net.forward(x))

    def test_forward_collect_matches_layers(self, rng):
        net = build_tiny_network()
        x = rng.normal(size=(2, 1, 28, 28))
        acts = net.forward_collect(x)
        assert len(acts) == len(net)
        np.testing.assert_allclose(acts[-1], net.forward(x))


class TestIntrospection:
    def test_quantizable_indices(self):
        net = build_tiny_network()
        assert net.quantizable_indices() == [0, 3, 7]

    def test_parameter_groups_only_weighted(self):
        net = build_tiny_network()
        groups = net.parameter_groups()
        assert len(groups) == 3

    def test_num_params(self):
        net = build_tiny_network()
        expected = 4 * 25 + 8 * 4 * 25 + (128 * 10 + 10)
        assert net.num_params == expected

    def test_iteration(self):
        net = build_tiny_network()
        assert len(list(net)) == len(net) == 8


class TestPersistence:
    def test_save_load_round_trip(self, rng, tmp_path):
        net = build_tiny_network(seed=1)
        other = build_tiny_network(seed=2)
        x = rng.normal(size=(2, 1, 28, 28))
        assert not np.allclose(net.forward(x), other.forward(x))
        path = tmp_path / "weights.npz"
        net.save(path)
        other.load(path)
        np.testing.assert_allclose(net.forward(x), other.forward(x))

    def test_load_missing_key_raises(self, tmp_path):
        net = build_tiny_network()
        state = net.state_dict()
        state.pop("layer0.weight")
        with pytest.raises(ConfigurationError):
            net.load_state_dict(state)

    def test_load_wrong_shape_raises(self):
        net = build_tiny_network()
        state = net.state_dict()
        state["layer0.weight"] = np.zeros((1, 1, 3, 3))
        with pytest.raises(ShapeError):
            net.load_state_dict(state)

    def test_copy_is_independent(self, rng):
        net = build_tiny_network()
        clone = net.copy()
        x = rng.normal(size=(1, 1, 28, 28))
        np.testing.assert_allclose(net.forward(x), clone.forward(x))
        clone.layers[0].params["weight"] *= 2.0
        assert not np.allclose(net.forward(x), clone.forward(x))


class TestBackwardIntegration:
    def test_gradient_descent_reduces_loss(self, rng):
        from repro.nn.losses import softmax_cross_entropy

        net = Sequential(
            [Flatten(), Dense(16, 4, rng=rng)],
            (1, 4, 4),
        )
        x = rng.normal(size=(8, 1, 4, 4))
        y = rng.integers(0, 4, size=8)
        losses = []
        for _ in range(30):
            net.zero_grad()
            logits = net.forward(x, train=True)
            loss, grad = softmax_cross_entropy(logits, y)
            losses.append(loss)
            net.backward(grad)
            for params, grads in net.parameter_groups():
                for name in params:
                    params[name] -= 0.5 * grads[name]
        assert losses[-1] < losses[0] * 0.5
