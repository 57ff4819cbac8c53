"""Shared fixtures for the test suite.

Heavy artefacts (dataset, a trained network) are built once per session on
deliberately small sizes so the whole suite stays fast; the full-scale
Table 2 networks are exercised by the benchmarks, not the tests.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.data.synthetic_mnist import generate_images
from repro.nn import Adam, Conv2D, Dense, Flatten, MaxPool2D, ReLU, Sequential
from repro.nn import TrainConfig, Trainer


#: The suite-wide base seed.  Every fixture and helper that needs
#: randomness derives from this one number, so a reproduction of a
#: failing run needs exactly one value.
SUITE_SEED = 12345


@pytest.fixture(scope="session")
def suite_seed() -> int:
    """The single base RNG seed the whole suite derives streams from.

    Tests and helpers that need their *own* deterministic stream should
    offset this seed (``default_rng(suite_seed + k)``) rather than
    hard-coding unrelated constants.
    """
    return SUITE_SEED


@pytest.fixture
def rng(suite_seed):
    """A fresh per-test generator over the suite seed."""
    return np.random.default_rng(suite_seed)


@pytest.fixture(scope="session")
def derived_rng(suite_seed):
    """Factory for deterministic generators derived from the suite seed.

    Property tests that draw a ``seed`` from hypothesis mix it in here
    (``derived_rng(seed)``, ``derived_rng(seed, 1)``, ...) instead of
    calling ``np.random.default_rng(seed)`` directly, so every random
    stream in the suite traces back to one base seed.  Session-scoped on
    purpose: hypothesis forbids function-scoped fixtures inside
    ``@given`` tests (they would reset per example).
    """

    def make(*keys: int) -> np.random.Generator:
        return np.random.default_rng(
            np.random.SeedSequence([suite_seed, *keys])
        )

    return make


@pytest.fixture(scope="session")
def tiny_dataset():
    """A small train/test pair of synthetic digits."""
    train_x, train_y = generate_images(400, seed=11)
    test_x, test_y = generate_images(120, seed=1011)
    return {
        "train_x": train_x,
        "train_y": train_y,
        "test_x": test_x,
        "test_y": test_y,
    }


def build_tiny_network(seed: int = 3) -> Sequential:
    """A small 4-layer CNN in the paper's shape (conv-pool-conv-pool-fc)."""
    gen = np.random.default_rng(seed)
    layers = [
        Conv2D(1, 4, 5, use_bias=False, rng=gen),
        ReLU(),
        MaxPool2D(2),
        Conv2D(4, 8, 5, use_bias=False, rng=gen),
        ReLU(),
        MaxPool2D(2),
        Flatten(),
        Dense(8 * 16, 10, rng=gen),
    ]
    return Sequential(layers, (1, 28, 28))


@pytest.fixture(scope="session")
def trained_tiny_network(tiny_dataset):
    """The tiny network trained to usable accuracy (session-scoped)."""
    network = build_tiny_network()
    trainer = Trainer(
        network,
        Adam(2e-3),
        TrainConfig(epochs=10, batch_size=32, seed=0, activation_l1=0.005),
    )
    trainer.fit(tiny_dataset["train_x"], tiny_dataset["train_y"])
    return network


@pytest.fixture(scope="session")
def tiny_quantized(trained_tiny_network, tiny_dataset):
    """Algorithm-1 output for the tiny network (session-scoped)."""
    from repro.core import SearchConfig, search_thresholds

    return search_thresholds(
        trained_tiny_network,
        tiny_dataset["train_x"],
        tiny_dataset["train_y"],
        SearchConfig(thres_max=0.3, search_step=0.02),
    )


def unfold_oracle(layer, x, fn, add_bias=True):
    """A layer's forward pass with ``fn`` replacing the matrix product.

    The unfold-per-call adapter every hardware layer model ran on before
    the shared row plan, kept verbatim as the oracle the
    ``layer_compute`` hooks are pinned to: im2col (Conv2D) or the input
    itself (Dense) → ``fn`` → bias → contiguous fold to the output
    layout.
    """
    from repro.core.matrix_compute import fold_rows, layer_bias
    from repro.errors import ShapeError
    from repro.nn import functional as F

    if isinstance(layer, Dense):
        if x.ndim != 2 or x.shape[1] != layer.in_features:
            raise ShapeError(
                f"expected (n, {layer.in_features}), got {x.shape}"
            )
        out = fn(x)
        return out + layer_bias(layer) if add_bias else out
    if isinstance(layer, Conv2D):
        kernel = layer.kernel_size
        cols = F.im2col(x, kernel, kernel, layer.stride, layer.padding)
        out = fn(cols)
        if add_bias:
            out = out + layer_bias(layer)
        return np.ascontiguousarray(fold_rows(layer, x.shape, out))
    raise ShapeError(
        f"cannot apply a matrix compute to {type(layer).__name__}"
    )
