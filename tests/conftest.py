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


def retire_oracle(ints, tables, rows, vote, group_check, confidence=1.0):
    """Per-position early-retirement semantics of the runtime estimator.

    The reference the vectorized accounting pass
    (:class:`repro.core.estimate.SkipPass`) is pinned to, written one
    position and one 8-row byte group at a time.  ``ints`` is the
    ``(K, H, cols)`` integer block weights (zero rows pad short blocks),
    ``tables`` the ``(K, n_t, cols)`` minimal firing accumulators by
    active-row count (one row when they do not vary with it), ``rows`` the ``(n, K, H)`` 0/1 planned rows.

    Per block, every ``group_check`` groups, a column still owned by the
    estimator is decided once ``acc + lo >= F`` (fires) or
    ``acc + hi <= F - 1`` (silent), with ``lo``/``hi`` the sums of the
    ``k`` most negative / positive remaining weights for ``k`` remaining
    active rows (the whole remaining sum past 31), scaled toward zero by
    ``confidence``; a position whose owned columns are all decided
    skips the block's remaining groups.  Undecided columns take the
    complete accumulator's decision.  A column whose §4.3 vote is
    settled is no longer owned, and a position with every vote settled
    skips the remaining blocks.  Returns ``(counts, stats, sa_events,
    reads)`` with ``stats`` the four skip counters.
    """
    import math

    ints = np.asarray(ints, dtype=np.int64)
    blocks, height, cols = ints.shape
    groups = -(-height // 8)
    slots = 8 * groups
    padded = np.zeros((blocks, slots, cols), dtype=np.int64)
    padded[:, :height] = ints
    bits = np.zeros((rows.shape[0], blocks, slots), dtype=np.int64)
    bits[:, :, :height] = rows
    checks = set(range(group_check, groups, group_check))

    def bound(suffix, k, sign):
        parts = np.sort(
            np.minimum(suffix, 0) if sign < 0 else -np.maximum(suffix, 0),
            axis=0,
        )
        total = parts[: len(suffix) if k >= 32 else k].sum(axis=0)
        total = total if sign < 0 else -total
        if confidence < 1.0:
            scaled = [confidence * float(v) for v in total]
            rounding = math.ceil if sign < 0 else math.floor
            total = np.array([rounding(v) for v in scaled], dtype=np.int64)
        return total

    n = rows.shape[0]
    stats = dict(skipped_rows=0, skipped_slots=0, est_positions=0,
                 est_decided=0)
    counts = np.zeros((n, cols), dtype=np.int64)
    reads = np.zeros(blocks, dtype=np.int64)
    for p in range(n):
        settled = np.zeros(cols, dtype=bool)
        for k in range(blocks):
            if settled.all():
                remaining = blocks - k
                stats["skipped_rows"] += int(bits[p, k:].sum())
                stats["skipped_slots"] += remaining * slots
                break
            reads[k] += 1
            x, w = bits[p, k], padded[k]
            # A one-row table (one threshold) does not vary with the
            # active-row count.
            active = int(x.sum()) if len(tables[k]) > 1 else 0
            fire_at = tables[k][active].astype(np.int64)
            owned = ~settled
            stats["est_positions"] += int(owned.sum())
            acc = np.zeros(cols, dtype=np.int64)
            fired = np.zeros(cols, dtype=bool)
            done = False
            for g in range(groups):
                if g in checks:
                    rest = int(x[8 * g:].sum())
                    lo = bound(w[8 * g:], rest, -1)
                    hi = bound(w[8 * g:], rest, +1)
                    fire = acc + lo >= fire_at
                    newly = owned & (fire | (acc + hi <= fire_at - 1))
                    fired |= newly & fire
                    owned &= ~newly
                    stats["est_decided"] += int(newly.sum())
                    if newly.any() and not owned.any():
                        stats["skipped_rows"] += rest
                        stats["skipped_slots"] += slots - 8 * g
                        done = True
                        break
                acc += x[8 * g:8 * g + 8] @ w[8 * g:8 * g + 8]
            if not done:
                fired |= owned & (acc >= fire_at)
            counts[p] += fired & ~settled
            remaining = blocks - 1 - k
            settled |= (counts[p] >= vote) | (counts[p] + remaining < vote)
    sa_events = stats["est_positions"] - stats["est_decided"]
    return counts, stats, sa_events, reads
