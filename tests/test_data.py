"""Unit and property tests for repro.data."""

import threading
import time

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import (
    IMAGE_SIZE,
    NUM_CLASSES,
    Dataset,
    DigitStyle,
    digit_skeleton,
    generate_images,
    load_mnist_like,
    render_digit,
)
from repro.data import datasets
from repro.errors import ConfigurationError, ShapeError


class TestRenderDigit:
    def test_shape_and_range(self):
        for digit in range(10):
            image = render_digit(digit)
            assert image.shape == (IMAGE_SIZE, IMAGE_SIZE)
            assert image.min() >= 0.0 and image.max() <= 1.0

    def test_has_ink(self):
        for digit in range(10):
            assert render_digit(digit).max() > 0.5

    def test_digits_are_distinct(self):
        images = [render_digit(d).ravel() for d in range(10)]
        for i in range(10):
            for j in range(i + 1, 10):
                assert np.abs(images[i] - images[j]).mean() > 0.01

    def test_invalid_digit_raises(self):
        with pytest.raises(ConfigurationError):
            render_digit(10)
        with pytest.raises(ConfigurationError):
            digit_skeleton(-1)

    def test_deterministic(self):
        np.testing.assert_allclose(render_digit(3), render_digit(3))

    def test_style_rotation_changes_image(self):
        base = render_digit(7)
        rotated = render_digit(7, DigitStyle(rotation_deg=12))
        assert not np.allclose(base, rotated)

    def test_style_validation(self):
        with pytest.raises(ConfigurationError):
            render_digit(1, DigitStyle(stroke_radius=0.0))
        with pytest.raises(ConfigurationError):
            render_digit(1, DigitStyle(scale_x=-1.0))
        with pytest.raises(ConfigurationError):
            DigitStyle(noise_std=-0.1).validate()

    def test_thicker_strokes_more_ink(self):
        thin = render_digit(0, DigitStyle(stroke_radius=0.02))
        thick = render_digit(0, DigitStyle(stroke_radius=0.05))
        assert thick.sum() > thin.sum()


class TestGenerateImages:
    def test_shapes(self):
        images, labels = generate_images(25, seed=0)
        assert images.shape == (25, 1, IMAGE_SIZE, IMAGE_SIZE)
        assert labels.shape == (25,)
        assert labels.dtype == np.int64

    def test_deterministic_by_seed(self):
        a = generate_images(10, seed=5)
        b = generate_images(10, seed=5)
        np.testing.assert_allclose(a[0], b[0])
        np.testing.assert_array_equal(a[1], b[1])

    def test_different_seeds_differ(self):
        a = generate_images(10, seed=5)
        b = generate_images(10, seed=6)
        assert not np.allclose(a[0], b[0])

    def test_balanced_labels(self):
        _, labels = generate_images(200, seed=0)
        counts = np.bincount(labels, minlength=NUM_CLASSES)
        assert counts.min() == counts.max() == 20

    def test_explicit_labels(self):
        labels_in = [3] * 7
        images, labels = generate_images(7, seed=0, labels=labels_in)
        np.testing.assert_array_equal(labels, labels_in)

    def test_bad_labels_raise(self):
        with pytest.raises(ConfigurationError):
            generate_images(3, labels=[0, 1])
        with pytest.raises(ConfigurationError):
            generate_images(2, labels=[0, 10])

    def test_invalid_count(self):
        with pytest.raises(ConfigurationError):
            generate_images(0)

    def test_jitter_zero_is_canonical(self):
        images, labels = generate_images(
            4, seed=0, jitter=0.0, labels=[2, 2, 2, 2]
        )
        # With zero jitter the only variation left is stroke radius/noise
        # (noise scaled by jitter = 0), so geometry is identical.
        assert np.abs(images[0] - images[1]).max() < 0.35

    def test_jitter_out_of_range(self):
        with pytest.raises(ConfigurationError):
            generate_images(3, jitter=3.0)

    def test_values_in_unit_range(self):
        images, _ = generate_images(30, seed=2)
        assert images.min() >= 0.0 and images.max() <= 1.0

    def test_mnist_like_ink_fraction(self):
        """Thin strokes: ink fraction in the MNIST ballpark (~13%)."""
        images, _ = generate_images(100, seed=3)
        assert 0.05 < images.mean() < 0.25


class TestDataset:
    def test_length_and_batches(self, rng):
        ds = Dataset(rng.normal(size=(10, 1, 4, 4)), rng.integers(0, 3, 10))
        assert len(ds) == 10
        batches = list(ds.batches(4))
        assert [len(b[1]) for b in batches] == [4, 4, 2]

    def test_mismatched_lengths_raise(self, rng):
        with pytest.raises(ShapeError):
            Dataset(rng.normal(size=(10, 1, 4, 4)), rng.integers(0, 3, 9))

    def test_images_must_be_4d(self, rng):
        with pytest.raises(ShapeError):
            Dataset(rng.normal(size=(10, 16)), rng.integers(0, 3, 10))

    def test_subset_first_n(self, rng):
        ds = Dataset(rng.normal(size=(10, 1, 4, 4)), np.arange(10))
        sub = ds.subset(4)
        np.testing.assert_array_equal(sub.labels, [0, 1, 2, 3])

    def test_subset_random(self, rng):
        ds = Dataset(rng.normal(size=(10, 1, 4, 4)), np.arange(10))
        sub = ds.subset(5, seed=1)
        assert len(sub) == 5
        assert len(set(sub.labels.tolist())) == 5

    def test_subset_bad_size(self, rng):
        ds = Dataset(rng.normal(size=(5, 1, 4, 4)), np.arange(5))
        with pytest.raises(ConfigurationError):
            ds.subset(0)
        with pytest.raises(ConfigurationError):
            ds.subset(6)


class TestLoadMnistLike:
    def test_generates_and_caches(self, tmp_path):
        ds = load_mnist_like(50, 20, seed=1, cache_dir=tmp_path)
        assert len(ds.train) == 50 and len(ds.test) == 20
        assert (tmp_path / "mnist_like_50_20_1.npz").exists()
        again = load_mnist_like(50, 20, seed=1, cache_dir=tmp_path)
        np.testing.assert_allclose(ds.train.images, again.train.images)

    def test_train_test_disjoint_generation(self, tmp_path):
        ds = load_mnist_like(30, 30, seed=1, cache=False)
        assert not np.allclose(ds.train.images, ds.test.images)

    def test_invalid_sizes(self):
        with pytest.raises(ConfigurationError):
            load_mnist_like(0, 10, cache=False)

    def test_metadata(self, tmp_path):
        ds = load_mnist_like(20, 10, seed=2, cache_dir=tmp_path)
        assert ds.num_classes == 10
        assert ds.image_shape == (1, 28, 28)

    def test_arrays_are_read_only(self, tmp_path):
        fresh = load_mnist_like(20, 10, seed=2, cache_dir=tmp_path)
        cached = load_mnist_like(20, 10, seed=2, cache_dir=tmp_path)
        for ds in (fresh, cached):
            for split in (ds.train, ds.test):
                with pytest.raises(ValueError, match="read-only"):
                    split.images[0, 0, 0, 0] = 1.0
                with pytest.raises(ValueError, match="read-only"):
                    split.labels[0] = 1


class TestLazyTrainSplit:
    """A cache hit reads the test split at once and the train split,
    most of the file, on first use."""

    @pytest.fixture
    def reads(self, tmp_path, monkeypatch):
        """Split names read from disk, in order, after the cache exists."""
        load_mnist_like(40, 12, seed=3, cache_dir=tmp_path)
        log = []
        real_read = datasets._read_split

        def logging_read(path, split):
            log.append(split)
            return real_read(path, split)

        monkeypatch.setattr(datasets, "_read_split", logging_read)
        return log

    def test_train_read_on_first_touch_only(self, tmp_path, reads):
        ds = load_mnist_like(40, 12, seed=3, cache_dir=tmp_path)
        assert reads == ["test"]
        assert len(ds.train) == 40 and len(ds.test) == 12
        assert reads == ["test"]
        images = ds.train.images
        assert reads == ["test", "train"]
        labels = ds.train.labels
        assert reads == ["test", "train"]
        expected_x, expected_y = generate_images(40, seed=3)
        np.testing.assert_array_equal(images, expected_x)
        np.testing.assert_array_equal(labels, expected_y)
        assert ds.train.subset(5).images.shape == (5, 1, 28, 28)

    def test_concurrent_first_access_reads_once(
        self, tmp_path, reads, monkeypatch
    ):
        ds = load_mnist_like(40, 12, seed=3, cache_dir=tmp_path)
        barrier = threading.Barrier(4)
        logged_read = datasets._read_split

        def contended_read(path, split):
            # Both threads are past the unlocked check before either
            # finishes reading.
            time.sleep(0.05)
            return logged_read(path, split)

        monkeypatch.setattr(datasets, "_read_split", contended_read)
        results = [None] * 4

        def touch(slot):
            barrier.wait(timeout=10)
            results[slot] = (ds.train.images, ds.train.labels)

        threads = [threading.Thread(target=touch, args=(i,)) for i in range(4)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=10)
            assert not thread.is_alive()
        assert reads == ["test", "train"]
        x0, y0 = results[0]
        assert x0.shape == (40, 1, 28, 28) and len(y0) == 40
        for x, y in results[1:]:
            np.testing.assert_array_equal(x, x0)
            np.testing.assert_array_equal(y, y0)


@settings(max_examples=15, deadline=None)
@given(digit=st.integers(0, 9), rotation=st.floats(-20, 20))
def test_rendering_always_valid_property(digit, rotation):
    image = render_digit(digit, DigitStyle(rotation_deg=rotation))
    assert image.shape == (28, 28)
    assert np.isfinite(image).all()
    assert 0.0 <= image.min() and image.max() <= 1.0
    assert image.max() > 0.1  # some ink remains visible
