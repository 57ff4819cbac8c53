"""Dataset containers and the train/test split used by every experiment.

The paper optimises quantization thresholds on the 60,000-image MNIST
training set and reports error rates on the 10,000-image test set.  We keep
the same protocol on the synthetic digit set (with configurable, smaller
default sizes so the full pipeline runs in minutes on a laptop), and cache
generated datasets on disk so repeated benchmark runs are cheap.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from pathlib import Path
from typing import Optional, Tuple

import numpy as np

from repro.errors import ConfigurationError, ShapeError
from repro.data.synthetic_mnist import IMAGE_SIZE, NUM_CLASSES, generate_images

__all__ = ["Dataset", "MnistLike", "load_mnist_like", "default_cache_dir"]


def default_cache_dir() -> Path:
    """Directory used to cache generated datasets and trained models."""
    return Path(__file__).resolve().parents[3] / ".cache"


@dataclass
class Dataset:
    """An immutable (images, labels) pair with convenience accessors."""

    images: np.ndarray
    labels: np.ndarray

    def __post_init__(self) -> None:
        if len(self.images) != len(self.labels):
            raise ShapeError(
                f"images ({len(self.images)}) and labels "
                f"({len(self.labels)}) disagree"
            )
        if self.images.ndim != 4:
            raise ShapeError(
                f"images must be (n, c, h, w), got shape {self.images.shape}"
            )

    def __len__(self) -> int:
        return len(self.labels)

    def subset(self, n: int, seed: Optional[int] = None) -> "Dataset":
        """First-``n`` (seed=None) or random-``n`` subset."""
        if n <= 0 or n > len(self):
            raise ConfigurationError(
                f"subset size {n} not in [1, {len(self)}]"
            )
        if seed is None:
            idx = np.arange(n)
        else:
            idx = np.random.default_rng(seed).choice(len(self), n, replace=False)
        return Dataset(self.images[idx], self.labels[idx])

    def batches(self, batch_size: int):
        """Yield (images, labels) minibatches in order."""
        for start in range(0, len(self), batch_size):
            yield (
                self.images[start : start + batch_size],
                self.labels[start : start + batch_size],
            )


@dataclass
class MnistLike:
    """The train/test pair mirroring the paper's MNIST protocol."""

    train: Dataset
    test: Dataset

    @property
    def num_classes(self) -> int:
        return NUM_CLASSES

    @property
    def image_shape(self) -> Tuple[int, int, int]:
        return (1, IMAGE_SIZE, IMAGE_SIZE)


def _read_only(*arrays: np.ndarray) -> Tuple[np.ndarray, ...]:
    """``arrays``, each marked read-only: loaded datasets are shared."""
    for array in arrays:
        array.flags.writeable = False
    return arrays


def _read_split(path: Path, split: str) -> Dataset:
    """Decompress one split (``"train"``/``"test"``) of a cached bundle."""
    with np.load(path) as data:
        return Dataset(*_read_only(data[f"{split}_x"], data[f"{split}_y"]))


class _CachedSplit(Dataset):
    """A cached split whose arrays are decompressed on first access.

    Its length comes from the cache file name, so ``len()`` reads
    nothing.  The first access to ``images`` or ``labels`` reads both
    arrays under a lock and publishes them together, so a concurrent
    first access never sees a half-built split.
    """

    def __init__(self, path: Path, split: str, size: int) -> None:
        self._path = path
        self._split = split
        self._size = size
        self._loaded: Optional[Dataset] = None
        self._lock = threading.Lock()

    def _load(self) -> Dataset:
        loaded = self._loaded
        if loaded is None:
            with self._lock:
                if self._loaded is None:
                    self._loaded = _read_split(self._path, self._split)
                loaded = self._loaded
        return loaded

    @property
    def images(self) -> np.ndarray:
        return self._load().images

    @property
    def labels(self) -> np.ndarray:
        return self._load().labels

    def __len__(self) -> int:
        return self._size


def load_mnist_like(
    num_train: int = 6000,
    num_test: int = 1000,
    seed: int = 7,
    cache: bool = True,
    cache_dir: Optional[Path] = None,
) -> MnistLike:
    """Generate (or load from cache) the synthetic digit dataset.

    Train and test samples are drawn from the same generator with disjoint
    seeds, mirroring MNIST's i.i.d. train/test split.  Every returned
    array is read-only.  On a cache hit the test split is read at once and
    the train split, most of the file, on its first access.
    """
    if num_train <= 0 or num_test <= 0:
        raise ConfigurationError("dataset sizes must be positive")

    cache_dir = cache_dir if cache_dir is not None else default_cache_dir() / "data"
    cache_path = cache_dir / f"mnist_like_{num_train}_{num_test}_{seed}.npz"

    if cache and cache_path.exists():
        return MnistLike(
            train=_CachedSplit(cache_path, "train", num_train),
            test=_read_split(cache_path, "test"),
        )

    train_x, train_y = generate_images(num_train, seed=seed)
    test_x, test_y = generate_images(num_test, seed=seed + 1_000_003)
    bundle = MnistLike(
        train=Dataset(*_read_only(train_x, train_y)),
        test=Dataset(*_read_only(test_x, test_y)),
    )

    if cache:
        cache_path.parent.mkdir(parents=True, exist_ok=True)
        np.savez_compressed(
            cache_path,
            train_x=train_x,
            train_y=train_y,
            test_x=test_x,
            test_y=test_y,
        )
    return bundle
