"""Model zoo: trained and quantized Table 2 networks, cached on disk.

Training the three CNNs and running Algorithm 1 takes minutes; every
benchmark and example needs the same artefacts.  This module trains each
network once, stores the weights (and the quantization thresholds) under
``.cache/models/`` and returns cached copies afterwards, so experiment
scripts stay fast and mutually consistent.

Hyper-parameters per network live in :data:`ZOO_RECIPES`.  The
``activation_l1`` penalty reproduces the long-tail activation distribution
(paper Table 1) on the synthetic dataset; see DESIGN.md.
"""

from __future__ import annotations

import json
import threading
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.configs import build_network, get_network_spec
from repro.errors import ReproError
from repro.core.threshold_search import SearchConfig, SearchResult, search_thresholds
from repro.data import MnistLike, default_cache_dir, load_mnist_like
from repro.nn import Adam, TrainConfig, Trainer, evaluate_accuracy
from repro.nn.network import Sequential

logger = obs.get_logger("zoo")

__all__ = [
    "ZooRecipe",
    "ZOO_RECIPES",
    "get_dataset",
    "get_trained_network",
    "get_quantized",
    "get_deep_network",
    "build_deep_network",
    "QuantizedModel",
    "recipe_digest",
    "quantized_cache_paths",
    "warm_model",
    "clear_warm_models",
]

#: Default dataset sizes.  The paper uses MNIST's 60k/10k; we default to
#: 8k/1.5k so the full pipeline runs in minutes (the sizes are arguments
#: everywhere for users who want to scale up).
DEFAULT_TRAIN = 8000
DEFAULT_TEST = 1500
DEFAULT_SEED = 7
#: Training-set subset used for threshold search (speed/robustness
#: trade-off; the paper uses the full training set).
SEARCH_SUBSET = 2500


@dataclass(frozen=True)
class ZooRecipe:
    """Training hyper-parameters for one network."""

    epochs: int
    learning_rate: float = 2e-3
    activation_l1: float = 0.02
    batch_size: int = 64
    seed: int = 1


ZOO_RECIPES: Dict[str, ZooRecipe] = {
    # network1 has enough kernels that binarization is robust with a very
    # mild sparsity penalty; the larger penalty used for the small
    # networks would make conv2's inputs so sparse that the §4.3 split
    # votes become fragile.
    "network1": ZooRecipe(epochs=6, activation_l1=0.003),
    "network2": ZooRecipe(epochs=10, activation_l1=0.02),
    "network3": ZooRecipe(epochs=14, activation_l1=0.02),
}


@dataclass
class QuantizedModel:
    """A quantized network bundle: re-scaled weights + thresholds."""

    name: str
    search: SearchResult
    float_test_error: float
    quantized_test_error: float
    #: Recipe digest the artefact was cached under (see :func:`recipe_digest`).
    digest: str = ""


def _models_dir(cache_dir: Optional[Path]) -> Path:
    base = cache_dir if cache_dir is not None else default_cache_dir()
    return base / "models"


def recipe_digest(
    name: str, search_config: Optional[SearchConfig] = None
) -> str:
    """Digest of everything that shapes a quantized artefact.

    Covers the architecture spec, the training recipe and the full
    Algorithm 1 configuration (threshold grid, criterion, refinement,
    engine) — the same :func:`repro.obs.config_digest` the run manifest
    uses.  Two differently-configured quantizations therefore never
    share a cache path or a warm-registry slot.
    """
    config = search_config if search_config is not None else SearchConfig()
    return obs.config_digest(
        {
            "network": name,
            "spec": get_network_spec(name),
            "recipe": ZOO_RECIPES[name],
            "search": config,
        }
    )


def quantized_cache_paths(
    name: str,
    search_config: Optional[SearchConfig] = None,
    cache_dir: Optional[Path] = None,
) -> tuple:
    """(weights ``.npz``, sidecar ``.json``) cache paths for one recipe."""
    digest = recipe_digest(name, search_config)
    base = _models_dir(cache_dir) / f"{name}_quantized_{digest}"
    return base.with_suffix(".npz"), base.with_suffix(".json")


def _load_cached_network(network: Sequential, path: Path) -> bool:
    """Load cached weights into ``network``; False on any corrupt artifact.

    A truncated download, an interrupted save (pre-atomic-write caches)
    or a stale architecture must behave exactly like a cache miss — the
    caller retrains and overwrites — rather than crash the pipeline with
    a :class:`zipfile.BadZipFile`.
    """
    if not path.exists():
        return False
    try:
        network.load(path)
        return True
    except (zipfile.BadZipFile, OSError, ValueError, KeyError, EOFError,
            ReproError) as exc:
        obs.count("zoo/cache/corrupt")
        logger.warning(
            "discarding corrupt model cache %s: %s", path.name, exc
        )
        return False


def _load_cached_meta(meta_path: Path) -> Optional[dict]:
    """Parse the quantization sidecar JSON; None if missing or corrupt."""
    if not meta_path.exists():
        return None
    try:
        meta = json.loads(meta_path.read_text())
        required = (
            "thresholds", "divisors", "layer_accuracy", "float_test_error",
            "quantized_test_error",
        )
        if not all(key in meta for key in required):
            raise KeyError(f"missing one of {required}")
        return meta
    except (OSError, ValueError, KeyError) as exc:
        obs.count("zoo/cache/corrupt")
        logger.warning(
            "discarding corrupt model cache %s: %s", meta_path.name, exc
        )
        return None


#: In-process dataset registry: (sizes, seed, data dir) -> shared bundle.
#: Its arrays are read-only, so every caller can hold the same copy.
_DATASETS: Dict[tuple, MnistLike] = {}
_DATASETS_LOCK = threading.Lock()


def get_dataset(
    num_train: int = DEFAULT_TRAIN,
    num_test: int = DEFAULT_TEST,
    seed: int = DEFAULT_SEED,
    cache_dir: Optional[Path] = None,
) -> MnistLike:
    """The shared synthetic-MNIST dataset (cached on disk, then in-process).

    One process reads each dataset file at most once: later calls with
    the same sizes, seed and cache location return the same read-only
    :class:`MnistLike`.
    """
    data_dir = (
        cache_dir if cache_dir is not None else default_cache_dir()
    ) / "data"
    key = (num_train, num_test, seed, str(data_dir.resolve()))
    with _DATASETS_LOCK:
        dataset = _DATASETS.get(key)
        if dataset is not None:
            obs.count("zoo/dataset/hits")
            return dataset
        obs.count("zoo/dataset/misses")
        dataset = load_mnist_like(
            num_train, num_test, seed=seed, cache_dir=data_dir
        )
        _DATASETS[key] = dataset
    return dataset


def get_trained_network(
    name: str,
    dataset: Optional[MnistLike] = None,
    cache_dir: Optional[Path] = None,
    force_retrain: bool = False,
) -> Sequential:
    """Train (or load from cache) one of the Table 2 networks."""
    spec = get_network_spec(name)
    recipe = ZOO_RECIPES[name]
    path = _models_dir(cache_dir) / f"{name}_trained.npz"

    network = build_network(spec, seed=recipe.seed)
    if not force_retrain and _load_cached_network(network, path):
        obs.count("zoo/cache/hits")
        return network
    obs.count("zoo/cache/misses")
    logger.info("training %s (%d epochs)", name, recipe.epochs)

    with obs.span("zoo.train", network=name):
        dataset = (
            dataset if dataset is not None else get_dataset(cache_dir=cache_dir)
        )
        trainer = Trainer(
            network,
            Adam(recipe.learning_rate),
            TrainConfig(
                epochs=recipe.epochs,
                batch_size=recipe.batch_size,
                seed=recipe.seed,
                activation_l1=recipe.activation_l1,
            ),
        )
        trainer.fit(dataset.train.images, dataset.train.labels)
        network.save(path)
    return network


def get_quantized(
    name: str,
    dataset: Optional[MnistLike] = None,
    search_config: Optional[SearchConfig] = None,
    cache_dir: Optional[Path] = None,
    force: bool = False,
) -> QuantizedModel:
    """Trained + Algorithm-1-quantized bundle for one network (cached).

    The cache path carries the full recipe digest (architecture,
    training recipe, search configuration), so differently-configured
    quantizations of the same network never collide on disk.  A cache
    hit reads both Table 3 errors from the artefact's sidecar and loads
    neither ``dataset`` nor the float network; they are used only to
    quantize on a miss.
    """
    spec = get_network_spec(name)
    digest = recipe_digest(name, search_config)
    path, meta_path = quantized_cache_paths(name, search_config, cache_dir)

    if not force:
        rescaled = build_network(spec, seed=ZOO_RECIPES[name].seed)
        meta = _load_cached_meta(meta_path)
        if meta is not None and _load_cached_network(rescaled, path):
            obs.count("zoo/cache/hits")
            search = SearchResult(
                network=rescaled,
                thresholds={int(k): v for k, v in meta["thresholds"].items()},
                divisors={int(k): v for k, v in meta["divisors"].items()},
                layer_accuracy={
                    int(k): v for k, v in meta["layer_accuracy"].items()
                },
            )
            return QuantizedModel(
                name,
                search,
                meta["float_test_error"],
                meta["quantized_test_error"],
                digest=digest,
            )

    obs.count("zoo/cache/misses")
    dataset = dataset if dataset is not None else get_dataset(cache_dir=cache_dir)
    network = get_trained_network(name, dataset, cache_dir=cache_dir)
    float_error = 1.0 - evaluate_accuracy(
        network, dataset.test.images, dataset.test.labels
    )
    logger.info("running Algorithm 1 threshold search for %s", name)
    config = search_config if search_config is not None else SearchConfig()
    subset = min(SEARCH_SUBSET, len(dataset.train))
    with obs.span("zoo.quantize", network=name, samples=subset):
        search = search_thresholds(
            network,
            dataset.train.images[:subset],
            dataset.train.labels[:subset],
            config,
        )
        quant_error = search.binarized().error_rate(
            dataset.test.images, dataset.test.labels
        )

    search.network.save(path)
    tmp_meta = meta_path.with_name(meta_path.name + ".tmp")
    tmp_meta.write_text(
        json.dumps(
            {
                "thresholds": search.thresholds,
                "divisors": search.divisors,
                "layer_accuracy": search.layer_accuracy,
                "quantized_test_error": quant_error,
                "float_test_error": float_error,
            }
        )
    )
    tmp_meta.replace(meta_path)
    return QuantizedModel(name, search, float_error, quant_error, digest=digest)


#: In-process warm model registry: recipe digest -> quantized bundle.
#: Serving sessions consult this before touching the on-disk cache, so a
#: process that compiles the same recipe twice pays zero load cost the
#: second time.
_WARM_MODELS: Dict[tuple, QuantizedModel] = {}


def warm_model(
    name: str,
    dataset: Optional[MnistLike] = None,
    search_config: Optional[SearchConfig] = None,
    cache_dir: Optional[Path] = None,
    force: bool = False,
) -> QuantizedModel:
    """Quantized bundle from the warm in-process registry (fall back to disk).

    Keyed by the recipe digest (plus the cache location and, for custom
    datasets, the dataset sizes), so differently-configured models never
    alias.  ``force=True`` bypasses and refreshes the warm entry.
    """
    key = (
        recipe_digest(name, search_config),
        None if cache_dir is None else str(cache_dir),
        None if dataset is None else (len(dataset.train), len(dataset.test)),
    )
    if not force:
        model = _WARM_MODELS.get(key)
        if model is not None:
            obs.count("zoo/warm/hits")
            return model
    obs.count("zoo/warm/misses")
    model = get_quantized(
        name,
        dataset=dataset,
        search_config=search_config,
        cache_dir=cache_dir,
        force=force,
    )
    _WARM_MODELS[key] = model
    return model


def clear_warm_models() -> None:
    """Drop every warm model and shared dataset (tests, memory pressure)."""
    _WARM_MODELS.clear()
    _DATASETS.clear()


def build_deep_network(seed: int = 5) -> Sequential:
    """A 5-weighted-layer CNN (3 conv + 2 FC) beyond the Table 2 shape.

    Exercises the deeper-network claims of §2.3/§2.4: Algorithm 1 runs
    over four intermediate layers and the generic mapper costs the
    result.
    """
    from repro.nn import Conv2D, Dense, Flatten, MaxPool2D, ReLU

    rng = np.random.default_rng(seed)
    layers = [
        Conv2D(1, 8, 3, use_bias=False, rng=rng),  # 28 -> 26
        ReLU(),
        Conv2D(8, 8, 3, use_bias=False, rng=rng),  # 26 -> 24
        ReLU(),
        MaxPool2D(2),  # 24 -> 12
        Conv2D(8, 16, 3, use_bias=False, rng=rng),  # 12 -> 10
        ReLU(),
        MaxPool2D(2),  # 10 -> 5
        Flatten(),  # 400
        Dense(400, 64, rng=rng),
        ReLU(),
        Dense(64, 10, rng=rng),
    ]
    return Sequential(layers, (1, 28, 28))


def get_deep_network(
    dataset: Optional[MnistLike] = None,
    cache_dir: Optional[Path] = None,
    force_retrain: bool = False,
) -> Sequential:
    """Trained deep demo network (cached like the Table 2 networks)."""
    path = _models_dir(cache_dir) / "deep_demo.npz"
    network = build_deep_network()
    if not force_retrain and _load_cached_network(network, path):
        obs.count("zoo/cache/hits")
        return network
    obs.count("zoo/cache/misses")
    logger.info("training deep demo network")

    with obs.span("zoo.train", network="deep_demo"):
        dataset = (
            dataset if dataset is not None else get_dataset(cache_dir=cache_dir)
        )
        trainer = Trainer(
            network,
            Adam(2e-3),
            TrainConfig(epochs=5, batch_size=64, seed=0, activation_l1=0.01),
        )
        trainer.fit(dataset.train.images, dataset.train.labels)
        network.save(path)
    return network
