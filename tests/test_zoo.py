"""Tests for repro.zoo using a small dataset and temp cache.

network2 is trained and quantized once per module (``seeded``); each
test gets a copy of that cache in its own ``tmp_path`` (``cache_dir``).
Tests that assert a retrain (force-retrain, corrupt artefacts) still
retrain from their copy; the atomic-save test and the deep network start
from an empty cache.
"""

import json
import shutil

import numpy as np
import pytest

from repro import obs, zoo
from repro.data.datasets import Dataset, MnistLike
from repro.data.synthetic_mnist import generate_images
from repro.zoo import (
    ZOO_RECIPES,
    clear_warm_models,
    get_quantized,
    get_trained_network,
    quantized_cache_paths,
    recipe_digest,
    warm_model,
)


@pytest.fixture(scope="module")
def small_bundle():
    train_x, train_y = generate_images(300, seed=21)
    test_x, test_y = generate_images(80, seed=2021)
    return MnistLike(
        train=Dataset(train_x, train_y), test=Dataset(test_x, test_y)
    )


@pytest.fixture(scope="module")
def seeded(small_bundle, tmp_path_factory):
    """network2 trained and quantized once: ``(cache root, network)``."""
    root = tmp_path_factory.mktemp("zoo-seed")
    network = get_trained_network(
        "network2", dataset=small_bundle, cache_dir=root
    )
    get_quantized("network2", dataset=small_bundle, cache_dir=root)
    return root, network


@pytest.fixture
def cache_dir(seeded, tmp_path):
    """This test's copy of the seeded cache."""
    shutil.copytree(seeded[0], tmp_path, dirs_exist_ok=True)
    return tmp_path


class TestRecipes:
    def test_all_networks_have_recipes(self):
        assert set(ZOO_RECIPES) == {"network1", "network2", "network3"}

    def test_recipe_fields_sane(self):
        for recipe in ZOO_RECIPES.values():
            assert recipe.epochs > 0
            assert recipe.learning_rate > 0
            assert recipe.activation_l1 >= 0


class TestTrainedNetwork:
    def test_trains_and_caches(self, small_bundle, seeded, cache_dir):
        # ``seeded`` trained the network into its cache; a copy of that
        # cache loads it back exactly.
        _, net = seeded
        assert (cache_dir / "models" / "network2_trained.npz").exists()
        again = get_trained_network(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        x = small_bundle.test.images[:4]
        np.testing.assert_allclose(net.forward(x), again.forward(x))

    def test_force_retrain_overwrites(self, small_bundle, cache_dir):
        net = get_trained_network(
            "network2",
            dataset=small_bundle,
            cache_dir=cache_dir,
            force_retrain=True,
        )
        assert net is not None


class TestQuantized:
    def test_quantize_and_cache_round_trip(self, small_bundle, cache_dir):
        qm = get_quantized("network2", dataset=small_bundle, cache_dir=cache_dir)
        assert set(qm.search.thresholds) == {0, 3}
        assert 0.0 <= qm.quantized_test_error <= 1.0
        _, meta_path = quantized_cache_paths("network2", cache_dir=cache_dir)
        assert meta_path.exists()
        assert qm.digest == recipe_digest("network2")
        assert qm.digest in meta_path.name

        cached = get_quantized(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        assert cached.search.thresholds == qm.search.thresholds
        x = small_bundle.test.images[:4]
        np.testing.assert_allclose(
            qm.search.network.forward(x), cached.search.network.forward(x)
        )

    def test_binarized_network_usable_from_cache(self, small_bundle, cache_dir):
        get_quantized("network2", dataset=small_bundle, cache_dir=cache_dir)
        cached = get_quantized(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        bn = cached.search.binarized()
        err = bn.error_rate(small_bundle.test.images, small_bundle.test.labels)
        assert err == pytest.approx(cached.quantized_test_error, abs=1e-9)

    def test_hit_reads_both_errors_from_the_sidecar(
        self, small_bundle, cache_dir, monkeypatch
    ):
        """A hit runs no float forward pass and loads no float network,
        whatever dataset it is handed."""
        def forbidden(*args, **kwargs):
            raise AssertionError("a cache hit must not touch the float net")

        _, meta_path = quantized_cache_paths("network2", cache_dir=cache_dir)
        meta = json.loads(meta_path.read_text())
        monkeypatch.setattr(zoo, "evaluate_accuracy", forbidden)
        monkeypatch.setattr(zoo, "get_trained_network", forbidden)
        other_x, other_y = generate_images(30, seed=99)
        other = MnistLike(
            train=Dataset(other_x, other_y), test=Dataset(other_x, other_y)
        )
        for dataset in (small_bundle, other):
            qm = get_quantized("network2", dataset=dataset, cache_dir=cache_dir)
            assert qm.float_test_error == meta["float_test_error"]
            assert qm.quantized_test_error == meta["quantized_test_error"]


class TestDigestCache:
    def test_different_search_configs_do_not_collide(
        self, small_bundle, cache_dir
    ):
        from repro.core.threshold_search import SearchConfig

        coarse = SearchConfig(thres_max=0.1, search_step=0.02)
        default_npz, _ = quantized_cache_paths("network2", cache_dir=cache_dir)
        coarse_npz, _ = quantized_cache_paths(
            "network2", search_config=coarse, cache_dir=cache_dir
        )
        assert default_npz != coarse_npz

        qm_default = get_quantized(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        qm_coarse = get_quantized(
            "network2",
            dataset=small_bundle,
            search_config=coarse,
            cache_dir=cache_dir,
        )
        assert qm_default.digest != qm_coarse.digest
        # Both artefacts coexist on disk: reloading the default config
        # must NOT hand back the coarse model (the pre-digest cache
        # keyed on the network name alone did exactly that).
        reloaded = get_quantized(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        assert reloaded.search.thresholds == qm_default.search.thresholds

    def test_digest_stable_and_network_specific(self):
        assert recipe_digest("network2") == recipe_digest("network2")
        assert recipe_digest("network1") != recipe_digest("network2")


class TestWarmRegistry:
    def test_warm_model_returns_same_object(self, small_bundle, cache_dir):
        clear_warm_models()
        first = warm_model(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        second = warm_model(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        assert first is second
        clear_warm_models()
        third = warm_model(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        assert third is not first
        assert third.search.thresholds == first.search.thresholds

    def test_force_bypasses_registry(self, small_bundle, cache_dir):
        clear_warm_models()
        first = warm_model(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        fresh = warm_model(
            "network2", dataset=small_bundle, cache_dir=cache_dir, force=True
        )
        assert fresh is not first


class TestSharedDataset:
    def test_one_read_only_bundle_per_key(self, tmp_path, monkeypatch):
        monkeypatch.setattr(zoo, "_DATASETS", {})
        with obs.recording() as rec:
            first = zoo.get_dataset(40, 12, seed=3, cache_dir=tmp_path)
            again = zoo.get_dataset(40, 12, seed=3, cache_dir=tmp_path)
            other = zoo.get_dataset(40, 12, seed=4, cache_dir=tmp_path)
        assert again is first and other is not first
        counters = rec.metrics.as_dict()["counters"]
        assert counters["zoo/dataset/hits"] == 1
        assert counters["zoo/dataset/misses"] == 2
        assert not first.test.images.flags.writeable
        clear_warm_models()
        assert zoo.get_dataset(40, 12, seed=3, cache_dir=tmp_path) is not first


class TestDeepNetwork:
    def test_build_structure(self):
        from repro.zoo import build_deep_network

        net = build_deep_network()
        weighted = [l for l in net.layers if hasattr(l, "weight_matrix")]
        assert len(weighted) == 5
        assert net.forward(np.zeros((1, 1, 28, 28))).shape == (1, 10)

    def test_trains_and_caches(self, small_bundle, tmp_path):
        from repro.zoo import get_deep_network

        net = get_deep_network(dataset=small_bundle, cache_dir=tmp_path)
        assert (tmp_path / "models" / "deep_demo.npz").exists()
        again = get_deep_network(dataset=small_bundle, cache_dir=tmp_path)
        x = small_bundle.test.images[:2]
        np.testing.assert_allclose(net.forward(x), again.forward(x))


class TestCorruptCache:
    """Corrupt cache artifacts must behave like cache misses (regression:
    a mangled ``.npz`` used to crash ``get_trained_network`` with
    ``zipfile.BadZipFile``)."""

    def test_corrupt_trained_npz_retrains(
        self, small_bundle, cache_dir, caplog
    ):
        good = get_trained_network(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        npz = cache_dir / "models" / "network2_trained.npz"
        npz.write_bytes(b"this is not a zip archive")
        with caplog.at_level("WARNING", logger="repro.zoo"):
            net = get_trained_network(
                "network2", dataset=small_bundle, cache_dir=cache_dir
            )
        assert any("corrupt model cache" in r.message for r in caplog.records)
        # Retrained from scratch with the same recipe -> same weights.
        x = small_bundle.test.images[:4]
        np.testing.assert_allclose(net.forward(x), good.forward(x))
        # And the corrupt artifact was replaced by a loadable one.
        again = get_trained_network(
            "network2", dataset=small_bundle, cache_dir=cache_dir
        )
        np.testing.assert_allclose(again.forward(x), good.forward(x))

    def test_corrupt_quantized_meta_requantizes(
        self, small_bundle, cache_dir, caplog
    ):
        qm = get_quantized("network2", dataset=small_bundle, cache_dir=cache_dir)
        _, meta = quantized_cache_paths("network2", cache_dir=cache_dir)
        meta.write_text("{ truncated")
        with caplog.at_level("WARNING", logger="repro.zoo"):
            redo = get_quantized(
                "network2", dataset=small_bundle, cache_dir=cache_dir
            )
        assert any("corrupt model cache" in r.message for r in caplog.records)
        assert redo.search.thresholds == qm.search.thresholds

    def test_sidecar_without_float_error_requantizes(
        self, small_bundle, cache_dir, caplog
    ):
        qm = get_quantized("network2", dataset=small_bundle, cache_dir=cache_dir)
        _, meta_path = quantized_cache_paths("network2", cache_dir=cache_dir)
        meta = json.loads(meta_path.read_text())
        del meta["float_test_error"]
        meta_path.write_text(json.dumps(meta))
        with caplog.at_level("WARNING", logger="repro.zoo"):
            redo = get_quantized(
                "network2", dataset=small_bundle, cache_dir=cache_dir
            )
        assert any("corrupt model cache" in r.message for r in caplog.records)
        assert redo.search.thresholds == qm.search.thresholds
        assert redo.float_test_error == qm.float_test_error
        rewritten = json.loads(meta_path.read_text())
        assert rewritten["float_test_error"] == qm.float_test_error

    def test_truncated_quantized_npz_requantizes(
        self, small_bundle, cache_dir, caplog
    ):
        qm = get_quantized("network2", dataset=small_bundle, cache_dir=cache_dir)
        npz, _ = quantized_cache_paths("network2", cache_dir=cache_dir)
        npz.write_bytes(npz.read_bytes()[:100])
        with caplog.at_level("WARNING", logger="repro.zoo"):
            redo = get_quantized(
                "network2", dataset=small_bundle, cache_dir=cache_dir
            )
        assert any("corrupt model cache" in r.message for r in caplog.records)
        assert redo.search.thresholds == qm.search.thresholds

    def test_save_is_atomic_no_tmp_left_behind(self, small_bundle, tmp_path):
        get_trained_network("network2", dataset=small_bundle, cache_dir=tmp_path)
        leftovers = list((tmp_path / "models").glob("*.tmp"))
        assert leftovers == []
