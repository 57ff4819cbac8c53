"""End-to-end integration tests: the full paper pipeline on a small scale.

train -> Algorithm 1 -> SEI / dynamic-threshold hardware -> splitting.
"""

import numpy as np
import pytest

from repro.core import (
    BinarizedNetwork,
    HardwareConfig,
    build_split_network,
    dynamic_threshold_layer_compute,
    sei_layer_compute,
)
from repro.hw import RRAMDevice
from repro.nn import evaluate_accuracy


class TestFullPipeline:
    def test_quantization_then_sei_hardware(self, tiny_quantized, tiny_dataset):
        """Float -> 1-bit -> SEI crossbars: accuracy survives each step."""
        test_x, test_y = tiny_dataset["test_x"], tiny_dataset["test_y"]

        bn = tiny_quantized.binarized()
        quant_err = bn.error_rate(test_x, test_y)

        hw = tiny_quantized.binarized()
        net = tiny_quantized.network
        hw.layer_computes[3] = sei_layer_compute(
            net.layers[3], max_crossbar_size=2048
        )
        hw.layer_computes[7] = sei_layer_compute(
            net.layers[7], max_crossbar_size=2048
        )
        hw_err = hw.error_rate(test_x, test_y)
        # 8-bit weight quantization costs at most a few points.
        assert hw_err <= quant_err + 0.08

    def test_device_variation_degrades_gracefully(
        self, tiny_quantized, tiny_dataset
    ):
        test_x, test_y = tiny_dataset["test_x"], tiny_dataset["test_y"]
        net = tiny_quantized.network
        noisy = tiny_quantized.binarized()
        noisy.layer_computes[3] = sei_layer_compute(
            net.layers[3],
            device=RRAMDevice(program_sigma=0.2),
            max_crossbar_size=2048,
            rng=np.random.default_rng(0),
        )
        err = noisy.error_rate(test_x, test_y)
        clean_err = tiny_quantized.binarized().error_rate(test_x, test_y)
        assert err <= clean_err + 0.15

    def test_unipolar_pipeline(self, tiny_quantized, tiny_dataset):
        """Dynamic-threshold (unipolar device) path end to end."""
        test_x, test_y = tiny_dataset["test_x"], tiny_dataset["test_y"]
        net = tiny_quantized.network
        hw = tiny_quantized.binarized()
        hw.layer_computes[3] = dynamic_threshold_layer_compute(
            net.layers[3],
            threshold=tiny_quantized.thresholds[3],
            max_crossbar_size=4096,
        )
        err = hw.error_rate(test_x, test_y)
        clean_err = tiny_quantized.binarized().error_rate(test_x, test_y)
        assert err <= clean_err + 0.1

    def test_split_pipeline_all_methods(self, tiny_quantized, tiny_dataset):
        errors = {}
        for method in ("natural", "random", "homogenize"):
            result = build_split_network(
                tiny_quantized.network,
                tiny_quantized.thresholds,
                tiny_dataset["train_x"],
                tiny_dataset["train_y"],
                hardware=HardwareConfig(
                    max_crossbar_size=256, partition_method=method
                ),
            )
            errors[method] = result.binarized.error_rate(
                tiny_dataset["test_x"], tiny_dataset["test_y"]
            )
        # All remain usable classifiers on the tiny task.
        for method, err in errors.items():
            assert err < 0.6, (method, errors)

    def test_quantized_network_consistency(self, tiny_quantized, tiny_dataset):
        """Binarized inference is deterministic."""
        bn = tiny_quantized.binarized()
        a = bn.predict(tiny_dataset["test_x"][:16])
        b = bn.predict(tiny_dataset["test_x"][:16])
        np.testing.assert_array_equal(a, b)

    def test_float_network_reference_accuracy(
        self, trained_tiny_network, tiny_dataset
    ):
        acc = evaluate_accuracy(
            trained_tiny_network, tiny_dataset["test_x"], tiny_dataset["test_y"]
        )
        assert acc > 0.75
