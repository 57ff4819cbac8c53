"""Unit and equivalence tests for the fused engine's uint8 planes and
its ``packed`` alias.

On integral crossbars the fused engine runs the certified integer GEMM
on uint8 selection planes and decides against integer firing tables;
``packed`` names the same engine.  These tests pin the decision tables
against the float64 comparison and the alias against the fused engine —
including the exact-float32 DAC path, the folded binarize passes, the
float64 fallback on noisy or aging cells, fresh folded outputs and
serving-tile batch invariance.
"""

import numpy as np
import pytest

from repro.core.binarized import binarize
from repro.core.engines import EngineSpec, compile_network
from repro.core.hardware_network import HardwareConfig
from repro.core.integer_gemm import integer_layer
from repro.core.splitting import SplitDecision
from repro.hw.array import TemporalConfig
from repro.hw.device import RRAMDevice
from repro.testing import SEI_ATOL, SEI_RTOL

TIGHT = dict(rtol=1e-9, atol=1e-12)


def _bits(rng, n, rows, p=0.4):
    return (rng.random((n, rows)) < p).astype(np.uint8)


class TestDecisionTables:
    def test_tables_match_float_comparison(self, rng):
        rows, cols = 48, 4
        ints = rng.integers(-120, 121, size=(rows, cols))
        units = [0.004, 0.005]
        block_index = [np.arange(0, 24), np.arange(24, 48)]
        mats = [
            units[k] * ints[idx].astype(np.float64)
            for k, idx in enumerate(block_index)
        ]
        decision = SplitDecision(
            block_threshold=0.11, ones_slope=0.003, vote_threshold=1
        )
        bias = rng.normal(scale=0.05, size=cols)
        tables = integer_layer(
            mats, units, 24,
            [decision.thresholds_for(np.arange(25.0))] * 2, bias,
        ).tables
        bits = _bits(rng, 40, rows)
        for k, idx in enumerate(block_index):
            ones = bits[:, idx].sum(axis=1)
            acc = bits[:, idx].astype(np.int64) @ ints[idx]
            analog = units[k] * acc.astype(np.float64) + bias
            expected = analog > decision.thresholds_for(ones)[:, None]
            fired = acc >= tables[k][ones]
            np.testing.assert_array_equal(fired, expected)


class TestAssembledEngine:
    def _predict(self, engine, tiny_quantized, images, device, **hw):
        config = HardwareConfig(device=device, **hw)
        compiled = compile_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            EngineSpec(name=engine, hardware=config),
        )
        return compiled, compiled.predict(images)

    @pytest.mark.parametrize(
        "device",
        [
            RRAMDevice(bits=4),
            RRAMDevice(bits=4, stuck_low_rate=0.03, stuck_high_rate=0.03),
        ],
        ids=["clean", "stuck"],
    )
    def test_matches_fused_and_folds_binarize(
        self, device, tiny_quantized, tiny_dataset
    ):
        images = tiny_dataset["test_x"][:24]
        packed, packed_logits = self._predict(
            "packed", tiny_quantized, images, device, max_crossbar_size=128
        )
        fused, fused_logits = self._predict(
            "fused", tiny_quantized, images, device, max_crossbar_size=128
        )
        np.testing.assert_allclose(packed_logits, fused_logits, **TIGHT)
        # Stuck cells stay on the nibble grid: the integer kernel (and
        # with it the folded threshold comparison) must stay engaged.
        assert packed.prebinarized
        assert packed.prebinarized <= set(tiny_quantized.thresholds)
        # On integral crossbars both names fold the same layers, and the
        # folded planes are uint8 0/1 planes.
        assert fused.prebinarized == packed.prebinarized
        x = fused._quantize_input(images)
        for index in range(len(fused.network.layers)):
            x = fused.run_layer(index, x)
            if index in fused.prebinarized:
                assert x.dtype == np.uint8 and x.max(initial=0) <= 1

    def test_program_noise_falls_back_to_fused_exactly(
        self, tiny_quantized, tiny_dataset
    ):
        device = RRAMDevice(bits=4, program_sigma=0.25)
        images = tiny_dataset["test_x"][:16]
        packed, packed_logits = self._predict(
            "packed", tiny_quantized, images, device
        )
        _, fused_logits = self._predict(
            "fused", tiny_quantized, images, device
        )
        # Off-grid cells: every thresholded layer is still decided in its
        # firing kernel (by the float64 fallback) and emits its plane.
        assert packed.prebinarized == set(tiny_quantized.thresholds)
        np.testing.assert_array_equal(packed_logits, fused_logits)

    def test_folded_layers_emit_exact_bits(
        self, tiny_quantized, tiny_dataset
    ):
        """A folded layer's plane equals binarize() of the unfolded one."""
        device = RRAMDevice(bits=4)
        config = HardwareConfig(device=device, max_crossbar_size=128)
        images = tiny_dataset["test_x"][:8]
        packed = compile_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            EngineSpec(name="packed", hardware=config),
        )
        fused = compile_network(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            EngineSpec(name="fused", hardware=config),
        )
        xp = packed._quantize_input(images)
        xf = fused._quantize_input(images)
        for index in range(len(packed.network.layers)):
            layer = packed.network.layers[index]
            if index in packed.prebinarized:
                emitted = packed.layer_computes[index](layer, xp)
                reference = binarize(
                    fused.layer_computes[index](layer, xf),
                    tiny_quantized.thresholds[index],
                )
                np.testing.assert_array_equal(
                    np.asarray(emitted, dtype=np.float64), reference
                )
            xp = packed.run_layer(index, xp)
            xf = fused.run_layer(index, xf)

    def test_batch_invariance_through_serving_tiles(
        self, tiny_quantized, tiny_dataset
    ):
        from repro.serve.session import InferenceSession, SessionConfig

        device = RRAMDevice(bits=4, stuck_low_rate=0.02)
        session = InferenceSession.from_artifacts(
            tiny_quantized.network,
            tiny_quantized.thresholds,
            SessionConfig(
                network="tiny",
                engine=EngineSpec(
                    name="packed", hardware=HardwareConfig(device=device)
                ),
                tile=5,
            ),
        )
        images = tiny_dataset["test_x"][:12]
        whole = session.infer_batch(images)
        singles = np.stack([session.infer(x) for x in images])
        np.testing.assert_array_equal(whole, singles)
        parts = np.concatenate(
            [session.infer_batch(images[:7]), session.infer_batch(images[7:])]
        )
        np.testing.assert_array_equal(whole, parts)

    @pytest.mark.parametrize("engine", ["fused", "packed"])
    def test_run_layer_results_survive_a_second_call(
        self, engine, tiny_quantized, tiny_dataset
    ):
        """A layer's returned plane is the caller's, not kernel scratch."""
        compiled, _ = self._predict(
            engine, tiny_quantized, tiny_dataset["test_x"][:1],
            RRAMDevice(bits=4), max_crossbar_size=128,
        )
        first = compiled._quantize_input(tiny_dataset["test_x"][:6])
        second = compiled._quantize_input(tiny_dataset["test_x"][6:12])
        for index in range(len(compiled.network.layers)):
            kept = compiled.run_layer(index, first)
            snapshot = np.array(kept, copy=True)
            other = compiled.run_layer(index, second)
            np.testing.assert_array_equal(kept, snapshot)
            first, second = snapshot, other

    def test_noisy_network2_falls_back_to_fused_exactly(self):
        """Programming variation leaves no crossbar integral: packed runs
        the fused firing kernels' float64 fallback and matches fused
        exactly."""
        from repro.zoo import get_dataset, get_quantized

        dataset = get_dataset()
        model = get_quantized("network2", dataset=dataset)
        config = HardwareConfig(device=RRAMDevice(bits=4, program_sigma=0.1))
        images = dataset.test.images[:32]
        logits = {}
        for engine in ("fused", "packed"):
            compiled = compile_network(
                model.search.network,
                model.search.thresholds,
                EngineSpec(name=engine, hardware=config),
            )
            logits[engine] = compiled.predict(images)
        np.testing.assert_array_equal(logits["packed"], logits["fused"])

    def test_temporal_hardware_compiles_and_matches_fused(
        self, tiny_quantized, tiny_dataset
    ):
        """Aging cells never certify, so the alias runs the firing
        kernels' float64 fallback on temporal hardware, exactly as fused
        does."""
        device = RRAMDevice(bits=4)
        temporal = TemporalConfig(drift_nu=0.05, seed=3)
        images = tiny_dataset["test_x"][:16]
        logits = {}
        for engine in ("fused", "packed"):
            compiled, logits[engine] = self._predict(
                engine, tiny_quantized, images, device,
                max_crossbar_size=128, temporal=temporal,
            )
            assert compiled.device_arrays
        np.testing.assert_array_equal(logits["packed"], logits["fused"])

    @pytest.mark.parametrize(
        "device, temporal",
        [
            (RRAMDevice(bits=4, program_sigma=0.1), None),
            (RRAMDevice(bits=4, read_sigma=0.02), None),
            (RRAMDevice(bits=4), TemporalConfig(drift_nu=0.05, seed=3)),
        ],
        ids=["program", "read", "temporal"],
    )
    def test_uncertified_layers_emit_planes(
        self, tiny_quantized, tiny_dataset, device, temporal
    ):
        """Cells that never certify still run every thresholded layer
        through its firing kernel: the float64 fallback decides, the
        layer emits its uint8 0/1 plane, and the logits follow the
        reference oracle (across an ``advance`` of aging arrays), with
        the alias identical to fused."""
        images = tiny_dataset["test_x"][:16]
        config = HardwareConfig(
            device=device, max_crossbar_size=128, temporal=temporal
        )
        nets = {
            engine: compile_network(
                tiny_quantized.network, tiny_quantized.thresholds,
                EngineSpec(name=engine, hardware=config),
            )
            for engine in ("fused", "packed", "reference")
        }
        for step in range(2):
            if step:
                for net in nets.values():
                    for array in net.device_arrays.values():
                        array.advance(100.0)
            logits = {name: net.predict(images) for name, net in nets.items()}
            np.testing.assert_allclose(
                logits["fused"], logits["reference"],
                rtol=SEI_RTOL, atol=SEI_ATOL,
            )
            np.testing.assert_array_equal(logits["packed"], logits["fused"])
        fused = nets["fused"]
        assert fused.prebinarized == set(tiny_quantized.thresholds)
        x = fused._quantize_input(images)
        for index in range(len(fused.network.layers)):
            x = fused.run_layer(index, x)
            if index in fused.prebinarized:
                assert x.dtype == np.uint8 and x.max(initial=0) <= 1
