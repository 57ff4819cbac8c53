"""Unit and equivalence tests for the packed popcount SEI engine.

The packed engine re-lowers the fused crossbar arithmetic onto bit-plane
activations, precomputed per-group partial-sum tables and integer
decision thresholds.  These tests pin each primitive against a brute
force oracle (pack/unpack round-trips, group tables, decision tables)
and the assembled engine against the fused engine — including the
exact-float32 DAC path, the folded binarize passes, the fallback to the
fused kernels, fresh folded outputs and serving-tile batch invariance.
"""

import numpy as np
import pytest

from repro.core.binarized import binarize
from repro.core.engines import EngineSpec, compile_network
from repro.core.hardware_network import HardwareConfig
from repro.core.integer_gemm import integer_layer
from repro.core.packed import (
    GROUP_ROWS,
    PackedMatrix,
    build_group_tables,
)
from repro.core.splitting import SplitDecision
from repro.errors import ConfigurationError, ShapeError
from repro.hw.device import RRAMDevice

TIGHT = dict(rtol=1e-9, atol=1e-12)


def _bits(rng, n, rows, p=0.4):
    return (rng.random((n, rows)) < p).astype(np.uint8)


def _planned(matrix, bits):
    """Logical ``(n, rows)`` bits gathered into the matrix's row layout."""
    from repro.core.matrix_compute import Scratch
    from repro.nn.layers import Dense

    layer = Dense(matrix.rows, matrix.cols, rng=np.random.default_rng(0))
    return matrix.plan().gather(layer, bits, Scratch())


class TestPackRoundTrip:
    """``PackedMatrix.pack`` on the planned row layout: the byte planes
    the kernels read."""

    @staticmethod
    def _matrix(rows, blocks=1):
        index = np.array_split(np.arange(rows), blocks)
        return PackedMatrix(
            [np.ones((len(block), 3)) for block in index],
            [1.0] * blocks, index, rows,
        )

    @pytest.mark.parametrize("rows", [1, 7, 8, 9, 40, 63, 64, 65])
    def test_round_trip(self, rng, rows):
        matrix = self._matrix(rows, blocks=min(2, rows))
        bits = _bits(rng, 6, rows)
        codes = matrix.pack(_planned(matrix, bits))
        assert codes.shape == (6, matrix.num_blocks * matrix.groups_per_block)
        planned = np.unpackbits(
            codes.reshape(6, matrix.num_blocks, -1), axis=-1
        )
        # Every logical row comes back from its word line; the padding
        # word lines (layout entry == rows) read as zero.
        recovered = np.zeros((6, rows + 1), dtype=np.uint8)
        recovered[:, matrix.layout] = planned
        np.testing.assert_array_equal(recovered[:, :rows], bits)
        assert not planned[:, matrix.layout == rows].any()

    def test_packbits_bit_order(self):
        # Row 8*g + j occupies bit 7-j of byte g (numpy MSB-first).
        matrix = self._matrix(16)
        bits = np.zeros((1, 16), dtype=np.uint8)
        bits[0, 0] = bits[0, 9] = 1
        codes = matrix.pack(_planned(matrix, bits))
        assert codes[0].tolist() == [0x80, 0x40]

    def test_rejects_non_2d(self):
        matrix = self._matrix(8)
        with pytest.raises(ShapeError):
            _planned(matrix, np.zeros(8, dtype=np.uint8))


class TestGroupTables:
    def test_matches_brute_force(self, rng):
        rows = rng.integers(-255, 256, size=(16, 5)).astype(np.int64)
        tables = build_group_tables(rows)
        assert tables.shape == (2, 256, 5)
        for g in range(2):
            group = rows[g * GROUP_ROWS : (g + 1) * GROUP_ROWS]
            for pattern in rng.integers(0, 256, size=32):
                selected = [
                    group[j]
                    for j in range(GROUP_ROWS)
                    if pattern & (1 << (GROUP_ROWS - 1 - j))
                ]
                expected = (
                    np.sum(selected, axis=0)
                    if selected
                    else np.zeros(5, dtype=np.int64)
                )
                np.testing.assert_array_equal(
                    tables[g, pattern].astype(np.int64), expected
                )

    def test_dtype_widens_when_needed(self):
        small = np.full((8, 2), 255, dtype=np.int64)
        assert build_group_tables(small).dtype == np.int16
        large = np.full((8, 2), 50_000, dtype=np.int64)
        assert build_group_tables(large).dtype == np.int32

    def test_validation(self):
        with pytest.raises(ShapeError, match="multiple"):
            build_group_tables(np.zeros((9, 3), dtype=np.int64))
        with pytest.raises(ConfigurationError, match="integer"):
            build_group_tables(np.zeros((8, 3)))


class TestPackedMatrix:
    def _matrix(self, rng, rows=52, cols=6, blocks=(0, 20, 52), unit=0.01,
                permute=False):
        order = np.arange(rows)
        if permute:
            order = rng.permutation(rows)
        block_index = [
            order[lo:hi] for lo, hi in zip(blocks[:-1], blocks[1:])
        ]
        ints = rng.integers(-200, 201, size=(rows, cols))
        units = [unit * (k + 1) for k in range(len(block_index))]
        mats = [
            units[k] * ints[idx].astype(np.float64)
            for k, idx in enumerate(block_index)
        ]
        return (
            PackedMatrix(mats, units, block_index, rows),
            ints,
            block_index,
            units,
        )

    def _oracle(self, bits, ints, block_index, units):
        """Float block sums straight from the definition of Equ. 6."""
        out = np.zeros((bits.shape[0], ints.shape[1]))
        for k, idx in enumerate(block_index):
            out += units[k] * (
                bits[:, idx].astype(np.float64) @ ints[idx].astype(np.float64)
            )
        return out

    def _sums(self, matrix, bits):
        acc = matrix.accumulate(matrix.pack(_planned(matrix, bits)))
        return sum(matrix.units[k] * acc[k] for k in range(matrix.num_blocks))

    def test_compute_matches_oracle_contiguous(self, rng):
        matrix, ints, block_index, units = self._matrix(rng)
        bits = _bits(rng, 9, 52)
        np.testing.assert_allclose(
            self._sums(matrix, bits),
            self._oracle(bits, ints, block_index, units),
            **TIGHT,
        )

    def test_compute_matches_oracle_gather(self, rng):
        matrix, ints, block_index, units = self._matrix(rng, permute=True)
        bits = _bits(rng, 9, 52)
        np.testing.assert_allclose(
            self._sums(matrix, bits),
            self._oracle(bits, ints, block_index, units),
            **TIGHT,
        )

    def test_ragged_blocks_pad_to_byte_lanes(self, rng):
        # 20- and 32-row blocks pad to the 32-row block height: 4 lanes
        # per block, trailing word-line rows carry zero weights.
        matrix, *_ = self._matrix(rng)
        assert matrix.block_height == 32
        assert matrix.groups_per_block == 4
        bits = _bits(rng, 5, 52)
        codes = matrix.pack(_planned(matrix, bits))
        assert codes.shape == (5, 8)
        ones = matrix.ones_per_block(codes)
        np.testing.assert_array_equal(ones[:, 0], bits[:, :20].sum(axis=1))
        np.testing.assert_array_equal(ones[:, 1], bits[:, 20:].sum(axis=1))

    def test_pack_paths_agree(self, rng):
        # Packing the planned block layout equals packing each block's
        # slice of the input with np.packbits' own trailing zero padding.
        matrix, *_ = self._matrix(rng)
        bits = _bits(rng, 7, 52)
        codes = matrix.pack(_planned(matrix, bits))
        for k, (lo, hi) in enumerate([(0, 20), (20, 52)]):
            lanes = codes[:, k * 4 : (k + 1) * 4]
            sliced = np.packbits(bits[:, lo:hi], axis=1)
            np.testing.assert_array_equal(lanes[:, : sliced.shape[1]], sliced)
            assert not lanes[:, sliced.shape[1] :].any()

    def test_scratch_plane_is_overwritten(self, rng):
        # The planned rows live in per-thread scratch: the next gather on
        # the same plan and thread reuses (and overwrites) the storage.
        from repro.core.matrix_compute import Scratch
        from repro.nn.layers import Dense

        matrix, *_ = self._matrix(rng)
        plan, scratch = matrix.plan(), Scratch()
        layer = Dense(52, 6, rng=rng)
        first = plan.gather(layer, _bits(rng, 4, 52), scratch)
        stale = first.copy()
        second = plan.gather(layer, 1 - _bits(rng, 4, 52), scratch)
        assert not np.array_equal(stale, second)
        assert np.shares_memory(first, second)


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
        matrix = PackedMatrix(mats, units, block_index, rows)
        decision = SplitDecision(
            block_threshold=0.11, ones_slope=0.003, vote_threshold=1
        )
        bias = rng.normal(scale=0.05, size=cols)
        tables = integer_layer(
            mats, units, 24,
            [decision.thresholds_for(np.arange(25.0))] * 2, bias,
        ).tables
        bits = _bits(rng, 40, rows)
        codes = matrix.pack(_planned(matrix, bits))
        ones = matrix.ones_per_block(codes)
        acc = matrix.accumulate(codes)
        for k in range(2):
            analog = units[k] * acc[k].astype(np.float64) + bias
            expected = analog > decision.thresholds_for(ones[:, k])[:, None]
            fired = acc[k] >= tables[k][ones[:, k]]
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
        # On integral crossbars both engines fold the same layers, and
        # the fused engine's folded planes are the float64 planes the
        # outer binarize would write.
        assert fused.prebinarized == packed.prebinarized
        x = fused._quantize_input(images)
        for index in range(len(fused.network.layers)):
            x = fused.run_layer(index, x)
            if index in fused.prebinarized:
                assert x.dtype == np.float64 and x.flags.c_contiguous

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
        # Off-grid cells: no folding anywhere, same float arithmetic.
        assert packed.prebinarized == frozenset()
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
        the fused kernels (fed float64 rows) and matches fused exactly."""
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
