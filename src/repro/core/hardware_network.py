"""Full-chip hardware assembly: every layer through crossbar models.

The accuracy experiments elsewhere swap hardware models in layer by
layer.  This module assembles the *whole* inference path the way the
paper's SPICE emulation does (§5.1: "an 4-bit RRAM device model ... is
used to build up the SPICE-level crossbar array"):

* :func:`assemble_sei_network` — every weighted layer runs on
  :class:`repro.core.sei.SEIMatrix` crossbars (4-bit cells, optional
  programming variation / read noise / IR drop).  Oversized layers are
  split into blocks, each block its *own* SEI crossbar feeding its own
  sense amplifiers, merged by the §4.3 digital vote — the complete
  Fig. 2(d) structure with non-ideal silicon underneath.
* :func:`adc_layer_compute` / :func:`assemble_adc_network` — the
  functional model of the traditional designs: activations quantized by
  the DACs, weights on bit-sliced positive/negative crossbars, column
  currents digitised by ADCs and merged digitally.  Used to check that
  the baseline's accuracy matches the float network (the premise of
  Table 5's error-rate column).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.hw.array import DeviceArrayBase, TemporalConfig, make_array
from repro.hw.device import RRAMDevice
from repro.hw.peripherals import ADC, DAC
from repro.hw.tech import TechnologyModel
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D, ReLU
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.estimate import EstimatorPolicy, SkipStats
from repro.core.homogenize import Partition, homogenize, natural_partition
from repro.core.matrix_compute import (
    RowPlan,
    Scratch,
    apply_matrix_fn,
    ensure_binary,
    fold_rows,
    layer_bias,
    layer_weight_matrix,
)
from repro.core.sei import SEIMatrix
from repro.core.splitting import SplitDecision, SplitMatrix, required_blocks

__all__ = [
    "HardwareConfig",
    "HardwareSplitMatrix",
    "assemble_sei_network",
    "adc_layer_compute",
    "assemble_adc_network",
]


@dataclass(frozen=True)
class HardwareConfig:
    """Device/fabric parameters for full-hardware assembly."""

    device: RRAMDevice = RRAMDevice(bits=4)
    weight_bits: int = 8
    max_crossbar_size: int = 512
    ir_drop_lambda: float = 0.0
    #: Partition choice for split layers: 'natural' or 'homogenize'.
    partition_method: str = "homogenize"
    homogenize_iterations: int = 2000
    seed: int = 0
    #: Optional aging behaviour; None (or all-off) keeps the cells on
    #: static SimDeviceArrays — bit-identical to historical behaviour.
    temporal: Optional[TemporalConfig] = None

    def __post_init__(self) -> None:
        if self.partition_method not in ("natural", "homogenize"):
            raise ConfigurationError(
                "partition_method must be 'natural' or 'homogenize', got "
                f"{self.partition_method!r}"
            )


class HardwareSplitMatrix(SplitMatrix):
    """A split matrix whose blocks are real SEI crossbars.

    Overrides the exact partial sums of :class:`SplitMatrix` with
    per-block :class:`SEIMatrix` computations, so 4-bit cell
    quantization, programming variation, read noise and IR drop all
    reach the block decisions.
    """

    def __init__(
        self,
        weights: np.ndarray,
        partition: Partition,
        decision: SplitDecision,
        config: HardwareConfig,
        bias: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
        engine: str = "fused",
    ) -> None:
        super().__init__(weights, partition, decision, bias=bias)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
        self._engine = engine
        self._block_crossbars = [
            SEIMatrix(
                self.weights[block],
                device=config.device,
                weight_bits=config.weight_bits,
                max_crossbar_size=config.max_crossbar_size,
                ir_drop_lambda=config.ir_drop_lambda,
                rng=rng,
                temporal=config.temporal,
            )
            for block in self.blocks
        ]
        # Noiseless blocks collapse to static signed matrices, so the K
        # block crossbars fuse into one batched matmul over the padded
        # block layout (see SplitMatrix).  Noisy reads stay per-crossbar:
        # each SEIMatrix already reads all its slices in one vectorized
        # draw.  The static collapse is cached against the block arrays'
        # generation counters, so aging blocks re-collapse lazily.
        self._fused_blocks = config.device.read_sigma <= 0
        self._padded_cache: Optional[tuple] = None

    @property
    def block_arrays(self) -> list:
        """The live device arrays behind the block crossbars."""
        return [crossbar.array for crossbar in self._block_crossbars]

    def _block_matrices(self) -> np.ndarray:
        """Per-block signed matrices in the padded ``(K, H, cols)`` layout.

        Noiseless reads return the cached static cells (re-collapsed
        only when a block array's generation moved); noisy reads rebuild
        the layout each call from one vectorized read per block (every
        read covers all of that block's slices in a single RNG draw —
        stream-identical to the per-slice reference loop).
        """
        if self._fused_blocks:
            generations = tuple(
                crossbar.array.generation
                for crossbar in self._block_crossbars
            )
            cache = self._padded_cache
            if cache is None or cache[0] != generations:
                cells = np.zeros_like(self._padded_weights)
                for k, (block, crossbar) in enumerate(
                    zip(self.blocks, self._block_crossbars)
                ):
                    cells[k, : len(block)] = crossbar.fused_matrix
                self._padded_cache = (generations, cells)
            return self._padded_cache[1]
        cells = np.zeros_like(self._padded_weights)
        for k, (block, crossbar) in enumerate(
            zip(self.blocks, self._block_crossbars)
        ):
            cells[k, : len(block)] = (
                crossbar.read_effective_weights(crossbar.rng)
                * crossbar.ir_drop_attenuation
            )
        return cells

    def _sums_from_gathered(
        self, gathered: np.ndarray, out: Optional[np.ndarray] = None
    ) -> np.ndarray:
        # The fused funnel: block_sums, block_bits and the fused split
        # compute all land here, so this is where the batch's read
        # events reach the block arrays (the reference paths go through
        # compute_reference, which accounts its own reads).
        sums = super()._sums_from_gathered(gathered, out)
        for crossbar in self._block_crossbars:
            crossbar.array.note_reads(gathered.shape[0])
        return sums

    def block_sums(self, bits: np.ndarray, validate: bool = True) -> np.ndarray:
        if self._engine == "reference":
            return self.block_sums_reference(bits)
        if validate:
            ensure_binary(np.asarray(bits), "split-matrix inputs")
        return super().block_sums(bits)

    def block_bits(self, bits: np.ndarray, validate: bool = True) -> np.ndarray:
        if self._engine == "reference":
            bits = self._as_rows(bits)
            sums = self.block_sums_reference(bits)
            ones = np.stack(
                [bits[:, block].sum(axis=1) for block in self.blocks], axis=1
            )
            thresholds = self.decision.thresholds_for(ones)
            return (sums > thresholds[:, :, None]).astype(np.float64)
        if validate:
            ensure_binary(np.asarray(bits), "split-matrix inputs")
        return super().block_bits(bits)

    def block_sums_reference(self, bits: np.ndarray) -> np.ndarray:
        """Pre-fusion per-block crossbar loop (equivalence oracle)."""
        bits = np.asarray(bits, dtype=np.float64)
        if bits.ndim == 1:
            bits = bits[None, :]
        sums = np.empty((bits.shape[0], self.num_blocks, self.cols))
        for k, (block, crossbar) in enumerate(
            zip(self.blocks, self._block_crossbars)
        ):
            sums[:, k, :] = (
                crossbar.compute_reference(bits[:, block]) + self.block_bias
            )
        return sums


def assemble_sei_network(
    network: Sequential,
    thresholds: Dict[int, float],
    config: Optional[HardwareConfig] = None,
    decisions: Optional[Dict[int, SplitDecision]] = None,
    partitions: Optional[Dict[int, Partition]] = None,
    rng: Optional[np.random.Generator] = None,
    engine=None,
) -> BinarizedNetwork:
    """Build a BinarizedNetwork whose every layer runs on SEI hardware.

    ``decisions``/``partitions`` override the split configuration per
    layer index (pass the calibrated ones from
    :func:`repro.core.pipeline.build_split_network`); defaults are
    ``T/K`` static thresholds with a majority vote and the config's
    partition method.  The final classifier merges its blocks in analog
    (current summing into the WTA readout), matching the pipeline
    default.

    ``engine`` selects the crossbar arithmetic as a
    :class:`repro.core.engines.EngineSpec` (in which case ``config``
    must be left unset — the hardware options live on the spec), or
    ``None`` for the default fused spec built from ``config``:
    ``'fused'`` collapses the bit-sliced crossbars of each layer into
    stacked matmuls; ``'reference'`` keeps the pre-fusion per-slice /
    per-block loops — numerically equivalent (identical noise streams,
    partial sums re-associated), retained as the equivalence oracle and
    perf-benchmark baseline.
    """
    # Local import: repro.core.engines registers its builders on top of
    # this module, so the dependency cannot also point the other way at
    # import time.
    from repro.core.engines import resolve_engine

    spec = resolve_engine(
        engine,
        hardware=config,
        allowed=("fused", "reference"),
        caller="assemble_sei_network",
    )
    config = spec.hardware
    engine = spec.name
    estimator = spec.estimator
    if estimator.enabled:
        if engine == "reference":
            raise ConfigurationError(
                "the 'reference' engine is the equivalence oracle and "
                "runs estimator-free; use the fused or packed engine"
            )
        if not estimator.exact:
            raise ConfigurationError(
                "the fused engine's estimator skips only settled block "
                "votes, so it has no confidence to trade; threshold mode "
                "runs on the packed engine"
            )
        if config.temporal is not None and config.temporal.enabled:
            raise ConfigurationError(
                "the runtime activation estimator compiles bound tables "
                "against static cells; temporal aging would make them "
                "stale — disable one of the two"
            )
    decisions = decisions if decisions is not None else {}
    partitions = partitions if partitions is not None else {}
    rng = rng if rng is not None else np.random.default_rng(config.seed)

    binarized = BinarizedNetwork(network, dict(thresholds))
    # Per-layer assembly record: which hardware structure each weighted
    # layer compiled to, with references to the live crossbar objects.
    # Downstream engines that re-lower the compiled hardware (the packed
    # popcount engine) and diagnostics read this instead of re-deriving
    # the mapping.
    hardware_layers: Dict[int, dict] = {}
    binarized.hardware_layers = hardware_layers
    # Flat registry of every live device array in the compiled network,
    # keyed "layer<i>" / "layer<i>/block<k>".  The serving layer ages,
    # health-checks and re-tunes through this — it is the one place the
    # Sim/Phys split surfaces at network granularity.
    device_arrays: Dict[str, DeviceArrayBase] = {}
    binarized.device_arrays = device_arrays
    weighted = [
        i
        for i, layer in enumerate(network.layers)
        if isinstance(layer, (Conv2D, Dense))
    ]
    final_index = weighted[-1]

    if engine == "reference":
        # The pre-fusion forward pass always ran the window-materialising
        # argmax pooling; pin it so the reference engine measures the true
        # pre-fusion inference cost (values are identical).
        for index, layer in enumerate(network.layers):
            if isinstance(layer, MaxPool2D):
                binarized.layer_computes[index] = _reference_pool_compute()
    else:
        # A ReLU fed by a 1-bit thresholded layer only ever sees 0/1 data,
        # on which max(x, 0) is an exact identity — skip the pass.
        for index, layer in enumerate(network.layers):
            if isinstance(layer, ReLU) and index - 1 in thresholds:
                binarized.layer_computes[index] = _identity_compute()

    for index in weighted:
        layer = network.layers[index]
        matrix = layer_weight_matrix(layer)
        cells_per_weight = 2 * (config.weight_bits // config.device.bits)
        blocks = required_blocks(
            matrix.shape[0], config.max_crossbar_size, cells_per_weight
        )

        if index == weighted[0]:
            # §3.2: the input layer stays DAC-driven (analog voltages on
            # the rows); its bit-sliced crossbars merge in analog into
            # the sense amplifiers.
            dac_compute = dac_analog_layer_compute(
                layer,
                device=config.device,
                weight_bits=config.weight_bits,
                rng=rng,
                engine=engine,
                obs_index=index,
                temporal=config.temporal,
            )
            binarized.layer_computes[index] = dac_compute
            hardware_layers[index] = {"kind": "dac", "compute": dac_compute}
            device_arrays[f"layer{index}"] = dac_compute.array
            continue

        if blocks <= 1:
            crossbar = SEIMatrix(
                matrix,
                device=config.device,
                weight_bits=config.weight_bits,
                max_crossbar_size=config.max_crossbar_size,
                ir_drop_lambda=config.ir_drop_lambda,
                rng=rng,
                temporal=config.temporal,
            )
            binarized.layer_computes[index] = _unsplit_compute(
                crossbar, engine, obs_index=index
            )
            hardware_layers[index] = {"kind": "unsplit", "crossbar": crossbar}
            device_arrays[f"layer{index}"] = crossbar.array
            continue

        partition = partitions.get(index)
        if partition is None:
            if config.partition_method == "homogenize":
                partition = homogenize(
                    matrix,
                    blocks,
                    iterations=config.homogenize_iterations,
                    seed=config.seed,
                )
            else:
                partition = natural_partition(matrix.shape[0], blocks)

        if index == final_index:
            # Analog merge: per-block crossbars, currents summed into the
            # WTA readout — functionally the sum of block computes.
            crossbars = [
                SEIMatrix(
                    matrix[block],
                    device=config.device,
                    weight_bits=config.weight_bits,
                    max_crossbar_size=config.max_crossbar_size,
                    ir_drop_lambda=config.ir_drop_lambda,
                    rng=rng,
                    temporal=config.temporal,
                )
                for block in partition.blocks()
            ]
            binarized.layer_computes[index] = _analog_merge_compute(
                partition, crossbars, engine, obs_index=index
            )
            hardware_layers[index] = {
                "kind": "analog_merge",
                "partition": partition,
                "crossbars": crossbars,
            }
            for k, crossbar in enumerate(crossbars):
                device_arrays[f"layer{index}/block{k}"] = crossbar.array
            continue

        decision = decisions.get(
            index,
            SplitDecision(
                block_threshold=thresholds[index] / blocks,
                vote_threshold=max(1, (blocks + 1) // 2),
            ),
        )
        split = HardwareSplitMatrix(
            matrix,
            partition,
            decision,
            config,
            bias=layer_bias(layer),
            rng=rng,
            engine=engine,
        )
        binarized.layer_computes[index] = _split_compute(
            split,
            obs_index=index,
            estimator=estimator,
            threshold=thresholds.get(index),
        )
        hardware_layers[index] = {"kind": "split", "matrix": split}
        for k, array in enumerate(split.block_arrays):
            device_arrays[f"layer{index}/block{k}"] = array

    binarized.prebinarized = folded_layers(binarized.layer_computes)
    return binarized


def folded_layers(layer_computes: Dict[int, object]) -> frozenset:
    """Indices whose compute already emits its layer's 0/1 plane.

    Such a compute folded the threshold comparison into its kernel
    (``compute.prebinarized``), so the network's outer binarize pass
    would be an identity and is skipped.
    """
    return frozenset(
        index
        for index, compute in layer_computes.items()
        if getattr(compute, "prebinarized", False)
    )


def _record_mvms(
    obs_index: Optional[int],
    bits: Optional[np.ndarray],
    cols: int,
    *,
    rows: Optional[int] = None,
    block_ones: Optional[np.ndarray] = None,
    blocks: int = 1,
    cells_per_weight: int,
    sa_events: Optional[int] = None,
    noise_draws: int = 0,
    digital_merge: Optional[bool] = None,
    skip: Optional[SkipStats] = None,
) -> None:
    """Count one crossbar invocation when a recorder is active.

    ``bits`` is the ``(N, rows)`` input presented to the rows; a gathered
    split layout passes ``bits=None`` with the logical ``rows`` and its
    ``(N, K)`` per-block active-row counts ``block_ones`` instead (the
    same counters: 0/1 counts are exact).  One ``None`` check when
    instrumentation is off; the activity statistics never touch the RNG,
    so traced runs consume the exact same noise stream as untraced ones.
    """
    rec = obs.active()
    if rec is None or obs_index is None:
        return
    from repro.obs.power import record_mvm_batch

    record_mvm_batch(
        rec.metrics,
        obs_index,
        bits,
        cols,
        rows=rows,
        active_counts=None if block_ones is None else block_ones.sum(axis=1),
        blocks=blocks,
        cells_per_weight=cells_per_weight,
        sa_events=sa_events,
        noise_draws=noise_draws,
        digital_merge=digital_merge,
        skipped_rows=skip.skipped_rows if skip else 0,
        skipped_slots=skip.skipped_slots if skip else 0,
        est_positions=skip.est_positions if skip else 0,
        est_decided=skip.est_decided if skip else 0,
    )


def _reference_pool_compute():
    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        out, _ = F.maxpool2d(x, layer.pool, layer.stride)
        return out

    return compute


def _identity_compute():
    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        return x

    return compute


def _unsplit_compute(
    crossbar: SEIMatrix, engine: str = "fused",
    obs_index: Optional[int] = None,
):
    noise_draws = crossbar.num_cells if crossbar.fused_matrix is None else 0

    if engine == "reference":

        def reference_fn(bits: np.ndarray) -> np.ndarray:
            _record_mvms(
                obs_index, bits, crossbar.cols,
                cells_per_weight=crossbar.cells_per_weight,
                noise_draws=noise_draws,
            )
            return crossbar.compute_reference(bits)

        def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
            return apply_matrix_fn(layer, x, reference_fn)

        return compute

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        _record_mvms(
            obs_index, bits, crossbar.cols,
            cells_per_weight=crossbar.cells_per_weight,
            noise_draws=noise_draws,
        )
        return crossbar.compute(bits, validate=False)

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        # Validate the selection signals before im2col duplicates them
        # kernel^2-fold; the crossbar then skips its own re-check.  The
        # output feeds straight into binarization, which writes a fresh
        # buffer, so the folded view is never materialised.
        ensure_binary(x, "SEI inputs")
        return apply_matrix_fn(layer, x, matrix_fn, contiguous=False)

    return compute


def _split_compute(
    split: HardwareSplitMatrix,
    obs_index: Optional[int] = None,
    estimator: Optional[EstimatorPolicy] = None,
    threshold: Optional[float] = None,
):
    """Layer compute of a hidden split layer (§4.3 block vote).

    The fused computes take their rows from one compiled
    :class:`~repro.core.matrix_compute.RowPlan` (im2col unfold and the
    padded block gather in a single ``np.take``), run the K block dgemms
    into per-thread scratch and emit the fresh float64 0/1 vote plane.
    With the layer ``threshold`` in ``[0, 1)`` the outer binarize is an
    identity on that plane, so the compute is marked ``prebinarized``.
    """
    noise_draws = sum(
        xbar.num_cells
        for xbar in split._block_crossbars
        if xbar.fused_matrix is None
    )
    total_rows = split.weights.shape[0]

    def record(bits=None, sa_events=None, skip=None, block_ones=None):
        _record_mvms(
            obs_index, bits, split.cols,
            rows=total_rows,
            block_ones=block_ones,
            blocks=split.num_blocks,
            cells_per_weight=split._block_crossbars[0].cells_per_weight,
            noise_draws=noise_draws,
            sa_events=sa_events,
            skip=skip,
        )

    if split._engine == "reference":

        def reference_fn(bits: np.ndarray) -> np.ndarray:
            record(bits)
            return split.fire(bits)

        def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
            return apply_matrix_fn(layer, x, reference_fn, add_bias=False)

        return compute

    plan = RowPlan(split._gather)
    scratch = Scratch()
    vote = split.decision.vote_threshold
    num_blocks = split.num_blocks
    cols = split.cols

    def off_counts(gathered: np.ndarray) -> np.ndarray:
        # select rows -> accumulate -> decide -> count votes, all in
        # per-thread scratch; the block dgemms see the same operands as
        # split.block_bits, so the decisions are bit-identical.
        ones = gathered.sum(axis=2)
        record(block_ones=ones)
        sums = split._sums_from_gathered(
            gathered,
            out=scratch.get(
                "sums", (gathered.shape[0], num_blocks, cols), np.float64
            ),
        )
        fired = scratch.get("fired", sums.shape, np.bool_)
        np.greater(
            sums, split.decision.thresholds_for(ones)[:, :, None], out=fired
        )
        return fired.sum(axis=1, dtype=np.uint8)

    # ``kernel`` maps the layer's planned rows to per-position vote counts.
    kernel = off_counts
    # Estimator hook-in: the deferred-block vote schedule (§4.3 vote-level
    # early termination).  A position whose vote is settled (counts >= V,
    # or mathematically unreachable) skips its remaining block crossbars
    # outright.  Only on static cells — noisy blocks fall through to the
    # unmodified path.
    if estimator is not None and estimator.enabled and split._fused_blocks:
        block_sizes = [len(b) for b in split.blocks]

        def est_fn_blocks(gathered: np.ndarray) -> np.ndarray:
            # Deferred-block schedule: blocks are computed with the
            # *same* planned layout + strided matmuls as the off path
            # (bit-identical arithmetic by construction), but each
            # block's GEMM only sees the positions whose §4.3 vote is
            # still live — once a position's vote is settled (counts
            # >= V, or mathematically unreachable), its remaining block
            # crossbars are never driven at all.
            n = gathered.shape[0]
            stats = SkipStats()
            matrices = split._block_matrices()
            ones_blk = gathered.sum(axis=2)
            counts = np.zeros((n, cols), dtype=np.uint8)
            alive = np.arange(n)
            ones_al = ones_blk
            counts_al = counts
            dec_al = np.zeros((n, cols), dtype=bool)
            processed = np.zeros(num_blocks, dtype=np.int64)
            # The estimator owns every (position, block, column)
            # sense-amp decision; the ones it closes early are exactly
            # the skipped blocks' comparisons.
            stats.est_positions = n * cols * num_blocks
            for k in range(num_blocks):
                if alive.size == 0:
                    break
                processed[k] = alive.size
                # Only block k's rows of the live positions are copied;
                # before any retirement the operand is the strided view.
                operand = (
                    gathered[:, k, :] if alive.size == n
                    else gathered[alive, k, :]
                )
                sums = scratch.get("est_sums", (alive.size, cols), np.float64)
                np.matmul(operand, matrices[k], out=sums)
                sums += split.block_bias
                thr = split.decision.thresholds_for(ones_al[:, k])[:, None]
                out_k = sums > thr
                np.add(counts_al, out_k, out=counts_al, casting="unsafe")
                remaining = num_blocks - 1 - k
                # A position can only retire once a vote is reachable
                # (k+1 >= vote) or unreachable (remaining < vote) —
                # skip the decision planes on blocks where neither holds.
                if k + 1 < vote and remaining >= vote:
                    continue
                dec_al = (
                    dec_al
                    | (counts_al >= vote)
                    | (counts_al + remaining < vote)
                )
                if remaining:
                    done = dec_al.all(axis=1)
                    if done.any():
                        d = int(done.sum())
                        stats.skipped_rows += int(
                            ones_al[done, k + 1 :].sum()
                        )
                        stats.skipped_slots += d * sum(block_sizes[k + 1 :])
                        stats.est_decided += d * cols * remaining
                        counts[alive[done]] = counts_al[done]
                        keep = ~done
                        alive = alive[keep]
                        ones_al = ones_al[keep]
                        counts_al = counts_al[keep]
                        dec_al = dec_al[keep]
            if alive.size:
                counts[alive] = counts_al
            for k in range(num_blocks):
                if processed[k]:
                    split._block_crossbars[k].array.note_reads(
                        int(processed[k])
                    )
            record(
                block_ones=ones_blk,
                sa_events=stats.est_positions - stats.est_decided,
                skip=stats,
            )
            return counts

        kernel = est_fn_blocks

    # The vote plane is 0/1, so a threshold in [0, 1) maps it to itself.
    emit_bits = threshold is not None and 0.0 <= float(threshold) < 1.0

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        # One validation pass on the compact input beats re-checking the
        # unfolded receptive fields.
        ensure_binary(x, "split-matrix inputs")
        rows = plan.gather(layer, x, scratch)
        votes = fold_rows(layer, x.shape, kernel(rows))
        # A fresh float64 plane in the layer's output layout, exactly
        # what the outer binarize would write: the next layers see the
        # same data (a uint8 plane would make their matmul mixed-type).
        out = np.empty(votes.shape)
        np.greater_equal(votes, vote, out=out, casting="unsafe")
        return out

    compute.prebinarized = emit_bits
    return compute


def _analog_merge_compute(
    partition: Partition, crossbars, engine: str = "fused",
    obs_index: Optional[int] = None,
):
    blocks = partition.blocks()
    noise_draws = sum(
        xbar.num_cells for xbar in crossbars if xbar.fused_matrix is None
    )

    def record(bits: np.ndarray) -> None:
        # The block currents merge in analog before one shared SA bank,
        # so SA comparisons do not scale with the block count and no
        # digital vote runs.
        n = bits.shape[0] if bits.ndim > 1 else 1
        _record_mvms(
            obs_index, bits, crossbars[0].cols,
            blocks=len(crossbars),
            cells_per_weight=crossbars[0].cells_per_weight,
            sa_events=n * crossbars[0].cols,
            noise_draws=noise_draws,
            digital_merge=False,
        )

    # The merge is a straight current sum over blocks, so the K crossbars
    # concatenate into ONE matrix indexed by the permuted input order: a
    # single matmul replaces the per-block loop.  Noiseless reads
    # concatenate once per device-array generation (exactly once on
    # static arrays); noisy reads rebuild the stack each call from one
    # vectorized read per crossbar (stream-identical to the per-slice
    # reference loop).
    perm = np.concatenate([np.asarray(b, dtype=np.intp) for b in blocks])
    fused = engine != "reference" and all(
        xbar.fused_matrix is not None for xbar in crossbars
    )
    static_cache: list = [None]

    def static_matrix() -> np.ndarray:
        generations = tuple(xbar.array.generation for xbar in crossbars)
        cache = static_cache[0]
        if cache is None or cache[0] != generations:
            static_cache[0] = (
                generations,
                np.concatenate(
                    [xbar.fused_matrix for xbar in crossbars], axis=0
                ),
            )
        return static_cache[0][1]

    def note_reads(bits: np.ndarray) -> None:
        n = bits.shape[0] if bits.ndim > 1 else 1
        for xbar in crossbars:
            xbar.array.note_reads(n)

    def matrix_fn(bits: np.ndarray) -> np.ndarray:
        record(bits)
        if engine == "reference":
            total = None
            for block, crossbar in zip(blocks, crossbars):
                part = crossbar.compute_reference(bits[:, block])
                total = part if total is None else total + part
            return total
        ensure_binary(bits, "analog-merge inputs")
        if fused:
            out = bits[..., perm] @ static_matrix()
        else:
            stacked = np.concatenate(
                [
                    xbar.read_effective_weights(xbar.rng)
                    * xbar.ir_drop_attenuation
                    for xbar in crossbars
                ],
                axis=0,
            )
            out = bits[..., perm] @ stacked
        note_reads(bits)
        return out

    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(layer, x, matrix_fn)

    return compute


def _record_dac(
    obs_index: Optional[int],
    driven_rows: np.ndarray,
    cols: int,
    cells_per_weight: int,
) -> None:
    """Activity counters for the DAC-driven input layer (§3.2).

    DACs convert every row each cycle regardless of value, so every row
    counts as active — the power estimator then correctly shows no
    input-switched saving on this layer.
    """
    rec = obs.active()
    if rec is None or obs_index is None:
        return
    if driven_rows.ndim == 1:
        n, rows = 1, driven_rows.shape[0]
    else:
        n, rows = driven_rows.shape
    scope = rec.metrics.scope(f"hw/layer{obs_index}")
    scope.inc("mvms", n)
    scope.inc("positions", n)
    scope.inc("active_rows", n * rows)
    scope.inc("sa_events", n * cols)
    scope.set_gauge("rows", rows)
    scope.set_gauge("cols", cols)
    scope.set_gauge("blocks", 1)
    scope.set_gauge("digital_merge", 0)
    scope.set_gauge("cells_per_weight", cells_per_weight)
    scope.observe("row_activity", np.full(n, 1.0))


def dac_analog_layer_compute(
    layer: Layer,
    device: Optional[RRAMDevice] = None,
    weight_bits: int = 8,
    data_bits: int = 8,
    rng: Optional[np.random.Generator] = None,
    engine: str = "fused",
    obs_index: Optional[int] = None,
    temporal: Optional[TemporalConfig] = None,
):
    """The SEI design's input layer: DAC-driven crossbars, analog merge.

    Activations pass through ``data_bits`` DACs; the bit-sliced
    positive/negative crossbars are programmed through a device array;
    their output currents combine in the analog domain (scaled summing)
    before the sense amplifiers — no ADC anywhere (§3.2 / mapper
    convention).  ``engine='reference'`` keeps the pre-fusion per-slice
    loop.
    """
    device = device if device is not None else RRAMDevice(bits=4)
    rng = rng if rng is not None else np.random.default_rng()

    from repro.core.sei import decompose_weights

    matrix = layer_weight_matrix(layer)
    slices, coefficients, scale = decompose_weights(
        matrix, weight_bits, device.bits
    )
    array = make_array(device, temporal=temporal, rng=rng)
    array.program(slices, rng)
    dac = DAC(bits=data_bits)
    cell_max = 2**device.bits - 1

    # The bit-sliced crossbars merge in the analog domain (scaled current
    # summing), so the programmed slices collapse into a single signed
    # matrix — each call is then one DAC quantization + one matmul.  The
    # collapse is cached per device-array generation (exactly once on a
    # static array).
    merged_cache: list = [None]

    def merged_matrix() -> np.ndarray:
        generation = array.generation
        cache = merged_cache[0]
        if cache is None or cache[0] != generation:
            merged_cache[0] = (
                generation,
                np.tensordot(coefficients, array.normalized, axes=1)
                * cell_max
                * scale,
            )
        return merged_cache[0][1]

    def note_reads(driven: np.ndarray) -> None:
        array.note_reads(driven.shape[0] if driven.ndim > 1 else 1)

    def matrix_fn(x: np.ndarray) -> np.ndarray:
        # The reference engine's pre-fusion per-slice loop.
        driven = dac.quantize(np.clip(x, 0.0, 1.0))
        _record_dac(obs_index, driven, matrix.shape[1], array.shape[0])
        total = np.zeros(driven.shape[:-1] + (matrix.shape[1],))
        for coeff, cells in zip(coefficients, array.normalized):
            total = total + coeff * (driven @ cells) * cell_max
        out = total * scale
        note_reads(driven)
        return out

    plan = RowPlan()
    scratch = Scratch()

    def compute(inner_layer: Layer, x: np.ndarray) -> np.ndarray:
        if engine == "reference":
            return apply_matrix_fn(inner_layer, x, matrix_fn)
        # The DACs sit on the feature-map values; quantizing before the
        # unfold touches each value once instead of once per receptive
        # field it lands in.  Bit-identical: quantization is elementwise,
        # the planned unfold is a gather into per-thread scratch, and
        # zero padding maps to the zero DAC level either way.
        driven = plan.gather(
            inner_layer, dac.quantize(np.clip(x, 0.0, 1.0)), scratch
        )
        _record_dac(obs_index, driven, matrix.shape[1], array.shape[0])
        out = driven @ merged_matrix()
        note_reads(driven)
        out += layer_bias(inner_layer)
        return fold_rows(inner_layer, x.shape, out)

    # Expose the compiled analog state for engines that re-lower this
    # layer (the packed engine drives the same merged matrix with
    # integer DAC codes instead of quantized floats; it refuses aging
    # arrays, so the compile-time collapse it captures here stays valid).
    compute.merged = merged_matrix()
    compute.dac = dac
    compute.cells_per_weight = array.shape[0]
    compute.array = array
    # Without programming variation every normalized cell sits on the
    # nibble grid, so merged == scale * N for integer N — the packed
    # engine checks that against this unit to run the matmul in exact
    # float32 integer arithmetic.
    compute.unit = float(scale)
    return compute


# -- the traditional (ADC) designs, functionally --------------------------------


def adc_layer_compute(
    layer: Layer,
    tech: Optional[TechnologyModel] = None,
    device: Optional[RRAMDevice] = None,
    data_bits: int = 8,
    calibration: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
):
    """Functional model of one DAC+crossbar+ADC layer (Fig. 2a/b).

    Activations pass through ``data_bits`` DACs; each weight bit-slice
    lives on a positive and a negative crossbar; every crossbar column is
    digitised by an 8-bit ADC before the digital shift/add/subtract
    merge.

    ADC full scale: designs calibrate each converter's range to the
    currents it actually sees, not the theoretical worst case — sparse
    layers would otherwise waste most of their codes.  Pass
    ``calibration`` (example crossbar input rows, ``(n, rows)``) to set
    the per-slice range from the observed maxima (with 25% headroom);
    without it the range defaults to the all-inputs-high worst case.
    """
    tech = tech if tech is not None else TechnologyModel()
    device = device if device is not None else RRAMDevice(bits=tech.cell_bits)
    rng = rng if rng is not None else np.random.default_rng()

    from repro.core.sei import decompose_weights

    matrix = layer_weight_matrix(layer)
    slices, coefficients, scale = decompose_weights(
        matrix, tech.weight_bits, device.bits
    )
    # Program each slice crossbar through a (static) device array.
    array = make_array(device, rng=rng)
    array.program(slices, rng)
    programmed = array.normalized
    dac = DAC(bits=data_bits)
    adc = ADC(bits=8)
    cell_max = 2**device.bits - 1

    if calibration is not None:
        driven = dac.quantize(np.clip(np.asarray(calibration), 0.0, 1.0))
        full_scales = [
            max(float(((driven @ cells) * cell_max).max()) * 1.25, 1e-12)
            for cells in programmed
        ]
    else:
        # Worst case: all inputs at 1 on the largest column.
        full_scales = [
            max(float(cells.sum(axis=0).max()) * cell_max, 1e-12)
            for cells in programmed
        ]

    def matrix_fn(x: np.ndarray) -> np.ndarray:
        driven = dac.quantize(np.clip(x, 0.0, 1.0))
        out = np.zeros(x.shape[:-1] + (matrix.shape[1],))
        for coeff, cells, full_scale in zip(
            coefficients, programmed, full_scales
        ):
            currents = (driven @ cells) * cell_max
            digitised = adc.quantize(currents, full_scale)
            out = out + coeff * digitised
        array.note_reads(driven.shape[0] if driven.ndim > 1 else 1)
        return out * scale

    def compute(inner_layer: Layer, x: np.ndarray) -> np.ndarray:
        return apply_matrix_fn(inner_layer, x, matrix_fn)

    compute.array = array
    return compute


def assemble_adc_network(
    network: Sequential,
    thresholds: Optional[Dict[int, float]] = None,
    tech: Optional[TechnologyModel] = None,
    device: Optional[RRAMDevice] = None,
    data_bits: int = 8,
    calibration_images: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> BinarizedNetwork:
    """Every weighted layer through the DAC+ADC functional model.

    With ``thresholds=None`` the network runs at full 8-bit data
    precision (the Table 5 baseline, which should match the float
    network's predictions); passing Algorithm 1 thresholds gives the
    "1-bit-Input + ADC" middle design.

    ``calibration_images`` (a small sample of inputs) sets each layer's
    ADC ranges from observed currents — important for sparse 1-bit
    layers, where worst-case ranges would waste the converter's codes.

    The *input picture* always passes through 8-bit DACs (§3.2 — it
    needs high precision in every design); ``data_bits`` describes the
    intermediate-data precision, which the thresholds already enforce in
    the 1-bit case.

    Note the full-precision path still assumes inputs to each crossbar
    lie in [0, 1] — true for the paper's networks only after
    :func:`repro.core.rescale.rescale_network`-style normalisation, so
    callers should pass a re-scaled network.
    """
    rng = rng if rng is not None else np.random.default_rng(0)
    input_bits = 8
    binarized = BinarizedNetwork(
        network,
        dict(thresholds) if thresholds else {},
        input_bits=input_bits,
    ) if thresholds else _plain_wrapper(network, input_bits)

    calibration_flow = (
        binarized._quantize_input(calibration_images)
        if calibration_images is not None
        else None
    )
    device_arrays: Dict[str, DeviceArrayBase] = {}
    binarized.device_arrays = device_arrays
    first_weighted = True
    for index, layer in enumerate(network.layers):
        if isinstance(layer, (Conv2D, Dense)):
            layer_calibration = None
            if calibration_flow is not None:
                layer_calibration = _as_matrix_rows(layer, calibration_flow)
            layer_compute = adc_layer_compute(
                layer,
                tech=tech,
                device=device,
                # The input layer's DACs are always 8-bit (§3.2).
                data_bits=input_bits if first_weighted else data_bits,
                calibration=layer_calibration,
                rng=rng,
            )
            binarized.layer_computes[index] = layer_compute
            device_arrays[f"layer{index}"] = layer_compute.array
            first_weighted = False
        if calibration_flow is not None:
            # Propagate the calibration batch through the (now hooked)
            # layer so deeper layers calibrate on realistic inputs.
            calibration_flow = binarized.run_layer(index, calibration_flow)
    return binarized


def _as_matrix_rows(layer: Layer, x: np.ndarray) -> np.ndarray:
    """A layer's input activations as crossbar input rows (im2col'd)."""
    if isinstance(layer, Dense):
        return x
    assert isinstance(layer, Conv2D)
    from repro.nn.functional import im2col

    return im2col(
        x, layer.kernel_size, layer.kernel_size, layer.stride, layer.padding
    )


def _plain_wrapper(network: Sequential, data_bits: int) -> BinarizedNetwork:
    """A BinarizedNetwork with no thresholds: plain layer-by-layer run.

    BinarizedNetwork requires thresholds for intermediate layers; for the
    full-precision baseline we bypass that check with an empty mapping
    via object construction, keeping the layer_computes hook machinery.
    """
    wrapper = BinarizedNetwork.__new__(BinarizedNetwork)
    wrapper.network = network
    wrapper.thresholds = {}
    wrapper.input_bits = data_bits
    wrapper.layer_computes = {}
    return wrapper