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
* :func:`assemble_adc_network` — the functional model of the
  traditional designs: activations quantized by the DACs, weights on
  bit-sliced positive/negative crossbars, column currents digitised by
  ADCs and merged digitally.  Used to check that the baseline's accuracy
  matches the float network (the premise of Table 5's error-rate
  column).

The SEI engines share one lowering path: :func:`lower_sei_network`
programs the crossbars once and records each weighted layer as one of
four kinds (``dac`` / ``unsplit`` / ``split`` / ``analog_merge``); an
engine then supplies only each kind's kernel.  The fused engine lowers
every thresholded layer to one kernel,
:func:`repro.core.integer_gemm.firing_kernel`, which decides on the
certified integer GEMM while the layer's cells certify and on its
float64 fallback otherwise, and emits the layer's uint8 0/1 plane either
way.  Every weighted layer of every engine, the adc one included, runs
the one compute of :func:`repro.core.matrix_compute.layer_compute`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, Optional

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.array import DeviceArray, PerGeneration, TemporalConfig
from repro.hw.device import RRAMDevice
from repro.hw.peripherals import ADC, DAC
from repro.hw.tech import TechnologyModel
from repro.nn import functional as F
from repro.nn.layers import Conv2D, Dense, Layer, MaxPool2D, ReLU
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.estimate import EstimatorPolicy, SkipPass
from repro.core.homogenize import (
    Partition,
    homogenize,
    natural_partition,
    random_partition,
)
from repro.core.integer_gemm import certify, firing_kernel, integer_layer
from repro.core.matrix_compute import (
    LayerKernel,
    RowPlan,
    Scratch,
    Tally,
    binary_inputs,
    layer_bias,
    layer_compute,
    layer_weight_matrix,
)
from repro.core.sei import SEIMatrix, decompose_weights, layer_meter
from repro.core.splitting import (
    SplitDecision,
    SplitMatrix,
    required_blocks,
    vote_kernel,
)

__all__ = [
    "HardwareConfig",
    "split_partition",
    "HardwareSplitMatrix",
    "DacCrossbar",
    "assemble_sei_network",
    "assemble_adc_network",
]


#: Row orders a split layer can take (§4.3 / Table 4).
PARTITION_METHODS = ("natural", "random", "homogenize")

#: Engines that compile onto SEI crossbars, and so take the calibrated
#: split decisions of :func:`repro.core.pipeline.build_split_network`.
SEI_ENGINES = ("fused", "packed", "reference")


@dataclass(frozen=True)
class HardwareConfig:
    """Device/fabric parameters for full-hardware assembly.

    The one description of the §4.3 split geometry: the compiled engines
    and the software split flow both partition through
    :func:`split_partition` under this config.
    """

    device: RRAMDevice = RRAMDevice(bits=4)
    weight_bits: int = 8
    max_crossbar_size: int = 512
    ir_drop_lambda: float = 0.0
    #: Row order of split layers: one of :data:`PARTITION_METHODS`.
    partition_method: str = "homogenize"
    homogenize_iterations: int = 2000
    #: Seeds the cell programming, the homogenization search and the
    #: random row orders (each from its own stream).
    seed: int = 0
    #: Optional aging behaviour; None (or all-off) keeps every
    #: DeviceArray static — bit-identical to historical behaviour.
    temporal: Optional[TemporalConfig] = None

    def __post_init__(self) -> None:
        if self.partition_method not in PARTITION_METHODS:
            raise ConfigurationError(
                f"partition_method must be one of {PARTITION_METHODS}, "
                f"got {self.partition_method!r}"
            )
        if self.homogenize_iterations < 0:
            raise ConfigurationError(
                "homogenize_iterations must be non-negative, got "
                f"{self.homogenize_iterations}"
            )
        if self.max_crossbar_size < 1:
            raise ConfigurationError(
                "max_crossbar_size must be positive, got "
                f"{self.max_crossbar_size}"
            )
        if not self.ir_drop_lambda >= 0:
            raise ConfigurationError(
                f"ir_drop_lambda must be non-negative, got "
                f"{self.ir_drop_lambda}"
            )
        if self.weight_bits < 1 or self.weight_bits % self.device.bits:
            raise ConfigurationError(
                f"weight_bits must be a positive multiple of the device's "
                f"{self.device.bits}-bit cells, got {self.weight_bits}"
            )

    @property
    def cells_per_weight(self) -> int:
        """SEI cells per weight: positive and negative bit slices (4 for
        signed 8-bit weights on 4-bit cells)."""
        return 2 * (self.weight_bits // self.device.bits)


def split_partition(
    matrix: np.ndarray, hardware: HardwareConfig, rng: np.random.Generator
) -> Optional[Partition]:
    """The row partition of ``matrix`` on ``hardware``'s crossbars.

    ``None`` when the layer's SEI image fits one crossbar; otherwise
    :func:`repro.core.splitting.required_blocks` blocks in the natural,
    random or homogenized row order.  ``rng`` draws only the random
    orders: a network build seeds one ``default_rng(hardware.seed)`` and
    asks layer by layer, so the orders never depend on the
    cell-programming stream.
    """
    blocks = required_blocks(
        matrix.shape[0], hardware.max_crossbar_size, hardware.cells_per_weight
    )
    if blocks <= 1:
        return None
    if hardware.partition_method == "natural":
        return natural_partition(matrix.shape[0], blocks)
    if hardware.partition_method == "random":
        return random_partition(matrix.shape[0], blocks, rng)
    return homogenize(
        matrix,
        blocks,
        iterations=hardware.homogenize_iterations,
        seed=hardware.seed,
    )


class HardwareSplitMatrix(SplitMatrix):
    """A split matrix whose blocks are real SEI crossbars.

    Overrides the exact block matrices of :class:`SplitMatrix` with the
    per-block :class:`SEIMatrix` cells, so 4-bit cell quantization,
    programming variation, read noise and IR drop all reach the block
    decisions.

    The inherited ``block_sums``/``block_bits``/``fire`` are plain
    arithmetic: they neither check that the inputs are 0/1 nor advance
    the block arrays' read clocks.  A compiled network's layer compute
    (:func:`repro.core.matrix_compute.layer_compute`) does both, so a
    direct caller under a read-disturb ``TemporalConfig`` does not age
    the blocks as the compiled network would.
    """

    def __init__(
        self,
        weights: np.ndarray,
        partition: Partition,
        decision: SplitDecision,
        config: HardwareConfig,
        bias: Optional[np.ndarray] = None,
        rng: Optional[np.random.Generator] = None,
    ) -> None:
        super().__init__(weights, partition, decision, bias=bias)
        rng = rng if rng is not None else np.random.default_rng(config.seed)
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
        self._padded = PerGeneration(self.block_arrays, self._padded_cells)

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
            return self._padded.get()
        return self._padded_cells()

    def _padded_cells(self) -> np.ndarray:
        """One build of the padded layout: the static cells, or one noisy
        read of every block."""
        cells = np.zeros_like(self._padded_weights)
        for k, (block, crossbar) in enumerate(
            zip(self.blocks, self._block_crossbars)
        ):
            cells[k, : len(block)] = (
                crossbar.fused_matrix if self._fused_blocks
                else crossbar.read_effective_weights(crossbar.rng)
                * crossbar.ir_drop_attenuation
            )
        return cells

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


class DacCrossbar:
    """The SEI design's input layer: DAC-driven crossbars, analog merge.

    Activations pass through ``data_bits`` DACs; the bit-sliced
    positive/negative crossbars are programmed through one device array;
    their output currents combine in the analog domain (scaled summing)
    before the sense amplifiers — no ADC anywhere (§3.2 / mapper
    convention).
    """

    def __init__(
        self,
        matrix: np.ndarray,
        device: RRAMDevice,
        weight_bits: int,
        rng: np.random.Generator,
        temporal: Optional[TemporalConfig] = None,
        data_bits: int = 8,
    ) -> None:
        slices, self.coefficients, self.scale = decompose_weights(
            matrix, weight_bits, device.bits
        )
        self.array = DeviceArray(device, temporal=temporal, rng=rng)
        self.array.program(slices, rng)
        self.dac = DAC(bits=data_bits)
        self.cell_max = 2**device.bits - 1
        self.rows, self.cols = matrix.shape
        self._merged = PerGeneration(
            (self.array,),
            lambda: np.tensordot(
                self.coefficients, self.array.normalized, axes=1
            ) * self.cell_max * self.scale,
        )

    @property
    def cells_per_weight(self) -> int:
        return self.array.shape[0]

    def quantize(self, x: np.ndarray) -> np.ndarray:
        """The analog levels the DACs drive for feature-map values ``x``.

        Quantizing before the unfold touches each value once instead of
        once per receptive field it lands in; the zero padding maps to
        the zero DAC level either way.
        """
        return self.dac.quantize(np.clip(x, 0.0, 1.0))

    def merged(self) -> np.ndarray:
        """The bit-sliced crossbars collapsed into one signed matrix.

        The slices merge in the analog domain (scaled current summing),
        so each call is one matmul.  Cached per device-array generation
        (exactly once on a static array).
        """
        return self._merged.get()

    def meter(self) -> dict:
        # DACs convert every row each cycle regardless of value, so every
        # row counts as active — the power estimator then correctly shows
        # no input-switched saving on this layer.
        return dict(
            rows=self.rows, cols=self.cols,
            cells_per_weight=self.cells_per_weight,
        )


# -- assembly ------------------------------------------------------------------

#: An engine's lowering: a weighted-layer record and the estimator policy
#: in, the layer's :class:`LayerKernel` out.
Lowering = Callable[[dict, EstimatorPolicy], LayerKernel]


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
    :func:`repro.core.pipeline.build_split_network` run under this same
    :class:`HardwareConfig`, whose partitions are then the ones chosen
    here); defaults are ``T/K`` static thresholds with a majority vote
    and the :func:`split_partition` of the config.  The final classifier
    merges its blocks in analog (current summing into the WTA readout),
    matching the pipeline default.

    ``engine`` selects the crossbar arithmetic as a
    :class:`repro.core.engines.EngineSpec` (in which case ``config``
    must be left unset — the hardware options live on the spec), or
    ``None`` for the default fused spec built from ``config``:
    ``'fused'`` collapses the bit-sliced crossbars of each layer into
    stacked matmuls and runs integral layers on the certified integer
    GEMM (``'packed'`` is an alias of it); ``'reference'`` keeps the
    pre-fusion per-slice / per-block loops — numerically equivalent
    (identical noise streams, partial sums re-associated), retained as
    the equivalence oracle and perf-benchmark baseline.
    """
    # Local import: repro.core.engines registers its builders on top of
    # this module, so the dependency cannot also point the other way at
    # import time.
    from repro.core.engines import resolve_engine

    spec = resolve_engine(
        engine,
        hardware=config,
        allowed=SEI_ENGINES,
        caller="assemble_sei_network",
    )
    config = spec.hardware
    if spec.estimator.enabled:
        if spec.name == "reference":
            raise ConfigurationError(
                "the 'reference' engine is the equivalence oracle and "
                "runs estimator-free; use the fused engine"
            )
        if config.temporal is not None and config.temporal.enabled:
            raise ConfigurationError(
                "the runtime activation estimator compiles bound tables "
                "against static cells; temporal aging would make them "
                "stale — disable one of the two"
            )
    reference = spec.name == "reference"
    binarized = lower_sei_network(
        network,
        thresholds,
        spec,
        lower_reference if reference else lower_fused,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
    )
    if reference:
        # The pre-fusion forward pass always ran the window-materialising
        # argmax pooling; pin it so the reference engine measures the true
        # pre-fusion inference cost (values are identical).
        for index, layer in enumerate(network.layers):
            if isinstance(layer, MaxPool2D):
                binarized.layer_computes[index] = _reference_pool_compute()
        return binarized
    skip_binary_relus(binarized)
    # Pooling on 0/1 maps is the §3.1 logical OR: run it on uint8.  A pool
    # whose most recent weighted layer upstream is thresholded sees only
    # exact 0/1 planes (ReLU, pool and flatten preserve them); the others
    # keep the float pooling.
    binary = False
    for index, layer in enumerate(network.layers):
        if isinstance(layer, MaxPool2D) and binary:
            binarized.layer_computes[index] = _or_pool_compute
        elif isinstance(layer, (Conv2D, Dense)):
            binary = index in thresholds
    return binarized


def lower_sei_network(
    network: Sequential,
    thresholds: Dict[int, float],
    spec,
    lower: Lowering,
    decisions: Optional[Dict[int, SplitDecision]] = None,
    partitions: Optional[Dict[int, Partition]] = None,
    rng: Optional[np.random.Generator] = None,
) -> BinarizedNetwork:
    """Program every weighted layer's crossbars, then lower each layer.

    The crossbars are programmed once, in layer order, from ``rng`` (by
    default seeded from the hardware config), so every engine compiles
    identical cells.  Each weighted layer becomes a record of one of
    four kinds — ``dac`` (the DAC-driven input layer), ``unsplit``,
    ``split`` (§4.3 block vote) or ``analog_merge`` (the final
    classifier's blocks summed in analog) — kept in
    ``BinarizedNetwork.hardware_layers``; ``lower`` turns each record
    into the :class:`LayerKernel` the shared layer compute runs.
    """
    config = spec.hardware
    decisions = decisions if decisions is not None else {}
    partitions = partitions if partitions is not None else {}
    rng = rng if rng is not None else np.random.default_rng(config.seed)
    partition_rng = np.random.default_rng(config.seed)

    binarized = BinarizedNetwork(network, dict(thresholds))
    # Per-layer assembly record: which hardware structure each weighted
    # layer compiled to, with references to the live crossbar objects.
    hardware_layers: Dict[int, dict] = {}
    binarized.hardware_layers = hardware_layers
    # Flat registry of every live device array in the compiled network,
    # keyed "layer<i>" / "layer<i>/block<k>".  The serving layer ages,
    # health-checks and re-tunes through this.
    device_arrays: Dict[str, DeviceArray] = {}
    binarized.device_arrays = device_arrays
    weighted = [
        i
        for i, layer in enumerate(network.layers)
        if isinstance(layer, (Conv2D, Dense))
    ]
    final_index = weighted[-1]

    def crossbar(matrix: np.ndarray) -> SEIMatrix:
        return SEIMatrix(
            matrix,
            device=config.device,
            weight_bits=config.weight_bits,
            max_crossbar_size=config.max_crossbar_size,
            ir_drop_lambda=config.ir_drop_lambda,
            rng=rng,
            temporal=config.temporal,
        )

    for index in weighted:
        layer = network.layers[index]
        matrix = layer_weight_matrix(layer)
        record = {"layer": layer, "threshold": thresholds.get(index)}
        hardware_layers[index] = record

        if index == weighted[0]:
            # §3.2: the input layer stays DAC-driven (analog voltages on
            # the rows); its bit-sliced crossbars merge in analog into
            # the sense amplifiers.
            dac = DacCrossbar(
                matrix, config.device, config.weight_bits, rng,
                temporal=config.temporal,
            )
            record.update(kind="dac", crossbar=dac)
            device_arrays[f"layer{index}"] = dac.array
            continue

        chosen = split_partition(matrix, config, partition_rng)
        if chosen is None:
            unsplit = crossbar(matrix)
            record.update(kind="unsplit", crossbar=unsplit)
            device_arrays[f"layer{index}"] = unsplit.array
            continue
        blocks = chosen.num_blocks
        partition = partitions.get(index, chosen)

        if index == final_index:
            # Analog merge: per-block crossbars, currents summed into the
            # WTA readout — functionally the sum of block computes.
            crossbars = [
                crossbar(matrix[block]) for block in partition.blocks()
            ]
            record.update(
                kind="analog_merge", partition=partition, crossbars=crossbars
            )
            for k, block_crossbar in enumerate(crossbars):
                device_arrays[f"layer{index}/block{k}"] = block_crossbar.array
            continue

        decision = decisions.get(
            index,
            SplitDecision(
                block_threshold=thresholds[index] / blocks,
                vote_threshold=max(1, (blocks + 1) // 2),
            ),
        )
        split = HardwareSplitMatrix(
            matrix, partition, decision, config,
            bias=layer_bias(layer), rng=rng,
        )
        record.update(kind="split", matrix=split)
        for k, array in enumerate(split.block_arrays):
            device_arrays[f"layer{index}/block{k}"] = array

    for index, record in hardware_layers.items():
        kernel = lower(record, spec.estimator)
        binarized.layer_computes[index] = layer_compute(index, kernel)
    # Kernels that folded the threshold comparison emit the exact 0/1
    # plane themselves; the network skips its (now identity) binarize.
    binarized.prebinarized = frozenset(
        index
        for index, compute in binarized.layer_computes.items()
        if compute.prebinarized
    )
    return binarized


def skip_binary_relus(binarized: BinarizedNetwork) -> None:
    """Install identity computes on ReLUs fed by a thresholded layer.

    Such a ReLU only ever sees 0/1 data, on which ``max(x, 0)`` is an
    exact identity — the pass is skipped.
    """
    for index, layer in enumerate(binarized.network.layers):
        if isinstance(layer, ReLU) and index - 1 in binarized.thresholds:
            binarized.layer_computes[index] = _identity_compute()


def folds_threshold(threshold: Optional[float]) -> bool:
    """Whether a 0/1 output plane is its own binarization at ``threshold``.

    For a threshold in ``[0, 1)``, ``0 > t`` is False and ``1 > t`` is
    True, so the outer binarize maps the plane to itself.
    """
    return threshold is not None and 0.0 <= float(threshold) < 1.0


def all_rows_active(rows: np.ndarray):
    """Active counts of a DAC-driven layer: every row, every position."""
    return lambda: np.full(rows.shape[0], rows.shape[1])


def _reference_pool_compute():
    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        out, _ = F.maxpool2d(x, layer.pool, layer.stride)
        return out

    return compute


def _or_pool_compute(layer: Layer, x: np.ndarray) -> np.ndarray:
    """OR-pooling of a 0/1 plane on uint8 (the window maximum of 0/1
    data is their logical OR): 8x less data through the cache than the
    float64 pool, and every SEI consumer accepts a uint8 plane."""
    return F.maxpool2d_forward(
        x.astype(np.uint8, copy=False), layer.pool, layer.stride
    )


def _identity_compute():
    def compute(layer: Layer, x: np.ndarray) -> np.ndarray:
        return x

    return compute


# -- the fused engine: collapsed crossbars, certified integer GEMM ---------------


def grid_unit(xbar: SEIMatrix) -> float:
    """The integer-grid unit of an SEI crossbar's collapsed matrix."""
    return float(xbar.scale) * float(xbar.ir_drop_attenuation)


def _active_rows(rows: np.ndarray):
    """Active counts of 0/1 planned rows: the 1s per position."""
    n = rows.shape[0]
    return lambda: rows.reshape(n, -1).sum(axis=1, dtype=np.int64)


def lower_fused(record: dict, estimator: EstimatorPolicy) -> LayerKernel:
    """The fused engine's kernel for one weighted-layer record."""
    return _FUSED[record["kind"]](record, estimator)


def _skip_pass(estimator: EstimatorPolicy, vote: int = 1):
    """The accounting pass of an estimated layer, or None when off."""
    return SkipPass(estimator, vote) if estimator.enabled else None


def _fused_dac(record: dict, estimator: EstimatorPolicy) -> LayerKernel:
    """The DAC input layer (§3.2) on integer codes.

    The feature map quantizes to integer DAC codes ``k`` (levels
    ``k/steps``), which stay uint8 through the unfold.  On certified
    cells the GEMM against the merged matrix's integers ``N`` (``merged
    = unit·N``) runs in float32 over cache-sized chunks and the layer's
    1-bit quantization (Equ. 4) is decided against the certified table;
    otherwise the float64 kernel decides ``(k/steps)·merged + b > T``.
    Either way the fired bits are the layer's uint8 0/1 plane.  (The
    input layer always has a threshold: BinarizedNetwork requires one on
    every weighted layer but the last.)
    """
    xbar = record["crossbar"]
    threshold = float(record["threshold"])
    bias = layer_bias(record["layer"])
    steps = 2**xbar.dac.bits - 1
    certified = certify(
        (xbar.array,),
        lambda: integer_layer(
            [xbar.merged()], [xbar.scale], xbar.rows, [[threshold]], bias,
            max_input=steps,
            # The float64 kernel's levels k/steps are correctly rounded.
            level_error=np.finfo(np.float64).eps / 2,
        ),
    )
    code_dtype = np.uint8 if steps <= np.iinfo(np.uint8).max else np.uint16
    scratch = Scratch()

    def prepare(x: np.ndarray) -> np.ndarray:
        # Integer codes before the unfold: the DAC's levels are exactly
        # ``codes / steps`` (zero padding is code 0 either way).
        return np.rint(np.clip(x, 0.0, 1.0) * steps).astype(code_dtype)

    def fallback(codes: np.ndarray) -> np.ndarray:
        levels = scratch.get("rows64", codes.shape, np.float64)
        sums = np.divide(codes, steps, out=levels) @ xbar.merged()
        sums += bias
        return (sums > threshold).view(np.uint8)

    return LayerKernel(
        firing_kernel(certified, fallback, scratch, all_rows_active),
        RowPlan(dtype=code_dtype),
        prepare,
        xbar.meter(),
        arrays=(xbar.array,),
        prebinarized=True,
        scratch=scratch,
    )


def widen(rows: np.ndarray, scratch: Scratch) -> np.ndarray:
    """The uint8 ``rows`` as float64, in ``scratch`` (the operand of an
    uncertified layer's float64 pass)."""
    out = scratch.get("rows64", rows.shape, np.float64)
    np.copyto(out, rows, casting="unsafe")
    return out


def _fused_unsplit(record: dict, estimator: EstimatorPolicy) -> LayerKernel:
    """A layer on one SEI crossbar.

    A thresholded layer gathers uint8 planned rows and decides on the
    integer GEMM when its cells certify (widening the rows chunkwise),
    else on the float64 crossbar pass; either way the fired bits are the
    layer's uint8 0/1 plane.  An enabled ``estimator`` adds the skip
    accounting pass (:class:`repro.core.estimate.SkipPass`, one block)
    on certified cells.  The final classifier on one crossbar is the
    one-block analog merge, whose column-major operand keeps a sample's
    logits independent of its row in the tile (a row-major dgemm rounds
    some rows apart).
    """
    xbar = record["crossbar"]
    if record["threshold"] is None:
        return _merge_kernel(
            [xbar], [np.arange(xbar.logical_rows)], record["layer"]
        )
    threshold = float(record["threshold"])
    bias = layer_bias(record["layer"])
    rows = xbar.logical_rows
    certified = certify(
        (xbar.array,),
        lambda: integer_layer(
            [xbar.fused_matrix], [grid_unit(xbar)], rows, [[threshold]], bias
        ),
    )
    scratch = Scratch()

    def fallback(bits: np.ndarray) -> np.ndarray:
        sums = xbar.column_sums(widen(bits, scratch))
        sums += bias
        return (sums > threshold).view(np.uint8)

    return LayerKernel(
        firing_kernel(
            certified, fallback, scratch, _active_rows,
            skip=_skip_pass(estimator),
        ),
        RowPlan(dtype=np.uint8),
        binary_inputs("SEI inputs"),
        layer_meter([xbar], rows),
        arrays=(xbar.array,),
        prebinarized=True,
        scratch=scratch,
    )


def certify_split(split: HardwareSplitMatrix) -> Optional[PerGeneration]:
    """A split layer's integer blocks and per-(block, active rows)
    firing tables, or None when they do not certify."""
    crossbars = split._block_crossbars
    limits = [
        split.decision.thresholds_for(np.arange(len(block) + 1.0))
        for block in split.blocks
    ]
    return certify(
        split.block_arrays,
        lambda: integer_layer(
            [xbar.fused_matrix for xbar in crossbars],
            [grid_unit(xbar) for xbar in crossbars],
            split._gather.shape[1],
            limits,
            split.block_bias,
        ),
    )


def _fused_split(record: dict, estimator: EstimatorPolicy) -> LayerKernel:
    """A hidden split layer (§4.3 block vote) on the compiled row plan.

    The plan gathers the padded ``(n·P, K, H)`` uint8 layout.  On
    certified blocks the K block GEMMs of each chunk (widened chunkwise)
    decide against the per-(block, active rows) tables; otherwise the
    float64 block dgemms of :func:`repro.core.splitting.vote_kernel`
    decide.  The fired blocks are counted and voted into the uint8 0/1
    plane.  An enabled ``estimator`` adds the skip accounting pass on
    certified blocks, with the reads of each block settled by the vote.
    The plane is the data the outer binarize would write, so a threshold
    in ``[0, 1)`` folds (``prebinarized``).
    """
    split = record["matrix"]
    scratch = Scratch()
    float_vote = vote_kernel(split, scratch)
    vote = split.decision.vote_threshold
    run = firing_kernel(
        certify_split(split),
        lambda rows: float_vote(widen(rows, scratch))[0],
        scratch,
        _active_rows,
        vote=vote,
        skip=_skip_pass(estimator, vote),
    )
    return LayerKernel(
        run,
        RowPlan(split._gather, np.uint8),
        binary_inputs("split-matrix inputs"),
        layer_meter(
            split._block_crossbars, split.weights.shape[0], split.num_blocks
        ),
        arrays=split.block_arrays,
        prebinarized=folds_threshold(record["threshold"]),
        scratch=scratch,
    )


def _fused_analog_merge(
    record: dict, estimator: EstimatorPolicy
) -> LayerKernel:
    return _merge_kernel(
        record["crossbars"], record["partition"].blocks(), record["layer"]
    )


def _merge_kernel(crossbars, blocks, layer: Layer) -> LayerKernel:
    """Block currents summed in analog before one shared SA bank.

    The final classifier's analog merge; an unsplit layer without a
    threshold is its one-block case.
    """
    cols = crossbars[0].cols
    # The merge is a straight current sum over blocks, so the K crossbars
    # concatenate into ONE matrix indexed by the permuted input order: a
    # single matmul replaces the per-block loop.  Noiseless reads
    # concatenate once per device-array generation (exactly once on
    # static arrays); noisy reads rebuild the stack each call from one
    # vectorized read per crossbar (stream-identical to the per-slice
    # reference loop).
    perm = np.concatenate([np.asarray(b, dtype=np.intp) for b in blocks])
    if all(xbar.fused_matrix is not None for xbar in crossbars):
        stacked = PerGeneration(
            [xbar.array for xbar in crossbars],
            lambda: np.concatenate(
                [xbar.fused_matrix for xbar in crossbars], axis=0
            ),
        ).get
    else:
        def stacked() -> np.ndarray:
            return np.concatenate(
                [
                    xbar.read_effective_weights(xbar.rng)
                    * xbar.ir_drop_attenuation
                    for xbar in crossbars
                ],
                axis=0,
            )

    def run(bits: np.ndarray):
        # The block currents merge in analog before one shared SA bank,
        # so SA comparisons do not scale with the block count and no
        # digital vote runs.  The fancy index yields a column-major
        # operand; BLAS sums it in a different order than a row-major
        # copy, so the logits are pinned to this form.
        return bits[..., perm] @ stacked(), Tally(
            lambda: bits.sum(axis=1), sa_events=bits.shape[0] * cols
        )

    return LayerKernel(
        run,
        RowPlan(),
        binary_inputs("analog-merge inputs"),
        layer_meter(
            crossbars, len(perm), len(crossbars), digital_merge=False
        ),
        arrays=[xbar.array for xbar in crossbars],
        bias=layer_bias(layer),
    )


_FUSED: Dict[str, Lowering] = {
    "dac": _fused_dac,
    "unsplit": _fused_unsplit,
    "split": _fused_split,
    "analog_merge": _fused_analog_merge,
}


# -- the reference engine: the retained pre-fusion loops ------------------------


def lower_reference(record: dict, estimator: EstimatorPolicy) -> LayerKernel:
    """The reference engine's kernel: the pre-fusion per-slice and
    per-block loops, kept as the equivalence oracle.  ``compute_reference``
    advances its crossbar's read clock itself."""
    return _REFERENCE[record["kind"]](record)


def _reference_dac(record: dict) -> LayerKernel:
    xbar = record["crossbar"]

    def run(rows: np.ndarray):
        # The pre-fusion per-slice loop, quantizing the unfolded rows.
        driven = xbar.quantize(rows)
        total = np.zeros(driven.shape[:-1] + (xbar.cols,))
        for coeff, cells in zip(xbar.coefficients, xbar.array.normalized):
            total = total + coeff * (driven @ cells) * xbar.cell_max
        return total * xbar.scale, Tally(all_rows_active(driven))

    return LayerKernel(
        run, RowPlan(), lambda x: x, xbar.meter(),
        arrays=(xbar.array,), bias=layer_bias(record["layer"]),
    )


def _reference_unsplit(record: dict) -> LayerKernel:
    xbar = record["crossbar"]

    def run(bits: np.ndarray):
        return xbar.compute_reference(bits), Tally(lambda: bits.sum(axis=1))

    return LayerKernel(
        run, RowPlan(), binary_inputs("SEI inputs"),
        layer_meter([xbar], xbar.logical_rows),
        bias=layer_bias(record["layer"]),
    )


def _reference_split(record: dict) -> LayerKernel:
    split = record["matrix"]

    def run(bits: np.ndarray):
        sums = split.block_sums_reference(bits)
        ones = np.stack(
            [bits[:, block].sum(axis=1) for block in split.blocks], axis=1
        )
        thresholds = split.decision.thresholds_for(ones)
        fired = (sums > thresholds[:, :, None]).astype(np.float64)
        out = (
            fired.sum(axis=1) >= split.decision.vote_threshold
        ).astype(np.float64)
        return out, Tally(lambda: bits.sum(axis=1))

    return LayerKernel(
        run, RowPlan(), binary_inputs("split-matrix inputs"),
        layer_meter(
            split._block_crossbars, split.weights.shape[0], split.num_blocks
        ),
    )


def _reference_analog_merge(record: dict) -> LayerKernel:
    crossbars = record["crossbars"]
    blocks = record["partition"].blocks()
    cols = crossbars[0].cols

    def run(bits: np.ndarray):
        total = None
        for block, crossbar in zip(blocks, crossbars):
            part = crossbar.compute_reference(bits[:, block])
            total = part if total is None else total + part
        return total, Tally(
            lambda: bits.sum(axis=1), sa_events=bits.shape[0] * cols
        )

    return LayerKernel(
        run, RowPlan(), binary_inputs("analog-merge inputs"),
        layer_meter(
            crossbars, record["partition"].num_rows, len(crossbars),
            digital_merge=False,
        ),
        bias=layer_bias(record["layer"]),
    )


_REFERENCE = {
    "dac": _reference_dac,
    "unsplit": _reference_unsplit,
    "split": _reference_split,
    "analog_merge": _reference_analog_merge,
}


# -- the traditional (ADC) designs, functionally --------------------------------


def _adc_kernel(
    layer: Layer, xbar: DacCrossbar, calibration: Optional[np.ndarray]
) -> LayerKernel:
    """One DAC+crossbar+ADC layer (Fig. 2a/b) on a :class:`DacCrossbar`.

    Activations pass through the crossbar's DACs; each weight bit-slice
    lives on a positive and a negative crossbar; every crossbar column is
    digitised by an 8-bit ADC before the digital shift/add/subtract
    merge.

    ADC full scale: designs calibrate each converter's range to the
    currents it actually sees, not the theoretical worst case — sparse
    layers would otherwise waste most of their codes.  ``calibration``
    (example layer inputs) sets the per-slice range from the maxima over
    its planned rows (with 25% headroom); without it the range defaults
    to the all-inputs-high worst case.
    """
    plan = RowPlan()
    scratch = Scratch()
    programmed = xbar.array.normalized
    adc = ADC(bits=8)
    cell_max = xbar.cell_max
    if calibration is not None:
        driven = plan.gather(layer, xbar.quantize(calibration), scratch)
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

    def run(driven: np.ndarray):
        out = np.zeros((driven.shape[0], xbar.cols))
        for coeff, cells, full_scale in zip(
            xbar.coefficients, programmed, full_scales
        ):
            currents = (driven @ cells) * cell_max
            digitised = adc.quantize(currents, full_scale)
            out = out + coeff * digitised
        return out * xbar.scale, Tally(all_rows_active(driven))

    return LayerKernel(
        run, plan, xbar.quantize, xbar.meter(),
        arrays=(xbar.array,), bias=layer_bias(layer), scratch=scratch,
    )


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
    the 1-bit case.  Weights are decomposed at ``tech.weight_bits`` onto
    ``device`` cells (by default ``tech.cell_bits`` ones).

    Each layer is a :class:`DacCrossbar` whose kernel runs through
    :func:`repro.core.matrix_compute.layer_compute`; nothing is recorded.

    Note the full-precision path still assumes inputs to each crossbar
    lie in [0, 1] — true for the paper's networks only after
    :func:`repro.core.rescale.rescale_network`-style normalisation, so
    callers should pass a re-scaled network.
    """
    tech = tech if tech is not None else TechnologyModel()
    device = device if device is not None else RRAMDevice(bits=tech.cell_bits)
    rng = rng if rng is not None else np.random.default_rng(0)
    input_bits = 8
    binarized = (
        BinarizedNetwork(network, dict(thresholds), input_bits=input_bits)
        if thresholds
        else _FullPrecisionNetwork(network, {}, input_bits=input_bits)
    )

    calibration_flow = (
        binarized._quantize_input(calibration_images)
        if calibration_images is not None
        else None
    )
    device_arrays: Dict[str, DeviceArray] = {}
    binarized.device_arrays = device_arrays
    first_weighted = True
    for index, layer in enumerate(network.layers):
        if isinstance(layer, (Conv2D, Dense)):
            xbar = DacCrossbar(
                layer_weight_matrix(layer), device, tech.weight_bits, rng,
                # The input layer's DACs are always 8-bit (§3.2).
                data_bits=input_bits if first_weighted else data_bits,
            )
            binarized.layer_computes[index] = layer_compute(
                None, _adc_kernel(layer, xbar, calibration_flow)
            )
            device_arrays[f"layer{index}"] = xbar.array
            first_weighted = False
        if calibration_flow is not None:
            # Propagate the calibration batch through the (now hooked)
            # layer so deeper layers calibrate on realistic inputs.
            calibration_flow = binarized.run_layer(index, calibration_flow)
    return binarized


class _FullPrecisionNetwork(BinarizedNetwork):
    """Table 5's full-precision DAC+ADC baseline: every layer runs
    unthresholded, so unlike a BinarizedNetwork it needs no Algorithm 1
    thresholds on its intermediate layers."""

    def __post_init__(self) -> None:
        # No layer is thresholded, so no layer sees 1-bit inputs whose
        # row activity the software path would record.
        self._obs_plans = {}
