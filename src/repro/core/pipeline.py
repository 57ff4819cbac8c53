"""End-to-end flow: quantized network -> split, ADC-free hardware network.

This module glues the pieces of §4.3 together:

1. decide, per weighted layer, how many row blocks the SEI image needs
   and choose their row partition (natural / random / homogenized) —
   :func:`repro.core.hardware_network.split_partition`, the chooser the
   compiled engines use, under the same
   :class:`~repro.core.hardware_network.HardwareConfig`;
2. calibrate the digital decision — block thresholds (static ``T/K`` or
   dynamic ``c0 + c1 * ones``), the vote count V, and for the final
   classifier its class threshold — greedily, layer by layer, on the
   training set (the same greedy protocol as Algorithm 1);
3. install the split computes into a :class:`BinarizedNetwork`.

The result is the network Table 4 evaluates: 1-bit quantized *and* split
across size-limited crossbars with purely digital merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.nn.layers import Conv2D, Dense
from repro.nn.losses import accuracy
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.hardware_network import HardwareConfig, split_partition
from repro.core.homogenize import (
    Partition,
    block_mean_distance,
    natural_partition,
)
from repro.core.matrix_compute import (
    RowPlan,
    Scratch,
    fold_rows,
    layer_bias,
    layer_weight_matrix,
)
from repro.core.splitting import (
    SplitDecision,
    SplitMatrix,
    final_layer_vote_compute,
    split_layer_compute,
)

__all__ = ["SplitConfig", "SplitLayerReport", "SplitNetworkResult", "build_split_network"]


@dataclass(frozen=True)
class SplitConfig:
    """What the split calibration adds to the hardware's split geometry.

    Crossbar size, cells per weight, row partitioning and seed are the
    :class:`~repro.core.hardware_network.HardwareConfig`'s.
    """

    #: Enable the dynamic (ones-count) block thresholds of §4.2/§4.3.
    dynamic: bool = False
    #: Candidate gamma values for the dynamic threshold interval.
    gamma_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0)
    #: Search the vote count V on the training set (else majority).
    vote_search: bool = True
    #: Number of candidate class thresholds for the final layer.
    final_threshold_grid: int = 24
    #: How a split *final classifier* merges its blocks:
    #: 'analog' — corresponding columns of the K crossbars sum their
    #: output currents into a winner-take-all readout (functionally exact,
    #: still ADC-free; the default, and what Table 4 assumes);
    #: 'vote' — fully digital: each block thresholds its columns and the
    #: argmax runs over per-class fired-block counts (coarser; ablation).
    final_layer_mode: str = "analog"
    #: Samples from the training set used for calibration.
    calibration_samples: int = 1000

    def __post_init__(self) -> None:
        if self.final_layer_mode not in ("analog", "vote"):
            raise ConfigurationError(
                "final_layer_mode must be 'analog' or 'vote', got "
                f"{self.final_layer_mode!r}"
            )


@dataclass
class SplitLayerReport:
    """What happened to one split layer."""

    layer_index: int
    num_blocks: int
    partition: Partition
    decision: SplitDecision
    #: Equ. 10 distance of the chosen partition and of the natural order.
    distance: float
    natural_distance: float
    #: Training accuracy after calibrating this layer.
    calibration_accuracy: float
    is_final: bool = False


@dataclass
class SplitNetworkResult:
    """A split hardware network plus per-layer reports."""

    binarized: BinarizedNetwork
    reports: Dict[int, SplitLayerReport] = field(default_factory=dict)


def build_split_network(
    network: Sequential,
    thresholds: Dict[int, float],
    images: np.ndarray,
    labels: np.ndarray,
    config: Optional[SplitConfig] = None,
    hardware: Optional[HardwareConfig] = None,
) -> SplitNetworkResult:
    """Split every oversized layer of a quantized network (see module doc).

    Parameters
    ----------
    network:
        The re-scaled network from Algorithm 1 (not copied; it is only
        read).
    thresholds:
        Per-layer quantization thresholds from Algorithm 1.
    images, labels:
        Training data for calibration (subset taken per the config).
    config:
        The calibration options (default :class:`SplitConfig`).
    hardware:
        The crossbars: size, cells per weight, row partitioning and seed
        (default :class:`HardwareConfig`).  Each layer's partition is
        the one :func:`repro.core.engines.compile_network` picks under
        the same config, so the calibrated decisions compile onto it.
    """
    config = config if config is not None else SplitConfig()
    hardware = hardware if hardware is not None else HardwareConfig()
    rng = np.random.default_rng(hardware.seed)
    subset = min(config.calibration_samples, len(images))
    cal_images = images[:subset]
    cal_labels = labels[:subset]

    binarized = BinarizedNetwork(network, dict(thresholds))
    result = SplitNetworkResult(binarized=binarized)

    weighted = [
        i
        for i, layer in enumerate(network.layers)
        if isinstance(layer, (Conv2D, Dense))
    ]
    final_index = weighted[-1]

    with obs.span(
        "split.build",
        layers=len(weighted),
        method=hardware.partition_method,
        samples=subset,
    ) as build_sp:
        for layer_index in weighted:
            layer = network.layers[layer_index]
            matrix = layer_weight_matrix(layer)
            partition = split_partition(matrix, hardware, rng)
            if partition is None:
                obs.count("split/layers_unsplit")
                continue
            obs.count("split/layers_split")
            blocks = partition.num_blocks

            with obs.span(
                "split.layer", index=layer_index, blocks=blocks
            ) as layer_sp:
                is_final = layer_index == final_index
                layer_sp.set("is_final", is_final)

                if is_final and config.final_layer_mode == "analog":
                    # Blocks merge by analog current summing into the WTA
                    # readout: functionally exact, so no compute hook is
                    # installed; the report still records the physical
                    # split.
                    decision = SplitDecision(
                        block_threshold=0.0, vote_threshold=1
                    )
                    cal_acc = float("nan")
                    layer_sp.set("merge", "analog")
                else:
                    input_bits, fold = _layer_input_bits(
                        binarized, layer_index, cal_images
                    )
                    if is_final:
                        decision, cal_acc = _calibrate_final_layer(
                            binarized,
                            layer_index,
                            matrix,
                            partition,
                            input_bits,
                            fold,
                            cal_labels,
                            config,
                        )
                        make_compute = final_layer_vote_compute
                    else:
                        decision, cal_acc = _calibrate_hidden_layer(
                            binarized,
                            layer_index,
                            matrix,
                            partition,
                            thresholds[layer_index],
                            input_bits,
                            fold,
                            cal_labels,
                            config,
                        )
                        make_compute = split_layer_compute
                    split = SplitMatrix(
                        matrix, partition, decision, bias=layer_bias(layer)
                    )
                    binarized.layer_computes[layer_index] = make_compute(
                        layer,
                        split,
                        obs_index=layer_index,
                        cells_per_weight=hardware.cells_per_weight,
                    )
                    layer_sp.set("calibration_accuracy", cal_acc)
                    layer_sp.set("vote_threshold", decision.vote_threshold)

                result.reports[layer_index] = SplitLayerReport(
                    layer_index=layer_index,
                    num_blocks=blocks,
                    partition=partition,
                    decision=decision,
                    distance=block_mean_distance(matrix, partition),
                    natural_distance=block_mean_distance(
                        matrix, natural_partition(matrix.shape[0], blocks)
                    ),
                    calibration_accuracy=cal_acc,
                    is_final=is_final,
                )
        build_sp.set("layers_split", len(result.reports))

    return result


# -- internals -----------------------------------------------------------------


def _layer_input_bits(
    binarized: BinarizedNetwork, layer_index: int, images: np.ndarray
):
    """(bits matrix, fold) for one layer on the calibration set.

    ``bits`` is ``(samples * positions, rows)``; ``fold`` maps an
    ``(samples * positions, cols)`` array back to the layer's output
    activation shape so the network tail can run on it.
    """
    captured = binarized.collect_binary_activations(images)
    if layer_index not in captured:
        raise ConfigurationError(
            f"layer {layer_index} receives analog inputs; only layers fed "
            "by quantized data can be split without ADCs"
        )
    x = captured[layer_index]
    layer = binarized.network.layers[layer_index]
    bits = RowPlan().gather(layer, x, Scratch())

    def fold(out: np.ndarray) -> np.ndarray:
        return np.ascontiguousarray(fold_rows(layer, x.shape, out))

    return bits, fold


def _tail_accuracy(
    binarized: BinarizedNetwork,
    layer_index: int,
    layer_output: np.ndarray,
    labels: np.ndarray,
) -> float:
    """Accuracy when the tail of the network runs on ``layer_output``.

    Deeper layers use whatever computes are already installed (greedy:
    none yet for not-yet-calibrated layers, i.e. exact float math).
    """
    x = layer_output
    for index in range(layer_index + 1, len(binarized.network.layers)):
        x = binarized.run_layer(index, x)
    return accuracy(x, labels)


def _calibrate_hidden_layer(
    binarized: BinarizedNetwork,
    layer_index: int,
    matrix: np.ndarray,
    partition: Partition,
    layer_threshold: float,
    input_bits: np.ndarray,
    fold,
    cal_labels: np.ndarray,
    config: SplitConfig,
) -> Tuple[SplitDecision, float]:
    """Grid-search (gamma, V) for a hidden split layer."""
    layer = binarized.network.layers[layer_index]
    probe = SplitMatrix(
        matrix,
        partition,
        SplitDecision(block_threshold=0.0, vote_threshold=1),
        bias=layer_bias(layer),
    )
    sums = probe.block_sums(input_bits)
    ones = probe.ones_per_block(input_bits)
    num_blocks = partition.num_blocks
    mean_total_ones = float(ones.sum(axis=1).mean())

    gammas = [0.0] + (list(config.gamma_grid) if config.dynamic else [])
    votes = (
        range(1, num_blocks + 1)
        if config.vote_search
        else [max(1, (num_blocks + 1) // 2)]
    )

    best: Tuple[float, SplitDecision] = (-1.0, SplitDecision(0.0))
    for gamma in gammas:
        slope = (
            gamma * layer_threshold / mean_total_ones
            if mean_total_ones > 0
            else 0.0
        )
        c0 = (layer_threshold - slope * mean_total_ones) / num_blocks
        thresholds = c0 + slope * ones
        block_bits = (sums > thresholds[:, :, None]).astype(np.float64)
        counts = block_bits.sum(axis=1)
        for vote in votes:
            obs.count("split/candidates_evaluated")
            out_bits = (counts >= vote).astype(np.float64)
            acc = _tail_accuracy(
                binarized, layer_index, fold(out_bits), cal_labels
            )
            if acc > best[0]:
                best = (
                    acc,
                    SplitDecision(
                        block_threshold=c0,
                        ones_slope=slope,
                        vote_threshold=int(vote),
                    ),
                )
    return best[1], best[0]


def _calibrate_final_layer(
    binarized: BinarizedNetwork,
    layer_index: int,
    matrix: np.ndarray,
    partition: Partition,
    input_bits: np.ndarray,
    fold,
    cal_labels: np.ndarray,
    config: SplitConfig,
) -> Tuple[SplitDecision, float]:
    """Grid-search (class threshold, gamma) for the final classifier."""
    layer = binarized.network.layers[layer_index]
    probe = SplitMatrix(
        matrix,
        partition,
        SplitDecision(block_threshold=0.0, vote_threshold=1),
        bias=layer_bias(layer),
    )
    sums = probe.block_sums(input_bits)
    ones = probe.ones_per_block(input_bits)
    num_blocks = partition.num_blocks
    mean_total_ones = float(ones.sum(axis=1).mean())

    # Candidate static thresholds: spread over the observed block-sum range.
    high = float(np.percentile(sums, 99.5))
    low = float(np.percentile(sums, 5.0))
    grid = np.linspace(low, high, config.final_threshold_grid)

    gammas = [0.0] + (list(config.gamma_grid) if config.dynamic else [])
    best: Tuple[float, SplitDecision] = (-1.0, SplitDecision(0.0))
    for gamma in gammas:
        for c0_total in grid:
            obs.count("split/candidates_evaluated")
            slope = (
                gamma * c0_total / mean_total_ones
                if mean_total_ones > 0
                else 0.0
            )
            c0 = c0_total / num_blocks - slope * mean_total_ones / num_blocks
            thresholds = c0 + slope * ones
            counts = (sums > thresholds[:, :, None]).sum(axis=1)
            logits = fold(counts.astype(np.float64))
            acc = accuracy(logits, cal_labels)
            if acc > best[0]:
                best = (
                    acc,
                    SplitDecision(
                        block_threshold=c0,
                        ones_slope=slope,
                        vote_threshold=1,
                    ),
                )
    return best[1], best[0]
