"""End-to-end flow: quantized network -> split, ADC-free hardware network.

This module glues the pieces of §4.3 together:

1. decide, per weighted layer, how many row blocks the SEI image needs
   (:func:`repro.core.splitting.required_blocks`);
2. choose the row partition (natural / random / homogenized);
3. calibrate the digital decision — block thresholds (static ``T/K`` or
   dynamic ``c0 + c1 * ones``), the vote count V, and for the final
   classifier its class threshold — greedily, layer by layer, on the
   training set (the same greedy protocol as Algorithm 1);
4. install the split computes into a :class:`BinarizedNetwork`.

The result is the network Table 4 evaluates: 1-bit quantized *and* split
across size-limited crossbars with purely digital merging.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.nn.layers import Conv2D, Dense
from repro.nn.losses import accuracy
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.homogenize import (
    Partition,
    block_mean_distance,
    homogenize,
    natural_partition,
    random_partition,
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
    required_blocks,
    split_layer_compute,
)

__all__ = ["SplitConfig", "SplitLayerReport", "SplitNetworkResult", "build_split_network"]


@dataclass(frozen=True)
class SplitConfig:
    """Configuration of the splitting flow."""

    max_crossbar_size: int = 512
    #: SEI cells per weight (4 = signed 8-bit weights on 4-bit cells).
    cells_per_weight: int = 4
    #: 'natural' | 'random' | 'homogenize'
    partition_method: str = "homogenize"
    #: Enable the dynamic (ones-count) block thresholds of §4.2/§4.3.
    dynamic: bool = False
    #: Candidate gamma values for the dynamic threshold interval.
    gamma_grid: Sequence[float] = (0.25, 0.5, 0.75, 1.0)
    #: Search the vote count V on the training set (else majority).
    vote_search: bool = True
    #: Hill-climbing iterations for homogenization.
    homogenize_iterations: int = 3000
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
    seed: int = 0

    def __post_init__(self) -> None:
        if self.partition_method not in ("natural", "random", "homogenize"):
            raise ConfigurationError(
                "partition_method must be 'natural', 'random' or "
                f"'homogenize', got {self.partition_method!r}"
            )
        if self.homogenize_iterations < 0:
            raise ConfigurationError(
                "homogenize_iterations must be non-negative, got "
                f"{self.homogenize_iterations}"
            )
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

    @property
    def split_layers(self) -> List[int]:
        return sorted(self.reports)


def build_split_network(
    network: Sequential,
    thresholds: Dict[int, float],
    images: np.ndarray,
    labels: np.ndarray,
    config: Optional[SplitConfig] = None,
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
    """
    config = config if config is not None else SplitConfig()
    rng = np.random.default_rng(config.seed)
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
        method=config.partition_method,
        samples=subset,
    ) as build_sp:
        for layer_index in weighted:
            layer = network.layers[layer_index]
            matrix = layer_weight_matrix(layer)
            blocks = required_blocks(
                matrix.shape[0], config.max_crossbar_size,
                config.cells_per_weight,
            )
            if blocks <= 1:
                obs.count("split/layers_unsplit")
                continue
            obs.count("split/layers_split")

            with obs.span(
                "split.layer", index=layer_index, blocks=blocks
            ) as layer_sp:
                partition = _choose_partition(matrix, blocks, config, rng)
                is_final = layer_index == final_index
                layer_sp.set("is_final", is_final)

                if is_final and config.final_layer_mode == "analog":
                    # Blocks merge by analog current summing into the WTA
                    # readout: functionally exact, so no compute hook is
                    # installed; the report still records the physical
                    # split.
                    result.reports[layer_index] = SplitLayerReport(
                        layer_index=layer_index,
                        num_blocks=blocks,
                        partition=partition,
                        decision=SplitDecision(
                            block_threshold=0.0, vote_threshold=1
                        ),
                        distance=block_mean_distance(matrix, partition),
                        natural_distance=block_mean_distance(
                            matrix,
                            natural_partition(matrix.shape[0], blocks),
                        ),
                        calibration_accuracy=float("nan"),
                        is_final=True,
                    )
                    layer_sp.set("merge", "analog")
                    continue

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
                        cal_images,
                        cal_labels,
                        config,
                    )
                    split = SplitMatrix(
                        matrix, partition, decision, bias=layer_bias(layer)
                    )
                    binarized.layer_computes[layer_index] = (
                        final_layer_vote_compute(
                            layer,
                            split,
                            obs_index=layer_index,
                            cells_per_weight=config.cells_per_weight,
                        )
                    )
                else:
                    decision, cal_acc = _calibrate_hidden_layer(
                        binarized,
                        layer_index,
                        matrix,
                        partition,
                        thresholds[layer_index],
                        input_bits,
                        fold,
                        cal_images,
                        cal_labels,
                        config,
                    )
                    split = SplitMatrix(
                        matrix, partition, decision, bias=layer_bias(layer)
                    )
                    binarized.layer_computes[layer_index] = (
                        split_layer_compute(
                            layer,
                            split,
                            obs_index=layer_index,
                            cells_per_weight=config.cells_per_weight,
                        )
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


def _choose_partition(
    matrix: np.ndarray,
    blocks: int,
    config: SplitConfig,
    rng: np.random.Generator,
) -> Partition:
    if config.partition_method == "natural":
        return natural_partition(matrix.shape[0], blocks)
    if config.partition_method == "random":
        return random_partition(matrix.shape[0], blocks, rng)
    return homogenize(
        matrix,
        blocks,
        method="hillclimb",
        iterations=config.homogenize_iterations,
        seed=config.seed,
    )


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
    cal_images: np.ndarray,
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
    cal_images: np.ndarray,
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
