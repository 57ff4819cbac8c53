"""Noise-aware threshold calibration (§6's "design optimization flow
considering the non-ideal factors of RRAM and circuit").

Algorithm 1 picks thresholds assuming ideal hardware.  When the deployed
crossbars carry programming variation, decision margins shrink and a
threshold sitting flush against the data distribution flips bits.  This
module re-runs the Algorithm 1 candidate scoring under *noise-injected*
evaluations and keeps, per layer, the candidate with the best expected
accuracy.

Noise model — the SEI programming-error chain, propagated to a column
output.  A weight occupies ``2 * slices`` cells with extra-port
coefficients ``A_k = (+-2^(k*cell_bits))``; a Gaussian programming error
of ``sigma`` level-steps on a cell perturbs the output by
``A_k * sigma * scale`` with ``scale = w_max / (2^weight_bits - 1)``.
With ``A`` active rows per MVM the column error std is

    sigma_out = sigma * scale * sqrt(sum_k A_k^2) * sqrt(A)

``A`` is estimated from the layer's actual input activity on the
calibration set.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, Optional, Tuple

import numpy as np

from repro.errors import QuantizationError
from repro.nn.losses import accuracy
from repro.nn.network import Sequential

from repro.core.binarized import binarize
from repro.core.binarized import intermediate_quantizable_indices
from repro.core.threshold_search import SearchConfig, SearchResult, _tail_forward

__all__ = [
    "RobustSearchConfig",
    "estimate_sei_output_noise_std",
    "robustify_thresholds",
]


@dataclass(frozen=True)
class RobustSearchConfig:
    """Parameters of the noise-aware re-calibration."""

    #: Expected programming std, in fractions of one level step.
    program_sigma: float = 0.3
    #: Weight precision / cell precision of the deployment (for the
    #: coefficient norm of the error chain).
    weight_bits: int = 8
    cell_bits: int = 4
    #: Monte-Carlo trials per candidate threshold.
    trials: int = 5
    #: Candidate grid (reuses the Algorithm 1 config).
    search: SearchConfig = field(default_factory=SearchConfig)
    seed: int = 0

    def __post_init__(self) -> None:
        if self.program_sigma < 0:
            raise QuantizationError("program_sigma must be non-negative")
        if self.trials < 1:
            raise QuantizationError("trials must be >= 1")
        if self.weight_bits % self.cell_bits != 0:
            raise QuantizationError(
                "weight_bits must be a multiple of cell_bits"
            )


def estimate_sei_output_noise_std(
    weight_matrix: np.ndarray,
    mean_active_rows: float,
    program_sigma: float,
    weight_bits: int = 8,
    cell_bits: int = 4,
) -> float:
    """Column-output error std of an SEI crossbar under programming noise."""
    if mean_active_rows < 0:
        raise QuantizationError("mean_active_rows must be non-negative")
    w_max = float(np.abs(weight_matrix).max(initial=0.0))
    scale = w_max / (2**weight_bits - 1)
    slices = weight_bits // cell_bits
    coeff_sq = 2 * sum(
        (2 ** (k * cell_bits)) ** 2 for k in range(slices)
    )  # both sign groups
    return (
        program_sigma * scale * np.sqrt(coeff_sq) * np.sqrt(max(mean_active_rows, 1.0))
    )


def robustify_thresholds(
    result: SearchResult,
    images: np.ndarray,
    labels: np.ndarray,
    config: Optional[RobustSearchConfig] = None,
) -> Dict[int, float]:
    """Re-pick each layer's threshold by expected accuracy under noise.

    Takes the (already re-scaled) :class:`SearchResult` of Algorithm 1
    and returns a new threshold dict; the input result is not modified.
    The greedy structure mirrors Algorithm 1: layers are revisited in
    order, each evaluated with earlier layers' robust thresholds applied.

    Noise is injected **empirically**: every trial programs an actual
    noisy :class:`repro.core.sei.SEIMatrix` for the layer (so clipping at
    the conductance range, the sparse-nibble layout and the sign-group
    structure all shape the error exactly as deployed) and the candidate
    thresholds are swept on the resulting noisy pre-activations.  The
    first weighted layer keeps its original threshold — in the SEI design
    it is DAC-driven (§3.2) and lies outside the selected-by-input error
    chain this calibration models.
    """
    from repro.core.sei import sei_layer_compute
    from repro.hw.device import RRAMDevice

    config = config if config is not None else RobustSearchConfig()
    net: Sequential = result.network
    candidates = config.search.candidates()

    all_targets = intermediate_quantizable_indices(net)
    missing = [i for i in all_targets if i not in result.thresholds]
    if missing:
        raise QuantizationError(
            f"SearchResult lacks thresholds for layers {missing}"
        )

    robust: Dict[int, float] = {all_targets[0]: result.thresholds[all_targets[0]]}
    for layer_index in all_targets[1:]:
        layer = net.layers[layer_index]
        layer_input, _ = _collect_io(
            net, images, robust, layer_index, config.search.batch_size
        )

        best_t = result.thresholds[layer_index]
        best_score = -1.0
        trial_pre_acts = []
        for trial in range(config.trials):
            device = RRAMDevice(
                bits=config.cell_bits, program_sigma=config.program_sigma
            )
            compute = sei_layer_compute(
                layer,
                device=device,
                weight_bits=config.weight_bits,
                max_crossbar_size=1 << 20,
                rng=np.random.default_rng(config.seed * 1000 + trial),
            )
            trial_pre_acts.append(compute(layer, layer_input))

        for t in candidates:
            scores = []
            for noisy in trial_pre_acts:
                bits = binarize(noisy, float(t))
                logits = _tail_forward(
                    net,
                    bits,
                    layer_index,
                    config.search.batch_size,
                    {k: v for k, v in robust.items() if k > layer_index},
                )
                scores.append(accuracy(logits, labels))
            score = float(np.mean(scores))
            if score > best_score:
                best_score = score
                best_t = float(t)
        robust[layer_index] = best_t
    return robust


# -- internals ------------------------------------------------------------------


def _collect_io(
    net: Sequential,
    images: np.ndarray,
    thresholds: Dict[int, float],
    layer_index: int,
    batch_size: int,
) -> Tuple[np.ndarray, np.ndarray]:
    """(input to layer, output of layer) with earlier quantization applied."""
    inputs = []
    outputs = []
    for start in range(0, len(images), batch_size):
        x = images[start : start + batch_size]
        for index, layer in enumerate(net.layers[: layer_index + 1]):
            if index == layer_index:
                inputs.append(x)
            x = layer.forward(x)
            if index in thresholds and index != layer_index:
                x = binarize(x, thresholds[index])
        outputs.append(x)
    return np.concatenate(inputs, axis=0), np.concatenate(outputs, axis=0)
