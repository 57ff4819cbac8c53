"""Monte-Carlo robustness analysis under circuit non-idealities.

The paper's conclusion announces "the complete design optimization flow
for RRAM-based CNN considering the non-ideal factors of RRAM and
circuit" as future work; this module provides the measurement side of
that flow for the SEI structure:

* **programming variation** — each trial programs the SEI crossbars with
  Gaussian conductance error (:class:`repro.hw.RRAMDevice`'s
  ``program_sigma``) and measures test error;
* **read (telegraph) noise** — per-read conductance jitter
  (``read_sigma``);
* **sense-amp noise** — input-referred comparator noise, modelled as
  Gaussian jitter on each threshold decision.

Each sweep returns mean/std/worst error per noise level over independent
trials, ready for plotting or tabulation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.device import RRAMDevice
from repro.nn.layers import Conv2D, Dense
from repro.nn.network import Sequential

from repro.core.binarized import BinarizedNetwork
from repro.core.sei import sei_layer_compute

__all__ = [
    "NoiseSweepResult",
    "sei_variation_sweep",
    "sense_amp_noise_sweep",
    "sense_amp_offset_sweep",
]


@dataclass
class NoiseSweepResult:
    """Aggregated Monte-Carlo errors for one noise knob."""

    knob: str
    levels: List[float]
    mean_error: List[float]
    std_error: List[float]
    worst_error: List[float]
    trials: int

    def rows(self) -> List[Dict[str, float]]:
        """Table rows for printing."""
        return [
            {
                self.knob: level,
                "mean error": self.mean_error[i],
                "std": self.std_error[i],
                "worst": self.worst_error[i],
            }
            for i, level in enumerate(self.levels)
        ]


def _weighted_indices(network: Sequential) -> List[int]:
    return [
        i
        for i, layer in enumerate(network.layers)
        if isinstance(layer, (Conv2D, Dense))
    ]


def _aggregate(knob, levels, errors, trials) -> NoiseSweepResult:
    arr = np.asarray(errors)  # (levels, trials)
    return NoiseSweepResult(
        knob=knob,
        levels=list(levels),
        mean_error=arr.mean(axis=1).tolist(),
        std_error=arr.std(axis=1).tolist(),
        worst_error=arr.max(axis=1).tolist(),
        trials=trials,
    )


#: The :class:`RRAMDevice` non-ideality each sweep kind sets.
_SWEEP_FIELDS = {
    "program": "program_sigma",
    "read": "read_sigma",
    "stuck": "stuck_low_rate",
    "stuck_low": "stuck_low_rate",
    "stuck_high": "stuck_high_rate",
}


def sei_variation_sweep(
    network: Sequential,
    thresholds: Dict[int, float],
    images: np.ndarray,
    labels: np.ndarray,
    sigmas: Sequence[float] = (0.0, 0.1, 0.3, 0.6),
    trials: int = 5,
    kind: str = "program",
    device_bits: int = 4,
    seed: int = 0,
) -> NoiseSweepResult:
    """Error vs device noise for SEI crossbars on every hidden layer.

    ``kind='program'`` sweeps programming variation (fixed per trial);
    ``kind='read'`` sweeps per-read noise; ``kind='stuck_low'`` (or
    ``'stuck'``) sweeps the stuck-at-g_min cell fault rate
    (forming/endurance failures) and ``kind='stuck_high'`` the
    stuck-at-g_max rate.  The first weighted layer (DAC-driven input
    layer, §3.2) keeps exact software math.
    """
    if kind not in _SWEEP_FIELDS:
        raise ConfigurationError(
            f"kind must be one of {', '.join(_SWEEP_FIELDS)}, got {kind!r}"
        )
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")

    indices = _weighted_indices(network)[1:]  # skip the input layer
    errors: List[List[float]] = []
    for sigma in sigmas:
        level_errors = []
        for trial in range(trials):
            rng = np.random.default_rng(seed * 1000 + trial)
            device = RRAMDevice(
                bits=device_bits, **{_SWEEP_FIELDS[kind]: sigma}
            )
            binarized = BinarizedNetwork(network, dict(thresholds))
            for index in indices:
                binarized.layer_computes[index] = sei_layer_compute(
                    network.layers[index],
                    device=device,
                    max_crossbar_size=1 << 20,
                    rng=rng,
                )
            level_errors.append(binarized.error_rate(images, labels))
        errors.append(level_errors)
    return _aggregate(f"{kind}_sigma", sigmas, errors, trials)


def sense_amp_noise_sweep(
    network: Sequential,
    thresholds: Dict[int, float],
    images: np.ndarray,
    labels: np.ndarray,
    sigmas: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    trials: int = 5,
    seed: int = 0,
) -> NoiseSweepResult:
    """Error vs input-referred sense-amp noise.

    Each SA decision compares the column value against its threshold plus
    Gaussian jitter with std ``sigma * threshold`` — fresh per decision,
    like the comparator noise it models.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    indices = _weighted_indices(network)

    errors: List[List[float]] = []
    for sigma in sigmas:
        level_errors = []
        for trial in range(trials):
            rng = np.random.default_rng(seed * 1000 + trial + 17)
            binarized = BinarizedNetwork(network, dict(thresholds))
            for index in indices:
                threshold = thresholds.get(index)
                if threshold is None:
                    continue  # analog classifier readout
                binarized.layer_computes[index] = _noisy_compute(
                    sigma, threshold, rng
                )
            level_errors.append(binarized.error_rate(images, labels))
        errors.append(level_errors)
    return _aggregate("sa_sigma", sigmas, errors, trials)


def sense_amp_offset_sweep(
    network: Sequential,
    thresholds: Dict[int, float],
    images: np.ndarray,
    labels: np.ndarray,
    offsets: Sequence[float] = (0.0, 0.05, 0.1, 0.2),
    trials: int = 5,
    seed: int = 0,
) -> NoiseSweepResult:
    """Error vs *systematic* per-column sense-amp offset.

    Unlike :func:`sense_amp_noise_sweep`'s per-decision jitter, each
    comparator here carries a fixed input-referred offset drawn once per
    trial (mismatch from fabrication, stable over the chip's lifetime):
    column ``j`` always compares against ``threshold * (1 + o_j)`` with
    ``o_j ~ N(0, offset)``.  Systematic offsets bias every image the
    same way, so they degrade differently from white jitter — campaigns
    sweep both.
    """
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    indices = _weighted_indices(network)

    errors: List[List[float]] = []
    for offset in offsets:
        level_errors = []
        for trial in range(trials):
            rng = np.random.default_rng(seed * 1000 + trial + 29)
            binarized = BinarizedNetwork(network, dict(thresholds))
            for index in indices:
                threshold = thresholds.get(index)
                if threshold is None:
                    continue  # analog classifier readout
                binarized.layer_computes[index] = _offset_compute(
                    offset, threshold, rng
                )
            level_errors.append(binarized.error_rate(images, labels))
        errors.append(level_errors)
    return _aggregate("sa_offset", offsets, errors, trials)


def _offset_compute(offset: float, threshold: float, rng: np.random.Generator):
    """Layer compute with a fixed per-column comparator offset.

    The offsets are drawn lazily on the first forward (when the column
    count is known) and then reused for every subsequent batch, matching
    hardware where mismatch is frozen at fabrication.
    """
    state: Dict[str, np.ndarray] = {}

    def compute(layer, x):
        out = layer.forward(x)
        if offset > 0:
            cached = state.get("offsets")
            if cached is None or cached.shape != out.shape[1:]:
                cached = rng.normal(0.0, offset * threshold, out.shape[1:])
                state["offsets"] = cached
            out = out - cached
        return out

    return compute


def _noisy_compute(sigma: float, threshold: float, rng: np.random.Generator):
    """Layer compute adding per-decision threshold jitter.

    Adding noise to the pre-threshold value is equivalent to jittering
    the reference by the same amount (and composes with the downstream
    exact comparison in BinarizedNetwork).
    """

    def compute(layer, x):
        out = layer.forward(x)
        if sigma > 0:
            out = out + rng.normal(0.0, sigma * threshold, out.shape)
        return out

    return compute
