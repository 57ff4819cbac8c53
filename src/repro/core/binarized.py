"""1-bit-quantized (binarized-activation) CNN inference (§3.1).

After Algorithm 1 has chosen per-layer thresholds, the network runs as
follows:

* the input picture stays high-precision (it is driven through DACs,
  §3.2);
* the output of every *intermediate* weighted layer (Conv / FC) is
  compared with its threshold and becomes a single bit.  ReLU disappears:
  it is monotonically increasing, so ``relu(g) > t  <=>  g > t`` for
  ``t >= 0`` — the neuron is merged into the sense-amp reference;
* max pooling over 1-bit data degenerates to a logical OR, and because
  quantizing after pooling equals quantizing before pooling with the same
  threshold, we binarize first and OR afterwards — exactly the digital OR
  gate the hardware uses;
* the final FC layer produces analog class scores; classification takes
  the argmax (a winner-take-all readout).

:class:`BinarizedNetwork` wraps a (re-scaled) float network plus the
threshold vector and provides both plain inference and hooks that expose
the binary activations, which the SEI / splitting hardware simulations
consume as crossbar selection signals.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional

import numpy as np

from repro import obs
from repro.errors import QuantizationError, ShapeError
from repro.nn.layers import Conv2D, Dense, Flatten, Layer, MaxPool2D, ReLU
from repro.nn.losses import error_rate
from repro.nn.network import Sequential
from repro.obs.power import record_layer

from repro.core.matrix_compute import RowPlan, Scratch, ensure_binary

__all__ = [
    "intermediate_quantizable_indices",
    "binarize",
    "or_pool",
    "BinarizedNetwork",
]

#: A hook that replaces the weighted computation of one layer.  It receives
#: the layer's (binary) input activations and must return the
#: pre-threshold analog output — used to substitute crossbar hardware
#: models (SEI, splitting) for exact software matrix products.
LayerCompute = Callable[[Layer, np.ndarray], np.ndarray]


def intermediate_quantizable_indices(network: Sequential) -> List[int]:
    """Indices of layers whose outputs are 1-bit-quantized intermediate data.

    All weighted layers except the final one (the classifier output stays
    analog and is read out by winner-take-all).
    """
    indices = network.quantizable_indices()
    if len(indices) < 2:
        raise QuantizationError(
            "network has fewer than two weighted layers; there is no "
            "intermediate data to quantize"
        )
    return indices[:-1]


def binarize(values: np.ndarray, threshold: float) -> np.ndarray:
    """Threshold processing: 1 where value > threshold, else 0 (Equ. 4).

    The comparison writes its 0/1 floats directly into the output buffer
    — one pass instead of a bool temporary plus an ``astype`` copy.
    """
    values = np.asarray(values)
    out = np.empty(values.shape, dtype=np.float64)
    np.greater(values, threshold, out=out, casting="unsafe")
    return out


def or_pool(bits: np.ndarray, pool: int, stride: Optional[int] = None) -> np.ndarray:
    """Max pooling of 1-bit data == logical OR over the window (§3.1)."""
    from repro.nn.functional import maxpool2d_forward

    ensure_binary(bits, "or_pool inputs")
    return maxpool2d_forward(bits, pool, stride)


@dataclass
class BinarizedNetwork:
    """A float network executed with 1-bit intermediate activations.

    Parameters
    ----------
    network:
        The (already re-scaled) float network.  Not copied — callers who
        need the original intact should pass ``network.copy()``.
    thresholds:
        Mapping from weighted-layer index to its quantization threshold on
        the re-scaled [0, 1] output range.
    input_bits:
        Precision of the input-layer DACs (None = ideal analog input).
    """

    network: Sequential
    thresholds: Dict[int, float]
    input_bits: Optional[int] = 8
    #: Optional per-layer hardware substitutes (crossbar models).
    layer_computes: Dict[int, LayerCompute] = field(default_factory=dict)
    #: Layers whose installed compute already emits the exact 0/1 plane
    #: of ``binarize(output, thresholds[index])`` — the engine folded the
    #: threshold comparison into its kernel, so the outer binarize would
    #: be a redundant identity pass and is skipped.  Engines that fold
    #: must guarantee bit-exactness against the unfolded comparison.
    prebinarized: frozenset = field(default_factory=frozenset)

    def __post_init__(self) -> None:
        expected = intermediate_quantizable_indices(self.network)
        missing = [i for i in expected if i not in self.thresholds]
        if missing:
            raise QuantizationError(
                f"missing thresholds for layer indices {missing}; run the "
                "threshold search first"
            )
        # Weighted layers whose inputs are 1-bit selection signals (some
        # earlier weighted layer is thresholded): these are the layers the
        # SEI structure input-switches, so software-only inference can
        # still report row-activity statistics for them, gathered through
        # each layer's row plan.
        weighted = [
            i
            for i, layer in enumerate(self.network.layers)
            if isinstance(layer, (Conv2D, Dense))
        ]
        self._obs_plans = {
            i: RowPlan()
            for i in weighted
            if any(j < i and j in self.thresholds for j in weighted)
        }

    # -- execution -------------------------------------------------------
    def forward(self, x: np.ndarray) -> np.ndarray:
        """Binarized forward pass; returns analog logits.

        Batch-transparent: a single sample shaped like the network's
        input (e.g. ``(1, 28, 28)``) is accepted alongside the usual
        batched ``(n, 1, 28, 28)`` form and returns an unbatched logits
        vector — serving code can hand over requests as-is.
        """
        x = np.asarray(x)
        input_shape = getattr(self.network, "input_shape", None)
        single = input_shape is not None and x.ndim == len(input_shape)
        if single:
            x = x[None]
        x = self._quantize_input(x)
        for index, layer in enumerate(self.network.layers):
            x = self._run_layer(index, layer, x)
        return x[0] if single else x

    def predict(self, images: np.ndarray, batch_size: int = 256) -> np.ndarray:
        outputs = [
            self.forward(images[start : start + batch_size])
            for start in range(0, len(images), batch_size)
        ]
        return np.concatenate(outputs, axis=0)

    def error_rate(
        self, images: np.ndarray, labels: np.ndarray, batch_size: int = 256
    ) -> float:
        """Classification error rate, the paper's accuracy metric."""
        return error_rate(self.predict(images, batch_size), labels)

    def collect_binary_activations(
        self, images: np.ndarray
    ) -> Dict[int, np.ndarray]:
        """Binary activations *entering* each quantized-downstream layer.

        Returns a mapping from weighted-layer index (conv2, fc, ...) to the
        1-bit selection signals that layer receives — the inputs the SEI
        structure uses to drive transmission gates.  The first weighted
        layer is excluded (it sees the analog picture).
        """
        captured: Dict[int, np.ndarray] = {}
        x = self._quantize_input(images)
        quantized = set(self.thresholds)
        seen_binary = False
        for index, layer in enumerate(self.network.layers):
            if isinstance(layer, (Conv2D, Dense)) and seen_binary:
                captured[index] = x.copy()
            x = self._run_layer(index, layer, x)
            if index in quantized:
                seen_binary = True
        return captured

    def run_layer(self, index: int, x: np.ndarray) -> np.ndarray:
        """Run a single layer under binarized semantics (public hook).

        Applies the layer's installed hardware compute (if any) and its
        1-bit threshold; used by calibration code that replays network
        tails on cached activations.
        """
        return self._run_layer(index, self.network.layers[index], x)

    # -- internals -----------------------------------------------------------
    def _quantize_input(self, x: np.ndarray) -> np.ndarray:
        if self.input_bits is None:
            return x
        steps = 2**self.input_bits - 1
        return np.rint(np.clip(x, 0.0, 1.0) * steps) / steps

    def _run_layer(self, index: int, layer: Layer, x: np.ndarray) -> np.ndarray:
        compute = self.layer_computes.get(index)
        if isinstance(layer, (Conv2D, Dense)):
            if compute is not None:
                x = compute(layer, x)
            else:
                # Row-activity counters for a software-simulated SEI
                # layer, gathered only while a recorder is on, in the
                # canonical 8-bit-weight / 4-bit-cell signed layout (4
                # cells per weight, the Table 5 configuration): the
                # software path carries no device model.
                if obs.active() is not None and index in getattr(
                    self, "_obs_plans", ()
                ):
                    bits = self._obs_plans[index].gather(layer, x, Scratch())
                    record_layer(
                        index, lambda: bits.sum(axis=1), rows=bits.shape[1],
                        cols=layer.weight_matrix.shape[1], cells_per_weight=4,
                    )
                x = layer.forward(x)
            if index in self.thresholds and index not in self.prebinarized:
                # ReLU is merged into this comparison: relu is monotonic
                # and the threshold is non-negative, so relu(g) > t == g > t.
                x = binarize(x, self.thresholds[index])
            return x
        # ReLU on 0/1 data is an identity and max pooling on 0/1 data *is*
        # the logical OR of §3.1, so the remaining layers run unchanged.
        # Computes may still be installed on them (e.g. the reference
        # engine pins the pre-fusion pooling implementation).
        if compute is not None:
            return compute(layer, x)
        return layer.forward(x)
