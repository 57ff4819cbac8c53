"""Dynamic-threshold SEI structure for unipolar devices (§4.2, Fig. 4).

Some RRAM devices are unipolar (or have badly asymmetric bipolar
behaviour [16]), so negative extra-port voltages — the way
:class:`repro.core.sei.SEIMatrix` represents weight signs — are not
available.  The paper's alternative maps all signed weights onto
non-negative stored values through a linear transformation

    w = k * (w_stored - w0)            (Equ. 7)

and observes that after 1-bit quantization the decision (Equ. 8) becomes

    sum_{in_j=1} w_stored_j  >  Thres/k + w0 * #ones       (Equ. 9)

i.e. a threshold that depends on the input only through the *count of
active bits*.  The hardware realises the right-hand side with one extra
RRAM column whose cells all store ``w0`` and are selected by the same
input bits (so its output current is ``w0 * #ones``), plus the static
part stored in the bottom-right corner cell driven by an always-on bias
row; the sense amplifier then compares each kernel column against the
reference column directly.

The same column is reused by the splitting structure (§4.3) to give each
sub-matrix a threshold linear in its own ones-count — the "posteriori
knowledge of input data" compensation.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.hw.device import RRAMDevice
from repro.nn.layers import Layer

from repro.core.matrix_compute import (
    LayerKernel,
    RowPlan,
    Tally,
    ensure_binary,
    layer_bias,
    layer_compute,
    layer_weight_matrix,
)
from repro.core.sei import decompose_weights

__all__ = ["LinearTransform", "DynamicThresholdMatrix", "dynamic_threshold_layer_compute"]


@dataclass(frozen=True)
class LinearTransform:
    """The (k, w0) map taking stored values back to signed weights."""

    k: float
    w0: float

    @classmethod
    def for_weights(cls, weights: np.ndarray) -> "LinearTransform":
        """Map the full signed range of ``weights`` onto stored [0, 1]."""
        w_min = float(weights.min(initial=0.0))
        w_max = float(weights.max(initial=0.0))
        span = w_max - w_min
        if span <= 0.0:
            span = 1.0
        return cls(k=span, w0=-w_min / span)

    def store(self, weights: np.ndarray) -> np.ndarray:
        """Signed weights -> non-negative stored values in [0, 1]."""
        return weights / self.k + self.w0

    def recover(self, stored: np.ndarray) -> np.ndarray:
        """Stored values -> signed weights (Equ. 7)."""
        return self.k * (stored - self.w0)


@dataclass
class DynamicThresholdMatrix:
    """A signed weight matrix on a unipolar-device SEI crossbar.

    ``fire(bits)`` implements the complete Fig. 4 structure: kernel
    columns against the dynamic reference column.  ``compute(bits)``
    returns the equivalent signed pre-threshold values so the matrix can
    also stand in as a plain layer compute.

    Biases are supported functionally (folded into the per-column static
    reference); the paper's networks only carry biases in the final FC
    layer, which is never thresholded.
    """

    weights: np.ndarray
    threshold: float
    bias: Optional[np.ndarray] = None
    device: Optional[RRAMDevice] = None
    weight_bits: int = 8
    max_crossbar_size: int = 512
    #: First-order IR-drop coefficient.  Both the kernel columns and the
    #: reference column live in the same crossbar, so the attenuation
    #: cancels out of the fire() comparison — the structure is robust to
    #: uniform wordline loss (unlike an external SA reference).
    ir_drop_lambda: float = 0.0
    rng: Optional[np.random.Generator] = None

    def __post_init__(self) -> None:
        self.weights = np.asarray(self.weights, dtype=np.float64)
        if self.weights.ndim != 2:
            raise ShapeError(
                f"weights must be 2D, got shape {self.weights.shape}"
            )
        self.device = self.device if self.device is not None else RRAMDevice()
        self.transform = LinearTransform.for_weights(self.weights)
        stored = self.transform.store(self.weights)
        if stored.min(initial=0.0) < -1e-9 or stored.max(initial=0.0) > 1 + 1e-9:
            raise ConfigurationError(
                "linear transformation failed to map weights into [0, 1]"
            )

        slices, coefficients, scale = decompose_weights(
            np.clip(stored, 0.0, 1.0),
            self.weight_bits,
            self.device.bits,
            signed=False,
        )
        self._coefficients = coefficients
        self._scale = scale
        if self.physical_rows > self.max_crossbar_size:
            raise MappingError(
                f"needs {self.physical_rows} physical rows, exceeding "
                f"{self.max_crossbar_size}; split the matrix first"
            )

        rng = self.rng if self.rng is not None else np.random.default_rng()
        self._cells = np.stack(
            [
                self.device.conductance_to_normalized(self.device.program(s, rng))
                for s in slices
            ]
        )
        # Reference-column storage of w0.  The threshold column crosses the
        # same physical rows as the weights (two rows per logical weight),
        # so w0 is stored at the full weight precision: its high/low
        # nibbles occupy the two cells of each row pair, exactly like a
        # weight.  Programmed through the device so variation applies.
        w0_slices, w0_coeffs, w0_scale = decompose_weights(
            np.array([[self.transform.w0]]),
            self.weight_bits,
            self.device.bits,
            signed=False,
        )
        w0_value = 0.0
        cell_max = 2**self.device.bits - 1
        for coeff, cells in zip(w0_coeffs, w0_slices):
            programmed = self.device.conductance_to_normalized(
                self.device.program(cells, rng)
            )
            w0_value += coeff * float(programmed[0, 0]) * cell_max
        self._w0_cell = w0_value * w0_scale

        # Fused kernel: the slice rows of a column share one analog
        # current sum, so the crossbar equals a single stored matrix;
        # collapsing it once makes stored_sum() a single BLAS matmul.
        self._fused_stored = (
            np.tensordot(self._coefficients, self._cells, axes=1)
            * cell_max
            * self._scale
            * self.ir_drop_attenuation
        )

    # -- geometry ----------------------------------------------------------
    @property
    def logical_rows(self) -> int:
        return self.weights.shape[0]

    @property
    def cols(self) -> int:
        return self.weights.shape[1]

    @property
    def cells_per_weight(self) -> int:
        return len(self._coefficients)

    @property
    def physical_rows(self) -> int:
        """Slice rows plus the always-on bias row of Fig. 4."""
        return self.logical_rows * self.cells_per_weight + 1

    @property
    def physical_cols(self) -> int:
        """Kernel columns plus the dynamic-threshold column."""
        return self.cols + 1

    @property
    def num_cells(self) -> int:
        return self.physical_rows * self.physical_cols

    @property
    def ir_drop_attenuation(self) -> float:
        """Uniform attenuation applied to every column of the crossbar."""
        if self.ir_drop_lambda < 0:
            raise ConfigurationError("ir_drop_lambda must be non-negative")
        return 1.0 / (
            1.0
            + self.ir_drop_lambda * self.physical_rows / self.max_crossbar_size
        )

    # -- behaviour ----------------------------------------------------------------
    def stored_sum(self, bits: np.ndarray) -> np.ndarray:
        """Per-column sum of *stored* values over active inputs.

        Fused: one matmul against the pre-collapsed stored matrix (the
        slice merge *is* the analog current sum of Equ. 6).
        """
        bits = self._check_bits(bits)
        return bits @ self._fused_stored

    def stored_sum_reference(self, bits: np.ndarray) -> np.ndarray:
        """Pre-fusion per-slice loop, retained as the equivalence oracle."""
        bits = self._check_bits(bits)
        result = np.zeros(bits.shape[:-1] + (self.cols,))
        cell_max = 2**self.device.bits - 1
        for coeff, cells in zip(self._coefficients, self._cells):
            result = result + coeff * (bits @ cells) * cell_max
        return result * self._scale * self.ir_drop_attenuation

    def reference(self, bits: np.ndarray) -> np.ndarray:
        """The dynamic reference: ``Thres' + w0 * #ones`` per sample.

        Produced by the in-crossbar threshold column, so it suffers the
        same IR-drop attenuation as the kernel columns — which is exactly
        why the comparison stays correct under wordline loss.
        """
        bits = self._check_bits(bits)
        ones = bits.sum(axis=-1)
        static = (self.threshold - self._bias_vector()) / self.transform.k
        return (
            static + self._w0_cell * ones[..., None]
        ) * self.ir_drop_attenuation

    def fire(self, bits: np.ndarray) -> np.ndarray:
        """1-bit outputs of the sense amplifiers (Equ. 9)."""
        return (self.stored_sum(bits)[..., :] > self.reference(bits)).astype(
            np.float64
        )

    def compute(self, bits: np.ndarray) -> np.ndarray:
        """Equivalent signed pre-threshold values (for analog readout).

        Uses the stored cells and the ones-count correction, so device
        quantization/noise effects are included:
        ``k * (stored_sum - w0 * #ones) + bias``.
        """
        bits = self._check_bits(bits)
        ones = bits.sum(axis=-1)
        # The w0 correction comes from the (equally attenuated) reference
        # column, so it scales with the same IR-drop factor.
        correction = (
            self._w0_cell * ones[..., None] * self.ir_drop_attenuation
        )
        signed = self.transform.k * (self.stored_sum(bits) - correction)
        return signed + self._bias_vector()

    # -- internals ------------------------------------------------------------
    def _bias_vector(self) -> np.ndarray:
        if self.bias is None:
            return np.zeros(self.cols)
        bias = np.asarray(self.bias, dtype=np.float64)
        if bias.shape != (self.cols,):
            raise ShapeError(
                f"bias must have shape ({self.cols},), got {bias.shape}"
            )
        return bias

    def _check_bits(self, bits: np.ndarray) -> np.ndarray:
        bits = np.asarray(bits, dtype=np.float64)
        if bits.shape[-1] != self.logical_rows:
            raise ShapeError(
                f"input has {bits.shape[-1]} bits, matrix has "
                f"{self.logical_rows} logical rows"
            )
        ensure_binary(bits, "inputs")
        return bits


def dynamic_threshold_layer_compute(
    layer: Layer,
    threshold: float,
    device: Optional[RRAMDevice] = None,
    weight_bits: int = 8,
    max_crossbar_size: int = 512,
    rng: Optional[np.random.Generator] = None,
):
    """Layer-compute hook backed by a DynamicThresholdMatrix.

    The hook returns the signed pre-threshold values, so the surrounding
    :class:`BinarizedNetwork` applies the same threshold and produces
    exactly the bits the Fig. 4 sense amplifiers would.  It runs
    :meth:`DynamicThresholdMatrix.compute` on the planned rows through
    :func:`repro.core.matrix_compute.layer_compute` and records nothing.
    """
    matrix = DynamicThresholdMatrix(
        layer_weight_matrix(layer),
        threshold=threshold,
        # The kernel adds the layer bias; the matrix stays biasless to
        # avoid double counting.
        bias=None,
        device=device,
        weight_bits=weight_bits,
        max_crossbar_size=max_crossbar_size,
        rng=rng,
    )

    def run(bits: np.ndarray):
        # matrix.compute validates the 0/1 selection signals itself.
        return matrix.compute(bits), Tally(lambda: bits.sum(axis=1))

    kernel = LayerKernel(
        run, RowPlan(), lambda x: x,
        dict(rows=matrix.logical_rows, cols=matrix.cols),
        bias=layer_bias(layer),
    )
    return layer_compute(None, kernel)
