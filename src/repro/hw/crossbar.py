"""Behavioural RRAM crossbar: analog matrix-vector multiplication.

A crossbar stores a non-negative matrix as device conductances and, when
driven with input voltages, produces per-column output currents

    i_out[k] = sum_j g[j, k] * v_in[j]                       (Equ. 3)

This module models that computation plus the non-idealities that matter at
architecture level: conductance quantization (via :class:`RRAMDevice`),
programming variation, per-read noise, a first-order IR-drop attenuation,
and the fabrication size limit (512 x 512 state of the art [15]).
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.errors import ConfigurationError, MappingError, ShapeError
from repro.hw.array import DeviceArray, TemporalConfig
from repro.hw.device import RRAMDevice

__all__ = ["Crossbar"]


class Crossbar:
    """One physical crossbar programmed with a normalised weight block.

    Parameters
    ----------
    weights:
        ``(rows, cols)`` matrix with entries in [0, 1] (callers are
        responsible for offset/scale mapping of signed weights — that is
        exactly what the paper's SEI / dynamic-threshold structures do).
    device:
        The RRAM device type to program the cells with.
    max_size:
        Fabrication limit; a block larger than this raises
        :class:`MappingError` (the mapper must split first).
    ir_drop_lambda:
        First-order IR-drop coefficient: output currents are attenuated by
        ``1 / (1 + ir_drop_lambda * rows / max_size)``, approximating the
        resistive loss of long wordlines.  0 disables the effect.
    rng:
        Generator used for programming variation (fixed at program time)
        and read noise.
    temporal:
        Optional :class:`~repro.hw.array.TemporalConfig`; when enabled
        the cells age.

    The cells themselves live on a :class:`~repro.hw.array.DeviceArray`
    exposed as :attr:`array` — program, read, age, snapshot and re-tune
    the crossbar through it.
    """

    def __init__(
        self,
        weights: np.ndarray,
        device: Optional[RRAMDevice] = None,
        max_size: int = 512,
        ir_drop_lambda: float = 0.0,
        rng: Optional[np.random.Generator] = None,
        temporal: Optional[TemporalConfig] = None,
    ) -> None:
        weights = np.asarray(weights, dtype=np.float64)
        if weights.ndim != 2:
            raise ShapeError(f"crossbar weights must be 2D, got {weights.shape}")
        if max_size <= 0:
            raise ConfigurationError("max_size must be positive")
        rows, cols = weights.shape
        if rows > max_size or cols > max_size:
            raise MappingError(
                f"block {rows}x{cols} exceeds the {max_size}x{max_size} "
                "crossbar limit; split the matrix first"
            )
        if ir_drop_lambda < 0:
            raise ConfigurationError("ir_drop_lambda must be non-negative")

        self.device = device if device is not None else RRAMDevice()
        self.max_size = max_size
        self.ir_drop_lambda = ir_drop_lambda
        self._rng = rng if rng is not None else np.random.default_rng()
        self.rows = rows
        self.cols = cols

        #: The stateful device array holding the programmed cells.
        self.array = DeviceArray(self.device, temporal=temporal, rng=self._rng)
        self.array.program(weights, self._rng)
        #: The quantized weights the crossbar represents, back in [0, 1].
        self.effective_weights = self.device.conductance_to_normalized(
            self.device.level_conductance(self.device.quantize_levels(weights))
        )

    # -- computation -------------------------------------------------------
    @property
    def num_cells(self) -> int:
        return self.rows * self.cols

    @property
    def ir_drop_attenuation(self) -> float:
        """Multiplicative output attenuation caused by wire resistance."""
        return 1.0 / (1.0 + self.ir_drop_lambda * self.rows / self.max_size)

    def compute_currents(self, v_in: np.ndarray) -> np.ndarray:
        """Raw analog output currents for input voltages ``v_in``.

        ``v_in`` may be ``(rows,)`` or batched ``(n, rows)``; the result has
        matching shape with ``cols`` as the last axis.
        """
        v_in = np.asarray(v_in, dtype=np.float64)
        if v_in.shape[-1] != self.rows:
            raise ShapeError(
                f"input has {v_in.shape[-1]} entries, crossbar has "
                f"{self.rows} rows"
            )
        conductance = self.array.read(self._rng)
        self.array.note_reads(
            int(np.prod(v_in.shape[:-1], dtype=np.int64))
        )
        return (v_in @ conductance) * self.ir_drop_attenuation

    def compute(self, v_in: np.ndarray) -> np.ndarray:
        """MVM result on the normalised weight scale.

        Converts output currents back to the [0, 1]-weight convention so
        callers can compare against pure-software matrix products: with an
        all-ones input, no noise and no IR drop the output equals
        ``weights.sum(axis=0)`` (up to quantization).  Noise and IR-drop
        degradation remain visible in the result.
        """
        v_in = np.asarray(v_in, dtype=np.float64)
        currents = self.compute_currents(v_in)
        # Remove the g_min offset contributed by every *driven* row, then
        # rescale to the weight range.  The offset is attenuated by the
        # same IR-drop factor as the signal.
        if v_in.ndim > 1:
            drive_sum = v_in.sum(axis=-1)[..., None]
        else:
            drive_sum = float(v_in.sum())
        span = self.device.g_max - self.device.g_min
        offset = self.ir_drop_attenuation * self.device.g_min * drive_sum
        return (currents - offset) / span

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"Crossbar({self.rows}x{self.cols}, "
            f"{self.device.bits}-bit cells)"
        )
