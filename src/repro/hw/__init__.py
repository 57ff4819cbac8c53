"""RRAM hardware substrate: device, arrays, peripherals, tech.

The stable hardware surface.  Cell state lives on one
:class:`DeviceArray` (the numpy device model, static or with seeded
closed-form aging); engines program and read *through* it rather than
holding conductance arrays.  A compiled network's cells are described
by its ``HardwareConfig``: one :class:`RRAMDevice` and an optional
:class:`TemporalConfig`.
"""

from repro.hw.array import (
    ArrayHealth,
    DeviceArray,
    DeviceArraySnapshot,
    TemporalConfig,
)
from repro.hw.device import RRAMDevice
from repro.hw.peripherals import ADC, DAC, SEIDecoder, SenseAmp, TraditionalDecoder
from repro.hw.retune import (
    RetuneEvent,
    RetunePolicy,
    RetuneReport,
    array_needs_retune,
    check_and_retune,
    retune_array,
)
from repro.hw.tech import REFERENCE_PLATFORMS, ReferencePlatform, TechnologyModel
from repro.hw.tuning import TuningResult, stuck_cell_map, tune_cells

__all__ = [
    "RRAMDevice",
    "ADC",
    "DAC",
    "SenseAmp",
    "TraditionalDecoder",
    "SEIDecoder",
    "TechnologyModel",
    "ReferencePlatform",
    "REFERENCE_PLATFORMS",
    "TuningResult",
    "stuck_cell_map",
    "tune_cells",
    # Device arrays.
    "DeviceArray",
    "TemporalConfig",
    "DeviceArraySnapshot",
    "ArrayHealth",
    # Online re-tuning.
    "RetunePolicy",
    "RetuneEvent",
    "RetuneReport",
    "array_needs_retune",
    "retune_array",
    "check_and_retune",
]
