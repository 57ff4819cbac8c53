"""Engine registry: one typed spec for every inference backend.

Historically the inference backends were selected by stringly-typed
keyword arguments scattered across the package: ``engine='fused'`` /
``engine='reference'`` on :func:`repro.core.hardware_network.assemble_sei_network`
(and friends), with the noise / device / fabric options riding along as
separate ``config=HardwareConfig(...)`` or ``device=RRAMDevice(...)``
kwargs, and the ADC baseline living behind a different function
altogether.  This module consolidates all of that into one value:

* :class:`EngineSpec` — *which* backend (``fused`` | ``reference`` |
  ``adc`` | ``packed``) plus *all* hardware/noise options it needs, as a
  single frozen dataclass that digests cleanly into cache keys and run
  manifests;
* a **registry** mapping engine names to builder functions, so new
  backends (sharded, multi-device, ...) plug in without touching call
  sites;
* :func:`compile_network` — the single compile entry point: quantized
  artefacts in, ready-to-run :class:`~repro.core.binarized.BinarizedNetwork`
  out.  ``repro.serve`` sessions, the CLI and the benchmarks all go
  through here.

A bare engine string (``engine='reference'``) is rejected with a
:class:`~repro.errors.ConfigurationError` naming :class:`EngineSpec`.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, Dict, Optional, Sequence, Tuple

import numpy as np

from repro.errors import ConfigurationError
from repro.hw.tech import TechnologyModel
from repro.core.binarized import BinarizedNetwork
from repro.core.estimate import EstimatorPolicy
from repro.core.hardware_network import (
    HardwareConfig,
    assemble_adc_network,
    assemble_sei_network,
)
from repro.core.homogenize import Partition
from repro.core.splitting import SplitDecision
from repro.nn.network import Sequential

__all__ = [
    "EngineSpec",
    "EngineBuilder",
    "available_engines",
    "register_engine",
    "engine_builder",
    "oracle_engine",
    "resolve_engine",
    "compile_network",
]


@dataclass(frozen=True)
class EngineSpec:
    """Everything that selects and parameterises an inference backend.

    Parameters
    ----------
    name:
        Registry name of the backend: ``'fused'`` (default; collapsed
        stacked-matmul SEI arithmetic), ``'reference'`` (the retained
        pre-fusion per-slice loops, the equivalence oracle), ``'adc'``
        (the traditional DAC+crossbar+ADC functional model, the Table 5
        baseline) or ``'packed'`` (an alias of ``'fused'``: the same
        builder, kept so existing specs, digests and golden entries
        still resolve).
    hardware:
        Device / fabric parameters (cell precision, noise sigmas, IR
        drop, crossbar size, partitioning).  The noise options that used
        to travel as loose kwargs live in ``hardware.device``.
    data_bits:
        Intermediate-data DAC precision for the ``'adc'`` engine (the
        input layer always runs 8-bit DACs, §3.2).  Ignored by the SEI
        engines, whose intermediate data is 1-bit by construction.
    estimator:
        Runtime output-activity estimation policy
        (:class:`repro.core.estimate.EstimatorPolicy`).  ``off`` by
        default; ``exact`` lets the fused engine skip row work once
        every output bit is provably decided (bit-identical to ``off``);
        ``threshold`` trades bounded output disagreement for earlier
        skipping (CompRRAE-style).  Rejected by the ``adc`` and
        ``reference`` engines, which stay estimator-free baselines.
    """

    name: str = "fused"
    hardware: HardwareConfig = field(default_factory=HardwareConfig)
    data_bits: int = 8
    estimator: EstimatorPolicy = field(default_factory=EstimatorPolicy)

    def __post_init__(self) -> None:
        if not isinstance(self.name, str) or not self.name:
            raise ConfigurationError(
                f"engine name must be a non-empty string, got {self.name!r}"
            )
        if self.data_bits < 1:
            raise ConfigurationError(
                f"data_bits must be >= 1, got {self.data_bits}"
            )

    @property
    def deterministic(self) -> bool:
        """Whether repeated inference draws no per-call randomness.

        Programming variation is applied once at compile time (seeded),
        so only per-read noise makes repeated calls diverge.  The ADC
        engine models no read noise.
        """
        return self.name == "adc" or self.hardware.device.read_sigma <= 0


#: A builder turns quantized artefacts into a runnable network.
EngineBuilder = Callable[..., BinarizedNetwork]

_ENGINES: Dict[str, EngineBuilder] = {}
_ORACLE: Dict[str, str] = {}


def register_engine(
    name: str,
    builder: EngineBuilder,
    replace: bool = False,
    oracle: bool = False,
) -> None:
    """Register an inference backend under ``name``.

    Third-party backends (sharded fabrics, alternative devices) register
    here and immediately become valid :class:`EngineSpec` names for
    :func:`compile_network`, ``repro.serve`` sessions, the conformance
    harness and the CLI.  Pass ``oracle=True`` to designate the backend
    as the equivalence oracle every other engine is differentially
    tested against (``repro.testing`` compares candidates to it).
    """
    if not replace and name in _ENGINES:
        raise ConfigurationError(f"engine {name!r} is already registered")
    _ENGINES[name] = builder
    if oracle:
        _ORACLE["name"] = name


def available_engines() -> Tuple[str, ...]:
    """Registered engine names, sorted."""
    return tuple(sorted(_ENGINES))


def oracle_engine() -> str:
    """Name of the designated equivalence-oracle engine.

    The oracle is the retained pre-fusion arithmetic every optimised
    backend must stay bit-identical to; :class:`repro.testing`'s
    differential runner compares against it by default.
    """
    return _ORACLE.get("name", "reference")


def engine_builder(name: str) -> EngineBuilder:
    """The builder registered under ``name``."""
    try:
        return _ENGINES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown engine {name!r}; registered engines: "
            f"{', '.join(available_engines())}"
        ) from None


def resolve_engine(
    engine: Optional[EngineSpec],
    hardware: Optional[HardwareConfig] = None,
    allowed: Optional[Sequence[str]] = None,
    caller: str = "this function",
) -> EngineSpec:
    """Normalise an engine argument to an :class:`EngineSpec`.

    ``engine=None`` resolves to the default fused spec with ``hardware``
    folded in.  Passing an :class:`EngineSpec` alongside a separate
    ``hardware`` config is ambiguous and rejected, as is anything else
    (a bare engine-name string included).
    """
    if isinstance(engine, EngineSpec):
        if hardware is not None:
            raise ConfigurationError(
                f"pass hardware options inside the EngineSpec, not as a "
                f"separate config argument to {caller}"
            )
        spec = engine
    elif engine is None:
        spec = EngineSpec(
            hardware=hardware if hardware is not None else HardwareConfig()
        )
    elif isinstance(engine, str):
        raise ConfigurationError(
            f"{caller} takes an EngineSpec, not the engine name "
            f"{engine!r}; pass repro.core.EngineSpec(name={engine!r}, "
            "hardware=...)"
        )
    else:
        raise ConfigurationError(
            f"engine must be an EngineSpec or None, got "
            f"{type(engine).__name__}"
        )
    if allowed is not None and spec.name not in allowed:
        raise ConfigurationError(
            f"{caller} supports engines {', '.join(sorted(allowed))}; "
            f"got {spec.name!r}"
        )
    return spec


def compile_network(
    network: Sequential,
    thresholds: Dict[int, float],
    spec: Optional[EngineSpec] = None,
    *,
    decisions: Optional[Dict[int, SplitDecision]] = None,
    partitions: Optional[Dict[int, Partition]] = None,
    calibration_images: Optional[np.ndarray] = None,
    rng: Optional[np.random.Generator] = None,
) -> BinarizedNetwork:
    """The single compile entry point: quantized artefacts -> runnable net.

    Parameters
    ----------
    network, thresholds:
        The re-scaled network and per-layer thresholds from Algorithm 1
        (e.g. ``model.search.network`` / ``model.search.thresholds``).
    spec:
        Engine selection; ``None`` means the default fused SEI engine.
    decisions, partitions:
        Optional calibrated §4.3 split decisions / row partitions per
        layer index (from :func:`repro.core.pipeline.build_split_network`).
    calibration_images:
        Example inputs used by engines that calibrate converter ranges
        (the ``'adc'`` engine); ignored by the SEI engines.
    rng:
        Programming-noise stream; defaults to a generator seeded by the
        spec's hardware seed, so identical specs compile to identical
        hardware.
    """
    spec = resolve_engine(spec, caller="compile_network")
    builder = engine_builder(spec.name)
    if rng is None:
        rng = np.random.default_rng(spec.hardware.seed)
    return builder(
        network,
        thresholds,
        spec,
        decisions=decisions,
        partitions=partitions,
        calibration_images=calibration_images,
        rng=rng,
    )


# -- built-in engines ------------------------------------------------------------


def _build_sei(
    network: Sequential,
    thresholds: Dict[int, float],
    spec: EngineSpec,
    *,
    decisions=None,
    partitions=None,
    calibration_images=None,
    rng=None,
) -> BinarizedNetwork:
    return assemble_sei_network(
        network,
        thresholds,
        decisions=decisions,
        partitions=partitions,
        rng=rng,
        engine=spec,
    )


def _build_adc(
    network: Sequential,
    thresholds: Dict[int, float],
    spec: EngineSpec,
    *,
    decisions=None,
    partitions=None,
    calibration_images=None,
    rng=None,
) -> BinarizedNetwork:
    if decisions or partitions:
        raise ConfigurationError(
            "the 'adc' engine merges digitised partial sums exactly and "
            "takes no split decisions/partitions"
        )
    if spec.estimator.enabled:
        raise ConfigurationError(
            "the 'adc' engine digitises full column sums and supports no "
            "runtime activation estimator; use the fused engine"
        )
    hardware = spec.hardware
    if hardware.temporal is not None and hardware.temporal.enabled:
        raise ConfigurationError(
            "the 'adc' engine calibrates its converter ranges against "
            "static cells; temporal aging requires the fused or "
            "reference engine"
        )
    return assemble_adc_network(
        network,
        thresholds=thresholds,
        tech=TechnologyModel(
            cell_bits=hardware.device.bits, weight_bits=hardware.weight_bits
        ),
        device=hardware.device,
        data_bits=spec.data_bits,
        calibration_images=calibration_images,
        rng=rng,
    )


register_engine("fused", _build_sei)
# "packed" is an alias of the fused engine, whose integral layers run the
# integer kernels on uint8 planes; specs that name it keep their digests.
register_engine("packed", _build_sei)
register_engine("reference", _build_sei, oracle=True)
register_engine("adc", _build_adc)
