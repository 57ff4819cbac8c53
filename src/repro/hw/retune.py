"""Online re-tuning: close the loop from drift detection to re-program.

Variation-tolerant tuning ([13] in PAPER.md) is an *online* procedure:
a deployed crossbar drifts, someone notices, and the write path runs
program-and-verify again.  This module is the "someone notices" part —
a small policy engine over :class:`~repro.hw.array.DeviceArray`
health read-outs that decides when an array has degraded past its
threshold and drives :func:`repro.hw.tuning.tune_cells` back toward the
originally programmed targets.

:class:`~repro.serve.session.InferenceSession` consults this module on
its self-check cadence; everything it does is mirrored into the obs
plane (``hw/retune/*`` counters, ``hw/drift/*`` gauges) so the live
telemetry and SLO machinery from the serving stack see drift building
up and retunes firing.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional

import numpy as np

from repro import obs
from repro.errors import ConfigurationError
from repro.hw.array import ArrayHealth, DeviceArray
from repro.hw.tuning import tune_cells

__all__ = [
    "RetunePolicy",
    "RetuneEvent",
    "RetuneReport",
    "array_needs_retune",
    "retune_array",
    "check_and_retune",
]


@dataclass(frozen=True)
class RetunePolicy:
    """When and how to re-tune an aging device array.

    Parameters
    ----------
    check_every:
        Self-check cadence, in inference batches, used by the serving
        layer (the policy itself is cadence-agnostic).
    drift_threshold:
        Mean conductance deviation, in device level steps, past which
        an array is re-tuned.  The default of a quarter level step is
        half the program-and-verify acceptance window of
        :func:`~repro.hw.tuning.tune_cells` — re-tune before the drift
        is large enough to flip a quantized level.
    mode:
        ``"tune"`` runs the closed-loop program-and-verify of [13];
        ``"program"`` issues a single open-loop re-program (cheaper,
        but leaves the open-loop placement error in place).
    tolerance / max_iterations:
        Forwarded to :func:`~repro.hw.tuning.tune_cells` in ``"tune"``
        mode.
    """

    check_every: int = 8
    drift_threshold: float = 0.25
    mode: str = "tune"
    tolerance: float = 0.5
    max_iterations: int = 20

    def __post_init__(self) -> None:
        if self.check_every < 1:
            raise ConfigurationError(
                f"check_every must be >= 1, got {self.check_every}"
            )
        if self.drift_threshold <= 0:
            raise ConfigurationError(
                f"drift_threshold must be positive, got "
                f"{self.drift_threshold}"
            )
        if self.mode not in ("tune", "program"):
            raise ConfigurationError(
                f"unknown retune mode {self.mode!r}; expected 'tune' or "
                f"'program'"
            )


@dataclass(frozen=True)
class RetuneEvent:
    """One re-tune of one device array."""

    #: Which array (the serving layer keys arrays by layer name).
    name: str
    #: Drift magnitude (mean level steps) that triggered the retune.
    drift_level_steps: float
    #: Array age at trigger time.
    age: float
    #: Read events since the previous program epoch.
    reads_since_program: int
    #: Program-and-verify iterations spent (0 in ``"program"`` mode).
    iterations: float
    #: Fraction of cells placed within tolerance (1.0 in program mode).
    yield_fraction: float

    def as_dict(self) -> Dict[str, float]:
        return {
            "name": self.name,
            "drift_level_steps": self.drift_level_steps,
            "age": self.age,
            "reads_since_program": self.reads_since_program,
            "iterations": self.iterations,
            "yield_fraction": self.yield_fraction,
        }


@dataclass
class RetuneReport:
    """Outcome of one check-and-retune pass over a set of arrays."""

    #: Health of every checked array, keyed by name.
    checked: Dict[str, ArrayHealth] = field(default_factory=dict)
    #: Retunes actually performed this pass.
    events: List[RetuneEvent] = field(default_factory=list)

    @property
    def retuned(self) -> bool:
        return bool(self.events)

    @property
    def worst_drift(self) -> float:
        if not self.checked:
            return 0.0
        return max(h.drift_level_steps for h in self.checked.values())

    def as_dict(self) -> Dict[str, object]:
        return {
            "checked": {k: h.as_dict() for k, h in self.checked.items()},
            "events": [e.as_dict() for e in self.events],
            "worst_drift": self.worst_drift,
        }


def array_needs_retune(
    array: DeviceArray, policy: RetunePolicy
) -> bool:
    """Whether an array's drift has crossed the policy threshold."""
    return array.health().drift_level_steps > policy.drift_threshold


def retune_array(
    array: DeviceArray,
    policy: RetunePolicy,
    rng: Optional[np.random.Generator] = None,
    name: str = "array",
) -> RetuneEvent:
    """Re-tune one array back toward its originally programmed targets.

    In ``"tune"`` mode the closed-loop program-and-verify of [13] runs
    against the array's device model and the converged conductances are
    installed via :meth:`~repro.hw.array.DeviceArray.
    apply_conductance` — a fresh program epoch: the aging clock and
    read counter reset, and the per-cell drift exponents are redrawn.
    In ``"program"`` mode a single open-loop re-program is issued
    instead.
    """
    targets = array.targets
    if targets is None:
        raise ConfigurationError(
            f"array {name!r} has no recorded targets; it was never "
            "programmed through the array interface"
        )
    health = array.health()
    rng = rng if rng is not None else np.random.default_rng()
    if policy.mode == "tune":
        result = tune_cells(
            array.device,
            targets,
            tolerance=policy.tolerance,
            max_iterations=policy.max_iterations,
            rng=rng,
        )
        array.apply_conductance(
            result.conductance,
            targets=targets,
            pulses=int(result.iterations.sum()),
        )
        event = RetuneEvent(
            name=name,
            drift_level_steps=health.drift_level_steps,
            age=health.age,
            reads_since_program=health.reads_since_program,
            iterations=result.mean_iterations,
            yield_fraction=result.yield_fraction,
        )
    else:
        array.program(targets, rng)
        event = RetuneEvent(
            name=name,
            drift_level_steps=health.drift_level_steps,
            age=health.age,
            reads_since_program=health.reads_since_program,
            iterations=1.0,
            yield_fraction=1.0,
        )
    obs.count("hw/retune/events")
    obs.count("hw/retune/pulses", max(int(event.iterations), 1))
    obs.set_gauge(f"hw/retune/{name}/last_drift", event.drift_level_steps)
    return event


def check_and_retune(
    arrays: Mapping[str, DeviceArray],
    policy: RetunePolicy,
    rng: Optional[np.random.Generator] = None,
) -> RetuneReport:
    """Health-check every array; re-tune the ones past the threshold.

    Static (non-temporal) arrays are health-checked but never drift, so
    they never trigger.  Gauges ``hw/drift/<name>`` and
    ``hw/reads/<name>`` are refreshed for every checked array.
    """
    report = RetuneReport()
    for name, array in arrays.items():
        health = array.health()
        report.checked[name] = health
        obs.set_gauge(f"hw/drift/{name}", health.drift_level_steps)
        obs.set_gauge(f"hw/reads/{name}", float(health.reads_since_program))
        if health.drift_level_steps > policy.drift_threshold:
            report.events.append(
                retune_array(array, policy, rng=rng, name=name)
            )
    if report.checked:
        obs.set_gauge("hw/drift/worst", report.worst_drift)
    return report
