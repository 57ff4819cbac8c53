"""Study definition: what to explore, how to score it, how to report it.

A :class:`Study` bundles a :class:`~repro.dse.space.ParameterSpace` with
the evaluation recipe (network, sample budget, evaluator) and the
reporting recipe (objectives, constraints, the baseline predicate for
savings comparisons).  Everything is plain data, so
:meth:`Study.digest` is deterministic and keys the resumable run store:
re-running the *same* study continues it; changing any knob produces a
different digest and a fresh store.

Built-in studies live in :data:`BUILTIN_STUDIES`.  The headline one,
``sei_vs_adc``, reproduces the paper's Table 3/Table 5 comparison as a
design-space study: both engines swept over crossbar size, cell
precision and device variation, scored for accuracy through the real
hardware engines and for energy/area through the calibrated cost model,
with the SEI-vs-baseline savings summarised per matched configuration.
``sei_vs_adc_quick`` is the 8-candidate CI smoke variant.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Any, Dict, List, Tuple

from repro import obs
from repro.errors import ConfigurationError

from repro.dse.space import GridAxis, ParameterSpace, RandomAxis

__all__ = [
    "Candidate",
    "Study",
    "BUILTIN_STUDIES",
    "available_studies",
    "get_study",
]


@dataclass(frozen=True)
class Candidate:
    """One point of a study: its ordinal, configuration and digest."""

    index: int
    config: Dict[str, Any]
    digest: str

    @classmethod
    def from_config(cls, index: int, config: Dict[str, Any]) -> "Candidate":
        return cls(index=index, config=dict(config), digest=obs.config_digest(config))


@dataclass(frozen=True)
class Study:
    """A named, digestable design-space exploration."""

    name: str
    space: ParameterSpace
    #: Zoo network every candidate evaluates (a candidate config may
    #: override it with its own ``network`` key).
    network: str = "network2"
    #: Report objectives: ``"key"`` (minimise), ``"key:max"``.
    objectives: Tuple[str, ...] = ("energy_uj", "area_mm2", "accuracy:max")
    #: Report-time feasibility constraints over result rows.
    constraints: Tuple[str, ...] = ()
    #: Base seed: random axes, hardware programming draws.
    seed: int = 0
    #: Test samples scored per candidate.
    eval_samples: int = 256
    #: Repeated accuracy evaluations per candidate (noisy engines).
    eval_repeats: int = 1
    #: Fixed execution tile of the scoring sessions.
    tile: int = 16
    #: Evaluator registry name (see :mod:`repro.dse.evaluate`).
    evaluator: str = "hardware"
    #: Predicate selecting baseline rows for the savings comparison
    #: (matched against result rows; empty disables the comparison).
    baseline: str = "engine == 'adc'"
    #: Per-candidate wall-clock budget in seconds (0 = unlimited).
    timeout_s: float = 0.0

    def __post_init__(self) -> None:
        if not self.name:
            raise ConfigurationError("study name must be non-empty")
        if self.eval_samples < 1:
            raise ConfigurationError(
                f"eval_samples must be >= 1, got {self.eval_samples}"
            )
        if self.eval_repeats < 1:
            raise ConfigurationError(
                f"eval_repeats must be >= 1, got {self.eval_repeats}"
            )
        if self.timeout_s < 0:
            raise ConfigurationError(
                f"timeout_s must be >= 0, got {self.timeout_s}"
            )
        object.__setattr__(self, "objectives", tuple(self.objectives))
        object.__setattr__(self, "constraints", tuple(self.constraints))

    def digest(self) -> str:
        """Deterministic digest of the full study definition."""
        return obs.config_digest(self)

    def candidates(self, limit: int = 0) -> List[Candidate]:
        """The ordered candidate list (optionally truncated to ``limit``)."""
        configs = self.space.enumerate(self.seed)
        if limit:
            configs = configs[:limit]
        return [
            Candidate.from_config(index, config)
            for index, config in enumerate(configs)
        ]


# -- built-in studies --------------------------------------------------------


def _sei_vs_adc(quick: bool) -> Study:
    """The Table 3/5 comparison as a study.

    ``engine`` selects the functional model scored for accuracy
    (``fused`` = SEI, ``adc`` = the DAC+crossbar+ADC baseline); the cost
    model prices the matching structure at each (crossbar, cell_bits)
    point.  The full variant adds the device-variation knob and an
    Algorithm 1 hyper-parameter axis; the quick variant is exactly 8
    candidates over the default zoo artefact so CI reuses the model
    cache populated by earlier steps.
    """
    if quick:
        space = ParameterSpace(
            axes=(
                GridAxis("engine", ("fused", "adc")),
                GridAxis("crossbar", (512, 256)),
                GridAxis("cell_bits", (4, 8)),
            ),
            constraints=("8 % cell_bits == 0",),
        )
        return Study(
            name="sei_vs_adc_quick",
            space=space,
            network="network2",
            objectives=("energy_uj", "area_mm2", "accuracy:max"),
            eval_samples=128,
            tile=16,
        )
    space = ParameterSpace(
        axes=(
            GridAxis("engine", ("fused", "adc")),
            GridAxis("crossbar", (512, 256, 128)),
            GridAxis("cell_bits", (2, 4, 8)),
            GridAxis(
                "read_sigma",
                (0.0, 0.02),
                when="engine != 'adc'",
                default=0.0,
            ),
            GridAxis("refine_passes", (0, 1)),
        ),
        constraints=("8 % cell_bits == 0",),
    )
    return Study(
        name="sei_vs_adc",
        space=space,
        network="network2",
        objectives=("energy_uj", "area_mm2", "accuracy:max"),
        eval_samples=512,
    )


def _device_variation() -> Study:
    """Accuracy/energy under random device-variation draws (SEI only)."""
    space = ParameterSpace(
        axes=(
            GridAxis("engine", ("fused",)),
            GridAxis("crossbar", (512, 256)),
            RandomAxis("read_sigma", 0.0, 0.05),
            RandomAxis("program_sigma", 0.0, 0.3),
        ),
        samples_per_point=8,
    )
    return Study(
        name="device_variation",
        space=space,
        network="network2",
        objectives=("energy_uj", "accuracy:max"),
        baseline="",  # single-engine study: no savings comparison
        eval_samples=512,
    )


def _device_aging() -> Study:
    """Drift/retention trade-off at device level (zoo-free, instant).

    Sweeps the drift exponent and deployment age over one programmed
    array via the deterministic ``aging`` evaluator; the Pareto front
    answers "how long until a re-tune is due" per drift corner.  Every
    record carries the device-array snapshot digest, which the resume
    tests use to prove killed-and-resumed runs are byte-identical.
    """
    space = ParameterSpace(
        axes=(
            GridAxis("drift_nu", (0.0, 0.02, 0.05, 0.1)),
            GridAxis("drift_nu_sigma", (0.0, 0.5)),
            GridAxis("age", (16.0, 64.0, 256.0)),
        ),
    )
    return Study(
        name="device_aging",
        space=space,
        objectives=("drift_level_steps", "accuracy:max"),
        evaluator="aging",
        baseline="",
    )


def _activation_skip() -> Study:
    """The runtime activation estimator as an energy x accuracy x latency axis.

    Sweeps :class:`repro.core.estimate.EstimatorPolicy` on the fused
    engine over network1 (the Table 1 network whose upper layers are
    sparsest, hence most skippable): ``off`` is the baseline, ``exact``
    must keep accuracy bit-for-bit while cutting ``sei_dynamic_pj``, and
    ``threshold`` trades accuracy for deeper skipping through the
    confidence knob.  ``eval_wall_s`` joins the objectives because the
    estimator's bound bookkeeping costs real time — the Pareto front
    shows where prediction pays for itself.

    The baseline predicate names ``confidence`` so pairing ignores it:
    every threshold variant compares against the estimator-off row, not
    a same-confidence phantom.
    """
    space = ParameterSpace(
        axes=(
            GridAxis("estimator", ("off", "exact", "threshold")),
            GridAxis(
                "confidence",
                (0.95, 0.8, 0.6),
                when="estimator == 'threshold'",
                default=1.0,
            ),
        ),
    )
    return Study(
        name="activation_skip",
        space=space,
        network="network1",
        objectives=("sei_dynamic_pj", "eval_wall_s", "accuracy:max"),
        baseline="estimator == 'off' and confidence <= 1.0",
        eval_samples=256,
    )


def _synthetic_smoke() -> Study:
    """Zoo-free harness exercise: analytic objectives, instant candidates."""
    space = ParameterSpace(
        axes=(
            GridAxis("x", (0.0, 0.25, 0.5, 0.75, 1.0)),
            GridAxis("y", (0.0, 0.5, 1.0)),
        ),
    )
    return Study(
        name="synthetic_smoke",
        space=space,
        objectives=("f0", "f1"),
        evaluator="synthetic",
        baseline="",
    )


BUILTIN_STUDIES: Dict[str, Study] = {
    "sei_vs_adc": _sei_vs_adc(quick=False),
    "sei_vs_adc_quick": _sei_vs_adc(quick=True),
    "activation_skip": _activation_skip(),
    "device_variation": _device_variation(),
    "device_aging": _device_aging(),
    "synthetic_smoke": _synthetic_smoke(),
}


def available_studies() -> Tuple[str, ...]:
    """Built-in study names, sorted."""
    return tuple(sorted(BUILTIN_STUDIES))


def get_study(name: str, **overrides: Any) -> Study:
    """A built-in study, optionally with field overrides applied."""
    try:
        study = BUILTIN_STUDIES[name]
    except KeyError:
        raise ConfigurationError(
            f"unknown study {name!r}; built-in studies: "
            f"{', '.join(available_studies())}"
        ) from None
    return replace(study, **overrides) if overrides else study
