"""Fault-injection campaigns and deliberate-fault detection.

Two complementary jobs:

* :func:`inject_and_detect` — the harness's *self-check*: compile a
  candidate engine with a deliberately faulty device (stuck-at cells,
  programming variation, read noise) against the clean oracle and
  verify the differential runner actually catches the divergence and
  reports a minimized counterexample.  A conformance harness that
  cannot detect a fault it injected itself proves nothing about the
  faults it did not inject (Kim et al., arXiv:1811.02187, on silent
  sense-amp divergence in binarized crossbars).

* :func:`run_campaign` — degradation sweeps: reuse the
  :mod:`repro.analysis.robustness` Monte-Carlo knobs (programming /
  read / stuck-at via :class:`repro.hw.RRAMDevice`, sense-amp jitter
  and systematic offset) over a case network and assert the error
  curves are *monotone within tolerance* and *bounded* — the shape the
  paper's §6 "non-ideal factors" flow expects.  Campaign metrics are
  recorded through :mod:`repro.obs` so a traced run carries the curves.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Dict, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.analysis.robustness import (
    NoiseSweepResult,
    sei_variation_sweep,
    sense_amp_noise_sweep,
    sense_amp_offset_sweep,
)
from repro.errors import ConfigurationError, ConformanceError
from repro.hw.array import TemporalConfig
from repro.hw.tuning import stuck_cell_map
from repro.testing.differential import (
    Counterexample,
    DifferentialRunner,
    case_engine_spec,
)
from repro.testing.generators import (
    BuiltCase,
    ConformanceCase,
    build_case,
    binarized_oracle,
)

__all__ = [
    "FaultSpec",
    "CampaignConfig",
    "CampaignResult",
    "estimator_confidence_sweep",
    "inject_and_detect",
    "run_campaign",
    "temporal_aging_sweep",
]

logger = obs.get_logger("testing")

#: Fault kinds understood by :class:`FaultSpec`.
FAULT_KINDS = (
    "program", "read", "stuck_low", "stuck_high", "sa_noise", "sa_offset",
    "drift", "retention", "read_disturb", "estimator",
)

#: Temporal aging kinds — swept through device-array time evolution
#: (:func:`temporal_aging_sweep`) rather than the device recipe.
AGING_KINDS = ("drift", "retention", "read_disturb")

#: Map from fault kind to the ConformanceCase field it perturbs (device
#: faults only; the sense-amp kinds live in the sweep functions).
_DEVICE_FIELDS = {
    "program": "program_sigma",
    "read": "read_sigma",
    "stuck_low": "stuck_low_rate",
    "stuck_high": "stuck_high_rate",
}


@dataclass(frozen=True)
class FaultSpec:
    """One deliberate fault: which knob, how hard."""

    kind: str = "stuck_low"
    level: float = 0.05

    def __post_init__(self) -> None:
        if self.kind not in FAULT_KINDS:
            raise ConfigurationError(
                f"fault kind must be one of {', '.join(FAULT_KINDS)}, got "
                f"{self.kind!r}"
            )
        if self.level < 0:
            raise ConfigurationError(
                f"fault level must be >= 0, got {self.level}"
            )

    def apply_to_case(self, case: ConformanceCase) -> ConformanceCase:
        """The case re-described with this fault on its device recipe."""
        if self.kind not in _DEVICE_FIELDS:
            raise ConfigurationError(
                f"fault kind {self.kind!r} is not a device-recipe fault; "
                "it sweeps through run_campaign, not through the recipe"
            )
        return replace(case, **{_DEVICE_FIELDS[self.kind]: self.level})


def inject_and_detect(
    case: ConformanceCase,
    fault: Optional[FaultSpec] = None,
    runner: Optional[DifferentialRunner] = None,
    candidate: str = "fused",
) -> Counterexample:
    """Compile ``candidate`` with ``fault`` injected; expect detection.

    The candidate engine is compiled with the faulty device while the
    oracle keeps the clean one, so every output divergence is the
    injected fault propagating through the arithmetic.  Returns the
    minimized counterexample the runner produced; raises
    :class:`ConformanceError` if the fault went *undetected* — the
    harness's own alarm wiring is broken in that situation.
    """
    fault = fault if fault is not None else FaultSpec("stuck_low", 0.08)
    runner = runner if runner is not None else DifferentialRunner()
    faulty_case = fault.apply_to_case(case)
    faulty_spec = case_engine_spec(faulty_case, candidate)
    with obs.span(
        "conformance.inject", case=case.name, kind=fault.kind,
        level=fault.level,
    ):
        result = runner.run_case(
            replace(case, engines=(candidate, runner.oracle)),
            candidate_specs={candidate: faulty_spec},
        )
    obs.count("conformance/faults_injected")
    matching = [
        ce for ce in result.counterexamples if ce.engine == candidate
    ]
    if not matching:
        raise ConformanceError(
            f"injected {fault.kind} fault at level {fault.level} into "
            f"engine {candidate!r} on case {case.name!r} but the "
            "differential runner detected no mismatch — the oracle is "
            "not sensitive enough or the device model dropped the fault"
        )
    obs.count("conformance/faults_detected")
    counterexample = matching[0]
    logger.info("injected fault detected: %s", counterexample.describe())
    return counterexample


def _aging_temporal_config(
    kind: str, level: float, seed: int
) -> Optional[TemporalConfig]:
    """The :class:`TemporalConfig` realising one aging level.

    ``level`` is always oriented so *larger is worse*: the drift
    exponent for ``"drift"``, the retention decay *rate* (``1 / tau``)
    for ``"retention"`` and the per-read disturb rate for
    ``"read_disturb"``.  Level 0 returns None — static arrays, the
    clean baseline.

    Drift carries per-cell exponent dispersion (lognormal ``sigma``):
    without it every cell would decay by the same factor, a uniform
    rescale an argmax readout cannot see.  Retention and read disturb
    are uniform mechanisms by construction — their degradation shows
    through *thresholded* hidden layers, so sweep them on cases with
    at least two conv layers.
    """
    if level <= 0:
        return None
    if kind == "drift":
        return TemporalConfig(drift_nu=level, drift_nu_sigma=0.5, seed=seed)
    if kind == "retention":
        return TemporalConfig(retention_tau=1.0 / level, seed=seed)
    return TemporalConfig(read_disturb_rate=level, seed=seed)


def temporal_aging_sweep(
    network,
    thresholds: Dict[int, float],
    images: np.ndarray,
    labels: np.ndarray,
    levels: Sequence[float] = (0.0, 0.02, 0.05, 0.1),
    trials: int = 3,
    kind: str = "drift",
    device_bits: int = 4,
    seed: int = 0,
    age: float = 64.0,
) -> Tuple[NoiseSweepResult, str]:
    """Error vs device *age* for one aging mechanism.

    The temporal sibling of :func:`repro.analysis.robustness.
    sei_variation_sweep`: hidden layers run on aging
    :class:`~repro.hw.array.DeviceArray` cells, a burn-in
    pass accrues the read history, the device clock advances by
    ``age`` time units, and the *aged* hardware is scored.  Returns the
    degradation curve plus the snapshot digest of the worst-level
    hardware's first array — the campaign artifact that pins the exact
    aged cell state a report was produced from.
    """
    if kind not in AGING_KINDS:
        raise ConfigurationError(
            f"kind must be one of {', '.join(AGING_KINDS)}, got {kind!r}"
        )
    if trials < 1:
        raise ConfigurationError(f"trials must be >= 1, got {trials}")
    from repro.core.binarized import BinarizedNetwork
    from repro.core.sei import sei_layer_compute
    from repro.hw.device import RRAMDevice
    from repro.nn.layers import Conv2D, Dense

    indices = [
        i
        for i, layer in enumerate(network.layers)
        if isinstance(layer, (Conv2D, Dense))
    ][1:]  # the DAC-driven input layer keeps exact software math (§3.2)
    errors: List[List[float]] = []
    digest = ""
    for level in levels:
        level_errors = []
        for trial in range(trials):
            rng = np.random.default_rng(seed * 1000 + trial)
            device = RRAMDevice(bits=device_bits)
            temporal = _aging_temporal_config(kind, level, seed + trial)
            binarized = BinarizedNetwork(network, dict(thresholds))
            computes = []
            for index in indices:
                compute = sei_layer_compute(
                    network.layers[index],
                    device=device,
                    max_crossbar_size=1 << 20,
                    rng=rng,
                    temporal=temporal,
                )
                binarized.layer_computes[index] = compute
                computes.append(compute)
            # Burn in (accrues the read history read-disturb keys on),
            # then advance the device clock and score the aged hardware.
            binarized.predict(images)
            for compute in computes:
                compute.array.advance(age)
            level_errors.append(binarized.error_rate(images, labels))
            if computes:
                digest = computes[0].array.snapshot().digest()
        errors.append(level_errors)
    arr = np.asarray(errors)
    result = NoiseSweepResult(
        knob=kind,
        levels=list(levels),
        mean_error=arr.mean(axis=1).tolist(),
        std_error=arr.std(axis=1).tolist(),
        worst_error=arr.max(axis=1).tolist(),
        trials=trials,
    )
    return result, digest


def estimator_confidence_sweep(
    case: ConformanceCase,
    levels: Sequence[float] = (0.0, 0.1, 0.3, 0.5),
    engine: str = "fused",
    runner: Optional[DifferentialRunner] = None,
) -> NoiseSweepResult:
    """Decision disagreement vs the estimator-off engine as confidence drops.

    Sweeps the ``threshold`` runtime activation estimator
    (:class:`repro.core.estimate.EstimatorPolicy`) on ``engine`` (the
    fused engine or its ``packed`` alias) and measures the fraction of
    samples whose *classification decisions* depart from the same
    engine running estimator-free.  ``levels`` are oriented
    larger-is-worse like every campaign knob: a level ``l``
    sweeps ``confidence = 1 - l``, and level ``0.0`` is the clean
    baseline (estimator off, disagreement identically zero).  The
    campaign asserts the resulting curve is monotone within tolerance
    and bounded — the CompRRAE-style deal the ``threshold`` mode offers
    is *graceful* accuracy-for-energy, not a cliff.
    """
    for level in levels:
        if not 0.0 <= level < 1.0:
            raise ConfigurationError(
                "estimator sweep levels are 1 - confidence and must lie "
                f"in [0, 1), got {level}"
            )
    from repro.core.estimate import EstimatorPolicy

    runner = runner if runner is not None else DifferentialRunner(
        minimize=False, check_invariance=False
    )
    built = build_case(case)
    spec_off = case_engine_spec(case, engine)
    base = runner._execute(built, spec_off, built.inputs)
    base_decisions = np.argmax(base, axis=-1)
    disagreement: List[float] = []
    for level in levels:
        if level <= 0.0:
            disagreement.append(0.0)
            continue
        spec = replace(
            spec_off,
            estimator=EstimatorPolicy(
                mode="threshold", confidence=1.0 - level
            ),
        )
        out = runner._execute(built, spec, built.inputs)
        disagreement.append(
            float((np.argmax(out, axis=-1) != base_decisions).mean())
        )
    return NoiseSweepResult(
        knob="estimator",
        levels=list(levels),
        mean_error=list(disagreement),
        std_error=[0.0] * len(disagreement),
        worst_error=list(disagreement),
        trials=1,
    )


@dataclass(frozen=True)
class CampaignConfig:
    """One degradation campaign: which knobs, how far, what is tolerable."""

    #: Sweep levels per fault kind (first level should be the clean 0.0
    #: baseline so boundedness is measured as *loss*, not absolute error).
    sweeps: Mapping[str, Tuple[float, ...]] = field(
        default_factory=lambda: {
            "program": (0.0, 0.1, 0.3, 0.6),
            "read": (0.0, 0.05, 0.15),
            "stuck_low": (0.0, 0.02, 0.08),
            "sa_noise": (0.0, 0.05, 0.15),
            "sa_offset": (0.0, 0.05, 0.15),
            "drift": (0.0, 0.05, 0.2),
            "estimator": (0.0, 0.1, 0.3, 0.5),
        }
    )
    trials: int = 3
    seed: int = 0
    #: Device age (time units) aging sweeps advance the clock by.
    aging_time: float = 64.0
    #: Mean error at any level may exceed the clean baseline by at most
    #: this much (absolute error-rate points).
    max_accuracy_loss: float = 0.75
    #: Monotonicity slack: mean error may dip below a *milder* level's
    #: by at most this much (Monte-Carlo jitter allowance).
    monotone_tolerance: float = 0.08

    def __post_init__(self) -> None:
        for kind in self.sweeps:
            if kind not in FAULT_KINDS:
                raise ConfigurationError(
                    f"unknown campaign sweep kind {kind!r}; valid kinds: "
                    f"{', '.join(FAULT_KINDS)}"
                )
        if self.trials < 1:
            raise ConfigurationError(
                f"trials must be >= 1, got {self.trials}"
            )


@dataclass
class CampaignResult:
    """Degradation curves for one case, plus the assertions over them."""

    case: ConformanceCase
    config: CampaignConfig
    #: One sweep result per fault kind.
    curves: Dict[str, NoiseSweepResult]
    #: Exact-software test error on the campaign's labelled set.
    baseline_error: float
    #: Expected stuck-cell density at the stuck sweeps' worst levels
    #: (sanity anchor from :func:`repro.hw.tuning.stuck_cell_map`).
    expected_stuck_fraction: float = 0.0
    #: Device-array snapshot digest per aging sweep (worst level) —
    #: pins the exact aged cell state the curve was scored on.
    snapshot_digests: Dict[str, str] = field(default_factory=dict)

    def violations(self) -> List[str]:
        """Every monotonicity / boundedness violation, human-readable."""
        found: List[str] = []
        for kind, curve in self.curves.items():
            errors = curve.mean_error
            clean = errors[0]
            for i in range(1, len(errors)):
                if errors[i] < errors[i - 1] - self.config.monotone_tolerance:
                    found.append(
                        f"{kind}: error NOT monotone — level "
                        f"{curve.levels[i]} mean {errors[i]:.3f} undercuts "
                        f"level {curve.levels[i - 1]} mean "
                        f"{errors[i - 1]:.3f} by more than "
                        f"{self.config.monotone_tolerance}"
                    )
                loss = errors[i] - clean
                if loss > self.config.max_accuracy_loss:
                    found.append(
                        f"{kind}: unbounded degradation — level "
                        f"{curve.levels[i]} loses {loss:.3f} over the "
                        f"clean baseline (cap "
                        f"{self.config.max_accuracy_loss})"
                    )
        return found

    @property
    def ok(self) -> bool:
        return not self.violations()

    def assert_degradation(self) -> None:
        """Raise :class:`ConformanceError` on any curve violation."""
        violations = self.violations()
        if violations:
            raise ConformanceError(
                "fault campaign failed:\n  " + "\n  ".join(violations)
            )

    def as_dict(self) -> Dict[str, object]:
        return {
            "case": self.case.as_dict(),
            "baseline_error": self.baseline_error,
            "expected_stuck_fraction": self.expected_stuck_fraction,
            "curves": {
                kind: {
                    "levels": curve.levels,
                    "mean_error": curve.mean_error,
                    "std_error": curve.std_error,
                    "worst_error": curve.worst_error,
                    "trials": curve.trials,
                }
                for kind, curve in self.curves.items()
            },
            "snapshot_digests": dict(self.snapshot_digests),
            "violations": self.violations(),
            "ok": self.ok,
        }


def _campaign_labels(built: BuiltCase) -> np.ndarray:
    """Labels for a case's inputs: the exact-software network's answers.

    Case networks are untrained, so ground truth is *self-consistency*:
    the clean binarized network's predictions.  Degradation curves then
    measure exactly how far faults push the hardware from the clean
    function — the quantity the campaign bounds.
    """
    oracle = binarized_oracle(built)
    return np.argmax(oracle.predict(built.inputs), axis=-1)


def run_campaign(
    case: ConformanceCase,
    config: Optional[CampaignConfig] = None,
) -> CampaignResult:
    """Sweep every configured fault knob over one case's network."""
    config = config if config is not None else CampaignConfig()
    built = build_case(case)
    labels = _campaign_labels(built)
    oracle = binarized_oracle(built)
    baseline = oracle.error_rate(built.inputs, labels)

    curves: Dict[str, NoiseSweepResult] = {}
    snapshot_digests: Dict[str, str] = {}
    with obs.span("conformance.campaign", case=case.name):
        for kind, levels in sorted(config.sweeps.items()):
            with obs.span("conformance.sweep", kind=kind):
                if kind in AGING_KINDS:
                    curve, digest = temporal_aging_sweep(
                        built.network, built.thresholds,
                        built.inputs, labels,
                        levels=levels, trials=config.trials, kind=kind,
                        device_bits=case.device_bits, seed=config.seed,
                        age=config.aging_time,
                    )
                    snapshot_digests[kind] = digest
                elif kind == "estimator":
                    curve = estimator_confidence_sweep(case, levels=levels)
                elif kind in _DEVICE_FIELDS:
                    curve = sei_variation_sweep(
                        built.network, built.thresholds,
                        built.inputs, labels,
                        sigmas=levels, trials=config.trials, kind=kind,
                        device_bits=case.device_bits, seed=config.seed,
                    )
                elif kind == "sa_noise":
                    curve = sense_amp_noise_sweep(
                        built.network, built.thresholds,
                        built.inputs, labels,
                        sigmas=levels, trials=config.trials,
                        seed=config.seed,
                    )
                else:  # sa_offset
                    curve = sense_amp_offset_sweep(
                        built.network, built.thresholds,
                        built.inputs, labels,
                        offsets=levels, trials=config.trials,
                        seed=config.seed,
                    )
            curves[kind] = curve
            obs.observe(
                f"conformance/campaign/{kind}_error",
                np.asarray(curve.mean_error),
            )
            obs.count("conformance/sweeps")

    expected_stuck = 0.0
    stuck_rates = {
        _DEVICE_FIELDS[kind]: max(config.sweeps[kind])
        for kind in ("stuck_low", "stuck_high")
        if config.sweeps.get(kind)
    }
    if stuck_rates:
        from repro.hw.device import RRAMDevice

        device = RRAMDevice(bits=case.device_bits, **stuck_rates)
        mask = stuck_cell_map(
            device, (64, 64), np.random.default_rng(config.seed)
        )
        expected_stuck = float(mask.any(axis=0).mean())

    result = CampaignResult(
        case=case,
        config=config,
        curves=curves,
        baseline_error=float(baseline),
        expected_stuck_fraction=expected_stuck,
        snapshot_digests=snapshot_digests,
    )
    for line in result.violations():
        logger.warning("campaign violation: %s", line)
    return result
