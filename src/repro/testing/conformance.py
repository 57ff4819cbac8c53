"""Conformance orchestration: the engine behind ``repro-cli conformance``.

One call — :func:`run_conformance` — strings the harness together:

1. generate (or accept) a batch of :class:`ConformanceCase`\\ s and run
   every one through the :class:`DifferentialRunner` against the oracle;
2. verify the golden regression corpus (``tests/golden/``), or refresh
   it when ``update_golden`` is set;
3. self-check the harness by injecting a deliberate stuck-at fault and
   demanding a minimized counterexample back;
4. optionally sweep the full fault-injection campaign (nightly CI).

Counterexample artifacts (``.json`` + ``.npz`` pairs) land in
``artifacts_dir`` for CI upload.  The report aggregates everything the
CLI prints and the CI job gates on.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro import obs
from repro.errors import ConfigurationError, ConformanceError
from repro.testing.differential import (
    CaseResult,
    Counterexample,
    DifferentialRunner,
    case_engine_spec,
)
from repro.testing.faults import (
    CampaignConfig,
    CampaignResult,
    FaultSpec,
    inject_and_detect,
    run_campaign,
)
from repro.testing.generators import (
    DEFAULT_ENGINES,
    ConformanceCase,
    build_case,
    generate_cases,
    iter_zoo_shaped_cases,
)
from repro.testing.golden import (
    GoldenReport,
    default_golden_dir,
    refresh_corpus,
    verify_corpus,
)

__all__ = [
    "ConformanceConfig",
    "ConformanceReport",
    "SkipExactResult",
    "run_conformance",
    "run_skip_exact",
]

#: Engines the runtime activation estimator plugs into — the only ones
#: the ``skip_exact`` oracle pass can (and must) cover.  (``packed`` is
#: an alias of ``fused``: the same builder.)
ESTIMATOR_ENGINES = ("fused",)

logger = obs.get_logger("testing")


@dataclass(frozen=True)
class ConformanceConfig:
    """What one conformance run covers."""

    #: How many generated cases to sweep (the coverage grid first, then
    #: seeded samples).  The ``--quick`` smoke uses the default 20.
    cases: int = 20
    seed: int = 0
    engines: Tuple[str, ...] = DEFAULT_ENGINES
    #: Golden corpus directory; ``None`` resolves ``tests/golden``.
    golden_dir: Optional[Path] = None
    #: Rewrite the corpus from the canonical zoo-shaped cases instead of
    #: verifying it (the ``--update-golden`` flow).
    update_golden: bool = False
    #: Inject a deliberate stuck-at fault and require its detection (the
    #: harness self-check; acceptance gate for the smoke run).
    self_check: bool = True
    #: Where counterexample artifacts are written (``None`` disables).
    artifacts_dir: Optional[Path] = None
    #: Run the full degradation campaign (nightly; slow).
    campaign: bool = False
    campaign_config: Optional[CampaignConfig] = None
    #: Explicit case list overriding the generator (for reruns).
    explicit_cases: Optional[Sequence[ConformanceCase]] = None
    #: ``"exact"`` adds the ``skip_exact`` oracle pass: the fused engine
    #: with the exact runtime activation estimator must stay
    #: bit-identical to its estimator-off self on the zoo-shaped
    #: (golden) cases.
    estimator: str = "off"

    def __post_init__(self) -> None:
        if self.estimator not in ("off", "exact"):
            raise ConfigurationError(
                "ConformanceConfig estimator must be 'off' or 'exact', "
                f"got {self.estimator!r}"
            )
        if self.estimator == "exact" and not (
            set(ESTIMATOR_ENGINES) & set(self.engines)
        ):
            raise ConfigurationError(
                f"estimator='exact' checks {', '.join(ESTIMATOR_ENGINES)}; "
                f"none is among the engines {list(self.engines)}"
            )


@dataclass
class SkipExactResult:
    """One case x engine verdict from the ``skip_exact`` oracle pass.

    The exact runtime activation estimator
    (:class:`repro.core.estimate.EstimatorPolicy` ``mode='exact'``)
    promises *bit-identical* outputs to the estimator-off engine: every
    early decision it takes is exact integer arithmetic against
    certified firing tables, and anything it cannot prove falls back to
    the off arithmetic.  This pass holds it to that promise — no
    tolerance, ``array_equal`` or bust.
    """

    case_name: str
    engine: str
    identical: bool
    mismatched_samples: int = 0
    max_abs_diff: float = 0.0

    def describe(self) -> str:
        if self.identical:
            return f"{self.case_name}/{self.engine}: bit-identical"
        return (
            f"{self.case_name}/{self.engine}: exact estimator diverged "
            f"from estimator-off on {self.mismatched_samples} sample(s), "
            f"max |diff| {self.max_abs_diff:.3e}"
        )

    def as_dict(self) -> Dict[str, object]:
        return {
            "case": self.case_name,
            "engine": self.engine,
            "identical": self.identical,
            "mismatched_samples": self.mismatched_samples,
            "max_abs_diff": self.max_abs_diff,
        }


def run_skip_exact(
    cases: Sequence[ConformanceCase],
    engines: Sequence[str] = ESTIMATOR_ENGINES,
    runner: Optional[DifferentialRunner] = None,
) -> List[SkipExactResult]:
    """Assert estimator-exact sessions match estimator-off bit-for-bit.

    The :class:`DifferentialRunner` compares *engines against the
    oracle*; this pass compares *one engine against itself* across the
    estimator toggle, which the runner's oracle plumbing cannot
    express.  Each case x engine pair compiles two fresh sessions from
    the same artefacts — identical specs except the estimator — and
    compares full-batch outputs with ``np.array_equal``.
    """
    from repro.core.estimate import EstimatorPolicy

    runner = runner if runner is not None else DifferentialRunner(
        minimize=False, check_invariance=False
    )
    results: List[SkipExactResult] = []
    for case in cases:
        built = build_case(case)
        for engine in engines:
            if engine not in case.engines:
                continue
            spec_off = case_engine_spec(case, engine)
            spec_exact = replace(
                spec_off, estimator=EstimatorPolicy(mode="exact")
            )
            with obs.span(
                "conformance.skip_exact", case=case.name, engine=engine
            ):
                off = runner._execute(built, spec_off, built.inputs)
                # Recorded, so the skip pass prices its counters too.
                with obs.recording():
                    exact = runner._execute(built, spec_exact, built.inputs)
            if np.array_equal(off, exact):
                results.append(SkipExactResult(case.name, engine, True))
            else:
                differs = np.any(off != exact, axis=-1)
                results.append(
                    SkipExactResult(
                        case.name,
                        engine,
                        False,
                        mismatched_samples=int(differs.sum()),
                        max_abs_diff=float(np.abs(off - exact).max()),
                    )
                )
            obs.count("conformance/skip_exact_pairs")
    return results


@dataclass
class ConformanceReport:
    """Everything a conformance run found."""

    config: ConformanceConfig
    case_results: List[CaseResult] = field(default_factory=list)
    golden: Optional[GoldenReport] = None
    golden_refreshed: int = 0
    #: The minimized counterexample from the deliberate-fault self-check
    #: (its *presence* is the pass condition).
    injected: Optional[Counterexample] = None
    self_check_error: Optional[str] = None
    campaigns: List[CampaignResult] = field(default_factory=list)
    skip_exact: List[SkipExactResult] = field(default_factory=list)
    artifacts: List[Path] = field(default_factory=list)

    @property
    def cases_run(self) -> int:
        return len(self.case_results)

    @property
    def mismatches(self) -> List[Counterexample]:
        return [
            ce for result in self.case_results
            for ce in result.counterexamples
        ]

    @property
    def invariance_violations(self) -> List[str]:
        return [
            f"{result.case.name}: {result.batch_invariance_violation}"
            for result in self.case_results
            if result.batch_invariance_violation
        ]

    @property
    def campaign_violations(self) -> List[str]:
        return [
            f"{campaign.case.name}: {line}"
            for campaign in self.campaigns
            for line in campaign.violations()
        ]

    @property
    def skip_exact_failures(self) -> List[SkipExactResult]:
        return [r for r in self.skip_exact if not r.identical]

    @property
    def ok(self) -> bool:
        if self.mismatches or self.invariance_violations:
            return False
        if self.golden is not None and not self.golden.ok:
            return False
        if self.config.self_check and self.self_check_error is not None:
            return False
        if self.campaign_violations:
            return False
        if self.skip_exact_failures:
            return False
        return True

    def summary_lines(self) -> List[str]:
        """Human-readable run summary (the CLI prints these)."""
        lines = [
            f"differential: {self.cases_run} cases x "
            f"{len(self.config.engines)} engines, "
            f"{len(self.mismatches)} mismatch(es), "
            f"{len(self.invariance_violations)} batch-invariance "
            "violation(s)"
        ]
        for ce in self.mismatches:
            lines.append(f"  MISMATCH {ce.describe()}")
        for line in self.invariance_violations:
            lines.append(f"  INVARIANCE {line}")
        if self.golden_refreshed:
            lines.append(f"golden: refreshed {self.golden_refreshed} entries")
        elif self.golden is not None:
            lines.append(
                f"golden: {self.golden.checked} entries checked, "
                f"{len(self.golden.stale_digests)} stale digest(s), "
                f"{len(self.golden.mismatches)} mismatch(es)"
            )
            for name in self.golden.stale_digests:
                lines.append(f"  STALE {name}")
            for line in self.golden.mismatches:
                lines.append(f"  DRIFT {line}")
        if self.config.self_check:
            if self.injected is not None:
                lines.append(
                    "self-check: injected stuck-at fault detected and "
                    f"minimized ({self.injected.describe()})"
                )
            else:
                lines.append(
                    f"self-check: FAILED — {self.self_check_error}"
                )
        for campaign in self.campaigns:
            status = "ok" if campaign.ok else "VIOLATED"
            lines.append(
                f"campaign {campaign.case.name}: "
                f"{len(campaign.curves)} sweep(s), {status}"
            )
        for line in self.campaign_violations:
            lines.append(f"  CAMPAIGN {line}")
        if self.skip_exact:
            lines.append(
                f"skip_exact: {len(self.skip_exact)} case x engine "
                f"pair(s), {len(self.skip_exact_failures)} divergence(s)"
            )
            for result in self.skip_exact_failures:
                lines.append(f"  SKIP-EXACT {result.describe()}")
        if self.artifacts:
            lines.append(
                f"artifacts: {len(self.artifacts)} file(s) under "
                f"{self.artifacts[0].parent}"
            )
        lines.append("conformance: " + ("PASS" if self.ok else "FAIL"))
        return lines

    def as_dict(self) -> Dict[str, object]:
        return {
            "cases_run": self.cases_run,
            "engines": list(self.config.engines),
            "mismatches": [ce.as_dict() for ce in self.mismatches],
            "invariance_violations": list(self.invariance_violations),
            "golden": self.golden.as_dict() if self.golden else None,
            "golden_refreshed": self.golden_refreshed,
            "self_check": {
                "enabled": self.config.self_check,
                "detected": self.injected is not None,
                "error": self.self_check_error,
                "counterexample": (
                    self.injected.as_dict() if self.injected else None
                ),
            },
            "campaigns": [c.as_dict() for c in self.campaigns],
            "skip_exact": [r.as_dict() for r in self.skip_exact],
            "artifacts": [str(p) for p in self.artifacts],
            "ok": self.ok,
        }


def _save_counterexamples(
    report: ConformanceReport, directory: Path
) -> None:
    directory = Path(directory)
    examples = list(report.mismatches)
    if report.injected is not None:
        examples.append(report.injected)
    for ce in examples:
        report.artifacts.extend(ce.save(directory))


def _save_campaigns(report: ConformanceReport, directory: Path) -> None:
    """One JSON artifact per campaign: curves, violations and the
    device-array snapshot digests pinning the aged cell state."""
    import json

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for campaign in report.campaigns:
        path = directory / f"campaign_{campaign.case.name}.json"
        path.write_text(json.dumps(campaign.as_dict(), indent=2))
        report.artifacts.append(path)


def run_conformance(
    config: Optional[ConformanceConfig] = None,
) -> ConformanceReport:
    """Run the full conformance flow described in the module docstring."""
    config = config if config is not None else ConformanceConfig()
    runner = DifferentialRunner()
    report = ConformanceReport(config=config)

    if config.explicit_cases is not None:
        cases = list(config.explicit_cases)
    else:
        cases = generate_cases(
            count=config.cases, seed=config.seed, engines=config.engines
        )

    with obs.span("conformance.full", cases=len(cases)):
        for result in runner.run(cases):
            report.case_results.append(result)
            if not result.ok:
                logger.warning(
                    "case %s failed conformance", result.case.name
                )

        golden_dir = (
            Path(config.golden_dir)
            if config.golden_dir is not None
            else default_golden_dir()
        )
        if config.update_golden:
            entries = refresh_corpus(golden_dir, runner=DifferentialRunner(
                minimize=False, check_invariance=False
            ))
            report.golden_refreshed = len(entries)
        else:
            report.golden = verify_corpus(golden_dir)

        if config.estimator == "exact":
            report.skip_exact = run_skip_exact(
                list(iter_zoo_shaped_cases()),
                engines=tuple(
                    e for e in ESTIMATOR_ENGINES if e in config.engines
                ),
                runner=DifferentialRunner(
                    minimize=False, check_invariance=False
                ),
            )

        if config.self_check:
            probe = next(iter_zoo_shaped_cases(engines=("fused",)))
            try:
                report.injected = inject_and_detect(
                    probe, FaultSpec("stuck_low", 0.08), runner=runner
                )
            except ConformanceError as exc:
                report.self_check_error = str(exc)

        if config.campaign:
            campaign_cases = [
                case for case in iter_zoo_shaped_cases()
                if case.deterministic
            ]
            for case in campaign_cases:
                report.campaigns.append(
                    run_campaign(case, config.campaign_config)
                )

    if config.artifacts_dir is not None and (
        report.mismatches or report.injected is not None
    ):
        _save_counterexamples(report, config.artifacts_dir)
    if config.artifacts_dir is not None and report.campaigns:
        _save_campaigns(report, config.artifacts_dir)

    obs.set_gauge("conformance/ok", 1 if report.ok else 0)
    return report
