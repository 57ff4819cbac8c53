"""Unit and integration tests for the conformance harness itself.

The harness is test infrastructure, so its own guarantees need pinning:
case generation must be deterministic, the differential runner must
pass clean engines and catch injected faults, the golden corpus must
round-trip and detect tampering, and the campaign assertions must fire
on the curves they claim to police.

Everything here runs on deliberately small cases (single conv, 8x8
inputs, fused+reference only) so the module stays in the fast tier;
the full three-engine sweep is the CLI smoke (``conformance --quick``).
"""

from dataclasses import replace
from types import SimpleNamespace

import numpy as np
import pytest

from repro.analysis.robustness import NoiseSweepResult
from repro.errors import ConfigurationError, ConformanceError
from repro.testing import (
    ADC_MIN_AGREEMENT,
    ADC_MIN_AGREEMENT_DEEP,
    CampaignConfig,
    CampaignResult,
    ConformanceCase,
    ConformanceConfig,
    DifferentialRunner,
    FaultSpec,
    TolerancePolicy,
    build_case,
    case_digest,
    default_policy,
    generate_cases,
    inject_and_detect,
    iter_zoo_shaped_cases,
    refresh_corpus,
    run_conformance,
    run_skip_exact,
    verify_corpus,
)

pytestmark = pytest.mark.conformance

#: The fast unit-test case: one conv, tiny input, SEI engines only.
SMALL = ConformanceCase(
    name="unit-small",
    seed=7,
    input_size=8,
    conv_channels=(3,),
    classes=4,
    batch=6,
    tile=3,
    engines=("fused", "reference"),
)


def _fast_runner(**overrides):
    defaults = dict(minimize=False, check_invariance=False)
    defaults.update(overrides)
    return DifferentialRunner(**defaults)


class TestGenerators:
    def test_generate_cases_deterministic(self):
        first = generate_cases(count=18, seed=3)
        second = generate_cases(count=18, seed=3)
        assert first == second
        assert [case_digest(c) for c in first] == [
            case_digest(c) for c in second
        ]

    def test_generate_cases_seed_changes_sampled_tail(self):
        a = generate_cases(count=5, seed=0)
        b = generate_cases(count=5, seed=1)
        assert [c.seed for c in a] != [c.seed for c in b]

    def test_case_digest_tracks_config(self):
        assert case_digest(SMALL) == case_digest(replace(SMALL))
        assert case_digest(SMALL) != case_digest(
            replace(SMALL, threshold_quantile=0.6)
        )

    def test_case_dict_roundtrip(self):
        assert ConformanceCase.from_dict(SMALL.as_dict()) == SMALL

    def test_case_validation(self):
        with pytest.raises(ConfigurationError):
            ConformanceCase(name="bad", input_size=2, kernel=3)
        with pytest.raises(ConfigurationError):
            ConformanceCase(name="bad", threshold_quantile=1.0)
        with pytest.raises(ConfigurationError):
            ConformanceCase(name="bad", conv_channels=())

    def test_build_case_reproducible(self):
        a = build_case(SMALL)
        b = build_case(SMALL)
        np.testing.assert_array_equal(a.inputs, b.inputs)
        assert a.thresholds == b.thresholds
        np.testing.assert_array_equal(
            a.network.layers[0].params["weight"],
            b.network.layers[0].params["weight"],
        )

    def test_zoo_shaped_network3_pins_sei_only(self):
        cases = {c.name: c for c in iter_zoo_shaped_cases()}
        assert "adc" not in cases["golden-network3-mini"].engines
        assert "adc" in cases["golden-network1-mini"].engines

    def test_packed_alias_is_the_fused_builder(self):
        from repro.core.engines import engine_builder
        from repro.testing.generators import DEFAULT_ENGINES

        # One builder under two names: the default grid runs it once.
        assert engine_builder("packed") is engine_builder("fused")
        assert "packed" not in DEFAULT_ENGINES


class TestPolicies:
    def test_mode_validation(self):
        with pytest.raises(ConfigurationError):
            TolerancePolicy(mode="fuzzy")
        with pytest.raises(ConfigurationError):
            TolerancePolicy(mode="agreement", min_agreement=0.0)

    def test_default_policy_is_case_aware(self):
        shallow = default_policy("adc", SMALL)
        deep = default_policy(
            "adc", replace(SMALL, conv_channels=(3, 4), input_size=10)
        )
        assert shallow.min_agreement == ADC_MIN_AGREEMENT
        assert deep.min_agreement == ADC_MIN_AGREEMENT_DEEP
        sei = default_policy("fused", SMALL)
        assert sei.mode == "allclose"
        assert sei.atol > 0.0

    def test_agreement_compare(self):
        policy = TolerancePolicy(mode="agreement", min_agreement=0.5)
        oracle = np.eye(4)
        candidate = oracle.copy()
        candidate[0] = candidate[0, ::-1]  # flip one decision of four
        comparison = policy.compare(candidate, oracle)
        assert comparison.ok
        assert comparison.agreement == pytest.approx(0.75)
        assert comparison.failing_indices.tolist() == [0]

    def test_shape_mismatch_raises(self):
        policy = TolerancePolicy(mode="exact")
        with pytest.raises(ConformanceError):
            policy.compare(np.zeros((2, 3)), np.zeros((2, 4)))


class TestDifferentialRunner:
    def test_clean_case_passes_with_invariance(self):
        result = DifferentialRunner().run_case(SMALL)
        assert result.ok
        assert result.oracle == "reference"
        assert result.comparisons["fused"].ok
        assert result.counterexamples == []
        assert result.batch_invariance_violation is None

    def test_clean_split_case_passes(self):
        case = replace(SMALL, name="unit-split", max_crossbar_size=24)
        result = _fast_runner().run_case(case)
        assert result.ok

    def test_packed_engine_matches_oracle(self):
        """Packed bit-plane engine holds the SEI equivalence tolerance.

        Covers both the whole-crossbar and §4.3 split paths, plus the
        stuck-at fault regime the noisy-inference speedup claim runs in
        (stuck cells stay on the nibble grid, so the integer kernel must
        remain engaged and exact).
        """
        for name, overrides in (
            ("unit-packed", {}),
            ("unit-packed-split", {"max_crossbar_size": 24}),
            (
                "unit-packed-stuck",
                {"stuck_low_rate": 0.05, "stuck_high_rate": 0.05},
            ),
            ("unit-packed-noise", {"program_sigma": 0.2}),
        ):
            case = replace(
                SMALL, name=name,
                engines=("fused", "packed", "reference"), **overrides,
            )
            result = DifferentialRunner(minimize=False).run_case(case)
            assert result.ok, [c.describe() for c in result.counterexamples]
            assert result.comparisons["packed"].ok

    def test_policy_override_wins(self):
        runner = _fast_runner(
            policies={"fused": TolerancePolicy(mode="agreement",
                                               min_agreement=0.5)}
        )
        assert runner.policy_for("fused", SMALL).mode == "agreement"
        assert runner.policy_for("adc", SMALL).mode == "agreement"


class TestSkipExact:
    """Exact estimator = estimator-off, bit for bit."""

    #: Two convs, the second split: an estimated split layer.
    CASE = replace(
        SMALL, name="unit-skip", conv_channels=(3, 4), max_crossbar_size=24,
        engines=("fused",),
    )

    def test_integral_case_matches_estimator_off(self):
        results = run_skip_exact([self.CASE], runner=_fast_runner())
        assert [(r.case_name, r.engine) for r in results] == [
            ("unit-skip", "fused"),
        ]
        assert all(r.identical for r in results), [
            r.describe() for r in results
        ]

    def test_variation_case_matches_estimator_off(self):
        noisy = replace(self.CASE, name="unit-skip-noise", program_sigma=0.2)
        results = run_skip_exact([noisy], runner=_fast_runner())
        assert [(r.case_name, r.engine) for r in results] == [
            ("unit-skip-noise", "fused"),
        ]
        assert all(r.identical for r in results), [
            r.describe() for r in results
        ]

    def test_exact_needs_an_estimator_engine(self):
        # Neither the alias nor adc runs the skip pass: asking for it
        # must not pass vacuously.
        for engines in (("packed",), ("reference", "adc")):
            with pytest.raises(ConfigurationError):
                ConformanceConfig(engines=engines, estimator="exact")
        ConformanceConfig(engines=("fused", "adc"), estimator="exact")

    def test_divergence_is_reported(self):
        # An exact-mode run that moves one logit must fail the verdict.
        runner = _fast_runner()
        execute = runner._execute

        def nudged(built, spec, inputs):
            out = execute(built, spec, inputs)
            if spec.estimator.mode == "exact":
                out = out.copy()
                out[0, 0] += 1e-9
            return out

        runner._execute = nudged
        (result,) = run_skip_exact([self.CASE], runner=runner)
        assert not result.identical
        assert result.mismatched_samples == 1
        assert "diverged" in result.describe()


class TestFaultInjection:
    def test_fault_spec_validation(self):
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="gamma_ray")
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="program", level=-0.1)
        with pytest.raises(ConfigurationError):
            FaultSpec(kind="sa_noise").apply_to_case(SMALL)

    def test_injected_fault_detected_and_minimized(self, tmp_path):
        runner = DifferentialRunner(max_probes=8, check_invariance=False)
        ce = inject_and_detect(
            SMALL, FaultSpec("stuck_low", 0.12), runner=runner
        )
        assert ce.engine == "fused"
        assert ce.max_abs_diff > 0.0
        assert ce.probes <= 8
        assert 0.0 <= ce.zeroed_fraction < 1.0
        assert SMALL.name in ce.describe()
        paths = ce.save(tmp_path)
        assert [p.suffix for p in paths] == [".json", ".npz"]
        assert all(p.exists() for p in paths)

    def test_no_fault_means_no_detection(self):
        with pytest.raises(ConformanceError, match="undetected|no mismatch"):
            inject_and_detect(
                SMALL, FaultSpec("stuck_low", 0.0), runner=_fast_runner()
            )


class TestGoldenCorpus:
    def test_refresh_then_verify_roundtrip(self, tmp_path):
        entries = refresh_corpus(tmp_path, cases=[SMALL],
                                 runner=_fast_runner())
        assert [e.name for e in entries] == ["unit-small"]
        report = verify_corpus(tmp_path)
        assert report.ok
        assert report.checked == 1

    def test_tampered_digest_flagged_stale(self, tmp_path):
        import json

        refresh_corpus(tmp_path, cases=[SMALL], runner=_fast_runner())
        meta_path = tmp_path / "unit-small.json"
        meta = json.loads(meta_path.read_text())
        meta["digest"] = "0000deadbeef"
        meta_path.write_text(json.dumps(meta))
        report = verify_corpus(tmp_path)
        assert not report.ok
        assert report.stale_digests == ["unit-small"]

    def test_tampered_logits_flagged_drift(self, tmp_path):
        refresh_corpus(tmp_path, cases=[SMALL], runner=_fast_runner())
        array_path = tmp_path / "unit-small.npz"
        with np.load(array_path) as bundle:
            arrays = {k: bundle[k].copy() for k in bundle.files}
        arrays["logits_fused"][0, 0] += 1e-3
        np.savez_compressed(array_path, **arrays)
        report = verify_corpus(tmp_path)
        assert not report.ok
        assert any("unit-small/fused" in line for line in report.mismatches)

    def test_refresh_refuses_live_mismatch(self, tmp_path):
        class _FailingRunner:
            oracle = "reference"

            def run_case(self, case):
                return SimpleNamespace(ok=False)

        with pytest.raises(ConformanceError, match="refusing to refresh"):
            refresh_corpus(tmp_path, cases=[SMALL], runner=_FailingRunner())
        assert not list(tmp_path.glob("*.json"))

    def test_empty_corpus_verifies_vacuously(self, tmp_path):
        report = verify_corpus(tmp_path / "nowhere")
        assert report.ok
        assert report.checked == 0

    def test_checked_in_corpus_pins_packed_logits(self):
        """Every shipped golden entry carries packed-engine logits."""
        from repro.testing.golden import default_golden_dir, load_corpus

        entries = load_corpus(default_golden_dir())
        assert entries, "checked-in golden corpus is missing"
        for entry in entries:
            assert "packed" in entry.outputs, entry.name
            assert "packed" in entry.case.engines, entry.name


def _curve(kind, levels, means):
    return NoiseSweepResult(
        knob=kind,
        levels=list(levels),
        mean_error=list(means),
        std_error=[0.0] * len(means),
        worst_error=list(means),
        trials=1,
    )


class TestCampaignAssertions:
    def _result(self, means, config=None):
        return CampaignResult(
            case=SMALL,
            config=config if config is not None else CampaignConfig(),
            curves={"program": _curve("program", (0.0, 0.1, 0.3), means)},
            baseline_error=means[0],
        )

    def test_monotone_bounded_curve_passes(self):
        assert self._result([0.1, 0.15, 0.3]).ok

    def test_non_monotone_dip_flagged(self):
        result = self._result([0.1, 0.5, 0.2])
        assert any("NOT monotone" in v for v in result.violations())
        with pytest.raises(ConformanceError):
            result.assert_degradation()

    def test_unbounded_loss_flagged(self):
        result = self._result([0.05, 0.2, 0.95])
        assert any("unbounded" in v for v in result.violations())

    def test_jitter_within_tolerance_tolerated(self):
        config = CampaignConfig(monotone_tolerance=0.08)
        assert self._result([0.1, 0.2, 0.15], config).ok

    def test_unknown_sweep_kind_rejected(self):
        with pytest.raises(ConfigurationError):
            CampaignConfig(sweeps={"cosmic": (0.0, 1.0)})

    def test_stuck_high_sweep_injects_stuck_high_cells(self, monkeypatch):
        """A ``stuck_high`` curve must program stuck-at-g_max cells, and
        its sanity anchor must count them."""
        from repro.analysis import robustness
        from repro.hw.device import RRAMDevice
        from repro.hw.tuning import stuck_cell_map
        from repro.testing.faults import run_campaign

        devices = []

        def recording_device(**kwargs):
            device = RRAMDevice(**kwargs)
            devices.append(device)
            return device

        monkeypatch.setattr(robustness, "RRAMDevice", recording_device)
        config = CampaignConfig(sweeps={"stuck_high": (0.0, 0.05)}, trials=1)
        result = run_campaign(SMALL, config)
        assert [d.stuck_high_rate for d in devices] == [0.0, 0.05]
        assert all(d.stuck_low_rate == 0.0 for d in devices)
        anchor = RRAMDevice(bits=SMALL.device_bits, stuck_high_rate=0.05)
        mask = stuck_cell_map(
            anchor, (64, 64), np.random.default_rng(config.seed)
        )
        assert result.expected_stuck_fraction == float(mask[1].mean())


class TestRunConformance:
    def test_explicit_case_report(self, tmp_path):
        config = ConformanceConfig(
            engines=("fused", "reference"),
            golden_dir=tmp_path / "golden",
            self_check=False,
            explicit_cases=[SMALL],
        )
        report = run_conformance(config)
        assert report.ok
        assert report.cases_run == 1
        assert report.mismatches == []
        lines = report.summary_lines()
        assert lines[-1] == "conformance: PASS"
        payload = report.as_dict()
        assert payload["ok"] is True
        assert payload["self_check"]["enabled"] is False

    def test_mismatch_artifacts_written(self, tmp_path):
        """A failing self-check... inverted: the deliberate fault's
        counterexample must land in artifacts_dir for CI upload."""
        config = ConformanceConfig(
            engines=("fused", "reference"),
            golden_dir=tmp_path / "golden",
            self_check=True,
            artifacts_dir=tmp_path / "artifacts",
            explicit_cases=[SMALL],
        )
        report = run_conformance(config)
        assert report.ok
        assert report.injected is not None
        assert report.artifacts
        assert all(p.exists() for p in report.artifacts)


class TestEstimatorSweep:
    """The threshold-mode curve of the fault campaign can fail."""

    def test_threshold_curve_moves_on_a_generated_case(self):
        from repro.testing.faults import estimator_confidence_sweep

        case = {c.name: c for c in generate_cases(20, seed=0)}["case-004"]
        curve = estimator_confidence_sweep(
            case, levels=(0.0, 0.3, 0.5, 0.7, 0.9)
        )
        errors = curve.mean_error
        assert errors[0] == 0.0
        assert errors[2] > 0.0
        tolerance = CampaignConfig().monotone_tolerance
        assert all(
            later >= earlier - tolerance
            for earlier, later in zip(errors, errors[1:])
        ), errors


@pytest.mark.slow
class TestCampaignEndToEnd:
    def test_small_campaign_runs_clean(self):
        config = CampaignConfig(
            sweeps={"stuck_low": (0.0, 0.05), "sa_offset": (0.0, 0.1)},
            trials=1,
        )
        from repro.testing.faults import run_campaign

        result = run_campaign(SMALL, config)
        assert set(result.curves) == {"stuck_low", "sa_offset"}
        assert result.expected_stuck_fraction > 0.0
        assert result.ok, result.violations()


class TestAgingCampaign:
    """Temporal-aging sweeps through the campaign harness."""

    def test_drift_sweep_monotone_with_snapshot_digest(self):
        """A drift-only campaign on the small case: error grows
        monotonically with the drift exponent and the result records
        the device-array snapshot digest for the artifact trail."""
        from repro.testing.faults import run_campaign

        config = CampaignConfig(
            sweeps={"drift": (0.0, 0.05, 0.2)}, trials=2
        )
        result = run_campaign(SMALL, config)
        curve = result.curves["drift"]
        assert curve.mean_error[0] == result.baseline_error
        assert curve.mean_error[-1] > curve.mean_error[0]
        assert result.ok, result.violations()
        digest = result.snapshot_digests["drift"]
        assert len(digest) == 16
        assert result.as_dict()["snapshot_digests"]["drift"] == digest

    def test_aging_sweep_is_deterministic(self):
        from repro.testing.faults import run_campaign

        config = CampaignConfig(sweeps={"drift": (0.0, 0.2)}, trials=1)
        a = run_campaign(SMALL, config)
        b = run_campaign(SMALL, config)
        assert a.curves["drift"].mean_error == b.curves["drift"].mean_error
        assert a.snapshot_digests == b.snapshot_digests

    def test_aging_kinds_are_not_device_recipe_faults(self):
        spec = FaultSpec(kind="drift", level=0.1)
        with pytest.raises(ConfigurationError, match="not a device-recipe"):
            spec.apply_to_case(SMALL)

    def test_campaign_artifacts_include_digests(self, tmp_path):
        """conformance --campaign writes per-case campaign JSON with the
        snapshot digest, for the CI artifact trail."""
        import json

        config = ConformanceConfig(
            engines=("fused", "reference"),
            golden_dir=tmp_path / "golden",
            self_check=False,
            artifacts_dir=tmp_path / "artifacts",
            explicit_cases=[SMALL],
            campaign=CampaignConfig(
                sweeps={"drift": (0.0, 0.2)}, trials=1
            ),
        )
        report = run_conformance(config)
        assert report.ok
        campaign_files = [
            p for p in report.artifacts if p.name.startswith("campaign_")
        ]
        assert campaign_files
        payload = json.loads(campaign_files[0].read_text())
        assert payload["snapshot_digests"]["drift"]
