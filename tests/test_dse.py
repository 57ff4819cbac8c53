"""Tests for the ``repro.dse`` design-space exploration subsystem."""

import json

import pytest

from repro.dse import (
    GridAxis,
    ParameterSpace,
    RandomAxis,
    Study,
    apply_constraints,
    available_studies,
    build_report,
    dominated_volume,
    expr_names,
    get_study,
    pareto_front,
    render_markdown,
    report_json,
    run_study,
    safe_eval,
)
from repro.dse.store import RunStore
from repro.errors import ConfigurationError


class TestSafeEval:
    def test_comparisons_and_arithmetic(self):
        names = {"cell_bits": 4, "weight_bits": 8, "engine": "fused"}
        assert safe_eval("weight_bits % cell_bits == 0", names)
        assert safe_eval("engine != 'adc' and cell_bits < 8", names)
        assert safe_eval("1 <= cell_bits <= 4", names)
        assert safe_eval("engine in ('fused', 'reference')", names)
        assert safe_eval("abs(-2) + max(1, 3) == 5", {})

    def test_unknown_name_raises(self):
        with pytest.raises(ConfigurationError, match="unknown name"):
            safe_eval("nope > 1", {"x": 1})

    def test_arbitrary_code_rejected(self):
        for expr in (
            "__import__('os')",
            "().__class__",
            "x[0]",
            "(lambda: 1)()",
            "open('/etc/passwd')",
        ):
            with pytest.raises(ConfigurationError):
                safe_eval(expr, {"x": (1,)})

    def test_empty_and_invalid(self):
        with pytest.raises(ConfigurationError):
            safe_eval("", {})
        with pytest.raises(ConfigurationError):
            safe_eval("1 +", {})

    def test_expr_names(self):
        assert expr_names("engine != 'adc' and max(a, b) > 0") == {
            "engine",
            "a",
            "b",
        }


class TestParameterSpace:
    def test_grid_product_order_and_determinism(self):
        space = ParameterSpace(
            axes=(GridAxis("a", (1, 2)), GridAxis("b", ("x", "y")))
        )
        configs = space.enumerate(seed=0)
        assert configs == [
            {"a": 1, "b": "x"},
            {"a": 1, "b": "y"},
            {"a": 2, "b": "x"},
            {"a": 2, "b": "y"},
        ]
        assert configs == space.enumerate(seed=0)

    def test_conditional_axis_pins_default_without_duplicates(self):
        space = ParameterSpace(
            axes=(
                GridAxis("engine", ("fused", "adc")),
                GridAxis(
                    "sigma",
                    (0.0, 0.02),
                    when="engine != 'adc'",
                    default=0.0,
                ),
            )
        )
        configs = space.enumerate(seed=0)
        # fused gets both sigma branches; adc collapses to one pinned row.
        assert configs == [
            {"engine": "fused", "sigma": 0.0},
            {"engine": "fused", "sigma": 0.02},
            {"engine": "adc", "sigma": 0.0},
        ]

    def test_constraints_reject_assignments(self):
        space = ParameterSpace(
            axes=(GridAxis("cell_bits", (3, 4, 8)),),
            constraints=("8 % cell_bits == 0",),
        )
        assert [c["cell_bits"] for c in space.enumerate(0)] == [4, 8]

    def test_random_axis_deterministic_per_seed(self):
        space = ParameterSpace(
            axes=(GridAxis("g", (1, 2)), RandomAxis("r", 0.0, 1.0)),
            samples_per_point=3,
        )
        first = space.enumerate(seed=7)
        again = space.enumerate(seed=7)
        other = space.enumerate(seed=8)
        assert first == again
        assert first != other
        assert len(first) == 2 * 3
        assert all(0.0 <= c["r"] <= 1.0 for c in first)

    def test_random_axis_validation(self):
        with pytest.raises(ConfigurationError):
            RandomAxis("r", 1.0, 0.0)
        with pytest.raises(ConfigurationError):
            RandomAxis("r", 0.0, 1.0, log=True)

    def test_duplicate_axis_names_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterSpace(axes=(GridAxis("a", (1,)), GridAxis("a", (2,))))

    def test_empty_space_rejected(self):
        with pytest.raises(ConfigurationError):
            ParameterSpace(axes=())


class TestPareto:
    def test_max_sense_objective(self):
        rows = [
            {"energy": 1.0, "accuracy": 0.9, "tag": "efficient"},
            {"energy": 2.0, "accuracy": 0.95, "tag": "accurate"},
            {"energy": 2.5, "accuracy": 0.9, "tag": "dominated"},
        ]
        front = pareto_front(rows, ("energy", "accuracy:max"))
        assert {r["tag"] for r in front} == {"efficient", "accurate"}

    def test_legacy_minimise_kwarg(self):
        rows = [{"e": 1.0, "a": 2.0}, {"e": 2.0, "a": 1.0}, {"e": 3.0, "a": 3.0}]
        front = pareto_front(rows, minimise=("e", "a"))
        assert len(front) == 2

    def test_minimise_and_objectives_conflict(self):
        with pytest.raises(ConfigurationError):
            pareto_front([{"e": 1.0}], ("e",), minimise=("e",))

    def test_none_objective_value_raises(self):
        with pytest.raises(ConfigurationError, match="None"):
            pareto_front([{"e": None}], ("e",))

    def test_bad_sense_raises(self):
        with pytest.raises(ConfigurationError, match="sense"):
            pareto_front([{"e": 1.0}], ("e:best",))

    def test_hypervolume_known_value(self):
        # ref defaults to nadir + 10% span: (2.2, 2.2).  Front (0,1),(1,0):
        # 1.2*2.2 + 1.2*2.2 - 1.2*1.2 = 3.84
        rows = [
            {"a": 0.0, "b": 1.0},
            {"a": 1.0, "b": 0.0},
            {"a": 2.0, "b": 2.0},
        ]
        assert dominated_volume(rows, ("a", "b")) == pytest.approx(3.84)

    def test_hypervolume_degenerate_dimension(self):
        rows = [{"a": 1.0, "b": 5.0}, {"a": 1.0, "b": 5.0}]
        # zero span in both dims -> unit offset each -> volume 1.
        assert dominated_volume(rows, ("a", "b")) == pytest.approx(1.0)

    def test_hypervolume_explicit_reference(self):
        rows = [{"a": 1.0}]
        assert dominated_volume(
            rows, ("a",), reference={"a": 3.0}
        ) == pytest.approx(2.0)
        with pytest.raises(ConfigurationError, match="reference"):
            dominated_volume(rows, ("a",), reference={"b": 3.0})

    def test_empty_rows_zero_volume(self):
        assert dominated_volume([], ("a",)) == 0.0

    def test_apply_constraints_strings_and_callables(self):
        rows = [{"x": 1, "y": 5}, {"x": 2, "y": 1}, {"x": 3, "y": 9}]
        kept = apply_constraints(rows, ("x >= 2", lambda r: r["y"] < 5))
        assert kept == [{"x": 2, "y": 1}]

    def test_apply_constraints_typo_raises(self):
        with pytest.raises(ConfigurationError, match="unknown name"):
            apply_constraints([{"x": 1}], ("acuracy >= 0.9",))


def _synthetic_study(**overrides):
    defaults = dict(
        name="t_synth",
        space=ParameterSpace(
            axes=(GridAxis("x", (0.0, 0.25, 0.5)), GridAxis("y", (0.0, 1.0)))
        ),
        objectives=("f0", "f1"),
        evaluator="synthetic",
        baseline="",
    )
    defaults.update(overrides)
    return Study(**defaults)


class TestStudy:
    def test_digest_stable_across_instances(self):
        assert _synthetic_study().digest() == _synthetic_study().digest()
        assert (
            _synthetic_study().digest()
            != _synthetic_study(seed=1).digest()
        )

    def test_builtin_registry(self):
        assert "sei_vs_adc" in available_studies()
        assert "sei_vs_adc_quick" in available_studies()
        quick = get_study("sei_vs_adc_quick")
        assert len(quick.candidates()) == 8

    def test_activation_skip_names_one_engine(self):
        # off, exact, and threshold at three confidences, on fused only.
        study = get_study("activation_skip")
        candidates = study.candidates()
        assert len(candidates) == 5
        assert all("engine" not in c.config for c in candidates)

    def test_unknown_study_raises(self):
        with pytest.raises(ConfigurationError, match="unknown study"):
            get_study("nope")

    def test_get_study_overrides(self):
        study = get_study("sei_vs_adc_quick", eval_samples=32, seed=5)
        assert study.eval_samples == 32
        assert study.seed == 5

    def test_candidates_are_deduplicated_and_indexed(self):
        study = _synthetic_study()
        candidates = study.candidates()
        assert [c.index for c in candidates] == list(range(6))
        assert len({c.digest for c in candidates}) == 6

    def test_validation(self):
        with pytest.raises(ConfigurationError):
            _synthetic_study(eval_samples=0)
        with pytest.raises(ConfigurationError):
            _synthetic_study(timeout_s=-1.0)


class TestRunStore:
    def test_round_trip_and_completed(self, tmp_path):
        study = _synthetic_study()
        store = RunStore.for_study(study, root=tmp_path)
        store.ensure_manifest(study)
        store.append({"status": "failed", "digest": "d1", "candidate": 0})
        store.append(
            {"status": "ok", "digest": "d1", "candidate": 0, "metrics": {}}
        )
        store.append(
            {"status": "ok", "digest": "d2", "candidate": 1, "metrics": {}}
        )
        assert len(store.load()) == 3
        completed = store.completed()
        # latest-wins: d1's eventual success counts.
        assert set(completed) == {"d1", "d2"}

    def test_corrupt_tail_tolerated(self, tmp_path):
        study = _synthetic_study()
        store = RunStore.for_study(study, root=tmp_path)
        store.append({"status": "ok", "digest": "d1", "candidate": 0})
        with store.records_path.open("a") as handle:
            handle.write('{"status": "ok", "digest": "d2", "cand')  # torn
        records = store.load()
        assert len(records) == 1
        assert records[0]["digest"] == "d1"

    def test_manifest_mismatch_refused(self, tmp_path):
        study = _synthetic_study()
        store = RunStore.for_study(study, root=tmp_path)
        store.ensure_manifest(study)
        other = _synthetic_study(seed=99)
        alien = RunStore(store.directory, other.digest())
        with pytest.raises(ConfigurationError, match="refusing to mix"):
            alien.ensure_manifest(other)


class TestRunnerInline:
    def test_run_and_report(self, tmp_path):
        study = _synthetic_study()
        result = run_study(study, workers=1, store_root=tmp_path)
        assert result.evaluated == 6
        assert result.failed == 0
        assert len(result.rows) == 6
        report = build_report(result)
        assert report["counts"]["completed"] == 6
        assert report["pareto"]["front"]
        assert report["pareto"]["dominated_volume"] > 0
        assert "# Study report" in render_markdown(report)

    def test_resume_skips_completed_and_report_is_byte_identical(
        self, tmp_path
    ):
        study = _synthetic_study()
        first = run_study(study, workers=1, store_root=tmp_path)
        resumed = run_study(study, workers=1, store_root=tmp_path)
        assert resumed.skipped == 6
        assert resumed.evaluated == 0
        assert report_json(build_report(first)) == report_json(
            build_report(resumed)
        )

    def test_killed_run_resumes_without_reevaluation(self, tmp_path):
        study = _synthetic_study()
        # Simulate a killed run: only the first 4 candidates completed.
        run_study(study, workers=1, store_root=tmp_path, limit=4)
        store = RunStore.for_study(study, root=tmp_path)
        assert len(store.completed()) == 4
        resumed = run_study(study, workers=1, store_root=tmp_path)
        assert resumed.skipped == 4
        assert resumed.evaluated == 2
        # ... and matches an uninterrupted run byte for byte.
        clean = run_study(study, workers=1, store_root=tmp_path / "clean")
        assert report_json(build_report(resumed)) == report_json(
            build_report(clean)
        )

    def test_failures_recorded_and_run_continues(self, tmp_path):
        space = ParameterSpace(
            axes=(
                GridAxis("x", (0.1, 0.2, 0.3)),
                GridAxis("fail", (1,), when="x == 0.2", default=0),
            )
        )
        study = _synthetic_study(name="t_fail", space=space)
        result = run_study(study, workers=1, store_root=tmp_path)
        assert result.failed == 1
        assert len(result.rows) == 2
        assert "deliberate failure" in result.failures[0]["error"]
        report = build_report(result)
        assert report["counts"]["failed"] == 1
        assert "deliberate failure" in render_markdown(report)

    def test_failed_candidate_retried_on_resume(self, tmp_path):
        space = ParameterSpace(
            axes=(
                GridAxis("x", (0.1, 0.2)),
                GridAxis("fail", (1,), when="x == 0.2", default=0),
            )
        )
        study = _synthetic_study(name="t_retry", space=space)
        first = run_study(study, workers=1, store_root=tmp_path)
        assert first.failed == 1
        # Failed candidates are not "completed": the resume retries them.
        resumed = run_study(study, workers=1, store_root=tmp_path)
        assert resumed.skipped == 1
        assert resumed.evaluated == 1

    def test_invalid_workers(self, tmp_path):
        with pytest.raises(ConfigurationError):
            run_study(_synthetic_study(), workers=0, store_root=tmp_path)

    def test_unknown_evaluator(self, tmp_path):
        study = _synthetic_study(evaluator="nope")
        result = run_study(study, workers=1, store_root=tmp_path)
        assert result.failed == len(study.candidates())
        assert "unknown evaluator" in result.failures[0]["error"]


class TestRunnerPool:
    def test_pool_matches_inline(self, tmp_path):
        study = _synthetic_study()
        inline = run_study(study, workers=1, store_root=tmp_path / "a")
        pooled = run_study(study, workers=2, store_root=tmp_path / "b")
        assert report_json(build_report(inline)) == report_json(
            build_report(pooled)
        )

    def test_worker_exception_recorded(self, tmp_path):
        space = ParameterSpace(
            axes=(
                GridAxis("x", (0.1, 0.2, 0.3)),
                GridAxis("fail", (1,), when="x == 0.2", default=0),
            )
        )
        study = _synthetic_study(name="t_pool_fail", space=space)
        result = run_study(study, workers=2, store_root=tmp_path)
        assert result.failed == 1
        assert len(result.rows) == 2

    @pytest.mark.slow
    def test_worker_crash_is_isolated(self, tmp_path):
        space = ParameterSpace(
            axes=(
                GridAxis("x", (0.1, 0.2, 0.3, 0.4)),
                GridAxis("crash", (1,), when="x == 0.2", default=0),
            )
        )
        study = _synthetic_study(name="t_crash", space=space)
        result = run_study(study, workers=2, store_root=tmp_path)
        # The crasher is blamed exactly; its neighbours complete.
        assert result.failed == 1
        assert len(result.rows) == 3
        assert result.failures[0]["error"] == "worker crashed"

    @pytest.mark.slow
    def test_timeout_marks_candidate_failed(self, tmp_path):
        space = ParameterSpace(
            axes=(
                GridAxis("x", (0.1, 0.2)),
                GridAxis("sleep_ms", (5000,), when="x == 0.2", default=0),
            )
        )
        study = _synthetic_study(
            name="t_slow", space=space, timeout_s=1.0
        )
        result = run_study(study, workers=2, store_root=tmp_path)
        assert result.failed == 1
        assert "timeout" in result.failures[0]["error"]
        assert len(result.rows) == 1


class TestReport:
    def test_report_json_is_canonical(self, tmp_path):
        study = _synthetic_study()
        result = run_study(study, workers=1, store_root=tmp_path)
        text = report_json(build_report(result))
        parsed = json.loads(text)
        assert text == json.dumps(parsed, indent=2, sort_keys=True) + "\n"

    def test_constraint_filtered_front(self, tmp_path):
        study = _synthetic_study(constraints=("accuracy >= 0.75",))
        result = run_study(study, workers=1, store_root=tmp_path)
        report = build_report(result)
        assert report["counts"]["feasible"] < report["counts"]["completed"]
        assert all(
            row["accuracy"] >= 0.75 for row in report["pareto"]["front"]
        )

    def test_baseline_comparison_pairs_rows(self, tmp_path):
        space = ParameterSpace(
            axes=(GridAxis("engine", ("new", "old")), GridAxis("x", (0.0, 0.5)))
        )
        study = Study(
            name="t_base",
            space=space,
            objectives=("f0", "f1"),
            evaluator="synthetic",
            baseline="engine == 'old'",
        )
        result = run_study(study, workers=1, store_root=tmp_path)
        comparison = build_report(result)["baseline_comparison"]
        assert comparison is not None
        assert len(comparison["pairs"]) == 2
        assert comparison["matched_on"] == ["x"]


class TestDeviceAgingStudy:
    """The zoo-free ``device_aging`` study: deterministic aging records
    with snapshot digests, resumable byte-for-byte (ISSUE acceptance)."""

    def test_records_carry_digests_and_monotone_drift(self, tmp_path):
        study = get_study("device_aging")
        result = run_study(study, workers=1, store_root=tmp_path)
        assert result.evaluated == 24
        rows = {
            (r["drift_nu"], r["drift_nu_sigma"], r["age"]): r
            for r in result.rows
        }
        for row in rows.values():
            assert len(row["snapshot_digest"]) == 16
            assert row["drift_level_steps"] >= 0.0
        # Drift grows with the exponent and with deployment age.
        for sigma in (0.0, 0.5):
            steps = [
                rows[(nu, sigma, 256.0)]["drift_level_steps"]
                for nu in (0.0, 0.02, 0.05, 0.1)
            ]
            assert steps == sorted(steps)
            assert steps[-1] > steps[0]
        ages = [
            rows[(0.1, 0.5, age)]["drift_level_steps"]
            for age in (16.0, 64.0, 256.0)
        ]
        assert ages == sorted(ages)

    def test_killed_aging_run_resumes_byte_identical(self, tmp_path):
        study = get_study("device_aging")
        # Simulate a killed run: only the first 10 candidates completed.
        run_study(study, workers=1, store_root=tmp_path, limit=10)
        resumed = run_study(study, workers=1, store_root=tmp_path)
        assert resumed.skipped == 10
        clean = run_study(study, workers=1, store_root=tmp_path / "clean")
        assert report_json(build_report(resumed)) == report_json(
            build_report(clean)
        )
        # The aged device states themselves match, not just the scores.
        digest_of = lambda result: {
            r["candidate"]: r["snapshot_digest"] for r in result.rows
        }
        assert digest_of(resumed) == digest_of(clean)
