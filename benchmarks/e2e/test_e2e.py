"""Checks of the end-to-end benchmark itself, at smoke sizes.

Run from the repository root (not part of the tier-1 ``tests`` suite)::

    PYTHONPATH=src python -m pytest benchmarks/e2e
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from concurrent.futures import Future
from pathlib import Path

import pytest

import run
import workloads
from repro.serve.gateway import AsyncGateway
from repro.serve.session import InferenceSession

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
#: Every variant's layer spans must cover its forward span within this.
UNATTRIBUTED_TOLERANCE = 0.10


@pytest.fixture(scope="module")
def smoke(tmp_path_factory):
    out = tmp_path_factory.mktemp("e2e")
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke", "--trace", "1",
         "--out", str(out / "e2e.json"), "--trace-out", str(out / "trace")],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stderr
    reports = json.loads((out / "e2e.json").read_text())["reports"]
    return proc.stdout, {r["workload"]: r for r in reports}, out


def test_every_workload_ran_and_passed_its_gates(smoke):
    _, reports, _ = smoke
    assert sorted(reports) == sorted(w["name"] for w in BENCH["workloads"])
    for report in reports.values():
        assert report["gates"], report["workload"]
        assert report["correct"]
        assert report["attempted"] > 0 and report["failed"] == 0


def test_every_listed_metric_is_printed_with_its_unit(smoke):
    stdout, reports, _ = smoke
    for report in reports.values():
        for listed in BENCH["end_to_end"] + BENCH["per_layer"]:
            metric = report["metrics"][listed["name"]]
            assert metric["unit"] == listed["unit"], listed["name"]
            assert metric["better"] == listed["better"], listed["name"]
            assert f" {listed['unit']}\n" in stdout
            assert f"  {listed['name']} " in stdout


def test_layer_times_add_up_to_the_forward_time(smoke):
    _, reports, _ = smoke
    checked = 0
    for report in reports.values():
        metrics = report["metrics"]
        for name, metric in metrics.items():
            if not name.endswith("unattributed_frac"):
                continue
            prefix = name[: -len("unattributed_frac")]
            parts = sum(
                m["value"] for n, m in metrics.items()
                if n.startswith(prefix) and n.endswith("_ms_per_ksample")
                and n.count(".") == prefix.count(".")
                and not n.endswith("forward_ms_per_ksample")
            )
            forward = metrics[prefix + "forward_ms_per_ksample"]["value"]
            assert 0.0 <= metric["value"] <= UNATTRIBUTED_TOLERANCE, name
            assert parts == pytest.approx(forward * (1 - metric["value"]))
            checked += 1
    assert checked >= 4 + 2 * 6  # default network everywhere, 6 variants x 2


def test_trace_files_hold_linked_spans(smoke):
    _, reports, out = smoke
    for name in reports:
        spans = json.loads((out / f"trace.{name}").read_text())["spans"]
        ids = {s["id"] for s in spans}
        assert spans and all(s["parent"] in ids for s in spans
                             if s["parent"] is not None)
        assert all(s["end"] >= s["start"] for s in spans)


def _fails_before_timing(capsys, workload: str) -> None:
    code = run.main(["--workload", workload, "--smoke"])
    captured = capsys.readouterr()
    assert code != 0
    assert "correctness gate failed" in captured.err
    assert captured.out == ""  # no metric, no result line


def test_a_broken_logit_fails_the_gate(monkeypatch, capsys):
    infer_batch = InferenceSession.infer_batch

    def broken(self, images):
        out = infer_batch(self, images)
        if self.config.engine.name == "packed":
            out = out.copy()
            out[0, 0] += 1e-3
        return out

    monkeypatch.setattr(InferenceSession, "infer_batch", broken)
    _fails_before_timing(capsys, "infer-n1-clean")


def test_a_broken_response_fails_the_gate(monkeypatch, capsys):
    submit = AsyncGateway.submit
    calls = itertools.count()

    def broken(self, x, tenant=None, key=None):
        future = submit(self, x, tenant, key)
        if next(calls) != 1:  # call 0 is the set-up's warm request
            return future
        corrupted = Future()
        future.add_done_callback(
            lambda f: corrupted.set_result(f.result() + 1.0)
        )
        return corrupted

    monkeypatch.setattr(AsyncGateway, "submit", broken)
    _fails_before_timing(capsys, "serve-n2-poisson")


def test_a_broken_threshold_fails_the_gate(monkeypatch, capsys):
    search = workloads.search_thresholds

    def broken(*args, **kwargs):
        result = search(*args, **kwargs)
        result.thresholds[3] += 0.005
        return result

    monkeypatch.setattr(workloads, "search_thresholds", broken)
    _fails_before_timing(capsys, "quantize-n2")
