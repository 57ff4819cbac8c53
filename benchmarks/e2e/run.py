"""End-to-end benchmark of the SEI reproduction, on the path users take.

Runs one named workload (or all four) through the package's public API:
set-up, correctness gates, an untraced timed run and, with ``--trace 1``,
a separate traced run whose spans give the per-layer metrics.  Prints
every metric by name with its unit, then, as the last line, one JSON
object ``{"correct", "attempted", "failed", "metrics"}`` holding the
end-to-end metrics of ``BENCHMARK.json`` (or, with ``--trace 1``, its
per-layer metrics).

Usage, from the repository root::

    python3 benchmarks/e2e/run.py --workload infer-n1-clean --seed 1 \\
        --seconds 12 --trace 0 --out e2e.json

Without ``--workload`` the four workloads run one after another, each in
its own process.  See README.md in this directory for the workloads and
metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"

# One BLAS thread: with the serving workload's two single-worker shards,
# the program never runs more compute threads than the box has cores,
# and every workload is timed under the same threading.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
sys.path.insert(0, str(SRC))

#: Set-ups per run; ``setup_s`` is their median.  All but one run in
#: fresh subprocesses; the last is the run's own.
SETUPS = 3
SETUP_PHASES = ("import_s", "dataset_s", "model_load_s", "prepare_s")


def set_up(name: str, smoke: bool):
    """Import the package, then run the workload's set-up; times each phase.

    The import is timed here, so this module imports nothing from the
    package or NumPy at module level.
    """
    t0 = time.perf_counter()
    import workloads

    import_s = time.perf_counter() - t0
    workload = workloads.WORKLOADS[name](smoke=smoke)
    phases = {"import_s": import_s, **workload.setup()}
    phases["setup_s"] = sum(phases[k] for k in SETUP_PHASES)
    return workload, phases


def probe_setup(name: str) -> dict:
    """One set-up in a fresh interpreter (``--setup-only``)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--setup-only",
         "--workload", name],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=False,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _metric(value, unit, better) -> dict:
    return {"value": value, "unit": unit, "better": better}


def run_workload(args, bench: dict) -> int:
    wall = {"start": time.perf_counter()}
    samples = [probe_setup(args.workload)
               for _ in range(0 if args.smoke else SETUPS - 1)]
    wall["probes"] = time.perf_counter()
    workload, own = set_up(args.workload, args.smoke)
    samples.append(own)
    wall["setup"] = time.perf_counter()
    import workloads
    from spans import SpanLog

    try:
        try:
            workload.gate()
        except workloads.GateFailure as exc:
            print(f"correctness gate failed: {exc}", file=sys.stderr)
            return 1
        wall["gate"] = time.perf_counter()
        if args.trace:
            workload.measure(args.seconds / 2, args.seed)
            wall["measure"] = time.perf_counter()
            log = SpanLog()
            workload.trace(args.seconds / 2, args.seed, log)
            wall["trace"] = time.perf_counter()
        else:
            workload.measure(args.seconds, args.seed)
            wall["measure"] = time.perf_counter()
    except workloads.GateFailure as exc:
        print(f"trace check failed: {exc}", file=sys.stderr)
        return 1
    finally:
        workload.close()

    metrics = {
        name: _metric(value, unit, better)
        for name, (value, unit, better) in workload.metrics.items()
    }
    metrics["setup_s"] = _metric(
        statistics.median(s["setup_s"] for s in samples), "s", "lower")
    for phase in set(own) - {"setup_s"}:
        metrics[f"setup.{phase}"] = _metric(
            statistics.median(s[phase] for s in samples), "s", "lower")
    metrics["failed_frac"] = _metric(
        workload.failed / workload.attempted, "fraction", "lower")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "smoke": args.smoke,
        "gates": workload.gates,
        "setup_samples": samples,
        # Wall-clock seconds of each step of this run (run-time budgeting).
        "step_wall_s": {
            step: wall[step] - before
            for before, step in zip(list(wall.values()), list(wall)[1:])
        },
        "correct": workload.mismatches == 0,
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": metrics,
    }
    print(f"== {args.workload}  seed {args.seed}  {args.seconds:g} s  "
          f"{'traced' if args.trace else 'untraced'} ==")
    print(f"  gates passed: {len(workload.gates)}")
    for name in sorted(metrics):
        m = metrics[name]
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(f"  attempted {workload.attempted}  failed {workload.failed}")
    if args.out:
        Path(args.out).write_text(json.dumps({"reports": [report]}, indent=1))
    if args.trace_out and args.trace:
        Path(args.trace_out).write_text(json.dumps(
            {"workload": args.workload, **log.as_dict()}))

    listed = bench["per_layer" if args.trace else "end_to_end"]
    print(json.dumps({
        "correct": report["correct"],
        "attempted": workload.attempted,
        "failed": workload.failed,
        "metrics": {
            m["name"]: {"value": metrics[m["name"]]["value"],
                        "unit": metrics[m["name"]]["unit"]}
            for m in listed
        },
    }))
    return 0


def run_all(args, bench: dict) -> int:
    """Each workload in its own process, so none inherits another's state."""
    reports = []
    status = 0
    for name in (w["name"] for w in bench["workloads"]):
        part = f"{args.out}.{name}" if args.out else None
        trace = f"{args.trace_out}.{name}" if args.trace_out else None
        cmd = [sys.executable, str(Path(__file__)), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        cmd += ["--smoke"] if args.smoke else []
        cmd += ["--out", part] if part else []
        cmd += ["--trace-out", trace] if trace else []
        code = subprocess.run(cmd, cwd=ROOT, check=False).returncode
        status = status or code
        if part and code == 0:
            reports += json.loads(Path(part).read_text())["reports"]
            Path(part).unlink()
    if args.out:
        Path(args.out).write_text(json.dumps({"reports": reports}, indent=1))
    return status


def main(argv=None) -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=[w["name"] for w in bench["workloads"]],
                        help="one workload (default: all four, in turn)")
    parser.add_argument("--seed", type=int, default=0,
                        help="seeds image order and arrival times")
    parser.add_argument("--seconds", type=float,
                        help="measured time per run (default: BENCHMARK.json"
                             " run_seconds; 1 with --smoke)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0,
                        help="1: add a traced pass; print per-layer metrics")
    parser.add_argument("--out", help="write the full report (JSON) here")
    parser.add_argument("--trace-out",
                        help="with --trace 1, write the spans (JSON) here")
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes and one set-up: checks, not numbers")
    parser.add_argument("--setup-only", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"no repro package under {SRC}: run from a full checkout",
              file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = 1.0 if args.smoke else float(bench["run_seconds"])

    if args.setup_only:
        workload, phases = set_up(args.workload, args.smoke)
        workload.close()
        print(json.dumps(phases))
        return 0
    if args.workload is None:
        return run_all(args, bench)
    return run_workload(args, bench)


if __name__ == "__main__":
    raise SystemExit(main())
