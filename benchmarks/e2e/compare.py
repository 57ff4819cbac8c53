"""Paired comparison of two sets of benchmark runs: A (parent) vs B (change).

Usage, from the repository root::

    python3 benchmarks/e2e/compare.py A/ B/

Each directory holds ``run.py --out`` reports (any ``*.json`` files).
For every workload and metric it prints each side's median and
quartiles, the share of seed-matched pairs that B wins (ties count for
neither side), the bound from ``BENCHMARK.json`` and a verdict:

``REGRESSION``  B's median is worse than A's by more than the bound.
``unresolved``  a side's quartile spread is wider than the bound, so a
                change inside it cannot be told from noise (unless
                every B run beats every A run: ``better``).
``gain``        B wins at least 9 pairs in 10 and the medians differ by
                more than A's own quartile spread.
``ok``          none of the above.

Metrics without a bound (the diagnostics and per-layer metrics) get
``gain``, ``loss`` or ``-``.  Exits 1 on a regression, when B failed a
larger share of the operations it attempted than A, or when a B run
reported wrong outputs.
"""

from __future__ import annotations

import argparse
import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]


def load_reports(directory: Path) -> dict:
    """``{workload: [report, ...]}`` from every JSON file in ``directory``."""
    runs: dict = {}
    for path in sorted(directory.glob("*.json")):
        for report in json.loads(path.read_text())["reports"]:
            runs.setdefault(report["workload"], []).append(report)
    return runs


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4)
    return q1, median, q3


def _better(x: float, y: float, better: str) -> bool:
    return x > y if better == "higher" else x < y


def _relative(delta: float, base: float) -> float:
    if base:
        return delta / abs(base)
    return 0.0 if delta == 0 else float("inf")


def verdict(a, b, pairs, better: str, bound) -> dict:
    """Compare one metric; ``pairs`` are (a, b) values of matched runs."""
    qa, qb = quartiles(a), quartiles(b)
    # Positive "worse" means B moved in the bad direction.
    sign = -1.0 if better == "higher" else 1.0
    worse = _relative(sign * (qb[1] - qa[1]), qa[1])
    spread = max(_relative(qa[2] - qa[0], qa[1]),
                 _relative(qb[2] - qb[0], qb[1]))
    wins = sum(_better(y, x, better) for x, y in pairs)
    win_rate = wins / len(pairs) if pairs else 0.0
    losses = sum(_better(x, y, better) for x, y in pairs)
    beyond_noise = abs(qb[1] - qa[1]) > qa[2] - qa[0]
    if beyond_noise and win_rate >= 0.9:
        label = "gain"
    elif beyond_noise and pairs and losses / len(pairs) >= 0.9:
        label = "loss"
    else:
        label = "-"
    if bound is not None:
        if spread > bound:
            all_better = all(_better(y, x, better) for x in a for y in b)
            label = "better" if all_better else "unresolved"
        elif worse > bound:
            label = "REGRESSION"
        elif label != "gain":
            label = "ok"
    return {
        "a": qa, "b": qb, "change": _relative(qb[1] - qa[1], qa[1]),
        "win_rate": win_rate, "bound": bound, "verdict": label,
    }


def _cell(q) -> str:
    return f"{q[1]:.5g} [{q[0]:.4g}, {q[2]:.4g}]"


def failed_frac(reports) -> float:
    attempted = sum(r["attempted"] for r in reports)
    return sum(r["failed"] for r in reports) / attempted if attempted else 0.0


def compare(a_dir: Path, b_dir: Path, bench: dict) -> int:
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    a_runs, b_runs = load_reports(a_dir), load_reports(b_dir)
    status = 0
    header = (f"{'metric':44s} {'unit':9s} {'A median [q1, q3]':>30s} "
              f"{'B median [q1, q3]':>30s} {'change':>8s} {'win':>5s} "
              f"{'bound':>6s}  verdict")
    for workload in sorted(set(a_runs) | set(b_runs)):
        a, b = a_runs.get(workload, []), b_runs.get(workload, [])
        print(f"== {workload}: {len(a)} A runs, {len(b)} B runs")
        if not a or not b:
            print("   missing on one side; nothing to compare")
            status = 1
            continue
        fa, fb = failed_frac(a), failed_frac(b)
        print(f"   failed_frac  A {fa:.6f}  B {fb:.6f}"
              + ("  FAILED-RISE" if fb > fa else ""))
        if fb > fa:
            status = 1
        if not all(r["correct"] for r in b):
            print("   B reported wrong outputs")
            status = 1
        a_seed = {r["seed"]: r for r in a}
        b_seed = {r["seed"]: r for r in b}
        common = sorted(set(a_seed) & set(b_seed))
        # Without shared seeds, pair the runs in the order they were made.
        matched = ([(a_seed[s], b_seed[s]) for s in common] if common
                   else list(zip(a, b)))
        print(header)
        names = set().union(*(r["metrics"] for r in a + b))
        for name in sorted(names, key=lambda n: (n not in bounds, n)):
            if not all(name in r["metrics"] for r in a + b):
                continue
            first = a[0]["metrics"][name]
            pairs = [(x["metrics"][name]["value"], y["metrics"][name]["value"])
                     for x, y in matched]
            result = verdict(
                [r["metrics"][name]["value"] for r in a],
                [r["metrics"][name]["value"] for r in b],
                pairs, first["better"], bounds.get(name),
            )
            if result["verdict"] == "REGRESSION":
                status = 1
            bound = "" if result["bound"] is None else f"{result['bound']:.2f}"
            print(f"{name:44s} {first['unit']:9s} {_cell(result['a']):>30s} "
                  f"{_cell(result['b']):>30s} {result['change']:>+8.2%} "
                  f"{result['win_rate']:>5.2f} {bound:>6s}  "
                  f"{result['verdict']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("a", type=Path, help="parent runs (directory)")
    parser.add_argument("b", type=Path, help="change runs (directory)")
    parser.add_argument("--benchmark", type=Path,
                        default=ROOT / "BENCHMARK.json")
    args = parser.parse_args(argv)
    bench = json.loads(args.benchmark.read_text())
    return compare(args.a, args.b, bench)


if __name__ == "__main__":
    raise SystemExit(main())
