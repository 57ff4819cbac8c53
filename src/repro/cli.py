"""Command-line interface: regenerate the paper's results from a shell.

Usage::

    python -m repro.cli info
    python -m repro.cli fig1
    python -m repro.cli table1|table2|table3|table5
    python -m repro.cli quantize network2
    python -m repro.cli split network1 --crossbar 256 --method homogenize
    python -m repro.cli tradeoff network1 --structure sei
    python -m repro.cli infer network2 --count 16
    python -m repro.cli serve network2 --requests 64 --workers 2
    python -m repro.cli serve network2 --listen 9100 --duration 60
    python -m repro.cli loadgen network2 --shards 2 --profile bursty
    python -m repro.cli loadgen network2 --quick --report loadgen.json
    python -m repro.cli top --url http://127.0.0.1:9100
    python -m repro.cli top --watch --frames 3 --interval 0.2
    python -m repro.cli conformance --quick
    python -m repro.cli conformance --update-golden
    python -m repro.cli explore sei_vs_adc --workers 4
    python -m repro.cli explore --quick --report report.md

Accuracy commands train models on first use and cache them under
``.cache/`` (a few minutes); cost-model commands are instant.

Every command accepts ``-v``/``-q`` (verbosity), ``--trace PATH``
(record spans + hardware activity counters + run manifest to a JSON
file) and ``--metrics-out PATH`` (the same export without the span
tree).  See docs/observability.md.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import List, Optional

from repro import obs
from repro.arch import (
    breakdown_rows,
    buffer_plan,
    evaluate_design,
    format_table,
    power_time_tradeoff,
    reference_efficiency_rows,
    table5_rows,
)
from repro.configs import NETWORK_SPECS, get_network_spec

__all__ = ["main", "build_parser"]

logger = obs.get_logger("cli")


#: One-line summary per subcommand.  This is the single source the
#: ``--help`` epilog renders, and tests/test_cli.py asserts it covers
#: every ``_HANDLERS`` entry — adding a command without a summary (or a
#: summary without a handler) fails the suite, so the help text can no
#: longer drift from the actual command set.
_COMMAND_SUMMARIES = {
    "info": "package and paper summary",
    "fig1": "Fig. 1: baseline power/area breakdown",
    "table1": "Table 1: activation distribution",
    "table2": "Table 2: network configurations",
    "table3": "Table 3: quantization error rates",
    "table5": "Table 5: energy/area of the structures",
    "quantize": "run Algorithm 1 threshold search on a network",
    "split": "split a network across crossbars",
    "tradeoff": "power-time tradeoff and buffer plan",
    "datasheet": "full chip datasheet for one design point",
    "infer": "classify test samples through a warm inference session",
    "serve": "drive micro-batched serving over a warm session "
    "(--listen publishes /metrics)",
    "loadgen": "drive a sharded gateway with seeded open-loop traffic "
    "(poisson/bursty/diurnal or trace replay) and report latency "
    "quantiles",
    "top": "live terminal dashboard over a serving telemetry plane",
    "conformance": "cross-engine conformance harness (exit 1 on mismatch)",
    "explore": "design-space exploration: run/resume a study, report the "
    "Pareto front",
}


def _epilog() -> str:
    width = max(len(name) for name in _COMMAND_SUMMARIES)
    lines = ["commands:"]
    for name, summary in _COMMAND_SUMMARIES.items():
        lines.append(f"  {name:<{width}}  {summary}")
    return "\n".join(lines)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Reproduction of 'Switched by Input: Power Efficient Structure "
            "for RRAM-based CNN' (DAC 2016)"
        ),
        epilog=_epilog(),
        formatter_class=argparse.RawDescriptionHelpFormatter,
    )
    # Shared flags live on a parent parser attached to every subcommand
    # (not on ``parser`` itself: a subparser would re-apply its defaults
    # and silently clobber values parsed before the command name).
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument(
        "-v",
        "--verbose",
        action="count",
        default=0,
        help="more log output (repeat for debug)",
    )
    common.add_argument(
        "-q",
        "--quiet",
        action="count",
        default=0,
        help="less log output (repeat to silence almost everything)",
    )
    common.add_argument(
        "--trace",
        metavar="PATH",
        default=None,
        help="write span trace + metrics + run manifest JSON to PATH",
    )
    common.add_argument(
        "--metrics-out",
        metavar="PATH",
        default=None,
        help="write metrics + run manifest JSON (no span tree) to PATH",
    )
    common.add_argument(
        "--metrics-flush-interval",
        metavar="SECONDS",
        type=float,
        default=0.0,
        help="rewrite --trace/--metrics-out every SECONDS while the "
        "command runs, so a killed run still leaves partial metrics "
        "(0 = only write on exit)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sub.add_parser("info", parents=[common], help="package and paper summary")
    sub.add_parser(
        "fig1", parents=[common], help="Fig. 1: baseline power/area breakdown"
    )
    sub.add_parser(
        "table1", parents=[common], help="Table 1: activation distribution"
    )
    sub.add_parser(
        "table2", parents=[common], help="Table 2: network configurations"
    )
    sub.add_parser(
        "table3", parents=[common], help="Table 3: quantization error rates"
    )
    sub.add_parser(
        "table5",
        parents=[common],
        help="Table 5: energy/area of the structures",
    )

    quantize = sub.add_parser(
        "quantize", parents=[common], help="run Algorithm 1 on a network"
    )
    quantize.add_argument("network", choices=sorted(NETWORK_SPECS))

    split = sub.add_parser(
        "split", parents=[common], help="split a network across crossbars"
    )
    split.add_argument("network", choices=sorted(NETWORK_SPECS))
    split.add_argument("--crossbar", type=int, default=512)
    split.add_argument(
        "--method",
        choices=("natural", "random", "homogenize"),
        default="homogenize",
    )
    split.add_argument("--dynamic", action="store_true")

    tradeoff = sub.add_parser(
        "tradeoff",
        parents=[common],
        help="power-time tradeoff and buffer plan",
    )
    tradeoff.add_argument("network", choices=sorted(NETWORK_SPECS))
    tradeoff.add_argument(
        "--structure", choices=("dac_adc", "onebit_adc", "sei"), default="sei"
    )

    datasheet = sub.add_parser(
        "datasheet",
        parents=[common],
        help="full chip datasheet for one design point",
    )
    datasheet.add_argument("network", choices=sorted(NETWORK_SPECS))
    datasheet.add_argument(
        "--structure", choices=("dac_adc", "onebit_adc", "sei"), default="sei"
    )
    datasheet.add_argument("--crossbar", type=int, default=512)
    datasheet.add_argument("--replication", type=int, default=1)

    def _add_session_args(p) -> None:
        from repro.core.engines import available_engines

        p.add_argument("network", choices=sorted(NETWORK_SPECS))
        p.add_argument(
            "--engine", choices=available_engines(), default="fused"
        )
        p.add_argument(
            "--tile",
            type=int,
            default=16,
            help="fixed execution tile of the session (samples per wave)",
        )
        p.add_argument(
            "--estimator",
            choices=("off", "exact", "threshold"),
            default="off",
            help="runtime activation estimator: skip MVM row work once "
            "column outputs are decided ('exact' is bit-identical, "
            "'threshold' trades accuracy via --confidence and needs "
            "--engine packed)",
        )
        p.add_argument(
            "--confidence",
            type=float,
            default=1.0,
            help="threshold-estimator confidence knob in (0, 1] "
            "(packed engine only); 1.0 keeps the full bound, smaller "
            "skips more aggressively",
        )

    infer = sub.add_parser(
        "infer",
        parents=[common],
        help="classify test samples through a warm inference session",
    )
    _add_session_args(infer)
    infer.add_argument(
        "--count", type=int, default=16, help="how many test samples to run"
    )

    serve = sub.add_parser(
        "serve",
        parents=[common],
        help="drive micro-batched serving over a warm session",
    )
    _add_session_args(serve)
    serve.add_argument("--requests", type=int, default=64)
    serve.add_argument("--clients", type=int, default=4)
    serve.add_argument("--workers", type=int, default=2)
    serve.add_argument("--batch-size", type=int, default=64)
    serve.add_argument("--delay-ms", type=float, default=2.0)
    serve.add_argument("--queue", type=int, default=256)
    serve.add_argument(
        "--listen",
        metavar="[HOST:]PORT",
        default=None,
        help="publish the live telemetry plane over HTTP: /metrics "
        "(Prometheus), /metrics.json, /healthz, /flight (port 0 binds "
        "an ephemeral port; see --port-file)",
    )
    serve.add_argument(
        "--port-file",
        metavar="PATH",
        default=None,
        help="write the bound exposition URL to PATH (ephemeral-port "
        "discovery for scripts/CI)",
    )
    serve.add_argument(
        "--duration",
        metavar="SECONDS",
        type=float,
        default=0.0,
        help="with --listen: keep serving (looping the request set) for "
        "this long so scrapers can watch a live window (0 = one pass)",
    )
    serve.add_argument(
        "--slo-window",
        metavar="SECONDS",
        type=float,
        default=60.0,
        help="sliding SLO window length (with --listen)",
    )
    serve.add_argument(
        "--slo-p99-ms",
        type=float,
        default=None,
        help="breach when the windowed p99 latency exceeds this",
    )
    serve.add_argument(
        "--slo-error-rate",
        type=float,
        default=None,
        help="breach when the windowed error rate exceeds this",
    )
    serve.add_argument(
        "--slo-joules-per-request",
        type=float,
        default=None,
        help="breach when windowed SEI dynamic energy per request "
        "(joules) exceeds this",
    )

    loadgen = sub.add_parser(
        "loadgen",
        parents=[common],
        help=_COMMAND_SUMMARIES["loadgen"],
    )
    _add_session_args(loadgen)
    loadgen.add_argument(
        "--shards", type=int, default=2, help="session shards on the ring"
    )
    loadgen.add_argument(
        "--profile",
        choices=("poisson", "bursty", "diurnal"),
        default="poisson",
        help="arrival process (ignored with --replay)",
    )
    loadgen.add_argument(
        "--rate", type=float, default=200.0,
        help="mean arrival rate, requests/second",
    )
    loadgen.add_argument(
        "--duration", type=float, default=2.0,
        help="schedule horizon in seconds",
    )
    loadgen.add_argument(
        "--burst-rate", type=float, default=1000.0,
        help="bursty: arrival rate inside a burst",
    )
    loadgen.add_argument(
        "--burst-dwell", type=float, default=0.05,
        help="bursty: mean burst dwell time (s)",
    )
    loadgen.add_argument(
        "--calm-dwell", type=float, default=0.2,
        help="bursty: mean calm dwell time (s)",
    )
    loadgen.add_argument(
        "--period", type=float, default=1.0,
        help="diurnal: sinusoid period (s)",
    )
    loadgen.add_argument(
        "--amplitude", type=float, default=0.5,
        help="diurnal: modulation depth in [0,1)",
    )
    loadgen.add_argument("--seed", type=int, default=0)
    loadgen.add_argument(
        "--replay",
        metavar="PATH",
        default=None,
        help="replay a saved trace file instead of generating a schedule",
    )
    loadgen.add_argument(
        "--save-trace",
        metavar="PATH",
        dest="save_trace_path",
        default=None,
        help="save the generated schedule as a replayable trace file",
    )
    loadgen.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the summary report JSON to PATH (CI artifact)",
    )
    loadgen.add_argument(
        "--rate-limit",
        type=float,
        default=None,
        help="gateway token-bucket admission rate (req/s; default off)",
    )
    loadgen.add_argument(
        "--max-in-flight", type=int, default=256,
        help="gateway bounded in-flight admission window",
    )
    loadgen.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: short low-rate run (overrides --rate/--duration)",
    )

    top = sub.add_parser(
        "top",
        parents=[common],
        help=_COMMAND_SUMMARIES["top"],
    )
    top.add_argument(
        "--url",
        metavar="URL",
        default=None,
        help="poll a running exposition server's /metrics.json "
        "(e.g. http://127.0.0.1:9100)",
    )
    top.add_argument(
        "--watch",
        action="store_true",
        help="file-free demo mode: drive a synthetic in-process serving "
        "workload and watch its live plane (no server, no model cache)",
    )
    top.add_argument(
        "--interval",
        metavar="SECONDS",
        type=float,
        default=1.0,
        help="seconds between frames",
    )
    top.add_argument(
        "--frames",
        type=int,
        default=0,
        help="stop after this many frames (0 = until interrupted)",
    )

    conformance = sub.add_parser(
        "conformance",
        parents=[common],
        help=(
            "cross-engine conformance: differential cases, golden corpus, "
            "fault injection (exit 1 on any mismatch)"
        ),
    )
    conformance.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: 20 generated cases + golden corpus + fault "
        "self-check, no degradation campaign",
    )
    conformance.add_argument(
        "--cases",
        type=int,
        default=40,
        help="generated differential cases to sweep (ignored with --quick)",
    )
    conformance.add_argument("--seed", type=int, default=0)
    conformance.add_argument(
        "--engines",
        default="fused,packed,reference,adc",
        help="comma-separated engine names to conform (default: all four)",
    )
    conformance.add_argument(
        "--estimator",
        choices=("off", "exact"),
        default="off",
        help="with 'exact': also assert the fused/packed engines with "
        "the runtime activation estimator stay bit-identical to their "
        "estimator-off selves on the golden corpus",
    )
    conformance.add_argument(
        "--golden",
        metavar="DIR",
        default=None,
        help="golden corpus directory (default: tests/golden)",
    )
    conformance.add_argument(
        "--update-golden",
        action="store_true",
        help="rewrite the golden corpus instead of verifying it "
        "(refuses while any engine mismatch is live)",
    )
    conformance.add_argument(
        "--artifacts",
        metavar="DIR",
        default=None,
        help="write minimized counterexample artifacts here (CI upload)",
    )
    conformance.add_argument(
        "--campaign",
        action="store_true",
        help="also sweep the fault-injection degradation campaign (slow; "
        "the nightly job)",
    )
    conformance.add_argument(
        "--no-self-check",
        action="store_true",
        help="skip the deliberate-fault detection self-check",
    )
    conformance.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the full conformance report JSON to PATH",
    )

    explore = sub.add_parser(
        "explore",
        parents=[common],
        help=_COMMAND_SUMMARIES["explore"],
    )
    explore.add_argument(
        "study",
        nargs="?",
        default="sei_vs_adc",
        help="built-in study name (default: sei_vs_adc; see --list)",
    )
    explore.add_argument(
        "--list",
        action="store_true",
        dest="list_studies",
        help="list the built-in studies and exit",
    )
    explore.add_argument(
        "--quick",
        action="store_true",
        help="CI smoke: the study's *_quick variant when one exists, "
        "otherwise the first 8 candidates",
    )
    explore.add_argument(
        "--workers",
        type=int,
        default=1,
        help="worker processes (1 = evaluate inline)",
    )
    explore.add_argument(
        "--limit",
        type=int,
        default=0,
        help="evaluate only the first N candidates (0 = all)",
    )
    explore.add_argument(
        "--out",
        metavar="DIR",
        default=None,
        help="run-store root; the study resumes from its records there "
        "(default: .cache/dse)",
    )
    explore.add_argument(
        "--seed", type=int, default=None, help="override the study seed"
    )
    explore.add_argument(
        "--samples",
        type=int,
        default=None,
        help="override eval_samples (test images scored per candidate)",
    )
    explore.add_argument(
        "--timeout",
        type=float,
        default=None,
        help="per-candidate timeout in seconds (0 = unlimited)",
    )
    explore.add_argument(
        "--report",
        metavar="PATH",
        default=None,
        help="write the markdown study report to PATH",
    )
    explore.add_argument(
        "--json",
        metavar="PATH",
        dest="json_out",
        default=None,
        help="write the deterministic report JSON to PATH",
    )
    return parser


def _write_export(payload: dict, path: str) -> None:
    # Atomic (tmp + rename) so a reader — or a kill mid-flush — never
    # sees a truncated JSON document.
    import os

    target = Path(path)
    if str(target.parent) not in ("", "."):
        target.parent.mkdir(parents=True, exist_ok=True)
    tmp = target.with_name(target.name + ".tmp")
    tmp.write_text(json.dumps(payload, indent=2, sort_keys=True))
    os.replace(tmp, target)


def _export_outputs(rec, args, argv) -> None:
    """Write the recorder's export to the requested --trace/--metrics-out."""
    export = rec.export(command=args.command, argv=argv)
    if args.trace is not None:
        _write_export(export, args.trace)
    if args.metrics_out is not None:
        metrics_only = {k: v for k, v in export.items() if k != "trace"}
        _write_export(metrics_only, args.metrics_out)


class _PeriodicFlusher:
    """Daemon thread rewriting the metric exports every few seconds.

    Long serving runs die by SIGKILL/OOM without unwinding the
    ``recording()`` context; with ``--metrics-flush-interval`` the last
    flushed export survives the kill.  Flush errors are swallowed — a
    full disk must not take the measured command down.
    """

    def __init__(self, rec, args, argv, interval: float) -> None:
        import threading

        self._rec = rec
        self._args = args
        self._argv = argv
        self._interval = interval
        self._stop = threading.Event()
        self._thread = threading.Thread(
            target=self._loop, name="metrics-flusher", daemon=True
        )

    def _loop(self) -> None:
        while not self._stop.wait(self._interval):
            try:
                _export_outputs(self._rec, self._args, self._argv)
            except Exception:  # noqa: BLE001 - keep flushing next tick
                logger.debug("periodic metrics flush failed", exc_info=True)

    def __enter__(self) -> "_PeriodicFlusher":
        self._thread.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self._stop.set()
        self._thread.join()


def main(argv: Optional[List[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    obs.configure(args.verbose - args.quiet)
    handler = _HANDLERS[args.command]

    if args.trace is None and args.metrics_out is None:
        return handler(args) or 0

    recorded_argv = list(argv or sys.argv[1:])
    with obs.recording() as rec:
        if args.metrics_flush_interval > 0:
            with _PeriodicFlusher(
                rec, args, recorded_argv, args.metrics_flush_interval
            ):
                status = handler(args) or 0
        else:
            status = handler(args) or 0
    _export_outputs(rec, args, recorded_argv)
    if args.trace is not None:
        logger.info("trace written to %s", args.trace)
    if args.metrics_out is not None:
        logger.info("metrics written to %s", args.metrics_out)
    return status


# -- command handlers -----------------------------------------------------------


def _cmd_info(args) -> None:
    import repro

    logger.info("repro %s", repro.__version__)
    logger.info("%s", __doc__)
    logger.info("networks:")
    for name in sorted(NETWORK_SPECS):
        spec = get_network_spec(name)
        logger.info("  %s: %s, ...", name, spec.describe()["Conv Layer 1"])


def _cmd_fig1(args) -> None:
    evaluation = evaluate_design("network1", "dac_adc")
    logger.info(
        "%s", format_table(breakdown_rows(evaluation.cost), floatfmt="{:.3f}")
    )
    logger.info(
        "\nADC+DAC: %.1f%% power, %.1f%% area",
        100 * evaluation.cost.energy_share("adc", "dac"),
        100 * evaluation.cost.area_share("adc", "dac"),
    )


def _cmd_table1(args) -> None:
    from repro.analysis import conv_output_distribution
    from repro.zoo import get_dataset, get_quantized

    dataset = get_dataset()
    rows = []
    for name in sorted(NETWORK_SPECS):
        model = get_quantized(name, dataset=dataset)
        dist = conv_output_distribution(
            model.search.network, dataset.train.images[:500]
        )
        for layer, fractions in dist.items():
            rows.append(
                {
                    "network": name,
                    "layer": layer,
                    "0~1/16": fractions[0],
                    "1/16~1/8": fractions[1],
                    "1/8~1/4": fractions[2],
                    "1/4~1": fractions[3],
                }
            )
    logger.info("%s", format_table(rows, floatfmt="{:.4f}"))


def _cmd_table2(args) -> None:
    rows = [
        {"network": name, **get_network_spec(name).describe()}
        for name in sorted(NETWORK_SPECS)
    ]
    logger.info("%s", format_table(rows))


def _cmd_table3(args) -> None:
    from repro.zoo import get_dataset, get_quantized

    dataset = get_dataset()
    rows = []
    for name in sorted(NETWORK_SPECS):
        model = get_quantized(name, dataset=dataset)
        rows.append(
            {
                "network": name,
                "before quant (%)": 100 * model.float_test_error,
                "after quant (%)": 100 * model.quantized_test_error,
            }
        )
    logger.info("%s", format_table(rows))


def _cmd_table5(args) -> None:
    logger.info("%s", format_table(table5_rows()))
    logger.info("")
    logger.info("%s", format_table(reference_efficiency_rows()))


def _cmd_quantize(args) -> None:
    from repro.zoo import get_dataset, get_quantized

    dataset = get_dataset()
    model = get_quantized(args.network, dataset=dataset)
    # Re-measure through the binarized network rather than echoing the
    # cached number: the command reports what the artifact does *now*,
    # and a traced run records the layer activity even on a cache hit.
    with obs.span(
        "quantize.evaluate", network=args.network, samples=len(dataset.test)
    ):
        quantized_error = model.search.binarized().error_rate(
            dataset.test.images, dataset.test.labels
        )
    logger.info("float test error:     %.2f%%", 100 * model.float_test_error)
    logger.info("quantized test error: %.2f%%", 100 * quantized_error)
    logger.info("thresholds:")
    for layer, threshold in model.search.thresholds.items():
        logger.info(
            "  layer %d: %.4f (rescaled by %.3f)",
            layer,
            threshold,
            model.search.divisors[layer],
        )


def _cmd_split(args) -> None:
    from repro.core import SplitConfig, build_split_network
    from repro.zoo import get_dataset, get_quantized

    dataset = get_dataset()
    model = get_quantized(args.network, dataset=dataset)
    result = build_split_network(
        model.search.network,
        model.search.thresholds,
        dataset.train.images,
        dataset.train.labels,
        SplitConfig(
            max_crossbar_size=args.crossbar,
            partition_method=args.method,
            dynamic=args.dynamic,
        ),
    )
    error = result.binarized.error_rate(
        dataset.test.images, dataset.test.labels
    )
    logger.info(
        "unsplit quantized error: %.2f%%", 100 * model.quantized_test_error
    )
    logger.info(
        "split error (%s, crossbar %d): %.2f%%",
        args.method,
        args.crossbar,
        100 * error,
    )
    for index, report in result.reports.items():
        logger.info(
            "  layer %d: %d blocks, vote %s, Equ.10 distance %.4f "
            "(natural %.4f)",
            index,
            report.num_blocks,
            report.decision.vote_threshold,
            report.distance,
            report.natural_distance,
        )


def _cmd_tradeoff(args) -> None:
    logger.info(
        "%s", format_table(power_time_tradeoff(args.network, args.structure))
    )
    logger.info("")
    logger.info("%s", format_table(buffer_plan(args.network, args.structure)))


def _cmd_datasheet(args) -> None:
    from repro.arch import chip_datasheet
    from repro.hw import TechnologyModel

    sheet = chip_datasheet(
        args.network,
        args.structure,
        tech=TechnologyModel().with_crossbar_size(args.crossbar),
        replication=args.replication,
    )
    logger.info("%s", sheet.render())


def _session_engine_spec(args):
    """The :class:`EngineSpec` a session subcommand's flags describe."""
    from repro.core.engines import EngineSpec
    from repro.core.estimate import EstimatorPolicy

    return EngineSpec(
        args.engine,
        estimator=EstimatorPolicy(
            mode=args.estimator, confidence=args.confidence
        ),
    )


def _cmd_infer(args) -> None:
    from repro import api
    from repro.zoo import get_dataset

    dataset = get_dataset()
    session = api.compile(
        args.network, engine=_session_engine_spec(args), tile=args.tile
    )
    images = dataset.test.images[: args.count]
    labels = dataset.test.labels[: args.count]
    predictions = session.classify(images)
    correct = int((predictions == labels).sum())
    logger.info("session: %r", session)
    logger.info("predictions: %s", predictions.tolist())
    logger.info("labels:      %s", labels.tolist())
    logger.info(
        "correct: %d/%d (%.1f%%)",
        correct,
        len(images),
        100 * correct / len(images),
    )


def _slo_config(args):
    from repro.obs import SloConfig

    return SloConfig(
        window_s=args.slo_window,
        p99_ms=args.slo_p99_ms,
        max_error_rate=args.slo_error_rate,
        max_joules_per_request=args.slo_joules_per_request,
    )


def _drive_requests(batcher, requests, clients: int):
    """Fan ``requests`` across ``clients`` submitter threads; gather all."""
    import threading

    import numpy as np

    futures = [None] * len(requests)

    def client(offset: int) -> None:
        for i in range(offset, len(requests), clients):
            futures[i] = batcher.submit(requests[i])

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(clients)
    ]
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    return np.stack([f.result() for f in futures])


def _cmd_serve(args) -> None:
    import time

    import numpy as np

    from repro import api
    from repro.serve import BatcherConfig
    from repro.zoo import get_dataset

    dataset = get_dataset()
    images = dataset.test.images
    requests = [images[i % len(images)] for i in range(args.requests)]
    batcher_config = BatcherConfig(
        max_batch_size=args.batch_size,
        max_delay_ms=args.delay_ms,
        max_queue_depth=args.queue,
        workers=args.workers,
    )

    if args.listen is not None:
        session = api.compile(
            args.network, engine=_session_engine_spec(args), tile=args.tile
        )
        batcher, plane, server = session.serve_live(
            batcher_config, slo=_slo_config(args), listen=args.listen
        )
        logger.info("telemetry plane: %s/metrics", server.url)
        if args.port_file is not None:
            Path(args.port_file).write_text(server.url + "\n")
        start = time.perf_counter()
        outputs = _drive_requests(batcher, requests, args.clients)
        # Keep looping the request set so scrapers see a *live* window,
        # until the requested duration elapses.
        while time.perf_counter() - start < args.duration:
            _drive_requests(batcher, requests, args.clients)
        elapsed = time.perf_counter() - start
        from repro.obs import render_dashboard

        logger.info("%s", render_dashboard(plane.sample()))
        server.stop()
        batcher.stop()
        plane.uninstall()
    else:
        batcher = api.serve(
            args.network,
            engine=_session_engine_spec(args),
            tile=args.tile,
            batcher=batcher_config,
        )
        # Split the requests across concurrent client threads, the
        # traffic pattern the micro-batcher exists for.
        start = time.perf_counter()
        outputs = _drive_requests(batcher, requests, args.clients)
        elapsed = time.perf_counter() - start
        batcher.stop()

    served = batcher.stats.requests
    logger.info("served %d requests in %.3fs (%.0f req/s)",
                served, elapsed, served / elapsed if elapsed else 0.0)
    for key, value in batcher.stats.as_dict().items():
        logger.info("  %s: %s", key, value)
    logger.info(
        "prediction histogram: %s",
        np.bincount(np.argmax(outputs, axis=1), minlength=10).tolist(),
    )


def _cmd_loadgen(args) -> int:
    from repro import api
    from repro.serve import (
        GatewayConfig,
        LoadProfile,
        generate_schedule,
        load_trace,
        run_load,
        save_trace,
        stationary_rate,
    )
    from repro.zoo import get_dataset

    rate = 150.0 if args.quick else args.rate
    duration = 1.0 if args.quick else args.duration
    if args.replay is not None:
        profile = load_trace(args.replay)
    else:
        profile = LoadProfile(
            kind=args.profile,
            rate=rate,
            duration_s=duration,
            burst_rate=args.burst_rate,
            burst_dwell_s=args.burst_dwell,
            calm_dwell_s=args.calm_dwell,
            period_s=args.period,
            amplitude=args.amplitude,
        )
    schedule = generate_schedule(profile, seed=args.seed)
    if args.save_trace_path is not None:
        save_trace(args.save_trace_path, schedule, profile, seed=args.seed)
        logger.info("trace written to %s", args.save_trace_path)
    images = get_dataset().test.images
    config = GatewayConfig(
        shards=args.shards,
        rate=args.rate_limit,
        max_in_flight=args.max_in_flight,
    )
    gateway = api.gateway(
        args.network,
        config=config,
        engine=_session_engine_spec(args),
        tile=args.tile,
    )
    try:
        report = run_load(
            lambda x: gateway.submit(x, tenant=args.network),
            schedule,
            lambda i: images[i % len(images)],
        )
        report["gateway"] = gateway.stats()
    finally:
        gateway.stop()
    report["profile"] = {
        "kind": profile.kind,
        "seed": args.seed,
        "stationary_rate_rps": round(stationary_rate(profile), 3),
        "arrivals": len(schedule),
    }
    report["shards"] = args.shards
    logger.info(
        "offered %.0f req/s -> served %.0f req/s  "
        "(ok=%d rejected=%d errors=%d)",
        report["offered_rate_rps"],
        report["throughput_rps"],
        report["ok"],
        report["rejected"],
        report["errors"] + report["dead"],
    )
    logger.info(
        "latency p50=%s p95=%s p99=%s p999=%s (ms)",
        report["p50_ms"],
        report["p95_ms"],
        report["p99_ms"],
        report["p999_ms"],
    )
    if args.report is not None:
        _write_export(report, args.report)
        logger.info("report written to %s", args.report)
    # A smoke run fails only if nothing was served at all.
    return 0 if report["ok"] > 0 else 1


def _watch_plane():
    """A self-contained synthetic serving plane for ``top --watch``.

    Builds a micro-batcher over a fake compute target that sleeps
    ~200µs and records plausible ``hw/layer*`` activity (so the power
    column is live), plus a driver thread submitting a steady trickle
    of requests.  Returns ``(plane, stop_callable)``.  No model cache,
    no network, no server — the file-free mode tests rely on.
    """
    import threading
    import time as _time

    import numpy as np

    from repro.obs import TelemetryPlane, active
    from repro.obs.power import record_mvm_batch
    from repro.serve import BatcherConfig, MicroBatcher

    rng = np.random.default_rng(0)

    def fake_infer(batch: np.ndarray) -> np.ndarray:
        _time.sleep(2e-4)
        rec = active()
        if rec is not None:
            bits = (
                rng.random((len(batch), 64)) < 0.25
            ).astype(np.float64)
            active_rows = int(bits.sum())
            positions = len(batch) * 16
            decided = (positions * 3) // 4
            record_mvm_batch(
                rec.metrics,
                0,
                bits,
                16,
                cells_per_weight=2,
                # A plausible estimator signature so the skip gauges in
                # the dashboard are live: ~40% of active rows skipped,
                # ~75% of output bits decided early.
                skipped_rows=(active_rows * 2) // 5,
                skipped_slots=(bits.size * 2) // 5,
                est_positions=positions,
                est_decided=decided,
                sa_events=positions - decided,
            )
        return np.zeros((len(batch), 10))

    plane = TelemetryPlane().install()
    batcher = plane.attach(
        MicroBatcher(
            fake_infer, BatcherConfig(max_batch_size=8, max_delay_ms=1.0)
        ).start()
    )
    stop = threading.Event()

    def drive() -> None:
        sample = np.zeros(4)
        while not stop.is_set():
            try:
                batcher.submit(sample, timeout=0.5)
            except Exception:  # noqa: BLE001 - demo traffic, keep going
                pass
            _time.sleep(2e-3)

    driver = threading.Thread(target=drive, name="top-demo", daemon=True)
    driver.start()

    def shutdown() -> None:
        stop.set()
        driver.join()
        batcher.stop()
        plane.uninstall()

    return plane, shutdown


def _cmd_top(args) -> int:
    import time

    from repro.obs import render_dashboard

    if args.url is None and not args.watch:
        logger.error("top needs --url URL (poll a server) or --watch")
        return 2

    fetch = None
    shutdown = None
    if args.watch:
        plane, shutdown = _watch_plane()
        fetch = lambda: plane.sample()  # noqa: E731
    else:
        import json as _json
        from urllib.request import urlopen

        endpoint = args.url.rstrip("/") + "/metrics.json"

        def fetch():
            with urlopen(endpoint, timeout=5.0) as response:
                return _json.loads(response.read())["status"]

    frame = 0
    try:
        while True:
            frame += 1
            print(render_dashboard(fetch()), flush=True)
            if args.frames and frame >= args.frames:
                break
            time.sleep(args.interval)
    except KeyboardInterrupt:
        pass
    finally:
        if shutdown is not None:
            shutdown()
    return 0


def _cmd_conformance(args) -> int:
    from repro.testing.conformance import ConformanceConfig, run_conformance

    engines = tuple(e.strip() for e in args.engines.split(",") if e.strip())
    config = ConformanceConfig(
        cases=20 if args.quick else args.cases,
        seed=args.seed,
        engines=engines,
        estimator=args.estimator,
        golden_dir=Path(args.golden) if args.golden else None,
        update_golden=args.update_golden,
        self_check=not args.no_self_check,
        artifacts_dir=Path(args.artifacts) if args.artifacts else None,
        campaign=args.campaign and not args.quick,
    )
    report = run_conformance(config)
    for line in report.summary_lines():
        logger.info("%s", line)
    if args.report:
        _write_export(report.as_dict(), args.report)
        logger.info("report written to %s", args.report)
    return 0 if report.ok else 1


def _cmd_explore(args) -> int:
    from repro.dse import (
        available_studies,
        build_report,
        get_study,
        render_markdown,
        report_json,
        run_study,
    )

    if args.list_studies:
        for name in available_studies():
            logger.info("%s", name)
        return 0

    name = args.study
    limit = args.limit
    if args.quick and not name.endswith("_quick"):
        if f"{name}_quick" in available_studies():
            name = f"{name}_quick"
        elif not limit:
            limit = 8

    overrides = {}
    if args.seed is not None:
        overrides["seed"] = args.seed
    if args.samples is not None:
        overrides["eval_samples"] = args.samples
    if args.timeout is not None:
        overrides["timeout_s"] = args.timeout
    study = get_study(name, **overrides)

    with obs.span(
        "cli.explore", study=study.name, workers=args.workers, limit=limit
    ):
        result = run_study(
            study,
            workers=args.workers,
            store_root=None if args.out is None else Path(args.out),
            limit=limit,
        )
        report = build_report(result)

    logger.info(
        "study %s: %d/%d candidate(s) complete (%d resumed, %d failed), "
        "store %s",
        study.name,
        report["counts"]["completed"],
        report["counts"]["candidates"],
        result.skipped,
        report["counts"]["failed"],
        result.store.directory,
    )
    logger.info("%s", render_markdown(report))
    if args.json_out is not None:
        target = Path(args.json_out)
        if str(target.parent) not in ("", "."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(report_json(report))
        logger.info("report JSON written to %s", args.json_out)
    if args.report is not None:
        target = Path(args.report)
        if str(target.parent) not in ("", "."):
            target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(render_markdown(report))
        logger.info("markdown report written to %s", args.report)
    return 0 if report["counts"]["completed"] else 1


_HANDLERS = {
    "info": _cmd_info,
    "fig1": _cmd_fig1,
    "table1": _cmd_table1,
    "table2": _cmd_table2,
    "table3": _cmd_table3,
    "table5": _cmd_table5,
    "quantize": _cmd_quantize,
    "split": _cmd_split,
    "tradeoff": _cmd_tradeoff,
    "datasheet": _cmd_datasheet,
    "infer": _cmd_infer,
    "serve": _cmd_serve,
    "loadgen": _cmd_loadgen,
    "top": _cmd_top,
    "conformance": _cmd_conformance,
    "explore": _cmd_explore,
}


if __name__ == "__main__":
    sys.exit(main())
