"""Serving benchmark: micro-batched concurrent requests vs one-at-a-time.

Drives the ``repro.serve`` stack end to end on a warm network2 session
(fused SEI engine, noiseless) and records the results in
``BENCH_serve.json`` at the repo root:

* **one-at-a-time** — each request runs its own ``session.infer`` call,
  the way a naive request loop would use the pipeline;
* **micro-batched** — the same requests submitted concurrently from
  several client threads through a :class:`repro.serve.MicroBatcher`,
  whose free workers each take whatever is queued (up to the batch
  size) and run it;
* **sharded gateway** — closed-loop saturation throughput of the
  :class:`repro.serve.AsyncGateway` at 1/(2/)4 shards over a tenant
  with a calibrated per-batch service time, plus an open-loop bursty
  loadgen pass (latency quantiles, rejection rate) against the largest
  deployment.  Target: the 4-shard plane sustains >= 3x the
  single-shard saturation throughput.

Both paths execute in the session's fixed hardware tiles, so the logits
are **bit-identical** request for request (asserted here); the speedup
is pure request-coalescing: one tile-sized forward pass amortises the
whole per-call layer overhead across ``tile`` requests.  Target: >= 3x.

For transparency the report also records the *untiled* single-sample
rate (``tile=1``) — the absolute baseline a session pays when batching
is disabled entirely.

Run as a script (the CI smoke check uses ``--quick``)::

    PYTHONPATH=src python benchmarks/bench_serve.py [--quick]
"""

from __future__ import annotations

import argparse
import json
import sys
import threading
import time
from pathlib import Path

import numpy as np

from repro import obs
from repro.serve import BatcherConfig, SessionConfig, compile_session

#: Speedup the micro-batched path must clear over one-at-a-time (full mode).
SERVE_TARGET = 3.0

#: 4-shard gateway saturation throughput must clear this multiple of the
#: single-shard saturation throughput (full mode).
GATEWAY_TARGET = 3.0

#: Calibrated per-batch service time of the synthetic gateway tenant.
#: ``time.sleep`` releases the GIL, so N shards' workers genuinely
#: overlap even on a single-core runner — the scaling number measures
#: the gateway plane (routing, admission, hand-off), not numpy's
#: ability to parallelise compute it does not have cores for.
GATEWAY_SERVICE_S = 0.4
GATEWAY_BATCH = 8
GATEWAY_WORKERS = 2

#: A scraped telemetry plane may cost at most this much throughput
#: versus the same workload with nobody polling ``/metrics``.
SCRAPE_OVERHEAD_TARGET = 0.02

BENCH_NETWORK = "network2"
DEFAULT_OUTPUT = Path(__file__).resolve().parent.parent / "BENCH_serve.json"


def _drive_concurrent(batcher, requests, clients: int):
    """Submit ``requests`` from ``clients`` threads; ordered results."""
    futures = [None] * len(requests)

    def client(offset: int) -> None:
        for i in range(offset, len(requests), clients):
            futures[i] = batcher.submit(requests[i])

    threads = [
        threading.Thread(target=client, args=(c,)) for c in range(clients)
    ]
    start = time.perf_counter()
    for t in threads:
        t.start()
    for t in threads:
        t.join()
    outputs = np.stack([f.result(timeout=120) for f in futures])
    elapsed = time.perf_counter() - start
    return outputs, elapsed


def bench_serve(quick: bool) -> dict:
    requests_count = 32 if quick else 512
    clients = 2 if quick else 4
    workers = 2
    tile = 16
    repeats = 1 if quick else 3

    session = compile_session(SessionConfig(network=BENCH_NETWORK, tile=tile))
    from repro.zoo import get_dataset

    images = get_dataset().test.images
    requests = [images[i % len(images)] for i in range(requests_count)]

    # Warm both paths (first forward pass pays one-off layer setup).
    session.infer(requests[0])

    # -- one-at-a-time: a naive serial request loop ---------------------
    best_sequential = float("inf")
    sequential_outputs = None
    for _ in range(repeats):
        start = time.perf_counter()
        outputs = np.stack([session.infer(x) for x in requests])
        best_sequential = min(best_sequential, time.perf_counter() - start)
        sequential_outputs = outputs

    # -- micro-batched: concurrent clients through the batcher ----------
    config = BatcherConfig(
        max_batch_size=64,
        max_queue_depth=max(64, requests_count),
        workers=workers,
    )
    best_batched = float("inf")
    batched_outputs = None
    stats = None
    for _ in range(repeats):
        with session.batcher(config) as batcher:
            outputs, elapsed = _drive_concurrent(batcher, requests, clients)
        best_batched = min(best_batched, elapsed)
        batched_outputs = outputs
        stats = batcher.stats.as_dict()

    identical = bool(np.array_equal(sequential_outputs, batched_outputs))
    if not identical:
        raise AssertionError(
            "micro-batched outputs are not bit-identical to one-at-a-time "
            "inference — fixed-tile execution is broken"
        )

    # -- transparency: the untiled (tile=1) single-sample floor ---------
    untiled = compile_session(
        SessionConfig(network=BENCH_NETWORK, tile=1)
    )
    untiled.infer(requests[0])
    probe = requests[: min(64, requests_count)]
    start = time.perf_counter()
    for x in probe:
        untiled.infer(x)
    untiled_rate = len(probe) / (time.perf_counter() - start)

    ratio = best_sequential / best_batched
    return {
        "network": BENCH_NETWORK,
        "requests": requests_count,
        "clients": clients,
        "workers": workers,
        "tile": tile,
        "max_batch_size": config.max_batch_size,
        "sequential_seconds": best_sequential,
        "batched_seconds": best_batched,
        "sequential_requests_per_second": requests_count / best_sequential,
        "batched_requests_per_second": requests_count / best_batched,
        "untiled_single_sample_rate": untiled_rate,
        "speedup": ratio,
        "target": SERVE_TARGET,
        "target_met": ratio >= SERVE_TARGET,
        "bit_identical": identical,
        "batcher_stats": stats,
    }


def _calibrated_tenant():
    """A deterministic tenant with a fixed per-batch service time.

    Output row i encodes input row i, so gateway responses stay
    checkable; the constant ``sleep`` stands in for a device with a
    fixed batch latency.
    """

    def infer_batch(images: np.ndarray) -> np.ndarray:
        time.sleep(GATEWAY_SERVICE_S)
        return np.asarray(images) * 2.0 + 1.0

    return infer_batch


def _balanced_keys(shard_ids, replicas: int, per_shard: int):
    """Routing keys interleaved so every shard gets equal load.

    The gateway hashes keys onto its consistent ring; a saturation
    probe that wants each shard fed at capacity needs keys whose owners
    rotate shard by shard, so it pre-computes pools per owner on an
    identical ring (same shard ids, same replica count -> same BLAKE2b
    placement) and interleaves them.
    """
    from repro.serve import ConsistentRouter

    router = ConsistentRouter(shard_ids, replicas=replicas)
    pools = {sid: [] for sid in shard_ids}
    i = 0
    while any(len(pool) < per_shard for pool in pools.values()):
        key = f"req-{i}"
        owner = router.route(f"default#{key}")
        if len(pools[owner]) < per_shard:
            pools[owner].append(key)
        i += 1
    return [pools[sid][j] for j in range(per_shard) for sid in shard_ids]


def bench_gateway(quick: bool) -> dict:
    """Sharded gateway saturation scaling + an open-loop loadgen pass.

    Measures the closed-loop saturation throughput of the gateway at 1,
    (2,) and 4 shards over the calibrated tenant; the 4-vs-1 ratio is
    the ``speedup`` the regression guard tracks (target >= 3x in full
    mode).  The max-shard deployment is then driven open-loop with the
    seeded bursty (MMPP-2) profile and the latency/rejection report is
    recorded for transparency.
    """
    import itertools

    from repro.serve import (
        AsyncGateway,
        GatewayConfig,
        LoadProfile,
        measure_saturation,
        run_profile,
    )

    shard_counts = [1, 4] if quick else [1, 2, 4]
    # Two in-flight batch slots per wave at 0.4 s each: the duration
    # spans a couple of full waves so edge truncation stays small.
    duration = 1.7 if quick else 2.6
    repeats = 1 if quick else 3
    payload = np.zeros(16)
    expected = (payload * 2.0 + 1.0).tobytes()
    saturation = {}
    loadgen_report = None
    for n in shard_counts:
        config = GatewayConfig(
            shards=n,
            max_in_flight=4096,
            submit_timeout_s=10.0,
            batcher=BatcherConfig(
                max_batch_size=GATEWAY_BATCH,
                workers=GATEWAY_WORKERS,
                max_queue_depth=4096,
            ),
        )
        with AsyncGateway({"default": _calibrated_tenant}, config=config) as gw:
            if gw.infer(payload).tobytes() != expected:
                raise AssertionError(
                    "gateway response does not match the inline tenant"
                )
            keys = itertools.cycle(
                _balanced_keys(gw.shard_ids, config.replicas, 1024)
            )
            best = None
            for _ in range(repeats):
                probe = measure_saturation(
                    lambda x: gw.submit(x, key=next(keys)),
                    payload,
                    duration_s=duration,
                    concurrency=32 * n,
                )
                if (
                    best is None
                    or probe["throughput_rps"] > best["throughput_rps"]
                ):
                    best = probe
            saturation[str(n)] = best
            if n == max(shard_counts):
                profile = LoadProfile(
                    kind="bursty",
                    rate=120.0,
                    burst_rate=480.0,
                    burst_dwell_s=0.05,
                    calm_dwell_s=0.2,
                    duration_s=1.0 if quick else 2.0,
                )
                loadgen_report = run_profile(
                    gw.submit, profile, payload, seed=0
                )

    base = saturation[str(shard_counts[0])]["throughput_rps"]
    peak = saturation[str(max(shard_counts))]["throughput_rps"]
    ratio = peak / base
    return {
        "service_seconds_per_batch": GATEWAY_SERVICE_S,
        "max_batch_size": GATEWAY_BATCH,
        "workers_per_shard": GATEWAY_WORKERS,
        "shard_counts": shard_counts,
        "saturation": saturation,
        "speedup": ratio,
        "target": GATEWAY_TARGET,
        "target_met": ratio >= GATEWAY_TARGET,
        "loadgen": loadgen_report,
    }


def _run_live(session, requests, clients, config, scrape: bool) -> dict:
    """One micro-batched pass with a live telemetry plane attached.

    ``scrape=True`` also runs the HTTP exposition server with a poller
    thread hammering ``/metrics`` every ~50ms — the cost a production
    Prometheus scraper (far less frequent) can never exceed.
    """
    from urllib.request import urlopen

    from repro import obs as _obs
    from repro.obs import TelemetryPlane

    _obs.disable()  # fresh recorder per phase: clean windows, fair cost
    plane = TelemetryPlane().install()
    batcher = plane.attach(session.serve(config))
    stop = threading.Event()
    scrapes = [0]
    server = poller = None
    if scrape:
        server = plane.serve()
        endpoint = server.url + "/metrics"

        def poll() -> None:
            while not stop.is_set():
                try:
                    urlopen(endpoint, timeout=5).read()
                    scrapes[0] += 1
                except Exception:  # noqa: BLE001 - keep polling
                    pass
                stop.wait(0.05)

        poller = threading.Thread(target=poll, daemon=True)
        poller.start()
    try:
        _, elapsed = _drive_concurrent(batcher, requests, clients)
        sample = plane.sample()
    finally:
        stop.set()
        if poller is not None:
            poller.join()
        if server is not None:
            server.stop()
        batcher.stop()
        _obs.disable()
    latency = plane.recorder.metrics.histogram("serve/latency_ms")
    return {
        "seconds": elapsed,
        "requests_per_second": len(requests) / elapsed,
        "scrapes": scrapes[0],
        "latency_ms": {
            "p50": latency.quantile(0.50),
            "p95": latency.quantile(0.95),
            "p99": latency.quantile(0.99),
            "p999": latency.quantile(0.999),
        },
        "window": {
            key: sample["window"].get(key)
            for key in (
                "p50_ms",
                "p99_ms",
                "requests_per_second",
                "joules_per_request",
                "power_saving_vs_static",
            )
        },
    }


def bench_telemetry(quick: bool) -> dict:
    """Scrape-overhead measurement: live plane unscraped vs scraped.

    The full run uses a longer request stream than the speedup section:
    a scrape's cost only means anything relative to a workload at least
    a few scrape intervals long (quick mode's number is smoke only).
    """
    requests_count = 64 if quick else 2048
    clients = 2 if quick else 4
    tile = 16

    session = compile_session(SessionConfig(network=BENCH_NETWORK, tile=tile))
    from repro.zoo import get_dataset

    images = get_dataset().test.images
    requests = [images[i % len(images)] for i in range(requests_count)]
    session.infer(requests[0])

    config = BatcherConfig(
        max_batch_size=64,
        max_queue_depth=max(64, requests_count),
        workers=2,
    )
    repeats = 1 if quick else 3
    unscraped = scraped = None
    for _ in range(repeats):
        candidate = _run_live(session, requests, clients, config, False)
        if unscraped is None or candidate["seconds"] < unscraped["seconds"]:
            unscraped = candidate
    for _ in range(repeats):
        candidate = _run_live(session, requests, clients, config, True)
        if scraped is None or candidate["seconds"] < scraped["seconds"]:
            scraped = candidate

    overhead = 1.0 - (
        scraped["requests_per_second"] / unscraped["requests_per_second"]
    )
    return {
        "requests": requests_count,
        "clients": clients,
        "unscraped": unscraped,
        "scraped": scraped,
        "scrape_overhead": overhead,
        "scrape_overhead_target": SCRAPE_OVERHEAD_TARGET,
        "scrape_overhead_met": overhead <= SCRAPE_OVERHEAD_TARGET,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--quick", action="store_true",
        help="32 requests, 2 clients, single timing run (CI smoke check)",
    )
    parser.add_argument(
        "--output", type=Path, default=DEFAULT_OUTPUT,
        help=f"where to write the JSON report (default {DEFAULT_OUTPUT})",
    )
    args = parser.parse_args(argv)

    print(f"== Micro-batched serving ({BENCH_NETWORK}) ==")
    result = bench_serve(args.quick)
    print(
        f"  one-at-a-time {result['sequential_requests_per_second']:.0f} "
        f"req/s  micro-batched {result['batched_requests_per_second']:.0f} "
        f"req/s  speedup {result['speedup']:.1f}x "
        f"(target >={result['target']:.0f}x)"
    )
    print(
        f"  bit-identical: {result['bit_identical']}  "
        f"mean batch {result['batcher_stats']['mean_batch_size']:.1f}  "
        f"untiled serial rate {result['untiled_single_sample_rate']:.0f} req/s"
    )

    print("== Sharded gateway saturation scaling ==")
    gateway = bench_gateway(args.quick)
    shards_line = "  ".join(
        f"{n} shard(s) "
        f"{gateway['saturation'][str(n)]['throughput_rps']:.0f} req/s"
        for n in gateway["shard_counts"]
    )
    print(f"  {shards_line}")
    print(
        f"  scaling {gateway['speedup']:.2f}x "
        f"(target >={gateway['target']:.0f}x)"
    )
    loadgen = gateway["loadgen"]
    print(
        f"  bursty loadgen: offered {loadgen['offered_rate_rps']:.0f} req/s "
        f"p50 {loadgen['p50_ms']:.1f}ms p99 {loadgen['p99_ms']:.1f}ms "
        f"rejected {loadgen['rejected']}"
    )

    print("== Telemetry plane scrape overhead ==")
    telemetry = bench_telemetry(args.quick)
    print(
        f"  unscraped {telemetry['unscraped']['requests_per_second']:.0f} "
        f"req/s  scraped {telemetry['scraped']['requests_per_second']:.0f} "
        f"req/s ({telemetry['scraped']['scrapes']} scrapes)  overhead "
        f"{100 * telemetry['scrape_overhead']:.2f}% "
        f"(target <={100 * telemetry['scrape_overhead_target']:.0f}%)"
    )
    window = telemetry["scraped"]["window"]
    quantiles = telemetry["scraped"]["latency_ms"]
    joules = window["joules_per_request"]
    print(
        f"  windowed p50 {quantiles['p50']:.2f}ms  p99 "
        f"{quantiles['p99']:.2f}ms  "
        + (
            f"energy {joules:.3e} J/req"
            if joules is not None
            else "energy n/a"
        )
    )

    report = {
        "generated_at": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "quick": args.quick,
        "manifest": obs.run_manifest(bench="serve"),
        "serving": result,
        "gateway": gateway,
        "telemetry": telemetry,
    }
    args.output.write_text(json.dumps(report, indent=2) + "\n")
    print(f"wrote {args.output}")

    # Quick mode is a smoke check (tiny workloads distort ratios); the
    # full run enforces the targets.
    if not args.quick and not result["target_met"]:
        print("serving speedup target NOT met", file=sys.stderr)
        return 1
    if not args.quick and not gateway["target_met"]:
        print("gateway saturation scaling target NOT met", file=sys.stderr)
        return 1
    if not args.quick and not telemetry["scrape_overhead_met"]:
        print("telemetry scrape overhead target NOT met", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
