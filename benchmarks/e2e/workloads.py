"""The benchmark's four workloads, driven through the package's public API.

Each workload has four steps, run in this order by ``run.py``:

``setup()``
    dataset, model load, and compiling + warming everything it times;
    returns the seconds each phase took.
``gate()``
    correctness checks on untimed passes; raises :class:`GateFailure`.
    The gate passes run under ``repro.obs.recording()``, so they also
    supply the deterministic metrics (error rate, energy, hw counters).
``measure(seconds, seed)``
    the untraced, timed run; every output is checked again.
``trace(seconds, seed, log)``
    a separate pass with spans around public calls (see ``spans.py``).

Metrics are ``name -> (value, unit, better)``.  Names without a variant
(``engine.L3_ms_per_ksample``) describe the workload's default network:
the fused engine for inference and serving, the software binarized
network that ``repro-cli quantize`` evaluates for quantization.
"""

from __future__ import annotations

import time
from typing import Dict, List

import numpy as np

from repro import api, obs, zoo
from repro.core.engines import EngineSpec
from repro.core.estimate import EstimatorPolicy
from repro.core.hardware_network import HardwareConfig
from repro.core.threshold_search import SearchConfig, search_thresholds
from repro.errors import BackpressureError
from repro.hw.device import RRAMDevice
from repro.serve.batcher import BatcherConfig
from repro.serve.gateway import AsyncGateway, GatewayConfig

from openloop import poisson_offsets, run_open_loop
from spans import SpanLog, layer_metrics, replay_tile

__all__ = ["GateFailure", "WORKLOADS"]

TILE = 16
#: Images per timed inference chunk: whole tiles, so no chunk pays for
#: padding, and every variant runs the same chunk in a round.  Short
#: chunks interleave the variants finely, so a stretch of contention on
#: the shared host lands on all of them rather than on one.
CHUNK = 8 * TILE
SMOKE_IMAGES = 96


class GateFailure(Exception):
    """An output failed its correctness check; nothing has been timed."""


def _now() -> float:
    return time.perf_counter()


def _median(values) -> float:
    return float(np.median(np.asarray(values, dtype=float)))


def _pct(values, q) -> float:
    return float(np.percentile(np.asarray(values, dtype=float), q))


def _error(logits, labels) -> float:
    return float(np.mean(np.argmax(logits, axis=1) != labels))


def hw_metrics(exported: dict, samples: int) -> dict:
    """Per-sample hardware counters and SEI energy from a recorded pass."""
    counters = exported["counters"]
    power = obs.power.estimate_from_metrics(exported)
    out = {}
    for index in (3, 7):
        key = f"hw/layer{index}/"
        out[f"hw.L{index}.active_rows_per_sample"] = (
            counters[key + "active_rows"] / samples, "rows", "lower")
        out[f"hw.L{index}.sa_events_per_sample"] = (
            counters[key + "sa_events"] / samples, "count", "lower")
    for index, layer in power["layers"].items():
        out[f"hw.L{index}.pj_per_sample"] = (
            layer["dynamic_pj"] / samples, "pJ", "lower")
    out["energy_pj_per_image"] = (
        power["total"]["dynamic_pj"] / samples, "pJ", "lower")
    return out


def skipped_slot_frac(exported: dict, name: str) -> dict:
    """Share of row slots the estimator skipped, per estimated layer."""
    counters, gauges = exported["counters"], exported["gauges"]
    out = {}
    for index in (3, 7):
        key = f"hw/layer{index}/"
        slots = counters[key + "positions"] * gauges[key + "rows"]
        out[f"hw.L{index}.skipped_slot_frac.{name}"] = (
            counters.get(key + "skipped_slots", 0) / slots, "fraction",
            "higher")
    return out


class Workload:
    """One named set of inputs; see the module docstring for the steps."""

    name = ""
    network = ""

    def __init__(self, smoke: bool = False) -> None:
        self.smoke = smoke
        self.metrics: Dict[str, tuple] = {}
        self.gates: List[str] = []
        self.attempted = 0
        self.failed = 0
        self.mismatches = 0

    def _load(self, load_model) -> dict:
        t0 = _now()
        self.dataset = zoo.get_dataset()
        t1 = _now()
        load_model()
        t2 = _now()
        test = self.dataset.test
        n = SMOKE_IMAGES if self.smoke else len(test)
        self.images, self.labels = test.images[:n], test.labels[:n]
        return {"dataset_s": t1 - t0, "model_load_s": t2 - t1}

    def _check(self, ok: bool, message: str) -> None:
        if not ok:
            raise GateFailure(f"{self.name}: {message}")
        self.gates.append(message)

    def _chunks(self, rng):
        """Seeded image order, cycled: every image gets its turn."""
        size = min(CHUNK, len(self.images))
        order = rng.permutation(len(self.images))
        position = 0
        while True:
            yield np.take(order, np.arange(position, position + size),
                          mode="wrap")
            position += size

    def _replay(self, log, variant, net, idx, expected) -> None:
        """Replay ``images[idx]`` tile by tile through ``run_layer``.

        ``expected`` holds the logits the untraced path gave for every
        image (None for engines that draw read noise); the replay must
        reproduce them, or the trace would time something else.
        """
        for start in range(0, len(idx), TILE):
            tile = idx[start : start + TILE]
            out = replay_tile(log, net, self.images[tile], TILE,
                              variant=variant)
            if expected is not None and not np.allclose(
                out, expected[tile], rtol=1e-9, atol=1e-12
            ):
                raise GateFailure(
                    f"{self.name}: {variant} layer replay differs from "
                    "the untraced logits"
                )

    def _replay_default(self, log, net, seconds, rng, expected) -> None:
        """Per-layer metrics of the default network, replayed for ``seconds``."""
        deadline = _now() + seconds
        for rounds, idx in enumerate(self._chunks(rng)):
            if rounds and _now() >= deadline:
                break
            self._replay(log, "default", net, idx, expected)
        self.metrics.update(layer_metrics(
            log, net, "engine.",
            where=lambda s: s.attrs.get("variant") == "default",
        ))

    def close(self) -> None:
        pass


# -- inference ---------------------------------------------------------------

#: Engine variants timed by the inference workloads: (engine, estimator).
VARIANTS = {
    "fused": ("fused", EstimatorPolicy()),
    "packed": ("packed", EstimatorPolicy()),
    "reference": ("reference", EstimatorPolicy()),
    "adc": ("adc", EstimatorPolicy()),
    "fused_est": (
        "fused", EstimatorPolicy(mode="exact", chunk_rows=128, group_check=1)),
    "fused_ckpt": (
        "fused", EstimatorPolicy(mode="exact", chunk_rows=16, group_check=4)),
    "packed_est": ("packed", EstimatorPolicy(mode="exact")),
}
#: Estimator variants and the estimator-off engine each must equal.
ESTIMATOR_OFF = {"fused_est": "fused", "fused_ckpt": "fused",
                 "packed_est": "packed"}
SEI_VARIANTS = ("fused", "packed", "fused_est", "fused_ckpt", "packed_est")
#: Noisy variants redraw read noise on every pass; a chunk must still
#: classify like the gate pass did on this share of its images (passes
#: measured 0.996 or more on network2).
NOISY_AGREEMENT = 0.97


class InferWorkload(Workload):
    device = RRAMDevice(bits=4)

    def setup(self) -> dict:
        phases = self._load(
            lambda: zoo.warm_model(self.network, dataset=self.dataset)
        )
        hardware = HardwareConfig(device=self.device)
        self.sessions = {}
        for name, (engine, policy) in VARIANTS.items():
            t0 = _now()
            session = api.compile(
                self.network,
                engine=EngineSpec(name=engine, hardware=hardware,
                                  estimator=policy),
                tile=TILE,
                dataset=self.dataset,
                reuse=False,
            )
            session.infer_batch(self.images[:TILE])
            phases[f"compile_s.{name}"] = _now() - t0
            self.sessions[name] = session
        phases["prepare_s"] = sum(
            v for k, v in phases.items() if k.startswith("compile_s.")
        )
        return phases

    def gate(self) -> None:
        logits, recorded = {}, {}
        for name, session in self.sessions.items():
            with obs.recording() as rec:
                logits[name] = session.infer_batch(self.images)
            recorded[name] = rec.metrics.as_dict()
        self._gate_logits(logits)
        self.expected = logits
        n = len(self.images)
        self.metrics["error_rate"] = (
            _error(logits["fused"], self.labels), "fraction", "lower")
        self.metrics.update(hw_metrics(recorded["fused"], n))
        for name in ESTIMATOR_OFF:
            self.metrics.update(skipped_slot_frac(recorded[name], name))

    def _gate_logits(self, logits) -> None:
        reference = logits["reference"]
        for name in SEI_VARIANTS:
            self._check(
                np.allclose(logits[name], reference, rtol=1e-9, atol=1e-12),
                f"{name} allclose to reference",
            )
        for name, off in ESTIMATOR_OFF.items():
            self._check(
                np.array_equal(logits[name], logits[off]),
                f"{name} equal to {off}",
            )
        adc = _error(logits["adc"], self.labels)
        self._check(adc <= 0.05, f"adc error {adc:.4f} <= 0.05")

    def _check_chunk(self, name, idx, out) -> bool:
        if self.sessions[name].deterministic:
            return np.array_equal(out, self.expected[name][idx])
        agree = np.mean(
            np.argmax(out, axis=1) == np.argmax(self.expected[name][idx], 1)
        )
        return bool(np.isfinite(out).all() and agree >= NOISY_AGREEMENT)

    def measure(self, seconds: float, seed: int) -> None:
        rng = np.random.default_rng(seed)
        names = list(self.sessions)
        chunk_s = {name: [] for name in names}
        tile_s = {name: [] for name in names}
        min_rounds = 1 if self.smoke else 3
        deadline = _now() + seconds
        for rounds, idx in enumerate(self._chunks(rng)):
            if rounds >= min_rounds and _now() >= deadline:
                break
            images = self.images[idx]
            # Rotate the order so no variant always runs first.
            shift = rounds % len(names)
            for name in names[shift:] + names[:shift]:
                session = self.sessions[name]
                outputs = []
                start = _now()
                for s in range(0, len(idx), TILE):
                    t0 = _now()
                    outputs.append(session.infer_batch(images[s : s + TILE]))
                    tile_s[name].append(_now() - t0)
                chunk_s[name].append(_now() - start)
                calls = len(outputs)
                self.attempted += calls
                if not self._check_chunk(name, idx, np.concatenate(outputs)):
                    self.failed += calls
                    self.mismatches += calls
        size = len(idx)
        for name in names:
            self.metrics[f"infer_sps.{name}"] = (
                _median([size / t for t in chunk_s[name]]), "samples/s",
                "higher")
        self.metrics["throughput"] = (
            self.metrics["infer_sps.fused"][0], "1/s", "higher")
        self.metrics["latency_ms"] = (
            _median(tile_s["fused"]) * 1e3, "ms", "lower")
        self.metrics["infer.rounds"] = (len(chunk_s["fused"]), "count",
                                        "higher")

    def trace(self, seconds: float, seed: int, log: SpanLog) -> None:
        # Same chunks and rotation as measure(), so the traced and
        # untraced passes differ only by the spans.
        rng = np.random.default_rng(seed)
        names = list(self.sessions)
        deadline = _now() + seconds
        for rounds, idx in enumerate(self._chunks(rng)):
            if rounds and _now() >= deadline:
                break
            shift = rounds % len(names)
            for name in names[shift:] + names[:shift]:
                session = self.sessions[name]
                expected = self.expected[name] if session.deterministic else None
                self._replay(log, name, session.hardware, idx, expected)
        for name, session in self.sessions.items():
            prefix = "engine." if name == "fused" else f"engine.{name}."
            self.metrics.update(layer_metrics(
                log, session.hardware, prefix,
                where=lambda s, n=name: s.attrs.get("variant") == n,
            ))
        fused = [s for s in log.spans
                 if s.name == "infer_batch" and s.attrs["variant"] == "fused"]
        traced = sum(s.duration for s in fused) / sum(
            s.attrs["samples"] for s in fused)
        untraced = 1.0 / self.metrics["infer_sps.fused"][0]
        self.metrics["trace.overhead_frac"] = (
            traced / untraced - 1.0, "fraction", "lower")


class InferN1Clean(InferWorkload):
    name = "infer-n1-clean"
    network = "network1"


class InferN2Noisy(InferWorkload):
    name = "infer-n2-noisy"
    network = "network2"
    device = RRAMDevice(bits=4, program_sigma=0.1, read_sigma=0.02)

    def _gate_logits(self, logits) -> None:
        agree = np.mean(
            np.argmax(logits["fused"], 1) == np.argmax(logits["reference"], 1)
        )
        self._check(agree >= 0.99,
                    f"fused/reference argmax agreement {agree:.4f} >= 0.99")


# -- serving -----------------------------------------------------------------


class TimedTenant:
    """The serving target wrapped to record each batch it executes.

    The wrapper hands the batcher a copy of each batch's logits that owns
    its memory.  The batcher answers request ``i`` with the view
    ``outputs[i]``, so a response's ``.base`` names the batch that
    computed it.
    """

    def __init__(self, session, log: SpanLog) -> None:
        self.session = session
        self.log = log
        self.batches = {}

    def infer_batch(self, images):
        start = _now()
        out = np.array(self.session.infer_batch(images))
        span = self.log.add("session.infer_batch", start, _now(),
                            samples=len(images))
        # Holding ``out`` keeps its id from being reused by a later batch.
        self.batches[id(out)] = (span, out)
        return out


class ServeN2Poisson(Workload):
    name = "serve-n2-poisson"
    network = "network2"
    NOMINAL_RPS = 400.0
    OVERLOAD_RPS = 4000.0
    #: Shares of the run spent in the nominal and overload phases.
    NOMINAL_SHARE = 0.65
    OVERLOAD_SHARE = 0.25
    P99_LIMIT_MS = 50.0

    def setup(self) -> dict:
        phases = self._load(
            lambda: zoo.warm_model(self.network, dataset=self.dataset)
        )
        t0 = _now()
        self.session = api.compile(
            self.network, engine=EngineSpec(), tile=TILE,
            dataset=self.dataset, reuse=False,
        )
        self.session.infer_batch(self.images[:TILE])
        self.gateway = self._start_gateway(self.session)
        self.gateway.infer(self.images[0])
        phases["prepare_s"] = _now() - t0
        return phases

    @staticmethod
    def _start_gateway(target) -> AsyncGateway:
        # 2 shards x 1 worker: one busy compute thread per core.
        config = GatewayConfig(
            shards=2,
            batcher=BatcherConfig(max_batch_size=64, max_delay_ms=2.0,
                                  workers=1),
        )
        return AsyncGateway(lambda: target, config).start()

    def gate(self) -> None:
        with obs.recording() as rec:
            self.inline = self.session.infer_batch(self.images)
        n = len(self.images)
        self.metrics["error_rate"] = (
            _error(self.inline, self.labels), "fraction", "lower")
        self.metrics.update(hw_metrics(rec.metrics.as_dict(), n))
        count = min(n, 64)
        futures = [self.gateway.submit(self.images[i]) for i in range(count)]
        same = all(
            np.array_equal(f.result(timeout=60), self.inline[i])
            for i, f in enumerate(futures)
        )
        self._check(same, f"{count} gateway responses equal inline logits")

    def _phase(self, gateway, rng, rate, seconds):
        offsets = poisson_offsets(rng, rate, seconds)
        indices = rng.integers(0, len(self.images), len(offsets))
        requests = run_open_loop(
            gateway.submit, offsets, indices, self.images,
            shed=(BackpressureError,),
        )
        for r in requests:
            if r.status == "ok" and not np.array_equal(
                r.output, self.inline[r.index]
            ):
                r.status = "mismatch"
        return requests

    def _batch_stats(self, gateway):
        requests = batches = 0
        for shard in gateway.health()["shards"].values():
            for stats in shard["batchers"].values():
                requests += stats["requests"]
                batches += stats["batches"]
        return requests, batches

    def measure(self, seconds: float, seed: int) -> None:
        rng = np.random.default_rng(seed)
        m = self.metrics
        before = self._batch_stats(self.gateway)
        t0 = _now()
        nominal = self._phase(self.gateway, rng, self.NOMINAL_RPS,
                              self.NOMINAL_SHARE * seconds)
        nominal_s = _now() - t0
        after = self._batch_stats(self.gateway)
        overload = self._phase(self.gateway, rng, self.OVERLOAD_RPS,
                               self.OVERLOAD_SHARE * seconds)
        for phase, shed_ok in ((nominal, False), (overload, True)):
            self.attempted += len(phase)
            bad = ("error", "mismatch") + (() if shed_ok else ("rejected",))
            self.failed += sum(r.status in bad for r in phase)
            self.mismatches += sum(r.status == "mismatch" for r in phase)

        ok = [r for r in nominal if r.status == "ok"]
        latency_ms = [r.latency_s * 1e3 for r in ok]
        m["latency_ms"] = (_median(latency_ms), "ms", "lower")
        m["serve.p99_ms"] = (_pct(latency_ms, 99), "ms", "lower")
        m["loadgen.lag_ms.p50"] = (
            _pct([r.lag_s * 1e3 for r in nominal], 50), "ms", "lower")
        m["loadgen.lag_ms.p99"] = (
            _pct([r.lag_s * 1e3 for r in nominal], 99), "ms", "lower")
        submit_us = [(r.submitted - r.sent) * 1e6 for r in nominal]
        m["gateway.submit_us.p50"] = (_pct(submit_us, 50), "us", "lower")
        m["gateway.submit_us.p99"] = (_pct(submit_us, 99), "us", "lower")
        requests, batches = (a - b for a, b in zip(after, before))
        m["batcher.batch_size.mean"] = (requests / batches, "requests",
                                        "higher")
        m["batcher.batches_per_s"] = (batches / nominal_s, "1/s", "lower")

        # Goodput at the nominal rate.  Capacity under overload is the
        # more telling number, but its run-to-run spread on a shared
        # 2-vCPU host exceeds any useful bound, so it is a diagnostic.
        m["throughput"] = (
            len(ok) / (max(r.done for r in ok) - min(r.due for r in nominal)),
            "1/s", "higher")
        m["serve.capacity_rps"] = (self._capacity(overload), "1/s", "higher")
        m["gateway.shed_frac"] = (
            sum(r.status == "rejected" for r in overload) / len(overload),
            "fraction", "lower")
        m["loadgen.lag_ms.overload_p99"] = (
            _pct([r.lag_s * 1e3 for r in overload], 99), "ms", "lower")

    @staticmethod
    def _capacity(overload, windows: int = 5) -> float:
        """Correct answers per second while the overload is offered.

        The median over equal windows of the steady part: after the
        first tenth (the in-flight window filling) and before the
        generator stops (the drain).
        """
        start = min(r.due for r in overload)
        end = max(r.sent for r in overload)
        edges = np.linspace(start + 0.1 * (end - start), end, windows + 1)
        done = np.array([r.done for r in overload if r.status == "ok"])
        counts, _ = np.histogram(done, bins=edges)
        return _median(counts / np.diff(edges))

    def _max_rate(self, rng, seconds: float) -> float:
        """Highest rate (bisected) whose p99 from due stays in the limit."""
        low, high = self.NOMINAL_RPS, self.metrics["serve.capacity_rps"][0]
        steps = 4
        for _ in range(steps):
            rate = (low + high) / 2
            requests = self._phase(self.gateway, rng, rate, seconds / steps)
            ok = [r.latency_s * 1e3 for r in requests if r.status == "ok"]
            if len(ok) == len(requests) and _pct(ok, 99) <= self.P99_LIMIT_MS:
                low = rate
            else:
                high = rate
        return low

    def trace(self, seconds: float, seed: int, log: SpanLog) -> None:
        rng = np.random.default_rng([seed, 1])
        m = self.metrics
        tenant = TimedTenant(self.session, log)
        gateway = self._start_gateway(tenant)
        try:
            gateway.infer(self.images[0])
            phase_s = 0.4 * seconds
            t0 = _now()
            requests = self._phase(gateway, rng, self.NOMINAL_RPS, phase_s)
            elapsed = _now() - t0
        finally:
            gateway.stop()
        waits = []
        for r in requests:
            span = log.add("request", r.due, r.done, status=r.status)
            log.add("gateway.submit", r.sent, r.submitted, parent=span.id)
            if r.status == "ok":
                batch, _ = tenant.batches[id(r.output.base)]
                span.attrs["batch"] = batch.id
                waits.append(r.latency_s - batch.duration)
        self.attempted += len(requests)
        self.failed += sum(r.status != "ok" for r in requests)
        self.mismatches += sum(r.status == "mismatch" for r in requests)
        batch_s = log.durations("session.infer_batch")
        samples = sum(s.attrs["samples"] for s in log.spans
                      if s.name == "session.infer_batch")
        tiles = sum(-(-s.attrs["samples"] // TILE) for s in log.spans
                    if s.name == "session.infer_batch")
        m["batcher.wait_ms.mean"] = (float(np.mean(waits)) * 1e3, "ms",
                                     "lower")
        m["session.batch_ms.p50"] = (_median(batch_s) * 1e3, "ms", "lower")
        m["session.busy_frac"] = (sum(batch_s) / (2 * elapsed), "fraction",
                                  "lower")
        m["session.tile_fill"] = (samples / (tiles * TILE), "fraction",
                                  "higher")
        traced_p50 = _median([r.latency_s for r in requests
                              if r.status == "ok"]) * 1e3
        m["trace.overhead_frac"] = (
            traced_p50 / m["latency_ms"][0] - 1.0, "fraction", "lower")
        m["serve.max_rps_p99_50ms"] = (
            self._max_rate(rng, 0.3 * seconds), "1/s", "higher")
        self._replay_default(log, self.session.hardware, 0.3 * seconds, rng,
                             self.inline)

    def close(self) -> None:
        gateway = getattr(self, "gateway", None)
        if gateway is not None:
            gateway.stop()


# -- quantization ------------------------------------------------------------


class QuantizeN2(Workload):
    name = "quantize-n2"
    network = "network2"
    #: Algorithm 1 on the first 2500 training images, two refine passes;
    #: the same search BENCH_perf_engine.json times.  The training subset
    #: is fixed, as in ``repro-cli quantize``: the seed does not change it.
    SAMPLES = 2500
    REFINE_PASSES = 2
    EXPECTED = {0: 0.105, 3: 0.07}

    def setup(self) -> dict:
        phases = self._load(self._load_network)
        t0 = _now()
        train = self.dataset.train
        # The warm-up search touches every code path on a small subset.
        search_thresholds(self.float_network, train.images[:256],
                          train.labels[:256], SearchConfig())
        phases["prepare_s"] = _now() - t0
        return phases

    def _load_network(self) -> None:
        self.float_network = zoo.get_trained_network(
            self.network, self.dataset
        )

    def _search(self):
        train = self.dataset.train
        return search_thresholds(
            self.float_network,
            train.images[: self.SAMPLES],
            train.labels[: self.SAMPLES],
            SearchConfig(refine_passes=self.REFINE_PASSES),
        )

    def gate(self) -> None:
        result = self._search()
        self._check(result.thresholds == self.EXPECTED,
                    f"thresholds {result.thresholds} == {self.EXPECTED}")
        self.binarized = result.binarized()
        with obs.recording() as rec:
            logits = self.binarized.predict(self.images)
        n = len(self.images)
        self.logits = logits
        self.metrics["error_rate"] = (_error(logits, self.labels),
                                      "fraction", "lower")
        self.metrics.update(hw_metrics(rec.metrics.as_dict(), n))

    def measure(self, seconds: float, seed: int) -> None:
        times = []
        deadline = _now() + seconds
        # Start another search only while at least half of one still fits
        # (3 searches at the default run length on an idle host).
        while len(times) < (1 if self.smoke else 2) or (
            _now() + times[-1] / 2 < deadline
        ):
            t0 = _now()
            result = self._search()
            times.append(_now() - t0)
            self.attempted += 1
            if result.thresholds != self.EXPECTED:
                self.failed += 1
                self.mismatches += 1
        search_s = _median(times)
        self.metrics["latency_ms"] = (search_s * 1e3, "ms", "lower")
        self.metrics["throughput"] = (self.SAMPLES / search_s, "1/s",
                                      "higher")
        self.metrics["search.repeats"] = (len(times), "count", "higher")

    def trace(self, seconds: float, seed: int, log: SpanLog) -> None:
        m = self.metrics
        with obs.recording() as rec:
            t0 = _now()
            result = self._search()
            traced_s = _now() - t0
        self.attempted += 1
        if result.thresholds != self.EXPECTED:
            self.failed += 1
            self.mismatches += 1
        # The package's spans start relative to its tracer's creation;
        # the search span opened right after t0.
        epoch = t0 - rec.tracer.roots[0].start_s
        _copy_obs_spans(log, rec.tracer.roots, epoch, None)
        spans = {}
        for root in rec.tracer.roots:
            for child in root.children:
                key = (child.name, child.attrs.get("index"))
                spans[key] = spans.get(key, 0.0) + child.duration_s
        m["search.layer0_s"] = (spans[("algorithm1.layer", 0)], "s", "lower")
        m["search.layer3_s"] = (spans[("algorithm1.layer", 3)], "s", "lower")
        m["search.refine_s"] = (
            sum(v for (name, _), v in spans.items()
                if name == "algorithm1.refine"), "s", "lower")
        counters = rec.metrics.as_dict()["counters"]

        def rate(kind):
            hits = counters.get(f"search/{kind}/hits", 0)
            return hits / (hits + counters.get(f"search/{kind}/misses", 0))

        m["search.candidates_scored"] = (
            counters["search/candidates_scored"], "count", "lower")
        m["search.prefix_cache_hit_rate"] = (rate("prefix_cache"),
                                             "fraction", "higher")
        m["search.refine_memo_hit_rate"] = (rate("refine_memo"), "fraction",
                                            "higher")
        m["trace.overhead_frac"] = (
            traced_s * 1e3 / m["latency_ms"][0] - 1.0, "fraction", "lower")
        self._replay_default(log, self.binarized, seconds - traced_s,
                             np.random.default_rng(seed), self.logits)


def _copy_obs_spans(log: SpanLog, spans, epoch: float, parent) -> None:
    """Fold the package's own Algorithm 1 spans into the span log."""
    for span in spans:
        start = epoch + span.start_s
        copied = log.add(span.name, start, start + span.duration_s,
                         parent=parent, **span.attrs)
        _copy_obs_spans(log, span.children, epoch, copied.id)


WORKLOADS = {
    cls.name: cls
    for cls in (InferN1Clean, InferN2Noisy, ServeN2Poisson, QuantizeN2)
}
