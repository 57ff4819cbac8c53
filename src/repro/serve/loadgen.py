"""Seeded trace-driven open-loop load generator for the serving plane.

Serving benchmarks lie when the load is closed-loop: a blocked client
stops offering load exactly when the system is slowest, hiding the
latency the paper's power/latency trade-offs live or die on.  This
module generates **open-loop** arrival schedules — requests fire at
their scheduled instants whether or not earlier ones answered — from
three analytic profiles plus deterministic trace replay:

``poisson``
    Homogeneous Poisson arrivals at ``rate`` req/s (exponential gaps).
``bursty``
    A 2-state Markov-modulated Poisson process (MMPP-2): a *calm*
    state at ``rate`` and a *burst* state at ``burst_rate``, with
    exponentially-distributed dwell times.  The analytic stationary
    rate (:func:`stationary_rate`) is what long schedules converge to,
    and what the unit tests assert.
``diurnal``
    An inhomogeneous Poisson process whose intensity follows a
    sinusoidal day-cycle, ``rate * (1 + amplitude*sin(2*pi*t/period))``,
    sampled exactly by Lewis–Shedler thinning.
``replay``
    Verbatim arrival offsets from a recorded trace file.

Everything is seeded through one :func:`numpy.random.default_rng`
stream: the same ``(profile, seed)`` always yields the byte-identical
schedule, and a schedule saved with :func:`save_trace` replays
identically anywhere.  The runner (:func:`run_load`) measures on an
injectable :class:`~repro.serve.clock.Clock` and the reporter
(:func:`summarize`) is a pure function of the collected records, so
report JSON is reproducible under a fake clock and honest under the
real one.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass
from typing import Callable, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro import obs
from repro.errors import (
    BackpressureError,
    ConfigurationError,
    ShardDeadError,
)
from repro.serve.clock import SYSTEM_CLOCK, Clock

__all__ = [
    "LoadProfile",
    "stationary_rate",
    "generate_schedule",
    "save_trace",
    "load_trace",
    "run_load",
    "run_profile",
    "summarize",
    "measure_saturation",
]

logger = obs.get_logger("serve")

_KINDS = ("poisson", "bursty", "diurnal", "replay")

#: Reported latency quantiles (label, percentile).
QUANTILES: Tuple[Tuple[str, float], ...] = (
    ("p50_ms", 50.0),
    ("p95_ms", 95.0),
    ("p99_ms", 99.0),
    ("p999_ms", 99.9),
)


@dataclass(frozen=True)
class LoadProfile:
    """One arrival-process description (JSON-safe, hashable)."""

    kind: str = "poisson"
    #: Mean rate of the base/calm state, requests per second.
    rate: float = 200.0
    #: Schedule horizon in seconds.
    duration_s: float = 1.0
    # --- bursty (MMPP-2) ---
    #: Arrival rate while in the burst state.
    burst_rate: float = 1000.0
    #: Mean dwell time of the burst state, seconds.
    burst_dwell_s: float = 0.05
    #: Mean dwell time of the calm state, seconds.
    calm_dwell_s: float = 0.2
    # --- diurnal ---
    #: Period of the sinusoidal intensity, seconds.
    period_s: float = 1.0
    #: Relative modulation depth in [0, 1).
    amplitude: float = 0.5
    # --- replay ---
    #: Explicit arrival offsets (seconds from start), for ``replay``.
    trace: Optional[Tuple[float, ...]] = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ConfigurationError(
                f"kind must be one of {_KINDS}, got {self.kind!r}"
            )
        if self.kind != "replay":
            if self.rate <= 0:
                raise ConfigurationError(
                    f"rate must be > 0, got {self.rate}"
                )
            if self.duration_s <= 0:
                raise ConfigurationError(
                    f"duration_s must be > 0, got {self.duration_s}"
                )
        if self.kind == "bursty":
            if self.burst_rate <= 0:
                raise ConfigurationError(
                    f"burst_rate must be > 0, got {self.burst_rate}"
                )
            if self.burst_dwell_s <= 0 or self.calm_dwell_s <= 0:
                raise ConfigurationError(
                    "burst_dwell_s and calm_dwell_s must be > 0"
                )
        if self.kind == "diurnal":
            if not 0 <= self.amplitude < 1:
                raise ConfigurationError(
                    f"amplitude must be in [0, 1), got {self.amplitude}"
                )
            if self.period_s <= 0:
                raise ConfigurationError(
                    f"period_s must be > 0, got {self.period_s}"
                )
        if self.kind == "replay" and self.trace is None:
            raise ConfigurationError("replay profile needs a trace")


def stationary_rate(profile: LoadProfile) -> float:
    """The long-run mean arrival rate of ``profile`` (analytic).

    For the MMPP-2 this is the dwell-time-weighted mixture
    ``(d_c*r_c + d_b*r_b) / (d_c + d_b)``; a long generated schedule's
    empirical rate converges to it (asserted in the unit tests).  The
    diurnal sinusoid integrates to its mean; Poisson/replay are flat.
    """
    if profile.kind == "bursty":
        total = profile.calm_dwell_s + profile.burst_dwell_s
        return (
            profile.calm_dwell_s * profile.rate
            + profile.burst_dwell_s * profile.burst_rate
        ) / total
    if profile.kind == "replay":
        trace = np.asarray(profile.trace, dtype=float)
        if trace.size == 0:
            return 0.0
        span = float(trace.max()) or 1.0
        return trace.size / span
    return profile.rate  # poisson and diurnal (sin integrates to 0)


def _poisson_arrivals(
    rng: np.random.Generator, rate: float, duration_s: float
) -> List[float]:
    arrivals: List[float] = []
    t = float(rng.exponential(1.0 / rate))
    while t < duration_s:
        arrivals.append(t)
        t += float(rng.exponential(1.0 / rate))
    return arrivals


def generate_schedule(
    profile: LoadProfile, seed: int = 0
) -> np.ndarray:
    """Sorted arrival offsets (seconds) for ``profile``; deterministic
    in ``(profile, seed)``."""
    rng = np.random.default_rng(seed)
    if profile.kind == "replay":
        schedule = np.asarray(profile.trace, dtype=float)
        if np.any(schedule < 0):
            raise ConfigurationError("trace offsets must be >= 0")
        return np.sort(schedule)
    if profile.kind == "poisson":
        arrivals = _poisson_arrivals(rng, profile.rate, profile.duration_s)
    elif profile.kind == "bursty":
        arrivals = []
        t = 0.0
        calm = True  # the chain starts calm
        while t < profile.duration_s:
            dwell = float(
                rng.exponential(
                    profile.calm_dwell_s if calm else profile.burst_dwell_s
                )
            )
            state_rate = profile.rate if calm else profile.burst_rate
            end = min(t + dwell, profile.duration_s)
            gap_t = t + float(rng.exponential(1.0 / state_rate))
            while gap_t < end:
                arrivals.append(gap_t)
                gap_t += float(rng.exponential(1.0 / state_rate))
            t = end
            calm = not calm
    else:  # diurnal: Lewis-Shedler thinning against the peak rate
        peak = profile.rate * (1.0 + profile.amplitude)
        arrivals = []
        t = float(rng.exponential(1.0 / peak))
        while t < profile.duration_s:
            intensity = profile.rate * (
                1.0
                + profile.amplitude
                * np.sin(2.0 * np.pi * t / profile.period_s)
            )
            if rng.uniform() <= intensity / peak:
                arrivals.append(t)
            t += float(rng.exponential(1.0 / peak))
    return np.asarray(arrivals, dtype=float)


# -- trace files ---------------------------------------------------------
def save_trace(path, schedule: np.ndarray, profile=None, seed=None) -> None:
    """Write a replayable trace file (JSON: provenance + offsets)."""
    payload = {
        "version": 1,
        "arrivals": [round(float(t), 9) for t in np.asarray(schedule)],
    }
    if profile is not None:
        payload["profile"] = asdict(profile)
    if seed is not None:
        payload["seed"] = seed
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, sort_keys=True)
        fh.write("\n")


def load_trace(path) -> LoadProfile:
    """A ``replay`` profile reproducing a saved trace byte-for-byte."""
    with open(path, "r", encoding="utf-8") as fh:
        payload = json.load(fh)
    arrivals = tuple(float(t) for t in payload["arrivals"])
    return LoadProfile(
        kind="replay",
        trace=arrivals,
        duration_s=max(arrivals) if arrivals else 1.0,
    )


# -- the open-loop runner ------------------------------------------------
class _Record:
    __slots__ = ("scheduled_s", "status", "latency_ms", "lag_ms")

    def __init__(self, scheduled_s, status, latency_ms, lag_ms=None):
        self.scheduled_s = scheduled_s
        self.status = status
        self.latency_ms = latency_ms
        #: How late the generator sent the request against its due time.
        self.lag_ms = lag_ms


def run_load(
    submit: Callable[[np.ndarray], object],
    schedule: Union[np.ndarray, Sequence[float]],
    payload: Union[np.ndarray, Callable[[int], np.ndarray]],
    clock: Optional[Clock] = None,
    result_timeout_s: float = 30.0,
) -> dict:
    """Fire ``schedule`` open-loop at ``submit``; a summary report.

    ``submit`` is the gateway facade (returns a Future) or any callable
    returning an object with ``result()``; synchronous raises of
    :class:`~repro.errors.BackpressureError` also count as rejections.
    ``payload`` is one array reused for every request or a
    ``payload(i)`` factory.  The runner *sleeps on the injected clock*
    between arrivals and timestamps sends/completions on it, so under a
    :class:`~repro.serve.clock.FakeClock` (with a synchronous
    ``submit``) the entire report is deterministic.

    Each request is timed from its **due** time (``start + offset``),
    not from when it was sent: when the generator runs late (a slow
    synchronous ``submit``, a stalled thread) the wait counts against
    the requests it delays.  How late each request left is reported as
    generator lag (``lag_p50_ms``/``lag_p99_ms``).
    """
    clock = clock if clock is not None else SYSTEM_CLOCK
    offsets = np.asarray(schedule, dtype=float)
    make = payload if callable(payload) else (lambda i: payload)
    start = clock.monotonic()
    pending: List[Tuple[int, float, float, float, object]] = []
    records: List[_Record] = []
    #: Completion timestamps, written by done-callbacks the moment a
    #: future resolves (on the worker that resolved it) — so latency
    #: measures completion, not the runner's later resolution sweep.
    done_at = {}
    for i, offset in enumerate(offsets):
        due = start + float(offset)
        delay = due - clock.monotonic()
        if delay > 0:
            clock.sleep(delay)
        lag_ms = max(clock.monotonic() - due, 0.0) * 1e3
        try:
            future = submit(np.asarray(make(i)))
        except BackpressureError:
            records.append(_Record(float(offset), "rejected", None, lag_ms))
            continue
        except ShardDeadError:
            records.append(_Record(float(offset), "dead", None, lag_ms))
            continue
        callback = getattr(future, "add_done_callback", None)
        if callback is not None:
            callback(
                lambda fut, idx=i: done_at.__setitem__(
                    idx, clock.monotonic()
                )
            )
        pending.append((i, float(offset), due, lag_ms, future))
    for i, offset, due, lag_ms, future in pending:
        try:
            future.result(timeout=result_timeout_s)
        except BackpressureError:
            records.append(_Record(offset, "rejected", None, lag_ms))
            continue
        except ShardDeadError:
            records.append(_Record(offset, "dead", None, lag_ms))
            continue
        except Exception:
            records.append(_Record(offset, "error", None, lag_ms))
            continue
        done = done_at.get(i, clock.monotonic())
        records.append(_Record(offset, "ok", (done - due) * 1e3, lag_ms))
    elapsed = max(clock.monotonic() - start, 1e-12)
    return summarize(records, elapsed_s=elapsed)


def summarize(records: Sequence[_Record], elapsed_s: float) -> dict:
    """Pure reporter: counts, rates and latency quantiles as JSON-safe
    (and, given identical records, byte-identical) structures."""
    total = len(records)
    by_status = {"ok": 0, "rejected": 0, "dead": 0, "error": 0}
    latencies, lags = [], []
    for record in records:
        by_status[record.status] = by_status.get(record.status, 0) + 1
        if record.latency_ms is not None:
            latencies.append(record.latency_ms)
        if record.lag_ms is not None:
            lags.append(record.lag_ms)
    ok = by_status["ok"]
    report = {
        "requests": total,
        "ok": ok,
        "rejected": by_status["rejected"],
        "dead": by_status["dead"],
        "errors": by_status["error"],
        "elapsed_s": round(float(elapsed_s), 6),
        "offered_rate_rps": round(total / elapsed_s, 3),
        "throughput_rps": round(ok / elapsed_s, 3),
        "rejection_rate": round(by_status["rejected"] / total, 6)
        if total
        else 0.0,
        "error_rate": round(
            (by_status["error"] + by_status["dead"]) / total, 6
        )
        if total
        else 0.0,
    }
    if latencies:
        arr = np.asarray(latencies, dtype=float)
        for label, pct in QUANTILES:
            report[label] = round(float(np.percentile(arr, pct)), 6)
        report["mean_ms"] = round(float(arr.mean()), 6)
        report["max_ms"] = round(float(arr.max()), 6)
    else:
        for label, _ in QUANTILES:
            report[label] = None
        report["mean_ms"] = None
        report["max_ms"] = None
    for label, pct in (("lag_p50_ms", 50.0), ("lag_p99_ms", 99.0)):
        report[label] = (
            round(float(np.percentile(lags, pct)), 6) if lags else None
        )
    return report


def measure_saturation(
    submit: Callable[[np.ndarray], object],
    payload: np.ndarray,
    duration_s: float = 1.0,
    concurrency: int = 64,
    clock: Optional[Clock] = None,
) -> dict:
    """Closed-loop saturation probe: the sustainable completion rate.

    Keeps ``concurrency`` requests outstanding in waves until
    ``duration_s`` elapses; the completion count over the measured wall
    time is the saturation throughput (requests the plane actually
    answers per second when offered more than it can take).
    Rejections are shed load, counted but not throughput.
    """
    clock = clock if clock is not None else SYSTEM_CLOCK
    completed = 0
    rejected = 0
    errors = 0
    start = clock.monotonic()
    while clock.monotonic() - start < duration_s:
        futures = []
        for _ in range(concurrency):
            try:
                futures.append(submit(payload))
            except BackpressureError:
                rejected += 1
        for future in futures:
            try:
                future.result(timeout=30.0)
            except BackpressureError:
                rejected += 1
            except Exception:
                errors += 1
            else:
                completed += 1
    elapsed = max(clock.monotonic() - start, 1e-12)
    return {
        "throughput_rps": round(completed / elapsed, 3),
        "completed": completed,
        "rejected": rejected,
        "errors": errors,
        "elapsed_s": round(float(elapsed), 6),
        "concurrency": concurrency,
    }


def run_profile(
    submit: Callable[[np.ndarray], object],
    profile: LoadProfile,
    payload: Union[np.ndarray, Callable[[int], np.ndarray]],
    seed: int = 0,
    clock: Optional[Clock] = None,
) -> dict:
    """Generate the seeded schedule for ``profile`` and run it.

    The report carries full provenance (profile, seed, analytic
    stationary rate) so a saved report identifies its workload.
    """
    schedule = generate_schedule(profile, seed=seed)
    report = run_load(submit, schedule, payload, clock=clock)
    prof = asdict(profile)
    if profile.kind == "replay":  # traces can be huge; keep reports light
        prof["trace"] = None
        prof["trace_len"] = len(profile.trace or ())
    report["profile"] = prof
    report["seed"] = seed
    report["stationary_rate_rps"] = round(stationary_rate(profile), 3)
    return report
