"""Work-conserving micro-batcher with bounded-queue backpressure.

The SEI pipeline is an embarrassingly batchable MVM chain: running 64
requests through one forward pass costs far less than 64 single-sample
passes (the per-call Python/layer overhead amortises and the matmuls
vectorise).  :class:`MicroBatcher` exploits that for concurrent traffic:

* clients call :meth:`MicroBatcher.submit` and get a
  :class:`concurrent.futures.Future` back immediately;
* ``workers`` threads each pull their own batches: a free worker blocks
  on the admission queue for the first request, then takes whatever
  else is *already* queued (up to ``max_batch_size``, never a timed
  wait) and runs that batch.  A lone request on an idle batcher runs
  at once; under load requests queue up while the workers are busy, so
  batches grow by themselves — the way the paper's pipelined fabric
  streams samples without holding any back for a fuller wave;
* numpy releases the GIL inside the matmuls, so on multi-core hosts
  workers add real parallelism;
* the admission queue is bounded and fills exactly when every worker
  is busy: at ``max_queue_depth`` pending requests :meth:`submit`
  blocks (backpressure) or — with a timeout — raises
  :class:`repro.errors.BackpressureError` so callers can shed load
  instead of queueing unboundedly.

Because :class:`repro.serve.session.InferenceSession` executes in fixed
hardware tiles, the results a request receives are bit-identical no
matter how the batcher happened to coalesce it (asserted in
``tests/test_serve.py`` and ``benchmarks/bench_serve.py``).
"""

from __future__ import annotations

import itertools
import queue
import threading
from concurrent.futures import Future, InvalidStateError
from dataclasses import dataclass, field
from typing import Callable, List, Optional, Sequence, Union

import numpy as np

from repro import obs
from repro.errors import BackpressureError, ConfigurationError, ServeError
from repro.serve.clock import SYSTEM_CLOCK, Clock

__all__ = ["BatcherConfig", "BatcherStats", "MicroBatcher"]

logger = obs.get_logger("serve")

#: Log-spaced edges for the request-latency histogram, in milliseconds.
LATENCY_EDGES_MS = (
    0.05, 0.1, 0.2, 0.5, 1.0, 2.0, 5.0, 10.0, 20.0, 50.0,
    100.0, 200.0, 500.0, 1000.0, 2000.0, 5000.0,
)


@dataclass(frozen=True)
class BatcherConfig:
    """Batch-size and capacity parameters of one micro-batcher."""

    #: Largest batch one forward pass receives.
    max_batch_size: int = 64
    #: Has no effect; validated (``>= 0``).  Workers never wait for a
    #: fuller batch.  It stays because the end-to-end benchmark's
    #: serving workload still constructs configs with it, and it can go
    #: only together with that.
    max_delay_ms: float = 0.0
    #: Bounded admission queue: submits beyond this many pending
    #: requests block (or raise, with a timeout) — backpressure.
    max_queue_depth: int = 256
    #: Worker threads, each pulling and executing its own batches.
    workers: int = 2

    def __post_init__(self) -> None:
        if self.max_batch_size < 1:
            raise ConfigurationError(
                f"max_batch_size must be >= 1, got {self.max_batch_size}"
            )
        if self.max_delay_ms < 0:
            raise ConfigurationError(
                f"max_delay_ms must be >= 0, got {self.max_delay_ms}"
            )
        if self.max_queue_depth < 1:
            raise ConfigurationError(
                f"max_queue_depth must be >= 1, got {self.max_queue_depth}"
            )
        if self.workers < 1:
            raise ConfigurationError(
                f"workers must be >= 1, got {self.workers}"
            )


@dataclass
class BatcherStats:
    """Always-on lifetime statistics (obs-independent, used by benches)."""

    requests: int = 0
    batches: int = 0
    rejected: int = 0
    failed_batches: int = 0
    max_observed_queue_depth: int = 0
    batch_sizes: List[int] = field(default_factory=list)

    @property
    def mean_batch_size(self) -> Optional[float]:
        return self.requests / self.batches if self.batches else None

    def as_dict(self) -> dict:
        return {
            "requests": self.requests,
            "batches": self.batches,
            "rejected": self.rejected,
            "failed_batches": self.failed_batches,
            "mean_batch_size": self.mean_batch_size,
            "max_batch_size_seen": max(self.batch_sizes, default=0),
            "max_observed_queue_depth": self.max_observed_queue_depth,
        }


class _Request:
    __slots__ = ("x", "future", "enqueued_at", "rid")

    def __init__(
        self, x: np.ndarray, future: Future, enqueued_at: float, rid: int
    ):
        self.x = x
        self.future = future
        self.enqueued_at = enqueued_at
        self.rid = rid


_STOP = object()


def _settle(future: Future, result=None, error=None) -> None:
    """Resolve ``future`` unless another thread (a racing
    :meth:`MicroBatcher.abort`) already has; the second is a no-op."""
    try:
        if error is not None:
            future.set_exception(error)
        else:
            future.set_result(result)
    except InvalidStateError:
        pass


class MicroBatcher:
    """Coalesce concurrent ``submit`` calls into bounded micro-batches.

    Parameters
    ----------
    target:
        Either an object with an ``infer_batch(images) -> outputs``
        method (an :class:`~repro.serve.session.InferenceSession`) or a
        bare callable with that signature.  Outputs must be indexable
        along axis 0 in request order.  A target that also has a
        ``check_batch(images)`` method (sessions do) has every request
        checked by it in :meth:`submit`, before it is queued.
    config:
        Batch-size/capacity parameters; defaults to
        :class:`BatcherConfig`.
    clock:
        Time source for every recorded timestamp (enqueue, batch start
        and end, latency histograms).  Defaults to the real
        :data:`~repro.serve.clock.SYSTEM_CLOCK`; tests inject a
        :class:`~repro.serve.clock.FakeClock` so latency accounting is
        exact instead of wall-clock-tolerant.  Dispatch never consults
        the clock: a free worker runs whatever is queued.

    Use as a context manager (``with session.batcher() as mb: ...``) or
    call :meth:`start` / :meth:`stop` explicitly.
    """

    def __init__(
        self,
        target: Union[Callable[[np.ndarray], np.ndarray], object],
        config: Optional[BatcherConfig] = None,
        clock: Optional[Clock] = None,
    ) -> None:
        infer = getattr(target, "infer_batch", None)
        if infer is None:
            if not callable(target):
                raise ConfigurationError(
                    "MicroBatcher target must be an InferenceSession or a "
                    f"callable, got {type(target).__name__}"
                )
            infer = target
        self._infer = infer
        self._check = getattr(target, "check_batch", None)
        self.config = config if config is not None else BatcherConfig()
        self.clock = clock if clock is not None else SYSTEM_CLOCK
        self.stats = BatcherStats()
        self._queue: "queue.Queue" = queue.Queue(
            maxsize=self.config.max_queue_depth
        )
        self._stats_lock = threading.Lock()
        self._state_lock = threading.Lock()
        self._threads: List[threading.Thread] = []
        self._closed = False
        self._abort = False
        self._abort_error: Optional[BaseException] = None
        #: Requests currently inside a running batch (guarded by
        #: ``_stats_lock``): :meth:`abort` fails these directly so a
        #: killed shard's waiters never hang on a stalled worker.
        self._inflight_requests: set = set()
        #: Edges for the batch-size histogram (one bin per size).
        self._size_edges = np.arange(self.config.max_batch_size + 1) + 0.5
        #: Optional flight recorder (a :class:`repro.obs.FlightRecorder`);
        #: attach one via :meth:`repro.obs.TelemetryPlane.attach` to get
        #: per-request/per-batch events into the bounded ring.
        self.flight = None
        #: Optional dedicated :class:`repro.obs.Recorder`.  Unset (the
        #: default), metrics go to the process-global recorder as
        #: before; a gateway shard points this at its *own* recorder so
        #: per-shard series stay separable behind the aggregated
        #: ``/metrics`` endpoint.
        self.recorder = None
        self._rid = itertools.count(1)
        # What the flight events say about the compute behind this
        # batcher: engine name + session digest when the target is an
        # InferenceSession, best-effort otherwise.
        session_config = getattr(target, "config", None)
        engine_spec = getattr(session_config, "engine", None)
        self._target_info = {
            "engine": getattr(engine_spec, "name", None),
            "session": getattr(target, "digest", None),
        }

    # -- lifecycle -------------------------------------------------------
    @property
    def running(self) -> bool:
        return any(thread.is_alive() for thread in self._threads)

    def start(self) -> "MicroBatcher":
        with self._state_lock:
            if self._threads:
                raise ServeError("MicroBatcher is already started")
            for i in range(self.config.workers):
                thread = threading.Thread(
                    target=self._work_loop, name=f"serve-worker-{i}",
                    daemon=True,
                )
                self._threads.append(thread)
                thread.start()
        cfg = self.config
        logger.debug(
            "batcher started: %d workers, batch<=%d, queue<=%d",
            cfg.workers, cfg.max_batch_size, cfg.max_queue_depth,
        )
        return self

    def stop(
        self,
        drain: bool = True,
        error: Optional[BaseException] = None,
    ) -> None:
        """Shut down; ``drain=True`` finishes pending requests first.

        With ``drain=False`` pending (not yet running) requests are
        cancelled — or, when ``error`` is given, *failed* with that
        exception instead.  The error form is what a dying shard uses:
        every waiter gets a :class:`~repro.errors.ShardDeadError`
        promptly rather than a bare cancellation (or worse, a hang).
        Batches already running finish either way.  Idempotent.
        """
        with self._state_lock:
            if not self._threads or self._closed:
                return
            self._closed = True
            self._abort = not drain
            self._abort_error = error if not drain else None
        # One sentinel per worker, queued behind every admitted request;
        # each worker exits on the first sentinel it takes.
        for _ in self._threads:
            self._queue.put(_STOP)
        for thread in self._threads:
            thread.join()
        # Anything still queued was admitted after the sentinels (a
        # submit racing the shutdown): resolve it so waiters do not hang.
        self._drop_queued()

    def _drop_request(self, request: "_Request") -> None:
        """Resolve one request that will not run (aborted shutdown)."""
        if self._abort_error is not None:
            _settle(request.future, error=self._abort_error)
        else:
            request.future.cancel()

    def _drop_queued(self) -> None:
        """Resolve every request still in the admission queue."""
        while True:
            try:
                item = self._queue.get_nowait()
            except queue.Empty:
                return
            if item is not _STOP:
                self._drop_request(item)

    def abort(self, error: Optional[BaseException] = None) -> None:
        """Abrupt, non-blocking shutdown: fail everything, wait for nothing.

        Unlike :meth:`stop` this never joins workers, so it returns
        promptly even when a batch is wedged inside ``infer``.  Every
        queued *and* in-flight request is failed with ``error``
        (default: a :class:`~repro.errors.ServeError`); a wedged
        worker's late result for an already-failed future is a silent
        no-op.  This is the crash path a dying gateway shard takes —
        liveness over graceful drain.
        """
        if error is None:
            error = ServeError("MicroBatcher aborted")
        with self._state_lock:
            if not self._threads:
                return
            self._closed = True
            self._abort = True
            self._abort_error = error
        # Fail what is queued, then wake the idle workers; the drain may
        # eat a stop() in progress's sentinels, so they are queued again
        # (put_nowait: a worker drops racing submits' requests anyway).
        self._drop_queued()
        for _ in self._threads:
            try:
                self._queue.put_nowait(_STOP)
            except queue.Full:
                break
        with self._stats_lock:
            inflight = list(self._inflight_requests)
        for request in inflight:
            _settle(request.future, error=error)

    def __enter__(self) -> "MicroBatcher":
        if not self.running:
            self.start()
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.stop(drain=exc_type is None)

    # -- submission ------------------------------------------------------
    def submit(self, x: np.ndarray, timeout: Optional[float] = None) -> Future:
        """Enqueue one sample; resolves to that sample's output row.

        Blocks while the admission queue is full (backpressure).  With a
        ``timeout`` (seconds), raises
        :class:`~repro.errors.BackpressureError` instead of waiting
        longer.  A sample the target cannot take (a session's
        ``check_batch`` rejects it) raises
        :class:`~repro.errors.ShapeError` here and is never queued.
        """
        if self._closed or not self._threads:
            raise ServeError(
                "MicroBatcher is not running (call start() or use it as a "
                "context manager)"
            )
        # np.asarray is a no-op view for ndarray inputs: the request
        # carries the caller's buffer by reference (zero-copy handoff
        # between the gateway front-end and the shard's workers).
        x = np.asarray(x)
        if self._check is not None:
            self._check(x[None])
        request = _Request(
            x, Future(), self.clock.monotonic(), next(self._rid)
        )
        try:
            self._queue.put(request, block=True, timeout=timeout)
        except queue.Full:
            with self._stats_lock:
                self.stats.rejected += 1
            rec = self._rec()
            if rec is not None:
                rec.metrics.inc("serve/rejected")
            flight = self.flight
            if flight is not None:
                flight.record(
                    "rejected",
                    rid=request.rid,
                    queue_depth=self.config.max_queue_depth,
                    timeout_s=timeout,
                    **self._target_info,
                )
            raise BackpressureError(
                f"serving queue full ({self.config.max_queue_depth} pending "
                f"requests) and no slot freed within {timeout}s"
            ) from None
        depth = self._note_queue_depth()
        flight = self.flight
        if flight is not None:
            flight.record("enqueue", rid=request.rid, queue_depth=depth)
        return request.future

    def submit_many(
        self, xs: Sequence[np.ndarray], timeout: Optional[float] = None
    ) -> List[Future]:
        """Submit several samples; one future per sample, in order."""
        return [self.submit(x, timeout=timeout) for x in xs]

    # -- internals -------------------------------------------------------
    def _rec(self):
        """The recorder metric writes go to (dedicated or global)."""
        return self.recorder if self.recorder is not None else obs.active()

    def _note_queue_depth(self) -> int:
        """Sample the queue depth once; update gauge + high-watermark.

        Both ``submit`` and the workers write the ``serve/queue_depth``
        gauge, each from a fresh ``qsize()`` sample, and the
        ``serve/queue_depth_high_watermark`` gauge stays in lock-step
        with ``stats.max_observed_queue_depth``.
        """
        depth = self._queue.qsize()
        if self._closed:
            # Up to one _STOP sentinel per worker is queued during
            # shutdown; they are not pending requests.
            depth = max(0, depth - self.config.workers)
        with self._stats_lock:
            if depth > self.stats.max_observed_queue_depth:
                self.stats.max_observed_queue_depth = depth
            watermark = self.stats.max_observed_queue_depth
        rec = self._rec()
        if rec is not None:
            rec.metrics.set_gauge("serve/queue_depth", depth)
            rec.metrics.set_gauge(
                "serve/queue_depth_high_watermark", watermark
            )
        return depth

    def _work_loop(self) -> None:
        """One worker: take the first request, add what is queued, run."""
        limit = self.config.max_batch_size
        while True:
            first = self._queue.get()
            if first is _STOP:
                return
            batch = [first]
            stop_after = False
            while len(batch) < limit:
                try:
                    item = self._queue.get_nowait()
                except queue.Empty:
                    break
                if item is _STOP:
                    stop_after = True
                    break
                batch.append(item)
            with self._stats_lock:
                aborted = self._abort
                if not aborted:
                    self._inflight_requests.update(batch)
            if aborted:
                for request in batch:
                    self._drop_request(request)
            else:
                try:
                    self._run_batch(batch)
                finally:
                    with self._stats_lock:
                        self._inflight_requests.difference_update(batch)
            if stop_after:
                return

    def _run_batch(self, batch: List[_Request]) -> None:
        started = self.clock.monotonic()
        with obs.span("serve.batch", size=len(batch)):
            try:
                # Assembly sits inside the fan-out: requests a bare
                # callable cannot stack fail their own batch, never
                # the worker thread.
                images = np.stack([request.x for request in batch])
                outputs = self._infer(images)
                rows = [outputs[i] for i in range(len(batch))]
            except Exception as exc:  # fan the failure out to every waiter
                with self._stats_lock:
                    self.stats.failed_batches += 1
                rec = self._rec()
                if rec is not None:
                    rec.metrics.inc("serve/failed_batches")
                    rec.metrics.inc("serve/failed_requests", len(batch))
                logger.warning("batch of %d failed: %s", len(batch), exc)
                flight = self.flight
                if flight is not None:
                    flight.record(
                        "batch_failed",
                        rids=[request.rid for request in batch],
                        size=len(batch),
                        error=f"{type(exc).__name__}: {exc}",
                        **self._target_info,
                    )
                for request in batch:
                    _settle(request.future, error=exc)
                return
        done = self.clock.monotonic()
        for request, row in zip(batch, rows):
            # Futures failed by abort() while this batch ran already
            # have their answer; _settle leaves them be.
            _settle(request.future, result=row)
        with self._stats_lock:
            self.stats.requests += len(batch)
            self.stats.batches += 1
            self.stats.batch_sizes.append(len(batch))
        latencies_ms = [
            (done - request.enqueued_at) * 1e3 for request in batch
        ]
        rec = self._rec()
        if rec is not None:
            rec.metrics.inc("serve/requests", len(batch))
            rec.metrics.inc("serve/batches")
            rec.metrics.observe(
                "serve/batch_size", len(batch), edges=self._size_edges
            )
            rec.metrics.observe(
                "serve/latency_ms",
                np.array(latencies_ms),
                edges=LATENCY_EDGES_MS,
            )
            self._note_queue_depth()
        flight = self.flight
        if flight is not None:
            flight.record(
                "batch",
                rids=[request.rid for request in batch],
                size=len(batch),
                queue_ms=[
                    round((started - request.enqueued_at) * 1e3, 3)
                    for request in batch
                ],
                infer_ms=round((done - started) * 1e3, 3),
                latency_ms=[round(v, 3) for v in latencies_ms],
                **self._target_info,
            )
