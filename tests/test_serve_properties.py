"""Property-based tests for the micro-batching serving path.

Liveness/ordering/accounting guarantees the batcher makes, checked over
hypothesis-drawn batching configurations:

* coalescing NEVER reorders results — every future resolves to its own
  sample's output no matter how requests were grouped into batches;
* busy workers plus a full admission queue make
  ``submit(timeout=...)`` raise :class:`BackpressureError` — load
  shedding, not deadlock;
* ``stop(drain=True)`` resolves every pending future before returning;
* the dispatch policy is work-conserving, checked deterministically on
  a target that blocks on a :class:`threading.Event`: a free worker runs
  a lone request at once, requests queued behind busy workers form
  ``max_batch_size`` batches, and ``abort`` fails queued and in-flight
  futures without waiting for a wedged worker;
* latency accounting is **exact** on an injected
  :class:`~repro.serve.clock.FakeClock`: the recorded latency histogram
  equals the hand-computed service times, with no wall-clock tolerance
  anywhere (this replaced the flaky "rejection arrived within ~2 s"
  style assertions — timing claims are now equalities on a fake clock,
  and the few tests that genuinely need real threads sleeping are
  marked ``slow``);
* the gateway's :class:`~repro.serve.TokenBucket` refills on the exact
  continuous schedule its rate implies.
"""

import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.errors import BackpressureError, ServeError, ShardDeadError
from repro.obs.recorder import Recorder
from repro.serve import BatcherConfig, FakeClock, MicroBatcher, TokenBucket

pytestmark = pytest.mark.property

#: Thread-based examples are slow-ish; keep the example budget modest.
THREADED = settings(
    max_examples=10,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)

#: Pure-computation examples (fake clock, no threads) can afford more.
FAST = settings(max_examples=100, deadline=None)


def _echo(images: np.ndarray) -> np.ndarray:
    """Identity-ish target: output row i encodes input row i."""
    return np.asarray(images) * 2.0 + 1.0


@THREADED
@given(
    n_requests=st.integers(1, 40),
    max_batch_size=st.integers(1, 8),
    workers=st.integers(1, 3),
)
def test_coalescing_never_reorders_results(
    n_requests, max_batch_size, workers
):
    """Whatever batches form, future i always gets sample i's output."""
    config = BatcherConfig(
        max_batch_size=max_batch_size,
        workers=workers,
        max_queue_depth=max(n_requests, 1),
    )
    samples = [np.array([float(i), float(-i)]) for i in range(n_requests)]
    with MicroBatcher(_echo, config) as batcher:
        futures = batcher.submit_many(samples, timeout=5.0)
        for i, future in enumerate(futures):
            np.testing.assert_array_equal(
                future.result(timeout=5.0), _echo(samples[i][None])[0]
            )
    assert batcher.stats.requests == n_requests


@pytest.mark.slow
@THREADED
@given(queue_depth=st.integers(1, 3))
def test_backpressure_raises_instead_of_deadlocking(queue_depth):
    """Full queue + saturated workers: submit(timeout) sheds, not hangs.

    Genuinely real-time (a thread parks in ``queue.put`` until the
    0.05 s admission timeout expires), hence the ``slow`` marker.  The
    shed-not-hang claim is the ``pytest.raises`` itself — if the submit
    deadlocked the test would time out, no wall-clock assertion needed.
    """
    release = threading.Event()

    def stall(images):
        release.wait(timeout=10.0)
        return _echo(images)

    config = BatcherConfig(
        max_batch_size=1,
        workers=1,
        max_queue_depth=queue_depth,
    )
    batcher = MicroBatcher(stall, config).start()
    try:
        # One request occupies the single worker, which takes nothing
        # more until it finishes, so the next queue_depth requests
        # saturate the admission queue.
        futures = [batcher.submit(np.zeros(2), timeout=5.0)]
        for _ in range(queue_depth):
            futures.append(batcher.submit(np.zeros(2), timeout=5.0))
        with pytest.raises(BackpressureError):
            batcher.submit(np.zeros(2), timeout=0.05)
        assert batcher.stats.rejected >= 1
    finally:
        release.set()
        batcher.stop(drain=True)
    for future in futures:
        assert future.done()
        np.testing.assert_array_equal(future.result(), _echo(np.zeros(2)))


@THREADED
@given(
    n_requests=st.integers(1, 25),
    max_batch_size=st.integers(1, 8),
)
def test_shutdown_drains_pending_futures(n_requests, max_batch_size):
    """stop(drain=True) resolves everything already submitted."""

    def slowish(images):
        time.sleep(0.001)
        return _echo(images)

    config = BatcherConfig(
        max_batch_size=max_batch_size,
        workers=2,
        max_queue_depth=max(n_requests, 1),
    )
    batcher = MicroBatcher(slowish, config).start()
    samples = [np.array([float(i)]) for i in range(n_requests)]
    futures = batcher.submit_many(samples, timeout=5.0)
    batcher.stop(drain=True)
    for i, future in enumerate(futures):
        assert future.done(), f"future {i} left unresolved by drain"
        np.testing.assert_array_equal(
            future.result(), _echo(samples[i][None])[0]
        )
    assert batcher.stats.requests == n_requests


class _HeldTarget:
    """Records each batch's size, then blocks until ``release`` is set."""

    def __init__(self):
        self.release = threading.Event()
        self.sizes = []
        self._entered = threading.Semaphore(0)

    def __call__(self, images):
        self.sizes.append(len(images))
        self._entered.release()
        self.release.wait(timeout=10.0)
        return _echo(images)

    def wait_entered(self):
        """Block until one more batch has reached the target."""
        assert self._entered.acquire(timeout=10.0)


def _samples(n):
    return [np.array([float(i)]) for i in range(n)]


def test_free_worker_runs_what_is_queued_now():
    """A lone request runs alone; requests queued behind it batch up."""
    target = _HeldTarget()
    config = BatcherConfig(max_batch_size=8, workers=1, max_queue_depth=32)
    samples = _samples(21)
    batcher = MicroBatcher(target, config).start()
    try:
        futures = [batcher.submit(samples[0])]
        target.wait_entered()
        # The free worker took the lone request without waiting for
        # company: it is inside infer as a batch of one.
        assert target.sizes == [1]
        futures += batcher.submit_many(samples[1:])
        target.release.set()
        for sample, future in zip(samples, futures):
            np.testing.assert_array_equal(
                future.result(timeout=10.0), _echo(sample[None])[0]
            )
    finally:
        target.release.set()
        batcher.stop(drain=True)
    # The 20 requests queued behind the held batch ran as full batches
    # of max_batch_size and then the remainder.
    assert target.sizes == [1, 8, 8, 4]
    assert batcher.stats.batch_sizes == [1, 8, 8, 4]


def test_drain_stop_resolves_every_pending_future_with_two_workers():
    target = _HeldTarget()
    config = BatcherConfig(max_batch_size=4, workers=2, max_queue_depth=32)
    samples = _samples(12)
    batcher = MicroBatcher(target, config).start()
    futures = []
    for sample in samples[:2]:  # one held batch per worker
        futures.append(batcher.submit(sample))
        target.wait_entered()
    futures += batcher.submit_many(samples[2:])
    assert not any(future.done() for future in futures)
    stopper = threading.Thread(target=batcher.stop, kwargs={"drain": True})
    stopper.start()
    # A graceful stop waits for the held batches; it cannot have
    # finished while both workers are still inside infer.
    stopper.join(timeout=0.05)
    assert stopper.is_alive()
    target.release.set()
    stopper.join(timeout=10.0)
    assert not stopper.is_alive()
    assert not batcher.running
    for sample, future in zip(samples, futures):
        assert future.done()
        np.testing.assert_array_equal(
            future.result(), _echo(sample[None])[0]
        )
    assert target.sizes[:2] == [1, 1]  # the two held batches
    assert sum(target.sizes) == len(samples)


def test_abort_fails_queued_and_inflight_past_a_wedged_worker():
    wedge = threading.Event()  # never set before abort returns
    hold = threading.Event()
    entered = threading.Semaphore(0)
    threads = []

    def target(images):
        threads.append(threading.current_thread())
        first = len(threads) == 1
        entered.release()
        (wedge if first else hold).wait(timeout=10.0)
        return _echo(images)

    config = BatcherConfig(max_batch_size=4, workers=2, max_queue_depth=16)
    batcher = MicroBatcher(target, config).start()
    futures = []
    for _ in range(2):  # worker 1 wedged, worker 2 held
        futures.append(batcher.submit(np.zeros(1)))
        assert entered.acquire(timeout=10.0)
    futures += batcher.submit_many([np.zeros(1)] * 5)  # queued
    error = ShardDeadError("shard gone")
    aborter = threading.Thread(target=batcher.abort, args=(error,))
    aborter.start()
    aborter.join(timeout=10.0)
    assert not aborter.is_alive()
    # Every queued and in-flight future already carries the error.
    assert all(future.exception(timeout=0) is error for future in futures)
    with pytest.raises(ServeError):
        batcher.submit(np.zeros(1))
    wedged, held = threads
    # The held worker's late result is a no-op, and it then exits;
    # the wedged one is still inside infer.
    hold.set()
    held.join(timeout=10.0)
    assert not held.is_alive()
    assert wedged.is_alive()
    assert futures[1].exception(timeout=0) is error
    wedge.set()
    wedged.join(timeout=10.0)
    assert not batcher.running
    assert len(threads) == 2  # nothing queued ever reached the target


def test_many_workers_and_clients_lose_no_request():
    """More workers than cores, a tiny switch interval: every request is
    answered with its own output and counted exactly once."""
    clients, per_client = 4, 100
    config = BatcherConfig(max_batch_size=4, workers=4, max_queue_depth=8)
    futures = [[None] * per_client for _ in range(clients)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with MicroBatcher(_echo, config) as batcher:

            def client(c):
                for i in range(per_client):
                    futures[c][i] = batcher.submit(
                        np.array([float(c * per_client + i)]), timeout=10.0
                    )

            threads = [
                threading.Thread(target=client, args=(c,))
                for c in range(clients)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
                assert not thread.is_alive()
            for c in range(clients):
                for i, future in enumerate(futures[c]):
                    value = float(c * per_client + i)
                    np.testing.assert_array_equal(
                        future.result(timeout=10.0), [2.0 * value + 1.0]
                    )
    finally:
        sys.setswitchinterval(interval)
    total = clients * per_client
    assert batcher.stats.requests == total
    assert sum(batcher.stats.batch_sizes) == total
    assert batcher.stats.batches == len(batcher.stats.batch_sizes)


@THREADED
@given(
    # Powers of two (in seconds) stay exact through the seconds->ms
    # conversion, so the histogram comparison needs no tolerance.
    service_times=st.lists(
        st.sampled_from([2.0**-k for k in range(4, 12)]),
        min_size=1,
        max_size=12,
    )
)
def test_latency_accounting_is_exact_on_a_fake_clock(service_times):
    """The recorded latency histogram equals the injected service times.

    The target advances the shared FakeClock by a known amount per
    batch; requests run one at a time, so request i's recorded latency
    is *exactly* ``service_times[i]`` — the deadline/latency assertions
    that used to tolerate scheduler jitter are equalities here.
    """
    clock = FakeClock()
    calls = {"i": 0}

    def timed_target(images):
        clock.advance(service_times[calls["i"]])
        calls["i"] += 1
        return _echo(images)

    config = BatcherConfig(
        max_batch_size=1, workers=1, max_queue_depth=4
    )
    batcher = MicroBatcher(timed_target, config, clock=clock)
    batcher.recorder = Recorder()
    with batcher:
        for expected in service_times:
            before = clock.monotonic()
            batcher.submit(np.zeros(2), timeout=5.0).result(timeout=10.0)
            # The clock moved by exactly this request's service time...
            assert clock.monotonic() - before == expected
    hist = batcher.recorder.metrics.as_dict()["histograms"][
        "serve/latency_ms"
    ]
    # ...and the histogram recorded exactly those latencies.
    assert hist["count"] == len(service_times)
    assert hist["sum"] == sum(s * 1e3 for s in service_times)


@FAST
@given(
    rate=st.sampled_from([1.0, 4.0, 32.0, 256.0]),
    burst=st.integers(1, 16),
    steps=st.lists(
        st.tuples(
            # Power-of-two advances keep refill arithmetic exact.
            st.sampled_from([0.0] + [2.0**-k for k in range(0, 10)]),
            st.booleans(),  # whether to try acquiring after advancing
        ),
        max_size=40,
    ),
)
def test_token_bucket_refills_on_the_exact_schedule(rate, burst, steps):
    """TokenBucket against an exact reference model on one fake clock."""
    clock = FakeClock()
    bucket = TokenBucket(rate=rate, burst=burst, clock=clock)
    tokens = float(burst)  # reference model, same arithmetic
    last = clock.monotonic()
    for advance, acquire in steps:
        clock.advance(advance)
        if not acquire:
            continue
        now = clock.monotonic()
        tokens = min(float(burst), tokens + (now - last) * rate)
        last = now
        expect = tokens >= 1.0
        assert bucket.try_acquire() is expect
        if expect:
            tokens -= 1.0
    now = clock.monotonic()
    tokens = min(float(burst), tokens + (now - last) * rate)
    assert bucket.tokens == tokens
