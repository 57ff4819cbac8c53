"""Open-loop load generator that times every request from its due time.

Requests are sent on a seeded schedule whether or not earlier ones have
answered (independent users), from one generator thread.  Latency runs
from the moment a request was *due*, not from when the generator got
round to sending it: when the generator runs late, the wait a stall
imposes on the requests behind it is counted, and the lateness itself
is reported as generator lag.

``repro.serve.loadgen.run_load`` times from the send instead
(``done - sent``), so it under-reports latency whenever its generator
falls behind; this generator is the benchmark's own and leaves that
function alone.
"""

from __future__ import annotations

import time
from typing import Callable, List, Sequence

import numpy as np

__all__ = ["Request", "poisson_offsets", "run_open_loop"]


class Request:
    __slots__ = (
        "index", "due", "sent", "submitted", "done", "status", "output",
    )

    def __init__(self, index: int, due: float) -> None:
        self.index = index
        self.due = due
        self.sent = None
        self.submitted = None
        self.done = None
        self.status = "pending"
        self.output = None

    @property
    def latency_s(self) -> float:
        return self.done - self.due

    @property
    def lag_s(self) -> float:
        return self.sent - self.due


def poisson_offsets(rng: np.random.Generator, rate: float, seconds: float):
    """Arrival offsets of a Poisson process at ``rate`` over ``seconds``."""
    gaps = rng.exponential(1.0 / rate, size=int(rate * seconds * 1.5) + 16)
    offsets = np.cumsum(gaps)
    return offsets[offsets < seconds]


def run_open_loop(
    submit: Callable[[np.ndarray], object],
    offsets: Sequence[float],
    indices: Sequence[int],
    images: np.ndarray,
    shed: tuple,
    result_timeout_s: float = 60.0,
) -> List[Request]:
    """Send ``images[indices[i]]`` at ``start + offsets[i]``; wait for all.

    ``submit`` returns a future.  Exceptions of the ``shed`` types, raised
    at submit time or by the future, mark a request ``rejected``; any
    other exception marks it ``error``.  Completion times are taken by a
    done-callback, so they measure when the answer arrived, not when
    this loop got round to collecting it.
    """
    clock = time.perf_counter
    requests: List[Request] = []
    futures = []
    start = clock()
    for offset, index in zip(offsets, indices):
        request = Request(int(index), start + float(offset))
        delay = request.due - clock()
        if delay > 0:
            time.sleep(delay)
        request.sent = clock()
        try:
            future = submit(images[request.index])
        except shed:
            request.submitted = request.done = clock()
            request.status = "rejected"
            requests.append(request)
            continue
        request.submitted = clock()
        future.add_done_callback(
            lambda _f, r=request: setattr(r, "done", clock())
        )
        requests.append(request)
        futures.append((request, future))
    for request, future in futures:
        try:
            request.output = future.result(timeout=result_timeout_s)
            request.status = "ok"
        except shed:
            request.status = "rejected"
        except Exception:  # counted as a failed request, never re-raised
            request.status = "error"
        if request.done is None:  # callback not yet run on its thread
            request.done = clock()
    return requests
