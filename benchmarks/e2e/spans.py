"""In-memory spans recorded from outside the program, and the layer replay.

The benchmark never edits the package to time it.  Every span here is
recorded around a call into a public function: ``InferenceSession.
infer_batch``, ``BinarizedNetwork.run_layer``, ``AsyncGateway.submit``,
``compile_network`` (through ``repro.api.compile``) and ``zoo.warm_model``.
Spans live in memory and are written out once, when the run ends.

A span's self time is its duration minus the time its children cover;
the per-layer metrics are sums of self times.
"""

from __future__ import annotations

import itertools
import threading
import time
from contextlib import contextmanager
from typing import Dict, Iterator, List

import numpy as np

__all__ = ["Span", "SpanLog", "quantize_input", "replay_tile", "layer_metrics"]


class Span:
    __slots__ = ("id", "name", "start", "end", "parent", "attrs")

    def __init__(self, id, name, start, end=None, parent=None, attrs=None):
        self.id = id
        self.name = name
        self.start = start
        self.end = end
        self.parent = parent
        self.attrs = attrs or {}

    @property
    def duration(self) -> float:
        return self.end - self.start

    def as_dict(self) -> dict:
        return {
            "id": self.id,
            "name": self.name,
            "start": self.start,
            "end": self.end,
            "parent": self.parent,
            **self.attrs,
        }


class SpanLog:
    """Spans from any number of threads; parents are passed explicitly.

    Serving spans open on the load generator, the gateway's threads and
    the shard workers, so there is no implicit "current span": callers
    name the parent span id (or None for a root).
    """

    def __init__(self) -> None:
        self.spans: List[Span] = []
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def add(self, name, start, end, parent=None, **attrs) -> Span:
        """Record a span whose times were taken elsewhere."""
        with self._lock:
            span = Span(next(self._ids), name, start, end, parent, attrs)
            self.spans.append(span)
        return span

    @contextmanager
    def span(self, name, parent=None, **attrs) -> Iterator[Span]:
        span = self.add(name, time.perf_counter(), None, parent, **attrs)
        try:
            yield span
        finally:
            span.end = time.perf_counter()

    def self_times(self, where=None) -> Dict[str, float]:
        """Total self time per span name, over spans ``where`` accepts."""
        child_time: Dict[int, float] = {}
        for span in self.spans:
            if span.parent is not None:
                child_time[span.parent] = (
                    child_time.get(span.parent, 0.0) + span.duration
                )
        totals: Dict[str, float] = {}
        for span in self.spans:
            if where is None or where(span):
                totals[span.name] = (
                    totals.get(span.name, 0.0)
                    + span.duration
                    - child_time.get(span.id, 0.0)
                )
        return totals

    def durations(self, name, where=None) -> List[float]:
        return [
            s.duration
            for s in self.spans
            if s.name == name and (where is None or where(s))
        ]

    def as_dict(self) -> dict:
        return {"spans": [span.as_dict() for span in self.spans]}


def quantize_input(net, x: np.ndarray) -> np.ndarray:
    """The input-DAC rounding ``BinarizedNetwork.forward`` applies first.

    Written out here because the package keeps it private.  The replay
    is checked against the engine's own ``infer_batch`` logits, so a
    drift between the two fails the run instead of skewing the trace.
    """
    if net.input_bits is None:
        return x
    steps = 2**net.input_bits - 1
    return np.rint(np.clip(x, 0.0, 1.0) * steps) / steps


def replay_tile(log: SpanLog, net, images: np.ndarray, tile: int, **attrs):
    """One ``infer_batch`` tile, replayed layer by layer through run_layer.

    Mirrors ``InferenceSession.infer_batch`` for one tile: zero-pad to
    the tile size, run every layer, drop the padding.  Spans:
    ``infer_batch`` > ``forward`` > ``input`` and ``L<index>``.
    """
    n = len(images)
    with log.span("infer_batch", samples=n, **attrs) as call:
        if n < tile:
            images = np.concatenate(
                [images, np.zeros((tile - n,) + images.shape[1:])]
            )
        with log.span("forward", parent=call.id, **attrs) as fwd:
            with log.span("input", parent=fwd.id, **attrs):
                x = quantize_input(net, images)
            for index in range(len(net.network.layers)):
                with log.span(f"L{index}", parent=fwd.id, **attrs):
                    x = net.run_layer(index, x)
    return x[:n]


def layer_metrics(log: SpanLog, net, prefix: str, where=None) -> dict:
    """Per-layer ms per 1000 samples from replayed tiles, as metrics.

    Weighted layers and pools are reported one by one; input rounding,
    ReLU and Flatten are summed into ``rest``.  ``unattributed_frac`` is
    the share of ``forward`` time no layer span covers.
    """
    from repro.nn.layers import Conv2D, Dense, MaxPool2D

    samples = sum(
        s.attrs["samples"]
        for s in log.spans
        if s.name == "infer_batch" and (where is None or where(s))
    )
    self_time = log.self_times(where)
    forward = sum(log.durations("forward", where))
    per_k = 1e6 / samples  # seconds -> ms per 1000 samples
    out = {}
    rest = self_time.get("input", 0.0)
    for index, layer in enumerate(net.network.layers):
        seconds = self_time.get(f"L{index}", 0.0)
        if isinstance(layer, (Conv2D, Dense, MaxPool2D)):
            out[f"{prefix}L{index}_ms_per_ksample"] = (
                seconds * per_k, "ms", "lower")
        else:
            rest += seconds
    out[f"{prefix}rest_ms_per_ksample"] = (rest * per_k, "ms", "lower")
    out[f"{prefix}forward_ms_per_ksample"] = (
        forward * per_k, "ms", "lower")
    out[f"{prefix}unattributed_frac"] = (
        self_time.get("forward", 0.0) / forward,
        "fraction",
        "lower",
    )
    return out
