"""Micro-batched inference serving over compiled SEI pipelines.

``repro.serve`` turns the one-shot experiment pipeline into a warm,
reusable service:

* :func:`compile_session` compiles the full ``zoo -> quantize -> split ->
  assemble`` chain once into an :class:`InferenceSession` and caches the
  result by configuration digest;
* :class:`MicroBatcher` coalesces concurrent ``submit`` calls over a
  bounded (backpressured) queue: each free worker runs whatever is
  queued, up to ``max_batch_size``, and fans the per-request results
  back out as futures;
* fixed-tile execution keeps outputs bit-identical no matter how
  requests were coalesced (see :mod:`repro.serve.session`).

At scale, the **gateway** stacks admission control, consistent
digest-keyed routing and N warm multi-tenant shards on top of the same
batcher (see :mod:`repro.serve.gateway`), and
:mod:`repro.serve.loadgen` drives it with seeded open-loop traffic.

Most callers want the facade instead::

    from repro import api
    with api.serve("network2") as batcher:
        future = batcher.submit(image)
    with api.gateway("network2", shards=4) as gw:
        logits = gw.infer(image)
"""

from repro.serve.batcher import (
    LATENCY_EDGES_MS,
    BatcherConfig,
    BatcherStats,
    MicroBatcher,
)
from repro.serve.clock import SYSTEM_CLOCK, Clock, FakeClock, SystemClock
from repro.serve.gateway import AsyncGateway, GatewayConfig, TokenBucket
from repro.serve.loadgen import (
    LoadProfile,
    generate_schedule,
    load_trace,
    measure_saturation,
    run_load,
    run_profile,
    save_trace,
    stationary_rate,
    summarize,
)
from repro.serve.registry import WarmRegistry
from repro.serve.router import ConsistentRouter
from repro.serve.session import (
    InferenceSession,
    SessionConfig,
    clear_sessions,
    compile_session,
)
from repro.serve.shard import SessionShard

__all__ = [
    "LATENCY_EDGES_MS",
    "BatcherConfig",
    "BatcherStats",
    "MicroBatcher",
    "InferenceSession",
    "SessionConfig",
    "clear_sessions",
    "compile_session",
    "Clock",
    "SystemClock",
    "FakeClock",
    "SYSTEM_CLOCK",
    "ConsistentRouter",
    "WarmRegistry",
    "SessionShard",
    "AsyncGateway",
    "GatewayConfig",
    "TokenBucket",
    "LoadProfile",
    "generate_schedule",
    "stationary_rate",
    "save_trace",
    "load_trace",
    "run_load",
    "run_profile",
    "summarize",
    "measure_saturation",
]
