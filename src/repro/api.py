"""Stable top-level API: the five verbs of the SEI pipeline.

Everything the paper's reproduction does reduces to this sequence::

    model   = api.load("network2")            # train/load + Algorithm 1
    session = api.compile("network2")         # assemble on an engine
    logits  = api.infer(image)                # one-shot classification
    with api.serve("network2") as batcher:    # micro-batched serving
        future = batcher.submit(image)

plus :func:`quantize` for running Algorithm 1 on a user-supplied
network and :func:`gateway` for serving at scale (a sharded,
admission-controlled front-end over N warm sessions).  These verbs
are the supported surface: internals
(``repro.core``, ``repro.zoo``, ...) stay importable but may reshuffle
between releases; this module will not.

All verbs take an :class:`~repro.core.engines.EngineSpec` (or ``None``
for the default fused engine) for the backend selection; a plain
engine-name string is rejected (see
:func:`repro.core.engines.resolve_engine`).

The cells are described in one place, the engine's
:class:`~repro.core.hardware_network.HardwareConfig`: its
:class:`~repro.hw.device.RRAMDevice` non-idealities and (optionally)
:class:`~repro.hw.array.TemporalConfig` aging, with a
:class:`~repro.hw.retune.RetunePolicy` closing the online re-tuning
loop::

    session = api.compile(
        "network2",
        engine=api.EngineSpec(
            hardware=api.HardwareConfig(
                device=api.RRAMDevice(program_sigma=0.02),
                temporal=api.TemporalConfig(drift_nu=0.05),
            ),
        ),
        retune=api.RetunePolicy(check_every=8),
    )
"""

from __future__ import annotations

from dataclasses import replace
from pathlib import Path
from typing import Dict, Optional, Union

import numpy as np

from repro import zoo
from repro.core.engines import EngineSpec, resolve_engine
from repro.core.hardware_network import HardwareConfig
from repro.core.threshold_search import (
    SearchConfig,
    SearchResult,
    search_thresholds,
)
from repro.errors import ConfigurationError
from repro.hw.array import DeviceArray, TemporalConfig
from repro.hw.device import RRAMDevice
from repro.hw.retune import RetunePolicy
from repro.nn.network import Sequential
from repro.serve.batcher import BatcherConfig, MicroBatcher
from repro.serve.gateway import AsyncGateway, GatewayConfig
from repro.serve.session import InferenceSession, SessionConfig, compile_session

__all__ = [
    "load",
    "quantize",
    "compile",
    "infer",
    "serve",
    "gateway",
    "AsyncGateway",
    "GatewayConfig",
    "EngineSpec",
    "SessionConfig",
    "BatcherConfig",
    "InferenceSession",
    "MicroBatcher",
    "HardwareConfig",
    "RRAMDevice",
    "TemporalConfig",
    "RetunePolicy",
    "DeviceArray",
]


def load(
    network: str = "network2",
    *,
    dataset=None,
    search: Optional[SearchConfig] = None,
    cache_dir: Optional[Path] = None,
) -> zoo.QuantizedModel:
    """Load (training + quantizing on first use) a zoo model bundle.

    Artefacts are cached on disk keyed by the full recipe digest and in
    process by the zoo's warm registry, so repeated loads are free.
    """
    return zoo.warm_model(
        network, dataset=dataset, search_config=search, cache_dir=cache_dir
    )


def quantize(
    network: Sequential,
    images: np.ndarray,
    labels: np.ndarray,
    config: Optional[SearchConfig] = None,
) -> SearchResult:
    """Run Algorithm 1 (greedy threshold search) on a trained network.

    A thin alias of
    :func:`repro.core.threshold_search.search_thresholds` — the facade
    name for the quantization verb.
    """
    return search_thresholds(network, images, labels, config)


def _session_config(
    network: str,
    engine: Optional[EngineSpec],
    tile: int,
    calibrate_splits: bool,
    search: Optional[SearchConfig],
    cache_dir: Optional[Path],
    retune: Optional[RetunePolicy] = None,
    age_per_batch: float = 1.0,
) -> SessionConfig:
    return SessionConfig(
        network=network,
        engine=resolve_engine(engine, caller="repro.api"),
        tile=tile,
        calibrate_splits=calibrate_splits,
        search=search,
        cache_dir=cache_dir,
        retune=retune,
        age_per_batch=age_per_batch,
    )


def compile(  # noqa: A001 - deliberate verb name on the facade
    network: Union[str, Sequential] = "network2",
    thresholds: Optional[Dict[int, float]] = None,
    *,
    engine: Optional[EngineSpec] = None,
    tile: int = 16,
    calibrate_splits: bool = False,
    search: Optional[SearchConfig] = None,
    cache_dir: Optional[Path] = None,
    dataset=None,
    reuse: bool = True,
    retune: Optional[RetunePolicy] = None,
    age_per_batch: float = 1.0,
) -> InferenceSession:
    """Compile a warm :class:`InferenceSession`.

    Two forms:

    * ``compile("network2")`` — zoo-backed: loads (or trains) the named
      model and compiles it; equal configurations return the same warm
      session.
    * ``compile(my_network, my_thresholds)`` — explicit artefacts,
      bypassing the zoo (``calibrate_splits``/``dataset``/``reuse`` do
      not apply).

    The cells (non-idealities and optional aging) are the
    ``engine``'s :class:`HardwareConfig`.  ``retune`` arms the session's
    online re-tuning loop and ``age_per_batch`` sets its device clock
    (both only meaningful over aging hardware).
    """
    if isinstance(network, str):
        if thresholds is not None:
            raise ConfigurationError(
                "thresholds are only accepted with an explicit network "
                "object; zoo models carry their own"
            )
        config = _session_config(
            network,
            engine,
            tile,
            calibrate_splits,
            search,
            cache_dir,
            retune=retune,
            age_per_batch=age_per_batch,
        )
        return compile_session(config, dataset=dataset, reuse=reuse)
    if thresholds is None:
        raise ConfigurationError(
            "compiling an explicit network requires its thresholds "
            "(run api.quantize first)"
        )
    if calibrate_splits:
        raise ConfigurationError(
            "calibrate_splits requires a zoo-backed session (pass the "
            "network name) — explicit-artifact sessions take "
            "decisions/partitions via InferenceSession.from_artifacts"
        )
    return InferenceSession.from_artifacts(
        network,
        thresholds,
        SessionConfig(
            network="<custom>",
            engine=resolve_engine(engine, caller="repro.api"),
            tile=tile,
            retune=retune,
            age_per_batch=age_per_batch,
        ),
    )


def infer(
    x: np.ndarray,
    network: str = "network2",
    *,
    engine: Optional[EngineSpec] = None,
    tile: int = 16,
    cache_dir: Optional[Path] = None,
) -> np.ndarray:
    """Logits for one sample or a batch on a named zoo model.

    Compiles (or reuses) the matching warm session under the hood;
    repeated calls with the same configuration pay no setup cost.
    """
    session = compile(network, engine=engine, tile=tile, cache_dir=cache_dir)
    return session.infer(x)


def serve(
    network: str = "network2",
    *,
    engine: Optional[EngineSpec] = None,
    tile: int = 16,
    cache_dir: Optional[Path] = None,
    retune: Optional[RetunePolicy] = None,
    batcher: Optional[BatcherConfig] = None,
    max_batch_size: Optional[int] = None,
    max_queue_depth: Optional[int] = None,
    workers: Optional[int] = None,
) -> MicroBatcher:
    """A *running* micro-batcher over a warm session.

    Either pass a full :class:`BatcherConfig` via ``batcher`` or set the
    individual knobs.  Use as a context manager, or call
    ``.stop()`` when done::

        with api.serve("network2", workers=2) as mb:
            futures = [mb.submit(x) for x in images]
            logits = [f.result() for f in futures]
    """
    overrides = {
        "max_batch_size": max_batch_size,
        "max_queue_depth": max_queue_depth,
        "workers": workers,
    }
    overrides = {k: v for k, v in overrides.items() if v is not None}
    if batcher is not None and overrides:
        raise ConfigurationError(
            "pass either a BatcherConfig or individual batcher knobs, "
            f"not both (got batcher= and {sorted(overrides)})"
        )
    if batcher is None:
        batcher = BatcherConfig(**overrides)
    session = compile(
        network, engine=engine, tile=tile, cache_dir=cache_dir,
        retune=retune,
    )
    return session.serve(batcher)


def gateway(
    networks: Union[str, Dict[str, str], "list", "tuple"] = "network2",
    *,
    shards: Optional[int] = None,
    config: Optional[GatewayConfig] = None,
    engine: Optional[EngineSpec] = None,
    tile: int = 16,
    cache_dir: Optional[Path] = None,
    retune: Optional[RetunePolicy] = None,
    start: bool = True,
) -> AsyncGateway:
    """A sharded async serving gateway over warm zoo sessions.

    ``networks`` names the tenants: one zoo model name, several, or an
    explicit ``{tenant: network}`` mapping.  Each tenant factory
    compiles through :func:`compile`.  A stateful session, one whose
    cells age (the resolved engine's ``hardware.temporal`` is set and
    enabled) or that re-tunes (``retune`` given), is compiled once per
    shard, so shards age and re-program their own arrays; a stateless
    one is shared between shards through the warm-session registry.

    ``config`` carries the serving-plane knobs (admission limits,
    routing replicas, batcher shape); ``shards`` is a convenience
    override of ``config.shards``.  Returns a *running* gateway unless
    ``start=False``::

        with api.gateway("network2", shards=4) as gw:
            logits = gw.infer(image)
    """
    if isinstance(networks, str):
        networks = {networks: networks}
    elif not isinstance(networks, dict):
        networks = {name: name for name in networks}
    temporal = resolve_engine(engine, caller="repro.api").hardware.temporal
    stateful = retune is not None or (
        temporal is not None and temporal.enabled
    )

    def _factory(network_name: str):
        def build():
            return compile(
                network_name,
                engine=engine,
                tile=tile,
                cache_dir=cache_dir,
                retune=retune,
                reuse=not stateful,
            )

        return build

    tenants = {
        tenant: _factory(network_name)
        for tenant, network_name in networks.items()
    }
    if config is None:
        config = GatewayConfig(shards=shards if shards is not None else 2)
    elif shards is not None and shards != config.shards:
        config = replace(config, shards=shards)
    gw = AsyncGateway(tenants, config=config)
    return gw.start() if start else gw
