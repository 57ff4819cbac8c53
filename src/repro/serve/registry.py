"""Multi-tenant warm-model registry with LRU eviction and prewarm.

A gateway shard serves many *tenants* — distinct session configurations
(different zoo networks, engines, tiles) — but cannot keep every model
resident forever: a compiled :class:`~repro.serve.session.
InferenceSession` pins its fused matrices and device arrays in
memory.  :class:`WarmRegistry` is the shard-local answer:

* ``get(key)`` returns the warm entry, loading (compiling) it on first
  use — the **cold start**;
* entries are kept in least-recently-used order and the coldest one is
  **evicted** when ``capacity`` is exceeded;
* ``prewarm(keys)`` pays the cold starts up front, so a shard joins
  the router with its tenants already hot instead of stalling the
  first requests of each;
* concurrent ``get`` calls for the *same* cold key share one load
  (per-key in-progress latching) while loads for different keys run
  in parallel.

The registry is deliberately generic — ``loader(key) -> entry`` — so
production shards load real sessions while tests inject counting
fakes.  Hit/miss/eviction counters land in :mod:`repro.obs` under
``serve/registry/*``.
"""

from __future__ import annotations

import threading
from collections import OrderedDict
from typing import Callable, Dict, Iterable, List, Optional

from repro import obs
from repro.errors import ConfigurationError, ServeError

__all__ = ["WarmRegistry"]

logger = obs.get_logger("serve")


class WarmRegistry:
    """An LRU cache of warm, expensive-to-build entries.

    Parameters
    ----------
    loader:
        Builds the entry for a key on a cold start.  Exceptions
        propagate to every ``get`` waiting on that key and nothing is
        cached — a broken tenant stays cold rather than caching the
        failure.
    capacity:
        Most entries kept resident; the least-recently-used entry is
        evicted beyond that.
    recorder:
        Optional dedicated :class:`repro.obs.Recorder` for the
        ``serve/registry/*`` counters (defaults to the process-global
        recorder, when one is active).
    """

    def __init__(
        self,
        loader: Callable[[str], object],
        capacity: int = 4,
        recorder=None,
    ) -> None:
        if capacity < 1:
            raise ConfigurationError(
                f"capacity must be >= 1, got {capacity}"
            )
        if not callable(loader):
            raise ConfigurationError(
                f"loader must be callable, got {type(loader).__name__}"
            )
        self.capacity = capacity
        self.recorder = recorder
        self._loader = loader
        self._lock = threading.Lock()
        self._entries: "OrderedDict[str, object]" = OrderedDict()
        #: key -> Event latched by the thread loading that key.
        self._loading: Dict[str, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    # -- internals -------------------------------------------------------
    def _count(self, name: str) -> None:
        rec = self.recorder if self.recorder is not None else obs.active()
        if rec is not None:
            rec.metrics.inc(f"serve/registry/{name}")

    def _evict_over_capacity(self) -> List[str]:
        evicted = []
        while len(self._entries) > self.capacity:
            key, _ = self._entries.popitem(last=False)
            evicted.append(key)
            self.evictions += 1
        return evicted

    # -- cache surface ---------------------------------------------------
    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def __contains__(self, key: str) -> bool:
        with self._lock:
            return key in self._entries

    @property
    def resident(self) -> List[str]:
        """Resident keys, coldest (next to evict) first."""
        with self._lock:
            return list(self._entries)

    def get(self, key: str) -> object:
        """The warm entry for ``key`` (loading it on a cold start)."""
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    self._count("hits")
                    return entry
                pending = self._loading.get(key)
                if pending is None:
                    # We are the loader for this key.
                    self._loading[key] = threading.Event()
                    self.misses += 1
                    self._count("misses")
                    break
            # Someone else is loading this key: wait, then re-check
            # (the load may have failed, in which case we retry it).
            pending.wait()
        try:
            with obs.span("serve.registry.load", key=str(key)):
                entry = self._loader(key)
        except BaseException:
            with self._lock:
                self._loading.pop(key).set()
            raise
        with self._lock:
            self._entries[key] = entry
            self._entries.move_to_end(key)
            evicted = self._evict_over_capacity()
            self._loading.pop(key).set()
        for evicted_key in evicted:
            self._count("evictions")
            logger.info(
                "registry evicted %r (capacity %d)", evicted_key,
                self.capacity,
            )
        return entry

    def prewarm(self, keys: Iterable[str]) -> List[object]:
        """Load ``keys`` now (cold-start prewarm); returns the entries.

        Keys beyond ``capacity`` would evict each other pointlessly, so
        a prewarm of more keys than fit raises instead of thrashing.
        """
        keys = list(keys)
        if len(keys) > self.capacity:
            raise ServeError(
                f"cannot prewarm {len(keys)} entries into a registry of "
                f"capacity {self.capacity}"
            )
        return [self.get(key) for key in keys]

    def clear(self) -> None:
        with self._lock:
            self._entries.clear()

    def stats(self) -> dict:
        with self._lock:
            return {
                "capacity": self.capacity,
                "resident": len(self._entries),
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
