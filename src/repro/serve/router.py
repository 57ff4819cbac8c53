"""Consistent digest-keyed request routing across session shards.

The gateway spreads traffic over N shards.  A naive ``hash(key) % N``
remaps almost *every* key when a shard dies or rejoins, trashing every
shard-local warm state (model registries, batch coalescing affinity) at
once.  :class:`ConsistentRouter` is the classic fix — a consistent-hash
ring:

* each shard owns ``replicas`` pseudo-random points on a 64-bit ring
  (BLAKE2b of ``"shard-id#i"``);
* a request key routes to the first shard point clockwise from the
  key's own hash;
* when one of N shards leaves, only the keys whose nearest point
  belonged to it move (~1/N of the keyspace); everyone else's mapping
  is untouched.  Adding a shard is symmetric.

Determinism contracts (property-tested in
``tests/test_serve_router.py``):

* the same key always maps to the same live shard;
* the mapping is a pure function of the *set* of shard ids — insertion
  order never matters;
* removal moves only keys that belonged to the removed shard.

Hashes come from :func:`hashlib.blake2b` (stable across processes and
Python versions — ``hash()`` is salted per process and useless here).
"""

from __future__ import annotations

import bisect
import hashlib
import threading
from typing import Dict, List, Optional, Sequence, Tuple, Union

from repro.errors import ConfigurationError, ServeError

__all__ = ["ConsistentRouter"]

_RING_BITS = 64
_RING_MASK = (1 << _RING_BITS) - 1


def _hash64(data: bytes) -> int:
    return int.from_bytes(
        hashlib.blake2b(data, digest_size=8).digest(), "big"
    )


class ConsistentRouter:
    """A consistent-hash ring mapping request keys to shard ids.

    Parameters
    ----------
    shards:
        Initial shard ids (any iterable of strings; order irrelevant).
    replicas:
        Virtual points per shard.  More points smooth the keyspace
        split between shards (64 keeps the max/min shard share within
        ~2x for small N) at O(replicas * N) memory.
    """

    def __init__(
        self, shards: Sequence[str] = (), replicas: int = 64
    ) -> None:
        if replicas < 1:
            raise ConfigurationError(
                f"replicas must be >= 1, got {replicas}"
            )
        self.replicas = replicas
        self._lock = threading.Lock()
        #: ring position -> shard id (positions kept sorted in _points)
        self._ring: Dict[int, str] = {}
        self._points: List[int] = []
        self._shards: Dict[str, Tuple[int, ...]] = {}
        for shard in shards:
            self.add(shard)

    # -- membership ------------------------------------------------------
    @property
    def shards(self) -> List[str]:
        """The live shard ids, sorted (a copy)."""
        with self._lock:
            return sorted(self._shards)

    def __len__(self) -> int:
        with self._lock:
            return len(self._shards)

    def __contains__(self, shard_id: str) -> bool:
        with self._lock:
            return shard_id in self._shards

    def _shard_points(self, shard_id: str) -> Tuple[int, ...]:
        return tuple(
            _hash64(f"{shard_id}#{i}".encode("utf-8"))
            for i in range(self.replicas)
        )

    def add(self, shard_id: str) -> None:
        """Join ``shard_id`` to the ring (idempotent-hostile: raises on
        duplicates so a lifecycle bug cannot silently double-weight a
        shard)."""
        shard_id = str(shard_id)
        with self._lock:
            if shard_id in self._shards:
                raise ServeError(f"shard {shard_id!r} is already routed")
            points = self._shard_points(shard_id)
            for point in points:
                # 64-bit collisions across distinct ids are ~impossible;
                # refuse loudly rather than silently overwrite if one
                # ever shows up.
                if point in self._ring:
                    raise ServeError(
                        f"ring collision between {shard_id!r} and "
                        f"{self._ring[point]!r}"
                    )
                self._ring[point] = shard_id
                bisect.insort(self._points, point)
            self._shards[shard_id] = points

    def remove(self, shard_id: str) -> None:
        """Leave the ring; keys owned by this shard remap to successors."""
        shard_id = str(shard_id)
        with self._lock:
            points = self._shards.pop(shard_id, None)
            if points is None:
                raise ServeError(f"shard {shard_id!r} is not routed")
            for point in points:
                del self._ring[point]
                index = bisect.bisect_left(self._points, point)
                del self._points[index]

    def discard(self, shard_id: str) -> bool:
        """Like :meth:`remove` but a no-op (returns False) when absent."""
        try:
            self.remove(shard_id)
        except ServeError:
            return False
        return True

    # -- routing ---------------------------------------------------------
    def route(self, key: Union[str, bytes]) -> str:
        """The live shard owning ``key``; raises when the ring is empty."""
        if isinstance(key, str):
            key = key.encode("utf-8")
        point = _hash64(key)
        with self._lock:
            if not self._points:
                raise ServeError(
                    "no live shards to route to (ring is empty)"
                )
            index = bisect.bisect_right(self._points, point)
            if index == len(self._points):  # wrap around the ring
                index = 0
            return self._ring[self._points[index]]

    def __repr__(self) -> str:
        with self._lock:
            shards = sorted(self._shards)
        return (
            f"ConsistentRouter(shards={shards}, replicas={self.replicas})"
        )
