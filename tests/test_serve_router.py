"""Property-based tests for the consistent digest-keyed shard router.

The routing invariants the gateway's correctness rests on:

* **stability** — the same key always routes to the same live shard,
  across calls and across independently-built routers;
* **order invariance** — the mapping is a pure function of the shard
  *set*; the order shards were added in (or listed in) cannot matter;
* **minimal disruption** — removing a shard only remaps the keys that
  shard owned (≈1/N of the key space); every other key keeps its
  assignment.  Adding it back restores the original mapping exactly.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import ServeError
from repro.serve import ConsistentRouter

pytestmark = pytest.mark.property

SETTINGS = settings(max_examples=50, deadline=None)

#: Distinct shard-id lists (1..8 shards with readable names).
shard_lists = st.lists(
    st.sampled_from([f"shard-{i}" for i in range(8)]),
    min_size=1,
    max_size=8,
    unique=True,
)

keys = st.lists(
    st.text(min_size=1, max_size=24), min_size=1, max_size=200, unique=True
)


class TestRoutingInvariants:
    @SETTINGS
    @given(shards=shard_lists, ks=keys)
    def test_same_key_same_shard(self, shards, ks):
        """Routing is deterministic within and across router instances."""
        router_a = ConsistentRouter(shards)
        router_b = ConsistentRouter(shards)
        for key in ks:
            owner = router_a.route(key)
            assert owner in shards
            assert router_a.route(key) == owner  # stable across calls
            assert router_b.route(key) == owner  # pure function of the set

    @SETTINGS
    @given(shards=shard_lists, ks=keys, seed=st.integers(0, 2**32 - 1))
    def test_routing_invariant_under_shard_order(self, shards, ks, seed):
        """Permuting the shard list cannot change any assignment."""
        import random

        permuted = list(shards)
        random.Random(seed).shuffle(permuted)
        router = ConsistentRouter(shards)
        router_permuted = ConsistentRouter(permuted)
        for key in ks:
            assert router.route(key) == router_permuted.route(key)

    @SETTINGS
    @given(shards=shard_lists, ks=keys)
    def test_removal_only_remaps_the_lost_shards_keys(self, shards, ks):
        """route(k) changes on removal => k was owned by the removed
        shard; survivors keep every key they already owned."""
        if len(shards) < 2:
            return
        victim = shards[0]
        router = ConsistentRouter(shards)
        before = {key: router.route(key) for key in ks}
        router.remove(victim)
        for key in ks:
            after = router.route(key)
            assert after != victim
            if before[key] != victim:
                assert after == before[key], (
                    f"key {key!r} moved from surviving shard "
                    f"{before[key]!r} to {after!r}"
                )

    @SETTINGS
    @given(shards=shard_lists, ks=keys)
    def test_rejoin_restores_the_original_mapping(self, shards, ks):
        victim = shards[-1]
        router = ConsistentRouter(shards)
        before = {key: router.route(key) for key in ks}
        if len(shards) > 1:
            router.remove(victim)
        else:
            router.remove(victim)  # empty ring is legal, routing isn't
            with pytest.raises(ServeError):
                router.route(ks[0])
        router.add(victim)
        assert {key: router.route(key) for key in ks} == before

    def test_remap_fraction_is_about_one_over_n(self):
        """Losing 1 of N shards moves ~1/N of a large key space."""
        shards = [f"shard-{i}" for i in range(4)]
        router = ConsistentRouter(shards, replicas=128)
        ks = [f"request-{i}" for i in range(8000)]
        before = {key: router.route(key) for key in ks}
        router.remove("shard-2")
        moved = sum(
            1 for key in ks if router.route(key) != before[key]
        )
        fraction = moved / len(ks)
        # Exactly the victim's keys move; its ownership share is ~1/4
        # give or take virtual-node variance.
        owned = sum(1 for key in ks if before[key] == "shard-2")
        assert moved == owned
        assert 0.10 <= fraction <= 0.45, fraction


class TestRouterSurface:
    def test_bytes_and_str_keys_agree(self):
        router = ConsistentRouter(["a", "b", "c"])
        for key in ("alpha", "beta", "yes/no", ""):
            assert router.route(key) == router.route(key.encode("utf-8"))

    def test_membership_surface(self):
        router = ConsistentRouter(["a"])
        assert "a" in router and len(router) == 1
        with pytest.raises(ServeError):
            router.add("a")  # duplicate
        with pytest.raises(ServeError):
            router.remove("zzz")  # absent
        assert router.discard("zzz") is False
        assert router.discard("a") is True
        assert len(router) == 0
        with pytest.raises(ServeError):
            router.route("anything")  # empty ring

    def test_shards_property_sorted(self):
        router = ConsistentRouter(["c", "a", "b"])
        assert router.shards == ["a", "b", "c"]
