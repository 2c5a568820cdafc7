"""Coherence tests for the tiered plan cache behind shard workers.

Layer under test: :class:`repro.planner.tiered.TieredPlanCache` — a
per-shard :class:`~repro.planner.cache.PlanCache` LRU (L1) backed by a
pool-wide :class:`~repro.planner.tiered.WarmPlanStore` (L2, write-behind)
— and its wiring through :class:`repro.serve.shard.ShardPool`:

* a killed-and-restarted shard re-answers replayed keys from the warm
  tier (no cold re-solve), in **both** worker modes;
* ``invalidate(fingerprint)`` is exact: both tiers drop that fleet's
  plans and nothing of a sibling fleet's;
* the write-behind queue never resurrects an invalidated plan;
* stripped values: the heavy warm-start ``region`` never crosses into
  the shared store.
"""

from __future__ import annotations

import pytest

from repro.core.bisection import partition_bisection
from repro.planner import Fleet, Planner, TieredPlanCache, WarmPlanStore
from repro.serve.protocol import speed_functions_from_fleet_spec
from repro.serve.shard import ShardPool
from tests.conftest import make_pwl


@pytest.fixture
def pair_specs(trio_spec):
    """Two sibling fleets with distinct fingerprints, as wire specs."""
    other = dict(trio_spec)
    other["name"] = "quartet"
    other["speed_functions"] = trio_spec["speed_functions"] + [
        trio_spec["speed_functions"][0]
    ]
    return trio_spec, other


def _fingerprint(spec) -> str:
    return Fleet(speed_functions_from_fleet_spec(spec)).fingerprint


def _solve(pool, fingerprint, sizes):
    items = [{"n": n, "deadline": None, "allocation": True} for n in sizes]
    payload = pool.submit_batch(fingerprint, items).result(60)
    assert payload["ok"], payload
    assert all(item.get("ok") for item in payload["results"]), payload
    return payload["results"]


def _fleet_stats(pool, fingerprint):
    shard = pool.shard_for(fingerprint)
    payload = pool.stats_all()[shard].result(60)
    assert payload["ok"], payload
    return payload["fleets"][fingerprint]


SIZES = [400_000 + 7_000 * i for i in range(8)]


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_restart_recovers_warm_hits_and_bit_identity(mode, pair_specs):
    """Replay after a shard restart: warm-tier hits, identical plans."""
    spec, _ = pair_specs
    fingerprint = _fingerprint(spec)
    pool = ShardPool(2, mode=mode)
    try:
        assert pool.register(spec, fingerprint).result(60)["ok"]
        before = _solve(pool, fingerprint, SIZES)

        pool.restart_shard(pool.shard_for(fingerprint))

        after = _solve(pool, fingerprint, SIZES)
        assert after == before, "restarted shard returned different plans"
        stats = _fleet_stats(pool, fingerprint)
        warm = stats.get("warm")
        assert warm is not None, "restarted planner lost its warm tier"
        # The acceptance bar: at least half the replayed keys answered
        # from the warm tier (here all of them are, but the contract is
        # the floor).
        assert warm["hits"] >= len(SIZES) // 2, warm
        assert stats["cold_plans"] == 0, stats
    finally:
        pool.close()


@pytest.mark.parametrize("mode", ["thread", "process"])
def test_invalidate_evicts_both_tiers_exactly(mode, pair_specs):
    """Invalidation drops one fleet from L1+L2 and spares its sibling."""
    spec_a, spec_b = pair_specs
    fp_a, fp_b = _fingerprint(spec_a), _fingerprint(spec_b)
    assert fp_a != fp_b
    pool = ShardPool(2, mode=mode)
    try:
        assert pool.register(spec_a, fp_a).result(60)["ok"]
        assert pool.register(spec_b, fp_b).result(60)["ok"]
        _solve(pool, fp_a, SIZES)
        _solve(pool, fp_b, SIZES)
        store = pool.warm_store
        assert store is not None
        # Let fp_a's shard finish its write-behind first: a restart closes
        # the worker's TieredPlanCache, which writes every queued mirror
        # and joins its writer.  Invalidating while mirrors were still
        # queued let a late one resurrect fp_a in the store.
        pool.restart_shard(pool.shard_for(fp_a))
        entries_before = len(store)
        assert entries_before >= 2

        dropped = store.invalidate(fp_a)
        assert dropped >= 1

        # Sibling entries intact: replaying fp_b after a restart of its
        # shard still hits warm (its plans survived the invalidation).
        pool.restart_shard(pool.shard_for(fp_b))
        _solve(pool, fp_b, SIZES)
        stats_b = _fleet_stats(pool, fp_b)
        assert stats_b["warm"]["hits"] >= len(SIZES) // 2, stats_b
        # And fp_a's warm entries are really gone: its restarted worker
        # re-solves cold.
        pool.restart_shard(pool.shard_for(fp_a))
        _solve(pool, fp_a, SIZES)
        stats_a = _fleet_stats(pool, fp_a)
        assert stats_a["warm"]["hits"] == 0, stats_a
        assert stats_a["cold_plans"] >= 1, stats_a
    finally:
        pool.close()


def test_tiered_cache_write_behind_and_promotion():
    """Unit-level: L2 read-through promotes into L1; flush() is a barrier."""
    sfs = [make_pwl(100.0), make_pwl(220.0)]
    fleet = Fleet(sfs, name="unit")
    store = WarmPlanStore.local(maxsize=64)
    cache = TieredPlanCache(8, warm=store, name="unit-a")
    planner = Planner(fleet, cache=cache)
    try:
        result = planner.plan(500_000)
        cache.flush()
        assert len(store) >= 1

        # A sibling planner sharing the store starts warm: its first
        # query is answered by promotion, not a cold solve.
        sibling_cache = TieredPlanCache(8, warm=store, name="unit-b")
        sibling = Planner(fleet, cache=sibling_cache)
        try:
            again = sibling.plan(500_000)
            assert list(again.allocation) == list(result.allocation)
            assert again.makespan == result.makespan
            assert sibling.stats().cold_plans == 0
            assert sibling_cache.warm_stats()["hits"] == 1
        finally:
            sibling_cache.close()
    finally:
        cache.close()


def test_invalidate_flushes_write_behind_first():
    """A plan still sitting in the write queue must not resurrect."""
    sfs = [make_pwl(100.0), make_pwl(220.0)]
    fleet = Fleet(sfs, name="unit")
    store = WarmPlanStore.local(maxsize=64)
    cache = TieredPlanCache(8, warm=store, name="race")
    planner = Planner(fleet, cache=cache)
    try:
        planner.plan(500_000)
        # invalidate() flushes the writer thread before dropping, so the
        # in-flight write cannot land after the eviction.
        cache.invalidate(fleet.fingerprint)
        assert len(store) == 0
        assert cache.get((fleet.fingerprint, 500_000, "bisection",
                          "greedy", "tangent")) is None
    finally:
        cache.close()


def test_warm_store_never_holds_regions():
    """The heavy warm-start region stays worker-local (stripped for L2)."""
    sfs = [make_pwl(100.0), make_pwl(220.0)]
    fleet = Fleet(sfs, name="unit")
    store = WarmPlanStore.local(maxsize=64)
    cache = TieredPlanCache(8, warm=store, name="strip")
    planner = Planner(fleet, cache=cache)
    try:
        planner.plan(500_000)
        cache.flush()
        values = [store.get(key) for key in store.keys()]
        assert values and all(
            getattr(v, "region", None) is None for v in values
        ), "a region object leaked into the shared store"
    finally:
        cache.close()


def test_warm_plans_stay_bit_identical_to_cold_bisection(pair_specs):
    """End-to-end invariant: warm-tier answers == cold partition_bisection."""
    spec, _ = pair_specs
    fingerprint = _fingerprint(spec)
    sfs = speed_functions_from_fleet_spec(spec)
    pool = ShardPool(1, mode="thread")
    try:
        assert pool.register(spec, fingerprint).result(60)["ok"]
        _solve(pool, fingerprint, SIZES)
        pool.restart_shard(0)
        served = _solve(pool, fingerprint, SIZES)
        for n, item in zip(SIZES, served):
            cold = partition_bisection(n, sfs)
            assert item["allocation"] == list(cold.allocation), n
            assert item["makespan"] == cold.makespan, n
    finally:
        pool.close()


def test_warm_tier_disabled_still_serves(pair_specs):
    """warm_tier=False keeps the old cold-restart behaviour, no errors."""
    spec, _ = pair_specs
    fingerprint = _fingerprint(spec)
    pool = ShardPool(1, mode="thread", warm_tier=False)
    try:
        assert pool.register(spec, fingerprint).result(60)["ok"]
        before = _solve(pool, fingerprint, SIZES)
        pool.restart_shard(0)
        after = _solve(pool, fingerprint, SIZES)
        assert after == before
        stats = _fleet_stats(pool, fingerprint)
        assert "warm" not in stats
        assert stats["cold_plans"] >= 1  # really re-solved
        assert pool.warm_tier_stats() == {"enabled": False, "entries": 0}
    finally:
        pool.close()
