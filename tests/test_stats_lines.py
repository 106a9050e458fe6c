"""Golden stats lines: every one-line digest, rendered from fixed inputs.

The CLI, the daemons' shutdown logs and ``repro.cli serve-stats`` print
these lines, and operators and scrapers read them.  Each one is pinned
byte for byte here, so the counter plumbing behind them (merges,
snapshot folds, latency reservoirs) can change without changing a
single printed character.
"""

from __future__ import annotations

from repro.coarsen import CoarsenStats
from repro.neighbors import NeighborStats
from repro.serve import RouterConfig, Router, RouteStats, ServeStats
from repro.serve.jobs import cache_summary
from repro.serve.results import results_summary
from repro.shard import ShardStats
from repro.solvers import SolverStats

DAEMONS = ("127.0.0.1:7101", "127.0.0.1:7102")


def _totals(requests, completed, overload, quota, draining, expired,
            cancelled, batched, hits, p50, p99) -> dict:
    return {
        "requests": requests, "admitted": requests - overload - quota,
        "completed": completed, "failed": 0,
        "rejected_overload": overload, "rejected_quota": quota,
        "rejected_draining": draining, "deadline_expired": expired,
        "cancelled": cancelled, "batched": batched, "result_hits": hits,
        "queue_wait_p50_ms": p50, "queue_wait_p99_ms": p99,
    }


def _priorities(served, p50, p99) -> dict:
    return {
        name: {"served": served, "queue_wait_p50_ms": p50,
               "queue_wait_p99_ms": p99}
        for name in ("interactive", "normal", "batch")
    }


#: two daemons' health replies, as the router's prober stores them.
DAEMON_SNAPSHOTS = (
    {
        "ok": True,
        "shard": {"contexts": 0},
        "stats": {
            "totals": _totals(12, 9, 1, 1, 0, 1, 0, 4, 3, 1.25, 8.5),
            "tenants": {
                "beta": _totals(12, 9, 1, 1, 0, 1, 0, 4, 3, 1.25, 8.5),
            },
            "priorities": _priorities(9, 1.25, 8.5),
        },
        "results": {
            "enabled": True, "hits": 3, "misses": 9, "evictions": 1,
            "insertions": 9, "skipped_oversize": 0, "entries": 8,
            "bytes": 3 * 1048576, "max_bytes": 64 * 1048576,
        },
    },
    {
        "ok": True,
        "shard": {"contexts": 2},
        "stats": {
            "totals": _totals(20, 17, 2, 0, 1, 0, 2, 6, 5, 2.5, 31.0),
            "tenants": {
                "alpha": _totals(11, 9, 1, 0, 1, 0, 1, 3, 2, 2.5, 31.0),
                "gamma": _totals(9, 8, 1, 0, 0, 0, 1, 3, 3, 0.5, 4.0),
            },
            "priorities": _priorities(17, 2.5, 31.0),
        },
        "results": {
            "enabled": True, "hits": 5, "misses": 12, "evictions": 0,
            "insertions": 12, "skipped_oversize": 1, "entries": 12,
            "bytes": 5 * 1048576, "max_bytes": 64 * 1048576,
        },
    },
)


def test_solver_line():
    stats = SolverStats(
        solves=7, saved=2, warm_solves=5, cold_solves=2, batched_solves=3,
        matvecs=412, coarse_solves=1, tolerance_updates=1,
        by_backend={"lanczos": 5, "dense": 2},
    )
    stats.merge(stats)
    assert stats.summary() == (
        "14 eigensolves (4 saved, 10 warm-started, 2 coarse, 824 matvecs; "
        "dense=4, lanczos=10)"
    )


def test_neighbors_line():
    stats = NeighborStats(
        recall_sample=16, builds=3, nodes=2700, candidate_pairs=812345,
        exhaustive_pairs=2429100, recall_hits=45, recall_total=48,
        by_backend={"rp-forest": 2, "exact": 1},
    )
    stats.merge(stats)
    assert stats.summary() == (
        "6 knn builds (exact=2, rp-forest=4; 33.4% of exhaustive pairs "
        "scored, recall~0.938)"
    )


def test_shard_line():
    stats = ShardStats(
        dispatches=4, serial_dispatches=3, tasks=22, shards_used=8,
        segments=5, bytes_shared=3 * 1048576 + 524288, failures=1,
        retries=2, redispatches=1,
    )
    stats.merge(stats)
    assert stats.summary() == (
        "8 sharded + 6 serial dispatches (44 tasks over 16 shards; "
        "7.0 MB shared in 10 segments, 2 failed, 4 retries/2 redispatched)"
    )


def test_coarsen_line():
    stats = CoarsenStats(
        levels=[2000, 1000, 500], coarse_solves=30, fine_solves=4,
        coarsen_seconds=0.125, refine_evaluations=3,
    )
    assert stats.summary() == (
        "[2000 -> 1000 -> 500] 30 coarse / 4 fine eigensolves, "
        "hierarchy 0.125s"
    )


def test_cache_line():
    snap = {
        "hits": 5, "misses": 2, "evictions": 1, "entries": 3,
        "building": 0, "bytes": 3 * 1048576 + 104858,
        "max_bytes": 256 * 1048576, "peak_rss_mb": 100.0,
    }
    assert cache_summary(snap) == (
        "cache 5 hits / 2 misses / 1 evictions, 3 entries "
        "(3.1MB of 256.0MB)"
    )


def test_router_fleet_view_lines():
    router = Router(RouterConfig(daemons=DAEMONS))
    try:
        for address, snap in zip(DAEMONS, DAEMON_SNAPSHOTS):
            router.health[address].snapshot = snap
        for counter, by in (
            ("requests", 32), ("completed", 26), ("failed", 6),
            ("failovers", 3), ("breaker_opens", 1), ("breaker_closes", 1),
        ):
            router.stats.bump(counter, by)
        router.stats.bump_daemon(DAEMONS[0], "routed", 12)
        router.stats.bump_daemon(DAEMONS[1], "routed", 20)
        for ms in (4.0, 9.0, 12.0, 40.0, 7.0):
            router.stats.observe_latency(ms / 1000.0)
        fleet = router.health_snapshot()
    finally:
        router.close()
    assert ServeStats.summary_from_snapshot(fleet["stats"]) == (
        "32 requests (3 tenants), 26 completed, 5 rejected, "
        "1 deadline-expired, 10 batched, 8 result-cache hits; "
        "queue wait p50 2.5ms / p99 31.0ms"
    )
    assert results_summary(fleet["results"]) == (
        "results 8 hits / 21 misses (28%) / 1 evictions, 20 entries "
        "(8.0MB of 128.0MB)"
    )
    assert RouteStats.summary_from_snapshot(fleet["route_stats"]) == (
        "32 requests over 2 daemon(s), 26 completed, 6 failed, "
        "3 failovers, breakers 1 opened / 1 closed; "
        "dispatch p50 9.0ms / p99 40.0ms"
    )
