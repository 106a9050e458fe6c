"""Tests of the deterministic result cache (DESIGN.md §15).

Unit coverage of the canonical job-identity digest and the
byte-budgeted LRU, plus live-daemon integration: a cache hit must be
*bit-identical* to recomputation for every job kind (the §13 cold-solve
contract is what makes caching sound), the per-tenant ``result_hits``
counter must surface end to end, and ``result_cache=False`` /
``--no-result-cache`` must fully disable the layer.
"""

from __future__ import annotations

import subprocess
import sys
import threading
import time

import numpy as np
import pytest

from repro.core.objective import SpectralObjective
from repro.core.pipeline import cluster_mvag, embed_mvag
from repro.core.sgla import SGLAConfig, prepare_laplacians
from repro.datasets.profiles import load_profile_mvag
from repro.serve import ServeClient, ServeConfig, ServeDaemon
from repro.serve.daemon import spawn_daemon
from repro.serve.results import ResultCache, result_key, results_summary
from repro.solvers import SolverContext
from repro.utils.counters import merge_snapshots

PROFILE = "rm_small"
R = 11  # view count of rm_small


def simplex_weights(seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.random(R) + 0.05
    return raw / raw.sum()


def wait_for(predicate, timeout=10.0, interval=0.01) -> bool:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


# ---------------------------------------------------------------------- #
# result_key: the canonical identity digest
# ---------------------------------------------------------------------- #

class TestResultKey:
    def test_explicit_defaults_equal_omitted(self):
        w = simplex_weights(0)
        bare = {"kind": "objective", "profile": PROFILE, "weights": w}
        spelled = {
            "kind": "objective", "profile": PROFILE, "weights": w,
            "seed": 0, "gamma": 0.5, "k": None, "config": {},
        }
        assert result_key(bare) == result_key(spelled)

    def test_cluster_and_embed_defaults_resolved(self):
        assert result_key(
            {"kind": "cluster", "profile": PROFILE}
        ) == result_key({
            "kind": "cluster", "profile": PROFILE,
            "method": "sgla+", "assign": "discretize", "seed": 0,
        })
        assert result_key(
            {"kind": "embed", "profile": PROFILE}
        ) == result_key({
            "kind": "embed", "profile": PROFILE,
            "method": "sgla+", "dim": 64, "backend": "auto",
        })

    def test_identity_fields_change_the_key(self):
        w = simplex_weights(0)
        base = {"kind": "objective", "profile": PROFILE, "weights": w}
        assert result_key(base) != result_key({**base, "seed": 1})
        assert result_key(base) != result_key({**base, "gamma": 0.7})
        assert result_key(base) != result_key({**base, "k": 3})
        assert result_key(base) != result_key(
            {**base, "weights": simplex_weights(1)}
        )
        assert result_key(base) != result_key(
            {**base, "profile": "rm_medium"}
        )
        assert result_key(
            {"kind": "cluster", "profile": PROFILE}
        ) != result_key(
            {"kind": "embed", "profile": PROFILE}
        )

    def test_weights_normalized_to_float64_bytes(self):
        w = simplex_weights(0)
        as_list = {"kind": "objective", "profile": PROFILE,
                   "weights": list(w)}
        as_array = {"kind": "objective", "profile": PROFILE, "weights": w}
        assert result_key(as_list) == result_key(as_array)

    def test_config_override_order_is_canonical(self):
        w = simplex_weights(0)
        first = {"kind": "objective", "profile": PROFILE, "weights": w,
                 "config": {"t_max": 30, "eps": 1e-5}}
        second = {"kind": "objective", "profile": PROFILE, "weights": w,
                  "config": {"eps": 1e-5, "t_max": 30}}
        assert result_key(first) == result_key(second)
        changed = {"kind": "objective", "profile": PROFILE, "weights": w,
                   "config": {"t_max": 40, "eps": 1e-5}}
        assert result_key(first) != result_key(changed)

    def test_unknown_fields_never_collide(self):
        # A field this version doesn't interpret still changes the key:
        # a future executor reading it can only miss, never falsely hit.
        base = {"kind": "cluster", "profile": PROFILE}
        assert result_key(base) != result_key({**base, "novel_flag": 1})

    def test_uncacheable_jobs_return_none(self):
        assert result_key({"kind": "mystery", "profile": PROFILE}) is None
        assert result_key({
            "kind": "objective", "profile": PROFILE,
            "weights": object(),
        }) is None

    def test_key_is_stable_bytes(self):
        job = {"kind": "cluster", "profile": PROFILE}
        key = result_key(job)
        assert isinstance(key, bytes) and len(key) == 16
        assert key == result_key(dict(job))


# ---------------------------------------------------------------------- #
# ResultCache: byte-budgeted LRU mechanics
# ---------------------------------------------------------------------- #

class TestResultCache:
    def test_get_put_roundtrip_and_counters(self):
        cache = ResultCache(max_bytes=1 << 20)
        key = result_key({"kind": "cluster", "profile": PROFILE})
        assert cache.get(key) is None
        value = {"labels": np.arange(10)}
        cache.put(key, value)
        assert cache.get(key) is value
        snap = cache.snapshot()
        assert snap["enabled"] is True
        assert (snap["hits"], snap["misses"]) == (1, 1)
        assert snap["insertions"] == 1
        assert snap["entries"] == 1
        assert snap["bytes"] == np.arange(10).nbytes

    def test_none_key_is_inert(self):
        cache = ResultCache()
        assert cache.get(None) is None
        cache.put(None, {"x": 1})
        snap = cache.snapshot()
        assert snap["entries"] == 0
        assert (snap["hits"], snap["misses"]) == (0, 0)

    def test_uncounted_get_leaves_counters_alone(self):
        cache = ResultCache()
        key = b"k" * 16
        assert cache.get(key, count=False) is None
        cache.put(key, {"v": np.zeros(4)})
        assert cache.get(key, count=False) is not None
        snap = cache.snapshot()
        assert (snap["hits"], snap["misses"]) == (0, 0)

    def test_lru_eviction_past_byte_budget(self):
        entry_bytes = np.zeros(128).nbytes  # 1KiB each
        cache = ResultCache(max_bytes=3 * entry_bytes)
        keys = [bytes([i]) * 16 for i in range(4)]
        for key in keys[:3]:
            cache.put(key, {"v": np.zeros(128)})
        cache.get(keys[0])  # refresh: keys[1] is now the LRU
        cache.put(keys[3], {"v": np.zeros(128)})
        assert cache.get(keys[1]) is None  # evicted
        assert cache.get(keys[0]) is not None  # survived the refresh
        assert cache.snapshot()["evictions"] == 1
        assert cache.snapshot()["bytes"] <= 3 * entry_bytes

    def test_capacity_bound(self):
        cache = ResultCache(capacity=2)
        for i in range(3):
            cache.put(bytes([i]) * 16, {"v": np.zeros(2)})
        snap = cache.snapshot()
        assert snap["entries"] == 2
        assert snap["evictions"] == 1
        assert cache.get(bytes([0]) * 16) is None

    def test_oversize_result_is_skipped_not_cached(self):
        cache = ResultCache(max_bytes=64)
        cache.put(b"big!" * 4, {"v": np.zeros(1024)})
        snap = cache.snapshot()
        assert snap["entries"] == 0
        assert snap["skipped_oversize"] == 1
        assert snap["evictions"] == 0

    def test_reinsert_same_key_replaces_accounting(self):
        cache = ResultCache(max_bytes=1 << 20)
        key = b"r" * 16
        cache.put(key, {"v": np.zeros(64)})
        cache.put(key, {"v": np.zeros(32)})
        snap = cache.snapshot()
        assert snap["entries"] == 1
        assert snap["bytes"] == np.zeros(32).nbytes

    def test_summary_renders_hits_and_budget(self):
        cache = ResultCache(max_bytes=1 << 20)
        key = b"s" * 16
        cache.put(key, {"v": np.zeros(4)})
        cache.get(key)
        line = results_summary(cache.snapshot())
        assert "results 1 hits" in line
        assert "of 1.0MB" in line
        assert results_summary({"enabled": False}) == "results off"

    def test_merge_snapshots_of_result_caches(self):
        a = ResultCache(max_bytes=1 << 20)
        b = ResultCache(max_bytes=1 << 20)
        a.put(b"a" * 16, {"v": np.zeros(4)})
        a.get(b"a" * 16)
        b.get(b"z" * 16)
        c = ResultCache()  # unbounded: max_bytes None reads as zero
        merged = merge_snapshots(
            [a.snapshot(), b.snapshot(), c.snapshot(),
             {"enabled": False}, None],
            ResultCache.ZERO_SNAPSHOT,
        )
        assert merged["enabled"] is True
        assert merged["hits"] == 1
        assert merged["misses"] == 1
        assert merged["entries"] == 1
        assert merged["max_bytes"] == 2 << 20
        empty = merge_snapshots([], ResultCache.ZERO_SNAPSHOT)
        assert empty == ResultCache.ZERO_SNAPSHOT
        assert empty["enabled"] is False


# ---------------------------------------------------------------------- #
# Live daemon: hits are bit-identical to cold recomputation
# ---------------------------------------------------------------------- #

@pytest.fixture()
def daemon():
    with ServeDaemon(ServeConfig(bind="127.0.0.1:0", workers=2)) as live:
        yield live


@pytest.fixture()
def client(daemon):
    with ServeClient(daemon.address) as live:
        yield live


class TestDaemonBitIdentity:
    def test_objective_hit_bit_identical_to_cold_recompute(
        self, daemon, client
    ):
        weights = simplex_weights(3)
        job = {"kind": "objective", "profile": PROFILE, "weights": weights}
        cold = client.submit(dict(job))
        hit = client.submit(dict(job))
        assert hit.get("cached") is True
        assert "cached" not in cold
        for field in ("value", "eigengap", "connectivity",
                      "regularization", "group_solves"):
            assert hit["result"][field] == cold["result"][field]
        np.testing.assert_array_equal(
            hit["result"]["eigenvalues"], cold["result"]["eigenvalues"]
        )
        # ... and both match a direct cold in-process evaluation.
        mvag = load_profile_mvag(PROFILE, seed=0)
        laplacians, k = prepare_laplacians(mvag, None, SGLAConfig())
        objective = SpectralObjective(
            laplacians, k=k, cache=False,
            solver=SolverContext(warm_start=False),
        )
        assert hit["result"]["value"] == objective(weights)
        assert daemon.stats.total("result_hits") == 1

    def test_cluster_hit_bit_identical(self, daemon, client):
        job = {"kind": "cluster", "profile": PROFILE}
        cold = client.submit(dict(job))
        hit = client.submit(dict(job))
        assert hit.get("cached") is True
        np.testing.assert_array_equal(
            hit["result"]["labels"], cold["result"]["labels"]
        )
        np.testing.assert_array_equal(
            hit["result"]["weights"], cold["result"]["weights"]
        )
        assert (
            hit["result"]["objective_value"]
            == cold["result"]["objective_value"]
        )
        direct = cluster_mvag(
            load_profile_mvag(PROFILE, seed=0), config=SGLAConfig(), seed=0
        )
        np.testing.assert_array_equal(
            hit["result"]["labels"], direct.labels
        )

    def test_embed_hit_bit_identical(self, daemon, client):
        job = {"kind": "embed", "profile": PROFILE, "dim": 8}
        cold = client.submit(dict(job))
        hit = client.submit(dict(job))
        assert hit.get("cached") is True
        np.testing.assert_array_equal(
            hit["result"]["embedding"], cold["result"]["embedding"]
        )
        direct = embed_mvag(
            load_profile_mvag(PROFILE, seed=0), dim=8,
            config=SGLAConfig(), seed=0,
        )
        np.testing.assert_array_equal(
            hit["result"]["embedding"], direct.embedding
        )

    def test_different_requests_do_not_collide(self, client):
        a = client.submit({
            "kind": "objective", "profile": PROFILE,
            "weights": simplex_weights(0),
        })
        b = client.submit({
            "kind": "objective", "profile": PROFILE,
            "weights": simplex_weights(1),
        })
        assert "cached" not in b
        assert a["result"]["value"] != b["result"]["value"]


class TestDaemonCacheWiring:
    def test_hits_surface_in_health_and_per_tenant_counter(self, daemon):
        job = {"kind": "cluster", "profile": PROFILE}
        with ServeClient(daemon.address, tenant="acme") as client:
            client.submit(dict(job))
            client.submit(dict(job))
            health = client.health()
        results = health["results"]
        assert results["enabled"] is True
        assert results["hits"] == 1
        assert results["misses"] >= 1
        assert results["entries"] >= 1
        tenant = health["stats"]["tenants"]["acme"]
        assert tenant["result_hits"] == 1
        assert health["stats"]["totals"]["result_hits"] == 1
        assert "result-cache hits" in daemon.stats.summary()

    def test_disabled_cache_recomputes_every_request(self):
        config = ServeConfig(
            bind="127.0.0.1:0", workers=1, result_cache=False
        )
        with ServeDaemon(config) as daemon:
            assert daemon.results is None
            with ServeClient(daemon.address) as client:
                job = {"kind": "cluster", "profile": PROFILE}
                first = client.submit(dict(job))
                second = client.submit(dict(job))
                health = client.health()
        assert "cached" not in first and "cached" not in second
        # Determinism holds regardless: recompute == first, bitwise.
        np.testing.assert_array_equal(
            first["result"]["labels"], second["result"]["labels"]
        )
        assert health["results"] == {"enabled": False}
        assert health["stats"]["totals"]["result_hits"] == 0

    def test_worker_side_second_chance_hit(self):
        # Two identical requests admitted before either computes
        # (workers held, batching off): the first executes and inserts,
        # the second is answered by the executor's second-chance lookup
        # without recomputing.
        config = ServeConfig(
            bind="127.0.0.1:0", workers=1, batch_limit=1
        )
        with ServeDaemon(config) as daemon:
            assert daemon.hold_workers()
            job = {"kind": "cluster", "profile": PROFILE}
            replies = [None, None]

            def submit(index):
                with ServeClient(daemon.address) as c:
                    replies[index] = c.submit(dict(job))

            threads = [
                threading.Thread(target=submit, args=(i,))
                for i in range(2)
            ]
            for thread in threads:
                thread.start()
            assert wait_for(lambda: daemon.queue.depth == 2)
            daemon.worker_gate.set()
            for thread in threads:
                thread.join(timeout=60)
            assert daemon.stats.total("result_hits") == 1
            assert daemon.stats.total("completed") == 2
            np.testing.assert_array_equal(
                replies[0]["result"]["labels"],
                replies[1]["result"]["labels"],
            )
            # Exactly one execution populated the cache.
            assert daemon.results.snapshot()["insertions"] == 1

    def test_hit_still_pays_admission_control(self):
        # The cache is consulted *after* admission: a draining daemon
        # refuses a would-be hit like any other request.
        with ServeDaemon(ServeConfig(bind="127.0.0.1:0")) as daemon:
            job = {"kind": "cluster", "profile": PROFILE}
            with ServeClient(daemon.address) as client:
                client.submit(dict(job))
                daemon.drain()
                from repro.utils.errors import ServerDraining

                with pytest.raises(ServerDraining):
                    client.submit(dict(job))

    def test_spawned_daemon_flags(self):
        spawned = spawn_daemon(
            argv_extra=["--no-result-cache", "--max-results-mb", "16"]
        )
        try:
            with ServeClient(spawned.address) as client:
                health = client.health()
            assert health["results"] == {"enabled": False}
        finally:
            spawned.kill()

    def test_serve_stats_cli_renders_results_line(self, daemon):
        job = {"kind": "cluster", "profile": PROFILE}
        with ServeClient(daemon.address) as client:
            client.submit(dict(job))
            client.submit(dict(job))
        proc = subprocess.run(
            [sys.executable, "-m", "repro.cli", "serve-stats",
             daemon.address],
            capture_output=True, text=True, timeout=60,
        )
        assert proc.returncode == 0, proc.stderr
        assert "results 1 hits" in proc.stdout
        assert "result-cache hits" in proc.stdout
