"""Serving-daemon benchmark: throughput, overload, batching, caching,
priorities, chaos.

Six legs against a live daemon on loopback TCP (DESIGN.md §13, §15):

* **throughput** — 4 concurrent tenants submitting objective requests;
  reports QPS and request-latency p50/p99;
* **overload** — executors frozen, the queue filled to capacity, then a
  burst of extra submissions: every excess request must be shed with a
  structured ``ServerOverloaded`` (never a timeout), shed latency p99
  under :data:`SHED_P99_CEILING_MS`, the queue's depth and in-flight
  byte accounting must stay within their configured bounds (the
  never-OOM contract), and the requests that *were* admitted must still
  complete with values bit-identical to direct in-process evaluation;
* **batching** — executors frozen while compatible objective requests
  stack up, then released into one cross-request batch: coalescing must
  actually happen (``batched > 1``) and the values must equal the
  sequentially-served ones **bitwise**;
* **result_cache** — repeat objective traffic against a cache-enabled
  daemon vs an identical ``result_cache=False`` daemon: every repeat
  must be a counted hit, **bit-identical** to the cold reply and to
  direct in-process evaluation, and the repeat-phase p50 latency must
  drop by at least :data:`RESULT_CACHE_SPEEDUP_FLOOR`;
* **priority** — one worker, one tenant, a queued batch-class flood
  with interactive requests arriving behind it: interactive requests
  must jump the backlog (interactive p99 queue wait below the batch
  p50) while every batch request still completes (aging bounds
  starvation in both directions);
* **chaos** (full mode) — executors run process-pool shard contexts
  with a seeded ``FaultPlan``; between two request rounds every pool
  process is SIGKILLed.  The daemon must keep serving (the next
  dispatch re-forks the pool and retries), and both rounds must be
  bit-identical to direct in-process ``cluster_mvag``.

Runs as a plain script (``--smoke`` for the CI leg — everything but
chaos on a small profile — ``--json`` to echo the machine-readable
results always written under ``benchmarks/results/``).
"""

from __future__ import annotations

import sys
import threading
import time
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from harness import emit, emit_json, format_table, kill_pool
from repro.core.objective import SpectralObjective
from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLAConfig, prepare_laplacians
from repro.datasets.profiles import load_profile_mvag
from repro.serve import (
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServerOverloaded,
)
from repro.serve.stats import percentile
from repro.shard import FaultPlan, ShardContext
from repro.solvers import SolverContext

PROFILE_SMOKE = "rm_small"
PROFILE_FULL = "dblp_small"
N_CLIENTS = 4
SHED_P99_CEILING_MS = 100.0
#: minimum p50 speedup of repeat traffic, cache on vs cache off.
RESULT_CACHE_SPEEDUP_FLOOR = 10.0

#: seeded chaos schedule for the full-mode leg (mirrors bench_chaos).
CHAOS_PLAN = FaultPlan(seed=7, crash_rate=0.15, corrupt_rate=0.1)


def _views(profile: str) -> int:
    return load_profile_mvag(profile, seed=0).n_views


def _weights(r: int, seed: int) -> np.ndarray:
    rng = np.random.default_rng(seed)
    raw = rng.random(r) + 0.05
    return raw / raw.sum()


def _direct_values(profile: str, points) -> list:
    """Reference: cold in-process evaluation, no daemon involved."""
    mvag = load_profile_mvag(profile, seed=0)
    laplacians, k = prepare_laplacians(mvag, None, SGLAConfig())
    objective = SpectralObjective(
        laplacians, k=k, cache=False,
        solver=SolverContext(warm_start=False),
    )
    return [objective(w) for w in points]


def _wait_for(predicate, timeout=30.0) -> bool:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(0.01)
    return predicate()


# --------------------------------------------------------------------- #
# Legs
# --------------------------------------------------------------------- #


def leg_throughput(profile: str, requests_per_client: int) -> dict:
    r = _views(profile)
    config = ServeConfig(bind="127.0.0.1:0", workers=2, queue_depth=256)
    latencies: list = []
    lock = threading.Lock()
    with ServeDaemon(config) as daemon:
        # Warm the dataset cache so QPS measures serving, not generation.
        with ServeClient(daemon.address) as warm:
            warm.submit({
                "kind": "objective", "profile": profile,
                "weights": _weights(r, 0),
            })

        def drive(tenant_index: int) -> None:
            with ServeClient(
                daemon.address, tenant=f"bench-{tenant_index}"
            ) as client:
                for i in range(requests_per_client):
                    point = _weights(r, tenant_index * 1000 + i)
                    started = time.monotonic()
                    client.submit({
                        "kind": "objective", "profile": profile,
                        "weights": point,
                    })
                    elapsed = time.monotonic() - started
                    with lock:
                        latencies.append(elapsed)

        threads = [
            threading.Thread(target=drive, args=(i,))
            for i in range(N_CLIENTS)
        ]
        started = time.monotonic()
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join()
        wall = time.monotonic() - started
        snapshot = daemon.stats.snapshot()
    total = N_CLIENTS * requests_per_client
    return {
        "leg": "throughput",
        "clients": N_CLIENTS,
        "requests": total,
        "qps": total / wall,
        "latency_p50_ms": percentile(latencies, 50) * 1e3,
        "latency_p99_ms": percentile(latencies, 99) * 1e3,
        "queue_wait_p50_ms": snapshot["totals"]["queue_wait_p50_ms"],
        "queue_wait_p99_ms": snapshot["totals"]["queue_wait_p99_ms"],
        "completed": snapshot["totals"]["completed"],
        "ok": snapshot["totals"]["completed"] == total + 1,  # + warmup
    }


def leg_overload(profile: str, queue_depth: int, burst: int) -> dict:
    r = _views(profile)
    config = ServeConfig(
        bind="127.0.0.1:0", workers=1, queue_depth=queue_depth
    )
    admitted: dict = {}  # flood index -> (point, served value)
    shed_latencies: list = []
    shed_kinds: list = []
    lock = threading.Lock()
    with ServeDaemon(config) as daemon:
        with ServeClient(daemon.address) as warm:
            warm.submit({
                "kind": "objective", "profile": profile,
                "weights": _weights(r, 0),
            })
        assert daemon.hold_workers()

        def flood(index: int) -> None:
            point = _weights(r, 100 + index)
            started = time.monotonic()
            try:
                with ServeClient(daemon.address, tenant="flood") as c:
                    reply = c.submit({
                        "kind": "objective", "profile": profile,
                        "weights": point,
                    })
                with lock:
                    admitted[index] = (point, reply["result"]["value"])
            except ServerOverloaded as error:
                with lock:
                    shed_latencies.append(time.monotonic() - started)
                    shed_kinds.append(type(error).__name__)
            except Exception as error:  # timeouts/hangs = gate failure
                with lock:
                    shed_kinds.append(f"UNEXPECTED:{type(error).__name__}")

        max_depth = 0
        max_bytes = 0
        threads = [
            threading.Thread(target=flood, args=(i,))
            for i in range(queue_depth + burst)
        ]
        for thread in threads:
            thread.start()
        # Sample the accounting while the flood is in flight.
        sample_until = time.monotonic() + 1.0
        while time.monotonic() < sample_until:
            max_depth = max(max_depth, daemon.queue.depth)
            max_bytes = max(max_bytes, daemon.queue.inflight_bytes)
            time.sleep(0.005)
        daemon.worker_gate.set()
        for thread in threads:
            thread.join(timeout=60)
        snapshot = daemon.stats.snapshot()
    # Identity of the admitted survivors vs direct evaluation, paired
    # per flood index (completion order is arbitrary under contention).
    order = sorted(admitted)
    direct = _direct_values(profile, [admitted[i][0] for i in order])
    identical = bool(admitted) and all(
        value == admitted[i][1] for value, i in zip(direct, order)
    )
    clean_sheds = sum(
        1 for kind in shed_kinds if not kind.startswith("UNEXPECTED")
    )
    return {
        "leg": "overload",
        "queue_depth": queue_depth,
        "burst": burst,
        "admitted": len(admitted),
        "shed": clean_sheds,
        "shed_unexpected": len(shed_kinds) - clean_sheds,
        "shed_p99_ms": percentile(shed_latencies, 99) * 1e3,
        "max_observed_depth": max_depth,
        "max_observed_inflight_bytes": max_bytes,
        "inflight_bytes_bound": config.max_inflight_bytes,
        "admitted_bit_identical": identical,
        "rejected_overload": snapshot["totals"]["rejected_overload"],
        "ok": (
            clean_sheds >= burst
            and len(shed_kinds) == clean_sheds
            and identical
            and max_depth <= queue_depth
            and max_bytes <= config.max_inflight_bytes
            and percentile(shed_latencies, 99) * 1e3
            <= SHED_P99_CEILING_MS
        ),
    }


def leg_batching(profile: str, group: int) -> dict:
    r = _views(profile)
    points = [_weights(r, 200 + i) for i in range(group)]
    # The repeat submissions must actually execute to coalesce, so the
    # result cache (which would answer them instantly) is off here.
    config = ServeConfig(
        bind="127.0.0.1:0", workers=2, batch_limit=max(group, 2),
        result_cache=False,
    )
    with ServeDaemon(config) as daemon:
        with ServeClient(daemon.address) as client:
            sequential = [
                client.submit({
                    "kind": "objective", "profile": profile, "weights": w,
                })["result"]["value"]
                for w in points
            ]
        assert daemon.hold_workers()
        replies: list = [None] * group

        def submit(index: int) -> None:
            with ServeClient(daemon.address, tenant=f"b{index}") as c:
                replies[index] = c.submit({
                    "kind": "objective", "profile": profile,
                    "weights": points[index],
                })

        threads = [
            threading.Thread(target=submit, args=(i,))
            for i in range(group)
        ]
        for thread in threads:
            thread.start()
        _wait_for(lambda: daemon.queue.depth == group)
        daemon.worker_gate.set()
        for thread in threads:
            thread.join(timeout=60)
        batched_sizes = [reply["batched"] for reply in replies]
        batched_values = [reply["result"]["value"] for reply in replies]
    return {
        "leg": "batching",
        "group": group,
        "max_batched": max(batched_sizes),
        "bit_identical": batched_values == sequential,
        "ok": max(batched_sizes) > 1 and batched_values == sequential,
    }


def leg_result_cache(profile: str, points_n: int, passes: int) -> dict:
    """Repeat objective traffic: cache-on hits vs cache-off recompute."""
    r = _views(profile)
    points = [_weights(r, 300 + i) for i in range(points_n)]

    def drive(config: ServeConfig) -> tuple:
        """(cold replies, repeat replies, repeat latencies, health)."""
        repeat_latencies: list = []
        with ServeDaemon(config) as daemon:
            with ServeClient(daemon.address) as client:
                cold = [
                    client.submit({
                        "kind": "objective", "profile": profile,
                        "weights": w,
                    })
                    for w in points
                ]
                repeats = []
                for _ in range(passes):
                    for w in points:
                        started = time.monotonic()
                        repeats.append(client.submit({
                            "kind": "objective", "profile": profile,
                            "weights": w,
                        }))
                        repeat_latencies.append(
                            time.monotonic() - started
                        )
                health = client.health()
        return cold, repeats, repeat_latencies, health

    cached_cold, cached_repeats, cached_latencies, cached_health = drive(
        ServeConfig(bind="127.0.0.1:0", workers=2)
    )
    _, plain_repeats, plain_latencies, plain_health = drive(
        ServeConfig(bind="127.0.0.1:0", workers=2, result_cache=False)
    )

    direct = _direct_values(profile, points)
    n_repeats = points_n * passes

    def identical(reply, cold_reply, direct_value) -> bool:
        mine, ref = reply["result"], cold_reply["result"]
        return (
            mine["value"] == ref["value"] == direct_value
            and np.array_equal(mine["eigenvalues"], ref["eigenvalues"])
        )

    cached_identical = all(
        identical(reply, cached_cold[i % points_n], direct[i % points_n])
        for i, reply in enumerate(cached_repeats)
    )
    plain_identical = all(
        identical(reply, cached_cold[i % points_n], direct[i % points_n])
        for i, reply in enumerate(plain_repeats)
    )
    all_flagged = all(
        reply.get("cached") is True for reply in cached_repeats
    )
    hits = cached_health["results"]["hits"]
    hit_p50_ms = percentile(cached_latencies, 50) * 1e3
    miss_p50_ms = percentile(plain_latencies, 50) * 1e3
    speedup = miss_p50_ms / hit_p50_ms if hit_p50_ms > 0 else float("inf")
    return {
        "leg": "result_cache",
        "points": points_n,
        "repeats": n_repeats,
        "hits": hits,
        "hit_p50_ms": hit_p50_ms,
        "recompute_p50_ms": miss_p50_ms,
        "speedup": speedup,
        "hits_bit_identical": cached_identical,
        "recompute_bit_identical": plain_identical,
        "cache_off_disabled": not plain_health["results"]["enabled"],
        "ok": (
            cached_identical
            and plain_identical
            and all_flagged
            and hits >= n_repeats
            and not plain_health["results"]["enabled"]
            and speedup >= RESULT_CACHE_SPEEDUP_FLOOR
        ),
    }


def leg_priority(profile: str, batch_n: int, interactive_n: int) -> dict:
    """Interactive requests jump a queued batch flood; batch completes."""
    r = _views(profile)
    # One worker, coalescing and the result cache off: queue waits then
    # measure *scheduling*, not batching or caching.
    config = ServeConfig(
        bind="127.0.0.1:0", workers=1, batch_limit=1,
        result_cache=False, queue_depth=batch_n + interactive_n + 4,
    )
    outcomes = {"batch": 0, "interactive": 0, "errors": 0}
    lock = threading.Lock()
    with ServeDaemon(config) as daemon:
        with ServeClient(daemon.address) as warm:
            warm.submit({
                "kind": "objective", "profile": profile,
                "weights": _weights(r, 0),
            })
        assert daemon.hold_workers()

        def submit(priority: str, seed: int) -> None:
            try:
                with ServeClient(daemon.address, tenant="mixed") as c:
                    c.submit(
                        {
                            "kind": "objective", "profile": profile,
                            "weights": _weights(r, seed),
                        },
                        priority=priority,
                    )
                with lock:
                    outcomes[priority] += 1
            except Exception:
                with lock:
                    outcomes["errors"] += 1

        threads = [
            threading.Thread(target=submit, args=("batch", 400 + i))
            for i in range(batch_n)
        ]
        for thread in threads:
            thread.start()
        _wait_for(lambda: daemon.queue.depth == batch_n)
        # Interactive arrives *behind* the whole batch backlog.
        late = [
            threading.Thread(
                target=submit, args=("interactive", 500 + i)
            )
            for i in range(interactive_n)
        ]
        for thread in late:
            thread.start()
        _wait_for(
            lambda: daemon.queue.depth == batch_n + interactive_n
        )
        daemon.worker_gate.set()
        for thread in threads + late:
            thread.join(timeout=120)
        priorities = daemon.stats.snapshot()["priorities"]
    interactive_p99 = priorities["interactive"]["queue_wait_p99_ms"]
    batch_p50 = priorities["batch"]["queue_wait_p50_ms"]
    return {
        "leg": "priority",
        "batch": batch_n,
        "interactive": interactive_n,
        "batch_completed": outcomes["batch"],
        "interactive_completed": outcomes["interactive"],
        "errors": outcomes["errors"],
        "interactive_p99_ms": interactive_p99,
        "batch_p50_ms": batch_p50,
        "ok": (
            outcomes["batch"] == batch_n  # no starvation
            and outcomes["interactive"] == interactive_n
            and outcomes["errors"] == 0
            and interactive_p99 < batch_p50  # the backlog was jumped
        ),
    }


def leg_chaos(profile: str, requests: int) -> dict:
    contexts: list = []

    def shard_factory():
        context = ShardContext(
            workers=2, min_items=0, min_bytes=0, timeout=15.0,
            fault_plan=CHAOS_PLAN,
        )
        contexts.append(context)
        return context

    # Cluster jobs, not lone objective evaluations: a single weight row
    # is the parent-side seed solve in shard_objective_batch and never
    # reaches a worker, whereas every cluster request fans its per-view
    # Laplacian builds and weight-batch eigensolves through the shard
    # context — the pool is genuinely on the serving path, so killing
    # it exercises the re-fork and retry.
    seeds = list(range(requests))

    def direct_outcome(seed: int) -> tuple:
        output = cluster_mvag(
            load_profile_mvag(profile, seed=seed),
            config=SGLAConfig(), seed=seed,
        )
        return (
            output.labels.tolist(),
            output.integration.objective_value,
        )

    def served_outcome(client, seed: int) -> tuple:
        result = client.submit({
            "kind": "cluster", "profile": profile, "seed": seed,
        })["result"]
        return (result["labels"].tolist(), result["objective_value"])

    direct = [direct_outcome(seed) for seed in seeds]
    # No result cache: the second round repeats the first round's
    # requests, and must recompute them on the re-forked pool.
    config = ServeConfig(
        bind="127.0.0.1:0", workers=1, queue_depth=64, result_cache=False
    )
    with ServeDaemon(config, shard_factory=shard_factory) as daemon:
        with ServeClient(daemon.address, timeout=300.0) as client:
            before = [served_outcome(client, s) for s in seeds]
            # Every request has answered, so the executors are idle:
            # kill their pool processes between the two rounds.
            killed = sum(kill_pool(context) for context in contexts)
            retries_before = sum(c.stats.retries for c in contexts)
            after = [served_outcome(client, s) for s in seeds]
            retries_after = sum(c.stats.retries for c in contexts)
    return {
        "leg": "chaos",
        "requests_before_kill": requests,
        "requests_after_kill": requests,
        "killed_processes": killed,
        "retries_after_kill": retries_after - retries_before,
        "before_bit_identical": before == direct,
        "after_bit_identical": after == direct,
        "ok": (
            before == direct
            and after == direct
            and killed > 0
            and retries_after > retries_before
        ),
    }


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run(smoke: bool = False, capsys=None, echo_json: bool = False) -> bool:
    profile = PROFILE_SMOKE if smoke else PROFILE_FULL
    legs = [
        leg_throughput(profile, requests_per_client=5 if smoke else 25),
        leg_overload(
            profile, queue_depth=4 if smoke else 16,
            burst=8 if smoke else 32,
        ),
        leg_batching(profile, group=4 if smoke else 8),
        leg_result_cache(
            profile, points_n=3 if smoke else 4, passes=3,
        ),
        leg_priority(
            profile, batch_n=8 if smoke else 12,
            interactive_n=3 if smoke else 4,
        ),
    ]
    if not smoke:
        legs.append(leg_chaos(PROFILE_SMOKE, requests=4))

    rows = []
    for leg in legs:
        detail = ", ".join(
            f"{key}={_fmt(value)}" for key, value in leg.items()
            if key not in ("leg", "ok")
        )
        rows.append([leg["leg"], "PASS" if leg["ok"] else "FAIL", detail])
    text = format_table(
        ["leg", "gate", "detail"], rows,
        title=(
            f"Serving daemon ({profile}, {N_CLIENTS} clients, "
            f"mode={'smoke' if smoke else 'full'})"
        ),
    )
    name = "serve" + ("_smoke" if smoke else "")
    emit(name, text, capsys)
    payload = {
        "mode": "smoke" if smoke else "full",
        "profile": profile,
        "gates": {
            "shed_p99_ceiling_ms": SHED_P99_CEILING_MS,
            "batched_bit_identity": True,
            "result_cache_speedup_floor": RESULT_CACHE_SPEEDUP_FLOOR,
            "result_cache_bit_identity": True,
            "interactive_p99_under_batch_p50": True,
        },
        "legs": legs,
    }
    emit_json(name, payload, echo=echo_json)

    ok = True
    for leg in legs:
        if not leg["ok"]:
            print(f"FAIL: serve leg {leg['leg']} gate not met: {leg}")
            ok = False
    return ok


def _fmt(value) -> str:
    if isinstance(value, float):
        return f"{value:.2f}"
    return str(value)


def test_serve(benchmark, capsys):
    assert benchmark.pedantic(
        run, args=(True, capsys), rounds=1, iterations=1
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    echo_json = "--json" in sys.argv
    sys.exit(0 if run(smoke=smoke, echo_json=echo_json) else 1)
