"""Integration tests of the routing front tier (DESIGN.md §14).

Live in-process daemons behind a :class:`~repro.serve.router.Router`:
cache-affine placement, health-checked failover with bit-identical
results, circuit-breaker transitions, brownout ordering, error-class
propagation (quota / validation pass through, infrastructure fails
over), per-daemon dispatch accounting, the ``NoHealthyReplica``
loud-failure contract, and the :class:`RouterDaemon` TCP front
speaking the unmodified client protocol.
"""

from __future__ import annotations

import socket
import sys
import threading
import time

import numpy as np
import pytest

from repro.serve import (
    NoHealthyReplica,
    RouteStats,
    Router,
    RouterConfig,
    RouterDaemon,
    ServeClient,
    ServeConfig,
    ServeDaemon,
    ServerDraining,
)
from repro.serve import router as router_module
from repro.serve.ring import HashRing, route_key
from repro.serve.router import (
    CLOSED,
    HALF_OPEN,
    LATENCY_SAMPLES,
    OPEN,
    CircuitBreaker,
    _AttemptFailed,
)
from repro.utils.errors import ValidationError

PROFILE = "rm_small"
R = 11

JOB = {
    "kind": "objective", "profile": PROFILE, "k": 2,
    "weights": np.full(R, 1.0 / R),
}


def make_job():
    return {**JOB, "weights": JOB["weights"].copy()}


def wait_for(predicate, timeout=10.0, interval=0.01) -> bool:
    limit = time.monotonic() + timeout
    while time.monotonic() < limit:
        if predicate():
            return True
        time.sleep(interval)
    return predicate()


@pytest.fixture()
def fleet():
    # Result caching off: these tests exercise routing mechanics by
    # re-submitting the identical job (failover tests rely on the
    # repeat actually executing on the replica it lands on); with the
    # cache on, the daemon would answer it from memory instantly.
    daemons = []
    for _ in range(3):
        daemon = ServeDaemon(ServeConfig(
            bind="127.0.0.1:0", workers=1, result_cache=False
        ))
        daemon.start()
        daemons.append(daemon)
    yield daemons
    for daemon in daemons:
        daemon.stop(drain=False)


def router_config(fleet, **overrides) -> RouterConfig:
    defaults = dict(
        daemons=tuple(d.address for d in fleet),
        replication=2,
        health_interval=0.2,
        breaker_failures=2,
        breaker_cooldown=0.5,
    )
    defaults.update(overrides)
    return RouterConfig(**defaults)


# ---------------------------------------------------------------------- #
# Placement + determinism
# ---------------------------------------------------------------------- #

class TestRouting:
    def test_same_key_routes_to_same_daemon(self, fleet):
        with Router(router_config(fleet)) as router:
            first = router.submit(make_job())
            for _ in range(3):
                again = router.submit(make_job())
                assert again["routed_to"] == first["routed_to"]
                assert again["result"]["value"] == first["result"]["value"]

    def test_placement_matches_ring(self, fleet):
        with Router(router_config(fleet)) as router:
            reply = router.submit(make_job())
            ring = HashRing(
                [d.address for d in fleet], vnodes=router.config.vnodes
            )
            assert reply["routed_to"] == ring.lookup(route_key(JOB))[0]

    def test_cache_locality_one_daemon_warms(self, fleet):
        with Router(router_config(fleet)) as router:
            for _ in range(3):
                router.submit(make_job())
        warmed = [d for d in fleet if d.datasets.snapshot()["entries"]]
        assert len(warmed) == 1  # replication routes reads to the primary

    def test_failover_result_bit_identical(self, fleet):
        with Router(router_config(fleet)) as router:
            first = router.submit(make_job())
            victim = next(
                d for d in fleet if d.address == first["routed_to"]
            )
            victim.stop(drain=False)
            # health marks it dead; routing then skips it outright
            assert wait_for(
                lambda: not router.health[victim.address].alive
            )
            after = router.submit(make_job())
            assert after["routed_to"] != victim.address
            assert after["result"]["value"] == first["result"]["value"]
            assert np.array_equal(
                after["result"]["eigenvalues"],
                first["result"]["eigenvalues"],
            )
            assert router.stats.snapshot()["skipped_unhealthy"] >= 1

    def test_draining_daemon_leaves_rotation(self, fleet):
        with Router(router_config(fleet)) as router:
            first = router.submit(make_job())
            primary = next(
                d for d in fleet if d.address == first["routed_to"]
            )
            primary.drain()
            assert wait_for(
                lambda: router.health[primary.address].draining
            )
            after = router.submit(make_job())
            assert after["routed_to"] != primary.address
            assert after["failovers"] == 0  # skipped, not failed over

    def test_validation_error_propagates_without_failover(self, fleet):
        with Router(router_config(fleet)) as router:
            with pytest.raises(ValidationError):
                router.submit({
                    "kind": "objective", "profile": PROFILE, "k": 2,
                    "weights": np.full(R, 1.0 / R),
                    "config": {"bogus_knob": 1},
                })
            assert router.stats.snapshot()["failovers"] == 0

    def test_router_drain_refuses_submits(self, fleet):
        with Router(router_config(fleet)) as router:
            router.drain()
            with pytest.raises(ServerDraining):
                router.submit(make_job())

    def test_no_healthy_replica_is_loud(self, fleet):
        # health checks effectively off: dispatch discovers the deaths
        with Router(router_config(fleet, health_interval=30.0)) as router:
            for daemon in fleet:
                daemon.stop(drain=False)
            with pytest.raises(NoHealthyReplica) as excinfo:
                router.submit(make_job())
            # attributable: the error names every replica and its fate
            assert "unreachable" in str(excinfo.value)
            # discovery marked them dead: the retry skips them outright
            with pytest.raises(NoHealthyReplica) as excinfo:
                router.submit(make_job())
            assert "dead" in str(excinfo.value)
            assert router.stats.snapshot()["no_replica"] == 2

    def test_browned_out_replica_sorts_last_but_stays_eligible(self):
        # A replica whose probed queue is at least 90% full goes after a
        # healthy one, but is still a candidate: slow beats nothing.
        daemons = ("127.0.0.1:7001", "127.0.0.1:7002", "127.0.0.1:7003")
        router = Router(RouterConfig(daemons=daemons, replication=2))
        try:
            key = route_key(JOB)
            primary, secondary = router.ring.lookup(key, 2)
            health = router.health[primary]
            health.queue_capacity = 10
            health.queue_depth = 9
            assert router._candidates(key) == ([secondary, primary], {})
            health.queue_depth = 8
            assert router._candidates(key) == ([primary, secondary], {})
        finally:
            router.close()


# ---------------------------------------------------------------------- #
# Circuit breaker
# ---------------------------------------------------------------------- #

class TestCircuitBreaker:
    def test_transitions(self):
        stats = RouteStats()
        clock = [0.0]
        breaker = CircuitBreaker(
            failures=2, cooldown=1.0, stats=stats, clock=lambda: clock[0]
        )
        assert breaker.state == CLOSED
        assert breaker.allow()
        breaker.record_failure()
        assert breaker.state == CLOSED  # one short of the threshold
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown not elapsed
        clock[0] = 1.5
        assert breaker.would_allow()
        assert breaker.allow()
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # single probe slot
        breaker.record_success()
        assert breaker.state == CLOSED
        snap = stats.snapshot()
        assert snap["breaker_opens"] == 1
        assert snap["breaker_probes"] == 1
        assert snap["breaker_closes"] == 1
        assert snap["breaker_rejections"] == 2

    def test_half_open_failure_reopens(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failures=1, cooldown=1.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        assert breaker.state == OPEN
        clock[0] = 1.5
        assert breaker.allow()  # the half-open probe
        breaker.record_failure()
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown restarted
        clock[0] = 3.0
        assert breaker.allow()
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_success_resets_consecutive_count(self):
        breaker = CircuitBreaker(failures=2, cooldown=1.0)
        breaker.record_failure()
        breaker.record_success()
        breaker.record_failure()
        assert breaker.state == CLOSED  # failures were not consecutive

    def test_release_probe_frees_half_open_slot(self):
        # A neutral outcome (admission refusal, client error) must
        # return the probe slot; otherwise the breaker wedges in
        # HALF_OPEN and the daemon is excluded from routing forever.
        clock = [0.0]
        breaker = CircuitBreaker(
            failures=1, cooldown=1.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 1.5
        assert breaker.allow()  # claims the single HALF_OPEN probe
        assert not breaker.would_allow()
        breaker.release_probe()
        assert breaker.state == HALF_OPEN  # no verdict was reached
        assert breaker.would_allow()
        assert breaker.allow()  # next request can probe again
        breaker.record_success()
        assert breaker.state == CLOSED

    def test_straggler_release_cannot_free_the_probe_slot(self):
        # A slot granted while CLOSED may settle after the breaker has
        # opened.  No probe goes out while it is in flight, so its
        # neutral release cannot free a probe slot another request
        # holds (regression: a second concurrent probe got through).
        clock = [0.0]
        breaker = CircuitBreaker(
            failures=1, cooldown=1.0, clock=lambda: clock[0]
        )
        assert breaker.allow()  # the straggler
        assert breaker.allow()
        breaker.record_failure()  # the second request fails: OPEN
        clock[0] = 1.5
        assert not breaker.would_allow()  # the straggler is still out
        assert not breaker.allow()
        breaker.release_probe()  # it comes back with a client error
        assert breaker.allow()  # the probe
        assert breaker.state == HALF_OPEN
        assert not breaker.allow()  # and only one

    def test_concurrent_settles_leave_no_slot_claimed(self):
        # More threads than cores claim and settle slots while failures
        # open the breaker and successes close it under them.  With a
        # tiny switch interval, a lost update on the slot count would
        # leave it above zero or wedge the breaker until the workers
        # time out.
        breaker = CircuitBreaker(failures=2, cooldown=0.0)
        outcomes = (
            breaker.record_success, breaker.record_success,
            breaker.record_failure, breaker.release_probe,
        )
        settled = [0] * 8

        def worker(seed):
            limit = time.monotonic() + 30.0  # a wedged breaker ends it
            while settled[seed] < 1000 and time.monotonic() < limit:
                if breaker.allow():
                    time.sleep(0)  # hold the slot while others run
                    outcomes[(seed + settled[seed]) % len(outcomes)]()
                    settled[seed] += 1

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=worker, args=(seed,))
                for seed in range(8)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert settled == [1000] * 8
        assert breaker._inflight == 0
        assert breaker.would_allow()

    def test_release_probe_harmless_after_verdict(self):
        clock = [0.0]
        breaker = CircuitBreaker(
            failures=1, cooldown=1.0, clock=lambda: clock[0]
        )
        breaker.record_failure()
        clock[0] = 1.5
        assert breaker.allow()
        breaker.record_failure()  # probe verdict: still broken
        breaker.release_probe()  # a stray release after the verdict
        assert breaker.state == OPEN
        assert not breaker.allow()  # cooldown restarted, not bypassed

    def test_dispatch_failures_feed_the_breaker(self, fleet):
        config = router_config(
            fleet, health_interval=30.0, breaker_failures=1,
            breaker_cooldown=30.0,
        )
        with Router(config) as router:
            first = router.submit(make_job())
            victim_addr = first["routed_to"]
            victim = next(d for d in fleet if d.address == victim_addr)
            victim.stop(drain=False)
            reply = router.submit(make_job())
            assert reply["failovers"] == 1
            assert reply["result"]["value"] == first["result"]["value"]
            assert router.breakers[victim_addr].state == OPEN
            assert router.stats.snapshot()["breaker_opens"] == 1

    def test_every_routed_dispatch_is_settled(self, fleet):
        # Per daemon, each dispatch the router sends ends completed or
        # failed, the one a failover abandons included.
        with Router(router_config(fleet, health_interval=30.0)) as router:
            first = router.submit(make_job())
            victim = next(
                d for d in fleet if d.address == first["routed_to"]
            )
            victim.stop(drain=False)
            assert router.submit(make_job())["failovers"] == 1
            daemons = router.stats.snapshot()["daemons"]
            assert daemons[victim.address] == {
                "routed": 2, "completed": 1, "failed": 1,
            }
            for counts in daemons.values():
                assert counts["routed"] == (
                    counts["completed"] + counts["failed"]
                )

    def test_half_open_probe_survives_admission_refusal(self, fleet):
        # A HALF_OPEN probe answered with a draining/overloaded refusal
        # is neutral: it must release the probe slot (regression: the
        # slot leaked and the breaker wedged, permanently excluding the
        # daemon from routing).
        config = router_config(
            fleet, health_interval=30.0, breaker_failures=1
        )
        with Router(config) as router:
            first = router.submit(make_job())
            primary_addr = first["routed_to"]
            primary = next(d for d in fleet if d.address == primary_addr)
            primary.drain()  # health never probes: dispatch discovers it
            breaker = router.breakers[primary_addr]
            breaker.record_failure()
            assert breaker.state == OPEN
            breaker._opened_at -= 10.0  # cooldown elapsed: probe-ready
            reply = router.submit(make_job())
            assert reply["routed_to"] != primary_addr
            assert reply["failovers"] == 1
            assert breaker.state == HALF_OPEN  # refusal is no verdict
            assert breaker.would_allow()  # the probe slot was released

    def test_client_error_releases_half_open_probe(self, fleet):
        # Typed client errors (validation here) pass through the router
        # untouched — but a probe slot claimed for the dispatch must
        # still be returned.
        config = router_config(
            fleet, health_interval=30.0, breaker_failures=1
        )
        with Router(config) as router:
            first = router.submit(make_job())
            breaker = router.breakers[first["routed_to"]]
            breaker.record_failure()
            breaker._opened_at -= 10.0
            with pytest.raises(ValidationError):
                router.submit({
                    "kind": "objective", "profile": PROFILE, "k": 2,
                    "weights": np.full(R, 1.0 / R),
                    "config": {"bogus_knob": 1},
                })
            assert breaker.state == HALF_OPEN
            assert breaker.would_allow()

    def test_submit_timeout_does_not_mark_daemon_dead(self, monkeypatch):
        # One slow job exhausting its deadline says nothing about the
        # daemon's liveness: the breaker does the accounting, the active
        # health checker owns alive/dead (regression: a socket.timeout
        # flipped health.alive and evicted a healthy replica).
        monkeypatch.setattr("repro.serve.router.REPLY_GRACE", 0.1)
        sink = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        sink.bind(("127.0.0.1", 0))
        sink.listen(1)  # accepts connects, never replies
        address = "127.0.0.1:%d" % sink.getsockname()[1]
        router = Router(RouterConfig(daemons=(address,)))
        try:
            with pytest.raises(_AttemptFailed) as excinfo:
                router._wire_submit(
                    address,
                    {"op": "submit"},
                    expires_at=time.monotonic() + 0.2,
                )
            assert excinfo.value.infrastructure is True  # breaker-worthy
            assert router.health[address].alive is True
        finally:
            router.close()
            sink.close()

    def test_open_breaker_removes_replica_from_rotation(self, fleet):
        config = router_config(
            fleet, health_interval=30.0, breaker_failures=1,
            breaker_cooldown=30.0,
        )
        with Router(config) as router:
            first = router.submit(make_job())
            primary = first["routed_to"]
            router.breakers[primary].record_failure()
            assert router.breakers[primary].state == OPEN
            reply = router.submit(make_job())
            assert reply["routed_to"] != primary
            assert reply["failovers"] == 0  # skipped without an attempt
            assert reply["result"]["value"] == first["result"]["value"]
            assert router.stats.snapshot()["skipped_unhealthy"] >= 1


# ---------------------------------------------------------------------- #
# RouteStats
# ---------------------------------------------------------------------- #

class TestRouteStats:
    def test_summary(self):
        stats = RouteStats()
        stats.bump("requests")
        stats.bump_daemon("x:1", "routed")
        assert stats.summary().startswith("1 requests over 1 daemon(s)")

    def test_unknown_counter_rejected(self):
        with pytest.raises(KeyError):
            RouteStats().bump("nope")
        with pytest.raises(KeyError):
            RouteStats().bump_daemon("x:1", "nope")

    def test_latency_quantile(self):
        stats = RouteStats()
        for ms in range(1, 101):
            stats.observe_latency(ms / 1000.0)
        snap = stats.snapshot()
        # nearest rank over 1..100 ms: ranks 50 and 98 of 0..99
        assert snap["dispatch_p50_ms"] == pytest.approx(51.0)
        assert snap["dispatch_p99_ms"] == pytest.approx(99.0)

    def test_latency_reservoir_keeps_the_newest_samples(self):
        stats = RouteStats()
        for ms in range(LATENCY_SAMPLES + 100):
            stats.observe_latency(ms / 1000.0)
        snap = stats.snapshot()
        # The 100 oldest samples were dropped: the reservoir holds
        # 100..611 ms, whose nearest-rank p50/p99 are ranks 256 and 506.
        assert snap["dispatch_p50_ms"] == pytest.approx(356.0)
        assert snap["dispatch_p99_ms"] == pytest.approx(606.0)


# ---------------------------------------------------------------------- #
# RouterDaemon TCP front
# ---------------------------------------------------------------------- #

class TestRouterDaemon:
    def test_unmodified_client_speaks_to_router(self, fleet):
        with RouterDaemon(router_config(fleet)) as front:
            with ServeClient(front.address) as client:
                assert client.ping()
                reply = client.submit(make_job())
                assert reply["result"]["value"] == pytest.approx(
                    reply["result"]["value"]
                )
                assert reply["routed_to"] in [d.address for d in fleet]

    def test_health_aggregates_fleet(self, fleet):
        with RouterDaemon(router_config(fleet)) as front:
            with ServeClient(front.address) as client:
                client.submit(make_job())
                health = client.health()
                assert health["router"] is True
                assert set(health["daemons"]) == {
                    d.address for d in fleet
                }
                assert len(health["ring"]["nodes"]) == 3
                assert health["route_stats"]["requests"] >= 1
                # fleet ServeStats ride on health probes: wait one cycle
                assert wait_for(
                    lambda: client.health()["stats"]["totals"][
                        "completed"
                    ] >= 1
                )

    def test_drain_via_wire(self, fleet):
        with RouterDaemon(router_config(fleet)) as front:
            with ServeClient(front.address) as client:
                client.drain()
                with pytest.raises(ServerDraining):
                    client.submit(make_job())

    def test_concurrent_clients_route_consistently(self, fleet):
        with RouterDaemon(router_config(fleet)) as front:
            results, errors = [], []

            def worker(seed):
                try:
                    with ServeClient(front.address) as client:
                        reply = client.submit(make_job())
                        results.append(reply)
                except Exception as error:  # pragma: no cover
                    errors.append(error)

            threads = [
                threading.Thread(target=worker, args=(i,))
                for i in range(6)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=60)
            assert not errors
            assert len(results) == 6
            assert len({r["routed_to"] for r in results}) == 1
            values = {r["result"]["value"] for r in results}
            assert len(values) == 1  # bit-identical across clients


# ---------------------------------------------------------------------- #
# Stopping a front (daemon or router)
# ---------------------------------------------------------------------- #

def start_front(kind, fleet):
    """A started front of ``kind``: a fleet daemon, or a router over it."""
    if kind == "serve":
        return fleet[0]
    front = RouterDaemon(router_config(fleet))
    front.start()
    return front


class TestStop:
    @pytest.mark.parametrize("kind", ["serve", "router"])
    def test_connect_right_after_stop_is_refused(self, fleet, kind):
        front = start_front(kind, fleet)
        host, port = front.address.rsplit(":", 1)
        # One served connection first: it restarts the accept poll out
        # of phase with the daemon workers' polls, so stop() cannot
        # rely on the worker joins to outlast an in-flight accept poll
        # (which keeps a closed listener accepting, then resetting).
        time.sleep(0.15)
        with ServeClient(front.address) as client:
            assert client.ping()
        front.stop(drain=False)
        with pytest.raises(ConnectionRefusedError):
            socket.create_connection((host, int(port)), 5.0).close()

    @pytest.mark.parametrize("kind", ["serve", "router"])
    def test_submit_on_prestop_connection_fails_at_once(self, fleet, kind):
        front = start_front(kind, fleet)
        with ServeClient(front.address, retries=0) as client:
            assert client.ping()
            front.stop(drain=False)
            started = time.monotonic()
            with pytest.raises(ConnectionError):
                client.submit(make_job(), deadline=3.0)
            assert time.monotonic() - started < 1.0


class TestConfigValidation:
    def test_empty_fleet_rejected(self):
        with pytest.raises(ValidationError):
            RouterConfig(daemons=())

    def test_duplicate_daemon_rejected(self):
        with pytest.raises(ValidationError):
            RouterConfig(daemons=("a:1", "a:1"))

    def test_bad_ranges_rejected(self):
        good = ("127.0.0.1:7000",)
        for bad in (
            dict(replication=0),
            dict(vnodes=0),
            dict(health_interval=0),
            dict(breaker_failures=0),
            dict(default_deadline=0),
        ):
            with pytest.raises(ValidationError):
                RouterConfig(daemons=good, **bad)

    def test_hedge_flags_removed(self):
        # Hedged requests were measured and deleted: neither the CLI
        # flag nor the config field exists any more.  (The bad
        # replication makes a router that still parsed the flag return
        # at once instead of serving forever.)
        with pytest.raises(SystemExit) as excinfo:
            router_module.main([
                "--daemons", "127.0.0.1:7000", "--replication", "0",
                "--hedge-delay", "0.1",
            ])
        assert excinfo.value.code == 2
        with pytest.raises(TypeError):
            RouterConfig(daemons=("127.0.0.1:7000",), hedge_delay=0.1)
