"""The replicated front tier: ring placement, failover, fleet health.

Spawns three daemon subprocesses plus a router subprocess (the same
thing ``python -m repro.serve.router --daemons HOST:PORT,...`` starts
on a real host), then demonstrates the routing contracts: an
unmodified ``ServeClient`` talks to the router exactly as it would to
a single daemon, requests for one dataset stick to one replica (warm
caches), a SIGKILLed daemon is routed around with **bit-identical**
results, and the aggregated health payload the ``repro.cli
serve-stats`` command renders.

Run:  python examples/serve_router.py
"""

import numpy as np

from repro.serve import ServeClient
from repro.serve.fleet import FleetManager, spawn_router

PROFILE = "rm_small"
R = 11  # rm_small's view count


def main() -> None:
    # On a real deployment each daemon runs on its own host:
    #   python -m repro.serve --bind 0.0.0.0:7641 --workers 4   # x N
    # and one (or more — placement is deterministic, routers need no
    # coordination) router fronts them:
    #   python -m repro.serve.router --bind 0.0.0.0:7640 \
    #       --daemons hostA:7641,hostB:7641,hostC:7641 \
    #       --replication 2
    # Here everything is local on ephemeral ports.
    with FleetManager(3, argv_extra=["--workers", "2"]) as fleet:
        print(f"fleet: {', '.join(fleet.addresses())}")
        router = spawn_router(fleet.addresses())
        print(f"router ready at {router.address} (pid {router.process.pid})")

        rng = np.random.default_rng(0)
        weights = rng.random(R) + 0.05
        weights /= weights.sum()
        job = {"kind": "objective", "profile": PROFILE, "weights": weights}

        try:
            # An unmodified ServeClient: the router speaks the daemon's
            # wire protocol on both faces.
            with ServeClient(router.address, tenant="demo") as client:
                # --- cache-affine placement -------------------------
                # route_key(job) is "profile@seed" — the dataset-cache
                # identity — so repeats land on the same replica and
                # its prepared Laplacians stay warm.
                first = client.submit(dict(job))
                value = first["result"]["value"]
                home = first["routed_to"]
                print(f"h(w) = {value:.6f}, served by {home}")
                again = client.submit(dict(job))
                assert again["routed_to"] == home
                print(f"repeat stuck to {home} (warm dataset cache)")

                # --- chaos: kill the serving replica ----------------
                # SIGKILL, not SIGTERM: no drain, no goodbye.  The
                # router fails over to a sibling replica; the daemons
                # evaluate cold, so the detoured result is
                # bit-identical — failover changes WHERE, never WHAT.
                fleet.kill_one(home)
                print(f"SIGKILLed {home}")
                detoured = client.submit(dict(job))
                assert detoured["routed_to"] != home
                assert detoured["result"]["value"] == value
                print(
                    f"failover to {detoured['routed_to']}, "
                    f"bit-identical result, "
                    f"{detoured['failovers']} failover(s) on this request"
                )

                # --- fleet health (what serve-stats renders) --------
                health = client.health()
                dead = [
                    address
                    for address, record in health["daemons"].items()
                    if not record["alive"]
                ]
                print(
                    f"health: ring of {len(health['ring']['nodes'])}, "
                    f"replication {health['ring']['replication']}, "
                    f"dead: {dead or 'none yet (probe pending)'}"
                )
                route = health["route_stats"]
                print(
                    f"route counters: {route['requests']} requests, "
                    f"{route['failovers']} failovers, "
                    f"{route['breaker_opens']} breaker opens"
                )

                # --- respawn: membership is dynamic -----------------
                # ensure() replaces dead members at new ports.  The
                # consistent-hash ring bounds the damage of any
                # membership change to ~1/N of keys — the rest of the
                # fleet's caches stay warm.
                fleet.ensure()
                print(f"fleet healed: {', '.join(fleet.alive())}")
        finally:
            router.terminate()
            code = router.wait(timeout=30)
            print(f"router exited {code}")


if __name__ == "__main__":
    main()
