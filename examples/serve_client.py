"""Talking to the serving daemon: submit, batch, overload, drain.

Spawns a daemon subprocess (the same thing ``python -m repro.serve
--bind HOST:PORT`` starts on a real host), then walks the client
surface: clustering and objective jobs, the typed backpressure errors
(``ServerOverloaded``, ``DeadlineExceeded``), the health endpoint the
``repro.cli serve-stats`` command renders, and a graceful drain.

Run:  python examples/serve_client.py
"""

import threading

import numpy as np

from repro.serve import (
    DeadlineExceeded,
    ServeClient,
    ServerOverloaded,
)
from repro.serve.daemon import spawn_daemon

PROFILE = "rm_small"
R = 11  # rm_small's view count


def main() -> None:
    # On a real deployment the daemon is already running somewhere:
    #   python -m repro.serve --bind 0.0.0.0:7641 --workers 4 \
    #       --shard-workers 2 --tenant-rate 50
    # and clients connect with ServeClient("host:7641").  Here we spawn
    # one locally on an ephemeral port.
    daemon = spawn_daemon(["--workers", "2"])
    print(f"daemon ready at {daemon.address} (pid {daemon.process.pid})")

    try:
        # --- one clustering request -------------------------------------
        with ServeClient(daemon.address, tenant="demo") as client:
            reply = client.submit({"kind": "cluster", "profile": PROFILE})
            labels = reply["result"]["labels"]
            print(
                f"cluster: {len(labels)} labels, "
                f"objective {reply['result']['objective_value']:.6f}, "
                f"batched with {reply['batched']} request(s)"
            )

            # --- objective evaluations (these coalesce) -----------------
            rng = np.random.default_rng(0)
            weights = rng.random(R) + 0.05
            weights /= weights.sum()
            reply = client.submit({
                "kind": "objective", "profile": PROFILE,
                "weights": weights,
            })
            print(f"objective h(w) = {reply['result']['value']:.6f}")

            # Compatible objective requests submitted concurrently by
            # different tenants are served as ONE batch — with results
            # bit-identical to sequential service (the daemon's
            # determinism contract).
            def probe(index: int) -> None:
                point = rng.random(R) + 0.05
                with ServeClient(daemon.address, tenant=f"t{index}") as c:
                    c.submit({
                        "kind": "objective", "profile": PROFILE,
                        "weights": point / point.sum(),
                    })

            threads = [
                threading.Thread(target=probe, args=(i,)) for i in range(4)
            ]
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join()

            # --- typed backpressure -------------------------------------
            # A deadline the job cannot meet comes back as a structured
            # DeadlineExceeded, never a hang; a full queue comes back as
            # ServerOverloaded in milliseconds, never a timeout.
            try:
                client.submit(
                    {"kind": "cluster", "profile": PROFILE},
                    deadline=0.001,
                )
                # An idle daemon with a warm dataset cache can finish a
                # small job inside even a 1 ms budget — that counts.
                print("tiny-deadline job finished inside its budget")
            except DeadlineExceeded as error:
                print(f"deadline enforced: {error}")
            except ServerOverloaded as error:
                print(f"shed by admission control: {error}")

            # --- health endpoint (what `repro.cli serve-stats` shows) ---
            health = client.health()
            totals = health["stats"]["totals"]
            print(
                f"health: {health['queue_depth']} queued, "
                f"{totals['completed']} completed, "
                f"{totals['batched']} batched"
            )

            # --- graceful drain -----------------------------------------
            client.drain()
            print("draining; new submissions now get ServerDraining")
    finally:
        daemon.terminate()
        code = daemon.wait(timeout=30)
        print(f"daemon exited {code}")


if __name__ == "__main__":
    main()
