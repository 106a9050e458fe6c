"""``python -m repro.serve --bind HOST:PORT`` — run the serving daemon.

Startup announces ``REPRO-SERVE-READY host port pid`` on stdout (port 0
asks the kernel for a free port; the announced port is the real one) —
the spawn handshake :func:`repro.serve.daemon.spawn_daemon` blocks on.

Lifecycle: SIGTERM (and SIGINT) triggers a graceful drain — new
admissions are refused with :class:`~repro.utils.errors.ServerDraining`,
in-flight requests finish within ``--drain-grace`` seconds — then the
process prints its final ``serve:`` stats line on stderr and exits 0.
A bind failure (port already in use, bad address) or a bad flag value
(including a malformed ``--faults`` plan or a shard setting the shard
contexts refuse) is a clean one-line ``error: ...`` and exit 2, never a
traceback, and never a ``READY`` line.
"""

from __future__ import annotations

import argparse
import json
import os
import signal
import sys
import threading
from typing import Optional

from repro.serve.config import ServeConfig
from repro.serve.daemon import ServeDaemon
from repro.serve.protocol import resolve_authkey
from repro.utils.errors import ReproError, ValidationError


def _parse_weights(pairs) -> Optional[dict]:
    if not pairs:
        return None
    weights = {}
    for pair in pairs:
        name, sep, value = pair.partition("=")
        if not sep or not name:
            raise ValidationError(
                f"--tenant-weight must be NAME=WEIGHT, got {pair!r}"
            )
        try:
            weights[name] = float(value)
        except ValueError:
            raise ValidationError(
                f"--tenant-weight has a non-numeric weight: {pair!r}"
            ) from None
    return weights


def _shard_factory(args):
    """Build the per-worker ShardContext factory from the CLI flags."""
    if not args.shard_workers:
        return None
    fault_plan = None
    if args.faults:
        from repro.shard.faults import plan_from_dict

        try:
            payload = json.loads(args.faults)
        except json.JSONDecodeError as error:
            raise ValidationError(
                f"--faults must be a JSON object: {error}"
            ) from None
        if not isinstance(payload, dict):
            raise ValidationError(
                f"--faults must be a JSON object, got {args.faults!r}"
            )
        fault_plan = plan_from_dict(payload)

    def factory():
        from repro.shard import ShardContext

        return ShardContext(workers=args.shard_workers, fault_plan=fault_plan)

    return factory


def main(argv: Optional[list] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.serve",
        description="Multi-tenant SGLA serving daemon (framed TCP, "
                    "stdlib only).",
    )
    parser.add_argument(
        "--bind", default="127.0.0.1:0", metavar="HOST:PORT",
        help="address to listen on; port 0 picks a free port",
    )
    parser.add_argument("--queue-depth", type=int, default=64,
                        help="max queued requests before shedding")
    parser.add_argument("--max-inflight-mb", type=float, default=256.0,
                        help="max summed payload MB queued + running")
    parser.add_argument("--workers", type=int, default=2,
                        help="executor threads")
    parser.add_argument("--batch-limit", type=int, default=8,
                        help="max objective requests coalesced per batch "
                             "(1 disables batching)")
    parser.add_argument("--tenant-rate", type=float, default=0.0,
                        help="per-tenant admission rate (req/s; 0 = off)")
    parser.add_argument("--tenant-burst", type=float, default=8.0,
                        help="per-tenant token-bucket burst")
    parser.add_argument("--tenant-weight", action="append", default=[],
                        metavar="NAME=WEIGHT",
                        help="fair-share weight override (repeatable)")
    parser.add_argument("--default-deadline", type=float, default=None,
                        help="deadline applied to requests carrying none")
    parser.add_argument("--drain-grace", type=float, default=30.0,
                        help="seconds a SIGTERM drain waits for in-flight "
                             "work")
    parser.add_argument("--max-dataset-mb", type=float, default=256.0,
                        help="byte budget (MB), the only bound, of the "
                             "prepared-dataset cache (each dataset's "
                             "view Laplacians); LRU entries are evicted "
                             "past it")
    parser.add_argument("--max-results-mb", type=float, default=64.0,
                        help="byte budget (MB) of the deterministic "
                             "result cache; identical repeat requests "
                             "replay bit-identically from memory "
                             "(result-cache hits show on the serve: "
                             "line and as result_hits in stats)")
    parser.add_argument("--no-result-cache", action="store_true",
                        help="disable the result cache (every request "
                             "recomputes)")
    parser.add_argument("--priority-aging", type=float, default=0.1,
                        help="anti-starvation aging rate of the "
                             "priority-aware fair queue (virtual-time "
                             "units per second a queued request's rank "
                             "decays; 0 disables aging)")
    parser.add_argument("--shard-workers", type=int, default=0,
                        help="per-executor ShardContext worker count "
                             "(0 = serve in-process)")
    parser.add_argument("--faults", default=None, metavar="JSON",
                        help="FaultPlan dict armed on executor shard "
                             "contexts (chaos testing)")
    parser.add_argument(
        "--authkey", default=None,
        help="shared frame-integrity key (default: REPRO_SHARD_AUTHKEY "
             "env var, else the built-in development key)",
    )
    args = parser.parse_args(argv)
    try:
        config = ServeConfig(
            bind=args.bind,
            queue_depth=args.queue_depth,
            max_inflight_mb=args.max_inflight_mb,
            workers=args.workers,
            batch_limit=args.batch_limit,
            tenant_rate=args.tenant_rate,
            tenant_burst=args.tenant_burst,
            tenant_weights=_parse_weights(args.tenant_weight),
            default_deadline=args.default_deadline,
            drain_grace=args.drain_grace,
            max_dataset_mb=args.max_dataset_mb,
            result_cache=not args.no_result_cache,
            max_results_mb=args.max_results_mb,
            priority_aging=args.priority_aging,
            authkey=resolve_authkey(args.authkey),
        )
        daemon = ServeDaemon(config, shard_factory=_shard_factory(args))
        address = daemon.start()
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    except OSError as error:
        print(f"error: cannot bind {args.bind}: {error}", file=sys.stderr)
        return 2

    host, port = address.rsplit(":", 1)
    print(f"REPRO-SERVE-READY {host} {port} {os.getpid()}", flush=True)

    # Signal handlers only set an event (async-signal-safe); the main
    # thread owns the actual drain + teardown sequence.
    shutdown = threading.Event()

    def _request_shutdown(signum, frame):
        shutdown.set()

    signal.signal(signal.SIGTERM, _request_shutdown)
    signal.signal(signal.SIGINT, _request_shutdown)

    shutdown.wait()
    drained = daemon.stop(drain=True)
    from repro.serve.jobs import cache_summary
    from repro.serve.results import results_summary

    line = (
        f"serve: {daemon.stats.summary()}; "
        f"{cache_summary(daemon.datasets.snapshot())}"
    )
    if daemon.results is not None:
        line += f"; {results_summary(daemon.results.snapshot())}"
    print(line, file=sys.stderr)
    if not drained:
        print(
            f"serve: drain grace ({config.drain_grace}s) expired with "
            f"work in flight",
            file=sys.stderr,
        )
    return 0


if __name__ == "__main__":
    sys.exit(main())
