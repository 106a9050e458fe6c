"""Command-line interface: generate, cluster, and embed MVAGs.

Examples
--------
List the built-in dataset profiles::

    python -m repro.cli profiles

Generate a synthetic MVAG and save it::

    python -m repro.cli generate --profile yelp_small --out yelp.npz

Cluster it and print the Table III metrics::

    python -m repro.cli cluster yelp.npz --method sgla+

Embed it and save the node vectors::

    python -m repro.cli embed yelp.npz --dim 64 --out yelp_emb.npy
"""

from __future__ import annotations

import argparse
import sys
from typing import Optional, Sequence

import numpy as np

from repro.core.integration import INTEGRATION_METHODS
from repro.core.pipeline import cluster_mvag, embed_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.io import load_mvag, save_mvag
from repro.datasets.profiles import (
    dataset_profile,
    list_profiles,
    load_profile_mvag,
)
from repro.evaluation.classification import evaluate_embedding
from repro.evaluation.clustering_metrics import clustering_report
from repro.neighbors import NeighborStats
from repro.neighbors import available_backends as available_knn_backends
from repro.shard import shard_scope
from repro.solvers import available_backends
from repro.utils.errors import ReproError


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="SGLA/SGLA+ multi-view attributed graph toolkit",
    )
    commands = parser.add_subparsers(dest="command", required=True)

    profiles_cmd = commands.add_parser(
        "profiles", help="list the built-in dataset profiles"
    )
    profiles_cmd.add_argument(
        "--all", action="store_true", help="include small/mid tier variants"
    )

    generate = commands.add_parser(
        "generate", help="generate a synthetic MVAG from a profile"
    )
    generate.add_argument("--profile", required=True)
    generate.add_argument("--seed", type=int, default=0)
    generate.add_argument("--out", required=True, help="output .npz path")

    cluster = commands.add_parser("cluster", help="cluster an MVAG")
    cluster.add_argument("input", help=".npz MVAG file or profile name")
    cluster.add_argument("--method", default="sgla+",
                         choices=INTEGRATION_METHODS)
    cluster.add_argument("--k", type=int, default=None,
                         help="cluster count (defaults to label count)")
    cluster.add_argument("--knn-k", type=int, default=10)
    cluster.add_argument("--gamma", type=float, default=0.5)
    cluster.add_argument("--seed", type=int, default=0)
    cluster.add_argument("--out", default=None,
                         help="optional .npy path for the labels")
    _add_solver_args(cluster)

    embed = commands.add_parser("embed", help="embed an MVAG")
    embed.add_argument("input", help=".npz MVAG file or profile name")
    embed.add_argument("--method", default="sgla+",
                       choices=INTEGRATION_METHODS)
    embed.add_argument("--dim", type=int, default=64)
    embed.add_argument("--backend", default="auto",
                       choices=["auto", "netmf", "sketchne"])
    embed.add_argument("--knn-k", type=int, default=10)
    embed.add_argument("--seed", type=int, default=0)
    embed.add_argument("--out", default=None,
                       help="optional .npy path for the embedding")
    _add_solver_args(embed)

    serve_stats = commands.add_parser(
        "serve-stats",
        help="query a running serving daemon's health endpoint "
             "(python -m repro.serve) and print its stats; the serve: "
             "line includes result-cache hits (the result_hits counter: "
             "requests answered bit-identically from the deterministic "
             "result cache), and against a router the result-cache "
             "line is the fleet-aggregated hit rate",
    )
    serve_stats.add_argument(
        "address", metavar="HOST:PORT",
        help="the daemon's announced address",
    )
    serve_stats.add_argument(
        "--tenants", action="store_true",
        help="also print one line per tenant",
    )
    serve_stats.add_argument(
        "--timeout", type=float, default=10.0,
        help="seconds to wait for the daemon's reply",
    )
    return parser


def _add_solver_args(subparser) -> None:
    """Spectral-solver options shared by the cluster/embed commands."""
    subparser.add_argument(
        "--eigen-backend",
        default="auto",
        choices=("auto",) + available_backends(),
        help="spectral-solver backend from the repro.solvers registry",
    )
    subparser.add_argument(
        "--solver-workers",
        type=int,
        default=None,
        help="thread budget of the exact KNN builds' similarity blocks, "
        "used above one block of 2048 nodes (default: serial)",
    )
    subparser.add_argument(
        "--knn-backend",
        default="exact",
        choices=("auto",) + available_knn_backends(),
        help="neighbor-search backend for attribute-view KNN graphs "
        "from the repro.neighbors registry ('exact' reproduces the "
        "paper's exhaustive construction; 'rp-forest' is O(n log n) "
        "approximate search; 'auto' switches by problem size)",
    )
    subparser.add_argument(
        "--shard-workers",
        type=int,
        default=None,
        help="process budget of the sharded execution subsystem "
        "(repro.shard): view Laplacian builds and SGLA+ weight-batch "
        "eigensolves fan out over a persistent process pool with "
        "shared-memory transfer; results are bit-identical for every "
        "value >= 1 (unset/0 disables sharding)",
    )
    subparser.add_argument(
        "--shard-retries",
        type=int,
        default=2,
        help="retry attempts beyond the first for failed/timed-out "
        "shards (failed shards are re-planned onto a freshly forked "
        "pool)",
    )
    subparser.add_argument(
        "--shard-deadline",
        type=float,
        default=None,
        help="per-attempt shard deadline in seconds (each retry gets a "
        "fresh budget; default: wait indefinitely)",
    )
    subparser.add_argument(
        "--coarsen",
        type=int,
        default=0,
        metavar="LEVELS",
        help="depth of the multilevel ladder (repro.coarsen): landmark-"
        "coarsen the view Laplacians up to LEVELS rungs, optimize the "
        "view weights at the coarsest level, then polish at full size "
        "with prolonged warm starts (0 = flat path, the default)",
    )


def _solver_config(args, **extra) -> SGLAConfig:
    """An SGLAConfig carrying the CLI's solver selection."""
    return SGLAConfig(
        seed=args.seed,
        knn_k=args.knn_k,
        knn_backend=args.knn_backend,
        eigen_backend=args.eigen_backend,
        solver_workers=args.solver_workers,
        shard_workers=args.shard_workers,
        shard_retries=args.shard_retries,
        shard_deadline=args.shard_deadline,
        coarsen_levels=args.coarsen,
        **extra,
    )


def _load_input(path_or_profile: str, seed: int):
    if path_or_profile.endswith(".npz"):
        return load_mvag(path_or_profile)
    return load_profile_mvag(path_or_profile, seed=seed)


def _cmd_profiles(args) -> int:
    names = list_profiles(include_small=args.all)
    print(f"{'profile':24s} {'n':>8s} {'paper n':>9s} {'r':>3s} {'k':>4s}")
    for name in names:
        profile = dataset_profile(name)
        print(
            f"{name:24s} {profile.n:8d} {profile.paper_n:9d} "
            f"{profile.r:3d} {profile.k:4d}"
        )
    return 0


def _cmd_generate(args) -> int:
    mvag = load_profile_mvag(args.profile, seed=args.seed)
    save_mvag(mvag, args.out)
    print(f"wrote {mvag} -> {args.out}")
    return 0


def _cmd_cluster(args) -> int:
    mvag = _load_input(args.input, args.seed)
    config = _solver_config(args, gamma=args.gamma)
    solver = config.make_solver()
    neighbor_stats = NeighborStats()
    # shard_scope owns the context's lifecycle; its stats stay readable
    # after close for the summary line below.
    with shard_scope(config, None) as shard:
        output = cluster_mvag(
            mvag,
            k=args.k,
            method=args.method,
            config=config,
            seed=args.seed,
            solver=solver,
            neighbor_stats=neighbor_stats,
            shard=shard,
        )
    if output.integration.weights is not None:
        weights = np.round(output.integration.weights, 4)
        print(f"view weights: {weights.tolist()}")
    print(f"integration time: {output.integration.elapsed_seconds:.3f}s")
    print(f"solver: {solver.stats.summary()}")
    if output.integration.coarsen_stats is not None:
        print(f"coarsen: {output.integration.coarsen_stats.summary()}")
    if neighbor_stats.builds:
        print(f"neighbors: {neighbor_stats.summary()}")
    if shard is not None:
        print(f"shard: {shard.stats.summary()}")
    if mvag.labels is not None:
        report = clustering_report(mvag.labels, output.labels)
        for metric, value in report.items():
            print(f"{metric:7s} {value:.4f}")
    if args.out:
        np.save(args.out, output.labels)
        print(f"labels -> {args.out}")
    return 0


def _cmd_embed(args) -> int:
    mvag = _load_input(args.input, args.seed)
    config = _solver_config(args)
    solver = config.make_solver()
    neighbor_stats = NeighborStats()
    with shard_scope(config, None) as shard:
        output = embed_mvag(
            mvag,
            dim=args.dim,
            method=args.method,
            config=config,
            backend=args.backend,
            seed=args.seed,
            solver=solver,
            neighbor_stats=neighbor_stats,
            shard=shard,
        )
    print(f"backend: {output.backend}")
    print(f"embedding shape: {output.embedding.shape}")
    print(f"solver: {solver.stats.summary()}")
    if output.integration.coarsen_stats is not None:
        print(f"coarsen: {output.integration.coarsen_stats.summary()}")
    if neighbor_stats.builds:
        print(f"neighbors: {neighbor_stats.summary()}")
    if shard is not None:
        print(f"shard: {shard.stats.summary()}")
    if mvag.labels is not None:
        report = evaluate_embedding(output.embedding, mvag.labels, seed=args.seed)
        print(f"macro_f1 {report['macro_f1']:.4f}")
        print(f"micro_f1 {report['micro_f1']:.4f}")
    if args.out:
        np.save(args.out, output.embedding)
        print(f"embedding -> {args.out}")
    return 0


def _cmd_serve_stats(args) -> int:
    from repro.serve.client import ServeClient
    from repro.serve.stats import ServeStats
    from repro.utils.errors import ServeError

    try:
        with ServeClient(args.address, timeout=args.timeout) as client:
            health = client.health(timeout=args.timeout)
    except OSError as error:
        raise ServeError(
            f"cannot reach serve daemon at {args.address}: {error}"
        ) from error
    if health.get("router"):
        # A router answers with the aggregated fleet payload: the
        # serve: line is the fleet-wide per-tenant merge, followed by
        # ring / per-daemon / routing lines.
        from repro.serve.router import RouteStats

        print(f"serve: {ServeStats.summary_from_snapshot(health['stats'])}")
        if health.get("results", {}).get("enabled"):
            from repro.serve.results import results_summary

            print(f"results: fleet {results_summary(health['results'])}")
        ring = health["ring"]
        print(
            f"ring: {len(ring['nodes'])} daemons, "
            f"replication {ring['replication']}, "
            f"{ring['vnodes']} vnodes"
            f"{', draining' if health['draining'] else ''}"
        )
        for address, entry in health["daemons"].items():
            state = "alive" if entry["alive"] else "dead"
            if entry["draining"]:
                state = "draining"
            print(
                f"daemon {address}: {state}, "
                f"queue {entry['queue_depth']}/{entry['queue_capacity']}, "
                f"breaker {entry['breaker']}"
                + (f" ({entry['error']})" if entry.get("error") else "")
            )
        print(
            f"route: "
            f"{RouteStats.summary_from_snapshot(health['route_stats'])}"
        )
    else:
        serve_line = ServeStats.summary_from_snapshot(health["stats"])
        if "cache" in health:
            from repro.serve.jobs import cache_summary

            serve_line = f"{serve_line}; {cache_summary(health['cache'])}"
        if health.get("results", {}).get("enabled"):
            from repro.serve.results import results_summary

            serve_line = f"{serve_line}; {results_summary(health['results'])}"
        print(f"serve: {serve_line}")
        print(
            f"queue: {health['queue_depth']}/{health['queue_capacity']} "
            f"queued, {health['running']} running, "
            f"{health['inflight_bytes']} bytes in flight"
            f"{', draining' if health['draining'] else ''}"
        )
        contexts = health["shard"]["contexts"]
        if contexts:
            print(f"shard: {contexts} executor contexts")
    if args.tenants:
        for name, tenant in health["stats"]["tenants"].items():
            print(
                f"tenant {name}: {tenant['requests']} requests, "
                f"{tenant['completed']} completed, "
                f"{tenant['rejected_overload'] + tenant['rejected_quota'] + tenant['rejected_draining']} rejected, "
                f"{tenant['deadline_expired']} deadline-expired, "
                f"{tenant['cancelled']} cancelled"
            )
    return 0


def main(argv: Optional[Sequence[str]] = None) -> int:
    """CLI entry point; returns the process exit code."""
    parser = _build_parser()
    args = parser.parse_args(argv)
    handlers = {
        "profiles": _cmd_profiles,
        "generate": _cmd_generate,
        "cluster": _cmd_cluster,
        "embed": _cmd_embed,
        "serve-stats": _cmd_serve_stats,
    }
    try:
        return handlers[args.command](args)
    except ReproError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover - exercised via subprocess
    sys.exit(main())
