"""Spectral-solver backend benchmark (DESIGN.md §7–8).

Compares the single-solve backends — dense / lanczos — on aggregated
MVAG Laplacians at several sizes, measures the ``batch`` backend's
wall-clock win over naive sequential solves of a set of related weight
vectors (the SGLA+ sampling workload), and measures the
adaptive-precision **tolerance ladder** on ``lanczos`` (SGLA end-to-end:
trust-radius-driven eigensolve tolerances versus fixed-tolerance solves —
same ``w*``, fewer matvecs).

The batch win combines thread-level overlap (scipy's solvers release the
GIL) with shared warm-start seeding; on a single-core host the seeding
term is what remains, so the acceptance floor gates on the combined
wall-clock only.  The ladder win is deterministic (it removes solver
iterations, not work that depends on the host), so it is gated in smoke
mode too: strictly fewer matvecs and ``max |dw*| < 1e-6`` vs the
fixed-tolerance run.

Runs as a pytest benchmark (``pytest benchmarks/bench_solvers.py``) or as
a plain script; ``python benchmarks/bench_solvers.py --smoke`` executes a
reduced matrix suitable as a CI perf smoke check (exits nonzero if a
floor is missed).  Results are written under ``benchmarks/results/`` as
both ``.txt`` tables and machine-readable ``.json`` (``--json`` echoes
the JSON to stdout).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from harness import emit, emit_json, format_table
from repro.core.laplacian import aggregate_laplacians, build_view_laplacians
from repro.core.sgla import SGLA, SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.solvers import BatchedBackend, EigenProblem, get_backend

#: acceptance floor — the batch backend must beat sequential wall-clock.
BATCH_FLOOR = 1.0

#: acceptance ceiling — the ladder's w* must match the fixed-tol run.
LADDER_DELTA_W = 1e-6

#: dense is O(n^3); skip it beyond this size to bound benchmark runtime.
DENSE_LIMIT = 2500

#: acceptance ceiling — max |dλ| of a single solve vs the dense reference.
BACKEND_MAX_ERROR = 1e-10


def _laplacians(n, seed=0, n_clusters=4, strengths=(0.8, 0.4, 0.2),
                attr_dims=(24,), knn_k=5):
    mvag = generate_mvag(
        n_nodes=n,
        n_clusters=n_clusters,
        graph_view_strengths=list(strengths),
        attribute_view_dims=list(attr_dims),
        avg_degree=12,
        seed=seed,
    )
    return build_view_laplacians(mvag, knn_k=knn_k)


def _nearby_weights(r, count, scale=0.02, seed=0):
    """Weight vectors clustered around uniform — the optimizer workload."""
    rng = np.random.default_rng(seed)
    base = np.full(r, 1.0 / r)
    rows = []
    for _ in range(count):
        weights = np.clip(base + rng.normal(scale=scale, size=r), 0.02, None)
        rows.append(weights / weights.sum())
    return rows


def _best_of(func, repeats=3):
    best = np.inf
    for _ in range(repeats):
        start = time.perf_counter()
        func()
        best = min(best, time.perf_counter() - start)
    return best


def bench_backends(sizes, t=5, seed=0):
    """One solve per backend per size; time + error vs the reference."""
    rows = []
    for n in sizes:
        laplacians = _laplacians(n, seed=seed)
        weights = np.full(len(laplacians), 1.0 / len(laplacians))
        laplacian = aggregate_laplacians(laplacians, weights)
        reference = None
        for name in ("dense", "lanczos"):
            if name == "dense" and n > DENSE_LIMIT:
                rows.append((n, name, None, None, None))
                continue
            backend = get_backend(name)
            problem = EigenProblem(laplacian, t, seed=seed)
            result = backend.solve(problem)  # warm the caches, keep values
            elapsed = _best_of(lambda: backend.solve(problem))
            if reference is None:
                reference = result.values
            error = float(np.max(np.abs(result.values - reference)))
            rows.append((n, name, elapsed * 1e3, f"{error:.1e}", error))
    return rows


def bench_batch(n, count, t=5, seed=0):
    """Sequential cold solves vs one threaded, seed-shared batch call."""
    laplacians = _laplacians(n, seed=seed)
    matrices = [
        aggregate_laplacians(laplacians, w)
        for w in _nearby_weights(len(laplacians), count, seed=seed)
    ]
    problems = [EigenProblem(m, t, seed=seed) for m in matrices]
    lanczos = get_backend("lanczos")
    batch = BatchedBackend()

    sequential_results = [lanczos.solve(p) for p in problems]
    sequential_seconds = _best_of(
        lambda: [lanczos.solve(p) for p in problems]
    )
    batch_results = batch.solve_many([EigenProblem(m, t, seed=seed) for m in matrices])
    batch_seconds = _best_of(
        lambda: batch.solve_many([EigenProblem(m, t, seed=seed) for m in matrices])
    )
    max_error = max(
        float(np.max(np.abs(a.values - b.values)))
        for a, b in zip(sequential_results, batch_results)
    )
    return {
        "n": n,
        "count": count,
        "sequential_s": sequential_seconds,
        "batch_s": batch_seconds,
        "speedup": sequential_seconds / max(batch_seconds, 1e-12),
        "sequential_matvecs": sum(r.matvecs for r in sequential_results),
        "batch_matvecs": sum(r.matvecs for r in batch_results),
        "max_error": max_error,
    }


def bench_ladder(n, seed=0, backends=("lanczos",)):
    """SGLA end-to-end: fixed-tolerance vs trust-region tolerance ladder.

    The ladder's claim is precision-for-free: coarse eigensolves while
    the trust radius is large, backend-default precision as it reaches
    ``eps``, and a final full-precision re-evaluation of the incumbent —
    same ``w*`` (gated at 1e-6), exact reported ``h(w*)``, strictly
    fewer matvecs.
    """
    mvag = generate_mvag(
        n_nodes=n,
        n_clusters=4,
        graph_view_strengths=[0.8, 0.3],
        attribute_view_dims=[32],
        avg_degree=12,
        seed=seed,
    )
    rows = []
    for backend in backends:
        fixed = SGLA(
            SGLAConfig(seed=seed, eigen_backend=backend, tol_ladder=False)
        ).fit(mvag)
        ladder = SGLA(
            SGLAConfig(seed=seed, eigen_backend=backend, tol_ladder=True)
        ).fit(mvag)
        fixed_mv = fixed.solver_stats.matvecs
        ladder_mv = ladder.solver_stats.matvecs
        rows.append({
            "backend": backend,
            "n": n,
            "fixed_matvecs": fixed_mv,
            "ladder_matvecs": ladder_mv,
            "matvec_reduction": 1.0 - ladder_mv / max(fixed_mv, 1),
            "fixed_s": fixed.elapsed_seconds,
            "ladder_s": ladder.elapsed_seconds,
            "coarse_solves": ladder.solver_stats.coarse_solves,
            "solves": ladder.solver_stats.solves,
            "delta_w": float(np.max(np.abs(fixed.weights - ladder.weights))),
            "delta_h": abs(fixed.objective_value - ladder.objective_value),
        })
    return rows


def run(smoke: bool = False, capsys=None, echo_json: bool = False) -> bool:
    """Run the benchmark matrix; returns True when all floors are met."""
    sizes = [800, 2000] if smoke else [800, 2000, 5000, 10000]
    backend_rows = bench_backends(sizes)
    backend_table = format_table(
        ["n", "backend", "solve (ms)", "max |dλ| vs ref"],
        [row[:4] for row in backend_rows],
        title="single-solve backend comparison (t=5 bottom eigenpairs)",
    )

    batch_cases = (
        [(2000, 8)] if smoke else [(2000, 8), (5000, 8), (10000, 12)]
    )
    batch_stats = [bench_batch(n, count) for n, count in batch_cases]
    batch_rows = [
        (
            s["n"],
            s["count"],
            s["sequential_s"],
            s["batch_s"],
            s["speedup"],
            s["sequential_matvecs"],
            s["batch_matvecs"],
        )
        for s in batch_stats
    ]
    batch_table = format_table(
        [
            "n",
            "solves",
            "sequential (s)",
            "batch (s)",
            "speedup",
            "seq matvecs",
            "batch matvecs",
        ],
        batch_rows,
        title="\nbatch backend vs sequential cold solves (nearby weight vectors)",
    )

    ladder_stats = bench_ladder(800 if smoke else 1200)
    ladder_table = format_table(
        ["backend", "fixed mv", "ladder mv", "reduction", "fixed (s)",
         "ladder (s)", "coarse/solves", "max |dw*|"],
        [
            (
                s["backend"], s["fixed_matvecs"], s["ladder_matvecs"],
                f"{s['matvec_reduction']:.0%}", s["fixed_s"], s["ladder_s"],
                f"{s['coarse_solves']}/{s['solves']}",
                f"{s['delta_w']:.1e}",
            )
            for s in ladder_stats
        ],
        title="\nSGLA tolerance ladder vs fixed-tolerance eigensolves",
    )

    name = "solvers" + ("_smoke" if smoke else "")
    emit(
        name,
        backend_table + "\n" + batch_table + "\n" + ladder_table,
        capsys,
    )
    emit_json(
        name,
        {
            "mode": "smoke" if smoke else "full",
            "backends": [
                {
                    "n": n,
                    "backend": backend,
                    "solve_ms": elapsed,
                    "max_error": error,
                }
                for n, backend, elapsed, _, error in backend_rows
            ],
            "batch": batch_stats,
            "tolerance_ladder": ladder_stats,
        },
        echo=echo_json,
    )

    ok = True
    # The wall-clock margin on a single-core runner comes from warm-start
    # seeding alone (~1.1x) and sits inside shared-CI timing noise, so
    # smoke mode gates on the deterministic matvec reduction plus a
    # no-clear-regression wall-clock bound; full mode requires the strict
    # wall-clock win.
    floor = 0.85 if smoke else BATCH_FLOOR
    for stats in batch_stats:
        if stats["speedup"] <= floor:
            print(
                f"FAIL: batch backend not faster at n={stats['n']} "
                f"({stats['batch_s']:.3f}s vs {stats['sequential_s']:.3f}s)"
            )
            ok = False
        if stats["batch_matvecs"] >= stats["sequential_matvecs"]:
            print(
                f"FAIL: batch seeding saved no matvecs at n={stats['n']} "
                f"({stats['batch_matvecs']} vs {stats['sequential_matvecs']})"
            )
            ok = False
        if stats["max_error"] > 1e-8:
            print(
                f"FAIL: batch/sequential eigenvalue mismatch "
                f"{stats['max_error']:.2e} at n={stats['n']}"
            )
            ok = False
    # Every single-solve backend runs at its default (machine) precision,
    # so it must match the dense reference far below any tolerance the
    # objective could notice.  Above DENSE_LIMIT the reference is lanczos
    # itself and the row reads 0.
    for n, name_, elapsed, _, error in backend_rows:
        if error is not None and error > BACKEND_MAX_ERROR:
            print(f"FAIL: backend {name_} off by {error:.2e} at n={n}")
            ok = False
    # Ladder gates are deterministic (solver-iteration counts, not wall
    # clock), so they hold in smoke mode too.
    for stats in ladder_stats:
        if stats["ladder_matvecs"] >= stats["fixed_matvecs"]:
            print(
                f"FAIL: tolerance ladder saved no matvecs on "
                f"{stats['backend']} ({stats['ladder_matvecs']} vs "
                f"{stats['fixed_matvecs']})"
            )
            ok = False
        if stats["delta_w"] > LADDER_DELTA_W:
            print(
                f"FAIL: ladder moved w* by {stats['delta_w']:.2e} on "
                f"{stats['backend']} (allowed {LADDER_DELTA_W:.0e})"
            )
            ok = False
    return ok


def test_solvers(benchmark, capsys):
    assert benchmark.pedantic(run, args=(False, capsys), rounds=1, iterations=1)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    echo_json = "--json" in sys.argv
    sys.exit(0 if run(smoke=smoke, echo_json=echo_json) else 1)
