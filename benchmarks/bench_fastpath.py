"""Fast-path benchmark — per-evaluation aggregation and batched sweeps.

Measures the objective fast path (DESIGN.md §6):

1. **Aggregation**: ``aggregate_laplacians`` (a fresh sparse sum per
   evaluation) versus ``StackedLaplacians.combine`` (one GEMV into a
   preallocated CSR).  Acceptance floor: >= 3x at r >= 4, n >= 5000.
2. **Batched surface**: the eigensolve-count accounting of the batched
   ``objective_surface`` (a re-sweep must be served from the cache).

Runs as a pytest benchmark (``pytest benchmarks/bench_fastpath.py``) or as
a plain script; ``python benchmarks/bench_fastpath.py --smoke`` executes a
reduced matrix suitable as a CI perf smoke check (exits nonzero if the
aggregation floor is missed).  Results are written under
``benchmarks/results/`` as both ``.txt`` tables and machine-readable
``.json`` (``--json`` echoes the JSON to stdout).
"""

from __future__ import annotations

import sys
import time
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np
import scipy.sparse as sp

from harness import emit, emit_json, format_table
from repro.core.fastpath import StackedLaplacians
from repro.core.laplacian import aggregate_laplacians, normalized_laplacian
from repro.core.objective import SpectralObjective, objective_surface
from repro.datasets.generator import generate_mvag

AGGREGATION_FLOOR = 3.0  # acceptance: stacked must beat legacy by >= 3x


def _random_laplacians(n, r, avg_degree=12, seed=0):
    rng = np.random.default_rng(seed)
    laplacians = []
    for _ in range(r):
        raw = sp.random(
            n, n, density=avg_degree / n, random_state=rng.integers(1 << 30)
        )
        raw = raw.maximum(raw.T)
        raw.setdiag(0)
        laplacians.append(normalized_laplacian(raw.tocsr()))
    return laplacians


def _simplex_points(r, count, seed=0):
    rng = np.random.default_rng(seed)
    points = rng.random((count, r))
    return points / points.sum(axis=1, keepdims=True)


def _time_per_call(func, points, min_repeats=3):
    start = time.perf_counter()
    repeats = 0
    while repeats < min_repeats or time.perf_counter() - start < 0.2:
        for weights in points:
            func(weights)
        repeats += 1
    return (time.perf_counter() - start) / (repeats * len(points))


def bench_aggregation(sizes, r=4, seed=0):
    """Per-evaluation L(w) build: legacy sparse adds vs stacked GEMV."""
    rows = []
    points = _simplex_points(r, 16, seed=seed)
    for n in sizes:
        laplacians = _random_laplacians(n, r, seed=seed)
        stack = StackedLaplacians(laplacians)
        legacy = _time_per_call(
            lambda w: aggregate_laplacians(laplacians, w), points
        )
        fast = _time_per_call(stack.combine, points)
        rows.append((n, r, legacy * 1e3, fast * 1e3, legacy / fast))
    return rows


def bench_surface(n=800, seed=0):
    """Batched surface sweep: eigensolves performed vs naive point count."""
    mvag = generate_mvag(
        n_nodes=n,
        n_clusters=3,
        graph_view_strengths=[0.8, 0.3],
        seed=seed,
    )
    from repro.core.laplacian import build_view_laplacians

    laplacians = build_view_laplacians(mvag)[:2]
    objective = SpectralObjective(laplacians, k=3)
    start = time.perf_counter()
    surface = objective_surface(objective, resolution=0.1)
    elapsed = time.perf_counter() - start
    # Sweep again: every point is now cached, zero new eigensolves.
    resweep = objective_surface(objective, resolution=0.1)
    return {
        "points": len(surface["points"]),
        "first_solves": surface["n_eigensolves"],
        "first_saved": surface["n_eigensolves_saved"],
        "resweep_solves": resweep["n_eigensolves"],
        "seconds": elapsed,
    }


def run(smoke: bool = False, capsys=None, echo_json: bool = False) -> bool:
    """Run the benchmark matrix; returns True when all floors are met."""
    agg_sizes = [5000] if smoke else [2000, 5000, 10000, 20000]
    agg_rows = bench_aggregation(agg_sizes, r=4)
    agg_table = format_table(
        ["n", "r", "legacy (ms)", "stacked (ms)", "speedup"],
        agg_rows,
        title="per-evaluation aggregation: r sparse adds vs one GEMV",
    )

    surface_stats = bench_surface(n=700 if smoke else 1500)
    surface_text = (
        "\nbatched objective_surface: "
        f"{surface_stats['points']} grid points, "
        f"{surface_stats['first_solves']} eigensolves on first sweep "
        f"({surface_stats['first_saved']} saved), "
        f"{surface_stats['resweep_solves']} on re-sweep, "
        f"{surface_stats['seconds']:.2f}s"
    )

    name = "fastpath" + ("_smoke" if smoke else "")
    emit(name, agg_table + surface_text, capsys)
    emit_json(
        name,
        {
            "mode": "smoke" if smoke else "full",
            "aggregation": [
                {
                    "n": n,
                    "r": r,
                    "legacy_ms": legacy,
                    "stacked_ms": fast,
                    "speedup": speedup,
                }
                for n, r, legacy, fast, speedup in agg_rows
            ],
            "surface": surface_stats,
        },
        echo=echo_json,
    )

    ok = True
    for n, r, _, _, speedup in agg_rows:
        if n >= 5000 and r >= 4 and speedup < AGGREGATION_FLOOR:
            print(
                f"FAIL: aggregation speedup {speedup:.2f}x at n={n}, r={r} "
                f"below the {AGGREGATION_FLOOR}x floor"
            )
            ok = False
    if surface_stats["resweep_solves"] != 0:
        print("FAIL: surface re-sweep performed eigensolves despite cache")
        ok = False
    return ok


def test_fastpath(benchmark, capsys):
    assert benchmark.pedantic(run, args=(False, capsys), rounds=1, iterations=1)


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    echo_json = "--json" in sys.argv
    sys.exit(0 if run(smoke=smoke, echo_json=echo_json) else 1)
