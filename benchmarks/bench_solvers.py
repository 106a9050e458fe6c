"""Spectral-solver backend benchmark (DESIGN.md §7–8).

Compares the two backends — dense / lanczos — on aggregated MVAG
Laplacians at several sizes, measures their **crossover** (the table
behind ``resolve_method``'s ``auto`` rule, DESIGN.md §7), and measures
the adaptive-precision **tolerance ladder** on ``lanczos`` (SGLA
end-to-end: trust-radius-driven eigensolve tolerances versus
fixed-tolerance solves — same ``w*``, fewer matvecs).

The crossover section times each backend forced on the two workloads
the rule separates: a warm ``SGLA.fit`` on prebuilt view Laplacians (the
``t = k + 1`` optimizer loop) and one cold ``bottom_eigenpairs`` at large
``t`` (the embedding stage's rank-64/128/256 solves).  Each row prints
both times, the faster backend and ``auto``'s pick.  Every row's
eigenvalues must match dense to ``BACKEND_MAX_ERROR``; full mode also
requires ``auto`` to pick the faster backend wherever the two differ by
at least ``PICK_MARGIN``.  Smoke mode (CI) runs three rows and has no
timing gate.  The ladder win is deterministic (it removes solver
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
from functools import lru_cache
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from harness import emit, emit_json, format_table
from repro.core.laplacian import aggregate_laplacians, build_view_laplacians
from repro.core.sgla import SGLA, SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.datasets.profiles import dataset_profile
from repro.solvers import (
    EigenProblem,
    bottom_eigenvalues,
    get_backend,
    resolve_method,
)

#: full-mode gate — ``auto`` must pick the faster backend wherever the
#: slower one takes at least this many times as long.
PICK_MARGIN = 1.3

#: crossover rows: (recipe, n) warm SGLA fits, (recipe, n, t) cold solves.
LOOP_ROWS = [("mag_phy_small", n) for n in (200, 300, 400, 600)]
WIDE_ROWS = [
    ("amazon_photos", n, t) for n in (1500, 3000) for t in (64, 128, 256)
]
SMOKE_LOOP_ROWS = [("mag_phy_small", 200), ("mag_phy_small", 400)]
SMOKE_WIDE_ROWS = [("amazon_photos", 1500, 128)]

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


@lru_cache(maxsize=None)
def _recipe_laplacians(profile, n, seed=0):
    """View Laplacians of a profile's recipe regenerated at ``n`` nodes
    (cached: the cold rows share one operand per size)."""
    recipe = dataset_profile(profile)
    mvag = generate_mvag(
        n_nodes=n,
        n_clusters=recipe.k,
        graph_view_strengths=recipe.graph_views,
        attribute_view_dims=recipe.attribute_views,
        balance=recipe.balance,
        seed=seed,
    )
    return build_view_laplacians(mvag, knn_k=recipe.knn_k), recipe.k


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


def _crossover_row(kind, profile, n, t, times, error):
    dense_s, lanczos_s = times["dense"], times["lanczos"]
    faster = "dense" if dense_s <= lanczos_s else "lanczos"
    return {
        "kind": kind,
        "recipe": profile,
        "n": n,
        "t": t,
        "dense_s": dense_s,
        "lanczos_s": lanczos_s,
        "faster": faster,
        "ratio": max(dense_s, lanczos_s) / max(min(dense_s, lanczos_s), 1e-12),
        "auto": resolve_method(n, t, "auto"),
        "max_error": error,
    }


def bench_crossover_loop(rows, seed=0):
    """Warm ``SGLA.fit`` on prebuilt view Laplacians, each backend forced.

    The eigenvalue check solves the dense fit's ``L(w*)`` on Lanczos.
    """
    out = []
    for profile, n in rows:
        laplacians, k = _recipe_laplacians(profile, n, seed=seed)
        times, fits = {}, {}
        for backend in ("dense", "lanczos"):
            config = SGLAConfig(seed=seed, eigen_backend=backend)
            fits[backend] = SGLA(config).fit(laplacians, k=k)
            times[backend] = _best_of(
                lambda: SGLA(config).fit(laplacians, k=k)
            )
        laplacian = fits["dense"].laplacian
        reference = bottom_eigenvalues(laplacian, k + 1, method="dense")
        values = bottom_eigenvalues(
            laplacian, k + 1, method="lanczos", seed=seed
        )
        error = float(np.max(np.abs(values - reference)))
        out.append(_crossover_row("loop", profile, n, k + 1, times, error))
    return out


def bench_crossover_wide(rows, seed=0):
    """One cold large-``t`` solve of ``L(uniform)``, each backend forced."""
    out = []
    for profile, n, t in rows:
        laplacians, _ = _recipe_laplacians(profile, n, seed=seed)
        weights = np.full(len(laplacians), 1.0 / len(laplacians))
        laplacian = aggregate_laplacians(laplacians, weights)
        times, values = {}, {}
        for backend in ("dense", "lanczos"):
            solver = get_backend(backend)
            problem = EigenProblem(laplacian, t, seed=seed)
            values[backend] = solver.solve(problem).values
            times[backend] = _best_of(lambda: solver.solve(problem))
        error = float(np.max(np.abs(values["lanczos"] - values["dense"])))
        out.append(_crossover_row("cold", profile, n, t, times, error))
    return out


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

    crossover = bench_crossover_loop(
        SMOKE_LOOP_ROWS if smoke else LOOP_ROWS
    ) + bench_crossover_wide(SMOKE_WIDE_ROWS if smoke else WIDE_ROWS)
    crossover_table = format_table(
        ["solve", "recipe", "n", "t", "dense (s)", "lanczos (s)", "faster",
         "ratio", "auto", "max |dλ|"],
        [
            (
                "warm SGLA.fit" if c["kind"] == "loop" else "cold",
                c["recipe"], c["n"], c["t"], c["dense_s"], c["lanczos_s"],
                c["faster"], f"{c['ratio']:.2f}x", c["auto"],
                f"{c['max_error']:.1e}",
            )
            for c in crossover
        ],
        title="\ndense/lanczos crossover (best of 3; auto = resolve_method)",
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
        backend_table + "\n" + crossover_table + "\n" + ladder_table,
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
            "crossover": crossover,
            "tolerance_ladder": ladder_stats,
        },
        echo=echo_json,
    )

    ok = True
    for c in crossover:
        if c["max_error"] > BACKEND_MAX_ERROR:
            print(
                f"FAIL: lanczos off dense by {c['max_error']:.2e} on the "
                f"{c['kind']} row n={c['n']} t={c['t']}"
            )
            ok = False
        # Timing is gated in full mode only: smoke runs on shared CI.
        mispicked = c["ratio"] >= PICK_MARGIN and c["auto"] != c["faster"]
        if mispicked and not smoke:
            print(
                f"FAIL: auto picks {c['auto']} at n={c['n']} t={c['t']}, "
                f"but {c['faster']} is {c['ratio']:.2f}x faster"
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
