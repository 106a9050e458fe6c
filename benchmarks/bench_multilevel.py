"""Multilevel SGLA benchmark: the ladder vs the flat path (DESIGN.md §12).

Two gated claims, each measured in a **fresh subprocess** so the
peak-RSS baselines are the bare interpreter (``ru_maxrss`` is a
process-lifetime high-water mark — see :mod:`repro.analysis.memory`):

* **mid-scale speed + agreement** (n=200k full / n=20k smoke): on one
  shared set of view Laplacians, the multilevel fit must be >= 3x
  faster than the flat trust-linear search (1.5x in smoke, where
  constant overheads weigh more), the refined ``w*`` must sit within
  1e-3 (inf-norm) of the flat optimum, and spectral clustering from
  the two integrated Laplacians must land within 0.02 ARI of each
  other against the planted truth.
* **million-node memory budget** (n=10^6, full mode only): the
  multilevel fit — out-of-core memmap dataset, streaming Laplacian
  assembly, landmark ladder — must *complete* inside a hard
  ``RLIMIT_AS`` address-space budget that the flat path *exceeds*
  (the flat subprocess must die with ``MemoryError`` building its
  full-size fast-path stack / search state under the same limit).
  This is a real kill, not a soft watermark: both children run under
  ``resource.setrlimit``.  Smoke mode runs only the multilevel child
  (at n=50k, generous budget) to exercise the subprocess + rlimit
  machinery within CI time.

The datasets are out-of-core end to end: ``generate_mvag_memmap``
streams generator output to disk (bit-identical to the in-RAM
generator), and every phase opens the memmap directory read-only.

Runs as a plain script (``--smoke`` for the CI leg, ``--json`` to echo
the machine-readable results always written under
``benchmarks/results/``).  The ``--phase`` flag is internal: the parent
re-invokes this file once per phase with ``--out``/``--budget-mb``.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
import time
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from harness import emit, emit_json, format_table

K = 5
KNN_K = 10
SEED = 0
EPS = 1e-4

FULL_MID_N = 200_000
SMOKE_MID_N = 20_000
FULL_BIG_N = 1_000_000
SMOKE_BIG_N = 50_000

#: RLIMIT_AS for the million-node phases, in MB.  Calibrated between
#: the measured peaks at n=10^6: the multilevel child (hierarchy +
#: 8 refine solves) never exceeds the shared Laplacian build's
#: ~3.3 GB high-water, while the flat child's union-stack build pushes
#: past 3.9 GB before its first eigensolve.  The smoke budget only
#: needs to admit the small multilevel child.
FULL_BUDGET_MB = 3_800
SMOKE_BUDGET_MB = 2_048

SPEEDUP_FLOOR_FULL = 3.0
SPEEDUP_FLOOR_SMOKE = 1.5
W_AGREEMENT_INF = 1e-3
ARI_MARGIN = 0.02

#: ladder configuration of every multilevel run in this bench: landmark
#: coarsening shrinks ~4x per rung, so the hierarchy build stays a few
#: percent of the fit even at n=10^6 (DESIGN.md §12).
COARSEN_KWARGS = dict(coarsen_levels=10)


def _generate(path: Path, n: int):
    from repro.datasets.generator import generate_mvag_memmap

    data = generate_mvag_memmap(
        path,
        n_nodes=n,
        n_clusters=K,
        graph_view_strengths=(0.7, 0.4),
        attribute_view_dims=(32,),
        attribute_view_signals=(0.6,),
        avg_degree=10.0,
        seed=SEED,
    )
    data.close()
    return path


def _build_laplacians(dataset: Path):
    from repro.core.laplacian import build_view_laplacians
    from repro.datasets.io import open_mvag_memmap

    data = open_mvag_memmap(dataset)
    laplacians = build_view_laplacians(
        data, knn_k=KNN_K, knn_backend="rp-forest"
    )
    return data, laplacians


def _flat_config():
    from repro.core.sgla import SGLAConfig

    return SGLAConfig(eps=EPS, seed=SEED)


def _multilevel_config():
    from repro.core.sgla import SGLAConfig

    return SGLAConfig(eps=EPS, seed=SEED, **COARSEN_KWARGS)


# --------------------------------------------------------------------- #
# Phases (each runs in its own subprocess; prints one JSON line)
# --------------------------------------------------------------------- #


def phase_midscale(dataset: Path) -> dict:
    """Flat vs multilevel on one shared Laplacian set: time, w*, ARI."""
    from repro.analysis.memory import MemoryTracker, peak_rss_mb
    from repro.cluster.spectral import spectral_clustering
    from repro.core.sgla import SGLA
    from repro.evaluation.clustering_metrics import clustering_report

    data, laplacians = _build_laplacians(dataset)
    with MemoryTracker(label="midscale") as tracker:
        start = time.perf_counter()
        multi = SGLA(_multilevel_config()).fit(laplacians, k=K)
        multi_seconds = time.perf_counter() - start
        tracker.check("multilevel")

        start = time.perf_counter()
        flat = SGLA(_flat_config()).fit(laplacians, k=K)
        flat_seconds = time.perf_counter() - start
        tracker.check("flat")

    truth = data.labels
    ari = {}
    for name, result in (("multilevel", multi), ("flat", flat)):
        labels = spectral_clustering(result.laplacian, k=K, seed=SEED)
        ari[name] = clustering_report(truth, labels)["ari"]

    return {
        "phase": "midscale",
        "n": data.n_nodes,
        "flat_seconds": flat_seconds,
        "multilevel_seconds": multi_seconds,
        "speedup": flat_seconds / max(multi_seconds, 1e-12),
        "flat_weights": flat.weights.tolist(),
        "multilevel_weights": multi.weights.tolist(),
        "w_agreement_inf": float(
            np.abs(flat.weights - multi.weights).max()
        ),
        "flat_objective": flat.objective_value,
        "multilevel_objective": multi.objective_value,
        "flat_evaluations": flat.n_objective_evaluations,
        "refine_evaluations": multi.coarsen_stats.refine_evaluations,
        "coarsen_summary": multi.coarsen_stats.summary(),
        "ari_flat": ari["flat"],
        "ari_multilevel": ari["multilevel"],
        "ari_gap": abs(ari["flat"] - ari["multilevel"]),
        "peak_rss_mb": peak_rss_mb(),
        "memory": tracker.report(),
    }


def phase_bigfit(dataset: Path, flat: bool, budget_mb: float) -> dict:
    """One fit under the address-space budget (already rlimited).

    The multilevel child must finish; the flat child is *expected* to
    die with ``MemoryError`` in full mode — which it reports as a
    result, not a crash.
    """
    from repro.analysis.memory import MemoryTracker, peak_rss_mb
    from repro.core.sgla import SGLA

    mode = "flat" if flat else "multilevel"
    try:
        data, laplacians = _build_laplacians(dataset)
        config = _flat_config() if flat else _multilevel_config()
        with MemoryTracker(label=f"bigfit-{mode}") as tracker:
            start = time.perf_counter()
            result = SGLA(config).fit(laplacians, k=K)
            fit_seconds = time.perf_counter() - start
            tracker.check("fit")
    except MemoryError:
        return {
            "phase": f"bigfit-{mode}",
            "completed": False,
            "memory_error": True,
            "budget_mb": budget_mb,
            "peak_rss_mb": peak_rss_mb(),
        }
    report = {
        "phase": f"bigfit-{mode}",
        "completed": True,
        "memory_error": False,
        "budget_mb": budget_mb,
        "n": data.n_nodes,
        "fit_seconds": fit_seconds,
        "weights": result.weights.tolist(),
        "objective": result.objective_value,
        "peak_rss_mb": peak_rss_mb(),
        "memory": tracker.report(),
    }
    if result.coarsen_stats is not None:
        report["coarsen_summary"] = result.coarsen_stats.summary()
        report["refine_evaluations"] = (
            result.coarsen_stats.refine_evaluations
        )
    return report


def _run_phase(
    phase: str, dataset: Path, budget_mb: float = 0.0,
    timeout: float = 3600.0,
) -> dict:
    """Re-invoke this script for one phase in a fresh subprocess."""
    with tempfile.NamedTemporaryFile(suffix=".json") as handle:
        out = handle.name
        argv = [
            sys.executable, str(Path(__file__).resolve()),
            "--phase", phase, "--dataset", str(dataset), "--out", out,
        ]
        if budget_mb:
            argv += ["--budget-mb", str(budget_mb)]
        try:
            proc = subprocess.run(
                argv, capture_output=True, text=True, timeout=timeout
            )
        except subprocess.TimeoutExpired:
            return {
                "phase": phase,
                "completed": False,
                "memory_error": False,
                "timed_out": True,
                "budget_mb": budget_mb,
                "child_exit_code": None,
            }
        payload = Path(out).read_text().strip()
    if payload:
        report = json.loads(payload)
    else:
        # The child died before it could report (e.g. the rlimit killed
        # it outside the guarded region) — that still answers the
        # budget question for the flat phase.
        report = {
            "phase": phase,
            "completed": False,
            "memory_error": "MemoryError" in proc.stderr,
            "budget_mb": budget_mb,
            "exit_code": proc.returncode,
        }
    report["child_exit_code"] = proc.returncode
    return report


# --------------------------------------------------------------------- #
# Driver
# --------------------------------------------------------------------- #


def run(smoke: bool = False, capsys=None, echo_json: bool = False) -> bool:
    mid_n = SMOKE_MID_N if smoke else FULL_MID_N
    big_n = SMOKE_BIG_N if smoke else FULL_BIG_N
    budget_mb = SMOKE_BUDGET_MB if smoke else FULL_BUDGET_MB
    speedup_floor = SPEEDUP_FLOOR_SMOKE if smoke else SPEEDUP_FLOOR_FULL

    with tempfile.TemporaryDirectory() as tmp:
        tmp_path = Path(tmp)
        midscale = _run_phase(
            "midscale", _generate(tmp_path / "mid", mid_n)
        )
        big_dataset = _generate(tmp_path / "big", big_n)
        big_multi = _run_phase(
            "bigfit-multilevel", big_dataset, budget_mb=budget_mb
        )
        big_flat = (
            _run_phase("bigfit-flat", big_dataset, budget_mb=budget_mb)
            if not smoke
            else None
        )

    gates = {
        "speedup_floor": speedup_floor,
        "speedup_ok": midscale.get("speedup", 0.0) >= speedup_floor,
        "w_agreement_limit": W_AGREEMENT_INF,
        "w_agreement_ok": (
            midscale.get("w_agreement_inf", np.inf) <= W_AGREEMENT_INF
        ),
        "ari_margin": ARI_MARGIN,
        "ari_ok": midscale.get("ari_gap", np.inf) <= ARI_MARGIN,
        "budget_mb": budget_mb,
        "multilevel_in_budget": bool(big_multi.get("completed")),
        "flat_exceeds_budget": (
            None if big_flat is None
            else bool(not big_flat.get("completed"))
        ),
    }

    rows = [
        (
            "midscale flat", midscale["n"],
            f"{midscale['flat_seconds']:.1f}",
            f"{midscale['flat_evaluations']} evals",
            f"ARI {midscale['ari_flat']:.3f}",
        ),
        (
            "midscale multilevel", midscale["n"],
            f"{midscale['multilevel_seconds']:.1f}",
            f"{midscale['refine_evaluations']} fine evals",
            f"ARI {midscale['ari_multilevel']:.3f}",
        ),
        (
            "big multilevel", big_multi.get("n", big_n),
            f"{big_multi.get('fit_seconds', float('nan')):.1f}",
            f"peak {big_multi.get('peak_rss_mb', float('nan')):.0f} MB",
            "completed" if big_multi.get("completed") else "FAILED",
        ),
    ]
    if big_flat is not None:
        rows.append(
            (
                "big flat", big_n,
                "-",
                f"budget {budget_mb} MB",
                "MemoryError (expected)"
                if not big_flat.get("completed")
                else "COMPLETED (gate broken)",
            )
        )
    table = format_table(
        ["phase", "n", "seconds", "work", "outcome"],
        rows,
        title=(
            f"Multilevel SGLA vs flat ({'smoke' if smoke else 'full'}: "
            f"midscale n={mid_n}, big n={big_n}, "
            f"RLIMIT_AS {budget_mb} MB)"
        ),
    )
    verdict = (
        f"\nmidscale: {midscale['speedup']:.2f}x speedup "
        f"(floor {speedup_floor}x), |dw*|_inf "
        f"{midscale['w_agreement_inf']:.2e} (limit {W_AGREEMENT_INF}), "
        f"ARI gap {midscale['ari_gap']:.4f} (limit {ARI_MARGIN})\n"
        f"ladder: {midscale['coarsen_summary']}"
    )

    name = "multilevel" + ("_smoke" if smoke else "")
    emit(name, table + verdict, capsys)
    payload = {
        "mode": "smoke" if smoke else "full",
        "config": {
            "k": K,
            "knn_k": KNN_K,
            "eps": EPS,
            "seed": SEED,
            "coarsen": {
                key: value for key, value in COARSEN_KWARGS.items()
            },
        },
        "gates": gates,
        "midscale": midscale,
        "big_multilevel": big_multi,
    }
    if big_flat is not None:
        payload["big_flat"] = big_flat
    emit_json(name, payload, echo=echo_json)

    ok = True
    for gate, passed in (
        ("midscale speedup", gates["speedup_ok"]),
        ("w* agreement", gates["w_agreement_ok"]),
        ("ARI margin", gates["ari_ok"]),
        ("multilevel within memory budget", gates["multilevel_in_budget"]),
    ):
        if not passed:
            print(f"FAIL: {gate} gate")
            ok = False
    if big_flat is not None and gates["flat_exceeds_budget"] is False:
        print(
            "FAIL: flat path completed inside the memory budget — "
            "the out-of-core claim needs a tighter budget"
        )
        ok = False
    return ok


def test_multilevel_bench(benchmark, capsys):
    assert benchmark.pedantic(
        run, args=(False, capsys), rounds=1, iterations=1
    )


def _main(argv) -> int:
    if "--phase" in argv:
        phase = argv[argv.index("--phase") + 1]
        dataset = Path(argv[argv.index("--dataset") + 1])
        out = Path(argv[argv.index("--out") + 1])
        budget_mb = 0.0
        if "--budget-mb" in argv:
            budget_mb = float(argv[argv.index("--budget-mb") + 1])
            import resource

            limit = int(budget_mb * 1024 * 1024)
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))
        if phase == "midscale":
            report = phase_midscale(dataset)
        elif phase == "bigfit-multilevel":
            report = phase_bigfit(dataset, flat=False, budget_mb=budget_mb)
        elif phase == "bigfit-flat":
            report = phase_bigfit(dataset, flat=True, budget_mb=budget_mb)
        else:
            raise SystemExit(f"unknown phase {phase!r}")
        out.write_text(json.dumps(report))
        return 0
    return 0 if run(
        smoke="--smoke" in argv, echo_json="--json" in argv
    ) else 1


if __name__ == "__main__":
    sys.exit(_main(sys.argv[1:]))
