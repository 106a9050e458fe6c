"""Chaos benchmark: the resilience subsystem under injected faults and
killed pool processes (DESIGN.md §11).

Drives full SGLA+ runs through the process-pool shard context and gates
on the subsystem's core promise:

* **process-chaos** — a seeded :class:`repro.shard.FaultPlan` injects
  crash / slow / corrupt / drop faults at a combined ~25% task rate;
* **killed-pool** — after one healthy dispatch every pool process is
  SIGKILLed (what the OOM killer or an operator's ``kill`` does), and
  the next run goes through the same context.

Each leg must be **bit-identical** (``w*`` and labels equal the
fault-free run exactly: failure handling is invisible in the output)
and **complete cleanly** (every fault absorbed by retry / re-dispatch
onto a freshly forked pool, ``failures == 0``), and its faults must
demonstrably fire (``retries >= 1``).

Runs as a plain script (``--smoke`` for the CI leg, ``--json`` to echo
the machine-readable results always written under
``benchmarks/results/``).
"""

from __future__ import annotations

import os
import sys
import time
from pathlib import Path

# Importable both under pytest (benchmarks/conftest.py) and as a script.
sys.path.insert(0, str(Path(__file__).parent))
sys.path.insert(0, str(Path(__file__).parent.parent / "src"))

import numpy as np

from harness import emit, emit_json, format_table, kill_pool
from repro.core.laplacian import build_view_laplacians
from repro.core.pipeline import cluster_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.generator import generate_mvag
from repro.shard import FaultPlan, ShardContext

FULL_N = 4_000
SMOKE_N = 800
SHARD_WORKERS = 2

#: combined 25% fault rate across every injectable kind.
CHAOS_PLAN = FaultPlan(
    seed=2,
    crash_rate=0.10,
    slow_rate=0.05,
    corrupt_rate=0.05,
    drop_rate=0.05,
    slow_seconds=0.01,
)


def bench_mvag(n: int, seed: int = 0):
    return generate_mvag(
        n_nodes=n,
        n_clusters=3,
        graph_view_strengths=[0.85],
        attribute_view_dims=[48, 32],
        attribute_view_signals=[0.8, 0.7],
        seed=seed,
    )


def _leg(section: str, mvag, reference, shard: ShardContext, before=None):
    """One SGLA+ run through ``shard``, gated on identity and recovery."""
    start = time.perf_counter()
    row = {"section": section}
    with shard:
        if before is not None:
            row.update(before(shard))
        try:
            output = cluster_mvag(
                mvag, method="sgla+", config=SGLAConfig(), shard=shard
            )
        except Exception as error:  # the leg fails, the bench reports
            output = None
            row["error"] = f"{type(error).__name__}: {error}"
        stats = shard.stats
    row.update({
        "seconds": time.perf_counter() - start,
        "bit_identical": output is not None and bool(
            np.array_equal(
                output.integration.weights, reference.integration.weights
            )
            and np.array_equal(output.labels, reference.labels)
        ),
        "completed_clean": output is not None and stats.failures == 0,
        "faults_fired": stats.retries >= 1,
        "retries": stats.retries,
        "redispatches": stats.redispatches,
        "stats_line": stats.summary(),
    })
    return row


def bench_process_chaos(mvag, reference) -> dict:
    """A full SGLA+ run under the seeded fault plan."""
    shard = ShardContext(
        workers=SHARD_WORKERS, min_items=0, min_bytes=0, timeout=120.0,
        fault_plan=CHAOS_PLAN,
    )
    return _leg("process-chaos", mvag, reference, shard)


def bench_killed_pool(mvag, reference) -> dict:
    """Kill every pool process between dispatches, then run SGLA+."""

    def healthy_dispatch_then_kill(shard: ShardContext) -> dict:
        healthy = build_view_laplacians(mvag, knn_k=10, shard=shard)
        return {
            "healthy_views": len(healthy),
            "killed_processes": kill_pool(shard),
        }

    shard = ShardContext(
        workers=SHARD_WORKERS, min_items=0, min_bytes=0, timeout=120.0
    )
    return _leg(
        "killed-pool", mvag, reference, shard,
        before=healthy_dispatch_then_kill,
    )


def run(smoke: bool = False, capsys=None, echo_json: bool = False) -> bool:
    n = SMOKE_N if smoke else FULL_N
    host_cpus = os.cpu_count() or 1
    mvag = bench_mvag(n)

    with ShardContext(
        workers=SHARD_WORKERS, min_items=0, min_bytes=0
    ) as shard:
        reference = cluster_mvag(
            mvag, method="sgla+", config=SGLAConfig(), shard=shard
        )

    sections = [
        bench_process_chaos(mvag, reference),
        bench_killed_pool(mvag, reference),
    ]

    table = format_table(
        ["section", "seconds", "bit-identical", "clean", "detail"],
        [
            (
                row["section"],
                row["seconds"],
                "yes" if row["bit_identical"] else "NO",
                "yes" if row["completed_clean"] else "NO",
                row.get(
                    "error",
                    f"{row['retries']} retries/"
                    f"{row['redispatches']} redispatched",
                ),
            )
            for row in sections
        ],
        title=(
            f"Chaos gate: SGLA+ under {CHAOS_PLAN.describe()} and a "
            f"killed pool (n={n}, shard_workers={SHARD_WORKERS}, "
            f"host cores={host_cpus})"
        ),
    )

    name = "chaos" + ("_smoke" if smoke else "")
    emit(name, table, capsys)
    payload = {
        "mode": "smoke" if smoke else "full",
        "host": {"cpu_count": host_cpus},
        "config": {
            "n": n,
            "shard_workers": SHARD_WORKERS,
            "fault_plan": CHAOS_PLAN.describe(),
            "total_fault_rate": CHAOS_PLAN.total_rate,
        },
        "gates": {
            "bit_identity": True,
            "completion_without_failure": True,
            "faults_fired": True,
        },
        "sections": sections,
    }
    emit_json(name, payload, echo=echo_json)

    ok = True
    for row in sections:
        if not row["bit_identical"]:
            print(f"FAIL: {row['section']} output not bit-identical")
            ok = False
        if not row["completed_clean"]:
            print(f"FAIL: {row['section']} did not complete cleanly"
                  + (f" ({row['error']})" if "error" in row else ""))
            ok = False
        if not row["faults_fired"]:
            print(f"FAIL: {row['section']} needed no retry (dead gate)")
            ok = False
    return ok


def test_chaos(benchmark, capsys):
    assert benchmark.pedantic(
        run, args=(False, capsys), rounds=1, iterations=1
    )


if __name__ == "__main__":
    smoke = "--smoke" in sys.argv
    echo_json = "--json" in sys.argv
    sys.exit(0 if run(smoke=smoke, echo_json=echo_json) else 1)
