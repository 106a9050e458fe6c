"""Out-of-program span tracing for the benchmark's traced runs.

The tracer wraps each layer's public entry point *at the name the
program calls it by* (a module global or a class attribute), so no file
of the program changes.  Each wrapper records one span — name, start,
end, parent span, job id — in memory; counter hooks on the layers'
stats classes record exact work counts at the same boundaries.  The
wrappers are in place only while a traced job runs, so untraced jobs
run the program as it is.  Spans are written out when the run ends.

A span's self time is its duration minus the durations of its direct
children.  Every traced job runs inside a root ``job`` span whose self
time is the part of the job no layer span covers
(``trace.unattributed_s``), so per job the layer self times plus the
unattributed time add up to the job's wall time exactly.
"""

from __future__ import annotations

import json
import threading
import time
from collections import defaultdict
from typing import Any, Callable, Dict, List

#: span name -> per-layer self-time metric.  Solver spans are split by
#: their nearest non-solver ancestor (see :func:`_solver_metric`).
_SELF_METRICS = {
    "datasets.generate": "datasets.generate_s",
    "laplacian.build": "laplacian.build_self_s",
    "neighbors.knn": "neighbors.knn_s",
    "fastpath.stack": "fastpath.stack_s",
    "fastpath.combine": "fastpath.combine_s",
    "optim.minimize": "optim.self_s",
    "core.fit": "optim.self_s",
    "cluster.spectral": "cluster.assign_self_s",
    "embedding.factor": "embedding.factor_self_s",
    "job": "trace.unattributed_s",
}

#: every self-time metric a layer table reports, in pipeline order.
LAYER_TIMES = (
    "datasets.generate_s",
    "laplacian.build_self_s",
    "neighbors.knn_s",
    "fastpath.stack_s",
    "fastpath.combine_s",
    "optim.self_s",
    "solvers.loop_solve_s",
    "solvers.final_solve_s",
    "cluster.assign_self_s",
    "embedding.factor_self_s",
    "trace.unattributed_s",
)

#: ancestors whose eigensolves are the pipeline's final solve.
_FINAL_STAGES = ("cluster.spectral", "embedding.factor")


def layer_targets():
    """``(owner, attribute, span name)`` for every wrapped entry point.

    Imported lazily so the benchmark's parent process never imports the
    program.
    """
    import repro.cluster.spectral
    import repro.core.laplacian
    import repro.core.pipeline
    import repro.core.sgla
    import repro.core.sgla_plus
    import repro.embedding.sketchne
    import repro.serve.jobs
    from repro.core.fastpath import StackedLaplacians
    from repro.core.sgla import SGLA
    from repro.core.sgla_plus import SGLAPlus
    from repro.solvers import SolverContext

    return [
        (repro.serve.jobs, "load_profile_mvag", "datasets.generate"),
        (repro.core.sgla, "build_view_laplacians", "laplacian.build"),
        (repro.core.laplacian, "knn_graph", "neighbors.knn"),
        (StackedLaplacians, "__init__", "fastpath.stack"),
        (StackedLaplacians, "combine", "fastpath.combine"),
        (StackedLaplacians, "aggregate", "fastpath.combine"),
        (SolverContext, "eigenvalues", "solvers.solve"),
        (SolverContext, "eigenpairs", "solvers.solve"),
        (SolverContext, "solve_many", "solvers.solve"),
        (repro.cluster.spectral, "solve_bottom", "solvers.solve"),
        (repro.embedding.sketchne, "solve_bottom", "solvers.solve"),
        (repro.core.sgla, "minimize_on_simplex", "optim.minimize"),
        (repro.core.sgla_plus, "minimize_on_simplex", "optim.minimize"),
        (SGLA, "fit", "core.fit"),
        (SGLAPlus, "fit", "core.fit"),
        (repro.core.pipeline, "spectral_clustering", "cluster.spectral"),
        (repro.core.pipeline, "sketchne_embedding", "embedding.factor"),
        (repro.core.pipeline, "netmf_from_laplacian", "embedding.factor"),
    ]


class Tracer:
    """In-memory span recorder plus exact work counters, per job."""

    def __init__(self) -> None:
        #: ``[name, start, end, parent index, job id]`` per span.
        self.spans: List[list] = []
        #: job id -> counter name -> exact count.
        self.counts: Dict[Any, Dict[str, float]] = defaultdict(
            lambda: defaultdict(float)
        )
        self.job: Any = None
        self._local = threading.local()
        self._patches: List[tuple] = []

    # ------------------------------------------------------------------ #
    # Recording
    # ------------------------------------------------------------------ #

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _open(self, name: str) -> list:
        stack = self._stack()
        record = [name, time.perf_counter(), 0.0,
                  stack[-1] if stack else -1, self.job]
        stack.append(len(self.spans))
        self.spans.append(record)
        return record

    def _close(self, record: list) -> None:
        record[2] = time.perf_counter()
        self._stack().pop()

    def wrap(self, name: str, func: Callable) -> Callable:
        """``func`` recording one span named ``name`` per call."""
        def traced(*args, **kwargs):
            record = self._open(name)
            try:
                return func(*args, **kwargs)
            finally:
                self._close(record)
        traced.__wrapped__ = func
        return traced

    def run_job(self, job_id, func: Callable, *args, **kwargs):
        """Run one job under a root ``job`` span.

        The wrappers are installed for this job only, so code that runs
        outside traced jobs — the untraced jobs a traced run alternates
        with — runs the program unwrapped.
        """
        self.install()
        self.job = job_id
        record = self._open("job")
        try:
            return func(*args, **kwargs)
        finally:
            self._close(record)
            self.job = None
            self.uninstall()

    def count(self, name: str, by: float = 1) -> None:
        self.counts[self.job][name] += by

    # ------------------------------------------------------------------ #
    # Installing the wrappers
    # ------------------------------------------------------------------ #

    def _patch(self, owner, attribute: str, replacement) -> None:
        self._patches.append((owner, attribute, getattr(owner, attribute)))
        setattr(owner, attribute, replacement)

    def install(self) -> "Tracer":
        """Wrap every layer entry point and the stats counter hooks."""
        for owner, attribute, name in layer_targets():
            self._patch(owner, attribute, self.wrap(name, getattr(owner, attribute)))
        self._install_counters()
        return self

    def _install_counters(self) -> None:
        from repro.core.fastpath import StackedLaplacians
        from repro.neighbors import NeighborStats
        from repro.solvers import SolverContext, SolverStats

        tracer = self
        record = SolverStats.record
        note_saved = SolverContext.note_saved
        record_build = NeighborStats.record_build
        combine_many = StackedLaplacians.combine_many

        def counted_record(stats, result, warm, batched=False, coarse=False):
            tracer.count("solvers.solves")
            tracer.count("solvers.matvecs", result.matvecs)
            tracer.count("solvers.warm", 1 if warm else 0)
            return record(stats, result, warm, batched=batched, coarse=coarse)

        def counted_note_saved(context, count=1):
            tracer.count("solvers.saved", int(count))
            return note_saved(context, count)

        def counted_record_build(stats, backend, n, candidate_pairs):
            tracer.count("neighbors.builds")
            tracer.count("neighbors.candidate_pairs", int(candidate_pairs))
            tracer.count("neighbors.exhaustive_pairs", int(n) * (int(n) - 1))
            return record_build(stats, backend, n, candidate_pairs)

        def counted_combine_many(stack, weight_rows):
            tracer.count("fastpath.combines", len(weight_rows) - 1)
            return combine_many(stack, weight_rows)

        self._patch(SolverStats, "record", counted_record)
        self._patch(SolverContext, "note_saved", counted_note_saved)
        self._patch(NeighborStats, "record_build", counted_record_build)
        # One span per call; the rows beyond the first count here.
        self._patch(
            StackedLaplacians, "combine_many",
            self.wrap("fastpath.combine", counted_combine_many),
        )

    def uninstall(self) -> None:
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)

    # ------------------------------------------------------------------ #
    # Analysis
    # ------------------------------------------------------------------ #

    def self_times(self) -> List[float]:
        """Self time of every span (duration minus direct children)."""
        own = [end - start for _, start, end, _, _ in self.spans]
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                own[parent] -= end - start
        return own

    def job_tables(self) -> Dict[Any, Dict[str, float]]:
        """Per job: wall time, every layer's self time, exact counts."""
        own = self.self_times()
        tables: Dict[Any, Dict[str, float]] = {}
        for index, (name, start, end, parent, job) in enumerate(self.spans):
            if job is None:
                continue
            table = tables.setdefault(job, dict.fromkeys(
                LAYER_TIMES + ("core.objective_evals", "fastpath.combines"), 0
            ))
            if name == "job":
                table["wall_s"] = end - start
            if name == "solvers.solve":
                metric = self._solver_metric(index)
                if metric == "solvers.loop_solve_s" and self._outermost_solve(index):
                    table["core.objective_evals"] += 1
            else:
                metric = _SELF_METRICS[name]
                if name == "fastpath.combine":
                    table["fastpath.combines"] += 1
            table[metric] += own[index]
        for job, table in tables.items():
            self._add_counts(job, table)
        return tables

    def _solver_metric(self, index: int) -> str:
        """Loop or final solve, by the nearest non-solver ancestor: an
        eigensolve under the clustering or embedding stage is the final
        solve, every other one serves the objective loop."""
        parent = self.spans[index][3]
        while parent >= 0:
            name = self.spans[parent][0]
            if name in _FINAL_STAGES:
                return "solvers.final_solve_s"
            parent = self.spans[parent][3]
        return "solvers.loop_solve_s"

    def _outermost_solve(self, index: int) -> bool:
        """No solver span encloses this one (``solve_many`` running
        ``eigenpairs`` or ``solve_bottom`` running a context solve is
        one solve)."""
        parent = self.spans[index][3]
        while parent >= 0:
            if self.spans[parent][0] == "solvers.solve":
                return False
            parent = self.spans[parent][3]
        return True

    def _add_counts(self, job, table: Dict[str, float]) -> None:
        """The counter hooks' exact counts, and the ratios built on them."""
        counts = self.counts.get(job, {})
        solves = counts.get("solvers.solves", 0)
        exhaustive = counts.get("neighbors.exhaustive_pairs", 0)
        table["fastpath.combines"] += counts.get("fastpath.combines", 0)
        table.update({
            "solvers.solves": solves,
            "solvers.matvecs": counts.get("solvers.matvecs", 0),
            "solvers.matvecs_per_solve": (
                counts.get("solvers.matvecs", 0) / solves if solves else 0.0
            ),
            "solvers.warm_fraction": (
                counts.get("solvers.warm", 0) / solves if solves else 0.0
            ),
            "solvers.saved": counts.get("solvers.saved", 0),
            "neighbors.builds": counts.get("neighbors.builds", 0),
            "neighbors.candidate_fraction": (
                counts.get("neighbors.candidate_pairs", 0) / exhaustive
                if exhaustive else 0.0
            ),
        })

    def dump(self, path) -> None:
        """Write the spans out (one JSON document)."""
        with open(path, "w") as handle:
            json.dump({
                "fields": ["name", "start", "end", "parent", "job"],
                "spans": self.spans,
            }, handle)
