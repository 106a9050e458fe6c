"""Process-sharded execution subsystem (DESIGN.md §10).

Partitions the pipeline's two bulk workloads — per-view Laplacian/KNN
builds and per-weight-batch eigensolves — over a persistent process pool
with shared-memory zero-copy payload transfer.  The pool is the only way
work leaves the process; ``shard_workers <= 1`` and dispatches too small
to amortize process overhead run in-process as the serial reference.

* :class:`ShardPlan` — deterministic partitioning (contiguous or
  cost-balanced) whose output order never depends on the worker count;
* :class:`ShardContext` — per-run state: the lazy persistent
  ``ProcessPoolExecutor``, shared-memory segment lifecycle, serial
  fallback policy, and :class:`ShardStats` counters;
* the resilience layer (:mod:`repro.shard.resilience`, DESIGN.md §11):
  :class:`RetryPolicy` + :class:`FailureDirector` giving every dispatch
  retries with seeded-jitter backoff, each under a fresh deadline, and
  re-dispatch of failed shards onto a freshly forked pool;
* deterministic fault injection (:mod:`repro.shard.faults`):
  :class:`FaultPlan` — a seeded, replayable schedule of crash / hang /
  slow / corrupt / drop faults, the engine of the chaos suite
  (``tests/test_chaos.py``);
* :func:`shard_view_laplacians` / :func:`shard_objective_batch` — the
  entry points ``build_view_laplacians`` and
  ``SpectralObjective.evaluate_batch`` dispatch through when a context
  is threaded in (``SGLAConfig(shard_workers=...)``, CLI
  ``--shard-workers``).

Determinism contract: a sharded run's ``w*`` / labels are bit-identical
for **every** ``shard_workers >= 1`` value, including the in-process
serial fallback, because every task is an independent deterministic
function of its payload and results are reassembled in global item
order (see DESIGN.md §10).
"""

from repro.shard.api import (
    shard_attribute_laplacians,
    shard_objective_batch,
    shard_view_laplacians,
)
from repro.shard.base import ShardStats, run_shard_items
from repro.shard.context import (
    MIN_SHARD_BYTES,
    MIN_SHARD_ITEMS,
    ShardContext,
    default_shard_workers,
    shard_scope,
)
from repro.shard.faults import (
    FAULT_KINDS,
    FaultInjected,
    FaultPlan,
    plan_from_dict,
)
from repro.shard.plan import ShardPlan
from repro.shard.resilience import FailureDirector, RetryPolicy, ShardFailure
from repro.shard.shm import ArraySpec, attached, create_segment, inline_spec
from repro.utils.errors import ShardError

__all__ = [
    "ArraySpec",
    "FAULT_KINDS",
    "FailureDirector",
    "FaultInjected",
    "FaultPlan",
    "MIN_SHARD_BYTES",
    "MIN_SHARD_ITEMS",
    "RetryPolicy",
    "ShardContext",
    "ShardError",
    "ShardFailure",
    "ShardPlan",
    "ShardStats",
    "plan_from_dict",
    "attached",
    "create_segment",
    "default_shard_workers",
    "inline_spec",
    "run_shard_items",
    "shard_attribute_laplacians",
    "shard_objective_batch",
    "shard_scope",
    "shard_view_laplacians",
]
