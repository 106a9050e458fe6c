"""Process-sharded execution subsystem (DESIGN.md §10).

Partitions the pipeline's two bulk workloads — per-view Laplacian/KNN
builds and per-weight-batch eigensolves — over a persistent process pool
with shared-memory zero-copy payload transfer, behind the same
string-keyed registry pattern as :mod:`repro.solvers` and
:mod:`repro.neighbors`:

* :class:`ShardPlan` — deterministic partitioning (contiguous or
  cost-balanced) whose output order never depends on the worker count;
* :class:`ShardContext` — per-run state: the lazy persistent
  ``ProcessPoolExecutor``, shared-memory segment lifecycle, serial
  fallback policy, and :class:`ShardStats` counters;
* backends ``"process"`` / ``"serial"`` (:mod:`repro.shard.backends`)
  and the distributed ``"remote"`` backend (:mod:`repro.shard.remote`,
  TCP worker hosts started via ``python -m repro.shard.worker``),
  registered in the :mod:`repro.shard.base` registry;
* the resilience layer (:mod:`repro.shard.resilience`, DESIGN.md §11):
  :class:`RetryPolicy` + :class:`FailureDirector` giving every dispatch
  retries with seeded-jitter backoff, re-dispatch of failed shards onto
  healthy workers, quarantine with cooldown re-admission, and the
  sticky degradation ladder ``remote -> process -> serial``;
* deterministic fault injection (:mod:`repro.shard.faults`):
  :class:`FaultPlan` — a seeded, replayable schedule of crash / hang /
  slow / corrupt / drop faults driven through any backend, the engine
  of the chaos suite (``tests/test_chaos.py``);
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
from repro.shard.base import (
    ShardBackend,
    ShardStats,
    available_backends,
    get_backend,
    register_backend,
    run_shard_items,
    unregister_backend,
)
from repro.shard.backends import ProcessShardBackend, SerialShardBackend
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
from repro.shard.remote import RemoteShardBackend, WorkerFleet
from repro.shard.resilience import (
    LADDER,
    FailureDirector,
    RetryPolicy,
    ShardFailure,
)
from repro.shard.shm import ArraySpec, attached, create_segment, inline_spec
from repro.utils.errors import ShardDegradation, ShardError

__all__ = [
    "ArraySpec",
    "FAULT_KINDS",
    "FailureDirector",
    "FaultInjected",
    "FaultPlan",
    "LADDER",
    "MIN_SHARD_BYTES",
    "MIN_SHARD_ITEMS",
    "ProcessShardBackend",
    "RemoteShardBackend",
    "RetryPolicy",
    "SerialShardBackend",
    "ShardBackend",
    "ShardContext",
    "ShardDegradation",
    "ShardError",
    "ShardFailure",
    "ShardPlan",
    "ShardStats",
    "WorkerFleet",
    "plan_from_dict",
    "attached",
    "available_backends",
    "create_segment",
    "default_shard_workers",
    "get_backend",
    "inline_spec",
    "register_backend",
    "run_shard_items",
    "shard_attribute_laplacians",
    "shard_objective_batch",
    "shard_scope",
    "shard_view_laplacians",
    "unregister_backend",
]
