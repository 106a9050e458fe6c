"""Job execution for the serving daemon: datasets, runners, batching.

A job names a dataset **profile** plus the pipeline parameters; the
daemon never unpickles callables from clients — the job vocabulary is
the closed set ``cluster`` / ``embed`` / ``objective`` from
:mod:`repro.serve.protocol`, and :func:`check_job` refuses malformed
fields before a request is admitted.

Every job kind runs from one prepared form of its dataset: the view
Laplacians that :class:`DatasetCache` builds once per profile, seed and
kNN setting.  SGLA and SGLA+ never read the MVAG again once its views
are Laplacians, so cluster and embed jobs hand the cached list to
:func:`~repro.core.pipeline.cluster_mvag` /
:func:`~repro.core.pipeline.embed_mvag`, as objective jobs hand it to
:class:`~repro.core.objective.SpectralObjective`.  ``graph-agg``, which
sums raw adjacencies, is the one method that loads the MVAG (uncached).

Determinism contract (the multi-tenant isolation anchor): objective
evaluations run **cold** — a fresh
:class:`~repro.solvers.SolverContext` with ``warm_start=False`` and an
uncached :class:`~repro.core.objective.SpectralObjective` per group — so
each weight vector's eigensolve is independent of whatever else happened
to share its batch.  A request's numbers are bit-identical whether it
was coalesced into a cross-request batch, served alone, or computed
in-process by the client; one tenant's traffic can never perturb
another's results.  (With seeded warm-starts, followers in a batch
depend on the seed row, which would couple co-batched tenants.)

Cluster and embed jobs call the public pipeline entry points with a
fixed seed and a fresh solver per request, which is exactly what a
direct in-process caller does — the same bit-identity argument applies.
"""

from __future__ import annotations

import numbers
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.memory import MemoryTracker
from repro.core.objective import SpectralObjective
from repro.core.pipeline import EMBEDDING_BACKENDS, cluster_mvag, embed_mvag
from repro.core.sgla import SGLAConfig, prepare_laplacians
from repro.datasets.profiles import load_profile_mvag
from repro.solvers import SolverContext
from repro.utils.errors import ValidationError

#: SGLAConfig fields a job may override (a closed, validated set — the
#: rest of the config stays at paper defaults inside the daemon).
CONFIG_KEYS = (
    "t_max", "eps", "gamma", "knn_k", "eigen_backend", "warm_start",
    "coarsen_levels",
)


def job_config(job: Dict[str, Any]) -> SGLAConfig:
    """Build the job's :class:`SGLAConfig` from its ``config`` overrides."""
    overrides = job.get("config") or {}
    unknown = sorted(set(overrides) - set(CONFIG_KEYS))
    if unknown:
        raise ValidationError(
            f"unsupported config override(s) {unknown}; "
            f"allowed: {sorted(CONFIG_KEYS)}"
        )
    return SGLAConfig(**overrides)


def batch_key(job: Dict[str, Any]) -> Optional[Tuple]:
    """Compatibility key for cross-request batching.

    Only ``objective`` jobs batch; two are compatible when they evaluate
    the same objective surface — same profile dataset, same ``k``, same
    ``gamma``, same config overrides — and differ only in the weight
    vector.  Everything else returns ``None`` (never batched).
    """
    if job.get("kind") != "objective":
        return None
    overrides = tuple(sorted((job.get("config") or {}).items()))
    return (
        "objective",
        job.get("profile"),
        job.get("seed", 0),
        job.get("k"),
        job.get("gamma", 0.5),
        overrides,
    )


def payload_nbytes(obj, _seen: Optional[set] = None) -> int:
    """Accounted in-memory payload bytes of a cached value.

    Walks arrays (``.nbytes``), scipy CSR/CSC matrices (their buffer
    triples) and containers.  Python object overhead is ignored — the
    numeric buffers dominate a prepared dataset by orders of magnitude,
    and an under-by-a-few-KB estimate errs on the side of caching
    slightly less, never more.
    """
    if _seen is None:
        _seen = set()
    if id(obj) in _seen:
        return 0
    _seen.add(id(obj))
    if isinstance(obj, np.ndarray):
        return int(obj.nbytes)
    if isinstance(obj, (bytes, bytearray, memoryview)):
        return len(obj)
    if hasattr(obj, "indptr"):  # CSR / CSC
        return payload_nbytes(
            (obj.data, obj.indices, obj.indptr), _seen
        )
    if isinstance(obj, dict):
        return sum(payload_nbytes(value, _seen) for value in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(item, _seen) for item in obj)
    return 0


class DatasetCache:
    """Byte-budgeted LRU of prepared datasets, shared by the workers.

    An entry is what every job kind integrates: a profile dataset's view
    Laplacians plus its class count, built by
    :func:`~repro.core.sgla.prepare_laplacians`.  The Laplacians are a
    pure function of the profile, the seed and the kNN settings, so the
    key is ``(profile, seed, knn_k, knn_backend, sorted knn_params)``:
    an objective job and a cluster job on one dataset share an entry
    whatever their other config overrides.  Entries are shared
    read-only by concurrent jobs; no path may modify them in place.

    Builds are serialized **per key** via latches, not under the cache
    lock: concurrent first requests for one key still build it once
    (followers wait on the owner's latch), but a cold build never
    blocks another tenant's cache *hit* on an unrelated key — the lock
    is held only for dictionary bookkeeping.  A failed build clears its
    latch, so one waiter retries as the new owner instead of every
    follower inheriting the error forever.  Each lookup counts once: an
    immediate find or a value obtained by waiting out another thread's
    build is a hit; becoming the build owner is a miss.

    The **byte budget** (``max_bytes``, ``None`` = unbounded) is the
    only bound: every entry's payload is accounted via
    :func:`payload_nbytes` at insertion, and inserting past the budget
    evicts least-recently-used entries until the cache fits, never the
    one just inserted (the request being served needs it; a single
    over-budget dataset caches alone rather than failing).  The budget
    is enforced on these accounted sizes rather than on RSS because
    ``ru_maxrss`` is a process-lifetime high-water mark that eviction
    cannot lower; the attached
    :class:`~repro.analysis.memory.MemoryTracker` samples that RSS peak
    for the health snapshot so operators see both numbers.  Hit / miss
    / eviction counters surface on the ``serve:`` stats line.
    """

    def __init__(self, max_bytes: Optional[int] = None) -> None:
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self._lock = threading.Lock()
        #: key -> ((laplacians, class count), accounted nbytes), least
        #: recently used first.
        self._entries: "OrderedDict[Tuple, Tuple[Tuple[List, int], int]]" = (
            OrderedDict()
        )
        self._memory = MemoryTracker(label="dataset-cache")
        #: key -> latch of an in-flight build; waiters block on the
        #: latch instead of the cache lock.
        self._building: Dict[Tuple, threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0

    def laplacians(
        self, profile: str, seed, config: SGLAConfig, shard=None
    ) -> Tuple[List, int]:
        """``(view Laplacians, class count)`` of a profile dataset.

        A miss generates the profile's MVAG and builds its views under
        ``config``'s kNN settings, through ``shard`` when one is given.
        """
        key = (
            profile, seed, config.knn_k, config.knn_backend,
            tuple(sorted((config.knn_params or {}).items())),
        )
        return self._get_or_build(key, lambda: prepare_laplacians(
            load_profile_mvag(profile, seed=seed), None, config, shard=shard
        ))

    def _get_or_build(self, key: Tuple, build):
        """The entry under ``key``, built outside the lock on a miss."""
        while True:
            with self._lock:
                entry = self._entries.get(key)
                if entry is not None:
                    self._entries.move_to_end(key)
                    self.hits += 1
                    return entry[0]
                wait_on = self._building.get(key)
                if wait_on is None:
                    self._building[key] = threading.Event()
                    self.misses += 1
                    break  # this thread owns the build
            wait_on.wait()
            # Loop: usually the value is now cached (a hit); if the
            # build failed or the value was already evicted, this
            # thread becomes the new owner.
        try:
            value = build()
        except BaseException:
            with self._lock:
                latch = self._building.pop(key)
            latch.set()
            raise
        with self._lock:
            self._put(key, value)
            latch = self._building.pop(key)
        latch.set()
        return value

    def _put(self, key: Tuple, value) -> None:
        # Only the latch owner inserts a key, so ``key`` is new here.
        nbytes = payload_nbytes(value)
        self._entries[key] = (value, nbytes)
        self.current_bytes += nbytes
        while (
            self.max_bytes is not None
            and self.current_bytes > self.max_bytes
            and len(self._entries) > 1
        ):
            _, (_, evicted) = self._entries.popitem(last=False)
            self.current_bytes -= evicted
            self.evictions += 1

    def snapshot(self) -> dict:
        """Cache counters for the health payload / ``serve:`` line."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._entries),
                "building": len(self._building),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
                "peak_rss_mb": self._memory.check(),
            }


def cache_summary(snap: Dict[str, Any]) -> str:
    """Render a cache snapshot for the ``serve:`` stats line."""
    budget = ""
    if snap.get("max_bytes"):
        budget = f" of {snap['max_bytes'] / 1048576.0:.1f}MB"
    return (
        f"cache {snap['hits']} hits / {snap['misses']} misses / "
        f"{snap['evictions']} evictions, {snap['entries']} entries "
        f"({snap['bytes'] / 1048576.0:.1f}MB{budget})"
    )


def _require(job: Dict[str, Any], field: str):
    value = job.get(field)
    if value is None:
        raise ValidationError(
            f"{job.get('kind')} job requires a {field!r} field"
        )
    return value


def _is_int(value) -> bool:
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def check_job(job: Dict[str, Any]) -> None:
    """Refuse a job whose fields have the wrong types.

    The daemon runs this before it admits a request, so a malformed
    field gets a ``validation`` reply and nothing is queued, instead of
    an internal error from deep inside the batch key, the result key,
    the dataset cache or the pipeline.  ``seed`` must be an int: a
    ``None`` seed would generate a different dataset on every build.
    An unknown embed ``backend`` is refused here, other values where
    they are used (an unknown profile, method or config override, or an
    embed ``dim`` not below the node count).
    """
    kind = job.get("kind")
    profile = _require(job, "profile")
    if not isinstance(profile, str):
        raise ValidationError(
            f"profile must be a string, got {type(profile).__name__}"
        )
    config = job.get("config")
    if config is not None and not (
        isinstance(config, dict) and all(isinstance(n, str) for n in config)
    ):
        raise ValidationError(
            f"config must be a dict keyed by field names, got {config!r}"
        )
    seed = job.get("seed", 0)
    if not _is_int(seed):
        raise ValidationError(f"seed must be an int, got {seed!r}")
    k = job.get("k")
    if k is not None and not _is_int(k):
        raise ValidationError(f"k must be an int, got {k!r}")
    if kind == "embed":
        backend, dim = job.get("backend", "auto"), job.get("dim", 64)
        if not isinstance(backend, str) or backend not in EMBEDDING_BACKENDS:
            raise ValidationError(f"unknown embedding backend {backend!r}")
        if not _is_int(dim) or dim < 1:
            raise ValidationError(f"dim must be a positive int, got {dim!r}")
    if kind != "objective":
        return
    gamma = job.get("gamma", 0.5)
    if not isinstance(gamma, numbers.Real) or isinstance(gamma, bool):
        raise ValidationError(f"gamma must be a real number, got {gamma!r}")
    weights = _require(job, "weights")
    try:
        weights = np.asarray(weights, dtype=np.float64)
    except (TypeError, ValueError):
        weights = None
    if weights is None or weights.ndim != 1:
        raise ValidationError(
            "objective weights must be a 1-D sequence of numbers"
        )


def _integration_input(job: Dict[str, Any], cache: DatasetCache, shard):
    """``(data, k, config)`` that a cluster or embed job integrates.

    The data is the dataset's cached view Laplacians, and ``k`` the
    job's value, else the dataset's class count.  ``graph-agg`` sums
    raw adjacencies, so it alone loads the MVAG, uncached.
    """
    profile = _require(job, "profile")
    config = job_config(job)
    seed = job.get("seed", 0)
    k = job.get("k")
    if job.get("method", "sgla+") == "graph-agg":
        return load_profile_mvag(profile, seed=seed), k, config
    laplacians, n_classes = cache.laplacians(profile, seed, config, shard)
    return laplacians, n_classes if k is None else k, config


def run_cluster(job: Dict[str, Any], cache: DatasetCache, shard) -> dict:
    """One clustering request through the public pipeline entry point."""
    data, k, config = _integration_input(job, cache, shard)
    output = cluster_mvag(
        data,
        k=k,
        method=job.get("method", "sgla+"),
        config=config,
        assign=job.get("assign", "discretize"),
        seed=job.get("seed", 0),
        shard=shard,
    )
    integration = output.integration
    return {
        "labels": output.labels,
        "weights": integration.weights,
        "method": integration.method,
        "objective_value": integration.objective_value,
        "elapsed_seconds": integration.elapsed_seconds,
    }


def run_embed(job: Dict[str, Any], cache: DatasetCache, shard) -> dict:
    """One embedding request through the public pipeline entry point."""
    data, k, config = _integration_input(job, cache, shard)
    output = embed_mvag(
        data,
        k=k,
        dim=job.get("dim", 64),
        method=job.get("method", "sgla+"),
        config=config,
        backend=job.get("backend", "auto"),
        seed=job.get("seed", 0),
        shard=shard,
    )
    return {
        "embedding": output.embedding,
        "backend": output.backend,
        "weights": output.integration.weights,
        "objective_value": output.integration.objective_value,
        "elapsed_seconds": output.integration.elapsed_seconds,
    }


def run_objective_group(
    jobs: List[Dict[str, Any]], cache: DatasetCache, shard
) -> List[dict]:
    """Evaluate a group of *compatible* objective jobs in one batch.

    All jobs share a :func:`batch_key`; their weight vectors go through
    one :meth:`~repro.core.objective.SpectralObjective.evaluate_batch`
    call (one stacked aggregation, chunked GEMMs, sharded when a shard
    context is attached).  Solves are cold (see module docstring), so the
    returned components match a one-job group bit for bit.
    """
    head = jobs[0]
    profile = _require(head, "profile")
    config = job_config(head)
    laplacians, n_classes = cache.laplacians(
        profile, head.get("seed", 0), config, shard
    )
    k = head.get("k")
    solver = SolverContext(
        method=config.eigen_backend,
        seed=head.get("seed", 0),
        warm_start=False,
    )
    objective = SpectralObjective(
        laplacians,
        k=n_classes if k is None else int(k),
        gamma=head.get("gamma", 0.5),
        cache=False,
        seed=head.get("seed", 0),
        solver=solver,
        shard=shard,
    )
    weights = [_require(job, "weights") for job in jobs]
    components, n_solves = objective.evaluate_batch(weights)
    results = []
    for parts in components:
        results.append({
            "value": parts.value,
            "eigengap": parts.eigengap,
            "connectivity": parts.connectivity,
            "regularization": parts.regularization,
            "eigenvalues": parts.eigenvalues,
            "group_solves": n_solves,
        })
    return results
