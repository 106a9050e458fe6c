"""Job execution for the serving daemon: datasets, runners, batching.

A job names a dataset **profile** (the daemon generates and caches it)
plus the pipeline parameters; the daemon never unpickles callables from
clients — the job vocabulary is the closed set ``cluster`` / ``embed``
/ ``objective`` from :mod:`repro.serve.protocol`.

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

import itertools
import threading
from collections import OrderedDict
from typing import Any, Dict, List, Optional, Tuple

import numpy as np

from repro.analysis.memory import MemoryTracker
from repro.core.objective import SpectralObjective
from repro.core.pipeline import cluster_mvag, embed_mvag
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
    """Accounted in-memory payload bytes of a cached dataset object.

    Walks arrays (``.nbytes``), scipy sparse matrices (CSR/CSC buffer
    triples, COO coordinate pairs), containers, and plain attribute
    objects (the MVAG dataclasses).  Python object overhead is ignored
    — the numeric buffers dominate a prepared dataset by orders of
    magnitude, and an under-by-a-few-KB estimate errs on the side of
    caching slightly less, never more.
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
    if hasattr(obj, "row") and hasattr(obj, "col"):  # COO
        return payload_nbytes((obj.data, obj.row, obj.col), _seen)
    if isinstance(obj, dict):
        return sum(payload_nbytes(value, _seen) for value in obj.values())
    if isinstance(obj, (list, tuple, set, frozenset)):
        return sum(payload_nbytes(item, _seen) for item in obj)
    if hasattr(obj, "__dict__"):
        return payload_nbytes(vars(obj), _seen)
    return 0


class DatasetCache:
    """Byte-budgeted LRU cache of prepared datasets, shared by workers.

    Two layers, each bounded by ``capacity`` entries: generated MVAGs
    keyed by ``(profile, seed)`` and prepared view-Laplacian lists keyed
    by ``(profile, seed, k, config overrides)``.  Builds are serialized
    **per key** via latches, not under the cache lock: concurrent first
    requests for the same profile still build it once (followers wait
    on the owner's latch), but a cold multi-second build never blocks
    another tenant's cache *hit* on an unrelated key — the lock is held
    only for dictionary bookkeeping.  A failed build clears its latch,
    so one waiter retries as the new owner instead of every follower
    inheriting the error forever.

    Hit/miss counters count one outcome per public lookup: an immediate
    find or a value obtained by waiting out another thread's build is a
    hit; becoming the build owner is a miss.  Internal lookups (the
    MVAG resolved while building a Laplacian entry) are counter-neutral
    — they are an implementation detail of the build, not client
    traffic against the mvag layer.

    On top of the entry caps sits a **byte budget** (``max_bytes``)
    shared across both layers: every entry's payload is accounted via
    :func:`payload_nbytes` at insertion, and inserting past the budget
    evicts globally-least-recently-used entries (from whichever layer
    holds them) until the cache fits.  The budget is enforced on these
    accounted sizes rather than on RSS because ``ru_maxrss`` is a
    process-lifetime high-water mark that eviction cannot lower; the
    attached :class:`~repro.analysis.memory.MemoryTracker` samples that
    RSS peak for the health snapshot so operators see both numbers.
    Hit / miss / eviction counters surface on the ``serve:`` stats line.
    """

    def __init__(
        self, capacity: int = 8, max_bytes: Optional[int] = None
    ) -> None:
        self.capacity = int(capacity)
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self._lock = threading.Lock()
        #: key -> (value, accounted nbytes, LRU stamp), oldest first.
        self._mvags: "OrderedDict[Tuple, Tuple[Any, int, int]]" = (
            OrderedDict()
        )
        self._laplacians: "OrderedDict[Tuple, Tuple[Any, int, int]]" = (
            OrderedDict()
        )
        self._clock = itertools.count()
        self._memory = MemoryTracker(label="dataset-cache")
        #: (layer tag, key) -> latch of an in-flight build; waiters
        #: block on the latch instead of the cache lock.
        self._building: Dict[Tuple[str, Tuple], threading.Event] = {}
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.current_bytes = 0

    def _lookup_locked(self, store: OrderedDict, key: Tuple):
        """LRU-touching lookup; caller holds the lock and does counting."""
        entry = store.get(key)
        if entry is None:
            return None
        store[key] = (entry[0], entry[1], next(self._clock))
        store.move_to_end(key)
        return entry[0]

    def _get_or_build(
        self,
        layer: str,
        store: OrderedDict,
        key: Tuple,
        builder,
        count: bool = True,
    ):
        """Return ``store[key]``, building it outside the lock on a miss.

        One thread per key owns the build (per-key latch); others wait
        on the latch and re-check.  ``count=False`` makes the lookup
        counter-neutral (internal resolutions during another build).
        """
        latch_key = (layer, key)
        while True:
            wait_on = None
            with self._lock:
                value = self._lookup_locked(store, key)
                if value is not None:
                    if count:
                        self.hits += 1
                    return value
                wait_on = self._building.get(latch_key)
                if wait_on is None:
                    self._building[latch_key] = threading.Event()
                    if count:
                        self.misses += 1
                    break  # this thread owns the build
            wait_on.wait()
            # Loop: usually the value is now cached (a hit); if the
            # build failed or the value was already evicted, this
            # thread becomes the new owner.
        try:
            value = builder()
        except BaseException:
            with self._lock:
                latch = self._building.pop(latch_key, None)
            if latch is not None:
                latch.set()
            raise
        with self._lock:
            self._put(store, key, value)
            latch = self._building.pop(latch_key, None)
        if latch is not None:
            latch.set()
        return value

    def _evict(self, store: OrderedDict) -> None:
        _, (_, nbytes, _) = store.popitem(last=False)
        self.current_bytes -= nbytes
        self.evictions += 1

    def _oldest(self, store: OrderedDict, protect: Tuple):
        """(stamp, key) of the store's LRU entry, skipping ``protect``."""
        for key, (_, _, stamp) in store.items():
            if key != protect:
                return (stamp, key)
        return None

    def _put(self, store: OrderedDict, key: Tuple, value) -> None:
        nbytes = payload_nbytes(value)
        old = store.get(key)
        if old is not None:
            self.current_bytes -= old[1]
        store[key] = (value, nbytes, next(self._clock))
        store.move_to_end(key)
        self.current_bytes += nbytes
        while len(store) > self.capacity:
            self._evict(store)
        # Byte budget: evict the globally least-recently-used entry of
        # either layer until the cache fits, never the one just
        # inserted (the request being served needs it live; a single
        # over-budget dataset caches alone rather than failing).
        while (
            self.max_bytes is not None
            and self.current_bytes > self.max_bytes
        ):
            candidates = [
                found
                for other in (self._mvags, self._laplacians)
                for found in [self._oldest(
                    other, key if other is store else None
                )]
                if found is not None
            ]
            if not candidates:
                break
            _, victim = min(candidates)
            for other in (self._mvags, self._laplacians):
                if victim in other and not (
                    other is store and victim == key
                ):
                    _, nbytes_out, _ = other.pop(victim)
                    self.current_bytes -= nbytes_out
                    self.evictions += 1
                    break

    def _mvag_builder(self, profile: str, seed):
        return lambda: load_profile_mvag(profile, seed=seed)

    def mvag(self, profile: str, seed=0, count: bool = True):
        return self._get_or_build(
            "mvag", self._mvags, (profile, seed),
            self._mvag_builder(profile, seed), count=count,
        )

    def laplacians(
        self,
        profile: str,
        seed,
        k: Optional[int],
        config: SGLAConfig,
        overrides_key: Tuple,
    ) -> Tuple[List, int]:
        key = (profile, seed, k, overrides_key)

        def build():
            # The MVAG resolved here is part of *this* build, not a
            # client lookup against the mvag layer: count=False keeps
            # the hit/miss counters honest (one outcome per request).
            mvag = self.mvag(profile, seed=seed, count=False)
            return prepare_laplacians(mvag, k, config)

        return self._get_or_build(
            "laplacians", self._laplacians, key, build
        )

    def snapshot(self) -> dict:
        """Cache counters for the health payload / ``serve:`` line."""
        with self._lock:
            return {
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "entries": len(self._mvags) + len(self._laplacians),
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


def run_cluster(job: Dict[str, Any], cache: DatasetCache, shard) -> dict:
    """One clustering request through the public pipeline entry point."""
    profile = _require(job, "profile")
    config = job_config(job)
    mvag = cache.mvag(profile, seed=job.get("seed", 0))
    output = cluster_mvag(
        mvag,
        k=job.get("k"),
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
    profile = _require(job, "profile")
    config = job_config(job)
    mvag = cache.mvag(profile, seed=job.get("seed", 0))
    output = embed_mvag(
        mvag,
        k=job.get("k"),
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
    overrides = tuple(sorted((head.get("config") or {}).items()))
    laplacians, k = cache.laplacians(
        profile, head.get("seed", 0), head.get("k"), config, overrides
    )
    solver = SolverContext(
        method=config.eigen_backend,
        seed=head.get("seed", 0),
        warm_start=False,
    )
    objective = SpectralObjective(
        laplacians,
        k=k,
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
