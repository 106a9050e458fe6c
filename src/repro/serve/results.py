"""Deterministic result cache: repeat traffic served from memory.

Every job kind the daemon executes is a **pure function of its request
fields** — the §13 determinism contract (cold solves, fixed seeds, an
uncached objective per group) was built so that a request's numbers are
bit-identical whether it ran alone, batched, or on another replica.
This module collects the payoff: once a job has been computed, an
identical job can be answered from memory in microseconds, and the
cached reply is *bit-identical* to what recomputation would produce.
Determinism is also why there is no invalidation story — a cached value
can never go stale, because nothing the daemon does can change what the
same request would compute.

The cache key is :func:`result_key`: a keyed-BLAKE2b digest (the repo's
hash family, also used for frame MACs and ring placement) of a
canonical encoding of the job's *identity fields* — kind, profile,
seed, ``k``, the kind-specific parameters (``gamma`` + the weight
vector's dtype-normalized bytes for objective jobs; ``method`` /
``assign`` for cluster; ``method`` / ``dim`` / ``backend`` for embed),
and the sorted config overrides.  Defaults are resolved *before*
hashing, so a job that spells out ``"seed": 0`` and one that omits it
share an entry; any field outside the known identity set is folded in
defensively, so a future job field can only cause misses, never false
hits.

:class:`ResultCache` itself is a byte-budgeted, thread-safe LRU — the
same discipline as :class:`~repro.serve.jobs.DatasetCache` (accounted
:func:`~repro.serve.jobs.payload_nbytes` sizes, least-recently-used
eviction past the budget, hit/miss/eviction counters on the ``serve:``
line), but single-layer and without build latches: values are inserted
*after* computation by whoever computed them, so there is never a build
to wait on.
"""

from __future__ import annotations

import hashlib
import threading
from collections import OrderedDict
from typing import Any, Dict, Optional, Tuple

import numpy as np

from repro.serve.jobs import payload_nbytes

#: domain-separation key for the identity digest (distinct from the wire
#: MAC key: a result-cache key must never double as a frame MAC).
_KEY_SALT = b"repro-serve-result-identity-v1"

#: identity fields shared by every job kind; kind-specific fields are
#: appended in result_key.  Anything outside the union is hashed
#: defensively via repr.
_COMMON_FIELDS = ("kind", "profile", "seed", "k", "config")


def result_key(job: Dict[str, Any]) -> Optional[bytes]:
    """Canonical identity digest of ``job``, or ``None`` if uncacheable.

    Two jobs get the same key exactly when the executor is guaranteed to
    compute bit-identical results for them.  Defaults are resolved to
    the executor's defaults (``seed=0``, ``gamma=0.5``, ...) before
    encoding, weight vectors are normalized to float64 bytes (matching
    what :class:`~repro.core.objective.SpectralObjective` evaluates),
    and unknown fields make the key unique rather than colliding with
    the known-field encoding.
    """
    kind = job.get("kind")
    fields: list = [
        ("kind", kind),
        ("profile", job.get("profile")),
        ("seed", job.get("seed", 0)),
        ("k", job.get("k")),
    ]
    known = set(_COMMON_FIELDS)
    if kind == "objective":
        known |= {"gamma", "weights"}
        fields.append(("gamma", job.get("gamma", 0.5)))
        try:
            weights = np.asarray(job.get("weights"), dtype=np.float64)
        except (TypeError, ValueError):
            return None  # malformed weights: let execution reject it
        fields.append(("weights", (weights.shape, weights.tobytes())))
    elif kind == "cluster":
        known |= {"method", "assign"}
        fields.append(("method", job.get("method", "sgla+")))
        fields.append(("assign", job.get("assign", "discretize")))
    elif kind == "embed":
        known |= {"method", "dim", "backend"}
        fields.append(("method", job.get("method", "sgla+")))
        fields.append(("dim", job.get("dim", 64)))
        fields.append(("backend", job.get("backend", "auto")))
    else:
        return None  # unknown kind: never cache what we can't identify
    overrides = job.get("config") or {}
    fields.append(("config", tuple(sorted(overrides.items()))))
    # Defensive closure: a job field this function doesn't know about
    # still changes the key, so a future executor that reads a new field
    # can only miss against old entries, never wrongly hit.
    fields.append(("extra", tuple(sorted(
        (name, repr(value))
        for name, value in job.items()
        if name not in known
    ))))
    digest = hashlib.blake2b(key=_KEY_SALT, digest_size=16)
    digest.update(repr(fields).encode("utf-8", "backslashreplace"))
    return digest.digest()


class ResultCache:
    """Byte-budgeted, thread-safe LRU of computed job results.

    Parameters
    ----------
    max_bytes:
        Summed accounted payload bytes across all entries (``None`` =
        unbounded).  Inserting past the budget evicts least-recently-
        used entries until the cache fits; a single result larger than
        the whole budget is not cached at all (unlike a dataset, a
        result nobody can co-reside with is better recomputed than
        monopolizing the cache).
    capacity:
        Entry-count bound, a backstop against millions of tiny results.
    """

    #: the empty :meth:`snapshot`: the router folds its daemons' wire
    #: snapshots into it with ``merge_snapshots``, so the fleet hit
    #: rate is ``hits / (hits + misses)`` over the summed counters.
    ZERO_SNAPSHOT = {
        "enabled": False,
        "hits": 0, "misses": 0, "evictions": 0, "insertions": 0,
        "skipped_oversize": 0, "entries": 0, "bytes": 0, "max_bytes": 0,
    }

    def __init__(
        self, max_bytes: Optional[int] = None, capacity: int = 4096
    ) -> None:
        self.max_bytes = int(max_bytes) if max_bytes is not None else None
        self.capacity = int(capacity)
        if self.capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self._lock = threading.Lock()
        #: key -> (value, accounted nbytes), oldest first.
        self._entries: "OrderedDict[bytes, Tuple[Any, int]]" = OrderedDict()
        self.hits = 0
        self.misses = 0
        self.evictions = 0
        self.insertions = 0
        self.skipped_oversize = 0
        self.current_bytes = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def get(self, key: Optional[bytes], count: bool = True):
        """The cached value for ``key`` (LRU-touched), or ``None``.

        ``count=False`` leaves the hit/miss counters alone — used by the
        executor's second-chance lookup so one request never counts two
        lookups (the connection thread already counted the first).
        """
        if key is None:
            return None
        with self._lock:
            entry = self._entries.get(key)
            if entry is None:
                if count:
                    self.misses += 1
                return None
            self._entries.move_to_end(key)
            if count:
                self.hits += 1
            return entry[0]

    def put(self, key: Optional[bytes], value: Any) -> None:
        """Insert ``value``; evict LRU entries past the byte budget."""
        if key is None:
            return
        nbytes = payload_nbytes(value)
        with self._lock:
            if self.max_bytes is not None and nbytes > self.max_bytes:
                self.skipped_oversize += 1
                return
            old = self._entries.pop(key, None)
            if old is not None:
                self.current_bytes -= old[1]
            self._entries[key] = (value, nbytes)
            self.current_bytes += nbytes
            self.insertions += 1
            # The entry just inserted is newest, so the eviction loop
            # (oldest-first) can never evict it: once it is the only
            # entry left, current_bytes == nbytes <= max_bytes.
            while len(self._entries) > self.capacity or (
                self.max_bytes is not None
                and self.current_bytes > self.max_bytes
            ):
                _, (_, nbytes_out) = self._entries.popitem(last=False)
                self.current_bytes -= nbytes_out
                self.evictions += 1

    def snapshot(self) -> dict:
        """Counters for the health payload / ``serve:`` line."""
        with self._lock:
            return {
                "enabled": True,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
                "insertions": self.insertions,
                "skipped_oversize": self.skipped_oversize,
                "entries": len(self._entries),
                "bytes": self.current_bytes,
                "max_bytes": self.max_bytes,
            }


def results_summary(snap: Dict[str, Any]) -> str:
    """Render a result-cache snapshot for the ``serve:`` stats line."""
    if not snap.get("enabled"):
        return "results off"
    lookups = snap["hits"] + snap["misses"]
    rate = (100.0 * snap["hits"] / lookups) if lookups else 0.0
    budget = ""
    if snap.get("max_bytes"):
        budget = f" of {snap['max_bytes'] / 1048576.0:.1f}MB"
    return (
        f"results {snap['hits']} hits / {snap['misses']} misses "
        f"({rate:.0f}%) / {snap['evictions']} evictions, "
        f"{snap['entries']} entries "
        f"({snap['bytes'] / 1048576.0:.1f}MB{budget})"
    )
