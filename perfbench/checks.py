"""Output checks behind the benchmark's ``correct`` flag and success rate.

Every check returns a list of problems (empty when the output is
correct), so the caller can count failures and report what went wrong.
These functions import nothing from the program: the self-tests feed
them corrupted outputs directly.
"""

from __future__ import annotations

from typing import Any, Dict, Iterable, List

import numpy as np

#: reply fields that legitimately differ between two runs of one job:
#: wall times, and how many solves the job's batch group performed.
VOLATILE_FIELDS = ("elapsed_seconds", "group_solves")


def check_labels(labels, n: int, k: int) -> List[str]:
    """Cluster labels: ``n`` integers in ``[0, k)``, at most ``k`` clusters."""
    labels = np.asarray(labels)
    if labels.shape != (n,):
        return [f"labels have shape {labels.shape}, expected ({n},)"]
    if not np.issubdtype(labels.dtype, np.integer):
        return [f"labels have dtype {labels.dtype}, expected integers"]
    problems = []
    if n and (labels.min() < 0 or labels.max() >= k):
        problems.append(
            f"labels span [{labels.min()}, {labels.max()}], expected [0, {k})"
        )
    if np.unique(labels).size > k:
        problems.append(f"{np.unique(labels).size} clusters, expected <= {k}")
    return problems


def check_weights(weights, r: int) -> List[str]:
    """View weights: ``r`` finite entries on the probability simplex."""
    weights = np.asarray(weights, dtype=np.float64)
    if weights.shape != (r,):
        return [f"weights have shape {weights.shape}, expected ({r},)"]
    if not np.all(np.isfinite(weights)):
        return ["weights are not finite"]
    problems = []
    if weights.min() < -1e-12:
        problems.append(f"negative weight {weights.min()}")
    if abs(weights.sum() - 1.0) > 1e-8:
        problems.append(f"weights sum to {weights.sum()}, expected 1")
    return problems


def check_embedding(embedding, n: int, dim: int) -> List[str]:
    """Embedding: a finite ``n x dim`` array."""
    embedding = np.asarray(embedding)
    if embedding.shape != (n, dim):
        return [f"embedding has shape {embedding.shape}, expected ({n}, {dim})"]
    if not np.all(np.isfinite(embedding)):
        return ["embedding is not finite"]
    return []


def identical(a: Any, b: Any) -> bool:
    """Bit identity of two results (arrays, scalars, dicts, sequences).

    Dict fields named in :data:`VOLATILE_FIELDS` are skipped.  Floats
    compare exactly: the serving contract promises the same bits as an
    in-process run, not merely close values.
    """
    if isinstance(a, dict) or isinstance(b, dict):
        if not (isinstance(a, dict) and isinstance(b, dict)):
            return False
        keys = (set(a) | set(b)) - set(VOLATILE_FIELDS)
        return all(identical(a.get(key), b.get(key)) for key in keys)
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and bool(
            np.array_equal(a, b, equal_nan=a.dtype.kind == "f")
        )
    if isinstance(a, (list, tuple)) and isinstance(b, (list, tuple)):
        return len(a) == len(b) and all(map(identical, a, b))
    return type(a) is type(b) and a == b


def check_request_counts(
    client_requests: int,
    route_stats: Dict[str, Any],
    daemon_totals: Dict[str, Any],
) -> List[str]:
    """Every request the clients sent is accounted at each tier.

    The client's count must equal the router's ``requests`` and
    ``completed`` and the daemon's ``requests`` and ``completed``.  The
    daemon counts a result-cache hit as completed too, so its
    ``result_hits`` must not exceed ``completed``.
    """
    expected = {
        "router requests": route_stats.get("requests"),
        "router completed": route_stats.get("completed"),
        "daemon requests": daemon_totals.get("requests"),
        "daemon completed": daemon_totals.get("completed"),
    }
    problems = [
        f"{name} = {value}, client sent {client_requests}"
        for name, value in expected.items()
        if value != client_requests
    ]
    hits = daemon_totals.get("result_hits", 0)
    if hits > daemon_totals.get("completed", 0):
        problems.append(
            f"daemon result_hits {hits} > completed "
            f"{daemon_totals.get('completed')}"
        )
    return problems


def percentile(samples: Iterable[float], q: float) -> float:
    """Linearly interpolated percentile, ``q`` in [0, 100] (numpy's
    default rule, steadier than nearest rank on a few dozen samples);
    0.0 on no samples."""
    ordered = sorted(samples)
    if not ordered:
        return 0.0
    position = q / 100.0 * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return float(ordered[low] + (ordered[high] - ordered[low]) * (position - low))
