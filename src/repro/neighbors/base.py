"""Core types of the pluggable neighbor-search subsystem (DESIGN.md §9).

A neighbor backend answers one question: *given row-normalized features,
which ``k`` columns are most cosine-similar to each row?*  Everything
around that answer — normalization, edge-weight clipping, symmetrization,
Laplacian construction — is shared by :func:`repro.core.knn.knn_graph`,
so backends only produce directed ``(row, col, similarity)`` triplets.

The design mirrors ``repro.solvers``: a string-keyed registry
(:mod:`repro.neighbors.registry`), a request/result pair carrying the
problem and the answer, and a :class:`NeighborStats` counter object that
call sites thread through the pipeline next to
:class:`repro.solvers.SolverStats` so approximate-search cost and recall
are observable end to end.
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field
from typing import Any, Dict, Mapping, Optional, Tuple, Union

import numpy as np
import scipy.sparse as sp

from repro.utils.counters import Counters

FeatureMatrix = Union[np.ndarray, sp.spmatrix]


def normalize_rows(features: FeatureMatrix) -> FeatureMatrix:
    """Row-normalize ``features`` to unit L2 norm (zero rows kept at zero).

    Dense input returns a dense ``float64`` array; sparse input returns
    CSR ``float64``.  Cosine similarity then reduces to a plain inner
    product, which is what every backend scores.
    """
    if sp.issparse(features):
        features = features.tocsr().astype(np.float64)
        norms = np.sqrt(
            np.asarray(features.multiply(features).sum(axis=1)).ravel()
        )
        norms[norms == 0] = 1.0
        return sp.diags(1.0 / norms).dot(features).tocsr()
    features = np.asarray(features, dtype=np.float64)
    norms = np.linalg.norm(features, axis=1)
    norms[norms == 0] = 1.0
    return features / norms[:, None]


@dataclass
class NeighborStats(Counters):
    """Counters accumulated across the KNN builds of one run.

    The headline number is ``candidate_fraction`` — exact-similarity
    evaluations performed relative to the ``n (n - 1)`` an exhaustive
    search would do — plus a sampled recall estimate for approximate
    backends.  Surfaced by the CLI next to the solver stats line.
    Sharded view builds fold per-worker stats back in view order with
    :meth:`merge`.

    Attributes
    ----------
    recall_sample:
        Rows brute-forced per approximate build to estimate recall
        (``0`` disables the estimate; the sample costs one
        ``sample x n`` GEMM).  A setting, not a counter: merge keeps
        this object's value.
    """

    SETTINGS = ("recall_sample",)

    recall_sample: int = 32
    builds: int = 0
    nodes: int = 0
    candidate_pairs: int = 0
    exhaustive_pairs: int = 0
    recall_hits: int = 0
    recall_total: int = 0
    by_backend: Dict[str, int] = field(default_factory=dict)

    def record_build(self, backend: str, n: int, candidate_pairs: int) -> None:
        """Account one graph build performed by ``backend``."""
        self.builds += 1
        self.nodes += int(n)
        self.candidate_pairs += int(candidate_pairs)
        self.exhaustive_pairs += int(n) * (int(n) - 1)
        self.by_backend[backend] = self.by_backend.get(backend, 0) + 1

    def record_recall(self, hits: int, total: int) -> None:
        """Account one sampled recall measurement (hits out of total)."""
        self.recall_hits += int(hits)
        self.recall_total += int(total)

    @property
    def candidate_fraction(self) -> float:
        """Similarity evaluations relative to exhaustive ``n (n - 1)``."""
        if self.exhaustive_pairs == 0:
            return 0.0
        return self.candidate_pairs / self.exhaustive_pairs

    @property
    def recall_estimate(self) -> Optional[float]:
        """Sampled recall across approximate builds (None if unsampled)."""
        if self.recall_total == 0:
            return None
        return self.recall_hits / self.recall_total

    def summary(self) -> str:
        """One-line human-readable digest (used by the CLI)."""
        backends = ", ".join(
            f"{name}={count}" for name, count in sorted(self.by_backend.items())
        )
        recall = self.recall_estimate
        recall_text = "" if recall is None else f", recall~{recall:.3f}"
        return (
            f"{self.builds} knn builds ({backends or 'none'}; "
            f"{self.candidate_fraction:.1%} of exhaustive pairs scored"
            f"{recall_text})"
        )


@dataclass(frozen=True)
class NeighborRequest:
    """One KNN-graph construction problem handed to a backend.

    Attributes
    ----------
    normalized:
        Row-normalized features (dense ``float64`` or CSR ``float64``);
        cosine similarity is the plain inner product of rows.
    k:
        Effective neighbor count, already clamped to ``n - 1``.
    block_size:
        Row-block size for the exact backends' blocked GEMMs.
    workers:
        Optional thread count for concurrent blocks (``None``/``<= 1``
        keeps the serial path).
    seed:
        Determinism seed for randomized backends (rp-forest trees).
    params:
        Backend-specific knobs, already checked against the backend's
        :attr:`~NeighborBackend.accepted_params` (``n_trees``,
        ``leaf_size``, ``refine_iters``, ``tie_margin``, ...).
    """

    normalized: FeatureMatrix
    k: int
    block_size: int = 2048
    workers: Optional[int] = None
    seed: int = 0
    params: Mapping[str, Any] = field(default_factory=dict)


@dataclass
class NeighborResult:
    """Directed top-``k`` neighbor triplets produced by a backend.

    ``rows[i] -> cols[i]`` with cosine similarity ``vals[i]``; rows may
    carry fewer than ``k`` entries (approximate backends with a thin
    candidate pool).  ``candidate_pairs`` counts the similarity
    evaluations the backend actually performed — the quantity an
    approximate backend saves relative to ``n (n - 1)``.  ``exact`` marks
    backends whose neighbor sets are exhaustive by construction (recall
    sampling is skipped for them).
    """

    rows: np.ndarray
    cols: np.ndarray
    vals: np.ndarray
    candidate_pairs: int
    exact: bool = True


class NeighborBackend(ABC):
    """A neighbor-search strategy, registered by its ``name`` key.

    ``accepted_params`` names the ``backend_params`` keys the backend
    reads; :func:`repro.core.knn.knn_graph` refuses any other key.
    """

    name: str = ""
    accepted_params: Tuple[str, ...] = ()

    @abstractmethod
    def neighbors(self, request: NeighborRequest) -> NeighborResult:
        """Compute directed top-``k`` neighbors for ``request``."""
