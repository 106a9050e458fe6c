"""Yu–Shi discretization of spectral embeddings [32].

Multiclass spectral clustering rotates the continuous eigenvector solution
toward the closest discrete cluster-indicator matrix: alternate between
(1) snapping each row to its best one-hot assignment under the current
rotation and (2) re-fitting the optimal orthogonal rotation by SVD
(orthogonal Procrustes).  This is the assignment step the paper pairs with
the bottom eigenvectors of the MVAG Laplacian.

The alternation is a local search: from one greedy initial rotation, an
embedding perturbed by a few ulps can settle in a different local optimum
(different labels, accuracy moving by several points).  :func:`discretize`
therefore runs :data:`STARTS` alternations from successive initial
rotations drawn from one seeded generator and keeps the labels with the
largest Procrustes objective (the sum of singular values of
``indicator.T @ vectors``).  A later start must beat the incumbent by
more than the convergence tolerance, so ties (including the same
partition under permuted labels, whose objective differs by ulps) keep
the earliest start.  The first start is the single-start search's, so
the result can only move to labels with a larger objective.
"""

from __future__ import annotations

import numpy as np

from repro.neighbors import normalize_rows
from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state

#: initial rotations tried per call; the best Procrustes objective wins.
STARTS = 5


def _initial_rotation(vectors: np.ndarray, k: int, rng) -> np.ndarray:
    """Greedy orthogonal initialization (pick maximally-spread rows)."""
    n = vectors.shape[0]
    rotation = np.zeros((k, k))
    first = int(rng.integers(n))
    rotation[:, 0] = vectors[first]
    accumulated = np.zeros(n)
    for col in range(1, k):
        accumulated += np.abs(vectors @ rotation[:, col - 1])
        rotation[:, col] = vectors[int(np.argmin(accumulated))]
    # Orthonormalize the greedy pick for a valid starting rotation.
    q, _ = np.linalg.qr(rotation)
    return q


def _alternate(
    vectors: np.ndarray, rotation: np.ndarray, max_iter: int, tol: float
):
    """One Yu–Shi alternation from ``rotation``: ``(labels, objective)``.

    ``objective`` is the Procrustes objective of the returned labels.
    """
    n, k = vectors.shape
    last_objective = 0.0
    labels = np.zeros(n, dtype=np.int64)
    objective = 0.0
    for _ in range(max_iter):
        rotated = vectors @ rotation
        labels = np.argmax(rotated, axis=1).astype(np.int64)
        indicator = np.zeros((n, k))
        indicator[np.arange(n), labels] = 1.0
        u, singular_values, vt = np.linalg.svd(indicator.T @ vectors)
        objective = float(singular_values.sum())
        rotation = (u @ vt).T
        if abs(objective - last_objective) < tol:
            break
        last_objective = objective
    return labels, objective


def discretize(
    eigenvectors,
    max_iter: int = 100,
    tol: float = 1e-8,
    seed=0,
) -> np.ndarray:
    """Discretize a spectral embedding into hard cluster labels.

    Parameters
    ----------
    eigenvectors:
        ``(n, k)`` matrix of the bottom ``k`` eigenvectors.
    max_iter:
        Maximum alternation rounds.
    tol:
        Convergence threshold on the change of the Procrustes objective.
    seed:
        Seed for the initial rotations (all :data:`STARTS` of them come
        from one generator).

    Returns
    -------
    numpy.ndarray
        ``(n,)`` integer labels in ``[0, k)``.
    """
    vectors = np.asarray(eigenvectors, dtype=np.float64)
    if vectors.ndim != 2:
        raise ValidationError(
            f"eigenvectors must be 2-D, got shape {vectors.shape}"
        )
    n, k = vectors.shape
    if k < 1 or k > n:
        raise ValidationError(f"invalid embedding width {k} for {n} rows")
    if k == 1:
        return np.zeros(n, dtype=np.int64)

    rng = check_random_state(seed)
    vectors = normalize_rows(vectors)
    best = None
    for _ in range(STARTS):
        rotation = _initial_rotation(vectors, k, rng)
        labels, objective = _alternate(vectors, rotation, max_iter, tol)
        if best is None or objective > best[1] + tol:
            best = (labels, objective)
    return best[0]
