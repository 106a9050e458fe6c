"""Randomized truncated SVD (Halko–Martinsson–Tropp).

Used by NetMF and several baselines to factorize (implicitly or
explicitly materialized) similarity matrices.  Works on dense arrays, sparse
matrices, and anything supporting ``@``.
"""

from __future__ import annotations

from typing import Tuple

import numpy as np
import scipy.sparse as sp

from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state


def randomized_svd(
    matrix,
    rank: int,
    oversample: int = 10,
    n_power_iterations: int = 4,
    seed=0,
) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Approximate top-``rank`` SVD ``matrix ~ U diag(s) Vt``.

    Parameters
    ----------
    matrix:
        ``(m, n)`` dense or sparse matrix.
    rank:
        Target rank (clamped to ``min(m, n)``).
    oversample:
        Extra random probes improving the range approximation.
    n_power_iterations:
        Subspace (power) iterations; more iterations sharpen the spectrum
        separation for slowly-decaying singular values.
    seed:
        Seed of the Gaussian test matrix.

    Returns
    -------
    (U, s, Vt):
        ``U`` of shape ``(m, rank)``, singular values descending, ``Vt``
        of shape ``(rank, n)``.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    m, n = matrix.shape
    rank = min(rank, min(m, n))
    probes = min(rank + oversample, n)
    rng = check_random_state(seed)

    test = rng.standard_normal((n, probes))
    sample = matrix @ test
    sample = np.asarray(sample)
    q, _ = np.linalg.qr(sample)
    for _ in range(n_power_iterations):
        q, _ = np.linalg.qr(np.asarray(matrix.T @ q))
        q, _ = np.linalg.qr(np.asarray(matrix @ q))

    projected = np.asarray(matrix.T @ q).T  # == q.T @ matrix, (probes, n)
    u_small, singular_values, vt = np.linalg.svd(projected, full_matrices=False)
    u = q @ u_small
    return u[:, :rank], singular_values[:rank], vt[:rank]


def exact_truncated_svd(matrix, rank: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Exact truncated SVD via LAPACK (dense) or ARPACK (sparse).

    Reference implementation used in tests to validate the randomized path.
    """
    if rank < 1:
        raise ValidationError(f"rank must be >= 1, got {rank}")
    if sp.issparse(matrix):
        if rank >= min(matrix.shape):
            matrix = np.asarray(matrix.todense())
        else:
            u, s, vt = sp.linalg.svds(matrix, k=rank)
            order = np.argsort(-s)
            return u[:, order], s[order], vt[order]
    matrix = np.asarray(matrix)
    u, s, vt = np.linalg.svd(matrix, full_matrices=False)
    return u[:, :rank], s[:rank], vt[:rank]
