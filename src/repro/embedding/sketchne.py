"""SketchNE-style scalable embedding (Xie et al., TKDE'23), simplified.

Full SketchNE avoids the dense NetMF matrix with sparse-sign sketching and
fast eigen-decomposition of the entrywise-log similarity.  Our variant keeps
the properties the paper's pipeline depends on — bounded memory, no dense
``n x n`` matrix, the eigen-filtered DeepWalk spectrum — and substitutes the
entrywise-log sketching with a direct low-rank spectral-propagation factor
(DESIGN.md §5, substitution 4):

1. compute the bottom ``dim`` eigenpairs of the integrated Laplacian;
2. window-filter the corresponding normalized-adjacency spectrum
   ``f(1 - lambda)``, clipped at 0;
3. embed each node as its eigenbasis row scaled by ``sqrt(n * f)``.

Without the log, ``sqrt(n * f)`` never rises with ``lambda``, so this
factor is its own top-``dim`` SVD (DESIGN.md §7).  Cost is one sparse
eigensolve plus ``O(n * dim)`` memory.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.embedding.netmf import _window_filter
from repro.solvers import SolverContext, solve_bottom
from repro.utils.sparse import ensure_csr
from repro.utils.validation import check_embedding_dim


def sketchne_embedding(
    laplacian,
    dim: int = 64,
    window: int = 10,
    normalize: bool = True,
    seed=0,
    solver: Optional[SolverContext] = None,
) -> np.ndarray:
    """Scalable spectral-propagation embedding of an integrated Laplacian.

    Parameters
    ----------
    laplacian:
        The integrated MVAG Laplacian ``L`` (spectrum in [0, 2]).
    dim:
        Output dimensionality and eigenpair count (paper fixes 64).
    window:
        Random-walk window ``T`` of the NetMF filter.
    normalize:
        L2-normalize embedding rows (improves downstream linear models).
    solver:
        Optional shared :class:`repro.solvers.SolverContext`.
    """
    laplacian = ensure_csr(laplacian)
    n = laplacian.shape[0]
    dim = check_embedding_dim(dim, n)

    values, vectors = solve_bottom(laplacian, dim, solver=solver, seed=seed)
    s_eigs = np.clip(1.0 - values, -1.0, 1.0)
    filtered = np.clip(_window_filter(s_eigs, window), 0.0, None)
    embedding = vectors * np.sqrt(filtered * float(n))[None, :]

    if normalize:
        norms = np.linalg.norm(embedding, axis=1)
        norms[norms == 0] = 1.0
        embedding = embedding / norms[:, None]
    return embedding
