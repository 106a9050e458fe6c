"""Random-projection tree forest: O(n log n) approximate KNN construction.

The quadratic wall of exhaustive cosine search is the ``n^2`` candidate
pairs; an RP forest shrinks that to ``n_trees * leaf_size`` candidates
per node:

1. **Trees** — each tree recursively splits the node set with a random
   hyperplane (annoy-style two-point direction, median threshold) until
   buckets reach ``leaf_size``.  Cosine-similar points project
   similarly, so neighbors tend to share leaves; the median split keeps
   trees balanced, giving ``O(n log n)`` construction per tree.  Trees
   only *partition*, so they are built on a float32
   Johnson–Lindenstrauss sketch of the features (``sketch_dim``).
2. **Candidate union** — every pair sharing a leaf in *any* tree is a
   candidate; more trees mean independent chances for a true neighbor
   pair to co-occur.  Candidates are scored with true cosines in
   float32 (batched per-leaf GEMMs grouped by leaf size) and each node
   keeps its per-leaf top ``k`` (lossless for the union top-k), merged
   across trees by direct slot scatter: each row sits in exactly one
   leaf per tree, so it owns ``k`` slots per tree.
3. **NN-descent refinement** (optional) — ``refine_iters`` local-join
   sweeps score sibling pairs inside a random ``refine_fanout``-subset
   of each node's joined neighborhood, the classic graph-join step that
   recovers tail recall the trees missed.
4. **Exact re-rank** — the surviving ``n * k`` pairs are re-scored in
   float64, so edge weights are always full-precision cosines.

Recall is a measured knob: raise ``n_trees`` / ``leaf_size`` /
``refine_iters`` to trade build time for recall (table in DESIGN.md
§9).  A forest is a pure function of its features, knobs and seed, so
a streamed view rebuilt after updates equals a cold build of the same
rows.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np
import scipy.sparse as sp

from repro.neighbors.base import (
    NeighborBackend,
    NeighborRequest,
    NeighborResult,
)
from repro.neighbors.registry import register_backend
from repro.utils.errors import ValidationError

DEFAULT_N_TREES = 8
DEFAULT_LEAF_SIZE = 160
DEFAULT_REFINE_ITERS = 0

#: first-hop cap of the NN-descent sweep (best-J neighbors per node).
DEFAULT_REFINE_FANOUT = 8

#: trees are built on a JL sketch of this many dims when the ambient
#: dimension exceeds it (trees partition, they do not score — a random
#: sketch preserves the split geometry at a fraction of the row-gather
#: traffic).  0 disables sketching.
DEFAULT_SKETCH_DIM = 32

#: pair budget per exact-scoring chunk (bounds gathers to ~64 MB at d=32).
_SCORE_CHUNK_PAIRS = 262_144

#: random directions retried per split before declaring the subset
#: unsplittable (duplicate rows) and keeping it as an oversized leaf.
_SPLIT_ATTEMPTS = 3


def _split(normalized, indices: np.ndarray, rng) -> Optional[np.ndarray]:
    """Left-child mask of a median hyperplane split (``None``: unsplittable)."""
    dim = normalized.shape[1]
    for attempt in range(_SPLIT_ATTEMPTS):
        if attempt < _SPLIT_ATTEMPTS - 1:
            # Two-point split (annoy-style): the hyperplane normal to
            # the difference of two random members adapts to the data's
            # spread, separating neighborhoods far better per tree than
            # a data-blind Gaussian direction.
            a, b = rng.choice(indices.size, size=2, replace=False)
            difference = normalized[indices[a]] - normalized[indices[b]]
            if sp.issparse(difference):
                difference = difference.toarray()
            direction = np.asarray(difference).ravel()
            if not direction.any():
                continue  # duplicate rows; try another pair
        else:
            # Last resort for clumped data: an oblivious direction.
            direction = rng.standard_normal(dim)
        projection = np.asarray(normalized[indices].dot(direction)).ravel()
        left = projection <= float(np.median(projection))
        if 0 < int(left.sum()) < indices.size:
            return left
    return None


def _tree_leaves(normalized, leaf_size: int, rng) -> List[np.ndarray]:
    """The leaves of one random-projection tree, a partition of the rows.

    Built iteratively with an explicit stack; median splits keep the
    depth near ``log2(n / leaf_size)``.  A subset no split can divide
    (duplicate rows) stays as one oversized leaf.
    """
    leaves: List[np.ndarray] = []
    stack = [np.arange(normalized.shape[0])]
    while stack:
        indices = stack.pop()
        left = (
            None
            if indices.size <= leaf_size
            else _split(normalized, indices, rng)
        )
        if left is None:
            leaves.append(indices)
        else:
            stack.append(indices[left])
            stack.append(indices[~left])
    return leaves


class RPForest:
    """A forest of independent RP trees over row-normalized features."""

    def __init__(
        self,
        normalized,
        n_trees: int = DEFAULT_N_TREES,
        leaf_size: int = DEFAULT_LEAF_SIZE,
        seed: int = 0,
        sketch_dim: int = DEFAULT_SKETCH_DIM,
    ):
        if n_trees < 1:
            raise ValidationError(f"n_trees must be >= 1, got {n_trees}")
        if leaf_size < 2:
            raise ValidationError(f"leaf_size must be >= 2, got {leaf_size}")
        self.n_trees = int(n_trees)
        # Trees partition, they do not score — so they can be built on a
        # reduced view of the data.  Two reductions apply: float32 (a
        # rounding flip near a hyperplane only moves a boundary point
        # between sibling leaves) and, for high-dimensional features, a
        # Johnson–Lindenstrauss sketch (splits are 1-d projections whose
        # geometry a random sketch preserves; row-gather traffic of the
        # recursive splits drops by d / sketch_dim).  Sketching also
        # densifies sparse features once instead of per-split.
        # Cast before sketching so construction is a function of the
        # float32 view alone — callers handing in float64 features build
        # the same trees as the backend's internal float32 copy.
        if normalized.dtype != np.float32:
            normalized = normalized.astype(np.float32)
        dim = int(normalized.shape[1])
        if 0 < int(sketch_dim) < dim:
            sketch_rng = np.random.default_rng((seed, 2**31 - 7))
            sketch_map = (
                sketch_rng.standard_normal((dim, int(sketch_dim)))
                / np.sqrt(float(sketch_dim))
            ).astype(np.float32)
            normalized = np.asarray(
                normalized @ sketch_map, dtype=np.float32
            )
        self.trees = [
            _tree_leaves(
                normalized, leaf_size, np.random.default_rng((seed, t))
            )
            for t in range(n_trees)
        ]

    def leaf_groups(self):
        """Yield ``(tree_id, leaf)`` index arrays across the forest."""
        for tree_id, leaves in enumerate(self.trees):
            for leaf in leaves:
                yield tree_id, leaf


def _pair_scores(normalized, rows: np.ndarray, cols: np.ndarray) -> np.ndarray:
    """Exact float64 cosines of the given (row, col) pairs, chunked."""
    sparse_input = sp.issparse(normalized)
    out = np.empty(rows.size, dtype=np.float64)
    for start in range(0, rows.size, _SCORE_CHUNK_PAIRS):
        stop = min(start + _SCORE_CHUNK_PAIRS, rows.size)
        r, c = rows[start:stop], cols[start:stop]
        if sparse_input:
            products = normalized[r].multiply(normalized[c])
            out[start:stop] = np.asarray(products.sum(axis=1)).ravel()
        else:
            out[start:stop] = np.einsum(
                "ij,ij->i", normalized[r], normalized[c]
            )
    return out


def _merge_top_k(rows, cols, vals, n: int, k: int):
    """Dedupe directed pairs and keep each row's ``k`` best, in one pass.

    A single stable radix sort on the packed ``row * n + col`` key both
    removes duplicates (stability makes the *first* emitted value win,
    so leaf-GEMM and pair-rerank ulp differences cannot flip results)
    and groups rows; the per-row selection then runs one vectorized
    ``argpartition`` over a dense ``(n, cap)`` scatter instead of a
    3-key lexsort over all triplets — the former merge dominated the
    whole build.  Returns ``(col_table, val_table)``: padded ``(n, k')``
    arrays, value-sorted descending per row, ``-1`` / ``-inf`` padding.
    """
    keys = rows.astype(np.int64) * n + cols.astype(np.int64)
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    vals = vals[order]
    first = np.ones(keys.size, dtype=bool)
    first[1:] = keys[1:] != keys[:-1]
    keys, vals = keys[first], vals[first]
    unique_rows = keys // n
    unique_cols = keys % n

    counts = np.bincount(unique_rows, minlength=n)
    cap = int(counts.max()) if counts.size else 0
    row_starts = np.cumsum(counts) - counts
    positions = np.arange(unique_rows.size) - np.repeat(row_starts, counts)
    val_table = np.full((n, cap), -np.inf)
    col_table = np.full((n, cap), -1, dtype=np.int64)
    val_table[unique_rows, positions] = vals
    col_table[unique_rows, positions] = unique_cols

    keep = min(k, cap)
    if keep < cap:
        top = np.argpartition(val_table, -keep, axis=1)[:, -keep:]
        val_table = np.take_along_axis(val_table, top, axis=1)
        col_table = np.take_along_axis(col_table, top, axis=1)
    # Sort each row's survivors by similarity (descending) so the
    # refinement fanout can take "best J" as a plain slice.
    inner = np.argsort(-val_table, axis=1, kind="stable")
    val_table = np.take_along_axis(val_table, inner, axis=1)
    col_table = np.take_along_axis(col_table, inner, axis=1)
    return col_table, val_table


#: rows per block of the table dedup/top-k finish (bounds its
#: argsort/take_along temporaries to a few MB regardless of n).
_FINISH_BLOCK_ROWS = 65536


def _finish_scatter_tables(col_table, val_table, k: int):
    """Dedupe and select per-row top-``k`` from scatter tables, blocked.

    Every operation is row-independent (per-row column sort, neighbor-
    duplicate masking, ``argpartition``), so processing ``n`` in row
    blocks is bit-identical to the whole-array version while bounding
    the sort/gather temporaries — which at million-node scale otherwise
    rival the ``(n, n_trees * k)`` tables themselves — to one block.
    """
    n, width = col_table.shape
    keep = min(k, width)
    out_cols = np.full((n, keep), -1, dtype=np.int64)
    out_vals = np.full((n, keep), -np.inf)
    for start in range(0, n, _FINISH_BLOCK_ROWS):
        stop = min(start + _FINISH_BLOCK_ROWS, n)
        cols = col_table[start:stop]
        vals = val_table[start:stop]
        order = np.argsort(np.where(cols < 0, n, cols), axis=1)
        cols = np.take_along_axis(cols, order, axis=1)
        vals = np.take_along_axis(vals, order, axis=1)
        duplicate = np.zeros_like(cols, dtype=bool)
        duplicate[:, 1:] = (cols[:, 1:] == cols[:, :-1]) & (cols[:, 1:] >= 0)
        cols[duplicate] = -1
        vals[duplicate] = -np.inf
        if keep < width:
            top = np.argpartition(vals, -keep, axis=1)[:, -keep:]
            vals = np.take_along_axis(vals, top, axis=1)
            cols = np.take_along_axis(cols, top, axis=1)
        out_cols[start:stop] = cols
        out_vals[start:stop] = vals
    # Unlike _merge_top_k, rows are left unsorted by value: the graph
    # assembly canonicalizes order, and the refinement join re-merges
    # through _merge_top_k anyway.
    return out_cols, out_vals


def _table_triplets(col_table, val_table):
    """Flatten padded neighbor tables back into directed triplets."""
    n, width = col_table.shape
    valid = col_table >= 0
    rows = np.repeat(np.arange(n, dtype=np.int64), width)[valid.ravel()]
    return rows, col_table[valid], val_table[valid]


def _refinement_pairs(
    col_table: np.ndarray,
    val_table: np.ndarray,
    n: int,
    fanout: int,
    seed: int = 0,
    sweep: int = 0,
) -> Tuple[np.ndarray, np.ndarray]:
    """One NN-descent **local join**: candidate pairs among each node's
    undirected neighborhood.

    If ``a`` and ``b`` are both close to ``j``, they are likely close to
    each other — so every node ``j`` proposes all ordered pairs within a
    ``fanout``-sized *random sample* of its joined (out + reverse)
    neighborhood, bounding the sweep at ``n J (J - 1)`` pairs.  The
    sample is the NN-descent move: joining only the top-J similarity
    clique re-proposes pairs the forest already agrees on, while random
    members carry independent information into the join (sampling is
    seeded per sweep, so builds stay deterministic).  Unlike a two-hop
    walk, the join surfaces *sibling* pairs in a single sweep, which is
    what makes NN-descent converge in one or two iterations.
    """
    rows, cols, vals = _table_triplets(col_table, val_table)
    # Undirected neighborhood (out + reverse edges, forward similarity).
    union_cols, _ = _merge_top_k(
        np.concatenate([rows, cols]),
        np.concatenate([cols, rows]),
        np.concatenate([vals, vals]),
        n,
        2 * col_table.shape[1],
    )
    width = union_cols.shape[1]
    if width < 2:
        empty = np.empty(0, dtype=np.int64)
        return empty, empty
    if width > fanout:
        # Per-row random J-subset: rank random keys, invalid slots last.
        rng = np.random.default_rng((seed, sweep))
        keys = rng.random(union_cols.shape)
        keys[union_cols < 0] = np.inf
        pick = np.argpartition(keys, min(fanout, width - 1), axis=1)[:, :fanout]
        union_cols = np.take_along_axis(union_cols, pick, axis=1)
        width = fanout
    left = np.repeat(union_cols, width, axis=1).reshape(-1)
    right = np.tile(union_cols, (1, width)).reshape(-1)
    valid = (left >= 0) & (right >= 0) & (left != right)
    return left[valid], right[valid]


def _leaf_scatter(low, forest: RPForest, k: int, col_table, val_table) -> int:
    """Per-leaf candidate scoring, scattered straight into the merge tables.

    Per-leaf top-k is lossless: a pair in the global top-k of row ``i``
    is by definition among the best ``k`` of every leaf containing both
    endpoints, so the union over trees loses nothing — and the emitted
    candidate volume drops from ``leaf_size`` to ``k`` per node per tree.

    ``low`` is the float32 copy of the normalized features: candidate
    *selection* runs at half the memory traffic, and the survivors are
    re-scored in exact float64 at the end of the build (selection flips
    need a ~1e-7 similarity tie, far inside the approximation noise).

    Each row sits in one leaf per tree, so every scored chunk lands in
    distinct ``(row, tree_id * k + slot)`` cells at once and scatter
    order is irrelevant; peak candidate memory is one scoring chunk,
    not the ``~n * n_trees * k`` triplet stream.  Dense features batch
    all leaves of equal size into one stacked GEMM (median splits
    produce only a handful of distinct sizes); sparse features keep a
    per-leaf loop (scipy has no batched spmatmul).

    Returns the number of scored candidate pairs.
    """
    sparse_input = sp.issparse(low)
    by_size = {}
    for tree_id, leaf in forest.leaf_groups():
        if leaf.size >= 2:
            by_size.setdefault(leaf.size, []).append((tree_id, leaf))

    scored = 0
    for m, leaves in sorted(by_size.items()):
        keep = min(k, m - 1)
        if sparse_input:
            for tree_id, leaf in leaves:
                block = low[leaf]
                sims = block.dot(block.T).toarray()
                scored += m * (m - 1)
                np.fill_diagonal(sims, -np.inf)
                top = np.argpartition(sims, -keep, axis=1)[:, -keep:]
                rows = np.repeat(leaf, keep)
                slots = np.tile(tree_id * k + np.arange(keep), m)
                col_table[rows, slots] = leaf[top.ravel()]
                val_table[rows, slots] = np.take_along_axis(
                    sims, top, axis=1
                ).ravel()
            continue
        group_chunk = max(1, 16_000_000 // (m * m))
        for start in range(0, len(leaves), group_chunk):
            chunk = leaves[start : start + group_chunk]
            index = np.stack([leaf for _, leaf in chunk])  # (g, m)
            blocks = low[index]  # (g, m, d)
            sims = np.matmul(blocks, blocks.transpose(0, 2, 1))
            scored += len(chunk) * m * (m - 1)
            diagonal = np.arange(m)
            sims[:, diagonal, diagonal] = -np.inf
            flat = sims.reshape(len(chunk) * m, m)
            top = np.argpartition(flat, -keep, axis=1)[:, -keep:]
            group_of_row = np.repeat(np.arange(len(chunk)), m)[:, None]
            rows = np.repeat(index.ravel(), keep)
            tree_ids = np.asarray([tree_id for tree_id, _ in chunk])
            slots = (
                tree_ids[:, None, None] * k
                + np.arange(keep)[None, None, :]
                + np.zeros((1, m, 1), dtype=np.int64)
            ).reshape(-1)
            col_table[rows, slots] = index[group_of_row, top].ravel()
            val_table[rows, slots] = np.take_along_axis(
                flat, top, axis=1
            ).ravel().astype(np.float64)
    return scored


class RPForestNeighborBackend(NeighborBackend):
    """Approximate cosine KNN via an RP-tree forest + exact re-rank."""

    name = "rp-forest"
    accepted_params = (
        "n_trees", "leaf_size", "refine_iters", "refine_fanout", "sketch_dim",
    )

    def neighbors(self, request: NeighborRequest) -> NeighborResult:
        normalized = request.normalized
        n = normalized.shape[0]
        k = min(request.k, n - 1)
        params = request.params
        refine_iters = int(params.get("refine_iters", DEFAULT_REFINE_ITERS))
        fanout = int(params.get("refine_fanout", DEFAULT_REFINE_FANOUT))
        # Candidate scoring runs on a float32 copy (the build is memory-
        # bandwidth-bound); survivors are re-scored in float64 below.
        low = normalized.astype(np.float32)
        forest = RPForest(
            low,
            n_trees=int(params.get("n_trees", DEFAULT_N_TREES)),
            leaf_size=int(params.get("leaf_size", DEFAULT_LEAF_SIZE)),
            seed=request.seed,
            sketch_dim=int(params.get("sketch_dim", DEFAULT_SKETCH_DIM)),
        )
        width = forest.n_trees * k
        col_table = np.full((n, width), -1, dtype=np.int64)
        val_table = np.full((n, width), -np.inf)
        scored = _leaf_scatter(low, forest, k, col_table, val_table)
        if scored == 0:
            empty = np.empty(0, dtype=np.int64)
            return NeighborResult(
                rows=empty, cols=empty, vals=np.empty(0),
                candidate_pairs=0, exact=False,
            )
        col_table, val_table = _finish_scatter_tables(col_table, val_table, k)

        for sweep in range(max(refine_iters, 0)):
            new_rows, new_cols = _refinement_pairs(
                col_table, val_table, n, fanout,
                seed=request.seed, sweep=sweep,
            )
            if new_rows.size == 0:
                break
            rows, cols, vals = _table_triplets(col_table, val_table)
            # Dedupe the sweep and drop already-known pairs before
            # scoring: the join proposes each sibling pair from both
            # endpoints and re-proposes current edges, and the gather-
            # and-score pass is the sweep's dominant cost at higher d.
            new_keys = np.unique(new_rows * n + new_cols)
            fresh = new_keys[
                ~np.isin(new_keys, rows * n + cols, assume_unique=False)
            ]
            if fresh.size == 0:
                break
            new_rows, new_cols = fresh // n, fresh % n
            new_vals = _pair_scores(low, new_rows, new_cols)
            scored += new_rows.size
            col_table, val_table = _merge_top_k(
                np.concatenate([rows, new_rows]),
                np.concatenate([cols, new_cols]),
                np.concatenate([vals, new_vals]),
                n,
                k,
            )

        rows, cols, vals = _table_triplets(col_table, val_table)
        # Exact re-rank: edge weights are full-precision float64 cosines
        # regardless of the float32 selection path (n * k pairs — cheap
        # next to the candidate sweep it replaces).  Dense features use
        # the table form, which gathers only the neighbor side (the row
        # side streams sequentially through the einsum).
        if sp.issparse(normalized):
            vals = _pair_scores(normalized, rows, cols)
        else:
            width = col_table.shape[1]
            dim = normalized.shape[1]
            exact_vals = np.empty((n, width))
            slab = max(1, _SCORE_CHUNK_PAIRS // max(width * dim // 8, 1))
            for start in range(0, n, slab):
                stop = min(start + slab, n)
                block = col_table[start:stop]
                gathered = normalized[np.clip(block, 0, None).ravel()]
                gathered = gathered.reshape(stop - start, width, dim)
                exact_vals[start:stop] = np.einsum(
                    "nd,nkd->nk", normalized[start:stop], gathered
                )
            vals = exact_vals[col_table >= 0]
        return NeighborResult(
            rows=rows,
            cols=cols,
            vals=vals,
            candidate_pairs=scored,
            exact=False,
        )


register_backend(RPForestNeighborBackend())
