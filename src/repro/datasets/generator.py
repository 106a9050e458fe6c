"""Synthetic multi-view attributed graph generation.

Graph views come from a planted-partition (stochastic block) model with a
per-view *strength* knob: strength 1 puts all edge mass within clusters,
strength 0 is an Erdős–Rényi graph that carries no community signal.
Attribute views are Gaussian mixtures (numerical) or Bernoulli topic models
(binary), again with a per-view *signal* knob.  Heterogeneous strengths are
what make view weighting matter — the property SGLA exploits.

Sampling is edge-count based per block pair (never materializes an
``n x n`` probability matrix), so million-edge views at ``n ~ 2.5e4``
generate in seconds.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path
from typing import List, Optional, Sequence, Union

import numpy as np
import scipy.sparse as sp

from repro.core.mvag import MVAG
from repro.datasets.io import MemmapMVAG, _write_dataset, open_mvag_memmap
from repro.utils.errors import ValidationError
from repro.utils.random import check_random_state
from repro.utils.validation import check_labels


@dataclass(frozen=True)
class GraphViewSpec:
    """Specification of one synthetic graph view.

    Attributes
    ----------
    strength:
        Community signal in [0, 1]: the fraction of edge mass placed within
        clusters beyond the random baseline.
    avg_degree:
        Expected average (unweighted) node degree.
    visible_fraction:
        Fraction of clusters whose community structure this view can see
        (in (0, 1]).  Views with ``visible_fraction < 1`` are *partial*:
        the invisible clusters' nodes receive only random edges, so the
        full partition is recoverable only by combining complementary
        views — the running-example property (paper Fig. 2) that makes
        view weighting genuinely necessary.
    confounding:
        If True, the view exhibits community structure over a *confounder*
        partition instead of the ground-truth one.  All confounding views
        of one MVAG share a single confounder partition (drawn once per
        dataset), modeling real-world views organized by an orthogonal
        principle (e.g. geography instead of community): the confounders
        agree with each other but not with the truthful views, so
        averaging-based integrations are pulled toward the wrong
        structure while weight-searching methods can select the truthful
        coalition.
    """

    strength: float
    avg_degree: float = 10.0
    visible_fraction: float = 1.0
    confounding: bool = False

    def __post_init__(self) -> None:
        if not 0.0 <= self.strength <= 1.0:
            raise ValidationError(
                f"strength must be in [0, 1], got {self.strength}"
            )
        if self.avg_degree <= 0:
            raise ValidationError(
                f"avg_degree must be positive, got {self.avg_degree}"
            )
        if not 0.0 < self.visible_fraction <= 1.0:
            raise ValidationError(
                f"visible_fraction must be in (0, 1], got {self.visible_fraction}"
            )


@dataclass(frozen=True)
class AttributeViewSpec:
    """Specification of one synthetic attribute view.

    Attributes
    ----------
    dim:
        Feature dimensionality.
    signal:
        Class separation in [0, 1]: 0 is pure noise, 1 is near-separable.
    kind:
        ``"numerical"`` (Gaussian mixture, dense) or ``"binary"``
        (Bernoulli topic model, sparse CSR).
    """

    dim: int
    signal: float = 0.5
    kind: str = "numerical"

    def __post_init__(self) -> None:
        if self.dim < 1:
            raise ValidationError(f"dim must be >= 1, got {self.dim}")
        if not 0.0 <= self.signal <= 1.0:
            raise ValidationError(f"signal must be in [0, 1], got {self.signal}")
        if self.kind not in ("numerical", "binary"):
            raise ValidationError(f"kind must be numerical|binary, got {self.kind}")


# --------------------------------------------------------------------- #
# Graph views
# --------------------------------------------------------------------- #


def _balanced_labels(n: int, k: int, balance: float, rng) -> np.ndarray:
    """Cluster labels with size proportions from a Dirichlet draw.

    ``balance`` >= 1 concentrates toward equal sizes; small values give
    skewed clusters.  Every cluster receives at least two nodes.
    """
    proportions = rng.dirichlet(np.full(k, 10.0 * balance))
    sizes = np.maximum(2, np.round(proportions * n).astype(int))
    # Fix rounding drift while respecting the minimum size.
    while sizes.sum() > n:
        sizes[int(np.argmax(sizes))] -= 1
    while sizes.sum() < n:
        sizes[int(np.argmin(sizes))] += 1
    labels = np.repeat(np.arange(k), sizes)
    rng.shuffle(labels)
    return labels


def _sample_pairs_within(members: np.ndarray, n_edges: int, rng) -> np.ndarray:
    size = members.size
    if size < 2 or n_edges <= 0:
        return np.empty((0, 2), dtype=np.int64)
    left = members[rng.integers(0, size, n_edges)]
    right = members[rng.integers(0, size, n_edges)]
    keep = left != right
    return np.column_stack([left[keep], right[keep]])


def _sample_pairs_between(
    members_a: np.ndarray, members_b: np.ndarray, n_edges: int, rng
) -> np.ndarray:
    if members_a.size == 0 or members_b.size == 0 or n_edges <= 0:
        return np.empty((0, 2), dtype=np.int64)
    left = members_a[rng.integers(0, members_a.size, n_edges)]
    right = members_b[rng.integers(0, members_b.size, n_edges)]
    return np.column_stack([left, right])


def planted_partition_graph(
    labels: np.ndarray,
    strength: float,
    avg_degree: float,
    rng=None,
    visible_clusters=None,
) -> sp.csr_matrix:
    """Sample one SBM graph view over fixed cluster ``labels``.

    The expected number of undirected edges is ``n * avg_degree / 2``; a
    fraction ``mix = 1/k + strength * (1 - 1/k)`` of them is placed within
    clusters (``strength = 0`` matches the random baseline ``1/k`` for
    balanced clusters, ``strength = 1`` is fully assortative).

    ``visible_clusters`` optionally restricts which clusters receive
    within-cluster edge mass; invisible clusters only participate in the
    random (between-cluster) edges, making the view blind to them.
    """
    rng = check_random_state(rng)
    labels = np.asarray(labels)
    n = labels.shape[0]
    k = int(labels.max()) + 1
    total_edges = int(round(n * avg_degree / 2.0))
    mix = 1.0 / k + strength * (1.0 - 1.0 / k)
    intra_total = int(round(total_edges * mix))
    inter_total = total_edges - intra_total

    members = [np.flatnonzero(labels == cluster) for cluster in range(k)]
    if visible_clusters is None:
        visible = np.ones(k, dtype=bool)
    else:
        visible = np.zeros(k, dtype=bool)
        visible[np.asarray(list(visible_clusters), dtype=int)] = True
    pair_chunks: List[np.ndarray] = []

    # Within-cluster edges, allocated by cluster pair count (size choose 2)
    # over the *visible* clusters only.
    intra_capacity = np.array(
        [
            m.size * (m.size - 1) / 2.0 if visible[c] else 0.0
            for c, m in enumerate(members)
        ],
        dtype=np.float64,
    )
    if intra_capacity.sum() > 0 and intra_total > 0:
        allocation = rng.multinomial(
            intra_total, intra_capacity / intra_capacity.sum()
        )
        for cluster, count in enumerate(allocation):
            pair_chunks.append(_sample_pairs_within(members[cluster], count, rng))

    # Between-cluster edges, allocated by block capacity.
    if k > 1 and inter_total > 0:
        blocks = [(a, b) for a in range(k) for b in range(a + 1, k)]
        capacity = np.array(
            [members[a].size * members[b].size for a, b in blocks],
            dtype=np.float64,
        )
        if capacity.sum() > 0:
            allocation = rng.multinomial(inter_total, capacity / capacity.sum())
            for (a, b), count in zip(blocks, allocation):
                pair_chunks.append(
                    _sample_pairs_between(members[a], members[b], count, rng)
                )

    if pair_chunks:
        pairs = np.vstack([chunk for chunk in pair_chunks if chunk.size])
    else:
        pairs = np.empty((0, 2), dtype=np.int64)
    if pairs.size == 0:
        return sp.csr_matrix((n, n), dtype=np.float64)
    rows = np.concatenate([pairs[:, 0], pairs[:, 1]])
    cols = np.concatenate([pairs[:, 1], pairs[:, 0]])
    data = np.ones(rows.shape[0], dtype=np.float64)
    adjacency = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    # Duplicate samples collapse to weight 1 (simple graph).
    adjacency.data[:] = 1.0
    adjacency.setdiag(0.0)
    adjacency.eliminate_zeros()
    return adjacency


# --------------------------------------------------------------------- #
# Attribute views
# --------------------------------------------------------------------- #


#: rows drawn per step when a numerical view fills its buffer.
CHUNK_ROWS = 65536


def _numerical_attributes(
    out: np.ndarray,
    labels: np.ndarray,
    spec: AttributeViewSpec,
    rng,
    chunk_rows: int,
) -> None:
    """Fill ``out`` (``n x spec.dim`` float64) with a Gaussian-mixture view.

    The centers are drawn first, then the row noise ``chunk_rows`` rows at
    a time straight into ``out``.  numpy's ``Generator`` fills buffers
    sequentially in C order, so every chunking draws the numbers one
    ``(n, dim)`` call would, and ``out`` may be a file-backed memmap.
    """
    k = int(labels.max()) + 1
    centers = rng.standard_normal((k, spec.dim))
    # Separation ~ 2 * signal keeps overlap realistic at signal ~ 0.5.
    scale = 2.0 * spec.signal
    for start in range(0, labels.shape[0], chunk_rows):
        block = out[start : start + chunk_rows]
        rng.standard_normal(out=block)
        block += scale * centers[labels[start : start + chunk_rows]]


def _binary_attributes(
    labels: np.ndarray, spec: AttributeViewSpec, rng
) -> sp.csr_matrix:
    n = labels.shape[0]
    k = int(labels.max()) + 1
    base_rate = min(0.05, 20.0 / spec.dim)
    elevated_rate = min(0.95, base_rate + 0.5 * spec.signal)
    topic_size = max(1, spec.dim // k)
    probabilities = np.full((k, spec.dim), base_rate)
    for cluster in range(k):
        start = (cluster * topic_size) % spec.dim
        stop = min(start + topic_size, spec.dim)
        probabilities[cluster, start:stop] = elevated_rate
    draws = rng.random((n, spec.dim)) < probabilities[labels]
    return sp.csr_matrix(draws.astype(np.float64))


# --------------------------------------------------------------------- #
# Front end
# --------------------------------------------------------------------- #


def _coerce_graph_specs(
    strengths: Sequence[Union[float, GraphViewSpec]],
    avg_degree: float,
) -> List[GraphViewSpec]:
    specs = []
    for item in strengths:
        if isinstance(item, GraphViewSpec):
            specs.append(item)
        else:
            specs.append(GraphViewSpec(strength=float(item), avg_degree=avg_degree))
    return specs


def _coerce_attribute_specs(
    dims: Sequence[Union[int, AttributeViewSpec]],
    signals: Optional[Sequence[float]],
    default_signal: float,
) -> List[AttributeViewSpec]:
    specs = []
    for index, item in enumerate(dims):
        if isinstance(item, AttributeViewSpec):
            specs.append(item)
        else:
            signal = (
                float(signals[index]) if signals is not None else default_signal
            )
            specs.append(AttributeViewSpec(dim=int(item), signal=signal))
    return specs


def _draw_views(
    n_nodes, n_clusters, graph_view_strengths, attribute_view_dims,
    attribute_view_signals, avg_degree, default_attribute_signal, balance,
    seed, dense_buffer, chunk_rows,
):
    """Labels, graph views and attribute views, in one fixed RNG order.

    Both generators draw through here, so a seed names one dataset
    whichever of them writes it.  ``dense_buffer(j, shape)`` supplies the
    float64 array that numerical attribute view ``j`` is filled into (in
    RAM, or an ``open_memmap`` file); binary views come back as CSR.
    Returns ``(labels, graph_views, attribute_views)``.
    """
    if n_nodes < 2 * n_clusters:
        raise ValidationError(
            f"need n_nodes >= 2 * n_clusters, got {n_nodes} and {n_clusters}"
        )
    rng = check_random_state(seed)
    labels = _balanced_labels(n_nodes, n_clusters, balance, rng)

    graph_specs = _coerce_graph_specs(graph_view_strengths, avg_degree)
    attribute_specs = _coerce_attribute_specs(
        attribute_view_dims, attribute_view_signals, default_attribute_signal
    )
    if not graph_specs and not attribute_specs:
        raise ValidationError("need at least one view specification")

    # One confounder partition per dataset, shared by all confounding views
    # (see GraphViewSpec.confounding).
    confounder_labels = rng.permutation(labels)

    graph_views = []
    for spec in graph_specs:
        view_labels = confounder_labels if spec.confounding else labels
        if spec.visible_fraction < 1.0:
            n_visible = max(1, int(round(spec.visible_fraction * n_clusters)))
            visible_clusters = rng.choice(
                n_clusters, size=n_visible, replace=False
            )
        else:
            visible_clusters = None
        graph_views.append(
            planted_partition_graph(
                view_labels,
                spec.strength,
                spec.avg_degree,
                rng,
                visible_clusters=visible_clusters,
            )
        )
    attribute_views = []
    for j, spec in enumerate(attribute_specs):
        if spec.kind == "numerical":
            features = dense_buffer(j, (n_nodes, spec.dim))
            _numerical_attributes(features, labels, spec, rng, chunk_rows)
        else:
            features = _binary_attributes(labels, spec, rng)
        attribute_views.append(features)
    return labels, graph_views, attribute_views


def generate_mvag(
    n_nodes: int,
    n_clusters: int,
    graph_view_strengths: Sequence[Union[float, GraphViewSpec]] = (0.8, 0.4),
    attribute_view_dims: Sequence[Union[int, AttributeViewSpec]] = (32,),
    attribute_view_signals: Optional[Sequence[float]] = None,
    avg_degree: float = 10.0,
    default_attribute_signal: float = 0.5,
    balance: float = 1.0,
    seed=None,
    name: str = "synthetic",
) -> MVAG:
    """Generate a labeled synthetic MVAG.

    Parameters
    ----------
    n_nodes, n_clusters:
        Size of the node set and number of planted communities.
    graph_view_strengths:
        One entry per graph view: a strength float (``avg_degree`` shared)
        or a full :class:`GraphViewSpec`.
    attribute_view_dims:
        One entry per attribute view: a dimensionality int or a full
        :class:`AttributeViewSpec`.
    attribute_view_signals:
        Optional per-attribute-view signals aligned with
        ``attribute_view_dims`` (ignored for entries that are full specs).
    avg_degree:
        Shared expected degree for float-specified graph views.
    balance:
        Cluster-size balance (>= 1 near-equal, < 1 skewed).
    seed:
        Master determinism seed.
    name:
        Dataset name recorded on the MVAG.
    """
    labels, graph_views, attribute_views = _draw_views(
        n_nodes, n_clusters, graph_view_strengths, attribute_view_dims,
        attribute_view_signals, avg_degree, default_attribute_signal,
        balance, seed, lambda j, shape: np.empty(shape), CHUNK_ROWS,
    )
    return MVAG(
        graph_views=graph_views,
        attribute_views=attribute_views,
        labels=labels,
        name=name,
    )


def generate_mvag_memmap(
    path,
    n_nodes: int,
    n_clusters: int,
    graph_view_strengths: Sequence[Union[float, GraphViewSpec]] = (0.8, 0.4),
    attribute_view_dims: Sequence[Union[int, AttributeViewSpec]] = (32,),
    attribute_view_signals: Optional[Sequence[float]] = None,
    avg_degree: float = 10.0,
    default_attribute_signal: float = 0.5,
    balance: float = 1.0,
    seed=None,
    name: str = "synthetic",
    chunk_rows: int = CHUNK_ROWS,
) -> MemmapMVAG:
    """Generate a labeled synthetic MVAG straight into a memmap directory.

    Same signature and distribution as :func:`generate_mvag` (plus
    ``path`` and ``chunk_rows``) and the same draws: both run
    :func:`_draw_views`, so for any fixed seed the written dataset is
    bit-identical to ``save_mvag_memmap(generate_mvag(...), path)``.
    The difference is the peak footprint: each numerical attribute view
    (the dense memory hog at million-node scale) is filled
    ``chunk_rows`` rows at a time straight into its on-disk ``.npy``
    file and never passes through :class:`MVAG`, whose finiteness check
    would allocate an ``n x d`` temporary.  Graph views and binary
    attribute views are built in RAM and written by the same code as
    :func:`~repro.datasets.io.save_mvag_memmap`.

    Returns the opened :class:`repro.datasets.io.MemmapMVAG`.
    """
    if chunk_rows < 1:
        raise ValidationError(f"chunk_rows must be >= 1, got {chunk_rows}")
    path = Path(path)

    def dense_buffer(j, shape):
        path.mkdir(parents=True, exist_ok=True)
        return np.lib.format.open_memmap(
            path / f"attr_{j}.npy", mode="w+", dtype=np.float64, shape=shape
        )

    labels, graph_views, attribute_views = _draw_views(
        n_nodes, n_clusters, graph_view_strengths, attribute_view_dims,
        attribute_view_signals, avg_degree, default_attribute_signal,
        balance, seed, dense_buffer, chunk_rows,
    )
    for features in attribute_views:
        if isinstance(features, np.memmap):
            features.flush()
    # planted_partition_graph already returns the simple graphs (CSR,
    # symmetric, zero diagonal) that MVAG would make of them, so only
    # the labels need MVAG's int64 form.
    _write_dataset(
        path, name, n_nodes, graph_views, attribute_views,
        check_labels(labels, n=n_nodes),
    )
    return open_mvag_memmap(path)
