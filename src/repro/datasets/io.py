"""On-disk MVAG persistence: compressed ``.npz`` archives and memmap dirs.

Two formats serve two scales:

* :func:`save_mvag` / :func:`load_mvag` — a single compressed ``.npz``
  file, loaded fully into RAM.  The right choice up to a few hundred
  thousand nodes.
* :func:`save_mvag_memmap` / :func:`open_mvag_memmap` — a directory of
  raw ``.npy`` component files plus a ``meta.json`` manifest, reopened
  with ``mmap_mode="r"`` so views stay disk-backed
  (:class:`MemmapMVAG`).  Graph views become CSR matrices whose
  ``data``/``indices``/``indptr`` arrays are memory-mapped; dense
  attribute views stay memory-mapped end to end (the Laplacian build
  streams their row normalization through a bounded chunk buffer, see
  :func:`repro.core.laplacian.build_view_laplacians`).  This is the
  substrate of the million-node multilevel benchmarks.

Both formats store graph views in CSR component form, attribute views
either dense or CSR; labels and the dataset name ride along.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import List, Optional, Union

import numpy as np
import scipy.sparse as sp

from repro.core.mvag import MVAG
from repro.utils.errors import ValidationError

PathLike = Union[str, Path]
_FORMAT_VERSION = 1
_MEMMAP_FORMAT_VERSION = 1
_META_FILENAME = "meta.json"


def _pack_csr(prefix: str, matrix: sp.csr_matrix, store: dict) -> None:
    store[f"{prefix}_data"] = matrix.data
    store[f"{prefix}_indices"] = matrix.indices
    store[f"{prefix}_indptr"] = matrix.indptr
    store[f"{prefix}_shape"] = np.asarray(matrix.shape)


def _unpack_csr(prefix: str, archive) -> sp.csr_matrix:
    return sp.csr_matrix(
        (
            archive[f"{prefix}_data"],
            archive[f"{prefix}_indices"],
            archive[f"{prefix}_indptr"],
        ),
        shape=tuple(archive[f"{prefix}_shape"]),
    )


def save_mvag(mvag: MVAG, path: PathLike) -> None:
    """Serialize an MVAG to a compressed npz archive."""
    store: dict = {
        "format_version": np.asarray(_FORMAT_VERSION),
        "name": np.asarray(mvag.name),
        "n_graph_views": np.asarray(mvag.n_graph_views),
        "n_attribute_views": np.asarray(mvag.n_attribute_views),
    }
    for i, adjacency in enumerate(mvag.graph_views):
        _pack_csr(f"graph_{i}", adjacency, store)
    for j, features in enumerate(mvag.attribute_views):
        if sp.issparse(features):
            store[f"attr_{j}_sparse"] = np.asarray(1)
            _pack_csr(f"attr_{j}", features.tocsr(), store)
        else:
            store[f"attr_{j}_sparse"] = np.asarray(0)
            store[f"attr_{j}_dense"] = np.asarray(features)
    if mvag.labels is not None:
        store["labels"] = mvag.labels
    np.savez_compressed(Path(path), **store)


def load_mvag(path: PathLike) -> MVAG:
    """Load an MVAG previously written by :func:`save_mvag`."""
    path = Path(path)
    if not path.exists():
        raise ValidationError(f"no such file: {path}")
    with np.load(path, allow_pickle=False) as archive:
        version = int(archive["format_version"])
        if version != _FORMAT_VERSION:
            raise ValidationError(
                f"unsupported MVAG archive version {version} "
                f"(expected {_FORMAT_VERSION})"
            )
        n_graph_views = int(archive["n_graph_views"])
        n_attribute_views = int(archive["n_attribute_views"])
        graph_views = [
            _unpack_csr(f"graph_{i}", archive) for i in range(n_graph_views)
        ]
        attribute_views = []
        for j in range(n_attribute_views):
            if int(archive[f"attr_{j}_sparse"]):
                attribute_views.append(_unpack_csr(f"attr_{j}", archive))
            else:
                attribute_views.append(archive[f"attr_{j}_dense"])
        labels = archive["labels"] if "labels" in archive else None
        name = str(archive["name"])
    return MVAG(
        graph_views=graph_views,
        attribute_views=attribute_views,
        labels=labels,
        name=name,
    )


# --------------------------------------------------------------------- #
# Memmap directory format (out-of-core)
# --------------------------------------------------------------------- #


def _write_array(directory: Path, stem: str, array: np.ndarray) -> None:
    np.save(directory / f"{stem}.npy", np.ascontiguousarray(array))


def _open_array(directory: Path, stem: str) -> np.ndarray:
    file_path = directory / f"{stem}.npy"
    if not file_path.exists():
        raise ValidationError(f"missing component file: {file_path}")
    return np.load(file_path, mmap_mode="r")


def _write_csr_components(
    directory: Path, prefix: str, matrix: sp.csr_matrix
) -> None:
    matrix = matrix.tocsr()
    matrix.sort_indices()
    _write_array(directory, f"{prefix}_data", matrix.data)
    _write_array(directory, f"{prefix}_indices", matrix.indices)
    _write_array(directory, f"{prefix}_indptr", matrix.indptr)


def _open_csr_components(directory: Path, prefix: str, shape) -> sp.csr_matrix:
    # The component arrays keep their on-disk dtype, so scipy wraps the
    # memmaps without copying; the matrix reads straight off the page
    # cache.
    return sp.csr_matrix(
        (
            _open_array(directory, f"{prefix}_data"),
            _open_array(directory, f"{prefix}_indices"),
            _open_array(directory, f"{prefix}_indptr"),
        ),
        shape=tuple(shape),
    )


def save_mvag_memmap(mvag, path: PathLike) -> Path:
    """Serialize an MVAG (or :class:`MemmapMVAG`) to a memmap directory.

    The directory holds one raw ``.npy`` file per array component plus a
    ``meta.json`` manifest; ``meta.json`` is written last, so a complete
    manifest marks a complete dataset.  Returns the directory path.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    attribute_views = list(mvag.attribute_views)
    for j, features in enumerate(attribute_views):
        if not sp.issparse(features):
            _write_array(
                path, f"attr_{j}", np.asarray(features, dtype=np.float64)
            )
    return _write_dataset(
        path, mvag.name, mvag.n_nodes, list(mvag.graph_views),
        attribute_views, getattr(mvag, "labels", None),
    )


def _write_dataset(
    path: Path,
    name: str,
    n_nodes: int,
    graph_views: List[sp.csr_matrix],
    attribute_views: List,
    labels: Optional[np.ndarray],
) -> Path:
    """Write every component but the dense attribute views, then the
    manifest.

    Dense view ``j`` must already be at ``attr_{j}.npy``
    (:func:`save_mvag_memmap` saves it; the memmap generator fills it in
    place); the manifest only reads its width.
    """
    path.mkdir(parents=True, exist_ok=True)
    for i, adjacency in enumerate(graph_views):
        _write_csr_components(path, f"graph_{i}", adjacency)
    for j, features in enumerate(attribute_views):
        if sp.issparse(features):
            _write_csr_components(path, f"attr_{j}", features.tocsr())
    if labels is not None:
        _write_array(path, "labels", np.asarray(labels))
    meta = {
        "format_version": _MEMMAP_FORMAT_VERSION,
        "name": str(name),
        "n_nodes": int(n_nodes),
        "n_graph_views": len(graph_views),
        "attribute_views": [
            {"sparse": sp.issparse(features), "dim": int(features.shape[1])}
            for features in attribute_views
        ],
        "has_labels": labels is not None,
    }
    (path / _META_FILENAME).write_text(
        json.dumps(meta, indent=2, sort_keys=True) + "\n"
    )
    return path


class MemmapMVAG:
    """A disk-backed MVAG opened from a memmap directory.

    Mirrors the read API of :class:`repro.core.mvag.MVAG` (it passes
    :func:`repro.core.mvag.is_mvag_like`, so the whole pipeline accepts
    it), but every view stays memory-mapped read-only: graph views are
    CSR matrices over memmapped component arrays, dense attribute views
    are memmapped ``float64`` matrices.  Only the labels (one int per
    node) are loaded eagerly.

    Notes
    -----
    * Views opened here must not be mutated; the maps are read-only.
    * Sharded view builds (``shard_workers``) pickle the views to worker
      processes, which materializes them — keep the flat in-process
      build (the default) for out-of-core runs.
    * :meth:`close` drops the array references; accessing views after
      close raises :class:`~repro.utils.errors.ValidationError`.  The
      class is a context manager.
    """

    def __init__(self, path: PathLike) -> None:
        self._path = Path(path)
        meta_path = self._path / _META_FILENAME
        if not meta_path.exists():
            raise ValidationError(
                f"not an MVAG memmap directory (no {_META_FILENAME}): "
                f"{self._path}"
            )
        meta = json.loads(meta_path.read_text())
        version = int(meta.get("format_version", -1))
        if version != _MEMMAP_FORMAT_VERSION:
            raise ValidationError(
                f"unsupported MVAG memmap version {version} "
                f"(expected {_MEMMAP_FORMAT_VERSION})"
            )
        self.name = str(meta["name"])
        self._n = int(meta["n_nodes"])
        n = self._n
        self._graphs = [
            _open_csr_components(self._path, f"graph_{i}", (n, n))
            for i in range(int(meta["n_graph_views"]))
        ]
        self._attributes: List = []
        for j, spec in enumerate(meta["attribute_views"]):
            if spec["sparse"]:
                self._attributes.append(
                    _open_csr_components(
                        self._path, f"attr_{j}", (n, int(spec["dim"]))
                    )
                )
            else:
                self._attributes.append(_open_array(self._path, f"attr_{j}"))
        self.labels: Optional[np.ndarray] = (
            np.array(_open_array(self._path, "labels"))
            if meta["has_labels"]
            else None
        )
        self._closed = False

    # ------------------------------------------------------------------ #

    def _require_open(self) -> None:
        if self._closed:
            raise ValidationError(
                f"MemmapMVAG {self.name!r} is closed; reopen it with "
                f"open_mvag_memmap({str(self._path)!r})"
            )

    @property
    def path(self) -> Path:
        """The backing directory."""
        return self._path

    @property
    def n_nodes(self) -> int:
        """Number of nodes ``n``."""
        return self._n

    @property
    def graph_views(self) -> List[sp.csr_matrix]:
        """The ``p`` adjacency matrices (CSR over memmapped components)."""
        self._require_open()
        return list(self._graphs)

    @property
    def attribute_views(self) -> List:
        """The ``q`` attribute matrices (dense ones stay memmapped)."""
        self._require_open()
        return list(self._attributes)

    @property
    def n_graph_views(self) -> int:
        """``p`` — the number of graph views."""
        return len(self._graphs)

    @property
    def n_attribute_views(self) -> int:
        """``q`` — the number of attribute views."""
        return len(self._attributes)

    @property
    def n_views(self) -> int:
        """``r = p + q`` — the total number of views."""
        return len(self._graphs) + len(self._attributes)

    @property
    def n_classes(self) -> Optional[int]:
        """Number of distinct ground-truth classes (None if unlabeled)."""
        if self.labels is None:
            return None
        return int(np.unique(self.labels).size)

    def materialize(self) -> MVAG:
        """An in-RAM :class:`MVAG` copy of the full dataset."""
        self._require_open()
        return MVAG(
            graph_views=[matrix.copy() for matrix in self._graphs],
            attribute_views=[
                view.copy() if sp.issparse(view) else np.array(view)
                for view in self._attributes
            ],
            labels=self.labels,
            name=self.name,
        )

    def close(self) -> None:
        """Drop the memmap references (idempotent)."""
        self._closed = True
        self._graphs = []
        self._attributes = []

    def __enter__(self) -> "MemmapMVAG":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"MemmapMVAG(name={self.name!r}, n={self.n_nodes}, "
            f"p={self.n_graph_views}, q={self.n_attribute_views}, "
            f"path={str(self._path)!r})"
        )


def open_mvag_memmap(path: PathLike) -> MemmapMVAG:
    """Open a memmap directory written by :func:`save_mvag_memmap`."""
    return MemmapMVAG(path)
