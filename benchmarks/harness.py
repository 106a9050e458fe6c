"""Shared infrastructure for the per-table / per-figure benchmarks.

Every benchmark regenerates one table or figure of the paper's evaluation
section on the synthetic dataset profiles (DESIGN.md §3-4).  This module
centralizes: dataset loading (cached), the method registries for clustering
and embedding, failure-tolerant runners (a ``MemoryError`` becomes a ``-``
cell exactly like the paper's OOM entries), plain-text table rendering,
and the shard-pool kill the chaos legs share.

Results are printed through ``capsys.disabled()`` by the benches (so they
survive pytest's capture into ``bench_output.txt``) and also written under
``benchmarks/results/``.
"""

from __future__ import annotations

import json
import os
import signal
import time
from functools import lru_cache
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.baselines import CLUSTERING_BASELINES, EMBEDDING_BASELINES
from repro.core.mvag import MVAG
from repro.core.pipeline import cluster_mvag, embed_mvag
from repro.core.sgla import SGLAConfig
from repro.datasets.profiles import dataset_profile, load_profile_mvag

RESULTS_DIR = Path(__file__).parent / "results"

# The eight paper datasets, at bench scale (RM is already tiny; the rest use
# their ``_small`` profiles so the full table suite completes in minutes).
BENCH_DATASETS: List[str] = [
    "rm",
    "yelp_small",
    "imdb_small",
    "dblp_small",
    "amazon_photos_small",
    "amazon_computers_small",
    "mag_eng_small",
    "mag_phy_small",
]

CLUSTER_METRICS = ["acc", "f1", "nmi", "ari", "purity"]


@lru_cache(maxsize=32)
def bench_mvag(name: str, seed: int = 0) -> MVAG:
    """Cached profile loading so every bench sees identical data."""
    return load_profile_mvag(name, seed=seed)


def profile_config(name: str) -> SGLAConfig:
    """Paper-default SGLA config with the profile's KNN setting."""
    profile = dataset_profile(name)
    return SGLAConfig(knn_k=profile.knn_k)


# --------------------------------------------------------------------- #
# Method registries
# --------------------------------------------------------------------- #


def _sgla_cluster(mvag: MVAG, k: int, seed=0, config=None):
    return cluster_mvag(mvag, k=k, method="sgla", config=config, seed=seed).labels


def _sgla_plus_cluster(mvag: MVAG, k: int, seed=0, config=None):
    return cluster_mvag(mvag, k=k, method="sgla+", config=config, seed=seed).labels


def clustering_methods() -> Dict[str, Callable]:
    """Paper order: baselines first, our methods last."""
    methods: Dict[str, Callable] = {}
    for name in ("wmsc", "2cmv", "mega", "o2mac", "lmgec", "mcgc", "mvagc",
                 "magc"):
        baseline = CLUSTERING_BASELINES[name]
        methods[name] = (
            lambda mvag, k, seed=0, config=None, _fn=baseline: _fn(
                mvag, k, seed=seed
            )
        )
    methods["sgla"] = _sgla_cluster
    methods["sgla+"] = _sgla_plus_cluster
    return methods


def _sgla_embed(mvag: MVAG, dim: int, seed=0, config=None):
    return embed_mvag(
        mvag, dim=dim, method="sgla", config=config, seed=seed
    ).embedding


def _sgla_plus_embed(mvag: MVAG, dim: int, seed=0, config=None):
    return embed_mvag(
        mvag, dim=dim, method="sgla+", config=config, seed=seed
    ).embedding


def embedding_methods() -> Dict[str, Callable]:
    """Paper order: baselines first, our methods last."""
    methods: Dict[str, Callable] = {}
    for name in ("pane", "o2mac", "hdmi", "lmgec"):
        baseline = EMBEDDING_BASELINES[name]
        methods[name] = (
            lambda mvag, dim, seed=0, config=None, _fn=baseline: _fn(
                mvag, dim, seed=seed
            )
        )
    methods["sgla"] = _sgla_embed
    methods["sgla+"] = _sgla_plus_embed
    return methods


# --------------------------------------------------------------------- #
# Failure-tolerant runners
# --------------------------------------------------------------------- #


def run_clustering(
    method: str, dataset: str, seed: int = 0
) -> Tuple[Optional[np.ndarray], float]:
    """Run one clustering method; ``(None, nan)`` on OOM-style failure."""
    mvag = bench_mvag(dataset, seed=seed)
    config = profile_config(dataset)
    func = clustering_methods()[method]
    start = time.perf_counter()
    try:
        labels = func(mvag, mvag.n_classes, seed=seed, config=config)
    except MemoryError:
        return None, float("nan")
    return labels, time.perf_counter() - start


def run_embedding(
    method: str, dataset: str, dim: int = 64, seed: int = 0
) -> Tuple[Optional[np.ndarray], float]:
    """Run one embedding method; ``(None, nan)`` on OOM-style failure."""
    mvag = bench_mvag(dataset, seed=seed)
    config = profile_config(dataset)
    func = embedding_methods()[method]
    dim = min(dim, mvag.n_nodes - 1)
    start = time.perf_counter()
    try:
        embedding = func(mvag, dim, seed=seed, config=config)
    except MemoryError:
        return None, float("nan")
    return embedding, time.perf_counter() - start


# --------------------------------------------------------------------- #
# Reporting
# --------------------------------------------------------------------- #


def format_table(
    headers: Sequence[str], rows: Sequence[Sequence], title: str = ""
) -> str:
    """Fixed-width plain-text table."""
    rendered_rows = [
        [_render_cell(cell) for cell in row] for row in rows
    ]
    widths = [
        max(len(str(headers[i])), *(len(r[i]) for r in rendered_rows))
        if rendered_rows
        else len(str(headers[i]))
        for i in range(len(headers))
    ]
    lines = []
    if title:
        lines.append(title)
    lines.append("  ".join(str(h).ljust(w) for h, w in zip(headers, widths)))
    lines.append("  ".join("-" * w for w in widths))
    for row in rendered_rows:
        lines.append("  ".join(c.ljust(w) for c, w in zip(row, widths)))
    return "\n".join(lines)


def _render_cell(cell) -> str:
    if cell is None:
        return "-"
    if isinstance(cell, float):
        if np.isnan(cell):
            return "-"
        return f"{cell:.3f}"
    return str(cell)


def emit(name: str, text: str, capsys=None) -> None:
    """Print a result block through capture and persist it to disk."""
    banner = f"\n===== {name} =====\n{text}\n"
    if capsys is not None:
        with capsys.disabled():
            print(banner)
    else:  # pragma: no cover - direct script usage
        print(banner)
    RESULTS_DIR.mkdir(exist_ok=True)
    (RESULTS_DIR / f"{name}.txt").write_text(text + "\n")


def _jsonable(value):
    """Recursively coerce numpy scalars/arrays so json.dumps accepts them."""
    if isinstance(value, dict):
        return {str(key): _jsonable(item) for key, item in value.items()}
    if isinstance(value, (list, tuple)):
        return [_jsonable(item) for item in value]
    if isinstance(value, np.ndarray):
        return _jsonable(value.tolist())
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, np.bool_):
        return bool(value)
    return value


def emit_json(name: str, payload: dict, echo: bool = False) -> dict:
    """Persist a benchmark's machine-readable results.

    Writes ``benchmarks/results/<name>.json`` alongside the plain-text
    table :func:`emit` produces, so the perf trajectory (speedups, matvec
    counts, wall seconds) is trackable across PRs and diffable in
    review.  ``echo`` additionally prints the JSON to stdout (the bench
    scripts' ``--json`` flag).  Returns the JSON-clean payload.
    """
    payload = _jsonable(payload)
    RESULTS_DIR.mkdir(exist_ok=True)
    text = json.dumps(payload, indent=2, sort_keys=True)
    (RESULTS_DIR / f"{name}.json").write_text(text + "\n")
    if echo:  # pragma: no cover - direct script usage
        print(text)
    return payload


def kill_pool(shard, timeout: float = 30.0) -> int:
    """SIGKILL every process of ``shard``'s pool; wait until it is broken.

    Returns how many processes were killed (0 when the context never
    dispatched).  Waiting for the executor to mark itself broken makes
    the next dispatch meet the dead pool at submit, not only at result
    collection.
    """
    executor = shard.executor()
    processes = list(executor._processes.values())
    for process in processes:
        os.kill(process.pid, signal.SIGKILL)
    expires_at = time.monotonic() + timeout
    while processes and not executor._broken:
        if time.monotonic() > expires_at:
            break
        time.sleep(0.01)
    return len(processes)
