"""Shared utilities: seeded randomness and sparse-matrix helpers.

These are the lowest-level building blocks of the reproduction; every other
subpackage imports from here rather than duplicating validation or RNG
handling.
"""

from repro.utils.errors import ReproError, ShapeError, ValidationError
from repro.utils.random import check_random_state, spawn_rngs
from repro.utils.sparse import (
    ensure_csr,
    is_symmetric,
    remove_self_loops,
    row_normalize,
    symmetrize,
    to_dense,
)
from repro.utils.validation import (
    check_finite,
    check_labels,
    check_square,
    check_weights,
)

__all__ = [
    "ReproError",
    "ShapeError",
    "ValidationError",
    "check_random_state",
    "spawn_rngs",
    "ensure_csr",
    "is_symmetric",
    "remove_self_loops",
    "row_normalize",
    "symmetrize",
    "to_dense",
    "check_finite",
    "check_labels",
    "check_square",
    "check_weights",
]
