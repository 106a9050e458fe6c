"""Dynamic MVAGs — the paper's future-work extension (Section VII).

The paper closes with: *"we aim to develop methods for dynamic MVAGs, with
a lazy update scheme to minimize the cost of updating view weights by
executing updates only when necessary ... We will design incremental
objective evaluation techniques to reduce cost."*  This subpackage builds
that system:

* :mod:`repro.dynamic.stream` — :class:`DynamicMVAG`, a mutable multi-view
  graph accepting edge insertions/deletions and attribute updates, with
  incremental maintenance of every view Laplacian;
* :mod:`repro.dynamic.lazy` — :class:`LazySGLA`, which monitors the
  objective drift of the current weights after each batch of updates and
  re-optimizes only when the drift exceeds a threshold.  Its drift check
  is one :class:`repro.core.objective.SpectralObjective` evaluation
  through the run's shared solver context, so on the iterative path the
  previous solve's Ritz block warm-starts it (incremental objective
  evaluation).
"""

from repro.dynamic.lazy import LazySGLA, LazyUpdateReport
from repro.dynamic.stream import DynamicMVAG, EdgeUpdate

__all__ = [
    "DynamicMVAG",
    "EdgeUpdate",
    "LazySGLA",
    "LazyUpdateReport",
]
