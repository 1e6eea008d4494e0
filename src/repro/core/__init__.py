"""Everest core: uncertain Top-K query processing with an oracle in the loop.

This package is the paper's primary contribution:

* :mod:`~repro.core.uncertain` — x-tuples, truncated-Gaussian
  quantization, the uncertain relation D;
* :mod:`~repro.core.topk_prob` — incremental confidence (Eq. 2/3);
* :mod:`~repro.core.select_candidate` — expected-confidence candidate
  selection with upper-bound early stopping (Eq. 4-8);
* :mod:`~repro.core.cleaner` — the Phase 2 cleaning loop with the
  certain-result condition and batch inference;
* :mod:`~repro.core.windows` — Top-K tumbling windows (Eq. 9);
* :mod:`~repro.core.phase1` — CMDN training, D0 construction and its
  maintenance under appends and window expiry;
* :mod:`~repro.core.reference` — brute-force possible-world oracles
  used to validate all of the above.
"""

from .uncertain import (
    QuantizationGrid,
    UncertainRelation,
    build_relation,
    grid_for,
    quantize_mixtures,
    restrict_relation,
)
from .topk_prob import ConfidenceState
from .select_candidate import CandidateSelector, SelectionStats
from .cleaner import Phase2Result, TopKCleaner
from .phase1 import Phase1Entry, run_phase1
from .windows import (
    WindowCleaner,
    build_window_relation,
    num_windows,
    window_bounds,
    window_truth,
)
from .result import PhaseBreakdown, QueryReport
from . import reference

__all__ = [
    "QuantizationGrid",
    "UncertainRelation",
    "build_relation",
    "grid_for",
    "quantize_mixtures",
    "restrict_relation",
    "ConfidenceState",
    "CandidateSelector",
    "SelectionStats",
    "Phase2Result",
    "TopKCleaner",
    "Phase1Entry",
    "run_phase1",
    "WindowCleaner",
    "build_window_relation",
    "num_windows",
    "window_bounds",
    "window_truth",
    "PhaseBreakdown",
    "QueryReport",
    "reference",
]
