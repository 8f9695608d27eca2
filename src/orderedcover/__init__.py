"""Ordered self-similar coverings and weighted-shift universality experiments.

The package is organized around one pipeline:

- ``geometry``: planar similarities, lexicographic ranks and words, and the
  rank-indexed resolution levels of an ordered system.
- ``zoo``: ready-made ordered systems (gasket, Hilbert square, Koch, sausage,
  unit interval, gap dust) and Holder curves, whose levels are the bounding
  squares over dyadic parameter intervals.
- ``hbd``: the three ordered-box-dimension conditions (diameter decay, nesting,
  consecutive-part adjacency) and their report.
- ``tagging``: the tagged covering with side schedule tau/(kN)^(1/gamma) and its
  stage spans.
- ``separation``: audits of the tagged covering's form, its attractor
  coverage by containment and the pairwise separation inequality,
  block-pruned by rank-block bounding boxes, and the jump check over the
  short rank-gap band, which stops at the first resolution with a bad pair.
- ``shifts``: weighted backward/forward shift powers on truncated sequence
  spaces, the summability/Lipschitz checks, and the common-vector experiment.
- ``cli``: command-line front end (``orderedcover --help``).
"""

from __future__ import annotations

__version__ = "0.1.0"

from .geometry import (
    BudgetExceededError,
    InvalidIndexError,
    OrderedIFS,
    Similarity,
    attractor_points,
    iter_levels,
    lex_unrank,
    part_budget,
)
from .hbd import hbd_report
from .separation import (
    coverage_check,
    verify_coverage,
    verify_form,
    verify_jump_lemma,
    verify_separation,
)
from .shifts import (
    check_cs2_lipschitz,
    run_dynamics_experiment,
    weight_family,
)
from .tagging import BuilderParams, build_tagged_covering
from .zoo import zoo_names, zoo_source

__all__ = [
    "BudgetExceededError",
    "BuilderParams",
    "InvalidIndexError",
    "OrderedIFS",
    "Similarity",
    "attractor_points",
    "build_tagged_covering",
    "check_cs2_lipschitz",
    "coverage_check",
    "hbd_report",
    "iter_levels",
    "lex_unrank",
    "part_budget",
    "run_dynamics_experiment",
    "verify_coverage",
    "verify_form",
    "verify_jump_lemma",
    "verify_separation",
    "weight_family",
    "zoo_names",
    "zoo_source",
    "__version__",
]
