"""Checks for the three ordered-box-dimension conditions.

For a candidate exponent gamma and constant rho, a family of resolution-m
coverings (r^m parts each, lexicographic order), the levels of a system or
of a curve, must satisfy:

  (i)   every part side <= rho * r^(-m/gamma),
  (ii)  each resolution-(m+1) part sits inside its length-m prefix part,
  (iii) parts (i, j-1, r) and (i, j, 1) intersect for consecutive j.

Each condition is one expression over every coordinate of a rank-indexed
``Level`` at once: ``level.corners.T`` holds the lo rows (d, n). A
comparison with nan fails. A counterexample is the first failing rank. Only
the decision "at most gamma" is implemented; the infimum itself has no
algorithm here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import islice

import numpy as np

from . import geometry
from .geometry import GEOM_TOL, Level, Record


@dataclass(frozen=True)
class ConditionResult(Record):
    """Outcome of one condition at one resolution."""

    condition: str
    m: int
    passed: bool
    counterexample: dict | None = None


@dataclass(frozen=True)
class HbdReport(Record):
    name: str
    gamma: float
    rho: float
    max_resolution: int
    conditions: tuple[ConditionResult, ...] = field(default=())

    @property
    def passed(self) -> bool:
        return all(c.passed for c in self.conditions)

    def first_failure(self) -> ConditionResult | None:
        for c in self.conditions:
            if not c.passed:
                return c
        return None

    def to_record(self) -> dict:
        return {**super().to_record(), "pass": self.passed}


def _first_false(ok: np.ndarray) -> int | None:
    """Flat index of the first False in the mask, or None if it holds throughout."""
    k = int(ok.argmin())
    return None if ok.flat[k] else k


def check_diameters(level: Level, rho: float, c: float) -> ConditionResult:
    """Condition (i): every side <= rho * c^m, c = r^(-1/gamma). A nan side fails."""
    bound = rho * c**level.m
    k = _first_false(level.sides <= bound + GEOM_TOL)
    if k is not None:
        cex = {"index": level.index(k), "side": float(level.sides[k]), "bound": bound}
        return ConditionResult("i", level.m, False, cex)
    return ConditionResult("i", level.m, True)


def check_nesting(parent: Level, child: Level) -> ConditionResult:
    """Condition (ii): the part at rank k // r contains the child at rank k."""
    if child.m != parent.m + 1:
        raise ValueError("child level must be one resolution deeper")
    # child rank k = parent rank * r + j: the lo rows (d, n) reshaped to
    # (d, n / r, r) hold the children of parent i at [:, i]
    r, d = child.r, child.corners.shape[1]
    lo, side = child.corners.T.reshape(d, -1, r), child.sides.reshape(-1, r)
    parent_lo, parent_side = parent.corners.T[:, :, None], parent.sides[:, None]
    step = -(-geometry._BLOCK_PARTS // r)  # parents per block: the level pipeline's block
    for start in range(0, len(parent), step):
        rows = slice(start, start + step)
        lo_b, parent_lo_b = lo[:, rows], parent_lo[:, rows]
        high = parent_lo_b + parent_side[rows] + GEOM_TOL
        inside = lo_b >= parent_lo_b - GEOM_TOL
        inside &= lo_b + side[rows] <= high
        k = _first_false(inside.all(axis=0))
        if k is not None:
            k += start * r
            cex = {"index": child.index(k), "parent": parent.index(k // r)}
            cex["reason"] = "box escapes parent"
            return ConditionResult("ii", child.m, False, cex)
    return ConditionResult("ii", child.m, True)


def check_adjacency(level: Level) -> ConditionResult:
    """Condition (iii): box of (i, j-1, r) meets box of (i, j, 1)."""
    m, r = level.m, level.r
    if m < 2:
        raise ValueError("adjacency needs resolution >= 2")
    if len(level) != r**m:
        raise ValueError(f"expected {r ** m} parts, got {len(level)}")
    # the lo rows (d, n) reshaped to (d, r^(m-2), r, r) hold rank (i, j, k) at
    # [:, i, j, k]: the pairs (i, j-1, r) and (i, j, 1) are the views
    # [..., :-1, -1] and [..., 1:, 0]
    lo = level.corners.T.reshape(level.corners.shape[1], -1, r, r)
    side = level.sides.reshape(-1, r, r)
    left, right = lo[..., :-1, -1], lo[..., 1:, 0]
    meets = (left <= right + side[:, 1:, 0] + GEOM_TOL) & (
        right <= left + side[:, :-1, -1] + GEOM_TOL
    )
    k = _first_false(meets.all(axis=0))
    if k is not None:
        i, j = divmod(k, r - 1)
        a = (i * r + j) * r + r - 1
        cex = {"left": level.index(a), "right": level.index(a + 1)}
        return ConditionResult("iii", m, False, cex)
    return ConditionResult("iii", m, True)


def hbd_report(source, gamma: float, rho: float, m_max: int, name: str | None = None) -> HbdReport:
    """Run all three checks for every resolution up to m_max.

    source is a level source, an ordered system or a curve (its
    iter_levels(m_max) generates the levels one at a time, after the check
    against geometry.part_budget()), or any iterable of levels for
    resolutions 0..m_max in order. Only the level before the current one is kept.
    gamma and rho must be finite and > 0 (ValueError).
    """
    if m_max < 1:
        raise ValueError("m_max must be >= 1")
    geometry.check_positive(gamma=gamma, rho=rho)
    label = name or getattr(source, "name", "")
    if hasattr(source, "iter_levels"):
        source = source.iter_levels(m_max)
    diameters, nesting, adjacency = [], [], []
    for m, level in enumerate(islice(source, m_max + 1)):
        if m == 0:
            c = level.r ** (-1.0 / gamma)
        else:
            nesting.append(check_nesting(parent, level))
        diameters.append(check_diameters(level, rho, c))
        if m >= 2:
            adjacency.append(check_adjacency(level))
        parent = level
    if len(diameters) < m_max + 1:
        raise ValueError("need levels for every resolution 0..m_max")
    return HbdReport(label, gamma, rho, m_max, tuple(diameters + nesting + adjacency))
