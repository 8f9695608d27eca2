"""Brute-force verification of the tagged covering's quantitative claims.

Three checks:

- verify_form: every square side equals tau/(kN)^(1/gamma).
- verify_separation: for every pair j < l and all points lambda in Gamma_j,
  mu in Gamma_l, the max-norm distance stays below D((l-j)/l)^(1/gamma).
  The supremum over two boxes is attained at corners under the max norm, so
  only corner pairs enter. Exhaustive up to q = 10^4 pairs sources; above
  that a seeded random-pair mode takes over and says so.
- verify_jump_lemma: equal-resolution tags that are at least c^(m-n) rho
  apart are at least (r^(n-1) + r - 2)/(r - 1) positions apart in the
  lexicographic enumeration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import OrderedIFS
from .tagging import TaggedCovering

EXHAUSTIVE_PAIR_LIMIT = 10**4
SAMPLED_PAIRS = 10**7


@dataclass(frozen=True)
class FormReport:
    passed: bool
    q: int
    max_rel_err: float
    first_bad_k: int | None = None

    def to_record(self) -> dict:
        return {
            "pass": self.passed,
            "q": self.q,
            "max_rel_err": self.max_rel_err,
            "first_bad_k": self.first_bad_k,
        }


def verify_form(cov: TaggedCovering, rtol: float = 1e-12) -> FormReport:
    """Recompute tau/(kN)^alpha for every k, with Python's float pow as the
    build does (numpy's ``**`` rounds by CPU), and compare."""
    expected = np.array([cov.tau / (k * cov.bigN) ** cov.alpha for k in range(1, cov.q + 1)])
    rel = np.abs(cov.sides - expected) / expected
    worst = int(np.argmax(rel))
    passed = bool(rel[worst] <= rtol)
    return FormReport(
        passed=passed,
        q=cov.q,
        max_rel_err=float(rel[worst]),
        first_bad_k=None if passed else int(np.argmax(rel > rtol)) + 1,
    )


@dataclass(frozen=True)
class SeparationReport:
    q: int
    pairs_checked: int
    worst_ratio: float
    worst_pair: tuple[int, int]
    mode: str
    passed: bool

    def to_record(self) -> dict:
        return {
            "q": self.q,
            "pairs_checked": self.pairs_checked,
            "worst_ratio": self.worst_ratio,
            "worst_pair": list(self.worst_pair),
            "mode": self.mode,
            "pass": self.passed,
        }


def box_sup_distance(
    tags_a: np.ndarray, sides_a: np.ndarray, tags_b: np.ndarray, sides_b: np.ndarray
) -> np.ndarray:
    """sup over the two boxes of the max-norm distance, vectorized.

    Per axis the farthest pair sits at interval endpoints, so the sup is
    max(hi_a - lo_b, hi_b - lo_a) taken coordinate-wise, then the max norm
    maximizes over axes. Equals the 16-corner-pair maximum.
    """
    hi_a = tags_a + sides_a[:, None]
    hi_b = tags_b + sides_b[:, None]
    per_axis = np.maximum(hi_a - tags_b, hi_b - tags_a)
    return per_axis.max(axis=1)


def verify_separation(
    cov: TaggedCovering,
    D: float | None = None,
    gamma: float | None = None,
    seed: int = 0,
    tol: float = 1e-9,
    exhaustive_limit: int = EXHAUSTIVE_PAIR_LIMIT,
    sampled_pairs: int = SAMPLED_PAIRS,
) -> SeparationReport:
    """Check ||lambda - mu|| <= D((l-j)/l)^(1/gamma) over pairs of squares."""
    D = cov.D if D is None else D
    gamma = cov.gamma if gamma is None else gamma
    tags, sides = cov.tags, cov.sides
    q = cov.q
    if q <= exhaustive_limit:
        jj, ll = np.triu_indices(q, k=1)
        mode = "exhaustive"
    else:
        rng = np.random.default_rng(seed)
        jj = rng.integers(0, q - 1, size=sampled_pairs)
        ll = rng.integers(jj + 1, q)
        mode = "sampled"
    sup = box_sup_distance(tags[jj], sides[jj], tags[ll], sides[ll])
    bound = D * (((ll + 1).astype(float) - (jj + 1)) / (ll + 1)) ** (1.0 / gamma)
    ratio = sup / bound
    worst = int(np.argmax(ratio))
    return SeparationReport(
        q=q,
        pairs_checked=len(jj),
        worst_ratio=float(ratio[worst]),
        worst_pair=(int(jj[worst]) + 1, int(ll[worst]) + 1),
        mode=mode,
        passed=bool(ratio[worst] <= 1.0 + tol),
    )


def coverage_check(cov: TaggedCovering, points: np.ndarray, tol: float = 1e-9) -> bool:
    """Every sample point must land in at least one square."""
    tags, sides = cov.tags, cov.sides
    pts = np.atleast_2d(points)
    lo_ok = pts[:, None, :] >= tags[None, :, :] - tol
    hi_ok = pts[:, None, :] <= (tags + sides[:, None])[None, :, :] + tol
    return bool((lo_ok & hi_ok).all(axis=2).any(axis=1).all())


@dataclass(frozen=True)
class JumpReport:
    m: int
    pairs_checked: int
    passed: bool
    counterexample: dict | None = None

    def to_record(self) -> dict:
        rec = {"m": self.m, "pairs_checked": self.pairs_checked, "pass": self.passed}
        if self.counterexample is not None:
            rec["counterexample"] = self.counterexample
        return rec


def verify_jump_lemma(
    ifs: OrderedIFS,
    m: int,
    gamma: float | None = None,
    rho: float | None = None,
    budget: int | None = None,
) -> JumpReport:
    """Exhaustive jump-count check on all tag pairs at resolution m.

    Premise threshold c^(m-n) rho uses a hair of slack (1 - 1e-9) so pairs
    sitting exactly on the threshold are not lost to rounding; the counting
    conclusion is discrete and unaffected.
    """
    gamma = ifs.gamma if gamma is None else gamma
    rho = ifs.rho if rho is None else rho
    r = ifs.r
    c = r ** (-1.0 / gamma)
    level = geometry.levels(ifs, m, budget)[-1]
    jj, ll = np.triu_indices(len(level), k=1)
    dist = np.abs(level.corners[jj] - level.corners[ll]).max(axis=1)
    gaps = (ll - jj).astype(float)
    checked = 0
    for n in range(0, m):
        required = (r ** (n - 1) + r - 2) / (r - 1)
        threshold = c ** (m - n) * rho * (1.0 - 1e-9)
        hit = dist >= threshold
        checked += int(hit.sum())
        bad = hit & (gaps < required)
        if bad.any():
            b = int(np.argmax(bad))
            return JumpReport(
                m=m,
                pairs_checked=checked,
                passed=False,
                counterexample={
                    "j": level.index(jj[b]),
                    "l": level.index(ll[b]),
                    "n": n,
                    "distance": float(dist[b]),
                    "gap": int(gaps[b]),
                    "required": required,
                },
            )
    return JumpReport(m=m, pairs_checked=checked, passed=True)
