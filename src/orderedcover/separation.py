"""Brute-force verification of the tagged covering's quantitative claims.

Three checks:

- verify_form: every square side equals tau/(kN)^(1/gamma).
- verify_separation: for every pair j < l and all points lambda in Gamma_j,
  mu in Gamma_l, the max-norm distance stays below D((l-j)/l)^(1/gamma).
  The supremum over two boxes is attained at corners under the max norm, so
  only corner pairs enter.
- verify_jump_lemma: equal-resolution tags that are at least c^(m-n) rho
  apart are at least (r^(n-1) + r - 2)/(r - 1) positions apart in the
  lexicographic enumeration.

Both pair audits cover all q(q-1)/2 pairs in O(q) memory. The separation
audit is certified by block bounds: whole pairs of 64-rank blocks are
decided by their union boxes, and exact pairs are computed only where a
bound cannot decide. On the unit-interval s=3 covering (q = 16,384,
134,209,536 pairs) it computes 521 of the 32,896 block pairs and takes
about 0.09 s, against 1.4 s for a scan of every pair (2-core x86-64 VM);
the worst case remains O(q^2). The jump check streams the pairs one rank
row at a time in O(q^2) time. Coverage tests the points 64 at a time
against the squares of the rank blocks whose union box meets them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry
from .geometry import OrderedIFS
from .tagging import TaggedCovering


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
    passed: bool

    def to_record(self) -> dict:
        return {
            "q": self.q,
            "pairs_checked": self.pairs_checked,
            "worst_ratio": self.worst_ratio,
            "worst_pair": list(self.worst_pair),
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


def _sup_distance_rows(tags: np.ndarray, sides: np.ndarray):
    """Yield (j, row) for j = 0..q-2: row[i] is box_sup_distance of boxes j
    and j + 1 + i, bit for bit. Separate contiguous x and y columns run
    several times faster per row than (n, 2) rows reduced by max(axis=1)."""
    x, y = np.ascontiguousarray(tags[:, 0]), np.ascontiguousarray(tags[:, 1])
    hx, hy = x + sides, y + sides
    for j in range(len(sides) - 1):
        l = slice(j + 1, None)
        dx = np.maximum(hx[j] - x[l], hx[l] - x[j])
        dy = np.maximum(hy[j] - y[l], hy[l] - y[j])
        yield j, np.maximum(dx, dy)


# Rank block size of the pair audits. The covering is rank-ordered, so the
# squares of one block sit close together and their union box is small.
_BLOCK = 64


def _block_boxes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block starts and the union box (lo, hi) of each block of _BLOCK ranks."""
    starts = np.arange(0, len(lo), _BLOCK)
    return starts, np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)


def verify_separation(
    cov: TaggedCovering,
    D: float | None = None,
    gamma: float | None = None,
    seed: int = 0,
    tol: float = 1e-9,
) -> SeparationReport:
    """Check ||lambda - mu|| <= D((l-j)/l)^(1/gamma) over every pair of squares.

    The worst pair is the first maximum of the ratio in (j, l) order.

    Branch and bound over blocks of _BLOCK ranks: the pairs inside each
    block are computed exactly and seed the worst ratio. The ratio over a
    pair of blocks A < B is at most the sup distance of their union boxes
    over the bound at the last rank of A and the first rank of B. A block
    pair is computed exactly, as a tile, only if that bound reaches the
    worst ratio times (1 - 1e-12); the slack keeps ties and absorbs the
    bound's rounding. Each tile computes the ratio with the same
    elementwise operations as box_sup_distance and the bound, so
    worst_ratio is the exhaustive maximum bit for bit.
    """
    # seed is unused: the audit draws nothing; bench/jobs.py still passes it
    D = cov.D if D is None else D
    gamma = cov.gamma if gamma is None else gamma
    x, y = np.ascontiguousarray(cov.tags[:, 0]), np.ascontiguousarray(cov.tags[:, 1])
    hx, hy = x + cov.sides, y + cov.sides
    worst_ratio, worst_pair = -np.inf, (0, 0)

    def tile(j: np.ndarray, l: np.ndarray) -> None:
        """Fold in the pairs (j, l) of two broadcasting index arrays, j < l."""
        nonlocal worst_ratio, worst_pair
        dx = np.maximum(hx[j] - x[l], hx[l] - x[j])
        dy = np.maximum(hy[j] - y[l], hy[l] - y[j])
        jj, ll = j + 1.0, l + 1.0
        ratio = np.maximum(dx, dy) / (D * ((ll - jj) / ll) ** (1.0 / gamma))
        i = int(np.argmax(ratio))  # row-major, so the first maximum in (j, l) order
        j, l = np.broadcast_arrays(j, l)
        pair = (int(j.flat[i]) + 1, int(l.flat[i]) + 1)
        if ratio.flat[i] > worst_ratio or (ratio.flat[i] == worst_ratio and pair < worst_pair):
            worst_ratio, worst_pair = float(ratio.flat[i]), pair

    starts, blo, bhi = _block_boxes(cov.tags, np.stack([hx, hy], axis=1))
    ends = np.append(starts[1:], cov.q)
    inner = np.triu_indices(_BLOCK, k=1)
    for a, b in zip(starts, ends):
        keep = inner[1] < b - a
        if keep.any():
            tile(a + inner[0][keep], a + inner[1][keep])

    def bounds(a: int) -> np.ndarray:
        """Upper bounds of the ratio over the block pairs (a, a + 1), (a, a + 2), ..."""
        sup = np.maximum(bhi[a] - blo[a + 1 :], bhi[a + 1 :] - blo[a]).max(axis=1)
        l_min = starts[a + 1 :] + 1.0
        return sup / (D * ((l_min - ends[a]) / l_min) ** (1.0 / gamma))

    # Block rows go in descending order of their largest bound, and each row
    # in descending bound order: the first tiles raise the worst ratio, and
    # memory stays O(q / _BLOCK), where one vector of all block pairs would
    # be O((q / _BLOCK)^2).
    row_max = np.array([bounds(a).max() for a in range(len(starts) - 1)])
    for a in np.argsort(-row_max, kind="stable"):
        if row_max[a] < worst_ratio * (1.0 - 1e-12):
            break
        bound = bounds(a)
        rows = np.arange(starts[a], ends[a])[:, None]
        for i in np.argsort(-bound, kind="stable"):
            if bound[i] < worst_ratio * (1.0 - 1e-12):
                break
            b = a + 1 + i
            tile(rows, np.arange(starts[b], ends[b]))
    return SeparationReport(
        q=cov.q,
        pairs_checked=cov.q * (cov.q - 1) // 2,
        worst_ratio=worst_ratio,
        worst_pair=worst_pair,
        passed=bool(worst_ratio <= 1.0 + tol),
    )


def coverage_check(cov: TaggedCovering, points: np.ndarray, tol: float = 1e-9) -> bool:
    """Every sample point must land in at least one square.

    Points go 64 at a time, each block against the squares of the rank
    blocks whose union box meets the points' bounding box: a square outside
    that union box cannot hold any of the points. Memory is O(q).
    """
    lo = cov.tags - tol
    hi = cov.tags + cov.sides[:, None] + tol
    _, blo, bhi = _block_boxes(lo, hi)
    block_of = np.arange(cov.q) // _BLOCK
    pts = np.atleast_2d(points)
    for start in range(0, len(pts), 64):
        block = pts[start : start + 64]
        near = ((bhi >= block.min(axis=0)) & (blo <= block.max(axis=0))).all(axis=1)
        near = near[block_of]
        inside = (block[:, None, :] >= lo[near]) & (block[:, None, :] <= hi[near])
        if not inside.all(axis=2).any(axis=1).all():
            return False
    return True


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

    The report is that of checking n = 0, 1, ... in turn up to the first n
    with a bad pair: pairs_checked sums the premise hits of those n, and the
    counterexample is the first bad pair of the last in (j, l) order. One
    pass over the pairs gathers both for every n.
    """
    gamma = ifs.gamma if gamma is None else gamma
    rho = ifs.rho if rho is None else rho
    r = ifs.r
    c = r ** (-1.0 / gamma)
    level = geometry.levels(ifs, m, budget)[-1]
    required = [(r ** (n - 1) + r - 2) / (r - 1) for n in range(m)]
    threshold = [c ** (m - n) * rho * (1.0 - 1e-9) for n in range(m)]
    # the gaps l - j below required[n] are 1 .. short[n], the row's first short[n]
    short = [math.ceil(x) - 1 for x in required]
    hits = [0] * m
    first_bad: list[tuple[int, int, float] | None] = [None] * m
    # tags are the boxes with zero sides: the sup distance is then |a - b| exactly
    for j, dist in _sup_distance_rows(level.corners, np.zeros(len(level))):
        for n in range(m):
            hit = dist >= threshold[n]
            hits[n] += int(np.count_nonzero(hit))
            if first_bad[n] is None and hit[: short[n]].any():
                i = int(np.argmax(hit[: short[n]]))
                first_bad[n] = (j, j + 1 + i, float(dist[i]))
    bad_n = next((n for n in range(m) if first_bad[n] is not None), None)
    if bad_n is None:
        return JumpReport(m=m, pairs_checked=sum(hits), passed=True)
    j, l, distance = first_bad[bad_n]
    return JumpReport(
        m=m,
        pairs_checked=sum(hits[: bad_n + 1]),
        passed=False,
        counterexample={
            "j": level.index(j),
            "l": level.index(l),
            "n": bad_n,
            "distance": distance,
            "gap": l - j,
            "required": required[bad_n],
        },
    )
