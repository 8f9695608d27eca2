"""Audits of the tagged covering's quantitative claims.

Four checks, none by sampling:

- verify_form: every square side equals tau/(kN)^(1/gamma).
- verify_coverage: the squares cover the attractor, or a curve's image, by
  containment. The covered words form a complete prefix code, and every
  covered part's bounding square in R^d, recomputed from the source's
  levels, lies inside its square; then the attractor, the union of its
  covered parts, lies in the union of the squares (Hutchinson, 1981). It
  reads only the source's r and levels, and no attractor point.
- verify_separation: for every pair j < l and all points lambda in Gamma_j,
  mu in Gamma_l, the max-norm distance stays below D((l-j)/l)^(1/gamma).
  The supremum over two boxes is attained at corners under the max norm, so
  only corner pairs enter.
- verify_jump_lemma: equal-resolution tags that are at least c^(m-n) rho
  apart are at least (r^(n-1) + r - 2)/(r - 1) positions apart in the
  lexicographic enumeration.

The separation audit covers all q(q-1)/2 pairs in O(q) memory: an exact
band of short rank gaps and, beyond it, pairs of rank blocks decided by
their union boxes, computed exactly only where a bound cannot decide
(two-point correlation; Moore et al., 2001). It computes every pair up
to rank gap 16, so its block bounds, the diagonal included, assume a gap
of 17 or more. On the unit-interval s=3 covering (q = 16,384,
134,209,536 pairs) that is the band and 12 of 32,896 pairs of 64-rank
blocks: about 6 ms, against 50 ms without the band and 1.4 s for every
pair. Its worst case remains O(q^2). One block (q <= 64) is its own
diagonal tile, which holds the band too, so it takes that tile alone.

The jump lemma fails only on a pair closer in rank than it requires, so
the jump check reads only that band of short rank gaps, through each row's
sliding-window extremes in each coordinate: O(q) per resolution n, exact,
and up to the first n with a bad pair. On the gasket at m = 12 (531,441
tags, 1.5e10 band pairs) it takes about 1 s (2-core x86-64 VM).

coverage_check, which tests sample points against the squares, is the
sampled reference that verify_coverage replaced; no verdict rests on it.
"""
from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import geometry, tagging
from .geometry import GEOM_TOL, Record
from .tagging import TaggedCovering


@dataclass(frozen=True)
class FormReport(Record):
    passed: bool
    q: int
    max_rel_err: float
    first_bad_k: int | None


def verify_form(cov: TaggedCovering) -> FormReport:
    """Recompute tau/(kN)^alpha for every k, with the C library's pow through _pow as
    the build does (numpy's ``**`` rounds by CPU), and compare to a relative 1e-12."""
    tau, bigN, alpha = cov.tau, cov.bigN, cov.alpha
    expected = tau / geometry._pow(np.arange(1, cov.q + 1, dtype=float) * bigN, alpha)
    rel = np.abs(cov.sides - expected) / expected
    worst = int(np.argmax(rel))
    passed = bool(rel[worst] <= 1e-12)
    return FormReport(
        passed=passed,
        q=cov.q,
        max_rel_err=float(rel[worst]),
        first_bad_k=None if passed else int(np.argmax(rel > 1e-12)) + 1,
    )


@dataclass(frozen=True)
class CoverageReport(Record):
    passed: bool
    prefix_code: bool
    worst_fill: float | None  # None when (b) fails: (c) needs its words


def verify_coverage(source, cov: TaggedCovering) -> CoverageReport:
    """Show that the squares cover the attractor of a system, or the image
    of a curve, from facts (b) and (c). Fact (a), that every map sends the
    base set B into B, so the attractor A lies in B, holds for every system:
    geometry refuses to build one with a map that does not keep its base.
    (b) prefix_code: the rank ranges of the covered words, lifted to
    resolution s + t in Python ints, are nonempty, tile [0, r^(s+t))
    exactly in k order, and number q words: they form a complete prefix
    code, an integer Kraft sum of 1. Then A is the union of the covered
    parts sim_w(A), each inside sim_w(B); a curve's image is the union of
    its parts over the covered dyadic intervals, which tile [0, 1].
    (c) each covered part's bounding square [corner, corner + side]^d, which
    holds the part, lies in its square [tag, tag + side]^d, with the build's
    slack GEOM_TOL. The parts are recomputed from the source, not read from
    the covering: the stage slices of its levels, through the build's own
    filter (tagging._keep_stages). So a build whose stage windows are off by
    one, or whose squares moved after it, passes the build's own side check
    and fails (c); the second stream costs 13.8 ms against a 26.7 ms build
    at q = 16,384 (2-core x86-64 VM).

    worst_fill, the largest part side over square side, says how tight the
    squares are; a built covering's tags are its parts' corners, so there
    (c) comes down to part side <= side + tol. It is None when (b) fails,
    as (c) is then not tried. Like the build, (c) generates every level
    up to s + t, O(r^(s+t)) time, after the check against part_budget()
    (HBD_COVER_BUDGET), but keeps only the stages' parts.
    """
    if source.r != cov.r:
        raise ValueError(f"covering has r={cov.r} but system has r={source.r}")
    r, m_max = cov.r, cov.s + cov.t
    spans = tagging._stage_spans(r, cov.s, cov.t)
    end, prefix_code = 0, sum(count for *_, count in spans) == cov.q
    for _, m, first, count in spans:
        lift = r ** (m_max - m)
        prefix_code = prefix_code and count > 0 and first * lift == end
        end = (first + count) * lift
    prefix_code = prefix_code and end == r**m_max
    if not prefix_code:
        return CoverageReport(False, False, None)

    parts = []  # per stage: the corners and sides of its parts
    for _ in tagging._keep_stages(source.iter_levels(m_max), spans, parts):
        pass
    corners, part_sides = map(np.concatenate, zip(*parts))
    lo, tags = corners.T, cov.tags.T  # (d, q) each
    contained = bool(
        (lo >= tags - GEOM_TOL).all() and (lo + part_sides <= tags + cov.sides + GEOM_TOL).all()
    )
    return CoverageReport(contained, True, float((part_sides / cov.sides).max()))


@dataclass(frozen=True)
class SeparationReport(Record):
    q: int
    pairs_checked: int
    worst_ratio: float
    worst_pair: tuple[int, int]
    passed: bool


# Rank block size of the pair audits. The covering is rank-ordered, so the
# squares of one block sit close together and their union box is small.
_BLOCK = 64
# Rank gap of the separation audit's exact band: pairs with l - j <= _BAND
# are computed exactly, and block bounds assume a gap of at least _BAND + 1.
_BAND = 16


def _block_boxes(lo: np.ndarray, hi: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block starts and the union box (lo, hi) of each block of _BLOCK ranks."""
    starts = np.arange(0, len(lo), _BLOCK)
    return starts, np.minimum.reduceat(lo, starts), np.maximum.reduceat(hi, starts)


def verify_separation(cov: TaggedCovering, seed: int = 0) -> SeparationReport:
    """Check ||lambda - mu|| <= D((l-j)/l)^(1/gamma) over every pair of squares.

    The worst pair is the least (j, l) among the pairs of maximal ratio.

    Three array passes: every pair with l - j <= _BAND exactly; a bound on
    every pair of _BLOCK-rank blocks A <= B, the diagonal included, from
    the sup distance of their union boxes and the least (l - j)/l of their
    pairs past the band; and tiles of block pairs exactly, in descending
    bound order, while the bound reaches the worst ratio times (1 - 1e-12),
    a slack that keeps ties and absorbs the bound's rounding. Every sup
    distance is max(hi_j - lo_l, hi_l - lo_j) per axis, so worst_ratio is
    the exhaustive maximum bit for bit. Memory is O(q + 2^14) plus the
    list of undecided block pairs.
    """
    # seed is unused: the audit draws nothing; bench/jobs.py still passes it
    D, gamma = cov.D, cov.gamma
    d = cov.tags.shape[1]
    columns = np.concatenate([cov.tags.T, cov.tags.T + cov.sides])  # d lo rows, d hi rows
    worst_ratio, worst_pair = -np.inf, (0, 0)

    def ratio(jj, ll, box_j, box_l):
        """The ratios of boxes (d lo rows, then d hi rows) at the 1-based ranks jj < ll."""
        gaps = (np.maximum(box_j[d + a] - box_l[a], box_l[d + a] - box_j[a]) for a in range(d))
        return functools.reduce(np.maximum, gaps) / (D * ((ll - jj) / ll) ** (1.0 / gamma))

    def fold(value, pair):
        nonlocal worst_ratio, worst_pair
        if value > worst_ratio or (value == worst_ratio and pair < worst_pair):
            worst_ratio, worst_pair = float(value), pair

    starts, blo, bhi = _block_boxes(columns[:d].T, columns[d:].T)
    ends = np.append(starts[1:], cov.q)
    bound, pairs = np.zeros(1), np.zeros((1, 2), dtype=int)  # one block: its own tile
    if len(starts) > 1:
        # The band, in row steps: row g - 1 of the window holds the ranks g + 1 ..
        # g + q; past the last rank lo = +inf and hi = -inf, so those pairs give -inf
        pad = np.repeat([[np.inf], [-np.inf]], d, axis=0).repeat(_BAND, axis=1)
        padded = np.concatenate([columns[:, 1:], pad], axis=1)
        window = np.lib.stride_tricks.sliding_window_view(padded, cov.q, axis=1)
        step = 2**14 // _BAND
        for a in range(0, cov.q, step):
            jj = np.arange(a + 1.0, min(a + step, cov.q) + 1.0)
            ll = jj + np.arange(1.0, _BAND + 1.0)[:, None]
            near = ratio(jj, ll, columns[:, a : a + step], window[:, :, a : a + step])
            i, g = divmod(int(np.argmax(near.T)), _BAND)  # the first maximum in (j, l) order
            fold(near[g, i], (a + i + 1, a + i + g + 2))

        # The bounds: past the band l - j >= _BAND + 1, so (l - j)/l is least
        # at the last such j of A and then the first such l of B
        blocks = np.concatenate([blo.T, bhi.T])
        bounds, pairs = [], []
        step = max(1, 2**14 // len(starts))
        for a0 in range(0, len(starts), step):
            a, b = np.arange(a0, min(a0 + step, len(starts)))[:, None], slice(a0, None)
            jj = np.minimum(ends[a], ends[b] - _BAND - 1).astype(float)
            ll = np.maximum(starts[b] + 1.0, jj + _BAND + 1)
            bound = ratio(jj, ll, blocks[:, a], blocks[:, b])
            keep = (jj >= starts[a] + 1) & (bound >= worst_ratio * (1.0 - 1e-12))
            bounds.append(bound[keep])
            pairs.append(np.argwhere(keep) + [a0, a0])
        bound, pairs = np.concatenate(bounds), np.concatenate(pairs)

    # The tiles, in descending bound order; on the diagonal jj is clipped
    # below ll, so that no pair l <= j divides by zero, and gives -inf
    for n in np.argsort(-bound):
        if bound[n] < worst_ratio * (1.0 - 1e-12):
            break
        j, l = (slice(starts[k], ends[k]) for k in pairs[n])
        jj = np.arange(j.start + 1.0, j.stop + 1.0)[:, None]
        ll = np.arange(l.start + 1.0, l.stop + 1.0)
        tile = ratio(np.minimum(jj, ll - 1.0), ll, columns[:, j, None], columns[:, l])
        tile[jj >= ll] = -np.inf
        i, k = divmod(int(np.argmax(tile)), len(ll))  # the first maximum in (j, l) order
        fold(tile[i, k], (int(jj[i, 0]), int(ll[k])))
    return SeparationReport(
        q=cov.q,
        pairs_checked=cov.q * (cov.q - 1) // 2,
        worst_ratio=worst_ratio,
        worst_pair=worst_pair,
        passed=bool(worst_ratio <= 1.0 + GEOM_TOL),
    )


def coverage_check(cov: TaggedCovering, points: np.ndarray) -> bool:
    """Every sample point must land in at least one square, up to GEOM_TOL.

    The sampled reference of verify_coverage. Points go 64 at a time, each
    block against the squares of the rank blocks whose union box meets the
    points' bounding box: a square outside that union box cannot hold any
    of the points. Points and squares are tested one coordinate column at
    a time. Memory is O(q).
    """
    pts = np.atleast_2d(points)
    columns = []  # per axis: square lo and hi, their block union lo and hi, the points
    for axis in range(cov.tags.shape[1]):
        lo, hi = cov.tags[:, axis] - GEOM_TOL, cov.tags[:, axis] + cov.sides + GEOM_TOL
        _, blo, bhi = _block_boxes(lo, hi)
        columns.append((lo, hi, blo, bhi, np.ascontiguousarray(pts[:, axis])))
    for start in range(0, len(pts), 64):
        near = True
        for _, _, blo, bhi, p in columns:
            p = p[start : start + 64]
            near = near & (bhi >= p.min()) & (blo <= p.max())
        ranks = np.flatnonzero(np.repeat(near, _BLOCK)[: cov.q])
        inside = True
        for lo, hi, _, _, p in columns:
            p = p[start : start + 64, None]
            inside = inside & (p >= lo[ranks]) & (p <= hi[ranks])
        if not inside.any(axis=1).all():
            return False
    return True


def _window_max(v: np.ndarray, w: int) -> np.ndarray:
    """max(v[j + 1 .. j + w]) for every rank j, over the ranks below len(v);
    -inf where that window is empty. In blocks of w ranks with a running max
    forward and backward, a window meets at most two blocks, whose backward
    max at its first rank and forward max at its last cover it: O(len(v))
    (van Herk, 1992; Gil and Werman, 1993)."""
    q = len(v)
    w = min(w, q)
    if w < 1:
        return np.full(q, -np.inf)
    blocks = np.full((-(-(q + w) // w), w), -np.inf)
    blocks.flat[:q] = v
    forward = np.maximum.accumulate(blocks, axis=1).ravel()
    backward = np.maximum.accumulate(blocks[:, ::-1], axis=1)[:, ::-1].ravel()
    return np.maximum(backward[1 : q + 1], forward[w : q + w])


def _first_far_pair(tags: np.ndarray, threshold: float, short: int) -> tuple | None:
    """The first pair (j, l, distance) in (j, l) order with l - j <= short
    and distance >= threshold, or None. tags is (d, q), one contiguous row
    per coordinate, and distances are sup norms over them: row j's reach,
    its largest over l = j + 1 .. j + short, is the largest max v_l - v_j
    over the rows v of tags and -tags, from sliding-window maxima, exact
    bit for bit since rounding is monotone."""
    reach = np.full(tags.shape[1], -np.inf)
    for v in (*tags, *-tags):
        np.maximum(reach, _window_max(v, short) - v, out=reach)
    rows = np.flatnonzero(reach >= threshold)
    if rows.size == 0:
        return None
    j = int(rows[0])
    distance = np.abs(tags[:, j, None] - tags[:, j + 1 : j + 1 + short]).max(axis=0)
    g = int(np.argmax(distance >= threshold))
    return j, j + 1 + g, float(distance[g])


@dataclass(frozen=True)
class JumpReport(Record):
    m: int
    pairs_checked: int
    passed: bool
    counterexample: dict | None = None


def verify_jump_lemma(
    ifs, m: int, gamma: float | None = None, rho: float | None = None
) -> JumpReport:
    """Check the jump lemma on the tags of resolution m of a level source,
    a system or a curve, from its short-gap band.

    For n = 0, 1, ... < m in turn, tags at least c^(m-n) rho apart must be
    at least required = (r^(n-1) + r - 2)/(r - 1) ranks apart, so a
    counterexample is a pair with l - j <= short, the largest gap below
    required: _first_far_pair decides each n from that band alone, and the
    first bad pair of the first n that has one is the counterexample. The
    premise threshold keeps a hair of slack (1 - 1e-9) against rounding.
    pairs_checked counts the band of the last n decided, b q - b(b + 1)/2
    with b = min(short, q - 1); short never falls as n rises. A resolution
    past part_budget() (HBD_COVER_BUDGET) is refused with BudgetExceededError
    before any level is formed; gamma and rho must be finite and > 0 (ValueError).
    """
    gamma = ifs.gamma if gamma is None else gamma
    rho = ifs.rho if rho is None else rho
    geometry.check_positive(gamma=gamma, rho=rho)
    for level in ifs.iter_levels(m):  # refuses past the budget first
        pass
    tags = np.ascontiguousarray(level.corners.T)
    r, q = ifs.r, len(level)
    c = r ** (-1.0 / gamma)
    short, bad = 0, None
    for n in range(m):
        required = (r ** (n - 1) + r - 2) / (r - 1)
        short = math.ceil(required) - 1  # the gaps l - j below required are 1 .. short
        bad = _first_far_pair(tags, c ** (m - n) * rho * (1.0 - 1e-9), short)
        if bad is not None:
            break
    b = min(short, q - 1)
    pairs_checked = b * q - b * (b + 1) // 2
    if bad is None:
        return JumpReport(m=m, pairs_checked=pairs_checked, passed=True)
    j, l, distance = bad
    return JumpReport(
        m=m,
        pairs_checked=pairs_checked,
        passed=False,
        counterexample={
            "j": level.index(j),
            "l": level.index(l),
            "n": n,
            "distance": distance,
            "gap": l - j,
            "required": required,
        },
    )
