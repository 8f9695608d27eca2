"""Audits of the tagged covering's quantitative claims.

Four checks, none by sampling:

- verify_form: every square side equals tau/(kN)^(1/gamma).
- verify_coverage: the squares cover the attractor, by containment. Every
  map sends the base set into itself, the covered words form a complete
  prefix code, and every covered part's box, recomputed from the system,
  lies inside its square; then the attractor, the union of its covered
  parts, lies in the union of the squares (Hutchinson, 1981). It reads no
  attractor point.
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
pair. Its worst case remains O(q^2).

The jump lemma fails only on a pair closer in rank than it requires, so
the jump check reads only that band of short rank gaps, in 64-rank row
tiles that skip the 16-rank column blocks whose union box cannot reach a
threshold. On the gasket at m = 9 (19,683 tags, 1.9e8 pairs, 2.1e7 of
them in the band) it computes 1.2e6 distances in about 0.03 s (2-core
x86-64 VM). It refuses a band of more than JUMP_PAIR_BUDGET pairs up
front.

coverage_check, which tests sample points against the squares, is the
sampled reference that verify_coverage replaced; no verdict rests on it.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import geometry, tagging
from .geometry import GEOM_TOL, OrderedIFS, Record
from .tagging import TaggedCovering


@dataclass(frozen=True)
class FormReport(Record):
    passed: bool
    q: int
    max_rel_err: float
    first_bad_k: int | None


def verify_form(cov: TaggedCovering) -> FormReport:
    """Recompute tau/(kN)^alpha for every k, with Python's float pow as the
    build does (numpy's ``**`` rounds by CPU), and compare to a relative 1e-12."""
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
    base_inside: bool
    prefix_code: bool
    worst_fill: float | None  # None when (b) fails: (c) needs its words


def verify_coverage(ifs: OrderedIFS, cov: TaggedCovering) -> CoverageReport:
    """Show that the squares cover the attractor of ifs from three facts.

    (a) base_inside: each map's vertex images lie in the base set B, a
    convex polygon with counter-clockwise vertices, within GEOM_TOL of the
    inner side of each edge. Then every map sends B into B, and the
    attractor A lies in B.
    (b) prefix_code: the rank ranges of the covered words, lifted to
    resolution s + t in Python ints, are nonempty, tile [0, r^(s+t))
    exactly in k order, and number q words: they form a complete prefix
    code, an integer Kraft sum of 1. Then A is the union of the covered
    parts sim_w(A), each inside sim_w(B).
    (c) each covered part's box lies in its square [tag, tag + side]^2,
    with the build's slack tagging._S_TOL. The boxes are recomputed from
    ifs, not read from the covering: the vertex images of each stage's
    words, one rank slice of a level. sim_w(B) is the hull of its vertex
    images, so it lies in that box.

    worst_fill, the largest part side over square side, says how tight the
    squares are; a built covering's tags are its parts' corners, so there
    (c) comes down to part side <= side + tol. It is None when (b) fails,
    as (c) is then not tried. Like the build, (c) generates every level
    up to s + t, O(r^(s+t)) time, but keeps only the stages' boxes.
    """
    if ifs.r != cov.r:
        raise ValueError(f"covering has r={cov.r} but system has r={ifs.r}")
    vertices = ifs.base_vertices()
    edges = np.roll(vertices, -1, axis=0) - vertices
    inward = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / np.hypot(*edges.T)[:, None]
    images = np.concatenate([sim.apply(vertices) for sim in ifs.maps])
    depth = ((images[:, None] - vertices) * inward).sum(axis=2)  # (image, edge)
    base_inside = bool((depth >= -GEOM_TOL).all())

    r, m_max = cov.r, cov.s + cov.t
    spans = tagging._stage_spans(r, cov.s, cov.t)
    end, prefix_code = 0, sum(count for *_, count in spans) == cov.q
    for _, m, first, count in spans:
        lift = r ** (m_max - m)
        prefix_code = prefix_code and count > 0 and first * lift == end
        end = (first + count) * lift
    prefix_code = prefix_code and end == r**m_max
    if not prefix_code:
        return CoverageReport(False, base_inside, False, None)

    kept = []  # per stage: lo x, lo y, hi x, hi y of its parts
    for level, boxes in enumerate(geometry._part_boxes(ifs, vertices, m_max)):
        for _, m, first, count in spans:
            if m == level:
                kept.append(boxes[:, first : first + count].copy())
    lo_x, lo_y, hi_x, hi_y = np.concatenate(kept, axis=1)
    tag_x, tag_y = cov.tags.T
    tol = tagging._S_TOL
    contained = bool(
        (lo_x >= tag_x - tol).all()
        and (lo_y >= tag_y - tol).all()
        and (hi_x <= tag_x + cov.sides + tol).all()
        and (hi_y <= tag_y + cov.sides + tol).all()
    )
    part_sides = np.maximum(hi_x - lo_x, hi_y - lo_y)  # as geometry.levels
    return CoverageReport(
        passed=base_inside and contained,
        base_inside=base_inside,
        prefix_code=True,
        worst_fill=float((part_sides / cov.sides).max()),
    )


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


def _block_boxes(
    lo: np.ndarray, hi: np.ndarray, size: int = _BLOCK
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Block starts and the union box (lo, hi) of each block of size ranks."""
    starts = np.arange(0, len(lo), size)
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
    list of undecided block pairs. cov.D and cov.gamma must be finite and
    > 0 (ValueError): a covering made by dataclasses.replace skips the
    builder's checks.
    """
    # seed is unused: the audit draws nothing; bench/jobs.py still passes it
    D, gamma = cov.D, cov.gamma
    geometry.check_positive(D=D, gamma=gamma)
    columns = np.concatenate([cov.tags.T, cov.tags.T + cov.sides])  # lo x, lo y, hi x, hi y
    worst_ratio, worst_pair = -np.inf, (0, 0)

    def ratio(jj, ll, box_j, box_l):
        """The ratios of boxes (lo x, lo y, hi x, hi y) at the 1-based ranks jj < ll."""
        (xj, yj, hxj, hyj), (xl, yl, hxl, hyl) = box_j, box_l
        sup = np.maximum(np.maximum(hxj - xl, hxl - xj), np.maximum(hyj - yl, hyl - yj))
        return sup / (D * ((ll - jj) / ll) ** (1.0 / gamma))

    def fold(value, pair):
        nonlocal worst_ratio, worst_pair
        if value > worst_ratio or (value == worst_ratio and pair < worst_pair):
            worst_ratio, worst_pair = float(value), pair

    # The band, in row steps: row g - 1 of the window holds the ranks g + 1 ..
    # g + q; past the last rank lo = +inf and hi = -inf, so those pairs give -inf
    pad = np.repeat([[np.inf], [np.inf], [-np.inf], [-np.inf]], _BAND, axis=1)
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
    starts, blo, bhi = _block_boxes(columns[:2].T, columns[2:].T)
    ends = np.append(starts[1:], cov.q)
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

    # The tiles, in descending bound order; on the diagonal jj is clipped
    # below ll, so that no pair l <= j divides by zero, and gives -inf
    bound, pairs = np.concatenate(bounds), np.concatenate(pairs)
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
    of the points. Points and squares are tested as separate x and y
    columns. Memory is O(q).
    """
    pts = np.atleast_2d(points)
    columns = []  # per axis: square lo and hi, their block union lo and hi, the points
    for axis in (0, 1):
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


# Limit on the jump check's band pairs, b q - b(b + 1)/2 with
# b = min(max(short), q - 1): every pair the band could compare before a
# block bound prunes it. The gasket at m = 11 (1.7e9 band pairs) and
# hilbert-square at m = 9 (1.4e9) fit, in under 1 s and 50 MB peak RSS end
# to end each on a 2-core x86-64 VM. It also keeps b below 2^16, so one
# row tile of band distances stays under 32 MB.
JUMP_PAIR_BUDGET = 2**31

# Rank tiles of the jump check: rows of _JUMP_ROWS ranks against later
# column blocks of _JUMP_COLS ranks.
_JUMP_ROWS, _JUMP_COLS = 64, 16


def _jump_pass(
    x: np.ndarray, y: np.ndarray, threshold: list[float], short: list[int]
) -> tuple[list[tuple[int, int, float] | None], int]:
    """First short-gap premise hit of each threshold, and the pairs compared.

    Over the pairs j < l of points (x_k, y_k), with distance
    d = max(|x_j - x_l|, |y_j - y_l|): first_bad[n] is the first pair in
    (j, l) order with l - j <= short[n] and d >= threshold[n], as (j, l, d),
    or None. compared counts the pairs l < len(x) whose distance was
    computed; the NaN padding past the last rank is not counted.

    Rows go _JUMP_ROWS ranks at a time, against their band l - j <= short[n].
    The union boxes of a row tile A and of a later column block B bound
    every pair's distance per axis by bhi_B - blo_A (or bhi_A - blo_B), and
    rounding is monotone, so a block whose bound stays below threshold n
    misses it in all its pairs. The band of n stops after the last block
    within short[n] whose bound reaches threshold n; only the blocks within
    max(short) of the tile are bounded. np.abs(x_j - x_l) is
    max(x_j - x_l, x_l - x_j) bit for bit, so distances match a scan of
    every pair exactly. Memory is O(q + _JUMP_ROWS max(short)).
    """
    q, t = len(x), np.asarray(threshold, dtype=float)[:, None]
    first_bad, compared = [None] * len(threshold), 0
    _, xlo, xhi = _block_boxes(x, x, _JUMP_COLS)
    _, ylo, yhi = _block_boxes(y, y, _JUMP_COLS)
    band = max(short, default=0)
    # row k of wx, wy holds the band's points k + 1 .. k + band; past the
    # last rank it reads NaN, which hits no threshold
    wx, wy = (
        np.lib.stride_tricks.sliding_window_view(np.append(v[1:], np.full(band, np.nan)), band)
        for v in (x, y)
    )
    for a in range(0, q, _JUMP_ROWS):
        tx, ty = x[a : a + _JUMP_ROWS], y[a : a + _JUMP_ROWS]
        rows, first = len(tx), -(-(a + len(tx)) // _JUMP_COLS)
        # the later blocks within max(short) of the tile's last row
        stop = (a + rows - 1 + band) // _JUMP_COLS + 1
        bxlo, bxhi, bylo, byhi = (v[first:stop] for v in (xlo, xhi, ylo, yhi))
        hi = np.maximum(
            np.maximum(bxhi - tx.min(), tx.max() - bxlo),
            np.maximum(byhi - ty.min(), ty.max() - bylo),
        )
        reach = hi >= t
        # the band of n ends at the last later block within short[n] that can hit n
        width = {}
        for n in (n for n in range(len(threshold)) if first_bad[n] is None and short[n] > 0):
            ahead = np.flatnonzero(reach[n, : (a + rows - 1 + short[n]) // _JUMP_COLS + 1 - first])
            last = (first + ahead[-1] + 1) * _JUMP_COLS - 1 if ahead.size else a
            width[n] = min(short[n], max(rows - 1, last - a))
        w = max(width.values(), default=0)
        if w == 0:
            continue
        # row i, column g: the pair (a + i, a + i + 1 + g), real while it is < q
        compared += int(np.minimum(w, q - 1 - np.arange(a, a + rows)).sum())
        band_x, band_y = wx[a : a + rows, :w], wy[a : a + rows, :w]
        d = np.maximum(np.abs(tx[:, None] - band_x), np.abs(ty[:, None] - band_y))
        for n, wn in width.items():
            hit = d[:, :wn] >= threshold[n]
            if hit.any():
                i, g = divmod(int(np.argmax(hit)), wn)
                first_bad[n] = (a + i, a + i + 1 + g, float(d[i, g]))
    return first_bad, compared


@dataclass(frozen=True)
class JumpReport(Record):
    m: int
    pairs_checked: int
    passed: bool
    counterexample: dict | None = None


def verify_jump_lemma(
    ifs: OrderedIFS,
    m: int,
    gamma: float | None = None,
    rho: float | None = None,
    budget: int | None = None,
) -> JumpReport:
    """Check the jump lemma on the tags of resolution m, from its short-gap band.

    For each n < m, tags at least c^(m-n) rho apart must be at least
    required[n] = (r^(n-1) + r - 2)/(r - 1) ranks apart, so a counterexample
    is a pair with l - j <= short[n], the largest gap below required[n], and
    the verdict needs no pair past that band. The premise threshold keeps a
    hair of slack (1 - 1e-9), so pairs sitting exactly on it are not lost to
    rounding; the conclusion is discrete and unaffected.

    The report is that of checking n = 0, 1, ... in turn up to the first n
    with a bad pair, whose first bad pair in (j, l) order is the
    counterexample. One pass over the band, _jump_pass, finds the first bad
    pair of every n; pairs_checked counts the pairs whose distance it
    computed. A band of more than JUMP_PAIR_BUDGET pairs is refused with
    BudgetExceededError before any level is built. gamma and rho must be
    finite and > 0 (ValueError).
    """
    gamma = ifs.gamma if gamma is None else gamma
    rho = ifs.rho if rho is None else rho
    geometry.check_positive(gamma=gamma, rho=rho)
    r, q = ifs.r, ifs.r**m
    c = r ** (-1.0 / gamma)
    required = [(r ** (n - 1) + r - 2) / (r - 1) for n in range(m)]
    threshold = [c ** (m - n) * rho * (1.0 - 1e-9) for n in range(m)]
    # the gaps l - j below required[n] are 1 .. short[n]
    short = [math.ceil(x) - 1 for x in required]
    # the pairs j < l < q with l - j <= b (short[n] < required[n] <= r^n, so b < q)
    b = max(short, default=0)
    pairs = b * q - b * (b + 1) // 2
    if pairs > JUMP_PAIR_BUDGET:
        raise geometry.BudgetExceededError(f"{pairs} band pairs exceed budget {JUMP_PAIR_BUDGET}")
    for level in geometry.iter_levels(ifs, m, budget):
        pass
    x, y = np.ascontiguousarray(level.corners[:, 0]), np.ascontiguousarray(level.corners[:, 1])
    first_bad, compared = _jump_pass(x, y, threshold, short)
    bad_n = next((n for n in range(m) if first_bad[n] is not None), None)
    if bad_n is None:
        return JumpReport(m=m, pairs_checked=compared, passed=True)
    j, l, distance = first_bad[bad_n]
    return JumpReport(
        m=m,
        pairs_checked=compared,
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
