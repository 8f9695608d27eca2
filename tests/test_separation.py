import dataclasses
import functools
import itertools
import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orderedcover import geometry, separation, tagging, zoo
from orderedcover.separation import (
    _first_far_pair,
    _window_max,
    coverage_check,
    verify_coverage,
    verify_form,
    verify_jump_lemma,
    verify_separation,
)
from orderedcover.hbd import check_adjacency, check_diameters, check_nesting
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.zoo import (
    IFS_NAMES,
    diagonal_curve,
    gap_dust,
    hilbert_square,
    koch_curve,
    sierpinski_gasket,
    unit_interval,
    zoo_source,
)
from orderedcover.geometry import (
    BudgetExceededError,
    Level,
    OrderedIFS,
    Similarity,
    attractor_points,
    iter_levels,
)


def box_sup_distance(tags_a, sides_a, tags_b, sides_b):
    """sup over the two boxes of the max-norm distance, vectorized.

    Per axis the farthest pair sits at interval endpoints, so the sup is
    max(hi_a - lo_b, hi_b - lo_a) taken coordinate-wise, then the max norm
    maximizes over axes. Equals the 16-corner-pair maximum.
    """
    hi_a = tags_a + sides_a[:, None]
    hi_b = tags_b + sides_b[:, None]
    per_axis = np.maximum(hi_a - tags_b, hi_b - tags_a)
    return per_axis.max(axis=1)


@pytest.fixture(scope="module")
def gasket_cov():
    ifs = sierpinski_gasket()
    return build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))


@pytest.fixture(scope="module")
def line_s3_cov():
    line = unit_interval()
    return build_tagged_covering(line, BuilderParams.from_stage(line, 3, 1))


def test_form_is_exact_by_construction(gasket_cov):
    report = verify_form(gasket_cov)
    assert report.passed
    assert report.q == 27
    assert report.max_rel_err == 0.0


def test_form_detects_tampered_side(gasket_cov):
    sides = gasket_cov.sides.copy()
    sides[4] *= 1.001
    broken = dataclasses.replace(gasket_cov, sides=sides)
    report = verify_form(broken)
    assert not report.passed
    assert report.first_bad_k == 5


box_vals = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)
box_sides = st.floats(min_value=0.01, max_value=2.0, allow_nan=False)


@given(
    ax=box_vals, ay=box_vals, aside=box_sides, bx=box_vals, by=box_vals, bside=box_sides
)
def test_box_sup_distance_matches_corner_enumeration(ax, ay, aside, bx, by, bside):
    tags_a = np.array([[ax, ay]])
    tags_b = np.array([[bx, by]])
    sup = box_sup_distance(tags_a, np.array([aside]), tags_b, np.array([bside]))[0]
    corners_a = [(ax + dx * aside, ay + dy * aside) for dx in (0, 1) for dy in (0, 1)]
    corners_b = [(bx + dx * bside, by + dy * bside) for dx in (0, 1) for dy in (0, 1)]
    brute = max(
        max(abs(pa[0] - pb[0]), abs(pa[1] - pb[1]))
        for pa, pb in itertools.product(corners_a, corners_b)
    )
    assert sup == pytest.approx(brute, abs=1e-12)


def test_separation_exhaustive_on_small_covering(gasket_cov):
    report = verify_separation(gasket_cov)
    assert report.passed
    assert report.pairs_checked == 27 * 26 // 2
    assert 0.0 < report.worst_ratio <= 1.0
    j, l = report.worst_pair
    assert 1 <= j < l <= 27


@pytest.mark.parametrize(
    "D, gamma",
    [(math.nan, None), (None, math.nan), (math.inf, None), (None, math.inf), (0.0, None),
     (None, -1.0)],
)
def test_separation_refuses_a_meaningless_bound(gasket_cov, D, gamma):
    # with a nan D or gamma every ratio is nan and none folds into the
    # maximum, so the audit would pass with worst_ratio -inf at (0, 0);
    # the covering that dataclasses.replace builds refuses them itself
    given = {key: value for key, value in (("D", D), ("gamma", gamma)) if value is not None}
    with pytest.raises(ValueError, match="must be finite and > 0"):
        verify_separation(dataclasses.replace(gasket_cov, **given))


def test_separation_fails_under_tight_constant(gasket_cov):
    report = verify_separation(dataclasses.replace(gasket_cov, D=0.5))
    assert not report.passed
    assert report.worst_ratio > 1.0


def separation_reference(tags, sides, D, gamma, tol=1e-9):
    """Every pair at once, as verify_separation did before it streamed rows."""
    jj, ll = np.triu_indices(len(sides), k=1)
    if not len(jj):  # a single square: no pair, and the audit's fold never moves
        return -np.inf, (0, 0), True, 0
    sup = box_sup_distance(tags[jj], sides[jj], tags[ll], sides[ll])
    bound = D * (((ll + 1).astype(float) - (jj + 1)) / (ll + 1)) ** (1.0 / gamma)
    ratio = sup / bound
    worst = int(np.argmax(ratio))
    pair = (int(jj[worst]) + 1, int(ll[worst]) + 1)
    return float(ratio[worst]), pair, bool(ratio[worst] <= 1.0 + tol), len(jj)


grid_boxes = st.tuples(
    st.integers(0, 2).map(float), st.integers(0, 2).map(float), st.sampled_from([0.5, 1.0])
)
free_boxes = st.tuples(box_vals, box_vals, box_sides)
# q = 1..64 boxes of each layout kind: one 64-rank block, audited as its own
# diagonal tile in one pass; q = 1 has no pair
one_block_layouts = st.builds(
    lambda q, kind, seed: np.column_stack(layout(kind, q, np.random.default_rng(seed))).tolist(),
    st.integers(1, 64),
    st.sampled_from(["walk", "grid", "free", "outlier", "coincident"]),
    st.integers(0, 2**32 - 1),
)


# the first example ties the maximum within row 2, at (2, 3) and (2, 4),
# and across rows, at (3, 4); the second ties it at gaps 2 and 1, at (2, 4)
# and (3, 4). The first in (j, l) order is the worst pair.
@example(
    boxes=[(2.0, 1.0, 0.5), (1.0, 2.0, 1.0), (1.0, 1.0, 0.5), (0.0, 0.0, 1.0)], D=1.0, gamma=1.0
)
@example(
    boxes=[(0.0, 0.0, 0.0), (0.0, 0.0, 0.0), (1.0, 0.0, 0.0), (2.0, 0.0, 0.0)], D=1.0, gamma=1.0
)
@example(boxes=[(0.5, 0.5, 1.0)], D=1.0, gamma=1.0)
@example(boxes=[(0.5, 0.5, 0.25)] * 64, D=1e-9, gamma=2.0)
@given(
    boxes=st.one_of(st.lists(grid_boxes, min_size=2, max_size=60),
                    st.lists(free_boxes, min_size=2, max_size=60),
                    one_block_layouts),
    D=st.sampled_from([1e-9, 0.5, 1.0, 3.0, 40.0]),
    gamma=st.sampled_from([1.0, 2.0, 1.5849625007211563, 1.2618595071429148]),
)
@settings(max_examples=90, deadline=None)
def test_separation_matches_all_pairs_reference(gasket_cov, boxes, D, gamma):
    arr = np.array(boxes, dtype=float)
    tags, sides = arr[:, :2].copy(), arr[:, 2].copy()
    cov = dataclasses.replace(gasket_cov, q=len(sides), tags=tags, sides=sides, D=D, gamma=gamma)
    report = verify_separation(cov)
    ratio, pair, passed, pairs = separation_reference(tags, sides, D, gamma)
    assert report.worst_ratio == ratio
    assert report.worst_pair == pair
    assert report.passed == passed
    assert report.pairs_checked == pairs


def layout(kind, q, rng):
    """q boxes (tags, sides): a rank-ordered walk of shrinking squares, as
    a covering lays them out; a coarse grid with many equal distances; free
    floats; an outlier; or q copies of one box.

    The outlier is one square displaced 10 away from a tight walk, reached
    by a straight ramp from a square 17 to 63 ranks earlier in the same
    64-rank block; the squares after it stay there. A square displaced on
    its own makes its worst pair at gap 1, where the ratio's bound is
    least; on the ramp the worst pair spans the whole ramp, past the exact
    band, inside one diagonal block pair."""
    if kind == "outlier":
        g = min(int(rng.integers(17, 64)), q - 1)
        p = int(rng.choice([p for p in range(q - g) if p // 64 == (p + g) // 64]))
        tags = np.cumsum(rng.normal(scale=1e-3, size=(q, 2)), axis=0)
        tags[:, 0] += 10.0 * np.clip((np.arange(q) - p) / max(g, 1), 0.0, 1.0)
        return tags, rng.uniform(0.0, 1e-3, size=q)
    if kind == "walk":
        tags = np.cumsum(rng.normal(scale=0.05, size=(q, 2)), axis=0)
        return tags, 0.3 / np.arange(1, q + 1) ** rng.uniform(0.3, 1.0)
    if kind == "grid":
        return rng.integers(0, 3, size=(q, 2)).astype(float), rng.choice([0.5, 1.0], size=q)
    if kind == "free":
        return rng.uniform(-3.0, 3.0, size=(q, 2)), rng.uniform(0.01, 2.0, size=q)
    return np.tile(rng.uniform(-3.0, 3.0, size=2), (q, 1)), np.full(q, rng.uniform(0.01, 2.0))


# q runs past one 64-rank block, so whole block pairs are pruned by their
# bounds; D = 1e-9 makes every pair fail. For q = 1025 copies of one box
# the worst pair, (1024, 1025), straddles two blocks. The outlier example
# ends in a block of _BAND + 2 = 18 ranks and ramps across all of it: its
# worst pair, (65, 82), is the only pair of that block past the band.
@example(q=128, kind="walk", seed=0, D=1.0, gamma=1.0)
@example(q=1025, kind="coincident", seed=0, D=1.0, gamma=1.0)
@example(q=129, kind="coincident", seed=0, D=1e-9, gamma=2.0)
@example(q=82, kind="outlier", seed=316, D=1.0, gamma=1.2618595071429148)
@given(
    q=st.integers(65, 400),
    kind=st.sampled_from(["walk", "grid", "free", "outlier", "coincident"]),
    seed=st.integers(0, 2**32 - 1),
    D=st.sampled_from([1e-9, 0.05, 1.0, 40.0]),
    gamma=st.sampled_from([1.0, 2.0, 1.5849625007211563, 1.2618595071429148]),
)
@settings(max_examples=60, deadline=None)
def test_separation_matches_all_pairs_reference_across_blocks(gasket_cov, q, kind, seed, D, gamma):
    tags, sides = layout(kind, q, np.random.default_rng(seed))
    cov = dataclasses.replace(gasket_cov, q=q, tags=tags, sides=sides, D=D, gamma=gamma)
    report = verify_separation(cov)
    ratio, pair, passed, pairs = separation_reference(tags, sides, D, gamma)
    assert report.worst_ratio == ratio
    assert report.worst_pair == pair
    assert report.passed == passed
    assert report.pairs_checked == pairs


def test_outlier_example_sits_at_the_band_edge():
    tags, sides = layout("outlier", 82, np.random.default_rng(316))
    _, pair, _, _ = separation_reference(tags, sides, 1.0, 1.2618595071429148)
    assert pair == (65, 65 + separation._BAND + 1)


def test_separation_breaks_a_tie_across_blocks_by_rank_order(gasket_cov):
    # Points (zero sides) with D = gamma = 1, so the ratio is sup l/(l - j).
    # x gives row j = 1 the ratio exactly 1 against every l >= 129, and
    # less below; y steps by 2^-7 between ranks 127 and 128, which gives
    # (127, 128) exactly 1 too. That pair lies in the exact band, so it is
    # found before (1, 129), which comes first in (j, l) order.
    q = 200
    ranks = np.arange(1, q + 1, dtype=float)
    d = (ranks - 1.0) / ranks
    x = np.where(ranks >= 129, 1.0 - d, 1.0 - d * (1.0 - 2.0**-8))
    x[0] = 1.0
    y = np.where(ranks >= 128, 2.0**-7, 0.0)
    tags, sides = np.stack([x, y], axis=1), np.zeros(q)
    ratio, pair, _, _ = separation_reference(tags, sides, 1.0, 1.0)
    assert (ratio, pair) == (1.0, (1, 129))
    sup = box_sup_distance(tags[[126]], sides[[126]], tags[[127]], sides[[127]])[0]
    assert sup / ((128.0 - 127.0) / 128.0) == 1.0
    cov = dataclasses.replace(gasket_cov, q=q, tags=tags, sides=sides, D=1.0, gamma=1.0)
    report = verify_separation(cov)
    assert (report.worst_ratio, report.worst_pair) == (1.0, (1, 129))


def test_separation_on_three_stage_line_checks_every_pair(line_s3_cov):
    report = verify_separation(line_s3_cov)
    assert report.q == 16384
    assert report.pairs_checked == 134209536
    assert report.worst_pair == (1, 16384)
    assert report.worst_ratio == 0.12500762986022096
    assert report.passed


def test_coverage_check_accepts_attractor_and_flags_outliers(gasket_cov):
    ifs = sierpinski_gasket()
    pts = attractor_points(ifs, 6)
    assert coverage_check(gasket_cov, pts)
    assert not coverage_check(gasket_cov, np.array([[5.0, 5.0]]))


def test_coverage_check_finds_an_outlier_past_the_first_block(gasket_cov):
    pts = attractor_points(sierpinski_gasket(), 6)
    assert len(pts) == 729
    for at in (64, 127, 700, 729):
        late = np.vstack([pts[:at], [[0.0, 2.0]], pts[at:]])
        assert not coverage_check(gasket_cov, late)


def test_coverage_check_allows_its_tolerance(gasket_cov):
    right = gasket_cov.tags[:, 0] + gasket_cov.sides
    k = int(np.argmax(right))
    y = gasket_cov.tags[k, 1]
    assert coverage_check(gasket_cov, np.array([[right[k] + 5e-10, y]]))
    assert not coverage_check(gasket_cov, np.array([[right[k] + 5e-9, y]]))


def coverage_reference(cov, points, tol=1e-9):
    """Every point against every square, 64 points at a time, as
    coverage_check did before it pruned squares by their block's box."""
    lo = cov.tags - tol
    hi = cov.tags + cov.sides[:, None] + tol
    pts = np.atleast_2d(points)
    return all(
        ((pts[i : i + 64, None] >= lo) & (pts[i : i + 64, None] <= hi)).all(axis=2).any(axis=1).all()
        for i in range(0, len(pts), 64)
    )


@pytest.fixture(scope="module")
def koch_cov():
    koch = koch_curve()
    return build_tagged_covering(koch, BuilderParams.from_stage(koch, 1, 1))


@pytest.mark.parametrize("at", [0, 63, 64, 65, 960, 999])
def test_coverage_check_matches_brute_force_at_block_edges(koch_cov, at):
    # q = 256 squares in four rank blocks; 1000 points, the last block partial
    pts = attractor_points(koch_curve(), 5)[:1000]
    assert coverage_check(koch_cov, pts) and coverage_reference(koch_cov, pts)
    # a hair up stays in the point's square; below the curve or far off leaves every square
    for shift, covered in (([0.0, 0.001], True), ([0.0, -0.02], False), ([0.0, 5.0], False)):
        moved = pts.copy()
        moved[at] += shift
        assert coverage_check(koch_cov, moved) == coverage_reference(koch_cov, moved) == covered


def test_coverage_check_allows_its_tolerance_across_blocks(koch_cov):
    right = koch_cov.tags[:, 0] + koch_cov.sides
    k = int(np.argmax(right))
    edge = np.array([[right[k] + 1e-9, koch_cov.tags[k, 1]]])  # exactly tol outside
    beyond = np.array([[np.nextafter(edge[0, 0], np.inf), edge[0, 1]]])
    assert coverage_check(koch_cov, edge) and coverage_reference(koch_cov, edge)
    assert not coverage_check(koch_cov, beyond) and not coverage_reference(koch_cov, beyond)


@example(q=1, kind="walk", seed=0, spread=0.1, n=3)
@given(
    q=st.integers(1, 300),
    kind=st.sampled_from(["walk", "grid", "free", "coincident"]),
    seed=st.integers(0, 2**32 - 1),
    spread=st.sampled_from([0.0, 0.01, 0.1, 1.0]),
    n=st.integers(1, 300),
)
@settings(max_examples=60, deadline=None)
def test_coverage_check_matches_brute_force(gasket_cov, q, kind, seed, spread, n):
    rng = np.random.default_rng(seed)
    tags, sides = layout(kind, q, rng)
    cov = dataclasses.replace(gasket_cov, q=q, tags=tags, sides=sides)
    # points drawn inside the squares in rank order, then jittered
    at = np.sort(rng.integers(0, q, size=n))
    pts = tags[at] + sides[at, None] * rng.uniform(size=(n, 2))
    pts += rng.normal(scale=spread, size=(n, 2)) * (rng.uniform(size=(n, 1)) < 0.05)
    assert coverage_check(cov, pts) == coverage_reference(cov, pts)


@example(q=100, kind="walk", seed=0, n=130)
@example(q=1, kind="coincident", seed=1, n=1)
@given(
    q=st.integers(1, 300).filter(lambda q: q % 64),
    kind=st.sampled_from(["walk", "grid", "free", "coincident"]),
    seed=st.integers(0, 2**32 - 1),
    n=st.integers(1, 300).filter(lambda n: n % 64),
)
@settings(max_examples=60, deadline=None)
def test_coverage_check_matches_brute_force_on_square_edges(gasket_cov, q, kind, seed, n):
    # q and n are not multiples of 64: the last rank block and the last block
    # of points are partial
    rng = np.random.default_rng(seed)
    tags, sides = layout(kind, q, rng)
    cov = dataclasses.replace(gasket_cov, q=q, tags=tags, sides=sides)
    lo, hi = tags - 1e-9, tags + sides[:, None] + 1e-9  # as coverage_check rounds them
    at = rng.integers(0, q, size=n)
    # every coordinate exactly on tag - tol or on tag + side + tol
    upper = rng.uniform(size=(n, 2)) < 0.5
    edge = np.where(upper, hi[at], lo[at])
    assert coverage_check(cov, edge) and coverage_reference(cov, edge)
    # one coordinate one step outward: out of the point's own square, maybe in another
    step = edge.copy()
    axis = rng.integers(0, 2, size=n)
    rows = np.arange(n)
    step[rows, axis] = np.nextafter(edge[rows, axis], np.where(upper[rows, axis], np.inf, -np.inf))
    assert coverage_check(cov, step) == coverage_reference(cov, step)
    # one point in the last, partial block just outside every square: past the
    # largest hi or below the smallest lo on one axis, on an edge on the other
    lost = edge.copy()
    where, axis = 64 * (n // 64) + rng.integers(0, n % 64), rng.integers(0, 2)
    if rng.uniform() < 0.5:
        lost[where, axis] = np.nextafter(hi[:, axis].max(), np.inf)
    else:
        lost[where, axis] = np.nextafter(lo[:, axis].min(), -np.inf)
    assert not coverage_check(cov, lost) and not coverage_reference(cov, lost)


def test_three_stage_line_covers_its_attractor(line_s3_cov):
    # q = 2^14: the deepest squares have side about 2^-17 and sit on the
    # segment, so sample points must lie on it too
    line = unit_interval()
    pts = attractor_points(line, min(line_s3_cov.s + line_s3_cov.t + 2, 10))
    assert len(pts) == 2**10
    assert coverage_check(line_s3_cov, pts)


# The zoo coverings that build: minkowski (q = 8^8) is over the part
# budget at s = 1 and the gap dust fails condition (iii).
ZOO_COVERINGS = [
    ("sierpinski", 1),
    ("hilbert-square", 1),
    ("koch", 1),
    ("unit-interval", 1),
    ("unit-interval", 2),
    ("unit-interval", 3),
]


@functools.lru_cache
def zoo_covering(name, s):
    ifs = zoo_source(name)
    return ifs, build_tagged_covering(ifs, BuilderParams.from_stage(ifs, s, 1))


def part_sides(ifs, cov):
    """The covered parts' sides in k order, sliced from geometry.levels."""
    lv = list(geometry.iter_levels(ifs, cov.s + cov.t))
    spans = tagging._stage_spans(cov.r, cov.s, cov.t)
    return np.concatenate([lv[m].sides[first : first + count] for _, m, first, count in spans])


def with_x_again(rows):
    """The coordinate rows (d, n) with a copy of the first row appended."""
    return np.vstack([rows, rows[:1]])


@pytest.mark.parametrize("name", IFS_NAMES)
def test_a_copied_coordinate_changes_nothing_on_zoo_levels(name):
    # every condition and the jump check's sup norm fold over the coordinates,
    # so a third coordinate that repeats x changes no verdict or counterexample
    ifs = zoo_source(name)
    r, c = ifs.r, ifs.r ** (-1.0 / ifs.gamma)
    lv = list(iter_levels(ifs, 6))
    wide = [Level(level.m, r, with_x_again(level.corners.T).T, level.sides) for level in lv]
    far = []
    for m in range(len(lv)):
        assert check_diameters(wide[m], ifs.rho, c) == check_diameters(lv[m], ifs.rho, c)
        if m >= 1:
            assert check_nesting(wide[m - 1], wide[m]) == check_nesting(lv[m - 1], lv[m])
        if m >= 2:
            assert check_adjacency(wide[m]) == check_adjacency(lv[m])
        tags = np.ascontiguousarray(lv[m].corners.T)
        for n in range(m):
            short = math.ceil((r ** (n - 1) + r - 2) / (r - 1)) - 1
            for threshold in (c ** (m - n) * ifs.rho, lv[m].sides.max() / 4):
                far.append(_first_far_pair(tags, threshold, short))
                assert _first_far_pair(with_x_again(tags), threshold, short) == far[-1]
    assert any(far)


@pytest.mark.parametrize("name", [name for name, s in ZOO_COVERINGS if s == 1])
def test_a_copied_coordinate_changes_nothing_on_s1_coverings(name):
    _, cov = zoo_covering(name, 1)
    wide = dataclasses.replace(cov, tags=with_x_again(cov.tags.T).T)
    for D in (cov.D, cov.D / 64):  # passing, then failing
        narrow = verify_separation(dataclasses.replace(cov, D=D))
        assert verify_separation(dataclasses.replace(wide, D=D)) == narrow
    assert not narrow.passed
    tags = np.ascontiguousarray(cov.tags.T)
    for short, threshold in itertools.product((1, 4, 16), cov.sides[[0, -1]]):
        far = _first_far_pair(tags, threshold, short)
        assert _first_far_pair(with_x_again(tags), threshold, short) == far


def test_zoo_coverings_list_every_system_that_builds_at_s1():
    with pytest.raises(BudgetExceededError):
        zoo_covering("minkowski", 1)
    with pytest.raises(ValueError, match="fails dimension condition iii"):
        zoo_covering("gap-dust", 1)
    assert {name for name, _ in ZOO_COVERINGS} | {"minkowski", "gap-dust"} == set(IFS_NAMES)


@pytest.mark.parametrize("name,s", ZOO_COVERINGS)
def test_coverage_audit_agrees_with_the_sampled_reference(name, s):
    ifs, cov = zoo_covering(name, s)
    report = verify_coverage(ifs, cov)
    assert (report.passed, report.base_inside, report.prefix_code) == (True, True, True)
    assert 0.0 < report.worst_fill <= 1.0 + 1e-9
    assert coverage_check(cov, attractor_points(ifs, min(cov.s + cov.t + 2, 10)))


def test_coverage_record_names_the_three_facts(gasket_cov):
    gasket = sierpinski_gasket()
    record = verify_coverage(gasket, gasket_cov).to_record()
    assert sorted(record) == ["base_inside", "pass", "prefix_code", "worst_fill"]
    assert record["worst_fill"] == float(np.max(part_sides(gasket, gasket_cov) / gasket_cov.sides))


def test_coverage_audit_refuses_a_covering_of_another_arity(gasket_cov):
    with pytest.raises(ValueError, match="r=3"):
        verify_coverage(unit_interval(), gasket_cov)


@given(
    ratio=st.floats(0.05, 0.5),
    angle=st.floats(-math.pi, math.pi),
    reflect=st.booleans(),
    right=st.booleans(),
    at=st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_coverage_audit_fails_a_map_that_leaves_the_triangle(
    gasket_cov, ratio, angle, reflect, right, at
):
    # The bad image's box sits in a top corner of the base box, where the
    # triangle does not reach: its leftmost (or rightmost) vertex lies on the
    # box's side at least 1 - ratio above the base, outside the triangle.
    # The other two maps shrink the triangle towards its bottom vertices.
    gasket = sierpinski_gasket()
    vertices = gasket.base_vertices()
    (x0, y0), side = gasket.corner, gasket.side
    image = Similarity(ratio, angle, reflect, (0.0, 0.0)).apply(vertices)
    x = x0 + side - image[:, 0].max() if right else x0 - image[:, 0].min()
    bad = Similarity(ratio, angle, reflect, (x, y0 + side - image[:, 1].max()))
    inner = [Similarity(ratio, 0.0, False, (1.0 - ratio) * v) for v in vertices[:2]]
    maps = tuple(inner[:at] + [bad] + inner[at:])
    # the box test of OrderedIFS accepts the system
    ifs = OrderedIFS(maps, "triangle", gasket.corner, side, gasket.gamma, gasket.rho)
    report = verify_coverage(ifs, gasket_cov)
    assert not report.base_inside and not report.passed
    assert report.prefix_code


def test_coverage_audit_allows_geom_tol_on_the_square_base(gasket_cov):
    # OrderedIFS refuses a map that leaves the square by more than GEOM_TOL;
    # the audit keeps the same slack, so one within it passes both. The
    # gasket's squares do not hold this system's parts.
    maps = (Similarity(0.5, 0.0, False, (0.0, 0.0)),) * 2 + (
        Similarity(0.5, 0.0, False, (0.5 + 0.5e-9, 0.5)),
    )
    ifs = OrderedIFS(maps, "square", (0.0, 0.0), 1.0, 1.0, 1.0)
    report = verify_coverage(ifs, gasket_cov)
    assert report.base_inside and report.prefix_code and not report.passed


@pytest.mark.parametrize("name,other", [("hilbert-square", "koch"), ("koch", "hilbert-square")])
def test_coverage_audit_fails_a_covering_of_another_system(name, other):
    # the same arity and stage, so the same words: only the parts differ
    ifs, _ = zoo_covering(name, 1)
    _, cov = zoo_covering(other, 1)
    report = verify_coverage(ifs, cov)
    assert report.base_inside and report.prefix_code and not report.passed


@given(
    axis=st.integers(0, 1),
    shift=st.floats(2.0 * geometry.GEOM_TOL, 5.0),
    sign=st.sampled_from([-1, 1]),
)
@settings(max_examples=40, deadline=None)
def test_coverage_audit_fails_squares_moved_off_their_parts(axis, shift, sign):
    # hilbert-square's parts fill their squares: moved up or right past the
    # slack, a square leaves its part's corner outside, moved down or left
    # its part's top or right edge; sigma = 1 only translates
    ifs, cov = zoo_covering("hilbert-square", 1)
    offset = [0.0, 0.0]
    offset[axis] = sign * shift
    report = verify_coverage(ifs, cov.affine_scaled(1.0, tuple(offset)))
    assert report.base_inside and report.prefix_code and not report.passed
    assert verify_coverage(ifs, cov.affine_scaled(1.0, (0.5 * geometry.GEOM_TOL,) * 2)).passed


@pytest.mark.parametrize("name,s", [("sierpinski", 1), ("hilbert-square", 1), ("unit-interval", 2)])
def test_coverage_audit_fails_a_build_with_an_off_by_one_window(name, s):
    # the build's last stage slices its parts one rank early; its squares
    # still pass the build's own side check, so only the audit sees it
    ifs, cov = zoo_covering(name, s)
    spans = tagging._stage_spans(cov.r, cov.s, cov.t)
    stage, m, first, count = spans[-1]
    early = spans[:-1] + [(stage, m, first - 1, count)]
    with mock.patch.object(tagging, "_stage_spans", lambda r, s, t: early):
        bad = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, s, 1))
    report = verify_coverage(ifs, bad)
    assert report.base_inside and report.prefix_code and not report.passed


@given(
    data=st.data(),
    name_s=st.sampled_from([("sierpinski", 1), ("unit-interval", 2)]),
    mutation=st.sampled_from(["drop", "repeat", "widen", "shift", "coarsen", "overrun"]),
)
@settings(max_examples=40, deadline=None)
def test_coverage_audit_fails_when_a_stage_is_dropped(data, name_s, mutation):
    ifs, cov = zoo_covering(*name_s)
    spans = tagging._stage_spans(cov.r, cov.s, cov.t)
    # shift moves a stage that has a successor; coarsen needs a stage j >= 2,
    # whose first rank and count are multiples of r
    lowest = 2 if mutation == "coarsen" else 0
    highest = len(spans) - (2 if mutation == "shift" else 1)
    k = data.draw(st.integers(lowest, highest))
    stage, m, first, count = spans[k]
    changed = {
        "drop": [],
        "repeat": [spans[k]] * 2,
        "widen": [(stage, m, first, count + 1)],  # overlaps the next stage, or leaves the tree
        "shift": [(stage, m, first + 1, count)],  # as many words, a gap and an overlap
        "coarsen": [(stage, m - 1, first // cov.r, count // cov.r)],  # the same range, fewer words
        # one word too many, repaid by a range of count -1: the ends still
        # chain and the counts still sum to q
        "overrun": [(stage, m, first, count + 1), (stage, m, first + count + 1, -1)],
    }[mutation]
    bad = spans[:k] + changed + spans[k + 1 :]
    with mock.patch.object(tagging, "_stage_spans", lambda r, s, t: bad):
        report = verify_coverage(ifs, cov)
    assert not report.prefix_code and not report.passed
    assert report.base_inside
    assert verify_coverage(ifs, cov).passed


def test_coverage_audit_fails_a_covering_that_stops_a_stage_early(gasket_cov):
    # the last stage's words and squares are gone: the rest still tile a
    # prefix of the tree and number q, but leave its end uncovered
    spans = tagging._stage_spans(3, 1, 3)
    q = gasket_cov.q - spans[-1][3]
    rows = slice(0, q)
    cut = dataclasses.replace(
        gasket_cov,
        q=q,
        tags=gasket_cov.tags[rows],
        sides=gasket_cov.sides[rows],
    )
    with mock.patch.object(tagging, "_stage_spans", lambda r, s, t: spans[:-1]):
        report = verify_coverage(sierpinski_gasket(), cut)
    assert not report.prefix_code and not report.passed


@given(k=st.integers(0, 26), shrink=st.floats(0.5, 0.99))
@settings(max_examples=40, deadline=None)
def test_coverage_audit_fails_a_square_smaller_than_its_part(gasket_cov, k, shrink):
    gasket = sierpinski_gasket()
    parts = part_sides(gasket, gasket_cov)
    sides = gasket_cov.sides.copy()
    sides[k] = parts[k] * shrink
    report = verify_coverage(gasket, dataclasses.replace(gasket_cov, sides=sides))
    assert not report.passed
    assert report.base_inside and report.prefix_code
    assert report.worst_fill == parts[k] / sides[k] > 1.0


def test_coverage_audit_allows_the_builds_tolerance(gasket_cov):
    gasket = sierpinski_gasket()
    parts = part_sides(gasket, gasket_cov)
    for slack, passed in ((0.5, True), (2.0, False)):
        cov = dataclasses.replace(gasket_cov, sides=parts - slack * geometry.GEOM_TOL)
        assert verify_coverage(gasket, cov).passed is passed


def box_containment(ifs, cov):
    """Fact (c) on each covered part's tight box instead of its bounding
    square, boxes from geometry._part_boxes: (contained, worst_fill)."""
    spans = tagging._stage_spans(cov.r, cov.s, cov.t)
    kept = []
    for level, boxes in enumerate(geometry._part_boxes(ifs, ifs.base_vertices(), cov.s + cov.t)):
        kept += [boxes[:, first : first + count] for _, m, first, count in spans if m == level]
    lo, hi = np.split(np.concatenate(kept, axis=1), 2)
    tags, tol = cov.tags.T, geometry.GEOM_TOL
    contained = bool((lo >= tags - tol).all() and (hi <= tags + cov.sides + tol).all())
    return contained, float(((hi - lo).max(axis=0) / cov.sides).max())


@pytest.mark.parametrize(
    "name,s",
    [("sierpinski", 1), ("hilbert-square", 1), ("koch", 1), ("unit-interval", 1),
     ("unit-interval", 2), ("unit-interval", 3)],
)
@pytest.mark.parametrize("dx", [0.0, 4e-9, -0.5])
def test_the_square_test_agrees_with_the_box_test_on_zoo_coverings(name, s, dx):
    # a part's bounding square holds its box, so the square test is the stricter;
    # on the built coverings, and with every square moved along x, the two agree
    ifs, cov = zoo_covering(name, s)
    moved = cov.affine_scaled(1.0, (dx, 0.0))
    report = verify_coverage(ifs, moved)
    assert (report.passed, report.worst_fill) == box_containment(ifs, moved)
    assert report.passed is (dx == 0.0)


def test_the_square_test_is_stricter_than_the_box_test():
    # a gasket part's box is sqrt(3)/2 as high as wide: squares moved down by a
    # tenth of the least side still hold every part's box, but not its bounding square
    ifs, cov = zoo_covering("sierpinski", 1)
    moved = cov.affine_scaled(1.0, (0.0, -0.1 * cov.sides.min()))
    assert box_containment(ifs, moved)[0]
    report = verify_coverage(ifs, moved)
    assert report.base_inside and report.prefix_code and not report.passed


@pytest.fixture(scope="module")
def diagonal_cov():
    curve = diagonal_curve()
    return build_tagged_covering(curve, BuilderParams.from_stage(curve, 2, 1))


def test_a_curve_covering_passes_coverage_on_facts_b_and_c(diagonal_cov):
    report = verify_coverage(diagonal_curve(), diagonal_cov)
    assert (report.passed, report.prefix_code, report.base_inside) == (True, True, None)
    assert sorted(report.to_record()) == ["pass", "prefix_code", "worst_fill"]
    assert report.worst_fill == 1.0  # the stage ends' squares equal their parts


@given(
    k=st.integers(0, 63),
    axis=st.integers(0, 1),
    factor=st.floats(1.0, 4.0),
    sign=st.sampled_from([-1, 1]),
)
@settings(max_examples=40, deadline=None)
def test_a_curve_covering_with_one_square_moved_off_its_part_fails(diagonal_cov, k, axis, factor, sign):
    # moved by at least its own side, the square no longer meets its part
    tags = diagonal_cov.tags.copy()
    tags[k, axis] += sign * factor * diagonal_cov.sides[k]
    report = verify_coverage(diagonal_curve(), dataclasses.replace(diagonal_cov, tags=tags))
    assert report.prefix_code and not report.passed
    assert report.worst_fill == 1.0


@pytest.mark.parametrize("source", [unit_interval(), diagonal_curve()], ids=lambda s: s.name)
def test_coverage_is_refused_before_any_level_past_the_budget(source, monkeypatch):
    # s = 2 reaches resolution 8: 256 parts
    cov = build_tagged_covering(source, BuilderParams.from_stage(source, 2, 1))

    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.setattr(geometry, "_part_boxes", no_levels)
    monkeypatch.setattr(zoo, "_holder_level", no_levels)
    monkeypatch.setenv("HBD_COVER_BUDGET", "255")
    with pytest.raises(BudgetExceededError, match="^256 parts exceed budget 255$"):
        verify_coverage(source, cov)


@pytest.mark.parametrize(
    "make,m",
    [(sierpinski_gasket, 4), (unit_interval, 8)],
    ids=["gasket", "interval"],
)
def test_jump_lemma_holds_on_zoo_systems(make, m):
    ifs = make()
    report = verify_jump_lemma(ifs, m)
    assert report.passed
    assert report.counterexample is None
    assert report.pairs_checked == jump_band_pairs(ifs.r, m)


@pytest.mark.parametrize(
    "gamma, rho",
    [(float("nan"), None), (float("inf"), None), (-1.0, None), (0.0, None),
     (None, float("inf")), (None, -1.0)],
)
def test_jump_lemma_rejects_a_meaningless_exponent(gamma, rho):
    # gamma = -1 used to pass; gamma = 0 divided by zero
    with pytest.raises(ValueError, match="must be finite and > 0"):
        verify_jump_lemma(koch_curve(), 4, gamma=gamma, rho=rho)


def test_jump_lemma_record_shape():
    record = verify_jump_lemma(unit_interval(), 4).to_record()
    assert record["pass"] is True
    assert record["m"] == 4


def band_pairs(q, short):
    """The pairs j < l < q with l - j <= short: the band one threshold's
    pass covers."""
    b = min(short, q - 1)
    return b * q - b * (b + 1) // 2


def jump_band_pairs(r, m, n=None):
    """band_pairs of the r^m tags of resolution m at threshold n, by default
    the last, m - 1, whose short gap is the largest below (r^(n-1) + r - 2)
    / (r - 1): the pairs decided up to n."""
    n = m - 1 if n is None else n
    return band_pairs(r**m, math.ceil((r ** (n - 1) + r - 2) / (r - 1)) - 1)


def jump_reference(ifs, m, gamma=None, rho=None):
    """Every tag pair at once, n by n, as verify_jump_lemma did before it
    streamed rows; returns the record without pairs_checked."""
    gamma = ifs.gamma if gamma is None else gamma
    rho = ifs.rho if rho is None else rho
    r = ifs.r
    c = r ** (-1.0 / gamma)
    level = list(iter_levels(ifs, m))[-1]
    jj, ll = np.triu_indices(len(level), k=1)
    dist = np.abs(level.corners[jj] - level.corners[ll]).max(axis=1)
    gaps = (ll - jj).astype(float)
    for n in range(0, m):
        required = (r ** (n - 1) + r - 2) / (r - 1)
        threshold = c ** (m - n) * rho * (1.0 - 1e-9)
        bad = (dist >= threshold) & (gaps < required)
        if bad.any():
            b = int(np.argmax(bad))
            counterexample = {
                "j": level.index(jj[b]),
                "l": level.index(ll[b]),
                "n": n,
                "distance": float(dist[b]),
                "gap": int(gaps[b]),
                "required": required,
            }
            return {"m": m, "pass": False, "counterexample": counterexample}
    return {"m": m, "pass": True}


def a_paper():
    """The A-paper rectangle [0, 1] x [0, sqrt 2]: two maps of ratio 2^(-1/2)
    turn it by +-pi/2 onto its lower and upper halves. Consecutive parts
    stop overlapping from m = 5, though (i)-(iii) pass to m = 14."""
    ratio = 2.0**-0.5
    maps = (
        Similarity(ratio, math.pi / 2.0, False, (1.0, 0.0)),
        Similarity(ratio, -math.pi / 2.0, False, (0.0, math.sqrt(2.0))),
    )
    return OrderedIFS(
        maps=maps, shape="square", corner=(0.0, 0.0), side=math.sqrt(2.0),
        gamma=2.0, rho=math.sqrt(2.0), name="a-paper",
    )


# gamma and rho as factors of the system's own; the last entry is the n of
# the counterexample, None for a pass. The gasket at m = 7 has q = 2187 and
# windows of 1, 4, 13, 40 and 121 ranks.
JUMP_CASES = [
    *[(gap_dust, m, 1.0, 1.0, None if m < 3 else 2) for m in range(1, 7)],
    (sierpinski_gasket, 4, 1.0, 1.0, None),
    (sierpinski_gasket, 5, 0.6, 1.0, 2),
    (sierpinski_gasket, 5, 0.8, 0.5, 3),
    (sierpinski_gasket, 6, 0.9, 0.5, 4),
    (sierpinski_gasket, 7, 1.0, 1.0, None),
    (a_paper, 6, 1.0, 1.0, 2),
    (hilbert_square, 4, 1.0, 1.0, None),
    (hilbert_square, 4, 0.6, 0.2, 2),
    (hilbert_square, 5, 0.8, 0.5, 3),
    (unit_interval, 8, 1.0, 1.0, None),
    (unit_interval, 5, 0.8, 0.5, 3),
    (unit_interval, 6, 0.9, 0.5, 4),
    (unit_interval, 6, 0.4, 0.05, 2),
]


@pytest.mark.parametrize(
    "case", JUMP_CASES, ids=lambda c: f"{c[0].__name__}-m{c[1]}-g{c[2]}-rho{c[3]}"
)
def test_jump_lemma_matches_all_pairs_reference(case):
    make, m, gamma_factor, rho_factor, expected_n = case
    ifs = make()
    gamma, rho = ifs.gamma * gamma_factor, ifs.rho * rho_factor
    record = verify_jump_lemma(ifs, m, gamma=gamma, rho=rho).to_record()
    pairs_checked = record.pop("pairs_checked")
    assert record == jump_reference(ifs, m, gamma=gamma, rho=rho)
    assert record.get("counterexample", {}).get("n") == expected_n
    # a failure counts the band of its counterexample's n, a pass that of n = m - 1
    assert pairs_checked == jump_band_pairs(ifs.r, m, expected_n)


def test_jump_lemma_holds_on_the_gasket_at_m_11():
    # 177,147 tags: 1.57e10 pairs, of which the band holds 1.69e9
    report = verify_jump_lemma(sierpinski_gasket(), 11)
    assert report.passed
    assert report.pairs_checked == jump_band_pairs(3, 11) == 1_694_876_066


def test_jump_lemma_holds_on_the_gasket_at_m_12():
    # 531,441 tags, the last resolution inside the part budget: its band of
    # 1.5e10 pairs needs no pair budget
    report = verify_jump_lemma(sierpinski_gasket(), 12)
    assert report.passed
    assert report.pairs_checked == jump_band_pairs(3, 12) == 15_254_416_034


def test_jump_lemma_fails_on_the_a_paper_rectangle():
    record = verify_jump_lemma(a_paper(), 6).to_record()
    assert record["counterexample"] == {
        "j": [1, 2, 2, 2, 2, 2],
        "l": [2, 1, 1, 1, 1, 1],
        "n": 2,
        "distance": 0.5303300858899106,
        "gap": 1,
        "required": 2.0,
    }


def jump_pass_reference(tags, threshold, short):
    """Every pair at once: the first premise hit of one threshold in (j, l)
    order with l - j <= short, as (j, l, distance), or None."""
    x, y = tags
    jj, ll = np.triu_indices(len(x), k=1)
    dist = np.maximum(np.abs(x[jj] - x[ll]), np.abs(y[jj] - y[ll]))
    bad = np.flatnonzero((dist >= threshold) & (ll - jj <= short))
    return None if bad.size == 0 else (int(jj[bad[0]]), int(ll[bad[0]]), float(dist[bad[0]]))


def check_jump_pass(tags, threshold, short):
    """_first_far_pair's first bad pair of one threshold, checked against the
    reference."""
    first_bad = _first_far_pair(tags, threshold, short)
    assert first_bad == jump_pass_reference(tags, threshold, short)
    return first_bad


# q = 1 has no pair; at q = 16 windows of 17 ranks and more reach past the
# last rank from every row; 65 leaves one rank past 64-rank window blocks;
# 130 and 300 plant a bad pair.
@example(q=1, kind="walk", seed=0, count=2, plant=False)
@example(q=16, kind="grid", seed=1, count=3, plant=False)
@example(q=65, kind="walk", seed=2, count=4, plant=False)
@example(q=130, kind="walk", seed=2, count=4, plant=True)
@example(q=300, kind="coincident", seed=3, count=1, plant=True)
@given(
    q=st.integers(1, 300),
    kind=st.sampled_from(["walk", "grid", "free", "coincident"]),
    seed=st.integers(0, 2**32 - 1),
    count=st.integers(0, 6),
    plant=st.booleans(),
)
@settings(max_examples=80, deadline=None)
def test_jump_pass_matches_all_pairs_reference(q, kind, seed, count, plant):
    rng = np.random.default_rng(seed)
    tags = np.ascontiguousarray(layout(kind, q, rng)[0].T)
    x, y = tags
    jj, ll = np.triu_indices(q, k=1)
    dist = np.maximum(np.abs(x[jj] - x[ll]), np.abs(y[jj] - y[ll]))
    # thresholds on some pair's distance, so ties with the bounds occur, or free
    on_pair = dist.size and rng.uniform() < 0.7
    threshold = [float(rng.choice(dist) if on_pair else rng.uniform(0.0, 4.0)) for _ in range(count)]
    short = [int(rng.choice([0, 1, 2, 17, 63, 64, 65, 200])) for _ in range(count)]
    if plant and q > 65:
        # one point far off among near ones: every pair within gap s of it
        # hits, and the first of them is (p - s, p), at j >= 64
        p = int(rng.integers(65, q))
        s = int(rng.integers(1, p - 63))
        tags = tags * 1e-3
        x, y = tags
        x[p] += 10.0
        threshold.append(float(max(abs(x[p - s] - x[p]), abs(y[p - s] - y[p]))))
        short.append(s)
        assert jump_pass_reference(tags, threshold[-1], s)[:2] == (p - s, p)
    for t, s in zip(threshold, short):
        check_jump_pass(tags, t, s)


@pytest.mark.parametrize("j, s", [(63, 100), (63, 64), (127, 65), (64, 1), (191, 108)])
@pytest.mark.parametrize("axis, sign", [(0, 1.0), (0, -1.0), (1, 1.0), (1, -1.0)])
@pytest.mark.parametrize("threshold", [0.5, 1.0])
def test_jump_pass_finds_a_far_point_at_the_end_of_the_band(j, s, axis, sign, threshold):
    # every point at the origin but p = j + s, one unit off along either
    # axis in either direction, so the bad pairs are (i, p) for
    # p - s <= i < p; the first, (j, p), is the last rank of row j's window,
    # which spans two blocks of s ranks unless s divides j + 1. A threshold
    # of 1 ties the row's reach.
    q = 300
    tags = np.zeros((2, q))
    tags[axis, j + s] = sign
    assert check_jump_pass(tags, threshold, s) == (j, j + s, 1.0)


def test_a_failing_jump_check_stops_at_the_first_bad_threshold(monkeypatch):
    # gap dust fails at n = 2, whose largest short gap is 1; the thresholds
    # past it, with windows of up to 255 ranks, are never decided
    widths = []

    def spy(v, w):
        widths.append(w)
        return _window_max(v, w)

    monkeypatch.setattr(separation, "_window_max", spy)
    report = verify_jump_lemma(gap_dust(), 10)
    assert report.counterexample["n"] == 2
    assert widths and max(widths) == 1
    assert report.pairs_checked == band_pairs(2**10, 1) == 1023


@example(q=1, w=1, distinct=2, seed=0)
@example(q=5, w=5, distinct=1, seed=0)
@example(q=7, w=3, distinct=3, seed=0)
@example(q=300, w=400, distinct=4, seed=0)
@given(
    q=st.integers(1, 300),
    w=st.integers(1, 400),
    distinct=st.integers(1, 6),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=80, deadline=None)
def test_window_max_matches_a_max_per_window(q, w, distinct, seed):
    # few distinct values, so windows tie; w >= q reaches past the last rank
    v = np.random.default_rng(seed).integers(0, distinct, size=q).astype(float)
    want = [v[j + 1 : j + 1 + w].max(initial=-np.inf) for j in range(q)]
    assert _window_max(v, w).tolist() == want
