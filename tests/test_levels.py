"""Rank-indexed level arrays against single-part references.

System levels are checked against compose_part and, bit for bit, against the
(n, k, 2) vertex recursion of geometry_reference; so are the point images
behind attractor_points and the pseudo curves. The streamed boxes, whose
last level is reduced block by block, are checked bit for bit against the
whole-level recursion. Curve levels are checked against a per-interval loop
kept here. The nesting check is held to a reference that repeats each
parent box r times, and all three condition checks to per-part loops kept
here, on levels edited to hold nan and boxes exactly at the tolerance's
edge. Two memory bounds hold the streamed pipeline to about two levels at
a time.
"""

import functools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover import geometry, zoo
from orderedcover.geometry import (
    BUDGET_ENV_VAR,
    GEOM_TOL,
    BudgetExceededError,
    Level,
    OrderedIFS,
    Similarity,
    attractor_points,
    images_under_words,
    iter_levels,
    lex_unrank,
)
from orderedcover.hbd import (
    ConditionResult,
    check_adjacency,
    check_diameters,
    check_nesting,
    hbd_report,
)
from orderedcover.separation import verify_coverage, verify_jump_lemma
from orderedcover.shifts import rolewicz_family, run_dynamics_experiment
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.zoo import (
    CurveEvaluator,
    arrowhead_pseudo,
    diagonal_curve,
    gap_dust,
    hilbert_pseudo,
    holder_levels,
    hilbert_square,
    koch_curve,
    minkowski_sausage,
    sierpinski_gasket,
    unit_interval,
    zoo_source,
)

from geometry_reference import (
    MultiIndex,
    compose_part,
    reference_images,
    reference_levels,
    whole_level_boxes,
)

MAKERS = (sierpinski_gasket, hilbert_square, koch_curve, minkowski_sausage, unit_interval, gap_dust)
SYSTEMS = {make().name: make for make in MAKERS}
MAX_DEPTH = 6


@functools.lru_cache(maxsize=None)
def system_levels(name):
    ifs = SYSTEMS[name]()
    return ifs, list(iter_levels(ifs, MAX_DEPTH))


@given(name=st.sampled_from(sorted(SYSTEMS)), depth=st.integers(0, MAX_DEPTH), data=st.data())
@settings(max_examples=300, deadline=None)
def test_levels_match_compose_part(name, depth, data):
    ifs, lv = system_levels(name)
    rank = data.draw(st.integers(0, ifs.r**depth - 1))
    corner, side = compose_part(ifs, MultiIndex(lex_unrank(rank, depth, ifs.r), ifs.r))
    got = np.array([*lv[depth].corners[rank], lv[depth].sides[rank]])
    want = np.array([*corner, side])
    # compose_part rounds through numpy's small matmul, which may fuse
    # multiply-adds where the levels round each product on its own
    assert np.abs(got - want).max() <= 1e-15


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_level_shapes_follow_rank_order(name):
    ifs, lv = system_levels(name)
    assert [level.m for level in lv] == list(range(MAX_DEPTH + 1))
    for level in lv[:4]:
        n = ifs.r**level.m
        assert len(level) == n
        assert level.corners.shape == (n, 2)
        assert level.sides.shape == (n,) and level.r == ifs.r
        assert [level.index(k) for k in range(n)] == [
            lex_unrank(k, level.m, ifs.r) for k in range(n)
        ]


def test_levels_refuse_before_building(monkeypatch):
    def no_images(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(geometry, "_part_boxes", no_images)
    monkeypatch.setenv(BUDGET_ENV_VAR, "100")
    with pytest.raises(BudgetExceededError, match="^243 parts exceed budget 100$"):
        list(iter_levels(sierpinski_gasket(), 7))
    with pytest.raises(BudgetExceededError, match="^243 parts exceed budget 100$"):
        attractor_points(sierpinski_gasket(), 7)
    monkeypatch.setenv(BUDGET_ENV_VAR, "1000")
    with pytest.raises(BudgetExceededError, match="^1024 parts exceed budget 1000$"):
        hbd_report(koch_curve(), 1.2, 1.4, 6)


# each library call that enumerates levels, on the unit interval at stage s = 2
# (resolution 8) or its like, under a budget of 255; hilbert-pseudo:9 reaches 4^4
OVERRUNS = {
    "build_tagged_covering": lambda line, cov: build_tagged_covering(
        line, BuilderParams.from_stage(line, 2, 1)
    ),
    "verify_coverage": lambda line, cov: verify_coverage(line, cov),
    "verify_jump_lemma": lambda line, cov: verify_jump_lemma(line, 8),
    "run_dynamics_experiment": lambda line, cov: run_dynamics_experiment(
        line, rolewicz_family(), s=2
    ),
    "zoo_source": lambda line, cov: zoo_source("hilbert-pseudo:9"),
    "holder_levels": lambda line, cov: holder_levels(diagonal_curve(), 8),
    "images_under_words": lambda line, cov: images_under_words(line, np.zeros(2), 8),
}


@pytest.mark.parametrize("call", OVERRUNS.values(), ids=OVERRUNS)
def test_every_level_call_refuses_under_the_budget_variable_first(call, monkeypatch):
    def no_levels(*args, **kwargs):
        raise AssertionError("a level was built")

    monkeypatch.delenv(BUDGET_ENV_VAR, raising=False)
    line = unit_interval()
    cov = build_tagged_covering(line, BuilderParams.from_stage(line, 2, 1))  # at 10^6
    monkeypatch.setattr(geometry, "_part_boxes", no_levels)
    monkeypatch.setattr(zoo, "_holder_level", no_levels)
    monkeypatch.setenv(BUDGET_ENV_VAR, "255")
    with pytest.raises(BudgetExceededError, match="^256 parts exceed budget 255$"):
        call(line, cov)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_attractor_points_lie_in_their_own_parts(name):
    ifs, lv = system_levels(name)
    pts = attractor_points(ifs, 4)
    lo = lv[4].corners
    hi = lo + lv[4].sides[:, None]
    assert pts.shape == (ifs.r**4, 2)
    assert ((pts >= lo - 1e-12) & (pts <= hi + 1e-12)).all()


def test_attractor_points_of_the_line_are_dyadic_left_ends():
    pts = attractor_points(unit_interval(), 5)
    assert (pts[:, 1] == 0.0).all()
    assert np.array_equal(pts[:, 0], np.arange(32) / 32.0)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_attractor_points_follow_the_vertex_reference_bit_for_bit(name):
    ifs = SYSTEMS[name]()
    first = ifs.maps[0]
    fixed = np.linalg.solve(np.eye(2) - first.matrix(), np.asarray(first.shift))
    want = reference_images(ifs, fixed[None], 5)[:, 0]
    assert attractor_points(ifs, 5).tobytes() == want.tobytes()


@pytest.mark.parametrize("order", [1, 2, 5])
def test_pseudo_curve_vertices_follow_the_vertex_reference_bit_for_bit(order):
    gasket = sierpinski_gasket()
    a, b = gasket.base_vertices()[:2]
    cases = (
        (arrowhead_pseudo, gasket, a, b),
        (hilbert_pseudo, hilbert_square(), np.array([-0.5, -0.5]), np.array([0.5, -0.5])),
    )
    for make, ifs, start, end in cases:
        curve = make(order)
        want = np.vstack([reference_images(ifs, start[None], order)[:, 0], end])
        assert curve(curve.breakpoints).tobytes() == want.tobytes()


def test_adjacency_reports_the_first_gap_in_rank_order():
    # r = 3, m = 2: consecutive pairs (1,3)-(2,1) at ranks 2-3 and (2,3)-(3,1)
    # at ranks 5-6; both have a gap, the first is reported
    xs = [0, 1, 2, 4, 5, 6, 8, 9, 10]
    corners = np.stack([np.array(xs, dtype=float), np.zeros(9)], axis=1)
    sides = np.where(np.arange(9) == 2, 0.5, 1.0)
    result = check_adjacency(Level(2, 3, corners, sides))
    assert not result.passed
    assert result.counterexample == {"left": [1, 3], "right": [2, 1]}


def assert_same_bits(got, want):
    assert (got.m, got.r) == (want.m, want.r)
    for key in ("corners", "sides"):
        a, b = getattr(got, key), getattr(want, key)
        assert a.shape == b.shape and a.dtype == b.dtype, key
        assert a.tobytes() == b.tobytes(), key


def assert_images_same_bits(ifs, points, m):
    want = reference_images(ifs, points, m)
    for k, point in enumerate(points):
        assert images_under_words(ifs, point, m).tobytes() == want[:, k].tobytes()


def assert_boxes_same_bits(ifs, points, m):
    """Streamed boxes equal the whole-level ones byte for byte, so every zero
    has the reference's sign too."""
    got = list(geometry._part_boxes(ifs, points, m))
    want = whole_level_boxes(ifs, points, m)
    assert len(got) == len(want) == m + 1
    for a, b in zip(got, want):
        assert a.shape == b.shape and a.tobytes() == b.tobytes()


# every zoo system as deep as 8, or as deep as the part budget allows
ZOO_DEPTH = {name: 6 if name == "minkowski" else 8 for name in SYSTEMS}


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_levels_match_vertex_reference_bit_for_bit(name):
    ifs = SYSTEMS[name]()
    got, want = list(iter_levels(ifs, ZOO_DEPTH[name])), reference_levels(ifs, ZOO_DEPTH[name])
    for level, ref in zip(got, want, strict=True):
        assert_same_bits(level, ref)
    points = np.vstack([ifs.base_vertices(), [[0.3, -0.7], [1e-3, 2.5]]])
    assert_images_same_bits(ifs, points, ZOO_DEPTH[name])
    assert_boxes_same_bits(ifs, ifs.base_vertices(), ZOO_DEPTH[name])
    assert_boxes_same_bits(ifs, points, ZOO_DEPTH[name])


@pytest.mark.parametrize("m", [15, 16, 17])
def test_last_level_over_several_blocks_matches_whole_level_bit_for_bit(m):
    # the last level's parents number 2^(m-1): 2, 4 and 8 blocks per map
    ifs = unit_interval()
    assert 2 ** (m - 1) >= 2 * geometry._BLOCK_PARTS
    assert_boxes_same_bits(ifs, ifs.base_vertices(), m)


@st.composite
def random_systems(draw):
    """An ordered system of r maps of one ratio, each moved to a drawn place
    inside the base box; some angles repeat, as the zoo's do."""
    r = draw(st.integers(2, 4))
    ratio = draw(st.floats(0.1, 0.5))
    shape = draw(st.sampled_from(["square", "triangle"]))
    corner = (draw(st.floats(-2.0, 2.0)), draw(st.floats(-2.0, 2.0)))
    side = draw(st.floats(0.5, 3.0))
    angles = st.one_of(st.sampled_from([0.0, math.pi / 3, math.pi / 2, math.pi, -math.pi / 2]),
                       st.floats(-7.0, 7.0))
    fix_corner = Similarity(ratio, 0.0, False, tuple((1.0 - ratio) * np.asarray(corner)))
    base = OrderedIFS((fix_corner,) * 2, shape, corner, side, 1.0, 1.0).base_vertices()
    maps = []
    for _ in range(r):
        angle, reflect = draw(angles), draw(st.booleans())
        image = Similarity(ratio, angle, reflect, (0.0, 0.0)).apply(base)
        lo, hi = image.min(axis=0), image.max(axis=0)
        room = side - (hi - lo)
        u = np.array([draw(st.floats(0.0, 1.0)), draw(st.floats(0.0, 1.0))])
        shift = np.asarray(corner) - lo + u * room
        maps.append(Similarity(ratio, angle, reflect, (float(shift[0]), float(shift[1]))))
    return OrderedIFS(tuple(maps), shape, corner, side, 1.0, 1.0)


@given(ifs=random_systems(), data=st.data())
@settings(max_examples=60, deadline=None)
def test_levels_of_drawn_systems_match_vertex_reference_bit_for_bit(ifs, data):
    depth = data.draw(st.integers(0, {2: 9, 3: 6, 4: 5}[ifs.r]))
    # small blocks split the last level into many, the last one ragged
    block = data.draw(st.sampled_from([1, 3, 7, geometry._BLOCK_PARTS]))
    xy = st.floats(-3.0, 3.0)
    points = np.array(data.draw(st.lists(st.tuples(xy, xy), min_size=1, max_size=4)))
    with mock.patch.object(geometry, "_BLOCK_PARTS", block):
        got, want = list(iter_levels(ifs, depth)), reference_levels(ifs, depth)
        for level, ref in zip(got, want, strict=True):
            assert_same_bits(level, ref)
        assert_images_same_bits(ifs, points, depth)
        assert_boxes_same_bits(ifs, ifs.base_vertices(), depth)
        assert_boxes_same_bits(ifs, points, depth)


def reference_nesting(parent, child, tol=GEOM_TOL):
    """First child rank whose box escapes its parent's, by repeating every
    parent box r times; None if all are nested."""
    r = child.r
    lo = np.repeat(parent.corners, r, axis=0)
    hi = np.repeat(parent.corners + parent.sides[:, None], r, axis=0)
    inside = (child.corners >= lo - tol) & (child.corners + child.sides[:, None] <= hi + tol)
    bad = np.flatnonzero(~inside.all(axis=1))
    return int(bad[0]) if bad.size else None


def assert_nesting_matches_reference(parent, child):
    result, k = check_nesting(parent, child), reference_nesting(parent, child)
    assert result.passed == (k is None)
    if k is not None:
        assert result.counterexample == {
            "index": child.index(k), "parent": parent.index(k // child.r),
            "reason": "box escapes parent",
        }


@given(name=st.sampled_from(sorted(SYSTEMS)), depth=st.integers(1, MAX_DEPTH), data=st.data())
@settings(max_examples=60, deadline=None)
def test_nesting_gives_the_reference_counterexample(name, depth, data):
    ifs, lv = system_levels(name)
    parent, child = lv[depth - 1], lv[depth]
    assert_nesting_matches_reference(parent, child)
    # force (ii) to fail: move or grow a few children, the first far enough to
    # leave its parent, the others far or by a hair past the tolerance
    corners, sides = child.corners.copy(), child.sides.copy()
    far = 1.0 + parent.sides.max()
    ranks = data.draw(st.lists(st.integers(0, len(child) - 1), min_size=1, max_size=3,
                               unique=True))
    for i, rank in enumerate(ranks):
        size = far if i == 0 else data.draw(st.sampled_from([2e-9, far]))
        push = data.draw(st.sampled_from([-1.0, 1.0])) * size
        if data.draw(st.booleans()):
            corners[rank, data.draw(st.sampled_from([0, 1]))] += push
        else:
            sides[rank] += size
    forced = Level(child.m, child.r, corners, sides)
    assert not check_nesting(parent, forced).passed
    assert_nesting_matches_reference(parent, forced)


def reference_holder_level(curve, m):
    """Resolution m interval by interval: both ends plus inner breakpoints."""
    bp = curve.breakpoints
    corners, sides = [], []
    for j in range(2**m):
        lo, hi = j * 0.5**m, (j + 1) * 0.5**m
        pts = curve(np.concatenate([[lo, hi], bp[(bp > lo) & (bp < hi)]]))
        corner = pts.min(axis=0)
        corners.append(corner)
        sides.append((pts.max(axis=0) - corner).max())
    return np.array(corners), np.array(sides)


CURVES = {
    "diag": lambda order: diagonal_curve(),
    "arrowhead": arrowhead_pseudo,
    "hilbert": hilbert_pseudo,
}


@functools.lru_cache(maxsize=None)
def curve_levels(family, order):
    curve = CURVES[family](order)
    return curve, list(holder_levels(curve, 8))


@given(family=st.sampled_from(sorted(CURVES)), order=st.integers(1, 6), m=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_holder_levels_match_per_interval_reference(family, order, m):
    curve, lv = curve_levels(family, order)
    corners, sides = reference_holder_level(curve, m)
    assert lv[m].m == m and lv[m].r == 2
    assert lv[m].corners.tobytes() == corners.tobytes()
    assert lv[m].sides.tobytes() == sides.tobytes()
    # the curve between the breakpoints stays in the boxes, up to rounding
    j = np.arange(2**m)
    pts = curve(np.linspace(j * 0.5**m, (j + 1) * 0.5**m, 64, axis=-1))
    assert (pts >= lv[m].corners[:, None] - 1e-15).all()
    assert (pts <= (lv[m].corners + lv[m].sides[:, None])[:, None] + 1e-15).all()


def test_holder_levels_refuse_before_sampling(monkeypatch):
    def no_samples(self, ts):
        raise AssertionError("the curve was sampled")

    curve = CurveEvaluator([[0.0, 0.0], [0.5, 1.0], [1.0, 0.0]], holder_beta=1.0, holder_rho=2.0)
    monkeypatch.setattr(CurveEvaluator, "__call__", no_samples)
    with pytest.raises(BudgetExceededError, match="^1048576 parts exceed budget 1000000$"):
        holder_levels(curve, 20)
    monkeypatch.setenv(BUDGET_ENV_VAR, "10")
    with pytest.raises(BudgetExceededError, match="^16 parts exceed budget 10$"):
        holder_levels(curve, 5)


@pytest.mark.parametrize("family", sorted(CURVES))
def test_nesting_of_curve_levels_matches_reference(family):
    curve, lv = curve_levels(family, 3)
    for parent, child in zip(lv, lv[1:]):
        assert_nesting_matches_reference(parent, child)


def diameters_loop(level, rho, c):
    """Condition (i) part by part: the first side not <= rho c^m + GEOM_TOL."""
    bound = rho * c**level.m
    for k, side in enumerate(level.sides.tolist()):
        if not side <= bound + GEOM_TOL:
            cex = {"index": level.index(k), "side": side, "bound": bound}
            return ConditionResult("i", level.m, False, cex)
    return ConditionResult("i", level.m, True)


def nesting_loop(parent, child):
    """Condition (ii) part by part and axis by axis."""
    lo, side = child.corners.tolist(), child.sides.tolist()
    parent_lo, parent_side = parent.corners.tolist(), parent.sides.tolist()
    for k in range(len(child)):
        i = k // child.r
        for axis in (0, 1):
            if not (
                lo[k][axis] >= parent_lo[i][axis] - GEOM_TOL
                and lo[k][axis] + side[k] <= parent_lo[i][axis] + parent_side[i] + GEOM_TOL
            ):
                cex = {"index": child.index(k), "parent": parent.index(i)}
                cex["reason"] = "box escapes parent"
                return ConditionResult("ii", child.m, False, cex)
    return ConditionResult("ii", child.m, True)


def adjacency_loop(level):
    """Condition (iii) pair by pair: ranks a and a + 1 where a ends in r and
    its next-to-last entry is not r, that is (i, j-1, r) and (i, j, 1)."""
    r, lo, side = level.r, level.corners.tolist(), level.sides.tolist()
    for a in range(r - 1, len(level) - 1, r):
        if (a // r) % r == r - 1:
            continue
        for axis in (0, 1):
            if not (
                lo[a][axis] <= lo[a + 1][axis] + side[a + 1] + GEOM_TOL
                and lo[a + 1][axis] <= lo[a][axis] + side[a] + GEOM_TOL
            ):
                cex = {"left": level.index(a), "right": level.index(a + 1)}
                return ConditionResult("iii", level.m, False, cex)
    return ConditionResult("iii", level.m, True)


def _past(x, ulps, direction):
    for _ in range(ulps):
        x = math.nextafter(x, direction)
    return x


def reach(lo, parent, i, axis):
    """The side that puts lo + side exactly on the parent's hi end plus
    GEOM_TOL on that axis, when one of the three floats nearest it does."""
    edge = float(parent.corners[i, axis] + parent.sides[i] + GEOM_TOL)
    near = edge - float(lo)
    tries = (near, math.nextafter(near, -math.inf), math.nextafter(near, math.inf))
    return next((side for side in tries if lo + side == edge), near)


def edit_level(level, data, parent, bound):
    """A copy of the level, in the same memory layout, with up to four parts
    edited: a nan corner or side, a side at the diameter bound plus
    GEOM_TOL, a corner at its parent's minus GEOM_TOL, a hi end at its
    parent's plus GEOM_TOL, or one part of a pair that condition (iii)
    compares moved to the other's hi end plus GEOM_TOL; each edge exact or
    one ulp past it."""
    corners, sides = np.array(level.corners, order="K"), level.sides.copy()
    m, r, n = level.m, level.r, len(level)
    kinds = ["nan corner", "nan side", "side at bound"]
    kinds += ["parent lo", "parent hi"] if parent is not None else []
    kinds += ["pair", "pair reversed"] if m >= 2 else []
    for _ in range(data.draw(st.integers(0, 4))):
        kind, axis = data.draw(st.sampled_from(kinds)), data.draw(st.integers(0, 1))
        k, ulps = data.draw(st.integers(0, n - 1)), data.draw(st.integers(0, 1))
        if kind == "nan corner":
            corners[k, axis] = math.nan
        elif kind == "nan side":
            sides[k] = math.nan
        elif kind == "side at bound":
            sides[k] = _past(bound + GEOM_TOL, ulps, math.inf)
        elif kind == "parent lo":
            corners[k, axis] = _past(parent.corners[k // r, axis] - GEOM_TOL, ulps, -math.inf)
        elif kind == "parent hi":  # on the axis with less room, so only it touches
            side = min(reach(corners[k, ax], parent, k // r, ax) for ax in (0, 1))
            sides[k] = _past(side, ulps, math.inf)
        else:  # a = (i, j-1, r) for a drawn i and j, and a + 1 = (i, j, 1)
            i, j = data.draw(st.integers(0, r ** (m - 2) - 1)), data.draw(st.integers(0, r - 2))
            a = (i * r + j) * r + r - 1
            left, right = (a, a + 1) if kind == "pair" else (a + 1, a)
            edge = float(corners[left, axis] + sides[left] + GEOM_TOL)
            corners[right, axis] = _past(edge, ulps, math.inf)
    return Level(m, r, corners, sides)


def assert_conditions_match_loops(parent, child, data):
    c = data.draw(st.sampled_from([0.5, 1.0 / 3.0, 0.7]))
    rho = data.draw(st.sampled_from([0.5, 1.0])) * float(child.sides.max()) / c**child.m
    parent = edit_level(parent, data, None, rho * c**parent.m)
    child = edit_level(child, data, parent, rho * c**child.m)
    # small blocks split the nesting check into many, the last one ragged
    block = data.draw(st.sampled_from([1, 5, 16, geometry._BLOCK_PARTS]))
    with mock.patch.object(geometry, "_BLOCK_PARTS", block):
        nesting = check_nesting(parent, child)
    pairs = [
        (check_diameters(parent, rho, c), diameters_loop(parent, rho, c)),
        (check_diameters(child, rho, c), diameters_loop(child, rho, c)),
        (nesting, nesting_loop(parent, child)),
        (check_adjacency(child), adjacency_loop(child)),
    ]
    if parent.m >= 2:
        pairs.append((check_adjacency(parent), adjacency_loop(parent)))
    for got, want in pairs:
        assert repr(got) == repr(want)  # a nan side equals a nan; -0.0 differs from 0.0


@given(ifs=random_systems(), data=st.data())
@settings(max_examples=80, deadline=None)
def test_conditions_match_per_part_loops_on_drawn_systems(ifs, data):
    m = data.draw(st.integers(2, {2: 6, 3: 4, 4: 3}[ifs.r]))
    lv = list(iter_levels(ifs, m))
    assert_conditions_match_loops(lv[m - 1], lv[m], data)


@given(family=st.sampled_from(sorted(CURVES)), order=st.integers(1, 4), data=st.data())
@settings(max_examples=40, deadline=None)
def test_conditions_match_per_part_loops_on_curve_levels(family, order, data):
    _, lv = curve_levels(family, order)
    m = data.draw(st.integers(2, 8))
    assert_conditions_match_loops(lv[m - 1], lv[m], data)


def peak_traced_mb(run) -> float:
    """Most memory traced during run(), above the level at its start."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        tracemalloc.reset_peak()
        run()
        return (tracemalloc.get_traced_memory()[1] - before) / 2**20
    finally:
        tracemalloc.stop()


def test_tagged_build_keeps_no_whole_level():
    # s = 3: levels 0..17, 262,143 parts in all, of which the q = 16,384
    # squares keep one stage slice per level
    ifs = unit_interval()
    params = BuilderParams.from_stage(ifs, 3, 1)
    assert peak_traced_mb(lambda: build_tagged_covering(ifs, params)) <= 12.0


def test_report_at_524288_parts_holds_about_two_levels():
    # level 19 of the line has 524,288 parts, 16 MB of boxes; the vertex
    # images of level 18 are another 16 MB, and all 20 levels hold twice that
    assert peak_traced_mb(lambda: hbd_report(unit_interval(), 1.0, 1.0, 19)) <= 45.0
