"""Rank-indexed level arrays against single-part references.

System levels are checked against compose_part, curve levels against a
per-interval sampling loop kept here.
"""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover import geometry
from orderedcover.geometry import (
    BudgetExceededError,
    Level,
    attractor_points,
    compose_part,
    levels,
    lex_unrank,
)
from orderedcover.hbd import check_adjacency, hbd_report
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
)

MAKERS = (sierpinski_gasket, hilbert_square, koch_curve, minkowski_sausage, unit_interval, gap_dust)
SYSTEMS = {make().name: make for make in MAKERS}
MAX_DEPTH = 6


@functools.lru_cache(maxsize=None)
def system_levels(name):
    ifs = SYSTEMS[name]()
    return ifs, levels(ifs, MAX_DEPTH)


def ulps(a, b):
    return np.abs(np.asarray(a).view(np.int64) - np.asarray(b).view(np.int64))


@given(name=st.sampled_from(sorted(SYSTEMS)), depth=st.integers(0, MAX_DEPTH), data=st.data())
@settings(max_examples=300, deadline=None)
def test_levels_match_compose_part(name, depth, data):
    ifs, lv = system_levels(name)
    rank = data.draw(st.integers(0, ifs.r**depth - 1))
    corner, side = compose_part(ifs, lex_unrank(rank, depth, ifs.r))
    got = np.array([*lv[depth].corners[rank], lv[depth].sides[rank]])
    want = np.array([*corner, side])
    # compose_part rounds through numpy's small matmul, which may fuse
    # multiply-adds; only the gasket's pi/3 rotations with reflections show it.
    assert ulps(got, want).max() <= (2 if name == "sierpinski" else 0)


@pytest.mark.parametrize("name", sorted(SYSTEMS))
def test_level_shapes_follow_rank_order(name):
    ifs, lv = system_levels(name)
    assert [level.m for level in lv] == list(range(MAX_DEPTH + 1))
    for level in lv[:4]:
        n = ifs.r**level.m
        assert len(level) == n
        assert level.corners.shape == (n, 2) and level.shift.shape == (n, 2)
        assert level.sides.shape == (n,) and level.r == ifs.r
        assert [level.index(k) for k in range(n)] == [
            list(lex_unrank(k, level.m, ifs.r).entries) for k in range(n)
        ]


def test_levels_refuse_before_building(monkeypatch):
    def no_images(*args):
        raise AssertionError("a level was built")

    monkeypatch.setattr(geometry, "_images", no_images)
    with pytest.raises(BudgetExceededError, match="^243 parts exceed budget 100$"):
        levels(sierpinski_gasket(), 7, budget=100)
    with pytest.raises(BudgetExceededError, match="^1024 parts exceed budget 1000$"):
        hbd_report(koch_curve(), 1.2, 1.4, 6, budget=1000)


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


def test_adjacency_reports_the_first_gap_in_rank_order():
    # r = 3, m = 2: consecutive pairs (1,3)-(2,1) at ranks 2-3 and (2,3)-(3,1)
    # at ranks 5-6; both have a gap, the first is reported
    xs = [0, 1, 2, 4, 5, 6, 8, 9, 10]
    corners = np.stack([np.array(xs, dtype=float), np.zeros(9)], axis=1)
    sides = np.where(np.arange(9) == 2, 0.5, 1.0)
    result = check_adjacency(Level(2, 3, corners, sides))
    assert not result.passed
    assert result.counterexample == {"left": [1, 3], "right": [2, 1]}


def reference_holder_level(curve, m):
    """Resolution m interval by interval: samples plus inner breakpoints."""
    samples = 256 if m == 0 else 64
    corners, sides = [], []
    for j in range(2**m):
        lo, hi = j * 0.5**m, (j + 1) * 0.5**m
        ts = np.linspace(lo, hi, samples)
        if curve.breakpoints is not None:
            bp = curve.breakpoints
            ts = np.sort(np.concatenate([ts, bp[(bp > lo) & (bp < hi)]]))
        pts = curve(ts)
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
    return curve, holder_levels(curve, 8)


@given(family=st.sampled_from(sorted(CURVES)), order=st.integers(1, 6), m=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_holder_levels_match_per_interval_reference(family, order, m):
    curve, lv = curve_levels(family, order)
    corners, sides = reference_holder_level(curve, m)
    assert lv[m].m == m and lv[m].r == 2
    assert lv[m].corners.tobytes() == corners.tobytes()
    assert lv[m].sides.tobytes() == sides.tobytes()


def test_holder_levels_refuse_before_sampling():
    def no_samples(ts):
        raise AssertionError("the curve was sampled")

    curve = CurveEvaluator(no_samples, holder_beta=1.0, holder_rho=1.0)
    with pytest.raises(BudgetExceededError, match="^1048576 parts exceed budget 1000000$"):
        holder_levels(curve, 20)
    with pytest.raises(BudgetExceededError, match="^16 parts exceed budget 10$"):
        holder_levels(curve, 5, budget=10)
