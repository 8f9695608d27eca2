"""Rank-indexed level arrays against the single-word reference compose_part."""

import functools

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover import geometry
from orderedcover.geometry import (
    BudgetExceededError,
    CoveringPart,
    Level,
    MultiIndex,
    attractor_points,
    compose_part,
    levels,
    lex_unrank,
)
from orderedcover.hbd import check_adjacency, hbd_report
from orderedcover.zoo import (
    gap_dust,
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
    part = compose_part(ifs, lex_unrank(rank, depth, ifs.r))
    got = np.array([*lv[depth].corners[rank], lv[depth].sides[rank]])
    want = np.array([*part.corner, part.side])
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
        parts = level.parts()
        assert [p.index for p in parts] == [lex_unrank(k, level.m, ifs.r) for k in range(n)]
        assert [p.corner for p in parts] == [tuple(c) for c in level.corners.tolist()]


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


def test_level_of_requires_lexicographic_order():
    a = CoveringPart(MultiIndex((1,), 2), (0.0, 0.0), 0.5, 1)
    b = CoveringPart(MultiIndex((2,), 2), (0.5, 0.0), 0.5, 1)
    level = Level.of([a, b])
    assert level.m == 1 and level.r == 2 and level.index(1) == [2]
    assert Level.of(level) is level
    with pytest.raises(ValueError, match="lexicographic"):
        Level.of([b, a])
    with pytest.raises(ValueError, match="mixes"):
        Level.of([a, CoveringPart(MultiIndex((2, 1), 2), (0.5, 0.0), 0.25, 2)])


def test_adjacency_reports_the_first_gap_in_rank_order():
    # r = 3, m = 2: consecutive pairs (1,3)-(2,1) at ranks 2-3 and (2,3)-(3,1)
    # at ranks 5-6; both have a gap, the first is reported
    xs = [0, 1, 2, 4, 5, 6, 8, 9, 10]
    parts = [
        CoveringPart(lex_unrank(k, 2, 3), (float(x), 0.0), 1.0 if k != 2 else 0.5, 2)
        for k, x in enumerate(xs)
    ]
    result = check_adjacency(parts, 3)
    assert not result.passed
    assert result.counterexample == {"left": [1, 3], "right": [2, 1]}
