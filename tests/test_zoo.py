import math
import re

import numpy as np
import pytest

from orderedcover.geometry import GEOM_TOL, iter_levels
from orderedcover.zoo import (
    CurveEvaluator,
    arrowhead_pseudo,
    diagonal_curve,
    gap_dust,
    hilbert_pseudo,
    hilbert_square,
    holder_levels,
    koch_curve,
    minkowski_sausage,
    sierpinski_gasket,
    unit_interval,
    zoo_names,
    zoo_source,
)

from geometry_reference import MultiIndex, apply, compose_part

SQRT3 = math.sqrt(3.0)


def gasket_vertices(side=1.0):
    a = np.array([-side / 2.0, -SQRT3 * side / 6.0])
    b = np.array([side / 2.0, -SQRT3 * side / 6.0])
    c = np.array([0.0, SQRT3 * side / 3.0])
    return a, b, c


def test_gasket_first_map_fixes_bottom_left_vertex():
    ifs = sierpinski_gasket()
    a, b, c = gasket_vertices()
    img = apply(ifs.maps[0], np.stack([a, b, c]))
    assert np.allclose(img[0], a, atol=1e-12)
    assert np.allclose(img[1], (a + c) / 2.0, atol=1e-12)
    assert np.allclose(img[2], (a + b) / 2.0, atol=1e-12)


def test_gasket_all_maps_send_triangle_to_point_up_halves():
    ifs = sierpinski_gasket()
    a, b, c = gasket_vertices()
    tri = np.stack([a, b, c])
    expected = [
        {tuple(np.round(a, 12)), tuple(np.round((a + b) / 2.0, 12)), tuple(np.round((a + c) / 2.0, 12))},
        {tuple(np.round(c, 12)), tuple(np.round((a + c) / 2.0, 12)), tuple(np.round((b + c) / 2.0, 12))},
        {tuple(np.round(b, 12)), tuple(np.round((a + b) / 2.0, 12)), tuple(np.round((b + c) / 2.0, 12))},
    ]
    for sim, want in zip(ifs.maps, expected):
        got = {tuple(np.round(p, 12)) for p in apply(sim, tri)}
        assert got == want


def test_gasket_part_sides_are_exact_dyadics():
    ifs = sierpinski_gasket()
    for level in list(iter_levels(ifs, 5)):
        assert level.sides == pytest.approx(np.full(3**level.m, 0.5**level.m), rel=1e-14)


def test_gasket_scales_with_side_length():
    ifs = sierpinski_gasket(side=2.0)
    assert ifs.rho == pytest.approx(2.0)
    _, side = compose_part(ifs, MultiIndex((), 3))
    assert side == pytest.approx(2.0)


def test_hilbert_maps_tile_the_four_quadrants():
    ifs = hilbert_square()
    quadrant_corners = [(-0.5, -0.5), (-0.5, 0.0), (0.0, 0.0), (0.0, -0.5)]
    for j, want in enumerate(quadrant_corners, start=1):
        corner, side = compose_part(ifs, MultiIndex((j,), 4))
        assert np.allclose(corner, want, atol=1e-12)
        assert side == pytest.approx(0.5, rel=1e-12)


def test_hilbert_first_map_sends_entry_corner_to_itself():
    ifs = hilbert_square()
    entry = np.array([-0.5, -0.5])
    img = apply(ifs.maps[0], entry)
    assert np.allclose(img, entry, atol=1e-12)


def test_koch_level_one_boxes():
    ifs = koch_curve()
    side_outer = (1.0 + SQRT3) / 6.0
    expected = [
        ((0.0, 0.0), 1.0 / 3.0),
        ((1.0 / 3.0 - SQRT3 / 6.0, 0.0), side_outer),
        ((0.5, 0.0), side_outer),
        ((2.0 / 3.0, 0.0), 1.0 / 3.0),
    ]
    for j, (want_corner, want_side) in enumerate(expected, start=1):
        corner, side = compose_part(ifs, MultiIndex((j,), 4))
        assert np.allclose(corner, want_corner, atol=1e-12)
        assert side == pytest.approx(want_side, rel=1e-12)


def test_koch_rho_matches_worst_box_inflation():
    ifs = koch_curve()
    worst = list(iter_levels(ifs, 1))[-1].sides.max()
    assert worst == pytest.approx(ifs.rho / 3.0, rel=1e-12)


def test_minkowski_images_stay_inside_base_box():
    ifs = minkowski_sausage()
    lo = np.asarray(ifs.corner)
    hi = lo + ifs.side
    level = list(iter_levels(ifs, 1))[-1]
    assert (level.corners >= lo - 1e-12).all()
    assert (level.corners + level.sides[:, None] <= hi + 1e-12).all()
    assert level.sides == pytest.approx(np.full(8, 5.0 / 12.0), rel=1e-12)


def test_minkowski_has_eight_quarter_maps():
    ifs = minkowski_sausage()
    assert ifs.r == 8
    assert all(m.ratio == pytest.approx(0.25) for m in ifs.maps)
    assert ifs.gamma == pytest.approx(1.5)


def test_interval_and_dust_helpers():
    line = unit_interval()
    assert line.r == 2 and line.gamma == pytest.approx(1.0)
    corners = sorted(list(iter_levels(line, 3))[-1].corners[:, 0])
    assert corners == pytest.approx([k / 8.0 for k in range(8)])

    dust = gap_dust()
    assert dust.gamma == pytest.approx(0.5)
    level = list(iter_levels(dust, 1))[-1]
    # the two pieces leave a gap: consecutive parts cannot touch
    assert level.corners[0, 0] + level.sides[0] < level.corners[1, 0] - 1e-6


def test_zoo_lookup_and_unknown_name():
    assert {zoo_source(n).name for n in ("sierpinski", "hilbert-square", "koch", "minkowski")}
    with pytest.raises(KeyError):
        zoo_source("dragon")
    assert "sierpinski" in zoo_names()


@pytest.mark.parametrize(
    "vertices, beta, rho, field",
    [
        ([[0.0, 0.0], [1.0, 1.0]], 0.0, 1.0, "holder_beta"),
        ([[0.0, 0.0], [1.0, 1.0]], -0.5, 1.0, "holder_beta"),
        ([[0.0, 0.0], [1.0, 1.0]], 1.0, math.nan, "holder_rho"),
        ([[0.0, 0.0], [1.0, 1.0]], 1.0, math.inf, "holder_rho"),
        ([0.0, 1.0, 2.0], 1.0, 1.0, "vertices"),
        (np.zeros((0, 2)), 1.0, 1.0, "vertices"),
        (np.zeros((2, 0)), 1.0, 1.0, "vertices"),
        ([[0.0, 0.0], [math.nan, 1.0]], 1.0, 1.0, "vertices"),
        ([[0.0, 0.0], [1.0, math.inf]], 1.0, 1.0, "vertices"),
    ],
)
def test_curve_refuses_bad_inputs_naming_the_field(vertices, beta, rho, field):
    # refused when built, not later as a division by zero, an index error or nan sides
    with pytest.raises(ValueError, match=f"^{field} must be"):
        CurveEvaluator(vertices, beta, rho)


def test_diagonal_curve_is_the_identity_pairing():
    curve = diagonal_curve()
    ts = np.array([0.0, 0.25, 1.0])
    out = curve(ts)
    assert np.allclose(out, np.stack([ts, ts], axis=1), atol=1e-12)
    assert curve.holder_beta == pytest.approx(1.0)


def test_arrowhead_endpoints_and_vertex_count():
    curve = arrowhead_pseudo(4)
    a = np.array([-0.5, -SQRT3 / 6.0])
    b = np.array([0.5, -SQRT3 / 6.0])
    ends = curve(np.array([0.0, 1.0]))
    assert np.allclose(ends[0], a, atol=1e-12)
    assert np.allclose(ends[1], b, atol=1e-12)
    assert len(curve.breakpoints) == 3**4 + 1
    assert curve.holder_beta == pytest.approx(math.log(2.0) / math.log(3.0))


def test_arrowhead_vertices_lie_on_gasket_parts():
    order = 3
    curve = arrowhead_pseudo(order)
    level = list(iter_levels(sierpinski_gasket(), order))[-1]
    lo = level.corners - GEOM_TOL
    hi = level.corners + level.sides[:, None] + GEOM_TOL
    vertices = curve(curve.breakpoints)[:, None, :]
    inside = ((vertices >= lo) & (vertices <= hi)).all(axis=2)
    assert inside.any(axis=1).all()


def test_hilbert_pseudo_endpoints():
    curve = hilbert_pseudo(3)
    ends = curve(np.array([0.0, 1.0]))
    assert np.allclose(ends[0], [-0.5, -0.5], atol=1e-12)
    assert np.allclose(ends[1], [0.5, -0.5], atol=1e-12)
    assert curve.holder_beta == pytest.approx(0.5)


def test_dyadic_covering_has_exact_interval_boxes():
    level = list(holder_levels(diagonal_curve(), 3))[-1]
    assert len(level) == 8
    # the diagonal over [j/8, (j+1)/8] spans exactly a 1/8 box
    j = np.arange(8) / 8.0
    assert np.allclose(level.corners, np.stack([j, j], axis=1), atol=1e-12)
    assert level.sides == pytest.approx(np.full(8, 1.0 / 8.0), rel=1e-12)


def test_dyadic_covering_sides_respect_holder_bound():
    curve = arrowhead_pseudo(6)
    beta, rho = curve.holder_beta, curve.holder_rho
    for level in list(holder_levels(curve, 6))[2::2]:
        assert (level.sides <= rho * (2.0**-beta) ** level.m + 1e-9).all()


def test_covering_family_nests_by_prefix():
    family = list(holder_levels(diagonal_curve(), 4))
    assert [(level.m, level.r, len(level)) for level in family] == [(m, 2, 2**m) for m in range(5)]
    for parent, child in zip(family, family[1:]):
        lo = np.repeat(parent.corners, 2, axis=0)
        hi = lo + np.repeat(parent.sides, 2)[:, None]
        assert (child.corners >= lo - GEOM_TOL).all()
        assert (child.corners + child.sides[:, None] <= hi + GEOM_TOL).all()


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: sierpinski_gasket(0.0), "side must be positive"),
        (lambda: arrowhead_pseudo(0), "order must be >= 1"),
        (lambda: hilbert_pseudo(0), "order must be >= 1"),
        (lambda: holder_levels(diagonal_curve(), -1), "resolution must be >= 0, got -1"),
    ],
    ids=["gasket-side", "arrowhead-order", "hilbert-order", "holder-levels"],
)
def test_zoo_refusals_name_their_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
