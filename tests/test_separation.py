import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import given, strategies as st

from orderedcover.separation import (
    box_sup_distance,
    coverage_check,
    verify_form,
    verify_jump_lemma,
    verify_separation,
)
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.zoo import hilbert_square, sierpinski_gasket, unit_interval
from orderedcover.geometry import attractor_points


@pytest.fixture(scope="module")
def gasket_cov():
    ifs = sierpinski_gasket()
    return build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))


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
    assert report.mode == "exhaustive"
    assert report.pairs_checked == 27 * 26 // 2
    assert 0.0 < report.worst_ratio <= 1.0
    j, l = report.worst_pair
    assert 1 <= j < l <= 27


def test_separation_fails_under_tight_constant(gasket_cov):
    report = verify_separation(gasket_cov, D=0.5)
    assert not report.passed
    assert report.worst_ratio > 1.0


def test_separation_sampled_mode_is_seeded():
    ifs = hilbert_square()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    a = verify_separation(cov, seed=7, exhaustive_limit=100, sampled_pairs=20000)
    b = verify_separation(cov, seed=7, exhaustive_limit=100, sampled_pairs=20000)
    assert a.mode == "sampled"
    assert a.passed and b.passed
    assert a.worst_ratio == b.worst_ratio
    assert a.worst_pair == b.worst_pair


def test_coverage_check_accepts_attractor_and_flags_outliers(gasket_cov):
    ifs = sierpinski_gasket()
    pts = attractor_points(ifs, 6)
    assert coverage_check(gasket_cov, pts)
    assert not coverage_check(gasket_cov, np.array([[5.0, 5.0]]))


def test_three_stage_line_covers_its_attractor():
    # q = 2^14: the deepest squares have side about 2^-17 and sit on the
    # segment, so sample points must lie on it too
    line = unit_interval()
    cov = build_tagged_covering(line, BuilderParams.from_stage(line, 3, 1))
    pts = attractor_points(line, min(cov.s + cov.t + 2, 10))
    assert len(pts) == 2**10
    assert coverage_check(cov, pts)


@pytest.mark.parametrize(
    "make,m",
    [(sierpinski_gasket, 4), (unit_interval, 8)],
    ids=["gasket", "interval"],
)
def test_jump_lemma_holds_on_zoo_systems(make, m):
    report = verify_jump_lemma(make(), m)
    assert report.passed
    assert report.counterexample is None
    assert report.pairs_checked > 0


def test_jump_lemma_record_shape():
    record = verify_jump_lemma(unit_interval(), 4).to_record()
    assert record["pass"] is True
    assert record["m"] == 4
