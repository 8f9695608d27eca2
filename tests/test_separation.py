import dataclasses
import itertools

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from orderedcover.separation import (
    box_sup_distance,
    coverage_check,
    verify_form,
    verify_jump_lemma,
    verify_separation,
)
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.zoo import gap_dust, hilbert_square, koch_curve, sierpinski_gasket, unit_interval
from orderedcover.geometry import attractor_points, levels


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


def test_separation_fails_under_tight_constant(gasket_cov):
    report = verify_separation(gasket_cov, D=0.5)
    assert not report.passed
    assert report.worst_ratio > 1.0


def separation_reference(tags, sides, D, gamma, tol=1e-9):
    """Every pair at once, as verify_separation did before it streamed rows."""
    jj, ll = np.triu_indices(len(sides), k=1)
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


# the example ties the maximum within row 2, at (2, 3) and (2, 4), and
# across rows, at (3, 4); the first in (j, l) order is the worst pair
@example(
    boxes=[(2.0, 1.0, 0.5), (1.0, 2.0, 1.0), (1.0, 1.0, 0.5), (0.0, 0.0, 1.0)], D=1.0, gamma=1.0
)
@given(
    boxes=st.one_of(st.lists(grid_boxes, min_size=2, max_size=60),
                    st.lists(free_boxes, min_size=2, max_size=60)),
    D=st.sampled_from([0.5, 1.0, 3.0, 40.0]),
    gamma=st.sampled_from([1.0, 2.0, 1.5849625007211563, 1.2618595071429148]),
)
@settings(max_examples=60, deadline=None)
def test_separation_matches_all_pairs_reference(gasket_cov, boxes, D, gamma):
    arr = np.array(boxes, dtype=float)
    tags, sides = arr[:, :2].copy(), arr[:, 2].copy()
    cov = dataclasses.replace(gasket_cov, q=len(sides), tags=tags, sides=sides)
    report = verify_separation(cov, D=D, gamma=gamma)
    ratio, pair, passed, pairs = separation_reference(tags, sides, D, gamma)
    assert report.worst_ratio == ratio
    assert report.worst_pair == pair
    assert report.passed == passed
    assert report.pairs_checked == pairs


def layout(kind, q, rng):
    """q boxes (tags, sides): a rank-ordered walk of shrinking squares, as
    a covering lays them out; a coarse grid with many equal distances; free
    floats; or q copies of one box."""
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
# the worst pair, (1024, 1025), straddles two blocks, and the bound of its
# block pair equals its ratio exactly.
@example(q=128, kind="walk", seed=0, D=1.0, gamma=1.0)
@example(q=1025, kind="coincident", seed=0, D=1.0, gamma=1.0)
@example(q=129, kind="coincident", seed=0, D=1e-9, gamma=2.0)
@given(
    q=st.integers(65, 400),
    kind=st.sampled_from(["walk", "grid", "free", "coincident"]),
    seed=st.integers(0, 2**32 - 1),
    D=st.sampled_from([1e-9, 0.05, 1.0, 40.0]),
    gamma=st.sampled_from([1.0, 2.0, 1.5849625007211563, 1.2618595071429148]),
)
@settings(max_examples=60, deadline=None)
def test_separation_matches_all_pairs_reference_across_blocks(gasket_cov, q, kind, seed, D, gamma):
    tags, sides = layout(kind, q, np.random.default_rng(seed))
    cov = dataclasses.replace(gasket_cov, q=q, tags=tags, sides=sides)
    report = verify_separation(cov, D=D, gamma=gamma)
    ratio, pair, passed, pairs = separation_reference(tags, sides, D, gamma)
    assert report.worst_ratio == ratio
    assert report.worst_pair == pair
    assert report.passed == passed
    assert report.pairs_checked == pairs


def test_separation_breaks_a_tie_across_blocks_by_rank_order(gasket_cov):
    # Points (zero sides) with D = gamma = 1, so the ratio is sup l/(l - j).
    # x gives row j = 1 the ratio exactly 1 against every l >= 129, and
    # less below; y steps by 2^-7 between ranks 127 and 128, which gives
    # (127, 128) exactly 1 too. That pair lies in a diagonal block, so it
    # is found before (1, 129), which comes first in (j, l) order.
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
    cov = dataclasses.replace(gasket_cov, q=q, tags=tags, sides=sides)
    report = verify_separation(cov, D=1.0, gamma=1.0)
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


def test_three_stage_line_covers_its_attractor(line_s3_cov):
    # q = 2^14: the deepest squares have side about 2^-17 and sit on the
    # segment, so sample points must lie on it too
    line = unit_interval()
    pts = attractor_points(line, min(line_s3_cov.s + line_s3_cov.t + 2, 10))
    assert len(pts) == 2**10
    assert coverage_check(line_s3_cov, pts)


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


def jump_reference(ifs, m, gamma=None, rho=None):
    """Every tag pair at once, n by n, as verify_jump_lemma did before it
    streamed rows; returns the record."""
    gamma = ifs.gamma if gamma is None else gamma
    rho = ifs.rho if rho is None else rho
    r = ifs.r
    c = r ** (-1.0 / gamma)
    level = levels(ifs, m)[-1]
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
            counterexample = {
                "j": level.index(jj[b]),
                "l": level.index(ll[b]),
                "n": n,
                "distance": float(dist[b]),
                "gap": int(gaps[b]),
                "required": required,
            }
            return {"m": m, "pairs_checked": checked, "pass": False,
                    "counterexample": counterexample}
    return {"m": m, "pairs_checked": checked, "pass": True}


# gamma and rho as factors of the system's own; the last entry is the n of
# the counterexample, None for a pass
JUMP_CASES = [
    *[(gap_dust, m, 1.0, 1.0, None if m < 3 else 2) for m in range(1, 7)],
    (sierpinski_gasket, 4, 1.0, 1.0, None),
    (sierpinski_gasket, 5, 0.6, 1.0, 2),
    (sierpinski_gasket, 5, 0.8, 0.5, 3),
    (sierpinski_gasket, 6, 0.9, 0.5, 4),
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
    assert record == jump_reference(ifs, m, gamma=gamma, rho=rho)
    assert record.get("counterexample", {}).get("n") == expected_n
