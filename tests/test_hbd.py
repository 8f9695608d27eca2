import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover.geometry import GEOM_TOL, BudgetExceededError, Level, iter_levels
from orderedcover.hbd import (
    check_adjacency,
    check_diameters,
    check_nesting,
    hbd_report,
)
from orderedcover.zoo import (
    CurveEvaluator,
    diagonal_curve,
    gap_dust,
    hilbert_square,
    holder_levels,
    koch_curve,
    minkowski_sausage,
    sierpinski_gasket,
    unit_interval,
    zoo_source,
)

SYSTEMS = [sierpinski_gasket(), hilbert_square(), koch_curve(), minkowski_sausage()]


@pytest.mark.parametrize("ifs", SYSTEMS, ids=lambda s: s.name)
def test_zoo_systems_pass_at_their_exponent(ifs):
    m_max = 2 if ifs.r == 8 else 3
    report = hbd_report(ifs, ifs.gamma, ifs.rho, m_max)
    assert report.passed
    assert report.first_failure() is None


@pytest.mark.parametrize("ifs", SYSTEMS, ids=lambda s: s.name)
def test_deflated_exponent_breaks_diameter_decay(ifs):
    report = hbd_report(ifs, 0.9 * ifs.gamma, ifs.rho, 3 if ifs.r < 8 else 2)
    assert not report.passed
    first = report.first_failure()
    assert first.condition == "i"
    assert first.counterexample is not None


def test_unit_interval_passes_deep():
    line = unit_interval()
    report = hbd_report(line, 1.0, line.rho, 10)
    assert report.passed


def test_gap_dust_fails_adjacency_only():
    dust = gap_dust()
    report = hbd_report(dust, dust.gamma, dust.rho, 3)
    assert not report.passed
    by_condition = {}
    for cond in report.conditions:
        by_condition.setdefault(cond.condition, []).append(cond.passed)
    assert all(by_condition["i"])
    assert all(by_condition["ii"])
    assert not all(by_condition["iii"])


def test_prebuilt_coverings_give_same_verdict():
    curve = diagonal_curve()
    family = holder_levels(curve, 4)
    report = hbd_report(family, 1.0, curve.holder_rho, 4, name=curve.name)
    assert report.passed
    assert report.name == curve.name


def level(m, xs, sides, r=2):
    """A hand-built level: squares at (x, 0) in rank order."""
    corners = np.stack([np.asarray(xs, dtype=float), np.zeros(len(xs))], axis=1)
    return Level(m, r, corners, np.broadcast_to(np.asarray(sides, dtype=float), len(xs)))


def test_diameter_check_flags_oversized_part():
    result = check_diameters(level(1, [0.0, 0.5], [2.0, 0.5]), rho=1.0, c=0.5)
    assert not result.passed
    assert result.counterexample["index"] == [1]


def test_nesting_check_flags_escaping_child():
    # child (1, 1) at x = 3 escapes its parent [0, 1]; the other three sit inside theirs
    parent = level(1, [0.0, 1.0], 1.0)
    child = level(2, [3.0, 0.5, 1.0, 1.5], 0.5)
    result = check_nesting(parent, child)
    assert not result.passed
    assert result.counterexample["index"] == [1, 1]


def test_diameter_check_fails_a_nan_side():
    # a nan side compares False with any bound, so (i) must ask side <= bound
    result = check_diameters(level(1, [0.0, 0.5], [0.5, np.nan]), rho=1.0, c=0.5)
    assert not result.passed
    assert result.counterexample["index"] == [2]


def test_adjacency_check_flags_gap():
    # two resolution-2 sibling blocks: children of 1 end at x=0.4,
    # children of 2 start at x=0.6
    result = check_adjacency(level(2, [0.0, 0.2, 0.6, 0.8], 0.2))
    assert not result.passed
    assert result.counterexample is not None


def test_adjacency_check_accepts_touching_chain():
    assert check_adjacency(level(2, [0.0, 0.25, 0.5, 0.75], 0.25)).passed


def adjacency_reference(level, tol=GEOM_TOL):
    """Condition (iii) by rank arithmetic, as check_adjacency did before it
    read strided views: (i, j-1) runs over the resolution-(m-1) ranks not
    ending in r, and the ranks of (i, j-1, r) and (i, j, 1) are a and a + 1.
    Returns (passed, counterexample)."""
    m, r = level.m, level.r
    a = np.arange(r ** (m - 1)).reshape(-1, r)[:, :-1].ravel() * r + r - 1
    lo, hi = level.corners, level.corners + level.sides[:, None]
    meets = (lo[a] <= hi[a + 1] + tol) & (lo[a + 1] <= hi[a] + tol)
    bad = np.flatnonzero(~meets.all(axis=1))
    if bad.size == 0:
        return True, None
    return False, {"left": level.index(a[bad[0]]), "right": level.index(a[bad[0]] + 1)}


@given(
    r=st.sampled_from([2, 3, 4, 8]),
    m=st.integers(2, 5),
    seed=st.integers(0, 2**32 - 1),
    gap=st.sampled_from([0.0, 0.5 * GEOM_TOL, 2.0 * GEOM_TOL, 0.25]),
    moved=st.integers(0, 6),
)
@settings(max_examples=80, deadline=None)
def test_adjacency_matches_rank_arithmetic_reference(r, m, seed, gap, moved):
    rng = np.random.default_rng(seed)
    n = r**m
    # a chain of touching unit squares, x = rank, with contiguous columns as
    # levels builds them
    corners, sides = np.stack([np.arange(n, dtype=float), np.zeros(n)]).T, np.ones(n)
    # a gap at one consecutive pair, half the time a pair (i, j-1, r), (i, j, 1)
    # that the condition compares: every later square moves right
    if rng.uniform() < 0.5:
        k = (int(rng.integers(0, r ** (m - 2))) * r + int(rng.integers(0, r - 1))) * r + r - 1
    else:
        k = int(rng.integers(0, n - 1))
    corners[k + 1 :, 0] += gap
    # parts drawn across several parents, each moved anywhere nearby and resized
    at = rng.integers(0, n, size=moved)
    corners[at] += rng.uniform(-2.0, 2.0, size=(moved, 2))
    sides[at] = rng.uniform(0.1, 3.0, size=moved)
    level = Level(m, r, corners, sides)
    result = check_adjacency(level)
    assert (result.passed, result.counterexample) == adjacency_reference(level)


@pytest.mark.parametrize("ifs", [*SYSTEMS, gap_dust(), unit_interval()], ids=lambda s: s.name)
def test_adjacency_matches_rank_arithmetic_reference_on_zoo_levels(ifs):
    for level in list(iter_levels(ifs, 3 if ifs.r == 8 else 5))[2:]:
        result = check_adjacency(level)
        assert (result.passed, result.counterexample) == adjacency_reference(level)


def test_report_record_shape():
    ifs = sierpinski_gasket()
    record = hbd_report(ifs, ifs.gamma, ifs.rho, 2).to_record()
    assert record["name"] == "sierpinski"
    assert record["pass"] is True
    kinds = {row["condition"] for row in record["conditions"]}
    assert kinds == {"i", "ii", "iii"}


def test_low_m_max_rejected():
    with pytest.raises(ValueError):
        hbd_report(sierpinski_gasket(), 1.0, 1.0, 0)


@pytest.mark.parametrize(
    "gamma, rho",
    [(float("nan"), None), (float("inf"), None), (-1.0, None), (0.0, None),
     (None, float("inf")), (None, float("nan")), (None, 0.0), (None, -2.0)],
)
def test_meaningless_exponent_is_rejected(gamma, rho):
    # nan, inf and -1 used to pass every condition; 0 divided by zero
    ifs = koch_curve()
    gamma = ifs.gamma if gamma is None else gamma
    rho = ifs.rho if rho is None else rho
    with pytest.raises(ValueError, match="must be finite and > 0"):
        hbd_report(ifs, gamma, rho, 3)


@pytest.mark.parametrize(
    "name, deflate, m",
    [("gap-dust", 1.0, 6), ("koch", 0.9, 6), ("arrowhead-pseudo:6", 1.0, 6)],
)
def test_report_is_the_same_over_a_stream_and_a_list(name, deflate, m):
    # a system and a curve alike: the source itself, its level stream and their list
    source = zoo_source(name)
    gamma, rho = deflate * source.gamma, source.rho
    listed = list(source.iter_levels(m))
    sources = [listed, source.iter_levels(m), source]
    records = [hbd_report(src, gamma, rho, m, name=name).to_record() for src in sources]
    assert not records[0]["pass"]
    assert all(record == records[0] for record in records)


@pytest.mark.parametrize("name", ["holder-diag", "arrowhead-pseudo:3", "hilbert-pseudo:3"])
def test_a_curve_answers_the_level_source_interface(name, monkeypatch):
    curve = zoo_source(name)
    assert (curve.r, curve.d, curve.rho) == (2, 2, curve.holder_rho)
    assert curve.gamma == 1.0 / curve.holder_beta  # bit for bit, as verify-hbd's records need
    monkeypatch.setenv("HBD_COVER_BUDGET", "16")
    for got, want in zip(curve.iter_levels(4), holder_levels(curve, 4)):
        assert got.corners.tobytes() == want.corners.tobytes()
        assert got.sides.tobytes() == want.sides.tobytes()
    with pytest.raises(BudgetExceededError, match="^32 parts exceed budget 16$"):
        curve.iter_levels(5)
    assert hbd_report(curve, curve.gamma, curve.rho, 4).name == name



def test_a_diagonal_in_three_dimensions_repeats_the_planar_one():
    # (t, t, t) has holder-diag's boxes with the x column once more, and the
    # same conditions
    diag3 = CurveEvaluator([[0, 0, 0], [1, 1, 1]], 1, 1, "diag3")
    planar, spatial = list(holder_levels(diagonal_curve(), 8)), list(holder_levels(diag3, 8))
    for flat, level in zip(planar, spatial):
        want = np.column_stack([flat.corners, flat.corners[:, 0]])
        assert level.corners.tobytes() == want.tobytes()
        assert level.sides.tobytes() == flat.sides.tobytes()
    report = hbd_report(spatial, 1.0, 1.0, 8)
    assert report.passed
    assert report.conditions == hbd_report(planar, 1.0, 1.0, 8).conditions


def test_curve_levels_stream_through_the_report():
    # The list holds every level at once; the stream only the parent of the level being
    # built. Levels 0..m-2 (corners and sides, 24 bytes a part) are what the stream saves.
    curve, m = diagonal_curve(), 19

    def peak(source) -> int:
        tracemalloc.start()
        try:
            assert hbd_report(source(), 1.0, curve.holder_rho, m).passed
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    streamed = peak(lambda: holder_levels(curve, m))
    listed = peak(lambda: list(holder_levels(curve, m)))
    assert streamed <= listed - 0.9 * 24 * (2 ** (m - 1) - 1)


def _gasket_levels():
    return list(iter_levels(sierpinski_gasket(), 2))


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda levels: check_nesting(levels[0], levels[2]), "child level must be one resolution deeper"),
        (lambda levels: check_adjacency(levels[1]), "adjacency needs resolution >= 2"),
        (
            lambda levels: check_adjacency(Level(2, 3, levels[2].corners[:-1], levels[2].sides[:-1])),
            "expected 9 parts, got 8",
        ),
        (lambda levels: hbd_report(levels, 1.0, 1.0, 3), "need levels for every resolution 0..m_max"),
    ],
    ids=["nesting-depth", "adjacency-resolution", "adjacency-count", "short-stream"],
)
def test_hbd_refusals_name_their_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call(_gasket_levels())
