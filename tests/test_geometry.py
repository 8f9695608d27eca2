import importlib
import inspect
import itertools
import math
import pkgutil
import re
from dataclasses import dataclass, replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import orderedcover
from orderedcover.cli import main
from orderedcover.geometry import (
    GEOM_TOL,
    BudgetExceededError,
    InvalidIndexError,
    OrderedIFS,
    Record,
    Similarity,
    _pow,
    attractor_points,
    iter_levels,
    lex_unrank,
    part_budget,
)
from orderedcover.zoo import IFS_NAMES, sierpinski_gasket, unit_interval, zoo_source

from geometry_reference import MultiIndex, apply, compose_part, lex_rank


def test_rotation_moves_unit_vector():
    sim = Similarity(0.5, math.pi / 2.0, False, (0.0, 0.0))
    out = apply(sim, np.array([1.0, 0.0]))
    assert np.allclose(out, [0.0, 0.5], atol=1e-12)


def test_reflection_flips_orientation():
    plain = Similarity(0.5, 0.3, False, (0.0, 0.0))
    flipped = Similarity(0.5, 0.3, True, (0.0, 0.0))
    assert np.linalg.det(plain.matrix()) > 0
    assert np.linalg.det(flipped.matrix()) < 0


def test_ratio_bounds_enforced():
    with pytest.raises(ValueError):
        Similarity(1.0, 0.0, False, (0.0, 0.0))
    with pytest.raises(ValueError):
        Similarity(0.0, 0.0, False, (0.0, 0.0))


@pytest.mark.parametrize(
    "angle, shift, named",
    [(math.nan, (0.0, 0.0), "angle"), (-math.inf, (0.0, 0.0), "angle"),
     (0.0, (math.nan, 0.0), "shift"), (0.3, (0.0, math.inf), "shift")],
)
def test_similarity_refuses_a_non_finite_angle_or_shift(angle, shift, named):
    # a nan map's images are nan, and no comparison of them is ever True
    with pytest.raises(ValueError, match=f"^{named} must be finite"):
        Similarity(0.5, angle, False, shift)


def test_multi_index_rejects_out_of_range_entries():
    with pytest.raises(InvalidIndexError):
        MultiIndex((0,), 3)
    with pytest.raises(InvalidIndexError):
        MultiIndex((4,), 3)
    MultiIndex((1, 2, 3), 3)


@given(
    arity=st.integers(min_value=2, max_value=5),
    entries=st.lists(st.integers(min_value=1, max_value=5), min_size=0, max_size=8),
)
def test_lex_rank_roundtrip(arity, entries):
    entries = tuple(min(e, arity) for e in entries)
    idx = MultiIndex(entries, arity)
    rank = lex_rank(idx)
    assert 0 <= rank < arity ** len(entries)
    assert lex_unrank(rank, len(entries), arity) == list(idx.entries)


def test_lex_rank_matches_tuple_order():
    words = [tuple(lex_unrank(rank, 3, 3)) for rank in range(27)]
    assert words == sorted(words) == list(itertools.product((1, 2, 3), repeat=3))
    ranks = [lex_rank(MultiIndex(w, 3)) for w in words]
    assert ranks == list(range(27))


def test_compose_part_applies_maps_outside_in():
    ifs = sierpinski_gasket()
    idx = MultiIndex((1, 3, 2), 3)
    vertices = ifs.base_vertices()
    vertices = apply(ifs.maps[1], vertices)
    vertices = apply(ifs.maps[2], vertices)
    vertices = apply(ifs.maps[0], vertices)
    lo = vertices.min(axis=0)
    corner, side = compose_part(ifs, idx)
    assert np.allclose(corner, lo, atol=1e-12)
    assert math.isclose(side, float((vertices.max(axis=0) - lo).max()), rel_tol=1e-12)


def test_resolution_covering_counts_and_order():
    ifs = sierpinski_gasket()
    for m in range(4):
        level = list(iter_levels(ifs, m))[-1]
        assert len(level) == 3**m and level.m == m
        words = [tuple(level.index(k)) for k in range(len(level))]
        assert words == sorted(words) == list(itertools.product((1, 2, 3), repeat=m))


def test_resolution_covering_agrees_with_compose_part():
    ifs = sierpinski_gasket()
    level = list(iter_levels(ifs, 3))[-1]
    for k in range(0, 27, 5):
        corner, side = compose_part(ifs, MultiIndex(lex_unrank(k, 3, 3), 3))
        assert np.allclose(level.corners[k], corner, atol=1e-12)
        assert math.isclose(level.sides[k], side, rel_tol=1e-12)


def test_budget_stops_large_enumerations(monkeypatch):
    ifs = sierpinski_gasket()
    with pytest.raises(BudgetExceededError):
        list(iter_levels(ifs, 20))
    monkeypatch.setenv("HBD_COVER_BUDGET", "10")
    with pytest.raises(BudgetExceededError):
        list(iter_levels(ifs, 3))


def test_budget_env_var_override(monkeypatch):
    monkeypatch.setenv("HBD_COVER_BUDGET", "12")
    assert part_budget() == 12
    ifs = sierpinski_gasket()
    with pytest.raises(BudgetExceededError):
        list(iter_levels(ifs, 3))
    monkeypatch.delenv("HBD_COVER_BUDGET")
    assert part_budget() == 10**6


@pytest.mark.parametrize("value", ["abc", "1e6", "10.5"])
def test_malformed_budget_env_var_is_named(monkeypatch, capsys, value):
    monkeypatch.setenv("HBD_COVER_BUDGET", value)
    with pytest.raises(ValueError, match=f"HBD_COVER_BUDGET must be an integer, got '{value}'"):
        part_budget()
    # an explicit --budget beats a malformed variable for its one command
    assert main(["verify-hbd", "--name", "koch", "--m", "3", "--budget", "100"]) == 0
    assert capsys.readouterr().err.startswith("condition (i) m=0: PASS\n")


def test_attractor_points_stay_in_base_box():
    for ifs in (sierpinski_gasket(), unit_interval()):
        pts = attractor_points(ifs, 5)
        assert len(pts) == ifs.r**5
        lo = np.asarray(ifs.corner)
        hi = lo + ifs.side
        assert (pts >= lo - 1e-9).all() and (pts <= hi + 1e-9).all()


def test_ifs_rejects_mixed_ratios():
    maps = (
        Similarity(0.5, 0.0, False, (0.0, 0.0)),
        Similarity(0.4, 0.0, False, (0.5, 0.5)),
    )
    with pytest.raises(ValueError):
        OrderedIFS(maps, "square", (0.0, 0.0), 1.0, 1.0, 1.0)


@pytest.mark.parametrize("count", [0, 1])
def test_ifs_refuses_fewer_than_two_maps(count):
    # one map leaves the build with c = 1 and the audits with an empty pair set
    maps = (Similarity(0.5, 0.0, False, (0.0, 0.0)),) * count
    with pytest.raises(ValueError, match=rf"^an ordered system needs at least 2 maps, got {count}"):
        OrderedIFS(maps, "square", (0.0, 0.0), 1.0, 1.0, 1.0)


def test_ifs_rejects_escaping_maps():
    maps = (
        Similarity(0.5, 0.0, False, (0.0, 0.0)),
        Similarity(0.5, 0.0, False, (0.9, 0.0)),
    )
    with pytest.raises(ValueError):
        OrderedIFS(maps, "square", (0.0, 0.0), 1.0, 1.0, 1.0)


def test_ifs_names_the_first_map_that_leaves_the_base():
    inside = Similarity(0.5, 0.0, False, (0.0, 0.0))
    right, below = Similarity(0.5, 0.0, False, (0.9, 0.0)), Similarity(0.5, 0.0, False, (0.0, -0.9))
    with pytest.raises(ValueError, match="^map 2 does not keep the base$"):
        OrderedIFS((inside, right, below), "square", (0.0, 0.0), 1.0, 1.0, 1.0)
    with pytest.raises(ValueError, match="^map 3 does not keep the base$"):
        OrderedIFS((inside, inside, below), "square", (0.0, 0.0), 1.0, 1.0, 1.0)
    # a nan base corner puts nan in every image, which no box holds
    with pytest.raises(ValueError, match="^map 1 does not keep the base$"):
        OrderedIFS((inside, inside), "square", (math.nan, 0.0), 1.0, 1.0, 1.0)


@given(
    ratio=st.floats(0.05, 0.5),
    angle=st.floats(-math.pi, math.pi),
    reflect=st.booleans(),
    right=st.booleans(),
    at=st.integers(0, 2),
)
@settings(max_examples=40, deadline=None)
def test_ifs_refuses_a_map_that_leaves_the_triangle(ratio, angle, reflect, right, at):
    # The bad image's box sits in a top corner of the base box, where the
    # triangle does not reach: its leftmost (or rightmost) vertex lies on the
    # box's side at least 1 - ratio above the base, outside the triangle.
    # The other two maps shrink the triangle towards its bottom vertices, and
    # keep it. The old box test let every such system build.
    gasket = sierpinski_gasket()
    vertices = gasket.base_vertices()
    (x0, y0), side = gasket.corner, gasket.side
    image = apply(Similarity(ratio, angle, reflect, (0.0, 0.0)), vertices)
    x = x0 + side - image[:, 0].max() if right else x0 - image[:, 0].min()
    bad = Similarity(ratio, angle, reflect, (x, y0 + side - image[:, 1].max()))
    inner = [Similarity(ratio, 0.0, False, (1.0 - ratio) * v) for v in vertices[:2]]
    maps = tuple(inner[:at] + [bad] + inner[at:])
    with pytest.raises(ValueError, match=f"^map {at + 1} does not keep the base$"):
        OrderedIFS(maps, "triangle", gasket.corner, side, gasket.gamma, gasket.rho)
    OrderedIFS(tuple(inner), "triangle", gasket.corner, side, gasket.gamma, gasket.rho)


@pytest.mark.parametrize("label", ["side", "gamma", "rho"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_ifs_rejects_a_nan_or_infinite_side_gamma_or_rho(label, value):
    # an infinite gamma or a nan rho used to build; a nan side was refused
    # as a map leaving the base, which names the wrong cause
    with pytest.raises(ValueError, match=f"^{label} must be finite and > 0, got {value}$"):
        replace(sierpinski_gasket(), **{label: value})


@pytest.mark.parametrize(
    "edge, reach, outward", [(1.0 + GEOM_TOL, 0.5, math.inf), (-GEOM_TOL, 0.0, -math.inf)]
)
def test_ifs_allows_geom_tol_and_not_one_ulp_more(edge, reach, outward):
    # shifted by t, the second map sends x = 1 to 0.5 + t and x = 0 to t:
    # t = edge - reach puts an image exactly on the edge of the base box plus
    # GEOM_TOL, and t = nextafter(edge) - reach one ulp past it
    inside = Similarity(0.5, 0.0, False, (0.0, 0.0))
    on = Similarity(0.5, 0.0, False, (edge - reach, 0.0))
    OrderedIFS((inside, on), "square", (0.0, 0.0), 1.0, 1.0, 1.0)
    past = Similarity(0.5, 0.0, False, (math.nextafter(edge, outward) - reach, 0.0))
    with pytest.raises(ValueError, match="^map 2 does not keep the base$"):
        OrderedIFS((inside, past), "square", (0.0, 0.0), 1.0, 1.0, 1.0)


@pytest.mark.parametrize("name", IFS_NAMES)
def test_coefficient_table_is_each_maps_matrix_and_shift_bit_for_bit(name):
    ifs = zoo_source(name)
    want = np.array([[*sim.matrix().ravel(), *sim.shift] for sim in ifs.maps])
    assert ifs.coefficients.shape == (ifs.r, 6)
    assert ifs.coefficients.tobytes() == want.tobytes()
    assert not ifs.coefficients.flags.writeable


@given(depth=st.integers(min_value=0, max_value=4))
@settings(max_examples=10, deadline=None)
def test_prefix_parts_contain_descendants(depth):
    ifs = sierpinski_gasket()
    lv = list(iter_levels(ifs, depth))
    if depth == 0:
        assert len(lv[0]) == 1
        return
    # the parent of rank k at resolution m is rank k // r at resolution m - 1
    parent, child = lv[-2], lv[-1]
    lo = np.repeat(parent.corners, ifs.r, axis=0)
    hi = lo + np.repeat(parent.sides, ifs.r)[:, None]
    assert (child.corners >= lo - 1e-9).all()
    assert (child.corners + child.sides[:, None] <= hi + 1e-9).all()


@pytest.mark.parametrize("value", ["0", "-5"])
def test_budget_below_one_is_refused_and_named(monkeypatch, capsys, value):
    assert main(["verify-hbd", "--name", "koch", "--m", "3", "--budget", value]) == 2
    assert capsys.readouterr().err == f"error: budget must be >= 1, got {value}\n"
    monkeypatch.setenv("HBD_COVER_BUDGET", value)
    with pytest.raises(ValueError, match=f"HBD_COVER_BUDGET must be >= 1, got {value}"):
        part_budget()


@dataclass(frozen=True)
class _Inner(Record):
    passed: bool


@dataclass(frozen=True)
class _Outer(Record):
    pair: tuple[int, int]
    inner: _Inner
    inners: tuple[_Inner, ...]
    kept: float | None
    dropped: dict | None = None


def test_a_record_is_its_fields():
    inner = _Inner(True)
    outer = _Outer((1, 2), inner, (inner, _Inner(False)), None)
    assert outer.to_record() == {
        "pair": [1, 2],
        "inner": {"pass": True},
        "inners": [{"pass": True}, {"pass": False}],
        "kept": None,
    }
    assert replace(outer, dropped={"a": 1}).to_record()["dropped"] == {"a": 1}
    assert Similarity(0.5, 0.25, True, (1, 2)).to_record() == {
        "ratio": 0.5, "angle": 0.25, "reflect": True, "shift": [1.0, 2.0]
    }


def test_the_record_format_lives_in_one_place():
    # every report's record comes from Record; only the covering, whose stage
    # spans are derived, and HbdReport's one-line pass property add to it
    own = {}
    for module in pkgutil.iter_modules(orderedcover.__path__):
        mod = importlib.import_module(f"orderedcover.{module.name}")
        for cls in vars(mod).values():
            if isinstance(cls, type) and cls.__module__ == mod.__name__:
                if "to_record" in vars(cls) and cls is not Record:
                    lines = inspect.getsource(cls.to_record).splitlines()
                    own[cls.__name__] = [line.strip() for line in lines]
    assert sorted(own) == ["HbdReport", "TaggedCovering"]
    assert own["HbdReport"][1:] == ['return {**super().to_record(), "pass": self.passed}']


@pytest.mark.parametrize("exponent", [0.1, 0.5, 1 / 3, math.log(2) / math.log(3), 2.0])
def test_pow_is_python_pow_bit_for_bit_across_its_chunks(exponent):
    # 2 x 65,536 + 3 values: two whole chunks of the stream and a partial third
    base = np.arange(1.0, 2 * 65536 + 4.0) * 1.37
    whole = np.fromiter(map(pow, base.tolist(), itertools.repeat(exponent)), float, len(base))
    assert _pow(base, exponent).tobytes() == whole.tobytes()
    assert _pow(base[:0], exponent).shape == (0,)


@pytest.mark.parametrize(
    "call,error,message",
    [
        (lambda: lex_unrank(8, 3, 2), InvalidIndexError, "rank 8 outside 0..7"),
        (lambda: replace(sierpinski_gasket(), shape="disc"), ValueError, "unknown base shape 'disc'"),
        (lambda: iter_levels(unit_interval(), -1), ValueError, "resolution must be >= 0, got -1"),
        (lambda: attractor_points(unit_interval(), 0), ValueError, "depth must be >= 1, got 0"),
    ],
    ids=["lex-unrank", "base-shape", "iter-levels", "attractor-points"],
)
def test_geometry_refusals_name_their_fault(call, error, message):
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        call()
