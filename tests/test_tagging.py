import math
import os
import subprocess
import sys
from types import SimpleNamespace
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from orderedcover import geometry, tagging
from orderedcover.geometry import BudgetExceededError
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.zoo import (
    hilbert_square,
    koch_curve,
    minkowski_sausage,
    sierpinski_gasket,
    unit_interval,
)

from geometry_reference import MultiIndex, compose_part
from tagging_reference import fineness_schedule, pending_after_stage, squares_of

# (r, s) -> (t, q), from t = r(r^s - 1)/(r - 1), q = r^t
SCHEDULE_TABLE = {
    (2, 1): (2, 4),
    (2, 2): (6, 64),
    (3, 1): (3, 27),
    (4, 1): (4, 256),
}


@pytest.mark.parametrize("rs,tq", sorted(SCHEDULE_TABLE.items()))
def test_schedule_sizes_match_closed_form(rs, tq):
    groups, t, q = fineness_schedule(*rs)
    assert (t, q) == tq
    spans = sum(g.span for g in groups if g.rank == rs[1] + 1) + 1
    assert spans == q


def test_schedule_budget_guard_is_cheap():
    with pytest.raises(BudgetExceededError):
        fineness_schedule(2, 4)
    with pytest.raises(BudgetExceededError):
        fineness_schedule(3, 5)


@pytest.mark.parametrize("r,s", [(2, 1), (2, 2), (3, 1), (4, 1)])
def test_cumulative_group_identity(r, s):
    # squares through the rank-(s+1) groups of fineness up to r^p,
    # plus the single rank-s square, always total r^(p+1)
    groups, t, q = fineness_schedule(r, s)
    for p in range(t):
        total = 1 + sum(
            g.span for g in groups if g.rank == s + 1 and g.fineness <= r**p
        )
        assert total == r ** (p + 1)


def test_pending_counts_drop_linearly():
    assert [pending_after_stage(3, 1, j) for j in range(4)] == [6, 4, 2, 0]
    assert [pending_after_stage(2, 2, j) for j in range(7)] == [6, 5, 4, 3, 2, 1, 0]
    assert pending_after_stage(4, 1, 4) == 0


def test_builder_params_from_stage():
    ifs = sierpinski_gasket()
    params = BuilderParams.from_stage(ifs, 1, 1)
    assert (params.s, params.bigN) == (1, 1)
    assert params.D == pytest.approx(8.0, rel=1e-12)
    cov = build_tagged_covering(ifs, params)
    assert cov.tau == pytest.approx(0.5, rel=1e-12)
    assert BuilderParams.from_stage(ifs, 3, 10, D=2.0) == BuilderParams(s=3, bigN=10, D=2.0)


def test_proof_safe_needs_the_margin_of_stage_two_on_the_line():
    # 3 (r - 1)^alpha c^s is 1.5 at s = 1 and 0.75 at s = 2; D defaults to rho/c^3
    line = unit_interval()
    shallow, deep = (build_tagged_covering(line, BuilderParams.from_stage(line, s, 1)) for s in (1, 2))
    assert not shallow.proof_safe
    assert deep.proof_safe
    assert deep.affine_scaled(0.01, (1.0, 1.0)).proof_safe


def test_from_tau_frozen_values():
    ifs = sierpinski_gasket()
    alpha, c = 1.0 / ifs.gamma, ifs.r ** (-1.0 / ifs.gamma)
    assert BuilderParams.from_tau(ifs, 0.6, 10) == BuilderParams.from_stage(ifs, 3, 10)
    # both c^s rho <= tau/N^alpha and the safety margin 3(r-1)^alpha c^s <= 1 hold from s = 3
    assert c**2 * ifs.rho > 0.6 / 10**alpha
    assert c**3 * ifs.rho <= 0.6 / 10**alpha
    assert 3.0 * 2.0**alpha * c**2 > 1.0
    assert 3.0 * 2.0**alpha * c**3 <= 1.0
    with pytest.raises(BudgetExceededError, match="^1594323 parts exceed budget 1000000$"):
        build_tagged_covering(ifs, BuilderParams.from_tau(ifs, 0.6, 10))


@pytest.mark.parametrize(
    "tau, bigN, s", [(1.0, 1, 2), (0.3, 1, 2), (0.2, 1, 3), (0.6, 2, 2), (0.3, 2, 3), (0.4, 3, 3)]
)
def test_from_tau_builds_the_covering_of_its_stage(tau, bigN, s):
    # the smallest s with c^s rho <= tau/N (alpha = 1, c = 1/2) and 3 c^s <= 1
    line = unit_interval()
    params = BuilderParams.from_tau(line, tau, bigN)
    assert params == BuilderParams.from_stage(line, s, bigN)
    assert 0.5**s * line.rho <= tau / bigN and 3.0 * 0.5**s <= 1.0
    assert not (0.5 ** (s - 1) * line.rho <= tau / bigN and 3.0 * 0.5 ** (s - 1) <= 1.0)
    cov = build_tagged_covering(line, params)
    same = build_tagged_covering(line, BuilderParams.from_stage(line, s, bigN))
    assert cov.s == s and cov.tau <= tau
    assert cov.tau == 0.5**s * line.rho * bigN
    assert cov.to_record() == same.to_record()
    assert cov.tags.tobytes() == same.tags.tobytes()
    assert cov.sides.tobytes() == same.sides.tobytes()


@pytest.mark.parametrize("tau, bigN", [(0.6, 10), (1.0, 1), (0.05, 3)])
def test_from_tau_on_the_gasket_is_from_stage(tau, bigN):
    ifs = sierpinski_gasket()
    params = BuilderParams.from_tau(ifs, tau, bigN)
    assert params == BuilderParams.from_stage(ifs, params.s, bigN)
    alpha, c = 1.0 / ifs.gamma, ifs.r ** (-1.0 / ifs.gamma)
    assert c**params.s * ifs.rho * bigN**alpha <= tau


def test_gasket_covering_index_assignment():
    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    assert cov.q == 27 and cov.t == 3
    by_k = {sq["k"]: tuple(sq["covered_index"]) for sq in squares_of(cov.to_record())}
    assert by_k[1] == (1,)
    assert by_k[2] == (2, 1)
    assert by_k[3] == (2, 2)
    assert by_k[4] == (2, 3, 1)
    assert by_k[9] == (3, 1, 3)
    assert by_k[10] == (3, 2, 1, 1)
    assert by_k[27] == (3, 3, 3, 3)


def test_gasket_covering_sides_and_stage_ends():
    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    alpha = cov.alpha
    for k, side in enumerate(cov.sides, start=1):
        assert side == pytest.approx(cov.tau / (k * cov.bigN) ** alpha, rel=1e-14)
    for j, k in ((1, 3), (2, 9), (3, 27)):
        assert cov.sides[k - 1] == pytest.approx(cov.c ** (1 + j) * cov.rho, abs=1e-12)


def test_tags_are_part_corners():
    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    for sq in squares_of(cov.to_record())[::4]:
        corner, part_side = compose_part(ifs, MultiIndex(tuple(sq["covered_index"]), ifs.r))
        assert np.allclose(sq["tag"], corner, atol=1e-12)
        assert np.array_equal(sq["tag"], cov.tags[sq["k"] - 1])
        assert part_side <= sq["side"] + 1e-9


def test_squares_contain_their_parts():
    ifs = hilbert_square()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    assert cov.q == 256
    for sq in squares_of(cov.to_record())[::17]:
        lo, part_side = compose_part(ifs, MultiIndex(tuple(sq["covered_index"]), ifs.r))
        hi = lo + part_side
        tag, side = cov.tags[sq["k"] - 1], cov.sides[sq["k"] - 1]
        assert (lo >= tag - 1e-12).all()
        assert (hi <= tag + side + 1e-12).all()


def test_minkowski_stage_one_exceeds_budget():
    ifs = minkowski_sausage()
    with pytest.raises(BudgetExceededError):
        build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))


def test_deep_audit_is_refused_before_any_level_is_built(monkeypatch):
    # r=3, s=2: q = 3^12 fits the budget, but the audit to s+t = 14 needs 3^13 parts
    def no_levels(*args, **kwargs):
        raise AssertionError("levels were built")

    monkeypatch.delenv("HBD_COVER_BUDGET", raising=False)
    monkeypatch.setattr(geometry, "_part_boxes", no_levels)
    ifs = sierpinski_gasket()
    with pytest.raises(BudgetExceededError, match="^1594323 parts exceed budget 1000000$"):
        build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 2, 1))


def test_the_build_checks_each_square_covers_its_part(monkeypatch):
    # with the hbd audit forced to pass, a deflated gamma shrinks the squares
    # below their parts, and the build's own side check refuses the covering
    real = tagging.hbd_report

    def passing(*args, **kwargs):
        return replace(real(*args, **kwargs), conditions=())

    monkeypatch.setattr(tagging, "hbd_report", passing)
    koch = koch_curve()
    src = replace(koch, gamma=0.9 * koch.gamma)
    with pytest.raises(AssertionError, match="^square 11 is smaller than its covered part$"):
        build_tagged_covering(src, BuilderParams.from_stage(src, 1, 1))


def test_unit_interval_two_stage_covering():
    line = unit_interval()
    cov = build_tagged_covering(line, BuilderParams.from_stage(line, 2, 1))
    assert cov.q == 64 and cov.t == 6
    assert cov.sides[0] == pytest.approx(0.25)
    assert cov.sides[-1] == pytest.approx(0.25 / 64.0)


def test_builder_rejects_small_D():
    ifs = sierpinski_gasket()
    params = BuilderParams.from_stage(ifs, 1, 1, D=4.0)
    with pytest.raises(ValueError, match="D="):
        build_tagged_covering(ifs, params)


def test_affine_scaling_preserves_schedule():
    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    scaled = cov.affine_scaled(0.01, (1.0, 1.0))
    assert scaled.tau == pytest.approx(0.01 * cov.tau)
    assert scaled.D == pytest.approx(0.01 * cov.D)
    alpha = scaled.alpha
    for k, side in enumerate(scaled.sides, start=1):
        assert side == pytest.approx(scaled.tau / (k * scaled.bigN) ** alpha, rel=1e-12)
    assert np.allclose(scaled.tags, 1.0 + 0.01 * cov.tags, atol=1e-12)


def test_covering_record_is_json_ready():
    import json

    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    record = cov.to_record()
    text = json.dumps(record)
    assert '"q": 27' in text
    assert len(record["tags"]) == len(record["sides"]) == 27
    # Gamma_1 is stage 0: rank 0 of resolution s = 1, the first fineness group's rank
    assert record["stages"][0] == [0, 1, 0, 1]
    assert fineness_schedule(record["r"], record["s"])[0][0].rank == 1


def test_record_of_a_built_covering_is_never_refused(monkeypatch):
    # a budget lowered after the build must not refuse the record of a
    # covering that already exists
    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    monkeypatch.setenv("HBD_COVER_BUDGET", "10")
    record = cov.to_record()
    assert sum(count for *_, count in record["stages"]) == len(record["sides"]) == 27
    assert len(squares_of(record)) == 27
    # the groups follow from the record's (r, s), at the budget its q passed
    monkeypatch.setenv("HBD_COVER_BUDGET", str(record["q"]))
    groups, _, q = fineness_schedule(record["r"], record["s"])
    assert q == 27 and groups[-1].k_to == q


@pytest.mark.parametrize("tau", ["inf", "0.0", "-1.0", "nan"])
def test_from_tau_refuses_values_that_are_not_finite_and_positive(tau):
    # the stage search once looped forever on a nan tau: a child process
    # turns such a hang into a failure, not a stalled suite
    code = "import sys; from orderedcover import tagging, zoo; " \
        "tagging.BuilderParams.from_tau(zoo.unit_interval(), float(sys.argv[1]), 1)"
    env = {**os.environ, "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", code, tau], capture_output=True, text=True, timeout=10, env=env
    )
    assert proc.stderr.endswith(f"ValueError: tau must be finite and > 0, got {tau}\n")


@pytest.mark.parametrize("make", ["from_stage", "from_tau", "init"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0])
def test_builder_params_refuse_a_D_that_is_not_finite_and_positive(make, value):
    ifs = sierpinski_gasket()
    build = {
        "from_stage": lambda: BuilderParams.from_stage(ifs, 1, 1, D=value),
        "from_tau": lambda: BuilderParams.from_tau(ifs, 0.5, 1, D=value),
        "init": lambda: BuilderParams(s=1, bigN=1, D=value),
    }[make]
    with pytest.raises(ValueError, match=f"D must be finite and > 0, got {value}"):
        build()


@pytest.mark.parametrize(
    "make",
    [lambda ifs: BuilderParams.from_stage(ifs, 0, 1), lambda ifs: BuilderParams.from_stage(ifs, 1, 0),
     lambda ifs: BuilderParams.from_tau(ifs, 0.5, 0), lambda ifs: BuilderParams(-1, 1, 8.0)],
    ids=["from_stage-s0", "from_stage-bigN0", "from_tau-bigN0", "init-s-1"],
)
def test_builder_params_refuse_a_stage_or_stride_below_one(make):
    with pytest.raises(ValueError, match="bigN >= 1 required"):
        make(sierpinski_gasket())


@pytest.fixture(scope="module")
def gasket_cov():
    ifs = sierpinski_gasket()
    return build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))


def with_value(array, index, value):
    array = array.copy()
    array[index] = value
    return array


@pytest.mark.parametrize(
    "label, make",
    [("tags", lambda cov: replace(cov, tags=with_value(cov.tags, (5, 0), math.nan))),
     ("tags", lambda cov: replace(cov, tags=with_value(cov.tags, (5, 1), math.inf))),
     ("sides", lambda cov: replace(cov, sides=with_value(cov.sides, 5, math.nan))),
     ("tags", lambda cov: cov.affine_scaled(1.0, (math.nan, 0.0)))],
    ids=["nan-tag", "inf-tag", "nan-side", "nan-offset"],
)
def test_a_covering_refuses_a_tag_or_side_that_is_not_finite(gasket_cov, label, make):
    # verify_separation once passed the first three with worst_ratio -inf:
    # numpy's argmax picks a nan ratio, and a nan never folds into the maximum
    with pytest.raises(ValueError, match=f"^{label} must be finite$"):
        make(gasket_cov)


@pytest.mark.parametrize("label", ["tau", "D", "gamma", "rho"])
@pytest.mark.parametrize("value", [math.nan, math.inf, 0.0, -1.0])
def test_a_covering_refuses_a_parameter_that_is_not_finite_and_positive(gasket_cov, label, value):
    with pytest.raises(ValueError, match=f"{label} must be finite and > 0, got {value}"):
        replace(gasket_cov, **{label: value})


@pytest.mark.parametrize(
    "label, cut",
    [("tags", lambda a: a[:-1]), ("tags", lambda a: a[:, 0]), ("sides", lambda a: a[1:]),
     ("sides", lambda a: a[:, None])],
    ids=["tags-short", "tags-flat", "sides-short", "sides-column"],
)
def test_a_covering_refuses_arrays_of_another_shape(gasket_cov, label, cut):
    with pytest.raises(ValueError, match=f"{label} must be \\(q"):
        replace(gasket_cov, **{label: cut(getattr(gasket_cov, label))})


@pytest.mark.parametrize("sigma", [math.nan, math.inf, 0.0, -0.5])
def test_affine_scaling_refuses_a_factor_that_is_not_finite_and_positive(gasket_cov, sigma):
    with pytest.raises(ValueError, match="tau must be finite and > 0"):
        gasket_cov.affine_scaled(sigma, (1.0, 1.0))


def test_the_build_refuses_a_source_of_one_map():
    # r = 1 gives c = 1, so D = rho meets the separation floor and only r is wrong
    stub = SimpleNamespace(r=1, gamma=1.0, rho=1.0)
    with pytest.raises(ValueError, match="^need r >= 2, got 1$"):
        build_tagged_covering(stub, BuilderParams(1, 1, 1.0))
