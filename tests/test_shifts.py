import math
import re
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover import shifts

from orderedcover.shifts import (
    FiniteVector,
    TruncationOverflowError,
    _log_abs_diff,
    build_common_vector,
    check_cs2_lipschitz,
    cs1_envelope_closed_form,
    DynamicsConfig,
    plus_power_family,
    power_family,
    product_apply,
    rolewicz_family,
    run_dynamics_experiment,
    tag_params,
    weight_family,
)
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.geometry import BudgetExceededError
from orderedcover.zoo import CurveEvaluator, hilbert_square, sierpinski_gasket, unit_interval

from cs1_reference import check_cs1_bounds, cs1_envelope_generic
from shifts_reference import dense, from_values, weight

FAMILIES = [rolewicz_family(), power_family(0.5), plus_power_family(0.5)]


# dense one-step reference: applies the literal weight recurrences
def dense_backward(fam, x, n, values):
    out = np.asarray(values, dtype=float).copy()
    L = len(out) - 1
    for _ in range(n):
        nxt = np.zeros_like(out)
        for l in range(L):
            nxt[l] = weight(fam, x, l + 1) * out[l + 1]
        out = nxt
    return out


def dense_forward(fam, x, n, values):
    out = np.asarray(values, dtype=float).copy()
    L = len(out) - 1
    for _ in range(n):
        nxt = np.zeros_like(out)
        for l in range(L):
            nxt[l + 1] = out[l] / weight(fam, x, l + 1)
        out = nxt
    return out


def logs(values):
    """The log magnitudes of nonnegative values, -inf at a zero."""
    with np.errstate(divide="ignore"):
        return np.log(np.asarray(values, dtype=float))


@given(a=st.floats(0.0, 50.0), b=st.floats(0.0, 50.0))
def test_log_abs_diff_matches_float_subtraction(a, b):
    got = math.exp(float(_log_abs_diff(logs([a]), logs([b]))[0]))
    assert got == pytest.approx(abs(a - b), rel=0.0, abs=1e-12 * max(a, b))


def test_log_abs_diff_of_equal_or_zero_operands():
    a = np.array([3.5, -math.inf, -math.inf, 2.7, -1.25])
    b = np.array([3.5, -math.inf, 2.7, -math.inf, -1.25])
    assert _log_abs_diff(a, b).tolist() == [-math.inf, -math.inf, 2.7, 2.7, -math.inf]


def test_vector_roundtrip_keeps_nonzero_columns():
    values = np.array([[1.0, 0.5, 0.0, 0.25, 0.0], [0.0, 2.0, 0.125, 0.0, 0.0]])
    vec = from_values(values)
    assert vec.cols.tolist() == [0, 1, 2, 3] and vec.L == 4
    assert np.allclose(np.exp(dense(vec)), values, atol=1e-14)


def test_basis_and_support():
    e = FiniteVector.basis(2, 10, 3, 2.0)
    vals = np.exp(dense(e))
    assert vals[0][3] == pytest.approx(2.0) and vals[1][3] == pytest.approx(2.0)
    assert e.support_max() == 3
    assert from_values(np.zeros((1, 6))).support_max() == -1


@pytest.mark.parametrize("value", [0.0, -2.0, math.nan])
def test_basis_refuses_a_value_not_above_zero(value):
    with pytest.raises(ValueError, match="basis value must be > 0"):
        FiniteVector.basis(1, 10, 3, value)


@pytest.mark.parametrize("bad", [-0.5, -math.inf, math.nan])
def test_from_values_refuses_a_negative_entry(bad):
    with pytest.raises(ValueError, match="entries must be >= 0"):
        from_values(np.array([[1.0, bad, 0.0]]))


def power(fam, x, n, values, direction):
    """product_apply on one factor, taking and giving values rather than logs."""
    u = from_values(values)
    return np.exp(dense(product_apply(fam, (x,), n, u, direction))[0])


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [0, 1, 3, 5])
def test_backward_power_matches_iterated_steps(fam, n):
    rng = np.random.default_rng(3)
    values = np.where(np.arange(13) % 4 == 2, 0.0, rng.uniform(0.0, 1.0, size=13))
    x = 1.7
    expected = dense_backward(fam, x, n, values)
    got = power(fam, x, n, values, "backward")
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("n", [0, 1, 4])
def test_forward_power_matches_iterated_steps(fam, n):
    rng = np.random.default_rng(4)
    values = np.concatenate([rng.uniform(0.0, 1.0, size=9 - n), np.zeros(n)])
    x = 1.3
    expected = dense_forward(fam, x, n, values)
    got = power(fam, x, n, values, "forward")
    assert np.allclose(got, expected, rtol=1e-10, atol=1e-12)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_backward_inverts_forward_on_support(fam):
    values = np.array([0.5, 0.25, 1.0, 0.0, 0.0, 0.0, 0.0])
    back = power(fam, 1.5, 4, power(fam, 1.5, 4, values, "forward"), "backward")
    assert np.allclose(back, values, rtol=1e-9, atol=1e-12)


def test_forward_power_guards_truncation():
    values = np.zeros(6)
    values[4] = 1.0
    with pytest.raises(TruncationOverflowError):
        power(rolewicz_family(), 1.0, 3, values, "forward")


def test_backward_power_beyond_support_is_zero():
    fam = rolewicz_family()
    assert (power(fam, 1.0, 9, np.ones(5), "backward") == 0.0).all()


def test_forward_power_past_the_truncation_refuses_a_zero_vector():
    zero = from_values(np.zeros(6))
    message = "^support would exceed L=5 after a forward power of 6$"
    with pytest.raises(TruncationOverflowError, match=message):
        product_apply(rolewicz_family(), (1.0,), 6, zero, "forward")


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_backward_power_past_the_support_keeps_no_column(fam):
    u = from_values(np.array([[0.5, 0.0, 2.0] + [0.0] * 8] * 2))
    got = product_apply(fam, (1.0, 1.5), 3, u, "backward")
    assert got.cols.size == 0 and got.logmag.shape == (2, 0) and got.L == 10


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("direction", ["backward", "forward"])
def test_a_zeroth_power_returns_the_vectors_own_entries(fam, direction):
    u = from_values(np.array([[0.5, 0.0, 2.0, 0.25], [0.0, 0.0, 1.0, 3.0]]))
    got = product_apply(fam, (1.2, 1.9), 0, u, direction)
    assert np.array_equal(got.cols, u.cols) and np.array_equal(got.logmag, u.logmag)


def test_product_apply_uses_per_factor_parameters():
    fam = rolewicz_family()
    values = np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 2.0, 0.0, 0.0]])
    u = from_values(values)
    got = np.exp(dense(product_apply(fam, (1.0, 2.0), 1, u, "backward")))
    assert got[0][0] == pytest.approx(math.e * 1.0)
    assert got[1][0] == pytest.approx(2.0 * math.e**2)
    with pytest.raises(ValueError):
        product_apply(fam, (1.0,), 1, u, "backward")
    with pytest.raises(ValueError):
        product_apply(fam, (1.0, 2.0), 1, u, "sideways")


def test_weight_family_lookup():
    assert weight_family("rolewicz").name == "rolewicz"
    assert weight_family("power", 0.7).alpha == pytest.approx(0.7)
    assert weight_family("plus-power", 0.5).C0 == pytest.approx(2.0)
    unknown = "unknown weight family 'geometric'; known: rolewicz, power, plus-power"
    with pytest.raises(ValueError, match=unknown):
        weight_family("geometric")
    with pytest.raises(ValueError):
        weight_family("power")
    with pytest.raises(ValueError, match="rolewicz weights take no alpha"):
        weight_family("rolewicz", 0.5)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_lipschitz_certificates_hold(fam):
    report = check_cs2_lipschitz(fam, (1.0, 2.0), n_max=400)
    assert report.passed
    assert report.measured <= fam.C0 * (1.0 + 1e-9)
    assert report.samples == 400


def test_power_family_lipschitz_constant_is_sharp():
    report = check_cs2_lipschitz(power_family(0.5), (1.0, 2.0), n_max=400)
    assert report.measured == 1.0


def test_rolewicz_lipschitz_constant_is_sharp():
    report = check_cs2_lipschitz(rolewicz_family(), (1.0, 2.0), n_max=400)
    assert report.measured == 1.0


def sampled_cs2(fam, interval, n_max):
    """The sampled reference: every pair at least 1e-3 apart of a 21-point grid plus
    200 seeded random points, max of |f(x,n) - f(y,n)| / (n^alpha |x - y|)."""
    a, b = interval
    xs = list(np.linspace(a, b, 21))
    extra = a + (b - a) * np.random.default_rng(0).random(200)
    xs = np.array(sorted(set(xs) | {float(v) for v in extra}))
    tables = fam.log_products(xs, n_max)[:, 1:]
    scale = np.arange(1, n_max + 1, dtype=float) ** fam.alpha
    measured = 0.0
    for i in range(len(xs) - 1):
        gaps = xs[i + 1 :] - xs[i]
        j = i + 1 + int(np.searchsorted(gaps, 1e-3))  # gaps grow: rows j.. qualify
        ratios = np.abs(tables[j:] - tables[i]) / (scale * gaps[j - i - 1 :, None])
        measured = max(measured, float(ratios.max(initial=0.0)))
    return measured


@st.composite
def families(draw):
    alpha = draw(st.floats(0.05, 1.0))
    return draw(st.sampled_from([rolewicz_family(), power_family(alpha), plus_power_family(alpha)]))


# b <= 3 keeps the sampled quotients' rounding below 1e-12 at gaps >= 1e-3
@settings(max_examples=40, deadline=None)
@given(fam=families(), a=st.floats(0.01, 2.0), width=st.floats(0.01, 1.0),
       n_max=st.integers(1, 150))
def test_exact_cs2_bounds_every_sampled_quotient(fam, a, width, n_max):
    exact = check_cs2_lipschitz(fam, (a, a + width), n_max=n_max).measured
    assert sampled_cs2(fam, (a, a + width), n_max) <= exact * (1.0 + 1e-12)


@pytest.mark.parametrize("fam", FAMILIES + [power_family(1.0), plus_power_family(0.2)],
                         ids=lambda f: f.name)
@pytest.mark.parametrize("x", [0.3, 1.7])
def test_dlog_products_match_central_differences(fam, x):
    h = 1e-5
    diff = (fam.log_products(x + h, 300) - fam.log_products(x - h, 300)) / (2 * h)
    np.testing.assert_allclose(fam.dlog_products(x, 300), diff, rtol=1e-7, atol=1e-9)


def test_cs2_needs_an_interval_with_a_below_b():
    for interval in ((1.0, 1.0), (2.0, 1.0), (math.nan, 1.0)):
        with pytest.raises(ValueError, match="a < b"):
            check_cs2_lipschitz(rolewicz_family(), interval)


@pytest.mark.parametrize("fam", [rolewicz_family(), power_family(0.5), plus_power_family(0.5)],
                         ids=lambda f: f.name)
def test_cs2_refuses_a_negative_n_max(fam):
    with pytest.raises(ValueError, match="n_max must be >= 0, got -1"):
        check_cs2_lipschitz(fam, (1.0, 2.0), n_max=-1)
    report = check_cs2_lipschitz(fam, (1.0, 2.0), n_max=0)  # no n to check: a vacuous pass
    assert (report.measured, report.samples, report.passed) == (0.0, 0, True)


@pytest.mark.parametrize("alpha", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_cs2_measured_is_python_pow_bit_for_bit(alpha):
    # the same running sums and quotients in plain Python floats: no power
    # goes through numpy, whose ** may round differently from CPU to CPU
    n_max, a = 2000, 1.3
    sums, total = [0.0], 0.0
    for n in range(1, n_max + 1):
        total += 1.0 / (n ** (1.0 - alpha) + a)
        sums.append(total)
    powers = [n**alpha for n in range(n_max + 1)]
    assert plus_power_family(alpha).dlog_products(a, n_max).tolist() == sums
    assert power_family(alpha).dlog_products(a, n_max).tolist() == powers
    for n in range(1, n_max + 1, 37):
        plus = max(sums[k] / powers[k] for k in range(1, n + 1))
        assert check_cs2_lipschitz(plus_power_family(alpha), (a, 2.0), n).measured == plus
        assert check_cs2_lipschitz(power_family(alpha), (a, 2.0), n).measured == 1.0


@pytest.mark.parametrize(
    "fam",
    [rolewicz_family()] + [power_family(al) for al in (0.3, 0.5, 1.0)]
    + [plus_power_family(al) for al in (0.2, 0.5, 1.0)],
    ids=lambda f: f.name,
)
@pytest.mark.parametrize("interval", [(1.0, 2.0), (0.3, 0.9), (1.5, 1.6)])
def test_left_end_gain_floor_equals_grid_floor(fam, interval):
    L, n = 2, 20000
    grid = np.full(n + 1, np.inf)
    for x in np.linspace(*interval, 17):
        row = fam.log_products(float(x), n + L)
        for l in range(L + 1):
            grid = np.minimum(grid, row[l : l + n + 1] - row[l])
    at = shifts._evaluator(fam, np.array([[interval[0]]]))
    assert np.array_equal(shifts._gain_floor(at, at(slice(0, L + 1))[0, 0], np.arange(n + 1)), grid)


def test_closed_form_envelope_limits():
    finite = cs1_envelope_closed_form(0.5, (1.0, 2.0), 1.0, 100, 1.0)
    # D n k/(n + k) - a k at n = 100, strictly below its n -> infinity limit (D - a) k
    assert finite(10.0) == pytest.approx(0.5 * 100 * 10 / 110 - 10)
    assert finite(10.0) < -5.0


def test_cs1_bounds_match_dense_ops():
    # Against a zero envelope the worst margin is the largest measured
    # log ||T^n_x S^(n+k)_y e_l|| or log ||T^(n+k)_x S^n_y e_l|| of the grid.
    fam = power_family(0.5)
    (a, b), gamma, D, ls, k, n_max = (1.1, 1.4), 1.5, 0.2, (1, 3), 2, 3
    report = check_cs1_bounds(
        fam, gamma, D, (a, b), basis_ls=ls, kappa=k, k_max=k, n_max=n_max,
        envelope=lambda _: 0.0, num_x=2,
    )
    alpha_g, L = 1.0 / gamma, 12
    expected = -math.inf
    for n in range(n_max + 1):
        delta = D * k**alpha_g / (n + k) ** alpha_g
        for x in (a, b):
            for y in {max(x - delta, a), min(x + delta, b), x}:
                for l in ls:
                    e = np.zeros(L + 1)
                    e[l] = 1.0
                    staged = [dense_backward(fam, x, n, dense_forward(fam, y, n + k, e))]
                    if l >= k:
                        staged.append(dense_backward(fam, x, n + k, dense_forward(fam, y, n, e)))
                    expected = max([expected] + [math.log(np.abs(v).max()) for v in staged])
    assert report.worst_log_margin == pytest.approx(expected, rel=1e-12, abs=1e-12)


def test_cs1_bounds_rolewicz_under_closed_form():
    env = cs1_envelope_closed_form(0.5, (1.0, 2.0), 1.0, 20, 1.0)  # horizon n_max
    report = check_cs1_bounds(
        rolewicz_family(),
        gamma=1.0,
        D=0.5,
        interval=(1.0, 2.0),
        kappa=1,
        k_max=20,
        n_max=20,
        envelope=env,
    )
    assert report.passed
    assert report.worst_log_margin <= 0.0
    # log c_k = 10 k/(20 + k) - k is concave, so its ratio window k = 40..80 decays least
    # at its first step
    assert report.ratio_margin == pytest.approx(1.0 - math.exp(410 / 61 - 400 / 60 - 1.0), rel=1e-9)
    assert report.tail_sums["1"] < 2.0


def test_cs1_generic_envelope_decays_for_growth_family():
    fam = power_family(0.5)
    env = cs1_envelope_generic(fam, 0.05, (1.0, 2.0), support_max=2)
    ks = [4, 16, 64, 256]
    vals = [env(k) for k in ks]
    assert all(b < a for a, b in zip(vals, vals[1:]))


@pytest.fixture(scope="module")
def flagship():
    ifs = sierpinski_gasket()
    return run_dynamics_experiment(ifs, rolewicz_family(), eta=0.1)


def test_experiment_selects_frozen_step_and_scale(flagship):
    assert flagship.config.bigN == 6
    assert flagship.sigma == pytest.approx(0.00760109048258, rel=1e-9)
    assert flagship.D_scaled == pytest.approx(0.06080872386064, rel=1e-9)
    assert flagship.envelope_tail == pytest.approx(0.014046456762, rel=1e-6)
    assert flagship.config.L == 200


def test_experiment_meets_accuracy_targets(flagship):
    assert flagship.passed
    assert flagship.u_minus_u0 < 0.1
    assert flagship.universality.worst_error < 0.3
    assert flagship.universality.samples == 2 * flagship.q == 2 * 27
    assert flagship.separation_ratio <= 1.0


def test_experiment_report_serializes(flagship):
    import json

    text = json.dumps(flagship.to_record())
    assert '"pass": true' in text


@pytest.mark.parametrize(
    "interval, eta",
    [((2.0, 1.0), 0.1), ((1.0, 1.0), 0.1), ((0.0, 1.0), 0.1), ((1.0, 2.0), 0.0),
     ((1.0, 2.0), -0.1), ((1.0, 2.0), math.nan), ((1.0, math.inf), 0.1),
     ((math.inf, math.inf), 0.1), ((math.nan, 2.0), 0.1), ((1.0, math.nan), 0.1),
     ((1.0, 2.0), math.inf)],
)
def test_bad_dynamics_inputs_are_refused_before_any_work(interval, eta):
    # no system is given: the refusal comes before it is read
    with pytest.raises(ValueError, match="0 < A < B|eta must be positive"):
        run_dynamics_experiment(None, rolewicz_family(), interval=interval, eta=eta)


@pytest.mark.parametrize(
    "interval, eta",
    [((1.0, 2.0), math.nan), ((1.0, 2.0), math.inf), ((1.0, 2.0), 0.0), ((0.0, 2.0), 0.1)],
)
def test_a_config_with_bad_eta_or_interval_is_refused(interval, eta):
    # with a nan eta, error < 3 eta is False at every box, so the run would fail silently
    with pytest.raises(ValueError, match="0 < A < B|eta must be positive and finite"):
        DynamicsConfig(d=2, interval=interval, L=50, eta=eta, kappa=3, bigN=6)


def test_growth_family_beyond_exponent_is_refused():
    ifs = sierpinski_gasket()
    with pytest.raises(ValueError, match="1/gamma"):
        run_dynamics_experiment(ifs, power_family(0.9))


def test_plus_power_past_the_cell_budget_is_refused_before_it_allocates():
    # hilbert-square at alpha = 0.2 needs more than CUMULATIVE_BUDGET cells of
    # cumulative log-weights (8 bytes each): the search stops at the budget's step
    tracemalloc.start()
    try:
        with pytest.raises(BudgetExceededError, match="cumulative log-weight cells exceed budget"):
            run_dynamics_experiment(hilbert_square(), plus_power_family(0.2))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * shifts.CUMULATIVE_BUDGET / 100


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
@pytest.mark.parametrize("d", [0, 3, -1])
def test_a_factor_count_other_than_one_or_two_is_refused_before_any_work(fam, d, monkeypatch):
    # a system's tags are planar: d runs over 1..2, the source's coordinate count
    def no_build(*args, **kwargs):
        raise AssertionError("the covering was built")

    monkeypatch.setattr(shifts, "build_tagged_covering", no_build)
    with pytest.raises(ValueError, match=rf"^d must be in 1\.\.2, got {d}$"):
        run_dynamics_experiment(hilbert_square(), fam, d=d)


@pytest.mark.parametrize("d", [0, 4, -1])
def test_a_curve_bounds_the_factor_count_by_its_vertex_width(d, monkeypatch):
    def no_build(*args, **kwargs):
        raise AssertionError("the covering was built")

    monkeypatch.setattr(shifts, "build_tagged_covering", no_build)
    diag3 = CurveEvaluator([[0, 0, 0], [1, 1, 1]], 1, 1, "diag3")
    with pytest.raises(ValueError, match=rf"^d must be in 1\.\.3, got {d}$"):
        run_dynamics_experiment(diag3, rolewicz_family(), d=d)


@pytest.mark.parametrize("fam", [rolewicz_family(), power_family(0.5)], ids=lambda f: f.name)
@pytest.mark.parametrize("s, q", [(1, 4), (2, 64)])
def test_three_factors_run_on_the_diagonal_in_three_dimensions(fam, s, q):
    # a curve keeps r = 2, so q = 2^t, t = 2(2^s - 1), in every dimension
    diag3 = CurveEvaluator([[0, 0, 0], [1, 1, 1]], 1, 1, "diag3")
    report = run_dynamics_experiment(diag3, fam, s=s, d=3)
    assert report.passed
    assert (report.config.d, report.q, report.fractal) == (3, q, "diag3")
    assert len(report.offset) == 3


def test_tag_params_names_the_tags_width():
    line = unit_interval()
    cov = build_tagged_covering(line, BuilderParams.from_stage(line, 1, 1))
    assert tag_params(cov, 2).shape == (4, 2)
    with pytest.raises(ValueError, match=r"^d must be in 1\.\.2, the tags' width, got 3$"):
        tag_params(cov, 3)


def test_a_curve_runs_on_its_own_factor_count_by_default():
    # d defaults to source.d: one factor on a curve in R^1, three on the diagonal of R^3
    line = run_dynamics_experiment(CurveEvaluator([[0.0], [1.0]], 1.0, 1.0), rolewicz_family())
    assert line.passed and line.config.d == 1
    diag3 = CurveEvaluator([[0, 0, 0], [1, 1, 1]], 1, 1, "diag3")
    assert run_dynamics_experiment(diag3, rolewicz_family()).to_record()["config"]["d"] == 3


def test_single_factor_run_on_the_line():
    line = unit_interval()
    report = run_dynamics_experiment(line, rolewicz_family(), eta=0.1, d=1)
    assert report.passed
    assert report.q == 4
    assert report.config.d == 1


def test_compatible_growth_family_runs_on_the_line():
    line = unit_interval()
    report = run_dynamics_experiment(line, power_family(0.5), eta=0.2)
    assert report.certificate == "uniform"
    assert report.passed


def test_plus_power_at_alpha_one_keeps_the_uniform_certificate():
    # its weights 1 + x are constant in n, but its log-weight is log(1 + x), not x
    report = run_dynamics_experiment(unit_interval(), plus_power_family(1.0))
    assert report.certificate == "uniform"
    assert report.passed


def test_common_vector_certificate_bounds_measurement():
    ifs = sierpinski_gasket()
    rep = run_dynamics_experiment(ifs, rolewicz_family(), eta=0.1)
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    scaled = cov.affine_scaled(rep.sigma, rep.offset)
    cfg = rep.config
    fam = rolewicz_family()
    u0 = FiniteVector.basis(cfg.d, cfg.L, 0, 1.0)
    vt = from_values(
        np.tile(np.array([1.0, 0.5, 0.25, *([0.0] * (cfg.L - 2))]), (cfg.d, 1))
    )
    env = cs1_envelope_closed_form(
        rep.D_scaled, cfg.interval, 1.0 / ifs.gamma, horizon=cov.q * cfg.bigN, max_abs=1.0
    )
    u = build_common_vector(scaled, fam, cfg, u0, vt)
    measured = float(np.abs(np.exp(dense(u)) - np.exp(dense(u0))).max())
    envelope_sum = sum(math.exp(env(i * cfg.bigN)) for i in range(1, cov.q + 1))
    assert measured <= envelope_sum * (1.0 + 1e-9)
    assert measured == pytest.approx(rep.u_minus_u0, rel=1e-12)


def test_truncation_too_short_is_rejected():
    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    scaled = cov.affine_scaled(0.005, (1.0 - 0.005 * -0.5, 1.0 - 0.005 * -0.28867513459481287))
    cfg = DynamicsConfig(d=2, interval=(1.0, 2.0), L=50, eta=0.1, kappa=3, bigN=6)
    u0 = FiniteVector.basis(2, 50, 0)
    vt = from_values(np.tile([1.0, 0.5, 0.25] + [0.0] * 48, (2, 1)))
    with pytest.raises(TruncationOverflowError):
        build_common_vector(scaled, rolewicz_family(), cfg, u0, vt)


def test_a_u0_or_target_reaching_column_n_is_refused():
    # below column N the terms of u never meet u_0 or each other
    ifs = sierpinski_gasket()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    scaled = cov.affine_scaled(0.005, (1.0 - 0.005 * -0.5, 1.0 - 0.005 * -0.28867513459481287))
    L = cov.q * 3 + 3
    cfg = DynamicsConfig(d=2, interval=(1.0, 2.0), L=L, eta=0.1, kappa=3, bigN=3)
    vt = from_values(np.tile([1.0, 0.5, 0.25] + [0.0] * (L - 2), (2, 1)))
    wide = from_values(np.tile([1.0, 0.5, 0.25, 0.125] + [0.0] * (L - 3), (2, 1)))
    for u0, target in ((FiniteVector.basis(2, L, 3), vt), (FiniteVector.basis(2, L, 0), wide)):
        with pytest.raises(ValueError, match="must lie below column N=3"):
            build_common_vector(scaled, rolewicz_family(), cfg, u0, target)
    u = build_common_vector(scaled, rolewicz_family(), cfg, FiniteVector.basis(2, L, 2), vt)
    assert u.cols.tolist() == [2] + list(range(3, 3 * cov.q + 3))


def _escaping_parameters():
    # the unit interval's s = 1 tags lie in [0, 1]^2, below the interval [1, 2]
    ifs = unit_interval()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    cfg = DynamicsConfig(d=2, interval=(1.0, 2.0), L=10, eta=0.1, kappa=1, bigN=1)
    basis = FiniteVector.basis(2, cfg.L, 0)
    build_common_vector(cov, rolewicz_family(), cfg, basis, basis)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda: power_family(0.0), "alpha must be in (0, 1]"),
        (lambda: power_family(1.5), "alpha must be in (0, 1]"),
        (lambda: plus_power_family(0.0), "alpha must be in (0, 1]"),
        (lambda: plus_power_family(1.5), "alpha must be in (0, 1]"),
        (lambda: weight_family("plus-power"), "plus-power family needs alpha"),
        (lambda: FiniteVector.basis(1, 4, 5), "basis position outside 0..L"),
        (
            lambda: product_apply(rolewicz_family(), (1.0,), -1, FiniteVector.basis(1, 4, 0), "backward"),
            "n must be >= 0",
        ),
        (
            lambda: cs1_envelope_closed_form(0.5, (1.0, 2.0), 1.5, 100, 1.0),
            "the finite-horizon tail bound needs alpha_g <= 1",
        ),
        (
            lambda: DynamicsConfig(d=0, interval=(1.0, 2.0), L=10, eta=0.1, kappa=1, bigN=1),
            "d, L, kappa, bigN must be >= 1",
        ),
        (
            lambda: DynamicsConfig(d=1, interval=(1.0, 2.0), L=10, eta=0.1, kappa=3, bigN=4),
            "bigN must be a multiple of kappa",
        ),
        (_escaping_parameters, "parameter (0.0, 0.0) escapes interval [1.0, 2.0]"),
    ],
    ids=[
        "power-alpha-0", "power-alpha-1.5", "plus-power-alpha-0", "plus-power-alpha-1.5",
        "plus-power-no-alpha", "basis-position", "negative-power", "alpha-g", "config-field",
        "config-kappa", "escaping-parameter",
    ],
)
def test_shift_refusals_name_their_fault(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
