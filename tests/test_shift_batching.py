"""The array shift layer against its reference path.

build_common_vector, the universality sweep and the envelope tail are array
code; product_apply with the dense slog_add, and a scalar loop over the
envelope, are the reference, and results must match bitwise. The sweep skips
shifted columns by a bound; the forced cases below make a skipped-looking
column set the maximum. The universality certificate reads each box at its two
corners; the property tests check that no point of the box has a larger error.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover.shifts import (
    DynamicsConfig,
    FiniteVector,
    _ShiftErrors,
    _envelope_tail,
    _log_products_at,
    build_common_vector,
    cs1_envelope_closed_form,
    plus_power_family,
    power_family,
    product_apply,
    rolewicz_family,
    run_dynamics_experiment,
    tag_params,
    verify_universality,
)
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.zoo import hilbert_square, sierpinski_gasket, unit_interval
from orderedcover import shifts

from cs1_reference import cs1_envelope_generic

FAMILIES = [rolewicz_family(), power_family(0.5), plus_power_family(0.5)]


def _covering(ifs):
    """The s=1 covering, scaled into [1, 2]^2 as run_dynamics_experiment does."""
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    lo = cov.tags.min(axis=0)
    span = float(((cov.tags + cov.sides[:, None]).max(axis=0) - lo).max())
    sigma = 0.99 / span
    return cov.affine_scaled(sigma, tuple(1.0 - sigma * lo))


COVERINGS = {"unit-interval": _covering(unit_interval()), "sierpinski": _covering(sierpinski_gasket())}

values = st.floats(min_value=-2.0, max_value=2.0, allow_nan=False).map(
    lambda v: 0.0 if abs(v) < 0.1 else v
)


@st.composite
def scenarios(draw):
    """A covering, family, d, step N and sparse u0 and v_t on 0..L."""
    cov = COVERINGS[draw(st.sampled_from(sorted(COVERINGS)))]
    fam = draw(st.sampled_from(FAMILIES))
    d = draw(st.sampled_from([1, 2]))
    bigN = draw(st.integers(1, 4))  # below 3 the terms S^(iN) v_t overlap
    L = cov.q * bigN + 2 + draw(st.integers(0, 5))
    cfg = DynamicsConfig(d=d, interval=(1.0, 2.0), L=L, eta=0.1, kappa=1, bigN=bigN)
    u0 = np.zeros((d, L + 1))
    u0[:, 0] = draw(st.lists(values, min_size=d, max_size=d))
    u0[:, draw(st.integers(1, L))] = draw(st.lists(values, min_size=d, max_size=d))
    vt = np.zeros((d, L + 1))
    vt[:, :3] = np.reshape(draw(st.lists(values, min_size=3 * d, max_size=3 * d)), (d, 3))
    return cov, fam, cfg, FiniteVector.from_values(u0), FiniteVector.from_values(vt)


def reference_common_vector(cov, fam, cfg, u0, vt):
    u = u0.copy()
    for i, lam in enumerate(tag_params(cov, cfg.d), start=1):
        u = u.plus(product_apply(fam, lam, i * cfg.bigN, vt, "forward"))
    return u


def reference_error(u, fam, lam, n, vt):
    return product_apply(fam, tuple(float(c) for c in lam), n, u, "backward").minus(vt).norm()


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_common_vector_matches_dense_additions(case):
    cov, fam, cfg, u0, vt = case
    u = build_common_vector(cov, fam, cfg, u0, vt)
    want = reference_common_vector(cov, fam, cfg, u0, vt)
    assert np.array_equal(u.logmag, want.logmag)
    assert np.array_equal(u.sign, want.sign)


def sweep_errors(u, fam, vt, lam, ns, starts=(0,)):
    """The sweep's errors for rows lam at shifts ns; box k's rows begin at starts[k]."""
    log_norm = _ShiftErrors(u, fam, vt).log_errors(lam, np.asarray(ns), np.asarray(starts))
    return [math.exp(v) for v in log_norm.tolist()]


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.data())
def test_box_errors_match_product_apply(case, data):
    # a block of up to four boxes, each its own shift, one sweep call
    cov, fam, cfg, u0, vt = case
    u = build_common_vector(cov, fam, cfg, u0, vt)
    boxes = data.draw(st.lists(st.integers(0, cov.q), min_size=1, max_size=4))  # 0 leaves u
    lam, ns, starts = [], [], []
    for i in boxes:
        tag, side = cov.tags[i - 1], cov.sides[i - 1]
        extra = 1.0 + np.random.default_rng(i).random((data.draw(st.integers(0, 150)), 2))
        pts = np.concatenate([[tag, tag + side], extra])
        starts.append(sum(map(len, lam)))
        lam.append(pts[:, : cfg.d])
        ns += [i * cfg.bigN] * len(pts)
    lam = np.concatenate(lam)
    got = sweep_errors(u, fam, vt, lam, ns, starts)
    assert len(got) == len(lam)
    for g, row, n in zip(got, lam, ns):
        assert g == reference_error(u, fam, row, n, vt)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_box_errors_at_the_truncation_edge(fam):
    # u lives at L only: T^n u reaches v_t's support for n = L - 2 .. L
    L = 12
    u = FiniteVector.from_values(np.array([[0.0] * L + [3.0], [0.0] * L + [-2.0]]))
    vt = FiniteVector.from_values(np.array([[0.25, 0.0, 0.5] + [0.0] * (L - 2)] * 2))
    lam = np.array([[1.2, 1.7], [1.9, 1.0]])
    for n in range(L - 3, L + 2):
        want = [reference_error(u, fam, row, n, vt) for row in lam]
        assert sweep_errors(u, fam, vt, lam, [n, n]) == want


LINEAR_IN_N = [rolewicz_family(), power_family(1.0), plus_power_family(1.0)]


def rounded_up_column(fam, x, n):
    """A column c whose computed f(x, c) - f(x, c - n) exceeds the computed
    f(x, n) by at least two ulps, for a family whose log-weights are constant in k."""
    table = fam.log_products(x, 5000)
    for c in range(n + 1, 5001):
        gap = table[c] - table[c - n]
        if gap > np.nextafter(np.nextafter(table[n], np.inf), np.inf):
            return c, float(table[n]), float(gap)
    raise AssertionError("no column rounds above f(x, n)")


@pytest.mark.parametrize("fam", LINEAR_IN_N, ids=lambda f: f.name)
def test_a_shifted_column_at_the_bound_sets_the_maximum(fam, monkeypatch):
    # v_t = e_0 and u_n = 0, so the near term is |-1| and its log, 0, is the floor.
    # u_c = e^-m with f(x, n) < m < f(x, c) - f(x, c - n), as computed: the shifted
    # term e^(gap - m) > 1 is the maximum, while u_c + f(x, n) < 0 lies below the
    # floor. Only the rounding margin keeps column c.
    x, n = 1.37, 5
    c, bound, gap = rounded_up_column(fam, x, n)
    L = c + 3
    u = FiniteVector.zeros(1, L)
    u.sign[0, c], u.logmag[0, c] = 1.0, -(bound + gap) / 2
    vt = FiniteVector.basis(1, L, 0)
    lam = np.array([[x]])
    want = reference_error(u, fam, lam[0], n, vt)
    assert want > 1.0
    assert sweep_errors(u, fam, vt, lam, [n]) == [want]
    monkeypatch.setattr(shifts, "_rounding_margin", lambda top, scale: 0.0)
    assert sweep_errors(u, fam, vt, lam, [n]) == [1.0]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_each_box_bound_is_read_at_its_top_row(fam):
    # Box B has rows x = 1 and x = 2 at shift n = 70, and u_71 = e^-m with
    # f(1, 70) < m < f(2, 71) - f(2, 1): the shifted term sets the maximum of the
    # row x = 2, while a bound read at x = 1 would drop it. Box A, first in the
    # block, has the smaller shift, 2, and the larger floor: its near term is
    # about e^50. Its u_2 lies in the 64-column block before u_71.
    n, n_a, L = 70, 2, 80
    f = lambda x, k: float(fam.log_products(x, L)[k])
    m = (f(1.0, n) + f(2.0, n + 1) - f(2.0, 1)) / 2
    u = FiniteVector.zeros(1, L)
    u.sign[0, [n + 1, n_a]] = 1.0
    u.logmag[0, [n + 1, n_a]] = -m, 50.0 - f(1.0, n_a)
    vt = FiniteVector.basis(1, L, 0)
    lam, ns = np.array([[1.0], [1.0], [2.0]]), [n_a, n, n]
    want = [reference_error(u, fam, row, k, vt) for row, k in zip(lam, ns)]
    assert want[0] > want[2] > 1.0
    assert sweep_errors(u, fam, vt, lam, ns, starts=(0, 1)) == want


def test_negative_parameters_skip_no_column():
    # at x = -1 the power weights rise in k: f(-1, 5) - f(-1, 1) = 1 - 5^(1/2) is
    # above f(-1, 4) = -2, so u_5 = e^1.6 sets the maximum past the bound
    fam, n = power_family(0.5), 4
    u = FiniteVector.zeros(1, 8)
    u.sign[0, 5], u.logmag[0, 5] = 1.0, 1.6
    vt = FiniteVector.basis(1, 8, 0)
    want = reference_error(u, fam, [-1.0], n, vt)
    assert want > 1.0
    assert sweep_errors(u, fam, vt, np.array([[-1.0]]), [n]) == [want]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FAMILIES + LINEAR_IN_N), st.data())
def test_log_products_at_index_arrays_match_the_table(fam, data):
    top = data.draw(st.integers(0, 3000))
    rows, width = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 6))
    x = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=2 * rows, max_size=2 * rows)))
    x = x.reshape(rows, 2)
    cols = np.array(data.draw(st.lists(st.integers(0, top), min_size=rows * width,
                                       max_size=rows * width)), dtype=int).reshape(rows, width)
    got = _log_products_at(fam, top)(x, cols)
    for r in range(rows):
        for j in range(2):
            assert got[r, j].tolist() == fam.log_products(x[r, j], top)[cols[r]].tolist()


def corner_rows(cov, cfg):
    """Both corners of every box, tag first, at their shifts, and each box's first row."""
    lo = cov.tags[:, : cfg.d]
    corners = np.stack([lo, lo + cov.sides[:, None]], axis=1).reshape(-1, cfg.d)
    return corners, np.repeat(np.arange(1, cov.q + 1) * cfg.bigN, 2), np.arange(0, 2 * cov.q, 2)


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_sweep_matches_per_point_loop(case):
    # the reference loop over both corners of every box, in order; the first maximum wins
    cov, fam, cfg, u0, vt = case
    u = build_common_vector(cov, fam, cfg, u0, vt)
    report = verify_universality(u, cov, fam, cfg, vt)
    worst, worst_box, worst_lambda = -1.0, 0, ()
    for i, (tag, side) in enumerate(zip(cov.tags, cov.sides), start=1):
        for p in (tag, tag + side):
            lam = tuple(float(c) for c in p[: cfg.d])
            err = reference_error(u, fam, lam, i * cfg.bigN, vt)
            if err > worst:
                worst, worst_box, worst_lambda = err, i, lam
    assert report.samples == 2 * cov.q
    assert (report.worst_error, report.worst_box, report.worst_lambda) == (
        worst, worst_box, worst_lambda
    )
    corners, _, _ = corner_rows(cov, cfg)
    assert report.rounding_margin == _ShiftErrors(u, fam, vt).margin(float(corners.max()))
    assert report.passed == (worst * math.exp(report.rounding_margin) < 3 * cfg.eta)


# The sampled sweep's fixed points per box, in sides from the tag: tag, corners,
# edge midpoints, centre and two interior quarter points.
OLD_STENCIL = np.array(
    [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5], [0.5, 0.5]]
    + [[0.25, 0.25], [0.75, 0.75]]
)


@settings(max_examples=15, deadline=None)
@given(scenarios(), st.integers(0, 2**32 - 1))
def test_corners_bound_every_point_of_their_box(case, seed):
    # The larger corner error, raised by the rounding margin, bounds the reference
    # error at random points of the box, and it is the old stencil's maximum exactly.
    cov, fam, cfg, u0, vt = case
    u = build_common_vector(cov, fam, cfg, u0, vt)
    corners, ns, starts = corner_rows(cov, cfg)
    got = sweep_errors(u, fam, vt, corners, ns, starts)
    slack = math.exp(_ShiftErrors(u, fam, vt).margin(float(corners.max())))
    rng = np.random.default_rng(seed)
    for i, (tag, side) in enumerate(zip(cov.tags, cov.sides), start=1):
        corner_max, n = max(got[2 * i - 2 : 2 * i]), i * cfg.bigN
        for p in tag[: cfg.d] + side * rng.random((4, cfg.d)):
            assert reference_error(u, fam, p, n, vt) <= corner_max * slack
        stencil = (tag + side * OLD_STENCIL)[:, : cfg.d]
        assert max(reference_error(u, fam, p, n, vt) for p in stencil) == corner_max


def test_sweep_takes_every_box_corner_in_order(monkeypatch):
    # q = 256 boxes in four 64-box blocks, two rows per box
    cov = _covering(hilbert_square())
    seen = []

    def record(self, lam, ns, starts):
        seen.append((lam, ns, starts))
        return np.zeros(len(lam))

    monkeypatch.setattr(shifts._ShiftErrors, "log_errors", record)
    cfg = DynamicsConfig(d=2, interval=(1.0, 2.0), L=cov.q + 3, eta=0.1, kappa=1, bigN=1)
    u = FiniteVector.zeros(2, cfg.L)
    report = verify_universality(u, cov, rolewicz_family(), cfg, u)
    assert [len(lam) for lam, _, _ in seen] == [128] * 4
    assert all(starts.tolist() == list(range(0, 128, 2)) for _, _, starts in seen)
    lam, ns = np.concatenate([s[0] for s in seen]), np.concatenate([s[1] for s in seen])
    assert np.array_equal(lam[0::2], cov.tags)
    assert np.array_equal(lam[1::2], cov.tags + cov.sides[:, None])
    assert ns.tolist() == [i for i in range(1, cov.q + 1) for _ in range(2)]
    assert (report.samples, report.worst_box, report.worst_lambda) == (512, 1, tuple(cov.tags[0]))


def test_a_box_below_zero_is_refused():
    # the corners bound a box's error only where every weight rises in lambda
    cov = COVERINGS["unit-interval"]
    cfg = DynamicsConfig(d=1, interval=(1.0, 2.0), L=cov.q + 3, eta=0.1, kappa=1, bigN=1)
    u = FiniteVector.basis(1, cfg.L, 0)
    low = cov.affine_scaled(1.0, (-1.5, 0.0))
    assert low.tags[:, 0].min() < 0.0 < low.tags[:, 0].max()
    with pytest.raises(ValueError, match="reaches below 0"):
        verify_universality(u, low, rolewicz_family(), cfg, u)


def scalar_tail(envelope, start, stop=20000):
    """The scalar loop: sum in order, stop after a term below 1e-18 past
    start + 10; no such term by stop, or an overflowing term, gives inf."""
    total = 0.0
    for k in range(start, stop + 1):
        try:
            term = math.exp(envelope(k))
        except OverflowError:
            return math.inf
        total += term
        if term < 1e-18 and k > start + 10:
            return total
    return math.inf


@st.composite
def envelopes(draw):
    D = draw(st.floats(min_value=0.01, max_value=2.5))
    if draw(st.booleans()):
        alpha_g = draw(st.sampled_from([1.0, 0.5, 0.6309297535714574]))
        horizon = draw(st.integers(1, 3000))
        return cs1_envelope_closed_form(D, (1.0, 2.0), alpha_g, horizon=horizon, max_abs=2.0)
    return cs1_envelope_generic(draw(st.sampled_from(FAMILIES[1:])), D / 10, (1.0, 2.0), 2)


@settings(max_examples=30, deadline=None)
@given(envelopes(), st.integers(1, 300), st.integers(20, 3000))
def test_envelope_tail_matches_scalar_loop(env, start, span):
    ks = np.arange(start, start + 50)
    assert np.array_equal(env(ks), np.array([env(int(k)) for k in ks]))
    assert _envelope_tail(env, start, start + span) == scalar_tail(env, start, start + span)


@settings(max_examples=30, deadline=None)
@given(envelopes(), st.integers(1, 300), st.floats(1e-6, 10.0))
def test_envelope_tail_stops_at_the_limit_only_when_it_fails(env, start, limit):
    full = _envelope_tail(env, start)
    got = _envelope_tail(env, start, limit=limit)
    if full < limit:
        assert got == full
    else:
        assert got >= limit


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_early_exit_n_search_picks_the_full_sum_step(fam, monkeypatch):
    fast = run_dynamics_experiment(unit_interval(), fam, eta=0.2, d=1)
    full_tail = _envelope_tail
    monkeypatch.setattr(shifts, "_envelope_tail", lambda env, start, limit: full_tail(env, start))
    full = run_dynamics_experiment(unit_interval(), fam, eta=0.2, d=1)
    assert (fast.config.bigN, fast.envelope_tail) == (full.config.bigN, full.envelope_tail)
    assert fast.to_record() == full.to_record()


def test_envelope_tail_without_small_term_is_not_summable():
    constant = cs1_envelope_closed_form(1.0, (1.0, 2.0))  # log c_k = 0 for every k
    assert _envelope_tail(constant, 1) == math.inf  # the partial sum would read 20000
    decaying = cs1_envelope_closed_form(0.5, (1.0, 2.0))  # log c_k = -k/2
    assert _envelope_tail(decaying, 5) == pytest.approx(sum(math.exp(-k / 2) for k in range(5, 84)))
    assert _envelope_tail(decaying, 5, stop=60) == math.inf  # the first term below 1e-18 is k=83


def test_envelope_tail_with_overflowing_term_is_not_summable():
    assert _envelope_tail(cs1_envelope_closed_form(800.0, (1.0, 2.0)), 1) == math.inf


def test_envelope_tail_whose_sum_overflows_is_not_summable():
    # every term is below the float range, the peak log is 709.19, but the sum is past it
    h = 3000
    env = cs1_envelope_closed_form((1 + math.sqrt(708.5 / h)) ** 2, (1.0, 2.0), 1.0, h, 2.0)
    assert max(env(np.arange(1, h))) < math.log(np.finfo(float).max)
    assert _envelope_tail(env, 1, h) == scalar_tail(env, 1, h) == math.inf


def test_n_search_moves_past_an_overflowing_step():
    report = run_dynamics_experiment(unit_interval(), plus_power_family(1.0), eta=0.1, d=1)
    assert report.passed and math.isfinite(report.envelope_tail)
