"""The array shift layer against its reference path.

build_common_vector, the universality sweep and the envelope tail are array
code; product_apply with the dense slog_add, and a scalar loop over the
envelope, are the reference. Sup-norm results must match bitwise, p-norm
results to 1e-12 relative. The sweep skips shifted columns by a bound; the
forced cases below make a skipped-looking column set the maximum.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover.shifts import (
    DynamicsConfig,
    FiniteVector,
    _ShiftErrors,
    _block_samples,
    _envelope_tail,
    _log_products_at,
    box_sample_points,
    build_common_vector,
    cs1_envelope_closed_form,
    cs1_envelope_generic,
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
    """A covering, family, d, norm, step N and sparse u0 and v_t on 0..L."""
    cov = COVERINGS[draw(st.sampled_from(sorted(COVERINGS)))]
    fam = draw(st.sampled_from(FAMILIES))
    d = draw(st.sampled_from([1, 2]))
    norm_kind = draw(st.sampled_from(["sup", 2.0]))
    bigN = draw(st.integers(1, 4))  # below 3 the terms S^(iN) v_t overlap
    L = cov.q * bigN + 2 + draw(st.integers(0, 5))
    cfg = DynamicsConfig(d=d, interval=(1.0, 2.0), L=L, eta=0.1, kappa=1, bigN=bigN,
                         norm_kind=norm_kind)
    u0 = np.zeros((d, L + 1))
    u0[:, 0] = draw(st.lists(values, min_size=d, max_size=d))
    u0[:, draw(st.integers(1, L))] = draw(st.lists(values, min_size=d, max_size=d))
    vt = np.zeros((d, L + 1))
    vt[:, :3] = np.reshape(draw(st.lists(values, min_size=3 * d, max_size=3 * d)), (d, 3))
    return (cov, fam, cfg, FiniteVector.from_values(u0, norm_kind),
            FiniteVector.from_values(vt, norm_kind))


def reference_common_vector(cov, fam, cfg, u0, vt):
    u = u0.copy()
    for i, lam in enumerate(tag_params(cov, cfg.d), start=1):
        u = u.plus(product_apply(fam, lam, i * cfg.bigN, vt, "forward"))
    return u


def reference_error(u, fam, lam, n, vt):
    return product_apply(fam, tuple(float(c) for c in lam), n, u, "backward").minus(vt).norm()


def assert_same_error(got, want, norm_kind):
    if norm_kind == "sup":
        assert got == want
    else:
        assert got == pytest.approx(want, rel=1e-12)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_common_vector_matches_dense_additions(case):
    cov, fam, cfg, u0, vt = case
    u, _ = build_common_vector(cov, fam, cfg, u0, vt)
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
    u, _ = build_common_vector(cov, fam, cfg, u0, vt)
    boxes = data.draw(st.lists(st.integers(0, cov.q), min_size=1, max_size=4))  # 0 leaves u
    lam, ns, starts = [], [], []
    for i in boxes:
        extra = 1.0 + np.random.default_rng(i).random((data.draw(st.integers(0, 150)), 2))
        pts = np.concatenate([box_sample_points(cov.tags[i - 1], cov.sides[i - 1]), extra])
        starts.append(sum(map(len, lam)))
        lam.append(pts[:, : cfg.d])
        ns += [i * cfg.bigN] * len(pts)
    lam = np.concatenate(lam)
    got = sweep_errors(u, fam, vt, lam, ns, starts)
    assert len(got) == len(lam)
    for g, row, n in zip(got, lam, ns):
        assert_same_error(g, reference_error(u, fam, row, n, vt), cfg.norm_kind)


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


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_sweep_matches_per_point_loop(case):
    cov, fam, cfg, u0, vt = case
    u, _ = build_common_vector(cov, fam, cfg, u0, vt)
    samples = 1.0 + 0.99 * np.random.default_rng(cov.q).random((300, 2))
    report = verify_universality(u, cov, fam, cfg, vt, samples)
    worst, worst_box, worst_lambda, total = -1.0, 0, (), 0
    for i, (tag, side) in enumerate(zip(cov.tags, cov.sides), start=1):
        for p in box_sample_points(tag, side, samples):
            lam = tuple(float(c) for c in p[: cfg.d])
            err = reference_error(u, fam, lam, i * cfg.bigN, vt)
            total += 1
            if err > worst:
                worst, worst_box, worst_lambda = err, i, lam
    assert report.samples == total
    assert_same_error(report.worst_error, worst, cfg.norm_kind)
    if cfg.norm_kind == "sup":
        assert (report.worst_box, report.worst_lambda) == (worst_box, worst_lambda)


def test_sweep_gives_each_box_its_samples_in_order(monkeypatch):
    # q = 256 boxes in four 64-box blocks; samples are the part centres, as
    # run_dynamics_experiment draws them, plus the corners of every box
    # widened by box_sample_points' 1e-12 and points just past them,
    # shuffled so their order is not the boxes'
    cov = _covering(hilbert_square())
    lo, hi = cov.tags - 1e-12, cov.tags + cov.sides[:, None] + 1e-12
    mixed = np.stack([lo[:, 0], hi[:, 1]], axis=1)
    samples = np.concatenate(
        [cov.tags + cov.sides[:, None] / 2, lo, hi, mixed, np.nextafter(hi, np.inf)]
    )
    samples = samples[np.random.default_rng(7).permutation(len(samples))]
    seen = []

    def record(self, lam, ns, starts):
        bounds = np.append(starts, len(lam))
        seen.extend((lam[a:b], ns[a:b]) for a, b in zip(bounds[:-1], bounds[1:]))
        return np.zeros(len(lam))

    monkeypatch.setattr(shifts._ShiftErrors, "log_errors", record)
    cfg = DynamicsConfig(d=2, interval=(1.0, 2.0), L=cov.q + 3, eta=0.1, kappa=1, bigN=1)
    u = FiniteVector.zeros(2, cfg.L)
    report = verify_universality(u, cov, rolewicz_family(), cfg, u, samples)
    want = [box_sample_points(tag, side, samples) for tag, side in zip(cov.tags, cov.sides)]
    assert len(seen) == cov.q
    for i, ((got, ns), pts) in enumerate(zip(seen, want), start=1):
        assert np.array_equal(got, pts)
        assert ns.tolist() == [i * cfg.bigN] * len(pts)
    assert report.samples == sum(map(len, want))
    assert report.min_samples_per_box == min(map(len, want)) > 11
    # the batched sampler alone, block by block, and with no extras
    for lo in range(0, cov.q, 64):
        block = slice(lo, lo + 64)
        pts, counts = _block_samples(cov.tags[block], cov.sides[block], samples)
        assert np.array_equal(pts, np.concatenate(want[block]))
        assert counts.tolist() == list(map(len, want[block]))
    pts, counts = _block_samples(cov.tags[:3], cov.sides[:3], None)
    bare = [box_sample_points(tag, side) for tag, side in zip(cov.tags[:3], cov.sides[:3])]
    assert np.array_equal(pts, np.concatenate(bare))
    assert counts.tolist() == [11, 11, 11]


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


def test_n_search_moves_past_an_overflowing_step():
    report = run_dynamics_experiment(unit_interval(), plus_power_family(1.0), eta=0.1, d=1)
    assert report.passed and math.isfinite(report.envelope_tail)
