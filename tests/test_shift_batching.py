"""The array shift layer against its reference path.

build_common_vector, the universality sweep and the envelope tail are array
code; product_apply with the dense slog_add, and a scalar loop over the
envelope, are the reference. Sup-norm results must match bitwise, p-norm
results to 1e-12 relative.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover.shifts import (
    DynamicsConfig,
    FiniteVector,
    _box_errors,
    _envelope_tail,
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
from orderedcover.zoo import sierpinski_gasket, unit_interval

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


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.data())
def test_box_errors_match_product_apply(case, data):
    cov, fam, cfg, u0, vt = case
    u, _ = build_common_vector(cov, fam, cfg, u0, vt)
    i = data.draw(st.integers(0, cov.q))  # shift 0 leaves u in place
    extra = 1.0 + np.random.default_rng(i).random((data.draw(st.integers(0, 150)), 2))
    lam = np.concatenate([box_sample_points(cov.tags[i - 1], cov.sides[i - 1]), extra])
    lam = lam[:, : cfg.d]
    got = _box_errors(u, fam, i * cfg.bigN, lam, vt)
    assert len(got) == len(lam)
    for g, row in zip(got.tolist(), lam):
        assert_same_error(g, reference_error(u, fam, row, i * cfg.bigN, vt), cfg.norm_kind)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_box_errors_at_the_truncation_edge(fam):
    # u lives at L only: T^n u reaches v_t's support for n = L - 2 .. L
    L = 12
    u = FiniteVector.from_values(np.array([[0.0] * L + [3.0], [0.0] * L + [-2.0]]))
    vt = FiniteVector.from_values(np.array([[0.25, 0.0, 0.5] + [0.0] * (L - 2)] * 2))
    lam = np.array([[1.2, 1.7], [1.9, 1.0]])
    for n in range(L - 3, L + 2):
        want = [reference_error(u, fam, row, n, vt) for row in lam]
        assert _box_errors(u, fam, n, lam, vt).tolist() == want


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
