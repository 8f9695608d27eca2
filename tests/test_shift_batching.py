"""The array shift layer against its reference path.

build_common_vector and the universality sweep read the vectors' nonzero
entries; product_apply on every coordinate, with np.logaddexp for the sum and
_log_abs_diff for the difference, is the reference, and results must match
bitwise. The sweep skips shifted entries by a
bound; the forced cases below make a skipped-looking column set the maximum.
The universality certificate reads each box at its two corners; the property
tests check that no point of the box has a larger error. The envelope tail is
a certified bound, checked against brute-force sums, and the galloping N search
against a search through every step.
"""

import functools
import json
import math
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from orderedcover.shifts import (
    DynamicsConfig,
    FiniteVector,
    _ShiftErrors,
    _envelope_tail,
    _evaluator,
    _log_abs_diff,
    build_common_vector,
    cs1_envelope_closed_form,
    plus_power_family,
    power_family,
    product_apply,
    rolewicz_family,
    run_dynamics_experiment,
    tag_params,
    verify_universality,
    weight_family,
)
from orderedcover.tagging import BuilderParams, build_tagged_covering
from orderedcover.zoo import hilbert_square, koch_curve, sierpinski_gasket, unit_interval, zoo_source
from orderedcover import shifts

from cs1_reference import cs1_envelope_generic
from shifts_reference import dense, from_values

FAMILIES = [rolewicz_family(), power_family(0.5), plus_power_family(0.5)]


def _covering(ifs):
    """The s=1 covering, scaled into [1, 2]^2 as run_dynamics_experiment does."""
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, 1, 1))
    lo = cov.tags.min(axis=0)
    span = float(((cov.tags + cov.sides[:, None]).max(axis=0) - lo).max())
    sigma = 0.99 / span
    return cov.affine_scaled(sigma, tuple(1.0 - sigma * lo))


COVERINGS = {"unit-interval": _covering(unit_interval()), "sierpinski": _covering(sierpinski_gasket())}

values = st.floats(min_value=0.0, max_value=2.0).map(lambda v: 0.0 if v < 0.1 else v)


@st.composite
def scenarios(draw):
    """A covering, family, d, step N >= 3 and sparse u0 and v_t on 0..L, both below N."""
    cov = COVERINGS[draw(st.sampled_from(sorted(COVERINGS)))]
    fam = draw(st.sampled_from(FAMILIES))
    d = draw(st.sampled_from([1, 2]))
    bigN = draw(st.integers(3, 5))
    L = cov.q * bigN + 2 + draw(st.integers(0, 5))
    cfg = DynamicsConfig(d=d, interval=(1.0, 2.0), L=L, eta=0.1, kappa=1, bigN=bigN)
    u0 = np.zeros((d, L + 1))
    u0[:, 0] = draw(st.lists(values, min_size=d, max_size=d))
    u0[:, draw(st.integers(1, bigN - 1))] = draw(st.lists(values, min_size=d, max_size=d))
    vt = np.zeros((d, L + 1))
    vt[:, :3] = np.reshape(draw(st.lists(values, min_size=3 * d, max_size=3 * d)), (d, 3))
    return cov, fam, cfg, from_values(u0), from_values(vt)


def reference_common_vector(cov, fam, cfg, u0, vt):
    """Dense logmag of u, adding each S^(iN) v_t on every coordinate: np.logaddexp
    with a -inf operand gives the other operand exactly, so disjoint terms add exactly."""
    logmag = dense(u0)
    for i, lam in enumerate(tag_params(cov, cfg.d), start=1):
        term = product_apply(fam, lam, i * cfg.bigN, vt, "forward")
        logmag = np.logaddexp(logmag, dense(term))
    return logmag


def reference_error(u, fam, lam, n, vt):
    logmag = dense(product_apply(fam, tuple(float(c) for c in lam), n, u, "backward"))
    return math.exp(_log_abs_diff(logmag, dense(vt)).max())


def sparse(L, entries):
    """A one-factor vector on 0..L with the given {column: log magnitude}."""
    cols = np.array(sorted(entries))
    return FiniteVector(cols, np.array([[entries[c] for c in cols]]), L)


@settings(max_examples=40, deadline=None)
@given(scenarios())
def test_common_vector_matches_dense_additions(case):
    cov, fam, cfg, u0, vt = case
    u = build_common_vector(cov, fam, cfg, u0, vt)
    assert np.array_equal(dense(u), reference_common_vector(cov, fam, cfg, u0, vt))
    assert len(u.cols) == len(u0.cols) + cov.q * len(vt.cols)
    assert (np.diff(u.cols) > 0).all()


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_common_vector_does_not_depend_on_the_chunk(fam):
    # one term of u per chunk, then all q terms in one: the same u bit for bit, and
    # the dense reference's, so a chunk that drops or shifts rows cannot pass
    cov = COVERINGS["sierpinski"]
    cfg = DynamicsConfig(d=2, interval=(1.0, 2.0), L=cov.q * 4 + 3, eta=0.1, kappa=1, bigN=4)
    u0 = FiniteVector.basis(2, cfg.L, 0)
    vt = np.zeros((2, cfg.L + 1))
    vt[:, :3] = [[1.0, 0.5, 0.25], [0.75, 0.0, 2.0]]
    vt = from_values(vt)
    want = reference_common_vector(cov, fam, cfg, u0, vt)
    got = []
    for cells in (1, 2**62):
        with mock.patch.object(shifts, "_CELLS", cells):
            got.append(build_common_vector(cov, fam, cfg, u0, vt))
    for u in got:
        assert np.array_equal(u.cols, got[0].cols) and np.array_equal(u.logmag, got[0].logmag)
        assert np.array_equal(dense(u), want)


def sweep_errors(u, fam, vt, lo, hi, ns):
    """The sweep's errors at the corners lo and hi of boxes at shifts ns, in the
    order lo, hi of the first box, then of the next."""
    log_norm = _ShiftErrors(u, fam, vt).log_errors(np.asarray(lo), np.asarray(hi), np.asarray(ns))
    return [math.exp(v) for v in log_norm.ravel().tolist()]


@settings(max_examples=40, deadline=None)
@given(scenarios(), st.data())
def test_box_errors_match_product_apply(case, data):
    # up to four covering boxes, each with up to 75 random boxes at its shift, one call
    cov, fam, cfg, u0, vt = case
    u = build_common_vector(cov, fam, cfg, u0, vt)
    boxes = data.draw(st.lists(st.integers(0, cov.q), min_size=1, max_size=4))  # 0 leaves u
    lo, hi, ns = [], [], []
    for i in boxes:
        tag, side = cov.tags[i - 1], cov.sides[i - 1]
        a, b = 1.0 + np.random.default_rng(i).random((2, data.draw(st.integers(0, 75)), 2))
        lo.append(np.concatenate([[tag], np.minimum(a, b)])[:, : cfg.d])
        hi.append(np.concatenate([[tag + side], np.maximum(a, b)])[:, : cfg.d])
        ns += [i * cfg.bigN] * len(lo[-1])
    lo, hi = np.concatenate(lo), np.concatenate(hi)
    got = sweep_errors(u, fam, vt, lo, hi, ns)
    assert len(got) == 2 * len(lo)
    for g, row, n in zip(got, np.stack([lo, hi], axis=1).reshape(-1, cfg.d), np.repeat(ns, 2)):
        assert g == reference_error(u, fam, row, n, vt)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_box_errors_at_the_truncation_edge(fam):
    # u lives at L only: T^n u reaches v_t's support for n = L - 2 .. L; the two
    # points are not ordered, so each is a box of its own
    L = 12
    u = from_values(np.array([[0.0] * L + [3.0], [0.0] * L + [2.0]]))
    vt = from_values(np.array([[0.25, 0.0, 0.5] + [0.0] * (L - 2)] * 2))
    lam = np.array([[1.2, 1.7], [1.9, 1.0]])
    for n in range(L - 3, L + 2):
        want = [reference_error(u, fam, row, n, vt) for row in lam]
        assert sweep_errors(u, fam, vt, lam, lam, [n, n]) == [want[0]] * 2 + [want[1]] * 2


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
    u = sparse(L, {c: -(bound + gap) / 2})
    vt = FiniteVector.basis(1, L, 0)
    lam = np.array([[x]])
    want = reference_error(u, fam, lam[0], n, vt)
    assert want > 1.0
    assert sweep_errors(u, fam, vt, lam, lam, [n]) == [want, want]
    monkeypatch.setattr(shifts, "_rounding_margin", lambda top, scale: 0.0)
    assert sweep_errors(u, fam, vt, lam, lam, [n]) == [1.0, 1.0]


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_each_box_bound_is_read_at_its_top_row(fam):
    # Box B has corners x = 1 and x = 2 at shift n = 70, and u_71 = e^-m with
    # f(1, 70) < m < f(2, 71) - f(2, 1): the shifted term sets the maximum of the
    # corner x = 2, while a bound read at x = 1 would drop it. Box A, the point
    # x = 1 first in the call, has the smaller shift, 2, and the larger floor: its
    # near term is about e^50, so its run of entries stops before u_71.
    n, n_a, L = 70, 2, 80
    f = lambda x, k: float(fam.log_products(x, L)[k])
    m = (f(1.0, n) + f(2.0, n + 1) - f(2.0, 1)) / 2
    u = sparse(L, {n + 1: -m, n_a: 50.0 - f(1.0, n_a)})
    vt = FiniteVector.basis(1, L, 0)
    lam, ns = np.array([[1.0], [1.0], [2.0]]), [n_a, n, n]
    want = [reference_error(u, fam, row, k, vt) for row, k in zip(lam, ns)]
    assert want[0] > want[2] > 1.0
    assert sweep_errors(u, fam, vt, lam[:2], lam[[0, 2]], [n_a, n]) == [want[0], *want]


@settings(max_examples=30, deadline=None)
@given(st.sampled_from(FAMILIES + LINEAR_IN_N), st.data())
def test_log_products_at_index_arrays_match_the_table(fam, data):
    # every row of x at index arrays, then a run of its rows at them and at a span of
    # columns, from one evaluator
    top = data.draw(st.integers(0, 3000))
    rows, width = data.draw(st.integers(1, 5)), data.draw(st.integers(0, 6))
    x = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=2 * rows, max_size=2 * rows)))
    x = x.reshape(rows, 2)
    cols = np.array(data.draw(st.lists(st.integers(0, top), min_size=rows * width,
                                       max_size=rows * width)), dtype=int).reshape(rows, width)
    at = _evaluator(fam, x)
    got = at(cols)
    for r in range(rows):
        for j in range(2):
            assert got[r, j].tolist() == fam.log_products(x[r, j], top)[cols[r]].tolist()
    run = slice(data.draw(st.integers(0, rows - 1)), data.draw(st.integers(1, rows)))
    assert np.array_equal(at(cols[run], run), got[run])
    lo = data.draw(st.integers(0, top))
    span = at(slice(lo, top + 1), run)
    want = np.stack([fam.log_products(x[r], top)[:, lo:] for r in range(rows)])[run]
    assert span.tolist() == want.tolist()


def summed_whole(alpha, x, n_max):
    """plus-power's table as one cumsum of all its log-weights into a zeroed row."""
    x = np.asarray(x, dtype=float)[..., None]
    out = np.zeros(x.shape[:-1] + (n_max + 1,))
    increments = x / np.arange(1, n_max + 1, dtype=float) ** (1.0 - alpha)
    np.cumsum(np.log1p(increments), axis=-1, out=out[..., 1:])
    return out


@settings(max_examples=40, deadline=None)
@given(st.sampled_from([0.1, 0.25, 0.5, 0.9, 1.0]), st.data())
def test_rows_grown_in_steps_match_the_table(alpha, data):
    # a row built in place, and one extended step by step by continuing its running
    # sum, both equal log_products(x, c) and the whole cumsum bit for bit
    fam = plus_power_family(alpha)
    shape = data.draw(st.sampled_from([(), (3,), (2, 2)]))
    x = np.array(data.draw(st.lists(st.floats(0.0, 3.0), min_size=math.prod(shape),
                                    max_size=math.prod(shape)))).reshape(shape)
    tops = sorted(data.draw(st.lists(st.integers(0, 4000), min_size=1, max_size=6)))
    width = data.draw(st.sampled_from([1, tops[-1] + 1, tops[-1] + 50]))
    want = fam.log_products(x, tops[-1])
    assert np.array_equal(want, summed_whole(alpha, x, tops[-1]))
    # the evaluator takes x as rows of factors: () and (3,) are one row
    x2 = x.reshape(-1, shape[-1] if len(shape) == 2 else x.size)
    at, out, start = _evaluator(fam, x2, width), np.empty(want.shape), 0
    for top in tops:
        every = np.broadcast_to(np.arange(top + 1), (len(x2), top + 1))
        assert np.array_equal(at(every).reshape(want[..., : top + 1].shape), want[..., : top + 1])
        fam.log_products(x, top, out, start)
        start = top + 1
        assert np.array_equal(out[..., :start], want[..., :start])
    # the left-end row of the N search, asked for runs of k in any order
    k = np.array(data.draw(st.lists(st.integers(0, 3000), min_size=1, max_size=4)))
    at = _evaluator(fam, np.array([[1.25]]))
    base = at(slice(0, 3))[0, 0]
    for run in (k, k + 500, k):
        fresh = _evaluator(fam, np.array([[1.25]]))
        assert np.array_equal(shifts._gain_floor(at, base, run),
                              shifts._gain_floor(fresh, fresh(slice(0, 3))[0, 0], run))


def corner_rows(cov, cfg):
    """Both corners of every box, tag then tag + side, and the boxes' shifts."""
    lo = cov.tags[:, : cfg.d]
    return lo, lo + cov.sides[:, None], np.arange(1, cov.q + 1) * cfg.bigN


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
    _, hi, _ = corner_rows(cov, cfg)
    assert report.rounding_margin == _ShiftErrors(u, fam, vt).margin(float(hi.max()))
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
    lo, hi, ns = corner_rows(cov, cfg)
    got = sweep_errors(u, fam, vt, lo, hi, ns)
    slack = math.exp(_ShiftErrors(u, fam, vt).margin(float(hi.max())))
    rng = np.random.default_rng(seed)
    for i, (tag, side) in enumerate(zip(cov.tags, cov.sides), start=1):
        corner_max, n = max(got[2 * i - 2 : 2 * i]), i * cfg.bigN
        for p in tag[: cfg.d] + side * rng.random((4, cfg.d)):
            assert reference_error(u, fam, p, n, vt) <= corner_max * slack
        stencil = (tag + side * OLD_STENCIL)[:, : cfg.d]
        assert max(reference_error(u, fam, p, n, vt) for p in stencil) == corner_max


# A chunk of one box, and one of all q boxes: _CELLS = 1 leaves one box per chunk
CHUNK_CELLS = (1, 2**62)


def test_sweep_takes_every_box_corner_in_order(monkeypatch):
    # q = 256 boxes in chunks of one box, then of all q, two corners per box, in order
    cov = _covering(hilbert_square())
    seen = []

    def record(self, lo, hi, ns):
        seen.append((lo, hi, ns))
        return np.zeros((len(lo), 2))

    monkeypatch.setattr(shifts._ShiftErrors, "log_errors", record)
    cfg = DynamicsConfig(d=2, interval=(1.0, 2.0), L=cov.q + 3, eta=0.1, kappa=1, bigN=1)
    u = from_values(np.zeros((2, cfg.L + 1)))
    for cells, chunks in zip(CHUNK_CELLS, ([1] * cov.q, [cov.q])):
        seen.clear()
        monkeypatch.setattr(shifts, "_CELLS", cells)
        report = verify_universality(u, cov, rolewicz_family(), cfg, u)
        assert [len(lo) for lo, _, _ in seen] == chunks
        lo, hi, ns = (np.concatenate(col) for col in zip(*seen))
        assert np.array_equal(lo, cov.tags)
        assert np.array_equal(hi, cov.tags + cov.sides[:, None])
        assert ns.tolist() == list(range(1, cov.q + 1))
        assert (report.samples, report.worst_box, report.worst_lambda) == (
            512, 1, tuple(cov.tags[0])
        )


@settings(max_examples=15, deadline=None)
@given(scenarios())
def test_universality_record_does_not_depend_on_the_chunk(case):
    # the same record from one box per chunk, all boxes in one chunk and the default
    cov, fam, cfg, u0, vt = case
    u = build_common_vector(cov, fam, cfg, u0, vt)
    want = verify_universality(u, cov, fam, cfg, vt).to_record()
    for cells in CHUNK_CELLS:
        with mock.patch.object(shifts, "_CELLS", cells):
            assert verify_universality(u, cov, fam, cfg, vt).to_record() == want


def test_a_box_below_zero_is_refused():
    # the corners bound a box's error only where every weight rises in lambda
    cov = COVERINGS["unit-interval"]
    cfg = DynamicsConfig(d=1, interval=(1.0, 2.0), L=cov.q + 3, eta=0.1, kappa=1, bigN=1)
    u = FiniteVector.basis(1, cfg.L, 0)
    low = cov.affine_scaled(1.0, (-1.5, 0.0))
    assert low.tags[:, 0].min() < 0.0 < low.tags[:, 0].max()
    with pytest.raises(ValueError, match="reaches below 0"):
        verify_universality(u, low, rolewicz_family(), cfg, u)


def brute_tail(envelope, start, count=10**6):
    """The first count terms from start, added in order; inf past the float range."""
    with np.errstate(over="ignore"):
        return float(np.cumsum(np.exp(envelope(np.arange(start, start + count))))[-1])


@st.composite
def envelopes(draw):
    D = draw(st.floats(min_value=0.01, max_value=2.5))
    if draw(st.booleans()):
        alpha_g = draw(st.sampled_from([1.0, 0.5, 0.6309297535714574]))
        horizon = draw(st.integers(1, 3000))
        return cs1_envelope_closed_form(D, (1.0, 2.0), alpha_g, horizon=horizon, max_abs=2.0)
    return cs1_envelope_generic(draw(st.sampled_from(FAMILIES[1:])), D / 10, (1.0, 2.0), 2)


@settings(max_examples=15, deadline=None)
@given(envelopes(), st.integers(1, 300))
def test_certified_tail_bounds_a_million_term_sum(env, start):
    ks = np.arange(start, start + 50)
    assert np.array_equal(env(ks), np.array([env(int(k)) for k in ks]))
    assert _envelope_tail(env, start) >= brute_tail(env, start)


@settings(max_examples=40, deadline=None)
@given(envelopes(), st.integers(1, 3000))
def test_the_remainder_alone_bounds_the_terms_from_any_k(env, K):
    # not only past a term below 1e-18: the bound holds wherever the head would stop
    assert env.remainder(K, float(env(K))) >= brute_tail(env, K, 10**5)


def golden_envelopes():
    """(envelope, N, recorded tail) of the four dyn references."""
    out = []
    for name in ("dyn_hilbert_square_rolewicz_eta0.1", "dyn_unit_interval_s3",
                 "dyn_sierpinski_plus_power_alpha0.5", "dynamics_unit_interval_power0.5_eta0.2"):
        ref = json.loads((Path(__file__).parent / "data" / f"{name}.json").read_text())
        record = ref["output"]["record"] if "output" in ref else ref
        ifs = zoo_source(record["fractal"])
        N, D = record["config"]["bigN"], record["D_scaled"]
        if record["family"] == "rolewicz":
            env = cs1_envelope_closed_form(D, (1.0, 2.0), 1.0 / ifs.gamma, record["q"] * N, 1.0)
        else:
            name, alpha = record["family"].split(":")
            fam = weight_family(name, float(alpha))
            env = cs1_envelope_generic(fam, D, (1.0, 2.0), 2)
        out.append((env, N, record["envelope_tail"]))
    return out


@pytest.mark.parametrize("case", golden_envelopes(), ids=lambda c: f"N{c[1]}")
def test_certified_tail_is_the_reference_sum_on_the_golden_envelopes(case):
    env, N, recorded = case
    tail, brute = _envelope_tail(env, N), brute_tail(env, N)
    assert brute <= tail <= brute * (1 + 1e-12)
    assert tail == pytest.approx(recorded, rel=1e-12)


@settings(max_examples=30, deadline=None)
@given(envelopes(), st.integers(1, 300), st.floats(1e-6, 10.0))
def test_early_exits_agree_with_the_full_tail(env, start, limit):
    full = _envelope_tail(env, start)
    got = _envelope_tail(env, start, limit=limit)
    assert (got < limit) == (full < limit)


@pytest.mark.parametrize("fam", FAMILIES, ids=lambda f: f.name)
def test_early_exit_n_search_picks_the_full_sum_step(fam, monkeypatch):
    fast = run_dynamics_experiment(unit_interval(), fam, eta=0.2, d=1)
    full_tail = _envelope_tail
    monkeypatch.setattr(
        shifts, "_envelope_tail", lambda env, start, limit=math.inf: full_tail(env, start)
    )
    full = run_dynamics_experiment(unit_interval(), fam, eta=0.2, d=1)
    assert (fast.config.bigN, fast.envelope_tail) == (full.config.bigN, full.envelope_tail)
    assert fast.to_record() == full.to_record()


def linear_envelope(D):
    """log c_k = (D - 1) k, with the geometric remainder of its tail past K."""

    def env(k):
        return (D - 1.0) * k

    env.remainder = lambda K, log_K: shifts._tail_bound(log_K, 1.0 - D, 1.0, K)
    return env


def test_envelope_tail_without_small_term_is_not_summable():
    assert _envelope_tail(linear_envelope(1.0), 1) == math.inf  # log c_k = 0 for every k
    decaying = linear_envelope(0.5)  # log c_k = -k/2
    head = sum(math.exp(-k / 2) for k in range(5, 84))  # the first term below 1e-18 is k=83
    assert _envelope_tail(decaying, 5) == pytest.approx(head, rel=1e-15)


def test_envelope_tail_with_overflowing_term_is_not_summable():
    assert _envelope_tail(linear_envelope(800.0), 1) == math.inf


def test_envelope_tail_whose_sum_overflows_is_not_summable():
    # every term is below the float range, the peak log is 709.19, but the sum is past it
    h = 3000
    env = cs1_envelope_closed_form((1 + math.sqrt(708.5 / h)) ** 2, (1.0, 2.0), 1.0, h, 2.0)
    assert max(env(np.arange(1, h))) < math.log(np.finfo(float).max)
    assert _envelope_tail(env, 1) == brute_tail(env, 1, h) == math.inf


def test_n_search_moves_past_an_overflowing_step():
    report = run_dynamics_experiment(unit_interval(), plus_power_family(1.0), eta=0.1, d=1)
    assert report.passed and math.isfinite(report.envelope_tail)


def test_the_tail_bound_survives_a_forwarding_wrapper(monkeypatch):
    # A wrapper in the style of functools.wraps around each closed-form envelope, as a
    # tracer installs, keeps what the tail reads besides env(k).
    closed_form = shifts.cs1_envelope_closed_form

    def wrapped(*args, **kwargs):
        env = closed_form(*args, **kwargs)

        @functools.wraps(env)
        def forward(k):
            return env(k)

        return forward

    plain = run_dynamics_experiment(hilbert_square(), rolewicz_family()).to_record()
    monkeypatch.setattr(shifts, "cs1_envelope_closed_form", wrapped)
    assert run_dynamics_experiment(hilbert_square(), rolewicz_family()).to_record() == plain


ZOO = [sierpinski_gasket(), hilbert_square(), koch_curve(), unit_interval()]


class Searched(Exception):
    """Raised once both searches have run, to skip the rest of the experiment."""


@pytest.mark.parametrize("ifs", ZOO, ids=lambda s: s.name)
def test_galloping_finds_the_least_passing_step(ifs, monkeypatch):
    gallop, found = shifts._least_step, []

    def both(passes, first, top):
        linear = next((step for step in range(1, top + 1) if passes(step)), None)
        found.append((gallop(passes, first, top), linear))
        raise Searched

    monkeypatch.setattr(shifts, "_least_step", both)
    for fam in FAMILIES:
        for eta in (0.02, 0.05, 0.1, 0.2, 0.5):
            with pytest.raises(Searched):
                run_dynamics_experiment(ifs, fam, eta=eta)
    assert len(found) == 15 and all(got == want for got, want in found)


@pytest.mark.parametrize("ifs", ZOO, ids=lambda s: s.name)
def test_power_weights_pass_for_every_alpha_up_to_the_exponent(ifs):
    top = 1.0 / ifs.gamma
    for alpha in [*np.arange(0.25, top - 1e-9, 0.05), top]:
        report = run_dynamics_experiment(ifs, power_family(float(alpha)))
        assert report.passed, (ifs.name, alpha)
