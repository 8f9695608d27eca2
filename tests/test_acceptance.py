"""End-to-end acceptance checks.

Each test covers one advertised guarantee and prints a single verdict
line; run with ``pytest tests/test_acceptance.py -s`` to see them all.
"""

from __future__ import annotations

import math
import time

import numpy as np

from orderedcover import zoo
from orderedcover.geometry import attractor_points
from orderedcover.hbd import hbd_report
from orderedcover.separation import (
    coverage_check,
    verify_form,
    verify_jump_lemma,
    verify_separation,
)
from orderedcover.shifts import (
    check_cs2_lipschitz,
    cs1_envelope_closed_form,
    power_family,
    rolewicz_family,
    run_dynamics_experiment,
)
from orderedcover.tagging import BuilderParams, build_tagged_covering

from cs1_reference import check_cs1_bounds
from tagging_reference import fineness_schedule, pending_after_stage


def _verdict(num: int, label: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"criterion {num} [{label}]: {status}"
    if detail:
        line += f" ({detail})"
    print(line)


def test_criterion_1_zoo_dimension_checks():
    # Every catalog system passes all three box checks at its stated
    # exponent, and fails condition (i) once the exponent is shrunk 10%.
    systems = [
        (zoo.sierpinski_gasket(), 5),
        (zoo.hilbert_square(), 5),
        (zoo.koch_curve(), 5),
        (zoo.minkowski_sausage(), 3),
    ]
    t0 = time.perf_counter()
    failures = []
    for ifs, m_max in systems:
        rep = hbd_report(ifs, ifs.gamma, ifs.rho, m_max, name=ifs.name)
        if not rep.passed:
            failures.append(f"{ifs.name} fails at stated exponent")
        bad = hbd_report(ifs, 0.9 * ifs.gamma, ifs.rho, m_max, name=ifs.name)
        first = bad.first_failure()
        if bad.passed or first is None or first.m > 8:
            failures.append(f"{ifs.name} does not fail at 0.9x exponent by m=8")
    wall = time.perf_counter() - t0
    if wall >= 10.0:
        failures.append(f"wall {wall:.2f}s >= 10s")
    _verdict(1, "zoo dimension checks", not failures, "; ".join(failures) or f"{wall:.2f}s")
    assert not failures


def test_criterion_2_gasket_stage_one_covering():
    # Stage-1 triangle covering: 27 squares, exact stage-end sides,
    # side formula, coverage, and the distance bound with D = 8 rho.
    ifs = zoo.sierpinski_gasket()
    t0 = time.perf_counter()
    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, s=1, bigN=1, D=8.0 * ifs.rho))
    failures = []
    if len(cov.sides) != 27:
        failures.append(f"q = {len(cov.sides)} != 27")
    for j, k in enumerate((3, 9, 27), start=1):
        side = cov.sides[k - 1]
        expect = cov.c ** (cov.s + j) * cov.rho
        if abs(side - expect) > 1e-12 * expect:
            failures.append(f"square {k} side off by {abs(side - expect):.2e}")
    form = verify_form(cov)
    if not form.passed:
        failures.append("side schedule violated")
    sep = verify_separation(cov, seed=0)
    if not (sep.passed and sep.pairs_checked == 351):
        failures.append(f"separation {sep.pairs_checked} pairs passed={sep.passed}")
    if not coverage_check(cov, attractor_points(ifs, 7)):
        failures.append("attractor not covered")
    wall = time.perf_counter() - t0
    if wall >= 1.0:
        failures.append(f"wall {wall:.2f}s >= 1s")
    _verdict(2, "stage-1 triangle covering", not failures, "; ".join(failures) or f"{wall:.2f}s")
    assert not failures


def test_criterion_3_pending_counts():
    # The builder retires r-1 pending parts per stage from an initial
    # backlog of r(r^s - 1), reaching zero exactly at the last stage.
    failures = []
    for r, s in [(2, 1), (2, 2), (3, 1), (4, 1)]:
        _, t, q = fineness_schedule(r, s)
        backlog = r * (r**s - 1)
        for j in range(t + 1):
            want = backlog - j * (r - 1)
            got = pending_after_stage(r, s, j)
            if got != want or got < 0:
                failures.append(f"(r={r}, s={s}) stage {j}: {got} != {want}")
        if pending_after_stage(r, s, t) != 0:
            failures.append(f"(r={r}, s={s}) backlog not exhausted at t={t}")
        if q != r**t:
            failures.append(f"(r={r}, s={s}) q = {q} != r^t")
    # Matching real builds produce exactly q squares.
    builds = [
        (zoo.unit_interval(), 1, 4),
        (zoo.unit_interval(), 2, 64),
        (zoo.sierpinski_gasket(), 1, 27),
        (zoo.hilbert_square(), 1, 256),
    ]
    for ifs, s, q_expect in builds:
        cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, s=s, bigN=1))
        if len(cov.tags) != q_expect:
            failures.append(f"{ifs.name} s={s}: built {len(cov.tags)} != {q_expect}")
    _verdict(3, "pending-count schedule", not failures, "; ".join(failures))
    assert not failures


def test_criterion_4_rank_gap_lower_bound():
    # Parts that are far apart in space are far apart in the ordering.
    cases = [
        (zoo.sierpinski_gasket(), 5),
        (zoo.hilbert_square(), 4),
        (zoo.koch_curve(), 4),
        (zoo.unit_interval(), 10),
    ]
    failures = []
    for ifs, m in cases:
        rep = verify_jump_lemma(ifs, m)
        if not rep.passed:
            failures.append(f"{ifs.name} m={m}: {rep.counterexample}")
    _verdict(4, "rank-gap lower bound", not failures, "; ".join(failures))
    assert not failures


def test_criterion_5_side_schedule_self_similar():
    # One resolution step multiplies every scheduled side by the map
    # ratio exactly: tau / (r k N)^alpha = c * tau / (k N)^alpha.
    rng = np.random.default_rng(5)
    failures = []
    for name in sorted(zoo.IFS_NAMES):
        ifs = zoo.zoo_source(name)
        # the stage-1 schedule at N = 3, from the system: minkowski's s = 1
        # build exceeds the part budget and gap-dust's fails its audit
        r, bigN = ifs.r, 3
        alpha = 1.0 / ifs.gamma
        c = r ** (-alpha)
        tau = c * ifs.rho * bigN**alpha
        ks = rng.integers(1, 10**6, size=1000)
        lhs = tau / (r * ks * bigN) ** alpha
        rhs = c * tau / (ks * bigN) ** alpha
        worst = float(np.max(np.abs(lhs - rhs) / rhs))
        if worst > 1e-12:
            failures.append(f"{name}: rel err {worst:.2e}")
    _verdict(5, "side schedule self-similarity", not failures, "; ".join(failures))
    assert not failures


def test_criterion_6_dynamics_accuracy():
    # End-to-end run on the triangle covering: a single common vector
    # reproduces the target profile over every tagged box to 3 eta.
    eta = 0.1
    t0 = time.perf_counter()
    rep = run_dynamics_experiment(
        zoo.sierpinski_gasket(), rolewicz_family(), interval=(1.0, 2.0), eta=eta, s=1
    )
    wall = time.perf_counter() - t0
    failures = []
    if not rep.passed:
        failures.append("experiment reports failure")
    if rep.q != 27:
        failures.append(f"q = {rep.q} != 27")
    if rep.config.L < 200:
        failures.append(f"L = {rep.config.L} < 200")
    if not rep.u_minus_u0 < eta:
        failures.append(f"|u - u0| = {rep.u_minus_u0:.4f} >= eta")
    if not rep.universality.worst_error < 3 * eta:
        failures.append(f"worst error {rep.universality.worst_error:.4f} >= 3 eta")
    if rep.universality.samples != 2 * rep.q:
        failures.append(f"{rep.universality.samples} corners checked, not 2q = {2 * rep.q}")
    if wall >= 30.0:
        failures.append(f"wall {wall:.2f}s >= 30s")
    _verdict(6, "dynamics accuracy", not failures, "; ".join(failures) or f"{wall:.2f}s")
    assert not failures


def test_criterion_7_constant_weight_envelope():
    # Constant weights, D = 0.5 on [1, 2], shift counts n <= 50: every measured
    # mixed-shift norm stays under e^(50 D k/(50 + k) - k) and the series tails vanish.
    env = cs1_envelope_closed_form(0.5, (1.0, 2.0), 1.0, 50, 1.0)
    rep = check_cs1_bounds(
        rolewicz_family(), gamma=1.0, D=0.5, interval=(1.0, 2.0),
        k_max=50, n_max=50, envelope=env,
    )
    failures = []
    if not rep.passed:
        failures.append("measured bound exceeded envelope")
    if rep.worst_log_margin > math.log1p(1e-9):
        failures.append(f"log margin {rep.worst_log_margin:.2e}")
    if not rep.ratio_margin > 0:
        failures.append("partial sums not geometrically dominated")
    if not rep.tail_sums[str(rep.k_max)] < 1e-9:
        failures.append(f"tail at k={rep.k_max} is {rep.tail_sums[str(rep.k_max)]:.2e}")
    _verdict(7, "constant-weight envelope", not failures, "; ".join(failures))
    assert not failures


def test_criterion_8_power_weight_contraction():
    # The square-root growth family is exactly 1-Lipschitz in the
    # parameter after log scaling.
    rep = check_cs2_lipschitz(power_family(0.5), (1.0, 2.0))
    err = abs(rep.measured - 1.0)
    ok = rep.passed and err <= 1e-12
    _verdict(8, "power-weight contraction", ok, f"|measured - 1| = {err:.2e}")
    assert ok


def test_criterion_9_pseudo_arrowhead_holder_boxes():
    # Dyadic parameter boxes of the order-8 arrowhead polyline shrink
    # at the advertised Holder rate with constant 4.
    beta = math.log(2.0) / math.log(3.0)
    curve = zoo.arrowhead_pseudo(8)
    failures = []
    for m, level in enumerate(zoo.holder_levels(curve, 10)):
        bound = 4.0 * (2.0**-beta) ** m
        worst = level.sides.max()
        if worst > bound * (1 + 1e-9):
            failures.append(f"m={m}: side {worst:.4e} > {bound:.4e}")
    _verdict(9, "pseudo-arrowhead box decay", not failures, "; ".join(failures))
    assert not failures
