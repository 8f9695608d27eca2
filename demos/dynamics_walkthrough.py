#!/usr/bin/env python3
"""Run the common-vector experiment on the triangle covering, end to end.

One vector u is built so that, for every square of the tagged covering,
evolving u under the weighted backward shift at any parameter in the
square lands within 3 eta of the target profile. Each error coordinate
is monotone in its parameter, so the square's two corners, tag and
tag + side, certify the whole square.
"""

import time

from orderedcover import zoo
from orderedcover.shifts import power_family, rolewicz_family, run_dynamics_experiment


def main() -> None:
    ifs = zoo.sierpinski_gasket()
    fam = rolewicz_family()
    t0 = time.perf_counter()
    rep = run_dynamics_experiment(ifs, fam, interval=(1.0, 2.0), eta=0.1, s=1)
    wall = time.perf_counter() - t0

    cfg = rep.config
    print(f"system {rep.fractal}, family {rep.family}, interval {cfg.interval}")
    print(f"q = {rep.q} tagged squares, block length N = {cfg.bigN}, L = {cfg.L}")
    print(f"parameter window sigma = {rep.sigma!r}")
    print(f"scaled separation constant D = {rep.D_scaled!r}")
    print(f"envelope tail after the horizon = {rep.envelope_tail!r}")
    print(f"certificate: {rep.certificate}")
    print()
    print(f"|u - u0| = {rep.u_minus_u0!r}")
    uni = rep.universality
    print(f"certified {uni.q} squares at their two corners ({uni.samples} evaluations)")
    print(f"worst readout error {uni.worst_error!r} at square {uni.worst_box}, "
          f"corner {uni.worst_lambda}")
    print(f"rounding margin {uni.rounding_margin:.3e}: "
          f"{uni.worst_error!r} * e^margin < 3 eta = {3 * uni.eta}")
    print(f"parameter closeness worst ratio {rep.separation_ratio:.6f}")
    print(f"one-step contraction measured {rep.cs2.measured!r}")
    print(f"overall: {'PASS' if rep.passed else 'FAIL'} in {wall:.2f}s")
    print()

    # Growth families are only admitted when their exponent stays under
    # 1/gamma; the triangle has gamma = log 3 / log 2 > 2, so 0.9 is out.
    try:
        run_dynamics_experiment(ifs, power_family(0.9), interval=(1.0, 2.0), eta=0.1, s=1)
    except ValueError as exc:
        print(f"power family with exponent 0.9 is refused: {exc}")


if __name__ == "__main__":
    main()
