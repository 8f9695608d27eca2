#!/usr/bin/env python3
"""Show how a requested box size is snapped to the nearest feasible schedule."""

from orderedcover import zoo
from orderedcover.geometry import BudgetExceededError
from orderedcover.tagging import BuilderParams, build_tagged_covering


def main() -> None:
    ifs = zoo.sierpinski_gasket()
    tau_req, bigN = 0.6, 10
    alpha = 1.0 / ifs.gamma
    c, r = ifs.r ** (-alpha), ifs.r

    params = BuilderParams.from_tau(ifs, tau_req, bigN)
    s = params.s
    tau = c**s * ifs.rho * bigN**alpha  # the covering's tau, as the builder computes it
    print(f"requested tau = {tau_req}, N = {bigN}")
    print(f"normalized:    s = {s}, tau' = {tau!r}")
    print()

    # The two constraints that pick s: the stage depth must make the
    # first square fit under tau/N^alpha, and the close-pair slack
    # 3 (r-1)^alpha c^s must drop below 1.
    for cand in range(1, s + 2):
        fit = c**cand * ifs.rho <= tau_req / bigN**alpha
        slack = 3.0 * (r - 1) ** alpha * c**cand
        print(f"  s = {cand}: fits under tau/N^alpha: {fit}, "
              f"slack 3(r-1)^a c^s = {slack:.4f} {'< 1' if slack < 1 else '>= 1'}")
    print()

    def side(k: int) -> float:
        return tau / (k * bigN) ** alpha

    print("first scheduled sides tau'/(kN)^alpha:")
    for k in range(1, 6):
        print(f"  k = {k}: {side(k):.10f}")
    print()
    print(f"one resolution step scales the schedule by the map ratio: "
          f"side(rk)/side(k) = {side(r) / side(1):.10f} = c = {c}")

    # At s = 3 the schedule needs t = r (r^s - 1) / (r - 1) = 39 stages,
    # so q = 3^39 squares and an audit down to resolution 42: fine
    # arithmetically, hopeless in memory.
    try:
        build_tagged_covering(ifs, params)
    except BudgetExceededError as exc:
        print(f"building at s = {s} is refused: {exc}")
    print()

    cov = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, s=1, bigN=1))
    print(f"the worked s = 1 stage builds q = {len(cov.sides)} squares "
          f"(proof-safe sampling regime: {cov.proof_safe})")


if __name__ == "__main__":
    main()
