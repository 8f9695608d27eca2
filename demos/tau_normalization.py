#!/usr/bin/env python3
"""Show how a requested box size is snapped to the nearest feasible schedule."""

from orderedcover import zoo
from orderedcover.tagging import (
    BudgetExceededError,
    BuilderParams,
    build_tagged_covering,
    normalize_tau,
)


def main() -> None:
    ifs = zoo.sierpinski_gasket()
    tau_req, bigN = 0.6, 10
    alpha = 1.0 / ifs.gamma

    s, tau = normalize_tau(tau_req, bigN, ifs.rho, ifs.ratio, ifs.r, alpha)
    print(f"requested tau = {tau_req}, N = {bigN}")
    print(f"normalized:    s = {s}, tau' = {tau!r}")
    print()

    # The two constraints that pick s: the stage depth must make the
    # first square fit under tau/N^alpha, and the close-pair slack
    # 3 (r-1)^alpha c^s must drop below 1.
    c, r = ifs.ratio, ifs.r
    for cand in range(1, s + 2):
        fit = c**cand * ifs.rho <= tau_req / bigN**alpha
        slack = 3.0 * (r - 1) ** alpha * c**cand
        print(f"  s = {cand}: fits under tau/N^alpha: {fit}, "
              f"slack 3(r-1)^a c^s = {slack:.4f} {'< 1' if slack < 1 else '>= 1'}")
    print()

    params = BuilderParams.from_stage(ifs, s=s, bigN=bigN)

    def side(k: int) -> float:
        return params.tau / (k * params.bigN) ** params.alpha

    print("first scheduled sides tau'/(kN)^alpha:")
    for k in range(1, 6):
        print(f"  k = {k}: {side(k):.10f}")
    print()
    print(f"one resolution step scales the schedule by the map ratio: "
          f"side(rk)/side(k) = {side(r) / side(1):.10f} = c = {c}")

    # At s = 3 the schedule needs t = r (r^s - 1) / (r - 1) = 39 stages,
    # so q = 3^39 squares: fine arithmetically, hopeless in memory.
    try:
        build_tagged_covering(ifs, params)
    except BudgetExceededError as exc:
        print(f"building at s = {s} is refused: {exc}")
    print()

    worked = BuilderParams.from_stage(ifs, s=1, bigN=1)
    cov = build_tagged_covering(ifs, worked)
    print(f"the worked s = 1 stage builds q = {len(cov.sides)} squares "
          f"(proof-safe sampling regime: {worked.proof_safe})")


if __name__ == "__main__":
    main()
