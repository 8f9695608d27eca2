"""The grid-sampled CS1 audit, a reference for the tests.

No pipeline step runs it: run_dynamics_experiment reads the envelopes of
orderedcover.shifts directly. The tests use it to measure both mixed shift
families over a grid of admissible (lambda, mu) pairs against an envelope.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from orderedcover.shifts import NEG_INF, WeightFamily, _generic_envelopes


def cs1_envelope_generic(
    fam: WeightFamily,
    D: float,
    interval: tuple[float, float],
    support_max: int,
    max_abs: float = 1.0,
) -> Callable[[float], float]:
    """log c_k from the Lipschitz-certificate template.

    log c_k = log((L+1)(M+1)) + 2 C0 D (L^alpha + k^alpha)
              - min over l <= L, x in I of (f(x, l+k) - f(x, l)),
    the min taken at x = a. Valid for any shift count when fam.alpha <= the
    geometric exponent used to form D's premise. The envelope takes an int or
    an int array of k, and its remainder(K, env(K)) bounds the sum of its terms
    from K on.
    """
    return _generic_envelopes(fam, interval, support_max, max_abs)(D)


@dataclass(frozen=True)
class CS1Report:
    family: str
    D: float
    kappa: int
    k_max: int
    n_max: int
    worst_log_margin: float
    ratio_margin: float
    tail_sums: dict
    passed: bool

    def to_record(self) -> dict:
        return {
            "family": self.family,
            "D": self.D,
            "kappa": self.kappa,
            "k_max": self.k_max,
            "n_max": self.n_max,
            "worst_log_margin": self.worst_log_margin,
            "ratio_margin": self.ratio_margin,
            "tail_sums": self.tail_sums,
            "pass": self.passed,
        }


def check_cs1_bounds(
    fam: WeightFamily,
    gamma: float,
    D: float,
    interval: tuple[float, float],
    basis_ls: Sequence[int] = (0,),
    kappa: int = 1,
    k_max: int = 50,
    n_max: int = 50,
    envelope: Callable[[float], float] | None = None,
    num_x: int = 9,
    rtol: float = 1e-9,
) -> CS1Report:
    """Measure both shift families over the admissible (lambda, mu) grid.

    Admissible means ||lambda - mu|| <= D k^(1/gamma) / (n+k)^(1/gamma); the
    grid walks x over the interval and pushes y to both clipped extremes.
    Every measurement must stay below the envelope's log c_k, and the
    envelope itself must decay (ratio test margin reported).
    """
    a, b = interval
    alpha_g = 1.0 / gamma
    if envelope is None:
        envelope = cs1_envelope_generic(fam, D, interval, max(basis_ls))
    L_top = max(basis_ls) + n_max + k_max
    xs = np.linspace(a, b, num_x)
    tables = {float(x): fam.log_products(float(x), L_top) for x in xs}

    def table_for(y: float) -> np.ndarray:
        if y not in tables:
            tables[y] = fam.log_products(y, L_top)
        return tables[y]

    ls = np.asarray(sorted(basis_ls))
    worst = NEG_INF
    passed = True
    for k in range(kappa, k_max + 1):
        log_ck = envelope(k)
        for n in range(0, n_max + 1):
            delta = D * k**alpha_g / (n + k) ** alpha_g
            for x in xs:
                x = float(x)
                tx = tables[x]
                for y in {max(x - delta, a), min(x + delta, b), x}:
                    ty = table_for(float(y))
                    vals = tx[ls + n + k] - tx[ls + k] - ty[ls + n + k] + ty[ls]
                    ok2 = ls >= k
                    if ok2.any():
                        l2 = ls[ok2]
                        vals2 = tx[l2 + n] - tx[l2 - k] - ty[l2 + n] + ty[l2]
                        margin2 = float(vals2.max()) - log_ck
                        worst = max(worst, margin2)
                    margin = float(vals.max()) - log_ck
                    worst = max(worst, margin)
    if worst > math.log1p(rtol):
        passed = False

    env_logs = np.array([envelope(k) for k in range(kappa, 4 * k_max + 1)])
    ratios = np.exp(np.diff(env_logs))
    window = ratios[len(ratios) // 2 :]
    ratio_margin = float(1.0 - window.max())
    tail_sums = {}
    for start in (kappa, k_max):
        mask = np.arange(kappa, 4 * k_max + 1) >= start
        tail_sums[str(start)] = float(np.exp(env_logs[mask]).sum())
    if ratio_margin <= 0.0:
        passed = False
    return CS1Report(
        family=fam.name,
        D=D,
        kappa=kappa,
        k_max=k_max,
        n_max=n_max,
        worst_log_margin=float(worst),
        ratio_margin=ratio_margin,
        tail_sums=tail_sums,
        passed=passed,
    )
