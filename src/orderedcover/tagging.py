"""Constructive tagged covering with side schedule tau/(kN)^(1/gamma).

The construction covers the attractor by q = r^t squares Gamma_k anchored at
part corners, with t = r(r^s - 1)/(r - 1):

- Gamma_1 covers the first rank-s part with side tau/N^alpha = c^s rho.
- Stage j in {1..t} spends the indices k in (r^(j-1), r^j]: the next (r-1)
  pending rank-(s+1) parts are each covered through their r^(j-1)
  resolution-(s+j) descendants, one square per descendant, in lexicographic
  order. Sides shrink monotonically and land exactly on c^(s+j) rho at the
  stage ends k = r^j.

A TaggedCovering holds the squares as two arrays in k order: cov.tags (q, 2),
the bottom-left corners of the covered parts, and cov.sides (q,), the
scheduled sides tau/(kN)^alpha. Each stage is one rank slice of a level, so
the build copies one slice from each level of geometry.iter_levels as
hbd_report checks the stream, and keeps no whole level. Each square's covered
word, stage and fineness groups follow from (r, s, k); the record writes the
stage spans they are read from, not a row per square.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from . import geometry
from .geometry import BudgetExceededError, OrderedIFS, part_budget
from .hbd import hbd_report

_S_TOL = 1e-9


@dataclass(frozen=True)
class BuilderParams:
    """Normalized construction parameters.

    tau and bigN must satisfy tau/N^alpha = c^s rho for an integer s >= 1;
    use normalize_tau (or from_stage) to produce such a pair. proof_safe
    additionally demands the safe-margin inequality 3(r-1)^alpha c^s <= 1
    and D >= rho/c^3; the construction itself only needs the exact side
    relation, and the worked small-q examples run with proof_safe False.
    """

    tau: float
    bigN: int
    D: float
    gamma: float
    r: int
    rho: float

    def __post_init__(self) -> None:
        geometry.check_positive(tau=self.tau, rho=self.rho, D=self.D, gamma=self.gamma)
        if self.bigN < 1 or self.r < 2:
            raise ValueError("bigN >= 1 and r >= 2 required")

    @property
    def alpha(self) -> float:
        return 1.0 / self.gamma

    @property
    def c(self) -> float:
        return self.r ** (-self.alpha)

    @property
    def s(self) -> int:
        """Integer s with tau/N^alpha = c^s rho; raises if none exists."""
        ratio = self.tau / self.bigN**self.alpha / self.rho
        s = math.log(ratio) / math.log(self.c)
        s_int = round(s)
        if s_int < 1 or abs(s - s_int) > 1e-6:
            raise ValueError(
                f"tau/N^alpha = {ratio * self.rho!r} is not c^s rho for integer s >= 1; "
                "apply normalize_tau first"
            )
        return s_int

    @property
    def proof_safe(self) -> bool:
        margin_ok = 3.0 * (self.r - 1) ** self.alpha * self.c**self.s <= 1.0 + _S_TOL
        d_ok = self.D >= self.rho / self.c**3 - _S_TOL
        return margin_ok and d_ok

    @classmethod
    def from_stage(
        cls, ifs: OrderedIFS, s: int, bigN: int, D: float | None = None
    ) -> "BuilderParams":
        """Exact parameters for a chosen subdivision depth s."""
        if s < 1:
            raise ValueError("s must be >= 1")
        alpha = 1.0 / ifs.gamma
        c = ifs.r ** (-alpha)
        tau = c**s * ifs.rho * bigN**alpha
        if D is None:
            D = ifs.rho / c**3
        return cls(tau=tau, bigN=bigN, D=D, gamma=ifs.gamma, r=ifs.r, rho=ifs.rho)


def normalize_tau(
    tau: float, bigN: int, rho: float, c: float, r: int, alpha: float
) -> tuple[int, float]:
    """Smallest s with c^s rho <= tau/N^alpha and 3(r-1)^alpha c^s <= 1.

    Returns (s, tau') with tau' = c^s rho N^alpha <= tau. tau and rho must
    be finite and > 0 (ValueError): with a nan no s would ever be found.
    """
    geometry.check_positive(tau=tau, rho=rho)
    target = tau / bigN**alpha
    margin = 3.0 * (r - 1) ** alpha
    s = 0
    while not (c**s * rho <= target * (1.0 + _S_TOL) and margin * c**s <= 1.0 + _S_TOL):
        s += 1
    return s, c**s * rho * bigN**alpha


def _stage_counts(r: int, s: int, budget: int | None) -> tuple[int, int]:
    """(t, q) for (r, s); refuses q over the part budget."""
    if r < 2 or s < 1:
        raise ValueError("need r >= 2 and s >= 1")
    t = r * (r**s - 1) // (r - 1)
    q = r**t
    limit = part_budget(budget)
    if q > limit:
        raise BudgetExceededError(f"q = r^t = {q} exceeds budget {limit}")
    return t, q


def _stage_spans(r: int, s: int, t: int) -> list[tuple[int, int, int, int]]:
    """(stage, resolution m, first rank, count) per stage, in k order.

    Square 1 covers rank 0 at resolution s. Stage j pops the next (r-1)
    pending rank-(s+1) parts, rank r + (j-1)(r-1) onwards, and covers their
    resolution-(s+j) descendants: one contiguous rank range.
    """
    return [(0, s, 0, 1)] + [
        (j, s + j, (r + (j - 1) * (r - 1)) * r ** (j - 1), (r - 1) * r ** (j - 1))
        for j in range(1, t + 1)
    ]


@dataclass(frozen=True, eq=False)
class TaggedCovering:
    """The q squares Gamma_k = [tag, tag + side]^2 plus schedule parameters.

    Row k-1 of tags (q, 2) and sides (q,) is square k. The covered part,
    stage and fineness groups of each square follow from (r, s, k);
    to_record writes the stage spans they are read from, beside the arrays.
    """

    fractal: str
    tau: float
    bigN: int
    D: float
    gamma: float
    r: int
    rho: float
    s: int
    t: int
    q: int
    tags: np.ndarray = field(repr=False)
    sides: np.ndarray = field(repr=False)

    @property
    def alpha(self) -> float:
        return 1.0 / self.gamma

    @property
    def c(self) -> float:
        return self.r ** (-self.alpha)

    def affine_scaled(self, sigma: float, offset: tuple[float, float]) -> "TaggedCovering":
        """Map every square by p -> offset + sigma * p; D and rho scale by sigma."""
        if sigma <= 0:
            raise ValueError("sigma must be positive")
        return replace(
            self,
            tau=sigma * self.tau,
            D=sigma * self.D,
            rho=sigma * self.rho,
            tags=np.asarray(offset, dtype=float) + sigma * self.tags,
            sides=sigma * self.sides,
        )

    def to_record(self) -> dict:
        """The parameters, tags (q, 2), sides (q,) and the stage spans as
        [stage, m, first, count] rows: the square at offset i of a stage
        covers the part with word lex_unrank(first + i, m, r)."""
        return {
            "fractal": self.fractal,
            "tau": self.tau,
            "bigN": self.bigN,
            "D": self.D,
            "gamma": self.gamma,
            "r": self.r,
            "rho": self.rho,
            "s": self.s,
            "t": self.t,
            "q": self.q,
            "tags": self.tags.tolist(),
            "sides": self.sides.tolist(),
            "stages": [list(span) for span in _stage_spans(self.r, self.s, self.t)],
        }


def build_tagged_covering(
    ifs: OrderedIFS,
    params: BuilderParams,
    budget: int | None = None,
) -> TaggedCovering:
    """Run the construction; raises on bad parameters or budget overrun."""
    if params.r != ifs.r:
        raise ValueError(f"params.r={params.r} but system has r={ifs.r}")
    if abs(params.gamma - ifs.gamma) > 1e-12 or abs(params.rho - ifs.rho) > 1e-12:
        raise ValueError("params gamma/rho must match the system")
    if params.D < params.rho / params.c**3 - _S_TOL:
        raise ValueError(
            f"D={params.D} below rho/c^3={params.rho / params.c ** 3}; "
            "the separation bound needs the full constant (no recursive splitting here)"
        )
    s = params.s  # validates the exact side relation
    r, alpha = params.r, params.alpha
    t, q = _stage_counts(r, s, budget)
    spans = _stage_spans(r, s, t)
    parts = []  # per stage, copies of its parts' corners and sides

    def keep_stages(levels):
        for level in levels:
            if level.m >= s:  # stage level.m - s is one rank slice of this level
                _, _, first, count = spans[level.m - s]
                window = slice(first, first + count)
                parts.append((level.corners[window].copy(), level.sides[window].copy()))
            yield level

    lv = geometry.iter_levels(ifs, s + t, budget)
    report = hbd_report(keep_stages(lv), params.gamma, params.rho, s + t)
    if not report.passed:
        fail = report.first_failure()
        raise ValueError(f"system fails dimension condition {fail.condition} at m={fail.m}")

    sides = params.tau / geometry._pow(np.arange(1, q + 1, dtype=float) * params.bigN, alpha)
    k0 = 0
    for (stage, *_, count), (_, part_sides) in zip(spans, parts, strict=True):
        if (part_sides > sides[k0 : k0 + count] + _S_TOL).any():
            raise AssertionError(f"stage {stage} has a square smaller than its covered part")
        k0 += count
    assert k0 == q

    return TaggedCovering(
        fractal=ifs.name,
        tau=params.tau,
        bigN=params.bigN,
        D=params.D,
        gamma=params.gamma,
        r=params.r,
        rho=params.rho,
        s=s,
        t=t,
        q=q,
        tags=np.concatenate([corners for corners, _ in parts]),
        sides=sides,
    )
