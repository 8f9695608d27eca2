"""Constructive tagged covering with side schedule tau/(kN)^(1/gamma).

The source is any level source, an ordered system or a Holder curve: its
(r, gamma, rho) fix c = r^(-1/gamma); the builder chooses only
the stage s, the index stride N and the separation constant D
(BuilderParams). build_tagged_covering turns them into tau = c^s rho N^alpha,
alpha = 1/gamma, and the sides, and is the only place that does.

The construction covers the attractor by q = r^t squares Gamma_k anchored at
part corners, with t = r(r^s - 1)/(r - 1):

- Gamma_1 covers the first rank-s part with side tau/N^alpha = c^s rho.
- Stage j in {1..t} spends the indices k in (r^(j-1), r^j]: the next (r-1)
  pending rank-(s+1) parts are each covered through their r^(j-1)
  resolution-(s+j) descendants, one square per descendant, in lexicographic
  order. Sides shrink monotonically and land exactly on c^(s+j) rho at the
  stage ends k = r^j.

A TaggedCovering holds the squares as two arrays in k order: cov.tags (q, d),
the bottom-left corners of the covered parts, and cov.sides (q,), the
scheduled sides tau/(kN)^alpha. Each stage is one rank slice of a level, so
the build copies one slice from each level of the source's iter_levels as
hbd_report checks the stream (_keep_stages, which the coverage audit shares),
and keeps no whole level. Each square's covered word, stage and fineness
groups follow from (r, s, k); the record writes the stage spans they are read
from, not a row per square.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Iterable, Iterator

import numpy as np

from . import geometry
from .geometry import GEOM_TOL, Level, Record
from .hbd import hbd_report


@dataclass(frozen=True)
class BuilderParams:
    """What the builder chooses: the stage s, the index stride N and the
    separation constant D. The source's (r, gamma, rho) fix the rest: c =
    r^(-1/gamma) and the side schedule tau/(kN)^(1/gamma) with tau = c^s rho
    N^(1/gamma), which build_tagged_covering computes.

    from_stage takes s; from_tau snaps a requested tau down to the smallest
    feasible stage. s and bigN must be >= 1, D finite and > 0 (ValueError).
    """

    s: int
    bigN: int
    D: float

    def __post_init__(self) -> None:
        if self.s < 1 or self.bigN < 1:
            raise ValueError(f"s >= 1 and bigN >= 1 required, got s={self.s}, bigN={self.bigN}")
        geometry.check_positive(D=self.D)

    @classmethod
    def from_stage(cls, source, s: int, bigN: int, D: float | None = None) -> "BuilderParams":
        """Stage s of the source; D defaults to rho/c^3."""
        if D is None:
            D = source.rho / (source.r ** (-1.0 / source.gamma)) ** 3
        return cls(s=s, bigN=bigN, D=D)

    @classmethod
    def from_tau(cls, source, tau: float, bigN: int, D: float | None = None) -> "BuilderParams":
        """The smallest stage s with c^s rho <= tau/N^alpha and the safe margin
        3(r-1)^alpha c^s <= 1, so the covering's tau = c^s rho N^alpha is at
        most tau. tau must be finite and > 0 and bigN >= 1 (ValueError): with
        a nan no s would ever be found.
        """
        geometry.check_positive(tau=tau)
        if bigN < 1:
            raise ValueError(f"bigN >= 1 required, got {bigN}")
        alpha = 1.0 / source.gamma
        c, rho = source.r ** (-alpha), source.rho
        target = tau / bigN**alpha
        margin = 3.0 * (source.r - 1) ** alpha
        s = 1  # s = 0 never passes: the margin is at least 3
        while not (c**s * rho <= target * (1.0 + GEOM_TOL) and margin * c**s <= 1.0 + GEOM_TOL):
            s += 1
        return cls.from_stage(source, s, bigN, D)


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


def _keep_stages(levels: Iterable[Level], spans: list, parts: list) -> Iterator[Level]:
    """Pass the levels on, first appending to parts a copy of each stage's
    (corners, sides) rank slice of the level: the build and the coverage audit
    read the covered parts through this one filter."""
    for level in levels:
        for _, m, first, count in spans:
            if m == level.m:
                window = slice(first, first + count)
                parts.append((level.corners[window].copy(), level.sides[window].copy()))
        yield level


@dataclass(frozen=True, eq=False)
class TaggedCovering(Record):
    """The q squares Gamma_k = [tag, tag + side]^d plus schedule parameters.

    Row k-1 of tags (q, d) and sides (q,) is square k. The covered part,
    stage and fineness groups of each square follow from (r, s, k);
    to_record writes the stage spans they are read from, beside the arrays.
    Construction, dataclasses.replace and affine_scaled included, refuses
    (ValueError, naming the field) a tau, D, gamma or rho that is not finite
    and > 0, tags not (q, d) or sides not (q,), and a nan or inf in either:
    the audits then never fold a nan into a verdict.
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

    def __post_init__(self) -> None:
        geometry.check_positive(tau=self.tau, D=self.D, gamma=self.gamma, rho=self.rho)
        for label, ndim, shape in (("tags", 2, "(q, d)"), ("sides", 1, "(q,)")):
            value = getattr(self, label)
            if np.ndim(value) != ndim or len(value) != self.q:
                raise ValueError(f"{label} must be {shape} with q={self.q}, got {np.shape(value)}")
            if not np.isfinite(value).all():
                raise ValueError(f"{label} must be finite")

    @property
    def alpha(self) -> float:
        return 1.0 / self.gamma

    @property
    def c(self) -> float:
        return self.r ** (-self.alpha)

    @property
    def proof_safe(self) -> bool:
        """The safe margin 3(r-1)^alpha c^s <= 1 and D >= rho/c^3. The
        construction only needs the exact side relation, and the worked
        small-q examples run with proof_safe False."""
        margin_ok = 3.0 * (self.r - 1) ** self.alpha * self.c**self.s <= 1.0 + GEOM_TOL
        d_ok = self.D >= self.rho / self.c**3 - GEOM_TOL
        return margin_ok and d_ok

    def affine_scaled(self, sigma: float, offset: tuple[float, ...]) -> "TaggedCovering":
        """Map every square by p -> offset + sigma * p; D and rho scale by sigma. The
        scaled covering checks itself, so sigma must be finite and > 0."""
        return replace(
            self,
            tau=sigma * self.tau,
            D=sigma * self.D,
            rho=sigma * self.rho,
            tags=np.asarray(offset, dtype=float) + sigma * self.tags,
            sides=sigma * self.sides,
        )

    def to_record(self) -> dict:
        """The fields, tags (q, d) and sides (q,) as lists, and the stage spans
        as [stage, m, first, count] rows: the square at offset i of a stage
        covers the part with word lex_unrank(first + i, m, r)."""
        stages = [list(span) for span in _stage_spans(self.r, self.s, self.t)]
        return {**super().to_record(), "stages": stages}


def build_tagged_covering(source, params: BuilderParams) -> TaggedCovering:
    """Run the construction on a level source, a system or a curve; raises
    on bad parameters or budget overrun."""
    r, gamma, rho = source.r, source.gamma, source.rho
    alpha = 1.0 / gamma
    c = r ** (-alpha)
    s, bigN = params.s, params.bigN
    tau = c**s * rho * bigN**alpha
    if params.D < rho / c**3 - GEOM_TOL:
        raise ValueError(
            f"D={params.D} below rho/c^3={rho / c ** 3}; "
            "the separation bound needs the full constant (no recursive splitting here)"
        )
    if r < 2:
        raise ValueError(f"need r >= 2, got {r}")
    # t = r + r^2 + ... + r^s is formed only once r^s fits the budget, and the
    # spans and q = r^t < r^(s+t) only once every level up to s + t does
    geometry.check_level_budget(r, s)
    t = r * (r**s - 1) // (r - 1)
    levels = source.iter_levels(s + t)
    spans, q = _stage_spans(r, s, t), r**t
    parts = []  # per stage, copies of its parts' corners and sides
    report = hbd_report(_keep_stages(levels, spans, parts), gamma, rho, s + t)
    if not report.passed:
        fail = report.first_failure()
        raise ValueError(f"system fails dimension condition {fail.condition} at m={fail.m}")

    sides = tau / geometry._pow(np.arange(1, q + 1, dtype=float) * bigN, alpha)
    corners, part_sides = map(np.concatenate, zip(*parts))
    cov = TaggedCovering(  # refuses stages that hold other than q parts
        fractal=source.name, tau=tau, bigN=bigN, D=params.D, gamma=gamma,
        r=r, rho=rho, s=s, t=t, q=q, tags=corners, sides=sides,
    )
    bad = np.flatnonzero(part_sides > sides + GEOM_TOL)
    if bad.size:
        raise AssertionError(f"square {bad[0] + 1} is smaller than its covered part")
    return cov
