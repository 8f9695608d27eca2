"""Planar similarity maps, ordered multi-indices, and resolution levels.

Conventions used throughout the package:

- Similarities contract the Euclidean norm exactly by their ratio; all
  parameter-space distances between covering parts use the max norm. The
  per-system constant rho absorbs the discrepancy.
- A covering part is the axis-aligned bounding *square* of the true image,
  anchored at the bottom-left corner of the tight bounding box, with side
  max(width, height). The bottom-left corner doubles as the part's tag.
- Multi-indices are 1-based tuples over {1..r} ordered lexicographically.
- A resolution is a ``Level``: arrays indexed by lexicographic rank, with
  corners (r^m, 2), sides (r^m,) and the composed maps sim_w of every word
  w. ``levels`` builds resolutions 0..m from the one before on separate x
  and y columns: each base vertex and each step shift maps to a column
  pair, and a part's box folds the vertex pairs with elementwise min and
  max. ``compose_part`` is its single-word reference. Curve levels
  (``zoo.holder_levels``) carry the same arrays without maps.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

DEFAULT_PART_BUDGET = 10**6
BUDGET_ENV_VAR = "HBD_COVER_BUDGET"

GEOM_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """A requested enumeration would exceed the configured part budget."""


class InvalidIndexError(ValueError):
    """A multi-index entry falls outside {1..arity}."""


def part_budget(override: int | None = None) -> int:
    """Active part budget: explicit override, else env var, else default."""
    if override is not None:
        return int(override)
    env = os.environ.get(BUDGET_ENV_VAR)
    if env:
        return int(env)
    return DEFAULT_PART_BUDGET


def check_level_budget(r: int, m_max: int, budget: int | None = None) -> None:
    """Refuse resolutions 0..m_max up front, naming the first level over budget."""
    limit = part_budget(budget)
    for m in range(m_max + 1):
        if r**m > limit:
            raise BudgetExceededError(f"{r ** m} parts exceed budget {limit}")


@dataclass(frozen=True)
class Similarity:
    """Planar similarity p -> shift + ratio * R(angle) @ (reflect ? conj(p) : p).

    conj is the vertical reflection (x, y) -> (x, -y), applied before the
    rotation. ratio must lie strictly in (0, 1): these are contractions.
    """

    ratio: float
    angle: float
    reflect: bool
    shift: tuple[float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must be in (0,1), got {self.ratio}")
        object.__setattr__(self, "shift", (float(self.shift[0]), float(self.shift[1])))

    def matrix(self) -> np.ndarray:
        """Linear part as a 2x2 array."""
        cos_a, sin_a = math.cos(self.angle), math.sin(self.angle)
        rot = np.array([[cos_a, -sin_a], [sin_a, cos_a]])
        if self.reflect:
            rot = rot @ np.array([[1.0, 0.0], [0.0, -1.0]])
        return self.ratio * rot

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Apply to one point (2,) or a stack of points (..., 2)."""
        pts = np.asarray(points, dtype=float)
        return pts @ self.matrix().T + np.asarray(self.shift)

    def compose(self, other: "Similarity") -> "Similarity":
        """self after other: (self.compose(other)).apply(p) = self.apply(other.apply(p))."""
        sign = -1.0 if self.reflect else 1.0
        angle = self.angle + sign * other.angle
        shift = self.apply(np.asarray(other.shift, dtype=float))
        return Similarity(
            ratio=self.ratio * other.ratio,
            angle=angle,
            reflect=self.reflect != other.reflect,
            shift=(float(shift[0]), float(shift[1])),
        )


@dataclass(frozen=True)
class MultiIndex:
    """Finite word (i_1, ..., i_m) over the alphabet {1..arity}."""

    entries: tuple[int, ...]
    arity: int

    def __post_init__(self) -> None:
        object.__setattr__(self, "entries", tuple(int(i) for i in self.entries))
        if self.arity < 1:
            raise InvalidIndexError(f"arity must be >= 1, got {self.arity}")
        for i in self.entries:
            if not 1 <= i <= self.arity:
                raise InvalidIndexError(f"entry {i} outside 1..{self.arity}")

    @property
    def length(self) -> int:
        return len(self.entries)


def lex_rank(index: MultiIndex) -> int:
    """Position of the index in the lexicographic order of its length class.

    rank = sum_j (i_j - 1) * r^(m - j), a bijection onto {0, ..., r^m - 1}.
    """
    rank = 0
    for i in index.entries:
        rank = rank * index.arity + (i - 1)
    return rank


def lex_unrank(rank: int, length: int, arity: int) -> MultiIndex:
    """Inverse of lex_rank for the given word length."""
    if not 0 <= rank < arity**length:
        raise InvalidIndexError(f"rank {rank} outside 0..{arity**length - 1}")
    entries = []
    for _ in range(length):
        entries.append(rank % arity + 1)
        rank //= arity
    return MultiIndex(tuple(reversed(entries)), arity)


_TRIANGLE_HEIGHT = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class OrderedIFS:
    """Ordered list of equal-ratio similarities with a base set Lambda_0.

    The base is either the axis-aligned square [x, x+side] x [y, y+side]
    (shape "square") or the equilateral triangle on the bottom edge of that
    square (shape "triangle"). gamma is a dimension certificate (diameters
    decay like rho * r^(-m/gamma)); rho absorbs bounding-box inflation.
    """

    maps: tuple[Similarity, ...]
    shape: str
    corner: tuple[float, float]
    side: float
    gamma: float
    rho: float
    name: str = ""

    def __post_init__(self) -> None:
        if self.shape not in ("square", "triangle"):
            raise ValueError(f"unknown base shape {self.shape!r}")
        if self.side <= 0 or self.gamma <= 0 or self.rho <= 0:
            raise ValueError("side, gamma, rho must be positive")
        ratios = [m.ratio for m in self.maps]
        if max(ratios) - min(ratios) > 1e-12:
            raise ValueError("maps must share one contraction ratio")
        base_box_lo = np.asarray(self.corner, dtype=float)
        base_box_hi = base_box_lo + self.side
        for k, sim in enumerate(self.maps):
            img = sim.apply(self.base_vertices())
            lo, hi = img.min(axis=0), img.max(axis=0)
            if (lo < base_box_lo - GEOM_TOL).any() or (hi > base_box_hi + GEOM_TOL).any():
                raise ValueError(f"map {k + 1} does not keep the base inside its box")

    @property
    def r(self) -> int:
        return len(self.maps)

    @property
    def ratio(self) -> float:
        return self.maps[0].ratio

    def base_vertices(self) -> np.ndarray:
        x, y = self.corner
        s = self.side
        if self.shape == "square":
            return np.array([[x, y], [x + s, y], [x + s, y + s], [x, y + s]])
        return np.array([[x, y], [x + s, y], [x + s / 2.0, y + s * _TRIANGLE_HEIGHT]])


def compose_part(ifs: OrderedIFS, index: MultiIndex) -> tuple[np.ndarray, float]:
    """Bounding square (corner, side) of the base under phi_{i_1} o ... o phi_{i_m}.

    The single-word reference for ``levels``: the map is folded left to
    right with Similarity.compose, so each new letter acts on the base first.
    """
    if index.arity != ifs.r:
        raise InvalidIndexError(f"index arity {index.arity} != system arity {ifs.r}")
    vertices = ifs.base_vertices()
    if index.entries:
        sim = functools.reduce(Similarity.compose, (ifs.maps[i - 1] for i in index.entries))
        vertices = sim.apply(vertices)
    lo = vertices.min(axis=0)
    return lo, float((vertices.max(axis=0) - lo).max())


def _linear_parts(ratio: np.ndarray, angle: np.ndarray, reflect: np.ndarray) -> tuple:
    """Entries (a, b, c, d) of the n linear parts ratio * R(angle) [* conj]:
    each maps (x, y) to (a x + b y, c x + d y).

    Same arithmetic as Similarity.matrix: cos and sin come from math, once
    per distinct angle, and each entry is ratio times one of them.
    """
    uniq, inv = np.unique(angle, return_inverse=True)
    cos = np.array([math.cos(a) for a in uniq.tolist()])[inv]
    sin = np.array([math.sin(a) for a in uniq.tolist()])[inv]
    return (
        ratio * cos,
        ratio * np.where(reflect, sin, -sin),
        ratio * sin,
        ratio * np.where(reflect, -cos, cos),
    )


def _images(linear: tuple, shift_x: np.ndarray, shift_y: np.ndarray, x: float, y: float):
    """Columns (px, py) of the images of the point (x, y) under n maps given
    by their linear parts and shift columns, as Similarity.apply rounds them."""
    a, b, c, d = linear
    return a * x + b * y + shift_x, c * x + d * y + shift_y


@dataclass(frozen=True, eq=False)
class Level:
    """Resolution m as arrays indexed by lexicographic rank.

    corners (n, 2) and sides (n,) are the parts' bounding squares. ratio,
    angle, reflect (n,) and shift (n, 2) are the composed maps sim_w, one
    row per word; a curve level (``zoo.holder_levels``) has none. ``levels``
    builds corners and shift as transposes of (2, n) arrays, so each
    coordinate column is contiguous.
    """

    m: int
    r: int
    corners: np.ndarray
    sides: np.ndarray
    ratio: np.ndarray | None = None
    angle: np.ndarray | None = None
    reflect: np.ndarray | None = None
    shift: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.sides)

    def index(self, rank: int) -> list[int]:
        return list(lex_unrank(rank, self.m, self.r).entries)

    def apply(self, points: np.ndarray) -> np.ndarray:
        """Images (n, k, 2) of the points (k, 2) under every composed map."""
        linear = _linear_parts(self.ratio, self.angle, self.reflect)
        sx, sy = self.shift[:, 0], self.shift[:, 1]
        images = [np.stack(_images(linear, sx, sy, x, y), axis=-1) for x, y in points]
        return np.stack(images, axis=1)


def levels(ifs: OrderedIFS, m_max: int, budget: int | None = None) -> list[Level]:
    """Resolutions 0..m_max, each built from the one before by column expressions.

    Word w j means sim_w o phi_j, composed as Similarity.compose does:
    ratios multiply, angles add (negated under a reflection), reflections
    xor, and the new shift is sim_w(shift_j). The linear parts of level m
    serve both its base images and the shifts of level m + 1. A part's box
    folds the base vertices' image columns with elementwise min and max.
    Every level is checked against the budget before level 0 is built.
    """
    if m_max < 0:
        raise ValueError(f"resolution must be >= 0, got {m_max}")
    check_level_budget(ifs.r, m_max, budget)
    base = ifs.base_vertices().tolist()
    step_ratio, step_angle, step_reflect = (
        np.array([getattr(p, key) for p in ifs.maps]) for key in ("ratio", "angle", "reflect")
    )
    ratio, angle, reflect = np.ones(1), np.zeros(1), np.zeros(1, dtype=bool)
    shift = np.zeros((2, 1))
    out: list[Level] = []
    for m in range(m_max + 1):
        if m:
            steps = [_images(linear, shift[0], shift[1], *p.shift) for p in ifs.maps]
            shift = np.stack([np.stack(column, axis=1).ravel() for column in zip(*steps)])
            sign = np.where(reflect, -1.0, 1.0)[:, None]
            angle = (angle[:, None] + sign * step_angle).ravel()
            reflect = (reflect[:, None] != step_reflect).ravel()
            ratio = (ratio[:, None] * step_ratio).ravel()
        linear = _linear_parts(ratio, angle, reflect)
        xs, ys = zip(*[_images(linear, shift[0], shift[1], x, y) for x, y in base])
        lo = np.stack([functools.reduce(np.minimum, xs), functools.reduce(np.minimum, ys)])
        width = functools.reduce(np.maximum, xs) - lo[0]
        height = functools.reduce(np.maximum, ys) - lo[1]
        out.append(Level(m, ifs.r, lo.T, np.maximum(width, height), ratio, angle, reflect, shift.T))
    return out


def attractor_points(ifs: OrderedIFS, depth: int, budget: int | None = None) -> np.ndarray:
    """The fixed point of phi_1 under every composed map of the given depth.

    One point per depth-level part, in rank order, each on the attractor up
    to rounding.
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    first = ifs.maps[0]
    fixed = np.linalg.solve(np.eye(2) - first.matrix(), np.asarray(first.shift))
    return levels(ifs, depth, budget)[-1].apply(fixed[None])[:, 0]

