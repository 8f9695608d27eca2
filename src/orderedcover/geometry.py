"""Planar similarity maps, lexicographic ranks, and resolution levels.

Conventions used throughout the package:

- Similarities contract the Euclidean norm exactly by their ratio; all
  parameter-space distances between covering parts use the max norm. The
  per-system constant rho absorbs the discrepancy.
- A covering part is the axis-aligned bounding *square* of the true image,
  anchored at the bottom-left corner of the tight bounding box, with side
  max(width, height). The bottom-left corner doubles as the part's tag.
- A part's multi-index is a 1-based word over {1..r}; words of one length
  are ordered lexicographically, and ``lex_unrank`` turns a rank into its
  word as a list.
- A resolution is a ``Level``: the parts' bounding squares as corners
  (r^m, d) and sides (r^m,), indexed by lexicographic rank; d = 2 for a system.
  ``iter_levels`` yields resolutions 0..m_max in turn, building
  resolution m from resolution m - 1 by applying phi_1..phi_r to its
  vertex images (the Hutchinson recursion), on separate x and y arrays,
  and taking each part's box as the min and max over its vertices. The
  last resolution's vertex images are never held whole, so a caller that
  keeps one level at a time needs about two levels' memory. Curve levels
  (``zoo.holder_levels``) are the same type.
- A level source is an ``OrderedIFS`` or a ``zoo.CurveEvaluator``: r, gamma,
  rho, name, the coordinate count d and iter_levels(m_max) are all that
  hbd, tagging, separation and shifts read of either. Every level source
  refuses a level past part_budget() up front, in check_level_budget.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass, field, fields
from itertools import chain, repeat
from typing import Iterator

import numpy as np

DEFAULT_PART_BUDGET = 10**6
BUDGET_ENV_VAR = "HBD_COVER_BUDGET"

GEOM_TOL = 1e-9


class BudgetExceededError(RuntimeError):
    """A requested enumeration would exceed the configured part budget."""


class InvalidIndexError(ValueError):
    """A rank falls outside 0..arity^length - 1."""


def part_budget() -> int:
    """Active part budget: HBD_COVER_BUDGET, else DEFAULT_PART_BUDGET.

    A value that is not an integer, or is below 1, raises ValueError
    naming the variable.
    """
    env = os.environ.get(BUDGET_ENV_VAR)
    if not env:
        return DEFAULT_PART_BUDGET
    try:
        budget = int(env)
    except ValueError:
        raise ValueError(f"{BUDGET_ENV_VAR} must be an integer, got {env!r}") from None
    if budget < 1:
        raise ValueError(f"{BUDGET_ENV_VAR} must be >= 1, got {budget}")
    return budget


def check_positive(**values: float) -> None:
    """Raise ValueError naming the first of the values that is not finite and > 0."""
    for label, value in values.items():
        if not 0 < value < math.inf:
            raise ValueError(f"{label} must be finite and > 0, got {value}")


class Record:
    """Base of the report dataclasses: to_record() is the JSON record of the fields.

    Each field goes in under its own name, except that ``passed`` becomes
    "pass"; tuples become lists, arrays their tolist() and a nested Record
    its own record. A field whose default is None is left out while it is
    None.
    """

    def to_record(self) -> dict:
        rec = {}
        for key, name, optional in _record_plan(type(self)):
            value = getattr(self, name)
            if not (value is None and optional):
                rec[key] = _record_value(value)
        return rec


@functools.cache
def _record_plan(cls: type) -> tuple[tuple[str, str, bool], ...]:
    """(key, field name, default is None) for each field of a Record class."""
    return tuple(
        ("pass" if f.name == "passed" else f.name, f.name, f.default is None) for f in fields(cls)
    )


def _record_value(value):
    if isinstance(value, Record):
        return value.to_record()
    if isinstance(value, tuple):
        return [_record_value(v) for v in value]
    if isinstance(value, np.ndarray):
        return value.tolist()
    return value


def check_level_budget(r: int, m_max: int) -> None:
    """Refuse resolutions 0..m_max up front, naming the first level over part_budget()."""
    limit = part_budget()
    for m in range(m_max + 1):
        if r**m > limit:
            raise BudgetExceededError(f"{r ** m} parts exceed budget {limit}")


@dataclass(frozen=True)
class Similarity(Record):
    """Planar similarity p -> shift + ratio * R(angle) @ (reflect ? conj(p) : p).

    conj is the vertical reflection (x, y) -> (x, -y), applied before the
    rotation. ratio must lie strictly in (0, 1): these are contractions. The
    angle and the shift must be finite.
    """

    ratio: float
    angle: float
    reflect: bool
    shift: tuple[float, float]

    def __post_init__(self) -> None:
        if not 0.0 < self.ratio < 1.0:
            raise ValueError(f"ratio must be in (0,1), got {self.ratio}")
        if not math.isfinite(self.angle):
            raise ValueError(f"angle must be finite, got {self.angle}")
        shift = (float(self.shift[0]), float(self.shift[1]))
        if not (math.isfinite(shift[0]) and math.isfinite(shift[1])):
            raise ValueError(f"shift must be finite, got {shift}")
        object.__setattr__(self, "shift", shift)

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


def lex_unrank(rank: int, length: int, arity: int) -> list[int]:
    """The word (i_1, ..., i_length) over {1..arity} at this lexicographic rank,
    rank = sum_j (i_j - 1) * arity^(length - j)."""
    if not 0 <= rank < arity**length:
        raise InvalidIndexError(f"rank {rank} outside 0..{arity**length - 1}")
    word = []
    for _ in range(length):
        rank, digit = divmod(rank, arity)
        word.append(digit + 1)
    return word[::-1]


_TRIANGLE_HEIGHT = math.sqrt(3.0) / 2.0


@dataclass(frozen=True)
class OrderedIFS:
    """Ordered list of equal-ratio similarities with a base set Lambda_0.

    The base is either the axis-aligned square [x, x+side] x [y, y+side]
    (shape "square") or the equilateral triangle on the bottom edge of that
    square (shape "triangle"). gamma is a dimension certificate (diameters
    decay like rho * r^(-m/gamma)); rho absorbs bounding-box inflation.

    coefficients (r, 6), read-only, holds each map's a, b, c, d, tx, ty: the
    entries of Similarity.matrix() and the shift, so that map k sends (x, y)
    to (a x + b y + tx, c x + d y + ty). It is a level source (d = 2).
    """

    d = 2  # planar
    maps: tuple[Similarity, ...]
    shape: str
    corner: tuple[float, float]
    side: float
    gamma: float
    rho: float
    name: str = ""
    coefficients: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.shape not in ("square", "triangle"):
            raise ValueError(f"unknown base shape {self.shape!r}")
        check_positive(side=self.side, gamma=self.gamma, rho=self.rho)
        if len(self.maps) < 2:
            raise ValueError(f"an ordered system needs at least 2 maps, got {len(self.maps)}")
        ratios = [m.ratio for m in self.maps]
        if max(ratios) - min(ratios) > 1e-12:
            raise ValueError("maps must share one contraction ratio")
        table = np.array([(*sim.matrix().ravel().tolist(), *sim.shift) for sim in self.maps])
        table.flags.writeable = False
        object.__setattr__(self, "coefficients", table)
        # the base vertices' images under every map as a x + b y + tx and
        # c x + d y + ty, rows x and y, (2, r, k)
        coef = table.T[:, :, None]
        x, y = self.base_vertices().T
        images = coef[[0, 2]] * x + coef[[1, 3]] * y + coef[4:]
        lo = np.asarray(self.corner, dtype=float)[:, None, None]
        kept = ((images >= lo - GEOM_TOL) & (images <= lo + self.side + GEOM_TOL)).all(axis=(0, 2))
        if not kept.all():
            raise ValueError(f"map {int(kept.argmin()) + 1} does not keep the base inside its box")

    @property
    def r(self) -> int:
        return len(self.maps)

    @property
    def ratio(self) -> float:
        return self.maps[0].ratio

    def iter_levels(self, m_max: int) -> Iterator[Level]:
        return iter_levels(self, m_max)

    def base_vertices(self) -> np.ndarray:
        x, y = self.corner
        s = self.side
        if self.shape == "square":
            return np.array([[x, y], [x + s, y], [x + s, y + s], [x, y + s]])
        return np.array([[x, y], [x + s, y], [x + s / 2.0, y + s * _TRIANGLE_HEIGHT]])


@dataclass(frozen=True, eq=False)
class Level:
    """Resolution m as arrays indexed by lexicographic rank.

    corners (n, d) and sides (n,) are the parts' bounding squares. For a
    system (d = 2), part w is the base set's image under sim_w; for a curve
    in R^d (``zoo.holder_levels``), the curve over a dyadic parameter interval.
    ``iter_levels`` builds corners as the transpose of the lo rows of a
    (4, n) box array, so each coordinate column is contiguous.
    """

    m: int
    r: int
    corners: np.ndarray
    sides: np.ndarray

    def __len__(self) -> int:
        return len(self.sides)

    def index(self, rank: int) -> list[int]:
        return lex_unrank(rank, self.m, self.r)


def _pow(base, exponent: float):
    """base ** exponent by Python's float pow (libm), elementwise over a 1-d array:
    numpy's ``**`` picks a vector kernel by CPU, and its last bit may differ from
    machine to machine. It streams the array through lists of at most 65,536
    floats, so it never holds a Python float for every value at once."""
    if np.ndim(base) == 0:
        return base**exponent
    chunks = (base[i : i + 65536].tolist() for i in range(0, len(base), 65536))
    return np.fromiter(map(pow, chain.from_iterable(chunks), repeat(exponent)), float, len(base))


# Parent parts per block when the last level's images are reduced to boxes.
_BLOCK_PARTS = 8192


def _boxes(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rows lo x, lo y, hi x, hi y of the columns of x and y (k, n)."""
    return np.array([x.min(axis=0), y.min(axis=0), x.max(axis=0), y.max(axis=0)])


def _part_boxes(ifs: OrderedIFS, points: np.ndarray, m_max: int):
    """Yield, for m = 0..m_max, the boxes (4, r^m) of the images of the
    points (k, 2) under every word of length m: rows lo x, lo y, hi x, hi y,
    columns in rank order.

    Word j w maps p to phi_j(sim_w(p)), so resolution m is phi_1..phi_r
    applied to the images at resolution m - 1 and concatenated in that
    order, which is rank order. Each map acts as a x + b y + t with its row
    of ifs.coefficients. Levels below m_max are built whole.
    The last holds (r - 1)/r of all parts; its images are reduced to boxes
    one map and one block of _BLOCK_PARTS parent parts at a time, in small
    scratch buffers with the same operations in the same order, and are
    never held whole.
    """
    steps = ifs.coefficients.tolist()
    x, y = np.asarray(points, dtype=float).T[:, :, None]
    yield _boxes(x, y)
    if m_max == 0:
        return
    for _ in range(m_max - 1):
        # x is built before y, so only one coordinate's r pieces are alive at once
        x, y = (
            np.concatenate([a * x + b * y + tx for a, b, _, _, tx, _ in steps], axis=1),
            np.concatenate([c * x + d * y + ty for _, _, c, d, _, ty in steps], axis=1),
        )
        yield _boxes(x, y)
    k, n = x.shape
    out = np.empty((4, len(steps) * n))
    width = min(n, _BLOCK_PARTS)
    image, term = np.empty((k, width)), np.empty((k, width))
    for j, (a, b, c, d, tx, ty) in enumerate(steps):
        for start in range(0, n, width):
            stop = min(start + width, n)
            xs, ys, cols = x[:, start:stop], y[:, start:stop], slice(j * n + start, j * n + stop)
            u, v = image[:, : stop - start], term[:, : stop - start]
            for row, (cx, cy, t) in enumerate(((a, b, tx), (c, d, ty))):
                np.add(np.multiply(xs, cx, out=u), np.multiply(ys, cy, out=v), out=u)
                u += t
                u.min(axis=0, out=out[row, cols])
                u.max(axis=0, out=out[row + 2, cols])
    del x, y, xs, ys  # the images: only the boxes are yielded
    yield out


def _level(m: int, r: int, boxes: np.ndarray) -> Level:
    """The Level of boxes (4, n); the sides are written over the hi rows."""
    lo, hi = boxes[:2], boxes[2:]
    np.subtract(hi, lo, out=hi)
    return Level(m, r, lo.T, np.maximum(hi[0], hi[1], out=hi[0]))


def iter_levels(ifs: OrderedIFS, m_max: int) -> Iterator[Level]:
    """Resolutions 0..m_max in turn, each part the bounding square of its
    base vertices' images. Every level is checked against the budget before
    this returns, and a level is built only when the next one is asked for:
    a caller that keeps one level at a time holds at most the boxes of two
    levels and the vertex images of the one before the last."""
    if m_max < 0:
        raise ValueError(f"resolution must be >= 0, got {m_max}")
    check_level_budget(ifs.r, m_max)
    boxes = _part_boxes(ifs, ifs.base_vertices(), m_max)
    return (_level(m, ifs.r, b) for m, b in enumerate(boxes))


def images_under_words(ifs: OrderedIFS, point: np.ndarray, m: int) -> np.ndarray:
    """Images (r^m, 2) of one point under every word of length m, in rank
    order, after the budget check: the boxes of one vertex."""
    check_level_budget(ifs.r, m)
    for boxes in _part_boxes(ifs, [point], m):
        pass
    return np.stack(boxes[:2], axis=1)


def attractor_points(ifs: OrderedIFS, depth: int) -> np.ndarray:
    """The fixed point of phi_1 under every word of the given depth.

    One point per depth-level part, in rank order, each on the attractor up
    to rounding, after the check against part_budget().
    """
    if depth < 1:
        raise ValueError(f"depth must be >= 1, got {depth}")
    first = ifs.maps[0]
    fixed = np.linalg.solve(np.eye(2) - first.matrix(), np.asarray(first.shift))
    return images_under_words(ifs, fixed, depth)
