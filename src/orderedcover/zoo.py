"""Ready-made ordered systems and Holder curves with dyadic levels.

The planar systems are wired exactly as ordered iterated function systems
whose lexicographic part order traces the classical curve orderings
(arrowhead order on the gasket, pseudo-Hilbert order on the square, path
order on the Koch curve and on the eight-edge sausage seed); the unit
interval and a gap dust that fails adjacency on purpose complete the set.
A Holder curve is its vertex array in R^d, linear between equally spaced
parameters; its resolution m is the level of exact bounding squares over
its 2^m dyadic parameter intervals (``holder_levels``). Both are level
sources (see ``geometry``), and ``zoo_source`` looks either up by name.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from . import geometry
from .geometry import Level, OrderedIFS, Similarity

SQRT3 = math.sqrt(3.0)


def sierpinski_gasket(side: float = 1.0) -> OrderedIFS:
    """Gasket on the equilateral triangle of side `side`, barycenter at 0.

    Three ratio-1/2 maps in arrowhead order: the outer two reflect before
    rotating by +-pi/3 so consecutive images chain through edge midpoints.
    """
    if side <= 0:
        raise ValueError("side must be positive")
    ell = float(side)
    maps = (
        Similarity(0.5, math.pi / 3.0, True, (-ell / 4.0, -SQRT3 / 12.0 * ell)),
        Similarity(0.5, 0.0, False, (0.0, SQRT3 / 6.0 * ell)),
        Similarity(0.5, -math.pi / 3.0, True, (ell / 4.0, -SQRT3 / 12.0 * ell)),
    )
    return OrderedIFS(
        maps=maps,
        shape="triangle",
        corner=(-ell / 2.0, -SQRT3 / 6.0 * ell),
        side=ell,
        gamma=math.log(3.0) / math.log(2.0),
        rho=ell,
        name="sierpinski",
    )


def hilbert_square() -> OrderedIFS:
    """Unit square [-1/2,1/2]^2 split into quadrants in pseudo-Hilbert order."""
    maps = (
        Similarity(0.5, math.pi / 2.0, True, (-0.25, -0.25)),
        Similarity(0.5, 0.0, False, (-0.25, 0.25)),
        Similarity(0.5, 0.0, False, (0.25, 0.25)),
        Similarity(0.5, -math.pi / 2.0, True, (0.25, -0.25)),
    )
    return OrderedIFS(
        maps=maps,
        shape="square",
        corner=(-0.5, -0.5),
        side=1.0,
        gamma=2.0,
        rho=1.0,
        name="hilbert-square",
    )


def koch_curve() -> OrderedIFS:
    """Koch curve on the segment [0,1] with the 60-degree bump, ratio 1/3."""
    third = 1.0 / 3.0
    maps = (
        Similarity(third, 0.0, False, (0.0, 0.0)),
        Similarity(third, math.pi / 3.0, False, (third, 0.0)),
        Similarity(third, -math.pi / 3.0, False, (0.5, SQRT3 / 6.0)),
        Similarity(third, 0.0, False, (2.0 * third, 0.0)),
    )
    # rho: resolution-m boxes have side 3^-m * (|cos| + |sin|) at multiples
    # of pi/3, peaking at (1 + sqrt 3)/2.
    return OrderedIFS(
        maps=maps,
        shape="square",
        corner=(0.0, 0.0),
        side=1.0,
        gamma=math.log(4.0) / math.log(3.0),
        rho=(1.0 + SQRT3) / 2.0,
        name="koch",
    )


def minkowski_sausage() -> OrderedIFS:
    """Eight ratio-1/4 maps along the sausage seed on [0,1].

    The long middle edge counts double: maps 4 and 5 both point down, split
    at the axis crossing, keeping path order.
    """
    q = 0.25
    half_pi = math.pi / 2.0
    maps = (
        Similarity(q, 0.0, False, (0.0, 0.0)),
        Similarity(q, half_pi, False, (0.25, 0.0)),
        Similarity(q, 0.0, False, (0.25, 0.25)),
        Similarity(q, -half_pi, False, (0.5, 0.25)),
        Similarity(q, -half_pi, False, (0.5, 0.0)),
        Similarity(q, 0.0, False, (0.5, -0.25)),
        Similarity(q, half_pi, False, (0.75, -0.25)),
        Similarity(q, 0.0, False, (0.75, 0.0)),
    )
    side = 5.0 / 3.0
    return OrderedIFS(
        maps=maps,
        shape="square",
        corner=(-1.0 / 3.0, -5.0 / 6.0),
        side=side,
        gamma=1.5,
        rho=side,
        name="minkowski",
    )


def unit_interval() -> OrderedIFS:
    """Dyadic splitting of [0,1] embedded on the x-axis; the 1-D sanity system."""
    maps = (
        Similarity(0.5, 0.0, False, (0.0, 0.0)),
        Similarity(0.5, 0.0, False, (0.5, 0.0)),
    )
    return OrderedIFS(
        maps=maps,
        shape="square",
        corner=(0.0, 0.0),
        side=1.0,
        gamma=1.0,
        rho=1.0,
        name="unit-interval",
    )


def gap_dust() -> OrderedIFS:
    """Two ratio-1/4 maps with a gap: adjacency deliberately fails."""
    maps = (
        Similarity(0.25, 0.0, False, (0.0, 0.0)),
        Similarity(0.25, 0.0, False, (0.75, 0.0)),
    )
    return OrderedIFS(
        maps=maps,
        shape="square",
        corner=(0.0, 0.0),
        side=1.0,
        gamma=0.5,
        rho=1.0,
        name="gap-dust",
    )


@dataclass(frozen=True, eq=False)
class CurveEvaluator:
    """The polyline f: [0,1] -> R^d through vertices (n + 1, d) at the
    parameters k/n, with a Holder certificate.

    holder_beta/holder_rho certify ||f(x)-f(y)||_inf <= rho |x-y|^beta.
    breakpoints (n + 1,) holds the parameters k/n. f is linear between
    them, so its bounding box over an interval is that of the interval's
    ends and its inner vertices.

    A level source, as an ``OrderedIFS`` is: dyadic levels (r = 2), gamma =
    1/beta and rho = holder_rho for condition (i), and d the vertex width.
    """

    r = 2
    vertices: np.ndarray = field(repr=False)
    holder_beta: float
    holder_rho: float
    name: str = ""
    breakpoints: np.ndarray = field(init=False, repr=False)

    def __post_init__(self) -> None:
        geometry.check_positive(holder_beta=self.holder_beta, holder_rho=self.holder_rho)
        vertices = np.asarray(self.vertices, dtype=float)
        if vertices.ndim != 2 or 0 in vertices.shape or not np.isfinite(vertices).all():
            raise ValueError(f"vertices must be a finite (n + 1, d) array, got {vertices.shape}")
        object.__setattr__(self, "vertices", vertices)
        object.__setattr__(self, "breakpoints", np.linspace(0.0, 1.0, len(vertices)))

    def __call__(self, ts: np.ndarray) -> np.ndarray:
        ts = np.asarray(ts, dtype=float)
        return np.stack([np.interp(ts, self.breakpoints, v) for v in self.vertices.T], axis=-1)

    gamma = property(lambda self: 1.0 / self.holder_beta)
    rho = property(lambda self: self.holder_rho)
    d = property(lambda self: self.vertices.shape[1])

    def iter_levels(self, m_max: int) -> Iterator[Level]:
        return holder_levels(self, m_max)


def diagonal_curve() -> CurveEvaluator:
    """f(t) = (t, t): the Lipschitz sanity curve."""
    return CurveEvaluator([[0.0, 0.0], [1.0, 1.0]], 1.0, 1.0, "holder-diag")


def _chain_vertices(ifs: OrderedIFS, start: np.ndarray, end: np.ndarray, order: int) -> np.ndarray:
    """Entry points of all depth-`order` parts in lexicographic order, plus the exit.

    Valid for systems whose maps chain phi_j(end) = phi_(j+1)(start); the
    returned polyline then visits the parts in covering order with segments
    of equal length ratio^order * |end - start|.
    """
    return np.vstack([geometry.images_under_words(ifs, start, order), end])


def arrowhead_pseudo(order: int) -> CurveEvaluator:
    """Order-m arrowhead polyline through the gasket parts, uniform speed.

    beta = log2/log3; rho = 4: parameter intervals of length 3^-k map into
    at most two chained parts of box side 2^-k, and within one segment the
    slope 1 * (3/2)^p * |x-y|^(1-beta) collapses to |x-y|^beta since
    3^beta = 2.
    """
    if order < 1:
        raise ValueError("order must be >= 1")
    ifs = sierpinski_gasket(1.0)
    verts = ifs.base_vertices()
    vertices = _chain_vertices(ifs, verts[0], verts[1], order)
    beta = math.log(2.0) / math.log(3.0)
    return CurveEvaluator(vertices, beta, 4.0, f"arrowhead-pseudo:{order}")


def hilbert_pseudo(order: int) -> CurveEvaluator:
    """Order-m pseudo-Hilbert polyline; beta = 1/2, rho = 4."""
    if order < 1:
        raise ValueError("order must be >= 1")
    ifs = hilbert_square()
    start = np.array([-0.5, -0.5])
    end = np.array([0.5, -0.5])
    vertices = _chain_vertices(ifs, start, end, order)
    return CurveEvaluator(vertices, 0.5, 4.0, f"hilbert-pseudo:{order}")


def holder_levels(curve: CurveEvaluator, m_max: int) -> Iterator[Level]:
    """Bounding squares of f over the 2^m dyadic intervals, for m = 0..m_max in turn.

    Rank j of resolution m is the interval [j 2^-m, (j+1) 2^-m]. f is
    linear between its vertices, so its box there is exactly that of the two
    ends and the inner vertices strictly inside. Each side is at most
    rho * (2^-beta)^m by the Holder certificate. Every level is checked
    against the budget before this returns, and, as geometry.iter_levels
    does, a level is evaluated only when the next one is asked for.
    """
    if m_max < 0:
        raise ValueError(f"resolution must be >= 0, got {m_max}")
    geometry.check_level_budget(2, m_max)
    return (_holder_level(curve, m) for m in range(m_max + 1))


def _holder_level(curve: CurveEvaluator, m: int) -> Level:
    n, bp, bp_points = 2**m, curve.breakpoints[1:-1], curve.vertices[1:-1]
    ends = curve(np.arange(n + 1) * 0.5**m)
    lo, hi = np.minimum(ends[:-1], ends[1:]), np.maximum(ends[:-1], ends[1:])
    # fold each run of inner vertices into its interval; one on an
    # interval's left end repeats that end
    owner = (bp * n).astype(np.intp)
    first = np.flatnonzero(np.diff(owner, prepend=-1))
    rows = owner[first]
    lo[rows] = np.minimum(lo[rows], np.minimum.reduceat(bp_points, first))
    hi[rows] = np.maximum(hi[rows], np.maximum.reduceat(bp_points, first))
    # drop the end points before the sides are formed in hi's place: at most three
    # arrays of the level's size are live at once
    del ends
    return Level(m, 2, lo, np.subtract(hi, lo, out=hi).max(axis=1))


_SYSTEMS: dict[str, Callable[[], OrderedIFS]] = {
    "sierpinski": sierpinski_gasket,
    "hilbert-square": hilbert_square,
    "koch": koch_curve,
    "minkowski": minkowski_sausage,
    "unit-interval": unit_interval,
    "gap-dust": gap_dust,
}
IFS_NAMES = tuple(_SYSTEMS)


def zoo_source(name: str) -> OrderedIFS | CurveEvaluator:
    """Look up a named system or curve (see zoo_names); raises KeyError for unknown names,
    and for a curve order that is not a positive integer."""
    if name in _SYSTEMS:
        return _SYSTEMS[name]()
    if name == "holder-diag":
        return diagonal_curve()
    family, _, order = name.partition(":")
    builders = {"arrowhead-pseudo": arrowhead_pseudo, "hilbert-pseudo": hilbert_pseudo}
    if family in builders and order.isdecimal() and int(order) >= 1:
        return builders[family](int(order))
    raise KeyError(name)


def zoo_names() -> list[str]:
    return list(IFS_NAMES) + ["holder-diag", "arrowhead-pseudo:<order>", "hilbert-pseudo:<order>"]
