"""Multi-index, single-part, vertex-array and whole-level references for the
rank-indexed levels."""

from dataclasses import dataclass

import numpy as np

from orderedcover.geometry import GEOM_TOL, InvalidIndexError, Level, OrderedIFS, Similarity


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

    rank = sum_j (i_j - 1) * r^(m - j), a bijection onto {0, ..., r^m - 1};
    geometry.lex_unrank is its inverse.
    """
    rank = 0
    for i in index.entries:
        rank = rank * index.arity + (i - 1)
    return rank


def apply(sim: Similarity, points: np.ndarray) -> np.ndarray:
    """sim applied to one point (2,) or a stack of points (..., 2), as one
    small matrix product with Similarity.matrix()."""
    return np.asarray(points, dtype=float) @ sim.matrix().T + np.asarray(sim.shift)


def leaves_base(points: np.ndarray, vertices: np.ndarray) -> bool:
    """Whether any of the points (k, 2) lies more than GEOM_TOL outside an
    edge of the convex polygon of these counter-clockwise vertices, by its
    depth along each edge's inward unit normal."""
    edges = np.roll(vertices, -1, axis=0) - vertices
    inward = np.stack([-edges[:, 1], edges[:, 0]], axis=1) / np.hypot(*edges.T)[:, None]
    depth = ((np.asarray(points)[:, None] - vertices) * inward).sum(axis=2)  # (point, edge)
    return bool((depth < -GEOM_TOL).any())


def compose_part(ifs: OrderedIFS, index: MultiIndex) -> tuple[np.ndarray, float]:
    """Bounding square (corner, side) of the base under phi_{i_1} o ... o phi_{i_m}.

    The maps act on the base vertices innermost first, each through apply.
    """
    if index.arity != ifs.r:
        raise InvalidIndexError(f"index arity {index.arity} != system arity {ifs.r}")
    vertices = ifs.base_vertices()
    for i in reversed(index.entries):
        vertices = apply(ifs.maps[i - 1], vertices)
    lo = vertices.min(axis=0)
    return lo, float((vertices.max(axis=0) - lo).max())


def reference_images(ifs: OrderedIFS, points: np.ndarray, m: int) -> np.ndarray:
    """Images (r^m, k, 2) of the points (k, 2) under every word of length m.

    Each map acts on the whole (n, k, 2) array of the previous length as
    a x + b y + t per coordinate, with the entries of Similarity.matrix();
    the r images are stacked along the first axis in map order.
    """
    images = np.asarray(points, dtype=float)[None]
    for _ in range(m):
        x, y = images[..., 0], images[..., 1]
        steps = []
        for sim in ifs.maps:
            (a, b), (c, d) = sim.matrix().tolist()
            tx, ty = sim.shift
            steps.append(np.stack([a * x + b * y + tx, c * x + d * y + ty], axis=-1))
        images = np.concatenate(steps)
    return images


def reference_levels(ifs: OrderedIFS, m_max: int) -> list[Level]:
    """Resolutions 0..m_max with each box reduced over the vertex axis."""
    out = []
    for m in range(m_max + 1):
        vertices = reference_images(ifs, ifs.base_vertices(), m)
        lo = vertices.min(axis=1)
        out.append(Level(m, ifs.r, lo, (vertices.max(axis=1) - lo).max(axis=1)))
    return out


def whole_level_boxes(ifs: OrderedIFS, points: np.ndarray, m_max: int) -> list[np.ndarray]:
    """Boxes (4, r^m) for m = 0..m_max: rows lo x, lo y, hi x, hi y of the
    images of the points (k, 2) under every word of length m, in rank order.

    Every level is built whole as x and y columns (k, r^m): phi_1..phi_r
    applied to the previous level as a x + b y + t, with the entries of
    Similarity.matrix(), and concatenated in map order. A box is the min
    and max of its column.
    """
    steps = [(*sim.matrix().ravel().tolist(), *sim.shift) for sim in ifs.maps]
    x, y = np.asarray(points, dtype=float).T[:, :, None]
    out = []
    for m in range(m_max + 1):
        if m:
            x, y = (
                np.concatenate([a * x + b * y + tx for a, b, _, _, tx, _ in steps], axis=1),
                np.concatenate([c * x + d * y + ty for _, _, c, d, _, ty in steps], axis=1),
            )
        out.append(np.stack([x.min(axis=0), y.min(axis=0), x.max(axis=0), y.max(axis=0)]))
    return out
