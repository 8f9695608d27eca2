"""Dense views of shift vectors and single weights, a reference for the tests.

No pipeline step needs them: orderedcover.shifts keeps a FiniteVector as its
nonzero columns and reads weights as cumulative log-weight tables. The tests
build vectors from dense values, read them back on every coordinate, and
apply the literal one-weight recurrences.
"""

from __future__ import annotations

import math

import numpy as np

from orderedcover.shifts import NEG_INF, FiniteVector, WeightFamily


def from_values(values: np.ndarray) -> FiniteVector:
    """The vector of nonnegative values, (d, L + 1) or (L + 1,) for d = 1."""
    values = np.atleast_2d(np.asarray(values, dtype=float))
    if not (values >= 0.0).all():
        raise ValueError("vector entries must be >= 0")
    cols = np.flatnonzero((values > 0.0).any(axis=0))
    with np.errstate(divide="ignore"):
        return FiniteVector(cols, np.log(values[:, cols]), values.shape[1] - 1)


def dense(vec: FiniteVector) -> np.ndarray:
    """logmag on every coordinate 0..L, (d, L + 1)."""
    logmag = np.full((vec.d, vec.L + 1), NEG_INF)
    logmag[:, vec.cols] = vec.logmag
    return logmag


def weight(fam: WeightFamily, x: float, n: int) -> float:
    """w_n(x) = exp(f(x, n) - f(x, n - 1)), for n >= 1."""
    if n < 1:
        raise ValueError("weights start at n = 1")
    table = fam.log_products(x, n)
    return math.exp(float(table[n] - table[n - 1]))
