"""Weighted shift powers on truncated sequence spaces, in log coordinates.

Every vector is nonnegative and carried as log magnitudes: the experiments push
shift powers up to a few hundred with weights like e^(x n), whose direct
evaluation overflows doubles. The backward/forward powers are exact index
shifts plus additions of cumulative log-weight differences; the one
subtraction, T^n u - v_t at the near coordinates, is log |e^a - e^b|.

The module covers the whole operator side of the pipeline: the weight
families, the d-fold product shifts T (backward) and S (forward, inverse
weights, a right inverse of T), the Lipschitz and summability checks, the
common-vector construction u = u_0 + sum_i S_{iN, lambda_i} v_t, and the
3-eta universality certificate over a tagged covering. Norms are sup norms.
The covering comes from any level source, and its tags give the d factors'
parameters: d is at most 2 for a planar system, the vertex width for a curve.
Vectors keep only their nonzero columns. With u_0 and v_t below column N the
terms of u fill disjoint blocks iN + supp v_t, so u is placed, not summed: it
has at most 1 + q |supp v_t| columns, and a run holds O(q kappa) numbers
however long the truncation L is.

In every family f(x, n) rises in x, linearly or concavely, so both weight checks
are exact at the interval's left end a, with no x sampled: the CS2 constant is
max_n df/dx(a, n) / n^alpha, and the envelope's gain floor is read at x = a.

Every family also has f(x, 0) = 0 and, for x >= 0, log-weights f(x, k) - f(x, k-1)
that rise in x and do not rise in k. So coordinate l of factor k of T^n_lambda u - v_t,
u_(l+n) e^(f(lambda_k, l+n) - f(lambda_k, l)) - v_l, is monotone in lambda_k alone:
over a box [tag, tag + side]^d in x >= 0 the sup-norm error peaks at the corner tag
or the corner tag + side, in every d. And for 0 <= x <= x_hi and c >= n

    f(x, c) - f(x, c - n) <= f(x, n) <= f(x_hi, n),

so the shifted coordinate c of T^n u is at most u_c e^(f(x_hi, n)). The error
evaluates f only at index arrays: the near terms (coordinates 0 and v_t's support),
and each shifted column whose bound u_c + f(x_hi, n), plus a rounding margin,
reaches the smaller near-term maximum of its box's two corners, x_hi being the
upper corner. No skipped column can be a corner's maximum, so the sup is exact.
The build of u, the sweep and the gain floor read f through one _evaluator: x g(n) at
the asked columns for the laws linear in x, one cumulative row per x for plus-power.

The weight law chooses the envelope: f(x, n) = x n, constant weights e^x (rolewicz, or
power at alpha = 1), takes the finite-horizon closed form on any geometry; every other
law, plus-power at alpha = 1 with log-weight log(1 + x) too, takes the uniform one.

The N search takes the least step N = step kappa whose envelope tail is below
min(TAIL_BUDGET eta, eta). Its pass falls monotonically with N: sigma is
min(sigma_cs2, 0.99 sigma_fit) with sigma_cs2 proportional to N^-alpha, so D = sigma D_geo
does not rise with N. A growth envelope rises with D and its tail starts at k = N, so
the tail, a sum of fewer and no larger nonnegative terms, does not rise either. A
constant-weight envelope has horizon qN; where sigma_cs2 binds, D qN is constant and
(k / (qN + k))^alpha_g falls, so the tail falls too. Where sigma_fit binds, D is fixed and
the horizon grows, so those steps (small N, constant weights only) are tried in turn;
from the first step past them the search gallops (1, 2, 4, ... steps on) and bisects.

A tail is a certified upper bound: the head is summed in order up to the first term
below 1e-18 past start + 10 (at most HEAD_TERMS terms), and past the head's end K the
envelope's remainder is added. It rests on env(k) <= A - B m^beta for m = k + delta,
delta >= 0, with B > 0 and M = K + delta:

    sum_{k >= K} e^env(k) <= e^(A - B M^beta) + e^A (1/beta) B^(-1/beta) Gamma(1/beta, B M^beta),

the first term plus the integral of the decreasing bound, and Gamma(s, z) <= z^(s-1)
e^-z / (1 - (s-1)/z) for z > s - 1 (integrate by parts once). beta is alpha for the growth
families and 1 (a geometric series) for constant weights. Head plus remainder does not
rise with K, so a probe stops once its head reaches the limit (fail) or head plus
remainder falls below it (pass), on the side of the limit the whole tail is on.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .geometry import BudgetExceededError, Record, _pow
from .tagging import BuilderParams, TaggedCovering, build_tagged_covering
from .separation import verify_separation

NEG_INF = float("-inf")
# Cells (rows x factors x columns) of a row-chunked temporary, unless one row is wider.
_CELLS = 1 << 16
# run_dynamics_experiment: the least truncation length, and the shares of eta spent
# on the CS2 step and on the envelope tail.
L_MIN, CS2_BUDGET, TAIL_BUDGET = 200, 0.8, 0.5
# The most envelope terms a tail sums before it adds the remainder bound.
HEAD_TERMS = 1 << 22
# plus-power has no closed-form f(x, n): _evaluator's cumulative rows cost rows x factors
# x columns cells, the rows being the q terms of u and the 2q box corners, each row built
# once. A run needing more is refused: sierpinski at alpha = 0.1 needs 84% of it and
# takes 2.4 s at a 116 MB peak RSS on a 2-core x86-64 VM.
CUMULATIVE_BUDGET = 2**28


# ---------------------------------------------------------------------------
# weight families


@dataclass(frozen=True)
class WeightFamily:
    """Cumulative log-weight function f(x, n) = log(w_1(x) ... w_n(x)).

    alpha is the growth exponent; C0 certifies |f(x,n) - f(y,n)| <=
    C0 n^alpha |x - y| for x, y >= 0.
    log_products(x, n_max) returns the table [f(x, 0), ..., f(x, n_max)], or
    for an array of x one such row per x; dlog_products(x, n_max) returns
    [df/dx(x, 0), ..., df/dx(x, n_max)] for one x. A family linear in x,
    f(x, n) = x n^alpha, also gives g(n) = n^alpha at an int array of n. plus-power has
    no closed form, each f(x, n) being a running sum of log-weights, so its log_products
    also takes (out, start): it fills columns start..n_max of a table out, continuing that
    sum bit for bit, which lets _evaluator grow one row per x in place.
    """

    name: str
    alpha: float
    C0: float
    log_products: Callable[[float | np.ndarray, int], np.ndarray]
    dlog_products: Callable[[float, int], np.ndarray]
    g: Callable[[np.ndarray], np.ndarray] | None = None


def _linear_family(name: str, alpha: float) -> WeightFamily:
    """f(x, n) = x n^alpha, C0 = 1."""
    g = lambda n: np.asarray(n, dtype=float) ** alpha

    def table(x: float | np.ndarray, n_max: int) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., None] * g(np.arange(n_max + 1))

    slope = lambda x, n_max: _pow(np.arange(n_max + 1, dtype=float), alpha)
    return WeightFamily(name, alpha, 1.0, table, slope, g)


def rolewicz_family() -> WeightFamily:
    """Constant weights e^x: f(x, n) = x n, the linear law at alpha = 1."""
    return _linear_family("rolewicz", 1.0)


def power_family(alpha: float) -> WeightFamily:
    """f(x, n) = x n^alpha: the exactly-C0=1 Lipschitz family."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")
    return _linear_family(f"power:{alpha}", alpha)


def plus_power_family(alpha: float) -> WeightFamily:
    """w_n(x) = 1 + x / n^(1-alpha); C0 = 1/alpha since sum k^(alpha-1) <= n^alpha / alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")

    def table(x, n_max: int, out: np.ndarray | None = None, start: int = 0) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        out = np.empty(x.shape[:-1] + (n_max + 1,)) if out is None else out
        if start == 0:
            out[..., 0], start = 0.0, 1
        run = out[..., start - 1 : n_max + 1]  # the last value held, then the new log-weights
        k = np.arange(start, n_max + 1, dtype=float)
        k **= 1.0 - alpha
        np.log1p(np.divide(x, k, out=run[..., 1:]), out=run[..., 1:])
        np.cumsum(run, axis=-1, out=run)
        return out

    def slope(x: float, n_max: int) -> np.ndarray:
        k = _pow(np.arange(1, n_max + 1, dtype=float), 1.0 - alpha)
        k += x
        return np.concatenate([[0.0], np.cumsum(np.reciprocal(k, out=k), out=k)])

    return WeightFamily(f"plus-power:{alpha}", alpha, 1.0 / alpha, table, slope)


def weight_family(name: str, alpha: float | None = None) -> WeightFamily:
    if name == "rolewicz":
        if alpha is not None:
            raise ValueError("rolewicz weights take no alpha")
        return rolewicz_family()
    if name == "power":
        if alpha is None:
            raise ValueError("power family needs alpha")
        return power_family(alpha)
    if name == "plus-power":
        if alpha is None:
            raise ValueError("plus-power family needs alpha")
        return plus_power_family(alpha)
    raise ValueError(f"unknown weight family {name!r}; known: rolewicz, power, plus-power")


def _rows_per_chunk(cells_per_row: int) -> int:
    return max(1, _CELLS // max(cells_per_row, 1))


def _evaluator(fam: WeightFamily, x: np.ndarray, width: int = 1) -> Callable[..., np.ndarray]:
    """at(cols, rows=slice(None)) -> f(x[rows], cols) for x (R, d), of shape (R', d, K), bit
    for bit the entries of fam.log_products. cols is int (R', K), or a slice of K columns
    that every row reads, a view where f is held. Every reader of f in the build of u, the
    sweep and the gain floor goes through it. A family with g multiplies x by g at the
    columns only and holds no row. plus-power holds one cumulative row per x, width columns
    at first: each column is cumulated once, in place, and past the width the table moves
    to one just wide enough for the largest column asked for."""
    if fam.g is not None:

        def at(cols, rows=slice(None)):
            n = np.arange(cols.start, cols.stop) if isinstance(cols, slice) else cols[:, None]
            return x[rows, :, None] * fam.g(n)

        return at
    shape, filled = x.shape, 0
    table = np.empty(shape + (width,))

    def at(cols, rows=slice(None)):
        nonlocal table, filled
        run = isinstance(cols, slice)
        top = cols.stop - 1 if run else int(cols.max(initial=0))
        if top >= table.shape[-1]:  # a doubled table would hold up to twice the cells
            table = np.concatenate([table[..., :filled], np.empty(shape + (top + 1 - filled,))], -1)
        if top >= filled:
            fam.log_products(x, top, table, filled)
            filled = top + 1
        return table[rows, :, cols] if run else np.take_along_axis(table[rows], cols[:, None], 2)

    return at


def _row_width(fam: WeightFamily, top: int, k: int) -> int:
    """Cells per factor of a row of x in _evaluator, asked for k columns up to top."""
    return k if fam.g is not None else max(k, top + 1)


# ---------------------------------------------------------------------------
# truncated vectors


@dataclass
class FiniteVector:
    """Nonnegative d-fold vector on coordinates 0..L, kept as its nonzero columns:
    cols (n,) ascending and distinct, and logmag (d, n), the entries' logs, -inf for
    a factor that is zero at a column. Normed by its largest entry (the max over
    factors of the factors' sup norms)."""

    cols: np.ndarray
    logmag: np.ndarray
    L: int

    @property
    def d(self) -> int:
        return self.logmag.shape[0]

    @classmethod
    def basis(cls, d: int, L: int, position: int, value: float = 1.0) -> "FiniteVector":
        if not 0 <= position <= L:
            raise ValueError("basis position outside 0..L")
        if not value > 0.0:
            raise ValueError(f"basis value must be > 0, got {value}")
        return cls(np.array([position]), np.full((d, 1), np.log(float(value))), L)

    def at(self, cols: np.ndarray) -> np.ndarray:
        """logmag at an int array of columns, (d,) + cols.shape."""
        if not len(self.cols):
            return np.full((self.d,) + cols.shape, NEG_INF)
        i = np.minimum(np.searchsorted(self.cols, cols), len(self.cols) - 1)
        return np.where(self.cols[i] == cols, self.logmag[:, i], NEG_INF)

    def support_max(self) -> int:
        nz = self.cols[(self.logmag > NEG_INF).any(axis=0)]
        return int(nz.max()) if nz.size else -1


# ---------------------------------------------------------------------------
# shift powers


class TruncationOverflowError(RuntimeError):
    """A forward power would push support past the truncation length."""


def product_apply(
    fam: WeightFamily,
    lam: Sequence[float],
    n: int,
    u: FiniteVector,
    direction: str,
) -> FiniteVector:
    """Apply the d-fold power to u's stored columns, with f(x, .) = fam.log_products(x, L)
    per factor. backward is T^n_lambda: column c >= n moves to c - n and gains
    f(x, c) - f(x, c - n); the others fall off. forward is S^n_lambda: column c moves to
    c + n and loses f(x, c + n) - f(x, c); support pushed past L is refused."""
    if len(lam) != u.d:
        raise ValueError(f"parameter has {len(lam)} coordinates, vector has d={u.d}")
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")
    if n < 0:
        raise ValueError("n must be >= 0")
    back = direction == "backward"
    if not back and (n > u.L or u.support_max() + n > u.L):
        raise TruncationOverflowError(f"support would exceed L={u.L} after a forward power of {n}")
    keep = u.cols >= n if back else u.cols <= u.L - n
    lo = u.cols[keep] - n if back else u.cols[keep]  # each entry moves between lo and lo + n
    table = np.stack([fam.log_products(float(x), u.L) for x in lam])
    gain, logmag = table[:, lo + n] - table[:, lo], u.logmag[:, keep]
    return FiniteVector(lo if back else lo + n, logmag + gain if back else logmag - gain, u.L)


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class CS2Report(Record):
    family: str
    measured: float
    certificate: float
    n_max: int
    samples: int
    passed: bool


def check_cs2_lipschitz(
    fam: WeightFamily, interval: tuple[float, float], n_max: int = 1000
) -> CS2Report:
    """The exact sup of |f(x,n) - f(y,n)| / (n^alpha |x - y|) over x != y in [a, b] and
    1 <= n <= n_max, against C0 (1 + 1e-9): f(., n) rises, linearly or concavely, so it is
    at x = y = a. An n_max below 0 is refused (ValueError); n_max = 0 passes vacuously.
    For f = x n^alpha the quotient is 1 at every n. Otherwise the scale n^alpha and the
    slopes take Python's float pow (_pow), so the measured sup is the same on every CPU."""
    a, b = interval
    if not a < b:
        raise ValueError(f"interval needs a < b, got [{a}, {b}]")
    if n_max < 0:
        raise ValueError(f"n_max must be >= 0, got {n_max}")
    if fam.g is not None:
        measured = 1.0 if n_max >= 1 else 0.0
    else:
        scale = _pow(np.arange(n_max + 1, dtype=float), fam.alpha)
        measured = float((fam.dlog_products(a, n_max)[1:] / scale[1:]).max(initial=0.0))
    return CS2Report(
        family=fam.name,
        measured=measured,
        certificate=fam.C0,
        n_max=n_max,
        samples=n_max,
        passed=measured <= fam.C0 * (1.0 + 1e-9),
    )


def _tail_bound(log_first: float, B: float, beta: float, M: float) -> float:
    """sum over m >= M of e^(A - B m^beta), given log_first = A - B M^beta: at most
    e^log_first (1 + M^(1-beta) / (beta B (1 - (1/beta - 1) / z))), z = B M^beta, the
    module docstring's bound; inf unless B > 0 and z > 1/beta - 1."""
    z = B * M**beta
    if not (B > 0.0 and z > 1.0 / beta - 1.0):
        return math.inf
    ratio = M ** (1.0 - beta) / (beta * B * (1.0 - (1.0 / beta - 1.0) / z))
    log_sum = log_first + math.log1p(ratio)
    return math.exp(log_sum) if log_sum < 709.0 else math.inf


def cs1_envelope_closed_form(
    D: float,
    interval: tuple[float, float],
    alpha_g: float,
    horizon: int,
    max_abs: float,
) -> Callable[[float], float]:
    """log c_k for constant-weight families (f linear in n), over shift counts n <= horizon.

    sup over x, y admissible of x n - y (n + k) equals
    D n (k/(n+k))^alpha_g - a k, increasing in n, so it is taken at n = horizon
    (the pipeline's qN); alpha_g <= 1 is required. The envelope takes an int or an
    int array of k. Its remainder(K, env(K)) bounds the sum of e^env(k) over k >= K:
    D n (k/(n+k))^alpha_g is concave in k for alpha_g <= 1, so past K env lies below
    its tangent at K, a geometric series.
    """
    if alpha_g > 1.0:
        raise ValueError("the finite-horizon tail bound needs alpha_g <= 1")
    a = interval[0]
    log_m = math.log(max_abs) if max_abs > 0 else NEG_INF
    n_star = float(horizon)

    def env(k):
        return D * n_star * _pow(k / (n_star + k), alpha_g) - a * k + log_m

    def remainder(K: int, log_K: float) -> float:
        slope = alpha_g * D * n_star**2 * (K / (n_star + K)) ** alpha_g / (K * (n_star + K))
        return _tail_bound(log_K, a - slope, 1.0, K)

    env.remainder = remainder
    return env


def _gain_floor(at: Callable[..., np.ndarray], base: np.ndarray, k: np.ndarray) -> np.ndarray:
    """min over l <= L of f(a, k+l) - f(a, l) at an int array k, for at an _evaluator of
    x = [[a]] and base = f(a, 0..L). Gains are sums of log-weights, which rise in x, so this
    is the floor over x >= a; they do not rise in n, so in exact arithmetic the min is at
    l = L, but computed gains round apart: the floor is the least of all L + 1. f(a, .) is
    read as one contiguous row from the least k on, as the tail asks for runs of k."""
    L, lo = len(base) - 1, int(k.min())
    row = at(slice(lo, int(k.max()) + L + 1))[0, 0]
    i = k - lo
    out = row[i + L] - base[L]
    for l in range(L):
        np.minimum(out, row[i + l] - base[l], out=out)
    return out


def _generic_envelopes(
    fam: WeightFamily,
    interval: tuple[float, float],
    support_max: int,
    max_abs: float,
) -> Callable[[float], Callable[[float], float]]:
    """D -> log c_k = log((L+1)(M+1)) + 2 C0 D (L^alpha + k^alpha) - min over l <= L,
    x in I of (f(x, l+k) - f(x, l)), for L = support_max, M = max_abs and an int or
    int array of k; valid for any shift count (a step N passed is ignored) when fam.alpha
    <= the geometric exponent of D's premise. A factory's envelopes share one row f(a, .).

    remainder(K, env(K)) bounds the terms from K on. Past K the floor F rises at least as
    s ((k + L + delta)^alpha - (K + L + delta)^alpha): exactly, with s = a and delta = 0,
    for f = x n^alpha; for plus-power with delta = 1 and s = a / (alpha (1 + a M^(alpha-1))),
    M = K + L + 1, since each log-weight log(1 + z) >= z / (1 + z) >= s alpha j^(alpha-1)
    for j >= M, and a sum of the decreasing j^(alpha-1) is at least its integral. With
    k^alpha <= (k + L + delta)^alpha that is env(k) <= A - (s - 2 C0 D) m^alpha for
    m = k + L + delta, the module docstring's bound with beta = alpha.
    """
    a, L, alpha, C0 = interval[0], support_max, fam.alpha, fam.C0
    log_size = math.log((L + 1) * (max_abs + 1.0))
    at = _evaluator(fam, np.array([[a]]))
    base = at(slice(0, L + 1))[0, 0]  # f(a, 0..L), the same for every k

    def envelope(D: float, N: int | None = None) -> Callable[[float], float]:
        prefactor = log_size + 2.0 * C0 * D * L**alpha

        def env(k):
            ki = np.asarray(k).astype(int)
            k1 = ki.reshape(-1)
            out = prefactor + 2.0 * C0 * D * k1.astype(float) ** alpha
            out -= _gain_floor(at, base, k1)
            return out.reshape(ki.shape) if ki.ndim else float(out[0])

        def remainder(K: int, log_K: float) -> float:
            if fam.g is not None:
                M, s = K + L, a
            else:
                M = K + L + 1
                s = a / (alpha * (1.0 + a * M ** (alpha - 1.0)))
            log_first = log_K + 2.0 * C0 * D * (M**alpha - K**alpha)
            return _tail_bound(log_first, s - 2.0 * C0 * D, alpha, M)

        env.remainder = remainder
        return env

    return envelope


# ---------------------------------------------------------------------------
# common-vector construction and universality certificate


@dataclass(frozen=True)
class DynamicsConfig(Record):
    """Experiment shape: d factors on coordinates 0..L, parameters in
    interval^d, target accuracy eta, shift step bigN (a multiple of kappa)."""

    d: int
    interval: tuple[float, float]
    L: int
    eta: float
    kappa: int
    bigN: int

    def __post_init__(self) -> None:
        check_dynamics_inputs(self.interval, self.eta)
        if self.d < 1 or self.L < 1 or self.kappa < 1 or self.bigN < 1:
            raise ValueError("d, L, kappa, bigN must be >= 1")
        if self.bigN % self.kappa != 0:
            raise ValueError("bigN must be a multiple of kappa")


def tag_params(cov: TaggedCovering, d: int) -> np.ndarray:
    """Per-square operator parameters (q, d): the tags, truncated to d coordinates."""
    if not 1 <= d <= cov.tags.shape[1]:
        raise ValueError(f"d must be in 1..{cov.tags.shape[1]}, the tags' width, got {d}")
    return cov.tags[:, :d]


def _check_in_interval(points: np.ndarray, interval: tuple[float, float]) -> None:
    a, b = interval
    inside = ((points >= a - 1e-12) & (points <= b + 1e-12)).all(axis=1)
    if not inside.all():
        p = tuple(points[np.argmin(inside)].tolist())
        raise ValueError(f"parameter {p} escapes interval [{a}, {b}]")


def build_common_vector(
    cov: TaggedCovering,
    fam: WeightFamily,
    cfg: DynamicsConfig,
    u0: FiniteVector,
    vt: FiniteVector,
) -> FiniteVector:
    """u = u_0 + sum_{i=1..q} S_{iN, lambda_i} v_t: u_0's entries, then q |supp v_t|
    more. S^(iN) v_t is v_t moved to iN + supp, scaled by e^-(f(x, l+iN) - f(x, l)).
    A u_0 or v_t reaching column N is refused; below it no two terms meet, so each
    entry is placed, in column order, and none is added."""
    if max(u0.cols.max(initial=-1), vt.cols.max(initial=-1)) >= cfg.bigN:
        raise ValueError(f"u_0 and v_t must lie below column N={cfg.bigN}")
    if cfg.L < cov.q * cfg.bigN + max(vt.support_max(), 0):
        raise TruncationOverflowError(
            f"L={cfg.L} cannot hold q*N={cov.q * cfg.bigN} plus the target support"
        )
    params = tag_params(cov, cfg.d)
    _check_in_interval(params, cfg.interval)
    supp = vt.cols
    cols = np.arange(1, cov.q + 1)[:, None] * cfg.bigN + supp
    both = np.concatenate([cols, np.broadcast_to(supp, cols.shape)], axis=1)
    w, top = np.empty((cov.q, cfg.d, len(supp))), int(both.max(initial=0))
    step = _rows_per_chunk(cfg.d * _row_width(fam, top, both.shape[1]))
    for r in range(0, cov.q, step):
        f = _evaluator(fam, params[r : r + step], top + 1)(both[r : r + step])
        w[r : r + step] = f[..., : len(supp)] - f[..., len(supp) :]
    add_logmag = (vt.logmag - w).transpose(1, 0, 2).reshape(cfg.d, -1)
    logmag = np.concatenate([u0.logmag, add_logmag], axis=1)
    return FiniteVector(np.concatenate([u0.cols, cols.ravel()]), logmag, cfg.L)


@dataclass(frozen=True)
class UniversalityReport(Record):
    """The two-corner certificate: samples counts corners, two per box; it passes
    when the largest corner error, worst_error, times e^rounding_margin is below 3 eta."""

    eta: float
    q: int
    samples: int
    rounding_margin: float
    worst_error: float
    worst_box: int
    worst_lambda: tuple[float, ...]
    passed: bool


def _rounding_margin(top: int, scale: float) -> float:
    """A bound on the rounding of u_c + f(x, c) - f(x, c - n) and of u_c + f(x_hi, n)
    for columns up to top and logs up to scale in size: each f is a sum of at most
    top terms, each rounded, and the differences and bounds round a few times more."""
    return (3 * top + 32) * 2.0**-53 * scale


def _log_abs_diff(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """log |e^a - e^b| elementwise: -inf where a = b, two -inf operands included, and
    the other operand where one is -inf."""
    hi, lo = np.maximum(a, b), np.minimum(a, b)
    with np.errstate(divide="ignore", invalid="ignore"):
        return np.where(np.isneginf(hi), NEG_INF, hi + np.log1p(-np.exp(lo - hi)))


class _ShiftErrors:
    """log ||T^n_lambda u - v_t|| at the two corners lo <= hi of boxes in lambda >= 0.

    Coordinate l of T^n u - v_t is a near term when l is 0 or in v_t's support,
    and the shifted term e^(f(x, c) - f(x, c - n)) u_c, c = l + n, otherwise.
    Near terms are evaluated at both corners; a shifted entry of u only if its
    bound (module docstring) reaches the smaller near-term maximum of its box's
    corners, so no skipped term can be a corner's maximum and every error is
    exact. That test reads u_c >= need = floor - gain, gain being f(x_hi, n) plus
    the margin; it rounds once, as u_c + gain >= floor would. A box's scan stops
    where the suffix maximum of u's logs falls below its need in every factor.
    The steps are the elementwise steps of product_apply(...) and then
    _log_abs_diff against v_t.
    """

    def __init__(self, u: FiniteVector, fam: WeightFamily, vt: FiniteVector) -> None:
        self.u, self.fam, self.C0, self.alpha = u, fam, fam.C0, fam.alpha
        self.v_cols = np.union1d(vt.cols[(vt.logmag > NEG_INF).any(axis=0)], [0])
        self.v_log = vt.at(self.v_cols)
        # the largest log of entries i.. per factor, negated so that it rises
        self.neg_suffix = -np.maximum.accumulate(u.logmag[:, ::-1], axis=1)[:, ::-1]
        self.log_scale = 1.0 + float(np.abs(u.logmag[np.isfinite(u.logmag)]).max(initial=0.0))

    def margin(self, x_max: float) -> float:
        """_rounding_margin for coordinates up to x_max in size: logs stay below the
        scale, as |f(x, n)| <= C0 n^alpha |x| with f(0, n) = 0."""
        return _rounding_margin(self.u.L, self.log_scale + self.C0 * x_max * self.u.L**self.alpha)

    def log_errors(self, lo: np.ndarray, hi: np.ndarray, ns: np.ndarray) -> np.ndarray:
        """Corners lo <= hi (B, d) at shifts ns (B,): the logs (B, 2) at lo and at hi."""
        u, v, L, fam = self.u, self.v_cols, self.u.L, self.fam
        lam = np.stack([lo, hi], axis=1).reshape(-1, lo.shape[1])
        at = _evaluator(fam, lam, L + 1)  # plus-power: one row per corner for every read
        row_ns = np.repeat(ns, 2)
        v_src = v + row_ns[:, None]
        near_cols = np.concatenate([np.minimum(v_src, L), np.broadcast_to(v, v_src.shape)], axis=1)
        f = at(near_cols)
        near = u.at(v_src).transpose(1, 0, 2)
        near += f[..., : len(v)] - f[..., len(v) :]
        near = _log_abs_diff(near, self.v_log)
        near_max = near.max(axis=(1, 2))

        # A shifted column lies below u_c + f(hi, n) + margin; past L there is none.
        floor = near_max.reshape(-1, 2).min(axis=1)
        margin = self.margin(float(np.abs(lam).max()))
        gain = f[1::2, :, 0] + margin  # v holds 0: the first near column is min(n, L)
        cand, real = self._candidates(ns, floor[:, None] - gain)

        box = np.arange(len(lam)) // 2
        k = cand.shape[1]
        log_norm = np.empty(len(lam))
        step = _rows_per_chunk(lam.shape[1] * (2 * k + len(v)))
        for r in range(0, len(lam), step):
            rows = slice(r, r + step)
            e, ok = cand[box[rows]], real[box[rows]]
            c = u.cols[e]
            back = np.where(ok, c - row_ns[rows, None], 0)
            f = at(np.concatenate([c, back], axis=1), rows)
            shifted = f[..., :k]
            shifted -= f[..., k:]
            shifted += u.logmag[:, e].transpose(1, 0, 2)
            shifted = np.where(ok[:, None], shifted, NEG_INF)
            log_norm[rows] = np.maximum(shifted.max(axis=(1, 2), initial=NEG_INF), near_max[rows])
        return log_norm.reshape(-1, 2)

    def _candidates(self, n: np.ndarray, need: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Per box, the entries of u at columns c >= n, c - n off v_t's columns, with
        a log of at least need in some factor: (boxes, K) entry indices, padded with 0,
        and the mask of real ones. A box's run of entries starts at its first column
        c >= n and ends where the suffix maximum falls below need in every factor."""
        first = np.searchsorted(self.u.cols, n)
        ends = [np.searchsorted(s, -t, "right") for s, t in zip(self.neg_suffix, need.T)]
        run = np.maximum(np.max(ends, axis=0) - first, 0)
        box = np.repeat(np.arange(len(n)), run)
        entries = np.arange(len(box)) - (np.cumsum(run) - run)[box] + first[box]
        vals, cols = self.u.logmag[:, entries], self.u.cols[entries]
        hit = ((vals >= need[box].T) & (vals > NEG_INF)).any(axis=0)
        hit &= ~np.isin(cols - n[box], self.v_cols)
        box, entries = box[hit], entries[hit]
        count = np.bincount(box, minlength=len(n))
        cand = np.zeros((len(n), int(count.max(initial=0))), dtype=int)
        cand[box, np.arange(len(box)) - (np.cumsum(count) - count)[box]] = entries
        return cand, np.arange(cand.shape[1]) < count[:, None]


def verify_universality(
    u: FiniteVector, cov: TaggedCovering, fam: WeightFamily, cfg: DynamicsConfig, vt: FiniteVector
) -> UniversalityReport:
    """Certify ||T_{iN, lambda} u - v_t|| < 3 eta over every box [tag, tag + side]^d.

    Over a box in lambda >= 0 the error peaks at the corner tag or the corner
    tag + side (module docstring), so those two are its only rows. _ShiftErrors takes
    whole boxes in chunks of _CELLS cells, a corner's being d times its _row_width: the
    L + 1 columns of plus-power's row f(x, .), else its near terms. The run passes when
    the worst corner error times e^margin is below 3 eta, margin bounding the rounding of
    its logs. A box reaching below 0 is refused: there the corners need not bound the box.
    """
    lo = tag_params(cov, cfg.d)
    if lo.min() < 0.0:
        b = int(np.argmin(lo.min(axis=1)))
        raise ValueError(f"box {b + 1} at {tuple(lo[b].tolist())} reaches below 0")
    hi = lo + cov.sides[:, None]
    ns = np.arange(1, cov.q + 1) * cfg.bigN
    errors = _ShiftErrors(u, fam, vt)
    step, logs = _rows_per_chunk(2 * cfg.d * _row_width(fam, cfg.L, 2 * len(errors.v_cols))), []
    for b in range(0, cov.q, step):
        box = slice(b, b + step)
        logs += errors.log_errors(lo[box], hi[box], ns[box]).ravel().tolist()
    corners = np.stack([lo, hi], axis=1).reshape(-1, cfg.d)
    errs = [math.exp(v) for v in logs]
    j = int(np.argmax(errs))
    margin = errors.margin(float(corners.max()))
    return UniversalityReport(
        eta=cfg.eta,
        q=cov.q,
        samples=len(errs),
        rounding_margin=margin,
        worst_error=errs[j],
        worst_box=j // 2 + 1,
        worst_lambda=tuple(corners[j].tolist()),
        passed=errs[j] * math.exp(margin) < 3.0 * cfg.eta,
    )


# ---------------------------------------------------------------------------
# end-to-end runner


@dataclass(frozen=True)
class DynamicsReport(Record):
    config: DynamicsConfig
    family: str
    fractal: str
    q: int
    sigma: float
    offset: tuple[float, ...]
    D_scaled: float
    envelope_tail: float
    u_minus_u0: float
    universality: UniversalityReport
    cs2: CS2Report
    separation_ratio: float
    certificate: str
    passed: bool


def _envelope_tail(
    envelope: Callable[[float], float], start: int, limit: float = math.inf
) -> float:
    """A certified upper bound on the sum of e^envelope(k) over k >= start: the head,
    added in order up to the first term below 1e-18 past start + 10 or HEAD_TERMS
    terms, plus envelope.remainder at the first k past it. Logs come in blocks of
    doubling length, at most _CELLS, each with the log of the k after it for the
    remainder. A term or a sum past the float range gives inf.

    A probe with a limit returns early, on the side of the limit the whole bound is
    on: the head once it reaches the limit, or head plus remainder once that falls
    below it (module docstring).
    """
    total, lo, size = 0.0, start, 64
    while True:
        ks = np.arange(lo, min(lo + size, start + HEAD_TERMS) + 1)
        logs = envelope(ks)
        with np.errstate(over="ignore"):
            terms = np.exp(logs[:-1])
            small = np.flatnonzero((ks[:-1] > start + 10) & (terms < 1e-18))
            if small.size:
                terms = terms[: small[0] + 1]
            terms[0] += total  # the running sum goes on from total, in order
            total = float(np.cumsum(terms)[-1])
        lo += len(terms)
        if total >= limit:
            return total
        done = small.size > 0 or lo == start + HEAD_TERMS
        if done or limit < math.inf:
            bound = total + envelope.remainder(lo, float(logs[len(terms)]))
            if done or bound < limit:
                return bound
        size = min(2 * size, _CELLS)


def _least_step(passes: Callable[[int], bool], first: int, top: int) -> int | None:
    """The least step in 1..top at which passes holds, or None. Steps below first are
    tried in turn; from first on passes is monotone, so the probes gallop (the 1st,
    2nd, 4th, 8th, ... step from first) and then bisect."""
    for step in range(1, first):
        if passes(step):
            return step
    fail, ok = first - 1, first
    while not passes(ok):
        if ok == top:
            return None
        fail, ok = ok, min(2 * ok - first + 1, top)
    while ok - fail > 1:
        mid = (fail + ok) // 2
        fail, ok = (fail, mid) if passes(mid) else (mid, ok)
    return ok


def check_dynamics_inputs(interval: tuple[float, float], eta: float) -> None:
    """Raise ValueError unless the interval [A, B] has 0 < A < B < inf and eta is
    finite and > 0 (a nan fails every comparison)."""
    if not 0 < interval[0] < interval[1] < math.inf:
        raise ValueError(f"interval needs 0 < A < B < inf, got {list(interval)}")
    if not 0 < eta < math.inf:
        raise ValueError(f"eta must be positive and finite, got {eta}")


def run_dynamics_experiment(
    source,
    fam: WeightFamily,
    interval: tuple[float, float] = (1.0, 2.0),
    eta: float = 0.1,
    s: int = 1,
    d: int | None = None,
) -> DynamicsReport:
    """Full pipeline: covering -> scaling -> N selection -> u -> 3 eta certificate.

    source is a level source, an ordered system or a Holder curve. The weight law picks the
    certificate: f(x, n) = x n (constant weights e^x) takes the exact finite-horizon
    closed-form envelope on any geometry; any other law needs alpha <= 1/gamma, or no
    summable bound exists and the run is refused. The factor count d defaults to source.d (2
    for a planar system, the vertex width for a curve). Bad inputs (check_dynamics_inputs)
    and a d outside 1..source.d are refused first.
    """
    check_dynamics_inputs(interval, eta)
    d = source.d if d is None else d
    if not 1 <= d <= source.d:
        raise ValueError(f"d must be in 1..{source.d}, got {d}")
    alpha_g = 1.0 / source.gamma
    constant_weights = fam.g is not None and fam.alpha == 1.0  # f(x, n) = x n
    if not constant_weights and fam.alpha > alpha_g + 1e-12:
        raise ValueError(
            f"family exponent alpha={fam.alpha} exceeds 1/gamma={alpha_g:.6g}; "
            "no summable shift bound pairs this family with this covering"
        )
    a, b = interval

    params = BuilderParams.from_stage(source, s, 1)
    cov_geo = build_tagged_covering(source, params)
    q = cov_geo.q

    tags, sides = cov_geo.tags, cov_geo.sides
    lo = tags.min(axis=0)
    hi = (tags + sides[:, None]).max(axis=0)
    span = float((hi - lo).max())

    vt_values = np.tile(np.array([1.0, 0.5, 0.25]), (d, 1))
    max_abs_vt = float(np.abs(vt_values).max())
    vt_support = vt_values.shape[1] - 1
    kappa = vt_support + 1  # u_0 sits at column 0, inside vt's support

    eps = math.log1p(CS2_BUDGET * eta / max_abs_vt)
    ii = np.arange(1, q + 1, dtype=float)
    sigma_fit = (b - a) / span
    if constant_weights:
        envelopes = lambda D, N: cs1_envelope_closed_form(D, interval, alpha_g, q * N, max_abs_vt)
    else:  # one factory for every probe and the tail: they read one row f(a, .)
        envelopes = _generic_envelopes(fam, interval, vt_support, max_abs_vt)

    def sigma_cs2(N: int) -> float:
        # worst CS2 exponent: C0 * max_i (iN)^alpha_w * side_i, sides sigma-scaled
        return eps / (fam.C0 * float(((ii * N) ** fam.alpha * sides).max()))

    def scaled_envelope(N: int) -> tuple[float, float, Callable[[float], float]]:
        sigma = min(sigma_cs2(N), 0.99 * sigma_fit)
        D_scaled = sigma * cov_geo.D
        return sigma, D_scaled, envelopes(D_scaled, N)

    limit = min(TAIL_BUDGET * eta, eta)

    def passes(step: int) -> bool:
        return _envelope_tail(scaled_envelope(kappa * step)[2], kappa * step, limit) < limit

    # Columns stay below 2^53, where float64 holds every integer; plus-power's stay within
    # CUMULATIVE_BUDGET cells, a cap that refuses the run when no step below it passes.
    # Constant weights try the steps where sigma_fit binds in turn.
    columns = 2**53 if fam.g is not None else CUMULATIVE_BUDGET // (3 * q * d)
    top = (columns - kappa) // (q * kappa)
    first = math.ceil(sigma_cs2(kappa) / (0.99 * sigma_fit)) if constant_weights else 1
    step = _least_step(passes, max(1, min(first, top)), top) if top >= 1 else None
    if step is None and columns < 2**53:
        cells = 3 * q * d * (q * (top + 1) * kappa + kappa)
        raise BudgetExceededError(
            f"{cells} cumulative log-weight cells exceed budget {CUMULATIVE_BUDGET}"
        )
    if step is None:
        raise RuntimeError("no shift step below 2^53 columns gave a summable tail")
    N = step * kappa
    sigma, D_scaled, envelope = scaled_envelope(N)
    tail = _envelope_tail(envelope, N)
    del envelope, envelopes  # and with them the row f(a, .), before the sweep fills its own

    offset = tuple((a - sigma * lo).tolist())
    scaled = cov_geo.affine_scaled(sigma, offset)
    sep = verify_separation(scaled)

    L = max(L_MIN, q * N + vt_support + 1)
    cfg = DynamicsConfig(d=d, interval=interval, L=L, eta=eta, kappa=kappa, bigN=N)
    cs2 = check_cs2_lipschitz(fam, interval, n_max=L)  # its O(L) arrays go before u's rows
    u0 = FiniteVector.basis(d, L, 0, 1.0)
    vt = FiniteVector(np.arange(vt_support + 1), np.log(vt_values), L)

    u = build_common_vector(scaled, fam, cfg, u0, vt)
    # the terms of u follow u_0's entries and never meet them
    u_minus_u0 = math.exp(float(u.logmag[:, len(u0.cols) :].max(initial=NEG_INF)))
    uni = verify_universality(u, scaled, fam, cfg, vt)

    passed = uni.passed and u_minus_u0 < eta and sep.passed and cs2.passed and tail < eta
    return DynamicsReport(
        config=cfg,
        family=fam.name,
        fractal=source.name,
        q=q,
        sigma=sigma,
        offset=offset,
        D_scaled=D_scaled,
        envelope_tail=tail,
        u_minus_u0=u_minus_u0,
        universality=uni,
        cs2=cs2,
        separation_ratio=sep.worst_ratio,
        certificate="finite-horizon" if constant_weights else "uniform",
        passed=passed,
    )
