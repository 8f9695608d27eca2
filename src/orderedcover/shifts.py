"""Weighted shift powers on truncated sequence spaces, in log coordinates.

Everything is carried as (sign, log magnitude) pairs: the experiments push
shift powers up to a few hundred with weights like e^(x n), whose direct
evaluation overflows doubles. Signed addition goes through a stable
log-sum-exp; the backward/forward powers are exact index shifts plus
additions of cumulative log-weight differences.

The module covers the whole operator side of the pipeline: the weight
families, the d-fold product shifts T (backward) and S (forward, inverse
weights, a right inverse of T), the Lipschitz and summability checks, the
common-vector construction u = u_0 + sum_i S_{iN, lambda_i} v_t, and the
3-eta universality sweep over a tagged covering.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from . import geometry
from .tagging import BuilderParams, TaggedCovering, build_tagged_covering
from .separation import verify_separation

NEG_INF = float("-inf")
# Rows (tags, sample points) or table columns per array block: bounds temporaries.
_BLOCK = 64


# ---------------------------------------------------------------------------
# signed log-domain primitives


def slog_from_values(values: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    values = np.asarray(values, dtype=float)
    sign = np.sign(values)
    with np.errstate(divide="ignore"):
        logmag = np.where(sign == 0.0, NEG_INF, np.log(np.abs(np.where(sign == 0.0, 1.0, values))))
    return sign, logmag


def slog_to_values(sign: np.ndarray, logmag: np.ndarray) -> np.ndarray:
    return sign * np.exp(logmag)


def slog_add(
    s1: np.ndarray, a1: np.ndarray, s2: np.ndarray, a2: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Elementwise (s1 e^a1) + (s2 e^a2) back in (sign, logmag) form."""
    s1, a1 = np.asarray(s1, dtype=float), np.asarray(a1, dtype=float)
    s2, a2 = np.asarray(s2, dtype=float), np.asarray(a2, dtype=float)
    hi = np.maximum(a1, a2)
    lo = np.minimum(a1, a2)
    first_is_hi = a1 >= a2
    hi_sign = np.where(first_is_hi, s1, s2)
    lo_sign = np.where(first_is_hi, s2, s1)
    with np.errstate(invalid="ignore"):
        diff = np.where(np.isneginf(hi), NEG_INF, lo - hi)
    same = hi_sign * lo_sign >= 0.0
    with np.errstate(divide="ignore", invalid="ignore"):
        mag_same = hi + np.log1p(np.exp(diff))
        mag_opp = hi + np.log1p(-np.exp(diff))
    mag = np.where(same, mag_same, mag_opp)
    sign = np.where(np.isneginf(mag), 0.0, np.where(hi_sign != 0.0, hi_sign, lo_sign))
    # exact cancellation and zero operands
    sign = np.where(np.isneginf(a1) & np.isneginf(a2), 0.0, sign)
    mag = np.where(sign == 0.0, NEG_INF, mag)
    return sign, mag


def logsumexp(values: np.ndarray, axis: int | None = None) -> np.ndarray | float:
    values = np.asarray(values, dtype=float)
    hi = np.max(values, axis=axis, keepdims=True)
    hi = np.where(np.isneginf(hi), 0.0, hi)
    with np.errstate(divide="ignore"):  # an all -inf row sums to 0; its log, -inf, is right
        out = np.log(np.sum(np.exp(values - hi), axis=axis, keepdims=True)) + hi
    out = np.where(np.isneginf(np.max(values, axis=axis, keepdims=True)), NEG_INF, out)
    return float(out) if axis is None else np.squeeze(out, axis=axis)


# ---------------------------------------------------------------------------
# weight families


@dataclass(frozen=True)
class WeightFamily:
    """Cumulative log-weight function f(x, n) = log(w_1(x) ... w_n(x)).

    alpha is the growth exponent; C0 certifies |f(x,n) - f(y,n)| <=
    C0 n^alpha |x - y| on the documented interval, C1/C2 certify
    w_1...w_n >= C1 exp(C2 n^alpha) there (defaults documented for [1, 2]).
    log_products(x, n_max) returns the table [f(x, 0), ..., f(x, n_max)], or
    for a 1-d array of x one such row per x.
    """

    name: str
    alpha: float
    C0: float
    C1: float
    C2: float
    log_products: Callable[[float | np.ndarray, int], np.ndarray]

    def weight(self, x: float, n: int) -> float:
        if n < 1:
            raise ValueError("weights start at n = 1")
        table = self.log_products(x, n)
        return math.exp(float(table[n] - table[n - 1]))


def rolewicz_family() -> WeightFamily:
    """Constant weights e^x: f(x, n) = x n (the classical scalar multiple)."""

    def table(x: float | np.ndarray, n_max: int) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., None] * np.arange(n_max + 1, dtype=float)

    return WeightFamily("rolewicz", 1.0, 1.0, 1.0, 1.0, table)


def power_family(alpha: float) -> WeightFamily:
    """f(x, n) = x n^alpha: the exactly-C0=1 Lipschitz family."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")

    def table(x: float | np.ndarray, n_max: int) -> np.ndarray:
        return np.asarray(x, dtype=float)[..., None] * np.arange(n_max + 1, dtype=float) ** alpha

    return WeightFamily(f"power:{alpha}", alpha, 1.0, 1.0, 1.0, table)


def plus_power_family(alpha: float) -> WeightFamily:
    """w_n(x) = 1 + x / n^(1-alpha); C0 = 1/alpha since sum k^(alpha-1) <= n^alpha / alpha."""
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must be in (0, 1]")

    def table(x: float | np.ndarray, n_max: int) -> np.ndarray:
        x = np.asarray(x, dtype=float)[..., None]
        out = np.zeros(x.shape[:-1] + (n_max + 1,))
        increments = x / np.arange(1, n_max + 1, dtype=float) ** (1.0 - alpha)
        np.cumsum(np.log1p(increments, out=increments), axis=-1, out=out[..., 1:])
        return out

    return WeightFamily(f"plus-power:{alpha}", alpha, 1.0 / alpha, 1.0, alpha, table)


def weight_family(name: str, alpha: float | None = None) -> WeightFamily:
    if name == "rolewicz":
        return rolewicz_family()
    if name == "power":
        if alpha is None:
            raise ValueError("power family needs alpha")
        return power_family(alpha)
    if name == "plus-power":
        if alpha is None:
            raise ValueError("plus-power family needs alpha")
        return plus_power_family(alpha)
    raise KeyError(name)


# ---------------------------------------------------------------------------
# truncated vectors


@dataclass
class FiniteVector:
    """d-fold vector on coordinates 0..L in (sign, logmag) form.

    The d-fold norm is the max over factors; each factor norm is the sup
    norm by default, or a p-sum when norm_kind is a number.
    """

    sign: np.ndarray
    logmag: np.ndarray
    norm_kind: str | float = "sup"

    def __post_init__(self) -> None:
        self.sign = np.atleast_2d(np.asarray(self.sign, dtype=float))
        self.logmag = np.atleast_2d(np.asarray(self.logmag, dtype=float))
        if self.sign.shape != self.logmag.shape:
            raise ValueError("sign/logmag shape mismatch")

    @property
    def d(self) -> int:
        return self.sign.shape[0]

    @property
    def L(self) -> int:
        return self.sign.shape[1] - 1

    @classmethod
    def zeros(cls, d: int, L: int, norm_kind: str | float = "sup") -> "FiniteVector":
        return cls(np.zeros((d, L + 1)), np.full((d, L + 1), NEG_INF), norm_kind)

    @classmethod
    def basis(
        cls, d: int, L: int, position: int, value: float = 1.0, norm_kind: str | float = "sup"
    ) -> "FiniteVector":
        out = cls.zeros(d, L, norm_kind)
        if not 0 <= position <= L:
            raise ValueError("basis position outside 0..L")
        out.sign[:, position] = math.copysign(1.0, value) if value else 0.0
        out.logmag[:, position] = math.log(abs(value)) if value else NEG_INF
        return out

    @classmethod
    def from_values(cls, values: np.ndarray, norm_kind: str | float = "sup") -> "FiniteVector":
        sign, logmag = slog_from_values(np.atleast_2d(values))
        return cls(sign, logmag, norm_kind)

    def to_values(self) -> np.ndarray:
        return slog_to_values(self.sign, self.logmag)

    def copy(self) -> "FiniteVector":
        return FiniteVector(self.sign.copy(), self.logmag.copy(), self.norm_kind)

    def support_max(self) -> int:
        nz = np.nonzero(self.sign != 0.0)[1]
        return int(nz.max()) if nz.size else -1

    def plus(self, other: "FiniteVector") -> "FiniteVector":
        sign, logmag = slog_add(self.sign, self.logmag, other.sign, other.logmag)
        return FiniteVector(sign, logmag, self.norm_kind)

    def minus(self, other: "FiniteVector") -> "FiniteVector":
        sign, logmag = slog_add(self.sign, self.logmag, -other.sign, other.logmag)
        return FiniteVector(sign, logmag, self.norm_kind)

    def log_norm(self) -> float:
        if self.norm_kind == "sup":
            return float(self.logmag.max())
        p = float(self.norm_kind)
        per_factor = logsumexp(p * self.logmag, axis=1) / p
        return float(np.max(per_factor))

    def norm(self) -> float:
        return math.exp(self.log_norm())


# ---------------------------------------------------------------------------
# shift powers


def _weight_diffs(fam: WeightFamily, x: float, n: int, L: int) -> np.ndarray:
    """f(x, l+n) - f(x, l) for l = 0..L-n."""
    table = fam.log_products(x, L)
    return table[n : L + 1] - table[0 : L + 1 - n]


def backward_power(
    fam: WeightFamily, x: float, n: int, factor: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(B^n u)_l = e^(f(x,l+n) - f(x,l)) u_(l+n); coordinates past L-n vanish."""
    sign, logmag = factor
    L = len(sign) - 1
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return sign.copy(), logmag.copy()
    if n > L:
        return np.zeros(L + 1), np.full(L + 1, NEG_INF)
    w = _weight_diffs(fam, x, n, L)
    out_sign = np.concatenate([sign[n:], np.zeros(n)])
    out_logmag = np.concatenate([logmag[n:] + w, np.full(n, NEG_INF)])
    return out_sign, out_logmag


class TruncationOverflowError(RuntimeError):
    """A forward power would push support past the truncation length."""


def forward_power(
    fam: WeightFamily, x: float, n: int, factor: tuple[np.ndarray, np.ndarray]
) -> tuple[np.ndarray, np.ndarray]:
    """(F^n u)_(l+n) = e^(-(f(x,l+n) - f(x,l))) u_l, weights inverted."""
    sign, logmag = factor
    L = len(sign) - 1
    if n < 0:
        raise ValueError("n must be >= 0")
    if n == 0:
        return sign.copy(), logmag.copy()
    if n > L or (sign[L - n + 1 :] != 0.0).any():
        raise TruncationOverflowError(
            f"support would exceed L={L} after a forward power of {n}"
        )
    w = _weight_diffs(fam, x, n, L)
    out_sign = np.concatenate([np.zeros(n), sign[: L - n + 1]])
    out_logmag = np.concatenate([np.full(n, NEG_INF), logmag[: L - n + 1] - w])
    return out_sign, out_logmag


def product_apply(
    fam: WeightFamily,
    lam: Sequence[float],
    n: int,
    u: FiniteVector,
    direction: str,
) -> FiniteVector:
    """Apply the d-fold power: backward is T^n_lambda, forward is S^n_lambda."""
    if len(lam) != u.d:
        raise ValueError(f"parameter has {len(lam)} coordinates, vector has d={u.d}")
    if direction not in ("backward", "forward"):
        raise ValueError("direction must be 'backward' or 'forward'")
    op = backward_power if direction == "backward" else forward_power
    signs, logmags = [], []
    for j in range(u.d):
        s, a = op(fam, float(lam[j]), n, (u.sign[j], u.logmag[j]))
        signs.append(s)
        logmags.append(a)
    return FiniteVector(np.stack(signs), np.stack(logmags), u.norm_kind)


# ---------------------------------------------------------------------------
# condition checks


@dataclass(frozen=True)
class CS2Report:
    family: str
    measured: float
    certificate: float
    n_max: int
    samples: int
    passed: bool

    def to_record(self) -> dict:
        return {
            "family": self.family,
            "measured": self.measured,
            "certificate": self.certificate,
            "n_max": self.n_max,
            "samples": self.samples,
            "pass": self.passed,
        }


def check_cs2_lipschitz(
    fam: WeightFamily,
    interval: tuple[float, float],
    n_max: int = 1000,
    num_x: int = 21,
    extra_pairs: int = 200,
    seed: int = 0,
    rtol: float = 1e-9,
) -> CS2Report:
    """Measure sup |f(x,n) - f(y,n)| / (n^alpha |x - y|) against C0."""
    a, b = interval
    xs = list(np.linspace(a, b, num_x))
    rng = np.random.default_rng(seed)
    extra = a + (b - a) * rng.random(extra_pairs)
    xs.extend(float(v) for v in extra)
    xs = np.array(sorted(set(xs)))
    tables = fam.log_products(xs, n_max)[:, 1:]
    scale = np.arange(1, n_max + 1, dtype=float) ** fam.alpha
    measured = 0.0
    count = 0
    for i in range(len(xs) - 1):
        gaps = xs[i + 1 :] - xs[i]
        j = i + 1 + int(np.searchsorted(gaps, 1e-3))  # gaps grow: rows j.. qualify
        count += len(xs) - j
        for c in range(0, n_max, _BLOCK):  # column blocks keep temporaries small
            ratios = np.abs(tables[j:, c : c + _BLOCK] - tables[i, c : c + _BLOCK])
            ratios /= scale[c : c + _BLOCK] * gaps[j - i - 1 :, None]
            measured = max(measured, float(ratios.max(initial=0.0)))
    return CS2Report(
        family=fam.name,
        measured=measured,
        certificate=fam.C0,
        n_max=n_max,
        samples=count,
        passed=measured <= fam.C0 * (1.0 + rtol),
    )


def _pow(base, exponent: float):
    """base ** exponent by Python's float pow, elementwise over a 1-d array: numpy's
    ``**`` picks a vector kernel by CPU, and its last bit may differ from machine to machine."""
    if np.ndim(base) == 0:
        return base**exponent
    return np.fromiter((v**exponent for v in base.tolist()), float, len(base))


def cs1_envelope_closed_form(
    D: float,
    interval: tuple[float, float],
    alpha_g: float = 1.0,
    horizon: int | None = None,
    max_abs: float = 1.0,
) -> Callable[[float], float]:
    """log c_k for constant-weight families (f linear in n).

    sup over x, y admissible of x n - y (n + k) equals
    D n (k/(n+k))^alpha_g - a k, increasing in n. With alpha_g = 1 the
    n -> infinity limit (D - a) k exists; otherwise a finite horizon
    n <= horizon is required (the exponent pairing is then only
    finite-range summable). The envelope takes an int or an int array of k.
    """
    a = interval[0]
    log_m = math.log(max_abs) if max_abs > 0 else NEG_INF
    if horizon is None:
        if abs(alpha_g - 1.0) > 1e-12:
            raise ValueError("infinite-horizon closed form needs alpha_g = 1")

        def env(k):
            return (D - a) * k + log_m

        return env

    n_star = float(horizon)

    def env(k):
        return D * n_star * _pow(k / (n_star + k), alpha_g) - a * k + log_m

    return env


def _generic_envelopes(
    fam: WeightFamily,
    interval: tuple[float, float],
    support_max: int,
    max_abs: float,
    num_x: int = 17,
    table_len: int = 20000,
) -> Callable[[float], Callable[[float], float]]:
    """D -> the cs1_envelope_generic envelope. The x-grid tables are reduced once to
    the gain floor, min over x and l <= L of f(x, k+l) - f(x, l), kept with k^alpha."""
    a, b = interval
    L = support_max
    floor = np.full(table_len + 1, np.inf)
    for x in np.linspace(a, b, num_x):
        row = fam.log_products(float(x), table_len + L)
        for l in range(L + 1):
            np.minimum(floor, row[l : l + table_len + 1] - row[l], out=floor)
    k_alpha = np.fromiter((k**fam.alpha for k in range(table_len + 1)), float, table_len + 1)
    log_size = math.log((L + 1) * (max_abs + 1.0))

    def envelope(D: float) -> Callable[[float], float]:
        prefactor = log_size + 2.0 * fam.C0 * D * L**fam.alpha

        def env(k):
            ki = np.asarray(k).astype(int)
            if ki.max() > table_len:
                raise ValueError(f"envelope table too short for k={ki.max()}")
            out = prefactor + 2.0 * fam.C0 * D * k_alpha[ki] - floor[ki]
            return out if ki.ndim else float(out)

        return env

    return envelope


def cs1_envelope_generic(
    fam: WeightFamily,
    D: float,
    interval: tuple[float, float],
    support_max: int,
    max_abs: float = 1.0,
    num_x: int = 17,
    table_len: int = 20000,
) -> Callable[[float], float]:
    """log c_k from the Lipschitz-certificate template.

    log c_k = log((L+1)(M+1)) + 2 C0 D (L^alpha + k^alpha)
              - min over l <= L, x in I of (f(x, l+k) - f(x, l)).
    Valid for any shift count when fam.alpha <= the geometric exponent
    used to form D's premise. The envelope takes an int or an int array of k.
    """
    return _generic_envelopes(fam, interval, support_max, max_abs, num_x, table_len)(D)


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


# ---------------------------------------------------------------------------
# common-vector construction and universality sweep


@dataclass(frozen=True)
class DynamicsConfig:
    """Experiment shape: d factors on coordinates 0..L, parameters in
    interval^d, target accuracy eta, shift step bigN (a multiple of kappa)."""

    d: int
    interval: tuple[float, float]
    L: int
    eta: float
    kappa: int
    bigN: int
    norm_kind: str | float = "sup"

    def __post_init__(self) -> None:
        if self.eta <= 0:
            raise ValueError("eta must be positive")
        if self.d < 1 or self.L < 1 or self.kappa < 1 or self.bigN < 1:
            raise ValueError("d, L, kappa, bigN must be >= 1")
        if self.bigN % self.kappa != 0:
            raise ValueError("bigN must be a multiple of kappa")

    def to_record(self) -> dict:
        return {
            "d": self.d,
            "interval": [self.interval[0], self.interval[1]],
            "L": self.L,
            "eta": self.eta,
            "kappa": self.kappa,
            "bigN": self.bigN,
            "norm_kind": self.norm_kind,
        }


def tag_params(cov: TaggedCovering, d: int) -> np.ndarray:
    """Per-square operator parameters (q, d): the tags, truncated to d coordinates."""
    if d not in (1, 2):
        raise ValueError("tags provide at most two coordinates")
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
    envelope: Callable[[float], float] | None = None,
) -> tuple[FiniteVector, dict]:
    """u = u_0 + sum_{i=1..q} S_{iN, lambda_i} v_t, with a tail certificate.

    The certificate pairs the measured ||u - u_0|| with the envelope sum
    sum_i c_(iN) when an envelope is supplied.
    """
    if cfg.L < cov.q * cfg.bigN + max(vt.support_max(), 0):
        raise TruncationOverflowError(
            f"L={cfg.L} cannot hold q*N={cov.q * cfg.bigN} plus the target support"
        )
    params = tag_params(cov, cfg.d)
    _check_in_interval(params, cfg.interval)
    # S^(iN) v_t is v_t moved to iN + supp, scaled by e^-(f(x, l+iN) - f(x, l))
    supp = np.flatnonzero((vt.sign != 0.0).any(axis=0))
    ns = np.arange(1, cov.q + 1) * cfg.bigN
    w = np.empty((cov.q, cfg.d, len(supp)))
    for lo in range(0, cov.q, _BLOCK):
        lam, n = params[lo : lo + _BLOCK], ns[lo : lo + _BLOCK, None, None]
        top = int(n.max()) + max(vt.support_max(), 0)
        tab = fam.log_products(lam.ravel(), top).reshape(*lam.shape, -1)
        w[lo : lo + _BLOCK] = np.take_along_axis(tab, n + supp, 2) - tab[..., supp]
    cols = (ns[:, None] + supp).ravel()
    add_sign = np.tile(vt.sign[:, supp], cov.q)
    add_logmag = (vt.logmag[:, supp] - w).transpose(1, 0, 2).reshape(cfg.d, -1)
    # Terms meeting at one coordinate are added in order of i: round r adds
    # the r-th term at every coordinate that has one.
    order = np.argsort(cols, kind="stable")
    rank = np.empty_like(cols)
    rank[order] = np.arange(cols.size) - np.searchsorted(cols[order], cols[order])
    u = u0.copy()
    for r in range(int(rank.max(initial=-1)) + 1):
        at = rank == r
        c = cols[at]
        u.sign[:, c], u.logmag[:, c] = slog_add(
            u.sign[:, c], u.logmag[:, c], add_sign[:, at], add_logmag[:, at]
        )
    certificate: dict = {"measured_diff": u.minus(u0).norm()}
    if envelope is not None:
        certificate["envelope_sum"] = float(
            sum(math.exp(envelope(i * cfg.bigN)) for i in range(1, cov.q + 1))
        )
    return u, certificate


# Tag, corners, edge midpoints, center and two interior quarter points, in sides.
_BOX_OFFSETS = np.array(
    [[0, 0], [1, 0], [1, 1], [0, 1], [0.5, 0], [1, 0.5], [0.5, 1], [0, 0.5], [0.5, 0.5]]
    + [[0.25, 0.25], [0.75, 0.75]]
)


def box_sample_points(tag: np.ndarray, side: float, extra: np.ndarray | None = None) -> np.ndarray:
    """Tag, corners, edge midpoints, center, two interior quarter points of
    the square [tag, tag + side]^2, plus any extras landing inside it."""
    lo = np.asarray(tag, dtype=float)
    out = lo + side * _BOX_OFFSETS
    if extra is not None and len(extra):
        inside = ((extra >= lo - 1e-12) & (extra <= lo + side + 1e-12)).all(axis=1)
        out = np.concatenate([out, extra[inside]])
    return out


@dataclass(frozen=True)
class UniversalityReport:
    eta: float
    q: int
    samples: int
    min_samples_per_box: int
    worst_error: float
    worst_box: int
    worst_lambda: tuple[float, ...]
    passed: bool

    def to_record(self) -> dict:
        return {
            "eta": self.eta,
            "q": self.q,
            "samples": self.samples,
            "min_samples_per_box": self.min_samples_per_box,
            "worst_error": self.worst_error,
            "worst_box": self.worst_box,
            "worst_lambda": list(self.worst_lambda),
            "pass": self.passed,
        }


def _box_errors(
    u: FiniteVector, fam: WeightFamily, n: int, lam: np.ndarray, vt: FiniteVector
) -> np.ndarray:
    """||T^n_lambda u - v_t|| for every row lambda of lam (P, d), by blocks of rows.

    Only u's nonzero coordinates minus n and v_t's support (with coordinate 0,
    so no row is empty) can be nonzero. They take the elementwise steps of
    product_apply(...).minus(vt), so sup-norm errors are bitwise the same.
    """
    src = np.flatnonzero((u.sign != 0.0).any(axis=0))
    src = src[src >= n]
    v_cols = np.union1d(np.flatnonzero((vt.sign != 0.0).any(axis=0)), [0])
    v_src = np.minimum(v_cols + n, u.L)
    v_in = v_cols + n <= u.L
    u_sign = np.where(v_in, u.sign[:, v_src], 0.0)
    u_logmag = np.where(v_in, u.logmag[:, v_src], NEG_INF)
    on_v = np.isin(src - n, v_cols)
    top = int(max(src.max(initial=0), v_src.max()))
    out = []
    for lo in range(0, len(lam), _BLOCK):
        x = lam[lo : lo + _BLOCK]
        tab = fam.log_products(x.ravel(), top).reshape(*x.shape, -1)
        near = u_logmag + (np.take(tab, v_src, axis=2) - np.take(tab, v_cols, axis=2))
        _, near = slog_add(u_sign, near, -vt.sign[:, v_cols], vt.logmag[:, v_cols])
        shifted = np.take(tab, src, axis=2)
        shifted -= np.take(tab, src - n, axis=2)
        del tab
        shifted += u.logmag[:, src]
        shifted[..., on_v] = NEG_INF  # the difference with v_t is in near
        if u.norm_kind == "sup":
            log_norm = np.maximum(shifted.max(axis=(1, 2), initial=NEG_INF), near.max(axis=(1, 2)))
        else:
            p = float(u.norm_kind)
            both = np.concatenate([shifted, near], axis=2)
            log_norm = (logsumexp(p * both, axis=2) / p).max(axis=1)
        out.extend(math.exp(v) for v in log_norm.tolist())
    return np.array(out)


def verify_universality(
    u: FiniteVector,
    cov: TaggedCovering,
    fam: WeightFamily,
    cfg: DynamicsConfig,
    vt: FiniteVector,
    attractor_samples: np.ndarray | None = None,
) -> UniversalityReport:
    """Sweep ||T_{iN, lambda} u - v_t|| < 3 eta over samples of every box.

    The attractor samples are bucketed once per _BLOCK boxes: a box's
    samples lie in the union of its block's widened boxes, so
    box_sample_points filters only those, in their original order.
    """
    worst = -1.0
    worst_box = 0
    worst_lambda: tuple[float, ...] = ()
    total = 0
    min_per_box = None
    for start in range(0, cov.q, _BLOCK):
        tags, sides = cov.tags[start : start + _BLOCK], cov.sides[start : start + _BLOCK]
        near = attractor_samples
        if near is not None:
            # box_sample_points' own widened bounds, so no sample of a box is lost
            lo = (tags - 1e-12).min(axis=0)
            hi = (tags + sides[:, None] + 1e-12).max(axis=0)
            near = near[((near >= lo) & (near <= hi)).all(axis=1)]
        for i, (tag, side) in enumerate(zip(tags, sides), start=start + 1):
            pts = box_sample_points(tag, side, near)
            min_per_box = len(pts) if min_per_box is None else min(min_per_box, len(pts))
            total += len(pts)
            errs = _box_errors(u, fam, i * cfg.bigN, pts[:, : cfg.d], vt)
            j = int(np.argmax(errs))
            if errs[j] > worst:
                worst, worst_box = float(errs[j]), i
                worst_lambda = tuple(float(c) for c in pts[j, : cfg.d])
    return UniversalityReport(
        eta=cfg.eta,
        q=cov.q,
        samples=total,
        min_samples_per_box=min_per_box or 0,
        worst_error=worst,
        worst_box=worst_box,
        worst_lambda=worst_lambda,
        passed=worst < 3.0 * cfg.eta,
    )


# ---------------------------------------------------------------------------
# end-to-end runner


@dataclass(frozen=True)
class DynamicsReport:
    config: DynamicsConfig
    family: str
    fractal: str
    q: int
    sigma: float
    offset: tuple[float, float]
    D_scaled: float
    envelope_tail: float
    u_minus_u0: float
    universality: UniversalityReport
    cs2: CS2Report
    separation_ratio: float
    certificate: str
    passed: bool

    def to_record(self) -> dict:
        return {
            "config": self.config.to_record(),
            "family": self.family,
            "fractal": self.fractal,
            "q": self.q,
            "sigma": self.sigma,
            "offset": list(self.offset),
            "D_scaled": self.D_scaled,
            "envelope_tail": self.envelope_tail,
            "u_minus_u0": self.u_minus_u0,
            "universality": self.universality.to_record(),
            "cs2": self.cs2.to_record(),
            "separation_ratio": self.separation_ratio,
            "certificate": self.certificate,
            "pass": self.passed,
        }


def _envelope_tail(envelope: Callable[[float], float], start: int, stop: int = 20000) -> float:
    """sum of e^envelope(k), k = start, start+1, ..., up to the first term below
    1e-18 past start + 10, added in order. Logs come in blocks of doubling length;
    exp is monotone, so math.exp decides only logs within 1e-9 of log(1e-18).
    With no such term by stop, or a term past the float range, the tail is inf.
    """
    cut = math.log(1e-18)
    logs, lo, size = [], start, 64
    while lo <= stop:
        ks = np.arange(lo, min(lo + size, stop + 1))
        logs.append(envelope(ks))
        near = np.flatnonzero((ks > start + 10) & (logs[-1] < cut + 1e-9)).tolist()
        small = (m for m in near if logs[-1][m] < cut - 1e-9 or math.exp(logs[-1][m]) < 1e-18)
        end = next(small, None)
        if end is not None:
            logs[-1] = logs[-1][: end + 1]
            try:
                terms = np.fromiter(map(math.exp, np.concatenate(logs).tolist()), float)
            except OverflowError:
                return math.inf
            return float(np.cumsum(terms)[-1])
        lo, size = lo + size, 2 * size
    return math.inf


def run_dynamics_experiment(
    ifs,
    fam: WeightFamily,
    interval: tuple[float, float] = (1.0, 2.0),
    eta: float = 0.1,
    s: int = 1,
    d: int = 2,
    L_min: int = 200,
    norm_kind: str | float = "sup",
    cs2_budget: float = 0.8,
    tail_budget: float = 0.5,
    max_steps: int = 100,
    budget: int | None = None,
) -> DynamicsReport:
    """Full pipeline: covering -> scaling -> N selection -> u -> 3 eta sweep.

    The constant-weight family is allowed with any geometry through the
    finite-horizon closed-form envelope (exact for it); growth families
    require alpha <= 1/gamma, otherwise no summable bound exists and the
    run is refused.
    """
    alpha_g = 1.0 / ifs.gamma
    constant_weights = fam.name == "rolewicz"
    if not constant_weights and fam.alpha > alpha_g + 1e-12:
        raise ValueError(
            f"family exponent alpha={fam.alpha} exceeds 1/gamma={alpha_g:.6g}; "
            "no summable shift bound pairs this family with this covering"
        )
    a, b = interval
    if a <= 0:
        raise ValueError("interval must sit in the positive axis")

    cov_geo = build_tagged_covering(ifs, BuilderParams.from_stage(ifs, s, 1), budget=budget)
    q, t = cov_geo.q, cov_geo.t

    tags, sides = cov_geo.tags, cov_geo.sides
    lo = tags.min(axis=0)
    hi = (tags + sides[:, None]).max(axis=0)
    span = float((hi - lo).max())

    u0_support = 0
    vt_values = np.tile(np.array([1.0, 0.5, 0.25]), (d, 1))
    max_abs_vt = 1.0
    vt_support = vt_values.shape[1] - 1
    kappa = max(u0_support, vt_support) + 1

    c_pow_s_rho = float(ifs.rho * (ifs.r ** (-alpha_g)) ** s)
    eps = math.log1p(cs2_budget * eta / max_abs_vt)
    ii = np.arange(1, q + 1, dtype=float)

    if not constant_weights:
        envelopes = _generic_envelopes(fam, interval, vt_support, max_abs_vt)
    chosen = None
    for step in range(1, max_steps + 1):
        N = step * kappa
        # worst CS2 exponent: C0 * max_i (iN)^alpha_w * side_i, sides sigma-scaled
        shape = (ii * N) ** fam.alpha * (c_pow_s_rho / ii**alpha_g)
        sigma_cs2 = eps / (fam.C0 * float(shape.max()))
        sigma_fit = (b - a) / span
        sigma = min(sigma_cs2, 0.99 * sigma_fit)
        D_scaled = sigma * cov_geo.D
        if constant_weights:
            envelope = cs1_envelope_closed_form(
                D_scaled, interval, alpha_g, horizon=q * N, max_abs=max_abs_vt
            )
        else:
            envelope = envelopes(D_scaled)
        tail = _envelope_tail(envelope, N)
        if tail < tail_budget * eta and tail < eta:
            chosen = (N, sigma, D_scaled, envelope, tail)
            break
    if chosen is None:
        raise RuntimeError("no shift step gave a summable tail within the search range")
    N, sigma, D_scaled, envelope, tail = chosen

    offset = (a - sigma * lo[0], a - sigma * lo[1])
    scaled = cov_geo.affine_scaled(sigma, offset)
    sep = verify_separation(scaled)

    L = max(L_min, q * N + vt_support + 1)
    cfg = DynamicsConfig(
        d=d, interval=interval, L=L, eta=eta, kappa=kappa, bigN=N, norm_kind=norm_kind
    )
    u0 = FiniteVector.basis(d, L, 0, 1.0, norm_kind)
    vt = FiniteVector.zeros(d, L, norm_kind)
    vt.sign[:, : vt_support + 1], vt.logmag[:, : vt_support + 1] = slog_from_values(vt_values)

    u, cert = build_common_vector(scaled, fam, cfg, u0, vt, envelope)
    depth = min(cov_geo.s + t + 1, 12)
    level = geometry.levels(ifs, depth, budget)[-1]
    samples = level.corners + level.sides[:, None] / 2.0  # part box centres
    mapped = np.asarray(offset) + sigma * samples
    uni = verify_universality(u, scaled, fam, cfg, vt, mapped)
    cs2 = check_cs2_lipschitz(fam, interval, n_max=min(1000, L))

    passed = (
        uni.passed
        and cert["measured_diff"] < eta
        and sep.passed
        and cs2.passed
        and tail < eta
    )
    return DynamicsReport(
        config=cfg,
        family=fam.name,
        fractal=ifs.name,
        q=q,
        sigma=sigma,
        offset=(float(offset[0]), float(offset[1])),
        D_scaled=D_scaled,
        envelope_tail=tail,
        u_minus_u0=cert["measured_diff"],
        universality=uni,
        cs2=cs2,
        separation_ratio=sep.worst_ratio,
        certificate="finite-horizon" if constant_weights else "uniform",
        passed=passed,
    )
