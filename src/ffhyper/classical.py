"""Classical (complex-valued) Lauricella F_D series and identity checks.

The truncated multiseries

    F_D^(n)(a; b_1..b_n; c | x_1..x_n)
        = sum_{m_1..m_n >= 0} (a)_{m_1+..+m_n} prod_j (b_j)_{m_j}
          / (c)_{m_1+..+m_n} * prod_j x_j^{m_j} / m_j!

is evaluated in two stages, so the cost is polynomial in n*M rather than M^n:
`_coeffs` convolves the per-slot columns (b_j)_m x_j^m / m! into w_S, the
coefficient of total degree S, which depends only on (b, x, M); then w is
dotted with the ratios (a)_S/(c)_S of `_ratios`.  `fd_series` is the two in
turn.  Truncation at m_j <= M per index leaves a tail bounded by a geometric
series in max|x_j| < 1; at |x| <= 0.5 and M = 60 the tail is far below 1e-12.

check_* functions return the absolute residual |lhs - rhs| of one identity:
an integral formula (adaptive quadrature vs. series), a k-summation contracting
one slot, and the c = b_1+..+b_n reduction.  The first two reuse the stages:
the k-summation convolves the n-1 leading slots once and re-weights w for each
k, and the integral folds the fixed slots 3..n and the ratios (a)_S/(c)_S into
one length-(M+1) vector h once, so each quadrature node costs one column of
the merged slot and a dot product with h.  F_D^(0) is the empty product 1
here, matching the series; the finite-field module pins its own n=0 case to a
binomial instead.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace
from functools import reduce

from scipy.integrate import quad
from scipy.special import loggamma

from .errors import Diverged, DomainViolation

DEFAULT_M = 60
DEFAULT_K = 60
# scipy quad tolerances and subinterval limit of check_integral_formula
QUAD_EPSABS = QUAD_EPSREL = 1e-12
QUAD_LIMIT = 200


@dataclass(frozen=True)
class ClassicalFdParams:
    a: complex
    b: tuple[complex, ...]
    c: complex
    x: tuple[complex, ...]
    M: int = DEFAULT_M

    def __post_init__(self):
        object.__setattr__(self, "b", tuple(complex(v) for v in self.b))
        object.__setattr__(self, "x", tuple(complex(v) for v in self.x))
        object.__setattr__(self, "a", complex(self.a))
        object.__setattr__(self, "c", complex(self.c))
        for name, vals in (("a", [self.a]), ("b", self.b), ("c", [self.c]), ("x", self.x)):
            for v in vals:
                if not cmath.isfinite(v):  # NaN would pass every domain test below
                    raise ValueError(f"{name} must be finite, got {v}")
        if len(self.b) != len(self.x):
            raise ValueError("need len(b) == len(x)")
        if self.M < 1:
            raise ValueError("truncation M must be >= 1")
        c = self.c
        if abs(c.imag) < 1e-12 and c.real <= 0 and abs(c.real - round(c.real)) < 1e-12:
            raise DomainViolation(f"c = {c} is a non-positive integer")

    @property
    def n(self) -> int:
        return len(self.b)


def pochhammer(z: complex, k: int) -> complex:
    if k < 0:
        raise ValueError("pochhammer needs k >= 0")
    out = 1 + 0j
    for i in range(k):
        out *= z + i
    return out


def _convolve(a: list[complex], b: list[complex]) -> list[complex]:
    out = [0j] * (len(a) + len(b) - 1)
    for i, u in enumerate(a):
        if u != 0:
            for j, v in enumerate(b):
                out[i + j] += u * v
    return out


def _column(b: complex, x: complex, M: int) -> list[complex]:
    """(b)_m x^m / m! for m = 0..M."""
    col = [0j] * (M + 1)
    term = 1 + 0j
    for m in range(M + 1):
        col[m] = term
        term *= (b + m) * x / (m + 1)
    return col


def _coeffs(b: tuple[complex, ...], x: tuple[complex, ...], M: int) -> list[complex]:
    """w_S = sum over m_1+..+m_n = S of prod_j (b_j)_{m_j} x_j^{m_j} / m_j!;
    [1] for no slots."""
    cols = [_column(bj, xj, M) for bj, xj in zip(b, x)]
    return reduce(_convolve, cols) if cols else [1 + 0j]


def _ratios(a: complex, c: complex, length: int) -> list[complex]:
    """(a)_S / (c)_S for S = 0..length-1."""
    out = [1 + 0j] * length
    for S in range(length - 1):
        out[S + 1] = out[S] * ((a + S) / (c + S))
    return out


def _dot(u: list[complex], v: list[complex]) -> complex:
    """sum_i u_i v_i over the shorter length, summed in index order."""
    acc = 0j
    for ui, vi in zip(u, v):
        acc += ui * vi
    return acc


def fd_series(p: ClassicalFdParams) -> complex:
    for xj in p.x:
        if abs(xj) >= 1:
            raise Diverged(xj)
    w = _coeffs(p.b, p.x, p.M)
    return _dot(_ratios(p.a, p.c, len(w)), w)


def beta(x: complex, y: complex) -> complex:
    return cmath.exp(loggamma(x) + loggamma(y) - loggamma(x + y))


def check_integral_formula(p: ClassicalFdParams) -> float:
    """|B(b1,b2) F_D^(n) - integral of u^(b1-1)(1-u)^(b2-1) F_D^(n-1)| where the
    inner instance merges the first two slots along u x1 + (1-u) x2."""
    if p.n < 2:
        raise DomainViolation("integral formula needs n >= 2")
    b1, b2 = p.b[0], p.b[1]
    if b1.real < 1 or b2.real < 1:
        raise DomainViolation("quadrature restricted to Re(b1), Re(b2) >= 1")
    lhs = beta(b1, b2) * fd_series(p)
    x1, x2 = p.x[0], p.x[1]
    b12 = b1 + b2
    # The inner F_D^(n-1) is sum_i col_i(u) h_i, with col(u) the column of
    # (b1+b2, u x1 + (1-u) x2) and h_i = sum_j (a)_{i+j}/(c)_{i+j} w_j over the
    # coefficients w of the fixed slots 3..n: h is built once, not per node.
    w = _coeffs(p.b[2:], p.x[2:], p.M)
    ratios = _ratios(p.a, p.c, len(w) + p.M)
    h = [_dot(ratios[i:], w) for i in range(p.M + 1)]

    def integrand(u: float) -> complex:
        xu = u * x1 + (1 - u) * x2
        acc = 0j
        term = 1 + 0j  # (b1+b2)_m xu^m / m!
        for m, hm in enumerate(h):
            acc += hm * term
            term *= (b12 + m) * xu / (m + 1)
        return u ** (b1 - 1) * (1 - u) ** (b2 - 1) * acc

    rhs, _ = quad(integrand, 0.0, 1.0, epsabs=QUAD_EPSABS, epsrel=QUAD_EPSREL,
                  limit=QUAD_LIMIT, complex_func=True)
    return abs(lhs - rhs)


def check_ksum_formula(p: ClassicalFdParams, K: int = DEFAULT_K) -> float:
    """|F_D^(n) - sum_k (a)_k (b_n)_k / (k! (c)_k) x_n^k F_D^(n-1)(a+k; ...; c+k)|."""
    if p.n < 1:
        raise DomainViolation("k-summation needs n >= 1")
    if K < 0:
        raise ValueError("k-summation needs K >= 0")
    lhs = fd_series(p)
    bn, xn = p.b[-1], p.x[-1]
    w = _coeffs(p.b[:-1], p.x[:-1], p.M)  # shared by every F_D^(n-1) term
    acc = 0j
    weight = 1 + 0j  # (a)_k (b_n)_k x_n^k / (k! (c)_k)
    for k in range(K + 1):
        acc += weight * _dot(_ratios(p.a + k, p.c + k, len(w)), w)
        weight *= (p.a + k) * (bn + k) * xn / ((k + 1) * (p.c + k))
    return abs(lhs - acc)


def check_mr_reduction(p: ClassicalFdParams) -> float:
    """c = b_1+..+b_n reduction: |F_D^(n) - (1-x_n)^(-a) F_D^(n-1) at
    (x_j - x_n)/(1 - x_n)|."""
    if p.n < 1:
        raise DomainViolation("reduction needs n >= 1")
    if abs(p.c - sum(p.b)) > 1e-9:
        raise DomainViolation("reduction requires c = b_1 + ... + b_n")
    xn = p.x[-1]
    if abs(1 - xn) < 1e-12:
        raise DomainViolation("x_n = 1 is outside the reduction's domain")
    lhs = fd_series(p)
    inner = replace(p, b=p.b[:-1],
                    x=tuple((xj - xn) / (1 - xn) for xj in p.x[:-1]))
    rhs = cmath.exp(-p.a * cmath.log(1 - xn)) * fd_series(inner)
    return abs(lhs - rhs)
