"""Classical (complex-valued) Lauricella F_D series and identity checks.

The truncated multiseries

    F_D^(n)(a; b_1..b_n; c | x_1..x_n)
        = sum_{m_1..m_n >= 0} (a)_{m_1+..+m_n} prod_j (b_j)_{m_j}
          / (c)_{m_1+..+m_n} * prod_j x_j^{m_j} / m_j!

is evaluated by convolving the per-slot coefficient columns and weighting each
total degree S by (a)_S/(c)_S, so the cost is polynomial in n*M rather than
M^n.  Truncation at m_j <= M per index leaves a tail bounded by a geometric
series in max|x_j| < 1; at |x| <= 0.5 and M = 60 the tail is far below 1e-12.

check_* functions return the absolute residual |lhs - rhs| of one identity:
an integral formula (adaptive quadrature vs. series), a k-summation contracting
one slot, and the c = b_1+..+b_n reduction.  F_D^(0) is the empty product 1
here, matching the series; the finite-field module pins its own n=0 case to a
binomial instead.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass, replace

from scipy.integrate import quad
from scipy.special import loggamma

from .errors import Diverged, DomainViolation

DEFAULT_M = 60
DEFAULT_K = 60


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


@dataclass(frozen=True)
class QuadratureCfg:
    epsabs: float = 1e-12
    epsrel: float = 1e-12
    limit: int = 200


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


def fd_series(p: ClassicalFdParams) -> complex:
    for xj in p.x:
        if abs(xj) >= 1:
            raise Diverged(xj)
    if p.n == 0:
        return 1 + 0j
    w = None
    for bj, xj in zip(p.b, p.x):
        col = [0j] * (p.M + 1)
        term = 1 + 0j
        for m in range(p.M + 1):
            col[m] = term  # (b_j)_m x_j^m / m!
            term *= (bj + m) * xj / (m + 1)
        w = col if w is None else _convolve(w, col)
    acc = 0j
    ratio = 1 + 0j  # (a)_S / (c)_S
    for S, coeff in enumerate(w):
        acc += ratio * coeff
        ratio *= (p.a + S) / (p.c + S)
    return acc


def beta(x: complex, y: complex) -> complex:
    return cmath.exp(loggamma(x) + loggamma(y) - loggamma(x + y))


def check_integral_formula(p: ClassicalFdParams,
                           quadrature_cfg: QuadratureCfg | None = None) -> float:
    """|B(b1,b2) F_D^(n) - integral of u^(b1-1)(1-u)^(b2-1) F_D^(n-1)| where the
    inner instance merges the first two slots along u x1 + (1-u) x2."""
    if p.n < 2:
        raise DomainViolation("integral formula needs n >= 2")
    b1, b2 = p.b[0], p.b[1]
    if b1.real < 1 or b2.real < 1:
        raise DomainViolation("quadrature restricted to Re(b1), Re(b2) >= 1")
    cfg = quadrature_cfg or QuadratureCfg()
    lhs = beta(b1, b2) * fd_series(p)
    x1, x2 = p.x[0], p.x[1]
    inner_b = (b1 + b2,) + p.b[2:]

    def integrand(u: float) -> complex:
        inner = replace(p, b=inner_b, x=(u * x1 + (1 - u) * x2,) + p.x[2:])
        return u ** (b1 - 1) * (1 - u) ** (b2 - 1) * fd_series(inner)

    rhs, _ = quad(integrand, 0.0, 1.0, epsabs=cfg.epsabs, epsrel=cfg.epsrel,
                  limit=cfg.limit, complex_func=True)
    return abs(lhs - rhs)


def check_ksum_formula(p: ClassicalFdParams, K: int = DEFAULT_K) -> float:
    """|F_D^(n) - sum_k (a)_k (b_n)_k / (k! (c)_k) x_n^k F_D^(n-1)(a+k; ...; c+k)|."""
    if p.n < 1:
        raise DomainViolation("k-summation needs n >= 1")
    lhs = fd_series(p)
    bn, xn = p.b[-1], p.x[-1]
    if abs(xn) >= 1:
        raise Diverged(xn)
    acc = 0j
    weight = 1 + 0j  # (a)_k (b_n)_k x_n^k / (k! (c)_k)
    for k in range(K + 1):
        inner = replace(p, a=p.a + k, b=p.b[:-1], c=p.c + k, x=p.x[:-1])
        acc += weight * fd_series(inner)
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
