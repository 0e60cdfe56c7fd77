"""Exact arithmetic in Z[zeta_n], the ring of cyclotomic integers.

Character values and all hypergeometric character sums over F_q live here with
n = q-1.  Elements are kept in canonical form: the residue modulo the n-th
cyclotomic polynomial Phi_n, on the power basis 1, z, ..., z^(phi(n)-1).  Two
elements of the same order are equal iff their coefficient tuples are equal.
Coefficients are Python ints, hence never overflow.  Phi_n is the Moebius
product of the binomials x^d - 1 over the divisors d of n (Lidl & Niederreiter,
Finite Fields, ch. 2-3), built as a power series with one linear pass per
factor; its order has no limit of its own, the field size caps it.
Reduction mod Phi_n runs through the same 2^omega(n) factors: quotient and
remainder come from power-series products and quotients by 1 - x^d, each one
linear pass, so a length-L reduction costs O(2^omega(n) * L) additions, not the
O((L - phi(n)) * phi(n)) of long division.

Deciding equality does not need canonical form: `vanishes` tests whether a
group-ring vector (a sum of n-th roots of unity) is zero in O(omega(n) * n),
so every theorem check is an exact yes/no with no tolerance, and canonical
reduction is left to values that are printed or returned.
"""

from __future__ import annotations

import cmath
import itertools
import math
from dataclasses import dataclass
from functools import lru_cache

from .errors import InexactDivision, OrderMismatch


@lru_cache(maxsize=None)
def _prime_divisors(n: int) -> tuple[int, ...]:
    """Distinct prime divisors of n, ascending, by trial division; () for n < 2.
    The package's one factoriser."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1
    if n > 1:
        out.append(n)
    return tuple(out)


def _totient(n: int) -> int:
    out = n
    for p in _prime_divisors(n):
        out -= out // p
    return out


@lru_cache(maxsize=None)
def _moebius_factors(n: int) -> tuple[tuple[int, int], ...]:
    """The pairs (d, mu(n/d)) with mu(n/d) != 0, for
    Phi_n = prod_{d | n} (x^d - 1)^mu(n/d).  mu(n/d) is nonzero only when n/d
    is a product of distinct primes of n, and then it is (-1)^(their number)."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    ps = _prime_divisors(n)
    return tuple((n // math.prod(s), (-1) ** r)
                 for r in range(len(ps) + 1) for s in itertools.combinations(ps, r))


def _series_pass(s: list[int], d: int, e: int) -> list[int]:
    """s * (1 - x^d)^e mod x^len(s), e = 1 or -1: a shift-and-subtract, or a
    running sum with stride d (1/(1 - x^d) = 1 + x^d + x^2d + ...)."""
    if e == 1:
        return s[:d] + [a - b for a, b in zip(s[d:], s)]
    out = s[:]
    for r in range(min(d, len(s) - d)):  # runs of one term are their own sums
        out[r::d] = itertools.accumulate(s[r::d])
    return out


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low to high: (-1)^(sum mu) P with
    P = prod_{d | n} (1 - x^d)^mu(n/d), one `_series_pass` per Moebius factor.
    P is a polynomial of degree phi(n), so its power series mod x^(phi(n)+1)
    is P itself (see `_reduce` for the sign)."""
    factors = _moebius_factors(n)
    s = [1] + [0] * _totient(n)
    for d, mu in factors:
        s = _series_pass(s, d, mu)
    sign = (-1) ** sum(mu for _, mu in factors)
    return tuple(sign * c for c in s)


def _reduce(coeffs: list[int], n: int) -> tuple[int, ...]:
    """The residue of sum_i coeffs[i] * x^i mod Phi_n, as phi(n) coefficients.

    Division with remainder by power series (von zur Gathen & Gerhard, Modern
    Computer Algebra, sec. 9.1).  Let P = prod_{d | n} (1 - x^d)^mu(n/d): it is
    the reversal x^phi(n) Phi_n(1/x), and Phi_n = (-1)^(sum mu) P, since each
    x^d - 1 = -(1 - x^d) (sum mu = 0 except at n = 1).  For a = Q Phi_n + R of
    length L = phi(n) + m, the reversed quotient is rev(a) / P mod x^m, and
    R = a - Q Phi_n mod x^phi(n).  Each product or quotient by P is one
    `_series_pass` per Moebius factor (the passes commute: each is a product
    by a unit of Z[[x]]/(x^k)), so a reduction costs O(2^omega(n) * L) big-int
    additions, against O(m * phi(n)) for long division by Phi_n.
    """
    factors = _moebius_factors(n)
    deg = _totient(n)
    a = list(coeffs)
    if len(a) <= deg:
        return tuple(a + [0] * (deg - len(a)))
    s = a[:deg - 1:-1]  # rev(a) mod x^m
    for d, mu in factors:
        s = _series_pass(s, d, -mu)
    s = s[::-1][:deg]  # Q mod x^phi(n)
    s += [0] * (deg - len(s))
    for d, mu in factors:
        s = _series_pass(s, d, mu)
    sign = (-1) ** sum(mu for _, mu in factors)
    return tuple(c - sign * t for c, t in zip(a, s))


def vanishes(n: int, vec) -> bool:
    """Exact zero test for sum_i vec[i] * zeta_n^i, vec of length n.

    v(zeta_n) = 0  <=>  v * prod_{p | n} (x^(n/p) - 1) = 0 in Z[x]/(x^n - 1):
    the product vanishes at exactly the non-primitive n-th roots of unity, and
    x^n - 1 is squarefree, so the product is divisible by x^n - 1 iff v
    vanishes at the primitive ones (de Bruijn 1953; Lam & Leung 2000).  Each
    factor is one cyclic shift-and-subtract, O(n).
    """
    v = list(vec)
    if len(v) != n:
        raise ValueError(f"expected a length-{n} vector, got length {len(v)}")
    for p in _prime_divisors(n):
        s = n // p
        v = [a - b for a, b in zip(v[-s:] + v[:-s], v)]
    return not any(v)


@dataclass(frozen=True)
class CycInt:
    order: int
    coeffs: tuple[int, ...]  # canonical, length phi(order)

    def __add__(self, other: "CycInt") -> "CycInt":
        return add(self, other)

    def __sub__(self, other: "CycInt") -> "CycInt":
        return add(self, neg(other))

    def __mul__(self, other: "CycInt") -> "CycInt":
        return mul(self, other)

    def __neg__(self) -> "CycInt":
        return neg(self)

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    def __str__(self) -> str:
        return render(self)


def _check_orders(a: CycInt, b: CycInt) -> None:
    if a.order != b.order:
        raise OrderMismatch(a.order, b.order)


def from_int(n: int, m: int) -> CycInt:
    deg = _totient(n)
    return CycInt(n, _reduce([m] + [0] * (deg - 1), n))


def from_coeffs(n: int, coeffs) -> CycInt:
    """CycInt from an arbitrary-length power-basis coefficient sequence."""
    return CycInt(n, _reduce(list(coeffs), n))


def div_exact(a: CycInt, d: int) -> CycInt:
    """a / d for a rational integer d that divides every canonical coefficient."""
    if any(c % d for c in a.coeffs):
        raise InexactDivision(d)
    return CycInt(a.order, tuple(c // d for c in a.coeffs))


def zero(n: int) -> CycInt:
    return from_int(n, 0)


def one(n: int) -> CycInt:
    return from_int(n, 1)


def zeta_pow(n: int, j: int) -> CycInt:
    j %= n
    return CycInt(n, _reduce([0] * j + [1], n))


def add(a: CycInt, b: CycInt) -> CycInt:
    _check_orders(a, b)
    return CycInt(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def neg(a: CycInt) -> CycInt:
    return CycInt(a.order, tuple(-x for x in a.coeffs))


def mul(a: CycInt, b: CycInt) -> CycInt:
    _check_orders(a, b)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return CycInt(a.order, _reduce(out, a.order))


def embed(a: CycInt, multiple_order: int) -> CycInt:
    """Map zeta_n to zeta_m^(m/n); a ring homomorphism Z[zeta_n] -> Z[zeta_m]."""
    m = multiple_order
    if m % a.order != 0:
        raise OrderMismatch(a.order, m)
    step = m // a.order
    out = [0] * ((len(a.coeffs) - 1) * step + 1)
    for i, x in enumerate(a.coeffs):
        out[i * step] += x
    return CycInt(m, _reduce(out, m))


def render(a: CycInt) -> str:
    """Canonical text: "c0 + c1*z + ... (z = zeta_n)"; plain integer when the
    value is rational."""
    parts = []
    for i, c in enumerate(a.coeffs):
        if c == 0:
            continue
        if i == 0:
            parts.append(str(c))
            continue
        mag = "" if abs(c) == 1 else f"{abs(c)}*"
        term = f"{mag}z" if i == 1 else f"{mag}z^{i}"
        if not parts:
            parts.append(term if c > 0 else f"-{term}")
        else:
            parts.append(f"+ {term}" if c > 0 else f"- {term}")
    if not parts:
        return "0"
    text = " ".join(parts)
    if len(parts) == 1 and parts[0].lstrip("-").isdigit():
        return text
    return f"{text} (z = zeta_{a.order})"


def to_complex(a: CycInt) -> complex:
    """Debug embedding at zeta_n = exp(2*pi*i/n)."""
    z = cmath.exp(2j * cmath.pi / a.order)
    acc = 0j
    for c in reversed(a.coeffs):
        acc = acc * z + c
    return acc
