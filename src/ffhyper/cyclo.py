"""Canonical values in Z[zeta_n], the ring of cyclotomic integers, and the
exact zero test that decides every identity.

Character values and all hypergeometric character sums over F_q live in
Z[zeta_n] with n = q-1.  A CycInt is the canonical form of a value, built
only to print or return it: the residue modulo the n-th cyclotomic
polynomial Phi_n, on the power basis 1, z, ..., z^(phi(n)-1).  Two values of
the same order are equal iff their coefficient tuples are equal.
Coefficients are Python ints, hence never overflow.  Phi_n is the Moebius
product of the binomials x^d - 1 over the divisors d of n (Lidl &
Niederreiter, Finite Fields, ch. 2-3), and reduction mod Phi_n runs through
those 2^omega(n) factors without building Phi_n: quotient and remainder come
from power-series products and quotients by 1 - x^d, each one linear pass,
so a length-L reduction costs O(2^omega(n) * L) additions, not the
O((L - phi(n)) * phi(n)) of long division.  Its order has no limit of its
own; the field size caps it.

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
from functools import cached_property, lru_cache

import numpy as np

from .errors import InexactDivision


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


class DivisorTable:
    """The divisor lattice of n as the flat tables of a count over it
    (hyperff._coset_counts).  Built from n alone, by `_prime_divisors` and
    `_moebius_factors`; immutable after construction, so never mutate one.

    divisors   the divisors of n, ascending
    offset     offset[g]: where the row of divisor g starts in a flat
               accumulator of size = sigma(n) slots, the rows ascending by g
    moebius    moebius[g]: the pairs (h, mu(h/g)) over g | h | n with
               mu(h/g) != 0, from _moebius_factors(n/g): its pair (d, mu)
               is h = n/d (read by the Moebius count)
    rank       int64 array of length n: the index in divisors of gcd(k, n),
               0 <= k < n, a slice sieve over the divisors, ascending, so
               the last divisor to mark k is gcd(k, n)
    meet       int64 array of shape (tau, tau), tau the number of divisors:
               the index of gcd(divisors[a], divisors[b]) at [a, b]
    value      int64 array: the divisors, by index
    starts     int64 array: offset[g] by the index of g (hyperff._coset_rows
               reads rank, meet, value and starts by arrays of indices)
    widths     int64 array of size slots: the g of each slot's row

    rank, meet, value, starts and widths, which only hyperff._coset_rows
    reads, are built on first use.  Every table holds O(sigma(n))
    ints, but rank (n ints) and meet (tau^2)."""

    def __init__(self, n: int):
        ds = [1]
        for p in _prime_divisors(n):
            e, k = 0, n
            while k % p == 0:
                k //= p
                e += 1
            ds = [d * p**i for d in ds for i in range(e + 1)]
        self.n = n
        self.divisors = ds = tuple(sorted(ds))
        self.offset = dict(zip(ds, itertools.accumulate(ds[:-1], initial=0)))
        self.size = sum(ds)
        self.moebius = {g: tuple((n // d, mu) for d, mu in _moebius_factors(n // g)) for g in ds}

    @cached_property
    def rank(self) -> np.ndarray:
        rank = np.zeros(self.n, dtype=np.int64)
        for i, d in enumerate(self.divisors):
            rank[::d] = i
        return rank

    @cached_property
    def meet(self) -> np.ndarray:
        ds = self.divisors
        return self.rank[[[math.gcd(a, b) % self.n for b in ds] for a in ds]]

    @cached_property
    def value(self) -> np.ndarray:
        return np.array(self.divisors, dtype=np.int64)

    @cached_property
    def starts(self) -> np.ndarray:
        return np.array(list(self.offset.values()), dtype=np.int64)

    @cached_property
    def widths(self) -> np.ndarray:
        return np.repeat(self.value, self.divisors)


def _series_pass(s: list[int], d: int, e: int) -> list[int]:
    """s * (1 - x^d)^e mod x^len(s), e = 1 or -1: a shift-and-subtract, or a
    running sum with stride d (1/(1 - x^d) = 1 + x^d + x^2d + ...)."""
    if e == 1:
        return s[:d] + [a - b for a, b in zip(s[d:], s)]
    out = s[:]
    for r in range(min(d, len(s) - d)):  # runs of one term are their own sums
        out[r::d] = itertools.accumulate(s[r::d])
    return out


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


def vanishes(n: int, vec):
    """Exact zero test for sum_i vec[i] * zeta_n^i, vec of length n.

    v(zeta_n) = 0  <=>  v * prod_{p | n} (x^(n/p) - 1) = 0 in Z[x]/(x^n - 1):
    the product vanishes at exactly the non-primitive n-th roots of unity, and
    x^n - 1 is squarefree, so the product is divisible by x^n - 1 iff v
    vanishes at the primitive ones (de Bruijn 1953; Lam & Leung 2000).  Each
    factor is one cyclic shift-and-subtract, O(n), a pass over every row.

    An (R, n) array is R vectors and the answer a boolean array, one per
    row; a length-n array or sequence (read as an object row of Python ints)
    is one row and the answer a bool.  Each pass at most doubles the largest
    magnitude, so int64 rows need 2^omega(n) times it below 2^62.
    """
    rows = np.atleast_2d(vec if isinstance(vec, np.ndarray) else np.array(list(vec), dtype=object))
    if rows.shape[1] != n:
        raise ValueError(f"expected rows of length {n}, got length {rows.shape[1]}")
    for p in _prime_divisors(n):
        s = n // p
        rows = np.concatenate((rows[:, -s:], rows[:, :-s]), axis=1) - rows
    zero = ~(rows != 0).any(axis=1)
    return zero if np.ndim(vec) == 2 else bool(zero[0])


@dataclass(frozen=True)
class CycInt:
    """A canonical value of Z[zeta_order], for output: str() renders it."""
    order: int
    coeffs: tuple[int, ...]  # canonical, length phi(order)

    def __str__(self) -> str:
        return render(self)


def from_coeffs(n: int, coeffs) -> CycInt:
    """CycInt from an arbitrary-length power-basis coefficient sequence or
    1-D array (its entries read as Python ints)."""
    coeffs = coeffs.tolist() if isinstance(coeffs, np.ndarray) else list(coeffs)
    return CycInt(n, _reduce(coeffs, n))


def div_exact(a: CycInt, d: int) -> CycInt:
    """a / d for a rational integer d that divides every canonical coefficient."""
    if any(c % d for c in a.coeffs):
        raise InexactDivision(d)
    return CycInt(a.order, tuple(c // d for c in a.coeffs))


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
