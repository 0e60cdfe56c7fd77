"""The value algebra that ffhyper's engine no longer carries, kept as the
tests' oracles: canonical CycInts built from an integer (from_int) or a
root of unity (zeta_pow), their sum, negation and schoolbook product in
Z[zeta_n] (add, neg, mul: the product multiplies coefficient lists and
reduces with cyclo._reduce, independent of hyperff's packed _conv), the
character value chi_m(x) at an element index (char_value), and Phi_n as a
coefficient tuple (cyclotomic_poly), which test_cyclo.py checks against
recursive division and uses as the modulus of its reduction tests.  The
engine decides identities on raw group-ring rows and builds a CycInt only
to print a value; the tests compare its values with these."""

from functools import lru_cache

from ffhyper import cyclo
from ffhyper.cyclo import CycInt
from ffhyper.ff_core import FieldTable


@lru_cache(maxsize=None)
def cyclotomic_poly(n: int) -> tuple[int, ...]:
    """Coefficients of Phi_n, low to high: (-1)^(sum mu) P with
    P = prod_{d | n} (1 - x^d)^mu(n/d), one cyclo._series_pass per Moebius
    factor (see cyclo._reduce for the sign)."""
    factors = cyclo._moebius_factors(n)
    s = [1] + [0] * cyclo._totient(n)
    for d, mu in factors:
        s = cyclo._series_pass(s, d, mu)
    sign = (-1) ** sum(mu for _, mu in factors)
    return tuple(sign * c for c in s)


def from_int(n: int, m: int) -> CycInt:
    return cyclo.from_coeffs(n, [m])


def zeta_pow(n: int, j: int) -> CycInt:
    return cyclo.from_coeffs(n, [0] * (j % n) + [1])


def add(a: CycInt, b: CycInt) -> CycInt:
    assert a.order == b.order, (a.order, b.order)
    return CycInt(a.order, tuple(x + y for x, y in zip(a.coeffs, b.coeffs)))


def neg(a: CycInt) -> CycInt:
    return CycInt(a.order, tuple(-x for x in a.coeffs))


def mul(a: CycInt, b: CycInt) -> CycInt:
    """The schoolbook product of two canonical values, reduced mod Phi_n."""
    assert a.order == b.order, (a.order, b.order)
    out = [0] * (len(a.coeffs) + len(b.coeffs) - 1)
    for i, x in enumerate(a.coeffs):
        if x:
            for j, y in enumerate(b.coeffs):
                out[i + j] += x * y
    return cyclo.from_coeffs(a.order, out)


def char_value(f: FieldTable, m: int, x: int) -> CycInt:
    """chi_m(x) = zeta_N^(m log x) at an element index x, and chi_m(0) = 0
    for every m, the trivial character included."""
    N = f.n_chars
    return from_int(N, 0) if x == 0 else zeta_pow(N, m * f.log_table[x])
