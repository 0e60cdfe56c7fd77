import cmath
import functools
import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffhyper import cyclo, errors
from ring_oracles import add, cyclotomic_poly, from_int, mul, neg, zeta_pow
from walk_oracles import _list_vanishes

PHI = {
    1: (-1, 1),
    2: (1, 1),
    3: (1, 1, 1),
    4: (1, 0, 1),
    6: (1, -1, 1),
    8: (1, 0, 0, 0, 1),
    12: (1, 0, -1, 0, 1),
}


def test_cyclotomic_poly_oracles():
    for n, coeffs in PHI.items():
        assert cyclotomic_poly(n) == coeffs


def test_canonical_degree():
    # coeff vector has length phi(n)
    for n, deg in [(1, 1), (2, 1), (4, 2), (6, 2), (8, 4), (12, 4), (7, 6)]:
        assert len(from_int(n, 1).coeffs) == deg


def test_zeta_relations():
    # zeta_4^2 = -1, zeta_6 = 1 + zeta_3-ish reductions all via sums
    z4 = zeta_pow(4, 1)
    assert mul(z4, z4) == from_int(4, -1)
    assert zeta_pow(4, 5) == z4  # exponent mod order
    for n in (2, 3, 4, 6, 8, 12, 5, 7):
        s = from_int(n, 0)
        for j in range(n):
            s = add(s, zeta_pow(n, j))
        assert s == from_int(n, 0)


def _rand_cyc(n, ints):
    return cyclo.from_coeffs(n, ints)


@given(st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
       st.lists(st.integers(-9, 9), min_size=1, max_size=14),
       st.lists(st.integers(-9, 9), min_size=1, max_size=14),
       st.lists(st.integers(-9, 9), min_size=1, max_size=14))
@settings(deadline=None, max_examples=150)
def test_ring_axioms(n, ca, cb, cc):
    # the oracles' schoolbook product, reduced by cyclo._reduce, is a ring
    a, b, c = (_rand_cyc(n, v) for v in (ca, cb, cc))
    zero, one = from_int(n, 0), from_int(n, 1)
    assert add(a, b) == add(b, a)
    assert mul(a, b) == mul(b, a)
    assert add(add(a, b), c) == add(a, add(b, c))
    assert mul(mul(a, b), c) == mul(a, mul(b, c))
    assert mul(a, add(b, c)) == add(mul(a, b), mul(a, c))
    assert add(a, neg(a)) == zero
    assert mul(a, one) == a
    assert mul(a, zero) == zero


@given(st.sampled_from([3, 4, 6, 8, 12]), st.integers(-20, 20),
       st.integers(-20, 20))
@settings(deadline=None, max_examples=100)
def test_zeta_pow_is_homomorphism(n, i, j):
    assert mul(zeta_pow(n, i), zeta_pow(n, j)) == zeta_pow(n, i + j)


def test_to_complex():
    for n in (3, 4, 5, 8):
        got = cyclo.to_complex(zeta_pow(n, 1))
        assert abs(got - cmath.exp(2j * cmath.pi / n)) < 1e-12
    assert cyclo.to_complex(from_int(7, -3)) == -3


def test_render():
    assert cyclo.render(from_int(8, -3)) == "-3"
    assert cyclo.render(from_int(12, 0)) == "0"
    assert cyclo.render(zeta_pow(8, 1)) == "z (z = zeta_8)"
    a = cyclo.from_coeffs(8, [1, 0, -2])
    assert cyclo.render(a) == "1 - 2*z^2 (z = zeta_8)"
    assert str(a) == cyclo.render(a)


def test_from_coeffs_reduces():
    # arbitrary-length inputs reduce mod the cyclotomic polynomial
    a = cyclo.from_coeffs(4, [0, 0, 1])  # zeta_4^2
    assert a == from_int(4, -1)
    b = cyclo.from_coeffs(3, [5, 5, 5])  # 5 * (1 + z + z^2) = 0
    assert b == cyclo.CycInt(3, (0, 0))


def test_div_exact():
    a = cyclo.from_coeffs(8, [6, 0, -4])
    assert cyclo.div_exact(a, 2) == cyclo.from_coeffs(8, [3, 0, -2])
    with pytest.raises(errors.InexactDivision):
        cyclo.div_exact(a, 4)


def _schoolbook_reduce(coeffs, n):
    """Oracle: long division by Phi_n, the reduction the power-series
    division replaced.  Phi_n comes from the recursive oracle below, so this
    shares no code with `cyclo._series_pass`."""
    phi_n = _recursive_phi(n)
    deg = len(phi_n) - 1
    coeffs = list(coeffs)
    for i in range(len(coeffs) - 1, deg - 1, -1):
        c = coeffs[i]
        if c:
            coeffs[i] = 0
            for j in range(deg):
                coeffs[i - deg + j] -= c * phi_n[j]
    coeffs = coeffs[:deg]
    coeffs += [0] * (deg - len(coeffs))
    return tuple(coeffs)


def test_reduce_exhaustive_small_orders():
    # every vector in {-1, 0, 1}^L for n <= 4 and L <= n + 2
    for n in (1, 2, 3, 4):
        for length in range(n + 3):
            for vec in itertools.product((-1, 0, 1), repeat=length):
                assert cyclo._reduce(list(vec), n) == _schoolbook_reduce(vec, n), (n, vec)


REDUCE_ORDERS = [q - 1 for q in range(3, 65) if len(cyclo._prime_divisors(q)) == 1] + [
    1, 255, 1023, 4095, 4098]


@pytest.mark.parametrize("n", REDUCE_ORDERS)
def test_reduce_matches_schoolbook_oracle(n):
    rng = random.Random(f"reduce:{n}")
    deg = cyclo._totient(n)
    phi = cyclotomic_poly(n)
    # 2 * phi - 1 is the length `mul` reduces
    for length in sorted({0, 1, deg, deg + 1, n, 2 * deg - 1, n + 7}):
        vec = [rng.randint(-50, 50) for _ in range(length)]
        got = cyclo._reduce(vec, n)
        assert got == _schoolbook_reduce(vec, n), (n, length)
        # a shifted multiple of Phi_n leaves the residue unchanged ...
        c, k = rng.choice((-3, -1, 2, 7)), rng.randrange(n + 1)
        shifted = vec + [0] * (k + len(phi) - len(vec))
        for j, a in enumerate(phi):
            shifted[k + j] += c * a
        assert cyclo._reduce(shifted, n) == got, (n, length, k)
        # ... and one changed coefficient below degree phi(n) moves it by as much
        if length:
            j = rng.randrange(min(length, deg))
            vec[j] += 1
            moved = list(got)
            moved[j] += 1
            assert cyclo._reduce(vec, n) == tuple(moved), (n, length, j)


def _reduces_to_zero(n, vec):
    """Oracle of `vanishes`: schoolbook reduction mod Phi_n."""
    return not any(_schoolbook_reduce(vec, n))


def test_vanishes_exhaustive_small_orders():
    # every vector in {-1, 0, 1}^n for n <= 4, i.e. q <= 5
    for n in (1, 2, 3, 4):
        for vec in itertools.product((-1, 0, 1), repeat=n):
            assert cyclo.vanishes(n, vec) == _reduces_to_zero(n, vec), (n, vec)


def _vanishing_vec(rng, n):
    """Random Z-combination of shifted Phi_n and of shifted regular p-gons
    sum_j x^(k + j*n/p), all zero at zeta_n."""
    out = [0] * n
    phi = cyclotomic_poly(n)
    gons = [[j * (n // p) for j in range(p)] for p in cyclo._prime_divisors(n)]
    for _ in range(3):
        c, k = rng.randint(-5, 5), rng.randrange(n)
        for j, a in enumerate(phi):
            out[(j + k) % n] += c * a
        c, k = rng.randint(-5, 5), rng.randrange(n)
        for j in rng.choice(gons):
            out[(j + k) % n] += c
    return out


@pytest.mark.parametrize("n", [6, 12, 15, 63, 255, 1023, 4095])
def test_vanishes_matches_reduce_oracle(n):
    rng = random.Random(f"vanishes:{n}")
    # the oracle costs seconds per dense vector at n = 4095
    rounds = 1 if n > 1023 else 12
    for _ in range(rounds):
        dense = [rng.randint(-3, 3) for _ in range(n)]
        sparse = [0] * n
        for _ in range(5):
            sparse[rng.randrange(n)] += rng.randint(-3, 3)
        zero = _vanishing_vec(rng, n)
        cases = [sparse, zero] if n > 1023 else [dense, sparse, zero]
        for vec in cases:
            assert cyclo.vanishes(n, vec) == _reduces_to_zero(n, vec)
        assert cyclo.vanishes(n, zero)
        assert not cyclo.vanishes(n, dense)
        # negative control: one perturbed coefficient breaks a vanishing sum
        zero[rng.randrange(n)] += rng.choice((-2, -1, 1, 2))
        assert not cyclo.vanishes(n, zero)


@pytest.mark.parametrize("n", [2, 6, 12, 63, 255, 4095])
def test_vanishes_matches_the_list_loop(n):
    # the row passes against the list loop they replaced, on vanishing sums,
    # dense vectors and both scaled by 2^70 with one entry moved: each as a
    # list (one object row), an int64 row where it fits, an (R, n) int64
    # block and an (R, n) object block
    rng = random.Random(f"rows:{n}")
    vecs = []
    for _ in range(3):
        for v in (_vanishing_vec(rng, n), [rng.randint(-3, 3) for _ in range(n)]):
            big = [c * 2 ** 70 for c in v]
            big[rng.randrange(n)] += rng.choice((-1, 1))
            vecs += [v, [c * 2 ** 70 for c in v], big]
    want = [_list_vanishes(n, v) for v in vecs]
    assert any(want) and not all(want)
    assert [cyclo.vanishes(n, v) for v in vecs] == want
    small = [i for i, v in enumerate(vecs) if max(map(abs, v)) < 2 ** 40]
    block = np.array([vecs[i] for i in small], dtype=np.int64)
    assert cyclo.vanishes(n, block).tolist() == [want[i] for i in small]
    assert [cyclo.vanishes(n, row) for row in block] == [want[i] for i in small]
    assert cyclo.vanishes(n, np.array(vecs, dtype=object)).tolist() == want


def test_vanishes_rejects_wrong_length():
    with pytest.raises(ValueError):
        cyclo.vanishes(4, [1, 2, 3])


# -- Phi_n by recursive division by every Phi_d, the construction the Moebius
# product replaced, kept here as the oracle ---------------------------------------


def _exact_div(num, den):
    """Divide by a monic integer polynomial; remainder must vanish."""
    num = list(num)
    dd = len(den) - 1
    out = [0] * (len(num) - dd)
    for i in range(len(num) - 1, dd - 1, -1):
        c = num[i]
        out[i - dd] = c
        if c:
            for j in range(dd + 1):
                num[i - dd + j] -= c * den[j]
    if any(num[:dd]):
        raise errors.InexactDivision(den)
    return out


@functools.lru_cache(maxsize=None)
def _recursive_phi(n):
    if n == 1:
        return (-1, 1)
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d == 0:
            num = _exact_div(num, _recursive_phi(d))
    return tuple(num)


def test_cyclotomic_poly_matches_recursive_oracle():
    for n in list(range(1, 301)) + [1023, 4095]:
        assert cyclotomic_poly(n) == _recursive_phi(n), n


FIELD_ORDERS_TO_4096 = [q - 1 for q in range(3, 4097) if len(cyclo._prime_divisors(q)) == 1]


def test_cyclotomic_poly_every_field_order():
    # monic of degree phi(n), and zero at zeta_n by the independent vanishing test
    for n in FIELD_ORDERS_TO_4096:
        phi = cyclotomic_poly(n)
        assert phi[-1] == 1 and len(phi) == cyclo._totient(n) + 1, n
        padded = list(phi) + [0] * (n - len(phi))
        assert cyclo.vanishes(n, padded), n
        # negative control: the test sees a perturbed constant term
        padded[0] += 1
        assert not cyclo.vanishes(n, padded), n


def test_cyclotomic_poly_has_no_order_limit_of_its_own():
    phi = cyclotomic_poly(4098)  # q = 4099 with a raised field cap
    assert len(phi) == cyclo._totient(4098) + 1 == 1365
    with pytest.raises(ValueError):
        cyclotomic_poly(0)


def _mu(n):
    """The Moebius function by trial division, independent of cyclo."""
    out, d = 1, 2
    while d * d <= n:
        if n % d == 0:
            n //= d
            if n % d == 0:
                return 0
            out = -out
        d += 1
    return -out if n > 1 else out


@pytest.mark.parametrize("n", [*range(1, 65), 1023, 4092, 4095, 65535])
def test_divisor_table_matches_definitions(n):
    D = cyclo.DivisorTable(n)
    ds = [d for d in range(1, n + 1) if n % d == 0]
    assert D.n == n and D.divisors == tuple(ds)
    assert D.size == sum(ds)
    assert [D.offset[g] for g in ds] == [sum(ds[:i]) for i in range(len(ds))]
    for g in ds:
        want = {(h, _mu(h // g)) for h in ds if h % g == 0 and _mu(h // g)}
        assert len(D.moebius[g]) == len(want) and set(D.moebius[g]) == want, g
    # the arrays a block of rows reads by divisor index
    assert D.value.tolist() == ds and D.starts.tolist() == [D.offset[g] for g in ds]
    assert D.widths.tolist() == [g for g in ds for _ in range(g)]
    assert [ds[i] for i in D.rank.tolist()] == [math.gcd(k, n) for k in range(n)]
    assert [[ds[i] for i in row] for row in D.meet.tolist()] == \
        [[math.gcd(a, b) for b in ds] for a in ds]
