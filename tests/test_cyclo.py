import cmath
import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

from ffhyper import cyclo, errors

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
        assert cyclo.cyclotomic_poly(n) == coeffs


def test_canonical_degree():
    # coeff vector has length phi(n)
    for n, deg in [(1, 1), (2, 1), (4, 2), (6, 2), (8, 4), (12, 4), (7, 6)]:
        assert len(cyclo.one(n).coeffs) == deg


def test_zeta_relations():
    # zeta_4^2 = -1, zeta_6 = 1 + zeta_3-ish reductions all via sums
    z4 = cyclo.zeta_pow(4, 1)
    assert z4 * z4 == cyclo.from_int(4, -1)
    assert cyclo.zeta_pow(4, 5) == z4  # exponent mod order
    for n in (2, 3, 4, 6, 8, 12, 5, 7):
        s = cyclo.zero(n)
        for j in range(n):
            s = s + cyclo.zeta_pow(n, j)
        assert s.is_zero()


def _rand_cyc(n, ints):
    return cyclo.from_coeffs(n, ints)


@given(st.sampled_from([1, 2, 3, 4, 6, 8, 12]),
       st.lists(st.integers(-9, 9), min_size=1, max_size=14),
       st.lists(st.integers(-9, 9), min_size=1, max_size=14),
       st.lists(st.integers(-9, 9), min_size=1, max_size=14))
@settings(deadline=None, max_examples=150)
def test_ring_axioms(n, ca, cb, cc):
    a, b, c = (_rand_cyc(n, v) for v in (ca, cb, cc))
    assert a + b == b + a
    assert a * b == b * a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert (a + cyclo.neg(a)).is_zero()
    assert a * cyclo.one(n) == a
    assert (a * cyclo.zero(n)).is_zero()


@given(st.sampled_from([3, 4, 6, 8, 12]), st.integers(-20, 20),
       st.integers(-20, 20))
@settings(deadline=None, max_examples=100)
def test_zeta_pow_is_homomorphism(n, i, j):
    assert cyclo.zeta_pow(n, i) * cyclo.zeta_pow(n, j) == cyclo.zeta_pow(n, i + j)


def test_order_mismatch():
    with pytest.raises(errors.OrderMismatch):
        cyclo.add(cyclo.one(4), cyclo.one(6))
    with pytest.raises(errors.OrderMismatch):
        cyclo.embed(cyclo.one(4), 6)


def test_embed():
    a = cyclo.from_coeffs(4, [2, 3])  # 2 + 3*zeta_4
    b = cyclo.embed(a, 12)
    assert b.order == 12
    assert abs(cyclo.to_complex(a) - cyclo.to_complex(b)) < 1e-12
    # homomorphism: embed(x*y) == embed(x)*embed(y)
    x = cyclo.from_coeffs(6, [1, -2])
    y = cyclo.from_coeffs(6, [0, 5])
    assert cyclo.embed(x * y, 12) == cyclo.embed(x, 12) * cyclo.embed(y, 12)


def test_to_complex():
    for n in (3, 4, 5, 8):
        got = cyclo.to_complex(cyclo.zeta_pow(n, 1))
        assert abs(got - cmath.exp(2j * cmath.pi / n)) < 1e-12
    assert cyclo.to_complex(cyclo.from_int(7, -3)) == -3


def test_render():
    assert cyclo.render(cyclo.from_int(8, -3)) == "-3"
    assert cyclo.render(cyclo.zero(12)) == "0"
    assert cyclo.render(cyclo.zeta_pow(8, 1)) == "z (z = zeta_8)"
    a = cyclo.from_coeffs(8, [1, 0, -2])
    assert cyclo.render(a) == "1 - 2*z^2 (z = zeta_8)"
    assert str(a) == cyclo.render(a)


def test_from_coeffs_reduces():
    # arbitrary-length inputs reduce mod the cyclotomic polynomial
    a = cyclo.from_coeffs(4, [0, 0, 1])  # zeta_4^2
    assert a == cyclo.from_int(4, -1)
    b = cyclo.from_coeffs(3, [5, 5, 5])  # 5 * (1 + z + z^2) = 0
    assert b.is_zero()


def test_exact_div_raises_on_remainder():
    # x^2 + 1 = (x - 1)(x + 1) + 2; must raise even under python -O
    with pytest.raises(errors.InexactDivision):
        cyclo._exact_div([1, 0, 1], (-1, 1))


def test_div_exact():
    a = cyclo.from_coeffs(8, [6, 0, -4])
    assert cyclo.div_exact(a, 2) == cyclo.from_coeffs(8, [3, 0, -2])
    with pytest.raises(errors.InexactDivision):
        cyclo.div_exact(a, 4)


def _reduces_to_zero(n, vec):
    """Oracle: canonical reduction mod Phi_n."""
    return not any(cyclo._reduce(list(vec), n))


def test_vanishes_exhaustive_small_orders():
    # every vector in {-1, 0, 1}^n for n <= 4, i.e. q <= 5
    for n in (1, 2, 3, 4):
        for vec in itertools.product((-1, 0, 1), repeat=n):
            assert cyclo.vanishes(n, vec) == _reduces_to_zero(n, vec), (n, vec)


def _vanishing_vec(rng, n):
    """Random Z-combination of shifted Phi_n and of shifted regular p-gons
    sum_j x^(k + j*n/p), all zero at zeta_n."""
    out = [0] * n
    phi = cyclo.cyclotomic_poly(n)
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


def test_vanishes_rejects_wrong_length():
    with pytest.raises(ValueError):
        cyclo.vanishes(4, [1, 2, 3])
