import re

import numpy as np
import pytest

from ffhyper import charset, cyclo, errors, ff_core

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def _field(q):
    return ff_core.build_field(*ff_core.split_prime_power(q))


def test_zero_maps_to_zero_for_every_character():
    # including the trivial character: chi(0) = 0, not 1
    for q in (4, 5, 7, 9):
        f = _field(q)
        for c in charset.all_chars(f):
            assert charset.eval(c, 0).is_zero()
        eps = charset.Char(f, 0)
        assert eps.is_trivial
        assert charset.eval(eps, 0).is_zero()
        assert charset.eval(eps, 1) == cyclo.one(f.n_chars)


def test_orthogonality_all_prime_powers_up_to_64():
    for q in PRIME_POWERS_64:
        f = _field(q)
        N = f.n_chars
        for c in charset.all_chars(f):
            s = cyclo.zero(N)
            for x in range(q):
                s = s + charset.eval(c, x)
            want = cyclo.from_int(N, N if c.is_trivial else 0)
            assert s == want, (q, c.m)
        for x in range(q):
            s = cyclo.zero(N)
            for c in charset.all_chars(f):
                s = s + charset.eval(c, x)
            want = cyclo.from_int(N, N if x == 1 else 0)
            assert s == want, (q, x)


def test_multiplicativity():
    for q in (5, 8, 9):
        f = _field(q)
        for c in charset.all_chars(f):
            for x in range(q):
                for y in range(q):
                    assert charset.eval(c, f.mul(x, y)) == \
                        cyclo.mul(charset.eval(c, x), charset.eval(c, y))


def test_group_structure():
    f = _field(7)
    a, b = charset.Char(f, 2), charset.Char(f, 5)
    assert charset.product(a, b).m == 1  # 7 mod 6
    assert (a * b).m == 1
    assert charset.inverse(a).m == 4
    assert (~a).m == 4
    assert (a * ~a).is_trivial
    for x in range(1, 7):
        assert charset.eval(a, x) * charset.eval(~a, x) == cyclo.one(6)


def test_exponent_normalization():
    f = _field(5)
    assert charset.Char(f, 7).m == 3
    assert charset.Char(f, -1).m == 3
    assert charset.Char(f, 4).m == 0
    assert charset.Char(f, 7) == charset.Char(f, -1)


@pytest.mark.parametrize("m", [1.5, 2.0, True])
def test_a_character_exponent_must_be_an_integer(m):
    # 1.5 is no character, and True is not chi_1
    with pytest.raises(ValueError) as info:
        charset.Char(_field(5), m)
    assert str(info.value) == f"character exponent must be an integer, got {m!r}"


def test_all_chars():
    for q in (3, 4, 9):
        f = _field(q)
        cs = charset.all_chars(f)
        assert len(cs) == q - 1
        assert [c.m for c in cs] == list(range(q - 1))


def test_quadratic_character():
    # on a prime field the exponent-(q-1)/2 character is the Legendre symbol
    f = _field(7)
    phi = charset.Char(f, 3)
    squares = sorted({f.mul(x, x) for x in range(1, 7)})
    assert squares == [1, 2, 4]
    for x in range(1, 7):
        want = 1 if x in squares else -1
        assert charset.eval(phi, x) == cyclo.from_int(6, want)


def test_delta_helpers():
    f = _field(5)
    assert charset.delta_char(charset.Char(f, 0)) == cyclo.one(4)
    assert charset.delta_char(charset.Char(f, 2)).is_zero()
    assert charset.delta_elem(f, 0) == cyclo.one(4)
    assert charset.delta_elem(f, 3).is_zero()


F8 = ff_core.build_field(2, 3)
ELEMENT_ENTRY_POINTS = [F8.dlog, charset.Char(F8, 1),
                        lambda x: charset.eval(charset.Char(F8, 3), x),
                        lambda x: charset.delta_elem(F8, x)]


@pytest.mark.parametrize("entry", ELEMENT_ENTRY_POINTS, ids=["dlog", "Char", "eval", "delta_elem"])
@pytest.mark.parametrize("x, message", [
    (-1, "element index -1 out of range for q=8"),
    (-3, "element index -3 out of range for q=8"),
    (8, "element index 8 out of range for q=8"),
    (True, "x must be an integer, got True"),
    (np.int64(3), f"x must be an integer, got {np.int64(3)!r}"),
])
def test_element_entry_points_refuse_what_is_no_element_index(entry, x, message):
    # negative indexing, an index past q, a bool and a NumPy integer used to
    # be read as some element, or raise a bare IndexError
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        entry(x)


def test_element_entry_points_on_element_indices():
    with pytest.raises(errors.ZeroLog):
        F8.dlog(0)
    assert [F8.dlog(x) for x in range(1, 8)] == list(F8.log_table[1:])
    assert charset.Char(F8, 1)(0).is_zero()
    for x in range(1, 8):
        assert charset.Char(F8, 1)(x) == cyclo.zeta_pow(7, F8.log_table[x])
        assert charset.eval(charset.Char(F8, 3), x) == cyclo.zeta_pow(7, 3 * F8.log_table[x])
    assert [charset.delta_elem(F8, x) == cyclo.one(7) for x in range(8)] == [True] + [False] * 7


def test_field_mismatch():
    a = charset.Char(_field(5), 1)
    b = charset.Char(_field(7), 1)
    with pytest.raises(errors.FieldMismatch):
        charset.product(a, b)
