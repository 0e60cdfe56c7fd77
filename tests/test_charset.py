"""Multiplicative characters chi_m: the Char record of hyperff, the value
chi_m(x) = zeta_{q-1}^(m log x) of the ring_oracles at every element index,
and the public ops' refusal of what is no element index."""

import re

import numpy as np
import pytest

from ffhyper import Char, errors, ff_core, hyperff
from ring_oracles import add, char_value, from_int, mul, zeta_pow

PRIME_POWERS_64 = [2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 17, 19, 23, 25, 27, 29,
                   31, 32, 37, 41, 43, 47, 49, 53, 59, 61, 64]


def _field(q):
    return ff_core.build_field(*ff_core.split_prime_power(q))


def test_zero_maps_to_zero_for_every_character():
    # including the trivial character: chi(0) = 0, not 1
    for q in (4, 5, 7, 9):
        f = _field(q)
        for m in range(f.n_chars):
            assert char_value(f, m, 0) == from_int(f.n_chars, 0)
        assert char_value(f, 0, 1) == from_int(f.n_chars, 1)


def test_orthogonality_all_prime_powers_up_to_64():
    for q in PRIME_POWERS_64:
        f = _field(q)
        N = f.n_chars
        for m in range(N):
            s = from_int(N, 0)
            for x in range(q):
                s = add(s, char_value(f, m, x))
            assert s == from_int(N, N if m == 0 else 0), (q, m)
        for x in range(q):
            s = from_int(N, 0)
            for m in range(N):
                s = add(s, char_value(f, m, x))
            assert s == from_int(N, N if x == 1 else 0), (q, x)


def test_multiplicativity():
    for q in (5, 8, 9):
        f = _field(q)
        for m in range(f.n_chars):
            for x in range(q):
                for y in range(q):
                    assert char_value(f, m, f.mul(x, y)) == \
                        mul(char_value(f, m, x), char_value(f, m, y))


def test_group_structure():
    # characters multiply by adding exponents mod q - 1
    f = _field(7)
    a, b = Char(f, 2), Char(f, 5)
    assert Char(f, a.m + b.m).m == 1  # 7 mod 6
    assert Char(f, -a.m).m == 4
    for x in range(1, 7):
        assert mul(char_value(f, a.m, x), char_value(f, b.m, x)) == char_value(f, 1, x)
        assert mul(char_value(f, a.m, x), char_value(f, -a.m, x)) == from_int(6, 1)


def test_exponent_normalization():
    f = _field(5)
    assert Char(f, 7).m == 3
    assert Char(f, -1).m == 3
    assert Char(f, 4).m == 0
    assert Char(f, 7) == Char(f, -1)
    assert repr(Char(f, 7)) == "chi_3[q=5]"


@pytest.mark.parametrize("m", [1.5, 2.0, True])
def test_a_character_exponent_must_be_an_integer(m):
    # 1.5 is no character, and True is not chi_1
    with pytest.raises(ValueError) as info:
        Char(_field(5), m)
    assert str(info.value) == f"character exponent must be an integer, got {m!r}"


def test_quadratic_character():
    # on a prime field the exponent-(q-1)/2 character is the Legendre symbol
    f = _field(7)
    squares = sorted({f.mul(x, x) for x in range(1, 7)})
    assert squares == [1, 2, 4]
    for x in range(1, 7):
        want = 1 if x in squares else -1
        assert char_value(f, 3, x) == from_int(6, want)


F8 = ff_core.build_field(2, 3)
A8, B8, C8 = Char(F8, 1), Char(F8, 3), Char(F8, 2)
ELEMENT_ENTRY_POINTS = [lambda x: hyperff.gauss_2f1(A8, B8, C8, x),
                        lambda x: hyperff.appell_f1(A8, B8, B8, C8, x, 1),
                        lambda x: hyperff.char_line_sum(A8, B8, x),
                        lambda x: hyperff.FdInstance(A8, (B8,), C8, (x,))]


@pytest.mark.parametrize("entry", ELEMENT_ENTRY_POINTS,
                         ids=["gauss_2f1", "appell_f1", "char_line_sum", "FdInstance"])
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
    # every index 0 <= x < q is taken, and at x = 0 chi(0) = 0 makes the
    # eps(x)-weighted sums vanish
    for entry in ELEMENT_ENTRY_POINTS:
        for x in range(8):
            entry(x)
    assert hyperff.gauss_2f1(A8, B8, C8, 0) == from_int(7, 0)
    assert hyperff.char_line_sum(A8, B8, 0) == from_int(7, 0)
    for x in range(1, 8):
        assert char_value(F8, 1, x) == zeta_pow(7, F8.log_table[x])
        assert char_value(F8, 3, x) == zeta_pow(7, 3 * F8.log_table[x])


def test_field_mismatch():
    a = Char(_field(5), 1)
    b = Char(_field(7), 1)
    with pytest.raises(errors.FieldMismatch):
        hyperff.jacobi(a, b)
