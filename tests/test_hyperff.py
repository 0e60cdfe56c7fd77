import itertools
import random

import pytest
from ring_oracles import add, char_value, from_int, mul
from test_ff_core import oracle_add, oracle_neg

from ffhyper import Char, cyclo, errors, ff_core, hyperff


def _field(q):
    return ff_core.build_field(*ff_core.split_prime_power(q))


F5 = _field(5)
F7 = _field(7)
F8 = _field(8)


def _c(f, m):
    return Char(f, m)


def test_jacobi_oracles():
    eps, chi1, phi = _c(F5, 0), _c(F5, 1), _c(F5, 2)
    assert hyperff.jacobi(eps, eps) == from_int(4, 3)
    assert hyperff.jacobi(chi1, eps) == from_int(4, -1)
    assert hyperff.jacobi(phi, phi) == from_int(4, -1)
    # |J(chi, lam)|^2 = q when chi, lam, chi*lam all nontrivial
    j = hyperff.jacobi(_c(F7, 1), _c(F7, 2))
    assert abs(abs(cyclo.to_complex(j)) ** 2 - 7) < 1e-9


def test_binom_oracles():
    # {A over eps} = -1 + (q-1) * [A trivial]
    assert hyperff.binom(_c(F7, 0), _c(F7, 0)) == from_int(6, 5)
    for m in range(1, 6):
        assert hyperff.binom(_c(F7, m), _c(F7, 0)) == from_int(6, -1)
    # symmetry-under-inversion spot check at q=5: {A over B} = {A over A B^-1}
    for ma in range(4):
        for mb in range(4):
            lhs = hyperff.binom(_c(F5, ma), _c(F5, mb))
            rhs = hyperff.binom(_c(F5, ma), _c(F5, ma - mb))
            assert lhs == rhs


# -- literal sums over u with digit-wise field arithmetic, as oracle --------------


def _one_minus(f, x):
    return oracle_add(f, 1, oracle_neg(f, x))


def literal_jacobi(chi, lam):
    f = chi.field
    total = from_int(f.n_chars, 0)
    for u in range(f.q):
        total = add(total, mul(char_value(f, chi.m, u),
                               char_value(f, lam.m, _one_minus(f, u))))
    return total


def literal_fd(inst):
    """eps(x_1..x_n) AC(-1) sum_u A(u) (A^-1 C)(1-u) prod_j B_j^-1(1-x_j u)."""
    f, mA, mC = inst.field, inst.A.m, inst.C.m
    total = from_int(f.n_chars, 0)
    for u in range(f.q):
        term = mul(char_value(f, mA, u), char_value(f, mC - mA, _one_minus(f, u)))
        for b, x in zip(inst.B, inst.x):
            term = mul(term, char_value(f, -b.m, _one_minus(f, f.mul(x, u))))
        total = add(total, term)
    x_prod = 1
    for x in inst.x:
        x_prod = f.mul(x_prod, x)
    return mul(mul(char_value(f, 0, x_prod), char_value(f, mA + mC, oracle_neg(f, 1))), total)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_sums_match_literal_oracle_exhaustive(q):
    f = _field(q)
    N = f.n_chars
    for ma, mb in itertools.product(range(N), repeat=2):
        assert hyperff.jacobi(_c(f, ma), _c(f, mb)) == \
            literal_jacobi(_c(f, ma), _c(f, mb)), (q, ma, mb)
    for n in (1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            A, C, Bs = _c(f, ms[0]), _c(f, ms[1]), tuple(_c(f, m) for m in ms[2:])
            for xs in itertools.product(range(q), repeat=n):
                inst = hyperff.FdInstance(A, Bs, C, xs)
                assert hyperff.lauricella_def(inst) == literal_fd(inst), inst


@pytest.mark.parametrize("q", [8, 9, 16, 27, 64])
def test_sums_match_literal_oracle_sampled(q):
    f = _field(q)
    rng = random.Random(q)
    for _ in range(20):
        chi, lam = _c(f, rng.randrange(f.n_chars)), _c(f, rng.randrange(f.n_chars))
        assert hyperff.jacobi(chi, lam) == literal_jacobi(chi, lam), (chi, lam)
    for n in (1, 2, 3):
        for _ in range(20):
            inst = _random_instance(rng, f, n)
            assert hyperff.lauricella_def(inst) == literal_fd(inst), inst


def _random_instance(rng, f, n):
    N = f.n_chars
    A = _c(f, rng.randrange(N))
    B = tuple(_c(f, rng.randrange(N)) for _ in range(n))
    C = _c(f, rng.randrange(N))
    x = tuple(rng.randrange(f.q) for _ in range(n))
    return hyperff.FdInstance(A, B, C, x)


def test_definition_matches_character_sum():
    rng = random.Random(11)
    for q in (5, 7, 8):
        f = _field(q)
        for n in (1, 2):
            for _ in range(8):
                inst = _random_instance(rng, f, n)
                assert hyperff.lauricella_def(inst) == \
                    hyperff.lauricella_charsum(inst), inst


def test_slot_permutation_symmetry():
    rng = random.Random(12)
    for _ in range(10):
        inst = _random_instance(rng, F5, 3)
        perm = list(range(3))
        rng.shuffle(perm)
        permuted = hyperff.FdInstance(
            inst.A, tuple(inst.B[i] for i in perm), inst.C,
            tuple(inst.x[i] for i in perm))
        assert hyperff.lauricella_def(inst) == hyperff.lauricella_def(permuted)


def test_zero_argument_kills_series():
    # eps(x1*...*xn) factor: any zero argument gives 0
    for mx in range(5):
        inst = hyperff.FdInstance(_c(F5, 1), (_c(F5, 2), _c(F5, 3)), _c(F5, 1),
                                  (mx % 5, 0))
        assert hyperff.lauricella_def(inst) == from_int(4, 0)


def test_gauss_2f1_is_single_slot_lauricella():
    for ma in range(4):
        for mb in range(4):
            for mc in range(4):
                for x in range(5):
                    A, B, C = _c(F5, ma), _c(F5, mb), _c(F5, mc)
                    got = hyperff.gauss_2f1(A, B, C, x)
                    # slots swap: 2F1(A,B;C|x) = F_D^(1)(B; A; C | x)
                    want = hyperff.lauricella_def(
                        hyperff.FdInstance(B, (A,), C, (x,)))
                    assert got == want


def test_gauss_2f1_normalizations():
    A, B, C = _c(F5, 1), _c(F5, 2), _c(F5, 3)
    plain = hyperff.gauss_2f1(A, B, C, 3)
    num, den = hyperff.gauss_2f1(A, B, C, 3, normalization="greene")
    assert num == plain and den == 5
    with pytest.raises(ValueError):
        hyperff.gauss_2f1(A, B, C, 3, normalization="bogus")


@pytest.mark.parametrize("call, message", [
    (lambda A: hyperff.gauss_2f1(A, A, A, 2.5), "x must be an integer, got 2.5"),
    (lambda A: hyperff.gauss_2f1(A, A, A, True), "x must be an integer, got True"),
    (lambda A: hyperff.appell_f1(A, A, A, A, 2, 3.0), "y must be an integer, got 3.0"),
    (lambda A: hyperff.char_line_sum(A, A, False), "x must be an integer, got False"),
    (lambda A: hyperff.FdInstance(A, (A,), A, (2.0,)), "x must be an integer, got 2.0"),
    (lambda A: hyperff.GenFnInstance(hyperff.FdInstance(A, (A,), A, (2,)), True, "T42"),
     "t must be an integer, got True"),
], ids=["2f1-float", "2f1-bool", "f1-y", "line-sum-bool", "fd-float", "genfn-bool"])
def test_a_point_must_be_an_integer_index(call, message):
    # True is not the element 1, and 2.5 no element at all
    with pytest.raises(ValueError) as info:
        call(_c(F5, 1))
    assert str(info.value) == message


def test_gauss_2f1_checks_normalization_before_it_walks(monkeypatch):
    def walk(*args, **kwargs):
        raise AssertionError("F_D walked before the normalization was checked")

    monkeypatch.setattr(hyperff, "_fd_vec", walk)
    A, B, C = _c(F5, 1), _c(F5, 2), _c(F5, 3)
    with pytest.raises(ValueError, match="unknown normalization 'bogus'"):
        hyperff.gauss_2f1(A, B, C, 3, normalization="bogus")


def test_appell_is_two_slot_lauricella():
    rng = random.Random(13)
    for _ in range(12):
        inst = _random_instance(rng, F8, 2)
        got = hyperff.appell_f1(inst.A, inst.B[0], inst.B[1], inst.C,
                                inst.x[0], inst.x[1])
        assert got == hyperff.lauricella_def(inst)


def test_binomial_theorem_line():
    # (q-1) * A^-1(1-x) = (q-1)*[x=0] + sum_chi {A*chi over chi} chi(x)
    for q in (5, 8):
        f = _field(q)
        N = f.n_chars
        eps = _c(f, 0)
        for ma in range(N):
            A = _c(f, ma)
            for x in range(q):
                lhs = mul(from_int(N, q - 1), char_value(f, -ma, f.sub(1, x)))
                rhs = add(from_int(N, (q - 1) if x == 0 else 0),
                          hyperff.char_line_sum(A, eps, x))
                assert lhs == rhs, (q, ma, x)


def test_char_line_sum_closed_form():
    # sum_chi {A*chi over B*chi} chi(x) = (q-1) B^-1(x) (A^-1 B)(1-x)
    for q in (5, 8):
        f = _field(q)
        N = f.n_chars
        for ma in range(N):
            for mb in range(N):
                for x in range(q):
                    A, B = _c(f, ma), _c(f, mb)
                    lhs = hyperff.char_line_sum(A, B, x)
                    rhs = mul(mul(from_int(N, q - 1), char_value(f, -mb, x)),
                              char_value(f, mb - ma, f.sub(1, x)))
                    assert lhs == rhs, (q, ma, mb, x)


def _gen(f, ms, x, t, variant):
    A, Bs, C = _c(f, ms[0]), tuple(_c(f, m) for m in ms[1:-1]), _c(f, ms[-1])
    return hyperff.GenFnInstance(hyperff.FdInstance(A, Bs, C, x), t, variant)


def test_genfn_t41_at_t_zero():
    for ma in range(4):
        for mb in range(4):
            for mc in range(4):
                for x in range(5):
                    g = _gen(F5, (ma, mb, mc), (x,), 0, "T41")
                    assert hyperff.genfn_lhs(g) == hyperff.genfn_rhs(g)


def test_genfn_t42_with_zero_last_argument():
    for t in range(5):
        for x1 in range(5):
            g = _gen(F5, (1, 2, 3, 1), (x1, 0), t, "T42")
            assert hyperff.genfn_lhs(g) == hyperff.genfn_rhs(g)


def test_genfn_t43_spot():
    for ms in [(1, 2, 3, 1), (0, 1, 2, 3), (2, 2, 2, 2)]:
        g = _gen(F5, ms, (2, 3), 2, "T43")
        lhs, rhs = hyperff.genfn_lhs(g), hyperff.genfn_rhs(g)
        assert lhs == rhs, ms


def test_genfn_t41_excludes_t_equal_one():
    g41 = _gen(F5, (1, 2, 3), (2,), 1, "T41")
    with pytest.raises(errors.DomainViolation):
        hyperff.genfn_lhs(g41)
    with pytest.raises(errors.DomainViolation):
        hyperff.genfn_rhs(g41)
    # same t is fine for the other variants
    g42 = _gen(F5, (1, 2, 3), (2,), 1, "T42")
    assert hyperff.genfn_lhs(g42) == hyperff.genfn_rhs(g42)


def test_instance_validation():
    A, B, C = _c(F5, 1), _c(F5, 2), _c(F5, 3)
    with pytest.raises(ValueError):
        hyperff.FdInstance(A, (), C, ())  # n >= 1
    with pytest.raises(ValueError):
        hyperff.FdInstance(A, (B,), C, (2, 3))  # |B| != |x|
    with pytest.raises(ValueError):
        hyperff.FdInstance(A, (B,), C, (7,))  # element out of range
    with pytest.raises(errors.FieldMismatch):
        hyperff.FdInstance(A, (Char(F7, 1),), C, (2,))
    inst = hyperff.FdInstance(A, (B,), C, (2,))
    with pytest.raises(ValueError):
        hyperff.GenFnInstance(inst, 2, "T99")
    with pytest.raises(ValueError):
        hyperff.GenFnInstance(inst, 9, "T41")


@pytest.mark.parametrize("x", [5, -1])
def test_point_out_of_range_is_rejected(x):
    # the check FdInstance makes: x = q is not a field element, and a negative
    # index is not read as q + x
    A, B, B2, C = _c(F5, 1), _c(F5, 2), _c(F5, 1), _c(F5, 3)
    with pytest.raises(ValueError, match="out of range for q=5"):
        hyperff.gauss_2f1(A, B, C, x)
    for xs in ((x, 1), (1, x)):
        with pytest.raises(ValueError, match="out of range for q=5"):
            hyperff.appell_f1(A, B, B2, C, *xs)
    with pytest.raises(ValueError, match="out of range for q=5"):
        hyperff.char_line_sum(A, B, x)
    hyperff.gauss_2f1(A, B, C, 4)  # the largest index is accepted
    hyperff.appell_f1(A, B, B2, C, 4, 4)
    hyperff.char_line_sum(A, B, 4)


def test_fd_zero_slot_count_via_gauss_consistency():
    # n=1 lauricella at x=1 collapses to a pure binomial expression;
    # regression-pin one exact cyclotomic value at q=8
    A, B, C = _c(F8, 1), _c(F8, 3), _c(F8, 2)
    val = hyperff.lauricella_def(hyperff.FdInstance(B, (A,), C, (1,)))
    want = mul(char_value(F8, A.m, F8.neg(1)), hyperff.binom(B, Char(F8, C.m - A.m)))
    assert val == want
