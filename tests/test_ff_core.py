import hashlib
import inspect
import random
import textwrap

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from ffhyper import cyclo, errors, ff_core

FIELDS = [ff_core.build_field(p, k) for p, k in
          [(2, 1), (3, 1), (5, 1), (7, 1), (2, 2), (2, 3), (3, 2), (5, 2)]]


def test_known_moduli_and_generators():
    # modulus digits low -> high, including the leading 1
    f4 = ff_core.build_field(2, 2)
    assert f4.modulus == (1, 1, 1)  # x^2 + x + 1
    assert f4.generator == 2
    f8 = ff_core.build_field(2, 3)
    assert f8.modulus == (1, 1, 0, 1)  # x^3 + x + 1
    assert f8.generator == 2
    f9 = ff_core.build_field(3, 2)
    assert f9.modulus == (1, 0, 1)  # x^2 + 1
    assert f9.generator == 4
    f5 = ff_core.build_field(5, 1)
    assert f5.modulus == (0, 1)  # the identity polynomial x
    assert f5.generator == 2


def test_prime_field_tables():
    f5 = ff_core.build_field(5, 1)
    assert f5.q == 5 and f5.n_chars == 4
    assert f5.exp_table == (1, 2, 4, 3)
    assert f5.log_table[4] == 2
    assert [f5.add(3, x) for x in range(5)] == [3, 4, 0, 1, 2]
    assert f5.mul(3, 4) == 2
    assert f5.inv(3) == 2


def test_generator_order():
    for f in FIELDS:
        seen = set()
        x = 1
        for _ in range(f.n_chars):
            seen.add(x)
            x = f.mul(x, f.generator)
        assert x == 1
        assert len(seen) == f.n_chars


def test_exp_log_roundtrip():
    for f in FIELDS:
        for x in range(1, f.q):
            assert f.exp_table[f.log_table[x]] == x
        for j in range(f.n_chars):
            assert f.log_table[f.exp_table[j]] == j


@given(st.sampled_from(FIELDS), st.integers(0, 10**6), st.integers(0, 10**6),
       st.integers(0, 10**6))
@settings(deadline=None, max_examples=200)
def test_field_axioms(f, a, b, c):
    x, y, z = a % f.q, b % f.q, c % f.q
    assert f.add(x, y) == f.add(y, x)
    assert f.mul(x, y) == f.mul(y, x)
    assert f.add(f.add(x, y), z) == f.add(x, f.add(y, z))
    assert f.mul(f.mul(x, y), z) == f.mul(x, f.mul(y, z))
    assert f.mul(x, f.add(y, z)) == f.add(f.mul(x, y), f.mul(x, z))
    assert f.add(x, f.neg(x)) == 0
    assert f.sub(x, y) == f.add(x, f.neg(y))
    if x:
        assert f.mul(x, f.inv(x)) == 1
        assert f.div(y, x) == f.mul(y, f.inv(x))


def test_zero_errors():
    f = FIELDS[2]
    with pytest.raises(errors.ZeroInverse):
        f.inv(0)
    assert f.log_table[0] == -1  # log 0 is undefined: a sentinel


def test_build_field_validation():
    with pytest.raises(errors.NotPrime):
        ff_core.build_field(6, 1)
    for _ in range(2):  # a refusal is not cached: the second call raises too
        with pytest.raises(errors.NotPrime):
            ff_core.build_field(4, 1)
    with pytest.raises(ValueError):
        ff_core.build_field(5, 0)
    with pytest.raises(errors.TooLarge):
        ff_core.build_field(2, 13)  # 8192 > default cap
    ff_core.build_field(2, 12)  # 4096 is allowed


@pytest.mark.parametrize("args, name", [
    ((5.0, 1), "p"), ((True, 1), "p"), ((np.int64(5), 1), "p"),
    ((5, 1.0), "k"), ((5, True), "k"), ((5, np.int64(1)), "k"),
    ((5, 1, 4096.0), "max_q"), ((5, 1, True), "max_q"), ((5, 1, np.int64(4096)), "max_q"),
])
def test_build_field_refuses_non_integer_arguments(args, name):
    # a float, a bool and a NumPy integer are each refused by name, before
    # the cap, the cache or the primality test sees them
    with pytest.raises(ValueError, match=f"^{name} must be an integer, got "):
        ff_core.build_field(*args)


def test_build_field_shares_one_table_per_order():
    f = ff_core.build_field(3, 2)
    assert ff_core.build_field(3, 2) is f
    big = ff_core.build_field(2, 13, 8192)
    assert ff_core.build_field(2, 13, 8192) is big
    with pytest.raises(errors.TooLarge):  # the cap is compared before the cache
        ff_core.build_field(2, 13)


def test_build_field_checks_the_cap_before_factoring():
    # p^k is above the default cap in each case, so p is never factored;
    # a k past the cap's bit length is refused before p^k is built
    cyclo._prime_divisors.cache_clear()
    for p, k in ((4099, 1), (2, 13), (100000000000031, 1), (2, 10**9), (-3, 10**9)):
        with pytest.raises(errors.TooLarge):
            ff_core.build_field(p, k)
    assert cyclo._prime_divisors.cache_info().currsize == 0


def test_split_prime_power():
    assert ff_core.split_prime_power(8) == (2, 3)
    assert ff_core.split_prime_power(7) == (7, 1)
    assert ff_core.split_prime_power(27) == (3, 3)
    for bad in (1, 6, 12, 100):
        with pytest.raises(ValueError):
            ff_core.split_prime_power(bad)


# -- the digit-wise arithmetic that the Zech-log path replaced, as oracle -------


def _digits(f, x):
    return [(x // f.p**i) % f.p for i in range(f.k)]


def _index(f, dv):
    return sum(d * f.p**i for i, d in enumerate(dv))


def oracle_add(f, x, y):
    return _index(f, [(a + b) % f.p for a, b in zip(_digits(f, x), _digits(f, y))])


def oracle_neg(f, x):
    return _index(f, [(-a) % f.p for a in _digits(f, x)])


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(cyclo._prime_divisors(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64 + [243, 256])
def test_zech_arithmetic_matches_digit_oracle_exhaustive(q):
    f = ff_core.build_field(*ff_core.split_prime_power(q))
    neg = [oracle_neg(f, x) for x in range(q)]
    for x in range(q):
        assert f.neg(x) == neg[x], (q, x)
        for y in range(q):
            s = oracle_add(f, x, y)
            assert f.add(x, y) == s, (q, x, y)
            assert f.sub(s, y) == x, (q, x, y)


@pytest.mark.parametrize("q", [1024, 2187, 4096])
def test_zech_arithmetic_matches_digit_oracle_sampled(q):
    f = ff_core.build_field(*ff_core.split_prime_power(q))
    rng = random.Random(q)
    for _ in range(20_000):
        x, y = rng.randrange(q), rng.randrange(q)
        assert f.add(x, y) == oracle_add(f, x, y), (q, x, y)
        assert f.sub(x, y) == oracle_add(f, x, oracle_neg(f, y)), (q, x, y)
        assert f.neg(x) == oracle_neg(f, x), (q, x)


def test_zech_table():
    for f in FIELDS:
        assert f.zech_table[0] == -1  # 1 - g^0 = 0 has no log
        assert f.exp_table[f.log_neg1] == oracle_neg(f, 1)
        for i in range(1, f.n_chars):
            one_minus = oracle_add(f, 1, oracle_neg(f, f.exp_table[i]))
            assert f.exp_table[f.zech_table[i]] == one_minus


def test_arrays_are_the_tables_read_only():
    # the operations on columns and the array walks read these, never the tuples
    for f in FIELDS + [ff_core.build_field(2, 12), ff_core.build_field(4093, 1)]:
        for arr, table in ((f.exp_array, f.exp_table), (f.log_array, f.log_table),
                           (f.zech_array, f.zech_table * 2)):
            assert arr.dtype == np.int64 and not arr.flags.writeable
            assert arr.tolist() == list(table)


# -- the table construction that the companion matrix replaced, as oracle: a
# polynomial product per exp entry and a digit-wise 1 - x per Zech entry --------


def _oracle_pmul_mod(a, b, mod, p):
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return ff_core._pmod(out, mod, p)


def oracle_tables(p, k):
    """(generator, exp_table, log_table, zech_table, log_neg1) of F_{p^k}."""
    q, N = p**k, p**k - 1
    mod = list(ff_core._smallest_modulus(p, k))

    def digits(x):
        return [(x // p**i) % p for i in range(k)]

    def index(dv):
        return sum(d * p**i for i, d in enumerate(dv))

    def mul_raw(a, b):
        if a == 0 or b == 0:
            return 0
        return index(_oracle_pmul_mod(digits(a), digits(b), mod, p))

    def powm(a, e):
        r = 1
        while e:
            if e & 1:
                r = mul_raw(r, a)
            a = mul_raw(a, a)
            e >>= 1
        return r

    fac = cyclo._prime_divisors(N)
    g = next(g for g in range(1, q)
             if powm(g, N) == 1 and all(powm(g, N // ell) != 1 for ell in fac))
    exp = [1] * N
    for j in range(1, N):
        exp[j] = mul_raw(exp[j - 1], g)
    log = [-1] * q
    for j, v in enumerate(exp):
        log[v] = j

    def one_sub(x):
        dv = digits(x)
        return index([(1 - dv[0]) % p] + [(-d) % p for d in dv[1:]])

    return g, tuple(exp), tuple(log), tuple(log[one_sub(v)] for v in exp), log[p - 1]


def tables_match_oracle(q):
    """True when FieldTable(p, k), built directly and not through the cache,
    has the oracle's tables; a build that raises does not match."""
    p, k = ff_core.split_prime_power(q)
    try:
        f = ff_core.FieldTable(p, k)
    except (IndexError, StopIteration):  # an index past q, or no generator found
        return False
    return ((f.generator, f.exp_table, f.log_table, f.zech_table, f.log_neg1)
            == oracle_tables(p, k))


PRIME_POWERS_TO_4096 = [q for q in range(2, 4097) if len(cyclo._prime_divisors(q)) == 1]


def test_tables_match_oracle_for_every_prime_power_to_256():
    qs = [q for q in PRIME_POWERS_TO_4096 if q <= 256]
    assert len(qs) == 70
    for q in qs:
        assert tables_match_oracle(q), q


@pytest.mark.parametrize("q", [729, 1024, 2048, 2187, 3125, 3721, 4093, 4096])
def test_tables_match_oracle_at_large_q(q):
    assert tables_match_oracle(q)


def test_tables_are_pinned_for_every_prime_power_to_4096():
    # SHA-256 over repr((q, modulus, generator, exp_table)) for each q, taken
    # from the per-entry polynomial-product construction
    assert len(PRIME_POWERS_TO_4096) == 604
    h = hashlib.sha256()
    for q in PRIME_POWERS_TO_4096:
        f = ff_core.FieldTable(*ff_core.split_prime_power(q))
        h.update(repr((q, f.modulus, f.generator, f.exp_table)).encode())
    assert h.hexdigest() == "5b687c2caabc51c4347708b95a466b959694c3aeff784877edcc8813e11f17c4"


def _mutate(monkeypatch, old, new):
    """Replace FieldTable.__init__ by a copy of its source with `old` replaced."""
    src = textwrap.dedent(inspect.getsource(ff_core.FieldTable.__init__))
    assert src.count(old) == 1, old
    ns = dict(vars(ff_core))
    exec(compile(src.replace(old, new), ff_core.__file__, "exec"), ns)
    monkeypatch.setattr(ff_core.FieldTable, "__init__", ns["__init__"])


MUTANT_QS = [4, 8, 9, 25, 27, 49]  # odd p and k >= 2 too, where +m and -m differ


def test_table_mutants_are_caught(monkeypatch):
    with monkeypatch.context() as m:  # the companion row x^k = +m instead of -m
        _mutate(m, "[-m % p for m in", "[m % p for m in")
        assert not all(tables_match_oracle(q) for q in MUTANT_QS)
    with monkeypatch.context() as m:  # + 1 on digit 0 without the wrap at p - 1
        _mutate(m, "np.where(v % p == p - 1, v - (p - 1), v + 1)", "v + 1")
        assert not all(tables_match_oracle(q) for q in MUTANT_QS)
    with monkeypatch.context() as m:  # the order test raises G to N, not N / ell
        _mutate(m, "_matpow(G, N // ell, p)", "_matpow(G, N, p)")
        assert not all(tables_match_oracle(q) for q in MUTANT_QS)
    assert all(tables_match_oracle(q) for q in MUTANT_QS)


class _CountedMatrix(np.ndarray):
    """An int64 matrix that counts every matrix product it takes part in."""

    products = 0

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if ufunc is np.matmul:
            _CountedMatrix.products += 1
        out = getattr(ufunc, method)(*(np.asarray(a) for a in inputs), **kwargs)
        return out.view(_CountedMatrix) if isinstance(out, np.ndarray) else out


def test_cold_build_makes_only_the_order_tests_products(monkeypatch):
    # at most generator * omega(N) order tests of 2 * bit_length(N) matrix
    # products each; one product per exp entry would be N = 4095
    matpow = ff_core._matpow
    monkeypatch.setattr(ff_core, "_matpow",
                        lambda a, e, p: np.asarray(matpow(a.view(_CountedMatrix), e, p)))
    _CountedMatrix.products = 0
    f = ff_core.FieldTable(2, 12)
    assert f.exp_table == ff_core.build_field(2, 12).exp_table
    N = f.n_chars
    assert 0 < _CountedMatrix.products <= (f.generator * len(cyclo._prime_divisors(N))
                                           * 2 * N.bit_length())


@pytest.mark.parametrize("q, digest", [
    (8192, "46142c3306e5b449efb76b61e5c224210bce8ab3a282274f257b5346f7cb534c"),
    (16384, "1740af3b090717a28603966e149b99763cade4d141a36f2ed3e183e07a515fba"),
    (65536, "41c211ced9a7541d79de9ff731cfca92562b6b1ae6a9ebdcfc43dae214a030e7"),
    (65537, "3036bbf80cd97f05aa79f002da11c6c8982a4425ca625fadb97fb8eaeb8722aa"),
])
def test_tables_are_pinned_past_the_default_cap(q, digest):
    # SHA-256 over repr((modulus, generator, exp_table, log_table, zech_table)),
    # taken from the index-space construction that the companion matrix replaced
    f = ff_core.FieldTable(*ff_core.split_prime_power(q))
    tables = (f.modulus, f.generator, f.exp_table, f.log_table, f.zech_table)
    assert hashlib.sha256(repr(tables).encode()).hexdigest() == digest


# -- Rabin's irreducibility test, the modulus search trial division replaced,
# kept here as the oracle ---------------------------------------------------------


def _rabin_prime_factors(m):
    out, d = [], 2
    while d * d <= m:
        while m % d == 0:
            out.append(d)
            m //= d
        d += 1
    return out + [m] if m > 1 else out


def _rabin_deg(a, p):
    d = len(a) - 1
    while d >= 0 and a[d] % p == 0:
        d -= 1
    return d


def _rabin_mul_mod(a, b, mod, p):
    k = len(mod) - 1
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            out[i + j] = (out[i + j] + ai * bj) % p
    for i in range(len(out) - 1, k - 1, -1):
        c = out[i]
        out[i] = 0
        for j in range(k):
            out[i - k + j] = (out[i - k + j] - c * mod[j]) % p
    return (out + [0] * k)[:k]


def _rabin_x_frobenius(e, mod, p):
    """x^(p^e) mod `mod`, by square-and-multiply."""
    k = len(mod) - 1
    r = [0, 1] + [0] * (k - 2)
    for _ in range(e):
        acc, base, n = [1] + [0] * (k - 1), r, p
        while n:
            if n & 1:
                acc = _rabin_mul_mod(acc, base, mod, p)
            base = _rabin_mul_mod(base, base, mod, p)
            n >>= 1
        r = acc
    return r


def _rabin_gcd(a, b, p):
    a, b = a[:], b[:]
    while True:
        db = _rabin_deg(b, p)
        if db < 0:
            return a
        da = _rabin_deg(a, p)
        if da < db:
            a, b = b, a
            continue
        inv = pow(b[db] % p, p - 2, p)
        while da >= db:
            c = a[da] * inv % p
            for i in range(db + 1):
                a[da - db + i] = (a[da - db + i] - c * b[i]) % p
            da = _rabin_deg(a, p)
        a, b = b, a


def _rabin_irreducible(mod, p):
    """x^(p^k) = x mod f, and gcd(f, x^(p^(k/l)) - x) = 1 for every prime l | k."""
    k = len(mod) - 1
    x = [0, 1] + [0] * (k - 2)
    if _rabin_x_frobenius(k, mod, p) != x:
        return False
    for ell in set(_rabin_prime_factors(k)):
        xe = _rabin_x_frobenius(k // ell, mod, p)
        diff = [(xe[i] - x[i]) % p for i in range(k)]
        if _rabin_deg(_rabin_gcd(mod[:], diff + [0], p), p) > 0:
            return False
    return True


def _rabin_smallest_modulus(p, k):
    if k == 1:
        return (0, 1)
    key = [0] * k  # (a_{k-1}, ..., a_0), counted up lexicographically
    while True:
        mod = list(reversed(key)) + [1]
        if _rabin_irreducible(mod, p):
            return tuple(mod)
        i = k - 1
        while key[i] == p - 1:
            key[i] = 0
            i -= 1
        key[i] += 1


def test_modulus_matches_rabin_oracle_for_every_prime_power_to_4096():
    assert len(PRIME_POWERS_TO_4096) == 604
    for q in PRIME_POWERS_TO_4096:
        p, k = ff_core.split_prime_power(q)
        assert ff_core._smallest_modulus(p, k) == _rabin_smallest_modulus(p, k), q


def test_trial_division_finds_factors():
    # x^2 + 1 = (x + 1)^2 over Z_2; x^4 + x^2 + 1 = (x^2 + x + 1)^2 over Z_2
    assert ff_core._pmod([1, 0, 1], [1, 1], 2) == [0]
    assert ff_core._pmod([1, 0, 1, 0, 1], [1, 1, 1], 2) == [0, 0]
    assert ff_core._pmod([1, 1, 0, 1], [1, 1], 2) == [1]  # x^3 + x + 1 at x = 1
    # the remainder is padded to deg(mod) residues in 0..p-1
    assert ff_core._pmod([4, 0, 1], [1, 0, 0, 1], 3) == [1, 0, 1]
    assert ff_core._pmod([-1, 2], [0, 0, 1], 5) == [4, 2]
