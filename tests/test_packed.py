"""Differential tests of the packed group-ring products in hyperff.

Each packed path is compared with the loop it replaced, kept here as the
oracle: the schoolbook cyclic convolution, the literal N^n-term character
sum, one _fd_vec walk per theta for each one-pass F_D row, the per-theta
generating-function sum, the per-chi k-sum, and the rotate-and-add of a
fresh F_D vector for the walk that adds into the caller's vector.  The n = 0
walk is compared with the Jacobi-sum binomial it replaced.  Exhaustive over
every character tuple at q <= 5, sampled at larger q.
"""

import itertools
import random

import pytest

from ffhyper import cyclo, ff_core, hyperff, identities


def _ev(q):
    return hyperff._Ev(ff_core.build_field(*ff_core.split_prime_power(q)))


# -- oracles: the loops the packed paths replaced ---------------------------------


def rot_add(out, vec, e, s=1):
    """out += s zeta^e vec, one entry at a time; nothing when e is None."""
    if e is not None:
        N = len(out)
        for i, v in enumerate(vec):
            if v:
                out[(i + e) % N] += s * v
    return out


def school_conv(a, b, N):
    out = [0] * N
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % N] += x * y
    return out


def literal_charsum(ev, mA, mBs, mC, xs):
    N = ev.N
    out = [0] * N
    if any(x == 0 for x in xs):
        return out
    xlogs = [ev.L[x] for x in xs]
    for chs in itertools.product(range(N), repeat=len(mBs)):
        s = sum(chs)
        term = list(hyperff._binom_vec(ev, mA + s, mC + s))
        e = 0
        for mb, ch, lx in zip(mBs, chs, xlogs):
            term = school_conv(term, hyperff._binom_vec(ev, mb + ch, ch), N)
            e += ch * lx
        rot_add(out, term, e)
    return out


def per_theta_genfn_lhs(ev, mA, mBs, mC, xs, t, variant):
    N = ev.N
    out = [0] * N
    if t == 0:
        return out
    for th in range(N):
        if variant == "T41":
            term = school_conv(hyperff._binom_vec(ev, mA - mC + th, th),
                               hyperff._fd_vec(ev, mA + th, mBs, mC, xs), N)
        elif variant == "T42":
            term = school_conv(hyperff._binom_vec(ev, mBs[-1] + th, th),
                               hyperff._fd_vec(ev, mA, (*mBs[:-1], mBs[-1] + th), mC, xs), N)
        else:
            term = school_conv(hyperff._binom_vec(ev, mA - mC + th, th),
                               hyperff._fd_vec(ev, mA, mBs, mC - th, xs), N)
        rot_add(out, term, th * ev.L[t])
    return out


def fd_with_theta(ev, mA, mBs, mC, xs, slot, th):
    """_fd_vec with chi^theta put in one slot, as _fd_rows's row theta."""
    if slot == "A":
        return hyperff._fd_vec(ev, mA + th, mBs, mC, xs)
    if slot == "B":
        return hyperff._fd_vec(ev, mA, (*mBs[:-1], mBs[-1] + th), mC, xs)
    if slot == "C":
        return hyperff._fd_vec(ev, mA, mBs, mC - th, xs)
    return hyperff._fd_vec(ev, mA + th, mBs, mC + th, xs)  # "AC"


def per_chi_ksum_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    N = ev.N
    out = [0] * N
    if es[-1] != 0:
        for ch in range(N):
            term = school_conv(hyperff._binom_vec(ev, Bs[-1] + ch, ch),
                               hyperff._fd_vec(ev, A + ch, Bs[:-1], C + ch, es[:-1]), N)
            rot_add(out, term, ch * ev.L[es[-1]])
    return out


# -- the packing layer --------------------------------------------------------------


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_conv_matches_schoolbook_exhaustive(N):
    vecs = list(itertools.product((-1, 0, 1), repeat=N))
    for a in vecs:
        for b in vecs:
            assert hyperff._conv(a, b, N) == school_conv(a, b, N), (a, b)


@pytest.mark.parametrize("N", [5, 6, 7, 8, 12, 33, 63, 255, 1023])
def test_conv_matches_schoolbook_sampled(N):
    rng = random.Random(N)
    for span in (1, 50, 10 ** 6):
        for _ in range(3 if N < 100 else 1):
            a = [rng.randint(-span, span) for _ in range(N)]
            b = [rng.randint(-span, span) for _ in range(N)]
            assert hyperff._conv(a, b, N) == school_conv(a, b, N)


@pytest.mark.parametrize("N", [1, 2, 5, 12, 63])
def test_conv_near_and_beyond_2_63(N):
    rng = random.Random(63 + N)
    for top in (2 ** 62 - 1, 2 ** 62, 2 ** 63, 2 ** 64 + 7, 2 ** 200):
        a = [rng.choice((-1, 1)) * rng.randint(top // 2, top) for _ in range(N)]
        b = [rng.choice((-1, 0, 1)) for _ in range(N)]
        b[0] = 1
        assert hyperff._conv(a, b, N) == school_conv(a, b, N)
        assert hyperff._conv(a, a, N) == school_conv(a, a, N)
    one = [0] * N
    one[0] = 1
    big = [-(2 ** 63)] * N
    assert hyperff._conv(big, one, N) == big


def test_round_trip_at_the_width_edge():
    for bound in (0, 1, 127, 128, 255, 2 ** 31, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 100):
        w = hyperff._slot_bits(bound)
        assert bound < 2 ** (w - 1) and w % 8 == 0
        for v in ([bound, -bound, 0], [-bound] * 5, [bound] * 70):
            assert hyperff._unpack(hyperff._pack(v, w), w, len(v)) == v


def test_unpack_folds_every_wrap():
    # a packed value spanning four times N slots folds to the same vector as
    # summing the slots by residue mod N
    rng = random.Random(3)
    for N in (1, 3, 7, 40):
        raw = [rng.randint(-1000, 1000) for _ in range(4 * N + 1)]
        want = [sum(raw[i::N]) for i in range(N)]
        w = hyperff._slot_bits(sum(map(abs, raw)))
        assert hyperff._unpack(hyperff._pack(raw, w), w, N) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 64])
def test_binomial_l1_is_n_minus_1(q):
    # the packed sums take their widths from this: every binomial vector
    # counts the q - 2 values u != 0, 1
    ev = _ev(q)
    for ma, mb in itertools.product(range(ev.N), repeat=2):
        v = hyperff._binom_vec(ev, ma, mb)
        assert min(v) >= 0 and sum(v) == ev.N - 1


# -- character-index sums ---------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_charsum_matches_literal_exhaustive(q):
    ev = _ev(q)
    N = ev.N
    for n in (1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                assert hyperff._charsum_vec(ev, *args) == literal_charsum(ev, *args), args


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_charsum_matches_literal_sampled(q):
    ev = _ev(q)
    N = ev.N
    rng = random.Random(q)
    for n in ((1,) if q == 64 else (1, 2, 3)):
        for _ in range(4 if q == 64 else 10):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(1, q) for _ in range(n)))
            assert hyperff._charsum_vec(ev, *args) == literal_charsum(ev, *args), args


@pytest.mark.parametrize("n", [12, 13, 14])
def test_charsum_beyond_2_63_equals_scaled_fd(n):
    # at q = 7 the width bound N^n (N-1)^(n+1) needs the whole 64-bit slot at
    # n = 12 and more from n = 13 on, and the coefficients themselves pass
    # 2^63 at n = 14; the character sum still equals N^n F_D in Z[zeta_6]
    ev = _ev(7)
    N = ev.N
    assert hyperff._slot_bits(N ** n * (N - 1) ** (n + 1)) == {12: 64, 13: 72, 14: 80}[n]
    rng = random.Random(700 + n)
    for _ in range(3):
        mA, mC = rng.randrange(N), rng.randrange(N)
        mBs = tuple(rng.randrange(N) for _ in range(n))
        xs = tuple(rng.randrange(1, 7) for _ in range(n))
        cs = hyperff._charsum_vec(ev, mA, mBs, mC, xs)
        fd = hyperff._fd_vec(ev, mA, mBs, mC, xs)
        assert cyclo.vanishes(N, [N ** n * a - b for a, b in zip(fd, cs)])
        assert max(map(abs, cs)) > 2 ** {12: 56, 13: 60, 14: 63}[n]


# -- one-pass F_D rows -------------------------------------------------------------------

SLOTS = ("A", "B", "C", "AC")


def _rows_match(ev, args, slot, oracle_slot):
    rows = hyperff._fd_rows(ev, *args, slot)
    return len(rows) == ev.N and all(
        row == fd_with_theta(ev, *args, oracle_slot, th) for th, row in enumerate(rows))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fd_rows_match_per_theta_fd_exhaustive(q):
    ev = _ev(q)
    N = ev.N
    for n in (1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                for slot in SLOTS:
                    assert _rows_match(ev, args, slot, slot), (args, slot)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_fd_rows_match_per_theta_fd_sampled(q):
    ev = _ev(q)
    N = ev.N
    rng = random.Random(300 + q)
    for n in (1, 2, 3):
        for _ in range(3 if q == 64 else 8):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(q) for _ in range(n)))
            for slot in SLOTS:
                assert _rows_match(ev, args, slot, slot), (args, slot)


def test_fd_rows_negative_control():
    # the check can fail: the A-slot rows are not the C-slot family
    ev = _ev(5)
    cases = [(ms[0], ms[2:], ms[1], xs) for ms in itertools.product(range(4), repeat=3)
             for xs in itertools.product(range(1, 5), repeat=1)]
    assert all(_rows_match(ev, args, "A", "A") for args in cases)
    assert not all(_rows_match(ev, args, "A", "C") for args in cases)


def _genfn_cases(q, n, rng, points):
    N = q - 1
    for ms in itertools.product(range(N), repeat=n + 2):
        if points is None:
            pts = itertools.product(range(q), repeat=n + 1)
        else:
            pts = [tuple(rng.randrange(q) for _ in range(n + 1)) for _ in range(points)]
        for p in pts:
            for variant in ("T41", "T42", "T43"):
                yield (ms[0], ms[2:], ms[1], p[:-1], p[-1], variant)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_genfn_lhs_matches_per_theta_exhaustive(q):
    ev = _ev(q)
    rng = random.Random(q)
    for n in (1, 2):
        # every character tuple; every point at n = 1, three per tuple at n = 2
        for args in _genfn_cases(q, n, rng, None if n == 1 else 3):
            assert hyperff._genfn_lhs_vec(ev, *args) == per_theta_genfn_lhs(ev, *args), args


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_genfn_lhs_matches_per_theta_sampled(q):
    ev = _ev(q)
    N = ev.N
    rng = random.Random(100 + q)
    for n in ((1,) if q == 64 else (1, 2)):
        for _ in range(4 if q == 64 else 12):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(q) for _ in range(n)),
                    rng.randrange(q), rng.choice(("T41", "T42", "T43")))
            assert hyperff._genfn_lhs_vec(ev, *args) == per_theta_genfn_lhs(ev, *args), args


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ksum_rhs_matches_per_chi_exhaustive(q):
    ev = _ev(q)
    N = ev.N
    for n in (1, 2):
        for cs in itertools.product(range(N), repeat=n + 2):
            for es in itertools.product(range(q), repeat=n):
                assert identities._ksum_rhs(ev, n, cs, es) == \
                    per_chi_ksum_rhs(ev, n, cs, es), (cs, es)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_ksum_rhs_matches_per_chi_sampled(q):
    ev = _ev(q)
    N = ev.N
    rng = random.Random(200 + q)
    for n in ((1, 2) if q == 64 else (1, 2, 3)):
        for _ in range(4 if q == 64 else 12):
            cs = tuple(rng.randrange(N) for _ in range(n + 2))
            es = tuple(rng.randrange(q) for _ in range(n))
            assert identities._ksum_rhs(ev, n, cs, es) == per_chi_ksum_rhs(ev, n, cs, es)


# -- the F_D walk adds into the caller's vector ------------------------------------------


def _walk_matches(ev, args, v, e, s):
    out = list(v)
    got = hyperff._fd_vec(ev, *args, e0=e, s=s, out=out)
    return got is out and got == rot_add(list(v), hyperff._fd_vec(ev, *args), e, s)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fd_walk_adds_into_out_exhaustive(q):
    ev = _ev(q)
    N = ev.N
    rng = random.Random(400 + q)
    for n in (0, 1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                v = [rng.randint(-3, 3) for _ in range(N)]
                for e in (None, *range(N)):
                    for s in (-1, 1, q - 1):
                        assert _walk_matches(ev, args, v, e, s), (args, v, e, s)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_fd_walk_adds_into_out_sampled(q):
    ev = _ev(q)
    N = ev.N
    rng = random.Random(500 + q)
    for n in (0, 1, 2, 3):
        for _ in range(6):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(q) for _ in range(n)))
            v = [rng.randint(-5, 5) for _ in range(N)]
            e = rng.choice((None, rng.randrange(-3 * N, 3 * N)))
            s = rng.choice((-1, 1, q - 1, rng.randint(-100, 100)))
            assert _walk_matches(ev, args, v, e, s), (args, v, e, s)


def test_fd_walk_negative_control():
    # the check can fail: a shifted offset or a changed scale is seen
    ev = _ev(5)
    cases = [((ms[0], ms[2:], ms[1], xs), e) for ms in itertools.product(range(4), repeat=3)
             for xs in itertools.product(range(1, 5), repeat=1) for e in range(4)]
    v = [1, 0, -2, 0]

    def mutated(args, e, de, ds):
        want = rot_add(list(v), hyperff._fd_vec(ev, *args), e, 2)
        return hyperff._fd_vec(ev, *args, e0=e + de, s=2 + ds, out=list(v)) == want

    assert all(mutated(args, e, 0, 0) for args, e in cases)
    assert not all(mutated(args, e, 1, 0) for args, e in cases)
    assert not all(mutated(args, e, 0, 1) for args, e in cases)


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(cyclo._prime_divisors(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_n0_walk_is_the_binomial(q):
    # with no B-slot, u -> u/(u-1) maps the walk's terms onto {A choose C}'s
    ev = _ev(q)
    for mA, mC in itertools.product(range(ev.N), repeat=2):
        assert hyperff._fd_vec(ev, mA, (), mC, ()) == list(hyperff._binom_vec(ev, mA, mC))


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 64])
def test_n0_ac_rows_are_shifted_binomials(q):
    ev = _ev(q)
    N = ev.N
    pairs = itertools.product(range(N), repeat=2)
    if q > 13:
        pairs = random.Random(q).sample(list(pairs), 6)
    for mA, mC in pairs:
        rows = hyperff._fd_rows(ev, mA, (), mC, (), "AC")
        assert rows == [list(hyperff._binom_vec(ev, mA + th, mC + th)) for th in range(N)]
