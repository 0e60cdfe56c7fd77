"""Differential tests of the packed group-ring product, the walk's terms at a
slope and the coset-count kernel in hyperff.

Each fast path is compared with the loop it replaced, kept here as the
oracle: the schoolbook cyclic convolution of count vectors, the packer at
any bit width that the whole-byte product replaced (_pack, _unpack,
packed_conv; the packed oracles below use it too), the literal
N^n-term character sum, the character sum with one packed binomial per key
(packed_charsum) and with one packed binomial family per factor
(family_charsum, which the coset count replaced), the per-theta
generating-function sum, the per-chi k-sum, the per-y sum of T43's t = -1
term, and the rotate-and-add of a fresh F_D vector for the walk that adds
into the caller's vector.  The live entries of the walk's terms at a slope
(_walk_terms' (E, M, W) triple) are compared with the slot-coded F_D terms
and the Jacobi-form binomial terms they replaced (fd_terms, binom_terms), and
at every slope in {-1, 0, 1} per character with one _fd_vec walk per theta
(per_theta_walks).  The sums over characters count the terms of one walk
(_coset_counts).  One assignment is counted one of two ways over the field's
divisor table, as a block of one row (_coset_rows) or by Moebius inversion
(_coset_moebius); each is called directly, on (e, m) pair lists made triples
with two dead terms each (triple), against the state count it replaced
(state_coset_counts): at every N <= 64, at N in {255, 1023, 4092, 4095}, at
n = 1, 2 and 3, with empty lists and with every slope agreeing mod a prime of
N.  The character-sum form past the int64 count bound (N times the tuples at
least 2^63, where the Moebius count keeps Python ints) is compared with the
state count too, and two dispatch tests pin the cost rule's choice.  The
paths they replaced stay here as oracles: the pair loop that counted one factor
(pair_coset_counts), the literal sum over Z_N^n, the N rows of one-pass F_D
values (_fd_rows, itself checked against one _fd_vec walk per theta), the
packed per-theta binomial sum over those rows (binom_vec_sum), and the line
sum as N separate n = 0 walks.  The n = 0 walk, which is every binomial and
every Jacobi sum, is compared with the Jacobi-sum loop it replaced
(jacobi_loop), exhaustively at q <= 64 and sampled on the array walk at
q in {256, 1024, 4096}; the generating-function right-hand sides with their
scaled-point term written once are compared with the per-variant code they
replaced (per_variant_genfn_rhs); t3.ff-beta's double walk (_beta_vec) is
compared with one _fd_vec walk per u (per_u_beta).  The walks, int64 array
passes (_fd_vec, _beta_vec, and _walk_terms's terms of one assignment), are
compared with the list loops they replaced (_fd_list, _beta_list,
_walk_terms_list, in walk_oracles.py), each called directly.
Exhaustive over every character tuple at q <= 5, sampled at larger q; mutants
of the one-row count (the result read from the wrong axis, its scale,
residues and tiling), of the Moebius count (dead terms counted, int64 counts
past the bound, the mu sign, a divisor skipped, the fold modulus, the join's
sign, a histogram cell transposed, the last block, the scale), of
the slopes and twists, of the slot width (one byte short), of the T43
term, of the double walk (its rotation, fixed slots, dead markers and per-u
exponent) and of the walks (the dead term kept, a rotation off by one, `out`
replaced, the last partial block dropped) show that the comparisons can
fail."""

import inspect
import itertools
import random
import textwrap
from itertools import chain
from math import gcd

import numpy as np
import pytest

from ffhyper import Char, cyclo, ff_core, hyperff, identities
from walk_oracles import _beta_list, _fd_list, _walk_terms_list


def _field(q):
    return ff_core.build_field(*ff_core.split_prime_power(q))


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


# Slots per Horner or shift-and-mask run in _pack and _slots; longer vectors
# are halved, which keeps their big-int work near-linear in the length.
_RUN = 32


def _pack(v, w: int) -> int:
    """Kronecker substitution at any slot width w: sum_i v[i] 2^(w i)."""
    n = len(v)
    if n > _RUN:
        m = n // 2
        return _pack(v[:m], w) + (_pack(v[m:], w) << (w * m))
    P = 0
    for x in reversed(v):
        P = (P << w) + x
    return P


def _slots(G: int, w: int, n: int) -> list[int]:
    """The n w-bit slots of G >= 0."""
    if n > _RUN:
        m = n // 2
        return _slots(G & ((1 << (w * m)) - 1), w, m) + _slots(G >> (w * m), w, n - m)
    mask = (1 << w) - 1
    return [G >> (w * i) & mask for i in range(n)]


def _unpack(P: int, w: int, N: int) -> list[int]:
    """The group-ring vector of a packed value P = sum_i r_i 2^(w i), every
    r_i >= 0: entry j is the sum of r_i over i = j mod N.  Exact when every
    entry is below 2^w."""
    k = w * N
    M = (1 << k) - 1  # 2^k = 1 mod M: folding slots mod N is reducing P mod M
    while P > M:
        P = (P & M) + (P >> k)
    return _slots(P, w, N)


def packed_conv(a, b, N):
    """The product as hyperff._conv packed it before whole-byte slots: slots
    of the bit length of sum(a) sum(b), at any width."""
    w = (sum(a) * sum(b)).bit_length()
    return _unpack(_pack(a, w) * _pack(b, w), w, N)


def jacobi_loop(f, ma, mb, e0=0):
    """zeta^e0 J(chi^ma, chi^mb), one loop over u: the Jacobi sum as hyperff
    computed it before every binomial became the n = 0 walk."""
    N, Z = f.n_chars, f.zech_table
    out = [0] * N
    ma %= N
    mb %= N
    for i in range(1, N):  # u = 0 and u = 1 contribute chi(0) = 0
        out[(e0 + ma * i + mb * Z[i]) % N] += 1
    return out


def binom_loop(f, ma, mb):
    """{chi^ma choose chi^mb} = chi^mb(-1) J(chi^ma, chi^-mb), by jacobi_loop."""
    return jacobi_loop(f, ma, -mb, mb * f.log_neg1)


def binom_vec(f, ma, mb):
    """{chi^ma choose chi^mb}: the n = 0 walk, as a list."""
    return hyperff._fd_vec(f, ma, (), mb, ()).tolist()


def literal_charsum(f, mA, mBs, mC, xs):
    N = f.n_chars
    out = [0] * N
    if any(x == 0 for x in xs):
        return out
    xlogs = [f.log_table[x] for x in xs]
    for chs in itertools.product(range(N), repeat=len(mBs)):
        s = sum(chs)
        term = list(binom_vec(f, mA + s, mC + s))
        e = 0
        for mb, ch, lx in zip(mBs, chs, xlogs):
            term = school_conv(term, binom_vec(f, mb + ch, ch), N)
            e += ch * lx
        rot_add(out, term, e)
    return out


def per_theta_genfn_lhs(f, mA, mBs, mC, xs, t, variant):
    N = f.n_chars
    out = [0] * N
    if t == 0:
        return out
    for th in range(N):
        if variant == "T41":
            term = school_conv(binom_vec(f, mA - mC + th, th),
                               hyperff._fd_vec(f, mA + th, mBs, mC, xs).tolist(), N)
        elif variant == "T42":
            term = school_conv(binom_vec(f, mBs[-1] + th, th),
                               hyperff._fd_vec(f, mA, (*mBs[:-1], mBs[-1] + th), mC,
                                               xs).tolist(), N)
        else:
            term = school_conv(binom_vec(f, mA - mC + th, th),
                               hyperff._fd_vec(f, mA, mBs, mC - th, xs).tolist(), N)
        rot_add(out, term, th * f.log_table[t])
    return out


def fd_with_theta(f, mA, mBs, mC, xs, slot, th):
    """_fd_vec with chi^theta put in one slot, as _fd_rows's row theta (a
    list)."""
    if slot == "A":
        return hyperff._fd_vec(f, mA + th, mBs, mC, xs).tolist()
    if slot == "B":
        return hyperff._fd_vec(f, mA, (*mBs[:-1], mBs[-1] + th), mC, xs).tolist()
    if slot == "C":
        return hyperff._fd_vec(f, mA, mBs, mC - th, xs).tolist()
    return hyperff._fd_vec(f, mA + th, mBs, mC + th, xs).tolist()  # "AC"


def _fd_rows(f, mA, mBs, mC, xs, slot):
    """The N vectors _fd_vec gives with chi^theta put in one slot, row theta
    for theta = 0..N-1: A theta (slot "A"), B_n theta ("B"), C theta^-1 ("C"),
    or A theta and C theta together ("AC").  Row theta's term at u = g^i has
    exponent e(i) + theta d(i), e(i) that of _fd_vec and d(i) fixed by the
    slot, so one walk over u fills every row.  Slot "B" needs n >= 1."""
    N, Z, l1 = f.n_chars, f.zech_table, f.log_neg1
    rows = [[0] * N for _ in range(N)]
    if any(x == 0 for x in xs):
        return rows
    mA %= N
    mAC = (mC - mA) % N
    e0 = (mA + mC) * l1
    slots = [(-mb % N, f.log_table[x]) for mb, x in zip(mBs, xs)]
    d = {"A": lambda i: l1 + i - Z[i], "B": lambda i: -Z[(slots[-1][1] + i) % N],
         "C": lambda i: -l1 - Z[i], "AC": lambda i: 2 * l1 + i}[slot]
    for i in range(1, N):
        e = e0 + mA * i + mAC * Z[i]
        for mb, lx in slots:
            z = Z[(lx + i) % N]
            if z < 0:
                break
            e += mb * z
        else:
            k, dk = e, d(i)
            for row in rows:  # row theta: e + theta d(i)
                row[k % N] += 1
                k += dk
    return rows


def width(bound):
    """Packed slot width for nonnegative integers of at most `bound`."""
    return bound.bit_length()


def binom_packed(f, ma, mb, w):
    """{A choose B} packed at slot width w, one binomial at a time."""
    return _pack(binom_vec(f, ma, mb), w)


def binom_sum(f, keys, Vs, k, w):
    """sum_c zeta^(c k) {A_c choose B_c} V_c over keys[c] = (A_c, B_c) and
    V_c = Vs[c] packed at width w: one packed accumulation (the twist is a
    shift) and one unpack."""
    N = f.n_chars
    acc = 0
    for c, ((ma, mb), V) in enumerate(zip(keys, Vs)):
        if V:
            acc += (binom_packed(f, ma, mb, w) << (w * (c * k % N))) * V
    return _unpack(acc, w, N)


def packed_charsum(f, mA, mBs, mC, xs):
    """The character-sum form as hyperff._charsum_vec computed it before the
    binomial families: each binomial packed by its own key, the top factor
    summed by binom_sum."""
    N, L = f.n_chars, f.log_table
    if any(x == 0 for x in xs):
        return [0] * N
    n = len(mBs)
    w = width(N ** n * (N - 1) ** (n + 1))
    W = [1] + [0] * (N - 1)
    for mb, x in zip(mBs, xs):
        lx = L[x]
        P = [binom_packed(f, mb + c, c, w) << (w * (c * lx % N)) for c in range(N)]
        nz = [(c, v) for c, v in enumerate(W) if v]
        W = [sum(v * P[(s - c) % N] for c, v in nz) for s in range(N)]
    return binom_sum(f, [(mA + s, mC + s) for s in range(N)], W, 0, w)


def binom_family(f, d, w):
    """F_d[c] = {chi^(d+c) choose chi^c} packed at slot width w, c = 0..N-1."""
    return [binom_packed(f, d + c, c, w) for c in range(f.n_chars)]


def family_charsum(f, mA, mBs, mC, xs):
    """The character-sum form as hyperff._charsum_vec computed it before the
    coset count: W = P_1 * ... * P_n over the character index, P_j[c] =
    zeta^(c log x_j) F_{B_j}[c], then sum_s F_{A-C}[C + s] W[s], all packed at
    the width of N^n terms of l1 norm at most (N - 1)^(n+1)."""
    N, L = f.n_chars, f.log_table
    if any(x == 0 for x in xs):
        return [0] * N
    n = len(mBs)
    w = width(N ** n * (N - 1) ** (n + 1))
    W = [1] + [0] * (N - 1)  # zeta^0 at character index 0: the empty product
    for mb, x in zip(mBs, xs):
        lx = L[x]
        P = [b << (w * (c * lx % N)) for c, b in enumerate(binom_family(f, mb, w))]
        nz = [(c, v) for c, v in enumerate(W) if v]
        W = [sum(v * P[(s - c) % N] for c, v in nz) for s in range(N)]
    F = binom_family(f, mA - mC, w)
    return _unpack(sum(F[(mC + s) % N] * v for s, v in enumerate(W) if v), w, N)


def pair_coset_counts(N, terms, shifts):
    """The theta-sum count as hyperff._coset_counts computed it for one
    factor: every pair of a term and a shift, counted by e mod g in the row
    of g = gcd(m, N), and each row tiled over the N exponents."""
    G = [gcd(m, N) for m in range(N)] * 2
    rows = {g: [0] * g for g in G}
    R = [rows[g] for g in G]  # the row of gcd(m, N), for 0 <= m < 2N
    terms = [(e1, m1 % N) for e1, m1 in terms]
    for e2, m2 in shifts:
        m2 %= N
        for e1, m1 in terms:
            m = m1 + m2
            R[m][(e1 + e2) % G[m]] += 1
    out = [0] * N
    for g, row in rows.items():
        if any(row):
            out = [v + g * c for v, c in zip(out, row * (N // g))]
    return out


def state_coset_counts(N, terms, *factors):
    """The theta-sum count as hyperff._coset_counts computed it before the
    divisor table: partial tuples folded as states (g, m0 mod g, e mod g),
    with gcd lists built per call and per state divisor, one row per divisor
    of N in a dict, and each row tiled over the N exponents."""
    def by_divisor(states, fac):
        for g, R in states.items():
            yield [gcd(k, g) for k in range(g)] * 2, R, [(m % g, e) for e, m in fac]

    *middle, last = factors
    states = {N: [(m0 % N, e0, 1) for e0, m0 in terms]}
    for fac in middle:
        counts = {}
        for Gg, R, fac_g in by_divisor(states, fac):
            for m, e in fac_g:
                for r, x, c in R:
                    h = Gg[r + m]
                    key = (h, r % h, (x + e) % h)
                    counts[key] = counts.get(key, 0) + c
        states = {}
        for (h, r, x), c in counts.items():
            states.setdefault(h, []).append((r, x, c))
    rows = {g: [0] * g for g in range(1, N + 1) if N % g == 0}
    for Gg, R, last_g in by_divisor(states, last):
        for m, e in last_g:
            for r, x, c in R:
                k = r + m
                rows[Gg[k]][(x + e) % Gg[k]] += c
    out = [0] * N
    for g, row in rows.items():
        w = N ** (len(factors) - 1) * g
        out = [v + w * c for v, c in zip(out, row * (N // g))]
    return out


def triple(pairs):
    """One assignment's (E, M, W) terms from a list of (e, m) pairs, each of
    weight 1, followed by two dead terms (weight 0) that a count must skip."""
    E, M = (np.array([p[i] for p in pairs] + [1, 2], dtype=np.int64) for i in (0, 1))
    return E, M, np.arange(len(E)) < len(pairs)


def live_terms(terms):
    """The (e, m) pairs of one assignment's (E, M, W) terms of weight 1, in
    order; an int is one term."""
    cols = np.broadcast_arrays(*map(np.atleast_1d, terms))
    return [(e, m) for e, m, w in zip(*(a.tolist() for a in cols)) if w]


def run_count(name, D, *pairs):
    """One assignment's count by hyperff.<name>, the one-row _coset_rows or
    _coset_moebius, of pair lists made triples, as a list."""
    out = getattr(hyperff, name)(D, *map(triple, pairs))
    return (out[0] if name == "_coset_rows" else out).tolist()


def charsum_oracle(f, mA, mBs, mC, xs):
    """The character-sum form as the state count of the list loop's terms:
    the n = 0 walk at slope (1, 1) against each twisted binomial's."""
    N, L = f.n_chars, f.log_table
    if 0 in xs:
        return [0] * N
    return state_coset_counts(N, _walk_terms_list(f, mA, (), mC, (), 1, (), 1),
                              *(_walk_terms_list(f, mb, (), mb, (), 1, (), 0, L[x])
                                for mb, x in zip(mBs, xs)))


def binom_vec_sum(f, keys, vecs, k):
    """sum_c zeta^(c k) {keys[c]} vecs[c] for length-N vectors vecs[c]; each
    term's l1 is at most (N - 1) l1(vecs[c])."""
    w = width((f.n_chars - 1) * sum(chain.from_iterable(vecs)))
    return binom_sum(f, keys, [_pack(v, w) for v in vecs], k, w)


def rows_theta_sum(f, mA, mBs, mC, xs, slot, b, k):
    """The path _theta_sum replaced: N rows, then one packed sum over theta."""
    keys = [(b + th, th) for th in range(f.n_chars)]
    return binom_vec_sum(f, keys, _fd_rows(f, mA, mBs, mC, xs, slot), k)


def fd_terms(f, mA, mBs, mC, xs, slot):
    """The terms of F_D with chi^theta put in one slot, as hyperff listed
    them before _walk_terms: A theta (slot "A"), B_n theta ("B"), C theta^-1
    ("C"), or A theta and C theta together ("AC").  The term at u = g^i has
    exponent e(i) + theta d(i), e(i) that of _fd_vec and d(i) fixed by the
    slot's code; yields (e(i), d(i)) for each term that is not zero.  Slot "B"
    needs n >= 1."""
    N, Z, l1 = f.n_chars, f.zech_table, f.log_neg1
    if 0 in xs:
        return
    mA %= N
    mAC = (mC - mA) % N
    e0 = (mA + mC) * l1
    slots = [(-mb % N, f.log_table[x]) for mb, x in zip(mBs, xs)]
    # d(i) = d0 + di i + dz Z[i] + dn z, z = log(1 - x_n u) from the last slot
    d0, di, dz, dn = {"A": (l1, 1, -1, 0), "B": (0, 0, 0, -1), "C": (-l1, 0, -1, 0),
                      "AC": (2 * l1, 1, 0, 0)}[slot]
    z = 0
    for i in range(1, N):
        e = e0 + mA * i + mAC * Z[i]
        for mb, lx in slots:
            z = Z[(lx + i) % N]
            if z < 0:
                break
            e += mb * z
        else:
            yield e, d0 + di * i + dz * Z[i] + dn * z


def binom_terms(f, b, k):
    """The terms of zeta^(theta k) {chi^b theta choose theta} as (e, m) pairs
    of exponent e + theta m, as hyperff listed them before _walk_terms: at
    v = g^j, e = b j and m = log(-1) + j - Z[j] + k."""
    Z, l1 = f.zech_table, f.log_neg1
    return [(b * j, l1 + j - Z[j] + k) for j in range(1, f.n_chars)]


# (dA, dB_n, dC): the slope of each slot code on (A, B_n, C)
SLOT_SLOPES = {"A": (1, 0, 0), "B": (0, 1, 0), "C": (0, 0, -1), "AC": (1, 0, 1)}


def slot_terms(f, mA, mBs, mC, xs, slot):
    """The live terms of hyperff._walk_terms at the slope of a slot code."""
    dA, dB, dC = SLOT_SLOPES[slot]
    dBs = (0,) * (len(mBs) - 1) + (dB,) if mBs else ()
    return live_terms(hyperff._walk_terms(f, mA, mBs, mC, xs, dA, dBs, dC))


def spread(N, terms):
    """Row theta, theta = 0..N-1, of the (e, d) terms: each at e + theta d."""
    rows = [[0] * N for _ in range(N)]
    for e, d in terms:
        for th, row in enumerate(rows):
            row[(e + th * d) % N] += 1
    return rows


def rows_from_terms(f, mA, mBs, mC, xs, slot):
    """The rows of _fd_rows, spread from the terms of hyperff._walk_terms."""
    return spread(f.n_chars, slot_terms(f, mA, mBs, mC, xs, slot))


def per_theta_walks(f, mA, mBs, mC, xs, dA, dBs, dC, k):
    """Row theta: the _fd_vec walk at A chi^(theta dA), B_j chi^(theta dB_j),
    C chi^(theta dC), rotated by theta k."""
    N = f.n_chars
    return [rot_add([0] * N, hyperff._fd_vec(f, mA + th * dA,
                                             [mb + th * db for mb, db in zip(mBs, dBs)],
                                             mC + th * dC, xs), th * k)
            for th in range(N)]


def per_theta_line_vecs(f, ma, mb):
    """x -> sum over theta of chi^theta(x) {A chi^theta choose B chi^theta}
    from N separate n = 0 walks: each is taken once and, for each x, the one
    for theta is rotated by theta log x."""
    N = f.n_chars
    walks = [hyperff._fd_vec(f, ma + th, (), mb + th, ()).tolist() for th in range(N)]

    def at(x):
        out = [0] * N
        if x != 0:
            for th, v in enumerate(walks):
                s = th * f.log_table[x] % N
                out = [a + b for a, b in zip(out, v[-s:] + v[:-s])]
        return out
    return at


def literal_theta_sum(N, terms, shifts=((0, 0),)):
    """sum over theta of zeta^(e1 + e2 + theta (m1 + m2)), term by term."""
    out = [0] * N
    for th in range(N):
        for e1, m1 in terms:
            for e2, m2 in shifts:
                out[(e1 + e2 + th * (m1 + m2)) % N] += 1
    return out


def literal_multi_theta_sum(N, terms, *factors):
    """sum over theta in Z_N^n of zeta^(e0 + sum_j e_j + sum_j theta_j
    (m0 + m_j)), tuple by tuple and theta by theta."""
    out = [0] * N
    for (e0, m0), *picks in itertools.product(terms, *factors):
        for th in itertools.product(range(N), repeat=len(factors)):
            out[(e0 + sum(e + t * (m0 + m) for (e, m), t in zip(picks, th))) % N] += 1
    return out


def per_chi_ksum_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    N = f.n_chars
    out = [0] * N
    if es[-1] != 0:
        for ch in range(N):
            term = school_conv(binom_vec(f, Bs[-1] + ch, ch),
                               hyperff._fd_vec(f, A + ch, Bs[:-1], C + ch, es[:-1]), N)
            rot_add(out, term, ch * f.log_table[es[-1]])
    return out


def mono_exp(f, pairs):
    """The exponent of a product of character values chi_m(x), None if any
    x is 0: the monomial of the sides before it carried a zero weight."""
    e = 0
    for m, x in pairs:
        if x == 0:
            return None
        e += (m % f.n_chars) * f.log_table[x]
    return e


def addm(out, e, scale):
    """out += scale zeta^e, nothing for a zero monomial (e None)."""
    if e is not None:
        hyperff._addm(out, e, scale)


def loop_t43_rhs(f, mA, mBs, mC, xs, t):
    """The T43 right-hand side with its t = -1 term summed over y, one
    monomial per y, as _genfn_rhs_vec computed it before that term became
    one walk plus the y = 1 monomial."""
    N, q = f.n_chars, f.q
    out = np.zeros(N, dtype=np.int64)
    onept = f.add(1, t)
    if t != 0 and onept != 0:
        hyperff._fd_vec(f, mA, mBs, mC, [f.mul(x, onept) for x in xs],
                        e0=mono_exp(f, [(mC, onept)]), s=q - 1, out=out)
    e = mono_exp(f, [(mC - mA, f.neg(t)), *((-mb, f.sub(1, x)) for mb, x in zip(mBs, xs))])
    if all(x != 0 for x in xs):
        addm(out, e, -(q - 1))
    if t == f.p - 1 and all(x != 0 for x in xs):
        for y in range(1, q):
            e = mono_exp(f, [(mC, y), *((-mb, f.sub(1, f.mul(x, y))) for mb, x in zip(mBs, xs))])
            addm(out, e, q - 1)
    return out.tolist()


def per_variant_genfn_rhs(f, mA, mBs, mC, xs, t, variant):
    """The T41-T43 right-hand sides as _genfn_rhs_vec computed them before
    the scaled-point F_D term and the T41/T43 monomial were written once:
    one branch per variant, each with its own eps guards."""
    N, q = f.n_chars, f.q
    out = np.zeros(N, dtype=np.int64)
    mono, fd = mono_exp, hyperff._fd_vec

    if variant == "T41":
        if t != 0 and t != 1:  # eps(t), and chi_A(1-t) kills t = 1
            inv1t = f.inv(f.sub(1, t))
            fd(f, mA, mBs, mC, [f.mul(x, inv1t) for x in xs],
               e0=mono(f, [(-mA, f.sub(1, t))]), s=q - 1, out=out)
        e = mono(f, [(mC - mA, f.neg(t)), *((-mb, f.sub(1, x)) for mb, x in zip(mBs, xs))])
        if all(x != 0 for x in xs):
            addm(out, e, -(q - 1))
        return out.tolist()

    if variant == "T42":
        xn = xs[-1]
        if t != 0 and t != 1:
            fd(f, mA, mBs, mC, (*xs[:-1], f.div(xn, f.sub(1, t))),
               e0=mono(f, [(-mBs[-1], f.sub(1, t))]), s=q - 1, out=out)
        e = mono(f, [(-mBs[-1], f.neg(t)), (sum(mBs[:-1]) - mC, xn), (mC - mA, f.sub(1, xn)),
                     *((-mb, f.sub(xn, x)) for mb, x in zip(mBs[:-1], xs[:-1]))])
        if all(x != 0 for x in xs[:-1]):
            addm(out, e, -(q - 1))
        if t == 1 and xn != 0:
            fd(f, mA - mBs[-1], mBs[:-1], mC - mBs[-1], xs[:-1],
               e0=mono(f, [(-mBs[-1], f.neg(xn))]), s=q - 1, out=out)
        return out.tolist()

    onept = f.add(1, t)
    if t != 0 and onept != 0:
        fd(f, mA, mBs, mC, [f.mul(x, onept) for x in xs],
           e0=mono(f, [(mC, onept)]), s=q - 1, out=out)
    e = mono(f, [(mC - mA, f.neg(t)), *((-mb, f.sub(1, x)) for mb, x in zip(mBs, xs))])
    if all(x != 0 for x in xs):
        addm(out, e, -(q - 1))
    if t == f.p - 1 and all(x != 0 for x in xs):
        fd(f, mC, mBs, mC, xs, s=q - 1, out=out)
        addm(out, mono(f, [(-mb, f.sub(1, x)) for mb, x in zip(mBs, xs)]), q - 1)
    return out.tolist()


# -- the packing layer --------------------------------------------------------------


@pytest.mark.parametrize("N", range(1, 13))
def test_conv_matches_schoolbook_exhaustive(N):
    # against schoolbook and the any-width packer: up to N = 4 every pair of
    # count vectors with entries 0..2; from N = 5 every vector with entries
    # 0..2 (0..1 from N = 6) against itself, its reversal, a unit vector, the
    # all-twos vector and a fixed vector of small counts
    vecs = [list(a) for a in itertools.product((0, 1, 2) if N <= 5 else (0, 1), repeat=N)]
    rng = random.Random(70 + N)
    unit = [0] * N
    unit[rng.randrange(N)] = 1
    fixed = [unit, [2] * N, [rng.randrange(4) for _ in range(N)]]
    for a in vecs:
        for b in vecs if N <= 4 else [a, a[::-1], *fixed]:
            assert hyperff._conv(a, b, N).tolist() == school_conv(a, b, N) == \
                packed_conv(a, b, N), (a, b)


@pytest.mark.parametrize("N", [5, 6, 7, 8, 12, 33, 63, 255, 1023, 4095])
def test_conv_matches_schoolbook_sampled(N):
    rng = random.Random(N)
    for span in (1, 50, 10 ** 6):
        for _ in range(3 if N < 100 else 1):
            a = [rng.randint(0, span) for _ in range(N)]
            b = [rng.randint(0, span) for _ in range(N)]
            if N > 1023:  # keep the schoolbook oracle to N x 16 products
                b = [v if i % (N // 16) == 0 else 0 for i, v in enumerate(b)]
            assert hyperff._conv(a, b, N).tolist() == school_conv(a, b, N)


@pytest.mark.parametrize("N", [1, 2, 5, 12, 63])
def test_conv_near_and_beyond_2_63(N):
    # slots are at most 8 bytes and the product is an int64 row: an entry of
    # 2^63 or more, a negative entry or a bound sum(a) sum(b) of 2^63 or
    # more is refused, with a zero operand too, and so is a sum that passes
    # int64 itself (two entries of 2^62); a bound of 2^63 - 1 is not
    one = [1] + [0] * (N - 1)
    zero = [0] * N
    for top in (2 ** 63, 2 ** 63 + 7, 2 ** 64, 2 ** 200):
        for a, b in (([top] + zero[1:], one), (one, [top] + zero[1:]), ([top] * N, zero)):
            with pytest.raises(ValueError, match=r"2\^63"):
                hyperff._conv(a, b, N)
    for a, b in (([-1] + one[1:], one), (one, [0] * (N - 1) + [-1]), ([-5] * N, zero)):
        with pytest.raises(ValueError, match=r"2\^63"):
            hyperff._conv(a, b, N)
    over = [([2 ** 32] * N, [2 ** 31] + zero[1:]), ([2 ** 62] + zero[1:], [2] + zero[1:])]
    if N > 1:
        over += [([2 ** 62] * 2 + zero[2:], one), (one, [2 ** 62] * 2 + zero[2:])]
    for a, b in over:
        with pytest.raises(ValueError, match=r"2\^63"):
            hyperff._conv(a, b, N)
    top = [2 ** 63 - 1] + zero[1:]
    assert hyperff._conv(top, one, N).tolist() == top
    if N > 1:
        a = [2 ** 31] + [0] * (N - 2) + [2 ** 31]
        b = [2 ** 30 - 1] + [0] * (N - 2) + [2 ** 30]
        assert sum(a) * sum(b) == 2 ** 63 - 2 ** 32
        assert hyperff._conv(a, b, N).tolist() == school_conv(a, b, N) == packed_conv(a, b, N)


@pytest.mark.parametrize("N", [1, 2])
def test_conv_at_every_byte_edge(N):
    # bounds of 2^(8k) - 1 (k bytes) and 2^(8k) (k + 1 bytes), k = 1..7, each
    # reached by one coefficient: bound times 1 and the factors 2^(4k) -+ 1
    # and 2^(4k) 2^(4k), at every pair of slots; a bound split over both
    # slots; a zero operand gives the zero vector
    zero = [0] * N
    for k in range(1, 8):
        h = 2 ** (4 * k)
        for bound, x, y in ((h * h - 1, h - 1, h + 1), (h * h, h, h)):
            for (u, v), i, j in itertools.product(((bound, 1), (x, y)), range(N), range(N)):
                a, b, want = zero.copy(), zero.copy(), zero.copy()
                a[i], b[j], want[(i + j) % N] = u, v, bound
                assert hyperff._conv(a, b, N).tolist() == want == packed_conv(a, b, N)
                assert hyperff._conv(a, zero, N).tolist() == \
                    hyperff._conv(zero, b, N).tolist() == zero
            a = [bound // 3, bound - bound // 3][:N] if N == 2 else [bound]
            for j in range(N):
                b = zero.copy()
                b[j] = 1
                assert hyperff._conv(a, b, N).tolist() == school_conv(a, b, N) == \
                    packed_conv(a, b, N)
    assert hyperff._conv(zero, zero, N).tolist() == zero


@pytest.mark.parametrize("q", [3, 4, 5, 7, 8, 9, 13, 64, 256, 1024, 4096])
def test_conv_of_walk_histograms_matches_schoolbook(q):
    # the operands _conv gets: binomial and F_D vectors, as in p2.prod and
    # t3.ff-beta's right-hand side, against schoolbook up to N = 1023 and
    # the any-width packer at every N; slots are one byte up to q = 17, two
    # at q = 64 and 256, three at q = 1024 and 4096.  The trivial binomial,
    # every count at one exponent, squared reaches the bound (q - 2)^2
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1400 + q)
    trivial = binom_vec(f, 0, 0)
    pairs = [(trivial, trivial)]
    for _ in range({256: 2, 1024: 2, 4096: 3}.get(q, 6)):
        m = [rng.randrange(N) for _ in range(5)]
        xs = tuple(rng.randrange(1, q) for _ in range(2))
        a = binom_vec(f, m[0], m[1])
        pairs += [(a, hyperff._fd_vec(f, m[2], m[3:], m[4], xs).tolist()), (a, a)]
    for a, b in pairs:
        got = hyperff._conv(a, b, N).tolist()
        assert got == packed_conv(a, b, N)
        if N <= 1023:
            assert got == school_conv(a, b, N)
    assert hyperff._conv(trivial, trivial, N)[0] == (q - 2) ** 2


def test_round_trip_at_the_width_edge():
    # a slot of a bound's bit length holds it; one bit fewer does not
    for bound in (0, 1, 127, 128, 255, 2 ** 31, 2 ** 63 - 1, 2 ** 63, 2 ** 64, 2 ** 100):
        w = width(bound)
        assert bound < 2 ** w
        for v in ([bound, 0, bound], [bound] * 5, [bound] * 70):
            assert _unpack(_pack(v, w), w, len(v)) == v
            if bound > 1:  # (a zero width holds only zeros)
                assert _unpack(_pack(v, w - 1), w - 1, len(v)) != v


def test_unpack_folds_every_wrap():
    # a packed value spanning four times N slots folds to the same vector as
    # summing the slots by residue mod N
    rng = random.Random(3)
    for N in (1, 3, 7, 40):
        raw = [rng.randint(0, 1000) for _ in range(4 * N + 1)]
        want = [sum(raw[i::N]) for i in range(N)]
        w = width(sum(raw))
        assert _unpack(_pack(raw, w), w, N) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 64])
def test_binomial_l1_is_n_minus_1(q):
    # _conv's operands are counts: every binomial vector counts the q - 2
    # values u != 0, 1
    f = _field(q)
    for ma, mb in itertools.product(range(f.n_chars), repeat=2):
        v = binom_vec(f, ma, mb)
        assert min(v) >= 0 and sum(v) == f.n_chars - 1


# -- character-index sums ---------------------------------------------------------------


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_charsum_matches_literal_exhaustive(q):
    f = _field(q)
    N = f.n_chars
    for n in (1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                got = hyperff._charsum_vec(f, *args).tolist()
                assert got == literal_charsum(f, *args) == packed_charsum(f, *args), args


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_charsum_matches_family_oracle_exhaustive(q):
    # every character tuple at n = 1, 2, 3, with every point tuple, except at
    # q = 5, n = 3: there four seeded nonzero point tuples per character tuple
    f = _field(q)
    N = f.n_chars
    rng = random.Random(q)
    for n in (1, 2, 3):
        for ms in itertools.product(range(N), repeat=n + 2):
            if (q, n) == (5, 3):
                pts = [tuple(rng.randrange(1, q) for _ in range(n)) for _ in range(4)]
            else:
                pts = itertools.product(range(q), repeat=n)
            for xs in pts:
                args = (ms[0], ms[2:], ms[1], xs)
                assert hyperff._charsum_vec(f, *args).tolist() == family_charsum(f, *args), args


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_charsum_matches_literal_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(q)
    for n in ((1,) if q == 64 else (1, 2, 3)):
        for _ in range(4 if q == 64 else 10):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(1, q) for _ in range(n)))
            assert hyperff._charsum_vec(f, *args).tolist() == literal_charsum(f, *args), args


@pytest.mark.parametrize("q, n", [(7, 12), (7, 13), (7, 14), (7, 26), (64, 9), (3, 70)],
                         ids=["12", "13", "14", "7-26", "64-9", "3-70"])
def test_charsum_beyond_2_63_equals_scaled_fd(q, n):
    # at q = 7 the coefficients pass 2^63 at n = 14; the character sum still
    # equals N^n F_D in Z[zeta_6].  The other draws pass the counts' int64
    # bounds, and there the sum is also the state count of the list loop's
    # terms: at q = 7, n = 26 (6^27 tuples) and q = 64, n = 9 (62^10) N times
    # the tuples passes 2^63, so the Moebius count keeps Python ints; at q = 3
    # every list is one term, and N^n times the tuples passes 2^63 from
    # n = 63, where a count of one row would overflow
    f = _field(q)
    N = f.n_chars
    rng = random.Random(700 + n)
    for _ in range(1 if q == 64 else 3):
        mA, mC = rng.randrange(N), rng.randrange(N)
        mBs = tuple(rng.randrange(N) for _ in range(n))
        xs = tuple(rng.randrange(1, q) for _ in range(n))
        cs = hyperff._charsum_vec(f, mA, mBs, mC, xs).tolist()
        fd = hyperff._fd_vec(f, mA, mBs, mC, xs).tolist()
        assert cyclo.vanishes(N, [N ** n * a - b for a, b in zip(fd, cs)])
        if q == 7 and n <= 14:
            assert max(map(abs, cs)) > 2 ** {12: 56, 13: 60, 14: 63}[n]
        else:
            assert cs == charsum_oracle(f, mA, mBs, mC, xs)


def _charsum_draw(rng, q, n):
    N = q - 1
    return (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
            rng.randrange(N), tuple(rng.randrange(1, q) for _ in range(n)))


@pytest.mark.parametrize("q", [7, 8, 9, 11, 13, 16, 27, 64])
def test_charsum_matches_packed_oracle_sampled(q):
    # the coset count against the binomial families and against one packed
    # binomial per key
    f = _field(q)
    rng = random.Random(900 + q)
    for n in (1, 2, 3):
        for _ in range(2 if q == 64 else 8):
            args = _charsum_draw(rng, q, n)
            got = hyperff._charsum_vec(f, *args).tolist()
            assert got == family_charsum(f, *args) == packed_charsum(f, *args), args


def test_charsum_mutants_are_caught(monkeypatch):
    # n = 1, 2 and 3 draws at q = 7, where N = 6 has the divisors 2 and 3,
    # each a block of one row; and n = 26 draws, counted by Moebius inversion
    rng = random.Random(5)
    small = [_charsum_draw(rng, 7, n) for n in (1, 2, 3) * 8]
    large = [_charsum_draw(rng, 7, 26) for _ in range(2)]
    f = _field(7)
    want = [[family_charsum(f, *args) for args in cases] for cases in (small, large)]

    def all_match():
        """(every small draw matches, every large draw matches); a draw that
        raises does not match."""
        try:
            return tuple(all(hyperff._charsum_vec(f, *args).tolist() == w
                             for args, w in zip(cases, ws))
                         for cases, ws in zip((small, large), want))
        except (IndexError, ValueError):
            return (False, False)

    assert all_match() == (True, True)
    for name, old, new, caught in [
        # the twist log x_j dropped
        ("_charsum_vec", "1, (), 0, _log(f, x), x != 0)", "1, (), 0, 0, x != 0)", (False, False)),
        # the one-row result read down its first column, not along its row
        ("_coset_counts", "_coset_rows(D, *lists)[0]", "_coset_rows(D, *lists)[:, 0]",
         (False, True)),
        # the scale N^(n-1) taken as N^n, in either count
        ("_coset_rows", "N ** (len(lists) - 2)", "N ** (len(lists) - 1)", (False, True)),
        ("_tile", "N ** (n - 1)", "N ** n", (True, False)),
    ]:
        with monkeypatch.context() as m:
            _mutate(m, name, old, new)
            assert all_match() == caught, (name, old, new)
    assert all_match() == (True, True)


# -- one-pass F_D rows -------------------------------------------------------------------

SLOTS = ("A", "B", "C", "AC")


def _rows_match(f, args, slot, oracle_slot):
    """The oracle rows and the rows spread from the walk's terms both equal
    one _fd_vec walk per theta."""
    want = [fd_with_theta(f, *args, oracle_slot, th) for th in range(f.n_chars)]
    return _fd_rows(f, *args, slot) == want and rows_from_terms(f, *args, slot) == want


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fd_rows_match_per_theta_fd_exhaustive(q):
    f = _field(q)
    N = f.n_chars
    for n in (1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                for slot in SLOTS:
                    assert _rows_match(f, args, slot, slot), (args, slot)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_fd_rows_match_per_theta_fd_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(300 + q)
    for n in (1, 2, 3):
        for _ in range(3 if q == 64 else 8):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(q) for _ in range(n)))
            for slot in SLOTS:
                assert _rows_match(f, args, slot, slot), (args, slot)


def test_fd_rows_negative_control():
    # the check can fail: the A-slot rows are not the C-slot family
    f = _field(5)
    cases = [(ms[0], ms[2:], ms[1], xs) for ms in itertools.product(range(4), repeat=3)
             for xs in itertools.product(range(1, 5), repeat=1)]
    assert all(_rows_match(f, args, "A", "A") for args in cases)
    assert not all(_rows_match(f, args, "A", "C") for args in cases)


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
    f = _field(q)
    rng = random.Random(q)
    for n in (1, 2):
        # every character tuple; every point at n = 1, three per tuple at n = 2
        for args in _genfn_cases(q, n, rng, None if n == 1 else 3):
            assert hyperff._genfn_lhs_vec(f, *args).tolist() == \
                per_theta_genfn_lhs(f, *args), args


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_genfn_lhs_matches_per_theta_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(100 + q)
    for n in ((1,) if q == 64 else (1, 2)):
        for _ in range(4 if q == 64 else 12):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(q) for _ in range(n)),
                    rng.randrange(q), rng.choice(("T41", "T42", "T43")))
            assert hyperff._genfn_lhs_vec(f, *args).tolist() == \
                per_theta_genfn_lhs(f, *args), args


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_ksum_rhs_matches_per_chi_exhaustive(q):
    f = _field(q)
    N = f.n_chars
    for n in (1, 2):
        for cs in itertools.product(range(N), repeat=n + 2):
            for es in itertools.product(range(q), repeat=n):
                assert identities._ksum_rhs(f, n, cs, es).tolist() == \
                    per_chi_ksum_rhs(f, n, cs, es), (cs, es)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_ksum_rhs_matches_per_chi_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(200 + q)
    for n in ((1, 2) if q == 64 else (1, 2, 3)):
        for _ in range(4 if q == 64 else 12):
            cs = tuple(rng.randrange(N) for _ in range(n + 2))
            es = tuple(rng.randrange(q) for _ in range(n))
            assert identities._ksum_rhs(f, n, cs, es).tolist() == per_chi_ksum_rhs(f, n, cs, es)


# -- the F_D walk adds into the caller's vector ------------------------------------------


def _prefactor(e, s):
    """The walk's keywords for a prefactor s zeta^e, e = None (a zero
    monomial) being the weight s = 0."""
    return dict(e0=0, s=0) if e is None else dict(e0=e, s=s)


def _walk_matches(f, args, v, e, s):
    """e = None is a zero prefactor: the walk runs at weight s = 0."""
    out = np.array(v, dtype=np.int64)
    got = hyperff._fd_vec(f, *args, **_prefactor(e, s), out=out)
    return got is out and got.tolist() == rot_add(list(v), hyperff._fd_vec(f, *args), e, s)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fd_walk_adds_into_out_exhaustive(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(400 + q)
    for n in (0, 1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                v = [rng.randint(-3, 3) for _ in range(N)]
                for e in (None, *range(N)):
                    for s in (-1, 1, q - 1):
                        assert _walk_matches(f, args, v, e, s), (args, v, e, s)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_fd_walk_adds_into_out_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(500 + q)
    for n in (0, 1, 2, 3):
        for _ in range(6):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(q) for _ in range(n)))
            v = [rng.randint(-5, 5) for _ in range(N)]
            e = rng.choice((None, rng.randrange(-3 * N, 3 * N)))
            s = rng.choice((-1, 1, q - 1, rng.randint(-100, 100)))
            assert _walk_matches(f, args, v, e, s), (args, v, e, s)


def test_fd_walk_negative_control():
    # the check can fail: a shifted offset or a changed scale is seen
    f = _field(5)
    cases = [((ms[0], ms[2:], ms[1], xs), e) for ms in itertools.product(range(4), repeat=3)
             for xs in itertools.product(range(1, 5), repeat=1) for e in range(4)]
    v = [1, 0, -2, 0]

    def mutated(args, e, de, ds):
        want = rot_add(list(v), hyperff._fd_vec(f, *args), e, 2)
        out = np.array(v, dtype=np.int64)
        return hyperff._fd_vec(f, *args, e0=e + de, s=2 + ds, out=out).tolist() == want

    assert all(mutated(args, e, 0, 0) for args, e in cases)
    assert not all(mutated(args, e, 1, 0) for args, e in cases)
    assert not all(mutated(args, e, 0, 1) for args, e in cases)


PRIME_POWERS_TO_64 = [q for q in range(2, 65) if len(cyclo._prime_divisors(q)) == 1]


def _n0_walks_match(f, pairs):
    """At each (A, C): the n = 0 walk is binom_loop's {A choose C}, and
    jacobi(A, C) is jacobi_loop's J(A, C)."""
    N = f.n_chars
    return all(hyperff._fd_vec(f, mA, (), mC, ()).tolist() == binom_loop(f, mA, mC) and
               hyperff.jacobi(Char(f, mA), Char(f, mC)) ==
               cyclo.from_coeffs(N, jacobi_loop(f, mA, mC)) for mA, mC in pairs)


@pytest.mark.parametrize("q", PRIME_POWERS_TO_64)
def test_n0_walk_is_the_binomial(q):
    # with no B-slot, u -> u/(u-1) maps the walk's terms onto {A choose C}'s
    f = _field(q)
    assert _n0_walks_match(f, itertools.product(range(f.n_chars), repeat=2))


@pytest.mark.parametrize("q", [256, 1024, 4096])
def test_n0_walk_is_the_binomial_sampled(q):
    # the large fields, every N here past _ARRAY_MIN_N
    f = _field(q)
    N = f.n_chars
    rng = random.Random(2000 + q)
    m = rng.randrange(1, N)
    pairs = [(0, 0), (0, m), (m, 0), (m, m), (m, N - m), (N // 2, N // 2)]
    pairs += [(rng.randrange(N), rng.randrange(N)) for _ in range(40)]
    assert N >= identities._ARRAY_MIN_N and _n0_walks_match(f, pairs)


def test_n0_walk_without_its_prefactor_is_caught(monkeypatch):
    # AC(-1) dropped from the walk, at q = 5 and at q = 41 (N = 40); in
    # characteristic 2 log(-1) = 0, so odd q only
    for q in (5, 41):
        f = _field(q)
        pairs = list(itertools.product(range(f.n_chars), repeat=2))[::7]
        assert _n0_walks_match(f, pairs)
        with monkeypatch.context() as m:
            _mutate(m, "_fd_vec", "e0 + (mA + mC) * f.log_neg1", "e0")
            assert not any(hyperff._fd_vec(f, mA, (), mC, ()).tolist() == binom_loop(f, mA, mC)
                           for mA, mC in pairs if (mA + mC) % 2)
            assert not _n0_walks_match(f, pairs)
        assert _n0_walks_match(f, pairs)


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9, 13, 64])
def test_n0_ac_rows_are_shifted_binomials(q):
    f = _field(q)
    N = f.n_chars
    pairs = itertools.product(range(N), repeat=2)
    if q > 13:
        pairs = random.Random(q).sample(list(pairs), 6)
    for mA, mC in pairs:
        want = [list(binom_vec(f, mA + th, mC + th)) for th in range(N)]
        assert _fd_rows(f, mA, (), mC, (), "AC") == want
        assert rows_from_terms(f, mA, (), mC, (), "AC") == want


# -- the walk's terms at a slope ---------------------------------------------------------


def _mod(N, terms):
    """(e mod N, d mod N) of each term: _coset_counts reads no more."""
    return [(e % N, d % N) for e, d in terms]


def _terms_match_slot_codes(f, args):
    """_walk_terms at each slot code's slope lists fd_terms's terms."""
    N = f.n_chars
    return all(_mod(N, slot_terms(f, *args, slot)) == _mod(N, fd_terms(f, *args, slot))
               for slot in (SLOTS if args[1] else ("A", "C", "AC")))


def _binom_terms_match(f, b, k):
    """The n = 0 walk at (b, b), slope (1, 0), twist k lists binom_terms's terms."""
    N = f.n_chars
    return _mod(N, live_terms(hyperff._walk_terms(f, b, (), b, (), 1, (), 0, k))) == \
        _mod(N, binom_terms(f, b, k))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_walk_terms_match_slot_codes_exhaustive(q):
    f = _field(q)
    N = f.n_chars
    for n in (0, 1, 2):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                assert _terms_match_slot_codes(f, args), args
    for b, k in itertools.product(range(N), repeat=2):
        assert _binom_terms_match(f, b, k), (b, k)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64, 256, 1024, 4096])
def test_walk_terms_match_slot_codes_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1500 + q)
    for n in (0, 1, 2, 3):
        for _ in range(1 if q >= 1024 else 6):
            args = (rng.randrange(-N, 2 * N), tuple(rng.randrange(-N, 2 * N) for _ in range(n)),
                    rng.randrange(-N, 2 * N), tuple(rng.randrange(q) for _ in range(n)))
            assert _terms_match_slot_codes(f, args), args
            b, k = rng.randrange(-N, 2 * N), rng.randrange(-N, 2 * N)
            assert _binom_terms_match(f, b, k), (b, k)


def _terms_are_the_list_loop(f, *args):
    """The live entries of _walk_terms's triple are _walk_terms_list's terms
    in the same order, mod N."""
    N = f.n_chars
    return _mod(N, live_terms(hyperff._walk_terms(f, *args))) == \
        _mod(N, _walk_terms_list(f, *args))


def _slope_cases(f, n, rng, size):
    """Every (characters, points) at n, or `size` of them drawn with rng."""
    N, q = f.n_chars, f.q
    cases = [(ms[0], ms[2:], ms[1], xs) for ms in itertools.product(range(N), repeat=n + 2)
             for xs in itertools.product(range(q), repeat=n)]
    return cases if size is None or len(cases) <= size else rng.sample(cases, size)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_walk_terms_at_every_slope_exhaustive(q):
    # every slope in {-1, 0, 1} per character, spread over theta, against one
    # _fd_vec walk per theta, and term by term against the list loop; every
    # character and point tuple at n <= 1, 12 drawn ones per slope at n = 2
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1600 + q)
    for n in (0, 1, 2):
        for dA, dC, *dBs in itertools.product((-1, 0, 1), repeat=n + 2):
            for args in _slope_cases(f, n, rng, 12 if n == 2 else None):
                slope = (dA, dBs, dC, rng.randrange(N))
                got = spread(N, live_terms(hyperff._walk_terms(f, *args, *slope)))
                assert got == per_theta_walks(f, *args, *slope), (args, slope)
                assert _terms_are_the_list_loop(f, *args, *slope), (args, slope)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64])
def test_walk_terms_at_every_slope_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1700 + q)
    for n in (0, 1, 2, 3):
        for _ in range(2 if q == 64 else 8):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(rng.randrange(q) for _ in range(n)))
            dA, dC, *dBs = (rng.randint(-2, 2) for _ in range(n + 2))
            slope = (dA, dBs, dC, rng.randrange(-N, 2 * N))
            got = spread(N, live_terms(hyperff._walk_terms(f, *args, *slope)))
            assert got == per_theta_walks(f, *args, *slope), (args, slope)
            assert _terms_are_the_list_loop(f, *args, *slope), (args, slope)


def test_walk_terms_and_conv_mutants_are_caught(monkeypatch):
    f = _field(5)
    draws = [(ms[0], ms[2:], ms[1], xs) for ms in itertools.product(range(4), repeat=4)
             for xs in [(2, 3), (4, 2)]]
    operands = [(binom_vec(f, a, b), hyperff._fd_vec(f, *args).tolist())
                for (a, b), args in zip(itertools.product(range(4), repeat=2), draws[::8])]
    # q = 5's products fit one byte; at q = 64 the trivial binomial squared
    # puts 62^2 at one exponent, which needs two
    trivial = binom_vec(_field(64), 0, 0)
    operands += [(trivial, trivial), (trivial, binom_vec(_field(64), 5, 9))]

    def matches():
        """(terms match the slot codes and binomials, theta-sums match the
        rows oracle, products match schoolbook)."""
        return (all(_terms_match_slot_codes(f, args) for args in draws) and
                all(_binom_terms_match(f, b, k) for b in range(4) for k in range(1, 4)),
                all(_theta_sums_match(f, 5, 2, (cs[0], cs[2], *cs[1]), cs[3])
                    for cs in draws[::4]),
                all(hyperff._conv(a, b, len(a)).tolist() == school_conv(a, b, len(a))
                    for a, b in operands))

    assert matches() == (True, True, True)
    for name, old, new, want in [
        # C-slope sign flipped: T43 puts C theta, not C theta^-1
        ("_genfn_lhs_vec", '"T43": (0, 0, -1)', '"T43": (0, 0, 1)', (True, False, True)),
        ("_walk_terms", "[db for db, _ in sloped]", "[0 for db, _ in sloped]",
         (False, False, True)),  # B-slope dropped
        ("_walk_terms", "* l1 + k", "* l1", (False, False, True)),  # twist k dropped
        # slots one byte short
        ("_conv", "-(-bound.bit_length() // 8)", "-(-bound.bit_length() // 8) - 1",
         (True, True, False)),
    ]:
        with monkeypatch.context() as m:
            _mutate(m, name, old, new)
            assert matches() == want, (name, old, new)
    assert matches() == (True, True, True)


# -- the coset-count kernel and the theta-sums -------------------------------------------


@pytest.mark.parametrize("N", [*range(1, 13), 63, 255, 1023])
def test_coset_counts_match_literal_theta_sum(N):
    # one factor against the literal theta-sum and the pair loop it replaced
    D = cyclo.DivisorTable(N)
    rng = random.Random(600 + N)
    span = 5 * N + 3
    for size in (0, 1, 7, 40):
        terms = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(size)]
        assert hyperff._coset_counts(D, triple(terms), triple([(0, 0)])).tolist() == \
            literal_theta_sum(N, terms)
        shifts = [(rng.randint(-span, span), rng.randint(-span, span)) for _ in range(3)]
        assert hyperff._coset_counts(D, triple(terms), triple(shifts)).tolist() == \
            literal_theta_sum(N, terms, shifts) == pair_coset_counts(N, terms, shifts)
    # every slope class at once: m = 0 (g = N), every divisor of N, units
    terms = [(rng.randrange(N), m) for m in range(N)]
    assert hyperff._coset_counts(D, triple(terms), triple([(0, 0)])).tolist() == \
        literal_theta_sum(N, terms) == pair_coset_counts(N, terms, [(0, 0)])


def _kernel_lists(rng, N, size, span, residue=None):
    """`size` random (e, m) pairs; every m = residue mod 2 when residue is set."""
    out = []
    for _ in range(size):
        m = rng.randint(-span, span)
        if residue is not None:
            m += (residue - m) % 2
        out.append((rng.randint(-span, span), m))
    return out


@pytest.mark.parametrize("N", [*range(1, 9), 12])
def test_coset_counts_match_literal_multi_theta_sum(N):
    # n = 1, 2, 3 factors, with random slopes and with slopes that all agree
    # mod 2, so that every tuple's g stays even when N is
    D = cyclo.DivisorTable(N)
    rng = random.Random(1100 + N)
    span = 3 * N + 2
    for n in (1, 2, 3):
        for residue in (None, 0, 1):
            terms = _kernel_lists(rng, N, 4, span, residue)
            factors = [_kernel_lists(rng, N, 3, span, residue) for _ in range(n)]
            assert hyperff._coset_counts(D, *map(triple, (terms, *factors))).tolist() == \
                literal_multi_theta_sum(N, terms, *factors), (n, residue)


# the two counts of one assignment, each called by run_count
COUNTS = ("_coset_rows", "_coset_moebius")


def _count_lists(rng, N, sizes, p=None):
    """One random (e, m) list per size, exponents and slopes in [-3N, 3N].
    With a prime p | N set, every slope of the first list is r mod p and
    every slope of the others -r, so that p divides each tuple's g."""
    r = rng.randrange(p) if p else 0
    out = []
    for j, size in enumerate(sizes):
        want = r if j == 0 else -r
        lst = []
        for _ in range(size):
            m = rng.randint(-3 * N, 3 * N)
            if p:
                m += (want - m) % p
            lst.append((rng.randint(-3 * N, 3 * N), m))
        out.append(lst)
    return out


def _count_cases(rng, N, sizes_by_n):
    """Random lists at each n, the same with every slope agreeing mod the
    least prime of N, and lists with an empty one."""
    ps = cyclo._prime_divisors(N)
    for n, sizes in sizes_by_n.items():
        for p in (None, *ps[:1]):
            yield _count_lists(rng, N, sizes, p)
        yield _count_lists(rng, N, (0, *sizes[1:]))
        yield _count_lists(rng, N, (*sizes[:-1], 0))


@pytest.mark.parametrize("N", range(1, 65))
def test_both_counts_match_the_state_oracle_exhaustive(N):
    # every N <= 64: each count called directly, at n = 1, 2 and 3
    D = cyclo.DivisorTable(N)
    rng = random.Random(1300 + N)
    for terms, *factors in _count_cases(rng, N, {1: (2 * N, 2 * N), 2: (12, 9, 9),
                                                 3: (6, 5, 5, 5)}):
        want = state_coset_counts(N, terms, *factors)
        for name in COUNTS:
            assert run_count(name, D, terms, *factors) == want, (name, len(factors))


@pytest.mark.parametrize("N", [255, 1023, 4092, 4095])
def test_both_counts_match_the_state_oracle_sampled(N):
    D = cyclo.DivisorTable(N)
    rng = random.Random(1400 + N)
    for terms, *factors in _count_cases(rng, N, {1: (300, 300), 2: (120, 40, 40),
                                                 3: (30, 12, 12, 12)}):
        want = state_coset_counts(N, terms, *factors)
        for name in COUNTS:
            assert run_count(name, D, terms, *factors) == want, (name, len(factors))


def test_counts_of_a_single_list_slope_class():
    # every m = 0 mod N: every tuple has g = N, so the Moebius terms of each
    # row below N cancel to zero
    N = 12
    D = cyclo.DivisorTable(N)
    rng = random.Random(17)
    terms = [(rng.randrange(N), N * rng.randint(-3, 3)) for _ in range(20)]
    shifts = [(rng.randrange(N), N * rng.randint(-3, 3)) for _ in range(9)]
    want = literal_theta_sum(N, terms, shifts)
    for name in COUNTS:
        assert run_count(name, D, terms, shifts) == want, name


def _theta_sides(f, n, rng):
    """The theta-sum sides over two walks at one random draw of n slots:
    T41-T43's left-hand sides, the k-sum and the character-sum form."""
    N, q = f.n_chars, f.q
    cs = tuple(rng.randrange(N) for _ in range(n + 2))
    es = tuple(rng.randrange(1, q) for _ in range(n))
    t = rng.randrange(2, q) if q > 2 else 1
    for variant in GENFN_SLOTS:
        hyperff._genfn_lhs_vec(f, cs[0], cs[2:], cs[1], es, t, variant)
    identities._ksum_rhs(f, n, cs, es)
    hyperff._charsum_vec(f, cs[0], cs[2:], cs[1], es)


def _record_counts(monkeypatch):
    """The names of the counts that run, in order, as a list that grows."""
    used = []
    for name in COUNTS:
        count = getattr(hyperff, name)
        monkeypatch.setattr(hyperff, name,
                            lambda *a, _n=name, _c=count: used.append(_n) or _c(*a))
    return used


@pytest.mark.parametrize("qs, ns, path", [
    ((3, 4, 5, 7, 8, 9, 11, 13), (1, 2), "_coset_rows"),  # every gate field
    ((1024, 4096), (1,), "_coset_moebius"),
])
def test_cost_rule_picks_the_count(monkeypatch, qs, ns, path):
    # the cost rule counts one assignment on every gate field as a block of
    # one row, and the theta-sums of large fields by Moebius inversion
    used = _record_counts(monkeypatch)
    rng = random.Random(23)
    for q in qs:
        f = _field(q)
        for n in ns:
            for _ in range(3 if q < 1024 else 1):
                _theta_sides(f, n, rng)
    assert used and set(used) == {path}
    # the line sum pairs its N - 1 terms with one twist: one row at any q <= 4096
    used.clear()
    for q in qs:
        hyperff._line_vec(_field(q), 1, 2, q - 1)
    assert used == ["_coset_rows"] * len(qs)


@pytest.mark.parametrize("q, n, path", [
    (64, 1, "_coset_rows"), (13, 3, "_coset_moebius"), (27, 2, "_coset_moebius"),
])
def test_cost_rule_at_the_measured_crossover(monkeypatch, q, n, path):
    # t2.1's character-sum form counts (N - 1)^(n+1) tuples over n + 1 lists:
    # 320 per divisor and list at q = 64, n = 1, where one row was measured
    # faster, and 610 at q = 13, n = 3 and 1302 at q = 27, n = 2, where
    # Moebius inversion was
    used = _record_counts(monkeypatch)
    hyperff._charsum_vec(_field(q), *_charsum_draw(random.Random(q), q, n))
    assert used == [path]


def _moebius_cases():
    """Random lists at N = 6, 12, 30 and 60, and 27 lists of 5 terms at N = 6
    whose exponents and slopes are all 0 mod N: each of the 5^27 tuples has g
    = N and e = 0 mod N, so the row of N holds N 5^27 >= 2^63 at 0 and the
    counts are Python ints."""
    rng = random.Random(29)
    past = [[(6 * rng.randint(-2, 2), 6 * rng.randint(-2, 2)) for _ in range(5)]
            for _ in range(27)]
    return [(N, cyclo.DivisorTable(N), *lists) for N in (6, 12, 30, 60)
            for lists in _count_cases(rng, N, {1: (40, 40), 2: (12, 8, 8)})] + \
        [(6, cyclo.DivisorTable(6), *past)]


@pytest.mark.parametrize("block", [1, 5, 64])
def test_moebius_count_in_small_blocks(monkeypatch, block):
    # joins of many blocks, each of at most `block` pairs or one bucket, count
    # the same tuples as one block
    monkeypatch.setattr(hyperff, "_BLOCK", block)
    for N, D, terms, *factors in _moebius_cases():
        assert run_count("_coset_moebius", D, terms, *factors) == \
            state_coset_counts(N, terms, *factors), (N, len(factors))


def test_moebius_count_mutants_are_caught(monkeypatch):
    cases = _moebius_cases()
    want = [state_coset_counts(N, terms, *factors) for N, D, terms, *factors in cases]

    def all_match():
        """Every case matches; a case that raises does not match."""
        try:
            return all(run_count("_coset_moebius", D, terms, *factors) == w
                       for (N, D, terms, *factors), w in zip(cases, want))
        except (IndexError, ValueError, KeyError, OverflowError):
            return False

    assert all_match()
    for name, old, new in [
        ("_coset_moebius", "a[W] % N", "a % N"),  # dead terms counted: W ignored
        ("_coset_moebius", "else object", "else np.int64"),  # int64 counts past 2^63 wrap
        ("_coset_moebius", "row += mu *", "row -= mu *"),  # the mu sign flipped
        ("_coset_moebius", "D.moebius[g]:", "D.moebius[g][1:]:"),  # the divisor h = g skipped
        ("_coset_moebius", ".reshape(-1, g)", ".reshape(g, -1)"),  # folded mod h/g, not g
        ("_join", "-F[:, 1] % h", "F[:, 1] % h"),  # joined on m0 = m, not -m
        ("_merge", "nz // h, nz % h", "nz % h, nz // h"),  # a histogram cell read transposed
        ("_join", "range(0, len(a), step)", "range(0, len(a) - step + 1, step)"),  # last block
        ("_tile", "N ** (n - 1)", "N ** n"),  # the scale N^(n-1) taken as N^n
    ]:
        with monkeypatch.context() as m:
            _mutate(m, name, old, new)
            assert not all_match(), (name, old, new)
    assert all_match()


PRIME_POWERS_TO_27 = [q for q in range(2, 28) if len(cyclo._prime_divisors(q)) == 1]


@pytest.mark.parametrize("q", PRIME_POWERS_TO_27)
def test_line_vec_matches_per_theta_walks_exhaustive(q):
    f = _field(q)
    for ma, mb in itertools.product(range(f.n_chars), repeat=2):
        want = per_theta_line_vecs(f, ma, mb)
        for x in range(q):
            assert hyperff._line_vec(f, ma, mb, x).tolist() == want(x), (ma, mb, x)


@pytest.mark.parametrize("q", [64, 256, 1024])
def test_line_vec_matches_per_theta_walks_sampled(q):
    f = _field(q)
    rng = random.Random(700 + q)
    for _ in range({64: 12, 256: 4, 1024: 1}[q]):
        ma, mb, x = rng.randrange(f.n_chars), rng.randrange(f.n_chars), rng.randrange(1, q)
        assert hyperff._line_vec(f, ma, mb, x).tolist() == per_theta_line_vecs(f, ma, mb)(x), \
            (ma, mb, x)


GENFN_SLOTS = {"T41": "A", "T42": "B", "T43": "C"}


def _genfn_oracle(f, mA, mBs, mC, xs, t, variant):
    if t == 0:
        return [0] * f.n_chars
    b = mBs[-1] if variant == "T42" else mA - mC
    return rows_theta_sum(f, mA, mBs, mC, xs, GENFN_SLOTS[variant], b, f.log_table[t])


def _ksum_oracle(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    if es[-1] == 0:
        return [0] * f.n_chars
    return rows_theta_sum(f, A, Bs[:-1], C, es[:-1], "AC", Bs[-1], f.log_table[es[-1]])


def _theta_sums_match(f, q, n, cs, es):
    """The T41-T43 left-hand sides at every t and the t3.ksum right-hand side
    at (cs, es) against the rows oracle; the k-sum's theta-slot is "AC"."""
    mA, mC, mBs = cs[0], cs[1], cs[2:]
    for variant in GENFN_SLOTS:
        for t in range(q):
            args = (mA, mBs, mC, es, t, variant)
            if hyperff._genfn_lhs_vec(f, *args).tolist() != _genfn_oracle(f, *args):
                return False
    return identities._ksum_rhs(f, n, cs, es).tolist() == _ksum_oracle(f, n, cs, es)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_theta_sums_match_rows_oracle_exhaustive(q):
    f = _field(q)
    for n in (1, 2):
        for cs in itertools.product(range(f.n_chars), repeat=n + 2):
            for es in itertools.product(range(q), repeat=n):
                assert _theta_sums_match(f, q, n, cs, es), (n, cs, es)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64, 256])
def test_theta_sums_match_rows_oracle_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(800 + q)
    for n in ((1,) if q == 256 else (1, 2, 3)):
        for _ in range({64: 2, 256: 1}.get(q, 6)):
            cs = tuple(rng.randrange(N) for _ in range(n + 2))
            es = tuple(rng.randrange(q) for _ in range(n))
            t = rng.randrange(q)
            for variant in GENFN_SLOTS:
                args = (cs[0], cs[2:], cs[1], es, t, variant)
                assert hyperff._genfn_lhs_vec(f, *args).tolist() == _genfn_oracle(f, *args), args
            assert identities._ksum_rhs(f, n, cs, es).tolist() == _ksum_oracle(f, n, cs, es)


def _mutate(monkeypatch, name, old, new, module=hyperff):
    """Replace module.<name> by a copy of its source with `old` replaced."""
    src = textwrap.dedent(inspect.getsource(getattr(module, name)))
    assert src.count(old) == 1, (name, old)
    ns = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), ns)
    monkeypatch.setattr(module, name, ns[name])


def _q5_cases():
    return [(cs, es) for cs in itertools.product(range(4), repeat=3) for es in [(2,), (3,)]]


def test_theta_sum_mutants_are_caught(monkeypatch):
    f = _field(5)
    lines = [(ma, mb, x, per_theta_line_vecs(f, ma, mb)(x))
             for ma, mb in itertools.product(range(4), repeat=2) for x in (2, 3)]

    def all_match():
        """(every line sum matches, every theta-sum matches); a side that
        raises does not match."""
        try:
            return (all(hyperff._line_vec(f, ma, mb, x).tolist() == want
                        for ma, mb, x, want in lines),
                    all(_theta_sums_match(f, 5, 1, cs, es) for cs, es in _q5_cases()))
        except (IndexError, ValueError):
            return (False, False)

    assert all_match() == (True, True)
    with monkeypatch.context() as m:  # the residue taken mod N instead of mod g: where
        # g < N it spills into a later row of the flat accumulator, or past its end
        _mutate(m, "_coset_rows", "e %= D.value[g]", "e %= N")
        assert all_match() == (False, False)
    with monkeypatch.context() as m:  # each count put at one exponent, not spread by g
        _mutate(m, "_coset_rows", "out.reshape(R, N // g, g)[...] +=", "out[:, :g] +=")
        assert all_match() == (False, False)
    with monkeypatch.context() as m:  # the twist dropped from the line sum's slope
        _mutate(m, "_line_vec", "(0, _down(_log(f, x)), True)", "(0, 0, True)")
        assert all_match() == (False, True)
    with monkeypatch.context() as m:  # the twist dropped from the shared theta-sum
        _mutate(m, "_theta_sum", "0, _log(f, t), t != 0)", "0, 0, t != 0)")
        assert all_match() == (True, False)
    with monkeypatch.context() as m:  # theta(t) read as theta(1) in T41-T43 alone
        _mutate(m, "_genfn_lhs_vec", "dC, b, t)", "dC, b, 1)")
        assert all_match() == (True, False)
    with monkeypatch.context() as m:  # chi(x_n) read as chi(1) in the k-sum alone
        _mutate(m, "_ksum_rhs", "Bs[-1], es[-1])", "Bs[-1], 1)", identities)
        assert all_match() == (True, False)
    assert all_match() == (True, True)


# -- T43's t = -1 term: one walk plus the y = 1 monomial -----------------------------------


def _t43_matches(f, mA, mBs, mC, xs):
    t = f.p - 1
    return hyperff._genfn_rhs_vec(f, mA, mBs, mC, xs, t, "T43").tolist() == \
        loop_t43_rhs(f, mA, mBs, mC, xs, t)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_t43_rhs_at_minus_one_matches_y_loop_exhaustive(q):
    f = _field(q)
    for n in (1, 2):
        for ms in itertools.product(range(f.n_chars), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                assert _t43_matches(f, ms[0], ms[2:], ms[1], xs), (ms, xs)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 27, 64, 256])
def test_t43_rhs_at_minus_one_matches_y_loop_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1000 + q)
    for n in (1, 2, 3):
        for _ in range(60):
            xs = tuple(rng.choice((0, 1, rng.randrange(q))) if rng.random() < 0.2
                       else rng.randrange(q) for _ in range(n))
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), xs)
            assert _t43_matches(f, *args), args


def test_t43_y_loop_mutant_is_caught(monkeypatch):
    f = _field(5)
    cases = [(ms[0], ms[2:], ms[1], xs) for ms in itertools.product(range(4), repeat=3)
             for xs in itertools.product(range(5), repeat=1)]
    assert all(_t43_matches(f, *args) for args in cases)
    with monkeypatch.context() as m:  # the y = 1 monomial dropped
        _mutate(m, "_genfn_rhs_vec", "(q - 1) * w * at)", "0 * w * at)")
        assert not all(_t43_matches(f, *args) for args in cases)


# -- the T41-T43 right-hand sides: one scaled-point term ------------------------------------


def _genfn_rhs_match(f, mA, mBs, mC, xs, t):
    return all(hyperff._genfn_rhs_vec(f, mA, mBs, mC, xs, t, v).tolist() ==
               per_variant_genfn_rhs(f, mA, mBs, mC, xs, t, v) for v in GENFN_SLOTS)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_genfn_rhs_matches_per_variant_oracle_exhaustive(q):
    f = _field(q)
    for n in (1, 2):
        for ms in itertools.product(range(f.n_chars), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                for t in range(q):
                    assert _genfn_rhs_match(f, ms[0], ms[2:], ms[1], xs, t), (ms, xs, t)


@pytest.mark.parametrize("q", [7, 8, 9, 13, 64, 256])
def test_genfn_rhs_matches_per_variant_oracle_sampled(q):
    # points and t drawn often from 0, 1 and -1, where the terms drop out
    f = _field(q)
    N = f.n_chars
    rng = random.Random(3000 + q)

    def elem():
        return rng.choice((0, 1, f.p - 1)) if rng.random() < 0.3 else rng.randrange(q)

    for n in (1, 2, 3):
        for _ in range({64: 15, 256: 6}.get(q, 40)):
            args = (rng.randrange(N), tuple(rng.randrange(N) for _ in range(n)),
                    rng.randrange(N), tuple(elem() for _ in range(n)), elem())
            assert _genfn_rhs_match(f, *args), args


def test_genfn_rhs_mutant_with_the_t41_scale_in_t43_is_caught(monkeypatch):
    # T43 scaling by (1 - t)^-1, T41's y, in place of 1 + t
    f = _field(5)
    cases = [(ms[0], ms[2:], ms[1], xs, t) for ms in itertools.product(range(4), repeat=3)
             for xs in [(2,), (3,)] for t in range(5)]
    assert all(_genfn_rhs_match(f, *args) for args in cases)
    with monkeypatch.context() as m:
        _mutate(m, "_genfn_rhs_vec", "y, m = f.add(1, t), mC",
                "y, m = (f.inv(f.sub(1, t)) if t != 1 else 0), mC")
        assert not all(_genfn_rhs_match(f, *args) for args in cases)
    assert all(_genfn_rhs_match(f, *args) for args in cases)


# -- the integral formula's double walk: t3.ff-beta's left-hand side ---------------------


def per_u_beta(f, mA, mBs, mC, xs):
    """sum over u of B_1(u) B_2(1-u) F_D^(n-1)(A; B_1 B_2, B_3..; C | u x_1 +
    (1-u) x_2, x_3..): one _fd_vec walk per u, the loop _beta_vec replaced."""
    N, Z = f.n_chars, f.zech_table
    out = np.zeros(N, dtype=np.int64)
    x1, x2 = xs[0], xs[1]
    if x1 == 0 or x2 == 0:
        return out.tolist()
    E, l1, l2 = f.exp_table, f.log_table[x1], f.log_table[x2]
    merged = (mBs[0] + mBs[1], *mBs[2:])
    for i in range(1, N):  # u = g^i, 1 - u = g^Z[i]; u = 0 and u = 1 give 0
        xm = f.add(E[(i + l1) % N], E[(Z[i] + l2) % N])  # u x1 + (1-u) x2
        hyperff._fd_vec(f, mA, merged, mC, (xm, *xs[2:]), e0=mBs[0] * i + mBs[1] * Z[i],
                        out=out)
    return out.tolist()


def _beta_matches(f, args):
    return hyperff._beta_vec(f, *args).tolist() == per_u_beta(f, *args)


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_beta_vec_matches_per_u_walks_exhaustive(q):
    f = _field(q)
    for n in (2, 3):
        for ms in itertools.product(range(f.n_chars), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                assert _beta_matches(f, args), args


@pytest.mark.parametrize("q", [7, 8, 9, 16, 27, 64, 256])
def test_beta_vec_matches_per_u_walks_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1100 + q)
    for n in (2, 3, 4):
        for _ in range(2 if q == 256 else 12):
            args = (rng.randrange(-N, 2 * N), tuple(rng.randrange(-N, 2 * N) for _ in range(n)),
                    rng.randrange(-N, 2 * N), tuple(rng.randrange(q) for _ in range(n)))
            assert _beta_matches(f, args), args


@pytest.mark.parametrize("q", [7, 8, 9, 16, 27])
def test_beta_vec_edge_cases(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1200 + q)
    for _ in range(8):
        mA, mC = rng.randrange(N), rng.randrange(N)
        b1, b3 = rng.randrange(1, N), rng.randrange(N)
        x1, x3 = rng.randrange(1, q), rng.randrange(1, q)
        x2 = rng.choice([x for x in range(1, q) if x != x1])
        # x_m = u x1 + (1-u) x2 is 0 at u = x2/(x2 - x1), a u other than 0 and 1
        assert f.div(x2, f.sub(x2, x1)) not in (0, 1)
        cases = [
            (mA, (b1, N - b1), mC, (x1, x2)),  # B_1 B_2 = eps
            (mA, (b1, N - b1, b3), mC, (x1, x2, x3)),
            (mA, (b1, 1, b3), mC, (x1, x1, x3)),  # x_1 = x_2: x_m = x_1 at every u
            (mA, (b1, 1), mC, (x2, x2)),
            (mA, (b1, 1, b3), mC, (x1, x2, 0)),  # a fixed point 0: the side is 0
            (mA, (b1, 1, b3, 1), mC, (x1, x2, x3, 0)),
            (mA, (b1, N - b1, b3), mC, (x1, x1, x3)),
        ]
        for args in cases:
            assert _beta_matches(f, args), args
        assert hyperff._beta_vec(f, *cases[4]).tolist() == [0] * N


def test_beta_vec_mutants_are_caught(monkeypatch):
    f = _field(7)
    rng = random.Random(17)
    cases = [(rng.randrange(6), tuple(rng.randrange(6) for _ in range(n)), rng.randrange(6),
              tuple(rng.randrange(1, 7) for _ in range(n))) for n in (2, 3) * 20]
    want = [per_u_beta(f, *args) for args in cases]

    def all_match():
        """Every draw matches; a draw that raises does not match."""
        try:
            return all(hyperff._beta_vec(f, *args).tolist() == w for args, w in zip(cases, want))
        except (IndexError, ValueError):
            return False

    assert all_match()
    for old, new in [
        # the merged column not rotated
        ("np.where(x1 == x2, l2, (l2 + z) % N)", "0 * z"),
        ("mBs[2:], mC, xs[2:]", "mBs[3:], mC, xs[3:]"),  # fixed slot 3 dropped
        ("col[..., Z2 < 0] = D", "pass"),  # the column's dead marker ignored
        ("base[dead] = D", "pass"),  # the base's dead marker ignored
        ("mBs[1] % N * Z2[i][:, None]", "0"),  # B_2 Z[i] dropped from c
    ]:
        with monkeypatch.context() as m:
            _mutate(m, "_beta_vec", old, new)
            assert not all_match(), (old, new)
    assert all_match()


# -- the walks against the list loops they replaced --------------------------------------

# the two prime powers on either side of N = _ARRAY_MIN_N, where sampled mode
# stops deciding its draws in blocks of rows
BELOW, ABOVE = 37, 41
ARRAY_QS = [7, 9, 16, 27, BELOW, ABOVE, 256, 1024, 4096]


def _fd_walks_match(f, args, e0, s, v):
    """The walk adds into the caller's vector as the list loop does, and
    builds the same fresh vector without one (e0 = None: weight 0)."""
    got, want, kw = np.array(v, dtype=np.int64), list(v), _prefactor(e0, s)
    same = hyperff._fd_vec(f, *args, **kw, out=got) is got
    _fd_list(f, *args, **kw, out=want)
    return same and got.tolist() == want and \
        hyperff._fd_vec(f, *args, **kw).tolist() == _fd_list(f, *args, **kw)


def _beta_walks_match(f, args):
    return hyperff._beta_vec(f, *args).tolist() == _beta_list(f, *args)


def test_the_gate_stays_on_the_list_walks():
    # every gate field has N <= 12, so its sampled reports run in blocks of rows
    assert identities._ARRAY_MIN_N > 12
    assert _field(BELOW).n_chars < identities._ARRAY_MIN_N <= _field(ABOVE).n_chars
    assert not any(len(cyclo._prime_divisors(q)) == 1 for q in range(BELOW + 1, ABOVE))


@pytest.mark.parametrize("q", [BELOW, ABOVE])
def test_fd_vec_and_beta_vec_switch_at_the_crossover(q):
    # one kernel on either side of N = _ARRAY_MIN_N, with the list loops' counts
    f = _field(q)
    assert hyperff._fd_vec(f, 1, (2,), 3, (4,)).tolist() == _fd_list(f, 1, (2,), 3, (4,))
    assert hyperff._beta_vec(f, 1, (2, 3), 4, (5, 6)).tolist() == \
        _beta_list(f, 1, (2, 3), 4, (5, 6))


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_fd_array_matches_list_walk_exhaustive(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1300 + q)
    e0s = itertools.cycle((0, None, -1, N, 3 * N + 1, -2 * N - 1))
    ss = itertools.cycle((1, -1, q - 1))
    for n in (0, 1, 2, 3):
        for ms in itertools.product(range(N), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                v = [rng.randint(-3, 3) for _ in range(N)]
                assert _fd_walks_match(f, args, next(e0s), next(ss), v), args


@pytest.mark.parametrize("q", [2, 3, 4, 5])
def test_beta_array_matches_list_walk_exhaustive(q):
    f = _field(q)
    for n in (2, 3):
        for ms in itertools.product(range(f.n_chars), repeat=n + 2):
            for xs in itertools.product(range(q), repeat=n):
                args = (ms[0], ms[2:], ms[1], xs)
                assert _beta_walks_match(f, args), args


def _array_draw(rng, f, n):
    """Exponents inside and outside [0, N), and points that are often 0, 1 or
    repeated."""
    N, q = f.n_chars, f.q
    pool = [rng.randrange(1, q) for _ in range(2)]
    xs = tuple(rng.choice((0, 1, *pool)) if rng.random() < 0.3 else rng.randrange(q)
               for _ in range(n))
    return (rng.randrange(-2 * N, 3 * N), tuple(rng.randrange(-2 * N, 3 * N) for _ in range(n)),
            rng.randrange(-2 * N, 3 * N), xs)


@pytest.mark.parametrize("q", ARRAY_QS)
def test_fd_array_matches_list_walk_sampled(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1400 + q)
    for n in (0, 1, 2, 3, 4):
        for _ in range(3 if q >= 1024 else 12):
            args = _array_draw(rng, f, n)
            e0 = rng.choice((0, None, rng.randrange(-5 * N, 0), rng.randrange(N, 5 * N)))
            s = rng.choice((1, -1, q - 1))
            v = [rng.randint(-9, 9) for _ in range(N)]
            assert _fd_walks_match(f, args, e0, s, v), (args, e0, s)


@pytest.mark.parametrize("q", ARRAY_QS)
def test_beta_array_matches_list_walk_sampled(q):
    f = _field(q)
    rng = random.Random(1500 + q)
    for n in (2, 3, 4):
        for _ in range({1024: 2, 4096: 1}.get(q, 3 if q == 256 else 10)):
            assert _beta_walks_match(f, _array_draw(rng, f, n))


@pytest.mark.parametrize("q", [9, 27, ABOVE, 256, 1024])
def test_array_walks_at_the_edge_cases(q):
    f = _field(q)
    N = f.n_chars
    rng = random.Random(1600 + q)
    mA, mC, b1, b3 = (rng.randrange(N) for _ in range(4))
    x1, x3 = rng.randrange(2, q), rng.randrange(2, q)
    x2 = rng.choice([x for x in range(2, q) if x != x1])
    # x_m = u x1 + (1-u) x2 is 0 at u = x2/(x2 - x1), a u other than 0 and 1
    assert f.div(x2, f.sub(x2, x1)) not in (0, 1)
    cases = [
        (mA, (b1, N - b1), mC, (x1, x2)),  # B_1 B_2 = eps
        (mA, (b1, 1, b3), mC, (x1, x1, x3)),  # x_1 = x_2
        (mA, (b1, 1, b3), mC, (x1, x2, 1)),  # x_j = 1: no dead term in slot j
        (mA, (b1, 1, b3), mC, (1, x2, x2)),
        (mA, (b1, 1, b3), mC, (x1, x2, 0)),  # a point 0: the side is 0
        (mA, (b1, 1, b3, 1), mC, (x3, x3, x3, x3)),  # repeated points: one dead i
        (mA, (b1 + N, -1, b3 - 2 * N), mC + 5 * N, (x1, x2, x3)),
    ]
    for args in cases:
        assert _beta_walks_match(f, args), args
        for e0, s in [(0, 1), (None, 1), (-N - 1, -1), (2 * N + 3, q - 1)]:
            assert _fd_walks_match(f, args, e0, s, [rng.randint(-2, 2) for _ in range(N)]), args
    assert hyperff._beta_vec(f, *cases[4]).tolist() == [0] * N
    assert hyperff._fd_vec(f, *cases[4]).tolist() == [0] * N


def test_array_walk_mutants_are_caught(monkeypatch):
    small, large = _field(7), _field(256)
    rng = random.Random(19)
    fd_cases = [(f, _array_draw(rng, f, n), rng.choice((0, 5, -9)), rng.choice((1, -1, 6)),
                 [rng.randint(-2, 2) for _ in range(f.n_chars)])
                for f in (small, large) for n in (1, 2, 3) * 6]
    beta_cases = [(f, _array_draw(rng, f, n)) for f in (small, large) for n in (2, 3) * 3]

    def all_match():
        """(every F_D draw matches, every double-walk draw matches); a draw
        that raises does not match."""
        try:
            return (all(_fd_walks_match(*c) for c in fd_cases),
                    all(_beta_walks_match(*c) for c in beta_cases))
        except (IndexError, ValueError):
            return (False, False)

    assert all_match() == (True, True)
    for name, old, new, caught in [
        ("_fd_vec", "e[dead] = slots", "pass", (False, True)),  # dead term kept
        ("_zech_rot", "Z2[lx + 1:lx + N]", "Z2[lx:lx + N - 1]", (False, False)),  # rotation - 1
        # out replaced, not added to
        ("_fd_vec", "np.add(out, counts, out=out)", "np.copyto(out, counts) or out",
         (False, True)),
        ("_beta_vec", "rows[lm[j:j + step] + 1]", "rows[lm[j:j + step]]", (True, False)),
        ("_beta_vec", "range(0, len(i), step)", "range(0, len(i) - step + 1, step)",
         (True, False)),  # the last partial block dropped
    ]:
        with monkeypatch.context() as m:
            _mutate(m, name, old, new)
            assert all_match() == caught, (name, old, new)
    assert all_match() == (True, True)


# -- one assignment past the block's int64 bound: every side exact -----------------------
# Where identities._fits_int64 fails, one assignment is still evaluated as
# int64 rows, and as object rows only where a Moebius count can reach 2^63.
# Each side's .tolist() is compared with the same side evaluated by the
# Python-int oracles: the list walks (_fd_list, _beta_list), schoolbook
# products and the state count of the walks' live terms, on lists.

# every t4 identity at q = 4096, n = 2, t3.ff-beta at q = 256, n = 2 and t2.1
# at q = 64, n = 5, 6, 9 and q = 7, n = 26
PAST_BOUND = [*((d.id, 4096, 2) for d in identities.list_identities()
                if d.id.startswith("t4.")),
              ("t3.ff-beta", 256, 2), ("t2.1", 64, 5), ("t2.1", 64, 6), ("t2.1", 64, 9),
              ("t2.1", 7, 26)]


def _list_addm(out, e, scale=1):
    out[e % len(out)] += scale


def _list_kernels(m):
    """hyperff's side kernels replaced, on the monkeypatch context m, by
    loops over lists of Python ints."""
    m.setattr(hyperff, "_zeros", lambda N, R: [0] * N)
    m.setattr(hyperff, "_addm", _list_addm)
    m.setattr(identities, "_addm", _list_addm)
    m.setattr(hyperff, "_fd_vec", _fd_list)
    m.setattr(hyperff, "_beta_vec", _beta_list)
    m.setattr(hyperff, "_conv", school_conv)
    m.setattr(hyperff, "_coset_counts",
              lambda D, *lists: state_coset_counts(D.n, *map(live_terms, lists)))


def _past_bound_draws(ident, q, n, k=2):
    desc = identities.get_identity(ident)
    rng = random.Random(f"{ident}:{q}:{n}")
    draws = []
    while len(draws) < k:
        cs = tuple(rng.randrange(q - 1) for _ in range(desc.chars(n)))
        es = tuple(rng.randrange(q) for _ in range(desc.elems(n)))
        if desc.violated(cs, es) is None:
            draws.append((cs, es))
    return desc, draws


def _sides_are_exact(monkeypatch, ident, q, n) -> list:
    """The oracle's sides at each draw of (ident, q, n), as lists, or None
    where a side's .tolist() is not the oracle's."""
    desc, draws = _past_bound_draws(ident, q, n)
    f = _field(q)
    got = [[side(f, n, cs, es).tolist() for side in (desc.lhs, desc.rhs)] for cs, es in draws]
    with monkeypatch.context() as m:
        _list_kernels(m)
        want = [[side(f, n, cs, es) for side in (desc.lhs, desc.rhs)] for cs, es in draws]
    return want if got == want else None


@pytest.mark.parametrize("ident, q, n", PAST_BOUND)
def test_one_assignment_past_the_int64_bound_is_exact(monkeypatch, ident, q, n):
    assert not identities._fits_int64(identities.get_identity(ident), _field(q), n)
    assert _sides_are_exact(monkeypatch, ident, q, n) is not None


def test_the_int64_moebius_rule_without_the_scale_is_caught(monkeypatch):
    # the dtype rule N * tuples < 2^63, which leaves out _tile's scale
    # N^(n-1), keeps t2.1 at q = 64, n = 6 in int64, whose rhs needs more
    # than 63 bits: it wraps, by a multiple of 2^64 at every exponent alike
    want = _sides_are_exact(monkeypatch, "t2.1", 64, 6)
    assert want is not None
    assert max(abs(v) for _, rhs in want for v in rhs).bit_length() > 63
    with monkeypatch.context() as m:
        _mutate(m, "_coset_moebius", "N ** len(Fs) * tuples < 2**63",
                "N * tuples < 2**63")
        assert _sides_are_exact(m, "t2.1", 64, 6) is None
