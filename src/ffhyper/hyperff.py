"""Hypergeometric character sums over F_q.

Jacobi sums, the binomial-coefficient analogue {A choose B} = B(-1) J(A, B^-1),
the Gaussian 2F1 analogue, the Appell F1 analogue, and the Lauricella F_D^(n)
analogue in both its definitional form

    F_D^(n)(A; B_1..B_n; C | x_1..x_n)
        = eps(x_1...x_n) AC(-1) sum_u A(u) (A^-1 C)(1-u) prod_j B_j^-1(1-x_j u)

and its character-sum form (a (q-1)^-n-weighted sum over all n-tuples of
characters).  Values are kept integral (no 1/q rescaling) so equality tests
stay exact; gauss_2f1 can also return the 1/q-rescaled variant behind a flag.

Internally every value is accumulated in the group ring Z[Z_N] (N = q-1): an
integer vector indexed by power of zeta_N.  Products of character values are
exponent additions and sums are vector increments.  The sums over u run over
exponents: with u = g^i, 1 - u = g^Z[i] for the field's Zech table Z, so each
term of the F_D sum is one exponent e0 + A i + (C - A) Z[i] - sum_j B_j
Z[(log x_j + i) mod N] and the inner loops stay integer-only and exact.
Every identity side is a signed, zeta-shifted combination of such sums, so
_fd_vec adds s zeta^e0 F_D into the caller's vector inside its walk, with no
vector per term.  At n = 0 (no B-slot) the walk is the binomial {A choose C},
and J(chi, lam) = lam(-1) {chi choose lam^-1} is that walk with the prefactor
zeta^(lam log(-1)): every binomial and Jacobi sum is an n = 0 walk.
The integral formula's u-sum of B_1(u) B_2(1-u) F_D^(n-1) at the merged point
u x_1 + (1-u) x_2 is one double walk, _beta_vec: only the merged slot's
point moves with u, so the rest of each inner walk (the base exponents and
fixed slots, and the merged slot's Zech column) is built once per call and
each u costs one pass pairing the two at a rotation.

Each walk is one kernel of int64 array passes, _fd_vec and _beta_vec, which
serves one assignment and a block of rows (below) alike.  They read the
field's doubled Zech array (FieldTable.zech_array), so a rotation by log x_j
is one slice (_zech_rot).  A slot's rotation holds -1 where x_j u = 1, at
most one i = -log x_j mod N per slot, and _exponents returns the dead mask
of those terms with the exponent column: the F_D walk bincounts the
column with its dead terms in one slot past the last, and the double walk
keeps its dead marker 3N and bincounts blocks of at most _BLOCK pair sums, so
its memory does not grow with N^2.  Every character is reduced mod N before
its product is added and the column once at the end, so no int64 entry
exceeds (n + 2) N^2 (7N in the double walk's sums), and one assignment's
side is the length-N int64 row that a block would give it.

A block of rows.  Exhaustive and boundary verification, and sampled
verification below N = identities._ARRAY_MIN_N, evaluate a side for R rows at
once: every character and point slot comes as an equal-length int64 column
(an int where the side fixes one), the field operations take columns, and
each kernel, given its first character as a column, adds a leading row axis
and returns an (R, N) array.  So _exponents gathers each row's rotation
Z[log x_j + i] into an (R, N - 1) exponent matrix with a dead mask per row, a
row with a zero point dead throughout (eps(x)); _fd_vec counts every row with
one bincount of row N + e and takes a weight s per row; _beta_vec gathers
each (u, row)'s rotation of its row's merged column into 7N slots per row;
_conv gathers row-wise products; _addm and _mono_exp take columns; and every
case on a value is a 0/1 weight: a delta factor (_delta), [x = v] (_is), a
monomial's eps weight, s = 0 for a walk that drops out.  _walk_terms gives
(exponent, slope, weight) matrices, the slopes per row where a point or the
twist enters them, so each term tuple's g varies by row: _coset_rows reads
the index of gcd(m, N) from the divisor table (D.rank, joined across lists by
D.meet) and counts a chunk of tuples as one bincount of row sigma(N) +
offset[g] + e mod g.  Every array holds at most about _BLOCK entries per
block (the caller sizes the blocks; _beta_vec, _coset_rows and _conv chunk
their wider intermediates).  No int64 entry exceeds the side's total term
weight, which the verifier bounds before it batches (identities._fits_int64).

General products (_conv) multiply the counts of two walks, so every
operand is a nonnegative vector.  They are packed, not schoolbook (Kronecker
substitution): in slots of k whole bytes, int.from_bytes makes a vector v
the integer sum_i v[i] 2^(8k i), one exact big-int multiply convolves two of
them, the result is folded mod 2^(8kN) - 1 (slot i onto slot i mod N) and
int.to_bytes reads its slots back.  The product's coefficients are >= 0 and
sum to sum(a) sum(b), so k is that sum's byte length, at most 8 (a walk's
counts sum to less than N, so their products stay below N^2).

The generating functions, the k-sum, the character line sum and the
character-sum form of F_D are sums over characters of walk terms.  A term's
exponent is linear in the characters, so with chi^theta_j entering the
characters at a slope it is e + sum_j theta_j m_j; _walk_terms gives the
terms of one walk at one slope as a triple (E, M, W) of exponents e, slopes
m and 0/1 weights, a dead term weighing 0, and a binomial factor {chi^b
theta choose theta} is the n = 0 walk at (b, b) with slope (1, 0).  The
T41-T43 left-hand sides and the k-sum's right-hand side are one theta-sum,
_theta_sum: sum over theta of {chi^b theta choose theta} theta(t) times the
F_D walk at a slope, one slope per variant.  Summed over theta in Z_N^n, such
a term is N^(n-1) g at every exponent = e mod g, g = gcd(m_1, .., m_n, N),
so _coset_counts counts the live term tuples by (g, e mod g), into one flat
accumulator of sigma(N) slots with a row per divisor g, and forms no row per
character.  It reads the field's divisor table (FieldTable.divisor_table, a
cyclo.DivisorTable: the divisors of N, their row offsets, the index of
gcd(k, N) and mu(h/g) for g | h | N, built once per field).  A block of rows
is counted by _coset_rows; one assignment one of two ways, with the same
integers:

  _coset_rows     as a block of one row: a chunk of tuples is one bincount
                  at offset[g] + e mod g, each tuple's g read by index
                  (D.rank, joined across lists by D.meet), a dead tuple
                  counted past the end; |T| |F_1| .. |F_n| tuple steps;
  _coset_moebius  counts, for each h | N, the tuples whose slopes h divides,
                  by e mod h (D_h: the live pairs of the lists joined on m
                  mod h in NumPy, as h x h histograms for small h and as
                  buckets for large h, about min(h^3, |T| |F| / h) pairs at
                  n = 1), and takes the row of g as sum over g | h | N of
                  mu(h/g) D_h folded mod g: Moebius inversion on the divisor
                  lattice of N (Apostol, Introduction to Analytic Number
                  Theory, ch. 2; Rota 1964).

The cost rule sends one assignment to _coset_moebius when its tuples number
more than _PASS_STEPS per divisor and list: from a per-call table of both
counts, one row was faster at 320 tuples per divisor and list and Moebius
inversion at 610.  So every gate field (N <= 12) and every line sum up to
q = 4096 counts one row, and the theta-sums of large fields count by
inversion, where the N^2 (n = 1) or N^3 (t2.1 at n = 2) tuples would
dominate.  Where N^n times the tuples reaches 2^63 (t2.1 at q = 64 from n =
5) the Moebius counts are Python ints, the only sides in object rows.  Both
count the same tuples in Z[Z_N]; neither uses a relation of Z[zeta_N].

Characters are labelled by exponent: chi_m sends the field's generator g
to zeta_N^m, so chi_0 is the trivial character eps, and a Char is the
record (field, m) that the public ops take.  Pitfall worth repeating: every
character is extended to all of F_q by chi(0) = 0, eps included.  The
factors eps(x_1 ... x_n) above rely on this; the common textbook convention
eps(0) = 1 would silently change results.

Every sum takes the field's shared FieldTable and keeps no state between or
within calls: the public ops (one assignment each) reduce modulo Phi_N to a
canonical CycInt once, at the end; the verifier never reduces: it decides
equality of fresh raw rows with cyclo.vanishes and builds canonical form
only for output.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import cyclo
from .cyclo import CycInt
from .errors import DomainViolation, FieldMismatch
from .ff_core import FieldTable, _check_points

# -- group-ring vector helpers --------------------------------------------------


def _conv(a, b, N: int):
    """Cyclic convolution of two length-N count vectors (entries >= 0), as an
    int64 row: one packed multiply (General products, above), each operand
    the integer of the low k bytes of its <i8 entries, k the byte length of
    sum(a) sum(b).  A negative entry or a sum(a) sum(b) of 2^63 or more is a
    ValueError.

    On a block (both operands (R, N) arrays) row r of the product is
    sum_j a[r, j] b[r, i - j], gathered through an N x N index table for at
    most _BLOCK // N^2 rows at a time; each entry is at most sum(a) sum(b)."""
    if np.ndim(a) == 2:
        back = (np.arange(N) - np.arange(N)[:, None]) % N  # back[j, i] = i - j mod N
        step = max(1, _BLOCK // (N * N))
        return np.concatenate([(a[r:r + step, :, None] * b[r:r + step][:, back]).sum(axis=1)
                               for r in range(0, max(1, len(a)), step)])
    try:
        a8, b8 = np.ascontiguousarray(a, "<i8"), np.ascontiguousarray(b, "<i8")
    except OverflowError:
        raise ValueError("_conv takes counts in [0, 2^63)") from None
    # an int64 sum is exact below 2^32 per entry (N < 2^31)
    bound = math.prod(sum(v.tolist()) if v.max() >> 32 else int(v.sum()) for v in (a8, b8))
    if bound >> 63 or min(a8.min(), b8.min()) < 0:
        raise ValueError(f"_conv takes counts in [0, 2^63) with sum(a) sum(b) = {bound} "
                         "below 2^63")
    k = -(-bound.bit_length() // 8)
    A, B = (int.from_bytes(v.view(np.uint8).reshape(N, 8)[:, :k].tobytes(), "little")
            for v in (a8, b8))
    P, bits = A * B, 8 * k * N
    M = (1 << bits) - 1  # 2^bits = 1 mod M: folding slots mod N is reducing P mod M
    while P > M:
        P = (P & M) + (P >> bits)
    out = np.zeros((N, 8), dtype=np.uint8)
    out[:, :k] = np.frombuffer(P.to_bytes(k * N, "little"), dtype=np.uint8).reshape(N, k)
    return out.view("<i8").ravel()


def _nrows(*ms) -> int | None:
    """R when any argument is an int64 column (a block of R rows), None when
    every one is an int (one assignment)."""
    for m in ms:
        if type(m) is np.ndarray:
            return len(m)
    return None


def _down(m):
    """A column as an (R, 1) column, rows down and positions across; an int
    as itself."""
    return m[:, None] if type(m) is np.ndarray else m


def _row_slices(R: int, width: int):
    """Slices of at most max(1, _BLOCK // width) of R rows: a kernel whose
    per-row intermediate holds `width` entries takes its rows a slice at a
    time, so that it holds about _BLOCK entries at most."""
    step = max(1, _BLOCK // width)
    return [slice(a, a + step) for a in range(0, R, step)]


def _cut(m, rows: slice):
    """The rows of a column, or an int as itself."""
    return m[rows] if type(m) is np.ndarray else m


def _zeros(N: int, R: int | None):
    """A fresh zero side: a length-N int64 row, or an (R, N) int64 array for
    a block of R rows."""
    return np.zeros(N if R is None else (R, N), dtype=np.int64)


def _delta(m, N: int):
    """delta(chi_m), 1 when m = 0 mod N and 0 otherwise: an int, or a 0/1
    column on a block."""
    return (m % N == 0) * 1


def _is(x, v):
    """[x = v] for a point x: 1 or 0, or a 0/1 column on a block."""
    return (x == v) * 1


def _log(f: FieldTable, x):
    """log x, -1 at 0: an int, or a column on a block."""
    return f.log_array[x] if type(x) is np.ndarray else f.log_table[x]


def _addm(out, e, scale=1) -> None:
    """out += scale * zeta^e, in place.  One assignment's side is one row; on
    a block (out an (R, N) array) e and scale may be columns, one entry per
    row."""
    rows = out.reshape(-1, out.shape[-1])
    rows[np.arange(len(rows)), e % rows.shape[1]] += scale


def _mono_exp(f: FieldTable, pairs):
    """(e, w): the exponent of a product of character values chi_m(x) and its
    weight, 0 if any x is 0 and 1 otherwise (e is then any int).  On a block
    both may be columns, one entry per row."""
    N, L = f.n_chars, f.log_table
    e, w = 0, 1
    for m, x in pairs:
        if type(x) is np.ndarray:
            w = w * (x != 0)
            e = e + m % N * f.log_array[x]
        elif x == 0:
            w = 0
        else:
            e = e + m % N * L[x]
    return e, w


# -- the sums, over exponents: u = g^i and 1 - u = g^Z[i] -------------------------

# entries per array of a block: a side's rows per block (identities._block_rows)
# and the chunks of _beta_vec's pair sums, _coset_rows's tuples, _conv's
# products and _coset_moebius's joins, which bounds their memory
_BLOCK = 1 << 15


def _zech_rot(f: FieldTable, x):
    """Z[log x + i] at i = 1..N-1, log(1 - x u), with -1 at the one i where
    x u = 1 (none when x = 1): a slice of the doubled Zech array for an int
    x, and for a column an (R, N - 1) gather, a row per row, -1 across every
    row where x = 0 (F_D carries eps(x), so each term of that row is dead)."""
    N, Z2 = f.n_chars, f.zech_array
    if type(x) is np.ndarray:
        z = Z2[f.log_array[x][:, None] + np.arange(1, N)]
        z[x == 0] = -1
        return z
    if x == 0:
        return np.full(N - 1, -1)
    lx = f.log_table[x]
    return Z2[lx + 1:lx + N]


def _exponents(f: FieldTable, e0, mA, mBs, mC, xs, R: int | None = None):
    """The walk's exponent column e0 + A i + (C - A) Z[i] - sum_j B_j
    Z[log x_j + i] at i = 1..N-1, as int64 entries in [0, N), and its dead
    mask, True where some factor 1 - x_j u = 0 kills the term (one position
    per slot, none where x_j = 1, every one where x_j = 0).  On a block of R
    rows (any argument may be a column) both are (R, N - 1) matrices, a row
    per row, each B-slot adding its rotation of the Zech array (_zech_rot).
    Every character is reduced mod N before its product is added, so the sum
    stays below (n + 2) N^2, far inside int64, and is reduced mod N once, at
    the end; the sums are formed in place."""
    N, Z2 = f.n_chars, f.zech_array
    if R is not None:  # characters down as (R, 1) columns, positions across
        e0, mA, mC, *mBs = map(_down, (e0, mA, mC, *mBs))
    e = np.empty((N - 1,) if R is None else (R, N - 1), dtype=np.int64)
    np.multiply(mA % N, np.arange(1, N), out=e)
    dead = np.zeros(e.shape, dtype=bool)
    e += (mC - mA) % N * Z2[1:N]
    e += e0 % N
    for mb, x in zip(mBs, xs):
        z = _zech_rot(f, x)
        e += -mb % N * z
        if R is not None or x == 0:
            dead |= z < 0
        elif lx := f.log_table[x]:
            dead[N - lx - 1] = True  # the position of i = N - lx
    e %= N
    return e, dead


def _fd_vec(f: FieldTable, mA, mBs, mC, xs, *, e0=0, s=1, out=None):
    """out += s zeta^e0 F_D, one walk over u adding s at each term's exponent;
    out is a fresh zero vector when None, and s = 0 (a zero weight) adds
    nothing.  At n = 0 the walk is {A choose C}: with no B-slot, u -> u/(u-1)
    maps its terms one to one onto those of the binomial.  The exponent
    column is counted with one bincount, its dead terms in one slot past the
    last.  On a block of rows (A an int64 column; the other characters, the
    points, e0 and s columns or ints; out an (R, N) array) each row's
    exponents are offset by N times its row, so one bincount counts every
    row, and the counts come back as an (R, N) array.  The counts are scaled
    by s in int64, exact while |s| (N - 1) < 2^63 (the callers' s is 0, 1, -1
    or q - 1 times a 0/1 weight), and added into `out` in place in one pass."""
    N, R = f.n_chars, _nrows(mA)
    if R is None and (s == 0 or 0 in xs):
        return _zeros(N, R) if out is None else out
    e, dead = _exponents(f, e0 + (mA + mC) * f.log_neg1, mA, mBs, mC, xs, R)
    slots = N * (R or 1)
    if R is not None:
        e += N * np.arange(R)[:, None]  # row r counts into slots rN .. rN + N - 1
        s = _down(s)
    if mBs:  # with no B-slot no term is dead
        e[dead] = slots
    counts = np.bincount(e.ravel(), minlength=slots + 1)[:slots]
    if R is not None:
        counts = counts.reshape(R, N)
    if isinstance(s, np.ndarray) or s != 1:
        counts = counts * s
    return counts if out is None else np.add(out, counts, out=out)


def _beta_vec(f: FieldTable, mA, mBs, mC, xs):
    """sum over u of B_1(u) B_2(1-u) F_D^(n-1)(A; B_1 B_2, B_3..; C | x_m, x_3..),
    x_m = u x_1 + (1-u) x_2, as a fresh int64 row (an (R, N) array on a block
    of rows, A an int64 column): one _fd_vec walk per u, done as one double
    walk.  Only x_m moves with u, so the term at u = g^i, v = g^k has
    exponent c(i) + b(k) + z(log x_m + k), with

        b(k) = A k + (C - A) Z[k] - sum_{j>=3} B_j Z[log x_j + k]  (built once)
        z(k) = -(B_1 + B_2) Z[k]  (built once, doubled: a rotation is a slice)
        c(i) = (A + C) log(-1) + B_1 i + B_2 Z[i]  (one per u),

    as int64 columns.  A factor 1 - x v = 0 makes b(k) or z(k) dead: D = 3N
    lifts any sum with a dead part to 3N or more, which no live sum (c, b, z
    each reduced mod N) reaches.  One assignment is a block of one row,
    returned as its row.  Each row's z, doubled, is a stretch of
    2N entries of one flat array, and rows[l] is a read-only view of the
    N - 1 entries from l, so lm[u, r] (row r's log x_m at u, plus 2N r) picks
    row r's rotated column, and the live u's of every row are one gather;
    a u where x_m = 0, and every u of a row with a zero point, has c lifted
    past the last row.  A block of at most _BLOCK pair sums at a time (at
    least one u) is bincounted into the 7N slots of its row, and a block of
    more than _BLOCK // 7N rows runs a slice of rows at a time.  Every live
    sum is below 7N."""
    N, Z2, R = f.n_chars, f.zech_array, _nrows(mA)
    if N == 1 or R is None and 0 in xs:
        return _zeros(N, R)
    if R is not None and R > _BLOCK // (7 * N) > 0:
        return np.concatenate([_beta_vec(f, _cut(mA, s), [_cut(m, s) for m in mBs], _cut(mC, s),
                                           [_cut(x, s) for x in xs])
                               for s in _row_slices(R, 7 * N)])
    one, R = R is None, R or 1
    if not one:  # every character a column: each row has its own b and z
        mA, mC, *mBs = (np.broadcast_to(m, R) for m in (mA, mC, *mBs))
    x1, x2 = xs[0], xs[1]
    D = 3 * N
    base, dead = _exponents(f, 0, mA, mBs[2:], mC, xs[2:], None if one else R)  # b(k), per row
    base[dead] = D
    if not one:
        base += 7 * N * np.arange(R)[:, None]  # row r's sums land in its own 7N slots
    col = _down(-(mBs[0] + mBs[1]) % N) * Z2 % N
    col[..., Z2 < 0] = D
    rows = np.lib.stride_tricks.as_strided(col.ravel(), (2 * N * R - N + 2, N - 1),
                                           (col.strides[-1],) * 2, writeable=False)
    i = np.arange(1, N)
    l2 = _log(f, x2)
    # x_m = x_2 (1 - u (x_2 - x_1)/x_2): log x_m = l2 + Z[i + d], and x_m = 0
    # where that Zech entry is -1; x_m = x_2 at every u where x_1 = x_2
    z = Z2[i[:, None] + (_log(f, f.sub(x2, x1)) - l2) % N]  # (u, row)
    lm = np.where(x1 == x2, l2, (l2 + z) % N) + 2 * N * np.arange(R)
    c = ((mA + mC) * f.log_neg1 % N + mBs[0] % N * i[:, None]
         + mBs[1] % N * Z2[i][:, None]) % N  # (u, row)
    c[(z < 0) & (x1 != x2) | (x1 == 0) | (x2 == 0)] = 7 * N * R  # past the last row
    acc = np.zeros(7 * N * R, dtype=np.int64)  # pair sums c + b + z, dead ones at 3N and above
    step = max(1, _BLOCK // (R * (N - 1)))
    for j in range(0, len(i), step):
        block = rows[lm[j:j + step] + 1]
        block += base
        block += c[j:j + step, :, None]
        acc += np.bincount(block.ravel(), minlength=7 * N * R)[:7 * N * R]
    acc = acc.reshape(R, 7 * N)
    out = acc[:, :N] + acc[:, N:2 * N] + acc[:, 2 * N:D]
    return out[0] if one else out


def _walk_terms(f: FieldTable, mA, mBs, mC, xs, dA: int, dBs, dC: int, k=0, w=True):
    """The terms of the F_D walk at the characters A chi^(theta dA), B_j
    chi^(theta dB_j), C chi^(theta dC), twisted by zeta^(theta k), each of
    exponent e + theta d.  A term's exponent is linear in the characters, so
    e is the walk's exponent at (A, B, C) and d its exponent at the slope
    (dA, dB, dC), plus k.  At n = 0 the walk at (b, b) with slope (1, 0) is
    {chi^b theta choose theta} = {chi^(b + theta) choose chi^b}.  A B-slot at
    slope 0 adds nothing to d and skips its product.

    The terms are a triple (E, M, W) of arrays in the order of u: the
    exponents e and slopes d (_exponents', reduced mod N) and the weights, w
    where _exponents finds the term alive and False where it is dead (w =
    False weighs every term 0).  One assignment's are (N - 1,) arrays; a
    block's (A an int64 column of R rows; the other characters, the points,
    k and w columns or ints) are (R, N - 1) matrices, a row per row, the
    slopes involving a point only through a B-slot at a nonzero slope, and
    the twist k."""
    l1, R = f.log_neg1, _nrows(mA)
    e0, d0 = (mA + mC) * l1, (dA + dC) * l1 + k
    e, dead = _exponents(f, e0, mA, mBs, mC, xs, R)
    sloped = [(db, x) for db, x in zip(dBs, xs, strict=True) if db]
    d, _ = _exponents(f, d0, dA, [db for db, _ in sloped], dC, [x for _, x in sloped], R)
    return e, d, ~dead & _down(w)


# the cost of one _coset_moebius pass over a divisor and a list, in tuples of
# a one-row _coset_rows count
_PASS_STEPS = 500


def _coset_counts(D, terms, *factors):
    """sum over theta in Z_N^n of zeta^(e0 + sum_j e_j + sum_j theta_j
    (m0 + m_j)), over the live terms (e0, m0) of `terms` and one live (e_j,
    m_j) from each of the n >= 1 lists `factors`, N = D.n for the divisor
    table D of N.  Each list is a triple (E, M, W) of exponents, slopes and
    0/1 weights (_walk_terms; a factor may be a triple of ints, or of ints
    and columns on a block).  Summed over theta, such a tuple is N^(n-1) g
    at every exponent = e mod g, e = e0 + sum_j e_j and g = gcd(m0 + m_1,
    .., m0 + m_n, N).

    A block of rows (the terms (R, N - 1) matrices) is counted by
    _coset_rows.  One assignment (the terms (N - 1,) arrays) is counted one
    of two ways, with the same integers, into a length-N row: as a block of
    one row by _coset_rows, or by _coset_moebius on its live pairs,
    which makes one pass per divisor and list.  The cost rule sends it to
    _coset_moebius when its tuples number more than _PASS_STEPS per divisor
    and list.  A one-row count stays inside int64: the rule caps the tuples,
    and an entry is at most N^(L-1) times the tuples over L = n + 1 lists;
    where that reaches 2^63 (at N = 2, each list one term, for n >= 63) the
    count is _coset_moebius's too."""
    if np.ndim(terms[0]) == 2:
        return _coset_rows(D, terms, *factors)
    lists = (terms, *factors)
    tuples = math.prod(np.size(E) for E, _, _ in lists)
    if tuples > _PASS_STEPS * len(D.divisors) * len(lists) or D.n ** len(factors) * tuples >> 63:
        return _coset_moebius(D, *lists)
    return _coset_rows(D, *lists)[0]


def _coset_moebius(D, *lists) -> np.ndarray:
    """_coset_counts of one assignment by Moebius inversion on the divisor
    lattice of N, over the live (e, m) pairs of each list (those of weight
    1).  For each h | N, D_h[r] counts the tuples with h | m0 + m_j for
    every j and e = r mod h: the lists joined on m mod h (_join), a fresh
    list first merged into an h x h histogram over (m mod h, e mod h) when
    that is shorter (_merge).  A small h joins histograms, about h^3 pairs
    at n = 1; a large h joins buckets, about |T| |F| / h.  As [gcd(m, N) =
    g] = sum over g | h | gcd(m, N) of mu(h/g), the row of g is the sum over
    g | h | N of mu(h/g) D_h folded mod g (D.moebius[g]), times g.
    Exponents and slopes (walk exponents, far inside int64) are reduced mod N
    first.  No count, scaled by N^(n-1) (_tile), exceeds N^n times the live
    tuples: the counts are int64 below 2^63 and Python ints from there."""
    N = D.n
    T, *Fs = (np.column_stack([a[W] % N for a in np.broadcast_arrays(E, M)])
              for E, M, W in lists)
    tuples = math.prod(len(L) for L in (T, *Fs))
    dtype = np.int64 if N ** len(Fs) * tuples < 2**63 else object
    count = {}  # h -> D_h
    for h in D.divisors:
        a, x, c = _merge(h, T[:, 1] % h, T[:, 0] % h)
        state = a, x, c.astype(dtype)
        for F in Fs[:-1]:
            state = _join(h, *state, F, last=False)
        count[h] = _join(h, *state, Fs[-1], last=True)
    acc = np.zeros(D.size, dtype=dtype)
    for g in D.divisors:
        row = acc[D.offset[g]:D.offset[g] + g]
        for h, mu in D.moebius[g]:
            row += mu * count[h].reshape(-1, g).sum(axis=0)
        row *= g
    return _tile(D, acc, len(Fs))


def _coset_rows(D, *lists) -> np.ndarray:
    """_coset_counts for a block of R rows, as an (R, N) array.  Each list is
    a triple (E, M, W) of exponents, slopes and 0/1 weights, each an (R, T)
    matrix, a row (T,) shared by every row, or an int (one term shared by
    every row), as at least 2-D arrays.  A tuple's g = gcd(m0 + m_1, .., m0
    + m_n, N) is read from D: the index of gcd(m0 + m_j, N) from D.rank, the
    indices of the n lists joined by D.meet.  A chunk of at most max(1,
    _BLOCK // R) tuples is one bincount of row sigma(N) + offset[g] + e mod
    g, a tuple of weight 0 counted past the last row, and, as in _tile, the
    row of g is scaled by g and tiled to length N, and the whole is scaled
    by N^(n-1); a block of more than _BLOCK // sigma(N) rows runs a slice of
    rows at a time.  No int64 entry exceeds N^n times the number of
    tuples."""
    N = D.n
    cols = [tuple(np.atleast_2d(a) for a in L) for L in lists]
    R = max(len(a) for L in cols for a in L)
    if R > _BLOCK // D.size > 0:
        return np.concatenate([_coset_rows(D, *(tuple(a[s] if len(a) == R else a for a in L)
                                                for L in cols))
                               for s in _row_slices(R, D.size)])
    shape = tuple(E.shape[1] for E, _, _ in cols)
    total = math.prod(shape)
    rows = D.size * np.arange(R)[:, None]
    past = R * D.size
    acc = np.zeros(past + 1, dtype=np.int64)
    step = max(1, _BLOCK // R)
    (E0, M0, W0), *rest = cols
    for a in range(0, total, step):
        k0, *ks = np.unravel_index(np.arange(a, min(a + step, total)), shape)
        g, e, w, m0 = None, E0[:, k0], W0[:, k0], M0[:, k0]
        for (E, M, W), k in zip(rest, ks):
            h = m0 + M[:, k]
            h %= N
            g = D.rank[h] if g is None else D.meet[g, D.rank[h]]
            e = e + E[:, k]
            w = w & W[:, k]
        e %= D.value[g]
        e += D.starts[g]
        i = np.where(w, e + rows, past)
        acc += np.bincount(i.ravel(), minlength=past + 1)
    acc = acc[:past].reshape(R, D.size) * D.widths
    out = np.zeros((R, N), dtype=np.int64)
    for g, o in D.offset.items():  # the row of g added to each stretch of g exponents
        out.reshape(R, N // g, g)[...] += acc[:, None, o:o + g]
    return out * N ** (len(lists) - 2)


def _merge(h, a, x):
    """The entries (a, x), one each, with their counts: merged by (a, x) into
    the nonzero cells of an h x h histogram when it has fewer cells than
    there are entries."""
    if h * h >= len(a):
        return a, x, np.ones(len(a), dtype=np.int64)
    cells = np.bincount(a * h + x, minlength=h * h)
    nz = np.flatnonzero(cells)
    return nz // h, nz % h, cells[nz]


def _join(h, a, x, c, F, last: bool):
    """The state (a, x, c), a = m0 mod h, x = e mod h, c a count, joined with
    the (e, m) terms of F where m = -a mod h: the pairs (a, x + e, c w), w
    the count of F's merged entry.  The last list counts them by x + e alone,
    into D_h; a middle one into h x h cells by (a, x + e) when there are more
    pairs than cells, else lists them.  The pairs are formed a block of at
    most _BLOCK at a time (a bucket larger than that is one block), so a
    join holds at most min(pairs, h^2) + _BLOCK entries."""
    b, y, w = _merge(h, -F[:, 1] % h, F[:, 0] % h)
    order = np.argsort(b)
    y, w = y[order], w[order]
    size = np.bincount(b, minlength=h)
    start = np.cumsum(size) - size
    rep = size[a]
    listed = not last and h * h >= rep.sum()
    out = [(a[:0], x[:0], c[:0])] if listed else np.zeros(h if last else h * h, dtype=c.dtype)
    step = max(1, _BLOCK // max(1, int(size.max())))
    for s in range(0, len(a), step):
        r = rep[s:s + step]
        i = np.repeat(np.arange(s, s + len(r)), r)
        k = np.arange(len(i)) + np.repeat(start[a[s:s + step]] - np.cumsum(r) + r, r)
        xk, ck = (x[i] + y[k]) % h, c[i] * w[k]
        if listed:
            out.append((a[i], xk, ck))
        else:
            np.add.at(out, xk if last else a[i] * h + xk, ck)
    if last:
        return out
    if listed:
        return tuple(np.concatenate(v) for v in zip(*out))
    nz = np.flatnonzero(out)
    return nz // h, nz % h, out[nz]


def _tile(D, acc, n: int) -> np.ndarray:
    """The length-N row of the rows in acc, the row of g holding g times its
    counts: each row tiled N/g times, summed over the divisors g of N and
    scaled by N^(n-1), in acc's dtype."""
    N = D.n
    return sum(np.tile(acc[o:o + g], N // g) for g, o in D.offset.items()) * N ** (n - 1)


def _theta_sum(f: FieldTable, mA, mBs, mC, xs, dA: int, dBs, dC: int, b, t):
    """sum over theta of {chi^b theta choose theta} theta(t) F_D(A chi^(theta
    dA); B_j chi^(theta dB_j); C chi^(theta dC) | x): the walk's terms at the
    slope against the binomial factor's, twisted by theta log t, in one coset
    count.  Every summand carries theta(0) = 0: the binomial's terms weigh
    t != 0."""
    if type(mA) is not np.ndarray and t == 0:
        return _zeros(f.n_chars, None)
    return _coset_counts(f.divisor_table, _walk_terms(f, mA, mBs, mC, xs, dA, dBs, dC),
                         _walk_terms(f, b, (), b, (), 1, (), 0, _log(f, t), t != 0))


def _line_vec(f: FieldTable, ma, mb, x):
    """sum over theta of chi^theta(x) {A chi^theta choose B chi^theta}: the
    n = 0 walk at slope (1, 1), weighing x != 0, twisted by theta log x."""
    if type(ma) is not np.ndarray and x == 0:
        return _zeros(f.n_chars, None)
    return _coset_counts(f.divisor_table, _walk_terms(f, ma, (), mb, (), 1, (), 1, 0, x != 0),
                         (0, _down(_log(f, x)), True))


def _charsum_vec(f: FieldTable, mA, mBs, mC, xs):
    """sum over chi_1..chi_n of {A chi^s choose C chi^s} prod_j {B_j chi_j
    choose chi_j} chi_j(x_j), s = sum_j chi_j: the n = 0 walk at slope (1, 1)
    against the terms of each twisted binomial, one coset count over Z_N^n;
    each binomial weighs x_j != 0."""
    if type(mA) is not np.ndarray and 0 in xs:
        return _zeros(f.n_chars, None)
    return _coset_counts(f.divisor_table, _walk_terms(f, mA, (), mC, (), 1, (), 1),
                         *(_walk_terms(f, mb, (), mb, (), 1, (), 0, _log(f, x), x != 0)
                           for mb, x in zip(mBs, xs)))


# -- public types ----------------------------------------------------------------


@dataclass(frozen=True)
class Char:
    """The character chi_m of `field`: an integer exponent m, read mod q - 1."""
    field: FieldTable
    m: int

    def __post_init__(self):
        if type(self.m) is not int:  # a bool is no exponent
            raise ValueError(f"character exponent must be an integer, got {self.m!r}")
        object.__setattr__(self, "m", self.m % self.field.n_chars)

    def __repr__(self):
        return f"chi_{self.m}[q={self.field.q}]"


def _same_field(*chars: Char, points=(), name="x") -> FieldTable:
    """The one field of `chars`, in which every point must be an element
    index 0 <= x < q."""
    f = chars[0].field
    for c in chars[1:]:
        if c.field is not f and c.field != f:
            raise FieldMismatch()
    _check_points(f.q, points, name)
    return f


@dataclass(frozen=True)
class FdInstance:
    A: Char
    B: tuple[Char, ...]
    C: Char
    x: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "B", tuple(self.B))
        object.__setattr__(self, "x", tuple(self.x))
        if len(self.B) < 1 or len(self.B) != len(self.x):
            raise ValueError("need n = |B| = |x| >= 1")
        _same_field(self.A, *self.B, self.C, points=self.x)

    @property
    def field(self) -> FieldTable:
        return self.A.field

    @property
    def n(self) -> int:
        return len(self.B)


@dataclass(frozen=True)
class GenFnInstance:
    base: FdInstance
    t: int
    variant: str  # T41 | T42 | T43

    def __post_init__(self):
        if self.variant not in ("T41", "T42", "T43"):
            raise ValueError(f"unknown variant {self.variant!r}")
        _same_field(self.base.A, points=(self.t,), name="t")


# -- public ops -------------------------------------------------------------------


def jacobi(chi: Char, lam: Char) -> CycInt:
    """J(chi, lam) = lam(-1) {chi choose lam^-1}: the n = 0 walk."""
    f = _same_field(chi, lam)
    return cyclo.from_coeffs(f.n_chars, _fd_vec(f, chi.m, (), -lam.m, (),
                                                e0=lam.m * f.log_neg1))


def binom(A: Char, B: Char) -> CycInt:
    f = _same_field(A, B)
    return cyclo.from_coeffs(f.n_chars, _fd_vec(f, A.m, (), B.m, ()))


def gauss_2f1(A: Char, B: Char, C: Char, x: int, normalization: str = "unscaled"):
    """2F1(A,B;C|x) = F_D^(1)(B;A;C|x).  normalization="greene" returns the
    1/q-rescaled value as an exact (CycInt, q) numerator/denominator pair."""
    if normalization not in ("unscaled", "greene"):
        raise ValueError(f"unknown normalization {normalization!r}")
    f = _same_field(A, B, C, points=(x,))
    val = cyclo.from_coeffs(f.n_chars, _fd_vec(f, B.m, (A.m,), C.m, (x,)))
    return (val, f.q) if normalization == "greene" else val


def appell_f1(A: Char, B: Char, B2: Char, C: Char, x: int, y: int) -> CycInt:
    f = _same_field(A, B, B2, C, points=(x,))
    _check_points(f.q, (y,), "y")
    return cyclo.from_coeffs(f.n_chars, _fd_vec(f, A.m, (B.m, B2.m), C.m, (x, y)))


def lauricella_def(inst: FdInstance) -> CycInt:
    f = inst.field
    return cyclo.from_coeffs(f.n_chars, _fd_vec(f, inst.A.m, [c.m for c in inst.B],
                                                inst.C.m, inst.x))


def lauricella_charsum(inst: FdInstance) -> CycInt:
    f = inst.field
    raw = _charsum_vec(f, inst.A.m, [c.m for c in inst.B], inst.C.m, inst.x)
    return cyclo.div_exact(cyclo.from_coeffs(f.n_chars, raw), f.n_chars ** inst.n)


def char_line_sum(A: Char, B: Char, x: int) -> CycInt:
    """sum over all chi of {A chi choose B chi} chi(x), counted over one walk."""
    f = _same_field(A, B, points=(x,))
    return cyclo.from_coeffs(f.n_chars, _line_vec(f, A.m, B.m, x))


# -- generating-function sums ------------------------------------------------------
#
# Three theta-indexed families.  lhs is the literal theta-sum; rhs is the
# closed form it equals (verified exhaustively for small q):
#
#   T41 (t != 1), generating over the A-slot:
#     sum_theta {A C^-1 theta choose theta} F_D(A theta; B; C | x) theta(t)
#       = (q-1) [ eps(t) A^-1(1-t) F_D(A; B; C | x_j/(1-t))
#                 - eps(x_1..x_n) (A^-1 C)(-t) prod_j B_j^-1(1-x_j) ]
#
#   T42 (all t), generating over the B_n-slot:
#     sum_theta {B_n theta choose theta} F_D(A; .., B_n theta; C | x) theta(t)
#       = (q-1) eps(t) B_n^-1(1-t) F_D(A; B; C | .., x_n/(1-t))
#         - (q-1) eps(x_1..x_{n-1}) B_n^-1(-t) (B_1..B_{n-1} C^-1)(x_n)
#               (A^-1 C)(1-x_n) prod_{j<n} B_j^-1(x_n - x_j)
#         + [t = 1] (q-1) B_n^-1(-x_n)
#               F_D^(n-1)(A B_n^-1; B_1..B_{n-1}; C B_n^-1 | x_1..x_{n-1})
#
#   T43 (all t), generating over the C-slot:
#     sum_theta {A C^-1 theta choose theta} F_D(A; B; C theta^-1 | x) theta(t)
#       = (q-1) eps(t) C(1+t) F_D(A; B; C | x_j (1+t))
#         - (q-1) (A^-1 C)(-t) eps(x_1..x_n) prod_j B_j^-1(1-x_j)
#         + [t = -1] (q-1) eps(x_1..x_n) sum_y C(y) prod_j B_j^-1(1-x_j y)


def _genfn_lhs_vec(f: FieldTable, mA, mBs, mC, xs, t, variant):
    # theta's slope on (A, B_n, C): A theta (T41), B_n theta (T42), C theta^-1 (T43)
    dA, dB, dC = {"T41": (1, 0, 0), "T42": (0, 1, 0), "T43": (0, 0, -1)}[variant]
    b = mBs[-1] if variant == "T42" else mA - mC
    return _theta_sum(f, mA, mBs, mC, xs, dA, (0,) * (len(mBs) - 1) + (dB,), dC, b, t)


def _genfn_rhs_vec(f: FieldTable, mA, mBs, mC, xs, t, variant):
    # Every case on t is a weight: [t = 1] (T42) and [t = -1] (T43) are 0/1
    # factors, and a zero point or t gives its monomial weight 0.
    q = f.q
    out = _zeros(f.n_chars, _nrows(mA))
    # (q-1) eps(t) m(y) F_D(A; B; C | x scaled by y): y = (1-t)^-1 scales every
    # x_j with m = A (T41) or x_n alone with m = B_n (T42); y = 1 + t scales
    # every x_j with m = C (T43).  y = 0 (1 - t = 0 or 1 + t = 0) leaves it out.
    if variant == "T43":
        y, m = f.add(1, t), mC
    else:
        y, m = f.inv0(f.sub(1, t)), (mA if variant == "T41" else mBs[-1])
    e, w = _mono_exp(f, [(0, t), (m, y)])
    ys = [*xs[:-1], f.mul(xs[-1], y)] if variant == "T42" else [f.mul(x, y) for x in xs]
    _fd_vec(f, mA, mBs, mC, ys, e0=e, s=(q - 1) * w, out=out)
    eps = [(0, x) for x in xs]

    if variant == "T42":
        xn = xs[-1]
        e, w = _mono_exp(f, [(-mBs[-1], f.neg(t)), (sum(mBs[:-1]) - mC, xn),
                             (mC - mA, f.sub(1, xn)), *eps[:-1],
                             *((-mb, f.sub(xn, x)) for mb, x in zip(mBs[:-1], xs[:-1]))])
        _addm(out, e, -(q - 1) * w)
        e, w = _mono_exp(f, [(-mBs[-1], f.neg(xn))])
        _fd_vec(f, mA - mBs[-1], mBs[:-1], mC - mBs[-1], xs[:-1],
                e0=e, s=(q - 1) * w * _is(t, 1), out=out)
        return out

    # T41 and T43: eps(x_1..x_n) prod_j B_j^-1(1 - x_j), times (A^-1 C)(-t)
    bx = [*eps, *((-mb, f.sub(1, x)) for mb, x in zip(mBs, xs))]
    e, w = _mono_exp(f, [(mC - mA, f.neg(t)), *bx])
    _addm(out, e, -(q - 1) * w)
    if variant == "T43":
        # [t = -1] sum over y != 0 of C(y) prod_j B_j^-1(1 - x_j y): the walk
        # with A = C is its terms at y = u != 0, 1 (the walk's prefactor
        # zeta^(2C log(-1)) is 1), and y = 1 is one monomial
        at = _is(t, f.p - 1)
        _fd_vec(f, mC, mBs, mC, xs, s=(q - 1) * at, out=out)
        e, w = _mono_exp(f, bx)
        _addm(out, e, (q - 1) * w * at)
    return out


def _genfn(g: GenFnInstance, side) -> CycInt:
    if g.variant == "T41" and g.t == 1:
        raise DomainViolation("T41 requires t != 1")
    f, b = g.base.field, g.base
    return cyclo.from_coeffs(f.n_chars, side(f, b.A.m, tuple(c.m for c in b.B), b.C.m, b.x,
                                             g.t, g.variant))


def genfn_lhs(g: GenFnInstance) -> CycInt:
    return _genfn(g, _genfn_lhs_vec)


def genfn_rhs(g: GenFnInstance) -> CycInt:
    return _genfn(g, _genfn_rhs_vec)
