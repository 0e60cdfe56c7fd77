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
vector per term; at n = 0 (no B-slot) the walk is the binomial {A choose C}.

General products are packed, not schoolbook (Kronecker substitution): a
vector v becomes the integer sum_i v[i] 2^(w i), one exact big-int multiply
convolves two of them, and the result is folded mod 2^(w N) - 1 (slot i onto
slot i mod N) and decoded.  The slot width w is taken per call from a bound
proven from the inputs, the product of the operands' l1 norms times the
number of terms summed: w holds the sign bit and that bound, rounded up to
whole bytes, so no folded coefficient can overflow its slot.  Sums over a
character index, sum_c zeta^(c k) U_c V_c, accumulate packed products (the
twist is a shift) and decode once; the character-sum form of F_D convolves
its n character slots over the index this way instead of walking all N^n
tuples.  The generating functions sum N F_D values that differ by chi^theta
in one slot, exponents affine in theta: _fd_rows walks u once for all N.

A per-field context (_Ev) carries the field's shared tables and one memo, of
binomials, that lives for one call: the public ops build a fresh context per
call and reduce modulo Phi_N to a canonical CycInt once, at the end; the
verifier builds one per field per `verify` or `replay` call and never
reduces, because it decides equality of raw vectors with cyclo.vanishes and
builds canonical form only for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import chain

from . import cyclo
from .charset import Char
from .cyclo import CycInt
from .errors import DomainViolation, FieldMismatch
from .ff_core import FieldTable

# -- per-field context --------------------------------------------------------


class _Ev:
    """Evaluation context of one field: its shared tables as flat attributes
    and one memo, of binomial vectors keyed by (A, B) and their packed forms
    keyed by (A, B, w).  The memo lives as long as the context, which is one
    call: of a public op below, or of identities.verify or replay."""

    def __init__(self, f: FieldTable):
        self.f = f
        self.q = f.q
        self.N = f.n_chars
        self.L = f.log_table
        self.Z = f.zech_table
        self.neg1 = f.neg(1)
        self.binoms: dict[tuple, tuple[int, ...] | int] = {}


# -- group-ring vector helpers --------------------------------------------------


def _l1(v) -> int:
    return sum(map(abs, v))


def _slot_bits(bound: int) -> int:
    """Packed slot width w for integers of absolute value <= bound: the sign
    bit plus bound's bits, rounded up to whole bytes so that few widths occur."""
    return 8 * (bound.bit_length() // 8 + 1)


@lru_cache(maxsize=64)
def _offset(w: int, length: int) -> int:
    """sum_i 2^(w-1) 2^(w i) over `length` slots: shifts signed slots to >= 0."""
    return (1 << (w - 1)) * ((1 << (w * length)) - 1) // ((1 << w) - 1)


# Slots per Horner or shift-and-mask run in _pack and _slots; longer vectors
# are halved, which keeps their big-int work near-linear in the length.
_RUN = 32


def _pack(v, w: int) -> int:
    """Kronecker substitution: sum_i v[i] 2^(w i), exact for any integers."""
    n = len(v)
    if n > _RUN:
        m = n // 2
        return _pack(v[:m], w) + (_pack(v[m:], w) << (w * m))
    P = 0
    for x in reversed(v):
        P = (P << w) + x
    return P


def _slots(G: int, w: int, n: int, h: int) -> list[int]:
    """The n w-bit slots of G >= 0, each minus h."""
    if n > _RUN:
        m = n // 2
        return _slots(G & ((1 << (w * m)) - 1), w, m, h) + _slots(G >> (w * m), w, n - m, h)
    mask = (1 << w) - 1
    return [(G >> (w * i) & mask) - h for i in range(n)]


def _unpack(P: int, w: int, N: int) -> list[int]:
    """The group-ring vector of a packed value P = sum_i r_i 2^(w i): entry
    j is sum of r_i over i = j mod N.  Exact when every entry is below
    2^(w-1) in absolute value, which the callers' widths guarantee."""
    k = w * N
    M = (1 << k) - 1  # 2^k = 1 mod M: folding slots mod N is reducing P mod M
    while P < 0 or P > M:
        P = (P & M) + (P >> k)
    if P > M >> 1:  # the folded vector's value lies in (-M/2, M/2)
        P -= M
    return _slots(P + _offset(w, N), w, N, 1 << (w - 1))


def _conv(a, b, N: int) -> list[int]:
    """Cyclic convolution of two length-N vectors: one packed multiply.  Every
    coefficient of the product is at most l1(a) l1(b) in absolute value."""
    w = _slot_bits(_l1(a) * _l1(b))
    return _unpack(_pack(a, w) * _pack(b, w), w, N)


def _addm(out: list[int], e: int | None, scale: int = 1) -> None:
    """out += scale * zeta^e; no-op when the monomial is zero."""
    if e is not None:
        out[e % len(out)] += scale


def _mono_exp(ev: _Ev, pairs) -> int | None:
    """Exponent of a product of character values chi_m(x); None if any x is 0."""
    e = 0
    for m, x in pairs:
        if x == 0:
            return None
        e += (m % ev.N) * ev.L[x]
    return e


# -- the sums, over exponents: u = g^i and 1 - u = g^Z[i] -------------------------


def _jacobi_vec(ev: _Ev, ma: int, mb: int, e0: int = 0) -> list[int]:
    """zeta^e0 J(chi^ma, chi^mb)."""
    N, Z = ev.N, ev.Z
    out = [0] * N
    ma %= N
    mb %= N
    for i in range(1, N):  # u = 0 and u = 1 contribute chi(0) = 0
        out[(e0 + ma * i + mb * Z[i]) % N] += 1
    return out


def _binom_vec(ev: _Ev, ma: int, mb: int) -> tuple[int, ...]:
    key = (ma % ev.N, mb % ev.N)
    v = ev.binoms.get(key)
    if v is None:
        ma, mb = key
        v = ev.binoms[key] = tuple(_jacobi_vec(ev, ma, -mb, mb * ev.f.log_neg1))
    return v


def _binom_packed(ev: _Ev, ma: int, mb: int, w: int) -> int:
    """{A choose B} packed at slot width w, memoized by width beside the
    vector.  Its entries count the N - 1 values u != 0, 1: its l1 is N - 1."""
    key = (ma % ev.N, mb % ev.N, w)
    P = ev.binoms.get(key)
    if P is None:
        P = ev.binoms[key] = _pack(_binom_vec(ev, ma, mb), w)
    return P


def _binom_sum(ev: _Ev, keys, Vs, k: int, w: int) -> list[int]:
    """sum_c zeta^(c k) {A_c choose B_c} V_c over keys[c] = (A_c, B_c) and
    V_c = Vs[c] packed at width w, c = 0, 1, ...: one packed accumulation
    (the twist is a shift) and one unpack.  Every coefficient of the result
    must be below 2^(w-1) in absolute value."""
    N = ev.N
    acc = 0
    for c, ((ma, mb), V) in enumerate(zip(keys, Vs)):
        if V:
            acc += (_binom_packed(ev, ma, mb, w) << (w * (c * k % N))) * V
    return _unpack(acc, w, N)


def _binom_vec_sum(ev: _Ev, keys, vecs, k: int) -> list[int]:
    """sum_c zeta^(c k) {keys[c]} vecs[c] for length-N vectors vecs[c]; each
    term's l1 is at most (N - 1) l1(vecs[c])."""
    w = _slot_bits((ev.N - 1) * _l1(chain.from_iterable(vecs)))
    return _binom_sum(ev, keys, [_pack(v, w) for v in vecs], k, w)


def _fd_vec(ev: _Ev, mA: int, mBs, mC: int, xs, *, e0: int | None = 0, s: int = 1,
            out: list[int] | None = None) -> list[int]:
    """out += s zeta^e0 F_D, one walk over u adding s at each term's exponent;
    out is a fresh zero vector when None, and e0 = None (a zero prefactor)
    adds nothing.  At n = 0 the walk is {A choose C}: with no B-slot, u ->
    u/(u-1) maps its terms one to one onto those of the binomial."""
    N, Z = ev.N, ev.Z
    if out is None:
        out = [0] * N
    if e0 is None or 0 in xs:
        return out
    mA %= N
    mAC = (mC - mA) % N
    e0 += (mA + mC) * ev.f.log_neg1
    slots = [(-mb % N, ev.L[x]) for mb, x in zip(mBs, xs)]
    for i in range(1, N):
        e = e0 + mA * i + mAC * Z[i]
        for mb, lx in slots:
            z = Z[(lx + i) % N]  # log(1 - x_j u); -1 where x_j u = 1
            if z < 0:
                break
            e += mb * z
        else:
            out[e % N] += s
    return out


def _fd_rows(ev: _Ev, mA: int, mBs, mC: int, xs, slot: str) -> list[list[int]]:
    """The N vectors _fd_vec gives with chi^theta put in one slot, row theta
    for theta = 0..N-1: A theta (slot "A"), B_n theta ("B"), C theta^-1 ("C"),
    or A theta and C theta together ("AC").  Row theta's term at u = g^i has
    exponent e(i) + theta d(i), e(i) that of _fd_vec and d(i) fixed by the
    slot, so one walk over u fills every row.  Slot "B" needs n >= 1."""
    N, Z, l1 = ev.N, ev.Z, ev.f.log_neg1
    rows = [[0] * N for _ in range(N)]
    if any(x == 0 for x in xs):
        return rows
    mA %= N
    mAC = (mC - mA) % N
    e0 = (mA + mC) * l1
    slots = [(-mb % N, ev.L[x]) for mb, x in zip(mBs, xs)]
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


def _line_vec(ev: _Ev, ma: int, mb: int, x: int) -> list[int]:
    out = [0] * ev.N
    if x != 0:
        for ch in range(ev.N):
            _fd_vec(ev, ma + ch, (), mb + ch, (), e0=ch * ev.L[x], out=out)
    return out


def _charsum_vec(ev: _Ev, mA: int, mBs, mC: int, xs) -> list[int]:
    """sum over chi_1..chi_n of {A chi^s choose C chi^s} prod_j {B_j chi_j
    choose chi_j} chi_j(x_j), s = sum_j chi_j, grouped by s:
    W = P_1 * ... * P_n over the character index, P_j[c] = zeta^(c log x_j)
    {B_j chi^c choose chi^c}, then sum_s {A chi^s choose C chi^s} W[s].
    All products are packed; the width comes from N^n terms of l1 norm at
    most (N - 1)^(n+1)."""
    N, L = ev.N, ev.L
    if any(x == 0 for x in xs):
        return [0] * N
    n = len(mBs)
    w = _slot_bits(N ** n * (N - 1) ** (n + 1))
    W = [1] + [0] * (N - 1)  # zeta^0 at character index 0: the empty product
    for mb, x in zip(mBs, xs):
        lx = L[x]
        P = [_binom_packed(ev, mb + c, c, w) << (w * (c * lx % N)) for c in range(N)]
        nz = [(c, v) for c, v in enumerate(W) if v]
        W = [sum(v * P[(s - c) % N] for c, v in nz) for s in range(N)]
    return _binom_sum(ev, [(mA + s, mC + s) for s in range(N)], W, 0, w)


# -- public types ----------------------------------------------------------------


def _same_field(*chars: Char, points=()) -> FieldTable:
    """The one field of `chars`, in which every point must be an element
    index 0 <= x < q."""
    f = chars[0].field
    for c in chars[1:]:
        if c.field is not f and c.field != f:
            raise FieldMismatch()
    for x in points:
        if not 0 <= x < f.q:
            raise ValueError(f"element index {x} out of range for q={f.q}")
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
        _same_field(self.base.A, points=(self.t,))


# -- public ops -------------------------------------------------------------------


def jacobi(chi: Char, lam: Char) -> CycInt:
    ev = _Ev(_same_field(chi, lam))
    return cyclo.from_coeffs(ev.N, _jacobi_vec(ev, chi.m, lam.m))


def binom(A: Char, B: Char) -> CycInt:
    ev = _Ev(_same_field(A, B))
    return cyclo.from_coeffs(ev.N, _binom_vec(ev, A.m, B.m))


def gauss_2f1(A: Char, B: Char, C: Char, x: int, normalization: str = "unscaled"):
    """2F1(A,B;C|x) = F_D^(1)(B;A;C|x).  normalization="greene" returns the
    1/q-rescaled value as an exact (CycInt, q) numerator/denominator pair."""
    ev = _Ev(_same_field(A, B, C, points=(x,)))
    val = cyclo.from_coeffs(ev.N, _fd_vec(ev, B.m, (A.m,), C.m, (x,)))
    if normalization == "unscaled":
        return val
    if normalization == "greene":
        return (val, ev.q)
    raise ValueError(f"unknown normalization {normalization!r}")


def appell_f1(A: Char, B: Char, B2: Char, C: Char, x: int, y: int) -> CycInt:
    ev = _Ev(_same_field(A, B, B2, C, points=(x, y)))
    return cyclo.from_coeffs(ev.N, _fd_vec(ev, A.m, (B.m, B2.m), C.m, (x, y)))


def lauricella_def(inst: FdInstance) -> CycInt:
    ev = _Ev(inst.field)
    return cyclo.from_coeffs(ev.N, _fd_vec(ev, inst.A.m, [c.m for c in inst.B],
                                           inst.C.m, inst.x))


def lauricella_charsum(inst: FdInstance) -> CycInt:
    ev = _Ev(inst.field)
    raw = _charsum_vec(ev, inst.A.m, [c.m for c in inst.B], inst.C.m, inst.x)
    return cyclo.div_exact(cyclo.from_coeffs(ev.N, raw), ev.N ** inst.n)


def char_line_sum(A: Char, B: Char, x: int) -> CycInt:
    """sum over all chi of {A chi choose B chi} chi(x), by direct summation."""
    ev = _Ev(_same_field(A, B, points=(x,)))
    return cyclo.from_coeffs(ev.N, _line_vec(ev, A.m, B.m, x))


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


def _genfn_lhs_vec(ev: _Ev, mA, mBs, mC, xs, t, variant) -> list[int]:
    N = ev.N
    if t == 0:
        return [0] * N  # every summand carries theta(0) = 0
    keys = [((mBs[-1] if variant == "T42" else mA - mC) + th, th) for th in range(N)]
    rows = _fd_rows(ev, mA, mBs, mC, xs, {"T41": "A", "T42": "B", "T43": "C"}[variant])
    return _binom_vec_sum(ev, keys, rows, ev.L[t])


def _genfn_rhs_vec(ev: _Ev, mA, mBs, mC, xs, t, variant) -> list[int]:
    f, N, q = ev.f, ev.N, ev.q
    out = [0] * N

    if variant == "T41":
        if t != 0 and t != 1:  # eps(t), and chi_A(1-t) kills t = 1
            inv1t = f.inv(f.sub(1, t))
            _fd_vec(ev, mA, mBs, mC, [f.mul(x, inv1t) for x in xs],
                    e0=_mono_exp(ev, [(-mA, f.sub(1, t))]), s=q - 1, out=out)
        e = _mono_exp(ev, [(mC - mA, f.neg(t)),
                           *((-mb, f.sub(1, x)) for mb, x in zip(mBs, xs))])
        if all(x != 0 for x in xs):
            _addm(out, e, -(q - 1))
        return out

    if variant == "T42":
        xn = xs[-1]
        if t != 0 and t != 1:
            _fd_vec(ev, mA, mBs, mC, (*xs[:-1], f.div(xn, f.sub(1, t))),
                    e0=_mono_exp(ev, [(-mBs[-1], f.sub(1, t))]), s=q - 1, out=out)
        e = _mono_exp(ev, [(-mBs[-1], f.neg(t)),
                           (sum(mBs[:-1]) - mC, xn),
                           (mC - mA, f.sub(1, xn)),
                           *((-mb, f.sub(xn, x)) for mb, x in zip(mBs[:-1], xs[:-1]))])
        if all(x != 0 for x in xs[:-1]):
            _addm(out, e, -(q - 1))
        if t == 1 and xn != 0:
            _fd_vec(ev, mA - mBs[-1], mBs[:-1], mC - mBs[-1], xs[:-1],
                    e0=_mono_exp(ev, [(-mBs[-1], f.neg(xn))]), s=q - 1, out=out)
        return out

    # T43
    onept = f.add(1, t)
    if t != 0 and onept != 0:
        _fd_vec(ev, mA, mBs, mC, [f.mul(x, onept) for x in xs],
                e0=_mono_exp(ev, [(mC, onept)]), s=q - 1, out=out)
    e = _mono_exp(ev, [(mC - mA, f.neg(t)),
                       *((-mb, f.sub(1, x)) for mb, x in zip(mBs, xs))])
    if all(x != 0 for x in xs):
        _addm(out, e, -(q - 1))
    if t == ev.neg1 and all(x != 0 for x in xs):
        for y in range(1, q):
            e = _mono_exp(ev, [(mC, y),
                               *((-mb, f.sub(1, f.mul(x, y))) for mb, x in zip(mBs, xs))])
            _addm(out, e, q - 1)
    return out


def genfn_lhs(g: GenFnInstance) -> CycInt:
    if g.variant == "T41" and g.t == 1:
        raise DomainViolation("T41 requires t != 1")
    ev = _Ev(g.base.field)
    b = g.base
    return cyclo.from_coeffs(ev.N, _genfn_lhs_vec(ev, b.A.m, tuple(c.m for c in b.B),
                                                  b.C.m, b.x, g.t, g.variant))


def genfn_rhs(g: GenFnInstance) -> CycInt:
    if g.variant == "T41" and g.t == 1:
        raise DomainViolation("T41 requires t != 1")
    ev = _Ev(g.base.field)
    b = g.base
    return cyclo.from_coeffs(ev.N, _genfn_rhs_vec(ev, b.A.m, tuple(c.m for c in b.B),
                                                  b.C.m, b.x, g.t, g.variant))
