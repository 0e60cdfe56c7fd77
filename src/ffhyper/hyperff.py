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
exponent additions, sums are vector increments, and general products are
cyclic convolutions.  This keeps the inner loops integer-only and exact.  The
public ops reduce modulo Phi_N to a canonical CycInt once, at the end; the
verifier never does, because it decides equality of raw vectors with
cyclo.vanishes and builds canonical form only for output.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product as iproduct

from . import cyclo
from .charset import Char
from .cyclo import CycInt
from .errors import DomainViolation, FieldMismatch, ZeroInverse
from .ff_core import FieldTable

# -- per-field kit: flat tables the inner loops index directly -----------------


class _Kit:
    def __init__(self, f: FieldTable):
        self.f = f
        self.q = q = f.q
        self.N = q - 1
        self.L = f.log_table
        self.E = f.exp_table
        self.neg1 = f.neg(1)
        self.negt = tuple(f.neg(x) for x in range(q))
        self.one_minus = tuple(f.sub(1, x) for x in range(q))
        if q <= 256:
            self.addt = tuple(tuple(f.add(x, y) for y in range(q)) for x in range(q))
        else:
            self.addt = None
        self.binoms: dict[tuple[int, int], tuple[int, ...]] = {}

    def add(self, x: int, y: int) -> int:
        if self.addt is not None:
            return self.addt[x][y]
        return self.f.add(x, y)

    def sub(self, x: int, y: int) -> int:
        return self.add(x, self.negt[y])

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        return self.E[(self.L[x] + self.L[y]) % self.N]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverse()
        return self.E[-self.L[x] % self.N]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))


def _kit(f: FieldTable) -> _Kit:
    kit = getattr(f, "_hyperff_kit", None)
    if kit is None:
        kit = _Kit(f)
        f._hyperff_kit = kit
    return kit


# -- group-ring vector helpers --------------------------------------------------


def _conv(a: list[int], b, N: int) -> list[int]:
    out = [0] * N
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                if y:
                    out[(i + j) % N] += x * y
    return out


def _rot(vec, e: int, N: int) -> list[int]:
    e %= N
    if e == 0:
        return list(vec)
    return [vec[(i - e) % N] for i in range(N)]


def _to_cyc(N: int, vec) -> CycInt:
    return cyclo.from_coeffs(N, vec)


def _jacobi_vec(kit: _Kit, ma: int, mb: int) -> list[int]:
    N, L, one_minus = kit.N, kit.L, kit.one_minus
    out = [0] * N
    ma %= N
    mb %= N
    for u in range(2, kit.q):
        out[(ma * L[u] + mb * L[one_minus[u]]) % N] += 1
    return out


def _binom_vec(kit: _Kit, ma: int, mb: int) -> tuple[int, ...]:
    key = (ma % kit.N, mb % kit.N)
    v = kit.binoms.get(key)
    if v is None:
        ma, mb = key
        v = tuple(_rot(_jacobi_vec(kit, ma, -mb), mb * kit.L[kit.neg1], kit.N))
        kit.binoms[key] = v
    return v


def _fd_vec(kit: _Kit, mA: int, mBs, mC: int, xs) -> list[int]:
    """F_D as a group-ring vector.  n=0 is the empty instance, which the
    character-sum expression pins to {A choose C}."""
    N, L, q = kit.N, kit.L, kit.q
    if len(mBs) == 0:
        return list(_binom_vec(kit, mA, mC))
    out = [0] * N
    if any(x == 0 for x in xs):
        return out
    mA %= N
    mAC = (mC - mA) % N
    mBneg = [-m % N for m in mBs]
    one_minus = kit.one_minus
    e0 = (mA + mC) * L[kit.neg1]
    xlogs = [L[x] for x in xs]
    E = kit.E
    for u in range(2, q):
        lu = L[u]
        e = e0 + mA * lu + mAC * L[one_minus[u]]
        skip = False
        for mb, lx in zip(mBneg, xlogs):
            w = E[(lx + lu) % N]  # x_j * u, never 0 here
            if w == 1:
                skip = True
                break
            e += mb * L[one_minus[w]]
        if not skip:
            out[e % N] += 1
    return out


def _charsum_vec(kit: _Kit, mA: int, mBs, mC: int, xs) -> list[int]:
    N, L = kit.N, kit.L
    out = [0] * N
    if any(x == 0 for x in xs):
        return out
    xlogs = [L[x] for x in xs]
    for chs in iproduct(range(N), repeat=len(mBs)):
        s = sum(chs)
        term = list(_binom_vec(kit, mA + s, mC + s))
        e = 0
        for mb, ch, lx in zip(mBs, chs, xlogs):
            term = _conv(term, _binom_vec(kit, mb + ch, ch), N)
            e += ch * lx
        vec = _rot(term, e, N)
        for i in range(N):
            out[i] += vec[i]
    return out


# -- public types ----------------------------------------------------------------


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
        f = self.A.field
        for c in (*self.B, self.C):
            if c.field is not f and c.field != f:
                raise FieldMismatch()
        for x in self.x:
            if not 0 <= x < f.q:
                raise ValueError(f"element index {x} out of range for q={f.q}")

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
        if not 0 <= self.t < self.base.field.q:
            raise ValueError(f"element index {self.t} out of range")


def _same_field(*chars: Char) -> FieldTable:
    f = chars[0].field
    for c in chars[1:]:
        if c.field is not f and c.field != f:
            raise FieldMismatch()
    return f


# -- public ops -------------------------------------------------------------------


def jacobi(chi: Char, lam: Char) -> CycInt:
    f = _same_field(chi, lam)
    kit = _kit(f)
    return _to_cyc(kit.N, _jacobi_vec(kit, chi.m, lam.m))


def binom(A: Char, B: Char) -> CycInt:
    f = _same_field(A, B)
    kit = _kit(f)
    return _to_cyc(kit.N, _binom_vec(kit, A.m, B.m))


def gauss_2f1(A: Char, B: Char, C: Char, x: int, normalization: str = "unscaled"):
    """2F1(A,B;C|x) = F_D^(1)(B;A;C|x).  normalization="greene" returns the
    1/q-rescaled value as an exact (CycInt, q) numerator/denominator pair."""
    f = _same_field(A, B, C)
    kit = _kit(f)
    val = _to_cyc(kit.N, _fd_vec(kit, B.m, (A.m,), C.m, (x,)))
    if normalization == "unscaled":
        return val
    if normalization == "greene":
        return (val, f.q)
    raise ValueError(f"unknown normalization {normalization!r}")


def appell_f1(A: Char, B: Char, B2: Char, C: Char, x: int, y: int) -> CycInt:
    f = _same_field(A, B, B2, C)
    kit = _kit(f)
    return _to_cyc(kit.N, _fd_vec(kit, A.m, (B.m, B2.m), C.m, (x, y)))


def lauricella_def(inst: FdInstance) -> CycInt:
    kit = _kit(inst.field)
    return _to_cyc(kit.N, _fd_vec(kit, inst.A.m, [c.m for c in inst.B], inst.C.m, inst.x))


def lauricella_charsum(inst: FdInstance) -> CycInt:
    kit = _kit(inst.field)
    raw = _charsum_vec(kit, inst.A.m, [c.m for c in inst.B], inst.C.m, inst.x)
    return cyclo.div_exact(_to_cyc(kit.N, raw), kit.N ** inst.n)


def char_line_sum(A: Char, B: Char, x: int) -> CycInt:
    """sum over all chi of {A chi choose B chi} chi(x), by direct summation."""
    f = _same_field(A, B)
    kit = _kit(f)
    N = kit.N
    out = [0] * N
    if x != 0:
        lx = kit.L[x]
        for ch in range(N):
            vec = _rot(_binom_vec(kit, A.m + ch, B.m + ch), ch * lx, N)
            for i in range(N):
                out[i] += vec[i]
    return _to_cyc(N, out)


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


def _mono_exp(kit: _Kit, pairs) -> int | None:
    """Exponent of a product of character values chi_m(x); None if any x is 0."""
    e = 0
    for m, x in pairs:
        if x == 0:
            return None
        e += (m % kit.N) * kit.L[x]
    return e


def _genfn_lhs_vec(kit: _Kit, mA, mBs, mC, xs, t, variant) -> list[int]:
    N, L = kit.N, kit.L
    out = [0] * N
    if t == 0:
        return out  # every summand carries theta(0) = 0
    lt = L[t]
    for th in range(N):
        if variant == "T41":
            term = _conv(_binom_vec(kit, mA - mC + th, th),
                         _fd_vec(kit, mA + th, mBs, mC, xs), N)
        elif variant == "T42":
            term = _conv(_binom_vec(kit, mBs[-1] + th, th),
                         _fd_vec(kit, mA, (*mBs[:-1], mBs[-1] + th), mC, xs), N)
        else:
            term = _conv(_binom_vec(kit, mA - mC + th, th),
                         _fd_vec(kit, mA, mBs, mC - th, xs), N)
        vec = _rot(term, th * lt, N)
        for i in range(N):
            out[i] += vec[i]
    return out


def _genfn_rhs_vec(kit: _Kit, mA, mBs, mC, xs, t, variant) -> list[int]:
    N, q = kit.N, kit.q
    out = [0] * N

    def add_scaled(vec, e, scale):
        e %= N
        for i, v in enumerate(vec):
            if v:
                out[(i + e) % N] += scale * v

    if variant == "T41":
        if t != 0 and kit.one_minus[t] != 0:  # eps(t), and chi_A(1-t) kills t = 1
            inv1t = kit.inv(kit.one_minus[t])
            v = _fd_vec(kit, mA, mBs, mC, [kit.mul(x, inv1t) for x in xs])
            add_scaled(v, _mono_exp(kit, [(-mA, kit.one_minus[t])]), q - 1)
        e = _mono_exp(kit, [(mC - mA, kit.negt[t]),
                            *((-mb, kit.one_minus[x]) for mb, x in zip(mBs, xs))])
        if e is not None and all(x != 0 for x in xs):
            out[e % N] -= q - 1
        return out

    if variant == "T42":
        xn = xs[-1]
        if t != 0 and t != 1:
            v = _fd_vec(kit, mA, mBs, mC, (*xs[:-1], kit.div(xn, kit.one_minus[t])))
            add_scaled(v, _mono_exp(kit, [(-mBs[-1], kit.one_minus[t])]), q - 1)
        e = _mono_exp(kit, [(-mBs[-1], kit.negt[t]),
                            (sum(mBs[:-1]) - mC, xn),
                            (mC - mA, kit.one_minus[xn]),
                            *((-mb, kit.sub(xn, x)) for mb, x in zip(mBs[:-1], xs[:-1]))])
        if e is not None and all(x != 0 for x in xs[:-1]):
            out[e % N] -= q - 1
        if t == 1 and xn != 0:
            v = _fd_vec(kit, mA - mBs[-1], mBs[:-1], mC - mBs[-1], xs[:-1])
            add_scaled(v, _mono_exp(kit, [(-mBs[-1], kit.negt[xn])]), q - 1)
        return out

    # T43
    onept = kit.add(1, t)
    if t != 0 and onept != 0:
        v = _fd_vec(kit, mA, mBs, mC, [kit.mul(x, onept) for x in xs])
        add_scaled(v, _mono_exp(kit, [(mC, onept)]), q - 1)
    e = _mono_exp(kit, [(mC - mA, kit.negt[t]),
                        *((-mb, kit.one_minus[x]) for mb, x in zip(mBs, xs))])
    if e is not None and all(x != 0 for x in xs):
        out[e % N] -= q - 1
    if t == kit.neg1 and all(x != 0 for x in xs):
        for y in range(1, q):
            e = _mono_exp(kit, [(mC, y),
                                *((-mb, kit.one_minus[kit.mul(x, y)])
                                  for mb, x in zip(mBs, xs))])
            if e is not None:
                out[e % N] += q - 1
    return out


def genfn_lhs(g: GenFnInstance) -> CycInt:
    if g.variant == "T41" and g.t == 1:
        raise DomainViolation("T41 requires t != 1")
    kit = _kit(g.base.field)
    b = g.base
    return _to_cyc(kit.N, _genfn_lhs_vec(kit, b.A.m, tuple(c.m for c in b.B), b.C.m,
                                         b.x, g.t, g.variant))


def genfn_rhs(g: GenFnInstance) -> CycInt:
    if g.variant == "T41" and g.t == 1:
        raise DomainViolation("T41 requires t != 1")
    kit = _kit(g.base.field)
    b = g.base
    return _to_cyc(kit.N, _genfn_rhs_vec(kit, b.A.m, tuple(c.m for c in b.B), b.C.m,
                                         b.x, g.t, g.variant))
