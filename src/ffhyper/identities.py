"""Identity registry and verification engine.

Each registered identity is an equation lhs = rhs / d in Z[zeta_{q-1}], in a
tuple of character exponents (`chars`) and field elements (`elems`, points
first, then any extra scalars such as a shared evaluation point or a
generating-function variable).  Both sides return raw group-ring vectors: a
length-(q-1) integer vector indexed by power of zeta_{q-1}.  The denominator
d(q, n) is a rational integer carried by the descriptor (1 for most
identities), so no side divides.  The engine enumerates or samples
assignments, skips those violating the identity's stated domain constraints,
and decides d * lhs = rhs exactly with the vanishing test cyclo.vanishes.
Canonical CycInt values (reduction modulo Phi_{q-1}) are built only for
output: failure entries and `replay`.

Sides are evaluated against one context per field order and call
(hyperff._Ev: the field's shared tables plus one memo, of binomials): every
report of one `verify` call on that field shares it, and `replay` builds its
own, so the engine keeps no state between calls.  F_D is walked per value,
each walk adding its signed, zeta-shifted term into the side's vector;
t3.ksum (at every n, its n = 1 terms being binomials, the n = 0 walk) and
t5.gf1-3 take their N F_D terms from one walk (_fd_rows).

Modes:
  exhaustive -- every assignment in the slot space (size-capped);
  sampled    -- `count` seeded-uniform draws that satisfy the constraints
                (gives up with SamplingGaveUp, naming the constraint that
                rejected most draws, after 1000 * count + 1000 draws);
  boundary   -- the complement: only constraint-violating assignments, where
                mismatches and evaluation errors are recorded, not failed on.

Reports serialize to JSON with a fixed key order; wall time is zeroed unless
timings are requested, so repeated runs are byte-identical.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

from . import cyclo, ff_core, hyperff
from .cyclo import CycInt
from .errors import CapExceeded, FFHyperError, SamplingGaveUp, TooLarge, UnknownIdentity
from .hyperff import _addm, _Ev, _mono_exp

DEFAULT_CAP = 10_000_000
DEFAULT_SAMPLES = 500

# The standard gate grid: exhaustive at small q, DEFAULT_SAMPLES seeded
# samples above.
GATE_EXHAUSTIVE_QS = (3, 4, 5)
GATE_SAMPLED_QS = (7, 8, 9, 11, 13)


# -- evaluation contexts ------------------------------------------------------------


def _ev_for_q(q: int, max_q: int | None = None) -> _Ev:
    """A fresh context, with an empty binomial memo, on the shared table of
    F_q.  q is checked against `max_q` (None: the default cap) before it is
    factored."""
    cap = ff_core.DEFAULT_MAX_Q if max_q is None else max_q
    if not isinstance(cap, int) or cap < 1:
        raise ValueError(f"max_q must be a positive integer, got {max_q!r}")
    if q > cap:
        raise TooLarge(q, cap)
    return _Ev(ff_core.build_field(*ff_core.split_prime_power(q), cap))


# -- identity descriptors -------------------------------------------------------------


@dataclass(frozen=True)
class IdentityDescriptor:
    id: str
    note: str
    n_min: int
    n_max: int | None  # None = no intrinsic bound
    chars: Callable[[int], int]
    elems: Callable[[int], int]
    constraints: tuple[tuple[str, Callable], ...]
    lhs: Callable
    rhs: Callable
    den: Callable[[int, int], int]  # d(q, n) in lhs = rhs / d

    def allows_n(self, n: int) -> bool:
        return n >= self.n_min and (self.n_max is None or n <= self.n_max)

    def slot_space(self, q: int, n: int) -> int:
        return (q - 1) ** self.chars(n) * q ** self.elems(n)


_REGISTRY: dict[str, IdentityDescriptor] = {}


def _reg(id, note, lhs, rhs, *, n_min=1, n_max=None,
         chars=lambda n: n + 2, elems=lambda n: n, constraints=(),
         den=lambda q, n: 1):
    _REGISTRY[id] = IdentityDescriptor(
        id=id, note=note, n_min=n_min, n_max=n_max,
        chars=chars, elems=elems,
        constraints=tuple(constraints), lhs=lhs, rhs=rhs, den=den)


# constraint predicates (cs = character exponents, es = elements)

def _c_b1_nontriv(ev, n, cs, es):
    return cs[2] % ev.N != 0


def _c_b2_nontriv(ev, n, cs, es):
    return cs[3] % ev.N != 0


def _c_xn_ne_1(ev, n, cs, es):
    return es[n - 1] != 1


def _c_all_x_ne_1(ev, n, cs, es):
    return all(x != 1 for x in es[:n])


def _c_t_ne_1(ev, n, cs, es):
    return es[-1] != 1


# -- the identities -------------------------------------------------------------------
# Slot layout unless noted: cs = (A, C, B_1..B_n), es = (x_1..x_n).


def _t21_lhs(ev, n, cs, es):
    return hyperff._fd_vec(ev, cs[0], cs[2:], cs[1], es)


def _t21_rhs(ev, n, cs, es):
    return hyperff._charsum_vec(ev, cs[0], cs[2:], cs[1], es)


_reg("t2.1", "series form of F_D agrees with its full character-sum expansion",
     _t21_lhs, _t21_rhs, den=lambda q, n: (q - 1) ** n)


def _ffbeta_lhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    x1, x2 = es[0], es[1]
    f, N, Z = ev.f, ev.N, ev.Z
    out = [0] * N
    if x1 == 0 or x2 == 0:
        return out
    E, l1, l2 = f.exp_table, ev.L[x1], ev.L[x2]
    merged = (Bs[0] + Bs[1],) + Bs[2:]
    for i in range(1, N):  # u = g^i, 1 - u = g^Z[i]; u = 0 and u = 1 give 0
        xm = f.add(E[(i + l1) % N], E[(Z[i] + l2) % N])  # u x1 + (1-u) x2
        hyperff._fd_vec(ev, A, merged, C, (xm,) + es[2:], e0=Bs[0] * i + Bs[1] * Z[i],
                        out=out)
    return out


def _ffbeta_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    x1, x2 = es[0], es[1]
    f, N = ev.f, ev.N
    m12 = -(Bs[0] + Bs[1])
    out = hyperff._conv(hyperff._binom_vec(ev, m12, -Bs[0]), hyperff._fd_vec(ev, A, Bs, C, es), N)
    if x1 != 0 and x2 != 0:
        e = _mono_exp(ev, [(Bs[0], ev.neg1), (m12, f.sub(x1, x2))])
        hyperff._fd_vec(ev, A + m12, Bs[2:], C + m12, es[2:], e0=e, s=-1, out=out)
    e = _mono_exp(ev, [(Bs[0], x2), (Bs[1], f.neg(x1)), (m12, f.sub(x2, x1))])
    return hyperff._fd_vec(ev, A, Bs[2:], C, es[2:], e0=e, s=-1, out=out)


_reg("t3.ff-beta", "beta-type u-convolution against F_D with the two lead B-slots merged",
     _ffbeta_lhs, _ffbeta_rhs, n_min=2,
     constraints=(("B1 != eps", _c_b1_nontriv), ("B2 != eps", _c_b2_nontriv)))


def _ksum_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    xn = es[-1]
    if xn == 0:
        return [0] * ev.N
    keys = [(Bs[-1] + ch, ch) for ch in range(ev.N)]
    rows = hyperff._fd_rows(ev, A, Bs[:-1], C, es[:-1], "AC")
    return hyperff._binom_vec_sum(ev, keys, rows, ev.L[xn])


_reg("t3.ksum", "character sum over the last slot contracts F_D^(n) to shifted F_D^(n-1)",
     _t21_lhs, _ksum_rhs, den=lambda q, n: q - 1)


def _epsred_lhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]  # n-1 free B slots; last is eps
    return hyperff._fd_vec(ev, A, Bs + (0,), C, es)


def _epsred_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    xn = es[-1]
    f, N = ev.f, ev.N
    out = [0] * N
    if xn != 0:
        hyperff._fd_vec(ev, A, Bs, C, es[:-1], out=out)
    e = _mono_exp(ev, [(sum(Bs) - C, xn), (C - A, f.sub(1, xn)),
                       *((-mb, f.sub(xn, x)) for mb, x in zip(Bs, es[:-1])),
                       *((0, x) for x in es[:-1])])
    _addm(out, e, -1)
    return out


_reg("t4.eps-reduce", "trivial last character: F_D drops to F_D^(n-1) minus a monomial",
     _epsred_lhs, _epsred_rhs, chars=lambda n: n + 1)


def _ceqa_lhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    return hyperff._fd_vec(ev, A, Bs, A, es)


def _ceqa_rhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    xn = es[-1]
    f, N = ev.f, ev.N
    out = [0] * N
    e = _mono_exp(ev, [*((-mb, f.sub(1, x)) for mb, x in zip(Bs, es)),
                       *((0, x) for x in es)])
    _addm(out, e, -1)
    if xn != 0:
        inv = f.inv(xn)
        e = _mono_exp(ev, [(Bs[-1], ev.neg1), (-A, xn)])
        hyperff._fd_vec(ev, A, Bs[:-1], A - Bs[-1], tuple(f.mul(x, inv) for x in es[:-1]),
                        e0=e, out=out)
    return out


_reg("t4.c-eq-a", "C = A evaluation: the last B-slot is shifted out of C",
     _ceqa_lhs, _ceqa_rhs, chars=lambda n: n + 1)


def _oneminus_lhs(ev, n, cs, es):
    if 1 in es:
        return [0] * ev.N
    return hyperff._fd_vec(ev, cs[0], cs[2:], cs[1], es)


def _oneminus_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    f = ev.f
    e = _mono_exp(ev, [(sum(Bs), ev.neg1), *((0, x) for x in es)])
    return hyperff._fd_vec(ev, A, Bs, A + sum(Bs) - C, tuple(f.sub(1, x) for x in es), e0=e)


_reg("t4.one-minus-x", "x -> 1-x transformation with C -> A B_1..B_n C^-1",
     _oneminus_lhs, _oneminus_rhs)


def _pfaff_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    f = ev.f
    e = _mono_exp(ev, [(C, ev.neg1),
                       *((-mb, f.sub(1, x)) for mb, x in zip(Bs, es))])
    args = tuple(f.div(x, f.sub(x, 1)) for x in es)
    return hyperff._fd_vec(ev, C - A, Bs, C, args, e0=e)


_reg("t4.pfaff", "x -> x/(x-1) transformation with A -> A^-1 C and a B-monomial prefactor",
     _t21_lhs, _pfaff_rhs, constraints=(("all x_j != 1", _c_all_x_ne_1),))


def _lastpivot_lhs(ev, n, cs, es):
    if es[-1] in es[:-1]:
        return [0] * ev.N
    return hyperff._fd_vec(ev, cs[0], cs[2:], cs[1], es)


def _lastpivot_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    f = ev.f
    xn = es[-1]
    e = _mono_exp(ev, [(-A, f.sub(1, xn)), *((0, x) for x in es[:-1])])
    d = f.inv(f.sub(xn, 1))
    args = tuple(f.mul(f.sub(xn, x), d) for x in es[:-1]) + (f.mul(xn, d),)
    return hyperff._fd_vec(ev, A, Bs[:-1] + (C - sum(Bs),), C, args, e0=e)


_reg("t4.last-pivot", "pivot on the last point: x_j -> (x_n-x_j)/(x_n-1)",
     _lastpivot_lhs, _lastpivot_rhs, constraints=(("x_n != 1", _c_xn_ne_1),))


def _c35_lhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    if es[-1] in es[:-1]:
        return [0] * ev.N
    return hyperff._fd_vec(ev, A, Bs, sum(Bs), es)


def _c35_rhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    f = ev.f
    xn = es[-1]
    e = _mono_exp(ev, [(-A, f.sub(1, xn)), *((0, x) for x in es)])
    d = f.inv(f.sub(xn, 1))
    args = tuple(f.mul(f.sub(xn, x), d) for x in es[:-1])
    out = hyperff._fd_vec(ev, A, Bs[:-1], sum(Bs), args, e0=e)
    e = _mono_exp(ev, [*((-mb, f.neg(x)) for mb, x in zip(Bs, es)),
                       *((0, f.sub(xn, x)) for x in es[:-1])])
    _addm(out, e, -1)
    return out


_reg("t4.reduce-c35", "C = B_1..B_n reduction dropping the last slot, minus a monomial",
     _c35_lhs, _c35_rhs, chars=lambda n: n + 1,
     constraints=(("x_n != 1", _c_xn_ne_1),))


def _pivot2_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    f = ev.f
    xn = es[-1]
    e = _mono_exp(ev, [(C, ev.neg1), (C - A - Bs[-1], f.sub(1, xn)),
                       *((-mb, f.sub(1, x)) for mb, x in zip(Bs[:-1], es[:-1])),
                       *((0, x) for x in es[:-1])])
    args = tuple(f.div(f.sub(xn, x), f.sub(1, x)) for x in es[:-1]) + (xn,)
    return hyperff._fd_vec(ev, C - A, Bs[:-1] + (C - sum(Bs),), C, args, e0=e)


_reg("t4.pivot2", "pivot with x_j -> (x_n-x_j)/(1-x_j) and A -> C A^-1",
     _lastpivot_lhs, _pivot2_rhs, constraints=(("all x_j != 1", _c_all_x_ne_1),))


def _c37_rhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    f = ev.f
    SB = sum(Bs)
    xn = es[-1]
    e = _mono_exp(ev, [(SB, ev.neg1), (SB - Bs[-1] - A, f.sub(1, xn)),
                       *((-mb, f.sub(1, x)) for mb, x in zip(Bs[:-1], es[:-1])),
                       *((0, x) for x in es)])
    args = tuple(f.div(f.sub(xn, x), f.sub(1, x)) for x in es[:-1])
    out = hyperff._fd_vec(ev, SB - A, Bs[:-1], SB, args, e0=e)
    e = _mono_exp(ev, [(0, f.sub(xn, 1)),
                       *((-mb, f.neg(x)) for mb, x in zip(Bs, es)),
                       *((0, f.sub(xn, x)) for x in es[:-1])])
    _addm(out, e, -1)
    return out


_reg("t4.reduce-c37", "second C = B_1..B_n reduction with (x_n-x_j)/(1-x_j) arguments",
     _c35_lhs, _c37_rhs, chars=lambda n: n + 1,
     constraints=(("all x_j != 1", _c_all_x_ne_1),))


def _evalequal_lhs(ev, n, cs, es):
    return hyperff._fd_vec(ev, cs[0], cs[2:], cs[1], (es[0],) * n)


def _evalequal_rhs(ev, n, cs, es):
    return hyperff._fd_vec(ev, cs[0], (sum(cs[2:]),), cs[1], (es[0],))


_reg("t4.eval-equal-x", "all points equal: F_D collapses to a single merged slot",
     _evalequal_lhs, _evalequal_rhs, elems=lambda n: 1)


def _evalxn1_lhs(ev, n, cs, es):
    return hyperff._fd_vec(ev, cs[0], cs[2:], cs[1], es + (1,))


def _evalxn1_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    return hyperff._fd_vec(ev, A, Bs[:-1], C - Bs[-1], es, e0=Bs[-1] * ev.f.log_neg1)


_reg("t4.eval-xn1", "last point 1: the slot is absorbed into C",
     _evalxn1_lhs, _evalxn1_rhs, elems=lambda n: n - 1)


def _evalall1_lhs(ev, n, cs, es):
    return hyperff._fd_vec(ev, cs[0], cs[2:], cs[1], (1,) * n)


def _evalall1_rhs(ev, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    return hyperff._fd_vec(ev, A, (), C - sum(Bs), (), e0=sum(Bs) * ev.f.log_neg1)


_reg("t4.eval-all1", "all points 1: closed binomial form",
     _evalall1_lhs, _evalall1_rhs, elems=lambda n: 0)


def _c62_lhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    return hyperff._fd_vec(ev, A, Bs, A, (es[0],) * n)


def _c62_rhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    x = es[0]
    f = ev.f
    SB = sum(Bs)
    out = hyperff._fd_vec(ev, A, (), SB, (), e0=_mono_exp(ev, [(SB, ev.neg1), (-A, x)]))
    _addm(out, _mono_exp(ev, [(0, x), (-SB, f.sub(1, x))]), -1)
    return out


_reg("t4.c62", "C = A with equal points: two-term closed form",
     _c62_lhs, _c62_rhs, chars=lambda n: n + 1, elems=lambda n: 1)


def _c63_lhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    return hyperff._fd_vec(ev, A, Bs, sum(Bs), (es[0],) * n)


def _c63_rhs(ev, n, cs, es):
    A, Bs = cs[0], cs[1:]
    x = es[0]
    f, N = ev.f, ev.N
    SB = sum(Bs)
    out = hyperff._fd_vec(ev, A, (), SB, (), e0=_mono_exp(ev, [(0, x), (-A, f.sub(1, x))]))
    _addm(out, _mono_exp(ev, [(-SB, f.neg(x))]), -1)
    if x == 1 and A % N == 0:
        _addm(out, (SB % N) * ev.f.log_neg1, ev.q - 1)
    return out


_reg("t4.c63", "C = B_1..B_n with equal points: closed form plus delta at x = 1, A = eps",
     _c63_lhs, _c63_rhs, chars=lambda n: n + 1, elems=lambda n: 1)


def _gf_lhs(variant):
    def lhs(ev, n, cs, es):
        return hyperff._genfn_lhs_vec(ev, cs[0], cs[2:], cs[1], es[:-1], es[-1], variant)
    return lhs


def _gf_rhs(variant):
    def rhs(ev, n, cs, es):
        return hyperff._genfn_rhs_vec(ev, cs[0], cs[2:], cs[1], es[:-1], es[-1], variant)
    return rhs


_reg("t5.gf1", "generating function over the A-slot (t != 1)",
     _gf_lhs("T41"), _gf_rhs("T41"), elems=lambda n: n + 1,
     constraints=(("t != 1", _c_t_ne_1),))
_reg("t5.gf2", "generating function over the last B-slot, with a delta term at t = 1",
     _gf_lhs("T42"), _gf_rhs("T42"), elems=lambda n: n + 1)
_reg("t5.gf3", "generating function over the C-slot, with a delta term at 1 + t = 0",
     _gf_lhs("T43"), _gf_rhs("T43"), elems=lambda n: n + 1)


# binomial-coefficient facts; cs layout noted per entry, no point dependence on n

def _f2_lhs(ev, n, cs, es):
    return hyperff._binom_vec(ev, cs[0], cs[1])


def _f2_rhs(ev, n, cs, es):
    return hyperff._binom_vec(ev, cs[0], cs[0] - cs[1])


_reg("p2.f2", "{A choose B} = {A choose A B^-1}", _f2_lhs, _f2_rhs,
     n_min=0, n_max=0, chars=lambda n: 2, elems=lambda n: 0)


def _f3_rhs(ev, n, cs, es):
    A, B = cs
    return hyperff._fd_vec(ev, -B, (), -A, (), e0=(A + B) * ev.f.log_neg1)


_reg("p2.f3", "{A choose B} = AB(-1) {B^-1 choose A^-1}", _f2_lhs, _f3_rhs,
     n_min=0, n_max=0, chars=lambda n: 2, elems=lambda n: 0)


def _f4_rhs(ev, n, cs, es):
    out = [0] * ev.N
    out[0] = -1 + (ev.q - 1 if cs[0] % ev.N == 0 else 0)
    return out


_reg("p2.f4-eps", "{A choose eps} = -1 + (q-1) delta(A)",
     lambda ev, n, cs, es: hyperff._binom_vec(ev, cs[0], 0), _f4_rhs,
     n_min=0, n_max=0, chars=lambda n: 1, elems=lambda n: 0)
_reg("p2.f4-self", "{A choose A} = -1 + (q-1) delta(A)",
     lambda ev, n, cs, es: hyperff._binom_vec(ev, cs[0], cs[0]), _f4_rhs,
     n_min=0, n_max=0, chars=lambda n: 1, elems=lambda n: 0)


def _prod_lhs(ev, n, cs, es):
    A, B, C = cs
    return hyperff._conv(hyperff._binom_vec(ev, A, B), hyperff._binom_vec(ev, C, A), ev.N)


def _prod_rhs(ev, n, cs, es):
    A, B, C = cs
    N, q = ev.N, ev.q
    out = hyperff._conv(hyperff._binom_vec(ev, C, B), hyperff._binom_vec(ev, C - B, A - B), N)
    if A % N == 0:
        _addm(out, (B % N) * ev.f.log_neg1, -(q - 1))
    if (B - C) % N == 0:
        _addm(out, ((A + B) % N) * ev.f.log_neg1, q - 1)
    return out


_reg("p2.prod", "binomial product re-association with two delta corrections",
     _prod_lhs, _prod_rhs, n_min=0, n_max=0, chars=lambda n: 3, elems=lambda n: 0)


def _binthm_lhs(ev, n, cs, es):
    return hyperff._line_vec(ev, cs[0], 0, es[0])


def _binthm_rhs(ev, n, cs, es):
    A, x = cs[0], es[0]
    out = [0] * ev.N
    _addm(out, _mono_exp(ev, [(0, x), (-A, ev.f.sub(1, x))]), ev.q - 1)
    return out


_reg("p2.binthm", "line sum of {A chi choose chi} chi(x) equals (q-1) A^-1(1-x) on x != 0",
     _binthm_lhs, _binthm_rhs, n_min=0, n_max=0,
     chars=lambda n: 1, elems=lambda n: 1)


def _linesum_lhs(ev, n, cs, es):
    return hyperff._line_vec(ev, cs[0], cs[1], es[0])


def _linesum_rhs(ev, n, cs, es):
    A, B, x = cs[0], cs[1], es[0]
    out = [0] * ev.N
    _addm(out, _mono_exp(ev, [(-B, x), (B - A, ev.f.sub(1, x))]), ev.q - 1)
    return out


_reg("p2.linesum", "two-slot line sum {A chi choose B chi} chi(x) in closed form",
     _linesum_lhs, _linesum_rhs, n_min=0, n_max=0,
     chars=lambda n: 2, elems=lambda n: 1)


# -- engine ---------------------------------------------------------------------------


def list_identities() -> tuple[IdentityDescriptor, ...]:
    return tuple(_REGISTRY.values())


def get_identity(ident: str) -> IdentityDescriptor:
    desc = _REGISTRY.get(ident)
    if desc is None:
        raise UnknownIdentity(ident)
    return desc


@dataclass(frozen=True)
class TheoremReport:
    id: str
    q: int
    n: int
    mode: str
    seed: int | None
    tested: int
    excluded: int
    failures: tuple[dict, ...]
    ms: float
    mismatches: int | None = None  # boundary mode only
    undefined: int | None = None  # boundary mode only

    @property
    def ok(self) -> bool:
        return not self.failures

    def to_dict(self, timings: bool = False) -> dict:
        d = {"id": self.id, "q": self.q, "n": self.n, "mode": self.mode,
             "seed": self.seed, "tested": self.tested, "excluded": self.excluded,
             "failures": [dict(x) for x in self.failures],
             "ms": round(self.ms, 3) if timings else 0}
        if self.mode == "boundary":
            d["mismatches"] = self.mismatches
            d["undefined"] = self.undefined
        return d


def _check(desc, ev, n, cs, es, corrupt: bool):
    """Decide d * lhs = rhs; returns (equal?, lhs, rhs) with the raw sides.
    `corrupt` adds d to the rhs, i.e. 1 to rhs / d."""
    lv = list(desc.lhs(ev, n, cs, es))
    rv = list(desc.rhs(ev, n, cs, es))
    d = desc.den(ev.q, n)
    if corrupt:
        rv[0] += d
    dl = [d * x for x in lv] if d != 1 else lv
    if dl == rv:
        return True, lv, rv
    return cyclo.vanishes(ev.N, [a - b for a, b in zip(dl, rv)]), lv, rv


def _canonical(desc, ev, n, lv, rv) -> tuple[CycInt, CycInt]:
    """Canonical lhs and rhs / d of raw sides, for output only."""
    return (cyclo.from_coeffs(ev.N, lv),
            cyclo.div_exact(cyclo.from_coeffs(ev.N, rv), desc.den(ev.q, n)))


def _fail_entry(desc, ev, n, cs, es, lv, rv) -> dict:
    lc, rc = _canonical(desc, ev, n, lv, rv)
    return {"q": ev.q, "n": n, "chars": list(cs), "elems": list(es),
            "lhs": cyclo.render(lc), "rhs": cyclo.render(rc)}


def _run_one(desc, ev: _Ev, n: int, mode: str, seed: int, count: int,
             cap: int, corrupt_rhs: bool) -> TheoremReport:
    t0 = perf_counter()
    N, q = ev.N, ev.q
    nc = desc.chars(n)
    ne = desc.elems(n)
    tested = excluded = 0
    failures: list[dict] = []
    mismatches = undefined = None

    def violated(cs, es):
        """Name of the first constraint the assignment violates, or None."""
        for name, fn in desc.constraints:
            if not fn(ev, n, cs, es):
                return name
        return None

    if mode == "exhaustive":
        size = desc.slot_space(q, n)
        if size > cap:
            raise CapExceeded(size, cap)
        for cs in itertools.product(range(N), repeat=nc):
            for es in itertools.product(range(q), repeat=ne):
                if violated(cs, es) is not None:
                    excluded += 1
                    continue
                tested += 1
                ok, lv, rv = _check(desc, ev, n, cs, es, corrupt_rhs)
                if not ok:
                    failures.append(_fail_entry(desc, ev, n, cs, es, lv, rv))
    elif mode == "sampled":
        rng = random.Random(f"{seed}:{desc.id}:{q}:{n}")
        attempts_cap = count * 1000 + 1000
        rejected: dict[str, int] = {}
        while tested < count:
            if tested + excluded >= attempts_cap:
                worst = max(rejected, key=rejected.get)
                raise SamplingGaveUp(attempts_cap, tested, count, worst, rejected[worst])
            cs = tuple(rng.randrange(N) for _ in range(nc))
            es = tuple(rng.randrange(q) for _ in range(ne))
            name = violated(cs, es)
            if name is not None:
                rejected[name] = rejected.get(name, 0) + 1
                excluded += 1
                continue
            tested += 1
            ok, lv, rv = _check(desc, ev, n, cs, es, corrupt_rhs)
            if not ok:
                failures.append(_fail_entry(desc, ev, n, cs, es, lv, rv))
    elif mode == "boundary":
        # complement domain: only constraint-violating assignments; mismatches
        # and evaluation errors are recorded, never failed on.
        mismatches = undefined = 0
        size = desc.slot_space(q, n)
        if size > cap:
            raise CapExceeded(size, cap)
        for cs in itertools.product(range(N), repeat=nc):
            for es in itertools.product(range(q), repeat=ne):
                if violated(cs, es) is None:
                    excluded += 1
                    continue
                try:
                    ok, _, _ = _check(desc, ev, n, cs, es, corrupt_rhs)
                except FFHyperError:
                    undefined += 1
                    continue
                tested += 1
                if not ok:
                    mismatches += 1
    else:
        raise ValueError(f"unknown mode {mode!r}")

    failures.sort(key=lambda d: (d["chars"], d["elems"]))
    return TheoremReport(
        id=desc.id, q=q, n=n, mode=mode,
        seed=seed if mode == "sampled" else None,
        tested=tested, excluded=excluded, failures=tuple(failures),
        ms=(perf_counter() - t0) * 1000.0,
        mismatches=mismatches, undefined=undefined)


def _check_n(desc: IdentityDescriptor, n: int) -> None:
    if not desc.allows_n(n):
        raise ValueError(f"identity {desc.id} does not allow n={n}")


def verify(ident: str, q_list, mode: str = "exhaustive", n_list=None,
           seed: int = 0, count: int = DEFAULT_SAMPLES, cap: int = DEFAULT_CAP,
           corrupt_rhs: bool = False, max_q: int | None = None) -> list[TheoremReport]:
    desc = get_identity(ident)
    if mode == "sampled" and count < 1:
        raise ValueError(f"sampled mode needs count >= 1, got {count}")
    if n_list is None:
        n_list = (desc.n_min,)
    reports = []
    for q in q_list:
        ev = _ev_for_q(q, max_q)
        for n in n_list:
            _check_n(desc, n)
            reports.append(_run_one(desc, ev, n, mode, seed, count, cap, corrupt_rhs))
    return reports


def replay(ident: str, assignment: dict, corrupt_rhs: bool = False):
    """Re-run one stored assignment; returns (lhs, rhs, equal?)."""
    desc = get_identity(ident)
    q, n = int(assignment["q"]), int(assignment["n"])
    _check_n(desc, n)
    ev = _ev_for_q(q)
    cs = tuple(int(c) % ev.N for c in assignment["chars"])
    es = tuple(int(e) % q for e in assignment["elems"])
    if len(cs) != desc.chars(n) or len(es) != desc.elems(n):
        raise ValueError("assignment shape does not match identity arity")
    equal, lv, rv = _check(desc, ev, n, cs, es, corrupt_rhs)
    lc, rc = _canonical(desc, ev, n, lv, rv)
    return lc, rc, equal
