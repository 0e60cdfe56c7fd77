"""Identity registry and verification engine.

Each registered identity is an equation lhs = rhs / d in Z[zeta_{q-1}], in a
tuple of character exponents (`chars`) and field elements (`elems`, points
first, then any extra scalars such as a shared evaluation point or a
generating-function variable).  Both sides return raw group-ring vectors: a
length-(q-1) integer vector indexed by power of zeta_{q-1}.  The denominator
d(q, n) is a rational integer carried by the descriptor (1 for most
identities), so no side divides.  Each domain constraint is data, (name,
kind, slots, value): the character exponents (kind "chars") or elements
("elems") at the slice `slots` may not take `value`, and an assignment that
violates none is admissible.  The engine walks or samples assignments and
decides d * lhs = rhs exactly with the vanishing test cyclo.vanishes.
Canonical CycInt values (reduction modulo Phi_{q-1}) are built only for
output: failure entries and `replay`.

Every side takes the field's shared table (ff_core.FieldTable, one per q for
the process) and keeps no state between or within calls, so a report is a
pure function of that table and its arguments.  Each side is written once:
it takes one assignment's character exponents and points as ints and
returns a fresh length-N int64 row, or a block's as equal-length int64
columns and returns an (R, N) array of the same rows (hyperff's kernels and
the field operations take both); a delta(A) term, a [x = v] case and a monomial's eps(x) are 0/1
weights, so no side branches on a character or a point.  F_D is walked per
value, each walk adding its signed, zeta-shifted term into the side's
vector, and every binomial {A choose B} is the n = 0 walk; t3.ff-beta's
u-sum of F_D walks is one double walk (hyperff._beta_vec); t3.ksum's
right-hand side and the t5.gf1-3 left-hand sides are one binomial-weighted
theta-sum (hyperff._theta_sum), the k-sum's at the slope (1, 0..0, 1) with
b = B_n and t = x_n; t2.1's character-sum side and the p2 line sums count
the terms of one walk over the characters; p2.prod and t3.ff-beta's
right-hand side multiply walk counts (hyperff._conv).

Modes:
  exhaustive -- the full slot ranges in blocks of rows (_slot_blocks), each
                row split by the first constraint it violates
                (first_violated), and the rows that violate none decided:
                each side evaluated once per block and d * lhs = rhs decided
                row by row in NumPy (_check_rows), with the unequal rows
                passed to the row-batched vanishing test; one row at a time
                (_check) where the block's int64 bound could fail
                (_fits_int64);
  sampled    -- `count` seeded draws of one rng.randrange(N) or randrange(q)
                per slot that satisfy the constraints (SamplingGaveUp after
                1000 * count + 1000 draws); below N = _ARRAY_MIN_N, where
                the int64 bound holds, read as columns from rng's raw words
                and decided in blocks of rows as exhaustive mode's, elsewhere
                one at a time (sampling; _check);
  boundary   -- the complement: the rows of the same blocks that violate a
                constraint (none without constraints), decided as
                exhaustive mode's, with mismatches counted, not failed on.
                A side that divides by zero raises ZeroInverse naming its
                zero rows, exactly those that raise one at a time (the sides
                are straight-line code); they are undefined, and the rest of
                the block is decided again without them.

Reports serialize to JSON with a fixed key order; wall time is zeroed unless
timings are requested, so repeated runs are byte-identical.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from . import cyclo, ff_core, hyperff, sampling
from .cyclo import CycInt
from .errors import CapExceeded, UnknownIdentity, ZeroInverse
from .hyperff import Char, _addm, _delta, _is, _mono_exp

DEFAULT_CAP = 10_000_000
_EXACT_BITS = 64  # CapExceeded gives the exact size of every slot space below 2^64
MODES = ("exhaustive", "sampled", "boundary")
DEFAULT_SAMPLES = 500

# The standard gate grid: exhaustive at small q, DEFAULT_SAMPLES seeded
# samples above.
GATE_EXHAUSTIVE_QS = (3, 4, 5)
GATE_SAMPLED_QS = (7, 8, 9, 11, 13)


# -- fields ---------------------------------------------------------------------------


def _field_for_q(q: int, max_q: int | None = None) -> ff_core.FieldTable:
    """The shared table of F_q.  q is checked against `max_q` (None: the
    default cap) before it is factored."""
    cap = ff_core.DEFAULT_MAX_Q if max_q is None else max_q
    if type(cap) is not int or cap < 1:
        raise ValueError(f"max_q must be a positive integer, got {max_q!r}")
    if type(q) is not int:
        raise ValueError(f"q must be an integer, got {q!r}")
    ff_core.check_order(q, 1, cap)
    return ff_core.build_field(*ff_core.split_prime_power(q), cap)


# -- identity descriptors -------------------------------------------------------------


@dataclass(frozen=True)
class IdentityDescriptor:
    id: str
    note: str
    n_min: int
    n_max: int | None  # None = no intrinsic bound
    chars: Callable[[int], int]
    elems: Callable[[int], int]
    constraints: tuple[tuple[str, str, slice, int], ...]  # (name, kind, slots, value)
    lhs: Callable
    rhs: Callable
    den: Callable[[int, int], int]  # d(q, n) in lhs = rhs / d

    def allows_n(self, n: int) -> bool:
        return n >= self.n_min and (self.n_max is None or n <= self.n_max)

    def slot_space(self, q: int, n: int) -> int:
        return (q - 1) ** self.chars(n) * q ** self.elems(n)

    def violated(self, cs, es) -> str | None:
        """Name of the first constraint (cs, es) violates, or None; cs in 0..q-2."""
        for name, kind, slots, value in self.constraints:
            if value in (cs if kind == "chars" else es)[slots]:
                return name
        return None

    def first_violated(self, n: int, cols) -> np.ndarray:
        """Per row of `cols` (an int64 column per slot, the characters first),
        the index of the first constraint it violates, len(constraints) if none."""
        nc, first = self.chars(n), np.full(len(cols[0]), len(self.constraints))
        for i, (_, kind, slots, value) in reversed(list(enumerate(self.constraints))):
            block = cols[:nc] if kind == "chars" else cols[nc:]
            first[(np.asarray(block[slots]) == value).any(axis=0)] = i
        return first


_REGISTRY: dict[str, IdentityDescriptor] = {}


def _reg(id, note, lhs, rhs, *, n_min=1, n_max=None,
         chars=lambda n: n + 2, elems=lambda n: n, constraints=(),
         den=lambda q, n: 1):
    _REGISTRY[id] = IdentityDescriptor(
        id=id, note=note, n_min=n_min, n_max=n_max,
        chars=chars, elems=elems,
        constraints=tuple(constraints), lhs=lhs, rhs=rhs, den=den)


# -- the identities -------------------------------------------------------------------
# Slot layout unless noted: cs = (A, C, B_1..B_n), es = (x_1..x_n).  cs and es
# are one assignment's ints or a block's int64 columns, one entry per row (see
# _run_one); every case on a point is a 0/1 weight (hyperff._is, and the
# weight w of a monomial's (e, w) from _mono_exp).


def _zero(f, cs):
    """A fresh zero side for the characters cs: a row, or one per row of a block."""
    return hyperff._zeros(f.n_chars, hyperff._nrows(*cs))


def _t21_lhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], cs[2:], cs[1], es)


def _t21_rhs(f, n, cs, es):
    return hyperff._charsum_vec(f, cs[0], cs[2:], cs[1], es)


_reg("t2.1", "series form of F_D agrees with its full character-sum expansion",
     _t21_lhs, _t21_rhs, den=lambda q, n: (q - 1) ** n)


def _ffbeta_lhs(f, n, cs, es):
    return hyperff._beta_vec(f, cs[0], cs[2:], cs[1], es)


def _ffbeta_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    x1, x2 = es[0], es[1]
    m12 = -(Bs[0] + Bs[1])
    out = hyperff._conv(hyperff._fd_vec(f, m12, (), -Bs[0], ()), hyperff._fd_vec(f, A, Bs, C, es),
                        f.n_chars)
    e, w = _mono_exp(f, [(Bs[0], f.p - 1), (m12, f.sub(x1, x2)), (0, x1), (0, x2)])
    hyperff._fd_vec(f, A + m12, Bs[2:], C + m12, es[2:], e0=e, s=-w, out=out)
    e, w = _mono_exp(f, [(Bs[0], x2), (Bs[1], f.neg(x1)), (m12, f.sub(x2, x1))])
    return hyperff._fd_vec(f, A, Bs[2:], C, es[2:], e0=e, s=-w, out=out)


_reg("t3.ff-beta", "beta-type u-convolution against F_D with the two lead B-slots merged",
     _ffbeta_lhs, _ffbeta_rhs, n_min=2,
     constraints=[("B1 != eps", "chars", slice(2, 3), 0),
                  ("B2 != eps", "chars", slice(3, 4), 0)])


def _ksum_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    # sum over chi of {B_n chi choose chi} chi(x_n) F_D^(n-1)(A chi; ..; C chi)
    return hyperff._theta_sum(f, A, Bs[:-1], C, es[:-1], 1, (0,) * (n - 1), 1, Bs[-1], es[-1])


_reg("t3.ksum", "character sum over the last slot contracts F_D^(n) to shifted F_D^(n-1)",
     _t21_lhs, _ksum_rhs, den=lambda q, n: q - 1)


def _epsred_lhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]  # n-1 free B slots; last is eps
    return hyperff._fd_vec(f, A, Bs + (0,), C, es)


def _epsred_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    xn = es[-1]
    out = _zero(f, cs)
    hyperff._fd_vec(f, A, Bs, C, es[:-1], s=1 - _is(xn, 0), out=out)
    e, w = _mono_exp(f, [(sum(Bs) - C, xn), (C - A, f.sub(1, xn)),
                         *((-mb, f.sub(xn, x)) for mb, x in zip(Bs, es[:-1])),
                         *((0, x) for x in es[:-1])])
    _addm(out, e, -w)
    return out


_reg("t4.eps-reduce", "trivial last character: F_D drops to F_D^(n-1) minus a monomial",
     _epsred_lhs, _epsred_rhs, chars=lambda n: n + 1)


def _ceqa_lhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    return hyperff._fd_vec(f, A, Bs, A, es)


def _ceqa_rhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    xn = es[-1]
    out = _zero(f, cs)
    e, w = _mono_exp(f, [*((-mb, f.sub(1, x)) for mb, x in zip(Bs, es)),
                         *((0, x) for x in es)])
    _addm(out, e, -w)
    inv = f.inv0(xn)
    e, w = _mono_exp(f, [(Bs[-1], f.p - 1), (-A, xn)])  # weight 0 where x_n = 0
    hyperff._fd_vec(f, A, Bs[:-1], A - Bs[-1], tuple(f.mul(x, inv) for x in es[:-1]),
                    e0=e, s=w, out=out)
    return out


_reg("t4.c-eq-a", "C = A evaluation: the last B-slot is shifted out of C",
     _ceqa_lhs, _ceqa_rhs, chars=lambda n: n + 1)


def _oneminus_lhs(f, n, cs, es):
    w = math.prod(x != 1 for x in es)  # 0 where some x_j = 1
    return hyperff._fd_vec(f, cs[0], cs[2:], cs[1], es, s=w)


def _oneminus_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    e, w = _mono_exp(f, [(sum(Bs), f.p - 1), *((0, x) for x in es)])
    return hyperff._fd_vec(f, A, Bs, A + sum(Bs) - C, tuple(f.sub(1, x) for x in es),
                           e0=e, s=w)


_reg("t4.one-minus-x", "x -> 1-x transformation with C -> A B_1..B_n C^-1",
     _oneminus_lhs, _oneminus_rhs)


def _pfaff_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    e, w = _mono_exp(f, [(C, f.p - 1),
                         *((-mb, f.sub(1, x)) for mb, x in zip(Bs, es))])
    args = tuple(f.div(x, f.sub(x, 1)) for x in es)
    return hyperff._fd_vec(f, C - A, Bs, C, args, e0=e, s=w)


_reg("t4.pfaff", "x -> x/(x-1) transformation with A -> A^-1 C and a B-monomial prefactor",
     _t21_lhs, _pfaff_rhs, constraints=[("all x_j != 1", "elems", slice(None), 1)])


def _distinct_last(es):
    """[x_n differs from every x_j, j < n]: 1 or 0, or a 0/1 column."""
    return math.prod(es[-1] != x for x in es[:-1])


def _lastpivot_lhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], cs[2:], cs[1], es, s=_distinct_last(es))


def _lastpivot_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    xn = es[-1]
    e, w = _mono_exp(f, [(-A, f.sub(1, xn)), *((0, x) for x in es[:-1])])
    d = f.inv(f.sub(xn, 1))
    args = tuple(f.mul(f.sub(xn, x), d) for x in es[:-1]) + (f.mul(xn, d),)
    return hyperff._fd_vec(f, A, Bs[:-1] + (C - sum(Bs),), C, args, e0=e, s=w)


_reg("t4.last-pivot", "pivot on the last point: x_j -> (x_n-x_j)/(x_n-1)",
     _lastpivot_lhs, _lastpivot_rhs, constraints=[("x_n != 1", "elems", slice(-1, None), 1)])


def _c35_lhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    return hyperff._fd_vec(f, A, Bs, sum(Bs), es, s=_distinct_last(es))


def _c35_rhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    xn = es[-1]
    e, w = _mono_exp(f, [(-A, f.sub(1, xn)), *((0, x) for x in es)])
    d = f.inv(f.sub(xn, 1))
    args = tuple(f.mul(f.sub(xn, x), d) for x in es[:-1])
    out = hyperff._fd_vec(f, A, Bs[:-1], sum(Bs), args, e0=e, s=w)
    e, w = _mono_exp(f, [*((-mb, f.neg(x)) for mb, x in zip(Bs, es)),
                         *((0, f.sub(xn, x)) for x in es[:-1])])
    _addm(out, e, -w)
    return out


_reg("t4.reduce-c35", "C = B_1..B_n reduction dropping the last slot, minus a monomial",
     _c35_lhs, _c35_rhs, chars=lambda n: n + 1,
     constraints=[("x_n != 1", "elems", slice(-1, None), 1)])


def _pivot2_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    xn = es[-1]
    e, w = _mono_exp(f, [(C, f.p - 1), (C - A - Bs[-1], f.sub(1, xn)),
                         *((-mb, f.sub(1, x)) for mb, x in zip(Bs[:-1], es[:-1])),
                         *((0, x) for x in es[:-1])])
    args = tuple(f.div(f.sub(xn, x), f.sub(1, x)) for x in es[:-1]) + (xn,)
    return hyperff._fd_vec(f, C - A, Bs[:-1] + (C - sum(Bs),), C, args, e0=e, s=w)


_reg("t4.pivot2", "pivot with x_j -> (x_n-x_j)/(1-x_j) and A -> C A^-1",
     _lastpivot_lhs, _pivot2_rhs, constraints=[("all x_j != 1", "elems", slice(None), 1)])


def _c37_rhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    SB = sum(Bs)
    xn = es[-1]
    e, w = _mono_exp(f, [(SB, f.p - 1), (SB - Bs[-1] - A, f.sub(1, xn)),
                         *((-mb, f.sub(1, x)) for mb, x in zip(Bs[:-1], es[:-1])),
                         *((0, x) for x in es)])
    args = tuple(f.div(f.sub(xn, x), f.sub(1, x)) for x in es[:-1])
    out = hyperff._fd_vec(f, SB - A, Bs[:-1], SB, args, e0=e, s=w)
    e, w = _mono_exp(f, [(0, f.sub(xn, 1)),
                         *((-mb, f.neg(x)) for mb, x in zip(Bs, es)),
                         *((0, f.sub(xn, x)) for x in es[:-1])])
    _addm(out, e, -w)
    return out


_reg("t4.reduce-c37", "second C = B_1..B_n reduction with (x_n-x_j)/(1-x_j) arguments",
     _c35_lhs, _c37_rhs, chars=lambda n: n + 1,
     constraints=[("all x_j != 1", "elems", slice(None), 1)])


def _evalequal_lhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], cs[2:], cs[1], (es[0],) * n)


def _evalequal_rhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], (sum(cs[2:]),), cs[1], (es[0],))


_reg("t4.eval-equal-x", "all points equal: F_D collapses to a single merged slot",
     _evalequal_lhs, _evalequal_rhs, elems=lambda n: 1)


def _evalxn1_lhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], cs[2:], cs[1], es + (1,))


def _evalxn1_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    return hyperff._fd_vec(f, A, Bs[:-1], C - Bs[-1], es, e0=Bs[-1] * f.log_neg1)


_reg("t4.eval-xn1", "last point 1: the slot is absorbed into C",
     _evalxn1_lhs, _evalxn1_rhs, elems=lambda n: n - 1)


def _evalall1_lhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], cs[2:], cs[1], (1,) * n)


def _evalall1_rhs(f, n, cs, es):
    A, C, Bs = cs[0], cs[1], cs[2:]
    return hyperff._fd_vec(f, A, (), C - sum(Bs), (), e0=sum(Bs) * f.log_neg1)


_reg("t4.eval-all1", "all points 1: closed binomial form",
     _evalall1_lhs, _evalall1_rhs, elems=lambda n: 0)


def _c62_lhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    return hyperff._fd_vec(f, A, Bs, A, (es[0],) * n)


def _c62_rhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    x = es[0]
    SB = sum(Bs)
    e, w = _mono_exp(f, [(SB, f.p - 1), (-A, x)])
    out = hyperff._fd_vec(f, A, (), SB, (), e0=e, s=w)
    e, w = _mono_exp(f, [(0, x), (-SB, f.sub(1, x))])
    _addm(out, e, -w)
    return out


_reg("t4.c62", "C = A with equal points: two-term closed form",
     _c62_lhs, _c62_rhs, chars=lambda n: n + 1, elems=lambda n: 1)


def _c63_lhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    return hyperff._fd_vec(f, A, Bs, sum(Bs), (es[0],) * n)


def _c63_rhs(f, n, cs, es):
    A, Bs = cs[0], cs[1:]
    x = es[0]
    N = f.n_chars
    SB = sum(Bs)
    e, w = _mono_exp(f, [(0, x), (-A, f.sub(1, x))])
    out = hyperff._fd_vec(f, A, (), SB, (), e0=e, s=w)
    e, w = _mono_exp(f, [(-SB, f.neg(x))])
    _addm(out, e, -w)
    _addm(out, SB * f.log_neg1, (f.q - 1) * _delta(A, N) * _is(x, 1))
    return out


_reg("t4.c63", "C = B_1..B_n with equal points: closed form plus delta at x = 1, A = eps",
     _c63_lhs, _c63_rhs, chars=lambda n: n + 1, elems=lambda n: 1)


def _gf_lhs(variant):
    def lhs(f, n, cs, es):
        return hyperff._genfn_lhs_vec(f, cs[0], cs[2:], cs[1], es[:-1], es[-1], variant)
    return lhs


def _gf_rhs(variant):
    def rhs(f, n, cs, es):
        return hyperff._genfn_rhs_vec(f, cs[0], cs[2:], cs[1], es[:-1], es[-1], variant)
    return rhs


_reg("t5.gf1", "generating function over the A-slot (t != 1)",
     _gf_lhs("T41"), _gf_rhs("T41"), elems=lambda n: n + 1,
     constraints=[("t != 1", "elems", slice(-1, None), 1)])
_reg("t5.gf2", "generating function over the last B-slot, with a delta term at t = 1",
     _gf_lhs("T42"), _gf_rhs("T42"), elems=lambda n: n + 1)
_reg("t5.gf3", "generating function over the C-slot, with a delta term at 1 + t = 0",
     _gf_lhs("T43"), _gf_rhs("T43"), elems=lambda n: n + 1)


# binomial-coefficient facts; cs layout noted per entry, no point dependence on n

def _f2_lhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], (), cs[1], ())


def _f2_rhs(f, n, cs, es):
    return hyperff._fd_vec(f, cs[0], (), cs[0] - cs[1], ())


_reg("p2.f2", "{A choose B} = {A choose A B^-1}", _f2_lhs, _f2_rhs,
     n_min=0, n_max=0, chars=lambda n: 2, elems=lambda n: 0)


def _f3_rhs(f, n, cs, es):
    A, B = cs
    return hyperff._fd_vec(f, -B, (), -A, (), e0=(A + B) * f.log_neg1)


_reg("p2.f3", "{A choose B} = AB(-1) {B^-1 choose A^-1}", _f2_lhs, _f3_rhs,
     n_min=0, n_max=0, chars=lambda n: 2, elems=lambda n: 0)


def _f4_rhs(f, n, cs, es):
    out = _zero(f, cs)
    _addm(out, 0, -1 + (f.q - 1) * _delta(cs[0], f.n_chars))
    return out


_reg("p2.f4-eps", "{A choose eps} = -1 + (q-1) delta(A)",
     lambda f, n, cs, es: hyperff._fd_vec(f, cs[0], (), 0, ()), _f4_rhs,
     n_min=0, n_max=0, chars=lambda n: 1, elems=lambda n: 0)
_reg("p2.f4-self", "{A choose A} = -1 + (q-1) delta(A)",
     lambda f, n, cs, es: hyperff._fd_vec(f, cs[0], (), cs[0], ()), _f4_rhs,
     n_min=0, n_max=0, chars=lambda n: 1, elems=lambda n: 0)


def _prod_lhs(f, n, cs, es):
    A, B, C = cs
    return hyperff._conv(hyperff._fd_vec(f, A, (), B, ()), hyperff._fd_vec(f, C, (), A, ()),
                         f.n_chars)


def _prod_rhs(f, n, cs, es):
    A, B, C = cs
    N, q = f.n_chars, f.q
    out = hyperff._conv(hyperff._fd_vec(f, C, (), B, ()), hyperff._fd_vec(f, C - B, (), A - B, ()),
                        N)
    _addm(out, B * f.log_neg1, -(q - 1) * _delta(A, N))
    _addm(out, (A + B) * f.log_neg1, (q - 1) * _delta(B - C, N))
    return out


_reg("p2.prod", "binomial product re-association with two delta corrections",
     _prod_lhs, _prod_rhs, n_min=0, n_max=0, chars=lambda n: 3, elems=lambda n: 0)


def _binthm_lhs(f, n, cs, es):
    return hyperff._line_vec(f, cs[0], 0, es[0])


def _binthm_rhs(f, n, cs, es):
    A, x = cs[0], es[0]
    out = _zero(f, cs)
    e, w = _mono_exp(f, [(0, x), (-A, f.sub(1, x))])
    _addm(out, e, (f.q - 1) * w)
    return out


_reg("p2.binthm", "line sum of {A chi choose chi} chi(x) equals (q-1) A^-1(1-x) on x != 0",
     _binthm_lhs, _binthm_rhs, n_min=0, n_max=0,
     chars=lambda n: 1, elems=lambda n: 1)


def _linesum_lhs(f, n, cs, es):
    return hyperff._line_vec(f, cs[0], cs[1], es[0])


def _linesum_rhs(f, n, cs, es):
    A, B, x = cs[0], cs[1], es[0]
    out = _zero(f, cs)
    e, w = _mono_exp(f, [(-B, x), (B - A, f.sub(1, x))])
    _addm(out, e, (f.q - 1) * w)
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


def _check(desc, f, n, cs, es, corrupt: bool):
    """Decide d * lhs = rhs for one assignment as a block of one row
    (_unequal); returns (equal?, lhs, rhs), the raw sides as rows, int64
    where 2^omega(N) (d max|lhs| + max|rhs| + d) < _INT64_BOUND and object
    rows of Python ints past that.  `corrupt` adds d to this call's rhs."""
    lv, rv = desc.lhs(f, n, cs, es), desc.rhs(f, n, cs, es)
    d = desc.den(f.q, n)
    top = d * int(abs(lv).max()) + int(abs(rv).max()) + d
    dtype = np.int64 if top << len(cyclo._prime_divisors(f.n_chars)) < _INT64_BOUND else object
    lv, rv = lv.astype(dtype, copy=False), rv.astype(dtype, copy=False)
    return not len(_unequal(f, d, lv[None], rv[None], corrupt)), lv, rv


def _unequal(f, d, lv, rv, corrupt: bool) -> np.ndarray:
    """The decision step of _check and _check_rows: the rows r of fresh (R, N)
    sides where d lv[r] = rv[r] fails in Z[zeta_N], `corrupt` first adding d
    to rv at zeta^0 in place; d lv - rv's nonzero rows go to cyclo.vanishes."""
    if corrupt:
        rv[:, 0] += d
    diff = d * lv - rv
    rows = np.flatnonzero((diff != 0).any(axis=1))
    return rows[~cyclo.vanishes(f.n_chars, diff[rows])]


# N = q - 1 below which sampled mode decides its draws in blocks of rows, and
# from which one draw at a time (_run_one)
_ARRAY_MIN_N = 40
# Largest magnitude that int64 sides, and the vanishing test's passes over
# them, may reach (_fits_int64 for a block, _check for one assignment).
_INT64_BOUND = 2**62


def _fits_int64(desc, f, n) -> bool:
    """Whether a block of (q, n) stays inside _INT64_BOUND, a bound for
    blocks only (_check reads one assignment's from its sides).  Every side
    is a signed sum of terms whose total weight is at most 3 q^(2n+3): a
    walk weighs |s| (N - 1) <= q N, the character-sum form N^n per term
    tuple, (N - 1)^(n+1) tuples, a theta-sum N^3, a double walk or a product
    of two walks N^2, a monomial q.  That bounds every partial sum of a
    kernel, and it bounds d lhs - rhs (a corrupt rhs adds d) by (d + 1) 4
    q^(2n+3); each of the vanishing test's omega(N) passes at most doubles
    it.  Where this holds, raw entries and the passes stay below 2^62."""
    N = f.n_chars
    d = desc.den(f.q, n)
    return (d + 1) * 4 * f.q ** (2 * n + 3) << len(cyclo._prime_divisors(N)) < _INT64_BOUND


def _block_rows(N: int) -> int:
    """Rows per block: at most max(1, _BLOCK // N), so that no (R, N) side
    of a block holds more than hyperff._BLOCK entries."""
    return max(1, hyperff._BLOCK // N)


def _slot_blocks(sizes, N: int):
    """Every row of the slot ranges 0..size-1, in itertools.product order, as
    blocks of int64 columns (one per slot; an index is its own value) of at
    most _block_rows(N) rows."""
    total = math.prod(sizes)
    step = _block_rows(N)
    for a in range(0, total, step):
        yield np.unravel_index(np.arange(a, min(a + step, total)), sizes)


def _check_rows(desc, f, n, cs, es, corrupt: bool, batched: bool = True) -> list[tuple]:
    """_check for a block of rows (int64 columns): the failing rows as (row,
    raw lhs, raw rhs).  Batched, each side is evaluated once for every row
    and decided by _unequal; else (past the int64 bound) each row is
    decided by _check.  A side that divides by zero raises ZeroInverse
    naming its zero rows (row by row: all, after the pass)."""
    if not batched:
        failed, zero = [], []
        for r, row in enumerate(zip(*(c.tolist() for c in (*cs, *es)))):
            try:
                ok, lv, rv = _check(desc, f, n, row[:len(cs)], row[len(cs):], corrupt)
            except ZeroInverse:
                zero.append(r)
                continue
            if not ok:
                failed.append((r, lv, rv))
        if zero:
            raise ZeroInverse(zero)
        return failed
    lv, rv = desc.lhs(f, n, cs, es), desc.rhs(f, n, cs, es)
    return [(r, lv[r], rv[r]) for r in _unequal(f, desc.den(f.q, n), lv, rv, corrupt)]


def _failures(desc, f, n, cs, es, corrupt: bool, batched: bool = True) -> list[dict]:
    """The failure entries of a block of rows (_check_rows)."""
    return [_fail_entry(desc, f, n, [int(c[r]) for c in cs], [int(x[r]) for x in es], lv, rv)
            for r, lv, rv in _check_rows(desc, f, n, cs, es, corrupt, batched)]


def _canonical(desc, f, n, lv, rv) -> tuple[CycInt, CycInt]:
    """Canonical lhs and rhs / d of raw sides, for output only."""
    return (cyclo.from_coeffs(f.n_chars, lv),
            cyclo.div_exact(cyclo.from_coeffs(f.n_chars, rv), desc.den(f.q, n)))


def _fail_entry(desc, f, n, cs, es, lv, rv) -> dict:
    lc, rc = _canonical(desc, f, n, lv, rv)
    return {"q": f.q, "n": n, "chars": list(cs), "elems": list(es),
            "lhs": cyclo.render(lc), "rhs": cyclo.render(rc)}


def _run_one(desc, f: ff_core.FieldTable, n: int, mode: str, seed: int, count: int,
             corrupt_rhs: bool) -> TheoremReport:
    t0 = perf_counter()
    N, q = f.n_chars, f.q
    tested = excluded = 0
    failures: list[dict] = []
    mismatches = undefined = None

    if mode == "sampled":
        # below _ARRAY_MIN_N, in the int64 bound: draws as columns, blocks of rows
        rng = random.Random(f"{seed}:{desc.id}:{q}:{n}")
        nc = desc.chars(n)
        if N < _ARRAY_MIN_N and _fits_int64(desc, f, n):
            step = _block_rows(N)
            for cols, tested, excluded, _ in sampling.sample_columns(rng, desc, q, n, count):
                for a in range(0, cols.shape[1], step):
                    block = cols[:, a:a + step]
                    failures += _failures(desc, f, n, tuple(block[:nc]), tuple(block[nc:]),
                                          corrupt_rhs)
        else:
            for cs, es, tested, excluded in sampling.sample_draws(rng, desc, q, n, count):
                ok, lv, rv = _check(desc, f, n, cs, es, corrupt_rhs)
                if not ok:
                    failures.append(_fail_entry(desc, f, n, cs, es, lv, rv))
    else:
        # the full slot ranges in blocks of rows, each row split by the first
        # constraint it violates: exhaustive mode decides the rows that violate
        # none, boundary mode the rest (none where there are no constraints)
        boundary, k, nc = mode == "boundary", len(desc.constraints), desc.chars(n)
        mismatches = undefined = 0 if boundary else None
        batched = _fits_int64(desc, f, n)
        for cols in _slot_blocks([N] * nc + [q] * desc.elems(n), N) if k or not boundary else ():
            first = desc.first_violated(n, cols)
            rows = np.flatnonzero(first < k if boundary else first == k)
            # a side takes no block of zero rows; in boundary mode the rows that
            # divide by zero are undefined, and the rest are decided again
            while len(rows):
                block = cols if len(rows) == len(first) else tuple(c[rows] for c in cols)
                try:
                    if boundary:
                        mismatches += len(_check_rows(desc, f, n, block[:nc], block[nc:],
                                                      corrupt_rhs, batched))
                    else:
                        failures += _failures(desc, f, n, block[:nc], block[nc:], corrupt_rhs,
                                              batched)
                    break
                except ZeroInverse as exc:
                    if not boundary:
                        raise
                    undefined, rows = undefined + len(exc.rows), np.delete(rows, exc.rows)
            tested += len(rows)
        excluded = desc.slot_space(q, n) - tested - (undefined or 0)

    failures.sort(key=lambda d: (d["chars"], d["elems"]))
    return TheoremReport(
        id=desc.id, q=q, n=n, mode=mode,
        seed=seed if mode == "sampled" else None,
        tested=tested, excluded=excluded, failures=tuple(failures),
        ms=(perf_counter() - t0) * 1000.0,
        mismatches=mismatches, undefined=undefined)


def _listed(name: str, values) -> list:
    """The entries of an iterable argument, or a ValueError naming it."""
    try:
        entries = iter(values)
    except TypeError:
        raise ValueError(f"{name} must be a list, got {values!r}") from None
    return list(entries)


def _check_cap(desc: IdentityDescriptor, q: int, n: int, cap: int) -> None:
    """CapExceeded where the slot space (q - 1)^c q^e at (q, n) passes cap,
    decided without building a number far past it (at n = 10^7 it has
    millions of digits).  With low = c (bits(q - 1) - 1) + e (bits(q) - 1),
    the space is between 2^low and 4^low: where low reaches both _EXACT_BITS
    and the bits of cap it is past cap, and the message gives 2^low;
    elsewhere it is counted exactly, in at most 2 max(_EXACT_BITS, bits(cap))
    bits."""
    c, e = desc.chars(n), desc.elems(n)
    low = c * ((q - 1).bit_length() - 1) + e * (q.bit_length() - 1)
    size = None if low >= max(_EXACT_BITS, cap.bit_length()) else desc.slot_space(q, n)
    if size is None or size > cap:
        raise CapExceeded(size, cap, low)


def _check_n(desc: IdentityDescriptor, n: int) -> None:
    if type(n) is not int:
        raise ValueError(f"n must be an integer, got {n!r}")
    if not desc.allows_n(n):
        raise ValueError(f"identity {desc.id} does not allow n={n}")


def verify(ident: str, q_list, mode: str = "exhaustive", n_list=None,
           seed: int = 0, count: int = DEFAULT_SAMPLES, cap: int = DEFAULT_CAP,
           corrupt_rhs: bool = False, max_q: int | None = None) -> list[TheoremReport]:
    """One report per q in q_list and n in n_list (default: the least n).
    Mode, count, cap, every n, every q and, outside sampled mode, every (q,
    n) slot space against `cap` are checked before any report runs."""
    desc = get_identity(ident)
    if mode not in MODES:
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "sampled" and not (type(count) is int and count >= 1):
        raise ValueError(f"sampled mode needs an integer count >= 1, got {count!r}")
    if mode == "sampled" and type(seed) is not int:
        raise ValueError(f"seed must be an integer, got {seed!r}")
    if type(cap) is not int or cap < 1:
        raise ValueError(f"cap must be a positive integer, got {cap!r}")
    n_list = (desc.n_min,) if n_list is None else _listed("n_list", n_list)
    for n in n_list:
        _check_n(desc, n)
    fields = [_field_for_q(q, max_q) for q in _listed("q_list", q_list)]
    if mode != "sampled":
        for f in fields:
            for n in n_list:
                _check_cap(desc, f.q, n, cap)
    return [_run_one(desc, f, n, mode, seed, count, corrupt_rhs)
            for f in fields for n in n_list]


def replay(ident: str, assignment: dict, corrupt_rhs: bool = False):
    """Re-run one stored assignment, a dict with q, n and the lists chars
    and elems (a failure entry); returns (lhs, rhs, equal?).  Every entry
    is an integer; character exponents are read mod q - 1, and elements must
    be indices 0 <= x < q."""
    desc = get_identity(ident)
    if not isinstance(assignment, dict):
        raise ValueError(f"assignment must be a dict, got {type(assignment).__name__}")
    for key in ("q", "n", "chars", "elems"):
        if key not in assignment:
            raise ValueError(f"assignment has no {key!r} entry")
    q, n = assignment["q"], assignment["n"]
    _check_n(desc, n)
    f = _field_for_q(q)
    cs = tuple(Char(f, c).m for c in _listed("chars", assignment["chars"]))
    es = tuple(_listed("elems", assignment["elems"]))
    if len(cs) != desc.chars(n) or len(es) != desc.elems(n):
        raise ValueError("assignment shape does not match identity arity")
    ff_core._check_points(q, es, "elems entry")
    equal, lv, rv = _check(desc, f, n, cs, es, corrupt_rhs)
    lc, rc = _canonical(desc, f, n, lv, rv)
    return lc, rc, equal
