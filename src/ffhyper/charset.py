"""Multiplicative characters of F_q, extended to all of F_q by chi(0) = 0.

chi_m sends the canonical generator g to zeta_{q-1}^m, so characters are
labeled by an exponent m in Z_{q-1}; chi_0 is the trivial character epsilon.

Pitfall worth repeating: chi(0) = 0 for EVERY character, including epsilon.
The factors eps(x_1 ... x_n) in the hypergeometric definitions rely on this;
the common textbook convention eps(0) = 1 would silently change results.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import cyclo
from .cyclo import CycInt
from .errors import FieldMismatch
from .ff_core import FieldTable, _check_points


@dataclass(frozen=True)
class Char:
    field: FieldTable
    m: int

    def __post_init__(self):
        if type(self.m) is not int:  # a bool is no exponent
            raise ValueError(f"character exponent must be an integer, got {self.m!r}")
        object.__setattr__(self, "m", self.m % self.field.n_chars)

    @property
    def is_trivial(self) -> bool:
        return self.m == 0

    def __call__(self, x: int) -> CycInt:
        return eval(self, x)

    def __mul__(self, other: "Char") -> "Char":
        return product(self, other)

    def __invert__(self) -> "Char":
        return inverse(self)

    def __repr__(self):
        return f"chi_{self.m}[q={self.field.q}]"


def eval(c: Char, x: int) -> CycInt:
    _check_points(c.field.q, (x,), "x")
    n = c.field.n_chars
    if x == 0:
        return cyclo.zero(n)
    return cyclo.zeta_pow(n, c.m * c.field.log_table[x])


def inverse(c: Char) -> Char:
    return Char(c.field, -c.m)


def product(c1: Char, c2: Char) -> Char:
    if c1.field is not c2.field and c1.field != c2.field:
        raise FieldMismatch()
    return Char(c1.field, c1.m + c2.m)


def all_chars(f: FieldTable) -> tuple[Char, ...]:
    return tuple(Char(f, m) for m in range(f.n_chars))


def delta_char(c: Char) -> CycInt:
    return cyclo.from_int(c.field.n_chars, 1 if c.m == 0 else 0)


def delta_elem(f: FieldTable, x: int) -> CycInt:
    _check_points(f.q, (x,), "x")
    return cyclo.from_int(f.n_chars, 1 if x == 0 else 0)
