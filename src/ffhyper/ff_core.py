"""Small finite fields F_q (q = p^k) as immutable lookup tables.

Elements are encoded as base-p digit integers: the element with polynomial
representation a_0 + a_1*x + ... + a_{k-1}*x^{k-1} has index
a_0 + a_1*p + ... + a_{k-1}*p^{k-1}, so for k=1 the index is just the residue
and index 1 is always the multiplicative identity.

The modulus is the lexicographically smallest monic irreducible polynomial of
degree k over Z_p, comparing coefficient tuples (a_{k-1}, ..., a_1, a_0) —
leading coefficients first, constant term last.  Irreducibility is decided by
trial division: a degree-k polynomial is irreducible iff no monic polynomial of
degree 1..k/2 divides it.  The generator is the smallest element index of
multiplicative order q-1, checked against the prime divisors of q-1 from
cyclo's factoriser, which also tests the characteristic and splits q = p^k.
Both choices are deterministic, so character labels and discrete logs are
reproducible across runs and machines.

`build_field` is the one field cache: one FieldTable per (p, k) asked for,
built on first use and shared for the rest of the process, so never mutate one.

After construction, arithmetic uses three tables and no digit arithmetic:
exp/log for products, and Zech's logarithm Z(i) = log(1 - g^i) for sums, since
x - y = x (1 - y/x).  The same table turns every "1 - something" in a
character sum into an exponent lookup (Lidl & Niederreiter, Finite Fields,
ch. 10).
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from .cyclo import _prime_divisors
from .errors import NotPrime, TooLarge, ZeroInverse, ZeroLog

DEFAULT_MAX_Q = 4096


# -- polynomial helpers over Z_p; coefficient lists are low -> high ------------


def _pmod(a: list[int], mod: list[int], p: int) -> list[int]:
    """a mod a monic `mod` over Z_p, as deg(mod) residues in 0..p-1."""
    k = len(mod) - 1
    a = list(a)
    for i in range(len(a) - 1, k - 1, -1):
        c = a[i] % p
        if c:
            for j in range(k):
                a[i - k + j] -= c * mod[j]
    out = [c % p for c in a[:k]]
    return out + [0] * (k - len(out))


def _pmul_mod(a: list[int], b: list[int], mod: list[int], p: int) -> list[int]:
    out = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                out[i + j] += ai * bj
    return _pmod(out, mod, p)


def _smallest_modulus(p: int, k: int) -> tuple[int, ...]:
    """The first monic degree-k polynomial over Z_p, in lexicographic order of
    (a_{k-1}, ..., a_0), that leaves a nonzero remainder on division by every
    monic polynomial of degree 1..k//2: a reducible polynomial has a factor of
    degree at most k/2, so this is the first irreducible one."""
    factors = [list(low) + [1] for d in range(1, k // 2 + 1)
               for low in itertools.product(range(p), repeat=d)]
    for key in itertools.product(range(p), repeat=k):
        mod = list(reversed(key)) + [1]
        if all(any(_pmod(mod, g, p)) for g in factors):
            return tuple(mod)


class FieldTable:
    """F_q with exp, log and Zech-log tables.  Immutable after construction:
    `build_field` hands the same table of each (p, k) to every caller in the
    process, so never mutate one.

    exp_table[i] = g^i and log_table[x] = log_g x (log_table[0] = -1).
    zech_table[i] = log_g(1 - g^i), Zech's logarithm, with the same -1 at
    i = 0 where 1 - g^0 = 0; log_neg1 = log_g(-1).  Every operation works
    through these tables: x - y = x (1 - y/x).
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.n_chars = q - 1  # order of F_q*, also the root-of-unity order
        self.modulus = _smallest_modulus(p, k)

        powers = tuple(p**i for i in range(k))

        def digits(i: int) -> list[int]:
            return [(i // pw) % p for pw in powers]

        def index(dv: list[int]) -> int:
            return sum(d * pw for d, pw in zip(dv, powers))

        mod = list(self.modulus)

        def mul_raw(a: int, b: int) -> int:
            if a == 0 or b == 0:
                return 0
            return index(_pmul_mod(digits(a), digits(b), mod, p))

        def one_sub(x: int) -> int:  # 1 - x, digit by digit
            dv = digits(x)
            return index([(1 - dv[0]) % p] + [(-d) % p for d in dv[1:]])

        N = q - 1
        fac = _prime_divisors(N)

        def order_is_full(g: int) -> bool:
            def powm(a: int, e: int) -> int:
                r = 1
                while e:
                    if e & 1:
                        r = mul_raw(r, a)
                    a = mul_raw(a, a)
                    e >>= 1
                return r

            return powm(g, N) == 1 and all(powm(g, N // ell) != 1 for ell in fac)

        self.generator = next(g for g in range(1, q) if order_is_full(g))

        exp = [1] * N
        for j in range(1, N):
            exp[j] = mul_raw(exp[j - 1], self.generator)
        log = [-1] * q
        for j, v in enumerate(exp):
            log[v] = j
        self.exp_table = tuple(exp)
        self.log_table = tuple(log)
        self.zech_table = tuple(log[one_sub(v)] for v in exp)
        self.log_neg1 = log[p - 1]  # -1 has base-p digits (p-1, 0, ..., 0)

    # -- arithmetic ------------------------------------------------------------

    def sub(self, x: int, y: int) -> int:
        if y == 0:
            return x
        if x == 0:
            return self.neg(y)
        N, L = self.n_chars, self.log_table
        z = self.zech_table[(L[y] - L[x]) % N]
        return 0 if z < 0 else self.exp_table[(L[x] + z) % N]

    def neg(self, x: int) -> int:
        if x == 0:
            return 0
        return self.exp_table[(self.log_table[x] + self.log_neg1) % self.n_chars]

    def add(self, x: int, y: int) -> int:
        return self.sub(x, self.neg(y))

    def mul(self, x: int, y: int) -> int:
        if x == 0 or y == 0:
            return 0
        N = self.q - 1
        return self.exp_table[(self.log_table[x] + self.log_table[y]) % N]

    def inv(self, x: int) -> int:
        if x == 0:
            raise ZeroInverse()
        return self.exp_table[(-self.log_table[x]) % (self.q - 1)]

    def div(self, x: int, y: int) -> int:
        return self.mul(x, self.inv(y))

    def dlog(self, x: int) -> int:
        if x == 0:
            raise ZeroLog()
        return self.log_table[x]

    def __eq__(self, other):
        return (
            isinstance(other, FieldTable)
            and self.p == other.p
            and self.k == other.k
            and self.modulus == other.modulus
            and self.generator == other.generator
            and self.exp_table == other.exp_table
        )

    def __hash__(self):
        return hash((self.p, self.k))

    def __repr__(self):
        return f"FieldTable(q={self.q}={self.p}^{self.k}, g={self.generator})"


def split_prime_power(q: int) -> tuple[int, int]:
    """q -> (p, k) with q = p^k, or ValueError if q is not a prime power."""
    if q < 2:
        raise ValueError(f"field order must be >= 2, got {q}")
    fac = _prime_divisors(q)
    if len(fac) != 1:
        raise ValueError(f"{q} is not a prime power")
    (p,) = fac
    k = 0
    while q > 1:
        q //= p
        k += 1
    return p, k


def check_order(p: int, k: int, max_q: int = DEFAULT_MAX_Q) -> None:
    """ValueError unless k >= 1, TooLarge when p^k > max_q.  For |p| >= 2 a k
    past max_q's bit length puts |p^k| past the cap, so such a k is refused
    before p^k is built: the power costs time and memory that grow with k."""
    if k < 1:
        raise ValueError(f"extension degree must be >= 1, got {k}")
    if abs(p) >= 2 and k > max_q.bit_length() or p**k > max_q:
        raise TooLarge(p if k == 1 else f"{p}^{k}", max_q)


def build_field(p: int, k: int, max_q: int = DEFAULT_MAX_Q) -> FieldTable:
    """The shared FieldTable of F_{p^k}.  p^k is compared with max_q on every
    call, before the cache is consulted or p is factored."""
    check_order(p, k, max_q)
    return _field(p, k)


@lru_cache(maxsize=None)  # caches tables, not NotPrime: a refusal is re-raised
def _field(p: int, k: int) -> FieldTable:
    if _prime_divisors(p) != (p,):
        raise NotPrime(p)
    return FieldTable(p, k)

