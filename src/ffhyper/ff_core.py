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
shared for the rest of the process, so never mutate one.

Every table follows from one k x k matrix over Z_p, the companion matrix X of
the modulus m: row j holds the digits of x^(j+1) mod m, so a row of digits
times X is the digits of x times that element (Lidl & Niederreiter, Finite
Fields, ch. 2).  The element g has the matrix G = sum of g_i X^i, so
T[a] = index(digits(a) G mod p) is the multiply-by-g table; g is the
generator iff G^(N/l) != I for every prime l | N = q - 1, and
g^(h + j) = T^h[g^j] gives the exp table in log2(N) doublings of T.  Zech's
logarithm follows from the exp table: 1 - g^i = 1 + g^(i + log(-1)), and
adding 1 changes digit 0 alone, from d to d + 1, or to 0 when d = p - 1
(ibid., ch. 10).

After construction, arithmetic uses three tables and no digit arithmetic:
exp/log for products, and Zech's logarithm Z(i) = log(1 - g^i) for sums, since
x - y = x (1 - y/x).  The same table turns every "1 - something" in a
character sum into an exponent lookup.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from .cyclo import DivisorTable, _prime_divisors
from .errors import NotPrime, TooLarge, ZeroInverse

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


def _matpow(a: np.ndarray, e: int, p: int) -> np.ndarray:
    """a^e over Z_p, by square-and-multiply: int64 holds every entry of a
    product while k p^2 < 2^63."""
    r = np.eye(len(a), dtype=np.int64)
    while e:
        if e & 1:
            r = r @ a % p
        a = a @ a % p
        e >>= 1
    return r


def _check_points(q: int, points, name: str) -> None:
    """Every point (the argument `name`) must be an integer 0 <= x < q."""
    for x in points:
        if type(x) is not int:  # a bool is no element
            raise ValueError(f"{name} must be an integer, got {x!r}")
        if not 0 <= x < q:
            raise ValueError(f"element index {x} out of range for q={q}")


class FieldTable:
    """F_q with exp, log and Zech-log tables.  Immutable after construction:
    `build_field` hands the same table of each (p, k) to every caller in the
    process, so never mutate one.

    exp_table[i] = g^i and log_table[x] = log_g x (log_table[0] = -1).
    zech_table[i] = log_g(1 - g^i), Zech's logarithm, with the same -1 at
    i = 0 where 1 - g^0 = 0; log_neg1 = log_g(-1).  Every operation works
    through these tables: x - y = x (1 - y/x).  zech_array is zech_table
    twice over as a read-only int64 array of length 2N, and exp_array and
    log_array are exp_table and log_table as read-only int64 arrays: the
    arrays the tables are built in.  divisor_table is the
    cyclo.DivisorTable of N = q - 1 (its divisors, row offsets and Moebius
    pairs, O(sigma(N)) ints, and its gcd indices, built on first use), which
    every sum over characters reads.

    The operations take element indices as ints, or as int64 columns (a
    block of rows, one element per row, mixed freely with ints), and return
    the same: a column holds the row-by-row results.  inv and div raise
    ZeroInverse on a zero divisor in either form; inv0 is x^(q-2), 1/x with
    0 at 0, for a side whose zero rows carry a zero weight.
    """

    def __init__(self, p: int, k: int):
        self.p = p
        self.k = k
        self.q = q = p**k
        self.n_chars = N = q - 1  # order of F_q*, also the root-of-unity order
        self.modulus = _smallest_modulus(p, k)

        powers = np.array([p**i for i in range(k)], dtype=np.int64)
        X = np.eye(k, k, 1, dtype=np.int64)  # row j: x^(j+1) = x * x^j for j < k - 1
        X[-1] = [-m % p for m in self.modulus[:k]]  # x^k = -(m_0 + ... + m_{k-1} x^{k-1})
        Xs = np.array(list(itertools.accumulate([X] * (k - 1), lambda a, b: a @ b % p,
                                                initial=np.eye(k, dtype=np.int64))))
        Xs = Xs.reshape(k, k * k)  # row i: X^i
        fac = _prime_divisors(N)
        # each g with its matrix G = sum of g_i X^i
        candidates = ((g, (g // powers % p @ Xs % p).reshape(k, k)) for g in range(1, q))
        # g^N = 1 for every nonzero g (Lagrange), so only N / ell is tested;
        # row 0 of G^e is the digits of g^e
        self.generator, G = next((g, G) for g, G in candidates
                                 if all(_matpow(G, N // ell, p)[0] @ powers != 1 for ell in fac))
        # T[a] = index(a g), in k chunks of rows: each digits block has about q entries
        a, step = np.arange(q), -(-q // k)
        T = np.concatenate([a[i:i + step, None] // powers % p @ G % p @ powers
                            for i in range(0, q, step)])
        exp = np.ones(N, dtype=np.int64)
        h = 1
        while h < N:  # T is multiplication by g^h: it maps g^0..g^(h-1) to g^h..g^(2h-1)
            exp[h:2 * h] = T[exp[:min(h, N - h)]]
            T, h = T[T], 2 * h
        log = np.full(q, -1, dtype=np.int64)
        log[exp] = np.arange(N)
        self.log_neg1 = ln1 = int(log[p - 1])  # -1 has base-p digits (p-1, 0, ..., 0)
        # 1 - g^i = 1 + g^(i + ln1), and + 1 changes digit 0 alone
        v = np.concatenate([exp[ln1:], exp[:ln1]])
        zech = log[np.where(v % p == p - 1, v - (p - 1), v + 1)]
        self.exp_table = tuple(exp.tolist())
        self.log_table = tuple(log.tolist())
        self.zech_table = tuple(zech.tolist())
        # read-only, for the operations on columns and hyperff's walks:
        # Z[(l + i) mod N] at i = 1..N-1 is the slice [l + 1 : l + N] of the
        # Zech table twice over
        self.exp_array, self.log_array = exp, log
        self.zech_array = np.concatenate([zech, zech])
        for table in (exp, log, self.zech_array):
            table.flags.writeable = False
        # the divisor lattice of N, which every count over characters reads
        self.divisor_table = DivisorTable(N)

    # -- arithmetic ------------------------------------------------------------

    def sub(self, x, y):
        if type(x) is np.ndarray or type(y) is np.ndarray:
            N, L = self.n_chars, self.log_array
            z = self.zech_array[(L[y] - L[x]) % N]
            r = np.where(z < 0, 0, self.exp_array[(L[x] + z) % N])
            return np.where(y == 0, x, np.where(x == 0, self.neg(y), r))
        if y == 0:
            return x
        if x == 0:
            return self.neg(y)
        N, L = self.n_chars, self.log_table
        z = self.zech_table[(L[y] - L[x]) % N]
        return 0 if z < 0 else self.exp_table[(L[x] + z) % N]

    def neg(self, x):
        if type(x) is np.ndarray:
            return np.where(x == 0, 0, self.exp_array[(self.log_array[x] + self.log_neg1)
                                                      % self.n_chars])
        if x == 0:
            return 0
        return self.exp_table[(self.log_table[x] + self.log_neg1) % self.n_chars]

    def add(self, x, y):
        return self.sub(x, self.neg(y))

    def mul(self, x, y):
        if type(x) is np.ndarray or type(y) is np.ndarray:
            L = self.log_array
            return np.where((x == 0) | (y == 0), 0,
                            self.exp_array[(L[x] + L[y]) % self.n_chars])
        if x == 0 or y == 0:
            return 0
        N = self.q - 1
        return self.exp_table[(self.log_table[x] + self.log_table[y]) % N]

    def inv(self, x):
        if not (x.all() if type(x) is np.ndarray else x):
            raise ZeroInverse(np.flatnonzero(x == 0) if type(x) is np.ndarray else None)
        return self.inv0(x)

    def inv0(self, x):
        """x^(q-2): 1/x, and 0 at x = 0."""
        if type(x) is np.ndarray:
            return np.where(x == 0, 0, self.exp_array[-self.log_array[x] % self.n_chars])
        if x == 0:
            return 0
        return self.exp_table[(-self.log_table[x]) % (self.q - 1)]

    def div(self, x, y):
        return self.mul(x, self.inv(y))

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
    """The shared FieldTable of F_{p^k}.  p, k and max_q must be ints (a bool
    or a NumPy integer is a ValueError that names the argument); p^k is
    compared with max_q on every call, before the cache is consulted or p is
    factored."""
    for name, x in (("p", p), ("k", k), ("max_q", max_q)):
        if type(x) is not int:
            raise ValueError(f"{name} must be an integer, got {x!r}")
    check_order(p, k, max_q)
    return _field(p, k)


def check_prime(p: int) -> None:
    """NotPrime unless p is a prime."""
    if _prime_divisors(p) != (p,):
        raise NotPrime(p)


@lru_cache(maxsize=None)  # caches tables, not NotPrime: a refusal is re-raised
def _field(p: int, k: int) -> FieldTable:
    check_prime(p)
    return FieldTable(p, k)

