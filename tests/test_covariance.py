"""Galois and Frobenius covariance of every registered identity side.

Every side is a sum of walk terms whose exponents are linear in the character
exponents, so two exact raw-vector relations hold by counting alone, with no
second side to compare against:

  Galois     side(u cs, es) is side(cs, es) with entry e moved to u e mod N,
             for every unit u mod N;
  Frobenius  side(cs, sigma(es)) = side(p cs, es) over F_q, q = p^k, where
             sigma(x) = x^p: substituting u = sigma(v) in each walk turns
             chi(sigma x) into chi^p(x).

So a fault that hits both sides of an identity alike, which lhs = rhs cannot
see, still breaks one of them.  Every side is checked at n <= 2 on small
fields, Frobenius at every q = p^k <= 256 with k > 1, and Galois at the reach
grid's q = 256, 1024 and 4096 on the sides built from walks alone, which
sampled mode decides one draw at a time there, and at q = 256 and 1024 on the
theta-sum sides, which count by Moebius inversion there.  The negative
controls show that each relation can fail: a character exponent made
non-linear in the F_D walk (at q = 7 and at q = 256) or in the walk's terms
at a slope (q = 256) breaks Galois, and one Zech entry off by one, in a copy of the
field table, breaks Frobenius and leaves Galois intact."""

import copy
import inspect
import random
import textwrap
from math import gcd

import numpy as np
import pytest

from ffhyper import ff_core, hyperff, identities

QS = (7, 9, 16, 25, 27, 64)
# every q = p^k <= 256 with k > 1, where sigma is not the identity
FROBENIUS_QS = [q for q in range(4, 257)
                if len(ff_core._prime_divisors(q)) == 1 and ff_core.split_prime_power(q)[1] > 1]
# the reach grid's fields, past the N where sampled mode decides blocks of rows
LARGE_QS = (256, 1024, 4096)
DRAWS = 6


def _field(q):
    return ff_core.build_field(*ff_core.split_prime_power(q))


def _draws(desc, f, n, rng, count=DRAWS):
    """`count` seeded (cs, es) draws that satisfy the identity's constraints."""
    N, q = f.n_chars, f.q
    out = []
    for _ in range(1000 * count):
        cs = tuple(rng.randrange(N) for _ in range(desc.chars(n)))
        es = tuple(rng.randrange(q) for _ in range(desc.elems(n)))
        if desc.violated(cs, es) is None:
            out.append((cs, es))
            if len(out) == count:
                break
    assert out, (desc.id, q, n)
    return out


def _cases(f, seed, descs=None):
    """(descriptor, n, cs, es) over every identity in `descs` (default all)
    and allowed n <= 2."""
    for desc in descs or identities.list_identities():
        for n in range(desc.n_min, 3):
            if desc.allows_n(n):
                rng = random.Random(f"{seed}:{desc.id}:{f.q}:{n}")
                for cs, es in _draws(desc, f, n, rng):
                    yield desc, n, cs, es


def _moved(v, u):
    """v with entry e moved to u e mod N."""
    N = len(v)
    out = [0] * N
    for e, c in enumerate(v):
        out[u * e % N] += c
    return out


def _frob(f, x):
    """sigma(x) = x^p."""
    return 0 if x == 0 else f.exp_table[f.p * f.log_table[x] % f.n_chars]


def _galois_holds(f, desc, n, cs, es, u, sides=("lhs", "rhs")):
    ucs = tuple(u * c % f.n_chars for c in cs)
    return all(side(f, n, ucs, es).tolist() == _moved(side(f, n, cs, es).tolist(), u)
               for side in (getattr(desc, s) for s in sides))


def _frobenius_holds(f, desc, n, cs, es):
    pcs = tuple(f.p * c % f.n_chars for c in cs)
    ses = tuple(_frob(f, x) for x in es)
    return all(side(f, n, cs, ses).tolist() == side(f, n, pcs, es).tolist()
               for side in (desc.lhs, desc.rhs))


def _unit(rng, N):
    """A unit mod N other than 1 where there is one."""
    units = [u for u in range(2, N) if gcd(u, N) == 1]
    return rng.choice(units) if units else 1


@pytest.mark.parametrize("q", QS)
def test_every_side_is_galois_covariant(q):
    f = _field(q)
    rng = random.Random(q)
    for desc, n, cs, es in _cases(f, 0):
        u = _unit(rng, f.n_chars)
        assert _galois_holds(f, desc, n, cs, es, u), (desc.id, n, cs, es, u)


# the sides built from F_D walks, double walks and their products alone, with
# the sides each identity has of that kind; the other sides count theta-sums
WALK_SIDES = {**{d.id: ("lhs", "rhs") for d in identities.list_identities()
                 if d.id.startswith("t4.")},
              "t2.1": ("lhs",), "t3.ff-beta": ("lhs", "rhs"), "p2.f2": ("lhs", "rhs"),
              "p2.f3": ("lhs", "rhs"), "p2.f4-eps": ("lhs", "rhs"),
              "p2.f4-self": ("lhs", "rhs"), "p2.prod": ("lhs", "rhs")}


@pytest.mark.parametrize("q", LARGE_QS)
def test_every_walk_side_is_galois_covariant_at_large_q(q):
    f = _field(q)
    assert f.n_chars >= identities._ARRAY_MIN_N
    rng = random.Random(q)
    descs = [identities.get_identity(i) for i in WALK_SIDES]
    for desc, n, cs, es in _cases(f, 4, descs):
        u = _unit(rng, f.n_chars)
        assert _galois_holds(f, desc, n, cs, es, u, WALK_SIDES[desc.id]), (desc.id, n, cs, es, u)


# the theta-sum sides, with the slot counts each is checked at on large fields:
# a coset count over walk terms, by Moebius inversion there
THETA_SIDES = {"t2.1": (("rhs",), (1,)), "t3.ksum": (("rhs",), (1, 2)),
               "t5.gf1": (("lhs",), (1, 2)), "t5.gf2": (("lhs",), (1, 2)),
               "t5.gf3": (("lhs",), (1, 2)), "p2.binthm": (("lhs",), (0,)),
               "p2.linesum": (("lhs",), (0,))}


def _theta_cases(f, seed):
    descs = [identities.get_identity(i) for i in THETA_SIDES]
    return [c for c in _cases(f, seed, descs) if c[1] in THETA_SIDES[c[0].id][1]]


@pytest.mark.parametrize("q", LARGE_QS[:2])
def test_every_theta_sum_side_is_galois_covariant_at_large_q(q):
    f = _field(q)
    rng = random.Random(q)
    for desc, n, cs, es in _theta_cases(f, 6):
        u = _unit(rng, f.n_chars)
        assert _galois_holds(f, desc, n, cs, es, u, THETA_SIDES[desc.id][0]), \
            (desc.id, n, cs, es, u)


def test_a_non_linear_walk_term_breaks_galois_at_large_q(monkeypatch):
    f = _field(256)
    u = 254  # the unit -1 mod 255
    cases = _theta_cases(f, 7)
    assert all(_galois_holds(f, *c, u, THETA_SIDES[c[0].id][0]) for c in cases)
    src = textwrap.dedent(inspect.getsource(hyperff._walk_terms))
    old = "e0, d0 = (mA + mC) * l1,"
    assert src.count(old) == 1
    ns = dict(vars(hyperff))
    exec(compile(src.replace(old, "e0, d0 = (mA + mC) * l1 + mA * mA,"), hyperff.__file__,
                 "exec"), ns)
    monkeypatch.setattr(hyperff, "_walk_terms", ns["_walk_terms"])
    assert not all(_galois_holds(f, *c, u, THETA_SIDES[c[0].id][0]) for c in cases)


@pytest.mark.parametrize("q", FROBENIUS_QS)
def test_every_side_is_frobenius_covariant(q):
    f = _field(q)
    for desc, n, cs, es in _cases(f, 1):
        assert _frobenius_holds(f, desc, n, cs, es), (desc.id, n, cs, es)


def test_a_non_linear_walk_exponent_breaks_galois(monkeypatch):
    f = _field(7)
    u = 5  # the unit -1 mod 6
    cases = [c for c in _cases(f, 2) if c[0].id in ("t2.1", "t3.ksum", "t5.gf1")]
    assert all(_galois_holds(f, *c, u) for c in cases)
    src = textwrap.dedent(inspect.getsource(hyperff._fd_vec))
    old = "e0 + (mA + mC) * f.log_neg1"
    assert src.count(old) == 1
    ns = dict(vars(hyperff))
    exec(compile(src.replace(old, old + " + mA * mA"), hyperff.__file__, "exec"), ns)
    monkeypatch.setattr(hyperff, "_fd_vec", ns["_fd_vec"])
    assert not all(_galois_holds(f, *c, u) for c in cases)


def test_a_non_linear_array_walk_exponent_breaks_galois_at_large_q(monkeypatch):
    f = _field(256)
    u = 254  # the unit -1 mod 255
    descs = [identities.get_identity(i) for i in ("t4.pfaff", "t4.c63", "t3.ff-beta")]
    cases = list(_cases(f, 5, descs))
    assert all(_galois_holds(f, *c, u, WALK_SIDES[c[0].id]) for c in cases)
    src = textwrap.dedent(inspect.getsource(hyperff._fd_vec))
    old = "e0 + (mA + mC) * f.log_neg1"
    assert src.count(old) == 1
    ns = dict(vars(hyperff))
    exec(compile(src.replace(old, old + " + mA * mA"), hyperff.__file__, "exec"), ns)
    monkeypatch.setattr(hyperff, "_fd_vec", ns["_fd_vec"])
    assert not all(_galois_holds(f, *c, u, WALK_SIDES[c[0].id]) for c in cases)


def test_a_zech_entry_off_by_one_breaks_frobenius_only():
    shared = _field(64)
    zech = shared.zech_table
    bad = copy.copy(shared)  # a fresh table: the shared one is never touched
    Z = list(zech)
    Z[5] = (Z[5] + 1) % bad.n_chars
    bad.zech_table = tuple(Z)
    bad.zech_array = np.array(Z * 2)  # the array walks' copy of the same table
    rng = random.Random(64)
    cases = list(_cases(bad, 3))
    assert all(_galois_holds(bad, *c, _unit(rng, 63)) for c in cases)
    assert not all(_frobenius_holds(bad, *c) for c in cases)
    assert _field(64) is shared and shared.zech_table is zech and zech[5] != Z[5]
