"""The per-assignment list loops that hyperff's walks replaced, kept as the
tests' oracles: the F_D walk (_fd_list), t3.ff-beta's double walk
(_beta_list) and the walk's terms at a slope (_walk_terms_list), each one
Python loop over u = g^i, 1 - u = g^Z[i], for one assignment.  hyperff's
_fd_vec, _beta_vec and _walk_terms, which build the same counts and terms
from the exponent column of _exponents as int64 array passes, are compared
with them in test_packed.py and test_covariance.py.  The vanishing test's
loop over a list of Python ints (_list_vanishes), which cyclo.vanishes's
row passes replaced, is the oracle of test_cyclo.py and of the list check
in test_identities.py."""

from operator import add

from ffhyper import cyclo
from ffhyper.ff_core import FieldTable


def _list_vanishes(n: int, vec) -> bool:
    """cyclo.vanishes on one length-n vector as a loop over a list of Python
    ints: one cyclic shift-and-subtract per prime p | n."""
    v = list(vec)
    if len(v) != n:
        raise ValueError(f"expected a length-{n} vector, got length {len(v)}")
    for p in cyclo._prime_divisors(n):
        s = n // p
        v = [a - b for a, b in zip(v[-s:] + v[:-s], v)]
    return not any(v)


def _fd_list(f: FieldTable, mA: int, mBs, mC: int, xs, *, e0: int = 0, s: int = 1,
             out: list[int] | None = None) -> list[int]:
    """_fd_vec as one loop over u, for one assignment."""
    N, Z = f.n_chars, f.zech_table
    if out is None:
        out = [0] * N
    if s == 0 or 0 in xs:
        return out
    mA %= N
    mAC = (mC - mA) % N
    e0 += (mA + mC) * f.log_neg1
    if not mBs:  # n = 0: no B-slot, so no term is zero
        for i in range(1, N):
            out[(e0 + mA * i + mAC * Z[i]) % N] += s
        return out
    slots = [(-mb % N, f.log_table[x]) for mb, x in zip(mBs, xs)]
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


def _beta_list(f: FieldTable, mA: int, mBs, mC: int, xs) -> list[int]:
    """_beta_vec as one loop over u.  Only x_m moves with u, so the term at
    u = g^i, v = g^k has exponent c(i) + b(k) + z(log x_m + k), with

        b(k) = A k + (C - A) Z[k] - sum_{j>=3} B_j Z[log x_j + k]  (built once)
        z(k) = -(B_1 + B_2) Z[k]  (built once, doubled: a rotation is a slice)
        c(i) = (A + C) log(-1) + B_1 i + B_2 Z[i]  (one per u).

    A factor 1 - x v = 0 makes b(k) or z(k) dead: D = 3N lifts any sum with a
    dead part to 3N or more, which no live sum (c, b, z each reduced mod N)
    reaches."""
    N, Z, L = f.n_chars, f.zech_table, f.log_table
    if 0 in xs:
        return [0] * N
    D = 3 * N
    mA %= N
    mAC = (mC - mA) % N
    fixed = [(-mb % N, L[x]) for mb, x in zip(mBs[2:], xs[2:])]
    base = []  # b(k) at k = 1..N-1
    for k in range(1, N):
        b = mA * k + mAC * Z[k]
        for mb, lx in fixed:
            z = Z[(lx + k) % N]  # log(1 - x_j v); -1 where x_j v = 1
            if z < 0:
                base.append(D)
                break
            b += mb * z
        else:
            base.append(b % N)
    mm = -(mBs[0] + mBs[1]) % N
    col = [D if z < 0 else mm * z % N for z in Z] * 2
    c0 = (mA + mC) * f.log_neg1
    x1, x2 = xs[0], xs[1]
    l2 = L[x2]
    # x_m = x_2 (1 - u (x_2 - x_1)/x_2): log x_m = l2 + Z[i + d], and x_m = 0
    # where that Zech entry is -1; x_m = x_2 at every u when x_1 = x_2
    d = None if x1 == x2 else L[f.sub(x2, x1)] - l2
    acc = [0] * (7 * N)  # pair sums c + b + z, dead ones at 3N and above
    for i in range(1, N):
        lm = l2
        if d is not None:
            z = Z[(i + d) % N]
            if z < 0:
                continue
            lm = (l2 + z) % N
        c = (c0 + mBs[0] * i + mBs[1] * Z[i]) % N
        for e in map(add, base, col[lm + 1:lm + N]):
            acc[c + e] += 1
    return [a + b + c for a, b, c in zip(acc[:N], acc[N:2 * N], acc[2 * N:D])]


def _walk_terms_list(f: FieldTable, mA: int, mBs, mC: int, xs, dA: int, dBs, dC: int,
                     k=0, w=True):
    """The terms of the F_D walk at the characters A chi^(theta dA), B_j
    chi^(theta dB_j), C chi^(theta dC), twisted by zeta^(theta k), as (e, d)
    pairs of exponent e + theta d.  A term's exponent is linear in the
    characters, so e is the walk's exponent at (A, B, C) and d its exponent
    at the slope (dA, dB, dC), plus k.  At n = 0 the walk at (b, b) with slope
    (1, 0) is {chi^b theta choose theta} = {chi^(b + theta) choose chi^b}.
    A B-slot at slope 0 adds nothing to d and skips its product.  w is a
    weight on every term: False lists none."""
    N, Z, l1 = f.n_chars, f.zech_table, f.log_neg1
    e0, d0 = (mA + mC) * l1, (dA + dC) * l1 + k
    if not w or 0 in xs:
        return []
    mAC, dAC = mC - mA, dC - dA
    if not xs:  # no B-slot, so no term is zero
        return [(e0 + mA * i + mAC * Z[i], d0 + dA * i + dAC * Z[i]) for i in range(1, N)]
    slots = [(-mb, -db, f.log_table[x]) for mb, db, x in zip(mBs, dBs, xs, strict=True)]
    out = []
    for i in range(1, N):
        z = Z[i]
        e, d = e0 + mA * i + mAC * z, d0 + dA * i + dAC * z
        for mb, db, lx in slots:
            z = Z[(lx + i) % N]  # log(1 - x_j u); -1 where x_j u = 1
            if z < 0:
                break
            e += mb * z
            if db:
                d += db * z
        else:
            out.append((e, d))
    return out
