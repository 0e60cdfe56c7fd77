"""Sampled mode's draws: one rng.randrange(N) or randrange(q) per slot, one
draw at a time (sample_draws), or the same draws as int64 columns read from
the raw word stream of the report's random.Random (sample_columns; a
Mersenne-Twister, Matsumoto and Nishimura, ACM TOMACS 8(1), 1998).

The columns are exactly sample_draws's draws, which identities._run_one
takes for large fields and past the int64 bound: CPython's
randrange(m) is getrandbits(k), k = m.bit_length(), drawn again while it is
>= m; getrandbits(k) for k <= 32 is one 32-bit word >> (32 - k); and
getrandbits(32 W), as 4 W little-endian bytes, is the next W words in order.
Reading words past the last draw is safe: each report seeds its own rng and
drops it when the sample is complete.
"""

from __future__ import annotations

import math
import random
from collections import Counter

import numpy as np

from .errors import SamplingGaveUp

# Fresh Mersenne-Twister words per chunk of a sample at most: bounds the
# memory of a sample that draws far more than it accepts.
_CHUNK_WORDS = 1 << 13


def sample_draws(rng: random.Random, desc, q: int, n: int, count: int):
    """Draws of sampled mode one at a time, up to the `count`-th that violates
    no constraint (desc.violated), each yielded with the running tested and
    excluded counts; SamplingGaveUp after count * 1000 + 1000 draws, naming
    the constraint that rejected most of them."""
    nc, ne = desc.chars(n), desc.elems(n)
    cap, tested, excluded, rejected = count * 1000 + 1000, 0, 0, {}
    while tested < count:
        if tested + excluded >= cap:
            worst = max(rejected, key=rejected.get)
            raise SamplingGaveUp(cap, tested, count, worst, rejected[worst])
        cs = tuple(rng.randrange(q - 1) for _ in range(nc))
        es = tuple(rng.randrange(q) for _ in range(ne))
        if (name := desc.violated(cs, es)) is not None:
            rejected[name] = rejected.get(name, 0) + 1
            excluded += 1
            continue
        tested += 1
        yield cs, es, tested, excluded


def _slot_words(nxt, mods, starts):
    """Per slot, the word it takes in each draw that starts at a word of
    `starts`: the first one past the previous slot's word that the slot's
    modulus accepts (nxt[m]: the first accepted word at or after each word)."""
    last = starts - 1
    for m in mods:
        last = nxt[m][last + 1]
        yield last


def _chunk_draws(words, mods):
    """The draws that `words` holds whole, from its first word on, as one
    column of values per slot (slot m's value is word >> (32 - k), k =
    m.bit_length()), and the words of the first draw it cuts short.
    Per modulus m, nxt[m][i] is the first word at or after i whose value is
    below m (a reversed running minimum, W past the last word); the draw
    that starts at word s ends past its last slot's word (_slot_words), so
    every word's draw end is one pass of gathers, and the draws are the
    chain of ends from word 0."""
    W = len(words)
    val, nxt = {}, {}
    for m in set(mods):
        val[m] = v = words >> (32 - m.bit_length())
        at = np.append(np.where(v < m, np.arange(W), W), (W, W))
        nxt[m] = np.minimum.accumulate(at[::-1])[::-1]
    for last in _slot_words(nxt, mods, np.arange(W + 1)):  # of the draw from each word
        pass
    ends = memoryview(last + 1)  # past W where the draw runs past the chunk
    starts, s = [], 0
    while ends[s] <= W:
        starts.append(s)
        s = ends[s]
    slots = _slot_words(nxt, mods, np.array(starts, dtype=np.int64))
    cols = np.array([val[m][w] for m, w in zip(mods, slots)], dtype=np.int64)
    return cols.reshape(len(mods), len(starts)), words[s:].copy()


def _accept_rate(desc, mods, nc: int) -> float:
    """The share of draws (slots of moduli `mods`, the nc characters first)
    that violate no constraint: per slot, its modulus less the distinct
    values below it that the constraint entries forbid there."""
    forbidden = [set() for _ in mods]
    for _, kind, slots, value in desc.constraints:
        for i in (range(nc) if kind == "chars" else range(nc, len(mods)))[slots]:
            forbidden[i].add(value)
    live = math.prod(m - sum(0 <= v < m for v in f) for m, f in zip(mods, forbidden))
    return live / math.prod(mods)


def sample_columns(rng: random.Random, desc, q: int, n: int, count: int):
    """The draws of sampled mode's per-draw loop, up to its `count`-th
    accepted one, read from rng's raw 32-bit words a chunk of at most
    _CHUNK_WORDS fresh words at a time.  Yields, per chunk, its accepted draws as (slots, rows) int64
    columns (the characters, then the points) with the running tested and
    excluded counts and the rejections per constraint name, in the order of
    each name's first rejection; raises SamplingGaveUp at the loop's attempt
    and with its text.  A draw that runs past a chunk's end carries its
    words into the next chunk; a draw's rejection is its first violated
    constraint (desc.first_violated), as desc.violated's."""
    mods = [q - 1] * desc.chars(n) + [q] * desc.elems(n)
    cap = count * 1000 + 1000
    # a chunk holds about 1.1 times the words that the rest of the sample
    # needs: a slot reads 2^k / m words per value, and a draw is accepted
    # with the probability of landing in every slot's domain
    per_draw = sum((1 << m.bit_length()) / m for m in mods)
    accept = _accept_rate(desc, mods, desc.chars(n))
    tested = excluded = 0
    rejected: dict[str, int] = {}
    carry = np.empty(0, dtype=np.uint32)
    while True:
        need = (count - tested) * per_draw / accept if accept else _CHUNK_WORDS
        size = min(_CHUNK_WORDS, int(1.1 * need) + 8 * len(mods))
        cols, carry = _chunk_draws(np.concatenate((carry, np.frombuffer(
            rng.getrandbits(32 * size).to_bytes(4 * size, "little"), "<u4"))), mods)
        first = desc.first_violated(n, cols)
        ok = first == len(desc.constraints)
        # cut at the count-th accepted draw or at the attempt cap
        cut = min(int(np.searchsorted(np.cumsum(ok), count - tested)) + 1, cols.shape[1],
                  cap - tested - excluded)
        ok, first = ok[:cut], first[:cut]
        took = int(ok.sum())
        tested, excluded = tested + took, excluded + cut - took
        for i, k in Counter(first[~ok].tolist()).items():  # in order of first rejection
            name = desc.constraints[i][0]
            rejected[name] = rejected.get(name, 0) + k
        if tested < count and tested + excluded >= cap:
            worst = max(rejected, key=rejected.get)
            raise SamplingGaveUp(cap, tested, count, worst, rejected[worst])
        cols = cols[:, :cut][:, ok]  # hold only these while the caller decides them
        yield cols, tested, excluded, dict(rejected)
        if tested == count:
            return
