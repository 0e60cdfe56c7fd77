import dataclasses
import hashlib
import inspect
import itertools
import json
import math
import random
import textwrap
import time
import tracemalloc

import numpy as np
import pytest

from ffhyper import cyclo, errors, ff_core, hyperff, identities, sampling
from ring_oracles import add, from_int
from walk_oracles import _list_vanishes

ALL_IDS = [d.id for d in identities.list_identities()]

EXPECTED_IDS = [
    "t2.1",
    "t3.ff-beta", "t3.ksum",
    "t4.eps-reduce", "t4.c-eq-a", "t4.one-minus-x", "t4.pfaff",
    "t4.last-pivot", "t4.reduce-c35", "t4.pivot2", "t4.reduce-c37",
    "t4.eval-equal-x", "t4.eval-xn1", "t4.eval-all1", "t4.c62", "t4.c63",
    "t5.gf1", "t5.gf2", "t5.gf3",
    "p2.f2", "p2.f3", "p2.f4-eps", "p2.f4-self", "p2.prod",
    "p2.binthm", "p2.linesum",
]


def test_registry_contents():
    assert ALL_IDS == EXPECTED_IDS
    assert len(ALL_IDS) == 26
    for d in identities.list_identities():
        assert d.note
        assert identities.get_identity(d.id) is d


def test_unknown_identity():
    with pytest.raises(errors.UnknownIdentity):
        identities.get_identity("t9.nope")
    with pytest.raises(errors.UnknownIdentity):
        identities.verify("t9.nope", [5])


def test_sampled_mode_rejects_a_vacuous_count():
    for count in (0, -3):
        with pytest.raises(ValueError, match="count >= 1"):
            identities.verify("p2.f2", [5], mode="sampled", count=count)
    (r,) = identities.verify("p2.f2", [5], mode="exhaustive", count=0)  # unused there
    assert r.tested == 16


def test_definition_vs_charsum_counts():
    (r,) = identities.verify("t2.1", [5], n_list=[1])
    assert r.ok
    assert r.failures == ()
    assert r.tested == 4 ** 3 * 5  # all (A,B1,C) triples times all x
    assert r.excluded == 0
    assert r.mode == "exhaustive"


def test_exhaustive_spot_runs():
    for ident, q, n in [("t4.eval-all1", 7, 2), ("t5.gf1", 4, 1),
                        ("t3.ksum", 4, 2), ("p2.prod", 7, 0)]:
        (r,) = identities.verify(ident, [q], n_list=[n])
        assert r.ok and r.tested > 0, (ident, r.to_dict())


def test_excluded_accounting():
    # pfaff rewrites x -> x/(x-1): assignments with any x = 1 sit outside
    (r,) = identities.verify("t4.pfaff", [5], n_list=[1])
    assert r.tested == 4 ** 3 * 4
    assert r.excluded == 4 ** 3
    assert r.ok


def test_n_range_enforced():
    with pytest.raises(ValueError):
        identities.verify("t3.ff-beta", [5], n_list=[1])  # needs n >= 2
    with pytest.raises(ValueError):
        identities.verify("p2.f2", [5], n_list=[1])  # fixed at n = 0


def test_field_cap_is_checked_before_factoring():
    # 4097 = 17 * 241 is not a prime power, but above the cap that is not
    # looked at: every oversized order is TooLarge, and none is factored
    cyclo._prime_divisors.cache_clear()
    for q, max_q in ((4097, None), (4099, None), (100000000000031, None), (9, 8)):
        with pytest.raises(errors.TooLarge):
            identities.verify("p2.f2", [q], max_q=max_q)
    assert cyclo._prime_divisors.cache_info().currsize == 0


@pytest.mark.parametrize("max_q", [0, -5])
def test_max_q_must_be_a_positive_integer(max_q):
    with pytest.raises(ValueError, match=f"max_q must be a positive integer, got {max_q}"):
        identities.verify("p2.f2", [8], max_q=max_q)
    (r,) = identities.verify("p2.f2", [8], max_q=8)
    assert r.ok and r.tested == 49


def _field(q):
    return ff_core.build_field(*ff_core.split_prime_power(q))


@pytest.mark.parametrize("q_list, kwargs, error, message", [
    ([3, 4], dict(n_list=[0, 1]), ValueError, "identity p2.f2 does not allow n=1"),
    ([3, 4], dict(mode="bogus"), ValueError, "unknown mode 'bogus'"),
    ([3, 6], dict(), ValueError, "6 is not a prime power"),
    ([3, 9], dict(max_q=8), errors.TooLarge, "field order 9 exceeds the configured maximum 8"),
    ([3, 4], dict(cap=-5), ValueError, "cap must be a positive integer, got -5"),
    ([3, 4], dict(cap=0, mode="boundary"), ValueError, "cap must be a positive integer, got 0"),
    ([3, 4], dict(cap=0, mode="sampled"), ValueError, "cap must be a positive integer, got 0"),
    ([3, 4], dict(cap=2.5), ValueError, "cap must be a positive integer, got 2.5"),
    ([3, 4], dict(mode="sampled", count=2.5), ValueError,
     "sampled mode needs an integer count >= 1, got 2.5"),
    ([3, 4], dict(mode="sampled", count=float("inf")), ValueError,
     "sampled mode needs an integer count >= 1, got inf"),
    ([3, 4], dict(n_list=[0.0]), ValueError, "n must be an integer, got 0.0"),
    ([3, 4], dict(n_list=[0, "0"]), ValueError, "n must be an integer, got '0'"),
    ([3, 5.0], dict(), ValueError, "q must be an integer, got 5.0"),
    ([3, 4], dict(n_list=[True]), ValueError, "n must be an integer, got True"),
    ([3, 4], dict(mode="sampled", count=True), ValueError,
     "sampled mode needs an integer count >= 1, got True"),
    ([3, 4], dict(cap=True), ValueError, "cap must be a positive integer, got True"),
    ([3, 4], dict(mode="sampled", seed=1.5), ValueError, "seed must be an integer, got 1.5"),
    (5, dict(), ValueError, "q_list must be a list, got 5"),
    ([5], dict(n_list=1), ValueError, "n_list must be a list, got 1"),
], ids=["n", "mode", "prime-power", "cap", "slot-cap-negative", "slot-cap-zero-boundary",
        "slot-cap-zero-sampled", "slot-cap-float", "count-float", "count-inf", "n-float",
        "n-str", "q-float", "n-bool", "count-bool", "cap-bool", "seed-float", "q_list-int",
        "n_list-int"])
def test_verify_checks_the_whole_request_before_any_report(monkeypatch, q_list, kwargs,
                                                           error, message):
    runs = []
    monkeypatch.setattr(identities, "_run_one", lambda *a, **k: runs.append(a))
    with pytest.raises(error) as info:
        identities.verify("p2.f2", q_list, **kwargs)
    assert str(info.value) == message
    assert not runs


def test_cap_exceeded():
    with pytest.raises(errors.CapExceeded):
        identities.verify("t2.1", [5], n_list=[2], cap=100)


@pytest.mark.parametrize("mode", ["exhaustive", "boundary"])
def test_slot_space_cap_is_checked_before_any_report(monkeypatch, mode):
    # (3, 1), (3, 2) and (5, 1) fit in 1000 assignments, (5, 2) has 4^4 5^2
    runs = []
    monkeypatch.setattr(identities, "_run_one", lambda *a, **k: runs.append(a))
    with pytest.raises(errors.CapExceeded) as info:
        identities.verify("t2.1", [3, 5], mode=mode, n_list=[1, 2], cap=1000)
    assert (info.value.size, info.value.cap) == (6400, 1000)
    assert not runs
    # sampled mode draws a count, not the slot space: the cap does not apply
    identities.verify("t2.1", [3, 5], mode="sampled", n_list=[1, 2], cap=1000)
    assert len(runs) == 4


CAP_QS = [2, 3, 4, 5, 7, 8, 9, 16, 17, 256, 4096]
CAPS = [1, 2, 1000, 10**7, 2**63, 2**64, 2**65, 2**200]


@pytest.mark.parametrize("cap", CAPS)
def test_the_cap_check_agrees_with_the_exact_slot_space(monkeypatch, cap):
    # the bit-length bounds decide as the exact comparison, give the exact
    # size wherever it is below 2^64, and otherwise a 2^bits between cap and it
    monkeypatch.setattr(identities, "_run_one", lambda *a, **k: None)
    desc = identities.get_identity("t4.pfaff")
    for q in CAP_QS:
        for n in range(1, 41):
            size = desc.slot_space(q, n)
            if size <= cap:
                identities.verify("t4.pfaff", [q], n_list=[n], cap=cap)
                continue
            with pytest.raises(errors.CapExceeded) as info:
                identities.verify("t4.pfaff", [q], n_list=[n], cap=cap)
            got = info.value
            assert got.cap == cap and (got.size == size or got.size is None), (q, n)
            if size < 2**64:
                assert got.size == size, (q, n)
            if got.size is None:
                bits = int(str(got).split("at least 2^")[1].split()[0])
                assert cap < 2**bits <= size, (q, n)


def test_the_cap_check_builds_no_number_far_past_the_cap():
    # 2^(n + 2) 3^n at n = 2^31 has about 1.7 billion digits: the check
    # decides from bit lengths and names the cap in a short message (the CLI
    # test takes n = 5000, 6000 and 10^7)
    t0 = time.perf_counter()
    with pytest.raises(errors.CapExceeded) as info:
        identities.verify("t4.pfaff", [3], n_list=[2**31])
    assert time.perf_counter() - t0 < 1.0
    assert info.value.size is None and info.value.cap == identities.DEFAULT_CAP
    assert str(info.value) == (f"exhaustive domain has at least 2^{2**32 + 2} assignments, "
                               f"above the cap {identities.DEFAULT_CAP}; use sampled mode")


def test_sampled_memory_does_not_grow_with_the_count():
    # every sample's sides are fresh lists and nothing is kept between
    # samples, so the traced peak of 8 samples is that of 1
    ff_core.build_field(2, 8)
    peaks = []
    for count in (1, 8):
        tracemalloc.start()
        identities.verify("t2.1", [256], "sampled", n_list=[1], count=count)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert peaks[1] - peaks[0] < 64 * 1024, peaks


def test_corrupt_rhs_is_detected_everywhere():
    # +1 on the right-hand side must break every tested assignment
    (r,) = identities.verify("p2.f2", [5], corrupt_rhs=True)
    assert not r.ok
    assert r.tested == 16
    assert len(r.failures) == 16
    entry = r.failures[0]
    assert set(entry) == {"q", "n", "chars", "elems", "lhs", "rhs"}
    # rhs denominator q-1, and large N where the vanishing test decides
    for ident, q, n, mode in [("t3.ksum", 4, 1, "exhaustive"),
                              ("p2.f4-eps", 4096, 0, "sampled"),
                              ("t4.eps-reduce", 4096, 2, "sampled")]:
        (r,) = identities.verify(ident, [q], mode=mode, n_list=[n], count=2,
                                 corrupt_rhs=True)
        assert r.tested > 0 and len(r.failures) == r.tested, (ident, q)


def _draws(desc, f, n, k, rng):
    """k seeded assignments of `desc` on f's field that meet its constraints."""
    out = []
    while len(out) < k:
        cs = tuple(rng.randrange(f.n_chars) for _ in range(desc.chars(n)))
        es = tuple(rng.randrange(f.q) for _ in range(desc.elems(n)))
        if desc.violated(cs, es) is None:
            out.append((cs, es))
    return out


def _cases():
    """(descriptor, context, n, cs, es): three draws per identity at its least
    n, on q = 4 and q = 7, each q with one context shared by every draw."""
    rng = random.Random(26)
    for q in (4, 7):
        f = _field(q)
        for desc in identities.list_identities():
            for cs, es in _draws(desc, f, desc.n_min, 3, rng):
                yield desc, f, desc.n_min, cs, es


def _sides_are_fresh_rows():
    """Each side, called twice, is a length-N int64 row both times, with the
    same entries, and no two of the four rows share memory."""
    for desc, f, n, cs, es in _cases():
        sides = [side(f, n, cs, es) for side in (desc.lhs, desc.rhs) for _ in range(2)]
        if not all(type(v) is np.ndarray and v.shape == (f.n_chars,) and v.dtype == np.int64
                   for v in sides):
            return False
        l1, l2, r1, r2 = sides
        if l1.tolist() != l2.tolist() or r1.tolist() != r2.tolist():
            return False
        if any(np.shares_memory(a, b) for a, b in itertools.combinations(sides, 2)):
            return False
    return True


def _corrupt_then_honest_checks():
    """Each draw fails its corrupt check and then passes its honest one."""
    for desc, f, n, cs, es in _cases():
        if identities._check(desc, f, n, cs, es, True)[0]:
            return False
        if not identities._check(desc, f, n, cs, es, False)[0]:
            return False
    return True


def test_every_side_is_a_fresh_row():
    # every identity side, p2.f2-f4 included, is a length-N int64 row of its own
    assert _sides_are_fresh_rows()


def test_a_corrupt_check_leaves_the_next_honest_check_alone():
    # _check adds d to the rhs it was handed, so that rhs must be this call's
    assert _corrupt_then_honest_checks()


def test_a_cached_binomial_list_is_caught(monkeypatch):
    # an n = 0 walk that hands out one memoized row per binomial (A, B)
    # shares that row between calls: both checks above must see it
    honest = hyperff._fd_vec
    memo = {}

    def cached(f, ma, mBs, mb, xs, **kw):
        if mBs or kw:  # not a fresh binomial
            return honest(f, ma, mBs, mb, xs, **kw)
        key = (f.q, ma % f.n_chars, mb % f.n_chars)
        if key not in memo:
            memo[key] = honest(f, ma, mBs, mb, xs)
        return memo[key]

    assert _sides_are_fresh_rows() and _corrupt_then_honest_checks()
    with monkeypatch.context() as m:
        m.setattr(hyperff, "_fd_vec", cached)
        assert not _sides_are_fresh_rows()
        memo.clear()
        assert not _corrupt_then_honest_checks()
    assert _sides_are_fresh_rows() and _corrupt_then_honest_checks()


def test_failure_replay_round_trip():
    (r,) = identities.verify("t2.1", [5], n_list=[1], corrupt_rhs=True)
    assert len(r.failures) == r.tested == 320
    # failure text is canonical lhs and rhs / (q-1)^n + 1; pinned byte for byte
    text = json.dumps([dict(x) for x in r.failures], sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == (
        "ebc2559a13c6c82fe00c90460ccadcdb5b4ad2a015c57d8120757066ea8c145e")
    for bad in (dict(r.failures[0]), dict(r.failures[-1])):
        lhs, rhs, equal = identities.replay("t2.1", bad)
        assert equal  # honest evaluation agrees
        lhs2, rhs2, equal2 = identities.replay("t2.1", bad, corrupt_rhs=True)
        assert not equal2
        assert str(lhs) == str(lhs2) == bad["lhs"]
        assert str(rhs2) == bad["rhs"]
        assert rhs2 == add(rhs, from_int(4, 1))


@pytest.mark.parametrize("elems", [[7], [-3], [5], [-1]])
def test_replay_rejects_out_of_range_points(elems):
    # an element is an index 0 <= x < q, not a residue: 7 and -3 are not 2
    with pytest.raises(ValueError, match=f"element index {elems[0]} out of range for q=5"):
        identities.replay("t2.1", {"q": 5, "n": 1, "chars": [0, 1, 2], "elems": elems})
    # character exponents are still read mod q - 1
    a = identities.replay("t2.1", {"q": 5, "n": 1, "chars": [0, 1, 2], "elems": [2]})
    b = identities.replay("t2.1", {"q": 5, "n": 1, "chars": [4, -3, 6], "elems": [2]})
    assert a == b and a[2]


@pytest.mark.parametrize("key, value, message", [
    ("q", 5.9, "q must be an integer, got 5.9"),
    ("n", 1.2, "n must be an integer, got 1.2"),
    ("n", True, "n must be an integer, got True"),
    ("chars", [0, 1.7, 2], "character exponent must be an integer, got 1.7"),
    ("elems", [2.0], "elems entry must be an integer, got 2.0"),
    ("elems", [True], "elems entry must be an integer, got True"),
    ("elems", 3, "elems must be a list, got 3"),
    ("chars", 4, "chars must be a list, got 4"),
])
def test_replay_rejects_non_integer_entries(key, value, message):
    # no entry is truncated or read as an integer: 5.9 is not q = 5
    assignment = {"q": 5, "n": 1, "chars": [0, 1, 2], "elems": [2], key: value}
    with pytest.raises(ValueError) as info:
        identities.replay("t2.1", assignment)
    assert str(info.value) == message


def test_replay_validates_shape():
    with pytest.raises(ValueError, match="^assignment has no 'elems' entry$"):
        identities.replay("t2.1", {"q": 5, "n": 1, "chars": [0, 1, 2]})
    with pytest.raises(ValueError, match="^assignment must be a dict, got list$"):
        identities.replay("t2.1", [5, 1, [0, 1, 2], [2]])
    with pytest.raises(ValueError):
        identities.replay("t2.1", {"q": 5, "n": 1, "chars": [1], "elems": [2]})
    with pytest.raises(ValueError):
        identities.replay("t2.1", {"q": 5, "n": 1, "chars": [0, 1, 2],
                                   "elems": [2, 3]})
    # the identity's n range, as verify checks it: t3.ff-beta needs n >= 2
    # and p2.f2 allows only n = 0, whatever the assignment's shape
    with pytest.raises(ValueError, match="does not allow n=1"):
        identities.replay("t3.ff-beta", {"q": 5, "n": 1, "chars": [1, 2, 3],
                                         "elems": [2]})
    with pytest.raises(ValueError, match="does not allow n=3"):
        identities.replay("p2.f2", {"q": 5, "n": 3, "chars": [1, 2], "elems": []})


def test_sampled_mode_is_deterministic():
    a = identities.verify("t4.pivot2", [13], mode="sampled", n_list=[2],
                          seed=7, count=40)
    b = identities.verify("t4.pivot2", [13], mode="sampled", n_list=[2],
                          seed=7, count=40)
    assert [r.to_dict() for r in a] == [r.to_dict() for r in b]
    c = identities.verify("t4.pivot2", [13], mode="sampled", n_list=[2],
                          seed=8, count=40)
    assert a[0].ok and c[0].ok
    assert a[0].tested == c[0].tested == 40


def test_boundary_mode_reports_but_never_fails():
    # gf1 outside t != 1: mismatches are recorded, failures stay empty
    (r,) = identities.verify("t5.gf1", [5], mode="boundary", n_list=[1])
    assert r.mode == "boundary"
    assert r.failures == ()
    assert r.mismatches is not None and r.mismatches > 0
    d = r.to_dict()
    assert "mismatches" in d and "undefined" in d
    # pfaff boundary points all hit a division by zero
    (r2,) = identities.verify("t4.pfaff", [5], mode="boundary", n_list=[1])
    assert r2.tested == 0
    assert r2.undefined == 64


def test_report_serialization():
    (r,) = identities.verify("p2.linesum", [5])
    d = r.to_dict()
    assert list(d) == ["id", "q", "n", "mode", "seed", "tested", "excluded",
                       "failures", "ms"]
    assert d["ms"] == 0  # timings off by default
    dt = r.to_dict(timings=True)
    assert dt["ms"] >= 0


def test_multi_q_multi_n():
    rs = identities.verify("t4.eps-reduce", [3, 4], n_list=[1, 2])
    assert [(r.q, r.n) for r in rs] == [(3, 1), (3, 2), (4, 1), (4, 2)]
    assert all(r.ok for r in rs)


# One SHA-256 per identity over its raw sides: every lhs and rhs vector, or
# the name of the exception a side raises, at every assignment of the
# exhaustive slot space (constraints ignored) for q in {3, 4, 5} and each
# allowed n <= 2.  A refactor of the sums must leave every byte of them.
RAW_SIDE_PINS = {
    "t2.1": "bb8954905a82ac487b341234961abdd6a645408923b949fc1250bcf44b84fef5",
    "t3.ff-beta": "d4749c845953328cda1be4462087ac6c764a276aef87bd9cf0c239b7c54c3766",
    "t3.ksum": "abc2162362f7766c765e0a93afc6db7b27c3974592cb9cd3173d3ca05942c9af",
    "t4.eps-reduce": "399eabdedd8cc2f05b3bba88d190648e23f66ebf7a5688363703e4d5f4b4600e",
    "t4.c-eq-a": "ed61863ea98b30d0a93fea3bdb950708d00891003bd345be469f508834014868",
    "t4.one-minus-x": "9c02a824d3ed964d99c6709f443b01695477d54e43568110db2027c9a5fc4f23",
    "t4.pfaff": "f097ca7bef96f6d807f9c83451ae6a3a2a19ae5e86072defea3011b7ab0db488",
    "t4.last-pivot": "c9986cf31f4a9663856268dd5e8046d6e9da7b6ed1fe8dc93ffe8312b44c205e",
    "t4.reduce-c35": "691e75cbd88004320dcc03709270a351575619622b01751ac97b60e23d65c90c",
    "t4.pivot2": "cc59d3641b59753d5d950fac17acacb1dc4f9e0377aacf82ce1c42d8b3135811",
    "t4.reduce-c37": "19d91e8aab4931a097f8b6cab987dae4553cef4fe8b7b0bfe8b7632cf77cbca6",
    "t4.eval-equal-x": "82f4875539e8ace428a55ae2ad4752f0955b834812f34bc85633713e2264625b",
    "t4.eval-xn1": "e72f1c9c21201f66026503af166a5395245f2ad6bcce5faf082a921e022b80c1",
    "t4.eval-all1": "70656738581e5525c9f3d8704b53ce8a25fed3056af23035f2eaf863cea32a4f",
    "t4.c62": "ff3b2de327b3f24bbf982a7b92ef3933f115c3e4967930f0d148c4185a7713c1",
    "t4.c63": "b23483298bb318bd2e20db910723e4576a49af42ac5e4e3c94cb04fbe2ff5c7d",
    "t5.gf1": "df101a6ed264112bca1704b21a1cdd4b9f54a39abe1324d9dcd30ec2390fb70d",
    "t5.gf2": "be96031a8756676b5979670167ff752bf46e894f7627c172c4c82e8956ef0215",
    "t5.gf3": "387c3c4bdf1dd98aac6004a9ec95c4226886983ad4dbaaf066b2dfac7e74bf6c",
    "p2.f2": "56d4f806048b5f565fda5ddaaf8ff14207515dda919a871b25a4dad4b4ddfa8c",
    "p2.f3": "56d4f806048b5f565fda5ddaaf8ff14207515dda919a871b25a4dad4b4ddfa8c",
    "p2.f4-eps": "9239909f9cb5a5c87f79819f3c05f6f454bcbd98acdf44e79ad07cad19379d9f",
    "p2.f4-self": "9239909f9cb5a5c87f79819f3c05f6f454bcbd98acdf44e79ad07cad19379d9f",
    "p2.prod": "23d18d6b635e0ec2eda9b8417d7146fd002a6a81d7e02eb7d5fdc274c1168e82",
    "p2.binthm": "c522c6ce14f303424efb0c36114a126c260364cfbf437a61448da690ac68eaea",
    "p2.linesum": "35967bd1edf4004f038683e4deedf16469dab9fac40ab14be7dbad07237bddf9",
}


def _raw_side(fn, f, n, cs, es) -> str:
    try:
        return repr(fn(f, n, cs, es).tolist())
    except Exception as exc:  # the exception's type is pinned too
        return type(exc).__name__


def _raw_sides_digest(desc, ns) -> str:
    h = hashlib.sha256()
    for q in (3, 4, 5):
        f = _field(q)
        for n in ns:
            for cs in itertools.product(range(f.n_chars), repeat=desc.chars(n)):
                for es in itertools.product(range(q), repeat=desc.elems(n)):
                    h.update(f"{q} {n} {cs} {es} {_raw_side(desc.lhs, f, n, cs, es)} "
                             f"{_raw_side(desc.rhs, f, n, cs, es)}\n".encode())
    return h.hexdigest()


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_raw_sides_are_pinned(ident):
    desc = identities.get_identity(ident)
    ns = [n for n in range(desc.n_min, 3) if desc.allows_n(n)]
    assert _raw_sides_digest(desc, ns) == RAW_SIDE_PINS[ident]


def test_ffbeta_raw_sides_are_pinned_at_n3():
    # t3.ff-beta at n = 3, hashed as above: the fixed slot B_3 at x_3, which
    # no n <= 2 pin reaches
    desc = identities.get_identity("t3.ff-beta")
    assert _raw_sides_digest(desc, [3]) == \
        "22dea41f27e37715681ca7e5f3ab111ff9e252918cc397a58fd95953e4301e20"


# SHA-256 of the seeded JSON reports of the theta-sum identities on a reduced
# gate grid: exhaustive at q <= 4 and 50 seeded samples at q = 7 and 13, each
# allowed n <= 2, honest and with --corrupt-rhs (whose failure entries render
# both sides).  Taken before the theta-sums became coset counts; a speedup
# may not change one byte of a seeded report.
SEEDED_REPORT_PINS = {
    "t3.ksum": "289ff214eeabf8c6fe79b31251f698919f8f94cbff86aea6d91c00b21b09ff48",
    "t5.gf1": "378042e8cc3ad67bdda16fa6ad66f20c995c25baaaa3582173af15d944367f93",
    "t5.gf2": "6dd4ccdeeca0b10680603f36131315bda291e0178a5db9c385e8f6b26f521f9a",
    "t5.gf3": "ffcfb40b2d912da55617c2436b06e5f52e62791ebd77c1f36910d5f50a507539",
    "p2.binthm": "e090af1c955fdfd39e589da0440667826c98399e332f9caefc7f42845c96fcc7",
    "p2.linesum": "1e0d98c30e51abfe28d6941f2a0eb7d70deccd58b027590a34ef28460621da43",
}


@pytest.mark.parametrize("ident", list(SEEDED_REPORT_PINS))
def test_seeded_reports_are_pinned(ident):
    desc = identities.get_identity(ident)
    ns = [n for n in (0, 1, 2) if desc.allows_n(n)]
    reports = []
    for corrupt in (False, True):
        reports += identities.verify(ident, [2, 3, 4], n_list=ns, corrupt_rhs=corrupt)
        reports += identities.verify(ident, [7, 13], mode="sampled", n_list=ns, seed=0,
                                     count=50, corrupt_rhs=corrupt)
    text = json.dumps([r.to_dict() for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == SEEDED_REPORT_PINS[ident]


# -- declared slot domains against the predicates they replaced ----------------------
# Each constraint was a predicate on (f, n, cs, es), and the engine called
# them all on every assignment it walked: exhaustive mode skipped the
# assignments one rejected, boundary mode kept only those.  The predicates and
# that loop stay here as the oracle of the declared slot domains.


def _c_b1_nontriv(f, n, cs, es):
    return cs[2] % f.n_chars != 0


def _c_b2_nontriv(f, n, cs, es):
    return cs[3] % f.n_chars != 0


def _c_xn_ne_1(f, n, cs, es):
    return es[n - 1] != 1


def _c_all_x_ne_1(f, n, cs, es):
    return all(x != 1 for x in es[:n])


def _c_t_ne_1(f, n, cs, es):
    return es[-1] != 1


PREDICATES = {
    "t3.ff-beta": (("B1 != eps", _c_b1_nontriv), ("B2 != eps", _c_b2_nontriv)),
    "t4.pfaff": (("all x_j != 1", _c_all_x_ne_1),),
    "t4.last-pivot": (("x_n != 1", _c_xn_ne_1),),
    "t4.reduce-c35": (("x_n != 1", _c_xn_ne_1),),
    "t4.pivot2": (("all x_j != 1", _c_all_x_ne_1),),
    "t4.reduce-c37": (("all x_j != 1", _c_all_x_ne_1),),
    "t5.gf1": (("t != 1", _c_t_ne_1),),
}


def _domains(desc, q, n) -> tuple[list, list]:
    """Each character and element slot's admissible values at (q, n): its
    full range less every value a constraint entry forbids there."""
    doms = {"chars": [range(q - 1)] * desc.chars(n), "elems": [range(q)] * desc.elems(n)}
    for _, kind, slots, value in desc.constraints:
        d = doms[kind]
        for i in range(len(d))[slots]:
            d[i] = [v for v in d[i] if v != value]
    return doms["chars"], doms["elems"]


def _list_decide(f, d, lv, rv) -> bool:
    """d * lv = rv in Z[zeta_N] for lists of Python ints, as identities._check
    decided it before its sides were rows: equal lists, else the list loop
    of the vanishing test on d * lv - rv."""
    dl = [d * x for x in lv] if d != 1 else lv
    return dl == rv or _list_vanishes(f.n_chars, [a - b for a, b in zip(dl, rv)])


def _list_check(desc, f, n, cs, es, corrupt: bool):
    """identities._check on lists of Python ints, the oracle of its shared
    decision step: (equal?, lhs, rhs), the rhs with d added at zeta^0 when
    corrupt."""
    lv, rv = desc.lhs(f, n, cs, es).tolist(), desc.rhs(f, n, cs, es).tolist()
    d = desc.den(f.q, n)
    if corrupt:
        rv[0] += d
    return _list_decide(f, d, lv, rv), lv, rv


def _oracle_run_one(desc, f, n, mode, seed, count, corrupt_rhs):
    """The engine loop over predicates, as it was before the slot domains,
    deciding each assignment by the list check."""
    N, q = f.n_chars, f.q
    nc, ne = desc.chars(n), desc.elems(n)
    tested = excluded = 0
    failures = []
    mismatches = undefined = None

    def violated(cs, es):
        for name, fn in PREDICATES.get(desc.id, ()):
            if not fn(f, n, cs, es):
                return name
        return None

    if mode == "sampled":
        rng = random.Random(f"{seed}:{desc.id}:{q}:{n}")
        attempts_cap = count * 1000 + 1000
        rejected = {}
        while tested < count:
            if tested + excluded >= attempts_cap:
                worst = max(rejected, key=rejected.get)
                raise errors.SamplingGaveUp(attempts_cap, tested, count, worst,
                                            rejected[worst])
            cs = tuple(rng.randrange(N) for _ in range(nc))
            es = tuple(rng.randrange(q) for _ in range(ne))
            name = violated(cs, es)
            if name is not None:
                rejected[name] = rejected.get(name, 0) + 1
                excluded += 1
                continue
            tested += 1
            ok, lv, rv = _list_check(desc, f, n, cs, es, corrupt_rhs)
            if not ok:
                failures.append(identities._fail_entry(desc, f, n, cs, es, lv, rv))
    else:
        boundary = mode == "boundary"
        if boundary:
            mismatches = undefined = 0
        for cs in itertools.product(range(N), repeat=nc):
            for es in itertools.product(range(q), repeat=ne):
                if (violated(cs, es) is None) == boundary:
                    excluded += 1
                    continue
                if not boundary:
                    tested += 1
                    ok, lv, rv = _list_check(desc, f, n, cs, es, corrupt_rhs)
                    if not ok:
                        failures.append(identities._fail_entry(desc, f, n, cs, es, lv, rv))
                    continue
                try:
                    ok, _, _ = _list_check(desc, f, n, cs, es, corrupt_rhs)
                except errors.FFHyperError:
                    undefined += 1
                    continue
                tested += 1
                mismatches += not ok

    failures.sort(key=lambda d: (d["chars"], d["elems"]))
    return identities.TheoremReport(
        id=desc.id, q=q, n=n, mode=mode, seed=seed if mode == "sampled" else None,
        tested=tested, excluded=excluded, failures=tuple(failures), ms=0.0,
        mismatches=mismatches, undefined=undefined)


def _outcome(run, desc, q, n, mode, seed=0, count=0, corrupt_rhs=False) -> str:
    """The report's JSON, or the type and message of the error it raised."""
    try:
        return json.dumps(run(desc, _field(q), n, mode, seed, count, corrupt_rhs).to_dict())
    except errors.FFHyperError as exc:
        return f"{type(exc).__name__}: {exc}"


def _matches_oracle(desc, qs, modes, n_max=2, **kw) -> bool:
    """Every report of `desc` at each q in `qs`, mode in `modes` and allowed
    n <= n_max is the oracle's, byte for byte."""
    return all(_outcome(identities._run_one, desc, q, n, mode, **kw) ==
               _outcome(_oracle_run_one, desc, q, n, mode, **kw)
               for q in qs for mode in modes
               for n in range(desc.n_min, n_max + 1) if desc.allows_n(n))


def test_constraints_are_declared_data():
    # (name, kind, slots, value), with the oracle's names in its order
    for desc in identities.list_identities():
        assert [c[0] for c in desc.constraints] == [
            name for name, _ in PREDICATES.get(desc.id, ())], desc.id
        for name, kind, slots, value in desc.constraints:
            assert kind in ("chars", "elems") and type(slots) is slice
            assert type(name) is str and type(value) is int


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_slot_domains_match_the_predicates_exhaustively(ident):
    # exhaustive and boundary reports at q <= 5, q = 2 with its empty and
    # one-element domains included, and with a corrupt rhs at q <= 3, where
    # every tested assignment is a failure entry (boundary: a mismatch), and
    # boundary reports with a corrupt rhs at q = 4 and 5
    desc = identities.get_identity(ident)
    assert _matches_oracle(desc, (2, 3, 4, 5), ("exhaustive", "boundary"))
    assert _matches_oracle(desc, (2, 3), ("exhaustive", "boundary"), corrupt_rhs=True)
    assert _matches_oracle(desc, (4, 5), ("boundary",), corrupt_rhs=True)


@pytest.mark.parametrize("ident", [i for i in EXPECTED_IDS
                                   if identities.get_identity(i).n_min <= 1])
def test_boundary_reports_match_the_predicates_at_q7_to_9(ident):
    # boundary mode walks the complement in blocks of rows; n <= 1
    desc = identities.get_identity(ident)
    assert _matches_oracle(desc, (7, 8, 9), ("boundary",), n_max=1)
    assert _matches_oracle(desc, (7, 8, 9), ("boundary",), n_max=1, corrupt_rhs=True)


def test_boundary_mutants_are_caught(monkeypatch):
    # t4.pivot2 divides by 1 - x_j for j < n: at n = 3 a block of violating
    # rows raises at x_1 = 1, then at x_2 = 1, and rows with only x_n = 1 are
    # decided; a corrupt rhs makes every decided row a mismatch
    cases = [(identities.get_identity(i), q, n)
             for i, q, n in [("t4.pivot2", 3, 3), ("t4.pivot2", 5, 2), ("t4.reduce-c37", 4, 2),
                             ("t5.gf1", 5, 1)]]

    def reports():
        return [_outcome(identities._run_one, desc, q, n, "boundary", corrupt_rhs=corrupt)
                for desc, q, n in cases for corrupt in (False, True)]

    want = [_outcome(_oracle_run_one, desc, q, n, "boundary", corrupt_rhs=corrupt)
            for desc, q, n in cases for corrupt in (False, True)]
    assert reports() == want
    for old, new in [
        # every row of a block that raises counted as undefined
        ("len(exc.rows), np.delete(rows, exc.rows)", "len(rows), rows[:0]"),
        # the rows left after the first zero site never decided
        ("np.delete(rows, exc.rows)", "np.delete(rows, exc.rows); break"),
        # the split inverted: the admissible rows walked
        ("first < k if boundary", "first == k if boundary"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(identities, "_run_one", _mutated(identities, "_run_one", old, new))
            assert reports() != want, old
    assert reports() == want


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_slot_domains_match_the_predicates_sampled(ident):
    desc = identities.get_identity(ident)
    for seed in (0, 1, 42):
        assert _matches_oracle(desc, (7, 8, 9, 13), ("sampled",), seed=seed, count=20)


def test_sampling_gives_up_as_the_predicates_did(monkeypatch):
    # at q = 2 the only character is eps, so every t3.ff-beta draw violates
    # B1 != eps first, in blocks of draws and one draw at a time alike
    desc = identities.get_identity("t3.ff-beta")
    got = _outcome(identities._run_one, desc, 2, 2, "sampled", count=3)
    assert got == _outcome(_oracle_run_one, desc, 2, 2, "sampled", count=3)
    assert got == ("SamplingGaveUp: sampling gave up after 4000 attempts with 0 of 3 "
                   "draws accepted; 4000 draws violated 'B1 != eps'")
    monkeypatch.setattr(identities, "_INT64_BOUND", 1)
    assert _outcome(identities._run_one, desc, 2, 2, "sampled", count=3) == got


def test_a_wrong_slot_domain_is_caught(monkeypatch):
    # B2 read from slot 4 (one past it) constrains nothing at n = 2
    desc = identities.get_identity("t3.ff-beta")
    b1, b2 = desc.constraints
    shifted = dataclasses.replace(desc, constraints=(b1, (*b2[:2], slice(4, 5), b2[3])))
    for mode, kw in (("exhaustive", {}), ("boundary", {}), ("sampled", dict(count=20))):
        assert _matches_oracle(desc, (3, 4), (mode,), **kw)
        assert not _matches_oracle(shifted, (3, 4), (mode,), **kw)

    # the split of a block's rows by their first violated constraint mutated
    def differs(desc, qs, mode):
        try:
            return not _matches_oracle(desc, qs, (mode,), n_max=3)
        except ValueError:  # a side evaluated on a block of no rows
            return True

    pivot2 = identities.get_identity("t4.pivot2")
    assert _matches_oracle(pivot2, (3,), ("boundary",), n_max=3)
    for old, new, cases in [
        # exhaustive mode decides the violating rows too
        ("first == k", "first <= k", [(identities.get_identity(i), (3,), "exhaustive")
                                      for i in PREDICATES]),
        # a block with no selected row decided: at q = 2 every t3.ff-beta row
        # violates B1 != eps
        ("while len(rows):", "while True:", [(desc, (2,), "exhaustive")]),
        # the undefined rows counted as excluded too (t4.pivot2 divides by
        # 1 - x_j, j < n)
        (" - (undefined or 0)", "", [(pivot2, (3,), "boundary")]),
    ]:
        with monkeypatch.context() as m:
            m.setattr(identities, "_run_one", _mutated(identities, "_run_one", old, new))
            for case in cases:
                assert differs(*case), (old, case[0].id)


# -- the batched engine against the per-assignment path -------------------------------
# Exhaustive and boundary mode, and sampled mode below N = _ARRAY_MIN_N,
# evaluate each side once per block of rows, every character and point slot an
# int64 column (identities._check_rows).  The per-assignment sides and _check,
# which sampled mode on large fields, replay and the CLI run, and
# _oracle_run_one above are the oracles.


def _rows_match(desc, f, n, cs, es) -> bool:
    """Every row of the block of columns (cs, es) is the per-call lhs and
    rhs, entry for entry."""
    shape = (len(cs[0]), f.n_chars)
    lv = np.broadcast_to(desc.lhs(f, n, cs, es), shape)
    rv = np.broadcast_to(desc.rhs(f, n, cs, es), shape)
    for r in range(shape[0]):
        row_cs, row_es = tuple(int(c[r]) for c in cs), tuple(int(x[r]) for x in es)
        if (lv[r].tolist() != desc.lhs(f, n, row_cs, row_es).tolist() or
                rv[r].tolist() != desc.rhs(f, n, row_cs, row_es).tolist()):
            return False
    return True


def _block_rows_match(desc, f, n) -> bool:
    """Every row of the product of the slot domains of `desc` at (f.q, n), in
    blocks of rows as the engine sizes them, is the per-call lhs and rhs."""
    cdoms, edoms = _domains(desc, f.q, n)
    doms = [np.array(d, dtype=np.int64) for d in cdoms + edoms]
    blocks = (tuple(d[i] for d, i in zip(doms, idx))
              for idx in identities._slot_blocks([len(d) for d in doms], f.n_chars))
    return all(_rows_match(desc, f, n, cols[:len(cdoms)], cols[len(cdoms):]) for cols in blocks)


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_block_rows_are_the_per_call_sides_exhaustive(ident):
    desc = identities.get_identity(ident)
    for q in (2, 3, 4, 5):
        for n in range(desc.n_min, 3):
            if desc.allows_n(n):
                assert _block_rows_match(desc, _field(q), n), (q, n)


@pytest.mark.parametrize("ident", [i for i in EXPECTED_IDS
                                   if identities.get_identity(i).n_min <= 1])
def test_block_rows_are_the_per_call_sides_at_q7_to_9(ident):
    desc = identities.get_identity(ident)
    for q in (7, 8, 9):
        for n in range(desc.n_min, 2):
            assert _block_rows_match(desc, _field(q), n), (q, n)


def _exhaustive_reports(idents, qs, corrupt_rhs=False, mode="exhaustive") -> list[str]:
    return [_outcome(identities._run_one, identities.get_identity(i), q, n, mode,
                     corrupt_rhs=corrupt_rhs)
            for i in idents for q in qs for n in range(3)
            if identities.get_identity(i).allows_n(n)]


@pytest.mark.parametrize("block", [1, 37])
def test_block_size_does_not_change_a_report(monkeypatch, block):
    # _BLOCK = 1 puts one row in each block (and one tuple in each chunk of a
    # coset count); 37 splits the character rows and the term tuples unevenly
    idents = ["t2.1", "t3.ff-beta", "t4.c63", "t5.gf2", "p2.prod", "p2.f4-eps",
              "p2.linesum"]
    qs = (3, 4) if block == 1 else (3, 4, 5)
    want = _exhaustive_reports(idents, qs), _exhaustive_reports(idents, (3,), True)
    monkeypatch.setattr(hyperff, "_BLOCK", block)
    assert (_exhaustive_reports(idents, qs), _exhaustive_reports(idents, (3,), True)) == want


def test_the_int64_bound_sends_a_report_to_python_ints(monkeypatch):
    # every gate report runs batched; at a bound below its entries a report
    # runs one assignment at a time, with the same bytes
    for desc in identities.list_identities():
        for q in (3, 4, 5):
            for n in range(3):
                if desc.allows_n(n):
                    assert identities._fits_int64(desc, _field(q), n), (desc.id, q, n)
    assert not identities._fits_int64(identities.get_identity("t2.1"), _field(4096), 2)
    idents = ["t2.1", "t3.ksum", "p2.prod"]
    # boundary mode too, with rows that divide by zero (t4.pivot2, t4.reduce-c35)
    bounded = ["t4.pivot2", "t4.reduce-c35", "t5.gf1", "t3.ff-beta"]
    checks = []
    real = identities._check
    monkeypatch.setattr(identities, "_check", lambda *a: checks.append(1) or real(*a))

    def reports(mode):
        return [_exhaustive_reports(idents if mode == "exhaustive" else bounded, qs, corrupt,
                                    mode) for qs, corrupt in [((3, 4), False), ((3,), True)]]

    for mode in ("exhaustive", "boundary"):
        want = reports(mode)
        assert not checks, mode  # every row decided in blocks
        with monkeypatch.context() as m:
            m.setattr(identities, "_INT64_BOUND", 1)
            assert reports(mode) == want
        assert checks, mode  # every row decided by _check, in Python ints
        checks.clear()


def test_real_inputs_past_the_int64_bound_run_row_by_row(monkeypatch):
    # at q = 2, n = 28 and 30 these identities fail the int64 bound under the
    # default cap; their one or two rows are decided one at a time by _check
    checks = []
    real = identities._check
    monkeypatch.setattr(identities, "_check", lambda *a: checks.append(1) or real(*a))
    runs = list(itertools.product(("exhaustive", "boundary"), (False, True)))
    for ident in ("t4.eval-all1", "t4.eval-equal-x", "t4.c62", "t4.c63"):
        desc = identities.get_identity(ident)
        for n in (28, 30):
            assert not identities._fits_int64(desc, _field(2), n), (ident, n)
            got = [_outcome(identities._run_one, desc, 2, n, mode, corrupt_rhs=corrupt)
                   for mode, corrupt in runs]
            # each row twice (exhaustive, honest and corrupt); no constraint to violate
            assert len(checks) == 2 * desc.slot_space(2, n), (ident, n)
            assert got == [_outcome(_oracle_run_one, desc, 2, n, mode, corrupt_rhs=corrupt)
                           for mode, corrupt in runs], (ident, n)
            assert '"failures": []' in got[0] and '"failures": []' not in got[1]
            checks.clear()


# -- one decision step against the list check -----------------------------------------
# _check decides one assignment as a block of one row by the step that
# _check_rows uses (identities._unequal), in int64 where its own sides bound
# the vanishing test's passes below 2^62 and in object rows past that.  The
# list check it replaced is the oracle; _oracle_run_one decides by it too, so
# every report compared with _oracle_run_one above compares the step's
# verdicts and failure entries on blocks.

# one assignment past the block's int64 bound (identities._fits_int64 fails)
PAST_BOUND = [*((i, 4096, 2) for i in EXPECTED_IDS if i.startswith("t4.")),
              ("t3.ff-beta", 256, 2), ("t2.1", 64, 5), ("t2.1", 64, 6), ("t2.1", 64, 9),
              ("t2.1", 7, 26)]


def _decisions_match(desc, f, n, cs, es) -> bool:
    """_check's verdicts and failure entry at (cs, es), honest and corrupt,
    are the list decisions of the sides it returns."""
    d = desc.den(f.q, n)
    ok, lv, rv = identities._check(desc, f, n, cs, es, False)
    lv, rv = lv.tolist(), rv.tolist()
    bad = [rv[0] + d, *rv[1:]]
    ok2, lv2, rv2 = identities._check(desc, f, n, cs, es, True)
    if (ok, ok2, lv2.tolist(), rv2.tolist()) != \
            (_list_decide(f, d, lv, rv), _list_decide(f, d, lv, bad), lv, bad):
        return False
    return ok2 or identities._fail_entry(desc, f, n, cs, es, lv2, rv2) == \
        identities._fail_entry(desc, f, n, cs, es, lv, bad)


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_one_assignment_decisions_match_the_list_check_exhaustive(ident):
    # every admissible assignment at q <= 5 and n <= 2, but the t5 identities
    # at n = 2 on q <= 4 (32 000 assignments each at q = 5, whose blocks are
    # compared with the oracle above)
    desc = identities.get_identity(ident)
    for q in (2, 3, 4, 5):
        f = _field(q)
        for n in range(desc.n_min, 2 if q == 5 and ident.startswith("t5.") else 3):
            if desc.allows_n(n):
                for cs in itertools.product(range(f.n_chars), repeat=desc.chars(n)):
                    for es in itertools.product(range(q), repeat=desc.elems(n)):
                        if desc.violated(cs, es) is None:
                            assert _decisions_match(desc, f, n, cs, es), (q, n, cs, es)


def _sampled_match(ident, q, n, count) -> bool:
    """Sampled reports of `ident` at (q, n), honest and corrupt, are the
    oracle's: the same draws decided by the list check."""
    desc = identities.get_identity(ident)
    return all(_outcome(identities._run_one, desc, q, n, "sampled", count=count,
                        corrupt_rhs=corrupt) ==
               _outcome(_oracle_run_one, desc, q, n, "sampled", count=count, corrupt_rhs=corrupt)
               for corrupt in (False, True))


@pytest.mark.parametrize("q", [64, 256, 1024, 4096])
def test_sampled_decisions_match_the_list_check(q):
    # every identity at its least n and n = 1, two draws each at q >= 1024
    count = 2 if q >= 1024 else 6
    for desc in identities.list_identities():
        for n in sorted({desc.n_min, max(desc.n_min, 1)}):
            assert _sampled_match(desc.id, q, n, count), (desc.id, n)


@pytest.mark.parametrize("ident, q, n", PAST_BOUND)
def test_decisions_past_the_int64_bound_match_the_list_check(ident, q, n):
    assert not identities._fits_int64(identities.get_identity(ident), _field(q), n)
    assert _sampled_match(ident, q, n, 2)


def test_deciding_every_assignment_in_int64_is_caught(monkeypatch):
    # at t2.1, q = 7, n = 26 the denominator 6^26 and the character sum pass
    # int64: one assignment decided in int64 regardless of its sides is not
    # the list check's report (it wraps or raises)
    assert _sampled_match("t2.1", 7, 26, 2)
    monkeypatch.setattr(identities, "_check", _mutated(identities, "_check", "else object",
                                                       "else np.int64"))
    try:
        caught = not _sampled_match("t2.1", 7, 26, 2)
    except OverflowError:
        caught = True
    assert caught


def test_exhaustive_memory_does_not_grow_with_the_rows():
    # the rows are built and decided a block of at most _BLOCK entries at a
    # time, so 1.05 M rows (q = 1024) peak as 65 k rows (q = 256) do
    peaks = []
    for k in (8, 10):
        ff_core.build_field(2, k)  # the shared table is not part of the peak
        tracemalloc.start()
        (r,) = identities.verify("p2.f2", [2**k])
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert r.ok and r.tested == (2**k - 1) ** 2
    assert peaks[1] - peaks[0] < 1 << 20, peaks


# -- the draws of a sample as columns against the per-draw loop -----------------------
# Where sampled mode decides its draws in blocks of rows, it reads them from
# the generator's raw 32-bit words (sampling.sample_columns).  The per-draw
# randrange loop it replaced, which larger fields still run, is the oracle:
# the same columns, counts and rejections, in the same order, or the same
# SamplingGaveUp.


def _loop_columns(rng, desc, q, n, count):
    """Sampled mode's per-draw loop: (columns, tested, excluded, rejected)."""
    N, nc, ne = q - 1, desc.chars(n), desc.elems(n)
    cap = count * 1000 + 1000
    tested = excluded = 0
    rejected, drawn = {}, []
    while tested < count:
        if tested + excluded >= cap:
            worst = max(rejected, key=rejected.get)
            raise errors.SamplingGaveUp(cap, tested, count, worst, rejected[worst])
        cs = tuple(rng.randrange(N) for _ in range(nc))
        es = tuple(rng.randrange(q) for _ in range(ne))
        if (name := desc.violated(cs, es)) is not None:
            rejected[name] = rejected.get(name, 0) + 1
            excluded += 1
            continue
        tested += 1
        drawn.append(cs + es)
    return np.array(drawn, dtype=np.int64).reshape(count, nc + ne).T, tested, excluded, rejected


def _chunked_columns(rng, desc, q, n, count):
    """sampling.sample_columns with its chunks joined, in the same form."""
    chunks = list(sampling.sample_columns(rng, desc, q, n, count))
    return (np.concatenate([c[0] for c in chunks], axis=1), *chunks[-1][1:])


def _draw_outcome(sample, desc, q, n, seed, count):
    """The columns, counts and rejections (in order) of a sample seeded as
    _run_one seeds it, or the text of the SamplingGaveUp it raised."""
    rng = random.Random(f"{seed}:{desc.id}:{q}:{n}")
    try:
        cols, tested, excluded, rejected = sample(rng, desc, q, n, count)
    except errors.SamplingGaveUp as exc:
        return str(exc)
    return cols.tolist(), tested, excluded, list(rejected.items())


def _draws_match(descs, qs, seeds, counts) -> bool:
    return all(_draw_outcome(_chunked_columns, desc, q, n, seed, count) ==
               _draw_outcome(_loop_columns, desc, q, n, seed, count)
               for desc in descs for q in qs for n in range(3) if desc.allows_n(n)
               for seed in seeds for count in counts)


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_sampled_columns_are_the_per_draw_loop(monkeypatch, ident):
    # q = 2 gives up where a constraint forbids its one character (count 1:
    # after 2000 draws) or accepts a draw of x = 0 alone; at q = 4, 8, 16, 32
    # the characters (N = q - 1) take one bit fewer of each word than the
    # points; a chunk of 7 words splits most draws, whose words are carried
    # into the next chunk
    desc = identities.get_identity(ident)
    assert _draws_match([desc], (2,), (0, 1, 42), (1,))
    assert _draws_match([desc], SAMPLED_QS[1:], (0, 1, 42), (1, 300))
    monkeypatch.setattr(sampling, "_CHUNK_WORDS", 7)
    assert _draws_match([desc], (2,), (0,), (1,))
    assert _draws_match([desc], (3, 8, 13), (0, 1), (40,))


def test_sampled_column_mutants_are_caught(monkeypatch):
    # t3.ff-beta at q = 3 often violates both of its constraints at once;
    # chunks of 64 words split some of the draws (a draw reads about 8 to 12
    # words, so most draws still fit in a chunk whose carried words are lost)
    monkeypatch.setattr(sampling, "_CHUNK_WORDS", 64)
    descs = [identities.get_identity(i) for i in ("t3.ff-beta", "t4.pfaff", "t2.1")]
    assert _draws_match(descs, (3, 8, 13), (0,), (40,))
    for name, old, new in [
        # each word shifted one bit too far
        ("_chunk_draws", "words >> (32 - m.bit_length())", "words >> (33 - m.bit_length())"),
        # each slot after the first searched from the word before its
        # predecessor's, so a word the predecessor rejected is offered again
        # (a slot past the chunk's end stays there)
        ("_slot_words", "last = nxt[m][last + 1]",
         "last = nxt[m][np.where(last < len(nxt[m]) - 2, np.maximum(last - 1, starts), last + 1)]"),
        # the words of a draw cut by the chunk's end dropped
        ("_chunk_draws", "words[s:].copy()", "words[:0]"),
    ]:
        with monkeypatch.context() as m:
            m.setattr(sampling, name, _mutated(sampling, name, old, new))
            assert not _draws_match(descs, (3, 8, 13), (0,), (40,)), old
    with monkeypatch.context() as m:  # the last violated constraint counted, not the first
        m.setattr(identities.IdentityDescriptor, "first_violated", _mutated(
            identities, "IdentityDescriptor.first_violated",
            "reversed(list(enumerate(self.constraints)))", "list(enumerate(self.constraints))"))
        assert not _draws_match(descs, (3, 8, 13), (0,), (40,))
    assert _draws_match(descs, (3, 8, 13), (0,), (40,))


def _domains_rate(desc, q, n):
    """The acceptance rate as sample_columns took it before: the product of
    the slot domains' sizes over the slot space."""
    cdoms, edoms = _domains(desc, q, n)
    return math.prod(map(len, cdoms + edoms)) / desc.slot_space(q, n)


def test_accept_rate_is_the_domains_ratio(monkeypatch):
    # the rate read from the constraint entries is the domains' ratio at
    # every identity, q in 2..13, 64 and 4096 and n <= 2; so the chunks a
    # sample is read in, and its draws, are those of the domains' rate
    for desc in map(identities.get_identity, EXPECTED_IDS):
        for q, n in itertools.product((*range(2, 14), 64, 4096), range(3)):
            if desc.allows_n(n):
                mods = [q - 1] * desc.chars(n) + [q] * desc.elems(n)
                assert (sampling._accept_rate(desc, mods, desc.chars(n)) ==
                        _domains_rate(desc, q, n)), (desc.id, q, n)

    def chunks(desc, q, n):
        rng = random.Random(f"7:{desc.id}:{q}:{n}")
        try:
            return [(c.tolist(), *rest)
                    for c, *rest in sampling.sample_columns(rng, desc, q, n, 30)]
        except errors.SamplingGaveUp as exc:
            return str(exc)

    cases = [(desc, q, n) for desc in map(identities.get_identity, EXPECTED_IDS)
             for q in (2, 3, 8, 13, 37) for n in range(3) if desc.allows_n(n)]
    for desc, q, n in cases:
        got = chunks(desc, q, n)
        with monkeypatch.context() as m:
            m.setattr(sampling, "_accept_rate", lambda *_: _domains_rate(desc, q, n))
            assert chunks(desc, q, n) == got, (desc.id, q, n)


def test_sampling_that_gives_up_runs_in_bounded_memory():
    # at q = 2 every t3.ff-beta draw is rejected, and the draws are read a
    # chunk of at most sampling._CHUNK_WORDS words at a time, so the 201,000
    # draws of count 200 peak as the 4000 of count 3 do
    desc, f = identities.get_identity("t3.ff-beta"), _field(2)
    peaks = []
    for count in (3, 3, 200):
        tracemalloc.start()
        with pytest.raises(errors.SamplingGaveUp, match=f"after {count * 1000 + 1000} attempts"):
            identities._run_one(desc, f, 2, "sampled", 0, count, False)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
    assert abs(peaks[2] - peaks[1]) < 64 * 1024 and peaks[2] < 4 << 20, peaks


# SHA-256 of the seeded (42) sampled reports of each identity with a corrupt
# rhs, at the gate's sampled q = 7, 8, 9, 11, 13, every allowed n <= 2 and
# count 50: every draw fails, so every draw's characters and points are
# rendered.  Taken while each draw was one call of randrange per slot.
CORRUPT_SAMPLED_PINS = {
    "t2.1": "e399428b3f6cfbe637c555e80ea9b8784b162b94bf84a7603b0da5285b00bc72",
    "t3.ff-beta": "212fc52d377897f894466968b168f8f6c368284107e88b23f50d91e77207d327",
    "t3.ksum": "fb32d1badae73218156f355bca5154cbce94480c9eb045322512f9d274fc1b61",
    "t4.eps-reduce": "f7fa75f847f3a8ddfcfb6b05d1f539565c16e3772d3762a8560697bdeb062329",
    "t4.c-eq-a": "608b9847518d5240fadd29f66d0326fa42da72c331c0c1ffbce8e21ec90fc76e",
    "t4.one-minus-x": "826a249b86079cbea42c3acc84647e5edd99b7af4063154f118c226f7513e4f4",
    "t4.pfaff": "be0e36ae66943bbb8a18c1d3a370a9da1d5860fd94d8756cdf69635e5d64a8d9",
    "t4.last-pivot": "e13008d2f24c1356f4e9389b8955e073969eeed7229e8598a4d68b9fca47008d",
    "t4.reduce-c35": "f0837f90f6e1211dc3b86a5e83b807a0ebeb3c29d435f83571eedc519ce45aea",
    "t4.pivot2": "db8f7d335e8348aedb586c88622a77e224a0b10b9fa7f94ac291beb82572daae",
    "t4.reduce-c37": "bca531d3bb5d2837e5f65345c08fa8109d50ef101d0844f35a8684762375ba64",
    "t4.eval-equal-x": "2e4169217e296e291aed461848c3c0c2091733b1273f3bddfef8f7e7bddbf868",
    "t4.eval-xn1": "335f1814397f60912e65b4290335f145d72e3485399534a31b05ab947fd4d39c",
    "t4.eval-all1": "23c49b66b6c4df6683a8d64015e3c3d3e800636e976e0c51046b398d33301cc9",
    "t4.c62": "bb89843aa4865bacf2ad7e012a3152b5ae85399dcfdd0b88d9f84182764ea367",
    "t4.c63": "acc1a2aaefb232d144e4e002d66e1a37c2666010c52edb0ebd3a8e91aec39ad7",
    "t5.gf1": "1d134273295ef639f8fc9d63c8771fd326928ee146df81a42759644b7c64a6a6",
    "t5.gf2": "25d033fbb6845545575744cfc059cd41c380cb4438b9554bcc9bd4f64bc229f4",
    "t5.gf3": "6fe06f6d8c7793e4d1f6a57177ab0f5a302d1e2e80ef44057f073f0b7da2e0de",
    "p2.f2": "59fd2553d43ef4aa351f5ff22290500c4b2a19c3784c4a9d9bdc78e933cd3e17",
    "p2.f3": "2d9280da8d74f18b9d24935a89692d0270dcf589c9bc72a66555d94ebeb4369e",
    "p2.f4-eps": "a282e061c530215e45c6a68d88fa968e9de8ec2ea88343ae3ad6956025c65453",
    "p2.f4-self": "3c1270233cc1f2a33e2d5e664a001b007db29755846fe79534138eaa147952ee",
    "p2.prod": "8b37e4ada0e311ffdcda4d056b74c5cad2818b99604fa3a892dbbf6344da1707",
    "p2.binthm": "c9699111a4c64ed2a07c020cd4eef334e3eaaa4411f83ec853334c7afbdb69b5",
    "p2.linesum": "2d332743fe1827df85ec89c0e888eae9394ec9d0e5c190ed890de61ba92291b0",
}


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_corrupt_sampled_reports_are_pinned(ident):
    desc = identities.get_identity(ident)
    reports = identities.verify(ident, list(identities.GATE_SAMPLED_QS), mode="sampled",
                                n_list=[n for n in (0, 1, 2) if desc.allows_n(n)], seed=42,
                                count=50, corrupt_rhs=True)
    assert all(len(r.failures) == r.tested == 50 for r in reports)
    text = json.dumps([r.to_dict() for r in reports])
    assert hashlib.sha256(text.encode()).hexdigest() == CORRUPT_SAMPLED_PINS[ident]

def _mutated(module, name, old, new):
    """module.<name> (a dotted name reaches a method) compiled from its
    source with `old` replaced, in the module's namespace."""
    obj = module
    for part in name.split("."):
        obj = getattr(obj, part)
    src = textwrap.dedent(inspect.getsource(obj))
    assert src.count(old) == 1, (name, old)
    ns = dict(vars(module))
    exec(compile(src.replace(old, new), module.__file__, "exec"), ns)
    return ns[part]


def test_batched_engine_mutants_are_caught(monkeypatch):
    gf2, linesum, prod = (identities.get_identity(i) for i in ("t5.gf2", "p2.linesum", "p2.prod"))
    cases = [(gf2, 4, 1), (linesum, 5, 0)]
    assert all(_block_rows_match(desc, _field(q), n) for desc, q, n in cases)

    def reports(corrupt_rhs=False):
        return [_outcome(identities._run_one, desc, q, n, "exhaustive", corrupt_rhs=corrupt_rhs)
                for desc, q, n in [*cases, (prod, 5, 0)]]

    def oracle(corrupt_rhs=False):
        return [_outcome(_oracle_run_one, desc, q, n, "exhaustive", corrupt_rhs=corrupt_rhs)
                for desc, q, n in [*cases, (prod, 5, 0)]]

    want, want_corrupt = oracle(), oracle(True)
    assert reports() == want and reports(True) == want_corrupt
    with monkeypatch.context() as m:  # each row's slots offset by sigma(N) - 1, not sigma(N)
        m.setattr(hyperff, "_coset_rows", _mutated(hyperff, "_coset_rows", "rows = D.size *",
                                                   "rows = (D.size - 1) *"))
        assert not any(_block_rows_match(desc, _field(q), n) for desc, q, n in cases)
        assert reports() != want
    with monkeypatch.context() as m:  # the delta(A) weight of p2.prod inverted
        rhs = _mutated(identities, "_prod_rhs", "-(q - 1) * _delta(A, N)",
                       "-(q - 1) * (1 - _delta(A, N))")
        bad = dataclasses.replace(prod, rhs=rhs)
        assert _outcome(identities._run_one, bad, 5, 0, "exhaustive") != \
            _outcome(_oracle_run_one, prod, 5, 0, "exhaustive")
    with monkeypatch.context() as m:  # the first unequal row of a block dropped
        m.setattr(identities, "_unequal", _mutated(
            identities, "_unequal", "np.flatnonzero((diff != 0).any(axis=1))",
            "np.flatnonzero((diff != 0).any(axis=1))[1:]"))
        assert reports() == want  # an honest report has no unequal row to drop
        assert reports(True) != want_corrupt
    assert reports() == want and reports(True) == want_corrupt


# -- the batched sampled engine against the per-draw path ----------------------------
# Sampled mode passes its accepted draws on in blocks of at most
# _BLOCK // N rows where one draw would run the list kernels (N <
# _ARRAY_MIN_N) and the int64 bound holds; the per-draw path is the oracle.

SAMPLED_QS = (2, 3, 4, 5, 7, 8, 9, 11, 13, 16, 25, 27, 32, 37)


def _biased_block(desc, f, n, k, rng):
    """k admissible draws of `desc` at (f.q, n) as one block of columns, the
    points often 0, 1, -1 or an earlier point, where the side's weights
    change."""
    rows = []
    while len(rows) < k:
        cs = tuple(rng.randrange(f.n_chars) for _ in range(desc.chars(n)))
        es = []
        for _ in range(desc.elems(n)):
            pool = (0, 1, f.p - 1, *es)
            es.append(rng.choice(pool) if rng.random() < 0.4 else rng.randrange(f.q))
        if desc.violated(cs, tuple(es)) is None:
            rows.append(cs + tuple(es))
    cols = np.array(rows, dtype=np.int64).reshape(k, -1).T.copy()
    return tuple(cols[:desc.chars(n)]), tuple(cols[desc.chars(n):])


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_sampled_block_rows_are_the_per_call_sides(ident):
    desc = identities.get_identity(ident)
    rng = random.Random(ident)
    for q in SAMPLED_QS[4:]:
        for n in range(desc.n_min, 3):
            if desc.allows_n(n):
                f = _field(q)
                assert _rows_match(desc, f, n, *_biased_block(desc, f, n, 24, rng)), (q, n)


def _sampled_reports(descs, qs, seeds, count, corrupt_rhs=False) -> list[str]:
    return [_outcome(identities._run_one, desc, q, n, "sampled", seed=seed, count=count,
                     corrupt_rhs=corrupt_rhs)
            for desc in descs for q in qs for n in range(3) if desc.allows_n(n)
            for seed in seeds]


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_batched_sampled_reports_are_the_per_draw_reports(monkeypatch, ident):
    # every report byte for byte, honest and corrupt, against the same
    # report forced one draw at a time by an int64 bound of 1
    desc = identities.get_identity(ident)
    calls = {"_check": 0, "_check_rows": 0}
    for name in calls:
        real = getattr(identities, name)
        monkeypatch.setattr(identities, name, lambda *a, _n=name, _r=real: calls.update(
            {_n: calls[_n] + 1}) or _r(*a))

    def reports():
        return [_sampled_reports([desc], SAMPLED_QS, (0, 1, 42), 16, corrupt)
                for corrupt in (False, True)]

    got = reports()
    assert calls["_check"] == 0 and calls["_check_rows"] > 0
    monkeypatch.setattr(identities, "_INT64_BOUND", 1)
    assert reports() == got
    assert calls["_check"] > 0


def test_batched_sampled_memory_does_not_grow_with_the_count():
    # draws are read a chunk of at most sampling._CHUNK_WORDS words (q =
    # 13: about 1000 draws) and decided in blocks of at most _BLOCK // N
    # rows, so 16 chunks peak as four do; 64 draws are fewer than a full
    # chunk's, and peak lower.  One untraced run first: what the first full
    # block of a process allocates once (about 0.2 MB) is not part of the
    # peak, as the shared table is not
    ff_core.build_field(13, 1)
    identities.verify("t2.1", [13], "sampled", n_list=[2], count=4096)
    peaks = []
    for count in (64, 4096, 16384):
        tracemalloc.start()
        (r,) = identities.verify("t2.1", [13], "sampled", n_list=[2], count=count)
        peaks.append(tracemalloc.get_traced_memory()[1])
        tracemalloc.stop()
        assert r.ok and r.tested == count
    assert peaks[0] <= peaks[1] and abs(peaks[2] - peaks[1]) < 64 * 1024, peaks


def test_batched_sampled_mutants_are_caught(monkeypatch):
    cases = [(identities.get_identity(i), q, n) for i, q, n in
             [("t4.pfaff", 13, 2), ("t4.c-eq-a", 11, 2), ("t2.1", 7, 1), ("t5.gf2", 5, 1),
              ("t3.ff-beta", 9, 2)]]

    def reports(corrupt_rhs=False):
        return [_outcome(identities._run_one, desc, q, n, "sampled", seed=0, count=200,
                         corrupt_rhs=corrupt_rhs) for desc, q, n in cases]

    want = [_outcome(_oracle_run_one, desc, q, n, "sampled", seed=0, count=200)
            for desc, q, n in cases]
    want_corrupt = [_outcome(_oracle_run_one, desc, q, n, "sampled", seed=0, count=200,
                             corrupt_rhs=True) for desc, q, n in cases]
    assert reports() == want and reports(True) == want_corrupt
    for module, name, old, new, corrupt in [
        # the point columns rotated one row against the character columns
        (identities, "_run_one", "tuple(block[nc:])", "tuple(np.roll(block[nc:], 1, axis=1))",
         True),
        # row 0's dead positions taken as every row's
        (hyperff, "_exponents", "dead |= z < 0", "dead |= (z < 0)[:1] if z.ndim == 2 else z < 0",
         False),
        # eps(x): a row with a zero point walked as if the point were not 0
        (hyperff, "_zech_rot", "z[x == 0] = -1", "pass", False),
        # T42's [t = 1] weight inverted
        (hyperff, "_genfn_rhs_vec", "* _is(t, 1)", "* (1 - _is(t, 1))", False),
    ]:
        with monkeypatch.context() as m:
            m.setattr(module, name, _mutated(module, name, old, new))
            assert (reports(True) != want_corrupt) if corrupt else (reports() != want), name
    assert reports() == want and reports(True) == want_corrupt
