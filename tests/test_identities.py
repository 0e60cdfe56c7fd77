import hashlib
import itertools
import json

import pytest

from ffhyper import cyclo, errors, ff_core, hyperff, identities

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


def test_contexts_share_the_field_table_but_not_the_memo():
    a, b = identities._ev_for_q(9), identities._ev_for_q(9)
    assert a is not b
    assert a.f is b.f is ff_core.build_field(3, 2)
    hyperff._binom_vec(a, 1, 2)
    assert a.binoms and not b.binoms


def test_cap_exceeded():
    with pytest.raises(errors.CapExceeded):
        identities.verify("t2.1", [5], n_list=[2], cap=100)


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
        assert rhs2 == rhs + cyclo.one(4)


def test_replay_validates_shape():
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


def _raw_side(fn, ev, n, cs, es) -> str:
    try:
        return repr(list(fn(ev, n, cs, es)))
    except Exception as exc:  # the exception's type is pinned too
        return type(exc).__name__


@pytest.mark.parametrize("ident", EXPECTED_IDS)
def test_raw_sides_are_pinned(ident):
    desc = identities.get_identity(ident)
    h = hashlib.sha256()
    for q in (3, 4, 5):
        ev = identities._ev_for_q(q)
        for n in range(desc.n_min, 3):
            if not desc.allows_n(n):
                continue
            for cs in itertools.product(range(ev.N), repeat=desc.chars(n)):
                for es in itertools.product(range(q), repeat=desc.elems(n)):
                    h.update(f"{q} {n} {cs} {es} {_raw_side(desc.lhs, ev, n, cs, es)} "
                             f"{_raw_side(desc.rhs, ev, n, cs, es)}\n".encode())
    assert h.hexdigest() == RAW_SIDE_PINS[ident]
