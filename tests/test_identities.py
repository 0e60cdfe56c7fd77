import hashlib
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
