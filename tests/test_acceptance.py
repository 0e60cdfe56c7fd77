"""Acceptance gate: one test per top-level claim, one PASS/FAIL line each."""

import contextlib
import hashlib
import io
import json
import random
import time

from ffhyper import charset, classical, cli, cyclo, ff_core, hyperff, identities
from ffhyper.identities import GATE_EXHAUSTIVE_QS as EXHAUSTIVE_QS
from ffhyper.identities import GATE_SAMPLED_QS as SAMPLED_QS


def _report(capfd, name: str, ok: bool, detail: str = "") -> None:
    tag = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    with capfd.disabled():
        print(f"\n[{tag}] {name}{suffix}")
    assert ok, name


def _field(q):
    return ff_core.build_field(*ff_core.split_prime_power(q))


def test_criterion_1_definition_equals_character_sum(capfd):
    t0 = time.perf_counter()
    reports = identities.verify("t2.1", EXHAUSTIVE_QS, n_list=[1, 2])
    elapsed = time.perf_counter() - t0
    total = sum(r.tested for r in reports)
    want = sum((q - 1) ** (n + 2) * q ** n
               for q in EXHAUSTIVE_QS for n in (1, 2))
    ok = (all(r.ok for r in reports) and total == want
          and all(r.excluded == 0 for r in reports) and elapsed < 300)
    _report(capfd, "dual-path agreement, exhaustive q=3,4,5 n=1,2", ok,
            f"{total} assignments, {elapsed:.1f}s")


def test_criterion_2_full_registry(capfd):
    t0 = time.perf_counter()
    failures = 0
    runs = 0
    for desc in identities.list_identities():
        n_ex = [n for n in (0, 1, 2) if desc.allows_n(n)]
        for r in identities.verify(desc.id, EXHAUSTIVE_QS, n_list=n_ex):
            failures += len(r.failures)
            runs += 1
        for r in identities.verify(desc.id, SAMPLED_QS,
                                   mode="sampled", seed=42, count=500):
            failures += len(r.failures)
            assert r.tested == 500, (desc.id, r.q, r.tested)
            runs += 1
    elapsed = time.perf_counter() - t0
    ok = failures == 0 and runs >= 18 * 8
    _report(capfd, "full registry, exhaustive q=3,4,5 + 500 samples q=7,8,9,11,13",
            ok, f"{len(identities.list_identities())} identities, "
                f"{runs} reports, {failures} failures, {elapsed:.1f}s")


def test_criterion_3_spot_values(capfd):
    bad = 0
    # {A choose eps} = -1 + (q-1) delta(A)
    for q in (5, 7, 9):
        f = _field(q)
        for m in range(f.n_chars):
            want = cyclo.from_int(f.n_chars, -1 + (q - 1 if m == 0 else 0))
            bad += hyperff.binom(charset.Char(f, m), charset.Char(f, 0)) != want
    # 2F1 at x = 1: A(-1) {B choose ~A C}, all characters at q=5
    f5 = _field(5)
    neg1 = f5.neg(1)
    for ma in range(4):
        for mb in range(4):
            for mc in range(4):
                A, B, C = (charset.Char(f5, m) for m in (ma, mb, mc))
                lhs = hyperff.gauss_2f1(A, B, C, 1)
                rhs = cyclo.mul(charset.eval(A, neg1),
                                hyperff.binom(B, ~A * C))
                bad += lhs != rhs
    # F_D at the all-ones point: (B1 B2)(-1) {A choose ~B1 ~B2 C}, q=5 n=2
    for ma in range(4):
        for m1 in range(4):
            for m2 in range(4):
                for mc in range(4):
                    A, B1, B2, C = (charset.Char(f5, m)
                                    for m in (ma, m1, m2, mc))
                    inst = hyperff.FdInstance(A, (B1, B2), C, (1, 1))
                    lhs = hyperff.lauricella_def(inst)
                    rhs = cyclo.mul(charset.eval(B1 * B2, neg1),
                                    hyperff.binom(A, ~B1 * ~B2 * C))
                    bad += lhs != rhs
    _report(capfd, "spot values: binomial at eps, 2F1 at x=1, F_D at all-ones",
            bad == 0, f"{bad} mismatches")


def test_criterion_4_classical_residuals(capfd):
    t0 = time.perf_counter()
    p_int = classical.ClassicalFdParams(0.5, (1.5, 2.0), 2.5, (0.3, 0.1))
    r_int = classical.check_integral_formula(p_int)
    t_int = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_ksum = classical.ClassicalFdParams(0.8, (0.3, 0.9), 1.7, (0.35, -0.45))
    r_ksum = classical.check_ksum_formula(p_ksum)
    t_ksum = time.perf_counter() - t0

    t0 = time.perf_counter()
    p_mr = classical.ClassicalFdParams(0.6, (0.4, 0.7), 1.1, (0.3, -0.4))
    r_mr = classical.check_mr_reduction(p_mr)
    t_mr = time.perf_counter() - t0

    ok = (r_int < 1e-8 and r_ksum < 1e-9 and r_mr < 1e-9
          and max(t_int, t_ksum, t_mr) < 10)
    _report(capfd, "classical residuals: integral < 1e-8, ksum & reduction < 1e-9",
            ok, f"integral {r_int:.2e}, ksum {r_ksum:.2e}, mr {r_mr:.2e}")


def test_criterion_5_infrastructure(capfd):
    # cyclotomic ring axioms, deterministic seeded sweep
    rng = random.Random(2024)
    ring_ok = True
    for order in (1, 2, 3, 4, 6, 8, 12, 24):
        for _ in range(40):
            a, b, c = (cyclo.from_coeffs(
                order, [rng.randint(-9, 9) for _ in range(order)])
                for _ in range(3))
            ring_ok &= a + b == b + a
            ring_ok &= a * b == b * a
            ring_ok &= (a + b) + c == a + (b + c)
            ring_ok &= (a * b) * c == a * (b * c)
            ring_ok &= a * (b + c) == a * b + a * c

    # character orthogonality, exhaustive over every prime power q <= 64
    orth_ok = True
    q = 2
    while q <= 64:
        try:
            p, k = ff_core.split_prime_power(q)
        except ValueError:
            q += 1
            continue
        f = ff_core.build_field(p, k)
        N = f.n_chars
        for ch in charset.all_chars(f):
            s = cyclo.zero(N)
            for x in range(q):
                s = s + charset.eval(ch, x)
            orth_ok &= s == cyclo.from_int(N, N if ch.is_trivial else 0)
        for x in range(q):
            s = cyclo.zero(N)
            for ch in charset.all_chars(f):
                s = s + charset.eval(ch, x)
            orth_ok &= s == cyclo.from_int(N, N if x == 1 else 0)
        q += 1

    # negative control: a corrupted right-hand side must fail loudly
    (neg,) = identities.verify("t2.1", [5], n_list=[1], corrupt_rhs=True)
    control_ok = (not neg.ok) and len(neg.failures) == neg.tested > 0

    # byte-identical JSON across two runs with the same seed
    argv = ["verify", "--id", "t2.1,t4.pivot2", "--q", "7,11",
            "--mode", "sampled", "--count", "50", "--seed", "9"]
    bufs = []
    for _ in range(2):
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            assert cli.main(list(argv)) == 0
        bufs.append(buf.getvalue())
    json_ok = bufs[0] == bufs[1] and json.loads(bufs[0])["schema"] == "ffhyper/1"

    ok = ring_ok and orth_ok and control_ok and json_ok
    _report(capfd, "infrastructure: ring axioms, orthogonality q<=64, "
            "negative control, JSON determinism", ok,
            f"control failures {len(neg.failures)}/{neg.tested}")


# SHA-256 of the JSON list of TheoremReport.to_dict() for one identity: q = 5
# exhaustive, then q = 7 and 8 sampled (seed 42, 100 draws), plain and with
# --corrupt-rhs, whose failure entries render every lhs value; n = 1, 2 each.
REPORT_DIGESTS = {
    "t2.1": "c4018948fa2d3fd46f7dd0303e559fbf8ddbb6bd6cfbf0e8b725da2129a4807a",
    "t3.ksum": "8ee885f6936fcd3cc8335dc90fff17d3549497e4db1f80a476bdaecc67533b2c",
    "t5.gf1": "108fbeed3b0718ae08f7b16fc2710d756cd06fcf8c967921fafa654b40f4d0fe",
    "t5.gf2": "0bc4cb97046afd0c75d3691b298dc920424af5c94e7177178f06b9eeb5a3e0ac",
    "t5.gf3": "38f7b593f15ee1199dc0558b382b9f503b6872873c8a389edda5c6728bf86319",
}


def test_criterion_6_seeded_reports_byte_identical(capfd):
    changed = []
    for ident, want in REPORT_DIGESTS.items():
        reports = identities.verify(ident, [5], n_list=[1, 2])
        for corrupt in (False, True):
            reports += identities.verify(ident, [7, 8], mode="sampled", n_list=[1, 2],
                                         seed=42, count=100, corrupt_rhs=corrupt)
        text = json.dumps([r.to_dict() for r in reports])
        if hashlib.sha256(text.encode()).hexdigest() != want:
            changed.append(ident)
    _report(capfd, "seeded reports byte-identical: t2.1, t3.ksum, t5.gf1-3",
            not changed, f"changed: {', '.join(changed) or 'none'}")
