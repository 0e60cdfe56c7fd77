import hashlib
import importlib.util
import json
import os
import subprocess
import sys

import pytest

from ffhyper import classical, cli, cyclo


def run(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_eval_jacobi(capsys):
    code, out, _ = run(capsys, "eval", "jacobi", "--q", "5",
                       "--chi", "2", "--lam", "2")
    assert code == 0
    assert out.splitlines()[0] == "-1"


def test_eval_fd_zero_argument(capsys):
    code, out, _ = run(capsys, "eval", "fd", "--q", "5", "--A", "1",
                       "--B", "2", "--C", "3", "--x", "0")
    assert code == 0
    assert out.splitlines()[0] == "0"


def test_eval_binom_trivial_chars(capsys):
    code, out, _ = run(capsys, "eval", "binom", "--q", "7",
                       "--A", "0", "--B", "0")
    assert code == 0
    assert out.splitlines()[0] == "5"
    assert "~ 5.000000" in out


def test_eval_extension_field_spelling(capsys):
    code_a, out_a, _ = run(capsys, "eval", "binom", "--q", "2^3",
                           "--A", "1", "--B", "3")
    code_b, out_b, _ = run(capsys, "eval", "binom", "--q", "8",
                           "--A", "1", "--B", "3")
    assert code_a == code_b == 0
    assert out_a == out_b


def test_eval_2f1_greene_normalization(capsys):
    code, out, _ = run(capsys, "eval", "2f1", "--q", "5", "--A", "1",
                       "--B", "2", "--C", "3", "--x", "3",
                       "--normalization", "greene")
    assert code == 0
    assert out.splitlines()[0].endswith("/ 5")


def test_eval_genfn_sides_agree(capsys):
    args = ["--q", "5", "--A", "1", "--B", "2", "--C", "3", "--x", "2",
            "--t", "3", "--variant", "gf1"]
    _, out_l, _ = run(capsys, "eval", "genfn-lhs", *args)
    _, out_r, _ = run(capsys, "eval", "genfn-rhs", *args)
    assert out_l == out_r


def test_eval_domain_error_exit_3(capsys):
    code, _, err = run(capsys, "eval", "genfn-lhs", "--q", "5", "--A", "1",
                       "--B", "2", "--C", "3", "--x", "2", "--t", "1",
                       "--variant", "gf1")
    assert code == 3
    assert "domain error" in err


def test_eval_bad_q_exit_2(capsys):
    code, _, err = run(capsys, "eval", "binom", "--q", "6", "--A", "1",
                       "--B", "1")
    assert code == 2
    assert "error" in err


@pytest.mark.parametrize("argv, message", [
    (["eval", "binom", "--q", "5", "--B", ""], "--B takes 1 value, got 0"),
    (["eval", "2f1", "--q", "5", "--B", ""], "--B takes 1 value, got 0"),
    (["eval", "2f1", "--q", "5", "--B", "1", "--x", ""], "--x takes 1 value, got 0"),
    (["eval", "linesum", "--q", "5", "--x", ""], "--x takes 1 value, got 0"),
    (["eval", "binom", "--q", "5", "--B", "1,2"], "--B takes 1 value, got 2"),
    (["eval", "f1", "--q", "5", "--B", "1", "--x", "1"], "--B takes 2 values, got 1"),
    (["eval", "f1", "--q", "5", "--B", "1,2", "--x", "1"], "--x takes 2 values, got 1"),
])
def test_eval_wrong_value_count_is_a_usage_error(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and message in err and "Traceback" not in err


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_sampled_needs_a_positive_count(capsys, count):
    code, out, err = run(capsys, "verify", "--id", "p2.f2", "--q", "5",
                         "--mode", "sampled", "--count", count)
    assert code == 2
    assert out == "" and f"count >= 1, got {count}" in err


def test_verify_sampled_counts(capsys):
    code, out, _ = run(capsys, "verify", "--id", "t2.1", "--q", "11",
                       "--mode", "sampled", "--count", "500", "--seed", "42")
    assert code == 0
    doc = json.loads(out)
    assert doc["schema"] == "ffhyper/1"
    assert doc["reports"][0]["tested"] == 500
    assert doc["reports"][0]["failures"] == []


def test_verify_unknown_identity(capsys):
    code, _, err = run(capsys, "verify", "--id", "bogus")
    assert code == 2
    assert "unknown identity" in err


def test_verify_corrupt_rhs_exit_1(capsys):
    code, out, _ = run(capsys, "verify", "--id", "p2.f2", "--q", "5",
                       "--corrupt-rhs")
    assert code == 1
    doc = json.loads(out)
    assert len(doc["reports"][0]["failures"]) == 16


def test_verify_json_deterministic(capsys):
    argv = ["verify", "--id", "t4.pivot2,t3.ksum", "--q", "7,9",
            "--mode", "sampled", "--count", "25", "--seed", "3"]
    _, out_a, _ = run(capsys, *argv)
    _, out_b, _ = run(capsys, *argv)
    assert out_a == out_b


def test_sampling_that_gives_up_names_the_constraint(capsys):
    # at q = 2 the only character is eps, so every draw violates B1 != eps
    code, _, err = run(capsys, "verify", "--id", "t3.ff-beta", "--q", "2",
                       "--n", "2", "--mode", "sampled", "--count", "1")
    assert code == 3
    assert "sampling gave up after 2000 attempts" in err
    assert "0 of 1 draws accepted" in err and "'B1 != eps'" in err
    assert "exhaustive domain" not in err


@pytest.mark.parametrize("cap", ["-5", "0"])
@pytest.mark.parametrize("mode", ["exhaustive", "sampled"])
def test_verify_rejects_a_cap_below_one(capsys, cap, mode):
    # a usage error, not a CapExceeded on the first report's slot space
    code, out, err = run(capsys, "verify", "--id", "t3.ff-beta", "--q", "5", "--n", "2",
                         "--cap", cap, "--mode", mode)
    assert (code, out, err) == (2, "", f"error: cap must be a positive integer, got {cap}\n")


@pytest.mark.parametrize("n", ["5000", "6000", "10000000"])
def test_verify_names_the_cap_of_a_slot_space_far_past_it(capsys, n):
    # a domain error naming the cap, not Python's 4300-digit conversion limit
    # (a usage error) or a number of thousands of digits
    code, out, err = run(capsys, "verify", "--id", "t4.pfaff", "--q", "3", "--n", n)
    assert (code, out) == (3, "")
    assert err == (f"domain error: CapExceeded: exhaustive domain has at least "
                   f"2^{2 * int(n) + 2} assignments, above the cap 10000000; "
                   "use sampled mode\n")
    assert len(err) < 200


def test_verify_text_format(capsys):
    code, out, _ = run(capsys, "verify", "--id", "p2.linesum", "--q", "5",
                       "--format", "text")
    assert code == 0
    assert "p2.linesum q=5" in out and "tested=" in out


def test_verify_n_filter_skips_disallowed(capsys):
    # ff-beta needs n >= 2: requesting n=1 for the pair leaves only t2.1
    code, out, _ = run(capsys, "verify", "--id", "t2.1,t3.ff-beta",
                       "--q", "3", "--n", "1")
    assert code == 0
    doc = json.loads(out)
    assert [r["id"] for r in doc["reports"]] == ["t2.1"]
    code2, _, err = run(capsys, "verify", "--id", "t3.ff-beta",
                        "--q", "3", "--n", "1")
    assert code2 == 2
    assert "no runnable" in err


def test_verify_out_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    code, out, _ = run(capsys, "verify", "--id", "p2.f2", "--q", "4",
                       "--out", str(path))
    assert code == 0
    assert out == ""
    doc = json.loads(path.read_text())
    assert doc["reports"][0]["id"] == "p2.f2"


def test_verify_out_to_an_unwritable_path_is_a_usage_error(tmp_path, capsys):
    path = tmp_path / "missing" / "report.json"
    code, out, err = run(capsys, "verify", "--id", "p2.f2", "--q", "4",
                         "--out", str(path))
    assert code == 2
    assert out == "" and str(path) in err and "Traceback" not in err
    assert not path.exists()


@pytest.mark.parametrize("target,B,x", [("2f1", "2", "{}"), ("f1", "2,1", "{},1"),
                                        ("f1", "2,1", "1,{}"), ("linesum", "2", "{}")])
@pytest.mark.parametrize("point", ["5", "-1"])
def test_eval_point_out_of_range_is_a_usage_error(capsys, target, B, x, point):
    code, out, err = run(capsys, "eval", target, "--q", "5", "--A", "1", "--B", B,
                         "--C", "3", f"--x={x.format(point)}")
    assert code == 2
    assert out == ""
    assert err == f"error: element index {point} out of range for q=5\n"


def test_verify_respects_env_cap(capsys, monkeypatch):
    monkeypatch.setenv("FFHYPER_MAX_Q", "16")
    code, _, err = run(capsys, "verify", "--id", "p2.f2", "--q", "25")
    assert code == 3
    assert "domain error" in err
    monkeypatch.setenv("FFHYPER_MAX_Q", "32")
    code2, _, _ = run(capsys, "verify", "--id", "p2.f2", "--q", "25")
    assert code2 == 0


def test_env_cap_above_default_admits_a_larger_field(capsys, monkeypatch):
    # q = 4099 is prime, so the field builds fast; Phi_4098 has no cap of its own
    monkeypatch.setenv("FFHYPER_MAX_Q", "8192")
    code, out, err = run(capsys, "eval", "binom", "--q", "4099", "--A", "1", "--B", "2")
    assert (code, err) == (0, "")
    assert out.splitlines()[1].startswith("~ ")
    monkeypatch.setenv("FFHYPER_MAX_Q", "4098")
    code, _, err = run(capsys, "eval", "binom", "--q", "4099", "--A", "1", "--B", "2")
    assert code == 3
    assert "exceeds the configured maximum 4098" in err


def test_oversized_order_is_refused_before_factoring(capsys, monkeypatch):
    # factoring 100000000000031 by trial division takes over a second; the
    # cap check comes first, so no order here reaches the factoriser
    monkeypatch.delenv("FFHYPER_MAX_Q", raising=False)
    cyclo._prime_divisors.cache_clear()
    # "p^k" is compared with the cap before p^k is built, and a numeral past
    # Python's 4300-digit conversion limit before it is converted
    for q in ("100000000000031", "4097", "2^13", "2^20000", "2^1000000000", "9" * 5000):
        for argv in (["eval", "binom", "--q", q, "--A", "1", "--B", "2"],
                     ["verify", "--id", "p2.f2", "--q", q]):
            code, out, err = run(capsys, *argv)
            assert (code, out) == (3, "")
            assert "exceeds the configured maximum 4096" in err
    assert cyclo._prime_divisors.cache_info().currsize == 0


# argv of the large-field evals of the cli benchmark workload (variant 1) and
# the SHA-256 of their stdout, taken from the long-division reduction: the
# canonical text may not change by one byte
LARGE_FIELD_EVALS = [
    (["eval", "jacobi", "--q", "4096", "--chi", "1656", "--lam", "1445"],
     "b458765fa7d40b72c5cb19d29f61f00784ae8e06f1a180fb1659cbac7c0a0f7d"),
    (["eval", "binom", "--q", "4096", "--A", "4060", "--B", "122"],
     "e60ecf3b2772baf5dc168ab8ae1ba9114577dfeccd9c62a0eb88bdf065afb664"),
    (["eval", "2f1", "--q", "4096", "--A", "3658", "--B", "1520", "--C", "1644",
      "--x", "2389"],
     "ef72aab33871787c9ada0c4de1cc652fd89732641e3432fedd7ce2facca05d2a"),
    (["eval", "f1", "--q", "4096", "--A", "2617", "--B", "3989,725", "--C", "2949",
      "--x", "111,18"],
     "aa45f3a26bf1faa24e3305acefb57af4453b0e90b6922d3a8edb98b4f15630e3"),
    (["eval", "fd", "--q", "4096", "--A", "135", "--B", "3395,550,3941", "--C", "1525",
      "--x", "2592,4059,1250"],
     "8e2d74d6ed418c880457c306bfd7d8ad03a178c845f0310273de8fdc7e9106f2"),
    (["eval", "fd", "--q", "1024", "--A", "817", "--B", "397,209,531", "--C", "322",
      "--x", "768,78,255"],
     "edb0bd7712a7968ad51c2907c1ecd52736ef27a8eaa342e5a72e587556a43ff5"),
    # pinned from the line sum as 4095 separate n = 0 walks
    (["eval", "linesum", "--q", "4096", "--A", "2291", "--B", "517", "--x", "3001"],
     "232eec36fbaec465f8ba22c5ec1e4cc0279d958b152371348e4bdc7228cb674c"),
]


@pytest.mark.parametrize("argv, sha256", LARGE_FIELD_EVALS,
                         ids=[f"{a[1]}-q{a[3]}" for a, _ in LARGE_FIELD_EVALS])
def test_large_field_eval_output_is_pinned(capsys, monkeypatch, argv, sha256):
    monkeypatch.delenv("FFHYPER_MAX_Q", raising=False)
    code, out, err = run(capsys, *argv)
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == sha256


@pytest.mark.parametrize("value", ["0", "-5", "abc", "", "2.5"])
def test_env_cap_must_be_a_positive_integer(capsys, monkeypatch, value):
    monkeypatch.setenv("FFHYPER_MAX_Q", value)
    for argv in (["eval", "binom", "--q", "256", "--A", "1", "--B", "2"],
                 ["verify", "--id", "p2.f2", "--q", "4"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"error: FFHYPER_MAX_Q must be a positive integer, got {value!r}\n"


def test_classical_integral(capsys):
    code, out, _ = run(capsys, "classical", "integral", "--a", "0.5",
                       "--b", "1.5,2", "--c", "2.5", "--x", "0.3,0.1")
    assert code == 0
    assert out.startswith("residual ")
    residual = float(out.split()[1])
    assert residual < 1e-8


def test_classical_ksum_zero_argument(capsys):
    code, out, _ = run(capsys, "classical", "ksum", "--a", "0.8",
                       "--b", "0.3,0.9", "--c", "1.7", "--x", "0.35,0.5",
                       "--xn", "0")
    assert code == 0
    assert float(out.split()[1]) < 1e-12


def test_classical_mr(capsys):
    code, out, _ = run(capsys, "classical", "mr", "--a", "0.6",
                       "--b", "0.4,0.7", "--c", "1.1", "--x", "0.3,-0.4")
    assert code == 0
    assert float(out.split()[1]) < 1e-9


def test_classical_tol_exit_1(capsys):
    code, out, _ = run(capsys, "classical", "integral", "--a", "0.5",
                       "--b", "1.5,2", "--c", "2.5", "--x", "0.3,0.1",
                       "--tol", "1e-30")
    assert code == 1
    assert "tol 1e-30" in out


@pytest.mark.parametrize("check", ["integral", "ksum", "mr"])
@pytest.mark.parametrize("tol", ["nan", "-nan", "inf", "-inf", "-1e-9", "-0.5"])
def test_classical_rejects_a_tolerance_that_is_not_finite_and_nonnegative(capsys, check, tol):
    # a NaN tolerance failed a zero residual, and a negative one failed every check
    code, out, err = run(capsys, "classical", check, "--a", "0.8", "--b", "0.3,0.9",
                         "--c", "1.7", "--x", "0.35,0.5", "--xn", "0", f"--tol={tol}")
    assert (code, out) == (2, "")
    assert err.startswith("error: --tol must be a finite number >= 0, got ")
    assert err.count("\n") == 1


def test_classical_accepts_a_zero_tolerance(capsys):
    code, out, _ = run(capsys, "classical", "ksum", "--a", "0.8", "--b", "0.3,0.9",
                       "--c", "1.7", "--x", "0.35,0.5", "--xn", "0", "--tol", "0")
    assert (code, out) == (0, "residual 0.000e+00 (tol 0e+00)\n")


def test_classical_ksum_negative_K_is_a_usage_error(capsys):
    code, out, err = run(capsys, "classical", "ksum", "--a", "0.8",
                         "--b", "0.3,0.9", "--c", "1.7", "--x", "0.35,-0.45",
                         "--K", "-1")
    assert (code, out, err) == (2, "", "error: k-summation needs K >= 0\n")


def test_classical_domain_error(capsys):
    code, _, err = run(capsys, "classical", "mr", "--a", "0.6",
                       "--b", "0.4,0.7", "--c", "1.5", "--x", "0.3,-0.4")
    assert code == 3
    assert "domain error" in err


@pytest.mark.parametrize("flag, value, name", [
    ("--b", "nan,1.2", "b"), ("--x", "0.3,nan", "x"), ("--x", "0.3,inf", "x"),
    ("--a", "nan", "a"), ("--c", "inf", "c"), ("--xn", "nan", "x"),
])
def test_classical_rejects_non_finite_parameters(capsys, flag, value, name):
    # NaN passes every domain comparison, and |inf| >= 1 used to exit 3 as Diverged
    argv = {"--a": "0.5", "--b": "1.5,2", "--c": "3.5", "--x": "0.3,0.1", flag: value}
    code, out, err = run(capsys, "classical", "integral", *(t for kv in argv.items() for t in kv))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: {name} must be finite, got ") and err.count("\n") == 1


def test_usage_error_from_argparse(capsys):
    assert cli.main(["eval"]) == 2  # missing target and --q
    capsys.readouterr()


def _child_env():
    """The environment of a child process that imports the package this
    process imported, installed or not."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(cli.__file__)))
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p))


def test_console_entry_point():
    proc = subprocess.run(
        [sys.executable, "-m", "ffhyper.cli", "eval", "binom", "--q", "7",
         "--A", "0", "--B", "0"],
        capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0
    assert proc.stdout.splitlines()[0] == "5"


VERIFY_SCRIPT = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                             "scripts", "run_verification.py")


def test_t21_verification_json_is_pinned(tmp_path):
    # t2.1 on the default grid (16 reports), digest taken before its
    # character-sum side read binomial families
    out = tmp_path / "t21.json"
    proc = subprocess.run([sys.executable, VERIFY_SCRIPT, "--id", "t2.1", "--json", str(out)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_bytes())["reports"]) == 16
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "3d4b0be9011809e28d1567d6fbb55db436b2beb36d31699063cfbc1496e38e06"


def test_gate_verification_json_is_pinned(tmp_path):
    # the default grid, all 352 reports (seed 42: 500 draws per sampled
    # report), digest taken while each draw was one randrange call per slot
    out = tmp_path / "gate.json"
    proc = subprocess.run([sys.executable, VERIFY_SCRIPT, "--json", str(out)],
                          capture_output=True, text=True, env=_child_env())
    assert proc.returncode == 0, proc.stderr
    assert len(json.loads(out.read_bytes())["reports"]) == 352
    assert hashlib.sha256(out.read_bytes()).hexdigest() == \
        "7625dacd815166fb5a7890f1aa881822ff79c2c8dd09d557f7f97c2e7c8b5046"


def test_verification_script_json_is_byte_identical(tmp_path):
    # two runs of scripts/run_verification.py write the same bytes: no wall time
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, VERIFY_SCRIPT, "--id", "p2.f2,t4.eval-all1", "--q", "3,7",
             "--count", "20", "--json", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    reports = json.loads(outs[0])["reports"]
    assert len(reports) == 6 and all(r["ms"] == 0 for r in reports)


@pytest.mark.parametrize("argv, env, code, message", [
    (["--id", "bogus"], {}, 2, "unknown identity 'bogus'"),
    (["--q", "6"], {}, 2, "error: 6 is not a prime power"),
    (["--id", "p2.f2", "--q", "32"], {"FFHYPER_MAX_Q": "16"}, 3,
     "domain error: TooLarge: field order 32 exceeds the configured maximum 16"),
], ids=["unknown-id", "prime-power", "over-cap"])
def test_verification_script_maps_errors_to_cli_exit_codes(argv, env, code, message):
    # a usage error exits 2 and a domain error 3, as in the CLI, with one line
    # on stderr; 1 stays the code for identity failures.  Every q is parsed
    # before the first report, so nothing is printed to stdout.
    proc = subprocess.run([sys.executable, VERIFY_SCRIPT, *argv],
                          capture_output=True, text=True, env=dict(_child_env(), **env))
    assert (proc.returncode, proc.stderr, proc.stdout) == (code, message + "\n", "")


@pytest.mark.parametrize("front", ["cli", "script"])
@pytest.mark.parametrize("argv", [["--id", "all", "--n", "-1"], ["--id", "p2.f2", "--n", "5"]],
                         ids=["n-1", "p2.f2-n5"])
def test_no_runnable_identity_and_n_exits_2_in_both_front_ends(capsys, front, argv):
    # both plan their runs with cli.plan_runs: the script used to print
    # "0 reports, 0 failures" and exit 0
    if front == "cli":
        got = run(capsys, "verify", *argv)
    else:
        proc = subprocess.run([sys.executable, VERIFY_SCRIPT, *argv], capture_output=True,
                              text=True, env=_child_env())
        got = (proc.returncode, proc.stdout, proc.stderr)
    assert got == (2, "", "error: no runnable (identity, n) combinations\n")


@pytest.mark.parametrize("q", ["4^2", "1^5", "0^3", "9^1", "6^1"])
def test_p_k_with_a_non_prime_base_is_not_prime(capsys, q):
    # eval, verify and the verification script refuse a "p^k" whose p is not
    # a prime alike, before any report: verify used to run 4^2 as F_16
    message = f"domain error: NotPrime: characteristic must be prime, got {q.split('^')[0]}\n"
    for argv in (["eval", "binom", "--q", q, "--A", "1", "--B", "2"],
                 ["verify", "--id", "p2.f2", "--q", f"3,{q}"]):
        assert run(capsys, *argv) == (3, "", message), argv
    proc = subprocess.run([sys.executable, VERIFY_SCRIPT, "--id", "p2.f2", "--q", f"3,{q}"],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (3, "", message)


CLASSICAL_SCRIPT = os.path.join(os.path.dirname(VERIFY_SCRIPT), "run_classical_checks.py")


@pytest.mark.parametrize("trials", ["0", "-3"])
def test_classical_script_rejects_no_trials(trials):
    # zero draws would report a worst residual of 0 and pass
    proc = subprocess.run([sys.executable, CLASSICAL_SCRIPT, "--trials", trials],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr.splitlines()[-1] == \
        "run_classical_checks.py: error: need --trials >= 1"


@pytest.mark.parametrize("flag", ["--tol-integral", "--tol-series"])
@pytest.mark.parametrize("tol", ["nan", "inf", "-1e-9"])
def test_classical_script_rejects_a_tolerance_that_is_not_finite_and_nonnegative(flag, tol):
    proc = subprocess.run([sys.executable, CLASSICAL_SCRIPT, "--trials", "1", f"{flag}={tol}"],
                          capture_output=True, text=True, env=_child_env())
    assert (proc.returncode, proc.stdout) == (2, "")
    assert proc.stderr == \
        f"run_classical_checks.py: error: {flag} must be a finite number >= 0, got {float(tol)}\n"


def test_verification_script_reads_field_orders_like_the_cli():
    # "p^k" spelling, and the reports are those of the plain order
    outs = []
    for q in ("3^2", "9"):
        proc = subprocess.run([sys.executable, VERIFY_SCRIPT, "--id", "p2.f2,p2.f4-eps",
                               "--q", q, "--count", "5"],
                              capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(proc.stdout.splitlines()[:2])
    assert outs[0] == outs[1] and outs[0][0].startswith("p2.f2            q=9")


def test_classical_script_fails_on_a_nan_residual(monkeypatch, capsys):
    # max(worst, nan) keeps the earlier finite value; a NaN must still fail
    spec = importlib.util.spec_from_file_location("run_classical_checks", CLASSICAL_SCRIPT)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    calls = []
    real = classical.check_ksum_formula

    def nan_on_trial_2(p, *args):
        calls.append(p)
        return float("nan") if len(calls) == 2 else real(p, *args)

    monkeypatch.setattr(classical, "check_ksum_formula", nan_on_trial_2)
    monkeypatch.setattr(sys, "argv", ["run_classical_checks.py", "--trials", "3", "--n", "2"])
    assert script.main() == 1
    lines = capsys.readouterr().out.splitlines()
    assert len(calls) == 3
    assert lines[1].startswith("ksum ") and "worst residual nan" in lines[1]
    assert lines[1].endswith(" FAIL")
    assert lines[0].endswith(" ok") and lines[2].endswith(" ok")


# -- a value that starts with "-" after its option, without "=" ------------------------


@pytest.mark.parametrize("argv, flag", [
    (["eval", "fd", "--q", "7", "--A", "1", "--B", "-1,2", "--C", "1", "--x", "2,3"], "--B"),
    (["eval", "linesum", "--q", "7", "--A", "-1", "--B", "-2", "--x", "3"], "--A"),
    (["classical", "mr", "--a", "0.6", "--b", "0.4,0.7", "--c", "1.1", "--x", "-0.3,0.2"], "--x"),
    (["classical", "integral", "--a", "0.5", "--b", "1.5,2", "--c", "2.5", "--x", "0.3,-0.1",
      "--xn", "-0.2"], "--xn"),
])
def test_a_leading_minus_value_reads_like_the_equals_spelling(capsys, argv, flag):
    # argparse alone took "-1,2" or "-0.3,0.2" for an option and exited 2
    i = argv.index(flag)
    joined = argv[:i] + [f"{flag}={argv[i + 1]}"] + argv[i + 2:]
    want = run(capsys, *joined)
    assert want[0] == 0
    assert run(capsys, *argv) == want


@pytest.mark.parametrize("tol", ["-1e-9", "-inf", "-0.5"])
def test_a_negative_tolerance_reaches_the_tolerance_check(capsys, tol):
    code, out, err = run(capsys, "classical", "ksum", "--a", "0.8", "--b", "0.3,0.9",
                         "--c", "1.7", "--x", "0.35,0.5", "--tol", tol)
    assert (code, out) == (2, "")
    assert err == f"error: --tol must be a finite number >= 0, got {float(tol)}\n"


def test_a_negative_infinite_xn_reaches_the_finiteness_check(capsys):
    code, out, err = run(capsys, "classical", "integral", "--a", "0.5", "--b", "1.5,2",
                         "--c", "3.5", "--x", "0.3,0.1", "--xn", "-inf")
    assert (code, out) == (2, "")
    assert err.startswith("error: x must be finite, got ")


def test_an_option_is_not_taken_for_a_value(capsys):
    # the token after --out is the option --format, so --out still lacks its value
    for argv in (["verify", "--id", "p2.f2", "--q", "3", "--out", "--format", "text"],
                 ["verify", "--id", "p2.f2", "--q", "3", "--out", "--format=text"]):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (2, "")
        assert "argument --out: expected one argument" in err


@pytest.mark.parametrize("script, argv, err", [
    (CLASSICAL_SCRIPT, ["--trials", "1", "--tol-integral", "-1e-9"],
     "run_classical_checks.py: error: --tol-integral must be a finite number >= 0, got -1e-09\n"),
    (VERIFY_SCRIPT, ["--id", "p2.f2", "--q", "-3,5"], "error: field order must be >= 2, got -3\n"),
])
def test_scripts_take_a_leading_minus_value(script, argv, err):
    proc = subprocess.run([sys.executable, script, *argv], capture_output=True, text=True,
                          env=_child_env())
    assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", err)
