import hashlib
import json
import os
import subprocess
import sys

import pytest

from ffhyper import cli, cyclo


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


def test_classical_domain_error(capsys):
    code, _, err = run(capsys, "classical", "mr", "--a", "0.6",
                       "--b", "0.4,0.7", "--c", "1.5", "--x", "0.3,-0.4")
    assert code == 3
    assert "domain error" in err


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


def test_verification_script_json_is_byte_identical(tmp_path):
    # two runs of scripts/run_verification.py write the same bytes: no wall time
    script = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                          "scripts", "run_verification.py")
    outs = []
    for name in ("a.json", "b.json"):
        out = tmp_path / name
        proc = subprocess.run(
            [sys.executable, script, "--id", "p2.f2,t4.eval-all1", "--q", "3,7",
             "--count", "20", "--json", str(out)],
            capture_output=True, text=True, env=_child_env())
        assert proc.returncode == 0, proc.stderr
        outs.append(out.read_bytes())
    assert outs[0] == outs[1]
    reports = json.loads(outs[0])["reports"]
    assert len(reports) == 6 and all(r["ms"] == 0 for r in reports)
