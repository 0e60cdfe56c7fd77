"""Operation lists of the benchmark workloads.

A workload is a fixed list of operations ("ops").  `build(name, variant)`
returns it as `(key, fn, check)` triples: `fn()` runs one op and returns its
raw output, and `check(out)` (run outside the timed region) turns that output
into `(digest, problem)`.  `digest` is compared with the reference; it is None
for float outputs, which are checked against a tolerance instead.  `problem`
names a failure the op reports about itself (identity failures, non-zero exit,
residual above tolerance), or is None.

The inputs of every op derive from `variant` alone (the benchmark seed modulo
VARIANTS), and make_reference.py records each variant's outputs in
reference.json, so a run can check every output byte.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib.util
import io
import json
import os
import random

from ffhyper import classical, cli, identities

VARIANTS = 8

# Report fields that a seeded run reproduces byte for byte; `ms` and any key
# added later are left out of the digest.
STABLE_REPORT_KEYS = ("id", "q", "n", "mode", "seed", "tested", "excluded",
                      "failures", "mismatches", "undefined")

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def digest(obj) -> str:
    text = obj if isinstance(obj, str) else json.dumps(obj, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


def report_digest(d: dict) -> str:
    return digest({k: d.get(k) for k in STABLE_REPORT_KEYS})


def report_key(ident, q, n, mode, seed) -> str:
    """Op key of one report; `seed` is None outside sampled mode, as in the report."""
    return f"{ident}|q={q}|n={n}|{mode}|seed={seed}"


# -- gate: the default grid of scripts/run_verification.py ---------------------

GATE_QS = (3, 4, 5, 7, 8, 9, 11, 13)


def gate_seed(variant: int) -> int:
    return 42 + variant  # variant 0 is the script's default seed


def _verify_op(ident, q, n, mode, seed, count):
    key = report_key(ident, q, n, mode, seed if mode == "sampled" else None)

    def fn():
        (r,) = identities.verify(ident, [q], mode=mode, n_list=[n], seed=seed,
                                 count=count)
        return r.to_dict()

    def check(d):
        problem = f"{len(d['failures'])} identity failures" if d["failures"] else None
        return report_digest(d), problem

    return key, fn, check


def _gate(variant: int):
    seed = gate_seed(variant)
    ops = []
    for desc in identities.list_identities():
        n_list = [n for n in (0, 1, 2) if desc.allows_n(n)]
        for q in GATE_QS:
            mode = "exhaustive" if q <= 5 else "sampled"
            for n in n_list:
                ops.append(_verify_op(desc.id, q, n, mode, seed,
                                      identities.DEFAULT_SAMPLES))
    return ops


# -- large-q: sampled verification at large fields ------------------------------

T4_IDS = ("t4.eps-reduce", "t4.c-eq-a", "t4.one-minus-x", "t4.pfaff",
          "t4.last-pivot", "t4.reduce-c35", "t4.pivot2", "t4.reduce-c37",
          "t4.eval-equal-x", "t4.eval-xn1", "t4.eval-all1", "t4.c62", "t4.c63")

# (identities, q, n, samples per op, ops per identity).  101 ops: the median
# falls among the ~10 ms t4/q = 64 ops and the 90th percentile in the middle of
# the 16 t3.ff-beta ops (~40 ms), not on the edge of a cost cluster.
LARGE_Q_MIX = (
    (T4_IDS, 4096, 2, 2, 4),
    (("p2.f4-eps", "p2.f4-self"), 4096, 0, 1, 2),
    (("p2.prod", "p2.binthm", "p2.linesum"), 256, 0, 2, 3),
    (("t3.ff-beta",), 256, 2, 1, 16),
    (("t2.1", "t3.ksum", "t5.gf1", "t5.gf2", "t5.gf3"), 64, 1, 1, 4),
)


def _large_q(variant: int):
    ops = []
    for ids, q, n, count, reps in LARGE_Q_MIX:
        for ident in ids:
            for j in range(reps):
                ops.append(_verify_op(ident, q, n, "sampled", 1000 * variant + j, count))
    return ops


# -- cli: in-process cli.main calls ------------------------------------------------

EVAL_QS = (5, 7, 9, 16, 27, 64, 256, 1024, 4096)
# evals per (target, q): enough at q = 64 that the median op falls among them,
# and enough at q = 256 that the 90th percentile falls among those
EVALS_PER_Q = {64: 8, 256: 2}
SMALL_EVAL_QS = (5, 7, 9, 16, 27)  # fd-charsum and genfn cost (q-1)^n convolutions
CONSTRAINED_IDS = ("t3.ff-beta", "t4.pfaff", "t4.last-pivot", "t4.reduce-c35",
                   "t4.pivot2", "t4.reduce-c37", "t5.gf1")


def _csv(vals) -> str:
    return ",".join(str(v) for v in vals)


def _eval_argv(rng: random.Random, target: str, q: int) -> list[str]:
    N = q - 1

    def ch():
        return str(rng.randrange(N))

    def xs(n):
        return _csv(rng.randrange(q) for _ in range(n))

    argv = ["eval", target, "--q", str(q)]
    if target == "jacobi":
        return argv + ["--chi", ch(), "--lam", ch()]
    if target == "binom":
        return argv + ["--A", ch(), "--B", ch()]
    if target == "linesum":
        return argv + ["--A", ch(), "--B", ch(), "--x", xs(1)]
    if target in ("2f1", "f1"):
        n = 1 if target == "2f1" else 2
    elif target == "fd":
        n = rng.choice((1, 2, 3))
    else:
        n = rng.choice((1, 2)) if q <= 9 else 1
    argv += ["--A", ch(), "--B", _csv(rng.randrange(N) for _ in range(n)),
             "--C", ch(), "--x", xs(n)]
    if target.startswith("genfn"):
        variant = rng.choice(("gf1", "gf2", "gf3"))
        t = rng.choice([v for v in range(q) if not (variant == "gf1" and v == 1)])
        argv += ["--t", str(t), "--variant", variant]
    return argv


def _cli_op(argv):
    def fn():
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            rc = cli.main(argv)
        return rc, buf.getvalue()

    def check(out):
        rc, text = out
        return digest(text), (f"exit code {rc}" if rc != 0 else None)

    return " ".join(argv), fn, check


def _cli(variant: int):
    rng = random.Random(f"cli:{variant}")
    argvs = []
    for target in ("jacobi", "binom", "2f1", "f1", "fd", "linesum"):
        for q in EVAL_QS:
            if target == "linesum" and q > 1024:
                continue  # one q = 4096 line sum is 4095 binomial vectors: ~20 s
            argvs += [_eval_argv(rng, target, q) for _ in range(EVALS_PER_Q.get(q, 1))]
    for target in ("fd-charsum", "genfn-lhs", "genfn-rhs"):
        for q in SMALL_EVAL_QS:
            argvs.append(_eval_argv(rng, target, q))
    for ident in CONSTRAINED_IDS:
        for q in (4, 5):
            argvs.append(["verify", "--id", ident, "--q", str(q), "--mode", "boundary"])
    return [_cli_op(a) for a in argvs]


# -- classical: the residual sweep of scripts/run_classical_checks.py ------------

# The draws of `run_classical_checks.py --seed <variant> --n <n>` (25 trials of
# each check), of which every one runs except that at n = 3 only the first
# INTEGRAL_N3_TRIALS integral draws do: one n = 3 quadrature costs ~0.4 s.
# 127 ops in five 25-op cost clusters: the median falls in the middle of the
# n = 3 mr checks (~6 ms), the 90th percentile in the middle of the n = 3 ksum
# checks (~50 ms).
CLASSICAL_TRIALS = 25
INTEGRAL_N3_TRIALS = 2
TOL_INTEGRAL = 1e-8
TOL_SERIES = 1e-9


def _classical_script():
    path = os.path.join(ROOT, "scripts", "run_classical_checks.py")
    spec = importlib.util.spec_from_file_location("run_classical_checks", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


def _classical(variant: int):
    script = _classical_script()
    checks = (("integral", script.draw_integral, classical.check_integral_formula,
               TOL_INTEGRAL),
              ("ksum", script.draw_ksum, classical.check_ksum_formula, TOL_SERIES),
              ("mr", script.draw_mr, classical.check_mr_reduction, TOL_SERIES))
    ops = []
    for n in (2, 3):
        rng = random.Random(variant)
        for name, draw, fn, tol in checks:
            for trial in range(CLASSICAL_TRIALS):
                params = draw(rng, n)
                if name == "integral" and n == 3 and trial >= INTEGRAL_N3_TRIALS:
                    continue

                def check(res, tol=tol):  # floats: checked by tolerance, not digest
                    return None, (f"residual {res:.3e} >= {tol:.0e}" if res >= tol else None)

                ops.append((f"{name}|n={n}|seed={variant}|trial={trial}",
                            lambda fn=fn, p=params: fn(p), check))
    return ops


WORKLOADS = {"gate": _gate, "large-q": _large_q, "cli": _cli, "classical": _classical}


def build(name: str, variant: int):
    return WORKLOADS[name](variant)
