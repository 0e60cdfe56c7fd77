"""Command-line front end.

Subcommands:
  eval       evaluate one function; prints the canonical cyclotomic-integer
             text, then a complex-embedding approximation on a second line
  verify     run registered identities; emits a JSON (or text) report document
  classical  run one floating-point identity check; prints the residual

Exit codes: 0 success, 1 verification failures / residual above tolerance,
2 usage error (including unknown identity), 3 domain error.  Fields are given
as "p^k" or as a plain prime power; characters are generator-relative
exponents.  FFHYPER_MAX_Q, a positive integer, overrides the field-size cap.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

from . import classical, cyclo, ff_core, hyperff, identities
from .errors import FFHyperError, TooLarge, UnknownIdentity
from .hyperff import Char

SCHEMA = "ffhyper/1"


def _max_q() -> int:
    """The field-size cap: FFHYPER_MAX_Q if set, else ff_core.DEFAULT_MAX_Q.
    A set value that is not a positive integer is a usage error."""
    v = os.environ.get("FFHYPER_MAX_Q")
    if v is None:
        return ff_core.DEFAULT_MAX_Q
    cap = int(v) if v.isdecimal() else 0
    if cap < 1:
        raise ValueError(f"FFHYPER_MAX_Q must be a positive integer, got {v!r}")
    return cap


def _numeral(text: str, cap: int) -> int:
    """int(text), but cap + 1 for a decimal numeral with more digits than the
    cap: as p or as k in "p^k" either value gives the same verdict, and Python
    converts at most 4300 digits."""
    digits = text.strip().lstrip("0")
    return cap + 1 if digits.isdecimal() and len(digits) > len(str(cap)) else int(text)


def _parse_q(text: str, cap: int) -> tuple[int, int]:
    """(p, k) of a field order spelled "p^k" or as a plain prime power.  The
    order is compared with the cap before p^k is built or anything factored;
    a "p^k" whose p is not a prime is NotPrime."""
    p, caret, k = text.partition("^")
    p, k = _numeral(p, cap), (_numeral(k, cap) if caret else 1)
    try:
        ff_core.check_order(p, k, cap)
    except TooLarge:
        raise TooLarge(text, cap) from None  # as spelled, not as saturated
    if not caret:
        return ff_core.split_prime_power(p)
    ff_core.check_prime(p)
    return p, k


def parse_ids(spec: str) -> list:
    """The descriptors of a comma-separated id list, or of all for "all"."""
    if spec == "all":
        return list(identities.list_identities())
    return [identities.get_identity(v.strip()) for v in spec.split(",")]


def parse_orders(spec: str) -> tuple[list[int], int]:
    """The field orders of a comma-separated list, each compared with the cap
    (_max_q) before it is factored, and that cap."""
    cap = _max_q()
    return [p ** k for p, k in (_parse_q(t.strip(), cap) for t in spec.split(","))], cap


def plan_runs(descs, n_req) -> list[tuple[str, list[int]]]:
    """(identity id, slot counts) of each descriptor left with any of the
    requested n that it allows (each its least n when n_req is empty); a
    usage error when none is left."""
    runs = [(d.id, [n for n in n_req if d.allows_n(n)] if n_req else [d.n_min])
            for d in descs]
    runs = [(ident, n_list) for ident, n_list in runs if n_list]
    if not runs:
        raise ValueError("no runnable (identity, n) combinations")
    return runs


def report_document(reports, timings: bool = False) -> str:
    """The ffhyper/1 JSON document of `reports`, newline-terminated."""
    doc = {"schema": SCHEMA, "reports": [r.to_dict(timings=timings) for r in reports]}
    return json.dumps(doc, indent=2) + "\n"


def guarded(fn, *args) -> int:
    """fn(*args), errors mapped to exit code 2 (usage) or 3 (domain), one stderr line."""
    try:
        return fn(*args)
    except UnknownIdentity as exc:
        print(str(exc), file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FFHyperError as exc:
        print(f"domain error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def check_tolerance(flag: str, tol: float) -> None:
    """ValueError unless tol is a finite number >= 0: a NaN fails every
    residual <= tol comparison, and a negative tol fails every check."""
    if not (math.isfinite(tol) and tol >= 0):
        raise ValueError(f"{flag} must be a finite number >= 0, got {tol}")


def _field(text: str):
    cap = _max_q()
    return ff_core.build_field(*_parse_q(text, cap), cap)


def _ints(text: str) -> list[int]:
    return [int(v) for v in text.split(",")] if text else []


def _print_value(c, q: int | None = None) -> None:
    if q is None:
        print(cyclo.render(c))
        z = cyclo.to_complex(c)
    else:  # rescaled pair (value, divisor)
        print(f"({cyclo.render(c)}) / {q}")
        z = cyclo.to_complex(c) / q
    print(f"~ {z.real:.6f}{z.imag:+.6f}j")


def _values(args, flag: str, count: int) -> list[int]:
    """The `count` values of a list flag; any other number is a usage error."""
    vals = getattr(args, flag)
    if len(vals) != count:
        raise ValueError(f"eval {args.target}: --{flag} takes {count} "
                         f"value{'s' if count > 1 else ''}, got {len(vals)}")
    return vals


def _cmd_eval(args) -> int:
    f = _field(args.q)

    def ch(m: int) -> Char:
        return Char(f, m)

    def fd() -> hyperff.FdInstance:
        return hyperff.FdInstance(A=ch(args.A), B=tuple(ch(m) for m in args.B),
                                  C=ch(args.C), x=tuple(args.x))

    t = args.target
    if t == "jacobi":
        _print_value(hyperff.jacobi(ch(args.chi), ch(args.lam)))
    elif t == "binom":
        (b,) = _values(args, "B", 1)
        _print_value(hyperff.binom(ch(args.A), ch(b)))
    elif t == "2f1":
        (b,), (x,) = _values(args, "B", 1), _values(args, "x", 1)
        val = hyperff.gauss_2f1(ch(args.A), ch(b), ch(args.C), x,
                                normalization=args.normalization)
        if args.normalization == "greene":
            _print_value(val[0], val[1])
        else:
            _print_value(val)
    elif t == "f1":
        b1, b2 = _values(args, "B", 2)
        x1, x2 = _values(args, "x", 2)
        _print_value(hyperff.appell_f1(ch(args.A), ch(b1), ch(b2), ch(args.C), x1, x2))
    elif t in ("fd", "fd-charsum"):
        fn = hyperff.lauricella_def if t == "fd" else hyperff.lauricella_charsum
        _print_value(fn(fd()))
    elif t == "linesum":
        (b,), (x,) = _values(args, "B", 1), _values(args, "x", 1)
        _print_value(hyperff.char_line_sum(ch(args.A), ch(b), x))
    else:  # genfn-lhs / genfn-rhs
        variant = {"gf1": "T41", "gf2": "T42", "gf3": "T43"}[args.variant]
        inst = hyperff.GenFnInstance(base=fd(), t=args.t, variant=variant)
        fn = hyperff.genfn_lhs if t == "genfn-lhs" else hyperff.genfn_rhs
        _print_value(fn(inst))
    return 0


def _cmd_verify(args) -> int:
    descs = parse_ids(args.id)
    q_list, max_q = parse_orders(args.q)
    runs = plan_runs(descs, _ints(args.n))
    if not args.out:
        return _verify(args, runs, q_list, max_q, sys.stdout)
    try:  # before verifying, so an unwritable path costs no run
        fh = open(args.out, "w", encoding="utf-8")
    except OSError as exc:
        raise ValueError(f"cannot write --out {args.out!r}: {exc.strerror}") from None
    with fh:
        return _verify(args, runs, q_list, max_q, fh)


def _verify(args, runs, q_list, max_q, fh) -> int:
    """Run each (identity, n_list) of `runs` over q_list; write the report to fh."""
    reports = []
    for ident, n_list in runs:
        reports.extend(identities.verify(
            ident, q_list, mode=args.mode, n_list=n_list, seed=args.seed,
            count=args.count, cap=args.cap, corrupt_rhs=args.corrupt_rhs,
            max_q=max_q))
    if args.format == "json":
        text = report_document(reports, args.timings)
    else:
        lines = []
        for r in reports:
            line = (f"{r.id} q={r.q} n={r.n} mode={r.mode} tested={r.tested} "
                    f"excluded={r.excluded} failures={len(r.failures)}")
            if r.mode == "boundary":
                line += f" mismatches={r.mismatches} undefined={r.undefined}"
            if args.timings:
                line += f" ms={r.ms:.1f}"
            lines.append(line)
        text = "\n".join(lines) + "\n"
    fh.write(text)
    return 1 if any(r.failures for r in reports) else 0


def _cmd_classical(args) -> int:
    if args.tol is not None:
        check_tolerance("--tol", args.tol)
    x = [complex(v) for v in args.x.split(",")]
    if args.xn is not None:
        x[-1] = complex(args.xn)
    b = [complex(v) for v in args.b.split(",")]
    params = classical.ClassicalFdParams(
        a=complex(args.a), b=tuple(b), c=complex(args.c), x=tuple(x), M=args.M)
    if args.check == "integral":
        tol = args.tol if args.tol is not None else 1e-8
        residual = classical.check_integral_formula(params)
    elif args.check == "ksum":
        tol = args.tol if args.tol is not None else 1e-9
        residual = classical.check_ksum_formula(params, K=args.K)
    else:
        tol = args.tol if args.tol is not None else 1e-9
        residual = classical.check_mr_reduction(params)
    print(f"residual {residual:.3e} (tol {tol:.0e})")
    return 0 if residual <= tol else 1


class ArgumentParser(argparse.ArgumentParser):
    """argparse, except that an option which takes a value takes the next
    token as that value even when the token starts with "-" ("--B -1,2",
    "--x -0.4,0.3", "--tol -1e-9", "--xn -inf"), unless the token is itself
    one of the parser's options.  argparse alone reads such a token as an
    option: its negative-number rule admits only a plain -1 or -0.5.  Each
    subparser is of this class too, and reads its own options."""

    def __init__(self, *args, **kwargs):
        self._options, self._valued = set(), set()
        super().__init__(*args, **kwargs)

    def add_argument(self, *args, **kwargs):
        action = super().add_argument(*args, **kwargs)
        self._options.update(action.option_strings)
        if action.nargs is None:
            self._valued.update(action.option_strings)
        return action

    def parse_known_args(self, args=None, namespace=None):
        args = iter(sys.argv[1:] if args is None else args)
        joined = []
        for tok in args:
            if tok == "--":  # the rest are positionals
                joined += [tok, *args]
                break
            value = next(args, None) if tok in self._valued else None
            if value is None:
                joined.append(tok)
            elif value.startswith("-") and value.partition("=")[0] not in self._options:
                joined.append(f"{tok}={value}")
            else:
                joined += [tok, value]
        return super().parse_known_args(joined, namespace)


def _build_parser() -> argparse.ArgumentParser:
    ap = ArgumentParser(prog="ffhyper", description=__doc__,
                        formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="cmd", required=True)

    ev = sub.add_parser("eval", help="evaluate one function")
    ev.add_argument("target", choices=["jacobi", "binom", "2f1", "f1", "fd",
                                       "fd-charsum", "linesum", "genfn-lhs",
                                       "genfn-rhs"])
    ev.add_argument("--q", required=True, help='field order, "p^k" or integer')
    ev.add_argument("--A", type=int, default=0, help="character exponent")
    ev.add_argument("--B", type=_ints, default=[0], help="character exponent(s), comma-separated")
    ev.add_argument("--C", type=int, default=0, help="character exponent")
    ev.add_argument("--chi", type=int, default=0, help="jacobi: first exponent")
    ev.add_argument("--lam", type=int, default=0, help="jacobi: second exponent")
    ev.add_argument("--x", type=_ints, default=[0], help="element index(es), comma-separated")
    ev.add_argument("--t", type=int, default=0, help="generating-function variable")
    ev.add_argument("--variant", choices=["gf1", "gf2", "gf3"], default="gf1")
    ev.add_argument("--normalization", choices=["unscaled", "greene"],
                    default="unscaled")
    ev.set_defaults(fn=_cmd_eval)

    vf = sub.add_parser("verify", help="verify registered identities")
    vf.add_argument("--id", required=True, help='identity id(s), comma-separated, or "all"')
    vf.add_argument("--q", default=",".join(map(str, identities.GATE_EXHAUSTIVE_QS)),
                    help="field orders, comma-separated")
    vf.add_argument("--mode", choices=identities.MODES, default="exhaustive")
    vf.add_argument("--n", default=None, help="slot counts, comma-separated")
    vf.add_argument("--count", type=int, default=identities.DEFAULT_SAMPLES,
                    help="sampled mode: assignments per (q, n)")
    vf.add_argument("--seed", type=int, default=0)
    vf.add_argument("--cap", type=int, default=identities.DEFAULT_CAP,
                    help="exhaustive mode: domain size cap")
    vf.add_argument("--corrupt-rhs", action="store_true",
                    help="negative control: perturb every rhs by +1")
    vf.add_argument("--format", choices=["json", "text"], default="json")
    vf.add_argument("--timings", action="store_true",
                    help="include wall time in reports (breaks byte-identical output)")
    vf.add_argument("--out", default=None, help="write the report to a file")
    vf.set_defaults(fn=_cmd_verify)

    cl = sub.add_parser("classical", help="floating-point identity checks")
    cl.add_argument("check", choices=["integral", "ksum", "mr"])
    cl.add_argument("--a", required=True)
    cl.add_argument("--b", required=True, help="comma-separated")
    cl.add_argument("--c", required=True)
    cl.add_argument("--x", required=True, help="comma-separated")
    cl.add_argument("--xn", default=None, help="override the last x")
    cl.add_argument("--M", type=int, default=classical.DEFAULT_M)
    cl.add_argument("--K", type=int, default=classical.DEFAULT_K)
    cl.add_argument("--tol", type=float, default=None)
    cl.set_defaults(fn=_cmd_classical)
    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    try:
        args = ap.parse_args(argv)
    except SystemExit as exc:  # argparse uses 2 for usage errors already
        return int(exc.code or 0)
    return guarded(args.fn, args)


if __name__ == "__main__":
    sys.exit(main())
