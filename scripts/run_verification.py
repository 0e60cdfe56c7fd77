#!/usr/bin/env python3
"""Run the identity verification suite over a grid of field orders and slot
counts and print one line per report.

The default grid reproduces the standard gate: every registered identity,
exhaustive over q in {3,4,5} at every allowed n <= 2, then 500 seeded samples
per q in {7,8,9,11,13}.  Larger fields and n=3 are reachable from the flags,
e.g.

    python scripts/run_verification.py --id t4.pfaff --q 16,17 --n 3 \
        --mode sampled --count 200
"""

import sys
import time

from ffhyper import cli, identities

GATE_QS = identities.GATE_EXHAUSTIVE_QS + identities.GATE_SAMPLED_QS
EXHAUSTIVE_MAX_Q = max(identities.GATE_EXHAUSTIVE_QS)


def parse_args():
    ap = cli.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--id", default="all",
                    help='identity id(s), comma-separated, or "all"')
    ap.add_argument("--q", default=",".join(map(str, GATE_QS)),
                    help='field orders, "p^k" or integer, comma-separated '
                         "(default: gate grid)")
    ap.add_argument("--n", default=None,
                    help="slot counts, comma-separated (default: all allowed <= 2)")
    ap.add_argument("--mode", default=None, choices=identities.MODES,
                    help="force one mode (default: exhaustive <=5, sampled above)")
    ap.add_argument("--count", type=int, default=identities.DEFAULT_SAMPLES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--cap", type=int, default=identities.DEFAULT_CAP)
    ap.add_argument("--json", default=None, help="also write reports to a file")
    return ap.parse_args()


def run(args):
    descs = cli.parse_ids(args.id)
    qs, max_q = cli.parse_orders(args.q)  # every q, before the first report
    runs = cli.plan_runs(descs, cli._ints(args.n) or (0, 1, 2))

    rows = []
    failed = 0
    t0 = time.perf_counter()
    for ident, n_list in runs:
        for q in qs:
            mode = args.mode or ("exhaustive" if q <= EXHAUSTIVE_MAX_Q else "sampled")
            reports = identities.verify(
                ident, [q], mode=mode, n_list=n_list, seed=args.seed,
                count=args.count, cap=args.cap, max_q=max_q)
            for r in reports:
                rows.append(r)
                failed += len(r.failures)
                line = (f"{r.id:<16} q={r.q:<3} n={r.n} {r.mode:<10} "
                        f"tested={r.tested:<7} excluded={r.excluded:<6} "
                        f"failures={len(r.failures)}")
                if r.mode == "boundary":
                    line += (f" mismatches={r.mismatches}"
                             f" undefined={r.undefined}")
                print(line)

    elapsed = time.perf_counter() - t0
    print(f"\n{len(rows)} reports, {failed} failures, {elapsed:.1f}s")
    if args.json:
        with open(args.json, "w", encoding="utf-8") as fh:
            fh.write(cli.report_document(rows))
        print(f"wrote {args.json}")
    return 1 if failed else 0


def main():
    """Exit 0 when every report passes, 1 on identity failures, 2 on a usage
    error and 3 on a domain error (the exit codes of the ffhyper CLI)."""
    return cli.guarded(run, parse_args())


if __name__ == "__main__":
    sys.exit(main())
