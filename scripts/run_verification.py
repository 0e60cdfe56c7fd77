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

import argparse
import json
import sys
import time

from ffhyper import cli, identities

GATE_QS = identities.GATE_EXHAUSTIVE_QS + identities.GATE_SAMPLED_QS
EXHAUSTIVE_MAX_Q = max(identities.GATE_EXHAUSTIVE_QS)


def parse_args():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--id", default="all",
                    help='identity id(s), comma-separated, or "all"')
    ap.add_argument("--q", default=None,
                    help="field orders, comma-separated (default: gate grid)")
    ap.add_argument("--n", default=None,
                    help="slot counts, comma-separated (default: all allowed <= 2)")
    ap.add_argument("--mode", default=None,
                    choices=["exhaustive", "sampled", "boundary"],
                    help="force one mode (default: exhaustive <=5, sampled above)")
    ap.add_argument("--count", type=int, default=identities.DEFAULT_SAMPLES)
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--cap", type=int, default=identities.DEFAULT_CAP)
    ap.add_argument("--json", default=None, help="also write reports to a file")
    return ap.parse_args()


def main():
    args = parse_args()
    if args.id == "all":
        descs = list(identities.list_identities())
    else:
        descs = [identities.get_identity(v.strip())
                 for v in args.id.split(",")]
    qs = [int(v) for v in args.q.split(",")] if args.q else None

    rows = []
    failed = 0
    t0 = time.perf_counter()
    for desc in descs:
        if args.n:
            n_list = [int(v) for v in args.n.split(",") if
                      desc.allows_n(int(v))]
            if not n_list:
                continue
        else:
            n_list = [n for n in (0, 1, 2) if desc.allows_n(n)]
        grid = [(q, args.mode or
                 ("exhaustive" if q <= EXHAUSTIVE_MAX_Q else "sampled"))
                for q in (qs or GATE_QS)]
        for q, mode in grid:
            reports = identities.verify(
                desc.id, [q], mode=mode, n_list=n_list, seed=args.seed,
                count=args.count, cap=args.cap)
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
        doc = {"schema": cli.SCHEMA,
               "reports": [r.to_dict() for r in rows]}
        with open(args.json, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.json}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
