#!/usr/bin/env python3
"""Benchmark self-test: run a traced pass of a short workload twice and require
every deterministic count to repeat exactly (calls, mac, neval, every ratio but
the timing ones, and every output digest), and every op to pass its check.

    python3 bench/selftest.py [workload ...]      # default: cli classical
"""

from __future__ import annotations

import json
import os
import sys

import run
import tracing

HERE = os.path.dirname(os.path.abspath(__file__))

SEED = 1
TIMING = ("trace.overhead_ratio", "trace.unattributed_ratio")


def deterministic(metric: str) -> bool:
    return not metric.endswith("self_s") and metric not in TIMING


def main(argv: list[str]) -> int:
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)
    bad = 0
    for workload in argv or ["cli", "classical"]:
        a, b = (run.spawn(workload, SEED, "--trace") for _ in range(2))
        for m in filter(deterministic, tracing.metric_names()):
            if m in a["layers"] and a["layers"][m] != b["layers"][m]:
                print(f"{workload}: {m} differs: {a['layers'][m]} != {b['layers'][m]}")
                bad += 1
        if [op[:3:2] for op in a["ops"]] != [op[:3:2] for op in b["ops"]]:
            print(f"{workload}: op outputs differ between two passes")
            bad += 1
        _, failed, messages = run.check_ops(workload, [a, b], reference)
        for m in messages[:10]:
            print(f"{workload}: FAILED {m}")
        bad += failed
        calls = {m: v for m, v in a["layers"].items() if m.endswith((".calls", ".mac", ".neval"))}
        print(f"{workload}: {len(a['ops'])} ops, counts {json.dumps(calls)}")
    print("selftest", "FAILED" if bad else "ok")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
