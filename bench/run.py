#!/usr/bin/env python3
"""The ffhyper benchmark: one workload per call, from the root of a checkout.

    python3 bench/run.py --workload gate --seed 1 --seconds 30 --trace 0

Every pass of a workload runs in a fresh single-threaded Python subprocess
(bench/worker.py), so each pass pays field builds and fills its memos from
cold, as a real run does.  One client runs the ops back to back (a closed
loop).  The inputs derive from the seed (variant = seed mod 8), and every pass
of a run runs the same inputs.  With --trace 0 the command starts passes while
the next one still fits in --seconds (at least MIN_PASSES), and takes each op's
median time over the passes.  The times are the host-normalised ones of
worker.py (op time scaled by the speed of a fixed loop timed next to it), so
the metrics follow ffhyper and not the load on the shared host:
wall_norm_s is the sum of the per-op medians, op_norm_ms_p50/op_norm_ms_p90
are percentiles over them.  The raw pass time and the loop's time are printed
too.  setup_s is raw: the median over every pass and at least SETUP_SAMPLES
set-ups.  With --trace 1 it runs one untraced and one traced pass and prints
the per-layer metrics of the traced one.

Every op's output is checked against bench/reference.json (or, for float
results, against a tolerance).  The last line of stdout is one JSON object:
{"correct", "attempted", "failed", "metrics"}; failed over attempted is the
failed-op fraction, also printed as failed_frac.  The exit code is 0 only when
every op passed its check.  bench/baseline.json records the baseline and which
end-to-end metric each layer metric should move.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
from time import perf_counter

import tracing  # bench/tracing.py; imports no ffhyper

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

WORKLOADS = ("gate", "large-q", "cli", "classical")
SETUP_SAMPLES = 7
# Passes per run at the least; more run while the next one fits in --seconds.
# A gate pass takes 11-17 s and a cli pass 7-10 s on a 2.1 GHz Xeon VM, so a
# run of either stays near --seconds even when the host is slow.
MIN_PASSES = {"gate": 1, "large-q": 3, "cli": 2, "classical": 3}
PASS_TIMEOUT_S = 150

END_TO_END = (("setup_s", "s"), ("wall_norm_s", "s"), ("op_norm_ms_p50", "ms"),
              ("op_norm_ms_p90", "ms"), ("peak_rss_mib", "MiB"))
RAW, NORM = 1, 4  # per-op raw and host-normalised milliseconds in a pass's op rows


class BenchError(Exception):
    pass


def keys_sha(keys) -> str:
    return hashlib.sha256("\n".join(keys).encode()).hexdigest()[:16]


def spawn(workload: str, seed: int, *flags: str) -> dict:
    env = dict(os.environ, PYTHONHASHSEED="0", OMP_NUM_THREADS="1",
               OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), "--workload", workload,
           "--seed", str(seed), *flags]
    try:
        proc = subprocess.run(cmd + ["--launch", repr(perf_counter())], cwd=ROOT,
                              env=env, capture_output=True, text=True,
                              timeout=PASS_TIMEOUT_S)
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {PASS_TIMEOUT_S} s") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def check_ops(workload: str, passes: list[dict], reference: dict):
    """Count failed ops over all passes; returns (attempted, failed, messages)."""
    attempted = failed = 0
    messages = []
    for p in passes:
        expected = reference.get(workload, {}).get(str(p["variant"]))
        keys = [op[0] for op in p["ops"]]
        if expected is not None and keys_sha(keys) != expected["keys_sha"]:
            messages.append("op list differs from the reference")
            attempted += len(keys)
            failed += len(keys)
            continue
        for i, (key, _, dig, problem, _) in enumerate(p["ops"]):
            attempted += 1
            if problem is None and dig is not None:
                want = expected["digests"][i] if expected else "no reference"
                if dig != want:
                    problem = f"output digest {dig} != {want}"
            if problem is not None:
                failed += 1
                messages.append(f"{key}: {problem}")
    return attempted, failed, messages


def end_to_end(workload: str, seed: int, seconds: float) -> tuple[list, dict]:
    start = perf_counter()
    passes = []
    while True:
        t0 = perf_counter()
        passes.append(spawn(workload, seed))
        took = perf_counter() - t0
        if len(passes) >= MIN_PASSES[workload] and perf_counter() - start + took > seconds:
            break
    keys = [op[0] for op in passes[0]["ops"]]
    if any([op[0] for op in p["ops"]] != keys for p in passes):
        raise BenchError("passes of one seed ran different op lists")
    setups = [p["setup_s"] for p in passes]
    while len(setups) < SETUP_SAMPLES:
        setups.append(spawn(workload, seed, "--setup-only")["setup_s"])

    def per_op(col):
        return [statistics.median(p["ops"][i][col] for p in passes) for i in range(len(keys))]

    op_ms = per_op(NORM)
    values = {
        "setup_s": statistics.median(setups),
        "wall_norm_s": sum(op_ms) / 1000.0,
        "op_norm_ms_p50": statistics.median(op_ms),
        "op_norm_ms_p90": statistics.quantiles(op_ms, n=10)[8],
        "peak_rss_mib": statistics.median(p["peak_rss_mib"] for p in passes),
    }
    print(f"{workload}: {len(passes)} passes of {len(keys)} ops, "
          f"{len(setups)} set-ups; raw pass time {sum(per_op(RAW)) / 1000.0:.3f} s, "
          f"calibration loop {statistics.median(p['calib_ms'] for p in passes):.3f} ms")
    return passes, {name: (values[name], u) for name, u in END_TO_END}


def traced(workload: str, seed: int) -> tuple[list, dict]:
    base = spawn(workload, seed)
    run = spawn(workload, seed, "--trace")
    layers = dict(run["layers"])
    layers["trace.overhead_ratio"] = (sum(op[NORM] for op in run["ops"])
                                      / sum(op[NORM] for op in base["ops"]) - 1.0)
    for attr in run["absent"]:
        print(f"absent: {attr} (its layer metrics read 0)")
    print(f"{workload}: untraced pass {base['wall_s']:.3f} s, "
          f"traced pass {run['wall_s']:.3f} s")
    return [base, run], {m: (layers[m], tracing.unit(m)) for m in tracing.metric_names()}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "ffhyper", "__init__.py")):
        print("error: src/ffhyper not found; run from the root of an ffhyper checkout",
              file=sys.stderr)
        return 2
    with open(os.path.join(HERE, "reference.json"), encoding="utf-8") as fh:
        reference = json.load(fh)

    try:
        if args.trace:
            passes, metrics = traced(args.workload, args.seed)
        else:
            passes, metrics = end_to_end(args.workload, args.seed, args.seconds)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    attempted, failed, messages = check_ops(args.workload, passes, reference)
    for m in messages[:20]:
        print(f"FAILED {m}", file=sys.stderr)
    for name, (value, u) in metrics.items():
        print(f"  {name:<36} {value:>14.6g} {u}")
    print(f"  {'failed_frac':<36} {failed / attempted:>14.6g} ({failed}/{attempted} ops)")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
