"""One pass of one workload in a fresh interpreter; run.py starts it.

Set-up is everything before the first timed op: interpreter start,
`import ffhyper` and building the op list.  The pass then runs every op once,
back to back, and prints one JSON line: set-up and pass time, per-op times,
output digests and problems, peak RSS and, when traced, the per-layer metrics.
With --setup-only it stops after set-up.

Between two ops (outside their timing) the pass times a fixed pure-Python loop
that runs no ffhyper code.  The host is shared, and how fast it runs this
process changes by up to half within seconds; the loop's time next to an op
measures that speed.  Each op's time is also reported normalised: multiplied
by REF_CALIB_S over the median of the four loop timings around it, so it reads
as the time the op takes on a host where the loop takes REF_CALIB_S.  A change
to ffhyper moves the normalised time by the same factor as the raw time; a
slow spell of the host slows the op and the loop timings around it alike, and
cancels.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
from time import perf_counter

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

CALIB_ITERS = 17_000  # about 1 ms on a quiet 2.1 GHz Xeon core (Python 3.11)
REF_CALIB_S = 0.001


def calibrate() -> float:
    """Seconds of a fixed pure-Python loop that runs no ffhyper code."""
    t0 = perf_counter()
    s = 0
    for i in range(CALIB_ITERS):
        s += i * i % 7
    return perf_counter() - t0


def host_factor(cal: list[float], i: int) -> float:
    """REF_CALIB_S over the median loop time around op i, which ran between
    cal[i] and cal[i + 1]; four timings, so one interrupted loop cannot set it."""
    return REF_CALIB_S / statistics.median(cal[max(0, i - 1):i + 3])


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--launch", type=float, required=True,
                    help="perf_counter() of the parent just before it started this process")
    ap.add_argument("--setup-only", action="store_true")
    ap.add_argument("--trace", action="store_true")
    args = ap.parse_args()

    import ffhyper  # noqa: F401  (set-up includes the package import)
    import tracing
    import workloads

    variant = args.seed % workloads.VARIANTS
    ops = workloads.build(args.workload, variant)
    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracer.install()
    run = tracer.run_op if tracer else (lambda fn: fn())

    t_first = perf_counter()
    if args.setup_only:
        print(json.dumps({"setup_s": t_first - args.launch}))
        return 0
    outs = []
    cal = [calibrate()]
    for _, fn, _ in ops:
        t0 = perf_counter()
        try:
            out, err = run(fn), None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            out, err = None, f"{type(exc).__name__}: {exc}"
        outs.append((perf_counter() - t0, out, err))
        cal.append(calibrate())
    rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    results = []
    for i, ((key, _, check), (dt, out, err)) in enumerate(zip(ops, outs)):
        dig, problem = check(out) if err is None else (None, err)
        results.append([key, dt * 1000.0, dig, problem, dt * 1000.0 * host_factor(cal, i)])
    doc = {"variant": variant, "setup_s": t_first - args.launch,
           "wall_s": sum(dt for dt, _, _ in outs),
           "calib_ms": statistics.median(cal) * 1000.0,
           "peak_rss_mib": rss_mib, "ops": results}
    if tracer:
        doc["layers"] = tracer.metrics()
        doc["absent"] = tracer.absent
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
