#!/usr/bin/env python3
"""Sweep the floating-point identity checks over randomly drawn parameter
points and report the worst residual per check.

Points are drawn inside safe domains (|x| bounded away from 1, Re(b1), Re(b2)
>= 1 for the quadrature check) from a seeded generator, so runs reproduce.
"""

import math
import random
import sys

from ffhyper import classical, cli


def draw_integral(rng, n):
    b = [rng.uniform(1.0, 2.5), rng.uniform(1.0, 2.5)] + \
        [rng.uniform(0.2, 2.0) for _ in range(n - 2)]
    return classical.ClassicalFdParams(
        a=rng.uniform(0.2, 1.5), b=tuple(b),
        c=sum(b) + rng.uniform(0.1, 1.0),
        x=tuple(rng.uniform(-0.6, 0.6) for _ in range(n)))


def draw_ksum(rng, n):
    b = [rng.uniform(0.2, 2.0) for _ in range(n)]
    return classical.ClassicalFdParams(
        a=rng.uniform(0.2, 1.5), b=tuple(b),
        c=sum(b) + rng.uniform(0.1, 1.0),
        x=tuple(rng.uniform(-0.6, 0.6) for _ in range(n)))


def draw_mr(rng, n):
    b = [rng.uniform(0.2, 2.0) for _ in range(n)]
    # keep both x_j and the transformed (x_j - x_n)/(1 - x_n) comfortably
    # inside the unit disk; M=90 pushes truncation error below 1e-12
    xn = rng.uniform(-0.25, 0.2)
    xs = [xn + (1 - xn) * rng.uniform(-0.3, 0.3)
          for _ in range(n - 1)] + [xn]
    return classical.ClassicalFdParams(
        a=rng.uniform(0.2, 1.5), b=tuple(b), c=sum(b), x=tuple(xs), M=90)


def main():
    ap = cli.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--trials", type=int, default=25)
    ap.add_argument("--n", type=int, default=3, help="slot count (>= 2)")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--tol-integral", type=float, default=1e-8)
    ap.add_argument("--tol-series", type=float, default=1e-9)
    args = ap.parse_args()
    if args.n < 2:
        ap.error("need n >= 2")
    if args.trials < 1:
        ap.error("need --trials >= 1")
    try:
        cli.check_tolerance("--tol-integral", args.tol_integral)
        cli.check_tolerance("--tol-series", args.tol_series)
    except ValueError as exc:
        print(f"{ap.prog}: error: {exc}", file=sys.stderr)
        return 2

    rng = random.Random(args.seed)
    checks = [
        ("integral", draw_integral, classical.check_integral_formula,
         args.tol_integral),
        ("ksum", draw_ksum, classical.check_ksum_formula, args.tol_series),
        ("mr", draw_mr, classical.check_mr_reduction, args.tol_series),
    ]
    bad = 0
    for name, draw, check, tol in checks:
        residuals = [check(draw(rng, args.n)) for _ in range(args.trials)]
        # max() keeps an earlier finite value over a NaN, so a non-finite
        # residual is the worst outright; it fails every `< tol`
        worst = next((r for r in residuals if not math.isfinite(r)), max(residuals))
        status = "ok" if worst < tol else "FAIL"
        bad += status == "FAIL"
        print(f"{name:<9} trials={args.trials} n={args.n} "
              f"worst residual {worst:.3e} (tol {tol:.0e}) {status}")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
