#!/usr/bin/env python3
"""Regenerate bench/reference.json, the output digests every benchmark op must
reproduce.  Run it from the root of a checkout whose outputs are trusted:

    python3 bench/make_reference.py

Gate digests come from `scripts/run_verification.py --json` with its default
grid at each variant's seed, so a gate pass must reproduce the script's 352
reports.  Large-q and cli digests come from one benchmark pass per variant.
Every op of every variant, the classical ones included, must pass its own
check (no identity failures, exit code 0, residual under tolerance).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, os.path.join(ROOT, "src"))

import run  # noqa: E402
import workloads  # noqa: E402


def gate_from_script(variant: int) -> dict:
    with tempfile.TemporaryDirectory(dir=HERE) as tmp:
        out = os.path.join(tmp, "gate.json")
        subprocess.run([sys.executable, os.path.join(ROOT, "scripts", "run_verification.py"),
                        "--seed", str(workloads.gate_seed(variant)), "--json", out],
                       cwd=ROOT, env=dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src")),
                       check=True, stdout=subprocess.DEVNULL)
        with open(out, encoding="utf-8") as fh:
            reports = json.load(fh)["reports"]
    keys = [workloads.report_key(r["id"], r["q"], r["n"], r["mode"], r["seed"])
            for r in reports]
    ops = workloads.build("gate", variant)
    if keys != [key for key, _, _ in ops]:
        sys.exit("the gate op list differs from the grid of run_verification.py")
    if any(r["failures"] for r in reports):
        sys.exit(f"run_verification.py reports identity failures at variant {variant}")
    return {"keys_sha": run.keys_sha(keys),
            "digests": [workloads.report_digest(r) for r in reports]}


def from_pass(workload: str, variant: int) -> dict:
    p = run.spawn(workload, variant)
    bad = [op for op in p["ops"] if op[3] is not None]
    if bad:
        sys.exit(f"{workload} variant {variant}: {bad[:3]}")
    return {"keys_sha": run.keys_sha(op[0] for op in p["ops"]),
            "digests": [op[2] for op in p["ops"]]}


def dump(ref: dict) -> str:
    """JSON with one line per (workload, variant)."""
    return "{\n" + ",\n".join(
        f" {json.dumps(w)}: {{\n" + ",\n".join(
            f"  {json.dumps(v)}: {json.dumps(entry)}" for v, entry in variants.items())
        + "\n }" for w, variants in ref.items()) + "\n}\n"


def main() -> int:
    ref = {"gate": {}, "large-q": {}, "cli": {}}
    for v in range(workloads.VARIANTS):
        ref["gate"][str(v)] = gate_from_script(v)
        for w in ("large-q", "cli"):
            ref[w][str(v)] = from_pass(w, v)
        from_pass("classical", v)  # no digests: floats are checked by tolerance
        print(f"variant {v} done", flush=True)
    with open(os.path.join(HERE, "reference.json"), "w", encoding="utf-8") as fh:
        fh.write(dump(ref))
    return 0


if __name__ == "__main__":
    sys.exit(main())
