"""Check that the traced run's counts repeat exactly across processes.

    python3 benchmarks/repeat_check.py [--seed N] [--workload W ...]

Runs ``run.py --trace 1`` twice per workload, one process after the other,
and compares every count-valued per-layer metric (the exact counts named in
tracing.EXACT_COUNTS among them) bit for bit.  Exits 1 on any difference or
failed run.  Takes about four traced passes per workload (~3 minutes for all
three on a 2-core x86_64 machine).
"""
from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

from tracing import EXACT_COUNTS
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent


def traced_counts(workload: str, seed: int) -> dict:
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        capture_output=True, text=True, check=True, timeout=600,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    if not res["correct"]:
        raise RuntimeError(f"{workload}: traced run failed its checks")
    return {k: v["value"] for k, v in res["metrics"].items() if v["unit"] == "count"}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--workload", action="append", choices=sorted(WORKLOADS))
    args = ap.parse_args()
    bad = 0
    for w in args.workload or sorted(WORKLOADS):
        first, second = traced_counts(w, args.seed), traced_counts(w, args.seed)
        missing = [k for k in EXACT_COUNTS if k not in first]
        differ = sorted(k for k in first if first[k] != second.get(k))
        bad += len(missing) + len(differ)
        print(json.dumps({"workload": w, "seed": args.seed, "counts": first,
                          "missing": missing, "differ": differ}))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
