"""Self-test of the benchmark.

    python3 perfbench/selftest.py [--seed N] [WORKLOAD ...]

For each workload (all by default): two traced runs with the same seed must
give identical deterministic counts (everything but times and time-based
rates), every run must report exactly the metrics BENCHMARK.json declares
and be correct, and the traced run must attribute at least 90% of its wall
time to the layers the workload is meant to stress.  Takes about five
minutes for all three workloads.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# Workload -> layers that must account for at least 90% of the traced
# pass's wall time between them.
ATTRIBUTION = {
    "boundary-search": ("analyzer", "polyloc", "schemes"),
    "verify-sweep": ("simulator",),
    "wide-grid": ("simulator",),
}


def run(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} failed:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def deterministic(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items()
            if not k.startswith("trace.") and v["unit"] not in ("s", "1/s", "share")
            or k == "cli.useful_run_share"}


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("workloads", nargs="*",
                    default=[w["name"] for w in spec["workloads"]])
    args = ap.parse_args()
    declared = {"0": {m["name"] for m in spec["end_to_end"]},
                "1": {m["name"] for m in spec["per_layer"]}}
    problems = []
    for w in args.workloads:
        plain = run(w, args.seed, 0)
        first, second = run(w, args.seed, 1), run(w, args.seed, 1)
        for trace, res in (("0", plain), ("1", first), ("1", second)):
            if set(res["metrics"]) != declared[trace]:
                problems.append(f"{w} --trace {trace}: metrics differ from BENCHMARK.json: "
                                f"{sorted(set(res['metrics']) ^ declared[trace])}")
            if not res["correct"] or res["failed"]:
                problems.append(f"{w} --trace {trace}: {res['failed']} failed items")
        a, b = deterministic(first["metrics"]), deterministic(second["metrics"])
        diff = sorted(k for k in a if a[k] != b.get(k))
        if diff:
            problems.append(f"{w}: counts differ between identical runs: {diff}")
        share = sum(first["metrics"][l + ".self_share"]["value"] for l in ATTRIBUTION[w])
        if share < 0.9:
            problems.append(f"{w}: {'+'.join(ATTRIBUTION[w])} self share {share:.3f} < 0.9")
        print(f"{w}: {len(a)} counts identical over two runs: {not diff}; "
              f"{'+'.join(ATTRIBUTION[w])} self share {share:.3f}; tracing overhead "
              f"{first['metrics']['trace.overhead_share']['value']:.1%}")
    for p in problems:
        print("FAIL", p)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
