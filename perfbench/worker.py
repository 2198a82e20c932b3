"""One benchmark process for one workload; started by run.py.

    worker.py --workload W --seed N --setup-only
        import, build the inputs, make the warm-up call, exit.
    worker.py --workload W --seed N --seconds S --trace 0
        make floor(S / PASS_S) passes over the workload, at least one, and
        print the end-to-end metrics.  PASS_S is the workload's pass time
        measured when the benchmark was defined, so the run lasts about S
        seconds there and every later commit measures the same items.
    worker.py --workload W --seed N --trace 1
        one untraced pass, then one traced pass over the same inputs; print
        the per-layer metrics.  Counts depend on the seed only.

The last line of standard output is a JSON object; run.py adds setup_s.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from fdtd_stability import __file__ as PACKAGE_INIT
from tracer import LAYERS, Tracer
from workloads import WORKLOADS

MIN_TAIL_BEYOND = 10  # samples beyond the reported tail percentile


def run_pass(workload) -> tuple[float, list[float], int]:
    """One pass; returns (wall seconds, item latencies in ms, failed items)."""
    perf = time.perf_counter
    item_ms = []
    failed = 0
    t_pass = perf()
    for item in workload.items:
        t0 = perf()
        ok = workload.run_item(item)
        item_ms.append((perf() - t0) * 1e3)
        failed += not ok
    wall = perf() - t_pass
    if not workload.end_pass():
        failed += 1
        print(f"{workload.name}: pass output digest differs from the reference",
              file=sys.stderr)
    return wall, item_ms, failed


def tail(values: list[float]) -> tuple[float, float]:
    """Value at the highest percentile with MIN_TAIL_BEYOND samples beyond
    it, and that percentile (the maximum when there are too few samples)."""
    s = sorted(values)
    idx = len(s) - 1 - MIN_TAIL_BEYOND
    if idx < 0:
        idx = len(s) - 1
    return s[idx], 100.0 * (idx + 1) / len(s)


def timed_run(workload, seconds: float) -> dict:
    passes, item_ms, failed = [], [], 0
    for _ in range(max(1, int(seconds // workload.PASS_S))):
        wall, ms, bad = run_pass(workload)
        passes.append(wall)
        item_ms.extend(ms)
        failed += bad
    attempted = len(item_ms)
    tail_ms, tail_pct = tail(item_ms)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    print(f"{workload.name}: {len(passes)} passes of {len(workload.items)} items; "
          f"item_tail_ms is p{tail_pct:.1f} of {attempted} samples")
    return {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            "wall_s": {"value": statistics.median(passes), "unit": "s"},
            "item_p50_ms": {"value": statistics.median(item_ms), "unit": "ms"},
            "item_tail_ms": {"value": tail_ms, "unit": "ms"},
            "correct_share": {"value": 1.0 - failed / attempted, "unit": "share"},
            "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        },
    }


def src_lines() -> dict[str, tuple[float, str]]:
    out = {}
    total = 0
    for path in sorted(Path(PACKAGE_INIT).parent.glob("*.py")):
        n = path.read_text().count("\n")
        total += n
        name = "init" if path.stem == "__init__" else path.stem
        out[f"{name}.src_lines"] = (n, "lines")
    out["package.src_lines"] = (total, "lines")
    return out


def traced_run(workload) -> dict:
    untraced_wall, _, failed = run_pass(workload)
    with Tracer() as tracer:
        traced_wall, _, bad = run_pass(workload)
    failed += bad
    metrics = tracer.metrics(traced_wall)
    metrics.update({
        "trace.wall_s": (traced_wall, "s"),
        "trace.untraced_wall_s": (untraced_wall, "s"),
        "trace.overhead_s": (traced_wall - untraced_wall, "s"),
        "trace.overhead_share": ((traced_wall - untraced_wall) / untraced_wall, "share"),
    })
    metrics.update(src_lines())
    idle = [l for l in workload.required_layers
            if not any(n for s, n in tracer.calls.items() if s.startswith(l + "."))]
    if idle:
        raise SystemExit(f"{workload.name}: traced layers with zero calls: {idle}")
    shares = ", ".join(f"{l} {metrics[l + '.self_share'][0]:.1%}" for l in LAYERS)
    print(f"{workload.name}: self time share of the traced pass: {shares}")
    return {
        "correct": failed == 0,
        "attempted": 2 * len(workload.items),
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()
    workload = WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    if args.setup_only:
        return 0
    result = traced_run(workload) if args.trace else timed_run(workload, args.seconds)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
