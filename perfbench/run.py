"""Benchmark entry point for the fdtd-stability laboratory.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The program is imported from ``src/`` of the
same checkout; nothing is installed.  Each launch of the workload is its own
child process whose environment (only) pins BLAS and OpenMP to one thread.
With ``--trace 0`` the set-up time is the median of several fresh launches
that import, build the inputs and make the warm-up call, and the measuring
launch reports the other end-to-end metrics.  With ``--trace 1`` one launch
reports the per-layer metrics.  The last line of standard output is the
JSON result.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("boundary-search", "verify-sweep", "wide-grid")
SETUP_LAUNCHES = 7
CHILD_TIMEOUT_S = 170.0
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    env.update({var: "1" for var in THREAD_VARS})
    env["PYTHONPATH"] = os.pathsep.join(
        [str(SRC)] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    return env


def launch(cmd: list[str], timeout: float) -> subprocess.CompletedProcess:
    """Run a child to completion; it is killed and reaped on timeout."""
    return subprocess.run(cmd, env=child_env(), cwd=ROOT, capture_output=True,
                          text=True, timeout=timeout)


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args()
    if not (SRC / "fdtd_stability" / "__init__.py").is_file():
        print(f"program source not found under {SRC}", file=sys.stderr)
        return 2
    deadline = time.monotonic() + CHILD_TIMEOUT_S
    worker = [sys.executable, str(HERE / "worker.py"),
              "--workload", args.workload, "--seed", str(args.seed)]

    setup_s = []
    if not args.trace:
        for _ in range(SETUP_LAUNCHES):
            t0 = time.perf_counter()
            proc = launch(worker + ["--setup-only"], deadline - time.monotonic())
            setup_s.append(time.perf_counter() - t0)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                print(f"set-up launch failed with code {proc.returncode}", file=sys.stderr)
                return 1

    proc = launch(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)],
                  deadline - time.monotonic())
    sys.stderr.write(proc.stderr)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        print(f"measuring launch failed with code {proc.returncode}", file=sys.stderr)
        return 1
    result = json.loads(lines[-1])
    if setup_s:
        result["metrics"]["setup_s"] = {"value": statistics.median(setup_s), "unit": "s"}
        print(f"setup_s: median of {len(setup_s)} launches "
              + " ".join(f"{s:.4f}" for s in setup_s))
    for line in lines[:-1]:
        print(line)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
