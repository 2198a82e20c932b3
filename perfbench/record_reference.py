"""Record the verify-sweep reference: the verdict columns of every verify
plan point, keyed by point, as the program computes them now.

Run from the repository root after a change that is meant to alter verify
verdicts, and commit the result with that change:

    PYTHONPATH=src python3 perfbench/record_reference.py
"""

import csv

from fdtd_stability import cli
from workloads import VERIFY_REFERENCE, verdict_columns, verify_key


def main() -> None:
    plan = cli.build_verify_plan()
    rows, hard = cli.run_verify(plan)
    if hard:
        raise SystemExit(f"{hard} hard disagreements; not recording a reference")
    keys = [verify_key(pt) for pt in plan]
    if len(set(keys)) != len(keys):
        raise SystemExit("verify plan keys are not unique")
    with open(VERIFY_REFERENCE, "w", newline="") as f:
        out = csv.writer(f, lineterminator="\n")
        out.writerow(("key", "verdicts"))
        out.writerows((key, verdict_columns(row)) for key, row in zip(keys, rows))
    print(f"wrote {len(keys)} points to {VERIFY_REFERENCE}")


if __name__ == "__main__":
    main()
