"""Golden outputs: the ``tables`` report, ``scan --vary q`` CSVs, 2D
``analyze`` CSV rows and the verify plan, compared byte for byte with the
files under ``tests/golden/``.

The files pin the verdicts and numbers of the whole analytic route, so a
refactor that is meant to change no output must leave them untouched.
Re-record them only when outputs are meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import pytest

from fdtd_stability import Scheme, cli

GOLDEN = Path(__file__).resolve().parent / "golden"

_DEBYE = ("--t-r", "9.4e-12", "--k", "1e-12", "--h", "2e-4")
_LORENTZ = ("--omega1", "4e16", "--k", "2.5e-17", "--h", "7.5e-9")

_MEDIA = {
    # The second medium of each kind has eps_s = eps_inf, the Lorentz one
    # undamped (the degenerate harmonic case).
    "debye": (("water", ("--eps-inf", "1.8", "--eps-s", "81.0") + _DEBYE),
              ("equal", ("--eps-inf", "1.8", "--eps-s", "1.8") + _DEBYE)),
    "lorentz": (("optical", ("--eps-inf", "1.0", "--eps-s", "2.25",
                             "--nu", "0.56e16") + _LORENTZ),
                ("harmonic", ("--eps-inf", "1.0", "--eps-s", "1.0",
                              "--nu", "0") + _LORENTZ)),
}
# (file stem, scheme, medium flags)
SCAN_CASES = [(f"{s.value}_{label}", s.value, flags)
              for s in Scheme for label, flags in _MEDIA[s.kind]]


def _run_cli(argv: list[str]) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        rc = cli.main(argv)
    assert rc == 0, f"{argv} exited with {rc}"
    return out.getvalue()


def _csv_output(argv: list[str]) -> str:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "out.csv")
        _run_cli(argv + ["--output", path])
        with open(path, encoding="utf-8") as fh:
            return fh.read()


def tables_text() -> str:
    return _run_cli(["tables"])


def scan_text(scheme: str, flags: tuple[str, ...]) -> str:
    return _csv_output(["scan", "--scheme", scheme, *flags, "--vary", "q",
                        "--start", "0", "--stop", "5", "--count", "201"])


def analyze_2d_text() -> str:
    """One analyze CSV row per 2D point of the verify plan, TE and TM."""
    header = None
    rows = []
    for pt in cli.build_verify_plan():
        if pt.dim != 2:
            continue
        m = pt.medium
        medium = (["--t-r", repr(m.t_r)] if m.kind == "debye"
                  else ["--omega1", repr(m.omega1), "--nu", repr(m.nu)])
        text = _csv_output([
            "analyze", "--scheme", pt.scheme.value, "--eps-inf", repr(m.eps_inf),
            "--eps-s", repr(m.eps_s), *medium, "--k", repr(pt.k), "--h", repr(pt.h),
            "--dim", "2", "--polarization", pt.polarization,
            "--xi", repr(2.0 * math.pi * pt.m_x / pt.grid),
            "--xi-y", repr(2.0 * math.pi * pt.m_y / pt.grid)])
        header, row = text.splitlines()
        rows.append(row)
    return "\n".join([header] + rows) + "\n"


def verify_plan_text() -> str:
    lines = []
    for pt in cli.build_verify_plan():
        m = pt.medium
        lines.append("|".join((
            pt.scheme.value, pt.medium_name, m.kind, repr(m.eps_inf), repr(m.eps_s),
            repr(m.t_r), repr(m.omega1), repr(m.nu), repr(pt.k), repr(pt.h),
            str(pt.dim), str(pt.polarization), str(pt.m_x), str(pt.m_y),
            str(pt.grid), str(pt.steps), repr(pt.q_boundary), pt.regime)))
    return "\n".join(lines) + "\n"


def _artifacts():
    yield "tables.txt", tables_text
    for stem, scheme, flags in SCAN_CASES:
        yield f"scan_q_{stem}.csv", lambda s=scheme, f=flags: scan_text(s, f)
    yield "analyze_2d.csv", analyze_2d_text
    yield "verify_plan.txt", verify_plan_text


def _golden(name: str) -> str:
    return (GOLDEN / name).read_text(encoding="utf-8")


@pytest.fixture(autouse=True)
def _no_output_dir(monkeypatch):
    monkeypatch.delenv(cli.OUTPUT_DIR_ENV, raising=False)


def test_tables_stdout_golden():
    assert tables_text() == _golden("tables.txt")


@pytest.mark.parametrize("stem,scheme,flags", SCAN_CASES,
                         ids=[c[0] for c in SCAN_CASES])
def test_scan_q_golden(stem, scheme, flags):
    assert scan_text(scheme, flags) == _golden(f"scan_q_{stem}.csv")


def test_analyze_2d_golden():
    assert analyze_2d_text() == _golden("analyze_2d.csv")


def test_verify_plan_golden():
    assert verify_plan_text() == _golden("verify_plan.txt")


if __name__ == "__main__":
    os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    for name, make in _artifacts():
        (GOLDEN / name).write_text(make(), encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
