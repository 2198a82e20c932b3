"""CLI tests: config parsing, CSV contracts, commands and exit codes."""

import math
import os
from fractions import Fraction
import re
import shlex
from dataclasses import fields
from pathlib import Path
from typing import get_args, get_type_hints

import numpy as np
import pytest

from fdtd_stability import MediumModel, Scheme, classify_at_q, cli, dimensionless_params
from fdtd_stability.cli import (
    RunConfig,
    _config_from_args,
    build_arg_parser,
    build_verify_plan,
    emit_csv,
    main,
    parse_config,
    run_verify,
)
from fdtd_stability.errors import InvalidInputError, NumericalFailureError
from fdtd_stability.polyloc import max_root_modulus
from fdtd_stability.simulator import EmpiricalVerdict
from referees import exact_stable_at_q, fraction_params, tm_factor_2d

WATER_CONFIG = """
# minimal single-point analysis
command = analyze
scheme = debye-joseph
eps_inf = 1.8
eps_s = 81.0
t_r = 9.4e-12
k = 1e-15
h = 1e-6
"""


def test_parse_minimal_config():
    cfg = parse_config(WATER_CONFIG)
    assert cfg.command == "analyze"
    assert cfg.scheme == "debye-joseph"
    assert cfg.eps_inf == 1.8 and cfg.eps_s == 81.0
    assert cfg.t_r == 9.4e-12 and cfg.k == 1e-15 and cfg.h == 1e-6


def test_parse_rejects_unknown_key():
    with pytest.raises(InvalidInputError, match="unknown key"):
        parse_config("command = analyze\nepsilon = 2\n")


def test_parse_reports_line_numbers():
    with pytest.raises(InvalidInputError, match="line 3"):
        parse_config("command = analyze\nscheme = debye-young\nk = fast\n")


def test_missing_eps_inf_named(tmp_path, capsys):
    rc = main(["analyze", "--scheme", "debye-joseph", "--eps-s", "81.0",
               "--t-r", "9.4e-12", "--k", "1e-15", "--h", "1e-6"])
    assert rc == 2
    assert "eps_inf" in capsys.readouterr().err


def test_eps_ordering_constraint_reported(capsys):
    rc = main(["analyze", "--scheme", "debye-joseph", "--eps-inf", "1.8",
               "--eps-s", "1.0", "--t-r", "9.4e-12", "--k", "1e-15",
               "--h", "1e-6"])
    assert rc == 2
    assert "eps_s" in capsys.readouterr().err


def test_csv_float_round_trip(tmp_path):
    values = [math.pi, 1.88e-11, 2.0 / 3.0, 1e-300]
    path = tmp_path / "floats.csv"
    emit_csv([(v,) for v in values], str(path), ("x",))
    lines = path.read_text().splitlines()
    assert lines[0] == "x"
    for raw, v in zip(lines[1:], values):
        assert float(raw) == v


def test_csv_header_only(tmp_path):
    path = tmp_path / "empty.csv"
    emit_csv([], str(path), cli.VERDICT_HEADER)
    assert path.read_text() == ",".join(cli.VERDICT_HEADER) + "\n"


def test_output_dir_env_override(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.OUTPUT_DIR_ENV, str(tmp_path))
    final = emit_csv([(1.0,)], "sub.csv", ("x",))
    assert final == str(tmp_path / "sub.csv")
    assert os.path.exists(final)


def test_analyze_deterministic_output(tmp_path, capsys):
    out1 = tmp_path / "a.csv"
    out2 = tmp_path / "b.csv"
    args = ["analyze", "--scheme", "debye-joseph", "--eps-inf", "1.8",
            "--eps-s", "81.0", "--t-r", "9.4e-12", "--k", "1e-15",
            "--h", "1e-6"]
    assert main(args + ["--output", str(out1)]) == 0
    assert main(args + ["--output", str(out2)]) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_unstable_point_still_succeeds(tmp_path, capsys, water=None):
    from fdtd_stability import MediumModel
    medium = MediumModel.debye(1.8, 81.0, 9.4e-12)
    h = 1e-6
    k = 1.01 * h / medium.c_inf
    out = tmp_path / "unstable.csv"
    rc = main(["analyze", "--scheme", "debye-joseph", "--eps-inf", "1.8",
               "--eps-s", "81.0", "--t-r", "9.4e-12", "--k", f"{k:.17g}",
               "--h", str(h), "--output", str(out)])
    assert rc == 0
    header, row = out.read_text().splitlines()
    assert header == ",".join(cli.ANALYZE_HEADER)
    fields = row.split(",")
    assert fields[0] == "debye-joseph"
    assert fields[9] == "false"          # stable column
    assert float(fields[11]) > 1.0       # max root modulus
    assert fields[12:] == ["", "", ""]   # no xi_y, h_y or polarization in 1D


def test_analyze_with_config_file(tmp_path, capsys):
    cfg_path = tmp_path / "water.cfg"
    cfg_path.write_text(WATER_CONFIG)
    rc = main(["analyze", "--config", str(cfg_path)])
    assert rc == 0
    assert "stable" in capsys.readouterr().out


def test_scan_command(tmp_path, capsys):
    out = tmp_path / "scan.csv"
    rc = main(["scan", "--scheme", "debye-joseph", "--eps-inf", "1.8",
               "--eps-s", "81.0", "--t-r", "9.4e-12", "--k", "1e-15",
               "--h", "1e-6", "--vary", "q", "--start", "0.0",
               "--stop", "4.5", "--count", "10", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 11
    stable_flags = [line.split(",")[9] for line in lines[1:]]
    assert "true" in stable_flags and "false" in stable_flags


def test_simulate_command(tmp_path, capsys):
    out = tmp_path / "growth.csv"
    rc = main(["simulate", "--scheme", "debye-joseph", "--eps-inf", "1.8",
               "--eps-s", "81.0", "--t-r", "9.4e-12", "--k", "1e-15",
               "--h", "1e-6", "--steps", "200", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "step,norm,ratio"
    assert len(lines) == 202  # header + steps + initial state
    first = lines[1].split(",")
    assert int(first[0]) == 0 and float(first[2]) == 1.0


def test_tables_command(capsys):
    assert main(["tables"]) == 0
    out = capsys.readouterr().out
    for scheme in ("debye-joseph", "debye-young", "lorentz-joseph",
                   "lorentz-kashiwa", "lorentz-young"):
        assert scheme in out
    assert "BAD" not in out


def test_tables_single_scheme(capsys):
    assert main(["tables", "--scheme", "lorentz-kashiwa"]) == 0
    out = capsys.readouterr().out
    assert "lorentz-kashiwa: 7 regimes" in out


def test_verify_subsample(tmp_path, capsys):
    out = tmp_path / "verify.csv"
    rc = main(["verify", "--samples", "16", "--output", str(out)])
    assert rc == 0
    lines = out.read_text().splitlines()
    assert lines[0] == ",".join(cli.VERIFY_HEADER)
    assert len(lines) == 17


def test_verify_plan_is_stratified():
    plan = build_verify_plan()
    assert len(plan) >= 200
    schemes = {p.scheme for p in plan}
    assert len(schemes) == 5
    dims = {(p.dim, p.polarization) for p in plan}
    assert (1, None) in dims and (2, "te") in dims and (2, "tm") in dims
    regimes = {p.regime for p in plan}
    assert {"stable", "unstable", "near-boundary", "resonance"} <= regimes


def test_verify_reads_each_resonance_at_the_exact_degenerate_q():
    """The plan's resonance points lie a few roundings off the degenerate q
    in floats, where the doubles' own p_q is stable; `run_verify` reads
    each at the exact degenerate q, analytically unstable, and the growth
    run agrees."""
    plan = [pt for pt in build_verify_plan() if pt.regime == "resonance"]
    rows, hard = run_verify(plan)
    assert len(rows) == 4 and hard == 0
    assert [(r[11], r[13]) for r in rows] == [(False, True)] * 4


def test_analyze_2d_with_empirical(tmp_path, capsys):
    out = tmp_path / "tm.csv"
    rc = main(["analyze", "--scheme", "lorentz-kashiwa", "--eps-inf", "1.0",
               "--eps-s", "2.25", "--omega1", "4e16", "--nu", "0.56e16",
               "--k", "1.5e-17", "--h", "1e-8", "--polarization", "tm",
               "--xi", "1.5", "--xi-y", "0.75",
               "--empirical", "--steps", "150", "--grid", "16",
               "--output", str(out)])
    assert rc == 0
    text = capsys.readouterr().out
    assert "empirical" in text
    assert out.exists()


_KASHIWA_2D = ["analyze", "--scheme", "lorentz-kashiwa", "--eps-inf", "1.0", "--eps-s", "2.25",
               "--omega1", "4e16", "--nu", "0.56e16", "--k", "1.5e-17", "--h", "1e-8",
               "--polarization", "tm", "--xi", "1.5"]


def test_analyze_2d_header_names_xi_y(capsys):
    """Two 2D points that differ only in xi_y print different headers."""
    headers = []
    for xi_y in ("0.75", "2.5"):
        assert main(_KASHIWA_2D + ["--xi-y", xi_y]) == 0
        headers.append(capsys.readouterr().out.splitlines()[0])
    assert "at xi=1.5, xi_y=0.75, q=" in headers[0]
    assert "at xi=1.5, xi_y=2.5, q=" in headers[1]


def test_analyze_2d_rows_name_xi_y_h_y_and_polarization(tmp_path, capsys):
    """Two TM points that differ only in xi_y write CSV rows that differ in
    q and xi_y, and both name h_y and the polarization; the scan columns
    come first, unchanged."""
    rows = []
    for xi_y in ("0.75", "2.5"):
        out = tmp_path / f"{xi_y}.csv"
        assert main(_KASHIWA_2D + ["--h-y", "2e-8", "--xi-y", xi_y, "--output", str(out)]) == 0
        header, row = out.read_text().splitlines()
        rows.append(dict(zip(header.split(","), row.split(","))))
    assert header == ",".join(cli.VERDICT_HEADER + ("xi_y", "h_y", "polarization"))
    assert [float(r["xi_y"]) for r in rows] == [0.75, 2.5]
    assert {(float(r["h_y"]), r["polarization"]) for r in rows} == {(2e-8, "tm")}
    assert [k for k in rows[0] if rows[0][k] != rows[1][k]] == ["q", "xi_y"]


@pytest.mark.parametrize("argv,analytic,ran", [
    (["analyze", "--scheme", "debye-joseph", "--eps-inf", "1.8", "--eps-s", "81.0",
      "--t-r", "9.4e-12", "--k", "1e-15", "--h", "1e-6", "--xi", "2.9"],
     "at xi=2.9, q=", "empirical at xi=2.74889: "),
    (_KASHIWA_2D + ["--xi-y", "0.75"],
     "at xi=1.5, xi_y=0.75, q=", "empirical at xi=1.5708, xi_y=0.785398: "),
], ids=["1d", "2d"])
def test_analyze_empirical_line_names_the_harmonic_it_ran(argv, analytic, ran, capsys):
    """The analytic line reports the point as given; the growth run excites
    the nearest harmonic of the 16-cell grid (xi = 2 pi 7/16 for 2.9, 2 pi
    4/16 for 1.5 and 2 pi 2/16 for 0.75), and the empirical line says so."""
    assert main(argv + ["--empirical", "--steps", "100", "--grid", "16"]) == 0
    header, _, empirical = capsys.readouterr().out.splitlines()
    assert analytic in header
    assert empirical.startswith("  " + ran)


@pytest.mark.parametrize("argv,ran", [
    (["simulate", "--scheme", "debye-joseph", "--eps-inf", "1.8", "--eps-s", "81.0",
      "--t-r", "9.4e-12", "--k", "1e-15", "--h", "1e-6", "--xi", "2.9"],
     "debye-joseph: bounded at xi=2.74889 after "),
    (["simulate"] + _KASHIWA_2D[1:] + ["--xi-y", "0.75"],
     "lorentz-kashiwa: bounded at xi=1.5708, xi_y=0.785398 after "),
], ids=["1d", "2d"])
def test_simulate_names_the_harmonic_it_ran(argv, ran, capsys):
    """Like analyze --empirical, simulate reports the grid harmonic its run
    excited, not the xi it was given: 2 pi 7/16 for 2.9 on 16 cells."""
    assert main(argv + ["--steps", "100", "--grid", "16"]) == 0
    assert capsys.readouterr().out.startswith(ran)


def test_simulate_2d_te(capsys):
    rc = main(["simulate", "--scheme", "debye-young", "--eps-inf", "1.8",
               "--eps-s", "81.0", "--t-r", "9.4e-12", "--k", "1e-15",
               "--h", "1e-6", "--polarization", "te",
               "--steps", "120", "--grid", "12"])
    assert rc == 0
    assert "bounded" in capsys.readouterr().out


def test_unknown_command_exits_2(capsys):
    assert main([]) == 2


def test_numerical_failure_maps_to_exit_3(monkeypatch, capsys):
    def boom(*a, **kw):
        raise NumericalFailureError("synthetic failure")
    monkeypatch.setattr(cli, "classify_point", boom)
    rc = main(["analyze", "--scheme", "debye-joseph", "--eps-inf", "1.8",
               "--eps-s", "81.0", "--t-r", "9.4e-12", "--k", "1e-15",
               "--h", "1e-6"])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err


def test_run_too_large_to_allocate_exits_2(monkeypatch, capsys):
    """A growth run whose arrays cannot be allocated is a request the
    machine cannot serve: exit 2 with one error line, not exit 1 with a
    traceback.  The allocation is simulated; a real one could succeed
    under memory overcommit and then fill the memory."""
    def boom(*a, **kw):
        raise MemoryError("Unable to allocate 7.28 TiB for an array with shape "
                          "(1000000000001,) and data type float64")
    monkeypatch.setattr(cli, "run_growth", boom)
    rc = main(["simulate", "--scheme", "debye-joseph", "--eps-inf", "1.8",
               "--eps-s", "81", "--t-r", "9.4e-12", "--k", "1e-14", "--h", "1e-5",
               "--xi", "3.14159", "--steps", "1000000000000"])
    out, err = capsys.readouterr()
    assert rc == 2 and out == ""
    assert err.startswith("error: simulate ") and err.count("\n") == 1
    assert "7.28 TiB" in err and "Traceback" not in err


def test_overflowing_dimensionless_parameter_exits_2(capsys):
    """omega1 = 1e300 squares past a double: invalid input, not a crash."""
    assert main(["analyze", "--scheme", "lorentz-young", "--eps-inf", "1", "--eps-s", "2",
                 "--omega1", "1e300", "--nu", "0", "--k", "1e-14", "--h", "1e-5"]) == 2
    assert capsys.readouterr().err == "error: omega = omega1^2 k^2 / 2 overflows a double\n"


def test_underflowing_damping_exits_2(capsys):
    """nu = 5e-324 makes delta = nu k / 2 round to 0 in doubles: invalid
    input naming delta, not a damped medium analysed as harmonic (which read
    unstable [eigenvectors] and exited 0)."""
    assert main(["analyze", "--scheme", "lorentz-kashiwa", "--eps-inf", "1", "--eps-s", "1",
                 "--omega1", "4e16", "--nu", "5e-324", "--k", "1e-17", "--h", "6e-9"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: delta = nu k / 2 underflows to 0\n"


def test_analyze_tm_reads_psi_off_phi_at_zero(tmp_path):
    """Lorentz-Young with omega eps_s' = 4.5 > 2: the TM factor psi has a
    root outside the circle, and at xi = 0 it is the largest root of the 2D
    polynomial.  `analyze` reads it off phi(0) = (Z - 1)^2 psi and writes
    the recurrence's psi modulus (`referees.tm_factor_2d`) to 1e-12."""
    out = tmp_path / "tm.csv"
    assert main(["analyze", "--scheme", "lorentz-young", "--eps-inf", "1", "--eps-s", "2.25",
                 "--omega1", "4e16", "--nu", "0.56e16", "--k", "5e-17", "--h", "1e-8",
                 "--polarization", "tm", "--xi", "0", "--output", str(out)]) == 0
    modulus = float(out.read_text().splitlines()[1].split(",")[11])
    params = dimensionless_params(MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16), 5e-17, 1e-8)
    psi = max_root_modulus(tm_factor_2d(Scheme.LORENTZ_YOUNG, params))
    assert modulus > 1 and modulus == pytest.approx(psi, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("h", ["1e-170", "2e-160"])
@pytest.mark.parametrize("command", ["analyze", "scan", "simulate"])
def test_overflowing_courant_quantity_exits_2(command, h, capsys):
    """h = 1e-170 makes lam = c_inf k / h about 3e164, whose square
    overflows a double; h = 2e-160 makes lam about 1.1e154, whose square is
    a double but 4 lam^2 is not.  Either is invalid input with one error
    line, not a traceback, a Courant quantity of inf or a growth run that
    ends at step 0."""
    argv = [command, "--scheme", "debye-joseph", "--eps-inf", "1.8", "--eps-s", "81",
            "--t-r", "9.4e-12", "--k", "1e-14", "--h", h]
    if command == "scan":
        argv += ["--vary", "xi", "--start", "0", "--stop", "3"]
    assert main(argv) == 2
    out, err = capsys.readouterr()
    assert out == "" and err == "error: lam^2 = (c_inf k / h)^2 overflows a double\n"


def test_huge_delta_prints_a_root_modulus_above_one(capsys):
    """delta = 5e285 puts the exact p_q's integer coefficients far past the
    double range; the estimate reads them divided by the largest, so analyze
    prints the exact verdict with a modulus above 1, the side of the circle
    that verdict certifies."""
    params = dimensionless_params(MediumModel.debye(1.8, 81, 1e-300), 1e-14, 1e-5)
    verdict = classify_at_q(Scheme.DEBYE_YOUNG, params, 0.5)
    assert not verdict.stable
    assert not exact_stable_at_q(Scheme.DEBYE_YOUNG, fraction_params(params), Fraction(0.5))
    assert main(["analyze", "--scheme", "debye-young", "--eps-inf", "1.8", "--eps-s", "81",
                 "--t-r", "1e-300", "--k", "1e-14", "--h", "1e-5"]) == 0
    out, err = capsys.readouterr()
    assert err == "" and out.startswith(
        "debye-young: unstable [von-neumann] at xi=3.14159, q=0.199723 "
        "(max root modulus 1.00000657043)\n")


@pytest.mark.parametrize("text,message", [
    ("command = analyze\nscheme\n", "line 2: expected 'key = value', got 'scheme'"),
    ("command = analyze\nscheme = debye-joseph\nscheme = debye-young\n",
     "line 3: duplicate key 'scheme'"),
    ("command = analyze\nempirical = yes\n", "line 2: bad value for 'empirical': 'yes'"),
    ("scheme = debye-joseph\n", "missing required key 'command'"),
], ids=["no-equals", "duplicate", "bool", "no-command"])
def test_bad_config_file_exits_2(text, message, tmp_path, capsys):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        parse_config(text)
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(text)
    assert main(["analyze", "--config", str(cfg_path)]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_output_in_missing_directory_exits_2(tmp_path, capsys):
    path = tmp_path / "missing" / "out.csv"
    assert main(["analyze", "--scheme", "debye-joseph", "--eps-inf", "1.8", "--eps-s", "81.0",
                 "--t-r", "9.4e-12", "--k", "1e-15", "--h", "1e-6",
                 "--output", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: cannot write {str(path)!r}")
    assert "Traceback" not in err


@pytest.mark.parametrize("drop,scheme,message", [
    ("--t-r", "debye-joseph", "missing field: t_r (Debye schemes)"),
    ("--omega1", "lorentz-joseph", "missing field: omega1 (Lorentz schemes)"),
])
def test_point_without_medium_scale_exits_2(drop, scheme, message, capsys):
    argv = ["analyze", "--scheme", scheme, "--eps-inf", "1.0", "--eps-s", "2.25",
            "--t-r", "9.4e-12", "--omega1", "4e16", "--k", "1e-17", "--h", "1e-8"]
    i = argv.index(drop)
    assert main(argv[:i] + argv[i + 2:]) == 2
    assert capsys.readouterr().err == f"error: {message}\n"


def test_verify_with_a_hard_disagreement_returns_1(monkeypatch, capsys):
    """A stable plan point whose empirical run reads growing, outside the
    margin band, on every retry, is a hard disagreement: verify returns 1."""
    assert build_verify_plan()[0].regime == "stable"
    runs = []
    monkeypatch.setattr(cli, "run_growth", lambda *a, **kw: runs.append(a))
    monkeypatch.setattr(cli, "empirical_verdict",
                        lambda rep: EmpiricalVerdict(False, "stubbed growth"))
    assert main(["verify", "--samples", "1"]) == 1
    assert len(runs) == 3  # the run and its two retries
    assert "(0 inside the margin band, 1 hard disagreements)" in capsys.readouterr().out


def _flag(name):
    return "--" + name.replace("_", "-")


def _field_type(f):
    tp = get_type_hints(RunConfig)[f.name]
    return next(t for t in (bool, float, int, str) if tp is t or t in get_args(tp))


def _sample_value(f):
    """A valid non-default value for a RunConfig field, as on the command line."""
    choices, minimum = f.metadata.get("choices"), f.metadata.get("minimum")
    if choices:
        return str(choices[-1])
    if minimum is not None:
        return str(max(minimum, 7))
    return {float: "2.5e-3", int: "7", str: "out.csv"}[_field_type(f)]


_OPTION_FIELDS = [f for f in fields(RunConfig) if f.name != "command"]


def _flag_args(f):
    return [_flag(f.name)] + ([] if _field_type(f) is bool else [_sample_value(f)])


@pytest.mark.parametrize("f", _OPTION_FIELDS, ids=lambda f: f.name)
def test_config_key_and_flag_parse_alike(f, tmp_path):
    parser = build_arg_parser()
    command = f.metadata["commands"][0]
    cfg_path = tmp_path / "run.cfg"
    flag_args = _flag_args(f)
    value = "true" if _field_type(f) is bool else flag_args[1]
    cfg_path.write_text(f"command = {command}\n{f.name} = {value}\n")
    from_file = _config_from_args(parser.parse_args([command, "--config", str(cfg_path)]))
    from_flag = _config_from_args(parser.parse_args([command] + flag_args))
    assert from_file == from_flag
    v = getattr(from_flag, f.name)
    assert v != getattr(RunConfig(command="analyze"), f.name)
    assert type(getattr(from_file, f.name)) is type(v)


def test_config_file_not_utf8_exits_2(tmp_path, capsys):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_bytes("command = tables\n# caf\u00e9\n".encode("latin-1"))
    assert main(["tables", "--config", str(cfg_path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: cannot read config") and "Traceback" not in err


def test_absent_bool_flag_keeps_file_value(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("command = analyze\nempirical = true\n")
    args = build_arg_parser().parse_args(["analyze", "--config", str(cfg_path)])
    assert _config_from_args(args).empirical is True


# A complete point for every command, so that only the bad value can fail.
_POINT = {"scheme": "debye-joseph", "eps_inf": "1.8", "eps_s": "81.0",
          "t_r": "9.4e-12", "k": "1e-15", "h": "1e-6", "polarization": "te",
          "vary": "q", "start": "0", "stop": "4", "count": "5", "steps": "100",
          "grid": "8"}


@pytest.mark.parametrize("command,key,value", [
    ("analyze", "polarization", "xy"),
    ("scan", "vary", "z"),
    ("scan", "count", "0"),
    ("scan", "count", "-1"),
    ("verify", "samples", "-5"),
    ("simulate", "steps", "50"),
    ("simulate", "grid", "0"),
])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_bad_value_exits_2_from_either_source(command, key, value, source,
                                              tmp_path, capsys):
    assert main(_argv(command, {**_POINT, key: value}, source, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err
    assert "Traceback" not in err


def _argv(command, values, source, tmp_path):
    """The command with values as flags (those it reads) or as a config file."""
    if source == "flag":
        reads = {f.name for f in _OPTION_FIELDS if command in f.metadata["commands"]}
        return [command] + [a for k, v in values.items() if k in reads
                            for a in (_flag(k), v)]
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text(f"command = {command}\n"
                        + "".join(f"{k} = {v}\n" for k, v in values.items()))
    return [command, "--config", str(cfg_path)]


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("key,value", [("xi_y", "0.75"), ("h_y", "2e-6")])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_2d_key_without_polarization_exits_2(command, key, value, source, tmp_path,
                                             capsys):
    """A point without a polarization is 1D: it refuses each key that only a
    2D point reads, naming it, instead of running without it."""
    values = {k: v for k, v in _POINT.items() if k != "polarization"}
    assert main(_argv(command, {**values, key: value}, source, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {key} needs a polarization")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_zero_h_y_exits_2(command, source, tmp_path, capsys):
    """h_y = 0 is refused like any nonpositive space step, not replaced by
    the default h."""
    assert main(_argv(command, {**_POINT, "h_y": "0"}, source, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: space steps must be positive")
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["analyze", "simulate"])
@pytest.mark.parametrize("value", ["inf", "nan", "-1"])
@pytest.mark.parametrize("source", ["flag", "file"])
def test_nonfinite_or_negative_h_y_exits_2(command, value, source, tmp_path, capsys):
    """h_y = inf is refused, not run with the y direction switched off."""
    assert main(_argv(command, {**_POINT, "h_y": value}, source, tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: space steps must be positive and finite")
    assert "Traceback" not in err


@pytest.mark.parametrize("command,key,value,message", [
    ("analyze", "h_y", "-1e-6", "space steps must be positive and finite"),
    ("scan", "start", "-1e-3", "q must be nonnegative and finite"),
])
def test_negative_flag_value_in_exponent_form_exits_2(command, key, value, message,
                                                      capsys):
    """argparse takes "-1e-6" for an option, not for a value: "--h-y -1e-6"
    still returns 2 with the range message that "--h-y=-1e-6" gets."""
    spaced = _argv(command, {**_POINT, key: value}, "flag", None)
    i = spaced.index(_flag(key))
    glued = spaced[:i] + [f"{_flag(key)}={value}"] + spaced[i + 2:]
    errs = []
    for argv in (spaced, glued):
        assert main(argv) == 2
        errs.append(capsys.readouterr().err)
    assert errs[0] == errs[1]
    assert errs[0].startswith(f"error: {message}")


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_dim_is_neither_flag_nor_key(command, tmp_path, capsys):
    """The polarization is the only 2D marker: --dim is an unread flag and
    dim an unknown config key."""
    values = {k: v for k, v in _POINT.items() if k != "polarization"}
    assert main(_argv(command, values, "flag", tmp_path) + ["--dim", "2"]) == 2
    assert capsys.readouterr().err.startswith(f"error: {command} does not take --dim 2")
    assert main(_argv(command, {**values, "dim": "2"}, "file", tmp_path)) == 2
    assert "unknown key 'dim'" in capsys.readouterr().err


@pytest.mark.parametrize("key", ["xi", "xi_y"])
def test_growth_probe_wraps_xi_next_to_2pi(key, monkeypatch, capsys):
    """An xi within half a harmonic spacing below 2 pi snaps to harmonic 0
    (the same grid mode as 2 pi), not to the out-of-range 2 pi."""
    real, probed = cli.run_growth, []

    def spy(*args, **kwargs):
        probed.append(args[4])
        return real(*args, **kwargs)
    monkeypatch.setattr(cli, "run_growth", spy)
    argv = ["simulate", "--scheme", "debye-joseph", "--eps-inf", "1.8", "--eps-s", "81.0",
            "--t-r", "9.4e-12", "--k", "1e-15", "--h", "1e-6", "--steps", "100"]
    if key == "xi":
        argv += ["--xi", "6.28", "--grid", "64"]
    else:
        argv += ["--polarization", "tm", "--xi", "1.5", "--xi-y", "6.28", "--grid", "16"]
    assert main(argv) == 0
    assert getattr(probed[0], "xi_x" if key == "xi" else "xi_y") == 0.0


@pytest.mark.parametrize("command,f", [(c, f) for c in cli._COMMANDS for f in _OPTION_FIELDS
                                       if c not in f.metadata["commands"]],
                         ids=lambda v: v if isinstance(v, str) else v.name)
def test_unread_flag_exits_2(command, f, capsys):
    """A flag the command would ignore is refused before any work, with the
    same value that a reading command accepts."""
    assert main([command] + _flag_args(f)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {command} does not take {_flag(f.name)}")


def test_unread_config_key_is_accepted(tmp_path):
    cfg_path = tmp_path / "run.cfg"
    cfg_path.write_text("command = tables\nsteps = 100\ngrid = 8\n")
    args = build_arg_parser().parse_args(["tables", "--config", str(cfg_path)])
    assert _config_from_args(args).steps == 100


def _readme_cli_section():
    text = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    return re.search(r"^## Command-line interface$(.*?)^## ", text,
                     re.M | re.S).group(1)


def test_readme_command_lines_parse():
    blocks = re.findall(r"^```\n(.*?)^```", _readme_cli_section(), re.M | re.S)
    lines = [l for b in blocks for l in b.replace("\\\n", " ").splitlines()
             if l.startswith("fdtd-stability ")]
    commands = set()
    for line in lines:
        argv = shlex.split(line, comments=True)[1:]
        cfg = _config_from_args(build_arg_parser().parse_args(argv))
        commands.add(cfg.command)
    assert commands == {"analyze", "scan", "simulate", "verify", "tables"}
    config_blocks = [b for b in blocks if b.startswith("command = ")]
    assert config_blocks
    for block in config_blocks:
        parse_config(block)
