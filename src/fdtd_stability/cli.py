"""Batch front-end: analyze points, scan ranges, run simulations, verify
analyzer against simulator, and reproduce the reference stability tables.

Configuration is a flat ``key = value`` text file ('#' starts a comment)
whose keys are the `RunConfig` fields; each is also a flag (``--eps-inf``)
of the commands that read it, and command-line flags override file keys.
A flag that the command does not read is an error.  All reports are CSV
with full-precision scientific notation so every value round-trips exactly.

Exit codes: 0 success, 1 verification mismatch, 2 invalid input or a
request too large to allocate, 3 numerical failure.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from dataclasses import dataclass, field, fields, replace
from fractions import Fraction
from typing import get_args, get_type_hints

import numpy as np

from . import __version__
from .analyzer import (Argument, StabilityVerdict, classify_at_q, classify_point,
                       reproduce_argument_table)
from .errors import InvalidInputError, NumericalFailureError
from .polyloc import Polynomial, max_root_modulus
from .schemes import (
    EPS0,
    MU0,
    MediumModel,
    Scheme,
    Wavenumber,
    char_poly_closed,
    courant_q,
    dimensionless_params,
    xi_for_q,
)
from .simulator import empirical_verdict, run_growth

OUTPUT_DIR_ENV = "FDTD_STABILITY_OUT"

VERDICT_HEADER = ("scheme", "eps_inf", "eps_s", "t_r_or_omega1", "nu", "k", "h",
                  "xi", "q", "stable", "argument", "max_root_modulus")
ANALYZE_HEADER = VERDICT_HEADER + ("xi_y", "h_y", "polarization")
GROWTH_HEADER = ("step", "norm", "ratio")
VERIFY_HEADER = ("scheme", "medium", "dim", "polarization", "k", "h", "xi_x",
                 "xi_y", "q", "q_boundary", "in_margin_band", "analytic_stable",
                 "empirical_stable", "agree", "regime")

# |q - q_boundary| below this is the declared margin band where finite runs
# cannot resolve growth; disagreements inside it are reported, not fatal.
VERIFY_MARGIN_BAND = 1e-3
# Grid size and time steps of the verify plan's regime points.
VERIFY_GRID = 24
VERIFY_STEPS = 700


def _option(commands, default=None, help=None, choices=None, minimum=None):
    return field(default=default, metadata={"commands": commands, "help": help,
                                            "choices": choices, "minimum": minimum})


# The commands that read a field; analyze reads steps and grid for --empirical.
_POINT = ("analyze", "scan", "simulate")
_GROWTH = ("analyze", "simulate")


@dataclass(frozen=True)
class RunConfig:
    """Run description; every command reads a subset of fields.

    Each field other than ``command`` is a config-file key, accepted by every
    command, and a flag (``--`` plus the name with '-' for '_') of the
    commands that read it; its metadata holds those commands, the help text
    and the allowed values that `check_config` enforces."""

    command: str
    scheme: str | None = _option((*_POINT, "tables"),
                                 choices=tuple(s.value for s in Scheme))
    eps_inf: float | None = _option(_POINT)
    eps_s: float | None = _option(_POINT)
    t_r: float | None = _option(_POINT, help="Debye relaxation time in seconds")
    omega1: float | None = _option(_POINT, help="Lorentz resonance in rad/s")
    nu: float | None = _option(_POINT, help="Lorentz damping in rad/s")
    k: float | None = _option(_POINT, help="time step in seconds")
    h: float | None = _option(_POINT, help="space step in meters")
    h_y: float | None = _option(_GROWTH, help="y space step in meters (2D; default h)")
    polarization: str | None = _option(_GROWTH, choices=("te", "tm"))
    xi: float = _option(_POINT, math.pi, help="wavenumber in radians per cell")
    xi_y: float | None = _option(_GROWTH)
    steps: int = _option(_GROWTH, 1000, help="time steps of a growth run", minimum=100)
    grid: int = _option(_GROWTH, 64, minimum=4)
    output: str | None = _option((*_POINT, "verify"), help="CSV output path")
    empirical: bool = _option(("analyze",), False)
    vary: str | None = _option(("scan",), choices=("k", "xi", "q"))
    start: float | None = _option(("scan",))
    stop: float | None = _option(("scan",))
    count: int = _option(("scan",), 33, help="scan points", minimum=1)
    samples: int = _option(("verify",), 0, help="verify points, 0 for all", minimum=0)


# Key -> value type, with the "| None" stripped.
_KEY_TYPES = {name: next(t for t in (*get_args(tp), tp) if t is not type(None))
              for name, tp in get_type_hints(RunConfig).items()}
# The fields that are also flags; the command is the subcommand instead.
_OPTIONS = tuple(f for f in fields(RunConfig) if f.name != "command")


def check_config(cfg: RunConfig) -> RunConfig:
    """Reject values outside a field's declared choices or minimum."""
    for f in _OPTIONS:
        v = getattr(cfg, f.name)
        if v is None:
            continue
        choices, minimum = f.metadata.get("choices"), f.metadata.get("minimum")
        if choices is not None and v not in choices:
            raise InvalidInputError(f"{f.name} must be one of "
                                    f"{', '.join(map(str, choices))}, got {v!r}")
        if minimum is not None and v < minimum:
            raise InvalidInputError(f"{f.name} must be at least {minimum}, got {v!r}")
    return cfg


def parse_config(text: str) -> RunConfig:
    """Parse a flat key = value document into a RunConfig."""
    values: dict[str, object] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InvalidInputError(f"line {lineno}: expected 'key = value', got {raw!r}")
        key, _, val = line.partition("=")
        key = key.strip()
        val = val.strip()
        if key not in _KEY_TYPES:
            raise InvalidInputError(f"line {lineno}: unknown key {key!r}")
        if key in values:
            raise InvalidInputError(f"line {lineno}: duplicate key {key!r}")
        kind = _KEY_TYPES[key]
        try:
            if kind is bool:
                if val not in ("true", "false"):
                    raise ValueError(val)
                values[key] = val == "true"
            else:
                values[key] = kind(val)
        except ValueError as exc:
            raise InvalidInputError(
                f"line {lineno}: bad value for {key!r}: {val!r}") from exc
    if "command" not in values:
        raise InvalidInputError("missing required key 'command'")
    return RunConfig(**values)  # type: ignore[arg-type]


def _fmt_csv(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return format(v, ".16e")
    return str(v)


def emit_csv(rows, path: str, header) -> str:
    """Write rows as UTF-8 CSV with a header; floats carry 17 significant
    digits so they parse back to the exact double.  Returns the final path
    (after any output-directory override)."""
    out_dir = os.environ.get(OUTPUT_DIR_ENV)
    if out_dir and not os.path.isabs(path):
        path = os.path.join(out_dir, path)
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(",".join(header) + "\n")
            for row in rows:
                fh.write(",".join(_fmt_csv(v) for v in row) + "\n")
    except OSError as exc:
        raise InvalidInputError(f"cannot write {path!r}: {exc}") from exc
    return path


def _scheme_and_medium(cfg: RunConfig) -> tuple[Scheme, MediumModel]:
    _require(cfg, "scheme", "eps_inf", "eps_s")
    scheme = Scheme.from_name(cfg.scheme)
    if scheme.kind == "debye":
        if cfg.t_r is None:
            raise InvalidInputError("missing field: t_r (Debye schemes)")
        return scheme, MediumModel.debye(cfg.eps_inf, cfg.eps_s, cfg.t_r)
    if cfg.omega1 is None:
        raise InvalidInputError("missing field: omega1 (Lorentz schemes)")
    return scheme, MediumModel.lorentz(cfg.eps_inf, cfg.eps_s, cfg.omega1, cfg.nu or 0.0)


def _verdict_row(scheme: Scheme, medium: MediumModel, k: float, h: float,
                 xi: float | None, q: float, stable: bool, argument: str,
                 root_mod: float):
    scale = medium.t_r if medium.kind == "debye" else medium.omega1
    return (scheme.value, medium.eps_inf, medium.eps_s, scale,
            medium.nu or 0.0, k, h, xi, q, stable, argument, root_mod)


def _require(cfg: RunConfig, *names: str) -> None:
    for name in names:
        if getattr(cfg, name) is None:
            raise InvalidInputError(f"missing field: {name}")


def _point_from_config(cfg: RunConfig) -> tuple[Scheme, MediumModel, Wavenumber]:
    """Scheme, medium and wavenumber of analyze/simulate.  A polarization
    makes the point 2D, with xi_y defaulting to xi and h_y to h; without one
    the point is 1D and refuses xi_y and h_y."""
    _require(cfg, "k", "h")
    scheme, medium = _scheme_and_medium(cfg)
    if cfg.polarization is None:
        for name in ("xi_y", "h_y"):
            if getattr(cfg, name) is not None:
                raise InvalidInputError(f"{name} needs a polarization")
        return scheme, medium, Wavenumber(cfg.xi)
    wn = Wavenumber(cfg.xi, cfg.xi_y if cfg.xi_y is not None else cfg.xi,
                    h_x=cfg.h, h_y=cfg.h if cfg.h_y is None else cfg.h_y)
    return scheme, medium, wn


def _run_growth(cfg: RunConfig, scheme: Scheme, medium: MediumModel, wn: Wavenumber):
    """The growth probe of analyze --empirical and simulate, on the grid
    harmonic nearest to wn (an xi next to 2 pi wraps to harmonic 0).
    Returns that harmonic and the run's report."""
    def snap(xi):
        m = round(xi * cfg.grid / (2.0 * math.pi)) % cfg.grid
        return 2.0 * math.pi * m / cfg.grid
    harmonic = replace(wn, xi_x=snap(wn.xi_x), xi_y=snap(wn.xi_y) if wn.is_2d else None)
    return harmonic, run_growth(scheme, medium, cfg.k, cfg.h, harmonic, cfg.steps,
                                polarization=cfg.polarization, grid=cfg.grid)


def _at(wn: Wavenumber) -> str:
    return f"xi={wn.xi_x:.6g}" + (f", xi_y={wn.xi_y:.6g}" if wn.is_2d else "")


def _certified_modulus(verdict: StabilityVerdict, poly: Polynomial) -> float:
    """The largest root modulus of the exact p_q on the side of the circle
    that the verdict certifies: exactly 1 for a root on it (a stable verdict
    but schur, and eigenvectors), else the estimate, at most the double
    below 1 for schur and at least the double above 1 for a root outside."""
    if verdict.argument is Argument.THEOREM_SCHUR:
        return min(max_root_modulus(poly), math.nextafter(1, 0))
    if verdict.stable or verdict.argument is Argument.EIGENVECTORS:
        return 1.0
    return max(max_root_modulus(poly), math.nextafter(1, 2))


def _cmd_analyze(cfg: RunConfig) -> int:
    scheme, medium, wn = _point_from_config(cfg)
    params = dimensionless_params(medium, cfg.k, cfg.h)
    q = courant_q(params, wn)
    verdict = classify_point(scheme, params, wn)
    root_mod = _certified_modulus(verdict, char_poly_closed(scheme, params, q))
    if wn.is_2d:
        # The 2D polynomial (Z - 1) [psi] phi(q), factor by factor: the (Z - 1)
        # root is exactly 1, and TM's psi is read off phi(0) = (Z - 1)^2 psi,
        # whose other roots are the double root 1: the exact verdict at q = 0
        # certifies psi, and phi(0)'s modulus is psi's where it exceeds 1.
        root_mod = max(1.0, root_mod)
        if cfg.polarization == "tm":
            root_mod = max(root_mod, _certified_modulus(
                classify_at_q(scheme, params, Fraction(0)),
                char_poly_closed(scheme, params, Fraction(0))))
    print(f"{scheme.value}: {'stable' if verdict.stable else 'unstable'} "
          f"[{verdict.argument.value}] at {_at(wn)}, q={q:.6g} "
          f"(max root modulus {root_mod:.12g})")
    print(f"  {verdict.detail}")
    if cfg.empirical:
        harmonic, rep = _run_growth(cfg, scheme, medium, wn)
        emp = empirical_verdict(rep)
        print(f"  empirical at {_at(harmonic)}: "
              f"{'stable' if emp.stable else 'unstable'} - {emp.detail}")
    if cfg.output:
        row = _verdict_row(scheme, medium, cfg.k, cfg.h, wn.xi_x, q, verdict.stable,
                           verdict.argument.value, root_mod)
        row += (wn.xi_y, wn.h_y, cfg.polarization) if wn.is_2d else (None,) * 3
        path = emit_csv([row], cfg.output, ANALYZE_HEADER)
        print(f"  wrote {path}")
    return 0


def _cmd_scan(cfg: RunConfig) -> int:
    _require(cfg, "vary", "start", "stop")
    scheme, medium = _scheme_and_medium(cfg)
    _require(cfg, "h")
    if cfg.vary != "k":
        _require(cfg, "k")
    rows = []
    for value in np.linspace(cfg.start, cfg.stop, cfg.count):
        value = float(value)
        k = value if cfg.vary == "k" else cfg.k
        params = dimensionless_params(medium, k, cfg.h)
        if cfg.vary == "q":
            q, xi = value, xi_for_q(value, params.lam)
        else:
            xi = value if cfg.vary == "xi" else cfg.xi
            q = courant_q(params, Wavenumber(xi))
        verdict = classify_at_q(scheme, params, q)
        root_mod = _certified_modulus(verdict, char_poly_closed(scheme, params, q))
        rows.append(_verdict_row(scheme, medium, k, cfg.h, xi, q,
                                 verdict.stable, verdict.argument.value, root_mod))
    n_stable = sum(1 for r in rows if r[9])
    print(f"scanned {len(rows)} points varying {cfg.vary}: "
          f"{n_stable} stable, {len(rows) - n_stable} unstable")
    if cfg.output:
        path = emit_csv(rows, cfg.output, VERDICT_HEADER)
        print(f"wrote {path}")
    return 0


def _cmd_simulate(cfg: RunConfig) -> int:
    scheme, medium, wn = _point_from_config(cfg)
    harmonic, rep = _run_growth(cfg, scheme, medium, wn)
    emp = empirical_verdict(rep)
    print(f"{scheme.value}: {rep.verdict} at {_at(harmonic)} after {rep.steps} steps "
          f"(per-step factor {rep.per_step_factor:.8f}, "
          f"max norm ratio {rep.max_norm_ratio:.6g})")
    print(f"  {emp.detail}")
    if cfg.output:
        rows = [(i, float(n), float(n / rep.norms[0]))
                for i, n in enumerate(rep.norms)]
        path = emit_csv(rows, cfg.output, GROWTH_HEADER)
        print(f"  wrote {path}")
    return 0


def _cmd_tables(cfg: RunConfig) -> int:
    schemes = [Scheme.from_name(cfg.scheme)] if cfg.scheme else list(Scheme)
    failures = 0
    for scheme in schemes:
        rows = reproduce_argument_table(scheme)
        regimes = {r.regime for r in rows}
        bad = [r for r in rows if not r.ok]
        failures += len(bad)
        print(f"{scheme.value}: {len(regimes)} regimes, {len(rows)} points, "
              f"{len(bad)} mismatches")
        for r in rows:
            mark = "ok " if r.ok else "BAD"
            print(f"  [{mark}] {r.regime:58s} expected="
                  f"{'stable' if r.expected_stable else 'unstable':8s} "
                  f"computed={'stable' if r.verdict.stable else 'unstable':8s} "
                  f"[{r.verdict.argument.value}] ({r.point})")
            if r.note:
                print(f"        note: {r.note}")
    return 1 if failures else 0


@dataclass(frozen=True)
class _VerifyPoint:
    scheme: Scheme
    medium: MediumModel
    medium_name: str
    k: float
    h: float
    polarization: str | None
    m_x: int
    m_y: int
    grid: int
    steps: int
    q_boundary: float
    regime: str

    @property
    def dim(self) -> int:
        return 1 if self.polarization is None else 2


def _verify_media(kind: str) -> list[tuple[str, MediumModel]]:
    if kind == "debye":
        return [("water", MediumModel.debye(1.8, 81.0, 9.4e-12)),
                ("foam", MediumModel.debye(1.01, 1.16, 6.497e-10))]
    return [("optical-a", MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16)),
            ("radio-b", MediumModel.lorentz(1.5, 3.0, 2 * math.pi * 5e10, 1e10)),
            ("harmonic", MediumModel.lorentz(1.0, 2.25, 4e16, 0.0))]


def build_verify_plan() -> list[_VerifyPoint]:
    """Deterministic stratified sample plan: every scheme, 1D and both 2D
    polarizations, stable / unstable / near-boundary regimes, plus the
    degenerate-resonance instabilities of the harmonic Lorentz schemes."""
    plan: list[_VerifyPoint] = []
    for scheme in Scheme:
        q_lim = scheme.spec.q_limit
        for name, medium in _verify_media(scheme.kind):
            # Space scale chosen so the normalized oscillator frequency near
            # the q boundary is O(0.1): a vanishing omega leaves the
            # polarization eigenvalues nearly coincident with 1 and the
            # bounded transient exceeds any finite growth threshold.
            if scheme.kind == "debye":
                h_ref = 1e-5
            else:
                h_ref = medium.c_inf * math.sqrt(0.6) / medium.omega1
            for pol in (None, "te", "tm"):
                ndir = 1 if pol is None else 2
                for frac, regime in ((0.35, "stable"), (0.70, "stable"),
                                     (1.0 - 2.0e-4, "near-boundary"),
                                     *((f, "unstable")
                                       for f in scheme.spec.verify_unstable)):
                    q_tot = frac * q_lim
                    lam_dir = math.sqrt(q_tot / (4.0 * ndir))
                    k = lam_dir * h_ref / medium.c_inf
                    plan.append(_VerifyPoint(
                        scheme, medium, name, k, h_ref, pol,
                        m_x=VERIFY_GRID // 2, m_y=0 if pol is None else VERIFY_GRID // 2,
                        grid=VERIFY_GRID, steps=VERIFY_STEPS, q_boundary=q_lim,
                        regime=regime))
    # Degenerate-resonance points (harmonic media with eps_s = eps_inf).
    resonant = MediumModel.lorentz(1.0, 1.0, 4e16, 0.0)
    w = 0.5
    k = math.sqrt(2.0 * w) / resonant.omega1
    res_cases = [(Scheme.LORENTZ_JOSEPH, None), (Scheme.LORENTZ_JOSEPH, "tm"),
                 (Scheme.LORENTZ_YOUNG, None), (Scheme.LORENTZ_KASHIWA, None)]
    for scheme, pol in res_cases:
        q_res = scheme.spec.degenerate_q(w)
        m, n = 9, 64
        xi = 2.0 * math.pi * m / n
        ndir = 1 if pol is None else 2
        # The resonance, then a harmonic point safely below the degenerate
        # value, which stays bounded.
        for frac, regime, steps in ((1.0, "resonance", 4000),
                                    (0.25, "stable", VERIFY_STEPS)):
            lam = math.sqrt(frac * q_res / (ndir * 4.0 * math.sin(xi / 2.0) ** 2))
            h = resonant.c_inf * k / lam
            plan.append(_VerifyPoint(scheme, resonant, "resonant", k, h, pol,
                                     m_x=m, m_y=0 if pol is None else m, grid=n,
                                     steps=steps, q_boundary=q_res, regime=regime))
    return plan


def run_verify(plan: list[_VerifyPoint]):
    """Classify and simulate every plan point; returns (rows, disagreements
    outside the margin band).

    When the two referees disagree the run is repeated with four times the
    steps (twice at most): weak instabilities and slow bounded beats both
    need longer horizons than the default probe.  The analytic verdict
    never changes; only the empirical evidence grows.
    """
    rows = []
    hard_disagreements = 0
    for pt in plan:
        params = dimensionless_params(pt.medium, pt.k, pt.h)
        xi_y = None if pt.polarization is None else 2.0 * math.pi * pt.m_y / pt.grid
        wn = Wavenumber(2.0 * math.pi * pt.m_x / pt.grid, xi_y, h_x=pt.h, h_y=pt.h)
        q = courant_q(params, wn)
        # A resonance point is read at the exact degenerate q it stands for.
        verdict = classify_at_q(pt.scheme, params, q if pt.regime != "resonance"
                                else pt.scheme.spec.degenerate_q(Fraction(params.omega)))
        steps = pt.steps
        for _ in range(3):
            rep = run_growth(pt.scheme, pt.medium, pt.k, pt.h, wn, steps,
                             polarization=pt.polarization, grid=pt.grid)
            emp = empirical_verdict(rep)
            if emp.stable == verdict.stable:
                break
            steps *= 4
        in_band = abs(q - pt.q_boundary) < VERIFY_MARGIN_BAND
        agree = verdict.stable == emp.stable
        if not agree and not in_band:
            hard_disagreements += 1
        rows.append((pt.scheme.value, pt.medium_name, pt.dim, pt.polarization or "",
                     pt.k, pt.h, wn.xi_x, wn.xi_y, q, pt.q_boundary, in_band,
                     verdict.stable, emp.stable, agree, pt.regime))
    return rows, hard_disagreements


def _cmd_verify(cfg: RunConfig) -> int:
    plan = build_verify_plan()
    if cfg.samples and cfg.samples < len(plan):
        stride = max(1, len(plan) // cfg.samples)
        plan = plan[::stride][:cfg.samples]
    rows, hard = run_verify(plan)
    agree = sum(1 for r in rows if r[13])
    in_band = sum(1 for r in rows if r[10])
    print(f"verified {len(rows)} points: {agree} agree, "
          f"{len(rows) - agree} disagree ({in_band} inside the margin band, "
          f"{hard} hard disagreements)")
    if cfg.output:
        path = emit_csv(rows, cfg.output, VERIFY_HEADER)
        print(f"wrote {path}")
    return 1 if hard else 0


def build_arg_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fdtd-stability",
        description="Stability laboratory for FD-TD schemes in Debye and "
                    "Lorentz dispersive media.")
    parser.add_argument("--version", action="version",
                        version=f"fdtd-stability {__version__} "
                                f"(eps0={EPS0!r} F/m, mu0={MU0!r} H/m)")
    sub = parser.add_subparsers(dest="command")
    for name, help_ in (("analyze", "classify one parameter point"),
                        ("scan", "classify a range of points into CSV"),
                        ("simulate", "run the time-stepping growth probe"),
                        ("verify", "cross-check analyzer against simulator"),
                        ("tables", "reproduce the reference stability tables")):
        # No abbreviations: --h of a command that does not read h would
        # otherwise be taken for --help.
        p = sub.add_parser(name, help=help_, allow_abbrev=False)
        p.add_argument("--config", help="flat key = value configuration file")
        for f in _OPTIONS:
            if name not in f.metadata["commands"]:
                continue
            text = f.metadata.get("help")
            if f.metadata.get("choices"):
                text = "one of " + ", ".join(map(str, f.metadata["choices"]))
            flag = "--" + f.name.replace("_", "-")
            if _KEY_TYPES[f.name] is bool:
                # default None, so that an absent flag keeps the file's value
                p.add_argument(flag, dest=f.name, action="store_true",
                               default=None, help=text)
            else:
                p.add_argument(flag, dest=f.name, type=_KEY_TYPES[f.name],
                               help=text)
    return parser


def _config_from_args(args: argparse.Namespace) -> RunConfig:
    """Merge the config file (if any) with the flags, which win, and check
    the result."""
    if args.config:
        try:
            with open(args.config, encoding="utf-8") as fh:
                cfg = parse_config(fh.read())
        except (OSError, UnicodeDecodeError) as exc:
            raise InvalidInputError(f"cannot read config: {exc}") from exc
        cfg = replace(cfg, command=args.command)
    else:
        cfg = RunConfig(command=args.command)
    flags = vars(args)
    overrides = {f.name: flags[f.name] for f in _OPTIONS
                 if flags.get(f.name) is not None}
    return check_config(replace(cfg, **overrides))


_COMMANDS = {
    "analyze": _cmd_analyze,
    "scan": _cmd_scan,
    "simulate": _cmd_simulate,
    "verify": _cmd_verify,
    "tables": _cmd_tables,
}


def _glue_negative_values(argv: list[str]) -> list[str]:
    """Join a flag and a negative number after it ("--h-y -1e-6" ->
    "--h-y=-1e-6"): argparse takes "-1e-6" for an option, so the value would
    otherwise never reach the range checks."""
    takes_value = {"--config"} | {"--" + f.name.replace("_", "-") for f in _OPTIONS
                                  if _KEY_TYPES[f.name] is not bool}
    out: list[str] = []
    for arg in argv:
        if out and out[-1] in takes_value and re.match(r"-\.?\d", arg):
            out[-1] += "=" + arg
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = build_arg_parser()
    args, unread = parser.parse_known_args(
        _glue_negative_values(sys.argv[1:] if argv is None else argv))
    if not args.command:
        parser.print_help()
        return 2
    try:
        if unread:
            raise InvalidInputError(f"{args.command} does not take {' '.join(unread)}")
        cfg = _config_from_args(args)
        return _COMMANDS[args.command](cfg)
    except InvalidInputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except MemoryError as exc:
        print(f"error: {args.command} asks for more memory than it can allocate: {exc}",
              file=sys.stderr)
        return 2
    except NumericalFailureError as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
