"""Golden outputs: the ``tables`` report, ``scan`` CSVs varying q, k and
xi, 2D ``analyze`` CSV rows, the verify plan, the SHA-256 of simulator
norm histories, boundary-search results and the analytic verdicts and
breakpoint candidates of seeded points, compared byte for byte with the
files under ``tests/golden/``.

The files pin the verdicts and numbers of the whole analytic route and the
bits of the empirical one, so a refactor that is meant to change no output
must leave them untouched.  Re-record them only when outputs are meant to
change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import os
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

from fdtd_stability import (
    DimensionlessParams,
    MediumModel,
    Scheme,
    Wavenumber,
    classify_at_q,
    cli,
    dimensionless_params,
    run_growth,
    stability_boundary_k,
    tm_factor_2d,
    worst_case_verdict,
)
from referees import (
    _candidates,
    decided_q,
    exact_schur_at_q,
    exact_stable_at_q,
    fraction_params,
    plain_bisection_boundary,
    walk_verdict,
)

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


def scan_text(scheme: str, flags: tuple[str, ...], vary: str = "q") -> str:
    """``scan`` CSV varying q over [0, 5] (201 points), xi over [0, pi] or k
    over [0.01, 2] times the medium's --k (101 points each)."""
    k = float(flags[flags.index("--k") + 1])
    start, stop, count = {"q": ("0", "5", "201"),
                          "xi": ("0", repr(math.pi), "101"),
                          "k": (repr(0.01 * k), repr(2.0 * k), "101")}[vary]
    return _csv_output(["scan", "--scheme", scheme, *flags, "--vary", vary,
                        "--start", start, "--stop", stop, "--count", count])


def analyze_2d_text() -> str:
    """One analyze CSV row per 2D point of the verify plan, TE and TM."""
    header = None
    rows = []
    for pt in cli.build_verify_plan():
        if pt.polarization is None:
            continue
        m = pt.medium
        medium = (["--t-r", repr(m.t_r)] if m.kind == "debye"
                  else ["--omega1", repr(m.omega1), "--nu", repr(m.nu)])
        text = _csv_output([
            "analyze", "--scheme", pt.scheme.value, "--eps-inf", repr(m.eps_inf),
            "--eps-s", repr(m.eps_s), *medium, "--k", repr(pt.k), "--h", repr(pt.h),
            "--polarization", pt.polarization,
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


_GROWTH_MEDIA = {
    "debye": (MediumModel.debye(1.8, 81.0, 9.4e-12), 1e-5),
    "lorentz": (MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16), 1e-8),
}


def norm_history_text() -> str:
    """SHA-256 of the ``run_growth`` norm history of every scheme in 1D, TE
    and TM, at a stable and an unstable time step: a budget of 300 steps on
    a 16-cell grid, or a 16 x 12 grid with h_y = 2 h_x.  The stable step
    puts every grid mode at half the scheme's q limit, the unstable one the
    excited mode at 1.3 times it.  The steps column is the run's length: a
    run ends at the step whose norm passes GROWTH_NORM_FACTOR times the
    initial one.  The verdict column is the short run's own: the stable
    Debye-Young TM run still relaxes at step 300 and reads growing (it is
    bounded over 3000 steps)."""
    lines = []
    for scheme in Scheme:
        medium, h = _GROWTH_MEDIA[scheme.kind]
        q_limit = scheme.spec.q_limit
        for pol in (None, "te", "tm"):
            if pol is None:
                wn, grid = Wavenumber(2.0 * math.pi * 5 / 16), 16
                s_max = 4.0
            else:
                wn = Wavenumber(2.0 * math.pi * 5 / 16, 2.0 * math.pi * 4 / 12,
                                h_x=h, h_y=2.0 * h)
                grid = (16, 12)
                s_max = 4.0 * (1.0 + (wn.h_x / wn.h_y) ** 2)
            s_mode = 4.0 * math.sin(wn.xi_x / 2) ** 2
            if pol is not None:
                s_mode += 4.0 * (wn.h_x / wn.h_y) ** 2 * math.sin(wn.xi_y / 2) ** 2
            for label, lam in (("stable", math.sqrt(0.5 * q_limit / s_max)),
                               ("unstable", math.sqrt(1.3 * q_limit / s_mode))):
                k = lam * h / medium.c_inf
                rep = run_growth(scheme, medium, k, h, wn, 300, polarization=pol,
                                 grid=grid)
                digest = hashlib.sha256(rep.norms.tobytes()).hexdigest()
                lines.append("|".join((scheme.value, pol or "1d", label, rep.verdict,
                                       str(rep.steps), digest)))
    return "\n".join(lines) + "\n"


_BOUNDARY_MEDIA = {
    "water": MediumModel.debye(1.8, 81.0, 9.4e-12),
    "foam": MediumModel.debye(1.01, 1.16, 6.497e-10),
    "optical": MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16),
    "radio": MediumModel.lorentz(1.5, 3.0, 2 * math.pi * 5e10, 1e10),
}


def _young_omega_h(m: MediumModel) -> float:
    """Space step at which the Lorentz-Young Courant limit q = 2 and its
    omega limit give the same time step."""
    k_omega = 2.0 / (m.omega1 * math.sqrt(2.0 * m.eps_s / m.eps_inf - 1.0))
    return math.sqrt(2.0) * m.c_inf * k_omega


def _boundary_cases() -> list[tuple[str, str, float, str]]:
    """(scheme, medium, h, geometry) of the nine criterion-4/5 cases (1D),
    and of the four Courant-limited cases of the attainability referee on
    2D grids with h_y = h (the "te" rows) and h_y = 2h (the "tm" rows)."""
    criterion = [
        ("debye-joseph", "water", 1e-5), ("debye-young", "water", 1e-5),
        ("debye-young", "foam", 4.0), ("lorentz-joseph", "optical", 1e-8),
        ("lorentz-kashiwa", "optical", 1e-8),
        ("lorentz-young", "optical", _young_omega_h(_BOUNDARY_MEDIA["optical"])),
        ("debye-young", "water", 4.2e-3), ("lorentz-young", "optical", 1.13e-8),
        ("lorentz-young", "radio", _young_omega_h(_BOUNDARY_MEDIA["radio"]))]
    referee = [("debye-joseph", "water", 1e-5), ("lorentz-kashiwa", "optical", 1e-8),
               ("lorentz-joseph", "optical", 1e-8), ("debye-young", "water", 1e-5)]
    return ([c + ("1d",) for c in criterion]
            + [c + (geometry,) for c in referee for geometry in ("te", "tm")])


def _boundary_kwargs(h: float, geometry: str) -> dict:
    return {} if geometry == "1d" else dict(h_y=h if geometry == "te" else 2.0 * h)


def boundaries_text() -> str:
    """repr(k*), attained and non_monotone of ``stability_boundary_k`` for
    each of `_boundary_cases`."""
    lines = []
    for scheme, medium, h, geometry in _boundary_cases():
        res = stability_boundary_k(Scheme.from_name(scheme), _BOUNDARY_MEDIA[medium],
                                   h, **_boundary_kwargs(h, geometry))
        lines.append("|".join((scheme, medium, geometry, repr(h), repr(res.k_star),
                               str(res.attained), str(res.non_monotone))))
    return "\n".join(lines) + "\n"


def _random_params(rng, scheme: Scheme) -> DimensionlessParams:
    """Debye delta over ten decades; Lorentz delta = 0 (harmonic) one time
    in three; eps_s = eps_inf one time in four."""
    es = 1.0 if rng.random() < 0.25 else 1.0 + 10.0 ** rng.uniform(-3.0, 1.5)
    if scheme.kind == "debye":
        return DimensionlessParams(1.0, 10.0 ** rng.uniform(-10.0, 0.5), es)
    delta = 0.0 if rng.random() < 1.0 / 3.0 else 10.0 ** rng.uniform(-8.0, 0.0)
    return DimensionlessParams(1.0, delta, es, 10.0 ** rng.uniform(-6.0, 0.5))


def _probe_q(rng, scheme: Scheme, params: DimensionlessParams, kind: int) -> float:
    """q of one of six kinds: 0, 2, 4, the degenerate q (a draw within the
    snap window of it half the time; uniform on [0, 5] without one), tiny
    q in [1e-18, 1e-8], uniform on [0, 5]."""
    q_of_omega = scheme.spec.degenerate_q
    if kind == 3 and q_of_omega is not None:
        q_res = q_of_omega(params.omega)
        return q_res if rng.random() < 0.5 else q_res + rng.uniform(-5e-10, 5e-10)
    if kind == 4:
        return 10.0 ** rng.uniform(-18.0, -8.0)
    return (0.0, 2.0, 4.0)[kind] if kind < 3 else rng.uniform(0.0, 5.0)


_GRID_MEDIA = {
    "debye": (_BOUNDARY_MEDIA["water"], _BOUNDARY_MEDIA["foam"],
              MediumModel.debye(1.8, 1.8, 9.4e-12)),
    "lorentz": (_BOUNDARY_MEDIA["optical"], _BOUNDARY_MEDIA["radio"],
                MediumModel.lorentz(1.0, 1.0, 4e16, 0.0)),
}


def verdicts_text() -> str:
    """The analytic route on seeded inputs, one line each:
    - ``candidates``: ``analyzer._candidates`` of 60 seeded families per
      scheme, as repr floats (None where a scheme has no degenerate q);
    - ``point``: (stable, argument, detail) of ``classify_at_q`` at two q of
      each of the first 60 families of a scheme (600 points), cycling
      through the six kinds of ``_probe_q``;
    - ``grid``: ``worst_case_verdict`` on 20 seeded grids per scheme, 1D or
      2D in turn (the "1d", "te" and "tm" rows; the 2D ones pass only h_y),
      with h around the medium's own length scale, k from 1e-6 to 1.5 times
      the 1D Courant step and h_y in {h/2, h, 2h}."""
    rng = np.random.default_rng(13)
    lines = []
    for scheme in Scheme:
        for j in range(60):
            params = _random_params(rng, scheme)
            p = "|".join(repr(x) for x in (params.delta, params.eps_s_prime, params.omega))
            lines.append("|".join(["candidates", scheme.value, p]
                                  + [repr(c) for c in _candidates(scheme, params)]))
            for kind in (2 * j % 6, (2 * j + 1) % 6):
                q = _probe_q(rng, scheme, params, kind)
                v = classify_at_q(scheme, params, q)
                lines.append("|".join(("point", scheme.value, p, repr(q), str(v.stable),
                                       v.argument.value, v.detail)))
        for j in range(20):
            medium = _GRID_MEDIA[scheme.kind][int(rng.integers(3))]
            scale = medium.t_r if medium.kind == "debye" else 1.0 / medium.omega1
            h = medium.c_inf * scale * 10.0 ** rng.uniform(-2.0, 1.0)
            courant = (1e-6 if rng.random() < 0.1 else rng.uniform(0.05, 1.5))
            k = courant * h / medium.c_inf
            geometry = ("1d", "te", "tm")[j % 3]
            kw = {} if geometry == "1d" else dict(
                h_y=h * (0.5, 1.0, 2.0)[int(rng.integers(3))])
            v = worst_case_verdict(scheme, medium, k, h, **kw)
            lines.append("|".join(("grid", scheme.value, repr(medium.eps_s), repr(k),
                                   repr(h), geometry, repr(kw.get("h_y")), str(v.stable),
                                   v.argument.value, v.detail)))
    return "\n".join(lines) + "\n"


def _artifacts():
    yield "tables.txt", tables_text
    for vary in ("q", "k", "xi"):
        for stem, scheme, flags in SCAN_CASES:
            yield (f"scan_{vary}_{stem}.csv",
                   lambda s=scheme, f=flags, v=vary: scan_text(s, f, v))
    yield "analyze_2d.csv", analyze_2d_text
    yield "verify_plan.txt", verify_plan_text
    yield "norm_histories.txt", norm_history_text
    yield "boundaries.txt", boundaries_text
    yield "verdicts.txt", verdicts_text


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


@pytest.mark.parametrize("stem,scheme,flags", SCAN_CASES,
                         ids=[c[0] for c in SCAN_CASES])
@pytest.mark.parametrize("vary", ["k", "xi"])
def test_scan_k_and_xi_golden(vary, stem, scheme, flags):
    assert scan_text(scheme, flags, vary) == _golden(f"scan_{vary}_{stem}.csv")


def test_analyze_2d_golden():
    assert analyze_2d_text() == _golden("analyze_2d.csv")


def _psi_root_outside(psi) -> bool:
    """Whether the TM factor psi, of degree 1 or 2 with a positive leading
    coefficient, has a root outside the closed unit disk, by the Schur-Cohn
    conditions: |c_0| > c_top, or, for a quadratic, |c_1| > c_0 + c_2."""
    c = psi.coeffs
    return abs(c[0]) > c[-1] or len(c) == 3 and abs(c[1]) > c[0] + c[2]


def _modulus_rule_breaks(name: str) -> list[str]:
    """The rows of a golden CSV whose max_root_modulus lies off the side of
    the unit circle that its verdict certifies.  1D: below 1 for schur,
    exactly 1 for another stable verdict and for eigenvectors, above 1 for
    a root outside.  2D, where the (Z - 1) factor contributes exactly 1: at
    least 1, and exactly 1 unless phi reads a root outside or, in TM, psi
    has one."""
    header, *rows = _golden(name).splitlines()
    cols = header.split(",")
    breaks = []
    for row in rows:
        f = dict(zip(cols, row.split(",")))
        modulus, argument = float(f["max_root_modulus"]), f["argument"]
        outside = f["stable"] == "false" and argument != "eigenvectors"
        if "polarization" not in f:
            ok = (modulus < 1 if argument == "schur" else modulus > 1 if outside
                  else modulus == 1)
        else:
            scheme = Scheme.from_name(f["scheme"])
            if f["polarization"] == "tm":
                eps_inf, eps_s, scale, nu = (float(f[c]) for c in (
                    "eps_inf", "eps_s", "t_r_or_omega1", "nu"))
                medium = (MediumModel.debye(eps_inf, eps_s, scale) if scheme.kind == "debye"
                          else MediumModel.lorentz(eps_inf, eps_s, scale, nu))
                params = dimensionless_params(medium, float(f["k"]), float(f["h"]))
                outside = outside or _psi_root_outside(tm_factor_2d(scheme, params))
            ok = modulus > 1 if outside else modulus == 1
        if not ok:
            breaks.append(row)
    return breaks


@pytest.mark.parametrize("name", [n for n, _ in _artifacts() if n.endswith(".csv")])
def test_golden_root_moduli_lie_where_the_verdicts_certify(name):
    """Every ``max_root_modulus`` of the 31 golden CSVs lies on the side of
    the unit circle that its row's verdict certifies (`_modulus_rule_breaks`):
    no stable row reads above 1, and no schur row in 1D reads 1."""
    assert _modulus_rule_breaks(name) == []


def test_verify_plan_golden():
    assert verify_plan_text() == _golden("verify_plan.txt")


def test_norm_histories_golden():
    assert norm_history_text() == _golden("norm_histories.txt")


def test_boundaries_golden():
    assert boundaries_text() == _golden("boundaries.txt")


def test_verdicts_golden():
    assert verdicts_text() == _golden("verdicts.txt")


def test_boundaries_golden_is_the_exact_plain_bisection():
    """Every ``boundaries.txt`` line is the exact plain bisection's result
    (`referees.plain_bisection_boundary`, on exact walks): k*, attained and
    non_monotone."""
    for (scheme, medium, h, geometry), line in zip(
            _boundary_cases(), _golden("boundaries.txt").splitlines(), strict=True):
        res = plain_bisection_boundary(Scheme.from_name(scheme), _BOUNDARY_MEDIA[medium],
                                       h, **_boundary_kwargs(h, geometry))
        assert line.split("|")[4:] == [repr(res.k_star), str(res.attained),
                                       str(res.non_monotone)], line


def test_boundaries_on_constant_arms_lie_below_the_courant_limit():
    """Where k* sits on a constant arm of `SchemeSpec.stable_q` (q_c = 2 or
    4), it lies at or below the exact Courant limit (h/c_inf) sqrt(q_c) /
    (2 sqrt(1 + r^2)), r = h/h_y (0 in 1D): no search reports an unstable
    time step as its last stable one.  Nine ``boundaries.txt`` lines; the
    others sit on q_-1 arms."""
    checked = 0
    for line in _golden("boundaries.txt").splitlines():
        scheme, medium, geometry, h, k_star, *_ = line.split("|")
        h, k_star, medium = float(h), float(k_star), _BOUNDARY_MEDIA[medium]
        q_c = Scheme.from_name(scheme).spec.stable_q(dimensionless_params(medium, k_star, h))
        if q_c not in (2, 4):
            continue
        r = {"1d": 0.0, "te": 1.0, "tm": 0.5}[geometry]
        assert k_star <= h / medium.c_inf * math.sqrt(q_c) / (2.0 * math.sqrt(1.0 + r * r)), line
        checked += 1
    assert checked == 9


def test_verdicts_grid_lines_match_the_exact_walk():
    """Every ``grid`` line of ``verdicts.txt`` reads the verdict of the exact
    walk over [0, q_max] (`referees.walk_verdict`).  Its argument comes from
    one `classify_at_q` probe, and no probe disagrees with the theorem: the
    probe reads unstable (eigenvectors, or a root outside) iff the line
    does."""
    media = {(kind, m.eps_s): m for kind, ms in _GRID_MEDIA.items() for m in ms}
    for line in _golden("verdicts.txt").splitlines():
        if not line.startswith("grid|"):
            continue
        _, name, eps_s, k, h, _, h_y, stable, argument, detail = line.split("|")
        scheme = Scheme.from_name(name)
        kw = {} if h_y == "None" else dict(h_y=float(h_y))
        assert walk_verdict(scheme, media[scheme.kind, float(eps_s)], float(k), float(h),
                            **kw) == (stable == "True"), line
        probe_stable = argument != "eigenvectors" and "root outside" not in detail
        assert probe_stable == (stable == "True"), line


def test_verdicts_point_lines_match_the_exact_referee():
    """Every one of the 600 ``point`` lines of ``verdicts.txt`` reads the
    exact referee's verdict (`referees.exact_stable_at_q` at the exact
    parameters of the floats, and at the exact degenerate q where
    `classify_at_q` snaps), and is labelled ``schur`` exactly where every
    root of that p_q lies strictly inside the circle
    (`referees.exact_schur_at_q`)."""
    points = 0
    for line in _golden("verdicts.txt").splitlines():
        if not line.startswith("point|"):
            continue
        _, name, delta, es, omega, q, stable, argument, _ = line.split("|", 8)
        scheme, q = Scheme.from_name(name), float(q)
        params = DimensionlessParams(1.0, float(delta), float(es),
                                     None if omega == "None" else float(omega))
        exact, q_exact = fraction_params(params), decided_q(scheme, params, q)
        assert exact_stable_at_q(scheme, exact, q_exact) == (stable == "True"), line
        assert exact_schur_at_q(scheme, exact, q_exact) == (argument == "schur"), line
        points += 1
    assert points == 600


if __name__ == "__main__":
    os.environ.pop(cli.OUTPUT_DIR_ENV, None)
    GOLDEN.mkdir(exist_ok=True)
    for name, make in _artifacts():
        (GOLDEN / name).write_text(make(), encoding="utf-8")
        print(f"wrote {GOLDEN / name}", file=sys.stderr)
