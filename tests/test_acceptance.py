"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Tolerances are fixed here and nowhere else.
"""

import math
import time
import zlib
from collections import Counter
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fdtd_stability import (
    Argument,
    DimensionlessParams,
    MediumModel,
    Scheme,
    Wavenumber,
    char_poly_closed,
    classify_point,
    courant_q,
    dimensionless_params,
    init_plane_wave,
    is_simple_von_neumann,
    reproduce_argument_table,
    run_growth,
    stability_boundary_k,
)
from fdtd_stability import analyzer
from fdtd_stability.cli import build_verify_plan, run_verify
from fdtd_stability.simulator import linear_fit_residual
from referees import (
    amplification_matrix,
    char_poly_from_matrix,
    exact_product,
    factor_roots_2d,
    mode_matrix_2d,
    exact_params,
    exact_q_max,
    exact_walk,
    monic,
    root_factors,
    step,
)

WATER = MediumModel.debye(1.8, 81.0, 9.4e-12)
FOAM = MediumModel.debye(1.01, 1.16, 6.497e-10)
MATERIAL_A = MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16)
MATERIAL_B = MediumModel.lorentz(1.5, 3.0, 2 * math.pi * 5e10, 1e10)
RESONANT = MediumModel.lorentz(1.0, 1.0, 4e16, 0.0)


def _report(name: str, ok: bool, detail: str = ""):
    print(f"[{'PASS' if ok else 'FAIL'}] {name}" + (f": {detail}" if detail else ""))
    assert ok, f"{name} failed: {detail}"


def _random_admissible(rng, kind):
    omega = rng.uniform(0.01, 3.0) if kind == "lorentz" else None
    return DimensionlessParams(lam=rng.uniform(0.05, 2.0),
                               delta=rng.uniform(0.001, 3.0),
                               eps_s_prime=rng.uniform(1.0, 5.0),
                               omega=omega)


def test_criterion_1_polynomial_engine_vs_root_oracle():
    """10,000 random real polynomials of degree <= 8 built from known roots,
    in conjugate pairs, at least 1e-6 away from the unit circle, their
    float factors multiplied exactly: zero verdict disagreements."""
    t0 = time.monotonic()
    rng = np.random.default_rng(12345)
    margin = 1e-6
    disagreements = 0
    for _ in range(10000):
        deg = int(rng.integers(1, 9))
        pairs = int(rng.integers(0, deg // 2 + 1))
        radii = rng.uniform(0.0, 2.0, size=deg - pairs)
        radii = np.where(np.abs(radii - 1.0) < margin,
                         radii + np.where(radii >= 1.0, 2 * margin, -2 * margin),
                         radii)
        p = exact_product(root_factors(rng, radii, pairs), leading=rng.uniform(0.5, 2.0))
        truth = bool(np.all(radii < 1.0))
        svn = is_simple_von_neumann(p)
        disagreements += (svn.schur != truth) + (svn.ok != truth)
    elapsed = time.monotonic() - t0
    _report("criterion 1 (root-location engine vs constructed-root oracle)",
            disagreements == 0 and elapsed < 10.0,
            f"{disagreements} disagreements in 10000 cases, {elapsed:.1f}s")


def test_criterion_2_matrix_polynomial_consistency():
    """Monic det(ZI - G) vs the closed form, exact at the doubles and made
    monic in floats: 1,000 random admissible points per scheme,
    coefficient-wise within 1e-10 relative."""
    t0 = time.monotonic()
    worst = 0.0
    for scheme in Scheme:
        rng = np.random.default_rng(zlib.crc32(scheme.value.encode()))
        for _ in range(1000):
            p = _random_admissible(rng, scheme.kind)
            wn = Wavenumber(rng.uniform(0.0, 2 * math.pi * 0.999))
            q = courant_q(p, wn)
            closed = monic(char_poly_closed(scheme, p, q).coeffs)
            got = char_poly_from_matrix(amplification_matrix(scheme, p, wn))
            err = float(np.max(np.abs(got - closed)) / np.max(np.abs(closed)))
            worst = max(worst, err)
    elapsed = time.monotonic() - t0
    _report("criterion 2 (matrix vs closed-form characteristic polynomial)",
            worst < 1e-10 and elapsed < 10.0,
            f"worst relative coefficient error {worst:.2e}, {elapsed:.1f}s")


def test_criterion_3_table_reproduction():
    """Every regime row of the four reference argument tables (5 + 5 + 7 +
    13 regimes) reproduced with zero verdict mismatches."""
    t0 = time.monotonic()
    expected_regimes = {
        Scheme.DEBYE_JOSEPH: 5,
        Scheme.DEBYE_YOUNG: 5,
        Scheme.LORENTZ_KASHIWA: 7,
        Scheme.LORENTZ_YOUNG: 13,
    }
    mismatches = 0
    total = 0
    for scheme, n_regimes in expected_regimes.items():
        assert len(scheme.spec.regimes) == n_regimes
        rows = reproduce_argument_table(scheme)
        total += len(rows)
        for row in rows:
            if not row.ok:
                mismatches += 1
                print(f"    mismatch: {scheme.value} {row.regime} [{row.point}]")
            if row.note:
                print(f"    note ({scheme.value}, {row.regime}): {row.note}")
    elapsed = time.monotonic() - t0
    _report("criterion 3 (argument-table reproduction, 30 regimes)",
            mismatches == 0 and elapsed < 5.0,
            f"{total} representative points, {mismatches} mismatches, {elapsed:.1f}s")


_SQRT2 = math.sqrt(2.0)
_K_OMEGA_A = 2.0 / (MATERIAL_A.omega1 * math.sqrt(2 * 2.25 - 1))
_K_OMEGA_B = 2.0 / (MATERIAL_B.omega1 * math.sqrt(2 * 2.0 - 1))
# (label, scheme, medium, h, expected k*)
CRITERION_4_CASES = [
    ("debye-joseph water: k* = h/c_inf",
     Scheme.DEBYE_JOSEPH, WATER, 1e-5, 1e-5 / WATER.c_inf),
    ("debye-young water: k* = h/c_inf (q part of the min)",
     Scheme.DEBYE_YOUNG, WATER, 1e-5, 1e-5 / WATER.c_inf),
    ("debye-young foam: k* = 2 t_r (relaxation part of the min)",
     Scheme.DEBYE_YOUNG, FOAM, 4.0, 2 * FOAM.t_r),
    ("lorentz-joseph: k* = h/(sqrt2 c_inf)",
     Scheme.LORENTZ_JOSEPH, MATERIAL_A, 1e-8,
     1e-8 / (_SQRT2 * MATERIAL_A.c_inf)),
    ("lorentz-kashiwa: k* = h/c_inf",
     Scheme.LORENTZ_KASHIWA, MATERIAL_A, 1e-8, 1e-8 / MATERIAL_A.c_inf),
    ("lorentz-young: k* = 2/(omega1 sqrt(2 eps' - 1)) at the arm crossover",
     Scheme.LORENTZ_YOUNG, MATERIAL_A, _SQRT2 * MATERIAL_A.c_inf * _K_OMEGA_A,
     _K_OMEGA_A),
]
# (label, scheme, medium, h, expected k*, relative tolerance)
CRITERION_5_CASES = [
    ("water crossover (h = 4.2 mm): 1.88e-11 s",
     Scheme.DEBYE_YOUNG, WATER, 4.2e-3, 1.88e-11, 0.02),
    ("foam relaxation limit: 1.3e-9 s",
     Scheme.DEBYE_YOUNG, FOAM, 4.0, 1.3e-9, 0.02),
    ("optical Lorentz medium: 2.7e-17 s",
     Scheme.LORENTZ_YOUNG, MATERIAL_A, 1.13e-8, 2.7e-17, 0.03),
    ("radio Lorentz medium: 3.6e-12 s",
     Scheme.LORENTZ_YOUNG, MATERIAL_B, _SQRT2 * MATERIAL_B.c_inf * _K_OMEGA_B,
     3.6e-12, 0.03),
]


def test_criterion_4_condition_table_boundaries():
    """Bisection boundaries within 1% of the analytic conditions."""
    t0 = time.monotonic()
    ok = True
    for label, scheme, medium, h, expected in CRITERION_4_CASES:
        res = stability_boundary_k(scheme, medium, h)
        rel = abs(res.k_star - expected) / expected
        line_ok = rel < 0.01
        ok = ok and line_ok
        print(f"    {label}: k*={res.k_star:.4e} expected {expected:.4e} "
              f"({100 * rel:.3f}%){'' if line_ok else '  <-- FAIL'}")
    elapsed = time.monotonic() - t0
    _report("criterion 4 (condition-table boundaries within 1%)",
            ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_5_reference_numeric_crossovers():
    """Known time-step limits for the four example media."""
    t0 = time.monotonic()
    ok = True
    for label, scheme, medium, h, expected, tol in CRITERION_5_CASES:
        res = stability_boundary_k(scheme, medium, h)
        rel = abs(res.k_star - expected) / expected
        line_ok = rel < tol
        ok = ok and line_ok
        print(f"    {label}: k*={res.k_star:.4e} "
              f"({100 * rel:.2f}% vs {100 * tol:.0f}% budget)"
              f"{'' if line_ok else '  <-- FAIL'}")
    elapsed = time.monotonic() - t0
    _report("criterion 5 (reference numeric crossovers)",
            ok and elapsed < 1.0, f"{elapsed:.3f}s")


def test_criterion_4_5_verdict_budget(monkeypatch):
    """The theorem decides every step of a criterion-4/5 search: no q-walk
    is left in the analyzer, and each search makes exactly one
    `classify_at_q` probe, at q_max of k*, to label the result (the plain
    bisection's float walks made 56 to 133 probes per search)."""
    assert not any(hasattr(analyzer, name) for name in ("_walk", "_candidates"))
    calls = Counter()

    def counted(*args, _inner=analyzer.classify_at_q):
        calls[args[2]] += 1
        return _inner(*args)

    monkeypatch.setattr(analyzer, "classify_at_q", counted)
    probes = []
    for _, scheme, medium, h, *_ in CRITERION_4_CASES + CRITERION_5_CASES:
        calls.clear()
        res = stability_boundary_k(scheme, medium, h)
        q_max = analyzer._q_max(dimensionless_params(medium, res.k_star, h), h, None)
        probes.append(dict(calls))
        assert dict(calls) == {q_max: 1}
    _report("criterion 4/5 verdict budget (no q-walk, one probe per search at q_max of k*)",
            all(sum(c.values()) == 1 for c in probes), f"probes per search {probes}")


@pytest.mark.parametrize("case,q_c", [
    ("debye-joseph water", 4.0),
    ("debye-young water", 4.00398922066),
    ("debye-young foam", 0.0),
    ("lorentz-joseph:", 2.0),
    ("lorentz-kashiwa", 4.0),
    ("lorentz-young:", 0.0),
    ("water crossover", 0.0),
    ("foam relaxation", 0.0),
    ("optical Lorentz", 0.0),
    ("radio Lorentz", 0.0),
])
def test_criterion_4_5_top_stable_q(case, q_c):
    """At the bracket top, 2h/c_inf, the closed-form end of the stable
    q-range (`SchemeSpec.stable_q`) is exactly where the exact walk's stable
    q-range ends, at the exact parameters of the float steps: 4 or 2 on the
    Courant arms, Debye-Young's q_-1 in water, and 0 past a parameter limit
    (Debye-Young with delta > 1, Lorentz-Young with omega eps' >= 2)."""
    (_, scheme, medium, h, *_), = [c for c in CRITERION_4_CASES + CRITERION_5_CASES
                                   if c[0].startswith(case)]
    params = exact_params(medium, 2.0 * h / medium.c_inf, h)
    walk = exact_walk(scheme, params, Fraction(0), exact_q_max(params, h, None))
    assert scheme.spec.stable_q(params) == walk.q_c
    assert float(walk.q_c) == pytest.approx(q_c, rel=1e-11, abs=0.0)


@pytest.mark.parametrize("scheme,q_res_of", [
    (Scheme.LORENTZ_JOSEPH, lambda w: 2 * w / (1 + w)),
    (Scheme.LORENTZ_YOUNG, lambda w: 2 * w),
])
def test_criterion_6_resonance_instabilities(scheme, q_res_of):
    """Degenerate harmonic points: a defective unit-circle eigenvalue,
    decided in exact rationals, and linear (not exponential) norm growth
    over 5,000 steps."""
    t0 = time.monotonic()
    w = 0.5
    q_res = q_res_of(w)
    params = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=1.0, omega=w)
    verdict = analyzer.classify_at_q(scheme, params, q_res)
    analyzer_ok = not verdict.stable and verdict.argument is Argument.EIGENVECTORS

    k = math.sqrt(2 * w) / RESONANT.omega1
    m, n = (9, 64) if scheme is Scheme.LORENTZ_JOSEPH else (11, 64)
    xi = 2 * math.pi * m / n
    lam = math.sqrt(q_res / (4 * math.sin(xi / 2) ** 2))
    h = RESONANT.c_inf * k / lam
    rep = run_growth(scheme, RESONANT, k, h, Wavenumber(xi), 5000, grid=n)
    residual = linear_fit_residual(rep.norms)
    sim_ok = (rep.verdict == "growing" and residual < 0.05
              and rep.per_step_factor < 1.001)
    elapsed = time.monotonic() - t0
    _report(f"criterion 6 ({scheme.value} degenerate resonance)",
            analyzer_ok and sim_ok and elapsed < 30.0,
            f"{verdict.argument.value}, growth ratio "
            f"{rep.max_norm_ratio:.0f}, linear-fit residual {residual:.3f}, "
            f"{elapsed:.1f}s")


def test_criterion_7_analyzer_simulator_agreement():
    """Stratified verification: 100% agreement outside the margin band."""
    t0 = time.monotonic()
    plan = build_verify_plan()
    rows, hard = run_verify(plan)
    agree = sum(1 for r in rows if r[13])
    in_band = sum(1 for r in rows if r[10])
    elapsed = time.monotonic() - t0
    _report("criterion 7 (analyzer-simulator agreement)",
            len(rows) >= 200 and hard == 0 and elapsed < 300.0,
            f"{len(rows)} points, {agree} agree, {in_band} in margin band, "
            f"{hard} hard disagreements, {elapsed:.0f}s")


def test_criterion_8_2d_factorization():
    """2D polynomials factor exactly: the eigenvalues of the per-mode update
    matrix measured on an 8 x 6 grid are the roots of (Z - 1) phi(q_x + q_y)
    in TE and (Z - 1) psi phi(q_x + q_y) in TM, taken factor by factor, over
    100 random admissible points and grid modes per scheme (an x mode other
    than 0 keeps q > 0, where the roots are simple).  A TE run with no
    transverse variation reproduces the 1D run."""
    t0 = time.monotonic()
    worst = 0.0
    shape = (8, 6)
    for scheme in Scheme:
        rng = np.random.default_rng(zlib.crc32(scheme.value.encode()) ^ 0x2D)
        for _ in range(100):
            p = _random_admissible(rng, scheme.kind)
            modes = (int(rng.integers(1, shape[0])), int(rng.integers(0, shape[1])))
            wn = Wavenumber(2 * math.pi * modes[0] / shape[0],
                            2 * math.pi * modes[1] / shape[1],
                            h_x=1.0, h_y=float(rng.uniform(0.5, 2.0)))
            for polarization in ("te", "tm"):
                eigs = list(np.linalg.eigvals(
                    mode_matrix_2d(scheme, polarization, p, wn, shape, modes)))
                for z in factor_roots_2d(scheme, p, wn, polarization):
                    nearest = eigs.pop(int(np.argmin(np.abs(np.array(eigs) - z))))
                    worst = max(worst, abs(nearest - z) / max(1.0, abs(z)))
    root_ok = worst < 1e-10

    # TE run with xi_y = 0 against the 1D run (transverse magnetic
    # component maps with opposite sign).
    medium, h = MATERIAL_A, 1e-8
    k = 0.6 * h / medium.c_inf
    params = dimensionless_params(medium, k, h)
    n, ny, m = 32, 6, 5
    xi = 2 * math.pi * m / n
    st1 = init_plane_wave(Scheme.LORENTZ_KASHIWA, n, Wavenumber(xi), 1.0)
    st2 = init_plane_wave(Scheme.LORENTZ_KASHIWA, (n, ny),
                          Wavenumber(xi, 0.0, h_x=h, h_y=h), 1.0,
                          polarization="te")
    arrays = {key: np.tile(v[:, None], (1, ny))
              for key, v in st1.arrays.items() if key != "b"}
    arrays["b_y"] = np.tile(-st1.arrays["b"][:, None], (1, ny))
    arrays["b_x"] = np.zeros((n, ny))
    st2 = replace(st2, data=np.stack([arrays[l] for l in st2.labels]))
    sim_err = 0.0
    for _ in range(100):
        st1 = step(Scheme.LORENTZ_KASHIWA, st1, params)
        st2 = step(Scheme.LORENTZ_KASHIWA, st2, params)
        for label, arr in st1.arrays.items():
            col = -st2.arrays["b_y"][:, 0] if label == "b" \
                else st2.arrays[label][:, 0]
            sim_err = max(sim_err, float(np.max(np.abs(col - arr))))
    elapsed = time.monotonic() - t0
    _report("criterion 8 (2D factorization and TE/1D reduction)",
            root_ok and sim_err < 1e-9 and elapsed < 60.0,
            f"worst root error {worst:.2e}, TE/1D deviation "
            f"{sim_err:.2e} over 100 steps, {elapsed:.1f}s")


def test_criterion_9_half_band_instability_at_cfl():
    """At the undispersed CFL limit the Joseph-style Lorentz scheme is
    stable for grid wavenumbers up to pi/2 and unstable beyond."""
    t0 = time.monotonic()
    h = 1e-6
    k = h / MATERIAL_A.c_inf
    params = dimensionless_params(MATERIAL_A, k, h)
    n = 64
    verdicts = {}
    for m in range(1, n // 2 + 1):
        xi = 2 * math.pi * m / n
        verdicts[m] = classify_point(Scheme.LORENTZ_JOSEPH, params,
                                     Wavenumber(xi)).stable
    low_ok = all(verdicts[m] for m in range(1, 17))
    high_bad = any(not verdicts[m] for m in range(17, 33))
    elapsed = time.monotonic() - t0
    _report("criterion 9 (instability restricted to xi > pi/2 at the CFL limit)",
            low_ok and high_bad and elapsed < 5.0,
            f"stable through m=16 (xi=pi/2): {low_ok}; "
            f"instability beyond: {high_bad}; {elapsed:.1f}s")
