"""Analyzer tests: boundedness of matrix powers, point classification,
worst-case scans, stability boundaries and the reference tables.

The independent referees are the companion-matrix root oracle (all roots
in the closed disk with simple circle roots) and the exact decision of
`referees.exact_stable_at_q`.
"""

import math
import random
from collections import Counter
from fractions import Fraction

import numpy as np
import pytest

from fdtd_stability import (
    Argument,
    DimensionlessParams,
    InvalidInputError,
    MediumModel,
    NumericalFailureError,
    Scheme,
    Wavenumber,
    char_poly_closed,
    classify_at_q,
    classify_point,
    classify_point_2d,
    courant_q,
    dimensionless_params,
    is_simple_von_neumann,
    reproduce_argument_table,
    stability_boundary_k,
    tm_factor_2d,
    worst_case_verdict,
)
from fdtd_stability import analyzer, polyloc
from fdtd_stability.polyloc import poly_roots
from referees import factor_roots_2d, plain_bisection_boundary, walk_verdict
from test_golden import _young_omega_h
from test_schemes import rational_point


# --- classify_at_q -----------------------------------------------------------

def test_debye_joseph_worst_mode_is_defective():
    """Debye-Joseph with eps_s = eps_inf at q = 4: the double eigenvalue -1
    is defective, decided exactly where the float recursion fails."""
    p = DimensionlessParams(lam=1.0, delta=0.3, eps_s_prime=1.0)
    v = classify_at_q(Scheme.DEBYE_JOSEPH, p, 4.0)
    assert not v.stable and v.argument is Argument.EIGENVECTORS


# --- classify_point ----------------------------------------------------------

def test_interior_point_is_schur():
    p = DimensionlessParams(lam=1.0, delta=0.1, eps_s_prime=2.0)
    v = classify_point(Scheme.DEBYE_JOSEPH, p, Wavenumber(math.pi / 2))
    assert v.stable and v.argument is Argument.THEOREM_SCHUR


def test_marginal_discretization_is_sub_polynomial():
    p = DimensionlessParams(lam=1.0, delta=1.0, eps_s_prime=2.0)
    v = classify_at_q(Scheme.DEBYE_YOUNG, p, 2.0)
    assert v.stable and v.argument is Argument.SUB_POLYNOMIAL


def test_harmonic_young_resonance_is_defective():
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=1.0, omega=0.5)
    v = classify_at_q(Scheme.LORENTZ_YOUNG, p, 1.0)  # q = 2*omega
    assert not v.stable and v.argument is Argument.EIGENVECTORS


def test_harmonic_joseph_resonance_is_defective():
    w = 0.8
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=1.0, omega=w)
    v = classify_at_q(Scheme.LORENTZ_JOSEPH, p, 2 * w / (1 + w))
    assert not v.stable and v.argument is Argument.EIGENVECTORS


def test_harmonic_kashiwa_degenerate_point_is_defective():
    # The Kashiwa scheme has its own couple collision at q = 2w/(1 + w/2)
    # when eps_s = eps_inf and nu = 0.
    w = 0.8
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=1.0, omega=w)
    v = classify_at_q(Scheme.LORENTZ_KASHIWA, p, 2 * w / (1 + 0.5 * w))
    assert not v.stable and v.argument is Argument.EIGENVECTORS


def test_classify_at_q_reads_a_fraction_q_as_given():
    """A float q within RESONANCE_SNAP_TOL of the degenerate q snaps onto it
    (defective); a `Fraction` q is read as given, and 1e-10 off that q the
    harmonic Lorentz-Kashiwa point is stable.  A `Fraction` q is never
    converted to a float, so one beyond the doubles' range is decided."""
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=1.0, omega=0.8)
    near = Fraction(Scheme.LORENTZ_KASHIWA.spec.degenerate_q(0.8)) - Fraction(1, 10**10)
    assert classify_at_q(Scheme.LORENTZ_KASHIWA, p, float(near)).argument is Argument.EIGENVECTORS
    assert classify_at_q(Scheme.LORENTZ_KASHIWA, p, near).stable
    assert not classify_at_q(Scheme.DEBYE_JOSEPH, DimensionlessParams(1.0, 0.1, 2.0),
                             Fraction(10**400)).stable


def test_uniform_mode_stable_across_schemes():
    rng = np.random.default_rng(17)
    for scheme in Scheme:
        for _ in range(20):
            es = rng.uniform(1.0, 4.0)
            omega = None
            if scheme.kind == "lorentz":
                # stay inside the scheme's admissible oscillator range
                omega = rng.uniform(0.05, 0.9) * 2.0 / (2.0 * es - 1.0)
            p = DimensionlessParams(lam=rng.uniform(0.2, 1.5),
                                    delta=rng.uniform(0.01, 0.9),
                                    eps_s_prime=es,
                                    omega=omega)
            v = classify_at_q(scheme, p, 0.0)
            assert v.stable, (scheme, p, v)


def test_uniform_mode_young_exception():
    # Undamped, eps_s = eps_inf, omega exactly at the oscillator edge:
    # defective even at q = 0.
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=1.0, omega=2.0)
    v = classify_at_q(Scheme.LORENTZ_YOUNG, p, 0.0)
    assert not v.stable and v.argument is Argument.EIGENVECTORS


def test_classifier_agrees_with_root_oracle():
    """Polynomial-path verdicts vs the independent root oracle on random
    admissible points."""
    rng = np.random.default_rng(2024)
    checked = 0
    for _ in range(10000):
        scheme = list(Scheme)[rng.integers(0, 5)]
        omega = rng.uniform(0.01, 2.5) if scheme.kind == "lorentz" else None
        p = DimensionlessParams(lam=rng.uniform(0.05, 1.6),
                                delta=rng.uniform(1e-3, 2.0),
                                eps_s_prime=rng.uniform(1.0, 5.0),
                                omega=omega)
        xi = rng.uniform(1e-3, 2 * math.pi * 0.999)
        q = courant_q(p, Wavenumber(xi))
        verdict = classify_at_q(scheme, p, q)
        roots = poly_roots(char_poly_closed(scheme, p, q))
        mods = np.abs(roots)
        if np.any(np.abs(mods - 1.0) < 1e-6):
            continue  # tolerance band of the oracle itself
        oracle_stable = bool(np.all(mods < 1.0))
        assert verdict.stable == oracle_stable, (scheme, p, q)
        checked += 1
    assert checked > 5000


def test_stable_q_set_is_a_prefix():
    """For damped media with dispersion contrast the stable q values form
    an interval starting at 0."""
    rng = np.random.default_rng(5)
    for scheme in Scheme:
        omega = 0.4 if scheme.kind == "lorentz" else None
        p = DimensionlessParams(lam=1.2, delta=0.35, eps_s_prime=1.8, omega=omega)
        verdicts = [classify_at_q(scheme, p, q).stable
                    for q in np.linspace(1e-6, 4.5, 64)]
        if False in verdicts:
            first_bad = verdicts.index(False)
            assert all(not v for v in verdicts[first_bad:]), scheme


def test_2d_with_zero_second_wavenumber_matches_1d():
    p = DimensionlessParams(lam=0.7, delta=0.2, eps_s_prime=2.0, omega=0.5)
    for xi in (0.5, 1.5, 2.5):
        wn1 = Wavenumber(xi)
        wn2 = Wavenumber(xi, 0.0)
        v1 = classify_point(Scheme.LORENTZ_KASHIWA, p, wn1)
        v2 = classify_point(Scheme.LORENTZ_KASHIWA, p, wn2)
        assert v1.stable == v2.stable


def test_2d_small_q_stable():
    p = DimensionlessParams(lam=0.2, delta=0.2, eps_s_prime=2.0)
    wn = Wavenumber(0.8, 0.8)
    for scheme in (Scheme.DEBYE_JOSEPH, Scheme.DEBYE_YOUNG):
        assert classify_point(scheme, p, wn).stable


def test_2d_tm_joseph_lorentz_overlap_unstable():
    w = 0.5
    q_res = 2 * w / (1 + w)
    xi = math.pi / 2
    lam = math.sqrt(q_res / (8 * math.sin(xi / 2) ** 2))
    p = DimensionlessParams(lam=lam, delta=0.0, eps_s_prime=1.0, omega=w)
    wn = Wavenumber(xi, xi)
    v = classify_point(Scheme.LORENTZ_JOSEPH, p, wn)
    assert not v.stable and v.argument is Argument.EIGENVECTORS


def test_2d_tm_debye_young_stable_point():
    p = DimensionlessParams(lam=0.35, delta=0.5, eps_s_prime=2.0)
    wn = Wavenumber(math.pi, math.pi)
    v = classify_point(Scheme.DEBYE_YOUNG, p, wn)
    assert v.stable
    # independent root check on the factors of the 2D polynomial
    roots = factor_roots_2d(Scheme.DEBYE_YOUNG, p, wn, "tm")
    assert np.max(np.abs(roots)) <= 1.0 + 1e-9


@pytest.mark.parametrize("es", [1.0, 1.0 + 1e-9, 2.25])
def test_2d_tm_joseph_lorentz_follows_1d_factor(es):
    """At the degenerate q of a harmonic medium the TM factor leaves the
    verdict of the 1D factor unchanged; at eps_s = eps_inf it is unstable."""
    scheme = Scheme.LORENTZ_JOSEPH
    xi = 2 * math.pi * 9 / 64
    for w in np.linspace(0.05, 3.0, 12).tolist():
        q_res = scheme.spec.degenerate_q(w)
        lam = math.sqrt(q_res / (8 * math.sin(xi / 2) ** 2))
        p = DimensionlessParams(lam=lam, delta=0.0, eps_s_prime=es, omega=w)
        wn = Wavenumber(xi, xi)
        assert courant_q(p, wn) == pytest.approx(q_res, abs=1e-12)
        v2 = classify_point(scheme, p, wn)
        v1 = classify_at_q(scheme, p, q_res)
        assert (v2.stable, v2.argument) == (v1.stable, v1.argument), w
        assert v2.stable == (es != 1.0), w


def _premise_points():
    """Seeded 2D points: every scheme, a third of the Lorentz media harmonic
    (delta = 0) and a quarter with eps_s = eps_inf, h_y in {h/2, h, 2h}, and
    for a harmonic medium every other point at its degenerate q."""
    rng = random.Random(20)
    for scheme in Scheme:
        for j in range(40):
            es = 1.0 if rng.random() < 0.25 else 1.0 + 10.0 ** rng.uniform(-3.0, 1.0)
            if scheme.kind == "debye":
                delta, omega = 10.0 ** rng.uniform(-6.0, 0.5), None
            else:
                delta = 0.0 if rng.random() < 1.0 / 3.0 else 10.0 ** rng.uniform(-6.0, 0.0)
                omega = 10.0 ** rng.uniform(-4.0, 0.5)
            wn = Wavenumber(rng.uniform(0.0, 2.0 * math.pi), rng.uniform(0.0, 2.0 * math.pi),
                            h_x=1.0, h_y=rng.choice([0.5, 1.0, 2.0]))
            s = (4.0 * math.sin(wn.xi_x / 2.0) ** 2
                 + 4.0 * (wn.h_x / wn.h_y) ** 2 * math.sin(wn.xi_y / 2.0) ** 2)
            q = rng.uniform(0.0, 5.0)
            if delta == 0.0 and scheme.spec.degenerate_q and j % 2:
                q = scheme.spec.degenerate_q(omega)
            yield scheme, DimensionlessParams(math.sqrt(q / s), delta, es, omega), wn


def test_2d_verdict_depends_on_no_polarization():
    """classify_point on a 2D wavenumber is classify_at_q at its summed
    Courant quantity, and classify_point_2d returns that verdict whatever
    the polarization, field for field."""
    stable, at_degenerate = set(), 0
    for scheme, p, wn in _premise_points():
        v = classify_point(scheme, p, wn)
        q, q_of_omega = courant_q(p, wn), scheme.spec.degenerate_q
        at_degenerate += (q_of_omega is not None
                          and abs(q - q_of_omega(p.omega)) <= analyzer.RESONANCE_SNAP_TOL)
        stable.add(v.stable)
        assert v == classify_at_q(scheme, p, q)
        for polarization in ("te", "tm"):
            assert v == classify_point_2d(scheme, p, wn, polarization)
    assert at_degenerate > 10 and stable == {True, False}


def test_psi_decides_no_verdict():
    """Where the TM factor psi is not simple von Neumann, `stable_q` is 0
    and the limit is not closed, so the theorem reads every grid unstable
    whatever psi does (phi(0) is (Z - 1)^2 psi).  6,000 seeded draws of
    exact parameters over the five schemes (`rational_point`, a quarter of
    them at delta = 0 or eps_s = eps_inf): psi fails on Lorentz-Young draws
    with omega eps_s' >= 2 only."""
    rng = np.random.default_rng(52)
    failed = Counter()
    for scheme in Scheme:
        for _ in range(1200):
            p, _ = rational_point(rng, scheme.kind)
            if is_simple_von_neumann(tm_factor_2d(scheme, p)).ok:
                continue
            failed[scheme] += 1
            assert scheme.spec.stable_q(p) == 0 and not scheme.spec.closed(p), p
            assert scheme is Scheme.LORENTZ_YOUNG and p.omega * p.eps_s_prime >= 2, p
    assert failed[Scheme.LORENTZ_YOUNG] > 100


@pytest.mark.parametrize("wn,polarization,match", [
    (Wavenumber(1.0), "te", "requires a 2D wavenumber"),
    (Wavenumber(1.0, 0.5), "xy", "polarization must be 'te' or 'tm'"),
    (Wavenumber(1.0, 0.5), None, "polarization must be 'te' or 'tm'"),
])
def test_classify_point_2d_refusals(wn, polarization, match):
    p = DimensionlessParams(lam=0.5, delta=0.2, eps_s_prime=2.0)
    with pytest.raises(InvalidInputError, match=match):
        classify_point_2d(Scheme.DEBYE_JOSEPH, p, wn, polarization)


# --- worst case and boundaries ------------------------------------------------

def test_worst_case_rejects_medium_of_other_kind(optical_lorentz):
    with pytest.raises(InvalidInputError,
                       match="debye-joseph cannot run in a lorentz medium"):
        worst_case_verdict(Scheme.DEBYE_JOSEPH, optical_lorentz, 1e-17, 1e-8)


def test_boundary_without_instability_below_2h_is_a_numerical_failure(water):
    """The bracket's top, 2h/c_inf, must be unstable; a search that finds it
    stable refuses to report a boundary.  Debye-Young in water at h = 1.05 mm:
    at the top, delta = 0.4999 and q_c = 4 (1 + delta^2 (eps_s' - 1)) = 48.0
    lies above q_max = 16, and every k below it is stable too.  The exact
    plain bisection refuses the same search."""
    h = 1.05e-3
    params = dimensionless_params(water, 2.0 * h / water.c_inf, h)
    assert params.delta == pytest.approx(0.5, abs=1e-3)
    assert Scheme.DEBYE_YOUNG.spec.stable_q(params) == pytest.approx(48.0, rel=1e-3)
    for search in (stability_boundary_k, plain_bisection_boundary):
        with pytest.raises(NumericalFailureError, match="no instability found up to 2h/c_inf"):
            search(Scheme.DEBYE_YOUNG, water, h)


def test_worst_case_water(water):
    h = 1e-5
    k_cfl = h / water.c_inf
    assert worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 0.99 * k_cfl, h).stable
    v = worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 1.01 * k_cfl, h)
    assert not v.stable


def test_worst_case_tie_is_decided_exactly(water):
    """Debye-Young in water on a square grid (h = h_y = 1e-5): at
    k = 3.164664124078627e-14, floats read q_max = q_c = 4.00049871475
    exactly, a tie the closed limit would call stable, but in exact
    rationals q_max lies above q_c.  The verdict follows the exact
    comparison, as the exact walk does; one ulp of k below, both read
    stable."""
    k = 3.164664124078627e-14
    for k, stable in ((k, False), (math.nextafter(k, 0.0), True)):
        v = worst_case_verdict(Scheme.DEBYE_YOUNG, water, k, 1e-5, 1e-5)
        assert v.stable is stable
        assert walk_verdict(Scheme.DEBYE_YOUNG, water, k, 1e-5, 1e-5) is stable


def test_worst_case_lorentz_joseph_above_limit(optical_lorentz):
    h = 1e-8
    k = 1.05 * h / (math.sqrt(2.0) * optical_lorentz.c_inf)
    assert not worst_case_verdict(Scheme.LORENTZ_JOSEPH, optical_lorentz, k, h).stable


@pytest.mark.parametrize("scheme,medium,h,h_y", [
    (Scheme.DEBYE_JOSEPH, "water", 1e-5, 1e-5),
    (Scheme.DEBYE_JOSEPH, "water", 1e-5, 2e-5),
    (Scheme.LORENTZ_JOSEPH, "optical_lorentz", 1e-8, 1e-8),
    (Scheme.LORENTZ_KASHIWA, "optical_lorentz", 1e-8, 2e-8),
])
def test_worst_case_2d_courant_limit(scheme, medium, h, h_y, request):
    medium = request.getfixturevalue(medium)
    # On a 2D grid, q reaches 4 lam^2 (1 + (h/h_y)^2).
    ratio = h / h_y
    k_lim = math.sqrt(scheme.spec.q_limit / (4.0 * (1.0 + ratio ** 2))) * h / medium.c_inf
    assert worst_case_verdict(scheme, medium, 0.99 * k_lim, h, h_y).stable
    assert not worst_case_verdict(scheme, medium, 1.01 * k_lim, h, h_y).stable


@pytest.mark.parametrize("h_y", [-1e-5, 0.0, math.inf, math.nan])
def test_worst_case_and_boundary_reject_bad_h_y(water, h_y):
    """The y space step of a 2D grid must be positive and finite: a negative
    one is not read as its modulus, an infinite one does not switch the y
    direction off, and zero is refused rather than divided by."""
    kw = dict(h_y=h_y)
    with pytest.raises(InvalidInputError, match="h_y must be positive and finite"):
        worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 1e-14, 1e-5, **kw)
    with pytest.raises(InvalidInputError, match="h_y must be positive and finite"):
        stability_boundary_k(Scheme.DEBYE_JOSEPH, water, 1e-5, **kw)


@pytest.mark.parametrize("h", [1e-170, 2e-160])
def test_overflowing_courant_quantity_is_invalid_input(water, h):
    """At h = 1e-170, lam = c_inf k / h is about 3e164 and its square
    overflows a double; at h = 2e-160 lam is about 1.1e154, whose square is
    a double but 4 lam^2 is not.  Both overflow in `courant_q` (so in
    `classify_point`, also at xi = 0, where inf * 0 would be NaN, and in 2D)
    and in the grid's q_max (so in `worst_case_verdict`), and both refuse
    the input."""
    params = dimensionless_params(water, 1e-14, h)
    for wn in (Wavenumber(math.pi), Wavenumber(0.0), Wavenumber(math.pi, math.pi, h, h)):
        with pytest.raises(InvalidInputError, match=r"lam\^2 = \(c_inf k / h\)\^2 overflows a double"):
            classify_point(Scheme.DEBYE_JOSEPH, params, wn)
    for kw in ({}, dict(h_y=h)):
        with pytest.raises(InvalidInputError, match=r"q_max = 4 lam\^2 overflows a double"):
            worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 1e-14, h, **kw)


def test_2d_courant_quantity_overflowing_in_y_is_invalid_input(water):
    """lam_x = 0.22 with h_x / h_y = 5e154 makes lam_y = lam_x h_x / h_y
    about 1.1e154, whose square is a double but 4 lam_y^2 is not, and
    `courant_q` refuses it rather than returning inf."""
    params = dimensionless_params(water, 1e-14, 1e-5)
    with pytest.raises(InvalidInputError, match=r"lam\^2 = \(c_inf k / h\)\^2 overflows a double"):
        classify_point(Scheme.DEBYE_JOSEPH, params, Wavenumber(math.pi, math.pi, 1e-5, 2e-160))


@pytest.mark.parametrize("h", [-1e-5, 0.0, math.inf, math.nan])
def test_boundary_rejects_bad_h(water, h):
    with pytest.raises(InvalidInputError, match="h must be positive and finite"):
        stability_boundary_k(Scheme.DEBYE_JOSEPH, water, h)


@pytest.mark.parametrize("h,kw,courant", [
    (1e-5, dict(h_y=1e-5), 1.0 / math.sqrt(2.0)),
    (6.954068841685703e-06, {}, 1.0),
], ids=["2d", "1d"])
def test_worst_case_no_false_instability_at_tiny_steps(water, h, kw, courant):
    """The Debye-Joseph scheme with eps_s > eps_inf is Schur-stable for
    0 < q < 4, so no time step below the Courant limit is unstable.  A
    sampled wavenumber scan probes q = 1.36e-11 at k = 3.16e-18, where
    the float recursion misreads a near-tie (see the test below); at
    h = 6.954e-6 the worst-case verdict at k = 3.11e-18 hits the same
    misread.  Neither probe may turn the search non-monotone."""
    res = stability_boundary_k(Scheme.DEBYE_JOSEPH, water, h, **kw)
    assert res.non_monotone is False
    assert res.lowest_unstable_k is None
    assert res.k_star == pytest.approx(courant * h / water.c_inf, rel=1e-2)
    assert worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 3.1644077724020904e-18, 1e-5).stable


def test_near_tie_root_pair_is_not_defective(water):
    """The float recursion reads |p(0)| > |p*(0)| at degree 2 by 8e-12; the
    exact recursion on the same input reads Schur."""
    params = dimensionless_params(water, 3.1644077724020904e-18, 1e-5)
    assert classify_at_q(Scheme.DEBYE_JOSEPH, params, 1.3551802139387012e-11).stable


def _sampled_worst_case(scheme, medium, k, h, h_y=None):
    """Referee: 257 uniformly spaced wavenumbers in [0, pi] plus the exact
    special values 0, q_max, 2, 4 and the degenerate q, each classified by
    classify_at_q; stable iff every sample is."""
    params = dimensionless_params(medium, k, h)
    q_max = 4.0 * params.lam ** 2
    if h_y is not None:
        q_max *= 1.0 + (h / h_y) ** 2
    qs = [q_max * math.sin(x / 2.0) ** 2 for x in np.linspace(0.0, math.pi, 257)]
    spec = scheme.spec
    q_res = spec.degenerate_q(params.omega) if spec.degenerate_q and params.omega else None
    qs += [s for s in (0.0, q_max, 2.0, 4.0, q_res)
           if s is not None and 0.0 <= s <= q_max * (1.0 + 1e-9)]
    return all(classify_at_q(scheme, params, q).stable for q in sorted(set(qs)))


SWEEP_MEDIA = (
    MediumModel.debye(1.8, 81.0, 9.4e-12),                  # water
    MediumModel.debye(1.01, 1.16, 6.497e-10),               # foam
    MediumModel.debye(2.0, 2.0, 1e-11),                     # eps_s = eps_inf
    MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16),          # optical
    MediumModel.lorentz(1.5, 3.0, 2 * math.pi * 5e10, 1e10),  # radio
    MediumModel.lorentz(1.0, 2.25, 4e16, 0.0),              # harmonic
    MediumModel.lorentz(1.0, 1.0, 4e16, 0.0),               # harmonic, eps_s = eps_inf
    MediumModel.lorentz(1.0, 1.0, 4e16, 0.56e16),           # damped, eps_s = eps_inf
)


def test_worst_case_agrees_with_sampled_scan():
    """Seeded points over every scheme and matching medium, 1D one time in
    three, else 2D with h_y in {h, 2h}, space steps around the medium's own
    length scale and
    time steps from 0.05 to 2.5 of the Courant-limited step: the exact
    verdict and the dense sampled scan never disagree."""
    rng = random.Random(2026)
    disagreements = []
    n_stable = 0
    for _ in range(320):
        scheme = rng.choice(list(Scheme))
        medium = rng.choice([m for m in SWEEP_MEDIA if m.kind == scheme.kind])
        scale = medium.t_r if medium.kind == "debye" else 1.0 / medium.omega1
        h = medium.c_inf * scale * 10.0 ** rng.uniform(-1.0, 1.0)
        kw = {}
        ratio = 1.0
        if rng.randrange(3):
            h_y = rng.choice([h, 2.0 * h])
            kw = dict(h_y=h_y)
            ratio += (h / h_y) ** 2
        k_lim = math.sqrt(scheme.spec.q_limit / (4.0 * ratio)) * h / medium.c_inf
        k = rng.uniform(0.05, 2.5) * k_lim
        exact = worst_case_verdict(scheme, medium, k, h, **kw).stable
        n_stable += exact
        if exact != _sampled_worst_case(scheme, medium, k, h, **kw):
            disagreements.append((scheme.value, medium, kw, k, h, exact))
    assert disagreements == []
    assert 50 < n_stable < 270  # both verdicts well represented


def test_boundary_debye_joseph(water):
    h = 1e-5
    res = stability_boundary_k(Scheme.DEBYE_JOSEPH, water, h)
    assert res.k_star == pytest.approx(h / water.c_inf, rel=1e-2)
    assert res.attained is True
    assert not res.non_monotone


def test_boundary_kashiwa_open_condition(optical_lorentz):
    res = stability_boundary_k(Scheme.LORENTZ_KASHIWA, optical_lorentz, 1e-8)
    assert res.k_star == pytest.approx(1e-8 / optical_lorentz.c_inf, rel=1e-2)
    assert res.attained is False


@pytest.mark.parametrize("geometry", ["1d", "h_y=h", "h_y=2h"])
@pytest.mark.parametrize("scheme,medium,h,attained", [
    (Scheme.DEBYE_JOSEPH, "water", 1e-5, True),               # closed q = 4
    (Scheme.LORENTZ_KASHIWA, "optical_lorentz", 1e-8, False),  # open q = 4
    (Scheme.LORENTZ_JOSEPH, "optical_lorentz", 1e-8, True),    # closed q = 2
    (Scheme.DEBYE_YOUNG, "water", 1e-5, True),                 # closed crossing
])
def test_boundary_attainability_referee(scheme, medium, h, attained, geometry, request):
    """Whether k* itself is stable follows from the regime the boundary
    sits on, closed or open, and not from the geometry: 1D, and 2D with
    h_y = h and with h_y = 2h give the same answer."""
    kw = {"1d": {}, "h_y=h": dict(h_y=h), "h_y=2h": dict(h_y=2.0 * h)}[geometry]
    res = stability_boundary_k(scheme, request.getfixturevalue(medium), h, **kw)
    assert res.attained is attained
    assert not res.non_monotone


def test_boundary_resonant_harmonic_medium_has_no_interval(resonant_lorentz):
    res = stability_boundary_k(Scheme.LORENTZ_JOSEPH, resonant_lorentz, 1e-8)
    assert res.non_monotone
    assert res.k_star is None
    assert res.lowest_unstable_k is not None


def _probe_counter(monkeypatch) -> list:
    """Record every `classify_at_q` probe of the analyzer."""
    inner = analyzer.classify_at_q
    calls = []

    def counted(*args):
        calls.append(args)
        return inner(*args)

    monkeypatch.setattr(analyzer, "classify_at_q", counted)
    return calls


def _outcome(search, scheme, medium, h, kw):
    """The result's fields but its detail, or the refusal's message."""
    try:
        res = search(scheme, medium, h, **kw)
    except NumericalFailureError as exc:
        return str(exc)
    return res.k_star, res.attained, res.non_monotone, res.lowest_unstable_k


def _both_searches(scheme, medium, h, kw, calls):
    """Outcome and probe count of the search, then the outcome of the exact
    plain bisection."""
    calls.clear()
    outcome = _outcome(stability_boundary_k, scheme, medium, h, kw)
    probes = len(calls)
    return outcome, probes, _outcome(plain_bisection_boundary, scheme, medium, h, kw)


GEOMETRIES = {"1d": lambda h: {}, "h_y=h": lambda h: dict(h_y=h),
              "h_y=2h": lambda h: dict(h_y=2.0 * h)}


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
@pytest.mark.parametrize("scheme,medium,h", [
    (Scheme.DEBYE_YOUNG, "foam", 4.0),                 # delta = 1 binds
    (Scheme.DEBYE_YOUNG, "water", 4.2e-3),             # delta = 1 at the crossover
    (Scheme.LORENTZ_YOUNG, "optical_lorentz", None),   # q_max meets q_c = 2
    (Scheme.LORENTZ_YOUNG, "radio_lorentz", None),
    (Scheme.LORENTZ_YOUNG, "optical_lorentz", 1.13e-8),  # q_max meets q_c above 2
    (Scheme.LORENTZ_JOSEPH, "resonant_lorentz", 1e-8),   # non_monotone
    (Scheme.LORENTZ_KASHIWA, "resonant_lorentz", 1e-8),
    (Scheme.LORENTZ_YOUNG, "resonant_lorentz", 1e-8),
])
def test_boundary_search_matches_plain_bisection(scheme, medium, h, geometry, request,
                                                 monkeypatch):
    """Near the parameter limits, where `SchemeSpec.stable_q` switches
    formula or q_max meets q_c = 2 as the omega limit arrives, and in
    resonant media, the search returns the exact plain bisection's result
    field for field (`referees.plain_bisection_boundary`, on exact walks),
    with one `classify_at_q` probe.  h = None puts the omega limit of
    Lorentz-Young where q_max = 2 in 1D."""
    medium = request.getfixturevalue(medium)
    if h is None:
        h = _young_omega_h(medium)
    calls = _probe_counter(monkeypatch)
    res, probes, plain = _both_searches(scheme, medium, h, GEOMETRIES[geometry](h), calls)
    assert res == plain
    assert probes == 1


@pytest.mark.parametrize("nu,attained", [(1.0895521273648863e11, True), (0.0, False)],
                         ids=["damped", "harmonic"])
def test_boundary_at_the_lorentz_young_switch(nu, attained, monkeypatch):
    """Lorentz-Young with eps_s = eps_inf keeps q_c = 4 (open) with damping,
    or the degenerate q = 2 omega without, up to omega = 2, and has none
    just past it (`SchemeSpec.switch_k`, k = 2/omega1).  Where q_max stays
    below q_c, the boundary is that switch: attained where damping keeps
    q_c = 4 at omega = 2 itself, although the limit is open, and not where
    the harmonic medium is defective there.  Both equal the exact plain
    bisection (a `_random_grid` draw of seed 3, h_y = h)."""
    medium = MediumModel.lorentz(1.1464239800526417, 1.1464239800526417,
                                 171590777326386.62, nu)
    h = 1.2824574500654952e-05
    calls = _probe_counter(monkeypatch)
    res, probes, plain = _both_searches(Scheme.LORENTZ_YOUNG, medium, h, dict(h_y=h), calls)
    assert res == plain and probes == 1
    k_star, res_attained, *_ = res
    assert k_star < 2.0 / medium.omega1 <= k_star * (1.0 + 1e-4)
    assert res_attained is attained


def _random_grid(rng: random.Random):
    """A seeded scheme, physical medium, h and 2D keywords: eps_inf in
    [1, 5], eps_s/eps_inf 1 or up to 80, t_r in 1e-12 to 1e-9 s, omega1 in
    1e9 to 1e17 rad/s with nu 0 or 1e-4 to 1 times omega1, h from 1e-3 to
    10 medium lengths, on 1D grids and 2D ones with h_y in {h, 2h}."""
    scheme = rng.choice(list(Scheme))
    eps_inf = rng.uniform(1.0, 5.0)
    eps_s = eps_inf * (1.0 if rng.random() < 0.25 else 80.0 ** rng.random())
    if scheme.kind == "debye":
        medium = MediumModel.debye(eps_inf, eps_s, 10.0 ** rng.uniform(-12.0, -9.0))
        scale = medium.t_r
    else:
        omega1 = 10.0 ** rng.uniform(9.0, 17.0)
        nu = 0.0 if rng.random() < 0.3 else omega1 * 10.0 ** rng.uniform(-4.0, 0.0)
        medium = MediumModel.lorentz(eps_inf, eps_s, omega1, nu)
        scale = 1.0 / omega1
    h = medium.c_inf * scale * 10.0 ** rng.uniform(-3.0, 1.0)
    return scheme, medium, h, GEOMETRIES[rng.choice(list(GEOMETRIES))](h)


def test_boundary_search_matches_plain_bisection_on_random_media(monkeypatch):
    """Seeded random physical media and grids of every scheme
    (`_random_grid`).  Every outcome equals the exact plain bisection's, a
    refusal included, with one `classify_at_q` probe per search that is not
    refused.  That covers the classes whose float walks read other q-ranges:
    damped Lorentz-Joseph media, which hide the growth just past q = 2, and
    eps_s' = 1 Lorentz media at small omega."""
    rng = random.Random(23)
    calls = _probe_counter(monkeypatch)
    outcomes = Counter()
    for _ in range(80):
        scheme, medium, h, kw = _random_grid(rng)
        res, probes, plain = _both_searches(scheme, medium, h, kw, calls)
        assert res == plain, (scheme, medium, h, kw)
        refused = isinstance(res, str)
        assert probes == (0 if refused else 1)
        outcomes["refused" if refused else "non_monotone" if res[2] else "k*"] += 1
    assert outcomes["k*"] >= 60 and outcomes["non_monotone"] >= 1, outcomes


def test_unstable_q_max_probe_is_the_worst_case_verdict():
    """q_max lies in the range a worst-case verdict covers: wherever
    `classify_at_q` reads q_max unstable, `worst_case_verdict` reads
    unstable too.  Seeded grids of every scheme, 1D and 2D, at time steps
    from 0.1 of 2h/c_inf up to it."""
    rng = random.Random(26)
    refuted = 0
    for _ in range(150):
        scheme, medium, h, kw = _random_grid(rng)
        k = 2.0 * h / medium.c_inf * 10.0 ** rng.uniform(-1.0, 0.0)
        params = dimensionless_params(medium, k, h)
        probe = classify_at_q(scheme, params, analyzer._q_max(params, h, kw.get("h_y")))
        if not probe.stable:
            refuted += 1
            assert not worst_case_verdict(scheme, medium, k, h, **kw).stable, (
                scheme, medium, k, h, kw)
    assert refuted >= 50, refuted


def test_theorem_finds_every_sampled_instability():
    """The theorem's worst-case verdict (q_max against the closed-form q_c)
    misses no instability that a 65-point sample of q in [0, q_max] finds,
    and finds some the sample misses (isolated unstable q).  Seeded grids of
    every scheme, 1D and 2D, at time steps from 0.1 of 2h/c_inf up to it."""
    rng = random.Random(28)
    sampled = walked = 0
    for _ in range(150):
        scheme, medium, h, kw = _random_grid(rng)
        k = 2.0 * h / medium.c_inf * 10.0 ** rng.uniform(-1.0, 0.0)
        params = dimensionless_params(medium, k, h)
        q_max = analyzer._q_max(params, h, kw.get("h_y"))
        stable = worst_case_verdict(scheme, medium, k, h, **kw).stable
        if not all(classify_at_q(scheme, params, q).stable
                   for q in np.linspace(0.0, q_max, 65)):
            sampled += 1
            assert not stable, (scheme, medium, k, h, kw)
        walked += not stable
    assert 30 <= sampled < walked, (sampled, walked)


def test_labels_agree_with_verdicts_at_the_edge(monkeypatch):
    """At the last stable and the first unstable double of k around the k*
    of 200 seeded searches (`_random_grid`), the one `classify_at_q` probe
    of `worst_case_verdict` reads the verdict's own side, so its label
    never contradicts the verdict.  384 of these 400 verdicts are ties,
    where the probe reads the exact parameters and q_max that the theorem
    compares; a probe of the float q_max read the other side on 67."""
    rng = random.Random(7)
    inner, probes = analyzer.classify_at_q, []

    def recorded(*args):
        probes.append(inner(*args))
        return probes[-1]

    monkeypatch.setattr(analyzer, "classify_at_q", recorded)
    searches = 0
    while searches < 200:
        scheme, medium, h, kw = _random_grid(rng)
        try:
            k_star = stability_boundary_k(scheme, medium, h, **kw).k_star
        except NumericalFailureError:
            continue
        if k_star is None:
            continue
        searches += 1
        lo, hi = k_star, k_star * (1.0 + 2.0 * analyzer.BOUNDARY_REL_RESOLUTION)
        while (mid := lo + (hi - lo) / 2.0) not in (lo, hi):
            if analyzer._theorem(scheme, medium, mid, h, kw.get("h_y"))[4]:
                lo = mid
            else:
                hi = mid
        for k, stable in ((lo, True), (hi, False)):
            probes.clear()
            v = worst_case_verdict(scheme, medium, k, h, **kw)
            assert v.stable is stable and [p.stable for p in probes] == [stable], (
                scheme, medium, k, h, kw, v)


# --- tables -------------------------------------------------------------------

@pytest.mark.parametrize("scheme,n_regimes", [
    (Scheme.DEBYE_JOSEPH, 5),
    (Scheme.DEBYE_YOUNG, 5),
    (Scheme.LORENTZ_JOSEPH, 8),
    (Scheme.LORENTZ_KASHIWA, 7),
    (Scheme.LORENTZ_YOUNG, 13),
])
def test_argument_tables(scheme, n_regimes):
    assert len(scheme.spec.regimes) == n_regimes
    rows = reproduce_argument_table(scheme)
    for row in rows:
        assert row.ok, (row.regime, row.point, row.verdict)


def test_half_band_instability_at_cfl_limit(optical_lorentz):
    """At the undispersed CFL limit the Joseph-style Lorentz scheme is
    stable exactly for grid wavenumbers up to pi/2 (q <= 2)."""
    h = 1e-6
    k = h / optical_lorentz.c_inf  # lam = 1
    params = dimensionless_params(optical_lorentz, k, h)
    assert params.lam == pytest.approx(1.0, rel=1e-12)
    n = 64
    stable_flags = {}
    for m in range(1, n // 2 + 1):
        xi = 2 * math.pi * m / n
        stable_flags[m] = classify_point(Scheme.LORENTZ_JOSEPH, params,
                                         Wavenumber(xi)).stable
    assert all(stable_flags[m] for m in range(1, 17))          # xi <= pi/2
    assert any(not stable_flags[m] for m in range(17, 33))     # some xi > pi/2


# --- one pass per probe -------------------------------------------------------

def _regime_probes():
    """(scheme, params, q) at every point of the reference regime tables:
    every branch of classify_at_q is taken at some of them."""
    return [(scheme, DimensionlessParams(1.0, delta, es, omega), q)
            for scheme in Scheme for regime in scheme.spec.regimes
            for delta, es, omega, q in regime.points]


def test_classify_at_q_reads_the_schur_class_off_the_von_neumann_pass(monkeypatch):
    """A Schur point is decided by one is_simple_von_neumann pass, counted
    through either module: no second recursion."""
    schur_points = [probe for probe in _regime_probes()
                    if classify_at_q(*probe).argument is Argument.THEOREM_SCHUR]
    assert schur_points
    calls = []
    real = polyloc.is_simple_von_neumann
    counting = lambda p: calls.append(p) or real(p)  # noqa: E731
    monkeypatch.setattr(polyloc, "is_simple_von_neumann", counting)
    monkeypatch.setattr(analyzer, "is_simple_von_neumann", counting)
    for probe in schur_points:
        calls.clear()
        classify_at_q(*probe)
        assert len(calls) == 1, probe


def test_classify_at_q_solves_for_no_eigenvalues(monkeypatch):
    """Every regime point, the matrix-route ones included, is decided by
    the recursion and exact rationals: no eigenvalue is solved for."""
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or real(m))
    matrix_route = 0
    for probe in _regime_probes():
        verdict = classify_at_q(*probe)
        matrix_route += verdict.argument in (Argument.G_FORM, Argument.EIGENVECTORS)
    assert matrix_route > 0 and not calls
    w = 0.8
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=1.0, omega=w)
    v = classify_at_q(Scheme.LORENTZ_KASHIWA, p, 2 * w / (1 + 0.5 * w))
    assert not v.stable and v.argument is Argument.EIGENVECTORS
