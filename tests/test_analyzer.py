"""Analyzer tests: boundedness of matrix powers, point classification,
worst-case scans, stability boundaries and the reference tables.

The independent referee throughout is the companion-matrix root oracle
(all roots in the closed disk with simple circle roots, refined by the
geometric-multiplicity test at repeated unit eigenvalues).
"""

import math
import random

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
    gn_bounded,
    reproduce_argument_table,
    stability_boundary_k,
    worst_case_verdict,
)
from fdtd_stability import analyzer, polyloc
from fdtd_stability.polyloc import poly_roots
from fdtd_stability.schemes import amplification_matrix_at_q
from referees import factor_roots_2d, plain_bisection_boundary


# --- gn_bounded --------------------------------------------------------------

def test_gn_bounded_identity():
    report = gn_bounded(np.eye(4))
    assert report.gn_bounded
    (ev,) = report.unit_eigenvalues
    assert ev.algebraic == 4 and ev.geometric == 4


def test_gn_bounded_jordan_block():
    report = gn_bounded(np.array([[1.0, 1.0], [0.0, 1.0]]))
    assert not report.gn_bounded
    (ev,) = report.unit_eigenvalues
    assert ev.algebraic == 2 and ev.geometric == 1


def test_gn_bounded_debye_joseph_worst_mode():
    p = DimensionlessParams(lam=1.0, delta=0.3, eps_s_prime=1.0)
    report = gn_bounded(amplification_matrix_at_q(Scheme.DEBYE_JOSEPH, p, 4.0))
    assert not report.gn_bounded


def test_gn_bounded_nan_is_a_numerical_failure():
    with pytest.raises(NumericalFailureError, match="eigenvalue solve failed"):
        gn_bounded(np.array([[math.nan, 0.0], [0.0, 1.0]]))


def test_gn_bounded_rejects_expanding_matrix():
    # 1 + 5e-7 lies beyond classify_at_q's 1 + OUT_EIG_TOL: its powers grow.
    for G in (np.diag([1.5, 0.2]), np.array([[1.0 + 5e-7]])):
        with pytest.raises(InvalidInputError):
            gn_bounded(G)


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
        q, q_res = courant_q(p, wn), analyzer._degenerate_q(scheme, p)
        at_degenerate += q_res is not None and abs(q - q_res) <= analyzer.RESONANCE_SNAP_TOL
        stable.add(v.stable)
        assert v == classify_at_q(scheme, p, q)
        for polarization in ("te", "tm"):
            assert v == classify_point_2d(scheme, p, wn, polarization)
    assert at_degenerate > 10 and stable == {True, False}


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


def test_boundary_without_instability_below_2h_is_a_numerical_failure(
        water, optical_lorentz, monkeypatch):
    """The bracket's top, 2h/c_inf, must be unstable; a search that finds it
    stable refuses to report a boundary.  Every probe is stubbed stable, so
    the walk at the top finds no end to its stable q-range either, except
    at q = 3 for Lorentz-Joseph: the midpoint between 2 and 4 of the top's
    walk over the candidates, which the full walk does not probe (it has a
    crossing in between), so the full walk still refuses."""
    stable = analyzer.StabilityVerdict(True, Argument.THEOREM_SCHUR, "stubbed")
    unstable = analyzer.StabilityVerdict(False, Argument.THEOREM_VON_NEUMANN, "stubbed")
    for scheme, medium, h, unstable_qs in ((Scheme.DEBYE_JOSEPH, water, 1e-5, ()),
                                           (Scheme.LORENTZ_JOSEPH, optical_lorentz, 1e-8, (3.0,))):
        monkeypatch.setattr(analyzer, "classify_at_q",
                            lambda s, p, q, bad=unstable_qs: unstable if q in bad else stable)
        with pytest.raises(NumericalFailureError, match="no instability found up to 2h/c_inf"):
            stability_boundary_k(scheme, medium, h)


def test_worst_case_water(water):
    h = 1e-5
    k_cfl = h / water.c_inf
    assert worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 0.99 * k_cfl, h).stable
    v = worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 1.01 * k_cfl, h)
    assert not v.stable


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
    classify_at_q misreads a near-tie (see the xfail below); at
    h = 6.954e-6 the worst-case verdict at k = 3.11e-18 hits the same
    misread.  Neither probe may turn the search non-monotone."""
    res = stability_boundary_k(Scheme.DEBYE_JOSEPH, water, h, **kw)
    assert res.non_monotone is False
    assert res.lowest_unstable_k is None
    assert res.k_star == pytest.approx(courant * h / water.c_inf, rel=1e-2)
    assert worst_case_verdict(Scheme.DEBYE_JOSEPH, water, 3.1644077724020904e-18, 1e-5).stable


@pytest.mark.xfail(strict=True, reason=(
    "near-tie: the float recursion reads |p(0)| > |p*(0)| at degree 2, and "
    "the two eigenvalues near z = 1, 6.5e-7 apart and 4.7e-7 inside the "
    "circle, fall into one EIG_CLUSTER_TOL cluster that the rank test calls "
    "a defective double eigenvalue"))
def test_near_tie_root_pair_is_not_defective(water):
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


def _walk_counter(monkeypatch) -> list:
    """Record every q-walk of the analyzer, the plain bisection's included."""
    inner = analyzer._walk
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return inner(*args, **kwargs)

    monkeypatch.setattr(analyzer, "_walk", counted)
    return calls


def _both_searches(scheme, medium, h, kw, calls):
    """Outcome (result or error) and q-walk count of the bracketed search,
    then of the plain bisection."""
    out = []
    for search in (stability_boundary_k, plain_bisection_boundary):
        calls.clear()
        try:
            outcome = search(scheme, medium, h, **kw)
        except NumericalFailureError as exc:
            outcome = str(exc)
        out.append((outcome, len(calls)))
    return out


GEOMETRIES = {"1d": lambda h: {}, "h_y=h": lambda h: dict(h_y=h),
              "h_y=2h": lambda h: dict(h_y=2.0 * h)}


@pytest.mark.parametrize("geometry", list(GEOMETRIES))
@pytest.mark.parametrize("scheme,medium,h", [
    (Scheme.DEBYE_YOUNG, "foam", 4.0),                 # delta = 1 binds
    (Scheme.DEBYE_YOUNG, "water", 4.2e-3),             # delta = 1 at the crossover
    (Scheme.LORENTZ_YOUNG, "optical_lorentz", None),   # omega limit meets q = 2
    (Scheme.LORENTZ_YOUNG, "radio_lorentz", None),
    (Scheme.LORENTZ_YOUNG, "optical_lorentz", 1.13e-8),  # q_max meets q_c below it
    (Scheme.LORENTZ_JOSEPH, "resonant_lorentz", 1e-8),   # non_monotone
    (Scheme.LORENTZ_KASHIWA, "resonant_lorentz", 1e-8),
    (Scheme.LORENTZ_YOUNG, "resonant_lorentz", 1e-8),
])
def test_boundary_search_matches_plain_bisection(scheme, medium, h, geometry, request,
                                                 monkeypatch):
    """Near the parameter limits, where the prediction starts at k_limit,
    and in resonant media, the bracketed search returns the plain
    bisection's result field for field, in fewer q-walks or, where the
    search ends at the bracket bottom, the same ones.  h = None puts
    the omega limit of Lorentz-Young where q_max = 2 in 1D."""
    medium = request.getfixturevalue(medium)
    if h is None:
        h = math.sqrt(2.0) * medium.c_inf * scheme.spec.k_limit(medium)
    calls = _walk_counter(monkeypatch)
    (res, walks), (plain, plain_walks) = _both_searches(
        scheme, medium, h, GEOMETRIES[geometry](h), calls)
    assert res == plain
    # A resonant medium ends the search at the bracket bottom, before any
    # prediction, in the same walks.
    assert walks < plain_walks or (res.non_monotone and walks == plain_walks)


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
    (`_random_grid`).  Every outcome equals the plain bisection's, a refusal included, and the
    searches take at most 0.36 of its q-walks in total (0.340 measured).  A
    single search could take more where a missed prediction leaves the
    bisection to walk its midpoints, as where the float verdict reads a
    weak growth as stable (a damped Lorentz-Joseph medium just past q = 2);
    on this draw only a refusal does, by the top's walk over the candidates
    that comes before the full walk.  Past Lorentz-Young's omega limit,
    walks read q_c = 0 where q_-1 has turned negative, and secant steps on
    them overshot; the formula of the q_-1 arm follows q_max down to k*."""
    rng = random.Random(23)
    calls = _walk_counter(monkeypatch)
    walks = plain_walks = 0
    for _ in range(80):
        scheme, medium, h, kw = _random_grid(rng)
        (res, n), (plain, n_plain) = _both_searches(scheme, medium, h, kw, calls)
        assert res == plain, (scheme, medium, h, kw)
        walks += n
        plain_walks += n_plain
    assert walks <= 0.36 * plain_walks


def test_unstable_q_max_probe_is_the_worst_case_verdict():
    """The search decides a verdict it expects unstable by one probe at
    q_max first.  That is sound because q_max is a breakpoint of the walk:
    wherever `classify_at_q` reads q_max unstable, `worst_case_verdict`
    reads unstable too.  Seeded grids of every scheme, 1D and 2D, at time
    steps from 0.1 of 2h/c_inf up to it."""
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


def test_unstable_candidate_breakpoint_is_the_worst_case_verdict():
    """The prediction walks take only the candidates (`_candidates`) as
    breakpoints and solve for no boundary-locus crossing.  The top's walk
    still refuses a top with no instability soundly: each of its
    breakpoints is one of the full walk's too, so wherever it stops at an
    unstable breakpoint, `worst_case_verdict` reads unstable.  Seeded grids
    of every scheme, 1D and 2D, at time steps from 0.1 of 2h/c_inf up to
    it."""
    rng = random.Random(28)
    decided = 0
    for _ in range(150):
        scheme, medium, h, kw = _random_grid(rng)
        k = 2.0 * h / medium.c_inf * 10.0 ** rng.uniform(-1.0, 0.0)
        params = dimensionless_params(medium, k, h)
        _, _, at_break, verdict, _ = analyzer._walk(
            scheme, params, 0.0, analyzer._q_max(params, h, kw.get("h_y")),
            analyzer._candidates(scheme, params))
        if not verdict.stable and at_break:
            decided += 1
            assert not worst_case_verdict(scheme, medium, k, h, **kw).stable, (
                scheme, medium, k, h, kw)
    assert decided >= 30, decided


def test_checked_bracket_is_the_plain_bisection_final_interval(monkeypatch):
    """The search checks the bisection's own final interval around its
    predicted k* (the first `_bisect`).  Where the prediction holds, that
    is where the worst-case verdict reads stable at its bottom and unstable
    at its top, it is the plain bisection's final interval, and k* is its
    bottom.  Two criterion-4 media, one of them on a 2D grid, and seeded
    random grids."""
    inner = analyzer._bisect
    cells = []

    def recorded(*args):
        cells.append(inner(*args))
        return cells[-1]

    monkeypatch.setattr(analyzer, "_bisect", recorded)
    rng = random.Random(29)
    grids = [(Scheme.DEBYE_JOSEPH, MediumModel.debye(1.8, 81.0, 9.4e-12), 1e-5, {}),
             (Scheme.LORENTZ_KASHIWA, MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16),
              1e-8, dict(h_y=2e-8))]
    grids += [_random_grid(rng) for _ in range(40)]
    held = 0
    for scheme, medium, h, kw in grids:
        cells.clear()
        try:
            res = stability_boundary_k(scheme, medium, h, **kw)
        except NumericalFailureError:
            continue
        if len(cells) < 2:
            continue  # no prediction, or a resonant bottom
        k_lo, k_hi = cells[0]
        if not (worst_case_verdict(scheme, medium, k_lo, h, **kw).stable
                and not worst_case_verdict(scheme, medium, k_hi, h, **kw).stable):
            continue
        held += 1
        plain = plain_bisection_boundary(scheme, medium, h, **kw)
        assert plain.detail == f"bisection converged to [{k_lo:.9e}, {k_hi:.9e}]"
        assert res.k_star == plain.k_star == k_lo
        assert cells[1] == cells[0]
    assert held >= 25, held


def test_repeated_search_solves_as_often(water, monkeypatch):
    """Crossings are reused only within one search: two identical searches
    in a row solve for the boundary-locus crossings equally often."""
    inner = analyzer.circle_crossings
    solves = []

    def counted(*args):
        solves.append(args)
        return inner(*args)

    monkeypatch.setattr(analyzer, "circle_crossings", counted)
    counts = []
    for _ in range(2):
        solves.clear()
        stability_boundary_k(Scheme.DEBYE_JOSEPH, water, 1e-5)
        counts.append(len(solves))
    assert counts[0] == counts[1] > 0


def test_candidate_q_minus_one_is_the_z_minus_one_crossing():
    """`analyzer._candidates` computes q_-1 = -a(-1)/b(-1) as
    `circle_crossings` computes its z = -1 crossing: the same double, so a
    walk's breakpoint there is the candidate bit for bit.  Seeded parameters
    of every scheme: delta over ten decades (0 for a third of the Lorentz
    draws), eps_s = eps_inf one time in four."""
    rng = random.Random(27)
    for scheme in Scheme:
        for _ in range(40):
            es = 1.0 if rng.random() < 0.25 else 1.0 + 10.0 ** rng.uniform(-3.0, 1.5)
            if scheme.kind == "debye":
                params = DimensionlessParams(1.0, 10.0 ** rng.uniform(-10.0, 0.5), es)
            else:
                delta = 0.0 if rng.random() < 1.0 / 3.0 else 10.0 ** rng.uniform(-8.0, 0.0)
                params = DimensionlessParams(1.0, delta, es, 10.0 ** rng.uniform(-6.0, 0.5))
            q_m1 = analyzer._candidates(scheme, params)[2]
            crossings = polyloc.circle_crossings(*scheme.spec.char_poly(params))
            assert any(q.hex() == q_m1.hex() for q in crossings), (scheme, params, q_m1)


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


def test_classify_at_q_solves_for_the_eigenvalues_once(monkeypatch):
    """The matrix route hands its own eigenvalues to the multiplicity test
    instead of solving for them again."""
    calls = []
    real = np.linalg.eigvals
    monkeypatch.setattr(np.linalg, "eigvals", lambda m: calls.append(m) or real(m))
    matrix_route = 0
    for probe in _regime_probes():
        calls.clear()
        verdict = classify_at_q(*probe)
        assert len(calls) <= 1, (probe, verdict)
        matrix_route += verdict.argument in (Argument.G_FORM, Argument.EIGENVECTORS)
    assert matrix_route > 0
