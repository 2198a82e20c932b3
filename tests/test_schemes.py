"""Scheme encodings: parameter mapping, update matrices, characteristic
polynomials, 2D factors.

The central oracle is the agreement between the closed-form polynomial and
det(Z I - G) of the independently-assembled matrix; matrix entries are
additionally pinned against hard-coded expressions at spot points.
"""

import math
import re
import zlib
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest

from fdtd_stability import (
    DimensionlessParams,
    InvalidInputError,
    MediumModel,
    Scheme,
    Wavenumber,
    char_poly_closed,
    courant_q,
    dimensionless_params,
    tm_factor_2d,
)
from fdtd_stability.polyloc import Polynomial, is_simple_von_neumann, poly_roots
from fdtd_stability.schemes import EPS0, MU0
from referees import (amplification_matrix, char_poly_exact, char_poly_from_matrix,
                      monic, poly_q)


def random_params(rng, kind):
    omega = rng.uniform(0.01, 3.0) if kind == "lorentz" else None
    return DimensionlessParams(lam=rng.uniform(0.05, 2.0),
                               delta=rng.uniform(0.001, 3.0),
                               eps_s_prime=rng.uniform(1.0, 5.0),
                               omega=omega)


def rational_point(rng, kind):
    """Seeded rational parameters and Courant quantity, a quarter of them
    on the harmonic (delta = 0, Lorentz only) or no-contrast (eps' = 1)
    edges."""
    def draw(lo, hi):
        return Fraction(int(rng.integers(lo, hi)), 1000)
    edge = int(rng.integers(0, 4))
    delta = Fraction(0) if edge == 0 and kind == "lorentz" else draw(1, 3000)
    p = DimensionlessParams(lam=draw(50, 2000), delta=delta,
                            eps_s_prime=Fraction(1) if edge == 1 else draw(1000, 80000),
                            omega=draw(1, 3000) if kind == "lorentz" else None)
    return p, draw(0, 5000)


# --- parameter mapping -----------------------------------------------------

def test_water_normalized_time_step_is_one(water):
    # k = 2 t_r makes the normalized time step exactly 1
    params = dimensionless_params(water, 1.88e-11, 1e-3)
    assert params.delta == pytest.approx(1.0, abs=0.0)


def test_cfl_number_unity():
    medium = MediumModel.debye(1.0, 2.0, 1e-12)
    k = 1e-15
    h = medium.c_inf * k
    assert dimensionless_params(medium, k, h).lam == pytest.approx(1.0, rel=1e-14)


def test_lorentz_omega_mapping(optical_lorentz):
    # omega = (omega1 * k)^2 / 2; at this rounded time step it sits
    # within 3% of the limit value 2/(2 eps' - 1)
    k = 2.7e-17
    params = dimensionless_params(optical_lorentz, k, 1e-8)
    expected = (4e16 * k) ** 2 / 2.0
    assert params.omega == pytest.approx(expected, rel=1e-14)
    assert params.omega == pytest.approx(2.0 / (2 * 2.25 - 1), rel=0.03)


def test_c_inf_derived_from_constants():
    medium = MediumModel.debye(1.8, 81.0, 9.4e-12)
    assert medium.c_inf == pytest.approx(1.0 / math.sqrt(EPS0 * 1.8 * MU0), rel=1e-15)


def test_medium_validation():
    with pytest.raises(InvalidInputError):
        MediumModel.debye(1.8, 1.0, 9.4e-12)   # eps_s < eps_inf
    with pytest.raises(InvalidInputError):
        MediumModel.debye(1.8, 81.0, -1.0)
    with pytest.raises(InvalidInputError):
        MediumModel.lorentz(1.0, 2.0, 0.0)
    with pytest.raises(InvalidInputError):
        dimensionless_params(MediumModel.debye(1.0, 2.0, 1e-12), -1e-15, 1e-6)


@pytest.mark.parametrize("make,message", [
    (lambda: Scheme.from_name("debye-smith"), "unknown scheme 'debye-smith'; expected one of"),
    (lambda: MediumModel("drude", 1.0, 2.0), "unknown medium kind 'drude'"),
    (lambda: MediumModel.debye(0.0, 2.0, 1e-12), "eps_inf must be positive and finite"),
    (lambda: MediumModel.debye(math.inf, math.inf, 1e-12),
     "eps_inf must be positive and finite"),
    (lambda: MediumModel.lorentz(1.0, 2.0, 4e16, -1.0), "Lorentz media require nu >= 0"),
    (lambda: MediumModel.lorentz(1.0, 2.0, 4e16, math.nan), "Lorentz media require nu >= 0"),
])
def test_scheme_and_medium_refusals(make, message):
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        make()


@pytest.mark.parametrize("field,value,message", [
    ("lam", 0.0, "lam must be positive and finite"),
    ("lam", -1.0, "lam must be positive and finite"),
    ("lam", math.inf, "lam must be positive and finite"),
    ("lam", math.nan, "lam must be positive and finite"),
    ("delta", -0.1, "delta must be nonnegative and finite"),
    ("delta", math.inf, "delta must be nonnegative and finite"),
    ("delta", math.nan, "delta must be nonnegative and finite"),
    ("eps_s_prime", 0.5, "eps_s_prime must be >= 1"),
    ("eps_s_prime", math.nan, "eps_s_prime must be >= 1"),
    ("omega", 0.0, "omega must be positive when present"),
    ("omega", -0.5, "omega must be positive when present"),
    ("omega", math.inf, "omega must be positive when present"),
])
def test_dimensionless_params_refusals(field, value, message):
    good = dict(lam=1.0, delta=0.1, eps_s_prime=2.0, omega=0.5)
    with pytest.raises(InvalidInputError, match=message):
        DimensionlessParams(**{**good, field: value})


@pytest.mark.parametrize("xi_x,xi_y,name", [
    (-0.1, None, "xi_x"), (2.0 * math.pi, None, "xi_x"), (math.nan, None, "xi_x"),
    (1.0, 2.0 * math.pi, "xi_y"), (1.0, -1e-12, "xi_y"),
])
def test_wavenumber_outside_one_period_refused(xi_x, xi_y, name):
    with pytest.raises(InvalidInputError, match=re.escape(f"{name} must lie in [0, 2*pi)")):
        Wavenumber(xi_x, xi_y)


@pytest.mark.parametrize("h", [0.0, -1e-6, math.inf, math.nan])
def test_dimensionless_params_rejects_bad_h(water, h):
    with pytest.raises(InvalidInputError, match="space step h must be positive and finite"):
        dimensionless_params(water, 1e-15, h)


def test_debye_scheme_refuses_zero_delta_and_negative_q():
    """A negative or non-finite q has no exact p_q, and is refused as
    invalid input rather than failing in its conversion to a rational."""
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=2.0)
    with pytest.raises(InvalidInputError, match="Debye schemes require delta > 0"):
        char_poly_closed(Scheme.DEBYE_JOSEPH, p, 1.0)
    for q in (-1e-12, math.inf, math.nan):
        with pytest.raises(InvalidInputError, match="q must be nonnegative and finite"):
            char_poly_closed(Scheme.DEBYE_JOSEPH, replace(p, delta=0.1), q)


# --- Courant quantity ------------------------------------------------------

def test_courant_q_worst_mode():
    p = DimensionlessParams(lam=1.0, delta=0.1, eps_s_prime=2.0)
    assert courant_q(p, Wavenumber(math.pi)) == 4.0


def test_courant_q_uniform_mode():
    p = DimensionlessParams(lam=1.0, delta=0.1, eps_s_prime=2.0)
    assert courant_q(p, Wavenumber(0.0)) == 0.0


def test_courant_q_2d_adds_directions():
    p = DimensionlessParams(lam=1.0, delta=0.1, eps_s_prime=2.0)
    assert courant_q(p, Wavenumber(math.pi, math.pi)) == pytest.approx(8.0)


def test_courant_q_anisotropic_steps():
    p = DimensionlessParams(lam=1.0, delta=0.1, eps_s_prime=2.0)
    wn = Wavenumber(math.pi, math.pi, h_x=1.0, h_y=2.0)
    # lam_y = lam * h_x/h_y = 1/2 -> q = 4 + 1
    assert courant_q(p, wn) == pytest.approx(5.0)


# --- amplification matrices ------------------------------------------------

def test_debye_joseph_matrix_uniform_mode():
    d, es = 0.4, 3.0
    p = DimensionlessParams(lam=0.8, delta=d, eps_s_prime=es)
    G = amplification_matrix(Scheme.DEBYE_JOSEPH, p, Wavenumber(0.0))
    np.testing.assert_allclose(G[0], [1.0, 0.0, 0.0], atol=0.0)
    np.testing.assert_allclose(G[2], [0.0, 0.0, 1.0], atol=0.0)
    np.testing.assert_allclose(
        G[1], [0.0, (1 - d * es) / (1 + d * es), 2 * d / (1 + d * es)], atol=1e-15)


def test_lorentz_young_matrix_uniform_mode():
    p = DimensionlessParams(lam=0.8, delta=0.2, eps_s_prime=2.0, omega=0.7)
    G = amplification_matrix(Scheme.LORENTZ_YOUNG, p, Wavenumber(0.0))
    # magnetic component decouples at xi = 0
    np.testing.assert_allclose(G[0], [1, 0, 0, 0], atol=0.0)
    assert np.all(G[1:, 0] == 0.0)


def test_debye_young_matrix_entries_rederived():
    """All nine entries against an independent elimination of the transient
    polarization current (update-equation composition)."""
    d, es, lam, xi = 0.1, 2.0, 0.5, math.pi / 2
    a = es - 1.0
    p = DimensionlessParams(lam=lam, delta=d, eps_s_prime=es)
    G = amplification_matrix(Scheme.DEBYE_YOUNG, p, Wavenumber(xi))
    z = complex(math.cos(xi), math.sin(xi))
    u = lam * (z - 1)
    v = lam * (1 - 1 / z)
    q = u * v * -1.0  # u*v = -q
    # polarization row: p' = ((1-d) p + 2 d a E)/(1+d)
    row_p = np.array([0.0, 2 * d * a / (1 + d), (1 - d) / (1 + d)])
    # field row from E' (1+da) = (1-da) E - v*(b - u E) + 2 d p'
    eE = ((1 - d * a) + u * v + 4 * d * d * a / (1 + d)) / (1 + d * a)
    eb = -v / (1 + d * a)
    ep = 2 * d * (1 - d) / ((1 + d) * (1 + d * a))
    np.testing.assert_allclose(G[0], [1.0, -u, 0.0], atol=1e-15)
    np.testing.assert_allclose(G[1], [eb, eE, ep], rtol=1e-14, atol=1e-16)
    np.testing.assert_allclose(G[2], row_p, rtol=1e-14, atol=1e-16)
    assert q == pytest.approx(courant_q(p, Wavenumber(xi)), rel=1e-14)


def test_lorentz_joseph_matrix_hardcoded_entries():
    """Spot-check the entry formulas (the field-history coupling carries
    the sign consistent with the characteristic polynomial)."""
    d, es, w, lam, xi = 0.3, 2.0, 0.8, 0.9, 1.1
    p = DimensionlessParams(lam=lam, delta=d, eps_s_prime=es, omega=w)
    G = amplification_matrix(Scheme.LORENTZ_JOSEPH, p, Wavenumber(xi))
    z = complex(math.cos(xi), math.sin(xi))
    v = lam * (1 - 1 / z)
    q = courant_q(p, Wavenumber(xi))
    A = 1 + d + w * es
    np.testing.assert_allclose(G[1, 0], -2 * d * v / A, rtol=1e-14)
    np.testing.assert_allclose(G[1, 1], (2 - q * (1 + d + w)) / A, rtol=1e-13)
    np.testing.assert_allclose(G[1, 2], -(1 - d + w * es) / A, rtol=1e-14)
    np.testing.assert_allclose(G[1, 3], 2 * w / A, rtol=1e-14)
    np.testing.assert_allclose(G[2], [0, 1, 0, 0], atol=0.0)
    np.testing.assert_allclose(G[3], [-v, -q, 0.0, 1.0], rtol=1e-13)


def test_lorentz_kashiwa_matrix_hardcoded_entries():
    d, es, w, lam, xi = 0.2, 1.5, 0.6, 0.7, 2.0
    a = es - 1.0
    p = DimensionlessParams(lam=lam, delta=d, eps_s_prime=es, omega=w)
    G = amplification_matrix(Scheme.LORENTZ_KASHIWA, p, Wavenumber(xi))
    z = complex(math.cos(xi), math.sin(xi))
    v = lam * (1 - 1 / z)
    q = courant_q(p, Wavenumber(xi))
    D = 1 + d + w * es / 2
    np.testing.assert_allclose(G[1, 3], -1 / D, rtol=1e-14)
    np.testing.assert_allclose(G[2, 2], (D - w) / D, rtol=1e-14)
    np.testing.assert_allclose(G[3, 3], (2 - D) / D, rtol=1e-14)
    np.testing.assert_allclose(G[3, 0], -v * w * a / D, rtol=1e-13)
    np.testing.assert_allclose(G[2, 1], (2 - q) * 0.5 * w * a / D, rtol=1e-13)


def test_amplification_matrix_rejects_mismatched_kinds():
    p = DimensionlessParams(lam=1.0, delta=0.1, eps_s_prime=2.0)
    with pytest.raises(InvalidInputError):
        amplification_matrix(Scheme.LORENTZ_YOUNG, p, Wavenumber(1.0))


# --- characteristic polynomials --------------------------------------------

def test_debye_joseph_closed_form_spot_value():
    """0 + 1.5 z - 2.5 z^2 + 2 z^3: as given at `Fraction` parameters, and a
    positive integer multiple of it at the same values as doubles."""
    exact = DimensionlessParams(lam=Fraction(1), delta=Fraction(1, 2), eps_s_prime=Fraction(2))
    spot = (0, Fraction(3, 2), Fraction(-5, 2), 2)
    assert char_poly_closed(Scheme.DEBYE_JOSEPH, exact, 1).coeffs == spot
    ints = char_poly_closed(Scheme.DEBYE_JOSEPH, DimensionlessParams(1.0, 0.5, 2.0), 1.0).coeffs
    assert all(type(c) is int for c in ints) and ints[-1] > 0
    assert [Fraction(c, ints[-1]) for c in ints] == [c / spot[-1] for c in spot]


def test_debye_joseph_unit_root_at_uniform_mode():
    p = DimensionlessParams(lam=1.0, delta=0.5, eps_s_prime=1.0)
    poly = char_poly_closed(Scheme.DEBYE_JOSEPH, p, 0.0)
    assert poly(1) == 0


def test_lorentz_kashiwa_spot_polynomial_on_circle():
    # undamped, eps_s = eps_inf, omega = 1: 1.5 Z^4 - 4 Z^3 + 5 Z^2 - 4 Z + 1.5
    poly = char_poly_closed(Scheme.LORENTZ_KASHIWA,
                            DimensionlessParams(lam=1.0, delta=0.0,
                                                eps_s_prime=1.0, omega=1.0), 0.0)
    np.testing.assert_array_equal(monic(poly.coeffs), np.array([1.5, -4.0, 5.0, -4.0, 1.5]) / 1.5)
    mods = np.abs(poly_roots(poly))
    np.testing.assert_allclose(mods, 1.0, atol=1e-8)


def test_char_poly_from_identity():
    np.testing.assert_allclose(char_poly_from_matrix(np.eye(3)), [-1, 3, -3, 1], atol=1e-12)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_matrix_polynomial_proportionality(scheme):
    """The monic closed form, exact at the doubles and rounded once, against
    the eigenvalues of the float matrix."""
    rng = np.random.default_rng(zlib.crc32(scheme.value.encode()))
    for _ in range(200):
        p = random_params(rng, scheme.kind)
        wn = Wavenumber(rng.uniform(0.0, 2 * math.pi * 0.999))
        q = courant_q(p, wn)
        closed = monic(char_poly_closed(scheme, p, q).coeffs)
        s = math.sqrt(q)
        for G in (amplification_matrix(scheme, p, wn),
                  np.array(scheme.spec.entries(p, s, -s, q), dtype=complex)):
            from_matrix = monic(char_poly_from_matrix(G))
            np.testing.assert_allclose(from_matrix, closed, rtol=0.0,
                                       atol=1e-10 * np.max(np.abs(closed)))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_record_formulas_keep_fractions_exact(scheme):
    """Each formula, written once in plain arithmetic, returns only exact
    numbers (ints or Fractions) for Fraction parameters, equal to its float
    evaluation up to rounding; the polynomials, exact at either, agree once
    made monic."""
    spec = scheme.spec
    rng = np.random.default_rng(zlib.crc32((scheme.value + "exact").encode()))
    for _ in range(20):
        p, q = rational_point(rng, scheme.kind)
        pf = DimensionlessParams(float(p.lam), float(p.delta), float(p.eps_s_prime),
                                 None if p.omega is None else float(p.omega))
        qf = float(q)
        for exact, at_doubles in ((char_poly_closed(scheme, p, q),
                                   char_poly_closed(scheme, pf, qf)),
                                  (tm_factor_2d(scheme, p), tm_factor_2d(scheme, pf))):
            assert all(type(x) in (int, Fraction) for x in exact.coeffs + at_doubles.coeffs)
            ref = monic(exact.coeffs)
            np.testing.assert_allclose(monic(at_doubles.coeffs), ref, rtol=0,
                                       atol=1e-12 * np.max(np.abs(ref)))
        pairs = [(spec.char_poly(p), spec.char_poly(pf)),
                 (spec.entries(p, 1, -q, q), spec.entries(pf, 1, -qf, qf)),
                 ([poly_q(scheme, p, q)], [poly_q(scheme, pf, qf)]),
                 ([[p.alpha]], [[pf.alpha]])]
        if spec.degenerate_q is not None:
            pairs.append(([[spec.degenerate_q(p.omega)]], [[spec.degenerate_q(pf.omega)]]))
        for exact_rows, float_rows in pairs:
            exact = [x for row in exact_rows for x in row]
            approx = np.array([x for row in float_rows for x in row], dtype=complex)
            assert all(type(x) in (int, Fraction) for x in exact)
            np.testing.assert_allclose(np.array(exact, dtype=float), approx, rtol=0,
                                       atol=1e-12 * np.max(np.abs(approx)))


@pytest.mark.parametrize("scheme", list(Scheme))
def test_exact_q_reads_float_parameters_exactly(scheme):
    """At a `Fraction` q, float parameters are read as the rationals their
    doubles are: the integer coefficients are a positive multiple of the
    `Fraction` build at those rationals, at every magnitude a double
    holds."""
    rng = np.random.default_rng(zlib.crc32((scheme.value + "dyadic").encode()))
    for _ in range(40):
        scale = 10.0 ** rng.choice([-300, -30, -8, 0, 8, 30, 285])
        delta = float(rng.uniform(0.0, 3.0) * scale) or 0.5
        omega = float(rng.uniform(0.0, 3.0) * scale) or 0.5 if scheme.kind == "lorentz" else None
        pf = DimensionlessParams(1.0, delta, 1.0 + float(rng.uniform(0.0, 40.0)), omega)
        q = Fraction(float(rng.uniform(0.0, 6.0)))
        got = char_poly_closed(scheme, pf, q).coeffs
        exact = char_poly_closed(scheme, DimensionlessParams(
            *(None if x is None else Fraction(x) for x in (pf.lam, pf.delta, pf.eps_s_prime,
                                                           pf.omega))), q).coeffs
        assert all(type(c) is int for c in got)
        ratio = Fraction(got[-1]) / exact[-1]
        assert ratio > 0 and [ratio * c for c in exact] == list(got)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_exact_matrix_polynomial_identity(scheme):
    """Over the rationals, det(Z I - G) of the update matrix with couplings
    u = 1, v = -q, times the leading coefficient, is exactly a + q b: 20
    seeded points per scheme."""
    spec = scheme.spec
    rng = np.random.default_rng(zlib.crc32((scheme.value + "identity").encode()))
    mismatches = 0
    for _ in range(20):
        p, q = rational_point(rng, scheme.kind)
        a, b = spec.char_poly(p)
        closed = [x + q * y for x, y in zip(a, b)]
        det = char_poly_exact(spec.entries(p, 1, -q, q))
        mismatches += [closed[-1] * c for c in det] != closed
    assert mismatches == 0


def test_lorentz_kashiwa_q4_double_root_is_exact():
    """At q = 4 the exact Lorentz-Kashiwa polynomial has the double root
    z = -1, and the exact recursion reports the repeated circle root.  The
    float polynomial of the same decimals' doubles, rounded at every
    operation, reads p(-1) as 7e-15, but their exact one, the polynomial
    `classify_at_q` decides, has the double root too."""
    p = DimensionlessParams(lam=Fraction(1), delta=Fraction(67, 10000),
                            eps_s_prime=Fraction(53399, 1000), omega=Fraction(19844, 10000))
    doubles = DimensionlessParams(*(float(x) for x in (p.lam, p.delta, p.eps_s_prime, p.omega)))
    rounded = poly_q(Scheme.LORENTZ_KASHIWA, doubles, 4.0)
    assert np.polyval(rounded[::-1], -1.0) == 7.105427357601002e-15
    for params in (p, doubles):
        poly = char_poly_closed(Scheme.LORENTZ_KASHIWA, params, 4.0)
        assert all(type(c) in (int, Fraction) for c in poly.coeffs)
        assert poly(-1) == 0
        assert Polynomial([j * c for j, c in enumerate(poly.coeffs)][1:])(-1) == 0
        svn = is_simple_von_neumann(poly)
        assert not svn.ok
        assert svn.reason == "reduction vanished at degree 2; derivative is not Schur"
        c0, c1, c2 = svn.vanished  # gcd(p, p*), proportional to (z + 1)^2
        assert c1 == 2 * c0 == 2 * c2


@pytest.mark.parametrize("scheme,setup", [
    (Scheme.DEBYE_JOSEPH, dict(eps_s_prime=1.0, delta=0.37)),
    (Scheme.DEBYE_YOUNG, dict(eps_s_prime=1.0, delta=0.37)),
])
def test_vacuum_factor_inside(scheme, setup):
    """Without dispersion contrast the cubic contains the bare leapfrog
    factor Z^2 - (2 - q) Z + 1, on-circle iff q <= 4."""
    p = DimensionlessParams(lam=1.1, **setup)
    for q in (0.5, 2.0, 3.9):
        poly = char_poly_closed(scheme, p, q)
        theta = math.acos(1 - q / 2)
        root = complex(math.cos(theta), math.sin(theta))
        assert abs(poly(root)) < 1e-12 * sum(abs(c) for c in poly.coeffs)
    poly = char_poly_closed(scheme, p, 4.2)
    mods = np.abs(poly_roots(poly))
    assert mods.max() > 1.0 + 1e-3


def test_float_parameters_give_exact_coefficients():
    """At float parameters and q, `char_poly_closed` and `tm_factor_2d`
    return ints (the doubles' exact values times one positive scale), and
    at `Fraction` parameters ints or Fractions: there is no float
    polynomial."""
    rng = np.random.default_rng(21)
    for scheme in Scheme:
        for _ in range(50):
            p = random_params(rng, scheme.kind)
            for poly in (char_poly_closed(scheme, p, rng.uniform(0, 4.5)), tm_factor_2d(scheme, p)):
                assert all(type(c) is int for c in poly.coeffs) and poly.coeffs[-1] > 0
            exact, q = rational_point(rng, scheme.kind)
            for poly in (char_poly_closed(scheme, exact, q), tm_factor_2d(scheme, exact)):
                assert all(type(c) in (int, Fraction) for c in poly.coeffs)


# --- 2D factors -------------------------------------------------------------

def test_tm_factor_debye_joseph_degenerate():
    p = DimensionlessParams(lam=1.0, delta=0.5, eps_s_prime=2.0)  # d*es = 1
    exact = DimensionlessParams(lam=Fraction(1), delta=Fraction(1, 2), eps_s_prime=Fraction(2))
    assert tm_factor_2d(Scheme.DEBYE_JOSEPH, exact).coeffs == (0, 2)
    poly = tm_factor_2d(Scheme.DEBYE_JOSEPH, p).coeffs
    assert poly[0] == 0 and poly[1] > 0


def test_tm_factor_lorentz_joseph_on_circle_when_undamped():
    p = DimensionlessParams(lam=1.0, delta=0.0, eps_s_prime=2.0, omega=0.8)
    roots = poly_roots(tm_factor_2d(Scheme.LORENTZ_JOSEPH, p))
    np.testing.assert_allclose(np.abs(roots), 1.0, atol=1e-12)


def test_tm_factor_debye_young_no_contrast():
    """Without contrast (alpha = 0) the polarization relaxes on its own:
    psi = (1 + delta) Z - (1 - delta)."""
    p = DimensionlessParams(lam=1.0, delta=0.5, eps_s_prime=1.0)
    exact = DimensionlessParams(lam=Fraction(1), delta=Fraction(1, 2), eps_s_prime=Fraction(1))
    assert tm_factor_2d(Scheme.DEBYE_YOUNG, exact).coeffs == (Fraction(-1, 2), Fraction(3, 2))
    np.testing.assert_array_equal(monic(tm_factor_2d(Scheme.DEBYE_YOUNG, p).coeffs),
                                  [-1 / 3, 1])


@pytest.mark.parametrize("scheme", list(Scheme))
def test_q0_polynomial_is_double_unit_root_times_tm_factor(scheme):
    """At q = 0 the closed-form polynomial is exactly (Z - 1)^2 psi: the
    recurrence that reads psi off its low-end coefficients reproduces every
    coefficient, the top ones included, at float and `Fraction`
    parameters."""
    rng = np.random.default_rng(zlib.crc32((scheme.value + "2d").encode()))
    for _ in range(60):
        for p in (random_params(rng, scheme.kind), rational_point(rng, scheme.kind)[0]):
            phi0 = char_poly_closed(scheme, p, 0.0).coeffs
            psi = (0, 0, *tm_factor_2d(scheme, p).coeffs, 0, 0)
            assert phi0 == tuple(psi[j] - 2 * psi[j + 1] + psi[j + 2] for j in range(len(phi0)))


def test_q_range_attained_at_pi():
    rng = np.random.default_rng(31)
    for _ in range(50):
        lam = rng.uniform(0.1, 2.0)
        p = DimensionlessParams(lam=lam, delta=0.1, eps_s_prime=2.0)
        qs = [courant_q(p, Wavenumber(x))
              for x in np.linspace(0, math.pi, 101)]
        assert max(qs) == pytest.approx(4 * lam * lam, rel=1e-12)
        assert min(qs) == 0.0


@pytest.mark.parametrize("scheme", list(Scheme))
def test_scheme_record_consistency(scheme):
    spec = scheme.spec
    p = random_params(np.random.default_rng(3), spec.kind)
    n = len(spec.state_labels)
    assert len(spec.entries(p, 1.0, -1.0, 1.0)) == n
    assert char_poly_closed(scheme, p, 1.0).degree == n
    a, b = spec.char_poly(p)
    assert len(a) == len(b) == n + 1
    assert tm_factor_2d(scheme, p).degree == (1 if spec.kind == "debye" else 2)
    assert (spec.degenerate_q is not None) == (spec.kind == "lorentz")
