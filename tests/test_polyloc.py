"""Root-location engine tests.

Random-polynomial truths come from the construction itself (known roots);
boundary cases use exact dyadic coefficients so that double precision
represents them without rounding, with the exact-rational recursion as a
second referee.
"""

import math
import zlib
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from fdtd_stability import (
    DimensionlessParams,
    InvalidInputError,
    NumericalFailureError,
    Polynomial,
    Scheme,
    is_simple_von_neumann,
)
from fdtd_stability.polyloc import circle_crossings, max_root_modulus, poly_roots
from referees import conjugate_poly, from_roots, reduce_step, root_profile, scaled


def test_trailing_coefficients_trimmed():
    p = Polynomial([1.0, 2.0, 0.0, 1e-30])
    assert p.degree == 1
    assert p.coeffs == (1.0 + 0j, 2.0 + 0j)


def test_fraction_coefficients_stay_exact():
    """A polynomial of Fractions keeps them and is decided without rounding:
    roots +-sqrt(1 - 1e-14) are inside the circle, where the float image
    reads a tie.  A Fraction among ints or floats is cast to complex."""
    p = Polynomial([Fraction(-1) + Fraction(1, 10**14), Fraction(0), Fraction(1), Fraction(0)])
    assert p.degree == 2 and all(type(c) is Fraction for c in p.coeffs)
    exact = is_simple_von_neumann(p)
    assert exact.ok and exact.schur
    assert [lv.relation for lv in exact.levels] == ["<", "<"]
    floats = is_simple_von_neumann(Polynomial([float(c) for c in p.coeffs]))
    assert floats.ok and not floats.schur
    assert floats.levels[0].relation == "="
    for mixed in ([Fraction(1, 2), 0, 1], [Fraction(1, 2), 0.0, 1.0]):
        assert Polynomial(mixed).coeffs == (0.5 + 0j, 0j, 1 + 0j)


def test_exact_polynomial_evaluates_exactly():
    """Horner's rule runs in the coefficients' field: 1/3 + z^2 at
    z = 1e-9 is 1/3 + 1e-18, which a double would round to 1/3."""
    value = Polynomial([Fraction(1, 3), Fraction(0), Fraction(1)])(Fraction(1, 10**9))
    assert type(value) is Fraction
    assert value == Fraction(1000000000000000003, 3000000000000000000)


def test_zero_polynomial_is_a_value():
    z = Polynomial([])
    assert z.is_zero and z.degree == -1
    assert Polynomial([0.0, 0.0]).is_zero


def test_conjugate_monomial():
    # z^2 reverses to the constant 1
    p = Polynomial([0, 0, 1])
    assert conjugate_poly(p).coeffs == (1 + 0j,)


def test_conjugate_complex_coefficients():
    # 1 + 2i z  ->  -2i + z
    p = Polynomial([1, 2j])
    assert conjugate_poly(p).coeffs == (-2j, 1 + 0j)


def test_conjugate_palindromic_fixed_point():
    p = Polynomial([1, -2, 1])
    assert conjugate_poly(p) == p


def test_conjugate_involution_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs[0] += 3.0  # keep c0 nonzero
        p = Polynomial(coeffs)
        assert conjugate_poly(conjugate_poly(p)) == p


def test_conjugate_rejects_zero():
    with pytest.raises(InvalidInputError):
        conjugate_poly(Polynomial([]))


def test_reduce_step_monomial():
    # z^2 -> (1*z^2 - 0)/z = z
    out = reduce_step(Polynomial([0, 0, 1]))
    assert out.coeffs == (0j, 1 + 0j)


def test_reduce_step_self_conjugate_vanishes():
    out = reduce_step(Polynomial([1, -2, 1]))  # (z-1)^2
    assert out.is_zero


def test_reduce_step_scheme_cubic_matches_exact_recursion():
    # Debye-Joseph characteristic cubic at delta=1/2, eps'=2, q=1:
    # 0 + 1.5 z - 2.5 z^2 + 2 z^3 (constant term vanishes exactly).
    exact_in = [Fraction(0), Fraction(3, 2), Fraction(-5, 2), Fraction(2)]
    exact_out = reduce_step(Polynomial(exact_in)).coeffs
    assert exact_out == (Fraction(3), Fraction(-5), Fraction(4))
    assert all(type(c) is Fraction for c in exact_out)
    out = reduce_step(Polynomial([0.0, 1.5, -2.5, 2.0]))
    assert out.coeffs == (3 + 0j, -5 + 0j, 4 + 0j)


def test_reduce_step_strictly_lowers_degree():
    rng = np.random.default_rng(3)
    for _ in range(200):
        deg = rng.integers(1, 9)
        p = Polynomial(rng.normal(size=deg + 1) + 1j * rng.normal(size=deg + 1))
        out = reduce_step(p)
        assert out.is_zero or out.degree < p.degree


def test_schur_class_simple_cases():
    assert is_simple_von_neumann(Polynomial([0, 1])).schur           # z: root at 0
    assert not is_simple_von_neumann(Polynomial([-1, 1])).schur      # z - 1: on circle
    p = from_roots([0.5, 0.3j])
    res = is_simple_von_neumann(p)
    assert res.ok and res.schur
    profile = root_profile(p)
    assert profile.inside_count == 2 and profile.outside_count == 0


def test_is_simple_von_neumann_cases():
    assert is_simple_von_neumann(Polynomial([-1, 0, 1]))      # z^2 - 1
    res = is_simple_von_neumann(Polynomial([1, -2, 1]))       # (z-1)^2
    assert not res.ok
    assert "derivative" in res.reason


def test_debye_joseph_boundary_quartic_is_von_neumann():
    # q = 4, eps' = 2, delta = 0.1: [1+d es] Z^3 - [3+d es-(1+d)q] Z^2 + ...
    d, es, q = 0.1, 2.0, 4.0
    coeffs = (-(1 - d * es),
              3 - d * es - (1 - d) * q,
              -(3 + d * es - (1 + d) * q),
              1 + d * es)
    assert is_simple_von_neumann(Polynomial(coeffs)).ok


def test_verdicts_scale_invariant():
    rng = np.random.default_rng(11)
    for _ in range(60):
        deg = rng.integers(1, 7)
        roots = rng.uniform(0.2, 1.8, size=deg) * np.exp(
            2j * np.pi * rng.random(size=deg))
        p = from_roots(roots)
        for scale in (1e-8, 1e8, 2.5 - 1.7j, -3j):
            svn_p, svn_q = is_simple_von_neumann(p), is_simple_von_neumann(scaled(p, scale))
            assert (svn_p.ok, svn_p.schur) == (svn_q.ok, svn_q.schur)


def test_schur_implies_von_neumann():
    rng = np.random.default_rng(13)
    for _ in range(500):
        deg = rng.integers(1, 9)
        roots = rng.uniform(0.0, 1.6, size=deg) * np.exp(
            2j * np.pi * rng.random(size=deg))
        svn = is_simple_von_neumann(from_roots(roots))
        if svn.schur:
            assert svn.ok


def _dyadic(rng, bits=6, lo=-1.0, hi=1.0):
    """Random dyadic rational with few significand bits: exactly
    representable through small products."""
    n = 1 << bits
    return Fraction(int(rng.integers(int(lo * n), int(hi * n) + 1)), n)


def _circle_factor(c: Fraction):
    """z^2 - 2c z + 1 with |c| < 1: conjugate root pair exactly on the unit
    circle."""
    return [Fraction(1), -2 * c, Fraction(1)]


def _mul_exact(a, b):
    out = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return out


@pytest.mark.parametrize("case", ["simple_circle", "double_circle", "mixed_outside"])
def test_exact_circle_root_cases(case):
    """Unit-circle roots built from exact dyadic quadratic factors: the
    recursion on the exact Polynomial and on its float image agree."""
    rng = np.random.default_rng(zlib.crc32(case.encode()))
    for _ in range(60):
        c1 = _dyadic(rng, lo=-0.9, hi=0.9)
        c2 = _dyadic(rng, lo=-0.9, hi=0.9)
        while c2 == c1:
            c2 = _dyadic(rng, lo=-0.9, hi=0.9)
        inside = [Fraction(1, 2) + _dyadic(rng, lo=-0.4, hi=0.4) / 2, Fraction(1)]
        if case == "simple_circle":
            poly = _mul_exact(_circle_factor(c1), _circle_factor(c2))
            poly = _mul_exact(poly, inside)
            expect_schur, expect_svn = False, True
        elif case == "double_circle":
            poly = _mul_exact(_circle_factor(c1), _circle_factor(c1))
            expect_schur, expect_svn = False, False
        else:
            outside = [Fraction(3, 2) + _dyadic(rng, lo=0.0, hi=0.4), Fraction(1)]
            poly = _mul_exact(_circle_factor(c1), outside)
            expect_schur, expect_svn = False, False
        exact = Polynomial(poly)
        assert all(type(c) is Fraction for c in exact.coeffs)
        for p in (exact, Polynomial([float(x) for x in poly])):
            svn = is_simple_von_neumann(p)
            assert (svn.ok, svn.schur) == (expect_svn, expect_schur)


def test_root_profile_inside_monomial():
    profile = root_profile(Polynomial([0, 0, 0, 1]))  # z^3
    assert profile.inside_count == 3
    assert profile.on_circle == ()


def test_root_profile_constructed_circle_roots():
    p = from_roots([1.0, -1.0, 0.5])
    profile = root_profile(p)
    assert profile.inside_count == 1 and profile.outside_count == 0
    mults = sorted((round(c.real), m) for c, m in profile.on_circle)
    assert mults == [(-1, 1), (1, 1)]


def test_root_profile_degenerate_quartic_double_couples():
    # Joseph-style Lorentz quartic, harmonic, eps' = 1, omega = 1/2 at the
    # degenerate q = 2*omega/(1+omega): two conjugate double roots on the
    # circle.
    w = 0.5
    q = 2 * w / (1 + w)
    coeffs = (1 + w,
              -(4 + 2 * w - (1 + w) * q),
              6 + 2 * w - 2 * q,
              -(4 + 2 * w - (1 + w) * q),
              1 + w)
    profile = root_profile(Polynomial(coeffs), circle_tolerance=1e-6)
    assert profile.inside_count == 0 and profile.outside_count == 0
    assert sorted(m for _, m in profile.on_circle) == [2, 2]
    for center, _ in profile.on_circle:
        assert abs(abs(center) - 1.0) < 1e-8


def test_root_profile_invariant_total_count():
    rng = np.random.default_rng(5)
    for _ in range(100):
        deg = rng.integers(1, 8)
        roots = rng.uniform(0.3, 1.7, size=deg) * np.exp(
            2j * np.pi * rng.random(size=deg))
        p = from_roots(roots)
        profile = root_profile(p)
        assert profile.inside_count + profile.outside_count \
            + profile.circle_count == deg


def test_random_root_agreement_bulk():
    """Verdicts vs known-root truth with a 1e-6 circle margin."""
    rng = np.random.default_rng(99)
    margin = 1e-6
    for _ in range(2000):
        deg = rng.integers(1, 9)
        radii = rng.uniform(0.0, 2.0, size=deg)
        radii = np.where(np.abs(radii - 1.0) < margin, radii + 2 * margin, radii)
        roots = radii * np.exp(2j * np.pi * rng.random(size=deg))
        p = from_roots(roots, leading=rng.uniform(0.5, 2.0))
        svn = is_simple_von_neumann(p)
        assert svn.schur == svn.ok == bool(np.all(radii < 1.0))


def test_max_root_modulus():
    p = from_roots([0.5, 1.25j])
    assert max_root_modulus(p) == pytest.approx(1.25, rel=1e-12)


def test_polynomial_is_an_immutable_hashable_value():
    p = Polynomial([1.0, 2.0, 0.0])
    with pytest.raises(AttributeError, match="Polynomial is immutable"):
        p.coeffs = ()
    assert repr(p) == "Polynomial([(1+0j), (2+0j)])"
    assert p == Polynomial([1, 2]) and hash(p) == hash(Polynomial([1, 2]))


def test_reduce_step_of_nonzero_constant_is_zero():
    assert reduce_step(Polynomial([3.0])).is_zero


def test_poly_roots_of_nan_is_a_numerical_failure():
    with pytest.raises(NumericalFailureError, match="companion eigensolve failed"):
        poly_roots(Polynomial([math.nan, 1.0]))


def test_operations_reject_zero_polynomial():
    z = Polynomial([])
    for op in (reduce_step, is_simple_von_neumann, root_profile):
        with pytest.raises(InvalidInputError):
            op(z)


def test_root_profile_rejects_bad_tolerance():
    with pytest.raises(InvalidInputError):
        root_profile(Polynomial([1, 1]), circle_tolerance=0.0)


# --- boundary locus -----------------------------------------------------------
#
# Referee: sweep q densely, take the largest root modulus from np.roots, and
# find where it passes 1 + EXIT_BAND (the band absorbs the rounding of roots
# that lie on the circle for whole intervals of q).  Every such change must
# sit next to a returned crossing.

EXIT_BAND = 1e-6


def _family_roots_outside(a, b, qs):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return [float(np.max(np.abs(np.roots((a + q * b)[::-1])))) > 1.0 + EXIT_BAND
            for q in qs]


def _assert_crossings_cover_exits(a, b, q_hi=5.0, n=801):
    crossings = circle_crossings(a, b)
    qs = np.linspace(0.0, q_hi, n)
    outside = _family_roots_outside(a, b, qs)
    slack = 2.0 * (qs[1] - qs[0])
    for q0, q1, o0, o1 in zip(qs, qs[1:], outside, outside[1:]):
        if o0 != o1:
            assert any(q0 - slack <= c <= q1 + slack for c in crossings), \
                (q0, q1, crossings)
    return crossings


def _from_roots(roots, length):
    """Real ascending coefficients of prod (z - r), zero-padded to length."""
    coeffs = np.real(from_roots(roots).coeffs)
    return np.concatenate([coeffs, np.zeros(length - len(coeffs))])


def _conjugate_closed(rng, n_pairs, n_real, lo=0.3, hi=1.7):
    roots = []
    for _ in range(n_pairs):
        r = rng.uniform(lo, hi) * np.exp(1j * rng.uniform(0.1, math.pi - 0.1))
        roots += [r, r.conjugate()]
    roots += list(rng.uniform(-hi, hi, size=n_real))
    return roots


def test_circle_crossings_random_families_against_root_sweep():
    rng = np.random.default_rng(31)
    for _ in range(25):
        d = int(rng.integers(2, 5))
        a = _from_roots(_conjugate_closed(rng, d // 2, d % 2), d + 1)
        # b(z) = s z * prod (z - r), degree d - 1, as in the scheme families
        b = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]) * _from_roots(
            [0.0] + _conjugate_closed(rng, (d - 2) // 2, d % 2), d + 1)
        _assert_crossings_cover_exits(a, b)


def test_circle_crossings_known_crossing():
    # (1 - q) z^2 - 1/4: real roots +-1/(2 sqrt(1 - q)) reach the circle at
    # q = 3/4, pass through infinity at q = 1 and come back as imaginary
    # roots +-i/(2 sqrt(q - 1)), which reach it at q = 5/4.
    crossings = circle_crossings([-0.25, 0.0, 1.0], [0.0, 0.0, -1.0])
    assert sorted({round(c, 12) for c in crossings}) == [0.75, 1.25]


def test_circle_crossings_shared_unit_root():
    """a and b share the unit pair e^(+-1.1i), which then stays on the
    circle for every q; the exits of the other roots are still found."""
    rng = np.random.default_rng(41)
    shared = [np.exp(1.1j), np.exp(-1.1j)]
    for _ in range(10):
        a = _from_roots(shared + _conjugate_closed(rng, 1, 0), 5)
        b = rng.uniform(0.5, 2.0) * _from_roots(shared + [0.0], 5)
        _assert_crossings_cover_exits(a, b)


def test_circle_crossings_shared_root_at_minus_one_is_exact():
    """(z + 1) divides a and b, so z = -1 is a root for every q; the moving
    root z^2 - z + 1/2 + (7/10) q z meets it where a'(-1) + q b'(-1) = 0,
    q = 25/7.  z = -1 is taken exactly, so that q comes out to rounding."""
    a = _from_roots([-1.0, 0.5 + 0.5j, 0.5 - 0.5j], 4)
    b = 0.7 * _from_roots([-1.0, 0.0], 4)
    crossings = _assert_crossings_cover_exits(a, b)
    assert any(c == pytest.approx(25.0 / 7.0, rel=1e-14) for c in crossings), crossings


def _scheme_pairs():
    cases = []
    for scheme in Scheme:
        if scheme.kind == "debye":
            for delta, es in ((0.3, 2.0), (0.3, 1.0), (1.0, 2.0), (1e-9, 45.0)):
                cases.append((scheme, DimensionlessParams(1.0, delta, es)))
        else:
            for delta, es, w in ((0.3, 2.0, 0.8), (0.3, 1.0, 0.8), (0.0, 2.0, 0.8),
                                 (0.0, 1.0, 0.8), (0.0, 2.25, 0.3), (1e-9, 2.0, 1e-6)):
                cases.append((scheme, DimensionlessParams(1.0, delta, es, w)))
    return cases


@pytest.mark.parametrize("scheme,params", _scheme_pairs(),
                         ids=lambda v: getattr(v, "value", None) or
                         f"d{v.delta:g}-es{v.eps_s_prime:g}-w{v.omega}")
def test_circle_crossings_scheme_families_against_root_sweep(scheme, params):
    """Damped and undamped scheme polynomials, eps_s > eps_inf and
    eps_s = eps_inf, Debye-Young at delta = 1, and nearly palindromic
    families (tiny delta and omega, as at tiny time steps)."""
    _assert_crossings_cover_exits(*scheme.spec.char_poly(params))


@pytest.mark.parametrize("scheme", [Scheme.LORENTZ_JOSEPH, Scheme.LORENTZ_KASHIWA,
                                    Scheme.LORENTZ_YOUNG])
@pytest.mark.parametrize("es,w", [(2.25, 0.8), (1.0, 0.8), (3.0, 0.05), (1.0, 1.7)])
def test_circle_crossings_palindromic_quartics_closed_form(scheme, es, w):
    """Undamped Lorentz quartics c0 z^4 + c1 z^3 + c2 z^2 + c1 z + c0 are
    f(x) = c0 (x^2 - 2) + c1 x + c2 in x = z + 1/z, with unit roots for
    real x in [-2, 2].  Their two x roots collide where the discriminant
    (quadratic in q) vanishes, and reach x = +-2 where p(+-1, q) = 0; each
    such q with the collision inside [-2, 2] is a crossing."""
    a, b = (np.array(c) for c in scheme.spec.char_poly(
        DimensionlessParams(1.0, 0.0, es, w)))
    P = np.polynomial.polynomial
    c0, c1, c2 = (np.array([a[j], b[j]]) for j in range(3))
    disc = P.polysub(P.polymul(c1, c1), 4.0 * P.polymul(c0, c2 - 2.0 * c0))
    expected = [q.real for q in P.polyroots(disc) if abs(q.imag) < 1e-12
                and abs(P.polyval(q.real, c1) / (2.0 * P.polyval(q.real, c0))) <= 2.0]
    expected += [-np.polyval(a[::-1], z) / np.polyval(b[::-1], z) for z in (1.0, -1.0)]
    crossings = _assert_crossings_cover_exits(a, b)
    for q in expected:
        assert any(c == pytest.approx(q, rel=1e-7, abs=1e-9) for c in crossings), \
            (q, crossings)


def _exact_locus_crossings(a, b, q_lo=0.0, q_hi=5.0):
    """Crossings from the locus polynomial formed in exact rational
    arithmetic from the same float coefficients, rounded only at the end."""
    A, B = [Fraction(x) for x in a], [Fraction(x) for x in b]
    locus = [x - y for x, y in zip(_mul_exact(A, B[::-1]), _mul_exact(B, A[::-1]))]
    out = []
    for z in np.roots([float(c) for c in reversed(locus)]):
        if abs(abs(z) - 1.0) <= 1e-9:
            q = -np.polyval(a[::-1], z) / np.polyval(b[::-1], z)
            if abs(q.imag) <= 1e-9 and q_lo <= q.real <= q_hi:
                out.append(q.real)
    return out


@pytest.mark.parametrize("scheme", [Scheme.LORENTZ_JOSEPH, Scheme.LORENTZ_YOUNG])
@pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10])
def test_circle_crossings_nearly_palindromic_families_keep_their_digits(scheme, delta):
    """Lightly damped Lorentz quartics are nearly palindromic, and forming
    a(z) b(1/z) - b(z) a(1/z) directly in floating point cancels most of
    the locus.  The crossings in [0, 5] must match those of the exactly
    formed locus."""
    a, b = (np.array(c) for c in scheme.spec.char_poly(
        DimensionlessParams(1.0, delta, 2.25, 0.8)))
    exact = _exact_locus_crossings(a, b)
    assert exact
    crossings = circle_crossings(a, b)
    for q in exact:
        assert any(c == pytest.approx(q, abs=1e-9) for c in crossings), (q, crossings)


def test_circle_crossings_rejects_bad_input():
    with pytest.raises(InvalidInputError):
        circle_crossings([1.0, 2.0], [1.0, 2.0, 3.0])
    with pytest.raises(NumericalFailureError):
        circle_crossings([1.0, -3.0, 2.0], [2.0, -6.0, 4.0])  # b = 2a


_pair = st.tuples(st.floats(0.2, 1.8), st.floats(0.05, math.pi - 0.05))


@settings(max_examples=60, deadline=None, derandomize=True)
@given(a_pairs=st.lists(_pair, min_size=1, max_size=2),
       a_real=st.lists(st.floats(-1.8, 1.8), max_size=1),
       b_pairs=st.lists(_pair, max_size=1),
       b_scale=st.floats(-3.0, 3.0).filter(lambda s: abs(s) > 0.1))
def test_circle_crossings_cover_root_sweep_property(a_pairs, a_real, b_pairs, b_scale):
    """Any real family a + q b with deg b < deg a: every q where a root
    leaves or re-enters the closed unit disk is a returned crossing."""
    def roots(pairs):
        return [r * np.exp(s * 1j * t) for r, t in pairs for s in (1, -1)]
    a_roots = roots(a_pairs) + a_real
    n = len(a_roots) + 1
    b_roots = roots(b_pairs) if 2 * len(b_pairs) <= n - 3 else []
    a = _from_roots(a_roots, n)
    b = b_scale * _from_roots([0.0] + b_roots, n)
    _assert_crossings_cover_exits(a, b, n=401)


# --- one pass decides both classes -------------------------------------------
#
# is_simple_von_neumann records on its way whether the same levels certify
# Schur (LocationResult.schur).  Both verdicts are refereed by the roots, away
# from ties: every constructed root is either on the circle or at least 0.4
# away from it, and distinct unit roots are well separated.  (Inside roots
# close to unit roots drive the float recursion into near-ties: roots 0.875
# and 0.5, both double, next to unit roots at 1 and exp(+-i pi/6) read a
# tie at degree 3 within rounding.)

def _unit(theta):
    return complex(math.cos(theta), math.sin(theta))


_inside = st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 2.0 * math.pi))
_outside = st.tuples(st.floats(1.4, 2.0), st.floats(0.0, 2.0 * math.pi))


@st.composite
def _constructed(draw):
    """(polynomial, simple von Neumann truth, Schur truth) from constructed
    roots: real
    families use conjugate pairs, complex ones single roots.  Unit roots sit
    at distinct multiples of pi/6 (and +-1), optionally with a double root
    at 1 or -1, or with a reciprocal pair r, 1/conj(r) whose reduction
    vanishes exactly as that of a self-inversive polynomial."""
    real = draw(st.booleans())
    n_unit = draw(st.integers(0, 2))
    slots = draw(st.lists(st.integers(1, 5), min_size=n_unit, max_size=n_unit,
                          unique=True))
    inside = draw(st.lists(_inside, max_size=2))
    outside = draw(st.lists(_outside, max_size=1))
    extra = draw(st.sampled_from(["none", "double+1", "double-1", "plus1", "minus1",
                                  "reciprocal"]))
    roots, radii, truth = [], [], not outside

    def add(r, theta):
        z = r * _unit(theta)
        roots.extend([z, z.conjugate()] if real else [z])
        radii.append(r)

    for slot in slots:
        add(1.0, slot * math.pi / 6.0)
    for r, theta in inside + outside:
        add(r, theta)
    if extra.startswith("double"):
        roots += [float(extra[-2:] + "1")] * 2
        radii.append(1.0)
        truth = False
    elif extra in ("plus1", "minus1"):
        roots.append(1.0 if extra == "plus1" else -1.0)
        radii.append(1.0)
    elif extra == "reciprocal":
        r, theta = draw(_outside)
        add(r, theta)
        add(1.0 / r, theta)
        truth = False
    if not roots:
        roots = [0.5]
    lead = draw(st.sampled_from([1.0, -2.5, 1e-6, 3e5])) * (1.0 if real else _unit(0.7))
    return from_roots(roots, leading=lead), truth, all(r < 1.0 for r in radii)


def _referee_simple_von_neumann(p):
    profile = root_profile(p, circle_tolerance=1e-6)
    return profile.outside_count == 0 and all(m == 1 for _, m in profile.on_circle)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_constructed())
def test_one_pass_flag_on_constructed_roots(case):
    p, truth, schur_truth = case
    svn = is_simple_von_neumann(p)
    assert svn.schur == schur_truth
    assert svn.ok == truth == _referee_simple_von_neumann(p)


_coeff = st.one_of(st.just(0.0), st.floats(-4.0, 4.0),
                   st.integers(-4, 4).map(lambda n: n / 4.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(re=st.lists(_coeff, min_size=1, max_size=7),
       im=st.lists(_coeff, min_size=7, max_size=7),
       complex_coeffs=st.booleans())
def test_one_pass_flag_on_random_coefficients(re, im, complex_coeffs):
    """Any coefficients, with exact zeros and dyadic values that make ties
    and vanishing reductions exact: the flag is set exactly when the levels
    are strict with degree drops of one down to a constant, and it agrees
    with the companion roots away from the circle."""
    p = Polynomial([x + (1j * y if complex_coeffs else 0.0) for x, y in zip(re, im)])
    if p.is_zero:
        return
    svn = is_simple_von_neumann(p)
    strict_chain = ([(lv.degree, lv.relation) for lv in svn.levels]
                    == [(d, "<") for d in range(p.degree, 0, -1)])
    assert svn.schur == (strict_chain and svn.reason == "reduced to a nonzero constant")
    radius = max_root_modulus(p)
    if svn.schur:
        assert svn.ok and radius < 1.0 + 1e-6
    elif radius < 1.0 - 1e-6:
        pytest.fail(f"roots inside up to {radius} but not Schur: {svn}")


@pytest.mark.parametrize("gap", [1.2e-12, 1.5e-12, 1.9e-12])
def test_one_pass_flag_after_degree_drop(gap):
    """|p(0)|^2 = 1 - gap sits just outside the tie tolerance, so the level
    reads "<", but the reduction's leading coefficient gap is trimmed
    against its other entry 2i: the degree drops from 2 to 0.  Such a
    polynomial is simple von Neumann by the recursion and not Schur."""
    p = Polynomial([math.sqrt(1.0 - gap), 1j, 1.0])
    svn = is_simple_von_neumann(p)
    assert svn.ok and not svn.schur
    assert [(lv.degree, lv.relation) for lv in svn.levels] == [(2, "<")]
    assert svn.reason == "reduced to a nonzero constant"


@pytest.mark.parametrize("name", ["polymul", "polysub"])
def test_circle_crossings_forms_the_wronskian_without_poly1d(name, monkeypatch):
    """The Wronskian a' b - a b' comes from two convolutions of
    leading-zero-trimmed arrays, not from the poly1d round trips of
    np.polymul / np.polysub."""
    calls = []
    real = getattr(np, name)
    monkeypatch.setattr(np, name, lambda *args: calls.append(args) or real(*args))
    for scheme, params in _scheme_pairs():
        circle_crossings(*scheme.spec.char_poly(params))
    assert calls == []
