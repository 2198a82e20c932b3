"""Root-location engine tests.

A `Polynomial` holds exact coefficients only, and the recursion decides on
them exactly; a test that starts from floats reads them as the rationals
they are (`Fraction(x)`).  Random-polynomial truths come from the construction itself (known roots,
real factors multiplied exactly); boundary cases use exact dyadic
coefficients so that double precision represents them without rounding,
with the tests' own integer recursion as a second referee.
"""

import math
import zlib
from fractions import Fraction
from pathlib import Path

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
    char_poly_closed,
    is_simple_von_neumann,
)
from fdtd_stability.polyloc import max_root_modulus, poly_roots
from referees import (
    _integral,
    _primitive,
    _primitive_gcd,
    conjugate_poly,
    exact_product,
    from_roots,
    integer_location,
    reduce_step,
    root_factors,
    root_profile,
    scaled,
)


def test_trailing_coefficients_trimmed():
    """Construction trims exact zeros only: a tiny leading coefficient keeps
    its degree, and its large roots, in the companion solve too."""
    p = Polynomial([1, 2, 0, Fraction(0)])
    assert p.degree == 1
    assert p.coeffs == (1, 2)
    tiny = Polynomial([1, 2, 0, Fraction(1, 10**30)])
    assert tiny.degree == 3
    assert max_root_modulus(tiny) == pytest.approx(math.sqrt(2e30), rel=1e-9)


@pytest.mark.parametrize("coeffs", [
    [1.0], [1, 0.5], [Fraction(1, 2), 0.0, 1], [1j, 1], [0.5 + 0j], [math.nan, 1],
    [math.inf, 1], [np.float64(0.5), 1], [np.int64(1)],
], ids=["float", "float-among-ints", "float-among-fractions", "complex", "real-complex",
        "nan", "inf", "numpy-float", "numpy-int"])
def test_polynomial_refuses_inexact_coefficients(coeffs):
    """Only ints and Fractions make a Polynomial: a float, a complex, a NaN
    or a numpy scalar is refused at construction, not cast."""
    with pytest.raises(InvalidInputError, match="coefficients must be ints or Fractions"):
        Polynomial(coeffs)


def test_huge_exact_coefficients_have_a_root_estimate():
    """The companion solve reads each coefficient divided by the largest
    one, so integers far past the double range still give their roots:
    10^399 z - 10^400 has the root 10."""
    assert max_root_modulus(Polynomial([-10**400, 10**399])) == pytest.approx(10.0, rel=1e-15)
    assert max_root_modulus(Polynomial([10**400, 0, 10**400])) == pytest.approx(1.0, rel=1e-15)


def test_fraction_coefficients_stay_exact():
    """A polynomial of Fractions and ints keeps them and is decided without
    rounding: roots +-sqrt(1 - 1e-14) are inside the circle.  Its image in
    doubles, read as the rationals they are: -1 + 1e-14 rounds to a double
    above -1, so the image is Schur as well, while -1 itself is a tie whose
    reduction vanishes at once, so that the vanishing level is z^2 - 1
    itself (roots +-1)."""
    p = Polynomial([Fraction(-1) + Fraction(1, 10**14), Fraction(0), Fraction(1), Fraction(0)])
    assert p.degree == 2 and all(type(c) is Fraction for c in p.coeffs)
    exact = is_simple_von_neumann(p)
    assert exact.ok and exact.schur
    assert [lv.relation for lv in exact.levels] == ["<", "<"]
    floats = is_simple_von_neumann(Polynomial([Fraction(float(c)) for c in p.coeffs]))
    assert floats == exact._replace(levels=floats.levels) and floats.schur
    tie = is_simple_von_neumann(Polynomial([-1, 0, 1]))
    assert tie.ok and not tie.schur and tie.vanished == (-1, 0, 1)
    assert tie.levels[0].relation == "="
    kept = Polynomial([Fraction(1, 2), 0, 1]).coeffs
    assert kept == (Fraction(1, 2), 0, 1) and [type(c) for c in kept] == [Fraction, int, int]


def test_exact_polynomial_evaluates_exactly():
    """Horner's rule runs in the coefficients' field: 1/3 + z^2 at
    z = 1e-9 is 1/3 + 1e-18, which a double would round to 1/3."""
    value = Polynomial([Fraction(1, 3), Fraction(0), Fraction(1)])(Fraction(1, 10**9))
    assert type(value) is Fraction
    assert value == Fraction(1000000000000000003, 3000000000000000000)


def test_zero_polynomial_is_a_value():
    z = Polynomial([])
    assert z.is_zero and z.degree == -1
    assert Polynomial([0, Fraction(0)]).is_zero


def test_conjugate_monomial():
    # z^2 reverses to the constant 1
    assert conjugate_poly((0, 0, 1)) == (1,)


def test_conjugate_complex_coefficients():
    # 1 + 2i z  ->  -2i + z
    assert conjugate_poly((1, 2j)) == (-2j, 1)


def test_conjugate_palindromic_fixed_point():
    assert conjugate_poly((1, -2, 1)) == (1, -2, 1)


def test_conjugate_involution_exact():
    rng = np.random.default_rng(7)
    for _ in range(50):
        coeffs = rng.normal(size=5) + 1j * rng.normal(size=5)
        coeffs[0] += 3.0  # keep c0 nonzero
        assert conjugate_poly(conjugate_poly(coeffs)) == tuple(coeffs)


def test_conjugate_rejects_zero():
    with pytest.raises(InvalidInputError):
        conjugate_poly(())


def test_reduce_step_monomial():
    # z^2 -> (1*z^2 - 0)/z = z
    assert reduce_step((0, 0, 1)) == (0, 1)


def test_reduce_step_self_conjugate_vanishes():
    assert reduce_step((1, -2, 1)) == ()  # (z-1)^2


def test_reduce_step_scheme_cubic_matches_exact_recursion():
    # Debye-Joseph characteristic cubic at delta=1/2, eps'=2, q=1:
    # 0 + 1.5 z - 2.5 z^2 + 2 z^3 (constant term vanishes exactly).
    exact_in = [Fraction(0), Fraction(3, 2), Fraction(-5, 2), Fraction(2)]
    exact_out = reduce_step(exact_in)
    assert exact_out == (Fraction(3), Fraction(-5), Fraction(4))
    assert all(type(c) is Fraction for c in exact_out)
    out = reduce_step((0.0, 1.5, -2.5, 2.0))
    assert out == (3.0, -5.0, 4.0) and all(type(c) is float for c in out)


def test_reduce_step_strictly_lowers_degree():
    rng = np.random.default_rng(3)
    for _ in range(200):
        deg = rng.integers(1, 9)
        p = Polynomial([Fraction(x) for x in rng.normal(size=deg + 1)])
        out = reduce_step(p.coeffs)
        assert len(out) - 1 < p.degree


def test_schur_class_simple_cases():
    assert is_simple_von_neumann(Polynomial([0, 1])).schur           # z: root at 0
    assert not is_simple_von_neumann(Polynomial([-1, 1])).schur      # z - 1: on circle
    p = exact_product([[-0.5, 1.0], [0.09, 0.0, 1.0]])                # 0.5, +-0.3i
    res = is_simple_von_neumann(p)
    assert res.ok and res.schur
    profile = root_profile(p.coeffs)
    assert profile.inside_count == 3 and profile.outside_count == 0


def test_is_simple_von_neumann_cases():
    assert is_simple_von_neumann(Polynomial([-1, 0, 1]))      # z^2 - 1
    res = is_simple_von_neumann(Polynomial([1, -2, 1]))       # (z-1)^2
    assert not res.ok
    assert "derivative" in res.reason


def test_debye_joseph_boundary_quartic_is_von_neumann():
    # q = 4, eps' = 2, delta = 1/10: [1+d es] Z^3 - [3+d es-(1+d)q] Z^2 + ...,
    # with the root -1 exactly on the circle.
    d, es, q = Fraction(1, 10), 2, 4
    coeffs = (-(1 - d * es),
              3 - d * es - (1 - d) * q,
              -(3 + d * es - (1 + d) * q),
              1 + d * es)
    assert is_simple_von_neumann(Polynomial(coeffs)).ok


def test_verdicts_scale_invariant():
    rng = np.random.default_rng(11)
    for _ in range(60):
        deg = int(rng.integers(1, 7))
        pairs = int(rng.integers(0, deg // 2 + 1))
        p = exact_product(root_factors(rng, rng.uniform(0.2, 1.8, size=deg - pairs), pairs))
        for scale in (Fraction(1, 10**8), 10**8, Fraction(-5, 2), -3):
            svn_p, svn_q = is_simple_von_neumann(p), is_simple_von_neumann(scaled(p, scale))
            assert (svn_p.ok, svn_p.schur) == (svn_q.ok, svn_q.schur)


def test_schur_implies_von_neumann():
    rng = np.random.default_rng(13)
    for _ in range(500):
        deg = int(rng.integers(1, 9))
        pairs = int(rng.integers(0, deg // 2 + 1))
        svn = is_simple_von_neumann(exact_product(
            root_factors(rng, rng.uniform(0.0, 1.6, size=deg - pairs), pairs)))
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
    recursion on the exact Polynomial and the tests' integer recursion
    agree with the construction."""
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
        svn = is_simple_von_neumann(exact)
        assert (svn.ok, svn.schur) == (expect_svn, expect_schur)
        assert integer_location(_integral(poly)) == (expect_svn, expect_schur)


def test_integer_recursion_matches_the_exact_recursion():
    """The tests' own integer recursion (`referees.integer_location`, the
    exact referee's per-q kernel) and the package's recursion on Fraction
    coefficients agree on seeded integer polynomials of degree 1 to 6, one
    in three made self-reciprocal so that the reduction vanishes and the
    derivative decides."""
    rng = np.random.default_rng(37)
    classes = set()
    for _ in range(3000):
        c = [int(x) for x in rng.integers(-5, 6, size=int(rng.integers(2, 8)))]
        if rng.random() < 1 / 3:
            c = [x + y for x, y in zip(c, c[::-1])]
        if c[-1] == 0:
            continue
        svn = is_simple_von_neumann(Polynomial([Fraction(x) for x in c]))
        assert integer_location(c) == (svn.ok, svn.schur), c
        classes.add((svn.ok, svn.schur))
    assert classes == {(False, False), (True, False), (True, True)}


def test_root_profile_inside_monomial():
    profile = root_profile((0, 0, 0, 1))  # z^3
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
    profile = root_profile(coeffs, circle_tolerance=1e-6)
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
        deg = int(rng.integers(1, 9))
        pairs = int(rng.integers(0, deg // 2 + 1))
        radii = rng.uniform(0.0, 2.0, size=deg - pairs)
        radii = np.where(np.abs(radii - 1.0) < margin, radii + 2 * margin, radii)
        p = exact_product(root_factors(rng, radii, pairs), leading=rng.uniform(0.5, 2.0))
        svn = is_simple_von_neumann(p)
        assert svn.schur == svn.ok == bool(np.all(radii < 1.0))


def test_max_root_modulus():
    # (z - 1/2)(z^2 + 25/16): roots 1/2 and +-1.25i
    p = exact_product([[-0.5, 1.0], [1.5625, 0.0, 1.0]])
    assert max_root_modulus(p) == pytest.approx(1.25, rel=1e-12)


def test_constant_has_no_roots():
    """A nonzero constant has no roots, and its largest root modulus reads 0."""
    assert max_root_modulus(Polynomial([3])) == 0.0
    assert max_root_modulus(Polynomial([Fraction(1, 3)])) == 0.0


def test_polynomial_is_an_immutable_hashable_value():
    p = Polynomial([1, 2, 0])
    with pytest.raises(AttributeError, match="Polynomial is immutable"):
        p.coeffs = ()
    assert repr(p) == "Polynomial([1, 2])"
    assert p == Polynomial([Fraction(1), 2]) and hash(p) == hash(Polynomial([1, 2]))


def test_reduce_step_of_nonzero_constant_is_zero():
    assert reduce_step((3,)) == ()


def test_failed_companion_eigensolve_is_a_numerical_failure(monkeypatch):
    def diverge(coeffs):
        raise np.linalg.LinAlgError("Eigenvalues did not converge")
    monkeypatch.setattr(np, "roots", diverge)
    with pytest.raises(NumericalFailureError, match="companion eigensolve failed"):
        poly_roots(Polynomial([1, 1]))


def test_operations_reject_zero_polynomial():
    for op, zero in ((reduce_step, ()), (is_simple_von_neumann, Polynomial([])),
                     (root_profile, ())):
        with pytest.raises(InvalidInputError):
            op(zero)


def test_root_profile_rejects_bad_tolerance():
    with pytest.raises(InvalidInputError):
        root_profile((1, 1), circle_tolerance=0.0)


# --- one pass decides both classes -------------------------------------------
#
# is_simple_von_neumann records on its way whether the same levels certify
# Schur (LocationResult.schur).  Both verdicts are refereed by the roots:
# every constructed root is either exactly on the circle (a factor
# z^2 - 2 cos(t) z + 1, or z -+ 1) or at least 0.4 away from it, and the
# float factors are multiplied exactly.

def _pair(r, theta):
    return [r * r, -2.0 * r * math.cos(theta), 1.0]


_inside = st.tuples(st.floats(0.0, 0.6), st.floats(0.0, 2.0 * math.pi))
_outside = st.tuples(st.floats(1.4, 2.0), st.floats(0.0, 2.0 * math.pi))


@st.composite
def _constructed(draw):
    """(polynomial, simple von Neumann truth, Schur truth) from real factors
    of constructed roots, in conjugate pairs.  Unit pairs sit at distinct
    multiples of pi/6 (and +-1), optionally with a double root at 1 or -1,
    or with a reciprocal pair r, 1/r whose factors are each other's
    reversal, so that the reduction vanishes exactly as that of a
    self-inversive polynomial."""
    n_unit = draw(st.integers(0, 2))
    slots = draw(st.lists(st.integers(1, 5), min_size=n_unit, max_size=n_unit,
                          unique=True))
    inside = draw(st.lists(_inside, max_size=2))
    outside = draw(st.lists(_outside, max_size=1))
    extra = draw(st.sampled_from(["none", "double+1", "double-1", "plus1", "minus1",
                                  "reciprocal"]))
    factors = [_pair(1.0, slot * math.pi / 6.0) for slot in slots]
    factors += [_pair(r, theta) for r, theta in inside + outside]
    truth, schur = not outside, not (slots or outside)
    if extra.startswith("double"):
        factors += [[-float(extra[-2:] + "1"), 1.0]] * 2
        truth = schur = False
    elif extra in ("plus1", "minus1"):
        factors.append([-1.0 if extra == "plus1" else 1.0, 1.0])
        schur = False
    elif extra == "reciprocal":
        f = _pair(*draw(_outside))
        factors += [f, f[::-1]]
        truth = schur = False
    if not factors:
        factors = [[-0.5, 1.0]]
    lead = draw(st.sampled_from([1.0, -2.5, 1e-6, 3e5]))
    return exact_product(factors, leading=lead), truth, schur


def _referee_simple_von_neumann(p):
    profile = root_profile(p.coeffs, circle_tolerance=1e-6)
    return profile.outside_count == 0 and all(m == 1 for _, m in profile.on_circle)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(case=_constructed())
def test_one_pass_flag_on_constructed_roots(case):
    p, truth, schur_truth = case
    svn = is_simple_von_neumann(p)
    assert svn.schur == schur_truth
    assert svn.ok == truth == _referee_simple_von_neumann(p)


def _fallback_polys():
    """The exact p_q that `classify_at_q` decides on each g-form or
    eigenvectors point line of the golden ``verdicts.txt``."""
    golden = Path(__file__).resolve().parent / "golden" / "verdicts.txt"
    for line in golden.read_text().splitlines():
        if not line.startswith("point|"):
            continue
        _, name, delta, es, omega, q, _, argument, _ = line.split("|", 8)
        if argument in ("g-form", "eigenvectors"):
            scheme = Scheme.from_name(name)
            params = DimensionlessParams(1.0, float(delta), float(es),
                                         None if omega == "None" else float(omega))
            yield char_poly_closed(scheme, params, float(q))


def test_vanished_level_is_the_gcd_of_p_and_its_reversal():
    """The level whose reduction vanished is gcd(p, p*) up to content and
    sign, as the referee's primitive remainder sequence computes it: on the
    145 exact polynomials behind the g-form and eigenvectors lines of
    ``verdicts.txt``, and on 300 seeded products u w of a Schur factor w
    and unit-root factors u (pairs z^2 - 2 cos t z + 1 and z -+ 1, some
    repeated), where that gcd is u."""
    lines = 0
    for poly in _fallback_polys():
        c = _integral(poly.coeffs)
        assert _primitive(list(is_simple_von_neumann(poly).vanished)) == _primitive_gcd(c, c[::-1])
        lines += 1
    assert lines == 145
    rng = np.random.default_rng(47)
    for _ in range(300):
        unit = [[-1.0, 1.0], [1.0, 1.0]] + [_pair(1.0, t) for t in rng.uniform(0.1, 3.0, 2)]
        u = [unit[i] for i in rng.choice(4, size=int(rng.integers(1, 4)))]  # with repeats
        w = root_factors(rng, rng.uniform(0.0, 0.95, int(rng.integers(0, 4))), pairs=1)
        p = exact_product(u + w, leading=float(rng.choice([1.0, -2.5, 3e5])))
        vanished = is_simple_von_neumann(p).vanished
        c = _integral(p.coeffs)
        assert _primitive(list(vanished)) == _primitive_gcd(c, c[::-1])
        assert _primitive(list(vanished)) == _primitive(_integral(exact_product(u).coeffs))


# No subnormals: the float companion referee overflows on such a lead.
_coeff = st.one_of(st.just(0.0), st.floats(-4.0, 4.0, allow_subnormal=False),
                   st.integers(-4, 4).map(lambda n: n / 4.0))


@settings(max_examples=300, deadline=None, derandomize=True)
@given(coeffs=st.lists(_coeff, min_size=1, max_size=7))
def test_one_pass_flag_on_random_coefficients(coeffs):
    """Any real coefficients, read as the rationals their doubles are, with
    exact zeros and dyadic values that make ties and vanishing reductions
    exact: a strict level lowers the degree by exactly one, the flag is set
    exactly when the levels are strict down to a constant, and it agrees
    with the companion roots away from the circle."""
    p = Polynomial([Fraction(c) for c in coeffs])
    if p.is_zero:
        return
    svn = is_simple_von_neumann(p)
    for above, below in zip(svn.levels, svn.levels[1:]):
        assert above.relation != "<" or below.degree == above.degree - 1, svn
    strict_chain = ([(lv.degree, lv.relation) for lv in svn.levels]
                    == [(d, "<") for d in range(p.degree, 0, -1)])
    assert svn.schur == (strict_chain and svn.reason == "reduced to a nonzero constant")
    roots = np.roots(np.array(p.coeffs[::-1], dtype=float))  # tiny leads count
    radius = float(np.max(np.abs(roots))) if roots.size else 0.0
    if svn.schur:
        assert svn.ok and radius < 1.0 + 1e-6
    elif radius < 1.0 - 1e-6:
        pytest.fail(f"roots inside up to {radius} but not Schur: {svn}")
