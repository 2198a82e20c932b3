"""The theorem behind `worst_case_verdict` and `stability_boundary_k`: a
root of p_q = a + q b meets the unit circle, or two roots collide on it,
only at q = 0 or at a candidate of `referees._candidates` (2, 4, q_-1 and
the degenerate q).

Exact referees check the factored resultants and the degenerate sets of
`referees.RESULTANTS` and `referees.DEGENERATE_SETS` at seeded rational
points, in `Fraction` arithmetic.  A float root sweep checks that every q
at which a root leaves or re-enters the closed unit disk lies next to a
breakpoint.  The same theorem gives the end q_c of each scheme's stable
q-range in closed form (`SchemeSpec.stable_q`, with `SchemeSpec.closed`
for whether its end is stable), checked exactly against q_-1 and against
the exact walk over the breakpoints.  `classify_at_q`'s verdicts and Schur
labels are checked against the exact referee on every class, next to the
breakpoints and on the verify plan.
"""

import math
import random
from fractions import Fraction

import numpy as np
import pytest

from fdtd_stability import (
    Argument,
    DimensionlessParams,
    Scheme,
    Wavenumber,
    analyzer,
    courant_q,
    dimensionless_params,
)
from fdtd_stability.cli import build_verify_plan
from referees import (
    DEGENERATE_SETS,
    RESULTANTS,
    _candidates,
    _walk,
    decided_q,
    discriminant_exact,
    divmod_exact,
    exact_params,
    poly_q,
    exact_schur_at_q,
    exact_stable_at_q,
    exact_walk,
    fraction_params,
    monic_gcd_exact,
    resultant_exact,
)
from test_analyzer import _random_grid


def _rational(rng, lo, hi, den=997):
    """A seeded rational strictly between lo and hi."""
    return lo + Fraction(rng.randrange(1, den), den) * (hi - lo)


def _exact_params(rng, scheme, **fixed):
    """Seeded rational delta in (0, 2), eps_s' in (1, 40) and, for Lorentz
    schemes, omega in (0, 3); the keywords fix some of them."""
    values = dict(delta=_rational(rng, 0, 2), eps_s_prime=_rational(rng, 1, 40),
                  omega=_rational(rng, 0, 3) if scheme.kind == "lorentz" else None)
    values.update((k, Fraction(v)) for k, v in fixed.items())
    return DimensionlessParams(lam=1.0, **values)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_resultant_factorizations(scheme):
    """res_z(p_q, p_q*) equals the committed factorization up to sign, and
    its zero q_-1 = -a(-1)/b(-1) is the candidate `_candidates` computes in
    floats."""
    rng = random.Random(f"resultant {scheme.value}")
    for _ in range(40):
        params = _exact_params(rng, scheme)
        d, e, w = params.delta, params.eps_s_prime, params.omega
        q = _rational(rng, 0, 8)
        p = poly_q(scheme, params, q)
        formula = RESULTANTS[scheme](d, e, w, q)
        assert formula != 0
        assert resultant_exact(p, p[::-1]) in (formula, -formula), (params, q)
        a, b = scheme.spec.char_poly(params)
        q_m1 = -sum(x * (-1) ** j for j, x in enumerate(a)) / sum(
            y * (-1) ** j for j, y in enumerate(b))
        assert RESULTANTS[scheme](d, e, w, q_m1) == 0
        float_params = DimensionlessParams(1.0, float(d), float(e), w and float(w))
        assert _candidates(scheme, float_params)[2] == pytest.approx(
            float(q_m1), rel=1e-13)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_degenerate_sets(scheme):
    """On each set where the resultant vanishes for every q, the gcd of p_q
    and p_q*, its discriminant and the resultant of the rest are the
    committed ones."""
    rng = random.Random(f"degenerate {scheme.value}")
    for dset in DEGENERATE_SETS[scheme]:
        for _ in range(10):
            params = _exact_params(rng, scheme, **{dset.param: dset.value})
            d, e, w = params.delta, params.eps_s_prime, params.omega
            q = _rational(rng, 0, 8)
            p = poly_q(scheme, params, q)
            assert RESULTANTS[scheme](d, e, w, q) == 0
            u = [Fraction(c) for c in dset.gcd(d, e, w, q)]
            assert monic_gcd_exact(p, p[::-1]) == [c / u[-1] for c in u]
            assert discriminant_exact(u) == dset.disc(d, e, w, q)
            rest, remainder = divmod_exact(p, u)
            assert remainder == []
            expected = dset.rest(d, e, w)
            assert expected != 0
            assert resultant_exact(rest, rest[::-1]) in (expected, -expected)


# Float referee: sweep q densely, take the largest root modulus from np.roots,
# and find where it passes 1 + EXIT_BAND (the band absorbs the rounding of
# roots that lie on the circle for whole intervals of q).  Every such change
# must sit next to a breakpoint.

EXIT_BAND = 1e-6


def _family_roots_outside(a, b, qs):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return [float(np.max(np.abs(np.roots((a + q * b)[::-1])))) > 1.0 + EXIT_BAND
            for q in qs]


def _assert_breakpoints_cover_exits(a, b, breakpoints, q_hi=5.0, n=801):
    qs = np.linspace(0.0, q_hi, n)
    outside = _family_roots_outside(a, b, qs)
    slack = 2.0 * (qs[1] - qs[0])
    for q0, q1, o0, o1 in zip(qs, qs[1:], outside, outside[1:]):
        if o0 != o1:
            assert any(q0 - slack <= c <= q1 + slack for c in breakpoints), \
                (q0, q1, breakpoints)


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
def test_candidates_cover_root_sweep_exits(scheme, params):
    """Damped and undamped scheme polynomials, eps_s > eps_inf and
    eps_s = eps_inf, Debye-Young at delta = 1, and nearly palindromic
    families (tiny delta and omega, as at tiny time steps): the breakpoints
    {0} and `_candidates` cover every exit of the root sweep."""
    breakpoints = [0.0] + [c for c in _candidates(scheme, params) if c is not None]
    _assert_breakpoints_cover_exits(*scheme.spec.char_poly(params), breakpoints)


@pytest.mark.parametrize("scheme", [Scheme.LORENTZ_JOSEPH, Scheme.LORENTZ_KASHIWA,
                                    Scheme.LORENTZ_YOUNG], ids=lambda s: s.value)
@pytest.mark.parametrize("es,w", [(2.25, 0.8), (1.0, 0.8), (3.0, 0.05), (1.0, 1.7)])
def test_candidates_palindromic_quartics_closed_form(scheme, es, w):
    """Undamped Lorentz quartics c0 z^4 + c1 z^3 + c2 z^2 + c1 z + c0 are
    f(x) = c0 (x^2 - 2) + c1 x + c2 in x = z + 1/z, with unit roots for
    real x in [-2, 2].  Their two x roots collide where the discriminant
    (quadratic in q) vanishes, and reach x = +-2 where p(+-1, q) = 0; each
    such q in [0, 5] with the collision inside [-2, 2] is a breakpoint."""
    params = DimensionlessParams(1.0, 0.0, es, w)
    a, b = (np.array(c) for c in scheme.spec.char_poly(params))
    P = np.polynomial.polynomial
    c0, c1, c2 = (np.array([a[j], b[j]]) for j in range(3))
    disc = P.polysub(P.polymul(c1, c1), 4.0 * P.polymul(c0, c2 - 2.0 * c0))
    expected = [q.real for q in P.polyroots(disc) if abs(q.imag) < 1e-12
                and abs(P.polyval(q.real, c1) / (2.0 * P.polyval(q.real, c0))) <= 2.0]
    expected += [-np.polyval(a[::-1], z) / np.polyval(b[::-1], z) for z in (1.0, -1.0)]
    breakpoints = [0.0] + [c for c in _candidates(scheme, params) if c is not None]
    _assert_breakpoints_cover_exits(a, b, breakpoints)
    for q in expected:
        if 0.0 <= q <= 5.0:
            assert any(c == pytest.approx(q, rel=1e-7, abs=1e-9) for c in breakpoints), \
                (q, breakpoints)


def _exact_q_minus_one(a, b):
    """q_-1 = -a(-1)/b(-1) of float coefficients, in exact arithmetic."""
    return -sum(Fraction(x) * (-1) ** j for j, x in enumerate(a)) / sum(
        Fraction(y) * (-1) ** j for j, y in enumerate(b))


@pytest.mark.parametrize("scheme", [Scheme.LORENTZ_JOSEPH, Scheme.LORENTZ_YOUNG],
                         ids=lambda s: s.value)
@pytest.mark.parametrize("delta", [1e-6, 1e-8, 1e-10])
def test_candidates_nearly_palindromic_families_keep_their_digits(scheme, delta):
    """Lightly damped Lorentz quartics are nearly palindromic, with roots
    hugging the unit circle.  The breakpoints still cover every exit of the
    root sweep, and q_-1 is the exactly evaluated -a(-1)/b(-1) of the same
    float coefficients to a few ulps."""
    params = DimensionlessParams(1.0, delta, 2.25, 0.8)
    a, b = scheme.spec.char_poly(params)
    candidates = _candidates(scheme, params)
    _assert_breakpoints_cover_exits(a, b, [0.0] + [c for c in candidates if c is not None])
    assert candidates[2] == pytest.approx(float(_exact_q_minus_one(a, b)), rel=1e-15, abs=0.0)


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_candidate_q_minus_one_keeps_its_digits(scheme):
    """`_candidates` evaluates q_-1 = -a(-1)/b(-1) in floats to within a few
    ulps of the exact value on the same coefficients.  Seeded parameters:
    delta over ten decades (0 for a third of the Lorentz draws), eps_s =
    eps_inf one time in four."""
    rng = random.Random(f"q_-1 {scheme.value}")
    for _ in range(40):
        es = 1.0 if rng.random() < 0.25 else 1.0 + 10.0 ** rng.uniform(-3.0, 1.5)
        if scheme.kind == "debye":
            params = DimensionlessParams(1.0, 10.0 ** rng.uniform(-10.0, 0.5), es)
        else:
            delta = 0.0 if rng.random() < 1.0 / 3.0 else 10.0 ** rng.uniform(-8.0, 0.0)
            params = DimensionlessParams(1.0, delta, es, 10.0 ** rng.uniform(-6.0, 0.5))
        exact = float(_exact_q_minus_one(*scheme.spec.char_poly(params)))
        assert _candidates(scheme, params)[2] == pytest.approx(
            exact, rel=1e-15, abs=0.0), (scheme, params)


# Where each scheme's q_c is q_-1, as a predicate on (delta, eps_s', omega),
# and q_c elsewhere.  Lorentz media with delta = 0 and eps_s' = 1 cap q_c at
# the degenerate q.
Q_MINUS_ONE_BRANCH = {
    Scheme.DEBYE_JOSEPH: (lambda d, e, w: True, None),
    Scheme.DEBYE_YOUNG: (lambda d, e, w: d <= 1 or e == 1, 0),
    Scheme.LORENTZ_JOSEPH: (lambda d, e, w: d == 0 or e == 1, 2),
    Scheme.LORENTZ_KASHIWA: (lambda d, e, w: True, None),
    Scheme.LORENTZ_YOUNG: (lambda d, e, w: w * e < 2, 0),
}


def _exact_stable_q(scheme, **fixed):
    """stable_q and q_-1 = -a(-1)/b(-1) of `spec.char_poly` at the exact
    parameters the keywords give."""
    params = DimensionlessParams(lam=1.0, **{k: Fraction(v) for k, v in fixed.items()})
    return scheme.spec.stable_q(params), _exact_q_minus_one(*scheme.spec.char_poly(params))


@pytest.mark.parametrize("scheme", list(Scheme), ids=lambda s: s.value)
def test_stable_q_is_q_minus_one_on_its_branch(scheme):
    """With `Fraction` parameters, stable_q is exactly q_-1 = -a(-1)/b(-1)
    of the scheme's own polynomial wherever its branch predicate holds, and
    the committed constant elsewhere; at delta = 0 and eps_s' = 1 a Lorentz
    scheme reads the smaller of that and its degenerate q.  Seeded rational
    draws, with delta = 0 and eps_s' = 1 fixed in turn."""
    on_branch, off_value = Q_MINUS_ONE_BRANCH[scheme]
    fixes = [{}, dict(eps_s_prime=1)]
    if scheme.kind == "lorentz":
        fixes += [dict(delta=0), dict(delta=0, eps_s_prime=1)]
    rng = random.Random(f"stable_q {scheme.value}")
    branches = set()
    for fixed in fixes:
        for _ in range(40):
            params = _exact_params(rng, scheme, **fixed)
            d, e, w = params.delta, params.eps_s_prime, params.omega
            a, b = scheme.spec.char_poly(params)
            expected = _exact_q_minus_one(a, b) if on_branch(d, e, w) else off_value
            if w is not None and d == 0 and e == 1:
                expected = min(expected, scheme.spec.degenerate_q(w))
            assert scheme.spec.stable_q(params) == expected, params
            branches.add(on_branch(d, e, w))
    assert branches == ({True} if off_value is None else {True, False})


def test_stable_q_switches_where_stated():
    """Debye-Young leaves q_-1 for 0 just past delta = 1 when eps_s' > 1,
    Lorentz-Young at omega eps_s' = 2, where q_-1 reaches 0 (past omega = 2
    where eps_s' = 1), and
    Lorentz-Joseph leaves q_-1 for 2 as soon as delta > 0 and eps_s' > 1."""
    tiny = Fraction(1, 10 ** 9)
    dy, lj, ly = Scheme.DEBYE_YOUNG, Scheme.LORENTZ_JOSEPH, Scheme.LORENTZ_YOUNG
    q, q_m1 = _exact_stable_q(dy, delta=1, eps_s_prime=3)
    assert q == q_m1 == 12
    assert _exact_stable_q(dy, delta=1 + tiny, eps_s_prime=3)[0] == 0
    assert _exact_stable_q(dy, delta=2, eps_s_prime=1) == (4, 4)
    e = Fraction(5, 2)
    q, q_m1 = _exact_stable_q(ly, delta=Fraction(3, 10), eps_s_prime=e, omega=2 / e - tiny)
    assert q == q_m1 > 0
    assert _exact_stable_q(ly, delta=Fraction(3, 10), eps_s_prime=e, omega=2 / e) == (0, 0)
    q, q_m1 = _exact_stable_q(ly, delta=Fraction(3, 10), eps_s_prime=e, omega=2 / e + tiny)
    assert q == 0 > q_m1
    # Lorentz-Young at eps_s' = 1: q_-1 is 0/0 at omega = 2, where a damped
    # medium keeps q_c = 4 and a harmonic one has none; none has past it.
    for d, w, q_c in ((Fraction(3, 10), 2, 4), (0, 2, 0), (Fraction(3, 10), 2 + tiny, 0)):
        params = DimensionlessParams(lam=1.0, delta=Fraction(d), eps_s_prime=Fraction(1),
                                     omega=Fraction(w))
        assert ly.spec.stable_q(params) == q_c
    for d, e in ((0, 2), (Fraction(3, 10), 1)):
        q, q_m1 = _exact_stable_q(lj, delta=d, eps_s_prime=e, omega=Fraction(4, 5))
        assert q == q_m1 > 2
    assert _exact_stable_q(lj, delta=tiny, eps_s_prime=1 + tiny, omega=Fraction(4, 5))[0] == 2


def test_stable_q_past_lorentz_young_k_limit():
    """Lorentz-Young's stable q-range outlives its k_limit, omega (2 eps_s' - 1)
    = 2: at eps_s' = 38, delta = 0.0036, omega = 0.0331 (omega (2 eps_s' - 1)
    = 2.48) it is still [0, q_-1] with q_-1 near 1.51."""
    q, q_m1 = _exact_stable_q(Scheme.LORENTZ_YOUNG, delta=Fraction("0.0036"),
                              eps_s_prime=38, omega=Fraction("0.0331"))
    assert q == q_m1 == pytest.approx(1.51, abs=0.005)


def test_stable_q_matches_the_exact_and_the_float_walk():
    """On seeded `_random_grid` media at time steps from 0.1 of 2h/c_inf up
    to it, the exact walk over [0, 2 max(4, q_c) + 1], at the exact
    parameters of the float steps, ends its stable q-range at stable_q's
    q_c, closed where `SchemeSpec.closed` says so, in every class.  The
    float walk, whose probes are `classify_at_q`'s, ends it at q_c too, to a
    relative 1e-9, harmonic eps_s' = 1 Lorentz media at their tiny
    degenerate q included."""
    rng = random.Random(7)
    classes = set()
    for _ in range(300):
        scheme, medium, h, _ = _random_grid(rng)
        k = 2.0 * h / medium.c_inf * 10.0 ** rng.uniform(-1.0, 0.0)
        params = exact_params(medium, k, h)
        q_c = scheme.spec.stable_q(params)
        walk = exact_walk(scheme, params, Fraction(0), 2 * max(4, q_c) + 1)
        assert walk.q_c == q_c, (scheme, medium, k, h)
        if q_c > 0:
            assert walk.closed == scheme.spec.closed(params), (scheme, medium, k, h)
        classes.add((scheme, params.delta > 0, params.alpha > 0))
        float_params = dimensionless_params(medium, k, h)
        q_c = scheme.spec.stable_q(float_params)
        walked = _walk(scheme, float_params, 0.0, 2.0 * max(4.0, q_c) + 1.0).q_c
        assert walked == pytest.approx(q_c, rel=1e-9, abs=0.0), (scheme, medium, k, h)
    assert len(classes) == 16, sorted(classes)


# Every (scheme, delta = 0 or > 0, eps_s' = 1 or > 1) class; Debye media are
# always damped.
CLASSES = [(scheme, damped, dispersive) for scheme in Scheme
           for damped in (False, True) for dispersive in (False, True)
           if damped or scheme.kind == "lorentz"]


@pytest.mark.parametrize("scheme,damped,dispersive", CLASSES,
                         ids=lambda v: getattr(v, "value", None) or str(v).lower())
def test_stable_q_and_closed_match_the_exact_walk(scheme, damped, dispersive):
    """Seeded rational draws of every class: the exact walk over
    [0, 2 max(4, q_c) + 1] ends its stable q-range at stable_q's q_c, a
    breakpoint the walk probes itself, so the tie q_max = q_c is decided
    exactly: q_c > 0 is stable iff `SchemeSpec.closed`.  Past q_c a draw is
    unstable where the limit is closed or q_c = 0, so `worst_case_verdict`
    may probe q_max there; an open q_c > 0 is unstable itself."""
    rng = random.Random(f"closed {scheme.value} {damped} {dispersive}")
    fixed = {} if damped else dict(delta=0)
    if not dispersive:
        fixed["eps_s_prime"] = 1
    for _ in range(12):
        params = _exact_params(rng, scheme, **fixed)
        q_c, closed = scheme.spec.stable_q(params), scheme.spec.closed(params)
        top = 2 * max(4, q_c) + 1
        walk = exact_walk(scheme, params, Fraction(0), top)
        assert walk.q_c == q_c, params
        if q_c > 0:
            assert walk.closed == closed, params
        if closed or q_c == 0:
            assert not exact_stable_at_q(scheme, params, _rational(rng, q_c, top)), params


def _agrees(scheme, params, q) -> bool:
    """Whether `classify_at_q` reads the exact referee's verdict and Schur
    class at q, at the exact parameters of the floats and q snapped as it
    snaps q."""
    verdict = analyzer.classify_at_q(scheme, params, q)
    exact, q_exact = fraction_params(params), decided_q(scheme, params, q)
    return ((verdict.stable, verdict.argument is Argument.THEOREM_SCHUR)
            == (exact_stable_at_q(scheme, exact, q_exact), exact_schur_at_q(scheme, exact, q_exact)))


@pytest.mark.parametrize("scheme,damped,dispersive", CLASSES,
                         ids=lambda v: getattr(v, "value", None) or str(v).lower())
def test_classify_at_q_reads_the_exact_referee(scheme, damped, dispersive):
    """Seeded float draws of every class, four of them with delta below
    1e-4 in damped classes, probed at 0, the float candidates (2, 4, q_-1,
    the degenerate q) and each of them 1e-13 above and below, the
    neighbouring doubles of 0, 2 and 4, q 2e-9 and 1e-8 away from 0, 2 and
    4, a q within the snap window of the degenerate q and four uniform q:
    `classify_at_q` reads the exact referee's verdict and Schur label at
    every probe."""
    rng = random.Random(f"fallback {scheme.value} {damped} {dispersive}")
    edges = [math.nextafter(0.0, 1.0)] + [math.nextafter(c, d) for c in (2.0, 4.0)
                                          for d in (0.0, 8.0)]
    edges += [c + s for c in (0.0, 2.0, 4.0) for s in (-2e-9, 2e-9, -1e-8, 1e-8)]
    for j in range(16):
        delta = rng.uniform(1e-3, 2.0) if j < 12 else 10.0 ** rng.uniform(-10.0, -4.0)
        params = DimensionlessParams(
            1.0, delta if damped else 0.0,
            1.0 + rng.uniform(1e-3, 40.0) if dispersive else 1.0,
            rng.uniform(1e-3, 3.0) if scheme.kind == "lorentz" else None)
        cands = [c for c in _candidates(scheme, params) if c is not None and c >= 0]
        near = [c + rng.uniform(-5e-10, 5e-10) for c in cands[3:]]
        nudged = [c + s for c in cands for s in (-1e-13, 1e-13)]
        uniform = [rng.uniform(0.0, 6.0) for _ in range(4)]
        for q in [0.0, *cands, *near, *edges, *nudged, *uniform]:
            assert _agrees(scheme, params, max(q, 0.0)), (params, q)


def test_classify_at_q_reads_the_exact_referee_on_the_verify_plan():
    """Every verify point, at its own Courant quantity: `classify_at_q`
    reads the exact referee's verdict."""
    for pt in build_verify_plan():
        params = dimensionless_params(pt.medium, pt.k, pt.h)
        xi_y = None if pt.polarization is None else 2.0 * math.pi * pt.m_y / pt.grid
        q = courant_q(params, Wavenumber(2.0 * math.pi * pt.m_x / pt.grid, xi_y,
                                         h_x=pt.h, h_y=pt.h))
        assert _agrees(pt.scheme, params, q), pt
