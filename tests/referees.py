"""Referees of the tests: independent routes to facts the package computes.

None of these is called by the package itself.  Each gives the tests a
second opinion built another way.  A package `Polynomial` holds exact
coefficients only, so the referees that work in floats or complex numbers
keep them in their own tuples and arrays: polynomials from known roots,
root profiles from companion eigenvalues, the physical per-wavenumber update
matrix and its characteristic polynomial det(Z I - G) (from eigenvalues,
or exactly for a matrix of Fractions), and the grid's own
Fourier amplitudes and per-mode update matrices measured from `step`,
the one leapfrog cycle of which a growth run is a loop (the simulator's
bound calls, run once into a fresh state);
also the walks over the theorem's breakpoints, in floats and exact, that
`SchemeSpec.stable_q` and `SchemeSpec.closed` state in closed form, the
plain bisection for the stability boundary on their worst-case verdicts,
the single reduction step of the root-location recursion, and
the theorem behind the walk's breakpoints as data: the factored resultant
of each scheme's polynomial and its reversal, and the sets where that
resultant vanishes in q, with exact resultants, gcds and discriminants to
check them; also the exact parameters and q at which `classify_at_q`
decides, and exact products of float factors with known roots.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple, Sequence

import numpy as np

from fdtd_stability import (
    DimensionlessParams,
    FieldState,
    InvalidInputError,
    MediumModel,
    NumericalFailureError,
    Polynomial,
    Scheme,
    Wavenumber,
    char_poly_closed,
    courant_q,
    dimensionless_params,
    init_plane_wave,
    tm_factor_2d,
)
from fdtd_stability import analyzer
from fdtd_stability.polyloc import _reduce, poly_roots
from fdtd_stability.schemes import _check_scheme_params
from fdtd_stability.simulator import _bind, _scratch

# Two roots closer than this are treated as one root of higher multiplicity
# (companion eigenvalues of an m-fold root scatter like eps**(1/m)).
ROOT_CLUSTER_TOL = 1e-7


# --- polynomials ---------------------------------------------------------------

def from_roots(roots: Sequence[complex], leading: complex = 1.0) -> np.ndarray:
    """Ascending complex coefficients of ``leading * prod (z - r)``."""
    coeffs = np.array([leading], dtype=complex)
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0], dtype=complex))
    return coeffs


def exact_product(factors: Sequence[Sequence[float]], leading: float = 1.0) -> Polynomial:
    """leading times the product of real factors given by ascending float
    coefficients, multiplied exactly: a `Fraction` polynomial whose roots
    are exactly those of its factors.  A real root r is the factor [-r, 1],
    a conjugate pair r e^(+-i t) the factor [r^2, -2 r cos t, 1].  Each
    factor is read as integers over one power of two, the lcm of its
    doubles' denominators, and the product runs in integers."""
    out, den = [1], 1
    for f in [[leading], *factors]:
        ratios = [Fraction(x).as_integer_ratio() for x in f]
        d = math.lcm(*(m for _, m in ratios))
        prod = [0] * (len(out) + len(f) - 1)
        for i, x in enumerate(out):
            for j, (n, m) in enumerate(ratios):
                prod[i + j] += x * n * (d // m)
        out, den = prod, den * d
    return Polynomial([Fraction(c, den) for c in out])


def root_factors(rng: np.random.Generator, radii: Sequence[float],
                 pairs: int) -> list[list[float]]:
    """Real factors with roots of the given moduli: the first `pairs` radii
    as conjugate pairs at seeded angles, the others as real roots of seeded
    sign."""
    factors = []
    for k, r in enumerate(map(float, radii)):
        if k < pairs:
            t = 2.0 * math.pi * float(rng.random())
            factors.append([r * r, -2.0 * r * math.cos(t), 1.0])
        else:
            factors.append([r if rng.random() < 0.5 else -r, 1.0])
    return factors


def greedy_clusters(values: Sequence[complex], tol: float) -> list[tuple[complex, int]]:
    """Group values into (mean, size) clusters: each cluster takes the first
    value not yet grouped and every later one within tol of it."""
    remaining = list(values)
    out: list[tuple[complex, int]] = []
    while remaining:
        seed, *rest = remaining
        members = [seed]
        remaining = []
        for v in rest:
            (members if abs(v - seed) <= tol else remaining).append(v)
        out.append((sum(members) / len(members), len(members)))
    return out


def _nonzero(c: Sequence) -> tuple:
    """Ascending coefficients without their trailing zeros, refusing the
    zero polynomial."""
    c = tuple(c)
    while c and c[-1] == 0:
        c = c[:-1]
    if not c:
        raise InvalidInputError("operation is undefined for the zero polynomial")
    return c


def reduce_step(c: Sequence) -> tuple:
    """One degree-lowering step of the reduction recursion on real ascending
    coefficients, in their own arithmetic (exact for Fractions and ints).
    The result has degree strictly below that of ``c``, or is the zero
    polynomial ``()`` (returned as a value: the von Neumann test needs it)."""
    return tuple(_reduce(_nonzero(c)))


def monic(c: Sequence) -> np.ndarray:
    """Ascending coefficients divided by the leading one, as complex floats
    (an int or `Fraction` quotient rounds once)."""
    c = _nonzero(c)
    return np.array([x / c[-1] for x in c], dtype=complex)


def scaled(p: Polynomial, factor: int | Fraction) -> Polynomial:
    return Polynomial(tuple(factor * c for c in p.coeffs))


def conjugate_poly(c: Sequence[complex]) -> tuple:
    """Reversed complex-conjugate coefficients: coefficient j becomes
    conj(c[d-j]), without trailing zeros."""
    return _nonzero(x.conjugate() for x in reversed(_nonzero(c)))


@dataclass(frozen=True)
class RootProfile:
    """Counts of roots strictly inside / outside the unit circle, plus the
    on-circle roots grouped by multiplicity."""

    inside_count: int
    outside_count: int
    on_circle: tuple[tuple[complex, int], ...]
    circle_tolerance: float

    @property
    def circle_count(self) -> int:
        return sum(mult for _, mult in self.on_circle)


def root_profile(c: Sequence, circle_tolerance: float = 1e-9) -> RootProfile:
    """Classify all roots of the ascending coefficients c (any numbers) by
    companion-matrix eigenvalues, in complex floats.

    Roots with | |r| - 1 | <= circle_tolerance count as on-circle and are
    clustered into multiplicity groups; the rest are strictly inside or
    outside.
    """
    if circle_tolerance <= 0:
        raise InvalidInputError("circle_tolerance must be positive")
    roots = np.roots(np.array(_nonzero(c)[::-1], dtype=complex))
    mods = np.abs(roots)
    on = np.abs(mods - 1.0) <= circle_tolerance
    return RootProfile(int(np.sum(~on & (mods < 1.0))), int(np.sum(~on & (mods > 1.0))),
                       tuple(greedy_clusters(list(roots[on]), ROOT_CLUSTER_TOL)),
                       circle_tolerance)


# --- scheme matrices -------------------------------------------------------------

def amplification_matrix(scheme: Scheme, params: DimensionlessParams,
                         wn: Wavenumber) -> np.ndarray:
    """The physical one-dimensional amplification matrix at wavenumber xi_x,
    with the couplings u = lam (e^{i xi} - 1) and v = lam (1 - e^{-i xi}) of
    the staggered differences (u v = -q)."""
    _check_scheme_params(scheme, params)
    if wn.is_2d:
        raise InvalidInputError("amplification matrices are built in 1D only")
    phase = complex(math.cos(wn.xi_x), math.sin(wn.xi_x))
    u = params.lam * (phase - 1.0)
    v = params.lam * (1.0 - 1.0 / phase) if wn.xi_x != 0.0 else 0.0j
    return np.array(scheme.spec.entries(params, u, v, courant_q(params, wn)), dtype=complex)


def char_poly_from_matrix(G: np.ndarray) -> np.ndarray:
    """Ascending complex coefficients of the monic characteristic polynomial
    det(Z I - G), computed from the eigenvalues; the independent
    cross-check for char_poly_closed."""
    m = np.asarray(G, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError("characteristic polynomial requires a square matrix")
    return np.poly(m)[::-1]


def char_poly_exact(G: Sequence[Sequence[Fraction]]) -> list[Fraction]:
    """Ascending coefficients of the monic det(Z I - G) of a square matrix
    of Fractions, by the Faddeev-LeVerrier recursion M_k = G M_(k-1) +
    c_(n-k+1) I, c_(n-k) = -tr(G M_k) / k: exact, and built without
    eigenvalues or the closed forms."""
    n = len(G)
    desc = [Fraction(1)]
    M = [[Fraction(0)] * n for _ in range(n)]
    for k in range(1, n + 1):
        M = [[sum(G[i][l] * M[l][j] for l in range(n)) + (desc[-1] if i == j else 0)
              for j in range(n)] for i in range(n)]
        desc.append(-sum(G[i][l] * M[l][i] for i in range(n) for l in range(n)) / k)
    return desc[::-1]


def factor_roots_2d(scheme: Scheme, params: DimensionlessParams, wn: Wavenumber,
                    polarization: str) -> np.ndarray:
    """Roots of the 2D characteristic polynomial (Z - 1) [psi] phi(q_x + q_y),
    taken factor by factor: 1, the roots of phi and, in TM, those of psi."""
    roots = [np.ones(1), poly_roots(char_poly_closed(scheme, params, courant_q(params, wn)))]
    if polarization == "tm":
        roots.append(poly_roots(tm_factor_2d(scheme, params)))
    return np.concatenate(roots)


# --- the walks over the theorem's breakpoints -----------------------------------
#
# Between two of the breakpoints {0, 2, 4, q_-1, degenerate q} no root of p_q meets
# the unit circle (see RESULTANTS below), so one midpoint decides each open
# interval.  A walk classifies the breakpoints of a q range and one midpoint per
# interval, ascending, up to the first unstable probe: the float referee with
# `classify_at_q`, the exact one with `exact_stable_at_q`.  `SchemeSpec.stable_q`
# and `SchemeSpec.closed` state the same result in closed form.

class Walk(NamedTuple):
    """A walk's outcome: whether every probe was stable, and where the
    stable q-range found ends, q_c, with closed telling whether q_c itself
    is stable (an unstable midpoint follows a stable breakpoint) or not (an
    unstable breakpoint).  q_c is the top, closed, when every probe is
    stable."""

    stable: bool
    q_c: object
    closed: bool


def _walk_over(breaks: list, stable_at: Callable) -> Walk:
    probes = [(breaks[0], True)]
    for a, b in zip(breaks, breaks[1:]):
        probes += [((a + b) / 2, False), (b, True)]
    q_c = breaks[0]
    for q, at_break in probes:
        if not stable_at(q):
            return Walk(False, q if at_break else q_c, not at_break)
        q_c = q  # a midpoint always follows a breakpoint
    return Walk(True, q_c, True)


def _candidates(scheme: Scheme, params: DimensionlessParams) -> tuple[float | None, ...]:
    """The q besides 0 at which a root of p_q = a + q b can meet the unit
    circle or two roots collide on it, in floats: 2, 4, q_-1 = -a(-1)/b(-1)
    and the degenerate q (None where a scheme has none).  Up to a q-free
    factor, the resultant of p_q and its reversal is q^3 times powers of
    q - 2, q - 4 or the linear factor whose root is q_-1.  Where the q-free
    factor vanishes (eps_s = eps_inf or delta = 0), roots still collide on
    the circle only at 0 or these q, the degenerate q only where delta = 0
    and eps_s = eps_inf both hold."""
    a, b = (np.asarray(c, dtype=float)[::-1] for c in scheme.spec.char_poly(params))
    b_m1 = np.polyval(b, -1.0)
    q_m1 = float(-np.polyval(a, -1.0) / b_m1) if b_m1 != 0 else None
    q_of_omega = scheme.spec.degenerate_q
    q_deg = q_of_omega(params.omega) if q_of_omega and params.omega else None
    return 2.0, 4.0, q_m1, q_deg


def _walk(scheme: Scheme, params: DimensionlessParams, q_lo: float, q_hi: float) -> Walk:
    """The float walk of [q_lo, q_hi], its probes by `analyzer.classify_at_q`."""
    # Relative whisker: a q_hi a few ulps below a candidate still probes it.
    breaks = sorted({s for s in (q_lo, q_hi) + _candidates(scheme, params)
                     if s is not None and q_lo <= s <= q_hi * (1.0 + 1e-9)})
    return _walk_over(breaks, lambda q: analyzer.classify_at_q(scheme, params, q).stable)


def exact_candidates(scheme: Scheme, params: DimensionlessParams) -> tuple:
    """`_candidates` for `Fraction` parameters, exact: 2, 4, q_-1 and the
    degenerate q."""
    a, b = scheme.spec.char_poly(params)
    b_m1 = sum(c * (-1) ** j for j, c in enumerate(b))
    q_m1 = -sum(c * (-1) ** j for j, c in enumerate(a)) / b_m1 if b_m1 else None
    q_of_omega = scheme.spec.degenerate_q
    q_deg = q_of_omega(params.omega) if q_of_omega and params.omega else None
    return Fraction(2), Fraction(4), q_m1, q_deg


def _integral(xs: Sequence[Fraction]) -> list[int]:
    """xs times the lcm of their denominators: integers, in proportion."""
    lcm = math.lcm(*(Fraction(x).denominator for x in xs))
    return [int(x * lcm) for x in xs]


def _matmul(A: list, B: list) -> list:
    n = len(A)
    return [[sum(A[i][l] * B[l][j] for l in range(n)) for j in range(n)] for i in range(n)]


def _matrix_poly(c: Sequence[int], G: list, scale: int) -> list:
    """scale^d c(G / scale), c of degree d with integer coefficients and G
    an integer matrix, by Horner's rule: sum of c_j scale^(d-j) G^j."""
    n = len(G)
    M = [[0] * n for _ in range(n)]
    for t, coef in enumerate(reversed(c)):
        M = _matmul(M, G)
        for i in range(n):
            M[i][i] += coef * scale ** t
    return M


def integer_location(c: Sequence[int]) -> tuple[bool, bool]:
    """(simple von Neumann, Schur) of the real polynomial with integer
    ascending coefficients c, by the conjugate-reduction recursion in exact
    integer arithmetic, independent of `polyloc`: each level reduces c to
    c_d c_(j+1) - c_0 c_(d-1-j) and divides out its content; |c_0| < |c_d|
    continues, anything else with a nonzero reduction has a root outside.
    A vanishing reduction hands over to the derivative, which must then be
    Schur (every level strict, the degree dropping by one)."""
    c = list(c)
    vanished, schur = False, True
    while len(c) > 1:
        d = len(c) - 1
        rel = (abs(c[0]) > abs(c[d])) - (abs(c[0]) < abs(c[d]))
        nxt = ([c[d] * c[j + 1] - c[0] * c[d - 1 - j] for j in range(d)]
               if rel < 0 or not vanished else [])
        while nxt and nxt[-1] == 0:
            nxt.pop()
        schur = schur and rel < 0 and len(nxt) == d
        if vanished and not schur:
            break
        if not nxt:
            vanished, schur = True, True
            nxt = [j * x for j, x in enumerate(c)][1:]
        elif rel >= 0:
            return False, False
        content = math.gcd(*nxt)
        c = [x // content for x in nxt]
    return (schur, False) if vanished else (True, schur)


@functools.lru_cache(maxsize=16)
def _integer_pair(scheme: Scheme, params: DimensionlessParams) -> tuple[list[int], list[int]]:
    """`spec.char_poly` at `Fraction` parameters, both lists scaled to
    integers by one common factor: a walk's probes then build p_q from
    integers only."""
    a, b = scheme.spec.char_poly(params)
    ab = _integral([*a, *b])
    return ab[:len(a)], ab[len(a):]


def _integer_p(scheme: Scheme, params: DimensionlessParams, q: Fraction) -> list[int]:
    """p_q from `_integer_pair`, times q's denominator: integers."""
    a, b = _integer_pair(scheme, params)
    return [q.denominator * x + q.numerator * y for x, y in zip(a, b)]


def exact_stable_at_q(scheme: Scheme, params: DimensionlessParams, q: Fraction) -> bool:
    """Whether the update matrix at Courant quantity q has bounded powers,
    in exact arithmetic for `Fraction` parameters and q.  The exact
    recursion (`integer_location`) decides where p_q is simple von Neumann.
    Elsewhere, with u =
    gcd(p, p*), w = p/u and r the squarefree part of u: u holds every root
    on the circle (a real p has them in p* as often as in p) and every pair
    z, 1/z off it, so the powers are bounded iff w is Schur, r has all its
    roots on the circle (simple von Neumann), and the unit eigenvalues are
    semisimple: r(G) w(G)^n = 0 for the n x n matrix G.  G is `spec.entries`
    at u = q, v = -1, similar to the physical matrix for q > 0 (diagonal
    scaling of sqrt(q), -sqrt(q)), and at u = v = 0 for q = 0.  The gcds
    and quotients stay in integers (`_primitive_gcd`, `_exact_quotient`)."""
    q = Fraction(q)
    p = _integer_p(scheme, params, q)
    if integer_location(p)[0]:
        return True
    u = _primitive_gcd(p, p[::-1])
    if len(u) == 1:
        return False  # no root on the circle: one lies outside
    w = _exact_quotient(p, u)
    r = _exact_quotient(u, _primitive_gcd(u, [j * c for j, c in enumerate(u)][1:]))
    if not (integer_location(w)[1] and integer_location(r)[0]):
        return False
    u_c, v_c = (q, Fraction(-1)) if q else (Fraction(0), Fraction(0))
    rows = scheme.spec.entries(params, u_c, v_c, q)
    scale = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    G = [[int(Fraction(x) * scale) for x in row] for row in rows]
    M = _matrix_poly(r, G, scale)
    W = _matrix_poly(w, G, scale)
    for _ in G:
        M = _matmul(M, W)
    return not any(x for row in M for x in row)


def exact_schur_at_q(scheme: Scheme, params: DimensionlessParams, q: Fraction) -> bool:
    """Whether every root of p_q lies strictly inside the unit circle, for
    `Fraction` parameters and q, by `integer_location`."""
    return integer_location(_integer_p(scheme, params, Fraction(q)))[1]


def fraction_params(params: DimensionlessParams) -> DimensionlessParams:
    """The exact values of float parameters, as `Fraction`s."""
    return DimensionlessParams(*(None if x is None else Fraction(x) for x in (
        params.lam, params.delta, params.eps_s_prime, params.omega)))


def decided_q(scheme: Scheme, params: DimensionlessParams, q: float) -> Fraction:
    """The exact q at which `analyzer.classify_at_q` decides a float q: the
    exact degenerate q where q lies within RESONANCE_SNAP_TOL of the float
    one, else Fraction(q)."""
    q_of_omega = scheme.spec.degenerate_q
    q_deg = q_of_omega(params.omega) if q_of_omega and params.omega else None
    if q_deg is not None and abs(q - q_deg) <= analyzer.RESONANCE_SNAP_TOL:
        return q_of_omega(Fraction(params.omega))
    return Fraction(q)


def exact_walk(scheme: Scheme, params: DimensionlessParams, q_lo, q_hi) -> Walk:
    """The exact walk of [q_lo, q_hi] for `Fraction` parameters and ends,
    its probes by `exact_stable_at_q`."""
    breaks = sorted({Fraction(s) for s in (q_lo, q_hi) + exact_candidates(scheme, params)
                     if s is not None and q_lo <= s <= q_hi})
    return _walk_over(breaks, lambda q: exact_stable_at_q(scheme, params, q))


def exact_params(medium: MediumModel, k: float, h: float) -> DimensionlessParams:
    """The dimensionless parameters of float steps k and h, exact."""
    return dimensionless_params(medium, Fraction(k), Fraction(h))


def exact_q_max(params: DimensionlessParams, h: float, h_y: float | None) -> Fraction:
    return analyzer._q_max(params, Fraction(h), None if h_y is None else Fraction(h_y))


def walk_verdict(scheme: Scheme, medium: MediumModel, k: float, h: float,
                 h_y: float | None = None) -> bool:
    """The worst-case verdict by the exact walk of [0, q_max], from
    Fraction(k) and Fraction(h)."""
    params = exact_params(medium, k, h)
    return exact_walk(scheme, params, Fraction(0), exact_q_max(params, h, h_y)).stable


def branch_switch_k(scheme: Scheme, medium: MediumModel) -> Fraction | None:
    """Exact time step where the stable q-range jumps within a medium:
    Debye-Young at delta = 1 with eps_s > eps_inf, Lorentz-Young at
    omega = 2 with eps_s = eps_inf."""
    if scheme is Scheme.DEBYE_YOUNG and medium.eps_s > medium.eps_inf:
        return 2 * Fraction(medium.t_r)
    if scheme is Scheme.LORENTZ_YOUNG and medium.eps_s == medium.eps_inf:
        return 2 / Fraction(medium.omega1)
    return None


def plain_bisection_boundary(scheme: Scheme, medium: MediumModel, h: float,
                             h_y: float | None = None) -> analyzer.BoundaryResult:
    """`stability_boundary_k` by plain bisection on the exact `walk_verdict`,
    with the search's bracket and resolution.  attained: where
    a jump of the stable q-range (`branch_switch_k`) lies in the final
    interval (lo, hi] and the exact walk reads it stable, it is k* itself,
    attained; else the walk at lo's parameters from q_max(lo) upwards tells
    whether the q-range q_max meets is closed (an unstable midpoint) or open
    (an unstable breakpoint)."""
    if not (h > 0 and math.isfinite(h)):
        raise InvalidInputError("space step h must be positive and finite")

    def stable_at(k: float) -> bool:
        return walk_verdict(scheme, medium, k, h, h_y)

    hi = 2.0 * h / medium.c_inf
    if stable_at(hi):
        raise NumericalFailureError(
            "no instability found up to 2h/c_inf; cannot bracket a boundary")
    lo = 1e-6 * hi
    if not stable_at(lo):
        lowest = min([lo] + [p for p in (lo / 10.0, lo / 100.0) if not stable_at(p)])
        return analyzer.BoundaryResult(None, None, True, lowest,
                                       "unstable at the bottom of the bracket "
                                       "(resonant regime; no upper boundary in k)")
    while hi - lo > analyzer.BOUNDARY_REL_RESOLUTION * hi:
        mid = 0.5 * (lo + hi)
        if stable_at(mid):
            lo = mid
        else:
            hi = mid
    k_sw = branch_switch_k(scheme, medium)
    if k_sw is not None and lo < k_sw <= hi and stable_at(k_sw):
        attained = True
    else:
        p_lo = exact_params(medium, lo, h)
        top = 2 * max(4, exact_q_max(exact_params(medium, hi, h), h, h_y)) + 1
        attained = exact_walk(scheme, p_lo, exact_q_max(p_lo, h, h_y), top).closed
    return analyzer.BoundaryResult(lo, attained, False, None,
                                   f"bisection converged to [{lo:.9e}, {hi:.9e}]")


# --- the theorem's breakpoints ----------------------------------------------------
#
# p_q = a + q b with (a, b) = `SchemeSpec.char_poly` at (delta, eps_s', omega), and
# p_q*(z) = z^d p_q(1/z) its reversal.  A root of p_q meets the unit circle only
# where R(q) = res_z(p_q, p_q*) = 0, since a unit root z is also a root of p_q*.
# Each formula below is R(q) up to sign, factored, with integer coefficients in
# (d, e, w, q) = (delta, eps_s', omega, q).  Their zeros in q > 0 are 2, 4 and
# q_-1 = -a(-1)/b(-1): 4 for Debye-Joseph and Lorentz-Kashiwa, the root of the
# last factor for the others.

RESULTANTS: dict[Scheme, Callable] = {
    Scheme.DEBYE_JOSEPH:
        lambda d, e, w, q: 16 * d**3 * (e - 1)**2 * q**3 * (q - 4),
    Scheme.DEBYE_YOUNG:
        lambda d, e, w, q: (16 * d**3 * (d - 1)**2 * (d + 1)**2 * (e - 1)**2
                            * q**3 * (q - 4 * (1 + d**2 * (e - 1)))),
    Scheme.LORENTZ_JOSEPH:
        lambda d, e, w, q: (64 * d**4 * w**3 * (e - 1)**2
                            * q**3 * (q - 2)**2 * ((2 + w) * q - 4 * (2 + w * e))),
    Scheme.LORENTZ_KASHIWA:
        lambda d, e, w, q: 32 * d**4 * w**3 * (e - 1)**2 * q**3 * (q - 4)**3,
    Scheme.LORENTZ_YOUNG:
        lambda d, e, w, q: (256 * d**4 * w**3 * (e - 1)**2
                            * q**3 * ((w - 2) * q + 4 * (2 - w * e))),
}


class DegenerateSet(NamedTuple):
    """A set on which the q-free factor of R vanishes, so that p_q and p_q*
    share the factor u = gcd(p_q, p_q*) for every q.  The rest r = p_q / u
    has res_z(r, r*) = rest, nonzero off the set's own zeros, so no root of
    r lies on the unit circle.  u is self-reciprocal: its roots come in
    pairs z, 1/z, and one leaves the circle only where two of them collide,
    at a zero of disc_z(u)."""

    param: str  # "delta" or "eps_s_prime", fixed at value
    value: int
    gcd: Callable  # (d, e, w, q) -> u by ascending powers of z
    disc: Callable  # (d, e, w, q) -> disc_z(u)
    rest: Callable  # (d, e, w) -> res_z(r, r*), up to sign


_EQUAL_EPS = ("eps_s_prime", 1, lambda d, e, w, q: (1, q - 2, 1),
              lambda d, e, w, q: q * (q - 4))
_DEBYE_UNDAMPED = DegenerateSet("delta", 0, lambda d, e, w, q: (-1, 3 - q, q - 3, 1),
                                lambda d, e, w, q: q**3 * (q - 4), lambda d, e, w: 1)

# The zeros of the discriminants in q are 0, 4, q_-1 (4 eps_s' for Debye-Young
# at delta = 1) and those of a squared quadratic, which has none for eps_s' > 1
# and at eps_s' = 1 the double zero `SchemeSpec.degenerate_q`: 2w/(1 + w),
# 2w/(1 + w/2) and 2w.
DEGENERATE_SETS: dict[Scheme, tuple[DegenerateSet, ...]] = {
    Scheme.DEBYE_JOSEPH: (DegenerateSet(*_EQUAL_EPS, lambda d, e, w: 4 * d), _DEBYE_UNDAMPED),
    Scheme.DEBYE_YOUNG: (
        DegenerateSet(*_EQUAL_EPS, lambda d, e, w: 4 * d), _DEBYE_UNDAMPED,
        DegenerateSet("delta", 1, lambda d, e, w, q: (2 * e, 2 * q - 4 * e, 2 * e),
                      lambda d, e, w, q: 4 * q * (q - 4 * e), lambda d, e, w: 1)),
    Scheme.LORENTZ_JOSEPH: (
        DegenerateSet(*_EQUAL_EPS, lambda d, e, w: 16 * d**2 * w * (w + 2)),
        DegenerateSet(
            "delta", 0,
            lambda d, e, w, q: (1 + w * e, (1 + w) * q - 4 - 2 * w * e,
                                6 + 2 * w * e - 2 * q, (1 + w) * q - 4 - 2 * w * e, 1 + w * e),
            lambda d, e, w, q: (-4 * w * q * ((2 + w) * q - 4 * (2 + w * e))
                                * (((1 + w) * q - 2 * w * e)**2 + 8 * w * e * q
                                   - 8 * w * q)**2),
            lambda d, e, w: 1)),
    Scheme.LORENTZ_KASHIWA: (
        DegenerateSet(*_EQUAL_EPS, lambda d, e, w: 32 * d**2 * w),
        DegenerateSet(
            "delta", 0,
            lambda d, e, w, q: (2 + w * e, (2 + w) * q - 8, 12 - 2 * w * e + 2 * (w - 2) * q,
                                (2 + w) * q - 8, 2 + w * e),
            lambda d, e, w, q: (-32 * w * q * (q - 4)
                                * (((2 + w) * q - 4 * w * e)**2 + 32 * w * e * q
                                   - 32 * w * q)**2),
            lambda d, e, w: 1)),
    Scheme.LORENTZ_YOUNG: (
        DegenerateSet(*_EQUAL_EPS, lambda d, e, w: 16 * d**2 * w * (w - 2)),
        DegenerateSet(
            "delta", 0,
            lambda d, e, w, q: (1, q - 4 + 2 * w * e, 6 - 4 * w * e + 2 * (w - 1) * q,
                                q - 4 + 2 * w * e, 1),
            lambda d, e, w, q: (4 * w * q * ((w - 2) * q + 4 * (2 - w * e))
                                * ((q + 2 * w * e)**2 - 8 * w * q)**2),
            lambda d, e, w: 1)),
}


def poly_q(scheme: Scheme, params: DimensionlessParams, q) -> list:
    """Ascending coefficients of p_q = a + q b in the arithmetic of the
    parameters and q: exact for Fractions, and for floats the float
    polynomial of the eigen cross-checks, rounded at every operation."""
    a, b = scheme.spec.char_poly(params)
    return [x + q * y for x, y in zip(a, b)]


def det_exact(rows: Sequence[Sequence[Fraction]]) -> Fraction:
    """Determinant of a square matrix of Fractions: each row scaled to
    integers, then fraction-free (Bareiss) elimination with row swaps."""
    scale = Fraction(1)
    m = []
    for row in rows:
        lcm = math.lcm(*(Fraction(x).denominator for x in row))
        scale *= lcm
        m.append([int(x * lcm) for x in row])
    n, sign, prev = len(m), 1, 1
    for k in range(n - 1):
        if m[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if m[i][k] != 0), None)
            if swap is None:
                return Fraction(0)
            m[k], m[swap], sign = m[swap], m[k], -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                m[i][j] = (m[i][j] * m[k][k] - m[i][k] * m[k][j]) // prev
        prev = m[k][k]
    return sign * Fraction(m[-1][-1] if n else 1) / scale


def resultant_exact(f: Sequence[Fraction], g: Sequence[Fraction]) -> Fraction:
    """res_z(f, g) of ascending coefficient lists, by the Sylvester
    determinant at their formal degrees len - 1.  For real f, f[::-1] is
    the reversal f*(z) = z^d f(1/z)."""
    m, n = len(f) - 1, len(g) - 1
    size = m + n
    rows = [[0] * i + list(f[::-1]) + [0] * (size - m - 1 - i) for i in range(n)]
    rows += [[0] * i + list(g[::-1]) + [0] * (size - n - 1 - i) for i in range(m)]
    return det_exact(rows)


def discriminant_exact(u: Sequence[Fraction]) -> Fraction:
    """disc_z(u) = (-1)^(n(n-1)/2) res_z(u, u') / lc(u), u of degree n."""
    n = len(u) - 1
    du = [j * c for j, c in enumerate(u)][1:]
    return (-1) ** (n * (n - 1) // 2) * resultant_exact(u, du) / u[-1]


def _trim(f: list) -> list:
    while f and f[-1] == 0:
        f.pop()
    return f


def _pseudo_divmod(f: list[int], g: list[int]) -> tuple[list[int], list[int]]:
    """(Q, R) with lc(g)^e f = Q g + R, e = max(deg f - deg g + 1, 0) and
    deg R < deg g: pseudo-division of integer ascending lists, g trimmed."""
    lc, n = g[-1], len(g)
    rem, quot = list(f), [0] * max(len(f) - n + 1, 0)
    for shift in range(len(f) - n, -1, -1):
        c = rem.pop()  # the top coefficient, cancelled by c z^shift g
        quot = [lc * x for x in quot]
        quot[shift] = c
        rem = [lc * x for x in rem]
        for j in range(n - 1):
            rem[shift + j] -= c * g[j]
    return quot, _trim(rem)


def _primitive(f: list[int]) -> list[int]:
    """Nonzero integer coefficients divided by their content, leading one
    positive."""
    g = math.gcd(*f)
    return [x // (g if f[-1] > 0 else -g) for x in f]


def _primitive_gcd(f: list[int], g: list[int]) -> list[int]:
    """The primitive gcd, leading coefficient positive, of two nonzero
    integer ascending lists: the primitive remainder sequence, each pseudo-
    remainder divided by its content."""
    f, g = _primitive(_trim(list(f))), _trim(list(g))
    while g:
        g = _primitive(g)
        f, g = g, _pseudo_divmod(f, g)[1]
    return f


def _exact_quotient(f: list[int], g: list[int]) -> list[int]:
    """f / g for integer lists f and a primitive g that divides f (the
    quotient is then integral, by Gauss's lemma)."""
    e = g[-1] ** max(len(f) - len(g) + 1, 0)
    return [x // e for x in _pseudo_divmod(f, g)[0]]


def divmod_exact(f: Sequence[Fraction], g: Sequence[Fraction]):
    """(quotient, remainder) of ascending coefficient lists, g nonzero, by
    pseudo-division of their integer multiples."""
    f, g = _trim([Fraction(x) for x in f]), _trim([Fraction(x) for x in g])
    sf, sg = (math.lcm(*(x.denominator for x in c)) for c in (f, g))
    quot, rem = _pseudo_divmod([int(x * sf) for x in f], [int(x * sg) for x in g])
    den = sf * int(g[-1] * sg) ** max(len(f) - len(g) + 1, 0)
    return _trim([Fraction(x * sg, den) for x in quot]), [Fraction(x, den) for x in rem]


def monic_gcd_exact(f: Sequence[Fraction], g: Sequence[Fraction]) -> list[Fraction]:
    """Monic gcd of two nonzero ascending coefficient lists, from the
    primitive remainder sequence of their integer multiples."""
    u = _primitive_gcd(_integral(f), _integral(g))
    return [Fraction(c, u[-1]) for c in u]


# --- grid measurements -----------------------------------------------------------

def step(scheme: Scheme, state: FieldState, params: DimensionlessParams) -> FieldState:
    """One full leapfrog cycle, periodic in every direction: the growth
    run's calls run once into a fresh state (a state stored in another
    memory order is first copied to C order)."""
    if state.scheme is not scheme:
        raise InvalidInputError("state was initialized for a different scheme")
    src = np.ascontiguousarray(state.data)
    out = np.empty_like(src)
    for call in _bind(scheme, state.polarization, params, state.h_ratio, src, out,
                      _scratch(scheme, state.grid_shape)):
        call()
    return FieldState(scheme, state.polarization, out, state.h_ratio)


def fourier_mode(state: FieldState, m: int) -> np.ndarray:
    """Complex amplitude of grid mode m for each state component, ordered
    like the scheme's update-matrix state vector (1D only)."""
    if state.polarization is not None:
        raise InvalidInputError("fourier_mode is defined for 1D states")
    return np.fft.fft(state.data, axis=1)[:, m] / state.grid_shape[0]


def mode_matrix_2d(scheme: Scheme, polarization: str, params: DimensionlessParams,
                   wn: Wavenumber, shape: tuple[int, int],
                   modes: tuple[int, int]) -> np.ndarray:
    """The per-mode update matrix of one `step` on a 2D grid: random
    complex slot amplitudes of the harmonic `modes`, stepped as a real and
    an imaginary part, with the FFT of every slot before and after."""
    rng = np.random.default_rng(7)
    n = len(init_plane_wave(scheme, shape, wn, 1.0, polarization).labels)
    jx, jy = np.indices(shape, sparse=True)
    wave = np.exp(1j * (wn.xi_x * jx + wn.xi_y * jy))
    def mode(data):
        return np.fft.fft2(data)[:, modes[0], modes[1]] / wave.size

    before, after = np.empty((n, n), complex), np.empty((n, n), complex)
    for col, amps in enumerate(rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))):
        data = amps[:, None, None] * wave
        re, im = (step(scheme, FieldState(scheme, polarization, part, wn.h_x / wn.h_y),
                       params).data for part in (data.real, data.imag))
        before[:, col], after[:, col] = mode(data), mode(re + 1j * im)
    return after @ np.linalg.inv(before)
