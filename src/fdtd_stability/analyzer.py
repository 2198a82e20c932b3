"""Stability classification of the FD-TD schemes.

A point (scheme, parameters, wavenumber) is stable when the update matrix
has bounded powers.  Verdicts flip where a root of the characteristic
polynomial p meets the unit circle, which floats cannot see, so every
per-q verdict is decided and labelled in exact arithmetic, with
RESONANCE_SNAP_TOL as its one tolerance:

1. q is read exactly: a `Fraction` as given, a double as its own value, or,
   within RESONANCE_SNAP_TOL of a Lorentz scheme's degenerate q (two
   conjugate root couples colliding on the circle), as that q's exact
   value.  The recursion runs on the exact p_q of the parameters, doubles
   read as the rationals they are (`char_poly_closed` at a `Fraction` q).
   Simple von Neumann there is stable: Schur, sub-polynomial (a root
   exactly at 0, 1, -1 or +-i) or von Neumann.  Else, unless the reduction
   vanished, a root lies outside the circle: exponential growth.
2. Where it vanishes, the vanishing level is u = gcd(p, p*) in integers:
   it holds every root on the circle, and p / u is Schur.  The powers are
   bounded iff the squarefree part r of u is simple von Neumann and the
   unit eigenvalues are semisimple: rank r(G) = n - deg u for the n x n
   update matrix G scaled to integers, since dim ker r(G) sums their
   geometric multiplicities and deg u their algebraic ones.  A defective
   one grows linearly.

Worst-case verdicts over all wavenumbers are exact, not sampled: the
characteristic polynomial p_q = a + q b is affine in the Courant quantity
q, and the resultant of p_q and its reversal factors in closed form for
every scheme.  So a root can meet the unit circle, or two roots collide
on it, only at q in {0, 2, 4, q_-1 = -a(-1)/b(-1), the degenerate q}, and
each scheme's stable q-range [0, q_c) or [0, q_c] follows in closed form
(`SchemeSpec.stable_q`, and `SchemeSpec.closed` for whether q_c itself is
stable; both are checked against an exact walk over those breakpoints in
the tests).  A grid is stable iff q_max < q_c, or q_max = q_c and the
limit is closed, with near-ties decided in exact rationals.  That decides
`worst_case_verdict` and every bisection step of `stability_boundary_k`;
one `classify_at_q` probe at the deciding q labels each verdict.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import InvalidInputError, NumericalFailureError
from .polyloc import LocationResult, Polynomial, _cleared, is_simple_von_neumann
from .schemes import (
    DimensionlessParams,
    MediumModel,
    Scheme,
    Wavenumber,
    char_poly_closed,
    courant_q,
    dimensionless_params,
)

# |q - q_degenerate| below this snaps classification onto the exact value:
# the float degenerate q is one rounding off it, and a q computed from
# physical steps several more.
RESONANCE_SNAP_TOL = 1e-9

BOUNDARY_REL_RESOLUTION = 1e-4
# q_max this close to q_c, relative, is compared with q_c again exactly.
TIE_REL_TOL = 1e-12


class Argument(enum.Enum):
    """Which test decided a verdict."""

    THEOREM_SCHUR = "schur"
    THEOREM_VON_NEUMANN = "von-neumann"
    SUB_POLYNOMIAL = "sub-polynomial"
    G_FORM = "g-form"
    EIGENVECTORS = "eigenvectors"


@dataclass(frozen=True)
class StabilityVerdict:
    stable: bool
    argument: Argument
    detail: str


_SCHUR = StabilityVerdict(True, Argument.THEOREM_SCHUR, "all roots strictly inside the unit circle")


@dataclass(frozen=True)
class BoundaryResult:
    """Outcome of the largest-stable-time-step search.  attained: k* itself
    is stable (True, a closed condition) or not (False, an open one), None
    where there is no k*.  non_monotone and lowest_unstable_k: the bottom of
    the bracket is already unstable (resonant media)."""

    k_star: float | None
    attained: bool | None
    non_monotone: bool
    lowest_unstable_k: float | None
    detail: str


@dataclass(frozen=True)
class TableRow:
    """One stability regime of a scheme, with the computed verdict."""

    scheme: Scheme
    regime: str
    expected_stable: bool
    verdict: StabilityVerdict
    point: str
    ok: bool
    note: str = ""


def _special_root(poly: Polynomial) -> bool:
    """Whether an exact real polynomial vanishes at 0, 1, -1 or +-i (the
    factored-out eigenvalues of sub-polynomial proofs), exactly: with s_r
    the sum of its cleared c_j over j = r mod 4, p(+-1) = s_0 +- s_1 + s_2
    +- s_3 and p(i) = s_0 - s_2 + i (s_1 - s_3)."""
    c = _cleared(poly.coeffs)
    s0, s1, s2, s3 = (sum(c[r::4]) for r in range(4))
    return 0 in (c[0], s0 + s1 + s2 + s3, s0 - s1 + s2 - s3) or (s0 == s2 and s1 == s3)


def classify_at_q(scheme: Scheme, params: DimensionlessParams, q: float) -> StabilityVerdict:
    """Stability verdict of a scheme at an exact Courant quantity q (steps
    1 and 2 of the module docstring): a `Fraction` q as given, a float q as
    the double's own value or the exact degenerate q it snaps onto."""
    if q < 0 or type(q) is not Fraction and not math.isfinite(q):
        raise InvalidInputError("q must be nonnegative and finite")
    # A float q snaps wherever the scheme has a degenerate q; away from the
    # degenerate regime the exact decision at the snapped q is the same.
    q_of_omega = None if type(q) is Fraction else scheme.spec.degenerate_q
    snap = (q_of_omega and params.omega
            and abs(q - q_of_omega(params.omega)) <= RESONANCE_SNAP_TOL)
    q = q_of_omega(Fraction(params.omega)) if snap else Fraction(q)
    poly = char_poly_closed(scheme, params, q)
    svn = is_simple_von_neumann(poly)
    if not svn.ok:
        return _non_svn_verdict(scheme, params, q, svn)
    if svn.schur:
        return _SCHUR
    if _special_root(poly):
        return StabilityVerdict(
            True, Argument.SUB_POLYNOMIAL,
            "simple von Neumann; special unit-circle or zero roots factored out")
    return StabilityVerdict(True, Argument.THEOREM_VON_NEUMANN,
                            "simple von Neumann: simple roots on the circle")


def _non_svn_verdict(scheme: Scheme, params: DimensionlessParams, q: Fraction,
                     svn: LocationResult) -> StabilityVerdict:
    """Verdict where the exact recursion reads p not simple von Neumann: a
    root outside unless its reduction vanished, else step 2 of the module
    docstring.  There p/u is Schur, since each level above the vanishing
    one is strict and removes one of its roots inside the circle, and u
    (`svn.vanished`) holds every pair z, 1/z off the circle as well as the
    unit roots.  r = u / gcd(u, u') comes from the primitive remainder
    sequence of u and u'.  G is `spec.entries` at u = q, v = -1 (similar to
    the physical matrix for q > 0), or at u = v = 0 for q = 0, on the exact
    parameters, and rank r(G) is taken by fraction-free elimination."""
    if not svn.vanished:
        return StabilityVerdict(False, Argument.THEOREM_VON_NEUMANN,
                                "root outside the unit circle, certified by the exact "
                                f"recursion at degree {svn.levels[-1].degree}")
    u = list(svn.vanished)
    f, g = u, [j * c for j, c in enumerate(u)][1:]
    while g:
        f, g = g, _pseudo_divmod(f, g)[1]
    r = _pseudo_divmod(u, f)[0]
    if not is_simple_von_neumann(Polynomial(r)).ok:
        return StabilityVerdict(False, Argument.THEOREM_VON_NEUMANN,
                                "root outside the unit circle (exact: gcd(p, p*) has "
                                "roots off the circle)")
    params = DimensionlessParams(*(None if x is None else Fraction(x) for x in (
        params.lam, params.delta, params.eps_s_prime, params.omega)))
    rows = scheme.spec.entries(params, *((q, Fraction(-1)) if q else (0, 0)), q)
    scale = math.lcm(*(Fraction(x).denominator for row in rows for x in row))
    G = [[int(Fraction(x) * scale) for x in row] for row in rows]
    n, M = len(G), [[0] * len(G) for _ in G]
    for t, coef in enumerate(reversed(r)):  # M = scale^deg r r(G / scale), by Horner
        M = [[sum(x * y for x, y in zip(row, col)) + (coef * scale ** t if i == j else 0)
              for j, col in enumerate(zip(*G))] for i, row in enumerate(M)]
    rank, M = 0, [row for row in M if any(row)]
    while M:
        pivot, *M = M
        j = next(j for j, x in enumerate(pivot) if x)
        M = [v for v in ([pivot[j] * x - row[j] * y for x, y in zip(row, pivot)] for row in M)
             if any(v)]
        rank += 1
    bound = n - len(u) + 1  # the rank where every unit eigenvalue is semisimple
    detail = (f"rank r(G) = {rank} {'=>'[rank > bound]} {n} - {len(u) - 1} = n - deg gcd(p, p*) "
              "for r = rad gcd(p, p*) = [" + ", ".join(f"{c / r[-1]:.6g}" for c in r) + "]")
    if rank > bound:
        return StabilityVerdict(False, Argument.EIGENVECTORS,
                                f"defective unit-circle eigenvalue (linear growth): {detail}")
    return StabilityVerdict(True, Argument.G_FORM,
                            f"repeated unit-circle eigenvalues are non-defective: {detail}")


def _pseudo_divmod(f: list, g: list) -> tuple[list, list]:
    """(Q, R) with lc(g)^e f = Q g + c R, e = max(len(f) - len(g) + 1, 0),
    for integer ascending lists f and g, g trimmed: deg R < deg g, and c is
    the remainder's content, so that R is primitive ([] where g divides f)."""
    rem, quot = list(f), []
    while len(rem) >= len(g):
        top = rem.pop()
        rem = [g[-1] * x for x in rem]
        for j, y in enumerate(g[:-1], len(rem) - len(g) + 1):
            rem[j] -= top * y
        quot = [top] + [g[-1] * x for x in quot]
    while rem and rem[-1] == 0:
        rem.pop()
    content = math.gcd(*rem) or 1
    return quot, [x // content for x in rem]


def classify_point(scheme: Scheme, params: DimensionlessParams,
                   wn: Wavenumber) -> StabilityVerdict:
    """Stability verdict at one wavenumber, 1D or 2D: `classify_at_q` at its
    Courant quantity, which sums the two directions in 2D.

    The 2D polynomial is (Z - 1) [psi] phi(q_x + q_y), with the TM factor psi
    and phi the 1D polynomial at the combined q; (Z - 1) is benign.  psi
    decides no verdict.  Where it is not simple von Neumann (Lorentz-Young
    with omega eps_s' >= 2, a root outside past 2), `SchemeSpec.stable_q` is
    0 and not closed, so phi, with phi(0) = (Z - 1)^2 psi, reads every grid
    unstable.  For the Joseph-style Lorentz scheme in a harmonic medium the
    unit-circle roots of psi could meet those of phi only at the degenerate
    q_res, and there only when eps_s = eps_inf: the resultant of psi and
    phi(q_res) is 16 w^4 (eps_s'-1)^2 (1 + w eps_s')^2 / (1 + w)^2, and phi
    alone is already unstable there.  For the other schemes a coincidence
    pairs decoupled blocks and is harmless.
    """
    return classify_at_q(scheme, params, courant_q(params, wn))


def classify_point_2d(scheme: Scheme, params: DimensionlessParams, wn: Wavenumber,
                      polarization: str) -> StabilityVerdict:
    """`classify_point` at a 2D wavenumber, refusing a 1D one and an unknown
    polarization; the polarization decides nothing."""
    if not wn.is_2d:
        raise InvalidInputError("classify_point_2d requires a 2D wavenumber")
    if polarization not in ("te", "tm"):
        raise InvalidInputError("polarization must be 'te' or 'tm'")
    return classify_point(scheme, params, wn)


def _q_max(params: DimensionlessParams, h: float, h_y: float | None) -> float:
    """Largest Courant quantity of the grid: 4 lam^2, plus 4 lam_y^2 on a 2D
    grid, that is when h_y is given; exact for `Fraction` inputs."""
    q_max = 4 * params.lam * params.lam
    if h_y is None:
        return q_max
    if not (h_y > 0 and math.isfinite(h_y)):
        raise InvalidInputError("space step h_y must be positive and finite")
    lam_y = params.lam * h / h_y
    return q_max + 4 * lam_y * lam_y


def _params(scheme: Scheme, medium: MediumModel, k: float, h: float) -> DimensionlessParams:
    if medium.kind != scheme.kind:
        raise InvalidInputError(f"{scheme.value} cannot run in a {medium.kind} medium")
    return dimensionless_params(medium, k, h)


def _theorem(scheme: Scheme, medium: MediumModel, k: float, h: float,
             h_y: float | None):
    """(params, q_max, q_c, sign of q_max - q_c, stable, exact) at physical
    steps: every wavenumber is stable iff q_max < q_c, or q_max = q_c and
    the limit is `SchemeSpec.closed`.  Where q_max lies within TIE_REL_TOL
    of q_c, the sign is taken again in exact rationals (`_exact_sign`), and
    exact holds the exact (params, q_max, q_c) it compared; else None."""
    spec = scheme.spec
    params = _params(scheme, medium, k, h)
    q_max, q_c = _q_max(params, h, h_y), spec.stable_q(params)
    sign, exact = (q_max > q_c) - (q_max < q_c), None
    if abs(q_max - q_c) <= TIE_REL_TOL * q_c:
        *exact, sign = _exact_sign(scheme, medium, k, h, h_y)
    return params, q_max, q_c, sign, sign < 0 or (sign == 0 and spec.closed(params)), exact


def _exact_sign(scheme: Scheme, medium: MediumModel, k, h: float, h_y: float | None):
    """(params, q_max, q_c, sign of q_max - q_c), all exact from
    Fraction(k), Fraction(h), Fraction(h_y) and the medium's fields."""
    params = dimensionless_params(medium, Fraction(k), Fraction(h))
    q_max = _q_max(params, Fraction(h), None if h_y is None else Fraction(h_y))
    q_c = scheme.spec.stable_q(params)
    return params, q_max, q_c, (q_max > q_c) - (q_max < q_c)


def worst_case_verdict(scheme: Scheme, medium: MediumModel, k: float, h: float,
                       h_y: float | None = None) -> StabilityVerdict:
    """Verdict over all wavenumbers at fixed physical steps, a given h_y
    making the grid 2D: the theorem's, from q_max, the scheme's stable
    q-range end q_c (`SchemeSpec.stable_q`) and whether that end is closed.
    The argument label comes from one `classify_at_q` probe at the q that
    decides the verdict: q_max, or, where q_max passes an open q_c > 0, q_c
    itself, the first unstable q.  At a tie, or at that q_c, the probe reads
    the exact parameters and q that the theorem compares; elsewhere the
    parameters' doubles at Fraction(q_max), which no snap moves.  The
    detail names q_max, q_c, the clause and the probe."""
    params, q_max, q_c, sign, stable, exact = _theorem(scheme, medium, k, h, h_y)
    if q_max == math.inf:
        raise InvalidInputError("q_max = 4 lam^2 overflows a double")
    closed = scheme.spec.closed(params)
    at_q_c = not (stable or closed) and q_c > 0
    if exact or at_q_c:
        params, *qs = exact or _exact_sign(scheme, medium, k, h, h_y)[:3]
        q = qs[at_q_c]
    else:
        q = Fraction(q_max)
    probe = classify_at_q(scheme, params, q)
    detail = (f"q_max={q_max:.12g} {'<=>'[sign + 1]} q_c={q_c:.12g}, "
              f"{'closed' if closed else 'open'} limit; probe at q={float(q):.12g}: {probe.detail}")
    return StabilityVerdict(stable, probe.argument, detail)


def _bisect(lo: float, hi: float, stable) -> tuple[float, float]:
    """Halve [lo, hi] until it is at most BOUNDARY_REL_RESOLUTION of hi
    wide, keeping each midpoint as lo where stable(midpoint) holds and as hi
    otherwise; the final interval."""
    while hi - lo > BOUNDARY_REL_RESOLUTION * hi:
        mid = 0.5 * (lo + hi)
        if stable(mid):
            lo = mid
        else:
            hi = mid
    return lo, hi


def stability_boundary_k(scheme: Scheme, medium: MediumModel, h: float,
                         h_y: float | None = None) -> BoundaryResult:
    """Largest stable time step between 0 and 2h/c_inf, by bisection on the
    theorem's verdict (`worst_case_verdict`) without a probe; a given h_y
    makes the grid 2D.

    The top, 2h/c_inf, must read unstable, else the search is refused; the
    bottom, 1e-6 of the top, must read stable, else the medium is resonant
    (non_monotone, with the lowest unstable k of the bottom and 10 and 100
    times below it).  The bisection runs from the bottom down to
    BOUNDARY_REL_RESOLUTION.  k* is the final interval's bottom.

    attained: k* is where q_max meets q_c, stable iff the limit is
    `SchemeSpec.closed` (constant along a branch of `stable_q`, so read at
    k*), or where an open q_c drops to 0 (`SchemeSpec.switch_k`).  Where a
    switch lies in the final interval, the theorem's predicate at its exact
    time step decides instead of an open limit.

    The one `classify_at_q` probe of a search is that of the worst-case
    verdict at k*, or at the lowest unstable k; its argument and detail end
    the result's detail.
    """
    if not (h > 0 and math.isfinite(h)):
        raise InvalidInputError("space step h must be positive and finite")

    def stable(k: float) -> bool:
        return _theorem(scheme, medium, k, h, h_y)[4]

    hi = 2.0 * h / medium.c_inf
    if stable(hi):
        raise NumericalFailureError(
            "no instability found up to 2h/c_inf; cannot bracket a boundary")
    lo = 1e-6 * hi
    if not stable(lo):
        lowest = min([lo] + [p for p in (lo / 10.0, lo / 100.0) if not stable(p)])
        verdict = worst_case_verdict(scheme, medium, lowest, h, h_y)
        return BoundaryResult(None, None, True, lowest,
                              "unstable at the bottom of the bracket "
                              "(resonant regime; no upper boundary in k); "
                              f"at the lowest {verdict.argument.value}: {verdict.detail}")
    lo, hi = _bisect(lo, hi, stable)
    spec = scheme.spec
    attained = spec.closed(_params(scheme, medium, lo, h))
    k_sw = spec.switch_k(medium) if spec.switch_k else None
    if not attained and k_sw is not None and lo < k_sw <= hi:
        params, _, _, sign = _exact_sign(scheme, medium, k_sw, h, h_y)
        attained = sign < 0 or (sign == 0 and spec.closed(params))
    verdict = worst_case_verdict(scheme, medium, lo, h, h_y)
    return BoundaryResult(lo, attained, False, None,
                          f"bisection converged to [{lo:.9e}, {hi:.9e}]; at its "
                          f"bottom {verdict.argument.value}: {verdict.detail}")


def reproduce_argument_table(scheme: Scheme) -> list[TableRow]:
    """Evaluate every reference regime of a scheme at its representative
    points; a row is ok when every computed verdict matches the expected
    one."""
    rows: list[TableRow] = []
    for regime in scheme.spec.regimes:
        for (delta, es, omega, q) in regime.points:
            # classify_at_q reads delta, eps_s', omega and q, not lam.
            params = DimensionlessParams(lam=1.0, delta=delta, eps_s_prime=es,
                                         omega=omega)
            verdict = classify_at_q(scheme, params, q)
            rows.append(TableRow(
                scheme=scheme,
                regime=regime.label,
                expected_stable=regime.expected_stable,
                verdict=verdict,
                point=f"delta={delta:g}, eps'={es:g}"
                      + (f", omega={omega:g}" if omega is not None else "")
                      + f", q={q:g}",
                ok=verdict.stable == regime.expected_stable,
                note=regime.note,
            ))
    return rows
