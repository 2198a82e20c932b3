"""Stability classification of the FD-TD schemes.

A point (scheme, parameters, wavenumber) is stable when the update matrix
has bounded powers.  The decision tree:

1. If the characteristic polynomial is simple von Neumann, powers are
   bounded.  All roots strictly inside gives the strongest verdict; the
   same recursion pass tells (`LocationResult.schur`).
2. Otherwise the eigenvalues of the update matrix are computed once.  One
   outside the unit circle means exponential growth.
3. Multiple roots on the circle leave the polynomial undecided: the verdict
   then comes from the matrix itself, by comparing geometric and algebraic
   multiplicities of the unit-modulus eigenvalues (the test of
   `gn_bounded`, fed the eigenvalues of step 2).  A defective eigenvalue
   produces linear growth of the powers, hence instability.

Near the degenerate Courant values of the Lorentz schemes (where two
conjugate root couples collide on the circle) floating-point roots are
unreliable, so the classification snaps onto the exact degenerate value and
takes the matrix route directly.

Worst-case verdicts over all wavenumbers are exact, not sampled: the
characteristic polynomial is affine in the Courant quantity q, so its roots
can meet the unit circle only at the boundary-locus crossings of
`polyloc.circle_crossings`.  Classifying those breakpoints (plus the range
ends, 2, 4 and the degenerate q) and one point between each two decides a
whole q range: [0, q_max] for a verdict, and for a stability boundary in
the time step the final bisection interval's range, to tell whether the
boundary is attained.  The boundary search predicts k* first, then checks
the bisection's own final interval around the prediction and bisects only
where the check fails: a walk that meets an unstable probe also tells
where its stable q-range ends, q_c.  Where q_c is one of a few candidates
(2, 4, q_-1 = -a(-1)/b(-1) or the degenerate q), that candidate's formula
gives q_c at other time steps with no walk, and the prediction solves
q_max(k) = q_c(k) along it.  Walks that only predict take the candidates
as their breakpoints and solve for no crossing; every verdict the result
depends on walks them all.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .polyloc import (
    Polynomial,
    circle_crossings,
    greedy_clusters,
    is_simple_von_neumann,
)
from .schemes import (
    DimensionlessParams,
    MediumModel,
    Scheme,
    Wavenumber,
    amplification_matrix_at_q,
    char_poly_closed,
    courant_q,
    dimensionless_params,
)

# Matrix eigenvalue modulus beyond 1 + OUT_EIG_TOL counts as outside;
# defective unit eigenvalues scatter ~1e-8, safely below this.
OUT_EIG_TOL = 1e-7
# Eigenvalues of the 3x3/4x4 matrices cluster at this scale.
EIG_CLUSTER_TOL = 1e-6
# Singular values below RANK_REL_TOL * sigma_max count as zero in the
# geometric-multiplicity rank test.
RANK_REL_TOL = 1e-8
# |q - q_degenerate| below this snaps classification onto the exact value.
RESONANCE_SNAP_TOL = 1e-9

BOUNDARY_REL_RESOLUTION = 1e-4
# Relative step in k^2 at which the boundary prediction counts as settled,
# and the relative offset of its two first steps around a parameter limit:
# above the offset of the float verdict there (Debye-Young in foam flips at
# delta = 1 + 4.7e-5, where OUT_EIG_TOL hides the growth).  The bracket that
# checks the prediction is the bisection's own final interval around it.
PREDICT_REL_TOL = 0.5 * BOUNDARY_REL_RESOLUTION
# Secant steps that the boundary prediction takes at most, each one walk or
# one candidate formula.
PREDICT_WALKS = 6


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


@dataclass(frozen=True)
class UnitEigenvalue:
    value: complex
    algebraic: int
    geometric: int


@dataclass(frozen=True)
class BoundednessReport:
    """Unit-circle eigenvalues with their multiplicities; powers of the
    matrix are bounded iff every one has geometric = algebraic."""

    unit_eigenvalues: tuple[UnitEigenvalue, ...]
    gn_bounded: bool


@dataclass(frozen=True)
class BoundaryResult:
    """Outcome of the largest-stable-time-step search.  attained: k* itself
    is stable (True, a closed condition) or not (False, an open one), None
    when the exact checks cannot tell.  non_monotone and lowest_unstable_k:
    the bottom of the bracket is already unstable (resonant media)."""

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


def gn_bounded(G: np.ndarray) -> BoundednessReport:
    """Decide boundedness of the matrix powers from the unit-circle
    eigenvalue multiplicities.

    Requires every eigenvalue modulus at most 1 + OUT_EIG_TOL, the bound
    beyond which `classify_at_q` calls an eigenvalue outside.  Geometric
    multiplicities come from a singular-value rank test on G - lambda I,
    with the zero threshold widened by the cluster spread so that two
    genuinely distinct eigenvalues grouped into one cluster are not
    mistaken for a defective pair.
    """
    m = np.asarray(G, dtype=complex)
    eigs = _eigvals(m)
    if np.max(np.abs(eigs)) > 1.0 + OUT_EIG_TOL:
        raise InvalidInputError(
            "gn_bounded requires all eigenvalue moduli at most 1 + OUT_EIG_TOL")
    return _unit_multiplicities(m, eigs)


def _eigvals(m: np.ndarray) -> np.ndarray:
    try:
        return np.linalg.eigvals(m)
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"eigenvalue solve failed: {exc}") from exc


def _unit_multiplicities(m: np.ndarray, eigs: np.ndarray) -> BoundednessReport:
    """The multiplicity test of `gn_bounded` on a complex matrix m whose
    eigenvalues eigs the caller has already computed."""
    unit = eigs[np.abs(np.abs(eigs) - 1.0) <= EIG_CLUSTER_TOL]
    reports: list[UnitEigenvalue] = []
    bounded = True
    for center, alg in greedy_clusters(unit, EIG_CLUSTER_TOL):
        if alg == 1:
            reports.append(UnitEigenvalue(center, 1, 1))
            continue
        near = unit[np.abs(unit - center) <= EIG_CLUSTER_TOL]
        spread = float(np.max(np.abs(near - center), initial=0.0))
        sv = np.linalg.svd(m - center * np.eye(m.shape[0]), compute_uv=False)
        cut = max(RANK_REL_TOL * sv[0], 10.0 * spread)
        geom = int(np.sum(sv <= cut))
        reports.append(UnitEigenvalue(center, alg, geom))
        if geom < alg:
            bounded = False
    return BoundednessReport(tuple(reports), bounded)


def _degenerate_q(scheme: Scheme, params: DimensionlessParams) -> float | None:
    """Courant value where two root couples of the scheme collide on the
    unit circle (harmonic media with eps_s = eps_inf), if it has one.  The
    snap is applied unconditionally; away from the degenerate regime the
    matrix route gives the same verdict as the polynomial route."""
    q_of_omega = scheme.spec.degenerate_q
    return q_of_omega(params.omega) if q_of_omega and params.omega else None


def _candidates(scheme: Scheme, params: DimensionlessParams) -> tuple[float | None, ...]:
    """The values at which a stable q-range [0, q_c] ends: 2, 4,
    q_-1 = -a(-1)/b(-1) and the degenerate q (None where a scheme has none).
    q_-1 is computed as `circle_crossings` computes its z = -1 crossing, so
    it equals that breakpoint of a walk bit for bit."""
    a, b = (np.asarray(c, dtype=float)[::-1] for c in scheme.spec.char_poly(params))
    b_m1 = np.polyval(b, -1.0)
    q_m1 = float(-np.polyval(a, -1.0) / b_m1) if b_m1 != 0 else None
    return 2.0, 4.0, q_m1, _degenerate_q(scheme, params)


def _arm(candidates: tuple[float | None, ...], q_c: float) -> int | None:
    """Index into a walk's `_candidates` of the one its q_c ends at, or
    None.  A relative 1e-9, as the walk's whisker: a closed limit of a full
    walk ends at the last breakpoint below an unstable midpoint, which can
    be a locus crossing a few ulps off the special value (Lorentz-Joseph's
    q = 2 at 2 + 8e-15)."""
    return next((i for i, c in enumerate(candidates)
                 if c is not None and math.isclose(c, q_c, rel_tol=1e-9)), None)


def _special_root_near(poly: Polynomial) -> bool:
    """True when the polynomial nearly vanishes at 0, 1, -1, i or -i (the
    factored-out eigenvalues of the sub-polynomial style of proof)."""
    scale = sum(abs(c) for c in poly.coeffs)
    return any(abs(poly(s)) <= 1e-9 * scale for s in (0.0, 1.0, -1.0, 1j, -1j))


def classify_at_q(scheme: Scheme, params: DimensionlessParams, q: float) -> StabilityVerdict:
    """Stability verdict of a scheme at an exact Courant quantity q."""
    if q < 0 or not math.isfinite(q):
        raise InvalidInputError("q must be nonnegative and finite")
    q_res = _degenerate_q(scheme, params)
    q_eff = q_res if q_res is not None and abs(q - q_res) <= RESONANCE_SNAP_TOL else q
    poly = char_poly_closed(scheme, params, q_eff)
    svn = is_simple_von_neumann(poly)
    if svn.ok:
        if svn.schur:
            return StabilityVerdict(True, Argument.THEOREM_SCHUR,
                                    "all roots strictly inside the unit circle")
        if _special_root_near(poly):
            return StabilityVerdict(
                True, Argument.SUB_POLYNOMIAL,
                "simple von Neumann; special unit-circle or zero roots factored out")
        return StabilityVerdict(True, Argument.THEOREM_VON_NEUMANN,
                                "simple von Neumann: simple roots on the circle")
    # The recursion failed: either some root is genuinely outside or there
    # are multiple roots on the circle.  The matrix separates the two cases
    # far better than polynomial roots do: eigenvalues of a diagonalizable
    # matrix are well-conditioned even when repeated, so only defective
    # eigenvalues scatter (~1e-8), safely below OUT_EIG_TOL.
    G = amplification_matrix_at_q(scheme, params, q_eff)
    eigs = _eigvals(G)
    worst = float(np.max(np.abs(eigs)))
    if worst > 1.0 + OUT_EIG_TOL:
        return StabilityVerdict(
            False, Argument.THEOREM_VON_NEUMANN,
            f"eigenvalue of modulus {worst:.12g} outside the unit circle")
    report = _unit_multiplicities(G, eigs)
    mults = ", ".join(f"{u.value:.6g} (alg {u.algebraic}, geom {u.geometric})"
                      for u in report.unit_eigenvalues if u.algebraic > 1)
    if report.gn_bounded:
        return StabilityVerdict(
            True, Argument.G_FORM,
            "repeated unit-circle eigenvalues are non-defective: "
            + (mults or "none repeated"))
    return StabilityVerdict(
        False, Argument.EIGENVECTORS,
        f"defective unit-circle eigenvalue (linear growth): {mults}")


def classify_point(scheme: Scheme, params: DimensionlessParams,
                   wn: Wavenumber) -> StabilityVerdict:
    """Stability verdict at one wavenumber, 1D or 2D: `classify_at_q` at its
    Courant quantity, which sums the two directions in 2D.

    The 2D polynomial is (Z - 1) [psi] phi(q_x + q_y), with the TM factor psi.
    The explicit (Z - 1) factor is benign, and phi is the 1D polynomial at
    the combined q.  psi has its roots on or inside the circle and decides
    no verdict.  For the Joseph-style Lorentz scheme in a harmonic medium
    its unit-circle roots could meet those of phi only at the degenerate
    q_res, and there only when eps_s = eps_inf: the resultant of psi and
    phi(q_res) is 16 w^4 (eps_s'-1)^2 (1 + w eps_s')^2 / (1 + w)^2.  At that
    point phi alone is already unstable.  For the other schemes a
    coincidence pairs decoupled blocks and is harmless.  So no verdict
    depends on the polarization.
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
    grid, that is when h_y is given."""
    q_max = 4.0 * params.lam * params.lam
    if h_y is None:
        return q_max
    if not (h_y > 0 and math.isfinite(h_y)):
        raise InvalidInputError("space step h_y must be positive and finite")
    lam_y = params.lam * h / h_y
    return q_max + 4.0 * lam_y * lam_y


def _walk(scheme: Scheme, params: DimensionlessParams, q_lo: float, q_hi: float,
          crossings=None, lo_stable: bool = False):
    """Classify the breakpoints of [q_lo, q_hi] (q_lo, q_hi, 2, 4, the
    degenerate q and the boundary-locus crossings) and one midpoint per
    interval, in ascending order, up to the first unstable probe.  The
    crossings are solved here (`circle_crossings`) unless given: the
    crossing list of an earlier walk with the same parameters, or
    `_candidates` for a walk that only predicts.  lo_stable: an earlier walk
    read q_lo stable, and it is not probed again.  Returns the breakpoint
    count, (q, is-breakpoint, verdict) of that probe, else of the top one,
    and q_c, where the stable q-range found ends: the unstable breakpoint
    (an open limit), the last breakpoint before an unstable midpoint (a
    closed one), or q_hi when every probe is stable."""
    if crossings is None:
        crossings = circle_crossings(*scheme.spec.char_poly(params))
    specials = [q_lo, q_hi, 2.0, 4.0, _degenerate_q(scheme, params)]
    # Relative whisker: a q_hi a few ulps below a special value still probes it.
    breaks = sorted({s for s in specials + list(crossings)
                     if s is not None and q_lo <= s <= q_hi * (1.0 + 1e-9)})
    probes = [] if lo_stable else [(breaks[0], True)]
    for a, b in zip(breaks, breaks[1:]):
        probes += [(0.5 * (a + b), False), (b, True)]
    q_c = breaks[0]
    for q, at_break in probes:
        verdict = classify_at_q(scheme, params, q)
        if not verdict.stable:
            return len(breaks), q, at_break, verdict, q if at_break else q_c
        q_c = q  # a midpoint always follows a breakpoint
    return len(breaks), q, at_break, verdict, q_hi


def _params(scheme: Scheme, medium: MediumModel, k: float, h: float) -> DimensionlessParams:
    if medium.kind != scheme.kind:
        raise InvalidInputError(f"{scheme.value} cannot run in a {medium.kind} medium")
    return dimensionless_params(medium, k, h)


def worst_case_verdict(scheme: Scheme, medium: MediumModel, k: float, h: float,
                       h_y: float | None = None) -> StabilityVerdict:
    """Verdict over all wavenumbers at fixed physical steps, exact from the
    breakpoint walk of q over [0, q_max]; a given h_y makes the grid 2D.
    Breakpoints decide closed against open conditions and catch defective
    eigenvalues."""
    params = _params(scheme, medium, k, h)
    n_breaks, q, _, verdict, _ = _walk(scheme, params, 0.0, _q_max(params, h, h_y))
    if not verdict.stable:
        return StabilityVerdict(False, verdict.argument,
                                f"unstable at q={q:.12g}: {verdict.detail}")
    detail = (f"stable at {n_breaks} breakpoints in [0, q_max] and inside "
              f"the {n_breaks - 1} intervals between them")
    return StabilityVerdict(True, verdict.argument, detail)


def _predict_k(q_c_at, k_top: float, q_top: float, q_c: float, lo: float,
               k_lim: float | None) -> float | None:
    """Predicted k*, the root of g(k) = q_max(k) - q_c(k) in (lo, k_top),
    where q_max(k) = q_top (k / k_top)^2 and q_c(k) comes from q_c_at (q_c
    is its value at k_top).  Steps go in s = k^2, in which q_max is linear:
    first with q_c frozen, then by secant.

    A top whose stable q-range ends below q_max(lo) lies past the scheme's
    parameter limit k_lim, and the steps start at k_lim (1 -+ e) instead,
    with e = PREDICT_REL_TOL: a q_c that drops across them below q_max,
    from above it, predicts k_lim itself.  None when a step leaves
    (lo, k_top) or PREDICT_WALKS steps do not settle it to a relative step
    of e in k^2."""
    q_per_s = q_top / (k_top * k_top)

    def g(s: float) -> float:
        return q_per_s * s - q_c_at(math.sqrt(s))

    s, g_s, slope = k_top * k_top, q_top - q_c, q_per_s
    if q_c <= q_per_s * lo * lo:
        if k_lim is None or not lo < k_lim < k_top:
            return None
        s = (k_lim * (1.0 - PREDICT_REL_TOL)) ** 2
        g_s = g(s)
        if g_s <= 0.0:
            s_below, g_below = s, g_s
            s = (k_lim * (1.0 + PREDICT_REL_TOL)) ** 2
            g_s = g(s)
            if g_s > 0.0:
                return k_lim
            slope = (g_s - g_below) / (s - s_below) or q_per_s
    for _ in range(PREDICT_WALKS):
        s_next = s - g_s / slope
        if not lo * lo < s_next < k_top * k_top:
            return None
        if abs(s_next - s) <= PREDICT_REL_TOL * s:
            return math.sqrt(s_next)
        g_next = g(s_next)
        if g_next != g_s:
            slope = (g_next - g_s) / (s_next - s)
        s, g_s = s_next, g_next
    return None


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
    """Largest stable time step between 0 and 2h/c_inf: predict the
    boundary, check the bisection's final interval around the prediction,
    then bisect where the check fails; a given h_y makes the grid 2D.

    Prediction: a walk at the top, 2h/c_inf, reports where its stable
    q-range ends, q_c, and q_c at a few other time steps predicts k*
    (`_predict_k`).  A q_c at a candidate (`_candidates`: 2, 4, q_-1 or the
    degenerate q; `_arm` matches it) names the arm the boundary lies on, and
    that candidate's formula then gives q_c at the next time steps, with no
    walk, as long as they lie on the same side of the scheme's parameter
    limit `SchemeSpec.k_limit` as the walk that named it; otherwise a walk
    over the top's q-range finds q_c and names the arm anew.  These walks
    only predict, so they take the candidates as their breakpoints and
    solve for no boundary-locus crossing.  The top walk also refuses a top
    with no instability: an unstable probe at one of its breakpoints is one
    of the full walk's breakpoints too, and otherwise q_max and then, if
    that reads stable, the full walk decide.

    Check: the bisection's final interval around the predicted k*, [k_lo,
    k_hi], must read unstable at k_hi and stable at k_lo.  A verdict that
    contradicts the prediction still narrows the bracket.  Above the
    predicted k*, where the verdict is expected unstable, one probe at
    q_max comes first: q_max is a breakpoint of every walk, so an unstable
    probe there is the walk's verdict, and only a stable one needs the walk.

    Bisection: the plain bisection on the worst-case verdict, from 1e-6 of
    the top down to BOUNDARY_REL_RESOLUTION, except that a midpoint at or
    below the bracket reads stable and one at or above it unstable, with no
    walk.  So it visits the same midpoints and returns the same result as a
    plain bisection, on the single switch from stable to unstable in k that
    the bisection assumes anyway.  Where the check holds, no midpoint falls
    inside the bracket and the search ends at k_lo.

    With the parameters at the final bisection interval's lo, q is walked
    on from q_max(lo) to q_max(hi): an unstable breakpoint means an open
    Courant condition, an unstable midpoint a closed one.  At k_lo this walk
    continues the bracket check's, with its crossings and its stable
    q_max(lo).  If the walk stays stable, the verdict at the scheme's
    parameter limit `SchemeSpec.k_limit` decides attainability when that
    limit lies in (lo, hi].
    """
    if not (h > 0 and math.isfinite(h)):
        raise InvalidInputError("space step h must be positive and finite")

    def stable_at(k: float) -> bool:
        if k_hat is not None and k > k_hat:
            # Expected unstable.  q_max is one of the walk's breakpoints, so
            # an unstable probe there is the walk's own verdict.
            params = dimensionless_params(medium, k, h)
            if not classify_at_q(scheme, params, _q_max(params, h, h_y)).stable:
                return False
        return worst_case_verdict(scheme, medium, k, h, h_y).stable

    def q_c_at(k: float) -> float:
        nonlocal arm
        params = dimensionless_params(medium, k, h)
        candidates = _candidates(scheme, params)
        index, k_named = arm
        if (index is not None and candidates[index] is not None
                and (k_lim is None or (k < k_lim) == (k_named < k_lim))):
            return candidates[index]
        q_c = _walk(scheme, params, 0.0, q_top, candidates)[4]
        arm = _arm(candidates, q_c), k
        return q_c

    hi = 2.0 * h / medium.c_inf
    p_hi = _params(scheme, medium, hi, h)
    q_top = _q_max(p_hi, h, h_y)
    top_candidates = _candidates(scheme, p_hi)
    _, _, at_break, top, q_c = _walk(scheme, p_hi, 0.0, q_top, top_candidates)
    if top.stable or not at_break and classify_at_q(scheme, p_hi, q_top).stable:
        # No unstable breakpoint, which the full walk would share; only the
        # full walk may refuse.
        *_, top, q_c = _walk(scheme, p_hi, 0.0, q_top)
        if top.stable:
            raise NumericalFailureError(
                "no instability found up to 2h/c_inf; cannot bracket a boundary")
    k_hat = None
    lo = 1e-6 * hi
    if not stable_at(lo):
        lowest = min([lo] + [p for p in (lo / 10.0, lo / 100.0) if not stable_at(p)])
        return BoundaryResult(None, None, True, lowest,
                              "unstable at the bottom of the bracket "
                              "(resonant regime; no upper boundary in k)")
    k_lim = scheme.spec.k_limit(medium) if scheme.spec.k_limit else None
    # The candidate the latest walk's q_c ended at, and that walk's k.  Its
    # formula stands in for walks on the same side of k_lim only.
    arm = _arm(top_candidates, q_c), hi
    # a reads stable and b unstable; the bisection walks only inside (a, b).
    a, b = lo, hi
    # The crossings of the walk that read a = k_lo stable.  No midpoint then
    # falls inside (k_lo, b), and the bisection ends at lo = k_lo.
    bottom = None
    k_hat = _predict_k(q_c_at, hi, q_top, q_c, lo, k_lim)
    if k_hat is not None:
        k_lo, k_hi = _bisect(lo, hi, lambda k: k <= k_hat)
        # Float verdicts err towards stable, so the top end fails more often,
        # and a stable top end makes the bottom one stable too.
        if k_hi < b:
            if stable_at(k_hi):
                a = k_hi
            else:
                b = k_hi
        if a < k_lo < b:
            # The worst-case walk, with its crossings solved here for the
            # final walk to reuse.
            p_lo = dimensionless_params(medium, k_lo, h)
            crossings = circle_crossings(*scheme.spec.char_poly(p_lo))
            if _walk(scheme, p_lo, 0.0, _q_max(p_lo, h, h_y), crossings)[3].stable:
                a, bottom = k_lo, crossings
            else:
                b = k_lo
    lo, hi = _bisect(lo, hi, lambda mid: mid <= a or (mid < b and stable_at(mid)))
    p_lo, p_hi = dimensionless_params(medium, lo, h), dimensionless_params(medium, hi, h)
    _, _, at_break, verdict, _ = _walk(scheme, p_lo, _q_max(p_lo, h, h_y),
                                       _q_max(p_hi, h, h_y), bottom,
                                       lo_stable=bottom is not None)
    if verdict.stable:
        attained = stable_at(k_lim) if k_lim is not None and lo < k_lim <= hi else None
    else:
        attained = not at_break
    return BoundaryResult(lo, attained, False, None,
                          f"bisection converged to [{lo:.9e}, {hi:.9e}]")


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
