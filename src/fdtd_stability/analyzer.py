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
characteristic polynomial p_q = a + q b is affine in the Courant quantity
q, and the resultant of p_q and its reversal factors in closed form for
every scheme.  So a root can meet the unit circle, or two roots collide
on it, only at q in {0, 2, 4, q_-1 = -a(-1)/b(-1), the degenerate q}, and
each scheme's stable q-range [0, q_c) or [0, q_c] follows in closed form
(`SchemeSpec.stable_q`, and `SchemeSpec.closed` for whether q_c itself is
stable; both are checked against an exact walk over those breakpoints in
the tests).  A grid is stable iff q_max < q_c, or q_max = q_c and the
limit is closed, with near-ties decided in exact rationals.  That decides
`worst_case_verdict` and every step of the bisection in
`stability_boundary_k`; one `classify_at_q` probe at the deciding q
labels each verdict with its argument.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import InvalidInputError, NumericalFailureError
from .polyloc import Polynomial, greedy_clusters, is_simple_von_neumann
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
    """(params, q_max, q_c, sign of q_max - q_c, stable) at physical steps:
    every wavenumber is stable iff q_max < q_c, or q_max = q_c and the limit
    is `SchemeSpec.closed`.  Where q_max lies within TIE_REL_TOL of q_c, the
    sign is taken again in exact rationals, from Fraction(k), Fraction(h),
    Fraction(h_y) and the medium's fields."""
    spec = scheme.spec
    params = _params(scheme, medium, k, h)
    q_max, q_c = _q_max(params, h, h_y), spec.stable_q(params)
    sign = (q_max > q_c) - (q_max < q_c)
    if abs(q_max - q_c) <= TIE_REL_TOL * q_c:
        sign = _exact_sign(scheme, medium, k, h, h_y)[1]
    return params, q_max, q_c, sign, sign < 0 or (sign == 0 and spec.closed(params))


def _exact_sign(scheme: Scheme, medium: MediumModel, k, h: float, h_y: float | None):
    """(params, sign of q_max - q_c), both exact from Fraction(k),
    Fraction(h), Fraction(h_y) and the medium's fields."""
    params = dimensionless_params(medium, Fraction(k), Fraction(h))
    q_max = _q_max(params, Fraction(h), None if h_y is None else Fraction(h_y))
    q_c = scheme.spec.stable_q(params)
    return params, (q_max > q_c) - (q_max < q_c)


def worst_case_verdict(scheme: Scheme, medium: MediumModel, k: float, h: float,
                       h_y: float | None = None) -> StabilityVerdict:
    """Verdict over all wavenumbers at fixed physical steps, a given h_y
    making the grid 2D: the theorem's, from q_max, the scheme's stable
    q-range end q_c (`SchemeSpec.stable_q`) and whether that end is closed.
    The argument label comes from one `classify_at_q` probe at the q that
    decides the verdict: q_max, or, where q_max passes an open q_c > 0, q_c
    itself, the first unstable q.  The detail names q_max, q_c, the clause
    and the probe, and says so where the probe disagrees with the theorem."""
    params, q_max, q_c, sign, stable = _theorem(scheme, medium, k, h, h_y)
    closed = scheme.spec.closed(params)
    q = q_c if not (stable or closed) and q_c > 0 else q_max
    probe = classify_at_q(scheme, params, q)
    detail = (f"q_max={q_max:.12g} {'<=>'[sign + 1]} q_c={q_c:.12g}, "
              f"{'closed' if closed else 'open'} limit; probe at q={q:.12g}: {probe.detail}")
    if probe.stable != stable:
        detail += f"; the probe reads {'stable' if probe.stable else 'unstable'}, against the theorem"
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
        params, sign = _exact_sign(scheme, medium, k_sw, h, h_y)
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
