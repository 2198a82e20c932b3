"""Referees of the tests: independent routes to facts the package computes.

None of these is called by the package itself.  Each gives the tests a
second opinion built another way: polynomials from known roots, root
profiles from companion eigenvalues, the physical per-wavenumber update
matrix and its characteristic polynomial det(Z I - G) (from eigenvalues,
or exactly for a matrix of Fractions), and the grid's own
Fourier amplitudes and per-mode update matrices measured from `step`;
also the plain bisection for the stability boundary, which walks every
midpoint, and the single reduction step of the root-location recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

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
    step,
    tm_factor_2d,
    worst_case_verdict,
)
from fdtd_stability import analyzer
from fdtd_stability.polyloc import (
    _reduce,
    _require_nonzero,
    _tolerances,
    greedy_clusters,
    poly_roots,
)
from fdtd_stability.schemes import _check_scheme_params

# Two roots closer than this are treated as one root of higher multiplicity
# (companion eigenvalues of an m-fold root scatter like eps**(1/m)).
ROOT_CLUSTER_TOL = 1e-7


# --- polynomials ---------------------------------------------------------------

def from_roots(roots: Sequence[complex], leading: complex = 1.0) -> Polynomial:
    """Expand ``leading * prod (z - r)`` into coefficients."""
    coeffs = np.array([leading], dtype=complex)
    for r in roots:
        coeffs = np.convolve(coeffs, np.array([-r, 1.0], dtype=complex))
    return Polynomial(coeffs)


def reduce_step(p: Polynomial) -> Polynomial:
    """One degree-lowering step of the conjugate-reduction recursion, exact
    for Fractions.  The result has degree strictly below ``p``'s, or is the
    zero polynomial (returned as a value: the von Neumann test needs it)."""
    _require_nonzero(p)
    return Polynomial(_reduce(p.coeffs, _tolerances(p.coeffs)[0]))


def monic(p: Polynomial) -> Polynomial:
    _require_nonzero(p)
    lead = p.coeffs[-1]
    return Polynomial(tuple(c / lead for c in p.coeffs))


def scaled(p: Polynomial, factor: complex) -> Polynomial:
    return Polynomial(tuple(factor * c for c in p.coeffs))


def conjugate_poly(p: Polynomial) -> Polynomial:
    """Reversed complex-conjugate polynomial: coefficient j becomes
    conj(c[d-j])."""
    _require_nonzero(p)
    return Polynomial(tuple(c.conjugate() for c in reversed(p.coeffs)))


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


def root_profile(p: Polynomial, circle_tolerance: float = 1e-9) -> RootProfile:
    """Classify all roots by companion-matrix eigenvalues.

    Roots with | |r| - 1 | <= circle_tolerance count as on-circle and are
    clustered into multiplicity groups; the rest are strictly inside or
    outside.
    """
    _require_nonzero(p)
    if circle_tolerance <= 0:
        raise InvalidInputError("circle_tolerance must be positive")
    roots = poly_roots(p)
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


def char_poly_from_matrix(G: np.ndarray) -> Polynomial:
    """Monic characteristic polynomial det(Z I - G), computed from the
    eigenvalues; the independent cross-check for char_poly_closed."""
    m = np.asarray(G, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise InvalidInputError("characteristic polynomial requires a square matrix")
    return Polynomial(tuple(np.poly(m)[::-1]))


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


# --- stability boundary ---------------------------------------------------------

def plain_bisection_boundary(scheme: Scheme, medium: MediumModel, h: float,
                             h_y: float | None = None) -> analyzer.BoundaryResult:
    """`stability_boundary_k` by plain bisection on the worst-case verdict,
    with a walk at every midpoint: the search the bracketed one must
    reproduce field for field.  Its q-walks go through `analyzer._walk`, so
    a test can count them."""
    if not (h > 0 and math.isfinite(h)):
        raise InvalidInputError("space step h must be positive and finite")

    def stable_at(k: float) -> bool:
        return worst_case_verdict(scheme, medium, k, h, h_y).stable

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
    p_lo, p_hi = dimensionless_params(medium, lo, h), dimensionless_params(medium, hi, h)
    _, _, at_break, verdict, _ = analyzer._walk(
        scheme, p_lo, analyzer._q_max(p_lo, h, h_y), analyzer._q_max(p_hi, h, h_y))
    if verdict.stable:
        k_lim = scheme.spec.k_limit(medium) if scheme.spec.k_limit else None
        attained = stable_at(k_lim) if k_lim is not None and lo < k_lim <= hi else None
    else:
        attained = not at_break
    return analyzer.BoundaryResult(lo, attained, False, None,
                                   f"bisection converged to [{lo:.9e}, {hi:.9e}]")


# --- grid measurements -----------------------------------------------------------

def fourier_mode(state: FieldState, m: int) -> np.ndarray:
    """Complex amplitude of grid mode m for each state component, ordered
    like the scheme's update-matrix state vector (1D only)."""
    if state.polarization is not None:
        raise InvalidInputError("fourier_mode is defined for 1D states")
    return np.fft.fft(state.data, axis=1)[:, m] / state.grid_shape[0]


def mode_matrix_2d(scheme: Scheme, polarization: str, params: DimensionlessParams,
                   wn: Wavenumber, shape: tuple[int, int],
                   modes: tuple[int, int]) -> np.ndarray:
    """The per-mode update matrix of one public `step` on a 2D grid: random
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
