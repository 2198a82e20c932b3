"""Locate polynomial roots relative to the unit circle.

Two root-location classes drive every stability verdict in this package:

* Schur: every root has modulus strictly below one.
* Simple von Neumann: every root lies in the closed unit disk and the roots
  on the circle itself are simple.

Both are decided without computing roots, by a conjugate-reduction recursion
that lowers the degree one step at a time.  Writing ``p(z) = c0 + c1 z + ...
+ cd z^d``, the reversed-conjugate polynomial is ``p*(z) = conj(cd) + ... +
conj(c0) z^d`` and one reduction step maps ``p`` to

    (p*(0) p(z) - p(0) p*(z)) / z.

The constant term of the numerator cancels exactly, so the division is a
coefficient shift.  One `is_simple_von_neumann` pass decides both classes
(`LocationResult.schur`).  An exact-rational variant of the recursion decides
rational inputs without rounding.  For a polynomial family affine in a real
parameter q, `circle_crossings` finds the q at which a root can meet the
unit circle, and `max_root_modulus` reads the largest root modulus off the
companion matrix.

All values are immutable; every function is pure and thread-safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

# Trailing coefficients below this fraction of the largest coefficient are
# trimmed on construction.
TRIM_REL_TOL = 1e-12

# The recursion compares |p(0)|^2 against |p*(0)|^2; differences within
# BOUNDARY_REL_TOL * max(1, |p*(0)|^2) count as equality.  Inputs are
# normalized by their largest coefficient first, so the test is invariant
# under rescaling of the polynomial.
BOUNDARY_REL_TOL = 1e-12

# Locus roots with | |z| - 1 | <= CROSSING_TOL are crossing candidates, and
# candidate q values with an imaginary part up to CROSSING_TOL (relative)
# count as real.  Loose on purpose: an extra candidate costs the caller one
# probe, a missed one a wrong verdict.
CROSSING_TOL = 1e-6


class Polynomial:
    """Dense complex polynomial stored by ascending power.

    Trailing coefficients that are negligible relative to the largest
    magnitude are trimmed on construction.  The zero polynomial is the empty
    coefficient tuple and is a legitimate value (the reduction recursion
    produces it), with degree -1 by convention.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex]):
        object.__setattr__(self, "coeffs", _trimmed([complex(c) for c in coeffs]))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z: complex) -> complex:
        acc = 0.0 + 0.0j
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"

    def derivative(self) -> "Polynomial":
        return Polynomial(tuple(j * c for j, c in enumerate(self.coeffs))[1:])


def _trimmed(cs: list[complex]) -> tuple[complex, ...]:
    """cs without its trailing entries of modulus at most TRIM_REL_TOL times
    the largest one; () when every entry is zero."""
    top = max(map(abs, cs), default=0.0)
    if top == 0.0:
        return ()
    cut = TRIM_REL_TOL * top
    while cs and abs(cs[-1]) <= cut:
        cs.pop()
    return tuple(cs)


@dataclass(frozen=True)
class LevelTest:
    """One level of the reduction recursion: |p(0)|^2 vs |p*(0)|^2."""

    degree: int
    const_mod2: float
    lead_mod2: float
    relation: str  # "<", "=", ">"


@dataclass(frozen=True)
class LocationResult:
    """Boolean verdict plus the recursion trace that produced it.  schur:
    the levels also certify the Schur class (each "<" with a degree drop of
    exactly one, down to a constant); it equals `is_schur(p).ok`."""

    ok: bool
    levels: tuple[LevelTest, ...]
    reason: str
    schur: bool = False

    def __bool__(self) -> bool:
        return self.ok


def _require_nonzero(p: Polynomial) -> None:
    if p.is_zero:
        raise InvalidInputError("operation is undefined for the zero polynomial")


def reduce_step(p: Polynomial) -> Polynomial:
    """One degree-lowering step of the conjugate-reduction recursion.

    The result has degree strictly below ``p``'s, or is the zero polynomial
    (returned as a value, never an error: the von Neumann test needs it).
    """
    _require_nonzero(p)
    return Polynomial(_reduce(p.coeffs))


# The recursion runs on trimmed coefficient tuples: a Polynomial per level
# would only repeat the trimming.

def _reduce(c: tuple[complex, ...]) -> tuple[complex, ...]:
    d = len(c) - 1
    if d == 0:
        return ()
    c0 = c[0]
    cd_conj = c[d].conjugate()
    out = [cd_conj * c[j + 1] - c0 * c[d - 1 - j].conjugate() for j in range(d)]
    # Coefficients are bilinear in p, so "zero" means small relative to the
    # product scale, not relative to the output's own largest entry.
    scale = (abs(c0) + abs(c[d])) * max(map(abs, c))
    if max(map(abs, out)) <= TRIM_REL_TOL * scale:
        return ()
    return _trimmed(out)


def _normalized(c: tuple[complex, ...]) -> tuple[complex, ...]:
    top = max(map(abs, c))
    return _trimmed([x / top for x in c])


def _compare_moduli(const_mod2: float, lead_mod2: float) -> str:
    tol = BOUNDARY_REL_TOL * max(1.0, lead_mod2)
    if abs(const_mod2 - lead_mod2) <= tol:
        return "="
    return "<" if const_mod2 < lead_mod2 else ">"


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def is_schur(p: Polynomial) -> LocationResult:
    """Test whether every root of ``p`` has modulus strictly below one.

    Each level requires a strict |p(0)| < |p*(0)| (ties within tolerance are
    boundary cases and fail the strict test) together with an exact degree
    drop of one.  A nonzero constant has no roots and passes.
    """
    _require_nonzero(p)
    cur = _normalized(p.coeffs)
    levels: list[LevelTest] = []
    while True:
        d = len(cur) - 1
        if d == 0:
            return LocationResult(True, tuple(levels), "reduced to a nonzero constant",
                                  schur=True)
        const2 = _abs2(cur[0])
        lead2 = _abs2(cur[d])
        rel = _compare_moduli(const2, lead2)
        levels.append(LevelTest(d, const2, lead2, rel))
        if rel == "=":
            return LocationResult(False, tuple(levels),
                                  f"boundary |p(0)| = |p*(0)| at degree {d}")
        if rel == ">":
            return LocationResult(False, tuple(levels),
                                  f"|p(0)| > |p*(0)| at degree {d}")
        nxt = _reduce(cur)
        if len(nxt) != d:
            return LocationResult(False, tuple(levels),
                                  f"degree dropped from {d} to {len(nxt) - 1}")
        # Renormalize: the reduction is quadratic in the coefficients, so
        # deep levels would otherwise fall below the tolerance floor.
        cur = _normalized(nxt)


def is_simple_von_neumann(p: Polynomial) -> LocationResult:
    """Test whether all roots lie in the closed unit disk with simple roots
    on the circle.

    Recurses while the reduced polynomial is nonzero and |p(0)| < |p*(0)|;
    when the reduction annihilates the polynomial, the verdict is delegated
    to a strict Schur test on the derivative.  Equality with a nonzero
    reduction certifies a root outside the circle.  The same pass decides
    the Schur class too (`LocationResult.schur`).
    """
    _require_nonzero(p)
    cur = _normalized(p.coeffs)
    levels: list[LevelTest] = []
    schur = True
    while True:
        d = len(cur) - 1
        if d == 0:
            return LocationResult(True, tuple(levels), "reduced to a nonzero constant",
                                  schur)
        const2 = _abs2(cur[0])
        lead2 = _abs2(cur[d])
        rel = _compare_moduli(const2, lead2)
        nxt = _reduce(cur)
        levels.append(LevelTest(d, const2, lead2, rel))
        if not nxt:
            sub = is_schur(Polynomial(cur).derivative())
            verdict = sub.ok
            reason = ("reduction vanished at degree %d; derivative %s Schur"
                      % (d, "is" if verdict else "is not"))
            return LocationResult(verdict, tuple(levels) + sub.levels, reason)
        if rel == ">":
            return LocationResult(False, tuple(levels),
                                  f"|p(0)| > |p*(0)| at degree {d}")
        if rel == "=":
            # Equal moduli mean the root moduli multiply to one.  Were all
            # roots on the circle the polynomial would be self-inversive and
            # the reduction would vanish identically; a nonzero reduction
            # therefore implies a root strictly outside.
            return LocationResult(False, tuple(levels),
                                  f"|p(0)| = |p*(0)| with nonzero reduction "
                                  f"at degree {d}")
        schur = schur and len(nxt) == d
        cur = _normalized(nxt)


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


def poly_roots(p: Polynomial) -> np.ndarray:
    """All roots of ``p`` via the companion matrix (descending-order solve)."""
    _require_nonzero(p)
    if p.degree == 0:
        return np.array([], dtype=complex)
    try:
        return np.roots(np.array(p.coeffs[::-1], dtype=complex))
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"companion eigensolve failed: {exc}") from exc


def max_root_modulus(p: Polynomial) -> float:
    """Largest root modulus; 0.0 for constants."""
    roots = poly_roots(p)
    return float(np.max(np.abs(roots))) if roots.size else 0.0


# ---------------------------------------------------------------------------
# Boundary locus of an affine polynomial family a(z) + q b(z).
# ---------------------------------------------------------------------------

def _product(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Product of two descending coefficient arrays, each first stripped of
    its leading zeros as np.polymul does: the convolution's summation order,
    and so every bit of the result, then does not depend on them."""
    u, v = (x[nz[0]:] if (nz := np.flatnonzero(x)).size else np.zeros(1)
            for x in (u, v))
    return np.convolve(u, v)


def circle_crossings(a: Sequence[float], b: Sequence[float]) -> list[float]:
    """Real values of q at which a root of ``a(z) + q b(z)`` can lie on the
    unit circle, sorted (boundary-locus method).

    ``a`` and ``b`` are real ascending coefficients of equal length d + 1.
    A unit root z needs q = -a(z)/b(z) real, so z is a unit-modulus root of
    the locus polynomial z^d [a(z) b(1/z) - b(z) a(1/z)], of degree at most
    2d.  Between consecutive returned values no root meets the circle, so
    the root configuration relative to it is constant, apart from isolated
    q where the degree drops (a root passes through infinity, never the
    circle; those q are not returned).  Spurious extra values are possible;
    every tolerance errs towards keeping a candidate.

    The locus is formed from the palindromic and antipalindromic parts of a
    and b, where differences of nearly equal coefficients are exact; the
    direct form cancels most digits when the family is nearly palindromic
    (small time steps).  z = +-1 are locus roots of every family and are
    taken exactly.  The locus vanishes identically when a = g u and b = g v
    with u, v palindromic (undamped Lorentz media, eps_s = eps_inf, the
    Debye-Young scheme at delta = 1): then q(z) = -a(z)/b(z) is real all
    round the circle, roots move along it, and they change only where two
    of them meet, at a unit root of the Wronskian a' b - a b'.  Those roots
    are always candidates too; where the locus does not vanish they add
    nothing but double roots on the circle, which it also has.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    if a.ndim != 1 or a.shape != b.shape or a.size < 2:
        raise InvalidInputError("a and b must be coefficient sequences of equal length >= 2")
    # With a = (a_s + a_x)/2, a reversed = (a_s - a_x)/2 and likewise for b,
    # the locus is (a_x b_s - a_s b_x)/2.
    a_s, a_x = a + a[::-1], a - a[::-1]
    b_s, b_x = b + b[::-1], b - b[::-1]
    locus = np.convolve(a_x, b_s) - np.convolve(a_s, b_x)
    a_desc, b_desc = a[::-1], b[::-1]
    da_desc, db_desc = np.polyder(a_desc), np.polyder(b_desc)
    plus, minus = _product(da_desc, b_desc), _product(a_desc, db_desc)
    n = max(plus.size, minus.size)
    wronskian = (np.concatenate((np.zeros(n - plus.size), plus))
                 - np.concatenate((np.zeros(n - minus.size), minus)))
    if not np.any(locus) and not np.any(wronskian):
        raise NumericalFailureError("a and b are proportional: the roots do not move with q")
    scale_a, scale_b = np.sum(np.abs(a)), np.sum(np.abs(b))
    qs: list[complex] = []
    for z in [1.0, -1.0] + [r for r in np.concatenate([np.roots(locus[::-1]),
                                                       np.roots(wronskian)])
                            if abs(abs(r) - 1.0) <= CROSSING_TOL]:
        az, bz = np.polyval(a_desc, z), np.polyval(b_desc, z)
        if bz != 0:
            qs.append(-az / bz)
        if abs(az) <= CROSSING_TOL * scale_a and abs(bz) <= CROSSING_TOL * scale_b:
            # a and b share the root z, which then stays on the circle for
            # every q; another root meets it where the derivative vanishes.
            dbz = np.polyval(db_desc, z)
            if dbz != 0:
                qs.append(-np.polyval(da_desc, z) / dbz)
    return sorted(float(q.real) for q in qs
                  if abs(q.imag) <= CROSSING_TOL * max(1.0, abs(q.real)))


# ---------------------------------------------------------------------------
# Exact-rational path (real coefficients).  Backs up the floating recursion
# in tests: boundary cases of the scheme polynomials sit exactly on
# recursion-degeneracy points, where exact arithmetic is the only reliable
# referee.
# ---------------------------------------------------------------------------

def _trim_exact(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    cs = list(coeffs)
    while cs and cs[-1] == 0:
        cs.pop()
    return tuple(cs)


def reduce_step_exact(coeffs: Sequence[Fraction]) -> tuple[Fraction, ...]:
    """Exact reduction step for real rational coefficients (ascending)."""
    c = _trim_exact([Fraction(x) for x in coeffs])
    if not c:
        raise InvalidInputError("operation is undefined for the zero polynomial")
    d = len(c) - 1
    if d == 0:
        return ()
    return _trim_exact([c[d] * c[j + 1] - c[0] * c[d - 1 - j] for j in range(d)])


def is_schur_exact(coeffs: Sequence[Fraction]) -> bool:
    c = _trim_exact([Fraction(x) for x in coeffs])
    if not c:
        raise InvalidInputError("operation is undefined for the zero polynomial")
    while True:
        d = len(c) - 1
        if d == 0:
            return True
        if not c[0] * c[0] < c[d] * c[d]:
            return False
        nxt = reduce_step_exact(c)
        if len(nxt) - 1 != d - 1:
            return False
        c = nxt


def is_simple_von_neumann_exact(coeffs: Sequence[Fraction]) -> bool:
    c = _trim_exact([Fraction(x) for x in coeffs])
    if not c:
        raise InvalidInputError("operation is undefined for the zero polynomial")
    while True:
        d = len(c) - 1
        if d == 0:
            return True
        nxt = reduce_step_exact(c)
        if not nxt:
            deriv = _trim_exact([j * c[j] for j in range(1, d + 1)])
            return is_schur_exact(deriv) if deriv else True
        if c[0] * c[0] >= c[d] * c[d]:
            # ">" is a root outside; "=" with a nonzero reduction implies
            # one as well (see is_simple_von_neumann).
            return False
        c = nxt
