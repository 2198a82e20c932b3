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
(`LocationResult.schur`), with tolerances on float coefficients and
exactly on `fractions.Fraction` ones: those are scaled to integers once,
and each level is divided by its content.  `max_root_modulus` reads the
largest root modulus off the companion matrix.

All values are immutable; every function is pure and thread-safe.
"""

from __future__ import annotations

import math
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


class Polynomial:
    """Dense polynomial stored by ascending power.

    Coefficients are cast to complex, unless every one is a
    `fractions.Fraction`: then they are kept and evaluated exactly.
    Trailing coefficients that are negligible relative to the largest
    magnitude (exact zeros, for Fractions) are trimmed on construction.  The
    zero polynomial is the empty coefficient tuple and is a legitimate value
    (the reduction recursion produces it), with degree -1 by convention.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[complex | Fraction]):
        # Testing the first entry alone settles float input cheaply.
        if (len(coeffs) and type(coeffs[0]) is Fraction
                and all(type(c) is Fraction for c in coeffs)):
            cs = _trimmed(list(coeffs), 0)
        else:
            cs = _trimmed([complex(c) for c in coeffs], TRIM_REL_TOL)
        object.__setattr__(self, "coeffs", cs)

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z: complex | Fraction) -> complex | Fraction:
        acc = Fraction(0) if self.coeffs and type(self.coeffs[0]) is Fraction else 0j
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


def _trimmed(cs: list, trim_tol: float) -> tuple:
    """cs without its trailing entries of modulus at most trim_tol times the
    largest one; () when every entry is zero."""
    top = max(map(abs, cs), default=0.0)
    if top == 0.0:
        return ()
    cut = trim_tol * top
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
    every root lies strictly inside the circle, as the levels certify (each
    a "<" with a degree drop of exactly one, down to a constant).  vanished:
    the degree whose reduction vanished, so that the derivative decided; 0
    where none did, and a failed pass then certifies a root outside."""

    ok: bool
    levels: tuple[LevelTest, ...]
    reason: str
    schur: bool = False
    vanished: int = 0

    def __bool__(self) -> bool:
        return self.ok


def _require_nonzero(p: Polynomial) -> None:
    if p.is_zero:
        raise InvalidInputError("operation is undefined for the zero polynomial")


# The recursion runs on trimmed coefficient tuples: a Polynomial per level
# would only repeat the trimming.  Its tolerances are decided once per pass.

def _tolerances(c: tuple) -> tuple[float, float]:
    """(trim, tie) tolerances for coefficients c: zero for Fractions."""
    return (0, 0) if type(c[0]) is Fraction else (TRIM_REL_TOL, BOUNDARY_REL_TOL)


def _reduce(c: tuple, trim_tol: float) -> tuple:
    d = len(c) - 1
    if d == 0:
        return ()
    c0 = c[0]
    cd_conj = c[d].conjugate()
    out = [cd_conj * c[j + 1] - c0 * c[d - 1 - j].conjugate() for j in range(d)]
    # Coefficients are bilinear in p, so "zero" means small relative to the
    # product scale, not relative to the output's own largest entry.
    scale = (abs(c0) + abs(c[d])) * max(map(abs, c))
    if max(map(abs, out)) <= trim_tol * scale:
        return ()
    return _trimmed(out, trim_tol)


def _normalized(c: tuple, trim_tol: float) -> tuple:
    """c scaled to a largest modulus near one; integer c, the exact form,
    divided by its content instead."""
    if type(c[0]) is int:
        g = math.gcd(*c)
        return tuple(x // g for x in c)
    top = max(map(abs, c))
    return _trimmed([x / top for x in c], trim_tol)


def _cleared(c: tuple) -> tuple:
    """Fractions c times the lcm of their denominators: integers, in
    proportion, which the exact recursion runs on."""
    lcm = math.lcm(*(x.denominator for x in c))
    return tuple(x.numerator * (lcm // x.denominator) for x in c)


def _compare_moduli(const_mod2: float, lead_mod2: float, tie_tol: float) -> str:
    tol = tie_tol * max(1.0, lead_mod2)
    if abs(const_mod2 - lead_mod2) <= tol:
        return "="
    return "<" if const_mod2 < lead_mod2 else ">"


def _abs2(z: complex) -> float:
    return z.real * z.real + z.imag * z.imag


def is_simple_von_neumann(p: Polynomial) -> LocationResult:
    """Test whether all roots lie in the closed unit disk with simple roots
    on the circle, and (`LocationResult.schur`) whether all lie inside.

    Recurses while the reduced polynomial is nonzero and |p(0)| < |p*(0)|;
    equality with a nonzero reduction certifies a root outside the circle.
    When the reduction vanishes, the same loop goes on to decide the Schur
    class of the derivative, which is then the verdict.  Schur needs every
    level strict (ties within tolerance fail) with a degree drop of exactly
    one; a nonzero constant has no roots and is Schur.
    """
    _require_nonzero(p)
    trim_tol, tie_tol = _tolerances(p.coeffs)
    cur = _normalized(p.coeffs if tie_tol else _cleared(p.coeffs), trim_tol)
    levels: list[LevelTest] = []
    schur = True
    vanished = 0  # the degree whose reduction vanished; cur is then a derivative
    while len(cur) > 1:
        d = len(cur) - 1
        const2, lead2 = _abs2(cur[0]), _abs2(cur[d])
        rel = _compare_moduli(const2, lead2, tie_tol)
        levels.append(LevelTest(d, const2, lead2, rel))
        # A derivative that fails the strict test needs no reduction.
        nxt = _reduce(cur, trim_tol) if rel == "<" or not vanished else ()
        schur = schur and rel == "<" and len(nxt) == d
        if vanished and not schur:
            break
        if not nxt:
            vanished, schur = d, True
            cur = _normalized(_trimmed([j * c for j, c in enumerate(cur)][1:], trim_tol),
                              trim_tol)
            continue
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
        # Renormalize: the reduction is quadratic in the coefficients, so
        # deep float levels would otherwise fall below the tolerance floor,
        # and exact ones would grow.
        cur = _normalized(nxt, trim_tol)
    if vanished:
        return LocationResult(schur, tuple(levels),
                              "reduction vanished at degree %d; derivative %s Schur"
                              % (vanished, "is" if schur else "is not"), vanished=vanished)
    return LocationResult(True, tuple(levels), "reduced to a nonzero constant", schur)


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

