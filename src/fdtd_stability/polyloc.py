"""Locate polynomial roots relative to the unit circle.

Two root-location classes drive every stability verdict in this package:

* Schur: every root has modulus strictly below one.
* Simple von Neumann: every root lies in the closed unit disk and the roots
  on the circle itself are simple.

Both are decided without computing roots, by a conjugate-reduction recursion
that lowers the degree one step at a time.  Writing ``p(z) = c0 + c1 z + ...
+ cd z^d`` with real coefficients, the reversed polynomial is ``p*(z) = cd +
... + c0 z^d`` and one reduction step maps ``p`` to

    (p*(0) p(z) - p(0) p*(z)) / z.

The constant term of the numerator cancels exactly, so the division is a
coefficient shift.  One `is_simple_von_neumann` pass decides both classes
(`LocationResult.schur`), in exact integer arithmetic and with no
tolerance: the coefficients, `Fraction`s or ints, are scaled to integers
once, and deeper levels are divided by their content.  `max_root_modulus`
estimates the largest root modulus off the companion matrix, in floats
read from the exact coefficients.

All values are immutable; every function is pure and thread-safe.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import NamedTuple, Sequence

import numpy as np

from .errors import InvalidInputError, NumericalFailureError

_EXACT = (int, Fraction)  # the number types a Polynomial keeps


class Polynomial:
    """Dense polynomial with exact coefficients, stored by ascending power.

    Every coefficient is an int or a `fractions.Fraction`, kept as given;
    any other number (a float, a complex, a NaN) is refused.  Trailing zero
    coefficients are trimmed on construction.  The zero polynomial is the
    empty coefficient tuple and is a legitimate value, with degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Sequence[int | Fraction]):
        cs = list(coeffs)
        if not all(type(c) in _EXACT for c in cs):
            raise InvalidInputError("polynomial coefficients must be ints or Fractions")
        while cs and cs[-1] == 0:
            cs.pop()
        object.__setattr__(self, "coeffs", tuple(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Polynomial is immutable")

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    def __call__(self, z: complex | Fraction) -> complex | Fraction:
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * z + c
        return acc

    def __eq__(self, other) -> bool:
        return isinstance(other, Polynomial) and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __repr__(self) -> str:
        return f"Polynomial({list(self.coeffs)!r})"


class LevelTest(NamedTuple):
    """One level of the reduction recursion: |p(0)|^2 vs |p*(0)|^2."""

    degree: int
    const_mod2: int
    lead_mod2: int
    relation: str  # "<", "=", ">"


class LocationResult(NamedTuple):
    """Boolean verdict plus the recursion trace that produced it.  schur:
    every root lies strictly inside the circle, as the levels certify (each
    a "<", down to a constant).  vanished: the integer coefficients of the
    level whose reduction vanished, so that the derivative decided; () where
    none did, and a failed pass then certifies a root outside.  That level
    is a constant multiple of gcd(p, p*): a strict level maps (c, c*) to
    (z c1, c1*) by a matrix of determinant c_d^2 - c_0^2 != 0, which keeps
    the gcd, and at the vanishing level c* is proportional to c."""

    ok: bool
    levels: tuple[LevelTest, ...]
    reason: str
    schur: bool = False
    vanished: tuple[int, ...] = ()

    def __bool__(self) -> bool:
        return self.ok


def _require_nonzero(p: Polynomial) -> None:
    if p.is_zero:
        raise InvalidInputError("operation is undefined for the zero polynomial")


def _reduce(c) -> list:
    """One reduction step of real coefficients c, exact in their own
    arithmetic: (c_d p - c_0 p*) / z, without its trailing zeros."""
    c0, cd = c[0], c[-1]
    out = [cd * x - c0 * y for x, y in zip(c[1:], c[-2::-1])]
    while out and out[-1] == 0:
        out.pop()
    return out


def _cleared(c: tuple) -> list:
    """Exact coefficients c times the lcm of their denominators: integers,
    in proportion."""
    lcm = math.lcm(*[x.denominator for x in c])
    return [x.numerator * (lcm // x.denominator) for x in c]


def is_simple_von_neumann(p: Polynomial) -> LocationResult:
    """Test whether all roots of a real polynomial lie in the closed unit
    disk with simple roots on the circle, and (`LocationResult.schur`)
    whether all lie inside, exactly.

    Recurses while |p(0)| < |p*(0)|: the reduction's leading coefficient
    is then |p*(0)|^2 - |p(0)|^2 > 0, so the degree drops by one.  Equality
    with a nonzero reduction, or |p(0)| > |p*(0)|, certifies a root outside
    the circle.  When the reduction vanishes, the same loop goes on to
    decide the Schur class of the derivative, which is then the verdict.
    Schur needs every level strict; a nonzero constant has no roots and is
    Schur.  From the fourth level on, each level is divided by its content,
    which takes back much of the doubling in length that each reduction
    makes (the third reduction of an integer polynomial is divisible by the
    leading coefficient of the first)."""
    _require_nonzero(p)
    cur = _cleared(p.coeffs)
    levels: list[LevelTest] = []
    ok, vanished = True, ()  # vanished: the level whose reduction vanished
    while len(cur) > 1:
        d = len(cur) - 1
        const2, lead2 = cur[0] * cur[0], cur[d] * cur[d]
        rel = "<" if const2 < lead2 else "=" if const2 == lead2 else ">"
        levels.append(LevelTest(d, const2, lead2, rel))
        if rel == "<":
            if d == 1:
                break
            cur = _reduce(cur)
            if len(levels) > 3:
                g = math.gcd(*cur)
                cur = [x // g for x in cur]
        elif vanished:
            ok = False  # cur, a derivative, is not Schur
            break
        elif rel == ">":
            return LocationResult(False, tuple(levels), f"|p(0)| > |p*(0)| at degree {d}")
        elif _reduce(cur):
            # Equal moduli mean the root moduli multiply to one.  Were all
            # roots on the circle the polynomial would be self-inversive and
            # the reduction would vanish identically; a nonzero reduction
            # therefore implies a root strictly outside.
            return LocationResult(False, tuple(levels),
                                  f"|p(0)| = |p*(0)| with nonzero reduction at degree {d}")
        else:
            vanished = tuple(cur)
            cur = [j * c for j, c in enumerate(cur)][1:]
    reason = (f"reduction vanished at degree {len(vanished) - 1}; derivative "
              f"{'is' if ok else 'is not'} Schur" if vanished else "reduced to a nonzero constant")
    return LocationResult(ok, tuple(levels), reason, not vanished, vanished)


def poly_roots(p: Polynomial) -> np.ndarray:
    """All roots of ``p`` via the companion matrix (descending-order solve),
    in floats read from the exact coefficients, each divided by the largest
    magnitude so that none overflows a double."""
    _require_nonzero(p)
    top = max(map(abs, p.coeffs))
    try:
        return np.roots([float(c / top) for c in reversed(p.coeffs)])
    except np.linalg.LinAlgError as exc:
        raise NumericalFailureError(f"companion eigensolve failed: {exc}") from exc


def max_root_modulus(p: Polynomial) -> float:
    """Largest root modulus; 0.0 for constants."""
    roots = poly_roots(p)
    return float(np.max(np.abs(roots))) if roots.size else 0.0
