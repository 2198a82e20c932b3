"""The five FD-TD schemes for Debye and Lorentz media.

Everything here is per-wavenumber linear algebra: physical constants map to
the dimensionless parameters (lam, delta, omega, eps_s_prime), each scheme
has a dense amplification matrix G advancing its Fourier-transformed state
one time step, built at a Courant quantity q, and the characteristic
polynomial of G in closed form.  Two-dimensional TE/TM polynomials factor
as (Z - 1) times the one-dimensional polynomial at q = q_x + q_y (times an
extra polarization factor psi for TM, read off the q = 0 polynomial).  The
factors are used one by one, so neither 2D matrices nor the expanded 2D
polynomial are ever built.

Everything that differs between the schemes lives in one `SchemeSpec` record
per scheme, collected in `SPECS`, whose formulas keep `fractions.Fraction`
parameters exact; the functions below only look the record up.  State
components are c_inf*B and E, and D, P and k*J over eps0 eps_inf.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import partial
from types import SimpleNamespace
from typing import Callable, Sequence

import numpy as np

from .errors import InvalidInputError
from .polyloc import Polynomial

# CODATA 2018 values; c_inf is always derived, never hard-coded.
EPS0 = 8.8541878128e-12  # F/m
MU0 = 1.25663706212e-6   # H/m


class Scheme(enum.Enum):
    """The five discretizations under study."""

    DEBYE_JOSEPH = "debye-joseph"
    DEBYE_YOUNG = "debye-young"
    LORENTZ_JOSEPH = "lorentz-joseph"
    LORENTZ_KASHIWA = "lorentz-kashiwa"
    LORENTZ_YOUNG = "lorentz-young"

    @property
    def spec(self) -> "SchemeSpec":
        return SPECS[self]

    @property
    def kind(self) -> str:
        return SPECS[self].kind

    @classmethod
    def from_name(cls, name: str) -> "Scheme":
        for s in cls:
            if s.value == name:
                return s
        raise InvalidInputError(f"unknown scheme {name!r}; expected one of "
                                + ", ".join(s.value for s in cls))


@dataclass(frozen=True)
class MediumModel:
    """Physical description of a Debye or Lorentz medium.

    Debye media carry a relaxation time t_r; Lorentz media carry a resonance
    frequency omega1 and damping nu (nu = 0 is the harmonic case).
    """

    kind: str
    eps_inf: float
    eps_s: float
    t_r: float | None = None
    omega1: float | None = None
    nu: float | None = None

    def __post_init__(self):
        if self.kind not in ("debye", "lorentz"):
            raise InvalidInputError(f"unknown medium kind {self.kind!r}")
        if not (self.eps_inf > 0 and math.isfinite(self.eps_inf)):
            raise InvalidInputError("eps_inf must be positive and finite")
        if not (math.isfinite(self.eps_s) and self.eps_s >= self.eps_inf):
            raise InvalidInputError("eps_s must satisfy eps_s >= eps_inf")
        if self.kind == "debye":
            if self.t_r is None or not (self.t_r > 0 and math.isfinite(self.t_r)):
                raise InvalidInputError("Debye media require a relaxation time t_r > 0")
        else:
            if self.omega1 is None or not (self.omega1 > 0 and math.isfinite(self.omega1)):
                raise InvalidInputError("Lorentz media require omega1 > 0")
            if self.nu is None or not (self.nu >= 0 and math.isfinite(self.nu)):
                raise InvalidInputError("Lorentz media require nu >= 0")

    @classmethod
    def debye(cls, eps_inf: float, eps_s: float, t_r: float) -> "MediumModel":
        return cls("debye", eps_inf, eps_s, t_r=t_r)

    @classmethod
    def lorentz(cls, eps_inf: float, eps_s: float, omega1: float,
                nu: float = 0.0) -> "MediumModel":
        return cls("lorentz", eps_inf, eps_s, omega1=omega1, nu=nu)

    @property
    def c_inf(self) -> float:
        """Infinite-frequency light speed 1/sqrt(eps0 eps_inf mu0)."""
        return 1.0 / math.sqrt(EPS0 * self.eps_inf * MU0)


@dataclass(frozen=True)
class DimensionlessParams:
    """The dimensionless parameters every amplification matrix depends on.

    lam          CFL number c_inf*k/h
    delta        normalized time step: k/(2 t_r) for Debye, nu*k/2 for Lorentz
    eps_s_prime  eps_s / eps_inf >= 1
    omega        normalized squared frequency omega1^2 k^2 / 2 (Lorentz only)
    """

    lam: float
    delta: float
    eps_s_prime: float
    omega: float | None = None

    def __post_init__(self):
        if not (self.lam > 0 and math.isfinite(self.lam)):
            raise InvalidInputError("lam must be positive and finite")
        if not (self.delta >= 0 and math.isfinite(self.delta)):
            raise InvalidInputError("delta must be nonnegative and finite")
        if not (self.eps_s_prime >= 1.0):
            raise InvalidInputError("eps_s_prime must be >= 1")
        if self.omega is not None and not (self.omega > 0 and math.isfinite(self.omega)):
            raise InvalidInputError("omega must be positive when present")

    @property
    def alpha(self) -> float:
        return self.eps_s_prime - 1

    @property
    def kind(self) -> str:
        return "debye" if self.omega is None else "lorentz"


@dataclass(frozen=True)
class Wavenumber:
    """Discrete wavenumber(s) in radians per cell; 2D when xi_y is present.

    h_x and h_y are the space steps in meters; params.lam is always tied to
    h_x, and the y-direction CFL number follows from the ratio.
    """

    xi_x: float
    xi_y: float | None = None
    h_x: float = 1.0
    h_y: float = 1.0

    def __post_init__(self):
        for name, xi in (("xi_x", self.xi_x), ("xi_y", self.xi_y)):
            if xi is None:
                continue
            if not (0.0 <= xi < 2.0 * math.pi):
                raise InvalidInputError(f"{name} must lie in [0, 2*pi)")
        if not all(h > 0 and math.isfinite(h) for h in (self.h_x, self.h_y)):
            raise InvalidInputError("space steps must be positive and finite")

    @property
    def is_2d(self) -> bool:
        return self.xi_y is not None


@dataclass(frozen=True)
class Regime:
    """A reference stability regime of a scheme, with representative
    dimensionless points (delta, eps_s_prime, omega, q).  Expected verdicts
    follow the known analysis of the scheme; one harmonic regime whose
    traditional verdict contradicts the boundedness of the actual matrix
    powers is encoded with the verdict the matrices enforce and carries an
    explanatory note."""

    label: str
    expected_stable: bool
    points: tuple[tuple[float, float, float | None, float], ...]
    note: str = ""


@dataclass(frozen=True)
class SchemeSpec:
    """Everything scheme-specific, one record per scheme.

    kind, state_labels  "debye" or "lorentz"; state components in matrix order
    q_limit             Courant limit on q of the 1D scheme
    entries             (params, u, v, q) -> update matrix rows in plain
        arithmetic, so exact (`int` or `Fraction`) at `Fraction` parameters,
        for curl couplings u (on E in the induction row) and v (on b in the
        field rows) with u*v = -q: any split with q > 0 gives a similar
        matrix (u = q, v = -1 keeps exact parameters exact), u = v = 0 the
        matrix at q = 0.
    char_poly           params -> (a, b) in plain arithmetic: the characteristic
        polynomial has ascending coefficients a_j + q*b_j; the 2D TM factor
        is derived from a (`tm_factor_2d`), so it has no field of its own
    degenerate_q        omega -> Courant value where two root couples collide
        on the unit circle (harmonic media, eps_s = eps_inf), or None
    material            params -> bind(E, aux, S, S_old, E_out, aux_out, tmp):
        the simulator's update of one field component E and its auxiliary
        arrays aux (a sequence in state_labels order), from the curl source
        S of the fresh magnetic field and S_old of the previous one (read
        only if needs_prev_source).  The factory makes the scalar
        coefficients 0-d float64 arrays once per run; bind returns the
        update as a list of bound calls, each a ufunc (or `np.copyto`)
        with its operands and output positional, that write E_out and the
        sequence aux_out in place (slot views of the next of the two
        stacked state buffers that a growth run alternates; every argument
        is one grid component).  A term x += c * y is the two calls
        multiply(c, y, tmp), add(x, tmp, x): the two roundings of the
        expression.  The calls may overwrite the scratch arrays S, S_old
        and tmp.  A hand-written grid stencil, never derived from the
        matrix, so that the simulator stays an independent referee.
    stable_q            params -> q_c, same type: every q of [0, q_max] is
        stable iff q_max < q_c, or q_max = q_c and `closed` holds.  A root of
        p_q = a + q b meets the unit circle, or two collide on it, only at q
        in {0, 2, 4, q_-1 = -a(-1)/b(-1), degenerate q} (the resultant of p_q
        and its reversal factors in closed form), so q_c is 4, 2 or q_-1 (0
        where the stable set is {0} or empty), capped at the degenerate q
        where delta = 0 and eps_s = eps_inf
    closable            False where no q_c is ever attained (Lorentz-Kashiwa,
        whose q = 4 is defective); see `closed`
    switch_k            medium -> the time step, an exact `Fraction`, after
        which an open q_c drops to 0 (Lorentz-Young at omega = 2 where eps_s
        = eps_inf), or None.  The switch keeps the q_c below it, so the
        largest stable time step can sit there, attained, short of q_c.
        (Debye-Young's drop past delta = 1 leaves a closed q_c.)
    regimes             reference stability regimes of the scheme
    verify_unstable     fractions of q_limit at which the verify plan probes
        the unstable side
    """

    kind: str
    state_labels: tuple[str, ...]
    q_limit: float
    entries: Callable[..., Sequence]
    char_poly: Callable[..., Sequence]
    degenerate_q: Callable[[float], float] | None
    material: Callable[[DimensionlessParams], Callable[..., list]]
    needs_prev_source: bool
    stable_q: Callable[[DimensionlessParams], float]
    regimes: tuple[Regime, ...]
    closable: bool = True
    switch_k: Callable[[MediumModel], Fraction | None] | None = None
    verify_unstable: tuple[float, ...] = (1.25, 1.60)

    def closed(self, params: DimensionlessParams) -> bool:
        """Whether q = q_c itself is stable, for float and `Fraction`
        parameters alike: where q_c > 0, delta > 0 and eps_s > eps_inf, except
        in a scheme that is not `closable`.  Elsewhere q_c is defective or has
        a root outside the circle."""
        return (self.closable and params.delta > 0 and params.alpha > 0
                and self.stable_q(params) > 0)


def dimensionless_params(medium: MediumModel, k: float, h: float) -> DimensionlessParams:
    """Map physical medium and steps (k seconds, h meters) to the
    dimensionless parameter set; exact when k and h are `Fraction`s, which
    then take the medium's float fields (c_inf included) as exact values."""
    if not (k > 0 and math.isfinite(k)):
        raise InvalidInputError("time step k must be positive and finite")
    if not (h > 0 and math.isfinite(h)):
        raise InvalidInputError("space step h must be positive and finite")
    num = Fraction if type(k) is Fraction else float
    lam = num(medium.c_inf) * k / h
    es = num(medium.eps_s) / num(medium.eps_inf)
    if medium.kind == "debye":
        return DimensionlessParams(lam=lam, delta=k / (2 * num(medium.t_r)), eps_s_prime=es)
    try:
        omega = num(medium.omega1) ** 2 * k ** 2 / 2
    except OverflowError:
        raise InvalidInputError("omega = omega1^2 k^2 / 2 overflows a double") from None
    return DimensionlessParams(lam=lam, delta=num(medium.nu) * k / 2, eps_s_prime=es, omega=omega)


def courant_q(params: DimensionlessParams, wn: Wavenumber) -> float:
    """Per-wavenumber Courant quantity 4 lam^2 sin^2(xi/2), summed over
    directions in 2D (with per-direction CFL numbers)."""
    lam_x = params.lam
    q = 4.0 * lam_x * lam_x * math.sin(wn.xi_x / 2.0) ** 2
    if wn.is_2d:
        lam_y = lam_x * wn.h_x / wn.h_y
        q += 4.0 * lam_y * lam_y * math.sin(wn.xi_y / 2.0) ** 2
    if not math.isfinite(q):
        raise InvalidInputError("lam^2 = (c_inf k / h)^2 overflows a double")
    return q


def xi_for_q(q: float, lam: float) -> float | None:
    """Inverse of the 1D courant_q: the wavenumber in [0, pi] attaining q
    for CFL number lam, or None when no wavenumber does."""
    if q < 0:
        return None
    arg = math.sqrt(q) / (2.0 * lam)
    return 2.0 * math.asin(arg) if arg <= 1 else None


def _check_scheme_params(scheme: Scheme, params: DimensionlessParams, q: float = 0) -> None:
    if scheme.kind != params.kind:
        raise InvalidInputError(
            f"{scheme.value} requires {scheme.kind} parameters, got {params.kind}")
    if scheme.kind == "debye" and params.delta <= 0:
        raise InvalidInputError("Debye schemes require delta > 0")
    if not q >= 0 or type(q) is not Fraction and q == math.inf:
        raise InvalidInputError("q must be nonnegative and finite")


def char_poly_closed(scheme: Scheme, params: DimensionlessParams, q: float) -> Polynomial:
    """Closed-form characteristic polynomial p_q = a + q b (ascending, real,
    positive leading coefficient; cubic for Debye, quartic for Lorentz),
    exact, a float q read as the double it is: `Fraction`s at `Fraction`
    parameters, and at floats p_q of the doubles' values times an integer."""
    _check_scheme_params(scheme, params, q)
    q = q if type(q) is Fraction else Fraction(q)
    if type(params.eps_s_prime) is Fraction:
        a, b = scheme.spec.char_poly(params)
        return Polynomial([x + q * y for x, y in zip(a, b)])
    d, es = map(_dyadic, (params.delta, params.eps_s_prime))
    w = params.omega and _dyadic(params.omega)  # None for Debye media
    a, b = scheme.spec.char_poly(SimpleNamespace(delta=d, eps_s_prime=es, alpha=es - 1, omega=w))
    e = min([0] + [x.e for x in (*a, *b) if type(x) is _Dyadic])
    ab = [x.m << (x.e - e) if type(x) is _Dyadic else x << -e for x in (*a, *b)]
    n, m = q.as_integer_ratio()
    return Polynomial([m * x + n * y for x, y in zip(ab, ab[len(a):])])


class _Dyadic:
    """The exact value m 2^e of a double, closed under +, - and * with its
    kind and ints, and under halving: the record formulas run on it
    unchanged, with no gcd per operation.  Each operation fills a bare
    instance (`_new`), which costs less than an __init__ call."""

    __slots__ = ("m", "e")

    def __add__(self, other):
        x, m, e = _new(_Dyadic), self.m, self.e
        n, f = (other, 0) if type(other) is int else (other.m, other.e)
        x.m, x.e = (m + (n << (f - e)), e) if e <= f else ((m << (e - f)) + n, f)
        return x

    __radd__ = __add__

    def __sub__(self, other):
        return self + -other

    def __rsub__(self, other):  # other - self, for an int other
        x, m, e = _new(_Dyadic), self.m, self.e
        x.m, x.e = ((other << -e) - m, e) if e <= 0 else (other - (m << e), 0)
        return x

    def __neg__(self):
        x = _new(_Dyadic)
        x.m, x.e = -self.m, self.e
        return x

    def __mul__(self, other):
        x = _new(_Dyadic)
        n, f = (other, 0) if type(other) is int else (other.m, other.e)
        x.m, x.e = self.m * n, self.e + f
        return x

    __rmul__ = __mul__

    def __truediv__(self, other):  # halving, the one division of the record formulas
        return self * _HALF if other == 2 else NotImplemented


def _dyadic(v: float) -> _Dyadic:
    x, (m, d) = _new(_Dyadic), v.as_integer_ratio()
    x.m, x.e = m, 1 - d.bit_length()  # d is a power of two
    return x


_new = object.__new__
_HALF = _dyadic(0.5)


def tm_factor_2d(scheme: Scheme, params: DimensionlessParams) -> Polynomial:
    """The extra polynomial factor psi of the 2D transverse-magnetic system
    (degree 1 for Debye schemes, degree 2 for Lorentz schemes).

    At q = 0 the closed-form polynomial is (Z - 1)^2 psi(Z): the magnetic
    mode and the static field each give Z = 1, and psi is the rest of the
    curl-free material block, the block that the TM field's curl-free part
    evolves by.  So psi shares the end coefficients a_0 and a_top of the
    q = 0 polynomial, and a middle coefficient follows from the low-end
    recurrence psi_j = a_j + 2 psi_(j-1) - psi_(j-2), exact on the a of
    `char_poly_closed` at q = 0 and in its positive scale."""
    a = char_poly_closed(scheme, params, Fraction(0)).coeffs
    psi = [0, 0]  # psi_(-2), psi_(-1)
    for a_j in a[:-3]:
        psi.append(a_j + 2 * psi[-1] - psi[-2])
    return Polynomial((*psi[2:], a[-1]))


# ---------------------------------------------------------------------------
# The five scheme records.
# ---------------------------------------------------------------------------

# The material updates are lists of bound ufunc calls with positional
# outputs.  A coefficient is bound as a 0-d float64 array: a Python float
# is converted on every call (a bound 24-cell multiply took 0.89 us with
# a float and 0.67 us with a 0-d array, NumPy 2.4 on a 2-core Xeon).

def _coefficients(*values):
    return [np.array(v, dtype=float) for v in values]


def _accumulate(op, x, c, y, tmp):
    """x = op(x, c * y), as the two calls of its two roundings."""
    return [partial(np.multiply, c, y, tmp), partial(op, x, tmp, x)]


def _harmonic_cap(p, q_c, degenerate_q):
    """A Lorentz scheme's q_c, capped at its degenerate q where delta = 0 and
    eps_s = eps_inf: two root couples collide on the circle there."""
    return min(q_c, degenerate_q(p.omega)) if p.delta == 0 and p.alpha == 0 else q_c


# debye-joseph: state (b, E, d).

def _dj_entries(p, u, v, q):
    d, es = p.delta, p.eps_s_prime
    A = 1 + d * es
    return [
        [1, -u, 0],
        [-(1 + d) * v / A, ((1 - d * es) - (1 + d) * q) / A, 2 * d / A],
        [-v, -q, 1],
    ]


def _dj_char_poly(p):
    d, de = p.delta, p.delta * p.eps_s_prime
    return ((-(1 - de), 3 - de, -(3 + de), 1 + de),
            (0, -(1 - d), 1 + d, 0))


def _dj_material(p):
    d, es = p.delta, p.eps_s_prime
    c_E, c_flux, c_d, den = _coefficients(1.0 - d * es, 1.0 + d, 1.0 - d, 1.0 + d * es)

    def bind(E, aux, S, S_old, E_out, aux_out, tmp):
        (dd,), (flux,) = aux, aux_out
        # E_out = ((1 - d es) E + (1 + d) flux - (1 - d) dd) / (1 + d es)
        return [partial(np.add, dd, S, flux),
                partial(np.multiply, c_E, E, E_out),
                *_accumulate(np.add, E_out, c_flux, flux, tmp),
                *_accumulate(np.subtract, E_out, c_d, dd, tmp),
                partial(np.divide, E_out, den, E_out)]
    return bind


_DJ_REGIMES = (
    Regime("0<q<4, eps_s>eps_inf", True,
           ((0.3, 2.0, None, 2.0), (0.1, 45.0, None, 1.0))),
    Regime("0<q<4, eps_s=eps_inf", True, ((0.3, 1.0, None, 2.0),)),
    Regime("q=0", True, ((0.3, 2.0, None, 0.0), (0.3, 1.0, None, 0.0))),
    Regime("q=4, eps_s>eps_inf", True, ((0.3, 2.0, None, 4.0),)),
    Regime("q=4, eps_s=eps_inf", False, ((0.3, 1.0, None, 4.0),)),
)


# debye-young: state (b, E, p), p held at half time steps.

def _dy_entries(p, u, v, q):
    d, a = p.delta, p.alpha
    A, B = 1 + d * a, 1 + d
    return [
        [1, -u, 0],
        [-v / A, (1 + d - d * a + 3 * d * d * a - B * q) / (B * A),
         (1 - d) / B * 2 * d / A],
        [0, 2 * d * a / B, (1 - d) / B],
    ]


def _dy_char_poly(p):
    d, a = p.delta, p.alpha
    da, dda3, dm, dp = d * a, 3 * d * d * a, 1 - d, 1 + d
    return ((-(1 - da) * dm, 3 - d - da + dda3, -(3 + d + da + dda3), (1 + da) * dp),
            (0, -dm, dp, 0))


def _dy_material(p):
    d, a = p.delta, p.alpha
    c_p, c_pE, den_p, c_E, c_pol, den_E = _coefficients(
        1.0 - d, 2.0 * d * a, 1.0 + d, 1.0 - d * a, 2.0 * d, 1.0 + d * a)

    def bind(E, aux, S, S_old, E_out, aux_out, tmp):
        (pol,), (pol_out,) = aux, aux_out
        # pol_out = ((1 - d) pol + 2 d a E) / (1 + d)
        # E_out = ((1 - d a) E + S + 2 d pol_out) / (1 + d a)
        return [partial(np.multiply, c_p, pol, pol_out),
                *_accumulate(np.add, pol_out, c_pE, E, tmp),
                partial(np.divide, pol_out, den_p, pol_out),
                partial(np.multiply, c_E, E, E_out),
                partial(np.add, E_out, S, E_out),
                *_accumulate(np.add, E_out, c_pol, pol_out, tmp),
                partial(np.divide, E_out, den_E, E_out)]
    return bind


_DY_REGIMES = (
    Regime("0<q<=4, eps_s>eps_inf, 0<delta<1", True,
           ((0.5, 2.0, None, 2.0), (0.5, 2.0, None, 4.0))),
    Regime("0<q<4, eps_s=eps_inf, delta>0", True,
           ((0.5, 1.0, None, 2.0), (1.5, 1.0, None, 2.0))),
    Regime("q=0, delta>0", True, ((0.5, 2.0, None, 0.0), (1.5, 2.0, None, 0.0))),
    Regime("0<q<=4, eps_s>eps_inf, delta=1", True,
           ((1.0, 2.0, None, 2.0), (1.0, 2.0, None, 4.0))),
    Regime("q=4, eps_s=eps_inf, delta>0", False, ((0.5, 1.0, None, 4.0),)),
)


# lorentz-joseph: state (b, E, E_prev, d).

def _lj_entries(p, u, v, q):
    d, es, w = p.delta, p.eps_s_prime, p.omega
    A = 1 + d + w * es
    C = 1 - d + w * es
    # The E_prev coupling is -C/A, the sign the second-order field
    # recurrence and the characteristic polynomial both require.
    return [
        [1, -u, 0, 0],
        [-2 * d * v / A, (2 - q * (1 + d + w)) / A, -C / A, 2 * w / A],
        [0, 1, 0, 0],
        [-v, -q, 0, 1],
    ]


def _lj_char_poly(p):
    d, es, w = p.delta, p.eps_s_prime, p.omega
    dm, dp, d2, we, we2 = 1 - d, 1 + d, 2 * d, w * es, 2 * w * es
    return ((dm + we, -(4 - d2 + we2), 6 + we2, -(4 + d2 + we2), dp + we),
            (0, dm + w, -2, dp + w, 0))


def _lj_degenerate_q(w):
    return 2 * w / (1 + w)


def _lj_material(p):
    d, es, w = p.delta, p.eps_s_prime, p.omega
    A, C, c_flux, c_prev, two = _coefficients(
        1.0 + d + w * es, 1.0 - d + w * es, 1.0 + d + w, 1.0 - d + w, 2.0)

    def bind(E, aux, S, S_old, E_out, aux_out, tmp):
        (E_prev, dd), (E_prev_out, flux) = aux, aux_out
        flux_prev = S_old
        # E_out = (2 E - C E_prev + (1 + d + w) flux - 2 dd
        #          + (1 - d + w) flux_prev) / A
        return [partial(np.add, dd, S, flux),
                partial(np.subtract, dd, S_old, flux_prev),
                partial(np.multiply, two, E, E_out),
                *_accumulate(np.subtract, E_out, C, E_prev, tmp),
                *_accumulate(np.add, E_out, c_flux, flux, tmp),
                *_accumulate(np.subtract, E_out, two, dd, tmp),
                *_accumulate(np.add, E_out, c_prev, flux_prev, tmp),
                partial(np.divide, E_out, A, E_out),
                partial(np.copyto, E_prev_out, E)]
    return bind


_LJ_REGIMES = (
    Regime("anharmonic: 0<q<2, eps_s>eps_inf", True, ((0.3, 2.0, 0.8, 1.0),)),
    Regime("anharmonic: 0<q<=2, eps_s=eps_inf", True,
           ((0.3, 1.0, 0.8, 1.0), (0.3, 1.0, 0.8, 2.0))),
    Regime("anharmonic: q=0", True, ((0.3, 2.0, 0.8, 0.0),)),
    Regime("anharmonic: q=2", True, ((0.3, 2.0, 0.8, 2.0),)),
    Regime("harmonic: 0<q<2, eps_s>eps_inf", True, ((0.0, 2.0, 0.8, 1.0),)),
    Regime("harmonic: 0<q<=2, eps_s=eps_inf (degenerate q reached)", False,
           ((0.0, 1.0, 0.8, _lj_degenerate_q(0.8)),)),
    Regime("harmonic: q=0", True, ((0.0, 2.0, 0.8, 0.0), (0.0, 1.0, 0.8, 0.0))),
    Regime("harmonic: q=2", True, ((0.0, 2.0, 0.8, 2.0), (0.0, 1.0, 0.8, 2.0))),
)


# lorentz-kashiwa: state (b, E, p, j).

def _lk_denominator(p):
    """Denominator of the implicit polarization solve; always above 1."""
    return 1 + p.delta + p.omega * p.eps_s_prime / 2


def _lk_entries(p, u, v, q):
    w, a = p.omega, p.alpha
    D = _lk_denominator(p)
    gwa = w * a / 2
    return [
        [1, -u, 0, 0],
        [-v * (D - gwa) / D, (D - q * D - (2 - q) * gwa) / D, w / D, -1 / D],
        [-v * gwa / D, (2 - q) * gwa / D, (D - w) / D, 1 / D],
        [-v * w * a / D, (2 - q) * w * a / D, -2 * w / D, (2 - D) / D],
    ]


def _lk_char_poly(p):
    d, w = p.delta, p.omega
    dm, dp, d2, we, wh = 1 - d, 1 + d, 2 * d, w * p.eps_s_prime, w / 2
    return ((dm + we / 2, -(4 - d2), 6 - we, -(4 + d2), dp + we / 2),
            (0, dm + wh, w - 2, dp + wh, 0))


def _lk_degenerate_q(w):
    return 2 * w / (1 + w / 2)


def _lk_material(p):
    w, a = p.omega, p.alpha
    den = _lk_denominator(p)
    c_j, c_E, c_S, c_p, den, half = _coefficients(
        2.0 - den, 2.0 * w * a, w * a, 2.0 * w, den, 0.5)

    def bind(E, aux, S, S_old, E_out, aux_out, tmp):
        (pol, cur), (pol_out, cur_out) = aux, aux_out
        # cur_out = ((2 - den) cur + 2 w a E + w a S - 2 w pol) / den
        # pol_out = pol + 0.5 (cur_out + cur)
        # E_out = E + S - (pol_out - pol)
        return [partial(np.multiply, c_j, cur, cur_out),
                *_accumulate(np.add, cur_out, c_E, E, tmp),
                *_accumulate(np.add, cur_out, c_S, S, tmp),
                *_accumulate(np.subtract, cur_out, c_p, pol, tmp),
                partial(np.divide, cur_out, den, cur_out),
                partial(np.add, cur_out, cur, pol_out),
                partial(np.multiply, pol_out, half, pol_out),
                partial(np.add, pol_out, pol, pol_out),
                partial(np.add, E, S, E_out),
                partial(np.subtract, pol_out, pol, tmp),
                partial(np.subtract, E_out, tmp, E_out)]
    return bind


_LK_REGIMES = (
    Regime("anharmonic: 0<q<4, eps_s>eps_inf", True, ((0.3, 2.0, 0.8, 2.0),)),
    Regime("anharmonic: 0<q<4, eps_s=eps_inf", True, ((0.3, 1.0, 0.8, 2.0),)),
    Regime("anharmonic: q=0", True, ((0.3, 2.0, 0.8, 0.0),)),
    Regime("anharmonic: q=4", False, ((0.3, 2.0, 0.8, 4.0), (0.3, 1.0, 0.8, 4.0))),
    Regime("harmonic: 0<q<4 (away from the degenerate q)", True,
           ((0.0, 2.0, 0.8, 2.0), (0.0, 1.0, 0.8, 2.0))),
    Regime("harmonic: q=0", True, ((0.0, 2.0, 0.8, 0.0),)),
    Regime("harmonic: q=4", False, ((0.0, 2.0, 0.8, 4.0), (0.0, 1.0, 0.8, 4.0))),
)


# lorentz-young: state (b, E, p, j), j held at half time steps.

def _ly_entries(p, u, v, q):
    d, w, a = p.delta, p.omega, p.alpha
    B = 1 + d
    return [
        [1, -u, 0, 0],
        [-v, ((1 - q) * B - 2 * w * a) / B, 2 * w / B, -(1 - d) / B],
        [0, 2 * w * a / B, (B - 2 * w) / B, (1 - d) / B],
        [0, 2 * w * a / B, -2 * w / B, (1 - d) / B],
    ]


def _ly_char_poly(p):
    d, w = p.delta, p.omega
    dm, dp, d2, we2 = 1 - d, 1 + d, 2 * d, 2 * w * p.eps_s_prime
    return ((dm, -(4 - d2 - we2), 2 * (3 - we2), -(4 + d2 - we2), dp),
            (0, dm, 2 * (w - 1), dp, 0))


def _ly_degenerate_q(w):
    return 2 * w


def _ly_stable_q(p):
    w, es = p.omega, p.eps_s_prime
    if w * es < 2:
        q_c = 4 * (2 - w * es) / (2 - w)
    else:
        # At omega = 2 and eps_s = eps_inf, q_-1 is 0/0; a damped medium
        # keeps the q_c = 4 of smaller omega there, and loses it just past.
        q_c = 4 if w == 2 and es == 1 and p.delta > 0 else 0
    return _harmonic_cap(p, q_c, _ly_degenerate_q)


def _ly_material(p):
    d, w, a = p.delta, p.omega, p.alpha
    c_j, c_E, c_p, den = _coefficients(1.0 - d, 2.0 * w * a, 2.0 * w, 1.0 + d)

    def bind(E, aux, S, S_old, E_out, aux_out, tmp):
        (pol, cur), (pol_out, cur_out) = aux, aux_out
        # cur_out = ((1 - d) cur + 2 w a E - 2 w pol) / (1 + d)
        # E_out = E + S - cur_out
        return [partial(np.multiply, c_j, cur, cur_out),
                *_accumulate(np.add, cur_out, c_E, E, tmp),
                *_accumulate(np.subtract, cur_out, c_p, pol, tmp),
                partial(np.divide, cur_out, den, cur_out),
                partial(np.add, pol, cur_out, pol_out),
                partial(np.add, E, S, E_out),
                partial(np.subtract, E_out, cur_out, E_out)]
    return bind


# The omega = lim = 2/(2 eps_s' - 1) points take eps_s' = 1.5, omega = 1:
# both are exact doubles, so the exact decision sees the limit itself (the
# double nearest 2/3 lies below it).
_LY_REGIMES = (
    Regime("anharmonic: 0<q<2, eps_s>eps_inf, omega<=lim", True,
           ((0.3, 2.0, 0.5, 1.0), (0.3, 1.5, 1.0, 1.0))),
    Regime("anharmonic: q=2, eps_s>eps_inf, omega<lim", True, ((0.3, 2.0, 0.5, 2.0),)),
    Regime("anharmonic: 0<q<=2, eps_s=eps_inf, omega<2", True,
           ((0.3, 1.0, 1.0, 1.0), (0.3, 1.0, 1.9, 2.0))),
    Regime("anharmonic: 0<q<=2, eps_s=eps_inf, omega=2", True,
           ((0.3, 1.0, 2.0, 1.0), (0.3, 1.0, 2.0, 2.0))),
    Regime("anharmonic: q=2, eps_s>eps_inf, omega=lim", True, ((0.3, 1.5, 1.0, 2.0),)),
    Regime("anharmonic: q=0, omega<=lim", True,
           ((0.3, 2.0, 0.5, 0.0), (0.3, 1.0, 2.0, 0.0))),
    Regime("harmonic: 0<q<2, eps_s>eps_inf, omega<=lim", True, ((0.0, 2.0, 0.5, 1.0),)),
    Regime("harmonic: q=2, eps_s>eps_inf, omega<lim", True, ((0.0, 2.0, 0.5, 2.0),)),
    Regime("harmonic: 0<q<=2, eps_s=eps_inf, omega<2 (degenerate q reached)", False,
           ((0.0, 1.0, 0.5, 1.0),)),
    Regime("harmonic: 0<q<=2, eps_s=eps_inf, omega=2", False,
           ((0.0, 1.0, 2.0, 1.0), (0.0, 1.0, 2.0, 2.0)),
           note="traditionally quoted stable, but the eigenvalue -1 of the "
                "update matrix is defective here (exact integer rank test) "
                "and the powers grow linearly; encoded with the boundedness "
                "verdict"),
    Regime("harmonic: q=2, eps_s>eps_inf, omega=lim", False, ((0.0, 1.5, 1.0, 2.0),)),
    Regime("harmonic: q=0, omega<=lim (stable subcases)", True,
           ((0.0, 2.0, 0.5, 0.0), (0.0, 1.0, 1.0, 0.0))),
    Regime("harmonic: q=0, eps_s=eps_inf, omega=2", False, ((0.0, 1.0, 2.0, 0.0),)),
)


SPECS: dict[Scheme, SchemeSpec] = {
    Scheme.DEBYE_JOSEPH: SchemeSpec(
        "debye", ("b", "E", "d"), q_limit=4.0, entries=_dj_entries,
        char_poly=_dj_char_poly, degenerate_q=None,
        material=_dj_material, needs_prev_source=False,
        stable_q=lambda p: 4, regimes=_DJ_REGIMES),
    Scheme.DEBYE_YOUNG: SchemeSpec(
        "debye", ("b", "E", "p"), q_limit=4.0, entries=_dy_entries,
        char_poly=_dy_char_poly, degenerate_q=None,
        material=_dy_material, needs_prev_source=False,
        stable_q=lambda p: (4 * (1 + p.delta ** 2 * p.alpha)
                            if p.delta <= 1 or p.alpha == 0 else 0),
        regimes=_DY_REGIMES),
    Scheme.LORENTZ_JOSEPH: SchemeSpec(
        "lorentz", ("b", "E", "E_prev", "d"), q_limit=2.0, entries=_lj_entries,
        char_poly=_lj_char_poly, degenerate_q=_lj_degenerate_q,
        material=_lj_material, needs_prev_source=True,
        stable_q=lambda p: _harmonic_cap(
            p, 2 if p.delta > 0 and p.alpha > 0
            else 4 * (2 + p.omega * p.eps_s_prime) / (2 + p.omega), _lj_degenerate_q),
        regimes=_LJ_REGIMES,
        # Weakly damped media leave only a ~1e-4 per-step growth just past
        # q = 2; use stronger violations.
        verify_unstable=(1.25 + 0.35, 1.60 + 0.35)),
    Scheme.LORENTZ_KASHIWA: SchemeSpec(
        "lorentz", ("b", "E", "p", "j"), q_limit=4.0, entries=_lk_entries,
        char_poly=_lk_char_poly, degenerate_q=_lk_degenerate_q,
        material=_lk_material, needs_prev_source=False,
        stable_q=lambda p: _harmonic_cap(p, 4, _lk_degenerate_q), regimes=_LK_REGIMES,
        closable=False),
    Scheme.LORENTZ_YOUNG: SchemeSpec(
        "lorentz", ("b", "E", "p", "j"), q_limit=2.0, entries=_ly_entries,
        char_poly=_ly_char_poly, degenerate_q=_ly_degenerate_q,
        material=_ly_material, needs_prev_source=False,
        stable_q=_ly_stable_q, regimes=_LY_REGIMES,
        switch_k=lambda m: 2 / Fraction(m.omega1) if m.eps_s == m.eps_inf else None,
        # The damped boundary is soft; drive it clearly past the limit.
        verify_unstable=(1.0 + 0.9 * (1.25 - 1.0) + 0.8, 1.0 + 0.9 * (1.60 - 1.0) + 0.8)),
}
