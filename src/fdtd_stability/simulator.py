"""Time-stepping kernels for the five schemes on periodic grids.

The simulator is the empirical referee for the analyzer: it advances real
field arrays (1D, or 2D in TE/TM polarization) and reports how the sup-norm
of the state grows.  A single discrete harmonic evolves exactly by the
per-wavenumber update matrix, which the tests exploit as the central
cross-module check.

Fields live on the usual staggered grids, stored in the analyzer's
normalized units (c_inf*B, E, D/(eps0 eps_inf), P/(eps0 eps_inf),
k*J/(eps0 eps_inf)).  Array index j holds the value at the half-shifted
position for the staggered components, so the Fourier coefficients of the
arrays are directly the components of the analyzer's state vector.

The periodic differences are slicing stencils: ``a[1:] - a[:-1]`` and the
one wrapped row or column, written into a single result array.  They do
the arithmetic of ``np.roll(a, -1) - a`` element by element, so norm
histories are bit for bit those of the roll stencil, with far fewer NumPy
calls per step on the small grids of the verify sweep.  A non-finite entry
anywhere in the state, NaN included, is overflow: it ends a growth run.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .analyzer import Argument, StabilityVerdict
from .errors import InvalidInputError
from .schemes import DimensionlessParams, MediumModel, Scheme, Wavenumber, dimensionless_params

# A run is growing when the sup-norm exceeds GROWTH_NORM_FACTOR times the
# initial norm, or the tail-half geometric per-step factor exceeds
# 1 + GROWTH_RATE_TOL.
GROWTH_NORM_FACTOR = 1e3
GROWTH_RATE_TOL = 1e-4


@dataclass(frozen=True)
class FieldState:
    """Field arrays of one scheme at one time level."""

    scheme: Scheme
    polarization: str | None  # None in 1D
    arrays: dict[str, np.ndarray]
    h_ratio: float = 1.0  # h_x / h_y

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return next(iter(self.arrays.values())).shape

    def sup_norm(self) -> float:
        """Largest absolute entry over all arrays; NaN if any entry is NaN
        (Python's ``max`` would drop a NaN that follows a finite value)."""
        norm = 0.0
        for a in self.arrays.values():
            peak = float(abs(a).max())
            if math.isnan(peak):
                return peak
            norm = max(norm, peak)
        return norm


@dataclass(frozen=True)
class GrowthReport:
    """Norm history of a run with the boundedness verdict."""

    steps: int
    per_step_factor: float
    max_norm_ratio: float
    verdict: str  # "bounded" | "growing"
    norms: np.ndarray
    overflow_step: int | None = None


# Material (auxiliary) labels of each scheme: its state labels but b and E.
_AUX_LABELS = {s: tuple(l for l in s.spec.state_labels if l not in ("b", "E"))
               for s in Scheme}


def _check_harmonic(xi: float, n: int) -> None:
    m = xi * n / (2.0 * math.pi)
    if abs(m - round(m)) > 1e-9:
        raise InvalidInputError(
            f"xi={xi!r} is not a harmonic of a {n}-cell periodic grid")


def init_plane_wave(scheme: Scheme, grid: int | tuple[int, int], wn: Wavenumber,
                    amplitude: float, polarization: str | None = None) -> FieldState:
    """All state variables set from one real sinusoid, each sampled on its
    own staggered grid.  The wavenumber must be an exact grid harmonic."""
    if amplitude == 0 or not math.isfinite(amplitude):
        raise InvalidInputError("amplitude must be nonzero and finite")
    aux = _AUX_LABELS[scheme]
    if not wn.is_2d:
        if not isinstance(grid, int):
            raise InvalidInputError("1D runs take a single grid size")
        if grid < 4:
            raise InvalidInputError("grid size must be at least 4")
        _check_harmonic(wn.xi_x, grid)
        j = np.arange(grid, dtype=float)
        wave = lambda shift: amplitude * np.cos(wn.xi_x * (j + shift))
        arrays = {"b": wave(0.5), "E": wave(0.0)}
        for label in aux:
            arrays[label] = wave(0.0)
        return FieldState(scheme, None, arrays)
    if polarization not in ("te", "tm"):
        raise InvalidInputError("2D runs need polarization 'te' or 'tm'")
    nx, ny = (grid, grid) if isinstance(grid, int) else grid
    if nx < 4 or ny < 4:
        raise InvalidInputError("grid sizes must be at least 4")
    _check_harmonic(wn.xi_x, nx)
    _check_harmonic(wn.xi_y, ny)
    ii = np.arange(nx, dtype=float)[:, None]
    jj = np.arange(ny, dtype=float)[None, :]

    def wave(sx, sy):
        return amplitude * np.cos(wn.xi_x * (ii + sx) + wn.xi_y * (jj + sy))

    h_ratio = wn.h_x / wn.h_y
    if polarization == "te":
        arrays = {"b_x": wave(0.0, 0.5), "b_y": wave(0.5, 0.0), "E": wave(0.0, 0.0)}
        for label in aux:
            arrays[label] = wave(0.0, 0.0)
        return FieldState(scheme, "te", arrays, h_ratio=h_ratio)
    arrays = {"b_z": wave(0.5, 0.5), "E_x": wave(0.5, 0.0), "E_y": wave(0.0, 0.5)}
    for label in aux:
        arrays[label + "_x"] = wave(0.5, 0.0)
        arrays[label + "_y"] = wave(0.0, 0.5)
    return FieldState(scheme, "tm", arrays, h_ratio=h_ratio)


def _dfwd(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Periodic forward difference a[j+1] - a[j] along axis 0 or 1."""
    out = np.empty_like(a, order="C")
    if axis == 0:
        np.subtract(a[1:], a[:-1], out=out[:-1])
        np.subtract(a[:1], a[-1:], out=out[-1:])
    else:
        # Along rows, difference the flattened array in one contiguous pass
        # (row-by-row slices are about twice as slow on wide grids), then
        # let the wrapped last column overwrite the entries that straddle
        # two rows.
        src, dst = a.reshape(-1), out.reshape(-1)
        np.subtract(src[1:], src[:-1], out=dst[:-1])
        np.subtract(a[:, :1], a[:, -1:], out=out[:, -1:])
    return out


def _dback(a: np.ndarray, axis: int = 0) -> np.ndarray:
    """Periodic backward difference a[j] - a[j-1] along axis 0 or 1."""
    out = np.empty_like(a, order="C")
    if axis == 0:
        np.subtract(a[1:], a[:-1], out=out[1:])
        np.subtract(a[:1], a[-1:], out=out[:1])
    else:
        src, dst = a.reshape(-1), out.reshape(-1)
        np.subtract(src[1:], src[:-1], out=dst[1:])
        np.subtract(a[:, :1], a[:, -1:], out=out[:, :1])
    return out


def step(scheme: Scheme, state: FieldState, params: DimensionlessParams) -> FieldState:
    """One full leapfrog cycle: magnetic half-step, then field/material
    updates, periodic in every direction."""
    if state.scheme is not scheme:
        raise InvalidInputError("state was initialized for a different scheme")
    lam = params.lam
    arr = state.arrays
    spec = scheme.spec
    aux_labels = _AUX_LABELS[scheme]
    pol = state.polarization
    lam_x = lam
    lam_y = lam * state.h_ratio
    if pol is None:
        b_old = arr["b"]
        b = b_old - lam * _dfwd(arr["E"])
        S = -lam * _dback(b)
        S_old = -lam * _dback(b_old) if spec.needs_prev_source else None
        E_new, aux_new = spec.material(params, arr["E"],
                                       {l: arr[l] for l in aux_labels}, S, S_old)
        out = {"b": b, "E": E_new, **aux_new}
    elif pol == "te":
        bx = arr["b_x"] - lam_y * _dfwd(arr["E"], 1)
        by = arr["b_y"] + lam_x * _dfwd(arr["E"], 0)
        S = lam_x * _dback(by, 0) - lam_y * _dback(bx, 1)
        S_old = (lam_x * _dback(arr["b_y"], 0) - lam_y * _dback(arr["b_x"], 1)) \
            if spec.needs_prev_source else None
        E_new, aux_new = spec.material(params, arr["E"],
                                       {l: arr[l] for l in aux_labels}, S, S_old)
        out = {"b_x": bx, "b_y": by, "E": E_new, **aux_new}
    else:
        # TM: one magnetic component, two field components with their own
        # auxiliary variables.
        bz_old = arr["b_z"]
        bz = bz_old - lam_x * _dfwd(arr["E_y"], 0) + lam_y * _dfwd(arr["E_x"], 1)
        out = {"b_z": bz}
        for comp, sign, axis in (("x", +1.0, 1), ("y", -1.0, 0)):
            lam_c = lam_y if comp == "x" else lam_x
            S = sign * lam_c * _dback(bz, axis)
            S_old = sign * lam_c * _dback(bz_old, axis) if spec.needs_prev_source else None
            aux = {l: arr[f"{l}_{comp}"] for l in aux_labels}
            E_new, aux_new = spec.material(params, arr[f"E_{comp}"], aux, S, S_old)
            out[f"E_{comp}"] = E_new
            out.update({f"{l}_{comp}": v for l, v in aux_new.items()})
    return FieldState(scheme, pol, out, state.h_ratio)


def fourier_mode(state: FieldState, m: int) -> np.ndarray:
    """Complex amplitude of grid mode m for each state component, ordered
    like the scheme's update-matrix state vector (1D only)."""
    if state.polarization is not None:
        raise InvalidInputError("fourier_mode is defined for 1D states")
    n = state.grid_shape[0]
    return np.array([np.fft.fft(state.arrays[l])[m] / n
                     for l in state.scheme.spec.state_labels])


def _tail_factor(norms: np.ndarray) -> float:
    """Geometric per-step growth factor over the last half of the run,
    estimated by the least-squares slope of log(norm) (robust against the
    bounded oscillation of on-circle modes)."""
    tail = norms[len(norms) // 2:]
    tail = np.maximum(tail, 1e-300)
    if len(tail) < 2:
        return 1.0
    t = np.arange(len(tail), dtype=float)
    slope = np.polyfit(t, np.log(tail), 1)[0]
    return float(np.exp(slope))


def linear_fit_residual(norms: np.ndarray) -> float:
    """Relative residual of the best straight-line fit to the norm history;
    small values mean the growth is linear rather than exponential.

    Standing-wave initial data make the instantaneous sup-norm pulsate, so
    the fit runs on the running maximum (the growth envelope)."""
    if not np.all(np.isfinite(norms)):
        return float("inf")
    env = np.maximum.accumulate(norms)
    env = env / env[-1]
    t = np.arange(len(env), dtype=float)
    coeffs = np.polyfit(t, env, 1)
    resid = env - np.polyval(coeffs, t)
    return float(np.linalg.norm(resid) / np.linalg.norm(env))


def run_growth(scheme: Scheme, medium: MediumModel, k: float, h: float,
               wn: Wavenumber, steps: int, polarization: str | None = None,
               grid: int | tuple[int, int] = 64,
               amplitude: float = 1.0) -> GrowthReport:
    """Evolve a plane wave and record the sup-norm per step.

    Overflow (non-finite values) stops the run early and is reported as
    growth, not as an error.
    """
    if steps < 100:
        raise InvalidInputError("growth runs need at least 100 steps")
    if medium.kind != scheme.kind:
        raise InvalidInputError(f"{scheme.value} cannot run in a {medium.kind} medium")
    params = dimensionless_params(medium, k, h)
    state = init_plane_wave(scheme, grid, wn, amplitude, polarization=polarization)
    norms = np.empty(steps + 1)
    norms[0] = state.sup_norm()
    overflow_step = None
    used = steps
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            state = step(scheme, state, params)
            v = state.sup_norm()
            if not math.isfinite(v):
                overflow_step = i
                used = i - 1
                break
            norms[i] = v
    norms = norms[:used + 1]
    factor = _tail_factor(norms)
    max_ratio = float(np.max(norms) / norms[0])
    growing = (overflow_step is not None
               or max_ratio > GROWTH_NORM_FACTOR
               or factor > 1.0 + GROWTH_RATE_TOL)
    return GrowthReport(steps=used, per_step_factor=factor,
                        max_norm_ratio=max_ratio,
                        verdict="growing" if growing else "bounded",
                        norms=norms, overflow_step=overflow_step)


def empirical_verdict(report: GrowthReport) -> StabilityVerdict:
    """Bridge a growth report into the analyzer's verdict vocabulary."""
    if report.verdict == "bounded":
        return StabilityVerdict(True, Argument.EMPIRICAL,
                                f"bounded: max norm ratio {report.max_norm_ratio:.4g} "
                                f"over {report.steps} steps")
    if report.overflow_step is not None:
        return StabilityVerdict(False, Argument.EMPIRICAL,
                                f"overflow at step {report.overflow_step} "
                                "(exponential growth)")
    if report.per_step_factor < 1.001 and linear_fit_residual(report.norms) < 0.05:
        return StabilityVerdict(False, Argument.EMPIRICAL,
                                "norm grows linearly: matrix powers unbounded "
                                "(polynomial growth)")
    return StabilityVerdict(False, Argument.EMPIRICAL,
                            f"growing at {report.per_step_factor:.6f} per step")
