"""Time-stepping kernels for the five schemes on periodic grids.

The simulator is the empirical referee for the analyzer: it advances real
field arrays (1D, or 2D in TE/TM polarization), reports how the sup-norm
of the state grows and phrases its own verdict (`empirical_verdict`).  It
imports nothing of the analytic route.  A single discrete harmonic evolves
exactly by the per-wavenumber update matrix, which the tests exploit as the
central cross-module check.

Fields live on the usual staggered grids, stored in the analyzer's
normalized units (c_inf*B, E, D/(eps0 eps_inf), P/(eps0 eps_inf),
k*J/(eps0 eps_inf)).  Array index j holds the value at the half-shifted
position for the staggered components, so the Fourier coefficients of the
arrays are directly the components of the analyzer's state vector.

The state of one time level is one stacked C-order array, one slot per
component (`FieldState.labels`); in TM the x and y components of a field
sit next to each other.  The Yee curl of 1D, TE and TM is one table,
`_CURL`: each magnetic slot's update as signed differences of the old
field slots, and each field slot's curl source S as signed differences of
the new magnetic slots.  `_bind` compiles that table, with the calls
that the scheme's ``SchemeSpec.material(params)`` binder returns, into
one flat list of bound ufunc calls from a source buffer into a
destination buffer: every slot view, stencil slice, scratch array and
scalar coefficient (a 0-d float64 array) is bound once, and every call
writes its positional output into the destination or the scratch, so a
step allocates nothing and runs no Python frame of its own.  A growth
run alternates two buffers and reads the sup-norms in blocks of steps
(`_norm_blocks`): on a small state each step ends with a bound ``np.abs``
into one row of a row block, and one reduction per block reads the
block's norms; a state above the row budget has its norm read in place
after every step.  The test referee `step` (`tests/referees.py`) runs
the same list once into a fresh buffer, so there is one stepping code
path.

The periodic differences are slicing stencils: ``a[1:] - a[:-1]`` and the
one wrapped row or column, written into the result array.  They do the
arithmetic of ``np.roll(a, -1) - a`` element by element, so norm histories
are bit for bit those of the roll stencil, with far fewer NumPy calls per
step on the small grids of the verify sweep.

The ``steps`` of a growth run are a budget: the run ends at the step that
decides it, the first whose sup-norm is more than GROWTH_NORM_FACTOR times
the initial one or is not finite; the steps that its block computed past
it are discarded.  A non-finite entry anywhere in the state, NaN
included, is overflow.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from functools import partial
from typing import Callable

import numpy as np

from .errors import InvalidInputError
from .schemes import DimensionlessParams, MediumModel, Scheme, Wavenumber, dimensionless_params

# A run is growing when the sup-norm exceeds GROWTH_NORM_FACTOR times the
# initial norm, or the tail-half geometric per-step factor exceeds
# 1 + GROWTH_RATE_TOL.
GROWTH_NORM_FACTOR = 1e3
GROWTH_RATE_TOL = 1e-4


@dataclass(frozen=True)
class FieldState:
    """Field arrays of one scheme at one time level, stacked in one array.

    ``data[i]`` holds the component ``labels[i]`` on the whole grid; in TM
    the x and y components of a field sit next to each other."""

    scheme: Scheme
    polarization: str | None  # None in 1D
    data: np.ndarray  # (len(labels), *grid_shape)
    h_ratio: float = 1.0  # h_x / h_y

    def __post_init__(self):
        if self.data.shape[:1] != (len(self.labels),) or \
                self.data.ndim != (2 if self.polarization is None else 3):
            raise InvalidInputError(
                f"state data of shape {self.data.shape} does not hold the "
                f"{len(self.labels)} components of {self.scheme.value} "
                f"({self.polarization or '1d'})")

    @property
    def labels(self) -> tuple[str, ...]:
        return _LABELS[self.scheme, self.polarization]

    @property
    def arrays(self) -> dict[str, np.ndarray]:
        """Component label -> view of its slot in ``data``."""
        return dict(zip(self.labels, self.data))

    @property
    def grid_shape(self) -> tuple[int, ...]:
        return self.data.shape[1:]


def _sup_norm(data: np.ndarray) -> float:
    """Largest absolute entry; NaN if any entry is NaN.  Two NaN-propagating
    reductions over the whole stacked state that write nothing; ``abs``
    reads a zero state's -0.0 as the 0.0 of ``np.abs(data).max()``."""
    return abs(max(float(data.max()), -float(data.min())))


@dataclass(frozen=True)
class GrowthReport:
    """Norm history of a run with the boundedness verdict."""

    steps: int
    per_step_factor: float
    max_norm_ratio: float
    verdict: str  # "bounded" | "growing"
    norms: np.ndarray
    overflow_step: int | None = None


@dataclass(frozen=True)
class EmpiricalVerdict:
    """The simulator's own reading of a growth report."""

    stable: bool
    detail: str


def _layout(scheme: Scheme, polarization: str | None) -> tuple[tuple[str, tuple], ...]:
    """(label, staggering shift) of each slot of the stacked state."""
    aux = [l for l in scheme.spec.state_labels if l not in ("b", "E")]
    if polarization is None:
        return (("b", (0.5,)), ("E", (0.0,)), *((l, (0.0,)) for l in aux))
    if polarization == "te":
        return (("b_x", (0.0, 0.5)), ("b_y", (0.5, 0.0)), ("E", (0.0, 0.0)),
                *((l, (0.0, 0.0)) for l in aux))
    return (("b_z", (0.5, 0.5)),
            *((f"{l}_{c}", shift) for l in ("E", *aux)
              for c, shift in (("x", (0.5, 0.0)), ("y", (0.0, 0.5)))))


_LAYOUTS = {(s, pol): _layout(s, pol) for s in Scheme for pol in (None, "te", "tm")}
_LABELS = {key: tuple(label for label, _ in slots) for key, slots in _LAYOUTS.items()}


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
    if not wn.is_2d:
        if polarization is not None:
            raise InvalidInputError("1D runs take no polarization")
        if not isinstance(grid, int):
            raise InvalidInputError("1D runs take a single grid size")
        shape, xis, h_ratio = (grid,), (wn.xi_x,), 1.0
    else:
        if polarization not in ("te", "tm"):
            raise InvalidInputError("2D runs need polarization 'te' or 'tm'")
        shape = (grid, grid) if isinstance(grid, int) else grid
        xis, h_ratio = (wn.xi_x, wn.xi_y), wn.h_x / wn.h_y
    if min(shape) < 4:
        raise InvalidInputError("grid sizes must be at least 4")
    for xi, n in zip(xis, shape):
        _check_harmonic(xi, n)
    slots = _LAYOUTS[scheme, polarization]
    data = np.empty((len(slots), *shape))
    # The phase sum_a xi_a (j_a + shift_a), over broadcast index columns.
    index = np.indices(shape, dtype=float, sparse=True)
    for slot, (_, shift) in zip(data, slots):
        slot[...] = amplitude * np.cos(sum(xi * (j + s) for xi, j, s in zip(xis, index, shift)))
    return FieldState(scheme, polarization, data, h_ratio=h_ratio)


# The periodic differences bind their slices once and return the bound
# calls that write the difference of the current values of ``a`` into
# ``out``.  They do the arithmetic of ``np.roll`` stencils element by
# element; ``a`` and ``out`` are C-contiguous and distinct.

def _dfwd(a: np.ndarray, out: np.ndarray, axis: int = 0) -> list[Callable[[], None]]:
    """Periodic forward difference a[j+1] - a[j] along axis 0 or 1."""
    if axis == 0:
        return _subtractions(a[1:], a[:-1], out[:-1], a[:1], a[-1:], out[-1:])
    # Along rows, difference the flattened array in one contiguous pass
    # (row-by-row slices are about twice as slow on wide grids), then let
    # the wrapped last column overwrite the entries that straddle two rows.
    src, dst = a.reshape(-1), out.reshape(-1)
    return _subtractions(src[1:], src[:-1], dst[:-1], a[:, :1], a[:, -1:], out[:, -1:])


def _dback(a: np.ndarray, out: np.ndarray, axis: int = 0) -> list[Callable[[], None]]:
    """Periodic backward difference a[j] - a[j-1] along axis 0 or 1."""
    if axis == 0:
        return _subtractions(a[1:], a[:-1], out[1:], a[:1], a[-1:], out[:1])
    src, dst = a.reshape(-1), out.reshape(-1)
    return _subtractions(src[1:], src[:-1], dst[1:], a[:, :1], a[:, -1:], out[:, :1])


def _subtractions(x1, y1, o1, x2, y2, o2) -> list[Callable[[], None]]:
    """Calls writing x1 - y1 into o1, then x2 - y2 into o2."""
    return [partial(np.subtract, x1, y1, o1), partial(np.subtract, x2, y2, o2)]


# The Yee curl of each polarization: each magnetic slot's update as terms
# over the old field slots, and each field slot's curl source S as terms
# over the new magnetic slots.  A term (sign, direction, label) is sign *
# lam_dir times the periodic difference of slot `label` along direction x
# (grid axis 0, lam_x = lam) or y (axis 1, lam_y = lam h_x/h_y): forward for
# the magnetic update, backward for the source.
_CURL = {
    None: ({"b": ((-1, "x", "E"),)},
           {"E": ((-1, "x", "b"),)}),
    "te": ({"b_x": ((-1, "y", "E"),), "b_y": ((+1, "x", "E"),)},
           {"E": ((+1, "x", "b_y"), (-1, "y", "b_x"))}),
    "tm": ({"b_z": ((-1, "x", "E_y"), (+1, "y", "E_x"))},
           {"E_x": ((+1, "y", "b_z"),), "E_y": ((-1, "x", "b_z"),)}),
}


def _bind(scheme: Scheme, polarization: str | None, params: DimensionlessParams,
          h_ratio: float, src: np.ndarray, dst: np.ndarray,
          scratch: np.ndarray) -> list[Callable[[], None]]:
    """One full leapfrog cycle from the stacked state src into dst, periodic
    in every direction, as a flat list of bound calls compiled from `_CURL`:
    the magnetic half-step, then per field slot its curl source and material
    update.  src and dst are distinct C-order states; scratch is `_scratch`.
    The first difference of a sum goes into its target, later ones into S
    during the magnetic half-step and into the field slot not yet written
    during the source.  Every call is a ufunc (or `np.copyto`) with its
    operands bound and its output positional."""
    spec = scheme.spec
    material = spec.material(params)
    labels = _LABELS[scheme, polarization]
    old, new = dict(zip(labels, src)), dict(zip(labels, dst))
    aux = [l for l in spec.state_labels if l not in ("b", "E")]
    lam = (params.lam, params.lam * h_ratio)  # by axis: x, y
    *curl_sources, tmp = scratch
    S, S_old = (*curl_sources, None)[:2]  # S_old is None unless bound
    calls = []

    def curl(terms, diff, fields, target, temp, base=None):
        # target = base + sum of sign * lam * diff(field); the sign rides on
        # the coefficient, which is exact: (-c)*x == -(c*x), a + (-y) == a - y.
        for n, (sign, direction, label) in enumerate(terms):
            out, axis = temp if n else target, "xy".index(direction)
            calls.extend(diff(fields[label], out, axis))
            calls.append(partial(np.multiply, np.array(sign * lam[axis]), out, out))
            if n or base is not None:
                calls.append(partial(np.add, target if n else base, out, target))

    magnetic, sources = _CURL[polarization]
    for label, terms in magnetic.items():
        curl(terms, _dfwd, old, new[label], S, base=old[label])
    for label, terms in sources.items():
        # S from the new magnetic field, S_old (if bound) from the old one.
        for target, fields in zip(curl_sources, (new, old)):
            curl(terms, _dback, fields, target, new[label])
        suffix = label[1:]  # "" or "_x"/"_y": the auxiliaries of this field
        calls += material(old[label], [old[a + suffix] for a in aux], S, S_old,
                          new[label], [new[a + suffix] for a in aux], tmp)
    return calls


def _scratch(scheme: Scheme, grid_shape: tuple[int, ...]) -> np.ndarray:
    """Curl source S, then S_old if the scheme's update reads it, then the
    material update's temporary."""
    return np.empty((2 + scheme.spec.needs_prev_source, *grid_shape))


# Byte budget of a growth run's row block: the absolute values of the
# states of up to 64 steps, reduced to their sup-norms by one call.  A
# state above half the budget has its norm read in place after every step.
# Per step, best of 15 runs of 700 steps (NumPy 2.4, 2-core Xeon):
# Lorentz-Kashiwa on 24 cells took 12.1 us with its norm read in place and
# 8.0-8.2 us with any budget from 64 KiB to 1 MiB; on 24 x 24 in TM 34.0 us
# in place, 33.7 us at 64 KiB (2 rows), 29.2 us at 256 KiB (8 rows) and
# 29.6 us at 1 MiB; a 64 x 64 TM state (224 KiB) took 83-86 us at every
# budget.  So 256 KiB is the smallest budget that gains on verify grids.
_ROW_BLOCK_BYTES = 256 * 1024


def _norm_blocks(legs, steps: int, norms: np.ndarray):
    """Runs steps 1 to ``steps`` of a growth run block by block, alternating
    the two legs (bound calls, destination state), and writes the sup-norm
    of step i into norms[i]; yields each block's slice of norms once it is
    written.  The caller stops the run by leaving the loop.

    A state that fits the row budget twice runs in blocks of 8 steps,
    then twice as many up to 64 and the budget, each even so the legs keep
    alternating; step j of a block ends with a bound ``np.abs`` of its
    state into row j, and one ``np.maximum.reduce`` per block reads the
    rows' norms.  A larger state runs one step per block and reads its
    norm in place (`_sup_norm`)."""
    state = legs[0][1]
    cap = min(64, _ROW_BLOCK_BYTES // state.nbytes) // 2 * 2
    if cap == 0:
        for i, (calls, out) in zip(range(1, steps + 1), itertools.cycle(legs)):
            for call in calls:
                call()
            norms[i] = _sup_norm(out)
            yield norms[i:i + 1]
        return
    rows = np.empty((cap, state.size))
    calls = [call for j, (leg, out) in zip(range(cap), itertools.cycle(legs))
             for call in (*leg, partial(np.abs, out.reshape(-1), rows[j]))]
    per_step = len(calls) // cap
    done, n = 0, min(8, cap)
    while done < steps:
        n = min(n, steps - done)
        for call in calls[:n * per_step]:
            call()
        block = norms[done + 1:done + 1 + n]
        np.maximum.reduce(rows[:n], axis=1, out=block)
        yield block
        done += n
        n = min(2 * n, cap)


def _tail_factor(norms: np.ndarray) -> float:
    """Geometric per-step growth factor over the last half of the run,
    estimated by the least-squares slope of log(norm) (robust against the
    bounded oscillation of on-circle modes).  A run decided at step 1 has
    one point in its last half, so it is fitted over its whole history; a
    history of one norm has no rate and reads 1."""
    tail = norms[len(norms) // 2:] if len(norms) > 2 else norms
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
    the fit runs on the running maximum (the growth envelope).  A run
    records only finite norms."""
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
    """Evolve a plane wave and record the sup-norm per step, for at most
    ``steps`` steps.

    The run ends at the first step whose norm is more than
    GROWTH_NORM_FACTOR times the initial one or is not finite: from there
    on its verdict is growing, whatever follows.  A finite norm is
    recorded and ``steps`` of the report is that step; a non-finite one is
    overflow (``overflow_step``), reported as growth, not as an error, and
    not recorded.  A CFL number whose 4 lam^2 overflows a double, in either
    direction, is refused before any step.
    """
    if steps < 100:
        raise InvalidInputError("growth runs need at least 100 steps")
    if medium.kind != scheme.kind:
        raise InvalidInputError(f"{scheme.value} cannot run in a {medium.kind} medium")
    params = dimensionless_params(medium, k, h)
    state = init_plane_wave(scheme, grid, wn, amplitude, polarization=polarization)
    if not all(math.isfinite(4 * lam * lam) for lam in (params.lam, params.lam * state.h_ratio)):
        raise InvalidInputError("lam^2 = (c_inf k / h)^2 overflows a double")
    # Two stacked buffers alternate as source and destination; the calls
    # of each direction are bound once, and both share the scratch.
    a, b = state.data, np.empty_like(state.data)
    scratch = _scratch(scheme, state.grid_shape)
    legs = [(_bind(scheme, state.polarization, params, state.h_ratio, x, y, scratch), y)
            for x, y in ((a, b), (b, a))]
    norms = np.empty(steps + 1)
    norms[0] = n0 = _sup_norm(a)
    overflow_step = None
    used = steps
    first = 1  # the step of the block's first norm
    with np.errstate(over="ignore", invalid="ignore"):
        for block in _norm_blocks(legs, steps, norms):
            # The ratio the verdict reads, so the run stops exactly where
            # max_ratio first passes the factor; NaN and inf stop it too.
            # Division by n0 > 0 keeps the order, so the block's largest
            # norm decides whether any step fails.  The steps of the block
            # after the first that fails are discarded.
            if not block.max() / n0 <= GROWTH_NORM_FACTOR:
                i = first + int(np.argmin(block / n0 <= GROWTH_NORM_FACTOR))
                if math.isfinite(norms[i]):
                    used = i
                else:
                    overflow_step = i
                    used = i - 1
                break
            first += len(block)
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


def empirical_verdict(report: GrowthReport) -> EmpiricalVerdict:
    """Stable or not from a growth report, with the evidence in words."""
    if report.verdict == "bounded":
        return EmpiricalVerdict(True, f"bounded: max norm ratio {report.max_norm_ratio:.4g} "
                                      f"over {report.steps} steps")
    if report.overflow_step is not None:
        return EmpiricalVerdict(False, f"overflow at step {report.overflow_step} "
                                       "(exponential growth)")
    if report.per_step_factor < 1.001 and linear_fit_residual(report.norms) < 0.05:
        return EmpiricalVerdict(False, "norm grows linearly: matrix powers unbounded "
                                       "(polynomial growth)")
    rate = f"growing at {report.per_step_factor:.6f} per step"
    if report.max_norm_ratio > GROWTH_NORM_FACTOR:
        return EmpiricalVerdict(False, f"{rate}: norm above {GROWTH_NORM_FACTOR:g} times "
                                       f"its initial value at step {report.steps}")
    return EmpiricalVerdict(False, rate)
