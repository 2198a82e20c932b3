"""Simulator tests.

The decisive check is that a single grid harmonic evolves exactly by the
per-wavenumber update matrix; everything else (linearity, shift invariance,
growth verdicts, 2D reductions) builds on that.
"""

import math
import re
import tracemalloc
import zlib
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as hst

from fdtd_stability import (
    DimensionlessParams,
    InvalidInputError,
    MediumModel,
    Scheme,
    Wavenumber,
    dimensionless_params,
    empirical_verdict,
    init_plane_wave,
    run_growth,
    simulator,
)
from fdtd_stability.simulator import _sup_norm, linear_fit_residual
from referees import amplification_matrix, factor_roots_2d, fourier_mode, mode_matrix_2d, step


def medium_for(scheme):
    if scheme.kind == "debye":
        return MediumModel.debye(1.8, 81.0, 9.4e-12), 1e-5
    return MediumModel.lorentz(1.0, 2.25, 4e16, 0.56e16), 1e-8


def stable_params(scheme, lam=0.6):
    medium, h = medium_for(scheme)
    k = lam * h / medium.c_inf
    return medium, k, h, dimensionless_params(medium, k, h)


# --- initialization ----------------------------------------------------------

def test_init_worst_mode():
    st = init_plane_wave(Scheme.DEBYE_JOSEPH, 64, Wavenumber(math.pi), 1.0)
    assert _sup_norm(st.data) > 0
    np.testing.assert_allclose(st.arrays["E"], np.cos(math.pi * np.arange(64)))


def test_init_uniform_mode():
    st = init_plane_wave(Scheme.DEBYE_JOSEPH, 64, Wavenumber(0.0), 2.0)
    np.testing.assert_allclose(st.arrays["E"], 2.0)
    np.testing.assert_allclose(st.arrays["b"], 2.0)


def test_init_rejects_non_harmonic():
    with pytest.raises(InvalidInputError):
        init_plane_wave(Scheme.DEBYE_JOSEPH, 64, Wavenumber(1.0), 1.0)


@pytest.mark.parametrize("polarization", ["te", "tm"])
def test_init_rejects_polarization_with_1d_wavenumber(polarization, water):
    """A 1D wavenumber builds a 1D state, so a polarization given with it
    is refused, not bound to a 2D kernel that then fails on 1D arrays."""
    with pytest.raises(InvalidInputError, match="polarization"):
        init_plane_wave(Scheme.DEBYE_JOSEPH, 64, Wavenumber(math.pi), 1.0,
                        polarization=polarization)
    with pytest.raises(InvalidInputError, match="polarization"):
        run_growth(Scheme.DEBYE_JOSEPH, water, 1e-15, 1e-5, Wavenumber(math.pi), 100,
                   polarization=polarization)


def test_init_rejects_zero_amplitude():
    with pytest.raises(InvalidInputError):
        init_plane_wave(Scheme.DEBYE_JOSEPH, 64, Wavenumber(math.pi), 0.0)


def test_single_mode_stays_single_mode():
    scheme = Scheme.DEBYE_JOSEPH
    _, _, _, params = stable_params(scheme)
    n, m = 64, 16
    st = init_plane_wave(scheme, n, Wavenumber(2 * math.pi * m / n), 1.0)
    st = step(scheme, st, params)
    for arr in st.arrays.values():
        spec = np.abs(np.fft.fft(arr))
        live = {i for i in range(n) if spec[i] > 1e-12 * spec.max()}
        assert live <= {m, n - m}


# --- the central cross-module oracle -----------------------------------------

@pytest.mark.parametrize("scheme", list(Scheme))
def test_fourier_slice_follows_update_matrix(scheme):
    medium, k, h, params = stable_params(scheme, lam=0.7)
    n, m = 32, 5
    wn = Wavenumber(2 * math.pi * m / n)
    G = amplification_matrix(scheme, params, wn)
    st = init_plane_wave(scheme, n, wn, 1.0)
    vec = fourier_mode(st, m)
    worst_step = 0.0
    for _ in range(100):
        st = step(scheme, st, params)
        after = fourier_mode(st, m)
        predicted = G @ vec
        scale = max(np.max(np.abs(after)), 1e-30)
        worst_step = max(worst_step, np.max(np.abs(after - predicted)) / scale)
        vec = after
    assert worst_step < 1e-12
    # and over the full 100 steps against G^100
    st0 = init_plane_wave(scheme, n, wn, 1.0)
    expected = np.linalg.matrix_power(G, 100) @ fourier_mode(st0, m)
    np.testing.assert_allclose(vec, expected, rtol=1e-9, atol=1e-15)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_fourier_mode_equals_per_label_fft(scheme):
    """One FFT along the grid axis of the stacked state gives, bit for bit,
    the per-label transforms."""
    st = init_plane_wave(scheme, 12, Wavenumber(0.0), 1.0)
    st = replace(st, data=np.random.default_rng(3).normal(size=st.data.shape))
    for m in range(12):
        per_label = [np.fft.fft(st.arrays[l])[m] / 12 for l in scheme.spec.state_labels]
        assert np.array_equal(fourier_mode(st, m), per_label)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_step_linearity(scheme):
    _, _, _, params = stable_params(scheme)
    rng = np.random.default_rng(zlib.crc32(scheme.value.encode()))
    n = 32
    st1 = init_plane_wave(scheme, n, Wavenumber(2 * math.pi * 3 / n), 1.0)
    st2 = init_plane_wave(scheme, n, Wavenumber(2 * math.pi * 7 / n), 0.7)
    a, b = rng.normal(), rng.normal()
    combo = replace(st1, data=a * st1.data + b * st2.data)
    out_combo = step(scheme, combo, params)
    out1 = step(scheme, st1, params)
    out2 = step(scheme, st2, params)
    for key in out_combo.arrays:
        np.testing.assert_allclose(
            out_combo.arrays[key],
            a * out1.arrays[key] + b * out2.arrays[key],
            rtol=1e-12, atol=1e-13)


@pytest.mark.parametrize("scheme", list(Scheme))
def test_step_shift_invariance(scheme):
    _, _, _, params = stable_params(scheme)
    n = 32
    st = init_plane_wave(scheme, n, Wavenumber(2 * math.pi * 5 / n), 1.0)
    shifted = replace(st, data=np.roll(st.data, 1, axis=1))
    out_shifted = step(scheme, shifted, params)
    out = step(scheme, st, params)
    for key in out.arrays:
        np.testing.assert_allclose(out_shifted.arrays[key],
                                   np.roll(out.arrays[key], 1),
                                   rtol=1e-12, atol=1e-14)


# --- slicing stencils against the np.roll referee ---------------------------

# Like the slicing stencils, the referees return the list of calls that
# write the difference of the current values of ``a`` into ``out``.

def _roll_dfwd(a, out, axis=0):
    return [lambda: np.subtract(np.roll(a, -1, axis=axis), a, out=out)]


def _roll_dback(a, out, axis=0):
    return [lambda: np.subtract(a, np.roll(a, 1, axis=axis), out=out)]


@pytest.mark.parametrize("polarization", [None, "te", "tm"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_step_matches_roll_stencils(scheme, polarization, monkeypatch):
    """The slicing differences do the np.roll stencil's arithmetic element
    by element: 50 steps from random fields agree bit for bit, on a
    non-square 12 x 8 grid with h_y = 2 h, in C and Fortran array order."""
    _, _, h, params = stable_params(scheme)
    if polarization is None:
        st = init_plane_wave(scheme, 12, Wavenumber(0.0), 1.0)
    else:
        st = init_plane_wave(scheme, (12, 8), Wavenumber(0.0, 0.0, h_x=h, h_y=2 * h),
                             1.0, polarization=polarization)
    rng = np.random.default_rng(7)
    for order in ("C", "F"):
        start = replace(st, data=np.asarray(rng.normal(size=st.data.shape), order=order))
        runs = []
        for dfwd, dback in ((simulator._dfwd, simulator._dback),
                            (_roll_dfwd, _roll_dback)):
            monkeypatch.setattr(simulator, "_dfwd", dfwd)
            monkeypatch.setattr(simulator, "_dback", dback)
            cur = start
            for _ in range(50):
                cur = step(scheme, cur, params)
            runs.append(cur)
        monkeypatch.undo()
        lean, referee = runs
        assert lean.labels == referee.labels
        for key in referee.labels:
            assert np.array_equal(lean.arrays[key], referee.arrays[key]), (order, key)


# --- sup-norm ------------------------------------------------------------------

def test_sup_norm_sees_nan_after_finite_array():
    st = init_plane_wave(Scheme.LORENTZ_KASHIWA, 8, Wavenumber(0.0), 1.0)
    data = st.data.copy()
    data[1] = np.array([1.0, np.nan, 2.0, 0.0, 0.0, 0.0, 0.0, 0.0])
    assert math.isnan(_sup_norm(data))
    data[1] = np.full(8, -3.0)
    assert _sup_norm(data) == 3.0
    # A zero state reads +0.0, as np.abs(data).max() does.
    assert math.copysign(1.0, _sup_norm(-np.zeros_like(data))) == 1.0


# --- vacuum limit ------------------------------------------------------------

@pytest.mark.parametrize("scheme,aux_setup", [
    (Scheme.DEBYE_JOSEPH, "flux-equals-field"),
    (Scheme.DEBYE_YOUNG, "zero-polarization"),
])
def test_vacuum_limit_conserves_staggered_energy(scheme, aux_setup):
    """Without dispersion contrast the schemes reduce to the bare leapfrog
    scheme, whose time-staggered quadratic form is conserved exactly."""
    medium = MediumModel.debye(1.0, 1.0, 9.4e-12)
    h = 1e-5
    k = 0.9 * h / medium.c_inf
    params = dimensionless_params(medium, k, h)
    n = 64
    st = init_plane_wave(scheme, n, Wavenumber(2 * math.pi * 8 / n), 1.0)
    arrays = dict(st.arrays)
    if aux_setup == "flux-equals-field":
        arrays["d"] = arrays["E"].copy()
    else:
        arrays["p"] = np.zeros(n)
    st = replace(st, data=np.stack([arrays[l] for l in st.labels]))
    lam = params.lam

    def energy(state):
        E, b = state.arrays["E"], state.arrays["b"]
        b_next = b - lam * (np.roll(E, -1) - E)
        return float(np.sum(E * E) + np.sum(b * b_next))

    e0 = energy(st)
    worst = 0.0
    for _ in range(1000):
        st = step(scheme, st, params)
        worst = max(worst, abs(energy(st) - e0) / e0)
    assert worst < 1e-10


# --- growth reports ----------------------------------------------------------

def test_growth_bounded_below_limit(water):
    h = 1e-5
    lam = math.sqrt(3.9 / 4.0)
    k = lam * h / water.c_inf
    rep = run_growth(Scheme.DEBYE_JOSEPH, water, k, h, Wavenumber(math.pi), 4000)
    assert rep.verdict == "bounded"
    assert empirical_verdict(rep).stable


def test_growth_rate_matches_root_modulus(water):
    h = 1e-5
    k = 1.05 * h / water.c_inf  # q = 4.41 at xi = pi
    rep = run_growth(Scheme.DEBYE_JOSEPH, water, k, h, Wavenumber(math.pi), 2000)
    assert rep.verdict == "growing"
    # The run ends at the first norm above the factor, and says so.
    assert rep.overflow_step is None and 1 < rep.steps < 2000
    assert np.all(rep.norms[:-1] / rep.norms[0] <= simulator.GROWTH_NORM_FACTOR)
    assert rep.norms[-1] / rep.norms[0] > simulator.GROWTH_NORM_FACTOR
    assert empirical_verdict(rep).detail.endswith(
        f"norm above 1000 times its initial value at step {rep.steps}")
    from fdtd_stability import char_poly_closed, courant_q
    from fdtd_stability.polyloc import max_root_modulus
    params = dimensionless_params(water, k, h)
    q = courant_q(params, Wavenumber(math.pi))
    expected = max_root_modulus(char_poly_closed(Scheme.DEBYE_JOSEPH, params, q))
    assert rep.per_step_factor == pytest.approx(expected, abs=1e-2)


def test_growth_factor_matches_spectral_radius_kashiwa(optical_lorentz):
    h = 1e-8
    k = 1.02 * h / optical_lorentz.c_inf
    params = dimensionless_params(optical_lorentz, k, h)
    wn = Wavenumber(math.pi)
    rep = run_growth(Scheme.LORENTZ_KASHIWA, optical_lorentz, k, h, wn, 500)
    G = amplification_matrix(Scheme.LORENTZ_KASHIWA, params, wn)
    rho = float(np.max(np.abs(np.linalg.eigvals(G))))
    assert rep.per_step_factor == pytest.approx(rho, abs=1e-3)


def test_resonance_linear_growth(resonant_lorentz):
    w = 0.5
    k = math.sqrt(2 * w) / resonant_lorentz.omega1
    q_res = 2 * w / (1 + w)
    m, n = 9, 64
    xi = 2 * math.pi * m / n
    lam = math.sqrt(q_res / (4 * math.sin(xi / 2) ** 2))
    h = resonant_lorentz.c_inf * k / lam
    rep = run_growth(Scheme.LORENTZ_JOSEPH, resonant_lorentz, k, h,
                     Wavenumber(xi), 3000, grid=n)
    assert rep.verdict == "growing"
    assert linear_fit_residual(rep.norms) < 0.05
    verdict = empirical_verdict(rep)
    assert not verdict.stable
    assert "polynomial growth" in verdict.detail


def test_overflow_reported_not_raised(water):
    """At an amplitude of 1e306 no finite norm is 1e3 times the initial
    one, so only overflow can end the run."""
    h = 1e-5
    k = 1.5 * h / water.c_inf
    rep = run_growth(Scheme.DEBYE_JOSEPH, water, k, h, Wavenumber(math.pi), 3000,
                     amplitude=1e306)
    assert rep.verdict == "growing"
    assert rep.overflow_step is not None
    assert "overflow" in empirical_verdict(rep).detail


def test_run_overflowing_at_step_one(water):
    """A run whose first step overflows records only its initial norm."""
    h = 1e-5
    k = 1.5 * h / water.c_inf
    rep = run_growth(Scheme.DEBYE_JOSEPH, water, k, h, Wavenumber(math.pi), 100, grid=8,
                     amplitude=1e308)
    assert (rep.steps, rep.overflow_step, rep.per_step_factor) == (0, 1, 1.0)
    assert list(rep.norms) == [1e308] and rep.verdict == "growing"
    assert empirical_verdict(rep).detail == "overflow at step 1 (exponential growth)"


def test_field_state_of_wrong_shape_refused():
    with pytest.raises(InvalidInputError, match=re.escape(
            "state data of shape (2, 8) does not hold the 3 components of "
            "debye-joseph (1d)")):
        simulator.FieldState(Scheme.DEBYE_JOSEPH, None, np.zeros((2, 8)))
    with pytest.raises(InvalidInputError, match="debye-joseph \\(te\\)"):
        simulator.FieldState(Scheme.DEBYE_JOSEPH, "te", np.zeros((4, 8)))


@pytest.mark.parametrize("grid,wn,polarization,message", [
    ((8, 8), Wavenumber(0.0), None, "1D runs take a single grid size"),
    (8, Wavenumber(0.0, 0.0), None, "2D runs need polarization 'te' or 'tm'"),
    (8, Wavenumber(0.0, 0.0), "xy", "2D runs need polarization 'te' or 'tm'"),
    (3, Wavenumber(0.0), None, "grid sizes must be at least 4"),
    ((8, 3), Wavenumber(0.0, 0.0), "tm", "grid sizes must be at least 4"),
])
def test_grid_and_polarization_refusals(water, grid, wn, polarization, message):
    h = 1e-5
    with pytest.raises(InvalidInputError, match=re.escape(message)):
        run_growth(Scheme.DEBYE_JOSEPH, water, 0.5 * h / water.c_inf, h, wn, 100,
                   polarization=polarization, grid=grid)


def test_run_growth_rejects_medium_of_other_kind(water):
    with pytest.raises(InvalidInputError, match="lorentz-joseph cannot run in a debye medium"):
        run_growth(Scheme.LORENTZ_JOSEPH, water, 1e-15, 1e-5, Wavenumber(0.0), 100, grid=8)


def test_run_decided_at_step_one_reads_its_rate(water):
    """A run whose first step passes the norm factor stops there, and its
    rate is fitted over the whole two-norm history: it reads the one-step
    ratio, not 1."""
    h = 1e-5
    k = 20.0 * h / water.c_inf
    rep = run_growth(Scheme.DEBYE_JOSEPH, water, k, h, Wavenumber(math.pi), 100, grid=16)
    assert rep.steps == 1 and rep.overflow_step is None and len(rep.norms) == 2
    assert rep.verdict == "growing"
    ratio = rep.norms[1] / rep.norms[0]
    assert ratio > simulator.GROWTH_NORM_FACTOR
    assert rep.per_step_factor == pytest.approx(ratio, rel=1e-12)
    detail = empirical_verdict(rep).detail
    assert f"growing at {ratio:.6f} per step" in detail
    assert "at step 1" in detail


def _step_loop_history(scheme, medium, k, h, wn, steps, pol, grid, amplitude,
                       stop_factor=simulator.GROWTH_NORM_FACTOR):
    """run_growth's norm history and overflow step, rebuilt from the
    referee step() and the simulator's _sup_norm: the loop ends at the
    first norm that is not finite (overflow, not recorded) or, if
    stop_factor is not None, more than stop_factor times the initial one
    (recorded)."""
    params = dimensionless_params(medium, k, h)
    st = init_plane_wave(scheme, grid, wn, amplitude, polarization=pol)
    norms = [_sup_norm(st.data)]
    with np.errstate(over="ignore", invalid="ignore"):
        for i in range(1, steps + 1):
            st = step(scheme, st, params)
            v = _sup_norm(st.data)
            if not math.isfinite(v):
                return np.array(norms), i
            norms.append(v)
            if stop_factor is not None and v / norms[0] > stop_factor:
                break
    return np.array(norms), None


def _growth_and_step_loop(scheme, pol, nx, ny, h_y_ratio, modes, frac, amplitude,
                          stop_factor=simulator.GROWTH_NORM_FACTOR):
    """A 100-step run_growth, with frac of the scheme's q limit at the
    grid's largest q, and the same run rebuilt from the referee step()."""
    medium, h = medium_for(scheme)
    if pol is None:
        wn, grid = Wavenumber(2 * math.pi * (modes[0] % nx) / nx), nx
        s_max = 4.0
    else:
        wn = Wavenumber(2 * math.pi * (modes[0] % nx) / nx,
                        2 * math.pi * (modes[1] % ny) / ny, h_x=h, h_y=h_y_ratio * h)
        grid = (nx, ny)
        s_max = 4.0 * (1.0 + 1.0 / h_y_ratio ** 2)
    k = math.sqrt(frac * scheme.spec.q_limit / s_max) * h / medium.c_inf
    rep = run_growth(scheme, medium, k, h, wn, 100, polarization=pol, grid=grid,
                     amplitude=amplitude)
    return rep, _step_loop_history(scheme, medium, k, h, wn, 100, pol, grid, amplitude,
                                   stop_factor)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(scheme=hst.sampled_from(list(Scheme)),
       pol=hst.sampled_from([None, "te", "tm"]),
       nx=hst.integers(4, 11), ny=hst.integers(4, 11),
       h_y_ratio=hst.sampled_from([1.0, 2.0]),
       modes=hst.tuples(hst.integers(0, 10), hst.integers(0, 10)),
       frac=hst.floats(0.2, 2.5),
       amplitude=hst.sampled_from([1.0, 1e306]))
def test_run_growth_is_a_loop_of_public_step(scheme, pol, nx, ny, h_y_ratio, modes,
                                             frac, amplitude):
    """The bound kernel with alternating buffers is the referee step() and
    _sup_norm, bit for bit, including the step at which a run stops: by the
    norm factor at amplitude 1, by overflow at 1e306."""
    rep, (norms, overflow_step) = _growth_and_step_loop(
        scheme, pol, nx, ny, h_y_ratio, modes, frac, amplitude)
    assert rep.overflow_step == overflow_step
    assert rep.norms.tobytes() == norms.tobytes()


@pytest.mark.parametrize("pol", [None, "te", "tm"])
@pytest.mark.parametrize("scheme", [Scheme.DEBYE_JOSEPH, Scheme.LORENTZ_KASHIWA])
def test_run_overflowing_part_way_is_a_loop_of_public_step(scheme, pol):
    rep, (norms, overflow_step) = _growth_and_step_loop(
        scheme, pol, 8, 6, 2.0, (4, 3), 2.5, 1e306)
    assert 1 < rep.overflow_step == overflow_step < 100
    assert rep.norms.tobytes() == norms.tobytes()


def _landing(stop, lengths):
    """(block index, "first" | "mid" | "last") of step ``stop`` of a run
    whose steps ran in blocks of these lengths."""
    start = 1
    for index, n in enumerate(lengths):
        if stop < start + n:
            position = stop - start
            return index, ("first" if position == 0 else
                           "last" if position == n - 1 else "mid")
        start += n
    raise AssertionError(f"step {stop} lies past the blocks {lengths}")


@pytest.mark.parametrize("landing", ["first", "last", "mid", "overflow", "budget"])
def test_run_stopping_on_a_block_boundary_is_a_loop_of_public_step(landing, monkeypatch):
    """run_growth reads its norms once per block of steps and discards the
    steps it computed past the one that decides the run.  A seeded scan of
    lam just above the Courant limit of Debye-Joseph on 8 cells (blocks of
    8, 16, 32 and 44 steps in a 100-step budget) picks a run for each
    landing: stopped by the norm factor on the first, the last or a middle
    step of a later block; overflowing inside a later block (amplitude
    1e306); or running its whole budget, which ends in a partial block.
    Each ends where the referee step() loop ends, with the same norms bit
    for bit."""
    lengths = []
    blocks = simulator._norm_blocks

    def recorded(*args):
        for block in blocks(*args):
            lengths.append(len(block))
            yield block
    monkeypatch.setattr(simulator, "_norm_blocks", recorded)
    scheme, wn, steps = Scheme.DEBYE_JOSEPH, Wavenumber(math.pi), 100
    medium, h = medium_for(scheme)
    amplitude = 1e306 if landing == "overflow" else 1.0

    def lands(rep):
        if landing == "budget":
            return rep.steps == steps and rep.max_norm_ratio <= simulator.GROWTH_NORM_FACTOR
        if landing == "overflow":
            return rep.overflow_step is not None and _landing(rep.overflow_step, lengths)[0] > 0
        block, position = _landing(rep.steps, lengths)
        return (rep.max_norm_ratio > simulator.GROWTH_NORM_FACTOR
                and block > 0 and position == landing)

    for lam in 1.0 + 10.0 ** np.random.default_rng(29).uniform(-4.0, -1.5, 200):
        k = lam * h / medium.c_inf
        lengths.clear()
        rep = run_growth(scheme, medium, k, h, wn, steps, grid=8, amplitude=amplitude)
        if lands(rep):
            break
    else:
        pytest.fail(f"no scanned run lands {landing}")
    norms, overflow_step = _step_loop_history(scheme, medium, k, h, wn, steps, None, 8,
                                              amplitude)
    stop = overflow_step or len(norms) - 1
    block, position = _landing(stop, lengths)
    if landing == "budget":
        assert stop == steps and lengths == [8, 16, 32, 44]
    elif landing == "overflow":
        assert overflow_step is not None and block > 0
    else:
        assert overflow_step is None and block > 0 and position == landing
    assert rep.norms.tobytes() == norms.tobytes()
    assert (rep.steps, rep.overflow_step) == (len(norms) - 1, overflow_step)


@settings(max_examples=60, deadline=None, derandomize=True)
@given(scheme=hst.sampled_from(list(Scheme)),
       pol=hst.sampled_from([None, "te", "tm"]),
       lam_ratio=hst.floats(0.3, 2.0),
       modes=hst.tuples(hst.integers(0, 7), hst.integers(0, 5)))
def test_stopped_run_keeps_the_full_horizon_verdict(scheme, pol, lam_ratio, modes):
    """Ending a run at the step that decides it changes no verdict.  With
    lam from 0.3 to 2 times the scheme's limit at the grid's largest q, the
    verdict of run_growth equals that of the full 100-step referee step()
    loop read by the rule without a stop (growing iff it overflows, its
    max norm ratio passes GROWTH_NORM_FACTOR or its tail factor passes
    1 + GROWTH_RATE_TOL), and its norms are a bit-identical prefix of the
    full history."""
    rep, (full, overflow_step) = _growth_and_step_loop(
        scheme, pol, 8, 6, 2.0, modes, lam_ratio ** 2, 1.0, stop_factor=None)
    growing = (overflow_step is not None
               or full.max() / full[0] > simulator.GROWTH_NORM_FACTOR
               or simulator._tail_factor(full) > 1.0 + simulator.GROWTH_RATE_TOL)
    assert rep.verdict == ("growing" if growing else "bounded")
    assert empirical_verdict(rep).stable is not growing
    assert rep.norms.tobytes() == full[:len(rep.norms)].tobytes()
    if rep.max_norm_ratio <= simulator.GROWTH_NORM_FACTOR:  # not stopped
        assert rep.overflow_step == overflow_step
        assert len(rep.norms) == len(full)


def test_empirical_verdict_trivial_mappings():
    from fdtd_stability.simulator import GrowthReport
    bounded = GrowthReport(100, 1.0, 1.2, "bounded", np.ones(101))
    assert empirical_verdict(bounded).stable
    grown = GrowthReport(100, 1.2, 2e3, "growing", np.geomspace(1, 2e3, 101))
    assert not empirical_verdict(grown).stable


# --- 2D ------------------------------------------------------------------------

@pytest.mark.parametrize("polarization", ["te", "tm"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_2d_with_zero_xi_y_reproduces_1d(scheme, polarization):
    """Every column of a 2D run with no transverse variation follows the 1D
    run: in TE the 1D slots b, E, aux are b_y (with opposite sign), E, aux;
    in TM they are b_z, E_y, aux_y.  The other slots (b_x in TE, E_x and
    its auxiliaries in TM) start at 0 and stay exactly 0."""
    medium, k, h, params = stable_params(scheme, lam=0.6)
    n, ny, m = 32, 6, 5
    xi = 2 * math.pi * m / n
    st1 = init_plane_wave(scheme, n, Wavenumber(xi), 1.0)
    st2 = init_plane_wave(scheme, (n, ny), Wavenumber(xi, 0.0, h_x=h, h_y=h),
                          1.0, polarization=polarization)
    if polarization == "te":
        slot = {l: (l, 1.0) for l in st1.labels} | {"b": ("b_y", -1.0)}
    else:
        slot = {l: (l + "_y", 1.0) for l in st1.labels} | {"b": ("b_z", 1.0)}
    arrays = {l: np.zeros((n, ny)) for l in st2.labels}
    for label, (label_2d, sign) in slot.items():
        arrays[label_2d] = np.tile(sign * st1.arrays[label][:, None], (1, ny))
    st2 = replace(st2, data=np.stack([arrays[l] for l in st2.labels]))
    for _ in range(100):
        st1 = step(scheme, st1, params)
        st2 = step(scheme, st2, params)
    for label, arr in st1.arrays.items():
        label_2d, sign = slot[label]
        np.testing.assert_allclose(sign * st2.arrays[label_2d],
                                   np.broadcast_to(arr[:, None], (n, ny)), rtol=0,
                                   atol=1e-9 * max(1.0, np.max(np.abs(arr))))
    mapped = {label_2d for label_2d, _ in slot.values()}
    for label_2d in set(st2.labels) - mapped:
        assert np.max(np.abs(st2.arrays[label_2d])) == 0.0, label_2d


@pytest.mark.parametrize("polarization", ["te", "tm"])
@pytest.mark.parametrize("scheme", list(Scheme))
def test_2d_mode_matrix_eigenvalues_are_factor_roots(scheme, polarization):
    """The 2D referee of the closed-form polynomials: the eigenvalues of the
    per-mode update matrix measured on the grid are the roots of the factors
    of (Z - 1) phi(q) in TE and (Z - 1) psi phi(q) in TM, taken together, on
    an 8 x 6 grid with h_y = 2 h_x."""
    params = DimensionlessParams(lam=0.3, delta=0.2, eps_s_prime=3.0,
                                 omega=0.6 if scheme.kind == "lorentz" else None)
    shape, modes = (8, 6), (3, 1)
    wn = Wavenumber(2 * math.pi * modes[0] / shape[0], 2 * math.pi * modes[1] / shape[1],
                    h_x=1.0, h_y=2.0)
    G = mode_matrix_2d(scheme, polarization, params, wn, shape, modes)
    eigs = list(np.linalg.eigvals(G))
    roots = factor_roots_2d(scheme, params, wn, polarization)
    assert len(roots) == len(eigs)
    for z in roots:  # nearest unmatched eigenvalue; all roots here are simple
        nearest = eigs.pop(int(np.argmin(np.abs(np.array(eigs) - z))))
        assert abs(nearest - z) < 1e-12, (z, nearest)


@pytest.mark.parametrize("polarization", ["te", "tm"])
def test_2d_stable_point_bounded(polarization, optical_lorentz):
    h = 1e-8
    lam = math.sqrt(0.5 * 2.0 / 8.0)  # q_total = half the Joseph limit
    k = lam * h / optical_lorentz.c_inf
    wn = Wavenumber(math.pi, math.pi, h_x=h, h_y=h)
    rep = run_growth(Scheme.LORENTZ_JOSEPH, optical_lorentz, k, h, wn, 500,
                     polarization=polarization, grid=(16, 16))
    assert rep.verdict == "bounded"


def test_2d_unstable_point_grows(water):
    h = 1e-5
    k = 1.05 * h / (math.sqrt(2.0) * water.c_inf)
    wn = Wavenumber(math.pi, math.pi, h_x=h, h_y=h)
    rep = run_growth(Scheme.DEBYE_JOSEPH, water, k, h, wn, 900,
                     polarization="te", grid=(16, 16))
    assert rep.verdict == "growing"


def test_run_growth_peak_memory(optical_lorentz):
    """run_growth holds about two states at a time: the initial state must
    not stay alive beside the evolving one (that reads about 3.4 states)."""
    h = 1e-8
    k = 0.5 * h / optical_lorentz.c_inf
    n = 128
    wn = Wavenumber(2 * math.pi * 5 / n, 2 * math.pi * 3 / n, h_x=h, h_y=h)
    st = init_plane_wave(Scheme.LORENTZ_KASHIWA, (n, n), wn, 1.0, polarization="tm")
    state_bytes = sum(a.nbytes for a in st.arrays.values())
    del st
    tracemalloc.start()
    try:
        run_growth(Scheme.LORENTZ_KASHIWA, optical_lorentz, k, h, wn, 100,
                   polarization="tm", grid=(n, n))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 2.5 * state_bytes


@pytest.mark.parametrize("n,has_rows", [(24, True), (128, False)])
def test_run_growth_row_block_within_budget(optical_lorentz, n, has_rows):
    """Beside its two states and three scratch slots, a Lorentz-Kashiwa TM
    run holds a block of rows of up to _ROW_BLOCK_BYTES on a verify-size
    24 x 24 grid (8 rows of 31.5 KiB), and none on 128 x 128, whose state
    is above the budget.  The slack is the bound calls' Python objects,
    about 40 KiB measured."""
    h = 1e-8
    k = 0.5 * h / optical_lorentz.c_inf
    wn = Wavenumber(2 * math.pi * 5 / n, 2 * math.pi * 3 / n, h_x=h, h_y=h)
    st = init_plane_wave(Scheme.LORENTZ_KASHIWA, (n, n), wn, 1.0, polarization="tm")
    state_bytes = st.data.nbytes
    base = state_bytes * (2 + 2 / len(st.labels))
    del st
    tracemalloc.start()
    try:
        run_growth(Scheme.LORENTZ_KASHIWA, optical_lorentz, k, h, wn, 100,
                   polarization="tm", grid=(n, n))
        extra = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    slack = 64 * 1024
    if has_rows:
        assert 2 * state_bytes <= extra <= simulator._ROW_BLOCK_BYTES + slack
    else:
        assert extra <= slack


def test_step_rejects_mismatched_scheme():
    _, _, _, params = stable_params(Scheme.DEBYE_JOSEPH)
    st = init_plane_wave(Scheme.DEBYE_JOSEPH, 16, Wavenumber(0.0), 1.0)
    with pytest.raises(InvalidInputError):
        step(Scheme.DEBYE_YOUNG, st, params)


def test_run_growth_requires_enough_steps(water):
    with pytest.raises(InvalidInputError):
        run_growth(Scheme.DEBYE_JOSEPH, water, 1e-15, 1e-5, Wavenumber(0.0), 10)
