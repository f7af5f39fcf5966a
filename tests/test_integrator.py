"""Tests for the integrator: RK4 step matrices inside pulses, exact free
flight between them, diagnostics."""
from __future__ import annotations

import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kickedqubit import (
    ExperimentConfig,
    HydrogenModel,
    IntegrationDivergedError,
    KickSequence,
    LinearDriveModel,
    PulseSpec,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    Trajectory,
    TwoStatePulseModel,
    default_params,
    effective_two_state_model,
    free_phase,
    integrate,
    norm_drift,
    rectangular_exact,
    run_experiment,
)
from kickedqubit import integrator as integrator_module
from kickedqubit.integrator import (
    _BLOCK,
    _chain,
    _constant,
    _free_flight,
    _free_links,
    _integrate,
    _Links,
    _matmul,
    _Run,
    _segment_products,
    _step_matrices,
    _system,
)

from field_reference import hamiltonians, rk4_step, stage_hamiltonians


def _constant_model(h, t1):
    """H(t) = h over the run [0, t1]: a zero h0 and one rectangular pulse of
    unit height on a_x = h whose support spans the run, so RK4 steps every
    interval."""
    h = np.asarray(h, dtype=complex)
    tau = 20.0 * (t1 + 1.0)  # tau/20 exceeds every dt of these tests
    seq = KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=tau, t_k=0.0, tau=tau),),
        delta_e=1.0)
    zero = np.zeros_like(h)
    return LinearDriveModel(zero, h, zero, seq)


def _gaussian_sequence(alpha=0.3, t_k=1.0, tau=0.05, delta_e=1.0, axis="x"):
    return KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis=axis, alpha=alpha, t_k=t_k, tau=tau),),
        delta_e=delta_e)


def test_constant_hamiltonian_matches_expm_two_level():
    h = -0.5 * 1.3 * SIGMA_Z + 0.4 * SIGMA_X
    model = _constant_model(h, 2.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y0, 0.0, 2.0, 1e-3)
    assert traj.rk4_steps == 2000
    exact = expm(-1j * h * 2.0) @ y0
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-10


def test_constant_hamiltonian_matches_expm_three_level():
    rng = np.random.default_rng(61)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    h = 0.5 * (a + a.conj().T)
    model = _constant_model(h, 1.5)
    y0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    traj = integrate(model, y0, 0.0, 1.5, 1e-3)
    assert traj.rk4_steps == 1500
    exact = expm(-1j * h * 1.5) @ y0
    assert np.max(np.abs(traj.states[-1] - exact)) < 1e-9


def test_global_error_is_fourth_order():
    h = -0.5 * SIGMA_Z + 0.7 * SIGMA_X
    model = _constant_model(h, 1.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    exact = expm(-1j * h * 1.0) @ y0
    errors = []
    for dt in (0.02, 0.01, 0.005, 0.0025):
        traj = integrate(model, y0, 0.0, 1.0, dt)
        errors.append(np.max(np.abs(traj.states[-1] - exact)))
    slopes = [math.log2(errors[i] / errors[i + 1]) for i in range(3)]
    for s in slopes:
        assert s == pytest.approx(4.0, abs=0.3)


def test_norm_drift_stays_tiny_for_hermitian_h():
    seq = _gaussian_sequence()
    model = TwoStatePulseModel(seq)
    y0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y0, 0.0, 2.0, 2e-4)  # 10^4 steps
    assert norm_drift(traj) < 1e-8


def test_rk4_step_agrees_with_one_integrate_step():
    h = -0.5 * SIGMA_Z + 0.3 * SIGMA_X
    model = _constant_model(h, 0.01)
    y0 = np.array([0.6, 0.8j], dtype=complex)
    stepped = rk4_step(model, y0, 0.0, 0.01)
    traj = integrate(model, y0, 0.0, 0.01, 0.01)
    assert np.allclose(stepped, traj.states[-1])


def test_rk4_step_takes_rectangular_edges_from_inside_the_step():
    # the pulse is on over [0, 1], so its trailing edge is the end of the
    # last step, whose end stage must still see the pulse as integrate's
    # step matrices do
    model = TwoStatePulseModel(KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=0.4, t_k=0.5, tau=1.0),),
        delta_e=1.3))
    y = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y, 0.0, 1.0, 0.01)
    for k in range(100):
        y = rk4_step(model, y, k * 0.01, 0.01)
    assert np.max(np.abs(y - traj.states[-1])) < 1e-12


def test_a_rectangle_does_not_leak_into_the_link_before_its_start():
    # B starts 1e-12 after A ends, both inside C, so the link between them
    # is about 1e-12 long: a nudge of 1e-6 dt off its end, to read the
    # field from inside the link, is below half an ulp and lands on B
    a = PulseSpec(shape="rectangular", axis="x", alpha=0.3, t_k=0.8, tau=0.3)
    a_end = a.support()[1]
    b = PulseSpec(shape="rectangular", axis="x", alpha=0.6, t_k=a_end + 1e-12 + 0.15, tau=0.3)
    c = PulseSpec(shape="rectangular", axis="y", alpha=0.5, t_k=1.0, tau=1.0)
    model = TwoStatePulseModel(KickSequence(pulses=(a, c, b), delta_e=1.3))
    n_steps = round(2.0 / 0.0123)
    starts, ends, dts, _, _ = _chain(model, 0.0, 2.0 / n_steps, n_steps)
    i = int(np.argmin(dts))
    assert (starts[i], ends[i]) == (a_end, b.support()[0])
    vx, vy, _ = model._fields(starts[i:i + 1], dts[i:i + 1], np.ones(1, dtype=bool))
    assert vx is None or not vx.any()
    # one row: a rectangle's field serves all three stages of a link
    assert np.array_equal(vy, np.full((1, 1), 0.5))


def test_integrate_validates_inputs():
    model = _constant_model(SIGMA_Z, 1.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.raises(ValueError, match="dt"):
        integrate(model, y0, 0.0, 1.0, -0.1)
    with pytest.raises(ValueError, match="sample_every"):
        integrate(model, y0, 0.0, 1.0, 0.1, sample_every=0)
    with pytest.raises(ValueError, match="t1 > t0"):
        integrate(model, y0, 1.0, 1.0, 0.1)
    with pytest.raises(ValueError, match="shape"):
        integrate(model, np.array([1.0, 0.0, 0.0], dtype=complex), 0.0, 1.0, 0.1)


def test_divergence_raises_on_generic_path():
    # amplifying generator dy/dt = 1e3 y (H = 1e3 i), stepped by RK4 over
    # the whole span
    model = _constant_model(1j * np.eye(2) * 1e3, 10.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(IntegrationDivergedError):
            integrate(model, y0, 0.0, 10.0, 0.01)


def test_divergence_raises_on_kernel_path():
    # dt far beyond the stability limit of RK4 inside a wide, strong pulse:
    # h |alpha / tau| = 8e4 >> 2.8 over its 20 steps (free flight is exact
    # and cannot diverge)
    seq = KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=1.5e6, t_k=1000.0, tau=150.0),),
        delta_e=1.0)
    model = TwoStatePulseModel(seq)
    y0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.warns(UserWarning, match="too coarse"):
        with pytest.raises(IntegrationDivergedError):
            integrate(model, y0, 0.0, 40_000.0, 8.0)


def test_coarse_dt_warns_against_pulse_width():
    seq = _gaussian_sequence(tau=0.05)
    model = TwoStatePulseModel(seq)
    y0 = np.array([1.0, 0.0], dtype=complex)
    with pytest.warns(UserWarning, match="too coarse"):
        integrate(model, y0, 0.0, 2.0, 0.05)  # dt = 20 * (tau/20)


@pytest.mark.parametrize("t_k", [1.0, 1.3, 1.49])
def test_coarse_dt_warning_allows_for_the_rounding_of_the_span(t_k):
    # the ends t_k -+ 1.5 tau carry a rounding of about an ulp of t_k, which
    # makes h = span/60 exceed tau/20 by far more than 1e-12 relative; a step
    # of twice tau/20 still warns
    tau = 1e-5
    model = TwoStatePulseModel(KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=0.5, t_k=t_k, tau=tau),),
        delta_e=1.0))
    y0 = np.array([1.0, 0.0], dtype=complex)
    t0, t1 = t_k - 0.5 * tau - tau, t_k + 0.5 * tau + tau
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(model, y0, t0, t1, tau / 20.0, sample_every=60)
    assert traj.dt > tau / 20.0 * (1.0 + 1e-12)
    with pytest.warns(UserWarning, match="too coarse"):
        integrate(model, y0, t0, t1, tau / 10.0)


def test_sampling_includes_both_endpoints():
    model = _constant_model(SIGMA_Z, 1.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y0, 0.0, 1.0, 0.1, sample_every=3)
    # steps 0,3,6,9 plus the forced endpoint step 10
    assert traj.times[0] == 0.0
    assert traj.times[-1] == pytest.approx(1.0)
    assert len(traj.times) == 5
    evenly = integrate(model, y0, 0.0, 1.0, 0.1, sample_every=5)
    assert len(evenly.times) == 3  # 0.0, 0.5, 1.0


def test_step_count_rounds_to_cover_the_span():
    model = _constant_model(SIGMA_Z, 1.0)
    y0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y0, 0.0, 1.0, 0.3)  # 3.33 steps -> 3 steps of 1/3
    assert len(traj.times) == 4
    assert traj.times[-1] == pytest.approx(1.0)


def test_trajectory_from_states():
    times = np.array([0.0, 1.0])
    states = np.array([[1.0, 0.0], [0.6, 0.8j]], dtype=complex)
    traj = Trajectory.from_states(times, states)
    assert traj.probabilities[1] == pytest.approx([0.36, 0.64])
    assert traj.norms[1] == pytest.approx(1.0)


@pytest.mark.parametrize("d", [2, 3])
def test_trajectory_norms_add_the_levels_as_a_row_sum_does(d):
    # the norms add the probability columns left to right, bit for bit as
    # probabilities.sum(axis=1) does; probabilities from 1e-150 to 1e2 mixed
    # within each row make the order of the additions show in the rounding
    rng = np.random.default_rng(d)
    amplitudes = 10.0 ** rng.uniform(-75.0, 1.0, (4000, d))
    states = amplitudes * np.exp(2j * np.pi * rng.random((4000, d)))
    traj = Trajectory.from_states(np.arange(4000.0), states)
    probs = traj.probabilities
    assert np.array_equal(traj.norms.view(np.int64), probs.sum(axis=1).view(np.int64))
    if d == 3:  # the other order rounds differently on these rows
        assert not np.array_equal(traj.norms, probs[:, 0] + (probs[:, 1] + probs[:, 2]))


def _smooth_model(kind):
    """A gaussian-driven model of each kind and the end of its run.

    The qubit's supports cover its whole run; the hydrogen pulses leave free
    flight before, between and after them, and so do those of the general
    qubit, whose non-diagonal ``h0`` takes the eigenbasis free flight.
    """
    if kind == "qubit":
        seq = KickSequence(pulses=(
            PulseSpec(shape="gaussian", axis="x", alpha=0.4, t_k=0.3, tau=0.05),
            PulseSpec(shape="gaussian", axis="y", alpha=0.3, t_k=0.7, tau=0.05)),
            delta_e=1.3)
        return TwoStatePulseModel(seq), 1.0
    p = default_params()
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=4.0, tau=0.3),
        PulseSpec(shape="gaussian", axis="y", alpha=0.2, t_k=12.0, tau=0.3)),
        delta_e=p.delta_e)
    if kind == "effective":
        return effective_two_state_model(p, seq), 16.0
    if kind == "general":
        return LinearDriveModel([[0.5, 0.2], [0.2, -0.5]], SIGMA_X, SIGMA_Y, seq), 16.0
    return HydrogenModel(p, seq, basis=kind), 16.0


def test_a_non_diagonal_h0_flies_free_in_its_eigenbasis():
    # every package model has a diagonal h0 or overrides the eigenbasis, so
    # only the general kind reaches the np.linalg.eig branch
    model, _ = _smooth_model("general")
    assert model._free[1] is not None


def _segmented_reference(model, y, t1, n_steps, sample_every):
    """Samples of a plain :func:`rk4_step` loop between the grid points inside
    the pulse supports and every support end, with ``expm`` of the free
    Hamiltonian across the gaps between supports."""
    h = t1 / n_steps
    supports = [p.support() for p in model.seq.pulses]
    ends = {min(max(e, 0.0), n_steps * h) for s in supports for e in s}
    grid = {k * h: k for k in range(n_steps + 1)}
    nodes = sorted(set(grid) | ends)
    out = [y]
    for t, t_next in zip(nodes, nodes[1:]):
        mid = 0.5 * (t + t_next)
        if any(lo <= mid <= hi for lo, hi in supports):
            y = rk4_step(model, y, t, t_next - t)
        else:
            y = expm(-1j * model.h0 * (t_next - t)) @ y
        k = grid.get(t_next)
        if k is not None and (k % sample_every == 0 or k == n_steps):
            out.append(y)
    return np.array(out)


@pytest.mark.parametrize("kind", ["qubit", "j", "coupled", "effective", "general"])
def test_integrate_matches_rk4_step_loop(kind):
    # the batched step matrices and the exact free flight against a plain
    # loop of the vector RK4 reference and expm; gaussian profiles, so the
    # edge side plays no part.  The step count is no multiple of the block
    # size and the qubit's samples straddle blocks.
    model, t1 = _smooth_model(kind)
    n_steps, sample_every = 2 * _BLOCK + 77, 7
    assert n_steps % _BLOCK and _BLOCK % sample_every
    h = t1 / n_steps
    y = np.zeros(model.dimension, dtype=complex)
    y[0] = 1.0
    traj = integrate(model, y, 0.0, t1, h, sample_every=sample_every)
    expected = _segmented_reference(model, y, t1, n_steps, sample_every)
    assert len(traj.states) == len(expected)
    assert np.max(np.abs(traj.states - expected)) < 1e-12
    assert abs(traj.probabilities[-1, 0] - 1.0) > 1e-3  # the drive acted
    ks = np.append(np.arange(0, n_steps, sample_every), n_steps)
    assert np.array_equal(traj.times, 0.0 + ks * h)  # bit for bit
    assert traj.dt == h
    assert (traj.rk4_steps < n_steps) == (kind != "qubit")


def _rectangular_train(kind):
    """Eleven short rectangular pulses with gaps, every edge off the grid of
    ``dt``: 1,111 RK4 steps, eleven supports and their free links.
    Returns the model, the end of its run and ``dt``."""
    scale, dt = (1.0, 1e-3) if kind == "qubit" else (3.0, 3e-3)
    pulses = tuple(
        PulseSpec(shape="rectangular", axis="xy"[i % 2], alpha=0.15 + 0.02 * i,
                  t_k=scale * (0.3 + 0.2 * i + 0.000371), tau=0.1 * scale)
        for i in range(11))
    if kind == "qubit":
        return TwoStatePulseModel(KickSequence(pulses=pulses, delta_e=1.3)), 2.5, dt
    p = default_params()
    seq = KickSequence(pulses=pulses, delta_e=p.delta_e)
    return HydrogenModel(p, seq, basis="coupled"), 7.5, dt


@pytest.mark.parametrize("kind", ["qubit", "coupled"])
def test_chain_of_rectangular_pulses_matches_rk4_step_loop(kind, monkeypatch):
    # a window of the chain holds several supports and free links; every
    # support end is a node and the state passes from RK4 links to free
    # links and back inside a window (more than two run windows:
    # test_rectangular_chain_across_windows_matches_the_per_link_advance)
    model, t1, dt = _rectangular_train(kind)
    n_steps, sample_every = round(t1 / dt), 7
    y = np.zeros(model.dimension, dtype=complex)
    y[0] = 1.0
    windows = _recorded_windows(monkeypatch)
    traj = integrate(model, y, 0.0, t1, dt, sample_every=sample_every)
    assert len(windows) == 1  # all eleven supports
    assert traj.rk4_steps == 11 * (round(model.min_tau / dt) + 1)
    expected = _segmented_reference(model, y, t1, n_steps, sample_every)
    assert len(traj.states) == len(expected)
    assert np.max(np.abs(traj.states - expected)) < 1e-12
    assert abs(traj.probabilities[-1, 0] - 1.0) > 1e-2  # the drive acted


@pytest.mark.parametrize("t_k, rk4_steps", [(1.0, 2 * _BLOCK), (5.0, 0)])
def test_last_free_flight_after_whole_blocks(t_k, rk4_steps):
    # h = 1 / (2 _BLOCK), a power of two: the support [0.5, 1.5] is exactly
    # 2 * _BLOCK steps, whole windows, so the last free flight follows the
    # last window; at t_k = 5 the support lies past the span and the run is
    # one free flight
    assert _BLOCK & (_BLOCK - 1) == 0
    seq = KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=0.4, t_k=t_k, tau=1.0),),
        delta_e=1.3)
    model = TwoStatePulseModel(seq)
    y = np.array([1.0, 0.0], dtype=complex)
    n_steps, sample_every = 4 * _BLOCK, 7
    traj = integrate(model, y, 0.0, 2.0, 2.0 / n_steps, sample_every=sample_every)
    assert traj.rk4_steps == rk4_steps
    expected = _segmented_reference(model, y, 2.0, n_steps, sample_every)
    assert np.max(np.abs(traj.states - expected)) < 1e-12


# the span [0, 4] of _gaussian_windows, in steps of 2^-10
_WINDOWS_T1, _WINDOWS_STEPS = 4.0, 4096


def _gaussian_windows(kind, half):
    """Three gaussian pulses whose ``6 tau`` supports are ``2 half`` steps of
    ``h = 2^-10`` each, ends on the grid.  With ``half = 256`` the chain is
    1,536 links, and in windows of 512 links each free flight between
    supports starts exactly at a window boundary."""
    pulses = tuple(PulseSpec(shape="gaussian", axis="xy"[i % 2], alpha=0.4 - 0.1 * i,
                             t_k=1.0 + i, tau=half * 2.0 ** -10 / 6.0) for i in range(3))
    if kind == "qubit":
        return TwoStatePulseModel(KickSequence(pulses=pulses, delta_e=1.3))
    p = default_params()  # with 2p decay
    return HydrogenModel(p, KickSequence(pulses=pulses, delta_e=p.delta_e), basis=kind)


@pytest.mark.parametrize("half", [256, 150])
@pytest.mark.parametrize("kind", ["qubit", "j", "coupled"])
def test_segment_products_equal_the_per_link_advance(kind, half, monkeypatch):
    # with sample_every > 1 a gaussian window applies one product per segment
    # of links between samples; the samples it keeps are those of the
    # per-link advance of sample_every = 1, up to the rounding of the
    # products, in windows of 512 links (at half = 256 every free flight at
    # a window bound) and in one window of _BLOCK
    model, t1, n_steps = _gaussian_windows(kind, half), _WINDOWS_T1, _WINDOWS_STEPS
    h = t1 / n_steps
    *_, flights = _chain(model, 0.0, h, n_steps)
    links = [k for k, _, _ in flights]
    if half == 256:
        assert links == [0, 512, 1024, 1536]
    y = np.zeros(model.dimension, dtype=complex)
    y[0] = 1.0
    every = integrate(model, y, 0.0, t1, h)
    assert every.rk4_steps == 6 * half
    for block, sample_every in itertools.product((512, _BLOCK), (5, 10)):
        monkeypatch.setattr(integrator_module, "_BLOCK", block)
        traj = integrate(model, y, 0.0, t1, h, sample_every=sample_every)
        ks = np.append(np.arange(0, n_steps, sample_every), n_steps)
        assert np.array_equal(traj.times, every.times[ks])
        assert np.max(np.abs(traj.states - every.states[ks])) < 1e-13
    assert abs(every.probabilities[-1, 0] - 1.0) > 1e-2  # the drive acted


def _product(a, b):
    """:func:`_matmul` of ``a`` and ``b`` into a new stack."""
    shape = (len(a), len(a), *a.shape[2:])
    return _matmul(a, b, np.empty(shape, dtype=complex), np.empty(shape, dtype=complex))


def _power_of_two_segment_products(mats, ends):
    """The segment products of :func:`_segment_products` as formed with
    every segment padded at its front with identities to the power of two at
    or above the longest one, neighbouring positions multiplied pairwise
    from the front of that padded length: the reference it must equal bit
    for bit."""
    d, _, n = mats.shape
    ends = np.array(ends)
    lengths = np.diff(ends, prepend=0)
    size = 1 << (int(lengths.max()) - 1).bit_length()
    stack = np.zeros((d, d, size, len(ends)), dtype=complex)
    stack.reshape(d * d, size, -1)[::d + 1] = 1.0
    stack[:, :, np.arange(n) + size - np.repeat(ends, lengths),
          np.repeat(np.arange(len(ends)), lengths)] = mats
    while stack.shape[2] > 1:
        stack = _product(stack[:, :, 1::2], stack[:, :, 0::2])
    return stack[:, :, 0]


@settings(max_examples=150, deadline=None)
@given(d=st.sampled_from([2, 3]),
       lengths=st.lists(st.integers(1, 17), min_size=1, max_size=9),
       seed=st.integers(0, 2**32 - 1))
@example(d=2, lengths=[1], seed=0)  # one single-link segment
@example(d=2, lengths=[3], seed=1)  # an odd count: the first link passes a round
@example(d=3, lengths=[10, 1, 7, 4], seed=2)  # the longest is no power of two
@example(d=3, lengths=[17, 16, 1, 2, 9], seed=3)
def test_segment_products_equal_power_of_two_padding(d, lengths, seed):
    # padding to the longest segment and pairing from its end forms every
    # product in the same tree, and so bit for bit, as the power-of-two
    # padding did, without the products with identities
    rng = np.random.default_rng(seed)
    n = sum(lengths)
    mats = rng.standard_normal((d, d, n)) + 1j * rng.standard_normal((d, d, n))
    ends = np.cumsum(lengths)
    want = _power_of_two_segment_products(mats, ends)
    # a work array the gather and its rounds fit in, and one they do not
    for work in (np.empty(2 * d * d * max(lengths) * len(lengths), dtype=complex),
                 np.empty(0, dtype=complex)):
        got = _segment_products(mats, ends, work)
        assert got.shape == want.shape == (d, d, len(lengths))
        assert np.array_equal(np.ascontiguousarray(got).view(np.int64),
                              np.ascontiguousarray(want).view(np.int64))


def _per_link_states(model, y, t1, n_steps):
    """The state at every grid point, advanced link by link on Python complex
    scalars, ``y <- M y`` one entry at a time, with the exact free flights
    between supports: the advance that ``sample_every = 1`` runs."""
    h = t1 / n_steps
    times = np.arange(n_steps + 1) * h
    starts, ends, dts, _, flights = _chain(model, 0.0, h, n_steps)
    mats = _every_link(model, starts, dts).transpose(2, 0, 1).tolist()
    flights = {k: flight for k, *flight in _free_links(model, [(flights, times)])[0]}
    states = np.empty((len(times), model.dimension), dtype=complex)
    states[0] = y
    y = y.tolist()
    for k in range(len(starts) + 1):
        if k in flights:
            y = _free_flight(model, y, *flights[k], states)
        if k == len(starts):
            break
        y = [sum(m * v for m, v in zip(row, y)) for row in mats[k]]
        at = np.searchsorted(times, ends[k])
        if at < len(times) and times[at] == ends[k]:
            states[at] = y
    return states


@pytest.mark.parametrize("kind", ["qubit", "coupled"])
def test_sample_every_1_advances_link_by_link(kind):
    # with every grid point sampled there is nothing to skip: the states are
    # those of the per-link advance bit for bit, as before segment products
    model, t1, n_steps = _gaussian_windows(kind, 150), _WINDOWS_T1, _WINDOWS_STEPS
    y = np.zeros(model.dimension, dtype=complex)
    y[0] = 1.0
    traj = integrate(model, y, 0.0, t1, t1 / n_steps)
    assert np.array_equal(traj.states, _per_link_states(model, y, t1, n_steps))


def test_sample_every_1_multiplies_the_links_to_an_off_grid_end(monkeypatch):
    # the overlapping gaussians of CI's gauss7 config: a link that ends at an
    # off-grid support end is not sampled, so it and the next link form one
    # segment product, which keeps the per-link advance's states up to its
    # rounding
    config = ExperimentConfig.from_dict({"experiment": "custom", "sample_every": 1, "pulses": [
        {"shape": "gaussian", "axis": "x", "alpha": 0.4, "t_k": 1.0037, "tau": 0.05},
        {"shape": "gaussian", "axis": "y", "alpha": 0.3, "t_k": 1.4511, "tau": 0.05}]})
    seq, t1 = config._runs["forward"]
    model = TwoStatePulseModel(seq)
    n_steps = round(t1 / model.default_dt(t1))
    longest = []

    def spy(mats, ends, work):
        longest.append(int(np.diff(ends, prepend=0).max()))
        return _segment_products(mats, ends, work)

    monkeypatch.setattr(integrator_module, "_segment_products", spy)
    y = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y, 0.0, t1, t1 / n_steps)
    assert max(longest) == 2
    assert np.max(np.abs(traj.states - _per_link_states(model, y, t1, n_steps))) < 1e-15
    assert abs(traj.probabilities[-1, 0] - 1.0) > 1e-2  # the drive acted


def _reference_step_matrices(model, starts, dts):
    """The RK4 step matrices from ``stage_hamiltonians`` and out-of-place
    arithmetic, the formula that :func:`_step_matrices` reproduces exactly."""
    a1, a2, a3 = (-1j * h for h in stage_hamiltonians(model, starts, dts))
    eye = np.eye(model.dimension)[:, :, None]
    k2 = _product(a2, eye + 0.5 * dts * a1)
    k3 = _product(a2, eye + 0.5 * dts * k2)
    k4 = _product(a3, eye + dts * k3)
    return eye + (dts / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)


# Gaussian and rectangular pulses on both axes.  The first three overlap on
# x, and their supports start in the order 1, 2, 0, so a sum out of sequence
# order rounds differently; the gaussian at t_k = 1 is nonzero an ulp below
# its support (which tau = 0.1 would not give at 6 tau).  Nothing drives
# [3.65, 4.1] or anything past 5.8.
_PIN_TRAIN = KickSequence(pulses=(
    PulseSpec(shape="gaussian", axis="x", alpha=0.4, t_k=1.0, tau=0.12),
    PulseSpec(shape="gaussian", axis="x", alpha=-0.3, t_k=1.1, tau=0.2),
    PulseSpec(shape="rectangular", axis="x", alpha=0.7, t_k=1.2, tau=2.2),
    PulseSpec(shape="rectangular", axis="y", alpha=0.2, t_k=3.3, tau=0.3),
    PulseSpec(shape="gaussian", axis="y", alpha=0.25, t_k=3.4, tau=0.02),
    PulseSpec(shape="rectangular", axis="y", alpha=-0.35, t_k=3.5, tau=0.25),
    PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=5.0, tau=0.1)),
    delta_e=1.3)


def _pin_blocks(train=_PIN_TRAIN):
    """Blocks of RK4 links ``(starts, dts)``: the train on a grid, in
    blocks of several sizes; blocks that meet no pulse; and single links
    at every support end and up to 3 ulps either side of it, stepping
    forward, backward, and over a step too short to leave the end."""
    h = 1e-2
    grid = np.arange(-0.6, 6.5, h)
    for size in (_BLOCK, 97, 5):
        for b0 in range(0, len(grid), size):
            yield grid[b0:b0 + size], np.full(len(grid[b0:b0 + size]), h)
    for starts in (np.linspace(3.7, 4.05, 20), np.linspace(6.0, 7.0, 33), np.array([-2.0])):
        yield starts, np.full(len(starts), h)
    for end in np.ravel([p.support() for p in train.pulses]):
        t = end
        for _ in range(3):
            t = np.nextafter(t, -np.inf)
        for _ in range(7):
            for starts, dts in (([t], [h]), ([t - h], [h]), ([t], [1e-18])):
                yield np.array(starts), np.array(dts)
            t = np.nextafter(t, np.inf)


def _pin_models(train=_PIN_TRAIN):
    p = default_params()
    return (TwoStatePulseModel(train), HydrogenModel(p, train, basis="j"),
            HydrogenModel(p, train, basis="coupled"),
            effective_two_state_model(p, train))


def _work(model, n):
    """The work array of :func:`_step_matrices` for ``n`` links: five
    ``(d, d, n)`` stacks."""
    return np.empty(5 * model.dimension ** 2 * n, dtype=complex)


def _every_link(model, starts, dts, runs=None):
    """The step matrix of every link, each run's matrix repeated over it;
    without ``runs``, every link is a run of its own."""
    if runs is None:
        runs = np.ones(len(starts), dtype=bool)
    mats, heads = _step_matrices(model, starts, dts, runs, _work(model, len(starts)))
    if heads is None:
        return mats
    return np.repeat(mats, np.diff(np.append(heads, len(starts))), axis=2)


@pytest.mark.parametrize("model", _pin_models(), ids=["qubit", "j", "coupled", "effective"])
def test_step_matrices_equal_the_reference_formula(model):
    # the one field pass over the block's pulses and the in-place
    # arithmetic change no value of any step matrix
    blocks = list(_pin_blocks())
    for starts, dts in blocks:
        assert np.array_equal(_every_link(model, starts, dts),
                              _reference_step_matrices(model, starts, dts)), (starts, dts)
    # the blocks do probe a gaussian outside its support where it is nonzero
    lo, hi = _PIN_TRAIN.pulses[0].support()
    assert any(np.all(s < lo) and _PIN_TRAIN.pulses[0].value(s[0]) != 0.0
               for s, dts in blocks if dts[0] < 1e-15)


# Rectangular pulses only: on x two that follow one another, then one that
# overlaps the second; on y one inside the first x pulse, and one that
# shares its window with a short x pulse.
_PIN_RECTANGLES = KickSequence(pulses=(
    PulseSpec(shape="rectangular", axis="x", alpha=0.4, t_k=1.0, tau=0.5),
    PulseSpec(shape="rectangular", axis="y", alpha=-0.2, t_k=1.1, tau=0.2),
    PulseSpec(shape="rectangular", axis="x", alpha=-0.3, t_k=1.6, tau=0.5),
    PulseSpec(shape="rectangular", axis="x", alpha=0.25, t_k=1.8, tau=0.3),
    PulseSpec(shape="rectangular", axis="x", alpha=0.5, t_k=3.0, tau=0.2),
    PulseSpec(shape="rectangular", axis="y", alpha=0.3, t_k=3.1, tau=0.4)),
    delta_e=1.3)


@pytest.mark.parametrize("model", _pin_models(_PIN_RECTANGLES),
                         ids=["qubit", "j", "coupled", "effective"])
def test_rectangular_step_matrices_equal_the_reference_formula(model):
    # on rectangular pulses only, each rectangle read once per link at its
    # midpoint changes no value of any matrix, where pulses follow one
    # another and where they overlap
    for starts, dts in _pin_blocks(_PIN_RECTANGLES):
        assert np.array_equal(_every_link(model, starts, dts),
                              _reference_step_matrices(model, starts, dts)), (starts, dts)


def test_a_block_inside_one_plateau_builds_few_matrices():
    # on a rectangular plateau every full step has the same field and dt, so
    # the chain flags only its first link: a block of its links that starts
    # with a run is one run, its matrix is built once, and every link's
    # matrix is still the reference formula's
    model = TwoStatePulseModel(KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=0.4, t_k=1.0, tau=1.0),),
        delta_e=1.3))
    starts, _, dts, runs, _ = _chain(model, 0.0, 1e-3, 2000)
    assert np.flatnonzero(runs).tolist() == [0]
    starts, dts, runs = starts[100:100 + _BLOCK], dts[100:100 + _BLOCK], runs[100:100 + _BLOCK]
    runs[0] = True
    mats, heads = _step_matrices(model, starts, dts, runs, _work(model, len(starts)))
    assert mats.shape[2] == 1 and heads.tolist() == [0]
    assert np.array_equal(_every_link(model, starts, dts, runs),
                          _reference_step_matrices(model, starts, dts))


def test_runs_break_at_a_free_flight():
    # two plateaus of one amplitude with a free flight between them, in one
    # window: the last step of the first and the first step of the second
    # have the same matrix, but the state must fly free between them
    model = TwoStatePulseModel(KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=0.3, t_k=0.5, tau=0.2),
        PulseSpec(shape="rectangular", axis="x", alpha=0.3, t_k=1.0, tau=0.2)),
        delta_e=1.3))
    n_steps, t1 = 150, 1.5
    starts, _, dts, runs, flights = _chain(model, 0.0, t1 / n_steps, n_steps)
    (k, a, b), = [f for f in flights if 0 < f[0] < len(starts)]
    assert (a, b) == pytest.approx((0.6, 0.9))
    # the link after the flight starts at a support end, so it starts a run
    assert runs[k] and not runs[k - 1] and not runs[k + 1]
    _, heads = _step_matrices(model, starts, dts, runs, _work(model, len(starts)))
    assert k in heads
    y = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y, 0.0, t1, t1 / n_steps, sample_every=3)
    expected = _segmented_reference(model, y, t1, n_steps, 3)
    assert np.max(np.abs(traj.states - expected)) < 1e-12


def _rk4_loop(model, y, t1, n_steps, sample_every):
    """Samples of a plain :func:`rk4_step` loop over the grid of ``[0, t1]``."""
    h = t1 / n_steps
    out = [y]
    for k in range(n_steps):
        y = rk4_step(model, y, k * h, h)
        if (k + 1) % sample_every == 0 or k + 1 == n_steps:
            out.append(y)
    return np.array(out)


def _recorded_windows(monkeypatch):
    """The ``(starts, heads)`` of every window that ``integrate`` builds
    step matrices for, recorded as it runs."""
    windows = []
    step_matrices = integrator_module._step_matrices

    def recorded(model, starts, dts, runs, work):
        mats, heads = step_matrices(model, starts, dts, runs, work)
        windows.append((starts, heads))
        return mats, heads

    monkeypatch.setattr(integrator_module, "_step_matrices", recorded)
    return windows


def _sampled(states, n_steps, sample_every):
    """The rows of per-grid-point ``states`` that ``sample_every`` keeps."""
    return states[np.append(np.arange(0, n_steps, sample_every), n_steps)]


def test_constant_hamiltonian_runs_match_rk4_step_loop(monkeypatch):
    # a plateau is one run however long: 8,269 links are one window and one
    # matrix, bit for bit the per-link advance
    rng = np.random.default_rng(62)
    a = rng.normal(size=(3, 3)) + 1j * rng.normal(size=(3, 3))
    model = _constant_model(0.5 * (a + a.conj().T), 3.0)
    n_steps, sample_every = 8_269, 7
    y = np.array([1.0, 0.0, 0.0], dtype=complex)
    windows = _recorded_windows(monkeypatch)
    traj = integrate(model, y, 0.0, 3.0, 3.0 / n_steps, sample_every=sample_every)
    assert traj.rk4_steps == n_steps
    assert [heads.tolist() for _, heads in windows] == [[0]]
    assert np.array_equal(traj.states, _sampled(
        _per_link_states(model, y, 3.0, n_steps), n_steps, sample_every))
    expected = _rk4_loop(model, y, 3.0, n_steps, sample_every)
    assert np.max(np.abs(traj.states - expected)) < 1e-12


def test_exceptional_point_runs_match_rk4_step_loop():
    # without an eigenbasis for h0, RK4 steps the gaps too: the whole span
    # is one support, and the off-grid rectangular edges are its nodes, so
    # the run keeps fourth order against the exact product of one expm per
    # constant piece
    h0 = np.array([[0.0, 0.25], [0.25, -0.5j]])
    seq = KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="y", alpha=0.6, t_k=1.00037, tau=0.5),),
        delta_e=1.0)
    model = LinearDriveModel(h0, SIGMA_X, SIGMA_Y, seq)
    assert model._free is None
    n_steps, sample_every = 4000, 50
    y = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y, 0.0, 2.0, 2.0 / n_steps, sample_every=sample_every)
    assert traj.rk4_steps == n_steps + 2  # one more link per off-grid edge
    lo, hi = seq.pulses[0].support()
    nodes = sorted({*traj.times.tolist(), lo, hi})
    exact, at = [y], y
    for a, b in zip(nodes, nodes[1:]):
        at = expm(-1j * hamiltonians(model, np.array([0.5 * (a + b)]))[:, :, 0]
                  * (b - a)) @ at
        if b in traj.times:
            exact.append(at)
    assert np.max(np.abs(traj.states - np.array(exact))) < 1e-10
    assert abs(traj.probabilities[-1, 1]) > 1e-3  # the drive acted


def test_rectangular_chain_across_windows_matches_the_per_link_advance(monkeypatch):
    # off-grid edges start about three runs a pulse (at the edge, and where
    # dt changes before and after it), so 200 pulses are more runs than one
    # window of 512 builds matrices for: the chain spans windows of at most
    # _BLOCK runs, with free flights inside them
    monkeypatch.setattr(integrator_module, "_BLOCK", 512)
    model = TwoStatePulseModel(KickSequence(pulses=tuple(
        PulseSpec(shape="rectangular", axis="xy"[i % 2], alpha=0.2 + 0.001 * i,
                  t_k=0.1 + 0.04 * i + 0.000371, tau=0.02) for i in range(200)),
        delta_e=1.3))
    n_steps, sample_every, t1 = 8200, 7, 8.2
    y = np.array([1.0, 0.0], dtype=complex)
    windows = _recorded_windows(monkeypatch)
    traj = integrate(model, y, 0.0, t1, t1 / n_steps, sample_every=sample_every)
    runs = [len(heads) for _, heads in windows]
    assert len(runs) > 1 and sum(runs) > 512 and max(runs) <= 512
    assert np.array_equal(traj.states, _sampled(
        _per_link_states(model, y, t1, n_steps), n_steps, sample_every))
    assert abs(traj.probabilities[-1, 0] - 1.0) > 1e-2  # the drive acted


def test_a_window_inside_a_plateau_of_a_mixed_chain(monkeypatch):
    # a gaussian puts the chain on windows of at most _BLOCK links, here
    # 512, so a window can start inside a rectangular plateau, where the
    # chain flags no link; meeting no gaussian, it reads the field once per
    # run, so its first link must start one
    monkeypatch.setattr(integrator_module, "_BLOCK", 512)
    model = TwoStatePulseModel(KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="y", alpha=0.3, t_k=0.3, tau=0.02),
        PulseSpec(shape="rectangular", axis="x", alpha=0.8, t_k=1.5, tau=2.0)),
        delta_e=1.3))
    n_steps, sample_every, t1 = 3000, 7, 3.0
    starts, _, _, runs, _ = _chain(model, 0.0, t1 / n_steps, n_steps)
    y = np.array([1.0, 0.0], dtype=complex)
    windows = _recorded_windows(monkeypatch)
    traj = integrate(model, y, 0.0, t1, t1 / n_steps, sample_every=sample_every)
    inside = [heads for s, heads in windows
              if heads is not None and not runs[np.searchsorted(starts, s[0])]]
    assert inside and all(heads[0] == 0 for heads in inside)
    expected = _segmented_reference(model, y, t1, n_steps, sample_every)
    assert np.max(np.abs(traj.states - expected)) < 1e-12
    assert abs(traj.probabilities[-1, 0] - 1.0) > 1e-2  # the drive acted


def _window_train(shape):
    """Twenty-four pulses a time unit apart, with free flights between their
    supports, off-grid support ends and every 7th state kept: as gaussians,
    about 20,500 RK4 links; as rectangles, about 70 runs."""
    return ExperimentConfig.from_dict({
        "experiment": "custom", "dt": 7e-4, "sample_every": 7,
        "pulses": [{"shape": shape, "axis": "xy"[i % 2], "alpha": 0.3 + 0.01 * i,
                    "t_k": 1.0 + i + 0.00037 * (i % 5), "tau": 0.05} for i in range(24)]})


@pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
def test_datasets_do_not_depend_on_the_window_size(shape, monkeypatch):
    # a gaussian segment ends at a sampled link or before a free flight,
    # never at a window end, and a window of rectangles applies each run's
    # matrix link by link: the datasets are the same bytes for any window
    # size, over several windows of each
    config = _window_train(shape)
    prints = []
    for block in (64, 512, _BLOCK):
        monkeypatch.setattr(integrator_module, "_BLOCK", block)
        windows = _recorded_windows(monkeypatch)
        datasets, _ = run_experiment(config)
        if shape == "gaussian" or block == 64:
            assert len(windows) > 1
        prints.append([(ds.name, ds.data.tobytes(), json.dumps(ds.meta, sort_keys=True))
                       for ds in datasets])
    assert prints[0] == prints[1] == prints[2]


def _gaussian_train(n):
    """ROADMAP's train: ``n`` gaussian x pulses at t = 1, 2, ..., n and the
    end of its run."""
    return TwoStatePulseModel(KickSequence(pulses=tuple(
        PulseSpec(shape="gaussian", axis="x", alpha=0.05, t_k=float(c), tau=0.01)
        for c in range(1, n + 1)), delta_e=1.0)), n + 1.5


def test_field_evaluations_grow_linearly_with_the_pulse_count(monkeypatch):
    # each block evaluates only the pulses it meets: at a fixed number of
    # steps per pulse, twice the pulses cost at most twice the evaluations
    value = PulseSpec.value
    calls = []

    def counted(self, t):
        calls.append(self)
        return value(self, t)

    monkeypatch.setattr(PulseSpec, "value", counted)
    counts = []
    for n in (25, 50):
        model, t1 = _gaussian_train(n)
        calls.clear()
        integrate(model, np.array([1.0, 0.0], dtype=complex), 0.0, t1,
                  model.default_dt(t1), sample_every=10**6)
        counts.append(len(calls))
    assert counts[0] >= 25
    assert counts[1] <= 2.0 * 1.1 * counts[0]


def test_a_200_pulse_rectangular_train_matches_the_exact_product():
    # off-grid x pulses, four to a block or more: a pulse that a block
    # wrongly leaves out shows far above the RK4 error
    rng = np.random.default_rng(20050303)
    tau, de = 0.05, 1.0
    areas = rng.uniform(-0.6, 0.6, 200)
    centres = 0.5 + 0.25 * np.arange(200) + rng.uniform(0.0, 0.1, 200)
    model = TwoStatePulseModel(KickSequence(pulses=tuple(
        PulseSpec(shape="rectangular", axis="x", alpha=a, t_k=c, tau=tau)
        for a, c in zip(areas, centres)), delta_e=de))
    t_end = centres[-1] + 0.5
    y0 = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y0, 0.0, t_end, model.default_dt(t_end), sample_every=10**6)
    u = np.eye(2)
    for a, c in zip(areas, centres):
        u = rectangular_exact(a, 0.5 * tau * de, c, de) @ u
    exact = free_phase(de, -t_end) @ u @ y0
    assert traj.rk4_steps > 20 * len(areas)  # tau / dt = 20 steps a pulse
    assert np.max(np.abs(traj.states[-1] - exact)) < 2e-8


def _diverging_train(kind, late):
    """Weak rectangular pulses and one strong one, beyond the RK4 stability
    limit.  ``late``: h |V| = 3.5 over 1,600 steps, so the state overflows
    about 530 steps in, in the second block of the chain; otherwise
    h |V| = 20 over 100 steps, and a free link follows in the same block."""
    weak = [PulseSpec(shape="rectangular", axis="x", alpha=0.3, t_k=0.5037, tau=0.25),
            PulseSpec(shape="rectangular", axis="y", alpha=0.2, t_k=1.5011, tau=0.3)]
    if late:
        weak.append(PulseSpec(shape="rectangular", axis="x", alpha=0.2, t_k=2.5011, tau=0.3))
        strong = PulseSpec(shape="rectangular", axis="x", alpha=350.0 * 16.0,
                           t_k=11.0037, tau=16.0)
        pulses = (*weak, strong)
    else:
        strong = PulseSpec(shape="rectangular", axis="x", alpha=2000.0, t_k=2.0037, tau=1.0)
        pulses = (weak[0], strong, PulseSpec(shape="rectangular", axis="y", alpha=0.2,
                                            t_k=4.0011, tau=0.3))
    delta_e = 1.3 if kind == "qubit" else default_params().delta_e
    seq = KickSequence(pulses=pulses, delta_e=delta_e)
    if kind == "qubit":
        return TwoStatePulseModel(seq)
    return HydrogenModel(default_params(), seq, basis="coupled")


@pytest.mark.parametrize("kind", ["qubit", "coupled"])
@pytest.mark.parametrize("late, t_bad", [(True, "8.33"), (False, "2.31")])
def test_divergence_names_the_first_non_finite_sample(kind, late, t_bad):
    # the first sample (every 7 steps) whose norm is not finite is named, as
    # with a check after every step, and not a later free flight's end; its
    # |y|^2 overflows before y does, at t_bad
    model = _diverging_train(kind, late)
    y = np.zeros(model.dimension, dtype=complex)
    y[0] = 1.0
    t1 = 20.0 if late else 6.0
    with np.errstate(all="ignore"):
        kept = _per_link_states(model, y, t1, round(t1 / 0.01))[::7]
        norms = Trajectory.from_states(np.zeros(len(kept)), kept).norms
    assert f"{7 * int(np.isfinite(kept).all(axis=1).argmin()) * 0.01:g}" == t_bad
    named = f"{7 * int(np.isfinite(norms).argmin()) * 0.01:g}"
    assert float(named) < float(t_bad)
    with pytest.raises(IntegrationDivergedError, match=rf"near t = {re.escape(named)}$"):
        integrate(model, y, 0.0, t1, 0.01, sample_every=7)


@pytest.mark.parametrize("kind", ["qubit", "coupled"])
def test_a_diverging_second_run_raises_as_it_does_alone(kind):
    # the first run is the diverging train's weak first pulse alone; both
    # runs share one window, and the error names the second run's first
    # non-finite sample, as a lone call of that run does
    bad = _diverging_train(kind, late=False)
    seq = KickSequence(pulses=bad.seq.pulses[:1], delta_e=bad.seq.delta_e)
    good = (TwoStatePulseModel(seq) if kind == "qubit"
            else HydrogenModel(bad.params, seq, basis="coupled"))
    y = np.zeros(bad.dimension, dtype=complex)
    y[0] = 1.0
    with pytest.raises(IntegrationDivergedError) as alone:
        integrate(bad, y, 0.0, 6.0, 0.01, sample_every=7)
    runs = [_Run(model, y, 0.0, 6.0, 0.01, 7) for model in (good, bad)]
    (_, _, pieces), = _Links(runs).windows
    assert [r for r, *_ in pieces] == [0, 1]
    with pytest.raises(IntegrationDivergedError) as together:
        _integrate(runs)
    assert str(together.value) == str(alone.value)


def _diverging_gaussians(kind):
    """A weak gaussian pulse, then a strong one far beyond the RK4
    stability limit at dt = 0.01 (h |V| about 38 at its peak), each 360
    links long: the state overflows in the second window of 512 links."""
    pulses = (PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=2.0, tau=0.3),
              PulseSpec(shape="gaussian", axis="y", alpha=2000.0, t_k=8.0, tau=0.3))
    if kind == "qubit":
        return TwoStatePulseModel(KickSequence(pulses=pulses, delta_e=1.3))
    p = default_params()
    return HydrogenModel(p, KickSequence(pulses=pulses, delta_e=p.delta_e), basis="coupled")


@pytest.mark.parametrize("kind", ["qubit", "coupled"])
def test_gaussian_divergence_names_the_first_non_finite_kept_sample(kind, monkeypatch):
    # at sample_every = 7 a gaussian window applies one product per segment
    # of links; the sample it names is the first it keeps at or after the
    # one the link-by-link advance of sample_every = 1 names
    monkeypatch.setattr(integrator_module, "_BLOCK", 512)
    model = _diverging_gaussians(kind)
    y = np.zeros(model.dimension, dtype=complex)
    y[0] = 1.0
    h, n_steps = 0.01, 1200
    starts, *_ = _chain(model, 0.0, h, n_steps)
    assert len(starts) > 512  # two windows
    with pytest.raises(IntegrationDivergedError) as every:
        integrate(model, y, 0.0, n_steps * h, h)
    k = round(float(str(every.value).rsplit(" ", 1)[1]) / h)
    assert 7.0 < k * h < 9.0 and k % 7  # inside the strong pulse, between kept samples
    kept = f"{(k + 7 - k % 7) * h:g}"
    with pytest.raises(IntegrationDivergedError, match=rf"near t = {re.escape(kept)}$"):
        integrate(model, y, 0.0, n_steps * h, h, sample_every=7)


def test_kernel_resolves_rectangular_pulse_against_closed_form():
    # hard-edged pulse, grid aligned with the edges: the one-sided stage
    # sampling must reproduce the exact sandwich to RK4 truncation accuracy,
    # for a strong pulse and a weak one
    tau, t_k, de = 0.1, 1.0, 1.3
    y0 = np.array([1.0, 0.0], dtype=complex)
    t_end = 2.0
    beta = 0.5 * tau * de
    for alpha in (0.5, 0.01):
        model = TwoStatePulseModel(KickSequence(pulses=(
            PulseSpec(shape="rectangular", axis="x", alpha=alpha, t_k=t_k, tau=tau),),
            delta_e=de))
        traj = integrate(model, y0, 0.0, t_end, tau / 200)
        exact = (free_phase(de, -t_end) @ rectangular_exact(alpha, beta, t_k, de)) @ y0
        assert np.max(np.abs(traj.states[-1] - exact)) < 1e-10


def test_package_models_fly_free_without_lapack(monkeypatch):
    # the qubit, j-basis and surrogate h0 are diagonal, and the coupled
    # basis has known eigenvectors: none of them needs an eigensolver
    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK call")

    for name in ("eig", "inv", "cond"):
        monkeypatch.setattr(np.linalg, name, refuse)
    for kind in ("qubit", "j", "coupled", "effective"):
        model, t1 = _smooth_model(kind)
        y = np.zeros(model.dimension, dtype=complex)
        y[0] = 1.0
        integrate(model, y, 0.0, t1, t1 / 2000)


def test_defective_free_hamiltonian_is_stepped_over_the_whole_span():
    # h0 at an exceptional point has a single eigenvector, so there is no
    # eigenbasis for exact free flight: RK4 steps every grid interval
    h0 = np.array([[0.0, 0.25], [0.25, -0.5j]])
    model = LinearDriveModel(h0, SIGMA_X, SIGMA_Y, _gaussian_sequence(tau=0.01))
    n_steps, sample_every = 4000, 50
    y = np.array([1.0, 0.0], dtype=complex)
    traj = integrate(model, y, 0.0, 2.0, 2.0 / n_steps, sample_every=sample_every)
    assert traj.rk4_steps == n_steps
    expected = _segmented_reference(model, y, 2.0, n_steps, sample_every)
    assert np.max(np.abs(traj.states - expected)) < 1e-10
    assert abs(traj.probabilities[-1, 1]) > 1e-3  # the drive acted


def test_off_grid_rectangular_edges_converge_at_fourth_order():
    # both edges sit 0.37 of a step past a grid point at every dt: RK4
    # stepping across them converges at first order, edge nodes restore four
    alpha, tau, de, t_end = 0.5, 0.1, 1.3, 2.0
    t_k = 1.0 + 0.37 * tau / 20
    seq = KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=alpha, t_k=t_k, tau=tau),),
        delta_e=de)
    model = TwoStatePulseModel(seq)
    y0 = np.array([1.0, 0.0], dtype=complex)
    beta = 0.5 * tau * de
    exact = (free_phase(de, -t_end) @ rectangular_exact(alpha, beta, t_k, de)) @ y0
    errors = []
    for dt in (tau / 20, tau / 40, tau / 80):
        traj = integrate(model, y0, 0.0, t_end, dt, sample_every=round(t_end / dt))
        errors.append(np.max(np.abs(traj.states[-1] - exact)))
    assert errors[0] < 1e-8
    for coarse, fine in zip(errors, errors[1:]):
        assert math.log2(coarse / fine) == pytest.approx(4.0, abs=0.3)


@pytest.mark.parametrize("span", [2.0, 7.3, 40.0 / 3.0])
def test_default_dt_divides_the_span_within_tau_over_20(span):
    model = TwoStatePulseModel(_gaussian_sequence(tau=0.05))
    dt = model.default_dt(span)
    n = round(span / dt)
    assert dt == span / n and dt <= 0.05 / 20  # whole steps within tau/20
    assert span / (n - 1) > 0.05 / 20  # and one step fewer would not be
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        traj = integrate(model, np.array([1.0, 0.0], dtype=complex), 0.0, span, dt,
                         sample_every=1000)
    assert traj.dt == dt


def test_two_state_model_rejects_ideal_kicks():
    seq = KickSequence(pulses=(
        PulseSpec(shape="ideal", axis="x", alpha=0.4, t_k=1.0),), delta_e=1.0)
    with pytest.raises(ValueError, match="ideal"):
        TwoStatePulseModel(seq)


def test_linear_drive_model_rejects_non_square_matrices():
    seq = _gaussian_sequence()
    with pytest.raises(ValueError, match="h0 must be a square matrix"):
        LinearDriveModel(np.zeros((2, 3)), SIGMA_X, SIGMA_Y, seq)
    with pytest.raises(ValueError, match="a_y must be a square matrix"):
        LinearDriveModel(SIGMA_Z, SIGMA_X, np.zeros(2), seq)


def test_linear_drive_model_rejects_mismatched_shapes():
    with pytest.raises(ValueError, match="one shape"):
        LinearDriveModel(SIGMA_Z, np.eye(3), SIGMA_Y, _gaussian_sequence())


def test_linear_drive_model_validates_dimension():
    with pytest.raises(ValueError, match="dimension must be 2 or 3, got 4"):
        LinearDriveModel(np.eye(4), np.eye(4), np.eye(4), _gaussian_sequence())


def test_a_systems_constants_are_shared_and_read_only():
    model = TwoStatePulseModel(_gaussian_sequence())
    assert TwoStatePulseModel(_gaussian_sequence(alpha=0.7, t_k=3.0)).h0 is model.h0
    with pytest.raises(ValueError, match="read-only"):
        model.h0[0, 0] = 5.0
    coupled = HydrogenModel(default_params(), _gaussian_sequence(tau=1.0), basis="coupled")
    for m in (model.a_x, model.a_y, model._g0, model._gx, model._gy, model._free[0],
              *coupled._free):
        with pytest.raises(ValueError, match="read-only"):
            m[...] = 0.0
    # a model of raw arrays builds its own constant part, outside the cache
    # of systems, and copies the arrays: the caller's arrays stay its own
    h0 = np.array([[1.0, 0.3], [0.3, -1.0]], dtype=complex)
    cached = _system.cache_info().currsize
    raw = LinearDriveModel(h0, SIGMA_X, SIGMA_Y, _gaussian_sequence())
    assert _system.cache_info().currsize == cached
    got = (raw.h0, raw.a_x, raw.a_y, raw._g0, raw._gx, raw._gy, *raw._free)
    m0, mx, my, g, free = _constant(h0, SIGMA_X, SIGMA_Y)
    assert len(got) == len(want := (m0, mx, my, *g, *free)) == 9
    for a, b in zip(got, want):
        assert np.array_equal(a, b)
    h0[0, 0] = 9.0
    assert raw.h0[0, 0] == 1.0 and h0.flags.writeable
    for m in got:
        with pytest.raises(ValueError, match="read-only"):
            m[...] = 0.0
