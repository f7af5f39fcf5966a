"""Tests for the three-state 2s-2p model: bases, revivals, decay."""
from __future__ import annotations

import math
import warnings

import numpy as np
import pytest
from scipy.linalg import expm

from kickedqubit import (
    DEFAULT_MHZ,
    HydrogenModel,
    HydrogenParams,
    KickSequence,
    PulseSpec,
    coupling_rotation,
    default_params,
    effective_two_state_model,
    integrate,
    norm_drift,
    p_target,
    rabi_time,
    revival_time,
    run_pulse_sequence,
    stroboscopic_free_propagator,
)

from field_reference import hamiltonians

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)


def _pair(params, gap=None, tau=1.0, axes=("x", "x")):
    gap = revival_time(params) if gap is None else gap
    return KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis=axes[0], alpha=0.1 * math.pi,
                  t_k=20.0, tau=tau),
        PulseSpec(shape="gaussian", axis=axes[1], alpha=0.15 * math.pi,
                  t_k=20.0 + gap, tau=tau),
    ), delta_e=params.delta_e)


def _h_at(params, basis, w):
    """A HydrogenModel's H for the complex field ``w = v_x + i v_y``, read
    from its constant matrices h0, a_x and a_y."""
    model = HydrogenModel(params, _pair(params), basis=basis)
    return model.h0 + w.real * model.a_x + w.imag * model.a_y


# ------------------------------------------------------------------- params

def test_from_mhz_conventions():
    p = HydrogenParams.from_mhz(1057.0, 10956.0, 626.0)
    assert p.delta_e == pytest.approx(1.057e-3)
    assert p.e_fs == pytest.approx(1.0956e-2)
    assert p.gamma == pytest.approx(6.26e-4)
    p2 = HydrogenParams.from_mhz(1057.0, 10956.0, 626.0, convention="two_pi")
    assert p2.delta_e == pytest.approx(2 * math.pi * 1.057e-3)
    with pytest.raises(ValueError, match="convention"):
        HydrogenParams.from_mhz(1.0, 1.0, 1.0, convention="si")


def test_param_validation():
    with pytest.raises(ValueError, match="positive"):
        HydrogenParams(delta_e=0.0, e_fs=1.0, gamma=0.0)
    with pytest.raises(ValueError, match="positive"):
        HydrogenParams(delta_e=1.0, e_fs=-1.0, gamma=0.0)
    with pytest.raises(ValueError, match="non-negative"):
        HydrogenParams(delta_e=1.0, e_fs=1.0, gamma=-0.1)
    HydrogenParams(delta_e=1.0, e_fs=1.0, gamma=0.0)  # gamma = 0 is allowed


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
@pytest.mark.parametrize("field", ["delta_e", "e_fs", "gamma"])
def test_params_reject_non_finite_numbers(field, bad):
    kwargs = {"delta_e": 1.0, "e_fs": 10.0, "gamma": 0.5, field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        HydrogenParams(**kwargs)


def test_default_params_and_periods():
    p = default_params()
    assert DEFAULT_MHZ == (1057.0, 10956.0, 626.0)
    assert revival_time(p) == pytest.approx(573.4926348283667, abs=1e-9)
    assert rabi_time(p) == pytest.approx(2 * math.pi / 1.057e-3)
    # the revival beat is much faster than the free 2s-2p oscillation
    assert revival_time(p) < 0.1 * rabi_time(p)


# ------------------------------------------------------------------ matrices

def test_j_basis_matrix_entries():
    p = HydrogenParams(delta_e=1.0, e_fs=10.0, gamma=0.5)
    model = HydrogenModel(p, _pair(p), basis="j")
    assert model.dimension == 3
    assert np.array_equal(model.h0, np.diag(np.diag(model.h0)))
    # the raw field f enters as V = f/sqrt(3): f = 0.2 sqrt(3) gives V = 0.2
    h = _h_at(p, "j", 0.2 * SQRT3 + 0j)
    assert h[0, 0] == pytest.approx(1.0)
    assert h[1, 1] == pytest.approx(-0.25j)
    assert h[2, 2] == pytest.approx(10.0 - 0.25j)
    assert h[1, 0] == pytest.approx(-0.2)
    assert h[2, 0] == pytest.approx(-SQRT2 * 0.2)
    assert h[0, 1] == pytest.approx(-0.2)
    assert h[0, 2] == pytest.approx(-SQRT2 * 0.2)
    assert h[1, 2] == 0.0 and h[2, 1] == 0.0


def test_coupled_basis_matrix_entries():
    p = HydrogenParams(delta_e=1.0, e_fs=9.0, gamma=0.5)
    h = _h_at(p, "coupled", 0.3 + 0j)
    assert h[0, 0] == pytest.approx(1.0)
    assert h[1, 0] == pytest.approx(0.3)
    assert h[0, 1] == pytest.approx(0.3)
    assert h[2, 0] == 0.0 and h[0, 2] == 0.0     # dark state is not driven
    assert h[1, 1] == pytest.approx(6.0 - 0.25j)  # 2/3 of e_fs
    assert h[2, 2] == pytest.approx(3.0 - 0.25j)  # 1/3 of e_fs
    assert h[1, 2] == pytest.approx(SQRT2 * 3.0)  # sqrt(2)/3 of e_fs
    assert h[2, 1] == pytest.approx(SQRT2 * 3.0)


def test_complex_drive_is_placed_hermitianly():
    p = HydrogenParams(delta_e=1.0, e_fs=9.0, gamma=0.0)
    w = 0.2 + 0.1j
    h = _h_at(p, "coupled", w)
    assert h[1, 0] == pytest.approx(w)
    assert h[0, 1] == pytest.approx(np.conj(w))
    hj = _h_at(p, "j", SQRT3 * w)
    assert hj[1, 0] == pytest.approx(-w)
    assert hj[0, 1] == pytest.approx(-np.conj(w))
    assert hj[2, 0] == pytest.approx(-SQRT2 * w)
    assert hj[0, 2] == pytest.approx(-SQRT2 * np.conj(w))


def test_rotation_links_the_two_bases():
    p = HydrogenParams(delta_e=1.3, e_fs=7.0, gamma=0.4)
    r = coupling_rotation()
    assert np.max(np.abs(r @ r.T - np.eye(3))) < 1e-15
    for w in (0.25 + 0j, 0.1 - 0.3j):
        # one raw field: W = w in the coupled basis, V = w/sqrt(3) in the j basis
        hc = _h_at(p, "coupled", w)
        hj = _h_at(p, "j", w)
        assert np.max(np.abs(r @ hc @ r.T - hj)) < 1e-14


# ------------------------------------------------------------- strobe matrix

def test_strobe_propagator_matches_expm():
    p = HydrogenParams(delta_e=1.3, e_fs=7.0, gamma=0.4)
    h_free = HydrogenModel(p, _pair(p), basis="coupled").h0
    for dt in (0.37, 2.0, revival_time(p), 1.5 * revival_time(p)):
        u = stroboscopic_free_propagator(p, dt)
        assert np.max(np.abs(u - expm(-1j * h_free * dt))) < 1e-12


def test_strobe_is_diagonal_at_whole_revivals():
    p = default_params()
    t_r = revival_time(p)
    for m in (1, 2, 5):
        u = stroboscopic_free_propagator(p, m * t_r)
        off = u - np.diag(np.diag(u))
        assert np.max(np.abs(off)) < 1e-10
        # both 2p entries reduce to the same pure decay factor
        decay = math.exp(-0.5 * p.gamma * m * t_r)
        assert u[1, 1] == pytest.approx(decay, abs=1e-10)
        assert u[2, 2] == pytest.approx(decay, abs=1e-10)


def test_strobe_mixes_maximally_at_half_revival():
    p = HydrogenParams(delta_e=1.0, e_fs=5.0, gamma=0.0)
    u = stroboscopic_free_propagator(p, 0.5 * revival_time(p))
    # exp(-i pi P) = I - 2P on the 2p block
    assert abs(u[1, 2]) == pytest.approx(2.0 * SQRT2 / 3.0, abs=1e-12)
    assert u[1, 1] == pytest.approx(1.0 - 4.0 / 3.0, abs=1e-12)


# ------------------------------------------------------------------ dynamics

def test_norm_is_conserved_without_decay():
    p = HydrogenParams.from_mhz(*DEFAULT_MHZ[:2], 0.0)
    seq = _pair(p, gap=2 * revival_time(p))
    traj = run_pulse_sequence(p, seq, dt=0.05, sample_every=100)
    assert norm_drift(traj) < 1e-8


def test_norm_decays_monotonically_with_decay():
    p = default_params()
    seq = _pair(p)
    traj = run_pulse_sequence(p, seq, dt=0.05, sample_every=50)
    assert np.all(np.diff(traj.norms) <= 1e-12)
    assert traj.norms[-1] < 1.0


def test_pure_2p_decay_rate():
    # start in the driven 2p combination with no field: P_target = e^{-gamma t};
    # the pulses lie past the run, which is one exact free flight
    p = default_params()
    t_end = 500.0
    late = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=2 * t_end, tau=1.0),),
        delta_e=p.delta_e)
    model = HydrogenModel(p, late, basis="coupled")
    y0 = np.array([0.0, 1.0, 0.0], dtype=complex)
    traj = integrate(model, y0, 0.0, t_end, 0.05, sample_every=200)
    assert traj.rk4_steps == 0
    expect = np.exp(-p.gamma * traj.times)
    assert np.max(np.abs(p_target(traj) - expect)) < 1e-12


def test_single_pulse_transfer_follows_the_area():
    # a short pulse moves sin^2(alpha) out of 2s in either basis
    p = HydrogenParams.from_mhz(*DEFAULT_MHZ[:2], 0.0)
    alpha = 0.2 * math.pi
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=alpha, t_k=20.0, tau=1.0),),
        delta_e=p.delta_e)
    for basis in ("j", "coupled"):
        traj = run_pulse_sequence(p, seq, dt=0.05, basis=basis, t_end=40.0)
        assert p_target(traj)[-1] == pytest.approx(
            math.sin(alpha) ** 2, abs=2e-4)


def test_j_and_coupled_bases_agree_on_p_target():
    p = default_params()
    seq = _pair(p)
    t_end = 20.0 + revival_time(p) + 40.0
    a = run_pulse_sequence(p, seq, dt=0.05, sample_every=100, basis="j",
                           t_end=t_end)
    b = run_pulse_sequence(p, seq, dt=0.05, sample_every=100, basis="coupled",
                           t_end=t_end)
    assert np.allclose(a.times, b.times)
    assert np.max(np.abs(p_target(a) - p_target(b))) < 1e-10


def test_model_rejects_ideal_kicks_and_bad_basis():
    p = default_params()
    seq = KickSequence(pulses=(
        PulseSpec(shape="ideal", axis="x", alpha=0.3, t_k=1.0),),
        delta_e=p.delta_e)
    with pytest.raises(ValueError, match="ideal"):
        HydrogenModel(p, seq)
    good = _pair(p)
    with pytest.raises(ValueError, match="basis"):
        HydrogenModel(p, good, basis="bare")


def test_effective_two_state_model_shape():
    p = default_params()
    seq = _pair(p)
    model = effective_two_state_model(p, seq)
    assert model.dimension == 2
    h = hamiltonians(model, np.array([20.0]))[:, :, 0]  # mid first pulse: peak field
    peak = 0.1 * math.pi / math.sqrt(math.pi)
    assert h[0, 0] == pytest.approx(p.delta_e)
    assert h[1, 1] == pytest.approx(-0.5j * p.gamma)
    assert h[1, 0] == pytest.approx(peak)


# ------------------------------------------------------------------ warnings

def test_warns_when_spacing_misses_the_revival_grid():
    p = default_params()
    seq = _pair(p, gap=0.4 * revival_time(p))
    with pytest.warns(UserWarning, match="revival"):
        run_pulse_sequence(p, seq, dt=0.05, sample_every=1000)


def test_warns_on_slow_pulses():
    p = HydrogenParams.from_mhz(*DEFAULT_MHZ[:2], 0.0)
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.1 * math.pi,
                  t_k=2900.0, tau=350.0),),
        delta_e=p.delta_e)
    with pytest.warns(UserWarning, match="sudden"):
        run_pulse_sequence(p, seq, sample_every=100)


def test_warns_when_the_run_enters_the_decay_tail():
    p = default_params()
    seq = _pair(p)
    with pytest.warns(UserWarning, match="decay tail"):
        run_pulse_sequence(p, seq, dt=0.05, sample_every=2000,
                           t_end=2.0 / p.gamma)


def test_quiet_for_the_standard_setup():
    p = default_params()
    seq = _pair(p)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        run_pulse_sequence(p, seq, dt=0.05, sample_every=500)
