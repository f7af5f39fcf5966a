"""Tests for the limiting-regime propagator catalog."""
from __future__ import annotations

import math

import numpy as np
import pytest
from scipy.integrate import simpson
from scipy.linalg import expm

from kickedqubit import (
    LIMIT_KINDS,
    KickSequence,
    PulseSpec,
    SIGMA_X,
    SIGMA_Z,
    TwoStatePulseModel,
    integrate,
    limit_catalog,
    unitarity_defect,
)
from kickedqubit.limits import _simpson

# constant_field(v=0.8, t=2.3, delta_e=1.7), frozen against scipy expm
CONST_SPOT = np.array([
    [-0.8974285662897239 + 0.32125256253480455j, -0.30235535297393373j],
    [-0.30235535297393373j, -0.8974285662897239 - 0.32125256253480455j],
])


def test_kind_list_is_exported():
    assert set(LIMIT_KINDS) == {
        "perturbative", "degenerate", "adiabatic", "constant_field", "rwa"}


def test_constant_field_frozen_spot():
    u = limit_catalog("constant_field", v=0.8, t=2.3, delta_e=1.7)
    assert np.max(np.abs(u - CONST_SPOT)) < 1e-15


def test_constant_field_matches_expm():
    rng = np.random.default_rng(51)
    for _ in range(100):
        v = rng.uniform(-2, 2)
        t = rng.uniform(0.1, 5)
        de = rng.uniform(0.2, 3)
        h = -0.5 * de * SIGMA_Z + v * SIGMA_X
        u = limit_catalog("constant_field", v=v, t=t, delta_e=de)
        assert np.max(np.abs(u - expm(-1j * h * t))) < 1e-13
        assert unitarity_defect(u) < 1e-14


def test_adiabatic_equals_constant_field_for_a_constant_drive():
    # for a truly constant field the adiabatic phase integral is exact
    v, t, de = 0.6, 3.0, 1.4
    u_ad = limit_catalog("adiabatic", field=lambda _: v, t=t, delta_e=de)
    u_cf = limit_catalog("constant_field", v=v, t=t, delta_e=de)
    assert np.max(np.abs(u_ad - u_cf)) < 1e-9


def test_adiabatic_suppresses_transfer_for_a_slow_sweep():
    t_total = 200.0
    field = lambda t: 0.3 * math.sin(math.pi * t / t_total)
    u = limit_catalog("adiabatic", field=field, t=t_total, delta_e=2.0)
    assert abs(u[1, 0]) ** 2 < 1e-12  # field returns to zero; no transfer


def test_perturbative_matches_rk4_for_a_weak_pulse():
    de = 1.0
    tau = 0.2
    t_total = 2.0
    alpha = 0.01
    t_k = 1.0

    def field(t):
        if t_k - tau / 2 <= t < t_k + tau / 2:
            return alpha / tau
        return 0.0

    u_pert = limit_catalog("perturbative", field=field, t=t_total, delta_e=de,
                           n_points=40_001)
    model = TwoStatePulseModel(KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=alpha, t_k=t_k, tau=tau),),
        delta_e=de))
    traj = integrate(model, np.array([1.0, 0.0], dtype=complex),
                     0.0, t_total, 0.0005)
    # interaction-picture dressing on the numerical state
    phase = np.exp(-0.5j * de * t_total)
    numeric = np.array([traj.states[-1][0] / phase,
                        traj.states[-1][1] * phase])
    p2_pert = abs(u_pert[1, 0]) ** 2
    p2_num = abs(numeric[1]) ** 2
    assert p2_pert == pytest.approx(p2_num, rel=0.01)


def test_perturbative_is_first_order_in_the_drive():
    de, t_total = 1.0, 2.0
    u1 = limit_catalog("perturbative", field=lambda t: 0.01, t=t_total, delta_e=de)
    u2 = limit_catalog("perturbative", field=lambda t: 0.02, t=t_total, delta_e=de)
    assert abs(u2[1, 0]) == pytest.approx(2 * abs(u1[1, 0]), rel=1e-12)


def test_degenerate_pulse_area_rotation():
    u = limit_catalog("degenerate", area=0.5 * math.pi)
    assert abs(u[1, 0]) ** 2 == pytest.approx(1.0)  # half turn moves everything
    u = limit_catalog("degenerate", area=0.25 * math.pi)
    assert abs(u[1, 0]) ** 2 == pytest.approx(0.5)
    assert unitarity_defect(u) < 1e-15


def test_rwa_resonance_transfers_completely():
    v = 0.3
    t_half = math.pi / (2 * v)  # rabi angle v*t = pi/2
    u = limit_catalog("rwa", v=v, delta_omega=0.0, t=t_half)
    assert abs(u[1, 0]) ** 2 == pytest.approx(1.0, abs=1e-12)
    assert unitarity_defect(u) < 1e-14


def test_rwa_detuning_caps_the_transfer():
    v, d = 0.3, 0.4
    rabi = math.hypot(v, d)
    u = limit_catalog("rwa", v=v, delta_omega=d, t=math.pi / (2 * rabi))
    assert abs(u[1, 0]) ** 2 == pytest.approx(v ** 2 / rabi ** 2, abs=1e-12)


def test_rwa_warns_when_detuning_reaches_the_carrier():
    with pytest.warns(UserWarning, match="unreliable"):
        limit_catalog("rwa", v=0.3, delta_omega=2.0, t=1.0, omega0=1.5)


def test_rwa_silent_without_carrier_scale():
    import warnings
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        limit_catalog("rwa", v=0.3, delta_omega=2.0, t=1.0)


def test_unknown_kind_and_missing_inputs():
    with pytest.raises(ValueError, match="unknown limit kind"):
        limit_catalog("wkb", v=1.0, t=1.0, delta_e=1.0)
    with pytest.raises(ValueError, match="requires inputs"):
        limit_catalog("constant_field", v=1.0, t=1.0)
    with pytest.raises(ValueError, match="requires inputs"):
        limit_catalog("perturbative", t=1.0, delta_e=1.0)
    with pytest.raises(ValueError, match="requires inputs"):
        limit_catalog("degenerate")


@pytest.mark.parametrize("n_points", [3, 4, 5, 10, 11, 400, 401, 10_000, 10_001])
def test_simpson_matches_scipy_on_odd_and_even_grids(n_points):
    # an even point count closes with scipy's (>= 1.11) last-interval rule
    t = 2.3
    ts = np.linspace(0.0, t, n_points)
    h = t / (n_points - 1)
    real = np.exp(-((ts - 1.1) / 0.4) ** 2) + 0.3 * ts
    oscillating = np.exp(1.7j * (0.5 * t - ts)) * real
    for y in (real, oscillating):
        assert abs(_simpson(y, h) - simpson(y, x=ts)) < 1e-12
