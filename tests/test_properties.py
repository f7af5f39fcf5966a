"""Property tests of segmented integration over random valid pulse trains.

Each example is a qubit, a hydrogen j-basis or a hydrogen coupled-basis
model driven by one to three pulses with free flight before, between and
after their supports; the span may start inside the first support.
"""
from __future__ import annotations

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kickedqubit import (
    HydrogenModel,
    HydrogenParams,
    KickSequence,
    PulseSpec,
    TwoStatePulseModel,
    field_at,
    integrate,
)

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


def _half_support(shape: str, tau: float) -> float:
    return 8.0 * tau if shape == "gaussian" else 0.5 * tau


@st.composite
def pulse_runs(draw, kinds=("qubit", "j", "coupled"),
               shapes=("gaussian", "rectangular"), decay=None):
    """``(model, t0, t_end, sample_every)`` of a random valid pulse train.

    ``decay`` picks the hydrogen 2p decay: True for the quoted rate, False
    for none, None for either.
    """
    kind = draw(st.sampled_from(kinds))
    if kind == "qubit":
        delta_e = draw(st.floats(0.5, 2.0))
        taus, gaps = st.floats(0.02, 0.2), st.floats(0.05, 1.0)
    else:
        gamma = draw(st.booleans()) if decay is None else decay
        params = HydrogenParams.from_mhz(1057.0, 10956.0, 626.0 if gamma else 0.0)
        delta_e = params.delta_e
        taus, gaps = st.floats(0.5, 5.0), st.floats(10.0, 200.0)
    pulses, end = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(shapes))
        tau = draw(taus)
        half = _half_support(shape, tau)
        t_k = end + draw(gaps) + half
        pulses.append(PulseSpec(shape=shape, axis=draw(st.sampled_from("xy")),
                                alpha=draw(st.floats(-0.8, 0.8)), t_k=t_k, tau=tau))
        end = t_k + half
    seq = KickSequence(pulses=tuple(pulses), delta_e=delta_e)
    first = pulses[0]
    # from before the first support to inside it
    t0 = draw(st.floats(0.0, first.t_k))
    t_end = end + draw(gaps)
    model = (TwoStatePulseModel(seq) if kind == "qubit"
             else HydrogenModel(params, seq, basis=kind))
    return model, t0, t_end, draw(st.integers(1, 50))


def _default_run(model, t0, t_end, sample_every, per_tau=20):
    """``integrate`` at the catalog's default step, the largest <= tau/20
    that divides the span (tau/``per_tau`` if given)."""
    target = min(p.tau for p in model.seq.pulses) / per_tau
    dt = (t_end - t0) / math.ceil((t_end - t0) / target)
    y0 = np.zeros(model.dimension, dtype=complex)
    y0[0] = 1.0
    return integrate(model, y0, t0, t_end, dt, sample_every=sample_every), y0


def _piecewise_expm(model, y0, t0, times):
    """States at ``times`` of a rectangular train, one ``expm`` per constant
    piece of the Hamiltonian."""
    edges = [e for p in model.seq.pulses for e in p.support()]
    nodes = sorted({t0, *times, *(e for e in edges if t0 < e < times[-1])})
    out, y = {t0: y0}, y0
    for a, b in zip(nodes, nodes[1:]):
        vx, vy = field_at(model.seq, 0.5 * (a + b))
        h = model.h0 + vx * model.a_x + vy * model.a_y
        y = expm(-1j * h * (b - a)) @ y
        out[b] = y
    return np.array([out[t] for t in times])


@PROPERTY_SETTINGS
@given(pulse_runs(shapes=("rectangular",)))
def test_rectangular_trains_match_piecewise_expm(run):
    model, t0, t_end, _ = run
    # about 30 samples, each one a reference expm
    n_steps = math.ceil((t_end - t0) / (min(p.tau for p in model.seq.pulses) / 20.0))
    traj, y0 = _default_run(model, t0, t_end, max(1, n_steps // 30))
    expected = _piecewise_expm(model, y0, t0, traj.times)
    assert np.max(np.abs(traj.states - expected)) < 1e-7


@PROPERTY_SETTINGS
@given(pulse_runs(decay=False))
def test_norm_is_conserved_without_decay(run):
    # an RK4 step loses (h V)^6 / 72 of the norm: at tau/20 a single
    # rectangular pulse of area pi/4 loses 1.0e-9, at tau/40 it loses 3.2e-11
    traj, _ = _default_run(*run, per_tau=40)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-9


@PROPERTY_SETTINGS
@given(pulse_runs(kinds=("j", "coupled"), decay=True))
def test_norm_never_rises_with_decay(run):
    traj, _ = _default_run(*run)
    assert np.all(np.diff(traj.norms) <= 1e-12)


@PROPERTY_SETTINGS
@given(pulse_runs())
def test_sample_times_are_the_grid_points(run):
    model, t0, t_end, sample_every = run
    traj, _ = _default_run(model, t0, t_end, sample_every)
    n_steps = round((t_end - t0) / traj.dt)
    ks = np.arange(0, n_steps + 1, sample_every)
    if ks[-1] != n_steps:
        ks = np.append(ks, n_steps)
    assert np.array_equal(traj.times, t0 + ks * traj.dt)  # bit for bit
    assert traj.dt == (t_end - t0) / n_steps
