"""The tests' plain reference for the pulse field and one RK4 step.

The integrator evaluates the field only over the pulses that meet a window
of links (``integrator._fields``).  These functions sum every pulse
at every time instead, one vector step at a time, and are what the tests
pin ``integrate`` and its step matrices against.  For a field that is
constant between pulse ends, :func:`piecewise_exact` gives the exact state
that the RK4 runs converge to.
"""
from __future__ import annotations

import numpy as np


def pulse_area(pulse) -> float:
    """Integral of the pulse field over all time.

    All profiles are normalised so this equals ``alpha`` (the gaussian
    truncated at ``6 tau`` leaves out erfc(6) = 2.2e-17 of it).
    """
    return pulse.alpha


def _summed(seq, t, t_rect):
    """``(v_x, v_y)``: every pulse of ``seq`` summed per axis in sequence
    order, a rectangle read at ``t_rect`` and any other pulse at ``t``."""
    vx = np.zeros_like(t)
    vy = np.zeros_like(t)
    for p in seq.pulses:
        f = p.value(t_rect if p.shape == "rectangular" else t)
        if p.axis == "x":
            vx = vx + f
        else:
            vy = vy + f
    return vx, vy


def field_at(seq, t):
    """Total drive at time(s) ``t``, reported per axis as ``(v_x, v_y)``.

    Scalar ``t`` gives two floats, array ``t`` two arrays.
    """
    t = np.asarray(t, dtype=float)
    vx, vy = _summed(seq, t, t)
    return (vx, vy) if t.ndim else (float(vx), float(vy))


def _hamiltonian(model, vx, vy) -> np.ndarray:
    return (model.h0[:, :, None] + vx * model.a_x[:, :, None]
            + vy * model.a_y[:, :, None])


def hamiltonians(model, times: np.ndarray) -> np.ndarray:
    """H of ``model`` at ``times``, time-last ``(d, d, n)``."""
    return _hamiltonian(model, *field_at(model.seq, times))


def stage_hamiltonians(model, starts: np.ndarray, dts: np.ndarray) -> list:
    """H of ``model`` at the start, the midpoint and the end of each step
    ``starts, dts``: three time-last ``(d, d, n)`` stacks.

    Like the step matrices of ``integrate``, it reads a rectangle at the
    step's midpoint for all three: ``integrate`` makes every rectangular
    edge a step end, so a step lies wholly inside or outside a rectangle.
    """
    mid = starts + 0.5 * dts
    return [_hamiltonian(model, *_summed(model.seq, t, mid))
            for t in (starts, mid, starts + dts)]


def rk4_step(model, state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``i dy/dt = H(t) y``, with the
    Hamiltonians of :func:`stage_hamiltonians`."""
    y = np.asarray(state, dtype=complex)
    h_a, h_mid, h_b = (h[:, :, 0] for h in
                       stage_hamiltonians(model, np.array([t]), np.array([dt])))
    k1 = -1j * (h_a @ y)
    k2 = -1j * (h_mid @ (y + 0.5 * dt * k1))
    k3 = -1j * (h_mid @ (y + 0.5 * dt * k2))
    k4 = -1j * (h_b @ (y + dt * k3))
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def piecewise_exact(model, y, t0: float, t1: float) -> np.ndarray:
    """The exact state at ``t1`` from ``y`` at ``t0`` of a model whose field
    is constant between its pulses' support ends, as for rectangles:
    ``exp(-i H s)`` of each constant segment, with H of the model's own
    ``h0``, ``a_x`` and ``a_y`` at the segment's midpoint, by
    ``np.linalg.eig`` (H may be non-Hermitian, but not defective)."""
    y = np.asarray(y, dtype=complex)
    ends = {e for p in model.seq.pulses for e in p.support() if t0 < e < t1}
    nodes = sorted({t0, t1, *ends})
    for a, b in zip(nodes, nodes[1:]):
        lam, v = np.linalg.eig(hamiltonians(model, np.array([0.5 * (a + b)]))[:, :, 0])
        y = v @ (np.exp(-1j * lam * (b - a)) * np.linalg.solve(v, y))
    return y
