"""The tests' plain reference for the pulse field and one RK4 step.

The integrator evaluates the field only over the pulses that meet a window
of links (``LinearDriveModel._fields``).  These functions sum every pulse
at every time instead, one vector step at a time, and are what the tests
pin ``integrate`` and its step matrices against.
"""
from __future__ import annotations

import numpy as np


def pulse_area(pulse) -> float:
    """Integral of the pulse field over all time.

    All profiles are normalised so this equals ``alpha`` (the gaussian
    truncated at ``6 tau`` leaves out erfc(6) = 2.2e-17 of it).
    """
    return pulse.alpha


def field_at(seq, t, side: float = 0.0):
    """Total drive at time(s) ``t``, reported per axis as ``(v_x, v_y)``.

    Scalar ``t`` gives two floats, array ``t`` two arrays; ``side`` is passed
    on to ``PulseSpec.value``.
    """
    t = np.asarray(t, dtype=float)
    vx = np.zeros_like(t)
    vy = np.zeros_like(t)
    for p in seq.pulses:
        if p.axis == "x":
            vx = vx + p.value(t, side)
        else:
            vy = vy + p.value(t, side)
    return (vx, vy) if t.ndim else (float(vx), float(vy))


def hamiltonians(model, times: np.ndarray, side=0.0) -> np.ndarray:
    """H of ``model`` at ``times``, time-last ``(d, d, n)``; ``side``, one
    value or one per time, picks the side of rectangular edges."""
    vx, vy = field_at(model.seq, times, side)
    return (model.h0[:, :, None] + vx * model.a_x[:, :, None]
            + vy * model.a_y[:, :, None])


def rk4_step(model, state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``i dy/dt = H(t) y``.

    Like the step matrices of ``integrate``, it takes rectangular edges
    from inside the step: from just after ``t`` at its start stage and from
    just before ``t + dt`` at its end.
    """
    y = np.asarray(state, dtype=complex)
    side = 1e-6 * dt
    h = hamiltonians(model, np.array([t, t + 0.5 * dt, t + dt]),
                     np.array([side, 0.0, -side]))
    h_a, h_mid, h_b = h.transpose(2, 0, 1)
    k1 = -1j * (h_a @ y)
    k2 = -1j * (h_mid @ (y + 0.5 * dt * k1))
    k3 = -1j * (h_mid @ (y + 0.5 * dt * k2))
    k4 = -1j * (h_b @ (y + dt * k3))
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
