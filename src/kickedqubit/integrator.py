"""Fixed-step RK4 integration of small driven quantum systems.

Every model exposes ``dimension`` and ``hamiltonians(times, side)``, the stack
of its Hamiltonian matrices at an array of times, and :func:`integrate` has a
single path for all of them.  Pulse-driven models are
:class:`LinearDriveModel` instances, ``H(t) = H0 + v_x(t) A_x + v_y(t) A_y``
with constant matrices (the qubit, hydrogen in both bases and the effective
two-state surrogate); :class:`HamiltonianModel` wraps an arbitrary evaluator
``t -> matrix``.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .pulses import KickSequence, field_at
from .su2 import SIGMA_X, SIGMA_Y, SIGMA_Z

#: the one integration path, recorded in dataset provenance
BACKEND = "numpy"

# steps whose RK4 matrices are built in one batched pass; small, so the
# stacks stay a few hundred kB
_BLOCK = 512


class IntegrationDivergedError(RuntimeError):
    """The integration produced non-finite amplitudes."""


@dataclass
class HamiltonianModel:
    """A time-dependent Hamiltonian: a dimension and an evaluator ``t -> matrix``."""

    dimension: int
    evaluate: Callable[[float], np.ndarray]

    def __post_init__(self) -> None:
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")

    def hamiltonians(self, times: np.ndarray, side: float = 0.0) -> np.ndarray:
        """``evaluate`` stacked over ``times``; an evaluator has no edge side."""
        return np.array([self.evaluate(t) for t in times], dtype=complex)


class LinearDriveModel:
    """Pulse-driven model ``H(t) = h0 + v_x(t) a_x + v_y(t) a_y``.

    ``(v_x, v_y)`` is the summed field of a
    :class:`~kickedqubit.pulses.KickSequence` of finite-width pulses, and
    ``h0`` may be non-Hermitian (decay).  Ideal kicks carry no field to
    integrate and are rejected; use the closed forms for those.
    """

    def __init__(self, h0, a_x, a_y, seq: KickSequence):
        for i, p in enumerate(seq.pulses):
            if p.shape == "ideal":
                raise ValueError(
                    f"pulse {i} is an ideal kick; integration needs finite-width pulses")
        self.h0 = np.asarray(h0, dtype=complex)
        self.a_x = np.asarray(a_x, dtype=complex)
        self.a_y = np.asarray(a_y, dtype=complex)
        self.dimension = self.h0.shape[0]
        self.seq = seq
        self.min_tau = min(p.tau for p in seq.pulses)

    def hamiltonians(self, times: np.ndarray, side: float = 0.0) -> np.ndarray:
        """Stack of H at ``times``; ``side`` picks the side of rectangular edges."""
        vx, vy = field_at(self.seq, times, side)
        return (self.h0 + vx[:, None, None] * self.a_x
                + vy[:, None, None] * self.a_y)

    def evaluate(self, t: float) -> np.ndarray:
        return self.hamiltonians(np.array([t]))[0]


class TwoStatePulseModel(LinearDriveModel):
    """Two-state model ``H = -(delta_e/2) sz + Vx sx + Vy sy`` of a pulse train."""

    def __init__(self, seq: KickSequence):
        super().__init__(-0.5 * seq.delta_e * SIGMA_Z, SIGMA_X, SIGMA_Y, seq)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times, complex states, per-level probabilities, norms."""

    times: np.ndarray
    states: np.ndarray
    probabilities: np.ndarray
    norms: np.ndarray

    @classmethod
    def from_states(cls, times: np.ndarray, states: np.ndarray) -> "Trajectory":
        probs = np.abs(states) ** 2
        return cls(times=np.asarray(times, dtype=float), states=states,
                   probabilities=probs, norms=probs.sum(axis=1))


def rk4_step(model, state: np.ndarray, t: float, dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``i dy/dt = H(t) y``.

    The plain-vector reference for the step matrices :func:`integrate` uses.
    """
    y = np.asarray(state, dtype=complex)
    h_a = model.evaluate(t)
    h_mid = model.evaluate(t + 0.5 * dt)
    h_b = model.evaluate(t + dt)
    k1 = -1j * (h_a @ y)
    k2 = -1j * (h_mid @ (y + 0.5 * dt * k1))
    k3 = -1j * (h_mid @ (y + 0.5 * dt * k2))
    k4 = -1j * (h_b @ (y + dt * k3))
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _step_matrices(model, starts: np.ndarray, dt: float) -> np.ndarray:
    """RK4 matrices M with ``y(t + dt) = M y(t)``, one per start time.

    The stage at the start of a step sees rectangular edges from just after
    ``t``, the stage at its end from just before ``t + dt``.
    """
    side = 1e-6 * dt
    a1 = -1j * model.hamiltonians(starts, side)
    a2 = -1j * model.hamiltonians(starts + 0.5 * dt)
    a3 = -1j * model.hamiltonians(starts + dt, -side)
    eye = np.eye(model.dimension)
    k2 = a2 @ (eye + 0.5 * dt * a1)
    k3 = a2 @ (eye + 0.5 * dt * k2)
    k4 = a3 @ (eye + dt * k3)
    return eye + (dt / 6.0) * (a1 + 2.0 * k2 + 2.0 * k3 + k4)


def integrate(model, state0, t0: float, t1: float, dt: float,
              sample_every: int = 1) -> Trajectory:
    """Integrate ``i dy/dt = H(t) y`` from ``t0`` to ``t1`` with fixed steps.

    The step is adjusted to the nearest value that divides the span exactly.
    Samples are taken every ``sample_every`` steps and always include both
    endpoints.  Pulse-backed models whose ``dt`` exceeds ``min_tau / 20``
    trigger an accuracy warning (not an error).

    Raises
    ------
    ValueError
        Non-positive ``dt``/``sample_every`` or an empty span.
    IntegrationDivergedError
        A sampled state stopped being finite.
    """
    if dt <= 0:
        raise ValueError(f"dt must be positive, got {dt}")
    if sample_every < 1:
        raise ValueError(f"sample_every must be >= 1, got {sample_every}")
    span = t1 - t0
    if span <= 0:
        raise ValueError(f"need t1 > t0, got t0 = {t0}, t1 = {t1}")
    n_steps = max(1, round(span / dt))
    h = span / n_steps

    min_tau = getattr(model, "min_tau", None)
    if min_tau is not None and h > min_tau / 20.0 * (1.0 + 1e-12):
        warnings.warn(
            f"dt = {h:g} exceeds tau/20 = {min_tau / 20.0:g}; "
            f"pulse sampling may be too coarse", stacklevel=2)

    y = np.asarray(state0, dtype=complex)
    if y.shape != (model.dimension,):
        raise ValueError(
            f"initial state has shape {y.shape}, expected ({model.dimension},)")

    n_samples = n_steps // sample_every + 1
    if n_steps % sample_every != 0:
        n_samples += 1
    times = np.empty(n_samples)
    states = np.empty((n_samples, model.dimension), dtype=complex)
    times[0] = t0
    states[0] = y
    idx = 1
    # a blow-up is caught at the next sample, so the intermediate overflow
    # warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for start in range(0, n_steps, _BLOCK):
            starts = t0 + np.arange(start, min(start + _BLOCK, n_steps)) * h
            for step, m in enumerate(_step_matrices(model, starts, h), start + 1):
                y = m @ y
                if step % sample_every == 0 or step == n_steps:
                    t_here = t0 + step * h
                    if not np.all(np.isfinite(y.view(float))):
                        raise IntegrationDivergedError(
                            f"state went non-finite near t = {t_here:g}")
                    times[idx] = t_here
                    states[idx] = y
                    idx += 1
    return Trajectory.from_states(times, states)


def norm_drift(traj: Trajectory) -> float:
    """Largest deviation of the total norm from its initial value."""
    return float(np.max(np.abs(traj.norms - traj.norms[0])))
