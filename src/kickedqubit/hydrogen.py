"""Hydrogen 2s-2p three-state model with fine structure and 2p decay.

Two equivalent formulations of the same physics:

* the j basis (2s_{1/2}, 2p_{1/2}, 2p_{3/2}), where the free Hamiltonian is
  diagonal and a drive field V couples 2s to both 2p levels with the dipole
  pattern (-V, -sqrt(2) V);
* the coupled basis (2s, 2p, 2p'), where the drive touches only the single
  combination |2p> and the fine structure mixes 2p with the dark |2p'>.

Energies are measured from 2p_{1/2}: the Lamb shift delta_e puts 2s above it,
the fine-structure splitting e_fs puts 2p_{3/2} higher still.  Radiative decay
of the 2p levels enters as a non-Hermitian -i*gamma/2, so the norm decays and
P(2s) + P(2p) is the still-bound n=2 population.

Amplitude shuttles between 2p and 2p' with the revival period 2*pi/e_fs;
spacing pulses by whole revival periods keeps the dark state empty at kick
times and reduces the dynamics to an effective two-state system.

Frequencies quoted in MHz become angular frequencies in rad/ps through a
unit scale: "plain" treats the quoted numbers as omega = 1e-6 * f[MHz],
"two_pi" as omega = 2*pi*1e-6 * f[MHz].  Times are picoseconds throughout.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

from .integrator import LinearDriveModel, Trajectory, _system, integrate
from .pulses import GAUSSIAN_RUN_TAIL, KickSequence, _need_finite
from .su2 import SIGMA_X, SIGMA_Y

UNIT_SCALES = {"plain": 1e-6, "two_pi": 2.0 * math.pi * 1e-6}

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

@dataclass(frozen=True)
class HydrogenParams:
    """Angular frequencies in rad/ps: Lamb shift, fine structure, decay rate."""

    delta_e: float
    e_fs: float
    gamma: float

    def __post_init__(self) -> None:
        for name in ("delta_e", "e_fs", "gamma"):
            _need_finite(name, getattr(self, name))
        if self.delta_e <= 0 or self.e_fs <= 0:
            raise ValueError(
                f"delta_e and e_fs must be positive, got {self.delta_e}, {self.e_fs}")
        if self.gamma < 0:
            raise ValueError(f"gamma must be non-negative, got {self.gamma}")
        if self.gamma == 0.0:  # -0.0 is 0.0, as == says: both build one model
            object.__setattr__(self, "gamma", 0.0)

    @classmethod
    def from_mhz(cls, delta_e_mhz: float, e_fs_mhz: float, gamma_mhz: float,
                 convention: str = "plain") -> "HydrogenParams":
        """Build from quoted MHz values under a named unit convention."""
        if convention not in UNIT_SCALES:
            raise ValueError(
                f"convention must be one of {sorted(UNIT_SCALES)}, got {convention!r}")
        s = UNIT_SCALES[convention]
        return cls(delta_e=s * delta_e_mhz, e_fs=s * e_fs_mhz, gamma=s * gamma_mhz)


#: quoted MHz values: Lamb shift, fine-structure splitting, 2p decay rate.
DEFAULT_MHZ = (1057.0, 10956.0, 626.0)


def default_params(convention: str = "plain") -> HydrogenParams:
    """The quoted hydrogen numbers (1057, 10956, 626 MHz) as HydrogenParams."""
    return HydrogenParams.from_mhz(*DEFAULT_MHZ, convention=convention)


def revival_time(params: HydrogenParams) -> float:
    """Period 2*pi/e_fs of the 2p-2p' beat set by the fine structure, in ps."""
    return 2.0 * math.pi / params.e_fs


def rabi_time(params: HydrogenParams) -> float:
    """Free oscillation period 2*pi/delta_e of the 2s-2p_{1/2} pair, in ps."""
    return 2.0 * math.pi / params.delta_e


def _j_matrix(params: HydrogenParams, v: complex) -> np.ndarray:
    """H in the (2s, 2p_{1/2}, 2p_{3/2}) basis for a drive element V: the
    free part is diagonal at (delta_e, -i*gamma/2, e_fs - i*gamma/2) and the
    drive enters with the dipole pattern (-V, -sqrt(2) V) on the 2s row."""
    g2 = -0.5j * params.gamma
    cv = np.conj(v)
    return np.array([
        [params.delta_e, -cv, -SQRT2 * cv],
        [-v, g2, 0.0],
        [-SQRT2 * v, 0.0, params.e_fs + g2],
    ])


def _coupled_matrix(params: HydrogenParams, w: complex) -> np.ndarray:
    """H in the (2s, 2p, 2p') basis for a drive element W on 2s <-> 2p: the
    fine structure splits into 2/3 and 1/3 of e_fs on 2p and 2p' plus a
    sqrt(2)/3 e_fs mixing of the pair."""
    e = params.e_fs
    g2 = -0.5j * params.gamma
    return np.array([
        [params.delta_e, np.conj(w), 0.0],
        [w, (2.0 / 3.0) * e + g2, (SQRT2 / 3.0) * e],
        [0.0, (SQRT2 / 3.0) * e, (1.0 / 3.0) * e + g2],
    ])


def coupling_rotation() -> np.ndarray:
    """Orthogonal map R with R @ H_coupled(W) @ R.T = H_j(V = W/sqrt(3)).

    Row 1 is fixed (2s is common to both bases); the 2x2 block rotates the
    (2p, 2p') pair into (2p_{1/2}, 2p_{3/2}).
    """
    return np.array([
        [1.0, 0.0, 0.0],
        [0.0, -1.0 / SQRT3, SQRT2 / SQRT3],
        [0.0, -SQRT2 / SQRT3, -1.0 / SQRT3],
    ])


def stroboscopic_free_propagator(params: HydrogenParams, dt: float) -> np.ndarray:
    """Exact free propagator over ``dt`` in the coupled basis.

    The fine-structure block is e_fs times a rank-one projector, so the 2p
    pair evolves as exp(-gamma dt / 2) [I + (exp(-i e_fs dt) - 1) P].  When
    ``dt`` is a whole number of revival periods the bracket collapses to the
    identity: the matrix is diagonal, both 2p entries carry the same pure
    decay factor, and the same diagonal matrix describes the j basis too.
    """
    phase_2s = np.exp(-1j * params.delta_e * dt)
    decay = math.exp(-0.5 * params.gamma * dt)
    wind = np.exp(-1j * params.e_fs * dt) - 1.0
    projector = np.array([[2.0, SQRT2], [SQRT2, 1.0]]) / 3.0
    out = np.zeros((3, 3), dtype=complex)
    out[0, 0] = phase_2s
    out[1:, 1:] = decay * (np.eye(2) + wind * projector)
    return out


class HydrogenModel(LinearDriveModel):
    """Three-state model driven by a pulse train on 2s <-> 2p.

    The pulse areas in the sequence are quoted as effective two-state areas:
    the raw field f(t) drives the coupled pair directly (W = f), while in the
    j basis it enters as V = f/sqrt(3), whose dipole pattern (-V, -sqrt(2) V)
    has total strength sqrt(3) V = f again.  A single short pulse of area
    alpha therefore transfers sin^2(alpha) out of 2s in either basis.
    """

    def __init__(self, params: HydrogenParams, seq: KickSequence,
                 basis: str = "j"):
        if basis not in ("j", "coupled"):
            raise ValueError(f"basis must be 'j' or 'coupled', got {basis!r}")
        self.params = params
        self.basis = basis
        self._bind(_system(_hydrogen, params, basis), seq)


def _hydrogen(params: HydrogenParams, basis: str):
    """``h0, a_x, a_y`` of :class:`HydrogenModel` and, in the coupled basis,
    the free eigenbasis: R h0 R^T is the diagonal j-basis h0, so R^T holds
    the eigenvectors."""
    matrix, scale = ((_j_matrix, 1.0 / SQRT3) if basis == "j"
                     else (_coupled_matrix, 1.0))
    h0 = matrix(params, 0.0)
    drives = matrix(params, scale) - h0, matrix(params, 1j * scale) - h0
    if basis == "j":
        return (h0, *drives)
    r = coupling_rotation()
    return (h0, *drives, (-1j * np.diag(_j_matrix(params, 0.0)), r.T, r))


def p_target(traj: Trajectory) -> np.ndarray:
    """Total 2p population along a trajectory (both levels / both combinations)."""
    return traj.probabilities[:, 1] + traj.probabilities[:, 2]


def default_run_end(seq: KickSequence) -> float:
    """Where a hydrogen run without ``t_end`` stops: the latest of
    ``t_k + 8 tau`` for each gaussian, past its ``6 tau`` support, and of
    the support end of each rectangle."""
    return max(p.t_k + GAUSSIAN_RUN_TAIL * p.tau if p.shape == "gaussian"
               else p.support()[1] for p in seq.pulses)


def _warn_off_picture(params: HydrogenParams, seq: KickSequence, t_end: float) -> None:
    """Warn where a run of ``seq`` to ``t_end`` leaves the effective
    two-state picture: a pulse spacing away from whole revival periods, a
    pulse wide enough to feel the 2s-2p free phase, a run into the decay
    tail.  Each warning points at the caller's caller."""
    t_r = revival_time(params)
    t_free = rabi_time(params)
    centers = [p.t_k for p in seq.pulses]
    for a, b in zip(centers, centers[1:]):
        m = (b - a) / t_r
        if abs(m - round(m)) > 0.01:
            warnings.warn(
                f"pulse spacing {b - a:g} ps is {m:.4f} revival periods; "
                f"the dark-state reduction needs whole multiples", stacklevel=3)
    for i, p in enumerate(seq.pulses):
        if p.tau > 0.05 * t_free:
            warnings.warn(
                f"pulse {i} width {p.tau:g} ps is not sudden against the "
                f"free period {t_free:g} ps", stacklevel=3)
    if params.gamma > 0 and t_end > 0.5 / params.gamma:
        warnings.warn(
            f"t_end = {t_end:g} ps reaches into the decay tail "
            f"(1/gamma = {1.0 / params.gamma:g} ps)", stacklevel=3)


def run_pulse_sequence(params: HydrogenParams, seq: KickSequence,
                       dt: float | None = None, sample_every: int = 1,
                       basis: str = "j", t_end: float | None = None) -> Trajectory:
    """Integrate the driven three-state system across a pulse sequence.

    Starts in 2s at t = 0; runs to :func:`default_run_end` unless ``t_end``
    is given.  Default dt is tau_min/20.  Warns when pulse spacings
    sit away from whole revival periods (the effective two-state picture then
    breaks), when pulses are wide enough to feel the 2s-2p free phase, and
    when the run extends into the decay tail.
    """
    if t_end is None:
        t_end = default_run_end(seq)
    _warn_off_picture(params, seq, t_end)
    model = HydrogenModel(params, seq, basis=basis)
    if dt is None:
        dt = model.default_dt(t_end)
    state0 = np.array([1.0, 0.0, 0.0], dtype=complex)
    return integrate(model, state0, 0.0, t_end, dt, sample_every=sample_every)


def effective_two_state_model(params: HydrogenParams,
                              seq: KickSequence) -> LinearDriveModel:
    """Two-state surrogate: 2s against the driven 2p combination.

    Valid while the dark state stays empty (pulses short, spacings at whole
    revival periods).  The drive element is the raw field f(t) and the 2p
    level carries the decay: H = [[delta_e, f], [f, -i*gamma/2]].
    """
    h0 = np.diag([params.delta_e, -0.5j * params.gamma])
    return LinearDriveModel(h0, SIGMA_X, SIGMA_Y, seq)
