"""Exact references that the benchmark checks the package's outputs against.

The Hamiltonians here are written out from the conventions stated in the
package documentation (``propagators`` for the qubit, ``hydrogen`` for the
three-state model), not taken from the package's own model classes, so a
defect in those classes shows up as a reference mismatch.
"""
from __future__ import annotations

import math

import numpy as np
from scipy.linalg import expm

SQRT2 = math.sqrt(2.0)
SQRT3 = math.sqrt(3.0)

#: the "plain" unit convention: omega [rad/ps] = 1e-6 * f [MHz]
PLAIN_SCALE = 1e-6


def qubit_hamiltonian(delta_e: float, vx: float, vy: float) -> np.ndarray:
    """H = -(delta_e/2) sigma_z + vx sigma_x + vy sigma_y."""
    return np.array([[-0.5 * delta_e, complex(vx, -vy)],
                     [complex(vx, vy), 0.5 * delta_e]])


def hydrogen_hamiltonian(basis: str, hydrogen: dict, vx: float, vy: float) -> np.ndarray:
    """2s-2p Hamiltonian for a raw drive f = vx + i vy, in rad/ps.

    j basis (2s, 2p_1/2, 2p_3/2): diag(dE, -i G/2, E_fs - i G/2) with the
    dipole pattern (-V, -sqrt(2) V), V = f/sqrt(3).  Coupled basis
    (2s, 2p, 2p'): the drive f couples 2s and 2p only; the fine structure
    puts 2/3 and 1/3 of E_fs on 2p and 2p' and mixes them by sqrt(2)/3 E_fs.
    """
    d_e = PLAIN_SCALE * hydrogen["delta_e_mhz"]
    e_fs = PLAIN_SCALE * hydrogen["e_fs_mhz"]
    decay = -0.5j * PLAIN_SCALE * hydrogen["gamma_mhz"]
    f = complex(vx, vy)
    if basis == "j":
        v = f / SQRT3
        cv = v.conjugate()
        return np.array([[d_e, -cv, -SQRT2 * cv],
                         [-v, decay, 0.0],
                         [-SQRT2 * v, 0.0, e_fs + decay]])
    mix = SQRT2 / 3.0 * e_fs
    return np.array([[d_e, f.conjugate(), 0.0],
                     [f, 2.0 / 3.0 * e_fs + decay, mix],
                     [0.0, mix, 1.0 / 3.0 * e_fs + decay]])


SIGMA = {"x": np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex),
         "y": np.array([[0.0, -1.0j], [1.0j, 0.0]])}


def ideal_kicks(alpha: float, t_k, axis: str, delta_e: float) -> np.ndarray:
    """Interaction-picture propagators of ideal kicks at the times ``t_k``.

    A kick is the rotation R = exp(-i alpha sigma_axis), dressed into the
    interaction frame as D(t_k) R D(-t_k), with D(t) = exp(+i H0 t) =
    diag(e^{-i dE t/2}, e^{+i dE t/2}) for H0 = -(dE/2) sigma_z.  Returns
    an array of shape ``t_k.shape + (2, 2)``.
    """
    rot = math.cos(alpha) * np.eye(2) - 1j * math.sin(alpha) * SIGMA[axis]
    d = np.exp(-0.5j * delta_e * np.asarray(t_k, dtype=float))
    out = np.empty(d.shape + (2, 2), dtype=complex)
    out[..., 0, 0] = rot[0, 0]
    out[..., 1, 1] = rot[1, 1]
    out[..., 0, 1] = d * rot[0, 1] * d
    out[..., 1, 0] = d.conj() * rot[1, 0] * d.conj()
    return out


def _edges(pulse: dict) -> tuple[float, float]:
    half = 0.5 * pulse["tau"]
    return pulse["t_k"] - half, pulse["t_k"] + half


def rectangular_final_state(hamiltonian, pulses: list[dict], t_end: float,
                            psi0: np.ndarray) -> np.ndarray:
    """Exact state at ``t_end`` under rectangular pulses, starting at t = 0.

    The field is constant between consecutive pulse edges, so the span is
    split at every edge and each piece is propagated by ``expm``.
    ``hamiltonian(vx, vy)`` gives H for a constant field.
    """
    cuts = {0.0, t_end}
    for p in pulses:
        cuts.update(e for e in _edges(p) if 0.0 < e < t_end)
    cuts = sorted(cuts)
    psi = np.asarray(psi0, dtype=complex)
    for a, b in zip(cuts, cuts[1:]):
        mid = 0.5 * (a + b)
        vx = vy = 0.0
        for p in pulses:
            lo, hi = _edges(p)
            if lo <= mid < hi:
                if p["axis"] == "x":
                    vx += p["alpha"] / p["tau"]
                else:
                    vy += p["alpha"] / p["tau"]
        psi = expm(-1j * hamiltonian(vx, vy) * (b - a)) @ psi
    return psi


def qubit_rectangular_closed_form(pulses: list[dict], delta_e: float,
                                  t_end: float) -> np.ndarray:
    """Final qubit state from ``rectangular_exact`` and ``free_phase``.

    Valid for pulses whose supports do not overlap.  A y pulse is the x
    pulse conjugated by S = diag(1, i), which commutes with H0.
    """
    from kickedqubit import free_phase, rectangular_exact

    s = np.diag([1.0, 1.0j])
    u = np.eye(2, dtype=complex)
    for p in sorted(pulses, key=lambda p: p["t_k"]):
        step = rectangular_exact(p["alpha"], 0.5 * p["tau"] * delta_e, p["t_k"], delta_e)
        if p["axis"] == "y":
            step = s @ step @ s.conj().T
        u = step @ u
    return free_phase(delta_e, -t_end) @ u @ np.array([1.0, 0.0], dtype=complex)


def convergence_distance(alpha: float, tau: float, t_k: float, delta_e: float) -> float:
    """Exact final-state distance between one rectangular x pulse and its ideal kick.

    Free evolution outside the pulse is the same unitary for both, so the
    distance is that of the interaction-picture propagators applied to |1>.
    """
    from kickedqubit import kick_interaction, rectangular_exact

    diff = (rectangular_exact(alpha, 0.5 * tau * delta_e, t_k, delta_e)
            - kick_interaction(alpha, t_k, "x", delta_e))
    return float(np.linalg.norm(diff[:, 0]))


def ordered_pulses(pulses: list[dict], ordering: str) -> list[dict]:
    """Pulse payloads permuted over the fixed time slots, as the catalog defines.

    "reversed" applies the last payload first; centers stay where they are.
    """
    payloads = pulses[::-1] if ordering == "reversed" else pulses
    return [{**p, "t_k": slot["t_k"]} for p, slot in zip(payloads, pulses)]


def support(pulse: dict) -> tuple[float, float]:
    """Interval outside which the pulse field vanishes (gaussian: 8 tau)."""
    half = 8.0 * pulse["tau"] if pulse["shape"] == "gaussian" else 0.5 * pulse["tau"]
    return pulse["t_k"] - half, pulse["t_k"] + half


def covered_length(pulses: list[dict], t0: float, t1: float) -> float:
    """Length of [t0, t1] that lies inside at least one pulse support."""
    spans = sorted((max(lo, t0), min(hi, t1)) for lo, hi in map(support, pulses))
    total = 0.0
    end = t0
    for lo, hi in spans:
        lo = max(lo, end)
        if hi > lo:
            total += hi - lo
            end = hi
    return total
