"""Reference propagators in standard limits of the driven two-state problem.

Each entry of the catalog returns a 2x2 propagator for the Hamiltonian
``H = -(delta_e/2) sigma_z + V(t) sigma_x`` evaluated under one classic
approximation scheme.  Quadratures use composite Simpson integration on a
uniform grid (default ~10^4 points), written in numpy.
"""
from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np

LIMIT_KINDS = ("perturbative", "degenerate", "adiabatic", "constant_field", "rwa")


def _grid_values(field: Callable[[float], float], t: float, n_points: int):
    if n_points < 3:
        raise ValueError(f"n_points must be at least 3, got {n_points}")
    ts = np.linspace(0.0, t, n_points)
    vs = np.array([field(x) for x in ts], dtype=float)
    return ts, vs


def _simpson(y: np.ndarray, h: float):
    """Composite Simpson integral of samples ``y`` (at least 3) spaced ``h``.

    An even number of samples leaves one interval over; it is closed with the
    quadratic through the last three samples, as ``scipy.integrate.simpson``
    does since scipy 1.11.
    """
    tail = 0.0
    if len(y) % 2 == 0:
        tail = h / 12.0 * (5.0 * y[-1] + 8.0 * y[-2] - y[-3])
        y = y[:-1]
    inner = 4.0 * y[1:-1:2].sum() + 2.0 * y[2:-1:2].sum()
    return h / 3.0 * (y[0] + y[-1] + inner) + tail


def _perturbative(field, t, delta_e, n_points):
    ts, vs = _grid_values(field, t, n_points)
    h = t / (n_points - 1)
    up = _simpson(np.exp(1j * delta_e * (0.5 * t - ts)) * vs, h)
    dn = _simpson(np.exp(-1j * delta_e * (0.5 * t - ts)) * vs, h)
    return np.array([
        [np.exp(0.5j * delta_e * t), -1j * up],
        [-1j * dn, np.exp(-0.5j * delta_e * t)],
    ])


def _degenerate(area):
    c, s = math.cos(area), math.sin(area)
    return np.array([[c, -1j * s], [-1j * s, c]])


def _adiabatic(field, t, delta_e, n_points):
    _, vs = _grid_values(field, t, n_points)
    omega = np.sqrt(delta_e ** 2 + 4.0 * vs ** 2)
    theta = _simpson(0.5 * omega, t / (n_points - 1))
    v_end = vs[-1]
    om_end = math.sqrt(delta_e ** 2 + 4.0 * v_end ** 2)
    if om_end == 0.0:
        return np.eye(2, dtype=complex)
    c, s = math.cos(theta), math.sin(theta)
    u11 = c + 1j * (delta_e / om_end) * s
    u12 = -2j * (v_end / om_end) * s
    return np.array([[u11, u12], [u12, np.conj(u11)]])


def _constant_field(v, t, delta_e):
    omega = math.hypot(delta_e, 2.0 * v)
    if omega == 0.0:
        return np.eye(2, dtype=complex)
    theta = 0.5 * omega * t
    c, s = math.cos(theta), math.sin(theta)
    u11 = c + 1j * (delta_e / omega) * s
    u12 = -2j * (v / omega) * s
    return np.array([[u11, u12], [u12, np.conj(u11)]])


def _rwa(v, delta_omega, t, omega0):
    if omega0 is not None and abs(delta_omega) >= abs(omega0):
        warnings.warn(
            f"rotating-wave approximation is unreliable: |detuning| = {abs(delta_omega):g} "
            f"is not small against the carrier scale {abs(omega0):g}",
            stacklevel=3)
    rabi = math.hypot(v, delta_omega)
    if rabi == 0.0:
        return np.eye(2, dtype=complex)
    theta = rabi * t
    c, s = math.cos(theta), math.sin(theta)
    u11 = c + 1j * (delta_omega / rabi) * s
    u12 = -1j * (v / rabi) * s
    return np.array([[u11, u12], [u12, np.conj(u11)]])


def limit_catalog(kind: str, *, delta_e: float | None = None, t: float | None = None,
                  field: Callable[[float], float] | None = None,
                  area: float | None = None, v: float | None = None,
                  delta_omega: float | None = None, omega0: float | None = None,
                  n_points: int = 10_001) -> np.ndarray:
    """Propagator of the two-state problem in a named limiting regime.

    Parameters
    ----------
    kind : str
        * ``"perturbative"`` -- first order in the drive; needs ``field``, ``t``,
          ``delta_e``.  Not unitary (valid while the transfer stays small).
        * ``"degenerate"`` -- ``delta_e = 0``; needs ``area`` (the integral of
          the drive), giving ``exp(-i area sigma_x)``.
        * ``"adiabatic"`` -- slowly varying drive; needs ``field``, ``t``,
          ``delta_e``.  Phase angle is the integral of half the instantaneous
          gap ``Omega(t) = sqrt(delta_e^2 + 4 V^2)``.
        * ``"constant_field"`` -- exact ``exp(-i H t)`` for constant ``v``;
          needs ``v``, ``t``, ``delta_e``.
        * ``"rwa"`` -- rotating-wave dressed oscillation; needs ``v``,
          ``delta_omega``, ``t`` (optionally ``omega0``, the carrier scale:
          a validity warning fires when ``|delta_omega| >= |omega0|``).
          Resonance (``delta_omega = 0``) gives complete population transfer.
    n_points : int
        Quadrature grid size for the kinds that integrate a field.

    Raises
    ------
    ValueError
        Unknown ``kind`` or missing inputs for the requested kind.
    """
    def need(**kwargs):
        missing = [name for name, val in kwargs.items() if val is None]
        if missing:
            raise ValueError(f"limit_catalog({kind!r}) requires inputs: {', '.join(missing)}")

    if kind == "perturbative":
        need(field=field, t=t, delta_e=delta_e)
        return _perturbative(field, t, delta_e, n_points)
    if kind == "degenerate":
        need(area=area)
        return _degenerate(area)
    if kind == "adiabatic":
        need(field=field, t=t, delta_e=delta_e)
        return _adiabatic(field, t, delta_e, n_points)
    if kind == "constant_field":
        need(v=v, t=t, delta_e=delta_e)
        return _constant_field(v, t, delta_e)
    if kind == "rwa":
        need(v=v, delta_omega=delta_omega, t=t)
        return _rwa(v, delta_omega, t, omega0)
    raise ValueError(f"unknown limit kind {kind!r}; expected one of {LIMIT_KINDS}")
