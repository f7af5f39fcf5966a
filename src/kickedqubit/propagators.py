"""Closed-form propagators for suddenly kicked two-state systems.

The two-state system has Hamiltonian ``H = -(delta_e/2) sigma_z + V(t) sigma_axis``
(hbar = 1), so state 2 sits ``delta_e`` above state 1.  Unless stated otherwise
the matrices are interaction-picture propagators ``U_I = exp(+i H0 t) U_S``;
occupation probabilities are picture-independent.

Closed forms cover: a single kick (interaction and Schroedinger pictures), the
exact rectangular finite-width pulse and its leading width correction, products
of ideal kicks, special two- and three-kick combinations, the pair of opposite
kicks with and without time ordering, and an ordering-sensitivity observable.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Callable, Mapping

import numpy as np

from .pulses import KickSequence, validate_sequence
from .su2 import SIGMA_Z


def _su2(u11: complex, u21: complex) -> np.ndarray:
    """Assemble ((u11, -u21*), (u21, u11*)) — the generic SU(2) layout."""
    return np.array([[u11, -np.conj(u21)], [u21, np.conj(u11)]])


def free_phase(delta_e: float, t: float) -> np.ndarray:
    """Interaction-frame dressing ``exp(+i H0 t)`` with ``H0 = -(delta_e/2) sigma_z``.

    This equals ``diag(exp(-i delta_e t / 2), exp(+i delta_e t / 2))``; its
    inverse ``free_phase(delta_e, -t)`` is the free Schroedinger propagator
    over a time ``t``.
    """
    ph = cmath.exp(-0.5j * delta_e * t)
    return np.array([[ph, 0.0], [0.0, np.conj(ph)]])


def kick_interaction(alpha: float, t_k: float, axis: str, delta_e: float) -> np.ndarray:
    """Interaction-picture propagator of a single ideal kick.

    A kick of area ``alpha`` along ``sigma_x`` at time ``t_k`` gives

        ((cos a,                    -i sin a e^{-i dE t_k}),
         (-i sin a e^{+i dE t_k},    cos a))

    which is ``exp(-i alpha n(t_k).sigma)`` with ``n(t) = (cos dE t, sin dE t, 0)``.
    The y-axis kick replaces ``-i sin a`` by ``-/+ sin a`` in the corners.

    Parameters
    ----------
    alpha : float
        Signed kick area.
    t_k : float
        Kick time.
    axis : str
        ``"x"`` or ``"y"``.
    delta_e : float
        Level splitting.
    """
    return np.array(_kick(alpha, t_k, axis, delta_e)).reshape(2, 2)


def _kick(alpha: float, t_k: float, axis: str, delta_e: float) -> tuple:
    """The entries ``(u11, u12, u21, u22)`` of :func:`kick_interaction`, as
    Python scalars."""
    c, s = math.cos(alpha), math.sin(alpha)
    ph = cmath.exp(1j * delta_e * t_k)
    if axis == "x":
        return c, -1j * s / ph, -1j * s * ph, c
    if axis == "y":
        return c, -s / ph, s * ph, c
    raise ValueError(f"unknown kick axis {axis!r}; expected 'x' or 'y'")


def _product(kicks) -> np.ndarray:
    """Multiply entry tuples of 2x2 matrices in application order, as
    :func:`~kickedqubit.su2.compose` does, on Python scalars; one array is
    built at the end."""
    kicks = iter(kicks)
    a, b, c, d = next(kicks)
    for m11, m12, m21, m22 in kicks:
        a, b, c, d = (m11 * a + m12 * c, m11 * b + m12 * d,
                      m21 * a + m22 * c, m21 * b + m22 * d)
    return np.array([[a, b], [c, d]], dtype=complex)


def kick_schrodinger(alpha: float, t_k: float, t: float, delta_e: float) -> np.ndarray:
    """Schroedinger-picture propagator at time ``t >= t_k`` for one x kick.

    Equals ``exp(-i H0 t) @ kick_interaction(...)``; entries carry the explicit
    free phases ``exp(+/- i delta_e t / 2)`` on the diagonal.

    Raises
    ------
    ValueError
        If ``t < t_k`` (the kick has not happened yet).
    """
    if t < t_k:
        raise ValueError(f"t = {t} precedes the kick at t_k = {t_k}")
    return free_phase(delta_e, -t) @ kick_interaction(alpha, t_k, "x", delta_e)


def rectangular_exact(alpha: float, beta: float, t_k: float, delta_e: float) -> np.ndarray:
    """Exact interaction-picture propagator of one rectangular x pulse.

    The pulse has area ``alpha``, center ``t_k`` and width angle
    ``beta = tau * delta_e / 2``.  With ``a' = sqrt(alpha^2 + beta^2)``:

        U11 = e^{-i beta} (cos a' + i beta sin a'/a')
        U21 = -i e^{+i dE t_k} alpha sin a'/a'

    and the SU(2) completion.  ``beta -> 0`` recovers the ideal kick.
    """
    ap = math.hypot(alpha, beta)
    sc = np.sinc(ap / math.pi)  # sin(a')/a', exact at a' = 0
    u11 = cmath.exp(-1j * beta) * (math.cos(ap) + 1j * beta * sc)
    u21 = -1j * alpha * sc * cmath.exp(1j * delta_e * t_k)
    return _su2(u11, u21)


def kick_width_error(alpha: float, beta: float) -> np.ndarray:
    """Leading finite-width correction ``U_rect - U_kick`` of a rectangular pulse.

    Returns the matrix ``i * beta * (sin(alpha)/alpha - cos(alpha)) * sigma_z``,
    valid to first order in ``beta``; the neglected remainder is O(beta^2).
    """
    return 1j * beta * _width_coefficient(alpha) * SIGMA_Z


def _width_coefficient(alpha: float) -> float:
    """``sin(alpha)/alpha - cos(alpha)``, by its series below ``|alpha| = 1e-4``,
    where the difference would cancel every digit."""
    if abs(alpha) < 1e-4:
        return alpha * alpha / 3.0 - alpha ** 4 / 30.0
    return math.sin(alpha) / alpha - math.cos(alpha)


def multi_kick(seq: KickSequence) -> np.ndarray:
    """Interaction-picture propagator of a sequence of ideal kicks.

    Raises
    ------
    ValueError
        If any pulse is not an ideal kick, or the centers are not strictly
        increasing.
    """
    for i, p in enumerate(seq.pulses):
        if p.shape != "ideal":
            raise ValueError(f"multi_kick needs ideal kicks; pulse {i} has shape {p.shape!r}")
    validate_sequence(seq)
    return _product(_kick(p.alpha, p.t_k, p.axis, seq.delta_e) for p in seq.pulses)


def two_kick_closed(alpha1: float, alpha2: float, t1: float, t2: float,
                    delta_e: float) -> np.ndarray:
    """Closed form for two x kicks, ``alpha1`` at ``t1`` then ``alpha2`` at ``t2``.

    With ``t- = t2 - t1`` and ``t+ = t2 + t1``:

        U11 = c1 c2 - s1 s2 e^{-i dE t-}
        U21 = -i e^{+i dE t+/2} (c1 s2 e^{+i dE t-/2} + s1 c2 e^{-i dE t-/2})

    Raises
    ------
    ValueError
        If ``t1 >= t2``.
    """
    if t1 >= t2:
        raise ValueError(f"kick times must satisfy t1 < t2, got t1 = {t1}, t2 = {t2}")
    tm, tp = t2 - t1, t2 + t1
    c1, s1 = math.cos(alpha1), math.sin(alpha1)
    c2, s2 = math.cos(alpha2), math.sin(alpha2)
    u11 = c1 * c2 - s1 * s2 * cmath.exp(-1j * delta_e * tm)
    u21 = -1j * cmath.exp(0.5j * delta_e * tp) * (
        c1 * s2 * cmath.exp(0.5j * delta_e * tm)
        + s1 * c2 * cmath.exp(-0.5j * delta_e * tm))
    return _su2(u11, u21)


#: tokens for which axis acts first in a mixed-axis kick pair
XY_ORDERS = ("YthenX", "XthenY")


def two_kick_xy(alpha1: float, alpha2: float, t1: float, t2: float,
                delta_e: float, order: str) -> tuple[np.ndarray, float]:
    """One x and one y kick; ``alpha1`` always acts at ``t1``, ``alpha2`` at ``t2``.

    ``order`` picks which axis goes first: ``"YthenX"`` applies a y kick of area
    ``alpha1`` at ``t1`` followed by an x kick of area ``alpha2`` at ``t2``;
    ``"XthenY"`` swaps the axes (areas stay attached to their times).

    Returns ``(U, p2)`` where ``p2`` is the closed-form occupation of state 2
    after starting from state 1:

        p2 = cos^2 a1 sin^2 a2 + sin^2 a1 cos^2 a2
             +/- (1/2) sin 2a1 sin 2a2 sin(dE t-)

    with ``+`` for ``"YthenX"`` and ``-`` for ``"XthenY"``.
    """
    if order not in XY_ORDERS:
        raise ValueError(f"unknown order {order!r}; expected one of {XY_ORDERS}")
    if t1 >= t2:
        raise ValueError(f"kick times must satisfy t1 < t2, got t1 = {t1}, t2 = {t2}")
    first_axis, second_axis = ("y", "x") if order == "YthenX" else ("x", "y")
    u = _product([_kick(alpha1, t1, first_axis, delta_e),
                  _kick(alpha2, t2, second_axis, delta_e)])
    sign = 1.0 if order == "YthenX" else -1.0
    tm = t2 - t1
    p2 = (math.cos(alpha1) ** 2 * math.sin(alpha2) ** 2
          + math.sin(alpha1) ** 2 * math.cos(alpha2) ** 2
          + sign * 0.5 * math.sin(2 * alpha1) * math.sin(2 * alpha2)
          * math.sin(delta_e * tm))
    return u, p2


def opposite_kick_pair(alpha: float, t1: float, t2: float, delta_e: float) -> np.ndarray:
    """Two x kicks of equal area and opposite sign: ``+alpha`` at ``t1``, ``-alpha`` at ``t2``.

        U11 = cos^2 a + e^{-i dE t-} sin^2 a
        U21 = -sin 2a e^{+i dE t+/2} sin(dE t- / 2)

    ``t2 -> t1`` collapses the pair to the identity.  The closed form is
    analytic in the times, so swapped or negated time arguments are allowed
    (used by :func:`time_reversal_check`).
    """
    tm, tp = t2 - t1, t2 + t1
    c, s = math.cos(alpha), math.sin(alpha)
    u11 = c * c + cmath.exp(-1j * delta_e * tm) * s * s
    u21 = -math.sin(2 * alpha) * cmath.exp(0.5j * delta_e * tp) * math.sin(0.5 * delta_e * tm)
    return _su2(u11, u21)


def untimeordered_opposite_pair(alpha: float, t1: float, t2: float,
                                delta_e: float) -> np.ndarray:
    """Opposite kick pair evaluated with time ordering ignored.

    Exponentiating the plain integral of the interaction-picture coupling
    (no ordering of the two kicks) gives a rotation by
    ``Phi = 2 alpha sin(dE t- / 2)`` about an equatorial axis set by ``t+``:

        U = ((cos Phi,                e^{-i dE t+/2} sin Phi),
             (-e^{+i dE t+/2} sin Phi, cos Phi))

    It agrees with the ordered form entrywise to O(alpha^2).
    """
    tm, tp = t2 - t1, t2 + t1
    phi_angle = 2.0 * alpha * math.sin(0.5 * delta_e * tm)
    ph = cmath.exp(0.5j * delta_e * tp)
    s = math.sin(phi_angle)
    return np.array([[math.cos(phi_angle), s / ph],
                     [-s * ph, math.cos(phi_angle)]])


def three_kick_closed(alpha1: float, alpha2: float, alpha3: float,
                      t1: float, t2: float, t3: float, delta_e: float) -> np.ndarray:
    """Propagator of three x kicks at strictly increasing times.

    Computed as the product of the three single-kick matrices.  The equivalent
    expanded closed form has removable poles at cos(alpha_i) = 0 or
    sin(alpha_i) = 0, so the product is the numerically safe evaluation.
    """
    if not (t1 < t2 < t3):
        raise ValueError(f"kick times must satisfy t1 < t2 < t3, got {t1}, {t2}, {t3}")
    return _product([_kick(alpha1, t1, "x", delta_e), _kick(alpha2, t2, "x", delta_e),
                     _kick(alpha3, t3, "x", delta_e)])


@dataclass(frozen=True)
class OrderingObservable:
    """Ordering sensitivity of the opposite kick pair in reduced variables.

    ``epsilon = sin(dE t-/2)`` and ``phi = 2 alpha``; ``p2`` is the state-2
    occupation from the ordered pair, ``p2_no_ordering`` from the unordered
    exponential.  ``p2 <= p2_no_ordering`` on ``epsilon in [0, 1]``,
    ``phi in [0, pi]`` by concavity of the sine.
    """

    epsilon: float
    phi: float
    p2: float
    p2_no_ordering: float


def ordering_observable(alpha: float, t_minus: float, delta_e: float) -> OrderingObservable:
    """Reduced ordering observable for an opposite kick pair.

    ``p2 = (epsilon sin phi)^2`` (ordered) and ``p2_no_ordering = sin^2(epsilon phi)``.
    """
    eps = math.sin(0.5 * delta_e * t_minus)
    phi = 2.0 * alpha
    return OrderingObservable(
        epsilon=eps,
        phi=phi,
        p2=(eps * math.sin(phi)) ** 2,
        p2_no_ordering=math.sin(eps * phi) ** 2,
    )


@dataclass(frozen=True)
class TimeReversalReport:
    """Outcome of the reversal symmetry checks for a kick-pair builder.

    ``ordering_reversal_*`` concerns swapping which member of the pair acts
    first (area label negated, time labels exchanged): the unordered form is
    invariant entrywise, the ordered form keeps only entry moduli.
    ``time_reversal_invariant`` states that the conjugated propagator of the
    motion-reversed protocol equals the inverse of the original, i.e.
    ``conj(builder(-alpha, -t2, -t1)) == builder(alpha, t1, t2)^dagger``.
    """

    ordering_reversal_entrywise_invariant: bool
    ordering_reversal_moduli_preserved: bool
    time_reversal_invariant: bool
    ordering_reversal_max_entry_deviation: float
    ordering_reversal_max_modulus_deviation: float
    time_reversal_max_deviation: float
    tol: float


def time_reversal_check(u_builder: Callable[..., np.ndarray],
                        params: Mapping[str, float],
                        tol: float = 1e-12) -> TimeReversalReport:
    """Check reversal symmetries of an opposite-pair builder.

    Parameters
    ----------
    u_builder : callable
        ``opposite_kick_pair`` or ``untimeordered_opposite_pair`` (any callable
        with the signature ``(alpha, t1, t2, delta_e) -> 2x2 array`` that is
        analytic in the times).
    params : mapping
        Keys ``alpha``, ``t1``, ``t2``, ``delta_e``.
    """
    alpha = params["alpha"]
    t1, t2 = params["t1"], params["t2"]
    delta_e = params["delta_e"]

    u = u_builder(alpha, t1, t2, delta_e)
    # ordering reversal: -alpha with the time labels exchanged (t- flips, t+ fixed)
    u_order = u_builder(-alpha, t2, t1, delta_e)
    entry_dev = float(np.max(np.abs(u_order - u)))
    modulus_dev = float(np.max(np.abs(np.abs(u_order) - np.abs(u))))
    # motion reversal: conjugated reversed-protocol propagator equals the inverse
    u_motion = u_builder(-alpha, -t2, -t1, delta_e)
    time_dev = float(np.max(np.abs(np.conj(u_motion) - u.conj().T)))

    return TimeReversalReport(
        ordering_reversal_entrywise_invariant=entry_dev < tol,
        ordering_reversal_moduli_preserved=modulus_dev < tol,
        time_reversal_invariant=time_dev < tol,
        ordering_reversal_max_entry_deviation=entry_dev,
        ordering_reversal_max_modulus_deviation=modulus_dev,
        time_reversal_max_deviation=time_dev,
        tol=tol,
    )


def periodic_kick_power(alpha: float, period: float, n: int, delta_e: float) -> np.ndarray:
    """Interaction-picture propagator of ``n`` identical x kicks spaced by ``period``.

    The first kick is anchored at ``t = 0``.  One period contributes
    ``M = exp(-i H0 period) @ K`` (kick, then free flight); the whole train is
    ``exp(+i H0 n period) @ M^n``, evaluated by repeated squaring so large
    ``n`` costs O(log n) multiplications.

    Raises
    ------
    ValueError
        If ``n < 1`` or ``period <= 0``.
    """
    if n < 1:
        raise ValueError(f"kick count must be a positive integer, got {n}")
    if period <= 0:
        raise ValueError(f"period must be positive, got {period}")
    kick = kick_interaction(alpha, 0.0, "x", delta_e)
    m = free_phase(delta_e, -period) @ kick
    return free_phase(delta_e, n * period) @ np.linalg.matrix_power(m, n)
