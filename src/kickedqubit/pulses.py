"""Pulse descriptions: ideal kicks and finite-width gaussian/rectangular pulses.

A pulse is characterised by its shape, drive axis (x or y), signed area
``alpha = integral of V(t) dt``, center ``t_k`` and width ``tau``.  The three
profiles share the same area normalisation:

* ``ideal``        -- a delta function ``alpha * delta(t - t_k)`` (``tau == 0``),
* ``gaussian``     -- ``(alpha / (sqrt(pi) * tau)) * exp(-((t - t_k) / tau)**2)``,
  truncated to zero outside ``|t - t_k| > 6 * tau``, where it is below
  e^-36 = 2.3e-16 of its peak and the area it leaves out is
  erfc(6) = 2.2e-17 of ``alpha``,
* ``rectangular``  -- ``alpha / tau`` on ``[t_k - tau/2, t_k + tau/2)``.

:meth:`PulseSpec.value` is the one field definition the integrator samples;
it takes scalar or array times.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass

import numpy as np

GAUSSIAN_SUPPORT = 6.0  # truncation of the gaussian profile, in units of tau
#: a default run end lies this many tau past a gaussian's center, beyond its
#: support; the free flight after the support covers the rest
GAUSSIAN_RUN_TAIL = 8.0

SHAPES = ("ideal", "gaussian", "rectangular")
AXES = ("x", "y")


def _need_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ValueError(f"{name} must be finite, got {value}")


@dataclass(frozen=True)
class PulseSpec:
    """One pulse of a kick sequence.

    Attributes
    ----------
    shape : str
        One of ``"ideal"``, ``"gaussian"``, ``"rectangular"``.
    axis : str
        Drive axis, ``"x"`` or ``"y"``.
    alpha : float
        Signed pulse area, the integral of the coupling over the pulse.
    t_k : float
        Pulse center.
    tau : float
        Width parameter; must be 0 exactly for ``"ideal"`` and positive
        otherwise.
    """

    shape: str
    axis: str
    alpha: float
    t_k: float
    tau: float = 0.0

    def __post_init__(self) -> None:
        if self.shape not in SHAPES:
            raise ValueError(f"unknown pulse shape {self.shape!r}; expected one of {SHAPES}")
        if self.axis not in AXES:
            raise ValueError(f"unknown pulse axis {self.axis!r}; expected one of {AXES}")
        for name in ("alpha", "t_k", "tau"):
            _need_finite(name, getattr(self, name))
        if self.shape == "ideal":
            if self.tau != 0.0:
                raise ValueError("an ideal kick must have tau == 0")
        elif self.tau <= 0.0:
            raise ValueError(f"a {self.shape} pulse needs tau > 0, got {self.tau}")

    def value(self, t, side: float = 0.0):
        """Field of this pulse alone at time(s) ``t`` (0 for an ideal kick).

        ``t`` is a scalar (a float comes back) or an array (an array of the
        same shape comes back).  ``side`` is a signed nudge that only decides
        on which side of a rectangular edge a time falls; the profile is
        still evaluated at ``t``.  RK4 passes ``+side`` for the stage at the
        start of a step and ``-side`` for the stage at its end, so each step
        sees the field from its own interior and an edge on the grid never
        leaks into the neighbouring step.
        """
        t = np.asarray(t, dtype=float)
        if self.shape == "gaussian":
            u = (t - self.t_k) / self.tau
            v = np.where(np.abs(u) <= GAUSSIAN_SUPPORT,
                         self.alpha / (math.sqrt(math.pi) * self.tau) * np.exp(-u * u),
                         0.0)
        elif self.shape == "rectangular":
            ts = t + side
            inside = (self.t_k - 0.5 * self.tau <= ts) & (ts < self.t_k + 0.5 * self.tau)
            v = np.where(inside, self.alpha / self.tau, 0.0)
        else:
            v = np.zeros_like(t)
        return v if v.ndim else float(v)

    def support(self) -> tuple[float, float]:
        """Interval outside which the pulse field vanishes identically."""
        if self.shape == "gaussian":
            h = GAUSSIAN_SUPPORT * self.tau
        elif self.shape == "rectangular":
            h = 0.5 * self.tau
        else:
            h = 0.0
        return (self.t_k - h, self.t_k + h)


@dataclass(frozen=True)
class KickSequence:
    """An ordered tuple of pulses driving a two-state system with splitting ``delta_e``."""

    pulses: tuple[PulseSpec, ...]
    delta_e: float

    def __post_init__(self) -> None:
        object.__setattr__(self, "pulses", tuple(self.pulses))
        if not self.pulses:
            raise ValueError("a kick sequence needs at least one pulse")
        _need_finite("delta_e", self.delta_e)


def beta_angle(pulse: PulseSpec, delta_e: float) -> float:
    """Width angle ``beta = tau * delta_e / 2`` (0 for an ideal kick)."""
    return 0.5 * pulse.tau * delta_e


# how far from its center, in units of tau, a pulse overlaps a neighbour
_REACH = {"ideal": 0.0, "gaussian": 4.0, "rectangular": 0.5}


def validate_sequence(seq: KickSequence) -> None:
    """Check a sequence: raise on an error, then warn on each doubtful pulse.

    Raises ``ValueError`` if the pulse centers do not strictly increase,
    before any warning.  Then warns (``UserWarning``) for each pair of
    neighbours whose center gap is below the sum of their reaches (their
    profiles overlap appreciably) and for each width angle ``beta > 0.1``
    (the sudden approximation degrades).  A gaussian reaches ``4 tau``, a
    rectangle ``tau / 2`` (its support) and an ideal kick 0.
    """
    pulses = seq.pulses
    pairs = list(enumerate(zip(pulses, pulses[1:]), 1))
    errors = [f"pulse centers must be strictly increasing; pulse {i} at "
              f"t={b.t_k} does not follow t={a.t_k}"
              for i, (a, b) in pairs if b.t_k <= a.t_k]
    if errors:
        raise ValueError("; ".join(errors))
    for i, (a, b) in pairs:
        gap = b.t_k - a.t_k
        reach = _REACH[a.shape] * a.tau + _REACH[b.shape] * b.tau
        if gap < reach:
            warnings.warn(f"pulses {i - 1} and {i} overlap: center gap {gap:g} < {reach:g}",
                          stacklevel=2)
    for i, p in enumerate(pulses):
        beta = beta_angle(p, seq.delta_e)
        if abs(beta) > 0.1:
            warnings.warn(f"pulse {i} has width angle beta = {beta:.3g} > 0.1; "
                          f"finite-width corrections are no longer small", stacklevel=2)
