"""Fixed-grid integration of small driven quantum systems: RK4 inside pulses,
exact free flight between them.

There is one model type, :class:`LinearDriveModel`:
``H(t) = H0 + v_x(t) A_x + v_y(t) A_y`` with constant 2x2 or 3x3 matrices
and the field of a train of finite-width pulses.  It covers the qubit,
hydrogen in both bases and the effective two-state surrogate, and
:func:`integrate` has a single path for all of them.

:func:`integrate` lays the span out once as a chain of links: exact free
flight up to each merged pulse support, that support's RK4 steps, and the
free flight after the last one.  The RK4 step matrices of a block of links
are built in one vectorised pass: the field of only the pulses that meet
the block is evaluated once at all three stage times, each matrix product
is a sum of outer products over contiguous time rows, and the stages are
combined in place.  The state is then advanced through them one link after
the other on Python complex scalars, unrolled for ``d = 2`` and ``d = 3``.
The matrices equal those of the plain formula with three
:meth:`LinearDriveModel.hamiltonians` calls value for value, so the cost
per step does not grow with the pulse count and the output does not move.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .pulses import KickSequence, field_at
from .su2 import SIGMA_X, SIGMA_Y, SIGMA_Z

#: the one integration path, recorded in dataset provenance
BACKEND = "numpy"

# most links of the chain whose RK4 matrices are built in one vectorised
# pass; small, so the (d, d, 3n) stage stack stays near 200 kB, yet large
# enough to spread numpy's per-call cost thin
_BLOCK = 512


class IntegrationDivergedError(RuntimeError):
    """The integration produced non-finite amplitudes."""


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
        self.h0, self.a_x, self.a_y = (np.asarray(m, dtype=complex)
                                       for m in (h0, a_x, a_y))
        for name, m in (("h0", self.h0), ("a_x", self.a_x), ("a_y", self.a_y)):
            if m.ndim != 2 or m.shape[0] != m.shape[1]:
                raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
        if not self.h0.shape == self.a_x.shape == self.a_y.shape:
            raise ValueError(f"h0, a_x and a_y must have one shape, got {self.h0.shape}, "
                             f"{self.a_x.shape} and {self.a_y.shape}")
        self.dimension = self.h0.shape[0]
        if self.dimension not in (2, 3):
            raise ValueError(f"dimension must be 2 or 3, got {self.dimension}")
        self.seq = seq
        self.min_tau = min(p.tau for p in seq.pulses)
        self._free = self._free_eigenbasis()
        # -1j times each matrix, flattened: -1j only swaps and negates the
        # parts, so g0 + v_x g_x + v_y g_y equals -1j (h0 + v_x a_x + v_y a_y)
        # exactly.  Only the entries where g_x or g_y is nonzero take the
        # field; elsewhere both terms are exact zeros.
        g0, gx, gy = ((-1j * m).ravel() for m in (self.h0, self.a_x, self.a_y))
        self._g0 = g0[:, None]
        self._driven = np.flatnonzero((gx != 0) | (gy != 0))
        self._g0d, self._gx, self._gy = (g[self._driven, None] for g in (g0, gx, gy))
        # the supports sorted by start, once, for picking the pulses of a
        # block.  A gaussian is nonzero wherever |(t - t_k) / tau| <= 8
        # rounds true, which can hold an ulp outside its support, so each
        # support is padded by a relative margin.
        self._supports = [p.support() for p in seq.pulses]
        self._padded = sorted(
            (lo - 1e-9 * (abs(lo) + abs(hi)), hi + 1e-9 * (abs(lo) + abs(hi)), k)
            for k, (lo, hi) in enumerate(self._supports))
        self._lo = [lo for lo, _, _ in self._padded]
        self._max_hi = list(accumulate((hi for _, hi, _ in self._padded), max))

    def _free_eigenbasis(self):
        """``(lam, V, V^-1)`` with ``h0 = V diag(lam) V^-1`` for the exact free
        propagator; ``V`` is None for a diagonal ``h0``, which needs no LAPACK
        call.  None when ``h0`` is (nearly) defective, as at an exceptional
        point: RK4 then steps the whole span."""
        lam = np.diag(self.h0).copy()
        if np.array_equal(self.h0, np.diag(lam)):
            return lam, None, None
        lam, v = np.linalg.eig(self.h0)
        if np.linalg.cond(v) > 1e6:
            return None
        return lam, v, np.linalg.inv(v)

    def default_dt(self, span: float) -> float:
        """The largest step that divides ``span`` into whole steps and stays
        within ``min_tau / 20``, where :func:`integrate` starts to warn."""
        return span / math.ceil(span / (self.min_tau / 20.0))

    def hamiltonians(self, times: np.ndarray,
                     side: float | np.ndarray = 0.0) -> np.ndarray:
        """H at ``times``, time-last ``(d, d, n)``; ``side``, one value or one
        per time, picks the side of rectangular edges."""
        vx, vy = field_at(self.seq, times, side)
        return (self.h0[:, :, None] + vx * self.a_x[:, :, None]
                + vy * self.a_y[:, :, None])

    def _generators(self, times: np.ndarray, sides: np.ndarray) -> np.ndarray:
        """``-1j H`` at ``times``, time-last ``(d, d, n)``, each time with its
        own edge ``side``.

        Only the pulses whose padded support meets ``times`` widened by the
        largest ``|side|`` are evaluated, in sequence order: every other one
        would add exactly 0.0 to the field of :func:`field_at`.
        """
        nudge = np.abs(sides).max()
        first, last = times.min() - nudge, times.max() + nudge
        # the sorted supports before j end before first, those from i on
        # start after last
        j = bisect_left(self._max_hi, first)
        i = bisect_right(self._lo, last)
        vx = vy = None
        for k in sorted(k for _, hi, k in self._padded[j:i] if hi >= first):
            p = self.seq.pulses[k]
            v = p.value(times, sides)
            if p.axis == "x":
                vx = v if vx is None else vx + v
            else:
                vy = v if vy is None else vy + v
        a = np.empty((len(self._g0), len(times)), dtype=complex)
        a[:] = self._g0
        # an axis without a pulse here adds exact zeros: its term is left out
        terms = [v * g for v, g in ((vx, self._gx), (vy, self._gy)) if v is not None]
        if terms:
            terms[0] += self._g0d
            for term in terms[1:]:
                terms[0] += term
            a[self._driven] = terms[0]
        return a.reshape(self.dimension, self.dimension, -1)


class TwoStatePulseModel(LinearDriveModel):
    """Two-state model ``H = -(delta_e/2) sz + Vx sx + Vy sy`` of a pulse train."""

    def __init__(self, seq: KickSequence):
        super().__init__(-0.5 * seq.delta_e * SIGMA_Z, SIGMA_X, SIGMA_Y, seq)


@dataclass(frozen=True)
class Trajectory:
    """Sampled solution: times, complex states, per-level probabilities, norms.

    ``dt`` is the grid step ``integrate`` used and ``rk4_steps`` the number of
    RK4 steps it actually took (free flight takes none).
    """

    times: np.ndarray
    states: np.ndarray
    probabilities: np.ndarray
    norms: np.ndarray
    dt: float | None = None
    rk4_steps: int = 0

    @classmethod
    def from_states(cls, times: np.ndarray, states: np.ndarray,
                    dt: float | None = None, rk4_steps: int = 0) -> "Trajectory":
        probs = np.abs(states) ** 2
        return cls(times=np.asarray(times, dtype=float), states=states,
                   probabilities=probs, norms=probs.sum(axis=1),
                   dt=dt, rk4_steps=rk4_steps)


def rk4_step(model: LinearDriveModel, state: np.ndarray, t: float,
             dt: float) -> np.ndarray:
    """One classical Runge-Kutta step of ``i dy/dt = H(t) y``.

    The plain-vector reference for the step matrices :func:`integrate` uses:
    like them, it takes rectangular edges from inside the step, from just
    after ``t`` at its start stage and from just before ``t + dt`` at its end.
    """
    y = np.asarray(state, dtype=complex)
    side = 1e-6 * dt
    h = model.hamiltonians(np.array([t, t + 0.5 * dt, t + dt]),
                           np.array([side, 0.0, -side]))
    h_a, h_mid, h_b = h.transpose(2, 0, 1)
    k1 = -1j * (h_a @ y)
    k2 = -1j * (h_mid @ (y + 0.5 * dt * k1))
    k3 = -1j * (h_mid @ (y + 0.5 * dt * k2))
    k4 = -1j * (h_b @ (y + dt * k3))
    return y + (dt / 6.0) * (k1 + 2.0 * k2 + 2.0 * k3 + k4)


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``a[..., t] @ b[..., t]`` of time-last ``(d, d, n)`` stacks,
    summed as outer products of contiguous length-``n`` rows."""
    out = a[:, 0, None] * b[0]
    for k in range(1, len(a)):
        out += a[:, k, None] * b[k]
    return out


def _plus_eye(m: np.ndarray) -> np.ndarray:
    """``eye + m`` for a time-last ``(d, d, n)`` stack, in place."""
    m.reshape(len(m) ** 2, -1)[::len(m) + 1] += 1.0
    return m


def _step_matrices(model, starts: np.ndarray, dts: np.ndarray) -> np.ndarray:
    """RK4 matrices M with ``y(t + dt) = M y(t)``, time-last ``(d, d, n)``,
    one per start time and step.

    The stage at the start of a step sees rectangular edges from just after
    ``t``, the stage at its end from just before ``t + dt``.  The field is
    evaluated once for all three stages, and the stages are combined in
    place in the order of ``I + dt/6 (a1 + 2 k2 + 2 k3 + k4)``.
    """
    n = len(starts)
    side = 1e-6 * dts
    a = model._generators(np.concatenate((starts, starts + 0.5 * dts, starts + dts)),
                          np.concatenate((side, np.zeros(n), -side)))
    a1, a2, a3 = a[:, :, :n], a[:, :, n:2 * n], a[:, :, 2 * n:]
    half = 0.5 * dts
    k2 = _matmul(a2, _plus_eye(half * a1))
    k3 = _matmul(a2, _plus_eye(half * k2))
    k4 = _matmul(a3, _plus_eye(dts * k3))
    k2 *= 2.0
    k2 += a1
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dts / 6.0
    return _plus_eye(k2)


def _advance2(links, y, rows: list):
    """Apply the 2x2 step matrices of ``links`` to ``y`` in order; append the
    state after each link flagged as sampled to ``rows``."""
    y0, y1 = y
    for a, b, c, d, sampled in links:
        y0, y1 = a * y0 + b * y1, c * y0 + d * y1
        if sampled:
            rows.append((y0, y1))
    return y0, y1


def _advance3(links, y, rows: list):
    """:func:`_advance2` for 3x3 step matrices."""
    y0, y1, y2 = y
    for a, b, c, d, e, f, g, h, i, sampled in links:
        y0, y1, y2 = (a * y0 + b * y1 + c * y2, d * y0 + e * y1 + f * y2,
                      g * y0 + h * y1 + i * y2)
        if sampled:
            rows.append((y0, y1, y2))
    return y0, y1, y2


_ADVANCE = {2: _advance2, 3: _advance3}


def _rk4_nodes(model, t0: float, h: float, n_steps: int) -> list[np.ndarray]:
    """Step nodes of RK4, one array per merged pulse support in the span.

    The nodes of a support are its ends, the grid points ``t0 + k h`` inside
    it and the ends of every support inside it.  Ends within ``1e-9 h`` of a
    grid point are moved onto it, so that no step between an end and a grid
    point is shorter than that.  An ``h0`` without an exact free propagator
    (at an exceptional point) makes the whole span one interval.
    """
    t_end = t0 + n_steps * h
    if model._free is None:
        return [t0 + np.arange(n_steps + 1) * h]
    ends = np.array(model._supports)
    grid = t0 + np.clip(np.rint((ends - t0) / h), 0, n_steps) * h
    ends = np.clip(np.where(np.abs(ends - grid) <= 1e-9 * h, grid, ends), t0, t_end)
    # Python sorts: numpy's first sort or unique call maps in 0.4-1.7 MB of code
    merged: list[list[float]] = []
    for lo, hi in sorted(ends.tolist()):
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    # ends moved onto the grid are grid points already
    off = sorted({e for e in ends.ravel().tolist()
                  if e != t0 + round((e - t0) / h) * h})
    out = []
    for lo, hi in merged:
        k = np.arange(max(0, math.floor((lo - t0) / h)),
                      min(n_steps, math.ceil((hi - t0) / h)) + 1)
        grid = t0 + k * h
        grid = grid[(grid > lo) & (grid < hi)]
        inside = off[bisect_right(off, lo):bisect_left(off, hi)]
        parts = np.split(grid, np.searchsorted(grid, inside))
        nodes = [[lo], parts[0]]
        for e, part in zip(inside, parts[1:]):
            nodes += [[e], part]
        out.append(np.concatenate(nodes + [[hi]]))
    return out


def _chain(model, t0: float, h: float, n_steps: int):
    """The span as one chain of links: RK4 steps and exact free flights.

    The RK4 links are the steps between the nodes of each merged pulse
    support from :func:`_rk4_nodes`, returned as the arrays ``starts, ends,
    dts``.  A step between two grid points is ``h``, so a support with no
    end inside a step repeats the full-span grid arithmetic.  The free links,
    up to each support and after the last one, are returned as a list of
    ``(k, a, b)``: the flight from ``a`` to ``b`` after the first ``k`` RK4
    links.
    """
    t_end = t0 + n_steps * h
    steps, flights = [np.empty((3, 0))], []
    at, k = t0, 0
    for nodes in _rk4_nodes(model, t0, h, n_steps):
        if nodes[0] > at:
            flights.append((k, at, nodes[0]))
        on_grid = t0 + np.rint((nodes - t0) / h) * h == nodes
        steps.append((nodes[:-1], nodes[1:],
                      np.where(on_grid[:-1] & on_grid[1:], h, np.diff(nodes))))
        k += len(nodes) - 1
        at = nodes[-1]
    if at < t_end:
        flights.append((k, at, t_end))
    starts, ends, dts = np.concatenate(steps, axis=1)
    return starts, ends, dts, flights


def _free_flight(model, y, a: float, b: float, times, states) -> list:
    """Exact free evolution ``y(t) = V exp(-i lam (t - a)) V^-1 y(a)`` to ``b``.

    Fills the samples in ``(a, b]`` in one vectorised step and returns the
    state at ``b``.
    """
    lam, v, v_inv = model._free
    i0 = np.searchsorted(times, a, side="right")
    i1 = np.searchsorted(times, b, side="right")
    s = np.append(times[i0:i1], b) - a
    y = np.asarray(y)
    out = np.exp(-1j * np.outer(s, lam)) * (y if v is None else v_inv @ y)
    if v is not None:
        out = out @ v.T
    if not np.all(np.isfinite(out.view(float))):
        raise IntegrationDivergedError(f"state went non-finite near t = {b:g}")
    states[i0:i1] = out[:-1]
    return out[-1].tolist()


def _store(rows: list, slots: np.ndarray, done: int, times, states) -> int:
    """Move the sampled states ``rows`` to ``states[slots[done:]]`` after one
    finite check, which names the time of the first non-finite one, and
    return the number of slots filled so far."""
    if not rows:
        return done
    block = np.array(rows, dtype=complex)
    slots = slots[done:done + len(rows)]
    finite = np.isfinite(block.view(float)).all(axis=1)
    if not finite.all():
        raise IntegrationDivergedError(
            f"state went non-finite near t = {times[slots[finite.argmin()]]:g}")
    states[slots] = block
    rows.clear()
    return done + len(slots)


def integrate(model: LinearDriveModel, state0, t0: float, t1: float, dt: float,
              sample_every: int = 1) -> Trajectory:
    """Integrate ``i dy/dt = H(t) y`` of ``model`` from ``t0`` to ``t1`` on a
    fixed grid.

    The step is adjusted to the nearest value ``h`` that divides the span
    exactly; samples are taken at ``t0 + k h`` every ``sample_every`` steps
    and always include both endpoints.  RK4 runs only on the merged pulse
    supports, stepping between the grid points inside them and every support
    end, so a rectangular edge never falls inside a step; between supports
    the free propagator ``exp(-i h0 s)`` is applied exactly.  An ``h0`` at
    an exceptional point has no eigenbasis for it, and RK4 then steps the
    whole span.  The state passes through the chain of links in time order,
    one step matrix at a time (see the module docstring).  An ``h`` above
    ``min_tau / 20`` triggers an accuracy warning (not an error).

    Raises
    ------
    ValueError
        Non-positive ``dt``/``sample_every`` or an empty span.
    IntegrationDivergedError
        A sampled state stopped being finite; the message names the first
        such sample, or the end of the free flight that produced it.
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

    if h > model.min_tau / 20.0 * (1.0 + 1e-12):
        warnings.warn(
            f"dt = {h:g} exceeds tau/20 = {model.min_tau / 20.0:g}; "
            f"pulse sampling may be too coarse", stacklevel=2)

    y = np.asarray(state0, dtype=complex)
    if y.shape != (model.dimension,):
        raise ValueError(
            f"initial state has shape {y.shape}, expected ({model.dimension},)")

    ks = np.arange(0, n_steps + 1, sample_every)
    if ks[-1] != n_steps:
        ks = np.append(ks, n_steps)
    times = t0 + ks * h
    states = np.empty((len(times), model.dimension), dtype=complex)
    states[0] = y
    starts, ends, dts, flights = _chain(model, t0, h, n_steps)
    # the RK4 links that end on a sample time, and their sample slots
    slots = np.searchsorted(times, ends).clip(max=len(times) - 1)
    sampled = times[slots] == ends
    slots = slots[sampled]
    advance = _ADVANCE[model.dimension]
    y = y.tolist()
    rows: list = []  # sampled states not yet checked and stored
    done = 0
    # blocks of equal size: a block's fixed numpy cost is paid whatever its
    # length, so no short last block
    n_blocks = math.ceil(len(starts) / _BLOCK)
    size = math.ceil(len(starts) / n_blocks) if n_blocks else 1
    f = 0  # the next free flight
    # a blow-up is caught at the next sampled state, so the intermediate
    # overflow warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, len(starts), size):
            stop = b0 + size
            mats = _step_matrices(model, starts[b0:stop], dts[b0:stop])
            links = zip(*mats.reshape(model.dimension ** 2, -1).tolist(),
                        sampled[b0:stop].tolist())
            at = b0
            # the free flights of the block, each after the RK4 links before it
            while f < len(flights) and flights[f][0] < stop:
                k, a, b = flights[f]
                f += 1
                y = advance(islice(links, k - at), y, rows)
                done = _store(rows, slots, done, times, states)
                y = _free_flight(model, y, a, b, times, states)
                at = k
            y = advance(links, y, rows)
            done = _store(rows, slots, done, times, states)
        for _, a, b in flights[f:]:
            y = _free_flight(model, y, a, b, times, states)
    return Trajectory.from_states(times, states, dt=h, rk4_steps=len(starts))


def norm_drift(traj: Trajectory) -> float:
    """Largest deviation of the total norm from its initial value."""
    return float(np.max(np.abs(traj.norms - traj.norms[0])))
