"""Fixed-grid integration of small driven quantum systems: RK4 inside pulses,
exact free flight between them.

There is one model type, :class:`LinearDriveModel`:
``H(t) = H0 + v_x(t) A_x + v_y(t) A_y`` with constant 2x2 or 3x3 matrices
and the field of a train of finite-width pulses.  It covers the qubit,
hydrogen in both bases and the effective two-state surrogate, and
:func:`integrate` has a single path for all of them.

:func:`integrate` lays the span out once as a chain of links: exact free
flight up to each merged pulse support, that support's RK4 steps, and the
free flight after the last one.  The chain is walked in windows of links.
The field of only the pulses that meet a window is evaluated once at all
three stage times of its links.  Where none of them is a gaussian, the
field is piecewise constant, and each link whose ``dt`` and stage fields
equal the previous link's repeats its step matrix: the window is cut into
runs of equal links, and only the first link of each run gets a matrix.
The matrices are built in vectorised passes, each matrix product a sum of
outer products over contiguous time rows and the stages combined in place.
Every link's matrix equals, value for value, that of the plain RK4 formula
over the field summed from every pulse, so the cost per step does not grow
with the pulse count.  A gaussian window that keeps only every
``sample_every``-th state (``sample_every > 1``) first multiplies the
links between two kept states, or up to a free flight, into one matrix per
segment, all segments at once.  Every window then hands one stream of
units to one scalar loop on Python complex scalars, unrolled for ``d = 2``
and ``d = 3``.  A unit is a matrix's entries and the sampled flags of its
applications: a run carries one flag per link and is applied once per
link; a segment product, or a gaussian link at ``sample_every = 1``, is
applied once.
"""
from __future__ import annotations

import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .pulses import KickSequence
from .su2 import SIGMA_X, SIGMA_Y, SIGMA_Z

#: the one integration path, recorded in dataset provenance
BACKEND = "numpy"

# most RK4 matrices built in one vectorised pass, and most links of a
# window of a chain with gaussian pulses, whose links all differ; small, so
# each (d, d, n) stage stack stays below 128 KiB, yet large enough to spread
# numpy's per-call cost thin
_BLOCK = 512

# most links of a window of a chain of rectangular pulses only: its field is
# piecewise constant, so the window needs few matrices, and a longer window
# spreads the cost of its field pass and comparison thinner
_RUN_WINDOW = 4096


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
        # every pulse is rectangular, so the field is piecewise constant
        self._rectangular = all(p.shape == "rectangular" for p in seq.pulses)
        self._free = self._free_eigenbasis()
        # -1j times each matrix, flattened to a column: -1j only swaps and
        # negates the parts, so g0 + v_x g_x + v_y g_y equals
        # -1j (h0 + v_x a_x + v_y a_y) exactly
        self._g0, self._gx, self._gy = ((-1j * m).reshape(-1, 1)
                                        for m in (self.h0, self.a_x, self.a_y))
        # the supports sorted by start, once, for picking the pulses of a
        # block.  A gaussian is nonzero wherever |(t - t_k) / tau| <= 6
        # (GAUSSIAN_SUPPORT) rounds true, which can hold an ulp outside its
        # support, so each support is padded by a relative margin.
        supports = [p.support() for p in seq.pulses]
        self._ends = np.array(supports)
        self._padded = sorted(
            (lo - 1e-9 * (abs(lo) + abs(hi)), hi + 1e-9 * (abs(lo) + abs(hi)), k)
            for k, (lo, hi) in enumerate(supports))
        self._lo = [lo for lo, _, _ in self._padded]
        self._max_hi = list(accumulate((hi for _, hi, _ in self._padded), max))

    def _free_eigenbasis(self):
        """``(lam, V, V^-1)`` with ``h0 = V diag(lam) V^-1`` for the exact free
        propagator; ``V`` is None for a diagonal ``h0``, which needs no LAPACK
        call.  None when ``h0`` is (nearly) defective, as at an exceptional
        point: the span is then one more support (see :func:`_chain`)."""
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

    def _fields(self, starts: np.ndarray, dts: np.ndarray):
        """The field ``(v_x, v_y)`` at the three RK4 stages of the steps
        ``starts, dts``, each ``(3, n)`` (start, middle, end) or None for an
        axis that nothing drives there, and whether a gaussian is part of it.

        The stage at the start of a step sees rectangular edges from just
        after ``t``, the stage at its end from just before ``t + dt``.  Only
        the pulses whose padded support meets the stages are evaluated, in
        sequence order: every other one would add exactly 0.0 to the sum of
        all pulses.
        """
        n = len(starts)
        side = 1e-6 * dts
        times = np.concatenate((starts, starts + 0.5 * dts, starts + dts))
        sides = np.concatenate((side, np.zeros(n), -side))
        nudge = side.max()
        first, last = times.min() - nudge, times.max() + nudge
        # the sorted supports before j end before first, those from i on
        # start after last
        j = bisect_left(self._max_hi, first)
        i = bisect_right(self._lo, last)
        pulses = [self.seq.pulses[k]
                  for k in sorted(k for _, hi, k in self._padded[j:i] if hi >= first)]
        smooth = any(p.shape != "rectangular" for p in pulses)
        v = {"x": None, "y": None}
        for p in pulses:
            f = p.value(times, sides).reshape(3, n)
            v[p.axis] = f if v[p.axis] is None else v[p.axis] + f
        return v["x"], v["y"], smooth

    def _generators(self, vx, vy, n: int) -> np.ndarray:
        """``-1j H`` for the field ``(vx, vy)`` at ``n`` times (one stage row
        of :meth:`_fields`, or None), time-last ``(d, d, n)``."""
        a = np.repeat(self._g0, n, axis=1)
        # an axis without a pulse here adds exact zeros: its term is left out
        for v, g in ((vx, self._gx), (vy, self._gy)):
            if v is not None:
                a += v * g
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


def _matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Products ``a[..., t] @ b[..., t]`` of time-last ``(d, d, n)`` stacks,
    summed as outer products of contiguous length-``n`` rows; ``(d, d, ...)``
    stacks of more trailing axes multiply the same way."""
    out = a[:, 0, None] * b[0]
    for k in range(1, len(a)):
        out += a[:, k, None] * b[k]
    return out


def _plus_eye(m: np.ndarray) -> np.ndarray:
    """``eye + m`` for a time-last ``(d, d, n)`` stack, in place."""
    m.reshape(len(m) ** 2, -1)[::len(m) + 1] += 1.0
    return m


def _rk4_matrices(model, vx, vy, dts: np.ndarray) -> np.ndarray:
    """RK4 matrices M, time-last ``(d, d, n)``, of the steps ``dts`` whose
    field ``(vx, vy)`` is given as ``(3, n)`` rows: at the starts, the
    midpoints, then the ends of the steps.

    Each stage's generators are a ``(d, d, n)`` stack of their own, and
    ``a3`` is built only once ``a1`` and ``a2`` are let go: the fewer stacks
    are alive at once, the less the heap grows and is trimmed back per
    window (one ``(d, d, 3n)`` stack passed glibc's 128 KiB mmap threshold
    at ``d = 3``).  The stages are combined in place in the order of
    ``I + dt/6 (a1 + 2 k2 + 2 k3 + k4)``.
    """
    n = len(dts)
    stages = [(None if vx is None else vx[s], None if vy is None else vy[s], n)
              for s in range(3)]
    a1 = model._generators(*stages[0])
    a2 = model._generators(*stages[1])
    half = 0.5 * dts
    k2 = _matmul(a2, _plus_eye(half * a1))
    k3 = _matmul(a2, _plus_eye(half * k2))
    k2 *= 2.0
    k2 += a1
    del a1, a2
    k4 = _matmul(model._generators(*stages[2]), _plus_eye(dts * k3))
    k3 *= 2.0
    k2 += k3
    k2 += k4
    k2 *= dts / 6.0
    return _plus_eye(k2)


def _step_matrices(model, starts: np.ndarray, dts: np.ndarray, cuts=()):
    """RK4 matrices M with ``y(t + dt) = M y(t)`` of the links ``starts, dts``:
    ``(mats, heads)``, one time-last ``(d, d, m)`` matrix per run of equal
    links and the index of each run's first link.  ``heads`` is None when
    every link is a run of its own.

    The field is evaluated once for all three stages of every link (see
    :meth:`LinearDriveModel._fields`).  Where it meets no gaussian, it is
    piecewise constant, and a link whose ``dt`` and field
    bits at all three stages equal those of the link before it repeats
    that link's M bit for bit; only the first link of each run, and each
    link in ``cuts``, gets a matrix built.  A gaussian field differs at
    every link, so it is not compared.  The matrices are built at most
    ``_BLOCK`` at a time.
    """
    *fields, smooth = model._fields(starts, dts)
    heads = None
    if not smooth:
        # compared as bits, so that 0.0 and -0.0 stay apart
        same = dts[1:] == dts[:-1]
        for v in fields:
            if v is not None:
                bits = v.view(np.int64)
                same &= (bits[:, 1:] == bits[:, :-1]).all(axis=0)
        same[[c - 1 for c in cuts if c > 0]] = False
        heads = np.flatnonzero(np.concatenate(([True], ~same)))
        fields = [None if v is None else v[:, heads] for v in fields]
        dts = dts[heads]
    mats = [_rk4_matrices(model, *(None if v is None else v[:, c:c + _BLOCK]
                                   for v in fields), dts[c:c + _BLOCK])
            for c in range(0, len(dts), _BLOCK)]
    return (mats[0] if len(mats) == 1 else np.concatenate(mats, axis=2)), heads


def _segment_products(mats: np.ndarray, ends: list) -> np.ndarray:
    """The product ``M[e - 1] ... M[s]`` of each segment ``[s, e)`` of the
    time-last ``(d, d, n)`` stack ``mats``, for the sorted segment ends
    ``ends`` (the last is ``n``), time-last ``(d, d, len(ends))``.

    One scatter pads each segment at its front with identities to the
    power of two ``size`` at or above the longest one.  Neighbouring
    positions are then multiplied pairwise, over all segments at once, in
    ``log2(size)`` rounds: a long segment (one sample per window, say)
    costs a few numpy calls, not one per link.
    """
    d, _, n = mats.shape
    ends = np.array(ends)
    lengths = np.diff(ends, prepend=0)
    size = 1 << (int(lengths.max()) - 1).bit_length()
    stack = np.zeros((d, d, size, len(ends)), dtype=complex)
    stack.reshape(d * d, size, -1)[::d + 1] = 1.0
    # link i of the segment ending at e sits at position size - (e - i)
    stack[:, :, np.arange(n) + size - np.repeat(ends, lengths),
          np.repeat(np.arange(len(ends)), lengths)] = mats
    while stack.shape[2] > 1:
        stack = _matmul(stack[:, :, 1::2], stack[:, :, 0::2])
    return stack[:, :, 0]


def _walk2(units, y, rows: list):
    """Apply the 2x2 step matrices of ``units`` to ``y`` in order.  A unit
    is ``(matrix entries, sampled flags)``: its entries are bound once and
    applied once per flag, and the state after each flagged application is
    appended to ``rows``."""
    y0, y1 = y
    for (a, b, c, d), flags in units:
        for sampled in flags:
            y0, y1 = a * y0 + b * y1, c * y0 + d * y1
            if sampled:
                rows.append((y0, y1))
    return y0, y1


def _walk3(units, y, rows: list):
    """:func:`_walk2` for 3x3 step matrices."""
    y0, y1, y2 = y
    for (a, b, c, d, e, f, g, h, i), flags in units:
        for sampled in flags:
            y0, y1, y2 = (a * y0 + b * y1 + c * y2, d * y0 + e * y1 + f * y2,
                          g * y0 + h * y1 + i * y2)
            if sampled:
                rows.append((y0, y1, y2))
    return y0, y1, y2


def _chain(model, t0: float, h: float, n_steps: int):
    """The span as one chain of links: RK4 steps and exact free flights.

    RK4 steps the merged pulse supports.  The nodes of a support are its
    ends, the grid points ``t0 + k h`` inside it and the ends of every
    support inside it.  Ends within ``1e-9 h`` of a grid point are moved
    onto it, so that no step between an end and a grid point is shorter
    than that.  The RK4 links are the steps between the nodes of each
    support, returned as the arrays ``starts, ends, dts``.  The grid points
    of all supports form one array, and one search places every end after
    the grid points below it.  A step between two grid points is ``h``, so
    a support with no end inside a step repeats the full-span grid
    arithmetic.  The free links, up to each support and after the last
    one, are returned as a list of ``(k, a, b)``: the flight from ``a`` to
    ``b`` after the first ``k`` RK4 links.  An ``h0`` without an exact free
    propagator (at an exceptional point) adds the span as one more support.
    """
    t_end = t0 + n_steps * h
    ends = model._ends
    if model._free is None:
        ends = np.concatenate(([[t0, t_end]], ends))
    grid = t0 + np.minimum(np.maximum(np.rint((ends - t0) / h), 0), n_steps) * h
    ends = np.minimum(np.maximum(
        np.where(np.abs(ends - grid) <= 1e-9 * h, grid, ends), t0), t_end)
    off = set(ends[ends != grid].tolist())
    # Python sorts: numpy's first sort or unique call maps in 0.4-1.7 MB of code
    merged: list[list[float]] = []
    for lo, hi in sorted(ends.tolist()):
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    inner = sorted(off)
    edges, last, flights, shift, counts = [], [], [], [], []
    links, n_grid, at = 0, 0, t0
    for lo, hi in merged:
        if lo > at:
            flights.append((links, at, lo))
        at = hi
        # the grid points strictly inside are t0 + k h for first <= k <
        # first + count: each end lies within h/2 of its nearest grid point
        # t0 + r h, so the comparison with that point decides
        r = round((lo - t0) / h)
        first = r + (lo >= t0 + r * h)
        r = round((hi - t0) / h)
        count = r + (hi > t0 + r * h) - first
        inside = inner[bisect_right(inner, lo):bisect_left(inner, hi)]
        edges += [lo, *inside, hi]
        last.append(len(edges) - 1)
        # the grid points of all supports form one arange, shifted per support
        shift.append(first - n_grid)
        counts.append(count)
        n_grid += count
        links += count + len(inside) + 1
    if at < t_end:
        flights.append((links, at, t_end))
    points = t0 + (np.arange(n_grid) + np.repeat(shift, counts)) * h
    # each end goes after the grid points below it
    place = np.searchsorted(points, edges) + np.arange(len(edges))
    on_grid = np.ones(len(points) + len(edges), dtype=bool)
    on_grid[place] = False
    nodes = np.empty(len(on_grid))
    nodes[on_grid] = points
    nodes[place] = edges
    on_grid[place] = [e not in off for e in edges]
    dts = np.where(on_grid[:-1] & on_grid[1:], h, nodes[1:] - nodes[:-1])
    # no link from a support's end to the next one's start
    is_link = np.ones(len(dts), dtype=bool)
    is_link[place[last[:-1]]] = False
    return nodes[:-1][is_link], nodes[1:][is_link], dts[is_link], flights


def _free_links(model, flights, times):
    """The free flights ``(k, a, b)`` as ``(k, i0, i1, phases)``: the flight
    after the first ``k`` RK4 links fills the samples ``times[i0:i1]`` in
    ``(a, b]``, and ``phases`` holds ``exp(-i lam (t - a))`` at those times
    and at ``b``.  One ``np.exp`` serves every flight."""
    if not flights:
        return []
    ks, a, b = zip(*flights)
    i = np.searchsorted(times, a + b, side="right").tolist()
    i0, i1 = i[:len(a)], i[len(a):]
    # each flight's sample times, then its end
    t = np.concatenate([x for lo, hi, e in zip(i0, i1, b) for x in (times[lo:hi], (e,))])
    m = [hi - lo + 1 for lo, hi in zip(i0, i1)]
    phases = np.exp(-1j * ((t - np.repeat(a, m))[:, None] * model._free[0]))
    first = list(accumulate(m, initial=0))
    return [(k, lo, hi, phases[f:f + n]) for k, lo, hi, f, n in zip(ks, i0, i1, first, m)]


def _free_flight(model, y, i0: int, i1: int, phases, states) -> list:
    """Exact free evolution ``y(t) = V exp(-i lam (t - a)) V^-1 y(a)`` of
    :func:`_free_links`: fills ``states[i0:i1]`` and returns the state at
    the flight's end."""
    _, v, v_inv = model._free
    out = phases * (y if v is None else v_inv @ y)
    if v is not None:
        out = out @ v.T
    if i1 > i0:
        states[i0:i1] = out[:-1]
    return out[-1].tolist()


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
    an exceptional point has no eigenbasis for it, and the whole span is
    then one support.  The state passes through the chain in time order, one
    unit at a time: a run of equal links shares one matrix, applied once
    per link, and the links between two samples of a gaussian window are
    multiplied into one matrix, applied once (see the module docstring).  An ``h`` above ``min_tau / 20`` triggers an
    accuracy warning (not an error).

    Raises
    ------
    ValueError
        Non-positive ``dt``/``sample_every`` or an empty span.
    IntegrationDivergedError
        A sampled state stopped being finite; the message names the first
        such sample.
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

    # t0 and t1 may each be an ulp or two off the ends a caller meant, and
    # h takes its share of that: a step of exactly tau/20 must not warn
    limit = model.min_tau / 20.0
    if h - limit > 1e-12 * limit + 2.0 * (math.ulp(t0) + math.ulp(t1)) / n_steps:
        warnings.warn(
            f"dt = {h:g} exceeds tau/20 = {limit:g}; "
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
    flights = _free_links(model, flights, times)
    # the RK4 links that end on a sample time, and their sample slots
    slots = np.minimum(np.searchsorted(times, ends), len(times) - 1)
    sampled = times[slots] == ends
    slots = slots[sampled]
    walk = _walk2 if model.dimension == 2 else _walk3
    y = y.tolist()
    done = 0  # sample slots filled by RK4 links
    # windows of equal size: a window's fixed numpy cost is paid whatever
    # its length, so no short last window.  Without a gaussian the chain
    # needs few matrices, and longer windows spread that cost thinner.
    cap = _RUN_WINDOW if model._rectangular else _BLOCK
    n_windows = math.ceil(len(starts) / cap)
    size = math.ceil(len(starts) / n_windows) if n_windows else 1
    f = 0  # the next free flight
    # a blow-up shows in the samples, checked once at the end, so the
    # intermediate overflow warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for b0 in range(0, len(starts), size):
            stop = min(b0 + size, len(starts))
            f1 = f  # the free flights of the window, each after its k-th link
            while f1 < len(flights) and flights[f1][0] < stop:
                f1 += 1
            # a run may not carry the state across a free flight
            cuts = [k - b0 for k, _, _, _ in flights[f:f1]]
            mats, heads = _step_matrices(model, starts[b0:stop], dts[b0:stop], cuts)
            flags = sampled[b0:stop]
            if heads is not None:
                # a run's matrix applies once per link of the run
                heads = heads.tolist()
                flags = flags.tolist()
                groups = (flags[i:j] for i, j in zip(heads, heads[1:] + [len(flags)]))
            else:
                if sample_every > 1:
                    # only the sampled states are kept: one product per
                    # segment, which ends at a sampled link, before a free
                    # flight and at the window's end
                    seg_ends = sorted({*(np.flatnonzero(flags) + 1).tolist(),
                                       *cuts, len(flags)} - {0})
                    mats = _segment_products(mats, seg_ends)
                    flags = flags[np.array(seg_ends) - 1]
                    heads = [0, *seg_ends[:-1]]
                else:
                    heads = range(len(flags))
                groups = zip(flags.tolist())
            units = zip(zip(*mats.reshape(model.dimension ** 2, -1).tolist()), groups)
            cuts = [bisect_left(heads, c) for c in cuts]
            at = 0  # units walked so far
            rows: list = []  # the window's sampled states
            # each free flight follows the first u units of the window
            for u, (_, i0, i1, phases) in zip(cuts, flights[f:f1]):
                y = walk(islice(units, u - at), y, rows)
                y = _free_flight(model, y, i0, i1, phases, states)
                at = u
            f = f1
            y = walk(units, y, rows)
            if rows:
                states[slots[done:done + len(rows)]] = np.array(rows, dtype=complex)
                done += len(rows)
        for _, i0, i1, phases in flights[f:]:
            y = _free_flight(model, y, i0, i1, phases, states)
    finite = np.isfinite(states.view(float)).all(axis=1)
    if not finite.all():
        raise IntegrationDivergedError(
            f"state went non-finite near t = {times[finite.argmin()]:g}")
    return Trajectory.from_states(times, states, dt=h, rk4_steps=len(starts))


def norm_drift(traj: Trajectory) -> float:
    """Largest deviation of the total norm from its initial value."""
    return float(np.max(np.abs(traj.norms - traj.norms[0])))
