"""Fixed-grid integration of small driven quantum systems: RK4 inside pulses,
exact free flight between them.

There is one model type, :class:`LinearDriveModel`:
``H(t) = H0 + v_x(t) A_x + v_y(t) A_y`` with constant 2x2 or 3x3 matrices
and the field of a train of finite-width pulses.  It covers the qubit,
hydrogen in both bases and the effective two-state surrogate, and
:func:`integrate` has a single path for all of them.

:func:`integrate` lays the span out once as a chain of links: exact free
flight up to each merged pulse support, that support's RK4 steps, and the
free flight after the last one.  The chain flags the links that start a
run: a link from a support end, where alone a rectangle's field can
change, or where ``dt`` changes.  It is walked in windows, each building
at most ``_BLOCK`` matrices in one work array that the call allocates.
Each pulse is evaluated once per window, on the links that meet it only:
a rectangle at the midpoint of a link (every edge is a node, so a link
lies wholly inside or outside it), a gaussian at all three stage times of
every link.  Where no pulse of the window is a gaussian, every link of a
run has the same ``dt`` and field, so the field is read and a matrix
built at the first link of each run only.  The matrices are
built in one vectorised pass, each matrix product a sum of outer products
over contiguous time rows and the stages combined in place.  Every link's
matrix equals, value for value, that of the plain RK4 formula over the
field summed from every pulse, so the cost per step does not grow with
the pulse count.  A gaussian window first multiplies the links between
two kept states, or up to a free flight, into one matrix per segment, all
segments at once; a window ends between segments.  Every window then hands
one stream of units to one scalar loop on Python complex scalars, unrolled
for ``d = 2`` and ``d = 3``.  A unit is a matrix's entries and the sampled
flags of its applications: a run carries one flag per link and is applied
once per link; a segment product is applied once.

Several runs of one system, the orderings of a config or the widths of a
convergence scan, are integrated in one pass, of which :func:`integrate`
is the one-run case.  Each run is checked and laid out on its own: its
step, samples, chain and windows (:class:`_Run`).  The pass lays their
links end to end and lets consecutive windows of one kind share a window
of at most ``_BLOCK`` matrices (:class:`_Links`), so one field pass, one
step-matrix pass and one segment-product pass per window, and one
``np.exp`` for every free flight, serve every run.  Each link, segment and
state is formed from the operands of a lone run, so every run's output is
the same bit for bit; only numpy's per-call cost is shared.
"""
from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, islice

import numpy as np

from .pulses import KickSequence, rectangle
from .su2 import SIGMA_X, SIGMA_Y, SIGMA_Z

#: the one integration path, recorded in dataset provenance
BACKEND = "numpy"

# most RK4 matrices a window builds, in one vectorised pass: enough to
# spread numpy's per-call cost thin, in a work array the call reuses
_BLOCK = 4096
# most systems whose constant part a process keeps (see _system): the
# catalog uses two and the benchmark sweeps five
_SYSTEMS = 64


class IntegrationDivergedError(RuntimeError):
    """The integration produced non-finite amplitudes."""


class LinearDriveModel:
    """Pulse-driven model ``H(t) = h0 + v_x(t) a_x + v_y(t) a_y``.

    ``(v_x, v_y)`` is the summed field of a
    :class:`~kickedqubit.pulses.KickSequence` of finite-width pulses, and
    ``h0`` may be non-Hermitian (decay).  Ideal kicks carry no field to
    integrate and are rejected; use the closed forms for those.  The
    matrices are copied into a read-only constant part of the model's own
    (:func:`_constant`).
    """

    def __init__(self, h0, a_x, a_y, seq: KickSequence):
        self._bind(_constant(h0, a_x, a_y), seq)

    def _bind(self, system, seq: KickSequence) -> None:
        """Take the constant part ``system`` of :func:`_constant` and lay
        out the pulses of ``seq``."""
        # each pulse's support, a rectangle's height and the padded support
        # that picks a window's pulses: a gaussian is nonzero wherever
        # |(t - t_k) / tau| <= 6 (GAUSSIAN_SUPPORT) rounds true, which can
        # hold an ulp outside its support, so each support is padded by a
        # relative margin.  Python floats round as numpy's float64 does.
        rows = []
        for i, p in enumerate(seq.pulses):
            if p.shape == "ideal":
                raise ValueError(
                    f"pulse {i} is an ideal kick; integration needs finite-width pulses")
            lo, hi = p.support()
            pad = 1e-9 * (abs(lo) + abs(hi))
            rows.append((lo, hi, p.alpha / p.tau, lo - pad, hi + pad))
        table = np.array(rows)
        self._ends, self._rect, self._lo, self._hi = (table[:, :2], table[:, :3],
                                                      table[:, 3], table[:, 4])
        self._row = np.array(["xy".index(p.axis) for p in seq.pulses])  # axis as a row
        self.h0, self.a_x, self.a_y, (self._g0, self._gx, self._gy), self._free = system
        self.dimension = len(self.h0)
        self.seq = seq
        self.min_tau = min(p.tau for p in seq.pulses)
        # every pulse is rectangular, so the field is piecewise constant
        self._rectangular = all(p.shape == "rectangular" for p in seq.pulses)

    def default_dt(self, span: float) -> float:
        """The largest step that divides ``span`` into whole steps and stays
        within ``min_tau / 20``, where :func:`integrate` starts to warn."""
        return span / math.ceil(span / (self.min_tau / 20.0))

    def _fields(self, starts: np.ndarray, dts: np.ndarray, runs: np.ndarray):
        """:func:`_fields` of this model's pulses on the links ``starts,
        dts``, each pulse on the links that end at or after its padded
        support's start and start at or before its end."""
        return _fields(self.seq.pulses, self._rect, self._row,
                       (starts + dts).searchsorted(self._lo),
                       starts.searchsorted(self._hi, side="right"), starts, dts, runs)

    def _generators(self, vx, vy, out: np.ndarray, term: np.ndarray) -> np.ndarray:
        """``-1j H`` for the field ``(vx, vy)`` at ``n`` times (one stage row
        of :meth:`_fields`, or None), written into the time-last
        ``(d, d, n)`` stack ``out``, each term formed in ``term``."""
        out[...] = self._g0
        # an axis without a pulse here adds exact zeros: its term is left out
        for v, g in ((vx, self._gx), (vy, self._gy)):
            if v is not None:
                out += np.multiply(v, g, out=term)
        return out


class TwoStatePulseModel(LinearDriveModel):
    """Two-state model ``H = -(delta_e/2) sz + Vx sx + Vy sy`` of a pulse train."""

    def __init__(self, seq: KickSequence):
        self._bind(_system(_qubit, seq.delta_e), seq)


def _qubit(delta_e: float):  # -0.0 is the key of 0.0, so it builds 0.0's matrices
    return -0.5 * (delta_e + 0.0) * SIGMA_Z, SIGMA_X, SIGMA_Y


@functools.lru_cache(maxsize=_SYSTEMS)
def _system(matrices, *key):
    """:func:`_constant` of the matrices ``matrices(*key)`` gives
    (:func:`_qubit`, ``hydrogen._hydrogen``), built once per process."""
    return _constant(*matrices(*key))


def _constant(h0, a_x, a_y, *free):
    """The constant part of a model, ``(h0, a_x, a_y, (g0, g_x, g_y),
    free)``: copies of the matrices, every array read-only, and the free
    eigenbasis ``free`` where the caller knows it (else
    :func:`_free_eigenbasis`).  The ``g`` are -1j times each matrix as a
    ``(d, d, 1)`` stack: -1j only swaps and negates the parts, so
    ``g0 + v_x g_x + v_y g_y`` equals ``-1j (h0 + v_x a_x + v_y a_y)``
    exactly.
    """
    h0, a_x, a_y = (np.array(m, dtype=complex) for m in (h0, a_x, a_y))
    for name, m in (("h0", h0), ("a_x", a_x), ("a_y", a_y)):
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise ValueError(f"{name} must be a square matrix, got shape {m.shape}")
    if not h0.shape == a_x.shape == a_y.shape:
        raise ValueError(f"h0, a_x and a_y must have one shape, got {h0.shape}, "
                         f"{a_x.shape} and {a_y.shape}")
    if len(h0) not in (2, 3):
        raise ValueError(f"dimension must be 2 or 3, got {len(h0)}")
    free = free[0] if free else _free_eigenbasis(h0)
    g = -1j * np.array((h0, a_x, a_y))[..., None]
    for m in (h0, a_x, a_y, g, *(free or ())):
        if m is not None:
            m.flags.writeable = False
    return h0, a_x, a_y, tuple(g), free


def _free_eigenbasis(h0: np.ndarray):
    """``(w, V, V^-1)`` with ``-1j h0 = V diag(w) V^-1``, the free propagator
    ``V exp(w s) V^-1``; ``V`` is None for a diagonal ``h0`` (no LAPACK
    call).  None when ``h0`` is (nearly) defective, as at an exceptional
    point: the span is then one more support (see :func:`_chain`)."""
    lam = np.diag(h0)
    if np.count_nonzero(h0) == np.count_nonzero(lam):  # nothing off the diagonal
        return -1j * lam, None, None
    lam, v = np.linalg.eig(h0)
    if np.linalg.cond(v) > 1e6:
        return None
    return -1j * lam, v, np.linalg.inv(v)


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
        # the columns added left to right, as probs.sum(axis=1) adds them,
        # bit for bit, without a reduction along a short row
        norms = probs[:, 0].copy()
        for column in probs.T[1:]:
            norms += column
        return cls(times=np.asarray(times, dtype=float), states=states,
                   probabilities=probs, norms=norms, dt=dt, rk4_steps=rk4_steps)


def _matmul(a: np.ndarray, b: np.ndarray, term: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Products ``a[..., t] @ b[..., t]`` of time-last ``(d, d, n)`` stacks
    into ``out``, sums of outer products of contiguous length-``n`` rows each
    formed in ``term``; ``(d, d, ...)`` stacks multiply the same way."""
    np.multiply(a[:, 0, None], b[0], out=out)
    for k in range(1, len(a)):
        out += np.multiply(a[:, k, None], b[k], out=term)
    return out


def _plus_eye(m: np.ndarray) -> np.ndarray:
    """``eye + m`` for a time-last ``(d, d, n)`` stack, in place."""
    m.reshape(len(m) ** 2, -1)[::len(m) + 1] += 1.0
    return m


def _fields(pulses, rect: np.ndarray, row: np.ndarray, i0: np.ndarray, i1: np.ndarray,
            starts: np.ndarray, dts: np.ndarray, runs: np.ndarray):
    """The field ``(v_x, v_y)`` of ``pulses`` at the three RK4 stages of the
    links ``starts, dts``, each ``(3, n)`` (start, middle, end), ``(1, n)``
    where no gaussian is met (one row for all three stages) or None for an
    axis that nothing drives there, and the indices of the links read: None
    where a gaussian is met, else the links that ``runs`` flags as the first
    of a run (see :func:`_chain`).

    Pulse ``k`` is read on the links ``[i0[k], i1[k])`` only, those that
    meet its padded support, and added into rows of zeros in the order of
    ``pulses``: anywhere else it would add exactly 0.0.  ``rect`` holds each
    pulse's support and rectangle height, ``row`` its axis as a row.  Every
    support end is a node of the chain, so a rectangle is read once per run,
    at a link's midpoint, for all three stages, and every run it covers
    starts among its links; a gaussian at each stage time of every link.
    """
    meets = (i0 < i1).nonzero()[0]
    met = [pulses[k] for k in meets.tolist()]
    axes = {p.axis for p in met}
    if all(p.shape == "rectangular" for p in met):
        # every rectangle at the midpoints of the runs that start among its
        # links, in one pass (a run it only touches reads 0.0 there);
        # np.add.at adds element by element, in pulse order
        heads = runs.nonzero()[0]
        mid = starts[heads] + 0.5 * dts[heads]
        first = heads.searchsorted(i0[meets])
        count = heads.searchsorted(i1[meets]) - first
        owner = meets.repeat(count)
        at = np.arange(len(owner)) + (first + count - count.cumsum()).repeat(count)
        rows = np.zeros((2, 1, len(mid)))
        np.add.at(rows, (row[owner], 0, at), rectangle(*rect[owner].T, mid[at]))
        v = {axis: rows["xy".index(axis)] for axis in axes}
    else:
        heads = None
        times = np.stack((starts, starts + 0.5 * dts, starts + dts))
        v = {axis: np.zeros((3, len(starts))) for axis in axes}
        for p, lo, hi in zip(met, i0[meets].tolist(), i1[meets].tolist()):
            at = v[p.axis][:, lo:hi]
            at += p.value(times[:, lo:hi] if p.shape == "gaussian" else times[1, lo:hi])
    return v.get("x"), v.get("y"), heads


def _step_matrices(model, starts: np.ndarray, dts: np.ndarray, runs: np.ndarray,
                   work: np.ndarray):
    """RK4 matrices M with ``y(t + dt) = M y(t)`` of the links ``starts, dts``:
    ``(mats, heads)``, one time-last ``(d, d, m)`` matrix per run and the
    index of each run's first link, None when every link is a run of its own.
    ``model`` is a model or a pass's :class:`_Links`, whose ``_fields`` and
    ``_generators`` give the field and ``-1j H``.

    ``runs`` flags the links that start a run, the first link among them.
    Where the links meet no gaussian, every link of a run repeats the M of
    its first link bit for bit, and only that one is built; a gaussian
    field differs at every link, so every link gets a matrix (see
    :func:`_fields`).  A field of one row serves all three
    stages, and where no field has more, as in a window of rectangles, the
    three stages share one stack of generators.  All are built in one pass,
    in the first five ``(d, d, m)`` stacks of the flat array ``work``, so a
    window allocates none: the result, then four reused as the stages go,
    for the generators, ``I + c k`` and the terms of each product.  The
    stages are combined in place in the order of
    ``I + dt/6 (a1 + 2 k2 + 2 k3 + k4)``.
    """
    vx, vy, heads = model._fields(starts, dts, runs)
    dts = dts if heads is None else dts[heads]
    d, n = model.dimension, len(dts)
    k2, first, second, t, term = work[:5 * d * d * n].reshape(5, d, d, n)

    def stage(s, at):
        return model._generators(None if vx is None else vx[s % len(vx)],
                                 None if vy is None else vy[s % len(vy)], at, term)

    one = (vx is None or len(vx) == 1) and (vy is None or len(vy) == 1)
    a1, a2 = (stage(0, second),) * 2 if one else (stage(0, first), stage(1, second))
    half = 0.5 * dts
    _matmul(a2, _plus_eye(np.multiply(half, a1, out=t)), term, k2)
    _plus_eye(np.multiply(half, k2, out=t))
    k2 *= 2.0
    k2 += a1
    k3 = _matmul(a2, t, term, first)  # over a1, now spent
    a3 = a2 if one else stage(2, second)  # over a2, now spent
    _plus_eye(np.multiply(dts, k3, out=t))
    k3 *= 2.0
    k2 += k3
    k2 += _matmul(a3, t, term, first)  # k4, over k3
    k2 *= dts / 6.0
    return _plus_eye(k2), heads


def _segment_products(mats: np.ndarray, ends: np.ndarray, work: np.ndarray) -> np.ndarray:
    """The product ``M[e - 1] ... M[s]`` of each segment ``[s, e)`` of the
    time-last ``(d, d, n)`` stack ``mats``, for the increasing integer
    segment ends ``ends`` (the last is ``n``), time-last
    ``(d, d, len(ends))``.

    One gather pads each segment at its front with identities to the
    length of the longest one.  Neighbouring positions are then multiplied
    pairwise, over all segments at once, in ``ceil(log2(longest))`` rounds:
    a long segment (one sample per support, say) costs a few numpy calls, not
    one per link.  Pairs are taken from the end, and on an odd count the
    first position passes through a round, so each segment is multiplied in
    the same tree as when padded to a power of two, without the products
    with identities.  The gather and the rounds alternate between two
    halves of the flat array ``work``, or of a new one if they do not fit.
    """
    if len(ends) == mats.shape[2]:  # every segment one link: nothing to multiply
        return mats
    d = len(mats)
    heads = np.concatenate(([0], ends[:-1]))
    size = int((ends - heads).max())
    # position p of the segment ending at e holds link e - size + p, or the
    # identity where that comes before the segment
    index = np.arange(-size, 0)[:, None] + ends
    g = d * d * size * len(ends)
    work = work if 2 * g <= len(work) else np.empty(2 * g, dtype=complex)
    regions = work[:2 * g].reshape(2, g)
    stack = mats.take(index, axis=2, mode="clip", out=regions[0].reshape(d, d, size, -1))
    np.copyto(stack, np.eye(d)[:, :, None, None], where=index < heads)
    while (count := stack.shape[2]) > 1:
        odd, pairs = count % 2, count // 2  # the first position passes through
        out = regions[1][:d * d * (pairs + odd) * len(ends)].reshape(d, d, pairs + odd, -1)
        term = regions[1][out.size:out.size + d * d * pairs * len(ends)]
        _matmul(stack[:, :, odd + 1::2], stack[:, :, odd::2],
                term.reshape(d, d, pairs, -1), out[:, :, odd:])
        if odd:
            out[:, :, 0] = stack[:, :, 0]
        stack, regions = out, regions[::-1]
    return stack[:, :, 0]


def _walk2(units, y, rows: list):
    """Apply the 2x2 step matrices of ``units`` to ``y`` in order.  A unit
    is ``(matrix entries, sampled flags)``: its entries are bound once and
    applied once per flag, and the entries of the state after each flagged
    application are appended to the flat list ``rows``."""
    add = rows.append
    y0, y1 = y
    for (a, b, c, d), flags in units:
        for sampled in flags:
            y0, y1 = a * y0 + b * y1, c * y0 + d * y1
            if sampled:
                add(y0)
                add(y1)
    return y0, y1


def _walk3(units, y, rows: list):
    """:func:`_walk2` for 3x3 step matrices."""
    add = rows.append
    y0, y1, y2 = y
    for (a, b, c, d, e, f, g, h, i), flags in units:
        for sampled in flags:
            y0, y1, y2 = (a * y0 + b * y1 + c * y2, d * y0 + e * y1 + f * y2,
                          g * y0 + h * y1 + i * y2)
            if sampled:
                add(y0)
                add(y1)
                add(y2)
    return y0, y1, y2


def _chain(model, t0: float, h: float, n_steps: int):
    """The span as one chain of links: RK4 steps and exact free flights.

    RK4 steps the merged pulse supports.  The nodes of a support are its
    ends, the grid points ``t0 + k h`` inside it and the ends of every
    support inside it.  Ends within ``1e-9 h`` of a grid point are moved
    onto it, so that no step between an end and a grid point is shorter
    than that.  The RK4 links are the steps between the nodes of each
    support, returned as the arrays ``starts, ends, dts`` and ``runs``,
    which flags each link that starts a run of equal links: a link from a
    support end, the only node where a rectangle's field can change, or
    whose ``dt`` differs from the link's before it.  The grid points of all
    supports form one array, and one search places every end after the
    grid points below it.  A step between two grid points is ``h``, so a
    support with no end inside a step repeats the full-span grid
    arithmetic.  The free links, up to each support and after the last
    one, are returned last, as a list of ``(k, a, b)``: the flight from
    ``a`` to ``b`` after the first ``k`` RK4 links.  An ``h0`` without an
    exact free propagator (at an exceptional point) adds the span as one
    more support.
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
    points = t0 + (np.arange(n_grid) + np.array(shift).repeat(counts)) * h
    # each end goes after the grid points below it
    place = points.searchsorted(edges) + np.arange(len(edges))
    on_grid = np.ones(len(points) + len(edges), dtype=bool)
    on_grid[place] = False
    nodes = np.empty(len(on_grid))
    nodes[on_grid] = points
    nodes[place] = edges
    on_grid[place] = [e not in off for e in edges]
    dts = np.where(on_grid[:-1] & on_grid[1:], h, nodes[1:] - nodes[:-1])
    runs = np.ones(len(nodes), dtype=bool)
    runs[1:-1] = dts[1:] != dts[:-1]
    # the nodes are strictly increasing, so one search finds every support end
    at = nodes.searchsorted(ends)
    runs[at[np.concatenate((nodes, [np.inf]))[at] == ends]] = True
    # no link from a support's end to the next one's start
    is_link = np.ones(len(dts), dtype=bool)
    is_link[place[last[:-1]]] = False
    return (nodes[:-1][is_link], nodes[1:][is_link], dts[is_link], runs[:-1][is_link],
            flights)


def _free_links(model, runs):
    """The free flights ``(k, a, b)`` of each run of ``runs``, pairs of its
    flights and sample times, as a list per run of ``(k, i0, i1, phases)``:
    the flight after the first ``k`` RK4 links fills the samples
    ``times[i0:i1]`` in ``(a, b]``, and ``phases`` holds ``exp(w (t - a))``
    (see :func:`_free_eigenbasis`) at those times and at ``b``.
    One ``np.exp`` serves every flight of every run."""
    slots, t, a, m = [], [], [], []
    for flights, times in runs:
        ks, starts, stops = zip(*flights) if flights else ((), (), ())
        i = times.searchsorted(starts + stops, side="right").tolist() if flights else []
        i0, i1 = i[:len(starts)], i[len(starts):]
        slots.append(list(zip(ks, i0, i1)))
        # each flight's sample times, then its end
        t += [x for lo, hi, e in zip(i0, i1, stops) for x in (times[lo:hi], (e,))]
        a += starts
        m += [hi - lo + 1 for lo, hi in zip(i0, i1)]
    if not m:
        return slots
    # formed (d, N), so each inner loop runs over the N times, not the d levels
    phases = np.exp(model._free[0][:, None] * (np.concatenate(t) - np.array(a).repeat(m))).T
    first = iter(accumulate(m, initial=0))
    return [[(k, lo, hi, phases[f:f + hi - lo + 1]) for (k, lo, hi), f in zip(run, first)]
            for run in slots]


def _free_flight(model, y, i0: int, i1: int, phases, states) -> list:
    """Exact free evolution ``y(t) = V exp(w (t - a)) V^-1 y(a)`` of
    :func:`_free_links`: fills ``states[i0:i1]`` and returns the state at
    the flight's end."""
    _, v, v_inv = model._free
    out = phases * (y if v is None else v_inv @ y)
    if v is not None:
        out = out @ v.T
    if i1 > i0:
        states[i0:i1] = out[:-1]
    return out[-1].tolist()


class _Run:
    """One run of :func:`integrate`, checked and laid out: its step ``h``,
    sample times, chain of links (see :func:`_chain`) and its own windows.

    Construction makes every check and warning of the run.  The windows
    are ``pieces``, ``(b0, b1, gaussian, count)``: the links ``[b0, b1)``,
    whether they meet a gaussian and the matrices they build, one per link
    if so, else one per run.  A piece is what one window of a lone run
    holds; :func:`_integrate` lays the pieces of several runs end to end.
    """

    def __init__(self, model: LinearDriveModel, state0, t0: float, t1: float, dt: float,
                 sample_every: int):
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
                f"pulse sampling may be too coarse", stacklevel=3)

        y = np.asarray(state0, dtype=complex)
        if y.shape != (model.dimension,):
            raise ValueError(
                f"initial state has shape {y.shape}, expected ({model.dimension},)")

        ks = np.arange(0, n_steps + 1, sample_every)
        if ks[-1] != n_steps:
            ks = np.concatenate((ks, [n_steps]))
        self.model, self.h, self.y0 = model, h, y
        self.times = times = t0 + ks * h
        starts, ends, dts, runs, self.flights = _chain(model, t0, h, n_steps)
        # the RK4 links that end on a sample time, and their sample slots
        slots = np.minimum(times.searchsorted(ends), len(times) - 1)
        sampled = times[slots] == ends
        # each window builds at most _BLOCK matrices: one per link where a
        # gaussian can be met, one per run in a chain of rectangles.  Windows
        # are of equal size, since a window's fixed numpy cost is paid whatever
        # its length: no short last window.
        firsts = runs.nonzero()[0].tolist() if model._rectangular else range(len(starts))
        n_windows = max(1, math.ceil(len(firsts) / _BLOCK))
        step = math.ceil(len(firsts) / n_windows) or 1
        bounds = [*firsts[::step], len(starts)]
        last = sampled  # read only where a window meets a gaussian
        if not model._rectangular:
            # a gaussian window multiplies each segment, which ends at a sampled
            # link and before a free flight, into one matrix: each inner bound
            # moves on to the next segment start, by at most _BLOCK links
            last = sampled.copy()  # the last link of each segment
            last[[k - 1 for k, _, _ in self.flights if k]] = True
            last[-1:] = True
            if len(bounds) > 2:
                seg_ends = last.nonzero()[0] + 1
                inner = np.array(bounds[1:-1], dtype=int)
                moved = np.minimum(seg_ends[seg_ends.searchsorted(inner)], inner + _BLOCK)
                bounds = list(dict.fromkeys([0, *moved.tolist(), len(starts)]))
                last[[b - 1 for b in bounds[1:]]] = True
        runs[bounds[:-1]] = True  # a window's first link starts a run
        self.starts, self.dts, self.runs, self.last = starts, dts, runs, last
        self.sampled, self.slots = sampled, slots[sampled]
        # the links of each pulse: those that end at or after its padded
        # support's start and start at or before its end
        self.first = (starts + dts).searchsorted(model._lo)
        self.stop = starts.searchsorted(model._hi, side="right")
        pairs = list(zip(bounds, bounds[1:]))
        gaussian = [not model._rectangular] * len(pairs)
        if pairs and not model._rectangular and (
                model._free is None or any(p.shape == "rectangular" for p in model.seq.pulses)):
            # where only gaussians drive and the gaps fly free, every link
            # lies in a support and meets its gaussian; a window of a mixed
            # train, or of a span stepped whole, may meet none
            is_gaussian = np.array([p.shape == "gaussian" for p in model.seq.pulses])
            lo, hi = self.first[is_gaussian], self.stop[is_gaussian]
            b0, b1 = np.array(pairs).T[:, :, None]
            gaussian = ((lo < b1) & (hi > b0) & (lo < hi)).any(axis=1).tolist()
        self.pieces = [(b0, b1, g, b1 - b0 if g else int(np.count_nonzero(runs[b0:b1])))
                       for (b0, b1), g in zip(pairs, gaussian)]


class _Links:
    """The links and samples of several runs laid end to end, the links cut
    into windows: the model face through which :func:`_step_matrices`
    builds the matrices of the window that starts at link ``w0``.

    Each run keeps its own pieces (see :class:`_Run`).  Consecutive pieces
    that meet a gaussian, or that do not, share a window as long as it
    builds at most ``_BLOCK`` matrices; a piece never shares one with a
    piece of the other kind.  ``windows`` lists them as ``(w0, w1,
    pieces)``, each piece ``(r, a, b, b0)``: run ``r``'s links from its
    ``b0``-th at the window's links ``[a, b)``.  ``width`` is the most
    matrices a window builds, and run ``r``'s samples are ``[kept[r],
    kept[r + 1])`` of ``times``.
    """

    def __init__(self, runs: list):
        model = runs[0].model
        self.dimension, self._generators = model.dimension, model._generators

        def laid(parts, offsets=None):
            if offsets is not None:
                parts = [x + o if o else x for x, o in zip(parts, offsets)]
            return parts[0] if len(parts) == 1 else np.concatenate(parts)

        links = list(accumulate((len(run.starts) for run in runs), initial=0))
        self.kept = list(accumulate((len(run.times) for run in runs), initial=0))
        self.starts, self.dts, self.runs, self.sampled, self.last, self.times = (
            laid([getattr(run, name) for run in runs])
            for name in ("starts", "dts", "runs", "sampled", "last", "times"))
        self.slots = laid([run.slots for run in runs], self.kept)
        # every pulse of every run, each with the links it meets in the chain
        self._pulses = [p for run in runs for p in run.model.seq.pulses]
        self._rect, self._row = (laid([getattr(run.model, name) for run in runs])
                                 for name in ("_rect", "_row"))
        self._first = laid([run.first for run in runs], links)
        self._stop = laid([run.stop for run in runs], links)
        self.windows, self.width, self.w0 = [], 0, 0
        kind, count = None, 0
        for r, (run, o) in enumerate(zip(runs, links)):
            for b0, b1, gaussian, n in run.pieces:
                if self.windows and gaussian == kind and count + n <= _BLOCK:
                    w = self.windows[-1]
                    w[2].append((r, w[1] - w[0], o + b1 - w[0], b0))
                    w[1] = o + b1
                    count += n
                else:
                    self.windows.append([o + b0, o + b1, [(r, 0, b1 - b0, b0)]])
                    kind, count = gaussian, n
                self.width = max(self.width, count)

    def _fields(self, starts: np.ndarray, dts: np.ndarray, runs: np.ndarray):
        """:func:`_fields` of every run's pulses on the window's links."""
        n = len(starts)
        i0 = np.minimum(np.maximum(self._first - self.w0, 0), n)
        i1 = np.minimum(np.maximum(self._stop - self.w0, 0), n)
        return _fields(self._pulses, self._rect, self._row, i0, i1, starts, dts, runs)


def _integrate(runs: list) -> list:
    """The trajectories of the runs ``runs`` (see :class:`_Run`), whose
    models share one constant part, advanced in one pass.

    The runs' links are laid end to end and walked in windows (see
    :class:`_Links`): one field pass, one step-matrix pass and, where the
    window meets a gaussian, one segment-product pass serve every run in
    it, and one ``np.exp`` forms the phases of every run's free flights.
    Each run keeps its own links, samples, segments and runs of equal
    links, so every matrix and state is the one a lone run forms, bit for
    bit.  The scalar walk takes each run's state from its ``state0`` and
    carries it from piece to piece.  The samples of every run fill one
    array, whose norms are checked once, at the end.
    """
    if not runs:
        return []
    model = runs[0].model
    if any(run.model._g0 is not model._g0 for run in runs):
        raise ValueError("runs integrated in one pass must share one system")
    d = model.dimension
    walk = _walk2 if d == 2 else _walk3
    flights = _free_links(model, [(run.flights, run.times) for run in runs])
    links = _Links(runs)
    states = np.empty((links.kept[-1], d), dtype=complex)
    for run, o in zip(runs, links.kept):
        states[o] = run.y0
    ys = [run.y0.tolist() for run in runs]
    f = [0] * len(runs)  # each run's next free flight
    # one work array for every window's matrices: five stacks of the widest
    work = np.empty(5 * d * d * links.width, dtype=complex)
    done = 0  # sample slots filled by RK4 links
    # a blow-up shows in the norms of the samples, checked once at the end,
    # so the intermediate overflow warnings carry no extra information
    with np.errstate(over="ignore", invalid="ignore"):
        for w0, w1, pieces in links.windows:
            links.w0 = w0
            mats, heads = _step_matrices(links, links.starts[w0:w1], links.dts[w0:w1],
                                         links.runs[w0:w1], work)
            flags = links.sampled[w0:w1]
            if heads is not None:
                # a run's matrix applies once per link of the run
                heads = heads.tolist()
                flags = flags.tolist()
                groups = (flags[i:j] for i, j in zip(heads, heads[1:] + [len(flags)]))
            else:
                ends_here = links.last[w0:w1]
                seg_ends = ends_here.nonzero()[0] + 1
                mats = _segment_products(mats, seg_ends, work[mats.size:])
                flags = flags[ends_here]
                heads = [0, *seg_ends[:-1].tolist()]
                groups = zip(flags.tolist())
            units = zip(mats.reshape(d * d, -1).T.tolist(), groups)
            rows: list = []  # the window's sampled states, entry by entry
            for r, a, b, b0 in pieces:
                y, k, o = ys[r], f[r], links.kept[r]
                at = bisect_left(heads, a)  # units walked so far
                # each free flight of the piece follows the first u units of
                # the window
                while k < len(flights[r]) and flights[r][k][0] < b0 + b - a:
                    link, i0, i1, phases = flights[r][k]
                    u = bisect_left(heads, link - b0 + a)
                    y = walk(islice(units, u - at), y, rows)
                    y = _free_flight(model, y, o + i0, o + i1, phases, states)
                    at, k = u, k + 1
                ys[r], f[r] = walk(islice(units, bisect_left(heads, b) - at), y, rows), k
            if rows:
                kept = np.array(rows, dtype=complex).reshape(-1, d)
                states[links.slots[done:done + len(kept)]] = kept
                done += len(kept)
        for y, k, run_flights, o in zip(ys, f, flights, links.kept):
            for _, i0, i1, phases in run_flights[k:]:
                y = _free_flight(model, y, o + i0, o + i1, phases, states)
        every = Trajectory.from_states(links.times, states)
    # a non-finite state and an overflowed |y|^2 both make a norm non-finite;
    # the first such sample lies in the first run that has one
    finite = np.isfinite(every.norms)
    if not finite.all():
        raise IntegrationDivergedError(
            f"norm went non-finite near t = {every.times[finite.argmin()]:g}")
    return [Trajectory(every.times[i:j], every.states[i:j], every.probabilities[i:j],
                       every.norms[i:j], dt=run.h, rk4_steps=len(run.starts))
            for run, i, j in zip(runs, links.kept, links.kept[1:])]


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
    unit at a time: a run of equal links, from a support end or a change of
    step to the next, shares one matrix, applied once per link, and the
    links between two samples of a gaussian window, at any ``sample_every``,
    are multiplied into one matrix, applied once (see the module docstring).
    An ``h`` above ``min_tau / 20`` triggers an accuracy warning (not an
    error).  This is the one-run case of the pass that integrates several
    runs of one system at once (see the module docstring), which gives each
    run these same bits.

    Raises
    ------
    ValueError
        Non-positive ``dt``/``sample_every`` or an empty span.
    IntegrationDivergedError
        The norm of a sampled state is not finite: the state is not, or
        ``|y|^2`` overflows.  The message names the first such sample.
    """
    return _integrate([_Run(model, state0, t0, t1, dt, sample_every)])[0]


def norm_drift(traj: Trajectory) -> float:
    """Largest deviation of the total norm from its initial value."""
    return float(abs(traj.norms - traj.norms[0]).max())
