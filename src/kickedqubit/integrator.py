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
every link.  The matrices are built in one vectorised pass, each matrix
product a sum of outer products over contiguous time rows and the stages
combined in place.  Every link's matrix equals, value for value, that of
the plain RK4 formula over the field summed from every pulse, so the cost
per step does not grow with the pulse count.

A model sets the kind of all its windows.  Where every pulse is a
rectangle, every link of a run has the same ``dt`` and field, so a
window reads the field and builds a matrix at the first link of each run
only, and a unit is that matrix with one sampled flag per link, applied
once per link.  With a gaussian pulse, a window builds every link's
matrix and multiplies the links between two kept states, or up to a
free flight, into one matrix per segment, all segments at once; a unit
is a segment product, applied once.  Every window hands its units, in
time order, to one scalar loop on Python complex scalars, unrolled for
``d = 2`` and ``d = 3``.

Several runs of one system, the orderings of a config or the widths of a
convergence scan, are integrated in one pass, of which :func:`integrate`
is the one-run case.  Each run is checked and laid out on its own: its
step, samples, chain and segments (:class:`_Run`).  The pass lays their
links end to end and cuts each stretch of runs of one kind into windows
(:class:`_Links`), so one field pass, one step-matrix pass and one
segment-product pass per window, and one ``np.exp`` for every free
flight, serve every run.  Each link, segment and state is formed from the
operands of a lone run, so every run's output is the same bit for bit;
only numpy's per-call cost is shared.
"""
from __future__ import annotations

import functools
import math
import warnings
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from itertools import accumulate, groupby, islice

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
        self._ends = table[:, :2].ravel().tolist()  # lo, hi of each, as Python floats
        self._rect, self._lo, self._hi = table[:, :3], table[:, 3], table[:, 4]
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

    def _generators(self, vx, vy, out: np.ndarray, term: np.ndarray) -> np.ndarray:
        """``-1j H`` for the field ``(vx, vy)`` at ``n`` times (one stage row
        of :func:`_fields`, or None), written into the time-last
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
        table = np.empty((probs.shape[1] + 2, len(probs)))
        table[0], table[1:-1] = times, probs.T
        # the columns added left to right, as probs.sum(axis=1) adds them,
        # bit for bit, without a reduction along a short row
        table[-1] = table[1]
        for row in table[2:-1]:
            table[-1] += row
        return cls._rows(table, states, dt, rk4_steps)

    @classmethod
    def _rows(cls, table: np.ndarray, states: np.ndarray, dt: float | None = None,
              rk4_steps: int = 0) -> "Trajectory":
        """The trajectory whose times, probabilities and norms are the rows of
        ``table``, kept as ``_table`` (no field): its transpose is a dataset's
        table."""
        traj = cls(times=table[0], states=states, probabilities=table[1:-1].T,
                   norms=table[-1], dt=dt, rk4_steps=rk4_steps)
        object.__setattr__(traj, "_table", table)
        return traj


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
    links ``starts, dts``, each ``(3, n)`` (start, middle, end) in a
    gaussian window (``runs`` None), ``(1, n)`` in a window of rectangles
    (one row for all three stages), or None for an axis that nothing drives
    there, and the indices of the links read: None in a gaussian window,
    else the links that ``runs`` flags as the first of a run (see
    :func:`_chain`).

    Pulse ``k`` is read on the links ``[i0[k], i1[k])`` only, those that
    meet its padded support, and added into rows of zeros in the order of
    ``pulses``: anywhere else it would add exactly 0.0.  ``rect`` holds each
    pulse's support and rectangle height, ``row`` its axis as a row.  Every
    support end is a node of the chain, so a rectangle is read at a link's
    midpoint, for all three stages, and in a window of rectangles once per
    run, as every run it covers starts among its links; a gaussian at each
    stage time of every link.
    """
    meets = (i0 < i1).nonzero()[0]
    met = [pulses[k] for k in meets.tolist()]
    axes = {p.axis for p in met}
    if runs is not None:
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
    index of each run's first link, or one per link and None in a gaussian
    window.  ``model`` is a pass's :class:`_Links`, whose ``_fields`` and
    ``_generators`` give the field and ``-1j H``.

    In a window of rectangles ``runs`` flags the links that start a run,
    the first link among them: every link of a run repeats the M of its
    first link bit for bit, and only that one is built.  A gaussian window
    (``runs`` None) builds every link's M, since a gaussian field differs
    at every link (see :func:`_fields`).  A field of one row serves all three
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
    supports form one array, and each end is placed among them by its grid
    index: the grid points below it.  A step between two grid points is
    ``h``, so a support with no end inside a step repeats the full-span
    grid arithmetic.  The free links, up to each support and after the
    last one, are returned last, as a list of ``(k, a, b)``: the flight
    from ``a`` to ``b`` after the first ``k`` RK4 links.  An ``h0`` without
    an exact free propagator (at an exceptional point) adds the span as one
    more support.
    """
    t_end = t0 + n_steps * h
    ends = model._ends if model._free is not None else [t0, t_end, *model._ends]
    # each end onto its nearest grid point t0 + k h if within 1e-9 h of it,
    # then into the span: the operations of a float64 array, end by end.  An
    # off-grid end keeps its grid index, the grid points below it; an
    # on-grid end keeps k.
    snapped, off, on, near = [], {}, {}, 1e-9 * h
    for e in ends:
        k = round((e - t0) / h)
        k = 0 if k < 0 else n_steps if k > n_steps else k
        g = t0 + k * h
        if abs(e - g) <= near:
            e = g
        e = t0 if e < t0 else t_end if e > t_end else e
        if e == g:
            on[e] = k
        else:
            off[e] = k + (e > g)
        snapped.append(e)
    merged: list[list[float]] = []
    for lo, hi in sorted(zip(snapped[::2], snapped[1::2])):
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    inner, grid_ends = sorted(off), sorted(on)
    # node by node: each end at place[j], then the grid points after it
    # (their grid index is the node's position plus shift[j]); link by
    # link: the links that start a run, and each dt that need not be h
    edges, place, shift, counts, last, flights, flagged, odd = [], [], [], [], [], [], [], {}
    links, at = 0, t0
    for lo, hi in merged:
        if lo > at:
            flights.append((links, at, lo))
        at = hi
        # the grid points strictly inside are t0 + k h for first <= k < stop
        first = on[lo] + 1 if lo in on else off[lo]
        stop = on[hi] if hi in on else off[hi]
        inside = inner[bisect_right(inner, lo):bisect_left(inner, hi)]
        # a link from an on-grid end inside starts a run: the link from grid
        # point k follows k - first grid points and the ends below it
        for e in grid_ends[bisect_right(grid_ends, lo):bisect_left(grid_ends, hi)]:
            flagged.append(links + 1 + on[e] - first + bisect_left(inside, e))
        after = [first, *map(off.get, inside), stop]
        own = [lo, *inside, hi]  # this support's ends
        for a, b, k_a, k_b in zip(own, own[1:], after, after[1:]):
            # a, then the grid points k_a to k_b - 1, then b
            n = k_b - k_a
            if n == 0:
                if a in off or b in off:
                    odd[links] = b - a
            else:
                if a in off:
                    odd[links] = (t0 + k_a * h) - a
                if b in off:
                    odd[links + n] = b - (t0 + (k_b - 1) * h)
            flagged.append(links)  # a link from a support end starts a run
            place.append(links + len(last))
            shift.append(k_a - place[-1] - 1)
            counts.append(n + 1)
            links += n + 1
        last.append(links + len(last))  # hi, placed after the last grid points
        place.append(last[-1])
        counts[-1] += 1
        edges += own
    if at < t_end:
        flights.append((links, at, t_end))
    # a link whose dt differs from the link's before it starts a run
    for j, dt in odd.items():
        if dt != odd.get(j - 1, h):
            flagged.append(j)
        if odd.get(j + 1, h) != dt:
            flagged.append(j + 1)
    nodes = t0 + (np.arange(links + len(last)) + np.array(shift).repeat(counts)) * h
    nodes[place] = edges
    dts = np.empty(links)
    dts[:] = h
    dts[list(odd)] = list(odd.values())
    runs = np.zeros(links + 1, dtype=bool)  # a flag past the last link is dropped
    runs[flagged] = True
    if len(last) < 2:
        return nodes[:-1], nodes[1:], dts, runs[:-1], flights
    # no link from a support's end to the next one's start
    is_link = np.ones(len(nodes) - 1, dtype=bool)
    is_link[last[:-1]] = False
    return nodes[:-1][is_link], nodes[1:][is_link], dts, runs[:-1], flights


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
    sample times, chain of links (see :func:`_chain`), the links that end
    on a sample time and their slots, and the links each pulse meets.
    Construction makes every check and warning of the run.

    A model with a gaussian pulse steps gaussian windows, which multiply
    each segment of links into one matrix: ``last`` flags the last link of
    each segment.  A segment ends at a sampled link, before a free flight,
    at the run's last link and after every ``_BLOCK`` links from its start,
    so no window (see :class:`_Links`) changes it.
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

        # t0 + k h at every sample_every-th grid point k, then the last one,
        # in place on the ks as floats
        self.times = times = np.arange(0, n_steps + sample_every, sample_every, dtype=float)
        times[-1] = n_steps
        times *= h
        times += t0
        self.model, self.h, self.y0 = model, h, y
        self.starts, ends, self.dts, self.runs, self.flights = _chain(model, t0, h, n_steps)
        # the RK4 links that end on a sample time, and their sample slots
        slots = np.minimum(times.searchsorted(ends), len(times) - 1)
        self.sampled = last = times[slots] == ends
        self.slots = slots[last]
        # the links of each pulse: those that end at or after its padded
        # support's start and start at or before its end
        self.first = (self.starts + self.dts).searchsorted(model._lo)
        self.stop = self.starts.searchsorted(model._hi, side="right")
        if not model._rectangular:  # else last is never read
            last = last.copy()
            last[[k - 1 for k, _, _ in self.flights if k]] = True
            last[-1:] = True
            if len(last) > _BLOCK:  # a segment also ends after every _BLOCK links
                ends = last.nonzero()[0]
                lengths = np.diff(ends, prepend=-1)
                long = lengths > _BLOCK
                for e, n in zip(ends[long].tolist(), lengths[long].tolist()):
                    last[e - n + _BLOCK:e:_BLOCK] = True
        self.last = last


class _Links:
    """The links and samples of several runs laid end to end, the links cut
    into windows: the model face through which :func:`_step_matrices`
    builds the matrices of the window that starts at link ``w0``.

    Each stretch of consecutive runs of one kind is cut into windows of at
    most ``_BLOCK`` matrices: gaussian windows (one matrix per link) at
    segment ends (see :class:`_Run`), windows of rectangles (one per run of
    equal links) at the first link of a run.  ``windows`` lists them as
    ``(w0, w1, pieces)``, each piece ``(r, a, b, b0)``: run ``r``'s links
    from its ``b0``-th at the window's links ``[a, b)``.  ``width`` is the
    most matrices a window builds, and run ``r``'s samples are ``[kept[r],
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
        for rectangular, group in groupby(range(len(runs)), lambda r: runs[r].model._rectangular):
            group = list(group)
            g0, g1 = links[group[0]], links[group[-1] + 1]
            if rectangular:
                heads = self.runs[g0:g1].nonzero()[0] + g0
                cuts = [*heads[::_BLOCK].tolist(), g1]
                self.width = max(self.width, min(len(heads), _BLOCK))
            else:
                # each window takes the segments that end within _BLOCK links
                ends = self.last[g0:g1].nonzero()[0] + (g0 + 1)
                cuts = [g0]
                while cuts[-1] < g1:
                    cuts.append(int(ends[ends.searchsorted(cuts[-1] + _BLOCK, "right") - 1]))
                    self.width = max(self.width, cuts[-1] - cuts[-2])
            for w0, w1 in zip(cuts, cuts[1:]):
                spans = ((r, max(links[r], w0), min(links[r + 1], w1)) for r in group)
                self.windows.append((w0, w1, [(r, a - w0, b - w0, a - links[r])
                                              for r, a, b in spans if a < b]))

    def _fields(self, starts: np.ndarray, dts: np.ndarray, runs):
        """:func:`_fields` of every run's pulses on the window's links."""
        n = len(starts)
        i0 = np.minimum(np.maximum(self._first - self.w0, 0), n)
        i1 = np.minimum(np.maximum(self._stop - self.w0, 0), n)
        return _fields(self._pulses, self._rect, self._row, i0, i1, starts, dts, runs)


def _integrate(runs: list) -> list:
    """The trajectories of the runs ``runs`` (see :class:`_Run`), whose
    models share one constant part, advanced in one pass.

    The runs' links are laid end to end and walked in windows (see
    :class:`_Links`): one field pass, one step-matrix pass and, in a
    gaussian window, one segment-product pass serve every run in it, and
    one ``np.exp`` forms the phases of every run's free flights.
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
            rectangular = runs[pieces[0][0]].model._rectangular
            mats, heads = _step_matrices(links, links.starts[w0:w1], links.dts[w0:w1],
                                         links.runs[w0:w1] if rectangular else None, work)
            flags = links.sampled[w0:w1]
            if heads is not None:
                # a run's matrix applies once per link of the run
                heads, flags = heads.tolist(), flags.tolist()
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
    return [Trajectory._rows(every._table[:, i:j], every.states[i:j], run.h, len(run.starts))
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
    then one support.  An ``h`` above ``min_tau / 20`` triggers an accuracy
    warning (not an error).  This is the one-run case of the pass that
    integrates several runs of one system at once, which gives each run
    these same bits (see the module docstring).

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
