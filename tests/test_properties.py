"""Property tests of segmented integration over random valid pulse trains.

Each example is a qubit, a hydrogen j-basis or a hydrogen coupled-basis
model driven by one to three pulses with free flight before, between and
after their supports; the span may start inside the first support.  The
rectangular trains also drive a decaying ``h0`` at an exceptional point,
which has no exact free propagator.  The
chain layout of ``integrate`` is also checked on its own against a plain
reference, over supports that touch, overlap, sit on or near the grid, or
reach past the span, and each link it does not flag as the start of a run
against the link before it.  The constant part of each model, which a
process builds once per system, is checked against a build of its own.
"""
from __future__ import annotations

import math
from unittest import mock

import numpy as np
from hypothesis import event, example, given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kickedqubit import (
    HydrogenModel,
    HydrogenParams,
    KickSequence,
    LinearDriveModel,
    PulseSpec,
    SIGMA_X,
    SIGMA_Y,
    TwoStatePulseModel,
    effective_two_state_model,
    integrate,
)
from kickedqubit import integrator as integrator_module
from kickedqubit.integrator import _BLOCK, _chain, _integrate, _Links, _Run, _system

from field_reference import field_at

PROPERTY_SETTINGS = settings(max_examples=30, deadline=None)


# a decaying h0 with a single eigenvector
_EXCEPTIONAL_H0 = np.array([[0.0, 0.25], [0.25, -0.5j]])


def _half_support(shape: str, tau: float) -> float:
    return 6.0 * tau if shape == "gaussian" else 0.5 * tau


def _train(draw, seq_delta_e: float, hydrogen: bool, shapes) -> tuple:
    """``(seq, t0, t_end)``: one to three pulses of ``shapes`` with free
    flight before, between and after their supports, on the qubit's scale or
    hydrogen's; ``t0`` lies before the first support or inside it."""
    taus, gaps = ((st.floats(0.5, 5.0), st.floats(10.0, 200.0)) if hydrogen
                  else (st.floats(0.02, 0.2), st.floats(0.05, 1.0)))
    pulses, end = [], 0.0
    for _ in range(draw(st.integers(1, 3))):
        shape = draw(st.sampled_from(shapes))
        tau = draw(taus)
        half = _half_support(shape, tau)
        t_k = end + draw(gaps) + half
        pulses.append(PulseSpec(shape=shape, axis=draw(st.sampled_from("xy")),
                                alpha=draw(st.floats(-0.8, 0.8)), t_k=t_k, tau=tau))
        end = t_k + half
    # from before the first support to inside it
    t0 = draw(st.floats(0.0, pulses[0].t_k))
    return KickSequence(pulses=tuple(pulses), delta_e=seq_delta_e), t0, end + draw(gaps)


@st.composite
def pulse_runs(draw, kinds=("qubit", "j", "coupled"),
               shapes=("gaussian", "rectangular"), decay=None):
    """``(model, t0, t_end, sample_every)`` of a random valid pulse train.

    The kind ``"exceptional"`` is a qubit-scale train on an ``h0`` at an
    exceptional point.  ``decay`` picks the hydrogen 2p decay: True for the
    quoted rate, False for none, None for either.
    """
    kind = draw(st.sampled_from(kinds))
    if kind in ("qubit", "exceptional"):
        delta_e = draw(st.floats(0.5, 2.0))
    else:
        gamma = draw(st.booleans()) if decay is None else decay
        params = HydrogenParams.from_mhz(1057.0, 10956.0, 626.0 if gamma else 0.0)
        delta_e = params.delta_e
    seq, t0, t_end = _train(draw, delta_e, kind in ("j", "coupled"), shapes)
    if kind == "qubit":
        model = TwoStatePulseModel(seq)
    elif kind == "exceptional":
        model = LinearDriveModel(_EXCEPTIONAL_H0, SIGMA_X, SIGMA_Y, seq)
    else:
        model = HydrogenModel(params, seq, basis=kind)
    return model, t0, t_end, draw(st.integers(1, 50))


def _default_run(model, t0, t_end, sample_every, per_tau=20):
    """``integrate`` at the catalog's default step, the largest <= tau/20
    that divides the span (tau/``per_tau`` if given)."""
    target = min(p.tau for p in model.seq.pulses) / per_tau
    dt = (t_end - t0) / math.ceil((t_end - t0) / target)
    y0 = np.zeros(model.dimension, dtype=complex)
    y0[0] = 1.0
    return integrate(model, y0, t0, t_end, dt, sample_every=sample_every), y0


def _piecewise_expm(model, y0, t0, times):
    """States at ``times`` of a rectangular train, one ``expm`` per constant
    piece of the Hamiltonian."""
    edges = [e for p in model.seq.pulses for e in p.support()]
    nodes = sorted({t0, *times, *(e for e in edges if t0 < e < times[-1])})
    out, y = {t0: y0}, y0
    for a, b in zip(nodes, nodes[1:]):
        vx, vy = field_at(model.seq, 0.5 * (a + b))
        h = model.h0 + vx * model.a_x + vy * model.a_y
        y = expm(-1j * h * (b - a)) @ y
        out[b] = y
    return np.array([out[t] for t in times])


@PROPERTY_SETTINGS
@given(pulse_runs(kinds=("qubit", "j", "coupled", "exceptional"), shapes=("rectangular",)))
def test_rectangular_trains_match_piecewise_expm(run):
    model, t0, t_end, _ = run
    # about 30 samples, each one a reference expm
    n_steps = math.ceil((t_end - t0) / (min(p.tau for p in model.seq.pulses) / 20.0))
    traj, y0 = _default_run(model, t0, t_end, max(1, n_steps // 30))
    expected = _piecewise_expm(model, y0, t0, traj.times)
    assert np.max(np.abs(traj.states - expected)) < 1e-7


@PROPERTY_SETTINGS
@given(pulse_runs(decay=False))
def test_norm_is_conserved_without_decay(run):
    # an RK4 step loses (h V)^6 / 72 of the norm: at tau/20 a single
    # rectangular pulse of area pi/4 loses 1.0e-9, at tau/40 it loses 3.2e-11
    traj, _ = _default_run(*run, per_tau=40)
    assert np.max(np.abs(traj.norms - 1.0)) < 1e-9


@PROPERTY_SETTINGS
@given(pulse_runs(kinds=("j", "coupled"), decay=True))
def test_norm_never_rises_with_decay(run):
    traj, _ = _default_run(*run)
    assert np.all(np.diff(traj.norms) <= 1e-12)


@PROPERTY_SETTINGS
@given(pulse_runs())
def test_sample_times_are_the_grid_points(run):
    model, t0, t_end, sample_every = run
    traj, _ = _default_run(model, t0, t_end, sample_every)
    n_steps = round((t_end - t0) / traj.dt)
    ks = np.arange(0, n_steps + 1, sample_every)
    if ks[-1] != n_steps:
        ks = np.append(ks, n_steps)
    assert np.array_equal(traj.times, t0 + ks * traj.dt)  # bit for bit
    assert traj.dt == (t_end - t0) / n_steps


@st.composite
def runs_of_one_system(draw):
    """``[(model, state0, t0, t_end, dt, sample_every), ...]``: two to four
    runs of one system (the qubit, or hydrogen in either basis with or
    without decay), each a train of rectangles, gaussians or both, at the
    catalog's default step and every ``sample_every`` from 1 to 10."""
    kind = draw(st.sampled_from(("qubit", "j", "coupled")))
    if kind == "qubit":
        delta_e = draw(st.floats(0.5, 2.0))
    else:
        params = HydrogenParams.from_mhz(1057.0, 10956.0, draw(st.sampled_from((0.0, 626.0))))
        delta_e = params.delta_e
    runs = []
    for _ in range(draw(st.integers(2, 4))):
        shapes = draw(st.sampled_from((("gaussian",), ("rectangular",),
                                       ("gaussian", "rectangular"))))
        seq, t0, t_end = _train(draw, delta_e, kind != "qubit", shapes)
        model = (TwoStatePulseModel(seq) if kind == "qubit"
                 else HydrogenModel(params, seq, basis=kind))
        target = min(p.tau for p in seq.pulses) / 20.0
        dt = (t_end - t0) / math.ceil((t_end - t0) / target)
        y0 = np.zeros(model.dimension, dtype=complex)
        y0[0] = 1.0
        runs.append((model, y0, t0, t_end, dt, draw(st.integers(1, 10))))
    return runs


@settings(max_examples=60, deadline=None)
@given(runs_of_one_system(), st.sampled_from((64, 512, _BLOCK)))
def test_one_pass_gives_each_run_the_bytes_of_a_lone_call(runs, block):
    # windows of 64 links cut a gaussian train (240 links a pulse) into
    # several, and a window then holds the end of one run and the start of
    # the next; a mixed train keeps its own windows of each kind
    with mock.patch.object(integrator_module, "_BLOCK", block):
        prepared = [_Run(*run) for run in runs]
        shared = any(len({r for r, *_ in pieces}) > 1 for *_, pieces in _Links(prepared).windows)
        event(f"a window holds links of two runs: {shared}")
        together = _integrate(prepared)
        for run, traj in zip(runs, together, strict=True):
            alone = integrate(*run)
            for name in ("times", "states", "norms"):
                assert getattr(traj, name).tobytes() == getattr(alone, name).tobytes()
            assert (traj.dt, traj.rk4_steps) == (alone.dt, alone.rk4_steps)


# support ends on this dyadic lattice make exact centres and widths, so two
# pulses can share an end exactly
_LATTICE = 2.0 ** -7


@st.composite
def chain_layouts(draw):
    """``(model, t0, h, n_steps)`` of a random layout for :func:`_chain`.

    Each support end is a lattice point (on or off the grid; shared ends
    make touching and overlapping supports) or lies within a few 1e-9 h of
    a grid point.  Supports may reach past ``t0`` or ``t_end``, or lie
    wholly outside the span.  Some models have an ``h0`` at an exceptional
    point, which has no exact free propagator.
    """
    n_steps = draw(st.integers(1, 300))
    h = draw(st.one_of(st.sampled_from([2.0 ** -5, 2.0 ** -7]), st.floats(0.003, 0.05)))
    t0 = draw(st.integers(-64, 64)) * _LATTICE
    span = n_steps * h
    lattice = st.integers(math.floor((t0 - 0.3 * span) / _LATTICE) - 2,
                          math.ceil((t0 + 1.3 * span) / _LATTICE) + 2).map(
                              lambda m: m * _LATTICE)
    near_grid = st.tuples(st.integers(0, n_steps),
                          st.sampled_from([-2.0, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0])).map(
                              lambda kc: t0 + kc[0] * h + kc[1] * 1e-9 * h)
    end = st.one_of(lattice, near_grid)
    pulses = []
    for _ in range(draw(st.integers(1, 6))):
        lo, hi = sorted((draw(end), draw(end)))
        if lo == hi:
            hi += _LATTICE
        shape = draw(st.sampled_from(("gaussian", "rectangular")))
        tau = (hi - lo) / (12.0 if shape == "gaussian" else 1.0)
        pulses.append(PulseSpec(shape=shape, axis="x", alpha=0.3,
                                t_k=0.5 * (lo + hi), tau=tau))
    seq = KickSequence(pulses=tuple(pulses), delta_e=1.0)
    if draw(st.integers(0, 9)) == 7:
        model = LinearDriveModel(_EXCEPTIONAL_H0, SIGMA_X, SIGMA_Y, seq)
    else:
        model = TwoStatePulseModel(seq)
    return model, t0, h, n_steps


def _reference_chain(model, t0, h, n_steps):
    """The chain of :func:`_chain`, support by support: each merged support
    is the sorted union of the grid points strictly inside it, its ends and
    the off-grid ends inside it.  Without an exact free propagator the span
    is one more support."""
    grid = [t0 + k * h for k in range(n_steps + 1)]
    t_end = grid[-1]
    on_grid = set(grid)

    def moved(e):
        # onto a grid point within 1e-9 h, then into the span
        g = min(grid, key=lambda p: abs(p - e))
        return min(max(g if abs(e - g) <= 1e-9 * h else e, t0), t_end)

    spans = [(t0, t_end)] if model._free is None else []
    supports = sorted((moved(lo), moved(hi)) for lo, hi in
                      spans + [p.support() for p in model.seq.pulses])
    off = {e for s in supports for e in s if e not in on_grid}
    merged = []
    for lo, hi in supports:
        if lo >= hi:
            continue
        if merged and lo <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], hi)
        else:
            merged.append([lo, hi])
    starts, ends, dts, flights, at = [], [], [], [], t0
    for lo, hi in merged:
        if lo > at:
            flights.append((len(starts), at, lo))
        at = hi
        nodes = sorted({g for g in grid if lo < g < hi} | {lo, hi}
                       | {e for e in off if lo < e < hi})
        for a, b in zip(nodes, nodes[1:]):
            starts.append(a)
            ends.append(b)
            dts.append(h if a in on_grid and b in on_grid else b - a)
    if at < t_end:
        flights.append((len(starts), at, t_end))
    return starts, ends, dts, flights


@settings(max_examples=300, deadline=None)
@given(chain_layouts())
def test_chain_matches_the_reference_layout(layout):
    starts, ends, dts, _, flights = _chain(*layout)
    *expected, expected_flights = _reference_chain(*layout)
    for a, b in zip((starts, ends, dts), expected, strict=True):
        assert np.asarray(a, dtype=float).tobytes() == np.asarray(b, dtype=float).tobytes()
    assert flights == expected_flights


@settings(max_examples=300, deadline=None)
@given(chain_layouts())
def test_a_link_the_chain_does_not_flag_repeats_the_link_before_it(layout):
    # a link that starts no run follows the link before it without a free
    # flight between them, with its dt and its rectangle field at the
    # midpoint: its step matrix is that link's, bit for bit
    model = layout[0]
    starts, ends, dts, runs, _ = _chain(*layout)
    assert runs[:1].all()
    same = np.flatnonzero(~runs)
    assert np.array_equal(starts[same], ends[same - 1])
    assert np.array_equal(dts[same], dts[same - 1])
    rectangles = tuple(p for p in model.seq.pulses if p.shape == "rectangular")
    if rectangles:
        mid = starts + 0.5 * dts
        for v in field_at(KickSequence(pulses=rectangles, delta_e=1.0), mid):
            assert v[same].tobytes() == v[same - 1].tobytes()


# 0.0 and -0.0 are one key and must build one system
_ZEROS = (0.0, -0.0)
_HYDROGEN = {"delta_e_mhz": st.sampled_from((1057.0, 1000.0)),
             "e_fs_mhz": st.sampled_from((10956.0, 9000.0)),
             "gamma_mhz": st.sampled_from((*_ZEROS, 626.0)),
             "convention": st.sampled_from(("plain", "two_pi"))}


def _matrices(d: int):
    entry = st.sampled_from((*_ZEROS, 0.25, -0.5j, complex(0.0, -0.0)))
    return st.lists(entry, min_size=d * d, max_size=d * d).map(
        lambda m: np.array(m, dtype=complex).reshape(d, d))


def _model(kind: str, spec: dict, seq: KickSequence):
    if kind == "qubit":
        return TwoStatePulseModel(KickSequence(seq.pulses, spec["delta_e"]))
    if kind == "arrays":
        return LinearDriveModel(spec["h0"], spec["a_x"], spec["a_y"], seq)
    params = HydrogenParams.from_mhz(*(spec[k] for k in _HYDROGEN))
    if kind == "effective":
        return effective_two_state_model(params, seq)
    return HydrogenModel(params, seq, basis=spec["basis"])


@st.composite
def systems(draw):
    """``(kind, specs)``: random systems of one kind (the qubit, hydrogen,
    the effective two-state surrogate, raw 2x2 or 3x3 arrays), each but one
    a copy of the first with one field redrawn, in random order."""
    kind = draw(st.sampled_from(("qubit", "hydrogen", "effective", "arrays")))
    fields = {"qubit": {"delta_e": st.sampled_from((*_ZEROS, 0.5, 1, 1.0, -1.0))},
              "hydrogen": {**_HYDROGEN, "basis": st.sampled_from(("j", "coupled"))},
              "effective": _HYDROGEN}.get(kind)
    if fields is None:
        fields = dict.fromkeys(("h0", "a_x", "a_y"), _matrices(draw(st.sampled_from((2, 3)))))
    first = {name: draw(field) for name, field in fields.items()}
    specs = [first]
    for _ in range(draw(st.integers(1, 6))):
        name = draw(st.sampled_from(sorted(fields)))
        specs.append({**first, name: draw(fields[name])})
    return kind, draw(st.permutations(specs))


def _constants(model) -> list:
    """The bytes of every constant array of ``model``, None where it has none."""
    free = model._free or (None,)
    arrays = (model.h0, model.a_x, model.a_y, model._g0, model._gx, model._gy, *free)
    return [None if m is None else (m.shape, m.tobytes()) for m in arrays]


def _zero_pair(kind: str, **first) -> tuple:
    """Two systems of ``kind`` that differ only in the sign of a zero."""
    name = "delta_e" if kind == "qubit" else "gamma_mhz"
    return kind, [{**first, name: 0.0}, {**first, name: -0.0}]


@settings(max_examples=100, deadline=None)
@given(systems())
@example(_zero_pair("qubit"))
@example(_zero_pair("hydrogen", delta_e_mhz=1057.0, e_fs_mhz=10956.0, convention="plain",
                    basis="j"))
def test_cached_constants_equal_a_fresh_build(drawn):
    # the models are built in turn, sharing every system they meet; each
    # must hold what a build of its system alone holds
    kind, specs = drawn
    seq = KickSequence((PulseSpec("gaussian", "x", 0.3, 1.0, 0.1),), delta_e=1.0)
    _system.cache_clear()
    models = [_model(kind, spec, seq) for spec in specs]
    for spec, model in zip(specs, models):
        _system.cache_clear()
        assert _constants(model) == _constants(_model(kind, spec, seq))
