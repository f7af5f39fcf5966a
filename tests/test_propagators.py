"""Tests for the closed-form kick propagators.

Frozen spot matrices were computed independently (series exponentials and
scipy expm sandwiches) before the closed forms were written; the random-draw
loops then pin the closed forms to explicit matrix products.
"""
from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm

from kickedqubit import (
    XY_ORDERS,
    KickSequence,
    PulseSpec,
    SIGMA_X,
    SIGMA_Z,
    compose,
    free_phase,
    kick_interaction,
    kick_schrodinger,
    kick_width_error,
    multi_kick,
    opposite_kick_pair,
    ordering_observable,
    periodic_kick_power,
    rectangular_exact,
    three_kick_closed,
    time_reversal_check,
    two_kick_closed,
    two_kick_xy,
    unitarity_defect,
    untimeordered_opposite_pair,
)
from kickedqubit.propagators import _kick

# rectangular_exact(alpha=0.52, beta=0.31, t_k=0.9, delta_e=2.0) against an
# expm sandwich exp(+iH0(t_k+tau/2)) exp(-iH tau) exp(-iH0(t_k-tau/2))
RECT_SPOT = np.array([
    [0.8719803096912226 + 0.02667450745960764j,
     -0.4760300406301863 + 0.11105949117572098j],
    [0.4760300406301863 + 0.11105949117572098j,
     0.8719803096912226 - 0.02667450745960764j],
])

# two_kick_closed(0.41, -0.77, 0.6, 2.1, 1.3)
TWO_KICK_SPOT = np.array([
    [0.5556908259815825 - 0.25777331515756163j,
     0.05416582580998869 - 0.7885598818269345j],
    [-0.05416582580998869 - 0.7885598818269345j,
     0.5556908259815825 + 0.25777331515756163j],
])

# untimeordered_opposite_pair(alpha=0.37, t1=0.8, t2=2.0, delta_e=1.1)
UNORDERED_SPOT = np.array([
    [0.8988287340110537, 0.01349589711003949 - 0.4380921908426146j],
    [-0.01349589711003949 - 0.4380921908426146j, 0.8988287340110537],
])


def _ideal_sequence(kicks, delta_e):
    return KickSequence(pulses=tuple(
        PulseSpec(shape="ideal", axis=axis, alpha=alpha, t_k=t_k)
        for alpha, t_k, axis in kicks), delta_e=delta_e)


# ---------------------------------------------------------------- free phase

def test_free_phase_literal_entries():
    u = free_phase(1.3, 0.7)
    ph = np.exp(-0.5j * 1.3 * 0.7)
    assert u[0, 0] == pytest.approx(ph)
    assert u[1, 1] == pytest.approx(np.conj(ph))
    assert u[0, 1] == 0.0 and u[1, 0] == 0.0


def test_free_phase_group_properties():
    assert np.allclose(free_phase(1.3, 0.4) @ free_phase(1.3, 0.8),
                       free_phase(1.3, 1.2))
    assert np.allclose(free_phase(1.3, 0.4) @ free_phase(1.3, -0.4), np.eye(2))
    # one full period 2*pi/delta_e returns to minus the identity (spin-half)
    assert np.allclose(free_phase(1.0, 2 * np.pi), -np.eye(2))


# --------------------------------------------------------------- single kick

def test_kick_interaction_literal_matrix():
    alpha, t_k, de = 0.3, 1.1, 1.7
    c, s = math.cos(alpha), math.sin(alpha)
    ph = np.exp(1j * de * t_k)
    u = kick_interaction(alpha, t_k, "x", de)
    expected = np.array([[c, -1j * s / ph], [-1j * s * ph, c]])
    assert np.max(np.abs(u - expected)) < 1e-15
    uy = kick_interaction(alpha, t_k, "y", de)
    expected_y = np.array([[c, -s / ph], [s * ph, c]])
    assert np.max(np.abs(uy - expected_y)) < 1e-15


def test_kick_interaction_is_a_rotation_about_an_equatorial_axis():
    rng = np.random.default_rng(31)
    for _ in range(100):
        alpha = rng.uniform(-2, 2)
        t_k = rng.uniform(0, 8)
        de = rng.uniform(0.3, 3)
        u = kick_interaction(alpha, t_k, "x", de)
        # exp(-i alpha n.sigma) with n = (cos dE t_k, sin dE t_k, 0)
        n = np.array([math.cos(de * t_k), math.sin(de * t_k), 0.0])
        h = alpha * (n[0] * SIGMA_X + n[1] * np.array([[0, -1j], [1j, 0]]))
        assert np.max(np.abs(u - expm(-1j * h))) < 1e-13
        assert unitarity_defect(u) < 1e-15


def test_kick_at_time_zero_is_axis_independent_of_delta_e():
    u = kick_interaction(0.4, 0.0, "x", 57.0)
    assert np.allclose(u, expm(-0.4j * SIGMA_X))


def test_kick_rejects_unknown_axis():
    with pytest.raises(ValueError, match="axis"):
        kick_interaction(0.3, 0.0, "q", 1.0)


def test_kick_schrodinger_dressing():
    alpha, t_k, t, de = 0.37, 0.9, 2.4, 1.3
    expected = free_phase(de, -t) @ kick_interaction(alpha, t_k, "x", de)
    assert np.allclose(kick_schrodinger(alpha, t_k, t, de), expected)
    with pytest.raises(ValueError, match="precedes"):
        kick_schrodinger(alpha, 2.0, 1.0, de)


def test_single_kick_transfer_probability():
    # P2 after one kick from state 1 is sin^2(alpha), for any kick time
    rng = np.random.default_rng(32)
    for _ in range(50):
        alpha = rng.uniform(-1.5, 1.5)
        u = kick_interaction(alpha, rng.uniform(0, 9), "x", rng.uniform(0.2, 4))
        assert abs(u[1, 0]) ** 2 == pytest.approx(math.sin(alpha) ** 2, abs=1e-14)


# ---------------------------------------------------------- rectangular pulse

def test_rectangular_exact_frozen_spot():
    u = rectangular_exact(0.52, 0.31, 0.9, 2.0)
    assert np.max(np.abs(u - RECT_SPOT)) < 1e-15


def test_rectangular_exact_matches_expm_sandwich():
    rng = np.random.default_rng(33)
    for _ in range(60):
        alpha = rng.uniform(-1.5, 1.5)
        de = rng.uniform(0.3, 3)
        tau = 10 ** rng.uniform(-3, 0)
        t_k = rng.uniform(0.5, 6)
        beta = 0.5 * tau * de
        h0 = -0.5 * de * SIGMA_Z
        h = h0 + (alpha / tau) * SIGMA_X
        sandwich = (expm(1j * h0 * (t_k + 0.5 * tau)) @ expm(-1j * h * tau)
                    @ expm(-1j * h0 * (t_k - 0.5 * tau)))
        u = rectangular_exact(alpha, beta, t_k, de)
        assert np.max(np.abs(u - sandwich)) < 1e-12
        assert unitarity_defect(u) < 1e-14


def test_rectangular_exact_recovers_the_kick_at_zero_width():
    u = rectangular_exact(0.6, 0.0, 1.2, 1.7)
    assert np.max(np.abs(u - kick_interaction(0.6, 1.2, "x", 1.7))) < 1e-15


def test_width_error_matrix_form():
    err = kick_width_error(0.8, 0.01)
    f = math.sin(0.8) / 0.8 - math.cos(0.8)
    assert np.allclose(err, 1j * 0.01 * f * SIGMA_Z)


def test_width_error_is_the_first_order_term():
    # U_rect - U_kick - width_error must shrink one order faster in beta
    alpha, t_k, de = 0.8, 1.5, 1.0
    kick = kick_interaction(alpha, t_k, "x", de)

    def remainder(beta):
        full = rectangular_exact(alpha, beta, t_k, de) - kick
        # the correction enters the interaction picture dressed by the kick
        # phases; compare against the raw difference instead of guessing the
        # dressing: first-order magnitude must match kick_width_error's
        return np.max(np.abs(full)), np.max(np.abs(kick_width_error(alpha, beta)))

    d1, c1 = remainder(1e-3)
    d2, c2 = remainder(5e-4)
    # first-order scaling of the difference itself
    assert d1 / d2 == pytest.approx(2.0, rel=2e-3)
    # magnitude agrees with the printed coefficient at leading order
    assert d1 == pytest.approx(c1, rel=1e-3)
    assert d2 == pytest.approx(c2, rel=1e-3)


def test_width_error_series_branch_is_continuous():
    # across the small-alpha switch the coefficient must agree
    lo = kick_width_error(9.9e-5, 1.0)
    hi = kick_width_error(1.01e-4, 1.0)
    f_lo = abs(lo[0, 0].imag)
    f_hi = abs(hi[0, 0].imag)
    assert f_hi / f_lo == pytest.approx((1.01 / 0.99) ** 2, rel=1e-4)


# -------------------------------------------------------------- kick products

def test_multi_kick_equals_explicit_product():
    rng = np.random.default_rng(34)
    for _ in range(100):
        n = rng.integers(1, 6)
        times = np.sort(rng.uniform(0, 10, size=n))
        while np.any(np.diff(times) <= 1e-6):
            times = np.sort(rng.uniform(0, 10, size=n))
        kicks = [(rng.uniform(-1.5, 1.5), t, "x" if rng.random() < 0.5 else "y")
                 for t in times]
        de = rng.uniform(0.3, 3)
        seq = _ideal_sequence(kicks, de)
        product = compose([kick_interaction(a, t, ax, de) for a, t, ax in kicks])
        assert np.max(np.abs(multi_kick(seq) - product)) < 1e-13


def test_multi_kick_rejects_finite_width_and_bad_order():
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.0, tau=0.1),),
        delta_e=1.0)
    with pytest.raises(ValueError, match="ideal"):
        multi_kick(seq)
    bad = _ideal_sequence([(0.1, 2.0, "x"), (0.1, 1.0, "x")], 1.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        multi_kick(bad)


def test_two_kick_closed_frozen_spot():
    u = two_kick_closed(0.41, -0.77, 0.6, 2.1, 1.3)
    assert np.max(np.abs(u - TWO_KICK_SPOT)) < 1e-15


def test_two_kick_closed_equals_product():
    rng = np.random.default_rng(35)
    for _ in range(1000):
        a1, a2 = rng.uniform(-2, 2, size=2)
        t1 = rng.uniform(0, 5)
        t2 = t1 + rng.uniform(0.01, 5)
        de = rng.uniform(0.2, 4)
        product = compose([kick_interaction(a1, t1, "x", de),
                           kick_interaction(a2, t2, "x", de)])
        assert np.max(np.abs(two_kick_closed(a1, a2, t1, t2, de) - product)) < 1e-12


def test_two_kick_closed_requires_increasing_times():
    with pytest.raises(ValueError, match="t1 < t2"):
        two_kick_closed(0.1, 0.2, 2.0, 1.0, 1.0)


def test_two_kick_xy_equals_product_and_p2():
    rng = np.random.default_rng(36)
    for _ in range(1000):
        a1, a2 = rng.uniform(-2, 2, size=2)
        t1 = rng.uniform(0, 5)
        t2 = t1 + rng.uniform(0.01, 5)
        de = rng.uniform(0.2, 4)
        order = XY_ORDERS[rng.integers(0, 2)]
        first_axis, second_axis = ("y", "x") if order == "YthenX" else ("x", "y")
        product = compose([kick_interaction(a1, t1, first_axis, de),
                           kick_interaction(a2, t2, second_axis, de)])
        u, p2 = two_kick_xy(a1, a2, t1, t2, de, order)
        assert np.max(np.abs(u - product)) < 1e-12
        assert abs(u[1, 0]) ** 2 == pytest.approx(p2, abs=1e-12)


def test_two_kick_xy_frozen_transfer_values():
    # 0.1 pi and 0.15 pi kicks a quarter free period apart
    t1, t2, de = 1.0, 1.0 + math.pi / 2, 1.0
    _, p2_yx = two_kick_xy(0.15 * math.pi, 0.1 * math.pi, t1, t2, de, "YthenX")
    _, p2_xy = two_kick_xy(0.1 * math.pi, 0.15 * math.pi, t1, t2, de, "XthenY")
    assert p2_yx == pytest.approx(0.4999999999999999, abs=1e-13)
    assert p2_xy == pytest.approx(0.024471741852423214, abs=1e-13)
    diff = p2_yx - p2_xy
    formula = (math.sin(0.2 * math.pi) * math.sin(0.3 * math.pi)
               * math.sin(de * (t2 - t1)))
    assert diff == pytest.approx(formula, abs=1e-13)


def test_two_kick_xy_rejects_bad_order_token():
    with pytest.raises(ValueError, match="order"):
        two_kick_xy(0.1, 0.2, 0.0, 1.0, 1.0, "both")


@pytest.mark.parametrize("t1, t2", [(1.0, 1.0), (2.0, 1.0)])
def test_two_kick_xy_requires_increasing_times(t1, t2):
    with pytest.raises(ValueError, match="t1 < t2"):
        two_kick_xy(0.1, 0.2, t1, t2, 1.0, "YthenX")


# --------------------------------------------------- opposite pair / ordering

def test_opposite_pair_equals_product():
    rng = np.random.default_rng(37)
    for _ in range(1000):
        alpha = rng.uniform(-2, 2)
        t1 = rng.uniform(0, 5)
        t2 = t1 + rng.uniform(0.01, 5)
        de = rng.uniform(0.2, 4)
        product = compose([kick_interaction(alpha, t1, "x", de),
                           kick_interaction(-alpha, t2, "x", de)])
        assert np.max(np.abs(opposite_kick_pair(alpha, t1, t2, de) - product)) < 1e-12


def test_opposite_pair_collapses_at_equal_times():
    u = opposite_kick_pair(0.8, 1.3, 1.3, 2.1)
    assert np.max(np.abs(u - np.eye(2))) < 1e-15


def test_untimeordered_frozen_spot():
    u = untimeordered_opposite_pair(0.37, 0.8, 2.0, 1.1)
    assert np.max(np.abs(u - UNORDERED_SPOT)) < 1e-15


def test_untimeordered_agrees_with_ordered_to_alpha_squared():
    t1, t2, de = 0.4, 1.9, 1.0
    devs = []
    for alpha in (0.1, 0.01, 0.001):
        d = np.max(np.abs(opposite_kick_pair(alpha, t1, t2, de)
                          - untimeordered_opposite_pair(alpha, t1, t2, de)))
        devs.append(d / alpha ** 2)
    # deviation / alpha^2 approaches a constant (~0.97 for these times)
    assert devs[1] == pytest.approx(devs[2], rel=1e-2)
    assert 0.5 < devs[2] < 1.5


def test_untimeordered_rotation_angle():
    alpha, t1, t2, de = 0.7, 0.3, 2.0, 1.4
    u = untimeordered_opposite_pair(alpha, t1, t2, de)
    phi = 2 * alpha * math.sin(0.5 * de * (t2 - t1))
    assert u[0, 0] == pytest.approx(math.cos(phi))
    assert abs(u[1, 0]) == pytest.approx(abs(math.sin(phi)))
    assert unitarity_defect(u) < 1e-15


def test_three_kick_closed_equals_multi_kick():
    rng = np.random.default_rng(38)
    for _ in range(1000):
        a = rng.uniform(-2, 2, size=3)
        t = np.sort(rng.uniform(0, 8, size=3))
        while np.any(np.diff(t) <= 1e-3):
            t = np.sort(rng.uniform(0, 8, size=3))
        de = rng.uniform(0.2, 4)
        seq = _ideal_sequence([(a[0], t[0], "x"), (a[1], t[1], "x"),
                               (a[2], t[2], "x")], de)
        u = three_kick_closed(a[0], a[1], a[2], t[0], t[1], t[2], de)
        assert np.max(np.abs(u - multi_kick(seq))) < 1e-12


def test_three_kick_closed_requires_ordered_times():
    with pytest.raises(ValueError, match="t1 < t2 < t3"):
        three_kick_closed(0.1, 0.1, 0.1, 1.0, 3.0, 2.0, 1.0)


def test_three_kick_entries_away_from_poles():
    # expanded form of the product, written out independently: fold the
    # first two kicks with the two-kick closed form, then apply the third
    rng = np.random.default_rng(39)
    for _ in range(200):
        a = rng.uniform(0.2, 1.3, size=3)  # away from sin/cos zeros
        t = np.cumsum(rng.uniform(0.3, 2.0, size=3))
        de = rng.uniform(0.5, 2)
        folded = kick_interaction(a[2], t[2], "x", de) @ two_kick_closed(
            a[0], a[1], t[0], t[1], de)
        u = three_kick_closed(a[0], a[1], a[2], t[0], t[1], t[2], de)
        assert np.max(np.abs(u - folded)) < 1e-13


# ------------------------------------------------------- reduced observables

def test_ordering_observable_values():
    obs = ordering_observable(alpha=0.4, t_minus=1.2, delta_e=1.0)
    eps = math.sin(0.6)
    assert obs.epsilon == pytest.approx(eps)
    assert obs.phi == pytest.approx(0.8)
    assert obs.p2 == pytest.approx((eps * math.sin(0.8)) ** 2)
    assert obs.p2_no_ordering == pytest.approx(math.sin(eps * 0.8) ** 2)


def test_ordering_observable_matches_the_matrices():
    rng = np.random.default_rng(40)
    for _ in range(100):
        alpha = rng.uniform(-1.5, 1.5)
        t1 = rng.uniform(0, 4)
        t2 = t1 + rng.uniform(0.01, 6)
        de = rng.uniform(0.2, 3)
        obs = ordering_observable(alpha, t2 - t1, de)
        u = opposite_kick_pair(alpha, t1, t2, de)
        u0 = untimeordered_opposite_pair(alpha, t1, t2, de)
        assert abs(u[1, 0]) ** 2 == pytest.approx(obs.p2, abs=1e-12)
        assert abs(u0[1, 0]) ** 2 == pytest.approx(obs.p2_no_ordering, abs=1e-12)


def test_ordered_transfer_never_beats_unordered_on_the_strip():
    # epsilon in [0, 1], phi in [0, pi]: (eps sin phi)^2 <= sin^2(eps phi)
    eps = np.linspace(0, 1, 101)
    phi = np.linspace(0, np.pi, 101)
    eg, pg = np.meshgrid(eps, phi)
    diff = (eg * np.sin(pg)) ** 2 - np.sin(eg * pg) ** 2
    assert diff.max() <= 1e-15


# ------------------------------------------------------------------ reversal

def test_reversal_report_for_the_ordered_pair():
    params = {"alpha": 0.6, "t1": 0.7, "t2": 2.1, "delta_e": 1.1}
    report = time_reversal_check(opposite_kick_pair, params)
    assert report.time_reversal_invariant
    assert report.time_reversal_max_deviation < 1e-12
    assert report.ordering_reversal_moduli_preserved
    assert not report.ordering_reversal_entrywise_invariant
    assert report.ordering_reversal_max_entry_deviation > 1e-3


def test_reversal_report_for_the_unordered_pair():
    params = {"alpha": 0.6, "t1": 0.7, "t2": 2.1, "delta_e": 1.1}
    report = time_reversal_check(untimeordered_opposite_pair, params)
    assert report.time_reversal_invariant
    assert report.ordering_reversal_entrywise_invariant
    assert report.ordering_reversal_moduli_preserved


def test_motion_reversal_identity_is_exact():
    # conj(U(-a, -t2, -t1)) is the inverse of U(a, t1, t2) for both builders
    rng = np.random.default_rng(41)
    for builder in (opposite_kick_pair, untimeordered_opposite_pair):
        for _ in range(200):
            alpha = rng.uniform(-2, 2)
            t1 = rng.uniform(-3, 3)
            t2 = t1 + rng.uniform(0.01, 4)
            de = rng.uniform(0.2, 3)
            u = builder(alpha, t1, t2, de)
            u_rev = builder(-alpha, -t2, -t1, de)
            assert np.max(np.abs(np.conj(u_rev) - u.conj().T)) < 1e-13


def test_ordering_reversal_conjugates_u11_and_keeps_u21():
    alpha, t1, t2, de = 0.6, 0.7, 2.1, 1.1
    u = opposite_kick_pair(alpha, t1, t2, de)
    swapped = opposite_kick_pair(-alpha, t2, t1, de)
    assert swapped[0, 0] == pytest.approx(np.conj(u[0, 0]), abs=1e-14)
    assert swapped[1, 0] == pytest.approx(u[1, 0], abs=1e-14)


# ------------------------------------------------------------ periodic train

def test_periodic_single_kick_reduces_to_one_kick():
    u = periodic_kick_power(0.37, 1.9, 1, 1.2)
    assert np.max(np.abs(u - kick_interaction(0.37, 0.0, "x", 1.2))) < 1e-14


def test_periodic_two_kicks_match_the_explicit_pair():
    alpha, period, de = 0.37, 1.9, 1.2
    u = periodic_kick_power(alpha, period, 2, de)
    explicit = compose([kick_interaction(alpha, 0.0, "x", de),
                        kick_interaction(alpha, period, "x", de)])
    assert np.max(np.abs(u - explicit)) < 1e-13


def test_periodic_large_power_stays_unitary():
    u = periodic_kick_power(0.41, 0.77, 10_000, 1.3)
    assert unitarity_defect(u) < 1e-10


def test_periodic_pi_half_kicks_close_a_cycle():
    # alpha = pi/2 kicks spaced half a free period apart: four kicks = identity
    de = 1.0
    u = periodic_kick_power(math.pi / 2, math.pi / de, 4, de)
    assert np.max(np.abs(u - np.eye(2))) < 1e-13


def test_periodic_kick_power_validation():
    with pytest.raises(ValueError, match="positive integer"):
        periodic_kick_power(0.3, 1.0, 0, 1.0)
    with pytest.raises(ValueError, match="period"):
        periodic_kick_power(0.3, -1.0, 2, 1.0)


@st.composite
def kick_trains(draw, min_size=1, max_size=4):
    """``(alphas, times, axes, delta_e)`` of ideal kicks at increasing times."""
    n = draw(st.integers(min_size, max_size))
    alphas = draw(st.lists(st.floats(-3.2, 3.2), min_size=n, max_size=n))
    axes = draw(st.lists(st.sampled_from(("x", "y")), min_size=n, max_size=n))
    t = draw(st.floats(-5.0, 5.0))
    times = [t]
    for gap in draw(st.lists(st.floats(0.01, 3.0), min_size=n - 1, max_size=n - 1)):
        times.append(times[-1] + gap)
    return alphas, times, axes, draw(st.floats(0.1, 3.0))


def _kick_product(alphas, times, axes, delta_e) -> np.ndarray:
    return compose([kick_interaction(a, t, ax, delta_e)
                    for a, t, ax in zip(alphas, times, axes)])


@settings(max_examples=200, deadline=None)
@given(kick_trains())
def test_every_kick_product_is_the_composed_kicks(train):
    # multi_kick, two_kick_xy and three_kick_closed multiply the same single
    # kicks as compose does; they may round differently, by an ulp or so
    alphas, times, axes, delta_e = train
    seq = KickSequence(pulses=tuple(PulseSpec("ideal", ax, a, t)
                                    for a, t, ax in zip(alphas, times, axes)),
                       delta_e=delta_e)
    assert np.max(np.abs(multi_kick(seq) - _kick_product(*train))) <= 1e-15
    if len(alphas) == 1:  # one kick is the kick itself, bit for bit
        assert multi_kick(seq).tobytes() == kick_interaction(
            alphas[0], times[0], axes[0], delta_e).tobytes()
    if len(alphas) >= 2:
        (a1, a2), (t1, t2) = alphas[:2], times[:2]
        for order, pair in (("YthenX", ("y", "x")), ("XthenY", ("x", "y"))):
            u, _ = two_kick_xy(a1, a2, t1, t2, delta_e, order)
            reference = _kick_product([a1, a2], [t1, t2], pair, delta_e)
            assert np.max(np.abs(u - reference)) <= 1e-15
    if len(alphas) >= 3:
        u = three_kick_closed(*alphas[:3], *times[:3], delta_e)
        reference = _kick_product(alphas[:3], times[:3], ("x",) * 3, delta_e)
        assert np.max(np.abs(u - reference)) <= 1e-15


@settings(max_examples=100, deadline=None)
@given(st.floats(-10.0, 10.0), st.floats(-100.0, 100.0), st.sampled_from(("x", "y")),
       st.floats(0.0, 10.0))
def test_kick_interaction_is_its_entry_tuple(alpha, t_k, axis, delta_e):
    entries = np.array(_kick(alpha, t_k, axis, delta_e)).reshape(2, 2)
    assert kick_interaction(alpha, t_k, axis, delta_e).tobytes() == entries.tobytes()
