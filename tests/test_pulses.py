"""Tests for pulse profiles, areas, and sequence validation."""
from __future__ import annotations

import warnings

import numpy as np
import pytest
from scipy.integrate import simpson

from kickedqubit import (
    KickSequence,
    PulseSpec,
    beta_angle,
    field_at,
    pulse_area,
    validate_sequence,
)


def _quadrature_area(pulse, n=200_001):
    lo, hi = pulse.support()
    ts = np.linspace(lo, hi, n)
    return simpson(pulse.value(ts), x=ts)


def test_gaussian_area_matches_quadrature():
    rng = np.random.default_rng(21)
    for _ in range(8):
        p = PulseSpec(shape="gaussian", axis="x",
                      alpha=rng.uniform(-2, 2), t_k=rng.uniform(0, 5),
                      tau=10 ** rng.uniform(-3, 0))
        assert abs(_quadrature_area(p) - pulse_area(p)) < 1e-8 * max(1, abs(p.alpha))


def test_rectangular_area_matches_quadrature():
    p = PulseSpec(shape="rectangular", axis="x", alpha=0.7, t_k=2.0, tau=0.3)
    # trapezoid on the closed support; the half-open right edge contributes
    # one endpoint of measure zero
    lo, hi = p.support()
    ts = np.linspace(lo, hi - 1e-12, 100_001)
    v = p.value(ts)
    area = np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(ts))  # np.trapezoid needs numpy 2
    assert abs(area - 0.7) < 1e-6


def test_area_is_width_invariant():
    for tau in (0.001, 0.01, 0.1, 1.0):
        g = PulseSpec(shape="gaussian", axis="x", alpha=0.5, t_k=0.0, tau=tau)
        assert abs(_quadrature_area(g) - 0.5) < 1e-8


def test_gaussian_truncation_support():
    p = PulseSpec(shape="gaussian", axis="x", alpha=1.0, t_k=0.0, tau=0.1)
    assert p.support() == (-0.8, 0.8)
    assert p.value(0.81) == 0.0
    assert p.value(-0.81) == 0.0
    assert p.value(0.79) > 0.0
    # peak value of the normalized profile
    assert p.value(0.0) == pytest.approx(1.0 / (np.sqrt(np.pi) * 0.1))


def test_rectangular_edges_are_half_open():
    p = PulseSpec(shape="rectangular", axis="x", alpha=0.6, t_k=1.0, tau=0.2)
    assert p.value(0.9) == pytest.approx(3.0)     # left edge included
    assert p.value(1.1) == 0.0                    # right edge excluded
    assert p.value(1.0) == pytest.approx(3.0)
    assert p.support() == (0.9, 1.1)


def test_ideal_kick_carries_no_field():
    p = PulseSpec(shape="ideal", axis="x", alpha=0.4, t_k=1.0)
    assert p.value(1.0) == 0.0
    assert p.support() == (1.0, 1.0)
    assert pulse_area(p) == 0.4


def test_beta_angle():
    p = PulseSpec(shape="rectangular", axis="x", alpha=0.5, t_k=0.0, tau=0.3)
    assert beta_angle(p, 2.0) == pytest.approx(0.3)
    ideal = PulseSpec(shape="ideal", axis="y", alpha=0.5, t_k=0.0)
    assert beta_angle(ideal, 2.0) == 0.0


def test_pulse_validation():
    with pytest.raises(ValueError, match="shape"):
        PulseSpec(shape="triangle", axis="x", alpha=1.0, t_k=0.0, tau=0.1)
    with pytest.raises(ValueError, match="axis"):
        PulseSpec(shape="gaussian", axis="z", alpha=1.0, t_k=0.0, tau=0.1)
    with pytest.raises(ValueError, match="tau == 0"):
        PulseSpec(shape="ideal", axis="x", alpha=1.0, t_k=0.0, tau=0.1)
    with pytest.raises(ValueError, match="tau > 0"):
        PulseSpec(shape="gaussian", axis="x", alpha=1.0, t_k=0.0, tau=0.0)
    with pytest.raises(ValueError, match="tau > 0"):
        PulseSpec(shape="rectangular", axis="x", alpha=1.0, t_k=0.0, tau=-0.5)


def test_sequence_needs_a_pulse():
    with pytest.raises(ValueError, match="at least one pulse"):
        KickSequence(pulses=(), delta_e=1.0)


@pytest.mark.parametrize("bad", [float("nan"), float("inf"), -float("inf")])
@pytest.mark.parametrize("field", ["alpha", "t_k", "tau"])
@pytest.mark.parametrize("shape", ["gaussian", "rectangular"])
def test_pulse_rejects_non_finite_numbers(shape, field, bad):
    kwargs = {"alpha": 0.3, "t_k": 1.0, "tau": 0.05, field: bad}
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        PulseSpec(shape=shape, axis="x", **kwargs)


@pytest.mark.parametrize("bad", [float("nan"), float("inf")])
def test_ideal_kick_and_sequence_reject_non_finite_numbers(bad):
    for field in ("alpha", "t_k"):
        kwargs = {"alpha": 0.3, "t_k": 1.0, field: bad}
        with pytest.raises(ValueError, match=f"^{field} must be finite"):
            PulseSpec(shape="ideal", axis="y", **kwargs)
    pulse = PulseSpec(shape="gaussian", axis="x", alpha=0.3, t_k=1.0, tau=0.05)
    with pytest.raises(ValueError, match="^delta_e must be finite"):
        KickSequence(pulses=(pulse,), delta_e=bad)


def test_field_at_splits_axes():
    seq = KickSequence(pulses=(
        PulseSpec(shape="rectangular", axis="x", alpha=0.2, t_k=1.0, tau=1.0),
        PulseSpec(shape="rectangular", axis="y", alpha=0.3, t_k=1.5, tau=1.0),
    ), delta_e=1.0)
    vx, vy = field_at(seq, 1.2)  # inside both supports
    assert vx == pytest.approx(0.2)
    assert vy == pytest.approx(0.3)
    assert field_at(seq, 10.0) == (0.0, 0.0)


def test_validate_flags_non_increasing_centers():
    seq = KickSequence(pulses=(
        PulseSpec(shape="ideal", axis="x", alpha=0.1, t_k=2.0),
        PulseSpec(shape="ideal", axis="x", alpha=0.1, t_k=1.0),
    ), delta_e=1.0)
    with pytest.raises(ValueError, match="strictly increasing; pulse 1 at t=1.0"):
        validate_sequence(seq)


def test_validate_raises_before_it_warns():
    # the first pair overlaps and the second is out of order: the error
    # comes first, and no warning is emitted on the way
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.0, tau=0.2),
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.5, tau=0.2),
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.2, tau=0.2),
    ), delta_e=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        with pytest.raises(ValueError, match="pulse 2 at t=1.2 does not follow t=1.5"):
            validate_sequence(seq)
    assert caught == []


def test_validate_warns_on_overlap():
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.0, tau=0.2),
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.5, tau=0.2),
    ), delta_e=1.0)
    with pytest.warns(UserWarning, match="pulses 0 and 1 overlap") as caught:
        assert validate_sequence(seq) is None  # warnings alone never raise
    assert len(caught) == 1


def test_validate_warns_on_rectangles_only_where_their_supports_overlap():
    # a rectangle reaches tau/2, its support: supports 0.4 apart, or
    # touching, do not warn; supports that share 0.1 do
    def rectangles(gap, tau=0.1):
        return KickSequence(pulses=(
            PulseSpec(shape="rectangular", axis="x", alpha=0.1, t_k=1.0, tau=tau),
            PulseSpec(shape="rectangular", axis="x", alpha=0.1, t_k=1.0 + gap, tau=tau),
        ), delta_e=0.1)  # beta <= 0.025: no width warning

    for seq in (rectangles(0.5), rectangles(0.5, tau=0.5)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            validate_sequence(seq)
        assert caught == []
    with pytest.warns(UserWarning, match="pulses 0 and 1 overlap: center gap 0.4 < 0.5"):
        validate_sequence(rectangles(0.4, tau=0.5))


def test_validate_warns_on_wide_pulse():
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.0, tau=0.5),
    ), delta_e=1.0)
    with pytest.warns(UserWarning, match="beta = 0.25 > 0.1"):
        validate_sequence(seq)


def test_validate_passes_a_clean_sequence():
    seq = KickSequence(pulses=(
        PulseSpec(shape="gaussian", axis="x", alpha=0.1, t_k=1.0, tau=0.01),
        PulseSpec(shape="gaussian", axis="y", alpha=0.2, t_k=3.0, tau=0.01),
    ), delta_e=1.0)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        validate_sequence(seq)
    assert caught == []
