"""Radial twist flows: profiles, composition, and path lengths."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidflow.chart_geometry import ChartPoint
from braidflow.flow_engine import (
    FlowSpec,
    RadialProfile,
    annulus_profile,
    compose_specs,
    constant_profile,
    lp_length,
    power,
    profile_from_json,
    profile_to_json,
    single_flow,
    step_profile,
    trajectory,
    velocity,
)

RIGID_L2 = 2.0 * math.pi * math.sqrt(math.pi / 3.0)


def flow_at(spec, t, z):
    """The time-t image of the chart coordinate z, read off its trajectory."""
    return complex(trajectory(spec, [z], [t])[0, 0])


def knot_strategy():
    return st.lists(
        st.tuples(st.floats(0.01, 5.0), st.floats(-3.0, 3.0)),
        min_size=1, max_size=6,
    ).map(lambda ks: tuple(sorted((round(r, 6), w) for r, w in ks))).filter(
        lambda ks: len({r for r, _ in ks}) == len(ks))


def test_rigid_rotation_l2_closed_form():
    spec = single_flow(constant_profile(1.0))
    assert lp_length(spec, 2.0) == pytest.approx(RIGID_L2, rel=1e-9)


def test_rigid_rotation_lp_closed_form_up_to_high_p():
    # speed pi sin(theta) against pi sin(theta) dtheta: the p-th power
    # integrates to pi^(p + 3/2) Gamma(p/2 + 1) / Gamma(p/2 + 3/2)
    spec = single_flow(constant_profile(1.0))
    for p in (1.0, 3.0, 7.3, 60.0):
        log_total = ((p + 1.5) * math.log(math.pi) + math.lgamma(p / 2 + 1)
                     - math.lgamma(p / 2 + 1.5))
        assert lp_length(spec, p) == pytest.approx(math.exp(log_total / p),
                                                   rel=1e-9)


def test_lp_length_linear_in_duration_and_weight():
    prof = step_profile(1.0, 0.7)
    base = lp_length(single_flow(prof), 3.0)
    assert lp_length(single_flow(prof, duration=2.5), 3.0) == pytest.approx(
        2.5 * base, rel=1e-8)
    assert lp_length(single_flow(prof, weight=-4.0), 3.0) == pytest.approx(
        4.0 * base, rel=1e-8)


def test_lp_length_sup_norm():
    # rigid rotation speed 2*pi*r/(1+r^2) peaks at r=1 with value pi
    spec = single_flow(constant_profile(1.0), duration=2.0)
    assert lp_length(spec, math.inf) == pytest.approx(2.0 * math.pi, rel=1e-6)


def test_lp_length_rejects_bad_exponent():
    for spec in (single_flow(constant_profile(1.0)), FlowSpec(tuple(), 1.0)):
        with pytest.raises(ValueError):
            lp_length(spec, 0.5)


def test_lp_length_empty_spec_is_zero():
    assert lp_length(FlowSpec(tuple(), 1.0), 2.0) == 0.0


def test_full_turn_is_identity_inside_plateau():
    spec = single_flow(step_profile(1.0, 0.6))
    z = 0.2 + 0.3j
    assert flow_at(spec, 1.0, z) == pytest.approx(z, abs=1e-12)


def test_trajectory_is_a_one_parameter_group():
    # flowing s, then t from where it arrived, is flowing s + t; each point
    # of a tuple moves on its own, one column per point and one row per time
    spec = single_flow(step_profile(0.7, 0.9), duration=2.0)
    zs = np.array([0.4 - 0.2j, 0.95 + 0.1j, -1.3j])
    ts = np.linspace(0.0, 2.0, 7)
    path = trajectory(spec, zs, ts)
    assert path.shape == (7, 3)
    assert np.array_equal(path[0], zs)
    for k, z in enumerate(zs):
        assert np.array_equal(path[:, k], trajectory(spec, [z], ts)[:, 0])
    for s, row in zip(ts, path):
        for t in ts:
            assert trajectory(spec, row, [t])[0] == pytest.approx(
                trajectory(spec, zs, [s + t])[0])
        assert np.abs(row) == pytest.approx(np.abs(zs))


def test_velocity_is_tangent_rotation():
    spec = single_flow(constant_profile(0.5))
    z = ChartPoint(1.0 + 1.0j)
    v = velocity(spec, 0.0, z)
    assert v == pytest.approx(2j * math.pi * 0.5 * (1.0 + 1.0j))


def test_flow_preserves_area():
    # the chart map is (r, phi) -> (r, phi + theta(r)): Jacobian 1
    spec = single_flow(step_profile(1.3, 0.8, ramp=0.2), duration=0.7)
    h = 1e-6
    for z0 in (0.3 + 0.1j, 0.75 + 0.0j, 0.2 - 0.85j):
        f = lambda z: flow_at(spec, 0.7, z)
        dx = (f(z0 + h) - f(z0 - h)) / (2.0 * h)
        dy = (f(z0 + 1j * h) - f(z0 - 1j * h)) / (2.0 * h)
        jac = dx.real * dy.imag - dx.imag * dy.real
        assert jac == pytest.approx(1.0, abs=1e-5)


def test_disjoint_components_commute():
    inner = step_profile(1.0, 0.4)
    outer = annulus_profile(-0.8, 1.0, 2.0)
    ab = compose_specs(single_flow(inner, 2.0), single_flow(outer, 3.0))
    ba = compose_specs(single_flow(outer, 3.0), single_flow(inner, 2.0))
    for z in (0.2 + 0.1j, 1.5 + 0.0j, 3.0 - 1.0j):
        za = flow_at(ab, ab.duration, z)
        zb = flow_at(ba, ba.duration, z)
        assert za == pytest.approx(zb)


def test_compose_merges_equal_profiles():
    prof = step_profile(1.0, 0.5)
    both = compose_specs(single_flow(prof, 2.0), single_flow(prof, 3.0))
    assert both.n_components == 1
    assert both.angular_rate(0.2) == pytest.approx(5.0)


def test_overlapping_supports_rejected():
    a = step_profile(1.0, 0.8)
    b = annulus_profile(1.0, 0.5, 1.5)
    with pytest.raises(ValueError):
        FlowSpec(((a, 1.0), (b, 1.0)), 1.0)


def test_power_matches_repeated_flow():
    spec = single_flow(step_profile(0.9, 0.7), duration=1.5)
    z = 0.3 + 0.2j
    three = flow_at(power(spec, 3), power(spec, 3).duration, z)
    direct = z
    for _ in range(3):
        direct = flow_at(spec, spec.duration, direct)
    assert three == pytest.approx(direct)
    inverse = power(spec, -1)
    back = flow_at(inverse, inverse.duration, flow_at(spec, spec.duration, z))
    assert back == pytest.approx(z)
    assert power(spec, 0).components == tuple()


@given(knot_strategy())
@settings(max_examples=60)
def test_profile_json_round_trip_exact(knots):
    prof = RadialProfile(knots)
    again = profile_from_json(profile_to_json(prof))
    assert again.knots == prof.knots


def test_named_profile_json_round_trip():
    for prof in (step_profile(1.0, 0.5), annulus_profile(0.7, 1.0, 2.0),
                 constant_profile(-2.0)):
        again = profile_from_json(profile_to_json(prof))
        assert again.knots == prof.knots
        assert profile_to_json(again) == profile_to_json(prof)


def test_profile_support_and_tail():
    step = step_profile(1.0, 0.5)
    assert step.support_bounds() == (0.0, 0.51)
    assert not constant_profile(1.0).has_compact_support
    assert constant_profile(1.0).support_bounds()[1] == math.inf
    assert annulus_profile(1.0, 1.0, 2.0).support_bounds() == (1.0, 2.0)


def test_breakpoints_are_merged_sorted():
    spec = FlowSpec(((step_profile(1.0, 0.3), 1.0),
                     (annulus_profile(1.0, 1.0, 2.0), 1.0)), 1.0)
    pts = spec.breakpoint_radii()
    assert pts == sorted(pts)
    assert {0.3, 1.0, 2.0} <= set(pts)


def test_duration_must_be_positive():
    with pytest.raises(ValueError):
        FlowSpec(((constant_profile(1.0), 1.0),), 0.0)
    with pytest.raises(ValueError):
        FlowSpec(((constant_profile(1.0), 1.0),), math.nan)
