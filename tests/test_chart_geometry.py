"""Chart-level geometry of the round sphere: measure, heights, isometries."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate

from braidflow.chart_geometry import (
    INFINITY,
    PROBABILITY,
    ROUND_2PI,
    AtInfinityError,
    chart_distance,
    chart_to_sphere,
    disc_area,
    height_coordinate,
    measure_density,
    radius_from_height,
    rotate_chart,
    sample_uniform_complex,
    spherical_speed,
    sphere_to_chart,
)

finite_z = st.complex_numbers(max_magnitude=40.0, allow_nan=False,
                              allow_infinity=False)
radii = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


def test_disc_area_examples():
    assert disc_area(0.0) == 0.0
    # the unit circle is the equator, so it encloses half the sphere
    assert disc_area(1.0) == pytest.approx(0.5)
    assert disc_area(1e8) == pytest.approx(1.0)


def test_height_coordinate_examples():
    assert height_coordinate(0.0) == 1.0
    assert height_coordinate(1.0) == pytest.approx(0.0)
    assert radius_from_height(0.5) == pytest.approx(1.0 / math.sqrt(3.0))


@given(radii)
def test_height_round_trip(r):
    assert radius_from_height(height_coordinate(r)) == pytest.approx(r)


@given(radii)
def test_disc_area_matches_height(r):
    assert height_coordinate(r) == pytest.approx(1.0 - 2.0 * disc_area(r))


def test_radius_from_height_domain():
    with pytest.raises(ValueError):
        radius_from_height(-1.0)
    with pytest.raises(ValueError):
        radius_from_height(1.5)


@pytest.mark.parametrize("convention,mass", [(PROBABILITY, 1.0),
                                             (ROUND_2PI, 2.0 * math.pi)])
def test_total_mass(convention, mass):
    total, _ = integrate.quad(
        lambda r: measure_density(r, convention) * 2.0 * math.pi * r,
        0.0, np.inf)
    assert total == pytest.approx(mass, rel=1e-9)


def test_sampled_height_is_uniform():
    # u = height(|z|) must be uniform on [-1, 1]; chi-square over deciles
    rng = np.random.default_rng(2024)
    us = height_coordinate(np.abs(sample_uniform_complex(rng, 20000)))
    counts, _ = np.histogram(us, bins=10, range=(-1.0, 1.0))
    chi2 = float(((counts - 2000.0) ** 2 / 2000.0).sum())
    assert chi2 < 33.7  # chi^2(9) at 1e-4


@given(finite_z)
def test_sphere_round_trip(z):
    back = sphere_to_chart(chart_to_sphere(z))
    assert not back.at_infinity
    assert back.coord == pytest.approx(z, abs=1e-9)


def test_chart_to_sphere_unit_norm():
    for z in (0j, 1 + 0j, 3 - 4j):
        assert np.linalg.norm(chart_to_sphere(z)) == pytest.approx(1.0)
    assert np.linalg.norm(chart_to_sphere(INFINITY)) == pytest.approx(1.0)


def test_chart_distance_examples():
    assert chart_distance(0j, 0j) == 0.0
    assert chart_distance(0j, 1 + 0j) == pytest.approx(math.pi / 2)
    assert chart_distance(1 + 0j, -1 + 0j) == pytest.approx(math.pi)


def test_geodesic_midpoint_octant():
    # halfway from the chart origin to the equator: tan(pi/8) = sqrt(2) - 1
    mid = math.sqrt(2.0) - 1.0
    assert chart_distance(0j, mid) == pytest.approx(math.pi / 4)
    assert chart_distance(mid, 1 + 0j) == pytest.approx(math.pi / 4)


@given(finite_z, st.floats(0.0, 2.0 * math.pi))
def test_rotate_chart_is_isometry(z, phase):
    assert abs(rotate_chart(z, phase)) == pytest.approx(abs(z))
    w = 0.4 + 0.9j
    assert chart_distance(rotate_chart(z, phase),
                          rotate_chart(w, phase)) == pytest.approx(
        chart_distance(z, w), abs=1e-9)


def test_spherical_speed_decay():
    assert spherical_speed(0j, 1j) == pytest.approx(1.0)
    assert spherical_speed(1 + 0j, 2j) == pytest.approx(1.0)
    assert spherical_speed(3 + 0j, 1 + 0j) == pytest.approx(0.1)


def test_geodesic_speed_matches_distance():
    # a chart line through the origin is a meridian, a great circle, so its
    # round arc length is the distance between its ends (here below pi)
    x, y = 0.2 + 0.1j, -2.2 - 1.1j
    pts = x + (y - x) * np.linspace(0.0, 1.0, 4001)
    # distance on the unit sphere accumulates at twice the chart speed
    mids = 0.5 * (pts[:-1] + pts[1:])
    steps = 2.0 * np.abs(np.diff(pts)) / (1.0 + np.abs(mids) ** 2)
    assert steps.sum() == pytest.approx(chart_distance(x, y), rel=1e-6)


def test_infinity_guard():
    with pytest.raises(AtInfinityError):
        INFINITY.require_finite()
