"""Round geometry of the sphere in a single affine chart.

The sphere is modelled as the complex plane plus a point at infinity.  All
metric quantities are expressed through the conformal factor 1/(1+|z|^2),
and the area form through its square.  Radial quantities come in two
equivalent parametrisations: the chart radius r and the height-like
coordinate u = (1-r^2)/(1+r^2), which runs from +1 at the origin down to
-1 at infinity and is uniformly distributed under the round probability
measure.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi


class AtInfinityError(ValueError):
    """Operation asked to evaluate a chart quantity at the infinity point."""


@dataclass(frozen=True)
class ChartPoint:
    """Point of the sphere: a chart coordinate or the infinity point."""

    coord: complex = 0j
    at_infinity: bool = False

    def require_finite(self) -> complex:
        if self.at_infinity:
            raise AtInfinityError("point is at infinity")
        return complex(self.coord)


INFINITY = ChartPoint(0j, at_infinity=True)


@dataclass(frozen=True)
class MeasureConvention:
    """Total mass assigned to the sphere by the area measure."""

    total_mass: float = 1.0


PROBABILITY = MeasureConvention(1.0)
ROUND_2PI = MeasureConvention(TWO_PI)


def spherical_speed(z: ChartPoint | complex, v: complex) -> float:
    """Norm of the tangent vector v at z in the round metric."""
    zz = z.require_finite() if isinstance(z, ChartPoint) else complex(z)
    return abs(v) / (1.0 + abs(zz) ** 2)


def measure_density(z: ChartPoint | complex,
                    convention: MeasureConvention = PROBABILITY) -> float:
    """Density of the round area measure against Lebesgue measure at z.

    Normalised so the plane carries convention.total_mass in total.
    """
    zz = z.require_finite() if isinstance(z, ChartPoint) else complex(z)
    return (convention.total_mass / math.pi) * (1.0 + abs(zz) ** 2) ** -2


def disc_area(r: float) -> float:
    """Fraction of the sphere's area inside chart radius r (in [0, 1))."""
    if r < 0:
        raise ValueError("radius must be nonnegative")
    rr = r * r
    return rr / (1.0 + rr)


def height_coordinate(r):
    """u = 1 - 2*disc_area(r); monotone decreasing from +1 ar r=0 to -1."""
    rr = np.asarray(r, dtype=float) ** 2
    out = (1.0 - rr) / (1.0 + rr)
    return float(out) if np.isscalar(r) else out


def radius_from_height(u):
    """Inverse of height_coordinate on (-1, 1]."""
    uu = np.asarray(u, dtype=float)
    if np.any(uu <= -1.0) or np.any(uu > 1.0):
        raise ValueError("height coordinate must lie in (-1, 1]")
    out = np.sqrt((1.0 - uu) / (1.0 + uu))
    return float(out) if np.isscalar(u) else out


def sample_uniform_complex(rng: np.random.Generator, size: int) -> np.ndarray:
    # disc_area(|z|) is uniform on [0, 1); invert it on a uniform draw.
    a = rng.random(size)
    r = np.sqrt(a / (1.0 - a))
    theta = rng.random(size) * TWO_PI
    return r * np.exp(1j * theta)


def chart_to_sphere(z: ChartPoint | complex) -> np.ndarray:
    """Embed a chart point on the unit sphere in R^3 (infinity -> north pole)."""
    if isinstance(z, ChartPoint) and z.at_infinity:
        return np.array([0.0, 0.0, 1.0])
    zz = complex(z.coord if isinstance(z, ChartPoint) else z)
    d = 1.0 + abs(zz) ** 2
    return np.array([2.0 * zz.real / d, 2.0 * zz.imag / d,
                     (abs(zz) ** 2 - 1.0) / d])


def sphere_to_chart(p: np.ndarray) -> ChartPoint:
    x, y, zc = float(p[0]), float(p[1]), float(p[2])
    denom = 1.0 - zc
    if denom <= 1e-14:
        return INFINITY
    return ChartPoint(complex(x / denom, y / denom))


def chart_distance(x: ChartPoint | complex, y: ChartPoint | complex) -> float:
    """Round (great-circle) distance between two points, in radians."""
    px = chart_to_sphere(x if isinstance(x, ChartPoint) else ChartPoint(complex(x)))
    py = chart_to_sphere(y if isinstance(y, ChartPoint) else ChartPoint(complex(y)))
    return math.acos(float(np.clip(np.dot(px, py), -1.0, 1.0)))


def rotate_chart(z: complex, phase: float) -> complex:
    """Rotation about the 0-infinity axis, a round isometry."""
    return z * cmath.exp(1j * phase)
