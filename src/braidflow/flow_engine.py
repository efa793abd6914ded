"""Radially symmetric Hamiltonian-type flows in the chart.

A flow is generated by a piecewise-linear angular-speed profile w(r): every
point rotates about the origin at angular rate 2*pi*w(|z|) turns per unit
time.  Such maps preserve the round area measure, fix the origin and the
infinity point, and commute whenever their profiles have disjoint supports.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field

import numpy as np

from .chart_geometry import ChartPoint


class QuadratureError(RuntimeError):
    """A quadrature error estimate exceeded the requested tolerance."""


@dataclass(frozen=True)
class RadialProfile:
    """Piecewise-linear angular speed profile on [0, infinity).

    Knot radii are strictly increasing; the value is held constant below the
    first knot and beyond the last one.  A zero final value gives compact
    support; a nonzero one models a rigid tail (constant rotation far out).
    """

    knots: tuple[tuple[float, float], ...]
    json_form: dict | None = field(default=None, compare=False, repr=False)

    def __post_init__(self):
        if not self.knots:
            raise ValueError("profile needs at least one knot")
        if not all(math.isfinite(x) for knot in self.knots for x in knot):
            raise ValueError("knot radii and values must be finite")
        radii = [r for r, _ in self.knots]
        if any(r < 0 for r in radii):
            raise ValueError("knot radii must be nonnegative")
        if any(b <= a for a, b in zip(radii, radii[1:])):
            raise ValueError("knot radii must be strictly increasing")

    @property
    def radii(self) -> np.ndarray:
        return np.array([r for r, _ in self.knots])

    @property
    def values(self) -> np.ndarray:
        return np.array([w for _, w in self.knots])

    @property
    def tail_value(self) -> float:
        return self.knots[-1][1]

    @property
    def has_compact_support(self) -> bool:
        return self.tail_value == 0.0

    def omega(self, r):
        """Angular speed (turns per unit time) at chart radius r."""
        out = np.interp(np.asarray(r, dtype=float), self.radii, self.values)
        return float(out) if np.isscalar(r) else out

    def support_bounds(self) -> tuple[float, float]:
        """Closure of {r : omega(r) != 0} as an interval (lo, hi); hi may be inf."""
        rs, ws = self.radii, self.values
        if np.all(ws == 0.0):
            return (0.0, 0.0)
        nz = np.nonzero(ws != 0.0)[0]
        first, last = nz[0], nz[-1]
        lo = 0.0 if first == 0 else rs[first - 1]
        hi = math.inf if last == len(ws) - 1 else rs[last + 1]
        return (float(lo), float(hi))

    def breakpoint_radii(self) -> list[float]:
        return [float(r) for r, _ in self.knots]


def step_profile(height: float, r0: float, ramp: float = 0.01) -> RadialProfile:
    """Constant angular speed inside radius r0, linear ramp to zero at r0+ramp."""
    if ramp <= 0:
        raise ValueError("ramp width must be positive")
    form = {"type": "step", "lambda": height, "r0": r0, "ramp": ramp}
    return RadialProfile(((r0, height), (r0 + ramp, 0.0)), json_form=form)


def annulus_profile(height: float, r_in: float, r_out: float,
                    ramp: float = 0.01) -> RadialProfile:
    """Angular speed supported on the annulus r_in <= |z| <= r_out."""
    if not (0 <= r_in and r_in + ramp < r_out - ramp):
        raise ValueError("annulus too thin for the requested ramp")
    form = {"type": "annulus", "height": height, "r_in": r_in,
            "r_out": r_out, "ramp": ramp}
    return RadialProfile(((r_in, 0.0), (r_in + ramp, height),
                          (r_out - ramp, height), (r_out, 0.0)),
                         json_form=form)


def constant_profile(value: float) -> RadialProfile:
    """Rigid rotation at a constant rate; support is the whole plane."""
    return RadialProfile(((0.0, value),),
                         json_form={"type": "constant", "value": value})


def profile_to_json(profile: RadialProfile) -> dict:
    if profile.json_form is not None:
        return dict(profile.json_form)
    return {"knots": [[r, w] for r, w in profile.knots]}


def profile_from_json(data: dict | str) -> RadialProfile:
    if isinstance(data, str):
        data = json.loads(data)
    if "knots" in data:
        knots = tuple((float(r), float(w)) for r, w in data["knots"])
        return RadialProfile(knots, json_form={"knots": [[r, w] for r, w in knots]})
    if data.get("type") == "step":
        return step_profile(float(data["lambda"]), float(data["r0"]),
                            float(data.get("ramp", 0.01)))
    if data.get("type") == "annulus":
        return annulus_profile(float(data["height"]), float(data["r_in"]),
                               float(data["r_out"]),
                               float(data.get("ramp", 0.01)))
    if data.get("type") == "constant":
        return constant_profile(float(data["value"]))
    raise ValueError(f"unrecognised profile description: {data!r}")


def _intervals_disjoint(a: tuple[float, float], b: tuple[float, float]) -> bool:
    return a[1] <= b[0] or b[1] <= a[0]


@dataclass(frozen=True)
class FlowSpec:
    """Weighted combination of radial profiles flowed for a fixed duration.

    With several components the supports must be pairwise disjoint so the
    component flows commute and the combination is unambiguous.
    """

    components: tuple[tuple[RadialProfile, float], ...]
    duration: float = 1.0

    def __post_init__(self):
        if not self.duration > 0:  # refuses nan too
            raise ValueError("duration must be positive")
        sup = [p.support_bounds() for p, w in self.components if w != 0.0]
        for i in range(len(sup)):
            for j in range(i + 1, len(sup)):
                if not _intervals_disjoint(sup[i], sup[j]):
                    raise ValueError("component supports overlap")

    @property
    def n_components(self) -> int:
        return len(self.components)

    def angular_rate(self, r):
        """Combined angular speed in turns per unit time at radius r."""
        rr = np.asarray(r, dtype=float)
        total = np.zeros_like(rr)
        for profile, weight in self.components:
            if weight != 0.0:
                total = total + weight * profile.omega(rr)
        return float(total) if np.isscalar(r) else total

    def breakpoint_radii(self) -> list[float]:
        out: set[float] = set()
        for profile, _ in self.components:
            out.update(profile.breakpoint_radii())
        return sorted(out)


def single_flow(profile: RadialProfile, duration: float = 1.0,
                weight: float = 1.0) -> FlowSpec:
    return FlowSpec(((profile, weight),), duration)


def velocity(spec: FlowSpec, t: float, z: ChartPoint) -> complex:
    """Chart velocity of the flow at time t through point z (autonomous)."""
    zz = z.require_finite()
    return 2j * math.pi * spec.angular_rate(abs(zz)) * zz


def trajectory(spec: FlowSpec, zs, times) -> np.ndarray:
    """Exact flow of the chart coordinates zs, one row per time."""
    zs = np.asarray(zs, dtype=complex)
    rates = spec.angular_rate(np.abs(zs))
    ts = np.asarray(times, dtype=float)
    return zs[None, :] * np.exp(2j * math.pi * rates[None, :] * ts[:, None])


def power(spec: FlowSpec, k: int) -> FlowSpec:
    """Flow whose endpoint map is the k-th power of spec's endpoint map."""
    if k == 0:
        return FlowSpec(tuple(), spec.duration)
    sign = 1.0 if k > 0 else -1.0
    comps = tuple((p, sign * w) for p, w in spec.components)
    return FlowSpec(comps, abs(k) * spec.duration)


def compose_specs(a: FlowSpec, b: FlowSpec) -> FlowSpec:
    """Composite of two commuting flows as a single unit-duration spec.

    Components are merged with effective weights weight*duration.  Equal
    profiles add up; distinct profiles must have disjoint supports.
    """
    merged: list[tuple[RadialProfile, float]] = []
    for spec in (a, b):
        for profile, weight in spec.components:
            eff = weight * spec.duration
            for idx, (q, wq) in enumerate(merged):
                if q.knots == profile.knots:
                    merged[idx] = (q, wq + eff)
                    break
            else:
                merged.append((profile, eff))
    merged = [(p, w) for p, w in merged if w != 0.0]
    return FlowSpec(tuple(merged), 1.0)


# nodes of the 32- and 64-point Gauss-Legendre rules on [0, 1], each with its
# weight pair (weight in the 32-point rule, weight in the 64-point rule)
_NODES = []
for _k, _m in enumerate((32, 64)):
    _x, _w = np.polynomial.legendre.leggauss(_m)
    _NODES += zip(0.5 * (_x + 1.0), np.outer(0.5 * _w, np.eye(2)[_k]))


def knot_arcs(radii, values):
    """Pieces of a piecewise-linear rate as arcs of the polar angle.

    With theta = 2 arctan r, u = cos(theta) is the height coordinate, the
    round measure 4 pi r (1 + r^2)^-2 dr is pi sin(theta) dtheta, and where
    the rate is a + b r, rate * sin(theta) = a sin(theta) + b (1 - cos(theta))
    is a trigonometric polynomial.  Returns arrays (lo, hi, a, b): the first
    arc is the constant head from theta = 0, the last the constant tail to
    theta = pi, and knot intervals are cut where the rate changes sign.
    """
    rs, ws = np.asarray(radii, dtype=float), np.asarray(values, dtype=float)
    i = np.nonzero(np.sign(ws[:-1]) * np.sign(ws[1:]) < 0.0)[0]
    cuts = np.union1d(rs, rs[i] + (rs[i + 1] - rs[i]) * ws[i] / (ws[i] - ws[i + 1]))
    rs, ws = cuts, np.interp(cuts, rs, ws)
    b = np.diff(ws) / np.diff(rs)
    theta = 2.0 * np.arctan(rs)
    return (np.concatenate(([0.0], theta)), np.concatenate((theta, [math.pi])),
            np.concatenate(([ws[0]], ws[:-1] - b * rs[:-1], [ws[-1]])),
            np.concatenate(([0.0], b, [0.0])))


def arc_integral(f, lo, hi, a, b) -> tuple[float, float]:
    """Sum over arcs of the integral of f(theta, h) dtheta, h = rate * sin(theta).

    Arcs are cut to at most pi/16 and integrated by both rules above, node
    by node over all arcs at once.  Returns the 64-node value and its gap
    to the 32-node value as the error estimate.
    """
    pieces = np.ceil((hi - lo) * 16.0 / math.pi).astype(int)
    idx = np.repeat(np.arange(len(lo)), pieces)
    width = ((hi - lo) / np.maximum(pieces, 1))[idx]
    start = lo[idx] + width * (np.arange(len(idx))
                               - np.repeat(np.cumsum(pieces) - pieces, pieces))
    a, b = a[idx], b[idx]
    est = np.zeros(2)
    for node, weight in _NODES:
        theta = start + width * node
        h = a * np.sin(theta) + b * (1.0 - np.cos(theta))
        est += weight * float(np.dot(width, f(theta, h)))
    return float(est[1]), float(abs(est[1] - est[0]))


@np.errstate(over="ignore", invalid="ignore")  # see require_finite
def lp_length(spec: FlowSpec, p: float, rel_tol: float = 1e-8) -> float:
    """Length of the flow path in the L^p metric on area-preserving maps.

    The field is autonomous, so the length is duration * (integral of the
    pointwise speed to the p-th power against the round measure of total
    mass 2*pi) ** (1/p).  p = inf gives duration * (sup of the speed).  The
    speed is pi |h| on the arcs of `knot_arcs`, and (pi |h|)^p pi sin(theta)
    goes to `arc_integral`; QuadratureError if its estimate exceeds rel_tol
    or the length overflows.
    """
    if not p >= 1:
        raise ValueError("p must be >= 1 or inf")
    if not spec.components:
        return 0.0
    radii = np.array(spec.breakpoint_radii())
    arcs = knot_arcs(radii, spec.angular_rate(radii))
    if p == math.inf:
        return require_finite(spec.duration * _sup_speed(*arcs))
    total, err = arc_integral(
        lambda theta, h: (math.pi * np.abs(h)) ** p * math.pi * np.sin(theta),
        *arcs)
    # a gap below the smallest normal float is underflow, not error
    if err > rel_tol * total + np.finfo(float).tiny:
        raise QuadratureError(
            f"speed integral error {err:.3e} too large for value {total:.6e}")
    return require_finite(spec.duration * total ** (1.0 / p))


def require_finite(value: float) -> float:
    """value, or QuadratureError where huge rates overflowed to inf or nan."""
    if not math.isfinite(value):
        raise QuadratureError(f"quadrature value {value} is not finite")
    return value


def _sup_speed(lo, hi, a, b) -> float:
    """Exact sup of the speed pi |a sin(theta) + b (1 - cos(theta))| on arcs.

    On each arc it is attained at an end or where a cos(theta) + b sin(theta)
    vanishes, i.e. at the root of -a r^2 + 2 b r + a (r = 1 on the constant
    head and tail).
    """
    crit = np.clip(np.mod(np.arctan2(-a, b), math.pi), lo, hi)
    theta = np.stack((lo, hi, crit))
    return float(np.max(math.pi * np.abs(
        a * np.sin(theta) + b * (1.0 - np.cos(theta)))))
