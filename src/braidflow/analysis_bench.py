"""Deterministic quadrature benchmarks for the averaged invariants.

Three independent analytic routes live here: the closed-form growth rate of
the averaged signature invariant as a weighted moment of the twist profile
in the height coordinate, the singular-kernel integral whose uniform bound
controls the speed averages, and the small linear-algebra layer that turns a
family of profiles into coordinate functionals with bi-Lipschitz bounds.
All of it is quadrature and linear solves; the Monte Carlo path in
qm_estimator validates the moment formula once, then this fast path stands
on its own.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from .chart_geometry import TWO_PI, radius_from_height
from .flow_engine import (FlowSpec, QuadratureError, RadialProfile,
                          annulus_profile, arc_integral, knot_arcs, lp_length,
                          require_finite, single_flow)

GG_RELATIVE_TOL = 1e-10
SOLVE_RESIDUAL_TOL = 1e-10
_SINGULAR_DET_FLOOR = 1e-12


class PsiConvergenceError(RuntimeError):
    """Quadrature error estimate exceeded the requested tolerance."""

    def __init__(self, message: str, achieved: float):
        super().__init__(f"{message} (achieved relative error {achieved:.3e})")
        self.achieved = achieved


class SingularMatrixError(RuntimeError):
    """Profile family produced a rank-deficient moment matrix."""


@np.errstate(over="ignore", invalid="ignore")  # see require_finite
def gg_rhs(profile: RadialProfile, n: int) -> float:
    """Predicted growth rate of the 2n-point averaged invariant.

    Equals (n/2) times the integral over u in [-1, 1] of
    (u^(2n-1) - u) * omega(r(u)), the profile read at the chart radius r of
    height u.  With u = cos(theta), theta = 2 arctan r,
    each knot arc contributes the integral of (cos^(2n-1) - cos)(theta) times
    the trigonometric polynomial omega * sin(theta), by Gauss-Legendre with
    the gap to twice the order as error estimate (`arc_integral`); the
    constant head and tail are exact polynomials in u.
    """
    if n < 2:
        raise ValueError("need n >= 2 (at least 4 sampled points)")
    lo, hi, a, b = knot_arcs(profile.radii, profile.values)
    power = 2 * n - 1
    inner, err = arc_integral(
        lambda theta, h: (np.cos(theta) ** power - np.cos(theta)) * h,
        lo[1:-1], hi[1:-1], a[1:-1], b[1:-1])
    # antiderivative of u^(2n-1) - u at u = 1, the head end, the tail end, -1
    u = np.array([1.0, math.cos(hi[0]), math.cos(lo[-1]), -1.0])
    moment = u ** (2 * n) / (2 * n) - 0.5 * u * u
    value = inner + a[0] * (moment[0] - moment[1]) + a[-1] * (moment[2] - moment[3])
    if err > GG_RELATIVE_TOL * abs(value) + 1e-13:
        raise QuadratureError(
            f"gg_rhs error estimate {err:.3e} too large for value {value:.6e}")
    return require_finite(0.5 * n * float(value))


def psi0(a: complex, tol: float = 1e-6) -> float:
    """Integral of 1/|z - a| against the round density over the plane.

    Polar coordinates centered at a absorb the kernel singularity exactly,
    and the angular integral has the closed form
    2 pi (1 + |a|^2 + rho^2) / ((1 + (|a| - rho)^2)(1 + (|a| + rho)^2))^(3/2),
    leaving one adaptive radial quadrature.  The value only depends on |a|.
    """
    # scipy is imported here, its only use in the package, so that importing
    # braidflow does not load it
    from scipy import integrate

    if tol <= 0:
        raise ValueError("tol must be positive")
    aa = abs(complex(a))

    def radial(rho: float) -> float:
        return (TWO_PI * (1.0 + aa * aa + rho * rho)
                / ((1.0 + (aa - rho) ** 2) * (1.0 + (aa + rho) ** 2)) ** 1.5)

    # the radial integrand peaks near rho = |a|, sharply when |a| is large
    cuts = sorted({0.0, 0.5 * aa, aa, 2.0 * (aa + 1.0)}) + [np.inf]
    parts = [integrate.quad(radial, lo, hi, epsabs=1e-14, epsrel=tol / 4.0,
                            limit=200) for lo, hi in zip(cuts, cuts[1:])]
    total, err = (sum(x) for x in zip(*parts))
    if err > tol * abs(total):
        raise PsiConvergenceError("psi0 quadrature did not converge",
                                  err / abs(total))
    return total


def psi0_bound_scan(grid, tol: float = 1e-6):
    """Empirical sup of psi0(a) * sqrt(1 + |a|^2) over a grid of radii.

    The sup certifies the uniform kernel bound; doubling it covers the
    rescaled kernel with the (1 + |a|^2) prefactor, whose bound grows like
    sqrt(1 + |a|^2) instead of decaying.  Returns (sup, the first radius
    attaining it, the (a, psi0(a), ratio) row of every radius); psi0 is
    evaluated once per radius.
    """
    radii = [float(x) for x in grid]
    if not radii:
        raise ValueError("grid must be nonempty")
    rows = []
    for a in radii:
        value = psi0(a, tol)
        rows.append((a, value, value * math.sqrt(1.0 + a * a)))
    best = max(rows, key=lambda row: row[2])
    return best[2], best[0], rows


@dataclass(frozen=True)
class EmbeddingReport:
    """Moment matrix of a profile family and the bounds it certifies."""

    dimension: int
    matrix: tuple[tuple[float, ...], ...]
    det: float
    row_normalized_det: float
    condition_number: float
    coefficients: tuple[tuple[float, ...], ...]
    solve_residual: float
    p: float | None = None
    lengths: tuple[float, ...] = ()
    a_hat: float | None = None
    bounds: tuple[tuple[tuple[float, ...], float, float], ...] = ()
    ratio_max: float | None = None
    ratio_min: float | None = None


def default_embedding_profiles(d: int, height: float = 1.0,
                               ramp: float = 0.01):
    """d unit-height annuli on disjoint height intervals, away from the poles.

    Annulus k covers u in [-1 + 2k/(d+1), -1 + (2k+1)/(d+1)] for k = 1..d,
    so supports are separated by gaps of width 1/(d+1) in u and the far
    chart region near u = -1 is never touched.
    """
    if d < 1:
        raise ValueError("need at least one profile")
    out = []
    for k in range(1, d + 1):
        u_lo = -1.0 + 2.0 * k / (d + 1)
        u_hi = -1.0 + (2.0 * k + 1.0) / (d + 1)
        r_in = radius_from_height(u_hi)
        r_out = radius_from_height(u_lo)
        out.append(annulus_profile(height, r_in, r_out, ramp))
    return tuple(out)


def sign_matrix(profiles) -> EmbeddingReport:
    """Moment matrix M[n-1][i] = gg_rhs(profiles[i], n+1) and its inverse.

    Row n-1 collects the predicted growth rates of the (2n+2)-point
    invariant across the family; the inverse rows are the coefficient
    vectors that make each combined functional pick out one profile's
    duration and ignore the others.
    """
    profiles = tuple(profiles)
    d = len(profiles)
    if d < 1:
        raise ValueError("need at least one profile")
    FlowSpec(tuple((prof, 1.0) for prof in profiles))  # rejects overlaps
    m = np.array([[gg_rhs(prof, n + 1) for prof in profiles]
                  for n in range(1, d + 1)])
    with np.errstate(over="ignore"):  # an infinite norm zeroes its row
        norms = np.linalg.norm(m, axis=1)
    require_finite(float(np.max(norms)))
    det = float(np.linalg.det(m))
    if np.any(norms == 0.0):
        raise SingularMatrixError(
            "a moment row vanishes; choose profiles with nonzero rates")
    det_norm = float(np.linalg.det(m / norms[:, None]))
    if abs(det_norm) < _SINGULAR_DET_FLOOR:
        raise SingularMatrixError(
            "moment matrix is singular to tolerance; choose profiles with "
            "better separated supports")
    coeff = np.linalg.solve(m.T, np.eye(d)).T
    residual = float(np.max(np.abs(coeff @ m - np.eye(d))))
    if residual > SOLVE_RESIDUAL_TOL:
        raise SingularMatrixError(
            f"coefficient solve residual {residual:.3e} too large")
    return EmbeddingReport(
        dimension=d,
        matrix=tuple(tuple(float(x) for x in row) for row in m),
        det=det,
        row_normalized_det=det_norm,
        condition_number=float(np.linalg.cond(m)),
        coefficients=tuple(tuple(float(x) for x in row) for row in coeff),
        solve_residual=residual,
    )


def component_lengths(profiles, p: float) -> tuple[float, ...]:
    """Path length of each unit-weight, unit-duration component flow.

    SingularMatrixError if one is 0 (a rate so small that its p-th power
    underflows): the lower bound divides by the shortest.
    """
    lengths = tuple(lp_length(single_flow(prof), p) for prof in profiles)
    if 0.0 in lengths:
        raise SingularMatrixError("a component flow has zero length")
    return lengths


def embedding_bounds(profiles, v, p: float, lengths=None,
                     a_hat: float | None = None) -> tuple[float, float]:
    """Metric bounds for the composite flow with per-component durations v.

    Upper: triangle inequality, sum of |v_i| times the component length.
    Lower: the i-th coordinate functional evaluates to v_i on the composite
    and changes by at most a_hat per unit of path length, so the metric is
    at least max |v_i| / a_hat.  The default a_hat is measured on the family
    itself (the functional value t against length t * L_i gives 1/L_i).
    """
    profiles = tuple(profiles)
    v = [float(x) for x in v]
    if len(v) != len(profiles):
        raise ValueError("v must have one entry per profile")
    if lengths is None:
        lengths = component_lengths(profiles, p)
    if a_hat is None:
        a_hat = 1.0 / min(lengths)
    upper = sum(abs(vi) * li for vi, li in zip(v, lengths))
    lower = max(abs(vi) for vi in v) / a_hat
    return lower, upper


def evaluate_embedding(profiles, vs, p: float) -> EmbeddingReport:
    """Full report: moment matrix plus bounds over a batch of vectors."""
    profiles = tuple(profiles)
    report = sign_matrix(profiles)
    lengths = component_lengths(profiles, p)
    a_hat = 1.0 / min(lengths)
    rows = []
    ratios = []
    for v in vs:
        lower, upper = embedding_bounds(profiles, v, p, lengths, a_hat)
        # at d = 1 the bounds are equal, up to rounding
        if lower > upper * (1.0 + 1e-12):
            raise AssertionError("lower bound exceeded upper bound")
        rows.append((tuple(float(x) for x in v), lower, upper))
        if lower > 0.0:
            ratios.append(upper / lower)
    return replace(
        report, p=float(p), lengths=lengths, a_hat=a_hat, bounds=tuple(rows),
        ratio_max=max(ratios) if ratios else None,
        ratio_min=min(ratios) if ratios else None)
