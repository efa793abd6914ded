"""Quadrature benchmarks: moment integrals, kernel bounds, embedding matrix."""

import json
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from scipy import integrate

from braidflow.analysis_bench import (
    EmbeddingReport,
    PsiConvergenceError,
    SingularMatrixError,
    component_lengths,
    default_embedding_profiles,
    embedding_bounds,
    evaluate_embedding,
    gg_rhs,
    psi0,
    psi0_bound_scan,
    sign_matrix,
)
from braidflow.chart_geometry import height_coordinate, radius_from_height
from braidflow.flow_engine import (
    FlowSpec,
    RadialProfile,
    annulus_profile,
    constant_profile,
    lp_length,
    single_flow,
    step_profile,
)

from oracles import (
    gg_rhs_adaptive,
    gg_step_value,
    lp_length_adaptive,
    psi0_nested,
    psi0_radial,
)
from test_flow_engine import knot_strategy

R0 = radius_from_height(0.5)
GOLDEN = Path(__file__).with_name("analysis_golden.json")


def linear_height_profile(n_knots):
    us = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, n_knots)
    return RadialProfile(tuple((radius_from_height(float(u)), float(u))
                               for u in us[::-1]))


def test_gg_of_sharp_step_matches_closed_form():
    prof = step_profile(1.0, R0, ramp=1e-9)
    want = gg_step_value(0.5, 1.0, 2)
    assert gg_rhs(prof, 2) == pytest.approx(want, rel=1e-8)
    assert want == pytest.approx(-9.0 / 64.0, rel=1e-6)


def test_gg_of_constant_profile_is_zero():
    # exact: the rigid-rotation null compares the quadrature value with 0.0
    assert gg_rhs(constant_profile(3.7), 2) == 0.0
    assert gg_rhs(constant_profile(3.7), 5) == 0.0


def test_gg_of_linear_height_profile():
    # omega(u) = u, n = 2: (2/2) * int u^4 - u^2 du = 2/5 - 2/3 = -4/15
    prof = linear_height_profile(2001)
    assert gg_rhs(prof, 2) == pytest.approx(-4.0 / 15.0, abs=2e-5)


def test_lp_length_of_linear_height_profile_on_2001_knots():
    # speed pi |u| sqrt(1 - u^2): sup pi/2, L2 norm sqrt(4 pi^3 / 15); the
    # knots' interpolation error is below 5e-7
    spec = single_flow(linear_height_profile(2001))
    assert lp_length(spec, 2.0) == pytest.approx(
        math.sqrt(4.0 * math.pi ** 3 / 15.0), rel=1e-6)
    assert lp_length(spec, math.inf) == pytest.approx(math.pi / 2.0, rel=1e-7)


def test_analysis_layer_matches_golden_pins():
    """gg_rhs and lp_length against values pinned from the adaptive routes.

    The pins omit lp_length(p=inf) on the 2001-knot profile: the grid search
    behind it undershot the exact sup by 5e-9 relative (checked against the
    closed form above instead), and p = 2, 2.5 raised there.
    """
    golden = json.loads(GOLDEN.read_text(encoding="utf-8"))
    step = step_profile(1.0, R0, ramp=0.01)
    annulus = annulus_profile(-0.7, 0.9, 1.5)
    profiles = {"step": step, "annulus": annulus,
                "linear2001": linear_height_profile(2001)}
    for k, prof in enumerate(default_embedding_profiles(4)):
        profiles[f"embedding{k}"] = prof
    specs = {name: single_flow(prof) for name, prof in profiles.items()}
    specs["step+annulus"] = FlowSpec(((step, 1.0), (annulus, 1.0)), 1.0)
    for key, want in golden["gg_rhs"].items():
        name, n = key.split("/n=")
        assert gg_rhs(profiles[name], int(n)) == pytest.approx(want, rel=1e-10)
    for key, want in golden["lp_length"].items():
        name, p = key.split("/p=")
        assert lp_length(specs[name], float(p)) == pytest.approx(
            want, rel=1e-10), key


@given(knot_strategy())
@settings(max_examples=40, deadline=None)
def test_arc_quadrature_matches_adaptive_oracles(knots):
    prof = RadialProfile(knots)
    for n in (2, 3, 4, 5):
        assert gg_rhs(prof, n) == pytest.approx(
            gg_rhs_adaptive(prof, n), rel=1e-9, abs=1e-12)
    spec = single_flow(prof)
    for p in (1.0, 2.0, 2.5, 3.0, math.inf):
        assert lp_length(spec, p) == pytest.approx(
            lp_length_adaptive(spec, p), rel=1e-9), p


def test_gg_is_additive_over_disjoint_profiles():
    a = annulus_profile(1.0, 0.3, 0.5, ramp=0.02)
    b = annulus_profile(-2.0, 0.9, 1.4, ramp=0.02)
    both = RadialProfile(tuple(sorted(a.knots + b.knots)))
    for n in (2, 3):
        assert gg_rhs(both, n) == pytest.approx(
            gg_rhs(a, n) + gg_rhs(b, n), rel=1e-9, abs=1e-12)


def test_gg_against_independent_radial_quadrature():
    prof = step_profile(1.0, R0, ramp=0.01)
    for n in (2, 3, 4):
        def f(r):
            u = height_coordinate(r)
            dens = 4.0 * r / (1.0 + r * r) ** 2
            return (n / 2.0) * (u ** (2 * n - 1) - u) * prof.omega(r) * dens
        want, err = integrate.quad(f, 0.0, 20.0, limit=400,
                                   points=[k for k, _ in prof.knots])
        assert gg_rhs(prof, n) == pytest.approx(want, rel=1e-8)


def test_psi0_at_origin():
    assert psi0(0.0) == pytest.approx(math.pi ** 2 / 2.0, rel=1e-9)


def test_psi0_depends_only_on_radius():
    assert psi0(3.0 + 4.0j) == psi0(5.0)
    assert psi0(-2.0) == psi0(2.0j)


def test_psi0_far_field_decay():
    for a in (10.0, 50.0, 100.0):
        assert psi0(a) * a == pytest.approx(math.pi, rel=0.05)
    vals = [psi0(a) * a for a in (10.0, 50.0, 100.0)]
    gaps = [abs(v - math.pi) for v in vals]
    assert gaps == sorted(gaps, reverse=True)


def test_psi0_matches_radial_oracle():
    for a in (0.0, 0.5, 1.0, 2.0):
        assert psi0(a) == pytest.approx(psi0_radial(a), rel=1e-4)


def test_psi0_matches_nested_quadrature_on_psi_bound_grid():
    # the grid of `braidflow psi-bound` with its defaults
    grid = sorted({0.0, 1.0, 100.0, 1000.0}
                  | set(np.geomspace(0.1, 1000.0, 25).tolist()))
    for a in grid:
        assert psi0(a) == pytest.approx(psi0_nested(a), rel=1e-9)


def test_psi0_two_regime_bound():
    c_near = math.pi ** 2 / 2.0 + 1e-9
    for a in (0.0, 0.3, 0.7, 1.0):
        assert psi0(a) <= c_near
    for a in (1.0, 2.0, 5.0, 20.0):
        assert psi0(a) <= 1.05 * math.pi ** 2 / 2.0 / a


def test_psi0_rejects_bad_tolerance():
    with pytest.raises(ValueError):
        psi0(1.0, tol=0.0)


def test_psi0_bound_scan_peaks_at_origin():
    grid = [0.0, 0.5, 1.0, 10.0, 100.0]
    c_star, arg, rows = psi0_bound_scan(grid)
    assert arg == 0.0
    assert c_star == pytest.approx(math.pi ** 2 / 2.0, rel=1e-6)
    assert [row[0] for row in rows] == grid
    assert rows[0] == (0.0, psi0(0.0), c_star)
    assert max(row[2] for row in rows) == c_star
    with pytest.raises(ValueError):
        psi0_bound_scan([])


def test_default_profiles_have_disjoint_supports():
    profs = default_embedding_profiles(3)
    spans = sorted(p.support_bounds() for p in profs)
    for (_, hi), (lo, _) in zip(spans, spans[1:]):
        assert hi < lo


def test_sign_matrix_single_profile():
    rep = sign_matrix(default_embedding_profiles(1))
    assert rep.dimension == 1
    assert abs(rep.det) > 1e-12
    assert rep.solve_residual < 1e-10


def test_sign_matrix_two_profiles_well_conditioned():
    rep = sign_matrix(default_embedding_profiles(2))
    assert isinstance(rep, EmbeddingReport)
    assert abs(rep.row_normalized_det) > 1e-6
    assert rep.condition_number < 1e4
    assert rep.solve_residual < 1e-10
    # coefficients invert the moment matrix row by row
    m = np.array(rep.matrix)
    c = np.array(rep.coefficients)
    assert np.allclose(c @ m, np.eye(2), atol=1e-9)


def test_sign_matrix_rejects_overlapping_supports():
    with pytest.raises(ValueError):
        sign_matrix((annulus_profile(1.0, 0.3, 0.8),
                     annulus_profile(1.0, 0.5, 1.2)))


def test_sign_matrix_rejects_zero_profile():
    with pytest.raises(SingularMatrixError):
        sign_matrix((constant_profile(0.0),))


def test_embedding_bounds_basics():
    profs = default_embedding_profiles(2)
    lengths = component_lengths(profs, 2.0)
    assert all(l > 0.0 for l in lengths)
    lo, hi = embedding_bounds(profs, [0.0, 0.0], 2.0)
    assert (lo, hi) == (0.0, 0.0)
    lo1, hi1 = embedding_bounds(profs, [1.0, 0.0], 2.0)
    assert 0.0 < lo1 <= hi1
    lo2, hi2 = embedding_bounds(profs, [2.0, 0.0], 2.0)
    assert lo2 == pytest.approx(2.0 * lo1, rel=1e-12)
    assert hi2 == pytest.approx(2.0 * hi1, rel=1e-12)
    with pytest.raises(ValueError):
        embedding_bounds(profs, [1.0], 2.0)


def test_evaluate_embedding_report():
    profs = default_embedding_profiles(2)
    rng = np.random.default_rng(11)
    vs = [tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(20)]
    rep = evaluate_embedding(profs, vs, 2.5)
    assert rep.p == 2.5
    assert len(rep.bounds) == 20
    for _, lo, hi in rep.bounds:
        assert lo <= hi + 1e-12
    assert rep.ratio_max is not None and rep.ratio_min is not None
    assert rep.ratio_max / rep.ratio_min < 20.0
