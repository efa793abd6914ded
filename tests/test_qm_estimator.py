"""Monte Carlo estimators: determinism, scaling, defect monitoring."""

import math

import numpy as np
import pytest

from braidflow.braid_algebra import qm_for_strands
from braidflow.braid_trace import TraceRejection
from braidflow.chart_geometry import PROBABILITY, ROUND_2PI
from braidflow.flow_engine import constant_profile, single_flow, step_profile
from braidflow.qm_estimator import (
    RejectionBudgetError,
    integrand,
    phi_bar_estimate,
    phi_estimate,
    qm_property_monitor,
)

R0 = math.sqrt(1.0 / 3.0)


def step_spec(duration, height=1.0):
    return single_flow(step_profile(height, R0), duration)


def s_qm(n_points):
    return qm_for_strands(n_points)


def test_identity_flow_has_zero_value():
    est = phi_estimate(single_flow(constant_profile(0.0), 1.0),
                       n_points=3, qm=s_qm(3), samples=12, seed=5)
    assert est.value == 0.0
    assert est.stderr == 0.0
    assert est.rejected == 0


def test_seed_determinism_is_bitwise():
    kw = dict(n_points=4, qm=s_qm(4), samples=25, seed=99)
    a = phi_estimate(step_spec(2.0), **kw)
    b = phi_estimate(step_spec(2.0), **kw)
    assert a == b


def test_different_seeds_differ():
    a = phi_estimate(step_spec(2.0), n_points=4, qm=s_qm(4), samples=25, seed=1)
    b = phi_estimate(step_spec(2.0), n_points=4, qm=s_qm(4), samples=25, seed=2)
    assert a.value != b.value


def test_phi_bar_per_t_matches_single_duration_estimate():
    # common random numbers: the T column of phi_bar is the same stream
    qm = s_qm(4)
    bar = phi_bar_estimate(step_spec(1.0), [1.0, 2.0, 4.0],
                           n_points=4, qm=qm, samples=30, seed=42)
    assert bar.rejected == 0
    for t, mean, stderr in bar.per_t:
        single = phi_estimate(step_spec(t), n_points=4, qm=qm,
                              samples=30, seed=42)
        assert single.value == pytest.approx(mean, abs=1e-12)
        assert single.stderr == pytest.approx(stderr, abs=1e-12)


def test_step_slope_matches_quadrature_prediction():
    bar = phi_bar_estimate(step_spec(1.0),
                           [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0],
                           n_points=4, qm=s_qm(4), samples=300, seed=7)
    assert bar.value == pytest.approx(-9.0 / 64.0, abs=3.0 * bar.stderr)
    assert bar.stderr < 0.05


def test_value_scales_linearly_in_profile_height():
    kw = dict(n_points=4, qm=s_qm(4), samples=40, seed=13)
    one = phi_bar_estimate(step_spec(1.0, 1.0), [1.0, 2.0, 3.0], **kw)
    two = phi_bar_estimate(step_spec(1.0, 2.0), [1.0, 2.0, 3.0], **kw)
    assert two.value == pytest.approx(2.0 * one.value, rel=1e-12, abs=1e-12)


def test_flow_reversal_flips_sign_in_expectation():
    # only the flow leg reverses, not the approach legs, so the flip is a
    # symmetry of the sampling measure rather than of each sample
    kw = dict(n_points=4, qm=s_qm(4), samples=40, seed=17)
    pos = phi_bar_estimate(step_spec(1.0, 1.0), [1.0, 2.0, 3.0], **kw)
    neg = phi_bar_estimate(step_spec(1.0, -1.0), [1.0, 2.0, 3.0], **kw)
    tol = 3.0 * (pos.stderr + neg.stderr) + 1e-12
    assert neg.value == pytest.approx(-pos.value, abs=tol)
    assert pos.value < 0.0 < neg.value


def test_measure_convention_rescales_by_total_mass_power():
    kw = dict(n_points=3, qm=s_qm(3), samples=20, seed=23)
    prob = phi_estimate(step_spec(2.0),
                        convention=PROBABILITY, **kw)
    full = phi_estimate(step_spec(2.0),
                        convention=ROUND_2PI, **kw)
    assert full.value == pytest.approx((2.0 * math.pi) ** 3 * prob.value,
                                       rel=1e-12)


def test_zero_flow_factor_gives_exactly_zero_defect():
    # composing with a motionless flow reproduces the same loop, so the
    # defect vanishes sample by sample
    f = step_spec(2.0)
    g = single_flow(constant_profile(0.0), 2.0)
    mon = qm_property_monitor(f, g, n_points=4, qm=s_qm(4),
                              samples=12, seed=31)
    assert mon.value == 0.0
    assert mon.stderr == 0.0
    assert mon.invariant_kind.startswith("defect:")


def test_disjoint_pair_defect_stays_bounded():
    from braidflow.flow_engine import annulus_profile

    # annulus keeps the two supports disjoint; the defect comes only from
    # the approach legs and must not grow with the duration
    mons = []
    for t in (2.0, 8.0):
        inner = single_flow(step_profile(1.0, 0.4, ramp=0.01), t)
        outer = single_flow(annulus_profile(-0.7, 0.9, 1.5), t)
        mons.append(qm_property_monitor(inner, outer, n_points=4,
                                        qm=s_qm(4), samples=15, seed=31))
    for mon in mons:
        assert mon.value <= 2.0
    spread = 3.0 * math.hypot(mons[0].stderr, mons[1].stderr) + 1e-12
    assert abs(mons[1].value - mons[0].value) <= spread


def test_integrand_matches_single_sample_stream():
    rng = np.random.default_rng(2)
    from braidflow.braid_trace import random_tuple
    x = random_tuple(rng, 4)
    v = integrand(step_spec(2.0), x, s_qm(4))
    assert isinstance(v, float)
    assert v == integrand(step_spec(2.0), x, s_qm(4))


def test_rejection_budget_error():
    # base points this tight collide with sampled points constantly
    with pytest.raises((RejectionBudgetError, TraceRejection)):
        phi_estimate(step_spec(1.0), n_points=4, qm=s_qm(4), samples=10,
                     seed=3, base_eps=1e-13)


def test_input_validation():
    with pytest.raises(ValueError):
        phi_estimate(step_spec(1.0), n_points=4, qm=s_qm(4), samples=1, seed=0)
    with pytest.raises(ValueError):
        phi_bar_estimate(step_spec(1.0), [1.0, 2.0], n_points=4,
                         qm=s_qm(4), samples=10, seed=0)
    with pytest.raises(ValueError):
        phi_bar_estimate(step_spec(1.0), [2.0, 1.0, 3.0], n_points=4,
                         qm=s_qm(4), samples=10, seed=0)


@pytest.mark.parametrize("t_list", [[0.0, 1.0, 2.0], [-1.0, 1.0, 2.0],
                                    [1.0, 2.0, math.inf],
                                    [1.0, 2.0, math.nan]])
def test_durations_are_checked_before_any_draw(t_list, monkeypatch):
    import braidflow.qm_estimator as qm_estimator

    def no_draw(*args):
        raise AssertionError("sampled before validating the durations")

    monkeypatch.setattr(qm_estimator, "random_tuple", no_draw)
    with pytest.raises(ValueError, match="durations"):
        phi_bar_estimate(step_spec(1.0), t_list, n_points=4, qm=s_qm(4),
                         samples=10, seed=0)


def _estimator_spec_lists():
    from braidflow.flow_engine import FlowSpec, annulus_profile, compose_specs

    step = step_spec(1.0)
    outer = single_flow(annulus_profile(-0.7, 0.9, 1.5), 2.0)
    return {
        "phi_estimate": [step_spec(2.0)],
        "phi_bar_estimate": [FlowSpec(step.components, float(t))
                             for t in range(1, 9)],
        "qm_property_monitor": [compose_specs(step_spec(2.0), outer),
                                step_spec(2.0), outer],
    }


@pytest.mark.parametrize("shape", ["phi_estimate", "phi_bar_estimate",
                                   "qm_property_monitor"])
def test_signature_stream_on_the_words_each_estimator_traces(shape):
    # the words of one sample share prefixes as the estimators pass them;
    # the stream must give each word the signature of its own built form
    from braidflow.braid_algebra import (evaluate_word, evaluate_words,
                                         seifert_matrix, signature_of_form,
                                         signatures)
    from braidflow.braid_trace import base_tuple, random_tuple, trace_words

    specs = _estimator_spec_lists()[shape]
    base = base_tuple(4)
    rng = np.random.default_rng(17)
    traced = 0
    while traced < 6:
        try:
            words = trace_words(specs, random_tuple(rng, 4), base)
        except TraceRejection:
            continue
        traced += 1
        built = []
        for word in words:
            V = seifert_matrix(word)
            built.append(signature_of_form(V + V.T))
        assert signatures(words) == built
        assert evaluate_words(words, s_qm(4)) == [
            evaluate_word(word, s_qm(4)) for word in words]
