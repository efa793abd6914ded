"""Loop tracing: winding, angular variation, crossings, braid extraction."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from braidflow.braid_algebra import is_pure, signature, writhe
from braidflow.braid_trace import (
    ConfigTuple,
    DegenerateDirectionError,
    PathCollisionError,
    SeparationError,
    TraceRejection,
    base_tuple,
    build_loop,
    crossing_counts,
    extract_braid,
    random_tuple,
    short_path,
    total_angular_variation,
    trace_rows,
    trace_words,
    tuple_from_coords,
    winding,
    _pair_columns,
    _ray_events,
    _unwrapped,
)
from braidflow.flow_engine import (
    RadialProfile,
    annulus_profile,
    compose_specs,
    constant_profile,
    single_flow,
    step_profile,
)
from oracles import braid_per_duration, chord_events

STEP = step_profile(1.0, math.sqrt(1.0 / 3.0))


def co_rotating_pair(t):
    x = tuple_from_coords([0.25 + 0.1j, -0.2 + 0.15j])
    return build_loop(single_flow(STEP, float(t)), x, base_tuple(2))


def test_base_tuple_layout():
    base = base_tuple(4, 0.1)
    zs = base.coords()
    assert np.allclose(np.abs(zs), 0.1)
    assert len(set(np.round(zs, 12))) == 4
    with pytest.raises(ValueError):
        base_tuple(0)


def test_config_tuple_rejects_near_coincident_points():
    with pytest.raises(SeparationError):
        tuple_from_coords([0.1, 0.1 + 1e-12j])


def test_equal_speed_pair_winds_with_the_flow():
    # both points co-rotate, so their difference vector turns with them
    for t in (1, 2, 3):
        loop = co_rotating_pair(t)
        assert winding(loop, 0, 1) == pytest.approx(t)


def test_one_inside_one_outside_winds_zero():
    # the difference vector stays inside a disc missing the origin
    x = tuple_from_coords([0.2 + 0.1j, 1.4 - 0.3j])
    loop = build_loop(single_flow(STEP, 3.0), x, base_tuple(2))
    assert winding(loop, 0, 1) == pytest.approx(0.0)
    assert extract_braid(loop).reduced().letters == tuple()


def test_full_turn_gives_positive_hopf_word():
    word = extract_braid(co_rotating_pair(1)).reduced()
    assert word.letters == (1, 1)
    assert signature(word) == -1


def test_rigid_rotation_winds_every_pair_once_per_unit_time():
    # every rate is 1, so the rate spread is 0; a flow grid sized from the
    # spread kept 17 samples on [0, 16], one full turn apart, and read no
    # turn at all
    spec = single_flow(constant_profile(1.0), 16.0)
    x = tuple_from_coords([0.3 + 0.1j, -0.8 + 0.5j, 1.7 - 0.4j, -0.2 - 2.5j])
    base = base_tuple(4)
    loop = build_loop(spec, x, base)
    for i in range(4):
        for j in range(i + 1, 4):
            assert round(winding(loop, i, j)) == 16
    assert writhe(extract_braid(loop)) == 192
    [word] = trace_words([spec], x, base)
    assert writhe(word) == 192
    assert writhe(braid_per_duration(spec, x, base)) == 192


def test_winding_is_antisymmetric_free():
    loop = co_rotating_pair(2)
    assert winding(loop, 0, 1) == pytest.approx(winding(loop, 1, 0))


def test_tav_dominates_winding():
    rng = np.random.default_rng(7)
    for _ in range(10):
        x = random_tuple(rng, 3)
        loop = build_loop(single_flow(STEP, 1.5), x, base_tuple(3))
        for i in range(3):
            for j in range(i + 1, 3):
                assert (total_angular_variation(loop, i, j)
                        >= abs(winding(loop, i, j)) - 1e-9)


def test_writhe_equals_twice_total_winding():
    rng = np.random.default_rng(21)
    rejected = 0
    done = 0
    while done < 60:
        n = int(rng.integers(2, 5))
        prof = step_profile(float(rng.uniform(-1.5, 1.5)),
                            float(rng.uniform(0.3, 1.2)))
        try:
            x = random_tuple(rng, n)
            loop = build_loop(single_flow(prof, float(rng.uniform(0.5, 2.5))),
                              x, base_tuple(n))
            word = extract_braid(loop)
        except TraceRejection:
            rejected += 1
            continue
        total = sum(round(winding(loop, i, j))
                    for i in range(n) for j in range(i + 1, n))
        assert writhe(word) == 2 * total
        assert is_pure(word)
        done += 1
    assert rejected <= 3


def test_extraction_is_direction_independent_on_invariants():
    rng = np.random.default_rng(3)
    x = random_tuple(rng, 3)
    loop = build_loop(single_flow(STEP, 2.0), x, base_tuple(3))
    words = [extract_braid(loop, complex(np.exp(1j * a)))
             for a in rng.uniform(0.0, 2.0 * math.pi, size=8)]
    assert len({writhe(w) for w in words}) == 1
    assert len({signature(w) for w in words}) == 1


def test_crossing_count_means_match_angular_variation():
    loop = co_rotating_pair(3)
    tav = total_angular_variation(loop, 0, 1)
    rng = np.random.default_rng(11)
    omegas = np.exp(2j * math.pi * rng.random(4000))
    counts = crossing_counts(loop, 0, 1, omegas)
    assert float(np.mean(counts)) == pytest.approx(tav, rel=0.02)
    one = crossing_counts(loop, 0, 1, omegas[:1])
    assert one.tolist() == counts[:1].tolist()


def test_exactly_aligned_direction_is_flagged():
    x = tuple_from_coords([0.2, 0.5])  # pair vector along the real axis
    loop = build_loop(single_flow(STEP, 1.0), x, base_tuple(2))
    with pytest.raises(DegenerateDirectionError):
        crossing_counts(loop, 0, 1, np.array([1.0 + 0j]))


def test_short_path_linear_collision_rejected():
    # straight interpolation would send both points through the origin
    with pytest.raises(TraceRejection):
        short_path(np.array([-1.0, 1.0], dtype=complex),
                   np.array([1.0, -1.0], dtype=complex))


def test_short_path_endpoints():
    frm, to = base_tuple(3, 0.1).coords(), base_tuple(3, 0.4).coords()
    seg = short_path(frm, to)
    assert seg.times.tolist() == [0.0, 1.0]
    assert np.array_equal(seg.points, np.stack([frm, to]))


@given(st.integers(2, 6), st.booleans(), st.integers(0, 10 ** 6))
@settings(max_examples=60, deadline=None)
def test_chord_events_match_refined_oracle_chord(n, to_base, salt):
    # each pair vector is affine along the chord, so the one edge crosses
    # the projection line where the bisected chord does, in the same order.
    # The direction is drawn, not picked: one within rounding of a base pair
    # vector (chi = 0 for n = 2) leaves the endpoint's side to rounding
    rng = np.random.default_rng((4711, salt))
    chi = float(rng.uniform(-math.pi, math.pi))
    try:
        x = random_tuple(rng, n)
        y = base_tuple(n) if to_base else random_tuple(rng, n)
    except TraceRejection:
        return
    try:
        seg = short_path(x.coords(), y.coords())
    except TraceRejection:
        with pytest.raises(TraceRejection):
            chord_events(x.coords(), y.coords(), chi)
        return
    i, j = _pair_columns(n)
    w = seg.points[:, i] - seg.points[:, j]
    try:
        edge, frac, pair, sign = _ray_events(_unwrapped(w, np.angle(w[0])),
                                             w, chi)
        want = chord_events(x.coords(), y.coords(), chi)
    except DegenerateDirectionError:
        return
    assert not edge.any()
    assert ([(i[p], j[p], s) for p, s in zip(pair, sign)]
            == [(a, b, s) for _s, a, b, s in want])
    assert np.allclose(frac, [ev[0] for ev in want], rtol=0.0, atol=1e-12)


def test_loop_samples_are_deduplicated_and_closed():
    loop = co_rotating_pair(1)
    samples = loop.samples()
    gaps = np.abs(np.diff(samples, axis=0)).sum(axis=1)
    assert np.all(gaps > 0.0)
    assert np.allclose(samples[0], loop.base.coords())
    assert np.allclose(samples[-1], loop.base.coords())


def test_pair_angle_steps_are_refined():
    # the flow is bisected to small steps; the chords stay single edges
    loop = co_rotating_pair(2)
    flow = loop.segments[1]
    assert flow.kind == "flow"
    w = flow.points[:, 0] - flow.points[:, 1]
    psi = np.unwrap(np.angle(w))
    assert np.max(np.abs(np.diff(psi))) <= math.pi / 8.0 + 1e-9
    assert [len(seg.times) for seg in loop.segments[::2]] == [2, 2]


def test_trace_csv_format():
    loop = co_rotating_pair(1)
    rows = trace_rows(loop)
    assert len(rows) == 2 * sum(len(seg.times) for seg in loop.segments)
    assert [type(v) for v in rows[0]] == [str, float, int, float, float]
    z = loop.segments[0].points[0, 1]
    assert rows[1] == ("short", 0.0, 1, z.real, z.imag)
    assert rows[-1][0] == "short" and rows[-1][1] == 1.0


@given(st.integers(2, 5), st.integers(0, 1000))
@settings(max_examples=30, deadline=None)
def test_random_tuple_separation(n, salt):
    rng = np.random.default_rng((2718, salt))
    try:
        x = random_tuple(rng, n)
    except TraceRejection:
        return
    zs = x.coords()
    for i in range(n):
        for j in range(i + 1, n):
            assert abs(zs[i] - zs[j]) > 1e-9


# rate profiles of height h: a step, a rigid rotation, and a near-rigid one
# whose points all turn at nearly one rate, which a flow grid sized from the
# rate spread alone would alias at long durations
PROFILES = {
    "step": lambda h: step_profile(h, 0.45),
    "rigid": constant_profile,
    "near-rigid": lambda h: RadialProfile(((0.0, h), (10.0, 0.95 * h))),
}


def spec_lists(height, shape, profile, durations):
    """Specs of one draw: a single duration or an increasing duration list
    of the profile, or the defect monitor's composite of a step and an
    annulus flow with both (whatever the profile, as a rigid one overlaps
    the annulus)."""
    if shape == "monitor":
        f = single_flow(step_profile(height, 0.45), durations[0])
        g = single_flow(annulus_profile(-0.7, 0.9, 1.5), durations[-1])
        return [compose_specs(f, g), f, g]
    if shape == "single":
        durations = durations[-1:]
    return [single_flow(PROFILES[profile](height), t) for t in durations]


@given(st.integers(2, 5), st.sampled_from(["single", "increasing", "monitor"]),
       st.sampled_from(sorted(PROFILES)),
       st.lists(st.sampled_from([0.25, 0.6, 1.0, 1.5, 2.0, 3.0, 16.5, 40.0,
                                 64.0]),
                min_size=1, max_size=4, unique=True).map(sorted),
       st.floats(-2.0, 2.0).filter(lambda h: abs(h) > 0.05),
       st.integers(0, 10 ** 6))
@settings(max_examples=120, deadline=None)
def test_shared_trace_matches_per_duration_oracle(n, shape, profile, durations,
                                                  height, salt):
    # one trace for all specs reads the same braid, spec by spec, as tracing
    # every loop on its own; a sample is rejected iff some loop rejects it
    rng = np.random.default_rng((1729, salt))
    try:
        x = random_tuple(rng, n)
    except TraceRejection:
        return
    specs = spec_lists(height, shape, profile, durations)
    base = base_tuple(n)
    try:
        words = trace_words(specs, x, base)
    except TraceRejection:
        with pytest.raises(TraceRejection):
            for spec in specs:
                braid_per_duration(spec, x, base)
        return
    for spec, word in zip(specs, words):
        old = braid_per_duration(spec, x, base)
        assert signature(word) == signature(old)
        assert writhe(word) == writhe(old)
        assert is_pure(word)


def test_single_spec_trace_is_build_loop_then_extract():
    rng = np.random.default_rng(5)
    x = random_tuple(rng, 4)
    spec = single_flow(STEP, 2.5)
    loop = build_loop(spec, x, base_tuple(4))
    assert trace_words([spec], x, base_tuple(4)) == [extract_braid(loop)]
    omega = complex(np.exp(0.3j))
    assert (trace_words([spec], x, base_tuple(4), omega)
            == [extract_braid(loop, omega)])


def test_collision_on_any_outbound_path_rejects_the_sample():
    # both points turn rigidly; after 3/4 turn their difference is +0.6 and
    # the chord back to the base difference -0.2 passes through zero.  0.75
    # is no point of the even grid on [0, 1.1], so the shared flow has to
    # have it forced onto its grid to return from the right place
    base = base_tuple(2)
    x = tuple_from_coords([0.3j, -0.3j])
    longer, three_quarters = single_flow(STEP, 1.1), single_flow(STEP, 0.75)
    assert writhe(trace_words([longer], x, base)[0]) == 2
    with pytest.raises(PathCollisionError):
        build_loop(three_quarters, x, base)
    with pytest.raises(PathCollisionError):
        trace_words([three_quarters, longer], x, base)


def test_flow_passing_too_close_rejects_the_sample():
    # the inner point turns at rate 1 and the outer one, 1e-12 beyond the
    # profile's edge, stands still; at t = 0.5 the inner point arrives 5e-10
    # from it, inside the separation bound.  The flow shared by both
    # durations is checked up to the longer one
    edge = RadialProfile(((0.5, 1.0), (0.5 + 1e-12, 0.0)))
    base = base_tuple(2)
    x = tuple_from_coords([-0.5, 0.5 + 5e-10])
    quarter, full = single_flow(edge, 0.25), single_flow(edge, 1.0)
    build_loop(quarter, x, base)
    trace_words([quarter], x, base)
    with pytest.raises(PathCollisionError, match="flow"):
        build_loop(full, x, base)
    with pytest.raises(PathCollisionError, match="flow"):
        trace_words([quarter, full], x, base)
