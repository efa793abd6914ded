"""Fuzzed command line input: every config ends in a documented exit code.

Configs and flags are drawn for every command, mostly near the valid range
and sometimes of the wrong type or non-finite, with small caps (at most 4
samples, durations of at most 4, bounded coordinates, and rates bounded
but for a few huge finite ones) so the run stays short.  Whatever the
input, `main` returns 0, 2, 3 or 4 and never raises; every nonzero exit
but a FAIL verdict writes exactly one stderr line (warnings included); and
no PASS artifact holds a NaN.
"""

import contextlib
import io
import json
import math
import tempfile
import warnings
from pathlib import Path

from hypothesis import HealthCheck, event, example, given, settings
from hypothesis import strategies as st

from braidflow import cli

NON_FINITE = st.sampled_from([math.nan, math.inf, -math.inf])
JUNK = st.one_of(NON_FINITE, st.just("a"), st.none(), st.just([1]),
                 st.booleans(), st.just({}))


def mostly(valid, other=JUNK):
    """A value from `valid` nine times in ten, else one from `other`."""
    return st.integers(0, 9).flatmap(lambda k: other if k == 0 else valid)


def number(lo, hi):
    return mostly(st.floats(lo, hi), NON_FINITE)


def key(valid, wrong=st.nothing()):
    """A config value: valid, or out of range, or of the wrong type."""
    return mostly(valid, st.one_of(JUNK, wrong))


# huge finite rates overflow the quadratures' intermediate products
RATE = mostly(st.floats(-4.0, 4.0), st.one_of(
    NON_FINITE, st.sampled_from([1e200, -1e200, 1e308, -1e308])))
RADIUS = st.one_of(st.sampled_from([0.0, 0.2, 0.6, 1.0, 3.0]),
                   number(0.0, 5.0))
DURATION = number(0.05, 4.0)
DURATIONS = key(st.lists(DURATION, min_size=1, max_size=5),
                st.lists(number(-1.0, 4.0), max_size=5))
SLOPE_DURATIONS = key(
    st.lists(DURATION, min_size=3, max_size=5, unique=True).map(sorted),
    st.lists(number(-1.0, 4.0), max_size=5))
SAMPLES = key(st.integers(2, 4), st.integers(-1, 1))
SEED = key(st.integers(0, 50), st.just(-1))
TOLERANCE = key(number(0.0, 1.0), number(-0.1, 0.0))
MEASURE = key(st.sampled_from(["prob", "2pi"]), st.just("x"))
KIND = key(st.sampled_from(["s-combination", "raw-signature"]), st.just("x"))
PROFILE = key(st.one_of(
    st.fixed_dictionaries(
        {"type": st.just("step"), "lambda": key(RATE)},
        optional={"u0": key(number(-0.9, 1.0), number(-2.0, 2.0)),
                  "r0": key(RADIUS), "ramp": key(number(0.001, 0.5))}),
    st.fixed_dictionaries(
        {"type": st.just("annulus"), "height": key(RATE),
         "r_in": key(RADIUS), "r_out": key(RADIUS)}),
    st.fixed_dictionaries({"type": st.just("constant"), "value": key(RATE)}),
    st.fixed_dictionaries({"knots": key(st.lists(
        st.lists(st.one_of(RADIUS, RATE), min_size=2, max_size=2),
        max_size=4))}),
))
POINTS = key(st.one_of(st.none(), st.lists(
    st.lists(number(-3.0, 3.0), min_size=2, max_size=2), max_size=5)))

# (keys every draw sets, to keep the caps; keys a draw may set)
KEYS = {
    "gg-check": (
        {"samples": SAMPLES, "t_list": SLOPE_DURATIONS},
        {"profile": PROFILE, "seed": SEED, "measure": MEASURE, "kind": KIND,
         "n_points": key(st.sampled_from([4, 6]), st.integers(2, 8)),
         "tolerance_rel": TOLERANCE, "mismatch_n": key(st.booleans())}),
    "psi-bound": (
        {"n_grid": key(st.integers(3, 6), st.integers(-1, 2))},
        {"a_max": key(number(1.5, 1e3), number(0.5, 1.0)),
         "tol": key(number(1e-8, 1e-2), number(-1e-3, 0.0)),
         "tail_a": key(number(0.5, 200.0), number(-1.0, 0.0))}),
    "embed-demo": (
        {"n_vectors": key(st.integers(1, 5), st.just(0))},
        {"d": key(st.integers(1, 4), st.just(0)), "seed": SEED,
         "p": key(number(1.0, 6.0), number(0.5, 1.0)),
         "v_scale": key(number(0.1, 5.0), number(-1.0, 0.0)),
         "height": key(RATE), "ramp": key(number(0.001, 0.3)),
         "ratio_spread_max": key(number(1.0, 50.0), number(-1.0, 1.0))}),
    "braid-of-flow": (
        {"duration": key(DURATION, number(-1.0, 0.0))},
        {"profile": PROFILE, "n_points": key(st.integers(1, 5), st.just(0)),
         "seed": SEED, "x": POINTS}),
    "coarea-check": (
        {"n_loops": key(st.integers(1, 2), st.just(0)),
         "n_dirs": key(st.integers(1, 50), st.just(0)),
         "t_choices": DURATIONS},
        {"profile": PROFILE, "n_points": key(st.integers(2, 4), st.just(1)),
         "seed": SEED, "tolerance_rel": TOLERANCE}),
    "lp-length": (
        {},
        {"profile": PROFILE, "weight": key(RATE), "t_list": DURATIONS,
         "p": key(number(1.0, 8.0), number(0.5, 1.0)),
         "tolerance_rel": TOLERANCE}),
    "phi-estimate": (
        {"samples": SAMPLES, "duration": key(DURATION, number(-1.0, 0.0))},
        {"profile": PROFILE, "n_points": key(st.integers(2, 6), st.just(1)),
         "seed": SEED, "measure": MEASURE, "kind": KIND,
         "homogenize": key(st.booleans())}),
}

FLAGS = st.lists(st.one_of(
    st.tuples(st.just("--seed"), st.integers(-1, 50).map(str)),
    st.tuples(st.just("--samples"), st.integers(-1, 4).map(str)),
    st.tuples(st.just("--p"), number(0.5, 6.0).map(repr)),
    st.tuples(st.just("--measure"), st.sampled_from(["prob", "2pi"])),
    st.tuples(st.just("--mismatch-n")),
), min_size=1, max_size=2).map(lambda pairs: [a for pair in pairs for a in pair])


@st.composite
def invocations(draw):
    command = draw(st.sampled_from(sorted(KEYS)))
    required, optional = KEYS[command]
    config = draw(st.fixed_dictionaries(required, optional=optional))
    return command, config, draw(mostly(st.just([]), FLAGS))


# inputs that ended in a traceback or a wrong exit code in braidflow 0.1.0
@example(("braid-of-flow", {"duration": 1.0,
                            "profile": {"knots": [[0.5, math.nan]]}}, []))
@example(("gg-check", {"samples": 2, "t_list": [1, 2, 3], "profile": {
    "type": "step", "lambda": math.nan, "u0": 0.5}}, []))
@example(("braid-of-flow", {"duration": 1.0, "profile": {
    "type": "step", "lambda": 1.0, "u0": 2.0}}, []))
@example(("braid-of-flow", {"duration": 1.0,
                            "profile": {"knots": [[math.nan, 1.0]]}}, []))
@example(("coarea-check", {"n_loops": 1, "n_dirs": 10, "t_choices": [1.0],
                           "profile": {"type": "constant", "value": 1.0}},
          []))
@given(invocations())
@settings(max_examples=300, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
def test_fuzzed_input_ends_in_a_documented_exit(invocation):
    command, config, flags = invocation
    with tempfile.TemporaryDirectory() as tmp:
        cfg = Path(tmp) / "cfg.json"
        cfg.write_text(json.dumps(config), encoding="utf-8")
        out = Path(tmp) / "out"
        err = io.StringIO()
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err), warnings.catch_warnings():
            warnings.simplefilter("always")
            code = cli.main([command, "--config", str(cfg), "--out", str(out),
                             *flags])
        event(f"{command} exit {code}")
        assert code in (0, 2, 3, 4)
        artifact = out / f"{command}.json"
        text = artifact.read_text(encoding="utf-8") if artifact.exists() else ""
        verdict = json.loads(text)["verdict"] if text else None
        if code != 0 and verdict != "FAIL":
            lines = err.getvalue().splitlines()
            assert len(lines) == 1, lines
            prefix = {2: "numerical failure: ", 3: "degeneracy: ",
                      4: "config error: "}[code]
            assert lines[0].startswith(prefix), lines
        if verdict == "PASS":
            table = (out / f"{command}.csv").read_text(encoding="utf-8")
            assert "NaN" not in text
            assert "nan" not in table
