"""Golden per-sample pins of the Monte Carlo draw.

`trace_golden.json` holds the exact value of every sample and duration (and
the rejection count) of three seeded runs, computed by braidflow 0.1.0, which
traced every duration separately.  Values, not braid words, are pinned: a
different refinement grid may spell the same braid differently, but its
signature and writhe, and so the value, cannot change.
"""

import json
from pathlib import Path

import pytest

from braidflow.braid_algebra import qm_for_strands
from braidflow.braid_trace import base_tuple
from braidflow.flow_engine import (
    FlowSpec,
    annulus_profile,
    compose_specs,
    profile_from_json,
    single_flow,
)
from braidflow.qm_estimator import DEFAULT_REJECTION_CEILING, _draw_values

GOLDEN = json.loads((Path(__file__).parent / "trace_golden.json")
                    .read_text(encoding="utf-8"))
ANNULUS = annulus_profile(-0.7, 0.9, 1.5)


def draw(specs, samples, seed):
    values, rejected = _draw_values(
        specs, 4, qm_for_strands(4), samples, seed, base_tuple(4, 0.1), None,
        DEFAULT_REJECTION_CEILING)
    return values.tolist(), rejected


@pytest.mark.parametrize("name", ["gg-step", "gg-rigid"])
def test_slope_run_values_are_pinned(name):
    run = GOLDEN[name]
    profile = profile_from_json(run["profile"])
    specs = [FlowSpec(((profile, 1.0),), t) for t in run["t_list"]]
    values, rejected = draw(specs, run["samples"], run["seed"])
    assert rejected == run["rejected"]
    assert values == run["values"]


@pytest.mark.parametrize("name", ["monitor-T2", "monitor-T8"])
def test_monitor_values_are_pinned(name):
    run = GOLDEN[name]
    step = profile_from_json(GOLDEN["gg-step"]["profile"])
    f = single_flow(step, run["duration"])
    g = single_flow(ANNULUS, run["duration"])
    values, rejected = draw([compose_specs(f, g), f, g], run["samples"],
                            run["seed"])
    assert rejected == run["rejected"]
    assert values == run["values"]
