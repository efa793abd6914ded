"""Tests of the benchmark itself: seeded inputs, deterministic counters.

Run with `PYTHONPATH=src python -m pytest perfbench`.  Each workload runs one
traced repetition at the tiny size twice with one seed, and once with
another seed.
"""

import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import bench_trace  # noqa: E402
import bench_workloads  # noqa: E402
from braidflow import braid_algebra, braid_trace, qm_estimator  # noqa: E402


def traced_repetition(name: str, seed: int, out: Path):
    out.mkdir(parents=True)
    braid_algebra.calibrate_ratio(4)  # set-up, cached per process, as in run.py
    workload = bench_workloads.WORKLOADS[name](seed, out,
                                               bench_workloads.TINY[name])
    tracer = bench_trace.Tracer()
    with tracer.installed():
        ops = workload.run(0)
    checked = [(op.name, op.ok, op.outputs, op.error) for op in ops]
    return checked, tracer


@pytest.mark.parametrize("name", list(bench_workloads.WORKLOADS))
def test_same_seed_repeats_and_other_seed_differs(name, tmp_path):
    first, trace_a = traced_repetition(name, 3, tmp_path / "a")
    again, trace_b = traced_repetition(name, 3, tmp_path / "b")
    other, trace_c = traced_repetition(name, 4, tmp_path / "c")

    assert first == again
    assert (bench_trace.deterministic(trace_a.metrics())
            == bench_trace.deterministic(trace_b.metrics()))
    assert trace_a.input_digest() == trace_b.input_digest()
    if name == "quadrature":
        # the seed reaches the quadrature workload through embed-demo's vectors
        embed = {row[0]: row[2] for row in first}["embed-demo"]
        embed_other = {row[0]: row[2] for row in other}["embed-demo"]
        assert embed != embed_other
    else:
        assert trace_a.input_digest() != trace_c.input_digest()


def test_metrics_cover_the_per_layer_list(tmp_path):
    _checked, tracer = traced_repetition("gg-step", 3, tmp_path / "w")
    names = set(bench_trace.per_layer_units()) - {"trace_overhead_s"}
    assert set(tracer.metrics()) == names


def test_tracer_restores_the_package(tmp_path):
    traced_repetition("monitor", 3, tmp_path / "w")
    assert qm_estimator.build_loop is braid_trace.build_loop
    assert not hasattr(braid_trace.build_loop, "__wrapped__")
