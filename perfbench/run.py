"""Benchmark runner for braidflow.

    python3 perfbench/run.py --workload all
    python3 perfbench/run.py --workload gg-step --seed 1 --seconds 20 --trace 0

A run measures set-up in fresh interpreters, builds the workload from the
seed, repeats it for --seconds and prints, as its last line, one JSON object
with keys correct, attempted, failed and metrics.  With --trace 0 the metrics
are the end-to-end ones; with --trace 1 each repetition is run untraced and
then traced on the same inputs, and the metrics are the per-layer ones.
`--workload all` runs every workload in its own process and prints each
metric by name with its unit.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# The workloads run serially; numpy and scipy get one BLAS/OpenMP thread.
THREAD_CAPS = {var: "1" for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                    "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS")}
SETUP_SAMPLES = 3
SETUP_CODE = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import braidflow, braidflow.cli
braidflow.calibrate_ratio(4)
print(time.perf_counter() - t0)
"""
END_TO_END_UNITS = {"wall_s": "s", "setup_s": "s", "peak_rss_mb": "MB"}
CHILD_TIMEOUT_S = 170


def git_commit() -> str | None:
    """HEAD of the checkout when it is a git work tree, read without git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def provenance() -> dict:
    import importlib.util

    import numpy
    import scipy

    return {
        "nproc": os.cpu_count(),
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "numba": ("present" if importlib.util.find_spec("numba") else "absent"),
        "thread_caps": {k: os.environ.get(k) for k in THREAD_CAPS},
        "git_commit": git_commit(),
    }


def measure_setup() -> list[float]:
    """Import plus first calibration, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_SAMPLES):
        done = subprocess.run([sys.executable, "-c", SETUP_CODE, str(SRC)],
                              capture_output=True, text=True, check=True,
                              timeout=60)
        times.append(float(done.stdout.strip().splitlines()[-1]))
    return times


def measure(workload, seconds: float, trace: bool):
    """Repeat the workload at least twice, and while the next round is
    expected to end within `seconds`; with trace, a round is an untraced and
    then a traced repetition on the same inputs."""
    import bench_trace

    ops, walls, traced_walls, tracers, rounds = [], [], [], [], []
    start = time.perf_counter()
    while len(rounds) < 2 or (time.perf_counter() - start
                              + statistics.median(rounds) <= seconds):
        round_start = time.perf_counter()
        # a traced run keeps to the inputs of repetition 0, so that its
        # counters can be compared across repetitions and runs
        ops += workload.run(0 if trace else len(walls))
        walls.append(time.perf_counter() - round_start)
        if trace:
            tracer = bench_trace.Tracer()
            with tracer.installed():
                t0 = time.perf_counter()
                ops += workload.run(0)
                traced_walls.append(time.perf_counter() - t0)
            tracers.append(tracer)
        rounds.append(time.perf_counter() - round_start)
    return ops, walls, traced_walls, tracers


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import bench_trace
    import bench_workloads

    from braidflow import braid_algebra

    setup = measure_setup()
    out_root = ROOT / ".perfbench_out"
    out_root.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=out_root))
    cls = bench_workloads.WORKLOADS[name]
    # the CLI commands print a verdict line; stdout is kept for the result
    with open(os.devnull, "w", encoding="utf-8") as sink, \
            contextlib.redirect_stdout(sink):
        try:
            braid_algebra.calibrate_ratio(4)
            # an untimed tiny repetition loads what the code imports lazily
            cls(seed, work, bench_workloads.TINY[name]).run(0)
            ops, walls, traced_walls, tracers = measure(
                cls(seed, work), seconds, trace)
        finally:
            shutil.rmtree(work, ignore_errors=True)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6

    failed = [op for op in ops if not op.ok and not op.known_defect]
    known = [op for op in ops if op.known_defect]
    wall_s = statistics.median(walls)
    result = {
        "provenance": dict(provenance(), workload=name, seed=seed,
                           reps=len(walls), rep_wall_s=walls,
                           setup_samples_s=setup),
        "failures": sorted({f"{op.name}: {op.error or 'check failed'}"
                            for op in failed}),
        "known_defects": sorted({f"{op.name}: {op.error}" for op in known}),
    }
    correct = not failed
    if trace:
        layer_runs = [t.metrics() for t in tracers]
        counters = [bench_trace.deterministic(m) for m in layer_runs]
        correct = correct and all(c == counters[0] for c in counters)
        metrics = {key: statistics.median(m[key] for m in layer_runs)
                   for key in layer_runs[0]}
        metrics.update(counters[0])
        metrics["trace_overhead_s"] = statistics.median(traced_walls) - wall_s
        units = bench_trace.per_layer_units()
        result["provenance"]["traced_wall_s"] = traced_walls
        result["provenance"]["input_digest"] = tracers[0].input_digest()
        tracers[0].dump(out_root / f"trace-{name}-seed{seed}.json")
    else:
        metrics = {"wall_s": wall_s, "setup_s": statistics.median(setup),
                   "peak_rss_mb": peak_rss_mb}
        units = END_TO_END_UNITS
    result["line"] = {
        "correct": correct,
        "attempted": len(ops),
        "failed": len(failed),
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
    }
    return result


def run_all(seed: int, seconds: float, trace: int) -> int:
    """Each workload in its own process; print every metric with its unit."""
    from bench_workloads import WORKLOADS

    summary = {}
    for name in WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(seed), "--seconds", str(seconds),
             "--trace", str(trace)],
            capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or len(lines) < 2:
            print(f"{name}: exit {done.returncode}\n{done.stderr}", file=sys.stderr)
            return 1
        prov, line = json.loads(lines[-2]), json.loads(lines[-1])
        frac = line["failed"] / line["attempted"]
        print(f"== {name}  (median of {prov['provenance']['reps']} repetitions)")
        for key, m in line["metrics"].items():
            print(f"  {key:44s} {m['value']:.6g} {m['unit']}")
        print(f"  {'ops_failed_frac':44s} {frac:.6g} ratio  "
              f"({line['failed']} of {line['attempted']} operations)")
        for item in prov["failures"]:
            print(f"  failed: {item}")
        for item in prov["known_defects"]:
            print(f"  known defect: {item}")
        summary[name] = line
    print(json.dumps({"provenance": prov["provenance"] | {"workload": "all"}}))
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "braidflow" / "__init__.py").is_file():
        print(f"perfbench: no braidflow sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_CAPS)
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)

    import bench_workloads

    if args.workload not in bench_workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from "
                     f"{', '.join(bench_workloads.WORKLOADS)} or all")
    import braidflow

    if not Path(braidflow.__file__).resolve().is_relative_to(SRC):
        print(f"perfbench: braidflow imported from {braidflow.__file__}, "
              f"not {SRC}", file=sys.stderr)
        return 2
    result = run_workload(args.workload, args.seed, args.seconds,
                          bool(args.trace))
    line = result.pop("line")
    print(json.dumps(result))
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
