"""Outside-in tracing of braidflow's layers, from the benchmark's own files.

The package is not edited.  `Tracer.installed()` rebinds each traced public
function under every name the package looks it up by (for example
`braid_trace.build_loop` is also `qm_estimator.build_loop`, and
`braid_algebra.signature_of_form` is the global `braid_algebra.signature`
calls), and restores the originals on exit.  Spans stay in memory as
`[name, start, end, parent]` rows; a function's self time is its span time
minus the time of its direct child spans.  Counters are read from the values
the traced calls return, so they are deterministic for fixed inputs.
"""

from __future__ import annotations

import contextlib
import functools
import hashlib
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

import numpy as np

import braidflow
from braidflow import (analysis_bench, braid_algebra, braid_trace,
                       chart_geometry, cli, flow_engine, qm_estimator)

MODULES = (braidflow, cli, qm_estimator, braid_trace, braid_algebra,
           analysis_bench, flow_engine, chart_geometry)

# (module, function) pairs that get a timed span per call
SPANNED = (
    (cli, "main"),
    (qm_estimator, "phi_estimate"),
    (qm_estimator, "phi_bar_estimate"),
    (qm_estimator, "qm_property_monitor"),
    (qm_estimator, "integrand"),
    (braid_trace, "random_tuple"),
    (braid_trace, "build_loop"),
    (braid_trace, "extract_braid"),
    (braid_algebra, "evaluate_word"),
    (braid_algebra, "seifert_matrix"),
    (braid_algebra, "signature_of_form"),
    (analysis_bench, "gg_rhs"),
    (analysis_bench, "psi0"),
    (analysis_bench, "sign_matrix"),
    (flow_engine, "lp_length"),
    (chart_geometry, "radius_from_height"),
)

# exceptions the estimator's sampling loop treats as resamples
REJECTION_CLASSES = ("SeparationError", "PathCollisionError")
LP_FAILURE_CLASSES = ("ValueError", "QuadratureError")
# spans whose self time is reported as <name>.s, and whose calls as .calls
TIMED = ("braid_trace.build_loop", "braid_trace.extract_braid",
         "braid_trace.random_tuple", "braid_algebra.evaluate_word",
         "braid_algebra.signature_of_form", "braid_algebra.seifert_matrix",
         "analysis_bench.gg_rhs", "analysis_bench.psi0",
         "analysis_bench.sign_matrix", "flow_engine.lp_length",
         "chart_geometry.radius_from_height")
COUNTED = ("braid_trace.build_loop", "braid_trace.extract_braid",
           "braid_trace.random_tuple", "braid_algebra.evaluate_word",
           "braid_algebra.signature_of_form",
           "braid_algebra.seifert_matrix", "analysis_bench.gg_rhs",
           "analysis_bench.psi0", "flow_engine.lp_length",
           "chart_geometry.radius_from_height")


def _mean(values) -> float:
    return statistics.fmean(values) if values else 0.0


def _max(values) -> int:
    return max(values, default=0)


# statistics of values read from what traced calls return
OBSERVED = {
    "braid_trace.loop_points.mean": (_mean, "loop_points"),
    "braid_trace.loop_points.total": (sum, "loop_points"),
    "braid_trace.word_letters.mean": (_mean, "word_letters"),
    "braid_trace.word_letters.max": (_max, "word_letters"),
    "braid_algebra.seifert_size.mean": (_mean, "seifert_size"),
    "braid_algebra.seifert_size.max": (_max, "seifert_size"),
}


def _short(module) -> str:
    return module.__name__.rsplit(".", 1)[-1]


def per_layer_units() -> dict[str, str]:
    """Every per-layer metric the traced run reports, with its unit."""
    units = {f"{name}.s": "s" for name in TIMED}
    units.update({f"{name}.calls": "count" for name in COUNTED})
    units.update({key: "count" for key in OBSERVED})
    units.update({
        "braid_algebra.signature_of_form.p50_ms": "ms",
        "braid_algebra.signature_of_form.p99_ms": "ms",
        "qm_estimator.self_s": "s",
        "qm_estimator.samples": "count",
        "qm_estimator.draws": "count",
        "qm_estimator.accept_ratio": "ratio",
        **{f"qm_estimator.rejected.{c}": "count" for c in REJECTION_CLASSES},
        "flow_engine.omega.calls": "count",
        "flow_engine.lp_length.failed": "count",
        **{f"flow_engine.lp_length.failed.{c}": "count"
           for c in LP_FAILURE_CLASSES},
        "cli.self_s": "s",
        "cli.artifact_bytes": "bytes",
        "trace_overhead_s": "s",
    })
    return units


def _artifact_bytes(argv) -> int:
    """Size of the <out>/<command>.{json,csv} pair a CLI call wrote."""
    argv = list(argv)
    out = Path(argv[argv.index("--out") + 1]) if "--out" in argv else Path(".")
    return sum((out / f"{argv[0]}{ext}").stat().st_size
               for ext in (".json", ".csv")
               if (out / f"{argv[0]}{ext}").exists())


class Tracer:
    """Spans, counters and per-call observations for one traced run."""

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self.observed: dict[str, list] = defaultdict(list)
        self._stack: list[int] = []
        self._digest = hashlib.sha256()

    def input_digest(self) -> str:
        """Hash of every tuple random_tuple drew: the sampled inputs."""
        return self._digest.hexdigest()

    def _observe(self, name: str, args, result) -> None:
        if name == "braid_trace.build_loop":
            self.observed["loop_points"].append(
                sum(len(seg.times) for seg in result.segments))
        elif name == "braid_trace.extract_braid":
            self.observed["word_letters"].append(len(result.letters))
        elif name == "braid_algebra.seifert_matrix":
            self.observed["seifert_size"].append(int(result.shape[0]))
        elif name == "braid_trace.random_tuple":
            self._digest.update(np.asarray(result.coords()).tobytes())
        elif name.startswith("qm_estimator.") and name != "qm_estimator.integrand":
            self.counts["qm_estimator.samples"] += int(result.samples)
        elif name == "cli.main":
            self.counts["cli.artifact_bytes"] += _artifact_bytes(args[0])

    def _spanned(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append([name, time.perf_counter(), None,
                          stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                spans[idx][2] = time.perf_counter()
                stack.pop()
            self._observe(name, args, result)
            return result

        return traced

    def _counted(self, name: str, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[f"{name}.calls"] += 1
            return fn(*args, **kwargs)

        return counted

    @contextlib.contextmanager
    def installed(self):
        """Rebind the traced functions everywhere the package names them."""
        patches = []  # (owner, attribute, original)
        for module, attr in SPANNED:
            original = getattr(module, attr)
            wrapper = self._spanned(f"{_short(module)}.{attr}", original)
            for owner in MODULES:
                for key, value in list(vars(owner).items()):
                    if value is original:
                        patches.append((owner, key, original))
                        setattr(owner, key, wrapper)
        omega = flow_engine.RadialProfile.omega
        patches.append((flow_engine.RadialProfile, "omega", omega))
        flow_engine.RadialProfile.omega = self._counted("flow_engine.omega",
                                                        omega)
        try:
            yield self
        finally:
            for owner, key, original in reversed(patches):
                setattr(owner, key, original)

    def self_times(self) -> tuple[dict[str, float], dict[str, list[float]]]:
        """Self time and per-call span durations, per name."""
        child = [0.0] * len(self.spans)
        for _name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        own: dict[str, float] = defaultdict(float)
        durations: dict[str, list[float]] = defaultdict(list)
        for (name, start, end, _parent), inner in zip(self.spans, child):
            own[name] += end - start - inner
            durations[name].append(end - start)
        return own, durations

    def metrics(self) -> dict[str, float]:
        """Per-layer values (all but trace_overhead_s) for this trace."""
        own, durations = self.self_times()
        out: dict[str, float] = {}
        for name in TIMED:
            out[f"{name}.s"] = own.get(name, 0.0)
        for name in COUNTED:
            out[f"{name}.calls"] = len(durations.get(name, ()))
        for key, (stat, values) in OBSERVED.items():
            out[key] = stat(self.observed.get(values, []))
        sig_ms = [1e3 * d for d in
                  durations.get("braid_algebra.signature_of_form", ())]
        for q in (50, 99):
            out[f"braid_algebra.signature_of_form.p{q}_ms"] = (
                float(np.percentile(sig_ms, q)) if sig_ms else 0.0)
        out["qm_estimator.self_s"] = sum(
            v for k, v in own.items() if k.startswith("qm_estimator."))
        samples = self.counts["qm_estimator.samples"]
        draws = out["braid_trace.random_tuple.calls"]
        out["qm_estimator.samples"] = samples
        out["qm_estimator.draws"] = draws
        out["qm_estimator.accept_ratio"] = samples / draws if draws else 0.0
        for cls in REJECTION_CLASSES:
            out[f"qm_estimator.rejected.{cls}"] = sum(
                self.counts[f"{site}.raised.{cls}"]
                for site in ("braid_trace.random_tuple",
                             "qm_estimator.integrand"))
        out["flow_engine.omega.calls"] = self.counts["flow_engine.omega.calls"]
        lp_failed = {k: n for k, n in self.counts.items()
                     if k.startswith("flow_engine.lp_length.raised.")}
        out["flow_engine.lp_length.failed"] = sum(lp_failed.values())
        for cls in LP_FAILURE_CLASSES:
            out[f"flow_engine.lp_length.failed.{cls}"] = lp_failed.get(
                f"flow_engine.lp_length.raised.{cls}", 0)
        out["cli.self_s"] = own.get("cli.main", 0.0)
        out["cli.artifact_bytes"] = self.counts["cli.artifact_bytes"]
        return out

    def dump(self, path: Path) -> None:
        """Write the spans as a names table plus [name_id, start, end, parent]."""
        names = sorted({s[0] for s in self.spans})
        ids = {n: i for i, n in enumerate(names)}
        t0 = self.spans[0][1] if self.spans else 0.0
        rows = [[ids[n], round(s - t0, 9), round(e - t0, 9), p]
                for n, s, e, p in self.spans]
        path.write_text(json.dumps({"names": names, "spans": rows,
                                    "counts": dict(self.counts)},
                                   separators=(",", ":")), encoding="utf-8")


def deterministic(metrics: dict[str, float]) -> dict[str, float]:
    """The counters of a metrics dict: everything that is not a time."""
    units = per_layer_units()
    return {k: v for k, v in metrics.items() if units.get(k) not in ("s", "ms")}
