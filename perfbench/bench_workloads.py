"""The four benchmark workloads and the checks on their outputs.

A workload is built from the run's seed, then run as repetitions.  Each
repetition makes a few top-level calls into braidflow (operations) and checks
every output; a raised exception or a failed check marks the operation
failed and the run goes on.  Repetition k draws its inputs from (seed, k), so
a run covers several input sets and the same seed always gives the same
ones.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from braidflow import analysis_bench, braid_algebra, cli, flow_engine, qm_estimator
from braidflow.chart_geometry import radius_from_height

GG_LINEAR = -4.0 / 15.0                      # gg_rhs of omega(u) = u, n = 2
LP_INF_LINEAR = math.pi / 2.0                # max of pi |u| sqrt(1 - u^2)
LP_2_LINEAR = math.sqrt(4.0 * math.pi ** 3 / 15.0)
LP_REL_TOL = 1e-5  # the 2001-knot profile is within 5e-7 of both closed forms

# The one failure the quadrature workload expects from braidflow 0.1.0:
# lp_length at p = 2 hands quad one breakpoint per knot with limit=400, and
# scipy rejects more breakpoints than the limit.  It is recorded, not counted as failed; a
# value returned after a fix is checked like any other.
KNOWN_DEFECTS = {"lp_length(p=2)": "ValueError"}


@dataclass
class Op:
    """Outcome of one top-level call and the check on its output."""

    name: str
    ok: bool
    outputs: dict = field(default_factory=dict)
    error: str | None = None
    known_defect: bool = False


def rep_seed(seed: int, rep: int) -> int:
    """Input seed of repetition `rep` of a run with seed `seed`."""
    return int(np.random.SeedSequence((seed, rep)).generate_state(1)[0])


def _guarded(name: str, call) -> Op:
    """Run call() -> (ok, outputs); an exception marks the operation failed."""
    try:
        ok, outputs = call()
    except Exception as exc:  # a benchmark boundary: record and continue
        cls = type(exc).__name__
        return Op(name, False, error=f"{cls}: {exc}",
                  known_defect=KNOWN_DEFECTS.get(name) == cls)
    return Op(name, bool(ok), outputs)


def _cli(command: str, out: Path, *flags: str) -> tuple[int, dict]:
    """Exit code and JSON artifact of one CLI command."""
    artifact = out / f"{command}.json"
    artifact.unlink(missing_ok=True)  # never check an earlier call's output
    code = cli.main([command, "--out", str(out), *flags])
    return code, json.loads(artifact.read_text(encoding="utf-8"))


class GgStep:
    """`braidflow gg-check` on the default step profile, t = 1..8, 4 points."""

    name = "gg-step"
    why = ("the paper's MC-vs-quadrature slope check on a step flow; "
           "tracing and extraction do most of the work")
    size = 300  # samples

    def __init__(self, seed: int, out: Path, size: int | None = None):
        self.seed = seed
        self.out = out
        self.size = size or self.size
        self.flags: tuple[str, ...] = ()

    def check(self, code: int, art: dict) -> bool:
        return code == 0 and art["verdict"] == "PASS"

    def run(self, rep: int) -> list[Op]:
        def call():
            code, art = _cli("gg-check", self.out, *self.flags,
                             "--seed", str(rep_seed(self.seed, rep)),
                             "--samples", str(self.size))
            return self.check(code, art), dict(art, exit_code=code)

        return [_guarded("gg-check", call)]


class GgRigid(GgStep):
    """The same command on rigid rotation: quadrature and slope are exactly 0."""

    name = "gg-rigid"
    why = ("rigid-rotation null: Seifert forms about 10x larger than on the "
           "step, so the signature layer is the largest cost")
    size = 100  # samples; a rigid sample costs about three step samples

    def __init__(self, seed: int, out: Path, size: int | None = None):
        super().__init__(seed, out, size)
        config = out / "gg-rigid.json"
        config.write_text(json.dumps(
            {"profile": {"type": "constant", "value": 1.0}}), encoding="utf-8")
        self.flags = ("--config", str(config))

    def check(self, code: int, art: dict) -> bool:
        return (code == 0 and art["mc_slope"] == 0.0
                and art["quadrature_value"] == 0.0)


class Monitor:
    """Defect monitor of f = step flow and g = annulus(-0.7, 0.9, 1.5) at T=2, 8."""

    name = "monitor"
    why = ("single-duration tracing of three flows per sample, one a "
           "two-component composite, with no shared time prefix")
    size = 200  # samples, as in acceptance check 8

    def __init__(self, seed: int, out: Path, size: int | None = None):
        self.seed = seed
        self.size = size or self.size
        self.step = flow_engine.step_profile(1.0, radius_from_height(0.5), 0.01)
        self.annulus = flow_engine.annulus_profile(-0.7, 0.9, 1.5)

    def _estimate(self, duration: float, seed: int):
        return qm_estimator.qm_property_monitor(
            flow_engine.single_flow(self.step, duration),
            flow_engine.single_flow(self.annulus, duration), n_points=4,
            qm=braid_algebra.qm_for_strands(4), samples=self.size, seed=seed)

    def run(self, rep: int) -> list[Op]:
        seed = rep_seed(self.seed, rep)
        found = {}

        def at(duration: float):
            def call():
                est = self._estimate(duration, seed)
                found[duration] = est
                ok = math.isfinite(est.value) and math.isfinite(est.stderr)
                if duration == 8.0:
                    early = found[2.0]
                    ok = ok and abs(est.value - early.value) <= 3.0 * math.hypot(
                        early.stderr, est.stderr)
                return ok, {"value": est.value, "stderr": est.stderr,
                            "samples": est.samples, "rejected": est.rejected}
            return call

        return [_guarded("monitor(T=2)", at(2.0)),
                _guarded("monitor(T=8)", at(8.0))]


def linear_height_profile(n_knots: int) -> flow_engine.RadialProfile:
    """omega = u on n_knots radii, the profile of test_gg_of_linear_height_profile."""
    us = np.linspace(-1.0 + 1e-12, 1.0 - 1e-12, n_knots)
    return flow_engine.RadialProfile(
        tuple((radius_from_height(float(u)), float(u)) for u in us[::-1]))


class Quadrature:
    """gg_rhs, lp_length at p = inf and 2, psi-bound and embed-demo; no MC."""

    name = "quadrature"
    why = ("the analysis and flow-engine quadratures with no Monte Carlo; "
           "the MC workloads are its no-change control")
    size = 2001  # profile knots; lp_length(p=2) fails above 400

    def __init__(self, seed: int, out: Path, size: int | None = None):
        self.seed = seed
        self.out = out
        self.profile = linear_height_profile(size or self.size)
        self.flow = flow_engine.single_flow(self.profile)

    def run(self, rep: int) -> list[Op]:
        def gg():
            value = analysis_bench.gg_rhs(self.profile, 2)
            return abs(value - GG_LINEAR) <= 2e-5, {"value": value}

        def lp(p: float, want: float):
            def call():
                value = flow_engine.lp_length(self.flow, p)
                return abs(value - want) <= LP_REL_TOL * want, {"value": value}
            return call

        def psi():
            code, art = _cli("psi-bound", self.out)
            ok = (code == 0 and art["verdict"] == "PASS"
                  and abs(art["value_at_zero"] - math.pi ** 2 / 2)
                  <= 1e-3 * math.pi ** 2 / 2
                  and abs(art["tail_value_scaled"] - math.pi) <= 0.02 * math.pi)
            return ok, dict(art, exit_code=code)

        def embed():
            code, art = _cli("embed-demo", self.out,
                             "--seed", str(rep_seed(self.seed, rep)))
            return code == 0 and art["verdict"] == "PASS", dict(art, exit_code=code)

        return [_guarded("gg_rhs", gg),
                _guarded("lp_length(p=inf)", lp(math.inf, LP_INF_LINEAR)),
                _guarded("lp_length(p=2)", lp(2.0, LP_2_LINEAR)),
                _guarded("psi-bound", psi),
                _guarded("embed-demo", embed)]


WORKLOADS = {w.name: w for w in (GgStep, GgRigid, Monitor, Quadrature)}

# sizes small enough for a unit test and for the untimed warm-up repetition
TINY = {"gg-step": 6, "gg-rigid": 4, "monitor": 6, "quadrature": 101}
