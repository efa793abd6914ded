"""Command line entry points with reproducible CSV/JSON artifacts.

Every subcommand reads its parameters from built-in defaults, an optional
JSON config file, and flag overrides, in that order, and `resolve_params`
checks them all before the command runs.  A command returns an `Outcome`;
`main` writes it as <command>.csv and <command>.json.  The resolved
parameters are hashed (sha256 of canonical JSON) and the hash is embedded in
every output, so identical configs are recognizable and identical runs are
byte-identical.  Exit codes: 0 pass, 2 FAIL verdict or numerical failure,
3 degeneracy or rejection budget exceeded, 4 invalid config; every nonzero
exit but a FAIL verdict writes one line to stderr and no artifact.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import json
import math
import sys
from pathlib import Path

import numpy as np

from . import analysis_bench, braid_algebra, braid_trace, flow_engine, qm_estimator
from .chart_geometry import PROBABILITY, ROUND_2PI, radius_from_height

ARTIFACT_VERSION = "0.1.0"

EXIT_OK = 0
EXIT_TOLERANCE = 2
EXIT_DEGENERACY = 3
EXIT_CONFIG = 4


class ConfigError(ValueError):
    pass


class _Parser(argparse.ArgumentParser):
    """argparse that reports bad usage as a config error, not exit code 2."""

    def error(self, message):
        raise ConfigError(message)


DEFAULT_STEP = {"type": "step", "lambda": 1.0, "u0": 0.5, "ramp": 0.01}

DEFAULTS = {
    "gg-check": {
        "profile": DEFAULT_STEP,
        "n_points": 4,
        "samples": 300,
        "t_list": [1, 2, 3, 4, 5, 6, 7, 8],
        "seed": 7,
        "measure": "prob",
        "kind": "s-combination",
        "tolerance_rel": 0.10,
        "mismatch_n": False,
    },
    "psi-bound": {
        "a_max": 1000.0,
        "n_grid": 25,
        "tol": 1e-6,
        "tail_a": 100.0,
    },
    "embed-demo": {
        "d": 2,
        "p": 2.5,
        "n_vectors": 20,
        "v_scale": 3.0,
        "seed": 11,
        "height": 1.0,
        "ramp": 0.01,
        "ratio_spread_max": 20.0,
    },
    "braid-of-flow": {
        "profile": DEFAULT_STEP,
        "duration": 2.0,
        "n_points": 3,
        "seed": 5,
        "x": None,
    },
    "coarea-check": {
        "profile": DEFAULT_STEP,
        "n_loops": 5,
        "n_dirs": 1000,
        "t_choices": [3.0, 4.0, 5.0],
        "n_points": 2,
        "seed": 13,
        "tolerance_rel": 0.02,
    },
    "lp-length": {
        "profile": {"type": "constant", "value": 1.0},
        "weight": 1.0,
        "p": 2.0,
        "t_list": [1.0, 2.0, 4.0],
        "tolerance_rel": 1e-6,
    },
    "phi-estimate": {
        "profile": DEFAULT_STEP,
        "duration": 2.0,
        "n_points": 4,
        "samples": 200,
        "seed": 3,
        "measure": "prob",
        "kind": "s-combination",
        "homogenize": False,
    },
}

_FLAG_KEYS = {"seed": "seed", "samples": "samples", "p": "p",
              "measure": "measure"}

_CONVENTIONS = {"prob": PROBABILITY, "2pi": ROUND_2PI}


def _real(v) -> float:
    if isinstance(v, bool):  # float() reads true and false as 1 and 0
        raise TypeError("a boolean is not a number")
    return float(v)


def _durations(v) -> bool:
    return (isinstance(v, list) and len(v) > 0
            and all(0.0 < _real(t) < math.inf for t in v))


_KIND = (lambda v: v in braid_algebra.QM_KINDS,
         f"one of {', '.join(braid_algebra.QM_KINDS)}")
_MEASURE = (lambda v: v in _CONVENTIONS, f"one of {', '.join(_CONVENTIONS)}")
_SAMPLES = (lambda v: v >= 2, ">= 2")
_DURATIONS = (_durations, "a nonempty list of positive finite durations")
# a least-squares slope and its residual need three durations
_SLOPE_DURATIONS = (lambda v: _durations(v) and len(v) >= 3 and all(
                        _real(a) < _real(b) for a, b in zip(v, v[1:])),
                    "at least 3 strictly increasing positive finite "
                    "durations")
_EXPONENT = (lambda v: _real(v) >= 1.0, ">= 1")
_POSITIVE = (lambda v: 0.0 < _real(v) < math.inf, "positive and finite")
_FINITE = (lambda v: math.isfinite(_real(v)), "a finite number")
_POINTS = (lambda v: v is None or (isinstance(v, list) and all(
               len(z) == 2 and all(math.isfinite(_real(c)) for c in z)
               for z in v)),
           "null or a list of [re, im] pairs of finite numbers")

# Values refused before a command runs: key -> (test, what it must be).  A
# test may raise TypeError, ValueError or OverflowError on a value of the
# wrong type.
_RANGES = {
    "gg-check": {
        "n_points": (lambda v: v >= 4 and v % 2 == 0, "an even number >= 4"),
        "samples": _SAMPLES,
        "t_list": _SLOPE_DURATIONS,
        "measure": _MEASURE,
        "kind": _KIND,
        "tolerance_rel": _POSITIVE,
    },
    "psi-bound": {
        "a_max": (lambda v: 1.0 < _real(v) < math.inf, "> 1 and finite"),
        "n_grid": (lambda v: v >= 3, ">= 3"),
        "tol": (lambda v: _real(v) > 0.0, "> 0"),
        "tail_a": _POSITIVE,
    },
    "embed-demo": {
        "d": (lambda v: 1 <= v <= 4, "between 1 and 4"),
        "p": _EXPONENT,
        "n_vectors": (lambda v: v >= 1, ">= 1"),
        "v_scale": _POSITIVE,
        "height": _FINITE,
        "ramp": _POSITIVE,
        "ratio_spread_max": _POSITIVE,
    },
    "braid-of-flow": {
        "n_points": (lambda v: v >= 1, ">= 1"),
        "duration": _POSITIVE,
        "x": _POINTS,
    },
    "coarea-check": {
        # fewer would average over no directions or no pairs
        "n_loops": (lambda v: v >= 1, ">= 1"),
        "n_dirs": (lambda v: v >= 1, ">= 1"),
        "n_points": (lambda v: v >= 2, ">= 2"),
        "t_choices": _DURATIONS,
        "tolerance_rel": _POSITIVE,
    },
    "lp-length": {
        "weight": _FINITE,
        "p": _EXPONENT,
        "t_list": _DURATIONS,
        "tolerance_rel": _POSITIVE,
    },
    "phi-estimate": {
        "duration": _POSITIVE,
        "n_points": (lambda v: v >= 2, ">= 2"),
        "samples": _SAMPLES,
        "measure": _MEASURE,
        "kind": _KIND,
    },
}


def _plain(x):
    """JSON-safe copy: tuples to lists, numpy scalars to python numbers."""
    if isinstance(x, dict):
        return {str(k): _plain(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_plain(v) for v in x]
    if isinstance(x, (bool, int, str)) or x is None:
        return x
    if isinstance(x, (float, np.floating)):
        return float(x)
    if isinstance(x, np.integer):
        return int(x)
    raise TypeError(f"cannot serialize {type(x).__name__}")


def canonical_json(obj) -> str:
    return json.dumps(_plain(obj), sort_keys=True, separators=(",", ":"))


def config_hash(params: dict) -> str:
    return hashlib.sha256(canonical_json(params).encode("utf-8")).hexdigest()


def resolve_params(command: str, args) -> dict:
    params = {k: (dict(v) if isinstance(v, dict) else
                  list(v) if isinstance(v, list) else v)
              for k, v in DEFAULTS[command].items()}
    if args.config is not None:
        try:
            loaded = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config: {exc}") from exc
        if not isinstance(loaded, dict):
            raise ConfigError("config file must hold a JSON object")
        for key, value in loaded.items():
            if key not in params:
                raise ConfigError(f"unknown config key {key!r} for {command}")
            params[key] = value
    for flag, key in _FLAG_KEYS.items():
        value = getattr(args, flag, None)
        if value is not None:
            if key not in params:
                raise ConfigError(f"--{flag} does not apply to {command}")
            params[key] = value
    if getattr(args, "mismatch_n", False):
        params["mismatch_n"] = True
    for key, default in DEFAULTS[command].items():
        value = params[key]
        if type(default) in (int, bool) and type(value) is not type(default):
            what = "an integer" if type(default) is int else "true or false"
            raise ConfigError(f"{key} must be {what}, not {value!r}")
    if params.get("seed", 0) < 0:
        raise ConfigError("seed must be nonnegative")
    for key, (test, want) in _RANGES.get(command, {}).items():
        try:
            ok = test(params[key])
        except (TypeError, ValueError, OverflowError):
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {want}, not {params[key]!r}")
    return params


def _resolve_profile(desc) -> flow_engine.RadialProfile:
    if not isinstance(desc, dict):
        raise ConfigError("profile must be a JSON object")
    desc = dict(desc)
    try:
        if desc.get("type") == "step" and "u0" in desc:
            desc.setdefault("r0", radius_from_height(float(desc.pop("u0"))))
        return flow_engine.profile_from_json(desc)
    except (ValueError, KeyError, TypeError, OverflowError) as exc:
        raise ConfigError(f"bad profile: {exc}") from exc


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return repr(float(value))
    return str(value)


def write_csv(path: Path, header, rows) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(",".join(header) + "\n")
        for row in rows:
            fh.write(",".join(_fmt(v) for v in row) + "\n")


def write_json(path: Path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        json.dump(_plain(payload), fh, sort_keys=True, indent=2)
        fh.write("\n")


# What a command found: its CSV header and rows, its JSON result fields, its
# verdict (None when it checks nothing and always exits 0) and its summary.
# A namedtuple, because it is built at import, about 10x faster than a
# frozen dataclass.
Outcome = collections.namedtuple(
    "Outcome", ["header", "rows", "results", "verdict", "summary"])


def _report(command: str, params: dict, outcome: Outcome) -> dict:
    payload = {
        "command": command,
        "version": ARTIFACT_VERSION,
        "config": params,
        "config_hash": config_hash(params),
        "seed": params.get("seed"),
        "verdict": (None if outcome.verdict is None else
                    ("PASS" if outcome.verdict else "FAIL")),
    }
    payload.update(outcome.results)
    return payload


def cmd_gg_check(params: dict) -> Outcome:
    profile = _resolve_profile(params["profile"])
    n_points = params["n_points"]
    n_formula = n_points // 2 + (1 if params["mismatch_n"] else 0)
    gg = analysis_bench.gg_rhs(profile, n_formula)
    qm = braid_algebra.qm_for_strands(n_points, params["kind"])
    bar = qm_estimator.phi_bar_estimate(
        flow_engine.single_flow(profile),
        [float(t) for t in params["t_list"]], n_points, qm,
        params["samples"], params["seed"],
        convention=_CONVENTIONS[params["measure"]])
    tol = max(3.0 * bar.stderr, float(params["tolerance_rel"]) * abs(gg))
    return Outcome(["t", "mean", "stderr"], bar.per_t, {
        "quadrature_value": gg,
        "mc_slope": bar.value,
        "mc_stderr": bar.stderr,
        "tolerance": tol,
        "rejected": bar.rejected,
        "linearity_warning": bar.linearity_warning,
    }, abs(bar.value - gg) <= tol,
        f"quadrature {gg:.6f}  mc {bar.value:.6f} +/- {bar.stderr:.6f}")


def cmd_psi_bound(params: dict) -> Outcome:
    a_max = float(params["a_max"])
    tail_a = float(params["tail_a"])
    grid = sorted({0.0, 1.0, tail_a, a_max}
                  | set(np.geomspace(0.1, a_max, params["n_grid"]).tolist()))
    c_star, arg, rows = analysis_bench.psi0_bound_scan(grid,
                                                       float(params["tol"]))
    at_zero = rows[0][1]
    tail_val = next(value for a, value, _ in rows if a == tail_a)
    zero_ok = abs(at_zero - math.pi ** 2 / 2) <= 1e-3 * math.pi ** 2 / 2
    tail_ok = abs(tail_val * tail_a - math.pi) <= 0.02 * math.pi
    finite = all(math.isfinite(r[2]) for r in rows)
    return Outcome(["a", "psi0", "ratio"], rows, {
        "c_star": c_star,
        "argmax_a": arg,
        "full_bound_constant": 2.0 * c_star,
        "value_at_zero": at_zero,
        "tail_value_scaled": tail_val * tail_a,
        "checks": {"zero": zero_ok, "tail": tail_ok, "finite": finite},
    }, zero_ok and tail_ok and finite, f"C* {c_star:.6f} at |a|={arg:g}")


def cmd_embed_demo(params: dict) -> Outcome:
    d = params["d"]
    try:
        profiles = analysis_bench.default_embedding_profiles(
            d, float(params["height"]), float(params["ramp"]))
    except ValueError as exc:  # a ramp too wide for d annuli
        raise ConfigError(str(exc)) from exc
    rng = np.random.default_rng(
        np.random.SeedSequence((params["seed"], 0xE3BED)))
    vs = rng.uniform(-float(params["v_scale"]), float(params["v_scale"]),
                     size=(params["n_vectors"], d))
    report = analysis_bench.evaluate_embedding(profiles, vs.tolist(),
                                               float(params["p"]))
    spread = (report.ratio_max / report.ratio_min
              if report.ratio_min else math.inf)
    verdict = (abs(report.row_normalized_det) > 1e-6
               and spread < float(params["ratio_spread_max"]))
    header = [f"v{i + 1}" for i in range(d)] + ["lower", "upper", "ratio"]
    rows = [list(v) + [lo, up, (up / lo if lo else math.nan)]
            for v, lo, up in report.bounds]
    return Outcome(header, rows, {
        "matrix": [list(r) for r in report.matrix],
        "det": report.det,
        "row_normalized_det": report.row_normalized_det,
        "condition_number": report.condition_number,
        "coefficients": [list(r) for r in report.coefficients],
        "solve_residual": report.solve_residual,
        "lengths": list(report.lengths),
        "a_hat": report.a_hat,
        "ratio_max": report.ratio_max,
        "ratio_min": report.ratio_min,
        "ratio_spread": spread,
    }, verdict, f"|det_norm| {abs(report.row_normalized_det):.4f}  "
                f"ratio spread {spread:.3f}")


def cmd_braid_of_flow(params: dict) -> Outcome:
    profile = _resolve_profile(params["profile"])
    n_points = params["n_points"]
    spec = flow_engine.single_flow(profile, float(params["duration"]))
    base = braid_trace.base_tuple(n_points)
    if params["x"] is not None:
        coords = [complex(float(re), float(im)) for re, im in params["x"]]
        if len(coords) != n_points:
            raise ConfigError("x must list n_points coordinates")
        x = braid_trace.tuple_from_coords(coords)
        loop = braid_trace.build_loop(spec, x, base)
    else:
        rng = np.random.default_rng(
            np.random.SeedSequence((params["seed"], 0xB4A1D)))
        for _ in range(100):
            try:
                x = braid_trace.random_tuple(rng, n_points)
                loop = braid_trace.build_loop(spec, x, base)
                break
            except braid_trace.TraceRejection:
                continue
        else:
            raise qm_estimator.RejectionBudgetError(
                "braid-of-flow rejected 100 draws")
    word = braid_trace.extract_braid(loop)
    writhe = braid_algebra.writhe(word)
    return Outcome(["segment", "t", "strand", "re", "im"],
                   braid_trace.trace_rows(loop), {
        "word": word.to_text(),
        "n_letters": len(word.letters),
        "writhe": writhe,
        "permutation_identity": True,
        "x": [[z.real, z.imag] for z in x.coords()],
    }, None, f"word '{word.to_text()}'  writhe {writhe}")


def _disc_conditioned_tuple(rng: np.random.Generator, n: int,
                            r_cap: float) -> braid_trace.ConfigTuple:
    """Round-measure sample conditioned on all points inside radius r_cap."""
    for _ in range(10_000):
        try:
            x = braid_trace.random_tuple(rng, n)
        except braid_trace.TraceRejection:
            continue
        if all(abs(z) < r_cap for z in x.coords()):
            return x
    raise braid_trace.SeparationError("disc-conditioned sampling starved")


def cmd_coarea_check(params: dict) -> Outcome:
    profile = _resolve_profile(params["profile"])
    knots = [r for r in profile.breakpoint_radii() if r > 0]
    if not knots:
        raise ConfigError("coarea-check needs a profile knot at a positive "
                          "radius to bound its sampling disc")
    plateau = min(knots)
    n_points = params["n_points"]
    tol = float(params["tolerance_rel"])
    rng = np.random.default_rng(
        np.random.SeedSequence((params["seed"], 0xC0A4EA)))
    rows = []
    worst = 0.0
    for k in range(params["n_loops"]):
        t_choices = params["t_choices"]
        duration = float(t_choices[k % len(t_choices)])
        x = _disc_conditioned_tuple(rng, n_points, 0.95 * plateau)
        loop = braid_trace.build_loop(
            flow_engine.single_flow(profile, duration), x,
            braid_trace.base_tuple(n_points))
        for i in range(n_points):
            for j in range(i + 1, n_points):
                # alignment with the ray omega happens once per full turn
                tav = braid_trace.total_angular_variation(loop, i, j)
                expected = tav
                for _ in range(5):
                    try:
                        omegas = np.exp(2j * np.pi
                                        * rng.uniform(size=params["n_dirs"]))
                        counts = braid_trace.crossing_counts(loop, i, j,
                                                             omegas)
                        break
                    except braid_trace.DegenerateDirectionError:
                        continue
                else:
                    raise braid_trace.DegenerateDirectionError(
                        f"no generic directions for pair {i},{j} in 5 tries")
                mean = float(np.mean(counts))
                rel = abs(mean - expected) / expected
                worst = max(worst, rel)
                rows.append((k, duration, i, j, tav, expected, mean, rel))
    return Outcome(["loop", "t", "i", "j", "tav_turns", "expected_crossings",
                    "mean_crossings", "rel_dev"], rows, {
        "worst_rel_dev": worst,
        "n_pairs": len(rows),
    }, worst <= tol, f"worst relative deviation {worst:.4f}")


def cmd_lp_length(params: dict) -> Outcome:
    profile = _resolve_profile(params["profile"])
    weight = float(params["weight"])
    p = float(params["p"])
    t_list = [float(t) for t in params["t_list"]]
    rows = []
    for t in t_list:
        length = flow_engine.lp_length(
            flow_engine.FlowSpec(((profile, weight),), t), p)
        rows.append((t, p, length, length / t))
    per_t = [r[3] for r in rows]
    scaling_ok = (max(per_t) - min(per_t)) <= 1e-9 * max(per_t)
    closed_form = None
    closed_ok = True
    if len(profile.knots) == 1 and p == 2.0:  # a rigid rotation
        rate = abs(weight * profile.tail_value)
        closed_form = rate * 2.0 * math.pi * math.sqrt(math.pi / 3.0)
        closed_ok = (abs(per_t[0] - closed_form)
                     <= float(params["tolerance_rel"]) * closed_form)
    return Outcome(["t", "p", "length", "length_per_t"], rows, {
        "lengths": [r[2] for r in rows],
        "closed_form": closed_form,
        "checks": {"scaling": scaling_ok, "closed_form": closed_ok},
    }, scaling_ok and closed_ok, f"L(1)={per_t[0]:.8f}")


def cmd_phi_estimate(params: dict) -> Outcome:
    profile = _resolve_profile(params["profile"])
    n_points = params["n_points"]
    qm = braid_algebra.qm_for_strands(n_points, params["kind"])
    if params["homogenize"]:
        qm = braid_algebra.QmOnBraids(qm.kind, qm.ratio, qm.n_strands,
                                      qm.depth, homogenize=True)
    est = qm_estimator.phi_estimate(
        flow_engine.single_flow(profile, float(params["duration"])),
        n_points, qm, params["samples"], params["seed"],
        convention=_CONVENTIONS[params["measure"]])
    return Outcome(["n_points", "duration", "samples", "value", "stderr",
                    "rejected"],
                   [(est.n_points, est.duration, est.samples, est.value,
                     est.stderr, est.rejected)], {
        "value": est.value,
        "stderr": est.stderr,
        "rejected": est.rejected,
        "invariant_kind": est.invariant_kind,
    }, None, f"{est.value:.6f} +/- {est.stderr:.6f}")


_COMMANDS = {
    "gg-check": cmd_gg_check,
    "psi-bound": cmd_psi_bound,
    "embed-demo": cmd_embed_demo,
    "braid-of-flow": cmd_braid_of_flow,
    "coarea-check": cmd_coarea_check,
    "lp-length": cmd_lp_length,
    "phi-estimate": cmd_phi_estimate,
}


def build_parser() -> _Parser:
    parser = _Parser(prog="braidflow",
                     description="flow-braid invariant experiments")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _COMMANDS:
        cmd = sub.add_parser(name)
        cmd.add_argument("--config", type=str, default=None)
        cmd.add_argument("--seed", type=int, default=None)
        cmd.add_argument("--samples", type=int, default=None)
        cmd.add_argument("--out", type=str, default=".")
        cmd.add_argument("--measure", choices=list(_CONVENTIONS), default=None)
        cmd.add_argument("--p", type=float, default=None)
        if name == "gg-check":
            cmd.add_argument("--mismatch-n", action="store_true",
                             dest="mismatch_n")
    return parser


def main(argv=None) -> int:
    """Run one command, write <command>.csv and <command>.json, exit 0/2/3/4."""
    try:
        args = build_parser().parse_args(argv)
        command = args.command
        params = resolve_params(command, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        outcome = _COMMANDS[command](params)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (braid_trace.TraceRejection, braid_trace.DegenerateDirectionError,
            braid_trace.ExtractionError, qm_estimator.RejectionBudgetError,
            analysis_bench.SingularMatrixError) as exc:
        print(f"degeneracy: {exc}", file=sys.stderr)
        return EXIT_DEGENERACY
    except (analysis_bench.PsiConvergenceError, flow_engine.QuadratureError,
            braid_trace.RefinementError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return EXIT_TOLERANCE
    write_csv(out / f"{command}.csv", outcome.header, outcome.rows)
    write_json(out / f"{command}.json", _report(command, params, outcome))
    if outcome.verdict is None:
        print(f"{command}: {outcome.summary}")
        return EXIT_OK
    print(f"{command}: {outcome.summary}  "
          f"{'PASS' if outcome.verdict else 'FAIL'}")
    return EXIT_OK if outcome.verdict else EXIT_TOLERANCE


if __name__ == "__main__":
    sys.exit(main())
