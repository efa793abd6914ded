"""Command line entry points with reproducible CSV/JSON artifacts.

Every subcommand reads its parameters from built-in defaults, an optional
JSON config file, and flag overrides, in that order.  The resolved
parameters are hashed (sha256 of canonical JSON) and the hash is embedded in
every output, so identical configs are recognizable and identical runs are
byte-identical.  Exit codes: 0 pass, 2 numerical tolerance failure,
3 degeneracy or rejection budget exceeded, 4 invalid config.
"""

from __future__ import annotations

import argparse
import contextlib
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

_KIND = (lambda v: v in braid_algebra.QM_KINDS,
         f"one of {', '.join(braid_algebra.QM_KINDS)}")
_DURATIONS = (lambda v: len(v) > 0 and all(0.0 < float(t) < math.inf
                                            for t in v),
              "a nonempty list of positive finite durations")
_EXPONENT = (lambda v: float(v) >= 1.0, ">= 1")
_POSITIVE = (lambda v: 0.0 < float(v) < math.inf, "positive and finite")
_FINITE = (lambda v: math.isfinite(float(v)), "a finite number")
_POINTS = (lambda v: v is None or (isinstance(v, list) and all(
               len(z) == 2 and all(math.isfinite(float(c)) for c in z)
               for z in v)),
           "null or a list of [re, im] pairs of finite numbers")

# Values refused before a command runs: key -> (test, what it must be).  A
# test may raise TypeError or ValueError on a value of the wrong type.
_RANGES = {
    "gg-check": {
        "n_points": (lambda v: v >= 4 and v % 2 == 0, "an even number >= 4"),
        "kind": _KIND,
        "tolerance_rel": _POSITIVE,
    },
    "psi-bound": {
        "a_max": (lambda v: float(v) > 1.0, "> 1"),
        "n_grid": (lambda v: v >= 3, ">= 3"),
        "tol": (lambda v: float(v) > 0.0, "> 0"),
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
        except (TypeError, ValueError):
            ok = False
        if not ok:
            raise ConfigError(f"{key} must be {want}, not {params[key]!r}")
    return params


@contextlib.contextmanager
def _refusal_is_config_error(kind=ValueError):
    """Report a `kind` error raised on the parameters as a config error."""
    try:
        yield
    except kind as exc:
        raise ConfigError(str(exc)) from exc


def _resolve_profile(desc) -> flow_engine.RadialProfile:
    if not isinstance(desc, dict):
        raise ConfigError("profile must be a JSON object")
    desc = dict(desc)
    if desc.get("type") == "step" and "u0" in desc:
        u0 = float(desc.pop("u0"))
        desc.setdefault("r0", radius_from_height(u0))
    try:
        return flow_engine.profile_from_json(desc)
    except (ValueError, KeyError, TypeError) as exc:
        raise ConfigError(f"bad profile: {exc}") from exc


def _convention(name: str):
    try:
        return {"prob": PROBABILITY, "2pi": ROUND_2PI}[name]
    except KeyError:
        raise ConfigError(f"unknown measure convention {name!r}") from None


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


def _report(command: str, params: dict, results: dict,
            verdict: bool | None) -> dict:
    payload = {
        "command": command,
        "version": ARTIFACT_VERSION,
        "config": params,
        "config_hash": config_hash(params),
        "seed": params.get("seed"),
        "verdict": (None if verdict is None else
                    ("PASS" if verdict else "FAIL")),
    }
    payload.update(results)
    return payload


def cmd_gg_check(params: dict, out: Path) -> int:
    profile = _resolve_profile(params["profile"])
    n_points = params["n_points"]
    n_formula = n_points // 2 + (1 if params["mismatch_n"] else 0)
    gg = analysis_bench.gg_rhs(profile, n_formula)
    qm = braid_algebra.qm_for_strands(n_points, params["kind"])
    with _refusal_is_config_error(qm_estimator.EstimatorArgumentError):
        bar = qm_estimator.phi_bar_estimate(
            flow_engine.single_flow(profile),
            [float(t) for t in params["t_list"]], n_points, qm,
            params["samples"], params["seed"],
            convention=_convention(params["measure"]))
    tol = max(3.0 * bar.stderr, float(params["tolerance_rel"]) * abs(gg))
    verdict = abs(bar.value - gg) <= tol
    write_csv(out / "gg-check.csv", ["t", "mean", "stderr"], bar.per_t)
    write_json(out / "gg-check.json", _report("gg-check", params, {
        "quadrature_value": gg,
        "mc_slope": bar.value,
        "mc_stderr": bar.stderr,
        "tolerance": tol,
        "rejected": bar.rejected,
        "linearity_warning": bar.linearity_warning,
    }, verdict))
    print(f"gg-check: quadrature {gg:.6f}  mc {bar.value:.6f} "
          f"+/- {bar.stderr:.6f}  {'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_TOLERANCE


def cmd_psi_bound(params: dict, out: Path) -> int:
    a_max = float(params["a_max"])
    n_grid = params["n_grid"]
    tol = float(params["tol"])
    tail_a = float(params["tail_a"])
    grid = sorted({0.0, 1.0, tail_a, a_max}
                  | set(np.geomspace(0.1, a_max, n_grid).tolist()))
    rows = []
    for a in grid:
        value = analysis_bench.psi0(a, tol)
        rows.append((a, value, value * math.sqrt(1.0 + a * a)))
    c_star = max(r[2] for r in rows)
    arg = max(rows, key=lambda r: r[2])[0]
    at_zero = rows[0][1]
    tail_val = next(r[1] for r in rows if r[0] == tail_a)
    zero_ok = abs(at_zero - math.pi ** 2 / 2) <= 1e-3 * math.pi ** 2 / 2
    tail_ok = abs(tail_val * tail_a - math.pi) <= 0.02 * math.pi
    finite = all(math.isfinite(r[2]) for r in rows)
    verdict = zero_ok and tail_ok and finite
    write_csv(out / "psi-bound.csv", ["a", "psi0", "ratio"], rows)
    write_json(out / "psi-bound.json", _report("psi-bound", params, {
        "c_star": c_star,
        "argmax_a": arg,
        "full_bound_constant": 2.0 * c_star,
        "value_at_zero": at_zero,
        "tail_value_scaled": tail_val * tail_a,
        "checks": {"zero": zero_ok, "tail": tail_ok, "finite": finite},
    }, verdict))
    print(f"psi-bound: C* {c_star:.6f} at |a|={arg:g}  "
          f"{'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_TOLERANCE


def cmd_embed_demo(params: dict, out: Path) -> int:
    d = params["d"]
    with _refusal_is_config_error():  # a ramp too wide for d annuli
        profiles = analysis_bench.default_embedding_profiles(
            d, float(params["height"]), float(params["ramp"]))
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
    write_csv(out / "embed-demo.csv", header, rows)
    write_json(out / "embed-demo.json", _report("embed-demo", params, {
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
    }, verdict))
    print(f"embed-demo: |det_norm| {abs(report.row_normalized_det):.4f}  "
          f"ratio spread {spread:.3f}  {'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_TOLERANCE


def cmd_braid_of_flow(params: dict, out: Path) -> int:
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
        loop = None
        for _ in range(100):
            try:
                x = braid_trace.random_tuple(rng, n_points)
                loop = braid_trace.build_loop(spec, x, base)
                break
            except braid_trace.TraceRejection:
                continue
        if loop is None:
            print("braid-of-flow: rejection budget exhausted", file=sys.stderr)
            return EXIT_DEGENERACY
    word = braid_trace.extract_braid(loop)
    with open(out / "braid-of-flow.csv", "w", encoding="utf-8",
              newline="\n") as fh:
        braid_trace.trace_to_csv(loop, fh)
    write_json(out / "braid-of-flow.json", _report("braid-of-flow", params, {
        "word": word.to_text(),
        "n_letters": len(word.letters),
        "writhe": braid_algebra.writhe(word),
        "permutation_identity": True,
        "x": [[z.real, z.imag] for z in x.coords()],
    }, None))
    print(f"braid-of-flow: word '{word.to_text()}'  "
          f"writhe {braid_algebra.writhe(word)}")
    return EXIT_OK


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


def cmd_coarea_check(params: dict, out: Path) -> int:
    profile = _resolve_profile(params["profile"])
    n_points = params["n_points"]
    tol = float(params["tolerance_rel"])
    rng = np.random.default_rng(
        np.random.SeedSequence((params["seed"], 0xC0A4EA)))
    plateau = min(r for r in profile.breakpoint_radii() if r > 0)
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
                counts = None
                for _ in range(5):
                    try:
                        omegas = np.exp(2j * np.pi
                                        * rng.uniform(size=params["n_dirs"]))
                        counts = braid_trace.crossing_counts(loop, i, j,
                                                             omegas)
                        break
                    except braid_trace.DegenerateDirectionError:
                        continue
                if counts is None:
                    return EXIT_DEGENERACY
                mean = float(np.mean(counts))
                rel = abs(mean - expected) / expected
                worst = max(worst, rel)
                rows.append((k, duration, i, j, tav, expected, mean, rel))
    verdict = worst <= tol
    write_csv(out / "coarea-check.csv",
              ["loop", "t", "i", "j", "tav_turns", "expected_crossings",
               "mean_crossings", "rel_dev"], rows)
    write_json(out / "coarea-check.json", _report("coarea-check", params, {
        "worst_rel_dev": worst,
        "n_pairs": len(rows),
    }, verdict))
    print(f"coarea-check: worst relative deviation {worst:.4f}  "
          f"{'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_TOLERANCE


def cmd_lp_length(params: dict, out: Path) -> int:
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
    desc = params["profile"]
    closed_form = None
    closed_ok = True
    if (isinstance(desc, dict) and desc.get("type") == "constant"
            and p == 2.0):
        rate = abs(weight * float(desc["value"]))
        closed_form = rate * 2.0 * math.pi * math.sqrt(math.pi / 3.0)
        closed_ok = (abs(per_t[0] - closed_form)
                     <= float(params["tolerance_rel"]) * closed_form)
    verdict = scaling_ok and closed_ok
    write_csv(out / "lp-length.csv", ["t", "p", "length", "length_per_t"],
              rows)
    write_json(out / "lp-length.json", _report("lp-length", params, {
        "lengths": [r[2] for r in rows],
        "closed_form": closed_form,
        "checks": {"scaling": scaling_ok, "closed_form": closed_ok},
    }, verdict))
    print(f"lp-length: L(1)={per_t[0]:.8f}  "
          f"{'PASS' if verdict else 'FAIL'}")
    return EXIT_OK if verdict else EXIT_TOLERANCE


def cmd_phi_estimate(params: dict, out: Path) -> int:
    profile = _resolve_profile(params["profile"])
    n_points = params["n_points"]
    qm = braid_algebra.qm_for_strands(n_points, params["kind"])
    if params["homogenize"]:
        qm = braid_algebra.QmOnBraids(qm.kind, qm.ratio, qm.n_strands,
                                      qm.depth, homogenize=True)
    with _refusal_is_config_error(qm_estimator.EstimatorArgumentError):
        est = qm_estimator.phi_estimate(
            flow_engine.single_flow(profile, float(params["duration"])),
            n_points, qm, params["samples"], params["seed"],
            convention=_convention(params["measure"]))
    write_csv(out / "phi-estimate.csv",
              ["n_points", "duration", "samples", "value", "stderr",
               "rejected"],
              [(est.n_points, est.duration, est.samples, est.value,
                est.stderr, est.rejected)])
    write_json(out / "phi-estimate.json", _report("phi-estimate", params, {
        "value": est.value,
        "stderr": est.stderr,
        "rejected": est.rejected,
        "invariant_kind": est.invariant_kind,
    }, None))
    print(f"phi-estimate: {est.value:.6f} +/- {est.stderr:.6f}")
    return EXIT_OK


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
        cmd.add_argument("--measure", choices=["prob", "2pi"], default=None)
        cmd.add_argument("--p", type=float, default=None)
        if name == "gg-check":
            cmd.add_argument("--mismatch-n", action="store_true",
                             dest="mismatch_n")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        params = resolve_params(args.command, args)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        return _COMMANDS[args.command](params, out)
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


if __name__ == "__main__":
    sys.exit(main())
