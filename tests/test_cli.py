"""Command line driver: exit codes, artifacts, determinism."""

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

import braidflow
from braidflow import braid_trace, cli, qm_estimator


def run(tmp_path, name, *argv):
    out = tmp_path / name
    code = cli.main(list(argv) + ["--out", str(out)])
    return code, out


def load(out, command):
    with open(out / f"{command}.json", encoding="utf-8") as fh:
        return json.load(fh)


def test_lp_length_passes_and_reports(tmp_path):
    code, out = run(tmp_path, "a", "lp-length")
    assert code == 0
    rep = load(out, "lp-length")
    assert rep["verdict"] == "PASS"
    assert rep["command"] == "lp-length"
    assert "config_hash" in rep
    closed = 2.0 * math.pi * math.sqrt(math.pi / 3.0)
    assert rep["closed_form"] == pytest.approx(closed, rel=1e-9)


def test_lp_length_reruns_are_byte_identical(tmp_path):
    _, out1 = run(tmp_path, "a", "lp-length")
    _, out2 = run(tmp_path, "b", "lp-length")
    for name in ("lp-length.json", "lp-length.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


def test_psi_bound_scan(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"a_max": 50.0, "n_grid": 6}))
    code, out = run(tmp_path, "a", "psi-bound", "--config", str(cfg))
    assert code == 0
    rep = load(out, "psi-bound")
    assert rep["verdict"] == "PASS"
    assert rep["c_star"] == pytest.approx(math.pi ** 2 / 2.0,
                                                     rel=1e-4)


def test_coarea_check(tmp_path):
    code, out = run(tmp_path, "a", "coarea-check")
    assert code == 0
    rep = load(out, "coarea-check")
    assert rep["verdict"] == "PASS"
    assert rep["worst_rel_dev"] <= 0.02


def test_embed_demo(tmp_path):
    code, out = run(tmp_path, "a", "embed-demo")
    assert code == 0
    rep = load(out, "embed-demo")
    assert rep["verdict"] == "PASS"
    assert abs(rep["row_normalized_det"]) > 1e-6


def test_braid_of_flow_explicit_configuration(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "duration": 1.0,
        "n_points": 2,
        "x": [[0.25, 0.1], [-0.2, 0.15]],
    }))
    code, out = run(tmp_path, "a", "braid-of-flow", "--config", str(cfg))
    assert code == 0
    rep = load(out, "braid-of-flow")
    assert rep["writhe"] == 2
    assert rep["x"] == [[0.25, 0.1], [-0.2, 0.15]]
    header = (out / "braid-of-flow.csv").read_text().splitlines()[0]
    assert header == "segment,t,strand,re,im"


def test_braid_of_flow_random_configuration(tmp_path):
    code, out = run(tmp_path, "a", "braid-of-flow")
    assert code == 0
    rep = load(out, "braid-of-flow")
    assert rep["permutation_identity"] is True


def test_phi_estimate_small_run(tmp_path):
    code, out = run(tmp_path, "a", "phi-estimate", "--samples", "20")
    assert code == 0
    rep = load(out, "phi-estimate")
    assert rep["config"]["samples"] == 20
    assert rep["rejected"] == 0
    assert isinstance(rep["value"], float)


def test_gg_check_small_run(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 80, "t_list": [1, 2, 3, 4]}))
    code, out = run(tmp_path, "a", "gg-check", "--config", str(cfg))
    assert code == 0
    rep = load(out, "gg-check")
    assert rep["verdict"] == "PASS"
    assert rep["quadrature_value"] == pytest.approx(-9.0 / 64.0, rel=0.05)
    lines = (out / "gg-check.csv").read_text().splitlines()
    assert lines[0] == "t,mean,stderr"
    assert len(lines) == 5


def test_gg_check_mismatched_moment_fails(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"samples": 80, "t_list": [1, 2, 3, 4]}))
    code, out = run(tmp_path, "a", "gg-check", "--config", str(cfg),
                    "--mismatch-n")
    assert code == 2
    rep = load(out, "gg-check")
    assert rep["verdict"] == "FAIL"


def test_unknown_config_key_is_rejected(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"no_such_knob": 1}))
    code, _ = run(tmp_path, "a", "lp-length", "--config", str(cfg))
    assert code == 4


def test_lp_length_bad_exponent_or_duration_is_a_config_error(tmp_path):
    code, _ = run(tmp_path, "a", "lp-length", "--p", "0.5")
    assert code == 4
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"t_list": [0.0, 1.0]}))
    code, _ = run(tmp_path, "b", "lp-length", "--config", str(cfg))
    assert code == 4


def test_lp_length_reads_its_tolerance(tmp_path):
    # the quadrature is within 1e-15 of the closed form, not exactly on it
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"tolerance_rel": 1e-300}))
    code, out = run(tmp_path, "a", "lp-length", "--config", str(cfg))
    assert code == 2
    assert load(out, "lp-length")["checks"]["closed_form"] is False
    code, out = run(tmp_path, "b", "lp-length")
    assert code == 0
    assert load(out, "lp-length")["checks"]["closed_form"] is True


def test_unknown_flag_is_rejected(tmp_path):
    code, _ = run(tmp_path, "a", "lp-length", "--bogus")
    assert code == 4


def test_flag_override_changes_config_hash(tmp_path):
    _, out1 = run(tmp_path, "a", "phi-estimate", "--samples", "20")
    _, out2 = run(tmp_path, "b", "phi-estimate", "--samples", "21")
    h1 = load(out1, "phi-estimate")["config_hash"]
    h2 = load(out2, "phi-estimate")["config_hash"]
    assert h1 != h2


def test_seed_flag_reaches_report(tmp_path):
    _, out = run(tmp_path, "a", "phi-estimate", "--samples", "20",
                 "--seed", "77")
    rep = load(out, "phi-estimate")
    assert rep["seed"] == 77
    assert rep["config"]["seed"] == 77


@pytest.mark.parametrize("command, config, flags", [
    ("phi-estimate", None, ["--samples", "1"]),
    ("braid-of-flow", None, ["--seed", "-1"]),
    ("phi-estimate", {"n_points": "four"}, []),
    ("gg-check", {"t_list": [0, 1, 2]}, []),
    ("gg-check", {"t_list": [1, 2]}, []),
    ("braid-of-flow", {"duration": 0.0}, []),
    ("braid-of-flow", {"duration": math.nan}, []),
    ("gg-check", {"kind": "bogus"}, []),
    ("phi-estimate", {"n_points": 1}, []),
    ("braid-of-flow", {"n_points": 0}, []),
    ("embed-demo", {"p": 0.5}, []),
    ("psi-bound", {"tol": 0}, []),
    ("coarea-check", {"n_dirs": 0}, []),
    ("coarea-check", {"n_loops": 0}, []),
    ("coarea-check", {"n_points": 1}, []),
    ("coarea-check", {"t_choices": []}, []),
    ("lp-length", {"t_list": []}, []),
    ("lp-length", {"t_list": "abc"}, []),
    ("embed-demo", {"ramp": 0}, []),
    ("embed-demo", {"ramp": -1}, []),
    ("embed-demo", {"ramp": 0.3}, []),  # too wide for the d = 2 annuli
    ("embed-demo", {"v_scale": "x"}, []),
    ("embed-demo", {"height": math.nan}, []),
    ("embed-demo", {"ratio_spread_max": "x"}, []),
    ("embed-demo", {"n_vectors": 0}, []),  # a FAIL over no vectors
    ("lp-length", {"weight": "a"}, []),
    ("lp-length", {"tolerance_rel": math.nan}, []),
    ("lp-length", {"tolerance_rel": 0.0}, []),
    ("braid-of-flow", {"duration": math.inf}, []),
    ("braid-of-flow", {"x": [1, 2]}, []),
    ("braid-of-flow", {"x": "abc"}, []),
    ("phi-estimate", {"duration": math.inf}, []),
    ("phi-estimate", {"homogenize": 3}, []),
    ("gg-check", {"mismatch_n": 1}, []),
    ("gg-check", {"tolerance_rel": "x"}, []),
    ("coarea-check", {"tolerance_rel": -1.0}, []),
    ("psi-bound", {"tail_a": "x"}, []),
    ("psi-bound", {"tail_a": 10 ** 400}, []),  # too large for a float
    ("psi-bound", {"a_max": math.inf}, []),
    ("gg-check", {"samples": 1}, []),
    ("gg-check", {"t_list": [1, 3, 2]}, []),
    ("phi-estimate", {"measure": [1]}, []),
    ("lp-length", {"t_list": "123"}, []),
    ("braid-of-flow", {"profile": {"knots": [[0.5, math.nan]]}}, []),
    ("braid-of-flow", {"profile": {"knots": [[0.5, math.inf]]}}, []),
    ("braid-of-flow", {"profile": {"knots": [[math.nan, 1.0]]}}, []),
    ("gg-check", {"profile": {"type": "step", "lambda": math.nan,
                              "u0": 0.5}}, []),
    ("braid-of-flow", {"profile": {"type": "step", "lambda": 1.0,
                                   "u0": 2.0}}, []),
    ("braid-of-flow", {"profile": {"type": "step", "lambda": 1.0,
                                   "u0": "a"}}, []),
    # no knot at a positive radius to bound the sampling disc
    ("coarea-check", {"profile": {"type": "constant", "value": 1.0}}, []),
    ("coarea-check", {"profile": {"knots": [[0, 0]]}}, []),
    # true and false are no numbers, though float() reads them as 1 and 0
    ("lp-length", {"t_list": [True, 2]}, []),
    ("gg-check", {"tolerance_rel": True}, []),
    ("gg-check", {"t_list": [True, 2, 3]}, []),
    ("embed-demo", {"p": True}, []),
    ("psi-bound", {"tol": True}, []),
    ("braid-of-flow", {"duration": True}, []),
    ("braid-of-flow", {"x": [[True, 0.1], [0.3, 0.2], [-0.4, 0.5]]}, []),
    ("coarea-check", {"t_choices": [True]}, []),
])
def test_bad_input_is_a_one_line_config_error(tmp_path, capsys, command,
                                              config, flags):
    argv = [command, *flags]
    if config is not None:
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        argv += ["--config", str(cfg)]
    code, _ = run(tmp_path, "a", *argv)
    err = capsys.readouterr().err
    assert code == 4
    assert err.startswith("config error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize("command", ["phi-estimate", "gg-check"])
def test_value_error_while_sampling_is_not_a_config_error(tmp_path,
                                                          monkeypatch, command):
    # only the estimators' parameter refusals are config errors; a defect
    # met while tracing a sample must not be reported as bad input
    def broken(*args, **kwargs):
        raise ValueError("letter invalid")

    monkeypatch.setattr(qm_estimator, "trace_words", broken)
    with pytest.raises(ValueError, match="letter invalid"):
        run(tmp_path, "a", command, "--samples", "2")


def test_refinement_cap_is_exit_2_before_allocating(tmp_path, capsys):
    # the initial flow grid alone would need about 8e12 samples
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "profile": {"type": "step", "lambda": 1e12, "u0": 0.0, "ramp": 0.01},
        "x": [[0.1, 0.0], [5.0, 0.0], [0.0, 0.3]],
    }))
    code, _ = run(tmp_path, "a", "braid-of-flow", "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("numerical failure: ")
    assert err.count("\n") == 1


def test_extraction_error_is_exit_3(tmp_path, monkeypatch, capsys):
    def no_direction(*args, **kwargs):
        raise braid_trace.ExtractionError("no generic projection direction")

    monkeypatch.setattr(braid_trace, "extract_braid", no_direction)
    code, _ = run(tmp_path, "a", "braid-of-flow")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("degeneracy: ")
    assert err.count("\n") == 1


def test_braid_of_flow_rejection_budget_is_exit_3(tmp_path, monkeypatch,
                                                 capsys):
    def collide(*args, **kwargs):
        raise braid_trace.PathCollisionError("chords collide")

    monkeypatch.setattr(braid_trace, "build_loop", collide)
    code, out = run(tmp_path, "a", "braid-of-flow")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("degeneracy: ")
    assert err.count("\n") == 1
    assert not (out / "braid-of-flow.json").exists()


def test_coarea_direction_retries_are_exit_3(tmp_path, monkeypatch, capsys):
    def aligned(*args, **kwargs):
        raise braid_trace.DegenerateDirectionError("aligned")

    monkeypatch.setattr(braid_trace, "crossing_counts", aligned)
    code, out = run(tmp_path, "a", "coarea-check")
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("degeneracy: ")
    assert err.count("\n") == 1
    assert not (out / "coarea-check.json").exists()


def test_embed_demo_at_one_dimension(tmp_path):
    # with one profile the two bounds are equal, up to rounding
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "ramp": 0.001, "seed": 0}))
    code, out = run(tmp_path, "a", "embed-demo", "--config", str(cfg))
    assert code == 0
    rep = load(out, "embed-demo")
    assert rep["ratio_spread"] == pytest.approx(1.0, rel=1e-12)


def test_embed_demo_with_an_underflowing_length_is_exit_3(tmp_path, capsys):
    # rates so small that the L^3 length underflows to 0
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"d": 1, "height": 3e-111, "ramp": 0.125,
                               "p": 3.0}))
    code, _ = run(tmp_path, "a", "embed-demo", "--config", str(cfg))
    err = capsys.readouterr().err
    assert code == 3
    assert err.startswith("degeneracy: ")
    assert err.count("\n") == 1


def test_import_and_calibration_leave_scipy_unloaded():
    # scipy serves psi0 alone, which imports it when called
    src = str(Path(braidflow.__file__).resolve().parents[1])
    code = ("import sys; sys.path.insert(0, sys.argv[1]); "
            "import braidflow, braidflow.cli; braidflow.calibrate_ratio(4); "
            "print('scipy.integrate' in sys.modules)")
    done = subprocess.run([sys.executable, "-c", code, src],
                          capture_output=True, text=True, check=True,
                          timeout=120)
    assert done.stdout.strip() == "False"
