"""End-to-end acceptance checks, one verdict line per criterion.

Each test prints a single ``[accept N] PASS ...`` line so the run log shows
the whole scoreboard at a glance.  Tolerances are frozen here on purpose;
loosening them is a contract change, not a fix.
"""

import json
import math

import numpy as np
import pytest

from braidflow import cli
from braidflow.analysis_bench import (
    default_embedding_profiles,
    evaluate_embedding,
    gg_rhs,
    psi0,
    psi0_bound_scan,
)
from braidflow.braid_algebra import (
    BraidWord,
    qm_for_strands,
    random_word,
    seifert_matrix,
    signature,
    writhe,
)
from braidflow.braid_trace import (
    TraceRejection,
    base_tuple,
    build_loop,
    extract_braid,
    random_tuple,
    winding,
)
from braidflow.flow_engine import (
    annulus_profile,
    constant_profile,
    lp_length,
    single_flow,
    step_profile,
)
from braidflow.qm_estimator import phi_bar_estimate, qm_property_monitor

from oracles import float_signature

R0 = math.sqrt(1.0 / 3.0)
STEP = step_profile(1.0, R0, ramp=0.01)
T_LIST = [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]
QM4 = qm_for_strands(4)


def verdict(n, ok, detail):
    line = f"[accept {n}] {'PASS' if ok else 'FAIL'} {detail}"
    print(line)
    assert ok, line


def test_accept_01_mc_slope_matches_quadrature():
    bar = phi_bar_estimate(single_flow(STEP, 1.0), T_LIST, n_points=4,
                           qm=QM4, samples=2000, seed=7)
    gg = gg_rhs(STEP, 2)
    tol = max(3.0 * bar.stderr, 0.10 * abs(gg))
    gap = abs(bar.value - gg)
    verdict(1, gap <= tol and bar.rejected == 0,
            f"mc {bar.value:.6f}+-{bar.stderr:.6f} vs quadrature {gg:.6f}, "
            f"gap {gap:.6f} <= tol {tol:.6f}")


def test_accept_02_rigid_rotation_slope_is_null():
    bar = phi_bar_estimate(single_flow(constant_profile(1.0), 1.0), T_LIST,
                           n_points=4, qm=QM4, samples=2000, seed=7)
    tol = 3.0 * bar.stderr + 1e-12
    verdict(2, abs(bar.value) <= tol,
            f"slope {bar.value:.2e} within {tol:.2e} of zero")


def test_accept_03_signature_oracles():
    exact = all(signature(BraidWord((1,) * k, 2)) == -(k - 1)
                for k in range(2, 9))
    rng = np.random.default_rng(331)
    mirror_ok = True
    for _ in range(200):
        w = random_word(rng, int(rng.integers(2, 6)),
                        int(rng.integers(1, 31)))
        mirror_ok &= signature(w.mirror()) == -signature(w)
    float_ok = True
    for _ in range(500):
        w = random_word(rng, int(rng.integers(2, 6)),
                        int(rng.integers(0, 26)))
        v = seifert_matrix(w)
        float_ok &= signature(w) == float_signature(v + v.T)
    verdict(3, exact and mirror_ok and float_ok,
            f"powers exact {exact}, mirror 200/200 {mirror_ok}, "
            f"float oracle 500/500 {float_ok}")


def test_accept_04_writhe_equals_twice_winding_sum():
    rng = np.random.default_rng(402)
    done = rejected = 0
    ok = True
    while done < 500:
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
        ok &= writhe(word) == 2 * total
        done += 1
    rate = rejected / (done + rejected)
    verdict(4, ok and rate < 0.05,
            f"identity 500/500 {ok}, rejection rate {rate:.3f} < 0.05")


def test_accept_05_crossing_counts_average_to_angular_variation(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"n_loops": 100, "n_dirs": 1000}))
    code = cli.main(["coarea-check", "--config", str(cfg),
                     "--out", str(tmp_path / "out")])
    rep = json.loads((tmp_path / "out" / "coarea-check.json").read_text())
    verdict(5, code == 0 and rep["verdict"] == "PASS",
            f"worst relative deviation {rep['worst_rel_dev']:.4f} <= 0.02 "
            f"over {rep['n_pairs']} pairs")


def test_accept_06_kernel_moment_suite():
    at_zero = psi0(0.0)
    zero_ok = abs(at_zero - math.pi ** 2 / 2.0) <= 1e-3 * math.pi ** 2 / 2.0
    far = psi0(100.0) * 100.0
    far_ok = abs(far - math.pi) <= 0.02 * math.pi
    grid = [0.0, 0.3, 1.0, 3.0, 10.0, 100.0, 1000.0]
    c_star, arg, _rows = psi0_bound_scan(grid)
    scan_ok = math.isfinite(c_star) and c_star > 0.0
    verdict(6, zero_ok and far_ok and scan_ok,
            f"psi0(0)={at_zero:.6f} (rel {abs(at_zero - math.pi**2/2)/(math.pi**2/2):.1e}), "
            f"psi0(100)*100={far:.4f}, scan sup {c_star:.4f} at |a|={arg:g}")


def test_accept_07_path_length_closed_form():
    spec = single_flow(constant_profile(1.0), 1.0)
    closed = 2.0 * math.pi * math.sqrt(math.pi / 3.0)
    got = lp_length(spec, 2.0)
    form_ok = abs(got - closed) <= 1e-6 * closed
    scale_ok = True
    for t in (2.0, 5.0):
        scale_ok &= abs(lp_length(single_flow(constant_profile(1.0), t), 2.0)
                        - t * got) <= 1e-8 * t * got
    for w in (3.0, -2.0):
        spec_w = single_flow(constant_profile(1.0), 1.0, weight=w)
        scale_ok &= abs(lp_length(spec_w, 2.0) - abs(w) * got) \
            <= 1e-8 * abs(w) * got
    verdict(7, form_ok and scale_ok,
            f"L2 length {got:.9f} vs closed form {closed:.9f}, "
            f"T/weight scaling exact {scale_ok}")


def test_accept_08_defect_bounded_while_value_grows():
    def f(t):
        return single_flow(STEP, t)

    def g(t):
        return single_flow(annulus_profile(-0.7, 0.9, 1.5), t)

    mon2 = qm_property_monitor(f(2.0), g(2.0), n_points=4, qm=QM4,
                               samples=200, seed=29)
    mon8 = qm_property_monitor(f(8.0), g(8.0), n_points=4, qm=QM4,
                               samples=200, seed=29)
    gap = abs(mon8.value - mon2.value)
    sig = 3.0 * math.hypot(mon2.stderr, mon8.stderr) + 1e-12
    bar = phi_bar_estimate(f(1.0), [2.0, 5.0, 8.0], n_points=4, qm=QM4,
                           samples=300, seed=29)
    grows = abs(bar.value) > 6.0 * bar.stderr and not bar.linearity_warning
    verdict(8, gap <= sig and grows,
            f"defect {mon2.value:.4f}->{mon8.value:.4f} (gap {gap:.4f} <= "
            f"{sig:.4f}) while value slope {bar.value:.4f} is "
            f"{abs(bar.value) / bar.stderr:.1f} sigma from zero")


def test_accept_09_two_component_embedding_certificate():
    profs = default_embedding_profiles(2)
    rng = np.random.default_rng(np.random.SeedSequence((11, 0xE3BED)))
    vs = [tuple(rng.uniform(-3.0, 3.0, size=2)) for _ in range(20)]
    rep = evaluate_embedding(profs, vs, 2.5)
    det_ok = abs(rep.row_normalized_det) > 1e-6
    spread = rep.ratio_max / rep.ratio_min
    verdict(9, det_ok and spread < 20.0,
            f"|row-normalized det| {abs(rep.row_normalized_det):.4f} > 1e-6, "
            f"bound ratio spread {spread:.3f} < 20")


def test_accept_10_runs_are_byte_identical(tmp_path):
    small_gg = tmp_path / "gg.json"
    small_gg.write_text(json.dumps({"samples": 60, "t_list": [1, 2, 3, 4]}))
    small_coarea = tmp_path / "co.json"
    small_coarea.write_text(json.dumps({"n_loops": 3, "n_dirs": 500}))
    small_psi = tmp_path / "psi.json"
    small_psi.write_text(json.dumps({"a_max": 100.0, "n_grid": 5}))
    commands = [
        ("lp-length", []),
        ("psi-bound", ["--config", str(small_psi)]),
        ("embed-demo", []),
        ("braid-of-flow", []),
        ("coarea-check", ["--config", str(small_coarea)]),
        ("gg-check", ["--config", str(small_gg)]),
        ("phi-estimate", ["--samples", "40"]),
    ]
    same = True
    for name, extra in commands:
        outs = []
        for run in ("a", "b"):
            out = tmp_path / run / name
            code = cli.main([name, *extra, "--out", str(out)])
            assert code == 0, f"{name} exited {code}"
            outs.append(out)
        for art in sorted(p.name for p in outs[0].iterdir()):
            same &= (outs[0] / art).read_bytes() == (outs[1] / art).read_bytes()
    est1 = phi_bar_estimate(single_flow(STEP, 1.0), [1.0, 2.0, 3.0],
                            n_points=4, qm=QM4, samples=40, seed=5)
    est2 = phi_bar_estimate(single_flow(STEP, 1.0), [1.0, 2.0, 3.0],
                            n_points=4, qm=QM4, samples=40, seed=5)
    verdict(10, same and est1 == est2,
            f"7 commands byte-identical {same}, estimator rerun "
            f"bit-equal {est1 == est2}")
