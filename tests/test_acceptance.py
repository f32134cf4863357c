"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines.  Tolerances and trial counts are pinned here and nowhere else.
"""

import math
import re

from nclp import suites
from nclp.cli import emit_report, execute, parse_config

SQRT2 = math.sqrt(2.0)


def report(line: str) -> None:
    print(f"\n[acceptance] {line}")


def test_criterion_01_generalized_cs_factor2():
    sweep = suites.cs_lp_sweep(1000, [1.25, 1.5, 2.0, 3.0, 4.0], seed=101)
    for p, stats in sweep["per_p"].items():
        assert stats["max_ratio"] <= 2.0 + 1e-8, f"p={p}: {stats}"
    assert sweep["per_p"]["2.0"]["max_ratio"] <= SQRT2 + 1e-8
    assert sweep["elapsed_s"] <= 60.0
    report(f"criterion 1 PASS: factor-2 CS, 1000 maps x 5 exponents, "
           f"max ratios {[round(s['max_ratio'], 6) for s in sweep['per_p'].values()]}, "
           f"{sweep['elapsed_s']:.1f}s")


def test_criterion_02_normal_values_constant1():
    sweep = suites.cs_normal_sweep(1000, [1.5, 2.0, 3.0], seed=102)
    for p, stats in sweep["per_p"].items():
        assert stats["max_ratio"] <= 1.0 + 1e-8, f"p={p}: {stats}"
    report(f"criterion 2 PASS: constant-1 CS on commutative targets, "
           f"max ratios {[round(s['max_ratio'], 9) for s in sweep['per_p'].values()]}")


def test_criterion_03_re_im_estimates():
    r = suites.re_im_sweep(1000, seed=103)
    assert r["violations"] == 0
    report(f"criterion 3 PASS: Re/Im estimates, 1000 trials, "
           f"worst margin {r['worst_margin']:.3e}")


def test_criterion_04_uncertainty_relation():
    r = suites.uncertainty_suite()
    assert abs(r["gamma"] - math.sqrt(20.0)) <= 1e-9
    assert abs(r["delta_product_at_zero"] - math.sqrt(89.0)) <= 1e-9
    assert r["bound_failures"] == 0
    assert r["min_delta_product"] >= 0.5 * r["gamma"] - 1e-8
    assert r["commuting_gamma"] <= 1e-12
    report(f"criterion 4 PASS: gamma={r['gamma']:.12f} (sqrt20), "
           f"Delta product={r['delta_product_at_zero']:.12f} (sqrt89), "
           f"{r['grid_points']} grid points, commuting gamma "
           f"{r['commuting_gamma']:.1e}")


def test_criterion_05_trace_pairing_and_holder():
    r = suites.pairing_and_holder_suite(1000, seed=105)
    assert r["worst_re"] >= -1e-10
    assert r["worst_im"] <= 1e-10
    assert r["holder_violations"] == 0
    report(f"criterion 5 PASS: 1000 PSD pairs, worst Re {r['worst_re']:.3e}, "
           f"worst |Im| {r['worst_im']:.3e}; Hoelder worst margin "
           f"{r['worst_holder_margin']:.3e}")


def test_criterion_06_spectral_tail_projections():
    r = suites.tail_projection_suite(100, seed=106)
    assert r["monotone_failures"] == 0
    assert r["final_nonzero"] == 0
    report(f"criterion 6 PASS: 100 anchors x 3 exponents, monotone tails, "
           f"worst final {r['worst_final']:.3e}")


def test_criterion_07_numerical_radius():
    r = suites.numerical_radius_suite(500, seed=107)
    assert abs(r["w_shift"] - 0.5) <= 1e-8
    assert r["sandwich_failures"] == 0
    assert r["hermitian_defect"] <= 1e-10
    report(f"criterion 7 PASS: w(shift)={r['w_shift']:.12f}, 500 random "
           f"sandwiches, hermitian defect {r['hermitian_defect']:.3e}")


def test_criterion_08_radius_norm():
    r = suites.triple_norm_suite(200, seed=108)
    assert abs(r["anchor_diag10"] - 1.0) <= 1e-6
    assert abs(r["anchor_identity"] - 1.0) <= 1e-6
    assert r["anchor_statuses"] == ["exact", "exact"]
    assert r["sandwich_failures"] == 0
    assert r["cs_failures"] == 0
    report(f"criterion 8 PASS: anchors {r['anchor_diag10']:.9f}/"
           f"{r['anchor_identity']:.9f}, 200 sandwiches, 200 CS maps, "
           f"worst CS excess {r['worst_cs_excess']:.3e}")


def test_criterion_09_operator_valued_cs():
    r = suites.operator_valued_suite(100, seed=109, starts=64, iters=12)
    assert r["d1_ratio_defect"] <= 1e-10
    for norm in ("nr", "triple2"):
        assert r[norm]["violations"] == 0, r[norm]
    # the whole result, bit for bit, as the per-instance search gave it
    assert r == {"name": "operator_valued", "instances": 100, "starts": 64,
                 "d1_ratio_defect": 4.440892098500626e-16,
                 "nr": {"violations": 0, "max_ratio": 0.99882621485999},
                 "triple2": {"violations": 0, "max_ratio": 0.99882621485999},
                 "status": "holds"}
    report(f"criterion 9 PASS: d=1 defect {r['d1_ratio_defect']:.2e}; "
           f"100 instances per target norm at 64 starts, "
           f"max ratios nr={r['nr']['max_ratio']:.6f} "
           f"triple2={r['triple2']['max_ratio']:.6f} against the exact rhs at T = I "
           f"(violations are proven, nothing escalates)")


def test_criterion_10_gns_construction():
    r = suites.gns_suite(20, seed=110)
    assert r["worst"]["reconstruction"] <= 1e-10
    assert r["worst"]["multiplicativity"] <= 1e-9
    assert r["worst"]["adjointness"] <= 1e-9
    assert r["cyclic_failures"] == 0
    assert r["a11_quotient_dim"] == 2
    assert r["trace_quotient_dim"] == 4
    report(f"criterion 10 PASS: {r['instances']} random maps on 3 domains, "
           f"worst residuals {r['worst']}; quotient dims "
           f"{r['a11_quotient_dim']}/{r['trace_quotient_dim']}")


def _strip_wall(text: str) -> str:
    return re.sub(r'"wall_time_s": [0-9eE+.\-]+', '"wall_time_s": 0', text)


def test_criterion_11_determinism():
    base = ["check-all", "--seed", "0"]
    first = _strip_wall(emit_report(execute(parse_config(base))))
    second = _strip_wall(emit_report(execute(parse_config(base))))
    assert first == second
    assert '"overall": "holds"' in first
    report("criterion 11 PASS: check-all byte-identical across runs "
           "(wall time excluded)")
