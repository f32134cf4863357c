import json
import math
import warnings

import numpy as np
import pytest

from nclp.algebra import TracedAlgebra
from nclp.cli import RunConfig, emit_report, execute, main, parse_config
from nclp.errors import DomainError
from nclp.matrixio import save_elements, save_json

from conftest import strip_wall_time


@pytest.fixture
def shift_file(tmp_path):
    alg = TracedAlgebra([2])
    el = alg.element([np.array([[0, 1], [0, 0]], dtype=complex)])
    path = str(tmp_path / "shift.json")
    save_elements(path, alg, {"shift": el, "ident": alg.identity()})
    return path


ELEMENT_FILE = """{"format": "nclp-matrix/1",
 "algebra": {"blocks": [2], "weights": [1.0]},
 "elements": [{"name": "shift",
               "blocks": [{"re": [[0, 1], [0, 0]], "im": [[0, 0], [0, 0]]}]}]}
"""


class TestParse:
    def test_defaults(self):
        cfg = parse_config(["check-cs-lp", "--p", "2", "--trials", "100",
                            "--seed", "7"])
        assert cfg.command == "check-cs-lp"
        assert cfg.p == 2.0 and cfg.trials == 100 and cfg.seed == 7

    def test_missing_input_for_gns(self):
        with pytest.raises(DomainError, match="--input"):
            parse_config(["gns"])

    def test_p_below_one_rejected(self):
        with pytest.raises(DomainError):
            parse_config(["check-cs-lp", "--p", "0.5"])

    def test_p_inf(self):
        cfg = parse_config(["norms", "--input", "x.json", "--p", "inf"])
        assert cfg.p == float("inf")


class TestCommands:
    def test_numerical_radius_file(self, shift_file):
        cfg = parse_config(["numerical-radius", "--input", shift_file])
        report = execute(cfg)
        byname = {r["element"]: r for r in report.results}
        assert byname["shift"]["value"] == pytest.approx(0.5, abs=1e-8)
        assert byname["ident"]["value"] == pytest.approx(1.0, abs=1e-10)
        assert report.overall == "holds"

    def test_check_all_runs_the_budget_starts_it_echoes(self):
        # the operator-valued suite runs the --budget-starts given, also above
        # the default of 16, and its entry says so
        report = execute(parse_config(["check-all", "--trials", "1", "--budget-starts", "24",
                                       "--budget-iters", "2"]))
        entry, = [r for r in report.results if r.get("check") == "operator-valued-suite"]
        assert entry["starts"] == 24
        assert report.config.echo()["budget"] == {"starts": 24, "iters": 2}

    def test_norms_file(self, shift_file):
        report = execute(parse_config(["norms", "--input", shift_file, "--p", "3"]))
        byname = {r["element"]: r for r in report.results}
        assert byname["ident"]["norm_1"] == pytest.approx(2.0)
        assert byname["ident"]["norm_3"] == pytest.approx(2.0 ** (1 / 3.0))

    def test_triple_norm_file(self, shift_file):
        report = execute(parse_config(["triple-norm", "--input", shift_file,
                                       "--budget-starts", "4"]))
        byname = {r["element"]: r for r in report.results}
        assert byname["ident"]["value"] == pytest.approx(1.0, abs=1e-9)
        assert byname["shift"]["value"] == pytest.approx(0.5, abs=1e-6)

    def test_sample_ratios_csv_contract(self, tmp_path):
        out = str(tmp_path / "r.csv")
        rc = main(["sample-ratios", "--p", "2", "--trials", "10",
                   "--format", "csv", "--output", out])
        assert rc == 0
        with open(out) as fh:
            lines = fh.read().strip().splitlines()
        assert lines[0] == "trial,p,d,target_dims,ratio,lhs,rhs,seed"
        assert len(lines) == 12              # header + 10 rows + summary
        assert lines[-1].startswith("summary")

    @pytest.mark.parametrize("argv", [
        ["check-cs-lp", "--trials", "3"],
        ["check-cs-normal", "--trials", "3"],
        ["sample-ratios", "--trials", "3"],
        ["norms"],
    ], ids=["cs-lp", "cs-normal", "sample-ratios", "norms"])
    def test_p_inf_runs(self, capsys, shift_file, argv):
        # the help accepts 'inf': each command runs there, and the report
        # writes the exponent as the string "inf"
        argv = argv + ["--p", "inf"] + (["--input", shift_file] if argv[0] == "norms" else [])
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == ""
        doc = json.loads(out)
        assert doc["config"]["p"] == "inf"
        assert all(r["status"] == "holds" for r in doc["results"])
        assert main(argv) == 0
        assert strip_wall_time(capsys.readouterr().out) == strip_wall_time(out)

    def test_gns_command(self, tmp_path):
        target = {"blocks": [1], "weights": [1.0]}
        omega = [[{"re": [[1.0 if i in (0, 3) else 0.0]], "im": [[0.0]]}]
                 for i in range(4)]
        path = str(tmp_path / "gns.json")
        save_json(path, {"domain": {"kind": "matrix_algebra", "size": 2},
                         "target": target, "omega": omega})
        report = execute(parse_config(["gns", "--input", path]))
        rep = report.results[0]["representation"]
        assert rep["quotient_dim"] == 4
        assert report.overall == "holds"

    def test_kernel_demo_default(self):
        report = execute(parse_config(["kernel-demo", "--trials", "5"]))
        assert report.overall == "holds"

    def test_uncertainty_command(self):
        report = execute(parse_config(["check-uncertainty"]))
        res = report.results[0]
        assert res["gamma"] == pytest.approx(res["gamma_expected"], abs=1e-9)
        assert report.overall == "holds"

    def test_empty_elements_valid_document(self, tmp_path):
        from nclp.matrixio import save_elements
        alg = TracedAlgebra([2])
        path = str(tmp_path / "empty.json")
        save_elements(path, alg, {})
        report = execute(parse_config(["norms", "--input", path]))
        doc = report.to_doc()
        assert doc["results"] == []
        assert doc["summary"]["overall"] == "holds"

    def test_exit_codes(self, tmp_path):
        assert main(["check-cs-lp", "--p", "2", "--trials", "5"]) == 0
        assert main(["gns"]) == 2                       # missing --input
        assert main(["norms", "--input", str(tmp_path / "absent.json")]) == 2
        assert main(["sample-ratios", "--dims", "-1"]) == 2
        assert main(["sample-ratios", "--dims", "0"]) == 2   # not a silent d = 2

    @pytest.mark.parametrize("text, message", [
        (ELEMENT_FILE.replace("[[0, 1],", "[[NaN, 1],"), "finite"),
        (ELEMENT_FILE.replace('"weights": [1.0]', '"weights": [Infinity]'), "finite"),
        (ELEMENT_FILE.replace('"elements"', '"items"'), "'elements'"),
        ("not json {", "not JSON"),
        (ELEMENT_FILE.replace('"blocks": [2]', '"blocks": ["a"]'), "'blocks'"),
        (ELEMENT_FILE.replace('"weights": [1.0]', '"weights": ["x"]'), "'weights'"),
    ], ids=["nan-entry", "infinite-weight", "missing-elements", "not-json", "block-size-type",
            "weight-type"])
    def test_bad_element_file_exits_2(self, tmp_path, capsys, text, message):
        path = tmp_path / "bad.json"
        path.write_text(text)
        assert main(["numerical-radius", "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1


    @pytest.mark.parametrize("command, doc, key", [
        ("gns", {"domain": {"kind": "matrix_algebra", "size": 2}}, "'target'"),
        ("gns", {"target": {"blocks": [1]}}, "'domain'"),
        ("gns", {"domain": {"format": "nclp-star/1", "dim": 1}, "target": {"blocks": [1]},
                 "omega": []}, "'mult'"),
        ("kernel-demo", {"algebra": {"blocks": [2]}}, "'W'"),
        ("kernel-demo", {"algebra": {"blocks": [1]}, "W": [{"re": [[1.0]], "im": [[0.0]]}],
                         "kernel": {"name": "grid"}}, "'x_grid'"),
        ("gns", {"domain": {"kind": "matrix_algebra", "size": "two"},
                 "target": {"blocks": [1]}, "omega": []}, "'size'"),
        ("kernel-demo", {"algebra": {"blocks": [1]}, "W": [{"re": [[1.0]], "im": [[0.0]]}],
                         "kernel": {"name": "grid", "x_grid": 3, "t_grid": [0.0, 1.0],
                                    "values": [[1.0, 1.0], [1.0, 1.0]]}}, "'x_grid'"),
        ("kernel-demo", {"algebra": {"blocks": [1]}, "W": [{"re": [[1.0]], "im": [[0.0]]}],
                         "kernel": {"name": "grid", "x_grid": [0.0, 1.0], "t_grid": [0.0, 1.0],
                                    "values": [1, 2]}}, "'values[0]'"),
        ("kernel-demo", {"algebra": {"blocks": [1]}, "W": [{"re": [[1.0]], "im": [[0.0]]}],
                         "kernel": {"name": "constant", "c": "x"}}, "'c'"),
    ], ids=["gns-target", "gns-domain", "gns-star-mult", "kernel-W", "kernel-grid",
            "gns-size-type", "kernel-grid-type", "kernel-grid-rows", "kernel-constant-type"])
    def test_missing_input_key_exits_2(self, tmp_path, capsys, command, doc, key):
        path = str(tmp_path / "in.json")
        save_json(path, doc)
        assert main([command, "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and key in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("command, doc, message", [
        ("gns", {"domain": {"format": "nclp-star/1",
                            "mult": {"re": [[[math.nan]]], "im": [[[0.0]]]},
                            "invol": {"re": [[1.0]], "im": [[0.0]]},
                            "unit": {"re": [1.0], "im": [0.0]}},
                 "target": {"blocks": [1]}, "omega": [[{"re": [[1.0]], "im": [[0.0]]}]]},
         "mult needs finite entries"),
        ("kernel-demo", {"algebra": {"blocks": [1]}, "W": [{"re": [[1.0]], "im": [[0.0]]}],
                         "kernel": {"name": "constant", "c": math.nan}}, "c=nan"),
        ("kernel-demo", {"algebra": {"blocks": [1]}, "W": [{"re": [[1.0]], "im": [[0.0]]}],
                         "kernel": {"name": "constant", "c": math.inf}}, "c=inf"),
    ], ids=["gns-star-nan", "kernel-constant-nan", "kernel-constant-inf"])
    def test_non_finite_input_exits_2(self, tmp_path, capsys, command, doc, message):
        # NaN and Infinity are JSON literals Python reads; they must not
        # reach an eigensolver or pass a residual test
        path = tmp_path / "in.json"
        path.write_text(json.dumps(doc))
        assert main([command, "--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv, message", [
        (["check-cs-lp", "--constant", "nan"], "--constant must be a finite number > 0"),
        (["check-cs-lp", "--constant", "inf"], "--constant must be a finite number > 0"),
        (["check-cs-lp", "--constant", "-1"], "--constant must be a finite number > 0"),
        (["check-cs-lp", "--constant", "0"], "--constant must be a finite number > 0"),
        (["check-cs-lp", "--tol", "nan"], "--tol must be finite"),
        (["check-cs-lp", "--tol", "inf"], "--tol must be finite"),
        (["check-cs-normal", "--tol=-inf"], "--tol must be finite"),
    ], ids=["constant-nan", "constant-inf", "constant-negative", "constant-zero", "tol-nan",
            "tol-inf", "normal-tol-neg-inf"])
    def test_bad_constant_or_tol_exits_2(self, capsys, argv, message):
        # no JSON traceback on a non-finite value, and no verdict under a
        # constant check_cs_lp rejects
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_finite_negative_tol_is_legal(self):
        assert parse_config(["check-cs-lp", "--tol=-1e-3"]).tol == -1e-3

    def test_negative_scientific_tol_is_a_value(self, capsys):
        # "-1e-3" after --tol is the flag's value, not an unknown flag
        assert main(["check-cs-normal", "--trials", "2", "--tol", "-1e-3"]) in (0, 1)
        assert json.loads(capsys.readouterr().out)["config"]["tol"] == -1e-3

    def test_negative_scientific_constant_exits_2(self, capsys):
        assert main(["check-cs-lp", "--trials", "2", "--constant", "-1e-3"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --constant must be a finite number > 0\n"

    @pytest.mark.parametrize("argv, flag", [
        (["check-cs-opvalued", "--trials", "1", "--budget-starts", "-1"], "--budget-starts"),
        (["check-cs-opvalued", "--trials", "1", "--budget-iters", "-2"], "--budget-iters"),
        (["triple-norm", "--budget-starts", "-3", "--input", "absent.json"], "--budget-starts"),
        (["check-all", "--budget-iters", "-1"], "--budget-iters"),
    ], ids=["opvalued-starts", "opvalued-iters", "triple-norm-starts", "check-all-iters"])
    def test_negative_budget_exits_2(self, capsys, argv, flag):
        # a negative budget exits 2 with one line: no traceback from the seed
        # spawner, and no negative count silently taken as 0
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {flag} must be >= 0\n"

    @pytest.mark.parametrize("argv", [
        ["check-re-im", "--seed", "-5"],
        ["check-cs-opvalued", "--trials", "1", "--seed", "-1"],
        ["check-cs-lp", "--seed", "-1"],
        ["check-all", "--seed", "-3"],
        ["sample-ratios", "--seed=-2"],
    ], ids=["re-im", "opvalued", "cs-lp", "check-all", "sample-ratios"])
    def test_negative_seed_exits_2(self, capsys, argv):
        # one line, not a traceback from the seed spawner; check-cs-lp's seed
        # offset of round(1000 p) would otherwise hide it
        assert main(argv) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: --seed must be >= 0\n"

    @pytest.mark.parametrize("argv", [["check-uncertainty", "--format", "csv"],
                                      ["check-all", "--dims", "3"],
                                      ["check-uncertainty", "--seed", "3"],
                                      ["gns", "--p", "3"]])
    def test_flag_the_command_does_not_read_exits_2(self, capsys, argv):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + " ".join(argv[1:]) in capsys.readouterr().err

    def test_unset_flags_keep_config_defaults(self):
        cfg = parse_config(["check-re-im", "--seed", "4"])
        assert cfg == RunConfig(command="check-re-im", seed=4)

    @pytest.mark.parametrize("values, message", [
        ([1, 0, 0, -1], "failed positivity sampling"),
        ([1, 1e-8j, 0, 1], "scalar gram is not hermitian"),
    ], ids=["not-positive", "not-hermitian"])
    def test_gns_map_the_construction_refuses_exits_2(self, tmp_path, capsys, values,
                                                      message):
        # a construction the input makes impossible is bad input (exit 2),
        # not a violated verdict (exit 1)
        omega = [[{"re": [[complex(v).real]], "im": [[complex(v).imag]]}] for v in values]
        path = str(tmp_path / "omega.json")
        save_json(path, {"domain": {"kind": "matrix_algebra", "size": 2},
                         "target": {"blocks": [1]}, "omega": omega})
        assert main(["gns", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: ") and message in err
        assert err.count("\n") == 1

    @pytest.mark.parametrize("argv", [["norms", "--p", "2"], ["triple-norm"],
                                      ["numerical-radius"]],
                             ids=["norms", "triple-norm", "numerical-radius"])
    @pytest.mark.parametrize("im", [[], [[5]]], ids=["im-empty", "im-broadcast"])
    def test_re_im_of_different_shapes_exit_2(self, tmp_path, capsys, argv, im):
        # an empty im is no broadcast traceback, and a 1x1 im is not spread
        # over the 2x2 re (trace_im 10.0 under status holds)
        path = tmp_path / "el.json"
        path.write_text(ELEMENT_FILE.replace('"im": [[0, 0], [0, 0]]', f'"im": {im}'))
        assert main(argv + ["--input", str(path)]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == ("error: 're' and 'im' must have one shape, got (2, 2) and "
                       f"{np.shape(im)}\n")

    @pytest.mark.parametrize("field, im", [("mult", [[[0.0]]]), ("invol", [[0.0]]),
                                           ("unit", [0.0])],
                             ids=["mult", "invol", "unit"])
    def test_star_document_re_im_of_different_shapes_exit_2(self, tmp_path, capsys, field, im):
        # the cyclic group algebra of Z_2; one field's im would broadcast
        star = {"format": "nclp-star/1",
                "mult": {"re": [[[1.0, 0.0], [0.0, 1.0]], [[0.0, 1.0], [1.0, 0.0]]],
                         "im": [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 0.0], [0.0, 0.0]]]},
                "invol": {"re": [[1.0, 0.0], [0.0, 1.0]], "im": [[0.0, 0.0], [0.0, 0.0]]},
                "unit": {"re": [1.0, 0.0], "im": [0.0, 0.0]}}
        omega = [[{"re": [[1.0]], "im": [[0.0]]}], [{"re": [[0.0]], "im": [[0.0]]}]]
        path = str(tmp_path / "star.json")
        save_json(path, {"domain": star, "target": {"blocks": [1]}, "omega": omega})
        assert main(["gns", "--input", path]) == 0
        capsys.readouterr()
        star[field]["im"] = im
        save_json(path, {"domain": star, "target": {"blocks": [1]}, "omega": omega})
        assert main(["gns", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("error: 're' and 'im' must have one shape")
        assert err.count("\n") == 1

    @pytest.mark.parametrize("entry, message", [
        *((v, "positivity eigensolve failed: the hermitian part overflows the float range")
          for v in (1e308, -1e308, 1.7e308)),
        *((v, "the gram scale overflows the float range") for v in (1e200, 1e300, 1e307)),
    ], ids=["1e+308", "-1e+308", "1.7e+308", "1e+200", "1e+300", "1e+307"])
    def test_gns_omega_that_overflows_exits_2(self, tmp_path, capsys, entry, message):
        # a finite omega whose block gram overflows: no LinAlgError traceback
        # from the positivity eigensolve, and no overflow warnings; one whose
        # gram is PSD but whose scale overflows gets no verdict over residuals
        # divided by an inf scale, and no NaN in the report
        omega = [[{"re": [[v]], "im": [[0.0]]}] for v in (entry, 0.0, 0.0, 1.0)]
        path = str(tmp_path / "omega.json")
        save_json(path, {"domain": {"kind": "matrix_algebra", "size": 2},
                         "target": {"blocks": [1]}, "omega": omega})
        assert main(["gns", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == f"error: {message}\n"

    def test_kernel_demo_at_t_1e100_is_the_verdict_at_t_1(self, tmp_path, capsys):
        # ||T||_4 of T = 1e100 I is finite once Schatten norms are scaled,
        # and the bound ratios are homogeneous: T = 1e100 I gives the ratios
        # of T = I (an unscaled ||T||_4 was inf, and the inf cap was refused)
        ratios = []
        for t in (1.0, 1e100):
            path = str(tmp_path / "kernel.json")
            save_json(path, {"algebra": {"blocks": [2]},
                             "W": [{"re": [[1.0, 0.0], [0.0, 2.0]],
                                    "im": [[0.0, 0.0], [0.0, 0.0]]}],
                             "T": [{"re": [[t, 0.0], [0.0, t]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
                             "kernel": {"name": "one_plus_xt"}})
            assert main(["kernel-demo", "--input", path, "--trials", "5"]) == 0
            entry, = json.loads(capsys.readouterr().out)["results"]
            assert entry["status"] == "holds"
            ratios.append((entry["max_nr_ratio"], entry["max_triple_ratio"]))
        assert ratios[1] == pytest.approx(ratios[0], rel=1e-12)

    def test_kernel_demo_whose_values_overflow_exits_2(self, tmp_path, capsys):
        # T = 1e155 I is finite, but T g(W) T* is not: one line naming the
        # overflow, where the overflow warnings of the product and a refusal
        # blaming the input's entries came before
        path = str(tmp_path / "kernel.json")
        save_json(path, {"algebra": {"blocks": [2]},
                         "W": [{"re": [[1.0, 0.0], [0.0, 2.0]], "im": [[0.0, 0.0], [0.0, 0.0]]}],
                         "T": [{"re": [[1e155, 0.0], [0.0, 1e155]],
                                "im": [[0.0, 0.0], [0.0, 0.0]]}],
                         "kernel": {"name": "one_plus_xt"}})
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["kernel-demo", "--input", path, "--trials", "5"]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a kernel value T g(W) T* overflows the float range\n"

    # c [[1, 2], [0, 1]] on M_2: unscaled, ||.||_4 read 0.0 at 1e-100 and inf
    # at 1e80, and triple-norm computed a NaN at 1e160
    SCALED_JORDAN = [1e-100, 1e80, 1e160]

    @staticmethod
    def _jordan_file(tmp_path, c):
        path = str(tmp_path / "jordan.json")
        alg = TracedAlgebra([2])
        save_elements(path, alg, {"f": alg.element([c * np.array([[1.0, 2.0], [0.0, 1.0]])])})
        return path

    @pytest.mark.parametrize("c", SCALED_JORDAN)
    def test_norms_of_a_scaled_element(self, tmp_path, capsys, c):
        got = []
        for scale in (1.0, c):
            assert main(["norms", "--p", "4", "--input", self._jordan_file(tmp_path, scale)]) == 0
            entry, = json.loads(capsys.readouterr().out)["results"]
            got.append({k: v / scale for k, v in entry.items() if k.startswith("norm_")})
        assert set(got[1]) == {"norm_1", "norm_2", "norm_inf", "norm_4"}
        assert got[1] == pytest.approx(got[0], rel=1e-12)
        # singular values 1 +- sqrt(2): ||.||_4^4 = (3 + 2 sqrt 2)^2 + (3 - 2 sqrt 2)^2 = 34
        assert got[0]["norm_4"] == pytest.approx(34.0 ** 0.25, rel=1e-12)

    @pytest.mark.parametrize("c", SCALED_JORDAN)
    def test_triple_norm_of_a_scaled_element(self, tmp_path, capsys, c):
        got = []
        for scale in (1.0, c):
            assert main(["triple-norm", "--input", self._jordan_file(tmp_path, scale)]) == 0
            entry, = json.loads(capsys.readouterr().out)["results"]
            assert entry["optimum"] == "heuristic"
            got.append([entry[k] / scale for k in ("value", "upper_bound", "rank1_bound")])
        assert got[1] == pytest.approx(got[0], rel=1e-12)
        assert got[0][0] == pytest.approx(2.0, rel=1e-12)      # w([[1, 2], [0, 1]]) = 2

    def test_norm_above_the_float_range_exits_2(self, tmp_path, capsys):
        # ||.||_1 >= ||.|| = 1.5e308 sqrt(2), above DBL_MAX: no silent "inf"
        path = str(tmp_path / "big.json")
        alg = TracedAlgebra([2])
        save_elements(path, alg, {"f": alg.element([np.array([[1.5e308, 1.5e308], [0.0, 0.0]])])})
        assert main(["norms", "--input", path]) == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err == "error: a Schatten norm overflows the float range\n"


class TestDeterminism:
    def test_same_seed_same_bytes(self):
        cfg = parse_config(["check-cs-lp", "--p", "2", "--trials", "20",
                            "--seed", "3"])
        a = strip_wall_time(emit_report(execute(cfg)))
        b = strip_wall_time(emit_report(execute(cfg)))
        assert a == b

    def test_different_seed_changes_results(self):
        r1 = execute(parse_config(["sample-ratios", "--trials", "5", "--seed", "1"]))
        r2 = execute(parse_config(["sample-ratios", "--trials", "5", "--seed", "2"]))
        assert r1.results[0]["ratio"] != r2.results[0]["ratio"]
