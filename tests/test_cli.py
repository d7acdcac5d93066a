import dataclasses
import hashlib
import importlib.util
import json
import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import line_coverage as coverage  # scripts/, on pytest's pythonpath
import output_digests as digests
import poisdirac
import worst_cases
from poisdirac import cli, polynomials, submanifolds
from poisdirac.cli import BUNDLED_ANALYSES, build_parser, bundled_scenario_names, main
from poisdirac.errors import SchemaError
from poisdirac.polynomials import MAX_EXPONENT, PolyMap
from poisdirac.rational_linalg import MAX_DIGITS
from poisdirac.scenario import MAX_DIM, MAX_GRID_HEIGHT, MAX_SAMPLE_COUNT, check_sample_bounds, load_scenario_text
from poisdirac.submanifolds import grid_points


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_bundled_scenarios_present():
    assert set(bundled_scenario_names()) == set(BUNDLED_ANALYSES)


class TestSchema:
    def test_unknown_field_rejected(self):
        with pytest.raises(SchemaError, match="unknown fields"):
            load_scenario_text('{"ambiant": {"dim": 2, "bivector": []}}')

    def test_float_literal_rejected(self):
        with pytest.raises(SchemaError, match="float"):
            load_scenario_text('{"points": [[0.5]]}')

    def test_number_where_rational_expected(self):
        with pytest.raises(SchemaError, match="expected a string"):
            load_scenario_text('{"ambient": {"dim": 2, "bivector": []}, "point": [1, 2]}')

    def test_bad_entry_indices(self):
        with pytest.raises(SchemaError, match="1 <= i < j"):
            load_scenario_text('{"ambient": {"dim": 2, "bivector": [{"i": 2, "j": 1, "poly": "1"}]}}')

    def test_path_in_diagnostic(self):
        with pytest.raises(SchemaError, match=r"\$\.ambient\.bivector\[0\]\.poly"):
            load_scenario_text('{"ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "x9"}]}}')

    def test_missing_required_subfield(self):
        with pytest.raises(SchemaError, match="missing required"):
            load_scenario_text('{"ambient": {"dim": 2}}')

    def test_duplicate_key_rejected(self):
        with pytest.raises(SchemaError, match="duplicate key 'dim'"):
            load_scenario_text('{"ambient": {"dim": 2, "dim": 3, "bivector": []}}')

    def test_both_maps_are_checked_as_lists_before_either_is_parsed(self):
        with pytest.raises(SchemaError) as exc:
            load_scenario_text('{"ambient": {"dim": 2, "bivector": []}, "map": ["x1 +", "x2"], "map_inverse": 3}')
        assert str(exc.value) == "$.map_inverse: expected an array, got int"


class TestExitCodes:
    def test_parse_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        code, _, err = run(capsys, "jacobi", "--scenario", str(bad))
        assert code == 1 and "unknown fields" in err

    @pytest.mark.parametrize("analysis, scenario, what", [
        ("classify", "ex_r4_pi1.json", "submanifold"),
        ("bracket", "ex_r4_pi1.json", "submanifold"),
        ("pushforward", "ex_r4_pi1.json", "map"),
        ("extend", "ex_r4_pi1.json", "evaluation point"),
        ("phi", "ex_r4_pi1.json", "evaluation point"),
        ("embed", "ex_r4_pi1.json", "dirac_manifold block"),
        ("jacobi", "ex_r4_dirac.json", "ambient bivector"),
    ])
    def test_a_scenario_without_a_field_the_analysis_needs_is_one(self, capsys, analysis, scenario, what):
        code, out, err = run(capsys, analysis, "--scenario", scenario)
        assert (code, out) == (1, "") and err == f"error: scenario is missing the {what} this analysis needs\n"

    @staticmethod
    def jacobi_in_subprocess(tmp_path, poly: str) -> subprocess.CompletedProcess:
        doc = {"ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": poly}]}}
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(Path(poisdirac.__file__).parents[1])}
        return subprocess.run(
            [sys.executable, "-m", "poisdirac.cli", "jacobi", "--scenario", str(path)],
            capture_output=True, text=True, env=env, timeout=60,
        )

    def test_zero_denominator_is_schema_error(self, tmp_path):
        proc = self.jacobi_in_subprocess(tmp_path, "1/0*x1")
        assert proc.returncode == 1
        assert "zero denominator" in proc.stderr and "Traceback" not in proc.stderr

    def test_exponent_above_maximum_is_schema_error(self, tmp_path):
        proc = self.jacobi_in_subprocess(tmp_path, f"x1^{MAX_EXPONENT + 1}")
        assert proc.returncode == 1
        assert "exceeds the maximum" in proc.stderr and "Traceback" not in proc.stderr

    # a point on the level set {x2 = 0} in a symplectic plane
    LINE = {
        "ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "1"}]},
        "submanifold": {"type": "level_set", "constraints": ["x2"]},
    }

    @pytest.mark.parametrize("text", ["0.5", "1e3", "1/0"])
    def test_rational_outside_grammar_in_scenario_is_one(self, capsys, tmp_path, text):
        path = tmp_path / "points.json"
        path.write_text(json.dumps({**self.LINE, "points": [[text, "0"]]}))
        code, _, err = run(capsys, "classify", "--scenario", str(path))
        assert code == 1 and "$.points[0][0]" in err and repr(text) in err

    @pytest.mark.parametrize("text", ["0.5", "1e3", "1/0"])
    def test_rational_outside_grammar_in_points_flag_is_one(self, capsys, tmp_path, text):
        path = tmp_path / "line.json"
        path.write_text(json.dumps(self.LINE))
        assert run(capsys, "classify", "--scenario", str(path), "--points", "1/2,0")[0] == 0
        code, _, err = run(capsys, "classify", "--scenario", str(path), "--points", f"{text},0")
        assert code == 1 and "--points" in err and repr(text) in err

    def test_duplicate_key_is_one(self, capsys, tmp_path):
        path = tmp_path / "dup.json"
        path.write_text('{"name": "a", "name": "b", "ambient": {"dim": 2, "bivector": []}}')
        code, _, err = run(capsys, "jacobi", "--scenario", str(path))
        assert code == 1 and "duplicate key 'name'" in err

    @pytest.mark.parametrize("analysis, name", [("classify", "ex_r6.json"), ("bracket", "bracket_sympl4.json")])
    def test_points_flag_of_wrong_length_is_one(self, capsys, analysis, name):
        code, out, err = run(capsys, analysis, "--scenario", name, "--points", "1,2")
        assert code == 1 and out == ""
        assert "point 0 has 2 coordinates" in err

    POINT_OF_PARAMETERS = {
        "ambient": {"dim": 4, "bivector": [{"i": 1, "j": 2, "poly": "1"}, {"i": 3, "j": 4, "poly": "1"}]},
        "submanifold": {"type": "parametrized", "map": ["t1", "t2", "0", "0"]},
        "point": ["1", "2"],
        "subspace_c": [["1", "0", "0", "0"]],
    }

    @pytest.mark.parametrize("analysis, extra", [
        ("extend", {}),
        ("phi", {"subspace_v": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
                 "subspace_w": [["1", "0", "0", "0"], ["0", "1", "1", "0"]]}),
    ])
    def test_a_point_of_the_parameter_space_is_one(self, capsys, tmp_path, analysis, extra):
        # `point` is the ambient evaluation point of extend and phi, whatever the submanifold;
        # a point of the parameter space used to pass the parser and end in a traceback
        path = tmp_path / "point.json"
        path.write_text(json.dumps({**self.POINT_OF_PARAMETERS, **extra}))
        code, out, err = run(capsys, analysis, "--scenario", str(path))
        assert (code, out, err) == (1, "", "error: $.point: expected 4 coordinates, got 2\n")

    def test_a_bracket_scenario_point_is_not_a_sample(self, capsys, tmp_path):
        doc = json.loads((Path(poisdirac.__file__).parent / "scenarios" / "bracket_sympl4.json").read_text())
        path = tmp_path / "with_point.json"
        path.write_text(json.dumps({**doc, "point": ["7", "7", "7", "0"]}))
        code, out, _ = run(capsys, "bracket", "--scenario", str(path), "--porcelain")
        assert code == 0
        assert [e["point"] for e in json.loads(out)["per_point"]] == doc["points"]

    # a coordinate of MAX_DIGITS digits is accepted, but {x1^6, x2} = 6*x1^5
    # has about five times as many: more than Python prints
    LONG = "7" * MAX_DIGITS

    @pytest.mark.parametrize("mode", [[], ["--porcelain"]])
    def test_bracket_too_long_to_print_is_two(self, capsys, tmp_path, mode):
        doc = json.loads((Path(poisdirac.__file__).parent / "scenarios" / "bracket_sympl4.json").read_text())
        path = tmp_path / "long.json"
        path.write_text(json.dumps({**doc, "f": "x1^6", "g": "x2", "points": [["1", "2", "3", "0"], [self.LONG, "1", "1", "0"]]}))
        code, out, err = run(capsys, "bracket", "--scenario", str(path), *mode)
        assert code == 2 and out == ""
        assert err == f"precondition failed: the result at ({self.LONG}, 1, 1, 0) has more than {sys.get_int_max_str_digits()} digits to print\n"

    def test_classify_too_long_to_print_is_two(self, capsys, tmp_path):
        doc = {
            "ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "1"}]},
            "submanifold": {"type": "parametrized", "params": 1, "map": ["t1^6", "t1"]},
            "points": [["2"], [self.LONG]],
        }
        path = tmp_path / "curve.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "classify", "--scenario", str(path))
        assert code == 2 and out == "" and f"the result at ({self.LONG}) has more than" in err

    def test_embedding_past_the_work_cap_is_two(self, capsys, tmp_path, monkeypatch):
        # the covector matrix of the dense 6 + 2 embedding leaves a 5 x 5 Schur complement
        # with no constant entry, whose cofactor expansion holds 1,573 terms
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(worst_cases.embed(6, 2)))
        assert run(capsys, "embed", "--scenario", str(path), "--porcelain")[0] == 0
        monkeypatch.setattr(polynomials, "MAX_MINOR_TERMS", 1000)
        code, out, err = run(capsys, "embed", "--scenario", str(path), "--porcelain")
        assert code == 2 and out == ""
        assert err == "precondition failed: the cofactor expansion of a 5 x 5 polynomial matrix needs more than 1000 terms\n"

    def test_a_product_past_the_term_cap_is_two(self, capsys, tmp_path, monkeypatch):
        # composing x1^32*...*x5^32 with x_i -> x_i + x6^2 expands 33^5 terms: inside every
        # input bound, it would run until memory runs out without the cap
        doc = {
            "ambient": {"dim": 6, "bivector": [{"i": 1, "j": 2, "poly": "*".join(f"x{i}^32" for i in range(1, 6))}]},
            "map": [f"x{i} + x6^2" for i in range(1, 6)] + ["x6"],
            "map_inverse": [f"x{i} - x6^2" for i in range(1, 6)] + ["x6"],
        }
        path = tmp_path / "push.json"
        path.write_text(json.dumps(doc))
        monkeypatch.setattr(polynomials, "MAX_PRODUCT_TERMS", 2000)
        code, out, err = run(capsys, "pushforward", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == "precondition failed: a polynomial product needs more than 2000 terms\n"

    def test_a_dense_pushforward_stops_at_the_default_term_cap(self, capsys, tmp_path):
        # the same composition at the real MAX_PRODUCT_TERMS: the power table builds each
        # (x_i - x6^2)^k once, and the product of the first four powers passes the cap
        path = tmp_path / "push.json"
        path.write_text(json.dumps({
            "ambient": {"dim": 6, "bivector": [{"i": 1, "j": 2, "poly": "*".join(f"x{i}^32" for i in range(1, 6))}]},
            "map": [f"x{i} + x6^2" for i in range(1, 6)] + ["x6"],
            "map_inverse": [f"x{i} - x6^2" for i in range(1, 6)] + ["x6"],
        }))
        code, out, err = run(capsys, "pushforward", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == f"precondition failed: a polynomial product needs more than {polynomials.MAX_PRODUCT_TERMS} terms\n"
        assert polynomials.MAX_PRODUCT_TERMS == 400_000

    @pytest.mark.parametrize("field, cap", [
        # R^3: each row reads one entry, multiplied straight into J^{123}
        ({"ambient": {"dim": 3, "bivector": [
            {"i": i, "j": j, "poly": "x1^2 + x2^2 + x3^2 + x1*x2*x3"} for i, j in ((1, 2), (1, 3), (2, 3))
        ]}}, 10),
        ((4, 1), 4),  # dense: one shared bracket {x_a, x^m} past the cap
        ((4, 2), 30),  # dense: every bracket under the cap, a component summing them past it
    ])
    def test_a_jacobiator_past_the_term_cap_is_two(self, capsys, tmp_path, monkeypatch, field, cap):
        path = tmp_path / "field.json"
        path.write_text(json.dumps(field if isinstance(field, dict) else worst_cases.jacobi(*field)))
        assert run(capsys, "jacobi", "--scenario", str(path))[0] == 0
        monkeypatch.setattr(polynomials, "MAX_PRODUCT_TERMS", cap)
        code, out, err = run(capsys, "jacobi", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == f"precondition failed: a polynomial product needs more than {cap} terms\n"

    @pytest.mark.parametrize("poly", ["x1*", "x1*+x2", "x1**x2"])
    def test_a_star_not_between_two_factors_is_one(self, capsys, tmp_path, poly):
        path = tmp_path / "star.json"
        path.write_text(json.dumps({"ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": poly}]}}))
        code, out, err = run(capsys, "jacobi", "--scenario", str(path))
        assert (code, out) == (1, "") and "'*' must be followed by a factor" in err

    @pytest.mark.parametrize("where", ["scenario", "points flag", "polynomial"])
    def test_too_many_digits_is_one(self, capsys, tmp_path, where):
        path = tmp_path / "line.json"
        long = "7" * (MAX_DIGITS + 1)
        argv = ["classify", "--scenario", str(path)]
        if where == "scenario":
            path.write_text(json.dumps({**self.LINE, "points": [[long, "0"]]}))
        elif where == "points flag":
            path.write_text(json.dumps(self.LINE))
            argv += ["--points", f"1/{long},0"]
        else:
            path.write_text(json.dumps({**self.LINE, "points": [["1", "0"]], "f": f"{long}*x1"}))
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == "" and f"more than {MAX_DIGITS} digits" in err

    def test_json_integer_of_too_many_digits_is_one(self, capsys, tmp_path):
        path = tmp_path / "dim.json"
        path.write_text('{"ambient": {"dim": ' + "9" * 5000 + ', "bivector": []}}')
        code, out, err = run(capsys, "jacobi", "--scenario", str(path))
        assert code == 1 and out == "" and err.startswith("error: invalid JSON")

    @pytest.mark.parametrize("flag, value, what", [
        ("--count", MAX_SAMPLE_COUNT + 1, "sample count"), ("--grid", MAX_GRID_HEIGHT + 1, "grid height"),
    ])
    def test_sample_flags_above_maximum_are_one(self, capsys, flag, value, what):
        code, out, err = run(capsys, "classify", "--scenario", "ex_r6.json", flag, str(value))
        assert code == 1 and out == "" and f"{what} {value} exceeds the maximum" in err

    @pytest.mark.parametrize("key, value", [("count", MAX_SAMPLE_COUNT + 1), ("height", MAX_GRID_HEIGHT + 1)])
    def test_sample_grid_above_maximum_is_one(self, capsys, tmp_path, key, value):
        doc = json.loads((Path(poisdirac.__file__).parent / "scenarios" / "ex_r4_dirac.json").read_text())
        doc["sample_grid"][key] = value
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        assert code == 1 and out == "" and err.startswith("error: $.sample_grid") and f"{value} exceeds" in err

    def test_sample_bounds_admit_their_maximum(self):
        check_sample_bounds(MAX_GRID_HEIGHT, MAX_SAMPLE_COUNT, "--grid/--count")

    def test_missing_scenario_file_is_one(self, capsys):
        code, _, err = run(capsys, "jacobi", "--scenario", "no_such_scenario.json")
        assert code == 1

    def test_regularity_failure_is_two(self, capsys, tmp_path):
        doc = {
            "ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "1"}]},
            "submanifold": {"type": "level_set", "constraints": ["x2"]},
            "points": [["0", "1"]],
        }
        path = tmp_path / "off.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", "--scenario", str(path))
        assert code == 2
        assert "REGULARITY FAILURE" in out

    def test_precondition_failure_is_two(self, capsys, tmp_path):
        # extension of a dual-flavored failure: c not inside the ambient is a
        # schema problem, so use the phi analysis with a non-cosymplectic v
        doc = {
            "ambient": {"dim": 4, "bivector": [{"i": 1, "j": 2, "poly": "1"}, {"i": 3, "j": 4, "poly": "1"}]},
            "point": ["0", "0", "0", "0"],
            "subspace_c": [["1", "0", "0", "0"]],
            "subspace_v": [["1", "0", "0", "0"]],
            "subspace_w": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        }
        path = tmp_path / "phi.json"
        path.write_text(json.dumps(doc))
        code, _, err = run(capsys, "phi", "--scenario", str(path))
        assert code == 2 and "cosymplectic" in err

    def test_success_is_zero(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--scenario", "ex_r4_pi2.json")
        assert code == 0 and "Poisson: yes" in out

    def test_property_violation_is_three(self, capsys, tmp_path):
        # graph extraction fails away from the zero section when the
        # complement tilts into the kernel direction; the report records it
        doc = {
            "dirac_manifold": {
                "dim": 3,
                "sections": [
                    {"X": ["1", "0", "0"], "xi": ["0", "1", "0"]},
                    {"X": ["0", "1", "0"], "xi": ["-1", "0", "0"]},
                    {"X": ["0", "0", "1"], "xi": ["0", "0", "0"]},
                ],
                "E_frame": [["0", "0", "1"]],
                "V_frame": [["1", "0", "0"], ["0", "1", "x1"]],
            },
            "samples": [["1", "1", "0", "-1"]],
        }
        path = tmp_path / "far.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path), "--porcelain")
        assert (code, err) == (3, "")
        assert [(s["point"], s["graph"]) for s in json.loads(out)["samples"]] == [(["1", "1", "0", "-1"], False)]
        # the text report reads the exit code's flags
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        assert (code, err) == (3, "") and "samples checked: 1, all passing: False\n" in out


AMBIENT_2 = {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "1"}]}
LINE_2 = {"type": "level_set", "constraints": ["x2"]}
R4_DIRAC = json.loads((Path(poisdirac.__file__).parent / "scenarios" / "ex_r4_dirac.json").read_text())["dirac_manifold"]

NO_SCENARIO_POINTS = "the scenario lists none, and neither --points nor --grid was given"

# id: (command, scenario document or None for no --scenario, further arguments, exit code,
# the stderr line of an input refused before any document, or with an empty stderr a line
# stdout must hold)
REFUSALS = {
    "duplicate bivector entry": ("jacobi", {"ambient": {"dim": 2, "bivector": [
        {"i": 1, "j": 2, "poly": "1"}, {"i": 1, "j": 2, "poly": "x1"}]}}, [], 1,
        "error: $.ambient.bivector[1]: duplicate entry (1,2)"),
    "level set without constraints": ("classify", {"ambient": AMBIENT_2, "submanifold": {"type": "level_set"}}, [], 1,
                                      "error: $.submanifold: level_set submanifolds need 'constraints'"),
    "level set with no constraint": ("classify", {"ambient": AMBIENT_2, "submanifold": {**LINE_2, "constraints": []}},
                                     [], 1, "error: $.submanifold.constraints: need at least one constraint"),
    "map with no parameter": ("classify", {"ambient": AMBIENT_2, "submanifold": {"type": "parametrized", "map": ["1", "0"]}},
                              [], 1, "error: $.submanifold.map: no parameter variables found; give an explicit 'params' count"),
    "unknown submanifold type": ("classify", {"ambient": AMBIENT_2, "submanifold": {"type": "curve"}}, [], 1,
                                 "error: $.submanifold.type: unknown submanifold type 'curve'"),
    "parametrized without map": ("classify", {"ambient": AMBIENT_2, "submanifold": {"type": "parametrized"}}, [], 1,
                                 "error: $.submanifold: parametrized submanifolds need 'map'"),
    "submanifold without ambient": ("classify", {"submanifold": LINE_2}, [], 1,
                                    "error: $.submanifold: needs an ambient block"),
    "maps without ambient": ("pushforward", {"map": ["x1"], "map_inverse": ["x1"]}, [], 1,
                             "error: $.map: needs an ambient block"),
    "expected bivector without ambient": ("pushforward", {"expected_bivector": []}, [], 1,
                                          "error: $.expected_bivector: needs an ambient block"),
    "subspace without ambient": ("extend", {"subspace_c": [["1"]]}, [], 1,
                                 "error: $.subspace_c: needs an ambient block"),
    "inverse map without ambient": ("pushforward", {"map_inverse": ["x1"]}, [], 1,
                                    "error: $.map_inverse: needs an ambient block"),
    "map without its inverse": ("pushforward", {"ambient": AMBIENT_2, "map": ["x1", "x2"]}, [], 1,
                                "error: $: 'map' and 'map_inverse' must be supplied together"),
    "map of the wrong length": ("pushforward", {"ambient": AMBIENT_2, "map": ["x1"], "map_inverse": ["x1", "x2"]}, [], 1,
                                "error: $.map: maps must have 2 components"),
    "dimension zero": ("jacobi", {"ambient": {"dim": 0, "bivector": []}}, [], 1,
                       "error: $.ambient.dim: dimension must be positive"),
    "function without submanifold": ("bracket", {"ambient": AMBIENT_2, "f": "x1"}, [], 1,
                                     "error: $.f: needs a submanifold block"),
    "second function without submanifold": ("bracket", {"g": "x1"}, [], 1, "error: $.g: needs a submanifold block"),
    "comparison without dirac manifold": ("embed", {"compare_v_frames": {"v0": [], "v1": []}}, [], 1,
                                          "error: $.compare_v_frames: needs a dirac_manifold block"),
    "points without submanifold": ("classify", {"ambient": AMBIENT_2, "points": [["1", "2", "3"]]}, [], 1,
                                   "error: $.points: needs a submanifold block"),
    "point without ambient": ("extend", {"point": ["1", "2", "3"]}, [], 1, "error: $.point: needs an ambient block"),
    "samples without dirac manifold": ("classify", {
        "ambient": AMBIENT_2, "submanifold": LINE_2, "samples": [["1", "2", "3", "4", "5"]],
        "sample_grid": {"height": 2, "seed": 0, "count": 2}}, [], 1, "error: $.samples: needs a dirac_manifold block"),
    "sample grid without dirac manifold": ("classify", {
        "ambient": AMBIENT_2, "submanifold": LINE_2, "sample_grid": {"height": 2, "seed": 0, "count": 2}}, [], 1,
        "error: $.sample_grid: needs a dirac_manifold block"),
    "too few sections": ("embed", {"dirac_manifold": {**R4_DIRAC, "sections": R4_DIRAC["sections"][:2]}}, [], 1,
                         "error: $.dirac_manifold: need 3 spanning sections, got 2"),
    "E and V frames of the wrong count": ("embed", {"dirac_manifold": {**R4_DIRAC, "V_frame": R4_DIRAC["V_frame"][:1]}},
                                          [], 1, "error: $.dirac_manifold: E and V frames together must have base_dim members"),
    "bracket without points": ("bracket", {"ambient": AMBIENT_2, "submanifold": LINE_2, "f": "x1", "g": "x1"}, [], 2,
                               f"precondition failed: no sample point: {NO_SCENARIO_POINTS}"),
    "empty scenario points": ("classify", {"ambient": AMBIENT_2, "submanifold": LINE_2, "points": []}, [], 2,
                              f"precondition failed: no sample point: {NO_SCENARIO_POINTS}"),
    "empty points flag": ("classify", None, ["--scenario", "ex_r6.json", "--points", ""], 2,
                          "precondition failed: no sample point: --points gives none"),
    "grid with no draw on the locus": ("classify", None, ["--scenario", "ex_r6.json", "--grid", "20", "--count", "25"], 2,
                                       "precondition failed: no sample point: none of the 10000 draws of --grid 20 "
                                       "landed on the locus"),
    "bracket grid with no draw on the locus": ("bracket", None, [
        "--scenario", "bracket_sympl4.json", "--grid", "1000000", "--count", "1000"], 2,
        "precondition failed: no sample point: none of the 10000 draws of --grid 1000000 landed on the locus"),
    "grid of no point": ("bracket", None, ["--scenario", "bracket_sympl4.json", "--grid", "3", "--count", "0"], 2,
                         "precondition failed: no sample point: --count is 0"),
    "empty points chunk": ("classify", {"ambient": AMBIENT_2, "submanifold": LINE_2}, ["--points", "1,0;"], 0,
                           "(1, 0) | (1, 0) | 1 | 1 | 1 | 1 | 0 | coisotropic"),
    "scenarios as text": ("scenarios", None, [], 0, "ex_r4_dirac.json"),
    "c not coisotropic in v": ("phi", {"ambient": AMBIENT_2, "point": ["0", "0"], "subspace_c": [],
                                       "subspace_v": [["1", "0"], ["0", "1"]], "subspace_w": [["1", "0"], ["0", "1"]]},
                               [], 2, "precondition failed: c does not sit coisotropically inside v"),
    "dependent constraint differentials": ("classify", {
        "ambient": AMBIENT_2, "submanifold": {**LINE_2, "constraints": ["x2", "2*x2"]}, "points": [["1", "0"]]}, [], 2,
        "point 0: REGULARITY FAILURE: constraint differentials are dependent at (1, 0)"),
}


class TestRefusals:
    """Every refusal a scenario or a flag can reach ends in its exit code and one diagnostic."""

    @pytest.mark.parametrize("case", REFUSALS)
    def test_each_input_ends_in_its_exit_code_and_diagnostic(self, capsys, tmp_path, case):
        command, doc, extra, code, line = REFUSALS[case]
        argv = [command, *extra]
        if doc is not None:
            path = tmp_path / "scenario.json"
            path.write_text(json.dumps(doc))
            argv += ["--scenario", str(path)]
        got, out, err = run(capsys, *argv)
        if line.startswith(("error: ", "precondition failed: ")):
            assert (got, out, err) == (code, "", f"{line}\n")
        else:
            assert (got, err) == (code, "") and line in out.splitlines()


class TestReports:
    def test_jacobi_broken_prints_component(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--scenario", "broken.json")
        assert code == 0
        assert "Poisson: no" in out
        assert "J^{1,2,3} = 1" in out

    def test_porcelain_is_json_without_banner(self, capsys):
        code, out, _ = run(capsys, "jacobi", "--scenario", "broken.json", "--porcelain")
        assert code == 0
        doc = json.loads(out)
        assert doc["analysis"] == "jacobi"
        assert doc["poisson"] is False
        assert doc["nonzero_jacobiator"] == [{"i": 1, "j": 2, "k": 3, "poly": "1"}]

    def test_byte_identical_output(self, capsys):
        _, first, _ = run(capsys, "classify", "--scenario", "ex_r6.json", "--porcelain")
        _, second, _ = run(capsys, "classify", "--scenario", "ex_r6.json", "--porcelain")
        assert first == second

    def test_dense_jacobi_scenario(self, capsys, tmp_path):
        # every upper entry holds all five monomials of degree <= 1 in x1..x4
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(worst_cases.jacobi(4, 1)))
        code, out, _ = run(capsys, "jacobi", "--scenario", str(path), "--porcelain")
        doc = json.loads(out)
        assert code == 0 and doc["poisson"] is False
        assert [(c["i"], c["j"], c["k"]) for c in doc["nonzero_jacobiator"]] == [(1, 2, 3), (1, 2, 4), (1, 3, 4), (2, 3, 4)]

    def test_dense_linear_scenario(self, capsys, tmp_path):
        # a constant bivector on R^6 and a 3-plane c, every entry a 25-digit integer: the
        # eliminations run under pivots wider than 64 bits, and c grows by one vector
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(worst_cases.extend(6, 25)))
        code, out, _ = run(capsys, "extend", "--scenario", str(path), "--porcelain")
        doc = json.loads(out)
        assert code == 0 and doc["conditions"] == {"cond_int": True, "cond_leaf": True}
        assert len(doc["c"]["basis"]) == 3 and len(doc["w"]["basis"]) == 4
        assert doc["w_classification"]["flags"]["cosymplectic"] is True
        assert max(abs(int(a.split("/")[-1])) for row in doc["w"]["basis"] for a in row).bit_length() > 64

    # the sha256 prefix of what `worst_cases.py COMMAND A B` prints for each writer case
    WRITER_DIGESTS = {
        ("embed", 6, 4): "272fa8d49eb65031", ("embed", 8, 2): "c53db5800212b21f",
        ("embed", 8, 4): "46d66c131cbedb56", ("embed", 10, 2): "cb156b54840f734a",
        ("jacobi", 8, 2): "fbc957502e076819", ("jacobi", 12, 2): "491baa05cdf6d6ae",
        ("jacobi", 12, 3): "facd70af31ccc3d7",
        ("pushforward", 6, 3): "385af6769b608873", ("pushforward", 8, 2): "07b4a69f29391ca2",
        ("pushforward", 6, 4): "e3c996f00800bc20", ("pushforward", 12, 2): "5cf244bbcbe309ff",
        ("extend", 12, 50): "986a0677cf14ea1d", ("extend", 12, 300): "2a573c9e3d945835",
        ("extend", 12, 990): "9b5ad60a9c7bb33d",
    }

    def test_worst_case_writers_print_their_scenarios(self, capsys):
        assert list(self.WRITER_DIGESTS) == [case for case in worst_cases.CASES if case[0] in worst_cases.WRITERS]
        for (command, a, b), prefix in self.WRITER_DIGESTS.items():
            assert worst_cases.main([command, str(a), str(b)]) == 0
            assert hashlib.sha256(capsys.readouterr().out.encode("utf-8")).hexdigest()[:16] == prefix

    def test_worst_case_child_reports_its_run(self, tmp_path):
        # one timed child: exit code, time and peak RSS, and the output digest or the diagnostic
        golden = (Path(__file__).parent / "golden" / "ex_r4_pi1.json").read_bytes()
        code, seconds, mb, shown = worst_cases.run_child(["jacobi", "--scenario", "ex_r4_pi1.json", "--porcelain"], tmp_path)
        assert (code, shown) == (0, hashlib.sha256(golden).hexdigest()[:16]) and seconds > 0 and mb > 0
        argv = ["bracket", "--scenario", "bracket_sympl4.json", "--grid", "3", "--count", "0", "--porcelain"]
        assert worst_cases.run_child(argv, tmp_path)[::3] == (2, "precondition failed: no sample point: --count is 0")

    def test_output_digests_script(self, tmp_path):
        # its dense runs are the first case of each writer's command
        firsts = [case for i, case in enumerate(worst_cases.CASES) if case[0] not in (c[0] for c in worst_cases.CASES[:i])]
        assert digests.DENSE == [case for case in firsts if case[0] in worst_cases.WRITERS]
        labels = [label for _, label, _ in digests.runs(tmp_path)]
        assert labels == [*sorted(BUNDLED_ANALYSES), "worst_cases.py embed 6 4", "worst_cases.py jacobi 8 2",
                          "worst_cases.py pushforward 6 3", "worst_cases.py extend 12 50"]
        golden = Path(__file__).parent / "golden" / "ex_r4_pi1"
        for suffix, extra in (("txt", []), ("json", ["--porcelain"])):
            expected = hashlib.sha256(golden.with_suffix(f".{suffix}").read_bytes()).hexdigest()
            assert digests.digest(["jacobi", "--scenario", "ex_r4_pi1.json", *extra]) == (expected, 0)

    def test_line_coverage_lists_the_statements_that_never_ran(self, tmp_path):
        path = tmp_path / "two.py"
        path.write_text(
            '"""Two functions, one of them called."""\n'
            "import functools\n"
            "\n"
            "\n"
            "def called(x):\n"
            "    if x:\n"
            "        return 1\n"
            "    return 2\n"
            "\n"
            "\n"
            "@functools.cache\n"
            "def uncalled(x):\n"
            '    """Never run."""\n'
            "    global y\n"
            "    y = (x +\n"
            "         1)\n"
            "    return y\n"
        )

        def load_and_call():
            spec = importlib.util.spec_from_file_location("two", path)
            module = importlib.util.module_from_spec(spec)
            spec.loader.exec_module(module)
            return module.called(True)

        result, executed = coverage.collect(tmp_path, load_and_call)
        assert result == 1 and set(executed) == {str(path.resolve())}
        assert coverage.unrun(path, executed[str(path.resolve())]) == [(8, "return 2"), (15, "y = (x +"), (17, "return y")]

    def test_line_coverage_measures_its_own_checkout(self):
        # without PYTHONPATH the script still imports this checkout's src/ and traces it
        statements = sum(len(coverage.statement_spans(p.read_text())) for p in coverage.PACKAGE.glob("*.py"))
        env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
        proc = subprocess.run(
            [sys.executable, str(coverage.ROOT / "scripts" / "line_coverage.py"), "-q", "-p", "no:cacheprovider",
             "tests/test_cli.py::test_bundled_scenarios_present"],
            capture_output=True, text=True, env=env, cwd=coverage.ROOT, timeout=60,
        )
        assert proc.returncode == 0, proc.stdout + proc.stderr
        count, tail = proc.stdout.splitlines()[-1].split(" ", 1)
        assert tail == "statements never ran" and 0 < int(count) < statements

    def test_line_coverage_refuses_a_poisdirac_from_elsewhere(self, tmp_path, monkeypatch):
        monkeypatch.setattr(sys, "path", list(sys.path))
        coverage.import_program()  # this checkout's own package passes
        elsewhere = types.ModuleType("poisdirac")
        elsewhere.__file__ = str(tmp_path / "poisdirac" / "__init__.py")
        monkeypatch.setitem(sys.modules, "poisdirac", elsewhere)
        with pytest.raises(SystemExit) as exc:
            coverage.import_program()
        assert str(exc.value) == f"error: imported poisdirac from {elsewhere.__file__}, not from {coverage.SRC}"

    def test_dense_push_scenario(self, capsys, tmp_path):
        # f u ^ v on R^4, every entry a multiple of one f holding all 15 monomials of degree
        # <= 2, pushed along shears of x1, x2 by x3 x4 and x4^2: Poisson before and after
        path = tmp_path / "dense.json"
        path.write_text(json.dumps(worst_cases.pushforward(4, 2)))
        code, out, _ = run(capsys, "pushforward", "--scenario", str(path), "--porcelain")
        doc = json.loads(out)
        assert code == 0 and doc["poisson_preserved"] is True
        assert [(e["i"], e["j"]) for e in doc["result"]] == [(1, 2), (1, 3), (1, 4), (2, 3), (2, 4), (3, 4)]
        assert run(capsys, "jacobi", "--scenario", str(path), "--porcelain")[1].count('"poisson": true') == 1

    def test_text_output_renders_no_document(self, capsys, monkeypatch):
        monkeypatch.setattr(cli.json, "dumps", lambda *args, **kwargs: pytest.fail("document rendered"))
        code, out, _ = run(capsys, "jacobi", "--scenario", "broken.json")
        assert code == 0 and "J^{1,2,3} = 1" in out

    def test_output_file_written(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, out, _ = run(capsys, "jacobi", "--scenario", "ex_r4_pi1.json", "--output", str(target))
        assert code == 0
        doc = json.loads(target.read_text())
        assert doc["poisson"] is True

    def test_classify_machine_document_has_dimensions(self, capsys):
        code, out, _ = run(capsys, "classify", "--scenario", "ex_fz.json", "--porcelain")
        assert code == 0
        doc = json.loads(out)
        sums = [row["dims"]["sum"] for row in doc["rows"]]
        assert sums == [1, 3, 3, 3]
        assert all("characteristic_basis" in row for row in doc["rows"])

    def test_points_flag_overrides(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--scenario", "ex_fz.json", "--points", "0,0,5", "--porcelain"
        )
        doc = json.loads(out)
        assert len(doc["rows"]) == 1
        assert doc["rows"][0]["dims"]["sum"] == 3

    def test_pushforward_matches_expected(self, capsys):
        code, out, _ = run(capsys, "pushforward", "--scenario", "ex_r4_push.json", "--porcelain")
        assert code == 0
        doc = json.loads(out)
        assert doc["matches_expected"] is True

    def test_embed_report(self, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", "ex_r4_dirac.json", "--porcelain")
        assert code == 0
        doc = json.loads(out)
        assert doc["total_dim"] == 4
        assert doc["bivector"] == [
            {"i": 1, "j": 2, "poly": "x1^2"},
            {"i": 3, "j": 4, "poly": "1"},
        ]
        assert len(doc["samples"]) == 25
        assert all(s["graph"] and s["zero_section_coisotropic"] and s["zero_section_pullback_matches"] for s in doc["samples"])

    def test_embed_with_comparison(self, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", "ex_r4_splittings.json", "--porcelain")
        assert code == 0
        doc = json.loads(out)
        assert doc["comparison"]["closed"] is True
        assert doc["comparison"]["one_form_difference_vanishes_on_base"] is True
        assert doc["comparison"]["intertwines_at_all_samples"] is True

    def test_bracket_values(self, capsys):
        code, out, _ = run(capsys, "bracket", "--scenario", "bracket_sympl4.json", "--porcelain")
        assert code == 0
        doc = json.loads(out)
        assert [entry["bracket"] for entry in doc["per_point"]] == ["-1", "-1", "-1"]
        assert all(entry["consistent"] for entry in doc["per_point"])

    def test_scenarios_listing(self, capsys):
        code, out, _ = run(capsys, "scenarios", "--porcelain")
        assert code == 0
        assert set(json.loads(out)["bundled"]) == set(BUNDLED_ANALYSES)

    PHI = {
        "ambient": {"dim": 4, "bivector": [{"i": 1, "j": 2, "poly": "1"}, {"i": 3, "j": 4, "poly": "1"}]},
        "point": ["0", "0", "0", "0"],
        "subspace_c": [["1", "0", "0", "0"]],
        "subspace_v": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
        "subspace_w": [["1", "0", "0", "0"], ["0", "1", "1", "0"]],
    }

    def test_phi_success(self, capsys, tmp_path):
        path = tmp_path / "phi_ok.json"
        path.write_text(json.dumps(self.PHI))
        code, out, _ = run(capsys, "phi", "--scenario", str(path), "--porcelain")
        assert code == 0
        result = json.loads(out)
        assert result["poisson_isomorphism"] and result["identity_on_c"]
        assert result["matrix"] == [["1", "0"], ["0", "1"]]

    def test_a_wrong_phi_is_three_and_still_reported(self, capsys, tmp_path, monkeypatch):
        path, target = tmp_path / "phi.json", tmp_path / "doc.json"
        path.write_text(json.dumps(self.PHI))
        original = cli.canonical_iso
        monkeypatch.setattr(cli, "canonical_iso", lambda *args: original(*args).scale(2))
        code, out, err = run(capsys, "phi", "--scenario", str(path), "--output", str(target))
        assert (code, err) == (3, "")
        assert out.endswith("poisson isomorphism: False; identity on c: False\n")
        result = json.loads(target.read_text())
        assert result["matrix"] == [["2", "0"], ["0", "2"]]
        assert not result["poisson_isomorphism"] and not result["identity_on_c"]

    def test_a_failed_comparison_is_three_and_still_reported(self, capsys, monkeypatch):
        original = cli.compare_splittings
        failing = lambda *args: dataclasses.replace(original(*args), intertwines_at_all_samples=False)
        monkeypatch.setattr(cli, "compare_splittings", failing)
        code, out, err = run(capsys, "embed", "--scenario", "ex_r4_splittings.json", "--porcelain")
        assert (code, err) == (3, "")
        doc = json.loads(out)
        assert doc["comparison"]["closed"] and not doc["comparison"]["intertwines_at_all_samples"]
        assert all(sample["graph"] for sample in doc["samples"])

    def test_grid_flag_generates_points(self, capsys):
        code, out, _ = run(
            capsys, "classify", "--scenario", "ex_graph4.json",
            "--grid", "3", "--seed", "5", "--count", "7", "--porcelain",
        )
        assert code == 0
        doc = json.loads(out)
        assert len(doc["rows"]) == 7

    @pytest.mark.parametrize("argv, key, count", [
        (["classify", "--scenario", "ex_r6.json", "--grid", "3", "--seed", "2", "--count", "6"], "rows", 6),
        (["bracket", "--scenario", "bracket_sympl4.json", "--grid", "4", "--count", "3"], "per_point", 3),
    ])
    def test_grid_flag_on_level_set_draws_points_on_the_locus(self, capsys, argv, key, count):
        code, out, _ = run(capsys, *argv, "--porcelain")
        assert code == 0
        doc = json.loads(out)
        assert len(doc[key]) == count and doc.get("errors", []) == []

    def test_off_locus_point_is_printed_as_rationals(self, capsys):
        code, _, err = run(capsys, "bracket", "--scenario", "bracket_sympl4.json", "--points", "1/2,-4/3,1,2/3")
        assert code == 2
        assert "(1/2, -4/3, 1, 2/3)" in err and "Fraction(" not in err

    def test_bracket_point_derives_its_tangent_once(self, capsys, monkeypatch):
        calls = []
        original = submanifolds.tangent_at

        def counting(c, q):
            calls.append(tuple(q))
            return original(c, q)

        monkeypatch.setattr(submanifolds, "tangent_at", counting)
        code, out, _ = run(capsys, "bracket", "--scenario", "bracket_sympl4.json", "--points", "1,2,3,0", "--porcelain")
        assert code == 0 and json.loads(out)["per_point"][0]["consistent"]
        assert calls == [(1, 2, 3, 0)]

    @pytest.mark.parametrize("argv, count", [
        (["classify", "--scenario", "ex_r6.json"], 4),
        (["bracket", "--scenario", "bracket_sympl4.json", "--points", "1,2,3,0"], 1),
    ])
    def test_level_set_point_evaluates_its_constraints_once(self, capsys, monkeypatch, argv, count):
        evaluated, tangents = [], []
        evaluate, tangent_at = PolyMap.evaluate, submanifolds.tangent_at
        monkeypatch.setattr(PolyMap, "evaluate", lambda m, q: evaluated.append(tuple(q)) or evaluate(m, q))
        monkeypatch.setattr(submanifolds, "tangent_at", lambda c, q: tangents.append(tuple(q)) or tangent_at(c, q))
        code, _, _ = run(capsys, *argv, "--porcelain")
        assert code == 0
        assert len(evaluated) == count and evaluated == tangents

    def test_params_field_optional_for_parametrized(self, tmp_path):
        doc = load_scenario_text(json.dumps({
            "ambient": {"dim": 4, "bivector": [{"i": 1, "j": 2, "poly": "1"}]},
            "submanifold": {"type": "parametrized", "map": ["t1", "t2", "t2^2", "t1^2"]},
        }))
        assert doc.submanifold.param_dim == 2

    def test_every_bundled_scenario_runs_quickly(self, capsys):
        import time

        names = bundled_scenario_names()
        assert [name for name in names if name not in BUNDLED_ANALYSES] == []
        for name in names:
            analysis = BUNDLED_ANALYSES[name]
            start = time.perf_counter()
            code, _, _ = run(capsys, analysis, "--scenario", name, "--porcelain")
            elapsed = time.perf_counter() - start
            assert code == 0, name
            assert elapsed < 1.0, f"{name} took {elapsed:.2f}s"


def bundled(name: str) -> dict:
    return json.loads((Path(poisdirac.__file__).parent / "scenarios" / name).read_text())


class TestInputBounds:
    """Sample flags, dimensions and frame counts are checked where the input enters."""

    @pytest.mark.parametrize("command, scenario", [("classify", "ex_fz.json"), ("embed", "ex_r4_dirac.json")])
    @pytest.mark.parametrize("flags, message", [
        (["--grid", "0"], "grid height 0 is below the minimum 1"),
        (["--grid", "-3"], "grid height -3 is below the minimum 1"),
        (["--grid", "2", "--count", "-1"], "sample count -1 is below the minimum 0"),
    ])
    def test_sample_flags_below_minimum_are_one(self, capsys, command, scenario, flags, message):
        code, out, err = run(capsys, command, "--scenario", scenario, *flags)
        assert (code, out) == (1, "") and err == f"error: --grid/--count: {message}\n"

    def test_embed_grid_zero_without_sample_grid_is_one(self, capsys, tmp_path):
        doc = bundled("ex_r4_dirac.json")
        del doc["sample_grid"]
        path = tmp_path / "nogrid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path), "--grid", "0", "--count", "2")
        assert (code, out) == (1, "") and "grid height 0 is below the minimum 1" in err

    @pytest.mark.parametrize("key, value, message", [
        ("height", 0, "grid height 0 is below the minimum 1"), ("count", -1, "sample count -1 is below the minimum 0"),
    ])
    def test_sample_grid_below_minimum_is_one(self, capsys, tmp_path, key, value, message):
        doc = bundled("ex_r4_dirac.json")
        doc["sample_grid"][key] = value
        path = tmp_path / "grid.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        assert (code, out) == (1, "") and err == f"error: $.sample_grid: {message}\n"

    def test_embed_grid_flag_replaces_the_scenario_samples(self, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", "ex_r4_dirac.json", "--grid", "1", "--count", "2", "--porcelain")
        points = [sample["point"] for sample in json.loads(out)["samples"]]
        assert code == 0 and len(points) == 2
        assert all(x in ("-1", "0", "1") for point in points for x in point)

    def test_explicit_samples_win_over_the_sample_grid_and_the_grid_flag_over_both(self, capsys, tmp_path):
        doc = bundled("ex_r4_dirac.json")
        assert load_scenario_text(json.dumps(doc)).samples == grid_points(4, 3, 7, 25)
        doc["samples"] = [["1", "0", "0", "1/2"]]
        path = tmp_path / "both.json"
        path.write_text(json.dumps(doc))
        for flags, expected in [((), [["1", "0", "0", "1/2"]]), (("--grid", "2", "--count", "3"), grid_points(4, 2, 0, 3))]:
            code, out, _ = run(capsys, "embed", "--scenario", str(path), *flags, "--porcelain")
            assert code == 0
            assert [sample["point"] for sample in json.loads(out)["samples"]] == [list(map(str, p)) for p in expected]

    def test_embed_count_zero_checks_no_samples(self, capsys):
        code, out, _ = run(capsys, "embed", "--scenario", "ex_r4_dirac.json", "--grid", "1", "--count", "0", "--porcelain")
        assert code == 0 and json.loads(out)["samples"] == []

    def test_huge_ambient_dimension_is_one_without_allocating(self, tmp_path):
        import resource

        doc = bundled("ex_r4_pi1.json")
        doc["ambient"]["dim"] = 10_000_000
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(doc))
        env = {**os.environ, "PYTHONPATH": str(Path(poisdirac.__file__).parents[1])}
        limit = 1 << 30  # the n x n grid of that dimension needs far more

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        proc = subprocess.run(
            [sys.executable, "-m", "poisdirac.cli", "jacobi", "--scenario", str(path)],
            capture_output=True, text=True, env=env, timeout=60, preexec_fn=cap_memory,
        )
        assert proc.returncode == 1
        assert proc.stderr == f"error: $.ambient.dim: dimension 10000000 exceeds the maximum {MAX_DIM}\n"

    @pytest.mark.parametrize("where", ["ambient", "params", "inferred params", "base", "total"])
    def test_dimension_above_maximum_is_one(self, capsys, tmp_path, where):
        big = MAX_DIM + 1
        if where == "ambient":
            doc, path_text, what = {"ambient": {"dim": big, "bivector": []}}, "$.ambient.dim", "dimension"
        elif where in ("params", "inferred params"):
            sub = {"type": "parametrized", "map": [f"t{big}", "0", "0", "0"]}
            if where == "params":
                sub = {**sub, "params": big}
            doc = {"ambient": {"dim": 4, "bivector": []}, "submanifold": sub}
            path_text, what = "$.submanifold." + ("params" if where == "params" else "map"), "parameter count"
        elif where == "base":
            doc, path_text, what = bundled("ex_r4_dirac.json"), "$.dirac_manifold.dim", "dimension"
            doc["dirac_manifold"]["dim"] = big
        else:
            doc, path_text, what = bundled("ex_r10_dirac.json"), "$.dirac_manifold.E_frame", "total dimension"
            doc["dirac_manifold"]["E_frame"] += [["0"] * 8] * (big - 10)
        path = tmp_path / "big.json"
        path.write_text(json.dumps(doc))
        analysis = "classify" if "params" in where else "jacobi" if where == "ambient" else "embed"
        code, out, err = run(capsys, analysis, "--scenario", str(path))
        assert (code, out) == (1, "") and err == f"error: {path_text}: {what} {big} exceeds the maximum {MAX_DIM}\n"

    def test_dimensions_at_the_maximum_are_accepted(self):
        last = f"x{MAX_DIM}"
        doc = load_scenario_text(json.dumps({
            "ambient": {"dim": MAX_DIM, "bivector": [{"i": 1, "j": MAX_DIM, "poly": last}]},
            "submanifold": {"type": "parametrized", "map": [f"t{MAX_DIM}"] + ["0"] * (MAX_DIM - 1)},
        }))
        assert doc.bivector.dim == MAX_DIM and doc.submanifold.param_dim == MAX_DIM

    # E = 0 on the symplectic plane, so V alone must be a frame
    PLANE = {
        "dirac_manifold": {
            "dim": 2,
            "sections": [{"X": ["1", "0"], "xi": ["0", "-1"]}, {"X": ["0", "1"], "xi": ["1", "0"]}],
            "E_frame": [],
            "V_frame": [["1", "0"], ["0", "1"]],
        },
        "samples": [["1", "2"], ["-1/2", "3"]],
    }

    @pytest.mark.parametrize("k", [1, 0])
    def test_a_v1_that_does_not_complement_e_is_two(self, capsys, tmp_path, k):
        # v1 is checked by inverting [E | V1], never at the samples
        doc = bundled("ex_r4_splittings.json") if k else {**self.PLANE, "compare_v_frames": {"v0": [["1", "0"], ["0", "1"]]}}
        doc["compare_v_frames"]["v1"] = doc["compare_v_frames"]["v0"]
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(doc))
        assert run(capsys, "embed", "--scenario", str(path))[0] == 0
        # (0, 0, 1) spans E; the two fields of the plane's v1 are equal
        doc["compare_v_frames"]["v1"] = [["1", "0", "0"], ["0", "0", "1"]] if k else [["1", "x2"], ["1", "x2"]]
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("precondition failed: v1 frame invalid: frame determinant 0 ") and err.count("\n") == 1

    def test_a_v0_with_a_nonconstant_determinant_is_named(self, capsys, tmp_path):
        doc = bundled("ex_r4_splittings.json")
        doc["compare_v_frames"]["v0"] = [["1", "0", "0"], ["0", "1 + x1^2", "0"]]
        path = tmp_path / "v0.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err.startswith("precondition failed: v0 frame invalid: frame determinant x1^2 + 1 ") and err.count("\n") == 1

    def test_a_spanning_v_frame_with_a_nonconstant_determinant_is_two_when_k_is_zero(self, capsys, tmp_path):
        doc = json.loads(json.dumps(self.PLANE))
        doc["dirac_manifold"]["V_frame"][1] = ["0", "1 + x1^2"]
        path = tmp_path / "plane.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == "precondition failed: frame determinant x1^2 + 1 is not a nonzero constant; the dual coframe is not polynomial\n"

    def test_a_dependent_e_frame_names_its_field_count(self, capsys, tmp_path):
        # both fields span L /\ TM, so only their count shows that they are no basis of it
        doc = bundled("ex_r4_splittings.json")
        del doc["compare_v_frames"], doc["sample_grid"]
        doc["dirac_manifold"].update(E_frame=[["0", "0", "1"], ["0", "0", "1"]], V_frame=[["1", "0", "0"]])
        doc["samples"] = [["1", "0", "0", "1", "1"]]
        path = tmp_path / "dependent.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        assert (code, out) == (2, "")
        assert err == (
            "precondition failed: input data invalid at sample 0: E frame of k = 2 fields is not a basis of "
            "L /\\ TM: it spans a 1-dim space, and L /\\ TM is 1-dim\n"
        )

    @pytest.mark.parametrize("key, keep", [("v1", 1), ("v0", 3)])
    def test_compare_frame_of_wrong_count_is_one(self, capsys, tmp_path, key, keep):
        doc = bundled("ex_r4_splittings.json")
        frame = doc["compare_v_frames"][key]
        doc["compare_v_frames"][key] = (frame * 2)[:keep]
        path = tmp_path / "short.json"
        path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "embed", "--scenario", str(path))
        expected = len(frame)
        assert (code, out) == (1, "")
        assert err == f"error: $.compare_v_frames.{key}: expected {expected} vector fields, got {keep}\n"


class TestCommandLine:
    """Sampling flags exist only where an analysis reads them; usage and file errors exit 1."""

    SAMPLING = {"--points", "--grid", "--seed", "--count"}

    def test_sampling_flags_are_registered_where_they_are_read(self):
        commands = build_parser()._subparsers._group_actions[0].choices
        flags = {name: {s for a in p._actions for s in a.option_strings} & self.SAMPLING for name, p in commands.items()}
        assert flags == {
            "classify": self.SAMPLING, "bracket": self.SAMPLING, "embed": self.SAMPLING - {"--points"},
            "jacobi": set(), "pushforward": set(), "extend": set(), "phi": set(), "scenarios": set(),
        }

    @pytest.mark.parametrize("argv", [
        ["extend", "--scenario", "ex_r6_extend.json", "--points", "zz"],
        ["embed", "--scenario", "ex_r4_dirac.json", "--points", "1,2,3,4,5;7"],
        ["jacobi", "--scenario", "ex_r4_pi1.json", "--grid", "3"],
        ["phi", "--scenario", "ex_r6_phi.json", "--count", "3"],
    ])
    def test_a_sampling_flag_the_analysis_does_not_read_is_one(self, capsys, argv):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.endswith(f"error: poisdirac {argv[0]}: unrecognized arguments: {argv[-2]} {argv[-1]}\n")

    def test_an_unknown_argument_shows_the_usage_of_the_command_run(self, capsys):
        code, out, err = run(capsys, "jacobi", "--scenario", "ex_r4_pi1.json", "--grid", "3")
        assert (code, out) == (1, "")
        usage, message = err.split("error: ")
        assert usage.startswith("usage: poisdirac jacobi [-h] --scenario SCENARIO") and "{classify," not in usage
        assert message == "poisdirac jacobi: unrecognized arguments: --grid 3\n"

    def test_the_parser_is_built_once_per_process(self, capsys, tmp_path):
        assert build_parser() is build_parser()
        path = tmp_path / "doc.json"
        assert main(["classify", "--scenario", "ex_fz.json", "--grid", "3", "--count", "2", "--output", str(path)]) == 0
        path.unlink()
        capsys.readouterr()
        # the flags of the first run do not carry over to the second
        code, out, err = run(capsys, "classify", "--scenario", "ex_fz.json")
        golden = Path(__file__).parent / "golden" / "ex_fz.txt"
        assert (code, out, err) == (0, golden.read_text(encoding="utf-8"), "")
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("argv, message", [
        (["classify", "--scenario", "ex_fz.json", "--grid", "abc"], "argument --grid: invalid int value: 'abc'"),
        (["classify", "--scenario", "ex_fz.json", "--bogus"], "unrecognized arguments: --bogus"),
        (["classify"], "the following arguments are required: --scenario"),
        (["frobnicate"], "argument command: invalid choice: 'frobnicate'"),
        ([], "the following arguments are required: command"),
    ])
    def test_usage_error_is_one(self, capsys, argv, message):
        code, out, err = run(capsys, *argv)
        assert (code, out) == (1, "")
        assert err.startswith("usage: poisdirac") and "error: poisdirac" in err and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["--version"], ["embed", "--help"]])
    def test_help_and_version_are_zero(self, capsys, argv):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == 0 and capsys.readouterr().out

    def test_scenario_naming_a_directory_is_one(self, capsys, tmp_path):
        code, out, err = run(capsys, "jacobi", "--scenario", str(tmp_path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read scenario {str(tmp_path)!r}: ") and err.count("\n") == 1

    def test_scenario_that_is_not_utf8_is_one(self, capsys, tmp_path):
        path = tmp_path / "latin1.json"
        path.write_bytes('{"name": "café"}'.encode("latin-1"))
        code, out, err = run(capsys, "jacobi", "--scenario", str(path))
        assert (code, out) == (1, "")
        assert err.startswith(f"error: cannot read scenario {str(path)!r}: 'utf-8' codec can't decode")

    @pytest.mark.parametrize("mode", [[], ["--porcelain"]])
    def test_output_into_a_missing_directory_is_one(self, capsys, tmp_path, mode):
        target = tmp_path / "missing" / "doc.json"
        code, out, err = run(capsys, "jacobi", "--scenario", "ex_r4_pi1.json", "--output", str(target), *mode)
        assert (code, out) == (1, "")
        assert err == f"error: cannot write --output {str(target)!r}: No such file or directory\n"
        assert not target.parent.exists()

    def test_output_of_a_failing_report_into_a_missing_directory_is_one(self, capsys, tmp_path):
        argv = ["classify", "--scenario", "bracket_sympl4.json", "--points", "0,0,0,1"]  # off the locus
        assert run(capsys, *argv)[0] == 2
        target = tmp_path / "missing" / "doc.json"
        code, out, err = run(capsys, *argv, "--output", str(target))
        assert (code, out) == (1, "") and err.startswith(f"error: cannot write --output {str(target)!r}")
