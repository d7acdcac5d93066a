import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import poisdirac
from poisdirac import submanifolds
from poisdirac.cli import BUNDLED_ANALYSES, build_parser, bundled_scenario_names, main
from poisdirac.errors import SchemaError
from poisdirac.polynomials import MAX_EXPONENT, PolyMap
from poisdirac.rational_linalg import MAX_DIGITS
from poisdirac.scenario import MAX_DIM, MAX_GRID_HEIGHT, MAX_SAMPLE_COUNT, check_sample_bounds, load_scenario_text


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


class TestExitCodes:
    def test_parse_error_is_one(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"nope": 1}')
        code, _, err = run(capsys, "jacobi", "--scenario", str(bad))
        assert code == 1 and "unknown fields" in err

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
        # complement tilts into the kernel direction
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
        code, _, err = run(capsys, "embed", "--scenario", str(path))
        assert code == 3 and "not a bivector graph" in err


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

    def test_empty_points_list_gives_empty_profile(self, capsys, tmp_path):
        doc = {
            "ambient": {"dim": 2, "bivector": [{"i": 1, "j": 2, "poly": "1"}]},
            "submanifold": {"type": "level_set", "constraints": ["x2"]},
            "points": [],
        }
        path = tmp_path / "empty.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "classify", "--scenario", str(path), "--porcelain")
        assert code == 0
        assert json.loads(out)["rows"] == []

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

    def test_phi_success(self, capsys, tmp_path):
        doc = {
            "ambient": {"dim": 4, "bivector": [{"i": 1, "j": 2, "poly": "1"}, {"i": 3, "j": 4, "poly": "1"}]},
            "point": ["0", "0", "0", "0"],
            "subspace_c": [["1", "0", "0", "0"]],
            "subspace_v": [["1", "0", "0", "0"], ["0", "1", "0", "0"]],
            "subspace_w": [["1", "0", "0", "0"], ["0", "1", "1", "0"]],
        }
        path = tmp_path / "phi_ok.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run(capsys, "phi", "--scenario", str(path), "--porcelain")
        assert code == 0
        result = json.loads(out)
        assert result["poisson_isomorphism"] and result["identity_on_c"]
        assert result["matrix"] == [["1", "0"], ["0", "1"]]

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
        assert doc.ambient_dim == MAX_DIM and doc.submanifold.param_dim == MAX_DIM

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
