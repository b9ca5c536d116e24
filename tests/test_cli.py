import contextlib
import json
import os
import random
import subprocess
import sys

import pytest

from vpvlab import catalog as catalog_mod
from vpvlab import lattice as lattice_mod
from vpvlab import series as series_mod
from vpvlab.cli import main
from vpvlab.lattice import ProductSpec
from vpvlab.series import (POWER_BITS, Caps, Series, SeriesError, decimal_str,
                           unit_binomial_pow)

try:
    import jsonschema
except ImportError:  # pragma: no cover
    jsonschema = None

SCHEMA_PATH = os.path.join(os.path.dirname(__file__), "..", "src", "vpvlab",
                           "report_schema.json")
GOLDEN = os.path.join(os.path.dirname(__file__), "golden")


def run_cli(args, capsys):
    code = main(args)
    out, err = capsys.readouterr()
    return code, out, err


class TestVerifyCommand:
    def test_single_entry_pass(self, capsys):
        code, out, _ = run_cli(["verify", "--id", "14.05", "--caps", "12"], capsys)
        assert code == 0
        report = json.loads(out.strip())
        assert report["id"] == "14.05" and report["verdict"] == "pass"

    def test_unknown_entry_is_config_error(self, capsys):
        code, _, err = run_cli(["verify", "--id", "bogus"], capsys)
        assert code == 2
        assert "unknown entry" in err

    def test_missing_selection_is_config_error(self, capsys):
        code, _, _ = run_cli(["verify"], capsys)
        assert code == 2

    def test_reports_validate_against_schema(self, capsys):
        if jsonschema is None:
            pytest.skip("jsonschema unavailable")
        code, out, _ = run_cli(
            ["verify", "--id", "13.02", "--id", "13.18"], capsys)
        assert code == 0
        with open(SCHEMA_PATH, encoding="utf-8") as handle:
            schema = json.load(handle)
        reports = [json.loads(line) for line in out.strip().splitlines()]
        for report in reports:
            jsonschema.validate(report, schema)
        assert reports[0]["id"] == "13.02" and reports[0]["route"] == "log"

    def test_route_is_reported_only_for_the_log_route(self, capsys):
        code, out, _ = run_cli(["verify", "--id", "13.02", "--id", "8.06"], capsys)
        assert code == 0
        reports = {r["id"]: r for r in map(json.loads, out.strip().splitlines())}
        assert reports["13.02"]["route"] == "log"
        # the counts are of the compared logs, which have no constant term
        # (the expanded sides of 13.02 have 65 terms each)
        assert reports["13.02"]["lhs_terms"] == reports["13.02"]["rhs_terms"] == 64
        assert "route" not in reports["8.06"]  # an oracle right side

    def test_failing_probe_gives_exit_one_when_selected(self, capsys):
        code, out, _ = run_cli(["verify", "--id", "16.57g-printed"], capsys)
        # probes are excluded from --all but explicit selection surfaces them
        report = json.loads(out.strip())
        assert report["verdict"] == "fail"
        assert code == 0  # expected == errata-probe, so it does not gate

    def test_csv_report_format(self, capsys):
        code, out, _ = run_cli(
            ["verify", "--id", "13.02", "--format", "csv"], capsys)
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("id,caps,mode,verdict")
        assert lines[1].startswith("13.02,8;8,exact,pass")

    def test_custom_identity_document(self, tmp_path, capsys):
        doc = {
            "id": "custom-quadrant",
            "mode": "exact",
            "caps": [4, 4],
            "lhs": {
                "region": {"arity": 2, "lower": [1, 1], "order": "none",
                           "coprime": True, "base_powers": None},
                "weight": {"sign": -1, "direction": -1, "powers": ["0", "-1"]},
                "mapping": [0, 1],
                "vars": ["y", "z"],
            },
            "rhs": {"op": "pow",
                    "base": {"op": "div_unit",
                             "num": {"op": "const", "value": "1"},
                             "den": {"op": "unit_binomial", "sign": -1,
                                     "scalar": "1", "exps": {"z": 1}}},
                    "exponent": {"op": "div_unit",
                                 "num": {"op": "mono", "exps": {"y": 1}},
                                 "den": {"op": "unit_binomial", "sign": -1,
                                         "scalar": "1", "exps": {"y": 1}}}},
        }
        path = tmp_path / "custom.json"
        path.write_text(json.dumps(doc))
        code, out, _ = run_cli(["verify", "--custom", str(path)], capsys)
        assert code == 0
        assert json.loads(out.strip())["verdict"] == "pass"

    def test_malformed_custom_documents_are_config_errors(self, tmp_path, capsys):
        lhs = TestCapsArity.SPEC
        one = {"op": "const", "value": "1"}
        docs = [{"id": "x"}, [1, 2],
                {"lhs": lhs, "caps": ["a", "b"], "rhs": one},
                {"lhs": lhs, "caps": [3, 3], "rhs": [1, 2]},
                {"lhs": lhs, "caps": [3, 3], "rhs": "abc"}]
        for i, doc in enumerate(docs):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(["verify", "--custom", str(path)], capsys)
            assert code == 2, doc
            assert out == "" and err.startswith("error:"), doc

    def test_mode_without_all_is_config_error(self, capsys):
        code, out, err = run_cli(["verify", "--id", "13.02", "--mode", "exact"],
                                 capsys)
        assert code == 2
        assert out == "" and err == "error: --mode needs --all\n"

    def test_parallel_matches_sequential(self, tmp_path, capsys):
        ids = ["13.02", "13.03", "13.24", "14.02", "14.05", "16.57b"]
        args = ["verify"] + [x for i in ids for x in ("--id", i)]
        seq = tmp_path / "seq.jsonl"
        par = tmp_path / "par.jsonl"
        code1, _, _ = run_cli(args + ["--out", str(seq), "--jobs", "1"], capsys)
        code2, _, _ = run_cli(args + ["--out", str(par), "--jobs", "4"], capsys)
        assert code1 == code2 == 0

        def strip_timing(path):
            rows = []
            for line in path.read_text().splitlines():
                doc = json.loads(line)
                doc.pop("wall_time_s")
                rows.append(doc)
            return rows

        assert strip_timing(seq) == strip_timing(par)


class TestGridCommand:
    def test_club2_golden(self, tmp_path, capsys):
        out_path = tmp_path / "club2.csv"
        code, _, _ = run_cli(
            ["grid", "club2", "--caps", "8,8", "--out", str(out_path)], capsys)
        assert code == 0
        with open(os.path.join(GOLDEN, "club2_9x9.csv"), encoding="utf-8") as handle:
            golden = handle.read()
        assert out_path.read_text() == golden

    def test_spade2_trivial(self, capsys):
        code, out, _ = run_cli(["grid", "spade2", "--caps", "0,0"], capsys)
        assert code == 0
        assert out.strip().splitlines()[1] == "0,1"

    def test_beta2_golden(self, tmp_path, capsys):
        out_path = tmp_path / "beta2.csv"
        code, _, _ = run_cli(
            ["grid", "beta2", "--caps", "13,13", "--out", str(out_path)], capsys)
        assert code == 0
        with open(os.path.join(GOLDEN, "beta2_13x13.csv"), encoding="utf-8") as handle:
            golden = handle.read()
        assert out_path.read_text() == golden

    def test_weighted_grid_exact_rationals(self, capsys):
        code, out, _ = run_cli(["grid", "weighted-8.14", "--caps", "9,13"],
                               capsys)
        assert code == 0
        assert "-13/480" in out

    def test_unknown_grid(self, capsys):
        code, _, err = run_cli(["grid", "nope", "--caps", "4,4"], capsys)
        assert code == 2
        assert "unknown grid" in err

    def test_json_format(self, capsys):
        code, out, _ = run_cli(
            ["grid", "spade2", "--caps", "2,2", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["axes"] == ["y", "z"]
        assert {"e": [1, 1], "v": "2"} in doc["cells"]

    def test_spec_with_unknown_order_is_config_error(self, tmp_path, capsys):
        spec = {"region": {"arity": 2, "order": "bogus"},
                "weight": {"sign": -1, "direction": -1, "powers": ["0", "0"]},
                "mapping": [0, 1], "vars": ["y", "z"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(["grid", "--spec", str(path), "--caps", "3,3"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "bogus" in err

    def test_spec_without_region_is_config_error(self, tmp_path, capsys):
        spec = {"weight": {"sign": -1, "direction": -1, "powers": ["0", "0"]},
                "mapping": [0, 1], "vars": ["y", "z"]}
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, err = run_cli(["grid", "--spec", str(path), "--caps", "3,3"],
                                 capsys)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "region" in err


class TestExpandCommand:
    def test_entry_rhs(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--entry", "13.02", "--side", "rhs", "--caps", "4,4"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        assert {"e": [2, 3], "n": "5", "d": "6"} in doc["terms"]

    def test_constant_expansion(self, tmp_path, capsys):
        spec = {"vars": ["z"], "caps": [3],
                "rhs": {"op": "const", "value": "1"}}
        path = tmp_path / "one.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(["expand", "--spec", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["terms"] == [{"e": [0], "n": "1", "d": "1"}]

    def test_approx_diagonal_entry(self, capsys):
        code, out, _ = run_cli(
            ["expand", "--entry", "13.18", "--side", "lhs", "--caps", "4"],
            capsys)
        assert code == 0
        doc = json.loads(out)
        coeff = {tuple(t["e"]): t["v"] for t in doc["terms"]}
        assert coeff[(3,)] == pytest.approx(2 ** 0.5, abs=1e-9)

    def test_custom_product_spec(self, tmp_path, capsys):
        spec = {
            "lhs": {
                "region": {"arity": 2, "lower": [1, 1], "order": "none",
                           "coprime": True, "base_powers": None},
                "weight": {"sign": -1, "direction": -1, "powers": ["0", "-1"]},
                "mapping": [0, 1],
                "vars": ["y", "z"],
            },
            "caps": [3, 3],
        }
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(spec))
        code, out, _ = run_cli(["expand", "--spec", str(path)], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["vars"] == ["y", "z"]

    def test_document_mode_and_its_override(self, tmp_path, capsys):
        # 13.05's left side has an irrational weight: the document's "mode"
        # expands it in approx mode, and --mode overrides the document's, as
        # --caps overrides its caps
        path = tmp_path / "approx.json"
        path.write_text(json.dumps({"lhs": catalog_mod.get_entry("13.05").lhs.to_json(),
                                    "caps": [3, 3], "mode": "approx"}))
        code, out, err = run_cli(["expand", "--spec", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out)["mode"] == "approx"
        code, out, err = run_cli(["expand", "--spec", str(path), "--mode", "exact"], capsys)
        assert code == 2 and out == ""
        assert "irrational weight requires approx mode" in err
        exact = tmp_path / "exact.json"
        exact.write_text(json.dumps({"lhs": _side_1303(), "caps": [3, 3], "mode": "exact"}))
        code, out, err = run_cli(["expand", "--spec", str(exact), "--mode", "approx"], capsys)
        assert code == 0, err
        assert json.loads(out)["mode"] == "approx"

    def test_spec_with_weight_and_factor_is_config_error(self, tmp_path, capsys):
        # the factor used to be dropped without a word, the weight expanded
        side = dict(_side_1303(), factor={"family": "geometric"})
        for doc, args in (({"lhs": side, "caps": [3, 3]}, []),
                          (side, ["--caps", "3,3"])):
            path = tmp_path / "both.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(["expand", "--spec", str(path), *args], capsys)
            assert code == 2 and out == ""
            assert "'weight'" in err and "'factor'" in err, err

    def test_zero_variable_document(self, tmp_path, capsys):
        # exp(3 * 0) over no variables: one slot, the constant
        path = tmp_path / "doc.json"
        path.write_text(json.dumps({"vars": [], "caps": [], "rhs": {
            "op": "exp", "arg": {"op": "mul", "args": [{"op": "const", "value": "3"},
                                                     {"op": "const", "value": "0"}]}}}))
        code, out, err = run_cli(["expand", "--spec", str(path)], capsys)
        assert code == 0, err
        assert json.loads(out) == {"vars": [], "caps": [], "mode": "exact",
                                   "terms": [{"e": [], "n": "1", "d": "1"}]}

    def test_missing_input_is_config_error(self, capsys):
        code, _, _ = run_cli(["expand"], capsys)
        assert code == 2

    def test_malformed_specs_are_config_errors(self, tmp_path, capsys):
        region = {"arity": 2, "order": "bogus"}
        docs = [{"lhs": {"region": region, "mapping": [0, 1], "vars": ["y", "z"],
                         "weight": {"powers": ["0", "0"]}}, "caps": [3, 3]},
                {"caps": [3], "rhs": {"op": "const", "value": "1"}},
                {"vars": ["z"], "caps": ["x"], "rhs": {"op": "const", "value": "1"}},
                [1, 2],
                {"lhs": {"region": {"arity": 2, "order": "upper_triangle"},
                         "mapping": [0, 1], "vars": ["y", "z"],
                         "weight": {"powers": ["0", "0"]}}, "caps": [3, 3]},
                {"lhs": {"region": {"arity": 2}, "mapping": [0, 1], "vars": ["x", "y"],
                         "factor": {"family": "bogus"}}, "caps": [3, 3]},
                {"lhs": {"region": {"arity": 2}, "mapping": [0, 1], "vars": ["x", "y"],
                         "factor": {"family": "distinct_binomial", "exponent": "1/2",
                                    "defining_sum": True}}, "caps": [3, 3]},
                # a family sign other than the integer +-1, a non-bool
                # defining_sum, and an exponent or sign on a kind without one
                *({"lhs": {"region": {"arity": 2}, "mapping": [0, 1],
                           "vars": ["x", "y"], "factor": factor}, "caps": [3, 3]}
                  for factor in (
                      {"family": "distinct_binomial", "sign": None},
                      {"family": "distinct_binomial", "sign": "x"},
                      {"family": "distinct_binomial", "sign": 1.5},
                      {"family": "distinct_binomial", "sign": True},
                      {"family": "geometric", "defining_sum": "false"},
                      {"family": "square", "exponent": "2"},
                      {"family": "multiplicity", "sign": -1})),
                # a weight sign or direction other than the integer +-1, and a
                # phi_over that is not an integer component index
                *({"lhs": dict(TestCapsArity.SPEC, weight=dict(
                    TestCapsArity.SPEC["weight"], **bad)), "caps": [3, 3]}
                  for bad in ({"sign": 1.0}, {"sign": -1.0}, {"direction": True},
                              {"direction": "-1"}, {"phi_over": True},
                              {"phi_over": 1.0}, {"phi_over": "1"})),
                # duplicate variable names, in a tree document and in a spec
                {"vars": ["y", "y"], "caps": [3, 3],
                 "rhs": {"op": "const", "value": "1"}},
                {"lhs": dict(TestCapsArity.SPEC, vars=["y", "y"]), "caps": [3, 3]}]
        for i, doc in enumerate(docs):
            path = tmp_path / f"bad{i}.json"
            path.write_text(json.dumps(doc))
            code, out, err = run_cli(["expand", "--spec", str(path)], capsys)
            assert code == 2, doc
            assert out == "" and err.startswith("error:"), doc

    def test_closed_form_missing_field_is_config_error(self, tmp_path, capsys):
        trees = [{"op": "const"},
                 {"op": "mul", "args": [{"op": "const", "value": "1"},
                                        {"op": "unit_binomial", "sign": -1}]}]
        for i, tree in enumerate(trees):
            path = tmp_path / f"tree{i}.json"
            path.write_text(json.dumps({"vars": ["z"], "caps": [3], "rhs": tree}))
            code, out, err = run_cli(["expand", "--spec", str(path)], capsys)
            assert code == 2, tree
            assert out == "" and err.startswith("error: missing field"), tree

    @pytest.mark.parametrize("tree", [
        {"op": "const", "value": "x"}, {"op": "const", "value": "1/0"},
        {"op": "mono", "exps": {"z": "a"}}, {"op": "add", "args": 5},
        # every multiple of a negative exponent is under the caps: no end
        {"op": "polylog", "s": "1", "exps": {"z": -1}}])
    def test_closed_form_bad_value_is_config_error(self, tree, tmp_path, capsys):
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"vars": ["z"], "caps": [3], "rhs": tree}))
        code, out, err = run_cli(["expand", "--spec", str(path)], capsys)
        assert code == 2
        assert out == "" and err.startswith("error:") and "(at node" in err


class TestCapsArity:
    SPEC = {"region": {"arity": 2, "lower": [1, 1], "order": "none",
                       "coprime": True, "base_powers": None},
            "weight": {"sign": -1, "direction": -1, "powers": ["0", "-1"]},
            "mapping": [0, 1], "vars": ["y", "z"]}

    @pytest.mark.parametrize("entry_id, caps", [
        ("13.02", "3"), ("13.02", "3,3,3"), ("13.03@y=1/2", "5,5")])
    def test_expand_entry(self, entry_id, caps, capsys):
        code, out, err = run_cli(["expand", "--entry", entry_id, "--caps", caps],
                                 capsys)
        assert code == 2
        assert out == "" and err.startswith("error: caps arity does not fit")

    @pytest.mark.parametrize("command", ["expand", "grid"])
    def test_spec(self, command, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(self.SPEC))
        for caps in ("3", "3,3,3"):
            code, out, err = run_cli([command, "--spec", str(path), "--caps", caps],
                                     capsys)
            assert code == 2, caps
            assert out == "" and err.startswith("error: caps arity"), caps

    @pytest.mark.parametrize("name, caps", [("beta2", "3"), ("binary-B2", "4")])
    def test_grid_builtin(self, name, caps, capsys):
        code, out, err = run_cli(["grid", name, "--caps", caps], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: caps arity")


class TestToleranceValidation:
    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "-1"])
    @pytest.mark.parametrize("selection", [["--id", "14.11-printed"], ["--all"]])
    def test_rejected_before_any_entry(self, value, selection, capsys):
        code, out, err = run_cli(["verify", *selection, f"--tolerance={value}"],
                                 capsys)
        assert code == 2
        assert out == "" and err.startswith("error: --tolerance")


class TestJobsValidation:
    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_option_below_one_rejected(self, value, capsys):
        code, out, err = run_cli(["verify", "--id", "14.11-printed",
                                  f"--jobs={value}"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: --jobs")

    @pytest.mark.parametrize("value", ["0", "-3"])
    def test_env_below_one_rejected(self, value, monkeypatch, capsys):
        monkeypatch.setenv("VPV_LAB_JOBS", value)
        code, out, err = run_cli(["verify", "--id", "14.11-printed"], capsys)
        assert code == 2
        assert out == "" and err.startswith("error: bad VPV_LAB_JOBS")


class TestRemovedOptions:
    @pytest.mark.parametrize("args", [
        ["grid", "spade2", "--caps", "2,2", "--jobs", "2"],
        ["grid", "spade2", "--caps", "2,2", "--format", "text"],
        ["expand", "--entry", "13.02", "--caps", "2,2", "--jobs", "2"],
        ["expand", "--entry", "13.02", "--caps", "2,2", "--format", "csv"],
        ["expand", "--entry", "13.02", "--caps", "2,2", "--format", "json"],
        ["expand", "--entry", "13.02", "--caps", "2,2", "--format", "text"],
    ])
    def test_rejected_as_usage_errors(self, args, capsys):
        with pytest.raises(SystemExit) as exc:
            main(args)
        assert exc.value.code == 2
        assert capsys.readouterr().out == ""


class TestModeOnlyForSpec:
    @pytest.mark.parametrize("args", [
        ["expand", "--entry", "13.02", "--caps", "2,2", "--mode", "approx"],
        ["expand", "--entry", "13.02", "--caps", "2,2", "--mode", "exact"],
        ["grid", "beta2", "--caps", "3,3", "--mode", "approx"],
    ])
    def test_mode_without_spec_is_config_error(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2
        assert out == "" and err == "error: --mode applies only to --spec\n"


class TestClosureSidesAsSpecs:
    """Sides written as ProductSpec data serialise and expand via --spec."""

    @pytest.mark.parametrize("entry_id,side", [
        ("11.06a", "lhs"), ("11.08", "rhs"), ("12.05", "rhs"),
        ("12.05-printed", "rhs"),
        # one side per spec kind: scalar mapping, merged monomials (approx),
        # strict pyramid, base-2 regions, permuted mapping, defining sums
        ("14.03@y=1/2", "lhs"), ("14.02@y=2", "lhs"), ("13.22", "lhs"),
        ("14.15", "lhs"), ("7.23a", "lhs"), ("12.1", "lhs"), ("12.08", "lhs"),
        ("7.24", "rhs"), ("12.03", "rhs"), ("8.07.02", "rhs"),
        # upper-bounded regions: coprime, all vectors with geometric factors,
        # and a weight 1/k
        ("8.08", "lhs"), ("8.18a", "lhs"), ("8.14.03", "lhs"),
        # a folded scalar component, each sign of the exponent
        ("13.03@y=1/2", "lhs"), ("13.02@y=3/2", "lhs"),
        # a dropped component merging equal factors, unit-component counts,
        # and a base-2 component held at 1
        ("11.08", "lhs"), ("12.05", "lhs"), ("12.05-printed", "lhs"),
        ("7.23a", "rhs"), ("12.08", "rhs"), ("12.01", "lhs"), ("12.1", "rhs"),
    ])
    def test_spec_roundtrip_and_expand(self, entry_id, side, tmp_path, capsys):
        entry = catalog_mod.get_entry(entry_id)
        spec = getattr(entry, side)
        assert isinstance(spec, ProductSpec)
        doc = json.loads(json.dumps(spec.to_json()))
        assert ProductSpec.from_json(doc) == spec
        path = tmp_path / "side.json"
        path.write_text(json.dumps(doc))
        caps = ",".join(map(str, entry.caps))
        code, by_spec, _ = run_cli(["expand", "--spec", str(path), "--caps", caps,
                                    "--mode", entry.mode], capsys)
        assert code == 0
        code, by_entry, _ = run_cli(["expand", "--entry", entry_id, "--side", side],
                                    capsys)
        assert code == 0 and by_spec == by_entry

    def test_literal_factor_tree_expands(self, tmp_path, capsys):
        # 8.14.03's right side is a closed-form tree of nine (1 - x^j y^k)^(1/k)
        entry = catalog_mod.get_entry("8.14.03")
        assert isinstance(entry.rhs, dict)
        path = tmp_path / "tree.json"
        path.write_text(json.dumps({"vars": list(entry.names), "rhs": entry.rhs}))
        caps = ",".join(map(str, entry.caps))
        code, by_spec, _ = run_cli(["expand", "--spec", str(path), "--caps", caps],
                                   capsys)
        assert code == 0
        code, by_entry, _ = run_cli(["expand", "--entry", "8.14.03", "--side", "rhs"],
                                    capsys)
        assert code == 0 and by_spec == by_entry


UNBOUNDED = {"region": {"arity": 2, "lower": [1, 1]},
             "weight": {"sign": -1, "direction": -1, "powers": ["0", "0"]},
             "mapping": [0, None], "vars": ["y", "z"]}


REGION_KEYS = ("lower", "upper", "coprime", "base_powers", "unit_counts")


def _bad_spec(**changes):
    """TestCapsArity.SPEC with region or weight fields replaced."""
    doc = json.loads(json.dumps(TestCapsArity.SPEC))
    for key, value in changes.items():
        part = "region" if key in REGION_KEYS else "weight"
        doc[part][key] = value
    return doc


def _folded_spec(mapping=("1/2", 0), **changes):
    """The 13.03@y=1/2 side as a document: its first component, mapped to the
    scalar 1/2, has no bound and is folded; fields replaced by `changes`."""
    doc = _bad_spec(**changes)
    doc["mapping"], doc["vars"] = list(mapping), ["z"]
    doc["weight"]["direction"] = 1
    return doc


class TestSpecValueErrors:
    """Specs that parse but cannot expand are bad input (exit 2), not crashes."""

    def test_region_error_while_expanding(self, tmp_path, capsys):
        # the dropped second component has no bound, so the region is infinite
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(UNBOUNDED))
        custom = tmp_path / "custom.json"
        custom.write_text(json.dumps({"lhs": UNBOUNDED, "caps": [3, 3],
                                      "rhs": {"op": "const", "value": "1"}}))
        for args in (["expand", "--spec", str(path), "--caps", "3,3"],
                     ["grid", "--spec", str(path), "--caps", "3,3"],
                     ["verify", "--custom", str(custom)]):
            code, out, err = run_cli(args, capsys)
            assert code == 2, args
            assert out == ""
            assert err == "error: region with no capped progress direction\n"

    @pytest.mark.parametrize("changes", [
        {"powers": ["0"]}, {"powers": ["0", "-1", "0"]}, {"powers": []},
        {"phi_over": 2}, {"phi_over": -1}, {"phi_over": "0"},
        {"lower": [-1, 1]}, {"lower": [1.7, 1]}, {"lower": ["1", 1]},
        {"lower": [1, 0]}, {"lower": [1, 0], "powers": ["0", "0"], "phi_over": 1},
        {"upper": [3]}, {"upper": [3, 3, 3]}, {"upper": [None, -1]},
        {"upper": [2.5, None]}, {"upper": ["3", None]}, {"upper": 3},
    ])
    def test_malformed_values_rejected(self, changes, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_bad_spec(**changes)))
        for command in ("expand", "grid"):
            code, out, err = run_cli([command, "--spec", str(path), "--caps", "3,3"],
                                     capsys)
            assert code == 2, command
            assert out == "" and err.startswith("error:"), command

    @pytest.mark.parametrize("changes", [
        {"coprime": "no"}, {"coprime": 1}, {"base_powers": 2.5},
        {"base_powers": True}, {"unit_counts": [1, 1]}, {"unit_counts": [3]},
        {"unit_counts": [-1]}, {"unit_counts": [1.0]}, {"unit_counts": 1},
    ])
    def test_malformed_region_fields_rejected(self, changes, tmp_path, capsys):
        # a string "no" would read as coprime, and base 2.5 would give
        # fractional exponents
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_bad_spec(**changes)))
        for command in ("expand", "grid"):
            code, out, err = run_cli([command, "--spec", str(path), "--caps", "2,2"],
                                     capsys)
            assert code == 2, command
            assert out == "" and err.startswith("error: bad spec:"), command

    @pytest.mark.parametrize("changes, args, message", [
        ({}, ["--mode", "approx"], "error: an unbounded scalar component folds "
         "in exact mode only\n"),
        ({"lower": [0, 1]}, [], "error: an unbounded scalar component folds only"),
        ({"powers": ["-1", "0"]}, [], "error: an unbounded scalar component folds only"),
        ({"mapping": ["1", 0]}, [], "error: geometric value has a pole at q^d = 1\n"),
        # a unit_counts filter sees the folded component at 1 only
        ({"unit_counts": [2]}, [], "error: an unbounded scalar component folds only"),
    ], ids=["approx", "lower-0", "weight-power", "pole", "unit-counts"])
    def test_unfoldable_component_rejected(self, changes, args, message, tmp_path,
                                           capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_folded_spec(**changes)))
        for command in ("expand", "grid"):
            code, out, err = run_cli([command, "--spec", str(path), "--caps", "6",
                                      *args], capsys)
            assert code == 2, command
            assert out == "" and err.startswith(message), (command, err)

    @pytest.mark.parametrize("changes", [
        {"upper": [None, None]}, {"upper": [2, 0]}, {"lower": [0, 1]},
        {"lower": [1, 0], "powers": ["-1", "0"], "phi_over": 0}])
    def test_valid_bounds_accepted(self, changes, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(_bad_spec(**changes)))
        code, _, err = run_cli(["expand", "--spec", str(path), "--caps", "3,3"],
                               capsys)
        assert code == 0, err

    def test_upper_bounds_a_dropped_component(self, tmp_path, capsys):
        # b in 1..3 is dropped, so each a >= 1 gives (1 - y^a)^-1 three times
        path = tmp_path / "spec.json"
        doc = json.loads(json.dumps(UNBOUNDED))
        doc["region"]["upper"] = [None, 3]
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["expand", "--spec", str(path), "--caps", "3,3"],
                                 capsys)
        assert code == 0, err
        caps = Caps.of([3, 3])
        expected = Series.one(("y", "z"), caps)
        for a in range(1, 4):
            expected = expected * unit_binomial_pow((a, 0), -3, ("y", "z"), caps,
                                                    sign=-1)
        assert Series.from_json(json.loads(out)) == expected

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_custom_id_must_be_a_string(self, fmt, tmp_path, capsys):
        path = tmp_path / "custom.json"
        path.write_text(json.dumps({"id": 5, "lhs": TestCapsArity.SPEC, "caps": [3, 3],
                                    "rhs": {"op": "const", "value": "1"}}))
        code, out, err = run_cli(["verify", "--custom", str(path), "--format", fmt],
                                 capsys)
        assert code == 2
        assert out == "" and err.startswith("error:")


# a placeholder written to the file as the JSON number 1e400, which json
# reads as a float that overflows to infinity
OVERFLOW = "overflow"


def _number_doc(field, value):
    """A document with `value` in one numeric field."""
    if field == "const":
        return {"vars": ["z"], "caps": [3], "rhs": {"op": "const", "value": value}}
    doc = _bad_spec()
    if field == "powers":
        doc["weight"]["powers"] = [value, "0"]
    elif field == "exponent":
        del doc["weight"]
        doc["factor"] = {"family": "distinct_binomial", "exponent": value}
    else:
        doc["mapping"] = [value, 1]
    return doc


def _write(path, doc):
    path.write_text(json.dumps(doc).replace(json.dumps(OVERFLOW), "1e400"))


class TestUnrepresentableNumbers:
    """A rational Fraction cannot hold ("1/0", or 1e400 read as inf) is bad
    input on every path that reads it: exit 2, with no traceback."""

    @pytest.mark.parametrize("value", ["1/0", OVERFLOW])
    @pytest.mark.parametrize("field", ["powers", "exponent", "mapping", "const"])
    def test_rejected(self, field, value, tmp_path, capsys):
        doc = _number_doc(field, value)
        path, custom = tmp_path / "doc.json", tmp_path / "custom.json"
        _write(path, doc)
        if field == "const":
            runs = [["expand", "--spec", str(path)]]
            _write(custom, {"lhs": TestCapsArity.SPEC, "caps": [3, 3],
                            "rhs": doc["rhs"]})
        else:
            runs = [[command, "--spec", str(path), "--caps", "3,3"]
                    for command in ("expand", "grid")]
            _write(custom, {"lhs": doc, "caps": [3, 3],
                            "rhs": {"op": "const", "value": "1"}})
        for args in runs + [["verify", "--custom", str(custom)]]:
            code, out, err = run_cli(args, capsys)
            assert code == 2, args
            assert out == "" and err.startswith("error:"), args
            assert "Traceback" not in err, args


def _set(doc, path, value):
    """A deep copy of `doc` with the leaf at `path` (keys and indices) replaced."""
    doc = json.loads(json.dumps(doc))
    *head, last = path
    node = doc
    for key in head:
        node = node[key]
    node[last] = value
    return doc


def _side_1303():
    return catalog_mod.get_entry("13.03").lhs.to_json()


def _tree_1303(tree=None):
    entry = catalog_mod.get_entry("13.03")
    return {"vars": list(entry.names), "rhs": entry.rhs if tree is None else tree}


POLYLOG = {"op": "polylog", "s": "2", "exps": {"z": 1}}
PARTIAL_SUM = {"op": "partial_sum", "factors": [{"var": "y", "b": "0"}],
               "driver": {"var": "z", "b": "1"}}


def _custom_1303(**fields):
    entry = catalog_mod.get_entry("13.03")
    return {"lhs": entry.lhs.to_json(), "rhs": entry.rhs, "caps": [3, 3], **fields}


# (document, command, field): each document has one leaf of a type its field
# does not take, or a value outside its set; the run exits 2 naming the field
LEAF_PROBES = [
    *((_set(_side_1303(), ("vars", 0), v), "expand", "vars[0]")
      for v in (True, 1.0, None, -1)),
    (dict(_tree_1303(), vars="yz1"), "expand", "vars"),
    *((_set(_side_1303(), ("weight", "powers", 1), v), "expand", "weight.powers[1]")
      for v in (True, 1.0)),
    (_set(_side_1303(), ("mapping", 0), 0.5), "expand", "mapping[0]"),
    *((_set(_tree_1303(), ("rhs", "base", "sign"), v), "expand", "sign")
      for v in (True, 1.0, 2, 2 ** 70)),
    *((_set(_tree_1303(), ("rhs", "base", "exps", "z"), v), "expand", "exps.z")
      for v in (True, 1.0, 1.5)),
    (_set(_tree_1303(), ("rhs", "base", "scalar"), True), "expand", "scalar"),
    (_tree_1303(dict(POLYLOG, s=True)), "expand", "s"),
    (_tree_1303({"op": "const", "value": True}), "expand", "value"),
    (_set(_tree_1303(), ("rhs", "exponent"), True), "expand", "exponent"),
    (_set(_tree_1303(PARTIAL_SUM), ("rhs", "driver", "b"), True), "expand", "driver.b"),
    *(({"lhs": _side_1303(), "caps": [3, v]}, "expand", "caps[1]") for v in (3.7, True)),
    *((_custom_1303(enforce_weight_sum=v), "verify", "enforce_weight_sum")
      for v in ("yes", [1])),
    (_custom_1303(mode="bogus"), "verify", "mode"),
    # checked against the mapping before any per-component list is built
    (_set(_side_1303(), ("region", "arity"), 10 ** 15), "expand", "region.arity"),
]


class TestLeafTypes:
    """Each document leaf is read by one typed reader: a bad value is bad
    input (exit 2), and the message names its field."""

    @pytest.mark.parametrize("doc, command, field", LEAF_PROBES,
                             ids=[f"{c}-{f}-{i}" for i, (_, c, f) in enumerate(LEAF_PROBES)])
    def test_rejected_naming_the_field(self, doc, command, field, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        args = ["verify", "--custom", str(path)] if command == "verify" else \
            ["expand", "--spec", str(path)] + ([] if "caps" in doc else ["--caps", "3,3"])
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "", err
        assert f"{field} must be" in err, err

    def test_catalog_sides_roundtrip(self):
        sides = [side for entry in catalog_mod.catalog()
                 for side in (entry.lhs, entry.rhs, getattr(entry.rhs, "spec", None))
                 if isinstance(side, ProductSpec)]
        assert len(sides) > 100
        for side in sides:
            assert ProductSpec.from_json(json.loads(json.dumps(side.to_json()))) == side


class TestPowerBudget:
    """An exact power k^p past `series.POWER_BITS` bits is refused before it is
    built: exit 2, with the estimate, instead of running on."""

    @pytest.mark.parametrize("doc, field", [
        (_set(_side_1303(), ("weight", "powers"), [2 ** 70, "-1"]), "weight.powers[0]"),
        (_tree_1303(dict(POLYLOG, s=2 ** 70)), "polylog s"),
        (_set(_tree_1303(PARTIAL_SUM), ("rhs", "driver", "b"), 2 ** 70), "driver.b"),
        (_set(_tree_1303(PARTIAL_SUM), ("rhs", "factors", 0, "b"), str(-2 ** 70)),
         "factors[0].b"),
    ], ids=["weight", "polylog", "partial-sum-driver", "partial-sum-factor"])
    def test_refused_with_the_estimate(self, doc, field, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        code, out, err = run_cli(["expand", "--spec", str(path), "--caps", "3,3"], capsys)
        assert code == 2 and out == "", err
        # |p| * bit_length(3) bits
        assert err.startswith(f"error: {field}: k^p for k up to 3 needs about "
                              f"{2 ** 71} bits, over the budget of {POWER_BITS}"), err

    def test_approx_power_past_the_float_range(self, tmp_path, capsys):
        # within the budget, but 3.0 ** 3000 is no float
        side = catalog_mod.get_entry("13.05").lhs.to_json()
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_set(side, ("weight", "powers"), ["3000", "-1/2"])))
        code, out, err = run_cli(["expand", "--spec", str(path), "--caps", "3,3",
                                  "--mode", "approx"], capsys)
        assert code == 2 and out == "" and err.startswith(
            "error: weight.powers[0]: component value 2 to the power 3000 takes the "
            "weight past the float range"), err

    def test_approx_weight_past_the_float_range(self, tmp_path, capsys):
        # 3.0 ** 400 is a float, but 2^400 * 3^400 is not: no inf in the output
        side = catalog_mod.get_entry("13.05").lhs.to_json()
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_set(side, ("weight", "powers"), ["400", "400"])))
        code, out, err = run_cli(["expand", "--spec", str(path), "--caps", "3,3",
                                  "--mode", "approx"], capsys)
        assert code == 2 and out == "" and err.startswith(
            "error: weight.powers[1]: component value 3 to the power 400 takes the "
            "weight past the float range"), err


class TestSlotBudget:
    """A caps window of more than `series.SLOT_BUDGET` slots, prod(2*cap + 1),
    is refused before any work: exit 2, with the slot count."""

    @pytest.mark.parametrize("args", [
        ["verify", "--id", "13.02", "--caps", "1000000000,1"],
        ["expand", "--entry", "13.02", "--caps", "1000000000,1"],
        ["grid", "club2", "--caps", "1000000000,1"]], ids=["verify", "expand", "grid"])
    def test_refused_with_the_estimate(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "", err
        assert err.startswith("error: caps [1000000000, 1] need 6000000003 slots"), err

    def test_document_caps(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(_custom_1303(caps=[10 ** 6, 10 ** 6])))
        for args in (["verify", "--custom", str(path)], ["expand", "--spec", str(path)]):
            code, out, err = run_cli(args, capsys)
            assert code == 2 and out == "", err
            assert "need 4000004000001 slots" in err, err

    def test_budget_edge(self):
        assert Caps.of([511, 511]).limits == (511, 511)  # 1023^2 = 1,046,529 slots
        with pytest.raises(SeriesError, match="need 1050625 slots"):
            Caps.of([512, 512])


class TestWorkBudget:
    """A run whose routes are estimated past `series.WORK_BUDGET` is refused
    before the work: exit 2, naming the estimate.  At (500000,) 14.05's exact
    weight table holds 500,000 ints of some 750,000 bits each."""

    @pytest.mark.parametrize("args", [
        ["verify", "--id", "14.05", "--caps", "500000"],
        ["expand", "--entry", "14.05", "--caps", "500000"],
        ["grid", "--spec", "SPEC", "--caps", "500000"]], ids=["verify", "expand", "grid"])
    def test_refused_with_the_estimate(self, args, tmp_path, capsys):
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(catalog_mod.get_entry("14.05").lhs.to_json()))
        code, out, err = run_cli([str(path) if a == "SPEC" else a for a in args], capsys)
        assert code == 2 and out == "", err
        assert err.startswith("error: an exact weight table at caps [500000] needs an "
                              "estimated 113 s of work, taking the run to 113 s, over the budget of 60 s"), err

    @pytest.mark.parametrize("args", [
        ["verify", "--id", "14.05", "--caps", "3000"],
        ["verify", "--id", "7.25a", "--caps", "32,32"],
        ["expand", "--entry", "12.04", "--caps", "32,32"]], ids=["14.05", "7.25a", "12.04"])
    def test_admitted(self, args, capsys):
        code, out, err = run_cli(args, capsys)
        assert code == 0 and err == "", err
        assert json.loads(out).get("verdict", "pass") == "pass"


# (document, command, key, object): one key that its object's row of the
# README field table does not list; the run exits 2 naming the key and object
UNIT = {"op": "const", "value": "1"}
NODES = {"const": UNIT, "mono": {"op": "mono", "exps": {"z": 1}},
         "unit_binomial": {"op": "unit_binomial", "exps": {"z": 1}},
         "add": {"op": "add", "args": [UNIT]}, "mul": {"op": "mul", "args": [UNIT]},
         "div_unit": {"op": "div_unit", "num": UNIT, "den": UNIT},
         "pow": {"op": "pow", "base": UNIT, "exponent": "2"},
         "exp": {"op": "exp", "arg": {"op": "const", "value": "0"}},
         "log": {"op": "log", "arg": UNIT}, "polylog": POLYLOG, "partial_sum": PARTIAL_SUM}
FACTOR_SPEC = {"region": {"arity": 2}, "mapping": [0, 1], "vars": ["y", "z"],
               "factor": {"family": "geometric"}}
UNKNOWN_KEYS = [
    (_set(_side_1303(), ("region", "coprme"), True), "expand", "coprme", "region"),
    (_set(_side_1303(), ("weight", "phi"), 0), "expand", "phi", "weight"),
    (_set(FACTOR_SPEC, ("factor", "sgn"), -1), "expand", "sgn", "factor"),
    (dict(_side_1303(), mode="exact"), "expand", "mode", "product spec"),
    (_custom_1303(lhs=dict(_side_1303(), caps=[3, 3])), "verify", "caps", "product spec"),
    (_custom_1303(note="x"), "verify", "note", "custom identity"),
    (_custom_1303(vars=["y", "z"]), "verify", "vars", "custom identity"),
    (_custom_1303(note="x"), "expand", "note", "expand document"),
    (dict(_tree_1303(), total_cap=3), "expand", "total_cap", "expand document"),
    *((_tree_1303(dict(node, sgn=1)), "expand", "sgn", f"{op} node")
      for op, node in NODES.items()),
    (_set(_tree_1303(PARTIAL_SUM), ("rhs", "driver", "power"), "1"), "expand", "power",
     "driver"),
    (_set(_tree_1303(PARTIAL_SUM), ("rhs", "factors", 0, "power"), "1"), "expand",
     "power", "factors[0]"),
]


class TestUnknownKeys:
    """A key outside its object's row of the field table is bad input, so a
    misspelt optional key cannot take its default unseen."""

    @pytest.mark.parametrize("doc, command, key, obj", UNKNOWN_KEYS,
                             ids=[f"{c}-{o}-{k}" for _, c, k, o in UNKNOWN_KEYS])
    def test_refused_naming_key_and_object(self, doc, command, key, obj, tmp_path,
                                           capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(doc))
        args = ["verify", "--custom", str(path)] if command == "verify" else \
            ["expand", "--spec", str(path)] + ([] if "caps" in doc else ["--caps", "3,3"])
        code, out, err = run_cli(args, capsys)
        assert code == 2 and out == "", err
        assert f"unknown key {key!r} in {obj}" in err, err

    def test_the_same_documents_without_the_key(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        for doc in (FACTOR_SPEC, _custom_1303(), _tree_1303(),
                    *(_tree_1303(node) for node in NODES.values())):
            path.write_text(json.dumps(doc))
            code, _, err = run_cli(["expand", "--spec", str(path), "--caps", "3,3"], capsys)
            assert code == 0, (doc, err)

    def test_a_spec_document_may_hold_caps_for_expand_only(self, tmp_path, capsys):
        path = tmp_path / "doc.json"
        path.write_text(json.dumps(dict(_side_1303(), caps=[3, 3])))
        code, by_doc, _ = run_cli(["expand", "--spec", str(path)], capsys)
        path.write_text(json.dumps(_side_1303()))
        assert (code, by_doc) == run_cli(["expand", "--spec", str(path), "--caps", "3,3"],
                                         capsys)[:2]
        path.write_text(json.dumps(dict(_side_1303(), caps=[3, 3])))
        code, out, err = run_cli(["grid", "--spec", str(path), "--caps", "3,3"], capsys)
        assert code == 2 and out == "" and "unknown key 'caps' in product spec" in err


@contextlib.contextmanager
def _no_digit_limit():
    """Lift the interpreter's int-to-string digit limit, where it has one."""
    old = getattr(sys, "get_int_max_str_digits", lambda: None)()
    if old is not None:
        sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        if old is not None:
            sys.set_int_max_str_digits(old)


class TestDigitLimit:
    """Input parsing keeps the interpreter's int-to-string digit limit; exact
    output does not depend on it.  CI also runs this class under
    `python -X int_max_str_digits=640`, the smallest limit Python allows."""

    def test_decimal_str_is_str(self):
        rng = random.Random(7)
        with _no_digit_limit():
            for digits in (1, 599, 600, 601, 640, 641, 1300, 4301, 9999, 20001):
                for n in (10 ** digits - 1, 10 ** (digits - 1), rng.randrange(10 ** digits)):
                    assert decimal_str(n) == str(n) and decimal_str(-n) == str(-n)

    def test_long_integer_literal_is_bad_input(self, tmp_path, capsys):
        # json cannot read a 5000-digit literal under the digit limit
        text = json.dumps(_custom_1303()).replace('"caps": [3, 3]',
                                                  '"caps": [3, ' + "9" * 5000 + "]")
        path = tmp_path / "doc.json"
        path.write_text(text)
        for args in (["expand", "--spec", str(path)], ["grid", "--spec", str(path)],
                     ["verify", "--custom", str(path)]):
            code, out, err = run_cli(args, capsys)
            assert code == 2 and out == "", args
            assert err.startswith(f"error: cannot read {path}:"), err

    def test_exact_output_does_not_depend_on_it(self, tmp_path, capsys, monkeypatch):
        # weights a^10000 / b: numerators past 4300 digits
        side = _set(_side_1303(), ("weight", "powers"), ["10000", "-1"])
        path, custom = tmp_path / "side.json", tmp_path / "custom.json"
        path.write_text(json.dumps(side))
        custom.write_text(json.dumps(dict(_custom_1303(), lhs=side)))
        runs = [["expand", "--spec", str(path), "--caps", "3,3"],
                ["grid", "--spec", str(path), "--caps", "3,3"],
                ["grid", "--spec", str(path), "--caps", "3,3", "--format", "json"],
                ["verify", "--custom", str(custom)]]
        got = [run_cli(args, capsys)[:2] for args in runs]
        assert [code for code, _ in got] == [0, 0, 0, 1]
        assert max(len(t["n"]) for t in json.loads(got[0][1])["terms"]) > 4300
        # the same outputs with plain str() and no limit
        with _no_digit_limit():
            for module in (series_mod, lattice_mod, catalog_mod):
                monkeypatch.setattr(module, "decimal_str", str)
            expected = [run_cli(args, capsys)[:2] for args in runs]
        mismatch = json.loads(got[3][1])["mismatch"]
        assert [out for _, out in got[:3]] == [out for _, out in expected[:3]]
        assert mismatch == json.loads(expected[3][1])["mismatch"]


class TestInstalledEntryPoint:
    def test_module_invocation(self):
        proc = subprocess.run(
            [sys.executable, "-m", "vpvlab", "verify", "--id", "11.06a"],
            capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0
        assert json.loads(proc.stdout.strip())["verdict"] == "pass"

    def test_env_var_jobs(self):
        env = dict(os.environ, VPV_LAB_JOBS="2")
        proc = subprocess.run(
            [sys.executable, "-m", "vpvlab", "verify", "--id", "13.02",
             "--id", "13.03"],
            capture_output=True, text=True, timeout=240, env=env)
        assert proc.returncode == 0
        lines = proc.stdout.strip().splitlines()
        assert [json.loads(line)["id"] for line in lines] == ["13.02", "13.03"]
