import contextlib
import io
import json
import pathlib
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconn.cli import MAX_FORMAL_BALLS, main
from qconn.completion import join_compactness_check
from qconn.gauges import from_digraph
from qconn.instances import load_instance
from qconn.search import TARGETS

DATA = pathlib.Path(__file__).parent / "data"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, _ = run(capsys, "validate", str(DATA / "indiscrete_split.json"))
    assert code == 0
    assert json.loads(out)["valid"] is True


def test_validate_triangle_violation_exit_2(capsys):
    code, _, err = run(capsys, "validate", str(DATA / "bad_triangle.json"))
    assert code == 2
    diag = json.loads(err)
    assert diag["error"]["type"] == "SchemaError"
    assert "TriangleViolation(i=0, j=1, k=2" in diag["error"]["message"]


def test_validate_non_json_exit_3(tmp_path, capsys):
    p = tmp_path / "garbage.bin"
    p.write_bytes(b"\x00\xffnot json")
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_validate_deeply_nested_json_exit_3(tmp_path, capsys):
    p = tmp_path / "deep.json"
    p.write_text("[" * 100000 + "]" * 100000)
    code, _, err = run(capsys, "validate", str(p))
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_validate_missing_file_exit_3(capsys):
    code, _, err = run(capsys, "validate", "/nonexistent/file.json")
    assert code == 3
    assert json.loads(err)["error"]["type"] == "ParseError"


def test_analyze_components_fixture(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA / "indiscrete_split.json"),
                       "--components", "--local")
    assert code == 0
    report = json.loads(out)
    comp = report["analyses"]["components"]
    assert comp["antisym_connected"] is True
    assert comp["symmetric"] == [[0, 1], [2]]
    assert comp["antisymmetric"] == [[0, 1, 2]]
    assert comp["certificate"] is None
    assert report["analyses"]["local"]["all_pass"] is True


def test_analyze_single_point(tmp_path, capsys):
    p = tmp_path / "one.json"
    p.write_text(json.dumps({
        "kind": "bitopology", "points": ["x"],
        "forward_min_nbhd": [[0]], "backward_min_nbhd": [[0]],
    }))
    code, out, _ = run(capsys, "analyze", str(p), "--components", "--local")
    assert code == 0
    report = json.loads(out)
    assert report["analyses"]["components"]["antisym_connected"] is True
    assert report["analyses"]["local"]["all_pass"] is True


def test_analyze_digraph_scale(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA / "chain_digraph.json"),
                       "--scale", "10")
    assert code == 0
    scale = json.loads(out)["analyses"]["scale"]
    assert scale["antisymmetric"] == [[0], [1], [2]]


def test_analyze_smyth_and_formal_balls(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA / "chain_digraph.json"),
                       "--smyth", "--formal-balls", "0,1,2")
    assert code == 0
    report = json.loads(out)["analyses"]
    # the section is exactly the library call, which the bench's traced
    # replica of `analyze` rebuilds and compares by digest
    metric = from_digraph(load_instance(str(DATA / "chain_digraph.json"))[1])
    assert report["smyth"] == join_compactness_check(metric)
    assert report["formal_balls"]["elements"]


def test_analyze_cauchy(capsys):
    code, out, _ = run(capsys, "analyze", str(DATA / "asym_pair.json"),
                       "--cauchy", str(DATA / "constant_seq.json"))
    assert code == 0
    cauchy = json.loads(out)["analyses"]["cauchy"]
    assert cauchy["left_k_cauchy"] is True
    assert 0 in cauchy["forward_limits"]


def test_analyze_scale_on_bitopology_is_usage_error(capsys):
    code, _, err = run(capsys, "analyze", str(DATA / "indiscrete_split.json"),
                       "--scale", "1")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "SchemaError"


@pytest.mark.parametrize("flags, named", [
    (["--scale", "1"], "--scale"),
    (["--smyth"], "--smyth"),
    (["--formal-balls", "0,1"], "--formal-balls"),
    (["--cauchy", str(DATA / "constant_seq.json")], "--cauchy"),
    (["--cauchy", str(DATA / "constant_seq.json"), "--formal-balls", "0"], "--formal-balls"),
    (["--cauchy", str(DATA / "constant_seq.json"), "--formal-balls", "0", "--smyth"],
     "--smyth"),
    (["--components", "--local", "--cauchy", str(DATA / "constant_seq.json"), "--smyth",
      "--scale", "1"], "--scale"),
])
def test_metric_analyses_on_a_bitopology_name_the_first_flag(capsys, flags, named):
    # the first of scale, smyth, formal-balls, cauchy that was asked for
    code, out, err = run(capsys, "analyze", str(DATA / "indiscrete_split.json"), *flags)
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {
        "code": 2, "type": "SchemaError",
        "message": f"{named} needs a metric-backed instance"}


def test_analyze_deterministic_bytes(tmp_path, capsys):
    out1 = tmp_path / "a.json"
    out2 = tmp_path / "b.json"
    for out in (out1, out2):
        code, _, _ = run(capsys, "analyze", str(DATA / "orlicz_pair.json"),
                         "--components", "--local", "--out", str(out))
        assert code == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_analyze_dot_output(tmp_path, capsys):
    dot_path = tmp_path / "components.dot"
    code, _, _ = run(capsys, "analyze", str(DATA / "indiscrete_split.json"),
                     "--components", "--dot", str(dot_path))
    assert code == 0
    text = dot_path.read_text()
    assert text.startswith("digraph components {")
    assert "subgraph cluster_0" in text


def test_export_dot_formal_balls(tmp_path, capsys):
    out = tmp_path / "balls.dot"
    code, _, _ = run(capsys, "analyze", str(DATA / "chain_digraph.json"),
                     "--formal-balls", "0,1,3", "--dot", str(out))
    assert code == 0
    assert out.read_text().startswith("digraph formal_balls {")


def test_export_dot_command_is_gone(tmp_path, capsys):
    # `analyze F --dot X` writes the DOT graphs
    code, out, _ = run(capsys, "export-dot", str(DATA / "chain_digraph.json"),
                       "--out", str(tmp_path / "c.dot"))
    assert (code, out) == (2, "")
    assert not (tmp_path / "c.dot").exists()


def test_formal_balls_past_the_cap_are_a_schema_error(tmp_path, capsys):
    chain = str(DATA / "chain_digraph.json")  # 3 points
    most = MAX_FORMAL_BALLS // 3
    radii = ",".join(str(r) for r in range(most))
    code, out, _ = run(capsys, "analyze", chain, "--formal-balls", radii + ",0,1")
    assert code == 0  # repeated radii count once
    assert len(json.loads(out)["analyses"]["formal_balls"]["elements"]) == 3 * most
    code, _, err = run(capsys, "analyze", chain, "--formal-balls", radii + f",{most}",
                       "--dot", str(tmp_path / "balls.dot"))
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "SchemaError"
    assert f"MAX_FORMAL_BALLS = {MAX_FORMAL_BALLS}" in diag["message"]
    assert not (tmp_path / "balls.dot").exists()


def test_search_exit_codes_and_determinism(tmp_path, capsys):
    f1 = tmp_path / "f1.json"
    f2 = tmp_path / "f2.json"
    code1, _, err1 = run(capsys, "search", "--target", "cor61_join_local",
                         "--out", str(f1))
    code2, _, _ = run(capsys, "search", "--target", "cor61_join_local",
                      "--out", str(f2))
    assert code1 == code2 == 1  # findings expected for this target
    assert f1.read_bytes() == f2.read_bytes()
    assert "wall" in err1  # timing goes to stderr, not the findings file
    doc = json.loads(f1.read_text())
    assert doc["stats"]["failures_found"] == len(doc["findings"]) > 0


def test_search_clean_target_exit_zero(capsys):
    code, out, _ = run(capsys, "search", "--target", "prop54_inclusion",
                       "--n", "3", "--mode", "exhaustive", "--budget", "900")
    assert code == 0
    stats = json.loads(out)["stats"]
    assert stats["failures_found"] == 0
    assert stats["tautological"] is False


@pytest.mark.parametrize("target, cases", [
    ("antisym_oracle", 860), ("prop62_image", 2542), ("thm54_coincidence", 34)])
def test_exhaustive_search_without_budget_runs_every_case(capsys, target, cases):
    code, out, _ = run(capsys, "search", "--target", target, "--mode", "exhaustive",
                       "--n", "3")
    doc = json.loads(out)
    assert code in (0, 1)
    assert (doc["budget"], doc["stats"]["instances_tested"]) == (None, cases)


def test_random_search_budget_defaults_to_200(capsys):
    code, out, _ = run(capsys, "search", "--target", "prop54_inclusion", "--n", "3")
    doc = json.loads(out)
    assert (code, doc["budget"], doc["stats"]["instances_tested"]) == (0, 200, 200)


def test_search_seed_defaults_to_the_pinned_seed(capsys):
    argv = ("search", "--target", "cor61_join_local", "--n", "4", "--budget", "40")
    code, out, _ = run(capsys, *argv)
    assert (code, out) == run(capsys, *argv, "--seed", "20240801")[:2]
    assert json.loads(out)["seed"] == 20240801


def test_search_unknown_target_exit_2(capsys):
    code, _, err = run(capsys, "search", "--target", "nope")
    assert code == 2
    error = json.loads(err)["error"]
    assert error["type"] == "UnknownProperty"
    assert len(TARGETS) == 9
    assert error["message"].endswith("; known: " + ", ".join(sorted(TARGETS)))


def test_malformed_inputs_never_crash(tmp_path, capsys):
    samples = [
        b"",
        b"[]",
        b"{}",
        b'{"kind": 5}',
        b'{"kind": "quasi_metric"}',
        b'{"kind": "quasi_metric", "points": ["a"], "dist": [[{}]]}',
        b'{"kind": "bitopology", "points": ["a"], "forward_min_nbhd": [[true]], "backward_min_nbhd": [[0]]}',
        b'{"kind": "digraph", "vertices": ["a"], "edges": [["a"]]}',
        b'\xf0\x9f\x92\xa5',
    ]
    for t, payload in enumerate(samples):
        p = tmp_path / f"fuzz{t}.json"
        p.write_bytes(payload)
        code = main(["validate", str(p)])
        capsys.readouterr()
        assert code in (2, 3), payload
        code = main(["analyze", str(p), "--components"])
        capsys.readouterr()
        assert code in (2, 3), payload


def _orlicz(phi=({},), atoms=(("a", "1"),), functions=(("1",),)) -> dict:
    return {"kind": "orlicz", "atoms": [list(a) for a in atoms], "phi": list(phi),
            "functions": [list(f) for f in functions], "scaling": {"kind": "homogeneous"}}


# one file per invariant that the parsers leave to the constructor they
# call, with the constructor's message
CONSTRUCTOR_INVARIANTS = {
    "digraph_infinite_weight": ({"kind": "digraph", "vertices": ["a", "b"],
                                 "edges": [["a", "b", "inf"]]},
                                "edge (a,b) has infinite weight"),
    "digraph_unknown_vertex": ({"kind": "digraph", "vertices": ["a", "b"],
                                "edges": [["a", "z", "1"]]},
                               "edge (a,z) references unknown vertex"),
    "bitopology_neighbourhood_count": ({"kind": "bitopology", "points": ["a", "b"],
                                        "forward_min_nbhd": [[0], [1]],
                                        "backward_min_nbhd": [[0]]},
                                       "one neighborhood per point required"),
    "orlicz_atom_weight": (_orlicz(atoms=[("a", "0")]), "atom weights must be positive"),
    "orlicz_phi_count": (_orlicz(phi=[]), "need one phi per atom"),
    "orlicz_vector_length": (_orlicz(functions=[("1", "2")]),
                             "function vectors must cover every atom"),
    "phi_pos_slope_count": (_orlicz([{"pos_breakpoints": ["1"], "pos_slopes": ["1"]}]),
                            "need len(pos_slopes) == len(pos_breaks) + 1"),
    "phi_neg_slope_count": (_orlicz([{"neg_breakpoints": ["-1"], "neg_slopes": ["-1"]}]),
                            "need len(neg_slopes) == len(neg_breaks) + 1"),
    "phi_pos_breaks_increasing": (_orlicz([{"pos_breakpoints": ["2", "1"],
                                            "pos_slopes": ["0", "1", "2"]}]),
                                  "positive breakpoints must be increasing and > 0"),
    "phi_pos_breaks_positive": (_orlicz([{"pos_breakpoints": ["0"], "pos_slopes": ["0", "1"]}]),
                                "positive breakpoints must be > 0"),
    "phi_neg_breaks_decreasing": (_orlicz([{"neg_breakpoints": ["-2", "-1"],
                                            "neg_slopes": ["0", "-1", "-2"]}]),
                                  "negative breakpoints must decrease and be < 0"),
    "phi_neg_breaks_negative": (_orlicz([{"neg_breakpoints": ["0"], "neg_slopes": ["0", "-1"]}]),
                                "negative breakpoints must be < 0"),
    "phi_convexity": (_orlicz([{"pos_breakpoints": ["1"], "pos_slopes": ["2", "1"]}]),
                      "slopes must be nondecreasing (convexity)"),
    "phi_pos_slope_sign": (_orlicz([{"pos_slopes": ["-1"]}]),
                           "phi must be nonnegative with minimum at 0"),
    "phi_neg_slope_sign": (_orlicz([{"neg_slopes": ["1"], "pos_slopes": ["1"]}]),
                           "phi must be nonnegative with minimum at 0"),
    "asym_norm_dimension": ({"kind": "asym_norm_sample", "dimension": 0, "p": "1",
                             "points": []}, "dimension must be positive"),
    "asym_norm_vector_length": ({"kind": "asym_norm_sample", "dimension": 2, "p": "1",
                                 "points": [["1"]]}, "vector length does not match dimension"),
    "map_assignment_length": ({"kind": "map", "source_points": ["a", "b"],
                               "target_points": ["x"], "assignment": [0]},
                              "assignment must be total on the source"),
    "sequence_empty_period": ({"kind": "sequence", "preperiod": [0], "period": []},
                              "period must be nonempty"),
}


@pytest.mark.parametrize("name", sorted(CONSTRUCTOR_INVARIANTS))
def test_constructor_invariants_exit_2_as_schema_errors(tmp_path, capsys, name):
    doc, message = CONSTRUCTOR_INVARIANTS[name]
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": 2, "type": "SchemaError", "message": message}


ZERO_GAUGE = {"kind": "homogeneous", "coeff": "0"}


def _family(gauges) -> dict:
    return {"kind": "modular_family", "points": ["a", "b"], "gauges": gauges}


# one file per refusal of the parsers' own, with its message
PARSER_REFUSALS = {
    "bitopology_neighbourhood_not_a_list": (
        {"kind": "bitopology", "points": ["a"], "forward_min_nbhd": [0],
         "backward_min_nbhd": [[0]]},
        "field 'forward_min_nbhd' must be a list"),
    "quasi_metric_row_count": ({"kind": "quasi_metric", "points": ["a", "b"],
                                "dist": [["0", "1"]]},
                               "dist must have one row per point"),
    "quasi_metric_row_length": ({"kind": "quasi_metric", "points": ["a", "b"],
                                 "dist": [["0", "1"], ["0"]]},
                                "dist row 1 has wrong length"),
    "quasi_metric_row_not_a_list": ({"kind": "quasi_metric", "points": ["a"],
                                     "dist": ["0"]},
                                    "dist row 0 has wrong length"),
    **{f"quasi_metric_infinity_spelled_{name}": (
        {"kind": "quasi_metric", "points": ["a", "b"], "dist": [["0", text], ["0", "0"]]},
        f"field 'dist[0]': bad value {text!r}")  # "inf" is the one spelling
       for name, text in (("Infinity", "Infinity"), ("plus_inf", "+inf"),
                          ("padded_inf", " inf "))},
    "family_gauge_not_an_object": (_family([[ZERO_GAUGE, "0"], [ZERO_GAUGE, ZERO_GAUGE]]),
                                   "gauges[0][1]: gauge must be an object"),
    "family_gauge_kind": (_family([[ZERO_GAUGE, {"kind": "cubic"}],
                                   [ZERO_GAUGE, ZERO_GAUGE]]),
                          "gauges[0][1]: unknown gauge kind 'cubic'"),
    "family_row_count": (_family([[ZERO_GAUGE, ZERO_GAUGE]]),
                         "gauges must have one row per point"),
    "family_row_length": (_family([[ZERO_GAUGE, ZERO_GAUGE], [ZERO_GAUGE]]),
                          "gauges row 1 has wrong length"),
    "orlicz_phi_not_an_object": (_orlicz(phi=["x"]), "phi[0]: phi must be an object"),
    "orlicz_atom_shape": (_orlicz(atoms=(("a",),)), "atom 0 must be [label, weight]"),
    "orlicz_scaling_kind": (dict(_orlicz(), scaling={"kind": "linear"}),
                            "unknown scaling kind 'linear'"),
    "sequence_negative_index": ({"kind": "sequence", "preperiod": [], "period": [-1]},
                                "sequence index -1 must be a nonnegative integer"),
    "sequence_boolean_index": ({"kind": "sequence", "preperiod": [True], "period": [0]},
                               "sequence index True must be a nonnegative integer"),
}


@pytest.mark.parametrize("name", sorted(PARSER_REFUSALS))
def test_parser_refusals_exit_2_as_schema_errors(tmp_path, capsys, name):
    doc, message = PARSER_REFUSALS[name]
    p = tmp_path / f"{name}.json"
    p.write_text(json.dumps(doc))
    code, out, err = run(capsys, "validate", str(p))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": 2, "type": "SchemaError", "message": message}


def _long_sequence(tmp_path) -> str:
    p = tmp_path / "long_seq.json"
    p.write_text(json.dumps({"kind": "sequence", "preperiod": [0], "period": [1, 2]}))
    return str(p)


# an argument that names a file the command cannot use, with its message
ARGUMENT_REFUSALS = {
    "cauchy_not_a_sequence": (
        lambda tmp: ["analyze", str(DATA / "asym_pair.json"),
                     "--cauchy", str(DATA / "asym_pair.json")],
        "--cauchy expects a sequence instance"),
    "cauchy_index_outside": (
        lambda tmp: ["analyze", str(DATA / "asym_pair.json"), "--cauchy", _long_sequence(tmp)],
        "sequence index 2 outside the carrier"),
    "formal_balls_export_of_a_bitopology": (
        lambda tmp: ["analyze", str(DATA / "indiscrete_split.json"),
                     "--formal-balls", "0,1", "--dot", f"{tmp}/balls.dot"],
        "--formal-balls needs a metric-backed instance"),
}


@pytest.mark.parametrize("name", sorted(ARGUMENT_REFUSALS))
def test_argument_refusals_exit_2_as_schema_errors(tmp_path, capsys, name):
    argv, message = ARGUMENT_REFUSALS[name]
    code, out, err = run(capsys, *argv(tmp_path))
    assert (code, out) == (2, "")
    assert json.loads(err)["error"] == {"code": 2, "type": "SchemaError", "message": message}


FLOAT_SAMPLE = {"kind": "asym_norm_sample", "dimension": 2, "p": "2",
                "points": [["1/4", "-7/5"], ["-7", "-4/5"], ["7/5", "-4"]]}


def test_float_mode_formal_balls_break_is_a_precondition(tmp_path, capsys):
    # valid in float mode (triangle defect below tol), but the exact order
    # d(x,y) <= r - s on these radii is not transitive
    p = tmp_path / "float_sample.json"
    p.write_text(json.dumps(FLOAT_SAMPLE))
    code, _, _ = run(capsys, "validate", str(p))
    assert code == 0
    code, _, err = run(capsys, "analyze", str(p), "--formal-balls",
                       "0,2589569785738035/2251799813685248,"
                       "18915118434956083/2251799813685248")
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "PreconditionFailed"  # not InternalError
    assert "float-mode" in diag["message"] and "tolerance" in diag["message"]


def test_float_mode_intransitive_zero_relation_is_a_precondition(tmp_path, capsys):
    # d(v0,v1) and d(v1,v2) are within the tolerance 1e-9, d(v0,v2) is not
    p = tmp_path / "line.json"
    p.write_text(json.dumps({"kind": "asym_norm_sample", "dimension": 1, "p": "2",
                             "points": [["0"], ["6e-10"], ["12e-10"]]}))
    code, _, err = run(capsys, "analyze", str(p))
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "PreconditionFailed"  # not CoherenceError
    assert "tolerance" in diag["message"]


@pytest.mark.parametrize("command", ["analyze"])
def test_float_mode_overflow_names_the_sample_and_exponent(tmp_path, capsys, command):
    # 1e350 is past the float range, yet parses (within
    # MAX_LITERAL_EXPONENT): a named error, not InternalError
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"kind": "asym_norm_sample", "dimension": 1, "p": "2",
                             "points": [["0"], ["1e350"]]}))
    code, out, err = run(capsys, command, str(p))
    assert (code, out) == (2, "")
    diag = json.loads(err)["error"]
    assert diag["type"] == "NonRepresentable"
    assert "exponent 2" in diag["message"]
    assert "asym_norm_sample from v0 to v1" in diag["message"]


@pytest.mark.parametrize("command", ["analyze"])
def test_float_mode_gauge_past_the_squared_range_is_computed(tmp_path, capsys, command):
    # 1e200 squared is past the float range, the gauge 1e200 is not
    p = tmp_path / "huge.json"
    p.write_text(json.dumps({"kind": "asym_norm_sample", "dimension": 1, "p": "2",
                             "points": [["0"], ["1e200"]]}))
    code, out, err = run(capsys, command, str(p), "--smyth")
    assert (code, err) == (0, "")
    covers = json.loads(out)["analyses"]["smyth"]["precompact_report"]["covers"]
    assert covers[0]["eps"] == str(Fraction(1e200))  # the one positive distance


@pytest.mark.parametrize("tol", ["1/1000000000", "1/0", "1e-999", None])
def test_quasi_metric_tol_field_is_refused(tmp_path, capsys, tol):
    # float mode is for asym_norm_sample files with p != 1; a quasi_metric
    # file names no tolerance, not even a malformed or null one, so its
    # self-distances of 1e-10 are never read as zero
    p = tmp_path / "float_qm.json"
    p.write_text(json.dumps({"kind": "quasi_metric", "points": ["a", "b"],
                             "dist": [["1/10000000000", "1"], ["1", "1/10000000000"]],
                             "tol": tol}))
    message = ("field 'tol': a quasi_metric is exact; float mode is for "
               "asym_norm_sample files with p != 1")
    for argv in (("validate",), ("analyze", "--smyth", "--thresholds", "1/1000000000000")):
        code, out, err = run(capsys, argv[0], str(p), *argv[1:])
        assert (code, out, json.loads(err)["error"]) == (
            2, "", {"code": 2, "type": "SchemaError", "message": message})


@pytest.mark.parametrize("tol", ["1e-9", "-1", "1e999", "inf", "nan"])
def test_float_tol_is_not_an_option(tmp_path, capsys, tol):
    # float mode always runs at from_asym_norm's default tolerance, 1e-9
    p = tmp_path / "float_sample.json"
    p.write_text(json.dumps(FLOAT_SAMPLE))
    code, out, err = run(capsys, "analyze", str(p), "--float-tol", tol)
    assert (code, out) == (2, "")
    assert f"unrecognized arguments: --float-tol {tol}" in err


@pytest.mark.parametrize("threshold", ["0", "-1"])
def test_non_positive_threshold_is_named(capsys, threshold):
    code, out, err = run(capsys, "analyze", str(DATA / "asym_pair.json"), "--smyth",
                         "--thresholds", f"1,{threshold}")
    assert (code, out, json.loads(err)["error"]) == (
        2, "", {"code": 2, "type": "NonPositiveEpsilon",
                "message": f"thresholds must be positive, got {threshold}"})


def test_argparse_refusal_returns_2(capsys):
    assert main(["analyze"]) == 2
    out, err = capsys.readouterr()
    assert out == "" and "the following arguments are required: path" in err


def test_help_returns_0(capsys):
    assert main(["--help"]) == 0
    assert capsys.readouterr().out.startswith("usage: qconn")


def test_unexpected_exception_is_an_internal_error(monkeypatch, capsys):
    def boom(path):
        raise RuntimeError("boom")

    monkeypatch.setattr("qconn.cli.load_instance", boom)
    code, out, err = run(capsys, "validate", str(DATA / "asym_pair.json"))
    assert (code, out, json.loads(err)) == (2, "", {"error": {
        "code": 2, "type": "InternalError", "message": "RuntimeError: boom"}})


@pytest.mark.parametrize("argv, name", [
    (("--budget", "-1"), "--budget"),
    (("--mode", "exhaustive", "--n", "7"), "--n"),
    (("--mode", "random", "--n", "257"), "--n"),
    (("--mode", "random", "--n", "1"), "takes 2 to 256 points"),
    (("--mode", "exhaustive", "--n", "0"), "takes 1 to 5 points"),
], ids=["negative-budget", "exhaustive-n7", "random-n-over-cap", "random-n-below-2",
        "exhaustive-n0"])
def test_bad_search_arguments_are_schema_errors(capsys, argv, name):
    code, _, err = run(capsys, "search", "--target", "prop54_inclusion", *argv)
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "SchemaError" and name in diag["message"]


@settings(max_examples=100, derandomize=True, deadline=None)
@given(target=st.sampled_from(sorted(TARGETS) + ["no_such_target"]),
       mode=st.sampled_from(["exhaustive", "random"]),
       n=st.one_of(st.integers(-3, 20), st.integers(-3, 300), st.integers(-3, 10_000)),
       budget=st.integers(-2, 5),
       seed=st.integers(-2**40, 2**40))
def test_search_exit_codes_under_fuzzing(target, mode, n, budget, seed):
    """Any search arguments exit 0, 1 or 2, and an exit 2 names an
    argument or a limit, never an internal error."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        code = main(["search", "--target", target, "--mode", mode, "--n", str(n),
                     "--budget", str(budget), "--seed", str(seed)])
    assert code in (0, 1, 2)
    if code == 2:
        diag = json.loads(err.getvalue())["error"]
        assert diag["type"] in ("SchemaError", "UnknownProperty", "CarrierTooLarge")


def test_oversized_literals_exit_2_fast(tmp_path, capsys):
    p = tmp_path / "big.json"
    p.write_text('{"kind": "quasi_metric", "points": ["a"], "dist": [["1e9999999"]]}')
    assert len(p.read_bytes()) <= 70
    start = time.perf_counter()
    code, _, err = run(capsys, "validate", str(p))
    assert time.perf_counter() - start < 1
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "SchemaError" and "MAX_LITERAL_EXPONENT" in diag["message"]
    p.write_text('{"kind": "quasi_metric", "points": ["a"], "dist": [["%s"]]}' % ("7" * 401))
    code, _, err = run(capsys, "validate", str(p))
    assert code == 2 and "MAX_LITERAL_DIGITS" in json.loads(err)["error"]["message"]
    code, _, err = run(capsys, "analyze", str(DATA / "asym_pair.json"), "--scale", "1e-9999999")
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "SchemaError" and "MAX_LITERAL_EXPONENT" in diag["message"]


BIG = "literal with 4 digits and exponent 999 exceeds the limits " \
      "MAX_LITERAL_DIGITS = 400, MAX_LITERAL_EXPONENT = 400"


@pytest.mark.parametrize("field, text, message", [
    ("dist", "x", "field 'dist[0]': bad value 'x'"),
    ("dist", "1e999", "field 'dist[0]': " + BIG),
    ("--scale", "x", "argument --scale: bad rational 'x'"),
    ("--scale", "1e-999", "argument --scale: " + BIG),
])
def test_bad_literal_messages(tmp_path, capsys, field, text, message):
    doc = {"kind": "quasi_metric", "points": ["a"], "dist": [["0"]]}
    if field == "--scale":
        argv = ("analyze", str(DATA / "asym_pair.json"), "--scale", text)
    else:
        doc[field] = [[text]]
        (tmp_path / "lit.json").write_text(json.dumps(doc))
        argv = ("validate", str(tmp_path / "lit.json"))
    code, _, err = run(capsys, *argv)
    assert (code, json.loads(err)["error"]) == (
        2, {"code": 2, "type": "SchemaError", "message": message})


def _sized(kind, n):
    """The smallest file of its kind whose capped field holds n entries."""
    labels = [f"p{i}" for i in range(n)]
    if kind == "quasi_metric":
        return {"kind": kind, "points": labels, "dist": [["0"] * n] * n}
    if kind == "digraph":
        return {"kind": kind, "vertices": labels, "edges": []}
    if kind == "digraph_edges":  # one vertex, n zero loops
        return {"kind": "digraph", "vertices": ["p"], "edges": [["p", "p", "0"]] * n}
    if kind == "asym_norm_sample":
        return {"kind": kind, "dimension": 1, "p": "1", "points": [["0"]] * n}
    if kind == "bitopology":
        nbhd = [[i] for i in range(n)]
        return {"kind": kind, "points": labels, "forward_min_nbhd": nbhd,
                "backward_min_nbhd": nbhd}
    if kind == "modular_family":
        zero = {"kind": "homogeneous", "coeff": "0"}
        return {"kind": kind, "points": labels, "gauges": [[zero] * n] * n}
    if kind == "orlicz":
        return {"kind": kind, "atoms": [["a", "1"]], "phi": [{"pos_slopes": ["1"]}],
                "functions": [["0"]] * n, "scaling": {"kind": "homogeneous"}}
    if kind == "orlicz_atoms":
        return {"kind": "orlicz", "atoms": [[f"a{t}", "1"] for t in range(n)],
                "phi": [{"pos_slopes": ["1"]}] * n, "functions": [["0"] * n],
                "scaling": {"kind": "homogeneous"}}
    if kind == "phi_breakpoints":  # counted over every phi: n - 1 kinks on one, 1 on another
        kinked = [{"pos_breakpoints": [str(i + 1) for i in range(k)],
                   "pos_slopes": [str(i + 1) for i in range(k + 1)]} for k in (n - 1, 1)]
        return {"kind": "orlicz", "atoms": [["a", "1"], ["b", "1"]], "phi": kinked,
                "functions": [["0", "0"], ["1", "-1"]], "scaling": {"kind": "homogeneous"}}
    if kind == "family_pieces":  # one point whose step gauge has n - 1 breakpoints
        return {"kind": "modular_family", "points": ["p"], "gauges": [[{
            "kind": "step", "breakpoints": [str(i + 1) for i in range(n - 1)],
            "values": ["0"] * n}]]}
    if kind == "step_values":  # one breakpoint, n values
        return {"kind": "modular_family", "points": ["p"], "gauges": [[{
            "kind": "step", "breakpoints": ["1"], "values": ["0"] * n}]]}
    if kind == "piecewise_pieces":  # no breakpoint, n pieces
        return {"kind": "modular_family", "points": ["p"], "gauges": [[{
            "kind": "piecewise", "breakpoints": [], "pieces": [["0", "0"]] * n}]]}
    if kind == "map":
        return {"kind": kind, "source_points": labels, "target_points": ["t"],
                "assignment": [0] * n}
    if kind.endswith("_denominator"):  # one literal whose denominator 10^(n-1) has n digits
        lit = f"1e-{n - 1}"
        return {"quasi_metric_denominator": {"kind": "quasi_metric", "points": ["p", "q"],
                                             "dist": [["0", lit], ["0", "0"]]},
                "digraph_denominator": {"kind": "digraph", "vertices": ["p", "q"],
                                        "edges": [["p", "q", lit]]},
                "asym_norm_sample_denominator": {"kind": "asym_norm_sample", "dimension": 1,
                                                 "p": "1", "points": [["0"], [lit]]}}[kind]
    return {"kind": "sequence", "preperiod": [0] * (n - 1), "period": [0]}


@pytest.mark.parametrize("kind", ["quasi_metric", "digraph", "digraph_edges",
                                  "asym_norm_sample", "bitopology", "modular_family", "orlicz",
                                  "orlicz_atoms", "phi_breakpoints", "family_pieces",
                                  "step_values", "piecewise_pieces", "map", "sequence",
                                  "quasi_metric_denominator", "digraph_denominator",
                                  "asym_norm_sample_denominator"])
def test_over_cap_files_exit_2_promptly(tmp_path, capsys, kind):
    from qconn.instances import (MAX_DENOMINATOR_DIGITS, MAX_EDGES, MAX_FAMILY_PIECES,
                                 MAX_ORLICZ_ATOMS, MAX_PHI_BREAKPOINTS, MAX_POINTS,
                                 MAX_SEQUENCE_LENGTH)
    name, cap = {"digraph_edges": ("MAX_EDGES", MAX_EDGES),
                 "orlicz_atoms": ("MAX_ORLICZ_ATOMS", MAX_ORLICZ_ATOMS),
                 "phi_breakpoints": ("MAX_PHI_BREAKPOINTS", MAX_PHI_BREAKPOINTS),
                 "family_pieces": ("MAX_FAMILY_PIECES", MAX_FAMILY_PIECES),
                 "step_values": ("MAX_FAMILY_PIECES", MAX_FAMILY_PIECES),
                 "piecewise_pieces": ("MAX_FAMILY_PIECES", MAX_FAMILY_PIECES),
                 "sequence": ("MAX_SEQUENCE_LENGTH", MAX_SEQUENCE_LENGTH)}.get(
        kind, (f"MAX_POINTS[{kind!r}]", MAX_POINTS.get(kind)))
    denominator = kind.endswith("_denominator")
    if denominator:
        name, cap = "MAX_DENOMINATOR_DIGITS", MAX_DENOMINATOR_DIGITS
        ending = f"the common denominator has more than {name} = {cap} digits"
    else:
        ending = f"{cap + 1} entries exceed the limit {name} = {cap}"
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_sized(kind, cap + 1)))
    for command in ("validate", "analyze"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        error = json.loads(err)["error"]
        assert error["type"] == "SchemaError"
        assert error["message"].endswith(ending)
    if denominator or kind in ("map", "sequence", "asym_norm_sample", "orlicz", "orlicz_atoms",
                               "phi_breakpoints", "family_pieces", "digraph_edges"):
        path.write_text(json.dumps(_sized(kind, cap)))  # at the cap: accepted
        assert run(capsys, "validate", str(path))[0] == 0
    if denominator or kind == "digraph_edges":
        assert run(capsys, "analyze", str(path))[0] == 0


def test_asym_norm_dimension_past_the_cap_is_a_schema_error(tmp_path, capsys):
    from qconn.instances import MAX_DIMENSION
    path = tmp_path / "wide.json"
    for dim in (MAX_DIMENSION + 1, 10**40):
        path.write_text(json.dumps({"kind": "asym_norm_sample", "dimension": dim, "p": "2",
                                    "points": [["0"] * (MAX_DIMENSION + 1)] * 2}))
        for command in ("validate", "analyze"):
            code, out, err = run(capsys, command, str(path))
            assert (code, out) == (2, "")
            assert json.loads(err)["error"] == {
                "code": 2, "type": "SchemaError",
                "message": f"field 'dimension': {dim} exceeds the limit "
                           f"MAX_DIMENSION = {MAX_DIMENSION}"}
    path.write_text(json.dumps({"kind": "asym_norm_sample", "dimension": MAX_DIMENSION,
                                "p": "2", "points": [["0"] * MAX_DIMENSION] * 2}))
    for command in ("validate", "analyze"):  # at the cap: accepted
        assert run(capsys, command, str(path))[0] == 0


def test_collinear_p2_sample_with_large_coordinates_is_analyzed(tmp_path, capsys):
    # Minkowski gives these four collinear points the triangle law; float
    # rounding at this scale misses it by about 3e-8, past the 1e-9 tolerance
    path = tmp_path / "collinear.json"
    path.write_text(json.dumps({
        "kind": "asym_norm_sample", "dimension": 2, "p": "2",
        "points": [["52515153", "122535357"], ["95817213", "223573497"],
                   ["219135630", "511316470"], ["238628748", "556800412"]]}))
    code, out, err = run(capsys, "analyze", "--components", "--smyth", str(path))
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["numeric_tolerance"] == str(Fraction(1e-9))
    assert report["analyses"]["components"]["antisymmetric"] == [[0], [1], [2], [3]]


@pytest.mark.parametrize("pieces, breakpoints", [
    ([["-3", "4"], ["0", "1"]], ["2"]),        # -3 + 4/lambda < 0 just before 2
    ([["-1", "0"]], []),                       # negative everywhere
    ([["0", "1"]], ["1"]),                     # a piece short
    ([["inf", "1"], ["0", "1"]], ["1"]),       # beta on an infinite piece
    ([["0", "-1"], ["0", "1"]], ["1"]),        # a negative beta
    ([["0"], ["0", "1"]], ["1"]),              # a piece that is no pair
    ([["0", "x"], ["0", "1"]], ["1"]),         # a bad rational
    ("0", []),
])
def test_bad_piecewise_gauge_file_exits_2(tmp_path, capsys, pieces, breakpoints):
    zero = {"kind": "homogeneous", "coeff": "0"}
    bad = {"kind": "piecewise", "breakpoints": breakpoints, "pieces": pieces}
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"kind": "modular_family", "points": ["a", "b"],
                                "gauges": [[zero, bad], [zero, zero]]}))
    for command in ("validate", "analyze"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, json.loads(err)["error"]["type"]) == (2, "", "SchemaError")


KINKED = {"kind": "orlicz", "atoms": [["w0", "1"], ["w1", "1"]],
          "phi": [{"pos_breakpoints": ["1"], "pos_slopes": ["1", "3"]}] * 2,
          "functions": [["0", "0"], ["2", "-1"], ["1", "1"]],
          "scaling": {"kind": "homogeneous"}}


def test_kinked_orlicz_file_is_analyzed_exactly(tmp_path, capsys):
    path, dot = tmp_path / "kinked.json", tmp_path / "kinked.dot"
    path.write_text(json.dumps(KINKED))
    code, out, err = run(capsys, "analyze", "--components", "--dot", str(dot), str(path))
    assert (code, err) == (0, "")
    # brute force: w(x, y) is identically zero iff rho((y - x)/lambda)
    # vanishes at every sampled scale, and the combined arcs are that relation
    spec = load_instance(str(path))[1]
    zero = {(x, y) for x, fx in enumerate(spec.functions) for y, fy in enumerate(spec.functions)
            if x != y and all(spec.rho([(b - a) / Fraction(lam, 8) for a, b in zip(fx, fy)]) == 0
                              for lam in range(1, 65))}
    arcs = {tuple(int(v[1:]) for v in line.strip().rstrip(";").split(" -> "))
            for line in dot.read_text().splitlines() if "->" in line}
    assert arcs == zero == {(2, 0)}
    assert json.loads(out)["analyses"]["components"]["antisymmetric"] == [[0], [1], [2]]
    path.write_text(json.dumps(dict(KINKED, scaling={"kind": "power", "p": "2"})))
    code, out, err = run(capsys, "analyze", str(path))
    assert (code, out, json.loads(err)["error"]["type"]) == (2, "", "NonRepresentable")


@pytest.mark.parametrize("p", ["1/2", "-3"])
def test_orlicz_power_scaling_below_one_is_a_schema_error(tmp_path, capsys, p):
    path = tmp_path / "sublinear.json"
    path.write_text(json.dumps(dict(KINKED, scaling={"kind": "power", "p": p})))
    for command in ("validate", "analyze"):
        code, out, err = run(capsys, command, str(path))
        assert (code, out, json.loads(err)["error"]["type"]) == (2, "", "SchemaError")
