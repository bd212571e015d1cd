import contextlib
import io
import json
import pathlib
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qconn.cli import MAX_FORMAL_BALLS, main
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
    assert report["smyth"]["hypotheses"]["smyth_complete"] is True
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
    code, _, _ = run(capsys, "export-dot", str(DATA / "chain_digraph.json"),
                     "--what", "formal-balls", "--radii", "0,1,3",
                     "--out", str(out))
    assert code == 0
    assert out.read_text().startswith("digraph formal_balls {")


def test_formal_balls_past_the_cap_are_a_schema_error(tmp_path, capsys):
    chain = str(DATA / "chain_digraph.json")  # 3 points
    most = MAX_FORMAL_BALLS // 3
    radii = ",".join(str(r) for r in range(most))
    code, out, _ = run(capsys, "analyze", chain, "--formal-balls", radii + ",0,1")
    assert code == 0  # repeated radii count once
    assert len(json.loads(out)["analyses"]["formal_balls"]["elements"]) == 3 * most
    over = radii + f",{most}"
    for args in (("analyze", chain, "--formal-balls", over),
                 ("export-dot", chain, "--what", "formal-balls", "--radii", over,
                  "--out", str(tmp_path / "balls.dot"))):
        code, _, err = run(capsys, *args)
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


def test_search_unknown_target_exit_2(capsys):
    code, _, err = run(capsys, "search", "--target", "nope")
    assert code == 2
    assert json.loads(err)["error"]["type"] == "UnknownProperty"


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
    # d(v0,v1) and d(v1,v2) are within tol = 1e-9, d(v0,v2) is not
    p = tmp_path / "line.json"
    p.write_text(json.dumps({"kind": "asym_norm_sample", "dimension": 1, "p": "2",
                             "points": [["0"], ["6e-10"], ["12e-10"]]}))
    code, _, err = run(capsys, "analyze", str(p), "--float-tol", "1e-9")
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "PreconditionFailed"  # not CoherenceError
    assert "tolerance" in diag["message"]


def test_float_mode_cover_below_self_distance_is_a_precondition(tmp_path, capsys):
    # self-distances of 1e-10 count as zero at tol = 1e-9, yet no ball of
    # radius 1e-12 contains its own centre
    p = tmp_path / "float_qm.json"
    p.write_text(json.dumps({"kind": "quasi_metric", "points": ["a", "b"],
                             "dist": [["1/10000000000", "1"], ["1", "1/10000000000"]],
                             "tol": "1/1000000000"}))
    code, _, err = run(capsys, "analyze", str(p), "--smyth",
                       "--thresholds", "1/1000000000000")
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "PreconditionFailed"  # not InternalError
    assert "float-mode" in diag["message"] and "tolerance 1/1000000000" in diag["message"]


@pytest.mark.parametrize("tol", ["nan", "inf", "1e999", "-1"])
def test_bad_float_tol_is_a_schema_error(tmp_path, capsys, tol):
    p = tmp_path / "float_sample.json"
    p.write_text(json.dumps(FLOAT_SAMPLE))
    code, _, err = run(capsys, "analyze", str(p), "--float-tol", tol)
    assert code == 2
    diag = json.loads(err)["error"]
    assert diag["type"] == "SchemaError" and "--float-tol" in diag["message"]


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
    ("tol", "1/0", "field 'tol': bad rational '1/0'"),
    ("tol", "1e-999", "field 'tol': " + BIG),
    ("--scale", "x", "argument --scale: bad rational 'x'"),
    ("--scale", "1e-999", "argument --scale: " + BIG),
])
def test_bad_literal_messages(tmp_path, capsys, field, text, message):
    doc = {"kind": "quasi_metric", "points": ["a"], "dist": [["0"]]}
    if field == "--scale":
        argv = ("analyze", str(DATA / "asym_pair.json"), "--scale", text)
    else:
        doc[field] = [[text]] if field == "dist" else text
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
    if kind == "map":
        return {"kind": kind, "source_points": labels, "target_points": ["t"],
                "assignment": [0] * n}
    return {"kind": "sequence", "preperiod": [0] * (n - 1), "period": [0]}


@pytest.mark.parametrize("kind", ["quasi_metric", "digraph", "asym_norm_sample",
                                  "bitopology", "modular_family", "orlicz",
                                  "orlicz_atoms", "phi_breakpoints", "map", "sequence"])
def test_over_cap_files_exit_2_promptly(tmp_path, capsys, kind):
    from qconn.instances import (MAX_ORLICZ_ATOMS, MAX_PHI_BREAKPOINTS, MAX_POINTS,
                                 MAX_SEQUENCE_LENGTH)
    name, cap = {"orlicz_atoms": ("MAX_ORLICZ_ATOMS", MAX_ORLICZ_ATOMS),
                 "phi_breakpoints": ("MAX_PHI_BREAKPOINTS", MAX_PHI_BREAKPOINTS),
                 "sequence": ("MAX_SEQUENCE_LENGTH", MAX_SEQUENCE_LENGTH)}.get(
        kind, (f"MAX_POINTS[{kind!r}]", MAX_POINTS.get(kind)))
    path = tmp_path / "big.json"
    path.write_text(json.dumps(_sized(kind, cap + 1)))
    for command in ("validate", "analyze"):
        start = time.perf_counter()
        code, out, err = run(capsys, command, str(path))
        assert time.perf_counter() - start < 2
        assert code == 2 and out == ""
        message = json.loads(err)["error"]["message"]
        assert message.endswith(f"{cap + 1} entries exceed the limit {name} = {cap}")
    if kind in ("map", "sequence", "asym_norm_sample", "orlicz", "orlicz_atoms",
                "phi_breakpoints"):
        path.write_text(json.dumps(_sized(kind, cap)))  # at the cap: accepted
        assert run(capsys, "validate", str(path))[0] == 0


KINKED = {"kind": "orlicz", "atoms": [["w0", "1"], ["w1", "1"]],
          "phi": [{"pos_breakpoints": ["1"], "pos_slopes": ["1", "3"]}] * 2,
          "functions": [["0", "0"], ["2", "-1"], ["1", "1"]],
          "scaling": {"kind": "homogeneous"}}


def test_kinked_orlicz_file_is_analyzed_exactly(tmp_path, capsys):
    from fractions import Fraction

    from qconn.instances import load_instance
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
