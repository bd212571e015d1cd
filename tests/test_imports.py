"""The package's lazy exports, the modules each import and command
loads, and the statements its source may not hold."""

import ast
import json
import os
import pathlib
import re
import subprocess
import sys
import types

import pytest

import qconn

ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
DATA = ROOT / "tests" / "data"
DEMOS = ROOT / "demos" / "instances"


def _fresh(code: str):
    """The JSON that ``code`` prints, run in a fresh interpreter."""
    env = {**os.environ, "PYTHONPATH": str(SRC)}
    done = subprocess.run([sys.executable, "-c", "import json, sys\n" + code],
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout)


LOADED = "sorted(m for m in sys.modules if m.split('.')[0] == 'qconn')"


def test_bare_import_loads_no_module():
    got = _fresh(f"""
import qconn
before = {LOADED}
targets = list(qconn.search.TARGETS)
try:
    qconn.no_such_name
    unknown = None
except AttributeError as exc:
    unknown = str(exc)
print(json.dumps({{"before": before, "targets": targets, "dir": dir(qconn),
                  "all": qconn.__all__, "unknown": unknown}}))
""")
    assert got["before"] == ["qconn"]
    assert got["targets"] == list(qconn.search.TARGETS)
    assert set(got["all"]) <= set(got["dir"])
    assert got["unknown"] == "module 'qconn' has no attribute 'no_such_name'"


def test_search_loads_only_the_relation_kernel():
    got = _fresh(f"import qconn.search\nprint(json.dumps({LOADED}))")
    assert got == ["qconn", "qconn.errors", "qconn.relations", "qconn.search"]


def test_every_export_is_its_module_definition():
    assert len(qconn.__all__) == len(set(qconn.__all__)) == 58
    for name in qconn.__all__:
        value = getattr(qconn, name)
        owner = sys.modules[f"qconn.{qconn._OWNER[name]}"]
        assert value is getattr(owner, name)
        # a constant's __module__, where it has one, is its class's: ZERO is a Fraction
        if isinstance(value, (type, types.FunctionType)):
            assert value.__module__ == owner.__name__
    assert not any(isinstance(getattr(qconn, n), types.ModuleType) for n in qconn.__all__)


def test_package_holds_no_assert_statement():
    # python -O strips asserts, and parse_instance turns no AssertionError
    # into a SchemaError, so every check must raise by itself
    found = [f"{path.name}:{node.lineno}" for path in sorted((SRC / "qconn").glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, ast.Assert)]
    assert found == []


def test_star_import_binds_exactly_all():
    ns = {}
    exec("from qconn import *", ns)
    del ns["__builtins__"]
    assert sorted(ns) == qconn.__all__
    assert not any(isinstance(v, types.ModuleType) for v in ns.values())


def test_submodules_stay_reachable():
    from qconn import bitopology, search

    assert qconn.bitopology is bitopology and qconn.search is search
    assert qconn.relations.indices_of(0b1011) == [0, 1, 3]


# what ``analyze`` and ``validate`` run on quasi_metric, digraph,
# bitopology, asym_norm_sample and sequence files
CLI_EAGER = ["qconn", "qconn.bitopology", "qconn.cli", "qconn.completion",
             "qconn.connectivity", "qconn.errors", "qconn.gauges",
             "qconn.instances", "qconn.numbers", "qconn.relations"]

RUN_MAIN = """
import contextlib, io
from qconn.cli import main

def run(argv, outputs):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    files = {}
    for path in outputs:
        with open(path, encoding="utf-8") as fh:
            files[path] = fh.read()
        os.remove(path)
    return [code, out.getvalue(), err.getvalue(), files]
"""


def _cli_loads(*argv) -> list[str]:
    """The package modules a fresh interpreter holds after one
    ``qconn.cli.main(argv)`` call that exits 0."""
    got = _fresh(f"""import os
{RUN_MAIN}
code = run({[str(a) for a in argv]!r}, [])[0]
print(json.dumps({{"code": code, "loaded": {LOADED}}}))
""")
    assert got["code"] == 0
    return got["loaded"]


def test_cli_import_loads_only_what_analyze_runs():
    assert _fresh(f"import qconn.cli\nprint(json.dumps({LOADED}))") == CLI_EAGER


@pytest.mark.parametrize("argv", [
    ("analyze", DATA / "chain_digraph.json", "--components", "--local", "--scale",
     "1", "--smyth", "--formal-balls", "0,1,2"),
    ("analyze", DATA / "asym_pair.json", "--cauchy", DATA / "constant_seq.json"),
    ("analyze", DEMOS / "norm_samples.json", "--scale", "1", "--smyth"),
    ("analyze", DATA / "indiscrete_split.json", "--local"),
    ("validate", DATA / "constant_seq.json"),
], ids=["digraph", "quasi_metric", "asym_norm_sample", "bitopology", "sequence"])
def test_analysis_loads_nothing_beyond_the_cli(argv):
    assert _cli_loads(*argv) == CLI_EAGER


@pytest.mark.parametrize("argv", [
    ("analyze", DATA / "chain_digraph.json", "--dot", "{tmp}/c.dot"),
    ("analyze", DATA / "chain_digraph.json", "--formal-balls", "0,1", "--dot",
     "{tmp}/b.dot"),
], ids=["components", "formal-balls"])
def test_dot_output_adds_only_dot(tmp_path, argv):
    argv = [str(a).format(tmp=tmp_path) for a in argv]
    assert _cli_loads(*argv) == sorted([*CLI_EAGER, "qconn.dot"])


@pytest.mark.parametrize("command", ["validate", "analyze"])
@pytest.mark.parametrize("path", [DEMOS / "step_family.json", DATA / "orlicz_pair.json"],
                         ids=["modular_family", "orlicz"])
def test_gauge_family_files_add_only_modular(command, path):
    assert _cli_loads(command, path) == sorted([*CLI_EAGER, "qconn.modular"])


def test_map_files_add_only_morphisms():
    assert (_cli_loads("validate", DEMOS / "squeeze_map.json")
            == sorted([*CLI_EAGER, "qconn.morphisms"]))


def test_search_adds_only_search():
    assert (_cli_loads("search", "--target", "prop54_inclusion", "--n", "3",
                       "--budget", "5")
            == sorted([*CLI_EAGER, "qconn.search"]))


def test_reused_parser_gives_each_call_its_fresh_result(tmp_path):
    """One process parses every call with the same parser; each call's exit
    code, stdout, stderr and files must equal its run in a fresh process,
    so no flag of one call reaches the next."""
    digraph, out, dot = str(DATA / "chain_digraph.json"), f"{tmp_path}/a.json", f"{tmp_path}/a.dot"
    balls = f"{tmp_path}/b.dot"
    calls = [
        (["analyze", digraph, "--components", "--local", "--scale", "1", "--smyth",
          "--thresholds", "1,2", "--formal-balls", "0,1", "--cauchy",
          str(DATA / "constant_seq.json"), "--dot", dot, "--out", out], [out, dot]),
        (["analyze", digraph], []),
        (["validate", str(DEMOS / "step_family.json")], []),
        (["search", "--target", "prop54_inclusion", "--n", "3", "--budget", "20"], []),
        (["analyze", digraph, "--scale"], []),
        (["analyze", digraph, "--formal-balls", "0,1", "--dot", balls], [balls]),
    ]
    code = f"import os\n{RUN_MAIN}\nprint(json.dumps([run(*call) for call in CALLS]))"
    in_sequence = _fresh(f"CALLS = {calls!r}\n{code}")
    alone = [_fresh(f"CALLS = {[call]!r}\n{code}")[0] for call in calls]

    def stable(result):  # the search's wall time is the one varying byte
        code, out, err, files = result
        return [code, out, re.sub(r"[0-9.]+s wall", "s wall", err), files]

    assert [stable(r) for r in in_sequence] == [stable(r) for r in alone]
    assert [r[0] for r in in_sequence] == [0, 0, 0, 0, 2, 0]
    assert all(in_sequence[0][3].values())
