"""The package's lazy exports and the modules each import loads."""

import json
import os
import pathlib
import subprocess
import sys
import types

import qconn

SRC = pathlib.Path(__file__).resolve().parent.parent / "src"


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
    assert len(qconn.__all__) == len(set(qconn.__all__)) == 64
    for name in qconn.__all__:
        value = getattr(qconn, name)
        owner = sys.modules[f"qconn.{qconn._OWNER[name]}"]
        assert value is getattr(owner, name)
        assert getattr(value, "__module__", owner.__name__) == owner.__name__
    assert not any(isinstance(getattr(qconn, n), types.ModuleType) for n in qconn.__all__)


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
