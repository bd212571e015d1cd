"""Byte identity of `qconn analyze` on every shipped instance file.

``tests/data/golden/<stem>.json`` pins, for each instance file under
``demos/instances/`` and ``tests/data/``, the exit code, stdout, stderr
and DOT text of one analyze run per flag set the file's kind accepts
(files that analyze rejects pin their error).  Regenerate only when a
report is meant to change:

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import os
import pathlib
import sys
import tempfile

import pytest

from gen import reference_json
from qconn.cli import main

ROOT = pathlib.Path(__file__).resolve().parent.parent
GOLDEN = ROOT / "tests" / "data" / "golden"
FILES = sorted([*(ROOT / "demos" / "instances").glob("*.json"),
                *(ROOT / "tests" / "data").glob("*.json")])
SEQ = "demos/instances/tail_sequence.json"
DOT = "DOT"  # replaced by a temporary path; the file's text is pinned

METRIC_FLAGS = [
    [],
    ["--components", "--local", "--scale", "1", "--smyth",
     "--formal-balls", "0,1/2,1,2", "--cauchy", SEQ, "--dot", DOT],
    ["--smyth", "--thresholds", "1/3,1,5/2", "--scale", "1/2", "--dot", DOT],
]
BITOP_FLAGS = [[], ["--components", "--local", "--dot", DOT]]
FLAGS = {"quasi_metric": METRIC_FLAGS, "digraph": METRIC_FLAGS,
         "asym_norm_sample": METRIC_FLAGS, "bitopology": BITOP_FLAGS,
         "modular_family": BITOP_FLAGS, "orlicz": BITOP_FLAGS}


def _run(path: pathlib.Path, flags: list[str]) -> dict:
    rel = str(path.relative_to(ROOT))
    with tempfile.TemporaryDirectory() as tmp:
        dot_path = pathlib.Path(tmp) / "out.dot"
        argv = ["analyze", rel] + [str(dot_path) if f == DOT else f for f in flags]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
        dot = dot_path.read_text(encoding="utf-8") if dot_path.exists() else None
    return {"args": ["analyze", rel, *flags], "code": code,
            "stdout": out.getvalue(), "stderr": err.getvalue(), "dot": dot}


def _cases(path: pathlib.Path) -> list[dict]:
    kind = json.loads(path.read_text(encoding="utf-8"))["kind"]
    here = os.getcwd()
    os.chdir(ROOT)
    try:
        return [_run(path, flags) for flags in FLAGS.get(kind, [[]])]
    finally:
        os.chdir(here)


def test_all_instance_files_pinned():
    assert len(FILES) == 15
    assert sorted(p.name for p in GOLDEN.glob("*.json")) == sorted(p.name for p in FILES)


@pytest.mark.parametrize("path", FILES, ids=lambda p: p.stem)
def test_analyze_matches_golden(path):
    pinned = json.loads((GOLDEN / path.name).read_text(encoding="utf-8"))
    assert _cases(path) == pinned
    for case in pinned:  # every report and diagnostic, also through the json oracle
        for text in (case["stdout"], case["stderr"]):
            if text.startswith("{"):
                assert reference_json(json.loads(text)) == text


if __name__ == "__main__":
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for p in FILES:
        (GOLDEN / p.name).write_text(
            json.dumps(_cases(p), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {GOLDEN / p.name}", file=sys.stderr)
