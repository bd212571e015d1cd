"""The analyze digest over one seed of the benchmark corpus."""

import hashlib
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "analyze_digest.py"
EMPTY = hashlib.sha256(b"").hexdigest()


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_one_line_per_corpus_file():
    done = _run("1")
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert len(lines) == 100
    assert len({name for _, name, *_ in lines}) == 100
    for seed, name, code, out, err in lines:
        assert (seed, code, err) == ("1", "0", EMPTY), name
        assert len(out) == 64 and out != EMPTY
    assert {name.split("_")[1] for _, name, *_ in lines} == {
        "digraph", "quasi", "bitopology", "asym"}
    assert _run("1").stdout == done.stdout


def test_usage():
    assert _run().returncode == 2
    assert _run("one").returncode == 2
