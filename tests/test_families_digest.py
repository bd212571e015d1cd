"""The families digest: one line per bench families input."""

import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "families_digest.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_one_line_per_family_with_distinct_keys_and_the_same_output_twice():
    done = _run("1")
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert len(lines) == 224
    assert {seed for seed, _, _ in lines} == {"1"}
    assert len({key for _, key, _ in lines}) == 224
    assert all(len(sha) == 64 and set(sha) <= set("0123456789abcdef") for _, _, sha in lines)
    assert _run("1").stdout == done.stdout


def test_usage():
    for args in ((), ("one",), ("1", "-2"), ("1.5",)):
        done = _run(*args)
        assert done.returncode == 2, args
        assert done.stdout == "" and done.stderr.startswith("usage:"), args
