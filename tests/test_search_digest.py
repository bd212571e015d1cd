"""The search digest: one line per target, as the output pins read it."""

import pathlib
import subprocess
import sys

from qconn.search import TARGETS
from test_search import SEARCH_DIGESTS

ROOT = pathlib.Path(__file__).resolve().parent.parent
TOOL = ROOT / "tools" / "search_digest.py"


def _run(*args):
    return subprocess.run([sys.executable, str(TOOL), *args], capture_output=True, text=True)


def test_one_line_per_target_matching_the_pins():
    done = _run("random", "12", "7", "300")
    assert done.returncode == 0, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert len(lines) == 9
    assert [target for target, _ in lines] == list(TARGETS)
    assert dict(lines) == SEARCH_DIGESTS[("random", 12, 7, 300)]
    assert _run("random", "12", "7", "300").stdout == done.stdout


def test_a_budget_of_none_runs_the_exhaustive_stream_whole():
    done = _run("exhaustive", "3", "20240801", "none")
    assert done.returncode == 0, done.stderr
    assert dict(line.split() for line in done.stdout.splitlines()) == SEARCH_DIGESTS[
        ("exhaustive", 3, None, None)]


def test_usage():
    for args in ((), ("random", "12", "7"), ("random", "twelve", "7", "60"),
                 ("random", "12", "7", "lots"), ("sideways", "12", "7", "60"),
                 ("random", "12", "7", "none"), ("exhaustive", "9", "7", "60"),
                 ("random", "12", "7", "-1")):
        done = _run(*args)
        assert done.returncode == 2, args
        assert done.stdout == "" and done.stderr.startswith("usage:"), args


def test_a_raising_target_prints_its_error_type_and_the_rest_still_run():
    done = _run("random", "40", "911", "60")
    assert done.returncode == 1, done.stderr
    lines = [line.split() for line in done.stdout.splitlines()]
    assert [target for target, _ in lines] == list(TARGETS)
    errors = {target: line for target, line in lines if len(line) != 64}
    assert errors == {"antisym_oracle": "CarrierTooLarge",
                      "prop53_equivalence": "CarrierTooLarge"}
