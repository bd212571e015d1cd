"""Every demo runs to completion and prints its pinned bytes."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
DEMOS = sorted((ROOT / "demos").glob("*.py"))
# sha256 of each demo's stdout, taken before gauges stored their form;
# demo 04's since its completion reports print only their witnesses
STDOUT_SHA256 = {
    "01_asymmetric_distances": "dba80e8a562dd32dc2be36811425e6bc3ce582b5b814fa5414964e2c78203aa3",
    "02_bitopologies_and_connectivity":
        "935fc9888d1e59a4c711e76139e3d434b2b67c9c5950ef784657b266cb0792d8",
    "03_modular_gauge_families": "335d18134cbf2f30b16a8bcdcfa65a1301ac6548a738f1bed3b62fa161dc1895",
    "04_completion_and_formal_balls":
        "5a1bb8154eeef4bad637feede787e4b50ada545c01ff2da0a5abf9de6f1cba01",
    "05_counterexample_search": "7190459f008d1c10bfabc494b3a80db149c9e0a60ea02af6d36b95b6b1d8cfed",
}


def _run(demo: pathlib.Path) -> str:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(ROOT / "src"), *filter(None, [os.environ.get("PYTHONPATH")])]))
    done = subprocess.run([sys.executable, str(demo)], cwd=ROOT, env=env,
                          capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    return done.stdout


def test_every_demo_is_found():
    assert len(DEMOS) == 5 and sorted(STDOUT_SHA256) == [p.stem for p in DEMOS]


@pytest.mark.parametrize("demo", DEMOS, ids=lambda p: p.stem)
def test_demo_runs_deterministically(demo):
    out = _run(demo)
    assert hashlib.sha256(out.encode()).hexdigest() == STDOUT_SHA256[demo.stem], out
