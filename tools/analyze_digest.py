"""Digest of ``qconn analyze`` over the benchmark's analyze corpus.

    python3 tools/analyze_digest.py SEED [SEED ...]

For each seed, ``bench/inputs.py`` makes the seeded corpus of the
``analyze`` workload with the parameters of ``bench/spec.json`` (100
files a seed).  Every file is written to a temporary directory and run
through ``qconn.cli.main(["analyze", file, *flags])`` in-process, with the
workload's flags and without ``--out``.  One line per file: the seed, the
file name, the exit code, and the sha256 of what the command wrote to
stdout (the report) and to stderr.  Run it at two commits and compare
the two outputs to check that a change keeps every report, error and exit
code byte for byte.  qconn is imported from this checkout's ``src/``;
nothing under ``bench/`` is written.  Stdlib only.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import pathlib
import sys
import tempfile

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/

import inputs  # noqa: E402
from qconn.cli import main as cli_main  # noqa: E402


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


def digest_lines(seeds: list[int]):
    """One line per corpus file of each seed, in corpus order."""
    spec = json.loads((ROOT / "bench" / "spec.json").read_text(encoding="utf-8"))
    spec = spec["workloads"]["analyze"]
    here = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)  # messages that name the file name it the same way at every run
        try:
            for seed in seeds:
                for rnd in inputs.analyze_corpus(seed, spec):
                    for f in rnd:
                        name = f"{f['name']}.json"
                        with open(name, "w", encoding="utf-8") as fh:
                            json.dump(f["doc"], fh, indent=2, sort_keys=True)
                        out, err = io.StringIO(), io.StringIO()
                        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
                            code = cli_main(["analyze", name, *f["flags"]])
                        yield (f"{seed} {f['name']} {code} {_sha(out.getvalue())} "
                               f"{_sha(err.getvalue())}")
        finally:
            os.chdir(here)


def main(argv: list[str]) -> int:
    if not argv or not all(a.isdigit() for a in argv):
        print("usage: analyze_digest.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for line in digest_lines([int(a) for a in argv]):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
