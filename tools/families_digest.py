"""Digest of the modular layer over the benchmark's families inputs.

    python3 tools/families_digest.py SEED [SEED ...]

For each seed, ``bench/workloads.py`` builds the seeded quasi-modular
families of the ``families`` workload from ``bench/inputs.py`` with the
parameters of ``bench/spec.json`` (224 families a seed), under the keys
the workload gives them.  One line per family: the seed, the key, and the
sha256 of ``canonical_json`` of its results, namely ``str`` of
``validate_family`` on the spec's grid, the Luxemburg distances as
strings, the ``modular_bitop`` neighbourhoods of the family and of
``symmetrize_family`` of it, the sorted ``entourages`` and every point's
``modular_balls`` at the spec's (r, lambda) pairs.  Run it at two commits
and compare the two outputs to check that a change keeps every one of
these results.  qconn is imported from this checkout's ``src/``; nothing
under ``bench/`` is written.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
sys.dont_write_bytecode = True  # leave no __pycache__ under bench/

import workloads  # noqa: E402
from qconn.bitopology import modular_bitop  # noqa: E402
from qconn.instances import canonical_json  # noqa: E402
from qconn.modular import (  # noqa: E402
    entourages,
    luxemburg_gauge,
    modular_balls,
    symmetrize_family,
    validate_family,
)


def results(f, grid, pairs) -> dict:
    """Every result the digest covers, for one family."""
    n = f.n
    lux = luxemburg_gauge(f)
    bitops = [modular_bitop(g) for g in (f, symmetrize_family(f))]
    return {
        "valid": str(validate_family(f, grid)),
        "luxemburg": [[str(lux.d(i, j)) for j in range(n)] for i in range(n)],
        "bitop": [[list(b.forward.nbhd), list(b.backward.nbhd)] for b in bitops],
        "entourages": [[sorted(rel) for rel in entourages(f, r, lam)] for r, lam in pairs],
        "balls": [[[sorted(ball) for ball in modular_balls(f, x, lam, r)] for x in range(n)]
                  for r, lam in pairs],
    }


def digest_lines(seeds: list[int]):
    """One line per family of each seed, in round order."""
    spec = json.loads((ROOT / "bench" / "spec.json").read_text(encoding="utf-8"))
    work = workloads.make("families", spec)
    for seed in seeds:
        for rnd in work.rounds(seed, ""):
            for job in rnd:
                doc = canonical_json(results(job["family"], work.grid, work.pairs))
                yield f"{seed} {job['key']} {hashlib.sha256(doc.encode()).hexdigest()}"


def main(argv: list[str]) -> int:
    if not argv or not all(a.isdigit() for a in argv):
        print("usage: families_digest.py SEED [SEED ...]", file=sys.stderr)
        return 2
    for line in digest_lines([int(a) for a in argv]):
        print(line)
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
