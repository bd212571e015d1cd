"""Digest of the counterexample search, one line per target.

    python3 tools/search_digest.py MODE N SEED BUDGET

Runs ``qconn.search.search_counterexamples(target, n=N, mode=MODE,
seed=SEED, budget=BUDGET)`` in-process for every target, in registry
order, and prints the target and the sha256 of
``canonical_json(findings_document())``, the document ``qconn search``
writes.  A BUDGET of ``none`` runs an exhaustive stream whole; random
mode needs a number.  Run it at two commits and compare the two outputs
to check that a change keeps every stream, check and finding byte for
byte.  qconn is imported from this checkout's ``src/``.  Bad usage, or
arguments the search refuses, exit 2.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qconn.instances import canonical_json  # noqa: E402
from qconn.search import TARGETS, search_counterexamples  # noqa: E402

USAGE = "usage: search_digest.py MODE N SEED BUDGET  (BUDGET an integer or none)"


def digest_lines(mode: str, n: int, seed: int, budget: int | None):
    """One line per target: its id and the sha256 of its findings file."""
    for target in TARGETS:
        doc = search_counterexamples(target, n=n, mode=mode, seed=seed,
                                     budget=budget).findings_document()
        yield f"{target} {hashlib.sha256(canonical_json(doc).encode()).hexdigest()}"


def main(argv: list[str]) -> int:
    try:
        mode, n, seed, budget = argv
        n, seed = int(n), int(seed)
        budget = None if budget == "none" else int(budget)
        lines = list(digest_lines(mode, n, seed, budget))
    except ValueError as exc:
        print(f"{USAGE}\n{exc}", file=sys.stderr)
        return 2
    print("\n".join(lines))
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
