"""Digest of the counterexample search, one line per target.

    python3 tools/search_digest.py MODE N SEED BUDGET

Runs ``qconn.search.search_counterexamples(target, n=N, mode=MODE,
seed=SEED, budget=BUDGET)`` in-process for every target, in registry
order, and prints each target's line as soon as it is made: the target
and the sha256 of ``canonical_json(findings_document())``, the document
``qconn search`` writes.  A target whose search raises a ``QconnError``
(an oracle target drawing a carrier past the open-set cap, say) prints
the error's type in place of the digest, the other targets still run,
and the exit status is 1.  A BUDGET of ``none`` runs an exhaustive
stream whole; random mode needs a number.  Run it at two commits and
compare the two outputs to check that a change keeps every stream,
check and finding byte for byte.  qconn is imported from this
checkout's ``src/``.  Bad usage, or arguments the search refuses (at
the first target, before any line is printed), exit 2 with nothing on
stdout.  Stdlib only.
"""

from __future__ import annotations

import hashlib
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from qconn.errors import QconnError  # noqa: E402
from qconn.instances import canonical_json  # noqa: E402
from qconn.search import TARGETS, search_counterexamples  # noqa: E402

USAGE = "usage: search_digest.py MODE N SEED BUDGET  (BUDGET an integer or none)"


def digest(target: str, mode: str, n: int, seed: int, budget: int | None) -> str:
    """The sha256 of ``target``'s findings file."""
    doc = search_counterexamples(target, n=n, mode=mode, seed=seed,
                                 budget=budget).findings_document()
    return hashlib.sha256(canonical_json(doc).encode()).hexdigest()


def main(argv: list[str]) -> int:
    status = 0
    try:
        mode, n, seed, budget = argv
        n, seed = int(n), int(seed)
        budget = None if budget == "none" else int(budget)
        for target in TARGETS:
            try:
                line = digest(target, mode, n, seed, budget)
            except QconnError as exc:
                line, status = type(exc).__name__, 1
            print(target, line, flush=True)
    except ValueError as exc:
        print(f"{USAGE}\n{exc}", file=sys.stderr)
        return 2
    return status


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
