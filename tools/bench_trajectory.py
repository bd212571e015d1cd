"""Print the benchmark trajectory: one row per ``BENCH_<pr>.json``.

    python3 tools/bench_trajectory.py [directory]

The directory defaults to the repository root.  Each BENCH file records
one change measured against its parent commit with ``bench/run.py``:
per workload, the parent's and the change's median and quartiles of
every end-to-end metric over alternating parent/change pairs, the
``src/`` line counts of both sides and the parent commit.  A row gives
its ``pr`` field, the parent commit, the ``src/`` lines, ``seam`` when
its parent's line count differs from the previous file's change-side
count (so the two files do not measure one chain of commits, and the
step between them is not a code change of either), the claim (the
claimed metric on its workload with its medians, parent -> change, or
``claim -`` for a change that claims no gain), the tier-1 test suite's
wall time and pass count, parent -> change, from the optional ``tier1``
field (``tier1 -`` without it) and, per workload, the
``jobs_per_s``, ``peak_rss_mb`` and ``setup_s`` medians, parent ->
change.  Memory sits next to throughput because a faster change that
keeps more results alive can gain jobs per second and still fail the
memory bound; set-up time sits there because work moved into or out of
set-up changes it and not the per-job numbers.  Stdlib only.
"""

from __future__ import annotations

import json
import pathlib
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
STATS = ("q1", "median", "q3")


def load(path: pathlib.Path) -> dict:
    """One BENCH file, with its required fields checked."""
    doc = json.loads(path.read_text(encoding="utf-8"))
    for key in ("pr", "parent_commit", "src_lines", "workloads"):
        if key not in doc:
            raise ValueError(f"missing {key!r}")
    for side in SIDES if "tier1" in doc else ():
        if sorted(doc["tier1"][side]) != ["passed", "seconds"]:
            raise ValueError(f"tier1 {side} needs exactly passed, seconds")
    for name, wl in doc["workloads"].items():
        for metric, sides in wl["metrics"].items():
            for side in SIDES:
                if sorted(sides[side]) != sorted(STATS):
                    raise ValueError(f"{name} {metric} {side} needs exactly "
                                     f"{', '.join(STATS)}")
    return doc


def row(doc: dict, previous: dict | None = None) -> str:
    lines = doc["src_lines"]
    cells = [f"{doc['pr']:>3}", doc["parent_commit"][:7],
             f"src {lines['parent']}->{lines['change']}"]
    if previous is not None and previous["src_lines"]["change"] != lines["parent"]:
        cells.append("seam")
    cells += [_claim(doc), _tier1(doc)]
    for name in sorted(doc["workloads"]):
        metrics = doc["workloads"][name]["metrics"]
        cells.append(f"{name} {_medians(metrics['jobs_per_s'])} "
                     f"rss {_medians(metrics['peak_rss_mb'])} "
                     f"setup {_medians(metrics['setup_s'])}")
    return "  ".join(cells)


def _claim(doc: dict) -> str:
    claim = doc.get("claim")
    if not claim:
        return "claim -"
    sides = doc["workloads"][claim["workload"]]["metrics"][claim["metric"]]
    return f"claim {claim['metric']} on {claim['workload']} {_medians(sides)}"


def _tier1(doc: dict) -> str:
    if "tier1" not in doc:
        return "tier1 -"
    return "tier1 " + "->".join(f"{doc['tier1'][side]['seconds']:.1f}s/"
                                 f"{doc['tier1'][side]['passed']}" for side in SIDES)


def _medians(sides: dict) -> str:
    return f"{sides['parent']['median']:.4g}->{sides['change']['median']:.4g}"


def main(argv: list[str]) -> int:
    directory = pathlib.Path(argv[0]) if argv else ROOT
    paths = sorted(directory.glob("BENCH_*.json"),
                   key=lambda p: int(p.stem.split("_", 1)[1]))
    print(" pr  parent   src lines [seam]  claimed metric on workload, tier-1 "
          "seconds/passed, then per workload: jobs_per_s median, rss "
          "peak_rss_mb median (MB), setup setup_s median (s), parent->change")
    previous = None
    for path in paths:
        try:
            doc = load(path)
            print(row(doc, previous))
        except (KeyError, ValueError) as exc:
            print(f"bench_trajectory: {path.name}: {exc}", file=sys.stderr)
            return 2
        previous = doc
    return 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
