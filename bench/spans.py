"""In-memory spans recorded by the benchmark around its calls into qconn.

A span has a name, start, end, parent span and job id.  Spans stay in
memory and are written out once, when the run ends.  Calls made once per
search case are too many to keep one by one, so they are summed into
``totals`` (time and call count per name) instead.
"""

from __future__ import annotations

import json
import time
from collections import defaultdict
from contextlib import contextmanager


class Tracer:
    def __init__(self):
        self.spans: list[dict] = []
        self.totals: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, job: int):
        sid = len(self.spans)
        rec = {"id": sid, "name": name, "job": job,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()

    def add(self, name: str, seconds: float) -> None:
        self.totals[name] += seconds
        self.calls[name] += 1

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    def by_name(self) -> dict[str, dict]:
        """Inclusive and self time per span name, plus the summed
        per-case totals.  Self time is a span's duration minus the time
        its child spans cover (children are sequential, never overlap)."""
        child_time: dict[int, float] = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child_time[s["parent"]] += s["end"] - s["start"]
        out: dict[str, dict] = defaultdict(lambda: {"calls": 0, "total_s": 0.0,
                                                    "self_s": 0.0})
        for s in self.spans:
            d = s["end"] - s["start"]
            row = out[s["name"]]
            row["calls"] += 1
            row["total_s"] += d
            row["self_s"] += d - child_time[s["id"]]
        for name, secs in self.totals.items():
            row = out[name]
            row["calls"] += self.calls[name]
            row["total_s"] += secs
            row["self_s"] += secs
        return dict(out)

    def write(self, path, extra: dict) -> None:
        doc = dict(extra, spans=self.spans, summary=self.by_name(),
                   counts=dict(self.counts))
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
