"""Self-tests of the benchmark.

    PYTHONPATH=src python3 -m pytest -q bench/test_bench.py

Every checker must flag a planted wrong answer, the generators must be
byte-stable, the pinned search counts must follow from an independent
enumeration, and a short run of every workload must pass.
"""

from __future__ import annotations

import itertools
import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import networkx as nx
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import inputs  # noqa: E402
import oracles  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((HERE / "spec.json").read_text())
WORKLOADS = list(SPEC["workloads"])


@pytest.mark.parametrize("name", WORKLOADS)
def test_inputs_are_byte_identical_for_a_seed(name):
    spec = SPEC["workloads"][name]
    first = inputs.corpus_bytes(name, 7, spec)
    assert first == inputs.corpus_bytes(name, 7, spec)
    assert first != inputs.corpus_bytes(name, 8, spec)


def _analyzed(tmp_path, pick):
    """First generated analyze file accepted by ``pick``, with its report."""
    wl = workloads.make("analyze", SPEC)
    for rnd in wl.rounds(3, str(tmp_path)):
        for job in rnd:
            metric = oracles.file_metric(job["truth"])
            if pick(job, metric):
                assert wl.run(job) == 0
                kept = wl.keep(job, 0)
                return wl, job, json.loads(kept["data"]), metric
    raise AssertionError("no generated file fits")


def test_analyze_checker_flags_planted_errors(tmp_path):
    def splittable(job, metric):
        if job["truth"]["kind"] != "digraph" or job["truth"]["n"] != 12:
            return False
        fwd, bwd = oracles.file_bitop(job["truth"], metric)
        comps = oracles.blocks(nx.strongly_connected_components(
            oracles.combined_graph(12, fwd, bwd)))
        return any(len(c) > 1 for c in comps) and len(comps) > 1

    wl, job, report, metric = _analyzed(tmp_path, splittable)
    brute = workloads._brute_force
    assert oracles.check_analyze(job, report, metric, brute) == []

    split = json.loads(json.dumps(report))
    comps = split["analyses"]["components"]["antisymmetric"]
    big = next(i for i, c in enumerate(comps) if len(c) > 1)
    comps[big:big + 1] = [comps[big][:1], comps[big][1:]]
    assert "antisymmetric partition differs from networkx SCCs" in \
        oracles.check_analyze(job, split, metric, brute)

    flipped = json.loads(json.dumps(report))
    comp = flipped["analyses"]["components"]
    comp["antisym_connected"] = not comp["antisym_connected"]
    assert oracles.check_analyze(job, flipped, metric, brute)

    hasse = json.loads(json.dumps(report))
    hasse["analyses"]["formal_balls"]["hasse_edges"].pop()
    assert "formal-ball Hasse edges differ" in oracles.check_analyze(job, hasse, metric)

    scale = json.loads(json.dumps(report))
    scale["analyses"]["scale"]["symmetric"] = [list(range(12))]
    assert "scale partitions differ" in oracles.check_analyze(job, scale, metric)

    matrix = wl.closure_matrix(job)
    assert oracles.check_closure(job["truth"], matrix) == []
    i, j = next((i, j) for i in range(12) for j in range(12)
                if i != j and matrix[i][j] != "inf")
    matrix[i][j] = str(Fraction(matrix[i][j]) + Fraction(1, 2))
    assert oracles.check_closure(job["truth"], matrix)


def test_analyze_checker_covers_float_mode(tmp_path):
    wl, job, report, metric = _analyzed(
        tmp_path, lambda job, m: job["truth"].get("p") == 2)
    assert oracles.check_analyze(job, report, metric) == []
    report["numeric_tolerance"] = None
    assert oracles.check_analyze(job, report, metric)


def test_search_checker_flags_planted_errors():
    wl = workloads.make("search-random", SPEC)
    rnd = wl.rounds(5, "")[0]
    records = [(job, wl.keep(job, wl.run(job))) for job in rnd]
    assert wl.check(records) == []
    cor61 = next(i for i, (job, _) in enumerate(records)
                 if job["target"] == "cor61_join_local")
    job, kept = records[cor61]
    assert kept["findings"] > 0
    for planted in ({"findings": kept["findings"] - 1}, {"tested": kept["tested"] + 1},
                    {"digest": "0" * 64}):
        bad = list(records)
        bad[cor61] = (job, dict(kept, **planted))
        assert [key for key, _ in wl.check(bad)] == [job["key"]]


def test_family_checker_flags_planted_errors():
    wl = workloads.make("families", SPEC)
    job = next(f for f in wl.rounds(4, "")[0] if f["n"] >= 6)
    kept = wl.keep(job, wl.run(job))
    assert wl.check([(job, kept)]) == []
    lux = [row[:] for row in kept["luxemburg"]]
    lux[0][1] = "inf" if lux[0][1] != "inf" else "0"
    ent = [list(e) for e in kept["entourages"]]
    ent[2] = ent[2][1:]
    for planted in ({"luxemburg": lux}, {"entourages": ent},
                    {"sym_forward": [0] * job["n"]}, {"valid": False}):
        assert wl.check([(job, dict(kept, **planted))])


def _preorders(n):
    """Labelled preorders in the search's order: off-diagonal bit
    patterns ascending, pairs (i, j) row-major."""
    offdiag = [(i, j) for i in range(n) for j in range(n) if i != j]
    for bits in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for pos, (i, j) in enumerate(offdiag):
            if bits >> pos & 1:
                rows[i] |= 1 << j
        if inputs.reach_rows(rows) == rows:
            yield rows


def test_pinned_exhaustive_counts_follow_from_an_independent_enumeration():
    spec = SPEC["workloads"]["search-exhaustive"]
    regression = [([7, 7, 7], [3, 3, 4]), ([3, 2, 7], [1, 2, 6])]
    tables = [list(_preorders(n)) for n in range(1, spec["n"] + 1)]
    assert [len(t) for t in tables] == [1, 4, 29, 355]
    assert sum(len(t) for t in tables) == spec["caps"]["thm54_coincidence"]
    stream = itertools.chain(regression, *(itertools.product(t, t) for t in tables))
    cap = spec["caps"]["cor61_join_local"]
    count = sum(oracles.inseparable_but_join_split(f, b)
                for f, b in itertools.islice(stream, cap))
    assert count == spec["cor61_findings"]


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("name", WORKLOADS)
def test_short_run_passes(name, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", "2",
         "--seconds", "1", "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=HERE.parent)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    kind = "per_layer" if trace else "end_to_end"
    bench = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert list(result["metrics"]) == [m["name"] for m in bench[kind]]
