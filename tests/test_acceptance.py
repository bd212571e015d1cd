"""Acceptance suite: one test per criterion, each printing a pass/fail
line with its elapsed time and asserting the stated limit.

Run with ``pytest tests/test_acceptance.py -v -s``.
"""

import json
import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from gen import rng_bitop, rng_family, rng_qpm, rng_digraph, rng_vectors
from test_gauges import one_sided_lp
from qconn import (
    AsymNormSample,
    brute_force_antisym,
    formal_ball_poset,
    from_asym_norm,
    from_digraph,
    is_antisym_connected,
    join,
    join_compactness_check,
    luxemburg_gauge,
    modular_bitop,
    precompact_report,
    smyth_report,
    specialization_bitop,
    symmetrization_gap_report,
    symmetrize_family,
    validate_family,
    validate_qpm,
)
from qconn.cli import main as cli_main
from qconn.connectivity import (
    antisym_components,
    is_locally_antisym_connected,
    symmetric_components,
)
from qconn.instances import load_instance
from qconn.modular import entourages, modular_balls
from qconn.numbers import INF
from qconn.search import search_counterexamples

DATA = pathlib.Path(__file__).parent / "data"


@contextmanager
def criterion(num: int, name: str, limit_s: float):
    t0 = time.perf_counter()
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {num} {name}: FAIL ({time.perf_counter() - t0:.2f}s)")
        raise
    dt = time.perf_counter() - t0
    ok = dt < limit_s
    print(f"ACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL (over time limit)'} "
          f"({dt:.2f}s, limit {limit_s:.0f}s)")
    assert ok, f"criterion {num} took {dt:.2f}s, limit {limit_s}s"


def test_criterion_1_strictness_fixture():
    with criterion(1, "three-point strictness fixture", 1.0):
        kind, b = load_instance(str(DATA / "indiscrete_split.json"))
        assert kind == "bitopology"
        assert is_antisym_connected(b) is True
        assert [set(blk) for blk in symmetric_components(b)] == [{0, 1}, {2}]
        assert antisym_components(b) == [[0, 1, 2]]
        statuses = is_locally_antisym_connected(b)
        assert all(s.connected for s in statuses)


def test_criterion_2_oracle_equivalence():
    with criterion(2, "digraph decision vs brute force", 120.0):
        result = search_counterexamples("antisym_oracle", n=4, mode="exhaustive")
        assert result.findings == []
        assert result.instances_tested == 2 + 1 + 16 + 841 + 126025
        rng = random.Random(20240802)
        for _ in range(1000):
            b = rng_bitop(rng, 8)
            assert is_antisym_connected(b) == brute_force_antisym(b)


def test_criterion_3_theorem_suite():
    with criterion(3, "separation and stability theorem suite", 300.0):
        targets = (
            "prop53_equivalence",
            "prop54_inclusion",
            "thm54_coincidence",
            "prop61_subspace",
            "prop61_union",
            "prop62_image",
            "thm74_local_image",
        )
        for target in targets:
            exhaustive = search_counterexamples(target, n=4, mode="exhaustive")
            assert exhaustive.findings == [], (target, exhaustive.findings[:1])
            rand = search_counterexamples(target, n=8, mode="random",
                                          seed=20240803, budget=1000)
            assert rand.findings == [], (target, rand.findings[:1])
            assert rand.instances_tested == 1000


def test_criterion_4_modular_suite():
    with criterion(4, "gauge families and induced structures", 60.0):
        rng = random.Random(20240804)
        grid = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(5)]
        rl_grid = [(Fraction(1, 2), Fraction(1, 2)), (Fraction(1), Fraction(1)),
                   (Fraction(3, 2), Fraction(2)), (Fraction(2), Fraction(1, 2)),
                   (Fraction(3), Fraction(3))]
        for _ in range(200):
            n = rng.randint(2, 6)
            fam = rng_family(rng, n)
            assert validate_family(fam, grid).ok
            d = luxemburg_gauge(fam)
            validate_qpm([[d.d(i, j) for j in range(n)] for i in range(n)])
            lhs = modular_bitop(symmetrize_family(fam)).forward.nbhd
            rhs = join(modular_bitop(fam)).nbhd
            assert lhs == rhs
            for r, lam in rl_grid:
                fwd, _ = entourages(fam, r, lam)
                for x in range(n):
                    section = frozenset(y for (a, y) in fwd if a == x)
                    assert section == modular_balls(fam, x, lam, r)[0]


def test_criterion_5_completion_suite():
    with criterion(5, "completeness, covers, formal balls", 120.0):
        rng = random.Random(20240805)
        radii = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]
        thresholds = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4),
                      Fraction(8)]
        for _ in range(500):
            n = rng.randint(2, 8)
            d = rng_qpm(rng, n)
            report = smyth_report(d)
            for cls in report["classes"]:
                assert cls["forward_limits"]
                # ball criterion: y is a limit iff every class member is at
                # zero distance to y, i.e. inside every backward ball around y
                assert cls["forward_limits"] == [
                    y for y in range(n)
                    if all(d.is_zero(d.d(p, y)) for p in cls["class"])]
                assert set(cls["class"]) <= set(cls["forward_limits"])
                for p in cls["class"]:
                    for q in cls["class"]:
                        assert d.is_zero(d.d(p, q))
            formal_ball_poset(d, radii)  # order laws asserted at construction
            cover = precompact_report(d, thresholds)
            sizes = [c["size"] for c in cover["covers"]]
            assert sizes == sorted(sizes, reverse=True)
            chain = join_compactness_check(d)
            nbhd = join(specialization_bitop(d)).nbhd
            assert len(set(nbhd)) == len(chain["smyth_report"]["classes"])
            assert all(row >> x & 1 for x, row in enumerate(nbhd))  # covers


def test_criterion_6_gauge_suite():
    with criterion(6, "digraph closures and one-sided gauges", 60.0):
        rng = random.Random(20240806)
        for _ in range(500):
            n = rng.randint(2, 12)
            g = rng_digraph(rng, n)
            d = from_digraph(g)  # triangle inequality asserted by validation
            all_finite = all(d.d(i, j) is not INF
                             for i in range(n) for j in range(n))
            assert all_finite == _reachability_strongly_connected(g)
        for _ in range(60):
            s = rng_vectors(rng, rng.randint(2, 5), rng.randint(1, 4))
            from_asym_norm(s)
            for i in range(len(s.points)):
                for j in range(len(s.points)):
                    fwd = one_sided_lp(s.points[i], s.points[j], Fraction(1))
                    bwd = one_sided_lp(s.points[j], s.points[i], Fraction(1))
                    full = sum(abs(b - a)
                               for a, b in zip(s.points[i], s.points[j]))
                    assert max(fwd, bwd) <= full <= fwd + bwd
        fixture = AsymNormSample(
            dimension=2, p=Fraction(1),
            points=((Fraction(1), Fraction(-1)), (Fraction(0), Fraction(0))))
        report = symmetrization_gap_report(fixture)
        (pair,) = report["pairs"]
        assert pair["max_one_sided"] == "1"
        assert pair["full_norm"] == "2"
        assert report["equality_claim_holds"] is False


def _reachability_strongly_connected(g) -> bool:
    n = len(g.vertices)
    idx = {v: t for t, v in enumerate(g.vertices)}
    succ = [set() for _ in range(n)]
    pred = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        succ[idx[u]].add(idx[v])
        pred[idx[v]].add(idx[u])

    def reach(nbrs):
        seen = {0}
        todo = [0]
        while todo:
            at = todo.pop()
            for b in nbrs[at]:
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return len(seen) == n

    return reach(succ) and reach(pred)


def test_criterion_7_regression_findings(tmp_path, capsys):
    with criterion(7, "seeded regression findings, byte-identical", 60.0):
        f1, f2 = tmp_path / "run1.json", tmp_path / "run2.json"
        code1 = cli_main(["search", "--target", "cor61_join_local",
                          "--out", str(f1)])
        code2 = cli_main(["search", "--target", "cor61_join_local",
                          "--out", str(f2)])
        capsys.readouterr()
        assert code1 == code2 == 1
        assert f1.read_bytes() == f2.read_bytes()
        doc = json.loads(f1.read_text())
        assert doc["seed"] == 20240801
        cycle_split = {
            "kind": "bitopology",
            "points": ["0", "1", "2"],
            "forward_min_nbhd": [[0, 1], [1], [0, 1, 2]],
            "backward_min_nbhd": [[0], [1], [1, 2]],
        }
        seeded = [f for f in doc["findings"] if f["source"] == "seeded"]
        assert cycle_split in [f["instance"] for f in seeded]
        for f in seeded:
            assert f["detail"]["antisym_connected"] is True
            assert len(f["detail"]["symmetric_components"]) > 1
