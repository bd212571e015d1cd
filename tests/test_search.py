import dataclasses
import hashlib
import itertools
import json
import random

import networkx as nx
import pytest

from gen import reference_json
from qconn import relations, search
from qconn.cli import main
from qconn.errors import UnknownProperty
from qconn.instances import canonical_json, parse_instance
from qconn.relations import (
    combined_rows,
    indices_of,
    is_closed,
    preserves,
    reach,
    scc_masks,
    strongly_connected,
    transpose,
    undirected_components,
    up_sets,
)
from qconn.search import (
    DEFAULT_SEED,
    MEMO_MAX_N,
    BitopCase,
    MapCase,
    PREORDER_COUNTS,
    RANDOM_MAX_N,
    REGRESSION_CYCLE_SPLIT,
    TARGETS,
    _COMPONENTS,
    _CONNECTED,
    _SCCS,
    _UNION,
    _bitop_json,
    _case_json,
    _lemma_gap,
    _union_gap,
    all_preorders,
    pack,
    preorder_data,
    random_preorder,
    search_counterexamples,
    unpack,
)


ORACLE_TARGETS = ("antisym_oracle", "prop53_equivalence")


def _offdiag(n: int) -> list[tuple[int, int]]:
    return [(i, j) for i in range(n) for j in range(n) if i != j]


def _reflexive_relations(n: int):
    """Every reflexive relation on n points, by off-diagonal bit pattern
    in ascending order."""
    offdiag = _offdiag(n)
    for bits in range(1 << len(offdiag)):
        rows = [1 << i for i in range(n)]
        for pos, (i, j) in enumerate(offdiag):
            if bits >> pos & 1:
                rows[i] |= 1 << j
        yield tuple(rows)


def _preorders_by_pattern(n: int) -> list[tuple[int, ...]]:
    """Reference oracle: the reflexive relations that are transitive."""
    return [rows for rows in _reflexive_relations(n)
            if all(is_closed(rows, row) for row in rows)]


def test_preorder_tables_match_the_pattern_scan():
    for n in range(0, 5):
        table = all_preorders(n)
        assert [p.rows for p in table] == _preorders_by_pattern(n)
        assert all(p.transpose == tuple(transpose(p.rows)) for p in table)


def test_preorder_counts_match_known_values():
    for n in (1, 2, 3, 4, 5):
        assert len(all_preorders(n)) == PREORDER_COUNTS[n]
    keys = [sum(1 << pos for pos, (i, j) in enumerate(_offdiag(5)) if p.rows[i] >> j & 1)
            for p in all_preorders(5)]
    assert all(a < b for a, b in zip(keys, keys[1:]))


def test_preorders_are_reflexive_transitive():
    for data in all_preorders(3):
        n = len(data.rows)
        for x in range(n):
            assert data.rows[x] >> x & 1
            rest = data.rows[x]
            while rest:
                y = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                assert data.rows[y] & ~data.rows[x] == 0


def test_random_preorder_is_preorder():
    rng = random.Random(99)
    for _ in range(50):
        data = random_preorder(rng, rng.randint(1, 8))
        n = len(data.rows)
        for x in range(n):
            assert data.rows[x] >> x & 1
            rest = data.rows[x]
            while rest:
                y = (rest & -rest).bit_length() - 1
                rest &= rest - 1
                assert data.rows[y] & ~data.rows[x] == 0


def _random_preorder_by_pairs(rng: random.Random, n: int):
    """Reference oracle: the same draw built pair by pair.  It relabels
    the classes that occur, sets one arc per winning coin, closes the
    class DAG by ``reach``, gathers each class's reachable
    members in a k x k loop and transposes the n x n rows."""
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    used = sorted(set(assignment))
    relabel = {c: t for t, c in enumerate(used)}
    assignment = [relabel[c] for c in assignment]
    k = len(used)
    order = list(range(k))
    rng.shuffle(order)
    class_rows = [1 << c for c in range(k)]
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < 0.35:
                class_rows[order[a]] |= 1 << order[b]
    class_reach = [reach(class_rows, 1 << c, (1 << k) - 1) for c in range(k)]
    class_members = [0] * k
    for x, c in enumerate(assignment):
        class_members[c] |= 1 << x
    class_up = [0] * k
    for c in range(k):
        for d in range(k):
            if class_reach[c] >> d & 1:
                class_up[c] |= class_members[d]
    return preorder_data([class_up[c] for c in assignment])


def test_random_preorder_matches_the_pairwise_reference():
    for n, seeds in ((1, 50), (2, 300), (3, 300), (4, 300), (5, 300), (8, 300),
                     (12, 300), (30, 100), (64, 100), (RANDOM_MAX_N, 20)):
        for seed in range(seeds):
            fast, slow = random.Random(seed), random.Random(seed)
            got = random_preorder(fast, n)
            want = _random_preorder_by_pairs(slow, n)
            assert got.rows == want.rows, (n, seed)
            assert got.transpose == want.transpose, (n, seed)
            assert list(got.transpose) == transpose(got.rows), (n, seed)
            assert fast.getstate() == slow.getstate(), (n, seed)


def test_random_preorder_is_the_preorder_of_its_rows():
    rng = random.Random(24)
    for n in (1, 2, 3, 5, 12, 40):
        for _ in range(20):
            got = random_preorder(rng, n)
            want = preorder_data(got.rows)
            assert got == want and hash(got) == hash(want)
            assert type(got.rows) is tuple and type(got.transpose) is tuple
            if n > MEMO_MAX_N:  # a small draw is a table entry, which may hold its keys
                assert vars(got) == {"rows": got.rows, "transpose": got.transpose}
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.rows = want.rows
            with pytest.raises(dataclasses.FrozenInstanceError):
                got.transpose = want.transpose
            assert dataclasses.replace(got) == got


def test_small_random_preorders_are_the_table_entries():
    rng = random.Random(27)
    tables = {n: {id(p) for p in all_preorders(n)} for n in range(1, MEMO_MAX_N + 1)}
    for _ in range(2000):
        n = rng.randint(1, MEMO_MAX_N)
        assert id(random_preorder(rng, n)) in tables[n], n
    fives = {id(p) for p in all_preorders(MEMO_MAX_N + 1)}
    for _ in range(200):
        got = random_preorder(rng, MEMO_MAX_N + 1)
        assert id(got) not in fives
        assert got == preorder_data(got.rows)


def test_small_random_cases_reuse_the_open_sets(monkeypatch):
    """Random draws of at most ``MEMO_MAX_N`` points are table entries,
    so the oracle targets enumerate each one's open sets at most once;
    fresh objects per draw took 11,996 enumerations on this run."""
    calls = []

    def counted(up, down):
        calls.append(len(up))
        return up_sets(up, down)

    monkeypatch.setattr(search, "up_sets", counted)
    for tid in ORACLE_TARGETS:
        search_counterexamples(tid, n=4, mode="random", seed=5, budget=3000)
    assert len(calls) < 500


def _below(bits, bound: int) -> int:
    """The draw ``search`` writes out inline: ``getrandbits`` of the
    bound's bit length until the value is below the bound."""
    b = bound.bit_length()
    r = bits(b)
    while r >= bound:
        r = bits(b)
    return r


@pytest.mark.parametrize("seed", (0, 1, 99, DEFAULT_SEED, 2**61 - 1))
def test_inline_draw_matches_randrange_randint_and_shuffle(seed):
    """The search streams stay byte-identical only while CPython's
    ``randrange``, ``randint`` and ``shuffle`` draw below a bound as
    ``_below`` does; this names that cause if a Python release changes
    them."""
    cause = "Random._randbelow no longer matches the inline getrandbits draw"
    ours, theirs = random.Random(seed), random.Random(seed)
    bits = ours.getrandbits
    for bound in range(1, 301):
        assert _below(bits, bound) == theirs.randrange(bound), (cause, bound)
        assert 1 + _below(bits, bound) == theirs.randint(1, bound), (cause, bound)
        assert 2 + _below(bits, bound) == theirs.randint(2, bound + 1), (cause, bound)
        items = list(range(bound))
        want = items[:]
        theirs.shuffle(want)
        for i in range(bound - 1, 0, -1):
            j = _below(bits, i + 1)
            items[i], items[j] = items[j], items[i]
        assert items == want, (cause, bound)
        assert ours.getstate() == theirs.getstate(), (cause, bound)


class _NoDraws(random.Random):
    """A generator that fails any draw, so a draw below 0, which
    ``getrandbits(0)`` would repeat forever, fails instead of hanging."""

    def getrandbits(self, k):
        raise AssertionError(f"drew getrandbits({k})")

    def random(self):
        raise AssertionError("drew random()")


def test_random_draws_refuse_empty_ranges_before_drawing(monkeypatch):
    for n in (0, -1):
        with pytest.raises(ValueError):
            random_preorder(_NoDraws(3), n)
    monkeypatch.setattr(search.random, "Random", _NoDraws)
    with pytest.raises(ValueError):
        next(search._bitop_stream("random", 1, 3, equal=True))


def _bitop_stream_by_randint(mode: str, n: int, seed: int, equal: bool):
    """Reference oracle for the random bitopological stream: sizes drawn
    by ``randint`` and preorders by ``_random_preorder_by_pairs``.  The
    exhaustive stream draws nothing, so it is taken as it is."""
    if mode == "exhaustive":
        yield from search._bitop_stream(mode, n, seed, equal)
        return
    if not equal:
        yield from search.REGRESSION_CASES
    rng = random.Random(seed)
    while True:
        size = rng.randint(2, n)
        p = _random_preorder_by_pairs(rng, size)
        q = p if equal else _random_preorder_by_pairs(rng, size)
        yield BitopCase(fwd=p, bwd=q, source="random")


def _map_stream_by_randrange(mode: str, n: int, seed: int):
    """Reference oracle for the map stream: the target size by
    ``randint``, each assignment by ``randrange`` and each target
    preorder by ``_random_preorder_by_pairs``."""
    rng = random.Random(seed ^ 0x5EED)
    for case in _bitop_stream_by_randint(mode, n, seed, equal=False):
        size = len(case.fwd.rows)
        yield MapCase(src=case, assignment=tuple(range(size)), tgt=case,
                      source=case.source)
        point = preorder_data((1,))
        yield MapCase(src=case, assignment=(0,) * size,
                      tgt=BitopCase(fwd=point, bwd=point, source=case.source),
                      source=case.source)
        tgt_size = rng.randint(1, max(2, size))
        tgt = BitopCase(fwd=_random_preorder_by_pairs(rng, tgt_size),
                        bwd=_random_preorder_by_pairs(rng, tgt_size),
                        source=case.source)
        for _ in range(6):
            assignment = tuple(rng.randrange(tgt_size) for _ in range(size))
            if (preserves(assignment, case.fwd.rows, tgt.fwd.rows) is None
                    and preserves(assignment, case.bwd.rows, tgt.bwd.rows) is None):
                yield MapCase(src=case, assignment=assignment, tgt=tgt,
                              source=case.source)
                break


def _bitop_key(case: BitopCase):
    return (case.fwd.rows, case.fwd.transpose, case.bwd.rows, case.bwd.transpose,
            case.source)


@pytest.mark.parametrize("mode,n,cases", (("exhaustive", 4, 30_000),
                                          ("random", 12, 2_000)))
@pytest.mark.parametrize("seed", (DEFAULT_SEED, 911))
def test_map_stream_matches_the_randrange_reference(mode, n, cases, seed):
    got = itertools.islice(search._map_stream(mode, n, seed), cases)
    want = itertools.islice(_map_stream_by_randrange(mode, n, seed), cases)
    count = 0
    for a, b in itertools.zip_longest(got, want):
        assert (_bitop_key(a.src), a.assignment, _bitop_key(a.tgt), a.source) == \
            (_bitop_key(b.src), b.assignment, _bitop_key(b.tgt), b.source), count
        count += 1
    assert count == cases


@pytest.mark.parametrize("equal", (False, True))
@pytest.mark.parametrize("seed", (DEFAULT_SEED, 911))
def test_random_bitop_stream_matches_the_randint_reference(seed, equal):
    got = itertools.islice(search._bitop_stream("random", 12, seed, equal), 2_000)
    want = itertools.islice(_bitop_stream_by_randint("random", 12, seed, equal), 2_000)
    assert [_bitop_key(c) for c in got] == [_bitop_key(c) for c in want]


def _exhaustive_stream_by_keywords(n: int, equal: bool):
    """Reference for the exhaustive stream: each case built by keyword,
    forward preorder outer, backward inner."""
    if not equal:
        yield from search.REGRESSION_CASES
    for size in range(1, n + 1):
        table = all_preorders(size)
        for p in table:
            for q in (p,) if equal else table:
                yield BitopCase(fwd=p, bwd=q, source="enumerated")


@pytest.mark.parametrize("equal", (False, True))
def test_exhaustive_bitop_stream_matches_the_keyword_reference(equal):
    got = list(itertools.islice(search._bitop_stream("exhaustive", 4, 0, equal), 30_000))
    want = list(itertools.islice(_exhaustive_stream_by_keywords(4, equal), 30_000))
    assert len(got) == (30_000 if not equal else 1 + 4 + 29 + 355)
    assert all(type(c) is BitopCase for c in got)
    assert [(c.fwd, c.bwd, c.source) for c in got] == \
        [(c.fwd, c.bwd, c.source) for c in want]


def _lemma_gap_by_transpose(case: BitopCase, mask: int):
    """Reference oracle: the lemma check on the transposed combined
    digraph, built by ``relations.transpose``."""
    rows = combined_rows(case.fwd.rows, case.bwd.transpose)
    back = transpose(rows)
    for x in range(len(rows)):
        if mask >> x & 1:
            missing = case.fwd.rows[x] & case.bwd.rows[x] & mask & ~(rows[x] & back[x])
            if missing:
                return {"point": x, "missing_arcs_with": indices_of(missing)}
    return None


def _corrupt(p, rng: random.Random):
    """``p`` with one random bit of its cached transpose flipped."""
    cols = list(p.transpose)
    cols[rng.randrange(len(cols))] ^= 1 << rng.randrange(len(cols))
    return dataclasses.replace(p, transpose=tuple(cols))


def test_lemma_gap_matches_the_transposed_digraph():
    pairs = [(p, q) for p in all_preorders(3) for q in all_preorders(3)]
    rng = random.Random(5)
    for _ in range(300):
        size = rng.randint(1, 40)
        pairs.append((random_preorder(rng, size), random_preorder(rng, size)))
    flagged = 0
    for p, q in pairs:
        n = len(p.rows)
        assert _lemma_gap(BitopCase(fwd=p, bwd=q, source="random"), (1 << n) - 1) is None
        case = BitopCase(fwd=p, bwd=_corrupt(q, rng), source="random")
        for mask in ((1 << n) - 1, rng.randrange(1 << n)):
            want = _lemma_gap_by_transpose(case, mask)
            assert _lemma_gap(case, mask) == want
            flagged += want is not None
    assert flagged > 100


def test_unknown_target_rejected():
    with pytest.raises(UnknownProperty):
        search_counterexamples("no_such_property", n=3)


def test_exhaustive_inclusion_target_clean():
    result = search_counterexamples("prop54_inclusion", n=3, mode="exhaustive")
    assert result.findings == []
    # 2 seeded + 1 + 16 + 841 enumerated pairs
    assert result.instances_tested == 2 + 1 + 16 + 841


def test_coincidence_target_uses_equal_pairs():
    result = search_counterexamples("thm54_coincidence", n=3, mode="exhaustive")
    assert result.findings == []
    assert result.instances_tested == 1 + 4 + 29


def test_join_local_target_reemits_seeded_instances():
    result = search_counterexamples("cor61_join_local", n=3, mode="random",
                                    seed=DEFAULT_SEED, budget=50)
    seeded = [f for f in result.findings if f["source"] == "seeded"]
    assert len(seeded) == 2
    instances = [f["instance"] for f in seeded]
    assert _bitop_json(REGRESSION_CYCLE_SPLIT) in instances
    for f in seeded:
        assert f["detail"]["antisym_connected"] is True
        assert len(f["detail"]["symmetric_components"]) > 1


def test_search_is_deterministic():
    a = search_counterexamples("antisym_oracle", n=5, mode="random",
                               seed=123, budget=120)
    b = search_counterexamples("antisym_oracle", n=5, mode="random",
                               seed=123, budget=120)
    assert a.findings_document() == b.findings_document()


def test_random_mode_requires_budget():
    with pytest.raises(ValueError):
        search_counterexamples("antisym_oracle", n=4, mode="random",
                               budget=None)


@pytest.mark.parametrize("mode", ("exhaustive", "random"))
def test_negative_budget_is_refused_by_name(mode):
    with pytest.raises(ValueError, match="budget"):
        search_counterexamples("antisym_oracle", n=3, mode=mode, budget=-1)


def test_map_targets_run_clean():
    for target in ("prop62_image", "thm74_local_image"):
        result = search_counterexamples(target, n=3, mode="random",
                                        seed=5, budget=150)
        assert result.findings == [], result.findings[:1]


def test_union_and_subspace_targets_run_clean():
    for target in ("prop61_union", "prop61_subspace"):
        result = search_counterexamples(target, n=4, mode="random",
                                        seed=11, budget=200)
        assert result.findings == []


def test_target_registry_descriptions():
    for tid, target in TARGETS.items():
        assert target.id == tid
        assert target.description


def test_tautological_targets_marked():
    marked = {tid for tid, t in TARGETS.items() if t.tautological}
    assert marked == {"prop61_subspace", "thm74_local_image"}
    for tid in marked:
        assert "tautological on finite carriers" in TARGETS[tid].description
        doc = search_counterexamples(tid, n=2, mode="exhaustive").findings_document()
        assert doc["stats"]["tautological"] is True
        assert doc["findings"] == []


def test_lemma_check_flags_a_corrupt_transpose():
    # N+(0) = N-(0) = {0, 1}, so J(0) = {0, 1}; the cached backward
    # transpose drops the arc 1 -> 0 that 1 in N-(0) must supply
    fwd = preorder_data((0b11, 0b10))
    broken = dataclasses.replace(fwd, transpose=(0b01, 0b10))
    case = BitopCase(fwd=fwd, bwd=broken, source="seeded")
    detail = TARGETS["prop61_subspace"].check(case, random.Random(0))
    assert detail == {"point": 0, "missing_arcs_with": [1]}
    # the digraph decision and the subset oracle now disagree as well
    assert TARGETS["antisym_oracle"].check(case, random.Random(0)) is not None


def test_only_the_oracle_targets_enumerate_open_sets():
    rng = random.Random(41)
    case = BitopCase(fwd=random_preorder(rng, 12), bwd=random_preorder(rng, 12),
                     source="random")
    for tid, target in TARGETS.items():
        if target.case_kind != "map" and tid not in ORACLE_TARGETS:
            target.check(case, random.Random(0))
    assert "opens" not in vars(case.fwd) and "opens" not in vars(case.bwd)
    for tid in ORACLE_TARGETS:
        assert TARGETS[tid].check(case, random.Random(0)) is None
    assert vars(case.fwd)["opens"] == case.fwd.opens  # enumerated once, then kept


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_oracle_targets_refuse_carriers_past_the_enumeration_cap(capsys, target):
    code = main(["search", "--target", target, "--n", "20", "--mode", "random"])
    assert code == 2
    diag = json.loads(capsys.readouterr().err)["error"]
    assert diag["type"] == "CarrierTooLarge" and "16 points" in diag["message"]


@pytest.mark.parametrize("target", ORACLE_TARGETS)
def test_oracle_targets_refuse_n_past_the_cap_before_any_case(monkeypatch, capsys, target):
    # n = 16 runs; at n = 17 every seed exits 2, however small its draws
    assert search_counterexamples(target, n=16, mode="random", seed=1,
                                  budget=40).instances_tested == 40
    tested = []
    monkeypatch.setitem(TARGETS, target, dataclasses.replace(
        TARGETS[target], check=lambda case, rng: tested.append(case)))
    for seed in range(1, 7):
        code = main(["search", "--target", target, "--mode", "random", "--n", "17",
                     "--budget", "2", "--seed", str(seed)])
        assert code == 2
        diag = json.loads(capsys.readouterr().err)["error"]
        assert diag["type"] == "CarrierTooLarge" and "at most 16 points" in diag["message"]
    assert tested == []


def test_exhaustive_mode_refuses_sizes_past_the_tables():
    search_counterexamples("prop54_inclusion", n=1, mode="exhaustive", budget=10)
    for n in (6, 0, -3):
        with pytest.raises(ValueError):
            search_counterexamples("prop54_inclusion", n=n, mode="exhaustive", budget=10)


def test_random_mode_refuses_sizes_past_the_cap():
    search_counterexamples("prop54_inclusion", n=RANDOM_MAX_N, mode="random", budget=3)
    search_counterexamples("prop54_inclusion", n=2, mode="random", budget=3)
    for n in (RANDOM_MAX_N + 1, 1, -3):
        with pytest.raises(ValueError):
            search_counterexamples("prop54_inclusion", n=n, mode="random", budget=3)


# reflexive relations on carriers of 1 to MEMO_MAX_N points: 2**(n*(n-1)) each
SMALL_RELATIONS = sum(2 ** (n * (n - 1)) for n in range(1, MEMO_MAX_N + 1))


# every memo the checks read; each holds one decision
MEMOS = (_CONNECTED, _SCCS, _COMPONENTS, _UNION)


def test_memoized_decompositions_match_the_kernel():
    combined, joins = set(), set()
    for n in range(1, MEMO_MAX_N + 1):
        table = all_preorders(n)
        for p in table:
            for q in table:
                combined.add(p.up_key | q.down_key)
                joins.add(p.up_key & q.up_key)
    for key in combined:
        rows = unpack(key)
        sccs = _SCCS[key]
        assert sccs == tuple(scc_masks(rows))
        assert _CONNECTED[key] == strongly_connected(rows)
        assert (len(sccs) == 1) == strongly_connected(rows)
    for key in joins:
        assert _COMPONENTS[key] == tuple(undirected_components(unpack(key)))
    assert SMALL_RELATIONS == 4165
    assert len(combined) <= SMALL_RELATIONS and len(joins) <= SMALL_RELATIONS


def test_packed_keys_round_trip_and_match_the_rows():
    rng = random.Random(22)
    count = 0
    for n in range(1, MEMO_MAX_N + 1):
        relations = list(_reflexive_relations(n))
        for rows in relations:
            count += 1
            key = pack(rows)
            assert unpack(key) == rows
            p = preorder_data(rows)
            assert (p.up_key, p.down_key) == (key, pack(p.transpose))
            for other in [rows] + rng.sample(relations, min(3, len(relations))):
                q = preorder_data(other)
                assert p.up_key | q.down_key == pack(combined_rows(p.rows, q.transpose))
                assert p.up_key & q.up_key == pack([f & g for f, g in zip(p.rows, q.rows)])
    assert count == SMALL_RELATIONS


def test_a_replaced_preorder_derives_its_own_keys():
    fwd = preorder_data((0b11, 0b10))
    assert fwd.down_key == pack((0b01, 0b11))
    broken = dataclasses.replace(fwd, transpose=(0b01, 0b10))
    assert (broken.up_key, broken.down_key) == (fwd.up_key, pack((0b01, 0b10)))


def test_memos_stay_within_the_small_relation_count(fresh_memo):
    for tid in TARGETS:
        search_counterexamples(tid, n=4, mode="exhaustive", budget=20_000)
        search_counterexamples(tid, n=12, mode="random", seed=7, budget=60)
    sizes = [len(memo) for memo in MEMOS]
    assert 0 < sum(sizes) <= len(MEMOS) * SMALL_RELATIONS
    assert max(sizes) <= SMALL_RELATIONS


def test_carriers_past_the_memo_bypass_it():
    rng = random.Random(3)
    size = MEMO_MAX_N + 1
    case = BitopCase(fwd=random_preorder(rng, size), bwd=random_preorder(rng, size),
                     source="random")
    mapped = MapCase(src=case, assignment=tuple(range(size)), tgt=case, source="random")
    before = [dict(memo) for memo in MEMOS]
    for target in TARGETS.values():
        target.check(mapped if target.case_kind == "map" else case, random.Random(0))
    assert [dict(memo) for memo in MEMOS] == before
    assert "up_key" not in vars(case.fwd) and "down_key" not in vars(case.bwd)


def test_random_mode_checks_do_not_transpose(monkeypatch):
    """Above ``MEMO_MAX_N`` points every check, map targets included,
    reads the transposes its case holds.  A first run fills the
    small-carrier memos, whose misses transpose the unpacked rows once
    per relation; the counted second run then meets only hits there."""
    for tid in TARGETS:
        search_counterexamples(tid, n=12, mode="random", budget=200)
    calls = []

    def counted(rows):
        calls.append(len(rows))
        return transpose(rows)

    monkeypatch.setattr(search, "transpose", counted)
    monkeypatch.setattr(relations, "transpose", counted)
    for tid in TARGETS:
        result = search_counterexamples(tid, n=12, mode="random", budget=200)
        assert result.instances_tested == 200
    assert calls == []


def _union_gap_by_enumeration(rows):
    """Reference: the first ordered pair of overlapping strongly connected
    subsets, in ascending mask order, whose union is not strongly
    connected; each subset decided by networkx on its induced subgraph."""
    n = len(rows)
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    g.add_edges_from((x, y) for x, row in enumerate(rows) for y in range(n)
                     if row >> y & 1)
    connected = {m: nx.is_strongly_connected(g.subgraph(indices_of(m)))
                 for m in range(1, 1 << n)}
    for s in range(1, 1 << n):
        for t in range(1, 1 << n):
            if s & t and connected[s] and connected[t] and not connected[s | t]:
                return s, t
    return None


def test_union_gap_matches_subset_pair_enumeration():
    relations = [rows for n in (1, 2, 3) for rows in _reflexive_relations(n)]
    assert len(relations) == 1 + 4 + 64
    rng = random.Random(12)
    for _ in range(300):
        relations.append(tuple(1 << i | rng.getrandbits(4) for i in range(4)))
    for rows in relations:
        assert _UNION[pack(rows)] == _union_gap_by_enumeration(rows)


@pytest.fixture
def fresh_memo():
    for memo in MEMOS:
        memo.clear()
    yield
    for memo in MEMOS:
        memo.clear()


def _complete_case(n: int) -> BitopCase:
    """An indiscrete forward preorder: the combined digraph is complete."""
    full = (1 << n) - 1
    return BitopCase(fwd=preorder_data((full,) * n),
                     bwd=preorder_data(tuple(1 << i for i in range(n))),
                     source="seeded")


def _misjudge_carrier(monkeypatch, n: int) -> None:
    """Make the kernel call the whole carrier of ``n`` points, and only it,
    not strongly connected."""
    full = (1 << n) - 1
    monkeypatch.setattr(search, "strongly_connected",
                        lambda rows, sub=None: sub != full
                        and strongly_connected(rows, sub))


def test_union_check_reports_a_misjudged_union(monkeypatch, fresh_memo):
    check = TARGETS["prop61_union"].check
    # the two-way 3-cycle: every pair of points is strongly connected, so
    # {0, 1} and {0, 2} overlap with the whole carrier as their union
    _misjudge_carrier(monkeypatch, 3)
    for seed in range(5):
        rng = random.Random(seed)
        state = rng.getstate()
        assert check(_complete_case(3), rng) == {"S": [0, 1], "T": [0, 2],
                                                 "union": [0, 1, 2]}
        assert rng.getstate() == state  # small carriers draw nothing
    _misjudge_carrier(monkeypatch, 6)
    rng = random.Random(0)
    details = [check(_complete_case(6), rng) for _ in range(20)]
    hit = next(d for d in details if d is not None)
    assert hit["union"] == list(range(6))
    assert len(hit["S"]) < 6 and len(hit["T"]) < 6


def test_image_check_reports_a_split_image():
    # the cycle's one block sent onto two points that no arc joins; the
    # stream never yields such a map, since it does not preserve the rows
    discrete = BitopCase(fwd=preorder_data((1, 2)), bwd=preorder_data((1, 2)),
                         source="seeded")
    case = MapCase(src=REGRESSION_CYCLE_SPLIT, assignment=(0, 1, 1), tgt=discrete,
                   source="seeded")
    detail = TARGETS["prop62_image"].check(case, random.Random(0))
    assert detail == {"block": [0, 1, 2], "image": [0, 1]}


def test_map_case_document_parses_back_as_its_spaces_and_map():
    discrete = BitopCase(fwd=preorder_data((1, 2)), bwd=preorder_data((1, 2)),
                         source="seeded")
    case = MapCase(src=REGRESSION_CYCLE_SPLIT, assignment=(0, 1, 1), tgt=discrete,
                   source="seeded")
    doc = json.loads(canonical_json(_case_json(case)))
    assert doc["kind"] == "map-case"
    for key, space in (("source_space", case.src), ("target_space", case.tgt)):
        kind, parsed = parse_instance(doc[key])
        assert kind == "bitopology"
        assert parsed.forward.nbhd == space.fwd.rows
        assert parsed.backward.nbhd == space.bwd.rows
    kind, f = parse_instance(doc["map"])
    assert kind == "map"
    assert f.source_points == ("0", "1", "2") and f.target_points == ("0", "1")
    assert f.assignment == case.assignment


# sha256 of canonical_json(findings_document()) per target, recorded before
# the search stopped enumerating open sets for targets that never read them;
# any change to a stream, a check or the document format shows up here
SEARCH_DIGESTS = {
    ("exhaustive", 3, None, None): {
        "antisym_oracle":
            "f5244d8cf9d9f9542dd8250e7461c8d93a870a49dc8ba1afdea955500e3960f6",
        "cor61_join_local":
            "08f914412e9daa9d9a19f7123b654808c9e932342fa973f46b5eb2c9ac8b1a88",
        "prop53_equivalence":
            "a6778a259c6d14b4c3553a5d71ec4077100b511b52362a48ef87819a98251dfb",
        "prop54_inclusion":
            "66066ec08dd1057f6f287c6d65e4dfc0897b4dd768b9e9ab6254030775f27cbd",
        "prop61_subspace":
            "0f772481878937de289a28e7b8a68fa356cc9316ecec92e80c145d7f5aa5b0ba",
        "prop61_union":
            "76930087717b366cf5f37a9db5d1f358e99738517bd72aa89f52d6ca1395108e",
        "prop62_image":
            "28029ecd1761b941eadf3e8d8275cdd23287b65187d0b4bc611cfc0b5fd99341",
        "thm54_coincidence":
            "4c5bc9d38941a416538dbebb1378004308e536e9fa0d85565948f686c0932ffe",
        "thm74_local_image":
            "812e74b45027ac0096f164ffc15871a9f216b64904ecf2e87570ff17885090fd",
    },
    ("exhaustive", 4, None, 20000): {
        "antisym_oracle":
            "de14425a4d2f988af9dd8933c4e5eb80a98cd92c4e518cd9d523eef9711cb81a",
        "cor61_join_local":
            "2328ac6d7d447bc443d2a111b3acd8d478bbc1de925618a7a41974e41933da50",
        "prop53_equivalence":
            "8876c2ccc6c263ef32ecc8ff3c652c239ac795dfbc4f507ce9a9058cbfb50f8d",
        "prop54_inclusion":
            "c8c76594cbb20e43c0a9691829e77234dd8a9be3017b56608c406978f78619f9",
        "prop61_subspace":
            "eb7607a565fe00e96fa8230a0e2a9a129c81b9e2289643407957db5ce45fc8d8",
        "prop61_union":
            "2bd0bf34f83c1c30adc1b2b0f468ffb888537c96a6f6c7560c73874501245d34",
        "prop62_image":
            "d7e1873caf60632e559165afc9cb7cab746ae471b5344f04ae56686f96a593b0",
        "thm54_coincidence":
            "1786a83ef92eb2da8b14f4fb0cbec2544cae164ec705c73d1fced51b1242d197",
        "thm74_local_image":
            "2004a24c2920cde964240ae3e9e563119e76c3d9dd3994fb4b042dacc52e88f2",
    },
    ("random", 8, 20240803, 1000): {
        "antisym_oracle":
            "dd5e93989798ccf430930ab04aa39238012a9a83fe6b8de1ab1a186f94cedddb",
        "cor61_join_local":
            "3a56c9c657c2407c37935962022aa55ac9bfd55135cd73053dd3485955f6a1ef",
        "prop53_equivalence":
            "c4248ed05baefc80d18847bf430aeeb9abaae48dd320ce9f24614b8d845106ac",
        "prop54_inclusion":
            "cdcfb54c0fcb046978f7dc095f896d364d9d346380b6350fa1bed64def3b9598",
        "prop61_subspace":
            "5955b2e40ccef9aef3be12e1c4db211f9f77bd9643fadf266d27827d3f0d356f",
        "prop61_union":
            "895f2de6339889c702e5d73e71f8fc7ef9f34bd9bee69b5a0b25efb6d4e10d12",
        "prop62_image":
            "e773f084a369fa18f99273562e4810fff39ad21a58057947af3ddd89ae812580",
        "thm54_coincidence":
            "23c2fd78085025ebff539120db61e144fc05db8f12db661458fbe597f70cfbff",
        "thm74_local_image":
            "d34250083aa442befceb2ba8b56ab42c64c112e36293c359426e388a1b09e08e",
    },
    ("random", 12, 7, 300): {
        "antisym_oracle":
            "e7313ec44b56e3c4280b2379dbd51460b0758d8e9df06e739ef3c8f05084bb13",
        "cor61_join_local":
            "dfc4364137fddb36be1eb0e9480d64ec27fe98a24c5393033a351513a5a285e4",
        "prop53_equivalence":
            "8e5f63878d9ba1448ac420f07f543cda410299c01dc38beeca4e5615213eb3fe",
        "prop54_inclusion":
            "728718432356c18ee09afc45a42b21aca84750eebe3c6bb7704a1cd9ecfc72b9",
        "prop61_subspace":
            "1d8c64e67bbd565355008c73dc73da311a8528ab160762200d1d70bb77d80a20",
        "prop61_union":
            "7ec682884abfd8d8d99610af747c194602ef729c042bb2c259503893a393dabb",
        "prop62_image":
            "ae59a44074405b7ac15180e9e38224375ec430ca70024812f5d2e9fef791261d",
        "thm54_coincidence":
            "b90954366f5ccf5032461d640221beeadc3762e02bf595454cc1400172a730f8",
        "thm74_local_image":
            "bde9c7fd863095dfd68ed18030469dd011ac7d21bb8638716a740daef17a035d",
    },
}


@pytest.mark.parametrize("config", list(SEARCH_DIGESTS),
                         ids=lambda c: f"{c[0]}-n{c[1]}")
def test_search_output_pinned(config):
    mode, n, seed, budget = config
    digests = SEARCH_DIGESTS[config]
    assert sorted(digests) == sorted(TARGETS)
    kwargs = {} if seed is None else {"seed": seed}
    got = {}
    for target in digests:
        doc = search_counterexamples(target, n=n, mode=mode, budget=budget,
                                     **kwargs).findings_document()
        text = canonical_json(doc)
        assert text == reference_json(doc)
        got[target] = hashlib.sha256(text.encode()).hexdigest()
    assert got == digests
