import random

import pytest

from qconn.errors import UnknownProperty
from qconn.search import (
    DEFAULT_SEED,
    BitopCase,
    PREORDER_COUNTS,
    REGRESSION_CYCLE_SPLIT,
    TARGETS,
    _bitop_json,
    all_preorders,
    preorder_data,
    random_preorder,
    search_counterexamples,
)


def test_preorder_counts_match_known_values():
    for n in (1, 2, 3, 4):
        assert len(all_preorders(n)) == PREORDER_COUNTS[n]


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
    broken = fwd._replace(transpose=(0b01, 0b10))
    case = BitopCase(fwd=fwd, bwd=broken, source="seeded")
    detail = TARGETS["prop61_subspace"].check(case, random.Random(0))
    assert detail == {"point": 0, "missing_arcs_with": [1]}
    # the digraph decision and the subset oracle now disagree as well
    assert TARGETS["antisym_oracle"].check(case, random.Random(0)) is not None
