import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import rng_bitop, rng_qpm
from qconn import (
    WeightedDigraph,
    antisym_certificate,
    antisym_components,
    brute_force_antisym,
    combined_digraph,
    component_report,
    from_digraph,
    is_antisym_connected,
    is_locally_antisym_connected,
    scale_connectivity,
    symmetric_components,
    validate_qpm,
)
from qconn.bitopology import AlexandrovTopology, BitopSpace, join, subspace
from qconn.connectivity import LocalStatus
from qconn.errors import CarrierTooLarge, NonPositiveEpsilon
from qconn.numbers import enn
from qconn.relations import indices_of, reach
from qconn.search import all_preorders


def test_indiscrete_split_space(indiscrete_split_space):
    b = indiscrete_split_space
    assert is_antisym_connected(b)
    assert brute_force_antisym(b)
    assert symmetric_components(b) == [[0, 1], [2]]
    assert antisym_components(b) == [[0, 1, 2]]
    assert antisym_certificate(b) is None
    assert all(s.connected for s in is_locally_antisym_connected(b))


def test_cycle_split_space(cycle_split_space):
    b = cycle_split_space
    # oracle: enumerate all 6 proper nonempty subsets directly
    full = 0b111
    for a_mask in range(1, full):
        assert not (b.forward.is_open_mask(a_mask)
                    and b.backward.is_open_mask(full & ~a_mask))
    assert is_antisym_connected(b)
    assert brute_force_antisym(b)
    # arcs a->b, b->c, c->a, c->b close a cycle
    rows = combined_digraph(b)
    arcs = {(x, y) for x, row in enumerate(rows) for y in indices_of(row) if x != y}
    assert arcs == {(0, 1), (1, 2), (2, 0), (2, 1)}
    # join splits {a} from {b,c}
    assert symmetric_components(b) == [[0], [1, 2]]
    assert antisym_components(b) == [[0, 1, 2]]


def test_cycle_split_local_by_hand(cycle_split_space):
    statuses = is_locally_antisym_connected(cycle_split_space)
    assert [s.connected for s in statuses] == [True, True, True]
    assert statuses[0].witness == (0,)
    assert statuses[1].witness == (1,)
    assert statuses[2].witness == (1, 2)


def _local_by_subspaces(b: BitopSpace) -> list[LocalStatus]:
    """Slow oracle: rebuild the trace on each minimal join neighborhood
    and decide it as a space of its own, twice."""
    out = []
    for x, j in enumerate(join(b).nbhd):
        members = tuple(i for i in range(b.n) if j >> i & 1)
        sub = subspace(b, members)
        connected = is_antisym_connected(sub)
        assert connected == brute_force_antisym(sub)
        out.append(LocalStatus(point=x, connected=connected, witness=members))
    return out


def test_local_lemma_against_subspaces():
    spaces = []
    for n in (1, 2, 3):
        points = tuple(str(i) for i in range(n))
        table = all_preorders(n)
        for p, q in itertools.product(table, table):
            spaces.append(BitopSpace(
                forward=AlexandrovTopology(points=points, nbhd=p.rows),
                backward=AlexandrovTopology(points=points, nbhd=q.rows)))
    rng = random.Random(20240807)
    spaces += [rng_bitop(rng, rng.randint(1, 10)) for _ in range(300)]
    for b in spaces:
        slow = _local_by_subspaces(b)
        assert all(s.connected for s in slow)
        assert is_locally_antisym_connected(b) == slow


def test_discrete_pair_certificate():
    t = AlexandrovTopology(points=("0", "1"), nbhd=(0b01, 0b10))
    b = BitopSpace(forward=t, backward=t)
    assert not is_antisym_connected(b)
    cert = antisym_certificate(b)
    assert cert.A == {0} and cert.B == {1}
    assert cert.check(b)


def test_single_point_connected():
    t = AlexandrovTopology(points=("x",), nbhd=(1,))
    b = BitopSpace(forward=t, backward=t)
    assert is_antisym_connected(b)
    assert brute_force_antisym(b)
    assert all(s.connected for s in is_locally_antisym_connected(b))


def test_brute_force_carrier_cap():
    n = 21
    t = AlexandrovTopology(points=tuple(str(i) for i in range(n)),
                           nbhd=tuple(1 << i for i in range(n)))
    with pytest.raises(CarrierTooLarge):
        brute_force_antisym(BitopSpace(forward=t, backward=t))


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 8))
def test_oracle_equivalence_random(seed, n):
    b = rng_bitop(random.Random(seed), n)
    assert is_antisym_connected(b) == brute_force_antisym(b)


def test_oracle_equivalence_exhaustive_n3():
    points = ("0", "1", "2")
    table = all_preorders(3)
    for p, q in itertools.product(table, table):
        b = BitopSpace(forward=AlexandrovTopology(points=points, nbhd=p.rows),
                       backward=AlexandrovTopology(points=points, nbhd=q.rows))
        assert is_antisym_connected(b) == brute_force_antisym(b)


def _out_closed_sets(b: BitopSpace):
    rows = combined_digraph(b)
    full = (1 << b.n) - 1
    out = []
    for mask in range(1, full):
        ok = True
        rest = mask
        while rest:
            x = (rest & -rest).bit_length() - 1
            rest &= rest - 1
            if rows[x] & ~mask:
                ok = False
                break
        if ok:
            out.append(mask)
    return out


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_certificate_is_lex_least(seed, n):
    b = rng_bitop(random.Random(seed), n)
    cert = antisym_certificate(b)
    assert component_report(b).certificate == cert
    closed = _out_closed_sets(b)
    if cert is None:
        assert not closed
        return
    assert cert.check(b)
    best = min(closed, key=lambda m: tuple(
        i for i in range(n) if m >> i & 1))
    assert cert.A == {i for i in range(n) if best >> i & 1}


@settings(max_examples=50, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 7))
def test_symmetric_refines_antisym(seed, n):
    b = rng_bitop(random.Random(seed), n)
    report = component_report(b)  # Prop 5.4: each symmetric block in an antisymmetric one
    sym_blocks = [set(blk) for blk in report.symmetric]
    anti_blocks = [set(blk) for blk in report.antisymmetric]
    for s in sym_blocks:
        assert any(s <= a for a in anti_blocks)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 7))
def test_partitions_coincide_when_topologies_equal(seed, n):
    from qconn.search import random_preorder
    rows = random_preorder(random.Random(seed), n).rows
    t = AlexandrovTopology(points=tuple(str(i) for i in range(n)), nbhd=rows)
    b = BitopSpace(forward=t, backward=t)
    assert antisym_components(b) == symmetric_components(b)


def test_discrete_discrete_all_singletons():
    n = 4
    t = AlexandrovTopology(points=tuple(str(i) for i in range(n)),
                           nbhd=tuple(1 << i for i in range(n)))
    b = BitopSpace(forward=t, backward=t)
    assert antisym_components(b) == [[i] for i in range(n)]
    assert symmetric_components(b) == [[i] for i in range(n)]
    assert all(s.connected for s in is_locally_antisym_connected(b))


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 7))
def test_union_of_overlapping_connected_subsets(seed, n):
    from qconn.bitopology import subspace
    rng = random.Random(seed)
    b = rng_bitop(rng, n)
    blocks = [blk for blk in antisym_components(b) if len(blk) >= 2]
    for blk in blocks:
        for _ in range(4):
            s = set(rng.sample(blk, rng.randint(1, len(blk))))
            t = set(rng.sample(blk, rng.randint(1, len(blk))))
            if not s & t:
                continue
            if not is_antisym_connected(subspace(b, s)):
                continue
            if not is_antisym_connected(subspace(b, t)):
                continue
            assert is_antisym_connected(subspace(b, s | t))


# -- scale connectivity -----------------------------------------------------


def _three_cycle_metric():
    g = WeightedDigraph(
        vertices=("0", "1", "2"),
        edges=(("0", "1", enn(1)), ("1", "2", enn(1)), ("2", "0", enn(1))),
    )
    return from_digraph(g)


def test_scale_three_cycle():
    d = _three_cycle_metric()
    # forward distances: 1 or 2; reverse direction always >= 3/2
    anti, sym = scale_connectivity(d, Fraction(3, 2))
    assert anti == [[0, 1, 2]]
    assert sym == [[0], [1], [2]]


def test_scale_below_min_distance_is_discrete():
    d = _three_cycle_metric()
    anti, sym = scale_connectivity(d, Fraction(1, 2))
    assert anti == [[0], [1], [2]]
    assert sym == [[0], [1], [2]]


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_scale_partitions_coincide_for_symmetric(seed, n):
    from qconn import symmetrize
    d = symmetrize(rng_qpm(random.Random(seed), n))
    for eps in (Fraction(1, 2), Fraction(1), Fraction(3)):
        anti, sym = scale_connectivity(d, eps)
        assert anti == sym


def _refines(fine, coarse) -> bool:
    coarse_sets = [set(blk) for blk in coarse]
    return all(any(set(blk) <= c for c in coarse_sets) for blk in fine)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 7))
def test_scale_monotone_coarsening(seed, n):
    d = rng_qpm(random.Random(seed), n)
    eps_values = sorted({Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4)})
    prev = None
    for eps in eps_values:
        anti, sym = scale_connectivity(d, eps)
        if prev is not None:
            assert _refines(prev[0], anti)
            assert _refines(prev[1], sym)
        prev = (anti, sym)


def test_scale_requires_positive_eps():
    d = _three_cycle_metric()
    with pytest.raises(NonPositiveEpsilon):
        scale_connectivity(d, Fraction(0))


def test_scale_separation_criterion_collapses_to_out_closure():
    # A closed under forward eps-balls with complement closed under
    # backward eps-balls is exactly out-closure in the eps digraph: check
    # against direct enumeration
    d = _three_cycle_metric()
    eps = Fraction(3, 2)
    n = d.n
    bound = enn(eps)
    rows = []
    for x in range(n):
        m = 1 << x
        for y in range(n):
            if d.d(x, y) < bound:
                m |= 1 << y
        rows.append(m)
    full = (1 << n) - 1
    for mask in range(1, full):
        fwd_closed = all(
            not (mask >> x & 1) or (rows[x] & ~mask) == 0 for x in range(n))
        bwd_closed = all(
            (mask >> z & 1) or all(
                not (d.d(z, y) < bound) or not (mask >> z & 1)
                for y in range(n))
            for z in range(n))
        # complement closure restated: no arc from inside mask to outside
        complement_ok = all(
            not (mask >> x & 1) or all(
                not (d.d(x, y) < bound) or (mask >> y & 1) for y in range(n))
            for x in range(n))
        assert fwd_closed == complement_ok


def test_reach_small():
    rows = [0b010, 0b100, 0b100]
    assert reach(rows, 0b001, 0b111) == 0b111
    assert reach(rows, 0b001, 0b011) == 0b011


def test_component_decisions_build_no_topology(monkeypatch, cycle_split_space):
    built = []
    check = AlexandrovTopology.__post_init__
    monkeypatch.setattr(AlexandrovTopology, "__post_init__",
                        lambda self: built.append(self) or check(self))
    symmetric_components(cycle_split_space)
    is_locally_antisym_connected(cycle_split_space)
    antisym_components(cycle_split_space)
    assert built == []
    join(cycle_split_space)
    assert len(built) == 1  # the counter sees a topology being built
