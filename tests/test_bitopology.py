import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import rng_bitop, rng_family, rng_qpm
from qconn import (
    AsymNormSample,
    ScaleGauge,
    from_asym_norm,
    is_T0,
    join,
    modular_bitop,
    specialization_bitop,
    subspace,
    symmetrize,
    validate_qpm,
)
from qconn.bitopology import AlexandrovTopology, BitopSpace
from qconn.errors import CarrierTooLarge, CoherenceError, EmptySubset
from qconn.modular import QuasiModularFamily
from qconn.relations import indices_of, transpose
from qconn.search import all_preorders


def topo(points, *sets) -> AlexandrovTopology:
    return AlexandrovTopology.from_sets(points, sets)


def test_indices_of_lists_the_set_bits():
    rng = random.Random(3)
    for mask in [0, 1, 2**70, 2**300 - 1, *(rng.getrandbits(rng.randint(1, 200))
                                          for _ in range(300))]:
        assert indices_of(mask) == [i for i in range(mask.bit_length()) if mask >> i & 1]


def test_coherence_enforced():
    with pytest.raises(CoherenceError):
        # 1 in N(0) but N(1) = {1,2} escapes N(0) = {0,1}
        topo(("a", "b", "c"), {0, 1}, {1, 2}, {2})
    with pytest.raises(CoherenceError):
        topo(("a",), set())  # point missing from its own neighborhood


def test_specialization_genuine_metric_is_discrete():
    d = validate_qpm([[0, 1], [2, 0]])
    b = specialization_bitop(d)
    assert b.forward.min_nbhd(0) == {0}
    assert b.backward.min_nbhd(1) == {1}


def test_specialization_zero_metric_is_indiscrete():
    d = validate_qpm([[0, 0], [0, 0]])
    b = specialization_bitop(d)
    assert b.forward.min_nbhd(0) == {0, 1}
    assert b.backward.min_nbhd(1) == {0, 1}


def test_specialization_asymmetric_zero():
    d = validate_qpm([[0, 0], [1, 0]])
    b = specialization_bitop(d)
    assert b.forward.min_nbhd(0) == {0, 1}
    assert b.forward.min_nbhd(1) == {1}
    assert b.backward.min_nbhd(0) == {0}
    assert b.backward.min_nbhd(1) == {0, 1}


def test_join_examples(indiscrete_split_space):
    j = join(indiscrete_split_space)
    assert j.min_nbhd(0) == {0, 1}
    assert j.min_nbhd(1) == {0, 1}
    assert j.min_nbhd(2) == {2}
    # forward indiscrete: join equals the backward topology
    assert j.nbhd == indiscrete_split_space.backward.nbhd


def test_join_of_equal_topologies_is_identity():
    t = topo(("a", "b"), {0, 1}, {1})
    b = BitopSpace(forward=t, backward=t)
    assert join(b).nbhd == t.nbhd


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_join_matches_symmetrized_metric(seed, n):
    d = rng_qpm(random.Random(seed), n)
    b = specialization_bitop(d)
    assert specialization_bitop(symmetrize(d)).forward.nbhd == join(b).nbhd


def test_join_matches_symmetrized_metric_on_asymmetric_samples():
    rng = random.Random(86)
    asymmetric = 0
    for trial in range(120):
        n = rng.randint(1, 7)
        if trial % 2:
            d = rng_qpm(rng, n, density=rng.choice([0.2, 0.5, 0.9]))
        else:
            # exact p = 1 gauges: d(x, y) = 0 iff y <= x coordinatewise
            pts = tuple((Fraction(rng.randint(0, 2)), Fraction(rng.randint(0, 2)))
                        for _ in range(n))
            d = from_asym_norm(AsymNormSample(dimension=2, p=Fraction(1), points=pts))
        rows = d.zero_mask_rows()
        asymmetric += rows != transpose(rows)
        b = specialization_bitop(d)
        assert specialization_bitop(symmetrize(d)).forward.nbhd == join(b).nbhd
    assert asymmetric >= 30


def test_subspace_examples(indiscrete_split_space):
    whole = subspace(indiscrete_split_space, [0, 1, 2])
    assert whole.forward.nbhd == indiscrete_split_space.forward.nbhd
    single = subspace(indiscrete_split_space, [1])
    assert single.forward.min_nbhd(0) == {0}
    trace = subspace(indiscrete_split_space, [0, 1])
    assert trace.forward.min_nbhd(0) == {0, 1}
    assert trace.backward.min_nbhd(0) == {0, 1}
    assert trace.backward.min_nbhd(1) == {0, 1}
    with pytest.raises(EmptySubset):
        subspace(indiscrete_split_space, [])


def test_is_open(indiscrete_split_space):
    fwd = indiscrete_split_space.forward
    bwd = indiscrete_split_space.backward
    assert fwd.is_open([])
    assert fwd.is_open([0, 1, 2])
    assert not fwd.is_open([2])
    assert bwd.is_open([2])
    assert bwd.is_open([0, 1])


def test_open_sets_enumeration_matches_example(indiscrete_split_space):
    fwd_opens = set(indiscrete_split_space.forward.open_sets())
    assert fwd_opens == {0, 0b111}
    bwd_opens = set(indiscrete_split_space.backward.open_sets())
    assert bwd_opens == {0, 0b100, 0b011, 0b111}


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 4))
def test_open_family_closed_under_union_intersection(seed, n):
    b = rng_bitop(random.Random(seed), n)
    for t in (b.forward, b.backward, join(b)):
        opens = set(t.open_sets())
        for u, v in itertools.product(opens, repeat=2):
            assert (u | v) in opens
            assert (u & v) in opens
        assert 0 in opens and (1 << n) - 1 in opens


def test_open_sets_capped_at_16_points():
    assert len(topo(tuple(range(16)), *[{i} for i in range(16)]).open_sets()) == 1 << 16
    with pytest.raises(CarrierTooLarge):
        topo(tuple(range(17)), *[{i} for i in range(17)]).open_sets()


def test_minimal_ball_is_the_zero_set():
    """The identity behind specialization_bitop: no distance lies strictly
    between the zero relation and the least positive distance, so the
    ball at that distance is the zero set (at any radius when there is
    none)."""
    rng = random.Random(20240805)
    metrics = [rng_qpm(rng, n, density) for n in (1, 3, 6, 9)
               for density in (0.2, 0.5, 0.9)]
    for dim in (1, 2):
        pts = tuple(tuple(Fraction(rng.choice((0, 3, 6, 10**9, 2 * 10**9)), 10**10)
                          for _ in range(dim)) for _ in range(6))
        metrics.append(from_asym_norm(AsymNormSample(dimension=dim, p=Fraction(2), points=pts),
                                      mode="float", tol=1e-9))
    metrics.append(validate_qpm([[0, "inf"], [0, 0]]))
    assert not metrics[-1].positive_spectrum()
    assert any(d.tol is not None and d.positive_spectrum() for d in metrics)
    for d in metrics:
        radius = min(d.positive_spectrum(), default=Fraction(1))
        assert d.ball_rows(radius) == d.zero_mask_rows()


def test_t0():
    d0 = validate_qpm([[0, 0], [0, 0]])
    assert not is_T0(specialization_bitop(d0))
    d1 = validate_qpm([[0, 1], [1, 0]])
    assert is_T0(specialization_bitop(d1))
    # one-sided zero alone does not break T0
    d2 = validate_qpm([[0, 0], [1, 0]])
    assert is_T0(specialization_bitop(d2))


def _is_T0_by_pairs(b: BitopSpace) -> bool:
    """Reference: no pair of distinct points lies in each other's forward
    and backward neighborhoods."""
    for x in range(b.n):
        for y in range(x + 1, b.n):
            if (b.forward.nbhd[x] >> y & 1 and b.forward.nbhd[y] >> x & 1
                    and b.backward.nbhd[x] >> y & 1 and b.backward.nbhd[y] >> x & 1):
                return False
    return True


def test_t0_matches_the_pairwise_reference_on_every_small_pair():
    pairs = 0
    for n in range(1, 5):
        points = tuple(range(n))
        topologies = [AlexandrovTopology(points=points, nbhd=p.rows) for p in all_preorders(n)]
        for fwd, bwd in itertools.product(topologies, repeat=2):
            b = BitopSpace(forward=fwd, backward=bwd)
            assert is_T0(b) == _is_T0_by_pairs(b), (fwd.nbhd, bwd.nbhd)
            pairs += 1
    assert pairs == 126_883


def test_modular_bitop_zero_sets():
    fam = QuasiModularFamily(
        points=("a", "b"),
        gauges=(
            (ScaleGauge.constant(0), ScaleGauge.constant(0)),
            (ScaleGauge.homogeneous(1), ScaleGauge.constant(0)),
        ),
    )
    b = modular_bitop(fam)
    assert b.forward.min_nbhd(0) == {0, 1}
    assert b.forward.min_nbhd(1) == {1}
    assert b.backward.min_nbhd(0) == {0}
    assert b.backward.min_nbhd(1) == {0, 1}


def test_modular_bitop_discrete_and_indiscrete():
    inj = QuasiModularFamily(
        points=("a", "b"),
        gauges=(
            (ScaleGauge.constant(0), ScaleGauge.homogeneous(1)),
            (ScaleGauge.homogeneous(2), ScaleGauge.constant(0)),
        ),
    )
    b = modular_bitop(inj)
    assert b.forward.min_nbhd(0) == {0} and b.backward.min_nbhd(1) == {1}
    flat = QuasiModularFamily(
        points=("a", "b"),
        gauges=(
            (ScaleGauge.constant(0), ScaleGauge.constant(0)),
            (ScaleGauge.constant(0), ScaleGauge.constant(0)),
        ),
    )
    f = modular_bitop(flat)
    assert f.forward.min_nbhd(0) == {0, 1}


@settings(max_examples=20, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 4))
def test_modular_join_identity(seed, n):
    from qconn import symmetrize_family
    fam = rng_family(random.Random(seed), n)
    lhs = modular_bitop(symmetrize_family(fam)).forward.nbhd
    rhs = join(modular_bitop(fam)).nbhd
    assert lhs == rhs


def test_float_tolerance_zero_relation():
    line = AsymNormSample(dimension=1, p=Fraction(2),
                          points=((Fraction(0),), (Fraction(1, 10**12),)))
    d = from_asym_norm(line, mode="float", tol=1e-9)
    assert d.d(0, 1) > 0 and d.is_zero(d.d(0, 1))
    b = specialization_bitop(d)
    assert b.forward.min_nbhd(0) == {0, 1}  # below tolerance counts as zero
