import dataclasses
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import rng_qpm
from qconn import (
    AsymNormSample,
    EventuallyPeriodicSeq,
    formal_ball_poset,
    forward_limits,
    from_asym_norm,
    is_left_k_cauchy,
    join,
    join_compactness_check,
    precompact_report,
    scale_connectivity,
    smyth_report,
    specialization_bitop,
    validate_qpm,
)
from qconn.bitopology import AlexandrovTopology
from qconn.completion import FormalBall, _first_fit_cover, _slack_table
from qconn.errors import NegativeRadius, NonPositiveEpsilon, NotCauchy, PreconditionFailed
from qconn.numbers import ZERO, enn
from qconn.relations import is_closed, scc_masks, transpose

RADII = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(2)]


def test_constant_sequence_is_cauchy():
    d = validate_qpm([[0, 1], [1, 0]])
    s = EventuallyPeriodicSeq(preperiod=(1, 0, 1), period=(0,))
    assert is_left_k_cauchy(d, s)
    assert 0 in forward_limits(d, s)


def test_alternating_zero_pair_is_cauchy():
    d = validate_qpm([[0, 0], [0, 0]])
    s = EventuallyPeriodicSeq(preperiod=(), period=(0, 1))
    assert is_left_k_cauchy(d, s)
    assert forward_limits(d, s) == {0, 1}


def test_alternating_positive_distance_not_cauchy():
    d = validate_qpm([[0, 1], [1, 0]])
    s = EventuallyPeriodicSeq(preperiod=(), period=(0, 1))
    assert not is_left_k_cauchy(d, s)
    with pytest.raises(NotCauchy):
        forward_limits(d, s)


def test_preperiod_is_irrelevant():
    d = validate_qpm([[0, 1], [1, 0]])
    bumpy = EventuallyPeriodicSeq(preperiod=(0, 1, 0, 1), period=(1,))
    assert is_left_k_cauchy(d, bumpy)


def test_limit_includes_zero_followers():
    # period {a}; c sits at forward distance 0 from a
    d = validate_qpm([[0, 0], [1, 0]])
    s = EventuallyPeriodicSeq(preperiod=(), period=(0,))
    assert forward_limits(d, s) == {0, 1}


def test_one_sided_zero_cycle_is_not_cauchy():
    # d(a,b) = 0 but d(b,a) = 1: the pair recurs in both orders, so the
    # alternating sequence is not directionally Cauchy
    d = validate_qpm([[0, 0], [1, 0]])
    s = EventuallyPeriodicSeq(preperiod=(), period=(0, 1))
    assert not is_left_k_cauchy(d, s)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 7))
def test_every_zero_class_sequence_has_limits(seed, n):
    d = rng_qpm(random.Random(seed), n)
    report = smyth_report(d)
    for cls in report["classes"]:
        seq = EventuallyPeriodicSeq(preperiod=(), period=tuple(cls["class"]))
        assert is_left_k_cauchy(d, seq)
        limits = forward_limits(d, seq)
        assert limits
        assert set(cls["forward_limits"]) == limits
        assert set(cls["class"]) <= limits


def test_smyth_discrete_witnesses_are_the_points():
    d = validate_qpm([[0, 1], [1, 0]])
    report = smyth_report(d)
    assert [c["class"] for c in report["classes"]] == [[0], [1]]
    assert [c["forward_limits"] for c in report["classes"]] == [[0], [1]]


def test_smyth_zero_metric_everything_limits():
    d = validate_qpm([[0, 0], [0, 0]])
    report = smyth_report(d)
    assert [c["forward_limits"] for c in report["classes"]] == [[0, 1]]


# -- covers -----------------------------------------------------------------


def test_cover_size_at_most_carrier():
    d = rng_qpm(random.Random(1), 6)
    report = precompact_report(d, [Fraction(1, 2)])
    assert report["covers"][0]["size"] <= d.n


def test_zero_metric_cover_size_one():
    d = validate_qpm([[0, 0, 0], [0, 0, 0], [0, 0, 0]])
    report = precompact_report(d, [Fraction(1)])
    assert report["covers"][0]["size"] == 1


def test_three_cycle_small_eps_needs_all_points():
    from qconn import WeightedDigraph, from_digraph
    g = WeightedDigraph(
        vertices=("0", "1", "2"),
        edges=(("0", "1", enn(1)), ("1", "2", enn(1)), ("2", "0", enn(1))),
    )
    d = from_digraph(g)
    report = precompact_report(d, [Fraction(1, 2)])
    assert report["covers"][0]["size"] == 3


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 8))
def test_cover_sizes_monotone_in_eps(seed, n):
    d = rng_qpm(random.Random(seed), n)
    thresholds = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(4), Fraction(8)]
    report = precompact_report(d, thresholds)
    sizes = [c["size"] for c in report["covers"]]
    assert sizes == sorted(sizes, reverse=True)


def test_carried_cover_beats_nonmonotone_first_fit():
    # first-fit alone can grow with eps: at eps=2 the hub point 1 gets
    # covered by point 0's ball and is skipped as a center
    m = [
        [enn(0), enn("3/2"), enn(2), enn(2)],
        [enn(4), enn(0), enn("1/2"), enn("1/2")],
        [enn(4), enn(4), enn(0), enn(4)],
        [enn(4), enn(4), enn(4), enn(0)],
    ]
    d = validate_qpm(m)
    assert len(_first_fit_cover(d.ball_rows(Fraction(1)))) == 2
    assert len(_first_fit_cover(d.ball_rows(Fraction(2)))) == 3
    report = precompact_report(d, [Fraction(1), Fraction(2)])
    sizes = [c["size"] for c in report["covers"]]
    assert sizes == [2, 2]


def test_join_compactness_chain():
    d = rng_qpm(random.Random(3), 5)
    report = join_compactness_check(d)
    nbhd = join(specialization_bitop(d)).nbhd
    assert len(report["smyth_report"]["classes"]) == len(set(nbhd))
    assert all(row >> x & 1 for x, row in enumerate(nbhd))  # the cover covers


def test_join_compactness_check_builds_no_topology(monkeypatch):
    built = []
    check = AlexandrovTopology.__post_init__
    monkeypatch.setattr(AlexandrovTopology, "__post_init__",
                        lambda self: built.append(self) or check(self))
    rng = random.Random(11)
    for n in (1, 4, 9, 20):
        d = rng_qpm(rng, n)
        size = len(join_compactness_check(d)["smyth_report"]["classes"])
        assert built == []
        assert size == len(set(join(specialization_bitop(d)).nbhd))
        built.clear()  # the oracle's topologies


# -- formal balls -----------------------------------------------------------


@pytest.mark.parametrize("report", [smyth_report, join_compactness_check])
def test_float_mode_zero_cycle_without_clique_is_a_precondition(report):
    # d(v0,v1) and d(v1,v2) are within tol = 1e-9, d(v0,v2) is not: the
    # zero relation is not transitive, so from_asym_norm refuses the sample
    # and no report sees a zero cycle that is not a zero clique
    line = AsymNormSample(dimension=1, p=Fraction(2), points=(
        (Fraction(0),), (Fraction("6e-10"),), (Fraction("12e-10"),)))
    with pytest.raises(PreconditionFailed,
                       match=f"y=1 in N\\(0\\) .* tolerance {Fraction(1e-9)} do not compose$"):
        report(from_asym_norm(line, mode="float", tol=1e-9))


@pytest.mark.parametrize("radius", [Fraction(1, 10**11), Fraction(1e-9)],
                         ids=["below-tol", "at-tol"])
@pytest.mark.parametrize("gap", [Fraction("1e-10"), Fraction(1e-9)],
                         ids=["below-tol", "at-tol"])
def test_float_mode_balls_hold_the_zero_class(radius, gap):
    # d(v0, v1) is within tol = 1e-9, so v0 and v1 form one zero class, and
    # every ball holds it, also one whose radius is at most the tolerance
    sample = AsymNormSample(dimension=1, p=Fraction(2), points=((Fraction(0),), (gap,)))
    d = from_asym_norm(sample, mode="float", tol=1e-9)
    assert smyth_report(d)["classes"][0]["class"] == [0, 1]
    assert scale_connectivity(d, radius) == ([[0, 1]], [[0, 1]])
    assert precompact_report(d, [radius])["covers"][0]["centers"] == [0]


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 6), st.integers(1, 2))
def test_float_mode_metrics_meet_the_deleted_checks(seed, n, dim):
    """A float-mode metric either is refused at construction, naming the
    tolerance, or has a zero diagonal and a transitive zero relation; the
    checks those invariants made unreachable then pass as oracles."""
    rng = random.Random(seed)
    tol = Fraction(1e-9)
    pts = tuple(tuple(rng.randint(0, 5) * tol / 2 for _ in range(dim)) for _ in range(n))
    try:
        d = from_asym_norm(AsymNormSample(dimension=dim, p=Fraction(2), points=pts),
                           mode="float", tol=float(tol))
    except PreconditionFailed as exc:
        assert f"tolerance {tol} do not compose" in str(exc)
        return
    zero = d.zero_mask_rows()
    assert all(d.rows[x][x] == 0 for x in range(n))
    assert all(is_closed(zero, row) for row in zero)
    for cls in scc_masks(zero):  # smyth_report's classes are zero cliques
        assert all(zero[x] & cls == cls for x in range(n) if cls >> x & 1)
    # every cover covers, at thresholds below the tolerance too
    for cover in precompact_report(d, [tol / 4, tol / 2, tol, 3 * tol, 1])["covers"]:
        balls = d.ball_rows(Fraction(cover["eps"]))
        union = 0
        for c in cover["centers"]:
            union |= balls[c]
        assert union == (1 << n) - 1
    # the formal-ball order from its definition, and formal_ball_poset's where it is built
    radii = [Fraction(0), tol / 2, tol, Fraction(1)]
    balls = [(x, r) for x in range(n) for r in radii]
    le = [sum(1 << b for b, (y, s) in enumerate(balls)
              if r >= s and d.d(x, y) <= r - s) for x, r in balls]
    try:
        assert formal_ball_poset(d, radii).le_rows == tuple(le)
    except PreconditionFailed as exc:
        assert "transitivity" in str(exc) and not all(is_closed(le, row) for row in le)
    assert all(row >> a & 1 for a, row in enumerate(le))
    for a, (row, col) in enumerate(zip(le, transpose(le))):
        for b in range(len(balls)):
            if a != b and (row & col) >> b & 1:
                (x, r), (y, s) = balls[a], balls[b]
                assert r == s and zero[x] >> y & 1 and zero[y] >> x & 1


def test_formal_ball_reflexive_and_hand_example():
    d = validate_qpm([[0, 1], [2, 0]])
    poset = formal_ball_poset(d, RADII)
    idx = {(b.point, b.radius): t for t, b in enumerate(poset.elements)}
    for t in range(len(poset.elements)):
        assert poset.le(t, t)
    # d(a,b) = 1: (a,2) below-refines to (b,1) since 1 <= 2 - 1
    assert poset.le(idx[(0, Fraction(2))], idx[(1, Fraction(1))])
    assert not poset.le(idx[(0, Fraction(1))], idx[(1, Fraction(1))])


def test_formal_ball_zero_radius_maximal():
    d = validate_qpm([[0, 1], [2, 0]])
    poset = formal_ball_poset(d, RADII)
    idx = {(b.point, b.radius): t for t, b in enumerate(poset.elements)}
    a0 = idx[(0, Fraction(0))]
    for t in range(len(poset.elements)):
        if poset.le(a0, t) and t != a0:
            other = poset.elements[t]
            assert other.radius == 0
            assert d.is_zero(d.d(0, other.point))


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_formal_ball_laws_on_random_metrics(seed, n):
    d = rng_qpm(random.Random(seed), n)
    poset = formal_ball_poset(d, RADII)  # reflexivity/transitivity asserted inside
    m = len(poset.elements)
    assert m == n * len(RADII)
    # spot-check transitivity independently on a few triples
    rng = random.Random(seed ^ 1)
    for _ in range(20):
        a, b, c = (rng.randrange(m) for _ in range(3))
        if poset.le(a, b) and poset.le(b, c):
            assert poset.le(a, c)


def test_zero_threshold_is_not_a_negative_radius():
    with pytest.raises(NonPositiveEpsilon, match="^thresholds must be positive, got 0$"):
        precompact_report(validate_qpm([[0]]), [2, 0, 1])


def test_formal_ball_negative_radius_rejected():
    d = validate_qpm([[0]])
    with pytest.raises(NegativeRadius):
        formal_ball_poset(d, [Fraction(-1)])
    with pytest.raises(NegativeRadius):
        FormalBall(point=0, radius=Fraction(-1))


def test_formal_ball_poset_elements_equal_the_public_balls():
    d = validate_qpm([[0, 1, 2], [1, 0, 1], [2, 2, 0]])
    radii = [Fraction(0), Fraction(1, 2), Fraction(2)]
    poset = formal_ball_poset(d, [2, "1/2", 0])
    assert poset.elements == tuple(FormalBall(point=x, radius=r)
                                   for x in range(3) for r in radii)
    assert [hash(b) for b in poset.elements] == [
        hash(FormalBall(point=x, radius=r)) for x in range(3) for r in radii]
    with pytest.raises(dataclasses.FrozenInstanceError):
        poset.elements[0].radius = Fraction(-1)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_formal_ball_order_and_covers_match_brute_force(seed, n):
    rng = random.Random(seed)
    d = rng_qpm(rng, n)
    radii = sorted({Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 7]))
                    for _ in range(rng.randint(1, 4))})
    poset = formal_ball_poset(d, radii)
    balls = poset.elements
    m = len(balls)
    le = [[d.d(a.point, b.point) <= a.radius - b.radius if a.radius >= b.radius else False
           for b in balls] for a in balls]
    assert [[poset.le(a, b) for b in range(m)] for a in range(m)] == le
    strict = [[le[a][b] and not le[b][a] for b in range(m)] for a in range(m)]
    covers = [(a, b) for a in range(m) for b in range(m) if strict[a][b]
              and not any(strict[a][c] and strict[c][b] for c in range(m))]
    assert poset.hasse_edges() == covers


def test_hasse_dot_renders():
    from qconn.dot import hasse_dot
    d = validate_qpm([[0, 1], [2, 0]])
    poset = formal_ball_poset(d, [Fraction(0), Fraction(1), Fraction(2)])
    text = hasse_dot(poset)
    assert text.startswith("digraph formal_balls {")
    assert "->" in text


def test_float_mode_formal_ball_order_without_transitivity_is_a_precondition():
    # the sample and radii of test_cli's float-mode formal-ball case: the
    # triangle defect is below the tolerance, so from_asym_norm accepts it,
    # but the exact order d(x,y) <= r - s on these radii is not transitive
    sample = AsymNormSample(dimension=2, p=Fraction(2), points=tuple(
        tuple(map(Fraction, v)) for v in (("1/4", "-7/5"), ("-7", "-4/5"), ("7/5", "-4"))))
    d = from_asym_norm(sample, mode="float", tol=1e-9)
    radii = [0, Fraction(2589569785738035, 2251799813685248),
             Fraction(18915118434956083, 2251799813685248)]
    with pytest.raises(PreconditionFailed,
                       match=f"lost transitivity.* the tolerance {Fraction(1e-9)}$"):
        formal_ball_poset(d, radii)


# -- exact-mode laws and the replaced loops, kept as oracles -----------------


def _fraction_slack_table(radii, den):
    """The slack table from one Fraction subtraction per pair of radii."""
    return [[(r - s).numerator * den // (r - s).denominator for s in radii[:t + 1]]
            for t, r in enumerate(radii)]


def _quadruple_le_rows(d, radii):
    """The formal-ball order by walking every (x, y, r_t, r_u)."""
    radii = sorted({Fraction(r) for r in radii})
    k = len(radii)
    slack = _fraction_slack_table(radii, d.den)
    rows = []
    for row in d.rows:
        for caps in slack:
            mask = 0
            for y, v in enumerate(row):
                for u, cap in enumerate(caps):
                    if v > cap:
                        break
                    mask |= 1 << (y * k + u)
            rows.append(mask)
    return tuple(rows)


@settings(max_examples=80, derandomize=True)
@given(st.integers(0, 10**9))
def test_integer_slack_table_matches_fraction_subtraction(seed):
    rng = random.Random(seed)
    primes = [2, 3, 7, 11, 101, 65537, 2**61 - 1]
    radii = [Fraction(rng.randint(0, 10**6), rng.choice(primes + [1, 4, 12, 360]))
             for _ in range(rng.randint(1, 30))]
    radii += rng.sample(radii, rng.randint(0, len(radii)))  # duplicates
    radii.append(Fraction(0))
    radii.sort()
    den = rng.choice(primes + [1, 6, 10**9, rng.randint(1, 10**12)])
    assert _slack_table(radii, den) == _fraction_slack_table(radii, den)


def _exact_metric(seed, n):
    rng = random.Random(seed)
    return rng, rng_qpm(rng, n, density=rng.choice([0.2, 0.4, 0.8]))


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 20),
       st.sampled_from(["zero", "duplicates", "random", "many"]))
def test_le_rows_match_quadruple_loop(seed, n, radii_kind):
    rng, d = _exact_metric(seed, n)
    if radii_kind == "zero":
        radii = [Fraction(0)]
    elif radii_kind == "many":  # past one byte of radii, and of points when n > 8
        radii = rng.sample(sorted({Fraction(a, b) for a in range(13) for b in (1, 2, 3, 7)}),
                           rng.randint(9, 16))
    else:
        radii = [Fraction(rng.randint(0, 12), rng.choice([1, 2, 3, 7]))
                 for _ in range(rng.randint(1, 4))]
        if radii_kind == "duplicates":
            radii += radii[:2]
    assert formal_ball_poset(d, radii).le_rows == _quadruple_le_rows(d, radii)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 7))
def test_exact_formal_ball_order_obeys_the_laws(seed, n):
    rng, d = _exact_metric(seed, n)
    radii = sorted({Fraction(rng.randint(0, 8), rng.choice([1, 2, 3])) for _ in range(3)})
    p = formal_ball_poset(d, radii)
    m = len(p.elements)
    for a in range(m):
        assert p.le(a, a)
        for b in range(m):
            if not p.le(a, b):
                continue
            assert all(p.le(a, c) for c in range(m) if p.le(b, c))
            if a != b and p.le(b, a):
                ba, bb = p.elements[a], p.elements[b]
                assert ba.radius == bb.radius
                assert d.is_zero(d.d(ba.point, bb.point))
                assert d.is_zero(d.d(bb.point, ba.point))


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 10))
def test_exact_covers_cover_and_zero_classes_are_cliques(seed, n):
    rng, d = _exact_metric(seed, n)
    thresholds = [Fraction(rng.randint(1, 12), rng.choice([1, 2, 3])) for _ in range(4)]
    for cover in precompact_report(d, thresholds)["covers"]:
        balls = d.ball_rows(Fraction(cover["eps"]))
        covered = {y for c in cover["centers"] for y in range(n) if balls[c] >> y & 1}
        assert covered == set(range(n))
    for cls in smyth_report(d)["classes"]:
        members = cls["class"]
        assert all(d.is_zero(d.d(x, y)) for x in members for y in members)
