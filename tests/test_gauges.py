import itertools
import random
import re
from collections import Counter
from dataclasses import replace
from fractions import Fraction
from math import inf, lcm

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import rng_digraph, rng_qpm, rng_vectors
from qconn import (
    AsymNormSample,
    WeightedDigraph,
    conjugate,
    from_asym_norm,
    from_digraph,
    symmetrization_gap_report,
    symmetrize,
    validate_qpm,
)
from qconn.errors import NonRepresentable, PreconditionFailed, QpmValidationError
from qconn.gauges import (
    NonZeroDiagonal,
    TriangleViolation,
    _metric,
    _scale,
    qpm_violations,
)
from qconn.numbers import INF, ZERO, enn, exact_root


def test_validate_symmetric_metric():
    d = validate_qpm([[0, 1], [1, 0]])
    assert d.d(0, 1) == enn(1)


def test_validate_reports_triangle_triple():
    with pytest.raises(QpmValidationError) as err:
        validate_qpm([["0", "1", "5"], ["inf", "0", "1"], ["inf", "inf", "0"]])
    triples = [(v.i, v.j, v.k) for v in err.value.violations
               if isinstance(v, TriangleViolation)]
    assert (0, 1, 2) in triples


def test_validate_reports_diagonal():
    with pytest.raises(QpmValidationError) as err:
        validate_qpm([["1", "1"], ["1", "0"]])
    assert any(isinstance(v, NonZeroDiagonal) and v.i == 0
               for v in err.value.violations)


def test_validate_infinity_allowed():
    # oracle: check every triple of the candidate by direct arithmetic
    m = [[enn(0), enn(1)], [INF, enn(0)]]
    for i, j, k in itertools.product(range(2), repeat=3):
        assert m[i][k] <= m[i][j] + m[j][k]
    d = validate_qpm(m)
    assert d.d(1, 0) is INF


# -- integer kernel against a Fraction brute force ---------------------------

PRIMES = [p for p in range(2, 200) if all(p % q for q in range(2, p))]


def _oracle_violations(matrix):
    """Every nonzero diagonal entry, then every (i, j, k) in lexicographic
    order with d(i,k) > d(i,j) + d(j,k), by Fraction arithmetic with None
    for infinity."""
    n = len(matrix)
    vals = [[None if v is INF else v for v in row] for row in matrix]
    bad = [NonZeroDiagonal(i, matrix[i][i]) for i in range(n)
           if vals[i][i] is None or vals[i][i] > 0]
    for i, j, k in itertools.product(range(n), repeat=3):
        a, b, c = vals[i][k], vals[i][j], vals[j][k]
        if b is not None and c is not None and (a is None or a > b + c):
            bad.append(TriangleViolation(i, j, k, matrix[i][k], enn(b + c)))
    return bad


def _corrupted(rng, n, flavour):
    """A seeded matrix near the axioms: a valid closure, then perturbed."""
    base = rng_qpm(rng, n)
    m = [[base.d(i, j) for j in range(n)] for i in range(n)]
    for _ in range(rng.randint(1, n)):
        i, j = rng.randrange(n), rng.randrange(n)
        if flavour == "inf":
            m[i][j] = rng.choice([INF, ZERO, enn(rng.randint(1, 9))])
        elif flavour == "zero_row":
            m[i] = [ZERO] * n
    if flavour == "coprime":
        # every finite entry moves by a fraction with its own prime denominator
        m = [[v if v is INF else
              enn(max(Fraction(0), v + Fraction(rng.randint(-2, 2), rng.choice(PRIMES))))
              for v in row] for row in m]
    return m


@settings(max_examples=120, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 7),
       st.sampled_from(["inf", "zero_row", "coprime"]))
def test_qpm_violations_match_fraction_oracle(seed, n, flavour):
    matrix = _corrupted(random.Random(seed), n, flavour)
    expected = _oracle_violations(matrix)
    assert qpm_violations(matrix) == expected
    if expected:
        with pytest.raises(QpmValidationError) as info:
            validate_qpm(matrix)
        assert info.value.violations == expected
    else:
        assert validate_qpm(matrix).dist == tuple(map(tuple, matrix))


def _scaled_at(matrix, tol):
    """``_scale(matrix)`` on a denominator that is also a multiple of tol's,
    as ``_metric`` needs for a float-mode metric."""
    den, rows = _scale(matrix)
    k = lcm(den, tol.denominator) // den
    return den * k, [[v * k for v in row] for row in rows]


def test_float_tolerance_is_exact_at_the_boundary():
    tol = Fraction(1e-9)
    d = _metric(["0", "1"], *_scaled_at([[0, tol], [tol + Fraction(1, 2**90), 0]], tol), tol)
    assert d.zero_mask_rows() == [0b11, 0b10]
    assert d.positive_spectrum() == [tol + Fraction(1, 2**90)]


def test_conjugate_is_transpose():
    d = validate_qpm([["0", "1"], ["inf", "0"]])
    c = conjugate(d)
    assert c.d(0, 1) is INF and c.d(1, 0) == enn(1)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_conjugate_involution(seed, n):
    d = rng_qpm(random.Random(seed), n)
    assert conjugate(conjugate(d)).dist == d.dist


def test_conjugate_fixes_symmetric():
    d = validate_qpm([[0, 2], [2, 0]])
    assert conjugate(d).dist == d.dist


def test_symmetrize_examples():
    d = validate_qpm([["0", "1"], ["inf", "0"]])
    s = symmetrize(d)
    assert s.d(0, 1) is INF and s.d(1, 0) is INF
    d2 = validate_qpm([[0, 1], [2, 0]])
    s2 = symmetrize(d2)
    assert s2.d(0, 1) == enn(2) and s2.d(1, 0) == enn(2)


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 6))
def test_symmetrize_laws(seed, n):
    d = rng_qpm(random.Random(seed), n)
    s = symmetrize(d)
    assert symmetrize(s).dist == s.dist  # idempotent
    c = conjugate(d)
    for i in range(n):
        for j in range(n):
            assert d.d(i, j) <= s.d(i, j)
            assert c.d(i, j) <= s.d(i, j)
            assert s.d(i, j) == s.d(j, i)


# -- digraph closure --------------------------------------------------------


def _oracle_path_infimum(g: WeightedDigraph, i: int, j: int):
    """Brute-force minimum over simple paths (independent of the closure)."""
    n = len(g.vertices)
    if i == j:
        return ZERO
    adj = {}
    for u, v, w in g.edges:
        a, b = g.vertices.index(u), g.vertices.index(v)
        if a != b and (a, b) not in adj or (a, b) in adj and w < adj[(a, b)]:
            adj[(a, b)] = w
    best = [INF]

    def walk(at, seen, cost):
        if at == j:
            if cost < best[0]:
                best[0] = cost
            return
        for b in range(n):
            if not seen >> b & 1 and (at, b) in adj:
                walk(b, seen | 1 << b, cost + adj[(at, b)])

    walk(i, 1 << i, ZERO)
    return best[0]


def test_from_digraph_chain():
    g = WeightedDigraph(vertices=("0", "1", "2"),
                        edges=(("0", "1", enn(1)), ("1", "2", enn(2))))
    d = from_digraph(g)
    assert d.d(0, 2) == enn(3)
    assert d.d(2, 0) is INF


def test_from_digraph_no_edges():
    d = from_digraph(WeightedDigraph(vertices=("a", "b"), edges=()))
    assert d.d(0, 1) is INF and d.d(1, 0) is INF
    assert d.d(0, 0) == ZERO


def test_from_digraph_two_cycle():
    g = WeightedDigraph(vertices=("0", "1"),
                        edges=(("0", "1", enn(1)), ("1", "0", enn(1))))
    d = from_digraph(g)
    assert d.d(0, 1) == enn(1) and d.d(1, 0) == enn(1)
    assert d.d(0, 0) == ZERO  # pinned, the 2-cycle does not lower it


def test_from_digraph_parallel_edges_resolved_by_min():
    g = WeightedDigraph(vertices=("0", "1"),
                        edges=(("0", "1", enn(5)), ("0", "1", enn(2))))
    assert from_digraph(g).d(0, 1) == enn(2)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 6))
def test_from_digraph_matches_path_oracle(seed, n):
    g = rng_digraph(random.Random(seed), n)
    rng = random.Random(seed + 1)
    coprime = WeightedDigraph(vertices=g.vertices, edges=tuple(
        (u, v, enn(Fraction(rng.randint(0, 400), rng.choice(PRIMES)))) for u, v, _ in g.edges))
    for graph in (g, coprime):
        d = from_digraph(graph)
        assert qpm_violations(d.dist) == []  # from_digraph does not re-validate
        for i in range(n):
            for j in range(n):
                assert d.d(i, j) == _oracle_path_infimum(graph, i, j)


def _oracle_strongly_connected(g: WeightedDigraph) -> bool:
    """Reachability on the raw edge list, no weights involved."""
    n = len(g.vertices)
    idx = {v: t for t, v in enumerate(g.vertices)}
    succ = [set() for _ in range(n)]
    for u, v, _ in g.edges:
        succ[idx[u]].add(idx[v])

    def reach(start, nbrs):
        seen = {start}
        todo = [start]
        while todo:
            at = todo.pop()
            for b in nbrs(at):
                if b not in seen:
                    seen.add(b)
                    todo.append(b)
        return seen

    if len(reach(0, lambda a: succ[a])) != n:
        return False
    pred = [set() for _ in range(n)]
    for a in range(n):
        for b in succ[a]:
            pred[b].add(a)
    return len(reach(0, lambda a: pred[a])) == n


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 7))
def test_finiteness_iff_strongly_connected(seed, n):
    g = rng_digraph(random.Random(seed), n)
    d = from_digraph(g)
    all_finite = all(d.d(i, j) is not INF for i in range(n) for j in range(n))
    assert all_finite == _oracle_strongly_connected(g)


# -- one-sided lp gauges ----------------------------------------------------


def test_asym_norm_hand_example():
    s = AsymNormSample(dimension=2, p=Fraction(1),
                       points=((Fraction(0), Fraction(0)),
                               (Fraction(2), Fraction(-1))))
    d = from_asym_norm(s)
    assert d.d(0, 1) == enn(2)
    assert d.d(1, 0) == enn(1)


def test_asym_norm_identical_points():
    s = AsymNormSample(dimension=2, p=Fraction(1),
                       points=((Fraction(1), Fraction(2)),
                               (Fraction(1), Fraction(2))))
    d = from_asym_norm(s)
    assert d.d(0, 1) == ZERO and d.d(1, 0) == ZERO


def test_mixed_sign_fixture_gap():
    # x = (1,-1) against the origin: both one-sided gauges are 1 while the
    # full l1 norm is 2, so the max does not reach the full norm
    x = (Fraction(1), Fraction(-1))
    o = (Fraction(0), Fraction(0))
    fwd = one_sided_lp(o, x, Fraction(1))
    bwd = one_sided_lp(x, o, Fraction(1))
    assert fwd == enn(1) and bwd == enn(1)
    s = AsymNormSample(dimension=2, p=Fraction(1), points=(x, o))
    report = symmetrization_gap_report(s)
    assert report["equality_claim_holds"] is False
    (pair,) = report["pairs"]
    assert pair["max_one_sided"] == "1" and pair["full_norm"] == "2"
    assert report["equivalence_constants"] == ["1", "2"]


@settings(max_examples=40, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 6), st.integers(1, 4))
def test_norm_sandwich(seed, count, dim):
    s = rng_vectors(random.Random(seed), count, dim)
    for i in range(count):
        for j in range(count):
            fwd = one_sided_lp(s.points[i], s.points[j], Fraction(1))
            bwd = one_sided_lp(s.points[j], s.points[i], Fraction(1))
            full = sum(abs(b - a) for a, b in zip(s.points[i], s.points[j]))
            assert max(fwd, bwd) <= full <= fwd + bwd


def test_exact_mode_integer_p_with_rational_root():
    s = AsymNormSample(dimension=2, p=Fraction(2),
                       points=((Fraction(0), Fraction(0)),
                               (Fraction(3), Fraction(4))))
    d = from_asym_norm(s)
    assert d.d(0, 1) == enn(5)


def test_exact_mode_rejects_irrational_root():
    s = AsymNormSample(dimension=2, p=Fraction(2),
                       points=((Fraction(0), Fraction(0)),
                               (Fraction(1), Fraction(1))))
    with pytest.raises(NonRepresentable):
        from_asym_norm(s)


def test_float_mode_records_tolerance():
    s = AsymNormSample(dimension=2, p=Fraction(2),
                       points=((Fraction(0), Fraction(0)),
                               (Fraction(1), Fraction(1))))
    d = from_asym_norm(s, mode="float", tol=1e-9)
    assert d.tol == Fraction(1e-9)
    approx = d.d(0, 1)
    assert abs(float(approx) - 2**0.5) < 1e-9


# gauges whose plain float formula overflows, but which the formula with
# the largest difference factored out holds
HELD = {(("0",), ("1e200",)): 1e200,
        (("0", "0"), ("13e153", "13e153")): 13e153 * 2.0 ** 0.5}


@pytest.mark.parametrize("coords", [
    (("0",), ("1e200",)),                    # a squared difference overflows
    (("0", "0"), ("13e153", "13e153")),      # each square fits, their sum does not
    (("0",), ("1e350",)),                    # the difference itself is past the range
    (("1e350",), ("0",)),                    # the same, in the backward gauge only
])
def test_float_mode_gauge_overflow_is_named(coords):
    pts = tuple(tuple(Fraction(c) for c in v) for v in coords)
    s = AsymNormSample(dimension=len(pts[0]), p=Fraction(2), points=pts)
    if coords in HELD:
        d = from_asym_norm(s, mode="float", tol=1e-9)
        assert (d.d(0, 1), d.d(1, 0)) == (enn(HELD[coords]), ZERO)
        return
    forward = coords[1][0] != "0"
    with pytest.raises(NonRepresentable, match="from v0 to v1" if forward else "from v1 to v0"):
        from_asym_norm(s, mode="float", tol=1e-9)


def test_float_mode_gauge_with_a_large_exponent_is_held():
    # 2.0 ** 2000.0 overflows; the gauge is 2
    s = AsymNormSample(dimension=1, p=Fraction(2000), points=((Fraction(0),), (Fraction(2),)))
    d = from_asym_norm(s, mode="float", tol=1e-9)
    assert (d.d(0, 1), d.d(1, 0)) == (enn(2), ZERO)
    # 1.5e308 * 2 ** (1/2) is past the float range even when factored
    big = Fraction(15 * 10**307)
    s = AsymNormSample(dimension=2, p=Fraction(2),
                       points=((Fraction(0), Fraction(0)), (big, big)))
    with pytest.raises(NonRepresentable, match="from v0 to v1"):
        from_asym_norm(s, mode="float", tol=1e-9)


# -- the Fraction kernel, kept as the reference of the integer gauges ---------


def _pos_part(x: Fraction) -> Fraction:
    return x if x > 0 else Fraction(0)


def one_sided_lp(x: tuple[Fraction, ...], y: tuple[Fraction, ...],
                 p: Fraction) -> Fraction:
    """Exact forward gauge from x to y: (sum_k max(y_k - x_k, 0)^p)^(1/p),
    or ``NonRepresentable`` when the root is irrational.  Float gauges are
    ``_float_lp``'s."""
    deltas = [_pos_part(b - a) for a, b in zip(x, y)]
    if p == 1:
        return sum(deltas, Fraction(0))
    if p.denominator != 1:
        if all(t == 0 for t in deltas):
            return ZERO
        raise NonRepresentable(p, "non-integer exponent in exact mode")
    power = int(p)
    s = sum((t**power for t in deltas), Fraction(0))
    root = exact_root(s, power)
    if root is None:
        raise NonRepresentable(p, f"{s} has no exact {power}-th root")
    return root


# -- float mode against its Fraction-based reference -------------------------


def reference_float_lp(x, y, p):
    """The float-mode branch of ``one_sided_lp`` before float gauges were
    computed from integer vectors, kept as their oracle without its p = 1
    branch, which float mode refuses: every difference a Fraction, then a
    float, and ``math.inf`` on overflow."""
    deltas = [_pos_part(b - a) for a, b in zip(x, y)]
    try:
        return sum(float(t) ** float(p) for t in deltas) ** (1.0 / float(p))
    except OverflowError:
        return inf


def reference_float_metric(s, tol):
    """``from_asym_norm(s, mode="float", tol)`` built from
    ``reference_float_lp``, with each value scaled back through ``enn``
    by ``_scale``.  A gauge the reference overflows on is recomputed with
    its largest Fraction difference m factored out."""
    labels = [f"v{i}" for i in range(len(s.points))]

    def gauge(x, y):
        g = reference_float_lp(x, y, s.p)
        if g != inf:
            return g
        try:
            ts = [float(b - a) for a, b in zip(x, y) if b > a]
        except OverflowError:
            return inf
        m = max(ts)
        return m * sum((t / m) ** float(s.p) for t in ts) ** (1.0 / float(s.p))

    dist = [[ZERO if i == j else gauge(x, y) for j, y in enumerate(s.points)]
            for i, x in enumerate(s.points)]
    for x, row in enumerate(dist):
        for y, v in enumerate(row):
            if v == inf:
                raise NonRepresentable(s.p, f"from {labels[x]} to {labels[y]}")
    tol = Fraction(tol)
    d = _metric(labels, *_scaled_at(dist, tol), tol)
    zero = d._zero_rows
    for x, row in enumerate(zero):
        for y in range(d.n):
            if row >> y & 1 and zero[y] & ~row:
                raise PreconditionFailed("float-mode zero relation is not transitive")
    return d


def _float_sample(rng):
    """n up to 14, dimension 1-4, mixed denominators; about one sample in
    six carries a coordinate near or past the float range."""
    n, dim = rng.randint(0, 14), rng.randint(1, 4)
    p = rng.choice([Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 2)])
    dens = rng.choice([[1], [1, 2, 3], [7, 101, 1000], [10**10, 3]])
    pts = [[Fraction(rng.randint(-50, 50) * 10**rng.choice([0, 0, 0, 5, 12]), rng.choice(dens))
            for _ in range(dim)] for _ in range(n)]
    if n and rng.random() < 1 / 6:
        pts[rng.randrange(n)][rng.randrange(dim)] = Fraction(
            rng.choice([1, 13, 99]) * 10**rng.choice([103, 153, 200, 307, 350]))
    return AsymNormSample(dimension=dim, p=p, points=tuple(map(tuple, pts)))


def _outcome(build, s, tol):
    try:
        d = build(s, tol)
    except (NonRepresentable, PreconditionFailed) as exc:
        found = re.search(r"from v\d+ to v\d+", str(exc))
        return type(exc).__name__, found and found.group()
    return d.points, d.den, d.rows, d.tol, d.eps


def test_float_mode_matches_the_fraction_reference():
    """Samples are drawn at p != 1; the same sample at p = 1 is refused
    before any gauge is computed."""
    rng = random.Random(20261019)
    seen = Counter()
    for _ in range(400):
        s = _float_sample(rng)
        tol = rng.choice([1e-9, 1e-9, 1e-3, 0.0])
        with pytest.raises(ValueError, match="p = 1 gauge is exact"):
            from_asym_norm(replace(s, p=Fraction(1)), mode="float", tol=tol)
        seen["p1_refused"] += 1
        want = _outcome(reference_float_metric, s, tol)
        got = _outcome(lambda s, tol: from_asym_norm(s, mode="float", tol=tol), s, tol)
        assert got == want, (s, tol)
        seen[want[0] if isinstance(want[0], str) else "built"] += 1
        held = any(reference_float_lp(x, y, s.p) == inf for x in s.points for y in s.points)
        seen["held" if held and want[0] != "NonRepresentable" else "plain"] += 1
        if not isinstance(want[0], str) and _slack_refused(want[1], want[2], want[4]):
            seen["slack_refused"] += 1
    assert all(seen[k] > 0 for k in ("built", "held", "NonRepresentable", "PreconditionFailed",
                                      "slack_refused", "p1_refused")), seen


def _slack_refused(den, rows, eps):
    """Whether the triangle re-check that float mode ran before, with the
    slack rows[i][k] <= rows[i][j] + rows[j][k] + eps, refuses the rows."""
    return any(row_i[k] > dij + rows[j][k] + eps
               for row_i in rows for j, dij in enumerate(row_i) for k in range(len(rows)))


def test_p_below_one_rejected():
    with pytest.raises(ValueError):
        AsymNormSample(dimension=1, p=Fraction(1, 2), points=((Fraction(0),),))


# -- the threshold index against direct scans of the rows --------------------


def _scan(d, keep):
    return [sum(1 << j for j, v in enumerate(row) if keep(v)) for row in d.rows]


def _indexed_metric(rng, n, mode, outcomes):
    """Exact closures with inf and zero entries, or a float-mode metric
    whose entries lie below, on and above its tolerance.  A float sample
    whose zero relation is not transitive is refused by from_asym_norm and
    redrawn; ``outcomes`` counts refusals and metrics built."""
    if mode == "exact":
        return rng_qpm(rng, n, density=rng.choice([0.1, 0.4, 0.8]))
    while True:
        pts = tuple((Fraction(rng.randint(0, 4) * 5, 10**10), Fraction(rng.randint(-3, 3)))
                    for _ in range(n))
        try:
            d = from_asym_norm(AsymNormSample(dimension=2, p=Fraction(2), points=pts),
                               mode="float", tol=1e-9)
        except PreconditionFailed:
            outcomes["refused"] += 1
            continue
        outcomes["built"] += 1
        return d


def test_float_index_samples_reach_both_outcomes():
    outcomes, entries = Counter(), Counter()
    for seed in range(100):
        rng = random.Random(seed)
        d = _indexed_metric(rng, rng.randint(1, 8), "float", outcomes)
        for v in (v for row in d.rows for v in row if 0 < v < d.den):
            entries["below" if v < d.eps else "on" if v == d.eps else "above"] += 1
    assert outcomes["refused"] > 0 and outcomes["built"] == 100
    assert set(entries) == {"below", "on", "above"}


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 10**9), st.integers(1, 8), st.sampled_from(["exact", "float"]))
def test_threshold_index_matches_direct_scan(seed, n, mode):
    d = _indexed_metric(random.Random(seed), n, mode, Counter())
    finite = sorted({v for row in d.rows for v in row if v != float("inf")})
    bounds = {b + s for b in finite + [d.eps, 10**30] for s in (-1, 0, 1)}
    for b in bounds:
        assert d._rows_below(b) == _scan(d, lambda v: v < b)
    assert d.zero_mask_rows() == _scan(d, lambda v: v <= d.eps)
    assert d.positive_spectrum() == [Fraction(v, d.den) for v in finite if v > d.eps]
    for r in d.positive_spectrum() + [Fraction(1, 3), Fraction(10**9)]:
        for radius in (r, r + Fraction(1, 7 * d.den)):
            assert d.ball_rows(radius) == [
                sum(1 << y for y in range(d.n) if d.d(x, y) < radius) for x in range(d.n)]


def _sample(rng, count, dim):
    """Coordinates with negative values, prime denominators and repeats."""
    pool = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3, 7, 101])) for _ in range(4)]
    pts = [tuple(rng.choice(pool) for _ in range(dim)) for _ in range(count)]
    if count > 1:
        pts[-1] = pts[0]
    return AsymNormSample(dimension=dim, p=Fraction(1), points=tuple(pts))


@settings(max_examples=60, derandomize=True)
@given(st.integers(0, 10**9), st.integers(0, 7), st.integers(1, 4))
def test_integer_p1_norm_matches_one_sided_lp(seed, count, dim):
    s = _sample(random.Random(seed), count, dim)
    via_lp = validate_qpm(
        [[ZERO if i == j else one_sided_lp(x, y, s.p) for j, y in enumerate(s.points)]
         for i, x in enumerate(s.points)], points=[f"v{i}" for i in range(count)])
    d = from_asym_norm(s)
    assert d == via_lp
    assert (d.den, d.rows, d.eps, d.tol) == (via_lp.den, via_lp.rows, 0, None)


def test_p1_triangle_law_holds_unchecked():
    # exact p = 1 from_asym_norm does not check the triangle law, which
    # (u + v)+ <= u+ + v+ gives; the Fraction check stays here as its oracle
    rng = random.Random(20240901)
    for _ in range(150):
        count, dim = rng.randint(2, 9), rng.randint(1, 4)
        pts = tuple(tuple(Fraction(rng.randint(-50, 50), rng.choice([1, 2, 3, 7, 101]))
                          for _ in range(dim)) for _ in range(count))
        d = from_asym_norm(AsymNormSample(dimension=dim, p=Fraction(1), points=pts))
        assert qpm_violations(d.dist) == []
        assert d.d(0, 1) == one_sided_lp(pts[0], pts[1], Fraction(1))


# -- the integer exact kernel against the Fraction kernel --------------------


def reference_exact_metric(s):
    """Exact-mode ``from_asym_norm`` as it was built from the Fraction
    kernel: ``one_sided_lp`` on every ordered pair, then ``validate_qpm``."""
    return validate_qpm(
        [[ZERO if i == j else one_sided_lp(x, y, s.p) for j, y in enumerate(s.points)]
         for i, x in enumerate(s.points)], points=[f"v{i}" for i in range(len(s.points))])


def reference_gap_report(s):
    """``symmetrization_gap_report`` as it was, on the Fraction kernel."""
    if s.p != 1:
        raise NonRepresentable(s.p, "gap report is exact only for p = 1")
    n = len(s.points)
    pairs = []
    worst_ratio = Fraction(1)
    for i in range(n):
        for j in range(i + 1, n):
            fwd = one_sided_lp(s.points[i], s.points[j], s.p)
            bwd = one_sided_lp(s.points[j], s.points[i], s.p)
            full = sum((abs(b - a) for a, b in zip(s.points[i], s.points[j])),
                       Fraction(0))
            m = max(fwd, bwd)
            pairs.append({
                "i": i,
                "j": j,
                "max_one_sided": str(m),
                "full_norm": str(full),
                "equality": m == full,
            })
            if m > 0:
                worst_ratio = max(worst_ratio, Fraction(full, 1) / m)
    return {
        "pairs": pairs,
        "equality_claim_holds": all(entry["equality"] for entry in pairs),
        "equivalence_constants": ["1", str(worst_ratio)],
    }


def _line_sample(rng):
    """Points base + t * c * u on one line, u with entries in
    {0, +-3, +-4, +-5, +-12}: a forward gauge is |dt| * c times the p-norm
    of u's positive or negative part, which is rational for parts such as
    (3, 4), (5, 12) and (3, 4, 12) at p = 2, (3, 4, 5) at p = 3 and any
    single entry, and irrational for others, so which ordered pair fails
    first depends on the draw."""
    n, dim = rng.randint(0, 6), rng.randint(1, 3)
    p = rng.choice([Fraction(1), Fraction(2), Fraction(3), Fraction(3, 2), Fraction(5, 2)])
    c = rng.choice([Fraction(1), Fraction(1, 7), Fraction(5, 3)])
    u = [rng.choice([0, 3, 4, 5, 12]) * rng.choice([1, -1]) for _ in range(dim)]
    base = [Fraction(rng.randint(-9, 9), rng.choice([1, 2, 3])) for _ in range(dim)]
    pts = tuple(tuple(b + t * c * k for b, k in zip(base, u))
                for t in (rng.randint(-3, 3) for _ in range(n)))
    return AsymNormSample(dimension=dim, p=p, points=pts)


def _exact_outcome(build, s):
    try:
        d = build(s)
    except NonRepresentable as exc:
        return type(exc).__name__, str(exc)
    return d if isinstance(d, dict) else (d.points, d.den, d.rows, d.tol, d.eps)


def test_exact_mode_matches_the_fraction_kernel():
    rng = random.Random(20261020)
    seen = Counter()
    for _ in range(400):
        s = _line_sample(rng)
        want = _exact_outcome(reference_exact_metric, s)
        assert _exact_outcome(from_asym_norm, s) == want, s
        assert (_exact_outcome(symmetrization_gap_report, s)
                == _exact_outcome(reference_gap_report, s)), s
        if want[0] == "NonRepresentable":
            seen["non-integer" if "non-integer" in want[1] else "no root"] += 1
        else:
            seen[f"built p={s.p}" + (" den>1" if want[1] > 1 else "")] += 1
    for key in ("non-integer", "no root", "built p=2 den>1", "built p=3 den>1",
                "built p=3/2", "built p=5/2", "built p=1 den>1"):
        assert seen[key] > 0, (key, seen)


@pytest.mark.parametrize("tol", [-1e-9, inf, float("nan")])
def test_float_mode_refuses_a_bad_tolerance(tol):
    s = AsymNormSample(dimension=1, p=Fraction(2), points=((Fraction(0),), (Fraction(1),)))
    with pytest.raises(ValueError, match=f"^tol must be a finite number >= 0, got {tol}$"):
        from_asym_norm(s, mode="float", tol=tol)


# -- collinear samples, valid by Minkowski, built despite float rounding -----


def _squared_gauges(points):
    """S[x][y] = sum_k max(y_k - x_k, 0)^2 on integer points: the exact
    squares of the p = 2 gauges."""
    return [[sum((b - a) ** 2 for a, b in zip(x, y) if b > a) for y in points]
            for x in points]


def _exact_p2_triangle(points) -> bool:
    """sqrt(S_xz) <= sqrt(S_xy) + sqrt(S_yz) for every triple, decided on
    integers: S_xz - S_xy - S_yz <= 0, or its square <= 4 * S_xy * S_yz."""
    sq = _squared_gauges(points)
    n = len(points)
    for x, y, z in itertools.product(range(n), repeat=3):
        gap = sq[x][z] - sq[x][y] - sq[y][z]
        if gap > 0 and gap * gap > 4 * sq[x][y] * sq[y][z]:
            return False
    return True


def _collinear(rng):
    """Four points on a line with coordinates up to about 7e8, in order."""
    x0, y0 = rng.randint(10**7, 10**8), rng.randint(10**7, 10**8)
    dx, dy = rng.randint(10**6, 10**7), rng.randint(10**6, 10**7)
    return [(x0 + t * dx, y0 + t * dy) for t in sorted(rng.sample(range(60), 4))]


def test_collinear_p2_samples_build_in_float_mode():
    rng = random.Random(20261023)
    refused_before = 0
    for _ in range(200):
        points = _collinear(rng)
        assert _exact_p2_triangle(points)
        s = AsymNormSample(dimension=2, p=Fraction(2),
                           points=tuple(tuple(map(Fraction, v)) for v in points))
        d = from_asym_norm(s, mode="float", tol=1e-9)
        assert d.zero_mask_rows() == [(2 << x) - 1 for x in range(4)]  # d(x, y) = 0 iff y <= x
        refused_before += _slack_refused(d.den, d.rows, d.eps)
    # float rounding past the tolerance: the triangle re-check refused these
    assert refused_before > 100
