import hashlib
import json
import random
from fractions import Fraction
from math import isqrt

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import rng_family, rng_homogeneous_family, rng_qpm, rng_step_family
from qconn import (
    OrliczSpec,
    QuasiModularFamily,
    ScaleGauge,
    conjugate_family,
    entourages,
    from_orlicz,
    luxemburg_gauge,
    modular_balls,
    symmetrize,
    symmetrize_family,
    validate_family,
    validate_qpm,
)
from qconn.errors import (
    EmptyGrid,
    KindMismatch,
    NonPositiveParameter,
    NonPositiveScale,
    NonRepresentable,
    QpmValidationError,
)
from qconn.modular import (
    ABSOLUTE_VALUE,
    POSITIVE_PART,
    PiecewiseConvex,
    QM1Violation,
    QM2Violation,
    QM3Violation,
    ValidationReport,
    _corner_scale,
    _nonzero_witness,
    merge_max,
)
from qconn.numbers import INF, ZERO, enn

GRID = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3)]


def homog_family(matrix) -> QuasiModularFamily:
    n = len(matrix)
    return QuasiModularFamily(
        points=tuple(str(i) for i in range(n)),
        gauges=tuple(tuple(ScaleGauge.homogeneous(v) for v in row)
                     for row in matrix),
    )


# -- gauge evaluation -------------------------------------------------------


def test_step_gauge_piecewise_semantics():
    g = ScaleGauge.step([1, 3], [5, 2, "1/2"])
    assert g(Fraction(1, 2)) == enn(5)
    assert g(Fraction(1)) == enn(2)  # right-continuous: closed on the left
    assert g(Fraction(2)) == enn(2)
    assert g(Fraction(3)) == enn("1/2")
    assert g(Fraction(100)) == enn("1/2")


def test_scale_must_be_positive():
    g = ScaleGauge.homogeneous(2)
    with pytest.raises(NonPositiveScale):
        g(Fraction(0))


def test_power_gauge_integer_exponent():
    g = ScaleGauge.power(8, 3)
    assert g(Fraction(2)) == enn(1)
    assert g(Fraction(1, 2)) == enn(64)


CONTRADICTIONS = [
    ("homogeneous", ((0, 2),), (Fraction(1),), 1),               # a piece short
    ("step", ((1, 0), (0, 0)), (), 1),                          # a piece too many
    ("homogeneous", ((0, 2), (0, 1)), (Fraction(1),), 1),       # a breakpoint
    ("power", ((0, 2), (0, 1)), (Fraction(1),), 2),
    ("homogeneous", ((1, 2),), (), 1),                          # alpha not in {0, inf}
    ("power", ((Fraction(-1), 2),), (), 2),
    ("step", ((2, 1), (0, 0)), (Fraction(1),), 1),              # a step with beta
    ("step", ((Fraction(-1), 0),), (), 1),                      # a negative step value
    ("piecewise", ((None, 1), (0, 1)), (Fraction(1),), 1),      # beta on an inf piece
    ("homogeneous", ((None, 3),), (), 1),
    ("piecewise", ((1, Fraction(-1)), (0, 1)), (Fraction(1),), 1),  # a negative beta
    ("homogeneous", ((0, 2),), (), 2),                          # exponent off power
    ("step", ((0, 0),), (), Fraction(1, 2)),
    ("power", ((0, 2),), (), Fraction(1, 2)),                   # power exponent below 1
    ("step", ((2, 0), (1, 0), (0, 0)), (Fraction(2), Fraction(1)), 1),  # unordered
    ("step", ((2, 0), (0, 0)), (Fraction(0),), 1),              # a breakpoint at 0
    ("orlicz", ((0, 0),), (), 1),                               # an unknown kind
    ("piecewise", ((-5, 0),), (), 1),                           # negative everywhere
    ("piecewise", ((None, 0), (Fraction(-1), 4)), (Fraction(1),), 1),  # negative past 4
    ("piecewise", ((Fraction(-3), 4), (0, 1)), (Fraction(2),), 1),     # negative before 2
]


def test_gauge_pieces_must_fit_the_kind():
    for kind, pieces, breakpoints, exponent in CONTRADICTIONS:
        with pytest.raises(ValueError):
            ScaleGauge(kind, pieces, breakpoints, exponent)
    # gauges that fit their kinds, inf pieces included, are accepted
    ScaleGauge("homogeneous", ((0, 2),))
    ScaleGauge("piecewise", ((None, 0), (Fraction(-1), 4), (0, 2)), (Fraction(1), Fraction(4)))
    ScaleGauge("piecewise", ((Fraction(-2), 4), (0, 1)), (Fraction(2),))  # 0 at its right end
    ScaleGauge("power", ((None, 0),), (), Fraction(3, 2))


# -- validation -------------------------------------------------------------


def test_scaled_metric_family_valid_and_matches_grid_oracle():
    rho = rng_qpm(random.Random(7), 4)
    fam = homog_family([[rho.d(i, j) for j in range(4)] for i in range(4)])
    report = validate_family(fam, GRID)
    assert report.ok
    # independent oracle: clear denominators on a grid
    for i in range(4):
        for j in range(4):
            for k in range(4):
                a, b, c = rho.d(i, j), rho.d(j, k), rho.d(i, k)
                if a is INF or b is INF:
                    continue
                assert c is not INF  # triangle keeps the closure finite here
                for lam in GRID:
                    for mu in GRID:
                        assert c * lam * mu <= (lam + mu) * (a * mu + b * lam)


def test_zero_family_valid():
    fam = homog_family([[0, 0], [0, 0]])
    assert validate_family(fam, GRID).ok


def test_increasing_step_reports_qm3():
    fam = QuasiModularFamily(
        points=("a", "b"),
        gauges=(
            (ScaleGauge.constant(0), ScaleGauge.step([1], [1, 2])),
            (ScaleGauge.constant(0), ScaleGauge.constant(0)),
        ),
    )
    report = validate_family(fam, GRID)
    assert not report.ok
    qm3 = [v for v in report.violations if isinstance(v, QM3Violation)]
    assert qm3 and qm3[0].i == 0 and qm3[0].j == 1
    assert str(report) == "QM3(i=0, j=1, 1 at 1/2 < 2 at 1)"


def test_nonzero_diagonal_reports_qm1():
    fam = homog_family([[1]])
    report = validate_family(fam, GRID)
    assert not report.ok and "QM1" in str(report)


def test_corner_check_catches_violation_between_grid_points():
    # the violation lives at lambda = mu = 1/2, strictly between the
    # breakpoints 1 and 2 and their sums; an outer-grid check at {1,2}
    # would miss it
    fam = QuasiModularFamily(
        points=("x", "y", "z"),
        gauges=(
            (ScaleGauge.constant(0), ScaleGauge.step([1], [5, 0]), ScaleGauge.step([2], [10, 0])),
            (ScaleGauge.constant(0), ScaleGauge.constant(0), ScaleGauge.constant(0)),
            (ScaleGauge.constant(0), ScaleGauge.constant(0), ScaleGauge.constant(0)),
        ),
    )
    report = validate_family(fam, [Fraction(1), Fraction(2)])
    qm2 = [v for v in report.violations
           if isinstance(v, QM2Violation) and (v.i, v.j, v.k) == (0, 1, 2)]
    assert qm2, "corner evaluation must expose the off-grid failure"
    w = qm2[0]
    assert fam.gauge(0, 2)(w.lam + w.mu) > fam.gauge(0, 1)(w.lam) + fam.gauge(1, 2)(w.mu)


def test_homogeneous_analytic_boundary():
    # c = (sqrt(a) + sqrt(b))^2 with a = b = 1 sits exactly on the
    # boundary: 4/(l+m) <= 1/l + 1/m always, while any larger c fails
    ok = homog_family([[0, 1, 4], [INF, 0, 1], [INF, INF, 0]])
    assert validate_family(ok, GRID).ok
    assert str(validate_family(ok, GRID)) == "valid"
    bad = homog_family([[0, 1, "17/4"], [INF, 0, 1], [INF, INF, 0]])
    report = validate_family(bad, GRID)
    assert str(report) == "QM2(i=0, j=1, k=2, lambda=9/8, mu=1, 2 > 17/9)"
    qm2 = [v for v in report.violations if isinstance(v, QM2Violation)]
    assert qm2
    w = qm2[0]
    # witness must genuinely violate
    assert bad.gauge(w.i, w.k)(w.lam + w.mu) > \
        bad.gauge(w.i, w.j)(w.lam) + bad.gauge(w.j, w.k)(w.mu)


def _assert_witnesses_violate(fam, report):
    for v in report.violations:
        if isinstance(v, QM1Violation):
            assert v.lam > 0 and fam.gauge(v.i, v.i)(v.lam) == v.value != ZERO
        elif isinstance(v, QM2Violation):
            ga, gb, gc = fam.gauge(v.i, v.j), fam.gauge(v.j, v.k), fam.gauge(v.i, v.k)
            assert v.lam > 0 and v.mu > 0
            assert (gc(v.lam + v.mu), ga(v.lam) + gb(v.mu)) == (v.lhs, v.rhs)
            assert not v.lhs <= v.rhs


def test_constant_nonzero_diagonal_reports_qm1_at_a_positive_scale():
    # a step gauge with no breakpoints has no piece boundary to report
    fam = QuasiModularFamily(points=("a",), gauges=((ScaleGauge.constant(1),),))
    report = validate_family(fam, GRID)
    assert [type(v) for v in report.violations] == [QM1Violation]
    assert report.violations[0].lam == GRID[0]
    _assert_witnesses_violate(fam, report)


def test_corner_witness_past_eighty_halvings():
    # w(0,2) drops 2^-100 after w(0,1) does, so the corner (1, 0+) needs
    # mu below 2^-100 to show the violation
    zero = ScaleGauge.constant(0)
    fam = QuasiModularFamily(points=("x", "y", "z"), gauges=(
        (zero, ScaleGauge.step([1], [1, 0]),
         ScaleGauge.step([1, 1 + Fraction(1, 2**100)], [9, 9, 0])),
        (zero, zero, zero),
        (zero, zero, zero),
    ))
    report = validate_family(fam, GRID)
    # the corners (0+, 0+) and (1, 0+)
    assert [(v.i, v.j, v.k, v.lam > 1 / 2) for v in report.violations] == [
        (0, 1, 2, False), (0, 1, 2, True)]
    assert report.violations[1].mu < Fraction(1, 2**100)
    _assert_witnesses_violate(fam, report)


def test_homogeneous_witness_just_past_the_boundary():
    # c exceeds (sqrt(a) + sqrt(b))^2 by less than 10^-39 for a, b = 1, 2 and
    # by less than 10^-300 for a, b = N, 2N with a 400-digit N; the witness
    # sits at lambda/mu = s/(2b), s = c - a - b, mirrored when b = 0, and at
    # lambda = mu = 1 for an infinite c or a = b = 0
    big = 10**399 + 7
    cases = [
        (1, 2, 3 + 2 * Fraction(isqrt(2 * 10**80) + 1, 10**40)),
        (0, 5, Fraction(51, 10)),
        (Fraction(7, 3), 0, Fraction(5, 2)),
        (0, 0, Fraction(1, 10**50)),
        (3, Fraction(1, 7), INF),
        (big, 2 * big, 3 * big + Fraction(isqrt(8 * big**2 * 10**620) + 1, 10**310)),
    ]
    for a, b, c in cases:
        fam = homog_family([[0, a, c], [INF, 0, b], [INF, INF, 0]])
        report = validate_family(fam, GRID)
        assert [(v.i, v.j, v.k) for v in report.violations] == [(0, 1, 2)]
        _assert_witnesses_violate(fam, report)
        w = report.violations[0]
        if c == INF or a == b == 0:
            assert (w.lam, w.mu) == (1, 1)
        elif b:
            assert w.lam / w.mu == (c - a - b) / (2 * b)
        else:
            assert w.mu / w.lam == (c - a) / (2 * a)


# -- validate_family decisions, pinned -------------------------------------

LEVELS = [0, 0, Fraction(1, 2), 1, 2, 3, 5, 9, "inf"]
FAMILY_BASES = {"step": lambda rng, n: rng_step_family(rng, n)[0],
                "homogeneous": rng_homogeneous_family, "mixed": rng_family}
FAMILY_KINDS = {"step": ("step",), "homogeneous": ("homogeneous",),
                "mixed": ("step", "homogeneous", "power")}
# sha256 of the decisions on seeds 0-79, generated before the QM1 and QM2
# witnesses were computed in closed form
FAMILY_DIGESTS = {
    "step": "4169cb9a58f3e6a28ba82462c0202259b895767b288fd489f27b80ba89af205f",
    "homogeneous": "67bb99f8ac5e1e3d5e1557d20461390bec5b0bcea75d5904a0c4719701a7ccdb",
    "mixed": "af29b265cfd009250544b75be3973c81b6c9236c610a1ede3e3a59b7b091195e",
}


def _random_gauge(rng, kind, diagonal):
    if kind == "homogeneous":
        return ScaleGauge.homogeneous(rng.choice(LEVELS))
    if kind == "power":
        return ScaleGauge.power(rng.choice(LEVELS), rng.randint(1, 3))
    # a constant diagonal step stays zero: the QM1 test above covers the rest
    bps = sorted(Fraction(b, 4) for b in rng.sample(range(1, 13), rng.randint(diagonal, 3)))
    values = [rng.choice(LEVELS) for _ in bps] + [rng.choice(LEVELS)]
    if rng.random() < 0.8:
        values.sort(key=float, reverse=True)
    return ScaleGauge.step(bps, values)


def _perturbed_family(kind, seed) -> QuasiModularFamily:
    """A valid seeded family with up to three gauges replaced at random."""
    rng = random.Random(seed)
    n = rng.randint(2, 4)
    gauges = [list(row) for row in FAMILY_BASES[kind](rng, n).gauges]
    for _ in range(rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        gauges[i][j] = _random_gauge(rng, rng.choice(FAMILY_KINDS[kind]), i == j)
    return QuasiModularFamily(points=tuple(map(str, range(n))),
                              gauges=tuple(map(tuple, gauges)))


@pytest.mark.parametrize("kind", sorted(FAMILY_DIGESTS))
def test_validate_family_decisions_pinned(kind):
    decisions = []
    for seed in range(80):
        fam = _perturbed_family(kind, seed)
        report = validate_family(fam, GRID)
        _assert_witnesses_violate(fam, report)
        decisions.append([report.ok, [[type(v).__name__, v.i, getattr(v, "j", None),
                                       getattr(v, "k", None)] for v in report.violations]])
    digest = hashlib.sha256(json.dumps(decisions).encode()).hexdigest()
    assert digest == FAMILY_DIGESTS[kind]


# -- validate_family against the Fraction decisions -------------------------
#
# validate_family decides QM2 on scaled integers.  The reference below
# decides it on Fractions: step corners compared through
# ScaleGauge.__call__ and value addition, homogeneous triples squared
# over the rationals, and every other triple evaluated through
# ScaleGauge._level on the grid (_qm2_grid).  Witnesses follow the same
# rules in both.

def _first_level(g):
    """The value on piece 0 of a step gauge, or a homogeneous gauge's
    coefficient: the one piece's beta."""
    alpha, beta = g.pieces[0]
    return INF if alpha is None else enn(alpha if g.kind == "step" else beta)


def _reference_step_corners(ga, gb, gc, i, j, k):
    out = []
    t = None
    for la in (None, *ga.breakpoints):
        va = _first_level(ga) if la is None else ga(la)
        for mu in (None, *gb.breakpoints):
            vb = _first_level(gb) if mu is None else gb(mu)
            if la is None and mu is None:
                vc = _first_level(gc)
            elif la is None:
                vc = gc(mu)
            elif mu is None:
                vc = gc(la)
            else:
                vc = gc(la + mu)
            if not vc <= va + vb:
                if t is None:
                    t = _corner_scale(ga, gb, gc)
                lam_w = t if la is None else la
                mu_w = t if mu is None else mu
                out.append(QM2Violation(i, j, k, lam_w, mu_w, gc(lam_w + mu_w),
                                        ga(lam_w) + gb(mu_w)))
    return out


def _reference_homogeneous(a, b, c, i, j, k):
    """c <= (sqrt(a) + sqrt(b))^2 squared over the rationals; a failing
    triple is witnessed where (lambda + mu)(a/lambda + b/mu) is below c:
    at lambda/mu = s/(2b), s = c - a - b, the midpoint of the roots of
    b t^2 - s t + a, or mu/lambda = s/(2a) when b = 0; lambda = mu = 1
    for an infinite c or a = b = 0."""
    if a is INF or b is INF or c == ZERO:
        return []
    one = Fraction(1)
    if c is INF:
        return [QM2Violation(i, j, k, one, one, INF, a + b)]
    s = c - a - b
    if s <= 0 or s * s <= 4 * a * b:
        return []
    if not a and not b:
        lam, mu = one, one
    elif b:
        lam, mu = s / (2 * b), one
    else:
        lam, mu = one, s / (2 * a)
    return [QM2Violation(i, j, k, lam, mu, c / (lam + mu), a / lam + b / mu)]


def _qm2_grid(ga, gb, gc, i, j, k, grid):
    """The violations at every (lambda, mu) drawn from the grid, the three
    gauges' breakpoints and half the least of these; exact evaluation, so
    every one is real.  A lambda or mu where ga or gb is +inf satisfies
    QM2; the levels are compared as values."""
    pts = set(grid)
    for g in (ga, gb, gc):
        pts.update(g.breakpoints)
    pts.add(min(pts) / 2)
    pts = sorted(pts)
    out = []
    if gc.is_identically_zero():  # then every lhs is 0
        return out
    vb = [(mu, v) for mu in pts for v in [gb._level(mu)] if v is not INF]
    for lam in pts:
        va = ga._level(lam)
        if va is INF:
            continue
        for mu, b in vb:
            lhs = gc._level(lam + mu)
            if lhs > va + b:
                out.append(QM2Violation(i, j, k, lam, mu, lhs, va + b))
    return out


def reference_validate_family(f, grid) -> ValidationReport:
    grid = sorted({Fraction(g) for g in grid})
    n = f.n
    out = [QM1Violation(i, lam, f.gauges[i][i](lam))
           for i in range(n) if not f.gauges[i][i].is_identically_zero()
           for lam in [_nonzero_witness(f.gauges[i][i], grid)]]
    out += [QM3Violation(i, j, *mv) for i in range(n) for j in range(n)
            for mv in [f.gauges[i][j].monotone_violation()] if mv is not None]
    for i in range(n):
        for j in range(n):
            for k in range(n):
                ga, gb, gc = f.gauges[i][j], f.gauges[j][k], f.gauges[i][k]
                kinds = {ga.kind, gb.kind, gc.kind}
                if kinds == {"step"}:
                    out += _reference_step_corners(ga, gb, gc, i, j, k)
                elif kinds == {"homogeneous"}:
                    out += _reference_homogeneous(*map(_first_level, (ga, gb, gc)), i, j, k)
                else:
                    out += _qm2_grid(ga, gb, gc, i, j, k, grid)
    return ValidationReport(ok=not out, violations=tuple(out), grid=tuple(grid))


HUGE = Fraction(10**399 + 7, 3)  # a 400-digit numerator
PRIMES = [1, 2, 3, 7, 11, 13, 97, 7919]
ORACLE_LEVELS = [0, 0, Fraction(1, 7), Fraction(5, 13), 1, 2, Fraction(22, 7), 9,
                 HUGE, 2 * HUGE, "inf", "inf"]


def _oracle_gauge(rng, kind, diagonal):
    """A random gauge with prime-denominator breakpoints and values that
    include zero, infinity and 400-digit numerators; a piecewise or power
    gauge for those kinds, and any of the four kinds for mixed families."""
    if kind == "mixed":
        kind = rng.choice(["step", "homogeneous", "piecewise", "power"])
    if kind == "homogeneous":
        return ScaleGauge.homogeneous(rng.choice(ORACLE_LEVELS))
    if kind == "piecewise":
        return _merge_operand(rng, "piecewise")
    if kind == "power":
        return ScaleGauge.power(rng.choice(ORACLE_LEVELS), rng.randint(1, 3))
    bps = sorted({Fraction(rng.randint(1, 60), rng.choice(PRIMES))
                  for _ in range(rng.randint(diagonal, 4))})
    values = [rng.choice(ORACLE_LEVELS) for _ in bps] + [rng.choice(ORACLE_LEVELS)]
    if rng.random() < 0.8:
        values.sort(key=lambda v: float("inf") if v == "inf" else v, reverse=True)
    return ScaleGauge.step(bps, values)


def _rescaled_gauge(g, vfac, sfac):
    """g with every value times vfac and every scale times sfac, which
    keeps each QM axiom: alpha + beta/lambda^p becomes vfac*alpha +
    vfac*sfac^p*beta/lambda^p on breakpoints times sfac.  A power gauge
    with a fractional exponent keeps its scales (sfac^p may be irrational)."""
    if g.exponent.denominator != 1:
        return ScaleGauge.power(INF if g.pieces[0][0] is None else g.pieces[0][1] * vfac,
                                g.exponent)
    bfac = vfac * sfac ** int(g.exponent)
    return ScaleGauge(g.kind, tuple((None, b) if a is None else (a * vfac, b * bfac)
                                    for a, b in g.pieces),
                      tuple(b * sfac for b in g.breakpoints), g.exponent)


def _kinked_family(rng, n) -> QuasiModularFamily:
    """A kinked Orlicz family, half the time with each gauge merged with
    the gauge of a step family (merge_max)."""
    fam = from_orlicz(_kinked_spec(rng, count=n, atoms=rng.randint(1, 2)))
    return fam if rng.random() < 0.5 else _max_family(fam, rng_step_family(rng, n)[0])


def _power_family(rng, n, exponents=(1, 2, 3)) -> QuasiModularFamily:
    """A homogeneous family read in lambda^p, one exponent drawn per gauge."""
    base = rng_homogeneous_family(rng, n)
    return QuasiModularFamily(points=base.points, gauges=tuple(
        tuple(ScaleGauge("power", g.pieces, exponent=Fraction(rng.choice(exponents)))
              for g in row) for row in base.gauges))


ORACLE_BASES = dict(FAMILY_BASES, piecewise=_kinked_family, power=_power_family)


def _oracle_family(kind, seed, base=None) -> QuasiModularFamily:
    """A clean seeded family, its values and scales sometimes blown up to
    400 digits or given prime denominators, with up to three gauges then
    replaced at random (none on even seeds below 40)."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    base = (base or ORACLE_BASES[kind])(rng, n)
    vfac = rng.choice([Fraction(1), Fraction(1, 7919), HUGE])
    sfac = rng.choice([Fraction(1), Fraction(3, 97), Fraction(10**400, 13)])
    gauges = [[_rescaled_gauge(g, vfac, sfac) for g in row] for row in base.gauges]
    for _ in range(0 if seed < 40 and seed % 2 == 0 else rng.randint(0, 3)):
        i, j = rng.randrange(n), rng.randrange(n)
        gauges[i][j] = _oracle_gauge(rng, kind, i == j)
    return QuasiModularFamily(points=tuple(map(str, range(n))),
                              gauges=tuple(map(tuple, gauges)))


@pytest.mark.parametrize("kind", ["step", "homogeneous", "piecewise", "power", "mixed"])
def test_validate_family_matches_fraction_reference(kind):
    seen_ok = seen_bad = 0
    for seed in range(150 if kind in ("step", "homogeneous") else 60):
        fam = _oracle_family(kind, seed)
        report = validate_family(fam, GRID)
        assert report == reference_validate_family(fam, GRID), seed
        _assert_witnesses_violate(fam, report)
        seen_ok += report.ok
        seen_bad += not report.ok
    assert seen_ok >= 20 and seen_bad >= 20


def _outcome(validate, fam, grid):
    """The report, or the type and message of the exception raised."""
    try:
        return validate(fam, grid)
    except NonRepresentable as exc:
        return type(exc), str(exc)


def test_fractional_powers_raise_as_the_reference():
    # lambda^(3/2) is rational only where lambda is a square: the first
    # scale that is not one raises, at the same point as in the reference
    raised = 0
    for seed in range(60):
        fam = _oracle_family("power", seed, lambda rng, n: _power_family(
            rng, n, (1, 2, Fraction(3, 2), Fraction(5, 2), Fraction(4, 3))))
        for grid in (GRID, [Fraction(1, 4), Fraction(1), Fraction(9, 4), Fraction(4)]):
            expected = _outcome(reference_validate_family, fam, grid)
            assert _outcome(validate_family, fam, grid) == expected, seed
            raised += isinstance(expected, tuple)
    assert 20 <= raised <= 100


def test_qm2_decision_evaluates_no_gauge(monkeypatch):
    # QM2 is read off the integer form: ScaleGauge._level, and so
    # __call__, runs only to build the witness of a violation
    fams = [from_orlicz(_kinked_spec(random.Random(seed))) for seed in range(8)]
    assert any(g.kind == "piecewise" for fam in fams for row in fam.gauges for g in row)

    def refuse(self, lam):
        raise AssertionError(f"a gauge was evaluated at {lam}")

    monkeypatch.setattr(ScaleGauge, "_level", refuse)
    for fam in fams:
        assert validate_family(fam, QUARTERS).ok


def test_huge_numerator_next_to_infinity():
    # an int beyond 10**308 meeting float("inf") raises OverflowError; the
    # integer kernel must keep infinity an int
    step = ScaleGauge.step
    zero = ScaleGauge.constant(0)
    fams = [
        homog_family([[0, HUGE, "inf"], [INF, 0, HUGE], [HUGE, INF, 0]]),
        homog_family([[0, HUGE, 5 * HUGE], [INF, 0, HUGE], [INF, INF, 0]]),
        QuasiModularFamily(points=("x", "y", "z"), gauges=(
            (zero, step([Fraction(1, 7919)], ["inf", HUGE]), step([HUGE], ["inf", 1])),
            (zero, zero, step([Fraction(2, 3)], [HUGE, 0])),
            (zero, zero, zero),
        )),
    ]
    for fam in fams:
        report = validate_family(fam, GRID)
        assert report == reference_validate_family(fam, GRID)
        assert not report.ok
        _assert_witnesses_violate(fam, report)


def test_grid_errors():
    fam = homog_family([[0]])
    with pytest.raises(EmptyGrid):
        validate_family(fam, [])
    with pytest.raises(NonPositiveScale):
        validate_family(fam, [Fraction(0)])


# -- luxemburg gauge --------------------------------------------------------


def test_luxemburg_step_examples():
    from qconn.modular import _luxemburg_one
    assert _luxemburg_one(ScaleGauge.step([3], [2, "1/2"])) == enn(3)
    assert _luxemburg_one(ScaleGauge.constant("1/2")) == ZERO
    assert _luxemburg_one(ScaleGauge.step([3], [2, "3/2"])) == INF
    assert _luxemburg_one(ScaleGauge.homogeneous(2)) == enn(2)
    assert _luxemburg_one(ScaleGauge.power(4, 2)) == enn(2)
    with pytest.raises(NonRepresentable):  # 2/lambda^2 <= 1 from lambda = sqrt(2)
        _luxemburg_one(ScaleGauge.power(2, 2))


def test_luxemburg_orlicz_hand_example():
    spec = OrliczSpec(
        atoms=(("w0", Fraction(1)), ("w1", Fraction(1))),
        phi=(POSITIVE_PART, POSITIVE_PART),
        functions=((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-1))),
        scaling=("homogeneous",),
    )
    d = luxemburg_gauge(from_orlicz(spec))
    assert d.d(0, 1) == enn(2)
    assert d.d(1, 0) == enn(1)


def test_luxemburg_propagates_validation_failure():
    # axioms hold for c/lambda with c(i,k)=4, c(i,j)=c(j,k)=1, yet the
    # unit-level thresholds 4 > 1 + 1 are no metric: the operation must
    # refuse rather than hand back a broken structure
    fam = homog_family([[0, 1, 4], [INF, 0, 1], [INF, INF, 0]])
    assert validate_family(fam, GRID).ok
    with pytest.raises(QpmValidationError):
        luxemburg_gauge(fam)


@settings(max_examples=30, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 5))
def test_luxemburg_valid_on_calibrated_families(seed, n):
    rng = random.Random(seed)
    fam = rng_family(rng, n)
    assert validate_family(fam, GRID).ok
    d = luxemburg_gauge(fam)  # validates internally
    assert d.n == n


@settings(max_examples=25, derandomize=True)
@given(st.integers(0, 10**9), st.integers(2, 5))
def test_step_family_luxemburg_matches_layer_thresholds(seed, n):
    fam, expected = rng_step_family(random.Random(seed), n)
    d = luxemburg_gauge(fam)
    for i in range(n):
        for j in range(n):
            assert d.d(i, j) == expected[i][j]


def test_zero_set_coherence():
    # identically zero on the grid implies a zero unit-level distance; the
    # converse holds for homogeneous gauges and, for step gauges, exactly
    # when the leading value is at most 1
    from qconn.modular import _luxemburg_one
    g_zero = ScaleGauge.constant(0)
    assert g_zero.is_identically_zero() and _luxemburg_one(g_zero) == ZERO
    g_homog = ScaleGauge.homogeneous(0)
    assert g_homog.is_identically_zero() and _luxemburg_one(g_homog) == ZERO
    g_half = ScaleGauge.constant("1/2")
    assert not g_half.is_identically_zero()
    assert _luxemburg_one(g_half) == ZERO  # leading value <= 1, not zero


# -- conjugation and symmetrization ----------------------------------------


def test_conjugate_family_involution():
    fam = rng_homogeneous_family(random.Random(3), 4)
    twice = conjugate_family(conjugate_family(fam))
    assert twice.gauges == fam.gauges


def test_symmetrize_identity_on_symmetric():
    fam = homog_family([[0, 2], [2, 0]])
    sym = symmetrize_family(fam)
    assert sym.gauges == fam.gauges


def test_step_max_example():
    g1 = ScaleGauge.step([3], [2, 0])
    g2 = ScaleGauge.constant(1)
    merged = merge_max(g1, g2)
    assert merged(Fraction(1)) == enn(2)
    assert merged(Fraction(3)) == enn(1)
    assert merged(Fraction(10)) == enn(1)


def test_mixed_kinds_merge_exactly():
    # max(2 on (0, 1), 1/lambda) crosses at lambda = 1/2; no grid involved
    g1 = ScaleGauge.step([1], [2, 0])
    g2 = ScaleGauge.homogeneous(1)
    merged = merge_max(g1, g2)
    assert merged.kind == "piecewise"
    assert merged.breakpoints == (Fraction(1, 2), Fraction(1))
    assert merged.pieces == ((0, 1), (2, 0), (0, 1))
    # forms that fit a stored kind keep it
    assert merge_max(ScaleGauge.constant(0), g2) == g2
    assert merge_max(ScaleGauge.homogeneous(0), ScaleGauge.homogeneous(0)).kind == "homogeneous"
    assert merge_max(ScaleGauge.constant(0), ScaleGauge.homogeneous(0)).kind == "step"
    # power gauges merge in lambda^p and stay power gauges
    assert merge_max(ScaleGauge.power(1, 2), ScaleGauge.power(3, 2)) == ScaleGauge.power(3, 2)
    assert merge_max(ScaleGauge.power(INF, 3), ScaleGauge.power(0, 3)) == ScaleGauge.power(INF, 3)
    with pytest.raises(KindMismatch):
        merge_max(g1, ScaleGauge.power(1, 2))
    with pytest.raises(KindMismatch):
        merge_max(ScaleGauge.homogeneous(1), ScaleGauge.power(1, 1))
    with pytest.raises(KindMismatch):
        merge_max(ScaleGauge.power(1, 2), ScaleGauge.power(1, 3))


def _max_family(f1, f2) -> QuasiModularFamily:
    return QuasiModularFamily(points=f1.points, gauges=tuple(
        tuple(merge_max(a, b) for a, b in zip(r1, r2))
        for r1, r2 in zip(f1.gauges, f2.gauges)))


def test_luxemburg_commutes_with_symmetrization():
    # {lambda : max(g, h) <= 1} is the intersection of two up-rays, so the
    # threshold of a symmetrized gauge is the max of the two thresholds
    rng = random.Random(20240815)
    families = [rng_family(rng, rng.randint(2, 5)) for _ in range(400)]
    mixed = []
    for _ in range(100):
        n = rng.randint(2, 5)
        mixed.append(_max_family(rng_step_family(rng, n)[0], rng_homogeneous_family(rng, n)))
    assert sum(g.kind == "piecewise" for f in mixed for row in f.gauges for g in row) > 100
    for fam in families + mixed:
        via_family = luxemburg_gauge(symmetrize_family(fam))
        assert via_family.dist == symmetrize(luxemburg_gauge(fam)).dist


# -- Orlicz construction ----------------------------------------------------


def test_orlicz_equal_functions_zero():
    spec = OrliczSpec(
        atoms=(("w", Fraction(2)),),
        phi=(POSITIVE_PART,),
        functions=((Fraction(3),), (Fraction(3),)),
        scaling=("homogeneous",),
    )
    fam = from_orlicz(spec)
    assert fam.gauge(0, 1).is_identically_zero()


def test_orlicz_even_phi_symmetric():
    spec = OrliczSpec(
        atoms=(("w0", Fraction(1)), ("w1", Fraction(1))),
        phi=(ABSOLUTE_VALUE, ABSOLUTE_VALUE),
        functions=((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-1))),
        scaling=("homogeneous",),
    )
    fam = from_orlicz(spec)
    for i in range(2):
        for j in range(2):
            assert fam.gauge(i, j) == fam.gauge(j, i)


def test_orlicz_kinked_phi_is_exact():
    kinked = PiecewiseConvex(pos_breaks=(Fraction(1),),
                             pos_slopes=(Fraction(1), Fraction(2)))
    spec = OrliczSpec(
        atoms=(("w", Fraction(1)),),
        phi=(kinked,),
        functions=((Fraction(0),), (Fraction(2),)),
        scaling=("homogeneous",),
    )
    g = from_orlicz(spec).gauge(0, 1)
    # phi(t) = 2t - 1 past t = 1, so -1 + 4/lambda on (0, 2) and 2/lambda after
    assert (g.kind, g.breakpoints, g.pieces) == ("piecewise", (2,), ((-1, 4), (0, 2)))
    assert g(Fraction(1)) == enn(3)
    assert g(Fraction(2)) == enn(1)
    assert g(Fraction(4)) == enn("1/2")
    assert luxemburg_gauge(from_orlicz(spec)).d(0, 1) == enn(2)
    # the reverse difference never reaches the kink: still homogeneous 0
    assert from_orlicz(spec).gauge(1, 0) == ScaleGauge.homogeneous(0)
    with pytest.raises(NonRepresentable):
        from_orlicz(OrliczSpec(atoms=spec.atoms, phi=spec.phi, functions=spec.functions,
                               scaling=("power", Fraction(2))))


KINKS = [(Fraction(1),), (Fraction(1, 2), Fraction(2))]
ACCEPTANCE_GRID = [Fraction(1, 2), Fraction(1), Fraction(2), Fraction(3), Fraction(5)]
QUARTERS = [Fraction(k, 4) for k in range(1, 21)]


def _kinked_phi(rng, breaks) -> PiecewiseConvex:
    """A convex phi kinked at breaks on the positive side and, half the
    time, at their mirror images on the negative side."""
    count = len(breaks) + 1
    pos = sorted(Fraction(rng.randint(0, 8), rng.choice([1, 2])) for _ in range(count))
    if rng.random() < 0.5:
        return PiecewiseConvex(pos_breaks=breaks, pos_slopes=tuple(pos))
    neg = sorted((Fraction(-rng.randint(0, 8), rng.choice([1, 3])) for _ in range(count)),
                 reverse=True)
    return PiecewiseConvex(pos_breaks=breaks, pos_slopes=tuple(pos),
                           neg_breaks=tuple(-b for b in breaks), neg_slopes=tuple(neg))


def _kinked_spec(rng, count=3, atoms=2) -> OrliczSpec:
    return OrliczSpec(
        atoms=tuple((f"a{t}", Fraction(rng.randint(1, 4), rng.choice([1, 3])))
                    for t in range(atoms)),
        phi=tuple(_kinked_phi(rng, rng.choice(KINKS)) for _ in range(atoms)),
        functions=tuple(tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 2, 3]))
                              for _ in range(atoms)) for _ in range(count)),
        scaling=("homogeneous",))


def _rationals(rng, count):
    return [Fraction(rng.randint(1, 400), rng.choice([1, 3, 7, 16, 60])) for _ in range(count)]


def test_kinked_orlicz_gauges_equal_rho():
    rng = random.Random(20240816)
    pieces = 0
    for _ in range(60):
        spec = _kinked_spec(rng)
        fam = from_orlicz(spec)
        for i, fi in enumerate(spec.functions):
            for j, fj in enumerate(spec.functions):
                g = fam.gauge(i, j)
                delta = [b - a for a, b in zip(fi, fj)]
                pieces += len(g.breakpoints) + 1
                for lam in _rationals(rng, 8) + list(g.breakpoints):
                    assert g(lam) == enn(spec.rho([d / lam for d in delta])), (spec, i, j, lam)
                # the Luxemburg threshold: rho <= 1 there, > 1 just below it
                t = luxemburg_gauge(fam).d(i, j)
                assert spec.rho(delta if t == 0 else [d / t for d in delta]) <= 1
                if t != 0:
                    assert spec.rho([d / (t * Fraction(999, 1000)) for d in delta]) > 1
    assert pieces > 600


def test_kinked_orlicz_families_validate():
    # rho is convex with rho(0) = 0, so QM2 holds for every such family
    # (Musielak, Orlicz Spaces and Modular Spaces, LNM 1034)
    rng = random.Random(20240817)
    kinds = set()
    for _ in range(200):
        fam = from_orlicz(_kinked_spec(rng))
        kinds |= {g.kind for row in fam.gauges for g in row}
        for grid in (ACCEPTANCE_GRID, QUARTERS):
            report = validate_family(fam, grid)
            assert report.ok, report
    assert kinds == {"homogeneous", "piecewise"}


def _merge_operand(rng, kind):
    if kind == "homogeneous":
        return ScaleGauge.homogeneous(rng.choice(LEVELS))
    if kind == "step":
        return _random_gauge(rng, "step", False)
    spec = _kinked_spec(rng, count=2, atoms=rng.randint(1, 2))
    g = from_orlicz(spec).gauge(0, 1)
    return g if rng.random() < 0.5 else merge_max(g, _merge_operand(rng, "step"))


def test_merge_max_is_the_pointwise_max():
    rng = random.Random(20240818)
    kinds = ["step", "homogeneous", "piecewise"]
    checked = crossings = rising = 0
    for a_kind in kinds:
        for b_kind in kinds:
            for _ in range(40):
                a, b = _merge_operand(rng, a_kind), _merge_operand(rng, b_kind)
                m = merge_max(a, b)
                cross = [(pb - qb) / (qa - pa)
                         for pa, pb in a.pieces for qa, qb in b.pieces
                         if None not in (pa, qa) and pa != qa and (pb - qb) / (qa - pa) > 0]
                crossings += len(cross)
                scales = _rationals(rng, 4) + cross
                scales += [x for g in (a, b, m) for bp in g.breakpoints
                           for x in (bp, bp * Fraction(999, 1000))]
                for lam in scales:
                    assert m(lam) == max(a(lam), b(lam)), (a, b, lam)
                checked += len(scales)
                assert all(p != q for p, q in zip(m.pieces, m.pieces[1:]))
                if a.kind == b.kind != "piecewise":
                    assert m.kind == a.kind
                mv = m.monotone_violation()
                if mv is None:
                    values = [m(lam) for lam in sorted(set(scales))]
                    assert all(u >= v for u, v in zip(values, values[1:]))
                else:
                    lam1, lam2, v1, v2 = mv
                    assert lam1 < lam2 and m(lam1) == v1 < v2 == m(lam2)
                    rising += 1
    assert checked >= 1000 and crossings >= 100 and rising >= 20


def test_orlicz_power_scaling():
    spec = OrliczSpec(
        atoms=(("w", Fraction(1)),),
        phi=(POSITIVE_PART,),
        functions=((Fraction(0),), (Fraction(4),)),
        scaling=("power", Fraction(2)),
    )
    fam = from_orlicz(spec)
    g = fam.gauge(0, 1)
    assert g.kind == "power"
    assert g(Fraction(2)) == enn(1)
    assert luxemburg_gauge(fam).d(0, 1) == enn(2)


def test_phi_convexity_enforced():
    with pytest.raises(ValueError):
        PiecewiseConvex(pos_breaks=(Fraction(1),),
                        pos_slopes=(Fraction(2), Fraction(1)))


# -- balls and entourages ---------------------------------------------------


def test_ball_examples():
    fam = homog_family([[0, 2], [1, 0]])
    # eps above every reachable value: whole space
    fwd, bwd = modular_balls(fam, 0, Fraction(10), Fraction(100))
    assert fwd == frozenset({0, 1}) and bwd == frozenset({0, 1})
    # center always inside its own balls
    fwd, bwd = modular_balls(fam, 0, Fraction(1), Fraction(1, 10))
    assert 0 in fwd and 0 in bwd


def test_orlicz_ball_hand_example():
    spec = OrliczSpec(
        atoms=(("w0", Fraction(1)), ("w1", Fraction(1))),
        phi=(POSITIVE_PART, POSITIVE_PART),
        functions=((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-1))),
        scaling=("homogeneous",),
    )
    fam = from_orlicz(spec)
    fwd, bwd = modular_balls(fam, 0, Fraction(1), Fraction(3, 2))
    assert 1 not in fwd  # w_1(f,g) = 2
    assert 1 in bwd      # w_1(g,f) = 1


def _entourage_families():
    """rng_family, then a step family with inf values, a homogeneous one
    with coefficients 0 and inf, a piecewise one (the symmetrization of
    step gauges above the diagonal and homogeneous ones below it) and a
    power family with integer exponents."""
    rng = random.Random(11)
    fams = [rng_family(rng, 4)]
    levels = [(2, Fraction(1, 2)), (INF, 3), (INF, 0), (1, 0)]
    fams.append(QuasiModularFamily(points=("a", "b", "c"), gauges=tuple(
        tuple(ScaleGauge.constant(0) if i == j else ScaleGauge.step([Fraction(i + 1, j + 1)],
                                                                    levels[(i + j) % 4])
              for j in range(3)) for i in range(3))))
    fams.append(homog_family([[0, INF, 2], [0, 0, INF], [Fraction(1, 3), 0, 0]]))
    step, homog = rng_step_family(rng, 4)[0], rng_homogeneous_family(rng, 4)
    fams.append(symmetrize_family(QuasiModularFamily(points=step.points, gauges=tuple(
        tuple((step if i < j else homog).gauges[i][j] for j in range(4)) for i in range(4)))))
    assert any(g.kind == "piecewise" for row in fams[-1].gauges for g in row)
    fams.append(QuasiModularFamily(points=("a", "b", "c"), gauges=tuple(
        tuple(ScaleGauge.power(c, 2 + (i + j) % 2) for j, c in enumerate(row))
        for i, row in enumerate([[0, 8, INF], [Fraction(9, 4), 0, 1], [INF, 3, 0]]))))
    return fams


def test_entourage_section_identity_and_errors():
    for fam in _entourage_families():
        for r in (Fraction(1, 2), Fraction(1), Fraction(2)):
            for lam in (Fraction(1, 2), Fraction(1), Fraction(3)):
                fwd, bwd = entourages(fam, r, lam)
                assert fwd == {(x, y) for x in range(fam.n) for y in range(fam.n)
                               if fam.w(lam, x, y) < enn(r)}
                assert bwd == frozenset((y, x) for (x, y) in fwd)
                for x in range(fam.n):
                    section = frozenset(y for (a, y) in fwd if a == x)
                    assert section == modular_balls(fam, x, lam, r)[0]
    with pytest.raises(NonPositiveParameter):
        modular_balls(fam, 0, Fraction(0), Fraction(1))
    with pytest.raises(NonPositiveParameter):
        entourages(fam, Fraction(-1), Fraction(1))


def test_entourages_share_pair_tuples():
    # two calls on the same carrier size hand out the very same tuples
    first, first_inv = entourages(homog_family([[0] * 4] * 4), Fraction(1), Fraction(1))
    second, _ = entourages(rng_homogeneous_family(random.Random(2), 4), Fraction(9), Fraction(1))
    assert len(first) == 16
    ids = {p: p for p in first}
    assert second and all(ids[p] is p for p in second)
    assert all(ids[p] is p for p in first_inv)


def test_balls_refuse_a_point_outside_the_carrier():
    fam = homog_family([[0, 2], [1, 0]])
    for x in (-1, 2):
        with pytest.raises(ValueError, match=f"index {x} out of range for 2 points"):
            modular_balls(fam, x, Fraction(1), Fraction(1))


def test_family_gauges_must_be_n_by_n():
    zero = ScaleGauge.constant(0)
    for rows in ([[zero] * 2, [zero]],          # a short row
                 [[zero] * 2, [zero] * 3],      # a long row
                 [[zero] * 2] * 3):             # an extra row
        with pytest.raises(ValueError, match="gauges must be 2 x 2"):
            QuasiModularFamily(points=("a", "b"), gauges=tuple(map(tuple, rows)))
    QuasiModularFamily(points=("a", "b"), gauges=((zero,) * 2,) * 2)


# -- the integer level test against the Fraction levels --------------------


def _reference_below(g, lam, r):
    """w_lam < r on the Fraction levels that entourages and modular_balls
    compared before they tested each gauge on integers."""
    return g._level(lam) < r


def _family_of(rng, n, draw):
    return QuasiModularFamily(points=tuple(map(str, range(n))), gauges=tuple(
        tuple(draw(rng) for _ in range(n)) for _ in range(n)))


def _level_test_families():
    """(form, family) on seeded families of every gauge form: homogeneous,
    step with 1 to 3 layers, piecewise from merge_max and from kinked-phi
    from_orlicz (alpha < 0), power with an integer exponent, and +inf
    pieces in step, homogeneous and power gauges."""
    rng = random.Random(20261020)
    for _ in range(4):
        yield "homogeneous", rng_homogeneous_family(rng, rng.randint(2, 5))
        yield "homogeneous", _family_of(rng, 3, lambda rng: ScaleGauge.homogeneous(
            rng.choice(LEVELS)))
    for _ in range(12):
        yield "step", rng_step_family(rng, rng.randint(2, 5))[0]
        yield "step", _family_of(rng, 3, lambda rng: _random_gauge(rng, "step", False))
    for _ in range(6):
        yield "merge_max", _family_of(rng, 3, lambda rng: merge_max(
            _merge_operand(rng, rng.choice(["step", "homogeneous", "piecewise"])),
            _merge_operand(rng, rng.choice(["step", "homogeneous", "piecewise"]))))
        yield "orlicz", from_orlicz(_kinked_spec(rng))
        yield "power", _family_of(rng, 3, lambda rng: ScaleGauge.power(
            rng.choice(LEVELS), rng.randint(1, 3)))


def _level_test_pairs(fam):
    """(r, lam) pairs: lam at every breakpoint and at fixed scales, r at
    every positive finite level there and at fixed radii."""
    gauges = [g for row in fam.gauges for g in row]
    lams = sorted({*(b for g in gauges for b in g.breakpoints),
                   *map(Fraction, ("1/3", "1/2", "1", "2", "7/3"))})
    for lam in lams:
        levels = {g._level(lam) for g in gauges}
        radii = {v for v in levels if v is not INF and v > 0}
        for r in sorted(radii | set(map(Fraction, ("1/2", "1", "5/3")))):
            yield r, lam


def test_integer_level_test_matches_the_fraction_levels():
    seen, gauges = {}, []
    for form, fam in _level_test_families():
        n = fam.n
        gauges += [g for row in fam.gauges for g in row]
        for r, lam in _level_test_pairs(fam):
            ref = frozenset((x, y) for x in range(n) for y in range(n)
                            if _reference_below(fam.gauges[x][y], lam, r))
            assert entourages(fam, r, lam) == (ref, frozenset((y, x) for x, y in ref)), \
                (form, fam, r, lam)
            for x in range(n):
                assert modular_balls(fam, x, lam, r) == (
                    frozenset(y for y in range(n) if (x, y) in ref),
                    frozenset(y for y in range(n) if (y, x) in ref)), (form, fam, x, r, lam)
            stat = seen.setdefault(form, [0, 0])  # gauges below r, gauges not below
            stat[0] += len(ref)
            stat[1] += n * n - len(ref)
    assert set(seen) == {"homogeneous", "step", "merge_max", "orlicz", "power"}
    assert all(below and above for below, above in seen.values()), seen
    assert max(len(g.breakpoints) for g in gauges if g.kind == "step") >= 3
    assert {g.kind for g in gauges} == {"homogeneous", "step", "piecewise", "power"}
    assert any(a is not None and a < 0 for g in gauges for a, _ in g.pieces)
    assert any(a is None for g in gauges if g.kind == "power" for a, _ in g.pieces)
    assert any(a is None for g in gauges if g.kind == "step" for a, _ in g.pieces)


def test_fractional_power_levels_without_an_exact_power_raise_on_both_sides():
    g = ScaleGauge.power(2, Fraction(3, 2))
    fam = QuasiModularFamily(points=("a", "b"), gauges=((g, g), (g, g)))
    lam, r = Fraction(2), Fraction(1)  # 2^(3/2) is irrational
    with pytest.raises(NonRepresentable):
        _reference_below(fam.gauges[0][0], lam, r)
    with pytest.raises(NonRepresentable):
        entourages(fam, r, lam)
    with pytest.raises(NonRepresentable):
        modular_balls(fam, 0, lam, r)
    lam = Fraction(4)  # 4^(3/2) = 8: the level is 1/4 on every gauge
    for r in (Fraction(1, 4), Fraction(1, 3)):
        fwd, _ = entourages(fam, r, lam)
        assert fwd == {(x, y) for x in range(2) for y in range(2)
                       if _reference_below(fam.gauges[x][y], lam, r)}
        assert len(fwd) == (4 if r > Fraction(1, 4) else 0)


def test_luxemburg_output_is_validated_metric():
    fam = rng_homogeneous_family(random.Random(5), 5)
    d = luxemburg_gauge(fam)
    validate_qpm([[d.d(i, j) for j in range(5)] for i in range(5)])

