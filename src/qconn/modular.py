"""Scale-indexed asymmetric gauge families and their induced structures.

A family assigns to every ordered pair of points a gauge w_lambda that is
nonincreasing and right-continuous in the scale lambda.  The axioms:

  QM1  w_lambda(x, x) = 0 for every lambda
  QM2  w_{lambda+mu}(x, z) <= w_lambda(x, y) + w_mu(y, z)
  QM3  lambda -> w_lambda(x, y) nonincreasing and right-continuous

Three gauge kinds are supported exactly: step functions, homogeneous
c/lambda, and power c/lambda^p.  Validation of QM2 is a real decision
procedure for step-only and homogeneous-only triples and a grid check
otherwise.  The decision runs on integers: one common denominator scales
every step breakpoint and another every finite step value and
homogeneous coefficient.  Fractions are used only for the witness of a
violation and for the grid check of mixed-kind triples.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import isqrt, lcm

from .errors import (
    EmptyGrid,
    KindMismatch,
    NonPositiveParameter,
    NonPositiveScale,
    NonRepresentable,
)
from .gauges import QuasiPseudoMetric, validate_qpm
from .numbers import INF, ZERO, ExtNonNeg, enn_max, exact_root

STEP = "step"
HOMOGENEOUS = "homogeneous"
POWER = "power"


@dataclass(frozen=True)
class ScaleGauge:
    """One gauge lambda -> value, tagged by kind.

    step: value is values[t] on piece t, where piece 0 is (0, breakpoints[0])
    and piece t >= 1 is [breakpoints[t-1], breakpoints[t]); right-continuous
    by construction.  homogeneous: coeff / lambda.  power: coeff / lambda^p.
    Structural invariants are checked here; the QM3 monotonicity of step
    values is a family-level validation concern, not a construction error.
    """

    kind: str
    breakpoints: tuple[Fraction, ...] = ()
    values: tuple[ExtNonNeg, ...] = ()
    coeff: ExtNonNeg = ZERO
    exponent: Fraction = Fraction(1)

    def __post_init__(self):
        if self.kind == STEP:
            if len(self.values) != len(self.breakpoints) + 1:
                raise ValueError("step gauge needs len(values) == len(breakpoints) + 1")
            for a, b in zip(self.breakpoints, self.breakpoints[1:]):
                if not a < b:
                    raise ValueError("breakpoints must be strictly increasing")
            if self.breakpoints and self.breakpoints[0] <= 0:
                raise ValueError("breakpoints must be positive")
        elif self.kind in (HOMOGENEOUS, POWER):
            if self.kind == POWER and self.exponent < 1:
                raise ValueError("power exponent must be >= 1")
        else:
            raise ValueError(f"unknown gauge kind {self.kind!r}")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def step(breakpoints, values) -> "ScaleGauge":
        return ScaleGauge(kind=STEP,
                          breakpoints=tuple(Fraction(b) for b in breakpoints),
                          values=tuple(ExtNonNeg(v) for v in values))

    @staticmethod
    def constant(value) -> "ScaleGauge":
        return ScaleGauge.step((), (value,))

    @staticmethod
    def homogeneous(coeff) -> "ScaleGauge":
        return ScaleGauge(kind=HOMOGENEOUS, coeff=ExtNonNeg(coeff))

    @staticmethod
    def power(coeff, exponent) -> "ScaleGauge":
        return ScaleGauge(kind=POWER, coeff=ExtNonNeg(coeff),
                          exponent=Fraction(exponent))

    # -- evaluation -----------------------------------------------------

    def __call__(self, lam: Fraction) -> ExtNonNeg:
        lam = Fraction(lam)
        if lam <= 0:
            raise NonPositiveScale(f"scale must be positive, got {lam}")
        if self.kind == STEP:
            return self.values[bisect_right(self.breakpoints, lam)]
        if self.kind == HOMOGENEOUS:
            return self.coeff.divided_by(lam)
        # power
        if self.coeff == ZERO:
            return ZERO
        if self.exponent.denominator == 1:
            return self.coeff.divided_by(lam ** int(self.exponent))
        scaled = _exact_rational_power(lam, self.exponent)
        if scaled is None:
            raise NonRepresentable(self.exponent,
                                   f"lambda={lam} has no exact power")
        return self.coeff.divided_by(scaled)

    def leading_value(self) -> ExtNonNeg:
        """Limit of the gauge as lambda -> 0+."""
        if self.kind == STEP:
            return self.values[0]
        return ZERO if self.coeff == ZERO else INF

    def is_identically_zero(self) -> bool:
        if self.kind == STEP:
            return all(v == ZERO for v in self.values)
        return self.coeff == ZERO

    def monotone_violation(self):
        """First (lam1, lam2, v1, v2) with lam1 < lam2 but v1 < v2, or None."""
        if self.kind != STEP:
            return None
        for t in range(len(self.values) - 1):
            if self.values[t] < self.values[t + 1]:
                lam1 = self.breakpoints[0] / 2 if t == 0 else self.breakpoints[t - 1]
                lam2 = self.breakpoints[t]
                return (lam1, lam2, self.values[t], self.values[t + 1])
        return None


def _exact_rational_power(lam: Fraction, p: Fraction) -> Fraction | None:
    """lam**p for rational p, or None when irrational."""
    raised = lam ** p.numerator
    return exact_root(raised, p.denominator)


@dataclass(frozen=True)
class QuasiModularFamily:
    points: tuple[str, ...]
    gauges: tuple[tuple[ScaleGauge, ...], ...]

    @property
    def n(self) -> int:
        return len(self.points)

    def gauge(self, i: int, j: int) -> ScaleGauge:
        return self.gauges[i][j]

    def w(self, lam: Fraction, i: int, j: int) -> ExtNonNeg:
        return self.gauges[i][j](lam)

    def zero_mask_rows(self) -> list[int]:
        """Rows of the relation {(i,j): w_lambda(i,j) = 0 for all lambda}."""
        return [sum(1 << j for j, g in enumerate(row) if g.is_identically_zero())
                for row in self.gauges]


# -- validation ----------------------------------------------------------


@dataclass(frozen=True)
class QM1Violation:
    i: int
    lam: Fraction
    value: ExtNonNeg

    def __str__(self):
        return f"QM1(i={self.i}, lambda={self.lam}, value={self.value})"


@dataclass(frozen=True)
class QM2Violation:
    i: int
    j: int
    k: int
    lam: Fraction
    mu: Fraction
    lhs: ExtNonNeg
    rhs: ExtNonNeg

    def __str__(self):
        return (f"QM2(i={self.i}, j={self.j}, k={self.k}, lambda={self.lam}, "
                f"mu={self.mu}, {self.lhs} > {self.rhs})")


@dataclass(frozen=True)
class QM3Violation:
    i: int
    j: int
    lam1: Fraction
    lam2: Fraction
    v1: ExtNonNeg
    v2: ExtNonNeg

    def __str__(self):
        return (f"QM3(i={self.i}, j={self.j}, {self.v1} at {self.lam1} < "
                f"{self.v2} at {self.lam2})")


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple
    grid: tuple[Fraction, ...]

    def __str__(self):
        if self.ok:
            return "valid"
        return "; ".join(str(v) for v in self.violations)


def validate_family(f: QuasiModularFamily, grid) -> ValidationReport:
    """Check QM1, QM2, QM3 and report every violation with its witness.

    For triples whose three gauges are all step kind the QM2 check is
    exhaustive: with right-continuous nonincreasing steps the difference
    w_lambda(i,j) + w_mu(j,k) - w_{lambda+mu}(i,k) attains its infimum at
    piece left endpoints, so evaluating at {0+} union breakpoints decides
    the axiom.  All-homogeneous triples are decided analytically
    (c_ik <= (sqrt(c_ij) + sqrt(c_jk))^2, tested exactly by squaring).
    Both decisions compare integers: every step breakpoint is scaled by
    one common denominator and every finite step value and homogeneous
    coefficient by another (see _scaled_gauges).  Fractions appear only in
    the witness of a violation and in mixed-kind triples, which are
    checked on the supplied grid augmented with every breakpoint.
    """
    grid = [Fraction(g) for g in grid]
    if not grid:
        raise EmptyGrid("validation grid is empty")
    for g in grid:
        if g <= 0:
            raise NonPositiveScale(f"grid value {g} is not positive")
    grid = sorted(set(grid))

    violations = []
    n = f.n
    for i in range(n):
        g = f.gauges[i][i]
        if not g.is_identically_zero():
            lam = _nonzero_witness(g, grid)
            violations.append(QM1Violation(i, lam, g(lam)))
    for i in range(n):
        for j in range(n):
            mv = f.gauges[i][j].monotone_violation()
            if mv is not None:
                lam1, lam2, v1, v2 = mv
                violations.append(QM3Violation(i, j, lam1, lam2, v1, v2))
    violations += _qm2_violations(f, grid)
    return ValidationReport(ok=not violations, violations=tuple(violations),
                            grid=tuple(grid))


def _nonzero_witness(g: ScaleGauge, grid) -> Fraction:
    """A positive scale where g is nonzero; the least grid point when no
    breakpoint bounds g's first nonzero piece."""
    if g.kind == STEP:
        t = next(t for t, v in enumerate(g.values) if v != ZERO)
        if t or g.breakpoints:
            return g.breakpoints[t - 1] if t else g.breakpoints[0] / 2
    return grid[0]


def _scaled_gauges(f: QuasiModularFamily):
    """(rows, inf): the step and homogeneous gauges of f as integers.

    sden is the least common denominator of every step breakpoint and
    vden that of every finite step value and homogeneous coefficient.
    rows[i][j] is, for a step gauge, (corners, breakpoints * sden,
    values * vden), where corners pairs each piece's left endpoint (0
    standing for 0+) with its value; for a homogeneous gauge, coeff *
    vden; for a power gauge, None.  Infinity becomes the int inf = 2 *
    (largest finite value) + 1, which exceeds any sum of two finite
    values and is never a float (an int beyond 10**308 plus a float
    infinity overflows).
    """
    flat = [g for row in f.gauges for g in row]
    steps = [g for g in flat if g.kind == STEP]
    levels = [v for g in steps for v in g.values]
    levels += [g.coeff for g in flat if g.kind == HOMOGENEOUS]
    finite = {v.frac for v in levels if not v.is_inf}
    sden = lcm(*{b.denominator for g in steps for b in g.breakpoints})
    vden = lcm(*{v.denominator for v in finite})
    top = max(finite, default=Fraction(0))
    inf = 2 * top.numerator * (vden // top.denominator) + 1

    def value(v):
        if v.is_inf:
            return inf
        v = v.frac
        return v.numerator * (vden // v.denominator)

    def scaled(g):
        if g.kind == HOMOGENEOUS:
            return value(g.coeff)
        if g.kind == POWER:
            return None
        bps = [b.numerator * (sden // b.denominator) for b in g.breakpoints]
        vals = [value(v) for v in g.values]
        return list(zip([0, *bps], vals)), bps, vals

    return [[scaled(g) for g in row] for row in f.gauges], inf


def _qm2_violations(f: QuasiModularFamily, grid):
    """Every QM2 violation, triple by triple in (i, j, k) order."""
    rows, inf = _scaled_gauges(f)
    n = f.n
    out = []
    for i in range(n):
        row_i = rows[i]
        for j in range(n):
            sa, row_j = row_i[j], rows[j]
            for k in range(n):
                sb, sc = row_j[k], row_i[k]
                if type(sa) is type(sb) is type(sc) is tuple:
                    bc, vc = sc[1], sc[2]
                    bad = [(a, b) for a, (la, x) in enumerate(sa[0])
                           for b, (mu, y) in enumerate(sb[0])
                           if vc[bisect_right(bc, la + mu)] > x + y]
                    if bad:
                        out += _step_witnesses(f, i, j, k, bad)
                elif type(sa) is type(sb) is type(sc) is int:
                    if sa == inf or sb == inf or sc == 0:
                        continue
                    t = sc - sa - sb
                    if sc == inf or (t > 0 and t * t > 4 * sa * sb):
                        out.append(_homogeneous_violation(f, i, j, k))
                else:
                    out += _qm2_grid(f.gauges[i][j], f.gauges[j][k],
                                     f.gauges[i][k], i, j, k, grid)
    return out


def _step_witnesses(f: QuasiModularFamily, i, j, k, corners):
    """The violations of the step corners (a, b): a and b index the left
    endpoints 0+, b_1, b_2, ... of ga's and gb's pieces; a 0+ endpoint is
    witnessed at _corner_scale."""
    ga, gb, gc = f.gauges[i][j], f.gauges[j][k], f.gauges[i][k]
    t = _corner_scale(ga, gb, gc)
    out = []
    for a, b in corners:
        lam = ga.breakpoints[a - 1] if a else t
        mu = gb.breakpoints[b - 1] if b else t
        out.append(QM2Violation(i, j, k, lam, mu, gc(lam + mu), ga(lam) + gb(mu)))
    return out


def _corner_scale(ga, gb, gc) -> Fraction:
    """A scale t for every 0+ corner: below the first breakpoints of ga
    and gb, 2t below gc's, and b + t crossing no breakpoint c of gc for
    any breakpoint b of ga or gb (t < c - b)."""
    bounds = [g.breakpoints[0] for g in (ga, gb) if g.breakpoints]
    if gc.breakpoints:
        bounds.append(gc.breakpoints[0] / 2)
    bounds += [c - b for c in gc.breakpoints
               for b in (*ga.breakpoints, *gb.breakpoints) if c > b]
    return min(bounds, default=Fraction(2)) / 2


def _homogeneous_violation(f: QuasiModularFamily, i, j, k):
    """The witness of a homogeneous triple that fails c <= (sqrt(a) +
    sqrt(b))^2, where a and b are finite: an infinite c fails at
    lambda = mu = 1."""
    a, b, c = f.gauges[i][j].coeff, f.gauges[j][k].coeff, f.gauges[i][k].coeff
    if c.is_inf:
        one = Fraction(1)
        return QM2Violation(i, j, k, one, one, INF,
                            a.divided_by(one) + b.divided_by(one))
    return _homogeneous_witness(a.frac, b.frac, c.frac, i, j, k)


def _homogeneous_witness(af, bf, cf, i, j, k):
    """Scales with c/(l+m) > a/l + b/m.  (l+m)(a/l + b/m) is least at
    l : m = sqrt(a) : sqrt(b), so l and m come from integer square roots
    of a and b at a precision that doubles until the inequality holds.

    With L the total bit length of the six integers a, b and c are made
    of, a violating triple has c - (sqrt(a) + sqrt(b))^2 >= 2^-(3L+1), and
    (3L + 8)-bit roots bring (l+m)(a/l + b/m) closer than that to its
    least value.  Past the limit 4L + 64 the triple satisfies QM2, so it
    reached this function through a wrong decision: AssertionError."""
    if af == 0 and bf == 0:
        lam, mu = Fraction(1), Fraction(1)
    elif af == 0:
        lam, mu = (cf / bf - 1) / 2, Fraction(1)
    elif bf == 0:
        lam, mu = Fraction(1), (cf / af - 1) / 2
    else:
        limit = 4 * sum(v.numerator.bit_length() + v.denominator.bit_length()
                        for v in (af, bf, cf)) + 64
        bits = 32
        while True:
            sa = isqrt((af.numerator << 2 * bits) // af.denominator)
            sb = isqrt((bf.numerator << 2 * bits) // bf.denominator)
            if sa and sb:
                lam = Fraction(sa, sa + sb)
                mu = 1 - lam
                if cf > af / lam + bf / mu:
                    break
            if bits >= limit:
                raise AssertionError(f"QM2 holds on ({i}, {j}, {k}): no witness "
                                     f"at {bits}-bit precision")
            bits = min(2 * bits, limit)
    lhs, rhs = cf / (lam + mu), af / lam + bf / mu
    return QM2Violation(i, j, k, lam, mu, ExtNonNeg(lhs), ExtNonNeg(rhs))


def _qm2_grid(ga, gb, gc, i, j, k, grid):
    pts = set(grid)
    for g in (ga, gb, gc):
        pts.update(g.breakpoints)
    pts.add(min(pts) / 2)
    pts = sorted(pts)
    out = []
    for lam in pts:
        va = ga(lam)
        for mu in pts:
            lhs = gc(lam + mu)
            rhs = va + gb(mu)
            if not lhs <= rhs:
                out.append(QM2Violation(i, j, k, lam, mu, lhs, rhs))
    return out


# -- derived structures ---------------------------------------------------


def luxemburg_gauge(f: QuasiModularFamily) -> QuasiPseudoMetric:
    """Per pair, inf{lambda > 0 : w_lambda <= 1} (inf of the empty set is
    infinity), evaluated in closed form per kind.  The output must pass
    validate_qpm; a failure there propagates, since the family then lies
    outside the class for which the threshold construction is sound.
    """
    n = f.n
    dist = [[_luxemburg_one(f.gauges[i][j]) for j in range(n)] for i in range(n)]
    return validate_qpm(dist, points=f.points)


def _luxemburg_one(g: ScaleGauge) -> ExtNonNeg:
    one = ExtNonNeg(1)
    if g.kind == STEP:
        if g.values[0] <= one:
            return ZERO
        for t in range(1, len(g.values)):
            if g.values[t] <= one:
                return ExtNonNeg(g.breakpoints[t - 1])
        return INF
    if g.kind == HOMOGENEOUS:
        return g.coeff
    if g.coeff.is_inf:
        return INF
    if g.coeff == ZERO:
        return ZERO
    root = exact_root(g.coeff.frac ** g.exponent.denominator,
                      g.exponent.numerator)
    if root is None:
        raise NonRepresentable(g.exponent,
                               f"coefficient {g.coeff} has no exact root")
    return ExtNonNeg(root)


def conjugate_family(f: QuasiModularFamily) -> QuasiModularFamily:
    n = f.n
    gauges = tuple(tuple(f.gauges[j][i] for j in range(n)) for i in range(n))
    return QuasiModularFamily(points=f.points, gauges=gauges)


def symmetrize_family(f: QuasiModularFamily, grid=None) -> QuasiModularFamily:
    """Pointwise max of each gauge with its transpose.

    Steps merge exactly over the union of breakpoints and matching
    analytic kinds merge by max of coefficients; mismatched kinds are
    sampled to a step gauge on the supplied grid (KindMismatch without
    one).
    """
    n = f.n
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            row.append(merge_max(f.gauges[i][j], f.gauges[j][i], grid=grid))
        rows.append(tuple(row))
    return QuasiModularFamily(points=f.points, gauges=tuple(rows))


def merge_max(g1: ScaleGauge, g2: ScaleGauge, grid=None) -> ScaleGauge:
    if g1.kind == STEP and g2.kind == STEP:
        bps = sorted(set(g1.breakpoints) | set(g2.breakpoints))
        values = [enn_max(g1.values[0], g2.values[0])]
        values += [enn_max(g1(b), g2(b)) for b in bps]
        return _compressed_step(bps, values)
    if g1.kind == g2.kind == HOMOGENEOUS:
        return ScaleGauge.homogeneous(enn_max(g1.coeff, g2.coeff))
    if g1.kind == g2.kind == POWER and g1.exponent == g2.exponent:
        return ScaleGauge(kind=POWER, coeff=enn_max(g1.coeff, g2.coeff),
                          exponent=g1.exponent)
    if grid is None:
        raise KindMismatch(
            f"cannot merge {g1.kind} with {g2.kind} exactly; supply a grid")
    bps = sorted({Fraction(g) for g in grid})
    if not bps:
        raise EmptyGrid("merge grid is empty")
    if any(b <= 0 for b in bps):
        raise NonPositiveScale("merge grid values must be positive")
    values = [enn_max(g1.leading_value(), g2.leading_value())]
    values += [enn_max(g1(b), g2(b)) for b in bps]
    return _compressed_step(bps, values)


def _compressed_step(bps, values) -> ScaleGauge:
    out_b, out_v = [], [values[0]]
    for b, v in zip(bps, values[1:]):
        if v == out_v[-1]:
            continue
        out_b.append(b)
        out_v.append(v)
    return ScaleGauge(kind=STEP, breakpoints=tuple(out_b), values=tuple(out_v))


def modular_balls(f: QuasiModularFamily, x: int, lam: Fraction, eps: Fraction):
    """Forward and backward balls ({y: w_lam(x,y) < eps}, {y: w_lam(y,x) < eps})."""
    lam, eps = Fraction(lam), Fraction(eps)
    if lam <= 0 or eps <= 0:
        raise NonPositiveParameter("lambda and epsilon must be positive")
    bound = ExtNonNeg(eps)
    fwd = frozenset(y for y in range(f.n) if f.w(lam, x, y) < bound)
    bwd = frozenset(y for y in range(f.n) if f.w(lam, y, x) < bound)
    return fwd, bwd


def entourages(f: QuasiModularFamily, r: Fraction, lam: Fraction):
    """Relations ({(x,y): w_lam(x,y) < r}, inverse).  The section E+(x) is
    the forward ball modular_balls(f, x, lam, r)[0] by definition.

    The pairs are taken from _pair_table(n), so every relation on an
    n-point carrier shares the same (x, y) tuple objects: a caller that
    keeps many entourages keeps n^2 pair tuples in all, not a fresh tuple
    for every member of every relation.
    """
    lam, r = Fraction(lam), Fraction(r)
    if lam <= 0 or r <= 0:
        raise NonPositiveParameter("lambda and r must be positive")
    bound = ExtNonNeg(r)
    pairs = _pair_table(f.n)
    fwd = frozenset(pairs[x][y] for x in range(f.n) for y in range(f.n)
                    if f.w(lam, x, y) < bound)
    bwd = frozenset(pairs[y][x] for (x, y) in fwd)
    return fwd, bwd


@lru_cache(maxsize=16)
def _pair_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """pairs[x][y] == (x, y) for x, y < n, built once per carrier size."""
    return tuple(tuple((x, y) for y in range(n)) for x in range(n))


def luxemburg_symmetrization_gap(f: QuasiModularFamily, grid=None) -> dict:
    """Pointwise comparison of luxemburg(symmetrized family) with the
    symmetrization of the one-sided luxemburg gauges.  Reported, not
    asserted; the one-sided >= inequality is the only law tested
    elsewhere."""
    via_family = luxemburg_gauge(symmetrize_family(f, grid=grid))
    one_sided = luxemburg_gauge(f)
    rows = []
    ge_everywhere = True
    for i in range(f.n):
        for j in range(f.n):
            if i == j:
                continue
            sym = via_family.d(i, j)
            m = enn_max(one_sided.d(i, j), one_sided.d(j, i))
            if not m <= sym:
                ge_everywhere = False
            rows.append({
                "i": i,
                "j": j,
                "luxemburg_of_symmetrized": str(sym),
                "max_of_one_sided": str(m),
                "equal": sym == m,
            })
    return {"pairs": rows, "symmetrized_ge_max": ge_everywhere}


# -- Musielak-Orlicz style finite modulars --------------------------------


@dataclass(frozen=True)
class PiecewiseConvex:
    """Convex piecewise-linear phi with phi(0) = 0 and phi >= 0.

    pos_slopes[t] is the slope on [pos_breaks[t-1], pos_breaks[t]) with
    pos_breaks implicitly starting at 0; the optional negative side mirrors
    this leftwards with nonpositive slopes (omit it for the positive-part
    default phi(t) = 0 on t <= 0).
    """

    pos_breaks: tuple[Fraction, ...] = ()
    pos_slopes: tuple[Fraction, ...] = (Fraction(1),)
    neg_breaks: tuple[Fraction, ...] = ()
    neg_slopes: tuple[Fraction, ...] = ()

    def __post_init__(self):
        if len(self.pos_slopes) != len(self.pos_breaks) + 1:
            raise ValueError("need len(pos_slopes) == len(pos_breaks) + 1")
        if self.neg_slopes and len(self.neg_slopes) != len(self.neg_breaks) + 1:
            raise ValueError("need len(neg_slopes) == len(neg_breaks) + 1")
        for a, b in zip(self.pos_breaks, self.pos_breaks[1:]):
            if not 0 < a < b:
                raise ValueError("positive breakpoints must be increasing and > 0")
        if self.pos_breaks and self.pos_breaks[0] <= 0:
            raise ValueError("positive breakpoints must be > 0")
        for a, b in zip(self.neg_breaks, self.neg_breaks[1:]):
            if not b < a < 0:
                raise ValueError("negative breakpoints must decrease and be < 0")
        if self.neg_breaks and self.neg_breaks[0] >= 0:
            raise ValueError("negative breakpoints must be < 0")
        slopes_ltr = list(reversed(self.neg_slopes)) + list(self.pos_slopes)
        for a, b in zip(slopes_ltr, slopes_ltr[1:]):
            if a > b:
                raise ValueError("slopes must be nondecreasing (convexity)")
        if any(s < 0 for s in self.pos_slopes) or any(s > 0 for s in self.neg_slopes):
            raise ValueError("phi must be nonnegative with minimum at 0")

    def __call__(self, t: Fraction) -> Fraction:
        t = Fraction(t)
        if t == 0:
            return Fraction(0)
        total = Fraction(0)
        if t > 0:
            prev = Fraction(0)
            for b, s in zip(self.pos_breaks, self.pos_slopes):
                if t <= b:
                    return total + s * (t - prev)
                total += s * (b - prev)
                prev = b
            return total + self.pos_slopes[-1] * (t - prev)
        if not self.neg_slopes:
            return Fraction(0)
        prev = Fraction(0)
        for b, s in zip(self.neg_breaks, self.neg_slopes):
            if t >= b:
                return total + s * (t - prev)
            total += s * (b - prev)
            prev = b
        return total + self.neg_slopes[-1] * (t - prev)

    def is_single_slope(self) -> bool:
        return not self.pos_breaks and not self.neg_breaks

    def limit(self, sign: int) -> ExtNonNeg:
        """Exact limit of phi(t) as t -> sign * infinity."""
        if sign > 0:
            if self.pos_slopes[-1] > 0:
                return INF
            anchor = self.pos_breaks[-1] if self.pos_breaks else Fraction(1)
            return ExtNonNeg(self(anchor))
        if not self.neg_slopes or self.neg_slopes[-1] == 0:
            anchor = self.neg_breaks[-1] if self.neg_breaks else Fraction(-1)
            return ExtNonNeg(self(anchor))
        return INF


POSITIVE_PART = PiecewiseConvex()
ABSOLUTE_VALUE = PiecewiseConvex(neg_slopes=(Fraction(-1),))


@dataclass(frozen=True)
class OrliczSpec:
    """Finite weighted atom space with a convex phi per atom."""

    atoms: tuple[tuple[str, Fraction], ...]
    phi: tuple[PiecewiseConvex, ...]
    functions: tuple[tuple[Fraction, ...], ...]
    scaling: tuple  # ("homogeneous",) or ("power", Fraction)

    def __post_init__(self):
        if len(self.phi) != len(self.atoms):
            raise ValueError("need one phi per atom")
        for _, weight in self.atoms:
            if weight <= 0:
                raise ValueError("atom weights must be positive")
        for fvec in self.functions:
            if len(fvec) != len(self.atoms):
                raise ValueError("function vectors must cover every atom")
        if self.scaling[0] not in (HOMOGENEOUS, POWER):
            raise ValueError(f"unknown scaling {self.scaling!r}")

    def rho(self, vec) -> Fraction:
        return sum((w * self.phi[a](vec[a]) for a, (_, w) in enumerate(self.atoms)),
                   Fraction(0))


def from_orlicz(spec: OrliczSpec, lambda_grid=None) -> QuasiModularFamily:
    """Family w_lambda(f, g) = rho((g - f) / scale(lambda)).

    When every phi has a single slope per side the dependence on lambda is
    exactly c/scale(lambda) and the result uses the matching analytic
    kind.  Otherwise the family is sampled onto step gauges whose values
    are exact at the declared grid points (the off-grid step approximation
    of a strictly convex modular need not satisfy QM2, which validation
    will surface honestly).
    """
    n = len(spec.functions)
    labels = tuple(f"f{i}" for i in range(n))
    analytic = all(p.is_single_slope() for p in spec.phi)
    if not analytic and lambda_grid is None:
        raise EmptyGrid("general phi requires a declared lambda grid")
    exponent = Fraction(1) if spec.scaling[0] == HOMOGENEOUS else Fraction(spec.scaling[1])
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            delta = tuple(b - a for a, b in zip(spec.functions[i], spec.functions[j]))
            if analytic:
                c = spec.rho(delta)
                if spec.scaling[0] == HOMOGENEOUS:
                    row.append(ScaleGauge.homogeneous(c))
                else:
                    row.append(ScaleGauge.power(c, exponent))
            else:
                row.append(_sampled_gauge(spec, delta, lambda_grid, exponent))
        rows.append(tuple(row))
    return QuasiModularFamily(points=labels, gauges=tuple(rows))


def _sampled_gauge(spec: OrliczSpec, delta, lambda_grid, exponent) -> ScaleGauge:
    bps = sorted({Fraction(g) for g in lambda_grid})
    if any(b <= 0 for b in bps):
        raise NonPositiveScale("lambda grid values must be positive")
    leading = ZERO
    for a, (_, w) in enumerate(spec.atoms):
        if delta[a] == 0:
            continue
        lim = spec.phi[a].limit(1 if delta[a] > 0 else -1)
        leading = leading + lim.scaled(w)
    values = [leading]
    for b in bps:
        if exponent == 1:
            scale = b
        else:
            scale = _exact_rational_power(b, exponent)
            if scale is None:
                raise NonRepresentable(exponent, f"grid point {b}")
        values.append(ExtNonNeg(spec.rho(tuple(d / scale for d in delta))))
    return _compressed_step(bps, values)
