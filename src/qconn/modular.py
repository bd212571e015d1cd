"""Scale-indexed asymmetric gauge families and their induced structures.

A family assigns to every ordered pair of points a gauge w_lambda that is
nonincreasing and right-continuous in the scale lambda.  The axioms:

  QM1  w_lambda(x, x) = 0 for every lambda
  QM2  w_{lambda+mu}(x, z) <= w_lambda(x, y) + w_mu(y, z)
  QM3  lambda -> w_lambda(x, y) nonincreasing and right-continuous

Every gauge is stored exactly as one form, alpha_t + beta_t/lambda^p on
lambda-pieces: step functions (beta = 0), homogeneous c/lambda (one
piece, alpha = 0) and the piecewise gauges of pointwise maxima and of
Orlicz modulars with a kinked phi, all with p = 1, and power c/lambda^p,
the homogeneous form read in lambda^p.  Validation of QM2 is a real
decision procedure for step-only and homogeneous-only triples and an
exact check on a grid otherwise.  The decision runs on integers: one
common denominator scales every step breakpoint and another every finite
step value and homogeneous coefficient.  Fractions are used only for the
witness of a violation and for the grid check of the other triples.
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
from .numbers import INF, ExtNonNeg, exact_root

STEP = "step"
HOMOGENEOUS = "homogeneous"
PIECEWISE = "piecewise"
POWER = "power"
_NIL = Fraction(0)


@dataclass(frozen=True, slots=True)
class ScaleGauge:
    """One gauge lambda -> value, stored as its form.

    Breakpoints cut the scales into piece 0 = (0, b_1) and pieces t =
    [b_t, b_{t+1}), right-continuous; pieces[t] = (alpha_t, beta_t) gives
    the value alpha_t + beta_t/lambda^p on piece t, with p the exponent.
    beta_t >= 0 is rational and alpha_t a signed rational (Orlicz
    intercepts are <= 0) or None for +inf.  The kind names the file form
    and the QM2 rule: step (every beta = 0), homogeneous c/lambda and
    power c/lambda^p (one piece, alpha in {0, None}), piecewise for the
    rest; only a power gauge has p != 1.  Structural invariants are
    checked here; QM3 monotonicity is a family-level validation concern,
    not a construction error.
    """

    kind: str
    pieces: tuple[tuple[Fraction | None, Fraction], ...]
    breakpoints: tuple[Fraction, ...] = ()
    exponent: Fraction = Fraction(1)

    def __post_init__(self):
        kind, pieces, bps = self.kind, self.pieces, self.breakpoints
        if kind not in (STEP, HOMOGENEOUS, PIECEWISE, POWER):
            raise ValueError(f"unknown gauge kind {kind!r}")
        if len(pieces) != len(bps) + 1:
            raise ValueError(f"{kind} gauge needs one piece per breakpoint, plus one")
        for a, b in zip(bps, bps[1:]):
            if not a < b:
                raise ValueError("breakpoints must be strictly increasing")
        if bps and bps[0] <= 0:
            raise ValueError("breakpoints must be positive")
        for alpha, beta in pieces:
            if beta < 0 or (beta and (alpha is None or kind == STEP)):
                raise ValueError(f"{kind} gauge piece {(alpha, beta)} needs beta >= 0, "
                                 "and beta = 0 on an infinite or step piece")
            if kind == STEP and alpha is not None and alpha < 0:
                raise ValueError(f"step gauge value {alpha} is negative")
        if kind in (HOMOGENEOUS, POWER) and (bps or pieces[0][0] not in (0, None)):
            raise ValueError(f"{kind} gauge is one piece c/lambda or +inf")
        if kind == POWER and self.exponent < 1:
            raise ValueError("power exponent must be >= 1")
        if kind != POWER and self.exponent != 1:
            raise ValueError(f"{kind} gauge has exponent 1")

    # -- constructors ---------------------------------------------------

    @staticmethod
    def step(breakpoints, values) -> "ScaleGauge":
        levels = [ExtNonNeg(v) for v in values]
        return ScaleGauge(kind=STEP,
                          pieces=tuple((None if v.is_inf else v.frac, _NIL) for v in levels),
                          breakpoints=tuple(Fraction(b) for b in breakpoints))

    @staticmethod
    def constant(value) -> "ScaleGauge":
        return ScaleGauge.step((), (value,))

    @staticmethod
    def homogeneous(coeff) -> "ScaleGauge":
        return ScaleGauge(kind=HOMOGENEOUS, pieces=(_coeff_piece(coeff),))

    @staticmethod
    def power(coeff, exponent) -> "ScaleGauge":
        return ScaleGauge(kind=POWER, pieces=(_coeff_piece(coeff),),
                          exponent=Fraction(exponent))

    # -- evaluation -----------------------------------------------------

    def __call__(self, lam: Fraction) -> ExtNonNeg:
        lam = Fraction(lam)
        if lam <= 0:
            raise NonPositiveScale(f"scale must be positive, got {lam}")
        return _enn(self._level(lam))

    def _level(self, lam: Fraction) -> tuple[bool, Fraction]:
        """_at's (is +inf, value) pair at a positive Fraction lam."""
        piece = self.pieces[bisect_right(self.breakpoints, lam)]
        if piece[1] and self.exponent != 1:
            p = self.exponent
            root = exact_root(lam ** p.numerator, p.denominator)
            if root is None:
                raise NonRepresentable(p, f"lambda={lam} has no exact power")
            lam = root
        return _at(piece, lam)

    def is_identically_zero(self) -> bool:
        return all(a == 0 and not b for a, b in self.pieces)

    def monotone_violation(self):
        """First (lam1, lam2, v1, v2) with lam1 < lam2 but v1 < v2, or None.
        Pieces are nonincreasing, so QM3 fails only where a piece's limit
        at its right end b is below the value at b; lam1 is taken in that
        piece, past beta/(v2 - alpha)."""
        terms, bps = self.pieces, self.breakpoints
        for t, b in enumerate(bps):
            right = _at(terms[t + 1], b)
            if _at(terms[t], b) < right:
                lo = bps[t - 1] if t else _NIL
                alpha, beta = terms[t]
                thr = beta / (right[1] - alpha) if beta and not right[0] else _NIL
                lam1 = lo if lo > thr else (thr + b) / 2
                return (lam1, b, _enn(_at(terms[t], lam1)), _enn(right))
        return None


def _coeff_piece(coeff) -> tuple[Fraction | None, Fraction]:
    """The one piece of c/lambda: (0, c), or (None, 0) for c = +inf."""
    c = ExtNonNeg(coeff)
    return (None, _NIL) if c.is_inf else (_NIL, c.frac)


def _z(q: Fraction, den: int) -> int:
    """q * den for a den that q's denominator divides."""
    return q.numerator * (den // q.denominator)


def _at(piece, lam: Fraction) -> tuple[bool, Fraction]:
    """(is +inf, alpha + beta/lam) for one (alpha, beta) piece, which
    orders pieces as their values at lam."""
    alpha, beta = piece
    if alpha is None or not beta:
        return alpha is None, alpha or 0
    return False, alpha + beta / lam if alpha else beta / lam


def _enn(level) -> ExtNonNeg:
    """The ExtNonNeg of an (is +inf, value) pair."""
    return INF if level[0] else ExtNonNeg(level[1])


def _from_pieces(cuts, kind=None) -> ScaleGauge:
    """The gauge of (left end, (alpha, beta)) pieces in scale order, equal
    neighbours merged.  It is a step gauge when every beta is 0 and a
    homogeneous one when it is one piece beta/lambda, or when kind asks
    for homogeneous and the piece is 0 or inf; else piecewise."""
    keep = [t for t, (_, piece) in enumerate(cuts) if not t or piece != cuts[t - 1][1]]
    bps, terms = tuple(cuts[t][0] for t in keep[1:]), tuple(cuts[t][1] for t in keep)
    (alpha, beta), *rest = terms
    if not rest and (alpha is None or alpha == 0) and (beta or kind == HOMOGENEOUS):
        return ScaleGauge(kind=HOMOGENEOUS, pieces=terms)
    return ScaleGauge(kind=PIECEWISE if any(b for _, b in terms) else STEP,
                      pieces=terms, breakpoints=bps)


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
    coefficient by another (see _scaled_gauges).  The other triples (mixed
    kinds, piecewise or power gauges) are evaluated exactly, on Fractions,
    on the supplied grid augmented with every breakpoint (_qm2_grid);
    Fractions appear only there and in the witness of a violation.
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
    """A positive scale where g is nonzero: the left end of its first
    nonzero piece, where it is largest (half the first breakpoint for
    piece 0); the least grid point when g has no breakpoint."""
    if g.breakpoints:
        t = next(t for t, (a, b) in enumerate(g.pieces) if a != 0 or b)
        return g.breakpoints[t - 1] if t else g.breakpoints[0] / 2
    return grid[0]


def _scaled_gauges(f: QuasiModularFamily):
    """(rows, inf): the step and homogeneous gauges of f as integers.

    sden is the least common denominator of every step breakpoint and
    vden that of every finite step value alpha and homogeneous coefficient
    beta.  rows[i][j] is, for a step gauge, (corners, breakpoints * sden,
    values * vden), where corners pairs each piece's left endpoint (0
    standing for 0+) with its value; for a homogeneous gauge, coeff *
    vden; for a piecewise or power gauge, None.  Infinity becomes the int
    inf = 2 * (largest finite value) + 1, which exceeds any sum of two finite
    values and is never a float (an int beyond 10**308 plus a float
    infinity overflows).
    """
    flat = [g for row in f.gauges for g in row]
    steps = [g for g in flat if g.kind == STEP]
    finite = {a for g in steps for a, _ in g.pieces if a is not None}
    finite.update(g.pieces[0][1] for g in flat if g.kind == HOMOGENEOUS)
    sden = lcm(*{b.denominator for g in steps for b in g.breakpoints})
    vden = lcm(*{v.denominator for v in finite})
    top = max(finite, default=_NIL)
    inf = 2 * _z(top, vden) + 1

    def scaled(g):
        if g.kind == HOMOGENEOUS:
            alpha, beta = g.pieces[0]
            return inf if alpha is None else _z(beta, vden)
        if g.kind != STEP:
            return None
        bps = [_z(b, sden) for b in g.breakpoints]
        vals = [inf if a is None else _z(a, vden) for a, _ in g.pieces]
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
    (_, a), (_, b), (gamma, c) = (f.gauges[x][y].pieces[0] for x, y in ((i, j), (j, k), (i, k)))
    if gamma is None:
        one = Fraction(1)
        return QM2Violation(i, j, k, one, one, INF, ExtNonNeg(a + b))
    return _homogeneous_witness(Fraction(a), Fraction(b), Fraction(c), i, j, k)


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
    """The violations at every (lambda, mu) drawn from the grid, the three
    gauges' breakpoints and half the least of these; exact evaluation, so
    every one is real.  A lambda or mu where ga or gb is +inf satisfies
    QM2; the levels are compared as Fractions and only a violation's two
    sides become ExtNonNeg."""
    pts = set(grid)
    for g in (ga, gb, gc):
        pts.update(g.breakpoints)
    pts.add(min(pts) / 2)
    pts = sorted(pts)
    out = []
    if gc.is_identically_zero():  # then every lhs is 0
        return out
    vb = [(mu, v) for mu in pts for inf, v in [gb._level(mu)] if not inf]
    for lam in pts:
        inf, va = ga._level(lam)
        if inf:
            continue
        for mu, b in vb:
            lhs = gc._level(lam + mu)
            if lhs[0] or lhs[1] > va + b:
                out.append(QM2Violation(i, j, k, lam, mu, _enn(lhs), ExtNonNeg(va + b)))
    return out


# -- derived structures ---------------------------------------------------


def luxemburg_gauge(f: QuasiModularFamily) -> QuasiPseudoMetric:
    """Per pair, inf{lambda > 0 : w_lambda <= 1} (inf of the empty set is
    infinity), evaluated in closed form.  The output must pass
    validate_qpm; a failure there propagates, since the family then lies
    outside the class for which the threshold construction is sound.
    """
    n = f.n
    dist = [[_luxemburg_one(f.gauges[i][j]) for j in range(n)] for i in range(n)]
    return validate_qpm(dist, points=f.points)


def _luxemburg_one(g: ScaleGauge) -> ExtNonNeg:
    """inf{lambda : g(lambda) <= 1}: on the first piece that reaches 1,
    the larger of its left end and beta/(1 - alpha), a threshold on
    lambda^p; its exact p-th root when p != 1."""
    bps = g.breakpoints
    for t, (alpha, beta) in enumerate(g.pieces):
        if alpha is None or alpha > 1 or (alpha == 1 and beta):
            continue
        lam = max(bps[t - 1] if t else _NIL, beta / (1 - alpha) if alpha and beta else beta)
        if t == len(bps) or lam < bps[t]:
            break
    else:
        return INF
    p = g.exponent
    if p != 1:
        root = exact_root(lam ** p.denominator, p.numerator)
        if root is None:
            raise NonRepresentable(p, f"coefficient {lam} has no exact root")
        lam = root
    return ExtNonNeg(lam)


def conjugate_family(f: QuasiModularFamily) -> QuasiModularFamily:
    n = f.n
    gauges = tuple(tuple(f.gauges[j][i] for j in range(n)) for i in range(n))
    return QuasiModularFamily(points=f.points, gauges=gauges)


def symmetrize_family(f: QuasiModularFamily) -> QuasiModularFamily:
    """Pointwise max of each gauge with its transpose, exactly (merge_max).
    The max is symmetric, so each unordered pair is merged once."""
    n = f.n
    rows = [[None] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            rows[i][j] = rows[j][i] = merge_max(f.gauges[i][j], f.gauges[j][i])
    return QuasiModularFamily(points=f.points, gauges=tuple(tuple(row) for row in rows))


def merge_max(g1: ScaleGauge, g2: ScaleGauge) -> ScaleGauge:
    """The pointwise max of two gauges.  p = 1 gauges merge on the union
    of their breakpoints, each piece split where the two forms cross, at
    the rational lambda = (beta_1 - beta_2)/(alpha_2 - alpha_1); equal
    neighbours are then merged; two step or two homogeneous gauges keep
    their kind.  Power gauges merge the same way, in lambda^p, and only
    with power gauges of their exponent (KindMismatch otherwise).
    """
    if (g1.kind == POWER) != (g2.kind == POWER) or g1.exponent != g2.exponent:
        raise KindMismatch(f"cannot merge {g1.kind} with {g2.kind} exactly")
    b1, b2, p1, p2 = g1.breakpoints, g2.breakpoints, g1.pieces, g2.pieces
    ends = sorted({*b1, *b2})
    cuts = []
    for lo, hi in zip([_NIL, *ends], [*ends, None]):
        x, y = p1[bisect_right(b1, lo)], p2[bisect_right(b2, lo)]
        if x[0] != y[0] and x[1] != y[1] and x[0] is not None and y[0] is not None:
            cross = (x[1] - y[1]) / (y[0] - x[0])
            if lo < cross and (hi is None or cross < hi):
                cuts.append((lo, _larger(x, y, lo, cross)))
                lo = cross
        cuts.append((lo, _larger(x, y, lo, hi)))
    g = _from_pieces(cuts, g1.kind if g1.kind == g2.kind else None)
    return g if g1.kind != POWER else ScaleGauge(POWER, g.pieces, exponent=g1.exponent)


def _larger(x, y, lo: Fraction, hi: Fraction | None):
    """The piece that is larger on [lo, hi), where x and y do not cross:
    the larger beta under one alpha, else the larger value inside."""
    if x[0] == y[0]:
        return x if x[1] >= y[1] else y
    mid = (x[1] or y[1]) and (lo + 1 if hi is None else (lo + hi) / 2)
    return x if _at(x, mid) >= _at(y, mid) else y


def modular_balls(f: QuasiModularFamily, x: int, lam: Fraction, eps: Fraction):
    """Forward and backward balls ({y: w_lam(x,y) < eps}, {y: w_lam(y,x) < eps})."""
    lam, eps = Fraction(lam), Fraction(eps)
    if lam <= 0 or eps <= 0:
        raise NonPositiveParameter("lambda and epsilon must be positive")
    bound = (False, eps)
    fwd = frozenset(y for y in range(f.n) if f.gauges[x][y]._level(lam) < bound)
    bwd = frozenset(y for y in range(f.n) if f.gauges[y][x]._level(lam) < bound)
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
    bound = (False, r)
    pairs = _pair_table(f.n)
    fwd = frozenset(pairs[x][y] for x, row in enumerate(f.gauges)
                    for y, g in enumerate(row) if g._level(lam) < bound)
    bwd = frozenset(pairs[y][x] for (x, y) in fwd)
    return fwd, bwd


@lru_cache(maxsize=16)
def _pair_table(n: int) -> tuple[tuple[tuple[int, int], ...], ...]:
    """pairs[x][y] == (x, y) for x, y < n, built once per carrier size."""
    return tuple(tuple((x, y) for y in range(n)) for x in range(n))


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

    def side(self, t) -> tuple[tuple[Fraction, ...], tuple[Fraction, ...]]:
        """(breakpoints, slopes) of the side of 0 that t lies on."""
        if t >= 0:
            return self.pos_breaks, self.pos_slopes
        return (self.neg_breaks, self.neg_slopes) if self.neg_slopes else ((), (_NIL,))

    def __call__(self, t: Fraction) -> Fraction:
        """c + s*t on the piece holding t; past each breakpoint b the
        intercept c moves by (s_before - s_after)*b."""
        t = Fraction(t)
        breaks, slopes = self.side(t)
        c = _NIL
        for k, b in enumerate(breaks):
            if abs(t) <= abs(b):
                return c + slopes[k] * t
            c += (slopes[k] - slopes[k + 1]) * b
        return c + slopes[-1] * t


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
        if self.scaling[0] == POWER and self.scaling[1] < 1:
            raise ValueError(f"power scaling needs p >= 1, got {self.scaling[1]}")

    def rho(self, vec) -> Fraction:
        return sum((w * self.phi[a](vec[a]) for a, (_, w) in enumerate(self.atoms)),
                   Fraction(0))


def from_orlicz(spec: OrliczSpec) -> QuasiModularFamily:
    """Family w_lambda(f, g) = rho((g - f) / scale(lambda)), exactly.

    Where delta_a/lambda lies on a piece c + s*x of phi_a, atom a adds
    w_a*c to alpha and w_a*s*delta_a to beta.  Each atom starts on its
    outermost piece and moves inwards at lambda = delta_a/b for each
    breakpoint b on delta_a's side (_phi_side): one sweep over those cuts,
    on integers, gives the p = 1 form.  Under power scaling that form, in
    lambda^p, must be one piece c/lambda^p (NonRepresentable otherwise).
    """
    sides = [[_phi_side(w, phi, sign) for sign in (1, -1)]
             for (_, w), phi in zip(spec.atoms, spec.phi)]
    rows = [row for atom in sides for side in atom for row in side]
    fden = lcm(*{v.denominator for f in spec.functions for v in f})
    cden, aden, bden = (lcm(*{r[c].denominator for r in rows}) for c in range(3))
    sides = [[[(_z(c, cden), _z(a, aden), _z(b, bden)) for c, a, b in side] for side in atom]
             for atom in sides]
    funcs = [[_z(v, fden) for v in f] for f in spec.functions]
    cden, bden = cden * fden, bden * fden
    gauges = []
    for fi in funcs:
        row = []
        for fj in funcs:
            alpha = beta = 0
            events = []
            for atom, d in zip(sides, (b - a for a, b in zip(fi, fj))):
                if d:
                    (_, a0, b0), *ev = atom[d < 0]
                    alpha, beta = alpha + a0, beta + b0 * d
                    events += [(c * d, da, db * d) for c, da, db in ev]
            cuts = [(0, alpha, beta)]
            for key, da, db in sorted(events):
                alpha, beta = alpha + da, beta + db
                if cuts[-1][0] == key:
                    cuts.pop()
                cuts.append((key, alpha, beta))
            g = _from_pieces([(Fraction(k, cden), (Fraction(a, aden), Fraction(b, bden)))
                              for k, a, b in cuts], HOMOGENEOUS)
            if spec.scaling[0] == POWER:
                if g.kind != HOMOGENEOUS:
                    raise NonRepresentable(spec.scaling[1], "phi has a breakpoint "
                                           "that a difference of functions reaches")
                g = ScaleGauge(POWER, g.pieces, exponent=Fraction(spec.scaling[1]))
            row.append(g)
        gauges.append(tuple(row))
    return QuasiModularFamily(points=tuple(f"f{i}" for i in range(len(spec.functions))),
                              gauges=tuple(gauges))


def _phi_side(w: Fraction, phi: PiecewiseConvex, sign: int):
    """Rows (cut/delta, alpha, beta/delta) of w*phi on one side of 0: the
    outermost piece's intercept and slope (cut 0), then per breakpoint b
    the changes inwards, slope by j = w*(inner - outer slope), alpha by -j*b."""
    breaks, slopes = phi.side(sign)
    jumps = [w * (s_in - s_out) for s_in, s_out in zip(slopes, slopes[1:])]
    rows = [(1 / b, -j * b, j) for j, b in zip(jumps, breaks)]
    return [(_NIL, -sum((r[1] for r in rows), _NIL), w * slopes[-1]), *rows]
