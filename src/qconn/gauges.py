"""Finite quasi-pseudometrics: construction, validation, and transforms.

A quasi-pseudometric keeps zero self-distance and the triangle inequality
but drops symmetry, so every instance carries three faces: the matrix d
itself, its conjugate d(y,x), and the pointwise-max symmetrization.
Sources supported here: explicit matrices, weighted digraphs (min-plus
path closure), and one-sided positive-part lp gauges on sampled vectors.

Internal form.  A QuasiPseudoMetric stores one common denominator ``den``
and integer ``rows``: rows[i][j] is d(i, j) * den as a Python int, or
``math.inf``.  ``den`` is the least common denominator of the finite
entries and of the float-mode tolerance, so the tolerance is the integer
``eps = tol * den`` on the same scale (0 in exact mode).  Float mode comes
only from ``from_asym_norm``, which gives such a metric a zero diagonal
and a transitive zero relation, so no analysis needs a float branch.  It
computes every gauge from the sample's coordinates scaled to integers
by one common denominator; a float gauge enters the rows as the dyadic
rational it is (``float.as_integer_ratio``).  The min-plus closure, the
diagonal and triangle check of ``validate_qpm``, zero tests, the
spectrum and ball masks all compare these integers, which is exact in
both modes: d(i, j) counts as zero iff rows[i][j] <= eps.  Sums are
formed from finite entries only, so ``math.inf`` meets an integer only
in comparisons, which Python decides exactly at any size.  Values of
``numbers`` (a Fraction, or INF for +inf) exist only at the boundary:
``dist`` and ``d(i, j)``, the violation records, and serialisation.

Threshold index.  Every threshold question (zero relation, open balls,
the closed balls of the formal-ball order, the spectrum) is answered from
one index built on first use: per row, its distinct values in ascending
order and the prefix masks ``masks[t] = {j : rows[i][j] < values[t]}``.
A row's mask below any integer bound is then one ``bisect`` away.
"""

from __future__ import annotations

from bisect import bisect_left
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, inf, isfinite, lcm

from .errors import NonRepresentable, PreconditionFailed, QpmValidationError
from .numbers import INF, Value, enn, int_root
from .relations import coherence_violation


@dataclass(frozen=True)
class NonZeroDiagonal:
    i: int
    value: Value

    def __str__(self):
        return f"NonZeroDiagonal(i={self.i}, value={self.value})"


@dataclass(frozen=True)
class TriangleViolation:
    i: int
    j: int
    k: int
    lhs: Value
    rhs: Value

    def __str__(self):
        return f"TriangleViolation(i={self.i}, j={self.j}, k={self.k}, {self.lhs} > {self.rhs})"


@dataclass(frozen=True, init=False)
class QuasiPseudoMetric:
    """Validated n x n distance matrix over labelled points, in the scaled
    integer form of the module docstring.

    ``tol`` is None in exact mode; in float mode, which only
    ``from_asym_norm`` builds, it is the absolute tolerance applied to
    every comparison, recorded so reports can state which regime produced
    them.  There is no public constructor: every metric comes from a
    builder that checks or guarantees the axioms (``validate_qpm``,
    ``from_digraph``, ``from_asym_norm``, ``conjugate``, ``symmetrize``,
    ``modular.luxemburg_gauge``).
    """

    points: tuple[str, ...]
    den: int
    rows: tuple[tuple[int | float, ...], ...]
    tol: Fraction | None
    eps: int

    @property
    def n(self) -> int:
        return len(self.points)

    @cached_property
    def dist(self) -> tuple[tuple[Value, ...], ...]:
        return tuple(tuple(_value(v, self.den) for v in row) for row in self.rows)

    def d(self, i: int, j: int) -> Value:
        return self.dist[i][j]

    def is_zero(self, value: Value) -> bool:
        """Zero test under the metric's numeric mode."""
        return value is not INF and value.numerator * self.den <= self.eps * value.denominator

    @cached_property
    def _index(self) -> tuple[tuple[list, list[int]], ...]:
        """Per row, its ascending distinct values and the prefix masks
        masks[t] of the entries below values[t]; masks[-1] is the whole row."""
        index = []
        for row in self.rows:
            at: dict = {}
            for j, v in enumerate(row):
                at[v] = at.get(v, 0) | 1 << j
            values = sorted(at)
            masks = [0]
            for v in values:
                masks.append(masks[-1] | at[v])
            index.append((values, masks))
        return tuple(index)

    def _rows_below(self, bound: int) -> list[int]:
        """Row bitmasks of {(i, j): rows[i][j] < bound}."""
        return [masks[bisect_left(values, bound)] for values, masks in self._index]

    @cached_property
    def _zero_rows(self) -> tuple[int, ...]:
        return tuple(self._rows_below(self.eps + 1))

    def zero_mask_rows(self) -> list[int]:
        """Row bitmasks of the specialization relation {(i,j): d(i,j)=0}."""
        return list(self._zero_rows)

    def ball_rows(self, radius) -> list[int]:
        """Row bitmasks of the open forward balls {y : d(x, y) < radius},
        where a distance that counts as zero (at most eps) lies in every
        ball, so a float-mode ball of radius <= tol still holds the
        point's zero class."""
        r = Fraction(radius)
        # an integer v is below r * den iff it is below its ceiling
        return self._rows_below(max(-(-r.numerator * self.den // r.denominator),
                                    self.eps + 1))

    def positive_spectrum(self) -> list[Fraction]:
        """Sorted distinct positive finite distances."""
        vals = {v for values, _ in self._index for v in values if self.eps < v < inf}
        return [Fraction(v, self.den) for v in sorted(vals)]


def _value(v, den: int) -> Value:
    return INF if v == inf else Fraction(v, den)


def _scale(matrix) -> tuple[int, list[list[int | float]]]:
    """(den, rows) of a square matrix; den is the lcm of the entries' denominators."""
    values = [list(map(enn, row)) for row in matrix]
    if any(len(row) != len(values) for row in values):
        raise ValueError("matrix is not square")
    den = lcm(*{v.denominator for row in values for v in row if v is not INF})
    return den, [[inf if v is INF else v.numerator * (den // v.denominator)
                  for v in row] for row in values]


def _metric(points, den: int, rows, tol=None) -> QuasiPseudoMetric:
    """A metric straight from scaled rows, without the axiom check; den is
    reduced to the least common denominator, so equal metrics have equal fields."""
    d = object.__new__(QuasiPseudoMetric)
    eps = 0 if tol is None else int(Fraction(tol) * den)  # den is a multiple of tol's
    g = gcd(den, eps, *(v for row in rows for v in row if v != inf))
    if g > 1:
        den, eps = den // g, eps // g
        rows = [[v if v == inf else v // g for v in row] for row in rows]
    for name, value in (("points", tuple(points)), ("den", den),
                        ("rows", tuple(map(tuple, rows))), ("tol", tol), ("eps", eps)):
        object.__setattr__(d, name, value)
    return d


@dataclass(frozen=True)
class WeightedDigraph:
    """Directed graph with finite nonnegative weights; parallel edges are
    resolved by minimum weight before any closure."""

    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, Value], ...]

    def __post_init__(self):
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        for u, v, w in self.edges:
            if u not in known or v not in known:
                raise ValueError(f"edge ({u},{v}) references unknown vertex")
            if w is INF:
                raise ValueError(f"edge ({u},{v}) has infinite weight")


@dataclass(frozen=True)
class AsymNormSample:
    """Finite sample of rational vectors analysed under the positive-part
    lp gauge ``(sum_k max(y_k - x_k, 0)^p)^(1/p)``."""

    dimension: int
    p: Fraction
    points: tuple[tuple[Fraction, ...], ...]

    def __post_init__(self):
        if self.dimension < 1:
            raise ValueError("dimension must be positive")
        if self.p < 1:
            raise ValueError("exponent p must be >= 1")
        for v in self.points:
            if len(v) != self.dimension:
                raise ValueError("vector length does not match dimension")


def _violations(den: int, rows) -> list:
    """Nonzero diagonal entries, then every (i, j, k) in lexicographic
    order with rows[i][k] > rows[i][j] + rows[j][k].  A triple with an
    infinite summand cannot violate the law, so only finite entries of
    row i and of row j are summed."""
    bad = [NonZeroDiagonal(i, _value(row[i], den))
           for i, row in enumerate(rows) if row[i] > 0]
    finite = [[(k, v) for k, v in enumerate(row) if v != inf] for row in rows]
    for i, row_i in enumerate(rows):
        for j, dij in finite[i]:
            for k, djk in finite[j]:
                if row_i[k] > dij + djk:
                    bad.append(TriangleViolation(i, j, k, _value(row_i[k], den),
                                                 _value(dij + djk, den)))
    return bad


def qpm_violations(matrix) -> list:
    """All diagonal and triangle violations of the candidate matrix."""
    return _violations(*_scale(matrix))


def validate_qpm(matrix, points=None) -> QuasiPseudoMetric:
    """Validate a square matrix of values (anything ``enn`` reads) against
    the axioms.

    Returns the immutable structure, or raises QpmValidationError carrying
    every violated triple and diagonal entry.
    """
    den, rows = _scale(matrix)
    points = tuple(str(i) for i in range(len(rows))) if points is None else tuple(points)
    if len(points) != len(rows):
        raise ValueError("point labels do not match matrix size")
    bad = _violations(den, rows)
    if bad:
        raise QpmValidationError(bad)
    return _metric(points, den, rows)


def conjugate(d: QuasiPseudoMetric) -> QuasiPseudoMetric:
    """Transpose: swap the roles of source and target."""
    return _metric(d.points, d.den, list(zip(*d.rows)), d.tol)


def symmetrize(d: QuasiPseudoMetric) -> QuasiPseudoMetric:
    """Pointwise max of d and its conjugate; always a pseudometric."""
    rows = [list(map(max, r, c)) for r, c in zip(d.rows, zip(*d.rows))]
    return _metric(d.points, d.den, rows, d.tol)


def from_digraph(g: WeightedDigraph) -> QuasiPseudoMetric:
    """Min-plus path closure of a weighted digraph.

    dist[i][j] = infimum of path weights i -> j (inf over the empty path
    set is infinity).  Self-distance is pinned to 0 regardless of cycles.
    The output is transitively closed, hence triangle-valid by
    construction and not re-validated.
    """
    n = len(g.vertices)
    idx = {v: i for i, v in enumerate(g.vertices)}
    den = lcm(*{w.denominator for _, _, w in g.edges})
    dist = [[0 if i == j else inf for j in range(n)] for i in range(n)]
    for u, v, w in g.edges:
        i, j = idx[u], idx[v]
        s = w.numerator * (den // w.denominator)
        if i != j and s < dist[i][j]:
            dist[i][j] = s
    for k in range(n):
        # row k is fixed while k is the pivot, since dist[k][k] = 0
        reach = [(j, v) for j, v in enumerate(dist[k]) if v != inf]
        for row_i in dist:
            dik = row_i[k]
            if dik == inf:
                continue
            for j, v in reach:
                via = dik + v
                if via < row_i[j]:
                    row_i[j] = via
    return _metric(g.vertices, den, dist)


def _exact_lp(x: list[int], y: list[int], den: int, p: Fraction) -> int:
    """Exact gauge from x to y, integer vectors over the denominator den,
    as an integer over the same den: the p-th root of
    S = sum_k max(y_k - x_k, 0)^p, which is rational iff S is the p-th
    power of an integer (rational root theorem), or ``NonRepresentable``."""
    ts = [b - a for a, b in zip(x, y) if b > a]
    if p.denominator != 1:
        if ts:
            raise NonRepresentable(p, "non-integer exponent in exact mode")
        return 0
    power = int(p)
    total = sum(t**power for t in ts)
    root = int_root(total, power)
    if root is None:
        raise NonRepresentable(p, f"{Fraction(total, den**power)} has no exact {power}-th root")
    return root


def _float_lp(x: list[int], y: list[int], den: int, p: float) -> float:
    """Float gauge from x to y, integer vectors over the denominator den,
    or ``math.inf`` past the float range (about 1.8e308).  A difference is
    one correctly rounded int/int division, the float of the exact
    difference.  Only a plain sum that overflows is recomputed with the
    largest difference m factored out, m * (sum_k (t_k/m)^p)^(1/p), so a
    gauge the plain formula can hold keeps its bits."""
    try:
        g = sum(((b - a) / den) ** p for a, b in zip(x, y) if b > a) ** (1 / p)
    except OverflowError:
        g = inf
    if g < inf:
        return g
    try:
        ts = [(b - a) / den for a, b in zip(x, y) if b > a]
    except OverflowError:  # a difference is past the float range
        return inf
    m = max(ts)
    return m * sum((t / m) ** p for t in ts) ** (1 / p)


def from_asym_norm(s: AsymNormSample, mode: str = "exact",
                   tol: float = 1e-9) -> QuasiPseudoMetric:
    """Quasi-pseudometric of the positive-part lp gauge on the sample.

    Exact for p = 1 (and for integer p when every root is rational);
    otherwise requires mode="float", whose absolute tolerance, a finite
    number >= 0, is recorded on the result and applied to every
    downstream comparison.  A p = 1 gauge is always exact, so float mode
    refuses it with a ``ValueError``.  Both modes read the sample scaled to
    integers by one common denominator: an exact gauge is an integer on it
    (``_exact_lp``), a float gauge (``_float_lp``) the dyadic rational it
    is.  (u + v)+ <= u+ + v+ and Minkowski's inequality give the triangle
    law, so neither mode checks it; float rows miss it only by rounding.
    In float mode two hops within the tolerance can add up to one beyond
    it; a sample whose zero relation {d <= tol} is therefore not
    transitive raises ``PreconditionFailed``, and one whose gauge passes
    the float range raises ``NonRepresentable`` naming the two points.
    """
    if mode not in ("exact", "float"):
        raise ValueError(f"unknown mode {mode!r}")
    if mode == "float":
        if s.p == 1:
            raise ValueError("mode='float' needs p != 1: a p = 1 gauge is exact")
        if not (isfinite(tol) and tol >= 0):
            raise ValueError(f"tol must be a finite number >= 0, got {tol}")
    labels = [f"v{i}" for i in range(len(s.points))]
    den = lcm(*{c.denominator for v in s.points for c in v})
    vecs = [[c.numerator * (den // c.denominator) for c in v] for v in s.points]
    if s.p == 1:
        return _metric(labels, den, [[sum(b - a for a, b in zip(x, y) if b > a)
                                      for y in vecs] for x in vecs])
    if mode == "exact":
        return _metric(labels, den, [[_exact_lp(x, y, den, s.p) for y in vecs]
                                     for x in vecs])
    tol = Fraction(tol)
    p = float(s.p)
    gauges = [[_float_lp(x, y, den, p) for y in vecs] for x in vecs]
    for x, row in enumerate(gauges):
        if inf in row:
            raise NonRepresentable(s.p, f"the float-mode gauge of the asym_norm_sample "
                                        f"from {labels[x]} to {labels[row.index(inf)]} "
                                        f"overflows float arithmetic")
    ratios = [[g.as_integer_ratio() for g in row] for row in gauges]
    den = lcm(tol.denominator, max((q for row in ratios for _, q in row), default=1))
    rows = [[a * (den // q) for a, q in row] for row in ratios]
    d = _metric(labels, den, rows, tol)
    bad = coherence_violation(d._zero_rows)
    if bad is not None:
        x, y = bad
        raise PreconditionFailed(
            f"float-mode zero relation is not transitive (y={y} in N({x}) but N({y}) "
            f"escapes N({x})): distances within the tolerance {tol} do not compose")
    return d


def symmetrization_gap_report(s: AsymNormSample) -> dict:
    """Compare max{forward, backward} gauges with the full lp norm, pair
    by pair, at p = 1.

    The symmetrized gauge max(d+, d-) is equivalent to the full norm with
    constants [1, 2] but equality can fail (mixed-sign differences), so
    the report records the constants and flags each failing pair instead
    of asserting equality: max(forward, backward) <= full norm = forward
    + backward holds on every pair, since at p = 1 the norm of a
    difference is the sum of its positive and negative parts.
    """
    if s.p != 1:
        raise NonRepresentable(s.p, "gap report is exact only for p = 1")
    d = from_asym_norm(s)
    pairs = []
    worst_ratio = Fraction(1)
    for i in range(d.n):
        for j in range(i + 1, d.n):
            fwd = Fraction(d.rows[i][j], d.den)
            bwd = Fraction(d.rows[j][i], d.den)
            full = fwd + bwd  # |t| = t+ + t-
            m = max(fwd, bwd)
            pairs.append({
                "i": i,
                "j": j,
                "max_one_sided": str(m),
                "full_norm": str(full),
                "equality": m == full,
            })
            if m > 0:
                worst_ratio = max(worst_ratio, full / m)
    return {
        "pairs": pairs,
        "equality_claim_holds": all(entry["equality"] for entry in pairs),
        "equivalence_constants": ["1", str(worst_ratio)],
    }
