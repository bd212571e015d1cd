"""Cauchy behaviour, completeness certificates, covers, and formal balls
on finite quasi-pseudometric spaces.

On a finite carrier the tail behaviour of any sequence is captured by
which points recur forever, so sequences are represented in eventually
periodic form: the directional Cauchy property and the limit set depend
only on the period multiset and the pairwise forward distances among its
members.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm

from .errors import NegativeRadius, NotCauchy, PreconditionFailed
from .gauges import QuasiPseudoMetric
from .relations import OPEN_MASK_LIMIT, indices_of, is_closed, mask_of, scc_masks, transpose


@dataclass(frozen=True)
class EventuallyPeriodicSeq:
    """x_n = preperiod[n] while it lasts, then cycles through period."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")


def _broken(d: QuasiPseudoMetric, what: str, structure: str, cause: str) -> PreconditionFailed:
    """The PreconditionFailed of a float-mode metric, whose distances obey
    the laws only up to the tolerance.  The checks that raise it run in
    float mode only: on exact distances the laws hold, since a metric is
    built either by validate_qpm or, unvalidated by contract, from a
    matrix that satisfies them, and the tests check them as oracles."""
    return PreconditionFailed(f"float-mode distances break {structure} ({what}): "
                              f"{cause} the tolerance {d.tol}")


def _zero_from_all(rows, period) -> int:
    """Mask of the points at distance zero from every period point."""
    common = -1
    for p in period:
        common &= rows[p]
    return common


def is_left_k_cauchy(d: QuasiPseudoMetric, s: EventuallyPeriodicSeq) -> bool:
    """Decide the directional Cauchy condition exactly.

    Requiring d(x_n, x_m) < eps for all m >= n >= N and every eps > 0
    forces, on a finite carrier, d(p, q) = 0 for every ordered pair of
    period points: any ordered pair recurs with arbitrarily late indices
    in both orders across laps, and choosing eps below the least positive
    distance of the space rules out any positive value.  The preperiod is
    irrelevant (the condition only constrains tails).
    """
    period = mask_of(s.period, d.n)
    return not period & ~_zero_from_all(d.zero_mask_rows(), s.period)


def forward_limits(d: QuasiPseudoMetric, s: EventuallyPeriodicSeq) -> frozenset[int]:
    """{x : d(x_n, x) -> 0} = points at distance zero from every period
    point.  Nonempty for every directional Cauchy sequence here: the
    period points themselves qualify."""
    if not is_left_k_cauchy(d, s):
        raise NotCauchy("sequence is not left K-Cauchy")
    return frozenset(indices_of(_zero_from_all(d.zero_mask_rows(), s.period)))


def smyth_report(d: QuasiPseudoMetric) -> dict:
    """Constructive completeness certificate for the finite space.

    Every directional Cauchy sequence is tail-confined to one class of the
    zero-distance digraph's strongly connected partition; inside such a
    class all pairwise forward distances vanish (zero cycles close into
    zero cliques by the triangle inequality), so cycling through the class
    is the canonical representative sequence and each of its members is a
    forward limit.  A limit y is by definition at zero distance from every
    class member, which is the conjugate-side ball criterion (every period
    point inside every backward ball around y), so the report does not
    re-check it.  Float-mode zero distances compose only up to the
    tolerance, so in float mode each class is checked to be a zero clique
    (see _broken).  A zero clique is left K-Cauchy, so the limits are read
    off the zero rows without forward_limits' Cauchy check.

    A finite space is always complete, so ``complete`` is True in every
    report this returns and decides nothing; the report's content is its
    witnesses, the zero classes with their forward limits.
    """
    rows = d.zero_mask_rows()
    witnesses = []
    for cls in scc_masks(rows):
        members = indices_of(cls)
        limits = _zero_from_all(rows, members)
        if d.tol is not None and limits & cls != cls:
            raise _broken(d, f"zero cycle through {members} is not a zero clique",
                          "the completeness certificate",
                          "zero distances compose only up to")
        witnesses.append({"class": members, "forward_limits": indices_of(limits)})
    return {
        "complete": True,
        "classes": witnesses,
        "tolerance": None if d.tol is None else str(d.tol),
    }


def _first_fit_cover(balls) -> list[int]:
    """Centers taken in point order, each one not yet covered; ``balls``
    are the forward-ball rows d.ball_rows(eps)."""
    full = (1 << len(balls)) - 1
    covered = 0
    centers = []
    for x, ball in enumerate(balls):
        if covered >> x & 1:
            continue
        centers.append(x)
        covered |= ball
        if covered == full:
            break
    return centers


def precompact_report(d: QuasiPseudoMetric, thresholds) -> dict:
    """Finite forward-ball covers, one per threshold.

    Thresholds are processed in ascending order and each cover is carried
    forward: a cover at eps still covers at any larger eps, so reporting
    the smaller of {fresh first-fit cover, previous cover} yields minimal
    greedy cover sizes that are nonincreasing in eps by construction
    (first-fit alone does not guarantee that).  Every point lies in its
    own ball, so each cover covers; float-mode self-distances vanish only
    up to the tolerance, so in float mode the union is checked (see
    _broken).

    A finite space is always precompact, so ``precompact`` is True in
    every report this returns; the report's content is its covers.
    """
    eps_list = sorted({Fraction(t) for t in thresholds})
    if any(t <= 0 for t in eps_list):
        raise NegativeRadius("thresholds must be positive")
    full = (1 << d.n) - 1
    covers = []
    prev: list[int] | None = None
    for eps in eps_list:
        balls = d.ball_rows(eps)
        centers = _first_fit_cover(balls)
        if prev is not None and len(prev) < len(centers):
            centers = prev
        if d.tol is not None:
            union = 0
            for c in centers:
                union |= balls[c]
            if union != full:
                raise _broken(d, f"cover at eps={eps} does not cover the carrier",
                              "the forward-ball cover",
                              "self-distances vanish only up to")
        covers.append({"eps": str(eps), "centers": centers, "size": len(centers)})
        prev = centers
    return {"carrier_size": d.n, "covers": covers, "precompact": True}


def join_compactness_check(d: QuasiPseudoMetric, thresholds=None) -> dict:
    """Instantiate the implication chain 'precompact and directionally
    complete implies the join topology is compact' on one finite space.

    Hypotheses are produced as sub-reports; the conclusion follows from
    finiteness of the carrier (every open cover has a finite subcover).
    Up to ``OPEN_MASK_LIMIT`` points the report also gives the size of the
    canonical cover by minimal join neighborhoods, which covers the
    carrier because each neighborhood contains its own point.

    On a finite carrier ``conclusion.join_compact``,
    ``conclusion.carrier_finite`` and both ``hypotheses`` entries are
    True in every report this returns; its content is the witnesses of
    the two sub-reports and the canonical cover size.
    """
    from .bitopology import join, specialization_bitop

    if thresholds is None:
        spectrum = d.positive_spectrum()
        thresholds = spectrum[:3] + [spectrum[-1] + 1] if spectrum else [Fraction(1)]
    pre = precompact_report(d, thresholds)
    smyth = smyth_report(d)
    topo = join(specialization_bitop(d))
    conclusion = {"join_compact": True, "carrier_finite": True}
    if d.n <= OPEN_MASK_LIMIT:
        conclusion["canonical_cover_size"] = len(set(topo.nbhd))
    return {
        "hypotheses": {"precompact": pre["precompact"], "smyth_complete": smyth["complete"]},
        "precompact_report": pre,
        "smyth_report": smyth,
        "conclusion": conclusion,
    }


@dataclass(frozen=True)
class FormalBall:
    point: int
    radius: Fraction

    def __post_init__(self):
        if self.radius < 0:
            raise NegativeRadius(f"radius {self.radius} is negative")


@dataclass(frozen=True)
class FormalBallPoset:
    """Pairs (point, radius) ordered by (x, r) <= (y, s) iff d(x,y) <= r - s.

    Reflexivity is d(x,x)=0 <= 0; transitivity follows from the triangle
    inequality through (r-s) + (s-t) = r-t, and antisymmetry holds up to
    mutual zero distance at equal radii.  Float-mode distances obey the
    triangle inequality only up to the tolerance, so in float mode the
    three laws are checked exhaustively on the grid at construction.
    """

    labels: tuple[str, ...]
    elements: tuple[FormalBall, ...]
    le_rows: tuple[int, ...]

    def le(self, a: int, b: int) -> bool:
        return bool(self.le_rows[a] >> b & 1)

    def hasse_edges(self) -> list[tuple[int, int]]:
        """Cover pairs of the preorder quotient: a < b with nothing strictly
        between, mutual pairs excluded."""
        strict = [le & ~ge for le, ge in zip(self.le_rows, transpose(self.le_rows))]
        strict_below = transpose(strict)
        return [(a, b) for a, above in enumerate(strict)
                for b in indices_of(above) if not above & strict_below[b]]

    def describe(self, a: int) -> str:
        ball = self.elements[a]
        return f"({self.labels[ball.point]},{ball.radius})"


def _slack_table(radii: list[Fraction], den: int) -> list[list[int]]:
    """slack[t][u] = floor((r_t - r_u) * den) for u <= t, over ascending
    radii: (x, r_t) <= (y, r_u) iff d(x, y) <= r_t - r_u iff the integer
    rows[x][y] <= slack[t][u].  The radii are scaled once by their common
    denominator, so the table takes integer subtractions only."""
    rden = lcm(*(r.denominator for r in radii))
    scaled = [r.numerator * (rden // r.denominator) for r in radii]
    return [[(big - small) * den // rden for small in scaled[:t + 1]]
            for t, big in enumerate(scaled)]


def formal_ball_poset(d: QuasiPseudoMetric, radii) -> FormalBallPoset:
    radii = sorted({Fraction(r) for r in radii})
    for r in radii:
        if r < 0:
            raise NegativeRadius(f"radius {r} is negative")
    elements = tuple(FormalBall(point=x, radius=r) for x in range(d.n) for r in radii)
    k = len(radii)
    slack = _slack_table(radii, d.den)
    # table[b] moves bit i of the byte b to bit i * k
    table = [0] * 256
    for b in range(1, 256):
        table[b] = table[b >> 1] << k | b & 1
    # per distinct cap, each point's mask {y : rows[x][y] <= cap} spread to stride k
    spread = {}
    for cap in {cap for caps in slack for cap in caps}:
        spread[cap] = out = []
        for mask in d._rows_below(cap + 1):
            wide, shift = 0, 0
            while mask:
                wide |= table[mask & 255] << shift
                mask >>= 8
                shift += 8 * k
            out.append(wide)
    rows = []
    for x in range(d.n):
        for caps in slack:
            mask = 0
            for u, cap in enumerate(caps):
                mask |= spread[cap][x] << u
            rows.append(mask)
    poset = FormalBallPoset(labels=d.points, elements=elements, le_rows=tuple(rows))
    if d.tol is not None:
        _check_poset_laws(poset, d)
    return poset


def _check_poset_laws(p: FormalBallPoset, d: QuasiPseudoMetric) -> None:
    """Reflexivity, transitivity and antisymmetry up to mutual zero
    distance.  They follow from the triangle inequality, which float-mode
    distances obey only up to a tolerance the order does not absorb."""
    def broken(what: str) -> Exception:
        return _broken(d, what, "the formal-ball order",
                       "the triangle inequality holds only up to")

    zero = d.zero_mask_rows()
    below = transpose(p.le_rows)
    for a, row_a in enumerate(p.le_rows):
        if not row_a >> a & 1:
            raise broken("formal-ball order lost reflexivity")
        # transitivity as closure: whatever sits above a point above a sits above a
        if not is_closed(p.le_rows, row_a):
            raise broken("formal-ball order lost transitivity")
        for b in indices_of(row_a & below[a] & ~(1 << a)):
            ba, bb = p.elements[a], p.elements[b]
            same_radius = ba.radius == bb.radius
            zero_both = zero[ba.point] >> bb.point & 1 and zero[bb.point] >> ba.point & 1
            if not (same_radius and zero_both):
                raise broken("mutual order without zero distance")
