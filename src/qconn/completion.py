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
from functools import cached_property
from math import lcm

from .errors import NegativeRadius, NonPositiveEpsilon, NotCauchy, PreconditionFailed
from .gauges import QuasiPseudoMetric
from .relations import coherence_violation, indices_of, mask_of, scc_masks, transpose


@dataclass(frozen=True)
class EventuallyPeriodicSeq:
    """x_n = preperiod[n] while it lasts, then cycles through period."""

    preperiod: tuple[int, ...]
    period: tuple[int, ...]

    def __post_init__(self):
        if not self.period:
            raise ValueError("period must be nonempty")


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
    re-check it.  The zero relation is transitive in float mode too, as
    ``from_asym_norm`` checks, so every class is a zero clique.  A zero
    clique is left K-Cauchy, so the limits are read off the zero rows
    without forward_limits' Cauchy check.
    """
    rows = d.zero_mask_rows()
    return {"classes": [{"class": members,
                         "forward_limits": indices_of(_zero_from_all(rows, members))}
                        for members in map(indices_of, scc_masks(rows))]}


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
    own ball, since self-distances are zero in float mode too, so each
    cover covers.
    """
    eps_list = sorted({Fraction(t) for t in thresholds})
    if eps_list and eps_list[0] <= 0:
        raise NonPositiveEpsilon(f"thresholds must be positive, got {eps_list[0]}")
    covers = []
    prev: list[int] | None = None
    for eps in eps_list:
        balls = d.ball_rows(eps)
        centers = _first_fit_cover(balls)
        if prev is not None and len(prev) < len(centers):
            centers = prev
        covers.append({"eps": str(eps), "centers": centers, "size": len(centers)})
        prev = centers
    return {"covers": covers}


def join_compactness_check(d: QuasiPseudoMetric, thresholds=None) -> dict:
    """The witnesses of the chain 'precompact and Smyth complete implies
    compact in the join topology' on one finite space: the covers of
    ``precompact_report`` and the zero classes of ``smyth_report``.

    On a finite carrier all three properties hold for every input, so the
    report states none of them.  The balls around all the points are a
    finite cover at every threshold, every directional Cauchy sequence
    ends in one zero class and has that class among its forward limits,
    and every open cover has a finite subcover.

    The canonical cover by minimal join neighbourhoods needs no count of
    its own either: the zero relation is transitive, so J(x) = N+(x) & N-(x)
    is x's mutual-zero class, and the cover has one member per entry of
    ``smyth_report.classes``.
    """
    if thresholds is None:
        spectrum = d.positive_spectrum()
        thresholds = spectrum[:3] + [spectrum[-1] + 1] if spectrum else [Fraction(1)]
    return {"precompact_report": precompact_report(d, thresholds),
            "smyth_report": smyth_report(d)}


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
    inequality through (r-s) + (s-t) = r-t; and (x, r), (y, s) below each
    other means d(x,y) <= r-s and d(y,x) <= s-r, which d >= 0 allows only
    at r = s and zero distance both ways.  Float-mode distances obey the
    triangle inequality only up to float rounding, which is not bounded
    by the tolerance, so in float mode transitivity is checked on the
    grid at construction.
    """

    labels: tuple[str, ...]
    radii: tuple[Fraction, ...]
    le_rows: tuple[int, ...]

    @cached_property
    def elements(self) -> tuple[FormalBall, ...]:
        """Ball a is (a // k, radii[a % k]) for k radii."""
        return tuple(FormalBall(x, r) for x in range(len(self.labels)) for r in self.radii)

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
        x, t = divmod(a, len(self.radii))
        return f"({self.labels[x]},{self.radii[t]})"


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
    k = len(radii)
    slack = _slack_table(radii, d.den)
    # per distinct cap, each point's mask {y : rows[x][y] <= cap} spread to
    # stride k: k - 1 zeros between its binary digits move bit y to bit y*k
    gap = "0" * (k - 1)
    spread = {cap: [int(gap.join(format(mask, "b")), 2) for mask in d._rows_below(cap + 1)]
              for cap in {cap for caps in slack for cap in caps}}
    rows = []
    for x in range(d.n):
        for caps in slack:
            mask = 0
            for u, cap in enumerate(caps):
                mask |= spread[cap][x] << u
            rows.append(mask)
    # transitivity as closure: a ball above one above a is above a
    if d.tol is not None and coherence_violation(rows) is not None:
        raise PreconditionFailed(
            "float-mode distances break the formal-ball order (formal-ball order lost "
            "transitivity): float rounding breaks the triangle inequality, and the order "
            f"compares distances exactly, not up to the tolerance {d.tol}")
    return FormalBallPoset(labels=d.points, radii=tuple(radii), le_rows=tuple(rows))
