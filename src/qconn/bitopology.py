"""Finite bitopological spaces in minimal-neighborhood form.

Every finite topology is determined by the map x -> N(x), the smallest
open set containing x, subject to the coherence law

    y in N(x)  =>  N(y) subset of N(x),

which is exactly transitivity of the relation "y in N(x)".  Neighborhoods
are stored as integer bitmasks over the point list, which keeps openness
tests, joins, and subspace traces to a few machine-word operations even
inside exhaustive enumerations.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .errors import CoherenceError, EmptySubset
from .gauges import QuasiPseudoMetric
from .relations import coherence_violation, indices_of, is_closed, mask_of, transpose, up_sets

if TYPE_CHECKING:  # the annotation alone: a caller's family has loaded modular
    from .modular import QuasiModularFamily


@dataclass(frozen=True)
class AlexandrovTopology:
    """Finite topology as the map point -> minimal open neighborhood."""

    points: tuple[str, ...]
    nbhd: tuple[int, ...]  # bitmask per point

    def __post_init__(self):
        if len(self.nbhd) != len(self.points):
            raise ValueError("one neighborhood per point required")
        bad = coherence_violation(self.nbhd)
        if bad is not None:
            x, y = bad
            if x == y:
                raise CoherenceError(f"point {x} missing from its own neighborhood")
            raise CoherenceError(
                f"y={y} in N({x}) but N({y}) escapes N({x})")

    @property
    def n(self) -> int:
        return len(self.points)

    @staticmethod
    def from_sets(points, neighborhoods) -> "AlexandrovTopology":
        points = tuple(points)
        nbhd = tuple(mask_of(s, len(points)) for s in neighborhoods)
        return AlexandrovTopology(points=points, nbhd=nbhd)

    def min_nbhd(self, x: int) -> frozenset[int]:
        return frozenset(indices_of(self.nbhd[x]))

    def is_open_mask(self, mask: int) -> bool:
        return is_closed(self.nbhd, mask)

    def is_open(self, subset) -> bool:
        """A set is open iff it contains the minimal neighborhood of each
        of its points."""
        return self.is_open_mask(mask_of(subset, self.n))

    def open_sets(self) -> list[int]:
        """All open sets as ascending bitmasks; exponential, so carriers
        above ``relations.OPEN_MASK_LIMIT`` points raise ``CarrierTooLarge``."""
        return up_sets(self.nbhd, transpose(self.nbhd))


@dataclass(frozen=True)
class BitopSpace:
    """A forward and a backward topology on one carrier."""

    forward: AlexandrovTopology
    backward: AlexandrovTopology

    def __post_init__(self):
        if self.forward.points != self.backward.points:
            raise ValueError("forward and backward topologies must share the carrier")

    @property
    def points(self) -> tuple[str, ...]:
        return self.forward.points

    @property
    def n(self) -> int:
        return self.forward.n


def specialization_bitop(d: QuasiPseudoMetric) -> BitopSpace:
    """Bitopology of the zero-distance relations.

    N+(x) = {y : d(x,y) = 0} and N-(x) = {y : d(y,x) = 0} are the minimal
    neighborhoods of the two ball topologies on a finite carrier: every
    ball around x at radius below the least positive distance equals the
    zero set, and the triangle inequality makes the zero relation
    transitive, which the coherence check asserts.  In float mode the
    triangle law holds only up to float rounding and the zero relation is
    d <= tol, so ``from_asym_norm`` checks its transitivity when it builds
    the metric.
    """
    return _zero_bitop(d.points, d.zero_mask_rows())


def modular_bitop(f: QuasiModularFamily) -> BitopSpace:
    """Bitopology of the all-scale zero sets of a gauge family.

    y lies in N+(x) iff w_lambda(x, y) = 0 for every scale; by the scaled
    triangle law and right-continuity this is exactly the minimal
    neighborhood of the forward modular topology.  Coherence is asserted
    by construction of the topology objects.
    """
    return _zero_bitop(f.points, f.zero_mask_rows())


def _zero_bitop(points, rows) -> BitopSpace:
    """Forward neighborhoods ``rows``, backward ones their transpose; an
    incoherent ``rows`` fails the forward topology's check first."""
    fwd = AlexandrovTopology(points=points, nbhd=tuple(rows))
    bwd = AlexandrovTopology(points=points, nbhd=tuple(transpose(rows)))
    return BitopSpace(forward=fwd, backward=bwd)


def join(b: BitopSpace) -> AlexandrovTopology:
    """Join topology: minimal neighborhoods are the pairwise intersections
    N+(x) & N-(x).  For metric-derived spaces this equals the forward
    specialization of the symmetrized metric."""
    nbhd = tuple(f & g for f, g in zip(b.forward.nbhd, b.backward.nbhd))
    return AlexandrovTopology(points=b.points, nbhd=nbhd)


def subspace(b: BitopSpace, subset) -> BitopSpace:
    """Trace bitopology on a nonempty subset, with points reindexed in
    carrier order."""
    sel = sorted(set(subset))
    if not sel:
        raise EmptySubset("subspace carrier is empty")
    pos = {p: t for t, p in enumerate(sel)}
    points = tuple(b.points[p] for p in sel)

    def shrink(mask: int) -> int:
        return sum(1 << t for p, t in pos.items() if mask >> p & 1)

    fwd = AlexandrovTopology(points=points,
                             nbhd=tuple(shrink(b.forward.nbhd[p]) for p in sel))
    bwd = AlexandrovTopology(points=points,
                             nbhd=tuple(shrink(b.backward.nbhd[p]) for p in sel))
    return BitopSpace(forward=fwd, backward=bwd)


def is_T0(b: BitopSpace) -> bool:
    """No two distinct points may be mutually inside each other's forward
    and backward neighborhoods (join-indistinguishability): each join row
    N+(x) & N-(x) meets its column in x alone."""
    rows = [f & g for f, g in zip(b.forward.nbhd, b.backward.nbhd)]
    return all(r & c == 1 << x for x, (r, c) in enumerate(zip(rows, transpose(rows))))
