"""Maps between finite asymmetric spaces: continuity notions and image
preservation."""

from __future__ import annotations

from dataclasses import dataclass
from math import inf

from .bitopology import BitopSpace
from .connectivity import combined_digraph
from .errors import CarrierMismatch, PreconditionFailed
from .gauges import QuasiPseudoMetric
from .relations import image_gaps, indices_of, preserves, scc_masks


@dataclass(frozen=True)
class PointMap:
    source_points: tuple[str, ...]
    target_points: tuple[str, ...]
    assignment: tuple[int, ...]  # target index per source point

    def __post_init__(self):
        if len(self.assignment) != len(self.source_points):
            raise ValueError("assignment must be total on the source")
        for t in self.assignment:
            if not 0 <= t < len(self.target_points):
                raise ValueError(f"target index {t} out of range")

    def __call__(self, i: int) -> int:
        return self.assignment[i]


def _check_carriers(f: PointMap, dX: QuasiPseudoMetric, dY: QuasiPseudoMetric):
    if f.source_points != dX.points or f.target_points != dY.points:
        raise CarrierMismatch("map carriers do not match the metrics")


def is_nonexpansive(f: PointMap, dX: QuasiPseudoMetric, dY: QuasiPseudoMetric) -> bool:
    """d_Y(f(x), f(y)) <= d_X(x, y) on all pairs: a/den_Y <= b/den_X iff a*den_X <= b*den_Y."""
    _check_carriers(f, dX, dY)
    for x, row in enumerate(dX.rows):
        image_row = dY.rows[f(x)]
        for y, b in enumerate(row):
            a = image_row[f(y)]
            if b != inf and (a == inf or a * dX.den > b * dY.den):
                return False
    return True


def is_uniformly_continuous(f: PointMap, dX: QuasiPseudoMetric,
                            dY: QuasiPseudoMetric) -> bool:
    """True iff every eps > 0 has a delta > 0 with d_X(x, y) < delta
    forcing d_Y(f(x), f(y)) < eps.

    On a finite carrier this is preservation of the zero relation (zero
    under each metric's numeric mode).  No source distance lies below the
    least positive one except zero, so that delta (any delta when there is
    none) gives {d_X < delta} exactly the zero relation, and no delta > 0
    gives less.  Each zero pair must then land in {d_Y < eps} for every
    eps > 0, which is the target's zero relation: a zero pair sent to a
    distance c > 0 fails at eps = c (at eps = 1 when c is infinite).
    """
    _check_carriers(f, dX, dY)
    return preserves(f.assignment, dX.zero_mask_rows(), dY.zero_mask_rows()) is None


def specialization_preserving(f: PointMap, bX: BitopSpace,
                              bY: BitopSpace) -> tuple[int, int] | None:
    """First violating pair of the condition y in N+(x) => f(y) in
    N+(f(x)) (and the backward analogue), or None when the map preserves
    both specializations.  This is the finite rendering of uniform
    continuity for minimal-neighborhood spaces."""
    if f.source_points != bX.points or f.target_points != bY.points:
        raise CarrierMismatch("map carriers do not match the bitopologies")
    fwd = preserves(f.assignment, bX.forward.nbhd, bY.forward.nbhd)
    bwd = preserves(f.assignment, bX.backward.nbhd, bY.backward.nbhd)
    # report the least source point; at a tie the forward pair comes first
    if fwd is None or (bwd is not None and bwd[0] < fwd[0]):
        return bwd
    return fwd


def check_image_preservation(f: PointMap, bX: BitopSpace, bY: BitopSpace) -> dict:
    """Verify that images of inseparable subsets stay inseparable inside
    the image's trace bitopology.

    Raises ``PreconditionFailed`` unless the map preserves both
    specializations.  The image of each antisymmetric component (an SCC
    of the source's combined digraph) is then decided as a mask, since a
    trace's combined digraph is the full one restricted to it; every
    inseparable subset lies in one component, so ``subsets_checked`` is
    the number of components.  Failures are returned as counterexample
    records rather than raised.
    """
    bad = specialization_preserving(f, bX, bY)
    if bad is not None:
        raise PreconditionFailed(
            f"map does not preserve specialization at pair {bad}", witness=bad)
    blocks = scc_masks(combined_digraph(bX))
    failures = [{"subset": indices_of(blk), "image": indices_of(img)}
                for blk, img in image_gaps(f.assignment, blocks,
                                           combined_digraph(bY))]
    return {
        "continuity_rendering": "specialization-preservation",
        "subsets_checked": len(blocks),
        "failures": failures,
        "image_preserved": not failures,
    }
