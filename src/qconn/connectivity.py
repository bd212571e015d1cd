"""Directional connectedness decisions on finite bitopological spaces.

The decision engine rests on one reduction.  A subset A is forward-open
with backward-open complement exactly when A is closed under the arcs

    x -> y   iff   y in N+(x)  or  x in N-(y):

closure under the first clause is forward-openness of A, and closure
under the second is, after taking contrapositives, backward-openness of
the complement.  Hence the space admits no such separation iff this
"combined digraph" has no proper nonempty out-closed vertex set, i.e. is
strongly connected, and the maximal subsets whose traces are inseparable
are exactly its strongly connected components (paths between two vertices
of an SCC never leave it, and mutual reachability inside an induced
subgraph implies it in the full graph).  The reduction is never trusted
alone: brute_force_antisym enumerates subsets directly and serves as the
independent oracle.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .bitopology import BitopSpace
from .errors import CarrierTooLarge, NonPositiveEpsilon
from .gauges import QuasiPseudoMetric
from .relations import (
    combined_rows,
    indices_of,
    masks_to_partition,
    reach,
    scc_masks,
    strongly_connected,
    transpose,
    undirected_components,
)


@dataclass(frozen=True)
class SeparationCertificate:
    """Witness of a separation: A forward-open, B its backward-open
    complement, both nonempty."""

    A: frozenset[int]
    B: frozenset[int]

    def check(self, b: BitopSpace) -> bool:
        n = b.n
        full = (1 << n) - 1
        a_mask = sum(1 << i for i in self.A)
        b_mask = sum(1 << i for i in self.B)
        return (self.A and self.B
                and a_mask & b_mask == 0
                and a_mask | b_mask == full
                and b.forward.is_open_mask(a_mask)
                and b.backward.is_open_mask(b_mask))


def combined_digraph(b: BitopSpace) -> list[int]:
    """Rows of the combined digraph: bit y of row x is the arc x -> y."""
    return combined_rows(b.forward.nbhd, transpose(b.backward.nbhd))


def is_antisym_connected(b: BitopSpace) -> bool:
    """True iff no forward-open set has a nonempty backward-open complement,
    decided through strong connectivity of the combined digraph."""
    return strongly_connected(combined_digraph(b))


def antisym_certificate(b: BitopSpace) -> SeparationCertificate | None:
    """On a disconnected space, the lexicographically least proper nonempty
    out-closed set (by point order) and its complement; None when connected.

    Lex order on sorted index tuples: out-closed sets are unions of reach
    closures, so scan indices upward and include each one whose closure
    keeps the set proper.  Inserting an index below the current maximum
    always wins the tuple comparison, while extending past the maximum
    always loses to stopping, hence the break.  Unions of reach closures
    are out-closed, so the result is a separation by construction.
    """
    rows = combined_digraph(b)
    return None if strongly_connected(rows) else _least_separation(rows)


def _least_separation(rows) -> SeparationCertificate:
    """antisym_certificate's scan on combined rows known to be disconnected."""
    full = (1 << len(rows)) - 1
    acc = 0
    for i in range(len(rows)):
        if acc >> i & 1:
            continue
        if acc and i > acc.bit_length() - 1:
            break
        cand = acc | reach(rows, 1 << i, full)
        if cand != full:
            acc = cand
    return SeparationCertificate(A=frozenset(indices_of(acc)),
                                 B=frozenset(indices_of(full & ~acc)))


def brute_force_antisym(b: BitopSpace) -> bool:
    """Independent oracle: enumerate every nonempty proper subset A and
    test A forward-open with backward-open complement.  Exponential, so
    the carrier is capped."""
    if b.n > 20:
        raise CarrierTooLarge(f"brute force capped at 20 points, got {b.n}")
    full = (1 << b.n) - 1
    for a_mask in range(1, full):
        if b.forward.is_open_mask(a_mask) and b.backward.is_open_mask(full & ~a_mask):
            return False
    return True


def antisym_components(b: BitopSpace) -> list[list[int]]:
    """Maximal inseparable subsets = SCCs of the combined digraph."""
    return masks_to_partition(scc_masks(combined_digraph(b)))


def symmetric_components(b: BitopSpace) -> list[list[int]]:
    """Connected components of the join topology, via the undirected
    reachability graph x -- y iff either join neighborhood contains the
    other point.  The join rows N+(x) & N-(x) are read off directly: a
    meet of preorders is a preorder, so they need no coherence check."""
    return masks_to_partition(undirected_components(
        [f & g for f, g in zip(b.forward.nbhd, b.backward.nbhd)]))


@dataclass(frozen=True)
class LocalStatus:
    point: int
    connected: bool
    witness: tuple[int, ...]  # the minimal join neighborhood checked


@dataclass(frozen=True)
class ComponentReport:
    """Each symmetric component lies in an antisymmetric one (Prop 5.4):
    a forward-open set with backward-open complement is join-clopen.
    ``certificate`` is antisym_certificate's answer."""

    symmetric: tuple[tuple[int, ...], ...]
    antisymmetric: tuple[tuple[int, ...], ...]
    certificate: SeparationCertificate | None


def is_locally_antisym_connected(b: BitopSpace) -> list[LocalStatus]:
    """Per point: is the subspace on the minimal join neighborhood
    J(x) = N+(x) & N-(x) inseparable?

    Exact on finite carriers because J(x) is the smallest join
    neighborhood of x: any qualifying neighborhood both contains it and is
    contained in every candidate, so the quantifier over neighborhoods
    collapses to this single check.  And the check always passes: for y in
    J(x), y in N+(x) gives the combined arc x -> y and y in N-(x) gives
    the arc y -> x, so every point of J(x) (x included, by reflexivity)
    reaches x and is reached from x inside J(x).  The statuses are
    therefore the witnesses J(x) with connected=True; the search's
    prop61_subspace and thm74_local_image targets recheck the two arcs,
    and the test suite compares with the subspace construction.
    """
    return [LocalStatus(point=x, connected=True, witness=tuple(indices_of(f & g)))
            for x, (f, g) in enumerate(zip(b.forward.nbhd, b.backward.nbhd))]


def component_report(b: BitopSpace) -> ComponentReport:
    """Both partitions and the certificate, from one combined digraph: the
    space is inseparable iff it has at most one antisymmetric component."""
    rows = combined_digraph(b)
    blocks = masks_to_partition(scc_masks(rows))
    return ComponentReport(
        symmetric=tuple(tuple(blk) for blk in symmetric_components(b)),
        antisymmetric=tuple(tuple(blk) for blk in blocks),
        certificate=None if len(blocks) <= 1 else _least_separation(rows),
    )


def scale_connectivity(d: QuasiPseudoMetric, eps) -> tuple[list[list[int]], list[list[int]]]:
    """Components at a positive resolution eps.

    Antisymmetric partition: SCCs of the digraph with arcs x -> y iff
    d(x,y) < eps.  The eps-scale separation criterion (A closed under
    forward eps-balls, complement closed under backward eps-balls)
    collapses to out-closure in this single digraph: the complement
    condition says no z in A has d(z,y) < eps with y outside A, which is
    the same forward-arc closure read contrapositively.  Symmetric
    partition: components of the undirected graph with edges where
    max(d(x,y), d(y,x)) < eps.
    """
    eps = Fraction(eps)
    if eps <= 0:
        raise NonPositiveEpsilon(f"eps must be positive, got {eps}")
    rows = d.ball_rows(eps)  # each row holds x, as d(x, x) = 0 < eps
    cols = transpose(rows)
    sym_rows = [r & c for r, c in zip(rows, cols)]  # symmetric: its own transpose
    return (masks_to_partition(scc_masks(rows, cols)),
            masks_to_partition(undirected_components(sym_rows, sym_rows)))
