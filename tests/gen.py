"""Seeded instance generators shared across the test suite.

Random metrics come from min-plus closures of random digraphs, which are
valid by construction.  Random gauge families come from two recipes whose
threshold structure provably yields a valid quasi-pseudometric under the
unit-level gauge: homogeneous families over a triangle-valid coefficient
matrix, and maxes of two-level step families (value A > 1 below a
threshold matrix that is itself a metric, value B <= 1 from a [0,1]-valued
metric afterwards).
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

from qconn import (
    AsymNormSample,
    BitopSpace,
    QuasiModularFamily,
    QuasiPseudoMetric,
    ScaleGauge,
    WeightedDigraph,
    from_digraph,
    validate_qpm,
)
from qconn.bitopology import AlexandrovTopology
from qconn.modular import merge_max
from qconn.numbers import INF, ZERO, enn
from qconn.search import random_preorder

WEIGHT_CHOICES = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                  Fraction(2), Fraction(3), Fraction(7, 2), Fraction(5)]


def rng_digraph(rng: random.Random, n: int, density: float = 0.4) -> WeightedDigraph:
    vertices = tuple(str(i) for i in range(n))
    edges = []
    for i in range(n):
        for j in range(n):
            if i != j and rng.random() < density:
                w = enn(rng.choice(WEIGHT_CHOICES))
                edges.append((vertices[i], vertices[j], w))
    return WeightedDigraph(vertices=vertices, edges=tuple(edges))


def rng_qpm(rng: random.Random, n: int, density: float = 0.4) -> QuasiPseudoMetric:
    return from_digraph(rng_digraph(rng, n, density))


def rng_bitop(rng: random.Random, n: int) -> BitopSpace:
    points = tuple(str(i) for i in range(n))
    fwd = random_preorder(rng, n)
    bwd = random_preorder(rng, n)
    return BitopSpace(
        forward=AlexandrovTopology(points=points, nbhd=fwd.rows),
        backward=AlexandrovTopology(points=points, nbhd=bwd.rows),
    )


def rng_homogeneous_family(rng: random.Random, n: int) -> QuasiModularFamily:
    base = rng_qpm(rng, n)
    gauges = tuple(
        tuple(ScaleGauge.homogeneous(base.d(i, j)) for j in range(n))
        for i in range(n)
    )
    return QuasiModularFamily(points=base.points, gauges=gauges)


def _unit_capped(rng: random.Random, n: int) -> QuasiPseudoMetric:
    """[0,1]-valued metric: min(random metric scaled down, 1)."""
    base = rng_qpm(rng, n)
    scale = Fraction(1, rng.choice([2, 3, 4, 6]))
    one = enn(1)
    rows = []
    for i in range(n):
        row = []
        for j in range(n):
            v = base.d(i, j)
            v = v if v is INF else v * scale
            row.append(v if v <= one else one)
        rows.append(row)
    return validate_qpm(rows, points=base.points)


def _indicator_layer(rng: random.Random, n: int):
    """Two-level gauges: above-one constant before the threshold metric,
    a sub-one metric value afterwards."""
    rho = rng_qpm(rng, n)
    below = _unit_capped(rng, n)
    top = enn(rng.choice([Fraction(3, 2), Fraction(2), Fraction(3),
                          Fraction(5), "inf"]))
    gauges = []
    for i in range(n):
        row = []
        for j in range(n):
            r = rho.d(i, j)
            b = below.d(i, j)
            if r == ZERO:
                row.append(ScaleGauge.constant(b))
            elif r is INF:
                row.append(ScaleGauge.constant(top))
            else:
                row.append(ScaleGauge.step([r], [top, b]))
        gauges.append(tuple(row))
    return rho, tuple(gauges)


def rng_step_family(rng: random.Random, n: int):
    """Max of 1 to 3 indicator layers; returns (family, expected unit-level
    metric = pointwise max of the layer thresholds)."""
    layers = rng.randint(1, 3)
    rho, gauges = _indicator_layer(rng, n)
    expected = [[rho.d(i, j) for j in range(n)] for i in range(n)]
    for _ in range(layers - 1):
        rho2, gauges2 = _indicator_layer(rng, n)
        gauges = tuple(
            tuple(merge_max(gauges[i][j], gauges2[i][j]) for j in range(n))
            for i in range(n)
        )
        for i in range(n):
            for j in range(n):
                if expected[i][j] < rho2.d(i, j):
                    expected[i][j] = rho2.d(i, j)
    fam = QuasiModularFamily(points=rho.points, gauges=gauges)
    return fam, expected


def rng_family(rng: random.Random, n: int) -> QuasiModularFamily:
    if rng.random() < 0.5:
        return rng_homogeneous_family(rng, n)
    return rng_step_family(rng, n)[0]


def rng_vectors(rng: random.Random, count: int, dim: int) -> AsymNormSample:
    pts = tuple(
        tuple(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])) for _ in range(dim))
        for _ in range(count)
    )
    return AsymNormSample(dimension=dim, p=Fraction(1), points=pts)


def reference_json(doc) -> str:
    """The json.dumps call that ``canonical_json`` replaced, kept as its
    oracle."""
    return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=True) + "\n"
