"""The library's refusals, called directly: each gets its exception type
and message, also where a parser or command refuses the input first."""

from fractions import Fraction

import pytest

from qconn import (
    AlexandrovTopology,
    AsymNormSample,
    BitopSpace,
    OrliczSpec,
    PiecewiseConvex,
    PointMap,
    QuasiPseudoMetric,
    WeightedDigraph,
    enn,
    from_asym_norm,
    precompact_report,
    specialization_preserving,
    validate_qpm,
)
from qconn.errors import CarrierMismatch, NonPositiveEpsilon
from qconn.instances import dump_instance
from qconn.numbers import INF, exact_root
from qconn.relations import mask_of
from qconn.search import EXHAUSTIVE_MAX_N, all_preorders, search_counterexamples

ONE_POINT = AlexandrovTopology.from_sets(("a",), [[0]])
PAIR = validate_qpm([[0, 1], [1, 0]])
SAMPLE = AsymNormSample(dimension=1, p=Fraction(1), points=((Fraction(0),), (Fraction(1),)))

REFUSALS = {
    "bitop_carriers": (
        lambda: BitopSpace(forward=ONE_POINT,
                           backward=AlexandrovTopology.from_sets(("b",), [[0]])),
        ValueError, "forward and backward topologies must share the carrier"),
    "cover_threshold_zero": (lambda: precompact_report(PAIR, [1, 0]),
                             NonPositiveEpsilon, "thresholds must be positive, got 0"),
    "matrix_not_square": (lambda: validate_qpm([[0, 1]]), ValueError, "matrix is not square"),
    "digraph_duplicate_vertex": (lambda: WeightedDigraph(vertices=("a", "a"), edges=()),
                                 ValueError, "duplicate vertex labels"),
    "qpm_label_count": (lambda: validate_qpm([[0]], points=["a", "b"]),
                        ValueError, "point labels do not match matrix size"),
    "asym_norm_mode": (lambda: from_asym_norm(SAMPLE, mode="interval"),
                       ValueError, "unknown mode 'interval'"),
    "asym_norm_float_at_p_1": (lambda: from_asym_norm(SAMPLE, mode="float"),
                               ValueError, "mode='float' needs p != 1: a p = 1 gauge is exact"),
    "qpm_without_a_builder": (lambda: QuasiPseudoMetric(("a",), [[0]]),
                              TypeError, "QuasiPseudoMetric() takes no arguments"),
    "orlicz_scaling": (
        lambda: OrliczSpec(atoms=(("a", Fraction(1)),), phi=(PiecewiseConvex(),),
                           functions=((Fraction(1),),), scaling=("linear",)),
        ValueError, "unknown scaling ('linear',)"),
    "map_target_index": (lambda: PointMap(source_points=("a",), target_points=("x",),
                                          assignment=(1,)),
                         ValueError, "target index 1 out of range"),
    "map_carriers": (
        lambda: specialization_preserving(
            PointMap(source_points=("z",), target_points=("a",), assignment=(0,)),
            BitopSpace(ONE_POINT, ONE_POINT), BitopSpace(ONE_POINT, ONE_POINT)),
        CarrierMismatch, "map carriers do not match the bitopologies"),
    "root_degree": (lambda: exact_root(Fraction(4), 0), ValueError, "degree must be >= 1"),
    "root_of_negative": (lambda: exact_root(Fraction(-4), 2),
                         ValueError, "value must be nonnegative"),
    "mask_index": (lambda: mask_of([0, 3], 2), ValueError, "index 3 out of range for 2 points"),
    "preorder_table_cap": (lambda: all_preorders(EXHAUSTIVE_MAX_N + 1), ValueError,
                           f"full preorder table capped at {EXHAUSTIVE_MAX_N} points"),
    "search_mode": (lambda: search_counterexamples("antisym_oracle", 4, mode="orbits"),
                    ValueError, "unknown mode 'orbits'"),
    "dump_unknown_type": (lambda: dump_instance(Fraction(1)),
                          TypeError, "cannot serialize Fraction"),
}


@pytest.mark.parametrize("name", sorted(REFUSALS))
def test_refusal_raises_its_type_and_message(name):
    call, exc_type, message = REFUSALS[name]
    with pytest.raises(exc_type) as info:
        call()
    assert type(info.value) is exc_type
    assert str(info.value) == message


def test_value_repr_names_its_value():
    assert repr(INF) == "inf"
    assert repr(enn("3/2")) == "Fraction(3, 2)"
