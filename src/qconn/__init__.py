"""qconn: asymmetric distances, bitopologies, and directional
connectivity on finite instances, with exact rational arithmetic.

Structures: quasi-pseudometrics (matrices, weighted digraphs, one-sided
lp gauges), scale-indexed quasi-modular gauge families, and finite
bitopological spaces in minimal-neighborhood form.  Decisions:
antisymmetric connectedness and both component partitions, per-point
local analysis, directional Cauchy limits and completeness certificates,
formal-ball posets, and a seeded counterexample search over small
bitopological spaces.  Everything is immutable after construction and
safe to share across threads.
"""

from .bitopology import (
    AlexandrovTopology,
    BitopSpace,
    is_open,
    is_T0,
    join,
    join_matches_symmetrization,
    modular_bitop,
    specialization_bitop,
    subspace,
)
from .completion import (
    EventuallyPeriodicSeq,
    FormalBall,
    FormalBallPoset,
    formal_ball_poset,
    forward_limits,
    is_left_k_cauchy,
    join_compactness_check,
    precompact_report,
    smyth_report,
)
from .connectivity import (
    CombinedDigraph,
    ComponentReport,
    SeparationCertificate,
    antisym_certificate,
    antisym_components,
    brute_force_antisym,
    combined_digraph,
    component_report,
    is_antisym_connected,
    is_locally_antisym_connected,
    scale_connectivity,
    symmetric_components,
)
from .gauges import (
    AsymNormSample,
    QuasiPseudoMetric,
    WeightedDigraph,
    conjugate,
    from_asym_norm,
    from_digraph,
    symmetrization_gap_report,
    symmetrize,
    validate_qpm,
)
from .modular import (
    OrliczSpec,
    PiecewiseConvex,
    QuasiModularFamily,
    ScaleGauge,
    conjugate_family,
    entourages,
    from_orlicz,
    luxemburg_gauge,
    modular_balls,
    symmetrize_family,
    validate_family,
)
from .morphisms import (
    LinearFunctionalSpec,
    PointMap,
    check_image_preservation,
    halfspace_separation,
    is_nonexpansive,
    is_uniformly_continuous,
    specialization_preserving,
)
from .numbers import INF, ZERO, ExtNonNeg, enn
from .search import DEFAULT_SEED, TARGETS, search_counterexamples

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
