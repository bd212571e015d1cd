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

Importing the package loads none of its modules.  Each exported name
loads its owning module on first use (PEP 562), so ``from qconn import
X`` costs only X's module and what that imports, and ``qconn.search``
loads just the bitmask relation kernel (``qconn.relations``) and
``qconn.errors``.  The command line (``qconn.cli``) loads what ``analyze``
runs on metric, digraph, bitopology and norm-sample files: ``instances``,
``gauges``, ``bitopology``, ``connectivity``, ``completion``,
``relations``, ``numbers`` and ``errors``.  It adds ``modular`` for
``modular_family`` and ``orlicz`` files, ``morphisms`` for ``map`` files,
``search`` for ``qconn search`` and ``dot`` for DOT output.
"""

from importlib import import_module

__version__ = "0.1.0"

# owning module -> the names the package exports from it
_EXPORTS = {
    "bitopology": (
        "AlexandrovTopology",
        "BitopSpace",
        "is_T0",
        "join",
        "modular_bitop",
        "specialization_bitop",
        "subspace",
    ),
    "completion": (
        "EventuallyPeriodicSeq",
        "FormalBall",
        "FormalBallPoset",
        "formal_ball_poset",
        "forward_limits",
        "is_left_k_cauchy",
        "join_compactness_check",
        "precompact_report",
        "smyth_report",
    ),
    "connectivity": (
        "ComponentReport",
        "SeparationCertificate",
        "antisym_certificate",
        "antisym_components",
        "brute_force_antisym",
        "combined_digraph",
        "component_report",
        "is_antisym_connected",
        "is_locally_antisym_connected",
        "scale_connectivity",
        "symmetric_components",
    ),
    "gauges": (
        "AsymNormSample",
        "QuasiPseudoMetric",
        "WeightedDigraph",
        "conjugate",
        "from_asym_norm",
        "from_digraph",
        "symmetrization_gap_report",
        "symmetrize",
        "validate_qpm",
    ),
    "modular": (
        "OrliczSpec",
        "PiecewiseConvex",
        "QuasiModularFamily",
        "ScaleGauge",
        "conjugate_family",
        "entourages",
        "from_orlicz",
        "luxemburg_gauge",
        "modular_balls",
        "symmetrize_family",
        "validate_family",
    ),
    "morphisms": (
        "LinearFunctionalSpec",
        "PointMap",
        "check_image_preservation",
        "halfspace_separation",
        "is_nonexpansive",
        "is_uniformly_continuous",
        "specialization_preserving",
    ),
    "numbers": ("INF", "ZERO", "enn"),
    "search": ("DEFAULT_SEED", "TARGETS", "search_counterexamples"),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset({*_EXPORTS, "errors", "relations"})

__all__ = sorted(_OWNER)


def __getattr__(name: str):
    """Load an exported name's module, or a submodule, on first access and
    keep the result in the package namespace."""
    if name in _OWNER:
        value = getattr(import_module(f".{_OWNER[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
