"""JSON instance files: parsing with full validation, and serialization.

All numbers travel as rational strings ("0", "3/2", "inf"); indices refer
to the declared point order.  Parsing validates the kind-specific schema
before any computation.  A loaded quasi_metric, digraph, bitopology or
asym_norm_sample meets its axioms (triangle inequality, coherence, ...).
A modular_family or orlicz file is checked for shape only: QM1-QM3 need
``modular.validate_family`` and its grid, so a family that loads may
still violate QM2.

Importing this module loads the types of the quasi_metric, digraph,
bitopology, asym_norm_sample and sequence kinds.  ``modular`` loads when
a ``modular_family`` or ``orlicz`` file is parsed and ``morphisms`` when
a ``map`` file is; a dump loads neither.
"""

from __future__ import annotations

import json
import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from math import lcm
from typing import TYPE_CHECKING, Any

from .bitopology import AlexandrovTopology, BitopSpace
from .completion import EventuallyPeriodicSeq
from .errors import ParseError, QconnError, SchemaError
from .gauges import AsymNormSample, QuasiPseudoMetric, WeightedDigraph, validate_qpm
from .numbers import INF, LiteralTooLarge, Value, enn, parse_rational

if TYPE_CHECKING:
    from .modular import OrliczSpec, PiecewiseConvex, QuasiModularFamily, ScaleGauge
    from .morphisms import PointMap

KINDS = ("quasi_metric", "digraph", "bitopology", "modular_family", "orlicz",
         "asym_norm_sample", "map", "sequence")

# Size caps, so that every accepted file is validated and analysed in
# bounded time.  Each was sized by timing ``validate`` and ``analyze`` with
# every analysis of the densest instance at the cap (complete digraphs, full
# matrices and neighbourhoods, 128 points whose gauges share
# MAX_FAMILY_PIECES, 32 atoms, MAX_PHI_BREAKPOINTS on each side of 0
# summed over every phi, since a gauge and its transpose together reach at
# most both sums, and 256 vectors of MAX_DIMENSION coordinates): 0.4-2.6 s
# on a 2-core VM under CPython 3.11.  A larger file is a SchemaError naming
# its limit.
MAX_POINTS = {"quasi_metric": 256, "digraph": 256, "asym_norm_sample": 256,
              "bitopology": 512, "modular_family": 128, "orlicz": 64, "map": 100_000}
MAX_FAMILY_PIECES = 65_536  # per gauge its longest list, summed over a modular_family
MAX_ORLICZ_ATOMS = 32
MAX_PHI_BREAKPOINTS = 32
MAX_SEQUENCE_LENGTH = 100_000
MAX_DIMENSION = 64  # of an asym_norm_sample
MAX_EDGES = 65_536  # of a digraph: one per ordered pair of MAX_POINTS["digraph"] vertices
# digits of the lcm of the denominators of a quasi_metric's, digraph's or
# asym_norm_sample's literals, by which every metric entry is scaled; a
# complete digraph at MAX_POINTS is the slowest file at this cap
MAX_DENOMINATOR_DIGITS = 200


def _need(obj: dict, key: str, typ=None):
    if key not in obj:
        raise SchemaError(f"missing field {key!r}")
    val = obj[key]
    if typ is not None and not isinstance(val, typ):
        raise SchemaError(f"field {key!r} has wrong type {type(val).__name__}")
    return val


def read_literal(text, where: str, parse=parse_rational, what: str = "rational"):
    """``parse(text)``, with a bad or oversized literal raised as a
    SchemaError that names ``where`` (a file field or a CLI argument)."""
    try:
        return parse(text)
    except LiteralTooLarge as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    except (ValueError, ZeroDivisionError) as exc:
        raise SchemaError(f"{where}: bad {what} {text!r}") from exc


def _rational(text, field: str) -> Fraction:
    return read_literal(text, f"field {field!r}")


def _extnonneg(text, field: str) -> Value:
    return read_literal(text, f"field {field!r}", lambda t: enn(str(t)), "value")


def _memo(parsed: dict, text, field: str, parse=_extnonneg):
    """``parse(text, field)`` through the caller's dict of the literals it
    parsed so far; a bad literal raises at its first occurrence, as
    without the dict.  Both parsers read ``str(text)``, the key."""
    key = str(text)
    value = parsed.get(key)
    if value is None:
        value = parsed[key] = parse(text, field)
    return value


def _capped(raw, field: str, cap: int, name: str):
    """raw, unless it has more than cap entries (raw may be a range that
    stands for a count)."""
    if len(raw) > cap:
        raise SchemaError(f"field {field!r}: {len(raw)} entries exceed the limit "
                          f"{name} = {cap}")
    return raw


def _cap_denominators(values, field: str) -> None:
    """Refuse literals whose lcm of denominators has more than
    MAX_DENOMINATOR_DIGITS digits; the lcm is built only up to that bound."""
    bound = 10**MAX_DENOMINATOR_DIGITS
    den = 1
    for q in {v.denominator for v in values}:
        den = lcm(den, q)
        if den >= bound:
            raise SchemaError(f"field {field!r}: the common denominator has more than "
                              f"MAX_DENOMINATOR_DIGITS = {MAX_DENOMINATOR_DIGITS} digits")


def _points(obj: dict, key: str, kind: str) -> list:
    return _capped(_need(obj, key, list), key, MAX_POINTS[kind], f"MAX_POINTS[{kind!r}]")


def _labels(obj: dict, key: str, kind: str) -> tuple[str, ...]:
    raw = _points(obj, key, kind)
    labels = tuple(str(p) for p in raw)
    if len(set(labels)) != len(labels):
        raise SchemaError(f"field {key!r}: duplicate labels")
    return labels


def _index_list(raw, n: int, field: str) -> list[int]:
    if not isinstance(raw, list):
        raise SchemaError(f"field {field!r} must be a list")
    out = []
    for v in raw:
        if not isinstance(v, int) or isinstance(v, bool) or not 0 <= v < n:
            raise SchemaError(f"field {field!r}: index {v!r} out of range")
        out.append(v)
    return out


def parse_instance(obj: Any):
    """Dispatch on the "kind" tag; returns (kind, value).  A constructor's
    ValueError or QconnError becomes a SchemaError, so each parser leaves
    the invariants of the constructor it calls to that constructor."""
    if not isinstance(obj, dict):
        raise SchemaError("instance must be a JSON object")
    kind = _need(obj, "kind", str)
    if kind not in KINDS:
        raise SchemaError(f"unknown kind {kind!r}")
    try:
        return kind, _PARSERS[kind](obj)
    except (ParseError, SchemaError):
        raise
    except QconnError as exc:
        raise SchemaError(f"invalid {kind}: {exc}") from exc
    except (ValueError, TypeError, KeyError) as exc:
        raise SchemaError(str(exc)) from exc


def load_instance_text(text: str):
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"not valid JSON: {exc}") from exc
    except RecursionError as exc:
        raise ParseError("JSON nested too deeply to parse") from exc
    return parse_instance(obj)


def load_instance(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return load_instance_text(text)


# -- per-kind parsers -------------------------------------------------------


def _parse_quasi_metric(obj: dict) -> QuasiPseudoMetric:
    points = _labels(obj, "points", "quasi_metric")
    if "tol" in obj:
        raise SchemaError("field 'tol': a quasi_metric is exact; float mode is for "
                          "asym_norm_sample files with p != 1")
    dist = _need(obj, "dist", list)
    if len(dist) != len(points):
        raise SchemaError("dist must have one row per point")
    parsed: dict = {}  # each distinct literal is parsed once per file
    matrix = []
    for r, row in enumerate(dist):
        if not isinstance(row, list) or len(row) != len(points):
            raise SchemaError(f"dist row {r} has wrong length")
        matrix.append([_memo(parsed, v, f"dist[{r}]") for v in row])
    _cap_denominators((v for v in parsed.values() if v is not INF), "dist")
    return validate_qpm(matrix, points=points)


def _parse_digraph(obj: dict) -> WeightedDigraph:
    vertices = _labels(obj, "vertices", "digraph")
    edges_raw = _capped(_need(obj, "edges", list), "edges", MAX_EDGES, "MAX_EDGES")
    parsed: dict = {}
    edges = []
    for e, item in enumerate(edges_raw):
        if not isinstance(item, list) or len(item) != 3:
            raise SchemaError(f"edge {e} must be [from, to, weight]")
        edges.append((str(item[0]), str(item[1]), _memo(parsed, item[2], f"edges[{e}]")))
    _cap_denominators((w for w in parsed.values() if w is not INF), "edges")
    return WeightedDigraph(vertices=vertices, edges=tuple(edges))


def _parse_bitopology(obj: dict) -> BitopSpace:
    points = _labels(obj, "points", "bitopology")
    n = len(points)
    fwd_raw = _need(obj, "forward_min_nbhd", list)
    bwd_raw = _need(obj, "backward_min_nbhd", list)
    fwd = [_index_list(s, n, "forward_min_nbhd") for s in fwd_raw]
    bwd = [_index_list(s, n, "backward_min_nbhd") for s in bwd_raw]
    return BitopSpace(forward=AlexandrovTopology.from_sets(points, fwd),
                      backward=AlexandrovTopology.from_sets(points, bwd))


def _parse_gauge(obj: dict, field: str, rationals: dict, values: dict) -> ScaleGauge:
    """One gauge object, its literals parsed through the file's _memo dicts."""
    from .modular import HOMOGENEOUS, PIECEWISE, POWER, STEP, ScaleGauge

    def rational(text, key: str) -> Fraction:
        return _memo(rationals, text, f"{field}.{key}", _rational)

    def value(text, key: str) -> Value:
        return _memo(values, text, f"{field}.{key}")

    if not isinstance(obj, dict):
        raise SchemaError(f"{field}: gauge must be an object")
    kind = _need(obj, "kind", str)
    if kind == STEP:
        bps = [rational(b, "breakpoints") for b in _need(obj, "breakpoints", list)]
        return ScaleGauge.step(bps, [value(v, "values") for v in _need(obj, "values", list)])
    if kind == HOMOGENEOUS:
        return ScaleGauge.homogeneous(value(_need(obj, "coeff"), "coeff"))
    if kind == POWER:
        return ScaleGauge.power(value(_need(obj, "coeff"), "coeff"),
                                rational(_need(obj, "exponent"), "exponent"))
    if kind == PIECEWISE:
        bps = [rational(b, "breakpoints") for b in _need(obj, "breakpoints", list)]
        pieces = []
        for piece in _need(obj, "pieces", list):
            if not isinstance(piece, list) or len(piece) != 2:
                raise SchemaError(f"{field}.pieces: a piece must be [alpha, beta]")
            alpha, beta = piece
            pieces.append((None if alpha == "inf" else rational(alpha, "pieces"),
                           rational(beta, "pieces")))
        return ScaleGauge(PIECEWISE, tuple(pieces), tuple(bps))
    raise SchemaError(f"{field}: unknown gauge kind {kind!r}")


def _pieces(raw) -> int:
    """The pieces a gauge object declares: the longest of its lists, with
    one more piece than breakpoints, and at least one."""
    if not isinstance(raw, dict):
        return 1
    return max([1] + [len(raw[key]) + (key == "breakpoints")
                      for key in ("breakpoints", "values", "pieces")
                      if isinstance(raw.get(key), list)])


def _parse_modular_family(obj: dict) -> QuasiModularFamily:
    from .modular import QuasiModularFamily

    points = _labels(obj, "points", "modular_family")
    n = len(points)
    rows_raw = _need(obj, "gauges", list)
    if len(rows_raw) != n:
        raise SchemaError("gauges must have one row per point")
    _capped(range(sum(_pieces(g) for row in rows_raw if isinstance(row, list) for g in row)),
            "gauges", MAX_FAMILY_PIECES, "MAX_FAMILY_PIECES")
    rows = []
    rationals: dict = {}  # each distinct literal is parsed once per file
    values: dict = {}
    for r, row in enumerate(rows_raw):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"gauges row {r} has wrong length")
        rows.append(tuple(_parse_gauge(g, f"gauges[{r}][{c}]", rationals, values)
                          for c, g in enumerate(row)))
    return QuasiModularFamily(points=points, gauges=tuple(rows))


def _parse_phi(obj: dict, field: str) -> PiecewiseConvex:
    from .modular import PiecewiseConvex

    if not isinstance(obj, dict):
        raise SchemaError(f"{field}: phi must be an object")

    def frs(key):
        return tuple(_rational(v, f"{field}.{key}") for v in obj.get(key, []))

    pos_slopes = frs("pos_slopes") or (Fraction(1),)
    return PiecewiseConvex(pos_breaks=frs("pos_breakpoints"),
                           pos_slopes=pos_slopes,
                           neg_breaks=frs("neg_breakpoints"),
                           neg_slopes=frs("neg_slopes"))


def _parse_orlicz(obj: dict) -> OrliczSpec:
    from .modular import HOMOGENEOUS, POWER, OrliczSpec

    atoms_raw = _capped(_need(obj, "atoms", list), "atoms", MAX_ORLICZ_ATOMS,
                        "MAX_ORLICZ_ATOMS")
    atoms = []
    for a, item in enumerate(atoms_raw):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"atom {a} must be [label, weight]")
        atoms.append((str(item[0]), _rational(item[1], f"atoms[{a}]")))
    phi_raw = _need(obj, "phi", list)
    for key in ("pos_breakpoints", "neg_breakpoints"):  # summed over every phi
        _capped([b for p in phi_raw if isinstance(p, dict) for b in p.get(key) or ()],
                f"phi[*].{key}", MAX_PHI_BREAKPOINTS, "MAX_PHI_BREAKPOINTS")
    phi = tuple(_parse_phi(p, f"phi[{t}]") for t, p in enumerate(phi_raw))
    functions = tuple(
        tuple(_rational(v, f"functions[{r}]") for v in row)
        for r, row in enumerate(_points(obj, "functions", "orlicz"))
    )
    scaling_raw = _need(obj, "scaling", dict)
    skind = _need(scaling_raw, "kind", str)
    if skind == HOMOGENEOUS:
        scaling: tuple = (HOMOGENEOUS,)
    elif skind == POWER:
        scaling = (POWER, _rational(_need(scaling_raw, "p"), "scaling.p"))
    else:
        raise SchemaError(f"unknown scaling kind {skind!r}")
    return OrliczSpec(atoms=tuple(atoms), phi=phi, functions=functions,
                      scaling=scaling)


def _parse_asym_norm_sample(obj: dict) -> AsymNormSample:
    dim = _need(obj, "dimension", int)
    if dim > MAX_DIMENSION:
        raise SchemaError(f"field 'dimension': {dim} exceeds the limit "
                          f"MAX_DIMENSION = {MAX_DIMENSION}")
    p = _rational(_need(obj, "p"), "p")
    points = tuple(
        tuple(_rational(v, f"points[{r}]") for v in row)
        for r, row in enumerate(_points(obj, "points", "asym_norm_sample"))
    )
    _cap_denominators((c for v in points for c in v), "points")
    return AsymNormSample(dimension=dim, p=p, points=points)


def _parse_map(obj: dict) -> PointMap:
    from .morphisms import PointMap

    src = _labels(obj, "source_points", "map")
    tgt = _labels(obj, "target_points", "map")
    assignment = tuple(_index_list(_need(obj, "assignment", list), len(tgt),
                                   "assignment"))
    return PointMap(source_points=src, target_points=tgt, assignment=assignment)


def _parse_sequence(obj: dict) -> EventuallyPeriodicSeq:
    pre = _need(obj, "preperiod", list)
    per = _need(obj, "period", list)
    for v in _capped(pre + per, "preperiod + period", MAX_SEQUENCE_LENGTH,
                     "MAX_SEQUENCE_LENGTH"):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(f"sequence index {v!r} must be a nonnegative integer")
    return EventuallyPeriodicSeq(preperiod=tuple(pre), period=tuple(per))


_PARSERS = {
    "quasi_metric": _parse_quasi_metric,
    "digraph": _parse_digraph,
    "bitopology": _parse_bitopology,
    "modular_family": _parse_modular_family,
    "orlicz": _parse_orlicz,
    "asym_norm_sample": _parse_asym_norm_sample,
    "map": _parse_map,
    "sequence": _parse_sequence,
}


# -- serialization ----------------------------------------------------------


def dump_instance(value) -> dict:
    if isinstance(value, QuasiPseudoMetric):
        if value.tol is not None:
            raise TypeError("cannot serialize a float-mode QuasiPseudoMetric: "
                            "only its asym_norm_sample has a file form")
        return {
            "kind": "quasi_metric",
            "points": list(value.points),
            "dist": [[str(v) for v in row] for row in value.dist],
        }
    if isinstance(value, WeightedDigraph):
        return {
            "kind": "digraph",
            "vertices": list(value.vertices),
            "edges": [[u, v, str(w)] for u, v, w in value.edges],
        }
    if isinstance(value, BitopSpace):
        return {
            "kind": "bitopology",
            "points": list(value.points),
            "forward_min_nbhd": [sorted(value.forward.min_nbhd(x))
                                 for x in range(value.n)],
            "backward_min_nbhd": [sorted(value.backward.min_nbhd(x))
                                  for x in range(value.n)],
        }
    if isinstance(value, AsymNormSample):
        return {
            "kind": "asym_norm_sample",
            "dimension": value.dimension,
            "p": str(value.p),
            "points": [[str(v) for v in row] for row in value.points],
        }
    if isinstance(value, EventuallyPeriodicSeq):
        return {
            "kind": "sequence",
            "preperiod": list(value.preperiod),
            "period": list(value.period),
        }
    modular = _loaded("modular")
    if modular and isinstance(value, modular.QuasiModularFamily):
        return {
            "kind": "modular_family",
            "points": list(value.points),
            "gauges": [[_dump_gauge(g) for g in row] for row in value.gauges],
        }
    if modular and isinstance(value, modular.OrliczSpec):
        return {
            "kind": "orlicz",
            "atoms": [[label, str(w)] for label, w in value.atoms],
            "phi": [_dump_phi(p) for p in value.phi],
            "functions": [[str(v) for v in row] for row in value.functions],
            "scaling": ({"kind": modular.HOMOGENEOUS}
                        if value.scaling[0] == modular.HOMOGENEOUS
                        else {"kind": modular.POWER, "p": str(value.scaling[1])}),
        }
    morphisms = _loaded("morphisms")
    if morphisms and isinstance(value, morphisms.PointMap):
        return {
            "kind": "map",
            "source_points": list(value.source_points),
            "target_points": list(value.target_points),
            "assignment": list(value.assignment),
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _loaded(name: str):
    """The package module ``name`` if it is loaded, else None: no value of
    its types exists before that, so a dump need not load it."""
    return sys.modules.get(f"{__package__}.{name}")


def _dump_gauge(g: ScaleGauge) -> dict:
    """A step gauge's values are its alphas; a homogeneous or power
    gauge's coeff is its one beta; a piecewise gauge lists its pieces."""
    from .modular import HOMOGENEOUS, POWER, STEP

    bps = [str(b) for b in g.breakpoints]
    levels = ["inf" if a is None else str(a if g.kind == STEP else b) for a, b in g.pieces]
    if g.kind == STEP:
        return {"kind": STEP, "breakpoints": bps, "values": levels}
    if g.kind == HOMOGENEOUS:
        return {"kind": HOMOGENEOUS, "coeff": levels[0]}
    if g.kind == POWER:
        return {"kind": POWER, "coeff": levels[0], "exponent": str(g.exponent)}
    return {"kind": g.kind, "breakpoints": bps,
            "pieces": [["inf" if a is None else str(a), str(b)] for a, b in g.pieces]}


def _dump_phi(p: PiecewiseConvex) -> dict:
    doc = {"pos_breakpoints": [str(b) for b in p.pos_breaks],
           "pos_slopes": [str(s) for s in p.pos_slopes]}
    if p.neg_slopes:
        doc["neg_breakpoints"] = [str(b) for b in p.neg_breaks]
        doc["neg_slopes"] = [str(s) for s in p.neg_slopes]
    return doc


def canonical_json(doc) -> str:
    """Stable rendering: sorted keys, two-space indent, ASCII only, and a
    trailing newline.  Takes the values qconn's documents hold: ``str``
    keys, and ``str``, ``int``, ``bool``, ``None``, list, tuple and dict
    values, subclasses included; any other key or value, a float among
    them, raises TypeError.  Byte-equal to ``json.dumps(doc, indent=2,
    sort_keys=True, ensure_ascii=True) + "\\n"`` on those, in one pass that
    appends to a list and joins once (json's C encoder cannot indent, so
    that call runs json's pure-Python encoder)."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _write(o, out: list, nl: str) -> None:
    """Append the JSON of ``o``, whose lines start with ``nl``.  Exact list,
    tuple and dict types are found by ``type(o) is``, and in their loops an
    exact int or str leaf is appended inline with its separator, so a leaf
    costs no call.  Every other value, subclasses included, follows json's
    rules: tuples render as lists, and the leaf tests run in json's order
    (bool before int); containers are tested first, as no value is both a
    container and a leaf.  A non-``str`` key or a value of any other type
    raises TypeError."""
    t = type(o)
    if t is list or t is tuple or t is not dict and isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
            t = type(v)
            if t is int:
                out.append(sep + int.__repr__(v))
            elif t is str:
                out.append(sep + _quote(v))
            else:
                out.append(sep)
                _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "]")
    elif isinstance(o, dict):
        if not o:
            out.append("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in sorted(o.items()):
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            head = sep + _quote(k) + ": "
            t = type(v)
            if t is int:
                out.append(head + int.__repr__(v))
            elif t is str:
                out.append(head + _quote(v))
            else:
                out.append(head)
                _write(v, out, inner)
            sep = "," + inner
        out.append(nl + "}")
    elif isinstance(o, str):
        out.append(_quote(o))
    elif o is None:
        out.append("null")
    elif o is True:
        out.append("true")
    elif o is False:
        out.append("false")
    elif isinstance(o, int):
        out.append(int.__repr__(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
