"""JSON instance files: parsing with full validation, and serialization.

All numbers travel as rational strings ("0", "3/2", "inf"); indices refer
to the declared point order.  Parsing validates the kind-specific schema
and the semantic invariants (triangle inequality, coherence, ...) before
any computation, so a loaded instance is always usable.
"""

from __future__ import annotations

import json
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Any

from .bitopology import AlexandrovTopology, BitopSpace
from .completion import EventuallyPeriodicSeq
from .errors import ParseError, QconnError, SchemaError
from .gauges import AsymNormSample, QuasiPseudoMetric, WeightedDigraph, validate_qpm
from .modular import (
    HOMOGENEOUS,
    POWER,
    STEP,
    OrliczSpec,
    PiecewiseConvex,
    QuasiModularFamily,
    ScaleGauge,
)
from .morphisms import PointMap
from .numbers import ExtNonNeg, LiteralTooLarge, parse_rational

_INF = float("inf")

KINDS = ("quasi_metric", "digraph", "bitopology", "modular_family", "orlicz",
         "asym_norm_sample", "map", "sequence")

# Size caps, so that every accepted file is validated and analysed in
# bounded time.  Each was sized by timing ``validate`` and ``analyze`` with
# every analysis of the densest instance at the cap (complete digraphs, full
# matrices and neighbourhoods, 3-breakpoint step gauges, 32 atoms, and
# MAX_PHI_BREAKPOINTS on each side of 0 summed over every phi, since a
# gauge and its transpose together reach at most both sums): 0.4-2.6 s on a
# 2-core VM under CPython 3.11.  A larger file is a SchemaError naming its limit.
MAX_POINTS = {"quasi_metric": 256, "digraph": 256, "asym_norm_sample": 256,
              "bitopology": 512, "modular_family": 128, "orlicz": 64, "map": 100_000}
MAX_ORLICZ_ATOMS = 32
MAX_PHI_BREAKPOINTS = 32
MAX_SEQUENCE_LENGTH = 100_000


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


def _extnonneg(text, field: str) -> ExtNonNeg:
    return read_literal(text, f"field {field!r}", lambda t: ExtNonNeg(str(t)), "value")


def _memo(parsed: dict, text, field: str) -> ExtNonNeg:
    """_extnonneg through the caller's dict of the literals parsed so far;
    a bad literal raises at its first occurrence, as without the dict."""
    key = str(text)
    value = parsed.get(key)
    if value is None:
        value = parsed[key] = _extnonneg(text, field)
    return value


def _capped(raw: list, field: str, cap: int, name: str) -> list:
    if len(raw) > cap:
        raise SchemaError(f"field {field!r}: {len(raw)} entries exceed the limit "
                          f"{name} = {cap}")
    return raw


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
    """Dispatch on the "kind" tag; returns (kind, value)."""
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
    except (ValueError, TypeError, KeyError, AssertionError) as exc:
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
    dist = _need(obj, "dist", list)
    if len(dist) != len(points):
        raise SchemaError("dist must have one row per point")
    parsed: dict = {}  # each distinct literal is parsed once per file
    matrix = []
    for r, row in enumerate(dist):
        if not isinstance(row, list) or len(row) != len(points):
            raise SchemaError(f"dist row {r} has wrong length")
        matrix.append([_memo(parsed, v, f"dist[{r}]") for v in row])
    tol = None
    if obj.get("tol") is not None:
        tol = _rational(obj["tol"], "tol")
        if tol < 0:
            raise SchemaError("tol must be nonnegative")
    return validate_qpm(matrix, points=points, tol=tol)


def _parse_digraph(obj: dict) -> WeightedDigraph:
    vertices = _labels(obj, "vertices", "digraph")
    edges_raw = _need(obj, "edges", list)
    parsed: dict = {}
    edges = []
    for e, item in enumerate(edges_raw):
        if not isinstance(item, list) or len(item) != 3:
            raise SchemaError(f"edge {e} must be [from, to, weight]")
        u, v, w = str(item[0]), str(item[1]), _memo(parsed, item[2], f"edges[{e}]")
        if w.is_inf:
            raise SchemaError(f"edge {e} has infinite weight")
        edges.append((u, v, w))
    return WeightedDigraph(vertices=vertices, edges=tuple(edges))


def _parse_bitopology(obj: dict) -> BitopSpace:
    points = _labels(obj, "points", "bitopology")
    n = len(points)
    fwd_raw = _need(obj, "forward_min_nbhd", list)
    bwd_raw = _need(obj, "backward_min_nbhd", list)
    if len(fwd_raw) != n or len(bwd_raw) != n:
        raise SchemaError("need one neighborhood per point on both sides")
    fwd = [_index_list(s, n, "forward_min_nbhd") for s in fwd_raw]
    bwd = [_index_list(s, n, "backward_min_nbhd") for s in bwd_raw]
    return BitopSpace(forward=AlexandrovTopology.from_sets(points, fwd),
                      backward=AlexandrovTopology.from_sets(points, bwd))


def _parse_gauge(obj: dict, field: str) -> ScaleGauge:
    if not isinstance(obj, dict):
        raise SchemaError(f"{field}: gauge must be an object")
    kind = _need(obj, "kind", str)
    if kind == STEP:
        bps = [_rational(b, f"{field}.breakpoints") for b in _need(obj, "breakpoints", list)]
        values = [_extnonneg(v, f"{field}.values") for v in _need(obj, "values", list)]
        return ScaleGauge.step(bps, values)
    if kind == HOMOGENEOUS:
        return ScaleGauge.homogeneous(_extnonneg(_need(obj, "coeff"), f"{field}.coeff"))
    if kind == POWER:
        return ScaleGauge.power(_extnonneg(_need(obj, "coeff"), f"{field}.coeff"),
                                _rational(_need(obj, "exponent"), f"{field}.exponent"))
    raise SchemaError(f"{field}: unknown gauge kind {kind!r}")


def _parse_modular_family(obj: dict) -> QuasiModularFamily:
    points = _labels(obj, "points", "modular_family")
    n = len(points)
    rows_raw = _need(obj, "gauges", list)
    if len(rows_raw) != n:
        raise SchemaError("gauges must have one row per point")
    rows = []
    for r, row in enumerate(rows_raw):
        if not isinstance(row, list) or len(row) != n:
            raise SchemaError(f"gauges row {r} has wrong length")
        rows.append(tuple(_parse_gauge(g, f"gauges[{r}][{c}]")
                          for c, g in enumerate(row)))
    return QuasiModularFamily(points=points, gauges=tuple(rows))


def _parse_phi(obj: dict, field: str) -> PiecewiseConvex:
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
    atoms_raw = _capped(_need(obj, "atoms", list), "atoms", MAX_ORLICZ_ATOMS,
                        "MAX_ORLICZ_ATOMS")
    atoms = []
    for a, item in enumerate(atoms_raw):
        if not isinstance(item, list) or len(item) != 2:
            raise SchemaError(f"atom {a} must be [label, weight]")
        weight = _rational(item[1], f"atoms[{a}]")
        if weight <= 0:
            raise SchemaError(f"atom {a} weight must be positive")
        atoms.append((str(item[0]), weight))
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
    p = _rational(_need(obj, "p"), "p")
    points = tuple(
        tuple(_rational(v, f"points[{r}]") for v in row)
        for r, row in enumerate(_points(obj, "points", "asym_norm_sample"))
    )
    return AsymNormSample(dimension=dim, p=p, points=points)


def _parse_map(obj: dict) -> PointMap:
    src = _labels(obj, "source_points", "map")
    tgt = _labels(obj, "target_points", "map")
    assignment = tuple(_index_list(_need(obj, "assignment", list), len(tgt),
                                   "assignment"))
    if len(assignment) != len(src):
        raise SchemaError("assignment must be total on the source")
    return PointMap(source_points=src, target_points=tgt, assignment=assignment)


def _parse_sequence(obj: dict) -> EventuallyPeriodicSeq:
    pre = _need(obj, "preperiod", list)
    per = _need(obj, "period", list)
    for v in _capped(pre + per, "preperiod + period", MAX_SEQUENCE_LENGTH,
                     "MAX_SEQUENCE_LENGTH"):
        if not isinstance(v, int) or isinstance(v, bool) or v < 0:
            raise SchemaError(f"sequence index {v!r} must be a nonnegative integer")
    if not per:
        raise SchemaError("period must be nonempty")
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
        doc = {
            "kind": "quasi_metric",
            "points": list(value.points),
            "dist": [[str(v) for v in row] for row in value.dist],
        }
        if value.tol is not None:
            doc["tol"] = str(value.tol)
        return doc
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
    if isinstance(value, QuasiModularFamily):
        return {
            "kind": "modular_family",
            "points": list(value.points),
            "gauges": [[_dump_gauge(g) for g in row] for row in value.gauges],
        }
    if isinstance(value, OrliczSpec):
        return {
            "kind": "orlicz",
            "atoms": [[label, str(w)] for label, w in value.atoms],
            "phi": [_dump_phi(p) for p in value.phi],
            "functions": [[str(v) for v in row] for row in value.functions],
            "scaling": ({"kind": HOMOGENEOUS} if value.scaling[0] == HOMOGENEOUS
                        else {"kind": POWER, "p": str(value.scaling[1])}),
        }
    if isinstance(value, AsymNormSample):
        return {
            "kind": "asym_norm_sample",
            "dimension": value.dimension,
            "p": str(value.p),
            "points": [[str(v) for v in row] for row in value.points],
        }
    if isinstance(value, PointMap):
        return {
            "kind": "map",
            "source_points": list(value.source_points),
            "target_points": list(value.target_points),
            "assignment": list(value.assignment),
        }
    if isinstance(value, EventuallyPeriodicSeq):
        return {
            "kind": "sequence",
            "preperiod": list(value.preperiod),
            "period": list(value.period),
        }
    raise TypeError(f"cannot serialize {type(value).__name__}")


def _dump_gauge(g: ScaleGauge) -> dict:
    """A step gauge's values are its alphas; a homogeneous or power
    gauge's coeff is its one beta."""
    levels = ["inf" if a is None else str(a if g.kind == STEP else b) for a, b in g.pieces]
    if g.kind == STEP:
        return {"kind": STEP, "breakpoints": [str(b) for b in g.breakpoints], "values": levels}
    if g.kind == HOMOGENEOUS:
        return {"kind": HOMOGENEOUS, "coeff": levels[0]}
    if g.kind == POWER:
        return {"kind": POWER, "coeff": levels[0], "exponent": str(g.exponent)}
    raise TypeError(f"a {g.kind} gauge has no file form")


def _dump_phi(p: PiecewiseConvex) -> dict:
    doc = {"pos_breakpoints": [str(b) for b in p.pos_breaks],
           "pos_slopes": [str(s) for s in p.pos_slopes]}
    if p.neg_slopes:
        doc["neg_breakpoints"] = [str(b) for b in p.neg_breaks]
        doc["neg_slopes"] = [str(s) for s in p.neg_slopes]
    return doc


def canonical_json(doc) -> str:
    """Stable rendering: sorted keys, two-space indent, ASCII only, and a
    trailing newline.  Byte-equal to ``json.dumps(doc, indent=2,
    sort_keys=True, ensure_ascii=True) + "\\n"`` on every value that call
    accepts, in one pass that appends to a list and joins once (with an
    indent, json runs its pure-Python encoder)."""
    out = []
    _write(doc, out, "\n")
    out.append("\n")
    return "".join(out)


def _float(o: float) -> str:
    if o != o:
        return "NaN"
    if o == _INF:
        return "Infinity"
    if o == -_INF:
        return "-Infinity"
    return float.__repr__(o)


def _write(o, out: list, nl: str) -> None:
    """Append the JSON of ``o``, whose lines start with ``nl``.  Tuples
    render as lists and the leaf tests follow json's order (bool before
    int); containers are tested first, as no value is both a container
    and a leaf."""
    if isinstance(o, (list, tuple)):
        if not o:
            out.append("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in o:
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
            if isinstance(k, str):
                pass
            elif isinstance(k, float):
                k = _float(k)
            elif k is True or k is False or k is None:
                k = "true" if k is True else "false" if k is False else "null"
            elif isinstance(k, int):
                k = int.__repr__(k)
            else:
                raise TypeError(f"keys must be str, int, float, bool or None, "
                                f"not {type(k).__name__}")
            out.append(sep + _quote(k) + ": ")
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
    elif isinstance(o, float):
        out.append(_float(o))
    else:
        raise TypeError(f"Object of type {type(o).__name__} is not JSON serializable")
