import json
import random
from collections import Counter, namedtuple
from enum import IntEnum
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gen import (
    reference_json,
    rng_bitop,
    rng_family,
    rng_homogeneous_family,
    rng_qpm,
    rng_step_family,
    rng_vectors,
)
from qconn import (
    AsymNormSample,
    EventuallyPeriodicSeq,
    OrliczSpec,
    PointMap,
    QuasiModularFamily,
    ScaleGauge,
    WeightedDigraph,
    from_asym_norm,
    from_orlicz,
    symmetrize_family,
    validate_qpm,
)
from qconn.cli import main
from qconn.errors import ParseError, SchemaError
from qconn.instances import (
    canonical_json,
    dump_instance,
    load_instance_text,
    parse_instance,
)
from qconn.modular import POSITIVE_PART, PiecewiseConvex, merge_max
from qconn.numbers import enn


def roundtrip(value):
    doc = dump_instance(value)
    kind, parsed = parse_instance(json.loads(canonical_json(doc)))
    assert dump_instance(parsed) == doc
    return kind, parsed


def test_quasi_metric_roundtrip():
    d = rng_qpm(random.Random(0), 4)
    kind, parsed = roundtrip(d)
    assert kind == "quasi_metric"
    assert parsed.dist == d.dist


def test_digraph_roundtrip():
    g = WeightedDigraph(vertices=("a", "b"), edges=(("a", "b", enn("3/2")),))
    kind, parsed = roundtrip(g)
    assert kind == "digraph" and parsed.edges == g.edges


def test_bitopology_roundtrip():
    b = rng_bitop(random.Random(1), 5)
    kind, parsed = roundtrip(b)
    assert kind == "bitopology"
    assert parsed.forward.nbhd == b.forward.nbhd
    assert parsed.backward.nbhd == b.backward.nbhd


def test_modular_family_roundtrip():
    fam = rng_family(random.Random(2), 4)
    kind, parsed = roundtrip(fam)
    assert kind == "modular_family" and parsed.gauges == fam.gauges
    # inf step values, homogeneous coefficients 0 and inf, power gauges
    edge = QuasiModularFamily(points=("a", "b"), gauges=(
        (ScaleGauge.step(["1/2", 3], ["inf", "5/2", 0]), ScaleGauge.homogeneous("inf")),
        (ScaleGauge.homogeneous(0), ScaleGauge.power("9/4", "3/2")),
    ))
    doc = dump_instance(edge)
    assert doc["gauges"] == [
        [{"kind": "step", "breakpoints": ["1/2", "3"], "values": ["inf", "5/2", "0"]},
         {"kind": "homogeneous", "coeff": "inf"}],
        [{"kind": "homogeneous", "coeff": "0"},
         {"kind": "power", "coeff": "9/4", "exponent": "3/2"}]]
    kind, parsed = roundtrip(edge)
    assert kind == "modular_family" and parsed.gauges == edge.gauges
    assert canonical_json(dump_instance(parsed)) == canonical_json(doc)


def _library_families():
    """Families with piecewise gauges that only the library builds:
    symmetrize_family of step gauges above the diagonal and homogeneous
    ones below it, merge_max of a step and a homogeneous family, and a
    from_orlicz family with a phi kinked on both sides of 0."""
    rng = random.Random(7)
    step, homog = rng_step_family(rng, 4)[0], rng_homogeneous_family(rng, 4)
    half = QuasiModularFamily(points=step.points, gauges=tuple(
        tuple((step if i < j else homog).gauges[i][j] for j in range(4)) for i in range(4)))
    merged = QuasiModularFamily(points=step.points, gauges=tuple(
        tuple(map(merge_max, r1, r2)) for r1, r2 in zip(step.gauges, homog.gauges)))
    kinked = PiecewiseConvex(pos_breaks=(Fraction(1),), pos_slopes=(Fraction(1), Fraction(3)),
                             neg_breaks=(Fraction(-2),), neg_slopes=(Fraction(-1), Fraction(-2)))
    orlicz = from_orlicz(OrliczSpec(
        atoms=(("a", Fraction(1)), ("b", Fraction(2, 3))), phi=(kinked, POSITIVE_PART),
        functions=((Fraction(0), Fraction(0)), (Fraction(2), Fraction(-1)),
                   (Fraction(-3, 2), Fraction(5))),
        scaling=("homogeneous",)))
    return [symmetrize_family(half), merged, orlicz]


def test_library_families_roundtrip_and_run(tmp_path):
    out = tmp_path / "out.json"
    for t, fam in enumerate(_library_families()):
        assert any(g.kind == "piecewise" for row in fam.gauges for g in row)
        text = canonical_json(dump_instance(fam))
        kind, parsed = parse_instance(json.loads(text))
        assert kind == "modular_family" and parsed.gauges == fam.gauges
        assert canonical_json(dump_instance(parsed)) == text
        path = tmp_path / f"family{t}.json"
        path.write_text(text)
        assert main(["validate", str(path), "--out", str(out)]) == 0
        assert json.loads(out.read_text())["instance"] == json.loads(text)
        assert main(["analyze", "--components", "--local", str(path), "--out", str(out)]) == 0


def test_piecewise_file_form():
    gauge = ScaleGauge("piecewise", ((None, Fraction(0)), (Fraction(-1, 2), Fraction(3)),
                                     (Fraction(0), Fraction(1))), (Fraction(1), Fraction(6)))
    fam = QuasiModularFamily(points=("a",), gauges=((gauge,),))
    assert dump_instance(fam)["gauges"] == [[{
        "kind": "piecewise", "breakpoints": ["1", "6"],
        "pieces": [["inf", "0"], ["-1/2", "3"], ["0", "1"]]}]]
    assert roundtrip(fam)[1].gauges == fam.gauges


def test_orlicz_roundtrip():
    spec = OrliczSpec(
        atoms=(("w0", Fraction(1)), ("w1", Fraction(2))),
        phi=(POSITIVE_PART,
             PiecewiseConvex(pos_breaks=(Fraction(1),),
                             pos_slopes=(Fraction(1), Fraction(3)),
                             neg_breaks=(Fraction(-2),),
                             neg_slopes=(Fraction(0), Fraction(-1)))),
        functions=((Fraction(0), Fraction(1)), (Fraction(2), Fraction(-1))),
        scaling=("power", Fraction(2)),
    )
    kind, parsed = roundtrip(spec)
    assert kind == "orlicz" and parsed.phi == spec.phi


def test_asym_norm_roundtrip():
    s = rng_vectors(random.Random(3), 3, 2)
    kind, parsed = roundtrip(s)
    assert kind == "asym_norm_sample" and parsed.points == s.points


def test_map_roundtrip():
    f = PointMap(source_points=("a", "b"), target_points=("x",),
                 assignment=(0, 0))
    kind, parsed = roundtrip(f)
    assert kind == "map" and parsed.assignment == (0, 0)


def test_sequence_roundtrip():
    s = EventuallyPeriodicSeq(preperiod=(0, 1), period=(2,))
    kind, parsed = roundtrip(s)
    assert kind == "sequence" and parsed.period == (2,)


# -- rejection paths --------------------------------------------------------


def test_bad_json_is_parse_error():
    with pytest.raises(ParseError):
        load_instance_text("not json at all {{{")


def test_unknown_kind():
    with pytest.raises(SchemaError):
        parse_instance({"kind": "mystery"})


def test_missing_field():
    with pytest.raises(SchemaError):
        parse_instance({"kind": "quasi_metric", "points": ["a"]})


def test_bad_rational():
    with pytest.raises(SchemaError):
        parse_instance({"kind": "quasi_metric", "points": ["a"],
                        "dist": [["zero"]]})


def test_triangle_violation_is_schema_error():
    with pytest.raises(SchemaError) as err:
        parse_instance({
            "kind": "quasi_metric",
            "points": ["a", "b", "c"],
            "dist": [["0", "1", "5"], ["inf", "0", "1"], ["inf", "inf", "0"]],
        })
    assert "TriangleViolation" in str(err.value)


def test_incoherent_bitopology_rejected():
    with pytest.raises(SchemaError):
        parse_instance({
            "kind": "bitopology",
            "points": ["a", "b", "c"],
            "forward_min_nbhd": [[0, 1], [1, 2], [2]],
            "backward_min_nbhd": [[0], [1], [2]],
        })


def test_out_of_range_index():
    with pytest.raises(SchemaError):
        parse_instance({
            "kind": "bitopology",
            "points": ["a"],
            "forward_min_nbhd": [[0, 3]],
            "backward_min_nbhd": [[0]],
        })


def test_infinite_edge_weight_rejected():
    with pytest.raises(SchemaError):
        parse_instance({"kind": "digraph", "vertices": ["a", "b"],
                        "edges": [["a", "b", "inf"]]})


def test_duplicate_labels_rejected():
    with pytest.raises(SchemaError):
        parse_instance({"kind": "quasi_metric", "points": ["a", "a"],
                        "dist": [["0", "0"], ["0", "0"]]})


def test_canonical_json_is_stable():
    doc = {"b": 1, "a": [2, {"z": "3/2", "y": None}]}
    assert canonical_json(doc) == canonical_json(json.loads(canonical_json(doc)))
    assert canonical_json(doc).endswith("\n")


Pair = namedtuple("Pair", "left right")


class Sub(dict):
    pass


def _emitted(doc) -> bool:
    """Whether ``doc`` holds only what qconn's documents hold: ``str``
    keys, and ``str``, ``int``, ``bool``, ``None``, list, tuple and dict
    values, subclasses included."""
    if isinstance(doc, dict):
        return all(isinstance(k, str) and _emitted(v) for k, v in doc.items())
    if isinstance(doc, (list, tuple)):
        return all(_emitted(v) for v in doc)
    return doc is None or isinstance(doc, (str, int))


_leaves = st.one_of(
    st.none(), st.booleans(), st.integers(), st.integers(-2**80, 2**80),
    st.text(), st.text(st.characters(max_codepoint=0x1f)),
    st.text(st.characters(min_codepoint=0x80)))
_floats = st.one_of(
    st.floats(), st.sampled_from([float("nan"), float("inf"), -float("inf"), -0.0, 5e-324]))
# keys of every type json.dumps takes; ones that do not sort together raise TypeError
_keys = st.one_of(st.text(max_size=4), st.integers(-5, 5), st.booleans(), st.none(),
                  st.floats())


def _documents(leaves, keys):
    def dicts(values):
        return st.dictionaries(keys, values, max_size=4)

    return st.recursive(leaves, lambda inner: st.one_of(
        st.lists(inner, max_size=5),
        st.lists(st.text(max_size=3), max_size=5), st.lists(st.integers(), max_size=5),
        st.lists(inner, max_size=3).map(tuple),
        st.tuples(inner, inner).map(lambda t: Pair(*t)),
        dicts(inner), dicts(inner).map(Sub)), max_leaves=20)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_documents(_leaves, st.text(max_size=4)))
def test_canonical_json_equals_json_dumps(doc):
    assert canonical_json(doc) == reference_json(doc)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(_documents(st.one_of(_leaves, _floats), _keys))
def test_canonical_json_refuses_floats_and_non_str_keys(doc):
    if _emitted(doc):
        assert canonical_json(doc) == reference_json(doc)
    else:
        with pytest.raises(TypeError):
            canonical_json(doc)


class Level(IntEnum):
    LOW = 1
    HIGH = 2


class Name(str):
    pass


class Items(list):
    pass


class Row(tuple):
    pass


_nan, _inf = float("nan"), float("inf")

# values whose type is not exactly list, tuple, dict, int or str, next to
# the exact ones the writer emits inline; the _REFUSED entries hold a float
# or a non-str key
_WRITER_CASES = {
    "int_enum": [Level.LOW, {"k": Level.HIGH}, (Level.LOW, 3), {Level.HIGH: Level.LOW}],
    "bools": [[True, False, 1, 0], {"t": True, "f": False}, (False,)],
    "str_subclass": [Name("a\u00e9\"b"), {"k": Name("x")}, {Name("k"): "v"}, ("s", Name("t"))],
    "list_subclass": Items([1, "a", Items([2, Items()]), {"k": Items(["v"])}]),
    "tuple_subclass": {"r": Row((1, "b", Row(()), [Row((None,))]))},
    "dict_subclass": Sub({"b": Sub(), "a": [Sub({"c": 1}), "d"], "e": Sub({2: "x"})}),
    "namedtuple": [Pair(1, "a"), {"p": Pair(Pair("x", 2), [Pair(None, 1.5)])}],
    "nested_empty": [[], {}, (), [[]], [{}], {"a": []}, {"b": {}}, [(), [[{}]]], {"c": {"d": ()}}],
    "int_keys": {3: "c", -1: [1], 10: {"x": 2**70}, 0: -(2**70)},
    "float_keys": {1.5: 1, -0.0: 2, 1e300: "a", _inf: 3, -_inf: 4, 5e-324: [0.1]},
    "nan_key": {_nan: "n"},
    "bool_and_none_keys": [{True: 1, False: 0}, {None: "n"}, {True: [None]}],
    "special_floats": [_nan, _inf, -_inf, -0.0, 0.0, 1e16, 5e-324, {"x": _nan, "y": [-_inf]}],
    "leaves": ["", "\x00\x1f\u2028\ud800", "\U0001f600", 0, -1, 2**100, None, 1.0],
    "int_enum_values": [Level.LOW, {"k": Level.HIGH}, (Level.LOW, 3), {"h": [Level.HIGH]}],
    "dict_subclass_str_keys": Sub({"b": Sub(), "a": [Sub({"c": 1}), "d"], "e": Sub({"2": "x"})}),
    "namedtuple_exact": [Pair(1, "a"), {"p": Pair(Pair("x", 2), [Pair(None, True)])}],
    "exact_leaves": ["", "\x00\x1f\u2028\ud800", "\U0001f600", 0, -1, 2**100, None],
}
_REFUSED = {"int_enum", "dict_subclass", "namedtuple", "int_keys", "float_keys", "nan_key",
            "bool_and_none_keys", "special_floats", "leaves"}


@pytest.mark.parametrize("name", sorted(_WRITER_CASES))
def test_canonical_json_matches_json_dumps_on_each_type(name):
    doc = _WRITER_CASES[name]
    assert _emitted(doc) == (name not in _REFUSED)
    for top in (doc, [doc], {"k": doc}, (doc,)):
        if name in _REFUSED:
            with pytest.raises(TypeError):
                canonical_json(top)
        else:
            assert canonical_json(top) == reference_json(top)


@pytest.mark.parametrize("doc", [{1: "a", "b": 2}, {(1, 2): "t"}, [object()], {"k": {1, 2}},
                                 [b"bytes"], {"k": Fraction(1, 2)}])
def test_canonical_json_refuses_what_json_dumps_refuses(doc):
    with pytest.raises(TypeError):
        reference_json(doc)
    with pytest.raises(TypeError):
        canonical_json(doc)


# -- literals parsed once per file -------------------------------------------


def test_repeated_literals_parse_to_equal_instances():
    weights = ["1/2", "3", "1/2", 3, "0.5", "3"]
    doc = {"kind": "digraph", "vertices": ["a", "b", "c"],
           "edges": [[u, v, w] for (u, v), w in
                     zip([("a", "b"), ("b", "c"), ("c", "a"), ("a", "c"),
                          ("b", "a"), ("c", "b")], weights)]}
    _, g = parse_instance(doc)
    assert g == WeightedDigraph(vertices=("a", "b", "c"), edges=tuple(
        (u, v, enn(str(w))) for u, v, w in doc["edges"]))
    dist = [["0", "1/2", "1/2"], ["inf", "0", "1/2"], ["inf", "inf", 0]]
    _, d = parse_instance({"kind": "quasi_metric", "points": ["a", "b", "c"],
                           "dist": dist})
    assert d == validate_qpm([[enn(str(v)) for v in row] for row in dist],
                             points=["a", "b", "c"])


@pytest.mark.parametrize("bad", ["x", [1], "1e999"])
def test_repeated_bad_literal_names_its_first_field(bad):
    doc = {"kind": "digraph", "vertices": ["a", "b"],
           "edges": [["a", "b", "1"], ["b", "a", bad], ["a", "b", bad]]}
    with pytest.raises(SchemaError, match=r"^field 'edges\[1\]': ") as err:
        parse_instance(doc)
    if bad == [1]:
        assert str(err.value) == "field 'edges[1]': bad value [1]"
    doc = {"kind": "quasi_metric", "points": ["a", "b"],
           "dist": [["0", bad], [bad, "0"]]}
    with pytest.raises(SchemaError, match=r"^field 'dist\[0\]': "):
        parse_instance(doc)


def test_gauge_literals_parse_once_per_file(monkeypatch):
    from qconn import instances, numbers

    calls = {"rational": Counter(), "value": Counter()}
    parse = numbers.parse_rational

    def counting(kind):
        def counted(text):
            calls[kind][str(text)] += 1
            return parse(text)
        return counted

    # value literals reach numbers.parse_rational through enn; rational ones
    # read_literal's default
    monkeypatch.setattr(numbers, "parse_rational", counting("value"))
    monkeypatch.setattr(instances.read_literal, "__defaults__",
                        (counting("rational"), "rational"))
    zero = {"kind": "homogeneous", "coeff": "0"}
    step = {"kind": "step", "breakpoints": ["1", "2"], "values": ["1/2", "0", "0"]}
    piecewise = {"kind": "piecewise", "breakpoints": ["1", "2"],
                 "pieces": [["inf", "0"], ["1/2", "1"], ["0", "2"]]}
    power = {"kind": "power", "coeff": "1/2", "exponent": "2"}
    doc = {"kind": "modular_family", "points": ["a", "b", "c"],
           "gauges": [[zero, step, piecewise], [power, zero, step], [piecewise, power, zero]]}
    _, fam = parse_instance(doc)
    assert set(calls["rational"]) == {"1", "2", "1/2", "0"}
    assert set(calls["value"]) == {"0", "1/2"}
    assert max(calls["rational"].values()) == max(calls["value"].values()) == 1
    monkeypatch.undo()
    assert fam == parse_instance(doc)[1]
    doc["gauges"][2][0] = doc["gauges"][0][2] = dict(piecewise, breakpoints=["1", "2/0"])
    with pytest.raises(SchemaError) as err:
        parse_instance(doc)
    assert str(err.value) == "field 'gauges[0][2].breakpoints': bad rational '2/0'"


def test_float_mode_metric_has_no_file_form():
    sample = AsymNormSample(dimension=1, p=Fraction(2), points=((Fraction(0),), (Fraction(1),)))
    with pytest.raises(TypeError, match="float-mode"):
        dump_instance(from_asym_norm(sample, mode="float"))
    assert dump_instance(sample)["kind"] == "asym_norm_sample"
