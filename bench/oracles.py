"""Output checks that do not trust the code under test.

Each check recomputes the expected answer from the benchmark's own view
of the input (its generator's data, networkx graphs, exact rational
arithmetic) and returns a list of problems; an empty list means the
output is correct.  ``brute_force_antisym`` is the one qconn function
used here: it is the package's own independent subset-enumeration
oracle, applied to spaces the benchmark builds itself.
"""

from __future__ import annotations

from fractions import Fraction

import networkx as nx

from inputs import gauge_value, text

FLOAT_TOL = Fraction(1e-9)  # qconn analyze --float-tol default


def blocks(components) -> list[list[int]]:
    return sorted(sorted(c) for c in components)


def _members(mask: int) -> list[int]:
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def combined_graph(n: int, fwd, bwd) -> nx.DiGraph:
    """Arcs x -> y iff y in N+(x) or x in N-(y)."""
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for x in range(n):
        g.add_edges_from((x, y) for y in _members(fwd[x]))
        g.add_edges_from((y, x) for y in _members(bwd[x]))
    return g


def join_blocks(n: int, fwd, bwd) -> list[list[int]]:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    for x in range(n):
        g.add_edges_from((x, y) for y in _members(fwd[x] & bwd[x]))
    return blocks(nx.connected_components(g))


def inseparable_but_join_split(fwd, bwd) -> bool:
    """The cor61_join_local finding predicate."""
    n = len(fwd)
    return (nx.is_strongly_connected(combined_graph(n, fwd, bwd))
            and len(join_blocks(n, fwd, bwd)) > 1)


def nx_closure(n: int, edges) -> list[list[Fraction | None]]:
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    for i, j, w in edges:
        w = Fraction(w)
        if i != j and (not g.has_edge(i, j) or w < g[i][j]["weight"]):
            g.add_edge(i, j, weight=w)
    d: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
    for i, lengths in nx.all_pairs_dijkstra_path_length(g):
        for j, v in lengths.items():
            d[i][j] = Fraction(v)
    return d


class Metric:
    """The benchmark's own distances for a metric-backed file.

    Exact kinds keep d itself (None is infinity).  For the p = 2 sample
    it keeps the exact squared gauge S, so d < e iff S < e^2: the float
    mode's square root never decides a comparison here.
    """

    def __init__(self, n: int, values, squared: bool = False):
        self.n, self.values, self.squared = n, values, squared

    def _scaled(self, bound: Fraction) -> Fraction:
        return bound * bound if self.squared else bound

    def lt(self, x: int, y: int, bound: Fraction) -> bool:
        v = self.values[x][y]
        return v is not None and v < self._scaled(bound)

    def le(self, x: int, y: int, bound: Fraction) -> bool:
        v = self.values[x][y]
        return v is not None and v <= self._scaled(bound)

    def zero(self, x: int, y: int) -> bool:
        return self.values[x][y] == 0

    def zero_rows(self) -> list[int]:
        return [sum(1 << y for y in range(self.n) if self.zero(x, y))
                for x in range(self.n)]


def file_metric(truth: dict) -> Metric | None:
    kind, n = truth["kind"], truth["n"]
    if kind == "digraph":
        return Metric(n, nx_closure(n, truth["edges"]))
    if kind == "quasi_metric":
        return Metric(n, [[None if v == "inf" else Fraction(v) for v in row]
                          for row in truth["dist"]])
    if kind == "asym_norm_sample":
        pts = [[Fraction(v) for v in row] for row in truth["points"]]
        p = truth["p"]
        vals = []
        for x in range(n):
            row = []
            for y in range(n):
                pos = [max(b - a, Fraction(0)) for a, b in zip(pts[x], pts[y])]
                row.append(sum((t ** p for t in pos), Fraction(0)))
            vals.append(row)
        return Metric(n, vals, squared=p == 2)
    return None


def file_bitop(truth: dict, metric: Metric | None) -> tuple[list[int], list[int]]:
    if metric is None:
        return truth["fwd"], truth["bwd"]
    fwd = metric.zero_rows()
    bwd = [sum(1 << x for x in range(metric.n) if fwd[x] >> y & 1)
           for y in range(metric.n)]
    return fwd, bwd


def _labels(doc: dict) -> list[str]:
    if doc["kind"] == "digraph":
        return doc["vertices"]
    if doc["kind"] == "asym_norm_sample":
        return [f"v{i}" for i in range(len(doc["points"]))]
    return doc["points"]


def check_closure(truth: dict, matrix) -> list[str]:
    """qconn's closure (rows of value strings) against networkx shortest
    paths with Fraction weights."""
    want = nx_closure(truth["n"], truth["edges"])
    bad = [(i, j) for i in range(truth["n"]) for j in range(truth["n"])
           if matrix[i][j] != text(want[i][j])]
    return [f"closure differs at {bad[:3]} ({len(bad)} entries)"] if bad else []


def check_analyze(file: dict, report: dict, metric: Metric | None,
                  brute_force=None) -> list[str]:
    """Every analysis section of one ``qconn analyze`` report."""
    truth, doc = file["truth"], file["doc"]
    n = truth["n"]
    errs = []
    if report.get("kind") != truth["kind"]:
        errs.append(f"kind {report.get('kind')!r}")
    want_tol = str(FLOAT_TOL) if truth.get("p") == 2 else None
    if report.get("numeric_tolerance") != want_tol:
        errs.append(f"numeric_tolerance {report.get('numeric_tolerance')!r}")
    fwd, bwd = file_bitop(truth, metric)
    comb = combined_graph(n, fwd, bwd)
    anti = blocks(nx.strongly_connected_components(comb))
    an = report["analyses"]
    comp = an["components"]
    if comp["antisymmetric"] != anti:
        errs.append("antisymmetric partition differs from networkx SCCs")
    if comp["symmetric"] != join_blocks(n, fwd, bwd):
        errs.append("symmetric partition differs from join components")
    connected = len(anti) == 1
    if comp["antisym_connected"] != connected:
        errs.append("antisym_connected differs from the SCC count")
    if brute_force is not None and comp["antisym_connected"] != brute_force(fwd, bwd):
        errs.append("antisym_connected differs from brute_force_antisym")
    cert = comp["certificate"]
    if connected != (cert is None):
        errs.append("certificate presence is wrong")
    elif cert is not None:
        a = sum(1 << x for x in cert["A"])
        b = sum(1 << x for x in cert["B"])
        if (not a or not b or a & b or a | b != (1 << n) - 1
                or any(fwd[x] & ~a for x in cert["A"])
                or any(bwd[x] & ~b for x in cert["B"])):
            errs.append("certificate is not a separation")
    local = an["local"]["points"]
    for x in range(n):
        witness = _members(fwd[x] & bwd[x])
        ok = nx.is_strongly_connected(comb.subgraph(witness))
        if local[x] != {"point": x, "pass": ok, "witness": witness}:
            errs.append(f"local status of point {x}")
            break
    if an["local"]["all_pass"] != all(p["pass"] for p in local):
        errs.append("local all_pass")
    if metric is not None:
        errs += _check_metric_sections(file, an, metric, _labels(doc))
    return errs


def _check_metric_sections(file, an, metric: Metric, labels) -> list[str]:
    errs = []
    n = metric.n
    eps = Fraction(file["flags"][file["flags"].index("--scale") + 1])
    g = nx.DiGraph()
    g.add_nodes_from(range(n))
    u = nx.Graph()
    u.add_nodes_from(range(n))
    for x in range(n):
        for y in range(n):
            if metric.lt(x, y, eps):
                g.add_edge(x, y)
                if metric.lt(y, x, eps):
                    u.add_edge(x, y)
    scale = an["scale"]
    if (scale["antisymmetric"] != blocks(nx.strongly_connected_components(g))
            or scale["symmetric"] != blocks(nx.connected_components(u))
            or scale["eps"] != str(eps)):
        errs.append("scale partitions differ")

    smyth = an["smyth"]
    zero = nx.DiGraph()
    zero.add_nodes_from(range(n))
    zero.add_edges_from((x, y) for x in range(n) for y in range(n)
                        if metric.zero(x, y))
    classes = [{"class": c,
                "forward_limits": [y for y in range(n)
                                   if all(metric.zero(p, y) for p in c)]}
               for c in blocks(nx.strongly_connected_components(zero))]
    if smyth["smyth_report"]["classes"] != classes:
        errs.append("smyth classes or limits differ")
    for cover in smyth["precompact_report"]["covers"]:
        e = Fraction(cover["eps"])
        covered = {y for c in cover["centers"] for y in range(n) if metric.lt(c, y, e)}
        if len(covered) != n or cover["size"] != len(cover["centers"]):
            errs.append(f"precompact cover at eps={e} does not cover")
    sizes = [c["size"] for c in smyth["precompact_report"]["covers"]]
    if sizes != sorted(sizes, reverse=True):
        errs.append("cover sizes increase with eps")

    radii = sorted({Fraction(r) for r in
                    file["flags"][file["flags"].index("--formal-balls") + 1].split(",")})
    elems = [(x, r) for x in range(n) for r in radii]
    fb = an["formal_balls"]
    if fb["elements"] != [f"({labels[x]},{r})" for x, r in elems]:
        errs.append("formal-ball elements differ")
    m = len(elems)

    def le(a, b):
        gap = elems[a][1] - elems[b][1]
        return gap >= 0 and metric.le(elems[a][0], elems[b][0], gap)

    rel = [[le(a, b) for b in range(m)] for a in range(m)]
    strict = nx.DiGraph()
    strict.add_nodes_from(range(m))
    strict.add_edges_from((a, b) for a in range(m) for b in range(m)
                          if rel[a][b] and not rel[b][a])
    hasse = sorted(map(list, nx.transitive_reduction(strict).edges()))
    if sorted(fb["hasse_edges"]) != hasse:
        errs.append("formal-ball Hasse edges differ")
    return errs


# -- gauge families ---------------------------------------------------------


def family_zero_rows(fam: dict) -> list[int]:
    def identically_zero(g):
        return g[1] == 0 if g[0] == "homogeneous" else all(v == 0 for v in g[2])

    n = fam["n"]
    return [sum(1 << y for y in range(n) if identically_zero(fam["gauges"][x][y]))
            for x in range(n)]


def check_family(fam: dict, out: dict, pairs) -> list[str]:
    """``out`` holds the job's results: the validation report, the
    Luxemburg matrix as strings, the two bitop neighbourhood rows and,
    per (r, lambda), the entourage and qconn's modular_balls sections."""
    n = fam["n"]
    errs = []
    if not out["valid"]:
        errs.append("validate_family rejected a valid family")
    if out["luxemburg"] != [[text(v) for v in row] for row in fam["expected"]]:
        errs.append("luxemburg gauge differs from the recipe's metric")
    rows = family_zero_rows(fam)
    join = [rows[x] & sum(1 << y for y in range(n) if rows[y] >> x & 1)
            for x in range(n)]
    if out["sym_forward"] != out["join"]:
        errs.append("modular_bitop(symmetrize) differs from join(modular_bitop)")
    if out["join"] != join:
        errs.append("join neighbourhoods differ from the zero gauges")
    for (r, lam), ent, balls in zip(pairs, out["entourages"], out["balls"]):
        want = [[y for y in range(n)
                 if (v := gauge_value(fam["gauges"][x][y], lam)) is not None and v < r]
                for x in range(n)]
        sections = [sorted(y for (a, y) in ent if a == x) for x in range(n)]
        if sections != balls or sections != want:
            errs.append(f"entourage sections at r={r}, lambda={lam}")
    return errs
