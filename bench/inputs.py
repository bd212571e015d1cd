"""Seeded inputs for every workload, made without importing qconn.

The recipes follow the ones the test suite uses (min-plus closures of
random digraphs, DAG-plus-equivalence preorders, homogeneous and
step-layer gauge families), but they are copied here so that a change to
the tests or to qconn's own generators cannot shift a workload.  Every
function is a pure function of its seed: the same seed gives the same
bytes (see ``corpus_bytes``).

Distances are plain Python values: a ``Fraction`` or ``None`` for
infinity.
"""

from __future__ import annotations

import json
import random
from bisect import bisect_right
from fractions import Fraction

SEARCH_TARGETS = ("antisym_oracle", "prop53_equivalence", "prop54_inclusion",
                  "thm54_coincidence", "prop61_union", "prop61_subspace",
                  "cor61_join_local", "prop62_image", "thm74_local_image")

FAMILY_WEIGHTS = [Fraction(0), Fraction(1, 2), Fraction(1), Fraction(3, 2),
                  Fraction(2), Fraction(3), Fraction(7, 2), Fraction(5)]


def derived_seeds(seed: int, salt: str, count: int) -> list[int]:
    rng = random.Random(f"{salt}:{seed}")
    return [rng.getrandbits(31) for _ in range(count)]


# -- relations and metrics --------------------------------------------------


def reach_rows(rows) -> list[int]:
    """Reflexive-transitive closure of bitmask rows."""
    n = len(rows)
    reach = [r | (1 << x) for x, r in enumerate(rows)]
    for k in range(n):
        bit = 1 << k
        for x in range(n):
            if reach[x] & bit:
                reach[x] |= reach[k]
    return reach


def random_preorder_rows(rng: random.Random, n: int) -> list[int]:
    """Random equivalence classes glued along a random DAG."""
    k = rng.randint(1, n)
    assignment = [rng.randrange(k) for _ in range(n)]
    used = sorted(set(assignment))
    relabel = {c: t for t, c in enumerate(used)}
    assignment = [relabel[c] for c in assignment]
    k = len(used)
    order = list(range(k))
    rng.shuffle(order)
    class_rows = [0] * k
    for a in range(k):
        for b in range(a + 1, k):
            if rng.random() < 0.35:
                class_rows[order[a]] |= 1 << order[b]
    class_reach = reach_rows(class_rows)
    members = [0] * k
    for x, c in enumerate(assignment):
        members[c] |= 1 << x
    rows = []
    for x in range(n):
        m = 0
        for c in range(k):
            if class_reach[assignment[x]] >> c & 1:
                m |= members[c]
        rows.append(m)
    return rows


def random_edges(rng: random.Random, n: int, density: float,
                 zero_share: float = 0.0, den: int = 2,
                 weights=None) -> list[tuple[int, int, Fraction]]:
    edges = []
    for i in range(n):
        for j in range(n):
            if i == j or rng.random() >= density:
                continue
            if weights is not None:
                w = rng.choice(weights)
            elif rng.random() < zero_share:
                w = Fraction(0)
            else:
                w = Fraction(rng.randint(1, 5 * den), den)
            edges.append((i, j, w))
    return edges


def closure(n: int, edges) -> list[list[Fraction | None]]:
    """Min-plus path closure (Floyd-Warshall); None is infinity."""
    d: list[list[Fraction | None]] = [[None] * n for _ in range(n)]
    for i in range(n):
        d[i][i] = Fraction(0)
    for i, j, w in edges:
        if i != j and (d[i][j] is None or w < d[i][j]):
            d[i][j] = w
    for k in range(n):
        row_k = d[k]
        for i in range(n):
            dik = d[i][k]
            if dik is None:
                continue
            row_i = d[i]
            for j in range(n):
                dkj = row_k[j]
                if dkj is not None and (row_i[j] is None or dik + dkj < row_i[j]):
                    row_i[j] = dik + dkj
    return d


def text(v: Fraction | None) -> str:
    return "inf" if v is None else str(v)


# -- analyze corpus ---------------------------------------------------------


def _digraph_file(rng, n, density, zero_share, den):
    edges = random_edges(rng, n, density, zero_share, den)
    doc = {"kind": "digraph", "vertices": [str(i) for i in range(n)],
           "edges": [[str(i), str(j), str(w)] for i, j, w in edges]}
    return doc, {"n": n, "edges": [(i, j, str(w)) for i, j, w in edges]}


def _quasi_metric_file(rng, n, density, zero_share, den):
    d = closure(n, random_edges(rng, n, density, zero_share, den))
    doc = {"kind": "quasi_metric", "points": [f"q{i}" for i in range(n)],
           "dist": [[text(v) for v in row] for row in d]}
    return doc, {"n": n, "dist": doc["dist"]}


def _bitopology_file(rng, n):
    fwd = random_preorder_rows(rng, n)
    bwd = random_preorder_rows(rng, n)

    def sets(rows):
        return [[y for y in range(n) if r >> y & 1] for r in rows]

    doc = {"kind": "bitopology", "points": [f"b{i}" for i in range(n)],
           "forward_min_nbhd": sets(fwd), "backward_min_nbhd": sets(bwd)}
    return doc, {"n": n, "fwd": fwd, "bwd": bwd}


def _asym_file(rng, n, dim, p):
    pts = [[str(Fraction(rng.randint(-6, 6), rng.choice([1, 1, 2])))
            for _ in range(dim)] for _ in range(n)]
    doc = {"kind": "asym_norm_sample", "dimension": dim, "p": str(p),
           "points": pts}
    return doc, {"n": n, "p": p, "points": pts}


def analyze_corpus(seed: int, spec: dict) -> list[list[dict]]:
    """``spec["rounds"]`` rounds, each with the fixed class mix of
    ``spec["round"]``.  Density (a class may list its own), zero-weight
    share and denominator cycle through fixed lists by position, so every
    seed has the same parameter mix and only the random contents differ."""
    rng = random.Random(f"analyze:{seed}")
    zero_shares = spec["zero_shares"]
    dens = spec["denominators"]
    metric_flags = ["--scale", spec["scale"], "--smyth",
                    "--formal-balls", spec["radii"]]
    rounds = []
    for r in range(spec["rounds"]):
        files = []
        for cls in spec["round"]:
            kind = cls["kind"]
            for t in range(cls["count"]):
                pos = r * cls["count"] + t
                if kind in ("digraph", "quasi_metric"):
                    n = cls["n"][pos % len(cls["n"])]
                    densities = cls.get("densities", spec["densities"])
                    args = (n, densities[pos % len(densities)],
                            zero_shares[pos % len(zero_shares)],
                            dens[(pos // len(densities)) % len(dens)])
                    make = _digraph_file if kind == "digraph" else _quasi_metric_file
                    doc, truth = make(rng, *args)
                elif kind == "bitopology":
                    n = cls["n"][pos % len(cls["n"])]
                    doc, truth = _bitopology_file(rng, n)
                else:
                    n = cls["n"][pos % len(cls["n"])]
                    dim = cls["dims"][pos % len(cls["dims"])]
                    doc, truth = _asym_file(rng, n, dim, cls["p"])
                flags = ["--components", "--local"]
                if kind != "bitopology":
                    flags += metric_flags
                truth["kind"] = kind
                tag = kind + (f"_p{cls['p']}" if "p" in cls else "")
                files.append({"name": f"r{r}_{tag}_{t}_n{n}", "doc": doc,
                              "flags": flags, "truth": truth})
        rounds.append(_interleave(files))
    return rounds


def _interleave(files: list[dict]) -> list[dict]:
    """Spread the classes through the round so no stretch holds only the
    large carriers."""
    by_size = sorted(files, key=lambda f: -f["truth"]["n"])
    out: list[dict | None] = [None] * len(files)
    free = list(range(len(files)))
    step = max(1, len(files) // 4)
    for k, f in enumerate(by_size):
        slot = free[(k * step) % len(free)]
        free.remove(slot)
        out[slot] = f
    return out  # type: ignore[return-value]


# -- gauge families ---------------------------------------------------------


def _family_metric(rng, n):
    return closure(n, random_edges(rng, n, 0.4, weights=FAMILY_WEIGHTS))


def _homogeneous_family(rng, n):
    base = _family_metric(rng, n)
    gauges = [[("homogeneous", base[i][j]) for j in range(n)] for i in range(n)]
    return gauges, base


def _unit_capped(rng, n):
    base = _family_metric(rng, n)
    scale = Fraction(1, rng.choice([2, 3, 4, 6]))
    one = Fraction(1)
    return [[one if v is None else min(v * scale, one) for v in row]
            for row in base]


def _indicator_layer(rng, n):
    rho = _family_metric(rng, n)
    below = _unit_capped(rng, n)
    top = rng.choice([Fraction(3, 2), Fraction(2), Fraction(3), Fraction(5), None])
    gauges = []
    for i in range(n):
        row = []
        for j in range(n):
            r, b = rho[i][j], below[i][j]
            if r == 0:
                row.append(("step", (), (b,)))
            elif r is None:
                row.append(("step", (), (top,)))
            else:
                row.append(("step", (r,), (top, b)))
        gauges.append(row)
    return rho, gauges


def _vmax(a, b):
    return None if a is None or b is None else max(a, b)


def step_value(g, lam: Fraction):
    return g[2][bisect_right(g[1], lam)]


def _merge_steps(g1, g2):
    bps = sorted(set(g1[1]) | set(g2[1]))
    values = [_vmax(g1[2][0], g2[2][0])]
    values += [_vmax(step_value(g1, b), step_value(g2, b)) for b in bps]
    out_b, out_v = [], [values[0]]
    for b, v in zip(bps, values[1:]):
        if v != out_v[-1]:
            out_b.append(b)
            out_v.append(v)
    return ("step", tuple(out_b), tuple(out_v))


def _step_family(rng, n, layers):
    rho, gauges = _indicator_layer(rng, n)
    expected = [row[:] for row in rho]
    for _ in range(layers - 1):
        rho2, gauges2 = _indicator_layer(rng, n)
        gauges = [[_merge_steps(gauges[i][j], gauges2[i][j]) for j in range(n)]
                  for i in range(n)]
        expected = [[_vmax(expected[i][j], rho2[i][j]) for j in range(n)]
                    for i in range(n)]
    return gauges, expected


def gauge_value(g, lam: Fraction):
    """w_lambda of one gauge description; None is infinity."""
    if g[0] == "homogeneous":
        return None if g[1] is None else g[1] / lam
    return step_value(g, lam)


def family_rounds(seed: int, spec: dict) -> list[list[dict]]:
    """Each round holds one homogeneous and one step-layer family per
    carrier size in ``spec["sizes"]``, step families taking 1, 2, 3
    indicator layers in turn; ``expected`` is the unit-level (Luxemburg)
    metric the recipe guarantees."""
    rng = random.Random(f"families:{seed}")
    rounds = []
    steps = 0
    for _ in range(spec["rounds"]):
        fams = []
        for n in spec["sizes"]:
            gauges, expected = _homogeneous_family(rng, n)
            fams.append({"n": n, "recipe": "homogeneous", "gauges": gauges,
                         "expected": expected})
            gauges, expected = _step_family(rng, n, 1 + steps % 3)
            steps += 1
            fams.append({"n": n, "recipe": "step", "gauges": gauges,
                         "expected": expected})
        rng.shuffle(fams)
        rounds.append(fams)
    return rounds


# -- search jobs ------------------------------------------------------------


def search_rounds(seed: int, spec: dict, mode: str) -> list[list[dict]]:
    """One job per target per round; only (target, mode, n, seed, budget)
    reach the program."""
    seeds = derived_seeds(seed, f"search-{mode}", spec["rounds"] * len(SEARCH_TARGETS))
    rounds = []
    for r in range(spec["rounds"]):
        jobs = []
        for t, target in enumerate(SEARCH_TARGETS):
            budget = spec["caps"][target] if mode == "exhaustive" else spec["budget"]
            jobs.append({"target": target, "mode": mode, "n": spec["n"],
                         "seed": seeds[r * len(SEARCH_TARGETS) + t],
                         "budget": budget})
        rounds.append(jobs)
    return rounds


def corpus_bytes(workload: str, seed: int, spec: dict) -> bytes:
    """Canonical bytes of a workload's whole input set."""
    make = {"analyze": analyze_corpus, "families": family_rounds,
            "search-exhaustive": lambda s, w: search_rounds(s, w, "exhaustive"),
            "search-random": lambda s, w: search_rounds(s, w, "random")}[workload]
    return json.dumps(make(seed, spec), sort_keys=True, default=str).encode()
