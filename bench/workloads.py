"""The four workloads: their jobs, their output checks and their traced
replicas.

Every workload is a list of rounds; a round is a fixed mix of jobs, so
any whole number of rounds has the same composition.  ``run`` is the job
as a user makes it (one call into qconn's public API or CLI).  ``keep``
reduces its result to what the checks need, outside the job's timing, so
no result outlives its job and inflates peak memory; for the same reason
the checks import ``oracles`` (and networkx) only when they run.
``traced`` makes the same public calls as ``run``, with a span around
each.
"""

from __future__ import annotations

import hashlib
import itertools
import os
import random
import time
from fractions import Fraction

import qconn
from qconn import bitopology, completion, connectivity, gauges, modular, search
from qconn.cli import main as cli_main
from qconn.instances import canonical_json, load_instance

import inputs

perf = time.perf_counter


def sha(data: bytes | str) -> str:
    return hashlib.sha256(data.encode() if isinstance(data, str) else data).hexdigest()


# -- search -----------------------------------------------------------------


def map_preserves(assignment, src, tgt) -> bool:
    """Copy of the stream's filter: the map keeps both specializations."""
    for x in range(len(src.fwd.rows)):
        fx = assignment[x]
        for rows, trows in ((src.fwd.rows, tgt.fwd.rows), (src.bwd.rows, tgt.bwd.rows)):
            for y in range(len(rows)):
                if rows[x] >> y & 1 and not trows[fx] >> assignment[y] & 1:
                    return False
    return True


class _Clock:
    """Time spent in the public generators since the last case."""

    def __init__(self):
        self.spent = 0.0

    def call(self, fn, *args):
        t0 = perf()
        out = fn(*args)
        self.spent += perf() - t0
        return out

    def take(self) -> float:
        spent, self.spent = self.spent, 0.0
        return spent


def _bitop_cases(mode, n, seed, equal, clock):
    case = search.BitopCase
    if not equal:
        yield from search.REGRESSION_CASES
    if mode == "exhaustive":
        for size in range(1, n + 1):
            table = clock.call(search.all_preorders, size)
            pairs = ((p, p) for p in table) if equal else itertools.product(table, table)
            for p, q in pairs:
                yield case(fwd=p, bwd=q, source="enumerated")
    else:
        rng = random.Random(seed)
        while True:
            size = rng.randint(2, max(2, n))
            p = clock.call(search.random_preorder, rng, size)
            q = p if equal else clock.call(search.random_preorder, rng, size)
            yield case(fwd=p, bwd=q, source="random")


def _map_cases(mode, n, seed, clock):
    rng = random.Random(seed ^ 0x5EED)
    for case in _bitop_cases(mode, n, seed, False, clock):
        size = len(case.fwd.rows)
        yield search.MapCase(src=case, assignment=tuple(range(size)), tgt=case,
                             source=case.source)
        point = clock.call(search.preorder_data, (1,))
        yield search.MapCase(src=case, assignment=(0,) * size,
                             tgt=search.BitopCase(fwd=point, bwd=point, source=case.source),
                             source=case.source)
        t = rng.randint(1, max(2, size))
        tgt = search.BitopCase(fwd=clock.call(search.random_preorder, rng, t),
                               bwd=clock.call(search.random_preorder, rng, t),
                               source=case.source)
        for _ in range(6):
            assignment = tuple(rng.randrange(t) for _ in range(size))
            if clock.call(map_preserves, assignment, case, tgt):
                yield search.MapCase(src=case, assignment=assignment, tgt=tgt,
                                     source=case.source)
                break


def replica_cases(job, clock):
    """The search's case stream rebuilt from qconn's public generators:
    yields (index, case) and charges generator time to ``clock``."""
    kind = search.TARGETS[job["target"]].case_kind
    if kind == "map":
        stream = _map_cases(job["mode"], job["n"], job["seed"], clock)
    else:
        stream = _bitop_cases(job["mode"], job["n"], job["seed"],
                              kind == "bitop_equal", clock)
    return enumerate(itertools.islice(stream, job["budget"]))


ARGS = ("target", "mode", "n", "seed", "budget")


class Search:
    def __init__(self, mode: str, spec: dict):
        self.mode, self.spec = mode, spec
        self.setup_code = ("from qconn.search import all_preorders\n"
                           f"for k in range(1, {spec['n']} + 1): all_preorders(k)\n"
                           if mode == "exhaustive" else "")

    def rounds(self, seed: int, workdir: str):
        rounds = inputs.search_rounds(seed, self.spec, self.mode)
        for rnd in rounds:
            for job in rnd:
                job["key"] = f"{job['target']}:{job['seed']}"
        return rounds

    def run(self, job):
        return qconn.search_counterexamples(**{k: job[k] for k in ARGS})

    def cases(self, result) -> int:
        return result.instances_tested

    def keep(self, job, result) -> dict:
        doc = result.findings_document()
        kept = {"tested": result.instances_tested, "findings": len(result.findings),
                "digest": sha(canonical_json(doc))}
        if job["target"] == "cor61_join_local" and self.mode == "random":
            kept["instances"] = [f["instance"] for f in result.findings]
        return kept

    def expected_findings(self, job) -> int:
        if job["target"] != "cor61_join_local":
            return 0
        if self.mode == "exhaustive":
            return self.spec["cor61_findings"]
        from oracles import inseparable_but_join_split
        return sum(inseparable_but_join_split(c.fwd.rows, c.bwd.rows)
                   for _, c in replica_cases(job, _Clock()))

    def check(self, records) -> list[tuple[str, str]]:
        from oracles import inseparable_but_join_split
        problems = []
        first: dict[str, tuple] = {}
        for job, kept in records:
            key = job["key"]
            if kept["tested"] != job["budget"]:
                problems.append((key, f"{kept['tested']} instances tested, want {job['budget']}"))
            want = self.expected_findings(job)
            if kept["findings"] != want:
                problems.append((key, f"{kept['findings']} findings, want {want}"))
            for inst in kept.get("instances", ()):
                rows = [[sum(1 << y for y in s) for s in inst[k]]
                        for k in ("forward_min_nbhd", "backward_min_nbhd")]
                if not inseparable_but_join_split(*rows):
                    problems.append((key, "finding is not inseparable and join-split"))
                    break
            first.setdefault(job["target"], (job, kept))
        for job, kept in first.values():
            if self.keep(job, self.run(job))["digest"] != kept["digest"]:
                problems.append((job["key"], "findings differ between repeated runs"))
        return problems

    def traced(self, job, tracer, jid):
        check = search.TARGETS[job["target"]].check
        clock = _Clock()
        tested = findings = 0
        with tracer.span("job", jid):
            for idx, case in replica_cases(job, clock):
                rng = random.Random(job["seed"] * 1_000_003 + idx)
                t0 = perf()
                detail = check(case, rng)
                tracer.add(f"search.check.{job['target']}", perf() - t0)
                tested += 1
                findings += detail is not None
            tracer.add("search.stream_gen", clock.take())
        tracer.count("search.cases", tested)
        tracer.count("search.findings", findings)
        return {"tested": tested, "findings": findings}

    def trace_mismatch(self, untraced: dict, traced: dict) -> bool:
        return (untraced["tested"], untraced["findings"]) != (traced["tested"], traced["findings"])


# -- analyze ----------------------------------------------------------------


class Analyze:
    setup_code = "import qconn.cli\n"

    def __init__(self, spec: dict):
        self.spec = spec
        self.kept_names: set[str] = set()
        self.closures: dict[str, list] = {}  # from traced replicas, reused by check

    def rounds(self, seed: int, workdir: str):
        rounds = inputs.analyze_corpus(seed, self.spec)
        for rnd in rounds:
            for f in rnd:
                f["key"] = f["name"]
                f["path"] = os.path.join(workdir, f["name"] + ".json")
                f["out"] = os.path.join(workdir, f["name"] + ".out.json")
                with open(f["path"], "w", encoding="utf-8") as fh:
                    fh.write(canonical_json(f["doc"]))
        return rounds

    def run(self, job):
        return cli_main(["analyze", job["path"], *job["flags"], "--out", job["out"]])

    def cases(self, result) -> int:
        return 1

    def keep(self, job, result) -> dict:
        with open(job["out"], "rb") as fh:
            data = fh.read()
        os.remove(job["out"])
        # the checks parse each file's first output; repeats only compare digests
        first = job["name"] not in self.kept_names
        self.kept_names.add(job["name"])
        return {"code": result, "digest": sha(data), "data": data if first else None}

    def closure_matrix(self, job):
        """qconn's closure of a digraph file, made outside any timing."""
        return [[str(v) for v in row]
                for row in gauges.from_digraph(load_instance(job["path"])[1]).dist]

    def check(self, records) -> list[tuple[str, str]]:
        import json

        from oracles import check_analyze, check_closure, file_metric
        problems = []
        seen: dict[str, str] = {}
        for job, kept in records:
            key = job["key"]
            if kept["code"] != 0:
                problems.append((key, f"exit code {kept['code']}"))
                continue
            if key in seen:
                if seen[key] != kept["digest"]:
                    problems.append((key, "output differs between repeated runs"))
                continue
            seen[key] = kept["digest"]
            metric = file_metric(job["truth"])
            brute = _brute_force if job["truth"]["n"] <= 16 else None
            found = check_analyze(job, json.loads(kept["data"]), metric, brute)
            if job["truth"]["kind"] == "digraph":
                matrix = self.closures.get(key) or self.closure_matrix(job)
                found += check_closure(job["truth"], matrix)
            problems += [(key, p) for p in found]
        return problems

    def traced(self, job, tracer, jid):
        """The calls cmd_analyze makes for these flags, in its order."""
        span = tracer.span
        flags = job["flags"]
        metric = None
        with span("job", jid):
            with span("instances.load", jid):
                kind, value = load_instance(job["path"])
            if kind == "bitopology":
                bitop = value
            else:
                if kind == "quasi_metric":
                    metric = value
                elif kind == "digraph":
                    with span("gauges.from_digraph", jid):
                        metric = gauges.from_digraph(value)
                else:
                    with span("gauges.from_asym_norm", jid):
                        metric = (gauges.from_asym_norm(value) if value.p == 1 else
                                  gauges.from_asym_norm(value, mode="float", tol=1e-9))
                with span("bitopology.specialization_bitop", jid):
                    bitop = bitopology.specialization_bitop(metric)
                tracer.count("gauges.triples", metric.n ** 3)
            analyses = {}
            with span("connectivity.component_report", jid):
                report = connectivity.component_report(bitop)
            with span("connectivity.antisym_certificate", jid):
                cert = connectivity.antisym_certificate(bitop)
            tracer.count("connectivity.blocks", len(report.antisymmetric))
            analyses["components"] = {
                "antisym_connected": cert is None,
                "symmetric": [list(blk) for blk in report.symmetric],
                "antisymmetric": [list(blk) for blk in report.antisymmetric],
                "certificate": None if cert is None else {
                    "A": sorted(cert.A), "B": sorted(cert.B)},
            }
            with span("connectivity.locally_antisym", jid):
                statuses = connectivity.is_locally_antisym_connected(bitop)
            analyses["local"] = {
                "all_pass": all(s.connected for s in statuses),
                "points": [{"point": s.point, "pass": s.connected,
                            "witness": list(s.witness)} for s in statuses],
            }
            if metric is not None:
                eps = Fraction(flags[flags.index("--scale") + 1])
                with span("connectivity.scale_connectivity", jid):
                    anti, sym = connectivity.scale_connectivity(metric, eps)
                analyses["scale"] = {"eps": str(eps), "antisymmetric": anti,
                                     "symmetric": sym}
                with span("completion.join_compactness_check", jid):
                    analyses["smyth"] = completion.join_compactness_check(metric)
                radii = [Fraction(r) for r in
                         flags[flags.index("--formal-balls") + 1].split(",")]
                with span("completion.formal_ball_poset", jid):
                    poset = completion.formal_ball_poset(metric, radii)
                with span("completion.hasse_edges", jid):
                    analyses["formal_balls"] = {
                        "elements": [poset.describe(a) for a in range(len(poset.elements))],
                        "hasse_edges": poset.hasse_edges(),
                    }
                tracer.count("completion.poset_elements", len(poset.elements))
            doc = {"kind": kind,
                   "numeric_tolerance": None if metric is None or metric.tol is None
                   else str(metric.tol),
                   "analyses": analyses}
            with span("instances.dump", jid):
                data = canonical_json(doc).encode()
                with open(job["out"], "wb") as fh:
                    fh.write(data)
        os.remove(job["out"])
        tracer.count("instances.bytes", os.path.getsize(job["path"]) + len(data))
        if kind == "digraph":
            # validation alone, as a separate call on the closed matrix
            with span("gauges.qpm_violations", jid):
                gauges.qpm_violations(metric.dist)
            self.closures[job["key"]] = [[str(v) for v in row] for row in metric.dist]
        return {"digest": sha(data)}

    def trace_mismatch(self, untraced: dict, traced: dict) -> bool:
        return untraced["digest"] != traced["digest"]


def _brute_force(fwd, bwd) -> bool:
    points = tuple(str(i) for i in range(len(fwd)))
    space = bitopology.BitopSpace(
        forward=bitopology.AlexandrovTopology(points=points, nbhd=tuple(fwd)),
        backward=bitopology.AlexandrovTopology(points=points, nbhd=tuple(bwd)))
    return connectivity.brute_force_antisym(space)


# -- families ---------------------------------------------------------------


def build_family(fam: dict) -> modular.QuasiModularFamily:
    def gauge(g):
        if g[0] == "homogeneous":
            return modular.ScaleGauge.homogeneous(inputs.text(g[1]))
        return modular.ScaleGauge.step(g[1], [inputs.text(v) for v in g[2]])

    return modular.QuasiModularFamily(
        points=tuple(f"m{i}" for i in range(fam["n"])),
        gauges=tuple(tuple(gauge(g) for g in row) for row in fam["gauges"]))


class Families:
    setup_code = ""

    def __init__(self, spec: dict):
        self.spec = spec
        self.grid = [Fraction(g) for g in spec["grid"]]
        self.pairs = [(Fraction(r), Fraction(lam)) for r, lam in spec["entourage_pairs"]]

    def rounds(self, seed: int, workdir: str):
        rounds = inputs.family_rounds(seed, self.spec)
        for r, rnd in enumerate(rounds):
            for i, fam in enumerate(rnd):
                fam["key"] = f"r{r}_{i}_n{fam['n']}_{fam['recipe']}"
                fam["family"] = build_family(fam)
        return rounds

    def run(self, job):
        f = job["family"]
        report = modular.validate_family(f, self.grid)
        lux = modular.luxemburg_gauge(f)
        gauges.validate_qpm([[lux.d(i, j) for j in range(f.n)] for i in range(f.n)])
        sym = modular.symmetrize_family(f)
        return (report, lux, bitopology.modular_bitop(sym), bitopology.modular_bitop(f),
                [modular.entourages(f, r, lam) for r, lam in self.pairs])

    def cases(self, result) -> int:
        return 1

    def keep(self, job, result) -> dict:
        report, lux, b_sym, b, ents = result
        n = job["n"]
        return {"valid": report.ok,
                "luxemburg": [[str(lux.d(i, j)) for j in range(n)] for i in range(n)],
                "sym_forward": list(b_sym.forward.nbhd),
                "join": list(bitopology.join(b).nbhd),
                "entourages": [sorted(fwd) for fwd, _ in ents]}

    def check(self, records) -> list[tuple[str, str]]:
        from oracles import check_family
        problems = []
        seen: dict[str, dict] = {}
        for job, kept in records:
            if job["key"] in seen:
                if seen[job["key"]] != kept:
                    problems.append((job["key"], "results differ between repeated runs"))
                continue
            seen[job["key"]] = kept
            f = job["family"]
            balls = [[sorted(modular.modular_balls(f, x, lam, r)[0])
                      for x in range(f.n)] for r, lam in self.pairs]
            problems += [(job["key"], p)
                         for p in check_family(job, dict(kept, balls=balls), self.pairs)]
        return problems

    def traced(self, job, tracer, jid):
        f = job["family"]
        span = tracer.span
        with span("job", jid):
            with span("modular.validate_family", jid):
                report = modular.validate_family(f, self.grid)
            with span("modular.luxemburg_gauge", jid):
                lux = modular.luxemburg_gauge(f)
            with span("gauges.validate_qpm", jid):
                gauges.validate_qpm([[lux.d(i, j) for j in range(f.n)] for i in range(f.n)])
            with span("modular.symmetrize_family", jid):
                sym = modular.symmetrize_family(f)
            with span("bitopology.modular_bitop", jid):
                b_sym = bitopology.modular_bitop(sym)
                b = bitopology.modular_bitop(f)
            with span("modular.entourages", jid):
                ents = [modular.entourages(f, r, lam) for r, lam in self.pairs]
        tracer.count("gauges.triples", 2 * f.n ** 3)
        return self.keep(job, (report, lux, b_sym, b, ents))

    def trace_mismatch(self, untraced: dict, traced: dict) -> bool:
        return untraced != traced


def make(name: str, spec: dict):
    wspec = spec["workloads"][name]
    if name == "analyze":
        return Analyze(wspec)
    if name == "families":
        return Families(wspec)
    return Search(name.split("-", 1)[1], wspec)
