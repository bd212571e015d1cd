"""Batch front end.

Commands: validate, analyze, search.  Exit codes: 0 success,
1 search found property failures, 2 invalid instance or arguments, 3
parse error.  All output is deterministic byte for byte given identical
inputs, flags, and seed; statistics that cannot be deterministic (wall
time) go to stderr only.
"""

from __future__ import annotations

import argparse
import sys
from fractions import Fraction
from functools import cache

from . import bitopology, completion, connectivity
from .errors import ParseError, QconnError, SchemaError
from .gauges import from_asym_norm, from_digraph
from .instances import canonical_json, dump_instance, load_instance, read_literal


def _fail(code: int, exc_type: str, message: str) -> int:
    sys.stderr.write(canonical_json(
        {"error": {"code": code, "type": exc_type, "message": message}}))
    return code


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _rational_list(text: str, name: str) -> list[Fraction]:
    values = [read_literal(part, f"argument {name}")
              for part in text.split(",") if part.strip()]
    if not values:
        raise SchemaError(f"argument {name}: no value in {text!r}")
    return values


# formal balls per poset, points x distinct radii: building the order and
# its Hasse edges costs time quadratic in this count.  At the cap, a fresh
# `qconn analyze --formal-balls` process took 0.97-1.6 s and 74 MB for 256
# points at distance zero with 3 radii, 0.25-0.38 s for 1 point with 768
# radii in exact mode and 0.38-0.61 s in float mode (3 runs each, 2-core
# VM, CPython 3.11.7)
MAX_FORMAL_BALLS = 768


def _formal_balls(metric, text: str) -> completion.FormalBallPoset:
    radii = _rational_list(text, "--formal-balls")
    k = len(set(radii))
    if metric.n * k > MAX_FORMAL_BALLS:
        raise SchemaError(f"argument --formal-balls: {metric.n} points x {k} radii make "
                          f"{metric.n * k} formal balls, over MAX_FORMAL_BALLS "
                          f"= {MAX_FORMAL_BALLS}")
    return completion.formal_ball_poset(metric, radii)


def cmd_validate(args) -> int:
    kind, value = load_instance(args.path)
    report = {"valid": True, "kind": kind, "instance": dump_instance(value)}
    _emit(canonical_json(report), args.out)
    return 0


def _as_spaces(kind, value):
    """Normalize an instance to (metric or None, bitop or None)."""
    if kind == "quasi_metric":
        return value, bitopology.specialization_bitop(value)
    if kind == "digraph":
        d = from_digraph(value)
        return d, bitopology.specialization_bitop(d)
    if kind == "bitopology":
        return None, value
    if kind == "modular_family":
        return None, bitopology.modular_bitop(value)
    if kind == "orlicz":
        from .modular import from_orlicz

        return None, bitopology.modular_bitop(from_orlicz(value))
    if kind == "asym_norm_sample":
        d = from_asym_norm(value, mode="exact" if value.p == 1 else "float")
        return d, bitopology.specialization_bitop(d)
    raise SchemaError(f"kind {kind!r} is not analyzable on its own")


def cmd_analyze(args) -> int:
    kind, value = load_instance(args.path)
    metric, bitop = _as_spaces(kind, value)
    analyses: dict = {}
    # a flag with an empty value is given, so its parser refuses the value
    needs_metric = (("--scale", args.scale is not None), ("--smyth", args.smyth),
                    ("--formal-balls", args.formal_balls is not None),
                    ("--cauchy", args.cauchy is not None))
    wants_default = not (args.components or args.local
                         or any(wanted for _, wanted in needs_metric))
    for flag, wanted in needs_metric:
        if wanted and metric is None:
            raise SchemaError(f"{flag} needs a metric-backed instance")
    if args.components or wants_default:
        report = connectivity.component_report(bitop)
        cert = report.certificate
        analyses["components"] = {
            "antisym_connected": cert is None,
            "symmetric": [list(blk) for blk in report.symmetric],
            "antisymmetric": [list(blk) for blk in report.antisymmetric],
            "certificate": None if cert is None else {
                "A": sorted(cert.A), "B": sorted(cert.B)},
        }
    if args.local:
        statuses = connectivity.is_locally_antisym_connected(bitop)
        analyses["local"] = {
            "all_pass": all(s.connected for s in statuses),
            "points": [{"point": s.point, "pass": s.connected,
                        "witness": list(s.witness)} for s in statuses],
        }
    if args.scale is not None:
        eps = read_literal(args.scale, "argument --scale")
        anti, sym = connectivity.scale_connectivity(metric, eps)
        analyses["scale"] = {"eps": str(eps), "antisymmetric": anti,
                             "symmetric": sym}
    if args.smyth:
        thresholds = (_rational_list(args.thresholds, "--thresholds")
                      if args.thresholds is not None else None)
        analyses["smyth"] = completion.join_compactness_check(
            metric, thresholds=thresholds)
    if args.formal_balls is not None:
        poset = _formal_balls(metric, args.formal_balls)
        analyses["formal_balls"] = {
            "elements": [poset.describe(a) for a in range(len(poset.le_rows))],
            "hasse_edges": poset.hasse_edges(),
        }
        if args.dot:
            from .dot import hasse_dot

            _emit(hasse_dot(poset), args.dot)
    if args.cauchy is not None:
        seq_kind, seq = load_instance(args.cauchy)
        if seq_kind != "sequence":
            raise SchemaError("--cauchy expects a sequence instance")
        for idx in seq.preperiod + seq.period:
            if idx >= metric.n:
                raise SchemaError(f"sequence index {idx} outside the carrier")
        cauchy = completion.is_left_k_cauchy(metric, seq)
        analyses["cauchy"] = {
            "left_k_cauchy": cauchy,
            "forward_limits": (sorted(completion.forward_limits(metric, seq))
                               if cauchy else None),
        }
    if args.dot and args.formal_balls is None:
        from .dot import components_dot

        _emit(components_dot(bitop), args.dot)
    report = {
        "kind": kind,
        "numeric_tolerance": None if metric is None or metric.tol is None
        else str(metric.tol),
        "analyses": analyses,
    }
    _emit(canonical_json(report), args.out)
    return 0


def cmd_search(args) -> int:
    from .search import DEFAULT_SEED, N_RANGE, search_counterexamples

    budget = args.budget
    if budget is None and args.mode == "random":
        budget = 200  # a random stream has no end
    if budget is not None and budget < 0:
        raise SchemaError(f"argument --budget: must be >= 0, got {budget}")
    low, high = N_RANGE[args.mode]
    if not low <= args.n <= high:
        raise SchemaError(f"argument --n: {args.mode} mode takes {low} to {high} "
                          f"points, got {args.n}")
    result = search_counterexamples(
        target=args.target, n=args.n, mode=args.mode,
        seed=DEFAULT_SEED if args.seed is None else args.seed, budget=budget)
    _emit(canonical_json(result.findings_document()), args.out)
    sys.stderr.write(
        f"search {args.target}: {result.instances_tested} instances, "
        f"{len(result.findings)} failures, {result.wall_time:.3f}s wall\n")
    return 1 if result.findings else 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The process's one parser, built on the first call; parse_args keeps
    no state in it, so every call of main can share it."""
    parser = argparse.ArgumentParser(
        prog="qconn",
        description="Asymmetric distances, bitopologies, and directional "
                    "connectivity on finite instances.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_val = sub.add_parser("validate", help="validate an instance file")
    p_val.add_argument("path")
    p_val.add_argument("--out", default=None)
    p_val.set_defaults(func=cmd_validate)

    p_an = sub.add_parser("analyze", help="run analyses on an instance file")
    p_an.add_argument("path")
    p_an.add_argument("--components", action="store_true")
    p_an.add_argument("--local", action="store_true")
    p_an.add_argument("--scale", default=None, metavar="EPS")
    p_an.add_argument("--smyth", action="store_true")
    p_an.add_argument("--thresholds", default=None, metavar="E1,E2,...")
    p_an.add_argument("--formal-balls", default=None, metavar="R1,R2,...")
    p_an.add_argument("--cauchy", default=None, metavar="SEQ_PATH")
    p_an.add_argument("--dot", default=None, metavar="DOT_PATH")
    p_an.add_argument("--out", default=None)
    p_an.set_defaults(func=cmd_analyze)

    p_se = sub.add_parser("search", help="search for property failures")
    p_se.add_argument("--target", required=True,
                      help="a property id from qconn.search.TARGETS; an unknown "
                           "id exits 2 and lists them all")
    p_se.add_argument("--n", type=int, default=4)
    p_se.add_argument("--mode", choices=("exhaustive", "random"),
                      default="random")
    p_se.add_argument("--seed", type=int, default=None,
                      help="default: qconn.search.DEFAULT_SEED")
    p_se.add_argument("--budget", type=int, default=None,
                      help="cases to test; default: all (exhaustive), 200 (random)")
    p_se.add_argument("--out", default=None)
    p_se.set_defaults(func=cmd_search)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return args.func(args)
    except ParseError as exc:
        return _fail(3, "ParseError", str(exc))
    except QconnError as exc:
        return _fail(2, type(exc).__name__, str(exc))
    except Exception as exc:  # contract: no input may crash the tool
        return _fail(2, "InternalError", f"{type(exc).__name__}: {exc}")


def console() -> None:
    raise SystemExit(main())


if __name__ == "__main__":
    console()
