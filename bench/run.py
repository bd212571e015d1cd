"""qconn benchmark: one workload, one seed, one run.

    python3 bench/run.py --workload analyze --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; qconn is imported from its
``src/``.  With ``--trace 0`` it runs whole rounds of jobs, back to back
in one process, for about ``--seconds``, and reports the end-to-end
metrics, each time normalised to the reference speed of ``calib.py``
(the calibration loop runs after every job).  With ``--trace 1`` it runs the workload's fixed
trace rounds, each job once plain and once with a span around every call
into qconn, and reports the per-layer metrics.  Either way it checks
every output outside the timed region.  The last line of stdout is one
JSON object: {"correct", "attempted", "failed", "metrics"}.  Spans go to
``bench/out/``.  The workloads, caps and metric definitions are in
``bench/spec.json``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calib

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    raise SystemExit(2)


def environment() -> dict:
    """Informational only; nothing here is gated."""
    commit = "unknown"
    head = ROOT / ".git" / "HEAD"
    if head.is_file():
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            target = ROOT / ".git" / ref[5:]
            commit = target.read_text().strip() if target.is_file() else ref[5:]
        else:
            commit = ref
    src_lines = sum(len(p.read_text(encoding="utf-8").splitlines())
                    for p in sorted((SRC / "qconn").glob("*.py")))
    return {"python": platform.python_version(), "nproc": os.cpu_count(),
            "commit": commit, "src_lines": src_lines}


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items() if k != "QCONN_THREADS"}
    env["PYTHONPATH"] = str(SRC)
    return env


def setup_seconds(setup_code: str, samples: int) -> float:
    """Median, over fresh interpreters run one after another, of
    ``import qconn`` plus the workload's lazy set-up, each normalised by
    the calibration loop run just before and just after it."""
    code = (f"import sys, time\nsys.path.insert(0, {str(HERE)!r})\nimport calib\n"
            "c0 = calib.seconds()\nt0 = time.perf_counter()\nimport qconn\n" + setup_code
            + "dt = time.perf_counter() - t0\nc1 = calib.seconds()\n"
            "print(repr(dt * 2 * calib.REF_S / (c0 + c1)))\n")
    times = []
    for _ in range(samples):
        proc = subprocess.run([sys.executable, "-c", code], env=child_env(), cwd=ROOT,
                              capture_output=True, text=True, timeout=120)
        if proc.returncode != 0:
            fail(f"set-up process failed: {proc.stderr.strip()[-500:]}")
        times.append(float(proc.stdout.strip().splitlines()[-1]))
    return statistics.median(times)


def run_job(wl, job):
    """(result, error, seconds) of one job."""
    t0 = time.perf_counter()
    try:
        result = wl.run(job)
    except Exception as exc:  # a raising job is counted as failed
        return None, f"{type(exc).__name__}: {exc}", time.perf_counter() - t0
    return result, None, time.perf_counter() - t0


class Outcome:
    """Jobs run, their kept results, and the problems found, keyed by job."""

    def __init__(self):
        self.jobs: list[dict] = []
        self.records: list[tuple[dict, dict]] = []
        self.problems: list[tuple[str, str]] = []
        self.times: list[float] = []
        self.cases = 0
        self.notes: list[str] = []

    def run(self, wl, job) -> dict | None:
        result, err, dt = run_job(wl, job)
        self.jobs.append(job)
        self.times.append(dt)
        if err is not None:
            self.problems.append((job["key"], f"raised {err}"))
            return None
        self.cases += wl.cases(result)
        kept = wl.keep(job, result)
        self.records.append((job, kept))
        return kept

    def failed(self) -> int:
        bad = {key for key, _ in self.problems}
        return sum(job["key"] in bad for job in self.jobs)


def measure(wl, rounds, args, setup_samples: int) -> tuple[dict, Outcome]:
    """Closed loop, one client: the whole number of rounds that best fills
    ``--seconds`` (a run stops once half another round would overrun).
    The calibration loop runs before the first job and after every job;
    each job's time is scaled by the mean of the two passes around it."""
    setup = setup_seconds(wl.setup_code, setup_samples)
    out = Outcome()
    cal = [calib.seconds()]
    start = time.perf_counter()
    r = 0
    elapsed = 0.0
    while r == 0 or elapsed + elapsed / r / 2 < args.seconds:
        for job in rounds[r % len(rounds)]:
            out.run(wl, job)
            cal.append(calib.seconds())
        r += 1
        elapsed = time.perf_counter() - start
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    times = [t * 2 * calib.REF_S / (a + b) for t, a, b in zip(out.times, cal, cal[1:])]
    busy = sum(times)
    metrics = {
        "setup_s": (setup, "s"),
        "cases_per_s": (out.cases / busy, "cases/s"),
        "jobs_per_s": (len(times) / busy, "jobs/s"),
        "job_p50_ms": (statistics.median(times) * 1e3, "ms"),
        "job_p90_ms": (statistics.quantiles(times, n=10)[8] * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    raw = sum(out.times)
    out.notes.append(
        f"wall clock, not normalised: {out.cases / raw:.6g} cases/s, "
        f"{len(out.times) / raw:.6g} jobs/s, p50 {statistics.median(out.times) * 1e3:.6g} ms; "
        f"calibration loop median {statistics.median(cal) * 1e3:.4g} ms "
        f"(reference {calib.REF_S * 1e3:g} ms)")
    out.problems += wl.check(out.records)
    return metrics, out


def traced(wl, rounds, args, trace_rounds: int, per_layer) -> tuple[dict, Outcome]:
    """The fixed trace rounds; each job runs plain and traced back to
    back, alternating which goes first, so both see the same machine."""
    from spans import Tracer

    jobs = [job for rnd in rounds[:trace_rounds] for job in rnd]
    out = Outcome()
    tracer = Tracer()
    plain, replicas = [], []

    def replica(jid, job):
        try:
            return wl.traced(job, tracer, jid)
        except Exception as exc:
            out.problems.append((job["key"], f"traced job raised {type(exc).__name__}: {exc}"))
            return None

    for jid, job in enumerate(jobs):
        if jid % 2:
            replicas.append(replica(jid, job))
            plain.append(out.run(wl, job))
        else:
            plain.append(out.run(wl, job))
            replicas.append(replica(jid, job))
    for job, kept, rep in zip(jobs, plain, replicas):
        if kept is not None and rep is not None and wl.trace_mismatch(kept, rep):
            out.problems.append((job["key"], "traced replica disagrees with the plain job"))
    out.problems += wl.check(out.records)

    summary = tracer.by_name()
    plain_s = sum(out.times)
    job_row = summary.get("job", {"total_s": 0.0, "self_s": 0.0})
    inside_jobs = job_row["total_s"] - job_row["self_s"]

    def secs(name):
        return summary.get(name, {}).get("self_s", 0.0)

    values = {}
    for m in per_layer:
        name = m["name"]
        if name == "search.loop_s":
            v = plain_s - secs("search.stream_gen") - sum(
                secs(k) for k in summary if k.startswith("search.check."))
            v = v if args.workload.startswith("search") else 0.0
        elif name == "cli.unattributed_s":
            v = plain_s - inside_jobs if args.workload == "analyze" else 0.0
        elif name == "trace.overhead_frac":
            v = (job_row["total_s"] - plain_s) / plain_s
        elif name.startswith("search.check_s."):
            v = secs("search.check." + name.split(".", 2)[2])
        elif m["unit"] == "count":
            v = tracer.counts.get(name, 0)
        else:
            v = secs(name[:-2])
        values[name] = (v, m["unit"])
    OUT.mkdir(exist_ok=True)
    tracer.write(OUT / f"trace-{args.workload}-seed{args.seed}.json",
                 {"workload": args.workload, "seed": args.seed,
                  "environment": environment(), "plain_job_s": out.times})
    return values, out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # the search's thread pool only slows it down; every run is sequential
    os.environ.pop("QCONN_THREADS", None)
    if not (SRC / "qconn" / "__init__.py").is_file():
        fail(f"no qconn sources under {SRC}")
    if not (ROOT / "BENCHMARK.json").is_file():
        fail("BENCHMARK.json is missing")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    spec = json.loads((HERE / "spec.json").read_text())
    if args.workload not in spec["workloads"]:
        fail(f"unknown workload {args.workload!r}; known: {', '.join(spec['workloads'])}")

    sys.path.insert(0, str(SRC))
    import qconn
    if Path(qconn.__file__).resolve().parent != (SRC / "qconn").resolve():
        fail(f"qconn imported from {qconn.__file__}, not from {SRC}")
    import workloads

    wl = workloads.make(args.workload, spec)
    exec(wl.setup_code, {})  # the same lazy set-up that setup_s times in fresh processes
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        rounds = wl.rounds(args.seed, str(workdir))
        if args.trace:
            metrics, out = traced(wl, rounds, args,
                                  spec["workloads"][args.workload]["trace_rounds"],
                                  bench["per_layer"])
        else:
            metrics, out = measure(wl, rounds, args, spec["setup_samples"])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    declared = [m["name"] for m in bench["per_layer" if args.trace else "end_to_end"]]
    if list(metrics) != declared:
        fail(f"metrics {list(metrics)} do not match BENCHMARK.json {declared}")

    env = environment()
    print(f"# environment (informational): {json.dumps(env, sort_keys=True)}")
    attempted, failed = len(out.jobs), out.failed()
    print(f"# workload {args.workload}, seed {args.seed}, trace {args.trace}: "
          f"{attempted} jobs")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(f"failed_frac {failed / attempted:.6g} ratio ({failed}/{attempted} jobs)")
    for note in out.notes:
        print(f"# {note}")
    for key, problem in out.problems[:20]:
        print(f"# FAILED {key}: {problem}")
    print(json.dumps({"correct": not out.problems, "attempted": attempted,
                      "failed": failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
