"""The trajectory reader and the BENCH files it reads."""

import json
import pathlib
import subprocess
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
READER = ROOT / "tools" / "bench_trajectory.py"


def _run(*args):
    return subprocess.run([sys.executable, str(READER), *args],
                          capture_output=True, text=True)


def test_one_row_per_bench_file():
    files = sorted(ROOT.glob("BENCH_*.json"), key=lambda p: int(p.stem.split("_")[1]))
    assert files
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = {m["name"] for m in spec["end_to_end"]}
    workloads = {w["name"] for w in spec["workloads"]}
    done = _run()
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()
    assert len(lines) == 1 + len(files)
    assert all(m in lines[0] for m in ("jobs_per_s", "peak_rss_mb", "setup_s"))
    previous = None
    for path, line in zip(files, lines[1:]):
        doc = json.loads(path.read_text())
        chained = previous is None or previous["src_lines"]["change"] == doc["src_lines"]["parent"]
        assert ("seam" in line.split()) != chained
        previous = doc
        assert doc["pr"] == int(path.stem.split("_")[1])
        assert line.split()[:2] == [str(doc["pr"]), doc["parent_commit"][:7]]
        assert set(doc["workloads"]) <= workloads
        for name, wl in doc["workloads"].items():
            assert set(wl["metrics"]) == metrics
            jobs, rss, setup = (_medians(wl["metrics"][m])
                                for m in ("jobs_per_s", "peak_rss_mb", "setup_s"))
            assert f"{name} {jobs} rss {rss} setup {setup}" in line
        claim = doc.get("claim")
        if claim:
            assert claim["workload"] in workloads and claim["metric"] in metrics
            sides = doc["workloads"][claim["workload"]]["metrics"][claim["metric"]]
            assert f" claim {claim['metric']} on {claim['workload']} {_medians(sides)} " in line
        else:
            assert " claim - " in line
        assert f" {_tier1(doc)}  " in line


def _tier1(doc):
    if "tier1" not in doc:
        return "tier1 -"
    (p, c) = (doc["tier1"][side] for side in ("parent", "change"))
    return f"tier1 {p['seconds']:.1f}s/{p['passed']}->{c['seconds']:.1f}s/{c['passed']}"


def test_tier1_field_is_printed_when_present(tmp_path):
    doc = json.loads(max(ROOT.glob("BENCH_*.json")).read_text())
    doc.pop("tier1", None)
    (tmp_path / "BENCH_3.json").write_text(json.dumps(doc))
    doc["pr"] = 4
    doc["tier1"] = {"parent": {"seconds": 46.04, "passed": 365},
                    "change": {"seconds": 35.5, "passed": 367}}
    (tmp_path / "BENCH_4.json").write_text(json.dumps(doc))
    done = _run(str(tmp_path))
    assert done.returncode == 0, done.stderr
    without, with_tier1 = done.stdout.splitlines()[1:]
    assert " tier1 -  " in without
    assert " tier1 46.0s/365->35.5s/367  " in with_tier1
    del doc["tier1"]["change"]["passed"]
    (tmp_path / "BENCH_4.json").write_text(json.dumps(doc))
    done = _run(str(tmp_path))
    assert done.returncode != 0 and "tier1 change" in done.stderr


def test_file_without_claim_prints_a_dash(tmp_path):
    doc = json.loads(max(ROOT.glob("BENCH_*.json")).read_text())
    del doc["claim"]
    (tmp_path / "BENCH_3.json").write_text(json.dumps(doc))
    done = _run(str(tmp_path))
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines()[1].split()[4:6] == ["claim", "-"]


def _medians(sides):
    return f"{sides['parent']['median']:.4g}->{sides['change']['median']:.4g}"


def test_seam_marks_a_break_in_the_line_count_chain(tmp_path):
    doc = json.loads(max(ROOT.glob("BENCH_*.json")).read_text())
    for pr, (parent, change) in enumerate([(100, 110), (110, 120), (125, 130)], 3):
        doc["pr"], doc["src_lines"] = pr, {"parent": parent, "change": change}
        (tmp_path / f"BENCH_{pr}.json").write_text(json.dumps(doc))
    done = _run(str(tmp_path))
    assert done.returncode == 0, done.stderr
    first, chained, broken = (line.split() for line in done.stdout.splitlines()[1:])
    assert "seam" not in first
    assert chained[2:5] == ["src", "110->120", "claim"]
    assert broken[2:5] == ["src", "125->130", "seam"]


def test_malformed_bench_file_is_refused(tmp_path):
    (tmp_path / "BENCH_1.json").write_text(json.dumps({"pr": 1, "workloads": {}}))
    done = _run(str(tmp_path))
    assert done.returncode != 0 and "parent_commit" in done.stderr
