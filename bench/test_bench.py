"""Tests of the benchmark itself, on its smoke rung.

Run with `python3 -m pytest bench`; every run here takes a few seconds.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import check

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def bench(*args, cwd=ROOT, script=HERE / "run.py"):
    return subprocess.run([sys.executable, str(script), *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


def smoke(workload, seed, out, trace=0):
    proc = bench("--workload", workload, "--seed", str(seed), "--seconds", "1",
                 "--trace", str(trace), "--smoke", "--out", str(out))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return result


def record(out, workload, seed, trace=0):
    return json.loads((out / f"{workload}-smoke-s{seed}-t{trace}.json").read_text())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_smoke_rung_reports_every_end_to_end_metric(tmp_path, workload):
    result = smoke(workload, 3, tmp_path)
    wanted = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert record(tmp_path, workload, 3)["stamp"]["seed"] == 3


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_reports_every_per_layer_metric(tmp_path, workload):
    metrics = smoke(workload, 4, tmp_path, trace=1)["metrics"]
    assert list(metrics) == [m["name"] for m in SPEC["per_layer"]]
    assert metrics["engine.solve_s"]["value"] > 0


def test_traced_counts_repeat_and_spans_are_written(tmp_path):
    first = smoke("structured", 5, tmp_path / "a", trace=1)["metrics"]
    second = smoke("structured", 5, tmp_path / "b", trace=1)["metrics"]
    counts = [m["name"] for m in SPEC["per_layer"] if m["unit"] != "s"]
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}
    assert first["engine.rounds"]["value"] > 0 and first["flows.vertex_disjoint_paths_calls"]["value"] > 0
    spans = (tmp_path / "a" / "structured-smoke-s5-t1.spans.tsv").read_text().splitlines()
    assert spans[0].split("\t") == ["id", "name", "start", "end", "parent", "instance"]
    assert len(spans) - 1 == record(tmp_path / "a", "structured", 5, trace=1)["all_metrics"]["trace.spans"]


def test_digests_repeat_across_processes_and_compare_runs(tmp_path):
    for side in ("parent", "change"):
        for seed in (1, 2):
            smoke("planted-sparse", seed, tmp_path / side)
    a = record(tmp_path / "parent", "planted-sparse", 1)
    b = record(tmp_path / "change", "planted-sparse", 1)
    c = record(tmp_path / "change", "planted-sparse", 2)
    assert [s["digests"] for s in a["steps"]] == [s["digests"] for s in b["steps"]]
    assert [s["digests"] for s in a["steps"]] != [s["digests"] for s in c["steps"]]
    proc = bench("compare", str(tmp_path / "parent"), str(tmp_path / "change"))
    assert proc.returncode in (0, 1), proc.stderr
    assert "byte-identical outputs in 2 of 2 same-seed pairs" in proc.stdout
    rows = {line.split()[1] for line in proc.stdout.splitlines()
            if line.startswith("planted-sparse-smoke")}
    assert {m["name"] for m in SPEC["end_to_end"]} | {"cds_s", "fail_ratio"} <= rows


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__", ".pytest_cache"))
    proc = bench("--workload", WORKLOADS[0], "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path, script=tmp_path / HERE.name / "run.py")
    assert proc.returncode != 0 and proc.stdout == ""


def _write(path, text):
    path.write_text(text)
    return path


def test_checker_rejects_broken_outputs(tmp_path):
    # path 1-2-3-4 with terminals 1 and 4, demands 2 and 2
    inst = check.read_instance(_write(tmp_path / "g.gl", "p gl 4 3\ne 1 2\ne 2 3\ne 3 4\nk 2\nt 1 2\nt 4 2\n"))
    good = check.read_sets(_write(tmp_path / "ok.part", "v 1 1 2\nv 2 3 4\n"), "v", 4)
    check.check_gl_partition(inst, good)
    broken = {
        "v 1 1 3\nv 2 2 4\n": "not connected",
        "v 1 1 2 3\nv 2 4\n": "demand",
        "v 1 2 3\nv 2 1 4\n": "terminal",
        "v 1 1 2\nv 2 3\n": "in no set",
    }
    for text, reason in broken.items():
        sets = check.read_sets(_write(tmp_path / "bad.part", text), "v", 4)
        with pytest.raises(check.CheckError, match=reason):
            check.check_gl_partition(inst, sets)
    # a star: {centre} dominates, a leaf does not
    star = check.read_instance(_write(tmp_path / "s.gl", "p gl 4 3\ne 1 2\ne 1 3\ne 1 4\n"))
    check.check_cds_family(star, [frozenset({0})], cover=False)
    with pytest.raises(check.CheckError, match="dominated"):
        check.check_cds_family(star, [frozenset({1})], cover=False)
    with pytest.raises(check.CheckError):
        check.read_instance(_write(tmp_path / "dup.gl", "p gl 2 2\ne 1 2\ne 2 1\n"))


def test_interval_reader_matches_pairwise_overlap(tmp_path):
    ivs = [(1, 3), (2, 2), (3, 6), (7, 9), (6, 7), (10, 10)]
    text = f"p interval {len(ivs)}\n" + "".join(f"i {i + 1} {a} {b}\n" for i, (a, b) in enumerate(ivs))
    inst = check.read_instance(_write(tmp_path / "m.interval", text))
    for u, (a, b) in enumerate(ivs):
        want = {v for v, (c, d) in enumerate(ivs) if v != u and max(a, c) <= min(b, d)}
        assert inst.adj[u] == want
