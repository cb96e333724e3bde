#!/usr/bin/env python3
"""Benchmark of the cdspart CLI chain gen -> cds -> partition -> verify.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
                         [--smoke] [--out DIR]
    python3 bench/run.py compare PARENT_DIR CHANGE_DIR

A run drives `cdspart.cli.main` in-process, in one thread, on the
workload's instances (see workloads.py), all derived from `--seed`. It
builds nothing: the program is imported from `src/` of the checkout this
file sits in, and the run fails (exit 2, no result) when it is missing.

`--trace 0` runs passes over the instance set while the next pass still
fits in `--seconds`; `gen` runs three times per instance and pass. Each
step's time is the median of its runs; the end-to-end metrics sum these
medians over the instances. `--trace 1` runs one untraced pass and one
traced pass and reports per-layer self times, call counts and the tracing
overhead. The last stdout line is the JSON result; the line before it is
the stamp (commit, dirty flag, Python, nproc, platform, seed). A record
with every step's times and output digests, and for traced runs the spans
(`.spans.tsv`), is written to `--out` (default `.bench_out/`).
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

import chain
import compare
import workloads
from tracing import Tracer

ROOT = Path(__file__).resolve().parent.parent
GEN_REPEATS = 3
STEP_KINDS = ("gen", "cds", "partition", "verify")


def import_program():
    """cdspart.cli.main from this checkout's src/, or None when absent."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import cdspart.cli
    except ImportError:
        return None
    if src.resolve() not in Path(cdspart.cli.__file__).resolve().parents:
        return None
    return cdspart.cli.main


def stamp(seed: int) -> dict:
    commit, dirty = "unknown", None
    if (ROOT / ".git").exists():
        env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
        try:
            commit = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], env=env,
                                    capture_output=True, text=True, timeout=30).stdout.strip() or "unknown"
            status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain", "--untracked-files=no"],
                                    env=env, capture_output=True, text=True, timeout=30)
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
        except (OSError, subprocess.TimeoutExpired):
            pass
    return {
        "commit": commit,
        "dirty": dirty,
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "platform": platform.platform(),
        "seed": seed,
    }


def step_sums(records) -> dict[str, float]:
    """Per step kind, the sum over steps of each step's median time."""
    sums = dict.fromkeys(STEP_KINDS, 0.0)
    for rec in records:
        if rec.times:
            sums[rec.kind] += statistics.median(rec.times)
    return sums


def merge(passes) -> list:
    """Fold later passes' times into the first pass's step records."""
    first = passes[0].records
    for later in passes[1:]:
        for a, b in zip(first, later.records):
            a.times += b.times
    return first


def end_to_end(records, attempted: int, failed: int) -> dict[str, float]:
    sums = step_sums(records)
    return {
        "chain_s": sum(sums.values()),
        "setup_s": sums["gen"],
        "cds_s": sums["cds"],
        "partition_s": sums["partition"],
        "verify_s": sums["verify"],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "fail_ratio": failed / attempted if attempted else 1.0,
    }


def per_layer(tracer, checkpoints: int, untraced: float, traced: float) -> dict[str, float]:
    own, total, calls = tracer.self_seconds()
    counts = tracer.counts
    out: dict[str, float] = {}
    for name in tracer.names + [f"cli.{kind}" for kind in STEP_KINDS]:
        out[f"{name}_s"] = own.get(name, 0.0)
        out[f"{name}_calls"] = calls.get(name, 0)
    out["engine.solve_self_s"] = out["engine.solve_s"]
    out["engine.solve_s"] = total.get("engine.solve", 0.0)
    out["engine.rounds"] = calls.get("engine.categorize_trees", 0)
    out["engine.checkpoints"] = checkpoints
    for key in ("formats.bytes_parsed", "graphs.tree_adjacency_calls", "engine.placements",
                "engine.steals", "engine.states_built"):
        out[key] = counts.get(key, 0)
    # Acceptance tests run inside the rejection loops that call a public
    # function: gen_interval -> interval_connectivity, gen_biconvex ->
    # is_k_connected. gen_convex tests its degree condition inline.
    attempts = tracer.child_calls("generators.gen_interval", "models.interval_connectivity") \
        + tracer.child_calls("generators.gen_biconvex", "graphs.is_k_connected")
    accepted = tracer.returned("generators.gen_interval") + tracer.returned("generators.gen_biconvex")
    out["generators.attempts"] = attempts
    out["generators.accept_ratio"] = accepted / attempts if attempts else 0.0
    out["trace.overhead_s"] = traced - untraced
    out["trace.spans"] = len(tracer.name)
    return out


def parse_args(argv):
    p = argparse.ArgumentParser(prog="bench/run.py", description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--smoke", action="store_true", help="tiny sizes, same code paths")
    p.add_argument("--out", default=str(ROOT / ".bench_out"), help="directory for the run record")
    return p.parse_args(argv)


def main(argv: list[str]) -> int:
    if argv[:1] == ["compare"]:
        return compare.main(argv[1:])
    args = parse_args(argv)
    cli_main = import_program()
    if cli_main is None:
        print(f"error: the cdspart sources are missing under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except (OSError, ValueError) as exc:
        print(f"error: cannot read BENCHMARK.json: {exc}", file=sys.stderr)
        return 2
    if args.workload not in workloads.WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(workloads.WORKLOADS)}", file=sys.stderr)
        return 2
    instances = workloads.instances(args.workload, args.seed, args.smoke)
    label = f"{args.workload}{'-smoke' if args.smoke else ''}-s{args.seed}-t{args.trace}"
    work = ROOT / ".bench_work" / f"{label}-{os.getpid()}"
    out_dir = Path(args.out)
    work.mkdir(parents=True)
    out_dir.mkdir(parents=True, exist_ok=True)
    here = os.getcwd()
    reference: dict = {}
    try:
        os.chdir(work)
        if args.trace:
            plain = chain.run_pass(cli_main, instances, gen_repeats=1, reference=reference)
            import cdspart.engine as engine
            before = engine.PartitionState.checkpoints_run
            with Tracer() as tracer:
                traced = chain.run_pass(cli_main, instances, gen_repeats=1, reference=reference,
                                        tracer=tracer)
            passes = [plain, traced]
            checkpoints = engine.PartitionState.checkpoints_run - before
        else:
            passes = []
            started = time.perf_counter()
            while True:
                pass_start = time.perf_counter()
                passes.append(chain.run_pass(cli_main, instances, gen_repeats=GEN_REPEATS,
                                             reference=reference))
                now = time.perf_counter()
                if now - started + (now - pass_start) > args.seconds:
                    break
    finally:
        os.chdir(here)
        shutil.rmtree(work, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failures = [f for p in passes for f in p.failures]
    if args.trace:
        untraced = sum(step_sums(plain.records).values())
        traced_chain = sum(step_sums(traced.records).values())
        everything = per_layer(tracer, checkpoints, untraced, traced_chain)
        wanted = spec["per_layer"]
        tracer.write_tsv(out_dir / f"{label}.spans.tsv")
        records = plain.records + traced.records
    else:
        records = merge(passes)
        everything = end_to_end(records, attempted, len(failures))
        wanted = spec["end_to_end"]
    metrics = {m["name"]: {"value": everything[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": metrics}
    record = {
        "stamp": stamp(args.seed), "workload": args.workload, "smoke": args.smoke,
        "trace": args.trace, "seconds": args.seconds, "passes": len(passes),
        "result": result, "all_metrics": everything, "failures": failures,
        "steps": [{"instance": r.instance, "kind": r.kind, "argv": list(r.argv),
                   "times": r.times, "digests": r.digests} for r in records],
        "instances": [{"klass": s.klass, "size": list(s.size), "k": s.k, "cds_k": s.cds_k,
                       "seed": seed} for s, seed in instances],
    }
    (out_dir / f"{label}.json").write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")
    for line in failures:
        print(f"FAIL {line}")
    print(json.dumps({"stamp": record["stamp"]}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
