"""Compare two result sets: `python3 bench/run.py compare PARENT_DIR CHANGE_DIR`.

Each directory holds the run records (`--out`) of one commit. For every
workload and end-to-end metric this prints each side's median and
quartiles, the fraction of pairs the change won (runs are paired by seed,
else by order; ties count for neither) and a verdict:

* improved: the change won at least 9/10 of the pairs and the medians
  differ by more than the parent's interquartile distance;
* unresolved: the parent's own spread (interquartile distance over
  median) is wider than the bound, unless every change run beat every
  parent run;
* worse: the change's median is worse than the parent's by more than the
  bound;
* within bound: otherwise.

Bounds come from BENCHMARK.json; `cds_s`, which is not gated there
because it is 0 on the planted workloads, uses the widest bound. It also
compares the failure ratios and, for runs of the same workload and seed,
whether every output file is byte-identical. Exits 1 when any verdict is
`worse` or the change failed more often.
"""

from __future__ import annotations

import json
import statistics
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load(directory: str) -> dict[str, list[dict]]:
    """Untraced run records by workload, ordered by seed."""
    out: dict[str, list[dict]] = {}
    for path in sorted(Path(directory).glob("*.json")):
        rec = json.loads(path.read_text(encoding="utf-8"))
        if rec.get("trace") == 0:
            key = rec["workload"] + ("-smoke" if rec["smoke"] else "")
            out.setdefault(key, []).append(rec)
    for recs in out.values():
        recs.sort(key=lambda r: r["stamp"]["seed"])
    return out


def quartiles(values: list[float]) -> tuple[float, float]:
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def pairs(parent: list[dict], change: list[dict]) -> list[tuple[dict, dict]]:
    by_seed = {r["stamp"]["seed"]: r for r in change}
    matched = [(p, by_seed[p["stamp"]["seed"]]) for p in parent if p["stamp"]["seed"] in by_seed]
    return matched or list(zip(parent, change))


def verdict(p: list[float], c: list[float], won: float, lower: bool, bound: float) -> str:
    mp, mc = statistics.median(p), statistics.median(c)
    q1, q3 = quartiles(p)
    gain = (mp - mc) if lower else (mc - mp)
    if won >= 0.9 and gain > q3 - q1:
        return "improved"
    all_better = (max(c) < min(p)) if lower else (min(c) > max(p))
    if mp and (q3 - q1) / mp > bound and not all_better:
        return "unresolved"
    if mp and -gain / mp > bound:
        return "worse"
    return "within bound"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print("usage: python3 bench/run.py compare PARENT_DIR CHANGE_DIR")
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = {m["name"]: (m["better"] == "lower", m["bound"]) for m in spec["end_to_end"]}
    metrics.setdefault("cds_s", (True, max(b for _, b in metrics.values())))
    parent, change = load(argv[0]), load(argv[1])
    bad = False
    print(f"{'workload':22} {'metric':12} {'parent median [q1, q3]':>30} "
          f"{'change median [q1, q3]':>30} {'won':>5}  verdict")
    for workload in sorted(set(parent) & set(change)):
        matched = pairs(parent[workload], change[workload])
        if len(matched) < 10:
            print(f"{workload:22} only {len(matched)} pairs; the rule asks for at least 10")
        for name, (lower, bound) in metrics.items():
            p = [r["all_metrics"][name] for r in parent[workload]]
            c = [r["all_metrics"][name] for r in change[workload]]
            wins = sum(1 for a, b in matched
                       if (b["all_metrics"][name] < a["all_metrics"][name]) == lower
                       and b["all_metrics"][name] != a["all_metrics"][name])
            won = wins / len(matched)
            v = verdict(p, c, won, lower, bound)
            bad |= v == "worse"
            cells = []
            for vals in (p, c):
                q1, q3 = quartiles(vals)
                cells.append(f"{statistics.median(vals):.4g} [{q1:.4g}, {q3:.4g}]")
            print(f"{workload:22} {name:12} {cells[0]:>30} {cells[1]:>30} {won:5.2f}  {v}")
        ratios = []
        for recs in (parent[workload], change[workload]):
            attempted = sum(r["result"]["attempted"] for r in recs)
            failed = sum(r["result"]["failed"] for r in recs)
            ratios.append(failed / attempted if attempted else 1.0)
        bad |= ratios[1] > ratios[0]
        same = sum(1 for a, b in matched if a["stamp"]["seed"] == b["stamp"]["seed"]
                   and [s["digests"] for s in a["steps"]] == [s["digests"] for s in b["steps"]])
        seeded = sum(1 for a, b in matched if a["stamp"]["seed"] == b["stamp"]["seed"])
        print(f"{workload:22} fail_ratio parent {ratios[0]:.4g} change {ratios[1]:.4g}"
              f"{'  (change fails more)' if ratios[1] > ratios[0] else ''}; "
              f"byte-identical outputs in {same} of {seeded} same-seed pairs "
              f"({len(parent[workload])} parent runs, {len(change[workload])} change runs)")
    return 1 if bad else 0
