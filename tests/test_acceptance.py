"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `python3 -m pytest tests/test_acceptance.py -s` to see the
per-criterion summary lines.
"""

import statistics
import time
from pathlib import Path

from cdspart.builders import (
    backbones,
    cds_biconvex,
    cds_convex,
    cds_interval,
    extend_to_partition,
)
from cdspart.cli import main
from cdspart.engine import GLInstance, PartitionState, solve
from cdspart.flows import vertex_disjoint_paths
from cdspart.formats import parse_bundle
from cdspart.generators import (
    gen_biconvex,
    gen_convex,
    gen_gl_extension,
    gen_interval,
    gen_planted_cds,
)
from cdspart.graphs import is_k_connected, vertex_connectivity
from cdspart.models import interval_connectivity
from cdspart.verify import brute_cds, brute_gl, verify_cds_partition, verify_gl

from conftest import random_graph
from reference_oracles import brute_min_vertex_cut

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


# the seed loops that keep only models at kappa = k stop here, so a
# generator that stops reaching kappa = k fails instead of hanging
SEED_CAP = 1000


def report(num, name, detail):
    print(f"\nACCEPTANCE {num} {name}: PASS — {detail}")


def test_01_figure_negatives():
    started = time.perf_counter()
    for name in ("fig1-chordal.gl", "fig1-convex.gl"):
        bundle = parse_bundle((FIXTURES / name).read_text())
        assert vertex_connectivity(bundle.graph) == 2, name
        assert brute_cds(bundle.graph, 2) is None, name
        assert brute_cds(bundle.graph, 1) is not None, name
    elapsed = time.perf_counter() - started
    assert elapsed < 10.0
    report(1, "figure negatives", f"both fixtures kappa=2 and 2-CDS infeasible in {elapsed:.2f}s")


def test_02_interval_pipeline():
    runs = 0
    seed = 0
    slowest = 0.0
    flow_checked = 0
    while runs < 200:
        k = 2 + runs % 7  # k in [2, 8]
        n = min(80, 14 + 3 * k + (runs * 5) % 40)
        seed += 1
        assert seed <= SEED_CAP, f"{runs} models at kappa = k in {SEED_CAP} seeds"
        m = gen_interval(n, k, seed)
        if interval_connectivity(m) != k:
            continue
        g = m.derive_graph()
        if flow_checked < 8 and n <= 30:
            assert vertex_connectivity(g) == k
            flow_checked += 1
        started = time.perf_counter()
        fam = cds_interval(m, k)
        part = extend_to_partition(g, fam)
        rep = verify_cds_partition(g, part)
        elapsed = time.perf_counter() - started
        assert rep.ok and len(part) == k, (seed, rep.render())
        assert elapsed < 1.0
        slowest = max(slowest, elapsed)
        runs += 1
    assert flow_checked >= 4
    report(2, "interval pipeline", f"200/200 verified, slowest run {slowest * 1000:.0f}ms")


def test_03_biconvex_pipeline():
    runs = 0
    seed = 0
    slowest = 0.0
    while runs < 200:
        k = 2 + runs % 5  # k in [2, 6]
        na = 10 + (runs % 8) + 2 * k
        nb = na + k + (runs % 3)
        seed += 1
        assert seed <= SEED_CAP, f"{runs} models at kappa = k in {SEED_CAP} seeds"
        try:
            m = gen_biconvex(na, nb, k, seed)
        except Exception:
            continue
        g = m.derive_graph()
        if vertex_connectivity(g) != k:
            continue
        started = time.perf_counter()
        stripped = [p[1:-1] for p in backbones(m, g, k)]
        first = g.neighbor_set(m.b_id(0))
        last = g.neighbor_set(m.b_id(m.nb - 1))
        for p in stripped:
            assert len(set(p) & first) <= 1 and len(set(p) & last) <= 1
        fam = cds_biconvex(m, k)
        part = extend_to_partition(g, fam)
        rep = verify_cds_partition(g, part)
        elapsed = time.perf_counter() - started
        assert rep.ok and len(part) == k, (seed, rep.render())
        assert elapsed < 1.0
        slowest = max(slowest, elapsed)
        runs += 1
    report(3, "biconvex pipeline", f"200/200 verified at kappa=k, slowest run {slowest * 1000:.0f}ms")


def test_04_convex_pipeline():
    runs = 0
    seed = 0
    slowest = 0.0
    flow_checked = 0
    while runs < 100:
        k = 1 + runs % 5  # k in [1, 5]
        na = 4 * k + 2 + runs % 3
        nb = 8 * k + 8 + runs % 5
        seed += 1
        try:
            m = gen_convex(na, nb, 4 * k, seed)
        except Exception:
            continue
        g = m.derive_graph()
        if k == 1 and flow_checked < 10:
            assert is_k_connected(g, 4 * k)
            flow_checked += 1
        started = time.perf_counter()
        for p in backbones(m, g, k):
            a_seq = [v for v in p if v < m.na]
            assert a_seq == sorted(a_seq), "A-vertices must be monotone"
            vs = set(p)
            for w0 in range(m.na - 4 * k + 1):
                assert len(set(range(w0, w0 + 4 * k)) & vs) <= 3
        fam = cds_convex(m, k)
        part = extend_to_partition(g, fam)
        rep = verify_cds_partition(g, part)
        elapsed = time.perf_counter() - started
        assert rep.ok and len(part) == k, (seed, rep.render())
        assert elapsed < 2.0
        slowest = max(slowest, elapsed)
        runs += 1
    assert flow_checked >= 5
    report(4, "convex pipeline", f"100/100 verified at kappa>=4k, slowest run {slowest * 1000:.0f}ms")


def _planted_instance(seed, n, k):
    g, trees = gen_planted_cds(n, k, extra_edges=n // 4, seed=seed)
    terminals, demands = gen_gl_extension(g.n, k, seed=seed ^ 0xF00D)
    return GLInstance(graph=g, terminals=terminals, demands=demands), trees


def test_05_and_09_gl_end_to_end_with_invariants():
    checkpoints_before = PartitionState.checkpoints_run
    slowest = 0.0
    for seed in range(300):
        k = 1 + seed % 6
        n = max(2 * k + 2, 16 + (seed * 7) % 185)  # n <= 200
        inst, trees = _planted_instance(seed, n, k)
        started = time.perf_counter()
        p = solve(inst, trees)
        elapsed = time.perf_counter() - started
        rep = verify_gl(inst, p)
        assert rep.ok, (seed, rep.render())
        assert elapsed < 2.0, (seed, elapsed)
        slowest = max(slowest, elapsed)
    # polynomial scaling: doubling n at fixed k raises the median < 8x
    medians = []
    for n in (50, 100, 200):
        times = []
        for rep_i in range(12):
            inst, trees = _planted_instance(10_000 + n + rep_i, n, 4)
            started = time.perf_counter()
            solve(inst, trees)
            times.append(time.perf_counter() - started)
        medians.append(statistics.median(times))
    assert medians[1] / medians[0] < 8.0, medians
    assert medians[2] / medians[1] < 8.0, medians
    report(5, "GL end-to-end", f"300/300 verified, slowest {slowest * 1000:.0f}ms, "
           f"median scaling 50->100: {medians[1] / medians[0]:.2f}x, "
           f"100->200: {medians[2] / medians[1]:.2f}x")
    ran = PartitionState.checkpoints_run - checkpoints_before
    assert ran >= 300 * 3
    report(9, "state-invariant suite", f"{ran} checkpoints verified across 300 strict runs")


def test_06_oracle_cross_checks():
    agreements = 0
    for seed in range(40):
        k = 2 + seed % 2
        n = 2 * k + 2 + seed % (11 - 2 * k)
        inst, trees = _planted_instance(seed, n, k)
        assert inst.graph.n <= 12
        p = solve(inst, trees)
        assert verify_gl(inst, p).ok, seed
        oracle = brute_gl(inst)
        assert oracle is not None, f"oracle found no partition for seed {seed}"
        assert verify_gl(inst, oracle).ok, seed
        agreements += 1
    report(6, "oracle cross-checks", f"{agreements}/40 tiny instances agree on feasibility")


def test_07_menger_correctness():
    pairs_checked = 0
    for i in range(100):
        if i < 80:
            n = 8 + i % 7
            g = random_graph(500 + i, n, n + 2 + (i * 3) % (2 * n), connected=True)
        else:
            n = 15 + i % 8
            g = random_graph(500 + i, n, int(1.5 * n), connected=True)
        from cdspart.generators import SplitMix64

        rng = SplitMix64(900 + i)
        for _ in range(20):
            s = rng.randint(0, n - 1)
            t = rng.randint(0, n - 1)
            if s == t:
                continue
            fam = vertex_disjoint_paths(g, s, t)
            fam.validate(g)
            assert len(fam.paths) == brute_min_vertex_cut(g, s, t), (i, s, t)
            pairs_checked += 1
    report(7, "Menger correctness", f"{pairs_checked} (s,t) pairs match the brute-force cut")


def test_08_determinism(tmp_path):
    def pipeline(tag):
        base = tmp_path / tag
        base.mkdir()
        files = {}
        cmds = [
            (["gen", "--class", "planted", "--n", "40", "--k", "3", "--seed", "11",
              "-o", str(base / "p.gl")], 0),
            (["partition", str(base / "p.gl"), "--cds", str(base / "p.cds"),
              "-o", str(base / "p.part"), "--trace", str(base / "p.trace")], 0),
            (["verify", "--what", "gl", str(base / "p.gl"), str(base / "p.part")], 0),
            (["gen", "--class", "interval", "--n", "24", "--k", "3", "--seed", "5",
              "-o", str(base / "m.interval")], 0),
            (["cds", "--class", "interval", "-k", "3", str(base / "m.interval"),
              "-o", str(base / "m.cdsp")], 0),
            (["gen", "--class", "biconvex", "--na", "16", "--nb", "19", "--k", "3",
              "--seed", "7", "-o", str(base / "m.biconvex")], 0),
            (["gen", "--class", "convex", "--na", "10", "--nb", "24", "--k", "8",
              "--seed", "7", "-o", str(base / "m.convex")], 0),
        ]
        for argv, expected in cmds:
            assert main(argv) == expected, argv
        for f in sorted(base.iterdir()):
            files[f.name] = f.read_bytes()
        return files

    first = pipeline("a")
    second = pipeline("b")
    assert first.keys() == second.keys()
    for name in first:
        assert first[name] == second[name], f"{name} differs between runs"
    report(8, "determinism", f"{len(first)} output files byte-identical across reruns")
