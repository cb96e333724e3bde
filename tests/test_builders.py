import random

import pytest

import cdspart.builders as builders_module
import window_sweep
from cdspart.builders import (
    BuilderError,
    InsufficientConnectivity,
    backbones,
    cds_biconvex,
    cds_convex,
    cds_interval,
    extend_to_partition,
    validate_family,
)
from cdspart.engine import GLInstance, solve
from cdspart.generators import (
    gen_biconvex,
    gen_convex,
    gen_gl_extension,
    gen_interval,
    gen_planted_cds,
)
from cdspart.graphs import (
    DominatingTree,
    GraphError,
    dominates,
    is_connected_subset,
    vertex_connectivity,
)
from cdspart.models import (
    BiconvexModel,
    ConvexModel,
    IntervalModel,
    interval_connectivity,
    interval_path_decomposition,
)
from cdspart.verify import verify_cds_partition, verify_gl

from conftest import edges_of, graph_of
from reference_flows import disjoint_paths
from reference_oracles import lowest_index_extension, verify_cds_family


def complete_interval(n):
    return IntervalModel(lefts=(1,) * n, rights=(5,) * n)


class TestCdsInterval:
    def test_complete_graph_singletons(self):
        m = complete_interval(6)
        fam = cds_interval(m, 5)
        assert len(fam) == 5
        assert all(len(s) == 1 for s in fam)
        validate_family(m.derive_graph(), fam)

    def test_three_parallel_chains(self):
        # three interleaved copies of a chain of overlapping intervals
        lefts, rights = [], []
        for i in range(5):
            for _ in range(3):
                lefts.append(2 * i)
                rights.append(2 * i + 2)
        m = IntervalModel(lefts=tuple(lefts), rights=tuple(rights))
        g = m.derive_graph()
        assert vertex_connectivity(g) == 3
        fam = cds_interval(m, 3)
        part = extend_to_partition(g.n, fam)
        assert verify_cds_partition(g, part).ok

    def test_insufficient_connectivity(self):
        m = IntervalModel(lefts=(1, 2, 3), rights=(2, 3, 4))
        with pytest.raises(InsufficientConnectivity) as exc:
            cds_interval(m, 2)
        assert exc.value.achieved == 1

    @pytest.mark.parametrize("seed", range(15))
    def test_seeded_models_verify(self, seed):
        k = 2 + seed % 5
        m = gen_interval(20 + seed, k, seed)
        k_use = interval_connectivity(m)
        g = m.derive_graph()
        fam = cds_interval(m, k_use)
        assert verify_cds_family(g, fam).ok
        assert verify_cds_partition(g, extend_to_partition(g.n, fam)).ok


def flow_route(m, k):
    """The families `cds_interval` built before its separator sweep: at
    most k vertex-disjoint paths between two virtual ends, one joined to
    the first bag of the clique path and one to the last, ends stripped.
    k = None gives the most there are, kappa of the sweep."""
    bags = interval_path_decomposition(m)
    s, t = m.n, m.n + 1
    edges = edges_of(m.graph) + [(s, v) for v in bags[0]] + [(t, v) for v in bags[-1]]
    paths = disjoint_paths(graph_of(m.n + 2, edges), s, t, want=k)
    return tuple(frozenset(p[1:-1]) for p in paths)


def random_interval_models(count, seed):
    """Seeded interval models with n <= 40, many of them disconnected."""
    rng = random.Random(seed)
    for _ in range(count):
        n, span = rng.randint(1, 40), rng.randint(1, 30)
        lefts = [rng.randint(0, span) for _ in range(n)]
        rights = [a + rng.randint(0, 12) for a in lefts]
        yield IntervalModel(lefts=tuple(lefts), rights=tuple(rights))


class TestIntervalSweepAgainstFlow:
    """The separator sweep and the old flow route agree: both give valid
    families at every k <= kappa and both stop at kappa + 1."""

    @staticmethod
    def agree(m):
        kappa = len(flow_route(m, None))
        g = m.graph
        expected = m.n if all(len(a) == g.n - 1 for a in g.adj) else interval_connectivity(m)
        assert kappa == expected
        for k in range(1, kappa + 1):
            for fam in (cds_interval(m, k), flow_route(m, k)):
                assert len(fam) == k and verify_cds_family(g, fam).ok, (m, k)
        with pytest.raises(InsufficientConnectivity) as exc:
            cds_interval(m, kappa + 1)
        assert (exc.value.wanted, exc.value.achieved) == (kappa + 1, kappa)
        assert len(flow_route(m, kappa + 1)) == kappa
        return kappa

    @pytest.mark.parametrize("seed", range(6))
    def test_random_models(self, seed):
        kappas = []
        for m in random_interval_models(80, seed):
            try:
                interval_path_decomposition(m)
            except GraphError as exc:
                assert exc.code == "disconnected"
                with pytest.raises(GraphError, match="disconnected"):
                    cds_interval(m, 1)
                continue
            kappas.append(self.agree(m))
        assert len(kappas) >= 30 and max(kappas) >= 4, kappas

    @pytest.mark.parametrize("n,k", [(30, 2), (40, 3), (60, 4), (80, 5)])
    def test_generated_models(self, n, k):
        for seed in range(1, 6):
            assert self.agree(gen_interval(n, k, seed)) >= k

    def test_one_vertex(self):
        m = IntervalModel(lefts=(3,), rights=(3,))
        assert cds_interval(m, 1) == (frozenset({0}),)
        assert self.agree(m) == 1

    def test_one_clique_gives_n_singletons(self):
        m = complete_interval(5)
        assert cds_interval(m, 5) == tuple(frozenset({v}) for v in range(5))
        assert self.agree(m) == 5

    def test_two_bags(self):
        # bags {0, 1, 2} and {1, 2, 3}: the separator {1, 2}
        m = IntervalModel(lefts=(0, 1, 1, 3), rights=(1, 4, 5, 6))
        assert len(interval_path_decomposition(m)) == 2
        assert cds_interval(m, 2) == (frozenset({1}), frozenset({2}))
        assert self.agree(m) == 2

    def test_vertex_in_no_separator(self):
        # vertex 3 lies in the middle bag only: both separators are {1, 2, 4}
        m = IntervalModel(lefts=(0, 0, 2, 3, 2, 5, 5), rights=(2, 5, 5, 3, 7, 7, 8))
        bags = interval_path_decomposition(m)
        assert [a & b for a, b in zip(bags, bags[1:])] == [{1, 2, 4}] * 2
        assert cds_interval(m, 3) == (frozenset({1}), frozenset({2}), frozenset({4}))
        assert self.agree(m) == 3

    def test_disconnected_model(self):
        m = IntervalModel(lefts=(1, 2, 6, 7), rights=(3, 4, 8, 9))
        with pytest.raises(GraphError, match="disconnected"):
            cds_interval(m, 1)

    @pytest.mark.parametrize("k", [0, -1])
    def test_k_below_one(self, k):
        with pytest.raises(BuilderError, match="bad-k"):
            cds_interval(complete_interval(3), k)

    def test_backbones_k_below_one(self):
        m = ConvexModel(na=2, nb=1, windows=((0, 1),))
        with pytest.raises(BuilderError, match="^bad-k: k=0$"):
            backbones(m, 0)

    @pytest.mark.parametrize("seed", range(1, 9))
    def test_families_extend_and_solve(self, seed):
        # each family is a CDS partition once extended, and the trees it
        # gives drive a prescribed-size partition that verify_gl accepts
        k = 2 + seed % 4
        m = gen_interval(60 + 10 * seed, k, seed)
        g = m.graph
        fam = cds_interval(m, k)
        assert verify_cds_partition(g, extend_to_partition(g.n, fam)).ok
        terminals, demands = gen_gl_extension(g.n, k, seed=seed)
        inst = GLInstance(graph=g, terminals=terminals, demands=demands)
        part = solve(inst, [DominatingTree(g, s) for s in fam])
        assert verify_gl(inst, part).ok


class TestCdsBiconvex:
    def test_complete_bipartite(self):
        k = 3
        m = BiconvexModel(na=k, nb=k, windows=tuple((0, k - 1) for _ in range(k)))
        g = m.derive_graph()
        fam = cds_biconvex(m, k)
        assert verify_cds_family(g, fam).ok

    @pytest.mark.parametrize("seed", range(12))
    def test_seeded_staircases_verify(self, seed):
        k = 2 + seed % 4
        m = gen_biconvex(12 + 2 * k, 14 + 2 * k, k, seed)
        g = m.derive_graph()
        fam = cds_biconvex(m, k)
        part = extend_to_partition(g.n, fam)
        assert verify_cds_partition(g, part).ok

    @pytest.mark.parametrize("seed", range(12))
    def test_backbones_touch_extremes_at_most_once(self, seed):
        k = 2 + seed % 4
        m = gen_biconvex(12 + 2 * k, 14 + 2 * k, k, seed)
        g = m.derive_graph()
        first = g.adj[m.b_id(0)]
        last = g.adj[m.b_id(m.nb - 1)]
        for p in backbones(m, k):
            p = p[1:-1]
            assert len(set(p) & first) <= 1
            assert len(set(p) & last) <= 1

    @pytest.mark.parametrize("nb", [1, 2, 3])
    def test_one_a_vertex(self, nb):
        # a_1 sees every B-vertex: it is a CDS, and a cut vertex (or an
        # end of the one edge), so kappa = 1
        m = BiconvexModel(na=1, nb=nb, windows=((0, 0),) * nb)
        assert backbones(m, 1) == ((0,),)
        assert cds_biconvex(m, 1) == (frozenset({0}),)
        with pytest.raises(InsufficientConnectivity) as exc:
            cds_biconvex(m, 2)
        assert (exc.value.wanted, exc.value.achieved) == (2, 1)

    def test_insufficient_connectivity(self):
        # a 1-connected zig-zag cannot host 2 disjoint end-to-end paths
        m = BiconvexModel(na=3, nb=2, windows=((0, 1), (1, 2)))
        with pytest.raises(InsufficientConnectivity):
            cds_biconvex(m, 2)

    def test_end_b_vertex_degree_bounds_k(self):
        # two backbones a_1 b_j a_3, but b_1 sees a_1 alone
        m = BiconvexModel(na=3, nb=3, windows=((0, 0), (0, 2), (0, 2)))
        assert len(backbones(m, 2)) == 2
        with pytest.raises(InsufficientConnectivity) as exc:
            cds_biconvex(m, 2)
        assert (exc.value.wanted, exc.value.achieved) == (2, 1)

    def test_one_sided_backbones_trade_their_end_vertex(self, monkeypatch):
        # every B-window holds a_4 (id 3), the one vertex of N(b_1) & N(b_nb).
        # The first backbone meets only N(b_nb) (at id 4), the second only
        # N(b_1) (at id 2), and a_4 is the one free vertex of either: the
        # first takes id 2 from the second, which takes a_4.
        windows = ((2, 3), (0, 3), (0, 3), (1, 5), (1, 5), (3, 6), (3, 6), (3, 4))
        m = BiconvexModel(na=7, nb=8, windows=windows)
        assert vertex_connectivity(m.graph) == 2
        paths = ((0, 9, 1, 11, 4, 12, 6), (0, 8, 2, 10, 5, 13, 6))
        monkeypatch.setattr(builders_module, "backbones", lambda m, k: paths)
        fam = cds_biconvex(m, 2)
        assert fam == (frozenset({9, 1, 11, 4, 12, 2}), frozenset({8, 10, 5, 13, 3}))
        assert verify_cds_family(m.graph, fam).ok


def test_every_small_window_model():
    # tests/window_sweep.py at N = 5: biconvex succeeds at every k <= kappa
    # and refuses kappa + 1; convex returns a verified family or raises
    # InsufficientConnectivity with kappa <= achieved < 4k; interval succeeds
    # at every k <= kappa (n on a complete graph) and refuses one more
    counts, broken = window_sweep.sweep(5)
    assert broken == []
    models = [counts[c]["models"] for c in ("biconvex", "convex", "interval")]
    assert models == [4988, 9298, 11527]
    # every convex and biconvex model's derived graph equals its window pairs
    assert [counts[c]["graphs"] for c in ("biconvex", "convex")] == [4988, 9298]


def test_every_small_biconvex_b_order():
    # tests/window_sweep.py's order sweep at N = 4: in every B-order other
    # than window order that is biconvex, cds_biconvex succeeds at every
    # k <= kappa and refuses kappa + 1
    counts, broken = window_sweep.order_sweep(4)
    assert broken == []
    assert (counts["pairs"], counts["calls"]) == (1267, 2614)


def test_small_window_models_against_reference_flows():
    # tests/window_sweep.py's flow sweep at N = 4: connectivity on every
    # model and backbones at every k <= kappa + 1 equal the per-pair flows
    # of tests/reference_flows.py
    counts, broken = window_sweep.flow_sweep(4)
    assert broken == []
    assert (counts["models"], counts["backbones"]) == (1283, 1201)


class TestCdsConvex:
    def test_complete_bipartite_k1(self):
        m = ConvexModel(na=4, nb=4, windows=tuple((0, 3) for _ in range(4)))
        g = m.derive_graph()
        fam = cds_convex(m, 1)
        assert len(fam) == 1
        # one backbone path plus all of A; remaining B-vertices come from extend
        assert set(range(4)) <= set(fam[0])
        part = extend_to_partition(g.n, fam)
        assert verify_cds_partition(g, part).ok

    def test_one_a_vertex(self):
        m = ConvexModel(na=1, nb=2, windows=((0, 0), (0, 0)))
        assert cds_convex(m, 1) == (frozenset({0}),)
        with pytest.raises(InsufficientConnectivity) as exc:
            cds_convex(m, 2)
        assert exc.value.achieved == 1

    @pytest.mark.parametrize("seed", range(10))
    def test_path_properties(self, seed):
        k = 1 + seed % 4
        m = gen_convex(4 * k + 2, 8 * k + 8, 4 * k, seed)
        for p in backbones(m, k):
            a_seq = [v for v in p if v < m.na]
            assert a_seq == sorted(a_seq)
            vs = set(p)
            for w0 in range(m.na - 4 * k + 1):
                window = set(range(w0, w0 + 4 * k))
                assert len(window & vs) <= 3

    @pytest.mark.parametrize("seed", range(10))
    def test_seeded_models_verify(self, seed):
        k = 1 + seed % 4
        m = gen_convex(4 * k + 2, 8 * k + 8, 4 * k, seed)
        g = m.derive_graph()
        fam = cds_convex(m, k)
        part = extend_to_partition(g.n, fam)
        assert verify_cds_partition(g, part).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_leftover_shares_are_balanced(self, seed):
        k = 2 + seed % 3
        m = gen_convex(4 * k + 2, 8 * k + 8, 4 * k, seed)
        paths = backbones(m, k)
        fam = cds_convex(m, k)
        shares = []
        for i, s in enumerate(fam):
            share = set(s) - set(paths[i][1:-1])
            if i == 0:
                share -= {0, m.na - 1}
            shares.append(len(share))
        assert max(shares) - min(shares) <= 1


class TestExtendToPartition:
    def test_already_complete_unchanged(self):
        fam = (frozenset({0, 1}), frozenset({2, 3}))
        assert extend_to_partition(4, fam) == fam

    def test_k4_lowest_index_rule(self):
        g = graph_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        fam = (frozenset({0}), frozenset({1}))
        assert extend_to_partition(4, fam) == (frozenset({0, 2, 3}), frozenset({1}))
        assert lowest_index_extension(g, fam) == extend_to_partition(4, fam)

    def test_union_is_the_lowest_index_scan_on_seeded_models(self):
        # every builder at every k up to the generator's target
        families = 0
        for seed in range(6):
            k = 2 + seed % 3
            runs = [(cds_interval, gen_interval(24 + 4 * seed, k, seed), k),
                    (cds_biconvex, gen_biconvex(12 + 2 * k, 14 + 2 * k, k, seed), k),
                    (cds_convex, gen_convex(4 * k + 2, 8 * k + 8, 4 * k, seed), k)]
            for build, m, top in runs:
                for j in range(1, top + 1):
                    fam = build(m, j)
                    assert extend_to_partition(m.n, fam) == lowest_index_extension(m.graph, fam)
                    families += 1
        assert families == 54


def test_union_is_the_lowest_index_scan_on_small_models():
    # tests/window_sweep.py's union sweep at N = 4: every family of every
    # builder at every k <= kappa extends as the reference scan does
    counts, broken = window_sweep.union_sweep(4)
    assert broken == []
    assert counts == {"cds_biconvex": 510, "cds_convex": 607, "cds_interval": 1839}


class TestIntervalCertificate:
    """`cds_interval` checks its separator certificate with no graph."""

    # four pairs of equal intervals [1, 2] .. [4, 5]: bags {0..3}, {2..5},
    # {4..7}, separators {2, 3} and {4, 5}
    m = IntervalModel(lefts=(1, 1, 2, 2, 3, 3, 4, 4), rights=(2, 2, 3, 3, 4, 4, 5, 5))

    def seps(self):
        bags = interval_path_decomposition(self.m)
        return [a & b for a, b in zip(bags, bags[1:])]

    def test_builder_family_passes(self):
        assert self.seps() == [{2, 3}, {4, 5}]
        fam = cds_interval(self.m, 2)
        builders_module._check_separators(self.seps(), fam)
        assert verify_cds_family(self.m.graph, fam).ok

    @pytest.mark.parametrize("fam,message", [
        (({2, 4}, {3}), "misses-separator: set 2 misses separator 2"),
        (({4}, {2, 5}), "misses-separator: set 1 misses separator 1"),
        (({2, 4}, {3, 4}), "not-disjoint: set 2 overlaps an earlier one"),
    ])
    def test_fires(self, fam, message):
        with pytest.raises(BuilderError, match=f"^{message}$"):
            builders_module._check_separators(self.seps(), tuple(map(frozenset, fam)))


class TestValidateFamily:
    """One domination pass, the same verdict and text as a set-by-set check."""

    @staticmethod
    def set_by_set(g, sets):
        seen = set()
        for i, s in enumerate(sets, 1):
            if not s:
                raise BuilderError("empty-set", f"set {i}")
            if s & seen:
                raise BuilderError("not-disjoint", f"set {i} overlaps an earlier one")
            seen |= s
            if not is_connected_subset(g, s):
                raise BuilderError("not-connected", f"set {i}")
            if not dominates(g, s):
                raise BuilderError("not-dominating", f"set {i}")

    @staticmethod
    def outcome(check, g, sets):
        try:
            check(g, sets)
        except BuilderError as exc:
            return exc.code, str(exc)
        return None

    def test_reports_what_a_set_by_set_check_reports(self):
        kinds = set()
        for seed in range(80):
            rng = random.Random(seed)
            k = 2 + seed % 6
            g, trees = gen_planted_cds(4 * k + seed % 40, k, 10, seed)
            sets = [set(t.vertices) for t in trees]
            for _ in range(rng.randint(0, 3)):
                victim = sets[rng.randrange(k)]
                defect = rng.choice(["empty", "shrink", "shrink", "overlap", "alien"])
                if defect == "empty":
                    victim.clear()
                elif defect == "shrink" and victim:
                    victim.discard(rng.choice(sorted(victim)))
                elif defect == "overlap":
                    victim.add(rng.choice(sorted(sets[rng.randrange(k)] or {0})))
                elif defect == "alien":
                    victim.update(rng.sample(range(g.n), rng.randint(1, 3)))
            fam = tuple(frozenset(s) for s in sets)
            expected = self.outcome(self.set_by_set, g, fam)
            assert self.outcome(validate_family, g, fam) == expected, seed
            kinds.add(expected and expected[0])
        assert kinds == {None, "empty-set", "not-disjoint", "not-connected", "not-dominating"}

    def test_id_out_of_range(self):
        # the star centred at 7: {-1, 7} dominates, and -1 once read
        # vertex 8's neighbours, so the set passed as connected
        star = graph_of(9, [(7, v) for v in range(9) if v != 7])
        with pytest.raises(GraphError, match="bad-vertex"):
            validate_family(star, [frozenset({-1, 7})])
