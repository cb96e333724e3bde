import random

import pytest

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
from cdspart.generators import gen_biconvex, gen_convex, gen_interval, gen_planted_cds
from cdspart.graphs import Graph, GraphError, dominates, is_connected_subset, vertex_connectivity
from cdspart.models import BiconvexModel, ConvexModel, IntervalModel, interval_connectivity
from cdspart.verify import verify_cds_partition

from reference_oracles import verify_cds_family


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
        part = extend_to_partition(g, fam)
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
        assert verify_cds_partition(g, extend_to_partition(g, fam)).ok


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
        part = extend_to_partition(g, fam)
        assert verify_cds_partition(g, part).ok

    @pytest.mark.parametrize("seed", range(12))
    def test_backbones_touch_extremes_at_most_once(self, seed):
        k = 2 + seed % 4
        m = gen_biconvex(12 + 2 * k, 14 + 2 * k, k, seed)
        g = m.derive_graph()
        first = g.neighbor_set(m.b_id(0))
        last = g.neighbor_set(m.b_id(m.nb - 1))
        for p in backbones(m, g, k):
            p = p[1:-1]
            assert len(set(p) & first) <= 1
            assert len(set(p) & last) <= 1

    def test_insufficient_connectivity(self):
        # a 1-connected zig-zag cannot host 2 disjoint end-to-end paths
        m = BiconvexModel(na=3, nb=2, windows=((0, 1), (1, 2)))
        with pytest.raises(InsufficientConnectivity):
            cds_biconvex(m, 2)


class TestCdsConvex:
    def test_complete_bipartite_k1(self):
        m = ConvexModel(na=4, nb=4, windows=tuple((0, 3) for _ in range(4)))
        g = m.derive_graph()
        fam = cds_convex(m, 1)
        assert len(fam) == 1
        # one backbone path plus all of A; remaining B-vertices come from extend
        assert set(range(4)) <= set(fam[0])
        part = extend_to_partition(g, fam)
        assert verify_cds_partition(g, part).ok

    @pytest.mark.parametrize("seed", range(10))
    def test_path_properties(self, seed):
        k = 1 + seed % 4
        m = gen_convex(4 * k + 2, 8 * k + 8, 4 * k, seed)
        for p in backbones(m, m.derive_graph(), k):
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
        part = extend_to_partition(g, fam)
        assert verify_cds_partition(g, part).ok

    @pytest.mark.parametrize("seed", range(8))
    def test_leftover_shares_are_balanced(self, seed):
        k = 2 + seed % 3
        m = gen_convex(4 * k + 2, 8 * k + 8, 4 * k, seed)
        paths = backbones(m, m.derive_graph(), k)
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
        g = Graph(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2), (1, 3)])
        fam = (frozenset({0, 1}), frozenset({2, 3}))
        assert extend_to_partition(g, fam) == fam

    def test_k4_lowest_index_rule(self):
        g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        out = extend_to_partition(g, (frozenset({0}), frozenset({1})))
        assert out == (frozenset({0, 2, 3}), frozenset({1}))

    def test_orphan_vertex_error(self):
        g = Graph(4, [(0, 1), (2, 3)])
        with pytest.raises(BuilderError, match="not-dominating"):
            extend_to_partition(g, (frozenset({0}),))


class TestValidateFamily:
    """One domination pass, the same verdict and text as a set-by-set check."""

    @staticmethod
    def set_by_set(g, sets):
        seen = set()
        for i, s in enumerate(sets):
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
        star = Graph(9, [(7, v) for v in range(9) if v != 7])
        with pytest.raises(GraphError, match="bad-vertex"):
            validate_family(star, [frozenset({-1, 7})])
