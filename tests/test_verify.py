import pytest

from cdspart.engine import GLInstance
from cdspart.generators import gen_planted_cds
from cdspart.graphs import GraphError
from cdspart.verify import brute_cds, brute_gl, verify_cds_partition, verify_gl

from conftest import fixture_graph, graph_of
from reference_oracles import brute_min_vertex_cut, verify_cds_family


def k4():
    return graph_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def cycle(n):
    return graph_of(n, [(i, (i + 1) % n) for i in range(n)])


class TestVerifyGl:
    def test_valid_partition(self):
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(1, 3))
        rep = verify_gl(inst, [{0}, {1, 2, 3}])
        assert rep.ok and rep.render() == "OK"

    def test_swapped_blocks_report_both_rules(self):
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(1, 3))
        rep = verify_gl(inst, [{1, 2, 3}, {0}])
        rules = {rule for rule, _ in rep.violations}
        assert rules == {"terminal-missing", "size-mismatch"}
        assert rep.render().startswith("FAIL")

    def test_disconnected_block(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        inst = GLInstance(graph=g, terminals=(0, 1), demands=(2, 2))
        rep = verify_gl(inst, [{0, 3}, {1, 2}])
        assert ("not-connected", "block 1") in rep.violations

    def test_coverage_violations(self):
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(2, 2))
        rep = verify_gl(inst, [{0, 2}, {1, 2}])
        assert any(rule == "partition" for rule, _ in rep.violations)


class TestPartitionRules:
    """Each partition message fires on an input made to break its rule."""

    def test_unknown_vertex(self):
        rep = verify_cds_partition(k4(), [{0, 1, 7}, {2, 3}])
        assert ("partition", "block 1 holds unknown vertex 8") in rep.violations

    def test_unknown_vertex_block_is_not_connected(self):
        # on the path 0-8, -1 once read vertex 8's neighbours, so {-1, 7}
        # passed as connected
        g = graph_of(9, [(i, i + 1) for i in range(8)])
        blocks = [{-1, 7}, set(range(7)) | {8}]
        inst = GLInstance(graph=g, terminals=(7, 0), demands=(2, 7))
        for rep in (verify_gl(inst, blocks), verify_cds_partition(g, blocks)):
            assert ("partition", "block 1 holds unknown vertex 0") in rep.violations
            assert ("not-connected", "block 1") in rep.violations

    def test_vertex_in_two_blocks(self):
        rep = verify_cds_partition(k4(), [{0, 1}, {1, 2, 3}])
        assert ("partition", "vertex 2 in blocks 1 and 2") in rep.violations

    def test_few_uncovered_vertices_are_listed(self):
        rep = verify_cds_partition(k4(), [{0, 1}])
        assert ("partition", "uncovered vertices [3, 4]") in rep.violations

    def test_many_uncovered_vertices_are_counted(self):
        g = graph_of(1000, [])
        rep = verify_cds_partition(g, [{5}])
        line = "FAIL partition 999 uncovered vertices, first 10 [1, 2, 3, 4, 5, 7, 8, 9, 10, 11]"
        assert rep.render().splitlines()[0] == line

    def test_ten_uncovered_vertices_are_still_listed(self):
        rep = verify_cds_partition(graph_of(11, []), [{10}])
        assert ("partition", f"uncovered vertices {list(range(1, 11))}") in rep.violations

    def test_wrong_block_count(self):
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(2, 2))
        rep = verify_gl(inst, [{0, 2}, {1}, {3}])
        assert ("partition", "3 blocks for k=2") in rep.violations


class TestVerifyCds:
    def test_disconnected_block(self):
        # a 6-cycle split into {0, 3} and the rest: 0 and 3 are not adjacent
        rep = verify_cds_partition(cycle(6), [{0, 3}, {1, 2, 4, 5}])
        assert ("not-connected", "block 1") in rep.violations
        assert ("not-connected", "block 2") in rep.violations

    def test_k4_halves(self):
        assert verify_cds_partition(k4(), [{0, 1}, {2, 3}]).ok

    def test_c6_halves_fail_domination(self):
        rep = verify_cds_partition(cycle(6), [{0, 1, 2}, {3, 4, 5}])
        assert not rep.ok
        assert ("not-dominating", "block 1 misses vertex 5") in rep.violations

    def test_family_allows_partial_cover(self):
        assert verify_cds_family(k4(), [{0}, {1}]).ok
        rep = verify_cds_family(k4(), [{0}, {0, 1}])
        assert ("not-disjoint", "set 1 overlaps an earlier set") in rep.violations


class TestBruteGl:
    def test_k4_lexicographic_golden(self):
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(2, 2))
        p = brute_gl(inst)
        assert p == (frozenset({0, 2}), frozenset({1, 3}))

    def test_star_feasibility_depends_on_center(self):
        star = graph_of(5, [(0, i) for i in range(1, 5)])
        # demand-2 block must contain the center to be connected
        feasible = GLInstance(graph=star, terminals=(0, 1), demands=(2, 3))
        assert brute_gl(feasible) is None  # block 2 = {1, x} is never connected
        ok = GLInstance(graph=star, terminals=(0, 1), demands=(4, 1))
        p = brute_gl(ok)
        assert p is not None and verify_gl(ok, p).ok

    def test_size_guard(self):
        g = graph_of(15, [(i, i + 1) for i in range(14)])
        inst = GLInstance(graph=g, terminals=(0,), demands=(15,))
        with pytest.raises(GraphError, match="too-large-for-oracle"):
            brute_gl(inst)
        assert brute_gl(inst, max_n=15) is not None

    @pytest.mark.parametrize("seed", range(12))
    def test_existence_given_cds_input(self, seed):
        k = 2 + seed % 2
        n = 2 * k + 2 + seed % 5
        g, trees = gen_planted_cds(n, k, extra_edges=2, seed=seed)
        from cdspart.generators import gen_gl_extension

        terminals, demands = gen_gl_extension(n, k, seed=seed)
        inst = GLInstance(graph=g, terminals=terminals, demands=demands)
        p = brute_gl(inst)
        assert p is not None
        assert verify_gl(inst, p).ok

    def test_planted_solution_recovered(self):
        # oracle completeness: a graph built around a known partition
        g = graph_of(6, [(0, 1), (1, 2), (3, 4), (4, 5), (2, 3)])
        inst = GLInstance(graph=g, terminals=(0, 3), demands=(3, 3))
        p = brute_gl(inst)
        assert p == (frozenset({0, 1, 2}), frozenset({3, 4, 5}))


class TestBruteCds:
    def test_k4_golden(self):
        assert brute_cds(k4(), 2) == (frozenset({0}), frozenset({1}))

    def test_figure_negatives(self):
        assert brute_cds(fixture_graph("fig1-chordal.gl"), 2) is None
        assert brute_cds(fixture_graph("fig1-convex.gl"), 2) is None

    def test_figure_positives_at_k1(self):
        fam = brute_cds(fixture_graph("fig1-chordal.gl"), 1)
        assert fam is not None
        assert verify_cds_family(fixture_graph("fig1-chordal.gl"), fam).ok

    def test_outputs_verify(self):
        for seed in range(6):
            g, _ = gen_planted_cds(8, 2, extra_edges=2, seed=seed)
            fam = brute_cds(g, 2)
            assert fam is not None
            assert verify_cds_family(g, fam).ok

    def test_size_guard(self):
        g = graph_of(15, [(i, i + 1) for i in range(14)])
        with pytest.raises(GraphError, match="too-large-for-oracle"):
            brute_cds(g, 1)

    def test_k_below_one(self):
        with pytest.raises(GraphError, match="^bad-k: k=0$"):
            brute_cds(k4(), 0)


class TestBruteMinCut:
    def test_adjacent_edge_convention(self):
        g = graph_of(2, [(0, 1)])
        assert brute_min_vertex_cut(g, 0, 1) == 1

    def test_k4_pair(self):
        assert brute_min_vertex_cut(k4(), 0, 3) == 3

    def test_path(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        assert brute_min_vertex_cut(g, 0, 3) == 1
