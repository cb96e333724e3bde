import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdspart.graphs import (
    DominatingTree,
    Graph,
    GraphError,
    dominates,
    is_connected_subset,
    is_k_connected,
    open_neighborhood,
    spanning_tree,
    vertex_connectivity,
)
from cdspart.verify import (
    brute_vertex_connectivity,
    counterexample_chordal,
    counterexample_convex,
)

from conftest import random_graph


def k_complete(n):
    return Graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    return Graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return Graph(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraphConstruction:
    def test_counts(self):
        g = Graph(4, [(0, 1), (2, 3)])
        assert g.n == 4 and g.m == 2
        assert g.neighbors(0) == (1,)

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="self-loop"):
            Graph(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError, match="duplicate-edge"):
            Graph(3, [(0, 1), (1, 0)])

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphError, match="bad-edge"):
            Graph(3, [(0, 3)])

    @given(st.integers(0, 400))
    def test_adjacency_symmetry(self, seed):
        g = random_graph(seed, 10, 14)
        for u in range(g.n):
            for v in g.neighbors(u):
                assert u in g.neighbors(v)

    def test_degree_sum_is_twice_edges(self):
        g = random_graph(7, 12, 20)
        assert sum(g.degree(v) for v in range(g.n)) == 2 * g.m


class TestConnectedSubset:
    def test_triangle(self):
        assert is_connected_subset(k_complete(3), {0, 1, 2})

    def test_path_endpoints_not_connected(self):
        assert not is_connected_subset(path_graph(3), {0, 2})

    def test_chordal_fixture_def(self):
        g = counterexample_chordal()
        # D, E, F = 3, 4, 5 form a triangle in the fixture
        assert g.has_edge(3, 4) and g.has_edge(3, 5) and g.has_edge(4, 5)
        assert is_connected_subset(g, {3, 4, 5})

    def test_empty_subset_error(self):
        with pytest.raises(GraphError, match="empty-subset"):
            is_connected_subset(path_graph(3), set())


class TestDominates:
    def test_star_center(self):
        star = Graph(6, [(0, i) for i in range(1, 6)])
        assert dominates(star, {0})

    def test_path_end_does_not_dominate(self):
        assert not dominates(path_graph(5), {0})

    def test_chordal_fixture_bde(self):
        g = counterexample_chordal()
        s = {1, 3, 4}  # B, D, E
        # independent check: every vertex outside s has a neighbor in s
        expected = all(v in s or bool(g.neighbor_set(v) & s) for v in range(6))
        assert expected
        assert dominates(g, s)

    @given(st.integers(0, 200))
    def test_monotone_under_growth(self, seed):
        g = random_graph(seed, 9, 12)
        rngv = seed % 9
        base = {rngv}
        grown = set(range(0, 5)) | base
        if dominates(g, base):
            assert dominates(g, grown)


class TestOpenNeighborhood:
    def test_path_middle(self):
        assert open_neighborhood(path_graph(3), {1}) == {0, 2}

    def test_whole_graph_empty(self):
        assert open_neighborhood(path_graph(3), {0, 1, 2}) == frozenset()

    def test_convex_fixture_b4(self):
        g = counterexample_convex()
        # b4 (vertex 8) is adjacent to the whole A side a1..a5 = 0..4
        assert open_neighborhood(g, {8}) == {0, 1, 2, 3, 4}

    @given(st.integers(0, 200), st.integers(1, 8))
    def test_disjoint_from_input(self, seed, size):
        g = random_graph(seed, 10, 15)
        s = set(range(size))
        assert not (open_neighborhood(g, s) & s)


class TestSpanningTree:
    def test_triangle_bfs_from_zero(self):
        assert spanning_tree(k_complete(3), {0, 1, 2}) == ((0, 1), (0, 2))

    def test_single_vertex(self):
        assert spanning_tree(path_graph(3), {1}) == ()

    def test_c4_acyclic(self):
        edges = spanning_tree(cycle_graph(4), {0, 1, 2, 3})
        assert len(edges) == 3
        # acyclicity: union-find over the returned edges never merges twice
        parent = list(range(4))

        def find(x):
            while parent[x] != x:
                x = parent[x]
            return x

        for u, v in edges:
            ru, rv = find(u), find(v)
            assert ru != rv
            parent[ru] = rv

    def test_disconnected_error(self):
        with pytest.raises(GraphError, match="not-connected"):
            spanning_tree(path_graph(4), {0, 3})


class TestVertexConnectivity:
    def test_complete_convention(self):
        assert vertex_connectivity(k_complete(5)) == 4

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(6)) == 2

    def test_fixture_connectivities(self):
        assert vertex_connectivity(counterexample_chordal()) == 2
        assert vertex_connectivity(counterexample_convex()) == 2

    def test_degenerate(self):
        with pytest.raises(GraphError, match="degenerate-graph"):
            vertex_connectivity(Graph(1, []))

    def test_disconnected_is_zero(self):
        assert vertex_connectivity(Graph(4, [(0, 1), (2, 3)])) == 0

    @pytest.mark.parametrize("seed", range(40))
    def test_matches_brute_force(self, seed):
        n = 5 + seed % 6
        g = random_graph(seed, n, n + seed % 8, connected=seed % 3 != 0)
        assert vertex_connectivity(g) == brute_vertex_connectivity(g)

    @pytest.mark.parametrize("seed", range(12))
    def test_matches_networkx(self, seed):
        # beyond brute-force reach: n = 30..200, from sparse to dense
        nx = pytest.importorskip("networkx")
        n = 30 + seed * 15
        m = n * (1 + seed % 4) + (seed % 3) * n // 2
        g = random_graph(1000 + seed, n, m, connected=seed % 4 != 3)
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(g.edges())
        kappa = vertex_connectivity(g)
        assert kappa == nx.node_connectivity(h)
        for k in range(kappa + 2):
            assert is_k_connected(g, k) == (kappa >= k)

    @pytest.mark.parametrize("seed", range(12))
    def test_is_k_connected_agrees(self, seed):
        g = random_graph(seed, 8, 12, connected=True)
        kappa = vertex_connectivity(g)
        assert is_k_connected(g, kappa)
        assert not is_k_connected(g, kappa + 1)


class TestDominatingTree:
    def test_validates(self):
        g = k_complete(4)
        DominatingTree(frozenset({0, 1}), ((0, 1),)).validate(g)

    def test_edge_count_mismatch(self):
        g = k_complete(4)
        with pytest.raises(GraphError, match="not-a-tree"):
            DominatingTree(frozenset({0, 1, 2}), ((0, 1),)).validate(g)

    def test_non_graph_edge(self):
        g = path_graph(4)
        with pytest.raises(GraphError, match="not-a-tree"):
            DominatingTree(frozenset({0, 2}), ((0, 2),)).validate(g)

    def test_non_dominating(self):
        g = path_graph(5)
        with pytest.raises(GraphError, match="not-dominating"):
            DominatingTree(frozenset({0, 1}), ((0, 1),)).validate(g)

