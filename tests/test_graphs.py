import dataclasses
import random

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdspart.graphs import (
    DominatingTree,
    Graph,
    GraphError,
    dominates,
    first_non_dominating,
    is_connected_subset,
    is_k_connected,
    spanning_tree,
    vertex_connectivity,
)
from cdspart.engine import GLInstance, solve
from cdspart.flows import vertex_disjoint_paths
from cdspart.builders import cds_biconvex, cds_convex, extend_to_partition
from cdspart.generators import gen_biconvex, gen_convex, gen_gl_extension, gen_planted_cds

from conftest import edges_of, fixture_graph, graph_of, random_graph
from reference_oracles import brute_vertex_connectivity


def k_complete(n):
    return graph_of(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path_graph(n):
    return graph_of(n, [(i, i + 1) for i in range(n - 1)])


def cycle_graph(n):
    return graph_of(n, [(i, (i + 1) % n) for i in range(n)])


class TestGraphConstruction:
    def test_counts(self):
        g = graph_of(4, [(0, 1), (2, 3)])
        assert g.n == 4 and g.m == 2
        assert g.adj[0] == {1}

    def test_rejects_self_loop(self):
        with pytest.raises(GraphError, match="bad-adjacency"):
            graph_of(3, [(1, 1)])

    def test_rejects_duplicate(self):
        with pytest.raises(GraphError, match="bad-adjacency"):
            graph_of(3, [(0, 1), (1, 0)])

    @given(st.integers(0, 400))
    def test_adjacency_symmetry(self, seed):
        g = random_graph(seed, 10, 14)
        for u in range(g.n):
            for v in g.adj[u]:
                assert u in g.adj[v]

    def test_degree_sum_is_twice_edges(self):
        g = random_graph(7, 12, 20)
        assert sum(map(len, g.adj)) == 2 * g.m

    @pytest.mark.parametrize("seed", range(12))
    def test_edges_are_the_sorted_pairs(self, seed):
        g = random_graph(seed, 1 + 9 * seed, 4 * seed * (1 + seed % 3))
        pairs = sorted((u, v) for u in range(g.n) for v in g.adj[u] if u < v)
        assert edges_of(g) == pairs
        assert len(pairs) == g.m


class TestFromLists:
    """`Graph(adj)`, the one constructor, reads lists in any order."""

    def test_equals_the_edge_list_constructor(self):
        for seed in range(40):
            g = random_graph(seed, 1 + seed % 12, 3 * (seed % 7))
            lists = [sorted(g.adj[v], reverse=True) for v in range(g.n)]
            h = Graph(lists)
            assert (h.n, h.m, h.adj) == (g.n, g.m, g.adj)

    @pytest.mark.parametrize("seed", range(6))
    def test_adj_is_a_tuple_of_the_lists_sets(self, seed):
        lists = shuffled_lists(random_graph(seed, 3 + 5 * seed, 4 * seed), seed)
        g = Graph(lists)
        assert type(g.adj) is tuple
        assert all(g.adj[v] == frozenset(lists[v]) for v in range(g.n))
        assert all(type(a) is frozenset for a in g.adj)

    def test_empty(self):
        g = Graph([])
        assert (g.n, g.m) == (0, 0)

    @pytest.mark.parametrize("lists", [[[1, 1], [0, 0]], [[0, 0]], [[1, 0], [0, 0]]])
    def test_rejects_a_repeated_entry_or_a_self_loop(self, lists):
        with pytest.raises(GraphError, match="bad-adjacency"):
            Graph(lists)


def shuffled_lists(g, seed):
    rng = random.Random(seed)
    return [rng.sample(sorted(a), len(a)) for a in g.adj]


class TestOrderIndependence:
    """A graph built from its lists in any order is the same graph to every
    reader: no result may depend on the sets' iteration order, which does
    depend on the order the lists came in."""

    @pytest.mark.parametrize("seed", range(6))
    def test_walks_and_flows(self, seed):
        g = random_graph(seed, 40 + 20 * seed, 150 + 60 * seed, connected=True)
        h = Graph(shuffled_lists(g, seed))
        # the test has teeth: some set iterates in another order
        assert any(list(a) != list(b) for a, b in zip(g.adj, h.adj))
        assert (h.n, h.m, h.adj) == (g.n, g.m, g.adj)
        assert edges_of(h) == edges_of(g)
        rng = random.Random(seed)
        for _ in range(20):
            s = set(rng.sample(range(g.n), rng.randint(1, g.n)))
            assert _tree_outcome(h, s) == _tree_outcome(g, s)
            u, v = rng.sample(range(g.n), 2)
            assert vertex_disjoint_paths(h, u, v) == vertex_disjoint_paths(g, u, v)
        assert vertex_connectivity(h) == vertex_connectivity(g)

    @pytest.mark.parametrize("seed", range(4))
    def test_planted_solve(self, seed):
        n, k = 150, 5 + seed
        g, trees = gen_planted_cds(n, k, 300, seed)
        t, d = gen_gl_extension(n, k, seed)
        h = Graph(shuffled_lists(g, seed))
        assert any(list(a) != list(b) for a, b in zip(g.adj, h.adj))
        outs = []
        for graph in (g, h):
            # each graph's trees are built on it, from the planted sets
            trees_here = [DominatingTree(graph, tree.vertices) for tree in trees]
            trace = []
            blocks = solve(GLInstance(graph, t, d), trees_here, trace=trace)
            outs.append(([tree.edges for tree in trees_here], blocks, trace))
        assert outs[0] == outs[1]

    @pytest.mark.parametrize("seed", range(4))
    def test_window_builders(self, seed):
        # sizes at which some rows hold ids that collide in their hash tables
        convex = gen_convex(100 + 20 * seed, 200 + 20 * seed, 8, seed)
        biconvex = gen_biconvex(150 + 20 * seed, 180 + 20 * seed, 4, seed)
        for m, builds in [(convex, [(cds_convex, 2)]), (biconvex, [(cds_biconvex, 4), (cds_convex, 1)])]:
            twin = dataclasses.replace(m)  # the same windows, no graph yet
            object.__setattr__(twin, "_graph", Graph(shuffled_lists(m.graph, seed)))
            # the test has teeth: some row iterates in another order
            assert any(list(a) != list(b) for a, b in zip(m.graph.adj, twin.graph.adj))
            assert twin.graph.adj == m.graph.adj
            for build, k in builds:
                fams = [build(model, k) for model in (m, twin)]
                assert fams[0] == fams[1]
                parts = [extend_to_partition(model.n, fam) for model, fam in zip((m, twin), fams)]
                assert parts[0] == parts[1]


def _tree_outcome(g, s):
    try:
        return spanning_tree(g, s)
    except GraphError as exc:
        return exc.code


class TestConnectedSubset:
    def test_triangle(self):
        assert is_connected_subset(k_complete(3), {0, 1, 2})

    def test_path_endpoints_not_connected(self):
        assert not is_connected_subset(path_graph(3), {0, 2})

    def test_chordal_fixture_def(self):
        g = fixture_graph("fig1-chordal.gl")
        # D, E, F = 3, 4, 5 form a triangle in the fixture
        assert 4 in g.adj[3] and 5 in g.adj[3] and 5 in g.adj[4]
        assert is_connected_subset(g, {3, 4, 5})

    def test_empty_subset_error(self):
        with pytest.raises(GraphError, match="empty-subset"):
            is_connected_subset(path_graph(3), set())

    def test_empty_subset_error_on_large_graph(self):
        with pytest.raises(GraphError, match="empty-subset"):
            is_connected_subset(random_graph(3, 120, 400), [])

    @pytest.mark.parametrize("s", [{-1, 7}, {8, 9}, {0, -9}])
    def test_id_out_of_range(self, s):
        # without the check, -1 reads vertex 8's neighbours and {-1, 7}
        # passes as connected
        with pytest.raises(GraphError, match="bad-vertex"):
            is_connected_subset(path_graph(9), s)

    def test_matches_networkx(self):
        # n = 30..200, sparse to dense; subsets from singletons to all of V,
        # half of them grown as connected pieces and then perhaps cut
        nx = pytest.importorskip("networkx")
        outcomes = set()
        for seed in range(12):
            n = 30 + seed * 15
            g = random_graph(2000 + seed, n, n * (1 + seed % 5) // 2)
            h = nx.Graph()
            h.add_nodes_from(range(g.n))
            h.add_edges_from(edges_of(g))
            rng = random.Random(seed)
            for trial in range(25):
                size = 1 if trial < 3 else rng.randint(2, n)
                if trial % 2:
                    s = set(rng.sample(range(n), size))
                else:
                    s = {rng.randrange(n)}
                    frontier = sorted(s)
                    while frontier and len(s) < size:
                        x = frontier.pop(rng.randrange(len(frontier)))
                        for y in sorted(g.adj[x]):
                            if y not in s and len(s) < size:
                                s.add(y)
                                frontier.append(y)
                    if len(s) > 2 and rng.random() < 0.5:
                        s.discard(rng.choice(sorted(s)))
                expected = nx.is_connected(h.subgraph(s))
                assert is_connected_subset(g, s) == expected, (seed, trial)
                outcomes.add(expected)
        assert outcomes == {True, False}


class TestDominates:
    def test_star_center(self):
        star = graph_of(6, [(0, i) for i in range(1, 6)])
        assert dominates(star, {0})

    def test_path_end_does_not_dominate(self):
        assert not dominates(path_graph(5), {0})

    def test_chordal_fixture_bde(self):
        g = fixture_graph("fig1-chordal.gl")
        s = {1, 3, 4}  # B, D, E
        # independent check: every vertex outside s has a neighbor in s
        expected = all(v in s or bool(g.adj[v] & s) for v in range(6))
        assert expected
        assert dominates(g, s)

    def test_matches_the_per_vertex_definition(self):
        outcomes = set()
        for seed in range(300):
            rng = random.Random(seed)
            n = rng.randint(1, 14)
            g = random_graph(seed, n, rng.randint(0, n * (n - 1) // 2))
            # members outside 0..n-1 cover nothing
            s = set(rng.sample(range(-2, n + 2), rng.randint(0, n + 4)))
            expected = all(v in s or g.adj[v] & s for v in range(n))
            assert dominates(g, s) == expected, seed
            assert dominates(g, iter(s)) == expected, seed
            outcomes.add(expected)
        assert outcomes == {True, False}

    @given(st.integers(0, 200))
    def test_monotone_under_growth(self, seed):
        g = random_graph(seed, 9, 12)
        rngv = seed % 9
        base = {rngv}
        grown = set(range(0, 5)) | base
        if dominates(g, base):
            assert dominates(g, grown)


class TestAllDominate:
    """The one-pass check names the lowest set whose `dominates` fails."""

    @staticmethod
    def agree(g, sets):
        expected = next((i for i, s in enumerate(sets) if not dominates(g, s)), None)
        assert first_non_dominating(g, sets) == expected
        return expected

    def test_planted_families(self):
        outcomes = set()
        for seed in range(30):
            k = 2 + seed % 7
            n = 4 * k + (seed * 13) % 90
            g, trees = gen_planted_cds(n, k, n // 4, seed)
            sets = [set(t.vertices) for t in trees]
            assert self.agree(g, sets) is None
            rng = random.Random(seed)
            for _ in range(6):
                cut = [set(s) for s in sets]
                victim = cut[rng.randrange(k)]
                for v in rng.sample(sorted(victim), rng.randint(1, len(victim))):
                    victim.discard(v)
                outcomes.add(self.agree(g, cut) is None)
        assert outcomes == {True, False}

    def test_random_disjoint_and_overlapping_sets(self):
        outcomes = set()
        for seed in range(60):
            rng = random.Random(seed)
            n = rng.randint(1, 40)
            g = random_graph(seed, n, rng.randint(0, n * (n - 1) // 2))
            k = rng.randint(1, 5)
            if seed % 2:
                order = rng.sample(range(n), n)
                cuts = sorted(rng.randint(0, n) for _ in range(k - 1))
                sets = [set(order[a:b]) for a, b in zip([0] + cuts, cuts + [n])]
            else:
                sets = [set(rng.sample(range(n), rng.randint(0, n))) for _ in range(k)]
            outcomes.add(self.agree(g, sets))
        # the lowest failing index is found, not just some failing index
        assert None in outcomes and outcomes - {None, 0}

    def test_edge_cases(self):
        g = path_graph(5)
        assert first_non_dominating(g, []) is None
        assert first_non_dominating(g, [set()]) == 0
        assert first_non_dominating(g, [{1, 3}, {0, 2, 4}]) is None
        assert first_non_dominating(g, [{1, 3}, {0, 4}]) == 1
        assert first_non_dominating(g, [{0}, {1, 3}, {4}]) == 0
        # members outside 0..n-1 cover nothing, as in `dominates`
        assert self.agree(g, [{1, 3, 7}, {0, 2, 4, -1}]) is None
        assert self.agree(g, [{1, 3, 7}, {0, 4, -1}]) == 1


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

    @pytest.mark.parametrize("s", [{-1, 1}, {1, 3}])
    def test_id_out_of_range(self, s):
        # without the check, -1 reads vertex 2's neighbours and yields the
        # non-edge (-1, 1)
        with pytest.raises(GraphError, match="bad-vertex"):
            spanning_tree(path_graph(3), s)

    @pytest.mark.parametrize("seed", range(20))
    def test_equals_the_ascending_scan(self, seed):
        rng = random.Random(seed)
        n = 5 + 6 * seed
        g = random_graph(seed, n, n * (1 + seed % 4) // 2, connected=seed % 2 == 0)
        outcomes = set()
        for trial in range(30):
            size = rng.randint(1, n)
            if trial % 2:
                s = set(rng.sample(range(n), size))
            else:  # a connected piece, unless its component is smaller
                s = {rng.randrange(n)}
                frontier = sorted(s)
                while frontier and len(s) < size:
                    x = frontier.pop(rng.randrange(len(frontier)))
                    grow = sorted(g.adj[x] - s)[: size - len(s)]
                    s.update(grow)
                    frontier += grow
            want = _tree_outcome_by_scan(g, s)
            assert _tree_outcome(g, s) == want, (seed, trial)
            outcomes.add(isinstance(want, str))
        assert outcomes == {True, False}


def _tree_outcome_by_scan(g, s):
    """`spanning_tree`'s outcome by its former routine: each vertex scans
    all its neighbours in ascending id and skips seen vertices and
    non-members."""
    members = set(s)
    root = min(members)
    seen = {root}
    queue = [root]
    edges = []
    for x in queue:
        for y in sorted(g.adj[x]):
            if y in members and y not in seen:
                seen.add(y)
                edges.append((x, y))
                queue.append(y)
    return tuple(edges) if seen == members else "not-connected"


class TestVertexConnectivity:
    def test_complete_convention(self):
        assert vertex_connectivity(k_complete(5)) == 4

    def test_cycle(self):
        assert vertex_connectivity(cycle_graph(6)) == 2

    def test_fixture_connectivities(self):
        assert vertex_connectivity(fixture_graph("fig1-chordal.gl")) == 2
        assert vertex_connectivity(fixture_graph("fig1-convex.gl")) == 2

    def test_degenerate(self):
        with pytest.raises(GraphError, match="degenerate-graph"):
            vertex_connectivity(graph_of(1, []))

    def test_disconnected_is_zero(self):
        assert vertex_connectivity(graph_of(4, [(0, 1), (2, 3)])) == 0

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
        h.add_edges_from(edges_of(g))
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
        DominatingTree(g, {0, 1}).validate()

    def test_bfs_tree_from_the_lowest_id(self):
        t = DominatingTree(cycle_graph(5), [3, 4, 0, 1])
        assert t.vertices == frozenset({0, 1, 3, 4})
        assert t.edges == ((0, 1), (0, 4), (4, 3))
        assert t.adjacency() == {0: (1, 4), 1: (0,), 3: (4,), 4: (0, 3)}

    @pytest.mark.parametrize("vertices,message", [
        ((), "empty-subset"),
        ({0, 2}, "not-connected"),
        # -1 would index vertex 2 of the path 0-1-2, a neighbour of 1
        ({-1, 1}, "bad-vertex: -1 is not in 0..2"),
        ({1, 3}, "bad-vertex: 3 is not in 0..2"),
    ])
    def test_rejects(self, vertices, message):
        with pytest.raises(GraphError, match=message):
            DominatingTree(path_graph(3), vertices)

    def test_non_dominating(self):
        g = path_graph(5)
        with pytest.raises(GraphError, match="not-dominating"):
            DominatingTree(g, {0, 1}).validate()
