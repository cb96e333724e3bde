import os
import subprocess
import sys
from pathlib import Path

import pytest

import cdspart.flows as flows_module
import reference_flows as ref
from cdspart.flows import (
    _check_paths,
    _SplitNetwork,
    check_path,
    make_induced,
    vertex_disjoint_paths,
)
from cdspart.generators import SplitMix64, gen_biconvex, gen_convex, gen_interval
from cdspart.graphs import (
    Graph,
    GraphError,
    _connectivity_capped,
    is_k_connected,
    vertex_connectivity,
)

from conftest import edges_of, fixture_graph, graph_of, random_graph
from reference_oracles import brute_min_vertex_cut


def k_complete(n):
    return graph_of(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


class TestVertexDisjointPaths:
    def test_k4_three_paths(self):
        paths = vertex_disjoint_paths(k_complete(4), 0, 3, want=3)
        assert paths == ((0, 3), (0, 1, 3), (0, 2, 3))

    def test_cut_vertex_limits(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        assert vertex_disjoint_paths(g, 0, 2, want=2) == ((0, 1, 2),)

    def test_convex_fixture_two_paths(self):
        g = fixture_graph("fig1-convex.gl")
        cut = brute_min_vertex_cut(g, 0, 4)
        assert cut == 2
        paths = vertex_disjoint_paths(g, 0, 4, want=2)
        assert len(paths) == 2
        ref.check_family(g, 0, 4, paths)

    def test_identical_endpoints(self):
        with pytest.raises(GraphError, match="identical-endpoints"):
            vertex_disjoint_paths(k_complete(3), 1, 1)

    def test_want_below_one(self):
        with pytest.raises(GraphError, match="^bad-want: want=0$"):
            vertex_disjoint_paths(k_complete(3), 0, 1, want=0)

    @pytest.mark.parametrize("seed", range(30))
    def test_count_matches_brute_cut(self, seed):
        n = 6 + seed % 7
        g = random_graph(seed, n, n + 4 + seed % 6, connected=True)
        s, t = 0, n - 1
        paths = vertex_disjoint_paths(g, s, t)
        ref.check_family(g, s, t, paths)
        assert len(paths) == _SplitNetwork(g).max_flow(s, t, None)
        assert len(paths) == brute_min_vertex_cut(g, s, t)


class TestIdsOutsideTheGraph:
    """An id outside 0..n-1 is named, not read as another vertex (index -1
    is the last one) or as a node of the flow network."""

    TRIANGLE = [[1, 2], [0, 2], [0, 1]]

    # the (-1, 0) query runs in a subprocess below
    @pytest.mark.parametrize("s, t, bad", [(0, 5, 5), (0, -1, -1), (5, 0, 5), (-1, 5, -1)])
    def test_vertex_disjoint_paths(self, s, t, bad):
        with pytest.raises(GraphError, match=f"bad-vertex: {bad} is not in 0..2"):
            vertex_disjoint_paths(Graph(self.TRIANGLE), s, t)

    def test_negative_source_returns_at_once(self):
        # apart from the suite: source -1 would be the network's last node,
        # which the push never walks back to, so the query could not return
        script = (
            "from cdspart.flows import vertex_disjoint_paths\n"
            "from cdspart.graphs import Graph, GraphError\n"
            "try:\n"
            f"    vertex_disjoint_paths(Graph({self.TRIANGLE}), -1, 0)\n"
            "except GraphError as exc:\n"
            "    print(exc.code)\n"
        )
        src = str(Path(flows_module.__file__).resolve().parent.parent)
        out = subprocess.run(
            [sys.executable, "-c", script], env=dict(os.environ, PYTHONPATH=src),
            capture_output=True, text=True, check=True, timeout=60,
        )
        assert out.stdout.split() == ["bad-vertex"]

    @pytest.mark.parametrize(
        "p, bad", [((-1, 0), -1), ((0, -1), -1), ((5, 0), 5), ((1, 5), 5), ((3,), 3), ((-1,), -1)]
    )
    def test_check_path(self, p, bad):
        with pytest.raises(GraphError, match=f"bad-vertex: {bad} is not in 0..2"):
            check_path(Graph(self.TRIANGLE), p)

    def test_make_induced(self):
        with pytest.raises(GraphError, match="bad-vertex: -1 is not in 0..2"):
            make_induced(Graph(self.TRIANGLE), (-1, 1))


@pytest.mark.parametrize("p, message", [
    ((), "^empty-path$"),
    ((0, 1, 0), r"^repeated-vertex: \(0, 1, 0\)$"),
    ((0, 2), r"^not-a-path: missing edge \(0, 2\)$"),
])
def test_check_path_names_the_fault(p, message):
    # the path 0-1-2: (0, 2) is no edge
    with pytest.raises(GraphError, match=message):
        check_path(graph_of(3, [(0, 1), (1, 2)]), p)


class TestLocalConnectivity:
    def test_complete(self):
        g = k_complete(5)
        assert _SplitNetwork(g).max_flow(0, 4, None) == 4

    def test_star(self):
        star = graph_of(5, [(0, i) for i in range(1, 5)])
        assert _SplitNetwork(star).max_flow(0, 3, None) == 1

    def test_adjacent_edge_counts(self):
        g = graph_of(2, [(0, 1)])
        assert _SplitNetwork(g).max_flow(0, 1, None) == 1


class TestMakeInduced:
    def test_chordless_path_unchanged(self):
        g = graph_of(5, [(i, (i + 1) % 5) for i in range(5)])
        assert make_induced(g, (0, 1, 2, 3)) == (0, 1, 2, 3)

    def test_endpoint_edge_counts_as_chord(self):
        # the full C_5 path closes into a cycle, so it is not induced
        g = graph_of(5, [(i, (i + 1) % 5) for i in range(5)])
        assert make_induced(g, (0, 1, 2, 3, 4)) == (0, 4)

    def test_triangle_shortcut(self):
        g = k_complete(3)
        assert make_induced(g, (0, 1, 2)) == (0, 2)

    @pytest.mark.parametrize("seed", range(25))
    def test_output_is_induced(self, seed):
        n = 7 + seed % 6
        g = random_graph(seed, n, 2 * n, connected=True)
        (p,) = vertex_disjoint_paths(g, 0, n - 1, want=1)
        q = make_induced(g, p)
        check_path(g, q)
        assert q[0] == p[0] and q[-1] == p[-1]
        assert set(q) <= set(p)
        for i in range(len(q)):
            for j in range(i + 2, len(q)):
                assert q[j] not in g.adj[q[i]]

    @pytest.mark.parametrize("seed", range(15))
    def test_shortening_preserves_family_disjointness(self, seed):
        n = 8 + seed % 6
        g = random_graph(seed, n, 3 * n, connected=True)
        shortened = tuple(make_induced(g, p) for p in vertex_disjoint_paths(g, 0, n - 1))
        ref.check_family(g, 0, n - 1, shortened)


class TestMakeInducedAgainstTheSpliceLoop:
    """The forward pass equals the chord-splice loop it replaced."""

    def test_random_graphs_and_paths(self):
        shortened = 0
        for seed in range(3000):
            rng = SplitMix64(seed)
            n = 2 + seed % 23
            order = list(range(n))
            rng.shuffle(order)
            p = tuple(order[: rng.randint(1, n)])
            edges = {(min(a, b), max(a, b)) for a, b in zip(p, p[1:])}
            for _ in range(rng.randint(0, 2 * n)):
                u, v = rng.randint(0, n - 1), rng.randint(0, n - 1)
                if u != v:
                    edges.add((min(u, v), max(u, v)))
            g = graph_of(n, sorted(edges))
            q = make_induced(g, p)
            assert q == ref.make_induced_splice(g, p), seed
            shortened += len(q) < len(p)
        assert 1000 < shortened < 2900

    @pytest.mark.parametrize("seed", range(3))
    def test_biconvex_backbones(self, seed):
        m = gen_biconvex(300, 330, 4, seed)
        g = m.graph
        paths = vertex_disjoint_paths(g, m.a_id(0), m.a_id(m.na - 1), want=4)
        assert len(paths) == 4
        for p in paths:
            assert make_induced(g, p) == ref.make_induced_splice(g, p)
        # flow paths are shortest, so chordless; a walk that steps through
        # A one vertex at a time over unused B-vertices has many chords
        walk, used = [m.a_id(0)], set()
        for i in range(m.na - 1):
            b = min(m.b_id(j) for j, (lo, hi) in enumerate(m.windows)
                    if lo <= i < hi and m.b_id(j) not in used)
            used.add(b)
            walk += [b, m.a_id(i + 1)]
        q = make_induced(g, tuple(walk))
        assert q == ref.make_induced_splice(g, tuple(walk))
        assert len(q) < len(walk) // 4


def test_family_validate_rejects_overlap():
    # the self-check `vertex_disjoint_paths` runs on its family, fed two
    # copies of one path
    with pytest.raises(GraphError, match="not-disjoint"):
        _check_paths(k_complete(4), 0, 3, ((0, 1, 3), (0, 1, 3)))


def oracle_graphs():
    """Seeded random graphs (n <= 40, four densities) and small models."""
    for seed in range(48):
        n = 4 + seed % 37
        density = (0.1, 0.25, 0.5, 0.8)[seed % 4]
        yield f"random-{seed}", random_graph(seed, n, int(density * n * (n - 1) / 2))
    for seed in range(3):
        yield f"biconvex-{seed}", gen_biconvex(16, 18, 2 + seed, seed).derive_graph()
        yield f"convex-{seed}", gen_convex(16, 24, 4, seed).derive_graph()
        yield f"interval-{seed}", gen_interval(20, 2 + seed, seed).derive_graph()


def query_pairs(g, seed, count=5):
    rng = SplitMix64(seed)
    pairs = []
    while len(pairs) < count:
        s, t = rng.randint(0, g.n - 1), rng.randint(0, g.n - 1)
        if s != t:
            pairs.append((s, t))
    return pairs


class TestAgainstReferenceFlows:
    """The shared network answers as a fresh per-pair network does
    (tests/reference_flows.py): values and path families alike."""

    @pytest.mark.parametrize("g", [pytest.param(g, id=name) for name, g in oracle_graphs()])
    def test_connectivity_and_queries(self, g):
        kappa = ref.connectivity_capped(g, g.n - 1)
        assert vertex_connectivity(g) == kappa
        for k in range(1, 6):
            assert is_k_connected(g, k) == (ref.connectivity_capped(g, k) >= k)
        for s, t in query_pairs(g, g.n + g.m):
            assert _SplitNetwork(g).max_flow(s, t, None) == ref.local_connectivity(g, s, t)
            for cap in (1, 2, 3):
                want = ref.local_connectivity(g, s, t, cap)
                assert _SplitNetwork(g).max_flow(s, t, cap) == want
            assert vertex_disjoint_paths(g, s, t) == ref.disjoint_paths(g, s, t)
            assert vertex_disjoint_paths(g, s, t, want=2) == ref.disjoint_paths(g, s, t, 2)

    @pytest.mark.parametrize("seed", range(12))
    def test_reused_network_answers_as_fresh_ones(self, seed):
        # one network, many queries: capped ones stop with flow still on the
        # network, and the next query must not see it; the reused network
        # has built more rows than a fresh one, so their residual states are
        # compared in vertex terms, not as arc arrays
        n = 12 + seed
        g = random_graph(seed, n, n * (2 + seed % 4), connected=True)
        net = _SplitNetwork(g)
        caps = [None, 1, 2, None, 3, 1]
        for i, (s, t) in enumerate(query_pairs(g, seed, count=12)):
            cap = caps[i % len(caps)]
            assert net.max_flow(s, t, cap) == ref.local_connectivity(g, s, t, cap)
            paths = sorted(net.extract_paths(), key=lambda p: (len(p), p))
            assert tuple(paths) == ref.disjoint_paths(g, s, t, cap)
            fresh = _SplitNetwork(g)
            fresh.max_flow(s, t, cap)
            assert residual(g, net) == residual(g, fresh)
        # every row was built once, however many queries scanned it
        built = [v for v in range(n) if isinstance(net.out[2 * v + 1], list)]
        assert len(net.to) == net.base + 2 * sum(len(g.adj[v]) for v in built)


def residual(g, net):
    """The residual state of a network over g in vertex terms, whatever rows
    it has built.  An arc is named by its (tail, head) nodes, 2v and 2v + 1
    for the in- and out-copy of v.  The first part maps each arc whose
    capacity differs from a fresh network's to its capacity: the directed
    edges that carry flow, their open reverse arcs and the used split arcs.
    The second lists every node's arcs; a row not built yet reads as the
    one it would build."""
    to, cap = net.to, net.cap
    changed = {(to[a ^ 1], to[a]): cap[a] for a in range(len(to)) if cap[a] != 1 - a % 2}
    lists = [
        [(to[a ^ 1], to[a]) for a in row] if isinstance(row, list)
        else [(x, x - 1), *((x, 2 * w) for w in sorted(g.adj[x // 2]))]
        for x, row in enumerate(net.out)
    ]
    return changed, lists


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_backbone_query_builds_few_rows(monkeypatch, seed):
    # a_1 -> a_na for k = 2 on a dense convex model: the searches reach a
    # handful of out-copies, so the network builds a handful of rows, not
    # the 2m edge arcs of the whole graph
    m = gen_convex(300, 600, 8, seed)
    g, k = m.graph, 2
    nets = []
    init = _SplitNetwork.__init__

    def kept_init(self, graph):
        nets.append(self)
        init(self, graph)

    monkeypatch.setattr(flows_module._SplitNetwork, "__init__", kept_init)
    assert len(vertex_disjoint_paths(g, m.a_id(0), m.a_id(m.na - 1), want=k)) == k
    (net,) = nets
    rows = sum(isinstance(row, list) for row in net.out[1::2])
    edge_arcs = (len(net.to) - net.base) // 2
    assert 1 <= rows <= 2 * k + 1
    assert edge_arcs < 0.01 * 2 * g.m


def test_one_network_per_connectivity_check(monkeypatch):
    g = gen_biconvex(40, 44, 3, 7).derive_graph()
    built = []
    init = _SplitNetwork.__init__

    def counted_init(self, graph):
        built.append(graph)
        init(self, graph)

    monkeypatch.setattr(flows_module._SplitNetwork, "__init__", counted_init)
    assert is_k_connected(g, 3)
    assert built == [g]
    built.clear()
    assert vertex_connectivity(g) == 3
    assert built == [g]


def random_bipartite(seed, na, nb, m, connected):
    """Seeded bipartite graph with no isolated vertex.  The A side takes ids
    below the B side when seed is even and above it when odd, so v0 falls
    on either side.  A disconnected one keeps A-index and B-index parity
    equal on every edge, which leaves two components."""
    rng = SplitMix64(seed)
    a_ids = range(na) if seed % 2 == 0 else range(nb, nb + na)
    b_ids = range(na, na + nb) if seed % 2 == 0 else range(nb)
    pairs = set()
    if connected:  # a zigzag through both sides
        for i in range(max(na, nb)):
            pairs.add((i % na, i % nb))
            pairs.add((i % na, (i + 1) % nb))
    else:  # one star per parity class
        pairs.update((i, i % 2) for i in range(na))
        pairs.update((j % 2, j) for j in range(nb))
    while len(pairs) < m:
        i, j = rng.randint(0, na - 1), rng.randint(0, nb - 1)
        if connected or i % 2 == j % 2:
            pairs.add((i, j))
    return graph_of(na + nb, sorted(tuple(sorted((a_ids[i], b_ids[j]))) for i, j in pairs))


def settled_graphs():
    """Bipartite graphs, where the settled set is a whole side, and small
    convex and biconvex models."""
    for seed in range(24):
        na, nb = 3 + seed % 7, 4 + seed % 5
        connected = seed % 6 != 5
        # a disconnected graph has at least na * nb / 2 same-parity pairs
        m = min(na * nb * (3 if connected else 2) // 4, (na + nb) * (1 + seed % 4))
        yield f"bipartite-{seed}", random_bipartite(seed, na, nb, m, connected)
    for seed in range(6):
        yield f"convex-{seed}", gen_convex(10 + seed, 14 + 2 * seed, 2 + seed % 3, seed).derive_graph()
        yield f"biconvex-{seed}", gen_biconvex(12 + seed, 14 + seed, 1 + seed % 4, seed).derive_graph()


# kappa = 1: vertex 2 cuts {1, 5} off.  v0 = 0 and its non-neighbours are
# 1, 4, 5, 6, of which 1, 4 and 6 are settled; only the flow to 5 sees the
# cut, so settling 5 as well (say, every second non-neighbour) reads 2.
PINNED = graph_of(7, [(0, 2), (0, 3), (1, 2), (1, 5), (2, 3), (2, 4), (2, 5), (2, 6), (3, 4), (3, 6)])


class TestSettledNonNeighbours:
    """Non-neighbours of v0 settled without a flow leave every answer of
    the minimum-degree schedule unchanged."""

    @pytest.mark.parametrize(
        "g", [pytest.param(g, id=name) for name, g in [*settled_graphs(), ("pinned", PINNED)]]
    )
    def test_matches_reference_and_networkx(self, g):
        nx = pytest.importorskip("networkx")
        h = nx.Graph()
        h.add_nodes_from(range(g.n))
        h.add_edges_from(edges_of(g))
        kappa = nx.node_connectivity(h)
        for cap in (1, 2, 3, 4, 5, g.n - 1):
            assert _connectivity_capped(g, cap) == ref.connectivity_capped(g, cap) == min(cap, kappa)

    def test_pinned_counterexample(self):
        assert vertex_connectivity(PINNED) == 1
        assert is_k_connected(PINNED, 1) and not is_k_connected(PINNED, 2)

    @pytest.mark.parametrize("seed", (1588158089, 101, 7))
    def test_flow_count_on_biconvex(self, monkeypatch, seed):
        # one flow per unsettled non-neighbour of v0 and per non-adjacent
        # pair of its neighbours; a schedule without the settled set runs
        # about twice as many
        g = gen_biconvex(200, 220, 4, seed).derive_graph()
        flows = []
        max_flow = _SplitNetwork.max_flow

        def counted(self, s, t, limit):
            flows.append((s, t))
            return max_flow(self, s, t, limit)

        monkeypatch.setattr(flows_module._SplitNetwork, "max_flow", counted)
        assert is_k_connected(g, 4)
        v0 = min(range(g.n), key=lambda v: (len(g.adj[v]), v))
        non_nbrs = [u for u in range(g.n) if u != v0 and u not in g.adj[v0]]
        settled = set()
        for u in non_nbrs:
            if not g.adj[u] & settled:
                settled.add(u)
        nbrs = sorted(g.adj[v0])
        nbr_pairs = [(x, y) for x in nbrs for y in nbrs if x < y and y not in g.adj[x]]
        assert settled
        assert len(flows) == len(non_nbrs) - len(settled) + len(nbr_pairs)
