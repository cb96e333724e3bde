import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdspart.graphs import GraphError, vertex_connectivity
from cdspart.models import (
    BiconvexModel,
    ConvexModel,
    IntervalModel,
    _clique_path,
    interval_connectivity,
    interval_path_decomposition,
)
from cdspart.builders import cds_interval
from cdspart.generators import SplitMix64, gen_biconvex, gen_interval

from conftest import edges_of, graph_of


def random_interval_model(seed, n, span=None, lo_len=1, hi_len=6):
    rng = SplitMix64(seed)
    span = span or 2 * n
    lefts, rights = [], []
    for _ in range(n):
        a = rng.randint(1, span)
        lefts.append(a)
        rights.append(a + rng.randint(lo_len, hi_len))
    return IntervalModel(lefts=tuple(lefts), rights=tuple(rights))


# short intervals over a narrow span: ties, touching ends and gaps are common
_spans = st.lists(st.tuples(st.integers(0, 15), st.integers(0, 8)), max_size=14)


def _model(spans):
    return IntervalModel(
        lefts=tuple(a for a, _ in spans), rights=tuple(a + w for a, w in spans)
    )


class TestIntervalModel:
    def test_rejects_reversed(self):
        with pytest.raises(GraphError, match="bad-model"):
            IntervalModel(lefts=(3,), rights=(1,))

    def test_derive_overlap(self):
        m = IntervalModel(lefts=(1, 2, 5), rights=(3, 4, 6))
        g = m.derive_graph()
        assert 1 in g.adj[0] and 2 not in g.adj[0] and 2 not in g.adj[1]

    @given(_spans)
    def test_sweep_matches_the_pairwise_rule(self, spans):
        m = _model(spans)
        pairs = [
            (u, v)
            for u in range(m.n)
            for v in range(u + 1, m.n)
            if max(m.lefts[u], m.lefts[v]) <= min(m.rights[u], m.rights[v])
        ]
        assert m.derive_graph().adj == graph_of(m.n, pairs).adj


def check_path_decomposition(g, bags):
    """Raise unless all three path-decomposition axioms hold for g."""
    covered: set[int] = set()
    for b in bags:
        covered |= b
    if covered != set(range(g.n)):
        raise GraphError("bad-decomposition", "bags do not cover all vertices")
    for u, v in edges_of(g):
        if not any(u in b and v in b for b in bags):
            raise GraphError("bad-decomposition", f"edge ({u}, {v}) in no bag")
    for v in range(g.n):
        idxs = [i for i, b in enumerate(bags) if v in b]
        if idxs != list(range(idxs[0], idxs[-1] + 1)):
            raise GraphError("bad-decomposition", f"vertex {v} occurs non-contiguously")


class TestIntervalDecomposition:
    def test_identical_intervals_single_bag(self):
        m = IntervalModel(lefts=(1,) * 5, rights=(4,) * 5)
        bags = interval_path_decomposition(m)
        assert bags == (frozenset(range(5)),)
        assert max(map(len, bags)) - 1 == 4

    def test_three_step_chain(self):
        m = IntervalModel(lefts=(1, 2, 3), rights=(2, 3, 4))
        bags = interval_path_decomposition(m)
        assert bags == (frozenset({0, 1}), frozenset({1, 2}))
        assert max(map(len, bags)) - 1 == 1

    def test_empty_model_is_degenerate(self):
        m = IntervalModel(lefts=(), rights=())
        with pytest.raises(GraphError) as exc:
            interval_path_decomposition(m)
        assert (exc.value.code, str(exc.value)) == ("degenerate-graph", "degenerate-graph: n=0")
        with pytest.raises(GraphError, match="degenerate-graph: n=0"):
            cds_interval(m, 1)

    def test_disconnected_error(self):
        m = IntervalModel(lefts=(1, 10), rights=(2, 11))
        with pytest.raises(GraphError, match="disconnected"):
            interval_path_decomposition(m)

    @given(st.lists(st.tuples(st.integers(0, 15), st.integers(0, 8)), min_size=1, max_size=14))
    def test_raises_exactly_when_disconnected(self, spans):
        # short intervals over a narrow span: about 2 in 5 samples fall apart
        nx = pytest.importorskip("networkx")
        m = IntervalModel(
            lefts=tuple(a for a, _ in spans), rights=tuple(a + w for a, w in spans)
        )
        h = nx.Graph()
        h.add_nodes_from(range(m.n))
        h.add_edges_from(edges_of(m.derive_graph()))
        connected = nx.is_connected(h)
        try:
            interval_path_decomposition(m)
        except GraphError as exc:
            assert exc.code == "disconnected" and not connected
        else:
            assert connected
        if m.n >= 2:
            assert (interval_connectivity(m) == 0) == (not connected)

    @given(_spans)
    def test_sweep_matches_a_rescan_per_right_endpoint(self, spans):
        m = _model(spans)
        bags = []
        for r in sorted(set(m.rights)):
            bag = frozenset(v for v in range(m.n) if m.lefts[v] <= r <= m.rights[v])
            if not (bags and bag <= bags[-1]):
                bags.append(bag)
        assert _clique_path(m) == bags

    @pytest.mark.parametrize("seed", range(30))
    def test_axioms_on_random_models(self, seed):
        n = 8 + seed % 33
        m = random_interval_model(seed, n, hi_len=8)
        g = m.derive_graph()
        try:
            bags = interval_path_decomposition(m)
        except GraphError:
            return  # disconnected sample
        check_path_decomposition(g, bags)

    @pytest.mark.parametrize("seed", range(15))
    def test_bags_are_cliques(self, seed):
        m = random_interval_model(seed, 12)
        g = m.derive_graph()
        try:
            bags = interval_path_decomposition(m)
        except GraphError:
            return
        for bag in bags:
            vs = sorted(bag)
            for i in range(len(vs)):
                for j in range(i + 1, len(vs)):
                    assert vs[j] in g.adj[vs[i]]


class TestIntervalConnectivity:
    @pytest.mark.parametrize("seed", range(25))
    def test_matches_flow_connectivity(self, seed):
        n = 6 + seed % 12
        m = random_interval_model(seed, n, hi_len=5 + seed % 5)
        assert interval_connectivity(m) == vertex_connectivity(m.derive_graph())

    def test_complete_case(self):
        m = IntervalModel(lefts=(1,) * 4, rights=(9,) * 4)
        assert interval_connectivity(m) == 3

    def test_generator_postcondition(self):
        for seed in range(6):
            k = 2 + seed % 4
            m = gen_interval(24, k, seed)
            assert interval_connectivity(m) >= k
            assert vertex_connectivity(m.derive_graph()) == interval_connectivity(m)

    @pytest.mark.parametrize(
        "call,derivations", [(interval_connectivity, 0), (lambda m: cds_interval(m, 3), 0)],
        ids=["interval_connectivity", "cds_interval"],
    )
    def test_graph_is_derived_once(self, monkeypatch, call, derivations):
        m = gen_interval(40, 3, 5)
        # an equal model: m keeps its graph once derived, so it stays unused
        expected = call(gen_interval(40, 3, 5))
        derived = []
        derive = IntervalModel.derive_graph

        def counted_derive(self):
            derived.append(self)
            return derive(self)

        monkeypatch.setattr(IntervalModel, "derive_graph", counted_derive)
        assert call(m) == expected
        assert derived == [m] * derivations


class TestConvexModels:
    def test_window_out_of_range(self):
        with pytest.raises(GraphError, match="bad-model"):
            ConvexModel(na=3, nb=1, windows=((0, 3),))

    def test_biconvex_contiguity_enforced(self):
        # b0 sees a0..a1, b1 sees a2, b2 sees a0..a2: a0 has B-neighbors {0, 2}
        with pytest.raises(GraphError, match="non-contiguous"):
            BiconvexModel(na=3, nb=3, windows=((0, 1), (2, 2), (0, 2)))

    @pytest.mark.parametrize("seed", range(40))
    def test_biconvex_check_names_lowest_failing_a_vertex(self, seed):
        # against the definition: each A-vertex's B-neighbours, listed in
        # B order, form one run
        rng = SplitMix64(seed)
        na, nb = 2 + seed % 6, 2 + seed % 5
        windows = []
        for _ in range(nb):
            lo = rng.randint(0, na - 1)
            windows.append((lo, rng.randint(lo, min(na - 1, lo + 2))))
        bad = [
            i for i in range(na)
            if (js := [j for j, (lo, hi) in enumerate(windows) if lo <= i <= hi])
            and js != list(range(js[0], js[-1] + 1))
        ]
        if bad:
            with pytest.raises(GraphError, match=f"A-vertex {bad[0]} has a non-contiguous"):
                BiconvexModel(na=na, nb=nb, windows=tuple(windows))
        else:
            BiconvexModel(na=na, nb=nb, windows=tuple(windows))

    def test_derive_graph_ids(self):
        m = ConvexModel(na=2, nb=2, windows=((0, 0), (0, 1)))
        g = m.derive_graph()
        assert 2 in g.adj[0] and 3 in g.adj[0] and 3 in g.adj[1]
        assert 1 not in g.adj[0] and 3 not in g.adj[2]


class TestPathDecompositionChecker:
    def test_rejects_missing_edge(self):
        g = graph_of(3, [(0, 1), (1, 2), (0, 2)])
        bags = (frozenset({0, 1}), frozenset({1, 2}))
        with pytest.raises(GraphError, match="bad-decomposition"):
            check_path_decomposition(g, bags)

    def test_rejects_gap_occurrence(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        bags = (frozenset({0, 1}), frozenset({1, 2}), frozenset({0, 1}))
        with pytest.raises(GraphError, match="bad-decomposition"):
            check_path_decomposition(g, bags)


class TestDerivedGraphsFromEnumeratedPairs:
    """Each model's derived graph equals `graph_of(n, pairs)` built from its
    edges listed one pair at a time by the class's definition."""

    @staticmethod
    def same(g, n, pairs):
        want = graph_of(n, pairs)
        assert (g.n, g.m, g.adj) == (want.n, want.m, want.adj)

    @pytest.mark.parametrize("seed", range(60))
    def test_interval(self, seed):
        rng = SplitMix64(seed)
        n = 1 + seed % 17
        # a span of about n/2 makes touching ends and identical intervals common
        spans = []
        for _ in range(n):
            a = rng.randint(0, 1 + n // 2)
            spans.append((a, a + rng.randint(0, 3)))
        if n >= 3:
            spans[1] = spans[0]  # identical
            spans[2] = (spans[0][1], spans[0][1] + 2)  # touches the first at one point
        m = _model([(a, b - a) for a, b in spans])
        pairs = [
            (u, v) for u in range(n) for v in range(u + 1, n)
            if max(m.lefts[u], m.lefts[v]) <= min(m.rights[u], m.rights[v])
        ]
        self.same(m.derive_graph(), n, pairs)

    @staticmethod
    def window_pairs(m):
        return [
            (a, m.b_id(j)) for j, (lo, hi) in enumerate(m.windows)
            for a in range(m.na) if lo <= a <= hi
        ]

    @pytest.mark.parametrize("seed", range(60))
    def test_convex(self, seed):
        rng = SplitMix64(seed)
        na, nb = 1 + seed % 9, 1 + seed % 7
        windows = [(0, na - 1)]  # a full window
        for _ in range(nb - 1):
            lo = rng.randint(0, na - 1)
            # one window in three is a single A-vertex
            hi = lo if rng.randint(0, 2) == 0 else rng.randint(lo, na - 1)
            windows.append((lo, hi))
        m = ConvexModel(na=na, nb=nb, windows=tuple(windows))
        self.same(m.derive_graph(), m.n, self.window_pairs(m))

    @pytest.mark.parametrize("seed", range(20))
    def test_biconvex_staircases(self, seed):
        k = 1 + seed % 4
        na = max(2, k) + seed % 11
        m = gen_biconvex(na, na + 2 * k + seed % 5, k, seed)
        self.same(m.derive_graph(), m.n, self.window_pairs(m))
