import random
import tracemalloc
from pathlib import Path

import pytest
from hypothesis import given
from hypothesis import strategies as st

from cdspart import formats
from cdspart.engine import GLInstance
from cdspart.formats import (
    MAX_VERTICES,
    FormatError,
    InstanceBundle,
    build_cds_input,
    parse_bundle,
    parse_cds_sets,
    parse_partition,
    parse_vertex_sets,
    write_bundle,
    write_cds,
    write_partition,
    write_trace,
)
from cdspart.generators import (
    SplitMix64,
    gen_biconvex,
    gen_convex,
    gen_gl_extension,
    gen_interval,
    gen_planted_cds,
)
from cdspart.graphs import Graph, GraphError, spanning_tree
from cdspart.models import BiconvexModel, ConvexModel, IntervalModel

import reference_parser
from conftest import graph_of


class TestGraphParsing:
    def test_path_graph(self):
        b = parse_bundle("p gl 3 2\ne 1 2\ne 2 3\n")
        assert b.graph.n == 3 and b.graph.m == 2
        assert 1 in b.graph.adj[0] and 2 in b.graph.adj[1]

    def test_comments_anywhere(self):
        text = "# header\np gl 2 1 # trailing\n# middle\ne 1 2\n"
        assert parse_bundle(text).graph.m == 1

    def test_syntax_error_line_number(self):
        with pytest.raises(FormatError, match="syntax error at line 2"):
            parse_bundle("p gl 2 1\nx 1 2\n")

    def test_extension_sum_mismatch(self):
        text = "p gl 3 2\ne 1 2\ne 2 3\nk 2\nt 1 1\nt 2 1\n"
        with pytest.raises(FormatError, match="invariant violated"):
            parse_bundle(text)

    def test_extension_round_trip(self):
        text = "p gl 3 2\ne 1 2\ne 2 3\nk 2\nt 1 1\nt 3 2\n"
        b = parse_bundle(text)
        inst = b.gl_instance()
        assert isinstance(inst, GLInstance)
        assert inst.terminals == (0, 2) and inst.demands == (1, 2)

    def test_duplicate_edge_rejected(self):
        with pytest.raises(FormatError, match="invariant"):
            parse_bundle("p gl 2 2\ne 1 2\ne 2 1\n")

    def test_zero_demand_rejected(self):
        text = "p gl 2 1\ne 1 2\nk 2\nt 1 0\nt 2 2\n"
        with pytest.raises(FormatError, match="demand 0"):
            parse_bundle(text)


def _gl_text(n, edges):
    """A `p gl` file with these edges, given by 1-based ids, one per line
    from line 2 on."""
    return f"p gl {n} {len(edges)}\n" + "".join(f"e {u} {v}\n" for u, v in edges)


def _graph_sets(text):
    return parse_bundle(text).graph.adj


def _per_line_text(text):
    """The same file with a comment on its first edge line: the lines keep
    their numbers, but the bulk reader hands the section on."""
    lines = text.split("\n")
    return "\n".join([lines[0], lines[1] + " # per-line", *lines[2:]])


class TestGlEdgeFaults:
    """A self-loop or a repeated `gl` edge is named by its file ids and its
    line, the first one in input order; a syntax or range fault anywhere in
    the section comes first.  The bulk and the per-line reader agree."""

    @pytest.mark.parametrize(
        "text, line, message",
        [
            ("p gl 4 4\ne 1 2\ne 2 3\ne 1 2\ne 4 4\n", 4, "duplicate edge (1, 2)"),
            ("p gl 4 3\ne 1 2\ne 3 3\ne 1 2\n", 3, "self-loop at vertex 3"),
            ("p gl 3 2\ne 1 2\ne 2 1\n", 3, "duplicate edge (2, 1)"),
            ("p gl 3 1\ne 2 2\n", 2, "self-loop at vertex 2"),
            ("p gl 3 3\ne 1 2\ne 2 3\ne 3 2\n", 4, "duplicate edge (3, 2)"),
            # the first repeat in input order, not the lowest vertex's
            ("p gl 4 4\ne 3 4\ne 1 2\ne 4 3\ne 2 1\n", 4, "duplicate edge (4, 3)"),
            # a range fault anywhere in the section comes first
            ("p gl 4 3\ne 1 2\ne 2 1\ne 1 5\n", 4, "edge (1, 5) out of range 1..4"),
            ("p gl 4 3\ne 1 2\ne 1 10\ne 1 2\n", 3, "edge (1, 10) out of range 1..4"),
            ("p gl 3 1\ne 0 1\n", 2, "edge (0, 1) out of range 1..3"),
            # the ids as int() reads them, not as written
            ("p gl 3 2\ne 1 2\ne 2 +1\n", 3, "duplicate edge (2, 1)"),
            ("p gl 3 2\n# c\ne 01 2\n\ne 2 1\n", 5, "duplicate edge (2, 1)"),
        ],
    )
    def test_reports_first_fault_in_input_order(self, monkeypatch, text, line, message):
        expected = ("invariant", line, f"invariant violated: {message} (line {line})")
        assert _outcome(_graph_sets, text) == expected
        calls = []
        edge_lines = formats._edge_lines
        monkeypatch.setattr(formats, "_edge_lines",
                            lambda *args: calls.append(1) or edge_lines(*args))
        assert _outcome(_graph_sets, _per_line_text(text)) == expected
        assert calls == [1]

    def test_rejects_out_of_range(self):
        text = "p gl 3 1\ne 1 4\n"
        expected = ("invariant", 2, "invariant violated: edge (1, 4) out of range 1..3 (line 2)")
        assert _outcome(_graph_sets, text) == expected
        assert _outcome(_graph_sets, _per_line_text(text)) == expected

    @given(st.integers(0, 400))
    def test_faults_match_a_per_edge_check(self, seed):
        def per_edge(n, edges):
            for line, (u, v) in enumerate(edges, 2):
                if not (1 <= u <= n and 1 <= v <= n):
                    return "invariant", line, f"invariant violated: edge ({u}, {v}) out of range 1..{n} (line {line})"
            adj = [set() for _ in range(n)]
            for line, (u, v) in enumerate(edges, 2):
                if u == v:
                    return "invariant", line, f"invariant violated: self-loop at vertex {u} (line {line})"
                if v - 1 in adj[u - 1]:
                    return "invariant", line, f"invariant violated: duplicate edge ({u}, {v}) (line {line})"
                adj[u - 1].add(v - 1)
                adj[v - 1].add(u - 1)
            return tuple(map(frozenset, adj))

        rng = random.Random(seed)
        n = rng.randint(1, 8)
        edges = [
            (rng.randint(0, n + 1), rng.randint(0, n + 1)) for _ in range(rng.randint(1, 12))
        ]
        text = _gl_text(n, edges)
        expected = per_edge(n, edges)
        assert _outcome(_graph_sets, text) == _outcome(_graph_sets, _per_line_text(text)) == expected


class TestModelParsing:
    def test_interval(self):
        b = parse_bundle("p interval 2\ni 1 1 3\ni 2 2 5\n")
        assert isinstance(b.model, IntervalModel)
        assert 1 in b.graph.adj[0]

    def test_convex_contiguity_enforced(self):
        text = "p convex 3 1 2\ne 1 1\ne 3 1\n"
        with pytest.raises(FormatError, match="non-contiguous"):
            parse_bundle(text)

    def test_biconvex_b_side_contiguity(self):
        # A-vertex 1 would have B-neighborhood {1, 3}
        text = "p biconvex 3 3 5\ne 1 1\ne 2 1\ne 2 2\ne 3 2\ne 1 3\n"
        with pytest.raises(FormatError, match="non-contiguous"):
            parse_bundle(text)

    def test_biconvex_accepted(self):
        text = "p biconvex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\n"
        b = parse_bundle(text)
        assert isinstance(b.model, BiconvexModel)


def bundle_samples(count):
    out = []
    for seed in range(count):
        m = gen_interval(10 + seed % 20, 2, seed)
        t, d = gen_gl_extension(m.n, 2, seed)
        out.append(InstanceBundle(model=m, terminals=t, demands=d))
        g, _ = gen_planted_cds(12 + seed % 25, 2, 3, seed)
        t, d = gen_gl_extension(g.n, 3, seed)
        out.append(InstanceBundle(model=g, terminals=t, demands=d))
        mb = gen_biconvex(10 + seed % 6, 12 + seed % 8, 2, seed)
        out.append(InstanceBundle(model=mb))
        mc = gen_convex(8 + seed % 5, 14 + seed % 9, 4, seed)
        out.append(InstanceBundle(model=mc))
    return out


class TestRoundTrips:
    def test_write_parse_write_identity(self):
        for bundle in bundle_samples(30):
            text = write_bundle(bundle, comments=["sample"])
            again = parse_bundle(text)
            assert write_bundle(again) == write_bundle(parse_bundle(write_bundle(again)))
            assert type(again.model) is type(bundle.model)
            assert again.terminals == bundle.terminals

    def test_cds_round_trip(self):
        sets = (frozenset({0, 2}), frozenset({1, 3}))
        text = write_cds(sets)
        assert text == "c 2\ns 1 1 3\ns 2 2 4\n"
        assert parse_cds_sets(text, 4) == sets

    def test_partition_round_trip(self):
        blocks = (frozenset({0}), frozenset({1, 2}))
        text = write_partition(blocks)
        assert text == "v 1 1\nv 2 2 3\n"
        assert parse_partition(text, 3) == blocks

    def test_cds_set_index_enforced(self):
        with pytest.raises(FormatError, match="expected set index 1"):
            parse_cds_sets("c 1\ns 2 1\n", 3)

    def test_cds_count_enforced(self):
        with pytest.raises(FormatError, match="declared 2 sets"):
            parse_cds_sets("c 2\ns 1 1\n", 3)


class TestVertexCap:
    """A header declaring more than MAX_VERTICES vertices is refused, and
    the error names the header's line."""

    @pytest.mark.parametrize("text,lineno", [
        (f"p gl {MAX_VERTICES + 1} 0\n", 1),
        (f"# comment\np gl {MAX_VERTICES + 1} 1\ne 1 2\n", 2),
        (f"p convex {MAX_VERTICES} 1 1\ne 1 1\n", 1),
        (f"p biconvex {MAX_VERTICES} 1 1\n# comment\ne 1 1\n", 1),
    ])
    def test_one_over_the_cap(self, text, lineno):
        with pytest.raises(FormatError) as exc:
            parse_bundle(text)
        assert exc.value.code == "invariant" and exc.value.line == lineno
        assert f"vertex count {MAX_VERTICES + 1} exceeds {MAX_VERTICES}" in str(exc.value)


class TestBuildCdsInput:
    def test_spanning_trees_derived(self):
        g = graph_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
        trees = build_cds_input(g, [frozenset({0, 1}), frozenset({2, 3})])
        assert [t.edges for t in trees] == [((0, 1),), ((2, 3),)]
        assert all(t.graph is g for t in trees)

    def test_disconnected_set_rejected(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        with pytest.raises(FormatError, match="set 1"):
            build_cds_input(g, [frozenset({0, 3})])

    def test_reports_the_set_a_set_by_set_check_reports(self):
        def set_by_set(g, sets):
            for i, s in enumerate(sets):
                try:
                    spanning_tree(g, s)
                except GraphError as exc:
                    raise FormatError("invariant", f"set {i + 1}: {exc}") from exc

        def outcome(g, sets, build):
            try:
                build(g, sets)
            except FormatError as exc:
                return exc.code, str(exc)
            return None

        kinds = set()
        for seed in range(60):
            rng = random.Random(seed)
            k = 2 + seed % 6
            g, trees = gen_planted_cds(4 * k + seed % 40, k, 10, seed)
            sets = [set(t.vertices) for t in trees]
            for _ in range(rng.randint(0, 3)):
                victim = sets[rng.randrange(k)]
                r = rng.random()
                if r < 0.35:
                    victim.clear()
                if 0.1 <= r < 0.35:
                    victim.update(rng.sample(range(g.n), rng.randint(1, g.n // 2)))
                elif r >= 0.35 and victim:
                    victim.discard(rng.choice(sorted(victim)))
            expected = outcome(g, sets, set_by_set)
            assert outcome(g, sets, build_cds_input) == expected, seed
            kinds.add(expected and next(
                w for w in ("not-connected", "empty") if w in expected[1]
            ))
        assert kinds == {None, "not-connected", "empty"}


def test_trace_rendering():
    events = [("place", 4, 0), ("steal", 2, 1, 0), ("emit", 0, 2), ("round",)]
    assert write_trace(events) == "PLACE 5 1\nSTEAL 3 2 1\nEMIT 1 3\nROUND\n"


def _outcome(parse, *args):
    try:
        return parse(*args)
    except FormatError as exc:
        return exc.code, exc.line, str(exc)


def _streamed_bundle(text):
    """parse_bundle's result in the reference parser's shape."""
    b = parse_bundle(text)
    g = b.graph
    assert 2 * g.m == sum(map(len, g.adj))
    return (None if b.model is g else b.model), g.adj, b.terminals, b.demands


def assert_same_bundle_outcome(text):
    assert _outcome(_streamed_bundle, text) == _outcome(reference_parser.parse_bundle, text)


def assert_same_sets_outcome(text, prefix, n):
    expected = _outcome(reference_parser.parse_vertex_sets, text, prefix, n)
    assert _outcome(parse_vertex_sets, text, prefix, n) == expected


def _mutate(text, seed, pos):
    rng = SplitMix64(seed * 7 + pos)
    chars = list(text)
    for _ in range(1 + rng.randint(0, 3)):
        i = rng.randint(0, len(chars) - 1)
        chars[i] = "0123456789 ex\np"[rng.randint(0, 14)]
    return "".join(chars)


class TestParserRobustness:
    @given(st.text(max_size=200))
    def test_arbitrary_text_raises_format_error_only(self, text):
        assert_same_bundle_outcome(text)

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_mutated_valid_files(self, seed, pos):
        """Canonical files of every kind with a few characters changed,
        which reach the bulk readers' near misses."""
        models = [
            gen_interval(8 + seed % 6, 2, seed % 4),
            gen_convex(4 + seed % 5, 3 + seed % 4, 2, seed),
            gen_biconvex(4 + seed % 3, 6 + seed % 4, 2, seed),
            gen_planted_cds(8 + seed % 6, 2, 3, seed)[0],
        ]
        for m in models:
            t, d = gen_gl_extension(m.n, 2, seed)
            text = write_bundle(InstanceBundle(model=m, terminals=t, demands=d))
            assert_same_bundle_outcome(_mutate(text, seed, pos))


# Fragments that reach past the header: short and long sections, records
# of the wrong kind, extensions, comments and every line break splitlines
# knows of, and integers that int() accepts in unusual spellings.
_LINES = [
    "p gl 3 2", "p gl 4 3", "p gl 2 1", "p interval 3", "p interval 2",
    "p convex 2 2 3", "p biconvex 2 2 3", "p gl 3", "p", "p gl -1 0",
    "e 1 2", "e 2 3", "e 3 1", "e 1 1", "e 2 1", "e 1 4", "e 1", "e a 2",
    "e 1 2 3", "e +1 0_2", "e \uff11 2", "i 1 1 3", "i 2 2 4", "i 3 3 5",
    "i 1 4 2", "i 4 1 2", "i 1 x 2", "k 1", "k 2", "k 0", "k", "t 1 3",
    "t 2 1", "t 1 1", "t 3 2", "t 4 1", "t 1 0", "c 2", "c 1", "c x",
    "s 1 1 2", "s 2 3", "s 1 1 1", "s 2 9", "v 1 1", "v 2 2 3", "v 3",
    "# note", "e 1 2 # tail", "e 2#3", "", "  ", "\t", "\u3000", "x",
]
_BREAKS = ["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028", " \t\n"]
_soup = st.lists(
    st.tuples(st.sampled_from(_LINES), st.sampled_from(_BREAKS)), max_size=10
).map(lambda pairs: "".join(a + b for a, b in pairs))


def _sample_texts():
    for bundle in bundle_samples(6):
        yield write_bundle(bundle, comments=["sample"])
    g, trees = gen_planted_cds(40, 4, 10, 3)
    t, d = gen_gl_extension(g.n, 4, 3)
    yield write_bundle(InstanceBundle(model=g, terminals=t, demands=d))


class TestReferenceParser:
    """The streaming parser against the line-table reference parser."""

    @pytest.mark.parametrize(
        "path", sorted(Path(__file__).parent.parent.joinpath("fixtures").glob("*"))
    )
    def test_fixture_files(self, path):
        assert_same_bundle_outcome(path.read_text())

    def test_generated_files(self):
        for text in _sample_texts():
            assert_same_bundle_outcome(text)
            assert_same_bundle_outcome(text.replace("\n", "\r\n"))
            assert_same_bundle_outcome(text.replace(" ", "\t"))

    @pytest.mark.parametrize(
        "text",
        [
            "p gl 3 2\r\ne 1 2\r\ne 2 3\r\n",
            "p gl 3 2\r\ne 1 2\r\ne 2 3\r\nk 1\r\nt 1 3\r\n",
            "p\tgl\t3 2\ne\t1\t2\n\te 2 3\t\n",
            "p gl 3 2 # header\ne 1 2#x\ne 2 3# y\n",
            "p gl 3 2\ne 1 2\ne 2# 3\n",
            "\n\n# c\np gl 3 2\n\n   \n# x\ne 1 2\n\t\n#\ne 2 3\n\n# end\n",
            "p gl 3 2\ne 1 2\n",
            "p gl 3 2\ne 1 2\n# trailing comment\n\n",
            "p gl 3 2\n",
            "p gl 3 3\ne 1 2\ne 2 3\nk 1\nt 1 3\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 1\nt 1 3\ne 1 3\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 1\nt 1 3\n# ok\nx\n",
            "p gl 3 2\ne 1 2\ne 2 3\nx\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 2\nt 1 1\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 2\nt 1 1\nt 1 2\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 2\nt 1 1\nt 2 1\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 0\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk x\n",
            "p gl 3 3\ne 1 2\ne 2 1\ne 3 3\n",
            "p gl 3 3\ne 1 2\ne 3 3\ne 2 1\n",
            "p gl 3 2\ne 1 2\ne 1 5\n",
            # an id above n and above 2m, and an edge line past m = 0
            "p gl 10 1\ne 3 11\n",
            "p gl 3 0\ne 1 2\n",
            "p gl 3 2\ne 1 2 3\ne 2 3\n",
            "p gl 3 2\ne 1 x\n",
            "p gl 3 -1\ne 1 2\n",
            "p gl -1 0\n",
            "p gl 2 1\x0be 1 2\n",
            "p gl 2 1\u2028e 1 2\u2029",
            "p gl 2 1\x85e 1 2",
            "\u3000p gl 2 1\ne 1 2\n",
            "p gl 2 1\ne \uff11 2\n",
            "p gl 11 1\ne 1_0 +2\n",
            # tokens outside the canonical id table, faults found after the loop
            "p gl 3 2\ne 01 2\ne 1 +3\n",
            "p gl 3 1\ne 0 1\n",
            "p gl 3 3\ne 1 2\ne 2 1\ne 2 x\n",
            "p gl 3 3\ne 1 2\ne 3 3\ne 1 4\n",
            "p gl 3 2\ne 01 2\ne 2 +1\n",
            "p gl 3 2\ne 1 2\ne 3 03\nk 1\nt 1 3\n",
            "p gl 0 0\n",
            "p interval 3\ni 1 1 2\ni 2 2 3\n",
            "p interval 3\ni 1 1 2\ni 1 2 3\ni 3 3 4\n",
            "p interval 2\ni 3 1 2\n",
            "p interval 2\ni 1 3 2\n",
            "p interval 2\ni 1 a 2\n",
            "p interval 2\ni 1 1 2\ni 2 2 3\nk 1\nt 2 2\n",
            "p interval -2\n",
            "p interval -1\ni 1 1 2\n",
            "p gl 5 -1\n",
            "p gl -1 -1\n",
            "p gl 4 1\ne 3 4\n",
            "p gl 9 2\ne 8 9\ne 1 2\n",
            "p convex 2 2 -1\n",
            "p convex -1 2 0\n",
            "p biconvex 2 -1 0\n",
            "p convex 2 1 2\ne 1 1\n",
            "p convex 2 1 2\ne 1 1\ne 1 1\n",
            "p convex 2 1 1\ne 3 1\n",
            "p convex 3 1 2\ne 1 1\ne 3 1\n",
            "p convex 2 2 2\ne 1 1\ne 2 1\n",
            "p biconvex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5\n",
            "p convex 0 0 0\n",
            "p convex 2 2\n",
            "",
            "\n",
            "# only a comment\n",
            "   \t\n",
            "p\n",
            "q gl 3 2\n",
            "p foo 1\n",
            # canonical edge blocks, read in bulk, and near misses that the
            # per-line reader must read instead
            "p gl 4 2\ne 1\n2 e 3 4\n",
            "p gl 4 2\ne 1 2 e\n3 4\n",
            "p gl 4 2\ne 1 2 e\ne 3\n",
            "p gl 4 2\ne 1 2 e 3 4\n",
            "p gl 3 2\nf 1 2\ne 2 3\n",
            "p gl 3 2\ne 1 2\nf 2 3\n",
            "p gl 3 2\ne 1 2 \ne 2 3\n",
            "p gl 3 2\ne 1 2\ne 2 3 \n",
            "p gl 3 2\ne 1  2\ne 2 3\n",
            "p gl 3 2\n e 1 2\ne 2 3\n",
            "p gl 3 2\ne 1 2\n e 2 3\n",
            "p gl 3 2\ne 1 2\n# c\ne 2 3\n",
            "p gl 3 2\ne 1 2\n\ne 2 3\n",
            "p gl 3 2\ne 1 2\x0ce 2 3\n",
            "p gl 3 2\ne 1 2 e 2 3\n",
            "p gl 3 2\ne e 2\ne 2 3\n",
            "p gl 3 2\ne 1 2\ne 2 e\n",
            "p gl 3 0\n",
            "p gl 3 0\nk 1\nt 2 3\n",
            "p gl 3 1\ne 1 3\n",
            "p gl 3 1\ne 2 2\n",
            "# a\n\n# b\np gl 3 2\ne 1 2\ne 2 3\n",
            "# a\np gl 3 2 # h\ne 1 2\ne 2 3\nk 1\nt 1 3\n",
            "p gl 9 2\ne 1 4\ne 2 3\n",
            "p gl 9 2\ne 1 5\ne 2 3\n",
            "p gl 3 2\ne 1 3\ne 2 3\n",
            "p gl 3 2\ne 1 4\ne 2 3\n",
            "p gl 3 2\ne 1 2\ne 2 1\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 1\nt 2 3\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 2\nt 2 1\nt 3 2\n",
            "p gl 3 2\ne 1 2\ne 2 3\nk 1\nt 2 3\ne 1 3\n",
            # canonical convex and biconvex sections, read in bulk, and near
            # misses that the per-line reader must read instead
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5\n",
            "p biconvex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 2\nt 1 2\nt 5 3\n",
            "p biconvex 3 3 4\ne 1 1\ne 2 2\ne 3 2\ne 1 3\n",
            "p convex 3 2 4\ne 2 2\ne 3 2\ne 1 1\ne 2 1\n",
            "p biconvex 3 2 4\ne 1 1\ne 2 2\ne 2 1\ne 3 2\n",
            "p convex 2 2 4\ne 1 1\ne 1 2\ne 2 1\ne 2 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 2\ne 3 1\ne 3 2\n",
            "p convex 3 2 3\ne 1 1\ne 3 1\ne 2 2\n",
            "p convex 3 2 4\ne 2 1\ne 1 1\ne 2 2\ne 3 2\n",
            "p biconvex 3 2 4\ne 1 1\ne 2 1\ne 3 2\ne 2 2\n",
            "p convex 3 2 4\ne 1 1\ne 1 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 5\ne 1 1\ne 2 1\ne 2 2\ne 3 2\ne 3 2\n",
            "p convex 3 3 4\ne 1 1\ne 2 1\ne 2 3\ne 3 3\n",
            "p convex 3 3 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p biconvex 3 3 3\ne 2 2\ne 2 2\ne 3 3\n",
            "p convex 2 4 4\ne 1 1\ne 2 2\ne 3 3\ne 1 4\n",
            "p convex 4 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 3\n",
            "p convex 3 2 4\ne 01 1\ne 2 1\ne 2 2\ne 3 +2\n",
            "p convex 3 2 4\ne 0 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p biconvex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 x\n",
            "p convex 3 2 4\r\ne 1 1\r\ne 2 1\r\ne 2 2\r\ne 3 2\r\n",
            "p convex 3 2 4\ne 1 1\ne\t2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2 # x\n",
            "p convex 3 2 4\ne 1 1\n# c\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1  1\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\n",
            "p convex 3 2 5\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\ne 3 1\n",
            "p convex 3 2 0\n",
            "p biconvex 3 0 0\n",
            "p convex 3 0 0\nk 1\nt 1 3\n",
            f"p convex {MAX_VERTICES} 1 2\ne 1 1\ne 1 1\n",
            f"p biconvex {MAX_VERTICES} 2 2\ne 1 1\ne 3 3\n",
            f"p convex {MAX_VERTICES} 1 1\ne 2 2\n",
            # windows proposed from each B-run's first line and line count,
            # and near misses that writing the proposal again must reject
            "p convex 2 1 2\ne \u00b2 1\ne 2 1\n",  # isdigit, but no int
            "p convex 2 1 2\ne 1\u00b2 1\ne 2 1\n",
            "p convex 3 2 4\ne \u0661 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2_0 2\ne 3 2\n",
            "p convex 2 12 13\n" + "".join(f"e 1 {b}\n" for b in range(1, 13)) + "e 2 12\n",
            "p convex 2 12 12\n" + "".join(f"e 1 {b}\n" for b in [1, 12, *range(3, 12), 2]),
            "p convex 1 12 11\n" + "".join(f"e 1 {b}\n" for b in range(1, 13) if b != 2),
            "p convex 2 3 4\ne 1 1\ne 2 1\ne 1 3\ne 2 3\n",
            "p convex 2 3 3\ne 1 1\ne 1 2\ne 1 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\nk 1\nt 1 5\n",
            "p convex 3 2 3\ne 1 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 3\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5\n",
            "p convex 2 2 3\ne 1 1\ne 1 2\ne 3 2\n",
            "p convex 2 2 2\ne 1 1\ne 3 2\n",
            "p convex 3 2 3\ne 1 1\ne 01 2\ne 2 2\n",
            "p convex 3 2 3\ne 01 1\ne 1 2\ne 2 2\n",
            "p convex 3 2 3\ne 1 1\ne -1 2\ne 0 2\n",
            "p biconvex 3 2 4\r\ne 1 1\r\ne 2 1\r\ne 2 2\r\ne 3 2\r\nk 1\r\nt 1 5\r\n",
            "p convex 2 2 3\r\ne 1 1\r\ne 1 2\r\ne 2 2\r",
            "p convex 3 1 3\ne 1 1\ne 2 1\ne 3 1\n",
            "p convex 3 1 2\ne 2 1\ne 3 1\nk 2\nt 1 2\nt 4 2\n",
            "p convex 3 1 3\ne 1 1\ne 3 1\ne 2 1\n",
            "p convex 3 1 1\ne 2 1 \n",
            "p convex 2 2 3\ne 1 1\ne 1 2\ne 2 2\nk 1\nt 1 4\n",
            "p biconvex 2 2 3\ne 1 1\ne 1 2\ne 2 2\nk 2\nt 1 2\nt 4 2\n",
            "p convex 2 2 3\ne 1 1\ne 1 2\nk 1\nt 1 4\n",
            # a canonical section read in place from the text: extension
            # lines that end like the next B-run's first line, a last run
            # one line short or long, other line breaks, a comment or a
            # blank line inside, the end of the file right after it, and
            # content after it
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 2\nt 1 2\nt 4 3\n",
            "p convex 3 2 3\ne 1 1\ne 2 1\nk 2\nt 1 2\nt 4 3\n",
            "p convex 3 3 5\ne 1 1\ne 2 1\ne 2 2\ne 3 3\nt 1 3\n",
            "p convex 2 2 3\ne 1 1\ne 2 1\nk 2\nt 1 2\nt 2 2\n",
            "p convex 3 2 3\ne 1 1\ne 2 1\ne 2 2\n",
            "p convex 3 2 3\ne 1 1\ne 2 1\ne 2 2\nk 1\nt 1 5\n",
            "p convex 3 2 5\ne 1 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\ne 1 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\ne 3 2\nk 1\nt 1 5\n",
            "p biconvex 3 2 4\r\ne 1 1\r\ne 2 1\r\ne 2 2\r\ne 3 2\r\n",
            "p biconvex 3 2 4\ne 1 1\ne 2 1\r\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\re 1 1\re 2 1\re 2 2\re 3 2\rk 1\rt 1 5\r",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\rk 1\nt 1 5\n",
            "p convex 3 2 4\re 1 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\n# c\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\n\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1 # c\ne 2 2\ne 3 2\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\n# c\n\nk 1\n# d\nt 1 5\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5",
            "p biconvex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nx\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5\nx\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5\nk 1\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\x0bk 1\nt 1 5\n",
            "p convex 3 2 4\ne 1 1\ne 2 1\ne 2 2\ne 3 2\n\u2028k 1\u2029t 1 5\x85",
            "# a\r\n\r\n# b\rp convex 3 2 4 # h\ne 1 1\ne 2 1\ne 2 2\ne 3 2\nk 1\nt 1 5\n",
            "\x0c\x1cp biconvex 3 2 4\x1de 1 1\ne 2 1\ne 2 2\ne 3 2\n",
            "p convex 3 0 2\ne 1 1\ne 2 1\n",
        ],
    )
    def test_hand_cases(self, text):
        assert_same_bundle_outcome(text)

    def test_written_gl_files_take_the_bulk_path(self, monkeypatch):
        """A `gl` file as `write_bundle` writes it never reaches the
        per-line edge reader, so a bulk reader that always handed its
        block on fails here."""
        texts = [_planted_text(n, k, extra, seed)
                 for n, k, extra, seed in [(12, 2, 3, 1), (40, 4, 10, 3), (300, 30, 60, 5)]]
        texts += [write_bundle(InstanceBundle(model=graph_of(3, [])), comments=["no edges"])]
        texts += [write_bundle(InstanceBundle(model=b.model), comments=["c"])
                  for b in bundle_samples(4) if isinstance(b.model, Graph)]
        expected = [_outcome(reference_parser.parse_bundle, text) for text in texts]

        def per_line(*args):
            raise AssertionError("per-line edge reader called")

        monkeypatch.setattr(formats, "_edge_lines", per_line)
        assert [_outcome(_streamed_bundle, text) for text in texts] == expected

    def test_written_convex_files_take_the_bulk_path(self, monkeypatch):
        """A convex or biconvex file as `write_bundle` writes it never
        reaches the per-line window reader; the benchmark's sizes are
        among them."""
        models = [b.model for b in bundle_samples(4) if not isinstance(b.model, (Graph, IntervalModel))]
        models += [gen_convex(300, 600, 8, 3), gen_biconvex(200, 220, 4, 3)]
        texts = [write_bundle(InstanceBundle(model=m), comments=["c"]) for m in models]
        for m, k, seed in [(models[-2], 8, 3), (models[-1], 4, 3)]:
            t, d = gen_gl_extension(m.n, k, seed)
            texts.append(write_bundle(InstanceBundle(model=m, terminals=t, demands=d)))
        expected = [_outcome(reference_parser.parse_bundle, text) for text in texts]
        assert all(isinstance(e[0], (ConvexModel, BiconvexModel)) for e in expected)

        def per_line(*args):
            raise AssertionError("per-line window reader called")

        monkeypatch.setattr(formats, "_window_lines", per_line)
        assert [_outcome(_streamed_bundle, text) for text in texts] == expected

    def test_blocks_of_several_splits(self, monkeypatch):
        """Faults and non-canonical lines at and past the cuts of the
        in-place `gl` reader's windows, and sections that end at a cut,
        inside a window or without a final newline."""
        text = _planted_text(400, 40, 60, 5)
        lines = text.split("\n")
        n, m = map(int, lines[0].split()[2:])
        first, second = _window_cuts(text)[:2]  # the first lines of windows 2 and 3
        assert second <= m

        def splice(i, j, *new):
            return "\n".join(lines[:i] + list(new) + lines[j:])

        wide = "x" * formats._WINDOW
        cases = [
            splice(first, first + 1, lines[first] + " # x"),
            splice(first - 1, first, lines[first - 1] + " # x"),
            splice(first, first + 1, lines[first].replace(" ", "\t")),
            splice(first, first + 1, ""),
            splice(first, first + 1, "e 1 x"),  # a fault on a window's first line
            splice(first - 1, first, "e 1"),  # and on its last line
            splice(second - 1, second, f"e 1 {n + 1}"),
            splice(m, m + 1, lines[1]),  # a repeated edge, last in the section
            splice(m - 1, m, "e 1"),
            # lines longer than the window
            splice(first, first + 1, lines[first] + " # " + wide),
            splice(first, first + 1, "e " + "0" * formats._WINDOW + lines[first][2:]),
            # other line breaks inside the section
            splice(first - 1, first, lines[first - 1] + "\r"),
            splice(first - 1, first + 1, lines[first - 1] + "\r" + lines[first]),
            splice(second, second + 2, lines[second] + "\x0b" + lines[second + 1]),
            text.replace("\n", "\r\n"),
            # one edge line too many, and one too few
            splice(0, 1, f"p gl {n} {m + 1}"),
            splice(0, 1, f"p gl {n} {m - 1}"),
        ]
        for case in cases:
            assert_same_bundle_outcome(case)
        # the whole file, which ends inside a window; sections that end
        # exactly at a window's cut, with and without the terminal rows
        # after them; the last edge line with and without a final newline,
        # with no rows after it: each is read in place
        canonical = [
            text,
            "\n".join([f"p gl {n} {second - 1}", *lines[1:second], *lines[m + 1 :]]),
            "\n".join([f"p gl {n} {first - 1}", *lines[1:first], ""]),
            splice(m + 1, len(lines), ""),
            "\n".join(lines[: m + 1]),
        ]
        expected = [_outcome(reference_parser.parse_bundle, case) for case in canonical]
        assert all(e[0] is None for e in expected)  # `gl` bundles, not errors

        def per_line(*args):
            raise AssertionError("per-line edge reader called")

        monkeypatch.setattr(formats, "_edge_lines", per_line)
        assert [_outcome(_streamed_bundle, case) for case in canonical] == expected

    def test_convex_blocks_of_several_splits(self):
        """Faults and non-canonical lines of a convex section past the
        first cut the `gl` reader would make."""
        text = write_bundle(InstanceBundle(model=gen_convex(50, 250, 8, 1)))
        lines = text.split("\n")
        m = int(lines[0].split()[4])
        mid = _window_cuts(text)[0] + 7
        assert mid < m
        a, b = lines[mid].split()[1:]
        cases = [
            (mid, lines[mid] + " # x"),
            (mid, lines[mid].replace(" ", "\t")),
            (mid, ""),
            (mid, f"e 0{a} {b}"),
            (mid, f"e {int(a) + 1} {b}"),
            (mid, f"e {a} {int(b) + 1}"),
            (m, lines[m - 1]),  # a repeated edge, last in the section
            (m, lines[1]),  # the first B-vertex's line, out of order
            (m - 1, "e 1"),
        ]
        assert_same_bundle_outcome(text)
        for i, line in cases:
            assert_same_bundle_outcome("\n".join(lines[:i] + [line] + lines[i + 1 :]))
        # two lines swapped across a B-run boundary: same edges, other order
        j = next(i for i in range(mid, m) if lines[i].split()[2] != lines[i + 1].split()[2])
        swapped = lines[:j] + [lines[j + 1], lines[j]] + lines[j + 2 :]
        assert_same_bundle_outcome("\n".join(swapped))

    @given(_soup)
    def test_token_soup(self, text):
        assert_same_bundle_outcome(text)
        assert_same_sets_outcome(text, "s", 3)
        assert_same_sets_outcome(text, "v", 3)

    @given(st.integers(0, 40), st.integers(0, 40))
    def test_mutated_files_of_every_kind(self, seed, pos):
        samples = list(_sample_texts())
        assert_same_bundle_outcome(_mutate(samples[seed % len(samples)], seed, pos))
        cds = write_cds([frozenset({0, 2}), frozenset({1, 3, 4})])
        assert_same_sets_outcome(_mutate(cds, seed, pos), "s", 5)
        blocks = write_partition([frozenset({0}), frozenset({1, 2}), frozenset({3})])
        assert_same_sets_outcome(_mutate(blocks, seed, pos), "v", 4)

    @pytest.mark.parametrize(
        "text, prefix, n",
        [
            ("c 2\ns 1 1 2\ns 2 3\n", "s", 3),
            ("c 2\r\ns 1 1\r\n\r\n# x\r\ns 2 2 3\r\n", "s", 3),
            ("c 2\ns 1 1\n", "s", 3),
            ("c 0\n", "s", 3),
            ("c 1 2\n", "s", 3),
            ("c x\n", "s", 3),
            ("s 1 1\n", "s", 3),
            ("c 1\ns 1 1 1\n", "s", 3),
            ("c 1\ns 1 9\n", "s", 3),
            ("c 1\ns 1 a\n", "s", 3),
            ("c 1\ns 2 1\n", "s", 3),
            ("c 1\ns\n", "s", 3),
            ("v 1 1\nv 2 2 # x\n\nv 3 3\n", "v", 3),
            ("v 1\n", "v", 3),
            ("v 2 1\n", "v", 3),
            ("v 1 1\tv 2 2\n", "v", 3),
            ("v 1 1\x0bv 2 2\n", "v", 3),
            ("", "v", 3),
            ("# none\n\n", "s", 3),
        ],
    )
    def test_vertex_set_hand_cases(self, text, prefix, n):
        assert_same_sets_outcome(text, prefix, n)


def _window_cuts(text):
    """The indices in `text.split("\\n")` of the lines that start a window
    of the in-place `gl` reader after the first, for a file whose first
    line is its header; a convex file is cut at the same places."""
    cuts = []
    start = text.index("\n") + 1
    while cut := text.find("\n", start + formats._WINDOW) + 1:
        cuts.append(text.count("\n", 0, cut))
        start = cut
    return cuts


def _planted_text(n, k, extra, seed):
    g, _ = gen_planted_cds(n, k, extra, seed)
    t, d = gen_gl_extension(g.n, k, seed)
    return write_bundle(InstanceBundle(model=g, terminals=t, demands=d))


@pytest.mark.parametrize(
    "make, bound",
    [(lambda: gen_convex(300, 600, 8, 11), 3.5), (lambda: gen_planted_cds(2000, 8, 500, 1)[0], 5)],
    ids=["convex", "planted"],
)
def test_write_peak_memory_is_a_few_times_the_text(make, bound):
    """`write_bundle` joins a convex window's lines, or a vertex's `gl`
    lines, into one string: its peak stays within a few times the text it
    returns.  A string per edge line costs about 9 times the text."""
    bundle = InstanceBundle(model=make())
    tracemalloc.start()
    try:
        text = write_bundle(bundle)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * len(text), peak / len(text)


def test_parse_peak_memory_is_linear_in_file_size():
    """A planted n=600, k=150 bundle (m ~ 79k, ~0.76 MB): the parse holds
    the tokens of one window of the edge section at a time, never a line
    list or a token table of the whole file."""
    g, _ = gen_planted_cds(600, 150, 150, 1)
    t, d = gen_gl_extension(g.n, 150, 1)
    text = write_bundle(InstanceBundle(model=g, terminals=t, demands=d))
    tracemalloc.start()
    try:
        parse_bundle(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 40 * len(text), peak / len(text)


def test_canonical_gl_file_is_read_in_place():
    """A planted n=600, k=150 bundle: parse peak minus retained memory
    stays at or below 6 times the text's length (about 3.5: one window's
    tokens, the endpoint lists and the adjacency lists; about 10 when the
    section is split into lines)."""
    g, _ = gen_planted_cds(600, 150, 150, 1)
    t, d = gen_gl_extension(g.n, 150, 1)
    text = write_bundle(InstanceBundle(model=g, terminals=t, demands=d))
    tracemalloc.start()
    try:
        bundle = parse_bundle(text)
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (bundle.graph.adj, bundle.terminals, bundle.demands) == (g.adj, t, d)
    assert peak - retained <= 6 * len(text), (peak - retained) / len(text)


def test_canonical_window_file_is_read_in_place():
    """A canonical convex bundle is read from its text: `parse_bundle`
    peaks below 3 times the text's length (about 2 with the one rendering
    of its windows, about 11 when the file is split into lines)."""
    m = gen_convex(300, 600, 8, 3)
    t, d = gen_gl_extension(m.n, 8, 3)
    text = write_bundle(InstanceBundle(model=m, terminals=t, demands=d))
    tracemalloc.start()
    try:
        bundle = parse_bundle(text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (bundle.model, bundle.terminals, bundle.demands) == (m, t, d)
    assert peak < 3 * len(text), peak / len(text)


def test_parsed_graph_is_compact_and_interned():
    """A planted n=600, k=150 bundle: the parsed graph keeps at most 135 B
    per edge, and its adjacency holds each vertex id as one int object,
    which the edge reader's two id tables share."""
    g, _ = gen_planted_cds(600, 150, 150, 1)
    t, d = gen_gl_extension(g.n, 150, 1)
    text = write_bundle(InstanceBundle(model=g, terminals=t, demands=d))
    tracemalloc.start()
    try:
        g = parse_bundle(text).graph
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained <= 135 * g.m, retained / g.m
    assert len({id(v) for a in g.adj for v in a}) <= g.n


def test_id_table_is_sized_by_the_records():
    """`p gl 2^18 0` declares many vertices but no record can name one, so
    the parse holds no id table: peak minus retained memory stays under
    100 B per declared vertex (about 181 with a table of all n ids)."""
    n = 1 << 18
    tracemalloc.start()
    try:
        g = parse_bundle(f"p gl {n} 0\n").graph
        retained, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (g.n, g.m) == (n, 0)
    assert peak - retained <= 100 * n, (peak - retained) / n
