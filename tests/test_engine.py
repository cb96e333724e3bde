import importlib
import os
import random
import subprocess
import sys
import textwrap
from collections import Counter, deque
from itertools import chain
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import cdspart.engine as eng_module
from cdspart.engine import (
    EngineError,
    GLInstance,
    PartitionState,
    _absorb_and_label,
    _choose_group,
    _grow_from_tree,
    _run_single_tree,
    add_trees,
    add_vertices,
    categorize_trees,
    labeling,
    solve,
    validate_cds_input,
)
from cdspart.builders import BuilderError, cds_biconvex, cds_interval
from cdspart.formats import build_cds_input
from cdspart.generators import (
    SplitMix64,
    gen_biconvex,
    gen_gl_extension,
    gen_interval,
    gen_planted_cds,
)
from cdspart.graphs import (
    DominatingTree,
    Graph,
    GraphError,
    is_connected_subset,
)
from cdspart.verify import brute_cds, brute_gl, verify_gl

import test_builders
from conftest import graph_of, random_graph
from test_golden import CHURN


K4 = graph_of(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k4_trees():
    return DominatingTree(K4, {0, 1}), DominatingTree(K4, {2, 3})


def planted(seed, n, k, *, on_trees=False):
    s = seed
    while True:
        g, trees = gen_planted_cds(n, k, extra_edges=n // 4, seed=s)
        if not on_trees or len(trees[0].vertices) >= k:
            break
        s += 1009  # first backbone too small to host all terminals; reseed
    if on_trees:
        # gen_gl_extension's draws, with the terminals taken from tree 0
        rng = SplitMix64(s ^ 0x9A7)
        pool = sorted(trees[0].vertices)
        terminals = tuple(pool[i] for i in rng.sample_distinct(len(pool), k))
        cuts = sorted(x + 1 for x in rng.sample_distinct(g.n - 1, k - 1))
        demands = tuple(b - a for a, b in zip([0, *cuts], [*cuts, g.n]))
    else:
        terminals, demands = gen_gl_extension(g.n, k, seed=s ^ 0x9A7)
    return GLInstance(graph=g, terminals=terminals, demands=demands), trees


class TestGLInstanceValidation:
    def test_duplicate_terminals(self):
        with pytest.raises(EngineError, match="invalid-instance"):
            GLInstance(graph=K4, terminals=(0, 0), demands=(2, 2))

    def test_zero_demand(self):
        with pytest.raises(EngineError, match="invalid-instance"):
            GLInstance(graph=K4, terminals=(0, 1), demands=(0, 4))

    def test_sum_mismatch(self):
        with pytest.raises(EngineError, match="invalid-instance"):
            GLInstance(graph=K4, terminals=(0, 1), demands=(2, 3))

    def test_no_terminals(self):
        with pytest.raises(EngineError, match="invalid-instance: k must be at least 1"):
            GLInstance(graph=K4, terminals=(), demands=())

    def test_terminal_and_demand_counts_differ(self):
        match = "invalid-instance: terminal and demand counts differ"
        with pytest.raises(EngineError, match=match):
            GLInstance(graph=K4, terminals=(0, 1), demands=(4,))

    def test_terminal_out_of_range(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        with pytest.raises(EngineError, match="^invalid-instance: terminal 3 out of range$"):
            GLInstance(graph=g, terminals=(0, 3), demands=(1, 2))


class TestCdsInputValidation:
    def test_overlapping_trees(self):
        t = DominatingTree(K4, {0, 1})
        with pytest.raises(BuilderError, match="^not-disjoint: set 2 overlaps an earlier one$"):
            validate_cds_input(K4, (t, t))

    def test_non_dominating_tree(self):
        g = graph_of(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        t = DominatingTree(g, {0, 1})
        with pytest.raises(BuilderError, match="^not-dominating: set 1$"):
            validate_cds_input(g, (t,))

    def test_no_trees(self):
        with pytest.raises(EngineError, match="invalid-cds-input: no trees"):
            validate_cds_input(K4, ())

    def test_tree_of_another_graph(self):
        # an equal copy of the path 0-1-2 is still another graph
        g = graph_of(3, [(0, 1), (1, 2)])
        t = DominatingTree(graph_of(3, [(0, 1), (1, 2)]), {1})
        inst = GLInstance(graph=g, terminals=(0,), demands=(3,))
        with pytest.raises(EngineError, match="invalid-cds-input: tree 1 is built on another graph"):
            solve(inst, (t,))

    def test_id_n_of_the_solved_graph(self):
        # vertex 3 of a larger graph is id n = 3 of the path 0-1-2, which
        # cannot build it (tests/test_graphs.py); solve refuses the tree too
        g = graph_of(3, [(0, 1), (1, 2)])
        t = DominatingTree(graph_of(4, [(0, 1), (1, 2), (1, 3)]), {1, 3})
        inst = GLInstance(graph=g, terminals=(0,), demands=(3,))
        with pytest.raises(EngineError, match="invalid-cds-input: tree 1 is built on another graph"):
            solve(inst, (t,))


def validate_tree_by_tree(g, trees):
    """validate_cds_input by hand, the reference for the reported tree and
    message: every tree's graph, then the set-by-set family check of
    tests/test_builders.py (one `dominates` call per set)."""
    for i, t in enumerate(trees, 1):
        if t.graph is not g:
            raise EngineError("invalid-cds-input", f"tree {i} is built on another graph")
    test_builders.TestValidateFamily.set_by_set(g, [t.vertices for t in trees])


def drop_leaf(tree):
    """The tree without its lowest-id leaf (a tree on >= 2 vertices)."""
    degree = Counter(v for e in tree.edges for v in e)
    leaf = min(v for v in tree.vertices if degree[v] == 1)
    return DominatingTree(tree.graph, tree.vertices - {leaf})


def outcome(fn, *args):
    try:
        fn(*args)
    except GraphError as exc:
        return type(exc), exc.code, str(exc)
    return None


class TestOnePassValidation:
    def test_reports_the_tree_a_tree_by_tree_check_reports(self):
        kinds = set()
        for seed in range(60):
            rng = random.Random(seed)
            k = 2 + seed % 6
            g, trees = gen_planted_cds(4 * k + seed % 40, k, 10, seed)
            copy = Graph([list(g.adj[v]) for v in range(g.n)])
            trees = list(trees)
            for _ in range(rng.randint(0, 3)):
                i = rng.randrange(k)
                defect = rng.choice(["shrink", "shrink", "foreign", "overlap", "alien"])
                t = trees[i]
                if defect == "shrink" and len(t.vertices) > 1:
                    trees[i] = drop_leaf(t)
                elif defect == "foreign":
                    trees[i] = DominatingTree(copy, t.vertices)
                elif defect == "overlap":
                    trees[i] = trees[rng.randrange(k)]
                elif defect == "alien":
                    s = set(rng.sample(range(g.n), rng.randint(1, g.n // 2)))
                    try:
                        trees[i] = DominatingTree(g, s)
                    except GraphError:
                        pass
            expected = outcome(validate_tree_by_tree, g, trees)
            assert outcome(validate_cds_input, g, trees) == expected, seed
            kinds.add(expected and next(
                w for w in ("not-dominating", "another graph", "overlaps") if w in expected[2]
            ))
        assert kinds == {None, "not-dominating", "another graph", "overlaps"}


P5 = graph_of(5, [(0, 1), (1, 2), (2, 3), (3, 4)])


class TestCheckPrecedence:
    """A tree with two faults reports the one the reference check meets
    first: the graph before the family, and an overlap before domination."""

    @pytest.mark.parametrize("trees,message", [
        # built on another graph and not dominating
        ([DominatingTree(graph_of(5, [(0, 1), (1, 2), (2, 3), (3, 4)]), {0, 1})],
         "tree 1 is built on another graph"),
        # overlaps tree 1 and does not dominate
        ([DominatingTree(P5, {1, 2, 3}), DominatingTree(P5, {3})],
         "not-disjoint: set 2 overlaps an earlier one"),
    ])
    def test_first_fault_of_a_tree_wins(self, trees, message):
        assert outcome(validate_cds_input, P5, trees) == outcome(validate_tree_by_tree, P5, trees)
        with pytest.raises(GraphError, match=message):
            validate_cds_input(P5, trees)


def as_keyed(items):
    """A mapping stays as it is; a sequence is keyed by position."""
    return dict(items) if isinstance(items, dict) else dict(enumerate(items))


def make_state(g, trees, terminals, demands=None, *, trace=None):
    """A fresh state over all of g, built as `solve` builds one.

    `trees` and `terminals` are sequences keyed by position, or mappings
    keyed by input index; the first tree is the lead.  A tree is a
    `DominatingTree`, whose sorted rows enter the tree adjacency as lists,
    or a bare vertex set that enters no tree adjacency.
    `demands` follows the terminals' keys and defaults to 1 each.
    """
    sets, tree_adj = {}, {}
    for ti, t in as_keyed(trees).items():
        if isinstance(t, DominatingTree):
            tree_adj.update((v, list(row)) for v, row in t.adjacency().items())
            t = t.vertices
        sets[ti] = set(t)
    terminals = as_keyed(terminals)
    if demands is None:
        demands = dict.fromkeys(terminals, 1)
    elif not isinstance(demands, dict):
        demands = dict(zip(terminals, demands))
    tree_of = {v: ti for ti, tree in sets.items() for v in tree}
    members = frozenset(range(g.n))
    return PartitionState(g, members, terminals, demands, sets, tree_of, tree_adj, trace=trace)


def k4_state(terminals=(0, 1), demands=(2, 2)):
    """K4 with the two trees of `k4_trees` and its terminals placed."""
    state = make_state(K4, k4_trees(), terminals, demands)
    state.place_terminals()
    return state


class TestCategorizeTrees:
    def test_all_terminals_on_first_tree(self):
        assert categorize_trees(make_state(K4, k4_trees(), [0, 1])) == {0: [0, 1], 1: []}

    def test_one_terminal_per_tree(self):
        assert categorize_trees(make_state(K4, k4_trees(), [0, 2])) == {0: [0], 1: [1]}

    def test_stray_terminal_attached(self):
        g = graph_of(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4)])
        tree = DominatingTree(g, {0, 1})
        state = make_state(g, (tree,), [4])
        lead = state.trees[0]
        assert categorize_trees(state) == {0: [0]}
        grown = DominatingTree(g, {0, 1, 4})
        grown.validate()
        assert grown.edges == ((0, 1), (0, 4))
        assert state.trees[0] is lead and lead == grown.vertices
        assert state.tree_adj == {v: list(row) for v, row in grown.adjacency().items()}
        assert state.tree_of[4] == 0

    # the later stray hangs under the earlier one, its lowest tree neighbour
    @pytest.mark.parametrize("terminals,edges", [
        ([0, 1], ((2, 3), (2, 0), (0, 1))),
        ([1, 0], ((2, 3), (3, 1), (1, 0))),
    ])
    def test_strays_join_in_terminal_order(self, terminals, edges):
        g = graph_of(4, [(0, 2), (0, 3), (0, 1), (1, 3), (2, 3)])
        state = make_state(g, (DominatingTree(g, {2, 3}),), terminals)
        assert categorize_trees(state) == {0: [0, 1]}
        adj = {v: sorted(w for e in edges if v in e for w in e if w != v) for v in range(4)}
        assert state.tree_adj == adj

    def test_lead_missing_a_stray_raises(self):
        # corrupt: lead tree 2 = {0, 1} of the path 0-1-2-3 misses terminal 3
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        state = make_state(g, {2: DominatingTree(g, {0, 1})}, [3])
        with pytest.raises(EngineError, match="invalid-cds-input: tree 2 does not dominate 3"):
            categorize_trees(state)


class TestSingleTreePhases:
    def test_add_trees_places_lead_and_free_vertices(self):
        state = k4_state()
        add_trees(state)
        state.check_invariants("test")
        assert state.placed[0] == 0 and state.placed[1] == 1
        assert 2 not in state.placed and 3 not in state.placed

    def test_labeling_classifies_and_assigns(self):
        state = k4_state()
        add_trees(state)
        labeling(state)
        state.check_invariants("test")
        # deficit 1 each; vertices 2 and 3 both label set 0, so set 0 is
        # Over and set 1 is Under with the only spare tree
        assert state.status[0] == "over"
        assert state.status[1] == "under"
        assert state.tlabel[1] == 1
        assert state.hit_count[1].get(1, 0) >= 1

    def test_add_vertices_completes(self):
        state = k4_state()
        add_trees(state)
        labeling(state)
        add_vertices(state)
        state.check_invariants("test")
        assert all(map(state.full, state.sets))
        assert state.sets == {0: {0, 3}, 1: {1, 2}}

    def test_all_over_when_assignments_split(self):
        # C_4 with opposite trees: each spare vertex labels a different set,
        # both deficits are covered, nobody is Under, no tree is handed out
        g = graph_of(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        trees = (DominatingTree(g, {0, 1}), DominatingTree(g, {2, 3}))
        state = make_state(g, trees, [0, 1], [2, 2])
        state.place_terminals()
        add_trees(state)
        labeling(state)
        assert state.status == {0: "over", 1: "over"}
        assert state.tlabel == {0: None, 1: None}
        # the equality case: each Over set absorbs exactly its assignment
        add_vertices(state)
        assert state.sets == {0: {0, 2}, 1: {1, 3}}

    def test_star_leaves_attach_to_center_set(self):
        star = graph_of(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        tree = DominatingTree(star, {0})
        state = make_state(star, [tree], [0], [5])
        state.place_terminals()
        try:
            add_trees(state)
        except Exception as exc:  # the lone set fills and emits
            from cdspart.engine import _Emit

            assert isinstance(exc, _Emit)
        assert set(state.sets[0]) == set(range(5))


def run_single_tree(inst, trees):
    """The single-tree case on a whole instance whose terminals lie on trees[0]."""
    return _run_single_tree(make_state(inst.graph, trees, inst.terminals, inst.demands))


def assert_valid_remainder(inst, trees, blocks, used):
    """After an emission, the unused trees are disjoint dominating trees of
    the vertices left over, and the left-over demands add up to them."""
    rest = set(range(inst.graph.n))
    for block in blocks.values():
        rest -= block
    emitted = set(blocks)
    assert sum(d for i, d in enumerate(inst.demands) if i not in emitted) == len(rest)
    seen = set()
    for ti, t in enumerate(trees):
        if ti in used:
            continue
        assert t.vertices <= rest and not t.vertices & seen
        seen |= t.vertices
        assert is_connected_subset(inst.graph, t.vertices)
        for v in rest - t.vertices:
            assert inst.graph.adj[v] & t.vertices


class TestSolveSingleTree:
    def test_k4_two_blocks(self):
        inst = GLInstance(graph=K4, terminals=(0, 1), demands=(2, 2))
        blocks, used = run_single_tree(inst, k4_trees())
        assert used == [0, 1] and list(blocks) == [0, 1]
        partition = list(blocks.values())
        assert verify_gl(inst, partition).ok
        assert solve(inst, k4_trees()) == tuple(partition)
        assert brute_gl(inst) is not None

    def test_k1_single_block(self):
        inst = GLInstance(graph=K4, terminals=(2,), demands=(4,))
        tree = (DominatingTree(K4, {2, 3}),)
        blocks, used = run_single_tree(inst, tree)
        assert blocks == {0: frozenset({0, 1, 2, 3})} and used == [0]
        assert solve(inst, tree) == (frozenset({0, 1, 2, 3}),)

    def test_emission_on_demand_one(self):
        inst = GLInstance(graph=K4, terminals=(0, 1), demands=(1, 3))
        blocks, used = run_single_tree(inst, k4_trees())
        assert blocks == {0: frozenset({0})} and used == [0]
        # the unused tree is a valid dominating tree of what is left
        assert_valid_remainder(inst, k4_trees(), blocks, used)
        assert solve(inst, k4_trees())[0] == frozenset({0})

    @pytest.mark.parametrize("seed", range(25))
    def test_planted_single_tree_runs(self, seed):
        k = 2 + seed % 4
        n = max(24 + seed, k * (k + 2))
        inst, trees = planted(seed, n, k, on_trees=True)
        blocks, used = run_single_tree(inst, trees)
        if len(blocks) == k:
            assert verify_gl(inst, list(blocks.values())).ok
        else:
            for i, block in blocks.items():
                assert inst.terminals[i] in block
                assert len(block) == inst.demands[i]
                assert is_connected_subset(inst.graph, block)
            assert_valid_remainder(inst, trees, blocks, used)


class TestChooseGroup:
    def test_single_lead_takes_everything(self):
        state = k4_state()
        by_tree = categorize_trees(state)
        lead, members, extras, union = _choose_group(state, by_tree)
        assert lead == 0 and members == [0, 1] and extras == [1]
        assert union == {0, 1, 2, 3}

    def test_chosen_groups_are_feasible_in_real_solves(self, monkeypatch):
        # capture every group selection made across a batch of solves and
        # re-check the qualifying inequality on the captured arguments
        import cdspart.engine as eng

        captured = []
        original = eng._choose_group

        def wrapped(state, by_tree):
            out = original(state, by_tree)
            lead, members, extras, _ = out
            union = set(state.trees[lead])
            for i in members:
                union |= state.sets[i]
            for e in extras:
                union |= state.trees[e]
            captured.append((len(union), sum(state.demands[i] for i in members)))
            return out

        monkeypatch.setattr(eng, "_choose_group", wrapped)
        for seed in range(60):
            k = 2 + seed % 5
            inst, trees = planted(seed, 12 + (seed * 3) % 50, k)
            p = solve(inst, trees)
            assert verify_gl(inst, p).ok
        assert captured, "no solve reached the group-selection phase"
        for union_size, needed in captured:
            assert union_size >= needed

    @staticmethod
    def scan_group(trees, terminals, demands, sets):
        """Reference group choice by terminal scans: each lead rescans every
        terminal, and G' is built from the chosen trees and sets.  All four
        arguments are keyed by input index."""
        counts = {
            ti: sum(c in tree for c in terminals.values()) for ti, tree in trees.items()
        }
        free = deque(ti for ti, c in counts.items() if c == 0)
        leads = [ti for ti, c in counts.items() if c > 1]
        leads += [ti for ti, c in counts.items() if c == 1]
        for lead in leads:
            members = [i for i, c in terminals.items() if c in trees[lead]]
            extras = [free.popleft() for _ in members[1:]]
            gprime = set(trees[lead])
            for i in members:
                gprime |= sets[i]
            for e in extras:
                gprime |= trees[e]
            if len(gprime) >= sum(demands[i] for i in members):
                return lead, members, extras, gprime
        return None

    def test_index_and_union_match_the_scans(self, monkeypatch):
        categorize = eng_module.categorize_trees
        choose = eng_module._choose_group
        rounds = []
        groups = [0]

        def checked_categorize(state):
            by_tree = categorize(state)
            assert by_tree == {
                ti: [i for i, c in state.terminals.items() if c in tree]
                for ti, tree in state.trees.items()
            }
            rounds.append(dict(state.terminals))
            return by_tree

        def checked_choose(state, by_tree):
            got = choose(state, by_tree)
            assert got == self.scan_group(state.trees, rounds[-1], state.demands, state.sets)
            groups[0] += 1
            return got

        monkeypatch.setattr(eng_module, "categorize_trees", checked_categorize)
        monkeypatch.setattr(eng_module, "_choose_group", checked_choose)
        rng = random.Random(4242)
        for seed in range(100):
            k = rng.randint(1, 8)
            inst, trees = planted(seed, max(2 * k + 2, rng.randint(12, 120)), k)
            p = solve(inst, trees)
            assert verify_gl(inst, p).ok
        # most rounds emit while placing; about one solve in five picks a group
        assert len(rounds) > 300 and groups[0] >= 15, (len(rounds), groups[0])


def grown_state(g, terminal, attach):
    """A state over g whose set 0 holds `terminal` and grows by `attach`,
    (vertex, parent) pairs in order; its demand leaves room for all of g."""
    state = make_state(g, [{terminal}], [terminal], [g.n + 1])
    for v, parent in attach:
        state.add(v, 0, parent)
    return state


def random_grown_state(seed):
    """A state over a random connected graph whose set 0 grew from its
    terminal by random attachments."""
    rng = random.Random(seed)
    n = rng.randint(1, 30)
    g = random_graph(seed, n, rng.randint(n - 1, 3 * n), connected=True)
    state = grown_state(g, rng.randrange(n), [])
    for _ in range(rng.randint(0, n - 1)):
        s = state.sets[0]
        v = rng.choice(sorted(u for u in range(n) if u not in s and g.adj[u] & s))
        state.add(v, 0, rng.choice(sorted(g.adj[v] & s)))
    return state


def lowest_leaf_peel(state, i, target):
    """The set that peeling the lowest-id leaf of i's attachment forest,
    found afresh at every step, leaves at `target` vertices."""
    kept = set(state.sets[i])
    parent = {v: state.attach_parent[v] for v in kept}
    while len(kept) > target:
        inner = {parent[v] for v in kept}
        kept.remove(min(v for v in kept if v not in inner and v != state.terminals[i]))
    return kept


class TestTrim:
    def test_trim_keeps_terminal_and_connectivity(self):
        g = graph_of(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        state = grown_state(g, 2, [(1, 2), (3, 2), (0, 1), (4, 3), (5, 0)])
        state.trim(0, 3)
        assert len(state.sets[0]) == 3 and 2 in state.sets[0]
        assert is_connected_subset(g, state.sets[0])
        state.check_invariants("trim")

    def test_lowest_id_attachment_leaf_goes_first(self):
        # the set's own forest is the path 0-1-2-3, so 3 goes first, not the
        # 2 that a BFS tree from 0 (children 1 and 3) would peel
        g = graph_of(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
        state = grown_state(g, 0, [(1, 0), (2, 1), (3, 2)])
        state.trim(0, 3)
        assert state.sets[0] == {0, 1, 2}
        state.trim(0, 1)
        assert state.sets[0] == {0} and state.placed == {0: 0}

    def test_equals_the_lowest_leaf_peel(self):
        for seed in range(400):
            state = random_grown_state(seed)
            terminal, size = state.terminals[0], len(state.sets[0])
            target = random.Random(seed).randint(1, size)
            expected = lowest_leaf_peel(state, 0, target)
            state.trim(0, target)
            assert state.sets[0] == expected and len(expected) == target, seed
            assert terminal in expected and is_connected_subset(state.graph, expected)
            state.check_invariants("trim")


def test_every_small_atlas_graph():
    # tests/atlas_sweep.py at n <= 6: every connected atlas graph, at every k
    # with k disjoint CDSs, every terminal k-subset and every composition of
    # n; every partition passes verify_gl, and three solves trim.  A change
    # of tie rule (attaching to the highest set, say) still verifies, so the
    # partitions are pinned by their digest too.
    pytest.importorskip("networkx")
    import atlas_sweep

    counts, digest, broken = atlas_sweep.sweep(6)
    assert broken == []
    assert (counts["graphs"], counts["solves"], counts["trims"]) == (143, 9027, 3)
    assert digest == "62d15494f05dcf43b767ea4c3ae14bfd9ebb80a0e4e7c60e256cebe5664d47a2"


class TestSolve:
    def test_k4_general(self):
        inst = GLInstance(graph=K4, terminals=(0, 2), demands=(1, 3))
        p = solve(inst, k4_trees())
        assert verify_gl(inst, p).ok
        assert p[0] == frozenset({0})

    @pytest.mark.parametrize("seed", range(40))
    def test_planted_instances_verify(self, seed):
        k = 1 + seed % 6
        n = max(2 * k + 2, 12 + (seed * 5) % 60)
        inst, trees = planted(seed, n, k)
        p = solve(inst, trees)
        assert verify_gl(inst, p).ok

    @pytest.mark.parametrize("seed", range(15))
    def test_matches_oracle_feasibility(self, seed):
        k = 2 + seed % 3
        inst, trees = planted(seed, 2 * k + 2 + seed % 4, k)
        p = solve(inst, trees)
        assert verify_gl(inst, p).ok
        oracle = brute_gl(inst)
        assert oracle is not None
        assert verify_gl(inst, oracle).ok

    def test_trace_records_events(self):
        inst, trees = planted(3, 24, 3)
        trace = []
        p = solve(inst, trees, trace=trace)
        assert verify_gl(inst, p).ok
        kinds = {ev[0] for ev in trace}
        assert "place" in kinds and "emit" in kinds
        emitted = [ev for ev in trace if ev[0] == "emit"]
        assert len(emitted) >= 1

    def test_reduced_trees_stay_valid_through_recursion(self):
        # demands forcing several emission rounds
        inst, trees = planted(11, 60, 5)
        p = solve(inst, trees)
        rep = verify_gl(inst, p)
        assert rep.ok, rep.render()

    @pytest.mark.parametrize("seed,n,k", [(91, 29, 5), (613, 35, 4), (835, 38, 6)])
    def test_vertex_stealing_paths(self, seed, n, k):
        # seeds known to force assigned/placed vertices to change sets
        rng = SplitMix64(seed * 131 + 3)
        k_chk = 2 + rng.randint(0, 4)
        n_chk = max(2 * k_chk + 2, rng.randint(10, 100))
        assert (n_chk, k_chk) == (n, k)
        g, trees = gen_planted_cds(n, k, extra_edges=rng.randint(0, n // 3), seed=seed)
        terminals, demands = gen_gl_extension(g.n, k, seed=seed ^ 0xC0DE)
        inst = GLInstance(graph=g, terminals=terminals, demands=demands)
        trace = []
        p = solve(inst, trees, trace=trace)
        assert any(ev[0] == "steal" for ev in trace)
        assert verify_gl(inst, p).ok

    def test_emission_continuation_reassembles_original(self):
        # the blocks emitted by the single-tree case on the whole instance
        # are kept by `solve`, whose later rounds tile the remainder
        found = False
        for seed in range(30):
            k = 2 + seed % 4
            n = max(26, k * (k + 2))
            inst, trees = planted(seed, n, k, on_trees=True)
            blocks, used = run_single_tree(inst, trees)
            if len(blocks) == k:
                continue
            found = True
            p = solve(inst, trees)
            assert verify_gl(inst, p).ok
            for i, block in blocks.items():
                assert p[i] == block
        assert found, "no emission case arose in the sample"


@st.composite
def brute_family_cases(draw):
    """A connected graph on n <= 10 vertices, the first family of k <= 3
    disjoint CDSs that `brute_cds` finds (k lowered until one exists), and
    random terminals and demands."""
    n = draw(st.integers(2, 10))
    order = draw(st.permutations(range(n)))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = {(min(a, b), max(a, b)) for a, b in zip(order, order[1:])}
    # each pair is kept when its mark is below the density: 4 gives K_n
    density = draw(st.integers(0, 4))
    marks = draw(st.lists(st.integers(0, 3), min_size=len(pairs), max_size=len(pairs)))
    edges |= {pair for pair, mark in zip(pairs, marks) if mark < density}
    g = graph_of(n, sorted(edges))
    k = draw(st.sampled_from([3, 2, 1]))
    family = brute_cds(g, k, max_n=10)
    while family is None:  # k = 1 always has one: the graph is connected
        k -= 1
        family = brute_cds(g, k, max_n=10)
    terminals = draw(st.permutations(range(n)))[:k]
    cuts = sorted(draw(st.sets(st.integers(1, n - 1), min_size=k - 1, max_size=k - 1)))
    demands = [b - a for a, b in zip([0, *cuts], [*cuts, n])]
    return GLInstance(graph=g, terminals=tuple(terminals), demands=tuple(demands)), family


K6 = graph_of(6, [(u, v) for u in range(6) for v in range(u + 1, 6)])


class TestBruteFamilyProperty:
    @settings(deadline=None, max_examples=300)
    @given(brute_family_cases())
    @example((GLInstance(graph=K6, terminals=(5, 0, 3), demands=(1, 3, 2)),
              brute_cds(K6, 3)))
    def test_solve_passes_verify_gl(self, case):
        inst, family = case
        trees = build_cds_input(inst.graph, family)
        p = solve(inst, trees)
        assert verify_gl(inst, p).ok


class TestTreeCount:
    def test_too_few_trees_is_named(self):
        inst, trees = planted(5, 40, 4)
        with pytest.raises(EngineError, match="too-few-trees"):
            solve(inst, trees[:3])

    @pytest.mark.parametrize("seed", range(6))
    def test_extra_trees_are_dropped(self, seed):
        k = 2 + seed % 3
        g, trees = gen_planted_cds(40, k + 2, extra_edges=10, seed=seed)
        terminals, demands = gen_gl_extension(g.n, k, seed=seed ^ 0x9A7)
        inst = GLInstance(graph=g, terminals=terminals, demands=demands)
        p = solve(inst, trees)
        assert verify_gl(inst, p).ok
        assert p == solve(inst, trees[:k])


class TestEmissionRule:
    """A set emits when it fills while touching exactly one tree, and only then."""

    def test_set_filling_on_one_tree_emits(self):
        # sets and trees keep their input indices, in the signal and the trace;
        # the state writes its terminals' lines once, when it is built
        trace = []
        trees = dict(zip((3, 4), k4_trees()))
        state = make_state(K4, trees, {5: 0, 7: 2}, {5: 2, 7: 2}, trace=trace)
        state.place_terminals()
        with pytest.raises(eng_module._Emit) as exc:
            state.add(1, 5, parent=0)  # set 5 = {0, 1}: all of tree 3
        assert (exc.value.set_index, exc.value.tree_index) == (5, 3)
        assert trace == [("place", 0, 5), ("place", 2, 7), ("place", 1, 5), ("emit", 5, 3)]

    def test_tight_family_does_not_emit(self):
        # two sets that each straddle both trees fill up: together they hit
        # exactly two trees, but neither touches a single tree
        state = k4_state()
        state.add(2, 0, parent=0)
        state.add(3, 1, parent=1)
        assert all(map(state.full, state.sets))


class TestStateInvariants:
    def test_checker_catches_disconnection(self):
        g = graph_of(4, [(0, 1), (1, 2), (2, 3)])
        tree = DominatingTree(g, {1, 2})
        state = make_state(g, [tree], [1], [4])
        state.place_terminals()
        state.sets[0].add(3)  # corrupt: 3 is not adjacent to {1}
        state.placed[3] = 0
        with pytest.raises(EngineError, match="state-invariant"):
            state.check_invariants("corrupt")

    def test_under_monotonicity_guard(self):
        state = k4_state()
        state.classify(0, "under")
        with pytest.raises(EngineError, match="under-monotonicity"):
            state.classify(0, "over")

    def test_retire_check_fires(self, monkeypatch):
        # a round that claims to use up no tree leaves the lead tree in the
        # pool although the emitted blocks swallowed its vertices
        original = eng_module._run_single_tree
        monkeypatch.setattr(
            eng_module, "_run_single_tree", lambda *a, **kw: (original(*a, **kw)[0], [])
        )
        inst = GLInstance(graph=K4, terminals=(0, 1), demands=(2, 2))
        with pytest.raises(EngineError, match="state-invariant: retire"):
            solve(inst, k4_trees())

    def test_retire_certificate_catches_dropped_vertex(self, monkeypatch):
        # a terminal-free tree loses its lowest validated leaf in place, and
        # the solve's tree index and tree adjacency forget it; the round may
        # still succeed, but retire refuses
        inst, trees = planted(3, 80, 8)
        original = eng_module.categorize_trees
        shrunk = []

        def shrinking(state):
            by_tree = original(state)
            t0 = [ti for ti, on in by_tree.items() if not on]
            if not shrunk and t0:
                tree, adj = state.trees[max(t0)], state.tree_adj
                leaf = min(v for v in tree if len(adj[v]) == 1)
                (parent,) = adj.pop(leaf)
                adj[parent] = [w for w in adj[parent] if w != leaf]
                tree.discard(leaf)
                del state.tree_of[leaf]
                shrunk.append(leaf)
            return by_tree

        monkeypatch.setattr(eng_module, "categorize_trees", shrinking)
        with pytest.raises(EngineError, match="state-invariant: retire: .* validated vertex"):
            solve(inst, trees)
        assert shrunk

    def test_retire_undoes_through_remove(self, monkeypatch):
        # a terminal slipped into the undo log once: `retire` undoes each
        # vertex by `remove`, which refuses a terminal
        inst, trees = planted(3, 80, 8)
        retire = PartitionState.retire

        def logging_a_terminal(self, *args):
            monkeypatch.setattr(PartitionState, "retire", retire)
            self._log.append(self.terminals[min(self.terminals)])
            retire(self, *args)

        monkeypatch.setattr(PartitionState, "retire", logging_a_terminal)
        with pytest.raises(EngineError, match=r"state-invariant: remove: \d+ is the terminal of set"):
            solve(inst, trees)

    def test_retire_without_a_finished_block_raises_no_progress(self):
        trees = k4_trees()
        state = make_state(K4, trees, [0, 2], [2, 2])
        with pytest.raises(EngineError, match="^no-progress: a round finished no block$"):
            state.retire({}, [0], [t.vertices for t in trees])

    def test_retire_takes_the_finished_blocks_out_of_members(self):
        trees = k4_trees()
        state = make_state(K4, trees, [0, 2], [2, 2])
        state.members = set(state.members)  # shrinkable, as `solve` builds it
        categorize_trees(state)
        with pytest.raises(eng_module._Emit):
            eng_module._place(state)  # set 0 fills on tree 0
        block = frozenset(state.sets[0])
        state.retire({0: block}, [0], [t.vertices for t in trees])
        assert block == {0, 1} and state.members == {2, 3}

    def test_orphan_vertex_raises_state_invariant(self):
        # tree {1, 2} does not dominate 0, whose only neighbour 3 is unplaced
        # when 0 is reached: no open set is adjacent to it
        g = graph_of(4, [(0, 3), (1, 2), (2, 3)])
        tree = DominatingTree(g, {1, 2})
        with pytest.raises(EngineError, match="state-invariant: non-tree vertex 0"):
            _run_single_tree(make_state(g, [tree], [1], [4]))

    def test_growth_from_a_non_over_assignment_raises(self):
        state = k4_state()
        state.assign_vlabel(2, 0)  # corrupt: 2 is assigned to an Under set
        state.classify(0, "under")
        with pytest.raises(EngineError, match="state-invariant: unplaced 2"):
            _grow_from_tree(state, 1, 1)

    def test_stealing_from_a_non_under_set_raises(self):
        state = k4_state()
        state.add(2, 0, parent=0)
        state.classify(0, "over")  # corrupt: an Over set holds tree-1 vertex 2
        with pytest.raises(EngineError, match="state-invariant: 2 would be stolen"):
            _grow_from_tree(state, 1, 1)

    def test_under_set_without_a_free_tree_raises(self):
        state = k4_state()
        state.set_tlabel(0, 1)  # corrupt: the only spare tree is taken
        with pytest.raises(EngineError, match="state-invariant: no free tree for Under set 1"):
            _absorb_and_label(state, [1])

    def test_unfilled_set_after_add_vertices_raises(self, monkeypatch):
        monkeypatch.setattr(eng_module, "add_vertices", lambda state: None)
        inst = GLInstance(graph=K4, terminals=(0, 1), demands=(2, 2))
        with pytest.raises(EngineError, match="state-invariant: a set is short"):
            run_single_tree(inst, k4_trees())

    def test_retire_check_survives_python_O(self):
        script = textwrap.dedent(
            """
            import cdspart.engine as eng
            from cdspart.graphs import DominatingTree, Graph

            if __debug__:
                raise SystemExit("asserts are on: not running under -O")
            original = eng._run_single_tree
            eng._run_single_tree = lambda *a, **kw: (original(*a, **kw)[0], [])
            g = Graph([[1, 2, 3], [0, 2, 3], [0, 1, 3], [0, 1, 2]])
            trees = (DominatingTree(g, {0, 1}), DominatingTree(g, {2, 3}))
            inst = eng.GLInstance(graph=g, terminals=(0, 1), demands=(2, 2))
            try:
                eng.solve(inst, trees)
            except eng.EngineError as exc:
                print(exc.code)
            """
        )
        src = str(Path(eng_module.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=src)
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "state-invariant"


class TestSolveCost:
    def test_tree_adjacency_built_once_and_no_domination_rescan(self, monkeypatch):
        # counts, not time: each used tree's adjacency is built once, stray
        # terminals grow tree 0's set and the tree adjacency in place without
        # building a tree, and retire never re-checks domination
        n, k = 600, 150
        g, trees = gen_planted_cds(n, k, n // 4, seed=11)
        terminals, demands = gen_gl_extension(n, k, seed=11 ^ 0xF00D)
        inst = GLInstance(graph=g, terminals=terminals, demands=demands)
        counts = Counter()
        adjacency = DominatingTree.adjacency
        dominates = importlib.import_module("cdspart.graphs").dominates
        categorize = eng_module.categorize_trees
        init = DominatingTree.__init__

        def counted_init(self, *args, **kwargs):
            counts["trees built"] += 1
            init(self, *args, **kwargs)

        def counted_adjacency(self):
            counts["adjacency"] += 1
            return adjacency(self)

        def counted_dominates(*args):
            counts["dominates"] += 1
            return dominates(*args)

        def counted_categorize(state):
            counts["rounds"] += 1
            counts["strays"] += sum(c not in state.tree_of for c in state.terminals.values())
            return categorize(state)

        monkeypatch.setattr(DominatingTree, "adjacency", counted_adjacency)
        monkeypatch.setattr(DominatingTree, "__init__", counted_init)
        for name in ("graphs", "engine", "formats", "builders", "verify"):
            module = importlib.import_module(f"cdspart.{name}")
            if hasattr(module, "dominates"):
                monkeypatch.setattr(module, "dominates", counted_dominates)
        monkeypatch.setattr(eng_module, "categorize_trees", counted_categorize)
        p = solve(inst, trees)
        assert counts["rounds"] > k // 2 and counts["strays"] == 3682, counts
        assert counts["dominates"] == 0 and counts["trees built"] == 0, counts
        assert counts["adjacency"] == k, counts
        monkeypatch.undo()
        assert verify_gl(inst, p).ok

    def test_one_tree_index_per_solve(self, monkeypatch):
        # every state of a solve reads the one tree index and the one tree
        # adjacency `solve` built, over the same vertices; a stray's entries
        # persist into the next round while its tree remains, and leave with
        # the tree's rows when the tree retires
        n, k = 200, 50
        g, trees = gen_planted_cds(n, k, n // 4, seed=3)
        terminals, demands = gen_gl_extension(n, k, seed=3 ^ 0xF00D)
        inst = GLInstance(graph=g, terminals=terminals, demands=demands)
        indexes, adjacencies = [], []
        joined = {}  # stray terminal -> the tree it joined last round
        last = {}  # tree index -> its vertices, strays included, last round
        counts = Counter()
        init = PartitionState.__init__
        categorize = eng_module.categorize_trees

        def recorded_init(self, *args, **kwargs):
            init(self, *args, **kwargs)
            indexes.append(self.tree_of)
            adjacencies.append(self.tree_adj)

        def checked_categorize(state):
            counts["rounds"] += 1
            for ti, tree in last.items():
                if ti not in state.trees:
                    assert tree.isdisjoint(state.tree_adj)
                    counts["rows left"] += 1
            for c, ti in joined.items():
                if ti in state.trees:
                    assert state.tree_of[c] == ti and c in state.tree_adj
                    counts["kept"] += 1
                else:
                    assert c not in state.tree_of and c not in state.tree_adj
                    counts["retired"] += 1
            assert state.tree_adj.keys() == state.tree_of.keys()
            strays = [c for c in state.terminals.values() if c not in state.tree_of]
            by_tree = categorize(state)
            assert state.tree_adj.keys() == state.tree_of.keys()
            joined.clear()
            joined.update(dict.fromkeys(strays, state.lead))
            last.clear()
            last.update((ti, set(tree)) for ti, tree in state.trees.items())
            return by_tree

        monkeypatch.setattr(PartitionState, "__init__", recorded_init)
        monkeypatch.setattr(eng_module, "categorize_trees", checked_categorize)
        p = solve(inst, trees)
        # one state serves every round; group runs build their own
        assert counts["rounds"] > k // 2 and all(t is indexes[0] for t in indexes)
        assert all(a is adjacencies[0] for a in adjacencies)
        assert counts["kept"] > 0 and counts["retired"] > 0, counts
        assert counts["rows left"] > 0, counts
        monkeypatch.undo()
        assert verify_gl(inst, p).ok

    def test_adds_per_vertex_stay_flat_at_k_n_over_4(self, monkeypatch):
        # counts, not time: each terminal is placed once per solve, and a
        # spread is placed again only after a round changed its tree.
        # Redoing every spread after each emission took 2.10, 2.96 and 3.18
        # adds per vertex at n = 200, 400 and 800 (8.65 and 16.82 at 1600
        # and 3200); keeping the unchanged ones takes 1.33, 1.34 and 1.44.
        add = PartitionState.add
        calls = Counter()

        def counted_add(self, *args, **kwargs):
            calls[self.graph.n] += 1
            return add(self, *args, **kwargs)

        monkeypatch.setattr(PartitionState, "add", counted_add)
        for n in (200, 400, 800):
            g, trees = gen_planted_cds(n, n // 4, n // 4, seed=1)
            terminals, demands = gen_gl_extension(n, n // 4, seed=1 ^ 0x5EED)
            inst = GLInstance(graph=g, terminals=terminals, demands=demands)
            assert verify_gl(inst, solve(inst, trees)).ok
        per_vertex = {n: c / n for n, c in calls.items()}
        assert max(per_vertex.values()) <= 1.6, per_vertex


def kept_spread_grid(family):
    """The seeded (instance, trees) pairs of one family of the exactness grid."""
    if family in ("interval", "biconvex"):
        # single-tree runs that steal: (size, k, seed), found by a seed scan
        cases = {
            "interval": [(58, 5, 68), (58, 5, 108), (48, 5, 138), (63, 5, 153)],
            "biconvex": [(19, 5, 3), (23, 4, 87), (30, 6, 94), (24, 5, 168)],
        }[family]
        for size, k, seed in cases:
            if family == "interval":
                m = gen_interval(size, k, seed)
                g, fam = m.graph, cds_interval(m, k)
            else:
                m = gen_biconvex(size, size + 4, k, seed)
                g, fam = m.derive_graph(), cds_biconvex(m, k)
            terminals, demands = gen_gl_extension(g.n, k, seed=seed)
            inst = GLInstance(graph=g, terminals=terminals, demands=demands)
            yield inst, [DominatingTree(g, s) for s in fam]
        return
    params = {
        "planted-n/4": [(n, n // 4, n // 4, seed) for n in (160, 320) for seed in (1, 2)],
        "planted-k8": [(n, 8, n // 4, seed) for n in (64, 200) for seed in (1, 2, 3)],
        "churn": CHURN,
    }[family]
    for n, k, extra, seed in params:
        g, trees = gen_planted_cds(n, k, extra, seed)
        terminals, demands = gen_gl_extension(n, k, seed=seed ^ 0xF00D)
        yield GLInstance(graph=g, terminals=terminals, demands=demands), trees


class TestKeptSpreads:
    """Keeping the spreads a round did not change never changes a partition."""

    @pytest.mark.parametrize(
        "family", ["planted-n/4", "planted-k8", "churn", "interval", "biconvex"]
    )
    def test_same_partition_as_redoing_every_spread(self, monkeypatch, family):
        # each instance is solved as shipped, then with `retire` first
        # dropping every kept spread, so that each round spreads every
        # terminal-bearing tree again, as before spreads were kept
        retire, add = PartitionState.retire, PartitionState.add
        adds, steals = Counter(), 0

        def redoing_every_spread(self, finished, used, validated):
            # the kept spreads are older than the round's `_log`, which
            # `retire` undoes first
            self._log[:0] = chain.from_iterable(self.spreads.values())
            self.spreads.clear()
            retire(self, finished, used, validated)

        def counted_add(self, *args, **kwargs):
            adds[PartitionState.retire is redoing_every_spread] += 1
            return add(self, *args, **kwargs)

        monkeypatch.setattr(PartitionState, "add", counted_add)
        for inst, trees in kept_spread_grid(family):
            trace = []
            kept = solve(inst, trees, trace=trace)
            steals += sum(ev[0] == "steal" for ev in trace)
            with monkeypatch.context() as m:
                m.setattr(PartitionState, "retire", redoing_every_spread)
                assert solve(inst, trees) == kept
        if family in ("interval", "biconvex"):
            assert steals > 0
        else:
            assert adds[False] < adds[True], adds  # spreads were kept


class TestCheckpoints:
    """A checkpoint re-checks the sets touched since the last one; `solve`
    ends with the whole suite."""

    def test_set_touched_by_add_is_rechecked(self):
        state = k4_state()
        state.checkpoint("init")  # every set is new, so all are checked
        state.hit_count[1][0] = 2  # corrupt set 1, which nothing touches after
        state.checkpoint("untouched")
        state.add(2, 0, parent=0)
        state.hit_count[0][1] = 2  # corrupt set 0, which the add touched
        with pytest.raises(EngineError, match="state-invariant: touched: hit count wrong on 0"):
            state.checkpoint("touched")
        state.hit_count[0][1] = 1
        with pytest.raises(EngineError, match="state-invariant: full: hit count wrong on 1"):
            state.check_invariants("full")

    def test_untouched_set_is_caught_by_the_final_check(self, monkeypatch):
        # one round, which picks the group of both terminals: no placement
        # reaches set 1 of the round's state, so only the full check that
        # ends the solve sees it corrupted (the group runs in its own state)
        add_trees = eng_module.add_trees
        states = []

        def corrupting(state):
            add_trees(state)
            if not states:
                state.hit_count[1][0] = 2
            states.append(state)

        monkeypatch.setattr(eng_module, "add_trees", corrupting)
        inst = GLInstance(graph=K4, terminals=(0, 1), demands=(2, 2))
        with pytest.raises(EngineError, match="state-invariant: solve: hit count wrong on 1"):
            solve(inst, k4_trees())
        assert len(states) == 2 and states[0] is not states[1]


class TestMergedPaths:
    """Instances that reach each branch of the Under-set growth rule.

    Built as `gen_planted_cds(n, k, extra, seed)` with terminals from
    `gen_gl_extension(n, k, seed=seed ^ 0xF00D)`; their outputs are pinned
    in tests/test_golden.py.
    """

    @pytest.mark.parametrize("params,expected", [
        ((44, 21, 13, 553), {"demote in ensure"}),
        ((60, 29, 4, 110), {"steal in ensure"}),
        ((142, 19, 18, 18), {"demote in ensure", "steal in ensure", "steal in add"}),
    ])
    def test_branch_is_reached(self, monkeypatch, params, expected):
        n, k, extra, seed = params
        g, trees = gen_planted_cds(n, k, extra, seed)
        terminals, demands = gen_gl_extension(n, k, seed=seed ^ 0xF00D)
        inst = GLInstance(graph=g, terminals=terminals, demands=demands)
        counts = Counter()
        depth = [0]
        ensure = eng_module._ensure_tree_adjacency
        grow = eng_module._grow_from_tree
        steal = PartitionState.steal

        def where():
            return "ensure" if depth[0] else "add"

        def counted_ensure(state):
            depth[0] += 1
            try:
                ensure(state)
            finally:
                depth[0] -= 1

        def counted_grow(state, j, ti):
            demoted = grow(state, j, ti)
            counts[f"demote in {where()}"] += demoted
            return demoted

        def counted_steal(self, *args):
            counts[f"steal in {where()}"] += 1
            return steal(self, *args)

        monkeypatch.setattr(eng_module, "_ensure_tree_adjacency", counted_ensure)
        monkeypatch.setattr(eng_module, "_grow_from_tree", counted_grow)
        monkeypatch.setattr(PartitionState, "steal", counted_steal)
        p = solve(inst, trees)
        assert {name for name, c in counts.items() if c} >= expected, counts
        monkeypatch.undo()
        assert verify_gl(inst, p).ok


class TestGrowthFrontier:
    """`_grow_from_tree` picks its vertex from a lazily kept heap; each pick
    must be the vertex and parent of the whole-tree scan it replaced."""

    @staticmethod
    def scan_choice(state, j, ti):
        g = state.graph
        tree = state.trees[ti]
        anchor = state.sets[j] & (state.trees[state.lead] | tree)
        v = min(w for w in tree if w not in state.sets[j] and g.adj[w] & anchor)
        return v, min(g.adj[v] & anchor)

    def checked_solves(self, monkeypatch, instances):
        grow = eng_module._grow_from_tree
        checked = [0]

        def checked_grow(state, j, ti):
            v, parent = self.scan_choice(state, j, ti)
            try:
                return grow(state, j, ti)
            finally:  # also when the placement completes a block (_Emit)
                assert state.placed.get(v) == j and state.attach_parent[v] == parent
                checked[0] += 1

        monkeypatch.setattr(eng_module, "_grow_from_tree", checked_grow)
        for n, k, extra, seed in instances:
            g, trees = gen_planted_cds(n, k, extra, seed)
            terminals, demands = gen_gl_extension(n, k, seed=seed ^ 0xF00D)
            inst = GLInstance(graph=g, terminals=terminals, demands=demands)
            p = solve(inst, trees)
            assert verify_gl(inst, p).ok
        return checked[0]

    @pytest.mark.parametrize("seed", range(20))
    def test_choice_tracks_adds_and_removes(self, seed):
        # random placements and removals on one set, including anchor
        # vertices leaving it, which no solve does; the heap must follow
        rng = random.Random(seed)
        n = 30
        g = random_graph(seed, n, 90, connected=True)
        # bare vertex sets: the heap reads no tree edge
        state = make_state(g, [range(10), range(10, 25)], [0], [n])
        state.place_terminals()
        for _ in range(60):
            leaves = [v for v in state.sets[0] if v != 0 and not state.children.get(v)]
            outside = [
                v for v in range(n)
                if v not in state.placed and g.adj[v] & state.sets[0]
            ]
            if leaves and (not outside or rng.random() < 0.4):
                state.remove(rng.choice(leaves), 0)
            elif outside:
                v = rng.choice(outside)
                state.add(v, 0, parent=min(g.adj[v] & state.sets[0]))
            try:
                expected = self.scan_choice(state, 0, 1)
            except ValueError:  # no tree-1 vertex to grow into
                continue
            assert state._growth_choice(0, 1) == expected

    def test_no_vertex_to_grow_into_raises(self):
        g = graph_of(3, [(0, 1), (1, 2)])
        trees = [DominatingTree(g, {1}), {0, 2}]
        state = make_state(g, trees, [1], [3])
        state.place_terminals()
        state.add(0, 0, parent=1)
        state.add(2, 0, parent=1)  # the set holds all of tree 1
        with pytest.raises(EngineError, match="state-invariant: set 0 has no vertex of tree 1"):
            _grow_from_tree(state, 0, 1)

    @pytest.mark.parametrize("params", [(44, 21, 13, 553), (60, 29, 4, 110), (142, 19, 18, 18)])
    def test_merged_path_instances(self, monkeypatch, params):
        assert self.checked_solves(monkeypatch, [params]) > 0

    def test_seeded_corpus(self, monkeypatch):
        rng = random.Random(606)
        instances = []
        for i in range(120):
            # half with many sets, half with few large ones (long growth runs)
            n = rng.randint(20, 300) if i % 2 else rng.randint(200, 800)
            k = rng.randint(2, max(2, n // 8)) if i % 2 else rng.randint(2, 4)
            instances.append((n, k, rng.randint(0, n // 4), rng.randint(0, 10**6)))
        assert self.checked_solves(monkeypatch, instances) > 300


class TestStateRaises:
    """Each precondition of a state mutation raises, also under `python -O`."""

    def test_add_of_a_placed_vertex(self):
        state = k4_state()
        with pytest.raises(EngineError, match="state-invariant: add: 0 is not an unplaced member"):
            state.add(0, 1, parent=None)

    def test_add_to_a_full_set(self):
        state = k4_state()
        state.add(2, 0, parent=0)
        with pytest.raises(EngineError, match="state-invariant: add: set 0 is full"):
            state.add(3, 0, parent=0)

    def test_add_under_a_parent_of_another_set(self):
        state = k4_state()
        with pytest.raises(EngineError, match="state-invariant: add: parent 1 of 2 is off set 0"):
            state.add(2, 0, parent=1)

    def test_remove_of_a_vertex_outside_the_set(self):
        state = k4_state()
        with pytest.raises(EngineError, match="state-invariant: remove: 2 is not in set 0"):
            state.remove(2, 0)

    def test_remove_of_a_terminal(self):
        state = k4_state()
        with pytest.raises(EngineError, match="state-invariant: remove: 0 is the terminal of set 0"):
            state.remove(0, 0)

    def test_remove_of_a_vertex_with_attached_children(self):
        state = k4_state(terminals=(0,), demands=(4,))
        state.add(2, 0, parent=0)
        state.add(3, 0, parent=2)
        with pytest.raises(EngineError, match="state-invariant: remove: 2 is not an attachment leaf"):
            state.remove(2, 0)

    def test_vlabel_of_a_placed_vertex(self):
        state = k4_state()
        with pytest.raises(EngineError, match="state-invariant: vlabel: 0 is placed or assigned"):
            state.assign_vlabel(0, 1)

    def test_tlabel_of_a_taken_tree(self):
        state = k4_state()
        state.set_tlabel(0, 1)
        with pytest.raises(EngineError, match="state-invariant: tlabel: set 1 or tree 1 is taken"):
            state.set_tlabel(1, 1)

    def test_trim_below_the_terminal(self):
        state = k4_state()
        state.add(2, 0, parent=0)
        with pytest.raises(EngineError, match="state-invariant: trim: set 0 has no leaf left"):
            state.trim(0, 0)
        assert state.sets[0] == {0}

    def test_raise_survives_python_O(self):
        script = textwrap.dedent(
            """
            from cdspart.engine import EngineError

            from test_engine import k4_state

            if __debug__:
                raise SystemExit("asserts are on: not running under -O")
            state = k4_state()
            state.add(2, 0, parent=0)
            try:
                state.add(3, 0, parent=0)
            except EngineError as exc:
                print(exc)
            """
        )
        src = str(Path(eng_module.__file__).resolve().parent.parent)
        env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, str(Path(__file__).parent)]))
        out = subprocess.run(
            [sys.executable, "-O", "-c", script],
            env=env, capture_output=True, text=True, check=True,
        )
        assert out.stdout.strip() == "state-invariant: add: set 0 is full"


class TestInvariantRules:
    """Each `check_invariants` rule fires on a state corrupted to break it alone."""

    @staticmethod
    def fires(state, message):
        with pytest.raises(EngineError, match=f"state-invariant: corrupt: {message}"):
            state.check_invariants("corrupt")

    def test_sets_overlap(self):
        state = k4_state()
        state.sets[1].add(0)
        self.fires(state, "sets overlap at 1")

    def test_terminal_missing(self):
        state = k4_state()
        state.sets[0].discard(0)
        self.fires(state, "terminal missing from 0")

    def test_over_demand(self):
        state = k4_state()
        state.sets[0].update({2, 3})
        self.fires(state, "set 0 over demand")

    def test_hit_count(self):
        state = k4_state()
        state.hit_count[0][0] = 2
        self.fires(state, "hit count wrong on 0")

    def test_placement_map_stale(self):
        state = k4_state()
        state.placed[2] = 0
        self.fires(state, "placement map stale at 2")

    def test_bad_attachment(self):
        state = k4_state()
        state.attach_parent[1] = 0
        self.fires(state, "bad attachment of 1")

    def test_tlabel_not_injective(self):
        state = k4_state()
        state.tlabel.update({0: 1, 1: 1})
        self.fires(state, "tlabel not injective")

    def test_vlabel_holds_a_placed_vertex(self):
        state = k4_state()
        state.vlabel_of[0] = 1
        self.fires(state, "vlabel holds placed 0")

    def test_vlabel_not_adjacent(self):
        # terminal 2 lies on tree 1, so set 1 has no lead-tree part to touch
        state = k4_state(terminals=(0, 2))
        state.assign_vlabel(3, 1)
        self.fires(state, "vlabel 3 not adjacent to set 1")

    def test_no_set_is_over(self):
        state = k4_state()
        state.classify(0, "under")
        self.fires(state, "no set is Over")
