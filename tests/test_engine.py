import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import cdspart.engine as eng_module
from cdspart.engine import (
    EngineError,
    GLInstance,
    PartitionState,
    _choose_group,
    _trim_block,
    _run_single_tree,
    _TreeView,
    add_trees,
    add_vertices,
    categorize_trees,
    labeling,
    solve,
    validate_cds_input,
)
from cdspart.generators import gen_gl_extension, gen_planted_cds
from cdspart.graphs import DominatingTree, Graph, is_connected_subset
from cdspart.verify import brute_gl, verify_gl


def k4():
    return Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])


def k4_trees():
    return (
        DominatingTree(frozenset({0, 1}), ((0, 1),)),
        DominatingTree(frozenset({2, 3}), ((2, 3),)),
    )


def planted(seed, n, k, *, on_trees=False):
    s = seed
    while True:
        g, trees = gen_planted_cds(n, k, extra_edges=n // 4, seed=s)
        if not on_trees or len(trees[0].vertices) >= k:
            break
        s += 1009  # first backbone too small to host all terminals; reseed
    within = sorted(trees[0].vertices) if on_trees else None
    terminals, demands = gen_gl_extension(g.n, k, seed=s ^ 0x9A7, within=within)
    return GLInstance(graph=g, terminals=terminals, demands=demands), trees


class TestGLInstanceValidation:
    def test_duplicate_terminals(self):
        with pytest.raises(EngineError, match="invalid-instance"):
            GLInstance(graph=k4(), terminals=(0, 0), demands=(2, 2))

    def test_zero_demand(self):
        with pytest.raises(EngineError, match="invalid-instance"):
            GLInstance(graph=k4(), terminals=(0, 1), demands=(0, 4))

    def test_sum_mismatch(self):
        with pytest.raises(EngineError, match="invalid-instance"):
            GLInstance(graph=k4(), terminals=(0, 1), demands=(2, 3))


class TestCdsInputValidation:
    def test_overlapping_trees(self):
        t = DominatingTree(frozenset({0, 1}), ((0, 1),))
        with pytest.raises(EngineError, match="invalid-cds-input"):
            validate_cds_input(k4(), (t, t))

    def test_non_dominating_tree(self):
        g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4)])
        t = DominatingTree(frozenset({0, 1}), ((0, 1),))
        with pytest.raises(EngineError, match="invalid-cds-input"):
            validate_cds_input(g, (t,))


class TestCategorizeTrees:
    def test_all_terminals_on_first_tree(self):
        trees, t0, t1, tmany = categorize_trees(k4(), k4_trees(), [0, 1])
        assert tmany == (0,) and t0 == (1,) and t1 == ()

    def test_one_terminal_per_tree(self):
        trees, t0, t1, tmany = categorize_trees(k4(), k4_trees(), [0, 2])
        assert t1 == (0, 1) and t0 == () and tmany == ()

    def test_stray_terminal_attached(self):
        g = Graph(5, [(0, 1), (1, 2), (0, 2), (0, 3), (1, 3), (2, 3), (0, 4), (1, 4)])
        tree = DominatingTree(frozenset({0, 1}), ((0, 1),))
        trees, t0, t1, tmany = categorize_trees(g, (tree,), [4])
        assert 4 in trees[0].vertices
        trees[0].validate(g)
        assert t1 == (0,)


class TestSingleTreePhases:
    def make_state(self, demands=(2, 2)):
        views = [_TreeView(t, i) for i, t in enumerate(k4_trees())]
        state = PartitionState(
            k4(), frozenset(range(4)), [0, 1], list(demands), views
        )
        state.place_terminals()
        return state

    def test_add_trees_places_lead_and_free_vertices(self):
        state = self.make_state()
        add_trees(state)
        state.check_invariants("test")
        assert state.placed[0] == 0 and state.placed[1] == 1
        assert 2 not in state.placed and 3 not in state.placed

    def test_labeling_classifies_and_assigns(self):
        state = self.make_state()
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
        state = self.make_state()
        add_trees(state)
        labeling(state)
        add_vertices(state)
        state.check_invariants("test")
        assert all(state.full)
        assert sorted(map(sorted, state.sets)) == [[0, 3], [1, 2]]

    def test_all_over_when_assignments_split(self):
        # C_4 with opposite trees: each spare vertex labels a different set,
        # both deficits are covered, nobody is Under, no tree is handed out
        g = Graph(4, [(0, 1), (0, 2), (1, 3), (2, 3)])
        trees = (
            DominatingTree(frozenset({0, 1}), ((0, 1),)),
            DominatingTree(frozenset({2, 3}), ((2, 3),)),
        )
        views = [_TreeView(t, i) for i, t in enumerate(trees)]
        state = PartitionState(g, frozenset(range(4)), [0, 1], [2, 2], views)
        state.place_terminals()
        add_trees(state)
        labeling(state)
        assert state.status == ["over", "over"]
        assert state.tlabel == [None, None]
        # the equality case: each Over set absorbs exactly its assignment
        add_vertices(state)
        assert sorted(map(sorted, state.sets)) == [[0, 2], [1, 3]]

    def test_star_leaves_attach_to_center_set(self):
        star = Graph(5, [(0, 1), (0, 2), (0, 3), (0, 4)])
        tree = DominatingTree(frozenset({0}), ())
        views = [_TreeView(tree, 0)]
        state = PartitionState(star, frozenset(range(5)), [0], [5], views)
        state.place_terminals()
        try:
            add_trees(state)
        except Exception as exc:  # the lone set fills and emits
            from cdspart.engine import _Emit

            assert isinstance(exc, _Emit)
        assert set(state.sets[0]) == set(range(5))


def run_single_tree(inst, trees):
    """The single-tree case on a whole instance whose terminals lie on trees[0]."""
    views = [_TreeView(t, i) for i, t in enumerate(trees)]
    return _run_single_tree(
        inst.graph, frozenset(range(inst.graph.n)), inst.terminals, inst.demands, views
    )


def assert_valid_remainder(inst, trees, blocks, used):
    """After an emission, the unused trees are disjoint dominating trees of
    the vertices left over, and the left-over demands add up to them."""
    rest = set(range(inst.graph.n))
    for _, block in blocks:
        rest -= block
    emitted = {i for i, _ in blocks}
    assert sum(d for i, d in enumerate(inst.demands) if i not in emitted) == len(rest)
    seen = set()
    for ti, t in enumerate(trees):
        if ti in used:
            continue
        assert t.vertices <= rest and not t.vertices & seen
        seen |= t.vertices
        assert is_connected_subset(inst.graph, t.vertices)
        for v in rest - t.vertices:
            assert inst.graph.neighbor_set(v) & t.vertices


class TestSolveSingleTree:
    def test_k4_two_blocks(self):
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(2, 2))
        blocks, used = run_single_tree(inst, k4_trees())
        assert used == [0, 1] and [i for i, _ in blocks] == [0, 1]
        partition = [b for _, b in blocks]
        assert verify_gl(inst, partition).ok
        assert solve(inst, k4_trees()).blocks == tuple(partition)
        assert brute_gl(inst) is not None

    def test_k1_single_block(self):
        inst = GLInstance(graph=k4(), terminals=(2,), demands=(4,))
        tree = (DominatingTree(frozenset({2, 3}), ((2, 3),)),)
        blocks, used = run_single_tree(inst, tree)
        assert blocks == [(0, frozenset({0, 1, 2, 3}))] and used == [0]
        assert solve(inst, tree).blocks == (frozenset({0, 1, 2, 3}),)

    def test_emission_on_demand_one(self):
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(1, 3))
        blocks, used = run_single_tree(inst, k4_trees())
        assert blocks == [(0, frozenset({0}))] and used == [0]
        # the unused tree is a valid dominating tree of what is left
        assert_valid_remainder(inst, k4_trees(), blocks, used)
        assert solve(inst, k4_trees()).blocks[0] == frozenset({0})

    @pytest.mark.parametrize("seed", range(25))
    def test_planted_single_tree_runs(self, seed):
        k = 2 + seed % 4
        n = max(24 + seed, k * (k + 2))
        inst, trees = planted(seed, n, k, on_trees=True)
        blocks, used = run_single_tree(inst, trees)
        if len(blocks) == k:
            assert verify_gl(inst, [b for _, b in blocks]).ok
        else:
            for i, block in blocks:
                assert inst.terminals[i] in block
                assert len(block) == inst.demands[i]
                assert is_connected_subset(inst.graph, block)
            assert_valid_remainder(inst, trees, blocks, used)


class TestChooseGroup:
    def test_single_lead_takes_everything(self):
        g = k4()
        trees, t0, t1, tmany = categorize_trees(g, k4_trees(), [0, 1])
        sets = [{0}, {1}]
        lead, members, extras = _choose_group(trees, t0, t1, tmany, [0, 1], [2, 2], sets)
        assert lead == 0 and members == [0, 1] and extras == [1]

    def test_chosen_groups_are_feasible_in_real_solves(self, monkeypatch):
        # capture every group selection made across a batch of solves and
        # re-check the qualifying inequality on the captured arguments
        import cdspart.engine as eng

        captured = []
        original = eng._choose_group

        def wrapped(pool, t0, t1, tmany, terminals, demands, sets):
            out = original(pool, t0, t1, tmany, terminals, demands, sets)
            lead, members, extras = out
            union = set(pool[lead].vertices)
            for i in members:
                union |= sets[i]
            for e in extras:
                union |= pool[e].vertices
            captured.append((len(union), sum(demands[i] for i in members)))
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


class TestTrim:
    def test_trim_keeps_terminal_and_connectivity(self):
        g = Graph(6, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0)])
        block = frozenset(range(6))
        out = _trim_block(g, block, terminal=2, target=3)
        assert len(out) == 3 and 2 in out
        assert is_connected_subset(g, out)


class TestSolve:
    def test_k4_general(self):
        inst = GLInstance(graph=k4(), terminals=(0, 2), demands=(1, 3))
        p = solve(inst, k4_trees())
        assert verify_gl(inst, p).ok
        assert p.blocks[0] == frozenset({0})

    @pytest.mark.parametrize("seed", range(40))
    def test_planted_instances_verify(self, seed):
        k = 1 + seed % 6
        n = max(2 * k + 2, 12 + (seed * 5) % 60)
        inst, trees = planted(seed, n, k)
        p = solve(inst, trees)
        assert verify_gl(inst, p).ok

    @pytest.mark.parametrize("seed", range(12))
    def test_family_restart_variant_verifies(self, seed):
        k = 2 + seed % 4
        inst, trees = planted(seed, 30, k)
        p = solve(inst, trees, family_restart=True)
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
        from cdspart.generators import SplitMix64

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
            for i, block in blocks:
                assert p.blocks[i] == block
        assert found, "no emission case arose in the sample"


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


class TestFamilyRestart:
    def test_detector_emits_tight_family(self):
        # two sets that each straddle both trees fill up; neither triggers
        # the single-tree rule, but together they hit exactly two trees
        from cdspart.engine import _Emit

        g = k4()
        views = [_TreeView(t, i) for i, t in enumerate(k4_trees())]
        state = PartitionState(
            g, frozenset(range(4)), [0, 1], [2, 2], views, family_restart=True
        )
        state.place_terminals()
        state.add(2, 0, parent=0)  # set 0 = {0, 2}: hits trees 0 and 1
        with pytest.raises(_Emit) as exc:
            state.add(3, 1, parent=1)  # set 1 = {1, 3}: same, family closes
        assert exc.value.set_indices == [0, 1]
        assert exc.value.tree_indices == [0, 1]

    def test_without_flag_no_family_emission(self):
        g = k4()
        views = [_TreeView(t, i) for i, t in enumerate(k4_trees())]
        state = PartitionState(g, frozenset(range(4)), [0, 1], [2, 2], views)
        state.place_terminals()
        state.add(2, 0, parent=0)
        state.add(3, 1, parent=1)
        assert all(state.full)


class TestStateInvariants:
    def test_checker_catches_disconnection(self):
        g = Graph(4, [(0, 1), (1, 2), (2, 3)])
        tree = DominatingTree(frozenset({1, 2}), ((1, 2),))
        views = [_TreeView(tree, 0)]
        state = PartitionState(g, frozenset(range(4)), [1], [4], views)
        state.place_terminals()
        state.sets[0].add(3)  # corrupt: 3 is not adjacent to {1}
        state.placed[3] = 0
        with pytest.raises(EngineError, match="state-invariant"):
            state.check_invariants("corrupt")

    def test_under_monotonicity_guard(self):
        views = [_TreeView(t, i) for i, t in enumerate(k4_trees())]
        state = PartitionState(k4(), frozenset(range(4)), [0, 1], [2, 2], views)
        state.place_terminals()
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
        inst = GLInstance(graph=k4(), terminals=(0, 1), demands=(2, 2))
        with pytest.raises(EngineError, match="state-invariant: retire"):
            solve(inst, k4_trees())

    def test_retire_check_survives_python_O(self):
        script = textwrap.dedent(
            """
            import cdspart.engine as eng
            from cdspart.graphs import DominatingTree, Graph

            if __debug__:
                raise SystemExit("asserts are on: not running under -O")
            original = eng._run_single_tree
            eng._run_single_tree = lambda *a, **kw: (original(*a, **kw)[0], [])
            g = Graph(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)])
            trees = (
                DominatingTree(frozenset({0, 1}), ((0, 1),)),
                DominatingTree(frozenset({2, 3}), ((2, 3),)),
            )
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
