"""Conversion of k vertex-disjoint dominating trees into a partition with
k connected blocks of prescribed sizes, each containing its terminal.

The solver keeps a `PartitionState` (one growing vertex set per terminal)
and works in two layers:

* the single-tree case: all terminals lie on the first tree; the tree is
  spread over the sets, every other vertex is either placed or assigned
  (`vlabel`), sets are classified Over/Under by whether their assignment
  covers their remaining demand, each Under set privately consumes one of
  the remaining trees (`tlabel`), and surpluses are stolen from Over sets;
* the general driver `solve`, the only entry point: trees are grouped so
  that one terminal-bearing tree plus enough terminal-free trees can
  satisfy a group of demands, the single-tree case runs on the union, and
  the driver goes on with the remaining vertices, terminals and trees.

Whenever a set reaches its demand while intersecting exactly one tree, the
block is emitted, its tree retired, and the remainder is a strictly
smaller instance of the same problem.  All arbitrary choices resolve to
the lowest vertex id / lowest index, so runs are reproducible.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import Iterable, Sequence

from .graphs import (
    DominatingTree,
    Graph,
    GraphError,
    VertexSet,
    is_connected_subset,
)

CdsInput = tuple[DominatingTree, ...]
TraceEvent = tuple


class EngineError(GraphError):
    pass


@dataclass(frozen=True)
class GLInstance:
    """A graph, k distinct terminals and k positive demands summing to n."""

    graph: Graph
    terminals: tuple[int, ...]
    demands: tuple[int, ...]

    def __post_init__(self) -> None:
        k = len(self.terminals)
        if k < 1:
            raise EngineError("invalid-instance", "k must be at least 1")
        if len(self.demands) != k:
            raise EngineError("invalid-instance", "terminal and demand counts differ")
        if len(set(self.terminals)) != k:
            raise EngineError("invalid-instance", "terminals are not distinct")
        for c in self.terminals:
            if not 0 <= c < self.graph.n:
                raise EngineError("invalid-instance", f"terminal {c} out of range")
        for d in self.demands:
            if d < 1:
                raise EngineError("invalid-instance", f"demand {d} < 1")
        if sum(self.demands) != self.graph.n:
            raise EngineError(
                "invalid-instance",
                f"demands sum to {sum(self.demands)}, graph has {self.graph.n}",
            )

    @property
    def k(self) -> int:
        return len(self.terminals)


@dataclass(frozen=True)
class GlPartition:
    blocks: tuple[VertexSet, ...]


def validate_cds_input(g: Graph, trees: Sequence[DominatingTree]) -> None:
    if not trees:
        raise EngineError("invalid-cds-input", "no trees")
    seen: set[int] = set()
    for i, t in enumerate(trees):
        try:
            t.validate(g)
        except GraphError as exc:
            raise EngineError("invalid-cds-input", f"tree {i}: {exc}") from exc
        if t.vertices & seen:
            raise EngineError("invalid-cds-input", f"tree {i} overlaps an earlier tree")
        seen |= t.vertices


def categorize_trees(
    g: Graph, trees: Sequence[DominatingTree], terminals: Sequence[int]
) -> tuple[CdsInput, tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Put every terminal on a tree, then bucket trees by terminal count.

    Stray terminals are appended to tree 0 (the lowest index; every tree
    dominates every vertex, so an attachment edge always exists), keeping
    it a dominating tree.  Returns (updated trees, zero-, one-, many-
    terminal tree indices).
    """
    out = list(trees)
    on_tree: dict[int, int] = {}
    for i, t in enumerate(out):
        for v in t.vertices:
            on_tree[v] = i
    for c in terminals:
        if c in on_tree:
            continue
        host = out[0]
        witness_pool = g.neighbor_set(c) & host.vertices
        if not witness_pool:
            raise EngineError("invalid-cds-input", f"tree 0 does not dominate {c}")
        w = min(witness_pool)
        out[0] = DominatingTree(
            vertices=host.vertices | {c}, edges=host.edges + ((w, c),)
        )
        on_tree[c] = 0
    counts = [0] * len(out)
    for c in terminals:
        counts[on_tree[c]] += 1
    t0 = tuple(i for i, c in enumerate(counts) if c == 0)
    t1 = tuple(i for i, c in enumerate(counts) if c == 1)
    tmany = tuple(i for i, c in enumerate(counts) if c > 1)
    return tuple(out), t0, t1, tmany


class _TreeView:
    """Per-solve view of one dominating tree: vertex set + tree adjacency."""

    __slots__ = ("vertices", "adj", "size", "label")

    def __init__(self, tree: DominatingTree, label: int):
        self.vertices = tree.vertices
        self.adj = tree.adjacency()
        self.size = len(tree.vertices)
        self.label = label


class _Emit(Exception):
    """Internal signal: full set(s) intersecting exactly as many trees."""

    def __init__(self, set_indices: list[int], tree_indices: list[int]):
        self.set_indices = set_indices
        self.tree_indices = tree_indices


class PartitionState:
    """Mutable bookkeeping for one placement run.

    Tracks the sets, placement and assignment maps, Over/Under status,
    per-set tree intersections and the attachment forest that certifies
    leaf removals are connectivity-safe.
    """

    def __init__(
        self,
        graph: Graph,
        members: frozenset[int],
        terminals: Sequence[int],
        demands: Sequence[int],
        trees: Sequence[_TreeView],
        *,
        set_labels: Sequence[int] | None = None,
        family_restart: bool = False,
        trace: list[TraceEvent] | None = None,
        strict: bool = True,
    ):
        self.graph = graph
        self.members = members
        self.terminals = list(terminals)
        self.demands = list(demands)
        self.trees = list(trees)
        self.k = len(self.terminals)
        self.set_labels = list(set_labels) if set_labels is not None else list(range(self.k))
        self.family_restart = family_restart
        self.trace = trace
        self.strict = strict
        self.tree_of: dict[int, int] = {}
        for ti, tv in enumerate(self.trees):
            for v in tv.vertices:
                self.tree_of[v] = ti
        self.sets: list[set[int]] = [set() for _ in range(self.k)]
        self.t1_part: list[set[int]] = [set() for _ in range(self.k)]
        self.placed: dict[int, int] = {}
        self.full: list[bool] = [False] * self.k
        self.status: list[str | None] = [None] * self.k
        self.was_under: list[bool] = [False] * self.k
        self.vlabel_of: dict[int, int] = {}
        self.vlabel_sets: list[set[int]] = [set() for _ in range(self.k)]
        self.tlabel: list[int | None] = [None] * self.k
        self.tlabel_owner: dict[int, int] = {}
        self.hit_count: list[dict[int, int]] = [dict() for _ in range(self.k)]
        self.attach_parent: dict[int, int | None] = {}
        self.children: dict[int, int] = {}

    # -- mutations --------------------------------------------------------

    def place_terminals(self) -> None:
        for i, c in enumerate(self.terminals):
            self.add(c, i, parent=None)

    def add(self, v: int, i: int, parent: int | None, *, _quiet: bool = False) -> None:
        assert v in self.members and v not in self.placed
        assert not self.full[i]
        prev = self.vlabel_of.pop(v, None)
        if prev is not None:
            self.vlabel_sets[prev].discard(v)
        self.sets[i].add(v)
        self.placed[v] = i
        self.attach_parent[v] = parent
        if parent is not None:
            assert self.graph.has_edge(parent, v) and self.placed.get(parent) == i
            self.children[parent] = self.children.get(parent, 0) + 1
        ti = self.tree_of.get(v)
        if ti is not None:
            self.hit_count[i][ti] = self.hit_count[i].get(ti, 0) + 1
            if ti == 0:
                self.t1_part[i].add(v)
        if not _quiet and self.trace is not None:
            self.trace.append(("place", v, self.set_labels[i]))
        if len(self.sets[i]) == self.demands[i]:
            self.full[i] = True
            self._emission_check(i)

    def remove(self, v: int, i: int, *, _quiet: bool = False) -> None:
        assert self.placed.get(v) == i
        assert v != self.terminals[i]
        assert self.children.get(v, 0) == 0, "only attachment leaves may be removed"
        parent = self.attach_parent.pop(v)
        if parent is not None:
            self.children[parent] -= 1
        self.sets[i].discard(v)
        del self.placed[v]
        ti = self.tree_of.get(v)
        if ti is not None:
            self.hit_count[i][ti] -= 1
            if self.hit_count[i][ti] == 0:
                del self.hit_count[i][ti]
            if ti == 0:
                self.t1_part[i].discard(v)
        self.full[i] = False

    def steal(self, v: int, frm: int, to: int, parent: int) -> None:
        if self.trace is not None:
            self.trace.append(("steal", v, self.set_labels[frm], self.set_labels[to]))
        self.remove(v, frm, _quiet=True)
        self.add(v, to, parent, _quiet=True)

    def assign_vlabel(self, v: int, i: int) -> None:
        assert v not in self.placed and v not in self.vlabel_of
        self.vlabel_of[v] = i
        self.vlabel_sets[i].add(v)

    def classify(self, i: int, status: str) -> None:
        if self.was_under[i] and status == "over":
            raise EngineError("under-monotonicity", f"set {i} left Under")
        self.status[i] = status
        if status == "under":
            self.was_under[i] = True

    def set_tlabel(self, i: int, ti: int) -> None:
        assert self.tlabel[i] is None and ti not in self.tlabel_owner
        self.tlabel[i] = ti
        self.tlabel_owner[ti] = i

    # -- queries ----------------------------------------------------------

    def deficit(self, i: int) -> int:
        return self.demands[i] - len(self.sets[i])

    def needs_demotion(self, i: int) -> bool:
        return self.status[i] == "over" and self.deficit(i) > len(self.vlabel_sets[i])

    def contains_whole_tree(self, i: int) -> bool:
        return any(
            self.hit_count[i].get(ti, 0) == self.trees[ti].size
            for ti in range(1, len(self.trees))
        )

    def _emission_check(self, i: int) -> None:
        hits = list(self.hit_count[i])
        if len(hits) == 1:
            if self.trace is not None:
                self.trace.append(("emit", self.set_labels[i], self.trees[hits[0]].label))
            raise _Emit([i], hits)
        if self.family_restart:
            fulls = [j for j in range(self.k) if self.full[j]]
            for mask in sorted(range(1, 1 << len(fulls)), key=lambda m: (m.bit_count(), m)):
                group = [fulls[j] for j in range(len(fulls)) if mask >> j & 1]
                union: set[int] = set()
                for j in group:
                    union.update(self.hit_count[j])
                if len(union) == len(group):
                    if self.trace is not None:
                        for j in group:
                            self.trace.append(("emit", self.set_labels[j], -1))
                    raise _Emit(group, sorted(union))

    # -- invariant suite ---------------------------------------------------

    def check_invariants(self, where: str = "") -> None:
        """Full state-invariant suite; raises EngineError on any violation."""
        seen: set[int] = set()
        for i, s in enumerate(self.sets):
            if s & seen:
                raise EngineError("state-invariant", f"{where}: sets overlap at {i}")
            seen |= s
            if self.terminals[i] not in s:
                raise EngineError("state-invariant", f"{where}: terminal missing from {i}")
            if not is_connected_subset(self.graph, s):
                raise EngineError("state-invariant", f"{where}: set {i} disconnected")
            if self.full[i] != (len(s) == self.demands[i]):
                raise EngineError("state-invariant", f"{where}: full flag wrong on {i}")
            if len(s) > self.demands[i]:
                raise EngineError("state-invariant", f"{where}: set {i} over demand")
            for ti, cnt in self.hit_count[i].items():
                if cnt != len(s & self.trees[ti].vertices):
                    raise EngineError("state-invariant", f"{where}: hit count wrong on {i}")
        for v, i in self.placed.items():
            if v not in self.sets[i]:
                raise EngineError("state-invariant", f"{where}: placement map stale at {v}")
            parent = self.attach_parent.get(v)
            if parent is not None and (
                self.placed.get(parent) != i or not self.graph.has_edge(parent, v)
            ):
                raise EngineError("state-invariant", f"{where}: bad attachment of {v}")
        owners = [i for i in self.tlabel if i is not None]
        if len(owners) != len(set(owners)):
            raise EngineError("state-invariant", f"{where}: tlabel not injective")
        for v, i in self.vlabel_of.items():
            if v in self.placed:
                raise EngineError("state-invariant", f"{where}: vlabel holds placed {v}")
            if not (self.graph.neighbor_set(v) & self.t1_part[i]):
                raise EngineError(
                    "state-invariant", f"{where}: vlabel {v} not adjacent to set {i}"
                )
        if any(st is not None for st in self.status):
            if not any(st == "over" for st in self.status):
                raise EngineError("state-invariant", f"{where}: no set is Over")

    checkpoints_run = 0  # class-wide tally, used by test instrumentation

    def checkpoint(self, where: str) -> None:
        if self.strict:
            PartitionState.checkpoints_run += 1
            self.check_invariants(where)


# -- single-tree case ------------------------------------------------------


def _bfs_place_tree(state: PartitionState, ti: int, roots: list[int]) -> None:
    """Spread one tree over the sets of its terminals `roots`, tree edges only."""
    tv = state.trees[ti]
    queue = deque(roots)
    while queue:
        x = queue.popleft()
        home = state.placed[x]
        for y in tv.adj[x]:
            if y not in state.placed:
                state.add(y, home, parent=x)
                queue.append(y)


def _place_non_tree(state: PartitionState) -> None:
    """Place every vertex lying on no tree into an adjacent non-full set."""
    on_trees: set[int] = set()
    for tv in state.trees:
        on_trees |= tv.vertices
    for v in sorted(state.members - on_trees):
        if v in state.placed:
            continue
        nbrs = state.graph.neighbor_set(v)
        target = next(
            (i for i in range(state.k) if not state.full[i] and nbrs & state.sets[i]),
            None,
        )
        assert target is not None, "dominating trees leave no orphan vertices"
        state.add(v, target, parent=min(nbrs & state.sets[target]))


def add_trees(state: PartitionState) -> None:
    """Step 1: spread every terminal-bearing tree, then place all non-tree
    vertices.

    Trees are spread in ascending index, each BFS rooted at the tree's
    terminals in ascending id.  In the single-tree case only the lead tree
    bears terminals.
    """
    roots: dict[int, list[int]] = {}
    for c in sorted(state.terminals):
        roots.setdefault(state.tree_of[c], []).append(c)
    for ti in sorted(roots):
        _bfs_place_tree(state, ti, roots[ti])
    _place_non_tree(state)


def _place(state: PartitionState) -> None:
    """Place the terminals, then spread the trees, checking both steps."""
    state.place_terminals()
    state.checkpoint("init")
    add_trees(state)
    state.checkpoint("add-trees")


def _absorb_and_label(state: PartitionState, idxs: Iterable[int]) -> None:
    """Under sets take all their assigned vertices and a private tree."""
    for i in idxs:
        for v in sorted(state.vlabel_sets[i]):
            state.add(v, i, parent=min(state.graph.neighbor_set(v) & state.t1_part[i]))
        if state.tlabel[i] is None:
            free = next(
                (ti for ti in range(1, len(state.trees)) if ti not in state.tlabel_owner),
                None,
            )
            assert free is not None, "at least one Over set leaves a tree unassigned"
            state.set_tlabel(i, free)


def _ensure_tree_adjacency(state: PartitionState) -> None:
    """Give every tree-assigned set one vertex of its tree, stealing if needed."""
    g = state.graph
    while True:
        demoted = None
        for ti in range(1, len(state.trees)):
            j = state.tlabel_owner.get(ti)
            if j is None or state.hit_count[j].get(ti, 0) > 0:
                continue
            anchor = state.t1_part[j]
            u = min(v for v in state.trees[ti].vertices if g.neighbor_set(v) & anchor)
            parent = min(g.neighbor_set(u) & anchor)
            if u not in state.placed:
                s = state.vlabel_of[u]
                assert state.status[s] == "over"
                state.add(u, j, parent)
                if state.needs_demotion(s):
                    demoted = s
                    break
            else:
                s = state.placed[u]
                assert state.status[s] == "under" and s != j
                state.steal(u, s, j, parent)
        if demoted is None:
            return
        state.classify(demoted, "under")
        _absorb_and_label(state, [demoted])


def labeling(state: PartitionState) -> None:
    """Step 2-3: assign unplaced tree vertices, classify sets, hand out trees.

    Every vertex of the non-lead trees is assigned to the lowest-index set
    whose lead-tree part it neighbours; a set is Over when the assignment
    covers its remaining demand, else Under.  Under sets absorb their
    assignment and each receives a distinct private tree, then every such
    set is guaranteed one vertex of that tree.
    """
    g = state.graph
    for ti in range(1, len(state.trees)):
        for v in sorted(state.trees[ti].vertices):
            target = next(
                (i for i in range(state.k) if g.neighbor_set(v) & state.t1_part[i]),
                None,
            )
            assert target is not None, "the lead tree dominates every vertex"
            state.assign_vlabel(v, target)
    for i in range(state.k):
        state.classify(
            i, "over" if state.deficit(i) <= len(state.vlabel_sets[i]) else "under"
        )
    if not any(st == "over" for st in state.status):
        raise EngineError("state-invariant", "no set is Over after classification")
    _absorb_and_label(state, [i for i in range(state.k) if state.status[i] == "under"])
    _ensure_tree_adjacency(state)


def add_vertices(state: PartitionState) -> None:
    """Step 4-5: feed Under sets from their trees, then finish everyone.

    Under sets absorb their private tree until full or the tree is
    exhausted (stealing assigned or leaf vertices from other sets, with
    Over sets re-classified when their surplus runs out); Over sets then
    absorb their assignment to fullness, and leftover tree vertices join
    any adjacent non-full set (each now contains a whole dominating tree).
    """
    g = state.graph
    guard = 4 * (len(state.members) + 1) * (state.k + 1) * (len(state.trees) + 1)
    while True:
        j = next(
            (
                i
                for i in range(state.k)
                if state.status[i] == "under"
                and not state.full[i]
                and not state.contains_whole_tree(i)
            ),
            None,
        )
        if j is None:
            break
        ti = state.tlabel[j]
        tv = state.trees[ti]
        while not state.full[j] and state.hit_count[j].get(ti, 0) < tv.size:
            guard -= 1
            if guard < 0:
                raise EngineError("no-progress", "tree absorption failed to advance")
            anchor = state.t1_part[j] | (state.sets[j] & tv.vertices)
            v = min(
                w
                for w in tv.vertices
                if w not in state.sets[j] and g.neighbor_set(w) & anchor
            )
            parent = min(g.neighbor_set(v) & anchor)
            if v not in state.placed:
                s = state.vlabel_of[v]
                assert state.status[s] == "over"
                state.add(v, j, parent)
                if state.needs_demotion(s):
                    state.classify(s, "under")
                    _absorb_and_label(state, [s])
                    _ensure_tree_adjacency(state)
            else:
                s = state.placed[v]
                assert state.status[s] == "under" and s != j
                state.steal(v, s, j, parent)
    for i in range(state.k):
        if state.status[i] == "over" and not state.full[i]:
            while not state.full[i]:
                u = min(state.vlabel_sets[i])
                state.add(u, i, parent=min(g.neighbor_set(u) & state.t1_part[i]))
    while len(state.placed) < len(state.members):
        v = min(w for w in state.members if w not in state.placed)
        target = next(
            (
                i
                for i in range(state.k)
                if not state.full[i] and g.neighbor_set(v) & state.sets[i]
            ),
            None,
        )
        assert target is not None, "every non-full set holds a whole dominating tree"
        state.add(v, target, parent=min(g.neighbor_set(v) & state.sets[target]))


def _run_single_tree(
    graph: Graph,
    members: frozenset[int],
    terminals: Sequence[int],
    demands: Sequence[int],
    trees: Sequence[_TreeView],
    *,
    set_labels: Sequence[int] | None = None,
    family_restart: bool = False,
    trace: list[TraceEvent] | None = None,
    strict: bool = True,
) -> tuple[list[tuple[int, VertexSet]], list[int]]:
    """Run the single-tree case on `members`; all terminals lie on trees[0].

    Returns the finished (set index, block) pairs and the indices of the
    trees they use up: every set and tree when the run completes, else the
    blocks of the first emission.
    """
    state = PartitionState(
        graph,
        members,
        terminals,
        demands,
        trees,
        set_labels=set_labels,
        family_restart=family_restart,
        trace=trace,
        strict=strict,
    )
    try:
        _place(state)
        labeling(state)
        state.checkpoint("labeling")
        add_vertices(state)
        state.checkpoint("add-vertices")
    except _Emit as e:
        return [(i, frozenset(state.sets[i])) for i in e.set_indices], e.tree_indices
    assert all(state.full)
    return [(i, frozenset(s)) for i, s in enumerate(state.sets)], list(range(len(trees)))


# -- general driver ----------------------------------------------------------


def _choose_group(
    pool: Sequence[DominatingTree],
    t0: Sequence[int],
    t1: Sequence[int],
    tmany: Sequence[int],
    work_terminals: Sequence[int],
    work_demands: Sequence[int],
    sets: Sequence[set[int]],
) -> tuple[int, list[int], list[int]]:
    """Pick a lead tree plus terminal-free trees able to cover its demands.

    Iterates many-terminal trees in ascending index, pairing each with the
    lowest-index unused terminal-free trees, then single-terminal trees as
    singleton groups; the first group whose union holds at least the
    group's total demand wins.  A qualifying group always exists: summed
    over all groups, the unplaced tree vertices equal the total remaining
    demand exactly.
    """
    t0_queue = deque(sorted(t0))
    candidates: list[tuple[int, list[int]]] = []
    for lead in sorted(tmany):
        members = [
            i for i, c in enumerate(work_terminals) if c in pool[lead].vertices
        ]
        extras = [t0_queue.popleft() for _ in range(len(members) - 1)]
        candidates.append((lead, extras))
    for lead in sorted(t1):
        candidates.append((lead, []))
    for lead, extras in candidates:
        members = [
            i for i, c in enumerate(work_terminals) if c in pool[lead].vertices
        ]
        union: set[int] = set(pool[lead].vertices)
        for i in members:
            union |= sets[i]
        for e in extras:
            union |= pool[e].vertices
        if len(union) >= sum(work_demands[i] for i in members):
            return lead, members, extras
    raise EngineError("no-qualifying-group", "contradicts the counting argument")


def _trim_block(g: Graph, block: VertexSet, terminal: int, target: int) -> VertexSet:
    """Shrink a connected block to `target` vertices, keeping the terminal.

    Peels lowest-id leaves of a BFS spanning tree rooted at the terminal;
    removing tree leaves preserves connectivity, and the root is never a
    leaf, so the terminal survives.
    """
    assert terminal in block and 1 <= target <= len(block)
    kept = set(block)
    parent: dict[int, int] = {}
    child_count: dict[int, int] = {v: 0 for v in kept}
    seen = {terminal}
    queue = deque([terminal])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y in kept and y not in seen:
                seen.add(y)
                parent[y] = x
                child_count[x] += 1
                queue.append(y)
    assert len(seen) == len(kept), "block must be connected"
    leaves = [v for v in kept if child_count[v] == 0 and v != terminal]
    heapq.heapify(leaves)
    while len(kept) > target:
        v = heapq.heappop(leaves)
        kept.discard(v)
        p = parent[v]
        child_count[p] -= 1
        if child_count[p] == 0 and p != terminal:
            heapq.heappush(leaves, p)
    return frozenset(kept)


@dataclass
class _WorkItem:
    orig: int
    terminal: int
    demand: int


def solve(
    instance: GLInstance,
    trees: Sequence[DominatingTree],
    *,
    family_restart: bool = False,
    trace: list[TraceEvent] | None = None,
    strict: bool = True,
) -> GlPartition:
    """Full pipeline: k disjoint dominating trees to a complete partition.

    This is the only solve entry point.  Each round normalizes terminals
    onto trees, then places them and spreads the terminal-bearing trees
    (emitting any set that fills while touching a single tree), picks a
    tree group able to cover its terminals' demands, runs the single-tree
    case on the group's union (inflating the first demand to absorb slack,
    trimmed off afterwards), retires the finished blocks and their trees
    and goes on with what is left.

    Tree count: `trees` must hold at least `instance.k` trees, else
    EngineError("too-few-trees") is raised before any work.  All trees
    are validated, and only the first k (lowest index) are used.
    """
    g = instance.graph
    if len(trees) < instance.k:
        raise EngineError(
            "too-few-trees", f"{len(trees)} trees for {instance.k} terminals"
        )
    validate_cds_input(g, trees)
    members = frozenset(range(g.n))
    pool: list[DominatingTree] = list(trees[: instance.k])
    pool_labels = list(range(len(pool)))
    work = [
        _WorkItem(i, instance.terminals[i], instance.demands[i])
        for i in range(instance.k)
    ]
    blocks_out: dict[int, VertexSet] = {}

    def retire(item_positions: list[int], finished: list[VertexSet], tree_positions: list[int]) -> None:
        nonlocal members, pool, pool_labels, work
        if not item_positions:
            raise EngineError("no-progress", "a round finished no block")
        for pos, block in zip(item_positions, finished):
            blocks_out[work[pos].orig] = block
            members = members - block
        work = [r for i, r in enumerate(work) if i not in set(item_positions)]
        drop = set(tree_positions)
        pool = [t for i, t in enumerate(pool) if i not in drop]
        pool_labels = [x for i, x in enumerate(pool_labels) if i not in drop]
        if strict:
            seen: set[int] = set()
            for t, label in zip(pool, pool_labels):
                if not t.vertices <= members or t.vertices & seen:
                    raise EngineError(
                        "state-invariant", f"retire: tree {label} lost a vertex or overlaps"
                    )
                seen |= t.vertices
                for v in members - t.vertices:
                    if not g.neighbor_set(v) & t.vertices:
                        raise EngineError(
                            "state-invariant", f"retire: tree {label} does not dominate {v}"
                        )

    while work:
        terminals = [r.terminal for r in work]
        demands = [r.demand for r in work]
        new_pool, t0, t1, tmany = categorize_trees(g, pool, terminals)
        pool = list(new_pool)
        views = [_TreeView(t, pool_labels[i]) for i, t in enumerate(pool)]
        state = PartitionState(
            g,
            members,
            terminals,
            demands,
            views,
            set_labels=[r.orig for r in work],
            family_restart=family_restart,
            trace=trace,
            strict=strict,
        )
        try:
            _place(state)
        except _Emit as e:
            retire(
                e.set_indices,
                [frozenset(state.sets[i]) for i in e.set_indices],
                e.tree_indices,
            )
            continue
        lead, member_idxs, extras = _choose_group(
            pool, t0, t1, tmany, terminals, demands, state.sets
        )
        gprime: set[int] = set(pool[lead].vertices)
        for i in member_idxs:
            gprime |= state.sets[i]
        for e in extras:
            gprime |= pool[e].vertices
        sub_demands = [demands[i] for i in member_idxs]
        delta = len(gprime) - sum(sub_demands)
        if delta < 0:
            raise EngineError("state-invariant", "chosen group is short of vertices")
        sub_demands[0] += delta
        sub_tree_positions = [lead] + list(extras)
        sub_views = [_TreeView(pool[p], pool_labels[p]) for p in sub_tree_positions]
        blocks, used_local = _run_single_tree(
            g,
            frozenset(gprime),
            [terminals[i] for i in member_idxs],
            sub_demands,
            sub_views,
            set_labels=[work[i].orig for i in member_idxs],
            family_restart=family_restart,
            trace=trace,
            strict=strict,
        )
        finished: list[VertexSet] = []
        finished_positions: list[int] = []
        for local_i, block in blocks:
            if local_i == 0 and delta > 0:
                block = _trim_block(
                    g, block, terminals[member_idxs[0]], demands[member_idxs[0]]
                )
            finished.append(block)
            finished_positions.append(member_idxs[local_i])
        retire(
            finished_positions, finished, [sub_tree_positions[p] for p in used_local]
        )
    if members:
        raise EngineError("state-invariant", f"{len(members)} vertices left unassigned")
    return GlPartition(tuple(blocks_out[i] for i in range(instance.k)))
