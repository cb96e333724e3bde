"""Conversion of k vertex-disjoint dominating trees into a partition with
k connected blocks of prescribed sizes, each containing its terminal.

The solver keeps a `PartitionState` (one growing vertex set per terminal)
and works in two layers:

* the single-tree case: all terminals lie on the lead tree; the tree is
  spread over the sets, every other vertex is either placed or assigned
  (`vlabel`), sets are classified Over/Under by whether their assignment
  covers their remaining demand, each Under set privately consumes one of
  the remaining trees (`tlabel`), and surpluses are stolen from Over sets;
* the general driver `solve`, the only entry point: trees are grouped so
  that one terminal-bearing tree plus enough terminal-free trees can
  satisfy a group of demands, the single-tree case runs on the union, and
  the driver goes on with the remaining vertices, terminals and trees.

Emission has one rule: whenever a set reaches its demand while
intersecting exactly one tree, the block is emitted, its tree retired, and
the remainder is a strictly smaller instance of the same problem.  A set
that fills while touching several trees is not emitted then.  Every set
and tree is keyed by its index in the input throughout, so the smaller
instance needs no relabelling.  All arbitrary choices resolve to the
lowest vertex id / lowest index, so runs are reproducible.
"""

from __future__ import annotations

import heapq
from bisect import insort
from collections import deque
from dataclasses import dataclass
from itertools import chain, islice
from typing import Iterable, Mapping, Sequence

from .builders import validate_family
from .graphs import DominatingTree, Graph, GraphError, VertexSet, is_connected_subset

CdsInput = tuple[DominatingTree, ...]
TraceEvent = tuple


class EngineError(GraphError):
    pass


# Codes raised on an input that passed validation: faults of the engine
# itself, which the CLI reports with their own exit code.
FAULT_CODES = frozenset({"state-invariant", "under-monotonicity", "no-progress", "no-qualifying-group"})


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


def validate_cds_input(g: Graph, trees: Sequence[DominatingTree]) -> None:
    """Check that there is a tree and that every tree is built on `g`, then
    check the trees' vertex sets as one family (`builders.validate_family`);
    a failing tree or set is counted from 1, as a CDS file numbers its sets.
    """
    if not trees:
        raise EngineError("invalid-cds-input", "no trees")
    for i, t in enumerate(trees):
        if t.graph is not g:
            raise EngineError("invalid-cds-input", f"tree {i + 1} is built on another graph")
    validate_family(g, [t.vertices for t in trees])


class _Emit(Exception):
    """Internal signal: set `set_index` filled while touching only tree
    `tree_index`."""

    def __init__(self, set_index: int, tree_index: int):
        self.set_index = set_index
        self.tree_index = tree_index


class PartitionState:
    """Mutable bookkeeping for placement runs; `solve` keeps one for all rounds.

    Tracks the sets, placement and assignment maps, Over/Under status,
    per-set tree intersections and the attachment forest that certifies
    leaf removals are connectivity-safe.

    Sets and trees keep their input index: `terminals` maps set index to
    terminal in ascending order, `trees` maps tree index to vertex set with
    the lead first and the spare trees ascending, and `demands` is indexed
    by set index.  `tree_of` (vertex to tree index) and `tree_adj` (tree
    vertex to the sorted list of its tree neighbours) are the solve's one
    copy each.

    `spreads` maps each tree whose spread (`add_trees`) completed to the
    placements it made, kept across rounds until `retire` drops it; `_log`
    holds every other placement with a parent: the non-tree pass, and a
    spread that an emission cut short.
    """

    def __init__(
        self,
        graph: Graph,
        members: set[int] | frozenset[int],
        terminals: Mapping[int, int],
        demands: Mapping[int, int] | Sequence[int],
        trees: Mapping[int, set[int]],
        tree_of: dict[int, int],
        tree_adj: dict[int, list[int]],
        *,
        trace: list[TraceEvent] | None = None,
    ):
        self.graph = graph
        self.members = members
        self.terminals = terminals
        self.demands = demands
        self.trees = trees
        self.lead = next(iter(trees))
        self.tree_of = tree_of
        self.tree_adj = tree_adj
        self.trace = trace
        self.sets: dict[int, set[int]] = {i: set() for i in terminals}
        self.placed: dict[int, int] = {}
        self.status: dict[int, str | None] = dict.fromkeys(terminals)
        self.vlabel_of: dict[int, int] = {}
        self.vlabel_sets: dict[int, set[int]] = {i: set() for i in terminals}
        self.tlabel: dict[int, int | None] = dict.fromkeys(terminals)
        self.tlabel_owner: dict[int, int] = {}
        self.hit_count: dict[int, dict[int, int]] = {i: {} for i in terminals}
        self.attach_parent: dict[int, int | None] = {}
        self.children: dict[int, int] = {}
        # set j -> (ti, heap, anchor), see `_growth_choice`
        self._frontiers: dict[int, tuple[int, list[int], set[int]]] = {}
        self.spreads: dict[int, list[int]] = {}
        self._log: list[int] = []
        self._dirty: set[int] = set()  # sets touched since the last checkpoint
        self._ones = sorted((i for i in terminals if demands[i] == 1), reverse=True)
        # tree index -> its terminals' set indices, ascending; `strays` are on no tree
        self.by_tree: dict[int, list[int]] = {ti: [] for ti in trees}
        self.strays: list[int] = []
        for i, c in terminals.items():
            ti = tree_of.get(c)
            (self.strays if ti is None else self.by_tree[ti]).append(i)
            self.add(c, i, parent=None)

    spares = property(lambda self: islice(self.trees, 1, None))  # the trees after the lead

    # -- mutations --------------------------------------------------------

    def place_terminals(self) -> None:
        """Emit the lowest-index set of demand 1, if any: a lookup, as terminals never move."""
        ones = self._ones
        while ones and ones[-1] not in self.terminals:
            ones.pop()
        if ones:
            self._emit(ones[-1])

    def _emit(self, i: int) -> None:
        (only,) = self.hit_count[i]
        if self.trace is not None:
            self.trace.append(("emit", i, only))
        raise _Emit(i, only)

    def add(self, v: int, i: int, parent: int | None) -> None:
        # the hottest path: each dict is read once
        placed = self.placed
        if v not in self.members or v in placed:
            raise EngineError("state-invariant", f"add: {v} is not an unplaced member")
        s, demand, hits = self.sets[i], self.demands[i], self.hit_count[i]
        if len(s) == demand:  # full, inlined
            raise EngineError("state-invariant", f"add: set {i} is full")
        prev = self.vlabel_of.pop(v, None)
        if prev is not None:
            self.vlabel_sets[prev].discard(v)
        s.add(v)
        placed[v] = i
        self.attach_parent[v] = parent
        self._dirty.add(i)
        if parent is not None:
            if v not in self.graph.adj[parent] or placed.get(parent) != i:
                raise EngineError("state-invariant", f"add: parent {parent} of {v} is off set {i}")
            children = self.children
            children[parent] = children.get(parent, 0) + 1
            self._log.append(v)
        ti = self.tree_of.get(v)
        if ti is not None:
            hits[ti] = hits.get(ti, 0) + 1
            frontier = self._frontiers.get(i)
            if frontier is not None and ti in (self.lead, frontier[0]):
                grow_ti, heap, anchor = frontier
                anchor.add(v)
                for w in self.graph.adj[v] & self.trees[grow_ti]:
                    heapq.heappush(heap, w)
        if self.trace is not None:
            self.trace.append(("place", v, i))
        # a terminal (no parent) emits in `place_terminals` instead
        if parent is not None and len(s) == demand and len(hits) == 1:
            self._emit(i)

    def remove(self, v: int, i: int) -> None:
        if self.placed.get(v) != i:
            raise EngineError("state-invariant", f"remove: {v} is not in set {i}")
        if v == self.terminals[i]:
            raise EngineError("state-invariant", f"remove: {v} is the terminal of set {i}")
        if self.children.get(v, 0):
            raise EngineError("state-invariant", f"remove: {v} is not an attachment leaf")
        parent = self.attach_parent.pop(v)
        if parent is not None:
            self.children[parent] -= 1
        self.sets[i].discard(v)
        del self.placed[v]
        self._dirty.add(i)
        ti = self.tree_of.get(v)
        if ti is not None:
            self.hit_count[i][ti] -= 1
            if self.hit_count[i][ti] == 0:
                del self.hit_count[i][ti]
            frontier = self._frontiers.get(i)
            if frontier is not None and ti in (self.lead, frontier[0]):
                frontier[2].discard(v)
                if ti == frontier[0]:
                    heapq.heappush(frontier[1], v)

    def trim(self, i: int, target: int) -> None:
        """Remove set i's lowest-id attachment leaf, by `remove`, until the
        set holds `target` vertices.

        The attachment forest spans each set from its terminal, its one
        vertex with no parent, so a leaf's removal keeps the set connected
        and the terminal goes last: below it there is no leaf left.
        """
        terminal, children = self.terminals[i], self.children
        leaves = [v for v in self.sets[i] if not children.get(v) and v != terminal]
        heapq.heapify(leaves)
        while len(self.sets[i]) > target:
            if not leaves:
                raise EngineError("state-invariant", f"trim: set {i} has no leaf left")
            v = heapq.heappop(leaves)
            parent = self.attach_parent[v]
            self.remove(v, i)
            if not children[parent] and parent != terminal:
                heapq.heappush(leaves, parent)

    def retire(
        self, finished: Mapping[int, VertexSet], used: Sequence[int], validated: Sequence[VertexSet]
    ) -> None:
        """End a round: take the finished blocks and the used trees out,
        undoing only what the next round would not place again as it stands.

        A round that finished no block raises `no-progress`.  Each finished
        block leaves `members`.  Then the certificate: every tree the round
        changed (the lead, which strays grow, the used trees, and any tree a
        block took a vertex from, which must be a used one) must still hold
        `validated[ti]`, its vertex set as validated before the first round.
        That set dominates all of V.  Rounds only ever add vertices to a
        tree, and a superset of it dominates whatever is left, so inclusion
        is as strict as a domination re-check.

        A tree's spread touches only its own vertices and its terminals'
        sets, and depends only on the tree's rows, its terminals and their
        demands.  A finished set's tree is always used, so any other tree
        keeps all three unless strays join it: the next lead, when a used
        tree still holds unfinished terminals.  The spreads of the used trees
        and of that lead are dropped from `spreads`; every other kept spread
        is exactly what a redo would place.  Its placements stay, and
        `add_trees` skips it.  The dropped spreads' placements and `_log`
        (the non-tree pass, and any spread cut short) are undone by `remove`
        in O(undone), leaves first: `_log` is the round's latest, and a
        spread lists each parent, of its own tree, before its children.  The
        next round's spreads and non-tree pass, and so its single-tree run,
        then see the state that redoing every spread would leave.  The whole
        state is checked before its last sets go.
        """
        if not finished:
            raise EngineError("no-progress", "a round finished no block")
        members, trees, tree_of, terminals = self.members, self.trees, self.tree_of, self.terminals
        changed = {self.lead, *used}
        for block in finished.values():
            members.difference_update(block)
            changed.update(tree_of[v] for v in block if v in tree_of)
        for ti in sorted(changed):
            tree = trees[ti]
            if ti not in used and not (tree <= members and all(tree_of[v] == ti for v in tree)):
                raise EngineError("state-invariant", f"retire: tree {ti} lost a vertex or overlaps")
            if not validated[ti] <= tree:
                raise EngineError("state-invariant", f"retire: tree {ti} lost a validated vertex")
        if self.trace is not None:
            self.trace.append(("round",))
        spreads, placed = self.spreads, self.placed
        strays = [i for ti in used for i in self.by_tree[ti] if i not in finished]
        dropped = [spreads.pop(ti, ()) for ti in used]
        if strays:  # they join the next lead, the lowest tree left
            dropped.append(spreads.pop(next(ti for ti in trees if ti not in used), ()))
        for v in chain(reversed(self._log), *map(reversed, dropped)):
            self.remove(v, placed[v])
        self._log = []
        if len(finished) == len(terminals):
            self.check_invariants("solve")
        for i in finished:
            c = terminals.pop(i)
            del placed[c], self.attach_parent[c]
            del self.sets[i], self.status[i]
            del self.vlabel_sets[i], self.tlabel[i], self.hit_count[i]
        for ti in used:
            for v in trees.pop(ti):
                del tree_of[v], self.tree_adj[v]
            del self.by_tree[ti]
        self.strays += strays
        self.strays.sort()

    def steal(self, v: int, frm: int, to: int, parent: int) -> None:
        if self.trace is not None:
            self.trace.append(("steal", v, frm, to))
        self.remove(v, frm)
        self.add(v, to, parent)

    def assign_vlabel(self, v: int, i: int) -> None:
        if v in self.placed or v in self.vlabel_of:
            raise EngineError("state-invariant", f"vlabel: {v} is placed or assigned")
        self.vlabel_of[v] = i
        self.vlabel_sets[i].add(v)

    def classify(self, i: int, status: str) -> None:
        if self.status[i] == "under" and status == "over":
            raise EngineError("under-monotonicity", f"set {i} left Under")
        self.status[i] = status
        self._dirty.add(i)

    def set_tlabel(self, i: int, ti: int) -> None:
        if self.tlabel[i] is not None or ti in self.tlabel_owner:
            raise EngineError("state-invariant", f"tlabel: set {i} or tree {ti} is taken")
        self.tlabel[i] = ti
        self.tlabel_owner[ti] = i

    # -- queries ----------------------------------------------------------

    def _growth_choice(self, j: int, ti: int) -> tuple[int, int]:
        """The lowest vertex of tree ti outside set j adjacent to j's anchor
        (its lead-tree part plus what it holds of tree ti), and the lowest
        anchor vertex adjacent to it.

        The frontier of j is a lazy min-heap built on first use; `add` and
        `remove` keep it holding every such vertex, plus stale entries that
        are popped here, so no call scans the whole tree.
        """
        frontier = self._frontiers.get(j)
        if frontier is None or frontier[0] != ti:
            tree = self.trees[ti]
            anchor = {u for u in self.sets[j] if self.tree_of.get(u) in (self.lead, ti)}
            heap = [
                w for w in tree
                if w not in self.sets[j] and not self.graph.adj[w].isdisjoint(anchor)
            ]
            heapq.heapify(heap)
            frontier = self._frontiers[j] = (ti, heap, anchor)
        _, heap, anchor = frontier
        members = self.sets[j]
        adj = self.graph.adj
        while heap and (heap[0] in members or adj[heap[0]].isdisjoint(anchor)):
            heapq.heappop(heap)
        if not heap:
            raise EngineError("state-invariant", f"set {j} has no vertex of tree {ti} to grow into")
        v = heap[0]
        return v, min(adj[v] & anchor)

    def full(self, i: int) -> bool:
        return len(self.sets[i]) == self.demands[i]

    def deficit(self, i: int) -> int:
        return self.demands[i] - len(self.sets[i])

    def contains_whole_tree(self, i: int) -> bool:
        return any(
            self.hit_count[i].get(ti, 0) == len(self.trees[ti]) for ti in self.spares
        )

    # -- invariant suite ---------------------------------------------------

    def check_invariants(self, where: str = "", sets: Iterable[int] | None = None) -> None:
        """State-invariant suite; raises EngineError on any violation.  With
        `sets`, only the rules on those sets and their vertices run."""
        seen: set[int] = set()
        for i in self.sets if sets is None else sets:
            s = self.sets[i]
            if s & seen:
                raise EngineError("state-invariant", f"{where}: sets overlap at {i}")
            seen |= s
            if self.terminals[i] not in s:
                raise EngineError("state-invariant", f"{where}: terminal missing from {i}")
            if not is_connected_subset(self.graph, s):
                raise EngineError("state-invariant", f"{where}: set {i} disconnected")
            if len(s) > self.demands[i]:
                raise EngineError("state-invariant", f"{where}: set {i} over demand")
            for ti, cnt in self.hit_count[i].items():
                if cnt != len(s & self.trees[ti]):
                    raise EngineError("state-invariant", f"{where}: hit count wrong on {i}")
            for v in s:
                if self.placed.get(v) != i:
                    raise EngineError("state-invariant", f"{where}: placement map stale at {v}")
                p = self.attach_parent.get(v)
                if p is not None and (self.placed.get(p) != i or v not in self.graph.adj[p]):
                    raise EngineError("state-invariant", f"{where}: bad attachment of {v}")
        if sets is not None:
            return
        for v, i in self.placed.items():
            if v not in self.sets[i]:
                raise EngineError("state-invariant", f"{where}: placement map stale at {v}")
        owners = [ti for ti in self.tlabel.values() if ti is not None]
        if len(owners) != len(set(owners)):
            raise EngineError("state-invariant", f"{where}: tlabel not injective")
        for v, i in self.vlabel_of.items():
            if v in self.placed:
                raise EngineError("state-invariant", f"{where}: vlabel holds placed {v}")
            if i not in map(self.placed.get, self.graph.adj[v] & self.trees[self.lead]):
                raise EngineError(
                    "state-invariant", f"{where}: vlabel {v} not adjacent to set {i}"
                )
        if any(st is not None for st in self.status.values()):
            if "over" not in self.status.values():
                raise EngineError("state-invariant", f"{where}: no set is Over")

    # class-wide tally, read by test instrumentation and by the benchmark
    # (`bench/run.py` reports it as `engine.checkpoints`)
    checkpoints_run = 0

    def checkpoint(self, where: str) -> None:
        # re-check the sets touched since the last one; all, once classified (labels span sets)
        PartitionState.checkpoints_run += 1
        dirty, self._dirty = self._dirty & self.sets.keys(), set()  # less retired sets
        self.check_invariants(where, None if any(self.status[i] for i in dirty) else dirty)


def categorize_trees(state: PartitionState) -> dict[int, list[int]]:
    """Put the strays, the terminals on no tree (at the state's start, or
    left by a retired tree), on the lead tree; return `state.by_tree`.

    Only strays are visited.  Each joins the lead tree (the lowest remaining
    index; every tree dominates every vertex, so an attachment edge always
    exists) in place, under its lowest neighbour there, keeping it a
    dominating tree, and enters the shared `tree_of` and `tree_adj`; strays
    join in terminal order.  by_tree maps each tree index, in the order of
    `state.trees`, to the indices of the terminals on it, ascending.
    """
    lead = state.lead = next(iter(state.trees))
    host, adj, by_tree, strays = state.trees[lead], state.tree_adj, state.by_tree, state.strays
    order = sorted(host)  # the lead ascending; each stray enters on joining
    for i in strays:
        c = state.terminals[i]
        w = next(filter(state.graph.adj[c].__contains__, order), None)
        if w is None:
            raise EngineError("invalid-cds-input", f"tree {lead} does not dominate {c}")
        insort(order, c)
        host.add(c)
        adj[c] = [w]
        insort(adj[w], c)
        state.tree_of[c] = lead
        state.hit_count[i] = {lead: 1}  # the terminal's set touches the lead now
    by_tree[lead] = sorted(by_tree[lead] + strays)
    strays.clear()
    return by_tree


# -- single-tree case ------------------------------------------------------


def _attach(state: PartitionState, v: int, what: str) -> None:
    """Add v to the lowest-index non-full set it neighbours, under its
    lowest neighbour there; `what` names v in the error."""
    nbrs, demands = state.graph.adj[v], state.demands
    for i, s in state.sets.items():
        if len(s) < demands[i] and not nbrs.isdisjoint(s):
            state.add(v, i, parent=min(nbrs & s))
            return
    raise EngineError("state-invariant", f"{what} {v} touches no open set")


def _lead_parent(state: PartitionState, v: int, i: int) -> int:
    """v's lowest lead-tree neighbour in set i."""
    lead = state.trees[state.lead]
    return min(u for u in state.graph.adj[v] & lead if state.placed.get(u) == i)


def add_trees(state: PartitionState) -> None:
    """Step 1: spread every terminal-bearing tree over its terminals' sets
    by tree edges, then place each vertex on no tree, ascending, in an
    adjacent non-full set.

    Trees are spread in ascending index, each BFS rooted at the tree's
    terminals in ascending id.  In the single-tree case only the lead tree
    bears terminals.  A spread kept from an earlier round (see
    `PartitionState.retire`) is skipped: it is what the BFS would place
    again.  A kept spread never emits, as it completed once, so the
    spreads that do run emit in the same order as when all ran.  A
    completed spread's placements move from `_log`, empty when a spread
    starts, to `spreads`.
    """
    placed, tree_adj, spreads = state.placed, state.tree_adj, state.spreads
    for ti, on in state.by_tree.items():
        if not on or ti in spreads:
            continue
        queue = deque(sorted(state.terminals[i] for i in on))
        while queue:
            x = queue.popleft()
            for y in tree_adj[x]:
                if y not in placed:
                    state.add(y, placed[x], parent=x)
                    queue.append(y)
        spreads[ti], state._log = state._log, []
    for v in sorted(state.members.difference(state.tree_of, state.placed)):
        _attach(state, v, "non-tree vertex")


def _place(state: PartitionState) -> None:
    """Emit a demand-1 set, else spread the trees, checking both steps."""
    state.place_terminals()
    state.checkpoint("init")
    add_trees(state)
    state.checkpoint("add-trees")


def _absorb_and_label(state: PartitionState, idxs: Iterable[int]) -> None:
    """Under sets take all their assigned vertices and a private tree."""
    for i in idxs:
        for v in sorted(state.vlabel_sets[i]):
            state.add(v, i, parent=_lead_parent(state, v, i))
        if state.tlabel[i] is None:
            free = next(
                (ti for ti in state.spares if ti not in state.tlabel_owner),
                None,
            )
            if free is None:
                # at least one Over set leaves a tree unassigned
                raise EngineError("state-invariant", f"no free tree for Under set {i}")
            state.set_tlabel(i, free)


def _grow_from_tree(state: PartitionState, j: int, ti: int) -> bool:
    """Add to set j the lowest vertex of tree ti adjacent to its lead-tree
    part or to what it already holds of tree ti.

    The vertex is taken from the Over set it is assigned to, or stolen from
    the Under set holding it.  An Over set whose surplus is gone becomes
    Under and absorbs its assignment; then True is returned, since that set
    now owns a tree and may need a vertex of it.
    """
    v, parent = state._growth_choice(j, ti)
    if v not in state.placed:
        s = state.vlabel_of[v]
        if state.status[s] != "over":
            raise EngineError("state-invariant", f"unplaced {v} is assigned to non-Over set {s}")
        state.add(v, j, parent)
        if state.deficit(s) > len(state.vlabel_sets[s]):  # s is Over: its surplus is gone
            state.classify(s, "under")
            _absorb_and_label(state, [s])
            return True
    else:
        s = state.placed[v]
        if state.status[s] != "under" or s == j:
            raise EngineError("state-invariant", f"{v} would be stolen from set {s} for set {j}")
        state.steal(v, s, j, parent)
    return False


def _ensure_tree_adjacency(state: PartitionState) -> None:
    """Give every tree-assigned set one vertex of its tree, stealing if needed.

    A demotion hands out another tree, so the scan then starts over.
    """
    while any(
        _grow_from_tree(state, j, ti)
        for ti, j in sorted(state.tlabel_owner.items())
        if not state.hit_count[j].get(ti)
    ):
        pass


def labeling(state: PartitionState) -> None:
    """Step 2-3: assign unplaced tree vertices, classify sets, hand out trees.

    Every vertex of the non-lead trees is assigned to the lowest-index set
    whose lead-tree part it neighbours; a set is Over when the assignment
    covers its remaining demand, else Under.  Under sets absorb their
    assignment and each receives a distinct private tree, then every such
    set is guaranteed one vertex of that tree.
    """
    adj, lead, placed = state.graph.adj, state.trees[state.lead], state.placed
    for ti in state.spares:
        for v in sorted(state.trees[ti]):
            target = min((placed[u] for u in adj[v] & lead if u in placed), default=None)
            if target is None:
                raise EngineError("state-invariant", f"lead tree does not dominate {v}")
            state.assign_vlabel(v, target)
    for i in state.terminals:
        state.classify(
            i, "over" if state.deficit(i) <= len(state.vlabel_sets[i]) else "under"
        )
    if "over" not in state.status.values():
        raise EngineError("state-invariant", "no set is Over after classification")
    _absorb_and_label(state, [i for i, st in state.status.items() if st == "under"])
    _ensure_tree_adjacency(state)


def add_vertices(state: PartitionState) -> None:
    """Step 4-5: feed Under sets from their trees, then finish everyone.

    Under sets absorb their private tree until full or the tree is
    exhausted (stealing assigned or leaf vertices from other sets, with
    Over sets re-classified when their surplus runs out); Over sets then
    absorb their assignment to fullness, and leftover tree vertices join
    any adjacent non-full set (each now contains a whole dominating tree).
    """
    guard = 4 * (len(state.members) + 1) * (len(state.terminals) + 1) * (len(state.trees) + 1)
    while True:
        j = next(
            (
                i
                for i, st in state.status.items()
                if st == "under"
                and not state.full(i)
                and not state.contains_whole_tree(i)
            ),
            None,
        )
        if j is None:
            break
        ti = state.tlabel[j]
        while not state.full(j) and state.hit_count[j].get(ti, 0) < len(state.trees[ti]):
            guard -= 1
            if guard < 0:
                raise EngineError("no-progress", "tree absorption failed to advance")
            if _grow_from_tree(state, j, ti):
                _ensure_tree_adjacency(state)
    for i, st in state.status.items():
        if st == "over":
            # `add(u, i)` takes only u out of `vlabel_sets[i]`
            for u in sorted(state.vlabel_sets[i])[: state.deficit(i)]:
                state.add(u, i, parent=_lead_parent(state, u, i))
    # each placement adds one vertex, so one ascending walk meets the
    # lowest unplaced vertex every time
    for v in sorted(state.members.difference(state.placed)):
        _attach(state, v, "leftover vertex")


def _run_single_tree(state: PartitionState) -> tuple[dict[int, VertexSet], list[int]]:
    """Run the single-tree case on a fresh state whose terminals all lie on
    its lead tree.

    Returns the finished blocks by set index and the indices of the trees
    they use up: every set and tree when the run completes, else the one
    block and tree of the first emission.
    """
    try:
        _place(state)
        labeling(state)
        state.checkpoint("labeling")
        add_vertices(state)
        state.checkpoint("add-vertices")
    except _Emit as e:
        return {e.set_index: frozenset(state.sets[e.set_index])}, [e.tree_index]
    if not all(map(state.full, state.sets)):
        raise EngineError("state-invariant", "a set is short of its demand after add-vertices")
    return {i: frozenset(s) for i, s in state.sets.items()}, list(state.trees)


# -- general driver ----------------------------------------------------------


def _choose_group(
    state: PartitionState, by_tree: Mapping[int, list[int]]
) -> tuple[int, list[int], list[int], set[int]]:
    """Pick a lead tree plus terminal-free trees able to cover its demands.

    Iterates many-terminal trees in ascending index, pairing each with the
    lowest-index unused terminal-free trees, then single-terminal trees as
    singleton groups; the first group whose union holds at least the
    group's total demand wins, and is returned with that union.  A
    qualifying group always exists: summed over all groups, the unplaced
    tree vertices equal the total remaining demand exactly.
    """
    free = deque(ti for ti, on in by_tree.items() if not on)
    many = [ti for ti, on in by_tree.items() if len(on) > 1]
    single = [ti for ti, on in by_tree.items() if len(on) == 1]
    for lead in many + single:
        members = by_tree[lead]
        # a single-terminal lead takes no extras
        extras = [free.popleft() for _ in members[1:]]
        union = set(state.trees[lead])
        for i in members:
            union |= state.sets[i]
        for e in extras:
            union |= state.trees[e]
        if len(union) >= sum(state.demands[i] for i in members):
            return lead, members, extras, union
    raise EngineError("no-qualifying-group", "contradicts the counting argument")


def solve(
    instance: GLInstance,
    trees: Sequence[DominatingTree],
    *,
    trace: list[TraceEvent] | None = None,
) -> tuple[VertexSet, ...]:
    """Full pipeline: k disjoint dominating trees to a complete partition,
    returned as its k blocks, block i holding terminal i.

    This is the only solve entry point.  One state serves every round.
    A round puts stray terminals on the lead tree, emits the lowest demand-1
    set or spreads the terminal-bearing trees (emitting a set that fills
    while touching a single tree, the one emission rule), else picks a tree
    group able to cover its terminals' demands and runs the single-tree
    case on the group's union in a fresh state (inflating the first demand
    to absorb slack, which that state's `trim` takes off afterwards).
    Every round ends in one `PartitionState.retire`, which checks the
    trees the round changed against their validated vertex sets and undoes
    only the spreads the round changed (the used trees', and the next
    lead's when strays join it) and the non-tree placements.  Every other
    tree keeps its spread, which the next round does not place again, so a
    round costs what it changes; the partition is the one that redoing
    every spread gives.

    Tree count: `trees` must hold at least `instance.k` trees, else
    EngineError("too-few-trees") is raised before any work.  All trees
    are validated, and only the first k (lowest index) are used.
    """
    g = instance.graph
    if len(trees) < instance.k:
        raise EngineError("too-few-trees", f"{len(trees)} trees for {instance.k} terminals")
    validate_cds_input(g, trees)
    validated = [t.vertices for t in trees[: instance.k]]  # retire's certificate
    # The one copy of each tree's vertex set, and the one tree index and
    # tree adjacency over them: stray terminals grow the lead tree's set and
    # enter both in place.
    tree_sets = {ti: set(vs) for ti, vs in enumerate(validated)}
    tree_of = {v: ti for ti, tree in tree_sets.items() for v in tree}
    tree_adj = {v: list(nbrs) for t in trees[: instance.k] for v, nbrs in t.adjacency().items()}
    # `retire` shrinks the state's members and terminals (the unfinished blocks)
    state = PartitionState(
        g, set(range(g.n)), dict(enumerate(instance.terminals)), instance.demands,
        tree_sets, tree_of, tree_adj, trace=trace,
    )
    blocks_out: dict[int, VertexSet] = {}
    while state.terminals:
        by_tree = categorize_trees(state)
        try:
            _place(state)
        except _Emit as e:
            finished, used = {e.set_index: frozenset(state.sets[e.set_index])}, [e.tree_index]
        else:
            lead, group, extras, gprime = _choose_group(state, by_tree)
            first = group[0]
            demands = {i: instance.demands[i] for i in group}
            delta = len(gprime) - sum(demands.values())  # >= 0, as `_choose_group` checks
            demands[first] += delta
            run = PartitionState(
                g, frozenset(gprime), {i: state.terminals[i] for i in group}, demands,
                {ti: tree_sets[ti] for ti in (lead, *extras)}, tree_of, tree_adj, trace=trace,
            )
            finished, used = _run_single_tree(run)
            if delta > 0 and first in finished:
                run.trim(first, instance.demands[first])
                finished[first] = frozenset(run.sets[first])
        blocks_out.update(finished)
        state.retire(finished, used, validated)
    if state.members:
        raise EngineError("state-invariant", f"{len(state.members)} vertices left unassigned")
    return tuple(blocks_out[i] for i in range(instance.k))
