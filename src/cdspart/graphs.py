"""Undirected simple graphs over dense integer ids, plus the connectivity
and domination primitives everything else is built on.

All operations are pure; every choice (BFS order, tie-breaks) is resolved
in ascending vertex id so results are reproducible for a given input.
"""

from __future__ import annotations

from collections import deque
from itertools import chain
from typing import Collection, Iterable, Sequence

VertexSet = frozenset[int]
Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph data or a violated operation precondition."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1 with m edges:
    `adj[v]` is the frozenset of v's neighbours, and nothing mutates `adj`."""

    __slots__ = ("n", "m", "adj")

    def __init__(self, adj: Sequence[Collection[int]]):
        """The graph with `Graph(adj).adj[v] == frozenset(adj[v])` for every v.

        The rows may be any sized collections of ints, such as lists,
        ranges or frozensets (a frozenset row is kept as it is).  They must
        be symmetric and hold one entry per incident edge, in any order,
        and are only read.  A repeated entry, or a self-loop written into
        both ends' rows, leaves a set shorter than its row and raises
        `GraphError("bad-adjacency")`.
        """
        adjsets = tuple(map(frozenset, adj))
        twice_m = sum(map(len, adj))
        if sum(map(len, adjsets)) != twice_m:
            raise GraphError("bad-adjacency", "a repeated neighbour or a self-loop")
        self.n = len(adj)
        self.m = twice_m // 2
        self.adj: tuple[frozenset[int], ...] = adjsets

    @property
    def graph(self) -> Graph:
        """Read as a model, a graph is its own derived graph."""
        return self

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


class DominatingTree:
    """A connected vertex set of a graph with its BFS spanning tree rooted
    at the set's lowest id: the one way the package builds a tree.

    Construction raises `GraphError` for an empty set, an id outside
    0..n-1 or a disconnected set (see `spanning_tree`).  Domination is
    checked by `validate`, or for a whole family by
    `engine.validate_cds_input`.
    """

    __slots__ = ("graph", "vertices", "edges")

    def __init__(self, g: Graph, vertices: Iterable[int]):
        self.vertices: VertexSet = frozenset(vertices)
        self.edges = spanning_tree(g, self.vertices)
        self.graph = g

    def validate(self) -> None:
        if not dominates(self.graph, self.vertices):
            raise GraphError("not-dominating")

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Tree adjacency (sorted), keyed by vertex."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def _subset(g: Graph, s: Iterable[int]) -> set[int]:
    """s as a new set; an empty s or an id outside 0..n-1 raises `GraphError`."""
    unseen = set(s)
    if not unseen:
        raise GraphError("empty-subset")
    lo, hi = min(unseen), max(unseen)
    if lo < 0 or hi >= g.n:
        raise GraphError("bad-vertex", f"{lo if lo < 0 else hi} is not in 0..{g.n - 1}")
    return unseen


def is_connected_subset(g: Graph, s: Iterable[int]) -> bool:
    """True iff the subgraph induced on s is connected.  An empty s and an
    id of s outside 0..n-1 raise `GraphError`."""
    unseen = _subset(g, s)
    stack = [unseen.pop()]
    while stack and unseen:
        # set intersection walks the smaller side: O(min(|unseen|, deg x))
        found = g.adj[stack.pop()] & unseen
        unseen -= found
        stack.extend(found)
    return not unseen


def dominates(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex outside s has a neighbor in s.

    Members of s count as covered (closed-neighborhood reading), which
    makes the predicate monotone under set growth.
    """
    return first_non_dominating(g, [s]) is None


def first_non_dominating(g: Graph, sets: Iterable[Iterable[int]]) -> int | None:
    """The lowest index i for which `dominates(g, sets[i])` fails, or None.

    Each set's closed neighbourhood is one C-level union of its members'
    neighbour sets, so the whole family costs O(n + m) when the sets are
    disjoint.  Members outside 0..n-1 cover nothing, as in `dominates`.
    """
    n = g.n
    for i, s in enumerate(sets):
        members = [v for v in s if 0 <= v < n]
        if len(set(members).union(*map(g.adj.__getitem__, members))) < n:
            return i
    return None


def spanning_tree(g: Graph, s: Iterable[int]) -> tuple[Edge, ...]:
    """BFS spanning tree of the induced subgraph on s, rooted at min(s).

    Edges are returned in discovery order as (parent, child); each vertex
    takes its undiscovered neighbours in s in ascending id, so the result
    is deterministic.  An empty s, an id of s outside 0..n-1 and a
    disconnected s raise `GraphError`.
    """
    unseen = _subset(g, s)
    root = min(unseen)
    unseen.remove(root)
    queue = deque([root])
    edges: list[Edge] = []
    while queue:
        x = queue.popleft()
        found = sorted(g.adj[x] & unseen)
        unseen.difference_update(found)
        edges += [(x, y) for y in found]
        queue += found
    if unseen:
        raise GraphError("not-connected")
    return tuple(edges)


def _connectivity_capped(g: Graph, cap: int) -> int:
    """min(kappa(g), cap) via the minimum-degree pair schedule.

    Fixes a minimum-degree vertex v0 and minimizes local connectivity over
    the non-neighbors of v0 and over all non-adjacent pairs of neighbors
    of v0 (Esfahanian-Hakimi); every flow stops at the running minimum,
    which starts at min(cap, deg v0) since kappa <= delta.  All flows run
    on one vertex-split network of g.  Complete graphs count as
    (n - 1)-connected by convention (no separator exists).

    Non-neighbors of v0 that form an independent set Y need no flow: Y is
    built greedily in ascending id, taking u when no neighbor of u is
    already in Y.  Let b be the final minimum and S a separator with
    |S| < b cutting v0 from some u in Y.  A neighbor w of u outside S
    would lie on u's side, so w is neither adjacent to v0 nor in Y; its
    flow then showed lambda(v0, w) >= b > |S|, a contradiction.  Hence
    N(u) is inside S and |S| >= deg u >= deg v0 >= b, a contradiction
    again, so the result is exact.  On a bipartite graph Y holds a whole
    side, which halves the flows.
    """
    from .flows import _SplitNetwork

    if g.n < 2:
        raise GraphError("degenerate-graph", f"n={g.n}")
    adj = g.adj
    if all(len(a) == g.n - 1 for a in adj):
        return min(g.n - 1, cap)
    v0 = min(range(g.n), key=lambda v: (len(adj[v]), v))
    best = min(cap, len(adj[v0]))
    if best == 0:
        return 0
    nbr_set = adj[v0]
    nbrs = sorted(nbr_set)
    settled: set[int] = set()
    flowed: list[int] = []
    for u in range(g.n):
        if u == v0 or u in nbr_set:
            continue
        if adj[u].isdisjoint(settled):
            settled.add(u)
        else:
            flowed.append(u)
    pairs = chain(
        ((v0, u) for u in flowed),
        ((x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1 :] if y not in adj[x]),
    )
    net = _SplitNetwork(g)
    for s, t in pairs:
        best = net.max_flow(s, t, best)
        if best == 0:
            break
    return best


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; complete graphs return n - 1."""
    return _connectivity_capped(g, g.n - 1)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff kappa(g) >= k; cheaper than exact connectivity (flows stop at k)."""
    return k <= 0 or _connectivity_capped(g, k) >= k
