"""Undirected simple graphs over dense integer ids, plus the connectivity
and domination primitives everything else is built on.

All operations are pure; every choice (BFS order, tie-breaks) is resolved
in ascending vertex id so results are reproducible for a given input.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import chain
from typing import Iterable, Iterator

VertexSet = frozenset[int]
Edge = tuple[int, int]


class GraphError(ValueError):
    """Malformed graph data or a violated operation precondition."""

    def __init__(self, code: str, message: str = ""):
        super().__init__(f"{code}: {message}" if message else code)
        self.code = code


class Graph:
    """Immutable undirected simple graph on vertices 0..n-1."""

    __slots__ = ("n", "m", "_adj", "_adjsets")

    def __init__(self, n: int, edges: Iterable[Edge]):
        if n < 0:
            raise GraphError("bad-order", f"negative vertex count {n}")
        adj: list[set[int]] = [set() for _ in range(n)]
        m = 0
        for u, v in edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError("bad-edge", f"endpoint out of range in ({u}, {v})")
            if u == v:
                raise GraphError("self-loop", f"vertex {u}")
            if v in adj[u]:
                raise GraphError("duplicate-edge", f"({u}, {v})")
            adj[u].add(v)
            adj[v].add(u)
            m += 1
        self.n = n
        self.m = m
        self._adjsets: tuple[frozenset[int], ...] = tuple(frozenset(s) for s in adj)
        self._adj: tuple[tuple[int, ...], ...] = tuple(tuple(sorted(s)) for s in adj)

    def neighbors(self, v: int) -> tuple[int, ...]:
        return self._adj[v]

    def neighbor_set(self, v: int) -> frozenset[int]:
        return self._adjsets[v]

    def has_edge(self, u: int, v: int) -> bool:
        return v in self._adjsets[u]

    def degree(self, v: int) -> int:
        return len(self._adj[v])

    def edges(self) -> Iterator[Edge]:
        """All edges as (u, v) with u < v, ascending."""
        for u in range(self.n):
            for v in self._adj[u]:
                if u < v:
                    yield (u, v)

    def is_complete(self) -> bool:
        return all(len(a) == self.n - 1 for a in self._adj)

    def __repr__(self) -> str:  # pragma: no cover
        return f"Graph(n={self.n}, m={self.m})"


@dataclass(frozen=True)
class DominatingTree:
    """A tree (vertex set + explicit tree edges) that dominates its host graph."""

    vertices: VertexSet
    edges: tuple[Edge, ...]

    def validate(self, g: Graph) -> None:
        vs = self.vertices
        if not vs:
            raise GraphError("empty-tree")
        if len(self.edges) != len(vs) - 1:
            raise GraphError(
                "not-a-tree", f"{len(self.edges)} edges for {len(vs)} vertices"
            )
        adj: dict[int, list[int]] = {v: [] for v in vs}
        for u, v in self.edges:
            if u not in vs or v not in vs:
                raise GraphError("not-a-tree", f"edge ({u}, {v}) leaves the vertex set")
            if not g.has_edge(u, v):
                raise GraphError("not-a-tree", f"({u}, {v}) is not a graph edge")
            adj[u].append(v)
            adj[v].append(u)
        root = min(vs)
        seen = {root}
        queue = deque([root])
        while queue:
            x = queue.popleft()
            for y in adj[x]:
                if y not in seen:
                    seen.add(y)
                    queue.append(y)
        if len(seen) != len(vs):
            raise GraphError("not-a-tree", "tree edges do not connect the vertex set")
        if not dominates(g, vs):
            raise GraphError("not-dominating")

    def adjacency(self) -> dict[int, tuple[int, ...]]:
        """Tree adjacency (sorted), keyed by vertex."""
        adj: dict[int, list[int]] = {v: [] for v in self.vertices}
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return {v: tuple(sorted(ns)) for v, ns in adj.items()}


def is_connected_subset(g: Graph, s: Iterable[int]) -> bool:
    """True iff the subgraph induced on s is connected. s must be nonempty."""
    members = set(s)
    if not members:
        raise GraphError("empty-subset")
    start = min(members)
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y in members and y not in seen:
                seen.add(y)
                queue.append(y)
    return len(seen) == len(members)


def dominates(g: Graph, s: Iterable[int]) -> bool:
    """True iff every vertex outside s has a neighbor in s.

    Members of s count as covered (closed-neighborhood reading), which
    makes the predicate monotone under set growth.
    """
    members = set(s)
    for v in range(g.n):
        if v in members:
            continue
        if not (g.neighbor_set(v) & members):
            return False
    return True


def open_neighborhood(g: Graph, s: Iterable[int]) -> VertexSet:
    """N(s): vertices outside s adjacent to some member of s."""
    members = set(s)
    out: set[int] = set()
    for v in members:
        out.update(g.neighbor_set(v))
    return frozenset(out - members)


def spanning_tree(g: Graph, s: Iterable[int]) -> tuple[Edge, ...]:
    """BFS spanning tree of the induced subgraph on s, rooted at min(s).

    Edges are returned in discovery order as (parent, child); neighbors are
    scanned in ascending id, so the result is deterministic.
    """
    members = set(s)
    if not members:
        raise GraphError("empty-subset")
    root = min(members)
    seen = {root}
    queue = deque([root])
    edges: list[Edge] = []
    while queue:
        x = queue.popleft()
        for y in g.neighbors(x):
            if y in members and y not in seen:
                seen.add(y)
                edges.append((x, y))
                queue.append(y)
    if len(seen) != len(members):
        raise GraphError("not-connected")
    return tuple(edges)


def is_connected(g: Graph) -> bool:
    if g.n == 0:
        raise GraphError("empty-subset")
    return is_connected_subset(g, range(g.n))


def _connectivity_capped(g: Graph, cap: int) -> int:
    """min(kappa(g), cap) via the minimum-degree pair schedule.

    Fixes a minimum-degree vertex v0 and minimizes local connectivity over
    all non-neighbors of v0 and over all non-adjacent pairs of neighbors
    of v0 (Esfahanian-Hakimi); every flow stops at the running minimum,
    which starts at min(cap, deg v0) since kappa <= delta.  Complete
    graphs count as (n - 1)-connected by convention (no separator exists).
    """
    from .flows import local_connectivity

    if g.n < 2:
        raise GraphError("degenerate-graph", f"n={g.n}")
    if g.is_complete():
        return min(g.n - 1, cap)
    v0 = min(range(g.n), key=lambda v: (g.degree(v), v))
    best = min(cap, g.degree(v0))
    nbrs = g.neighbors(v0)
    nbr_set = g.neighbor_set(v0)
    pairs = chain(
        ((v0, u) for u in range(g.n) if u != v0 and u not in nbr_set),
        ((x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1 :] if not g.has_edge(x, y)),
    )
    for s, t in pairs:
        if best == 0:
            break
        best = local_connectivity(g, s, t, cap=best)
    return best


def vertex_connectivity(g: Graph) -> int:
    """Exact vertex connectivity; complete graphs return n - 1."""
    return _connectivity_capped(g, g.n - 1)


def is_k_connected(g: Graph, k: int) -> bool:
    """True iff kappa(g) >= k; cheaper than exact connectivity (flows stop at k)."""
    return k <= 0 or _connectivity_capped(g, k) >= k
