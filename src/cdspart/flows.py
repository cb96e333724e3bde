"""Constructive Menger: maximum families of internally vertex-disjoint
paths via unit-capacity max flow on a vertex-split network.

Every vertex v becomes an in/out pair joined by a unit-capacity arc; each
undirected edge contributes a unit arc in both directions between the
out/in copies.  A query from s to t starts at the out-copy of s and ends
at the in-copy of t, so a direct s-t edge is the unit arc s_out -> t_in,
i.e. an edge counts as a path with no internal vertices.  One network
per graph answers any number of s-t queries: each query undoes the flow
of the previous one and sets its own source and sink.  A vertex's edge
arcs are built when a search first scans its out-copy, so a query pays
for the rows it reaches, not for the whole graph, and later queries
reuse them.  Augmenting paths are found by BFS in a fixed arc order,
which makes the produced family deterministic.
"""

from __future__ import annotations

from collections.abc import Iterator
from itertools import repeat
from weakref import proxy

from .graphs import Graph, GraphError, _subset

Path = tuple[int, ...]


def check_path(g: Graph, p: Path) -> None:
    """Raise unless p is a simple path of g; an id outside 0..n-1 is a "bad-vertex"."""
    if not p:
        raise GraphError("empty-path")
    if len(_subset(g, p)) != len(p):
        raise GraphError("repeated-vertex", f"{p}")
    for a, b in zip(p, p[1:]):
        if b not in g.adj[a]:
            raise GraphError("not-a-path", f"missing edge ({a}, {b})")


def _row(net: _SplitNetwork, v: int, adj_v: frozenset[int]) -> Iterator[int]:
    to, cap = net.to, net.cap
    start, nbrs = len(to), sorted(adj_v)
    to.extend(repeat(2 * v + 1, 2 * len(nbrs)))
    to[start::2] = [2 * w for w in nbrs]
    cap.extend([1, 0] * len(nbrs))
    row = net.out[2 * v + 1] = [2 * v + 1, *range(start, len(to), 2)]
    yield from row


class _SplitNetwork:
    """Residual network of g with every vertex split, reused across queries.

    Node 2v is the in-copy of v and 2v + 1 its out-copy.  Arcs come in
    (forward, reverse) pairs at indices (2i, 2i + 1) with forward capacity
    1: first the split arcs, 2v -> 2v + 1 at index 2v, then the edge arcs
    in the order their rows are built.  Until a scan first iterates
    out-copy v, its list is a `_row` generator, which appends one pair per
    directed edge v -> w, 2v + 1 -> 2w, puts v's list in its place and
    yields it, so no search tests anything per visit.  An out-copy lists
    its reverse split arc first, then its edge arcs in ascending neighbour
    order.  An in-copy lists its split arc first, then the reverse edge
    arcs that carry capacity, i.e. the edges into v that carry flow (the
    others would be skipped anyway): at most one, as one unit leaves v_in
    by its split arc, but at the sink, which no search scans.  So BFS
    order, flow values and path families depend on the query alone, not on
    the queries or rows before it.  The split arcs of s and t never carry
    flow: s_in leads only to the source, which is already visited, and
    t_out is never reached, so splitting them gives the flows of a network
    that leaves the endpoints whole.
    """

    def __init__(self, g: Graph):
        n = g.n
        self.base = base = 2 * n  # index of the first edge arc
        self.to = to = [0] * base
        to[0::2] = range(1, base, 2)
        to[1::2] = range(0, base, 2)
        self.cap = [1, 0] * n
        net = proxy(self)  # a weak reference: the rows form no cycle with the network
        self.out: list = [r for v in range(n) for r in ([2 * v], _row(net, v, g.adj[v]))]
        self.source = self.sink = -1
        self._touched: list[int] = []  # arcs the last query pushed flow along

    def max_flow(self, s: int, t: int, limit: int | None) -> int:
        """Undo the previous query's flow, then push up to `limit` units
        from s to t."""
        to, cap, out, base = self.to, self.cap, self.out, self.base
        for a in self._touched:
            cap[a & ~1] = 1
            cap[a | 1] = 0
            if a >= base:
                del out[to[a & ~1]][1:]
        self._touched.clear()
        self.source = 2 * s + 1  # out-copy of s
        self.sink = 2 * t  # in-copy of t
        value = 0
        while (limit is None or value < limit) and self.augment_once():
            value += 1
        return value

    def augment_once(self) -> bool:
        """One BFS augmentation; True iff a source-sink path was found.

        The search stops when the sink is labelled: its parent arc is set
        once, at discovery, so the path is the one found by popping it.
        """
        to, cap, out = self.to, self.cap, self.out
        source, sink = self.source, self.sink
        parent_arc = [-1] * len(out)
        parent_arc[source] = -2
        queue = [source]
        for x in queue:  # the list grows while it is walked: a FIFO queue
            for a in out[x]:
                if cap[a]:
                    y = to[a]
                    if parent_arc[y] == -1:
                        parent_arc[y] = a
                        if y == sink:
                            self._push(parent_arc)
                            return True
                        queue.append(y)
        return False

    def _push(self, parent_arc: list[int]) -> None:
        to, cap, out, base = self.to, self.cap, self.out, self.base
        touched = self._touched
        node = self.sink
        while node != self.source:
            a = parent_arc[node]
            cap[a] -= 1
            cap[a ^ 1] += 1
            touched.append(a)
            node = to[a ^ 1]
            if a >= base:  # keep each in-copy's list of open reverse arcs
                if a & 1:  # a leaves in-copy `node` and is now closed
                    out[node].remove(a)
                else:  # the reverse of a leaves in-copy to[a] and is now open
                    out[to[a]].append(a ^ 1)

    def extract_paths(self) -> list[Path]:
        """Decompose the current flow into s-t vertex sequences.

        A forward (even) arc carries flow iff its capacity is used up.
        Cancellation may leave flow cycles; they miss the source, so the
        walks below never touch them and the path count equals the value.
        """
        to, cap, out = self.to, self.cap, self.out
        used: set[int] = set()
        paths: list[Path] = []
        for a0 in out[self.source]:
            if a0 % 2 or cap[a0] or a0 in used:
                continue
            seq = [self.source // 2]
            arc = a0
            while True:
                used.add(arc)
                node = to[arc]
                if node % 2 == 0:
                    seq.append(node // 2)
                if node == self.sink:
                    break
                arc = next(b for b in out[node] if b % 2 == 0 and not cap[b] and b not in used)
            paths.append(tuple(seq))
        return paths


def _check_paths(g: Graph, s: int, t: int, paths: tuple[Path, ...]) -> None:
    """Raise unless every path runs from s to t in g and no two paths share
    an internal vertex."""
    seen_internal: set[int] = set()
    for p in paths:
        check_path(g, p)
        if p[0] != s or p[-1] != t:
            raise GraphError("bad-endpoints", f"path {p}")
        internal = set(p[1:-1])
        if internal & seen_internal:
            raise GraphError(
                "not-disjoint", f"shared internal vertices {internal & seen_internal}"
            )
        seen_internal |= internal


def vertex_disjoint_paths(g: Graph, s: int, t: int, want: int | None = None) -> tuple[Path, ...]:
    """min(want, lambda(s,t)) internally vertex-disjoint s-t paths.

    Paths are sorted by (length, vertex sequence) for reproducibility.
    An endpoint outside 0..n-1 raises `GraphError("bad-vertex")`.
    """
    _subset(g, (s, t))
    if s == t:
        raise GraphError("identical-endpoints", f"vertex {s}")
    if want is not None and want < 1:
        raise GraphError("bad-want", f"want={want}")
    net = _SplitNetwork(g)
    net.max_flow(s, t, want)
    paths = tuple(sorted(net.extract_paths(), key=lambda p: (len(p), p)))
    _check_paths(g, s, t, paths)
    return paths


def make_induced(g: Graph, p: Path) -> Path:
    """Shorten p to an induced path with the same endpoints.

    One forward pass: from p[0], jump each time to the furthest later
    vertex of p adjacent to the current one.  That is where splicing out
    the chord (i, j) with the least i, then the greatest j, again and
    again ends, since a splice keeps the suffix after j as it was.
    O(len(p) + the degrees of the kept vertices).
    """
    check_path(g, p)
    pos = {v: i for i, v in enumerate(p)}
    out = [p[0]]
    i = 0
    while i < len(p) - 1:
        # p[i + 1] is a neighbour, so the jump moves forward
        i = max(pos.get(w, -1) for w in g.adj[p[i]])
        out.append(p[i])
    return tuple(out)
