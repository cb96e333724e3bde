"""Reference flow layer: one fresh vertex-split network per s-t pair.

A frozen copy of the per-pair `_SplitNetwork` that `cdspart.flows` used
before one network per graph answered every query, together with the
minimum-degree pair schedule over it, and `check_family`, an assert-based
check of a path family.  Tests compare the production
results (values and path families) against these functions; nothing in
`src/` imports this module.
"""

from __future__ import annotations

from collections import deque
from itertools import chain

from cdspart.graphs import Graph


class SplitNetwork:
    """Residual network for unit-capacity vertex-disjoint s-t path flow.

    Every vertex but s and t is split into an in/out pair; s is entered at
    its out-copy and t left at its in-copy.
    """

    def __init__(self, g: Graph, s: int, t: int):
        self.source = 2 * s + 1
        self.sink = 2 * t
        self.to: list[int] = []
        self.cap: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(2 * g.n)]
        for v in range(g.n):
            if v != s and v != t:
                self._arc(2 * v, 2 * v + 1)
        for u in range(g.n):
            for v in sorted(g.adj[u]):
                self._arc(2 * u + 1, 2 * v)

    def _arc(self, a: int, b: int) -> None:
        self.out[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(1)
        self.out[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)

    def augment_once(self) -> bool:
        parent_arc = [-1] * len(self.out)
        parent_arc[self.source] = -2
        queue = deque([self.source])
        while queue:
            x = queue.popleft()
            if x == self.sink:
                break
            for a in self.out[x]:
                y = self.to[a]
                if self.cap[a] > 0 and parent_arc[y] == -1:
                    parent_arc[y] = a
                    queue.append(y)
        if parent_arc[self.sink] == -1:
            return False
        node = self.sink
        while node != self.source:
            a = parent_arc[node]
            self.cap[a] -= 1
            self.cap[a ^ 1] += 1
            node = self.to[a ^ 1]
        return True

    def max_flow(self, limit: int | None) -> int:
        value = 0
        while (limit is None or value < limit) and self.augment_once():
            value += 1
        return value

    def extract_paths(self) -> list[tuple[int, ...]]:
        used = [False] * len(self.to)
        flow = [1 - self.cap[a] if a % 2 == 0 else 0 for a in range(len(self.to))]
        paths = []
        for a0 in self.out[self.source]:
            if a0 % 2 or not flow[a0] or used[a0]:
                continue
            seq = [self.source // 2]
            arc = a0
            while True:
                used[arc] = True
                node = self.to[arc]
                if node % 2 == 0:
                    seq.append(node // 2)
                if node == self.sink:
                    break
                arc = next(
                    b for b in self.out[node] if b % 2 == 0 and flow[b] and not used[b]
                )
            paths.append(tuple(seq))
        return paths


def local_connectivity(g: Graph, s: int, t: int, cap: int | None = None) -> int:
    return SplitNetwork(g, s, t).max_flow(cap)


def disjoint_paths(g: Graph, s: int, t: int, want: int | None = None) -> tuple:
    """The path family `vertex_disjoint_paths` returns, in its order."""
    net = SplitNetwork(g, s, t)
    net.max_flow(want)
    return tuple(sorted(net.extract_paths(), key=lambda p: (len(p), p)))


def check_family(g: Graph, s: int, t: int, paths: tuple) -> None:
    """Assert that `paths` are s-t paths of g, none repeating a vertex, and
    that no two share an internal vertex."""
    seen: set[int] = set()
    for p in paths:
        assert p[0] == s and p[-1] == t and len(set(p)) == len(p), p
        assert all(b in g.adj[a] for a, b in zip(p, p[1:])), p
        assert seen.isdisjoint(p[1:-1]), p
        seen.update(p[1:-1])


def connectivity_capped(g: Graph, cap: int) -> int:
    """min(kappa(g), cap) over the minimum-degree pair schedule; n >= 2."""
    if all(len(a) == g.n - 1 for a in g.adj):
        return min(g.n - 1, cap)
    v0 = min(range(g.n), key=lambda v: (len(g.adj[v]), v))
    best = min(cap, len(g.adj[v0]))
    nbrs = sorted(g.adj[v0])
    pairs = chain(
        ((v0, u) for u in range(g.n) if u != v0 and u not in g.adj[v0]),
        ((x, y) for i, x in enumerate(nbrs) for y in nbrs[i + 1 :] if y not in g.adj[x]),
    )
    for s, t in pairs:
        if best == 0:
            break
        best = local_connectivity(g, s, t, cap=best)
    return best


def make_induced_splice(g: Graph, p: tuple[int, ...]) -> tuple[int, ...]:
    """The chord-splice loop `cdspart.flows.make_induced` used before its
    one forward pass: repeatedly find the chord (i, j) minimizing i then
    maximizing j along the current path and splice out the subpath
    between its endpoints.  O(L^2) pairs per chord."""
    cur = list(p)
    while True:
        chord = None
        for i in range(len(cur) - 2):
            for j in range(len(cur) - 1, i + 1, -1):
                if j - i >= 2 and cur[j] in g.adj[cur[i]]:
                    chord = (i, j)
                    break
            if chord:
                break
        if chord is None:
            return tuple(cur)
        i, j = chord
        cur = cur[: i + 1] + cur[j:]
