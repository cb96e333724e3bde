"""Constructive Menger: maximum families of internally vertex-disjoint
paths via unit-capacity max flow on a vertex-split network.

Every internal vertex v becomes an in/out pair joined by a unit-capacity
arc; each undirected edge contributes a unit arc in both directions between
the out/in copies.  The endpoints are not split, so a direct s-t edge is
the unit arc s_out -> t_in, i.e. an edge counts as a path with no internal
vertices.  Augmenting paths are found by BFS in insertion order, which
makes the produced family deterministic.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

from .graphs import Graph, GraphError

Path = tuple[int, ...]


@dataclass(frozen=True)
class PathFamily:
    """Internally vertex-disjoint s-t paths, canonically ordered."""

    s: int
    t: int
    paths: tuple[Path, ...]

    def validate(self, g: Graph) -> None:
        seen_internal: set[int] = set()
        for p in self.paths:
            check_path(g, p)
            if p[0] != self.s or p[-1] != self.t:
                raise GraphError("bad-endpoints", f"path {p}")
            internal = set(p[1:-1])
            if internal & seen_internal:
                raise GraphError(
                    "not-disjoint", f"shared internal vertices {internal & seen_internal}"
                )
            seen_internal |= internal


def check_path(g: Graph, p: Path) -> None:
    if not p:
        raise GraphError("empty-path")
    if len(set(p)) != len(p):
        raise GraphError("repeated-vertex", f"{p}")
    for a, b in zip(p, p[1:]):
        if not g.has_edge(a, b):
            raise GraphError("not-a-path", f"missing edge ({a}, {b})")


class _SplitNetwork:
    """Residual network for unit-capacity vertex-disjoint path flow."""

    def __init__(self, g: Graph, s: int, t: int):
        self.g = g
        self.source = 2 * s + 1  # out-copy of s
        self.sink = 2 * t  # in-copy of t
        self.to: list[int] = []
        self.cap: list[int] = []
        self.out: list[list[int]] = [[] for _ in range(2 * g.n)]
        for v in range(g.n):
            if v != s and v != t:
                self._arc(2 * v, 2 * v + 1)
        for u in range(g.n):
            for v in g.neighbors(u):
                self._arc(2 * u + 1, 2 * v)

    def _arc(self, a: int, b: int) -> None:
        self.out[a].append(len(self.to))
        self.to.append(b)
        self.cap.append(1)
        self.out[b].append(len(self.to))
        self.to.append(a)
        self.cap.append(0)

    def augment_once(self) -> bool:
        """One BFS augmentation; True iff a source-sink path was found."""
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

    def extract_paths(self) -> list[Path]:
        """Decompose the current flow into s-t vertex sequences.

        Cancellation may leave flow cycles; they miss the source, so the
        walks below never touch them and the path count equals the value.
        """
        used = [False] * len(self.to)
        flow = [
            1 - self.cap[a] if a % 2 == 0 else 0 for a in range(len(self.to))
        ]
        paths: list[Path] = []
        for a0 in self.out[self.source]:
            if a0 % 2 or not flow[a0] or used[a0]:
                continue
            seq = [self.source // 2]
            node = self.source
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
    """Max number of internally vertex-disjoint s-t paths (direct edge
    counts), or `cap` if that many exist; the flow stops at `cap`."""
    if s == t:
        raise GraphError("identical-endpoints", f"vertex {s}")
    return _SplitNetwork(g, s, t).max_flow(cap)


def vertex_disjoint_paths(g: Graph, s: int, t: int, want: int | None = None) -> PathFamily:
    """min(want, lambda(s,t)) internally vertex-disjoint s-t paths.

    Paths are sorted by (length, vertex sequence) for reproducibility.
    """
    if s == t:
        raise GraphError("identical-endpoints", f"vertex {s}")
    if want is not None and want < 1:
        raise GraphError("bad-want", f"want={want}")
    net = _SplitNetwork(g, s, t)
    net.max_flow(want)
    paths = sorted(net.extract_paths(), key=lambda p: (len(p), p))
    family = PathFamily(s=s, t=t, paths=tuple(paths))
    family.validate(g)
    return family


def make_induced(g: Graph, p: Path) -> Path:
    """Shorten p to an induced path with the same endpoints.

    Repeatedly finds the chord (i, j) minimizing i then maximizing j along
    the current path and splices the subpath between its endpoints out.
    Terminates because the path strictly shortens.
    """
    check_path(g, p)
    cur = list(p)
    while True:
        chord = None
        for i in range(len(cur) - 2):
            for j in range(len(cur) - 1, i + 1, -1):
                if j - i >= 2 and g.has_edge(cur[i], cur[j]):
                    chord = (i, j)
                    break
            if chord:
                break
        if chord is None:
            return tuple(cur)
        i, j = chord
        cur = cur[: i + 1] + cur[j:]
