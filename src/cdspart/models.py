"""Structured graph-class models: interval representations and convex /
biconvex bipartite orderings.

Models are inputs, not computed: class recognition is out of scope, so a
caller provides the interval endpoints or the orderings and we validate
the defining consecutiveness properties.  Derived graphs use dense ids;
for bipartite models the ordered A side occupies 0..na-1 and the B side
na..na+nb-1.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass, field
from typing import Collection

from .graphs import Graph, GraphError, VertexSet


@dataclass(frozen=True)
class _Model:
    """Base of the models: keeps the derived graph once it is built.

    The cache is a field set with `object.__setattr__`.  A
    `functools.cached_property` would read the instance `__dict__`, which
    on CPython 3.11 slows every later attribute read on that model.
    """

    _graph: Graph | None = field(default=None, init=False, repr=False, compare=False)

    @property
    def graph(self) -> Graph:
        """The derived graph: `derive_graph`, called on first use only."""
        if self._graph is None:
            object.__setattr__(self, "_graph", self.derive_graph())
        return self._graph


@dataclass(frozen=True)
class IntervalModel(_Model):
    """One closed integer interval [left, right] per vertex."""

    lefts: tuple[int, ...]
    rights: tuple[int, ...]

    def __post_init__(self) -> None:
        if len(self.lefts) != len(self.rights):
            raise GraphError("bad-model", "interval endpoint counts differ")
        for v, (a, b) in enumerate(zip(self.lefts, self.rights)):
            if a > b:
                raise GraphError("bad-model", f"interval {v} has left > right")

    @property
    def n(self) -> int:
        return len(self.lefts)

    def derive_graph(self) -> Graph:
        """A sweep in left-endpoint order: an interval meets exactly the
        later ones whose left endpoint is at most its right endpoint (closed
        intervals that only touch meet), so the cost is O(n log n + m)."""
        lefts, rights = self.lefts, self.rights
        order = sorted(range(self.n), key=lefts.__getitem__)
        starts = [lefts[v] for v in order]
        adj: list[list[int]] = [[] for _ in range(self.n)]
        for i, u in enumerate(order):
            later = order[i + 1 : bisect_right(starts, rights[u])]
            adj[u] += later
            for v in later:
                adj[v].append(u)
        return Graph(adj)


@dataclass(frozen=True)
class ConvexModel(_Model):
    """Bipartite model where each B-vertex sees a contiguous A-index window.

    windows[j] = (lo, hi) means b_j is adjacent to a_lo..a_hi (0-based,
    inclusive); the A ordering is the identity on indices.
    """

    na: int
    nb: int
    windows: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if self.na < 1 or self.nb < 1:
            raise GraphError("bad-model", "empty side")
        if len(self.windows) != self.nb:
            raise GraphError("bad-model", "window count differs from nb")
        for j, (lo, hi) in enumerate(self.windows):
            if not (0 <= lo <= hi < self.na):
                raise GraphError("bad-model", f"window {j} = ({lo}, {hi}) out of range")

    @property
    def n(self) -> int:
        return self.na + self.nb

    def a_id(self, i: int) -> int:
        return i

    def b_id(self, j: int) -> int:
        return self.na + j

    def derive_graph(self) -> Graph:
        """One sweep over the A positions with the B-vertices whose windows
        hold the position active: A-vertex i's row is the active set at i,
        and each B-vertex's row is its window's slice of one list of the A
        ids.  The work is O(n) list operations plus O(m) inside set copies
        and slices, and no int object is made per edge."""
        na = self.na
        opens: list[list[int]] = [[] for _ in range(na)]
        closes: list[list[int]] = [[] for _ in range(na + 1)]
        for b, (lo, hi) in enumerate(self.windows, na):
            opens[lo].append(b)
            closes[hi + 1].append(b)
        active: set[int] = set()
        rows: list[Collection[int]] = []
        for i in range(na):
            active.difference_update(closes[i])
            active.update(opens[i])
            rows.append(frozenset(active))
        ids = list(range(na))
        rows += [ids[lo : hi + 1] for lo, hi in self.windows]
        return Graph(rows)


@dataclass(frozen=True)
class BiconvexModel(ConvexModel):
    """Convex model whose A-side neighborhoods are also contiguous in B order."""

    def __post_init__(self) -> None:
        super().__post_init__()
        # A-vertex i sees B-vertices first[i]..last[i], `count` of them (a
        # running sum of `delta`); its neighbourhood is contiguous iff that
        # span holds exactly `count`.  Slice writes keep the windows' pass
        # O(na + sum of window sizes).
        na = self.na
        first = [0] * na
        last = [0] * na
        delta = [0] * (na + 1)
        for j, (lo, hi) in enumerate(self.windows):
            last[lo : hi + 1] = [j] * (hi - lo + 1)
            delta[lo] += 1
            delta[hi + 1] -= 1
        for j in range(self.nb - 1, -1, -1):
            lo, hi = self.windows[j]
            first[lo : hi + 1] = [j] * (hi - lo + 1)
        count = 0
        for i in range(na):
            count += delta[i]
            if count and last[i] - first[i] + 1 != count:
                raise GraphError(
                    "bad-model", f"A-vertex {i} has a non-contiguous B-neighborhood"
                )


def _clique_path(m: IntervalModel) -> list[VertexSet]:
    """Maximal cliques of the interval graph in sweep order.

    The candidate bag at a right endpoint r holds every interval covering
    r.  A sweep over the endpoints keeps those intervals as the active set:
    before r it adds every interval with left <= r, after it drops the
    interval ending there.  A bag is a maximal clique exactly when an
    interval was added since the last kept bag; otherwise it lies inside
    that bag.  The cost is O(n log n) plus the size of the kept bags.
    Every bag separates what lies left of it from what lies right, so the
    graph is connected exactly when no two consecutive bags are disjoint.
    """
    lefts, rights = m.lefts, m.rights
    starts = iter(sorted(range(m.n), key=lefts.__getitem__))
    nxt = next(starts, None)
    active: set[int] = set()
    bags: list[VertexSet] = []
    fresh = False
    for v in sorted(range(m.n), key=rights.__getitem__):
        r = rights[v]
        while nxt is not None and lefts[nxt] <= r:
            active.add(nxt)
            nxt = next(starts, None)
            fresh = True
        if fresh:
            bags.append(frozenset(active))
            fresh = False
        active.discard(v)
    return bags


def interval_path_decomposition(m: IntervalModel) -> tuple[VertexSet, ...]:
    """The bags of the clique path of a connected interval model, a path
    decomposition; bags being maximal cliques gives minimum width."""
    if m.n == 0:
        raise GraphError("degenerate-graph", "n=0")
    bags = _clique_path(m)
    if any(a.isdisjoint(b) for a, b in zip(bags, bags[1:])):
        raise GraphError("disconnected")
    return tuple(bags)


def interval_connectivity(m: IntervalModel) -> int:
    """kappa of the derived interval graph.

    Minimal separators of an interval graph are the intersections of
    consecutive maximal cliques of its clique path, so the connectivity is
    the smallest such intersection (0 if disconnected, n - 1 for a single
    clique).  `cdspart connectivity` answers interval models with it;
    cross-checked against flow-based connectivity in tests.
    """
    if m.n < 2:
        raise GraphError("degenerate-graph", f"n={m.n}")
    bags = _clique_path(m)
    if len(bags) == 1:
        return m.n - 1
    return min(len(a & b) for a, b in zip(bags, bags[1:]))
