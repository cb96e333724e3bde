"""Exhaustive oracles the tests check the package against.

`verify_cds_family` re-derives disjointness, connectivity and domination
of a family that need not cover V.  `lowest_index_extension` grows a
family into a partition one vertex at a time, the rule that
`extend_to_partition`'s union must reproduce.  `brute_min_vertex_cut` and
`brute_vertex_connectivity` find minimum vertex cuts by enumerating
subsets, independently of the flow network in `cdspart.flows`, so they
stay usable only on graphs of a few dozen vertices.  `scalar_shuffle`
and `scalar_sample_distinct` take one `randint` draw per position, the
definition that `SplitMix64.shuffle` and its block draws must match.
Nothing in `src/` imports this module.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from cdspart.generators import SplitMix64
from cdspart.graphs import Graph, GraphError, dominates, is_connected_subset
from cdspart.verify import VerificationReport, _adj_masks, _bits, _connected_mask

from conftest import edges_of, graph_of


def verify_cds_family(g: Graph, sets: Sequence[Iterable[int]]) -> VerificationReport:
    """Like verify_cds_partition but the sets need not cover V."""
    blocks = [frozenset(b) for b in sets]
    v: list[tuple[str, str]] = []
    seen: set[int] = set()
    for i, b in enumerate(blocks):
        if b & seen:
            v.append(("not-disjoint", f"set {i} overlaps an earlier set"))
        seen |= b
        if not b or not is_connected_subset(g, b):
            v.append(("not-connected", f"set {i}"))
        if not dominates(g, b):
            v.append(("not-dominating", f"set {i}"))
    return VerificationReport(tuple(v))


def lowest_index_extension(g: Graph, fam: Sequence[Iterable[int]]) -> tuple[frozenset[int], ...]:
    """Each vertex outside the family, in ascending id, joins the
    lowest-index set it is adjacent to; a vertex adjacent to no set raises
    `GraphError("not-dominating")`."""
    sets = [set(s) for s in fam]
    for v in sorted(set(range(g.n)).difference(*sets)):
        for s in sets:
            if g.adj[v] & s:
                s.add(v)
                break
        else:
            raise GraphError("not-dominating", f"vertex {v} is adjacent to no set")
    return tuple(frozenset(s) for s in sets)


def brute_min_vertex_cut(g: Graph, s: int, t: int, max_n: int = 24) -> int:
    """Minimum s-t vertex cut by subset enumeration (adjacent-edge convention).

    For adjacent endpoints the direct edge cannot be cut by vertex removal,
    so it contributes 1 plus the cut of the graph without that edge.
    """
    if g.n > max_n:
        raise GraphError("too-large-for-oracle", f"n={g.n} > {max_n}")
    if s == t:
        raise GraphError("identical-endpoints")
    if t in g.adj[s]:
        stripped = graph_of(g.n, [e for e in edges_of(g) if set(e) != {s, t}])
        return 1 + brute_min_vertex_cut(stripped, s, t, max_n)
    adj = _adj_masks(g)
    others = [v for v in range(g.n) if v != s and v != t]

    def separated(removed_mask: int) -> bool:
        comp = 1 << s
        allowed = ((1 << g.n) - 1) & ~removed_mask
        while True:
            grow = comp
            for v in _bits(comp):
                grow |= adj[v] & allowed
            if grow == comp:
                return not (comp >> t) & 1
            comp = grow

    for size in range(len(others) + 1):
        for cut in combinations(others, size):
            mask = 0
            for v in cut:
                mask |= 1 << v
            if separated(mask):
                return size
    return len(others)


def brute_vertex_connectivity(g: Graph, max_n: int = 20) -> int:
    """kappa by enumerating separators; n - 1 for complete graphs."""
    if g.n > max_n:
        raise GraphError("too-large-for-oracle", f"n={g.n} > {max_n}")
    if g.n < 2:
        raise GraphError("degenerate-graph")
    if all(len(a) == g.n - 1 for a in g.adj):
        return g.n - 1
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    for size in range(g.n - 1):
        for cut in combinations(range(g.n), size):
            mask = 0
            for v in cut:
                mask |= 1 << v
            rest = full & ~mask
            if rest and not _connected_mask(adj, rest):
                return size
    return g.n - 1


def scalar_shuffle(rng: SplitMix64, xs: list) -> None:
    """Fisher-Yates from the top, one scalar `randint(0, i)` per position i."""
    for i in range(len(xs) - 1, 0, -1):
        j = rng.randint(0, i)
        xs[i], xs[j] = xs[j], xs[i]


def scalar_sample_distinct(rng: SplitMix64, n: int, k: int) -> list[int]:
    """k distinct values from range(n): the first k of a scalar shuffle."""
    pool = list(range(n))
    scalar_shuffle(rng, pool)
    return pool[:k]
