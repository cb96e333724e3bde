"""CDS-partition constructions for the structured graph classes.

Each builder produces k pairwise-disjoint connected dominating sets for a
sufficiently connected model (k-connected interval, k-connected biconvex,
4k-connected convex bipartite) and self-checks its output before returning;
`extend_to_partition` then absorbs the leftover vertices to form a full
CDS partition.
"""

from __future__ import annotations

from .flows import Path, make_induced, vertex_disjoint_paths
from .graphs import Graph, GraphError, VertexSet, dominates, is_connected_subset
from .models import BiconvexModel, ConvexModel, IntervalModel, interval_path_decomposition

CdsFamily = tuple[VertexSet, ...]


class BuilderError(GraphError):
    pass


class InsufficientConnectivity(BuilderError):
    """Fewer disjoint paths exist than the requested family size."""

    def __init__(self, wanted: int, achieved: int):
        super().__init__(
            "insufficient-connectivity", f"wanted {wanted}, achieved {achieved}"
        )
        self.wanted = wanted
        self.achieved = achieved


def validate_family(g: Graph, sets: CdsFamily) -> None:
    """Pairwise disjoint, each connected, each dominating; raises otherwise."""
    seen: set[int] = set()
    for i, s in enumerate(sets):
        if not s:
            raise BuilderError("empty-set", f"set {i}")
        if s & seen:
            raise BuilderError("not-disjoint", f"set {i} overlaps an earlier one")
        seen |= s
        if not is_connected_subset(g, s):
            raise BuilderError("not-connected", f"set {i}")
        if not dominates(g, s):
            raise BuilderError("not-dominating", f"set {i}")


def cds_interval(m: IntervalModel, k: int) -> CdsFamily:
    """k disjoint dominating paths of a k-connected interval graph.

    Augments the graph with a virtual source adjacent to the first bag of
    the clique path and a virtual sink adjacent to the last, routes k
    vertex-disjoint source-sink paths and strips the virtual endpoints.
    Every bag is a separator of size >= k, and a clique, so each surviving
    path meets every bag and dominates the graph.
    """
    if k < 1:
        raise BuilderError("bad-k", f"k={k}")
    g = m.derive_graph()
    decomp = interval_path_decomposition(m)
    s, t = m.n, m.n + 1
    edges = list(g.edges())
    edges += [(v, s) for v in sorted(decomp.bags[0])]
    edges += [(v, t) for v in sorted(decomp.bags[-1])]
    aug = Graph(m.n + 2, edges)
    family = vertex_disjoint_paths(aug, s, t, want=k)
    if len(family.paths) < k:
        raise InsufficientConnectivity(k, len(family.paths))
    sets = tuple(frozenset(p[1:-1]) for p in family.paths)
    validate_family(g, sets)
    return sets


def backbones(m: ConvexModel, g: Graph, k: int) -> tuple[Path, ...]:
    """k disjoint induced a_1..a_na paths of a convex (or biconvex) model,
    endpoints kept; `g` is the model's derived graph."""
    if k < 1:
        raise BuilderError("bad-k", f"k={k}")
    if m.na < 2:
        raise BuilderError("bad-model", "need at least two A-vertices")
    family = vertex_disjoint_paths(g, m.a_id(0), m.a_id(m.na - 1), want=k)
    if len(family.paths) < k:
        raise InsufficientConnectivity(k, len(family.paths))
    return tuple(make_induced(g, p) for p in family.paths)


def cds_biconvex(m: BiconvexModel, k: int) -> CdsFamily:
    """k disjoint CDSs of a k-connected biconvex graph.

    Starts from the induced backbones with their endpoints stripped; each
    contains at most one neighbor of b_1 and at most one of b_nb, and
    already dominates the A side.  For any backbone missing a neighbor of
    b_1 (resp. b_nb), adds one unused vertex from N(b_1) (resp. N(b_nb));
    availability follows from the one-neighbor bound per backbone plus
    minimum degree >= k.
    """
    g = m.derive_graph()
    sets = [set(p[1:-1]) for p in backbones(m, g, k)]
    used: set[int] = set()
    for s in sets:
        used |= s
    first_b = m.b_id(0)
    last_b = m.b_id(m.nb - 1)
    for s in sets:
        for b in (first_b, last_b):
            watchers = g.neighbor_set(b)
            if not (s & watchers):
                free = sorted(watchers - used)
                if not free:
                    raise BuilderError(
                        "augmentation-exhausted", f"no unused neighbor of vertex {b}"
                    )
                s.add(free[0])
                used.add(free[0])
    out = tuple(frozenset(s) for s in sets)
    validate_family(g, out)
    return out


def cds_convex(m: ConvexModel, k: int) -> CdsFamily:
    """k disjoint CDSs of a 4k-connected convex bipartite graph.

    Each induced backbone dominates A; the A-vertices on no backbone are
    dealt out alternatingly in A order, and each such share dominates B
    because any 4k consecutive A-vertices contain at most 3 vertices of
    each backbone.  The stripped endpoints a_1, a_na join the first set.
    """
    g = m.derive_graph()
    paths = backbones(m, g, k)
    on_paths: set[int] = set()
    for p in paths:
        on_paths |= set(p)
    sets = [set(p[1:-1]) for p in paths]
    leftover = [a for a in range(m.na) if a not in on_paths]
    for pos, a in enumerate(leftover):
        sets[pos % k].add(a)
    sets[0].add(m.a_id(0))
    sets[0].add(m.a_id(m.na - 1))
    out = tuple(frozenset(s) for s in sets)
    validate_family(g, out)
    return out


def extend_to_partition(g: Graph, fam: CdsFamily) -> tuple[VertexSet, ...]:
    """Grow a disjoint CDS family into a CDS partition of V.

    Every uncovered vertex is appended to the lowest-index set it is
    adjacent to (one exists since each set dominates); supersets of a CDS
    stay connected and dominating, so the result is a CDS partition.
    """
    sets = [set(s) for s in fam]
    covered: set[int] = set()
    for s in sets:
        covered |= s
    for v in range(g.n):
        if v in covered:
            continue
        nbrs = g.neighbor_set(v)
        for s in sets:
            if nbrs & s:
                s.add(v)
                break
        else:
            raise BuilderError("not-dominating", f"vertex {v} is adjacent to no set")
    return tuple(frozenset(s) for s in sets)
