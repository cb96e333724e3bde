"""CDS-partition constructions for the structured graph classes.

Each builder produces k pairwise-disjoint connected dominating sets for a
sufficiently connected model (k-connected interval, k-connected biconvex,
4k-connected convex bipartite) and self-checks its output before returning;
`extend_to_partition` then absorbs the leftover vertices to form a full
CDS partition.
"""

from __future__ import annotations

from .flows import Path, make_induced, vertex_disjoint_paths
from .graphs import Graph, GraphError, VertexSet, _subset, first_non_dominating, is_connected_subset
from .models import BiconvexModel, ConvexModel, IntervalModel, interval_path_decomposition

CdsFamily = tuple[VertexSet, ...]


class BuilderError(GraphError):
    pass


class InsufficientConnectivity(BuilderError):
    """The model's connectivity (or disjoint backbone count) is below k."""

    def __init__(self, wanted: int, achieved: int):
        super().__init__(
            "insufficient-connectivity", f"wanted {wanted}, achieved {achieved}"
        )
        self.wanted = wanted
        self.achieved = achieved


def validate_family(g: Graph, sets: CdsFamily) -> None:
    """Pairwise disjoint, each connected, each dominating; raises otherwise."""
    bad = first_non_dominating(g, sets)
    seen: set[int] = set()
    for i, s in enumerate(sets):
        if not s:
            raise BuilderError("empty-set", f"set {i}")
        if s & seen:
            raise BuilderError("not-disjoint", f"set {i} overlaps an earlier one")
        seen |= s
        if not is_connected_subset(g, s):
            raise BuilderError("not-connected", f"set {i}")
        if i == bad:
            raise BuilderError("not-dominating", f"set {i}")


def cds_interval(m: IntervalModel, k: int) -> CdsFamily:
    """k disjoint CDSs of a k-connected interval graph, by one sweep over
    the separators S_i = B_i & B_i+1 of the clique path B_0 .. B_r-1 (a
    single bag is its own separator).

    A set meeting every S_i is connected and dominating: every vertex lies
    in a bag B_j, a clique holding S_j-1 or S_j, and members in S_i and
    S_i+1 both lie in the clique B_i+1.  A vertex lies in a run of
    consecutive separators; a set's reach is its members' farthest run
    end.  At S_i each set whose reach is below i takes the free vertex of
    S_i that reaches farthest (lowest id on ties; any would do).  None runs
    short while every |S_i| >= k: a vertex of S_i taken before step i
    lifted its set's reach to i or more, so each set not due holds at most
    one taken vertex of S_i, and a free one is left for every set due.  A
    CDS meets every S_i, so kappa = min |S_i| is the largest k there is.
    """
    if k < 1:
        raise BuilderError("bad-k", f"k={k}")
    bags = interval_path_decomposition(m)
    seps = [a & b for a, b in zip(bags, bags[1:])] or list(bags)
    kappa = min(map(len, seps))
    if kappa < k:
        raise InsufficientConnectivity(k, kappa)
    ends = {v: i for i, sep in enumerate(seps) for v in sep}  # run end per vertex not taken
    sets: list[set[int]] = [set() for _ in range(k)]
    due: list[list[int]] = [list(range(k))] + [[] for _ in seps]  # due[i]: reach i - 1
    for i, sep in enumerate(seps):
        if due[i]:
            free = sorted((v for v in sep if v in ends), key=lambda v: (-ends[v], v))
            for j, v in zip(sorted(due[i]), free):
                sets[j].add(v)
                due[ends.pop(v) + 1].append(j)
    out = tuple(frozenset(s) for s in sets)
    validate_family(m.graph, out)
    return out


def backbones(m: ConvexModel, g: Graph, k: int) -> tuple[Path, ...]:
    """k disjoint induced a_1..a_na paths of a convex (or biconvex) model,
    endpoints kept (na = 1 gives (a_1,)); `g` is the model's derived graph."""
    if k < 1:
        raise BuilderError("bad-k", f"k={k}")
    a1, a_na = m.a_id(0), m.a_id(m.na - 1)
    paths = vertex_disjoint_paths(g, a1, a_na, want=k) if m.na > 1 else ((a1,),)
    if len(paths) < k:
        raise InsufficientConnectivity(k, len(paths))
    return tuple(make_induced(g, p) for p in paths)


def cds_biconvex(m: BiconvexModel, k: int) -> CdsFamily:
    """k disjoint CDSs of a k-connected biconvex graph.

    Starts from the induced backbones with their endpoints stripped; each
    contains at most one neighbor of b_1 and at most one of b_nb, and
    already dominates the A side.  For any backbone missing a neighbor of
    b_1 (resp. b_nb), adds one unused vertex from N(b_1) (resp. N(b_nb));
    availability follows from the one-neighbor bound per backbone plus
    minimum degree >= k.
    """
    g = m.graph
    sets = [set(p[1:-1]) for p in backbones(m, g, k)]
    used: set[int] = set()
    for s in sets:
        used |= s
    first_b = m.b_id(0)
    last_b = m.b_id(m.nb - 1)
    for s in sets:
        for b in (first_b, last_b):
            watchers = g.adj[b]
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
    g = m.graph
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
    stay connected and dominating, so the result is a CDS partition.  An id
    outside 0..n-1 raises `GraphError("bad-vertex")` before any set grows.
    """
    sets = [_subset(g, s) for s in fam]
    covered = set().union(*sets)
    for v in range(g.n):
        if v in covered:
            continue
        nbrs = g.adj[v]
        for s in sets:
            if nbrs & s:
                s.add(v)
                break
        else:
            raise BuilderError("not-dominating", f"vertex {v} is adjacent to no set")
    return tuple(frozenset(s) for s in sets)
