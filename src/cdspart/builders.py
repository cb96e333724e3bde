"""CDS-partition constructions for the structured graph classes.

Each builder produces k pairwise-disjoint connected dominating sets for a
sufficiently connected model (k-connected interval, k-connected biconvex,
4k-connected convex bipartite) and checks them once, in its proof's form,
before returning; `extend_to_partition` then gives the leftover vertices to
set 0 to form a full CDS partition.
"""

from __future__ import annotations

from .flows import Path, make_induced, vertex_disjoint_paths
from .graphs import Graph, GraphError, VertexSet, first_non_dominating, is_connected_subset
from .models import BiconvexModel, ConvexModel, IntervalModel, interval_path_decomposition

CdsFamily = tuple[VertexSet, ...]


class BuilderError(GraphError):
    pass


class InsufficientConnectivity(BuilderError):
    """The model's connectivity is below k; `achieved` is an upper bound on it."""

    def __init__(self, wanted: int, achieved: int):
        super().__init__(
            "insufficient-connectivity", f"wanted {wanted}, achieved {achieved}"
        )
        self.wanted = wanted
        self.achieved = achieved


def validate_family(g: Graph, sets: CdsFamily) -> None:
    """Pairwise disjoint, each connected, each dominating; raises otherwise,
    naming the first failing set counted from 1."""
    bad = first_non_dominating(g, sets)
    seen: set[int] = set()
    for i, s in enumerate(sets):
        if not s:
            raise BuilderError("empty-set", f"set {i + 1}")
        if s & seen:
            raise BuilderError("not-disjoint", f"set {i + 1} overlaps an earlier one")
        seen |= s
        if not is_connected_subset(g, s):
            raise BuilderError("not-connected", f"set {i + 1}")
        if i == bad:
            raise BuilderError("not-dominating", f"set {i + 1}")


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
    _check_separators(seps, out)
    return out


def _check_separators(seps: list[VertexSet], sets: CdsFamily) -> None:
    """`cds_interval`'s certificate in O(sum |S_i|): the sets are disjoint
    and each meets every separator; raises otherwise, counting from 1."""
    owner: dict[int, int] = {}
    for i, s in enumerate(sets, 1):
        if any(owner.setdefault(v, i) != i for v in s):
            raise BuilderError("not-disjoint", f"set {i} overlaps an earlier one")
    for i, sep in enumerate(seps, 1):
        if missed := set(range(1, len(sets) + 1)).difference(map(owner.get, sep)):
            raise BuilderError("misses-separator", f"set {min(missed)} misses separator {i}")


def backbones(m: ConvexModel, k: int) -> tuple[Path, ...]:
    """k disjoint induced a_1..a_na paths of a convex (or biconvex) model's
    graph, endpoints kept (na = 1 gives (a_1,))."""
    if k < 1:
        raise BuilderError("bad-k", f"k={k}")
    g = m.graph
    a1, a_na = m.a_id(0), m.a_id(m.na - 1)
    paths = vertex_disjoint_paths(g, a1, a_na, want=k) if m.na > 1 else ((a1,),)
    if len(paths) < k:
        raise InsufficientConnectivity(k, len(paths))
    return tuple(make_induced(g, p) for p in paths)


def cds_biconvex(m: BiconvexModel, k: int) -> CdsFamily:
    """k disjoint CDSs of a k-connected biconvex graph.

    D1 = N(b_1) and Dn = N(b_nb) hold at least kappa >= k vertices, else
    `InsufficientConnectivity` gets the smaller size.  Each set starts as an
    induced backbone a_1..a_na less its ends: its B-windows chain over A, so
    an A-vertex added joins it, and it is a CDS once it meets D1 and Dn.  It
    holds at most one D1-vertex (of two, the one with the larger window, both
    starting at b_1, would see both path neighbours of the other), so (*) no
    more sets miss D1 than D1 has free vertices; likewise Dn.  Let X, Y, Z be
    the free vertices of D1 - Dn, Dn - D1, D1 & Dn (seen by every B-vertex),
    and c1, cn, a the counts of sets missing only D1, only Dn, both.  If
    c1 > |X| and cn > |Y|, p = min(c1 - |X|, cn - |Y|) sets missing only D1
    take the D1-vertex of sets missing only Dn, which then need Z to join
    again.  Lowest ids first, the rest missing D1 (Dn) take X (Y), else Z;
    those missing both take X and Y while both last, else Z.  Z then gives
    max(0, a + c1 - |X|, a + cn - |Y|) <= |Z| by (*): pairing leaves X and Y
    to one-sided sets, and the sets missing both pair until one runs out.
    """
    g = m.graph
    d1, dn = g.adj[m.b_id(0)], g.adj[m.b_id(m.nb - 1)]
    if min(len(d1), len(dn)) < k:
        raise InsufficientConnectivity(k, min(len(d1), len(dn)))
    sets = [set(p[1:-1]) for p in backbones(m, k)]
    free = set(range(m.na)).difference(*sets)
    xs, ys, zs = (sorted(f, reverse=True) for f in (free & d1 - dn, free & dn - d1, free & d1 & dn))
    miss1 = [s for s in sets if s & dn and not s & d1]
    missn = [s for s in sets if s & d1 and not s & dn]
    p = max(0, min(len(miss1) - len(xs), len(missn) - len(ys)))
    for s, hollow in zip(miss1[:p], missn[:p]):
        s.update(hollow & d1)
        hollow -= d1
        hollow.add(zs.pop())
    for s in miss1[p:]:
        s.add((xs or zs).pop())
    for s in missn[p:]:
        s.add((ys or zs).pop())
    for s in sets:
        if s.isdisjoint(d1 | dn):
            s.update((xs.pop(), ys.pop()) if xs and ys else (zs.pop(),))
    out = tuple(frozenset(s) for s in sets)
    validate_family(g, out)
    return out


def cds_convex(m: ConvexModel, k: int) -> CdsFamily:
    """k disjoint CDSs of a 4k-connected convex bipartite graph.

    Each induced backbone dominates A; the A-vertices on no backbone are
    dealt out alternatingly in A order, and each such share dominates B
    because any 4k consecutive A-vertices contain at most 3 vertices of
    each backbone.  The stripped endpoints a_1, a_na join the first set.

    Below 4k the deal may leave a B-vertex undominated.  If it does and
    some window holds fewer than 4k A-vertices, that B-vertex's degree
    bounds kappa below 4k, and `InsufficientConnectivity(4k, width)` is
    raised with the narrowest width; any other failure stands.
    """
    paths = backbones(m, k)
    sets = [set(p[1:-1]) for p in paths]
    for pos, a in enumerate(sorted(set(range(m.na)).difference(*paths))):
        sets[pos % k].add(a)
    sets[0].add(m.a_id(0))
    sets[0].add(m.a_id(m.na - 1))
    out = tuple(frozenset(s) for s in sets)
    try:
        validate_family(m.graph, out)
    except BuilderError as exc:
        width = min(hi - lo + 1 for lo, hi in m.windows)
        if exc.code == "not-dominating" and width < 4 * k:
            raise InsufficientConnectivity(4 * k, width) from None
        raise
    return out


def extend_to_partition(n: int, fam: CdsFamily) -> tuple[VertexSet, ...]:
    """A CDS partition of 0..n-1 from a builder's checked family: set 0
    dominates, so it is the lowest-index set each uncovered vertex touches,
    and it takes them all (a superset of a CDS is a CDS)."""
    return (frozenset(range(n)).difference(*fam[1:]), *fam[1:])
