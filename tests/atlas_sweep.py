"""Every connected graph of networkx's graph atlas with n <= N, solved.

For each graph and each k for which `brute_cds` finds k disjoint CDSs,
the first family it finds is solved with every terminal k-subset and
every composition of n into k demands.  Every partition must pass
`verify_gl`, and no solve may raise `EngineError`.

Run as a script, `python tests/atlas_sweep.py N` (networkx needed), it
prints the graphs, solves, trims (solves whose inflated block was
trimmed), failures and one sha256 over all partitions in order, then the
gap table: per n and k = 2, 3, the k-connected graphs and how many of them
have k disjoint CDSs.  With `--every-family` it solves every family of k
disjoint CDSs, in the order `brute_cds`'s search meets them, not just the
first.  The tier-1 suite walks N = 6, first families only.
"""

import hashlib
import sys
from collections import Counter
from functools import reduce
from itertools import combinations
from operator import or_

import networkx as nx

from cdspart.engine import EngineError, GLInstance, PartitionState, solve
from cdspart.formats import write_partition
from cdspart.graphs import DominatingTree, Graph, vertex_connectivity
from cdspart.verify import _adj_masks, _bits, _connected_mask, brute_cds, verify_gl


def atlas_graphs(limit):
    """Every connected atlas graph with 1..limit vertices, in atlas order."""
    for h in nx.graph_atlas_g():
        if 1 <= h.number_of_nodes() <= limit and nx.is_connected(h):
            yield Graph([sorted(h.adj[v]) for v in range(h.number_of_nodes())])


def compositions(n, k):
    """Every k-tuple of positive integers summing to n, in lex order."""
    for cuts in combinations(range(1, n), k - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))


def cds_families(g, k):
    """Every family of k disjoint CDSs of g, in the order `brute_cds`'s
    search meets them; the first is `brute_cds(g, k)`."""
    adj = _adj_masks(g)
    full = (1 << g.n) - 1
    masks = []
    for m in range(1, 1 << g.n):
        if reduce(or_, (adj[v] for v in _bits(m)), m) == full and _connected_mask(adj, m):
            masks.append(m)
    masks.sort(key=lambda m: tuple(_bits(m)))

    def grow(start, used, chosen):
        if len(chosen) == k:
            yield tuple(frozenset(_bits(m)) for m in chosen)
            return
        for idx in range(start, len(masks)):
            if not masks[idx] & used:
                yield from grow(idx + 1, used | masks[idx], [*chosen, masks[idx]])

    return grow(0, 0, [])


def sweep(limit, every_family=False):
    """The counts of graphs, families, solves, trims and failures, the
    sha256 over every partition, and the list of (graph edges, terminals,
    demands, what) for every failure.  Each graph's first family at each k
    is solved, or with `every_family` each of its families."""
    counts = Counter()
    digest = hashlib.sha256()
    broken = []
    trim = PartitionState.trim

    def counted(self, i, target):
        counts["trims"] += 1
        trim(self, i, target)

    PartitionState.trim = counted
    try:
        for g in atlas_graphs(limit):
            counts["graphs"] += 1
            k = 1
            while k <= g.n and (first := brute_cds(g, k)) is not None:
                families = cds_families(g, k) if every_family else [first]
                for i, family in enumerate(families):
                    counts["families"] += 1
                    if i == 0 and family != first:
                        broken.append((g.adj, k, None, f"first family {family} is not {first}"))
                    trees = [DominatingTree(g, s) for s in family]
                    for terminals in combinations(range(g.n), k):
                        for demands in compositions(g.n, k):
                            counts["solves"] += 1
                            inst = GLInstance(g, terminals, demands)
                            try:
                                p = solve(inst, trees)
                            except EngineError as exc:
                                what, p = repr(exc), ()
                            else:
                                what = None if verify_gl(inst, p).ok else "verify_gl fails"
                            digest.update(write_partition(p).encode())
                            if what is not None:
                                counts["failures"] += 1
                                broken.append((g.adj, terminals, demands, what))
                k += 1
    finally:
        PartitionState.trim = trim
    return counts, digest.hexdigest(), broken


def gap_table(limit):
    """{(n, k): (k-connected graphs, those with k disjoint CDSs)} for
    n = 3..limit and k = 2, 3."""
    table = Counter()
    for g in atlas_graphs(limit):
        if g.n < 3:
            continue
        kappa = vertex_connectivity(g)
        for k in (2, 3):
            if kappa >= k:
                table[g.n, k, "connected"] += 1
                table[g.n, k, "cds"] += brute_cds(g, k) is not None
    return {
        (n, k): (table[n, k, "connected"], table[n, k, "cds"])
        for n in range(3, limit + 1)
        for k in (2, 3)
    }


if __name__ == "__main__":
    args = [a for a in sys.argv[1:] if a != "--every-family"]
    limit = int(args[0]) if args else 6
    counts, digest, broken = sweep(limit, every_family="--every-family" in sys.argv)
    print(
        f"n <= {limit}: {counts['graphs']} graphs, {counts['families']} families, "
        f"{counts['solves']} solves, {counts['trims']} trims, {counts['failures']} failures"
    )
    print(f"partitions sha256 {digest}")
    for (n, k), (connected, cds) in gap_table(limit).items():
        print(f"n={n} k={k}: {connected} k-connected, {cds} with k disjoint CDSs")
    for b in broken:
        print("BROKEN", *b)
    sys.exit(1 if broken else 0)
