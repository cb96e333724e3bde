"""Every connected graph of networkx's graph atlas with n <= N, solved.

For each graph and each k for which `brute_cds` finds k disjoint CDSs,
the first family it finds is solved with every terminal k-subset and
every composition of n into k demands.  Every partition must pass
`verify_gl`, and no solve may raise `EngineError`.

Run as a script, `python tests/atlas_sweep.py N` (networkx needed), it
prints the graphs, solves, trims (solves whose inflated block was
trimmed), failures and one sha256 over all partitions in order, then the
gap table: per n and k = 2, 3, the k-connected graphs and how many of them
have k disjoint CDSs.  The tier-1 suite walks N = 6.
"""

import hashlib
import sys
from collections import Counter
from itertools import combinations

import networkx as nx

from cdspart.engine import EngineError, GLInstance, PartitionState, solve
from cdspart.formats import write_partition
from cdspart.graphs import DominatingTree, Graph, vertex_connectivity
from cdspart.verify import brute_cds, verify_gl


def atlas_graphs(limit):
    """Every connected atlas graph with 1..limit vertices, in atlas order."""
    for h in nx.graph_atlas_g():
        if 1 <= h.number_of_nodes() <= limit and nx.is_connected(h):
            yield Graph([sorted(h.adj[v]) for v in range(h.number_of_nodes())])


def compositions(n, k):
    """Every k-tuple of positive integers summing to n, in lex order."""
    for cuts in combinations(range(1, n), k - 1):
        yield tuple(b - a for a, b in zip((0, *cuts), (*cuts, n)))


def sweep(limit):
    """The counts of graphs, solves, trims and failures, the sha256 over
    every partition, and the list of (graph edges, terminals, demands,
    what) for every failure."""
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
            while k <= g.n and (family := brute_cds(g, k)) is not None:
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
    limit = int(sys.argv[1]) if len(sys.argv) > 1 else 6
    counts, digest, broken = sweep(limit)
    print(
        f"n <= {limit}: {counts['graphs']} graphs, {counts['solves']} solves, "
        f"{counts['trims']} trims, {counts['failures']} failures"
    )
    print(f"partitions sha256 {digest}")
    for (n, k), (connected, cds) in gap_table(limit).items():
        print(f"n={n} k={k}: {connected} k-connected, {cds} with k disjoint CDSs")
    for b in broken:
        print("BROKEN", *b)
    sys.exit(1 if broken else 0)
