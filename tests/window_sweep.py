"""Every convex bipartite model with na, nb <= N, walked through the builders.

A model is a multiset of B-windows over the ordered A side, its B-vertices
in window order; only connected models are kept, and those whose
A-neighbourhoods are also consecutive in that B order are biconvex too.
With kappa the model's vertex connectivity:

- biconvex: `cds_biconvex` succeeds at every k <= kappa and raises
  `InsufficientConnectivity` at kappa + 1;
- convex (every model): at every k <= kappa, `cds_convex` returns a family
  that `extend_to_partition` grows into a verified CDS partition, or raises
  a `BuilderError`, and it succeeds wherever 4k <= kappa.

Run as a script, `python tests/window_sweep.py N`, it prints each class's
models, calls and failures (biconvex: calls that break its rule; convex:
`BuilderError` raises) and every broken rule; the tier-1 suite walks N = 5.
"""

import sys
from collections import Counter
from itertools import combinations_with_replacement

from cdspart.builders import BuilderError, InsufficientConnectivity, cds_biconvex, cds_convex, extend_to_partition
from cdspart.graphs import GraphError, vertex_connectivity
from cdspart.models import BiconvexModel, ConvexModel
from cdspart.verify import verify_cds_partition


def models(limit):
    """(model, kappa, biconvex) for every connected model with na, nb <= limit."""
    for na in range(1, limit + 1):
        windows = [(lo, hi) for lo in range(na) for hi in range(lo, na)]
        for nb in range(1, limit + 1):
            for ws in combinations_with_replacement(windows, nb):
                m = ConvexModel(na, nb, ws)
                kappa = vertex_connectivity(m.graph)
                if kappa:
                    try:
                        m = BiconvexModel(na, nb, ws)
                    except GraphError:
                        pass
                    yield m, kappa, isinstance(m, BiconvexModel)


def outcome(build, m, k):
    """The family `build(m, k)` returns, or the exception it raises."""
    try:
        return build(m, k)
    except Exception as exc:
        return exc


def sweep(limit):
    """Per class, the counts of models, calls and failures, and the list of
    (class, windows, k, what) for every broken rule."""
    counts = {"biconvex": Counter(), "convex": Counter()}
    broken = []
    for m, kappa, biconvex in models(limit):
        if biconvex:
            counts["biconvex"]["models"] += 1
            for k in range(1, kappa + 2):
                counts["biconvex"]["calls"] += 1
                out = outcome(cds_biconvex, m, k)
                if not isinstance(out, tuple if k <= kappa else InsufficientConnectivity):
                    counts["biconvex"]["failures"] += 1
                    broken.append(("biconvex", m.windows, k, repr(out)))
        counts["convex"]["models"] += 1
        for k in range(1, kappa + 1):
            counts["convex"]["calls"] += 1
            out = outcome(cds_convex, m, k)
            if isinstance(out, BuilderError):
                counts["convex"]["failures"] += 1
                if 4 * k <= kappa:
                    broken.append(("convex", m.windows, k, repr(out)))
            elif isinstance(out, Exception):
                broken.append(("convex", m.windows, k, repr(out)))
            elif not verify_cds_partition(m.graph, extend_to_partition(m.graph, out)).ok:
                broken.append(("convex", m.windows, k, "partition fails verification"))
    return counts, broken


if __name__ == "__main__":
    counts, broken = sweep(int(sys.argv[1]) if len(sys.argv) > 1 else 5)
    for klass, c in counts.items():
        print(f"{klass}: {c['models']} models, {c['calls']} calls, {c['failures']} failures")
    for b in broken:
        print("BROKEN", *b)
    sys.exit(1 if broken else 0)
