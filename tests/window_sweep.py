"""Every convex bipartite model with na, nb <= N and every interval model
of 2..N intervals with endpoints in 1..N, walked through the builders.

A convex model is a multiset of B-windows over the ordered A side, its
B-vertices in window order; those whose A-neighbourhoods are also
consecutive in that B order are biconvex too.  An interval model is a
multiset of intervals.  Only connected models are kept.  With kappa the
model's vertex connectivity, by flows:

- biconvex: `cds_biconvex` succeeds at every k <= kappa and raises
  `InsufficientConnectivity` at kappa + 1;
- convex (every model): at every k <= kappa, `cds_convex` returns a family
  that `extend_to_partition` grows into a verified CDS partition, or raises
  `InsufficientConnectivity` with kappa <= achieved < 4k, so it succeeds
  wherever 4k <= kappa;
- interval: with top = kappa, or n on a complete graph (n singletons), at
  every k <= top `cds_interval` returns a family that `extend_to_partition`
  grows into a verified CDS partition, and it raises
  `InsufficientConnectivity` at top + 1.

Every convex and biconvex model's derived graph must also equal the graph
of its window pairs, listed one at a time (`graph_of`); for a biconvex
model the convex model of the same windows is checked too.

Window order is one B-order of each model.  `order_sweep` walks every
other B-order that `BiconvexModel` accepts, under the biconvex rule above;
some models are biconvex only in such an order.

`union_sweep` runs every builder at every k <= kappa (top for interval)
and checks that `extend_to_partition` grows each family it returns as
the lowest-index scan of tests/reference_oracles.py does.

`flow_sweep` checks the flows on the same models against the frozen
per-pair oracle of tests/reference_flows.py: connectivity on every model,
`backbones` on every convex one.

Run as a script, `python tests/window_sweep.py N`, it prints each class's
models, calls and failures (biconvex and interval: calls that break the
rule; convex: `InsufficientConnectivity` raises), then the order sweep's
pairs and calls, the union sweep's families, the flow sweep's models and
backbone calls, and every broken rule; the tier-1 suite walks N = 5, and
N = 4 for the order, union and flow sweeps.  With `--table` it then prints the convex table of
README.md, which runs `brute_cds` on every model (about a minute at
N = 5).
"""

import sys
from collections import Counter
from itertools import chain, combinations_with_replacement, permutations, product, repeat

import reference_flows as ref
from reference_oracles import lowest_index_extension
from cdspart.builders import (
    InsufficientConnectivity,
    backbones,
    cds_biconvex,
    cds_convex,
    cds_interval,
    extend_to_partition,
)
from cdspart.flows import make_induced
from cdspart.graphs import GraphError, vertex_connectivity
from cdspart.models import BiconvexModel, ConvexModel, IntervalModel
from cdspart.verify import brute_cds, verify_cds_partition
from conftest import graph_of


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


def interval_models(limit):
    """(model, top) for every connected model of 2..limit intervals with
    endpoints in 1..limit; top is kappa, or n on a complete graph."""
    spans = [(a, b) for a in range(1, limit + 1) for b in range(a, limit + 1)]
    for n in range(2, limit + 1):
        for chosen in combinations_with_replacement(spans, n):
            m = IntervalModel(lefts=tuple(a for a, _ in chosen), rights=tuple(b for _, b in chosen))
            kappa = vertex_connectivity(m.graph)
            if kappa:
                yield m, n if 2 * m.graph.m == n * (n - 1) else kappa


def derived_as_pairs(m):
    """True iff m's derived graph is `graph_of` its window pairs."""
    pairs = [(a, m.b_id(j)) for j, (lo, hi) in enumerate(m.windows) for a in range(m.na) if lo <= a <= hi]
    want = graph_of(m.n, pairs)
    return (m.graph.n, m.graph.m, m.graph.adj) == (want.n, want.m, want.adj)


def verified(m, out):
    """True iff `out` is a family that grows into a verified CDS partition."""
    if not isinstance(out, tuple):
        return False
    return verify_cds_partition(m.graph, extend_to_partition(m.n, out)).ok


def outcome(build, m, k):
    """The family `build(m, k)` returns, or the exception it raises."""
    try:
        return build(m, k)
    except Exception as exc:
        return exc


def biconvex_faults(m, kappa):
    """(k, what) for each k <= kappa + 1 at which `cds_biconvex` breaks its
    rule: a family at every k <= kappa, `InsufficientConnectivity` at
    kappa + 1."""
    for k in range(1, kappa + 2):
        out = outcome(cds_biconvex, m, k)
        if not isinstance(out, tuple if k <= kappa else InsufficientConnectivity):
            yield k, repr(out)


def orders(limit):
    """(model, kappa) for every B-order of a model of `models(limit)`,
    other than its window order, that `BiconvexModel` accepts.  Some
    models are biconvex only in such an order, and `models` walks them as
    convex."""
    for m, kappa, _ in models(limit):
        for ws in sorted(set(permutations(m.windows)) - {m.windows}):
            try:
                yield BiconvexModel(m.na, m.nb, ws), kappa
            except GraphError:
                pass


def order_sweep(limit):
    """Counts of the (model, order) pairs of `orders(limit)` and of their
    `cds_biconvex` calls, and the list of (windows, k, what) for every call
    that breaks the biconvex rule of `biconvex_faults`."""
    counts, broken = Counter(), []
    for m, kappa in orders(limit):
        counts.update(pairs=1, calls=kappa + 1)
        broken += [(m.windows, k, what) for k, what in biconvex_faults(m, kappa)]
    return counts, broken


def sweep(limit):
    """Per class, the counts of models, calls, failures and checked derived
    graphs, and the list of (class, windows, k, what) for every broken rule."""
    counts = {"biconvex": Counter(), "convex": Counter(), "interval": Counter()}
    broken = []
    for m, kappa, biconvex in models(limit):
        for model in [m, ConvexModel(m.na, m.nb, m.windows)] if biconvex else [m]:
            klass = "biconvex" if isinstance(model, BiconvexModel) else "convex"
            counts[klass]["graphs"] += 1
            if not derived_as_pairs(model):
                broken.append((klass, m.windows, None, "derived graph differs from its window pairs"))
        if biconvex:
            counts["biconvex"].update(models=1, calls=kappa + 1)
            for k, what in biconvex_faults(m, kappa):
                counts["biconvex"]["failures"] += 1
                broken.append(("biconvex", m.windows, k, what))
        counts["convex"]["models"] += 1
        for k in range(1, kappa + 1):
            counts["convex"]["calls"] += 1
            out = outcome(cds_convex, m, k)
            if isinstance(out, InsufficientConnectivity) and kappa <= out.achieved < 4 * k:
                counts["convex"]["failures"] += 1
            elif isinstance(out, Exception):
                broken.append(("convex", m.windows, k, repr(out)))
            elif not verified(m, out):
                broken.append(("convex", m.windows, k, "partition fails verification"))
    for m, top in interval_models(limit):
        counts["interval"]["models"] += 1
        for k in range(1, top + 2):
            counts["interval"]["calls"] += 1
            out = outcome(cds_interval, m, k)
            if not (verified(m, out) if k <= top else isinstance(out, InsufficientConnectivity)):
                counts["interval"]["failures"] += 1
                broken.append(("interval", tuple(zip(m.lefts, m.rights)), k, repr(out)))
    return counts, broken


def union_sweep(limit):
    """Per builder, the count of families it returns at every k <= kappa
    on `models(limit)` (`cds_biconvex` on the biconvex ones, `cds_convex` on
    every one) and at every k <= top on `interval_models(limit)`, and the
    list of (builder, model, k) for every family whose `extend_to_partition`
    differs from its `lowest_index_extension`."""
    counts, broken = Counter(), []
    windowed = (
        ((cds_biconvex, cds_convex) if bic else (cds_convex,), m, kappa, m.windows)
        for m, kappa, bic in models(limit)
    )
    spans = (((cds_interval,), m, top, tuple(zip(m.lefts, m.rights))) for m, top in interval_models(limit))
    for builds, m, top, key in chain(windowed, spans):
        for build, k in product(builds, range(1, top + 1)):
            out = outcome(build, m, k)
            if isinstance(out, tuple):
                counts[build.__name__] += 1
                if extend_to_partition(m.n, out) != lowest_index_extension(m.graph, out):
                    broken.append((build.__name__, key, k))
    return counts, broken


def flow_sweep(limit):
    """Counts of models, connectivity checks and backbone calls against the
    frozen per-pair flows of tests/reference_flows.py, and the list of
    (class, model, k, what) for every mismatch.  Every model's
    `vertex_connectivity` must equal `ref.connectivity_capped(g, n - 1)`;
    on a convex model with na > 1, at every k <= kappa + 1, `backbones`
    must return `make_induced` of each `ref.disjoint_paths(g, a_1, a_na,
    k)` path, or raise `InsufficientConnectivity` with their count when
    there are fewer than k."""
    counts, broken = Counter(), []
    windowed = ((m, "biconvex" if bic else "convex", m.windows) for m, _, bic in models(limit))
    spans = ((m, "interval", tuple(zip(m.lefts, m.rights))) for m, _ in interval_models(limit))
    for m, klass, key in chain(windowed, spans):
        g = m.graph
        counts["models"] += 1
        kappa = vertex_connectivity(g)
        if kappa != ref.connectivity_capped(g, g.n - 1):
            broken.append((klass, key, None, f"connectivity {kappa} differs from the reference"))
        if klass == "interval" or m.na == 1:
            continue
        a1, a_na = m.a_id(0), m.a_id(m.na - 1)
        for k in range(1, kappa + 2):
            counts["backbones"] += 1
            paths = ref.disjoint_paths(g, a1, a_na, k)
            want = tuple(map(make_induced, repeat(g), paths)) if len(paths) == k else len(paths)
            try:
                out = backbones(m, k)
            except InsufficientConnectivity as exc:
                out = exc.achieved
            if out != want:
                broken.append((klass, key, k, f"backbones {out!r}, reference {want}"))
    return counts, broken


def convex_table(limit):
    """{(na, nb): Counter} over the convex models of that size: `models`,
    and summed over them the largest k at which `cds_convex` succeeds
    (`reached`), kappa // 4, kappa and the largest k with k disjoint CDSs
    (`optimum`, by `brute_cds`); `at_optimum` counts the models whose
    reached k is the optimum."""
    table = {}
    for m, kappa, _ in models(limit):
        built = (k for k in range(1, kappa + 1) if isinstance(outcome(cds_convex, m, k), tuple))
        reached = max(built, default=0)
        optimum = 0
        while brute_cds(m.graph, optimum + 1) is not None:
            optimum += 1
        table.setdefault((m.na, m.nb), Counter()).update(
            models=1, quarter=kappa // 4, reached=reached, kappa=kappa,
            optimum=optimum, at_optimum=int(reached == optimum),
        )
    return table


if __name__ == "__main__":
    limit = int(sys.argv[1]) if len(sys.argv) > 1 and sys.argv[1] != "--table" else 5
    counts, broken = sweep(limit)
    for klass, c in counts.items():
        print(f"{klass}: {c['models']} models, {c['calls']} calls, {c['failures']} failures")
    order_counts, order_broken = order_sweep(limit)
    print(f"orders: {order_counts['pairs']} (model, order) pairs, {order_counts['calls']} calls")
    broken += [("biconvex", *b) for b in order_broken]
    union_counts, union_broken = union_sweep(limit)
    print("union:", ", ".join(f"{union_counts[b]} {b} families" for b in sorted(union_counts)))
    broken += [("union", *b) for b in union_broken]
    flow_counts, flow_broken = flow_sweep(limit)
    print(f"flows: {flow_counts['models']} models, {flow_counts['backbones']} backbone calls")
    broken += flow_broken
    for b in broken:
        print("BROKEN", *b)
    if "--table" in sys.argv:
        columns = ("models", "quarter", "reached", "kappa", "optimum", "at_optimum")
        print("| na | nb | models | Σ ⌊κ/4⌋ | Σ reached | Σ κ | Σ optimum | reached = optimum |")
        print("|---|---|---|---|---|---|---|---|")
        for (na, nb), c in sorted(convex_table(limit).items()):
            print(f"| {na} | {nb} | " + " | ".join(str(c[key]) for key in columns) + " |")
    sys.exit(1 if broken else 0)
