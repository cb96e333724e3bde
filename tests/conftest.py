from pathlib import Path

import hypothesis

from cdspart.formats import parse_bundle
from cdspart.generators import SplitMix64
from cdspart.graphs import Graph

FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"

hypothesis.settings.register_profile(
    "ci", deadline=None, derandomize=True, max_examples=60
)
hypothesis.settings.load_profile("ci")


def graph_of(n: int, edges) -> Graph:
    """The graph on 0..n-1 with these edges, each listed once: the tests'
    edge-list constructor, over `Graph`'s one constructor."""
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in edges:
        adj[u].append(v)
        adj[v].append(u)
    return Graph(adj)


def edges_of(g: Graph) -> list[tuple[int, int]]:
    """g's edges as (u, v) with u < v, ascending: the edge list `graph_of`
    reads."""
    return [(u, v) for u, nbrs in enumerate(g.adj) for v in sorted(nbrs) if u < v]


def random_graph(seed: int, n: int, m: int, *, connected: bool = False) -> Graph:
    """Seeded random simple graph; optionally joined into one component."""
    rng = SplitMix64(seed)
    edges: set[tuple[int, int]] = set()
    if connected:
        order = list(range(n))
        rng.shuffle(order)
        for a, b in zip(order, order[1:]):
            edges.add((min(a, b), max(a, b)))
    tries = 0
    while len(edges) < m and tries < 50 * m:
        u = rng.randint(0, n - 1)
        v = rng.randint(0, n - 1)
        tries += 1
        if u != v:
            edges.add((min(u, v), max(u, v)))
    return graph_of(n, sorted(edges))


def fixture_graph(name: str) -> Graph:
    """The graph of `fixtures/<name>`, parsed as the CLI reads it."""
    return parse_bundle((FIXTURES / name).read_text(encoding="utf-8")).graph
