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
    return Graph(n, sorted(edges))


def fixture_graph(name: str) -> Graph:
    """The graph of `fixtures/<name>`, parsed as the CLI reads it."""
    return parse_bundle((FIXTURES / name).read_text(encoding="utf-8")).graph
