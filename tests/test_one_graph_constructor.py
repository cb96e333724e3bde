"""Every graph the package builds from adjacency lists goes through
`Graph.from_lists`, so only `graphs.py` may reach past it; and a graph
keeps one adjacency, its neighbour sets."""

import re
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdspart"


def test_only_graphs_py_names_new_or_fill():
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "graphs.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"__new__|\._fill\b", line)
    ]
    assert len(list(SRC.glob("*.py"))) >= 9
    assert "def from_lists" in (SRC / "graphs.py").read_text(encoding="utf-8")
    assert found == []


def test_graph_keeps_one_adjacency():
    """Neighbour sets are the only adjacency: walks that need ascending
    order sort what they walk, and no module asks for a sorted copy."""
    from cdspart.graphs import Graph

    assert Graph.__slots__ == ("n", "m", "_adjsets")
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\.neighbors\(|\b_adj\b", line)
    ]
    assert found == []
