"""`Graph(adj)` is the one way to build a graph: every graph the package
builds comes from adjacency lists, and a bad `gl` edge is named by the
reader, not by a second constructor; a graph keeps one adjacency, its
neighbour sets, and is read as the record `n`, `m`, `adj`."""

import inspect
import re
from pathlib import Path

HERE = Path(__file__).resolve()
SRC = HERE.parent.parent / "src" / "cdspart"


def _src_lines():
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    for path in paths:
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1):
            yield f"{path.name}:{lineno}", line


def test_graph_init_is_the_one_constructor():
    from cdspart.graphs import Graph

    assert list(inspect.signature(Graph.__init__).parameters) == ["self", "adj"]
    found = [
        where
        for where, line in _src_lines()
        if re.search(r"\bfrom_lists\b|\b_fill\b|__new__|\b_first_fault\b|\b_graph_fault\b", line)
    ]
    assert found == []


def test_src_raises_no_assertion_error():
    """A fault path that cannot be reached is not kept as a raise."""
    assert [where for where, line in _src_lines() if re.search(r"raise AssertionError\b", line)] == []


def test_graph_keeps_one_adjacency():
    """Neighbour sets are the only adjacency: walks that need ascending
    order sort what they walk, and no module asks for a sorted copy."""
    from cdspart.graphs import Graph

    assert Graph.__slots__ == ("n", "m", "adj")
    found = [where for where, line in _src_lines() if re.search(r"\.neighbors\(|\b_adj\b", line)]
    assert found == []


def test_graph_is_a_record_of_n_m_and_adj():
    """Callers index `g.adj` themselves: `Graph` has no accessor methods,
    and neither src nor the tests ask for one."""
    from cdspart.graphs import Graph

    assert {name for name in vars(Graph) if not name.startswith("_")} == {"n", "m", "adj", "graph"}
    accessor = re.compile(
        r"\b(neighbor_set|has_edge|is_complete|_adjsets)\b|\.degree\(|\.edges\(\)"
    )
    paths = sorted(SRC.glob("*.py")) + sorted(HERE.parent.glob("*.py"))
    found = [
        f"{path.name}:{lineno}"
        for path in paths
        if path != HERE
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if accessor.search(line)
    ]
    assert len(paths) >= 20
    assert found == []
