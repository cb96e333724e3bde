"""Every graph the package builds from adjacency lists goes through
`Graph.from_lists`, so only `graphs.py` may reach past it."""

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
