"""`python -O` strips `assert`, so no check in the package may be one."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdspart"


def test_package_has_no_assert_statements():
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted(SRC.glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path)))
        if isinstance(node, ast.Assert)
    ]
    assert len(list(SRC.glob("*.py"))) >= 9
    assert found == []
