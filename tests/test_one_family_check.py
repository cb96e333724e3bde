"""`builders.validate_family` is the one place the CDS family rules live:
`engine.validate_cds_input` checks only what is about trees and hands the
family to it, so `solve` and the builders name a bad set alike.  In src,
only `graphs.dominates` and `validate_family` call `first_non_dominating`."""

import ast
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cdspart"


def callers(name):
    """`module.function` for each src function whose body calls `name`."""
    paths = sorted(SRC.glob("*.py"))
    assert len(paths) >= 9
    found = set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for fn in ast.walk(tree):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)) and any(
                isinstance(node, ast.Call)
                and (getattr(node.func, "id", None) == name or getattr(node.func, "attr", None) == name)
                for node in ast.walk(fn)
            ):
                found.add(f"{path.stem}.{fn.name}")
    return found


def test_domination_of_a_family_is_checked_in_one_place():
    assert callers("first_non_dominating") == {"graphs.dominates", "builders.validate_family"}


def test_solve_hands_the_family_to_the_builders_check():
    from cdspart import builders, engine

    assert "first_non_dominating" not in vars(engine)
    assert engine.validate_family is builders.validate_family
    assert callers("validate_family") >= {"engine.validate_cds_input"}
