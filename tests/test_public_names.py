"""The package holds no public name that only tests use.

A public top-level function, class or constant of `src/cdspart` must be
named somewhere in `src/` outside its own definition, in `README.md` or
in `bench/`; so must a public member (method, property or class
attribute) of a class there.  The package's `__init__` exports the README's API and the
error types, and no re-export there counts as a use.
"""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "cdspart"
ERROR_TYPES = {"EngineError", "GraphError", "BuilderError", "InsufficientConnectivity"}


def _modules():
    return {
        path.name: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        for path in sorted(SRC.glob("*.py"))
    }


def _defined(node):
    if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, ast.Assign):
        return [t.id for t in node.targets if isinstance(t, ast.Name)]
    if isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
        return [node.target.id]
    return []


def _named(node):
    for sub in ast.walk(node):
        if isinstance(sub, ast.Name):
            yield sub.id
        elif isinstance(sub, ast.Attribute):
            yield sub.attr
        elif isinstance(sub, ast.alias):
            yield sub.name


def _words(text):
    return set(re.findall(r"\w+", text))


def test_every_public_name_is_used_outside_the_tests():
    modules = _modules()
    used = set()
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            # a name inside its own definition, as in a recursive call, is no use
            used.update(set(_named(node)) - set(_defined(node)))
    used |= _words((ROOT / "README.md").read_text(encoding="utf-8"))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        used |= _words(path.read_text(encoding="utf-8"))
    unused = [
        f"{name}:{defined}"
        for name, tree in modules.items()
        for node in tree.body
        for defined in _defined(node)
        if not defined.startswith("_") and defined not in used
    ]
    assert len(modules) >= 9
    assert unused == []


def test_every_public_member_is_used_outside_the_tests():
    """A method that only tests call is a tests-only name too.  Members are
    matched by name alone, so one used elsewhere under the same name (an
    attribute of another class, say) passes."""
    modules = _modules()
    used = set()
    members = []
    for name, tree in modules.items():
        if name == "__init__.py":
            continue
        for node in tree.body:
            if not isinstance(node, ast.ClassDef):
                used.update(_named(node))
                continue
            for base in node.bases + node.decorator_list:
                used.update(_named(base))
            for item in node.body:
                defined = set(_defined(item))
                used.update(set(_named(item)) - defined)
                members += [f"{name}:{node.name}.{d}" for d in defined]
    used |= _words((ROOT / "README.md").read_text(encoding="utf-8"))
    for path in sorted((ROOT / "bench").rglob("*.py")):
        used |= _words(path.read_text(encoding="utf-8"))
    methods = [m for m in members if not m.rpartition(".")[2].startswith("_")]
    unused = [m for m in methods if m.rpartition(".")[2] not in used]
    assert len(methods) >= 20
    assert unused == []


def test_package_exports_the_readme_api_and_error_types():
    tree = _modules()["__init__.py"]
    exported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom)
        for alias in node.names
    }
    exported |= {name for node in tree.body for name in _defined(node)}
    readme = ROOT / "README.md"
    api = set(re.findall(r"^from cdspart import (.+)$", readme.read_text(encoding="utf-8"), re.M))
    documented = {name.strip() for line in api for name in line.split(",")}
    assert documented and documented <= exported
    assert exported == documented | ERROR_TYPES
