"""The package holds no public name that only tests use.

A public top-level function, class or constant of `src/cdspart` must be
named somewhere in `src/` outside its own definition, in `README.md` or
in `bench/`; so must a public member (method, property or class
attribute) of a class there.  The package's `__init__` exports the README's API and the
error types, and no re-export there counts as a use.  A defaulted parameter of
a src function or method is an option, and some src call site must set it.
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


# tests and the benchmark drive the CLI through `main(argv)`; the console
# script calls it bare
ENTRY_OPTIONS = {"cli.py:main.argv"}


def _options(fn, bound):
    """(name, position in a call) of each defaulted parameter of fn; a
    bound method's call passes no `self`, and a keyword-only one has no
    position."""
    pos = fn.args.posonlyargs + fn.args.args
    first = len(pos) - len(fn.args.defaults)
    out = [(a.arg, i - bound) for i, a in enumerate(pos) if i >= first]
    kwonly = zip(fn.args.kwonlyargs, fn.args.kw_defaults)
    return out + [(a.arg, None) for a, d in kwonly if d is not None]


def test_every_option_is_set_by_some_src_call():
    """Matched by the called name alone: `C(...)` sets the options of
    `C.__init__`, and `x.f(...)` those of any f, as in the member test."""
    options = []
    calls = []
    for name, tree in _modules().items():
        methods = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.ClassDef):
                for item in node.body:
                    if isinstance(item, ast.FunctionDef):
                        methods.add(item)
                        decorators = [getattr(d, "id", None) for d in item.decorator_list]
                        static = "staticmethod" in decorators
                        called = node.name if item.name == "__init__" else item.name
                        options += [
                            (f"{name}:{node.name}.{item.name}.{arg}", called, arg, i)
                            for arg, i in _options(item, 0 if static else 1)
                        ]
        for node in ast.walk(tree):
            if isinstance(node, ast.FunctionDef) and node not in methods:
                options += [
                    (f"{name}:{node.name}.{arg}", node.name, arg, i) for arg, i in _options(node, 0)
                ]
            elif isinstance(node, ast.Call):
                called = getattr(node.func, "id", None) or getattr(node.func, "attr", None)
                calls.append((called, node))

    def sets(call, arg, i):
        if any(kw.arg in (None, arg) for kw in call.keywords):
            return True
        starred = any(isinstance(a, ast.Starred) for a in call.args)
        return i is not None and (len(call.args) > i or starred)

    unset = [
        where
        for where, called, arg, i in options
        if not any(name == called and sets(call, arg, i) for name, call in calls)
    ]
    assert len(options) >= 10
    assert unset == sorted(ENTRY_OPTIONS)


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
