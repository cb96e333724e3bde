"""The cyclic garbage collector is paused once per CLI command, by
`cli.main`, and nowhere else: library calls never touch it, a command
runs without a collection, and the collector's state is restored on every
exit."""

import gc
import re
from pathlib import Path

import pytest

from cdspart import cli, engine, formats
from cdspart.cli import main
from cdspart.graphs import GraphError

SRC = Path(__file__).resolve().parent.parent / "src" / "cdspart"


@pytest.fixture
def collector():
    """Yield a setter for the collector's state; the caller's state is put
    back afterwards."""
    was = gc.isenabled()
    yield lambda on: (gc.enable if on else gc.disable)()
    (gc.enable if was else gc.disable)()


def planted(tmp_path, n, k):
    gl = tmp_path / f"p{n}.gl"
    argv = ["gen", "--class", "planted", "--n", str(n), "--k", str(k), "--seed", "101"]
    assert main([*argv, "-o", str(gl)]) == 0
    return gl, gl.with_suffix(".cds")


def test_only_cli_py_names_the_collector():
    found = [
        f"{path.name}:{lineno}"
        for path in sorted(SRC.glob("*.py"))
        if path.name != "cli.py"
        for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), 1)
        if re.search(r"\bimport gc\b|\bgc\.", line)
    ]
    assert len(list(SRC.glob("*.py"))) >= 9
    assert "gc.disable()" in (SRC / "cli.py").read_text(encoding="utf-8")
    assert found == []


def test_no_collection_while_a_planted_command_runs(tmp_path, capsys, collector):
    """A planted n = 10^4, k = 8 bundle: `gen` builds its graph and trees,
    `partition` and `verify` parse it and build about 2n long-lived
    containers each, and the collector runs over none of them."""
    collector(True)
    gl = tmp_path / "p.gl"
    commands = [
        ["gen", "--class", "planted", "--n", "10000", "--k", "8", "--seed", "101",
         "--extra-edges", "2500", "-o", str(gl)],
        ["partition", str(gl), "--cds", str(gl.with_suffix(".cds")), "-o", str(tmp_path / "p.part")],
        ["verify", "--what", "gl", str(gl), str(tmp_path / "p.part")],
    ]
    starts = []

    def hook(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    for argv in commands:
        gc.collect()
        gc.callbacks.append(hook)
        try:
            code = main(argv)
        finally:
            gc.callbacks.remove(hook)
        assert code == 0 and starts == [], argv[0]
        assert gc.isenabled()
    assert capsys.readouterr().out.endswith("OK\n")


@pytest.mark.parametrize("enabled", [True, False])
@pytest.mark.parametrize(
    "outcome, code",
    [
        (0, 0),
        (1, 1),
        (formats.FormatError("syntax", "injected"), 2),
        (OSError("injected"), 2),
        (formats.FormatError("usage", "injected"), 2),
        (GraphError("bad-adjacency"), 2),
        (RuntimeError("injected"), RuntimeError),
    ],
)
def test_collector_state_is_restored(monkeypatch, collector, enabled, outcome, code):
    """Each exit of a handler: a return, a mapped error, an unexpected one."""
    seen = []

    def handler(args):
        seen.append(gc.isenabled())
        if isinstance(outcome, Exception):
            raise outcome
        return outcome

    monkeypatch.setitem(cli._HANDLERS, "connectivity", handler)
    collector(enabled)
    if isinstance(code, int):
        assert main(["connectivity", "x"]) == code
    else:
        with pytest.raises(code):
            main(["connectivity", "x"])
    assert (seen, gc.isenabled()) == ([False], enabled)


@pytest.mark.parametrize("enabled", [True, False])
def test_collector_state_is_restored_after_an_engine_fault(
    tmp_path, capsys, monkeypatch, collector, enabled
):
    gl, cds = planted(tmp_path, 40, 3)

    def faulty(*args, **kwargs):
        raise engine.EngineError("state-invariant", "injected")

    monkeypatch.setattr(engine, "solve", faulty)
    collector(enabled)
    assert main(["partition", str(gl), "--cds", str(cds), "-o", str(tmp_path / "x.part")]) == 3
    assert gc.isenabled() is enabled
    assert capsys.readouterr().out.endswith("ERROR state-invariant state-invariant: injected\n")


@pytest.mark.parametrize("enabled", [True, False])
def test_usage_error_leaves_the_collector_alone(collector, enabled):
    collector(enabled)
    assert main(["partition"]) == 2
    assert gc.isenabled() is enabled


def test_a_command_leaves_no_garbage_that_grows_with_n(tmp_path, collector):
    """With the collector off for a whole command, the cyclic garbage it
    leaves must not depend on the graph: a command that made cycles per
    vertex or per edge would turn the pause into a leak."""
    found = []
    for n in (200, 2000):
        gl, cds = planted(tmp_path, n, 4)
        collector(True)
        gc.collect()
        collector(False)
        assert main(["partition", str(gl), "--cds", str(cds), "-o", str(tmp_path / "x.part")]) == 0
        found.append(gc.collect())
    assert found[0] == found[1], found
