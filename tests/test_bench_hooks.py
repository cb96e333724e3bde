"""The benchmark's tracer patches `cdspart` functions by name; every name
it lists must still resolve, or `bench/run.py --trace 1` breaks."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    from tracing import COUNTS, PACKAGE, SPANS, Tracer
finally:
    sys.path.remove(str(BENCH))


@pytest.mark.parametrize("module,attr", sorted({(m, a) for m, a, _ in SPANS + COUNTS}))
def test_traced_name_resolves(module, attr):
    obj = importlib.import_module(f"{PACKAGE}.{module}")
    *owner, name = attr.split(".")
    if owner:
        # the tracer reads `cls.__dict__[name]`: an inherited method, such
        # as `object.__init__`, would resolve here and still break it
        obj = getattr(obj, owner[0])
        assert name in vars(obj), f"{attr} is not defined on the class itself"
    assert callable(getattr(obj, name))


def test_checkpoint_tally_exists():
    from cdspart.engine import PartitionState

    assert isinstance(PartitionState.checkpoints_run, int)


@pytest.mark.parametrize("klass,sizes,k", [
    ("interval", ["--n", "30", "--k", "3"], 3),
    ("biconvex", ["--na", "30", "--nb", "34", "--k", "3"], 3),
    ("convex", ["--na", "10", "--nb", "24", "--k", "8"], 2),
])
def test_tracer_sees_each_class_generator_and_builder(tmp_path, klass, sizes, k):
    # the CLI reaches them through their modules, where the tracer's wrappers sit
    from cdspart.cli import main

    model = tmp_path / "m.txt"
    with Tracer() as tracer:
        assert main(["gen", "--class", klass, *sizes, "--seed", "2", "-o", str(model)]) == 0
        assert main(["cds", "--class", klass, "-k", str(k), str(model),
                     "-o", str(tmp_path / "m.cdsp")]) == 0
    assert tracer.returned(f"generators.gen_{klass}") == 1
    assert tracer.returned(f"builders.cds_{klass}") == 1
