"""The benchmark's tracer patches `cdspart` functions by name; every name
it lists must still resolve, or `bench/run.py --trace 1` breaks."""

import importlib
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))
try:
    from tracing import COUNTS, PACKAGE, SPANS
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
