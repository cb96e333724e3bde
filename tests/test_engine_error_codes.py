"""Every `EngineError` code in the engine is either an engine fault (CLI
exit 3) or a rejection of the input (exit 2), so no new code exits 2 by
default."""

import ast
from pathlib import Path

from cdspart.engine import FAULT_CODES

ENGINE = Path(__file__).resolve().parent.parent / "src" / "cdspart" / "engine.py"

# rejections of the caller's instance or trees, which keep exit 2
INPUT_CODES = {"invalid-instance", "invalid-cds-input", "too-few-trees"}


def raised_codes():
    tree = ast.parse(ENGINE.read_text(encoding="utf-8"), filename=str(ENGINE))
    calls = [
        node for node in ast.walk(tree)
        if isinstance(node, ast.Call)
        and isinstance(node.func, ast.Name) and node.func.id == "EngineError"
    ]
    for call in calls:
        first = call.args[0] if call.args else None
        assert isinstance(first, ast.Constant) and isinstance(first.value, str), (
            f"engine.py:{call.lineno}: EngineError code is not a string literal"
        )
    return {call.args[0].value for call in calls}


def test_every_code_is_a_fault_or_an_input_error():
    codes = raised_codes()
    assert not FAULT_CODES & INPUT_CODES
    assert codes - FAULT_CODES - INPUT_CODES == set()
    # both lists name only codes the engine raises
    assert codes == FAULT_CODES | INPUT_CODES
