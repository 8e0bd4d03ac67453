"""perfbench/tracer.py's patch table names functions this tree defines."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"
_spec = importlib.util.spec_from_file_location("tracer", TRACER)
tracer = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracer)


def test_every_traced_function_exists():
    # The tracer patches each entry with getattr and setattr, so a renamed
    # or deleted function would otherwise fail only a traced benchmark run.
    missing = [name for owner, attr, name in tracer.PATCHES
               if not callable(getattr(owner, attr, None))]
    assert missing == []
