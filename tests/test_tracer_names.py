"""The benchmark's tracer times caprog by wrapping module attributes by
name, so every name it patches must exist; a refactor that renames one
would otherwise break ``perfbench/run.py --trace 1`` silently."""

import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def test_every_patched_name_resolves():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    table = tracer.patch_table()
    assert table
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in table
               if not callable(getattr(module, attr, None))]
    assert missing == []
