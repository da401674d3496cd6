"""The package and its tests parse on the oldest Python that pyproject.toml
declares."""

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_sources_parse_at_the_declared_python_floor():
    text = (ROOT / "pyproject.toml").read_text(encoding="utf-8")
    floor = tuple(int(part) for part in
                  re.search(r'^requires-python = ">=(\d+)\.(\d+)"$', text, re.MULTILINE).groups())
    sources = sorted((ROOT / "src" / "caprog").glob("*.py"))
    tests = sorted((ROOT / "tests").glob("*.py"))
    assert sources and tests
    for path in [*sources, *tests]:
        # Refuses syntax newer than the floor, e.g. except* or PEP 695 generics.
        ast.parse(path.read_text(encoding="utf-8"), filename=str(path), feature_version=floor)
