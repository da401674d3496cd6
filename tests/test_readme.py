"""The python examples of README.md run as written."""

import re
from pathlib import Path

README = Path(__file__).resolve().parent.parent / "README.md"


def test_readme_examples_run(capsys):
    blocks = re.findall(r"^```python\n(.*?)^```", README.read_text(encoding="utf-8"),
                        re.MULTILINE | re.DOTALL)
    assert len(blocks) >= 2
    shapes = []
    for index, block in enumerate(blocks):
        namespace = {}  # each example stands alone
        exec(compile(block, f"README.md python example {index + 1}", "exec"), namespace)
        if "grids" in namespace:
            shapes.append((namespace["family"].cells.shape, namespace["grids"].shape))
    # The Life example's comments state the shapes of its family and run.
    assert shapes == [((512, 32, 32), (101, 32, 32))]
