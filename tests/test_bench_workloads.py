"""The benchmark builds its coeff_wide inputs through caprog's public
constructors by keyword, so a change to those constructors must keep
``perfbench/workloads.py`` working; this runs its set-up read-only."""

import importlib.util
import sys
from pathlib import Path

WORKLOADS = Path(__file__).resolve().parents[1] / "perfbench" / "workloads.py"


def test_coeff_wide_inputs_build(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_workloads", WORKLOADS)
    workloads = importlib.util.module_from_spec(spec)
    # Its dataclasses look their module up in sys.modules while being defined.
    monkeypatch.setitem(sys.modules, spec.name, workloads)
    spec.loader.exec_module(workloads)
    rule, family = workloads.WORKLOADS["coeff_wide"].prepare(0)
    assert rule.rule_id == "eca:110"
    assert family.n == 6
    assert family.cells.shape == (6, 4096)
