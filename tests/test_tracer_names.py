"""The benchmark's tracer times caprog by wrapping module attributes by
name, so every name it patches must exist; a refactor that renames one
would otherwise break ``perfbench/run.py --trace 1`` silently."""

import importlib.util
from pathlib import Path

import pytest

from caprog import cli, coefficient
from caprog.engine import rule_from_number
from caprog.enumeration import gray_initials

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    return tracer


def test_every_patched_name_resolves():
    table = load_tracer().patch_table()
    assert table
    missing = [f"{module.__name__}.{attr}" for module, attr, _, _ in table
               if not callable(getattr(module, attr, None))]
    assert missing == []


def test_tracer_times_the_batched_engine():
    # The tracer counts the cells of whatever the engine name returns, and
    # times the fit only while measure_all looks fit_line up in coefficient.
    n, t, width = 5, 30, 17
    with load_tracer().Tracer() as traced:
        coefficient.measure(rule_from_number(110), gray_initials(n, width), t)
    metrics = traced.metrics(wall_s=1.0)
    assert metrics["engine.cells"] == 1 * n * (t + 1) * width
    assert metrics["engine.evolve_s"] > 0
    assert metrics["coefficient.fit_s"] > 0


@pytest.mark.parametrize("argv", [
    ["coeff", "--model", "life", "--gray-inputs", "4", "--height", "8", "--width", "8",
     "--t", "6", "--no-calibrate"],
    ["sweep", "--t", "8", "--n", "3", "--width", "11", "--workers", "1"],
])
def test_tracer_sees_each_command_build_one_family(tmp_path, argv):
    # The family is built once, through a name the tracer wraps; a wrapper
    # that bypassed it would hide the enumeration layer from the benchmark.
    with load_tracer().Tracer() as traced:
        assert cli.main([*argv, "--out", str(tmp_path / "out")]) == 0
    assert traced.metrics(wall_s=1.0)["enumeration.family_calls"] == 1
