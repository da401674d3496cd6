import tracemalloc

import pytest

from caprog import engine
from caprog.enumeration import gray_initials

# Per-criterion verdicts collected by test_acceptance.py; printed as one
# line each at the end of the run so the outcome survives output capture.
ACCEPTANCE: dict[int, tuple[bool, str]] = {}


def record_criterion(number: int, ok: bool, detail: str) -> None:
    ACCEPTANCE[number] = (ok, detail)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    if not ACCEPTANCE:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for number in sorted(ACCEPTANCE):
        ok, detail = ACCEPTANCE[number]
        verdict = "PASS" if ok else "FAIL"
        terminalreporter.write_line(f"[{verdict}] criterion {number}: {detail}")


@pytest.fixture(scope="session")
def default_family():
    """The measurement family used throughout: 40 Gray rows of width 61."""
    return gray_initials(40, 61)


def run_bytes(family, t: int, k: int = 2) -> int:
    """What one run to runtime ``t`` counts against the memory budget: its
    packed payload of every row, one slab and one step's temporaries."""
    size = family.cells[0].size
    cells = (t + 1) * size
    return (-(-cells // 8) if k == 2 else cells) + (engine.SLAB_ROWS + engine.STEP_BYTES) * size


def traced(measurement):
    """What ``measurement()`` returns, and the peak of its traced
    allocations in bytes."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        result = measurement()
        return result, tracemalloc.get_traced_memory()[1] - before
    finally:
        tracemalloc.stop()


class StepLog(list):
    """One entry per engine step: the number of runs that step stepped.
    ``cells`` counts the cells of every step, as one int, so that the log
    adds little to what tracemalloc sees of a long run."""

    cells = 0

    def clear(self) -> None:
        super().clear()
        self.cells = 0


@pytest.fixture
def step_calls(monkeypatch) -> StepLog:
    """The :class:`StepLog` of every engine step made while the test runs."""
    log = StepLog()
    step_cells = engine._step_cells

    def counting(cells, *args):
        log.append(len(cells))
        log.cells += cells.size
        return step_cells(cells, *args)

    monkeypatch.setattr(engine, "_step_cells", counting)
    return log
