"""Input-sensitivity measurement over increasing runtimes.

For a family of inputs i_0..i_{n-1} and a runtime t, the normalized
difference sum

    S(t) = sum_j |C(run(i_j, t)) - C(run(i_{j+1}, t))| / (t * (n - 1))

collects how much the compressed complexity of the run reacts to minimal
input changes, scaled by the run volume so different (t, n) settings stay
roughly comparable. Sampling S over a grid of runtimes and fitting a line
gives the transition coefficient: the fitted slope, i.e. the rate at which
sensitivity grows (or decays) with runtime.
"""
from __future__ import annotations

import hashlib
import itertools
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

# The engine is bound under the name run_system, and compressed_size and
# pack_cells, which nothing here calls, stay importable, only because the
# benchmark's tracer (perfbench/tracer.py) wraps these module attributes.
from .complexity import COMPRESSOR_ID, compressed_size, pack_cells, prefix_sizes
from .engine import System, check_batch, evolve_batch as run_system, run_chunks
from .enumeration import InputFamily


class DegenerateFitError(ValueError):
    """Raised when a line cannot be determined from the given points."""


@dataclass(frozen=True)
class RunParams:
    """Complete description of one coefficient run, for manifests and
    grid-compatibility checks."""

    rule_id: str
    t_max: int
    t_min: int
    stride: int
    n: int
    width: int
    boundary: str
    compressor_id: str
    scheme: str
    include_input: bool
    height: int | None = None  # None for 1-D systems

    def __post_init__(self):
        if not self.rule_id or not self.compressor_id or not self.scheme:
            raise ValueError("params must be complete")
        if min(self.t_max, self.t_min, self.stride, self.n, self.width) < 1:
            raise ValueError("params must be complete and positive")

    def grid(self) -> dict:
        """Every parameter but the rule: what two comparable results share."""
        params = asdict(self)
        del params["rule_id"]
        return params


@dataclass(frozen=True)
class VariabilityCurve:
    """Sampled (t', S(t')) points feeding the line fit."""

    points: tuple[tuple[int, float], ...]

    def __post_init__(self):
        if len(self.points) < 2:
            raise DegenerateFitError("a line fit needs at least two points")
        last = 0
        for t_prime, value in self.points:
            if t_prime <= last:
                raise ValueError("sample times must be strictly increasing")
            if value < 0:
                raise ValueError("difference sums are non-negative")
            last = t_prime


@dataclass(frozen=True)
class FitResult:
    slope: float
    intercept: float
    rmse: float
    point_count: int

    def __post_init__(self):
        if self.point_count < 2:
            raise ValueError("a line fit needs at least two points")
        if self.rmse < 0:
            raise ValueError("rmse is non-negative")


@dataclass(frozen=True)
class CoefficientResult:
    """The fitted slope plus everything needed to reproduce it: the grid
    it was measured on and the descriptor of its input family."""

    fit: FitResult
    params: RunParams
    family: str

    @property
    def c_value(self) -> float:
        """The transition coefficient: the fitted slope."""
        return self.fit.slope


def sample_times(t_min: int, t_max: int, stride: int) -> tuple[int, ...]:
    """Runtimes anchored at t_max, stepping down by stride to >= t_min."""
    if t_min < 1 or t_min >= t_max:
        raise ValueError(f"need 1 <= t_min < t_max, got t_min={t_min}, t_max={t_max}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    times = range(t_max, t_min - 1, -stride)
    if len(times) < 2:
        raise DegenerateFitError(f"t_min={t_min}, t_max={t_max} and stride={stride} sample "
                                 "one runtime; a line fit needs at least two points")
    return tuple(reversed(times))


def runtime_grid(
    family: InputFamily, t_max: int, t_min: int | None = None, stride: int | None = None
) -> tuple[int, int, tuple[int, ...]]:
    """(t_min, stride, sample times) of a measurement on ``family``, the
    defaults filled in. A family or grid the line fit cannot use raises
    here, before anything is evolved."""
    if family.n < 2:
        raise ValueError("difference sums need a family with n >= 2 members")
    if t_min is None:
        t_min = max(4, t_max // 8)
    if stride is None:
        # At least 16 sample points whenever the range allows it.
        stride = max(1, (t_max - t_min) // 15)
    return t_min, stride, sample_times(t_min, t_max, stride)


def resolve_workers(workers: int | None) -> int:
    """``workers``, or by default the CPUs this process may run on."""
    if workers is None:
        affinity = getattr(os, "sched_getaffinity", None)
        return len(affinity(0)) if affinity else os.cpu_count() or 1
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


def complexity_matrices(
    systems, family: InputFamily, times: tuple[int, ...], include_input: bool = True,
    workers: int | None = None,
) -> np.ndarray:
    """Compressed sizes in bits, an int64 array of shape (systems, n,
    len(times)): [s, j, i] is the size of ``systems[s]``'s run from member
    j over its rows 0 (1 without the input row) to ``times[i]``. Input that
    :func:`caprog.engine.check_batch` refuses, and times not increasing from
    1 or not past the first row measured, raise before anything evolves.

    The (member, system) runs are evolved in the chunks of
    :func:`caprog.engine.run_chunks`, one at a time and each into one packed
    array, and each run once to the largest runtime: shorter runtimes
    compress prefixes of the same run. In a chunk, a run that settles into
    period 1 or 2 stops stepping at that step while the others step on (see
    :func:`caprog.engine.evolve_batch`), so inert systems measured beside
    moving ones cost little. Without the input row, each chunk first takes
    one step and measures from there: the engine continues a run bit for
    bit. The memo covers one member, whose runs may span chunks: it maps a
    payload's digest to the member's first run with that payload. With the
    input row, runs of distinct members never coincide, since their first
    rows are the members' cells. Each distinct run's payload, taken at the
    largest runtime, which determines every prefix, goes once to
    :func:`caprog.complexity.prefix_sizes`; the sizes go straight into the
    run's row, and a repeated run copies that row. The calling thread
    compresses a chunk's settled runs and shares those that stepped to the
    largest runtime with up to ``workers`` - 1 helper threads (default: one
    per CPU), whose errors it raises; the sizes do not depend on them.
    """
    workers = resolve_workers(workers)
    check_batch(systems, family.cells, family.boundary)
    start = 0 if include_input else 1
    if len(times) < 1 or times[0] < 1 or times[-1] <= start or list(times) != sorted(set(times)):
        raise ValueError(f"need strictly increasing times >= 1, the last > {start}: {times}")
    k = systems[0].k
    size = family.cells[0].size
    t_top = times[-1] - start
    counts = tuple((t + 1 - start) * size for t in times)
    total = family.n * len(systems)

    # Run i is systems[i % S] from member i // S.
    out = np.empty((total, len(times)), dtype=np.int64)
    first_run: dict[bytes, int] = {}
    errors = []

    def compress(runs) -> None:
        # Takes (run, payload) pairs until none is left. On an error it takes
        # the rest uncompressed, so that every thread sharing ``runs`` stops
        # after its current run, and the calling thread raises the error.
        try:
            for i, payload in runs:
                out[i] = prefix_sizes(payload, counts, k)
        except BaseException as err:  # noqa: BLE001 - raised by the calling thread
            errors.append(err)
            for _ in runs:
                pass

    for chunk in run_chunks(total, t_top, size, k):
        chunk_systems = [systems[i % len(systems)] for i in chunk]
        states = family.cells[[i // len(systems) for i in chunk]]
        if not include_input:
            states = run_system(chunk_systems, states, family.boundary, 1).rows[:, 1]
        batch = run_system(chunk_systems, states, family.boundary, t_top)
        # Helpers take only runs that stepped to t: a settled run is a cycle
        # from an early row on, and its stream spends its time holding the GIL.
        settled, moving, repeats = [], [], []
        for i, payload, step in zip(chunk, map(memoryview, batch.packed), batch.steps):
            if i % len(systems) == 0:
                first_run.clear()
            first = first_run.setdefault(hashlib.sha256(payload).digest(), i)
            if first != i:
                repeats.append((i, first))
            else:
                (moving if step == t_top else settled).append((i, payload))
        threads = min(workers - 1, len(moving))
        moving = iter(moving)
        helpers = [threading.Thread(target=compress, args=(moving,)) for _ in range(threads)]
        for helper in helpers:
            helper.start()
        compress(itertools.chain(settled, moving))
        for helper in helpers:
            helper.join()
        if errors:
            raise errors[0]
        for i, first in repeats:
            out[i] = out[first]
        # The next chunk evolves with no payload of this one alive.
        del batch, states, payload, settled, moving, helpers
    return out.reshape(family.n, len(systems), len(times)).transpose(1, 0, 2)


def fit_line(curve: VariabilityCurve) -> FitResult:
    """Ordinary least squares line over (t', S).

    Plain sequential arithmetic, so an independent reimplementation of the
    textbook formulas reproduces the result bit-exactly. Each sum runs left
    to right from the int 0 in an explicit loop: builtin ``sum()`` of
    floats is compensated from Python 3.12 on, and would change the bits
    of a fit with the interpreter.
    """
    points = curve.points
    m = len(points)
    sum_x = sum_y = 0
    for x, y in points:
        sum_x += x
        sum_y += y
    mean_x, mean_y = sum_x / m, sum_y / m
    sxx = sxy = 0
    for x, y in points:
        sxx += (x - mean_x) ** 2
        sxy += (x - mean_x) * (y - mean_y)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    sq_err = 0
    for x, y in points:
        sq_err += (y - (intercept + slope * x)) ** 2
    return FitResult(
        slope=slope,
        intercept=intercept,
        rmse=math.sqrt(sq_err / m),
        point_count=m,
    )


def measure_all(
    systems,
    family: InputFamily,
    t_max: int,
    t_min: int | None = None,
    stride: int | None = None,
    include_input: bool = True,
    workers: int | None = None,
) -> list[tuple[CoefficientResult, VariabilityCurve]]:
    """:func:`measure` for each of ``systems`` on one shared family: a line
    fitted to each system's gap sums in one :func:`complexity_matrices` pass."""
    t_min, stride, times = runtime_grid(family, t_max, t_min, stride)
    matrices = complexity_matrices(systems, family, times, include_input, workers)
    # Pair terms run over consecutive members j and j+1, so there are n-1
    # of them; the divisor matches.
    gaps = np.abs(np.diff(matrices, axis=1)).sum(axis=1)
    measured = []
    for system, totals in zip(systems, gaps):
        curve = VariabilityCurve(
            points=tuple((t, int(total) / (t * (family.n - 1))) for t, total in zip(times, totals))
        )
        params = RunParams(
            rule_id=system.rule_id,
            t_max=t_max,
            t_min=t_min,
            stride=stride,
            n=family.n,
            width=family.width,
            height=family.height,
            boundary=family.boundary,
            compressor_id=COMPRESSOR_ID,
            scheme=family.scheme,
            include_input=include_input,
        )
        res = CoefficientResult(fit=fit_line(curve), params=params, family=family.descriptor)
        measured.append((res, curve))
    return measured


def measure(
    system: System,
    family: InputFamily,
    t_max: int,
    t_min: int | None = None,
    stride: int | None = None,
    include_input: bool = True,
    workers: int | None = None,
) -> tuple[CoefficientResult, VariabilityCurve]:
    """Variability curve plus its fitted coefficient, with full parameters."""
    return measure_all([system], family, t_max, t_min, stride, include_input, workers)[0]
