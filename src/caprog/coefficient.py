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

import math
from dataclasses import dataclass

import numpy as np

from .complexity import COMPRESSOR_ID, compressed_size, pack_cells
# Bound under the name run_system because the benchmark's tracer
# (perfbench/tracer.py) times the engine by wrapping that module attribute.
from .engine import System, evolve as run_system
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

    def grid_key(self) -> tuple:
        """Everything that must match for two results to be comparable."""
        return (
            self.t_max,
            self.t_min,
            self.stride,
            self.n,
            self.width,
            self.height,
            self.boundary,
            self.compressor_id,
            self.scheme,
            self.include_input,
        )


@dataclass(frozen=True)
class VariabilityCurve:
    """Sampled (t', S(t')) points feeding the line fit."""

    points: tuple[tuple[int, float], ...]
    n: int
    family_descriptor: str
    rule_id: str

    def __post_init__(self):
        if len(self.points) < 1:
            raise ValueError("a curve needs at least one point")
        last = 0
        for t_prime, value in self.points:
            if t_prime <= last:
                raise ValueError("sample times must be strictly increasing")
            if value < 0:
                raise ValueError("difference sums are non-negative")
            last = t_prime

    @property
    def times(self) -> tuple[int, ...]:
        return tuple(p[0] for p in self.points)

    @property
    def values(self) -> tuple[float, ...]:
        return tuple(p[1] for p in self.points)


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
    """The fitted slope plus everything needed to reproduce it."""

    c_value: float
    fit: FitResult
    params: RunParams

    def __post_init__(self):
        if self.c_value != self.fit.slope:
            raise ValueError("c_value must equal the fitted slope exactly")


def sample_times(t_min: int, t_max: int, stride: int) -> tuple[int, ...]:
    """Runtimes anchored at t_max, stepping down by stride to >= t_min."""
    if t_min < 1 or t_min >= t_max:
        raise ValueError(f"need 1 <= t_min < t_max, got t_min={t_min}, t_max={t_max}")
    if stride < 1:
        raise ValueError("stride must be >= 1")
    times = []
    t = t_max
    while t >= t_min:
        times.append(t)
        t -= stride
    return tuple(reversed(times))


def default_t_min(t_max: int) -> int:
    return max(4, t_max // 8)


def default_stride(t_min: int, t_max: int) -> int:
    # At least 16 sample points whenever the range allows it.
    return max(1, (t_max - t_min) // 15)


def _complexity_matrix(
    system: System, family: InputFamily, times: tuple[int, ...], include_input: bool
) -> np.ndarray:
    """Compressed sizes in bits, shape (n, len(times)).

    Each member is evolved once to the largest runtime; shorter runtimes
    compress prefixes of the same run. This caching is semantically
    invisible: a from-scratch recomputation yields identical numbers.
    """
    t_top = times[-1]
    out = np.empty((family.n, len(times)), dtype=np.int64)
    for j, member in enumerate(family.members):
        evo = run_system(system, member, t_top)
        flat = evo.rows.reshape(evo.rows.shape[0], -1)
        start = 0 if include_input else 1
        for col, t_prime in enumerate(times):
            payload = pack_cells(flat[start : t_prime + 1].ravel(), evo.k)
            out[j, col] = compressed_size(payload)
    return out


def _gap_sums(matrix: np.ndarray, times: tuple[int, ...], n: int) -> list[float]:
    # Pair terms run over consecutive members j and j+1, so there are n-1
    # of them; the divisor matches.
    gaps = np.abs(np.diff(matrix, axis=0)).sum(axis=0)
    return [int(total) / (t_prime * (n - 1)) for total, t_prime in zip(gaps, times)]


def variability_curve(
    system: System,
    family: InputFamily,
    t_min: int,
    t_max: int,
    stride: int,
    include_input: bool = True,
) -> VariabilityCurve:
    """Difference sums over the sampled runtime grid."""
    if family.n < 2:
        raise ValueError("difference sums need a family with n >= 2 members")
    times = sample_times(t_min, t_max, stride)
    matrix = _complexity_matrix(system, family, times, include_input)
    sums = _gap_sums(matrix, times, family.n)
    return VariabilityCurve(
        points=tuple(zip(times, sums)),
        n=family.n,
        family_descriptor=family.descriptor,
        rule_id=system.rule_id,
    )


def fit_line(curve: VariabilityCurve) -> FitResult:
    """Ordinary least squares line over (t', S).

    Plain sequential arithmetic, so an independent reimplementation of the
    textbook formulas reproduces the result bit-exactly.
    """
    points = curve.points
    m = len(points)
    if m < 2:
        raise DegenerateFitError("a line fit needs at least two points")
    mean_x = sum(p[0] for p in points) / m
    mean_y = sum(p[1] for p in points) / m
    sxx = sum((p[0] - mean_x) ** 2 for p in points)
    if sxx == 0.0:
        raise DegenerateFitError("all sample times identical; slope undefined")
    sxy = sum((p[0] - mean_x) * (p[1] - mean_y) for p in points)
    slope = sxy / sxx
    intercept = mean_y - slope * mean_x
    sq_err = sum((p[1] - (intercept + slope * p[0])) ** 2 for p in points)
    return FitResult(
        slope=slope,
        intercept=intercept,
        rmse=math.sqrt(sq_err / m),
        point_count=m,
    )


def measure(
    system: System,
    family: InputFamily,
    t_max: int,
    t_min: int | None = None,
    stride: int | None = None,
    include_input: bool = True,
) -> tuple[CoefficientResult, VariabilityCurve]:
    """Variability curve plus its fitted coefficient, with full parameters."""
    if t_min is None:
        t_min = default_t_min(t_max)
    if stride is None:
        stride = default_stride(t_min, t_max)
    curve = variability_curve(system, family, t_min, t_max, stride, include_input)
    fit = fit_line(curve)
    params = RunParams(
        rule_id=system.rule_id,
        t_max=t_max,
        t_min=t_min,
        stride=stride,
        n=family.n,
        width=family.width,
        height=family.height,
        boundary=family.members[0].boundary,
        compressor_id=COMPRESSOR_ID,
        scheme=family.scheme,
        include_input=include_input,
    )
    return CoefficientResult(c_value=fit.slope, fit=fit, params=params), curve


def transition_coefficient(
    system: System,
    family: InputFamily,
    t_max: int,
    t_min: int | None = None,
    stride: int | None = None,
    include_input: bool = True,
) -> CoefficientResult:
    """Fitted slope of the variability curve over the default runtime grid."""
    return measure(system, family, t_max, t_min=t_min, stride=stride, include_input=include_input)[0]
