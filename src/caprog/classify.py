"""Behavioural classification on top of the transition coefficient.

A system whose coefficient sits inside a calibrated zero band is inert: it
cannot be steered by its input. Systems compute when the coefficient is
positive beyond the band. Two systems are behaviourally equivalent when
their coefficients agree exactly on an identical parameter grid, and
c-equivalent when they agree to within a stated tolerance.

The zero band is calibrated empirically: provably inert rules are pushed
through the identical measurement pipeline and the band is twice the worst
magnitude they produce, with a tiny floor so the band is never empty.
"""
from __future__ import annotations

import math
import os
from dataclasses import dataclass
from functools import cached_property

from .coefficient import CoefficientResult, measure_all
from .engine import LifeRule, rule_from_number
from .enumeration import InputFamily, gray_initials

# Measurement defaults: modest cyclic width so wrapped interaction is part
# of the measured dynamics, runtimes deep enough for slopes to settle.
DEFAULT_T = 200
DEFAULT_N = 40
DEFAULT_W = 61

# ECA rules that provably cannot react to input differences in the long
# run: 0 (clear), 255 (fill), 204 (identity), 51 (complement).
INERT_ECA = (0, 255, 204, 51)

# Outer-totalistic analogues used to calibrate the band for 2-D runs:
# nothing is ever born, and either nothing or everything survives.
INERT_LIFE = (
    LifeRule(born=frozenset(), survives=frozenset()),
    LifeRule(born=frozenset(), survives=frozenset(range(9))),
)

# The band must stay positive even if every calibration slope is exactly
# zero, otherwise the inert rules themselves could not be classified.
EPSILON_FLOOR = 1e-12


class IncomparableError(ValueError):
    """Two results were measured on different parameter grids."""


def calibrate_epsilon(
    systems,
    family: InputFamily,
    t_max: int,
    t_min: int | None = None,
    stride: int | None = None,
    include_input: bool = True,
) -> float:
    """Zero band: twice the worst |coefficient| among inert systems."""
    measured = measure_all(tuple(systems), family, t_max, t_min, stride, include_input)
    return zero_band(res for res, _ in measured)


def zero_band(inert) -> float:
    """Twice the worst |coefficient| among the ``inert`` results, floored."""
    worst = max((abs(res.c_value) for res in inert), default=0.0)
    return max(2.0 * worst, EPSILON_FLOOR)


def is_zero_computer(res: CoefficientResult, epsilon: float) -> bool:
    """True iff the coefficient sits inside the zero band."""
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    return abs(res.c_value) < epsilon


def computes(res: CoefficientResult, epsilon: float) -> bool:
    """True iff the coefficient is positive beyond the zero band.

    A strongly negative coefficient is not computing either: it means
    sensitivity decays with runtime.
    """
    if epsilon <= 0:
        raise ValueError("epsilon must be > 0")
    return res.c_value > epsilon


def _as_grid(x) -> tuple[CoefficientResult, ...]:
    if isinstance(x, CoefficientResult):
        return (x,)
    grid = tuple(x)
    if not grid:
        raise ValueError("an empty result grid cannot be compared")
    return grid


def _paired_grids(a, b) -> list[tuple[CoefficientResult, CoefficientResult]]:
    ga, gb = _as_grid(a), _as_grid(b)
    if len(ga) != len(gb):
        raise IncomparableError(
            f"grids have {len(ga)} and {len(gb)} points; results are not comparable"
        )
    # Pair by canonical grid order so callers may list points differently.
    ga = sorted(ga, key=lambda r: repr(r.params.grid_key()))
    gb = sorted(gb, key=lambda r: repr(r.params.grid_key()))
    for ra, rb in zip(ga, gb):
        if ra.params.grid_key() != rb.params.grid_key():
            raise IncomparableError(
                "results were measured on different parameter grids: "
                f"{ra.params.grid_key()} vs {rb.params.grid_key()}"
            )
    return list(zip(ga, gb))


def behaviourally_equivalent(a, b) -> bool:
    """Exact coefficient equality at every point of a shared grid.

    ``a`` and ``b`` are single results or same-shaped collections of
    results; mismatched grids raise IncomparableError rather than
    returning a silent False.
    """
    return all(ra.c_value == rb.c_value for ra, rb in _paired_grids(a, b))


def c_equivalent(a, b, c: float) -> bool:
    """Coefficient agreement within tolerance ``c`` on a shared grid."""
    if not (c > 0 and math.isfinite(c)):
        raise ValueError("tolerance c must be > 0 and finite")
    return all(abs(ra.c_value - rb.c_value) < c for ra, rb in _paired_grids(a, b))


def kmeans_clusters(values, k: int = 4, max_iter: int = 100) -> tuple[int, ...]:
    """Deterministic 1-D k-means labels, aligned with the input order.

    Seeding is farthest-point starting from the minimum value, so the
    result depends only on the multiset of values: permuting the input
    permutes the labels identically. Labels are 1..k ascending by cluster
    centre.
    """
    vals = [float(v) for v in values]
    uniq = sorted(set(vals))
    if len(uniq) < k:
        raise ValueError(f"need at least k={k} distinct values, got {len(uniq)}")

    centres = [uniq[0]]
    while len(centres) < k:
        best, best_dist = None, -1.0
        for u in uniq:
            d = min(abs(u - c) for c in centres)
            if d > best_dist:
                best, best_dist = u, d
        centres.append(best)

    assign = [0] * len(vals)
    for _ in range(max_iter):
        new_assign = [
            min(range(k), key=lambda i: (abs(v - centres[i]), i)) for v in vals
        ]
        if new_assign == assign:
            break
        assign = new_assign
        for i in range(k):
            members = [v for v, a in zip(vals, assign) if a == i]
            if members:
                centres[i] = sum(members) / len(members)

    order = sorted(range(k), key=lambda i: centres[i])
    label_of = {cluster: rank + 1 for rank, cluster in enumerate(order)}
    return tuple(label_of[a] for a in assign)


@dataclass(frozen=True)
class SweepReport:
    """Coefficients of a whole rule family, with the ranking, clustering
    and zero band they determine."""

    entries: tuple[CoefficientResult, ...]

    def __post_init__(self):
        ids = [e.params.rule_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("sweep entries must cover each rule exactly once")

    @cached_property
    def ranking(self) -> tuple[str, ...]:
        """Rule ids by descending coefficient, ties in entry order."""
        entries = self.entries
        order = sorted(range(len(entries)), key=lambda i: (-entries[i].c_value, i))
        return tuple(entries[i].params.rule_id for i in order)

    @cached_property
    def clusters(self) -> dict[str, int]:
        """Rule id -> k-means label of its coefficient."""
        labels = kmeans_clusters(tuple(e.c_value for e in self.entries))
        return {e.params.rule_id: label for e, label in zip(self.entries, labels)}

    @cached_property
    def epsilon(self) -> float:
        """Zero band calibrated from the inert elementary rules' own entries."""
        return zero_band(self.entry(f"eca:{number}") for number in INERT_ECA)

    @cached_property
    def _by_rule(self) -> dict[str, tuple[CoefficientResult, int]]:
        """Rule id -> its entry and its rank."""
        ranks = {rule_id: rank for rank, rule_id in enumerate(self.ranking)}
        return {e.params.rule_id: (e, ranks[e.params.rule_id]) for e in self.entries}

    def entry(self, rule_id: str) -> CoefficientResult:
        return self._by_rule[rule_id][0]

    def c_value(self, rule_id: str) -> float:
        return self.entry(rule_id).c_value

    def rank(self, rule_id: str) -> int:
        """0-based rank; rank 0 has the largest coefficient."""
        return self._by_rule[rule_id][1]


def resolve_workers(workers: int | None) -> int:
    """``workers``, or by default the CPUs this process may run on."""
    if workers is None:
        if hasattr(os, "sched_getaffinity"):
            return len(os.sched_getaffinity(0))
        return os.cpu_count() or 1
    if workers < 1:
        raise ValueError("worker count must be >= 1")
    return workers


def sweep_eca(
    t_max: int = DEFAULT_T,
    n: int = DEFAULT_N,
    width: int = DEFAULT_W,
    t_min: int | None = None,
    stride: int | None = None,
    include_input: bool = True,
    workers: int | None = None,
) -> SweepReport:
    """Coefficient of every elementary rule on one shared input family.

    All 256 rules are measured in one batched pass, and the zero band is
    calibrated from the inert rules' own entries, so no extra runs are
    needed. Worker count never affects the report: workers only compress
    distinct runs, whose sizes are gathered in rule and member order.
    """
    workers = resolve_workers(workers)
    rules = [rule_from_number(number) for number in range(256)]
    measured = measure_all(
        rules, gray_initials(n, width), t_max, t_min, stride, include_input, workers
    )
    return SweepReport(entries=tuple(res for res, _ in measured))


def r30_grouping(report: SweepReport) -> dict:
    """How rule 30 groups with the inert rules, and which criterion held.

    Rule 30 either lands in the same cluster as rules 0 and 255, or its
    coefficient lies within twice the zero band, or both (or neither);
    the verdict records which.
    """
    c30 = report.c_value("eca:30")
    shares = (
        report.clusters["eca:30"] == report.clusters["eca:0"]
        and report.clusters["eca:30"] == report.clusters["eca:255"]
    )
    within = abs(c30) < 2.0 * report.epsilon
    if shares and within:
        held = "both"
    elif shares:
        held = "cluster"
    elif within:
        held = "zero-band"
    else:
        held = "neither"
    return {
        "shares_inert_cluster": shares,
        "within_2_epsilon": within,
        "held": held,
        "c_value": c30,
        "epsilon": report.epsilon,
    }
