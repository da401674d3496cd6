"""Deterministic cellular-automaton engine.

One engine path serves two kinds of system: 1-D CA with arbitrary colour
count k and radius r (the k=2, r=1 case is the classic elementary family
numbered 0..255) acting on rows, and 2-D outer-totalistic rules whose
default is Conway's Game of Life acting on cyclic grids. Both step by one
table lookup per cell.

All values are immutable after construction; every operation is a pure
function of its inputs, so results can be shared freely between workers.
"""
from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property

import numpy as np

CYCLIC = "cyclic"
FIXED = "fixed"

# Guard against pathological (k, r) combinations: the lookup table has
# k**(2r+1) entries and must stay addressable.
_MAX_TABLE_SIZE = 1 << 20


def _as_cells(values, name: str = "cells") -> np.ndarray:
    arr = np.ascontiguousarray(values, dtype=np.uint8)
    if arr.ndim == 0:
        raise ValueError(f"{name} must be a sequence of cell values")
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class RuleTable:
    """Total local update map of a 1-D CA.

    ``outputs[v]`` is the successor colour for the neighbourhood whose
    base-k value is ``v`` (leftmost cell = most significant digit).
    ``number`` is the canonical integer encoding: digit ``v`` of ``number``
    in base k is ``outputs[v]``.
    """

    k: int
    r: int
    outputs: np.ndarray
    number: int

    def __post_init__(self):
        if self.k < 2:
            raise ValueError(f"colour count k must be >= 2, got {self.k}")
        if self.r < 1:
            raise ValueError(f"radius r must be >= 1, got {self.r}")
        size = self.k ** (2 * self.r + 1)
        if size > _MAX_TABLE_SIZE:
            raise ValueError(f"rule table with {size} entries is unsupported")
        out = _as_cells(self.outputs, "outputs")
        if out.shape != (size,):
            raise ValueError(f"outputs must have exactly {size} entries")
        if out.max(initial=0) >= self.k:
            raise ValueError(f"rule outputs must lie in 0..{self.k - 1}")
        object.__setattr__(self, "outputs", out)

    @property
    def rule_id(self) -> str:
        if self.k == 2 and self.r == 1:
            return f"eca:{self.number}"
        return f"ca:k{self.k}:r{self.r}:{self.number}"


def rule_from_number(number: int, k: int = 2, r: int = 1) -> RuleTable:
    """Decode a canonical rule number into a :class:`RuleTable`.

    Valid numbers lie in ``0 .. k**(k**(2r+1)) - 1``; digit ``v`` of the
    number in base k is the output for the neighbourhood with base-k
    value ``v``.
    """
    if k < 2 or r < 1:
        raise ValueError(f"need k >= 2 and r >= 1, got k={k}, r={r}")
    size = k ** (2 * r + 1)
    if size > _MAX_TABLE_SIZE:
        raise ValueError(f"rule table with {size} entries is unsupported")
    limit = k ** size
    if not 0 <= number < limit:
        raise ValueError(f"rule number {number} outside valid interval [0, {limit})")
    digits = np.empty(size, dtype=np.uint8)
    v = number
    for i in range(size):
        digits[i] = v % k
        v //= k
    return RuleTable(k=k, r=r, outputs=digits, number=number)


def rule_to_number(rule: RuleTable) -> int:
    """Inverse of :func:`rule_from_number` (bit-exact round trip)."""
    total = 0
    for value in range(len(rule.outputs) - 1, -1, -1):
        total = total * rule.k + int(rule.outputs[value])
    return total


def conjugate_rule(rule: RuleTable) -> RuleTable:
    """Colour-complement conjugate of a two-colour rule.

    The conjugate maps a neighbourhood to the complement of what the
    original rule maps the complemented neighbourhood to, so evolving it
    on a complemented input reproduces the complemented evolution.
    """
    if rule.k != 2:
        raise ValueError("conjugation is defined here for k=2 rules only")
    # index size-1-v is the complemented neighbourhood
    conjugate = RuleTable(k=2, r=rule.r, outputs=1 - rule.outputs[::-1], number=0)
    return replace(conjugate, number=rule_to_number(conjugate))


@dataclass(frozen=True)
class LifeRule:
    """Outer-totalistic birth/survival rule over live-neighbour counts 0..8,
    acting on binary grids (Moore neighbourhood, cyclic boundary)."""

    born: frozenset[int]
    survives: frozenset[int]

    k = 2  # cells are binary; a class constant, not a field

    def __post_init__(self):
        for counts in (self.born, self.survives):
            if any(c < 0 or c > 8 for c in counts):
                raise ValueError("neighbour counts must lie in 0..8")

    @property
    def rule_id(self) -> str:
        b = "".join(str(c) for c in sorted(self.born))
        s = "".join(str(c) for c in sorted(self.survives))
        return f"life:B{b}/S{s}"

    @cached_property
    def outputs(self) -> np.ndarray:
        """Successor colour indexed by ``9 * cell + live neighbours``."""
        table = np.zeros(18, dtype=np.uint8)
        table[sorted(self.born)] = 1
        table[sorted(9 + c for c in self.survives)] = 1
        return table


GAME_OF_LIFE = LifeRule(born=frozenset({3}), survives=frozenset({2, 3}))

System = RuleTable | LifeRule


@dataclass(frozen=True, eq=False)
class Configuration:
    """A 1-D row or a 2-D grid of cells plus its boundary convention.

    ``boundary`` is ``"cyclic"`` (the default: indices wrap) or
    ``"fixed"`` (cells beyond the edges read as ``background``).
    """

    cells: np.ndarray
    boundary: str = CYCLIC
    background: int = 0

    def __post_init__(self):
        arr = _as_cells(self.cells)
        if arr.ndim > 2 or arr.size < 1:
            raise ValueError("a configuration is a non-empty 1-D row or 2-D grid of cells")
        if self.boundary not in (CYCLIC, FIXED):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        if self.background < 0:
            raise ValueError("background colour must be >= 0")
        object.__setattr__(self, "cells", arr)

    @property
    def width(self) -> int:
        return int(self.cells.shape[-1])


@dataclass(frozen=True, eq=False)
class Evolution:
    """Space-time array of a run: ``rows[s+1]`` = step(``rows[s]``).

    ``rows`` has shape (t+1, W) for a 1-D run and (t+1, H, W) for a 2-D
    one; ``t`` counts transitions.
    """

    rows: np.ndarray
    rule_id: str
    k: int
    boundary: str = CYCLIC
    background: int = 0

    def __post_init__(self):
        arr = np.ascontiguousarray(self.rows, dtype=np.uint8)
        if arr.ndim not in (2, 3) or arr.shape[0] < 2 or arr.size == 0:
            raise ValueError("an evolution needs >= 2 rows or grids of equal positive size")
        if arr.max(initial=0) >= self.k:
            raise ValueError(f"cell values must lie in 0..{self.k - 1}")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def t(self) -> int:
        return int(self.rows.shape[0]) - 1

    @property
    def width(self) -> int:
        return int(self.rows.shape[-1])


def _step_cells(cells: np.ndarray, system: System, boundary: str, background: int) -> np.ndarray:
    if isinstance(system, LifeRule):
        # 3x3 box sums on the torus; the box counts the cell itself, so
        # 9 * cell + live neighbours = 8 * cell + box.
        rows = cells + np.roll(cells, 1, axis=0) + np.roll(cells, -1, axis=0)
        box = rows + np.roll(rows, 1, axis=1) + np.roll(rows, -1, axis=1)
        return system.outputs[cells * 8 + box]
    k, r = system.k, system.r
    if boundary == CYCLIC:
        idx = np.zeros(cells.size, dtype=np.int64)
        for s in range(-r, r + 1):
            idx = idx * k + np.roll(cells, -s)
    else:
        padded = np.concatenate(
            [np.full(r, background, dtype=np.uint8), cells, np.full(r, background, dtype=np.uint8)]
        )
        idx = np.zeros(cells.size, dtype=np.int64)
        for d in range(2 * r + 1):
            idx = idx * k + padded[d : d + cells.size]
    return system.outputs[idx]


def _check(system: System, config: Configuration) -> None:
    """Raise unless ``system`` can act on ``config``."""
    if isinstance(system, LifeRule):
        if config.cells.ndim != 2 or config.boundary != CYCLIC:
            raise ValueError(f"{system.rule_id} acts on cyclic 2-D grids only")
    elif isinstance(system, RuleTable):
        if config.cells.ndim != 1:
            raise ValueError(f"{system.rule_id} acts on 1-D rows only")
    else:
        raise TypeError(f"unsupported system type {type(system).__name__}")
    if config.cells.max(initial=0) >= system.k:
        raise ValueError(f"configuration uses colours >= k={system.k}")
    if config.boundary == FIXED and config.background >= system.k:
        raise ValueError(f"background colour {config.background} >= k={system.k}")


def step(config: Configuration, system: System) -> Configuration:
    """Apply one synchronous update of ``system`` to every cell."""
    _check(system, config)
    out = _step_cells(config.cells, system, config.boundary, config.background)
    return Configuration(cells=out, boundary=config.boundary, background=config.background)


def evolve(system: System, init: Configuration, t: int) -> Evolution:
    """Run ``system`` for ``t`` transitions from ``init``; returns t+1 rows."""
    if t < 1:
        raise ValueError("an evolution must contain at least one transition (t >= 1)")
    _check(system, init)
    rows = np.empty((t + 1, *init.cells.shape), dtype=np.uint8)
    rows[0] = init.cells
    current = init.cells
    for s in range(t):
        current = _step_cells(current, system, init.boundary, init.background)
        rows[s + 1] = current
    return Evolution(
        rows=rows,
        rule_id=system.rule_id,
        k=system.k,
        boundary=init.boundary,
        background=init.background,
    )


def replay_check(evo: Evolution, system: System) -> bool:
    """True iff every row of ``evo`` is the step image of the row above it."""
    for s in range(evo.t):
        expected = _step_cells(evo.rows[s], system, evo.boundary, evo.background)
        if not np.array_equal(expected, evo.rows[s + 1]):
            return False
    return True


def default_width(seed_width: int, r: int, t: int) -> int:
    """Width for which the light cone of a centred seed never wraps."""
    return seed_width + 2 * r * t
