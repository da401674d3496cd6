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

from dataclasses import dataclass
from functools import cached_property

import numpy as np

CYCLIC = "cyclic"
FIXED = "fixed"

# Guard against pathological (k, r) combinations: the lookup table has
# k**(2r+1) entries and must stay addressable.
_MAX_TABLE_SIZE = 1 << 20


@dataclass(frozen=True)
class RuleTable:
    """Total local update map of a 1-D CA, given by its canonical number.

    Digit ``v`` of ``number`` in base k is the successor colour for the
    neighbourhood whose base-k value is ``v`` (leftmost cell = most
    significant digit); valid numbers lie in ``0 .. k**(k**(2r+1)) - 1``.
    """

    k: int
    r: int
    number: int

    def __post_init__(self):
        if self.k < 2 or self.r < 1:
            raise ValueError(f"need k >= 2 and r >= 1, got k={self.k}, r={self.r}")
        size = self.k ** (2 * self.r + 1)
        if size > _MAX_TABLE_SIZE:
            raise ValueError(f"rule table with {size} entries is unsupported")
        limit = self.k ** size
        if not 0 <= self.number < limit:
            raise ValueError(f"rule number {self.number} outside valid interval [0, {limit})")

    @property
    def rule_id(self) -> str:
        if self.k == 2 and self.r == 1:
            return f"eca:{self.number}"
        return f"ca:k{self.k}:r{self.r}:{self.number}"

    @cached_property
    def outputs(self) -> np.ndarray:
        """Read-only lookup table: ``outputs[v]`` is digit ``v`` of ``number``."""
        digits = np.empty(self.k ** (2 * self.r + 1), dtype=np.uint8)
        v = self.number
        for i in range(digits.size):
            digits[i] = v % self.k
            v //= self.k
        digits.setflags(write=False)
        return digits


def rule_from_number(number: int, k: int = 2, r: int = 1) -> RuleTable:
    """The rule with canonical number ``number`` (see :class:`RuleTable`)."""
    return RuleTable(k=k, r=r, number=number)


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
    ``"fixed"`` (cells beyond the edges read as 0).
    """

    cells: np.ndarray
    boundary: str = CYCLIC

    def __post_init__(self):
        arr = np.ascontiguousarray(self.cells, dtype=np.uint8)
        if not 1 <= arr.ndim <= 2 or arr.size < 1:
            raise ValueError("a configuration is a non-empty 1-D row or 2-D grid of cells")
        if self.boundary not in (CYCLIC, FIXED):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)


@dataclass(frozen=True, eq=False)
class Evolution:
    """Space-time array of a run: ``rows[s+1]`` is one update of ``rows[s]``.

    ``rows`` has shape (t+1, W) for a 1-D run and (t+1, H, W) for a 2-D
    one; ``t`` counts transitions.
    """

    rows: np.ndarray
    k: int

    def __post_init__(self):
        arr = np.ascontiguousarray(self.rows, dtype=np.uint8)
        if arr.ndim not in (2, 3) or arr.shape[0] < 2 or arr.size == 0:
            raise ValueError("an evolution needs >= 2 rows or grids of equal positive size")
        if arr.max(initial=0) >= self.k:
            raise ValueError(f"cell values must lie in 0..{self.k - 1}")
        arr.setflags(write=False)
        object.__setattr__(self, "rows", arr)

    @property
    def width(self) -> int:
        return int(self.rows.shape[-1])


@dataclass(frozen=True, eq=False)
class EvolutionBatch:
    """Runs evolved together as one tensor: ``rows[b]`` is the space-time
    array of batch entry b, shaped like :attr:`Evolution.rows`."""

    rows: np.ndarray


def _wrap(cells: np.ndarray, r: int, axis: int) -> np.ndarray:
    """``cells`` extended by ``r`` cells at both ends of ``axis``, read
    cyclically (``r`` may exceed the axis length)."""
    size = cells.shape[axis]
    # q copies on each side of the middle one hold a halo of r <= q * size.
    q = -(-r // size)
    ext = np.concatenate([cells] * (2 * q + 1), axis=axis)
    index = [slice(None)] * ext.ndim
    index[axis] = slice(q * size - r, (q + 1) * size + r)
    return ext[tuple(index)]


# Bytes per cell that one _step_cells call holds besides its input and
# output: chiefly the int64 gather index (8), next to the cyclic halo's
# three copies of the cells and a uint8 temporary or two. tracemalloc
# counts 10 to 15 for either kind on batches of 40 Ki cells and more, and
# 22 to 27 on batches of 10 Ki cells, where a fixed cost of about 90 KiB
# per call still shows.
STEP_BYTES = 24


def _step_cells(cells: np.ndarray, tables: np.ndarray, system: System, boundary: str) -> np.ndarray:
    """One synchronous update of a batch of rows (B, W) or grids (B, H, W).

    ``tables`` holds the lookup table of each batch entry's system, all of
    ``system``'s kind and size.
    """
    if isinstance(system, LifeRule):
        # 3x3 box sums on the torus; the box counts the cell itself, so
        # 9 * cell + live neighbours = 8 * cell + box.
        ext = _wrap(cells, 1, -2)
        rows = ext[..., :-2, :] + ext[..., 1:-1, :] + ext[..., 2:, :]
        ext = _wrap(rows, 1, -1)
        idx = cells * 8 + ext[..., :-2] + ext[..., 1:-1] + ext[..., 2:]
    else:
        k, r, w = system.k, system.r, cells.shape[-1]
        if boundary == CYCLIC:
            ext = _wrap(cells, r, -1)
        else:
            ext = np.pad(cells, [(0, 0)] * (cells.ndim - 1) + [(r, r)])
        # Base-k neighbourhood values, leftmost cell most significant, in
        # the narrowest integer type that holds every table index.
        idx = ext[..., :w].astype(np.min_scalar_type(tables.shape[1] - 1))
        for d in range(1, 2 * r + 1):
            idx = idx * k + ext[..., d : d + w]
    # Entry b reads row b of the tables, flattened.
    offsets = np.arange(0, tables.size, tables.shape[1]).reshape(-1, *(1,) * (cells.ndim - 1))
    return tables.ravel()[idx + offsets]


def check_one_kind(systems) -> None:
    """Raise unless ``systems`` can run as one batch: all Life, or all
    1-D with one k and r."""
    for system in systems:
        if not isinstance(system, (RuleTable, LifeRule)):
            raise TypeError(f"unsupported system type {type(system).__name__}")
    # k and the table size fix r, so this is one kind, k and r.
    if len({(type(system), system.k, system.outputs.size) for system in systems}) > 1:
        raise ValueError("a batch runs systems of one kind, colour count and radius")


def _check(system: System, config: Configuration) -> None:
    """Raise unless ``system`` can act on ``config``."""
    if isinstance(system, LifeRule):
        if config.cells.ndim != 2 or config.boundary != CYCLIC:
            raise ValueError(f"{system.rule_id} acts on cyclic 2-D grids only")
    elif config.cells.ndim != 1:
        raise ValueError(f"{system.rule_id} acts on 1-D rows only")
    if config.cells.max(initial=0) >= system.k:
        raise ValueError(f"configuration uses colours >= k={system.k}")


def evolve_batch(systems, inits, t: int) -> EvolutionBatch:
    """Run ``systems[b]`` for ``t`` transitions from ``inits[b]``, for every
    b at once.

    The systems must be of one kind (see :func:`check_one_kind`) and the
    initial configurations of one shape and boundary. Stepping stops once
    every run of the batch repeats with period 1 or 2; the rest of the
    rows are copies.
    """
    if t < 1:
        raise ValueError("an evolution must contain at least one transition (t >= 1)")
    if len(systems) != len(inits) or not inits:
        raise ValueError("a batch pairs one system with each of >= 1 configurations")
    check_one_kind(systems)
    first, init = systems[0], inits[0]
    for system, config in zip(systems, inits):
        _check(system, config)
        if (config.cells.shape, config.boundary) != (init.cells.shape, init.boundary):
            raise ValueError("a batch runs configurations of one shape and boundary")
    tables = np.stack([system.outputs for system in systems])
    current = np.stack([config.cells for config in inits])
    rows = np.empty((len(inits), t + 1, *init.cells.shape), dtype=np.uint8)
    rows[:, 0] = current
    before = current
    for s in range(1, t + 1):
        older, before, current = before, current, _step_cells(current, tables, first, init.boundary)
        rows[:, s] = current
        # A step is a pure function of the state: once every run is back
        # at its state of two steps before (older), the remaining rows
        # repeat the last two. At the first step older is the initial
        # state, so the check finds a fixed point. The copies come from
        # the step's own arrays: a source in rows would overlap its
        # target, and numpy would buffer the whole target.
        if current.tobytes() == older.tobytes():
            rows[:, s + 1 :: 2] = before[:, None]
            rows[:, s + 2 :: 2] = current[:, None]
            break
    rows.setflags(write=False)
    return EvolutionBatch(rows=rows)


def evolve(system: System, init: Configuration, t: int) -> Evolution:
    """Run ``system`` for ``t`` transitions from ``init``; returns t+1 rows."""
    return Evolution(rows=evolve_batch([system], [init], t).rows[0], k=system.k)


def default_width(seed_width: int, r: int, t: int) -> int:
    """Width for which the light cone of a centred seed never wraps."""
    return seed_width + 2 * r * t
