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

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .complexity import pack_rows, packed_size, unpack_rows

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
        k, size = self.k, self.k ** (2 * self.r + 1)
        if k & (k - 1) == 0:
            # For k = 2**b, digit v is bits b*v .. b*v + b - 1 of the number.
            b = k.bit_length() - 1
            data = np.frombuffer(self.number.to_bytes(-(-size * b // 8), "little"), np.uint8)
            bits = np.unpackbits(data, bitorder="little")[: size * b].reshape(size, b)
            digits = np.packbits(bits, axis=1, bitorder="little").ravel()
            digits.setflags(write=False)
            return digits
        # One big-int division per digit would take quadratic time. Words
        # of c digits, k**c < 2**63, are split off by halving the number
        # (divmod by a power of k), and numpy splits the words into digits.
        c = 1
        while k ** (c + 1) < 1 << 63:
            c += 1
        words = np.zeros(-(-size // c), dtype=np.uint64)

        def split(value: int, first: int, count: int) -> None:
            # words[first : first + count] are the base-k**c digits of value.
            if count == 1:
                words[first] = value
            elif value:
                high, low = divmod(value, k ** (c * (count // 2)))
                split(low, first, count // 2)
                split(high, first + count // 2, count - count // 2)

        split(self.number, 0, words.size)
        powers = np.uint64(k) ** np.arange(c, dtype=np.uint64)
        digits = (words[:, None] // powers % np.uint64(k)).astype(np.uint8).ravel()[:size]
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
        arr = np.asarray(self.cells)
        if not 1 <= arr.ndim <= 2 or arr.size < 1:
            raise ValueError("a configuration is a non-empty 1-D row or 2-D grid of cells")
        # Checked before the cast to uint8, which would wrap or truncate.
        if arr.dtype.kind not in "biu":
            raise ValueError(f"cells must be integers, got dtype {arr.dtype}")
        if not np.can_cast(arr.dtype, np.uint8) and (arr.min() < 0 or arr.max() > 255):
            raise ValueError("cell values must lie in 0..255")
        arr = np.ascontiguousarray(arr, dtype=np.uint8)
        if self.boundary not in (CYCLIC, FIXED):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        arr.setflags(write=False)
        object.__setattr__(self, "cells", arr)


@dataclass(frozen=True, eq=False)
class EvolutionBatch:
    """Runs evolved together, held packed: ``packed[b]`` is the read-only
    uint8 array of ``pack_cells(rows[b].ravel(), k)`` (see
    :mod:`caprog.complexity`), and ``shape`` is one run's (t+1, *cells)."""

    packed: np.ndarray
    k: int
    shape: tuple[int, ...]

    @property
    def rows(self) -> np.ndarray:
        """The read-only uint8 space-time arrays, unpacked on each access:
        ``rows[b]`` is shaped like what :func:`evolve` returns."""
        rows = unpack_rows(self.packed, math.prod(self.shape), self.k)
        rows = rows.reshape(len(self.packed), *self.shape)
        rows.setflags(write=False)
        return rows


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
# output: the cyclic halo's copies of the cells, the table index, and the
# lookup's temporaries, which are the shifted masks (1 to 8 bytes) for a
# bitmask and an int64 gather index (8) for a gather. tracemalloc counts 5
# for ECA, 8 for binary r = 2, 9 for Life and 12 to 13 for k = 3 on
# batches of 40 Ki cells and more, and 6 to 23 on batches of 10 Ki cells,
# where a fixed cost per call still shows.
STEP_BYTES = 24

# Space-time rows that evolve_batch collects before packing them into the
# runs' payloads: a multiple of 8, so that every slab but the last packs
# to whole bytes at one bit per cell.
SLAB_ROWS = 16


def _lookup(tables: np.ndarray, k: int, ndim: int):
    """The map from a batch's table indices, shaped (B, *cells), to its
    next cells, built from the systems' stacked ``outputs`` tables once
    per batch, and again whenever runs leave it. A binary system with at
    most 64 table entries holds its table as the bits of one integer, bit
    v being ``outputs[v]``, and looks up by shift and mask; the others
    gather from their tables."""
    shape = (-1, *(1,) * (ndim - 1))
    entries = tables.shape[1]
    if k == 2 and entries <= 64:
        bits = tables.astype(np.uint64) << np.arange(entries, dtype=np.uint64)
        masks = bits.sum(axis=1, dtype=np.uint64).astype(np.min_scalar_type((1 << entries) - 1))
        masks = masks.reshape(shape)

        def bitmask(idx: np.ndarray) -> np.ndarray:
            bits = masks >> idx
            bits &= 1
            return bits.astype(np.uint8, copy=False)

        return bitmask
    # Entry b reads row b of the tables, flattened.
    flat = tables.ravel()
    offsets = np.arange(0, tables.size, entries).reshape(shape)
    return lambda idx: flat[idx + offsets]


def _step_cells(cells: np.ndarray, lookup, system: System, boundary: str) -> np.ndarray:
    """One synchronous update of a batch of rows (B, W) or grids (B, H, W).

    ``lookup`` is the batch's :func:`_lookup`; every entry's system is of
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
        idx = ext[..., :w].astype(np.min_scalar_type(system.outputs.size - 1))
        for d in range(1, 2 * r + 1):
            idx = idx * k + ext[..., d : d + w]
    return lookup(idx)


def check_batch(systems, cells, boundary: str) -> None:
    """Raise unless every one of ``systems``, all Life or all 1-D with one
    k and r, can act on every initial state stacked in ``cells`` under
    ``boundary``: Life on cyclic grids, a 1-D rule on rows, integer colours < k."""
    if not len(systems) or np.size(cells) == 0:
        raise ValueError("a batch needs >= 1 system and >= 1 non-empty initial state")
    for system in systems:
        if not isinstance(system, (RuleTable, LifeRule)):
            raise TypeError(f"unsupported system type {type(system).__name__}")
    # k and the table size fix r, so this is one kind, k and r.
    if len({(type(system), system.k, system.outputs.size) for system in systems}) > 1:
        raise ValueError("a batch runs systems of one kind, colour count and radius")
    if boundary not in (CYCLIC, FIXED):
        raise ValueError(f"unknown boundary {boundary!r}")
    first = systems[0]
    if isinstance(first, LifeRule):
        if np.ndim(cells) != 3 or boundary != CYCLIC:
            raise ValueError(f"{first.rule_id} acts on cyclic 2-D grids only")
    elif np.ndim(cells) != 2:
        raise ValueError(f"{first.rule_id} acts on 1-D rows only")
    if np.asarray(cells).dtype.kind not in "biu" or np.min(cells) < 0 or np.max(cells) >= first.k:
        raise ValueError(f"initial states must be integer colours in 0..{first.k - 1}")


def evolve_batch(systems, cells, boundary: str, t: int) -> EvolutionBatch:
    """Run ``systems[b]`` for ``t`` transitions from ``cells[b]``, for every
    b at once.

    ``cells`` stacks one initial row or grid per system, all under
    ``boundary`` (see :func:`check_batch`). The space-time rows go into
    the runs' packed payloads SLAB_ROWS at a time, so no run is ever held
    as a whole unpacked array. A run that repeats with period 1 or 2 stops
    stepping at the next slab boundary (it is retired): its remaining
    slabs are one packed slab of its last two states, copied. Stepping
    stops as soon as every run still stepping repeats, and the rest of
    their rows cycle the same way.
    """
    if t < 1:
        raise ValueError("an evolution must contain at least one transition (t >= 1)")
    if len(systems) != len(cells):
        raise ValueError("a batch pairs one system with each initial state")
    check_batch(systems, cells, boundary)
    current = np.ascontiguousarray(cells, dtype=np.uint8)
    runs, k, size = len(systems), systems[0].k, current[0].size
    tables = np.stack([system.outputs for system in systems])
    lookup = _lookup(tables, k, current.ndim)
    packed = np.empty((runs, packed_size((t + 1) * size, k)), dtype=np.uint8)
    slab_bytes = packed_size(SLAB_ROWS * size, k)
    # slab[j] holds the rows of run live[j], whose state is current[j].
    slab = np.empty((runs, SLAB_ROWS, *current.shape[1:]), dtype=np.uint8)
    live = np.arange(runs)

    def pack(ids: np.ndarray, first: int, count: int) -> None:
        # Rows first .. first + count - 1 of runs ids are slab[:len(ids), :count];
        # first is a multiple of SLAB_ROWS, so they start on a byte.
        start = packed_size(first * size, k)
        rows = slab[: len(ids), :count].reshape(len(ids), -1)
        packed[ids, start : start + packed_size(count * size, k)] = pack_rows(rows, k)

    def repeat(ids: np.ndarray, first: int) -> None:
        # slab[:len(ids)] is every slab of runs ids from row first on (a
        # multiple of SLAB_ROWS): it is packed once, and each whole slab
        # is written through a (runs, slabs, slab_bytes) view of packed.
        whole = max(0, (t + 1 - first) // SLAB_ROWS)
        if whole:
            start = packed_size(first * size, k)
            slabs = packed[:, start : start + whole * slab_bytes].reshape(runs, whole, slab_bytes)
            slabs[ids] = pack_rows(slab[: len(ids)].reshape(len(ids), 1, -1), k)
        if first + whole * SLAB_ROWS <= t:
            pack(ids, first + whole * SLAB_ROWS, t + 1 - first - whole * SLAB_ROWS)

    slab[:, 0] = current
    before = current
    for s in range(1, t + 1):
        if s % SLAB_ROWS == 0:
            pack(live, s - SLAB_ROWS, SLAB_ROWS)
            # A run back at its state of two steps before (older) repeats
            # from here: row s is before, row s + 1 current, and so on.
            # Not every run is, or the last step would have stopped.
            settled = (current == older).reshape(len(live), -1).all(axis=1)
            if settled.any():
                count = np.count_nonzero(settled)
                slab[:count, 0::2] = before[settled][:, None]
                slab[:count, 1::2] = current[settled][:, None]
                repeat(live[settled], s)
                live, before, current = live[~settled], before[~settled], current[~settled]
                lookup = _lookup(tables[live], k, current.ndim)
        older, before, current = before, current, _step_cells(current, lookup, systems[0],
                                                              boundary)
        slab[: len(live), s % SLAB_ROWS] = current
        # A step is a pure function of the state: once every run is back
        # at its state of two steps before (older), the rest of the run
        # cycles the last two. At the first step older is the initial
        # state, so the check finds a fixed point.
        if current.tobytes() == older.tobytes():
            break
    # Row s + d is current for even d and before for odd d (when the loop
    # ran to s = t, no such row is packed). Slabs start on even rows, so
    # every slab after the one holding row s holds the same two states.
    i, rows = s % SLAB_ROWS, slab[: len(live)]
    rows[:, i + 1 :: 2] = before[:, None]
    rows[:, i + 2 :: 2] = current[:, None]
    pack(live, s - i, min(SLAB_ROWS, t + 1 - s + i))
    rows[:, i % 2 : i : 2] = current[:, None]
    rows[:, 1 - i % 2 : i : 2] = before[:, None]
    repeat(live, s - i + SLAB_ROWS)
    packed.setflags(write=False)
    return EvolutionBatch(packed=packed, k=k, shape=(t + 1, *current.shape[1:]))


def evolve(system: System, init: Configuration, t: int) -> np.ndarray:
    """Run ``system`` for ``t`` transitions from ``init``.

    Returns the read-only uint8 space-time array: ``rows[s+1]`` is one
    update of ``rows[s]``, with shape (t+1, W) for a 1-D run and
    (t+1, H, W) for a 2-D one.
    """
    return evolve_batch([system], init.cells[None], init.boundary, t).rows[0]


def default_width(seed_width: int, r: int, t: int) -> int:
    """Width for which the light cone of a centred seed never wraps."""
    return seed_width + 2 * r * t
