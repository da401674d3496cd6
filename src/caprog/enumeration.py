"""Ordered families of initial configurations, whose cells are checked
once, when :class:`InputFamily` stacks them.

The reflected-binary (Gray) ordering makes consecutive inputs differ in
exactly one cell, which is what lets downstream difference sums read as
sensitivity to minimal perturbations. A seeded Bernoulli generator covers
figure-style runs from random inputs.
"""
from __future__ import annotations

import math
from dataclasses import InitVar, dataclass, field

import numpy as np

from .engine import CYCLIC, FIXED

GRAY = "gray"
RANDOM = "random"
CUSTOM = "custom"


def gray_code(j: int) -> int:
    """Reflected binary code of index j."""
    return j ^ (j >> 1)


@dataclass(frozen=True, eq=False)
class InputFamily:
    """Ordered, pairwise-distinct initial configurations of one shape, all
    run under ``boundary`` (cyclic by default; see :mod:`caprog.engine`).

    ``members``, an ``(n, *shape)`` array or a sequence of rows or grids, must
    be non-empty 1-D rows or 2-D grids of integers in 0..255, refused rather
    than cast. The family keeps only their read-only uint8 stack ``cells``.
    ``scheme`` records how it was built: ``"gray"`` members also differ from
    their neighbours in exactly one cell. ``descriptor`` names the family in a
    stored result, where it is checked against the stored params.
    """

    members: InitVar[object]
    scheme: str
    seed: int | None = None
    density: float | None = None
    boundary: str = CYCLIC
    cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self, members):
        if self.boundary not in (CYCLIC, FIXED):
            raise ValueError(f"unknown boundary {self.boundary!r}")
        rows = [np.asarray(m) for m in members]
        if len({row.shape for row in rows}) != 1:
            raise ValueError("a family needs members, all of one shape")
        cells = np.stack(rows)
        if not 2 <= cells.ndim <= 3 or cells.size < 1:
            raise ValueError("a configuration is a non-empty 1-D row or 2-D grid of cells")
        # Checked before the cast to uint8, which would wrap or truncate.
        if cells.dtype.kind not in "biu":
            raise ValueError(f"cells must be integers, got dtype {cells.dtype}")
        if not np.can_cast(cells.dtype, np.uint8) and (cells.min() < 0 or cells.max() > 255):
            raise ValueError("cell values must lie in 0..255")
        cells = cells.astype(np.uint8, copy=False)
        cells.setflags(write=False)
        flat = cells.reshape(len(cells), -1)
        if len({row.tobytes() for row in flat}) != len(flat):
            raise ValueError("family members must be pairwise distinct")
        if self.scheme == GRAY and (np.count_nonzero(flat[1:] != flat[:-1], axis=1) != 1).any():
            raise ValueError("consecutive gray members must differ in exactly one cell")
        object.__setattr__(self, "cells", cells)

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def width(self) -> int:
        return self.cells.shape[-1]

    @property
    def height(self) -> int | None:
        """Grid height for 2-D members, None for 1-D rows."""
        return self.cells.shape[1] if self.cells.ndim == 3 else None

    @property
    def descriptor(self) -> str:
        extra = f",seed={self.seed},density={self.density}" if self.scheme == RANDOM else ""
        return f"{descriptor_head(self.scheme, self.n, self.width, self.height)}{extra})"


def descriptor_head(scheme: str, n: int, width: int, height: int | None) -> str:
    """A family descriptor up to its shape, as ``gray(n=16,8x8``; a random
    family's ``,seed=…,density=…`` follows, and ``)`` closes it."""
    dims = f"{height}x{width}" if height is not None else f"W{width}"
    return f"{scheme}(n={n},{dims}"


def _gray_family(n: int, shape: tuple[int, ...], boundary: str = CYCLIC) -> InputFamily:
    """First n members of the Gray ordering in a zero background of ``shape``.

    Member j carries the ``(n-1).bit_length()`` bits of gray_code(j), most
    significant first, written row-major into a patch centred with the
    smaller margin first: the pattern itself in a row, the smallest square
    that holds it in a grid. Consecutive members differ in one cell.
    """
    if n < 2:
        raise ValueError("a gray family needs n >= 2")
    core = (n - 1).bit_length()
    side = math.isqrt(core - 1) + 1  # ceil(sqrt(core))
    patch = (core,) if len(shape) == 1 else (side, side)
    if any(size < extent for size, extent in zip(shape, patch)):
        named = zip(("height", "width")[-len(shape):], shape)
        raise ValueError(f"{', '.join(f'{name} {size}' for name, size in named)} too small "
                         f"for {core} pattern bits")
    codes = gray_code(np.arange(n))
    bits = np.zeros((n, math.prod(patch)), dtype=np.uint8)
    bits[:, :core] = (codes[:, None] >> np.arange(core - 1, -1, -1)) & 1
    cells = np.zeros((n, *shape), dtype=np.uint8)
    window = tuple(slice((size - extent) // 2, (size - extent) // 2 + extent)
                   for size, extent in zip(shape, patch))
    cells[(slice(None), *window)] = bits.reshape(n, *patch)
    return InputFamily(members=cells, scheme=GRAY, boundary=boundary)


def gray_initials(n: int, width: int, boundary: str = CYCLIC) -> InputFamily:
    """First n rows of the Gray ordering, centred in a zero background."""
    return _gray_family(n, (width,), boundary)


def gray_patches(n: int, height: int, width: int) -> InputFamily:
    """Gray family embedded in cyclic 2-D grids for outer-totalistic rules."""
    return _gray_family(n, (height, width))


def random_initials(
    n: int,
    width: int,
    seed: int,
    density: float = 0.5,
    boundary: str = CYCLIC,
) -> InputFamily:
    """n independent Bernoulli(density) rows from a seeded PCG64 stream."""
    if not 0.0 < density < 1.0:
        raise ValueError(f"density must lie strictly between 0 and 1, got {density}")
    # One (n, width) draw takes the same values as n draws of one row each.
    rows = (np.random.default_rng(seed).random((n, width)) < density).astype(np.uint8)
    return InputFamily(members=rows, scheme=RANDOM, seed=seed, density=density, boundary=boundary)
