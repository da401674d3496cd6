"""Ordered families of initial configurations.

The reflected-binary (Gray) ordering makes consecutive inputs differ in
exactly one cell, which is what lets downstream difference sums read as
sensitivity to minimal perturbations. A seeded Bernoulli generator covers
figure-style runs from random inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import CYCLIC, Configuration

GRAY = "gray"
RANDOM = "random"
CUSTOM = "custom"


def gray_code(j: int) -> int:
    """Reflected binary code of index j."""
    return j ^ (j >> 1)


@dataclass(frozen=True, eq=False)
class InputFamily:
    """Ordered, pairwise-distinct initial configurations of one shape and
    boundary.

    ``scheme`` records how the family was built: ``"gray"`` families
    additionally guarantee Hamming distance exactly 1 between consecutive
    members. ``cells`` is the read-only uint8 ``(n, *shape)`` stack of the
    members, built once: each member's cells are a view of its row.
    """

    members: tuple
    scheme: str
    seed: int | None = None
    density: float | None = None
    cells: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        if len({(m.cells.shape, m.boundary) for m in self.members}) != 1:
            raise ValueError("a family needs members, all of one shape and boundary")
        cells = np.stack([m.cells for m in self.members])
        cells.setflags(write=False)
        flat = cells.reshape(len(cells), -1)
        if len({row.tobytes() for row in flat}) != len(flat):
            raise ValueError("family members must be pairwise distinct")
        if self.scheme == GRAY and (np.count_nonzero(flat[1:] != flat[:-1], axis=1) != 1).any():
            raise ValueError("consecutive gray members must differ in exactly one cell")
        object.__setattr__(self, "cells", cells)
        object.__setattr__(self, "members", tuple(Configuration(cells=row, boundary=self.boundary)
                                                  for row in cells))

    @property
    def n(self) -> int:
        return self.cells.shape[0]

    @property
    def boundary(self) -> str:
        return self.members[0].boundary

    @property
    def width(self) -> int:
        return self.cells.shape[-1]

    @property
    def height(self) -> int | None:
        """Grid height for 2-D members, None for 1-D rows."""
        return self.cells.shape[1] if self.cells.ndim == 3 else None

    @property
    def descriptor(self) -> str:
        dims = f"{self.height}x{self.width}" if self.height is not None else f"W{self.width}"
        extra = ""
        if self.scheme == RANDOM:
            extra = f",seed={self.seed},density={self.density}"
        return f"{self.scheme}(n={self.n},{dims}{extra})"


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
    members = tuple(Configuration(cells=member, boundary=boundary) for member in cells)
    return InputFamily(members=members, scheme=GRAY)


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
    members = tuple(Configuration(cells=row, boundary=boundary) for row in rows)
    return InputFamily(members=members, scheme=RANDOM, seed=seed, density=density)
