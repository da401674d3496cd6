"""Ordered families of initial configurations.

The reflected-binary (Gray) ordering makes consecutive inputs differ in
exactly one cell, which is what lets downstream difference sums read as
sensitivity to minimal perturbations. A seeded Bernoulli generator covers
figure-style runs from random inputs.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

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
    """Ordered, pairwise-distinct initial configurations of equal shape.

    ``scheme`` records how the family was built: ``"gray"`` families
    additionally guarantee Hamming distance exactly 1 between consecutive
    members.
    """

    members: tuple
    scheme: str
    seed: int | None = None
    density: float | None = None

    def __post_init__(self):
        if len(self.members) < 1:
            raise ValueError("a family needs at least one member")
        shapes = {m.cells.shape for m in self.members}
        if len(shapes) != 1:
            raise ValueError("family members must share one shape")
        seen = set()
        for m in self.members:
            key = m.cells.tobytes()
            if key in seen:
                raise ValueError("family members must be pairwise distinct")
            seen.add(key)
        if self.scheme == GRAY:
            for a, b in zip(self.members, self.members[1:]):
                if int(np.count_nonzero(a.cells != b.cells)) != 1:
                    raise ValueError("consecutive gray members must differ in exactly one cell")

    @property
    def n(self) -> int:
        return len(self.members)

    @property
    def width(self) -> int:
        return int(self.members[0].cells.shape[-1])

    @property
    def height(self) -> int | None:
        """Grid height for 2-D members, None for 1-D rows."""
        shape = self.members[0].cells.shape
        return int(shape[0]) if len(shape) == 2 else None

    @property
    def descriptor(self) -> str:
        dims = f"{self.height}x{self.width}" if self.height is not None else f"W{self.width}"
        extra = ""
        if self.scheme == RANDOM:
            extra = f",seed={self.seed},density={self.density}"
        return f"{self.scheme}(n={self.n},{dims}{extra})"


def _gray_row(j: int, core_width: int, total_width: int) -> np.ndarray:
    # MSB-first bits of gray_code(j), centred with the smaller margin on the left.
    code = gray_code(j)
    bits = [(code >> (core_width - 1 - b)) & 1 for b in range(core_width)]
    row = np.zeros(total_width, dtype=np.uint8)
    left = (total_width - core_width) // 2
    row[left : left + core_width] = bits
    return row


def gray_initials(n: int, width: int, boundary: str = CYCLIC, background: int = 0) -> InputFamily:
    """First n rows of the Gray ordering, centred in a zero background.

    Member j carries the reflected-binary code of j as a bit pattern of
    width ``(n-1).bit_length()``; consecutive members differ in one cell.
    """
    if n < 2:
        raise ValueError("a gray family needs n >= 2")
    core = (n - 1).bit_length()
    if width < core:
        raise ValueError(f"width {width} too small for {core} pattern bits")
    members = tuple(
        Configuration(cells=_gray_row(j, core, width), boundary=boundary, background=background)
        for j in range(n)
    )
    return InputFamily(members=members, scheme=GRAY)


def random_initials(
    n: int,
    width: int,
    seed: int,
    density: float = 0.5,
    boundary: str = CYCLIC,
    background: int = 0,
) -> InputFamily:
    """n independent Bernoulli(density) rows from a seeded PCG64 stream."""
    if n < 1:
        raise ValueError("need n >= 1")
    if not 0.0 < density < 1.0:
        raise ValueError(f"density must lie strictly between 0 and 1, got {density}")
    rng = np.random.default_rng(seed)
    members = tuple(
        Configuration(
            cells=(rng.random(width) < density).astype(np.uint8),
            boundary=boundary,
            background=background,
        )
        for _ in range(n)
    )
    return InputFamily(members=members, scheme=RANDOM, seed=seed, density=density)


def gray_patches(n: int, height: int, width: int) -> InputFamily:
    """Gray family embedded in cyclic 2-D grids for outer-totalistic rules.

    The 1-D pattern of member j is written row-major into a centred s x s
    patch with s = ceil(sqrt(core_width)), preserving the one-cell-change
    chain between consecutive members.
    """
    if n < 2:
        raise ValueError("a gray family needs n >= 2")
    core = (n - 1).bit_length()
    side = math.isqrt(core)
    if side * side < core:
        side += 1
    if height < side or width < side:
        raise ValueError(f"grid {height}x{width} too small for a {side}x{side} patch")
    top = (height - side) // 2
    left = (width - side) // 2
    members = []
    for j in range(n):
        flat = np.zeros(side * side, dtype=np.uint8)
        code = gray_code(j)
        for b in range(core):
            flat[b] = (code >> (core - 1 - b)) & 1
        grid = np.zeros((height, width), dtype=np.uint8)
        grid[top : top + side, left : left + side] = flat.reshape(side, side)
        members.append(Configuration(cells=grid))
    return InputFamily(members=tuple(members), scheme=GRAY)
