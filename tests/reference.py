"""Naive reference pipeline, deliberately independent of the package.

Everything here is recomputed from scratch with plain Python lists and
integers: rule tables as dicts, stepping cell by cell (1-D rows under
either boundary, Life grids by counting neighbours), bit packing and
unpacking by hand, one zlib call per evolution, and textbook least
squares. No numpy, no caching, no prefix reuse. The optimised pipeline
must agree with this one bit for bit.
"""
from __future__ import annotations

import math
import zlib


def ref_rule_table(number: int) -> dict[tuple[int, int, int], int]:
    table = {}
    for value in range(8):
        neigh = ((value >> 2) & 1, (value >> 1) & 1, value & 1)
        table[neigh] = (number >> value) & 1
    return table


def ref_conjugate(number: int) -> int:
    """Number of the colour-complement conjugate of ECA ``number``: its
    output for neighbourhood v is 1 - the output for 7 - v."""
    return sum((1 - ((number >> (7 - v)) & 1)) << v for v in range(8))


def ref_mirror(number: int, k: int, r: int) -> int:
    """Number of the left-right mirror image of the 1-D rule ``number`` in
    ``k`` colours and radius ``r`` (numbered as in :func:`ref_ca_evolve`):
    its output for a neighbourhood is the output for that neighbourhood
    read right to left."""
    width = 2 * r + 1
    mirrored = 0
    for v in range(k ** width):
        digits = [v // k ** i % k for i in range(width)]  # rightmost cell first
        reverse = sum(d * k ** (width - 1 - i) for i, d in enumerate(digits))
        mirrored += number // k ** reverse % k * k ** v
    return mirrored


def ref_step(cells: list[int], table, boundary: str = "cyclic") -> list[int]:
    w = len(cells)
    out = []
    for x in range(w):
        if boundary == "cyclic":
            left, right = cells[(x - 1) % w], cells[(x + 1) % w]
        else:
            left = cells[x - 1] if x > 0 else 0
            right = cells[x + 1] if x < w - 1 else 0
        out.append(table[(left, cells[x], right)])
    return out


def ref_evolve(number: int, cells: list[int], t: int, boundary: str = "cyclic") -> list[list[int]]:
    table = ref_rule_table(number)
    rows = [list(cells)]
    for _ in range(t):
        rows.append(ref_step(rows[-1], table, boundary))
    return rows


def ref_ca_evolve(number: int, k: int, r: int, cells: list[int], t: int,
                  boundary: str = "cyclic") -> list[list[int]]:
    """Any 1-D rule by its number: digit v of ``number`` in base k is the
    successor of the neighbourhood whose base-k value is v, leftmost cell
    most significant. Cells past a fixed edge read as 0; on a cyclic row
    the neighbourhood wraps as often as r needs."""
    rows = [list(cells)]
    w = len(cells)
    for _ in range(t):
        prev = rows[-1]
        out = []
        for x in range(w):
            value = 0
            for d in range(-r, r + 1):
                if boundary == "cyclic":
                    cell = prev[(x + d) % w]
                else:
                    cell = prev[x + d] if 0 <= x + d < w else 0
                value = value * k + cell
            out.append(number // k ** value % k)
        rows.append(out)
    return rows


def ref_life_step(grid: list[list[int]], born, survives) -> list[list[int]]:
    h, w = len(grid), len(grid[0])
    out = []
    for i in range(h):
        row = []
        for j in range(w):
            live = sum(grid[(i + di) % h][(j + dj) % w]
                       for di in (-1, 0, 1) for dj in (-1, 0, 1) if (di, dj) != (0, 0))
            row.append(int(live in (survives if grid[i][j] else born)))
        out.append(row)
    return out


def ref_life_evolve(grid: list[list[int]], t: int, born, survives) -> list[list[list[int]]]:
    grids = [[list(row) for row in grid]]
    for _ in range(t):
        grids.append(ref_life_step(grids[-1], born, survives))
    return grids


def ref_pack(bits: list[int]) -> bytes:
    out = bytearray()
    for start in range(0, len(bits), 8):
        byte = 0
        chunk = bits[start : start + 8]
        for i, b in enumerate(chunk):
            byte |= b << (7 - i)
        out.append(byte)
    return bytes(out)


def ref_unpack(data: bytes, count: int) -> list[int]:
    """The first ``count`` bits of ``data``, MSB first: inverse of ref_pack."""
    return [(data[i // 8] >> (7 - i % 8)) & 1 for i in range(count)]


def ref_read_pbm(data: bytes) -> list[list[int]]:
    """Cells of a P4 bitmap whose header is exactly ``P4\\n{w} {h}\\n``."""
    magic, size, raster = data.split(b"\n", 2)
    assert magic == b"P4"
    width, height = (int(field) for field in size.split(b" "))
    row = (width + 7) // 8
    assert len(raster) == height * row
    return [ref_unpack(raster[i * row : (i + 1) * row], width) for i in range(height)]


def ref_complexity(rows: list[list[int]]) -> int:
    flat = [cell for row in rows for cell in row]
    return len(zlib.compress(ref_pack(flat), 9)) * 8


def ref_gray_members(n: int, width: int) -> list[list[int]]:
    core = max(1, (n - 1).bit_length())
    members = []
    for j in range(n):
        code = j ^ (j >> 1)
        bits = [(code >> (core - 1 - b)) & 1 for b in range(core)]
        left = (width - core) // 2
        members.append([0] * left + bits + [0] * (width - core - left))
    return members


def ref_gray_patches(n: int, height: int, width: int) -> list[list[list[int]]]:
    """Gray members as height x width grids: the pattern bits of member j,
    most significant first, fill the smallest square patch that holds them
    row by row, and the patch sits centred, smaller margins top and left."""
    core = (n - 1).bit_length()
    side = 1
    while side * side < core:
        side += 1
    top, left = (height - side) // 2, (width - side) // 2
    members = []
    for j in range(n):
        code = j ^ (j >> 1)
        grid = [[0] * width for _ in range(height)]
        for b in range(core):
            grid[top + b // side][left + b % side] = (code >> (core - 1 - b)) & 1
        members.append(grid)
    return members


def ref_difference_sum(number: int, members: list[list[int]], t: int,
                       include_input: bool = True) -> float:
    sizes = []
    for cells in members:
        rows = ref_evolve(number, cells, t)
        if not include_input:
            rows = rows[1:]
        sizes.append(ref_complexity(rows))
    total = sum(abs(a - b) for a, b in zip(sizes, sizes[1:]))
    return total / (t * (len(members) - 1))


def ref_ols(points: list[tuple[int, float]]) -> tuple[float, float]:
    # Explicit left-to-right sums: builtin sum() of floats is compensated
    # from Python 3.12 on.
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
    return slope, mean_y - slope * mean_x


def compensated_sum(items, start=0):
    """builtin ``sum()`` as Python 3.12 and later compute it: a float total
    carries a Neumaier compensation term, added back at the end. Patched
    over ``builtins.sum`` on an older interpreter, it shows what a newer
    one would compute."""
    total, compensation = start, 0.0
    for x in items:
        if isinstance(x, float) and isinstance(total, float):
            t = total + x
            compensation += (total - t) + x if abs(total) >= abs(x) else (x - t) + total
            total = t
        else:
            total = total + x
    return total + compensation if compensation and math.isfinite(compensation) else total


def ref_coefficient(number: int, n: int, width: int, t_max: int,
                    include_input: bool = True) -> float:
    t_min = max(4, t_max // 8)
    stride = max(1, (t_max - t_min) // 15)
    times = []
    t = t_max
    while t >= t_min:
        times.append(t)
        t -= stride
    times.reverse()
    members = ref_gray_members(n, width)
    points = [(tp, ref_difference_sum(number, members, tp, include_input))
              for tp in times]
    return ref_ols(points)[0]
