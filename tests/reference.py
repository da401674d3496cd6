"""Naive reference pipeline, deliberately independent of the package.

Everything here is recomputed from scratch with plain Python lists and
integers: rule tables as dicts, stepping cell by cell (1-D rows under
either boundary, Life grids by counting neighbours), bit packing by
hand, one zlib call per evolution, and textbook least squares. No numpy,
no caching, no prefix reuse. The optimised pipeline must agree with this
one bit for bit.
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
    m = len(points)
    mean_x = sum(p[0] for p in points) / m
    mean_y = sum(p[1] for p in points) / m
    sxx = sum((p[0] - mean_x) ** 2 for p in points)
    sxy = sum((p[0] - mean_x) * (p[1] - mean_y) for p in points)
    slope = sxy / sxx
    return slope, mean_y - slope * mean_x


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
