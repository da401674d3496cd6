"""Compression proxy for the algorithmic complexity of an evolution.

The payload is the space-time array's cells, row-major, packed by
:func:`pack_cells` with no header; its compressed size under a pinned
DEFLATE stream stands in for the (uncomputable) shortest-description
length. Sizes are reported in bits to soften quantisation plateaus in
downstream difference terms.
"""
from __future__ import annotations

import zlib

import numpy as np

# Pinned compressor: DEFLATE via zlib at maximum effort. Results are only
# comparable under an identical compressor_id, so the library version is
# part of the identifier.
_LEVEL = 9
COMPRESSOR_ID = f"deflate/zlib-{zlib.ZLIB_RUNTIME_VERSION}/level{_LEVEL}"


def pack_cells(flat: np.ndarray, k: int) -> bytes:
    """Canonical byte form of a flat cell array.

    k=2: 8 cells per byte, MSB first, final partial byte zero-padded.
    k>2: one byte per cell.
    """
    if k == 2:
        return np.packbits(flat).tobytes()
    return np.ascontiguousarray(flat, dtype=np.uint8).tobytes()


def packed_size(cell_count: int, k: int) -> int:
    """Length in bytes of ``pack_cells`` of ``cell_count`` cells."""
    return -(-cell_count // 8) if k == 2 else cell_count


def payload_prefix(payload: bytes, cell_count: int, k: int) -> bytes:
    """The packed form of the first ``cell_count`` cells of ``payload``.

    Equal to ``pack_cells(flat[:cell_count], k)`` when ``payload`` is
    ``pack_cells(flat, k)``, without unpacking.
    """
    if k != 2:
        return payload[:cell_count]
    size, tail = divmod(cell_count, 8)
    if not tail:
        return payload[:size]
    # Zero the cells past cell_count in the final partial byte.
    last = payload[size] & (0xFF << (8 - tail)) & 0xFF
    return payload[:size] + bytes((last,))


def compressed_size(payload: bytes) -> int:
    """Size in bits of the pinned compressor's output for ``payload``."""
    return len(zlib.compress(payload, _LEVEL)) * 8


def streamed_prefix_sizes(payload: bytes, counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """``compressed_size(payload_prefix(payload, count, k))`` for each of
    the increasing ``counts``, from one compression of ``payload``.

    The whole bytes of each prefix go through one stream, with the level
    and zlib defaults of :func:`compressed_size`, which emits the same
    bytes however its input is split; at each prefix a copy of the stream
    takes the final partial byte and finishes. Each copy moves the
    stream's whole state (about 256 KiB at this level), so this only beats
    one-shot compression of every prefix on payloads of a few KiB and up.
    """
    stream = zlib.compressobj(_LEVEL)
    emitted = fed = 0
    sizes = []
    for count in counts:
        whole, loose = divmod(count, 8) if k == 2 else (count, 0)
        emitted += len(stream.compress(payload[fed:whole]))
        fed = whole
        finish = stream.copy()
        tail = payload_prefix(payload[whole : whole + 1], loose, k)
        sizes.append((emitted + len(finish.compress(tail)) + len(finish.flush())) * 8)
    return tuple(sizes)
