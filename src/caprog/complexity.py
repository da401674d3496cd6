"""Compression proxy for the algorithmic complexity of an evolution.

The payload is the space-time array's cells, row-major, packed by
:func:`pack_cells` with no header; its compressed size under a pinned
DEFLATE stream stands in for the (uncomputable) shortest-description
length. Sizes are reported in bits to soften quantisation plateaus in
downstream difference terms. :func:`prefix_sizes` alone turns a run's
payload into its runtime prefixes' sizes, picking one-shot or streamed
compression.
"""
from __future__ import annotations

import zlib

import numpy as np

# Pinned compressor: DEFLATE via zlib at maximum effort. Results are only
# comparable under an identical compressor_id, so the library version is
# part of the identifier.
_LEVEL = 9
COMPRESSOR_ID = f"deflate/zlib-{zlib.ZLIB_RUNTIME_VERSION}/level{_LEVEL}"

# Payloads of at least this many bytes have their prefix sizes taken from
# one compression stream, smaller ones by compressing each prefix afresh.
# On one thread the stream wins from about 1.2 KiB (stream / one-shot time
# on 61-cell ECA runs: 1.05 at 1,152 B, 0.96 at 1,228 B, 0.86 at 1,533 B),
# but a stream's copy() holds the GIL while one-shot zlib releases it: on
# 2 CPUs the default sweep took a median 3.80 s at 1,280 B against 3.35 s
# at 4 KiB with 2 threads, and 4.50 s against 4.91 s with one.
STREAM_BYTES = 4 * 1024


def pack_cells(flat: np.ndarray, k: int) -> bytes:
    """Canonical byte form of a flat cell array.

    k=2: 8 cells per byte, MSB first, final partial byte zero-padded.
    k>2: one byte per cell.
    """
    return pack_rows(flat, k).tobytes()


def pack_rows(cells: np.ndarray, k: int) -> np.ndarray:
    """The bytes of :func:`pack_cells` of each row (last axis) of
    ``cells``, as a uint8 array of shape (..., packed_size(row length, k))."""
    if k == 2:
        return np.packbits(cells, axis=-1)
    return np.asarray(cells, dtype=np.uint8)


def unpack_rows(packed: np.ndarray, count: int, k: int) -> np.ndarray:
    """The rows of ``count`` cells that :func:`pack_rows` packed into ``packed``."""
    if k == 2:
        return np.unpackbits(packed, axis=-1, count=count)
    return packed


def packed_size(cell_count: int, k: int) -> int:
    """Length in bytes of ``pack_cells`` of ``cell_count`` cells."""
    return -(-cell_count // 8) if k == 2 else cell_count


def payload_cells(payload: bytes, cell_count: int, k: int) -> bytes:
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
    return b"".join((payload[:size], bytes((last,))))


def compressed_size(payload: bytes) -> int:
    """Size in bits of the pinned compressor's output for ``payload``."""
    return len(zlib.compress(payload, _LEVEL)) * 8


def prefix_sizes(payload: bytes, counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """``compressed_size(payload_cells(payload, count, k))`` for each of the
    increasing ``counts``. A payload of STREAM_BYTES or more goes through
    one compression stream, and each prefix of a smaller one is compressed
    afresh: the sizes are the same.
    """
    if len(payload) < STREAM_BYTES:
        return tuple(compressed_size(payload_cells(payload, count, k)) for count in counts)
    return _streamed_prefix_sizes(payload, counts, k)


def _streamed_prefix_sizes(payload: bytes, counts: tuple[int, ...], k: int) -> tuple[int, ...]:
    """:func:`prefix_sizes` from one compression of ``payload``.

    The whole bytes of each prefix go through one stream, with the level
    and zlib defaults of :func:`compressed_size`, which emits the same
    bytes however its input is split. At each prefix but the last, a copy
    of the stream takes the final partial byte, if there is one, and
    finishes; the stream itself finishes the last. Each copy moves the
    stream's whole state (about 256 KiB at this level), so this only beats
    one-shot compression of every prefix on payloads of a few KiB and up.
    """
    stream = zlib.compressobj(_LEVEL)
    emitted = fed = 0
    sizes = []
    for i, count in enumerate(counts):
        whole, loose = divmod(count, 8) if k == 2 else (count, 0)
        emitted += len(stream.compress(payload[fed:whole]))
        fed = whole
        finish = stream.copy() if i + 1 < len(counts) else stream
        tail = len(finish.compress(payload_cells(payload[whole:], loose, k))) if loose else 0
        sizes.append((emitted + tail + len(finish.flush())) * 8)
    return tuple(sizes)
