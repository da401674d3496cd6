"""Compression proxy for the algorithmic complexity of an evolution.

The payload is a canonical headerless serialization of the space-time
array; its compressed size under a pinned DEFLATE stream stands in for the
(uncomputable) shortest-description length. Sizes are reported in bits to
soften quantisation plateaus in downstream difference terms.
"""
from __future__ import annotations

import zlib

import numpy as np

from .engine import Evolution

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


def unpack_cells(payload: bytes, cell_count: int, k: int) -> np.ndarray:
    if k == 2:
        bits = np.unpackbits(np.frombuffer(payload, dtype=np.uint8), count=cell_count)
        return bits.astype(np.uint8)
    return np.frombuffer(payload, dtype=np.uint8)[:cell_count].copy()


def serialize(evo: Evolution) -> bytes:
    """Row-major cells of the whole run, packed; no header.

    Dimensions live in the run manifest, not the payload.
    """
    return pack_cells(evo.rows.ravel(), evo.k)


def deserialize(payload: bytes, shape: tuple[int, ...], k: int) -> np.ndarray:
    """Recover the cell array serialized for the given dimensions."""
    count = int(np.prod(shape))
    return unpack_cells(payload, count, k).reshape(shape)


def compressed_size(payload: bytes) -> int:
    """Size in bits of the pinned compressor's output for ``payload``."""
    return len(zlib.compress(payload, _LEVEL)) * 8

