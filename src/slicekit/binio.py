"""Flat binary layout for embedding grids and token matrices.

Layout: 16-byte header (4-byte magic ``PEG1`` + rows, cols, dim as
little-endian uint32) followed by the payload as row-major, channel-last,
little-endian float64.  Token matrices are stored as a grid with a single
row: (1, count, dim).
"""

from __future__ import annotations

import struct

import numpy as np

from .arrays import require_array
from .counts import require_holder
from .patches import PosEmbedGrid

MAGIC = b"PEG1"
_HEADER = struct.Struct("<4sIII")


def _to_bytes(values: np.ndarray) -> bytes:
    """Header and payload of a (rows, cols, dim) array; the payload is copied once, into the returned bytes."""
    rows, cols, dim = values.shape
    return b"".join((_HEADER.pack(MAGIC, rows, cols, dim), np.ascontiguousarray(values, dtype="<f8").data))


def grid_to_bytes(grid: PosEmbedGrid) -> bytes:
    return _to_bytes(require_holder("grid", grid, PosEmbedGrid).values)


def grid_from_bytes(data: bytes) -> PosEmbedGrid:
    """The grid in ``data``; its values are the one copy of the payload, read-only."""
    if len(data) < _HEADER.size:
        raise ValueError("truncated grid file: missing header")
    magic, rows, cols, dim = _HEADER.unpack_from(data)
    if magic != MAGIC:
        raise ValueError(f"bad magic {magic!r}, expected {MAGIC!r}")
    expected = _HEADER.size + rows * cols * dim * 8
    if len(data) != expected:
        raise ValueError(f"grid file size {len(data)} != expected {expected}")
    values = np.frombuffer(data, dtype="<f8", offset=_HEADER.size).reshape(rows, cols, dim).astype(np.float64)
    values.flags.writeable = False  # the fresh copy is the grid's own, so the grid keeps it
    return PosEmbedGrid(values=values)


def tokens_to_bytes(tokens: np.ndarray) -> bytes:
    return _to_bytes(require_array("tokens", tokens, ("count", "dim"))[None, :, :])


def tokens_from_bytes(data: bytes) -> np.ndarray:
    """The (count, dim) tokens in ``data``, checked as a one-row grid: a read-only view of the grid's values."""
    grid = grid_from_bytes(data)
    if grid.rows != 1:
        raise ValueError(f"token matrix file must have a single row, got {grid.rows}")
    return grid.values[0]
