"""Align-corners bilinear resizing of the 2D position-embedding table to a patch grid (planned in partition)."""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .arrays import read_only, require_array
from .counts import require_count
from .partition import PatchGrid, fit_patch_grid, overview_grid  # noqa: F401  (re-exported)


@dataclass(frozen=True, eq=False)
class PosEmbedGrid:
    """2D position-embedding table, shape (rows, cols, dim); ``values`` is read-only, and it hashes by identity."""

    values: np.ndarray

    def __post_init__(self):
        values = require_array("position embeddings", self.values, ("rows", "cols", "dim"))
        object.__setattr__(self, "values", read_only(values))

    @property
    def rows(self) -> int:
        return self.values.shape[0]

    @property
    def cols(self) -> int:
        return self.values.shape[1]

    @property
    def dim(self) -> int:
        return self.values.shape[2]


def reshape_pos_embed_1d_to_2d(seq: np.ndarray, q: int) -> PosEmbedGrid:
    """Row-major reshape of an (M, dim) embedding sequence to (q, q, dim)."""
    require_array("seq", seq, ("tokens", "dim"))
    q = require_count("q", q, 1, seq.shape[0])
    if seq.shape[0] != q * q:
        raise ValueError(f"q must be the square root of the sequence length {seq.shape[0]}, got {q}")
    return PosEmbedGrid(values=seq.reshape(q, q, seq.shape[1]))


def interpolate_pos_embed(src: PosEmbedGrid, target: PatchGrid) -> PosEmbedGrid:
    """Align-corners bilinear interpolation to the target grid shape.

    Corner cells of the source map exactly onto corner cells of the target,
    so interpolating to the source's own shape is the identity, and src
    itself is returned.  Any other shape comes from ``_interpolated``, which
    keeps the table of the last (src, rows, cols) asked for: the slices of
    one image mostly share a grid, so a repeated grid is not recomputed.
    Tests pin the identity, constants, one-row/one-column sources and targets
    of 1 bit for bit, repeated calls as bit-equal, and every grid within 1e-12
    of a per-cell oracle; a slice of the channels may differ in the last bit.
    """
    if (target.rows, target.cols) == (src.rows, src.cols):
        return src
    return _interpolated(src, target.rows, target.cols)


@functools.lru_cache(maxsize=1)
def _interpolated(src: PosEmbedGrid, rows: int, cols: int) -> PosEmbedGrid:
    """The (rows, cols) table of src: one product with its (new, old) weight matrix per axis that changes size.

    An axis whose size already matches has the identity as its weights, so it
    is not multiplied (a zero keeps its sign).  src hashes by identity and its
    values are read-only, so a kept table cannot be stale.
    """
    out = src.values
    if rows != src.rows:
        out = _interp_axis(out, rows, axis=0)
    if cols != src.cols:
        out = _interp_axis(out, cols, axis=1)
    out.flags.writeable = False  # the fresh product is the table's own: no copy
    return PosEmbedGrid(values=out)


def _axis_weights(old: int, new: int) -> np.ndarray:
    """(new, old) matrix whose row i holds 1-frac at lo and frac at lo+1 for position i(old-1)/(new-1)."""
    weights = np.zeros((new, old))
    if old == 1 or new == 1:
        weights[:, 0] = 1.0
        return weights
    pos = np.arange(new) * (old - 1) / (new - 1)
    lo = np.minimum(pos.astype(int), old - 2)
    frac = pos - lo
    weights[np.arange(new), lo] = 1.0 - frac
    weights[np.arange(new), lo + 1] = frac
    return weights


def _interp_axis(values: np.ndarray, new_size: int, axis: int) -> np.ndarray:
    """A new array, owning its memory, with ``axis`` resized to new_size."""
    weights = _axis_weights(values.shape[axis], new_size)
    if axis == 0:  # one (new, old) x (old, cols*dim) product, written into the table's own (new, cols, dim) memory
        out = np.empty((new_size, *values.shape[1:]), np.result_type(weights, values))
        np.matmul(weights, values.reshape(values.shape[0], -1), out=out.reshape(new_size, -1))
        return out
    return np.matmul(weights, values)
