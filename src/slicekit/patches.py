"""Align-corners bilinear resizing of the 2D position-embedding table to a patch grid (planned in partition)."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .partition import PatchGrid, fit_patch_grid, overview_grid  # noqa: F401  (re-exported)


@dataclass(frozen=True)
class PosEmbedGrid:
    """2D position-embedding table, shape (rows, cols, dim)."""

    values: np.ndarray

    def __post_init__(self):
        if self.values.ndim != 3:
            raise ValueError("position embedding grid must be rank 3 (rows, cols, dim)")
        if not np.isfinite(self.values).all():
            raise ValueError("position embeddings must be finite")

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
    seq = np.asarray(seq, dtype=np.float64)
    if seq.ndim != 2:
        raise ValueError("embedding sequence must be a 2D (tokens, dim) array")
    if seq.shape[0] != q * q:
        raise ValueError(f"sequence length {seq.shape[0]} is not q^2 = {q * q}")
    return PosEmbedGrid(values=seq.reshape(q, q, seq.shape[1]))


def interpolate_pos_embed(src: PosEmbedGrid, target: PatchGrid) -> PosEmbedGrid:
    """Align-corners bilinear interpolation to the target grid shape.

    Corner cells of the source map exactly onto corner cells of the target,
    so interpolating to the source's own shape is the identity.  Each axis is
    handled separately (bilinear is separable) with a fixed summation order,
    making results independent of how channels might be parallelized.
    """
    out = _interp_axis(src.values, target.rows, axis=0)
    out = _interp_axis(out, target.cols, axis=1)
    return PosEmbedGrid(values=out)


def _interp_axis(values: np.ndarray, new_size: int, axis: int) -> np.ndarray:
    old_size = values.shape[axis]
    if new_size == old_size:
        return values.copy()
    if old_size == 1:
        reps = [1, 1, 1]
        reps[axis] = new_size
        return np.tile(values, reps)
    if new_size == 1:
        # align-corners degenerate target: keep the first source cell
        return np.take(values, [0], axis=axis)
    pos = np.arange(new_size) * (old_size - 1) / (new_size - 1)
    lo = np.minimum(np.floor(pos).astype(int), old_size - 2)
    frac = pos - lo
    a = np.take(values, lo, axis=axis)
    b = np.take(values, lo + 1, axis=axis)
    shape = [1, 1, 1]
    shape[axis] = new_size
    f = frac.reshape(shape)
    return a * (1.0 - f) + b * f

