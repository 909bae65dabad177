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
    so interpolating to the source's own shape is the identity.  Bilinear is
    separable: each axis is one product with its (new, old) weight matrix.
    Tests pin the identity, constants, one-row/one-column sources and targets
    of 1 bit for bit, repeated calls as bit-equal, and every grid within 1e-12
    of a per-cell oracle; a slice of the channels may differ in the last bit.
    """
    out = _interp_axis(src.values, target.rows, axis=0)
    out = _interp_axis(out, target.cols, axis=1)
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
    weights = _axis_weights(values.shape[axis], new_size)
    if axis == 0:
        return (weights @ values.reshape(values.shape[0], -1)).reshape(new_size, *values.shape[1:])
    return np.matmul(weights, values)
