"""The one rule for an array argument of the library, and the read-only rule shared by its immutable array holders."""

from __future__ import annotations

import numpy as np


def require_array(name: str, value, axes: tuple[str, ...], samples: bool = False) -> np.ndarray:
    """value, unconverted and uncopied, if it is an ndarray of integer or floating dtype with one axis per entry of
    axes, none of length 0, and every value finite, else one ValueError that names the argument.  With samples (any
    number of samples, whose values the caller checks itself) an axis may be empty and the values are not checked."""
    if not isinstance(value, np.ndarray) or value.dtype.kind not in "iuf":
        got = f"dtype {value.dtype}" if isinstance(value, np.ndarray) else type(value).__name__
        raise ValueError(f"{name} must be an array of real numbers, got {got}")
    if value.ndim != len(axes) or 0 in value.shape and not samples:
        raise ValueError(f"{name} must have shape ({', '.join(axes)}){'' if samples else ' with no empty axis'}, "
                         f"got {value.shape}")
    if not samples and not np.isfinite(value).all():
        raise ValueError(f"{name} must be finite")
    return value


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is read-only and owns its memory, else a read-only copy: no one can write into it.

    The copy keeps the memory layout (``order="K"``), so products over it round as they would over ``a``.
    """
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy(order="K")
        a.flags.writeable = False
    return a
