"""The read-only rule shared by the library's immutable array holders."""

from __future__ import annotations

import numpy as np


def read_only(a: np.ndarray) -> np.ndarray:
    """``a`` itself when it is read-only and owns its memory, else a read-only copy: no one can write into it.

    The copy keeps the memory layout (``order="K"``), so products over it round as they would over ``a``.
    """
    if a.flags.writeable or not a.flags.owndata:
        a = a.copy(order="K")
        a.flags.writeable = False
    return a
