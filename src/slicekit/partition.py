"""Adaptive variable-sized image partitioning.

Given a native-resolution image and the fixed pretraining resolution of a
vision transformer, compute the ideal slice count, enumerate candidate
column/row grids, score them by aspect-ratio deviation, and select the best
partition: exact pixel rectangles and a patch grid for every encoder block.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from functools import lru_cache

from .counts import _shown, require_count, require_real

# most slices a plan may be cut into, capped or not: an N up to 10^4 + 1 factors in microseconds and a plan holds at
# most 10^4 PixelRects; the tests' largest plan, 25891x25891 at N = 5938, is inside it
MAX_SLICES = 10**4


class _Counts:
    """A frozen dataclass whose every field is a count of at least 1, kept as an int."""

    def __post_init__(self):
        for name in self.__dataclass_fields__:
            object.__setattr__(self, name, require_count(name, getattr(self, name), 1))


@dataclass(frozen=True)
class ImageSize(_Counts):
    """Image dimensions in pixels."""

    width_px: int
    height_px: int


@dataclass(frozen=True)
class VitSpec(_Counts):
    """Pretraining geometry of the visual encoder."""

    pretrain_width_px: int = 336
    pretrain_height_px: int = 336
    patch_px: int = 14

    def __post_init__(self):
        super().__post_init__()
        if self.pretrain_width_px % self.patch_px or self.pretrain_height_px % self.patch_px:
            raise ValueError("pretraining resolution must be a multiple of the patch size")

    @property
    def token_budget(self) -> int:
        """Number of position embeddings: the patch count at the pretraining resolution."""
        return (self.pretrain_width_px // self.patch_px) * (self.pretrain_height_px // self.patch_px)

    @property
    def pretrain_area_px(self) -> int:
        return self.pretrain_width_px * self.pretrain_height_px

    @property
    def aspect(self) -> float:
        return self.pretrain_width_px / self.pretrain_height_px


@dataclass(frozen=True, order=True)
class SliceGrid(_Counts):
    """A slicing grid of cols_m columns by rows_n rows."""

    cols_m: int
    rows_n: int

    @property
    def slice_count(self) -> int:
        return self.cols_m * self.rows_n


@dataclass(frozen=True)
class PixelRect:
    x: int
    y: int
    w: int
    h: int


@dataclass(frozen=True)
class PatchGrid(_Counts):
    cols: int
    rows: int

    @property
    def tokens(self) -> int:
        return self.cols * self.rows


def fit_patch_grid(slice_w_px: float, slice_h_px: float, vit: VitSpec) -> PatchGrid:
    """Largest patch grid within the token budget matching the slice aspect.

    The continuous optimum (c, r) = (sqrt(M*a), sqrt(M/a)) uses the budget M exactly at aspect a = w/h.  Slices
    are never upscaled, so each of its floor/ceil neighbours is clamped to the slice's native patch capacity per
    axis, giving lo_c <= hi_c and lo_r <= hi_r.  The candidates are the four corners within M, and the cells just
    under M in the box [1, hi_c] x [1, hi_r]: (M // r, r) for each r in it with hi_c*r > M, and (c, M // c) for
    each c in it with c*hi_r > M.  Of those, the grid with the smallest |log(c/r) - log(a)| wins; ties go to more
    tokens, then more columns.  A slice whose M*a or M/a is past float range is refused.
    """
    require_real("slice_w_px", slice_w_px)
    require_real("slice_h_px", slice_h_px)
    if not (vit.patch_px <= slice_w_px and vit.patch_px <= slice_h_px):
        raise ValueError(f"degenerate slice: {_shown(slice_w_px)}x{_shown(slice_h_px)} is smaller than one "
                         f"{vit.patch_px}px patch")
    budget = vit.token_budget
    # an int side past float range has no float aspect; two sides within it divide without overflow
    aspect = slice_w_px / slice_h_px if max(slice_w_px, slice_h_px) <= sys.float_info.max else math.inf
    if not budget / sys.float_info.max < aspect < sys.float_info.max / budget:
        raise ValueError(f"degenerate slice: {_shown(slice_w_px)}x{_shown(slice_h_px)} has an aspect ratio beyond "
                         "float range")
    cap_c = int(slice_w_px // vit.patch_px)
    cap_r = int(slice_h_px // vit.patch_px)
    ideal_c = math.sqrt(budget * aspect)
    ideal_r = math.sqrt(budget / aspect)

    lo_c, hi_c = min(max(math.floor(ideal_c), 1), cap_c), min(max(math.ceil(ideal_c), 1), cap_c)
    lo_r, hi_r = min(max(math.floor(ideal_r), 1), cap_r), min(max(math.ceil(ideal_r), 1), cap_r)
    feasible = [(c, r) for c in {lo_c, hi_c} for r in {lo_r, hi_r} if c * r <= budget]
    feasible += [(budget // r, r) for r in range(budget // hi_c + 1, min(hi_r, budget) + 1)]
    feasible += [(c, budget // c) for c in range(budget // hi_r + 1, min(hi_c, budget) + 1)]

    log_a = math.log(aspect)
    best = min(feasible, key=lambda cr: (abs(math.log(cr[0] / cr[1]) - log_a), -cr[0] * cr[1], -cr[0]))
    return PatchGrid(cols=best[0], rows=best[1])


def overview_grid(image: ImageSize, vit: VitSpec) -> PatchGrid:
    """Patch grid for the native-aspect overview downscale of the full image."""
    return fit_patch_grid(image.width_px, image.height_px, vit)


@dataclass(frozen=True)
class PartitionPlan:
    image: ImageSize
    vit: VitSpec
    grid: SliceGrid
    score: float
    ideal_n: int
    slice_rects: tuple[PixelRect, ...] = field(repr=False)

    @property
    def patch_grids(self) -> tuple[PatchGrid, ...]:
        """One patch grid per encoder block: each slice in row-major order, then the overview."""
        return (*(fit_patch_grid(r.w, r.h, self.vit) for r in self.slice_rects), overview_grid(self.image, self.vit))

    def to_json_dict(self) -> dict:
        *slices, overview = self.patch_grids
        return {
            "image": {"w": self.image.width_px, "h": self.image.height_px},
            "vit": {
                "w": self.vit.pretrain_width_px,
                "h": self.vit.pretrain_height_px,
                "patch": self.vit.patch_px,
                "M": self.vit.token_budget,
            },
            "ideal_N": self.ideal_n,
            "grid": {"m": self.grid.cols_m, "n": self.grid.rows_n},
            "score": self.score,
            "slices": [{"x": r.x, "y": r.y, "w": r.w, "h": r.h} for r in self.slice_rects],
            "slice_patch_grids": [{"cols": g.cols, "rows": g.rows} for g in slices],
            "overview_grid": {"cols": overview.cols, "rows": overview.rows},
        }


def ideal_slice_count(image: ImageSize, vit: VitSpec) -> int:
    """Ceiling of image area over encoder pretraining area, at least 1."""
    n = -(-(image.width_px * image.height_px) // vit.pretrain_area_px)
    return max(1, n)


def candidate_grids(n: int) -> set[SliceGrid]:
    """All column/row factorizations of n-1, n and n+1 (0 slices excluded), for n up to MAX_SLICES + 1: the greatest
    ideal count a plan reaches, since it refuses an n - 1 above its cap."""
    n = require_count("n", n, 1, MAX_SLICES + 1)
    out: set[SliceGrid] = set()
    for target in (n - 1, n, n + 1):
        for m in range(1, math.isqrt(target) + 1):
            if target % m == 0:
                out.update((SliceGrid(cols_m=m, rows_n=target // m), SliceGrid(cols_m=target // m, rows_n=m)))
    return out


def partition_score(image: ImageSize, vit: VitSpec, grid: SliceGrid) -> float:
    """Negative absolute log deviation of the slice aspect from the encoder aspect.

    The slice aspect for grid (m, n) is (W/m)/(H/n) = W*n/(H*m).  Natural
    logarithm; the argmax is invariant to the log base.
    """
    slice_aspect = (image.width_px * grid.rows_n) / (image.height_px * grid.cols_m)
    return -abs(math.log(slice_aspect) - math.log(vit.aspect))


def ordered_candidates(n: int) -> list[SliceGrid]:
    """Candidate grids in deterministic tie-break preference order.

    Slice count equal to the ideal n is preferred over n-1 over n+1, then
    wider grids (larger column count) win.  The single-slice grid is dropped
    for n >= 2: a "partition" into one slice defeats the purpose of slicing
    and would let the slice area grow past 1.5x the encoder area.
    """
    cands = [g for g in candidate_grids(n) if n == 1 or g.slice_count > 1]
    return sorted(cands, key=lambda g: ({n: 0, n - 1: 1, n + 1: 2}[g.slice_count], -g.cols_m))


@lru_cache(maxsize=None)
def grid_table(n: int) -> tuple[tuple[SliceGrid, ...], tuple[tuple[int, int, bool], ...]]:
    """Candidates for ideal count n sorted by cols/rows (all distinct), and the switch points between neighbours.

    Neighbours a, b deviate equally at the squared image-to-encoder aspect c_a*c_b / (r_a*r_b),
    stored as (c_a*c_b, r_a*r_b, whether b wins that exact tie under ordered_candidates).
    """
    rank = {g: i for i, g in enumerate(ordered_candidates(n))}
    grids = tuple(sorted(rank, key=lambda g: g.cols_m / g.rows_n))
    return grids, tuple((a.cols_m * b.cols_m, a.rows_n * b.rows_n, rank[b] < rank[a]) for a, b in zip(grids, grids[1:]))


def grid_index(n: int, p2, q2):
    """Index into grid_table(n) of the grid chosen at squared image-to-encoder aspect p2/q2.

    Counts the switch points passed, with arithmetic only: exact on Python ints, elementwise on numpy arrays.
    """
    idx = 0
    for num, den, upper_wins_tie in grid_table(n)[1]:
        idx = idx + ((p2 * den >= q2 * num) if upper_wins_tie else (p2 * den > q2 * num))
    return idx


def slice_rectangles(image: ImageSize, grid: SliceGrid) -> tuple[PixelRect, ...]:
    """Tile the image exactly; remainder pixels go to the leading rows/columns."""
    xs = _split_axis(image.width_px, grid.cols_m)
    ys = _split_axis(image.height_px, grid.rows_n)
    rects = []
    for y, h in ys:
        for x, w in xs:
            rects.append(PixelRect(x=x, y=y, w=w, h=h))
    return tuple(rects)


def _split_axis(length: int, parts: int) -> list[tuple[int, int]]:
    base, rem = divmod(length, parts)
    spans = []
    pos = 0
    for i in range(parts):
        size = base + (1 if i < rem else 0)
        spans.append((pos, size))
        pos += size
    return spans


def select_partition(image: ImageSize, vit: VitSpec, max_slices: int | None = None) -> PartitionPlan:
    """Pick the grid maximizing the partition score over the candidate set, exactly for integer sizes.

    An image with a side below one patch is rejected; a grid whose slices would be narrower or shorter than one
    patch is passed over for 1x1 (within 14..4032 px per side only at N=1, where the N+1 candidates 2x1 and 1x2
    would cut slices of a few pixels; beyond it, very large images such as 25891x25891 at N=5938).  So every block
    of every plan can be fitted a patch grid.  A grid of more than max_slices slices (the config's max_N) is refused
    before any slice is cut: at N >= 2 the grid the score chose, so that the 1x1 fallback lets no large image through
    whole.  Every candidate grid for N >= 3 has at least N - 1 slices, so an N - 1 above the cap is refused from N
    alone, before the candidates are enumerated.  Without max_slices the cap is MAX_SLICES, which also bounds it.
    """
    cap, bound = ((MAX_SLICES, "MAX_SLICES") if max_slices is None
                  else (require_count("max_slices", max_slices, 1, MAX_SLICES), "max_N"))
    if min(image.width_px, image.height_px) < vit.patch_px:
        raise ValueError(f"image {_shown(image.width_px)}x{_shown(image.height_px)} has a side below one "
                         f"{vit.patch_px}px patch")
    n = ideal_slice_count(image, vit)
    if n - 1 > cap:
        raise ValueError(f"{_shown(image.width_px)}x{_shown(image.height_px)} would be cut into at least "
                         f"{_shown(n - 1)} slices, which exceeds {bound}={cap}")
    p, q = image.width_px * vit.pretrain_height_px, image.height_px * vit.pretrain_width_px
    chosen = grid_table(n)[0][grid_index(n, p * p, q * q)]
    thin = image.width_px // chosen.cols_m < vit.patch_px or image.height_px // chosen.rows_n < vit.patch_px
    grid = SliceGrid(1, 1) if thin else chosen
    capped = grid if n == 1 else chosen
    if capped.slice_count > cap:
        raise ValueError(f"{image.width_px}x{image.height_px} would be cut into {capped.slice_count} slices, "
                         f"which exceeds {bound}={cap}")
    return PartitionPlan(
        image=image,
        vit=vit,
        grid=grid,
        score=partition_score(image, vit, grid),
        ideal_n=n,
        slice_rects=slice_rectangles(image, grid),
    )
