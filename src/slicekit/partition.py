"""Adaptive variable-sized image partitioning.

Given a native-resolution image and the fixed pretraining resolution of a
vision transformer, compute the ideal slice count, enumerate candidate
column/row grids, score them by aspect-ratio deviation, and select the
best partition together with exact pixel rectangles for every slice.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import lru_cache


@dataclass(frozen=True)
class ImageSize:
    """Image dimensions in pixels."""

    width_px: int
    height_px: int

    def __post_init__(self):
        if self.width_px <= 0 or self.height_px <= 0:
            raise ValueError(f"image dimensions must be positive, got {self.width_px}x{self.height_px}")

    @property
    def aspect(self) -> float:
        return self.width_px / self.height_px


@dataclass(frozen=True)
class VitSpec:
    """Pretraining geometry of the visual encoder.

    token_budget is the number of position embeddings, i.e. the patch count
    at the pretraining resolution.
    """

    pretrain_width_px: int = 336
    pretrain_height_px: int = 336
    patch_px: int = 14
    token_budget: int = 576

    def __post_init__(self):
        for name in ("pretrain_width_px", "pretrain_height_px", "patch_px", "token_budget"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        if self.pretrain_width_px % self.patch_px or self.pretrain_height_px % self.patch_px:
            raise ValueError("pretraining resolution must be a multiple of the patch size")
        expected = (self.pretrain_width_px // self.patch_px) * (self.pretrain_height_px // self.patch_px)
        if self.token_budget != expected:
            raise ValueError(f"token_budget {self.token_budget} != patch grid product {expected}")

    @property
    def pretrain_area_px(self) -> int:
        return self.pretrain_width_px * self.pretrain_height_px

    @property
    def aspect(self) -> float:
        return self.pretrain_width_px / self.pretrain_height_px


@dataclass(frozen=True, order=True)
class SliceGrid:
    """A slicing grid of cols_m columns by rows_n rows."""

    cols_m: int
    rows_n: int

    def __post_init__(self):
        if self.cols_m < 1 or self.rows_n < 1:
            raise ValueError("grid dimensions must be >= 1")

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
class PartitionPlan:
    image: ImageSize
    vit: VitSpec
    grid: SliceGrid
    score: float
    ideal_n: int
    slice_rects: tuple[PixelRect, ...] = field(repr=False)

    def to_json_dict(self) -> dict:
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
        }


def ideal_slice_count(image: ImageSize, vit: VitSpec) -> int:
    """Ceiling of image area over encoder pretraining area, at least 1."""
    n = -(-(image.width_px * image.height_px) // vit.pretrain_area_px)
    return max(1, n)


def candidate_grids(n: int) -> set[SliceGrid]:
    """All column/row factorizations of n-1, n and n+1 (0 slices excluded)."""
    if n < 1:
        raise ValueError("slice count must be >= 1")
    out: set[SliceGrid] = set()
    for target in (n - 1, n, n + 1):
        if target < 1:
            continue
        for m in range(1, target + 1):
            if target % m == 0:
                out.add(SliceGrid(cols_m=m, rows_n=target // m))
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


def select_partition(image: ImageSize, vit: VitSpec) -> PartitionPlan:
    """Pick the grid maximizing the partition score over the candidate set, exactly for integer sizes.

    A grid whose slices would be narrower or shorter than one patch cannot be encoded; the image is
    then kept whole (1x1).  Within 14..4032 px per side this happens only below one encoder tile
    (N=1), where the N+1 candidates 2x1 and 1x2 would cut slices of a few pixels.
    """
    n = ideal_slice_count(image, vit)
    p, q = image.width_px * vit.pretrain_height_px, image.height_px * vit.pretrain_width_px
    grid = grid_table(n)[0][grid_index(n, p * p, q * q)]
    if image.width_px // grid.cols_m < vit.patch_px or image.height_px // grid.rows_n < vit.patch_px:
        grid = SliceGrid(1, 1)
    return PartitionPlan(
        image=image,
        vit=vit,
        grid=grid,
        score=partition_score(image, vit, grid),
        ideal_n=n,
        slice_rects=slice_rectangles(image, grid),
    )
