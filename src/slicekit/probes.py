"""Simulators for visual-encoding failure modes of fixed-tile pipelines.

Models a proprietary-style high-resolution mode that covers an image with
fixed 512px tiles (padding below tile size, equal-overlap placement when the
resolution is not tile-divisible), predicts object-counting answers under
the overlap-multiplicity hypothesis, and probes square-padding waste.
Scenes are synthetic shape arrangements rendered to portable pixmaps.
"""

from __future__ import annotations

import bisect
import math
import sys
from collections.abc import Sequence
from dataclasses import dataclass

from .counts import require_count, require_holder, require_real
from .partition import ImageSize

COLORS = {
    "red": (220, 40, 40),
    "green": (40, 170, 60),
    "white": (255, 255, 255),
    "blue": (40, 80, 220),
    "grey": (128, 128, 128),
}
SHAPES = ("circle", "triangle", "square")
TILE_PX = 512  # the fixed tile of the modelled high-resolution mode
PROBE_SIDE_PX = 336  # canvas side of the padding probe: one square encoder input
MAX_CELLS = 2**25  # most heatmap placements, tile starts or rendered pixels; bounds memory (a pixel is 3 bytes)
RENDER_BLOCK_BYTES = 2**16  # whole rows per rendered block, about this many bytes: a render joins at most ~3000 blocks


class CanvasLimitError(ValueError):
    """A canvas whose tile cover or heatmap would hold more than MAX_CELLS entries; the message names the canvas."""


@dataclass(frozen=True)
class SceneObject:
    shape: str
    color: str
    center: tuple[float, float]
    size: float

    def __post_init__(self):
        if self.shape not in SHAPES:
            raise ValueError(f"unknown shape {self.shape!r}")
        if self.color not in COLORS:
            raise ValueError(f"unknown color {self.color!r}")
        require_real("object size", self.size, above=0, most=sys.float_info.max)  # the probes work in floats
        if len(self.center) != 2:
            raise ValueError(f"object center must be two finite numbers, got {self.center}")
        for v in self.center:
            require_real("object center", v, most=sys.float_info.max)


@dataclass(frozen=True)
class SyntheticScene:
    canvas: ImageSize
    objects: tuple[SceneObject, ...]
    background: str = "grey"

    def __post_init__(self):
        require_holder("canvas", self.canvas, ImageSize)
        if self.background not in COLORS:
            raise ValueError(f"unknown background {self.background!r}")
        for obj in require_holder("objects", self.objects, SceneObject, many=True):
            x, y = obj.center
            if not (0 <= x < self.canvas.width_px and 0 <= y < self.canvas.height_px):
                raise ValueError(f"object center {obj.center} outside canvas")

    def scaled(self, factor: float) -> "SyntheticScene":
        require_real("scene scale", factor, above=0, most=sys.float_info.max)
        from fractions import Fraction  # only scaling needs it; the CLI's other commands skip its import

        # exact: a side beyond 2**53 px keeps its own digits, not the nearest float's
        w = max(1, round(Fraction(self.canvas.width_px) * Fraction(factor)))
        h = max(1, round(Fraction(self.canvas.height_px) * Fraction(factor)))
        objs = tuple(
            SceneObject(o.shape, o.color, (o.center[0] * factor, o.center[1] * factor), o.size * factor)
            for o in self.objects
        )
        return SyntheticScene(canvas=ImageSize(w, h), objects=objs, background=self.background)


@dataclass(frozen=True)
class TileStarts(Sequence):
    """Start offsets of ``k`` TILE_PX tiles along one axis of ``length`` px, ascending: equal-overlap placement.

    Start i is round(i * stride) for stride (length - TILE_PX) / (k - 1), computed when asked for, so an axis of
    any number of tiles takes constant memory.
    """

    length: int
    k: int

    def __len__(self) -> int:
        return self.k

    def __getitem__(self, i: int) -> int:
        if not -self.k <= i < self.k:
            raise IndexError(f"tile {i} of {self.k}")
        if self.k == 1:
            return 0
        stride = (self.length - TILE_PX) / (self.k - 1)
        return round((i % self.k) * stride)


@dataclass(frozen=True)
class SliceCover:
    """One TILE_PX square tile at every (x, y) with x in xs and y in ys: the tile starts per axis, ascending."""

    xs: TileStarts
    ys: TileStarts

    @property
    def grid(self) -> tuple[int, int]:
        """Tiles along (x, y)."""
        return len(self.xs), len(self.ys)


def overlap_tile_cover(canvas: ImageSize) -> SliceCover:
    """Cover the (padded) canvas with ceil(W/tile) x ceil(H/tile) fixed TILE_PX tiles.

    Images at or below the tile size are padded into a single tile.  When an
    axis is not tile-divisible the tiles overlap: they are spread at stride
    (dim - tile)/(k - 1), rounded to integer pixels.  The tile counts are
    refused over MAX_CELLS axis starts before any start is built.
    """
    w, h = require_holder("canvas", canvas, ImageSize).width_px, canvas.height_px
    nx, ny = -(-w // TILE_PX), -(-h // TILE_PX)
    if nx + ny > MAX_CELLS:
        raise CanvasLimitError(f"canvas {w} x {h} needs {nx} x {ny} tiles of {TILE_PX} px, more than the limit of "
                               f"{MAX_CELLS} tile starts")
    return SliceCover(xs=TileStarts(w, nx), ys=TileStarts(h, ny))


def _tile_end(start: int) -> int:
    return start + TILE_PX


# The starts ascend, so each count is the difference of two bisections; each compares the int starts (or ends)
# with the float point exactly, as ``s <= v < s + TILE_PX`` does.
def _tiles_holding(starts: TileStarts, v: float) -> int:
    """Tiles along one axis whose half-open span [s, s + TILE_PX) holds v."""
    return bisect.bisect_right(starts, v) - bisect.bisect_right(starts, v, key=_tile_end)


def _tiles_meeting(starts: TileStarts, lo: float, hi: float) -> int:
    """Tiles along one axis whose span meets the open interval (lo, hi)."""
    return bisect.bisect_left(starts, hi) - bisect.bisect_right(starts, lo, key=_tile_end)  # lo <= hi: a subset


def object_multiplicity(obj: SceneObject, cover: SliceCover) -> int:
    """Number of tiles whose (half-open) extent contains the object center.

    A tile contains a point exactly when both of its axis spans do, so the count is the product of the per-axis counts.
    """
    x, y = require_holder("obj", obj, SceneObject).center
    return _tiles_holding(require_holder("cover", cover, SliceCover).xs, x) * _tiles_holding(cover.ys, y)


def heatmap_probe(
    canvas: ImageSize,
    object_template: tuple[SceneObject, ...],
    grid_step_px: int,
) -> list[list[int]]:
    """Predicted count at every template placement on a regular position grid.

    The template's object centers are offsets from the placement origin; the
    returned matrix is indexed [row][col] over origins spaced grid_step_px
    apart, keeping only placements where the whole template fits.
    """
    if not require_holder("object_template", object_template, SceneObject, many=True):
        raise ValueError("object template must contain at least one object")
    grid_step_px = require_count("grid_step_px", grid_step_px, 1)
    # origins 0, step, ... below each far edge less the template's reach: ceil(stop / step) of them, if stop > 0
    stop_x = require_holder("canvas", canvas, ImageSize).width_px - math.ceil(max(o.center[0] for o in object_template))
    stop_y = canvas.height_px - math.ceil(max(o.center[1] for o in object_template))
    cols, rows = max(0, -(-stop_x // grid_step_px)), max(0, -(-stop_y // grid_step_px))
    if rows * max(cols, 1) > MAX_CELLS:  # a row without placements is still one list
        raise CanvasLimitError(f"heatmap of {cols} x {rows} placements on the {canvas.width_px} x {canvas.height_px} "
                               f"canvas is more than the limit of {MAX_CELLS}")
    oxs, oys = range(0, stop_x, grid_step_px), range(0, stop_y, grid_step_px)
    if not (oxs and oys):
        return [[] for _ in oys]
    # offsets only grow from the origin and every placement fits below the far edges, so the template
    # placed at the origin is the one that can put a centre outside the canvas
    SyntheticScene(canvas, object_template)
    cover = overlap_tile_cover(canvas)
    # a tile holds a centre exactly when both axis spans do: per object, tiles along x times tiles along y
    along_x = list(zip(*([_tiles_holding(cover.xs, o.center[0] + ox) for ox in oxs] for o in object_template)))
    rows: dict[tuple[int, ...], list[int]] = {}
    matrix = []
    for along_y in zip(*([_tiles_holding(cover.ys, o.center[1] + oy) for oy in oys] for o in object_template)):
        if along_y not in rows:  # placements whose per-object y counts agree have equal rows
            rows[along_y] = [sum(x * y for x, y in zip(xs, along_y)) for xs in along_x]
        matrix.append(list(rows[along_y]))
    return matrix


def phase_classify(scene: SyntheticScene, resolution_scale: float) -> tuple[int, set[int]]:
    """Resize the scene and classify the tiling regime.

    Phase 1: single (padded) tile, answers match ground truth.  Phase 2:
    multiple tiles but no center sits in an overlap band; elevated answers
    come from objects cut by tile borders.  Phase 3: overlap multiplicities
    kick in, mixing ground truth, fragment counts and multiplied counts.
    """
    resized = require_holder("scene", scene, SyntheticScene).scaled(resolution_scale)
    truth = len(resized.objects)
    cover = overlap_tile_cover(resized.canvas)
    if cover.grid == (1, 1):
        return 1, {truth}

    multiplicities = [object_multiplicity(o, cover) for o in resized.objects]
    phase = 3 if max(multiplicities, default=0) > 1 else 2
    return phase, {truth, sum(multiplicities), _fragment_count(resized, cover)}


def _fragment_count(scene: SyntheticScene, cover: SliceCover) -> int:
    """Objects counted once per tile their bounding box overlaps (cut pieces): per object, a product of per-axis counts."""
    total = 0
    for obj in scene.objects:
        (x, y), half = obj.center, obj.size / 2
        total += _tiles_meeting(cover.xs, x - half, x + half) * _tiles_meeting(cover.ys, y - half, y + half)
    return total


def padding_waste(aspect_w: float, aspect_h: float) -> float:
    """Fraction of square-padded computation spent on real content."""
    require_real("aspect_w", aspect_w, above=0, most=sys.float_info.max)
    require_real("aspect_h", aspect_h, above=0, most=sys.float_info.max)
    return min(aspect_w, aspect_h) / max(aspect_w, aspect_h)


def render_scene(scene: SyntheticScene) -> bytes:
    """Deterministic P6 portable-pixmap rasterization (no anti-aliasing).

    Every shape is convex and its cover test at pixel centre (x, y) is monotone in |x - cx| as rounded, so each row's
    covered pixels form one run through the pixel nearest cx (none if that one is not covered).  Its ends start from
    the shape's half-width in the row and move pixel by pixel until the cover test flips, so every pixel gets the
    same answer as a test of each centre would give.
    """
    w, h = require_holder("scene", scene, SyntheticScene).canvas.width_px, scene.canvas.height_px
    if w * h > MAX_CELLS:
        raise ValueError(f"scene of {w} x {h} pixels is more than the limit of {MAX_CELLS} pixels")
    # blocks of whole rows, about RENDER_BLOCK_BYTES each, made when first written; the untouched share a background
    per_block = max(1, RENDER_BLOCK_BYTES // (3 * w))
    pattern = bytes(COLORS[scene.background])
    blocks: list[bytearray | None] = [None] * -(-h // per_block)
    for obj in scene.objects:
        color = bytes(COLORS[obj.color])
        cx, cy = obj.center
        half = obj.size / 2
        y0 = max(0, math.floor(cy - half))
        y1 = min(h - 1, math.ceil(cy + half))
        x0 = max(0, math.floor(cx - half))
        x1 = min(w - 1, math.ceil(cx + half))
        mid = math.floor(cx)  # the centre nearest cx; within [x0, x1], as the scene holds cx in [0, w)
        for py in range(y0, y1 + 1):
            y = py + 0.5
            if not _covers(obj, mid + 0.5, y):
                continue
            reach = _half_width(obj, y)
            # guesses clamped before rounding, as the reach of a huge object may be inf
            lo = _run_end(obj, y, math.ceil(min(max(cx - reach - 0.5, x0), mid)), -1, x0)
            hi = _run_end(obj, y, math.floor(max(min(cx + reach - 0.5, x1), mid)), 1, x1)
            b, row = divmod(py, per_block)
            if blocks[b] is None:
                blocks[b] = bytearray(pattern) * (w * min(per_block, h - b * per_block))
            i = 3 * (row * w)
            blocks[b][i + 3 * lo : i + 3 * (hi + 1)] = color * (hi - lo + 1)
    parts, background = [f"P6\n{w} {h}\n255\n".encode()], None
    for b, block in enumerate(blocks):
        if block is None:
            background = background or pattern * (w * per_block)
            block = background[: 3 * w * (h - b * per_block)]  # all of it but in a short last block
        parts.append(block)
    return b"".join(parts)


def _half_width(obj: SceneObject, y: float) -> float:
    """About how far from cx the shape reaches in the row at y; _run_end makes it exact."""
    half = obj.size / 2
    if obj.shape == "square":
        return half
    if obj.shape == "circle":
        return math.sqrt(max(0.0, half * half - (y - obj.center[1]) ** 2))
    return half * (y - (obj.center[1] - half)) / obj.size


def _run_end(obj: SceneObject, y: float, px: int, step: int, limit: int) -> int:
    """The last pixel of the row's covered run in direction step, from a guess px between the run's covered middle
    pixel and limit."""
    if _covers(obj, px + 0.5, y):
        while px != limit and _covers(obj, px + step + 0.5, y):
            px += step
    else:
        while not _covers(obj, px + 0.5, y):
            px -= step
    return px


def _covers(obj: SceneObject, x: float, y: float) -> bool:
    cx, cy = obj.center
    half = obj.size / 2
    if obj.shape == "square":
        return abs(x - cx) <= half and abs(y - cy) <= half
    if obj.shape == "circle":
        return (x - cx) ** 2 + (y - cy) ** 2 <= half * half
    # upward triangle: apex at (cx, cy-half), base corners at (cx +/- half, cy+half)
    if not (cy - half <= y <= cy + half):
        return False
    frac = (y - (cy - half)) / obj.size  # 0 at apex, 1 at base
    return abs(x - cx) <= half * frac


def padding_probe_scene(aspect_w: float, aspect_h: float) -> SyntheticScene:
    """Centered colored rectangle on a grey square PROBE_SIDE_PX canvas (padding-blindness probe)."""
    canvas = ImageSize(PROBE_SIDE_PX, PROBE_SIDE_PX)
    require_real("aspect_w", aspect_w, above=0, most=sys.float_info.max)
    require_real("aspect_h", aspect_h, above=0, most=sys.float_info.max)
    shift = -math.frexp(max(aspect_w, aspect_h))[1]  # exact: the longer aspect to [0.5, 1), so no overflow
    aspect_w, aspect_h = math.ldexp(aspect_w, shift), math.ldexp(aspect_h, shift)
    scale = PROBE_SIDE_PX / max(aspect_w, aspect_h)
    rect_w = max(1.0, aspect_w * scale)
    rect_h = max(1.0, aspect_h * scale)
    # a square object scaled per axis is not expressible; emulate the rectangle with ceil(long/short) squares
    # of side short, centred evenly from short/2 to long - short/2 along it, so their union is the rectangle
    long, short = max(rect_w, rect_h), min(rect_w, rect_h)
    count = math.ceil(long / short)
    offsets = ((PROBE_SIDE_PX - long + short) / 2 + i * (long - short) / max(1, count - 1) for i in range(count))
    centers = ((o, PROBE_SIDE_PX / 2) if rect_w >= rect_h else (PROBE_SIDE_PX / 2, o) for o in offsets)
    return SyntheticScene(canvas=canvas, objects=tuple(SceneObject("square", "green", c, short) for c in centers))
