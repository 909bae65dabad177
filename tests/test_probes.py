import math
import random
import re
from fractions import Fraction
import time
import tracemalloc

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit import probes
from slicekit.partition import ImageSize
from slicekit.probes import (
    COLORS,
    MAX_CELLS,
    SHAPES,
    TILE_PX,
    CanvasLimitError,
    SceneObject,
    SyntheticScene,
    TileStarts,
    _covers,
    _fragment_count,
    _tiles_holding,
    _tiles_meeting,
    heatmap_probe,
    object_multiplicity,
    overlap_tile_cover,
    padding_probe_scene,
    padding_waste,
    phase_classify,
    render_scene,
)

CLUSTER = tuple(
    SceneObject("circle", "red", (dx, dy), 24.0)
    for dx, dy in ((0.0, 0.0), (32.0, 0.0), (0.0, 32.0), (32.0, 32.0))
)


def predicted_count(scene, cover):
    """The overlap-multiplicity answer: each object counted once per tile covering its center."""
    return sum(object_multiplicity(obj, cover) for obj in scene.objects)


class TestTileCover:
    def test_small_image_single_padded_tile(self):
        cover = overlap_tile_cover(ImageSize(300, 400))
        assert (tuple(cover.xs), tuple(cover.ys)) == ((0,), (0,))

    def test_exact_multiple_disjoint(self):
        cover = overlap_tile_cover(ImageSize(1024, 512))
        assert cover.grid == (2, 1)
        assert (tuple(cover.xs), tuple(cover.ys)) == ((0, 512), (0,))

    def test_overlapping_positions(self):
        cover = overlap_tile_cover(ImageSize(768, 768))
        assert cover.grid == (2, 2)
        assert tuple(cover.xs) == tuple(cover.ys) == (0, 256)

    @given(st.integers(min_value=1, max_value=3000), st.integers(min_value=1, max_value=3000))
    def test_cover_reaches_both_edges(self, w, h):
        cover = overlap_tile_cover(ImageSize(w, h))
        for starts, side in ((cover.xs, w), (cover.ys, h)):
            assert starts[0] == 0 and starts[-1] + TILE_PX >= side
            assert list(starts) == sorted(starts)
        kx = math.ceil(w / 512) if w > 512 else 1
        ky = math.ceil(h / 512) if h > 512 else 1
        assert cover.grid == (kx, ky)

    @given(st.integers(1, 3000), st.integers(1, 3000), st.floats(0, 1, exclude_max=True),
           st.floats(0, 1, exclude_max=True), st.floats(0.5, 900))
    def test_per_axis_counts_equal_counting_every_tile(self, w, h, fx, fy, size):
        """A tile holds a point (or meets a box) exactly when both of its axis spans do."""
        cover = overlap_tile_cover(ImageSize(w, h))
        obj = SceneObject("square", "red", (fx * w, fy * h), size)
        (x, y), half, t = obj.center, size / 2, TILE_PX
        tiles = [(tx, ty) for tx in cover.xs for ty in cover.ys]
        assert object_multiplicity(obj, cover) == sum(tx <= x < tx + t and ty <= y < ty + t for tx, ty in tiles)
        scene = SyntheticScene(canvas=ImageSize(w, h), objects=(obj,))
        assert _fragment_count(scene, cover) == sum(
            x - half < tx + t and tx < x + half and y - half < ty + t and ty < y + half for tx, ty in tiles)

    @pytest.mark.parametrize("side", [10**19, 10**308])
    def test_cover_over_max_cells_refused_before_building_starts(self, side):
        start = time.perf_counter()
        with pytest.raises(CanvasLimitError, match=f"^canvas {side} x 80 needs {-(-side // TILE_PX)} x 1 tiles of "
                                                   f"{TILE_PX} px, more than the limit of {MAX_CELLS} tile starts$"):
            overlap_tile_cover(ImageSize(side, 80))
        assert time.perf_counter() - start < 1.0

    def test_cover_at_max_cells_axis_starts_is_built(self, monkeypatch):
        monkeypatch.setattr(probes, "MAX_CELLS", 4)
        assert overlap_tile_cover(ImageSize(1024, 1024)).grid == (2, 2)
        with pytest.raises(CanvasLimitError, match="^canvas 1025 x 1024 needs 3 x 2 tiles of 512 px, more than the "
                                                   "limit of 4 tile starts$"):
            overlap_tile_cover(ImageSize(1025, 1024))

    def test_cover_of_a_huge_canvas_holds_only_the_axis_starts(self):
        """probe phases --scale 1e5 on a 100x80 scene: a 10^7 x 8*10^6 px canvas, about 3*10^8 tiles."""
        scene = SyntheticScene(canvas=ImageSize(100, 80), objects=(
            SceneObject("circle", "red", (30.0, 40.0), 10.0), SceneObject("square", "blue", (70.0, 20.0), 8.0)))
        tracemalloc.start()
        try:
            phase, answers = phase_classify(scene, 1e5)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert overlap_tile_cover(scene.scaled(1e5).canvas).grid == (19532, 15625)
        assert (phase, answers) == (2, {2, 6263039})
        assert peak < 8e6

    @given(st.integers(min_value=TILE_PX, max_value=10**22), st.integers(min_value=1, max_value=300))
    def test_starts_equal_the_tuple_of_rounded_strides(self, length, k):
        stride = (length - TILE_PX) / max(1, k - 1)
        starts = TileStarts(length, k)
        assert tuple(starts) == tuple(0 if k == 1 else round(i * stride) for i in range(k))
        assert len(starts) == k and starts[-1] == starts[k - 1]
        with pytest.raises(IndexError):
            starts[k]

    def test_starts_of_every_cover_up_to_64_tiles_equal_the_tuple(self):
        for length in range(1, 64 * TILE_PX + 1, 5):
            k = -(-length // TILE_PX)
            stride = (length - TILE_PX) / max(1, k - 1)
            expected = (0,) if k == 1 else tuple(round(i * stride) for i in range(k))
            assert tuple(overlap_tile_cover(ImageSize(length, 1)).xs) == expected, length

    @given(st.integers(min_value=TILE_PX, max_value=10**22), st.integers(min_value=1, max_value=40),
           st.integers(min_value=0, max_value=39), st.sampled_from([-TILE_PX, -1, -0.5, 0, 0.5, 1, TILE_PX - 1]),
           st.floats(min_value=0, max_value=2000))
    def test_bisected_counts_equal_counting_every_start(self, length, k, i, offset, width):
        """Points near a start compare with the int starts exactly, also where floats are coarser than 1 px."""
        starts = TileStarts(length, k)
        v = float(starts[i % k] + offset)
        assert _tiles_holding(starts, v) == sum(s <= v < s + TILE_PX for s in starts)
        lo, hi = v - width, v + width
        assert _tiles_meeting(starts, lo, hi) == sum(lo < s + TILE_PX and s < hi for s in starts)

    def test_cover_of_two_to_the_twenty_starts_takes_constant_memory(self):
        """A 512 * 2^20 px side: the starts are computed when counted, not held (a tuple took 42 MB)."""
        side = TILE_PX * 2**20
        start = time.perf_counter()
        tracemalloc.start()
        try:
            cover = overlap_tile_cover(ImageSize(side, 80))
            counts = [_tiles_holding(cover.xs, v) for v in (0.0, 511.5, 512.0, side / 3, side - 1.0)]
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert cover.grid == (2**20, 1) and cover.xs[-1] == side - TILE_PX
        assert counts == [1, 1, 1, 1, 1]
        assert peak < 64 * 1024
        assert time.perf_counter() - start < 1.0


class TestCounting:
    def test_multiplicity_in_overlap_band(self):
        cover = overlap_tile_cover(ImageSize(768, 768))
        corner = SceneObject("square", "red", (10.0, 10.0), 8.0)
        band_x = SceneObject("square", "red", (300.0, 10.0), 8.0)
        band_both = SceneObject("square", "red", (300.0, 300.0), 8.0)
        assert object_multiplicity(corner, cover) == 1
        assert object_multiplicity(band_x, cover) == 2
        assert object_multiplicity(band_both, cover) == 4

    def test_disjoint_cover_returns_ground_truth(self):
        canvas = ImageSize(1024, 512)
        objs = tuple(SceneObject("circle", "blue", (100.0 + 150 * i, 200.0), 30.0) for i in range(5))
        scene = SyntheticScene(canvas=canvas, objects=objs)
        assert predicted_count(scene, overlap_tile_cover(canvas)) == 5

    def test_heatmap_value_set(self):
        matrix = heatmap_probe(ImageSize(768, 768), CLUSTER, 64)
        values = {v for row in matrix for v in row}
        assert values == {4, 8, 16}

    @given(
        st.integers(1, 1100), st.integers(1, 1100),
        st.lists(st.tuples(st.floats(0, 600) | st.integers(0, 600), st.floats(0, 600) | st.integers(0, 600)),
                 min_size=1, max_size=4),
        st.integers(16, 200),
    )
    def test_heatmap_equals_per_placement_scenes(self, w, h, centers, step):
        canvas = ImageSize(w, h)
        template = tuple(SceneObject("square", "red", c, 10.0) for c in centers)
        cover = overlap_tile_cover(canvas)
        expected = [
            [predicted_count(SyntheticScene(canvas, tuple(
                SceneObject(o.shape, o.color, (o.center[0] + ox, o.center[1] + oy), o.size) for o in template)), cover)
             for ox in range(0, w - math.ceil(max(c[0] for c in centers)), step)]
            for oy in range(0, h - math.ceil(max(c[1] for c in centers)), step)
        ]
        assert heatmap_probe(canvas, template, step) == expected

    def test_heatmap_one_pixel_step_on_a_large_canvas(self):
        matrix = heatmap_probe(ImageSize(1000, 1000), CLUSTER, 1)
        assert (len(matrix), len(matrix[0])) == (968, 968)
        cover = overlap_tile_cover(ImageSize(1000, 1000))
        for oy, ox in ((0, 0), (455, 500), (487, 488), (967, 967), (300, 700)):
            placed = tuple(SceneObject("circle", "red", (o.center[0] + ox, o.center[1] + oy), 24.0) for o in CLUSTER)
            assert matrix[oy][ox] == predicted_count(SyntheticScene(ImageSize(1000, 1000), placed), cover)

    def test_heatmap_centre_outside_canvas_raises_only_with_a_placement(self):
        template = (SceneObject("circle", "red", (-5.0, 10.0), 24.0),)
        with pytest.raises(ValueError, match=r"object center \(-5.0, 10.0\) outside canvas"):
            heatmap_probe(ImageSize(768, 768), template, 64)
        assert heatmap_probe(ImageSize(768, 10), template, 64) == []  # no row fits, so nothing is placed
        assert heatmap_probe(ImageSize(10, 30), (SceneObject("circle", "red", (20.0, -5.0), 24.0),), 8) == [[]] * 5

    @pytest.mark.parametrize("step", [0, -5])
    def test_heatmap_rejects_grid_step_below_one(self, step):
        with pytest.raises(ValueError, match=f"^grid_step_px must be >= 1, got {step}$"):
            heatmap_probe(ImageSize(768, 768), CLUSTER, step)

    @pytest.mark.parametrize("canvas, template, shape", [
        (ImageSize(100_000, 100_000), CLUSTER, "99968 x 99968"),
        (ImageSize(10, 10**8), (SceneObject("circle", "red", (20.0, -5.0), 24.0),), "0 x 100000005"),  # empty rows
        # past 2^63 placements: counted, not taken as len(range)
        *(pytest.param(ImageSize(10**e, 80), CLUSTER, f"{10**e - 32} x 48", id=f"side-1e{e}") for e in (30, 308)),
    ])
    def test_heatmap_over_max_cells_refused_before_allocating(self, canvas, template, shape):
        tracemalloc.start()
        try:
            message = (f"^heatmap of {shape} placements on the {canvas.width_px} x {canvas.height_px} canvas "
                       f"is more than the limit of {MAX_CELLS}$")
            with pytest.raises(CanvasLimitError, match=message):
                heatmap_probe(canvas, template, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20


class TestPhases:
    def test_phase_one_at_low_resolution(self):
        scene = SyntheticScene(
            canvas=ImageSize(1600, 1600),
            objects=tuple(SceneObject("circle", "white", (200.0 + 300 * i, 800.0), 60.0) for i in range(4)),
        )
        phase, answers = phase_classify(scene, 0.25)  # 400px: single padded tile
        assert phase == 1
        assert answers == {4}

    def test_phase_three_with_overlap_hits(self):
        scene = SyntheticScene(
            canvas=ImageSize(768, 768),
            objects=(SceneObject("circle", "red", (300.0, 300.0), 40.0),),
        )
        phase, answers = phase_classify(scene, 1.0)
        assert phase == 3
        assert 4 in answers  # quadrupled count in the double-overlap band

    @pytest.mark.parametrize("scale, expected", [(1.0, (2, {0})), (1.5, (2, {0})), (0.4, (1, {0}))])
    def test_scene_without_objects(self, scale, expected):
        """1100x800 spans 3x2 tiles, and 1.5x 4x3; at 0.4 it fits one padded tile."""
        assert phase_classify(SyntheticScene(canvas=ImageSize(1100, 800), objects=()), scale) == expected

    def test_phase_two_disjoint_tiles(self):
        scene = SyntheticScene(
            canvas=ImageSize(1024, 512),
            objects=(SceneObject("square", "green", (100.0, 100.0), 30.0),),
        )
        phase, answers = phase_classify(scene, 1.0)
        assert phase == 2
        assert 1 in answers


class TestPadding:
    def test_quarter_waste(self):
        assert padding_waste(1.0, 4.0) == 0.25
        assert padding_waste(4.0, 1.0) == 0.25
        assert padding_waste(3.0, 3.0) == 1.0

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            padding_waste(0.0, 1.0)
        for bad in (math.nan, math.inf, -math.inf):
            with pytest.raises(ValueError):
                padding_waste(bad, 4.0)
            with pytest.raises(ValueError):
                padding_waste(1.0, bad)

    def test_probe_scene_covers_expected_fraction(self):
        scene = padding_probe_scene(1.0, 4.0)
        img = render_scene(scene)
        header_end = img.index(b"255\n") + 4
        body = img[header_end:]
        grey = bytes((128, 128, 128))
        content = sum(1 for i in range(0, len(body), 3) if body[i : i + 3] != grey)
        total = scene.canvas.width_px * scene.canvas.height_px
        assert content / total == pytest.approx(0.25, abs=0.02)


def render_by_rows(scene):
    """The per-pixel reference: _covers at every pixel centre of each object's bounding box, one bytearray per row."""
    w, h = scene.canvas.width_px, scene.canvas.height_px
    rows = [bytearray(COLORS[scene.background] * w) for _ in range(h)]
    for obj in scene.objects:
        (cx, cy), half = obj.center, obj.size / 2
        for py in range(max(0, math.floor(cy - half)), min(h - 1, math.ceil(cy + half)) + 1):
            for px in range(max(0, math.floor(cx - half)), min(w - 1, math.ceil(cx + half)) + 1):
                if _covers(obj, px + 0.5, py + 0.5):
                    rows[py][3 * px : 3 * px + 3] = bytes(COLORS[obj.color])
    return f"P6\n{w} {h}\n255\n".encode() + b"".join(bytes(r) for r in rows)


@st.composite
def scenes(draw):
    """Canvases of 1-48 px per side (often 1-3) holding 0-5 objects of any shape and colour, some larger than it."""
    w, h = (draw(st.integers(1, 3) | st.integers(1, 48)) for _ in range(2))
    center = st.tuples(st.floats(0, w, exclude_max=True), st.floats(0, h, exclude_max=True))
    obj = st.builds(SceneObject, st.sampled_from(SHAPES), st.sampled_from(sorted(COLORS)), center, st.floats(0.01, 70))
    objects = tuple(draw(st.lists(obj, max_size=5)))
    return SyntheticScene(ImageSize(w, h), objects, draw(st.sampled_from(sorted(COLORS))))


class TestRendering:
    @given(scenes())
    def test_flat_buffer_equals_rows_joined(self, scene):
        assert render_scene(scene) == render_by_rows(scene)

    @pytest.mark.parametrize("w, h", [(1, 1), (1, 7), (7, 1)])
    def test_one_pixel_canvases_with_and_without_objects(self, w, h):
        empty = SyntheticScene(ImageSize(w, h), ())
        dot = SyntheticScene(ImageSize(w, h), (SceneObject("square", "red", (0.5, 0.5), 1.0),))
        assert render_scene(empty) == render_by_rows(empty) == f"P6\n{w} {h}\n255\n".encode() + b"\x80" * (3 * w * h)
        assert render_scene(dot) == render_by_rows(dot)
        assert render_scene(dot)[-3 * w * h :][:3] == bytes(COLORS["red"])

    @pytest.mark.parametrize("shape", SHAPES)
    def test_row_runs_equal_per_pixel_reference_at_every_edge(self, shape):
        # centres within a pixel of each edge and corner, objects under 1 px, and objects past the canvas or float range
        w, h = 37, 23
        centres = [(x, y) for x in (0.0, 0.4, 18.5, 36.6, w - 1e-9) for y in (0.0, 0.7, 11.5, 22.3, h - 1e-9)]
        for size in (0.01, 0.6, 0.999, 1.0, 1.5, 7.3, 30.0, 80.0, 1e308):
            objects = tuple(SceneObject(shape, "red", c, size) for c in centres)
            scene = SyntheticScene(ImageSize(w, h), objects)
            assert render_scene(scene) == render_by_rows(scene), size

    @pytest.mark.parametrize("block_bytes", [probes.RENDER_BLOCK_BYTES, 1, 200])  # one row or a few per block
    def test_row_runs_equal_per_pixel_reference_on_seeded_scenes(self, block_bytes, monkeypatch):
        monkeypatch.setattr(probes, "RENDER_BLOCK_BYTES", block_bytes)
        rng = random.Random(block_bytes)

        def through_a_centre(shape, cx, cy, w, h):
            """A size whose edge passes within 2 ulps of some pixel centre, where a run's end is decided by rounding."""
            dx, dy = rng.randrange(w) + 0.5 - cx, rng.randrange(h) + 0.5 - cy
            size = {"square": 2 * abs(dx), "circle": 2 * math.hypot(dx, dy), "triangle": 2 * (2 * abs(dx) - dy)}[shape]
            for _ in range(rng.randint(0, 2)):
                size = math.nextafter(size, rng.choice([0, math.inf]))
            return size if 0 < size < math.inf else 1.0

        for _ in range(150):
            w, h = rng.randint(1, 90), rng.randint(1, 90)
            objects = []
            for shape in rng.sample(SHAPES * 2, rng.randint(1, 6)):
                cx, cy = rng.uniform(0, w) % w, rng.uniform(0, h) % h
                size = rng.choice([rng.uniform(0.01, 1.0), rng.uniform(1.0, 2.5 * max(w, h)), float(rng.randint(1, 40)),
                                   through_a_centre(shape, cx, cy, w, h), through_a_centre(shape, cx, cy, w, h)])
                objects.append(SceneObject(shape, rng.choice(sorted(COLORS)), (cx, cy), size))
            scene = SyntheticScene(ImageSize(w, h), tuple(objects), rng.choice(sorted(COLORS)))
            assert render_scene(scene) == render_by_rows(scene), scene

    @pytest.mark.parametrize("w, h", [(1, 2**20), (3, 2**18), (1100, 800), (2**20, 1)])
    def test_render_peaks_below_two_images(self, w, h):
        scene = SyntheticScene(ImageSize(w, h), (SceneObject("circle", "red", (w / 2, h / 2), 9.0),))
        tracemalloc.start()
        try:
            render_scene(scene)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * 3 * w * h + 2 * probes.RENDER_BLOCK_BYTES, peak  # the returned file is one image

    def test_render_over_max_cells_refused_before_allocating(self, monkeypatch):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^scene of {MAX_CELLS + 1} x 1 pixels is more than the limit of "):
                render_scene(SyntheticScene(ImageSize(MAX_CELLS + 1, 1), ()))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**20
        monkeypatch.setattr(probes, "MAX_CELLS", 12)
        assert len(render_scene(SyntheticScene(ImageSize(4, 3), ()))) == len(b"P6\n4 3\n255\n") + 36
        with pytest.raises(ValueError, match="^scene of 13 x 1 pixels is more than the limit of 12 pixels$"):
            render_scene(SyntheticScene(ImageSize(13, 1), ()))

    def test_ppm_header_and_size(self):
        scene = SyntheticScene(canvas=ImageSize(20, 10), objects=())
        img = render_scene(scene)
        assert img.startswith(b"P6\n20 10\n255\n")
        assert len(img) == len(b"P6\n20 10\n255\n") + 20 * 10 * 3

    def test_deterministic_bytes(self):
        scene = SyntheticScene(
            canvas=ImageSize(64, 64),
            objects=(
                SceneObject("circle", "red", (20.0, 20.0), 16.0),
                SceneObject("triangle", "blue", (44.0, 44.0), 18.0),
            ),
        )
        assert render_scene(scene) == render_scene(scene)

    def test_center_pixel_colored(self):
        scene = SyntheticScene(
            canvas=ImageSize(31, 31), objects=(SceneObject("square", "green", (15.0, 15.0), 10.0),)
        )
        img = render_scene(scene)
        body = img[img.index(b"255\n") + 4 :]
        center = body[3 * (15 * 31 + 15) : 3 * (15 * 31 + 15) + 3]
        assert center == bytes((40, 170, 60))

    def test_scaled_scene(self):
        scene = SyntheticScene(
            canvas=ImageSize(100, 200), objects=(SceneObject("circle", "red", (50.0, 100.0), 20.0),)
        )
        small = scene.scaled(0.5)
        assert small.canvas == ImageSize(50, 100)
        assert small.objects[0].center == (25.0, 50.0)
        assert small.objects[0].size == 10.0

    @pytest.mark.parametrize("side, factor", [(10**30, 1.0), (10**30, 1.5), (10**30, 0.4), (2**53 + 1, 1.0),
                                              (1100, 0.4), (800, 1.5), (5, 0.1)])
    def test_scaled_sides_are_exact(self, side, factor):
        """Each side is round(side * factor) of the exact values: 10^30 at scale 1.0 stays 10^30."""
        scene = SyntheticScene(canvas=ImageSize(side, side), objects=())
        expected = max(1, round(Fraction(side) * Fraction(factor)))
        assert scene.scaled(factor).canvas == ImageSize(expected, expected)
        if factor == 1.0:
            assert expected == side

    @pytest.mark.parametrize("factor", [math.inf, math.nan, 0.0, -1.0])
    def test_scaled_rejects_scale_not_finite_and_positive(self, factor):
        scene = SyntheticScene(canvas=ImageSize(100, 200), objects=(SceneObject("circle", "red", (50.0, 100.0), 20.0),))
        with pytest.raises(ValueError, match=f"scale must be finite and > 0, got {factor}$"):
            scene.scaled(factor)

    @pytest.mark.parametrize("center, size, message", [
        ((5.0, 5.0), 0.0, "object size must be finite and > 0, got 0.0"),
        ((5.0, 5.0), -1.0, "object size must be finite and > 0, got -1.0"),
        ((5.0, 5.0), math.inf, "object size must be finite and > 0, got inf"),
        ((5.0, 5.0), math.nan, "object size must be finite and > 0, got nan"),
        ((), 2.0, "object center must be two finite numbers, got ()"),
        ((5.0,), 2.0, "object center must be two finite numbers, got (5.0,)"),
        ((5.0, 5.0, 5.0), 2.0, "object center must be two finite numbers, got (5.0, 5.0, 5.0)"),
        ((math.inf, 5.0), 2.0, "object center must be two finite numbers, got (inf, 5.0)"),
        ((5.0, math.nan), 2.0, "object center must be two finite numbers, got (5.0, nan)"),
    ])
    def test_object_needs_a_finite_positive_size_and_a_finite_centre(self, center, size, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            SceneObject("circle", "red", center, size)

    def test_validation(self):
        with pytest.raises(ValueError):
            SceneObject("hexagon", "red", (0.0, 0.0), 5.0)
        with pytest.raises(ValueError):
            SyntheticScene(canvas=ImageSize(10, 10), objects=(SceneObject("circle", "red", (50.0, 5.0), 2.0),))
        with pytest.raises(ValueError, match="unknown background 'pink'"):
            SyntheticScene(canvas=ImageSize(10, 10), objects=(), background="pink")
