import math
import random
import re
import time
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.counts import _shown
from slicekit.partition import ImageSize, VitSpec
from slicekit.patches import (
    PatchGrid,
    PosEmbedGrid,
    _interp_axis,
    _interpolated,
    fit_patch_grid,
    interpolate_pos_embed,
    overview_grid,
    reshape_pos_embed_1d_to_2d,
)

VIT = VitSpec()


def bilinear_oracle(values, new_rows, new_cols):
    """Independent align-corners bilinear interpolation, per output cell."""
    old_rows, old_cols, dim = values.shape
    out = np.empty((new_rows, new_cols, dim))
    for i in range(new_rows):
        y = 0.0 if new_rows == 1 else i * (old_rows - 1) / (new_rows - 1)
        y0 = min(int(np.floor(y)), max(old_rows - 2, 0))
        fy = y - y0
        for j in range(new_cols):
            x = 0.0 if new_cols == 1 else j * (old_cols - 1) / (new_cols - 1)
            x0 = min(int(np.floor(x)), max(old_cols - 2, 0))
            fx = x - x0
            y1 = min(y0 + 1, old_rows - 1)
            x1 = min(x0 + 1, old_cols - 1)
            top = values[y0, x0] * (1 - fx) + values[y0, x1] * fx
            bot = values[y1, x0] * (1 - fx) + values[y1, x1] * fx
            out[i, j] = top * (1 - fy) + bot * fy
    return out


def search_fit_patch_grid(slice_w_px, slice_h_px, vit):
    """The depth-first search that fit_patch_grid's closed-form candidate set replaced, kept as its oracle."""
    if slice_w_px < vit.patch_px or slice_h_px < vit.patch_px:
        raise ValueError(f"degenerate slice: {slice_w_px}x{slice_h_px} is smaller than one {vit.patch_px}px patch")
    budget = vit.token_budget
    cap_c = int(slice_w_px // vit.patch_px)
    cap_r = int(slice_h_px // vit.patch_px)
    aspect = slice_w_px / slice_h_px
    ideal_c = math.sqrt(budget * aspect)
    ideal_r = math.sqrt(budget / aspect)

    seen: set[tuple[int, int]] = set()
    stack = [
        (min(max(c, 1), cap_c), min(max(r, 1), cap_r))
        for c in (math.floor(ideal_c), math.ceil(ideal_c))
        for r in (math.floor(ideal_r), math.ceil(ideal_r))
    ]
    feasible: list[tuple[int, int]] = []
    while stack:
        c, r = stack.pop()
        if c < 1 or r < 1 or (c, r) in seen:
            continue
        seen.add((c, r))
        if c * r <= budget:
            feasible.append((c, r))
        else:
            stack.append((c - 1, r))
            stack.append((c, r - 1))

    log_a = math.log(aspect)
    best = min(feasible, key=lambda cr: (abs(math.log(cr[0] / cr[1]) - log_a), -cr[0] * cr[1], -cr[0]))
    return PatchGrid(cols=best[0], rows=best[1])


# square, larger, 16 px patches, landscape, a 2x1 budget and a one-patch budget
ORACLE_SPECS = [VitSpec(336, 336, 14), VitSpec(448, 448, 14), VitSpec(224, 224, 16), VitSpec(336, 224, 14),
                VitSpec(28, 14, 14), VitSpec(14, 14, 14)]


def oracle_sides(vit, seed):
    """Every pair of 1..40 whole patches a side, integer sides log-uniform up to 10^7 and float sides."""
    p, rng = vit.patch_px, random.Random(seed)
    yield from ((i * p, j * p) for i in range(1, 41) for j in range(1, 41))
    yield from ((round(p * 10 ** rng.uniform(0, 5.8)), round(p * 10 ** rng.uniform(0, 5.8))) for _ in range(150))
    yield from ((rng.uniform(p, 1e4), rng.uniform(p, 1e4)) for _ in range(300))


class TestFitPatchGrid:
    def test_square_slice_uses_full_budget(self):
        assert fit_patch_grid(336, 336, VIT) == PatchGrid(cols=24, rows=24)

    def test_wide_slice(self):
        g = fit_patch_grid(500, 250, VIT)
        assert (g.cols, g.rows) == (33, 17)
        assert g.tokens <= VIT.token_budget

    def test_tiny_slice_capped_by_native_capacity(self):
        assert fit_patch_grid(14, 14, VIT) == PatchGrid(cols=1, rows=1)
        assert fit_patch_grid(28, 14, VIT) == PatchGrid(cols=2, rows=1)

    def test_overview_for_tall_image(self):
        g = overview_grid(ImageSize(672, 1008), VIT)
        assert (g.cols, g.rows) == (19, 29)
        assert g.tokens == 551 <= VIT.token_budget

    def test_degenerate_slice_rejected(self):
        with pytest.raises(ValueError, match="^degenerate slice: 10x100 is smaller than one 14px patch$"):
            fit_patch_grid(10, 100, VIT)

    @pytest.mark.parametrize("vit", ORACLE_SPECS,
                             ids=lambda v: f"{v.pretrain_width_px}x{v.pretrain_height_px}/{v.patch_px}")
    def test_matches_the_search_it_replaced(self, vit):
        sides = list(oracle_sides(vit, seed=vit.token_budget))
        sides += [(100000, vit.patch_px), (vit.patch_px, 100000), (10**7, 20), (20, 10**7)]
        for w, h in sides:
            assert fit_patch_grid(w, h, vit) == search_fit_patch_grid(w, h, vit), (w, h)

    @pytest.mark.parametrize("w, h", [(1.7e308, 14), (14, 1.7e308), (10**400, 14), (14, 10**400), (1e300, 10**400),
                                      pytest.param(10**5000, 14, id="5000 digits-14")])
    def test_aspect_beyond_float_range_rejected(self, w, h):
        with pytest.raises(ValueError, match=re.escape(f"degenerate slice: {_shown(w)}x{_shown(h)} has an aspect ratio "
                                                       "beyond float range") + "$"):
            fit_patch_grid(w, h, VIT)

    @pytest.mark.parametrize("fit", [lambda: fit_patch_grid(1e300, 400, VIT),
                                     lambda: overview_grid(ImageSize(10**12, 14), VIT)])
    def test_extreme_aspect_in_bounded_time(self, fit):
        start = time.perf_counter()
        assert fit() == PatchGrid(576, 1)
        assert time.perf_counter() - start < 0.1

    @given(
        st.integers(min_value=14, max_value=5000),
        st.integers(min_value=14, max_value=5000),
    )
    def test_budget_and_capacity_invariants(self, w, h):
        g = fit_patch_grid(w, h, VIT)
        assert 1 <= g.tokens <= VIT.token_budget
        assert g.cols <= w // VIT.patch_px
        assert g.rows <= h // VIT.patch_px

    @given(st.integers(min_value=140, max_value=3000))
    def test_aspect_monotone_square(self, side):
        g = fit_patch_grid(side, side, VIT)
        assert g.cols == g.rows  # square slices get square grids


class TestReshape:
    def test_round_trip(self):
        rng = np.random.default_rng(0)
        seq = rng.normal(size=(576, 8))
        grid = reshape_pos_embed_1d_to_2d(seq, 24)
        assert grid.values.shape == (24, 24, 8)
        assert np.array_equal(grid.values.reshape(576, 8), seq)


class TestInterpolation:
    def make_grid(self, rows, cols, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        return PosEmbedGrid(values=rng.normal(size=(rows, cols, dim)))

    def test_identity_exact(self):
        src = self.make_grid(24, 24)
        out = interpolate_pos_embed(src, PatchGrid(cols=24, rows=24))
        assert np.array_equal(out.values, src.values)

    def test_own_shape_returns_the_source(self):
        src = self.make_grid(24, 24)
        assert interpolate_pos_embed(src, PatchGrid(cols=24, rows=24)) is src

    @pytest.mark.parametrize("rows, cols", [(24, 30), (24, 1), (17, 24), (1, 24)])
    def test_matching_axis_is_skipped_bit_for_bit(self, rows, cols):
        """Equal to both axis products, the matching axis's being the identity."""
        src = self.make_grid(24, 24, dim=8)
        out = interpolate_pos_embed(src, PatchGrid(cols=cols, rows=rows)).values
        assert out.tobytes() == _interp_axis(_interp_axis(src.values, rows, axis=0), cols, axis=1).tobytes()

    def test_constant_preserved_exactly(self):
        src = PosEmbedGrid(values=np.full((5, 7, 2), 3.25))
        out = interpolate_pos_embed(src, PatchGrid(cols=11, rows=3))
        assert np.array_equal(out.values, np.full((3, 11, 2), 3.25))

    def test_linear_ramp_closed_form(self):
        rows, cols = 9, 13
        r_idx, c_idx = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
        vals = (2.0 * r_idx - 0.5 * c_idx + 1.0)[:, :, None]
        src = PosEmbedGrid(values=vals)
        new_r, new_c = 17, 5
        out = interpolate_pos_embed(src, PatchGrid(cols=new_c, rows=new_r))
        rr = np.arange(new_r) * (rows - 1) / (new_r - 1)
        cc = np.arange(new_c) * (cols - 1) / (new_c - 1)
        expect = (2.0 * rr[:, None] - 0.5 * cc[None, :] + 1.0)[:, :, None]
        assert np.max(np.abs(out.values - expect)) < 1e-12

    @given(
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
        st.integers(min_value=1, max_value=9),
    )
    def test_matches_pointwise_oracle(self, r0, c0, r1, c1):
        src = self.make_grid(r0, c0, dim=2, seed=r0 * 100 + c0)
        out = interpolate_pos_embed(src, PatchGrid(cols=c1, rows=r1))
        assert out.values.shape == (r1, c1, 2)
        expect = bilinear_oracle(src.values, r1, c1)
        assert np.max(np.abs(out.values - expect)) < 1e-12

    @given(st.integers(min_value=1, max_value=40), st.integers(min_value=1, max_value=40))
    def test_full_table_matches_pointwise_oracle(self, r1, c1):
        src = self.make_grid(24, 24)
        out = interpolate_pos_embed(src, PatchGrid(cols=c1, rows=r1))
        assert np.max(np.abs(out.values - bilinear_oracle(src.values, r1, c1))) < 1e-12

    @pytest.mark.parametrize("shape, target", [((1, 7), (5, 7)), ((6, 1), (6, 9)), ((1, 1), (4, 3))])
    def test_single_row_or_column_source_tiles_exactly(self, shape, target):
        src = self.make_grid(*shape)
        out = interpolate_pos_embed(src, PatchGrid(cols=target[1], rows=target[0]))
        assert np.array_equal(out.values, np.broadcast_to(src.values, out.values.shape))

    @pytest.mark.parametrize("rows, cols, kept", [(1, 7, np.s_[:1]), (5, 1, np.s_[:, :1]), (1, 1, np.s_[:1, :1])])
    def test_target_of_one_keeps_the_first_cell(self, rows, cols, kept):
        src = self.make_grid(5, 7)
        out = interpolate_pos_embed(src, PatchGrid(cols=cols, rows=rows))
        assert np.array_equal(out.values, src.values[kept])

    def test_repeated_calls_are_bit_equal(self):
        src = self.make_grid(24, 24, dim=64)
        first = interpolate_pos_embed(src, PatchGrid(cols=25, rows=17)).values
        interpolate_pos_embed(src, PatchGrid(cols=19, rows=29))
        assert np.array_equal(interpolate_pos_embed(src, PatchGrid(cols=25, rows=17)).values, first)

    @pytest.mark.parametrize("rows, cols", [(17, 25), (29, 19)])
    def test_peak_allocation_below_three_outputs(self, rows, cols):
        """One warm computed call from the 24x24x1024 table peaks below 3x the output's bytes.

        Another grid is asked for in between, so the measured call computes its table, not a memo hit.
        """
        src = self.make_grid(24, 24, dim=1024)
        target = PatchGrid(cols=cols, rows=rows)
        interpolate_pos_embed(src, target)
        interpolate_pos_embed(src, PatchGrid(cols=rows, rows=cols))
        tracemalloc.start()
        try:
            out = interpolate_pos_embed(src, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * out.values.nbytes

    def test_separable_axis_order(self):
        src = self.make_grid(6, 10)
        a = _interp_axis(_interp_axis(src.values, 13, axis=0), 4, axis=1)
        b = _interp_axis(_interp_axis(src.values, 4, axis=1), 13, axis=0)
        assert np.max(np.abs(a - b)) < 1e-12

    @given(st.integers(min_value=2, max_value=12), st.integers(min_value=2, max_value=12))
    def test_convex_range(self, r1, c1):
        src = self.make_grid(4, 5, seed=7)
        out = interpolate_pos_embed(src, PatchGrid(cols=c1, rows=r1))
        assert out.values.min() >= src.values.min() - 1e-12
        assert out.values.max() <= src.values.max() + 1e-12


# The 18 distinct (rows, cols) patch grids of the 78 blocks of the benchmark's encode-hires catalogue
# (the ROADMAP's 336x336, 672x1008, 1008x672, 1344x336 and two common sizes for each N in 1..6).
ENCODE_GRIDS = [(12, 48), (17, 22), (17, 25), (18, 18), (18, 31), (18, 32), (19, 29), (20, 24), (20, 27), (21, 19),
                (22, 19), (24, 22), (24, 24), (25, 17), (29, 19), (30, 19), (32, 16), (32, 18)]


def uncached(values, rows, cols):
    """The table of the two axis products, each axis multiplied only when its size changes."""
    if rows != values.shape[0]:
        values = _interp_axis(values, rows, axis=0)
    return values if cols == values.shape[1] else _interp_axis(values, cols, axis=1)


class TestInterpolationMemo:
    def make_grid(self, dim=64, seed=0):
        return PosEmbedGrid(values=np.random.default_rng(seed).normal(size=(24, 24, dim)))

    def test_memo_equals_an_uncached_product_on_miss_hit_and_after_another_grid(self):
        src, other = self.make_grid(), PatchGrid(cols=23, rows=23)
        for rows, cols in ENCODE_GRIDS:
            target = PatchGrid(cols=cols, rows=rows)
            expected = uncached(src.values, rows, cols).tobytes()
            interpolate_pos_embed(src, other)
            misses = _interpolated.cache_info().misses
            first = interpolate_pos_embed(src, target)
            second = interpolate_pos_embed(src, target)
            interpolate_pos_embed(src, other)
            third = interpolate_pos_embed(src, target)
            if (rows, cols) == (24, 24):  # the source's own grid is the source, never a memo entry
                assert first is second is third is src
                assert _interpolated.cache_info().misses == misses  # `other` was kept
                continue
            assert second is first and third is not first
            assert _interpolated.cache_info().misses == misses + 3  # first, other, third
            for out in (first, second, third):
                assert out.values.tobytes() == expected

    def test_an_equal_valued_new_table_is_recomputed(self):
        src = self.make_grid()
        target = PatchGrid(cols=25, rows=17)
        first = interpolate_pos_embed(src, target)
        twin = PosEmbedGrid(values=src.values.copy())
        assert twin != src
        again = interpolate_pos_embed(twin, target)
        assert again is not first and again.values.tobytes() == first.values.tobytes()
        assert interpolate_pos_embed(src, target) is not first  # the twin took the one entry

    def test_own_grid_between_two_equal_grids_keeps_the_entry(self):
        src = self.make_grid()
        target = PatchGrid(cols=19, rows=29)
        first = interpolate_pos_embed(src, target)
        assert interpolate_pos_embed(src, PatchGrid(cols=24, rows=24)) is src
        assert interpolate_pos_embed(src, target) is first

    def test_tables_are_read_only_and_callers_arrays_are_copied(self):
        caller = np.random.default_rng(3).normal(size=(24, 24, 8))
        src = PosEmbedGrid(values=caller)
        target = PatchGrid(cols=22, rows=17)
        out = interpolate_pos_embed(src, target)
        expected = out.values.copy()
        for a in (out.values, src.values):
            with pytest.raises(ValueError, match="read-only"):
                a[0, 0, 0] = 1.0
        caller[:] = 0.0
        assert np.array_equal(interpolate_pos_embed(src, target).values, expected)
        interpolate_pos_embed(src, PatchGrid(cols=5, rows=5))
        assert np.array_equal(interpolate_pos_embed(src, target).values, expected)  # recomputed from src

    @pytest.mark.parametrize("rows, cols", [(17, 24), (24, 17), (17, 25)])
    def test_computed_table_owns_its_product(self, rows, cols):
        """The fresh product is the table's values, not a copy of it nor a view into another array."""
        out = interpolate_pos_embed(self.make_grid(), PatchGrid(cols=cols, rows=rows))
        assert out.values.flags.owndata and not out.values.flags.writeable

    def test_tables_hash_by_identity(self):
        a, b = self.make_grid(dim=2), self.make_grid(dim=2)
        assert a != b and a == a and len({a, b}) == 2
