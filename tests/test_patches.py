import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.partition import ImageSize, VitSpec
from slicekit.patches import (
    PatchGrid,
    PosEmbedGrid,
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
        with pytest.raises(ValueError):
            fit_patch_grid(10, 100, VIT)

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

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            reshape_pos_embed_1d_to_2d(np.zeros((10, 4)), 24)


class TestInterpolation:
    def make_grid(self, rows, cols, dim=3, seed=0):
        rng = np.random.default_rng(seed)
        return PosEmbedGrid(values=rng.normal(size=(rows, cols, dim)))

    def test_identity_exact(self):
        src = self.make_grid(24, 24)
        out = interpolate_pos_embed(src, PatchGrid(cols=24, rows=24))
        assert np.array_equal(out.values, src.values)

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
        """One warm call from the 24x24x1024 table peaks below 3x the output's bytes."""
        src = self.make_grid(24, 24, dim=1024)
        target = PatchGrid(cols=cols, rows=rows)
        interpolate_pos_embed(src, target)
        tracemalloc.start()
        try:
            out = interpolate_pos_embed(src, target)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * out.values.nbytes

    def test_separable_axis_order(self):
        from slicekit.patches import _interp_axis

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

    def test_rejects_non_finite(self):
        with pytest.raises(ValueError):
            PosEmbedGrid(values=np.full((2, 2, 1), np.nan))
