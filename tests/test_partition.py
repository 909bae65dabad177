import math

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.partition import (
    ImageSize,
    PixelRect,
    SliceGrid,
    VitSpec,
    candidate_grids,
    grid_index,
    grid_table,
    ideal_slice_count,
    ordered_candidates,
    partition_score,
    select_partition,
    slice_rectangles,
)
from slicekit.patches import fit_patch_grid, overview_grid
from slicekit.schema import parse_layout, serialize_layout, token_count

VIT = VitSpec()

sizes = st.builds(
    ImageSize,
    st.integers(min_value=14, max_value=4000),
    st.integers(min_value=14, max_value=4000),
)


def brute_force_candidates(n):
    """Independent oracle: factor pairs of n-1, n, n+1 by trial division."""
    out = set()
    for t in (n - 1, n, n + 1):
        for m in range(1, t + 1):
            for r in range(1, t + 1):
                if m * r == t:
                    out.add((m, r))
    return out


# The only sizes in 14..4032 whose best grid (ideal N=1, N+1 candidate 2x1) cuts slices below one
# patch: width -> tallest such height, from 14 up; their transposes pick 1x2.
SUB_PATCH_HEIGHTS = {20: 14, 21: 14, 22: 15, 23: 16, 24: 16, 25: 17, 26: 18, 27: 19}
SUB_PATCH_SIZES = [(w, h) for w, top in SUB_PATCH_HEIGHTS.items() for h in range(14, top + 1)]
SUB_PATCH_SIZES += [(h, w) for w, h in SUB_PATCH_SIZES]


def side_up_to(top):
    """A side of 14..top px, often below 40 px, where slices below one patch can arise."""
    return st.one_of(st.integers(14, min(40, top)), st.integers(14, top))


def fits(image, vit, g):
    """Every slice of grid g is at least one patch wide and tall."""
    return image.width_px // g.cols_m >= vit.patch_px and image.height_px // g.rows_n >= vit.patch_px


def exact_oracle(n, p, q, power=1, image=None, vit=VIT):
    """Independent oracle: the first grid in preference order whose slice-to-encoder
    aspect p*r / (q*c) has the least |log|, compared exactly in integers.

    With power=2, p and q are the squared image-to-encoder aspect terms.  Given the
    image, grids that would cut a slice below one patch are skipped.
    """
    best = None
    for g in ordered_candidates(n):
        if image is not None and not fits(image, vit, g):
            continue
        x, y = p * g.rows_n**power, q * g.cols_m**power
        if best is None or max(x, y) * min(bx, by) < max(bx, by) * min(x, y):
            best, bx, by = g, x, y
    return best


def switch_point_images(n_max=20, max_side=4000):
    """Integer images that lie exactly on a switch point of their own band (square encoder)."""
    for n in range(1, n_max + 1):
        for num, den, _ in grid_table(n)[1]:
            root = math.isqrt(num * den)  # W/H = sqrt(num/den) = root/den
            if root * root != num * den:
                continue
            g = math.gcd(root, den)
            w0, h0 = root // g, den // g
            for t in range(1, max_side // max(w0, h0) + 1):
                image = ImageSize(w0 * t, h0 * t)
                if ideal_slice_count(image, VIT) == n:
                    yield image


class TestIdealSliceCount:
    def test_exact_examples(self):
        assert ideal_slice_count(ImageSize(672, 1008), VIT) == 6
        assert ideal_slice_count(ImageSize(336, 336), VIT) == 1
        assert ideal_slice_count(ImageSize(337, 336), VIT) == 2
        assert ideal_slice_count(ImageSize(1, 1), VIT) == 1

    @given(sizes)
    def test_matches_ceiling_oracle(self, image):
        expected = max(1, math.ceil(image.width_px * image.height_px / (336 * 336)))
        assert ideal_slice_count(image, VIT) == expected


class TestCandidateGrids:
    @given(st.integers(min_value=1, max_value=50))
    def test_matches_brute_force(self, n):
        got = {(g.cols_m, g.rows_n) for g in candidate_grids(n)}
        assert got == brute_force_candidates(n)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            candidate_grids(0)

    def test_single_slice_dropped_above_one(self):
        # a one-slice "partition" would let slice area exceed 1.5x the encoder
        for n in range(2, 22):
            assert all(g.slice_count > 1 for g in ordered_candidates(n))
        assert SliceGrid(1, 1) in ordered_candidates(1)

    @given(st.integers(min_value=2, max_value=30))
    def test_preference_order(self, n):
        cands = ordered_candidates(n)
        priorities = [{n: 0, n - 1: 1, n + 1: 2}[g.slice_count] for g in cands]
        assert priorities == sorted(priorities)


class TestScore:
    def test_perfect_match_is_zero(self):
        assert partition_score(ImageSize(672, 1008), VIT, SliceGrid(2, 3)) == pytest.approx(0.0, abs=1e-15)

    @given(sizes, st.integers(min_value=1, max_value=6), st.integers(min_value=1, max_value=6))
    def test_log_base_invariant_ordering(self, image, m, n):
        # scores computed in another log base order candidates identically
        a = partition_score(image, VIT, SliceGrid(m, n))
        b = partition_score(image, VIT, SliceGrid(n, m))
        alt_a = -abs(math.log10((image.width_px * n) / (image.height_px * m)))
        alt_b = -abs(math.log10((image.width_px * m) / (image.height_px * n)))
        assert (a < b) == (alt_a < alt_b) or math.isclose(a, b, abs_tol=1e-12)

    @given(sizes)
    def test_score_nonpositive(self, image):
        assert partition_score(image, VIT, SliceGrid(2, 3)) <= 0.0


class TestSliceRectangles:
    @given(sizes, st.integers(min_value=1, max_value=7), st.integers(min_value=1, max_value=7))
    def test_exact_tiling(self, image, m, n):
        rects = slice_rectangles(image, SliceGrid(m, n))
        assert len(rects) == m * n
        # widths/heights within one pixel of each other, area preserved
        widths = {r.w for r in rects}
        heights = {r.h for r in rects}
        assert max(widths) - min(widths) <= 1
        assert max(heights) - min(heights) <= 1
        assert sum(r.w * r.h for r in rects) == image.width_px * image.height_px
        # disjoint cover: per-row spans abut exactly
        covered = set()
        for r in rects:
            cells = {(r.x, r.y, r.w, r.h)}
            assert not cells & covered
            covered |= cells
        assert max(r.x + r.w for r in rects) == image.width_px
        assert max(r.y + r.h for r in rects) == image.height_px


class TestSelectPartition:
    def test_six_slice_example(self):
        plan = select_partition(ImageSize(672, 1008), VIT)
        assert plan.ideal_n == 6
        assert (plan.grid.cols_m, plan.grid.rows_n) == (2, 3)
        assert plan.score == pytest.approx(0.0, abs=1e-15)
        assert len(plan.slice_rects) == 6
        assert all((r.w, r.h) == (336, 336) for r in plan.slice_rects)

    @given(sizes)
    def test_optimal_over_candidate_set(self, image):
        plan = select_partition(image, VIT)
        encodable = [g for g in ordered_candidates(plan.ideal_n) if fits(image, VIT, g)]
        best = max(partition_score(image, VIT, g) for g in encodable)
        assert plan.score == pytest.approx(best, abs=1e-12)
        assert plan.grid in encodable

    @given(sizes)
    def test_deterministic(self, image):
        assert select_partition(image, VIT) == select_partition(image, VIT)

    @pytest.mark.parametrize(
        "w, h, grid",
        [(756, 756, (3, 2)), (1596, 798, (6, 2)), (448, 448, (2, 1))],
    )
    def test_exact_tie_breaks(self, w, h, grid):
        # equal deviations: slice count n, then n-1, then n+1, then the wider grid
        plan = select_partition(ImageSize(w, h), VIT)
        assert (plan.grid.cols_m, plan.grid.rows_n) == grid

    @given(sizes, st.sampled_from([VIT, VitSpec(448, 336, 14, 768), VitSpec(224, 448, 14, 512)]))
    def test_matches_exact_oracle(self, image, vit):
        plan = select_partition(image, vit)
        p, q = image.width_px * vit.pretrain_height_px, image.height_px * vit.pretrain_width_px
        assert plan.grid == exact_oracle(plan.ideal_n, p, q, image=image, vit=vit)

    @pytest.mark.parametrize("n", range(1, 21))
    def test_switch_table_exact_at_every_switch_point(self, n):
        grids, switches = grid_table(n)
        assert sorted(grids) == sorted(ordered_candidates(n))
        for num, den, _ in switches:
            # squared aspects on, just below and just above the switch point
            for p2, q2 in ((num, den), (num * 10**9 - 1, den * 10**9), (num * 10**9 + 1, den * 10**9)):
                assert grids[grid_index(n, p2, q2)] == exact_oracle(n, p2, q2, power=2)

    def test_images_on_switch_points(self):
        images = list(switch_point_images())
        assert len(images) > 100
        for image in images:
            plan = select_partition(image, VIT)
            assert plan.grid == exact_oracle(plan.ideal_n, image.width_px * 336, image.height_px * 336)

    def test_sub_patch_slices_keep_the_image_whole(self):
        assert len(set(SUB_PATCH_SIZES)) == 50
        for w, h in SUB_PATCH_SIZES:
            plan = select_partition(ImageSize(w, h), VIT)
            assert (plan.ideal_n, plan.grid) == (1, SliceGrid(1, 1))
            assert plan.slice_rects == (PixelRect(0, 0, w, h),)
            assert fit_patch_grid(w, h, VIT).tokens >= 1
        # one pixel wider/taller than the class: the 2x1/1x2 cut has 14 px slices and stays
        assert select_partition(ImageSize(28, 14), VIT).grid == SliceGrid(2, 1)
        assert select_partition(ImageSize(14, 28), VIT).grid == SliceGrid(1, 2)

    @given(side_up_to(6 * 336 * 336 // 14).flatmap(lambda w: st.tuples(st.just(w), side_up_to(6 * 336 * 336 // w))))
    def test_plan_path_never_raises_up_to_six_tiles(self, size):
        image, k = ImageSize(*size), 64
        plan = select_partition(image, VIT)
        grids = [fit_patch_grid(r.w, r.h, VIT) for r in plan.slice_rects]
        assert all(1 <= g.tokens <= VIT.token_budget for g in grids + [overview_grid(image, VIT)])
        layout = parse_layout(serialize_layout(plan, k))
        assert (layout.cols_m, layout.rows_n) == (plan.grid.cols_m, plan.grid.rows_n)
        tokens = token_count(plan, k)
        assert tokens == k * (len(plan.slice_rects) + 1) == layout.overview_len + sum(map(sum, layout.slice_lens))

    def test_json_dict_shape(self):
        d = select_partition(ImageSize(672, 1008), VIT).to_json_dict()
        assert d["grid"] == {"m": 2, "n": 3}
        assert d["ideal_N"] == 6
        assert len(d["slices"]) == 6


class TestValidation:
    def test_bad_image(self):
        with pytest.raises(ValueError):
            ImageSize(0, 10)

    def test_bad_vit(self):
        with pytest.raises(ValueError):
            VitSpec(pretrain_width_px=335)
        with pytest.raises(ValueError):
            VitSpec(token_budget=100)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            SliceGrid(0, 1)
