import math
import re
import time

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.config import AppConfig
from slicekit.counts import _shown
from slicekit.partition import (
    MAX_SLICES,
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
MAX_N = AppConfig().max_slices

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


class TestImageSize:
    @pytest.mark.parametrize("w, h, bad", [(600.5, 400, "width_px"), (600.0, 400, "width_px"),
                                           (True, 400, "width_px"), (600, False, "height_px"),
                                           ("600", 400, "width_px"), (None, 400, "width_px"),
                                           (600, np.float64(400), "height_px")],
                             ids=["600.5-400", "600.0-400", "True-400", "600-False", "600-400", "None-400",
                                  "600-400.0"])
    def test_sides_must_be_integers(self, w, h, bad):
        value = w if bad == "width_px" else h
        with pytest.raises(ValueError, match=f"^{bad} must be an integer, got {re.escape(repr(value))}$"):
            ImageSize(w, h)

    def test_numpy_integers_accepted(self):
        assert ImageSize(np.int64(672), np.int32(1008)) == ImageSize(672, 1008)


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

    @pytest.mark.parametrize("n", [4095, 9973, 10_000, MAX_SLICES + 1])
    def test_large_counts_match_trial_division(self, n):
        """Divisor pairs up to isqrt give every factorization; the counts include squares and their neighbours, a
        prime and the greatest count a plan reaches."""
        got = {(g.cols_m, g.rows_n) for g in candidate_grids(n)}
        assert got == {(m, t // m) for t in (n - 1, n, n + 1) for m in range(1, t + 1) if t % m == 0}

    @pytest.mark.parametrize("n", [MAX_SLICES + 2, 10**400])
    def test_a_count_no_plan_reaches_is_refused(self, n):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^n must be <= {MAX_SLICES + 1}, got {n}$"):
            candidate_grids(n)
        assert time.perf_counter() - start < 0.1

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

    @given(sizes, st.sampled_from([VIT, VitSpec(448, 336, 14), VitSpec(224, 448, 14)]))
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

    @given(side_up_to((MAX_N + 1) * 336 * 336 // 14)
           .flatmap(lambda w: st.tuples(st.just(w), side_up_to((MAX_N + 1) * 336 * 336 // w))))
    def test_capped_plan_path_never_raises_up_to_max_n_plus_one_tiles(self, size):
        """A plan of at most max_N slices that round-trips through the schema, or the one-line max_N refusal."""
        image, k = ImageSize(*size), 64
        try:
            plan = select_partition(image, VIT, MAX_N)
        except ValueError as e:
            refused = re.fullmatch(rf"{size[0]}x{size[1]} would be cut into (\d+) slices, which exceeds max_N={MAX_N}",
                                   str(e))
            assert refused and int(refused[1]) > MAX_N, str(e)
            return
        assert plan.grid.slice_count <= MAX_N
        grids = [fit_patch_grid(r.w, r.h, VIT) for r in plan.slice_rects]
        assert all(1 <= g.tokens <= VIT.token_budget for g in grids + [overview_grid(image, VIT)])
        layout = parse_layout(serialize_layout(plan, k))
        assert (layout.cols_m, layout.rows_n) == (plan.grid.cols_m, plan.grid.rows_n)
        tokens = token_count(plan, k)
        assert tokens == k * (len(plan.slice_rects) + 1) == layout.overview_len + sum(map(sum, layout.slice_lens))

    @given(sizes)
    def test_patch_grids_one_per_block(self, image):
        plan = select_partition(image, VIT)
        expected = [fit_patch_grid(r.w, r.h, VIT) for r in plan.slice_rects] + [overview_grid(image, VIT)]
        assert list(plan.patch_grids) == expected

    @pytest.mark.parametrize("side", [10**6, 10**8])
    def test_cap_refuses_before_cutting_a_slice(self, side):
        start = time.perf_counter()
        with pytest.raises(ValueError,
                           match=rf"^{side}x{side} would be cut into at least \d+ slices, which exceeds max_N=6$"):
            select_partition(ImageSize(side, side), VIT, 6)
        assert time.perf_counter() - start < 2.0

    @pytest.mark.parametrize("side", [10**9, 10**11, 10**62, pytest.param(10**5000, id="5000 digits")])
    def test_cap_refuses_from_the_ideal_count_alone(self, side):
        # every candidate grid for N >= 3 has at least N - 1 slices: none is enumerated when N - 1 exceeds the cap
        n = ideal_slice_count(ImageSize(side, side), VIT)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{_shown(side)}x{_shown(side)} would be cut into at least "
                                             f"{_shown(n - 1)} slices, which exceeds max_N=6$"):
            select_partition(ImageSize(side, side), VIT, 6)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("side", [300_000, 10**7, 10**62])
    def test_uncapped_plan_past_max_slices_is_refused_from_the_ideal_count_alone(self, side):
        # 10^7 x 10^7 used to trial-divide N ~ 8.9 * 10^8 and cut a PixelRect per slice, past 60 s
        n = ideal_slice_count(ImageSize(side, side), VIT)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{side}x{side} would be cut into at least {n - 1} slices, "
                                             f"which exceeds MAX_SLICES={MAX_SLICES}$"):
            select_partition(ImageSize(side, side), VIT)
        assert time.perf_counter() - start < 0.1

    def test_an_uncapped_plan_is_capped_at_max_slices(self):
        # N = MAX_SLICES + 1 is still planned: into 100x100 here, and refused where the score chooses N slices
        assert select_partition(ImageSize(33600, 33601), VIT).grid == SliceGrid(100, 100)
        with pytest.raises(ValueError, match=f"^3360336x336 would be cut into {MAX_SLICES + 1} slices, "
                                             f"which exceeds MAX_SLICES={MAX_SLICES}$"):
            select_partition(ImageSize(336 * (MAX_SLICES + 1), 336), VIT)
        with pytest.raises(ValueError, match=f"^max_slices must be <= {MAX_SLICES}, got {MAX_SLICES + 1}$"):
            select_partition(ImageSize(336, 336), VIT, MAX_SLICES + 1)

    def test_cap_applies_after_the_whole_image_fallback(self):
        for w, h in SUB_PATCH_SIZES[::7]:
            assert select_partition(ImageSize(w, h), VIT, 1).grid == SliceGrid(1, 1)
        with pytest.raises(ValueError, match="^28x14 would be cut into 2 slices, which exceeds max_N=1$"):
            select_partition(ImageSize(28, 14), VIT, 1)
        plan = select_partition(ImageSize(672, 1008), VIT, 6)
        assert plan == select_partition(ImageSize(672, 1008), VIT) and plan.grid.slice_count == 6

    @pytest.mark.parametrize("side", [25890, 25891])
    def test_large_image_kept_whole_only_when_uncapped(self, side):
        # at N = 5938 the score chooses 1979x3, whose slices are 13 px wide: uncapped, the image is kept whole;
        # under max_N the image is refused (its N - 1 = 5937 already exceeds the cap) rather than passed as one slice
        plan = select_partition(ImageSize(side, side), VIT)
        assert (plan.ideal_n, plan.grid, plan.slice_rects) == (5938, SliceGrid(1, 1), (PixelRect(0, 0, side, side),))
        with pytest.raises(ValueError,
                           match=f"^{side}x{side} would be cut into at least 5937 slices, which exceeds max_N=6$"):
            select_partition(ImageSize(side, side), VIT, 6)

    @pytest.mark.parametrize("w, h", [(5, 5), (13, 4000), (4000, 13), (13, 14)])
    def test_side_below_one_patch_rejected(self, w, h):
        with pytest.raises(ValueError, match=f"image {w}x{h} has a side below one 14px patch"):
            select_partition(ImageSize(w, h), VIT)

    def test_json_dict_shape(self):
        d = select_partition(ImageSize(672, 1008), VIT).to_json_dict()
        assert d["grid"] == {"m": 2, "n": 3}
        assert d["ideal_N"] == 6
        assert d["vit"] == {"w": 336, "h": 336, "patch": 14, "M": 576}
        assert len(d["slices"]) == 6
        assert d["slice_patch_grids"] == [{"cols": 24, "rows": 24}] * 6
        assert d["overview_grid"] == {"cols": 19, "rows": 29}


class TestValidation:
    def test_bad_image(self):
        with pytest.raises(ValueError):
            ImageSize(0, 10)

    def test_bad_vit(self):
        with pytest.raises(ValueError):
            VitSpec(pretrain_width_px=335)

    def test_bad_grid(self):
        with pytest.raises(ValueError):
            SliceGrid(0, 1)
