import hashlib
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
import tracemalloc
from fractions import Fraction
from functools import partial
from itertools import accumulate
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

import slicekit.verify
from slicekit.partition import ImageSize, VitSpec, grid_index, grid_table, select_partition
from slicekit.verify import (
    ALTERNATE_SPEC,
    CHUNK_SIZE,
    MAX_GRID_DENSITY,
    MAX_ASPECT,
    MAX_SAMPLES,
    MAX_TABLE_BANDS,
    MC_SHARD_SIZE,
    MIN_PART_SIZE,
    TABLE_BYTES,
    TWO_LOG2,
    DistributionSpec,
    StatReport,
    _on_threads,
    _pairwise,
    _part_count,
    _select_grids,
    enumerate_ratio_bound,
    exact_expectations,
    monte_carlo_expectations,
    monte_carlo_statistics,
    run_proof_checks,
    slice_statistics,
    sweep_slice_bounds,
)

VIT = VitSpec()


class TestDistributionSpec:
    def test_defaults(self):
        d = DistributionSpec()
        assert (d.area_ratio_lo, d.area_ratio_hi) == (1.0, 20.0)
        assert (d.aspect_lo, d.aspect_hi) == (1.0, 6.0)

    def test_validation(self):
        for args, kwargs, message in [
            ((), {"area_ratio_lo": 5.0, "area_ratio_hi": 2.0}, "area ratio range must be positive and non-empty"),
            ((), {"aspect_lo": 0.5}, "aspect range must be >= 1 and non-empty"),
        ]:
            with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                DistributionSpec(*args, **kwargs)
        assert DistributionSpec(1, np.float32(2.5), np.int64(1), 2).area_ratio_hi == 2.5

    @pytest.mark.parametrize("hi", [1e7, math.nextafter(MAX_TABLE_BANDS - 1, math.inf)])
    def test_area_ratio_past_one_table_is_refused(self, hi):
        with pytest.raises(ValueError, match=f"^area_ratio_hi must be <= {MAX_TABLE_BANDS - 1}, got {hi}$"):
            DistributionSpec(1.0, hi, 1.0, 6.0)

    @pytest.mark.parametrize("hi", [1e300, math.nextafter(MAX_ASPECT, math.inf)])
    def test_aspect_past_the_bound_is_refused(self, hi):
        # 1e300 overflows exact_expectations' expm1 and the Monte Carlo's sums of squares
        with pytest.raises(ValueError, match=f"^aspect_hi must be <= {MAX_ASPECT}, got {re.escape(str(hi))}$"):
            DistributionSpec(1.0, 2.0, 1.0, hi)


class TestVectorizedSelection:
    @given(
        st.floats(min_value=1.01, max_value=20.0),
        st.floats(min_value=1.0, max_value=6.0),
    )
    def test_agrees_with_scalar_selection(self, n_area, aspect):
        # build a concrete image with that area ratio and aspect
        area = n_area * VIT.pretrain_area_px
        w = max(1, round(math.sqrt(area * aspect)))
        h = max(1, round(math.sqrt(area / aspect)))
        image = ImageSize(w, h)
        plan = select_partition(image, VIT)
        exact_n = (w * h) / VIT.pretrain_area_px
        cols, rows = _select_grids(
            np.array([exact_n]), np.array([w / h])
        )
        assert (int(cols[0]), int(rows[0])) == (plan.grid.cols_m, plan.grid.rows_n)

    def test_agrees_with_scalar_selection_on_square_ties(self):
        # a square image lies on the switch point between each grid and its transpose; the wider wins
        sides = np.arange(14, 1601)
        cols, rows = _select_grids(sides * sides / VIT.pretrain_area_px, np.ones(sides.shape))
        for side, c, r in zip(sides.tolist(), cols.tolist(), rows.tolist()):
            grid = select_partition(ImageSize(side, side), VIT).grid
            assert (c, r) == (grid.cols_m, grid.rows_n)

    @given(st.lists(st.tuples(st.sampled_from([1, 2, 3, 7, 12, 20, 255, 256, 300]), st.data()), max_size=60))
    def test_equals_per_sample_grid_index_on_mixed_bands(self, draws):
        area, aspect = [], []
        for n, data in draws:
            # n itself, the open low end of its band, or a point inside it
            area.append(data.draw(st.sampled_from([float(n), math.nextafter(n - 1, n), n - 0.5]) if n > 1
                                  else st.sampled_from([1.0, 0.25])))
            aspect.append(data.draw(st.sampled_from(switch_aspects(n)) | st.floats(1 / 8, 8)))
        cols, rows = _select_grids(np.array(area), np.array(aspect))
        assert cols.dtype == rows.dtype == np.int64 and cols.shape == rows.shape == (len(area),)
        for a, s, c, r in zip(area, aspect, cols.tolist(), rows.tolist()):
            n = max(math.ceil(a), 1)
            grid = grid_table(n)[0][grid_index(n, s * s, 1)]
            assert (c, r) == (grid.cols_m, grid.rows_n), (a, s)

    def test_empty_input(self):
        cols, rows = _select_grids(np.empty(0), np.empty(0))
        assert cols.shape == rows.shape == (0,) and cols.dtype == rows.dtype == np.int64

    def test_peak_memory_below_four_and_a_half_sample_arrays(self):
        rng = np.random.default_rng(0)
        area, aspect = rng.uniform(1, 20, 10**6), np.exp(rng.uniform(0, math.log(6), 10**6))
        tracemalloc.start()
        try:
            _select_grids(area, aspect)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4.5 * area.nbytes, peak  # the two int64 outputs take 2 of them


def serial_shard_loop(dist: DistributionSpec, samples: int, seed: int) -> tuple[StatReport, StatReport]:
    """monte_carlo_expectations in one thread: each shard drawn by two uniform calls on default_rng(its seed),
    its statistics taken by slice_statistics, and its four sums taken in turn over the whole shard."""
    acc = np.zeros(5)
    remaining = samples
    for ss in np.random.SeedSequence(seed).spawn(-(-samples // MC_SHARD_SIZE)):
        k = min(MC_SHARD_SIZE, remaining)
        remaining -= k
        rng = np.random.default_rng(ss)
        area = rng.uniform(dist.area_ratio_lo, dist.area_ratio_hi, k)
        aspect = np.exp(rng.uniform(math.log(dist.aspect_lo), math.log(dist.aspect_hi), k))
        ratio, area = slice_statistics(area, aspect)
        acc += [ratio.sum(), np.square(ratio).sum(), area.sum(), np.square(area).sum(), k]

    def report(total: float, total_sq: float) -> StatReport:
        mean = total / acc[4]
        var = max(0.0, total_sq / acc[4] - mean * mean)
        return StatReport(float(mean), float(var), int(acc[4]), float(math.sqrt(var / acc[4])), seed)

    return report(acc[0], acc[1]), report(acc[2], acc[3])


def switch_aspects(n: int) -> list[float]:
    """Aspects at band n's switch points a^2 = num/den and one ulp either side, plus any aspect within two
    ulps that grid_index sees exactly on the switch point (a*a*den == num)."""
    out = []
    for num, den, _ in grid_table(n)[1]:
        a = math.sqrt(num / den)
        near = [math.nextafter(math.nextafter(a, 0), 0), math.nextafter(a, 0), a, math.nextafter(a, math.inf),
                math.nextafter(math.nextafter(a, math.inf), math.inf)]
        out += [x for x in near if x * x * den == num] + near[1:4]
    return out


def chosen_by_grid_index(area, aspect):
    """(cols, rows) of grid_table(n)[0][grid_index(n, aspect^2, 1)] per sample, n = max(ceil(area), 1)."""
    band = np.maximum(np.ceil(area), 1)
    cols, rows = np.zeros(area.size, dtype=np.int64), np.zeros(area.size, dtype=np.int64)
    for n in np.unique(band).astype(int).tolist():
        where = np.flatnonzero(band == n)
        x = aspect[where]
        index = np.asarray(grid_index(n, x * x, 1))
        cols[where] = np.array([g.cols_m for g in grid_table(n)[0]])[index]
        rows[where] = np.array([g.rows_n for g in grid_table(n)[0]])[index]
    return cols, rows


def ulps_around(values, ulps):
    """Every float within ulps of each of the positive values."""
    bits = np.asarray(values, dtype=np.float64).view(np.int64)
    return (bits[:, None] + np.arange(-ulps, ulps + 1)).view(np.float64).ravel()


def band_areas(n):
    """Area ratios in band n: its top, the open low end and, for n = 1, ratios at or below 0."""
    return [float(n), math.nextafter(n - 1, n)] if n > 1 else [1.0, 0.25, 0.0, -3.0]


SWITCH_BANDS = [*range(1, 65), 255, 256, 300]


class TestThresholdSelection:
    """Selection without a sort: per-band switch thresholds, looked up by the bits of aspect^2 in chunks."""

    def test_thresholds_strictly_increase_and_count_what_grid_index_counts(self):
        for n in SWITCH_BANDS:
            thresholds = slicekit.verify._switch_thresholds(n)
            assert thresholds.size == len(grid_table(n)[1]) and (np.diff(thresholds) > 0).all(), n
            ratios = [num / den for num, den, _ in grid_table(n)[1]]
            near = np.concatenate([ulps_around(thresholds, 4), ulps_around(ratios, 4)])
            assert np.array_equal(grid_index(n, near, 1), np.searchsorted(thresholds, near, side="right")), n

    @pytest.mark.parametrize("bands", [SWITCH_BANDS, [1, 2, 3], [7], [1, MAX_TABLE_BANDS]],
                             ids=["1-64,255,256,300", "1-3", "7", "wide"])
    def test_equals_grid_index_within_four_ulps_of_every_switch(self, bands):
        area, aspect = [], []
        for n in bands:
            thresholds = slicekit.verify._switch_thresholds(n)
            ratios = [num / den for num, den, _ in grid_table(n)[1]]
            near = np.concatenate([ulps_around(np.sqrt(thresholds), 4), ulps_around(np.sqrt(ratios), 4)])
            for a in band_areas(n):
                area += [a] * near.size
                aspect += near.tolist()
        area, aspect = np.array(area), np.array(aspect)
        cols, rows = _select_grids(area, aspect)
        ref_cols, ref_rows = chosen_by_grid_index(area, aspect)
        assert np.array_equal(cols, ref_cols) and np.array_equal(rows, ref_rows)

    @pytest.mark.parametrize("n", [1, 2, 20, 64, 300])
    def test_special_aspects_equal_grid_index(self, n):
        # NaN passes no switch and inf every one; negatives square to positives; 2**-537 squares to 5e-324 and 1e200
        # overflows to inf
        specials = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0, 5e-324, 2.0**-537, -2.5, 1e200, -1e200]
        for a in band_areas(n):
            area, aspect = np.full(len(specials), a), np.array(specials)
            with np.errstate(over="ignore"):
                cols, rows = _select_grids(area, aspect)
                assert (cols.tolist(), rows.tolist()) == tuple(x.tolist() for x in chosen_by_grid_index(area, aspect))

    def test_float32_aspects_select_as_their_float64_values(self):
        rng = np.random.default_rng(32)
        area, aspect = rng.uniform(1, 20, 10**5), np.exp(rng.uniform(-2, 2, 10**5)).astype(np.float32)
        cols, rows = _select_grids(area, aspect)
        ref_cols, ref_rows = chosen_by_grid_index(area, aspect.astype(np.float64))
        assert np.array_equal(cols, ref_cols) and np.array_equal(rows, ref_rows)

    @pytest.mark.parametrize("dist", [DistributionSpec(), ALTERNATE_SPEC])
    def test_equals_grid_index_on_ten_million_draws(self, dist):
        rng = np.random.default_rng(19)
        for _ in range(10):
            area = rng.uniform(dist.area_ratio_lo, dist.area_ratio_hi, 10**6)
            aspect = np.exp(rng.uniform(-math.log(dist.aspect_hi), math.log(dist.aspect_hi), 10**6))
            cols, rows = _select_grids(area, aspect)
            ref_cols, ref_rows = chosen_by_grid_index(area, aspect)
            assert np.array_equal(cols, ref_cols) and np.array_equal(rows, ref_rows)

    @pytest.mark.parametrize("size", [CHUNK_SIZE - 1, CHUNK_SIZE, CHUNK_SIZE + 1, 2 * CHUNK_SIZE + 3])
    def test_chunk_edges(self, size):
        rng = np.random.default_rng(size)
        area, aspect = rng.uniform(-1, 30, size), np.exp(rng.uniform(-2, 2, size))
        cols, rows = _select_grids(area, aspect)
        ref_cols, ref_rows = chosen_by_grid_index(area, aspect)
        assert np.array_equal(cols, ref_cols) and np.array_equal(rows, ref_rows)

    @pytest.mark.parametrize("call", [_select_grids, slice_statistics])
    def test_a_span_past_max_table_bands_is_refused(self, call):
        area = np.array([1.0, 0.5 + MAX_TABLE_BANDS])
        with pytest.raises(ValueError, match=f"^area_ratio spans bands 1 to {MAX_TABLE_BANDS + 1}, more than "
                                             f"MAX_TABLE_BANDS = {MAX_TABLE_BANDS}$"):
            call(area, np.ones(2))

    def test_the_widest_span_equals_grid_index(self):
        area = np.array([-2.0, 0.5, 1.0, 2.5, 700.25, MAX_TABLE_BANDS - 0.5, float(MAX_TABLE_BANDS)])
        aspect = np.array([1.0, 3.0, 0.1, 250.0, 1.5, 0.02, 40.0])
        assert slicekit.verify._range_table(area.min(), area.max()).bands == range(1, MAX_TABLE_BANDS + 1)
        cols, rows = _select_grids(area, aspect)
        assert (cols.tolist(), rows.tolist()) == tuple(x.tolist() for x in chosen_by_grid_index(area, aspect))

    @pytest.mark.parametrize("bad", [math.nan, math.inf, 1e19])
    def test_band_past_int64_raises_the_grid_table_error(self, bad):
        with pytest.raises(ValueError, match="^slice count must be >= 1$"):
            _select_grids(np.array([2.0, bad]), np.ones(2))

    def test_table_for_three_hundred_bands_under_a_megabyte(self):
        table = slicekit.verify._selection_table(range(1, 301))
        assert sum(a.nbytes for a in (table.above, table.rows, table.cols)) <= 2**20

    @pytest.mark.parametrize("bands, k", [(range(1, 4), 1), (range(1, 21), 1), (range(2, 21), 1), (range(1, 301), 2),
                                          (range(1, MAX_TABLE_BANDS + 1), 2)],
                             ids=["1-3", "1-20", "2-20", "1-300", "1-1024"])
    def test_one_comparison_where_that_table_fits_the_byte_budget(self, bands, k):
        # the Monte Carlo's two specs and the sweep read the k = 1 tables
        table = slicekit.verify._selection_table(bands)
        thresholds = [slicekit.verify._switch_thresholds(n) for n in bands]
        row = np.repeat(np.arange(len(bands)), [t.size for t in thresholds])
        bins = slicekit.verify._bins(np.concatenate(thresholds).view(np.int64), row, 1)[2]
        one_comparison_bytes = 3 * 8 * 2 * len(bands) * bins
        assert table.k == k and (one_comparison_bytes <= TABLE_BYTES) == (k == 1)
        assert table.above.size == table.rows.size == table.cols.size == (k + 1) * len(bands) * table.bins
        if k == 1:
            assert one_comparison_bytes == sum(a.nbytes for a in (table.above, table.rows, table.cols))

    def test_building_the_widest_table_peaks_no_higher_than_before_the_byte_budget(self):
        bands = range(1, MAX_TABLE_BANDS + 1)
        for n in bands:  # cached, as every build after the first finds them
            slicekit.verify._switch_thresholds(n)
        tracemalloc.start()
        try:
            table = slicekit.verify._selection_table.__wrapped__(bands)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 2.39 times the kept arrays with two comparisons for every table; its k = 1 table would take 1.0 GB
        assert table.k == 2 and peak <= 2.4 * sum(a.nbytes for a in (table.above, table.rows, table.cols)), peak

    def test_widest_table_is_pinned_bit_for_bit(self):
        table = slicekit.verify._selection_table(range(1, MAX_TABLE_BANDS + 1))
        digest = hashlib.sha256(b"".join(a.tobytes() for a in (table.above, table.rows, table.cols))).hexdigest()
        assert digest == "1f25a65b20d3d255c593c7e2b52508c1f85190d2412fe228e8e962c91fb7f173"

    @pytest.mark.parametrize("last, k", [(20, 1), (300, 2)], ids=["1-20", "1-300"])
    def test_equals_grid_index_on_special_values_and_the_edge_cells(self, last, k):
        # areas at or below 0 are raised to band 1; aspects past the lowest or highest bin land in the first or last
        # cell of their band, and each table's first cell is band 1's lowest bin, its last band last's highest
        low, high = slicekit.verify._selection_table(range(1, last + 1)).edges
        areas = [-3.0, -0.0, 0.0, 5e-324, 0.25, 1.0, math.nextafter(1, 2), last / 2, last - 0.5, float(last)]
        aspects = [math.nan, -math.nan, 0.0, -0.0, 5e-324, 1e-310, 2.0**-537, -2.5, 1e200, -1e200, 1.7e308, math.inf,
                   -math.inf, *np.sqrt([low, math.nextafter(low, 0), math.nextafter(low, math.inf), high,
                                        math.nextafter(high, 0), math.nextafter(high, math.inf)]).tolist()]
        area, aspect = (a.ravel() for a in np.meshgrid(areas, aspects, indexing="ij"))
        assert slicekit.verify._range_table(area.min(), area.max()).k == k
        with np.errstate(over="ignore"):
            cols, rows = _select_grids(area, aspect)
            assert (cols.tolist(), rows.tolist()) == tuple(x.tolist() for x in chosen_by_grid_index(area, aspect))

    def test_specs_and_sweep_build_each_table_once(self):
        def run():
            monte_carlo_expectations(DistributionSpec(), 10**6, 5)
            monte_carlo_expectations(ALTERNATE_SPEC, 10**6, 5)
            sweep_slice_bounds(1000)

        run()
        misses = slicekit.verify._selection_table.cache_info().misses
        run()
        assert slicekit.verify._selection_table.cache_info().misses == misses

    def test_import_builds_no_table(self):
        code = ("import slicekit.verify as v; "
                "print(v._selection_table.cache_info().misses, v._switch_thresholds.cache_info().misses)")
        src = str(Path(slicekit.verify.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "0 0\n"), proc.stderr


class TestEnumerationBound:
    def test_holds_up_to_twenty(self):
        holds, worst = enumerate_ratio_bound(20)
        assert holds
        assert worst <= TWO_LOG2
        assert worst == pytest.approx(math.log(3.0), abs=1e-12)

    @pytest.mark.parametrize("n_max, message", [(MAX_TABLE_BANDS + 1, "n_max must be <= 1024, got 1025"),
                                                (10**7, "n_max must be <= 1024, got 10000000")])
    def test_rejects_bad_limit(self, n_max, message):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            enumerate_ratio_bound(n_max)
        assert time.perf_counter() - start < 0.1

    @pytest.mark.parametrize("n_max", [*range(1, 61), 81, 82, 102, 128])
    def test_matches_exact_oracle(self, n_max):
        # holds when every candidate's nearer neighbour is at most 4 apart in cols/rows, i.e. 2*log(2) in
        # log-aspect; 1x2 and 2x1 (n=2) are exactly 4 apart, 9x9 (n=82) is 9 from both neighbours, and
        # 6x17 (n=102) and 8x16 (n=128) are exactly 4 from the nearer one
        def nearer_gap(grids, i):
            ratio = [Fraction(g.cols_m, g.rows_n) for g in grids]
            return min(max(ratio[i] / ratio[j], ratio[j] / ratio[i]) for j in (i - 1, i + 1) if 0 <= j < len(grids))

        gaps = [nearer_gap(grid_table(n)[0], i) for n in range(1, n_max + 1) for i in range(len(grid_table(n)[0]))]
        holds, worst = enumerate_ratio_bound(n_max)
        assert holds is all(gap <= 4 for gap in gaps)
        assert worst == pytest.approx(math.log(max(gaps)), rel=1e-12)


class TestSweep:
    def test_bounds_on_dense_grid(self):
        min_r, max_r, min_s, max_s = sweep_slice_bounds(grid_density=1000)
        assert 0.5 <= min_r and max_r <= 2.0
        assert abs(min_s - 1.0 / 3.0) <= 0.01
        assert abs(max_s - 1.5) <= 0.01

    @pytest.mark.parametrize("density", [MAX_GRID_DENSITY + 1, 99_999_999_999])
    def test_density_ceiling_enforced_before_any_allocation(self, density):
        tracemalloc.start()
        try:
            with pytest.raises(ValueError, match=f"^grid_density must be <= {MAX_GRID_DENSITY}, got {density}$"):
                sweep_slice_bounds(grid_density=density)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2**16, peak

    @pytest.mark.parametrize("density", [1000, 1500, 1777, 2048])
    def test_equals_full_grid(self, density):
        # every (n, aspect) point of the grid, a chunk of n rows at a time
        d = DistributionSpec()
        n_vals = d.area_ratio_lo + (np.arange(density) + 0.5) * (d.area_ratio_hi - d.area_ratio_lo) / density
        a_vals = np.exp(np.linspace(math.log(d.aspect_lo), math.log(d.aspect_hi), density))
        min_r, max_r, min_s, max_s = math.inf, -math.inf, math.inf, -math.inf
        for n_chunk in np.array_split(n_vals, max(1, density // 64)):
            nn, aa = np.meshgrid(n_chunk, a_vals, indexing="ij")
            ratio, area = slice_statistics(nn.ravel(), aa.ravel())
            min_r, max_r = min(min_r, float(ratio.min())), max(max_r, float(ratio.max()))
            min_s, max_s = min(min_s, float(area.min())), max(max_s, float(area.max()))
        assert sweep_slice_bounds(density) == (min_r, max_r, min_s, max_s)


class TestMonteCarlo:
    def test_bit_reproducible(self):
        a = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=7)
        b = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=7)
        assert a == b

    def test_pinned_values(self):
        # the selection changed in how it groups samples, not in what it computes
        assert repr(monte_carlo_expectations(DistributionSpec(), 50_000, 7)) == (
            "(StatReport(expectation=1.2532813865522736, variance=0.042244559086567435, samples=50000, "
            "std_error=0.0009191796243016643, seed=7), StatReport(expectation=0.9409411842453855, "
            "variance=0.020637757001658263, samples=50000, std_error=0.0006424602244755432, seed=7))")
        assert repr(monte_carlo_expectations(ALTERNATE_SPEC, 50_000, 7)) == (
            "(StatReport(expectation=1.3188856151235526, variance=0.063446329912769, samples=50000, "
            "std_error=0.0011264664212729024, seed=7), StatReport(expectation=0.8447461082764951, "
            "variance=0.07479829889226208, samples=50000, std_error=0.0012230968799916227, seed=7))")

    def test_seed_sensitivity(self):
        a = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=7)
        c = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=8)
        assert a[0].expectation != c[0].expectation

    def test_alternate_spec_region(self):
        r, s = monte_carlo_expectations(ALTERNATE_SPEC, samples=100_000, seed=2)
        assert 1.0 <= r.expectation <= 2.0
        assert 0.0 < s.expectation

    @pytest.mark.parametrize("samples", [MAX_SAMPLES + 1, 10**18])
    def test_sample_count_past_the_bound_raises_before_any_shard_is_seeded(self, samples):
        with pytest.raises(ValueError, match=f"^samples must be <= {MAX_SAMPLES}, got {samples}$"):
            monte_carlo_expectations(DistributionSpec(), samples=samples)


class TestPairwiseFold:
    """numpy's pairwise_sum (numpy/_core/src/umath/loops_utils.h.src) adds a run of at most 128 doubles in 8
    accumulators and splits a longer one at n2 = n/2 - (n/2) % 8.  The Monte Carlo's sums rest on that rule: if a
    numpy release changes it, this fails here rather than letting the pinned values drift."""

    SIZES = [*range(1, 601), CHUNK_SIZE - 1, CHUNK_SIZE + 1, 2**17 - 1, 2**17 + 1, 999_983, 10**6, 10**6 + 1]

    @pytest.mark.parametrize("leaf", [128, CHUNK_SIZE])
    def test_leaf_sums_folded_up_the_tree_equal_numpys_whole_array_sums(self, monkeypatch, leaf):
        # leaves of at most 128 split every run above 128 as numpy does, down to its unrolled blocks
        monkeypatch.setattr(slicekit.verify, "CHUNK_SIZE", leaf)
        rng = np.random.default_rng(leaf)
        for size in self.SIZES:
            # signs and magnitudes that make a sum depend on its order
            x = rng.standard_normal(size) * np.exp(rng.uniform(-20, 20, size))
            edges = list(accumulate(_pairwise(size, lambda n: [n]), initial=0))
            assert edges[-1] == size and max(np.diff(edges)) <= leaf, size
            for f in (np.asarray, np.square):
                sums = iter([f(x[a:b]).sum() for a, b in zip(edges, edges[1:])])
                assert _pairwise(size, lambda n: next(sums)) == f(x).sum(), (size, f)


@pytest.fixture
def force_parts(monkeypatch):
    """force_parts(n) runs every Monte Carlo shard in n parts from then on; None keeps _part_count's default."""
    default = slicekit.verify._part_count

    def force(parts: int | None) -> None:
        monkeypatch.setattr(slicekit.verify, "_part_count", default if parts is None else lambda samples: parts)
    return force


@pytest.fixture
def thread_starts(monkeypatch):
    """The list of threads started from then on."""
    started, start = [], threading.Thread.start

    def record(thread):
        started.append(thread)
        start(thread)
    monkeypatch.setattr(threading.Thread, "start", record)
    return started


class TestParts:
    """Each Monte Carlo shard runs over contiguous parts on threads; no value may depend on the part count.  The
    statistics of given samples (slice_statistics, the sweep) run in the calling thread."""

    @pytest.mark.parametrize("size", [1, MIN_PART_SIZE - 1, MIN_PART_SIZE + 1, 10**6 + 1])
    def test_monte_carlo_bitwise_equal_for_any_part_count(self, force_parts, size):
        for dist in (DistributionSpec(), ALTERNATE_SPEC):
            force_parts(1)
            serial = repr(monte_carlo_expectations(dist, size, 3))
            for parts in (None, 2, 3):
                force_parts(parts)
                assert repr(monte_carlo_expectations(dist, size, 3)) == serial, parts

    @pytest.mark.parametrize("size", [1, MIN_PART_SIZE - 1, MIN_PART_SIZE + 1, 10**6 + 1])
    def test_slice_statistics_bitwise_equal_for_any_part_count(self, thread_starts, size):
        # elementwise: the statistics of contiguous parts of the samples are those of the whole, byte for byte
        rng = np.random.default_rng(size)
        area, aspect = rng.uniform(1, 20, size), np.exp(rng.uniform(-math.log(6), math.log(6), size))
        given_area, given_aspect = area.copy(), aspect.copy()
        ratio, s_area = slice_statistics(area, aspect)
        for parts in (2, 3):
            pieces = map(slice_statistics, np.array_split(area, parts), np.array_split(aspect, parts))
            r, a = (np.concatenate(x) for x in zip(*pieces))
            assert r.tobytes() == ratio.tobytes() and a.tobytes() == s_area.tobytes(), parts
        assert np.array_equal(area, given_area) and np.array_equal(aspect, given_aspect)  # inputs are copied
        assert thread_starts == []

    def test_statistics_of_given_samples_start_no_thread(self, thread_starts):
        rng = np.random.default_rng(3)
        size = 3 * MIN_PART_SIZE
        slice_statistics(rng.uniform(1, 20, size), np.exp(rng.uniform(0, math.log(6), size)))
        sweep_slice_bounds(7000)  # 38 rows of 7000 points, more than 2 * MIN_PART_SIZE
        assert thread_starts == []
        monte_carlo_expectations(DistributionSpec(), MC_SHARD_SIZE, 1)
        assert len(thread_starts) == _part_count(MC_SHARD_SIZE) - 1  # the Monte Carlo shard still runs in parts

    def test_pinned_values_at_one_shard(self):
        # recorded before the statistics ran in parts: 10^6 samples split across every core
        assert repr(monte_carlo_expectations(DistributionSpec(), 10**6, 1)) == (
            "(StatReport(expectation=1.2535457869993558, variance=0.04296374195618302, samples=1000000, "
            "std_error=0.00020727696918901295, seed=1), StatReport(expectation=0.9410464412305471, "
            "variance=0.02057569054819164, samples=1000000, std_error=0.00014344228995729133, seed=1))")
        assert repr(monte_carlo_expectations(ALTERNATE_SPEC, 10**6, 1)) == (
            "(StatReport(expectation=1.3192433814593167, variance=0.06384017169880285, samples=1000000, "
            "std_error=0.0002526661269319709, seed=1), StatReport(expectation=0.843169043910614, "
            "variance=0.07441845534057523, samples=1000000, std_error=0.00027279746212268037, seed=1))")

    def test_pinned_values_of_other_specs_and_a_wide_one(self):
        # recorded before each spec's table was read once per part: area ranges that start below 1 and lie wholly
        # below 1; a range wider than one selection table is refused
        specs = (DistributionSpec(0.5, 7.3, 1.2, 9.0), DistributionSpec(1e-3, 0.9, 1.0, 1.5))
        assert repr(monte_carlo_statistics(specs, 300_007, 5)) == (
            "[(StatReport(expectation=1.361621720189088, variance=0.2050091110875365, samples=300007, "
            "std_error=0.0008266485098541471, seed=5), StatReport(expectation=0.8248514157303717, "
            "variance=0.06211406929739982, samples=300007, std_error=0.0004550187542029928, seed=5)), "
            "(StatReport(expectation=1.221128054026658, variance=0.016206082058040305, samples=300007, "
            "std_error=0.0002324199068134277, seed=5), StatReport(expectation=0.4176110887452687, "
            "variance=0.06627994846363922, samples=300007, std_error=0.0004700297932670272, seed=5))]")
        with pytest.raises(ValueError, match=f"^area_ratio_hi must be <= {MAX_TABLE_BANDS - 1}, got 1500.0$"):
            DistributionSpec(1.0, 1500.0, 1.0, 6.0)

    def test_each_spec_reads_its_table_once_per_part(self, monkeypatch, force_parts):
        calls, range_table = [], slicekit.verify._range_table
        monkeypatch.setattr(slicekit.verify, "_range_table",
                            lambda low, high: calls.append(range_table(low, high)) or calls[-1])
        force_parts(2)
        monte_carlo_statistics((DistributionSpec(), ALTERNATE_SPEC), 3 * CHUNK_SIZE, 1)  # 4 leaves in 2 parts
        assert sorted((t.bands.start, t.bands.stop) for t in calls) == [(1, 4), (1, 4), (1, 21), (1, 21)]

    @pytest.mark.parametrize("dist", [DistributionSpec(1.0, MAX_TABLE_BANDS - 1),
                                      DistributionSpec(0.5, MAX_TABLE_BANDS - 1, 1.0, MAX_ASPECT)])
    def test_the_widest_spec_equals_the_serial_shard_loop(self, dist):
        # the greatest draw may round up past area_ratio_hi into band MAX_TABLE_BANDS, still one table
        samples = 2 * CHUNK_SIZE + 1
        assert monte_carlo_statistics((dist,), samples, 6) == [serial_shard_loop(dist, samples, 6)]
        assert all(map(math.isfinite, np.ravel(exact_expectations(dist))))

    def test_nan_area_raises_the_serial_error_and_leaves_no_thread(self):
        rng = np.random.default_rng(0)
        area, aspect = rng.uniform(1, 20, 2**18), np.exp(rng.uniform(0, math.log(6), 2**18))
        area[2**18 - 5] = np.nan  # in the last chunk
        threads = threading.active_count()
        # the caller's errstate holds: the NaN band's cast to int64 stays silent
        with np.errstate(invalid="ignore"), pytest.raises(ValueError, match="^slice count must be >= 1$"):
            slice_statistics(area, aspect)
        assert threading.active_count() == threads

    def test_no_thread_outlives_a_call(self, force_parts):
        threads = threading.active_count()
        force_parts(3)
        monte_carlo_expectations(DistributionSpec(), 2 * 10**5 + 7, 1)
        assert threading.active_count() == threads

    def test_peak_memory_below_six_sample_arrays(self):
        tracemalloc.start()
        try:
            monte_carlo_expectations(DistributionSpec(), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 6 * 8 * 10**6, peak  # the two draws take 2 of them; the statistics overwrite them

    def test_peak_memory_over_two_shards_holds_one_pair_of_shard_arrays(self, force_parts):
        force_parts(2)
        tracemalloc.start()
        try:
            monte_carlo_expectations(DistributionSpec(), 2 * MC_SHARD_SIZE + 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the two shard arrays are made once per call; a fresh pair per shard reads 3 arrays
        assert peak < 2.75 * 8 * MC_SHARD_SIZE, peak

    @pytest.mark.parametrize("size", [2 * MIN_PART_SIZE + 1, MC_SHARD_SIZE + 1])
    @pytest.mark.parametrize("parts", [1, 2, 3])
    def test_in_part_draws_are_the_shard_streams_two_uniform_calls(self, monkeypatch, force_parts, size, parts):
        ss = np.random.SeedSequence(11).spawn(1)[0]  # seed 11's one shard, of size samples
        dists = (DistributionSpec(), ALTERNATE_SPEC)
        leaves = _pairwise(size, lambda n: [n])
        edges = list(accumulate(leaves, initial=0))
        expected = set()
        for dist in dists:
            rng = np.random.default_rng(ss)
            area = rng.uniform(dist.area_ratio_lo, dist.area_ratio_hi, size)
            aspect = np.exp(rng.uniform(math.log(dist.aspect_lo), math.log(dist.aspect_hi), size))
            expected |= {(area[a:b].tobytes(), aspect[a:b].tobytes()) for a, b in zip(edges, edges[1:])}
        seen, drawn, counts = [], [], []

        class CountingGenerator(np.random.Generator):
            def random(self, *args, out=None, **kwargs):
                drawn.append(out.size)
                return super().random(*args, out=out, **kwargs)

        monkeypatch.setattr(np.random, "Generator", CountingGenerator)
        monkeypatch.setattr(slicekit.verify, "_slice_statistics_in_place",
                            lambda area, ratio, table, buffers: seen.append((area.tobytes(), ratio.tobytes())))
        monkeypatch.setattr(slicekit.verify, "_on_threads", lambda fns: counts.append(len(fns)) or _on_threads(fns))
        monkeypatch.setattr(slicekit.verify, "MC_SHARD_SIZE", size)
        force_parts(parts)
        monte_carlo_statistics(dists, size, 11)
        assert counts == [parts]
        # every leaf of both specs once, byte for byte, from one draw per sample of each of the two streams
        assert len(seen) == len(expected) == 2 * len(leaves) and set(seen) == expected
        assert sum(drawn) == 2 * size

    def test_peak_memory_of_both_specs_below_one_shard_array(self):
        tracemalloc.start()
        try:
            monte_carlo_statistics((DistributionSpec(), ALTERNATE_SPEC), 10**6)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * MC_SHARD_SIZE, peak  # leaf buffers in L2 per part, no shard-sized array

    @pytest.mark.parametrize("parts", [None, 1, 3])
    def test_both_specs_in_one_call_equal_the_serial_shard_loop(self, force_parts, parts):
        dists = (DistributionSpec(), ALTERNATE_SPEC)
        force_parts(parts)
        assert monte_carlo_statistics(dists, MC_SHARD_SIZE + 1, 4) == [
            serial_shard_loop(dist, MC_SHARD_SIZE + 1, 4) for dist in dists]

    @pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="needs os.sched_setaffinity")
    def test_one_core_by_default_equals_the_in_process_report(self):
        # a shard on one core takes one part; bitwise the same report as with every core of this process
        code = ("import json, os; os.sched_setaffinity(0, {min(os.sched_getaffinity(0))}); "
                "from slicekit.verify import _part_count, run_proof_checks; "
                "print(_part_count(10**6)); print(json.dumps(run_proof_checks(10**6 + 1, 3)))")
        src = str(Path(slicekit.verify.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout == f"1\n{json.dumps(run_proof_checks(10**6 + 1, 3))}\n"

    @pytest.mark.parametrize("parts", [None, 1, 2, 3])
    def test_two_shards_with_a_one_sample_last_equal_the_serial_shard_loop(self, force_parts, parts):
        force_parts(parts)
        for dist in (DistributionSpec(), ALTERNATE_SPEC):
            assert monte_carlo_expectations(dist, MC_SHARD_SIZE + 1, 4) == serial_shard_loop(
                dist, MC_SHARD_SIZE + 1, 4)

    def test_more_parts_than_cores_under_a_short_switch_interval(self, force_parts):
        force_parts((os.cpu_count() or 1) + 2)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            got = monte_carlo_expectations(DistributionSpec(), MC_SHARD_SIZE + 1, 4)
        finally:
            sys.setswitchinterval(interval)
        assert got == serial_shard_loop(DistributionSpec(), MC_SHARD_SIZE + 1, 4)

    def test_on_threads_returns_in_order_in_the_callers_context(self):
        threads = threading.active_count()
        with np.errstate(invalid="ignore"):
            got = _on_threads([lambda: (0, np.geterr()["invalid"]), lambda: (1, np.geterr()["invalid"]),
                               lambda: (2, np.geterr()["invalid"])])
        assert got == [(0, "ignore"), (1, "ignore"), (2, "ignore")]
        assert threading.active_count() == threads

    def test_on_threads_reraises_the_first_calls_error_after_every_call_ended(self):
        ended = threading.Event()

        def fail(message: str, delay: float = 0.0):
            time.sleep(delay)
            raise ValueError(message)

        def slow():
            time.sleep(0.2)
            ended.set()

        threads = threading.active_count()
        # call 3 raises first in time and both errors are in by the time call 0 returns here; call 1's error is
        # re-raised, and only after call 2 has ended
        with pytest.raises(ValueError, match="^call 1$"):
            _on_threads([partial(time.sleep, 0.1), partial(fail, "call 1", 0.05), slow, partial(fail, "call 3")])
        assert ended.is_set()
        assert threading.active_count() == threads

    def test_import_loads_no_executor(self):
        # concurrent.futures takes about 11 ms to import, paid by every CLI start; the parts use threading
        code = "import sys, slicekit.verify, slicekit.cli; print('concurrent.futures' in sys.modules)"
        src = str(Path(slicekit.verify.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=60)
        assert (proc.returncode, proc.stdout) == (0, "False\n"), proc.stderr


class TestExact:
    @pytest.mark.parametrize("dist", [DistributionSpec(), ALTERNATE_SPEC])
    def test_monte_carlo_within_four_standard_errors(self, dist):
        samples = 400_000
        mc = monte_carlo_expectations(dist, samples=samples, seed=1)
        # the same draws (one shard), for the standard error of each variance from the fourth moment
        rng = np.random.default_rng(np.random.SeedSequence(1).spawn(1)[0])
        n_area = rng.uniform(dist.area_ratio_lo, dist.area_ratio_hi, samples)
        aspect = np.exp(rng.uniform(math.log(dist.aspect_lo), math.log(dist.aspect_hi), samples))
        for stat, values, (mean, var) in zip(mc, slice_statistics(n_area, aspect), exact_expectations(dist)):
            assert values.mean() == pytest.approx(stat.expectation, rel=1e-12)
            var_se = math.sqrt((((values - values.mean()) ** 4).mean() - stat.variance**2) / samples)
            assert abs(stat.expectation - mean) <= 4 * stat.std_error
            assert abs(stat.variance - var) <= 4 * var_se

    def test_hand_derived_case(self):
        # n in (1, 2] has ideal N=2; at aspect a in [1, 1.2] the one grid is 2x1 (its switch points
        # to 1x2 and 3x1 lie at a = 1 and sqrt 6), so ratio = 2/a with log-uniform a, area = n/2
        (ratio, ratio_var), (area, area_var) = exact_expectations(DistributionSpec(1, 2, 1, 1.2))
        log_hi = math.log(1.2)
        assert ratio == pytest.approx(2 * (1 - 1 / 1.2) / log_hi, abs=1e-12)
        assert ratio_var == pytest.approx(2 * (1 - 1.2**-2) / log_hi - ratio**2, abs=1e-12)
        assert area == pytest.approx(3 / 4, abs=1e-12)
        assert area_var == pytest.approx(1 / 48, abs=1e-12)


class TestProofReport:
    def test_report_is_json_serializable_and_passes(self):
        report = run_proof_checks(samples=50_000, seed=3, grid_density=1000)
        text = json.dumps(report)  # raises on numpy scalar leakage
        assert json.loads(text)["pass"] is True
        assert report["candidate_density"]["pass"] is True
        assert report["bounds_sweep"]["pass"] is True
        (ratio, ratio_var), _ = exact_expectations(ALTERNATE_SPEC)
        assert report["statistics"]["alternate"]["ratio"]["exact"] == {"expectation": ratio, "variance": ratio_var}

    def test_mismatches_carry_assumption_note(self):
        report = run_proof_checks(samples=50_000, seed=3, grid_density=1000)
        area = report["statistics"]["default"]["area"]
        assert area["expectation_matches"] is False
        assert "distribution assumption" in area["note"]
        alt = report["statistics"]["alternate"]["ratio"]
        assert alt["expectation_matches"] is False
        assert "distribution assumption" in alt["note"]
