import json
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.partition import ImageSize, VitSpec, select_partition
from slicekit.verify import (
    ALTERNATE_SPEC,
    TWO_LOG2,
    DistributionSpec,
    enumerate_ratio_bound,
    exact_expectations,
    monte_carlo_expectations,
    run_proof_checks,
    select_grids_vectorized,
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
        with pytest.raises(ValueError):
            DistributionSpec(area_ratio_lo=5.0, area_ratio_hi=2.0)
        with pytest.raises(ValueError):
            DistributionSpec(aspect_lo=0.5)


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
        cols, rows = select_grids_vectorized(
            np.array([exact_n]), np.array([w / h])
        )
        assert (int(cols[0]), int(rows[0])) == (plan.grid.cols_m, plan.grid.rows_n)

    def test_agrees_with_scalar_selection_on_square_ties(self):
        # a square image lies on the switch point between each grid and its transpose; the wider wins
        sides = np.arange(14, 1601)
        cols, rows = select_grids_vectorized(sides * sides / VIT.pretrain_area_px, np.ones(sides.shape))
        for side, c, r in zip(sides.tolist(), cols.tolist(), rows.tolist()):
            grid = select_partition(ImageSize(side, side), VIT).grid
            assert (c, r) == (grid.cols_m, grid.rows_n)


class TestEnumerationBound:
    def test_holds_up_to_twenty(self):
        holds, worst = enumerate_ratio_bound(20)
        assert holds
        assert worst <= TWO_LOG2
        assert worst == pytest.approx(math.log(3.0), abs=1e-12)

    def test_rejects_bad_limit(self):
        with pytest.raises(ValueError):
            enumerate_ratio_bound(0)


class TestSweep:
    def test_bounds_on_dense_grid(self):
        min_r, max_r, min_s, max_s = sweep_slice_bounds(grid_density=1000)
        assert 0.5 <= min_r and max_r <= 2.0
        assert abs(min_s - 1.0 / 3.0) <= 0.01
        assert abs(max_s - 1.5) <= 0.01

    def test_density_floor_enforced(self):
        with pytest.raises(ValueError):
            sweep_slice_bounds(grid_density=10)


class TestMonteCarlo:
    def test_bit_reproducible(self):
        a = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=7)
        b = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=7)
        assert a == b

    def test_seed_sensitivity(self):
        a = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=7)
        c = monte_carlo_expectations(DistributionSpec(), samples=50_000, seed=8)
        assert a[0].expectation != c[0].expectation

    def test_alternate_spec_region(self):
        r, s = monte_carlo_expectations(ALTERNATE_SPEC, samples=100_000, seed=2)
        assert 1.0 <= r.expectation <= 2.0
        assert 0.0 < s.expectation

    def test_validation(self):
        with pytest.raises(ValueError):
            monte_carlo_expectations(DistributionSpec(), samples=0)


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
