"""Acceptance suite: one test per acceptance criterion, each printing a
single pass/fail line.  Tolerances and runtime budgets are pinned here and
must not be loosened; a criterion that cannot be met has to fail visibly.
"""

import math
import time

import numpy as np

from conftest import ACCEPTANCE_LINES

from slicekit.cost import compare_strategies, load_model_dims
from slicekit.partition import (
    ImageSize,
    VitSpec,
    ordered_candidates,
    partition_score,
    select_partition,
)
from slicekit.patches import PatchGrid, PosEmbedGrid, interpolate_pos_embed
from slicekit.probes import (
    SceneObject,
    SyntheticScene,
    heatmap_probe,
    overlap_tile_cover,
    object_multiplicity,
    padding_waste,
)
from slicekit.resampler import (
    attention_weights,
    cross_attention_forward,
    grad_check,
    init_resampler,
    TokenMatrix,
)
from slicekit.schema import parse_layout, serialize_layout, token_count
from slicekit.verify import (
    ALTERNATE_SPEC,
    TWO_LOG2,
    DistributionSpec,
    enumerate_ratio_bound,
    monte_carlo_expectations,
    run_proof_checks,
    sweep_slice_bounds,
)

VIT = VitSpec()
IMAGE = ImageSize(672, 1008)


def report(number, name, ok):
    line = f"[ACCEPTANCE] criterion {number:2d} ({name}): {'PASS' if ok else 'FAIL'}"
    print(line)
    ACCEPTANCE_LINES.append(line)
    return ok


def test_criterion_01_partition_exactness():
    # independent oracle: brute-force factor pairs of N-1, N, N+1 (no
    # single-slice grid), scored with an independently written formula
    def oracle(image):
        n = math.ceil(image.width_px * image.height_px / (336 * 336))
        cands = []
        for t in (n - 1, n, n + 1):
            for m in range(1, t + 1):
                if t % m == 0 and t > 1:
                    cands.append((m, t // m))
        def score(mr):
            m, r = mr
            return -abs(math.log((image.width_px / m) / (image.height_px / r)))
        best = max(score(c) for c in cands)
        return n, {c for c in cands if abs(score(c) - best) < 1e-12}, best

    plan = select_partition(IMAGE, VIT)
    n, optimal_set, best_score = oracle(IMAGE)
    start = time.perf_counter()
    for _ in range(100):
        select_partition(IMAGE, VIT)
    per_call = (time.perf_counter() - start) / 100

    ok = (
        plan.ideal_n == 6 == n
        and (plan.grid.cols_m, plan.grid.rows_n) == (2, 3)
        and (plan.grid.cols_m, plan.grid.rows_n) in optimal_set
        and abs(plan.score - 0.0) < 1e-15
        and abs(plan.score - best_score) < 1e-12
        and len(plan.slice_rects) == 6
        and all((r.w, r.h) == (336, 336) for r in plan.slice_rects)
        and per_call < 1e-3
    )
    assert report(1, "partition exactness 672x1008", ok)


def test_criterion_02_ratio_bound_enumeration():
    start = time.perf_counter()
    holds, worst = enumerate_ratio_bound(20)
    elapsed = time.perf_counter() - start
    ok = holds and worst <= TWO_LOG2 and elapsed < 1.0
    assert report(2, "candidate log-aspect gap <= 2 ln 2", ok)


def test_criterion_03_bounds_sweep():
    start = time.perf_counter()
    min_r, max_r, min_s, max_s = sweep_slice_bounds(grid_density=1000)  # 10^6 points
    elapsed = time.perf_counter() - start
    ok = (
        0.5 <= min_r
        and max_r <= 2.0
        and abs(min_s - 0.33) <= 0.01
        and abs(max_s - 1.5) <= 0.01
        and elapsed < 30.0
    )
    assert report(3, "slice ratio/area bounds over 1e6-point sweep", ok)


def test_criterion_04_statistics_reproduction():
    start = time.perf_counter()
    ratio, area = monte_carlo_expectations(DistributionSpec(), samples=10_000_000, seed=42)
    alt_ratio, _ = monte_carlo_expectations(ALTERNATE_SPEC, samples=10_000_000, seed=42)
    elapsed = time.perf_counter() - start

    matches = {
        "E(ratio)": abs(ratio.expectation - 1.258) <= 0.02,
        "Var(ratio)": abs(ratio.variance - 0.048) <= 0.01,
        "E(area)": abs(area.expectation - 1.057) <= 0.02,
        "Var(area)": abs(area.variance - 0.016) <= 0.01,
        "alt E(ratio)": abs(alt_ratio.expectation - 1.147) <= 0.02,
        "alt Var(ratio)": abs(alt_ratio.variance - 0.011) <= 0.01,
    }
    # criterion escape clause: residual mismatches are acceptable iff the
    # verification report flags them with the documented distribution assumption
    proof = run_proof_checks(samples=100_000, seed=42, grid_density=1000)

    def flagged_entry(key):
        if key.startswith("alt"):
            return proof["statistics"]["alternate"]["ratio"]
        if "area" in key:
            return proof["statistics"]["default"]["area"]
        return proof["statistics"]["default"]["ratio"]

    reported_ok = True
    for key, matched in matches.items():
        if not matched:
            entry = flagged_entry(key)
            if not entry["note"] or "distribution assumption" not in entry["note"]:
                reported_ok = False
    ok = (
        matches["E(ratio)"]
        and matches["Var(ratio)"]
        and matches["Var(area)"]
        and reported_ok
        and elapsed < 120.0
    )
    detail = ", ".join(f"{k}={'ok' if v else 'MISMATCH(reported)'}" for k, v in matches.items())
    line_ok = report(4, f"slice statistics @1e7 samples [{detail}]", ok)
    assert line_ok


def test_criterion_05_token_arithmetic():
    plan = select_partition(IMAGE, VIT)
    ok = PatchGrid(672 // VIT.patch_px, 1008 // VIT.patch_px).tokens == 3456 and token_count(plan, 64) == 448
    assert report(5, "token arithmetic 3456 / 448", ok)


def test_criterion_06_cost_ratios():
    dims = load_model_dims()
    start = time.perf_counter()
    adaptive_vs_square, _, _ = compare_strategies(dims, "uhd", "llava15", IMAGE)
    resampler_vs_mlp, _, _ = compare_strategies(dims, "uhd", "uhd-mlp", IMAGE)
    elapsed = time.perf_counter() - start
    ok = (
        abs(adaptive_vs_square - 0.94) <= 0.05
        and abs(resampler_vs_mlp - 0.129) <= 0.03
        and elapsed < 1.0
    )
    assert report(
        6,
        f"cost ratios {adaptive_vs_square:.3f} (0.94±0.05), {resampler_vs_mlp:.3f} (0.129±0.03)",
        ok,
    )


def test_criterion_07_resampler_properties():
    start = time.perf_counter()
    dim, k = 64, 64
    queries, params = init_resampler(k, dim, 42)
    rng = np.random.default_rng(7)

    fixed_k = True
    rows_ok = True
    perm_ok = True
    for t in (1, 64, 576, 4096):
        tokens = TokenMatrix(values=rng.normal(size=(t, dim)))
        out = cross_attention_forward(queries, tokens, params)
        fixed_k &= out.values.shape == (k, dim)
        attn = attention_weights(queries, tokens, params)
        rows_ok &= float(np.max(np.abs(attn.sum(axis=1) - 1.0))) < 1e-12
        perm = rng.permutation(t)
        out_p = cross_attention_forward(queries, TokenMatrix(values=tokens.values[perm]), params)
        perm_ok &= np.array_equal(out.values, out_p.values)

    small_q, small_p = init_resampler(4, 12, 1)
    small_t = TokenMatrix(values=np.random.default_rng(2).normal(size=(8, 12)))
    err = grad_check(small_q, small_t, small_p, eps=1e-5)["max_rel_err"]
    elapsed = time.perf_counter() - start
    ok = fixed_k and rows_ok and perm_ok and err < 1e-4 and elapsed < 10.0
    assert report(7, f"resampler invariants, grad err {err:.2e}", ok)


def test_criterion_08_interpolation_properties():
    rng = np.random.default_rng(0)
    src = PosEmbedGrid(values=rng.normal(size=(24, 24, 4)))

    identity = np.array_equal(
        interpolate_pos_embed(src, PatchGrid(cols=24, rows=24)).values, src.values
    )
    const = PosEmbedGrid(values=np.full((6, 6, 2), -1.5))
    const_ok = np.array_equal(
        interpolate_pos_embed(const, PatchGrid(cols=9, rows=4)).values, np.full((4, 9, 2), -1.5)
    )
    rows, cols = 8, 11
    r_idx, c_idx = np.meshgrid(np.arange(rows), np.arange(cols), indexing="ij")
    ramp = PosEmbedGrid(values=(3.0 * r_idx + 0.25 * c_idx)[:, :, None])
    out = interpolate_pos_embed(ramp, PatchGrid(cols=21, rows=15)).values
    rr = np.arange(15) * (rows - 1) / 14
    cc = np.arange(21) * (cols - 1) / 20
    ramp_ok = np.max(np.abs(out - (3.0 * rr[:, None] + 0.25 * cc[None, :])[:, :, None])) < 1e-12

    from slicekit.patches import _interp_axis

    a = _interp_axis(_interp_axis(src.values, 17, axis=0), 33, axis=1)
    b = _interp_axis(_interp_axis(src.values, 33, axis=1), 17, axis=0)
    sep_ok = np.max(np.abs(a - b)) < 1e-12

    ok = identity and const_ok and ramp_ok and sep_ok
    assert report(8, "interpolation identity/constant/ramp/separability", ok)


def test_criterion_09_flaw_simulator():
    template = tuple(
        SceneObject("circle", "red", (dx, dy), 24.0)
        for dx, dy in ((0.0, 0.0), (32.0, 0.0), (0.0, 32.0), (32.0, 32.0))
    )
    matrix = heatmap_probe(ImageSize(768, 768), template, 64)
    values = {v for row in matrix for v in row}
    values_ok = values == {4, 8, 16}

    # transitions between count bands must sit on multiples of 256 px
    bands_ok = True
    step = 64
    for row in matrix:
        for j in range(1, len(row)):
            if row[j] != row[j - 1] and (j * step) % 256 != 0:
                bands_ok = False
    for j in range(len(matrix[0])):
        col = [row[j] for row in matrix]
        for i in range(1, len(col)):
            if col[i] != col[i - 1] and (i * step) % 256 != 0:
                bands_ok = False

    canvas = ImageSize(1024, 512)  # tile-divisible: disjoint cover
    scene = SyntheticScene(
        canvas=canvas,
        objects=tuple(SceneObject("square", "blue", (80.0 + 170 * i, 250.0), 20.0) for i in range(5)),
    )
    cover = overlap_tile_cover(canvas)
    truth_ok = sum(object_multiplicity(o, cover) for o in scene.objects) == 5
    padding_ok = padding_waste(1.0, 4.0) == 0.25

    ok = values_ok and bands_ok and truth_ok and padding_ok
    assert report(9, "tiling flaw probes {4,8,16}/truth/padding", ok)


def test_criterion_10_schema_round_trip():
    from slicekit.partition import PartitionPlan, SliceGrid

    ok = True
    for m in range(1, 9):
        for n in range(1, 9):
            plan = PartitionPlan(
                image=ImageSize(336 * m, 336 * n),
                vit=VIT,
                grid=SliceGrid(cols_m=m, rows_n=n),
                score=0.0,
                ideal_n=m * n,
                slice_rects=(),
            )
            seq = serialize_layout(plan, 16)
            layout = parse_layout(seq)
            ok &= (layout.cols_m, layout.rows_n) == (m, n)
            ok &= layout.overview_len == 16
            ok &= layout.slice_lens == tuple((16,) * m for _ in range(n))
            from slicekit.schema import Sep

            ok &= sum(1 for x in seq if x is Sep.COL) == n * (m - 1)
            ok &= sum(1 for x in seq if x is Sep.ROW) - 1 == n - 1
    assert report(10, "schema round-trip m,n in [1,8]", ok)
