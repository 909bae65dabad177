"""Numerical verification of the partition strategy's theoretical claims.

Checks, without symbols: (1) the candidate grids for every slice count up
to 20 are dense enough in log-aspect space that each slice's aspect ratio
stays within [1/2, 2]; (2) the normalized slice area stays within
[1/3, 3/2]; (3) the expectation and variance of the slice aspect ratio and
area under a documented distribution of image sizes, exactly in closed form
from the partition's switch table, next to a seeded Monte Carlo estimate.

Distribution assumption: image sizes are uniform over the (width, height)
plane, restricted to area ratio n in (lo, hi] relative to the encoder's
pretraining area and aspect ratio in [lo, hi] (long side over short side).
In (n, aspect) coordinates that measure is uniform in n and log-uniform in
aspect.  The aspect-ratio statistic is orientation-folded (always >= 1).
"""

from __future__ import annotations

import contextvars
import math
import os
import threading
from dataclasses import asdict, dataclass

import numpy as np

from .partition import grid_index, grid_table

TWO_LOG2 = 2.0 * math.log(2.0)
MC_SHARD_SIZE = 1_000_000  # samples per independently seeded Monte Carlo shard; changing it changes the draws
MIN_GRID_DENSITY = 1000  # points per axis of the bounds sweep
MIN_PART_SIZE = 2**17  # samples per threaded part; below it a thread's start costs about what it saves
MAX_SAMPLES = 10**9  # Monte Carlo samples per statistic; minutes at about 10^7 samples/s, at most 1000 shards


@dataclass(frozen=True)
class DistributionSpec:
    """Sampling region for the statistics integrals.

    area_ratio range is open at the low end; values at or below the encoder
    area (n <= 1) are excluded because the theoretical bounds assume the
    image is at least one encoder tile.
    """

    area_ratio_lo: float = 1.0
    area_ratio_hi: float = 20.0
    aspect_lo: float = 1.0
    aspect_hi: float = 6.0

    def __post_init__(self):
        if not (0 < self.area_ratio_lo < self.area_ratio_hi):
            raise ValueError("area ratio range must be positive and non-empty")
        if not (1.0 <= self.aspect_lo < self.aspect_hi):
            raise ValueError("aspect range must be >= 1 and non-empty")


ALTERNATE_SPEC = DistributionSpec(area_ratio_lo=1.0, area_ratio_hi=3.0, aspect_lo=1.0, aspect_hi=2.0)


@dataclass(frozen=True)
class StatReport:
    expectation: float
    variance: float
    samples: int
    std_error: float
    seed: int

    def to_json_dict(self) -> dict:
        return asdict(self)


def select_grids_vectorized(area_ratio: np.ndarray, aspect: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best (cols, rows) per sample for a square-pretrained encoder, from the same
    switch table and tie-breaks as select_partition (partition.grid_table).

    One stable sort groups the samples by band (ideal count ceil(area_ratio)); grid_index runs on each band's
    contiguous slice of aspect^2, and a small per-sample index into all bands' grids is scattered back.
    """
    band = np.maximum(np.ceil(area_ratio), 1)
    band = band.astype(np.uint8 if (band <= 255).all() else np.int64)  # numpy radix-sorts uint8
    order = np.argsort(band, kind="stable")
    band = band[order]
    bounds = [0, *(np.flatnonzero(np.diff(band)) + 1).tolist(), band.size]
    bands = band[bounds[:-1]].tolist() if band.size else []
    del band  # the dels keep the peak below the two int64 outputs plus about two sample arrays
    tables = [grid_table(n)[0] for n in bands]
    offsets = np.cumsum([0, *map(len, tables)])
    aspect_sq = aspect[order]
    aspect_sq *= aspect_sq
    chosen = np.empty(aspect_sq.shape, dtype=np.min_scalar_type(offsets[-1]))
    for lo, hi, n, offset in zip(bounds, bounds[1:], bands, offsets):
        chosen[lo:hi] = offset + grid_index(n, aspect_sq[lo:hi], 1)
    del aspect_sq
    index = np.empty_like(chosen)
    index[order] = chosen
    del order, chosen
    grids = [g for table in tables for g in table]
    cols = np.array([g.cols_m for g in grids], dtype=np.int64)
    rows = np.array([g.rows_n for g in grids], dtype=np.int64)
    return cols[index], rows[index]


def slice_statistics(
    area_ratio: np.ndarray, aspect: np.ndarray, *, _parts: int | None = None
) -> tuple[np.ndarray, np.ndarray]:
    """Folded slice aspect ratio and normalized slice area per sample.

    _parts (for tests) sets the number of contiguous parts in place of one per core; no value changes with it.
    """
    ratio, area = np.array(aspect, dtype=np.float64), np.array(area_ratio, dtype=np.float64)
    _in_parts(_slice_statistics_in_place, area, ratio, _parts)
    return ratio, area


def _slice_statistics_in_place(area: np.ndarray, ratio: np.ndarray) -> None:
    """Overwrite area ratios with normalized slice areas and aspects with folded slice ratios."""
    cols, rows = select_grids_vectorized(area, ratio)
    ratio *= rows
    ratio /= cols
    cols *= rows
    del rows
    area /= cols
    del cols
    np.maximum(ratio, 1.0 / ratio, out=ratio)


def _draws_to_statistics(area: np.ndarray, log_aspect: np.ndarray) -> None:
    np.exp(log_aspect, out=log_aspect)
    _slice_statistics_in_place(area, log_aspect)


def _in_parts(kernel, x: np.ndarray, y: np.ndarray, parts: int | None) -> None:
    """kernel(x[lo:hi], y[lo:hi]) over contiguous parts, the first in this thread and each other on its own.

    numpy releases the GIL in the elementwise loops, sorts and gathers, so the parts run on separate cores;
    each sample's arithmetic is the same in any part.  Each thread runs in a copy of the caller's context
    (np.errstate carries over), and the error of the lowest part that raised is re-raised after all have ended.
    """
    if parts is None:
        cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
        parts = min(cores, x.size // MIN_PART_SIZE)
    parts = max(1, min(parts, x.size))
    edges = [x.size * i // parts for i in range(parts + 1)]
    errors: list[BaseException | None] = [None] * parts

    def run(i: int) -> None:
        try:
            kernel(x[edges[i]:edges[i + 1]], y[edges[i]:edges[i + 1]])
        except BaseException as exc:  # re-raised in the calling thread below
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, i)) for i in range(1, parts)]
    for t in threads:
        t.start()
    try:
        run(0)
    finally:
        for t in threads:
            t.join()
    for exc in errors:
        if exc is not None:
            raise exc


def enumerate_ratio_bound(n_max: int = 20) -> tuple[bool, float]:
    """Candidate density check: every candidate grid's log-aspect has another
    candidate within 2*log(2), for every slice count up to n_max.

    Returns (holds, worst minimal gap).
    """
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    holds, worst = True, 0.0
    for n in range(1, n_max + 1):
        grids = grid_table(n)[0]
        logs = [math.log(g.rows_n / g.cols_m) for g in grids]
        # in the sorted table each candidate's nearest neighbour is adjacent
        gaps = [abs(a - b) for a, b in zip(logs, logs[1:])]
        worst = max(worst, gaps[0], gaps[-1], *(min(a, b) for a, b in zip(gaps, gaps[1:])))
        # decided in integers: neighbours a < b in cols/rows are within 2*log(2) iff (c_b/r_b) / (c_a/r_a) <= 4
        near = [b.cols_m * a.rows_n <= 4 * a.cols_m * b.rows_n for a, b in zip(grids, grids[1:])]
        holds = holds and all(left or right for left, right in zip([False, *near], [*near, False]))
    return holds, worst


def sweep_slice_bounds(grid_density: int = 1500) -> tuple[float, float, float, float]:
    """(min_ratio, max_ratio, min_area, max_area) over a dense (n, aspect) grid of DistributionSpec()'s region.

    Ratios are folded; the full symmetric aspect range [1/hi, hi] gives the
    same folded values by symmetry of the score.
    """
    if grid_density < MIN_GRID_DENSITY:
        raise ValueError(f"grid density must be >= {MIN_GRID_DENSITY} per axis")
    d = DistributionSpec()
    # open at the low area ratio: start half a step in
    n_vals = d.area_ratio_lo + (np.arange(grid_density) + 0.5) * (d.area_ratio_hi - d.area_ratio_lo) / grid_density
    a_vals = np.exp(np.linspace(math.log(d.aspect_lo), math.log(d.aspect_hi), grid_density))
    # The grid depends on n only through its band ceil(n), so the ratio is constant along n within a band, and
    # the area n / cells is monotone in n (rounded division by a positive constant is): each band's first and
    # last n carry every extreme of the full grid.
    last = np.flatnonzero(np.diff(np.ceil(n_vals)))
    nn, aa = np.meshgrid(n_vals[np.unique(np.r_[0, last, last + 1, grid_density - 1])], a_vals, indexing="ij")
    ratio, area = slice_statistics(nn.ravel(), aa.ravel())
    return float(ratio.min()), float(ratio.max()), float(area.min()), float(area.max())


def monte_carlo_expectations(
    dist: DistributionSpec, samples: int = 10_000_000, seed: int = 42, *, _parts: int | None = None
) -> tuple[StatReport, StatReport]:
    """Seeded Monte Carlo estimates of E/Var for slice ratio and area.

    Shards of MC_SHARD_SIZE samples have independently derived seeds and a
    fixed reduction order, so results are bit-reproducible for a given seed.
    Each shard's statistics overwrite its draws in place, over contiguous
    parts on threads (one per core; _parts, for tests, sets the count), and
    are summed over the whole shard, so the results are the same for any
    number of parts.
    """
    if not 1 <= samples <= MAX_SAMPLES:
        raise ValueError(f"need between 1 and {MAX_SAMPLES} samples, got {samples}")
    shard_seeds = np.random.SeedSequence(seed).spawn(-(-samples // MC_SHARD_SIZE))
    acc = np.zeros(5)  # sum_r, sum_r2, sum_s, sum_s2, count
    remaining = samples
    for ss in shard_seeds:
        k = min(MC_SHARD_SIZE, remaining)
        remaining -= k
        rng = np.random.default_rng(ss)
        area = rng.uniform(dist.area_ratio_lo, dist.area_ratio_hi, k)
        # uniform over the (W, H) plane <=> log-uniform aspect; the kernel turns the log aspect into the ratio
        ratio = rng.uniform(math.log(dist.aspect_lo), math.log(dist.aspect_hi), k)
        _in_parts(_draws_to_statistics, area, ratio, _parts)
        # summed over the whole shard in this thread, so no sum depends on the parts; squared in place after each
        acc += [ratio.sum(), np.square(ratio, out=ratio).sum(), area.sum(), np.square(area, out=area).sum(), k]

    def report(total: float, total_sq: float) -> StatReport:
        count = acc[4]
        mean = total / count
        var = max(0.0, total_sq / count - mean * mean)
        return StatReport(
            expectation=float(mean),
            variance=float(var),
            samples=int(count),
            std_error=float(math.sqrt(var / count)),
            seed=seed,
        )

    return report(acc[0], acc[1]), report(acc[2], acc[3])


def exact_expectations(dist: DistributionSpec) -> tuple[tuple[float, float], tuple[float, float]]:
    """Closed-form ((E, Var) of the folded slice ratio, (E, Var) of the slice area) under dist.

    In band k (ideal count k, n in (k-1, k]) the grid changes only at grid_table(k)'s switch points,
    log-aspect x = log(num/den)/2, so each (band, grid) piece integrates exp(s*|x - log(c/r)|) over x,
    with antiderivative sign(y)*expm1(s*|y|)/s, and n, n^2 over the band.
    """
    x_lo, x_hi = math.log(dist.aspect_lo), math.log(dist.aspect_hi)
    moments = np.zeros(4)  # integrals of ratio, ratio^2, area, area^2 over the (n, x) region

    def integral(y0: float, y1: float, s: int) -> float:  # of exp(s*|y|) over [y0, y1]
        return (math.copysign(math.expm1(s * abs(y1)), y1) - math.copysign(math.expm1(s * abs(y0)), y0)) / s

    for k in range(math.floor(dist.area_ratio_lo) + 1, math.ceil(dist.area_ratio_hi) + 1):
        n0, n1 = max(k - 1.0, dist.area_ratio_lo), min(float(k), dist.area_ratio_hi)
        grids, switches = grid_table(k)
        edges = [x_lo, *(min(max(0.5 * math.log(num / den), x_lo), x_hi) for num, den, _ in switches), x_hi]
        for g, a, b in zip(grids, edges, edges[1:]):
            c, cells = math.log(g.cols_m / g.rows_n), g.slice_count
            moments += [(n1 - n0) * integral(a - c, b - c, 1), (n1 - n0) * integral(a - c, b - c, 2),
                        (b - a) * (n1**2 - n0**2) / (2 * cells), (b - a) * (n1**3 - n0**3) / (3 * cells**2)]
    r, r2, s, s2 = (moments / ((dist.area_ratio_hi - dist.area_ratio_lo) * (x_hi - x_lo))).tolist()
    return (r, r2 - r * r), (s, s2 - s * s)


# Reference values from the published analysis, with match tolerances.
REFERENCE_STATS = {
    "default": {"ratio": (1.258, 0.048), "area": (1.057, 0.016)},
    "alternate": {"ratio": (1.147, 0.011)},
}
EXPECTATION_TOL = 0.02
VARIANCE_TOL = 0.01


def run_proof_checks(samples: int = 10_000_000, seed: int = 42, grid_density: int = 1500) -> dict:
    """Full verification report for the CLI; JSON-serializable."""
    holds, worst_gap = enumerate_ratio_bound(20)
    min_r, max_r, min_s, max_s = sweep_slice_bounds(grid_density=grid_density)
    ratio_stats, area_stats = monte_carlo_expectations(DistributionSpec(), samples=samples, seed=seed)
    alt_ratio, _ = monte_carlo_expectations(ALTERNATE_SPEC, samples=samples, seed=seed)
    exact_ratio, exact_area = exact_expectations(DistributionSpec())
    exact_alt_ratio, _ = exact_expectations(ALTERNATE_SPEC)

    def stat_entry(stats: StatReport, exact: tuple[float, float], ref: tuple[float, float]) -> dict:
        exp_ok = abs(exact[0] - ref[0]) <= EXPECTATION_TOL
        var_ok = abs(exact[1] - ref[1]) <= VARIANCE_TOL
        return {
            "exact": {"expectation": exact[0], "variance": exact[1]},
            "observed": stats.to_json_dict(),
            "reference": {"expectation": ref[0], "variance": ref[1]},
            "expectation_matches": exp_ok,
            "variance_matches": var_ok,
            "note": None
            if exp_ok and var_ok
            else "mismatch under the documented distribution assumption "
            "(uniform over the width/height plane, folded ratio, no single-slice "
            "partition above one encoder tile)",
        }

    report = {
        "candidate_density": {
            "holds": holds,
            "worst_gap": worst_gap,
            "bound": TWO_LOG2,
            "pass": holds,
        },
        "bounds_sweep": {
            "ratio_range": [min_r, max_r],
            "area_range": [min_s, max_s],
            "pass": (0.5 <= min_r and max_r <= 2.0 and abs(min_s - 1 / 3) <= 0.01 and abs(max_s - 1.5) <= 0.01),
        },
        "statistics": {
            "default": {
                "ratio": stat_entry(ratio_stats, exact_ratio, REFERENCE_STATS["default"]["ratio"]),
                "area": stat_entry(area_stats, exact_area, REFERENCE_STATS["default"]["area"]),
            },
            "alternate": {
                "ratio": stat_entry(alt_ratio, exact_alt_ratio, REFERENCE_STATS["alternate"]["ratio"]),
            },
        },
    }
    report["pass"] = bool(report["candidate_density"]["pass"] and report["bounds_sweep"]["pass"])
    return report
