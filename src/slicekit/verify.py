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
The region is bounded so that both estimators finish and stay finite: n up
to MAX_TABLE_BANDS - 1, the widest range one selection table holds with a
band of margin, and aspect up to MAX_ASPECT.
"""

from __future__ import annotations

import contextvars
import math
import numbers
import os
import threading
from dataclasses import asdict, dataclass
from functools import lru_cache, partial

import numpy as np

from .counts import require_count
from .partition import grid_index, grid_table

TWO_LOG2 = 2.0 * math.log(2.0)
# samples per independently seeded Monte Carlo shard, the run of numpy's pairwise sums; changing it changes the draws
MC_SHARD_SIZE = 1_000_000
MIN_GRID_DENSITY = 1000  # points per axis of the bounds sweep
MAX_GRID_DENSITY = 100_000  # at most: the sweep holds about 1.27 KB per point, 127 MB and 0.13-0.16 s
MIN_PART_SIZE = 2**17  # samples per threaded part; below it a thread's start costs about what it saves
MAX_SAMPLES = 10**9  # Monte Carlo samples per statistic; about 30 s at 3*10^7 samples/s on 2 cores, at most 1000 shards
CHUNK_SIZE = 2**15  # samples per chunk of grid selection, so that its temporaries stay in L2
MAX_TABLE_BANDS = 2**10  # widest band range of a selection table: of a spec's area ratios, or of one call's samples
MAX_ASPECT = 1e6  # greatest aspect_hi: aspect^2, sums of squares over MAX_SAMPLES draws and expm1 stay finite
TABLE_BYTES = 2**20  # most bytes of a selection table's above, rows and cols at one comparison per sample; past it, two
MAGIC = 3 << 51  # 1.5 * 2^52: an integer float within 2^51 of it holds MAGIC's bits plus its offset from MAGIC
MAGIC_BITS = int(np.float64(MAGIC).view(np.int64))
SWITCH_ULPS = 4  # floats either side of num/den within which each switch's threshold is searched


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
        for name in self.__dataclass_fields__:
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Real):
                raise ValueError(f"{name} must be a real number, got {value!r}")
            if not math.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not (0 < self.area_ratio_lo < self.area_ratio_hi):
            raise ValueError("area ratio range must be positive and non-empty")
        if not (1.0 <= self.aspect_lo < self.aspect_hi):
            raise ValueError("aspect range must be >= 1 and non-empty")
        if self.area_ratio_hi > MAX_TABLE_BANDS - 1:
            raise ValueError(f"area_ratio_hi must be <= {MAX_TABLE_BANDS - 1}, got {self.area_ratio_hi}")
        if self.aspect_hi > MAX_ASPECT:
            raise ValueError(f"aspect_hi must be <= {MAX_ASPECT}, got {self.aspect_hi}")


ALTERNATE_SPEC = DistributionSpec(area_ratio_lo=1.0, area_ratio_hi=3.0, aspect_lo=1.0, aspect_hi=2.0)


@dataclass(frozen=True)
class StatReport:
    expectation: float
    variance: float
    samples: int
    std_error: float
    seed: int

    def __post_init__(self):
        for name in ("expectation", "variance"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")

    def to_json_dict(self) -> dict:
        return asdict(self)


@lru_cache(maxsize=None)
def _switch_thresholds(n: int) -> np.ndarray:
    """The smallest float64 aspect^2 at which grid_index(n, ., 1) passes each switch of grid_table(n), ascending.

    grid_index is monotone in a float64 aspect^2 and passes switch j within a few ulps of the float nearest its
    num/den, so each threshold is read off grid_index itself on the floats around that one: the rule is not restated.
    """
    switches = grid_table(n)[1]
    nearest = np.array([num / den for num, den, _ in switches]).view(np.int64)
    near = (nearest[:, None] + np.arange(-SWITCH_ULPS, SWITCH_ULPS + 1)).view(np.float64)
    j = np.arange(len(switches))[:, None]
    passed = grid_index(n, near, 1) > j
    assert not passed[:, 0].any() and passed[:, -1].all(), f"a switch of band {n} flips outside its window"
    thresholds = near[j[:, 0], passed.argmax(axis=1)]
    assert (np.diff(thresholds) > 0).all(), f"the thresholds of band {n} do not strictly increase"
    thresholds.flags.writeable = False
    return thresholds


@dataclass(frozen=True, eq=False)
class _SelectionTable:
    """grid_index for every band of ``bands``, a range of at most MAX_TABLE_BANDS, as a look-up keyed on the bits of
    aspect^2.

    A positive double's int64 bits are monotone in its value, so ``bits >> shift`` bins aspect^2 (``edges``: the
    lowest bin's least float, the highest's greatest) with at most k thresholds of one band in any bin: k = 1 where
    that table fits TABLE_BYTES, else 2.  Cell ``c = row * bins + bin - low_bin`` owns slots ``(k + 1) * c + p``,
    p = 0..k: ``above`` holds the p-th threshold from the bin up (NaN past the band's last), and ``rows``, ``cols``
    the grid chosen past p of them.  The thresholds ascend, so adding ``x >= above[slot]`` to the slot k times from
    p = 0 lands on a sample's grid."""

    bands: range
    k: int
    shift: int
    low_bin: int
    bins: int
    edges: tuple[float, float]
    above: np.ndarray
    rows: np.ndarray
    cols: np.ndarray


def _bins(bits: np.ndarray, row: np.ndarray, k: int) -> tuple[int, int, int]:
    """(shift, low_bin, bins) of the coarsest bins, shift <= 52, with at most k of the thresholds (bits, ascending
    within each row) of one row in any bin: each pair k apart in a row must differ in a bit at or above the shift."""
    apart = (bits[k:] ^ bits[:-k])[row[k:] == row[:-k]]
    shift = min(52, int(apart.min(initial=1 << 53)).bit_length() - 1)
    low_bin = int(bits.min() >> shift)
    return shift, low_bin, int(bits.max() >> shift) - low_bin + 1


@lru_cache(maxsize=8)
def _selection_table(bands: range) -> _SelectionTable:
    thresholds = [_switch_thresholds(n) for n in bands]
    row = np.repeat(np.arange(len(bands)), [t.size for t in thresholds])
    bits = np.concatenate(thresholds).view(np.int64)
    # one comparison per sample where the k = 1 table's three float64 arrays of 2 slots per cell fit, sized from its
    # bins before any of it is made (bands 1-20 take 135 KB; 1-1023 would take 1.0 GB), else two
    k = 1 if 3 * 8 * 2 * len(bands) * _bins(bits, row, 1)[2] <= TABLE_BYTES else 2
    shift, low_bin, bins = _bins(bits, row, k)
    assert bands[-1] * bins + low_bin < 2**51, "_grids adds band offsets to MAGIC, exact within 2^51 of it"
    keys = bits >> shift
    edges = ((np.array([low_bin, low_bin + bins]) << shift) - [0, 1]).view(np.float64)
    # thresholds below each (row, bin) in row-major order; past them, a cell's slots
    per_cell = np.bincount(row * bins + keys - low_bin, minlength=len(bands) * bins)
    below = (np.cumsum(per_cell) - per_cell)[:, None] + np.arange(k + 1)
    cell_row = np.repeat(np.arange(len(bands)), bins)[:, None]
    padded = np.concatenate([np.concatenate([t, np.full(k + 1, np.nan)]) for t in thresholds])
    grids = [g for n in bands for g in grid_table(n)[0]]
    # one grid more than thresholds per row before; a slot past the band's last grid is never read
    grid = np.minimum(below + cell_row, len(grids) - 1).ravel()
    # one list of ints per attribute: a tuple per grid (84,000 at 1,024 bands) would set off the cyclic collector
    rows = np.array([g.rows_n for g in grids], dtype=np.float64)[grid]
    cols = np.array([g.cols_m for g in grids], dtype=np.float64)[grid]
    above = padded[below + (k + 1) * cell_row].ravel()
    for a in (above, rows, cols):
        a.flags.writeable = False
    return _SelectionTable(bands, k, shift, low_bin, bins, tuple(edges.tolist()), above, rows, cols)


def _range_table(low: float, high: float) -> _SelectionTable:
    """The table of bands max(ceil(n), 1) for area ratios n in [low, high], at most MAX_TABLE_BANDS of them."""
    if not high < 2.0**63:  # NaN, inf or past int64, whose int64 band grid_table refused
        raise ValueError("slice count must be >= 1")
    first, last = (max(math.ceil(max(n, 0.0)), 1) for n in (low, high))
    if last - first >= MAX_TABLE_BANDS:
        raise ValueError(f"area_ratio spans bands {first} to {last}, more than MAX_TABLE_BANDS = {MAX_TABLE_BANDS}")
    return _selection_table(range(first, last + 1))


def _chunk_buffers(size: int) -> tuple[np.ndarray, ...]:
    """Scratch for one chunk of min(size, CHUNK_SIZE) samples at most, which stays in L2: the five buffers of _grids.
    Made once per call or part: made per leaf, they cost about 15,000 page faults per 10^6 samples of two specs."""
    size = min(size, CHUNK_SIZE)
    return np.empty(size), np.empty(size, np.int64), np.empty(size, bool), np.empty(size), np.empty(size)


def _grids(area: np.ndarray, aspect: np.ndarray, table: _SelectionTable, buffers: tuple[np.ndarray, ...],
           clamp: bool = False) -> tuple[np.ndarray, np.ndarray]:
    """(rows, cols), in the last two _chunk_buffers, of the grid grid_index(max(ceil(area), 1), aspect^2, 1) chooses
    for each of at most CHUNK_SIZE samples whose bands the table holds; clamp raises a band below the table's first
    (an area <= 0) to it.  No sort, gather or scatter: a bin look-up and table.k comparisons each."""
    x, slot, passed, rows, cols = (b[:area.size] for b in buffers)
    np.multiply(aspect, aspect, out=x, dtype=np.float64)  # as grid_index squares a float64 aspect, overflow included
    # clipped into the table's bins; NaN, negatives, zeros and subnormals go to the lowest, where none passes
    clipped = slot.view(np.float64)
    np.fmax(x, table.edges[0], out=clipped)
    np.minimum(clipped, table.edges[1], out=clipped)
    np.right_shift(slot, table.shift, out=slot)
    # plus the band's row * bins - low_bin, as the bits of MAGIC plus it: every float is an integer, so exact
    band = rows  # free until the grids are gathered
    np.ceil(area, out=band)
    first = table.bands.start
    if clamp:
        np.maximum(band, first, out=band)
    band *= table.bins
    band += MAGIC - first * table.bins - table.low_bin
    slot += band.view(np.int64)
    slot -= MAGIC_BITS
    slot *= table.k + 1
    for _ in range(table.k):
        np.take(table.above, slot, out=band, mode="clip")
        np.greater_equal(x, band, out=passed)
        slot += passed
    np.take(table.rows, slot, out=rows, mode="clip")
    np.take(table.cols, slot, out=cols, mode="clip")
    return rows, cols


def _select_grids(area_ratio: np.ndarray, aspect: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Best (cols, rows) per sample for a square-pretrained encoder, from the same
    switch table and tie-breaks as select_partition (partition.grid_table): the grid
    grid_index(max(ceil(area_ratio), 1), aspect^2, 1) chooses for the float64 aspect, bit for bit, chunk by chunk.
    """
    cols, rows = np.empty(area_ratio.size, dtype=np.int64), np.empty(area_ratio.size, dtype=np.int64)
    if area_ratio.size:
        table, buffers = _range_table(area_ratio.min(), area_ratio.max()), _chunk_buffers(area_ratio.size)
    for start in range(0, area_ratio.size, CHUNK_SIZE):
        chunk = slice(start, start + CHUNK_SIZE)
        rows[chunk], cols[chunk] = _grids(area_ratio[chunk], aspect[chunk], table, buffers, clamp=True)
    return cols, rows


def slice_statistics(area_ratio: np.ndarray, aspect: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Folded slice aspect ratio and normalized slice area per sample, in the calling thread."""
    ratio, area = np.empty(area_ratio.size), np.empty(area_ratio.size)
    if area_ratio.size:
        table, buffers = _range_table(area_ratio.min(), area_ratio.max()), _chunk_buffers(area_ratio.size)
    for start in range(0, area_ratio.size, CHUNK_SIZE):
        chunk = slice(start, start + CHUNK_SIZE)
        ratio[chunk], area[chunk] = aspect[chunk], area_ratio[chunk]
        _slice_statistics_in_place(area[chunk], ratio[chunk], table, buffers, clamp=True)
    return ratio, area


def _slice_statistics_in_place(area: np.ndarray, ratio: np.ndarray, table: _SelectionTable,
                               buffers: tuple[np.ndarray, ...], clamp: bool = False) -> None:
    """Overwrite one chunk's area ratios with normalized slice areas and aspects with folded slice ratios, by _grids
    in _chunk_buffers."""
    rows, cols = _grids(area, ratio, table, buffers, clamp)
    ratio *= rows
    ratio /= cols
    rows *= cols  # the cell count, exact
    area /= rows
    np.divide(1.0, ratio, out=rows)
    np.maximum(ratio, rows, out=ratio)


def _pairwise(n: int, leaf):
    """leaf(size) at each node of numpy's pairwise summation over n doubles that first holds at most CHUNK_SIZE of
    them, in order, added up the tree: ``_pairwise(n, lambda m: [m])`` lists the leaf sizes, and over the leaves'
    own sums it is the sum of the whole run, bit for bit.

    numpy's pairwise_sum adds a run of at most 128 with 8 accumulators and splits a longer one at
    n2 = n/2 - (n/2) % 8, a multiple of 8, returning pairwise_sum(first n2) + pairwise_sum(the rest).
    """
    if n <= CHUNK_SIZE:
        return leaf(n)
    half = n // 2 - n // 2 % 8
    return _pairwise(half, leaf) + _pairwise(n - half, leaf)


def _uniform(u: np.ndarray, low: float, high: float, out: np.ndarray) -> np.ndarray:
    """low + (high - low) * u into out, rounded in the same two steps as Generator.uniform: adding a zero low to
    the non-negative product changes no bit, so that step is skipped."""
    np.multiply(u, high - low, out=out)
    if low:
        out += low
    return out


def _leaf_sums(dists: tuple[DistributionSpec, ...], ss: np.random.SeedSequence, k: int, leaves: list[int],
               first: int, last: int) -> np.ndarray:
    """Leaves [first, last) of a shard of k samples cut into leaves of these sizes, in order: per leaf and spec,
    the sum and the sum of squares of the folded slice ratio, then of the normalized slice area.

    The shard's draws are area = default_rng(ss).uniform(area range, k), then log_aspect = .uniform(log aspect
    range, k) on the same generator: outputs 0..k-1 of the stream, then k..2k-1.  The part jumps to its own in
    each and draws every leaf's uniforms once, into buffers that stay in L2; each spec scales its own copy.
    """
    lo, sizes = sum(leaves[:first]), leaves[first:last]
    streams = [np.random.Generator(np.random.PCG64(ss).advance(start)) for start in (lo, k + lo)]
    u_buf, v_buf, area_buf, ratio_buf = (np.empty(max(sizes)) for _ in range(4))
    buffers = _chunk_buffers(max(sizes))
    # each spec's table from its least and greatest area draw (random() < 1)
    tables = [_range_table(*_uniform(np.array([0.0, 1.0 - 2.0**-53]), d.area_ratio_lo, d.area_ratio_hi, np.empty(2)))
              for d in dists]
    sums = np.empty((len(sizes), 4 * len(dists)))
    for row, n in zip(sums, sizes):
        u, v = streams[0].random(out=u_buf[:n]), streams[1].random(out=v_buf[:n])
        area, ratio = area_buf[:n], ratio_buf[:n]
        for i, dist in enumerate(dists):
            _uniform(u, dist.area_ratio_lo, dist.area_ratio_hi, area)
            # uniform over the (W, H) plane <=> log-uniform aspect
            np.exp(_uniform(v, math.log(dist.aspect_lo), math.log(dist.aspect_hi), ratio), out=ratio)
            _slice_statistics_in_place(area, ratio, tables[i], buffers)
            # each sum before its squares, which overwrite the leaf
            row[4 * i:4 * i + 2] = ratio.sum(), np.square(ratio, out=ratio).sum()
            row[4 * i + 2:4 * i + 4] = area.sum(), np.square(area, out=area).sum()
    return sums


def _on_threads(calls: list) -> list:
    """[call() for call in calls], calls[0] in this thread and each other on its own.

    numpy releases the GIL in its elementwise loops, gathers and reductions, so the calls run on separate cores.
    Each thread runs in a copy of the caller's context (np.errstate carries over).  The error of the first call
    that raised is re-raised after every thread has ended.
    """
    results: list = [None] * len(calls)
    errors: list[BaseException | None] = [None] * len(calls)

    def run(i: int) -> None:
        try:
            results[i] = calls[i]()
        except BaseException as exc:  # re-raised in the calling thread below
            errors[i] = exc

    threads = [threading.Thread(target=contextvars.copy_context().run, args=(run, i)) for i in range(1, len(calls))]
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
    return results


def _part_count(samples: int) -> int:
    """Parts, each on its own thread, of a Monte Carlo shard of this many samples: one per core, but none of fewer
    than MIN_PART_SIZE samples, and one at least."""
    cores = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1
    return max(1, min(cores, samples // MIN_PART_SIZE))


def enumerate_ratio_bound(n_max: int = 20) -> tuple[bool, float]:
    """Candidate density check: every candidate grid's log-aspect has another
    candidate within 2*log(2), for every slice count up to n_max, at most MAX_TABLE_BANDS (the bands a selection
    table reaches).

    Returns (holds, worst minimal gap).
    """
    n_max = require_count("n_max", n_max, 1, MAX_TABLE_BANDS)
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
    grid_density = require_count("grid_density", grid_density, MIN_GRID_DENSITY, MAX_GRID_DENSITY)
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


def monte_carlo_statistics(dists: tuple[DistributionSpec, ...], samples: int = 10_000_000,
                           seed: int = 42) -> list[tuple[StatReport, StatReport]]:
    """Seeded Monte Carlo estimates of E/Var for slice ratio and area, one (ratio, area) pair per spec of dists.

    Shards of MC_SHARD_SIZE samples have independently derived seeds and a
    fixed reduction order, so results are bit-reproducible for a given seed.
    Every spec reads the same draws, each uniform drawn once.  A shard splits
    at numpy's pairwise-sum points into leaves of at most CHUNK_SIZE samples,
    runs as _part_count contiguous runs of whole leaves on threads, and adds
    the leaves' sums up numpy's tree: each sum is bitwise np.sum over the
    whole shard, for any number of parts, and no shard-sized array is made.
    """
    samples, seed = require_count("samples", samples, 1, MAX_SAMPLES), require_count("seed", seed, 0)
    acc = np.zeros(4 * len(dists))  # per spec: sum_r, sum_r2, sum_s, sum_s2
    remaining = samples
    for ss in np.random.SeedSequence(seed).spawn(-(-samples // MC_SHARD_SIZE)):
        k = min(MC_SHARD_SIZE, remaining)
        remaining -= k
        leaves = _pairwise(k, lambda n: [n])
        parts = min(_part_count(k), len(leaves))
        edges = [len(leaves) * i // parts for i in range(parts + 1)]
        sums = iter(np.concatenate(_on_threads([partial(_leaf_sums, dists, ss, k, leaves, first, last)
                                                for first, last in zip(edges, edges[1:])])))
        acc += _pairwise(k, lambda n: next(sums))

    def report(total: float, total_sq: float) -> StatReport:
        mean = total / samples
        var = total_sq / samples - mean * mean
        var = 0.0 if var < 0.0 else var  # a negative rounding; a NaN stays, for StatReport to refuse
        return StatReport(
            expectation=float(mean),
            variance=float(var),
            samples=samples,
            std_error=float(math.sqrt(var / samples)),
            seed=seed,
        )

    return [(report(*acc[i:i + 2]), report(*acc[i + 2:i + 4])) for i in range(0, acc.size, 4)]


def monte_carlo_expectations(dist: DistributionSpec, samples: int = 10_000_000,
                             seed: int = 42) -> tuple[StatReport, StatReport]:
    """monte_carlo_statistics for one spec: (ratio, area)."""
    return monte_carlo_statistics((dist,), samples, seed)[0]


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
    # every count is checked before any of the work
    samples, seed = require_count("samples", samples, 1, MAX_SAMPLES), require_count("seed", seed, 0)
    grid_density = require_count("grid_density", grid_density, MIN_GRID_DENSITY, MAX_GRID_DENSITY)
    holds, worst_gap = enumerate_ratio_bound(20)
    min_r, max_r, min_s, max_s = sweep_slice_bounds(grid_density=grid_density)
    (ratio_stats, area_stats), (alt_ratio, _) = monte_carlo_statistics(
        (DistributionSpec(), ALTERNATE_SPEC), samples=samples, seed=seed)
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
