"""The benchmark workloads: seeded inputs, the timed operation and its output checks.

Every workload is a closed loop with one caller: the next operation starts
only after the previous one has returned.  Inputs come only from the
workload seed.  Operations are grouped into passes; a run stops starting new
passes once its time is up, so it always measures whole passes.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
import tempfile
from collections import Counter, defaultdict
from dataclasses import dataclass
from time import perf_counter_ns

import numpy as np

import slicekit
from slicekit import binio
from slicekit.cost import ModelDims, load_model_dims, resampler_flops
from slicekit.partition import ImageSize, VitSpec
from slicekit.patches import PosEmbedGrid, reshape_pos_embed_1d_to_2d
from slicekit.probes import COLORS, SHAPES, SceneObject, SyntheticScene
from slicekit.resampler import AttentionParams, QuerySet, TokenMatrix, init_resampler
from slicekit.verify import ALTERNATE_SPEC, DistributionSpec

from spans import PLAN_LAYERS, SpanSummary, Tracer, layer_span_metrics, layer_table, self_time_lines


class CheckFailed(Exception):
    """An output of slicekit is wrong; the run is marked incorrect."""


def check(ok: bool, message: str) -> None:
    if not ok:
        raise CheckFailed(message)


@dataclass(frozen=True)
class Setup:
    """Program state built before the first operation (timed as setup_s)."""

    dims: ModelDims
    vit: VitSpec
    k: int
    d: int
    queries: QuerySet
    params: AttentionParams
    pe_table: PosEmbedGrid


def set_up(smoke: bool) -> Setup:
    src = os.path.realpath(os.path.join(os.path.dirname(__file__), "..", "src"))
    check(os.path.realpath(slicekit.__file__).startswith(src + os.sep),
          f"imported slicekit from {slicekit.__file__}, not from the checkout's src/")
    dims = load_model_dims()
    vit = VitSpec()
    d = 64 if smoke else dims.encoder.hidden_dim
    queries, params = init_resampler(dims.resampler_queries, d, seed=0)
    side = vit.pretrain_width_px // vit.patch_px
    pe_seq = np.random.default_rng(0).normal(0.0, 1.0, size=(side * side, d))
    return Setup(dims, vit, dims.resampler_queries, d, queries, params, reshape_pos_embed_1d_to_2d(pe_seq, side))


def ideal_n(w: int, h: int, vit: VitSpec) -> int:
    return max(1, -(-(w * h) // vit.pretrain_area_px))


def check_tiling(w: int, h: int, plan) -> None:
    """The slice rectangles form an m x n grid that covers the image exactly once."""
    m, n = plan.grid.cols_m, plan.grid.rows_n
    rects = plan.slice_rects
    check(len(rects) == m * n, f"{w}x{h}: {len(rects)} rects for a {m}x{n} grid")
    y = 0
    for row in range(n):
        x = 0
        for col in range(m):
            r = rects[row * m + col]
            check(r.x == x and r.y == y and r.w == rects[col].w and r.h == rects[row * m].h and r.w > 0 and r.h > 0,
                  f"{w}x{h}: slice {row * m + col} {r} breaks the tiling")
            x += r.w
        check(x == w, f"{w}x{h}: row {row} covers {x} px of {w}")
        y += rects[row * m].h
    check(y == h, f"{w}x{h}: rows cover {y} px of {h}")


def check_layout(layout, plan, k: int) -> None:
    m, n = plan.grid.cols_m, plan.grid.rows_n
    check((layout.cols_m, layout.rows_n, layout.overview_len) == (m, n, k)
          and layout.slice_lens == ((k,) * m,) * n,
          f"layout round trip gave {layout}, expected {m}x{n} blocks of {k}")


def sub_patch_slices(plan, vit: VitSpec) -> bool:
    """The known degenerate-slice class: the chosen grid cuts a slice smaller than one patch."""
    return any(r.w < vit.patch_px or r.h < vit.patch_px for r in plan.slice_rects)


def rel_close(a: np.ndarray, b: np.ndarray, rtol: float) -> bool:
    """|a - b| <= rtol * |b|, with an absolute floor of 1e-12 * max|b| for entries near zero."""
    return bool(np.all(np.abs(a - b) <= rtol * np.abs(b) + 1e-12 * np.abs(b).max()))


class Workload:
    """One named workload.  Subclasses define the passes, the operation and its checks."""

    name = ""

    def __init__(self, setup: Setup, seed: int, smoke: bool, root: str):
        self.s, self.seed, self.smoke, self.root = setup, seed, smoke, root
        self.raw = layer_table()

    def passes(self):
        raise NotImplementedError

    def op(self, layers, x, tracer: Tracer | None) -> tuple[int, object]:
        """Run one operation; return (ns spent in slicekit calls, output)."""
        raise NotImplementedError

    def check(self, x, out) -> None:
        raise NotImplementedError

    def count(self, tracer: Tracer, x, out) -> None:
        """Per-operation counters of a traced operation."""

    def after_traced_op(self, layers, x) -> None:
        """Extra traced calls that attribute an operation's time to its parts."""

    def finish(self) -> None:
        """Checks made once, after the timed loop."""

    def lines(self) -> list[str]:
        """Human-readable extras for the report."""
        return []

    def layer_metrics(self, summary: SpanSummary) -> dict[str, float]:
        return {}

    def close(self) -> None:
        pass

    def describe(self, passes: int) -> dict:
        """Input properties of the first passes: N histogram, repeats, sub-tile and degenerate sizes."""
        vit, gen = self.s.vit, self.passes()
        sizes = [x for _ in range(passes) for x in next(gen)]
        degenerate = sum(sub_patch_slices(self.raw.select_partition(ImageSize(w, h), vit), vit) for w, h in sizes)
        histogram = Counter(ideal_n(w, h, vit) for w, h in sizes)
        return {
            "passes": passes,
            "images": len(sizes),
            "n_histogram": {str(n): histogram[n] for n in sorted(histogram)},
            "repeated_size_share": 1 - len(set(sizes)) / len(sizes),
            "sub_tile_share": sum(w * h < vit.pretrain_area_px for w, h in sizes) / len(sizes),
            "degenerate_class_sizes": degenerate,
        }


# Common native sizes (landscape), two for each N = ceil(area / 336^2) from 1 to 6.
COMMON_SIZES = (
    (320, 240), (256, 256), (480, 360), (448, 448), (640, 480), (512, 512),
    (720, 480), (854, 480), (800, 600), (960, 540), (1024, 576), (1024, 640),
)
ROADMAP_SIZES = ((336, 336), (672, 1008), (1008, 672), (1344, 336))


class EncodeHires(Workload):
    """Full path at K=64, d=1024: partition, patch grids, PE interpolation, resampler, schema."""

    name = "encode-hires"
    WHY = """The resampler plus PE interpolation do more than 90% of the work here, while partition and
    schema do less than 0.2%. Sizes repeat, so a plan or shape cache would show a gain here."""
    REFERENCE_SHARE = 0.1  # share of images with one block checked against the numpy reference

    def __init__(self, *a):
        super().__init__(*a)
        # Every pass holds the same sizes in the same order, one of each N's two
        # common sizes turned to portrait; the seed picks the stand-in encoder's
        # noise and the blocks checked against the reference.  Fixed sizes and
        # order fix most of the allocation pattern, so peak memory varies little
        # with the seed.
        common = [(w, h) if i % 2 == 0 else (h, w) for i, (w, h) in enumerate(COMMON_SIZES)]
        self.catalogue = [ROADMAP_SIZES[0], common[1]] if self.smoke else list(ROADMAP_SIZES) + common
        self.noise_rng = np.random.default_rng(self.seed)
        self.check_rng = random.Random(self.seed + 2)
        self.reference_checks = 0
        self.by_size: dict[tuple[int, int], dict] = {}

    def passes(self):
        while True:
            yield list(self.catalogue)

    def encoder_standin(self, pe: PosEmbedGrid) -> TokenMatrix:
        """Stand-in for the vision encoder: the interpolated PE plus seeded noise."""
        flat = pe.values.reshape(-1, pe.dim)
        return TokenMatrix(flat + self.noise_rng.standard_normal(flat.shape))

    def op(self, L, size, tracer):
        s = self.s
        image = ImageSize(*size)
        t0 = perf_counter_ns()
        plan = L.select_partition(image, s.vit)
        grids = [L.fit_patch_grid(r.w, r.h, s.vit) for r in plan.slice_rects]
        grids.append(L.overview_grid(image, s.vit))
        pes = [L.interpolate_pos_embed(s.pe_table, g) for g in grids]
        t1 = perf_counter_ns()
        span = tracer.open("bench.encoder_standin") if tracer else None
        blocks = [self.encoder_standin(pe) for pe in pes]
        if span:
            tracer.close(span)
        t2 = perf_counter_ns()
        compressed = L.compress_slices(blocks, s.queries, s.params)
        t3 = perf_counter_ns()
        seq = L.serialize_layout(plan, s.k)
        tokens = L.token_count(plan, s.k)
        t4 = perf_counter_ns()
        return (t1 - t0) + (t4 - t2), (plan, grids, pes, blocks, compressed, seq, tokens, t3 - t2)

    def check(self, size, out):
        plan, grids, pes, blocks, compressed, seq, tokens, compress_ns = out
        s, (w, h) = self.s, size
        check_tiling(w, h, plan)
        n = plan.grid.slice_count
        check(tokens == s.k * (n + 1), f"{w}x{h}: {tokens} content tokens, expected K*(N+1) = {s.k * (n + 1)}")
        check_layout(self.raw.parse_layout(seq), plan, s.k)
        check(len(compressed) == n + 1, f"{w}x{h}: {len(compressed)} compressed blocks for N={n}")
        for pe, g in zip(pes, grids):
            check(pe.values.shape == (g.rows, g.cols, s.d), f"{w}x{h}: PE shape {pe.values.shape} for grid {g}")
        for out_block in compressed:
            check(out_block.values.shape == (s.k, s.d) and bool(np.isfinite(out_block.values).all()),
                  f"{w}x{h}: compressed block of shape {out_block.values.shape} or not finite")
        if self.check_rng.random() < self.REFERENCE_SHARE:
            i = self.check_rng.randrange(len(blocks))
            self.check_reference(blocks[i], compressed[i])
            self.reference_checks += 1
        self.model_cost(size, grids, compress_ns, n)

    def model_cost(self, size, grids, compress_ns, n):
        """Modelled FLOPs of cost.estimate_flops next to the measured resampler time."""
        entry = self.by_size.get(size)
        if entry is None:
            s = self.s
            report = self.raw.estimate_flops(s.dims, ImageSize(*size), "uhd", 0, s.vit)
            block_flops = [resampler_flops(s.dims, g.tokens) for g in grids]
            check(report.visual_tokens_to_llm == s.k * (n + 1),
                  f"{size}: cost model sends {report.visual_tokens_to_llm} tokens, pipeline {s.k * (n + 1)}")
            check(math.isclose(report.projector_flops, sum(block_flops), rel_tol=1e-12),
                  f"{size}: cost model projector FLOPs disagree with the pipeline's blocks")
            entry = self.by_size[size] = {"report": report, "block_flops": block_flops, "compress_ns": []}
        entry["compress_ns"].append(compress_ns)

    def count(self, tracer, size, out):
        plan, grids, pes, blocks, compressed, seq, tokens, compress_ns = out
        tracer.count("resampler.blocks", len(blocks))
        tracer.count("resampler.tokens_in", sum(b.count for b in blocks))
        tracer.count("resampler.model_flop", sum(self.by_size[size]["block_flops"]))
        tracer.count("patches.interp_bytes_out", sum(pe.values.nbytes for pe in pes))
        tracer.count("schema.items", len(seq))

    def check_reference(self, tokens: TokenMatrix, out: TokenMatrix) -> None:
        """Compare a block with a plain-numpy softmax(Q Wq (X Wk)^T / sqrt(d)) X Wv.

        The products are grouped so that no temporary has a row per token, so
        that the check does not raise peak memory above slicekit's own.
        """
        q, p, x = self.s.queries.values, self.s.params, tokens.values
        logits = ((q @ p.w_q) @ p.w_k.T) @ x.T / np.sqrt(x.shape[1])
        e = np.exp(logits - logits.max(axis=1, keepdims=True))
        ref = ((e / e.sum(axis=1, keepdims=True)) @ x) @ p.w_v
        check(rel_close(out.values, ref, 1e-9), "compressed block differs from the numpy reference beyond rtol 1e-9")

    def finish(self):
        check(self.reference_checks > 0, "no block was sampled for the reference check")

    def lines(self):
        out = ["modelled cost (cost.estimate_flops 'uhd', GFLOP) next to the measured resampler time:",
               f"  {'size':>10} {'slices':>6} {'blocks':>6} {'encoder':>9} {'projector':>9} {'prefill':>9}"
               f" {'resampler/block':>15} {'measured ms':>11} {'modelled GFLOP/s':>16}"]
        for (w, h), e in sorted(self.by_size.items()):
            r, flops = e["report"], e["block_flops"]
            ms = np.median(e["compress_ns"]) / 1e6
            out.append(f"  {w:>5}x{h:<4} {len(flops) - 1:>6} {len(flops):>6} {r.encoder_flops / 1e9:>9.1f}"
                       f" {r.projector_flops / 1e9:>9.2f} {r.llm_prefill_flops / 1e9:>9.1f}"
                       f" {np.mean(flops) / 1e9:>15.3f} {ms:>11.1f} {sum(flops) / 1e9 / (ms / 1e3):>16.2f}")
        return out

    def layer_metrics(self, sm):
        compress = sm.per_op["resampler.compress_slices"]
        blocks = sm.tracer.counters["resampler.blocks"]
        per_block = [compress[op] / blocks[op] for op in compress if blocks.get(op)]
        compress_s = sum(compress.values()) / 1e9
        return {
            "resampler.ms_per_block_p50": float(np.median(per_block)) / 1e6 if per_block else 0.0,
            "resampler.model_gflop": sm.counter_total("resampler.model_flop") / 1e9,
            "resampler.model_gflop_per_s": sm.counter_total("resampler.model_flop") / 1e9 / compress_s if compress_s else 0.0,
            "bench.encoder_standin_ms": sm.median_ns("bench.encoder_standin") / 1e6,
        }


class PlanSweep(Workload):
    """Data-loader planning path: partition, patch grids, schema and cost, no resampler.

    Not a workload of its own: its time follows the shared host's speed too
    closely for any bound, so it runs, checked and traced, in the traced run
    of verify-report (see VerifyReport.plan_path_metrics).
    """

    name = "plan-sweep"
    WHY = """This is the data-loader planning path, where pure-Python partition, patches, schema and cost
    do all the work. Sizes almost never repeat, so caches should show no gain here. Sizes of the known
    degenerate-slice class (e.g. 24x15) are set aside before timing and counted in every report."""
    MAX_TILES = 6
    MAX_ASPECT = 6.0

    def __init__(self, *a):
        super().__init__(*a)
        self.rng = np.random.default_rng(self.seed)
        self.pass_size = 64 if self.smoke else 256
        self.set_aside: list[tuple[int, int]] = []
        self.set_aside_raising = 0

    def sizes(self, count: int) -> list[tuple[int, int]]:
        """Area uniform in (0, 6] encoder tiles, log-uniform aspect in [1/6, 6], sides >= one patch.

        Sizes whose partition cuts a slice below one patch (the known
        degenerate-slice class) would raise inside fit_patch_grid; they are
        set aside before timing, so no timed operation fails, and counted.
        """
        vit, out = self.s.vit, []
        while len(out) < count:
            k = count - len(out)
            area = self.rng.uniform(0.0, self.MAX_TILES, k) * vit.pretrain_area_px
            aspect = np.exp(self.rng.uniform(-math.log(self.MAX_ASPECT), math.log(self.MAX_ASPECT), k))
            w = np.rint(np.sqrt(area * aspect)).astype(np.int64)
            h = np.rint(np.sqrt(area / aspect)).astype(np.int64)
            ok = ((np.minimum(w, h) >= vit.patch_px) & (w * h <= self.MAX_TILES * vit.pretrain_area_px)
                  & (np.maximum(w, h) <= self.MAX_ASPECT * np.minimum(w, h)))
            for size in zip(w[ok].tolist(), h[ok].tolist()):
                if self.degenerate(size):
                    self.set_aside.append(size)
                else:
                    out.append(size)
        return out

    def degenerate(self, size: tuple[int, int]) -> bool:
        plan = self.raw.select_partition(ImageSize(*size), self.s.vit)
        if not sub_patch_slices(plan, self.s.vit):
            return False
        try:
            for r in plan.slice_rects:
                self.raw.fit_patch_grid(r.w, r.h, self.s.vit)
        except ValueError:
            self.set_aside_raising += 1
        return True

    def passes(self):
        while True:
            yield self.sizes(self.pass_size)

    def op(self, L, size, tracer):
        s = self.s
        image = ImageSize(*size)
        t0 = perf_counter_ns()
        plan = L.select_partition(image, s.vit)
        grids = [L.fit_patch_grid(r.w, r.h, s.vit) for r in plan.slice_rects]
        overview = L.overview_grid(image, s.vit)
        seq = L.serialize_layout(plan, s.k)
        layout = L.parse_layout(seq)
        tokens = L.token_count(plan, s.k)
        report = L.estimate_flops(s.dims, image, "uhd", 0, s.vit)
        t1 = perf_counter_ns()
        return t1 - t0, (plan, grids, overview, seq, layout, tokens, report)

    def check(self, size, out):
        plan, grids, overview, seq, layout, tokens, report = out
        s, (w, h) = self.s, size
        check_tiling(w, h, plan)
        check_layout(layout, plan, s.k)
        m, n = plan.grid.cols_m, plan.grid.rows_n
        expected = s.k * (m * n + 1)
        check(tokens == expected and report.visual_tokens_to_llm == expected,
              f"{w}x{h}: {tokens} / {report.visual_tokens_to_llm} tokens, expected K*(N+1) = {expected}")
        check(len(seq) == expected + n * (m - 1) + n, f"{w}x{h}: {len(seq)} sequence items")
        for g in grids + [overview]:
            check(1 <= g.tokens <= s.vit.token_budget, f"{w}x{h}: patch grid {g} outside the token budget")

    def lines(self):
        return [f"degenerate-slice sizes set aside, untimed: {len(self.set_aside)},"
                f" of which {self.set_aside_raising} raise in fit_patch_grid; first {self.set_aside[:3]}"]

    def sweep(self, passes: int) -> tuple[dict[str, float], list[str]]:
        """Run one warm-up pass, then `passes` passes, traced and untraced in turn.

        Returns the partition, patches, schema and cost metrics of the traced
        passes and report lines: throughput and latency of the untraced
        passes, tracing overhead and self time by layer.
        """
        tracer = Tracer()
        traced_layers = layer_table(tracer)
        latency_ns: dict[bool, list[int]] = {False: [], True: []}
        gen = self.passes()
        for index in range(-1, passes):
            traced = index % 2 == 0
            for size in next(gen):
                span = None
                if traced:
                    tracer.op_id += 1
                    span = tracer.open("op")
                try:
                    ns, out = self.op(traced_layers if traced else self.raw, size, tracer if traced else None)
                except Exception as e:  # a plan-path call that raises fails the run
                    raise CheckFailed(f"plan sweep {size}: {type(e).__name__}: {e}") from e
                if span:
                    tracer.close(span)
                    self.count(tracer, size, out)
                self.check(size, out)
                if index >= 0:
                    latency_ns[traced].append(ns)
        sm = SpanSummary(tracer)
        metrics = {k: v for k, v in layer_span_metrics(sm).items() if k.split(".")[0] in PLAN_LAYERS}
        us = np.array(latency_ns[False]) / 1e3
        overhead = np.median(latency_ns[True]) / np.median(latency_ns[False]) - 1
        lines = [f"plan sweep ({passes} passes of {self.pass_size} seeded sizes, every size checked,"
                 f" odd passes untraced): plan.images_per_s {len(us) / (us.sum() / 1e6):.6g} 1/s,"
                 f" plan.latency_p50_us {np.median(us):.6g} us, plan.latency_p99_us {np.quantile(us, 0.99):.6g} us,"
                 f" tracing overhead {100 * overhead:.1f} %"]
        return metrics, lines + self.lines() + self_time_lines(sm, "plan sweep")

    def describe(self, passes):
        out = super().describe(passes)
        out["degenerate_class_sizes"] = len(self.set_aside)
        return out

    def count(self, tracer, size, out):
        tracer.count("schema.items", len(out[3]))



# Published-analysis statistics as this code computes them at the seed commit:
# run_proof_checks' Monte Carlo with 10^7 samples, seed 42.  sd is the
# per-sample standard deviation (for the standard error of a mean) and
# sd_of_var sqrt(mu4 - sigma^4) (for the standard error of a variance),
# both from 4*10^6 independent samples.  Area ~0.94 and the narrow-domain
# ratio 1.319/0.064 differ from the published 1.057 and 1.147/0.011; they are
# reported as they are.
SEED_COMMIT_STATS = {
    ("default", "ratio"): {"expectation": 1.2536526245238688, "variance": 0.042899818035359916,
                           "sd": 0.20712271250483352, "sd_of_var": 0.06843948632965201},
    ("default", "area"): {"expectation": 0.9413427124836132, "variance": 0.020502110985663013,
                          "sd": 0.1431855823246985, "sd_of_var": 0.04582143251295586},
    ("alternate", "ratio"): {"expectation": 1.3189396837600185, "variance": 0.06376785521852701,
                             "sd": 0.2525229795850806, "sd_of_var": 0.09237279757649818},
}
SEED_COMMIT_SAMPLES = 10_000_000


class VerifyReport(Workload):
    """The paper-reproduction report: proof checks, gradient check and flaw probes."""

    name = "verify-report"
    WHY = """It uses the same layers differently. Partition runs through the vectorised selection path,
    with millions of selections per call. The resampler runs through its backward pass at tiny dims. A
    change that speeds the scalar or d=1024 path but slows this one will show."""
    SAMPLES = 1_000_000
    GRID_DENSITY = 1500
    GRID_STEP = 32
    SCALES = (0.4, 1.0, 1.5)
    PLAN_PASSES = 16  # of the plan sweep in traced runs
    CLI_CYCLES = 5

    def __init__(self, *a):
        super().__init__(*a)
        self.samples = 20_000 if self.smoke else self.SAMPLES
        self.grid_density = 1000 if self.smoke else self.GRID_DENSITY
        # grad-check at the CLI defaults: 4 queries, 8 tokens, dim 16
        self.gq, self.gparams = init_resampler(4, 16, self.seed)
        self.gtokens = TokenMatrix(np.random.default_rng(self.seed).normal(size=(8, 16)))
        rng = random.Random(self.seed)
        colors = [c for c in COLORS if c != "grey"]
        canvas = ImageSize(1100, 800)
        self.scene = SyntheticScene(canvas, tuple(
            SceneObject(rng.choice(SHAPES), rng.choice(colors),
                        (rng.uniform(40, canvas.width_px - 40), rng.uniform(40, canvas.height_px - 40)),
                        rng.uniform(20, 60))
            for _ in range(6)))
        self.template = tuple(SceneObject(rng.choice(SHAPES), rng.choice(colors),
                                          (rng.uniform(0, 120), rng.uniform(0, 120)), 24.0) for _ in range(3))
        self.first = None
        self.plan_lines: list[str] = []

    def passes(self):
        while True:
            yield [None]

    def op(self, L, _, tracer):
        t0 = perf_counter_ns()
        report = L.run_proof_checks(samples=self.samples, seed=self.seed, grid_density=self.grid_density)
        grad = L.grad_check(self.gq, self.gtokens, self.gparams)
        heat = L.heatmap_probe(self.scene.canvas, self.template, self.GRID_STEP)
        phases = [L.phase_classify(self.scene, f) for f in self.SCALES]
        ppm = L.render_scene(self.scene)
        t1 = perf_counter_ns()
        return t1 - t0, (report, grad, heat, phases, ppm)

    def check(self, _, out):
        report, grad, heat, phases, ppm = out
        check(report["pass"] and report["candidate_density"]["pass"] and report["bounds_sweep"]["pass"],
              "run_proof_checks pass flags are not all true")
        for (label, stat), ref in SEED_COMMIT_STATS.items():
            obs = report["statistics"][label][stat]["observed"]
            n = obs["samples"]
            scale = math.sqrt(1 / n + 1 / SEED_COMMIT_SAMPLES)
            check(abs(obs["expectation"] - ref["expectation"]) <= 4 * ref["sd"] * scale
                  and abs(obs["variance"] - ref["variance"]) <= 4 * ref["sd_of_var"] * scale,
                  f"{label} {stat}: E={obs['expectation']} Var={obs['variance']} more than 4 standard errors"
                  f" from the seed-commit values {ref['expectation']}/{ref['variance']}")
        check(grad["max_rel_err"] < 1e-4, f"grad_check max_rel_err {grad['max_rel_err']} >= 1e-4")
        objects = len(self.template)
        check(bool(heat) and all(objects <= c <= 4 * objects for row in heat for c in row),
              "heatmap counts outside [objects, 4 * objects]")
        for scale, (phase, answers) in zip(self.SCALES, phases):
            check(phase in (1, 2, 3) and len(self.scene.objects) in answers,
                  f"phase_classify at scale {scale} gave phase {phase}, answers {answers}")
        w, h = self.scene.canvas.width_px, self.scene.canvas.height_px
        header = f"P6\n{w} {h}\n255\n".encode()
        check(ppm.startswith(header) and len(ppm) == len(header) + 3 * w * h, "rendered PPM has the wrong size")
        stats = json.dumps(report["statistics"], sort_keys=True)
        if self.first is None:
            self.first = (stats, grad["max_rel_err"], ppm)
        check(self.first == (stats, grad["max_rel_err"], ppm), "a repeated report is not bit-identical to the first")

    def count(self, tracer, _, out):
        tracer.count("probes.placements", sum(len(row) for row in out[2]))

    def describe(self, passes):
        return {"reports_per_run": passes, "samples": self.samples, "grid_density": self.grid_density,
                "monte_carlo_seed": self.seed, "grad_check": {"queries": 4, "tokens": 8, "dim": 16},
                "scene": {"canvas": [self.scene.canvas.width_px, self.scene.canvas.height_px],
                          "objects": len(self.scene.objects)},
                "heatmap": {"template_objects": len(self.template), "grid_step": self.GRID_STEP},
                "phase_scales": list(self.SCALES)}

    def after_traced_op(self, L, _):
        L.enumerate_ratio_bound(20)
        L.sweep_slice_bounds(grid_density=self.grid_density)
        L.monte_carlo_expectations(DistributionSpec(), samples=self.samples, seed=self.seed)
        L.monte_carlo_expectations(ALTERNATE_SPEC, samples=self.samples, seed=self.seed)

    def lines(self):
        if self.first is None:
            return []
        stats = json.loads(self.first[0])
        out = [f"proof checks at {self.samples} samples, seed {self.seed} (deviations are reported, not tuned):"]
        for (label, stat), ref in SEED_COMMIT_STATS.items():
            obs = stats[label][stat]
            out.append(f"  {label:>9} {stat:<5} E={obs['observed']['expectation']:.4f}"
                       f" Var={obs['observed']['variance']:.4f}  published {obs['reference']['expectation']}"
                       f"/{obs['reference']['variance']}  matches={obs['expectation_matches'] and obs['variance_matches']}")
        return out + self.plan_lines

    def layer_metrics(self, sm):
        mc = sm.median_per_op_ns("verify.monte_carlo_expectations") / 1e9
        rest = [sm.per_op["verify.run_proof_checks"][op]
                - sum(sm.per_op[n].get(op, 0) for n in ("verify.enumerate_ratio_bound", "verify.sweep_slice_bounds",
                                                         "verify.monte_carlo_expectations"))
                for op in sm.per_op["verify.run_proof_checks"]]
        return {
            "verify.enumerate_s": sm.median_ns("verify.enumerate_ratio_bound") / 1e9,
            "verify.sweep_s": sm.median_ns("verify.sweep_slice_bounds") / 1e9,
            "verify.mc_s": mc,
            "verify.mc_samples_per_s": 2 * self.samples / mc if mc else 0.0,
            "verify.unattributed_s": float(np.median(rest)) / 1e9 if rest else 0.0,
            "resampler.gradcheck_s": sm.median_ns("resampler.grad_check") / 1e9,
            "probes.heatmap_s": sm.median_ns("probes.heatmap_probe") / 1e9,
            "probes.placements": sm.counter_median("probes.placements"),
            "probes.render_s": sm.median_ns("probes.render_scene") / 1e9,
            **self.plan_path_metrics(),
        }

    def plan_path_metrics(self) -> dict[str, float]:
        """The plan path, which verify-report itself does not call: the plan sweep and the CLI."""
        plan, self.plan_lines = PlanSweep(self.s, self.seed, self.smoke, self.root).sweep(
            2 if self.smoke else self.PLAN_PASSES)
        cli = CliColdStarts(self.s, self.seed, self.root, self.raw)
        try:
            return {**plan, **cli.measure(1 if self.smoke else self.CLI_CYCLES)}
        finally:
            cli.close()


@dataclass(frozen=True)
class CliCall:
    kind: str
    argv: tuple[str, ...]
    size: tuple[int, int] | None = None


class CliColdStarts:
    """Fresh-interpreter runs of the slicekit CLI: the cli layer, with config and binio.

    Import and start-up are paid on every run.  Making the numpy import lazy
    should move plan, schema and cost and leave compress unchanged.
    """

    TOKENS, DIM = 48, 32

    def __init__(self, setup: Setup, seed: int, root: str, raw):
        self.s, self.root, self.raw = setup, root, raw
        self.rng = random.Random(seed)
        self.env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"))
        self.tmp = tempfile.TemporaryDirectory(dir=root, prefix=".bench_tmp-")
        tokens = np.random.default_rng(seed).normal(size=(self.TOKENS, self.DIM))
        self.token_file = os.path.join(self.tmp.name, "tokens.peg")
        with open(self.token_file, "wb") as f:
            f.write(binio.tokens_to_bytes(tokens))
        self.out_dir = os.path.join(self.tmp.name, "out")
        os.mkdir(self.out_dir)
        # the CLI's default config: K=64, seed 42
        queries, params = init_resampler(setup.k, self.DIM, 42)
        self.expected_compressed = raw.compress_slices([TokenMatrix(tokens)], queries, params)[0].values

    def cycle(self) -> list[CliCall]:
        w, h = self.rng.randrange(224, 673), self.rng.randrange(224, 673)
        size = f"{w}x{h}"
        return [CliCall("plan", ("plan", size), (w, h)), CliCall("schema", ("schema", size), (w, h)),
                CliCall("cost", ("cost", "--image", size), (w, h)),
                CliCall("compress", ("compress", self.token_file, "--out-dir", self.out_dir))]

    def run_python(self, args) -> tuple[int, subprocess.CompletedProcess]:
        t0 = perf_counter_ns()
        proc = subprocess.run([sys.executable, *args], capture_output=True, text=True, env=self.env,
                              cwd=self.root, timeout=120)
        ns = perf_counter_ns() - t0
        check(proc.returncode == 0, f"python {' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()}")
        return ns, proc

    def check(self, call: CliCall, proc: subprocess.CompletedProcess) -> None:
        if call.kind == "compress":
            with open(os.path.join(self.out_dir, os.path.basename(self.token_file)), "rb") as f:
                out = binio.tokens_from_bytes(f.read())
            check(out.shape == (self.s.k, self.DIM) and rel_close(out, self.expected_compressed, 1e-12),
                  "slicekit compress output differs from the library's compress_slices")
            return
        plan = self.raw.select_partition(ImageSize(*call.size), self.s.vit)
        expected = self.raw.token_count(plan, self.s.k)
        payload = json.loads(proc.stdout[proc.stdout.index("{"):])
        key = {"plan": "llm_tokens", "schema": "content_tokens", "cost": "visual_tokens_to_llm"}[call.kind]
        check(payload.get(key) == expected, f"slicekit {' '.join(call.argv)}: {key}={payload.get(key)}, expected {expected}")

    def measure(self, cycles: int) -> dict[str, float]:
        """Median cold-start time of each command, and of a bare interpreter and the import alone."""
        times = defaultdict(list)
        for _ in range(cycles):
            for call in self.cycle():
                ns, proc = self.run_python(("-m", "slicekit.cli", *call.argv))
                self.check(call, proc)
                times[call.kind].append(ns)
        for _ in range(cycles):
            times["interpreter"].append(self.run_python(("-c", "pass"))[0])
            _, proc = self.run_python(("-c", "import time; t = time.perf_counter_ns(); import slicekit.cli;"
                                             " print(time.perf_counter_ns() - t)"))
            times["import"].append(int(proc.stdout))
        return {f"cli.{kind}_ms": float(np.median(ns)) / 1e6 for kind, ns in times.items()}

    def close(self) -> None:
        self.tmp.cleanup()


WORKLOADS = {w.name: w for w in (EncodeHires, VerifyReport)}
