#!/usr/bin/env python3
"""slicekit benchmark.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a slicekit checkout; slicekit is imported from its
src/ directory.  With --trace 0 the last line of standard output is a JSON
object with the end-to-end metrics of BENCHMARK.json, with --trace 1 the
per-layer metrics.  The lines before it are a human-readable report.  The
exit code is 1 when an output check failed and 2 when the checkout has no
slicekit sources.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

from spans import LAYERS, SpanSummary, Tracer, layer_span_metrics, layer_table, self_time_lines

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
NPROC = len(os.sched_getaffinity(0))
# BLAS may use every CPU this process may run on, and no more; children inherit it.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(NPROC)

WORKLOAD_NAMES = ("encode-hires", "verify-report")
SETUP_SAMPLES = 5
SANDBOX_LIMITS = ("shared host: other tenants slow CPU-bound code by up to half for seconds to minutes;"
                  " no CPU pinning; no cache dropping")


def set_up(smoke: bool):
    """Program set-up before the first operation: imports, model dims, resampler weights, PE table."""
    t0 = time.perf_counter()
    import workloads

    setup = workloads.set_up(smoke)
    return workloads, setup, time.perf_counter() - t0


def setup_seconds(smoke: bool, first: float) -> list[float]:
    """Set-up times: this process's, then fresh interpreters'."""
    times = [first]
    for _ in range((2 if smoke else SETUP_SAMPLES) - 1):
        proc = subprocess.run([sys.executable, __file__, "--setup-only"] + (["--smoke"] if smoke else []),
                              capture_output=True, text=True, cwd=ROOT, timeout=120)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up in a fresh interpreter failed: {proc.stderr.strip()}")
        times.append(float(proc.stdout))
    return times


def fingerprint() -> dict:
    import numpy as np

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            cpu = next((line.split(":", 1)[1].strip() for line in f if line.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {"nproc": NPROC, "cpu": cpu, "python": platform.python_version(), "numpy": np.__version__,
            "blas": blas, "blas_threads": int(os.environ["OPENBLAS_NUM_THREADS"]), "limits": SANDBOX_LIMITS}


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile (inclusive method)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


class Loop:
    """Closed loop with one caller; in traced runs every other pass is traced."""

    def __init__(self, workload, seconds: float, tracer):
        from workloads import CheckFailed

        self.w, self.tracer, self.check_failed = workload, tracer, CheckFailed
        self.layers = layer_table()
        self.traced_layers = layer_table(tracer) if tracer else None
        self.latency_ns: list[int] = []
        self.traced_latency_ns: list[int] = []
        self.attempted = self.failed = 0
        self.errors: list[str] = []
        self.seconds = seconds
        self.elapsed = 0.0
        self.peak_rss_kb = 0

    def run(self) -> None:
        passes = self.w.passes()
        # One warm-up pass, checked but not measured: the first pass pays one-time
        # costs (page faults of the first large arrays, lazy imports) that a
        # long-running caller pays once.
        for x in next(passes):
            self.one(x, False)
        self.latency_ns.clear()
        self.attempted = self.failed = 0
        start = time.perf_counter()
        for index, batch in enumerate(passes):
            if index and time.perf_counter() - start >= self.seconds:
                break
            traced = self.tracer is not None and index % 2 == 0
            for x in batch:
                self.one(x, traced)
            if index == 0:
                self.peak_rss_kb = peak_rss_kb()
        self.elapsed = time.perf_counter() - start
        try:
            self.w.finish()
        except Exception as e:  # any failure of a check or of slicekit fails the run
            self.errors.append(f"final check: {type(e).__name__}: {e}")

    def one(self, x, traced: bool) -> None:
        self.attempted += 1
        tr = self.tracer if traced else None
        span = None
        if tr:
            tr.op_id = self.attempted
            span = tr.open("op")
        try:
            ns, out = self.w.op(self.traced_layers if tr else self.layers, x, tr)
        except Exception as e:  # an operation that raises fails the run, never dropped
            if span:
                tr.close(span, raised=True)
            self.failed += 1
            self.errors.append(f"{x}: {type(e).__name__}: {e}")
            return
        if span:
            tr.close(span)
        try:
            self.w.check(x, out)
        except self.check_failed as e:
            self.failed += 1
            self.errors.append(str(e))
            return
        (self.traced_latency_ns if tr else self.latency_ns).append(ns)
        if tr:
            self.w.count(tr, x, out)
            self.w.after_traced_op(self.traced_layers, x)


def peak_rss_kb() -> int:
    """Peak resident set so far of this process or of any finished child."""
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def end_to_end(ms: list[float], setup_times: list[float], peak_kb: int) -> dict[str, tuple[float, str]]:
    return {
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (peak_kb / 1024, "MB"),
        "ops_per_s": (len(ms) / (sum(ms) / 1e3) if ms else 0.0, "1/s"),
        "latency_p50_ms": (quantile(ms, 50) if ms else 0.0, "ms"),
    }


def issue_named(workload: str, ms: list[float]) -> list[tuple[str, float, str]]:
    """Latency statistics under the workload's own names, tail percentiles included."""
    if not ms:
        return []
    rate, p50, p90 = len(ms) / (sum(ms) / 1e3), quantile(ms, 50), quantile(ms, 90)
    if workload == "encode-hires":
        return [("encode.images_per_s", rate, "1/s"), ("encode.latency_p50_ms", p50, "ms"),
                ("encode.latency_p90_ms", p90, "ms")]
    return [("verify.report_s", p50 / 1e3, "s"), ("verify.report_p90_s", p90 / 1e3, "s")]


def per_layer(loop: Loop, sm: SpanSummary, names) -> dict[str, float]:
    """Every per-layer metric; a layer the workload does not run reports 0."""
    m = {name: 0.0 for name in names}
    m.update(layer_span_metrics(sm))
    m["trace.spans"] = len(loop.tracer.spans)
    op_ns = sum(sm.durations["op"])
    traced_slicekit_ns = sum(loop.traced_latency_ns)
    if op_ns:
        layer_ns = sum(sm.layer_self_ns(layer) for layer in LAYERS)
        m["trace.layer_share"] = layer_ns / op_ns
        m["trace.unattributed_share"] = sm.self_ns["op"] / op_ns
    if traced_slicekit_ns:
        m["resampler.share_of_encode"] = sm.self_ns["resampler.compress_slices"] / traced_slicekit_ns
    if loop.latency_ns and loop.traced_latency_ns:
        m["trace.overhead_share"] = statistics.median(loop.traced_latency_ns) / statistics.median(loop.latency_ns) - 1
    m.update(loop.w.layer_metrics(sm))
    return m


def accounting_lines(loop: Loop, sm) -> list[str]:
    out = self_time_lines(sm, loop.w.name)
    if loop.w.name == "encode-hires" and loop.traced_latency_ns:
        share = sm.self_ns["resampler.compress_slices"] / sum(loop.traced_latency_ns)
        out.append(f"resampler share of encode-hires slicekit time: {100 * share:.2f} %")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOAD_NAMES)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs and dimensions, to test the harness")
    ap.add_argument("--spans", help="write the trace's spans to this JSON-lines file")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "slicekit", "__init__.py")):
        print(f"error: no slicekit sources under {SRC}; run from the root of a slicekit checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    if args.setup_only:
        print(set_up(args.smoke)[2])
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    layer_units = {m["name"]: m["unit"] for m in spec["per_layer"]}

    workloads, setup, first_setup = set_up(args.smoke)
    setup_times = setup_seconds(args.smoke, first_setup)
    w = workloads.WORKLOADS[args.workload](setup, args.seed, args.smoke, ROOT)
    tracer = Tracer() if args.trace else None
    loop = Loop(w, args.seconds, tracer)
    try:
        loop.run()
        summary = SpanSummary(tracer) if tracer else None
        layer = per_layer(loop, summary, layer_units) if tracer else {}
    except workloads.CheckFailed as e:
        loop.errors.append(str(e))
        layer = {}
    finally:
        w.close()
    if tracer and args.spans:
        tracer.write_jsonl(args.spans)

    ms = [v / 1e6 for v in (loop.latency_ns or loop.traced_latency_ns)]
    e2e = end_to_end(ms, setup_times, loop.peak_rss_kb)
    print(f"slicekit benchmark: workload {args.workload}, seed {args.seed}, trace {args.trace},"
          f" {loop.elapsed:.1f} s measured" + (", smoke" if args.smoke else ""))
    print("fingerprint " + json.dumps(fingerprint()))
    print(f"ops_attempted {loop.attempted}  ops_failed {loop.failed}")
    print("setup_s samples " + " ".join(f"{t:.4f}" for t in setup_times))
    for name, (value, unit) in e2e.items():
        print(f"  {name:<28} {value:14.6g} {unit}")
    for name, value, unit in issue_named(args.workload, ms):
        print(f"  {name:<28} {value:14.6g} {unit}")
    for line in w.lines():
        print(line)
    if tracer:
        for line in accounting_lines(loop, summary):
            print(line)
        for name, value in layer.items():
            print(f"  {name:<28} {value:14.6g} {layer_units.get(name, '')}")
    for err in loop.errors[:20]:
        print(f"CHECK FAILED: {err}")

    correct = not loop.errors
    if args.trace:
        metrics = {name: {"value": layer.get(name, 0.0), "unit": unit} for name, unit in layer_units.items()}
    else:
        metrics = {m["name"]: {"value": e2e[m["name"]][0], "unit": m["unit"]} for m in spec["end_to_end"]}
    print(json.dumps({"correct": correct, "attempted": loop.attempted, "failed": loop.failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
