"""Spans recorded from outside slicekit, around calls into its public functions.

A span is ``[name, start_ns, end_ns, parent_index, op_id, raised]``.  Spans
are kept in memory for the whole run; ``write_jsonl`` exports them once at
the end.  A span's self time is its duration minus the durations of its
direct children (children nest inside their parent, so that is the time the
children cover).  Self times are summed over the span trees rooted at an
"op" span, one per benchmark operation; spans outside them (such as the
calls that attribute a report's time to its parts) add to durations only.
"""

from __future__ import annotations

import importlib
import json
import statistics
from collections import defaultdict
from time import perf_counter_ns
from types import SimpleNamespace

# The public functions each benchmark operation calls, by slicekit module.
# The module name is the layer name; a span is named "<layer>.<function>".
LAYER_FUNCTIONS = {
    "partition": ("select_partition",),
    "patches": ("fit_patch_grid", "overview_grid", "interpolate_pos_embed"),
    "resampler": ("compress_slices", "grad_check"),
    "schema": ("serialize_layout", "parse_layout", "token_count"),
    "cost": ("estimate_flops",),
    "verify": ("run_proof_checks", "enumerate_ratio_bound", "sweep_slice_bounds", "monte_carlo_expectations"),
    "probes": ("heatmap_probe", "phase_classify", "render_scene"),
}
LAYERS = tuple(LAYER_FUNCTIONS)


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.counters: dict[str, dict[int, float]] = defaultdict(lambda: defaultdict(float))
        self.op_id = 0
        self._stack: list[int] = []

    def open(self, name: str) -> list:
        rec = [name, perf_counter_ns(), 0, self._stack[-1] if self._stack else -1, self.op_id, False]
        self._stack.append(len(self.spans))
        self.spans.append(rec)
        return rec

    def close(self, rec: list, raised: bool = False) -> None:
        rec[2] = perf_counter_ns()
        rec[5] = raised
        self._stack.pop()

    def wrap(self, name: str, fn):
        def traced(*args, **kwargs):
            rec = self.open(name)
            try:
                out = fn(*args, **kwargs)
            except BaseException:
                self.close(rec, raised=True)
                raise
            self.close(rec)
            return out

        return traced

    def count(self, name: str, value: float) -> None:
        """Add to a per-operation counter, recorded at a layer boundary."""
        self.counters[name][self.op_id] += value

    def write_jsonl(self, path: str) -> None:
        with open(path, "w") as f:
            for name, start, end, parent, op, raised in self.spans:
                f.write(json.dumps({"name": name, "start_ns": start, "end_ns": end, "parent": parent,
                                    "op": op, "raised": raised}) + "\n")


def layer_table(tracer: Tracer | None = None) -> SimpleNamespace:
    """The public functions of LAYER_FUNCTIONS, wrapped in spans when a tracer is given."""
    table = SimpleNamespace()
    for module, names in LAYER_FUNCTIONS.items():
        mod = importlib.import_module(f"slicekit.{module}")
        for name in names:
            fn = getattr(mod, name)
            setattr(table, name, fn if tracer is None else tracer.wrap(f"{module}.{name}", fn))
    return table


class SpanSummary:
    """Durations, self times and per-operation sums of a finished trace."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        child_ns = [0] * len(tracer.spans)
        root = [0] * len(tracer.spans)
        for i, (name, start, end, parent, _, _) in enumerate(tracer.spans):
            root[i] = i if parent < 0 else root[parent]
            if parent >= 0:
                child_ns[parent] += end - start
        self.durations: dict[str, list[int]] = defaultdict(list)
        self.self_ns: dict[str, int] = defaultdict(int)
        self.raised: dict[str, int] = defaultdict(int)
        self.per_op: dict[str, dict[int, int]] = defaultdict(lambda: defaultdict(int))
        for i, (name, start, end, _, op, raised) in enumerate(tracer.spans):
            dur = end - start
            self.durations[name].append(dur)
            if tracer.spans[root[i]][0] == "op":
                self.self_ns[name] += dur - child_ns[i]
            self.raised[name] += raised
            self.per_op[name][op] += dur

    def calls(self, *names: str) -> int:
        return sum(len(self.durations[n]) for n in names)

    def median_ns(self, *names: str) -> float:
        values = [d for n in names for d in self.durations[n]]
        return statistics.median(values) if values else 0.0

    def median_per_op_ns(self, *names: str) -> float:
        """Median over operations of the summed duration of these spans."""
        ops: dict[int, int] = defaultdict(int)
        for n in names:
            for op, dur in self.per_op[n].items():
                ops[op] += dur
        return statistics.median(ops.values()) if ops else 0.0

    def layer_self_ns(self, layer: str) -> int:
        return sum(ns for name, ns in self.self_ns.items() if name.startswith(layer + "."))

    def counter_total(self, name: str) -> float:
        return sum(self.tracer.counters[name].values())

    def counter_median(self, name: str) -> float:
        values = list(self.tracer.counters[name].values())
        return statistics.median(values) if values else 0.0


PLAN_LAYERS = ("partition", "patches", "schema", "cost")


def layer_span_metrics(sm: SpanSummary) -> dict[str, float]:
    """The per-layer metrics that spans and counters give directly."""
    fit = ("patches.fit_patch_grid", "patches.overview_grid")
    return {
        "partition.calls": sm.calls("partition.select_partition"),
        "partition.select_us_p50": sm.median_ns("partition.select_partition") / 1e3,
        "patches.fit_calls": sm.calls(*fit),
        "patches.fit_us_p50": sm.median_ns(*fit) / 1e3,
        "patches.fit_errors": sum(sm.raised[n] for n in fit),
        "patches.interp_calls": sm.calls("patches.interpolate_pos_embed"),
        "patches.interp_ms_p50": sm.median_ns("patches.interpolate_pos_embed") / 1e6,
        "patches.interp_mb_out": sm.counter_total("patches.interp_bytes_out") / 1e6,
        "resampler.blocks": sm.counter_total("resampler.blocks"),
        "resampler.tokens_in": sm.counter_total("resampler.tokens_in"),
        "schema.serialize_us_p50": sm.median_ns("schema.serialize_layout") / 1e3,
        "schema.parse_us_p50": sm.median_ns("schema.parse_layout") / 1e3,
        "schema.items_per_image": sm.counter_median("schema.items"),
        "cost.calls": sm.calls("cost.estimate_flops"),
        "cost.estimate_us_p50": sm.median_ns("cost.estimate_flops") / 1e3,
    }


def self_time_lines(sm: SpanSummary, title: str) -> list[str]:
    """Each layer's self time and the benchmark's own time, as shares of the traced operations' time."""
    op_ns = sum(sm.durations["op"])
    if not op_ns:
        return []
    out = [f"{title}: {len(sm.durations['op'])} traced operations, {op_ns / 1e9:.3f} s; self time by layer:"]
    parts = {layer: sm.layer_self_ns(layer) for layer in LAYERS}
    parts["bench (stand-in encoder)"] = sm.self_ns["bench.encoder_standin"]
    parts["bench (loop, unattributed)"] = sm.self_ns["op"]
    for name, ns in parts.items():
        if ns:
            out.append(f"  {name:<28} {ns / 1e9:9.4f} s  {100 * ns / op_ns:6.2f} %")
    out.append(f"  {'sum':<28} {sum(parts.values()) / 1e9:9.4f} s  {100 * sum(parts.values()) / op_ns:6.2f} %")
    share = sum(parts[layer] for layer in PLAN_LAYERS) / op_ns
    if share:
        out.append(f"partition + patches + schema + cost share of {title}: {100 * share:.2f} %")
    return out
