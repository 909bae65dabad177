"""Command-line interface.

Subcommands: plan, schema, compress, grad-check, cost, probe, verify,
interp-pe.  Exit codes: 0 success/pass, 1 check failure, 2 usage error.
JSON output is emitted with sorted keys for diffability.  Only the commands
that need numpy (compress, grad-check, verify, interp-pe) import it.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from dataclasses import replace

from . import cost, probes, schema
from .config import AppConfig, load_config
from .jsonfile import load_json_file
from .partition import ImageSize, PartitionPlan, PatchGrid, select_partition


def _parse_size(text: str) -> ImageSize:
    try:
        w, h = text.lower().split("x")
        return ImageSize(int(w), int(h))
    except (ValueError, TypeError) as e:
        raise argparse.ArgumentTypeError(f"expected WxH, got {text!r}") from e


def _emit(payload: dict, cfg: AppConfig, out: str | None) -> None:
    if cfg.output_format == "json":
        text = json.dumps(payload, indent=2, sort_keys=True)
    else:
        text = "\n".join(f"{k}: {v}" for k, v in sorted(payload.items()))
    if out:
        with open(out, "w") as f:
            f.write(text + "\n")
    else:
        print(text)


def _capped_plan(image: ImageSize, cfg: AppConfig) -> PartitionPlan:
    """select_partition, refused when the chosen grid cuts more than max_N slices."""
    plan = select_partition(image, cfg.vit)
    if plan.grid.slice_count > cfg.max_slices:
        raise ValueError(f"{image.width_px}x{image.height_px} would be cut into {plan.grid.slice_count} slices, "
                         f"which exceeds max_N={cfg.max_slices}")
    return plan


def cmd_plan(args, cfg: AppConfig) -> int:
    plan = _capped_plan(args.image, cfg)
    _emit({**plan.to_json_dict(), "llm_tokens": schema.token_count(plan, cfg.dims.resampler_queries)}, cfg, args.out)
    return 0


def cmd_schema(args, cfg: AppConfig) -> int:
    plan = _capped_plan(args.image, cfg)
    seq = schema.serialize_layout(plan, cfg.dims.resampler_queries)
    print(schema.render_layout(seq))
    _emit(schema.summary(seq), cfg, args.out)
    return 0


def cmd_compress(args, cfg: AppConfig) -> int:
    from . import binio, resampler

    out_paths = [f"{path}.compressed" if args.out_dir is None else f"{args.out_dir}/{path.split('/')[-1]}"
                 for path in args.inputs]
    clash = [path for i, path in enumerate(out_paths) if path in out_paths[:i]]
    if clash:
        raise ValueError(f"two inputs would both write {clash[0]}; give them distinct file names")
    matrices = []
    for path in args.inputs:
        with open(path, "rb") as f:
            matrices.append(resampler.TokenMatrix(values=binio.tokens_from_bytes(f.read())))
    dim = matrices[0].dim
    for path, tokens in zip(args.inputs, matrices):
        if tokens.dim != dim:
            raise ValueError(f"{path} has token width {tokens.dim}, but {args.inputs[0]} has {dim}")
    queries, params = resampler.init_resampler(cfg.dims.resampler_queries, dim, cfg.seed)
    outputs = resampler.compress_slices(matrices, queries, params)
    for path, tokens, out_tokens, out_path in zip(args.inputs, matrices, outputs, out_paths):
        with open(out_path, "wb") as f:
            f.write(binio.tokens_to_bytes(out_tokens.values))
        print(f"{path}: {tokens.count} -> {out_tokens.count} tokens -> {out_path}")
    return 0


def cmd_grad_check(args, cfg: AppConfig) -> int:
    if not 0 < args.tolerance < math.inf:
        raise ValueError(f"--tolerance must be a finite number > 0, got {args.tolerance}")

    import numpy as np

    from . import resampler

    rng = np.random.default_rng(cfg.seed)
    queries, params = resampler.init_resampler(args.queries, args.dim, cfg.seed)
    tokens = resampler.TokenMatrix(values=rng.normal(size=(args.tokens, args.dim)))
    report = resampler.grad_check(queries, tokens, params, eps=args.eps)
    payload = {"max_rel_err": report["max_rel_err"], "per_param_err": {k: v for k, v in report.items() if k != "max_rel_err"}}
    payload["pass"] = report["max_rel_err"] < args.tolerance
    _emit(payload, cfg, args.out)
    return 0 if payload["pass"] else 1


def cmd_cost(args, cfg: AppConfig) -> int:
    if args.compare_with is None:
        report = cost.estimate_flops(cfg.dims, args.image, args.strategy, args.text_tokens, cfg.vit)
        _emit(report.to_json_dict(), cfg, args.out)
        return 0
    ratio, a, b = cost.compare_strategies(cfg.dims, args.strategy, args.compare_with, args.image, args.text_tokens, cfg.vit)
    _emit({"ratio": ratio, "a": a.to_json_dict(), "b": b.to_json_dict()}, cfg, args.out)
    return 0


def _load_scene(path: str) -> probes.SyntheticScene:
    raw = load_json_file(path)
    if not isinstance(raw, dict):
        raise ValueError(f"{path}: scene must be a JSON object")
    try:
        return probes.SyntheticScene(
            canvas=ImageSize(raw["canvas"]["w"], raw["canvas"]["h"]),
            objects=tuple(
                probes.SceneObject(o["shape"], o["color"], (o["center"][0], o["center"][1]), o["size"])
                for o in raw["objects"]
            ),
            background=raw.get("background", "grey"),
        )
    except KeyError as e:
        raise ValueError(f"{path}: missing key {e.args[0]!r}") from None
    except (TypeError, IndexError) as e:
        raise ValueError(f"{path}: malformed scene ({e})") from None


def cmd_probe(args, cfg: AppConfig) -> int:
    if args.kind == "padding":
        payload = {"effective_fraction": probes.padding_waste(args.aspect_w, args.aspect_h)}
        if args.ppm:
            scene = probes.padding_probe_scene(args.aspect_w, args.aspect_h)
            with open(args.ppm, "wb") as f:
                f.write(probes.render_scene(scene))
            payload["ppm"] = args.ppm
        _emit(payload, cfg, args.out)
        return 0

    scene = _load_scene(args.scene)
    if args.kind == "heatmap":
        template = scene.objects
        matrix = probes.heatmap_probe(scene.canvas, template, args.grid_step)
        payload = {"canvas": {"w": scene.canvas.width_px, "h": scene.canvas.height_px},
                   "grid_step": args.grid_step, "counts": matrix}
    else:  # phases
        phase, answers = probes.phase_classify(scene, args.scale)
        payload = {"phase": phase, "predicted_answers": sorted(answers), "scale": args.scale}
    if args.ppm:
        with open(args.ppm, "wb") as f:
            f.write(probes.render_scene(scene))
        payload["ppm"] = args.ppm
    _emit(payload, cfg, args.out)
    return 0


def cmd_verify(args, cfg: AppConfig) -> int:
    from . import verify

    report = verify.run_proof_checks(samples=args.samples, seed=cfg.seed, grid_density=args.grid_density)
    _emit(report, cfg, args.out)
    return 0 if report["pass"] else 1


def cmd_interp_pe(args, cfg: AppConfig) -> int:
    from . import binio
    from .patches import interpolate_pos_embed

    target = PatchGrid(cols=args.cols, rows=args.rows)
    if target.tokens > cfg.vit.token_budget:
        raise ValueError(f"--rows x --cols = {target.tokens} exceeds the encoder's "
                         f"token budget M={cfg.vit.token_budget}")
    with open(args.input, "rb") as f:
        grid = binio.grid_from_bytes(f.read())
    out = interpolate_pos_embed(grid, target)
    with open(args.output, "wb") as f:
        f.write(binio.grid_to_bytes(out))
    print(f"{grid.rows}x{grid.cols}x{grid.dim} -> {out.rows}x{out.cols}x{out.dim} -> {args.output}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="slicekit", description="Adaptive image slicing and encoding-cost toolkit")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--seed", type=int, help="override config seed")
    parser.add_argument("--out", help="write the report to a file instead of stdout")
    parser.add_argument("--format", choices=("json", "text"), help="output format")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("plan", help="select the slice partition for an image")
    p.add_argument("image", type=_parse_size, help="image size as WxH")
    p.set_defaults(func=cmd_plan)

    p = sub.add_parser("schema", help="render the token layout for an image")
    p.add_argument("image", type=_parse_size)
    p.set_defaults(func=cmd_schema)

    p = sub.add_parser("compress", help="compress token matrices with the shared resampler")
    p.add_argument("inputs", nargs="+", help="token matrix files (binary grid layout)")
    p.add_argument("--out-dir", help="directory for compressed outputs")
    p.set_defaults(func=cmd_compress)

    p = sub.add_parser("grad-check", help="finite-difference check of the resampler gradients")
    p.add_argument("--queries", type=int, default=4)
    p.add_argument("--tokens", type=int, default=8)
    p.add_argument("--dim", type=int, default=16)
    p.add_argument("--eps", type=float, default=1e-5)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=cmd_grad_check)

    p = sub.add_parser("cost", help="inference FLOP estimate for an encoding strategy")
    p.add_argument("--image", type=_parse_size, required=True)
    p.add_argument("--strategy", choices=cost.STRATEGIES, default="uhd")
    p.add_argument("--compare-with", choices=cost.STRATEGIES, help="second strategy; report the cost ratio")
    p.add_argument("--text-tokens", type=int, default=0)
    p.set_defaults(func=cmd_cost)

    p = sub.add_parser("probe", help="encoding-flaw simulators")
    p.add_argument("kind", choices=("heatmap", "phases", "padding"))
    p.add_argument("--scene", help="scene JSON file (heatmap/phases)")
    p.add_argument("--grid-step", type=int, default=64)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--aspect-w", type=float, default=1.0)
    p.add_argument("--aspect-h", type=float, default=4.0)
    p.add_argument("--ppm", help="also write the rendered scene as a portable pixmap")
    p.set_defaults(func=cmd_probe)

    p = sub.add_parser("verify", help="verify the partition strategy's theoretical claims")
    p.add_argument("what", choices=("proofs",))
    p.add_argument("--samples", type=lambda s: int(float(s)), default=10_000_000)
    p.add_argument("--grid-density", type=int, default=1500)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("interp-pe", help="interpolate a position-embedding grid file")
    p.add_argument("input")
    p.add_argument("output")
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.set_defaults(func=cmd_interp_pe)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    if args.seed is not None:
        cfg = replace(cfg, seed=args.seed)
    if args.format is not None:
        cfg = replace(cfg, output_format=args.format)
    if args.command == "probe" and args.kind in ("heatmap", "phases") and not args.scene:
        parser.error(f"probe {args.kind} requires --scene")
    try:
        return args.func(args, cfg)
    except (ValueError, OSError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
