import argparse
import contextlib
import io
import json
import os
import re
import struct
import subprocess
import sys
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path
from unittest.mock import Mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicekit
from slicekit import binio, cost, probes
from slicekit.cli import build_parser, main
from slicekit.partition import MAX_SLICES
from slicekit.patches import PosEmbedGrid

# two objects on a canvas below one 512px tile; scaled up by 8 it spans 2x2 overlapping tiles
SMALL_SCENE = {"canvas": {"w": 100, "h": 80},
               "objects": [{"shape": "circle", "color": "red", "center": [30, 40], "size": 10},
                           {"shape": "square", "color": "blue", "center": [70, 20], "size": 8}]}


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_scene(directory, raw=SMALL_SCENE):
    path = directory / "scene.json"
    path.write_text(json.dumps(raw))
    return path


def dims_text(section="projector", key="resampler_queries", value=64) -> str:
    """A model dims file equal to the packaged one except for one value."""
    raw = {"encoder": {"layers": 24, "hidden_dim": 1024, "ffn_dim": 4096},
           "projector": {"resampler_queries": 64, "mlp_hidden_dim": 5120},
           "llm": {"layers": 40, "hidden_dim": 5120, "ffn_dim": 13824}}
    raw[section][key] = value
    return json.dumps(raw)


def token_file(rows, count, dim, fill=1.0):
    """A PEG1 file of the given shape, written without binio's checks so that it may hold non-finite values."""
    return binio.MAGIC + struct.pack("<III", rows, count, dim) + np.full(rows * count * dim, fill, "<f8").tobytes()


class TestPlan:
    def test_six_slice_plan(self, capsys):
        code, out, _ = run(capsys, "plan", "672x1008")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"] == {"m": 2, "n": 3}
        assert payload["llm_tokens"] == 448
        assert payload["overview_grid"] == {"cols": 19, "rows": 29}
        assert all(g == {"cols": 24, "rows": 24} for g in payload["slice_patch_grids"])

    def test_cap_applies_to_slices_cut_not_ideal_n(self, capsys):
        # the paper's headline resolution: ideal N=7, but the chosen 2x3 grid cuts 6 slices
        code, out, _ = run(capsys, "plan", "672x1088")
        assert code == 0
        payload = json.loads(out)
        assert (payload["ideal_N"], payload["grid"], payload["llm_tokens"]) == (7, {"m": 2, "n": 3}, 448)

    @pytest.mark.parametrize("size", ["14x14", "24x15", "672x1008"])
    def test_encodable_image_accepted_by_every_command(self, capsys, size):
        for argv in (("plan", size), ("schema", size), ("cost", "--image", size)):
            assert run(capsys, *argv)[0] == 0

    def test_text_format(self, capsys):
        code, out, _ = run(capsys, "--format", "text", "plan", "672x1008")
        assert code == 0
        assert "llm_tokens: 448" in out

    def test_out_file(self, capsys, tmp_path):
        target = tmp_path / "plan.json"
        code, out, _ = run(capsys, "--out", str(target), "plan", "672x1008")
        assert code == 0
        assert json.loads(target.read_text())["ideal_N"] == 6


class TestConfig:
    def test_config_overrides(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_N": 40, "format": "text"}))
        code, out, _ = run(capsys, "--config", str(cfg), "plan", "2000x2000")
        assert code == 0
        assert "ideal_N: 36" in out

    @pytest.mark.parametrize("size, blocks", [("672x1008", 7), ("336x336", 2), ("1344x336", 5)])
    def test_every_command_reads_k_from_the_dims_file(self, capsys, tmp_path, size, blocks):
        cfg = tmp_path / "cfg.json"
        (tmp_path / "dims.json").write_text(dims_text(value=32))
        cfg.write_text(json.dumps({"model_dims": str(tmp_path / "dims.json")}))
        code, out, _ = run(capsys, "--config", str(cfg), "plan", size)
        plan = json.loads(out)
        assert code == 0 and len(plan["slices"]) + 1 == blocks
        code, out, _ = run(capsys, "--config", str(cfg), "schema", size)
        schema_tokens = json.loads(out[out.index("{"):])["content_tokens"]
        code, out, _ = run(capsys, "--config", str(cfg), "cost", "--image", size)
        cost_tokens = json.loads(out)["visual_tokens_to_llm"]
        assert plan["llm_tokens"] == schema_tokens == cost_tokens == 32 * blocks
        src = tmp_path / "tokens.bin"
        src.write_bytes(binio.tokens_to_bytes(np.random.default_rng(0).normal(size=(10, 8))))
        assert run(capsys, "--config", str(cfg), "compress", str(src))[0] == 0
        assert binio.tokens_from_bytes((tmp_path / "tokens.bin.compressed").read_bytes()).shape == (32, 8)


class TestSchema:
    def test_summary_counts(self, capsys):
        code, out, _ = run(capsys, "schema", "672x1008")
        assert code == 0
        summary = json.loads(out[out.index("{") :])
        assert summary["content_tokens"] == 448
        assert summary["col_seps"] == 3
        assert summary["row_seps"] == 2
        assert summary["total_items"] == 454


class TestCost:
    def test_single_report(self, capsys):
        code, out, _ = run(capsys, "cost", "--image", "672x1008", "--strategy", "uhd")
        assert code == 0
        payload = json.loads(out)
        assert payload["visual_tokens_to_llm"] == 448
        assert payload["total_flops"] > 0

    def test_comparison_ratio(self, capsys):
        code, out, _ = run(capsys, "cost", "--image", "672x1008", "--strategy", "uhd", "--compare-with", "llava15")
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(0.968, abs=0.01)

    @pytest.mark.parametrize("strategy", ["llava15", "fixed2x2-mlp"])
    def test_strategies_that_do_not_slice_are_not_capped(self, capsys, strategy):
        code, out, _ = run(capsys, "cost", "--image", "2000x2000", "--strategy", strategy)
        assert code == 0 and json.loads(out)["strategy"] == strategy


class TestGradCheck:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(capsys, "grad-check", "--queries", "3", "--tokens", "5", "--dim", "8")
        assert code == 0
        assert json.loads(out)["pass"] is True

    def test_width_96_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(capsys, "grad-check", "--dim", "96")
        payload = json.loads(out)
        assert (code, payload["pass"]) == (0, True), payload
        assert payload["max_rel_err"] < 1e-4


class TestCompress:
    def test_round_trip_files(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "tokens.bin"
        src.write_bytes(binio.tokens_to_bytes(rng.normal(size=(100, 32))))
        (tmp_path / "out").mkdir()
        code, out, _ = run(capsys, "compress", str(src), "--out-dir", str(tmp_path / "out"))
        assert code == 0
        result = binio.tokens_from_bytes((tmp_path / "out" / "tokens.bin").read_bytes())
        assert result.shape == (64, 32)
        assert "100 -> 64 tokens" in out


class TestProbe:
    def test_padding(self, capsys):
        code, out, _ = run(capsys, "probe", "padding", "--aspect-w", "1", "--aspect-h", "4")
        assert code == 0
        assert json.loads(out)["effective_fraction"] == 0.25

    @pytest.mark.parametrize("w, h", [(3, 2), (7, 2), (2, 3)])
    def test_padding_without_ppm_builds_no_scene(self, capsys, w, h):
        code, out, _ = run(capsys, "probe", "padding", "--aspect-w", str(w), "--aspect-h", str(h))
        assert code == 0
        assert json.loads(out)["effective_fraction"] == pytest.approx(min(w, h) / max(w, h))

    @pytest.mark.parametrize("w, h", [(3, 2), (7, 2), (2, 3), (5, 2)])
    def test_padding_ppm_covers_the_whole_long_side(self, capsys, tmp_path, w, h):
        ppm = tmp_path / "probe.ppm"
        code, out, _ = run(capsys, "probe", "padding", "--aspect-w", str(w), "--aspect-h", str(h), "--ppm", str(ppm))
        assert code == 0
        data = ppm.read_bytes()
        header = b"P6\n336 336\n255\n"
        assert data.startswith(header)
        pixels = [data[i : i + 3] for i in range(len(header), len(data), 3)]
        middle = pixels[168 * 336 : 169 * 336] if w > h else pixels[168::336]
        assert middle.count(bytes(probes.COLORS["green"])) == 336

    def test_heatmap_from_scene_file(self, capsys, tmp_path):
        objects = [{"shape": "circle", "color": "red", "center": [dx, dy], "size": 24}
                   for dx, dy in ((0, 0), (32, 0), (0, 32), (32, 32))]
        path = write_scene(tmp_path, {"canvas": {"w": 768, "h": 768}, "objects": objects})
        code, out, _ = run(capsys, "probe", "heatmap", "--scene", str(path), "--grid-step", "64")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert {v for row in counts for v in row} == {4, 8, 16}

    @pytest.mark.parametrize("scale, phase", [("1.0", 2), ("0.4", 1)])
    def test_phases_on_a_scene_without_objects(self, capsys, tmp_path, scale, phase):
        path = write_scene(tmp_path, {"canvas": {"w": 1100, "h": 800}, "objects": []})
        code, out, err = run(capsys, "probe", "phases", "--scene", str(path), "--scale", scale)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"phase": phase, "predicted_answers": [0], "scale": float(scale)}

    def test_phases_at_scale_1e5(self, capsys, tmp_path):
        code, out, err = run(capsys, "probe", "phases", "--scene", str(write_scene(tmp_path)), "--scale", "1e5")
        assert (code, err) == (0, "")
        assert json.loads(out)["predicted_answers"] == [2, 6263039]

    def test_phases_with_ppm(self, capsys, tmp_path):
        circle = {"shape": "circle", "color": "red", "center": [300, 300], "size": 40}
        path = write_scene(tmp_path, {"canvas": {"w": 768, "h": 768}, "objects": [circle]})
        ppm = tmp_path / "scene.ppm"
        code, out, _ = run(capsys, "probe", "phases", "--scene", str(path), "--scale", "1.0", "--ppm", str(ppm))
        assert code == 0
        assert json.loads(out)["phase"] == 3
        assert ppm.read_bytes().startswith(b"P6\n768 768\n255\n")


class TestVerify:
    def test_small_run_passes(self, capsys):
        code, out, _ = run(capsys, "verify", "proofs", "--samples", "2e4", "--grid-density", "1000")
        assert code == 0
        payload = json.loads(out)
        assert payload["pass"] is True
        assert payload["candidate_density"]["holds"] is True


class TestInterpPe:
    def test_file_round_trip(self, capsys, tmp_path):
        rng = np.random.default_rng(4)
        src = tmp_path / "pe.bin"
        dst = tmp_path / "pe_out.bin"
        src.write_bytes(binio.grid_to_bytes(PosEmbedGrid(values=rng.normal(size=(24, 24, 8)))))
        code, out, _ = run(capsys, "interp-pe", str(src), str(dst), "--rows", "17", "--cols", "33")
        assert code == 0
        grid = binio.grid_from_bytes(dst.read_bytes())
        assert (grid.rows, grid.cols, grid.dim) == (17, 33, 8)
        assert "24x24x8 -> 17x33x8" in out


class TestStartup:
    def test_numpy_free_commands_leave_numpy_unimported(self, tmp_path):
        scene = str(write_scene(tmp_path))
        src = str(Path(slicekit.__file__).parents[1])
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
        for argv in (("plan", "672x1008"), ("schema", "672x1008"), ("cost", "--image", "672x1008"),
                     ("probe", "padding"), ("probe", "heatmap", "--scene", scene, "--grid-step", "16"),
                     ("probe", "phases", "--scene", scene, "--scale", "8")):
            # -X importtime lists every module the interpreter imports, one per stderr line
            proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "slicekit.cli", *argv],
                                  capture_output=True, text=True, env=env, timeout=60)
            assert proc.returncode == 0, proc.stderr
            imported = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                        if line.startswith("import time:")}
            assert "slicekit.partition" in imported
            assert "numpy" not in imported, argv


@dataclass(frozen=True, eq=False)
class Row:
    """One refused command line.  argv, err and the files name the row's directory as {tmp}.  err is the stderr line
    after "error: " (code 2: argparse's last line), where each … stands for any run of characters.  guard names a
    slicekit function patched to raise fault, by default AssertionError: it must not run.  wall is in seconds."""

    id: str
    argv: str
    err: str
    files: dict = field(default_factory=dict)  # name -> bytes, text, JSON value, or None for an empty directory
    code: int = 1
    guard: str | None = None
    fault: BaseException | None = None
    wall: float | None = None


CFG, SCENE, PPM = "--config {tmp}/cfg.json", "--scene {tmp}/scene.json", "--ppm {tmp}/o.ppm"
DIMS_CFG, NO_WEIGHTS = {"cfg.json": {"model_dims": "{tmp}/dims.json"}}, "resampler.init_resampler"
SIZE_COMMANDS = {"plan": "plan {}", "schema": "schema {}", "cost": "cost --image {}"}
DIMS_COMMANDS = {"plan": "plan 672x1008", "schema": "schema 672x1008", "cost": "cost --image 672x1008",
                 "compress": "compress {tmp}/dims.json", "grad-check": "grad-check", "probe": "probe padding"}
NINES, TOKENS, W600 = "9" * 400, token_file(1, 10, 8, fill=0.5), '{"w": 600, "h": 400}'  # NINES overflow a float


def scene(w, h, raw=SMALL_SCENE):
    return {"scene.json": {**raw, "canvas": {"w": w, "h": h}}}


REFUSALS = [
    Row("plan-slice-cap", "plan 2000x2000", "…exceeds max_N…"),
    *(Row(f"sub-patch/{size}/{cmd}", argv.format(size), f"image {size} has a side below one 14px patch")
      for size in ("5x5", "13x4000", "4000x13") for cmd, argv in SIZE_COMMANDS.items()),
    Row("plan-bad-size", "plan not-a-size", "argument image: expected WxH, got 'not-a-size'", code=2),
    Row("config-format-xml", f"{CFG} plan 672x1008", "…config key format …", {"cfg.json": {"format": "xml"}}),
    # K lives in the model dims file and M is derived from the vit geometry: neither is a config key
    *(Row(f"config-unknown/raw{i}-{key}", f"{CFG} plan 672x1008", f"…{key}…", {"cfg.json": raw})
      for i, (raw, key) in enumerate([({"max_n": 2}, "max_n"), ({"vit": {"width": 448}}, "vit.width"),
                                      ({"K": 8, "Seed": 1}, "Seed"), ([], "object"), ({"K": 8}, "K"),
                                      ({"vit": {"M": 576}}, "vit.M")])),
    *(Row(f"config-value/raw{i}-{key}", f"{CFG} plan 672x1008", f"…config key {key} …", {"cfg.json": raw})
      for i, (raw, key) in enumerate([
          ({"vit": {"h": "8"}}, "vit.h"), ({"max_N": None}, "max_N"), ({"seed": True}, "seed"), ({"seed": "x"}, "seed"),
          ({"format": 1}, "format"), ({"model_dims": 3}, "model_dims"), ({"vit": {"patch": 0}}, "vit.patch"),
          ({"vit": {"w": 336.0}}, "vit.w"), ({"vit": {"h": False}}, "vit.h"), ({"max_N": 0}, "max_N"),
          ({"vit": {"patch": -14}}, "vit.patch"), ({"vit": {"w": 0}}, "vit.w"), ({"vit": {"w": 300}}, "vit"),
          ({"seed": -5}, "seed"), ({"seed": -1}, "seed"), ({"max_N": MAX_SLICES + 1}, "max_N"),
          ({"max_N": 10**12}, "max_N")])),
    Row("config-max-n-1e12", f"{CFG} plan 300000x300000", f"config key max_N must be an integer from 1 to "
        f"{MAX_SLICES}, got {10**12}", {"cfg.json": {"max_N": 10**12}}, wall=1.0),
    *(Row(f"seed/{argv.split()[0]}", f"--seed -1 {argv}", "--seed must be >= 0, got -1")
      for argv in ("grad-check", "verify proofs", "plan 672x1008")),
    *(Row(f"json/{kind}", argv, f"{{tmp}}/{kind}.json: not valid JSON (…", {f"{kind}.json": '{"max_N": 3,', **more})
      for kind, argv, more in [("config", "--config {tmp}/config.json plan 672x1008", {}),
                               ("dims", f"{CFG} plan 672x1008", DIMS_CFG), ("scene", f"probe phases {SCENE}", {})]),
    Row("config-missing", "--config /nonexistent.json plan 672x1008",
        "[Errno 2] No such file or directory: '/nonexistent.json'"),
    *(Row(f"dims-value/{section}-{key}-{value}/{cmd}", f"{CFG} {argv}", f"…{{tmp}}/dims.json…{section}.{key} …",
          {"dims.json": dims_text(section, key, value), **DIMS_CFG})
      for section, key, value in [*(("projector", "resampler_queries", v) for v in ("8", 0, -3, True, 8.0)),
                                  ("projector", "mlp_hidden_dim", None), ("encoder", "layers", -1),
                                  ("llm", "hidden_dim", False)]
      for cmd, argv in DIMS_COMMANDS.items()),
    *(Row(f"dims-past-max-count/{section}-{key}", f"{CFG} cost --image 672x1008",
          f"{{tmp}}/dims.json: {section}.{key} must be <= {cost.MAX_COUNT}, got {10**400}",
          {"dims.json": dims_text(section, key, 10**400), **DIMS_CFG})
      for section, key in [("llm", "layers"), ("encoder", "hidden_dim"), ("projector", "mlp_hidden_dim")]),
    *(Row(f"dims-file/{named}", f"{CFG} cost --image 672x1008", f"…{{tmp}}/dims.json…{named}…",
          {"dims.json": raw, **DIMS_CFG}) for raw, named in [({"encoder": {"layers": 1}}, "'projector'"),
                                                             ([1, 2], "JSON object")]),
    Row("cost-dims-config-option", "cost --image 672x1008 --dims-config {tmp}/dims.json",
        "unrecognized arguments: --dims-config {tmp}/dims.json", code=2),
    Row("schema-slice-cap", "schema 4032x3024", "…at least 107 slices…exceeds max_N=6…"),
    Row("text-tokens-negative", "cost --image 672x1008 --text-tokens -5000", "--text-tokens must be >= 0, got -5000"),
    Row("text-tokens-past-max-count", f"cost --image 672x1008 --text-tokens {NINES}",
        f"--text-tokens must be <= {cost.MAX_COUNT}, got {NINES}"),
    # plan, schema and the slicing cost share the max_N cap, refused from the ideal count N = ceil(w*h / 336^2)
    *(Row(f"max-n-cap/{w}x{h}/{cmd}", argv.format(f"{w}x{h}"),
          f"{w}x{h} would be cut into at least {-(-w * h // 336**2) - 1} slices, which exceeds max_N=6", wall=2.0)
      for w, h in [(2000, 2000), (25891, 25891), (10**6, 10**6), (10**8, 10**8), (10**30 - 1, 400)]
      for cmd, argv in [*SIZE_COMMANDS.items(),
                        ("cost-compare", "cost --image {} --strategy llava15 --compare-with uhd-mlp")]),
    *(Row(f"grad-check/{option}-{value}", f"grad-check {option} {value}", f"{option} must be >= 1, got {value}",
          guard=NO_WEIGHTS) for option, values in [("--dim", "0 -3 -3000"), ("--queries", "0 -2"), ("--tokens", "0 -1")]
      for value in values.split()),
    *(Row(f"grad-check/{option}={value}", f"grad-check {option}={value}", f"{option} {message}",
          guard=NO_WEIGHTS) for option, value, message in [
          ("--tolerance", "nan", "must be finite, got nan"), ("--tolerance", "inf", "must be finite, got inf"),
          ("--tolerance", "0", "must be > 0, got 0.0"), ("--tolerance", "-1", "must be > 0, got -1.0"),
          ("--eps", "nan", "must be finite, got nan"), ("--eps", "-inf", "must be finite, got -inf"),
          ("--eps", "0", "must be > 0, got 0.0"), ("--eps", "1e-2", "must be <= 0.001, got 0.01")]),
    Row("grad-check/--dim-1024", "grad-check --dim 1024",
        "grad_check at K=4, T=8, d=1024 needs about 1.6e+14 multiply-adds…", guard="resampler._numeric_gradients"),
    Row("grad-check/--dim-6000", "grad-check --dim 6000", "grad_check at K=4, T=8, d=6000 needs about …",
        guard=NO_WEIGHTS, wall=1.0),
    *(Row(f"grad-check/memory-error-{i}", "grad-check", text or "MemoryError", guard=NO_WEIGHTS,
          fault=MemoryError(text)) for i, text in enumerate([
              "Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64", ""])),
    Row("compress/same-file-name", "compress {tmp}/a/t.bin {tmp}/b/t.bin --out-dir {tmp}/out",
        "two inputs would both write {tmp}/out/t.bin; give them distinct file names",
        {"a/t.bin": TOKENS, "b/t.bin": TOKENS, "out": None}),
    # a's output is the input a.compressed; x's output is x; the same directory, spelled differently
    *(Row(f"compress/output-is-input-{i}", f"compress {args}", "… is also an input; compress would overwrite it",
          {"a": TOKENS, "a.compressed": TOKENS, "sub/x": TOKENS}) for i, args in
      enumerate(["{tmp}/a {tmp}/a.compressed", "{tmp}/sub/x --out-dir {tmp}/sub", "{tmp}/a --out-dir {tmp}/sub/.."])),
    Row("compress/token-width-mismatch", "compress {tmp}/a.bin {tmp}/b.bin --out-dir {tmp}/out",
        "…b.bin has token width 16…a.bin has 32…",
        {"a.bin": token_file(1, 10, 32), "b.bin": token_file(1, 10, 16), "out": None}),
    *(Row(f"bad-binary/{argv.split()[0]}-{defect}", argv, f"{{tmp}}/bad.bin: {message}", {"bad.bin": data})
      for defect, data, message in [
          ("header", token_file(1, 2, 3)[:10], "truncated grid file: missing header"),
          ("magic", b"PEG0" + token_file(1, 2, 3)[4:], "bad magic b'PEG0', expected b'PEG1'"),
          ("size", token_file(1, 2, 3)[:-4], "grid file size 60 != expected 64"),
          ("non-finite", token_file(1, 2, 3, fill=np.nan), "position embeddings must be finite")]
      for argv in ("compress {tmp}/bad.bin", "interp-pe {tmp}/bad.bin {tmp}/o.bin --rows 3 --cols 3")),
    Row("compress/near-float-max", "compress {tmp}/big.bin", "{tmp}/big.bin: tokens are too large: the resampler's "
        "products overflow float64", {"big.bin": token_file(1, 4, 8, fill=1.5e308)}),
    Row("heatmap-without-scene", "probe heatmap", "probe heatmap requires --scene", code=2),
    *(Row(f"scene-file/{named}", f"probe phases {SCENE}", f"…{{tmp}}/scene.json…{named}…", {"scene.json": raw})
      for raw, named in [({"canvas": {"w": 100}}, "'h'"), ([1, 2], "JSON object")]),
    Row("scene-background", f"probe phases {SCENE} {PPM}", "unknown background 'pink'",
        scene(768, 768, {"objects": [], "background": "pink"})),
    *(Row(f"scene-values/{kind}-{i}", f"probe {kind} {SCENE}{ppm}", message,
          {"scene.json": f'{{"canvas": {canvas}, "objects": [{{"shape": "circle", "color": "red", {obj}}}]}}'})
      for i, (canvas, obj, message) in enumerate([
          ('{"w": 600.5, "h": 90}', '"center": [30, 40], "size": 10', "width_px must be an integer, got 600.5"),
          ('{"w": true, "h": 400}', '"center": [30, 40], "size": 10', "width_px must be an integer, got True"),
          ('{"w": 600, "h": "90"}', '"center": [30, 40], "size": 10', "height_px must be an integer, got '90'"),
          (W600, '"center": [30, 40], "size": 1e400', "object size must be finite, got inf"),
          (W600, '"center": [30, 40], "size": NaN', "object size must be finite, got nan"),
          (W600, '"center": [30, 40, 5], "size": 10', "object center must be two finite numbers, got (30, 40, 5)"),
          (W600, '"center": [1e400, 40], "size": 10', "object center must be finite, got inf"),
          (W600, '"center": [30, 40], "size": true', "object size must be a real number, got True"),
          (W600, '"center": [true, false], "size": 10', "object center must be a real number, got True")])
      for kind, ppm in [("heatmap", ""), ("phases", f" {PPM}")]),
    *(Row(f"canvas-past-float/{kind}", f"probe {kind} {SCENE}",
          f"{{tmp}}/scene.json: canvas side beyond float range (over {sys.float_info.max:.6g})",
          scene(10**400, 500, {"objects": [{"shape": "circle", "color": "red", "center": [300, 300], "size": 40}]}))
      for kind in ("heatmap", "phases")),
    *(Row(f"canvas-past-float-ppm/{kind}", f"probe {kind} {SCENE} {PPM}", "…", scene(10**400, 80))
      for kind in ("phases", "heatmap")),
    *(Row(f"phases-scale/{scale}", f"probe phases {SCENE} --scale {scale}", f"--scale {rule}, got {float(scale)}",
          scene(100, 80), guard="cli._load_scene") for scale, rule in [
          ("inf", "must be finite"), ("nan", "must be finite"), ("0", "must be > 0"), ("-1", "must be > 0")]),
    *(Row(f"padding/{option}-{value}", f"probe padding {option} {value} {PPM}", f"{option} {message}",
          guard="probes.padding_waste") for option, value, message in [
          ("--aspect-w", "0", "must be > 0, got 0.0"), ("--aspect-w", "nan", "must be finite, got nan"),
          ("--aspect-h", "-1", "must be > 0, got -1.0"), ("--aspect-h", "inf", "must be finite, got inf")]),
    *(Row(f"heatmap-grid-step/{step}", f"probe heatmap {SCENE} --grid-step {step}",
          f"--grid-step must be >= 1, got {step}", scene(100, 80)) for step in ("0", "-5")),
    # sides past 2^63 grid steps or 10^16 tiles are counted, not enumerated; phases names the file's own side
    *(Row(f"cell-limit/{id}", f"probe {args}", message, scene(w, h), wall=1.0) for id, args, message, w, h in [
        ("heatmap", f"heatmap {SCENE} --grid-step 1 {PPM}", "{tmp}/scene.json: heatmap of 99930 x 99960 placements on "
         f"the 100000 x 100000 canvas is more than the limit of {probes.MAX_CELLS}", 100_000, 100_000),
        ("phases", f"phases {SCENE} {PPM}", "scene of 10000 x 10000 pixels is more than the limit of "
         f"{probes.MAX_CELLS} pixels", 10_000, 10_000),
        *((f"past/heatmap-{e}", f"heatmap {SCENE} --grid-step 1", f"{{tmp}}/scene.json: heatmap of {10**e - 70} x 40 "
           f"placements on the {10**e} x 80 canvas is more than the limit of {probes.MAX_CELLS}", 10**e, 80)
          for e in (30, 308)),
        *((f"past/phases-{e}", f"phases {SCENE} --grid-step 1", f"{{tmp}}/scene.json: canvas {10**e} x 80 needs "
           f"{-(-10**e // 512)} x 1 tiles of 512 px, more than the limit of {probes.MAX_CELLS} tile starts", 10**e, 80)
          for e in (19, 308))]),
    *(Row(f"verify/{args}", f"verify proofs {args}", message, guard="verify.run_proof_checks") for args, message in [
        ("--samples inf", "--samples must be finite, got inf"), ("--samples nan", "--samples must be finite, got nan"),
        ("--samples 1e400", "--samples must be finite, got inf"), ("--samples 0", "--samples must be >= 1, got 0.0"),
        ("--samples=-inf", "--samples must be finite, got -inf"), ("--samples -1", "--samples must be >= 1, got -1.0"),
        ("--samples 20000.7", "--samples must be a whole number, got 20000.7"),
        ("--samples 2e4 --grid-density 10", "--grid-density must be >= 1000, got 10"),
        ("--samples 2e4 --grid-density 99999999999", "--grid-density must be <= 100000, got 99999999999"),
        ("--samples 1e18", "--samples must be <= 1000000000, got 1000000000000000000"),
        ("--samples 1000000001", "--samples must be <= 1000000000, got 1000000001")]),
    *(Row(f"interp-pe/{r}x{c}", f"interp-pe {{tmp}}/missing.bin {{tmp}}/o.bin --rows {r} --cols {c}", message)
      for r, c, message in [(0, 3, "--rows must be >= 1, got 0"), (3, 0, "--cols must be >= 1, got 0"),
                                  (-1, 0, "--cols must be >= 1, got 0"), (-4, 3, "--rows must be >= 1, got -4"),
                                  *((r, c, f"--rows x --cols = {r * c} exceeds the encoder's token budget M=576")
                                    for r, c in [(100000, 100000), (577, 1), (1, 577), (25, 24)])]),
    *(Row(f"interp-pe/empty-axis-{shape}", "interp-pe {tmp}/pe.bin {tmp}/o.bin --rows 3 --cols 3", "{tmp}/pe.bin: "
          f"position embeddings must have shape (rows, cols, dim) with no empty axis, got {shape}",
          {"pe.bin": token_file(*shape)}) for shape in [(0, 4, 3), (4, 0, 3), (4, 4, 0)]),
]
STDERR: dict[Row, str] = {}  # each row's stderr as run_refusal last saw it, for the digest in test_golden.py


def run_refusal(row: Row, tmp: Path, monkeypatch) -> tuple[int, str, str, float, dict[str, bytes]]:
    """Write the row's files under tmp and run its argv in process, with its guard in place: the exit code, stdout,
    stderr with tmp as {tmp}, wall seconds, and the bytes of each file written by its path under tmp."""
    written = {}
    for name, content in row.files.items():
        (tmp / name).parent.mkdir(parents=True, exist_ok=True)
        if content is None:
            (tmp / name).mkdir()
            continue
        text = content if isinstance(content, (str, bytes)) else json.dumps(content)
        written[name] = text if isinstance(text, bytes) else text.replace("{tmp}", str(tmp)).encode()
        (tmp / name).write_bytes(written[name])
    out, err = io.StringIO(), io.StringIO()
    with monkeypatch.context() as patch, contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        patch.setenv("COLUMNS", "80")  # argparse wraps its usage text to the terminal's width
        if row.guard:
            patch.setattr(f"slicekit.{row.guard}", Mock(side_effect=row.fault or AssertionError(f"ran {row.guard}")))
        start = time.perf_counter()
        try:
            code = main([arg.replace("{tmp}", str(tmp)) for arg in row.argv.split()])
        except SystemExit as e:
            code = e.code
        seconds = time.perf_counter() - start
    STDERR[row] = err.getvalue().replace(str(tmp), "{tmp}")
    return code, out.getvalue(), STDERR[row], seconds, written


@pytest.mark.parametrize("row", REFUSALS, ids=lambda row: row.id)
def test_refusal(row, tmp_path, monkeypatch):
    """Exit 1 with no stdout and the row's one stderr line, or the row's usage error; no file is written or changed."""
    code, out, err, seconds, written = run_refusal(row, tmp_path, monkeypatch)
    text = ".*".join(map(re.escape, row.err.split("…")))
    assert code == row.code, err
    if code == 1:
        assert out == "" and len(err.splitlines()) == 1 and re.fullmatch(f"error: {text}\n", err), err
    else:
        assert re.fullmatch(f"slicekit.*: error: {text}", err.splitlines()[-1]), err
    assert {str(p.relative_to(tmp_path)): p.read_bytes() for p in tmp_path.rglob("*") if p.is_file()} == written
    assert row.wall is None or seconds < row.wall


def refused_values(command: str | None, option: str) -> list[str]:
    """The values that the rows give option of command (None: an option before the command), sorted."""
    argvs = [row.argv.replace("=", " ").split() for row in REFUSALS]  # --option=value as --option value
    return sorted({v for argv in argvs if command in (None, *argv) for o, v in zip(argv, argv[1:]) if o == option})


def test_every_numeric_option_has_a_refusal_row():
    parser = build_parser()
    commands = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction)).choices
    numeric = [(c, a.option_strings[0]) for c, p in [(None, parser), *commands.items()] for a in p._actions
               if a.type in (int, float)]
    assert (None, "--seed") in numeric and ("interp-pe", "--cols") in numeric
    assert [(c, option) for c, option in numeric if not refused_values(c, option)] == []


NOT_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")
SCENE_DEFECTS = {
    "side": ("600.5", "600.0", "true", "false", '"600"', "0", "-1", "null", *NOT_FINITE, str(10**400)),
    "shape": ('"hexagon"', "3", '["circle"]', "null"), "color": ('"pink"', "null", '["red"]'),
    "center": ("[]", "[5]", "[5, 5, 5]", "[-5, 5]", "[5, 3000]", '["5", 5]', "[true, 5]", "5", "null",
               *(f"[{v}, 5]" for v in NOT_FINITE)),
    "size": ("0", "-1", '"8"', "null", "true", *NOT_FINITE),
}


@st.composite
def scene_text(draw) -> str:
    """A valid scene file of 0-3 objects with at most one field replaced by a bad value; canvas sides stay at most
    2000 px, because --ppm allocates 3*W*H bytes."""
    canvas = {"w": draw(st.integers(1, 2000)), "h": draw(st.integers(1, 2000))}
    objects = [{"shape": draw(st.sampled_from(probes.SHAPES)), "color": draw(st.sampled_from(sorted(probes.COLORS))),
                "center": [draw(st.floats(0, canvas[axis], exclude_max=True)) for axis in "wh"],
                "size": draw(st.floats(0.5, 60))} for _ in range(draw(st.integers(0, 3)))]
    texts = [{k: json.dumps(v) for k, v in d.items()} for d in (canvas, *objects)]
    defect = draw(st.none() | st.sampled_from(sorted(SCENE_DEFECTS)))
    if defect == "side":
        texts[0][draw(st.sampled_from("wh"))] = draw(st.sampled_from(SCENE_DEFECTS["side"]))
    elif defect and objects:
        texts[draw(st.integers(1, len(objects)))][defect] = draw(st.sampled_from(SCENE_DEFECTS[defect]))
    fields = [", ".join(f'"{k}": {v}' for k, v in t.items()) for t in texts]
    return f'{{"canvas": {{{fields[0]}}}, "objects": [{", ".join(f"{{{f}}}" for f in fields[1:])}]}}'


@st.composite
def pe_file(draw) -> bytes:
    """A valid PEG1 file of up to 4x4x3 values, or one with one defect: an empty axis, non-finite values, a truncated
    end or a bad magic."""
    shape, fill = [draw(st.integers(1, 4)) for _ in range(3)], draw(st.floats(-2, 2))
    defect = draw(st.none() | st.sampled_from(("empty-axis", "non-finite", "truncated", "bad-magic")))
    if defect == "empty-axis":
        shape[draw(st.integers(0, 2))] = 0
    elif defect == "non-finite":
        fill = draw(st.sampled_from((np.nan, np.inf, -np.inf)))
    data = token_file(*shape, fill=fill)
    if defect == "truncated":
        return data[: draw(st.integers(0, len(data) - 1))]
    return b"PEG0" + data[4:] if defect == "bad-magic" else data


# where the fuzz draws a numeric option's value when it does not take one that a refusal row gives it
FINITE = {"--text-tokens": st.integers(-10**6, 10**9), "--grid-step": st.integers(-100, 200),
          "--scale": st.floats(1e-3, 1e5), "--grid-density": st.integers(1000, 3000),
          **dict.fromkeys(("--aspect-w", "--aspect-h"), st.floats(allow_nan=False, allow_infinity=False)),
          **dict.fromkeys(("--rows", "--cols"), st.integers(1, 24)), "--samples": st.integers(1, 20000),
          **dict.fromkeys(("--queries", "--tokens", "--dim"), st.integers(-3, 8)),
          **dict.fromkeys(("--eps", "--tolerance"), st.floats(-1.0, 1.0) | st.floats(1e-9, 1e-3))}


@st.composite
def cli_argv(draw, scene: str, pe: str) -> list[str]:
    command = draw(st.sampled_from(("plan", "schema", "cost", "probe", "grad-check", "interp-pe", "verify")))

    def options(*names):
        return [f"{o}={draw(st.sampled_from(refused_values(command, o)) | FINITE[o].map(str))}" for o in names]
    if command in ("plan", "schema", "cost"):
        side = st.integers(-20, 20_000) | st.integers(-20, 10**8)
        size = f"{draw(side)}x{draw(side)}"
        if command != "cost":
            return [command, "--", size]
        argv = ["cost", f"--image={size}", "--strategy", draw(st.sampled_from(cost.STRATEGIES))]
        if draw(st.booleans()):
            argv += ["--compare-with", draw(st.sampled_from(cost.STRATEGIES))]
        return argv + options("--text-tokens")
    if command == "probe":
        kind = draw(st.sampled_from(("heatmap", "phases", "padding")))
        names = {"heatmap": ("--grid-step",), "phases": ("--scale",), "padding": ("--aspect-w", "--aspect-h")}[kind]
        ppm = ["--ppm", str(Path(scene).with_name("out.ppm"))] if draw(st.booleans()) else []
        return ["probe", kind, "--scene", scene, *options(*names), *ppm]
    if command == "interp-pe":  # 24x24 = M fits the default budget; the rows' 577 and 100000 exceed it
        return ["interp-pe", pe, str(Path(pe).with_name("out.bin")), *options("--rows", "--cols")]
    if command == "verify":
        return ["verify", "proofs", *options("--samples", "--grid-density")]
    return ["grad-check", *options("--queries", "--tokens", "--dim", "--eps", "--tolerance")]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


def assert_outcome(argv):
    """Exit 0 with empty stderr, exit 1 with one stderr line (or a reported failed check), or a usage error."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as e:
            assert e.code == 2, argv
            return
    if code == 1 and argv[0] in ("grad-check", "verify") and err.getvalue() == "":
        assert json.loads(out.getvalue())["pass"] is False  # a failed check is reported, not an error
    elif code == 1:
        assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
    else:
        assert code == 0 and err.getvalue() == "", argv


TOKEN_FILES = {"empty": b"", "truncated-header": token_file(1, 2, 3)[:10], "width-0": token_file(1, 2, 0),
               "width-1": token_file(1, 3, 1), "zero-tokens": token_file(1, 0, 3), "two-rows": token_file(2, 2, 3),
               "non-finite": token_file(1, 2, 3, fill=np.nan), "width-3": token_file(1, 4, 3, fill=0.5),
               "width-2": token_file(1, 5, 2, fill=-0.25)}


@st.composite
def compress_case(draw) -> tuple[dict[str, bytes], list[str]]:
    """Token files under a/ and b/ (one name in both collides under --out-dir), and compress's arguments.

    Drawing x and x.compressed as inputs, or the inputs' own directory as --out-dir, makes an output equal an input.
    """
    kinds = st.sampled_from(sorted(TOKEN_FILES))
    names = draw(st.lists(st.tuples(st.sampled_from(("a", "b")), kinds), min_size=1, max_size=3))
    files = {f"{d}/{kind}": TOKEN_FILES[kind] for d, kind in names}
    inputs = [f"{d}/{kind}" for d, kind in names]
    if draw(st.booleans()):
        inputs.append(f"{inputs[0]}.compressed")
        files[inputs[-1]] = TOKEN_FILES[draw(kinds)]
    out_dir = draw(st.sampled_from((None, "a", "b", "out")))
    return files, inputs + ([] if out_dir is None else ["--out-dir", out_dir])


class TestFuzz:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_every_outcome_is_success_one_line_error_or_usage_error(self, fuzz_dir, data):
        scene, pe = fuzz_dir / "scene.json", fuzz_dir / "pe.bin"
        scene.write_text(data.draw(scene_text()))
        pe.write_bytes(data.draw(pe_file()))
        assert_outcome(data.draw(cli_argv(str(scene), str(pe))))

    @settings(max_examples=100)
    @given(case=compress_case())
    def test_compress_outcome_is_success_or_one_line_error_and_inputs_stay_unchanged(self, case):
        files, args = case
        with tempfile.TemporaryDirectory() as root:
            for sub in ("a", "b", "out"):
                os.mkdir(os.path.join(root, sub))
            for rel, data in files.items():
                with open(os.path.join(root, rel), "wb") as f:
                    f.write(data)
            assert_outcome(["compress", *(a if a.startswith("--") else os.path.join(root, a) for a in args)])
            for rel, data in files.items():
                with open(os.path.join(root, rel), "rb") as f:
                    assert f.read() == data, (args, rel)
