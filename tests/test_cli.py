import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicekit
from slicekit import binio, cost, probes
from slicekit.cli import main
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


def write_dims(tmp_path, section="projector", key="resampler_queries", value=64):
    """A model dims file equal to the packaged one except for one value."""
    raw = {"encoder": {"layers": 24, "hidden_dim": 1024, "ffn_dim": 4096},
           "projector": {"resampler_queries": 64, "mlp_hidden_dim": 5120},
           "llm": {"layers": 40, "hidden_dim": 5120, "ffn_dim": 13824}}
    raw[section][key] = value
    path = tmp_path / "dims.json"
    path.write_text(json.dumps(raw))
    return path


class TestPlan:
    def test_six_slice_plan(self, capsys):
        code, out, _ = run(capsys, "plan", "672x1008")
        assert code == 0
        payload = json.loads(out)
        assert payload["grid"] == {"m": 2, "n": 3}
        assert payload["llm_tokens"] == 448
        assert payload["overview_grid"] == {"cols": 19, "rows": 29}
        assert all(g == {"cols": 24, "rows": 24} for g in payload["slice_patch_grids"])

    def test_slice_cap_enforced(self, capsys):
        code, out, err = run(capsys, "plan", "2000x2000")
        assert code == 1
        assert "exceeds max_N" in err

    def test_cap_applies_to_slices_cut_not_ideal_n(self, capsys):
        # the paper's headline resolution: ideal N=7, but the chosen 2x3 grid cuts 6 slices
        code, out, _ = run(capsys, "plan", "672x1088")
        assert code == 0
        payload = json.loads(out)
        assert (payload["ideal_N"], payload["grid"], payload["llm_tokens"]) == (7, {"m": 2, "n": 3}, 448)

    @pytest.mark.parametrize("size", ["5x5", "13x4000", "4000x13"])
    def test_sub_patch_image_rejected_by_every_command(self, capsys, size):
        errors = set()
        for argv in (("plan", size), ("schema", size), ("cost", "--image", size)):
            code, out, err = run(capsys, *argv)
            assert code == 1 and out == "" and len(err.strip().splitlines()) == 1
            errors.add(err)
        assert errors == {f"error: image {size} has a side below one 14px patch\n"}

    @pytest.mark.parametrize("size", ["14x14", "24x15", "672x1008"])
    def test_encodable_image_accepted_by_every_command(self, capsys, size):
        for argv in (("plan", size), ("schema", size), ("cost", "--image", size)):
            assert run(capsys, *argv)[0] == 0

    def test_bad_size_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["plan", "not-a-size"])
        assert exc.value.code == 2

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

    def test_invalid_config_value(self, capsys, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"format": "xml"}))
        code, _, err = run(capsys, "--config", str(cfg), "plan", "672x1008")
        assert code == 1
        assert "config key format " in err

    @pytest.mark.parametrize(
        "raw, key",
        [({"max_n": 2}, "max_n"), ({"vit": {"width": 448}}, "vit.width"), ({"K": 8, "Seed": 1}, "Seed"), ([], "object"),
         # K lives in the model dims file and M is derived from the vit geometry: neither is a config key
         ({"K": 8}, "K"), ({"vit": {"M": 576}}, "vit.M")],
    )
    def test_unknown_key_or_shape_rejected(self, capsys, tmp_path, raw, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "--config", str(cfg), "plan", "672x1008")
        assert code == 1
        assert out == ""
        assert key in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize(
        "raw, key",
        [({"vit": {"h": "8"}}, "vit.h"), ({"max_N": None}, "max_N"), ({"seed": True}, "seed"), ({"seed": "x"}, "seed"),
         ({"format": 1}, "format"), ({"model_dims": 3}, "model_dims"), ({"vit": {"patch": 0}}, "vit.patch"),
         ({"vit": {"w": 336.0}}, "vit.w"), ({"vit": {"h": False}}, "vit.h"),
         # out of range: the error names the config key, not the AppConfig field
         ({"max_N": 0}, "max_N"), ({"vit": {"patch": -14}}, "vit.patch"), ({"vit": {"w": 0}}, "vit.w"),
         ({"vit": {"w": 300}}, "vit")],
    )
    def test_wrong_value_type_rejected(self, capsys, tmp_path, raw, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "--config", str(cfg), "plan", "672x1008")
        assert code == 1
        assert out == ""
        assert f"config key {key} " in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("kind", ["config", "dims", "scene"])
    def test_json_syntax_error_names_the_file(self, capsys, tmp_path, kind):
        bad = tmp_path / f"{kind}.json"
        bad.write_text('{"max_N": 3,')
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dims": str(bad)}))
        argv = {"config": ("--config", str(bad), "plan", "672x1008"),
                "dims": ("--config", str(cfg), "plan", "672x1008"),
                "scene": ("probe", "phases", "--scene", str(bad))}[kind]
        code, out, err = run(capsys, *argv)
        assert code == 1 and out == ""
        assert err.startswith(f"error: {bad}: not valid JSON (") and len(err.strip().splitlines()) == 1

    def test_missing_config_file(self, capsys):
        code, _, err = run(capsys, "--config", "/nonexistent.json", "plan", "672x1008")
        assert code == 1

    @pytest.mark.parametrize(
        "section, key, value",
        [("projector", "resampler_queries", "8"), ("projector", "resampler_queries", 0),
         ("projector", "resampler_queries", -3), ("projector", "resampler_queries", True),
         ("projector", "resampler_queries", 8.0), ("projector", "mlp_hidden_dim", None),
         ("encoder", "layers", -1), ("llm", "hidden_dim", False)],
    )
    def test_bad_dims_value_fails_every_command(self, capsys, tmp_path, section, key, value):
        dims = write_dims(tmp_path, section, key, value)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dims": str(dims)}))
        for argv in (("plan", "672x1008"), ("schema", "672x1008"), ("cost", "--image", "672x1008"),
                     ("compress", str(dims)), ("grad-check",), ("probe", "padding")):
            code, out, err = run(capsys, "--config", str(cfg), *argv)
            assert code == 1 and out == ""
            assert str(dims) in err and f"{section}.{key} " in err and len(err.strip().splitlines()) == 1

    @pytest.mark.parametrize("size, blocks", [("672x1008", 7), ("336x336", 2), ("1344x336", 5)])
    def test_every_command_reads_k_from_the_dims_file(self, capsys, tmp_path, size, blocks):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dims": str(write_dims(tmp_path, value=32))}))
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

    def test_slice_cap_enforced(self, capsys):
        code, out, err = run(capsys, "schema", "4032x3024")
        assert code == 1
        assert out == ""
        assert "108 slices" in err and "exceeds max_N=6" in err and len(err.strip().splitlines()) == 1


class TestCost:
    def test_single_report(self, capsys):
        code, out, _ = run(capsys, "cost", "--image", "672x1008", "--strategy", "uhd")
        assert code == 0
        payload = json.loads(out)
        assert payload["visual_tokens_to_llm"] == 448
        assert payload["total_flops"] > 0

    def test_comparison_ratio(self, capsys):
        code, out, _ = run(
            capsys, "cost", "--image", "672x1008", "--strategy", "uhd", "--compare-with", "llava15"
        )
        assert code == 0
        assert json.loads(out)["ratio"] == pytest.approx(0.968, abs=0.01)

    def test_negative_text_tokens_rejected(self, capsys):
        code, out, err = run(capsys, "cost", "--image", "672x1008", "--text-tokens", "-5000")
        assert code == 1
        assert out == "" and err == "error: text_tokens must be >= 0, got -5000\n"

    @pytest.mark.parametrize("raw, named", [({"encoder": {"layers": 1}}, "'projector'"), ([1, 2], "JSON object")])
    def test_bad_dims_file_names_file_and_key(self, capsys, tmp_path, raw, named):
        path = tmp_path / "dims.json"
        path.write_text(json.dumps(raw))
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dims": str(path)}))
        code, out, err = run(capsys, "--config", str(cfg), "cost", "--image", "672x1008")
        assert code == 1
        assert out == "" and str(path) in err and named in err and len(err.strip().splitlines()) == 1

    def test_dims_file_is_named_only_by_config(self, capsys, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["cost", "--image", "672x1008", "--dims-config", str(write_dims(tmp_path))])
        assert exc.value.code == 2


class TestGradCheck:
    def test_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(capsys, "grad-check", "--queries", "3", "--tokens", "5", "--dim", "8")
        assert code == 0
        assert json.loads(out)["pass"] is True

    @pytest.mark.parametrize("option, value", [("--dim", "0"), ("--dim", "-3"), ("--queries", "0")])
    def test_size_below_one_is_a_one_line_error(self, capsys, option, value):
        code, out, err = run(capsys, "grad-check", option, value)
        assert code == 1 and out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error: the resampler needs K >= 1 queries of dim >= 1, got ")

    @pytest.mark.parametrize("value", ["nan", "inf", "0", "-1"])
    def test_tolerance_not_finite_and_positive_is_a_one_line_error(self, capsys, value):
        code, out, err = run(capsys, "grad-check", "--tolerance", value)
        assert code == 1 and out == "" and len(err.strip().splitlines()) == 1
        assert err.startswith("error: --tolerance must be a finite number > 0, got ")


class TestCompress:
    def test_round_trip_files(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        src = tmp_path / "tokens.bin"
        src.write_bytes(binio.tokens_to_bytes(rng.normal(size=(100, 32))))
        code, out, _ = run(capsys, "compress", str(src), "--out-dir", str(tmp_path))
        assert code == 0
        result = binio.tokens_from_bytes((tmp_path / "tokens.bin.compressed").read_bytes()) \
            if (tmp_path / "tokens.bin.compressed").exists() \
            else binio.tokens_from_bytes((tmp_path / "tokens.bin").read_bytes())
        assert result.shape == (64, 32)
        assert "100 -> 64 tokens" in out

    def test_same_file_name_rejected_before_writing(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        for d in ("a", "b"):
            (tmp_path / d).mkdir()
            (tmp_path / d / "t.bin").write_bytes(binio.tokens_to_bytes(rng.normal(size=(10, 8))))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "compress", str(tmp_path / "a" / "t.bin"), str(tmp_path / "b" / "t.bin"),
                             "--out-dir", str(out_dir))
        assert code == 1
        assert out == "" and len(err.strip().splitlines()) == 1
        assert list(out_dir.iterdir()) == []

    def test_token_width_mismatch_names_both_files_before_writing(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        (tmp_path / "a.bin").write_bytes(binio.tokens_to_bytes(rng.normal(size=(10, 32))))
        (tmp_path / "b.bin").write_bytes(binio.tokens_to_bytes(rng.normal(size=(10, 16))))
        out_dir = tmp_path / "out"
        out_dir.mkdir()
        code, out, err = run(capsys, "compress", str(tmp_path / "a.bin"), str(tmp_path / "b.bin"),
                             "--out-dir", str(out_dir))
        assert code == 1
        assert out == "" and len(err.strip().splitlines()) == 1
        assert "b.bin has token width 16" in err and "a.bin has 32" in err
        assert list(out_dir.iterdir()) == []


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

    def test_heatmap_requires_scene(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["probe", "heatmap"])
        assert exc.value.code == 2

    def test_heatmap_from_scene_file(self, capsys, tmp_path):
        scene = {
            "canvas": {"w": 768, "h": 768},
            "objects": [
                {"shape": "circle", "color": "red", "center": [dx, dy], "size": 24}
                for dx, dy in ((0, 0), (32, 0), (0, 32), (32, 32))
            ],
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code, out, _ = run(capsys, "probe", "heatmap", "--scene", str(path), "--grid-step", "64")
        assert code == 0
        counts = json.loads(out)["counts"]
        assert {v for row in counts for v in row} == {4, 8, 16}

    @pytest.mark.parametrize("raw, named", [({"canvas": {"w": 100}}, "'h'"), ([1, 2], "JSON object")])
    def test_bad_scene_file_names_file_and_key(self, capsys, tmp_path, raw, named):
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(raw))
        code, out, err = run(capsys, "probe", "phases", "--scene", str(path))
        assert code == 1
        assert out == "" and str(path) in err and named in err and len(err.strip().splitlines()) == 1

    def test_unknown_background_rejected(self, capsys, tmp_path):
        scene = {"canvas": {"w": 768, "h": 768}, "objects": [], "background": "pink"}
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        code, out, err = run(capsys, "probe", "phases", "--scene", str(path), "--ppm", str(tmp_path / "o.ppm"))
        assert code == 1
        assert out == "" and err == "error: unknown background 'pink'\n"
        assert not (tmp_path / "o.ppm").exists()

    @pytest.mark.parametrize("scale", ["inf", "nan", "0", "-1"])
    def test_phases_rejects_scale_not_finite_and_positive(self, capsys, tmp_path, scale):
        code, out, err = run(capsys, "probe", "phases", "--scene", str(write_scene(tmp_path)), "--scale", scale)
        assert code == 1 and out == ""
        assert err == f"error: scene scale must be finite and > 0, got {float(scale)}\n"

    @pytest.mark.parametrize("step", ["0", "-5"])
    def test_heatmap_rejects_grid_step_below_one(self, capsys, tmp_path, step):
        code, out, err = run(capsys, "probe", "heatmap", "--scene", str(write_scene(tmp_path)), "--grid-step", step)
        assert code == 1 and out == ""
        assert err == f"error: heatmap grid step must be >= 1 px, got {step}\n"

    def test_phases_with_ppm(self, capsys, tmp_path):
        scene = {
            "canvas": {"w": 768, "h": 768},
            "objects": [{"shape": "circle", "color": "red", "center": [300, 300], "size": 40}],
        }
        path = tmp_path / "scene.json"
        path.write_text(json.dumps(scene))
        ppm = tmp_path / "scene.ppm"
        code, out, _ = run(
            capsys, "probe", "phases", "--scene", str(path), "--scale", "1.0", "--ppm", str(ppm)
        )
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
        code, out, _ = run(
            capsys, "interp-pe", str(src), str(dst), "--rows", "17", "--cols", "33"
        )
        assert code == 0
        grid = binio.grid_from_bytes(dst.read_bytes())
        assert (grid.rows, grid.cols, grid.dim) == (17, 33, 8)
        assert "24x24x8 -> 17x33x8" in out

    @pytest.mark.parametrize("rows, cols", [(100000, 100000), (577, 1), (1, 577), (25, 24)])
    def test_target_over_token_budget_rejected_before_reading(self, capsys, tmp_path, rows, cols):
        missing = tmp_path / "missing.bin"
        code, out, err = run(capsys, "interp-pe", str(missing), str(tmp_path / "o.bin"),
                             "--rows", str(rows), "--cols", str(cols))
        assert code == 1 and out == ""
        assert err == f"error: --rows x --cols = {rows * cols} exceeds the encoder's token budget M=576\n"
        assert not (tmp_path / "o.bin").exists()


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


SPECIAL_NUMBERS = ("nan", "inf", "-inf", "0", "-1")


def option_values(finite):
    """Values for a numeric option: nan, +-inf, 0, a negative number, or one drawn from `finite`."""
    return st.sampled_from(SPECIAL_NUMBERS) | finite.map(str)


@st.composite
def cli_argv(draw, scene: str, pe: str) -> list[str]:
    command = draw(st.sampled_from(("plan", "schema", "cost", "probe", "grad-check", "interp-pe")))
    if command in ("plan", "schema", "cost"):
        side = st.integers(-20, 20_000)
        size = f"{draw(side)}x{draw(side)}"
        if command != "cost":
            return [command, "--", size]
        argv = ["cost", f"--image={size}", "--strategy", draw(st.sampled_from(cost.STRATEGIES))]
        if draw(st.booleans()):
            argv += ["--compare-with", draw(st.sampled_from(cost.STRATEGIES))]
        return argv + [f"--text-tokens={draw(option_values(st.integers(-10**6, 10**9)))}"]
    if command == "probe":
        return ["probe", draw(st.sampled_from(("heatmap", "phases", "padding"))), "--scene", scene,
                f"--grid-step={draw(option_values(st.integers(-100, 200)))}",
                # the tile cover grows with the square of the scale, so finite scales stay at most 8
                f"--scale={draw(option_values(st.floats(1e-3, 8.0)))}",
                f"--aspect-w={draw(option_values(st.floats(allow_nan=False, allow_infinity=False)))}",
                f"--aspect-h={draw(option_values(st.floats(allow_nan=False, allow_infinity=False)))}"]
    if command == "interp-pe":
        # 24x24 = M fits the default budget; 577 and 100000 exceed it on either axis
        side = st.sampled_from(("-1", "0", "1", "24", "577", "100000"))
        return ["interp-pe", pe, str(Path(pe).with_name("out.bin")), f"--rows={draw(side)}", f"--cols={draw(side)}"]
    size = option_values(st.integers(-3, 8))
    step = option_values(st.floats(-1.0, 1.0) | st.floats(1e-9, 1e-3))
    return ["grad-check", f"--queries={draw(size)}", f"--tokens={draw(size)}", f"--dim={draw(size)}",
            f"--eps={draw(step)}", f"--tolerance={draw(step)}"]


@pytest.fixture(scope="module")
def fuzz_scene(tmp_path_factory):
    return str(write_scene(tmp_path_factory.mktemp("fuzz")))


@pytest.fixture(scope="module")
def fuzz_pe(tmp_path_factory):
    path = tmp_path_factory.mktemp("fuzz_pe") / "pe.bin"
    path.write_bytes(binio.grid_to_bytes(PosEmbedGrid(values=np.random.default_rng(5).normal(size=(6, 5, 3)))))
    return str(path)


class TestFuzz:
    @settings(max_examples=150)
    @given(data=st.data())
    def test_every_outcome_is_success_one_line_error_or_usage_error(self, fuzz_scene, fuzz_pe, data):
        argv = data.draw(cli_argv(fuzz_scene, fuzz_pe))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = main(argv)
            except SystemExit as e:
                assert e.code == 2, argv
                return
        if code == 1 and argv[0] == "grad-check" and err.getvalue() == "":
            assert json.loads(out.getvalue())["pass"] is False  # a failed check is reported, not an error
        elif code == 1:
            assert out.getvalue() == "" and len(err.getvalue().splitlines()) == 1, (argv, err.getvalue())
        else:
            assert code == 0 and err.getvalue() == "", argv
