import json

import numpy as np
import pytest

from slicekit import binio, probes
from slicekit.cli import main
from slicekit.patches import PosEmbedGrid


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


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
