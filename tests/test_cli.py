import contextlib
import io
import json
import os
import struct
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import slicekit
from slicekit import binio, cost, probes
from slicekit.cli import main
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
         ({"vit": {"w": 300}}, "vit"), ({"seed": -5}, "seed"), ({"seed": -1}, "seed"),
         ({"max_N": MAX_SLICES + 1}, "max_N"), ({"max_N": 10**12}, "max_N")],
    )
    def test_wrong_value_type_rejected(self, capsys, tmp_path, raw, key):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(raw))
        code, out, err = run(capsys, "--config", str(cfg), "plan", "672x1008")
        assert code == 1
        assert out == ""
        assert f"config key {key} " in err and len(err.strip().splitlines()) == 1

    def test_max_n_past_max_slices_is_refused_before_planning(self, capsys, tmp_path):
        # a cap of 10^12 used to let plan 300000x300000 run for 25 s, cut into 797,194 slices
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"max_N": 10**12}))
        start = time.perf_counter()
        code, out, err = run(capsys, "--config", str(cfg), "plan", "300000x300000")
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"error: config key max_N must be an integer from 1 to {MAX_SLICES}, "
                                           f"got {10**12}\n")

    @pytest.mark.parametrize("argv", [("grad-check",), ("verify", "proofs"), ("plan", "672x1008")])
    def test_negative_seed_names_the_option(self, capsys, argv):
        assert run(capsys, "--seed", "-1", *argv) == (1, "", "error: --seed must be >= 0, got -1\n")

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
        assert "at least 107 slices" in err and "exceeds max_N=6" in err and len(err.strip().splitlines()) == 1


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
        assert out == "" and err == "error: --text-tokens must be >= 0, got -5000\n"

    def test_text_tokens_past_max_count_names_the_argument(self, capsys):
        # 400 nines overflow a float in the FLOP products
        nines = "9" * 400
        code, out, err = run(capsys, "cost", "--image", "672x1008", "--text-tokens", nines)
        assert (code, out, err) == (1, "", f"error: --text-tokens must be <= {cost.MAX_COUNT}, got {nines}\n")

    @pytest.mark.parametrize("section, key",
                             [("llm", "layers"), ("encoder", "hidden_dim"), ("projector", "mlp_hidden_dim")])
    def test_dims_value_past_max_count_names_the_file_and_key(self, capsys, tmp_path, section, key):
        dims = write_dims(tmp_path, section, key, 10**400)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"model_dims": str(dims)}))
        code, out, err = run(capsys, "--config", str(cfg), "cost", "--image", "672x1008")
        assert (code, out, err) == (1, "", f"error: {dims}: {section}.{key} must be <= {cost.MAX_COUNT}, "
                                           f"got {10**400}\n")

    @pytest.mark.parametrize("size", ["2000x2000", "25891x25891", "1000000x1000000", "100000000x100000000",
                                      "999999999999999999999999999999x400"])
    def test_plan_schema_and_slicing_cost_share_the_max_n_cap(self, capsys, size):
        errors = set()
        for argv in (("plan", size), ("schema", size), ("cost", "--image", size),
                     ("cost", "--image", size, "--strategy", "llava15", "--compare-with", "uhd-mlp")):
            start = time.perf_counter()
            code, out, err = run(capsys, *argv)
            assert time.perf_counter() - start < 2.0, argv
            assert code == 1 and out == "" and len(err.strip().splitlines()) == 1, argv
            errors.add(err)
        assert len(errors) == 1 and errors.pop().endswith("slices, which exceeds max_N=6\n")

    @pytest.mark.parametrize("strategy", ["llava15", "fixed2x2-mlp"])
    def test_strategies_that_do_not_slice_are_not_capped(self, capsys, strategy):
        code, out, _ = run(capsys, "cost", "--image", "2000x2000", "--strategy", strategy)
        assert code == 0 and json.loads(out)["strategy"] == strategy

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

    @pytest.mark.parametrize("option, value", [("--dim", "0"), ("--dim", "-3"), ("--dim", "-3000"), ("--queries", "0"),
                                               ("--queries", "-2")],
                             ids=["--dim-0", "--dim--3", "--dim--3000", "--queries-0", "--queries--2"])
    def test_size_below_one_is_a_one_line_error(self, capsys, option, value):
        code, out, err = run(capsys, "grad-check", option, value)
        assert code == 1 and out == "" and len(err.strip().splitlines()) == 1
        assert err == f"error: {option} must be >= 1, got {value}\n"

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_tokens_below_one_is_a_one_line_error_naming_the_option(self, capsys, monkeypatch, value):
        from slicekit import resampler

        def no_weights(*a):
            raise AssertionError("drew the resampler's weights")
        monkeypatch.setattr(resampler, "init_resampler", no_weights)
        code, out, err = run(capsys, "grad-check", "--tokens", value)
        assert (code, out, err) == (1, "", f"error: --tokens must be >= 1, got {value}\n")

    @pytest.mark.parametrize("option, value, message", [
        ("--tolerance", "nan", "must be finite, got nan"), ("--tolerance", "inf", "must be finite, got inf"),
        ("--tolerance", "0", "must be > 0, got 0.0"), ("--tolerance", "-1", "must be > 0, got -1.0"),
        ("--eps", "nan", "must be finite, got nan"), ("--eps", "-inf", "must be finite, got -inf"),
        ("--eps", "0", "must be > 0, got 0.0"), ("--eps", "1e-2", "must be <= 0.001, got 0.01"),
    ], ids=["nan", "inf", "0", "-1", "--eps-nan", "--eps--inf", "--eps-0", "--eps-1e-2"])
    def test_tolerance_not_finite_and_positive_is_a_one_line_error(self, capsys, monkeypatch, option, value, message):
        from slicekit import resampler

        def no_work(*a):
            raise AssertionError("drew the resampler's weights")
        monkeypatch.setattr(resampler, "init_resampler", no_work)
        code, out, err = run(capsys, "grad-check", f"{option}={value}")
        assert (code, out, err) == (1, "", f"error: {option} {message}\n")

    def test_width_96_passes_at_default_tolerance(self, capsys):
        code, out, _ = run(capsys, "grad-check", "--dim", "96")
        payload = json.loads(out)
        assert (code, payload["pass"]) == (0, True), payload
        assert payload["max_rel_err"] < 1e-4

    def test_dim_1024_refused_before_any_finite_difference(self, capsys, monkeypatch):
        from slicekit import resampler

        def no_differences(*a):
            raise AssertionError("ran the finite differences")
        monkeypatch.setattr(resampler, "_numeric_gradients", no_differences)
        code, out, err = run(capsys, "grad-check", "--dim", "1024")
        assert (code, out) == (1, "") and len(err.splitlines()) == 1
        assert err.startswith("error: grad_check at K=4, T=8, d=1024 needs about 1.6e+14 multiply-adds")

    def test_dim_6000_refused_before_any_weight_is_drawn(self, capsys, monkeypatch):
        from slicekit import resampler

        def no_weights(*a):
            raise AssertionError("drew the resampler's weights")
        monkeypatch.setattr(resampler, "init_resampler", no_weights)
        start = time.perf_counter()
        code, out, err = run(capsys, "grad-check", "--dim", "6000")
        assert time.perf_counter() - start < 1.0
        assert (code, out) == (1, "") and len(err.splitlines()) == 1
        assert err.startswith("error: grad_check at K=4, T=8, d=6000 needs about ")

    @pytest.mark.parametrize("message, expect", [
        ("Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64",
         "error: Unable to allocate 74.5 GiB for an array with shape (100000, 100000) and data type float64\n"),
        ("", "error: MemoryError\n"),
    ])
    def test_memory_error_is_a_one_line_error(self, capsys, monkeypatch, message, expect):
        from slicekit import resampler

        def no_memory(*a, **k):
            raise MemoryError(message)
        monkeypatch.setattr(resampler, "init_resampler", no_memory)
        assert run(capsys, "grad-check") == (1, "", expect)


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

    def test_output_equal_to_an_input_refused_before_writing(self, capsys, tmp_path):
        rng = np.random.default_rng(0)
        (tmp_path / "sub").mkdir()
        a, b = tmp_path / "a", tmp_path / "a.compressed"
        for path in (a, b, tmp_path / "sub" / "x"):
            path.write_bytes(binio.tokens_to_bytes(rng.normal(size=(10, 8))))
        before = {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()}
        for argv in ((str(a), str(b)),  # a's output is the input a.compressed
                     (str(tmp_path / "sub" / "x"), "--out-dir", str(tmp_path / "sub")),  # x's output is x
                     (str(a), "--out-dir", f"{tmp_path}/sub/..")):  # the same directory, spelled differently
            code, out, err = run(capsys, "compress", *argv)
            assert (code, out) == (1, "") and len(err.strip().splitlines()) == 1, argv
            assert err.endswith(" is also an input; compress would overwrite it\n")
        assert {path: path.read_bytes() for path in tmp_path.rglob("*") if path.is_file()} == before

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

    @pytest.mark.parametrize("defect, message", [
        ("header", "truncated grid file: missing header"),
        ("magic", "bad magic b'PEG0', expected b'PEG1'"),
        ("size", "grid file size 60 != expected 64"),
        ("non-finite", "position embeddings must be finite"),
    ])
    @pytest.mark.parametrize("command", ["compress", "interp-pe"])
    def test_bad_binary_input_names_the_file(self, capsys, tmp_path, command, defect, message):
        data = token_file(1, 2, 3, fill=np.nan if defect == "non-finite" else 1.0)
        data = {"header": data[:10], "magic": b"PEG0" + data[4:], "size": data[:-4]}.get(defect, data)
        src, out_path = tmp_path / "bad.bin", tmp_path / "o.bin"
        src.write_bytes(data)
        argv = ["compress", str(src)] if command == "compress" else ["interp-pe", str(src), str(out_path),
                                                                      "--rows", "3", "--cols", "3"]
        assert run(capsys, *argv) == (1, "", f"error: {src}: {message}\n")
        assert sorted(p.name for p in tmp_path.iterdir()) == ["bad.bin"]


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

    @pytest.mark.parametrize("canvas, obj, message", [
        ('{"w": 600.5, "h": 90}', '"center": [30, 40], "size": 10', "width_px must be an integer, got 600.5"),
        ('{"w": true, "h": 400}', '"center": [30, 40], "size": 10', "width_px must be an integer, got True"),
        ('{"w": 600, "h": "90"}', '"center": [30, 40], "size": 10', "height_px must be an integer, got '90'"),
        ('{"w": 600, "h": 400}', '"center": [30, 40], "size": 1e400', "object size must be finite, got inf"),
        ('{"w": 600, "h": 400}', '"center": [30, 40], "size": NaN', "object size must be finite, got nan"),
        ('{"w": 600, "h": 400}', '"center": [30, 40, 5], "size": 10', "object center must be two finite numbers, "
                                                                       "got (30, 40, 5)"),
        ('{"w": 600, "h": 400}', '"center": [1e400, 40], "size": 10', "object center must be finite, got inf"),
        ('{"w": 600, "h": 400}', '"center": [30, 40], "size": true', "object size must be a real number, got True"),
        ('{"w": 600, "h": 400}', '"center": [true, false], "size": 10',
         "object center must be a real number, got True"),
    ])
    @pytest.mark.parametrize("kind, ppm_option", [("heatmap", False), ("phases", True)])
    def test_scene_values_checked_on_load(self, capsys, tmp_path, canvas, obj, message, kind, ppm_option):
        path = tmp_path / "scene.json"
        path.write_text(f'{{"canvas": {canvas}, "objects": [{{"shape": "circle", "color": "red", {obj}}}]}}')
        ppm = tmp_path / "o.ppm"
        code, out, err = run(capsys, "probe", kind, "--scene", str(path), *(["--ppm", str(ppm)] if ppm_option else []))
        assert (code, out, err) == (1, "", f"error: {message}\n")
        assert not ppm.exists()

    @pytest.mark.parametrize("kind", ["heatmap", "phases"])
    def test_canvas_side_beyond_float_range_names_file_and_field(self, capsys, tmp_path, kind):
        path = tmp_path / "scene.json"
        path.write_text(f'{{"canvas": {{"w": {10**400}, "h": 500}}, "objects": '
                        '[{"shape": "circle", "color": "red", "center": [300, 300], "size": 40}]}')
        code, out, err = run(capsys, "probe", kind, "--scene", str(path))
        assert (code, out) == (1, "")
        assert err == f"error: {path}: canvas side beyond float range (over {sys.float_info.max:.6g})\n"

    @pytest.mark.parametrize("scale, phase", [("1.0", 2), ("0.4", 1)])
    def test_phases_on_a_scene_without_objects(self, capsys, tmp_path, scale, phase):
        path = write_scene(tmp_path, {"canvas": {"w": 1100, "h": 800}, "objects": []})
        code, out, err = run(capsys, "probe", "phases", "--scene", str(path), "--scale", scale)
        assert (code, err) == (0, "")
        assert json.loads(out) == {"phase": phase, "predicted_answers": [0], "scale": float(scale)}

    @pytest.mark.parametrize("scale, message", [("inf", "must be finite"), ("nan", "must be finite"),
                                                ("0", "must be > 0"), ("-1", "must be > 0")],
                             ids=["inf", "nan", "0", "-1"])
    def test_phases_rejects_scale_not_finite_and_positive(self, capsys, tmp_path, monkeypatch, scale, message):
        def no_work(*a):
            raise AssertionError("read the scene")
        monkeypatch.setattr(slicekit.cli, "_load_scene", no_work)
        code, out, err = run(capsys, "probe", "phases", "--scene", str(write_scene(tmp_path)), "--scale", scale)
        assert code == 1 and out == ""
        assert err == f"error: --scale {message}, got {float(scale)}\n"

    @pytest.mark.parametrize("option, value, message", [
        ("--aspect-w", "0", "must be > 0, got 0.0"), ("--aspect-w", "nan", "must be finite, got nan"),
        ("--aspect-h", "-1", "must be > 0, got -1.0"), ("--aspect-h", "inf", "must be finite, got inf")])
    def test_padding_rejects_aspect_not_finite_and_positive(self, capsys, tmp_path, monkeypatch, option, value,
                                                            message):
        def no_work(*a):
            raise AssertionError("ran the padding probe")
        monkeypatch.setattr(probes, "padding_waste", no_work)
        ppm = tmp_path / "o.ppm"
        code, out, err = run(capsys, "probe", "padding", option, value, "--ppm", str(ppm))
        assert (code, out, err) == (1, "", f"error: {option} {message}\n")
        assert not ppm.exists()

    def test_phases_at_scale_1e5(self, capsys, tmp_path):
        code, out, err = run(capsys, "probe", "phases", "--scene", str(write_scene(tmp_path)), "--scale", "1e5")
        assert (code, err) == (0, "")
        assert json.loads(out)["predicted_answers"] == [2, 6263039]

    @pytest.mark.parametrize("step", ["0", "-5"])
    def test_heatmap_rejects_grid_step_below_one(self, capsys, tmp_path, step):
        code, out, err = run(capsys, "probe", "heatmap", "--scene", str(write_scene(tmp_path)), "--grid-step", step)
        assert code == 1 and out == ""
        assert err == f"error: --grid-step must be >= 1, got {step}\n"

    @pytest.mark.parametrize("kind", ["phases", "heatmap"])
    def test_canvas_side_beyond_float_range_is_a_one_line_error(self, capsys, tmp_path, kind):
        path = write_scene(tmp_path, {**SMALL_SCENE, "canvas": {"w": 10**400, "h": 80}})
        ppm = tmp_path / "o.ppm"
        code, out, err = run(capsys, "probe", kind, "--scene", str(path), "--ppm", str(ppm))
        assert (code, out) == (1, "") and len(err.splitlines()) == 1 and err.startswith("error: ")
        assert not ppm.exists()

    @pytest.mark.parametrize("kind, canvas, options, message", [
        ("heatmap", 100_000, ["--grid-step", "1"], "{path}: heatmap of 99930 x 99960 placements on the "
         f"100000 x 100000 canvas is more than the limit of {probes.MAX_CELLS}"),
        ("phases", 10_000, [], f"scene of 10000 x 10000 pixels is more than the limit of {probes.MAX_CELLS} pixels"),
    ])
    def test_over_the_cell_limit_refused_before_writing(self, capsys, tmp_path, kind, canvas, options, message):
        path = write_scene(tmp_path, {**SMALL_SCENE, "canvas": {"w": canvas, "h": canvas}})
        ppm = tmp_path / "o.ppm"
        start = time.perf_counter()
        code, out, err = run(capsys, "probe", kind, "--scene", str(path), *options, "--ppm", str(ppm))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (1, "", f"error: {message.format(path=path)}\n")
        assert not ppm.exists()

    @pytest.mark.parametrize("kind, exponent", [("heatmap", 30), ("heatmap", 308), ("phases", 19), ("phases", 308)])
    def test_canvas_side_past_the_cell_limit_names_file_and_canvas(self, capsys, tmp_path, kind, exponent):
        """Sides past 2^63 grid steps (heatmap) or 10^16 tiles (phases) are counted, not enumerated."""
        side = 10**exponent
        path = write_scene(tmp_path, {**SMALL_SCENE, "canvas": {"w": side, "h": 80}})
        start = time.perf_counter()
        code, out, err = run(capsys, "probe", kind, "--scene", str(path), "--grid-step", "1")
        assert time.perf_counter() - start < 1.0
        limit = probes.MAX_CELLS
        if kind == "heatmap":
            message = (f"heatmap of {side - 70} x 40 placements on the {side} x 80 canvas is more than the limit "
                       f"of {limit}")
        else:  # --scale 1.0 scales exactly, so the refusal names the file's own side, not the nearest float's
            message = (f"canvas {side} x 80 needs {-(-side // 512)} x 1 tiles of 512 px, more than the limit of "
                       f"{limit} tile starts")
        assert (code, out, err) == (1, "", f"error: {path}: {message}\n")

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

    @pytest.mark.parametrize("argv, message", [
        (["--samples", "inf"], "--samples must be finite, got inf"),
        (["--samples", "1e400"], "--samples must be finite, got inf"),
        (["--samples", "nan"], "--samples must be finite, got nan"),
        (["--samples", "0"], "--samples must be >= 1, got 0.0"),
        (["--samples", "-1"], "--samples must be >= 1, got -1.0"),
        (["--samples", "20000.7"], "--samples must be a whole number, got 20000.7"),
        (["--samples", "2e4", "--grid-density", "10"], "--grid-density must be >= 1000, got 10"),
        (["--samples", "2e4", "--grid-density", "99999999999"], "--grid-density must be <= 100000, got 99999999999"),
        (["--samples", "1e18"], "--samples must be <= 1000000000, got 1000000000000000000"),
        (["--samples", "1000000001"], "--samples must be <= 1000000000, got 1000000001"),
        (["--samples=-inf"], "--samples must be finite, got -inf"),
    ])
    def test_bad_values_rejected_before_any_work(self, capsys, monkeypatch, argv, message):
        from slicekit import verify

        def no_work(*a, **k):
            raise AssertionError("ran the proof checks")
        monkeypatch.setattr(verify, "run_proof_checks", no_work)
        code, out, err = run(capsys, "verify", "proofs", *argv)
        assert (code, out, err) == (1, "", f"error: {message}\n")


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

    @pytest.mark.parametrize("rows, cols, option, value", [("0", "3", "--rows", "0"), ("3", "0", "--cols", "0"),
                                                           ("-1", "0", "--cols", "0"), ("-4", "3", "--rows", "-4")])
    def test_rows_or_cols_below_one_names_the_option(self, capsys, tmp_path, rows, cols, option, value):
        code, out, err = run(capsys, "interp-pe", str(tmp_path / "missing.bin"), str(tmp_path / "o.bin"),
                             "--rows", rows, "--cols", cols)
        assert (code, out, err) == (1, "", f"error: {option} must be >= 1, got {value}\n")

    @pytest.mark.parametrize("rows, cols", [(100000, 100000), (577, 1), (1, 577), (25, 24)])
    def test_target_over_token_budget_rejected_before_reading(self, capsys, tmp_path, rows, cols):
        missing = tmp_path / "missing.bin"
        code, out, err = run(capsys, "interp-pe", str(missing), str(tmp_path / "o.bin"),
                             "--rows", str(rows), "--cols", str(cols))
        assert code == 1 and out == ""
        assert err == f"error: --rows x --cols = {rows * cols} exceeds the encoder's token budget M=576\n"
        assert not (tmp_path / "o.bin").exists()

    @pytest.mark.parametrize("rows, cols, dim", [(0, 4, 3), (4, 0, 3), (4, 4, 0)])
    def test_grid_file_with_an_empty_axis_rejected(self, capsys, tmp_path, rows, cols, dim):
        src = tmp_path / "pe.bin"
        src.write_bytes(token_file(rows, cols, dim))
        code, out, err = run(capsys, "interp-pe", str(src), str(tmp_path / "o.bin"), "--rows", "3", "--cols", "3")
        assert (code, out) == (1, "")
        empty = f"position embeddings must have shape (rows, cols, dim) with no empty axis, got {(rows, cols, dim)}"
        assert err == f"error: {src}: {empty}\n"
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


NOT_FINITE = ("NaN", "Infinity", "-Infinity", "1e400")
SCENE_DEFECTS = {
    "side": ("600.5", "600.0", "true", "false", '"600"', "0", "-1", "null", *NOT_FINITE, str(10**400)),
    "shape": ('"hexagon"', "3", '["circle"]', "null"),
    "color": ('"pink"', "null", '["red"]'),
    "center": ("[]", "[5]", "[5, 5, 5]", "[-5, 5]", "[5, 3000]", '["5", 5]', "[true, 5]", "5", "null",
               *(f"[{v}, 5]" for v in NOT_FINITE)),
    "size": ("0", "-1", '"8"', "null", "true", *NOT_FINITE),
}


@st.composite
def scene_text(draw) -> str:
    """A valid scene file of 0-3 objects with at most one field replaced by a bad value.

    Canvas sides stay at most 2000 px, because --ppm allocates 3*W*H bytes.
    """
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


@st.composite
def cli_argv(draw, scene: str, pe: str) -> list[str]:
    command = draw(st.sampled_from(("plan", "schema", "cost", "probe", "grad-check", "interp-pe", "verify")))
    if command in ("plan", "schema", "cost"):
        side = st.integers(-20, 20_000) | st.integers(-20, 10**8)
        size = f"{draw(side)}x{draw(side)}"
        if command != "cost":
            return [command, "--", size]
        argv = ["cost", f"--image={size}", "--strategy", draw(st.sampled_from(cost.STRATEGIES))]
        if draw(st.booleans()):
            argv += ["--compare-with", draw(st.sampled_from(cost.STRATEGIES))]
        return argv + [f"--text-tokens={draw(option_values(st.integers(-10**6, 10**9)))}"]
    if command == "probe":
        kind = draw(st.sampled_from(("heatmap", "phases", "padding")))
        if kind == "heatmap":
            options = [f"--grid-step={draw(option_values(st.integers(-100, 200)))}"]
        elif kind == "phases":
            options = [f"--scale={draw(option_values(st.floats(1e-3, 1e5)))}"]
        else:
            aspect = option_values(st.floats(allow_nan=False, allow_infinity=False))
            options = [f"--aspect-w={draw(aspect)}", f"--aspect-h={draw(aspect)}"]
        ppm = ["--ppm", str(Path(scene).with_name("out.ppm"))] if draw(st.booleans()) else []
        return ["probe", kind, "--scene", scene, *options, *ppm]
    if command == "interp-pe":
        # 24x24 = M fits the default budget; 577 and 100000 exceed it on either axis
        side = st.sampled_from(("-1", "0", "1", "24", "577", "100000"))
        return ["interp-pe", pe, str(Path(pe).with_name("out.bin")), f"--rows={draw(side)}", f"--cols={draw(side)}"]
    if command == "verify":
        samples = st.sampled_from(("-1", "0", "1", "20000", "inf", "nan", "1e400", "1e18"))
        density = st.sampled_from(("-5", "999", "1000", "3000", "100001"))
        return ["verify", "proofs", f"--samples={draw(samples)}", f"--grid-density={draw(density)}"]
    size = option_values(st.integers(-3, 8))
    step = option_values(st.floats(-1.0, 1.0) | st.floats(1e-9, 1e-3))
    return ["grad-check", f"--queries={draw(size)}", f"--tokens={draw(size)}", f"--dim={draw(size)}",
            f"--eps={draw(step)}", f"--tolerance={draw(step)}"]


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


def token_file(rows, count, dim, fill=1.0):
    """A PEG1 file of the given shape, written without binio's checks so that it may hold non-finite values."""
    return binio.MAGIC + struct.pack("<III", rows, count, dim) + np.full(rows * count * dim, fill, "<f8").tobytes()


TOKEN_FILES = {
    "empty": b"",
    "truncated-header": token_file(1, 2, 3)[:10],
    "width-0": token_file(1, 2, 0),
    "width-1": token_file(1, 3, 1),
    "zero-tokens": token_file(1, 0, 3),
    "two-rows": token_file(2, 2, 3),
    "non-finite": token_file(1, 2, 3, fill=np.nan),
    "width-3": token_file(1, 4, 3, fill=0.5),
    "width-2": token_file(1, 5, 2, fill=-0.25),
}


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
