import json
import math
import re
from importlib import resources

import pytest
from hypothesis import given
from hypothesis import strategies as st

from slicekit.cost import (
    _DIMS_KEYS,
    MAX_COUNT,
    STRATEGIES,
    CostReport,
    ModelDims,
    StackDims,
    compare_strategies,
    estimate_flops,
    load_model_dims,
    mlp_projector_flops,
    resampler_flops,
    transformer_stack_flops,
)
from slicekit.partition import ImageSize, VitSpec, select_partition

IMAGE = ImageSize(672, 1008)


@pytest.fixture(scope="module")
def dims():
    return load_model_dims()


class TestStackFlops:
    def test_formula_oracle(self):
        # independent recompute: 8td^2 + 4t^2d + 4tdf per layer
        dims = StackDims(layers=3, hidden_dim=10, ffn_dim=40)
        t = 7
        per_layer = 8 * t * 100 + 4 * 49 * 10 + 4 * t * 10 * 40
        assert transformer_stack_flops(dims, t) == 3 * per_layer

    def test_zero_tokens_zero_cost(self):
        assert transformer_stack_flops(StackDims(2, 8, 32), 0) == 0.0

    def test_projector_formulas(self, dims):
        d, k = dims.encoder.hidden_dim, dims.resampler_queries
        t = 576
        assert resampler_flops(dims, t) == 4 * t * d * d + 2 * k * d * d + 4 * k * t * d
        h, out = dims.mlp_hidden_dim, dims.llm.hidden_dim
        assert mlp_projector_flops(dims, t) == t * (2 * d * h + 2 * h * out)


class TestDefaults:
    def test_packaged_architecture_constants(self, dims):
        assert dims.encoder == StackDims(24, 1024, 4096)
        assert dims.resampler_queries == 64
        assert dims.mlp_hidden_dim == 5120
        assert dims.llm == StackDims(40, 5120, 13824)

    def test_load_from_explicit_file(self, dims, tmp_path):
        raw = {
            "encoder": {"layers": 24, "hidden_dim": 1024, "ffn_dim": 4096, "patch_px": 14},
            "projector": {"resampler_queries": 64, "mlp_hidden_dim": 5120},
            "llm": {"layers": 40, "hidden_dim": 5120, "ffn_dim": 13824},
        }
        p = tmp_path / "dims.json"
        p.write_text(json.dumps(raw))
        assert load_model_dims(str(p)) == dims

    @pytest.mark.parametrize("raw, named", [({"encoder": {"layers": 1}}, "'projector'"), ([1, 2], "JSON object")])
    def test_missing_key_or_non_object_named(self, tmp_path, raw, named):
        p = tmp_path / "dims.json"
        p.write_text(json.dumps(raw))
        with pytest.raises(ValueError) as exc:
            load_model_dims(str(p))
        assert str(p) in str(exc.value) and named in str(exc.value)

    @pytest.mark.parametrize(
        "section, key, value",
        [("projector", "resampler_queries", "8"), ("projector", "resampler_queries", 0),
         ("projector", "resampler_queries", -3), ("projector", "resampler_queries", True),
         ("encoder", "ffn_dim", 1.5), ("encoder", "layers", -1), ("llm", "layers", None)],
    )
    def test_bad_value_named(self, tmp_path, section, key, value):
        raw = json.loads(resources.files("slicekit.data").joinpath("model_dims.json").read_text())
        raw[section][key] = value
        p = tmp_path / "dims.json"
        p.write_text(json.dumps(raw))
        least = 1 if key == "resampler_queries" else 0
        with pytest.raises(ValueError) as exc:
            load_model_dims(str(p))
        assert str(exc.value) == f"{p}: {section}.{key} must be an integer >= {least}, got {json.dumps(value)}"

    @pytest.mark.parametrize("section, key", [(s, k) for s, keys in _DIMS_KEYS.items() for k in keys])
    def test_value_past_max_count_named(self, tmp_path, section, key):
        # 10**400 overflows a float in the FLOP products
        raw = json.loads(resources.files("slicekit.data").joinpath("model_dims.json").read_text())
        p = tmp_path / "dims.json"
        raw[section][key] = MAX_COUNT
        p.write_text(json.dumps(raw))
        assert load_model_dims(str(p))
        for value in (MAX_COUNT + 1, 10**400):
            raw[section][key] = value
            p.write_text(json.dumps(raw))
            with pytest.raises(ValueError) as exc:
                load_model_dims(str(p))
            assert str(exc.value) == f"{p}: {section}.{key} must be <= {MAX_COUNT}, got {value}"

    def test_zero_sized_stacks_accepted(self, tmp_path):
        raw = {"encoder": {"layers": 0, "hidden_dim": 0, "ffn_dim": 0},
               "projector": {"resampler_queries": 1, "mlp_hidden_dim": 0},
               "llm": {"layers": 0, "hidden_dim": 0, "ffn_dim": 0}}
        p = tmp_path / "dims.json"
        p.write_text(json.dumps(raw))
        assert load_model_dims(str(p)) == ModelDims(StackDims(0, 0, 0), 1, 0, StackDims(0, 0, 0))

    def test_json_syntax_error_names_file(self, tmp_path):
        p = tmp_path / "dims.json"
        p.write_text('{"encoder": {"layers": 24,')
        with pytest.raises(ValueError) as exc:
            load_model_dims(str(p))
        assert str(exc.value).startswith(f"{p}: not valid JSON (")

    def test_empty_path_is_not_the_packaged_file(self):
        with pytest.raises(FileNotFoundError):
            load_model_dims("")


class TestEstimates:
    def test_visual_token_counts_per_strategy(self, dims):
        assert estimate_flops(dims, IMAGE, "uhd").visual_tokens_to_llm == 64 * 7
        assert estimate_flops(dims, IMAGE, "llava15").visual_tokens_to_llm == 576
        assert estimate_flops(dims, IMAGE, "fixed2x2-mlp").visual_tokens_to_llm == 5 * 576

    def test_total_is_sum_of_parts(self, dims):
        r = estimate_flops(dims, IMAGE, "uhd", text_tokens=50)
        assert r.total_flops == r.encoder_flops + r.projector_flops + r.llm_prefill_flops
        assert r.total_flops > 0

    def test_negative_text_tokens_rejected(self, dims):
        with pytest.raises(ValueError, match="text_tokens must be >= 0"):
            estimate_flops(dims, IMAGE, "uhd", text_tokens=-5000)

    @pytest.mark.parametrize("text_tokens", [MAX_COUNT + 1, 10**400])
    def test_text_tokens_past_max_count_rejected(self, dims, text_tokens):
        with pytest.raises(ValueError, match=f"^text_tokens must be <= {MAX_COUNT}, got {text_tokens}$"):
            estimate_flops(dims, IMAGE, "uhd", text_tokens=text_tokens)

    @pytest.mark.parametrize("strategy", STRATEGIES)
    def test_every_count_at_max_count_stays_finite(self, strategy):
        top = StackDims(MAX_COUNT, MAX_COUNT, MAX_COUNT)
        report = estimate_flops(ModelDims(top, MAX_COUNT, MAX_COUNT, top), IMAGE, strategy, MAX_COUNT)
        assert math.isfinite(report.total_flops), report

    def test_unknown_strategy(self, dims):
        with pytest.raises(ValueError):
            estimate_flops(dims, IMAGE, "bogus")

    def test_strategy_list_stable(self):
        assert STRATEGIES == ("uhd", "llava15", "uhd-mlp", "fixed2x2-mlp")

    @given(st.integers(14, 4000), st.integers(14, 4000), st.sampled_from(STRATEGIES), st.integers(0, 1000),
           st.sampled_from((None, 6)))
    def test_estimate_equals_the_formula(self, dims, w, h, strategy, text_tokens, max_slices):
        """Encoder passes: the plan's patch grids (uhd, uhd-mlp), one 576-token square (llava15) or five
        (fixed2x2-mlp); the resampler projects each pass to K tokens under uhd, the MLP keeps every token."""
        image = ImageSize(w, h)
        try:
            if strategy in ("uhd", "uhd-mlp"):
                passes = [g.tokens for g in select_partition(image, VitSpec(), max_slices).patch_grids]
            else:
                passes = [576] if strategy == "llava15" else [576] * 5
        except ValueError as e:
            with pytest.raises(ValueError, match=f"^{re.escape(str(e))}$"):
                estimate_flops(dims, image, strategy, text_tokens, None, max_slices)
            return
        encoder = sum(transformer_stack_flops(dims.encoder, t) for t in passes)
        if strategy == "uhd":
            projector, visual = sum(resampler_flops(dims, t) for t in passes), 64 * len(passes)
        else:
            projector, visual = mlp_projector_flops(dims, sum(passes)), sum(passes)
        expected = CostReport(strategy, encoder, projector, transformer_stack_flops(dims.llm, visual + text_tokens),
                              visual)
        assert estimate_flops(dims, image, strategy, text_tokens, None, max_slices) == expected


class TestRatios:
    def test_adaptive_vs_fixed_square(self, dims):
        ratio, _, _ = compare_strategies(dims, "uhd", "llava15", IMAGE)
        assert ratio == pytest.approx(0.9682, abs=5e-3)

    def test_resampler_vs_mlp_projection(self, dims):
        ratio, _, _ = compare_strategies(dims, "uhd", "uhd-mlp", IMAGE)
        assert ratio == pytest.approx(0.1227, abs=5e-3)

    def test_fixed_grid_overhead(self, dims):
        ratio, _, _ = compare_strategies(dims, "fixed2x2-mlp", "uhd", IMAGE)
        assert ratio == pytest.approx(5.63, abs=0.1)

    def test_ratio_matches_reports(self, dims):
        ratio, a, b = compare_strategies(dims, "uhd", "llava15", IMAGE, text_tokens=10)
        assert ratio == a.total_flops / b.total_flops
