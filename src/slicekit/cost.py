"""Inference FLOP estimates for encoder, projector and LLM prefill.

Standard dense-transformer accounting: per layer and t tokens,
8*t*d^2 (QKV + output projections) + 4*t^2*d (QK^T and attn*V) +
4*t*d*d_ffn (two FFN matmuls), multiply-adds counted as 2 ops.  Softmax and
norms are ignored.  Absolute numbers depend on the accounting convention;
comparisons between strategies are expressed as ratios.
"""

from __future__ import annotations

import json
import sys
from dataclasses import asdict, dataclass
from importlib import resources

from .counts import require_count, require_holder
from .jsonfile import load_json_file
from .partition import ImageSize, VitSpec, select_partition

# strategy -> (encoder passes at the pretraining size, or None for the plan's slices plus overview;
#              whether the resampler, not the MLP, projects the passes' tokens)
_STRATEGIES = {
    "uhd": (None, True),
    "llava15": (1, False),  # one square-resized pass
    "uhd-mlp": (None, False),
    "fixed2x2-mlp": (5, False),  # four fixed slices + overview
}
STRATEGIES = tuple(_STRATEGIES)
MAX_COUNT = 2**53  # greatest text token count or model dim: it converts to a float exactly, and every product is finite
MAX_TOKENS = sys.float_info.max  # greatest token count a FLOP estimate takes: it computes in floats


@dataclass(frozen=True)
class StackDims:
    layers: int
    hidden_dim: int
    ffn_dim: int

    def __post_init__(self):
        for f in self.__dataclass_fields__:  # a field that is no integer is refused by its name, a negative one as here
            if require_count(f, getattr(self, f), float("-inf"), MAX_COUNT) < 0:
                raise ValueError("stack dims must be non-negative")


@dataclass(frozen=True)
class ModelDims:
    encoder: StackDims
    resampler_queries: int  # K: tokens each encoder block is compressed to
    mlp_hidden_dim: int
    llm: StackDims


@dataclass(frozen=True)
class CostReport:
    strategy: str
    encoder_flops: float
    projector_flops: float
    llm_prefill_flops: float
    visual_tokens_to_llm: int

    @property
    def total_flops(self) -> float:
        return self.encoder_flops + self.projector_flops + self.llm_prefill_flops

    def to_json_dict(self) -> dict:
        return {**asdict(self), "total_flops": self.total_flops, "total_tflops": self.total_flops / 1e12}


# section -> keys of the model dims file; every value is a JSON integer from 0 (K from 1) to MAX_COUNT (bool is not one)
_DIMS_KEYS = {
    "encoder": ("layers", "hidden_dim", "ffn_dim"),
    "projector": ("resampler_queries", "mlp_hidden_dim"),
    "llm": ("layers", "hidden_dim", "ffn_dim"),
}


def load_model_dims(path: str | None = None) -> ModelDims:
    """Read architecture constants from JSON (packaged defaults if no path); a ValueError names a bad file and key."""
    if path is None:
        raw = json.loads(resources.files("slicekit.data").joinpath("model_dims.json").read_text())
    else:
        raw = load_json_file(path)
    name = "packaged model_dims.json" if path is None else path
    if not isinstance(raw, dict):
        raise ValueError(f"{name}: model dims must be a JSON object")
    for section in _DIMS_KEYS:
        if section not in raw:
            raise ValueError(f"{name}: missing key {section!r}")
        if not isinstance(raw[section], dict):
            raise ValueError(f"{name}: {section} must be a JSON object, got {json.dumps(raw[section])}")
    for section, keys in _DIMS_KEYS.items():
        for key in keys:
            if key not in raw[section]:
                raise ValueError(f"{name}: missing key '{section}.{key}'")
            value, least = raw[section][key], 1 if key == "resampler_queries" else 0
            if isinstance(value, bool) or not isinstance(value, int) or value < least:
                raise ValueError(f"{name}: {section}.{key} must be an integer >= {least}, got {json.dumps(value)}")
            if value > MAX_COUNT:
                raise ValueError(f"{name}: {section}.{key} must be <= {MAX_COUNT}, got {json.dumps(value)}")
    enc, proj, llm = raw["encoder"], raw["projector"], raw["llm"]
    return ModelDims(
        encoder=StackDims(enc["layers"], enc["hidden_dim"], enc["ffn_dim"]),
        resampler_queries=proj["resampler_queries"],
        mlp_hidden_dim=proj["mlp_hidden_dim"],
        llm=StackDims(llm["layers"], llm["hidden_dim"], llm["ffn_dim"]),
    )


def transformer_stack_flops(dims: StackDims, tokens: int) -> float:
    d, f = require_holder("dims", dims, StackDims).hidden_dim, dims.ffn_dim
    tokens = require_count("tokens", tokens, 0, MAX_TOKENS)
    per_layer = 8.0 * tokens * d * d + 4.0 * tokens * tokens * d + 4.0 * tokens * d * f
    return dims.layers * per_layer


def resampler_flops(dims: ModelDims, input_tokens: int) -> float:
    """The paper's accounting of one block, not what compress_slices runs; `bench/run.py --trace 1` prints the gap."""
    d, k = require_holder("dims", dims, ModelDims).encoder.hidden_dim, dims.resampler_queries
    t = require_count("input_tokens", input_tokens, 0, MAX_TOKENS)
    # key/value projections on t tokens, query projection on K queries,
    # then the two K x t attention matmuls
    return 4.0 * t * d * d + 2.0 * k * d * d + 4.0 * k * t * d


def mlp_projector_flops(dims: ModelDims, input_tokens: int) -> float:
    d_in, h = require_holder("dims", dims, ModelDims).encoder.hidden_dim, dims.mlp_hidden_dim
    return require_count("input_tokens", input_tokens, 0, MAX_TOKENS) * (2.0 * d_in * h + 2.0 * h * dims.llm.hidden_dim)


def estimate_flops(
    dims: ModelDims,
    image: ImageSize,
    strategy: str = "uhd",
    text_tokens: int = 0,
    vit: VitSpec | None = None,
    max_slices: int | None = None,
) -> CostReport:
    """Cost report for one encoding strategy on one image; only a sliced plan is capped at max_slices."""
    if strategy not in STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}, expected one of {STRATEGIES}")
    vit = VitSpec() if vit is None else require_holder("vit", vit, VitSpec)
    dims, text_tokens = require_holder("dims", dims, ModelDims), require_count("text_tokens", text_tokens, 0, MAX_COUNT)
    squares, resampled = _STRATEGIES[strategy]
    passes = ([g.tokens for g in select_partition(image, vit, max_slices).patch_grids] if squares is None
              else [vit.token_budget] * squares)
    encoder = sum(transformer_stack_flops(dims.encoder, t) for t in passes)
    if resampled:
        projector = sum(resampler_flops(dims, t) for t in passes)
        visual_tokens = dims.resampler_queries * len(passes)
    else:
        visual_tokens = sum(passes)
        projector = mlp_projector_flops(dims, visual_tokens)

    llm = transformer_stack_flops(dims.llm, visual_tokens + text_tokens)
    return CostReport(strategy, encoder, projector, llm, visual_tokens)


def compare_strategies(
    dims: ModelDims,
    strategy_a: str,
    strategy_b: str,
    image: ImageSize,
    text_tokens: int = 0,
    vit: VitSpec | None = None,
    max_slices: int | None = None,
) -> tuple[float, CostReport, CostReport]:
    """Total-cost ratio a/b plus both reports."""
    a = estimate_flops(dims, image, strategy_a, text_tokens, vit, max_slices)
    b = estimate_flops(dims, image, strategy_b, text_tokens, vit, max_slices)
    return a.total_flops / b.total_flops, a, b
