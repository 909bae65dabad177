"""Every integer count the library accepts goes through counts.require_count: one rule, one refusal shape."""

import math
import re
import time
from pathlib import Path

import numpy as np
import pytest

import slicekit
from slicekit.cost import estimate_flops, load_model_dims
from slicekit.counts import require_count
from slicekit.partition import ImageSize, PatchGrid, SliceGrid, VitSpec, candidate_grids, select_partition
from slicekit.patches import reshape_pos_embed_1d_to_2d
from slicekit.probes import SceneObject, heatmap_probe
from slicekit.resampler import init_resampler
from slicekit.schema import serialize_layout, token_count
from slicekit.verify import (DistributionSpec, enumerate_ratio_bound, monte_carlo_statistics, run_proof_checks,
                             sweep_slice_bounds)

VIT = VitSpec()
PLAN = select_partition(ImageSize(672, 1008), VIT)
TEMPLATE = (SceneObject("circle", "red", (20.0, 20.0), 24.0),)

# (function, parameter, a call of the function with that argument set to the value and every other one small)
ROUTED = [
    ("ImageSize", "width_px", lambda v: ImageSize(v, 400)),
    ("ImageSize", "height_px", lambda v: ImageSize(400, v)),
    ("SliceGrid", "cols_m", lambda v: SliceGrid(v, 1)),
    ("SliceGrid", "rows_n", lambda v: SliceGrid(1, v)),
    ("PatchGrid", "cols", lambda v: PatchGrid(v, 1)),
    ("PatchGrid", "rows", lambda v: PatchGrid(1, v)),
    ("candidate_grids", "n", candidate_grids),
    ("reshape_pos_embed_1d_to_2d", "q", lambda v: reshape_pos_embed_1d_to_2d(np.zeros((4, 2)), v)),
    ("select_partition", "max_slices", lambda v: select_partition(ImageSize(336, 336), VIT, v)),
    ("serialize_layout", "tokens_per_block", lambda v: serialize_layout(PLAN, v)),
    ("token_count", "tokens_per_block", lambda v: token_count(PLAN, v)),
    ("estimate_flops", "text_tokens", lambda v: estimate_flops(load_model_dims(), ImageSize(672, 1008), text_tokens=v)),
    ("heatmap_probe", "grid_step_px", lambda v: heatmap_probe(ImageSize(768, 768), TEMPLATE, v)),
    ("init_resampler", "count_k", lambda v: init_resampler(v, 4, 0)),
    ("init_resampler", "dim", lambda v: init_resampler(4, v, 0)),
    ("init_resampler", "seed", lambda v: init_resampler(4, 4, v)),
    ("enumerate_ratio_bound", "n_max", enumerate_ratio_bound),
    ("sweep_slice_bounds", "grid_density", sweep_slice_bounds),
    ("monte_carlo_statistics", "samples", lambda v: monte_carlo_statistics((DistributionSpec(),), v, 1)),
    ("monte_carlo_statistics", "seed", lambda v: monte_carlo_statistics((DistributionSpec(),), 1000, v)),
    ("run_proof_checks", "samples", lambda v: run_proof_checks(v, 1, 1000)),
    ("run_proof_checks", "seed", lambda v: run_proof_checks(1000, v, 1000)),
    ("run_proof_checks", "grid_density", lambda v: run_proof_checks(1000, 1, v)),
]
IDS = [f"{function}:{name}" for function, name, _ in ROUTED]
HUGE = 10**400
# an in-range value of count_k, dim or tokens_per_block sizes an allocation
NO_HUGE = {"count_k", "dim", "tokens_per_block"}


def outcome(call, value):
    """The call's ValueError text, or None if it returned; within 1 s either way."""
    start = time.perf_counter()
    try:
        call(value)
        message = None
    except ValueError as e:
        message = str(e)
    assert time.perf_counter() - start < 1.0, value
    return message


@pytest.mark.parametrize("function, name, call", ROUTED, ids=IDS)
@pytest.mark.parametrize("value", [True, np.True_, 1.5, math.nan, math.inf, -1], ids=repr)
def test_a_value_that_is_not_a_count_is_refused_by_name(function, name, call, value):
    message = outcome(call, value)
    assert message is not None and message.startswith(f"{name} must be "), message


@pytest.mark.parametrize("name, call, value", [
    pytest.param(name, call, value, id=f"{label}-{function}:{name}")
    for value, label in ((0, "0"), (np.int64(3), "int64(3)"), (HUGE, "400 digits"))
    for function, name, call in ROUTED if not (value is HUGE and name in NO_HUGE)])
def test_an_integer_returns_or_is_refused_by_name(name, call, value):
    message = outcome(call, value)
    assert message is None or message.startswith(f"{name} must be "), message


@pytest.mark.parametrize("value, message", [
    (True, "k must be an integer, got True"), (np.True_, "k must be an integer, got np.True_"),
    (2.0, "k must be an integer, got 2.0"), ("3", "k must be an integer, got '3'"),
    (None, "k must be an integer, got None"),
    (0, "k must be >= 1, got 0"), (np.int8(-3), "k must be >= 1, got -3"), (HUGE, f"k must be <= 6, got {HUGE}"),
])
def test_the_three_refusals(value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_count("k", value, 1, 6)


def test_numpy_integers_come_back_as_python_ints():
    for value in (6, np.int64(6), np.uint8(6)):
        count = require_count("k", value, 1, 6)
        assert count == 6 and type(count) is int
    assert require_count("k", HUGE, 0) == HUGE
    assert type(ImageSize(np.int64(10**9), np.int32(10**9)).width_px) is int


def test_the_count_rule_is_not_restated():
    """An integer test on a bool or __index__ lives in counts.py; the JSON loaders of config and cost and the float
    fields of probes.SceneObject and verify.DistributionSpec spell their own."""
    rule = re.compile(r"isinstance\([^)]*bool|__index__|_require_int")
    allowed = {"counts.py", "config.py", "cost.py", "probes.py", "verify.py"}
    found = [f"{path.name}:{i}" for path in sorted(Path(slicekit.__file__).parent.glob("*.py"))
             if path.name not in allowed
             for i, line in enumerate(path.read_text().splitlines(), 1) if rule.search(line)]
    assert found == []
