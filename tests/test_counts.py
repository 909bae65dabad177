"""Every integer count the library accepts goes through counts.require_count, and every real number through
counts.require_real: one rule each, one refusal shape."""

import math
import re
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import slicekit
from slicekit.cost import estimate_flops, load_model_dims
from slicekit.counts import require_count, require_real
from slicekit.partition import (ImageSize, PatchGrid, SliceGrid, VitSpec, candidate_grids, fit_patch_grid,
                                select_partition)
from slicekit.patches import reshape_pos_embed_1d_to_2d
from slicekit.probes import SceneObject, SyntheticScene, heatmap_probe, padding_probe_scene, padding_waste
from slicekit.resampler import TokenMatrix, grad_check, init_resampler
from slicekit.schema import serialize_layout, token_count
from slicekit.verify import (DistributionSpec, StatReport, enumerate_ratio_bound, monte_carlo_statistics,
                             run_proof_checks, sweep_slice_bounds)

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


SCENE = SyntheticScene(ImageSize(100, 200), (SceneObject("circle", "red", (50.0, 100.0), 20.0),))
QUERIES, PARAMS = init_resampler(2, 4, 0)
TOKENS = TokenMatrix(np.ones((3, 4)))
STATS = {"expectation": 1.25, "variance": 0.04, "samples": 10, "std_error": 0.06, "seed": 1}

# (function, name in the refusal, a call with that argument set to the value and every other one valid,
#  values out of the argument's own bounds with their refusals)
REAL_ROUTED = [
    ("fit_patch_grid", "slice_w_px", lambda v: fit_patch_grid(v, 14, VIT), ()),
    ("fit_patch_grid", "slice_h_px", lambda v: fit_patch_grid(14, v, VIT), ()),
    ("SceneObject", "object size", lambda v: SceneObject("circle", "red", (5.0, 5.0), v),
     ((0.0, "object size must be > 0, got 0.0"), (-1.0, "object size must be > 0, got -1.0"),
      (HUGE, f"object size must be <= {sys.float_info.max}, got {HUGE}"))),
    ("SceneObject.center[0]", "object center", lambda v: SceneObject("circle", "red", (v, 5.0), 2.0),
     ((HUGE, f"object center must be <= {sys.float_info.max}, got {HUGE}"),)),
    ("SceneObject.center[1]", "object center", lambda v: SceneObject("circle", "red", (5.0, v), 2.0), ()),
    ("SyntheticScene.scaled", "scene scale", SCENE.scaled,
     ((0.0, "scene scale must be > 0, got 0.0"), (-1.0, "scene scale must be > 0, got -1.0"))),
    ("padding_waste", "aspect_w", lambda v: padding_waste(v, 2), ((0.0, "aspect_w must be > 0, got 0.0"),)),
    ("padding_waste", "aspect_h", lambda v: padding_waste(2, v), ((0, "aspect_h must be > 0, got 0"),)),
    ("padding_probe_scene", "aspect_w", lambda v: padding_probe_scene(v, 1), ((0, "aspect_w must be > 0, got 0"),)),
    ("padding_probe_scene", "aspect_h", lambda v: padding_probe_scene(1, v),
     ((-2.5, "aspect_h must be > 0, got -2.5"),)),
    *(("DistributionSpec", name, lambda v, name=name: DistributionSpec(**{name: v}), ())
      for name in ("area_ratio_lo", "area_ratio_hi", "aspect_lo", "aspect_hi")),
    *(("StatReport", name, lambda v, name=name: StatReport(**{**STATS, name: v}), ())
      for name in ("expectation", "variance")),
    ("grad_check", "eps", lambda v: grad_check(QUERIES, TOKENS, PARAMS, eps=v),
     ((0.0, "eps must be > 0, got 0.0"), (1e-2, "eps must be <= 0.001, got 0.01"))),
]
REAL_IDS = [f"{function}:{name}" for function, name, _, _ in REAL_ROUTED]
NOT_FINITE_REALS = [True, np.True_, math.nan, math.inf, -math.inf, "3", None, [1.0], 1j]


@pytest.mark.parametrize("function, name, call, bounds", REAL_ROUTED, ids=REAL_IDS)
@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=repr)
def test_a_value_that_is_not_a_finite_real_is_refused_by_name(function, name, call, bounds, value):
    finite = isinstance(value, float) and not math.isfinite(value)
    assert outcome(call, value) == (f"{name} must be finite, got {value}" if finite
                                    else f"{name} must be a real number, got {value!r}")


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{function}:{'400 digits' if value is HUGE else repr(value)}")
    for function, _, call, bounds in REAL_ROUTED for value, message in bounds])
def test_a_real_outside_its_bounds_is_refused_by_name(call, value, message):
    assert outcome(call, value) == message


@pytest.mark.parametrize("value, bounds, message", [
    (True, {}, "x must be a real number, got True"), (np.True_, {}, "x must be a real number, got np.True_"),
    ("3", {}, "x must be a real number, got '3'"), (None, {}, "x must be a real number, got None"),
    (1j, {}, "x must be a real number, got 1j"),
    (np.complex128(1), {}, "x must be a real number, got np.complex128(1+0j)"),
    (math.nan, {}, "x must be finite, got nan"), (-math.inf, {}, "x must be finite, got -inf"),
    (np.float32(math.inf), {}, "x must be finite, got inf"),
    (0, {"above": 0}, "x must be > 0, got 0"), (-0.5, {"above": 0}, "x must be > 0, got -0.5"),
    (0.5, {"least": 1}, "x must be >= 1, got 0.5"), (2.5, {"most": 1e-3}, "x must be <= 0.001, got 2.5"),
    pytest.param(HUGE, {"most": 1e300}, f"x must be <= 1e+300, got {HUGE}", id="400 digits-most"),
])
def test_the_real_number_refusals(value, bounds, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_real("x", value, **bounds)


def test_a_real_comes_back_unconverted_and_a_huge_int_is_finite():
    for value in (1.5, np.float64(1.5), np.float32(1.5), np.int64(3), Fraction(3, 2), HUGE, Fraction(HUGE, 3)):
        assert require_real("x", value, above=0, least=1) is value
    assert require_real("x", 1e-3, above=0, most=1e-3) == 1e-3 and require_real("x", -HUGE) == -HUGE


def test_two_zero_aspects_are_refused_by_name():
    """padding_probe_scene(0, 0) divided by zero before its aspects were checked."""
    assert outcome(lambda v: padding_probe_scene(v, v), 0) == "aspect_w must be > 0, got 0"


def test_the_count_rule_is_not_restated():
    """An integer test on a bool or __index__, and a finiteness test on a real, live in counts.py; the JSON loaders of
    config and cost spell their own."""
    rule = re.compile(r"isinstance\([^)]*bool|__index__|_require_int|math\.isfinite\(|< math\.inf")
    allowed = {"counts.py", "config.py", "cost.py"}
    found = [f"{path.name}:{i}" for path in sorted(Path(slicekit.__file__).parent.glob("*.py"))
             if path.name not in allowed
             for i, line in enumerate(path.read_text().splitlines(), 1) if rule.search(line)]
    assert found == []
