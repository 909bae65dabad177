"""Every integer count the library accepts goes through counts.require_count, every real number through
counts.require_real, and every array through arrays.require_array: one rule each, one refusal shape."""

import math
import re
import sys
import time
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import slicekit
from slicekit.arrays import require_array
from slicekit.binio import tokens_to_bytes
from slicekit.cost import estimate_flops, load_model_dims
from slicekit.counts import require_count, require_real
from slicekit.partition import (ImageSize, PatchGrid, SliceGrid, VitSpec, candidate_grids, fit_patch_grid,
                                select_partition)
from slicekit.patches import PosEmbedGrid, reshape_pos_embed_1d_to_2d
from slicekit.probes import SceneObject, SyntheticScene, heatmap_probe, padding_probe_scene, padding_waste
from slicekit.resampler import AttentionParams, QuerySet, TokenMatrix, grad_check, init_resampler
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
PAST_STR = 10**5000  # past Python's int-to-str limit of 4300 digits
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
    for value, label in ((0, "0"), (np.int64(3), "int64(3)"), (HUGE, "400 digits"), (PAST_STR, "5000 digits"))
    for function, name, call in ROUTED if not (value in (HUGE, PAST_STR) and name in NO_HUGE)])
def test_an_integer_returns_or_is_refused_by_name(name, call, value):
    message = outcome(call, value)
    assert message is None or message.startswith(f"{name} must be "), message


@pytest.mark.parametrize("value, message", [
    (True, "k must be an integer, got True"), (np.True_, "k must be an integer, got np.True_"),
    (2.0, "k must be an integer, got 2.0"), ("3", "k must be an integer, got '3'"),
    (None, "k must be an integer, got None"),
    (0, "k must be >= 1, got 0"), (np.int8(-3), "k must be >= 1, got -3"), (HUGE, f"k must be <= 6, got {HUGE}"),
    pytest.param(PAST_STR, "k must be <= 6, got <int too long to print>", id="5000 digits"),
    pytest.param(-PAST_STR, "k must be >= 1, got <int too long to print>", id="-5000 digits"),
    pytest.param([PAST_STR], "k must be an integer, got <list too long to print>", id="[5000 digits]"),
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
      (HUGE, f"object size must be <= {sys.float_info.max}, got {HUGE}"),
      (PAST_STR, f"object size must be <= {sys.float_info.max}, got <int too long to print>"))),
    ("SceneObject.center[0]", "object center", lambda v: SceneObject("circle", "red", (v, 5.0), 2.0),
     ((HUGE, f"object center must be <= {sys.float_info.max}, got {HUGE}"),)),
    ("SceneObject.center[1]", "object center", lambda v: SceneObject("circle", "red", (5.0, v), 2.0), ()),
    ("SyntheticScene.scaled", "scene scale", SCENE.scaled,
     ((0.0, "scene scale must be > 0, got 0.0"), (-1.0, "scene scale must be > 0, got -1.0"))),
    ("padding_waste", "aspect_w", lambda v: padding_waste(v, 2), ((0.0, "aspect_w must be > 0, got 0.0"),)),
    ("padding_waste", "aspect_h", lambda v: padding_waste(2, v), ((0, "aspect_h must be > 0, got 0"),)),
    ("padding_probe_scene", "aspect_w", lambda v: padding_probe_scene(v, 1),
     ((0, "aspect_w must be > 0, got 0"), (HUGE, f"aspect_w must be <= {sys.float_info.max}, got {HUGE}"))),
    ("padding_probe_scene", "aspect_h", lambda v: padding_probe_scene(1, v),
     ((-2.5, "aspect_h must be > 0, got -2.5"),
      (PAST_STR, f"aspect_h must be <= {sys.float_info.max}, got <int too long to print>"))),
    *(("DistributionSpec", name, lambda v, name=name: DistributionSpec(**{name: v}), ())
      for name in ("area_ratio_lo", "area_ratio_hi", "aspect_lo", "aspect_hi")),
    *(("StatReport", name, lambda v, name=name: StatReport(**{**STATS, name: v}), ())
      for name in ("expectation", "variance")),
    ("grad_check", "eps", lambda v: grad_check(QUERIES, TOKENS, PARAMS, eps=v),
     ((0.0, "eps must be > 0, got 0.0"), (1e-2, "eps must be <= 0.001, got 0.01"))),
]
REAL_IDS = [f"{function}:{name}" for function, name, _, _ in REAL_ROUTED]
DIGITS = {HUGE: "400 digits", PAST_STR: "5000 digits"}
NOT_FINITE_REALS = [True, np.True_, math.nan, math.inf, -math.inf, "3", None, [1.0], 1j]


@pytest.mark.parametrize("function, name, call, bounds", REAL_ROUTED, ids=REAL_IDS)
@pytest.mark.parametrize("value", NOT_FINITE_REALS, ids=repr)
def test_a_value_that_is_not_a_finite_real_is_refused_by_name(function, name, call, bounds, value):
    finite = isinstance(value, float) and not math.isfinite(value)
    assert outcome(call, value) == (f"{name} must be finite, got {value}" if finite
                                    else f"{name} must be a real number, got {value!r}")


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{function}:{DIGITS[value] if value in DIGITS else repr(value)}")
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
    pytest.param(PAST_STR, {"most": 1}, "x must be <= 1, got <int too long to print>", id="5000 digits-most"),
    pytest.param(-PAST_STR, {"above": 0}, "x must be > 0, got <int too long to print>", id="-5000 digits-above"),
    pytest.param(-PAST_STR, {"least": 0}, "x must be >= 0, got <int too long to print>", id="-5000 digits-least"),
    pytest.param(Fraction(PAST_STR, 3), {"most": 1}, "x must be <= 1, got <Fraction too long to print>",
                 id="Fraction of 5000 digits-most"),
    pytest.param([PAST_STR], {}, "x must be a real number, got <list too long to print>", id="[5000 digits]"),
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


def test_two_subnormal_aspects_give_the_square_of_two_equal_aspects():
    """padding_probe_scene(5e-324, 5e-324) overflowed its scale to inf and took ceil(inf / inf)."""
    square = padding_probe_scene(1, 1)
    assert [padding_probe_scene(v, v) for v in (5e-324, 1e-306, sys.float_info.max)] == [square] * 3
    assert padding_probe_scene(5e-324, 1) == padding_probe_scene(1e-300, 1)


W = np.eye(2)
# (holder or function, argument, name in the refusal, axes, a valid shape, a call with that argument set to the value
#  and every other one valid, arrays of the argument's axes that the site refuses for its own reason, with the refusals)
ARRAY_ROUTED = [
    ("TokenMatrix", "values", "tokens", ("count", "dim"), (3, 2), TokenMatrix, ()),
    ("QuerySet", "values", "queries", ("K", "dim"), (3, 2), QuerySet, ()),
    ("AttentionParams", "w_q", "w_q", ("dim", "dim"), (2, 2), lambda v: AttentionParams(v, W, W),
     ((np.eye(3), "w_k must be square with matching dim"), (np.ones((2, 3)), "w_q must be square with matching dim"))),
    ("AttentionParams", "w_k", "w_k", ("dim", "dim"), (2, 2), lambda v: AttentionParams(W, v, W),
     ((np.eye(3), "w_k must be square with matching dim"),)),
    ("AttentionParams", "w_v", "w_v", ("dim", "dim"), (2, 2), lambda v: AttentionParams(W, W, v),
     ((np.ones((3, 3)), "w_v must be square with matching dim"),
      (np.ones((2, 1)), "w_v must be square with matching dim"))),
    ("PosEmbedGrid", "values", "position embeddings", ("rows", "cols", "dim"), (2, 3, 2), PosEmbedGrid, ()),
    ("reshape_pos_embed_1d_to_2d", "seq", "seq", ("tokens", "dim"), (4, 3), lambda v: reshape_pos_embed_1d_to_2d(v, 2),
     ((np.ones((5, 3)), "q must be the square root of the sequence length 5, got 2"),
      (np.ones((1, 3)), "q must be <= 1, got 2"))),
    ("tokens_to_bytes", "tokens", "tokens", ("count", "dim"), (3, 2), tokens_to_bytes, ()),
]
ARRAY_IDS = [f"{function}:{argument}" for function, argument, *_ in ARRAY_ROUTED]


def not_an_array_of_reals(shape):
    """(label, value, what the refusal says it got): values that are not arrays, or not of integers or floats."""
    return [("list", np.ones(shape).tolist(), "list"), ("tuple", tuple(np.ones(shape).tolist()), "tuple"),
            ("None", None, "NoneType"), ("1.0", 1.0, "float"), ("float64(1.0)", np.float64(1.0), "float64"),
            ("bool", np.ones(shape, bool), "dtype bool"), ("complex", np.ones(shape, complex), "dtype complex128"),
            ("object", np.ones(shape, object), "dtype object"), ("str", np.full(shape, "1"), "dtype <U1")]


def off_shape(shape):
    """(label, shape): no axis, one axis too few or too many, each axis empty in turn and every axis empty."""
    return [("0-d", ()), ("one axis fewer", shape[:-1]), ("one axis more", (*shape, 1)),
            *((f"axis {i} empty", (*shape[:i], 0, *shape[i + 1:])) for i in range(len(shape))),
            ("every axis empty", (0,) * len(shape))]


def not_finite(shape):
    """(label, an array of the shape with one entry not finite)."""
    cases = []
    for label, v in (("nan", np.nan), ("inf", np.inf), ("-inf", -np.inf)):
        a = np.ones(shape)
        a.flat[-1] = v
        cases.append((label, a))
    return cases


ARRAY_CASES = [
    pytest.param(call, value, message, id=f"{function}:{argument}-{label}")
    for function, argument, name, axes, shape, call, _ in ARRAY_ROUTED
    for label, value, message in (
        *((label, value, f"{name} must be an array of real numbers, got {got}")
          for label, value, got in not_an_array_of_reals(shape)),
        *((label, np.ones(bad), f"{name} must have shape ({', '.join(axes)}) with no empty axis, got {bad}")
          for label, bad in off_shape(shape)),
        *((label, value, f"{name} must be finite") for label, value in not_finite(shape)))]


@pytest.mark.parametrize("call, value, message", ARRAY_CASES)
def test_a_value_that_is_not_a_finite_array_of_its_axes_is_refused_by_name(call, value, message):
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a RuntimeWarning (0-by-0 weights gave 1/sqrt(0)) fails the test
        assert outcome(call, value) == message


@pytest.mark.parametrize("call, value, message", [
    pytest.param(call, value, message, id=f"{function}:{argument}-{value.shape}")
    for function, argument, _, _, _, call, shapes in ARRAY_ROUTED for value, message in shapes])
def test_an_array_the_site_refuses_for_its_own_reason_is_refused_by_name(call, value, message):
    assert outcome(call, value) == message


@pytest.mark.parametrize("shape, call", [row[4:6] for row in ARRAY_ROUTED], ids=ARRAY_IDS)
def test_an_array_of_integers_or_floats_and_its_axes_is_taken(shape, call):
    for dtype in (np.int8, np.uint16, np.int64, np.float32, np.float64):
        assert outcome(call, np.arange(1, math.prod(shape) + 1, dtype=dtype).reshape(shape)) is None


def test_an_array_comes_back_unconverted_and_uncopied():
    for value in (np.ones((2, 3)), np.arange(6, dtype=np.int32).reshape(3, 2), np.ones((3, 2), np.float16).T):
        assert require_array("x", value, ("rows", "cols")) is value
    tokens = np.ones((3, 2))
    assert TokenMatrix(tokens).values is tokens
    assert reshape_pos_embed_1d_to_2d(np.arange(12, dtype=np.int64).reshape(4, 3), 2).values.dtype == np.int64


# (what a line may not spell, the files where that rule lives or a loader spells its own)
RESTATED = [
    # an integer test on a bool or __index__, and a finiteness test on a real: counts.py; config and cost's JSON loaders
    (r"isinstance\([^)]*bool|__index__|_require_int|math\.isfinite\(|< math\.inf",
     {"counts.py", "config.py", "cost.py"}),
    # a finiteness, rank or empty-axis test on an array: arrays.py
    (r"np\.isfinite\(|\.ndim\b|0 in \S*shape", {"arrays.py"}),
]
# (file, line) that spell a rule for another reason: the reason
RESTATED_FOR_A_REASON = {
    ("resampler.py", "if not np.isfinite(g).all():"): "grad_check checks the gradient it computed, not an argument",
}


def test_the_count_rule_is_not_restated():
    """Neither the count and real-number rules nor the array rule is spelled outside its module."""
    found = {(path.name, line.strip())
             for rule, allowed in RESTATED
             for path in sorted(Path(slicekit.__file__).parent.glob("*.py")) if path.name not in allowed
             for line in path.read_text().splitlines() if re.search(rule, line)}
    assert found == set(RESTATED_FOR_A_REASON)
