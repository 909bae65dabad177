"""Every integer count the library accepts goes through counts.require_count, every real number through
counts.require_real, every holder through counts.require_holder, and every array through arrays.require_array: one rule
each, one refusal shape.  These are the rules' own cases; test_boundary.py runs each public argument's edge values."""

import math
import re
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

import slicekit
from slicekit.arrays import require_array
from slicekit.counts import require_count, require_holder, require_real
from slicekit.partition import ImageSize, VitSpec
from slicekit.patches import reshape_pos_embed_1d_to_2d
from slicekit.probes import padding_probe_scene
from slicekit.resampler import TokenMatrix
from slicekit.verify import DistributionSpec

HUGE = 10**400
PAST_STR = 10**5000  # past Python's int-to-str limit of 4300 digits


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
    with pytest.raises(ValueError, match="^aspect_w must be > 0, got 0$"):
        padding_probe_scene(0, 0)


def test_two_subnormal_aspects_give_the_square_of_two_equal_aspects():
    """padding_probe_scene(5e-324, 5e-324) overflowed its scale to inf and took ceil(inf / inf)."""
    square = padding_probe_scene(1, 1)
    assert [padding_probe_scene(v, v) for v in (5e-324, 1e-306, sys.float_info.max)] == [square] * 3
    assert padding_probe_scene(5e-324, 1) == padding_probe_scene(1e-300, 1)


@pytest.mark.parametrize("value, kind, many, message", [
    (None, ImageSize, False, "x must be an ImageSize, got NoneType"),
    ((), VitSpec, False, "x must be a VitSpec, got tuple"),
    (DistributionSpec(), DistributionSpec, True, "x must be a list or tuple of DistributionSpec, got DistributionSpec"),
    ((DistributionSpec(), np.ones(2)), DistributionSpec, True, "x[1] must be a DistributionSpec, got ndarray")])
def test_the_holder_refusals(value, kind, many, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        require_holder("x", value, kind, many)


def test_an_array_or_a_holder_comes_back_unconverted_and_uncopied():
    for value in (np.ones((2, 3)), np.arange(6, dtype=np.int32).reshape(3, 2), np.ones((3, 2), np.float16).T):
        assert require_array("x", value, ("rows", "cols")) is value
    tokens, image, specs = np.ones((3, 2)), ImageSize(2, 3), [DistributionSpec()]
    assert TokenMatrix(tokens).values is tokens and require_holder("x", image, ImageSize) is image
    assert require_holder("x", specs, DistributionSpec, True) is specs
    assert reshape_pos_embed_1d_to_2d(np.arange(12, dtype=np.int64).reshape(4, 3), 2).values.dtype == np.int64


# (what a line may not spell, the files where that rule lives or a loader spells its own)
RESTATED = [
    # an integer test on a bool or __index__, and a finiteness test on a real: counts.py; config and cost's JSON loaders
    (r"isinstance\([^)]*bool|__index__|_require_int|math\.isfinite\(|< math\.inf",
     {"counts.py", "config.py", "cost.py"}),
    # a finiteness, rank or empty-axis test on an array: arrays.py
    (r"np\.isfinite\(|\.ndim\b|0 in \S*shape", {"arrays.py"}),
    # a class test on an argument: counts.py; schema.py tells the items of a token sequence apart by their class
    (r"isinstance\([^,]+, \(?[A-Z]", {"counts.py", "schema.py"}),
]
# (file, line) that spell a rule for another reason: the reason
RESTATED_FOR_A_REASON = {
    ("resampler.py", "if not np.isfinite(g).all():"): "grad_check checks the gradient it computed, not an argument",
}


def test_the_count_rule_is_not_restated():
    """None of the count, real-number, holder and array rules is spelled outside its module."""
    found = {(path.name, line.strip())
             for rule, allowed in RESTATED
             for path in sorted(Path(slicekit.__file__).parent.glob("*.py")) if path.name not in allowed
             for line in path.read_text().splitlines() if re.search(rule, line)}
    assert found == set(RESTATED_FOR_A_REASON)
