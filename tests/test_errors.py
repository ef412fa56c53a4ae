"""The integer and finiteness rules that the parameter classes share."""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
import pytest

from flqkd.errors import ValidationError, is_integer, require_finite


@pytest.mark.parametrize(
    "value",
    [0, -3, 2**70, np.int64(5), np.uint8(255), np.int32(-1)],
    ids=["zero", "negative", "beyond-int64", "int64", "uint8", "int32"],
)
def test_is_integer_accepts_python_and_numpy_integers(value):
    assert is_integer(value)


@pytest.mark.parametrize(
    "value",
    [True, False, np.bool_(True), 3.0, np.float64(3.0), "3", None, np.array([3])],
    ids=["true", "false", "numpy-bool", "float", "numpy-float", "str", "none", "array"],
)
def test_is_integer_refuses_bools_floats_and_other_types(value):
    # a bool is an int in Python, but a count or a seed of True is refused
    assert not is_integer(value)


def test_require_finite_names_the_first_non_finite_attribute():
    obj = SimpleNamespace(a=1.0, b=math.inf, c=math.nan)
    require_finite(obj, ["a"])
    with pytest.raises(ValidationError, match=r"^b must be finite, got inf$"):
        require_finite(obj, ["a", "b", "c"])


def test_require_finite_refuses_an_int_beyond_the_float_range():
    obj = SimpleNamespace(n=10**400)
    with pytest.raises(ValidationError, match=r"^n must be finite"):
        require_finite(obj, ["n"])
