"""Exception hierarchy shared across the package, and the finiteness and
integer rules its parameter classes check.

One class per exit code of the CLI: ConfigError exits 2, ValidationError
(a refused argument, an unphysical state among them) exits 3, and
EstimatorUndefinedError (an undefined intrusion estimate) exits 4.
"""

from __future__ import annotations

import math

import numpy as np


class FlqkdError(Exception):
    """Base class for all package errors."""


class ValidationError(FlqkdError, ValueError):
    """An argument outside its domain: a range, a shape or an invariant."""


class EstimatorUndefinedError(FlqkdError):
    """Monitor counts cannot support a finite intrusion estimate."""


class ConfigError(FlqkdError):
    """Run configuration failed to parse or validate."""


def require_finite(obj, names) -> None:
    """Refuse a non-finite value of any named attribute of obj with
    ValidationError; an int beyond the float range counts as non-finite."""
    for name in names:
        value = getattr(obj, name)
        try:
            finite = math.isfinite(value)
        except OverflowError:
            finite = False
        if not finite:
            raise ValidationError(f"{name} must be finite, got {value!r}")


def is_integer(value) -> bool:
    """True for a Python or numpy integer; a bool is not one."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)
