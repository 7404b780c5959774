"""Exception types and the number checks shared across the package.

The CLI maps these onto exit codes: InputError -> 2, NumericalError -> 3.
is_int, is_real and is_reals are the one rule for a saved number: a value is
checked against them and never coerced, so `true` or `"55.4"` is not a number.
"""

import math

import numpy as np


def is_int(value) -> bool:
    """A Python or numpy integer; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


def is_real(value) -> bool:
    """A finite Python or numpy int or float; bools and ints past float range are not."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        return False
    try:
        return math.isfinite(value)
    except OverflowError:  # an int too large for a float
        return False


def is_reals(value, n: int) -> bool:
    """A list or tuple of n values that each pass is_real."""
    return isinstance(value, (list, tuple)) and len(value) == n and all(map(is_real, value))


class InputError(ValueError):
    """Malformed argument, shape mismatch, or violated precondition."""


class NumericalError(ArithmeticError):
    """Non-finite values, divergence, or numerically degenerate inputs."""
