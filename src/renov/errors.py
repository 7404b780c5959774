"""Exception types and the integer check shared across the package.

The CLI maps these onto exit codes: InputError -> 2, NumericalError -> 3.
"""

import numpy as np


def is_int(value) -> bool:
    """A Python or numpy integer; bools are not integers here."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


class InputError(ValueError):
    """Malformed argument, shape mismatch, or violated precondition."""


class NumericalError(ArithmeticError):
    """Non-finite values, divergence, or numerically degenerate inputs."""
