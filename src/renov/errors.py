"""Exception types shared across the package.

The CLI maps these onto exit codes: InputError -> 2, NumericalError -> 3.
"""


class InputError(ValueError):
    """Malformed argument, shape mismatch, or violated precondition."""


class NumericalError(ArithmeticError):
    """Non-finite values, divergence, or numerically degenerate inputs."""
