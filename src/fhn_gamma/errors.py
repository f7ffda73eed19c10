"""Exception types shared across the package."""


class InvalidParameterError(ValueError):
    """A physical parameter or argument is outside its admissible range."""


class RegimeError(InvalidParameterError):
    """An operation was requested outside its parameter regime."""


class GridError(ValueError):
    """A grid is too coarse or too small for the requested operation."""


class BracketError(RuntimeError):
    """A root bracket could not be established or does not change sign."""


class NonConvergenceError(RuntimeError):
    """``InhibitorOperator`` met a non-positive pivot in its factorization.
    A minimization at its iteration cap returns ``converged=False``."""
