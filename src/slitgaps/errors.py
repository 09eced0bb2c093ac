"""Exception types shared across the package."""


class SlitgapsError(Exception):
    """Base class for all package-specific errors."""


class InvalidInputError(SlitgapsError, ValueError):
    """An argument is outside its documented domain."""


class DegenerateInputError(InvalidInputError):
    """Input is singular or too close to singular to work with."""


class NotOnTransversalError(SlitgapsError, ValueError):
    """A surface was expected to lie on a Poincare section and does not."""


class OutOfRegimeError(InvalidInputError):
    """A closed-form regime decomposition does not exist for this parameter."""


class QuadratureError(SlitgapsError, RuntimeError):
    """Numerical integration failed to reach the requested tolerance."""


class EstimationError(SlitgapsError, RuntimeError):
    """A Monte Carlo estimate is degenerate (e.g. all weights zero)."""
