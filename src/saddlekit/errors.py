"""Exception types shared across the toolkit."""


class DimensionError(ValueError):
    """Input vector length does not match the model dimension."""


class ModelRegionError(ValueError):
    """Point lies outside the region where the energy model is valid."""


class CoefficientError(ValueError):
    """Reversal coefficients violate the convexity condition."""


class EigensolveError(RuntimeError):
    """Min-mode iteration failed to converge; carries the best result so far."""

    def __init__(self, message, result=None):
        super().__init__(message)
        self.result = result


class SubsolveError(RuntimeError):
    """Inner minimization diverged; carries the iterate trace."""

    def __init__(self, message, trace=None):
        super().__init__(message)
        self.trace = trace


class ConvexRegionError(RuntimeError):
    """Refused to minimize an unbounded objective without a trust box."""


class OffManifoldError(ValueError):
    """Point is off the unit sphere beyond tolerance."""


class OrderEstimateError(ValueError):
    """Too few usable error entries to estimate a convergence order."""
