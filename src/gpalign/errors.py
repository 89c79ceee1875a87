"""Exception types shared across the package."""


class GpalignError(Exception):
    """Base class for all package errors."""


class DataError(GpalignError):
    """Malformed or inconsistent input data."""


class NumericalError(GpalignError):
    """A numerical operation failed or produced an invalid result."""


# --- grid / penalty construction ---

class NonMonotoneGrid(DataError):
    pass


class TooFewPoints(DataError):
    pass


class NumericalRankFailure(NumericalError):
    pass


# --- warping ---

class EndpointViolation(NumericalError):
    pass


class QueryOutOfDomain(DataError):
    pass


# --- model / inference ---

class DimensionMismatch(DataError):
    pass


class SingularPriorCovariance(NumericalError):
    pass


class SingularPrecision(NumericalError):
    pass


class InconsistentGrid(DataError):
    pass


class NonFiniteDraw(NumericalError):
    def __init__(self, block: str):
        super().__init__(f"non-finite draw in block '{block}'")
        self.block = block


# --- prediction ---

class DegenerateSample(DataError):
    pass


class OptimizerFailure(NumericalError):
    pass


class EmptyWindow(DataError):
    pass


# --- metrics ---

class DegenerateDenominator(NumericalError):
    pass


# --- io ---

class ParseError(DataError):
    pass


class RaggedRows(DataError):
    pass
