"""Exception types raised by validation and solver code."""


class ChoimetricError(Exception):
    """Base class for all package-specific errors."""


# --- algebra construction ---------------------------------------------------

class LinearlyDependentBasis(ChoimetricError):
    pass


class NotClosedUnderProduct(ChoimetricError):
    pass


class NotClosedUnderAdjoint(ChoimetricError):
    pass


class NoUnit(ChoimetricError):
    pass


class NotATensorAlgebra(ChoimetricError):
    pass


class FactorMismatch(ChoimetricError):
    pass


class AlgebraMismatch(ChoimetricError):
    pass


# --- functionals and traces -------------------------------------------------

class NotATrace(ChoimetricError):
    pass


class NotFaithful(ChoimetricError):
    pass


# --- channels ----------------------------------------------------------------

class TraceMismatch(ChoimetricError):
    pass


class NotMatrixUnitsBasis(ChoimetricError):
    pass


class NotTraceChannel(ChoimetricError):
    """Raised when a map fails a trace-channel predicate; the message lists
    which predicate (complete positivity or trace normalization) failed."""


# --- metrics ------------------------------------------------------------------

class Infeasible(ChoimetricError):
    """The linear constraint of a dual trace-norm program has no solution;
    the corresponding primal Monge-Kantorovich distance is infinite."""


# --- groups -------------------------------------------------------------------

class InvalidGroup(ChoimetricError):
    pass


class InvalidCocycle(ChoimetricError):
    pass


class InvalidLength(ChoimetricError):
    pass


class NotPositiveDefinite(ChoimetricError):
    """Carries the offending eigenvalue of the positivity test matrix."""

    def __init__(self, message, witness_eigenvalue=None):
        super().__init__(message)
        self.witness_eigenvalue = witness_eigenvalue


# --- geometry -------------------------------------------------------------------

class InvalidSpectralTriple(ChoimetricError):
    pass
