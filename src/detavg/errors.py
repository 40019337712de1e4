"""Exception types shared across the package.

Numerical failures derive from :class:`NumericalError`; configuration and
input problems derive from :class:`ValueError` so they read naturally at
call sites.  The CLI maps the former to exit code 2 and the latter to 1.
"""


class NumericalError(Exception):
    """A linear-algebra operation could not be completed reliably."""


class NotPositiveDefinite(NumericalError):
    """A Cholesky pivot, or a ridged eigenvalue, is not positive.

    ``index`` is the position of the failing matrix within a stack, or
    ``None`` when a single matrix was factored.
    """

    def __init__(self, message: str, index: int | None = None):
        super().__init__(message)
        self.index = index


class NegativeQuadraticForm(NumericalError):
    """A quadratic form came out negative beyond rounding tolerance."""


class NonFiniteWeight(NumericalError):
    """A log-weight passed to the weighted reduction is NaN or infinite."""


class NoConvergence(NumericalError):
    """An iterative solve did not reach its tolerance within its iteration budget."""


class NonFiniteResult(NumericalError):
    """A computed quantity overflowed to infinity or came out NaN."""


class SingularCovariance(NumericalError):
    """The exact covariance is singular, so its inverse statistic is undefined."""


class InvalidSampleSize(ValueError):
    """Expected sample size k is outside 1..n."""


class EmptyBatch(ValueError):
    """An averaging operation received no estimates."""


class DimensionMismatch(ValueError):
    """Estimates with incompatible shapes were combined."""


class EnumerationBudgetExceeded(ValueError):
    """An exact enumeration was requested for too large an instance."""


class EmptyDataset(ValueError):
    """A dataset source contained no data lines."""


class ParseError(ValueError):
    """A dataset line could not be parsed.

    Carries the 1-based line number of the offending line.
    """

    def __init__(self, lineno: int, message: str):
        super().__init__(f"line {lineno}: {message}")
        self.lineno = lineno
