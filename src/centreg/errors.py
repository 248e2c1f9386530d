"""Exception and warning types shared across the package."""


class CentregError(Exception):
    """Base class for all package errors."""


class ConfigError(CentregError, ValueError):
    """Bad configuration field; the message starts with its JSON pointer or flag."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer


class InvalidSize(CentregError):
    """Node count too small for the requested operation."""


class InvalidSparsity(CentregError):
    """Sparsity scale outside (0, 1]."""


class InvalidGraphon(CentregError):
    """Graphon violates its construction invariants (range, symmetry, mass)."""


class InvalidBound(CentregError):
    """Plug-in regularization bound M outside (0, 1]."""


class EmptyGraph(CentregError):
    """Operation requires at least one edge / nonzero matrix."""


class NoConvergence(CentregError):
    """Iterative eigensolver failed to reach tolerance.

    Carries the last residual so callers can decide whether to retry.
    """

    def __init__(self, message, residual=None):
        super().__init__(message)
        self.residual = residual


class DegenerateSpectrum(CentregError):
    """Leading eigenvalue is not strictly positive where it must be."""


class DegenerateVariance(CentregError):
    """Variance estimate in a test statistic's denominator is zero."""


class DegenerateGapWarning(UserWarning):
    """Estimated eigengap below tolerance; leading eigenvector may be unstable."""


class OddLength(CentregError):
    """Walk-count tables are only defined for even walk lengths."""


class BudgetExceeded(CentregError):
    """Requested derivation exceeds the configured enumeration budget."""


class Unsupported(CentregError):
    """Requested reference data outside the embedded range."""


class ZeroRegressor(CentregError):
    """Centrality vector is identically zero; OLS undefined."""


class NonFiniteCentrality(CentregError):
    """Centrality value is NaN or infinite; OLS undefined."""


class ConfigMismatch(CentregError):
    """Arguments that do not fit together, such as a B_hat/V_hat estimator and the centrality of its fit."""


class MissingComponents(CentregError):
    """Test or interval requested without the bias/variance components it needs."""


class InvalidLevel(CentregError):
    """Confidence level alpha outside (0, 1)."""


class NonpositiveAttenuation(CentregError):
    """1 - B_hat is not positive; bias-corrected estimator undefined."""


class DuplicateEdge(CentregError):
    """Edge-list file repeats an undirected edge."""

    def __init__(self, message, row=None):
        super().__init__(message)
        self.row = row


class NonFiniteOutcome(CentregError):
    """Outcome value is NaN or infinite."""


class IdMismatch(CentregError):
    """Outcome ids do not cover the edge list's node set."""
