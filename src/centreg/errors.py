"""Exception and warning types shared across the package, and the field check that raises ConfigError."""

import copyreg
import sys
from typing import Callable


class CentregError(Exception):
    """Base class for all package errors."""


class ConfigError(CentregError, ValueError):
    """Bad configuration field; the message starts with its JSON pointer or flag."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}" if pointer else message)
        self.pointer = pointer

    def __reduce__(self):  # args hold the message as raised, not (pointer, message): rebuilt without __init__
        return copyreg.__newobj__, (type(self), *self.args), self.__dict__


def _is_number(x, depth: int = 0) -> bool:
    """Whether x is a finite JSON number, not a boolean, or lists of them ``depth`` deep."""
    if depth:
        return isinstance(x, list) and all(_is_number(v, depth - 1) for v in x)
    # compared, not math.isfinite: that raises OverflowError on a large int
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


def _checked(d: dict, checks: dict, where: Callable[[str], str]) -> dict:
    """The fields of ``d`` that ``checks`` lists, each one accepted by its check.

    ``checks`` maps a field to (accepts, expectation); [accepts] wants a
    nonempty list of accepted items.  A bad field raises ConfigError at
    ``where(field)``, a bad item of a list field at ``where(field)/k``.
    """
    given = {k: v for k, v in d.items() if k in checks}
    for name, value in given.items():
        accepts, expected = checks[name]
        if not isinstance(accepts, list):
            items = [(where(name), value)]
        elif not isinstance(value, list) or not value:
            raise ConfigError(where(name), f"expected a nonempty list, got {value!r}")
        else:
            accepts, items = accepts[0], [(f"{where(name)}/{k}", v) for k, v in enumerate(value)]
        for pointer, item in items:
            if not accepts(item):
                raise ConfigError(pointer, f"expected {expected}, got {item!r}")
    return given


class InvalidSize(CentregError):
    """Node count too small for the requested operation."""


class InvalidSparsity(CentregError):
    """Sparsity scale outside (0, 1]."""


class InvalidGraphon(CentregError):
    """Graphon violates its construction invariants (range, symmetry, mass)."""


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
    """Confidence level alpha outside (0, 1), or too small for a finite normal quantile."""


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
