"""OLS on centrality vectors: bias and variance estimators, tests, intervals.

The regression is y_i = beta * C_i + eps_i with no intercept and no other
covariates.  Measurement error in the network attenuates the OLS slope; the
estimators here quantify the attenuation (B_hat), the sampling variance of
the de-biased statistic (V_hat), and the robust variance valid under the
zero null (V0_hat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np
from scipy.special import ndtr, ndtri

from .centrality import CentralityVector, DiffusionParams
from .errors import (
    ConfigMismatch,
    DegenerateSpectrum,
    DegenerateVariance,
    InvalidLevel,
    MissingComponents,
    NonpositiveAttenuation,
    ZeroRegressor,
)
from .graph_model import SymmetricBinaryMatrix
from .walks import BiasPolynomial, evaluate_b, reference_b

__all__ = [
    "RegressionFit",
    "TestResult",
    "Interval",
    "IntervalUnion",
    "ols",
    "degree_bias_variance",
    "diffusion_bias_variance",
    "eigen_bias_variance",
    "statistic",
    "test_beta",
    "confidence",
    "bias_correct",
]

MODES = (
    "no-error",
    "noisy-degree",
    "noisy-diffusion",
    "noisy-eigenvector-case-a",
    "noisy-eigenvector-case-b",
    "noisy-eigenvector-corollary-5",
)


@dataclass
class RegressionFit:
    """Slope estimate plus everything needed for tests and intervals."""

    beta_hat: float
    ssq_c: float
    residuals: np.ndarray
    V0_hat: float
    mode: str
    n: int
    B_hat: Optional[float] = None
    V_hat: Optional[float] = None
    lambda1: Optional[float] = None
    recipe: dict = field(default_factory=dict)

    @property
    def attenuation(self) -> Optional[float]:
        return None if self.B_hat is None else 1.0 - self.B_hat

    @property
    def beta_check(self) -> Optional[float]:
        if self.B_hat is None:
            return None
        if 1.0 - self.B_hat <= 1e-12:
            return None
        return self.beta_hat / (1.0 - self.B_hat)

    def to_json_dict(self) -> dict:
        return {
            "beta_hat": self.beta_hat,
            "B_hat": self.B_hat,
            "attenuation": self.attenuation,
            "beta_check": self.beta_check,
            "V_hat": self.V_hat,
            "V0_hat": self.V0_hat,
            "n": self.n,
            "mode": self.mode,
        }


@dataclass(frozen=True)
class TestResult:
    statistic: float
    p_value: float
    null_value: float
    sided: str
    reject_at: Dict[float, bool]
    branch: str


@dataclass(frozen=True)
class Interval:
    lo: float
    hi: float

    def contains(self, x: float) -> bool:
        return self.lo <= x <= self.hi

    def overlaps(self, other: "Interval") -> bool:
        return self.lo <= other.hi and other.lo <= self.hi


@dataclass(frozen=True)
class IntervalUnion:
    """C0, C, and their union C_star (1-2 disjoint intervals)."""

    c0: Interval
    c: Tuple[Interval, ...]
    c_star: Tuple[Interval, ...]
    alpha: float
    wraps: bool = False

    def contains(self, x: float) -> bool:
        return any(iv.contains(x) for iv in self.c_star)


# ---------------------------------------------------------------------------
# fitting


def ols(
    y: Sequence[float],
    c: Union[CentralityVector, np.ndarray],
    mode: str = "no-error",
    demean: bool = False,
) -> RegressionFit:
    """Slope through the origin: beta_hat = y'C / C'C, with robust V0.

    ``demean`` subtracts the sample means of y and C first.  The bias and
    variance theory in this package is developed for the no-intercept
    regression; demeaning is offered as a preprocessing convenience only.
    """
    if mode not in MODES:
        raise ConfigMismatch(f"unknown inference mode {mode!r}")
    y = np.asarray(y, dtype=np.float64)
    values = np.asarray(c, dtype=np.float64)
    if y.shape != values.shape:
        raise ConfigMismatch(f"outcome length {y.shape} != centrality length {values.shape}")
    if demean:
        y = y - y.mean()
        values = values - values.mean()
    ssq = float(values @ values)
    if ssq <= 0.0:
        raise ZeroRegressor("centrality vector is identically zero")
    beta_hat = float(y @ values) / ssq
    residuals = y - beta_hat * values
    V0 = float(np.sum(values**2 * residuals**2)) / ssq**2
    recipe = dict(c.recipe) if isinstance(c, CentralityVector) else {}
    lam1 = c.lambda1 if isinstance(c, CentralityVector) else None
    return RegressionFit(
        beta_hat=beta_hat,
        ssq_c=ssq,
        residuals=residuals,
        V0_hat=V0,
        mode=mode,
        n=len(y),
        lambda1=lam1,
        recipe=recipe,
    )


def degree_bias_variance(a_hat: SymmetricBinaryMatrix, fit: RegressionFit) -> Tuple[float, float]:
    """Theorem-level estimators for the degree regression.

    B_hat = iota' Ahat iota / sum C^2; V_hat is an edge-local sum over both
    orientations of every edge, cost O(nnz).
    """
    deg = a_hat.row_sums()
    ssq = fit.ssq_c
    B_hat = float(deg.sum()) / ssq
    rows, cols = a_hat.edge_arrays()
    pair = (deg[rows] + deg[cols]) ** 2
    # each undirected edge appears once in the upper triangle; the ordered sum
    # over j != i doubles it, and the leading 1/2 cancels that doubling
    V_hat = float(pair.sum()) / ssq**2
    fit.B_hat, fit.V_hat = B_hat, V_hat
    return B_hat, V_hat


def diffusion_bias_variance(
    a_hat: SymmetricBinaryMatrix,
    params: DiffusionParams,
    fit: RegressionFit,
    coeffs: Optional[BiasPolynomial] = None,
) -> Tuple[float, float]:
    """Theorem-level estimators for the diffusion regression.

    The bias combines the moments iota' Ahat^t iota (t <= 2T - 1) through
    b_T(t, delta); the variance is computed edge-locally from the vectors
    u_t = Ahat^(2T-t) iota and w_t = Ahat^(t-1) iota, total cost O(T nnz).
    """
    T = params.T
    if fit.recipe.get("T") is not None and fit.recipe["T"] != T:
        raise ConfigMismatch(f"fit built at T={fit.recipe['T']}, estimator called with T={T}")
    if coeffs is None:
        coeffs = reference_b(T)
    if coeffs.T != T:
        raise ConfigMismatch(f"coefficients are for T={coeffs.T}, centrality has T={T}")
    delta = fit.recipe.get("delta")
    if delta is None:
        delta = params.resolve(a_hat)

    powers = [np.ones(a_hat.n)]
    for _ in range(2 * T):
        powers.append(a_hat.matvec(powers[-1]))
    moments = [float(v.sum()) for v in powers]

    ssq = fit.ssq_c
    B_hat = evaluate_b(coeffs, delta, moments) / ssq

    rows, cols = a_hat.edge_arrays()
    m_upper = np.zeros(len(rows))
    m_lower = np.zeros(len(rows))
    for t in range(1, 2 * T + 1):
        u = powers[2 * T - t]
        w = powers[t - 1]
        m_upper += u[rows] * w[cols]
        m_lower += u[cols] * w[rows]
    edge_sum = float(np.sum(m_upper**2) + np.sum(m_lower**2))
    V_hat = 0.5 * delta ** (2 * T) * edge_sum / ssq**2
    fit.B_hat, fit.V_hat = B_hat, V_hat
    return B_hat, V_hat


def eigen_bias_variance(
    lambda1: float,
    c_hat: CentralityVector,
    a_hat: SymmetricBinaryMatrix,
    fit: RegressionFit,
) -> Tuple[float, float]:
    """B_hat = 1/lambda1 and the edge-local eigenvector variance estimator."""
    if lambda1 <= 0:
        raise DegenerateSpectrum(f"eigenvector inference needs lambda1 > 0, got {lambda1}")
    values = np.asarray(c_hat, dtype=np.float64)
    ssq = fit.ssq_c
    B_hat = 1.0 / lambda1
    rows, cols = a_hat.edge_arrays()
    sq = values**2
    pair = sq[rows] + sq[cols]
    # ordered sum over j != i is twice the upper-triangle sum
    V_hat = 2.0 * (2.0 * float(pair.sum())) / (lambda1 * ssq) ** 2
    fit.B_hat, fit.V_hat = B_hat, V_hat
    return B_hat, V_hat


# ---------------------------------------------------------------------------
# tests


def _sd(value, name: str):
    """Square root of a variance component.

    One fit's component must be present and positive; arrays of Monte Carlo
    draws pass NaN through.
    """
    if value is None:
        raise MissingComponents(f"nonzero null requires {name} (run the bias/variance estimator)")
    if np.ndim(value) == 0 and not value > 0.0:
        raise DegenerateVariance(f"{name} = {value:g}: the test statistic has no scale")
    return np.sqrt(value)


def statistic(mode: str, beta0: float, beta_hat, V0_hat, B_hat=None, V_hat=None):
    """The statistic for H0: beta = beta0 in ``mode``, and the branch taken.

    Components are one fit's scalars or equal-length arrays of Monte Carlo
    draws; ``test_beta`` and the simulation tables both call this.
    """
    if mode == "no-error":
        return (beta_hat - beta0) / _sd(V0_hat, "V0_hat"), "robust"
    if beta0 == 0.0:
        return beta_hat / _sd(V0_hat, "V0_hat"), "null-zero"
    if mode == "noisy-eigenvector-corollary-5":
        # with a_n = sqrt(lambda1(Ahat)) the bias is lower order; the robust
        # t applies to nonzero nulls as well
        return (beta_hat - beta0) / _sd(V0_hat, "V0_hat"), "corollary-5"
    if B_hat is None:
        raise MissingComponents("nonzero null requires B_hat (run the bias/variance estimator)")
    centered = beta_hat - beta0 * (1.0 - B_hat)
    if mode == "noisy-eigenvector-case-a":
        return centered / _sd(V0_hat, "V0_hat"), "null-nonzero"
    if mode == "noisy-eigenvector-case-b":
        return centered / _sd(V_hat, "V_hat"), "null-nonzero"
    return centered / (beta0 * _sd(V_hat, "V_hat")), "null-nonzero"


def test_beta(
    fit: RegressionFit,
    beta0: float,
    sided: str = "two",
    alphas: Sequence[float] = (0.05,),
) -> TestResult:
    """Test H0: beta = beta0.

    The statistic branches on beta0: the robust t under the zero null, the
    de-biased statistic otherwise (mode-dependent denominator).  One-sided
    p-values inherit the statistic's orientation; note that the nonzero-null
    statistic divides by beta0, so its sign flips with the sign of beta0.
    """
    if sided not in ("two", "left", "right"):
        raise ConfigMismatch(f"sided must be two|left|right, got {sided!r}")
    stat, branch = statistic(fit.mode, beta0, fit.beta_hat, fit.V0_hat, fit.B_hat, fit.V_hat)
    if sided == "two":
        p = 2.0 * (1.0 - ndtr(abs(stat)))
    elif sided == "right":
        p = float(1.0 - ndtr(stat))
    else:
        p = float(ndtr(stat))
    reject = {float(a): bool(p <= a) for a in alphas}
    return TestResult(
        statistic=float(stat),
        p_value=float(min(max(p, 0.0), 1.0)),
        null_value=float(beta0),
        sided=sided,
        reject_at=reject,
        branch="null-zero" if beta0 == 0.0 else branch,
    )


test_beta.__test__ = False  # keep pytest from collecting the library function


# ---------------------------------------------------------------------------
# confidence sets


def bias_correct(fit: RegressionFit) -> float:
    """beta_check = beta_hat / (1 - B_hat)."""
    if fit.B_hat is None:
        raise MissingComponents("bias correction requires B_hat")
    atten = 1.0 - fit.B_hat
    if atten <= 1e-12:
        raise NonpositiveAttenuation(f"1 - B_hat = {atten:.3g} is not positive")
    return fit.beta_hat / atten


def confidence(
    fit: RegressionFit,
    alpha: float,
    sided: str = "two",
    c0_policy: str = "interval",
) -> IntervalUnion:
    """Build C0, C and their union C_star at level alpha.

    C0 is the robust interval (or the singleton {0} under the
    ``singleton-zero`` policy).  C inverts the de-biased test; when a
    denominator 1 - B_hat -+ z sqrt(V_hat) is nonpositive the corresponding
    side opens to infinity, and when the two denominators straddle zero the
    set is the complement-shaped union of two half-lines (``wraps=True``).
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidLevel(f"alpha must lie in (0, 1), got {alpha}")
    if c0_policy not in ("interval", "singleton-zero"):
        raise ConfigMismatch(f"unknown c0 policy {c0_policy!r}")
    if sided not in ("two", "upper", "lower"):
        raise ConfigMismatch(f"interval sided must be two|upper|lower, got {sided!r}")

    z = float(ndtri(1.0 - alpha / 2.0)) if sided == "two" else float(ndtri(1.0 - alpha))
    sd0 = math.sqrt(fit.V0_hat)
    if c0_policy == "singleton-zero":
        c0 = Interval(0.0, 0.0)
    elif sided == "two":
        c0 = Interval(fit.beta_hat - z * sd0, fit.beta_hat + z * sd0)
    elif sided == "upper":
        c0 = Interval(-math.inf, fit.beta_hat + z * sd0)
    else:
        c0 = Interval(fit.beta_hat - z * sd0, math.inf)

    if fit.mode in ("no-error", "noisy-eigenvector-corollary-5"):
        # robust interval doubles as C
        c_set, wraps = (c0,), False
    elif fit.mode in ("noisy-eigenvector-case-a", "noisy-eigenvector-case-b"):
        c_set, wraps = _invert_linear(fit, z, sided), False
    else:
        if fit.B_hat is None or fit.V_hat is None:
            raise MissingComponents("confidence set requires B_hat and V_hat")
        c_set, wraps = _invert_debiased(fit, z, sided)

    star = _merge(c0, c_set)
    return IntervalUnion(c0=c0, c=c_set, c_star=star, alpha=alpha, wraps=wraps)


def _invert_linear(fit: RegressionFit, z: float, sided: str) -> Tuple[Interval, ...]:
    """Invert the eigenvector statistics whose denominator is free of beta0."""
    if fit.B_hat is None:
        raise MissingComponents("confidence set requires B_hat")
    if fit.mode == "noisy-eigenvector-case-b" and fit.V_hat is None:
        raise MissingComponents("case-b confidence set requires V_hat")
    sd = math.sqrt(fit.V0_hat if fit.mode == "noisy-eigenvector-case-a" else fit.V_hat)
    atten = 1.0 - fit.B_hat
    if atten <= 0.0:
        return (Interval(-math.inf, math.inf),)
    if sided == "two":
        lo, hi = (fit.beta_hat - z * sd) / atten, (fit.beta_hat + z * sd) / atten
        return (Interval(lo, hi),)
    if sided == "upper":
        return (Interval(-math.inf, (fit.beta_hat + z * sd) / atten),)
    return (Interval((fit.beta_hat - z * sd) / atten, math.inf),)


def _invert_debiased(fit: RegressionFit, z: float, sided: str) -> Tuple[Tuple[Interval, ...], bool]:
    b = fit.beta_hat
    atten = 1.0 - fit.B_hat
    sd = math.sqrt(fit.V_hat)

    if sided in ("upper", "lower"):
        # one-sided bound per the usual modification: the finite endpoint is
        # beta_hat / (1 - B_hat - z sqrt(V)); nonpositive denominator opens
        # the interval completely
        d = atten - z * sd
        if d <= 0:
            return (Interval(-math.inf, math.inf),), False
        end = b / d
        if sided == "upper":
            return (Interval(-math.inf, end),), False
        return (Interval(end, math.inf),), False

    d_plus = atten + z * sd
    d_minus = atten - z * sd

    if b == 0.0:
        # statistic reduces to |1 - B_hat| / sqrt(V_hat) for every beta0
        if abs(atten) <= z * sd:
            return (Interval(-math.inf, math.inf),), False
        return (Interval(0.0, 0.0),), False

    if d_minus > 0.0:
        lo, hi = sorted((b / d_plus, b / d_minus))
        return (Interval(lo, hi),), False
    if d_minus == 0.0:
        if b > 0:
            return (Interval(b / d_plus, math.inf),), False
        return (Interval(-math.inf, b / d_plus),), False
    if d_plus > 0.0:
        # denominators straddle zero: complement-shaped union
        lo, hi = sorted((b / d_plus, b / d_minus))
        return (Interval(-math.inf, lo), Interval(hi, math.inf)), True
    if d_plus == 0.0:
        if b > 0:
            return (Interval(-math.inf, b / d_minus),), False
        return (Interval(b / d_minus, math.inf),), False
    lo, hi = sorted((b / d_plus, b / d_minus))
    return (Interval(lo, hi),), False


def _merge(c0: Interval, c_set: Tuple[Interval, ...]) -> Tuple[Interval, ...]:
    pieces = sorted([c0, *c_set], key=lambda iv: (iv.lo, iv.hi))
    merged = [pieces[0]]
    for iv in pieces[1:]:
        last = merged[-1]
        if iv.lo <= last.hi:
            merged[-1] = Interval(last.lo, max(last.hi, iv.hi))
        else:
            merged.append(iv)
    return tuple(merged)
