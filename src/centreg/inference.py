"""OLS on centrality vectors: bias and variance estimators, tests, intervals.

The regression is y_i = beta * C_i + eps_i with no intercept and no other
covariates.  Measurement error in the network attenuates the OLS slope; the
estimators here quantify the attenuation (B_hat), the sampling variance of
the de-biased statistic (V_hat), and the robust variance valid under the
zero null (V0_hat).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Dict, Optional, Sequence, Tuple, Union

import numpy as np

from .centrality import CentralityVector
from .errors import (
    ConfigMismatch,
    DegenerateSpectrum,
    DegenerateVariance,
    InvalidLevel,
    MissingComponents,
    NonFiniteCentrality,
    NonpositiveAttenuation,
    ZeroRegressor,
)
from .graph_model import SymmetricSparseMatrix
from .walks import evaluate_b, reference_b

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
    "critical_value",
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


@dataclass(eq=False)
class RegressionFit:
    """Slope estimate plus everything needed for tests and intervals; compared by identity."""

    beta_hat: float
    ssq_c: float
    residuals: np.ndarray
    V0_hat: float
    mode: str
    n: int
    B_hat: Optional[float] = None
    V_hat: Optional[float] = None
    # the centrality regressed on; None for a plain array
    centrality: Optional[CentralityVector] = None

    @property
    def attenuation(self) -> Optional[float]:
        return None if self.B_hat is None else 1.0 - self.B_hat

    @property
    def beta_check(self) -> Optional[float]:
        """beta_hat / (1 - B_hat); None without B_hat or where 1 - B_hat is not positive."""
        if self.B_hat is None or 1.0 - self.B_hat <= 1e-12:
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
    regression, so demeaning is allowed in the no-error mode alone.
    """
    if mode not in MODES:
        raise ConfigMismatch(f"unknown inference mode {mode!r}")
    if demean and mode != "no-error":
        raise ConfigMismatch(f"demean=True needs the no-error mode: B_hat and V_hat assume no intercept, got {mode!r}")
    y = np.asarray(y, dtype=np.float64)
    values = np.asarray(c, dtype=np.float64)
    if y.shape != values.shape:
        raise ConfigMismatch(f"outcome length {y.shape} != centrality length {values.shape}")
    bad = np.flatnonzero(~np.isfinite(values))
    if len(bad):
        raise NonFiniteCentrality(f"centrality {bad[0]} is {values[bad[0]]}, not finite")
    if demean:
        y = y - y.mean()
        values = values - values.mean()
    ssq = float(values @ values)
    if ssq <= 0.0:
        raise ZeroRegressor("centrality vector is identically zero")
    beta_hat = float(y @ values) / ssq
    residuals = y - beta_hat * values
    V0 = float(np.sum(values**2 * residuals**2)) / ssq**2
    return RegressionFit(
        beta_hat=beta_hat,
        ssq_c=ssq,
        residuals=residuals,
        V0_hat=V0,
        mode=mode,
        n=len(y),
        centrality=c if isinstance(c, CentralityVector) else None,
    )


def _fitted(fit: RegressionFit, kinds: Tuple[Optional[str], ...]) -> Optional[CentralityVector]:
    """The fit's centrality, whose kind (None for a plain array) must be one of ``kinds``."""
    c = fit.centrality
    kind = None if c is None else c.recipe.get("kind")
    if kind not in kinds:
        got = "a plain array" if c is None else f"a {kind} centrality"
        want = " or ".join(filter(None, kinds))
        raise ConfigMismatch(f"{kinds[0]} B_hat/V_hat needs a fit on a {want} centrality, got {got}")
    return c


def degree_bias_variance(a_hat: SymmetricSparseMatrix, fit: RegressionFit) -> Tuple[float, float]:
    """Theorem-level estimators for the degree regression on a binary Ahat.

    The fit is on a degree centrality or a plain array.  B_hat = iota' Ahat
    iota / sum C^2.  V_hat sums (d_i + d_j)^2 over the edges ij, once each
    (the ordered sum over j != i doubles it, and the leading 1/2 cancels
    that doubling).  Node i lies on d_i edges, so the sum is
    sum_i d_i^3 + d' Ahat d, with d and Ahat d = Ahat^2 iota read off Ahat's
    walk vectors (``powers``): O(n) past those two shared products.  Every
    term is an integer, so the sum is exact while it stays below 2^53.
    """
    _fitted(fit, ("degree", None))
    _, deg, deg2 = a_hat.powers(2)
    ssq = fit.ssq_c
    B_hat = float(deg.sum()) / ssq
    V_hat = (float(deg @ (deg * deg)) + float(deg @ deg2)) / ssq**2
    fit.B_hat, fit.V_hat = B_hat, V_hat
    return B_hat, V_hat


def diffusion_bias_variance(a_hat: SymmetricSparseMatrix, fit: RegressionFit) -> Tuple[float, float]:
    """Theorem-level estimators for the diffusion regression.

    delta and T are the fit's.  The bias combines the moments iota' Ahat^t
    iota (t <= 2T - 1) through b_T(t, delta); the variance is computed
    edge-locally from the vectors u_t = Ahat^(2T-t) iota and
    w_t = Ahat^(t-1) iota, Ahat's walk vectors (``powers``): cost O(T nnz).
    """
    recipe = _fitted(fit, ("diffusion",)).recipe
    T, delta = recipe["T"], recipe["delta"]
    coeffs = reference_b(T)

    powers = a_hat.powers(2 * T)
    moments = [float(v.sum()) for v in powers]

    ssq = fit.ssq_c
    B_hat = evaluate_b(coeffs, delta, moments) / ssq

    # M_ij = sum_t u_t[i] w_t[j] for each edge i < j.  Term t of M_ji is term
    # 2T + 1 - t of M_ij, so the two orientations sum to 2 sum M_ij^2
    rows, cols = a_hat.edge_arrays()
    top = powers[2 * T - 1]
    m = top[rows] + top[cols]  # t = 1 and t = 2T, where w_1 = u_2T = iota
    for t in range(2, 2 * T):
        m += powers[2 * T - t][rows] * powers[t - 1][cols]
    V_hat = delta ** (2 * T) * float(m @ m) / ssq**2
    fit.B_hat, fit.V_hat = B_hat, V_hat
    return B_hat, V_hat


def eigen_bias_variance(a_hat: SymmetricSparseMatrix, fit: RegressionFit) -> Tuple[float, float]:
    """B_hat = 1/lambda1 and the eigenvector variance estimator on a binary Ahat.

    c and lambda1 are the fit's.  V_hat sums c_i^2 + c_j^2 over both
    orientations of every edge ij; node i lies on d_i edges, so that is
    4 sum_i c_i^2 d_i / (lambda1 ssq)^2, O(n).
    """
    c_hat = _fitted(fit, ("eigenvector", "regularized-eigenvector"))
    lambda1 = c_hat.lambda1
    if lambda1 is None or not lambda1 > 0:
        raise DegenerateSpectrum(f"eigenvector inference needs lambda1 > 0, got {lambda1}")
    values = c_hat.values
    ssq = fit.ssq_c
    B_hat = 1.0 / lambda1
    V_hat = 4.0 * float((values * values) @ a_hat.row_sums()) / (lambda1 * ssq) ** 2
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


def _form(mode: str, B_hat, V0_hat, V_hat):
    """(a, s, t, branch): for beta0 != 0 the statistic is (beta_hat - a beta0) / (s + t beta0).

    ``a`` is the mode's attenuation; its scale is free of beta0 (``s``) or
    proportional to it (``t``).  ``statistic`` evaluates this form and
    ``confidence`` inverts it.
    """
    if mode in ("no-error", "noisy-eigenvector-corollary-5"):
        # with a_n = sqrt(lambda1(Ahat)) the corollary-5 bias is lower order;
        # the robust t applies to nonzero nulls as well
        return 1.0, _sd(V0_hat, "V0_hat"), 0.0, "robust" if mode == "no-error" else "corollary-5"
    if B_hat is None:
        raise MissingComponents("nonzero null requires B_hat (run the bias/variance estimator)")
    if mode == "noisy-eigenvector-case-a":
        return 1.0 - B_hat, _sd(V0_hat, "V0_hat"), 0.0, "null-nonzero"
    if mode == "noisy-eigenvector-case-b":
        return 1.0 - B_hat, _sd(V_hat, "V_hat"), 0.0, "null-nonzero"
    return 1.0 - B_hat, 0.0, _sd(V_hat, "V_hat"), "null-nonzero"


def statistic(mode: str, beta0: float, beta_hat, V0_hat, B_hat=None, V_hat=None):
    """The statistic for H0: beta = beta0 in ``mode``, and the branch taken.

    Components are one fit's scalars or equal-length arrays of Monte Carlo
    draws; ``test_beta`` and the simulation tables both call this.
    """
    if beta0 == 0.0 and mode != "no-error":
        return beta_hat / _sd(V0_hat, "V0_hat"), "null-zero"
    a, s, t, branch = _form(mode, B_hat, V0_hat, V_hat)
    return (beta_hat - a * beta0) / (s + t * beta0), branch


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
        p = 2.0 * (1.0 - _NORMAL.cdf(abs(stat)))
    elif sided == "right":
        p = 1.0 - _NORMAL.cdf(stat)
    else:
        p = _NORMAL.cdf(stat)
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


_NORMAL = NormalDist()
ALPHA_MIN = 2.0**-53  # at or below it 1 - alpha / 2 rounds to 1, whose normal quantile is infinite


def critical_value(alpha: float, sided: str = "two") -> float:
    """The standard normal quantile z with P(|Z| > z) = alpha, or P(Z > z) = alpha one-sided."""
    q = 1.0 - alpha / 2.0 if sided == "two" else 1.0 - alpha
    if not 0.0 < q < 1.0:
        raise InvalidLevel(f"alpha = {alpha} has no finite normal quantile")
    return _NORMAL.inv_cdf(q)


# ---------------------------------------------------------------------------
# confidence sets


def bias_correct(fit: RegressionFit) -> float:
    """The fit's beta_check = beta_hat / (1 - B_hat), or an error saying why it has none."""
    if fit.B_hat is None:
        raise MissingComponents("bias correction requires B_hat")
    if fit.beta_check is None:
        raise NonpositiveAttenuation(f"1 - B_hat = {fit.attenuation:.3g} is not positive")
    return fit.beta_check


def confidence(
    fit: RegressionFit,
    alpha: float,
    sided: str = "two",
    c0_policy: str = "interval",
) -> IntervalUnion:
    """Build C0, C and their union C_star at level alpha.

    C is the set of beta0 that the fit's ``statistic`` keeps: an interval, a
    half-line, the real line, none (an empty tuple) or, for degree and
    diffusion, the union of two half-lines (``wraps=True``).  C0 is the set
    the robust t keeps (or the singleton {0} under the ``singleton-zero``
    policy).  One-sided degree and diffusion bounds follow a convention
    instead: the endpoint is beta_hat / (1 - B_hat - z sqrt(V_hat)), and a
    nonpositive denominator opens the set to the real line.
    """
    if not (0.0 < alpha < 1.0):
        raise InvalidLevel(f"alpha must lie in (0, 1), got {alpha}")
    if c0_policy not in ("interval", "singleton-zero"):
        raise ConfigMismatch(f"unknown c0 policy {c0_policy!r}")
    if sided not in ("two", "upper", "lower"):
        raise ConfigMismatch(f"interval sided must be two|upper|lower, got {sided!r}")

    z = critical_value(alpha, sided)
    c_set = _invert(fit.beta_hat, _form(fit.mode, fit.B_hat, fit.V0_hat, fit.V_hat), z, sided)
    if c0_policy == "singleton-zero":
        c0 = Interval(0.0, 0.0)
    else:
        (c0,) = _invert(fit.beta_hat, _form("no-error", None, fit.V0_hat, None), z, sided)
    star = _merge(c0, c_set)
    return IntervalUnion(c0=c0, c=c_set, c_star=star, alpha=alpha, wraps=len(c_set) == 2)


_REAL = Interval(-math.inf, math.inf)


def _invert(beta_hat, form, z: float, sided: str) -> Tuple[Interval, ...]:
    """The beta0 that the test of ``form`` keeps at critical value z.

    Two-sided, |b - a x| <= z |s + t x| factors as (p1 - q1 x)(p2 - q2 x) <= 0;
    an upper bound keeps p2 - q2 x >= 0 and a lower bound p1 - q1 x <= 0.
    """
    a, s, t = (float(v) for v in form[:3])
    b = float(beta_hat)
    p1, q1 = b - z * s, a + z * t
    p2, q2 = b + z * s, a - z * t
    if sided != "two" and t:
        # the degree/diffusion convention, not an inversion of the statistic
        if q2 <= 0.0:
            return (_REAL,)
        return (Interval(-math.inf, b / q2),) if sided == "upper" else (Interval(b / q2, math.inf),)
    if sided != "two":
        return _keeps(-1.0, p2, q2) if sided == "upper" else _keeps(1.0, p1, q1)
    if q1 == 0.0:
        return _keeps(p1, p2, q2)
    if q2 == 0.0:
        return _keeps(p2, p1, q1)
    lo, hi = sorted((p1 / q1, p2 / q2))
    if (q1 > 0.0) != (q2 > 0.0):
        # the product opens downward: all but the gap between the roots
        return (Interval(-math.inf, lo), Interval(hi, math.inf)) if lo < hi else (_REAL,)
    # + 0.0: the point {0} of a degree or diffusion fit with beta_hat = 0 reads 0.0, not -0.0
    return (Interval(lo, hi) if lo < hi else Interval(lo + 0.0, hi + 0.0),)


def _keeps(c: float, p: float, q: float) -> Tuple[Interval, ...]:
    """The x with c (p - q x) <= 0: a half-line, the real line, or none (an empty tuple)."""
    if c == 0.0 or (q == 0.0 and (p == 0.0 or (c > 0.0) != (p > 0.0))):
        return (_REAL,)
    if q == 0.0:
        return ()
    end = p / q
    return (Interval(end, math.inf),) if (c > 0.0) == (q > 0.0) else (Interval(-math.inf, end),)


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
