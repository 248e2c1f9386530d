"""Degree, diffusion, eigenvector and regularized-eigenvector centralities."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Optional, Union

import numpy as np
import scipy.sparse as sp

from .errors import (
    ConfigMismatch,
    DegenerateGapWarning,
    DegenerateSpectrum,
    EmptyGraph,
    InvalidBound,
    NoConvergence,
)
from .graph_model import FactoredMatrix, SymmetricBinaryMatrix, SymmetricWeightedMatrix

Matrix = Union[SymmetricWeightedMatrix, FactoredMatrix, SymmetricBinaryMatrix, "RegularizedMatrix"]

__all__ = [
    "DiffusionParams",
    "ScalingPolicy",
    "RegularizationSpec",
    "CentralityVector",
    "RegularizedMatrix",
    "degree",
    "diffusion",
    "leading_eigenpair",
    "eigenvector_centrality",
    "regularize",
]


@dataclass(frozen=True)
class DiffusionParams:
    """Decay delta in [0,1] and horizon T >= 1.

    ``delta_rule`` lets delta be tied to the observed spectrum:
    "fixed", "inverse-lambda1" (1/lam1) or "inverse-sqrt-lambda1" (1/sqrt(lam1)).
    The inference theory is implemented for fixed delta; the spectral rules
    are provided as conveniences for empirical work.
    """

    delta: Optional[float] = None
    T: int = 1
    delta_rule: str = "fixed"

    def __post_init__(self):
        if self.T < 1:
            raise ConfigMismatch(f"diffusion horizon must satisfy T >= 1, got {self.T}")
        if self.delta_rule == "fixed":
            if self.delta is None or not (0.0 <= self.delta <= 1.0):
                raise ConfigMismatch(f"fixed delta must lie in [0, 1], got {self.delta}")
        elif self.delta_rule not in ("inverse-lambda1", "inverse-sqrt-lambda1"):
            raise ConfigMismatch(f"unknown delta rule {self.delta_rule!r}")

    def resolve(self, m: Matrix, **eig_kwargs) -> float:
        if self.delta_rule == "fixed":
            return float(self.delta)
        lam1, _ = leading_eigenpair(m, **eig_kwargs)
        if lam1 <= 0:
            raise DegenerateSpectrum(f"delta rule {self.delta_rule} needs lambda1 > 0, got {lam1}")
        d = 1.0 / lam1 if self.delta_rule == "inverse-lambda1" else 1.0 / math.sqrt(lam1)
        return min(d, 1.0)


@dataclass(frozen=True)
class ScalingPolicy:
    """Eigenvector length a_n: fixed(a), sqrt-n, or sqrt-lambda1."""

    kind: str = "sqrt-lambda1"
    a: Optional[float] = None

    def __post_init__(self):
        if self.kind == "fixed":
            if self.a is None or self.a <= 0:
                raise ConfigMismatch("fixed scaling needs a > 0")
        elif self.kind not in ("sqrt-n", "sqrt-lambda1"):
            raise ConfigMismatch(f"unknown scaling policy {self.kind!r}")

    def resolve(self, n: int, lam1: float) -> float:
        if self.kind == "fixed":
            return float(self.a)
        if self.kind == "sqrt-n":
            return math.sqrt(n)
        if lam1 <= 0:
            raise DegenerateSpectrum(f"sqrt-lambda1 scaling needs lambda1 > 0, got {lam1}")
        return math.sqrt(lam1)


@dataclass(frozen=True)
class RegularizationSpec:
    """Edge down-weighting for high-degree vertices.

    Oracle mode uses the known sparsity scale (threshold 2 n p_n); plug-in
    mode estimates the scale from edge density and needs an explicit lower
    bound M on the graphon mass (threshold 3 n rho_hat / M).
    """

    mode: str
    p_n: Optional[float] = None
    M: Optional[float] = None

    def __post_init__(self):
        if self.mode == "oracle":
            if self.p_n is None or not (0.0 < self.p_n <= 1.0):
                raise InvalidBound(f"oracle regularization needs p_n in (0,1], got {self.p_n}")
        elif self.mode == "plug-in":
            if self.M is None or not (0.0 < self.M <= 1.0):
                raise InvalidBound(f"plug-in regularization needs M in (0,1], got {self.M}")
        else:
            raise InvalidBound(f"unknown regularization mode {self.mode!r}")

    def threshold(self, m: SymmetricBinaryMatrix) -> float:
        if self.mode == "oracle":
            return 2.0 * m.n * self.p_n
        rho_hat = m.total() / (m.n * (m.n - 1))
        return 3.0 * m.n * rho_hat / self.M


@dataclass(frozen=True)
class CentralityVector:
    """Per-node scores plus the recipe that produced them."""

    values: np.ndarray
    recipe: dict
    lambda1: Optional[float] = None
    node_weights: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    @property
    def n(self) -> int:
        return len(self.values)

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


# ---------------------------------------------------------------------------
# operations


def degree(m: Matrix) -> CentralityVector:
    """Row sums of the adjacency matrix."""
    return CentralityVector(values=m.row_sums(), recipe={"kind": "degree"})


def diffusion(m: Matrix, params: DiffusionParams, **eig_kwargs) -> CentralityVector:
    """C = sum_{t=1..T} delta^t A^t iota via repeated mat-vec products.

    Never forms matrix powers; cost is O(T * nnz).  ``eig_kwargs`` reach
    the eigensolve of a spectral delta rule.
    """
    delta = params.resolve(m, **eig_kwargs)
    v = np.ones(m.n)
    out = np.zeros(m.n)
    scale = 1.0
    for _ in range(params.T):
        v = m.matvec(v)
        scale *= delta
        out += scale * v
    return CentralityVector(
        values=out,
        recipe={"kind": "diffusion", "delta": delta, "T": params.T, "delta_rule": params.delta_rule},
    )


def leading_eigenpair(
    m: Matrix,
    tol: float = 1e-10,
    max_iter: int = 200_000,
    seed: int = 0,
    gap_check: bool = False,
):
    """Leading eigenpair by shifted power iteration.

    Residual criterion: ||A v - lam v|| <= tol * ||A||_F.  The positive
    shift keeps the iteration from oscillating on bipartite graphs where
    lam_min = -lam_max; for nonnegative matrices the Perron eigenvalue is
    the largest in absolute value, so the shifted iteration converges to
    the right pair.  Sign convention: sum(v) >= 0.
    """
    matvec, n, normF = m.matvec, m.n, m.frobenius()
    if normF == 0.0:
        raise EmptyGraph("leading eigenpair of the zero matrix is undefined")

    rng = np.random.default_rng(seed)
    v = rng.random(n) + 0.1
    v /= math.sqrt(v @ v)
    av = matvec(v)
    shift = 1.0
    lam = 0.0
    resid = np.inf
    for _ in range(max_iter):
        w = av + shift * v
        nw = math.sqrt(w @ w)
        if nw == 0.0:
            v = rng.random(n) + 0.1
            v /= math.sqrt(v @ v)
            av = matvec(v)
            continue
        v = w / nw
        av = matvec(v)
        lam = float(v @ av)
        r = av - lam * v
        resid = math.sqrt(r @ r)
        if resid <= tol * normF:
            break
    else:
        raise NoConvergence(
            f"power iteration did not reach tol={tol:g} in {max_iter} iterations "
            f"(residual {resid:.3g})",
            residual=resid,
        )

    if v.sum() < 0:
        v = -v
    if lam <= 0:
        raise DegenerateSpectrum(f"converged leading eigenvalue is nonpositive ({lam})")

    if gap_check:
        lam2 = _deflated_second_eigenvalue(matvec, n, v, lam, normF, tol, max_iter, seed)
        if lam2 is not None and abs(lam) - abs(lam2) < 1e-8 * abs(lam):
            warnings.warn(
                f"eigengap |lam1|-|lam2| = {abs(lam) - abs(lam2):.3g} below tolerance",
                DegenerateGapWarning,
                stacklevel=2,
            )
    return lam, v


def _deflated_second_eigenvalue(matvec, n, v1, lam1, normF, tol, max_iter, seed):
    """Power iteration on the deflated operator A - lam1 v1 v1'."""
    rng = np.random.default_rng(seed + 1)
    w = rng.standard_normal(n)
    w -= (w @ v1) * v1
    nw = math.sqrt(w @ w)
    if nw == 0:
        return None
    w /= nw
    aw = matvec(w) - lam1 * (v1 @ w) * v1
    shift = abs(lam1) + 1.0  # keep the deflated spectrum positive
    lam2 = None
    for _ in range(min(max_iter, 5000)):
        z = aw + shift * w
        z -= (z @ v1) * v1
        nz = math.sqrt(z @ z)
        if nz == 0:
            return None
        w = z / nz
        aw = matvec(w) - lam1 * (v1 @ w) * v1
        lam2 = float(w @ aw)
        r = aw - lam2 * w
        res = math.sqrt(r @ r)
        if res <= max(tol, 1e-9) * normF:
            break
    return lam2


def eigenvector_centrality(m: Matrix, scaling: ScalingPolicy, **eig_kwargs) -> CentralityVector:
    """C = a_n v1(A) with a_n resolved per policy; ||C|| = a_n by construction."""
    lam1, v1 = leading_eigenpair(m, **eig_kwargs)
    a_n = scaling.resolve(m.n, lam1)
    return CentralityVector(
        values=a_n * v1,
        recipe={"kind": "eigenvector", "scaling": scaling.kind, "a_n": a_n},
        lambda1=lam1,
    )


class RegularizedMatrix:
    """D^1/2 Ahat D^1/2 in CSR form, D = diag(node_weights).

    Keeps the node weights and the threshold that produced them.  The dense
    array behind ``entries`` is built only on request.
    """

    def __init__(self, weighted: sp.csr_matrix, node_weights: np.ndarray, threshold: float):
        self.weighted = weighted
        self.node_weights = node_weights
        self.threshold = threshold
        self.n = weighted.shape[0]
        self._entries = None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.weighted @ v

    def row_sums(self) -> np.ndarray:
        return np.asarray(self.weighted.sum(axis=1)).ravel()

    def total(self) -> float:
        return float(self.weighted.sum())

    def frobenius(self) -> float:
        data = self.weighted.data
        return math.sqrt(float(data @ data))

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            out = self.weighted.toarray()
            out.flags.writeable = False
            self._entries = out
        return self._entries


def regularize(m: SymmetricBinaryMatrix, spec: RegularizationSpec) -> RegularizedMatrix:
    """Down-weight edges of high-degree vertices.

    lambda_i = min(tau / deg_i, 1) with lambda_i = 1 for isolated nodes;
    output entries are sqrt(lambda_i lambda_j) * A_ij, the diagonal scaling
    D^1/2 Ahat D^1/2 of Le, Levina & Vershynin (2017), in O(n + nnz): a
    rescale of Ahat's data on its own sparsity pattern.  The
    guaranteed bound is lambda_i * deg_i <= tau per node, not a bound on the
    reweighted degrees themselves.
    """
    tau = spec.threshold(m)
    deg = m.row_sums()
    lam = np.ones(m.n)
    busy = deg > 0
    lam[busy] = np.minimum(tau / deg[busy], 1.0)
    root, full = np.sqrt(lam), m.full
    data = np.repeat(root, np.diff(full.indptr))  # sqrt(lambda_i) on row i's entries
    data *= root[full.indices]
    weighted = sp.csr_matrix((data, full.indices, full.indptr), shape=full.shape)
    weighted.has_canonical_format = True
    return RegularizedMatrix(weighted, lam, tau)


def regularized_eigenvector_centrality(
    m: SymmetricBinaryMatrix, scaling: ScalingPolicy, spec: RegularizationSpec, **eig_kwargs
) -> CentralityVector:
    """Leading eigenvector of the regularized adjacency, scaled by policy."""
    reg = regularize(m, spec)
    lam1, v1 = leading_eigenpair(reg, **eig_kwargs)
    a_n = scaling.resolve(m.n, lam1)
    return CentralityVector(
        values=a_n * v1,
        recipe={
            "kind": "regularized-eigenvector",
            "scaling": scaling.kind,
            "a_n": a_n,
            "mode": spec.mode,
        },
        lambda1=lam1,
        node_weights=reg.node_weights,
    )
