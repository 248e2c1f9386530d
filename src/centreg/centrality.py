"""Degree, diffusion, eigenvector and regularized-eigenvector centralities."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Optional, Union

import numpy as np

from .errors import (
    ConfigMismatch,
    DegenerateGapWarning,
    DegenerateSpectrum,
    EmptyGraph,
    InvalidBound,
    NoConvergence,
)
from .graph_model import FactoredMatrix, SymmetricSparseMatrix

_KRYLOV = 8  # products per Lanczos restart cycle

# the values of the estimator spec fields delta_rule, scaling and reg_mode
DELTA_RULES = ("fixed", "inverse-lambda1", "inverse-sqrt-lambda1")
SCALINGS = ("sqrt-lambda1", "sqrt-n", "fixed")
REG_MODES = ("oracle", "plug-in")

Matrix = Union[FactoredMatrix, SymmetricSparseMatrix]

__all__ = [
    "DiffusionParams",
    "ScalingPolicy",
    "RegularizationSpec",
    "CentralityVector",
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
        elif self.delta_rule not in DELTA_RULES:
            raise ConfigMismatch(f"unknown delta rule {self.delta_rule!r}")

    def resolve(self, m: Matrix, **eig_kwargs) -> float:
        if self.delta_rule == "fixed":
            return float(self.delta)
        lam1, _ = leading_eigenpair(m, **eig_kwargs)  # raises DegenerateSpectrum unless lam1 > 0
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
        elif self.kind not in SCALINGS:
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
        if self.mode not in REG_MODES:
            raise InvalidBound(f"unknown regularization mode {self.mode!r}")
        if self.mode == "oracle" and (self.p_n is None or not (0.0 < self.p_n <= 1.0)):
            raise InvalidBound(f"oracle regularization needs p_n in (0,1], got {self.p_n}")
        if self.mode == "plug-in" and (self.M is None or not (0.0 < self.M <= 1.0)):
            raise InvalidBound(f"plug-in regularization needs M in (0,1], got {self.M}")

    def threshold(self, m: SymmetricSparseMatrix) -> float:
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
    """Leading eigenpair by thick-restart Lanczos (``_lanczos``).

    Residual criterion: ||A v - lam v|| <= tol * ||A||_F within ``max_iter``
    products with A.  The Perron eigenvalue of a nonnegative matrix is its
    largest algebraic one, so bipartite graphs need no shift.  Sign
    convention: sum(v) >= 0.  ``gap_check`` finds lam2 on the deflated
    (I - vv')(A + sI)(I - vv'), s = lam + 1, since Ritz values cannot see
    a repeated lam1.
    """
    matvec, n, normF = m.matvec, m.n, m.frobenius()
    if normF == 0.0:
        raise EmptyGraph("leading eigenpair of the zero matrix is undefined")

    lam, v, resid = _lanczos(matvec, n, tol * normF, max_iter, seed)
    if not resid <= tol * normF:
        raise NoConvergence(
            f"Lanczos did not reach tol={tol:g} in {max_iter} products (residual {resid:.3g})",
            residual=resid,
        )
    if v.sum() < 0:
        v = -v
    if lam <= 0:
        raise DegenerateSpectrum(f"converged leading eigenvalue is nonpositive ({lam})")

    if gap_check:
        s = lam + 1.0  # on v's complement the deflated spectrum lies in [1, lam2 + s]

        def deflated(w):
            w = w - (v @ w) * v
            w = matvec(w) + s * w
            return w - (v @ w) * v

        lam2 = _lanczos(deflated, n, max(tol, 1e-9) * normF, min(max_iter, 5000), seed + 1)[0] - s
        if abs(lam) - abs(lam2) < 1e-8 * abs(lam):
            warnings.warn(
                f"eigengap |lam1|-|lam2| = {abs(lam) - abs(lam2):.3g} below tolerance",
                DegenerateGapWarning,
                stacklevel=2,
            )
    return lam, v


def _lanczos(matvec, n, bound, max_iter, seed):
    """Top eigenpair of a symmetric operator by thick-restart Lanczos.

    A cycle of ``_KRYLOV`` products grows the Krylov space of the last top
    Ritz vector next to the second one, which separates a nearly tied top
    pair; each product is orthogonalized against the basis twice and fills
    the projected matrix H.  Its first product tests x: ||Ax - lam x|| <=
    bound, lam = x'Ax, accepts.  A residual above ``bound`` in the returned
    (lam, x, residual) means the ``max_iter`` products ran out.
    """
    basis = np.empty((_KRYLOV + 1, n))
    basis[0] = _start_vector(n, seed)
    H = np.zeros((_KRYLOV + 1, _KRYLOV + 1))
    lam, resid, products, m = 0.0, math.inf, 0, 1
    while products < max_iter:
        k, j = min(_KRYLOV, max_iter - products), 0
        for step in range(k):
            w, q = matvec(basis[j]), basis[:m]
            products += 1
            h = q @ w
            H[:m, j] = H[j, :m] = h
            if j == 0:
                r = w - h[0] * basis[0]
                resid = math.sqrt(r @ r)
                if resid <= bound:
                    return float(h[0]), basis[0].copy(), resid
            if step + 1 == k:
                break
            w -= h @ q
            w -= (q @ w) @ q
            b = math.sqrt(w @ w)
            if b <= bound:  # the basis spans an invariant subspace to within tolerance
                break
            np.divide(w, b, out=basis[m])
            j, m = m, m + 1
        theta, s = np.linalg.eigh(H[:m, :m])
        lam, m = float(theta[-1]), min(m, 2)
        basis[:m] = s[:, : -m - 1 : -1].T @ basis[: len(s)]  # top Ritz vector first
        H[m - 1, m - 1] = theta[-m]  # column 0 refills the rest of H[:m, :m]
    return lam, basis[0].copy(), resid


@lru_cache(maxsize=8)
def _start_vector(n: int, seed: int) -> np.ndarray:
    """The normalized Lanczos start vector for (n, seed), drawn once and kept read-only."""
    x = np.random.default_rng(seed).random(n) + 0.1
    x /= math.sqrt(x @ x)
    x.flags.writeable = False
    return x


def eigenvector_centrality(m: Matrix, scaling: ScalingPolicy, **eig_kwargs) -> CentralityVector:
    """C = a_n v1(A) with a_n resolved per policy; ||C|| = a_n by construction."""
    lam1, v1 = leading_eigenpair(m, **eig_kwargs)
    a_n = scaling.resolve(m.n, lam1)
    return CentralityVector(
        values=a_n * v1,
        recipe={"kind": "eigenvector", "scaling": scaling.kind, "a_n": a_n},
        lambda1=lam1,
    )


def regularize(m: SymmetricSparseMatrix, spec: RegularizationSpec) -> SymmetricSparseMatrix:
    """Down-weight edges of high-degree vertices.

    lambda_i = min(tau / deg_i, 1) with lambda_i = 1 for isolated nodes;
    output entries are sqrt(lambda_i lambda_j) * A_ij, the diagonal scaling
    D^1/2 Ahat D^1/2 of Le, Levina & Vershynin (2017), in O(n + nnz): a
    rescale of Ahat's upper-triangle data on its own sparsity pattern.  The
    output keeps the node weights and the threshold tau.  The guaranteed
    bound is lambda_i * deg_i <= tau per node, not a bound on the
    reweighted degrees themselves.
    """
    tau = spec.threshold(m)
    deg = m.row_sums()
    lam = np.ones(m.n)
    busy = deg > 0
    lam[busy] = np.minimum(tau / deg[busy], 1.0)
    root = np.sqrt(lam)
    rows, cols = m.edge_arrays()
    data = root[rows]
    data *= root[cols]
    return SymmetricSparseMatrix(m.n, m.indptr, m.rows, m.cols, data, node_weights=lam, threshold=tau)


def regularized_eigenvector_centrality(
    m: SymmetricSparseMatrix, scaling: ScalingPolicy, spec: RegularizationSpec, **eig_kwargs
) -> CentralityVector:
    """Leading eigenvector of the regularized adjacency, scaled by policy."""
    reg = regularize(m, spec)
    c = eigenvector_centrality(reg, scaling, **eig_kwargs)
    recipe = {**c.recipe, "kind": "regularized-eigenvector", "mode": spec.mode}
    return CentralityVector(c.values, recipe, c.lambda1, node_weights=reg.node_weights)
