"""Degree, diffusion, eigenvector and regularized-eigenvector centralities."""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateGapWarning,
    DegenerateSpectrum,
    EmptyGraph,
    NoConvergence,
    _checked,
    _is_number,
)
from .graph_model import FactoredMatrix, SymmetricSparseMatrix

_KRYLOV = 8  # products per Lanczos restart cycle

# the values of the estimator spec fields delta_rule, scaling and reg_mode
DELTA_RULES = ("fixed", "inverse-lambda1", "inverse-sqrt-lambda1")
SCALINGS = ("sqrt-lambda1", "sqrt-n", "fixed")
REG_MODES = ("oracle", "plug-in")

# estimator spec field -> (accepts, expectation), for configs, flags and the
# keywords of the centralities below; ``type(v) is int`` leaves out bool
SPEC_CHECKS = {
    "delta": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "T": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "delta_rule": (lambda v: v in DELTA_RULES, f"one of {DELTA_RULES}"),
    "scaling": (lambda v: v in SCALINGS, f"one of {SCALINGS}"),
    "a": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    "reg_mode": (lambda v: v in REG_MODES, f"one of {REG_MODES}"),
    "p_n": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "M": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
}
# (field, value, the field that value requires)
_REQUIRES = (("scaling", "fixed", "a"), ("reg_mode", "plug-in", "M"), ("reg_mode", "oracle", "p_n"))

Matrix = Union[FactoredMatrix, SymmetricSparseMatrix]

__all__ = [
    "CentralityVector",
    "degree",
    "diffusion",
    "leading_eigenpair",
    "eigenvector_centrality",
    "regularize",
]


def check_spec(where: Callable[[str], str] = str, **fields) -> None:
    """Check estimator spec fields; a bad one raises ConfigError at ``where(field)``.

    A field given as None is unset, and each set one must pass SPEC_CHECKS.
    A field that another one's value requires must be set where it is given:
    ``a`` under fixed scaling, ``M`` under plug-in and ``p_n`` under oracle
    regularization.  By default the error names the field itself.
    """
    given = _checked({k: v for k, v in fields.items() if v is not None}, SPEC_CHECKS, where)
    for by, value, name in _REQUIRES:
        if given.get(by) == value and name in fields and name not in given:
            raise ConfigError(where(name), f"{value} {'scaling' if by == 'scaling' else 'regularization'} needs {name}")


@dataclass(frozen=True)
class CentralityVector:
    """Per-node scores plus the recipe that produced them."""

    values: np.ndarray
    recipe: dict
    lambda1: Optional[float] = None
    node_weights: Optional[np.ndarray] = field(default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "values", np.asarray(self.values, dtype=np.float64))

    def __array__(self, dtype=None):
        return np.asarray(self.values, dtype=dtype)


# ---------------------------------------------------------------------------
# operations


def degree(m: Matrix) -> CentralityVector:
    """Row sums of the adjacency matrix."""
    return CentralityVector(values=m.row_sums(), recipe={"kind": "degree"})


def diffusion(m: Matrix, delta: float = 1.0, T: int = 2, delta_rule: str = "fixed", **eig_kwargs) -> CentralityVector:
    """C = sum_{t=1..T} delta^t A^t iota over the matrix's walk vectors (``powers``).

    Never forms matrix powers; cost is O(T * nnz).  ``delta_rule`` ties delta
    to the spectrum: "inverse-lambda1" takes min(1/lambda1, 1) and
    "inverse-sqrt-lambda1" min(1/sqrt(lambda1), 1) in place of ``delta``;
    ``eig_kwargs`` reach that eigensolve.  The inference theory is for a
    fixed delta.
    """
    check_spec(delta=delta, T=T, delta_rule=delta_rule)
    if delta_rule == "fixed":
        delta = float(delta)
    else:
        lam1, _ = leading_eigenpair(m, **eig_kwargs)  # raises DegenerateSpectrum unless lam1 > 0
        delta = min(1.0 / lam1 if delta_rule == "inverse-lambda1" else 1.0 / math.sqrt(lam1), 1.0)
    out = np.zeros(m.n)
    scale = 1.0
    for v in m.powers(T)[1:]:
        scale *= delta
        out += scale * v
    return CentralityVector(
        values=out,
        recipe={"kind": "diffusion", "delta": delta, "T": T, "delta_rule": delta_rule},
    )


def leading_eigenpair(
    m: Matrix,
    tol: float = 1e-10,
    max_iter: int = 200_000,
    gap_check: bool = False,
):
    """Leading eigenpair by thick-restart Lanczos (``_lanczos``) from iota / sqrt(n).

    Residual criterion: ||A v - lam v|| <= tol * ||A||_F within ``max_iter``
    products with A.  The first, A iota, is read off the walk vectors
    (``powers``) of a matrix that has them and still counts.  The Perron
    vector of a nonnegative matrix is not orthogonal to iota, and its
    eigenvalue is the largest algebraic one, so bipartite graphs need no
    shift.  The solve is deterministic; sign convention: sum(v) >= 0.
    ``gap_check`` finds lam2 on the deflated (I - vv')(A + sI)(I - vv'),
    s = lam + 1, since Ritz values cannot see a repeated lam1, from a fixed
    random start: (I - vv') iota can be an eigenvector, as on a star.
    """
    matvec, n, normF = m.matvec, m.n, m.frobenius()
    if normF == 0.0:
        raise EmptyGraph("leading eigenpair of the zero matrix is undefined")

    a_iota = m.powers(1)[1] if hasattr(m, "powers") else matvec(np.ones(n))
    lam, v, resid = _lanczos(matvec, np.full(n, 1.0 / math.sqrt(n)), a_iota / math.sqrt(n), tol * normF, max_iter)
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

        x = np.random.default_rng(1).random(n) + 0.1
        lam2 = _lanczos(deflated, x / math.sqrt(x @ x), None, max(tol, 1e-9) * normF, min(max_iter, 5000))[0] - s
        if abs(lam) - abs(lam2) < 1e-8 * abs(lam):
            warnings.warn(
                f"eigengap |lam1|-|lam2| = {abs(lam) - abs(lam2):.3g} below tolerance",
                DegenerateGapWarning,
                stacklevel=2,
            )
    return lam, v


def _lanczos(matvec, x, ax, bound, max_iter):
    """Top eigenpair of a symmetric operator by thick-restart Lanczos from the unit vector x.

    ``ax`` is A x where the caller holds it, else None; it stands in for the
    first product, which counts against ``max_iter`` all the same.  A cycle
    of ``_KRYLOV`` products grows the Krylov space of the last top Ritz
    vector next to the second one, which separates a nearly tied top pair;
    each product is orthogonalized against the basis twice and fills the
    projected matrix H.  A cycle's first product tests its start x:
    ||Ax - lam x|| <= bound, lam = x'Ax, accepts.  A residual above
    ``bound`` in the returned (lam, x, residual) means the ``max_iter``
    products ran out.
    """
    basis = np.empty((_KRYLOV + 1, len(x)))
    basis[0] = x
    H = np.zeros((_KRYLOV + 1, _KRYLOV + 1))
    lam, resid, products, m = 0.0, math.inf, 0, 1
    while products < max_iter:
        k, j = min(_KRYLOV, max_iter - products), 0
        for step in range(k):
            w, ax, q = matvec(basis[j]) if ax is None else ax, None, basis[:m]
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


def eigenvector_centrality(
    m: Matrix, scaling: str = "sqrt-lambda1", a: Optional[float] = None, **eig_kwargs
) -> CentralityVector:
    """C = a_n v1(A), so ||C|| = a_n: ``a`` under "fixed" scaling, else sqrt(n) or sqrt(lambda1)."""
    check_spec(scaling=scaling, a=a)
    lam1, v1 = leading_eigenpair(m, **eig_kwargs)  # raises DegenerateSpectrum unless lam1 > 0
    a_n = float(a) if scaling == "fixed" else math.sqrt(m.n if scaling == "sqrt-n" else lam1)
    return CentralityVector(
        values=a_n * v1,
        recipe={"kind": "eigenvector", "scaling": scaling, "a_n": a_n},
        lambda1=lam1,
    )


def regularize(
    m: SymmetricSparseMatrix, reg_mode: str = "oracle", p_n: Optional[float] = None, M: Optional[float] = None
) -> SymmetricSparseMatrix:
    """Down-weight edges of high-degree vertices.

    The threshold is tau = 2 n p_n in "oracle" mode, from the known sparsity
    scale, and tau = 3 n rho_hat / M in "plug-in" mode, from the edge density
    and a lower bound M on the graphon mass.
    lambda_i = min(tau / deg_i, 1) with lambda_i = 1 for isolated nodes;
    output entries are sqrt(lambda_i lambda_j) * A_ij, the diagonal scaling
    D^1/2 Ahat D^1/2 of Le, Levina & Vershynin (2017), in O(n + nnz): a
    rescale of Ahat's upper-triangle data on its own sparsity pattern.  When
    no degree exceeds tau, D = I and the output shares the input's arrays
    and walk vectors.
    The output keeps the node weights and the threshold tau.  The guaranteed
    bound is lambda_i * deg_i <= tau per node, not a bound on the
    reweighted degrees themselves.
    """
    check_spec(reg_mode=reg_mode, p_n=p_n, M=M)
    if reg_mode == "oracle":
        tau = 2.0 * m.n * p_n
    else:
        rho_hat = m.total() / (m.n * (m.n - 1))
        tau = 3.0 * m.n * rho_hat / M
    deg = m.row_sums()
    lam = np.ones(m.n)
    if deg.max() <= tau:
        out = SymmetricSparseMatrix(m.n, m.indptr, m.rows, m.cols, m.data, node_weights=lam, threshold=tau)
        out._krylov = m._krylov  # the same entries, so the same walk vectors
        return out
    busy = deg > 0
    lam[busy] = np.minimum(tau / deg[busy], 1.0)
    root = np.sqrt(lam)
    rows, cols = m.edge_arrays()
    data = root[rows]
    data *= root[cols]
    data *= m.data
    return SymmetricSparseMatrix(m.n, m.indptr, m.rows, m.cols, data, node_weights=lam, threshold=tau)


def regularized_eigenvector_centrality(
    m: SymmetricSparseMatrix,
    scaling: str = "sqrt-lambda1",
    a: Optional[float] = None,
    reg_mode: str = "oracle",
    p_n: Optional[float] = None,
    M: Optional[float] = None,
    **eig_kwargs,
) -> CentralityVector:
    """Eigenvector centrality of ``regularize(m, reg_mode, p_n, M)``."""
    reg = regularize(m, reg_mode, p_n, M)
    c = eigenvector_centrality(reg, scaling, a, **eig_kwargs)
    recipe = {**c.recipe, "kind": "regularized-eigenvector", "mode": reg_mode}
    return CentralityVector(c.values, recipe, c.lambda1, node_weights=reg.node_weights)
