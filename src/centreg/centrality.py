"""Degree, diffusion, eigenvector and regularized-eigenvector centralities."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable, Optional, Union

import numpy as np

from .errors import (
    ConfigError,
    DegenerateSpectrum,
    EmptyGraph,
    NoConvergence,
    _checked,
    _is_number,
)
from .graph_model import FactoredMatrix, SymmetricSparseMatrix

_KRYLOV = 8  # Lanczos basis size at which the Ritz estimate is first read
_BASIS = 24  # Lanczos basis size at which a cycle restarts
EIG_TOL, EIG_MAX_ITER = 1e-10, 50_000  # an eigensolve's default residual tolerance and budget of products

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


def leading_eigenpair(m: Matrix, tol: float = EIG_TOL, max_iter: int = EIG_MAX_ITER):
    """Leading eigenpair by thick-restart Lanczos (``_lanczos``) from iota / sqrt(n).

    Residual criterion: ||A v - lam v|| <= tol * ||A||_F within ``max_iter``
    products with A.  The first, A iota, is read off the matrix's walk
    vectors (``powers``) and still counts.  The Perron vector of a
    nonnegative matrix is not orthogonal to iota, and its eigenvalue is the
    largest algebraic one, so bipartite graphs need no shift.  The solve is
    deterministic; sign convention: sum(v) >= 0.  A matrix keeps its pairs
    per (tol, max_iter) next to its walk vectors, so a later call on it or
    on a matrix sharing its entries returns the same read-only v with no
    product.
    """
    n, normF = m.n, m.frobenius()
    if normF == 0.0:
        raise EmptyGraph("leading eigenpair of the zero matrix is undefined")

    pairs = m._krylov[1]  # shared by the matrices with m's entries
    if (tol, max_iter) not in pairs:
        lam, v, resid = _lanczos(m.matvec, np.full(n, 1.0 / math.sqrt(n)), m.powers(1)[1] / math.sqrt(n),
                                 tol * normF, max_iter)
        if not resid <= tol * normF:
            raise NoConvergence(
                f"Lanczos did not reach tol={tol:g} in {max_iter} products (residual {resid:.3g})",
                residual=resid,
            )
        if v.sum() < 0:
            v = -v
        if lam <= 0:
            raise DegenerateSpectrum(f"converged leading eigenvalue is nonpositive ({lam})")
        v.flags.writeable = False
        pairs[tol, max_iter] = lam, v
    return pairs[tol, max_iter]


def _lanczos(matvec, x, ax, bound, max_iter):
    """Top eigenpair of a symmetric operator by thick-restart Lanczos from the unit vector x.

    ``ax`` is A x, which the caller holds; it stands in for the first
    product, which counts against ``max_iter`` all the same.  A step
    extends the basis V by the three-term recurrence and projects out the
    kept Ritz vectors, so besides its product it costs O(n) whatever the
    basis size.  The Ritz estimate b |s_m| of the top pair of the projected
    matrix T is read once V holds ``_KRYLOV`` vectors, then every second
    step, and on the next step too where its rate of fall predicts a pass
    there.  Once it is at most ``bound``, one more product gives the Ritz
    vector y's true residual ||Ay - lam y||, lam = y'Ay, which alone
    accepts, as does the first product's residual of x.  A full basis of
    ``_BASIS`` vectors restarts thick (Wu & Simon 2000) from the top two
    Ritz vectors, which separate a nearly tied top pair, and the residual.
    A residual above ``bound`` in the returned (lam, y, residual), the
    last pair tested, means the ``max_iter`` products ran out.
    """
    V = np.empty((_BASIS, len(x)))  # k kept Ritz vectors, then Lanczos vectors; memory is touched row by row
    V[0], T = x, np.zeros((_BASIS, _BASIS))  # T = V'AV
    j = k = products = 0
    due, last = _KRYLOV, 0.0  # the next basis size to read the estimate at, and the last estimate read
    while True:
        w, ax = matvec(V[j]) if ax is None else ax, None
        products += 1
        if j > k:
            w -= T[j, j - 1] * V[j - 1]
        if k:
            T[:k, j] = T[j, :k] = h = V[:k] @ w
            w -= h @ V[:k]
        T[j, j] = a = V[j] @ w
        w -= a * V[j]
        b, m = math.sqrt(w @ w), j + 1
        if j == 0:  # the start's own residual; (lam, y, resid) is the last pair tested
            lam, y, resid = float(a), V[0].copy(), b
        elif b <= bound or m == _BASIS or m == due:
            theta, s = np.linalg.eigh(T[:m, :m])
            est = b * abs(s[-1, -1])
            # read the next step too where the estimate's rate of fall predicts a pass there
            due, last = m + 1 if est**3 <= bound**2 * last else m + 2, est
            if est <= bound and products < max_iter:
                y = s[:, -1] @ V[:m]
                y /= math.sqrt(y @ y)
                r, products = matvec(y), products + 1
                lam = float(y @ r)
                resid = float(np.linalg.norm(r - lam * y))
        if resid <= bound or products == max_iter:
            return lam, y, resid
        if b > bound and m < _BASIS:
            np.multiply(w, 1.0 / b, out=V[m])
            T[j, m] = T[m, j] = b
            j = m
            continue
        T[:] = 0.0
        if b <= bound:  # an invariant subspace whose Ritz vector failed: start again from it
            V[0], j, k = y, 0, 0
        else:  # keep the top two Ritz vectors and the residual, orthogonalized against them
            V[:2] = s[:, :-3:-1].T @ V[:m]
            V[:2] /= np.linalg.norm(V[:2], axis=1)[:, None]
            T[0, 0], T[1, 1] = theta[-1], theta[-2]
            w -= (V[:2] @ w) @ V[:2]
            np.multiply(w, 1.0 / math.sqrt(w @ w), out=V[2])
            j, k, due = 2, 2, due - _BASIS + 2


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
        out = SymmetricSparseMatrix(m.n, m.indptr, m.cols, m.data, node_weights=lam, threshold=tau)
        out._krylov = m._krylov  # the same entries, so the same walk vectors and eigenpairs
        return out
    busy = deg > 0
    lam[busy] = np.minimum(tau / deg[busy], 1.0)
    root = np.sqrt(lam)
    rows, cols = m.edge_arrays()
    data = root[rows]
    data *= root[cols]
    data *= m.data
    return SymmetricSparseMatrix(m.n, m.indptr, m.cols, data, node_weights=lam, threshold=tau)


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
