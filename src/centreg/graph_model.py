"""Graphon models, latent sampling, and adjacency-matrix generation.

The data-generating process has three stages: latent types U_i ~ U[0,1],
a true weighted adjacency A_ij = p_n * f(U_i, U_j), and a noisy binary
observation with upper-triangle entries drawn Bernoulli(A_ij).

Block graphons (constant and SBM) keep A implicit as node labels plus a
B x B matrix, and their observation is sampled edge by edge, so one draw
costs time and memory proportional to n plus the edge count.  Other
graphons build the dense n x n A.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field
from typing import Callable, Sequence, Union

import numpy as np
import scipy.sparse as sp

from .errors import InvalidGraphon, InvalidSize, InvalidSparsity

__all__ = [
    "Graphon",
    "LatentSample",
    "SparsityRule",
    "SymmetricWeightedMatrix",
    "SymmetricBinaryMatrix",
    "BlockWeightedMatrix",
    "sample_latent",
    "build_true_adjacency",
    "observe",
]

_ORTHO_PROBE_TOL = 1e-2
_ORTHO_PROBE_SIZE = 20000


# ---------------------------------------------------------------------------
# matrices


class SymmetricWeightedMatrix:
    """Dense symmetric n x n matrix with zero diagonal and entries in [0, 1].

    The array is frozen after construction; all consumers treat it as
    read-only, which makes instances safe to share across threads.
    """

    def __init__(self, entries: np.ndarray, validate: bool = True):
        entries = np.array(entries, dtype=np.float64)
        if entries.ndim != 2 or entries.shape[0] != entries.shape[1]:
            raise InvalidSize(f"adjacency must be square, got shape {entries.shape}")
        if validate:
            if not np.allclose(entries, entries.T, atol=1e-12):
                raise InvalidGraphon("adjacency matrix is not symmetric")
            if np.any(np.diag(entries) != 0.0):
                raise InvalidGraphon("adjacency diagonal must be zero")
            if entries.min() < 0.0 or entries.max() > 1.0:
                raise InvalidGraphon("adjacency entries must lie in [0, 1]")
        entries.flags.writeable = False
        self.entries = entries
        self.n = entries.shape[0]

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.entries @ v

    def row_sums(self) -> np.ndarray:
        return self.entries.sum(axis=1)

    def total(self) -> float:
        """iota' A iota, the sum of all entries."""
        return float(self.entries.sum())

    def frobenius(self) -> float:
        return float(np.linalg.norm(self.entries))

    def noise_variance_total(self) -> float:
        """sum_{i != j} A_ij (1 - A_ij), the summed variance of the observation noise."""
        return float(np.sum(self.entries * (1.0 - self.entries)))


class BlockWeightedMatrix:
    """Symmetric A with A_ij = q[b_i, b_j] for i != j and A_ii = 0.

    The true adjacency of a block graphon, held as node labels b and the
    B x B matrix q = p_n P.  Products, sums and norms cost O(n + B^2) from
    the block sizes N_b; the dense array behind ``entries`` is built only on
    request and cached read-only.
    """

    def __init__(self, labels: np.ndarray, q: np.ndarray):
        self.labels = np.asarray(labels, dtype=np.intp)
        self.q = np.array(q, dtype=np.float64)
        self.q.flags.writeable = False
        self.n = len(self.labels)
        self.sizes = np.bincount(self.labels, minlength=len(self.q))
        sizes = self.sizes.astype(np.float64)
        # ordered node pairs (i, j), i != j, between each pair of blocks
        self._pairs = np.outer(sizes, sizes)
        np.fill_diagonal(self._pairs, sizes * (sizes - 1.0))
        self._diag = self.q.diagonal()[self.labels]  # q[b_i, b_i], absent from row i
        self._entries = None

    def matvec(self, v: np.ndarray) -> np.ndarray:
        block_sums = np.bincount(self.labels, weights=v, minlength=len(self.q))
        return (self.q @ block_sums)[self.labels] - self._diag * v

    def row_sums(self) -> np.ndarray:
        return (self.q @ self.sizes)[self.labels] - self._diag

    def total(self) -> float:
        """iota' A iota, the sum of all entries."""
        return float(np.sum(self._pairs * self.q))

    def frobenius(self) -> float:
        return math.sqrt(float(np.sum(self._pairs * self.q**2)))

    def noise_variance_total(self) -> float:
        """sum_{i != j} A_ij (1 - A_ij), the summed variance of the observation noise."""
        return float(np.sum(self._pairs * self.q * (1.0 - self.q)))

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            out = self.q[self.labels[:, None], self.labels[None, :]]
            np.fill_diagonal(out, 0.0)
            out.flags.writeable = False
            self._entries = out
        return self._entries


class SymmetricBinaryMatrix:
    """Observed adjacency: CSR over the upper triangle, entries implicitly 1.

    Build it with ``from_edges`` or ``from_dense``, the one path that brings
    ``upper`` to canonical form (strictly upper, sorted, no repeats, data 1).
    The symmetrized CSR (used by matrix-vector products) is built lazily and
    cached; both representations are immutable once constructed.
    """

    def __init__(self, n: int, upper: sp.csr_matrix):
        self.n = int(n)
        self.upper = upper
        self._full = None

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymmetricBinaryMatrix":
        """Every nonzero above the diagonal is an edge."""
        dense = np.asarray(dense)
        return cls.from_edges(dense.shape[0], *np.nonzero(np.triu(dense, k=1)))

    @classmethod
    def from_edges(cls, n: int, rows: Sequence[int], cols: Sequence[int]) -> "SymmetricBinaryMatrix":
        """Edges in either orientation; self-loops are dropped and repeats merged."""
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        if (lo == hi).any():
            lo, hi = lo[lo != hi], hi[lo != hi]
        upper = sp.csr_matrix((np.ones(len(lo)), (lo, hi)), shape=(n, n))
        upper.sum_duplicates()
        upper.data[:] = 1.0
        return cls(n, upper)

    @property
    def full(self) -> sp.csr_matrix:
        if self._full is None:
            f = self.upper + self.upper.T
            self._full = f.tocsr()
        return self._full

    @property
    def n_edges(self) -> int:
        return int(self.upper.nnz)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.full @ v

    def row_sums(self) -> np.ndarray:
        """Degrees (every edge counted once per endpoint)."""
        return np.asarray(self.full.sum(axis=1)).ravel()

    def total(self) -> float:
        """iota' A-hat iota = twice the edge count."""
        return 2.0 * self.upper.nnz

    def frobenius(self) -> float:
        return math.sqrt(self.total())

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """Upper-triangle (i, j) arrays, each undirected edge once."""
        coo = self.upper.tocoo()
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def toarray(self) -> np.ndarray:
        return self.full.toarray()


# ---------------------------------------------------------------------------
# graphons


@dataclass(frozen=True)
class Graphon:
    """Symmetric link-intensity function f: [0,1]^2 -> [0,1].

    Use the ``constant``, ``sbm`` or ``rank_r`` constructors; ``evaluate``
    is vectorized over numpy arrays.
    """

    kind: str
    params: dict = field(default_factory=dict)
    _evaluator: Callable[[np.ndarray, np.ndarray], np.ndarray] = None

    @classmethod
    def constant(cls, c: float) -> "Graphon":
        c = float(c)
        if not (0.0 < c <= 1.0):
            raise InvalidGraphon(f"constant graphon needs c in (0, 1], got {c}")

        def ev(u, v):
            return np.broadcast_to(np.float64(c), np.broadcast_shapes(np.shape(u), np.shape(v))).copy()

        return cls(kind="constant", params={"c": c}, _evaluator=ev)

    @classmethod
    def sbm(cls, pi: Sequence[float], P: Sequence[Sequence[float]]) -> "Graphon":
        pi = np.asarray(pi, dtype=np.float64)
        P = np.asarray(P, dtype=np.float64)
        if pi.ndim != 1 or np.any(pi <= 0) or abs(pi.sum() - 1.0) > 1e-9:
            raise InvalidGraphon("SBM proportions must be positive and sum to 1")
        B = len(pi)
        if P.shape != (B, B) or not np.allclose(P, P.T):
            raise InvalidGraphon("SBM link matrix must be symmetric BxB")
        if P.min() < 0 or P.max() > 1:
            raise InvalidGraphon("SBM link probabilities must lie in [0, 1]")
        if P.max() == 0:
            raise InvalidGraphon("SBM with all-zero link matrix generates the empty graphon")
        cuts = np.cumsum(pi)[:-1]

        def ev(u, v):
            gu = np.searchsorted(cuts, np.asarray(u), side="right")
            gv = np.searchsorted(cuts, np.asarray(v), side="right")
            return P[gu, gv]

        return cls(kind="sbm", params={"pi": pi, "P": P}, _evaluator=ev)

    @classmethod
    def rank_r(
        cls,
        eigenvalues: Sequence[float],
        eigenfunctions: Sequence[Callable[[np.ndarray], np.ndarray]],
        probe_seed: int = 0,
    ) -> "Graphon":
        """f(u,v) = sum_r lam_r phi_r(u) phi_r(v) with user-supplied callables.

        Orthonormality of the eigenfunctions cannot be verified exactly;
        it is spot-checked by Monte Carlo quadrature and violations beyond
        1e-2 only raise a warning.
        """
        lam = np.asarray(eigenvalues, dtype=np.float64)
        funcs = list(eigenfunctions)
        if len(lam) != len(funcs) or len(lam) == 0:
            raise InvalidGraphon("need one eigenfunction per eigenvalue")

        rng = np.random.default_rng(probe_seed)
        grid = rng.random(_ORTHO_PROBE_SIZE)
        vals = np.stack([np.asarray(f(grid), dtype=np.float64) for f in funcs])
        gram = vals @ vals.T / _ORTHO_PROBE_SIZE
        if np.abs(gram - np.eye(len(funcs))).max() > _ORTHO_PROBE_TOL:
            warnings.warn(
                "rank-R eigenfunctions fail the Monte Carlo orthonormality probe "
                f"(max deviation {np.abs(gram - np.eye(len(funcs))).max():.3g})",
                stacklevel=2,
            )

        def ev(u, v):
            u = np.asarray(u, dtype=np.float64)
            v = np.asarray(v, dtype=np.float64)
            out = np.zeros(np.broadcast_shapes(u.shape, v.shape))
            for l, f in zip(lam, funcs):
                out = out + l * np.asarray(f(u)) * np.asarray(f(v))
            return out

        g = cls(kind="rank-r", params={"eigenvalues": lam, "eigenfunctions": funcs}, _evaluator=ev)
        g._probe(probe_seed)
        return g

    def _probe(self, seed: int = 0, size: int = 4096) -> None:
        rng = np.random.default_rng(seed)
        u, v = rng.random(size), rng.random(size)
        vals = self.evaluate(u, v)
        if np.min(vals) < -1e-9 or np.max(vals) > 1 + 1e-9:
            raise InvalidGraphon("graphon values leave [0, 1] on random probes")
        sym = self.evaluate(v, u)
        if np.max(np.abs(vals - sym)) > 1e-9:
            warnings.warn("graphon evaluator is not symmetric on random probes", stacklevel=2)
        if np.mean(vals) <= 0:
            raise InvalidGraphon("graphon has zero mass; the network is always empty")

    def evaluate(self, u, v) -> np.ndarray:
        return self._evaluator(u, v)

    def block_form(self):
        """(cuts, P) when f is constant on blocks of [0, 1], else None.

        A latent type u lies in block ``searchsorted(cuts, u, side="right")``
        and f takes the value P[a, b] on block pair (a, b).
        """
        if self.kind == "constant":
            return np.empty(0), np.array([[self.params["c"]]])
        if self.kind == "sbm":
            return np.cumsum(self.params["pi"])[:-1], self.params["P"]
        return None

    def to_json_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "c": self.params["c"]}
        if self.kind == "sbm":
            return {
                "kind": "sbm",
                "pi": [float(x) for x in self.params["pi"]],
                "P": [[float(x) for x in row] for row in self.params["P"]],
            }
        raise InvalidGraphon(f"graphon kind {self.kind!r} has no JSON form")

    @classmethod
    def from_json_dict(cls, d: dict) -> "Graphon":
        kind = d.get("kind")
        if kind == "constant":
            return cls.constant(d["c"])
        if kind == "sbm":
            return cls.sbm(d["pi"], d["P"])
        raise InvalidGraphon(f"unknown graphon descriptor kind {kind!r}")


@dataclass(frozen=True)
class LatentSample:
    """n i.i.d. U[0,1] latent types plus the seed that produced them."""

    u: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "u", np.asarray(self.u, dtype=np.float64))
        if len(self.u) < 2:
            raise InvalidSize("latent sample needs n >= 2")
        if self.u.min() < 0 or self.u.max() > 1:
            raise InvalidGraphon("latent types must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.u)


@dataclass(frozen=True)
class SparsityRule:
    """Maps node count n to the sparsity scale p_n."""

    kind: str
    param: object = None

    @classmethod
    def constant(cls, p: float) -> "SparsityRule":
        return cls("constant", float(p))

    @classmethod
    def inverse_n(cls) -> "SparsityRule":
        return cls("inverse-n")

    @classmethod
    def inverse_sqrt_n(cls) -> "SparsityRule":
        return cls("inverse-sqrt-n")

    @classmethod
    def inverse_cbrt_n(cls) -> "SparsityRule":
        return cls("inverse-cbrt-n")

    @classmethod
    def delocalization_threshold(cls) -> "SparsityRule":
        return cls("delocalization-threshold")

    @classmethod
    def custom(cls, fn: Callable[[int], float]) -> "SparsityRule":
        return cls("custom", fn)

    @classmethod
    def from_descriptor(cls, d) -> "SparsityRule":
        if isinstance(d, SparsityRule):
            return d
        if isinstance(d, dict):
            kind = d["kind"]
            if kind == "constant":
                return cls.constant(d["p"])
            return cls(kind)
        if isinstance(d, str):
            return cls(d)
        raise InvalidSparsity(f"cannot interpret sparsity descriptor {d!r}")

    def resolve(self, n: int) -> float:
        if self.kind == "constant":
            p = self.param
        elif self.kind == "inverse-n":
            p = 1.0 / n
        elif self.kind == "inverse-sqrt-n":
            p = n ** -0.5
        elif self.kind == "inverse-cbrt-n":
            p = n ** (-1.0 / 3.0)
        elif self.kind == "delocalization-threshold":
            p = math.sqrt(math.log(n) / math.log(math.log(n))) / n
        elif self.kind == "custom":
            p = float(self.param(n))
        else:
            raise InvalidSparsity(f"unknown sparsity rule {self.kind!r}")
        if not (0.0 < p <= 1.0):
            raise InvalidSparsity(f"rule {self.kind!r} gives p={p} outside (0, 1] at n={n}")
        return float(p)

    def to_json_dict(self) -> dict:
        if self.kind == "constant":
            return {"kind": "constant", "p": self.param}
        if self.kind == "custom":
            raise InvalidSparsity("custom sparsity rules have no JSON form")
        return {"kind": self.kind}


# ---------------------------------------------------------------------------
# sampling


def sample_latent(n: int, seed: int) -> LatentSample:
    """Draw n i.i.d. U[0,1] latent types; bit-reproducible per (n, seed)."""
    if n < 2:
        raise InvalidSize(f"need n >= 2 nodes, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return LatentSample(u=rng.random(n), seed=seed)


def build_true_adjacency(
    g: Graphon, u: LatentSample, p_n: float
) -> Union[BlockWeightedMatrix, SymmetricWeightedMatrix]:
    """A_ij = p_n * f(U_i, U_j) off the diagonal, A_ii = 0.

    Block graphons (constant, SBM) give a BlockWeightedMatrix; every other
    graphon gives a dense SymmetricWeightedMatrix.
    """
    if not (0.0 < p_n <= 1.0):
        raise InvalidSparsity(f"p_n must lie in (0, 1], got {p_n}")
    blocks = g.block_form()
    if blocks is not None:
        cuts, P = blocks
        return BlockWeightedMatrix(np.searchsorted(cuts, u.u, side="right"), p_n * P)
    uu = u.u
    vals = p_n * np.asarray(g.evaluate(uu[:, None], uu[None, :]), dtype=np.float64)
    if vals.min() < 0.0 or vals.max() > 1.0:
        raise InvalidGraphon("graphon values leave [0, 1] on the sampled grid")
    # mirror the upper triangle so mildly asymmetric evaluators cannot leak;
    # symmetry is then structural, so skip the constructor's re-validation
    out = np.triu(vals, k=1)
    out += out.T
    return SymmetricWeightedMatrix(out, validate=False)


def observe(a: Union[BlockWeightedMatrix, SymmetricWeightedMatrix], seed: int) -> SymmetricBinaryMatrix:
    """Draw the noisy adjacency: upper entries i.i.d. Bernoulli(A_ij)."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    n = a.n
    if isinstance(a, BlockWeightedMatrix):
        return SymmetricBinaryMatrix.from_edges(n, *_sample_block_edges(a, rng))
    return SymmetricBinaryMatrix.from_dense(rng.random((n, n)) < a.entries)


def _sample_block_edges(a: BlockWeightedMatrix, rng: np.random.Generator):
    """Edge endpoints with each pair i < j present independently w.p. q[b_i, b_j].

    Per block pair the edge count is k ~ Binomial(#pairs, q_ab), and the
    edges are a uniform k-subset of the pairs, which is the same law as one
    Bernoulli draw per pair (Batagelj & Brandes, Phys. Rev. E 71, 036113,
    2005).  Cost is O(n + B^2 + m).
    """
    members = np.split(np.argsort(a.labels, kind="stable"), np.cumsum(a.sizes)[:-1])
    rows, cols = [np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)]
    B = len(a.q)
    for x in range(B):
        for y in range(x, B):
            nx, ny = a.sizes[x], a.sizes[y]
            n_pairs = nx * (nx - 1) // 2 if x == y else nx * ny
            k = rng.binomial(n_pairs, a.q[x, y])
            if k == 0:
                continue
            idx = rng.choice(n_pairs, size=k, replace=False, shuffle=False)
            i, j = _pair_from_index(idx, nx) if x == y else np.divmod(idx, ny)
            rows.append(members[x][i])
            cols.append(members[y][j])
    return np.concatenate(rows), np.concatenate(cols)


def _pair_from_index(idx: np.ndarray, m: int):
    """Map indices in range(m(m-1)/2) one-to-one onto the pairs {i, j} of m items.

    Index d*m + i names the pair (i, (i + d + 1) mod m): offsets d + 1 up to
    (m - 1) / 2 reach every pair once from one end.  For even m the last m/2
    indices have d + 1 = m/2 and i < m/2, naming each antipodal pair once.
    """
    d, i = np.divmod(idx, m)
    return i, (i + d + 1) % m
