"""Graphon models, latent sampling, and adjacency-matrix generation.

The data-generating process has three stages: latent types U_i ~ U[0,1],
a true weighted adjacency A_ij = p_n * f(U_i, U_j), and a noisy binary
observation with upper-triangle entries drawn Bernoulli(A_ij).

Every graphon is f(u, v) = phi(u) M phi(v)' for r node features phi and an
r x r core M, so A stays implicit as the n x r feature matrix and p_n M.
The observation is sampled edge by edge over bins of latent types, so one
draw costs time and memory proportional to n plus the edge count, save for
one stable sort of the entries' rows where a bin's pairs interleave them.
"""

from __future__ import annotations

import importlib.util
import math
import os
from dataclasses import dataclass, field
from importlib.machinery import PathFinder
from typing import Optional, Sequence

import numpy as np

from .errors import InvalidGraphon, InvalidSize, InvalidSparsity, _is_number

__all__ = [
    "Graphon",
    "LatentSample",
    "SparsityRule",
    "SymmetricSparseMatrix",
    "FactoredMatrix",
    "sample_latent",
    "build_true_adjacency",
    "observe",
]

_RANK_R_MAX = 32  # longest rank-r eigenvalue list
_RANK_R_BINS = 16  # equal-width sampler bins on [0, 1] for rank-r graphons
_RANGE_CHUNK = 1 << 20  # entries per block of the entry-by-entry range check
_MAX_ENTRIES = 2**31 - 1  # stored entries an int32 indptr can address
_GAP_MARGIN = 4.0  # standard deviations past the mean hit count that a first batch of gaps covers
_THIN_CHUNK = 1 << 20  # candidates per thinning pass


def _scipy_file(name: str, subdir: str = ""):
    """scipy's module ``name`` in ``subdir``, run from its file; None if there is no such file.

    ``import scipy`` would run the package init, 1.3 MB of imports with
    ``subprocess`` among them, and ``import scipy.sparse`` that package's,
    0.2 s more with ``numpy.f2py`` and ``numpy.testing``; no run uses them.
    """
    spec = PathFinder.find_spec(name, [os.path.join(_SCIPY_DIR, subdir)])
    if spec is None:
        return None
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _sparsetools_kernels():
    """``csc_matvec`` and ``csr_matvec`` of scipy's ``_sparsetools`` C extension, loaded from its file."""
    module = _scipy_file("_sparsetools", "sparse")
    if module is None:
        raise ImportError(f"scipy {SCIPY_VERSION} has no sparse/_sparsetools extension")
    return module.csc_matvec, module.csr_matvec


_SCIPY_DIR = importlib.util.find_spec("scipy").submodule_search_locations[0]  # found without running scipy's init
SCIPY_VERSION = _scipy_file("version").version  # for the manifest and the error above
csc_matvec, csr_matvec = _sparsetools_kernels()  # tests pin products to scipy.sparse, bit for bit


# ---------------------------------------------------------------------------
# matrices


class _WalkVectors:
    """The walk vectors iota, A iota, A^2 iota, ... of a symmetric matrix with ``n`` and ``matvec``.

    Degree, diffusion, their bias/variance estimators and the eigensolve's
    first product read this one sequence, so each product is made once per
    matrix.  It is a tuple of read-only arrays in ``_krylov[0]``, next to
    the leading eigenpairs that ``centrality.leading_eigenpair`` keeps in
    ``_krylov[1]``; matrices with the same entries share the list.  A longer
    sequence replaces the tuple, never appends to it, so threads may share
    the matrix too.
    """

    def powers(self, t: int) -> tuple:
        """(iota, A iota, ..., A^t iota), each product made on its first request."""
        seq = self._krylov[0]
        if len(seq) <= t:
            seq = list(seq)
            while len(seq) <= t:
                v = self.matvec(seq[-1]) if seq else np.ones(self.n)
                v.flags.writeable = False
                seq.append(v)
            self._krylov[0] = seq = tuple(seq)
        return seq[: t + 1]

    def row_sums(self) -> np.ndarray:
        """Row sums (degrees of an observed network): the walk vector A iota."""
        return self.powers(1)[1]


class FactoredMatrix(_WalkVectors):
    """Symmetric A with A_ij = F_i M F_j' for i != j and A_ii = 0.

    Node features F (n x r) and the core M = p_n * (graphon core).  Products,
    sums and norms cost O(n r^2), so O(n B) for a B-block SBM; ``entries`` is
    built only on request.  Nodes follow latent order, so sampler bin x is
    the index range ``starts[x]:starts[x + 1]``, and A_ij lies in
    [pair_lo[x, y], pair_hi[x, y]] for i in bin x, j in bin y.
    """

    def __init__(self, features: np.ndarray, core: np.ndarray, starts: np.ndarray):
        self.features = np.asarray(features, dtype=np.float64)
        self.core = np.asarray(core, dtype=np.float64)
        self.n = len(self.features)
        self._diag = np.einsum("ir,ir->i", self.features @ self.core, self.features)  # F_i M F_i', absent from row i
        self._col_sums = np.ones(self.n) @ self.features  # a BLAS product: far faster than .sum(axis=0) for small r
        self.starts = starts
        self.pair_lo, self.pair_hi = self._pair_bounds()
        self._entries = None
        self._krylov = [(), {}]

    def _pair_bounds(self):
        """Interval bounds on F_i M F_j' per bin pair from the bins' feature ranges; 0 if a bin is empty."""
        full = np.diff(self.starts) > 0
        lo, hi = np.zeros((2, len(full), self.core.shape[0]))
        firsts = self.starts[:-1][full]
        lo[full], hi[full] = np.minimum.reduceat(self.features, firsts), np.maximum.reduceat(self.features, firsts)
        if np.array_equal(lo, hi):  # features constant on every bin, as for constant and SBM graphons
            exact = lo @ self.core @ lo.T
            return exact, exact
        pos, neg = np.maximum(self.core, 0.0), np.minimum(self.core, 0.0)
        rows = np.stack([lo @ pos + hi @ neg, hi @ pos + lo @ neg])  # range of F_i M for i in bin x
        corners = rows[:, None, :, None, :] * np.stack([lo, hi])[None, :, None, :, :]
        return corners.min(axis=(0, 1)).sum(-1), corners.max(axis=(0, 1)).sum(-1)

    def pair_values(self, i, j) -> np.ndarray:
        """F_i M F_j' for index arrays i, j of equal length."""
        f_i, f_j = np.take(self.features, i, axis=0), np.take(self.features, j, axis=0)  # row gathers
        return np.einsum("ir,ir->i", f_i @ self.core, f_j)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        return self.features @ (self.core @ (self.features.T @ v)) - self._diag * v

    def total(self) -> float:
        """iota' A iota, the sum of all entries."""
        return float(self._col_sums @ self.core @ self._col_sums - self._diag.sum())

    def _squares(self) -> float:
        """sum_{i != j} A_ij^2 = tr((M F'F)^2) less the diagonal's squares."""
        mg = self.core @ (self.features.T @ self.features)
        return max(float(np.sum(mg * mg.T)) - float(self._diag @ self._diag), 0.0)

    def frobenius(self) -> float:
        return math.sqrt(self._squares())

    def noise_variance_total(self) -> float:
        """sum_{i != j} A_ij (1 - A_ij), the summed variance of the observation noise."""
        return self.total() - self._squares()

    @property
    def entries(self) -> np.ndarray:
        if self._entries is None:
            out = self.features @ self.core @ self.features.T
            out = 0.5 * (out + out.T)  # exactly symmetric whatever the rounding
            np.fill_diagonal(out, 0.0)
            out.flags.writeable = False
            self._entries = out
        return self._entries


class SymmetricSparseMatrix(_WalkVectors):
    """Symmetric n x n matrix with zero diagonal, stored as its upper triangle U.

    U is a CSR matrix: int32 ``indptr`` over rows, ``cols``, the column of
    each entry, and ``data``, its value (ones for an observed network);
    Entries run over the pairs i < j sorted by i, then j.  ``node_weights``
    and ``threshold`` are set only on the output of ``centrality.regularize``.
    The constructor trusts its arrays, which the product hands to scipy's C
    kernels unchecked; ``from_edges`` builds the binary matrix of an edge
    list, and ``from_dense`` the matrix of a dense array's values.  The arrays
    are read-only once built, so instances are safe to share across threads.
    """

    def __init__(self, n, indptr, cols, data, node_weights=None, threshold=None):
        self.n = int(n)
        self.indptr, self.cols, self.data = indptr, cols, data
        for arr in (indptr, cols, data):
            arr.flags.writeable = False
        self.node_weights, self.threshold = node_weights, threshold
        self._krylov = [(), {}]

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymmetricSparseMatrix":
        """Every nonzero above the diagonal is an entry, holding its value as float64."""
        dense = np.asarray(dense)
        i, j = np.nonzero(np.triu(dense, k=1))  # row-major: the keys i * n + j come sorted and unique
        return _from_keys(dense.shape[0], i * dense.shape[0] + j, dense[i, j].astype(np.float64))

    @classmethod
    def from_edges(cls, n: int, rows: Sequence[int], cols: Sequence[int]) -> "SymmetricSparseMatrix":
        """The binary matrix of pairs in either orientation; self-loops are dropped and repeats merged.

        Endpoints must lie in [0, n) (``ValueError``) and n below 2^31 (``InvalidSize``).
        """
        n = int(n)
        if n >= 2**31:
            raise InvalidSize(f"node count {n} exceeds {2**31 - 1}")  # int32 indices; i * n + j overflows
        rows = np.asarray(rows, dtype=np.int64)
        cols = np.asarray(cols, dtype=np.int64)
        lo, hi = np.minimum(rows, cols), np.maximum(rows, cols)
        if len(lo) and (lo.min() < 0 or hi.max() >= n):
            raise ValueError(f"edge endpoint outside [0, {n})")
        pair = lo != hi
        if not pair.all():
            lo, hi = lo[pair], hi[pair]
        keys = lo
        keys *= n
        keys += hi
        keys.sort()
        repeat = keys[1:] == keys[:-1]
        if repeat.any():
            keys = keys[np.concatenate(([True], ~repeat))]
        return _from_keys(n, keys)

    @property
    def n_edges(self) -> int:
        return len(self.data)

    def matvec(self, v: np.ndarray) -> np.ndarray:
        """U'v + Uv: row r adds its lower entries, then its upper ones, each in column order.

        That is the order of a symmetric CSR product, so the result is the
        same to the bit.
        """
        if np.shape(v) != (self.n,):
            raise ValueError(f"vector of shape {np.shape(v)} for an n = {self.n} matrix")
        out = np.zeros(self.n)
        csc_matvec(self.n, self.n, self.indptr, self.cols, self.data, v, out)
        csr_matvec(self.n, self.n, self.indptr, self.cols, self.data, v, out)
        return out

    def total(self) -> float:
        """iota' A iota, twice the sum of the stored entries."""
        return 2.0 * float(self.data.sum())

    def frobenius(self) -> float:
        return math.sqrt(2.0 * float(self.data @ self.data))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (i, j) of every stored entry, i < j, as int64: numpy gathers int64 indices about 2x faster."""
        return np.repeat(np.arange(self.n), np.diff(self.indptr)), self.cols.astype(np.int64)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        i, j = self.edge_arrays()
        out[i, j] = out[j, i] = self.data
        return out


def _from_keys(n: int, keys: np.ndarray, data: np.ndarray = None) -> SymmetricSparseMatrix:
    """The matrix of sorted unique keys i * n + j, i < j, with values ``data`` (default 1)."""
    if len(keys) > _MAX_ENTRIES:
        raise InvalidSize(f"{len(keys)} entries exceed {_MAX_ENTRIES}, the most an int32 indptr can address")
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.ones(len(keys)) if data is None else data
    return SymmetricSparseMatrix(n, indptr, cols.astype(np.int32), data)


# ---------------------------------------------------------------------------
# graphons


@dataclass(frozen=True, eq=False)
class Graphon:
    """Symmetric link-intensity function f(u, v) = phi(u) M phi(v)' on [0,1]^2.

    Use the ``constant``, ``sbm`` or ``rank_r`` constructors, or the JSON
    descriptor they take (``from_json_dict``).  ``core`` is the r x r M,
    ``cuts`` splits [0, 1] into the sampler's bins, and ``features``
    computes phi from the kind.  A graphon holds arrays only, so it
    pickles; graphons compare and hash by their descriptor.
    """

    kind: str
    params: dict = field(default_factory=dict)
    core: np.ndarray = None
    cuts: np.ndarray = None

    def __eq__(self, other):
        return self.to_json_dict() == other.to_json_dict() if isinstance(other, Graphon) else NotImplemented

    def __hash__(self):  # the descriptor's numbers as floats, so 0.0 and -0.0 hash alike as they compare
        return hash((self.kind, *np.concatenate([np.ravel(x) for x in self.params.values()]).tolist()))

    @classmethod
    def constant(cls, c: float) -> "Graphon":
        c = float(c)
        if not (0.0 < c <= 1.0):
            raise InvalidGraphon(f"constant graphon needs c in (0, 1], got {c}")
        return cls(kind="constant", params={"c": c}, core=np.array([[c]]), cuts=np.empty(0))

    @classmethod
    def sbm(cls, pi: Sequence[float], P: Sequence[Sequence[float]]) -> "Graphon":
        pi = np.asarray(pi, dtype=np.float64)
        try:
            P = np.asarray(P, dtype=np.float64)
        except ValueError:  # rows of unequal length
            raise InvalidGraphon("SBM link matrix must be symmetric BxB") from None
        if pi.ndim != 1 or np.any(pi <= 0) or not abs(pi.sum() - 1.0) <= 1e-9:  # NaN fails the sum
            raise InvalidGraphon("SBM proportions must be positive and sum to 1")
        B = len(pi)
        if P.shape != (B, B) or not np.allclose(P, P.T):
            raise InvalidGraphon("SBM link matrix must be symmetric BxB")
        if P.min() < 0 or P.max() > 1:
            raise InvalidGraphon("SBM link probabilities must lie in [0, 1]")
        if P.max() == 0:
            raise InvalidGraphon("SBM with all-zero link matrix generates the empty graphon")
        return cls(kind="sbm", params={"pi": pi, "P": P}, core=P, cuts=np.cumsum(pi)[:-1])

    @classmethod
    def rank_r(cls, eigenvalues: Sequence[float]) -> "Graphon":
        """f(u, v) = sum_k lam_k phi_k(u) phi_k(v) over k < r, phi_k(u) = sqrt(2k + 1) P_k(2u - 1).

        The phi_k, shifted Legendre polynomials, are orthonormal on [0, 1].
        r is at most ``_RANK_R_MAX``: the r x r core is built from the list.
        """
        try:
            lam = np.asarray(eigenvalues, dtype=np.float64)
        except (TypeError, ValueError):  # not numbers, or ragged
            lam = np.empty(0)
        if lam.ndim != 1 or not 0 < len(lam) <= _RANK_R_MAX or not np.isfinite(lam).all():
            raise InvalidGraphon(f"rank-r graphon needs 1 to {_RANK_R_MAX} finite eigenvalues")
        g = cls(kind="rank-r", params={"eigenvalues": lam}, core=np.diag(lam),
                cuts=np.arange(1, _RANK_R_BINS) / _RANK_R_BINS)
        g._probe()
        return g

    def features(self, u) -> np.ndarray:
        """phi(u): u's shape with a trailing axis of the r features."""
        u, r = np.asarray(u, dtype=np.float64), len(self.core)
        if self.kind == "constant":
            return np.ones(u.shape + (1,))
        if self.kind == "sbm":  # block membership
            return np.take(np.eye(r), np.searchsorted(self.cuts, u, side="right"), axis=0)
        from numpy.polynomial.legendre import legvander  # rank r alone reads it: 0.5-0.8 MB of imports

        # shifted Legendre; legvander makes a 0-d u 1-d, and the reshape restores u.shape + (r,)
        return (legvander(2.0 * u - 1.0, r - 1) * np.sqrt(2.0 * np.arange(r) + 1.0)).reshape(u.shape + (r,))

    def _probe(self, seed: int = 0, size: int = 4096) -> None:
        vals = self.evaluate(*np.random.default_rng(seed).random((2, size)))
        if np.min(vals) < -1e-9 or np.max(vals) > 1 + 1e-9:
            raise InvalidGraphon("graphon values leave [0, 1] on random probes")
        if np.mean(vals) <= 0:
            raise InvalidGraphon("graphon has zero mass; the network is always empty")

    def evaluate(self, u, v) -> np.ndarray:
        return np.einsum("...r,rs,...s->...", self.features(u), self.core, self.features(v))

    def to_json_dict(self) -> dict:
        return {"kind": self.kind, **{k: np.asarray(x).tolist() for k, x in self.params.items()}}  # lists of Python floats

    @classmethod
    def from_json_dict(cls, d) -> "Graphon":
        """The graphon a JSON descriptor gives; InvalidGraphon names a bad kind or field."""
        # kind -> (constructor, {field: how many lists deep its numbers sit})
        kinds = {"constant": (cls.constant, {"c": 0}), "sbm": (cls.sbm, {"pi": 1, "P": 2}),
                 "rank-r": (cls.rank_r, {"eigenvalues": 1})}
        kind = d.get("kind") if isinstance(d, dict) else None
        if kind not in tuple(kinds):  # a tuple compares, so an unhashable kind is no TypeError
            raise InvalidGraphon(f"unknown graphon descriptor kind {kind!r}, expected one of {tuple(kinds)}")
        make, needs = kinds[kind]
        for name in d:
            if name != "kind" and name not in needs:
                raise InvalidGraphon(f"{kind} graphon has no field {name!r}, expected {('kind', *needs)}")
        for name, depth in needs.items():
            if not _is_number(d.get(name), depth):
                what = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
                raise InvalidGraphon(f"{kind} graphon needs {name} as {what}, got {d.get(name)!r}")
        return make(*(d[name] for name in needs))


@dataclass(frozen=True)
class LatentSample:
    """n latent types in [0, 1], sorted, plus the seed that produced them.

    Node i carries the i-th smallest type.  Nodes are exchangeable, so the
    order changes no distribution, and it makes every sampler bin an index
    range.  The types are sorted into a copy; the caller's array is kept.
    """

    u: np.ndarray
    seed: int

    def __post_init__(self):
        object.__setattr__(self, "u", np.sort(np.asarray(self.u, dtype=np.float64)))
        if len(self.u) < 2:
            raise InvalidSize("latent sample needs n >= 2")
        if not (self.u[0] >= 0 and self.u[-1] <= 1):  # NaN sorts last and fails too
            raise InvalidGraphon("latent types must lie in [0, 1]")

    @property
    def n(self) -> int:
        return len(self.u)


# sparsity kind -> p_n from n and the rule's parameter.  log log n > 0 needs
# n >= 3, so below that the delocalization threshold gives no p_n (NaN).
_RULES = {
    "constant": lambda n, p: p,
    "inverse-n": lambda n, _: 1.0 / n,
    "inverse-sqrt-n": lambda n, _: n ** -0.5,
    "inverse-cbrt-n": lambda n, _: n ** (-1.0 / 3.0),
    "delocalization-threshold": lambda n, _: (
        math.sqrt(math.log(n) / math.log(math.log(n))) / n if n >= 3 else math.nan),
}


@dataclass(frozen=True)
class SparsityRule:
    """Maps node count n to the sparsity scale p_n: a kind in ``_RULES`` and, for constant alone, its p."""

    kind: str
    param: Optional[float] = None

    def __post_init__(self):
        # a tuple compares, so an unhashable kind is no TypeError
        if self.kind not in tuple(_RULES) or not (_is_number(self.param) if self.kind == "constant"
                                                  else self.param is None):
            raise InvalidSparsity(f"cannot interpret sparsity rule {self.kind!r} with p = {self.param!r}: "
                                  f"expected a kind in {tuple(_RULES)}, and for constant alone a number p")
        if self.param is not None:
            object.__setattr__(self, "param", float(self.param))

    @classmethod
    def from_descriptor(cls, d) -> "SparsityRule":
        """The rule a JSON descriptor names: a kind, or an object with its kind and, for constant, p."""
        if not isinstance(d, dict):
            return cls(d)
        for name in d:
            if name not in ("kind", "p"):
                raise InvalidSparsity(f"sparsity rule has no field {name!r}, expected ('kind', 'p')")
        return cls(d.get("kind"), d.get("p"))

    def resolve(self, n: int) -> float:
        p = _RULES[self.kind](n, self.param)
        if not (0.0 < p <= 1.0):
            raise InvalidSparsity(f"rule {self.kind!r} gives p={p} outside (0, 1] at n={n}")
        return float(p)

    def to_json_dict(self) -> dict:
        return {"kind": self.kind} if self.param is None else {"kind": self.kind, "p": self.param}


# ---------------------------------------------------------------------------
# sampling


def sample_latent(n: int, seed: int) -> LatentSample:
    """Draw n i.i.d. U[0,1] latent types, kept in sorted order; bit-reproducible per (n, seed)."""
    if n < 2:
        raise InvalidSize(f"need n >= 2 nodes, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return LatentSample(u=rng.random(n), seed=seed)


def build_true_adjacency(g: Graphon, u: LatentSample, p_n: float) -> FactoredMatrix:
    """A_ij = p_n * f(U_i, U_j) off the diagonal, A_ii = 0.

    Node i has the i-th smallest type, so the sampler bin x, the nodes whose
    type has x cuts at or below it, is a range of nodes.  Every
    p_n f(U_i, U_j), the diagonal included, must lie in [0, 1].  A bin pair
    whose interval bounds lie inside [0, 1] passes as a whole; any other is
    checked entry by entry, a block of rows at a time.
    """
    if not (0.0 < p_n <= 1.0):
        raise InvalidSparsity(f"p_n must lie in (0, 1], got {p_n}")
    starts = np.concatenate(([0], np.searchsorted(u.u, g.cuts, side="left"), [u.n]))
    a = FactoredMatrix(g.features(u.u), p_n * g.core, starts)
    for x, y in zip(*np.nonzero(np.triu((a.pair_lo < 0.0) | (a.pair_hi > 1.0)))):  # the bounds are symmetric
        cols = a.features[starts[y]:starts[y + 1]]
        step = max(1, _RANGE_CHUNK // len(cols))
        for start in range(starts[x], starts[x + 1], step):
            vals = a.features[start:min(start + step, starts[x + 1])] @ a.core @ cols.T
            if vals.min() < 0.0 or vals.max() > 1.0:
                raise InvalidGraphon("graphon values leave [0, 1] on the sampled grid")
    return a


def observe(a: FactoredMatrix, seed: int) -> SymmetricSparseMatrix:
    """Draw the noisy adjacency: upper entries i.i.d. Bernoulli(A_ij).

    Bin pair (x, y), x <= y, covers the node pairs i < j with i in bin x and
    j in bin y, numbered row-major.  Its candidates are a Bernoulli(qbar)
    process over those numbers, with qbar the pair's bound on A clipped at
    1, drawn as geometric gaps (Batagelj & Brandes, Phys. Rev. E 71, 036113,
    2005; ``_bernoulli_positions``).  One ``searchsorted`` of the row ends
    into the numbers counts each row's candidates and maps the numbers to
    columns, so each pair's candidates come in CSR order.  Candidates of the
    bin pairs on which A varies are then kept with probability A_ij / qbar
    (thinning: Lewis & Shedler, Naval Res. Logist. Q. 26, 1979), a pass per
    ``_THIN_CHUNK`` candidates on one stream spawned off the candidates'
    seed, so the passes do not change the draw; pairs on which A is
    constant, as for constant and SBM graphons, keep them all.  A bin that
    drew several pairs interleaves their rows; a stable sort of the row ids,
    which keeps each row's pairs in turn, puts them in CSR order.
    """
    ss = np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    st, bound, varies = a.starts.tolist(), np.clip(a.pair_hi, 0.0, 1.0).tolist(), (a.pair_lo != a.pair_hi).tolist()
    full = [x for x in range(len(st) - 1) if st[x + 1] > st[x]]  # an empty bin draws nothing
    counts = np.zeros(a.n, dtype=np.int64)  # entries per row
    pieces = []  # (bin x, qbar, A varies, candidates) per pair drawn
    per_row, cols = [], [np.empty(0, np.int32)]  # per pair drawn: candidates in each row of bin x; their columns
    for k, x in enumerate(full):
        nx = st[x + 1] - st[x]
        for y in full[k:]:
            ny = st[y + 1] - st[y]
            ends = np.cumsum(np.arange(nx - 1.0, -1.0, -1.0)) if x == y else np.arange(ny, nx * ny + 1.0, ny)
            if ends[-1] == 0 or bound[x][y] == 0.0:
                continue
            pos = _bernoulli_positions(rng, int(ends[-1]), bound[x][y])
            in_row = np.searchsorted(pos, ends)
            in_row[1:] -= in_row[:-1].copy()
            pos -= np.repeat(ends - st[y + 1], in_row)  # a row's last number is the bin's last node
            counts[st[x]:st[x + 1]] += in_row
            per_row.append(in_row)
            cols.append(pos.astype(np.int32))
            pieces.append((x, bound[x][y], varies[x][y], len(pos)))
    cols = np.concatenate(cols)  # empty when no pair is drawn; freeing each pair's array lowers the peak
    bins, thinned = [pc[0] for pc in pieces], any(pc[2] for pc in pieces)
    interleaved = len(set(bins)) < len(bins)
    if thinned or interleaved:
        nodes = np.concatenate([np.arange(st[x], st[x + 1], dtype=np.int32) for x in bins])
        rows = np.repeat(nodes, np.concatenate(per_row))
    if thinned:
        thin = np.random.default_rng(ss.spawn(1)[0])
        keep = np.ones(len(cols), dtype=bool)
        sizes = [pc[3] for pc in pieces]
        c_off = np.cumsum([0] + sizes)  # each pair's first candidate, and the end
        first = 0
        while first < len(pieces):  # passes of about _THIN_CHUNK candidates bound the temporaries' memory
            last = max(first + 1, int(np.searchsorted(c_off, c_off[first] + _THIN_CHUNK, side="right")) - 1)
            group, c0, c1 = pieces[first:last], c_off[first], c_off[last]
            qbar = np.repeat([pc[1] for pc in group], sizes[first:last])
            kept = thin.random(c1 - c0) * qbar < a.pair_values(rows[c0:c1], cols[c0:c1])
            keep[c0:c1] = kept | ~np.repeat([pc[2] for pc in group], sizes[first:last])  # constant A keeps all
            first = last
        rows, cols = rows[keep], cols[keep]
        counts = np.bincount(rows, minlength=a.n)
    if interleaved:
        cols = cols[np.argsort(rows, kind="stable")]
    if len(cols) > _MAX_ENTRIES:
        raise InvalidSize(f"{len(cols)} entries exceed {_MAX_ENTRIES}, the most an int32 indptr can address")
    indptr = np.zeros(a.n + 1, dtype=np.int32)
    np.cumsum(counts, out=indptr[1:])
    return SymmetricSparseMatrix(a.n, indptr, cols, np.ones(len(cols)))


def _bernoulli_positions(rng: np.random.Generator, size: int, q: float) -> np.ndarray:
    """The sorted numbers in range(size) of a Bernoulli(q) process, 0 < q <= 1, as floats.

    Gaps between hits are i.i.d. floor(E / lam) + 1 with E standard
    exponential and lam = -log(1 - q), so q = 1 hits every number.  The first
    batch of gaps reaches the end unless the hit count runs ``_GAP_MARGIN``
    standard deviations past its mean; a batch that falls short is extended
    by further ones, never redrawn.  The sums are whole numbers in float64,
    exact below 2^53 (a float's floor and cast to int32 cost less than an
    int64 cast); an overlong gap is inf and falls past the end.
    """
    if size > 2**53:
        raise InvalidSize(f"{size} node pairs in one bin pair exceed 2^53")
    scale = -1.0 / math.log1p(-q) if q < 1.0 else 0.0  # 1 / lam
    last, batches = -1.0, []
    while last < size - 1:
        mean = (size - 1 - last) * q
        steps = rng.standard_exponential(max(1, int(mean + _GAP_MARGIN * (math.sqrt(mean * (1.0 - q)) + 1.0)) + 1))
        steps *= scale
        np.floor(steps, out=steps)
        steps += 1.0
        steps[0] += last
        np.cumsum(steps, out=steps)
        batches.append(steps)
        last = steps[-1]
    pos = batches[0] if len(batches) == 1 else np.concatenate(batches)
    return pos[:np.searchsorted(pos, size)]
