"""Graphon models, latent sampling, and adjacency-matrix generation.

The data-generating process has three stages: latent types U_i ~ U[0,1],
a true weighted adjacency A_ij = p_n * f(U_i, U_j), and a noisy binary
observation with upper-triangle entries drawn Bernoulli(A_ij).

Every graphon is f(u, v) = phi(u) M phi(v)' for r node features phi and an
r x r core M, so A stays implicit as the n x r feature matrix and p_n M.
The observation is sampled edge by edge over bins of latent types, so one
draw costs time and memory proportional to n plus the edge count.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np
from numpy.polynomial.legendre import legvander
from scipy.sparse._sparsetools import csc_matvec, csr_matvec  # pinned by the tests

from .errors import InvalidGraphon, InvalidSize, InvalidSparsity

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


# ---------------------------------------------------------------------------
# matrices


class FactoredMatrix:
    """Symmetric A with A_ij = F_i M F_j' for i != j and A_ii = 0.

    Node features F (n x r) and the core M = p_n * (graphon core).  Products,
    sums and norms cost O(n r^2), so O(n B) for a B-block SBM; ``entries`` is
    built only on request.  ``members[x]`` lists the nodes of sampler bin x,
    and A_ij lies in [pair_lo[x, y], pair_hi[x, y]] for i in bin x, j in bin y.
    """

    def __init__(self, features: np.ndarray, core: np.ndarray, labels: np.ndarray, bins: int):
        self.features = np.asarray(features, dtype=np.float64)
        self.core = np.asarray(core, dtype=np.float64)
        self.n = len(self.features)
        self._diag = np.einsum("ir,ir->i", self.features @ self.core, self.features)  # F_i M F_i', absent from row i
        self._col_sums = np.ones(self.n) @ self.features  # a BLAS product: far faster than .sum(axis=0) for small r
        self.labels = np.asarray(labels, dtype=np.min_scalar_type(bins))  # narrow: the stable argsort is a radix sort
        self.sizes = np.bincount(self.labels, minlength=bins)
        order, ends = np.argsort(self.labels, kind="stable"), np.cumsum(self.sizes)
        self.members = np.split(order, ends[:-1])
        self.pair_lo, self.pair_hi = self._pair_bounds(np.take(self.features, order, axis=0), ends - self.sizes)
        self._entries = None

    def _pair_bounds(self, ordered: np.ndarray, starts: np.ndarray):
        """Interval bounds on F_i M F_j' per bin pair from the bins' feature ranges; 0 if a bin is empty."""
        lo, hi = np.zeros((2, len(self.sizes), self.core.shape[0]))
        full = self.sizes > 0
        lo[full], hi[full] = np.minimum.reduceat(ordered, starts[full]), np.maximum.reduceat(ordered, starts[full])
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

    def row_sums(self) -> np.ndarray:
        return self.features @ (self.core @ self._col_sums) - self._diag

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


class SymmetricSparseMatrix:
    """Symmetric n x n matrix with zero diagonal, stored as its upper triangle U.

    U is a CSR matrix: int32 ``indptr`` over rows and ``cols``, the column of
    each entry, with ``rows`` its row and ``data`` its value (ones for an
    observed network).  Entries run over the pairs i < j sorted by i, then
    j.  ``node_weights`` and ``threshold`` are set only on the output of
    ``centrality.regularize``.  The constructor trusts its arrays, which
    the product hands to scipy's C kernels unchecked; ``from_edges`` and
    ``from_dense`` bring any edge list to this form.  The arrays are
    read-only once built, so instances are safe to share across threads.
    """

    def __init__(self, n, indptr, rows, cols, data, node_weights=None, threshold=None):
        self.n = int(n)
        self.indptr, self.rows, self.cols, self.data = indptr, rows, cols, data
        for arr in (indptr, rows, cols, data):
            arr.flags.writeable = False
        self.node_weights, self.threshold = node_weights, threshold
        self._row_sums = None

    @classmethod
    def from_dense(cls, dense: np.ndarray) -> "SymmetricSparseMatrix":
        """Every nonzero above the diagonal is an entry."""
        dense = np.asarray(dense)
        i, j = np.nonzero(np.triu(dense, k=1))
        return cls.from_edges(dense.shape[0], i, j, dense[i, j])

    @classmethod
    def from_edges(cls, n: int, rows: Sequence[int], cols: Sequence[int], weights=None) -> "SymmetricSparseMatrix":
        """Pairs in either orientation; self-loops are dropped and repeats merged.

        ``weights`` gives each pair's value (default 1): of repeats the last
        wins, and a pair whose value is 0 is dropped.  Endpoints must lie in
        [0, n) (``ValueError``) and n below 2^31 (``InvalidSize``).
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
        if weights is not None:
            order = np.argsort(keys, kind="stable")
            keys, data = keys[order], np.asarray(weights, dtype=np.float64)[pair][order]
            last = np.diff(keys, append=n * n) != 0  # keys lie below n * n
            last &= data != 0.0
            return _from_keys(n, keys[last], data[last])
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

    def row_sums(self) -> np.ndarray:
        """Row sums (degrees of an observed network), computed on the first call; read-only."""
        if self._row_sums is None:
            sums = self.matvec(np.ones(self.n))
            sums.flags.writeable = False
            self._row_sums = sums
        return self._row_sums

    def total(self) -> float:
        """iota' A iota, twice the sum of the stored entries."""
        return 2.0 * float(self.data.sum())

    def frobenius(self) -> float:
        return math.sqrt(2.0 * float(self.data @ self.data))

    def edge_arrays(self) -> tuple[np.ndarray, np.ndarray]:
        """The (i, j) of every stored entry, i < j, as int64: numpy gathers int64 indices about 2x faster."""
        return self.rows.astype(np.int64), self.cols.astype(np.int64)

    def toarray(self) -> np.ndarray:
        out = np.zeros((self.n, self.n))
        out[self.rows, self.cols] = self.data
        out[self.cols, self.rows] = self.data
        return out


def _from_keys(n: int, keys: np.ndarray, data: np.ndarray = None) -> SymmetricSparseMatrix:
    """The matrix of sorted unique keys i * n + j, i < j, with values ``data`` (default 1)."""
    if len(keys) > _MAX_ENTRIES:
        raise InvalidSize(f"{len(keys)} entries exceed {_MAX_ENTRIES}, the most an int32 indptr can address")
    rows, cols = np.divmod(keys, n)
    indptr = np.zeros(n + 1, dtype=np.int32)
    np.cumsum(np.bincount(rows, minlength=n), out=indptr[1:])
    data = np.ones(len(keys)) if data is None else data
    return SymmetricSparseMatrix(n, indptr, rows.astype(np.int32), cols.astype(np.int32), data)


# ---------------------------------------------------------------------------
# graphons


@dataclass(frozen=True, eq=False)
class Graphon:
    """Symmetric link-intensity function f(u, v) = phi(u) M phi(v)' on [0,1]^2.

    Use the ``constant``, ``sbm`` or ``rank_r`` constructors, or the JSON
    descriptor they take (``from_json_dict``).  ``features`` adds a trailing
    axis of r features to an array of latent types, ``core`` is the r x r M,
    and ``cuts`` splits [0, 1] into the sampler's bins.  Graphons compare
    and hash by their descriptor.
    """

    kind: str
    params: dict = field(default_factory=dict)
    features: Callable[[np.ndarray], np.ndarray] = None
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
        return cls(kind="constant", params={"c": c}, features=lambda u: np.ones(np.shape(u) + (1,)),
                   core=np.array([[c]]), cuts=np.empty(0))

    @classmethod
    def sbm(cls, pi: Sequence[float], P: Sequence[Sequence[float]]) -> "Graphon":
        pi = np.asarray(pi, dtype=np.float64)
        try:
            P = np.asarray(P, dtype=np.float64)
        except ValueError:  # rows of unequal length
            raise InvalidGraphon("SBM link matrix must be symmetric BxB") from None
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

        def membership(u):
            return np.take(np.eye(B), np.searchsorted(cuts, u, side="right"), axis=0)

        return cls(kind="sbm", params={"pi": pi, "P": P}, features=membership, core=P, cuts=cuts)

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
        r = len(lam)
        scale = np.sqrt(2.0 * np.arange(r) + 1.0)

        def legendre(u):  # legvander makes a 0-d u 1-d; the reshape restores u.shape + (r,)
            return (legvander(2.0 * u - 1.0, r - 1) * scale).reshape(np.shape(u) + (r,))

        g = cls(kind="rank-r", params={"eigenvalues": lam}, features=legendre, core=np.diag(lam),
                cuts=np.arange(1, _RANK_R_BINS) / _RANK_R_BINS)
        g._probe()
        return g

    def _probe(self, seed: int = 0, size: int = 4096) -> None:
        vals = self.evaluate(*np.random.default_rng(seed).random((2, size)))
        if np.min(vals) < -1e-9 or np.max(vals) > 1 + 1e-9:
            raise InvalidGraphon("graphon values leave [0, 1] on random probes")
        if np.mean(vals) <= 0:
            raise InvalidGraphon("graphon has zero mass; the network is always empty")

    def evaluate(self, u, v) -> np.ndarray:
        return np.einsum("...r,rs,...s->...", self.features(np.asarray(u, dtype=np.float64)), self.core,
                         self.features(np.asarray(v, dtype=np.float64)))

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
        for name, depth in needs.items():
            if not _is_number(d.get(name), depth):
                what = ("a number", "a list of numbers", "a list of lists of numbers")[depth]
                raise InvalidGraphon(f"{kind} graphon needs {name} as {what}, got {d.get(name)!r}")
        return make(*(d[name] for name in needs))


def _is_number(x, depth: int = 0) -> bool:
    """Whether x is a finite JSON number, not a boolean, or lists of them ``depth`` deep."""
    if depth:
        return isinstance(x, list) and all(_is_number(v, depth - 1) for v in x)
    # compared, not math.isfinite: that raises OverflowError on a large int
    return isinstance(x, (int, float)) and not isinstance(x, bool) and abs(x) <= sys.float_info.max


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
        return cls(d.get("kind"), d.get("p") if d.get("kind") == "constant" else None)

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
    """Draw n i.i.d. U[0,1] latent types; bit-reproducible per (n, seed)."""
    if n < 2:
        raise InvalidSize(f"need n >= 2 nodes, got {n}")
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    return LatentSample(u=rng.random(n), seed=seed)


def build_true_adjacency(g: Graphon, u: LatentSample, p_n: float) -> FactoredMatrix:
    """A_ij = p_n * f(U_i, U_j) off the diagonal, A_ii = 0.

    Every p_n f(U_i, U_j), the diagonal included, must lie in [0, 1].  A bin
    pair whose interval bounds lie inside [0, 1] passes as a whole; any
    other is checked entry by entry, a block of rows at a time.
    """
    if not (0.0 < p_n <= 1.0):
        raise InvalidSparsity(f"p_n must lie in (0, 1], got {p_n}")
    a = FactoredMatrix(g.features(u.u), p_n * g.core, np.searchsorted(g.cuts, u.u, side="right"), len(g.cuts) + 1)
    for x, y in zip(*np.nonzero((a.pair_lo < 0.0) | (a.pair_hi > 1.0))):
        if x > y:
            continue  # the bounds are symmetric
        rows, cols = a.members[x], a.members[y]
        step = max(1, _RANGE_CHUNK // len(cols))
        for start in range(0, len(rows), step):
            vals = a.features[rows[start:start + step]] @ a.core @ a.features[cols].T
            if vals.min() < 0.0 or vals.max() > 1.0:
                raise InvalidGraphon("graphon values leave [0, 1] on the sampled grid")
    return a


def observe(a: FactoredMatrix, seed: int) -> SymmetricSparseMatrix:
    """Draw the noisy adjacency: upper entries i.i.d. Bernoulli(A_ij).

    Per bin pair, k ~ Binomial(#pairs, qbar) candidates form a uniform
    k-subset of the pairs, with qbar the pair's bound on A clipped at 1
    (Batagelj & Brandes, Phys. Rev. E 71, 036113, 2005).  Each is kept with
    probability A_ij / qbar (thinning: Lewis & Shedler, Naval Res. Logist.
    Q. 26, 1979), on a stream spawned off the candidates' seed; bin pairs on
    which A is constant, as for constant and SBM graphons, keep them all.
    """
    ss = np.random.SeedSequence(seed)
    rng = np.random.default_rng(ss)
    bound = np.clip(a.pair_hi, 0.0, 1.0)
    thin = None  # the thinning stream, spawned when a bin pair first needs it
    keys = [np.empty(0, dtype=np.int64)]
    full = np.flatnonzero(a.sizes)  # an empty bin draws nothing from either stream
    for x in full:
        for y in full[full >= x]:
            nx, ny = a.sizes[x], a.sizes[y]
            n_pairs = nx * (nx - 1) // 2 if x == y else nx * ny
            k = rng.binomial(n_pairs, bound[x, y])
            if k == 0:
                continue
            idx = rng.choice(n_pairs, size=k, replace=False, shuffle=False)
            i, j = _pair_from_index(idx, nx) if x == y else np.divmod(idx, ny)
            i, j = a.members[x][i], a.members[y][j]
            if a.pair_lo[x, y] != a.pair_hi[x, y]:
                thin = thin or np.random.default_rng(ss.spawn(1)[0])
                keep = thin.random(k) * bound[x, y] < a.pair_values(i, j)
                i, j = i[keep], j[keep]
            keys.append(np.minimum(i, j) * a.n + np.maximum(i, j))
    keys = np.concatenate(keys)
    keys.sort()  # candidates are distinct pairs of distinct nodes: no loops, no repeats
    return _from_keys(a.n, keys)


def _pair_from_index(idx: np.ndarray, m: int):
    """Map indices in range(m(m-1)/2) one-to-one onto the pairs {i, j} of m items.

    Index d*m + i names the pair (i, (i + d + 1) mod m): offsets d + 1 up to
    (m - 1) / 2 reach every pair once from one end.  For even m the last m/2
    indices have d + 1 = m/2 and i < m/2, naming each antipodal pair once.
    """
    d, i = np.divmod(idx, m)
    return i, (i + d + 1) % m
