"""Graphon construction, latent sampling, and adjacency generation."""

import hashlib
import itertools
import math
import re
import sys
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse import _sparsetools
from hypothesis import example, given, settings
from hypothesis import strategies as st

from centreg import (
    FactoredMatrix,
    Graphon,
    SparsityRule,
    SymmetricSparseMatrix,
    build_true_adjacency,
    graph_model,
    leading_eigenpair,
    observe,
    regularize,
    sample_latent,
)
from centreg.errors import InvalidGraphon, InvalidSize, InvalidSparsity
from centreg.graph_model import LatentSample
from centreg.monte_carlo import ConfigError, ExperimentConfig

SBM3 = Graphon.sbm([0.5, 0.3, 0.2], [[0.9, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.8]])
# f(u, v) = 0.5 + 0.15 phi(u) phi(v), phi(u) = sqrt(3) (2u - 1): values in [0.05, 0.95]
RANK2 = Graphon.rank_r([0.5, 0.15])


def test_sample_latent_deterministic():
    a = sample_latent(3, seed=7)
    b = sample_latent(3, seed=7)
    assert np.array_equal(a.u, b.u)
    assert not np.array_equal(a.u, sample_latent(3, seed=8).u)


def test_sample_latent_mean_concentrates():
    u = sample_latent(10_000, seed=1).u
    assert 0.48 <= u.mean() <= 0.52
    assert u.min() >= 0.0 and u.max() <= 1.0


def test_sample_latent_rejects_small_n():
    with pytest.raises(InvalidSize):
        sample_latent(1, seed=0)
    with pytest.raises(InvalidSize):
        LatentSample(u=np.array([0.5]), seed=0)


def test_constant_graphon_adjacency():
    g = Graphon.constant(1.0)
    u = sample_latent(3, seed=0)
    a = build_true_adjacency(g, u, 0.5)
    off = a.entries[~np.eye(3, dtype=bool)]
    assert np.all(off == 0.5)
    assert np.all(np.diag(a.entries) == 0.0)


def test_degenerate_sbm_is_constant():
    g = Graphon.sbm([1.0], [[0.8]])
    u = sample_latent(4, seed=3)
    a = build_true_adjacency(g, u, 1.0)
    off = a.entries[~np.eye(4, dtype=bool)]
    assert np.allclose(off, 0.8)


def test_rank_one_graphon_direct_evaluation():
    # phi_0 = 1, so f(u, v) = lam_0; the features keep u's shape, a 0-d u included
    g = Graphon.rank_r([0.6])
    u = LatentSample(u=np.array([0.5, 1.0]), seed=0)
    a = build_true_adjacency(g, u, 1.0)
    assert a.entries[0, 1] == pytest.approx(0.6)
    assert g.features(0.5).shape == (1,) and g.features(np.zeros((2, 3))).shape == (2, 3, 1)


def test_rank_r_features_are_orthonormal_shifted_legendre():
    g = Graphon.rank_r([0.5] + [0.0] * 31)
    u = np.array([0.0, 0.2, 0.5, 0.9, 1.0])
    x = 2.0 * u - 1.0
    want = np.stack([np.ones_like(u), np.sqrt(3.0) * x, np.sqrt(5.0) * (1.5 * x**2 - 0.5)], axis=-1)
    assert np.allclose(g.features(u)[:, :3], want, rtol=1e-14, atol=1e-15)
    assert np.array_equal(Graphon.rank_r([0.5, 0.15]).features(u), np.stack([np.ones_like(u), np.sqrt(3.0) * x], -1))
    nodes, weights = np.polynomial.legendre.leggauss(40)  # exact for degree < 80: every product phi_j phi_k
    phi = g.features((nodes + 1.0) / 2.0)
    assert np.allclose(phi.T @ (phi * weights[:, None] / 2.0), np.eye(32), atol=1e-12)


@pytest.mark.parametrize("eigenvalues", [[np.nan], [0.5, np.inf], [[0.5]], 0.5, ["x"]],
                         ids=["nan", "inf", "nested", "scalar", "string"])
def test_rank_r_rejects_bad_eigenvalues(eigenvalues):
    # inputs a JSON descriptor cannot carry to rank_r; test_graphon_descriptor_errors has the rest
    with pytest.raises(InvalidGraphon, match="1 to 32 finite eigenvalues"):
        Graphon.rank_r(eigenvalues)


def test_zero_graphon_rejected():
    with pytest.raises(InvalidGraphon):
        Graphon.constant(0.0)
    with pytest.raises(InvalidGraphon):
        Graphon.sbm([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])


def test_sbm_validation():
    for pi in ([0.6, 0.6], [np.nan, np.nan], [0.5, np.nan], [np.inf, 0.5], [np.inf, np.inf]):
        with pytest.raises(InvalidGraphon):
            Graphon.sbm(pi, [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InvalidGraphon):
        Graphon.sbm([0.5, 0.5], [[0.5, 0.2], [0.3, 0.5]])
    for P in ([[1.2, 0.2], [0.2, 0.5]], [[0.5, -0.1], [-0.1, 0.5]]):
        with pytest.raises(InvalidGraphon, match=r"must lie in \[0, 1\]"):
            Graphon.sbm([0.5, 0.5], P)


@pytest.mark.parametrize("shape", [(4,), (6,), (5, 1), (1, 5), ()])
def test_matvec_rejects_a_vector_of_the_wrong_shape(shape):
    m = SymmetricSparseMatrix.from_edges(5, [0, 1], [1, 2])
    with pytest.raises(ValueError, match=rf"shape {re.escape(str(shape))} for an n = 5 matrix"):
        m.matvec(np.ones(shape))


def test_build_adjacency_rejects_bad_sparsity():
    g = Graphon.constant(1.0)
    u = sample_latent(3, seed=0)
    for p in (0.0, -0.2, 1.5):
        with pytest.raises(InvalidSparsity):
            build_true_adjacency(g, u, p)


def test_observe_extremes():
    g = Graphon.constant(1.0)
    u = sample_latent(6, seed=0)
    complete = observe(build_true_adjacency(g, u, 1.0), seed=1)
    assert complete.n_edges == 6 * 5 // 2
    assert np.all(complete.row_sums() == 5)
    # every type in the first block, whose link probability is 0: no bin pair is drawn
    no_links = Graphon.sbm([0.5, 0.5], [[0.0, 0.4], [0.4, 0.0]])
    empty = observe(build_true_adjacency(no_links, LatentSample(u=np.linspace(0.0, 0.45, 6), seed=0), 1.0), seed=1)
    assert empty.n == 6 and empty.n_edges == 0 and np.array_equal(empty.indptr, np.zeros(7))
    assert np.array_equal(empty.row_sums(), np.zeros(6))


def test_observe_density_concentrates():
    g = Graphon.constant(0.3)
    u = sample_latent(200, seed=5)
    a_hat = observe(build_true_adjacency(g, u, 1.0), seed=11)
    density = a_hat.n_edges / (200 * 199 / 2)
    assert 0.25 <= density <= 0.35


def test_symmetry_and_zero_diagonal_every_sample():
    for g, seed in itertools.product([Graphon.sbm([0.3, 0.7], [[0.9, 0.2], [0.2, 0.6]]), RANK2], range(5)):
        u = sample_latent(50, seed=seed)
        a = build_true_adjacency(g, u, 0.8)
        assert np.array_equal(a.entries, a.entries.T)
        assert np.all(np.diag(a.entries) == 0)
        a_hat = observe(a, seed=seed + 100)
        dense = a_hat.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)
        assert set(np.unique(dense)) <= {0.0, 1.0}


@pytest.mark.slow
def test_observation_is_conditionally_unbiased():
    # entrywise empirical means over 1e4 draws within 3 binomial SEs
    for g in (Graphon.sbm([0.4, 0.6], [[0.7, 0.3], [0.3, 0.5]]), RANK2):
        u = sample_latent(5, seed=2)
        a = build_true_adjacency(g, u, 0.9)
        reps = 10_000
        acc = np.zeros((5, 5))
        for r in range(reps):
            acc += observe(a, seed=r).toarray()
        mean = acc / reps
        se = np.sqrt(a.entries * (1 - a.entries) / reps)
        mask = ~np.eye(5, dtype=bool)
        assert np.all(np.abs(mean - a.entries)[mask] <= 3 * se[mask] + 1e-12), g.kind


def test_reproducibility_end_to_end():
    g = Graphon.constant(0.5)
    u1 = sample_latent(40, seed=9)
    u2 = sample_latent(40, seed=9)
    a1 = build_true_adjacency(g, u1, 0.4)
    a2 = build_true_adjacency(g, u2, 0.4)
    assert np.array_equal(a1.entries, a2.entries)
    h1, h2 = observe(a1, seed=77), observe(a2, seed=77)
    assert np.array_equal(h1.toarray(), h2.toarray())


@pytest.mark.parametrize(
    "rule,n,expected",
    [
        (SparsityRule("constant", 0.25), 123, 0.25),
        (SparsityRule("inverse-n"), 100, 0.01),
        (SparsityRule("inverse-sqrt-n"), 400, 0.05),
        (SparsityRule("inverse-cbrt-n"), 1000, 0.1),
    ],
)
def test_sparsity_rules(rule, n, expected):
    assert rule.resolve(n) == pytest.approx(expected)


def test_delocalization_threshold_rule():
    import math

    n = 1000
    p = SparsityRule("delocalization-threshold").resolve(n)
    assert p == pytest.approx(math.sqrt(math.log(n) / math.log(math.log(n))) / n)


def test_delocalization_threshold_has_no_value_below_three():
    # log log 2 < 0: the rule is undefined there, an InvalidSparsity, not a math domain error
    for n in (1, 2):
        with pytest.raises(InvalidSparsity, match=f"at n={n}"):
            SparsityRule("delocalization-threshold").resolve(n)
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_dict({"graphon": {"kind": "constant", "c": 1.0}, "n_grid": [2],
                                         "sparsity": {"kind": "delocalization-threshold"}})
    assert err.value.pointer == "/sparsity"


@pytest.mark.parametrize(
    "descriptor",
    ["bogus", "custom", "constant", {"p": 0.5}, {"kind": "constant"}, {"kind": "constant", "p": "0.5"},
     {"kind": "constant", "p": True}, {"kind": ["inverse-n"]}, 5, None,
     {"kind": "inverse-n", "p": 0.3}, {"kind": "constant", "p": 0.3, "q": 1}],
)
def test_sparsity_descriptor_errors(descriptor):
    with pytest.raises(InvalidSparsity):
        SparsityRule.from_descriptor(descriptor)


@pytest.mark.parametrize(
    "descriptor",
    [{"kind": "constant"}, {"kind": "constant", "c": "0.5"}, {"kind": "constant", "c": [0.5]},
     {"kind": "constant", "c": 10**400}, {"kind": "sbm", "pi": [1.0]}, {"kind": "sbm", "pi": [1.0], "P": [["x"]]},
     {"kind": "sbm", "pi": [0.5, 0.5], "P": [[0.5], [0.5, 0.5]]}, {"kind": "sbm", "pi": [1.0], "P": [[None]]},
     {"kind": "rank-r"}, {"kind": {}}, {"c": 1.0}, [], "constant", {"kind": "rank-r", "eigenvalues": []},
     {"kind": "rank-r", "eigenvalues": ["x"]}, {"kind": "rank-r", "eigenvalues": [0.5, 0.6]},
     {"kind": "rank-r", "eigenvalues": [0.5] + [0.0] * 32}, {"kind": "rank-r", "eigenvalues": [0.0]},
     {"kind": "constant", "c": 0.5, "P": [[1]]}],
)
def test_graphon_descriptor_errors(descriptor):
    with pytest.raises(InvalidGraphon):
        Graphon.from_json_dict(descriptor)


def test_sparsity_rule_rejects_out_of_range():
    with pytest.raises(InvalidSparsity):
        SparsityRule("constant", 0.0).resolve(10)
    with pytest.raises(InvalidSparsity):
        SparsityRule("constant", 2.0).resolve(10)


def test_binary_matrix_edge_arrays_upper_only():
    m = SymmetricSparseMatrix.from_edges(4, [2, 0], [1, 3])
    rows, cols = m.edge_arrays()
    assert np.all(rows < cols)
    assert m.total() == 4.0


# ---------------------------------------------------------------------------
# implicit A and the edge-proportional sampler


def _dense_reference(g, u, p):
    """A_ij = p f(U_i, U_j) evaluated entry by entry, zero diagonal."""
    vals = p * g.evaluate(u.u[:, None], u.u[None, :])
    np.fill_diagonal(vals, 0.0)
    return vals


@pytest.mark.parametrize("g", [Graphon.constant(0.7), SBM3, RANK2], ids=["constant", "sbm3", "rank2"])
def test_block_matrix_matches_dense_build(g):
    n, p = 120, 0.3
    u = sample_latent(n, seed=17)
    a = build_true_adjacency(g, u, p)
    ref = _dense_reference(g, u, p)
    assert isinstance(a, FactoredMatrix)
    if g.kind == "rank-r":  # a sum of products, rounded in another order
        assert np.allclose(a.entries, ref, rtol=1e-14, atol=0.0)
    else:
        assert np.array_equal(a.entries, ref)
    assert not a.entries.flags.writeable
    v = np.random.default_rng(0).standard_normal(n)
    assert np.allclose(a.matvec(v), ref @ v, rtol=1e-12, atol=1e-12)
    assert np.allclose(a.row_sums(), ref.sum(axis=1), rtol=1e-12)
    assert a.total() == pytest.approx(ref.sum(), rel=1e-12)
    assert a.frobenius() == pytest.approx(np.linalg.norm(ref), rel=1e-12)
    assert a.noise_variance_total() == pytest.approx(np.sum(ref * (1.0 - ref)), rel=1e-12)
    lam, vec = leading_eigenpair(a)
    lam_ref, vec_ref = leading_eigenpair(SymmetricSparseMatrix.from_dense(ref))
    assert lam == pytest.approx(lam_ref, rel=1e-10)
    assert np.allclose(vec, vec_ref, atol=1e-8)


def _block_edge_counts(a, reps):
    """Edges per block pair (x <= y) of observe(a, seed) for seeds 0..reps-1, blocks read from the bin ranges."""
    starts = a.starts
    B = len(starts) - 1
    counts = np.zeros((reps, B, B))
    for r in range(reps):
        rows, cols = observe(a, seed=r).edge_arrays()
        x = np.searchsorted(starts, rows, side="right") - 1
        y = np.searchsorted(starts, cols, side="right") - 1
        np.add.at(counts[r], (x, y), 1)  # rows < cols, so x <= y
    return counts


def _assert_binomial_block_counts(a, counts, p):
    # per block pair, the edge count over seeds has the Binomial(#pairs, q)
    # mean and variance
    sizes = np.diff(a.starts)
    reps, B = counts.shape[:2]
    for x in range(B):
        for y in range(x, B):
            pairs = sizes[x] * (sizes[x] - 1) / 2 if x == y else sizes[x] * sizes[y]
            q = p * SBM3.params["P"][x, y]
            mean, var = pairs * q, pairs * q * (1 - q)
            got = counts[:, x, y]
            assert abs(got.mean() - mean) <= 5 * np.sqrt(var / reps), (x, y)
            assert abs(got.var(ddof=1) / var - 1.0) <= 5 * np.sqrt(2.0 / (reps - 1)), (x, y)


def test_block_edge_counts_match_binomial():
    n, p, reps = 40, 0.5, 2000
    a = build_true_adjacency(SBM3, sample_latent(n, seed=4), p)
    _assert_binomial_block_counts(a, _block_edge_counts(a, reps), p)


@pytest.mark.slow
def test_extended_gap_draws_match_binomial(monkeypatch):
    # a negative margin makes first batches of gaps fall short of their bin
    # pair's end, so draws are extended batch by batch; the pair counts still
    # follow Binomial(#pairs, q), and q = 1 still gives every pair
    monkeypatch.setattr(graph_model, "_GAP_MARGIN", -3.0)

    class Spy:  # counts the batches of gaps a draw takes
        def __init__(self):
            self.rng, self.batches = np.random.default_rng(0), 0

        def standard_exponential(self, size):
            self.batches += 1
            return self.rng.standard_exponential(size)

    spy = Spy()
    pos = graph_model._bernoulli_positions(spy, 1000, 0.3)
    assert spy.batches > 1 and np.all(np.diff(pos) > 0) and 0 <= pos[0] and pos[-1] < 1000
    n, p, reps = 40, 0.5, 2000
    a = build_true_adjacency(SBM3, sample_latent(n, seed=4), p)
    _assert_binomial_block_counts(a, _block_edge_counts(a, reps), p)
    complete = observe(build_true_adjacency(Graphon.constant(1.0), sample_latent(30, seed=1), 1.0), seed=2)
    assert complete.n_edges == 30 * 29 // 2


def test_thinning_passes_leave_the_draw_unchanged(monkeypatch):
    # the thinning stream is read in order, so splitting it over passes of
    # a few candidates gives the same edges as one pass
    a = build_true_adjacency(RANK2, sample_latent(300, seed=2), 0.3)
    whole = observe(a, seed=5)
    monkeypatch.setattr(graph_model, "_THIN_CHUNK", 40)
    split = observe(a, seed=5)
    assert whole.n_edges > 1000
    for name in ("indptr", "cols"):
        assert np.array_equal(getattr(split, name), getattr(whole, name)), name


def test_observe_draws_are_pinned():
    # every draw bit for bit, over one-pair, several-pair, thinned and empty
    # bins: a change to how observe lays out its CSR must not move one entry
    digest = hashlib.sha256()
    for g in (Graphon.constant(1.0), SBM3, RANK2):
        for n in (2, 5, 24, 300):
            for p in (1.0, n**-0.5, 1.0 / n):
                for seed in range(3):
                    m = observe(build_true_adjacency(g, sample_latent(n, seed), p), seed + 100)
                    for arr in (m.indptr, m.cols, m.data):
                        digest.update(str(arr.dtype).encode())
                        digest.update(arr.tobytes())
    assert digest.hexdigest() == "5c1c3fcab342651aabe6eb75c78f0c2692ce018a21292e0dc46d55bdbd15a014"


def test_node_on_a_cut_lands_in_the_bin_its_features_give():
    # a type equal to a cut has that many cuts at or below it: searchsorted(cuts, u, side="right")
    g = Graphon.sbm([0.5, 0.25, 0.25], [[0.9, 0.1, 0.2], [0.1, 0.8, 0.3], [0.2, 0.3, 0.7]])
    u = np.array([0.75, 0.1, 0.5, 0.6, 0.0, 1.0, 0.5, 0.25])  # cuts at 0.5 and 0.75
    a = build_true_adjacency(g, LatentSample(u=u, seed=0), 1.0)
    want = np.searchsorted(g.cuts, np.sort(u), side="right")
    assert np.array_equal(np.repeat(np.arange(3), np.diff(a.starts)), want)
    assert np.array_equal(a.features.argmax(axis=1), want)
    assert np.array_equal(a.pair_lo, a.pair_hi) and np.array_equal(a.pair_hi, g.core)  # one block per bin


def test_latent_sample_sorts_a_copy():
    u = np.array([0.7, 0.2, 0.9, 0.2, 0.0])
    sample = LatentSample(u=u, seed=3)
    assert np.array_equal(sample.u, [0.0, 0.2, 0.2, 0.7, 0.9])
    assert np.array_equal(u, [0.7, 0.2, 0.9, 0.2, 0.0])  # the caller's array is unchanged
    drawn = sample_latent(50, seed=8)
    assert np.all(np.diff(drawn.u) >= 0)
    with pytest.raises(InvalidGraphon, match=r"\[0, 1\]"):
        LatentSample(u=np.array([0.5, np.nan]), seed=0)


@pytest.mark.slow
def test_rank2_pair_frequencies_match_a():
    # thinned candidates: each pair's edge count over seeds is Binomial(reps, A_ij),
    # so the Pearson statistic over all pairs is chi-square with n(n-1)/2 df
    n, reps = 24, 3000
    a = build_true_adjacency(RANK2, sample_latent(n, seed=6), 1.0)
    counts = np.zeros((n, n))
    for r in range(reps):
        rows, cols = observe(a, seed=r).edge_arrays()
        counts[rows, cols] += 1
    i, j = np.triu_indices(n, k=1)
    want = a.entries[i, j]
    assert not np.all(a.pair_lo == a.pair_hi)  # the thinning step ran
    z = (counts[i, j] - reps * want) / np.sqrt(reps * want * (1.0 - want))
    df = len(z)
    assert abs(np.sum(z**2) / df - 1.0) <= 5 * np.sqrt(2.0 / df)
    assert np.abs(z).max() <= 5.0
    edges = counts.sum() / reps
    assert abs(edges - want.sum()) <= 5 * np.sqrt(np.sum(want * (1.0 - want)) / reps)


@pytest.mark.parametrize("u", [[0.1, 1.0, 1.0 - 1e-7, 0.9], [0.1, 1.0, 0.9]], ids=["pair", "diagonal"])
def test_sampled_grid_range_check(u):
    # f = 0.5 + 0.7 P_20(2u - 1) P_20(2v - 1): P_20 is small away from the ends of
    # [-1, 1], so the 4096 random probes stay below 0.63 and construction
    # succeeds, but f(1, 1) = 1.2 while f(1, 0.1) = f(1, 0.9) = 0.657: the grid
    # leaves [0, 1] on the diagonal alone or also on a node pair
    g = Graphon.rank_r([0.5] + [0.0] * 19 + [0.7 / 41])
    assert np.max(g.evaluate(*np.random.default_rng(0).random((2, 4096)))) <= 1.0
    assert g.evaluate(1.0, 1.0) == pytest.approx(1.2)
    with pytest.raises(InvalidGraphon, match="sampled grid"):
        build_true_adjacency(g, LatentSample(u=np.array(u), seed=0), 1.0)


def test_from_edges_normalizes_like_from_dense():
    # reversed pairs, repeats and self-loops reduce to the same canonical upper triangle
    rng = np.random.default_rng(7)
    n = 30
    dense = np.triu(rng.random((n, n)) < 0.2, k=1)
    dense = dense | dense.T
    lo, hi = np.nonzero(np.triu(dense, k=1))
    flip = rng.random(len(lo)) < 0.5
    rows = np.concatenate([np.where(flip, hi, lo), hi[:10], [3, 3, 17]])
    cols = np.concatenate([np.where(flip, lo, hi), lo[:10], [3, 3, 17]])
    got = SymmetricSparseMatrix.from_edges(n, rows, cols)
    want = SymmetricSparseMatrix.from_dense(dense)
    for attr in ("indptr", "cols", "data"):
        g, w = getattr(got, attr), getattr(want, attr)
        assert g.dtype == w.dtype and np.array_equal(g, w), attr
    assert np.array_equal(got.edge_arrays()[0], lo) and np.array_equal(got.cols, hi)  # sorted, unique, strictly upper
    _assert_same_upper(got, _scipy_upper(n, rows, cols))
    assert np.all(got.data == 1.0)
    assert np.array_equal(got.toarray(), dense.astype(np.float64))
    v = rng.standard_normal(n)
    assert np.array_equal(got.matvec(v), _scipy_full(n, rows, cols) @ v)
    assert np.array_equal(got.row_sums(), dense.sum(axis=1))
    # a weighted matrix holding zeros keeps every nonzero value, and no zero
    upper = np.triu(np.where(rng.random((n, n)) < 0.3, rng.random((n, n)), 0.0), k=1)
    weighted = SymmetricSparseMatrix.from_dense(upper + upper.T)
    assert np.array_equal(weighted.toarray(), upper + upper.T)
    _assert_same_upper(weighted, sp.csr_matrix(upper))


def _unflagged(m):
    """A copy of a CSR without its cached format flags, so scipy checks the arrays themselves."""
    return sp.csr_matrix((m.data.copy(), m.indices.copy(), m.indptr.copy()), shape=m.shape)


def _scipy_upper(n, rows, cols):
    """scipy's own upper triangle U of an edge list, through COO: unit entries, repeats summed then reset."""
    rows, cols = np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)
    keep = rows != cols
    upper = sp.csr_matrix((np.ones(int(keep.sum())), (np.minimum(rows, cols)[keep], np.maximum(rows, cols)[keep])),
                          shape=(n, n))
    upper.sum_duplicates()
    upper.data[:] = 1.0
    return upper


def _scipy_full(n, rows, cols):
    """scipy's own symmetric CSR of an edge list, U + U'."""
    upper = _scipy_upper(n, rows, cols)
    return (upper + upper.T).tocsr()


def _assert_same_upper(m, upper):
    # compare the arrays before any product: a misplaced entry can crash the kernels
    for got, want in ((m.indptr, upper.indptr), (m.cols, upper.indices), (m.data, upper.data)):
        assert got.dtype == want.dtype and np.array_equal(got, want)
    assert np.array_equal(m.edge_arrays()[0], np.repeat(np.arange(m.n), np.diff(upper.indptr)))
    assert _unflagged(sp.csr_matrix((m.data, m.cols, m.indptr), shape=(m.n, m.n))).has_canonical_format


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 30), pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60))
@example(n=2, pairs=[])  # no edges
@example(n=2, pairs=[(1, 0)])
@example(n=5, pairs=[(3, 3), (0, 0), (4, 4)])  # only self-loops
@example(n=6, pairs=[(1, 4), (4, 1), (1, 4), (2, 2), (5, 0), (0, 5)])  # repeats in both orientations
@example(n=9, pairs=[(0, 8), (3, 8)])  # isolated nodes at both ends and between
def test_full_matches_scipy_construction(n, pairs):
    rows, cols = [a % n for a, _ in pairs], [b % n for _, b in pairs]
    m = SymmetricSparseMatrix.from_edges(n, rows, cols)
    _assert_same_upper(m, _scipy_upper(n, rows, cols))
    i, j = m.edge_arrays()
    assert np.all(i < j) and np.all(np.diff(i * n + j) > 0)
    assert np.array_equal(j, m.cols)  # and i is checked against scipy's indptr above
    full = _scipy_full(n, rows, cols)
    assert np.array_equal(m.matvec(np.arange(n) - 0.5 * n), full @ (np.arange(n) - 0.5 * n))
    assert np.array_equal(m.row_sums(), np.asarray(full.sum(axis=1)).ravel())


@settings(max_examples=200, deadline=None)
@given(n=st.integers(2, 30), pairs=st.lists(st.tuples(st.integers(0, 29), st.integers(0, 29)), max_size=60),
       seed=st.integers(0, 2**32 - 1))
@example(n=2, pairs=[], seed=0)  # no edges
@example(n=2, pairs=[(1, 0)], seed=0)
@example(n=5, pairs=[(3, 3), (0, 0), (4, 4)], seed=0)  # only self-loops
@example(n=6, pairs=[(1, 4), (4, 1), (1, 4), (2, 2), (5, 0), (0, 5)], seed=0)  # repeats in both orientations
@example(n=9, pairs=[(0, 8), (3, 8)], seed=0)  # isolated nodes at both ends and between
def test_matvec_kernels_match_scipy_product(n, pairs, seed):
    # matvec calls scipy's private csc_matvec and csr_matvec kernels on U; the
    # sum must equal scipy's symmetric product to the bit, unit and regularized
    assert callable(_sparsetools.csr_matvec) and callable(_sparsetools.csc_matvec)
    rows, cols = [a % n for a, _ in pairs], [b % n for _, b in pairs]
    m = SymmetricSparseMatrix.from_edges(n, rows, cols)
    full = _scipy_full(n, rows, cols)
    v = np.random.default_rng(seed).standard_normal(n)
    assert np.array_equal(m.matvec(v), full @ v)
    reg = regularize(m, reg_mode="oracle", p_n=0.75 / n)  # tau = 1.5 caps every degree above 1
    root = np.sqrt(reg.node_weights)
    data = np.repeat(root, np.diff(full.indptr)) * root[full.indices]  # sqrt(lambda_i lambda_j) on entry (i, j)
    weighted = sp.csr_matrix((data, full.indices, full.indptr), shape=(n, n))
    assert np.array_equal(reg.matvec(v), weighted @ v)


def test_walk_vectors_shared_across_threads_are_complete_and_exact():
    # threads asking one matrix, and its pass-through regularization, for walk
    # sequences of mixed lengths each get a complete, read-only, exact one
    m = observe(build_true_adjacency(Graphon.constant(1.0), sample_latent(300, 5), 0.1), 6)
    chain = [np.ones(m.n)]
    for _ in range(8):
        chain.append(m.matvec(chain[-1]))
    views = [m, regularize(m, reg_mode="oracle", p_n=1.0)]  # tau = 2n: no degree above it
    lengths = np.random.default_rng(7).integers(0, 9, 400).tolist()

    def ask(k):
        seq = views[k % 2].powers(lengths[k])
        return len(seq) == lengths[k] + 1 and all(
            not v.flags.writeable and v.tobytes() == w.tobytes() for v, w in zip(seq, chain))

    switch = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        with ThreadPoolExecutor(max_workers=8) as pool:
            futures = [pool.submit(ask, k) for k in range(len(lengths))]
            assert all(f.result(timeout=60) for f in futures)
    finally:
        sys.setswitchinterval(switch)


def test_missing_sparsetools_extension_names_the_scipy_version(tmp_path, monkeypatch):
    # the kernels are loaded from scipy's sparse directory by path, with no other way in
    monkeypatch.setattr(graph_model, "_SCIPY_DIR", str(tmp_path))
    monkeypatch.setattr(graph_model, "SCIPY_VERSION", "0.0.test")
    with pytest.raises(ImportError, match=r"scipy 0\.0\.test has no sparse/_sparsetools"):
        graph_model._sparsetools_kernels()


@pytest.mark.parametrize("g", [SBM3, RANK2], ids=["sbm3", "rank2"])
def test_observed_csr_matches_scipy_construction(g):
    # observe hands its keys straight to the matrix, past from_edges
    n = 60
    a = build_true_adjacency(g, sample_latent(n, seed=3), 0.4)
    for seed in range(5):
        m = observe(a, seed=seed)
        i, j = m.edge_arrays()
        assert m.n_edges > 0 and np.all(i < j) and np.all(np.diff(i * n + j) > 0)
        _assert_same_upper(m, _scipy_upper(n, i, j))
        full = _scipy_full(n, i, j)
        v = np.random.default_rng(seed).standard_normal(n)
        assert np.array_equal(m.matvec(v), full @ v)
        assert np.array_equal(m.row_sums(), np.asarray(full.sum(axis=1)).ravel())


def test_from_edges_rejects_ids_outside_range():
    # an unchecked id would alias another edge's key i * n + j: (0, 5) is (1, 2) at n = 3
    for rows, cols in (([0], [5]), ([-1], [2]), ([1, 0], [2, 3])):
        with pytest.raises(ValueError, match=r"outside \[0, 3\)"):
            SymmetricSparseMatrix.from_edges(3, rows, cols)
    with pytest.raises(InvalidSize, match="2147483647"):
        SymmetricSparseMatrix.from_edges(2**31, [0], [1])


def test_edge_count_beyond_int32_indptr_rejected(monkeypatch):
    # a stub with the length of 2^31 keys stands in for the 16 GB array
    class TooMany:
        def __len__(self):
            return 2**31

    with pytest.raises(InvalidSize, match="2147483648 entries exceed 2147483647"):
        graph_model._from_keys(70_000, TooMany())
    with pytest.raises(InvalidSize, match=r"exceed 2\^53"):  # raised before any gap is drawn
        graph_model._bernoulli_positions(np.random.default_rng(0), 2**53 + 1, 0.5)
    # observe's placement reads the same cap: lowered, a complete 30-node draw exceeds it
    monkeypatch.setattr(graph_model, "_MAX_ENTRIES", 434)
    with pytest.raises(InvalidSize, match="435 entries exceed 434"):
        observe(build_true_adjacency(Graphon.constant(1.0), sample_latent(30, seed=1), 1.0), seed=2)


def test_graphon_equality_and_hash_by_value():
    pi, P = SBM3.params["pi"].tolist(), SBM3.params["P"].tolist()
    assert Graphon.sbm(pi, P) == Graphon.sbm(pi, P) and hash(Graphon.sbm(pi, P)) == hash(SBM3)
    assert hash(Graphon.constant(0.5)) == hash(Graphon.constant(0.5))
    assert Graphon.constant(0.5) != Graphon.constant(0.6) and Graphon.constant(0.5) != SBM3
    assert Graphon.sbm([0.5, 0.5], [[0.9, 0.2], [0.2, 0.7]]) != SBM3
    assert Graphon.rank_r([0.5, 0.15]) == RANK2 and hash(Graphon.rank_r([0.5, 0.15])) == hash(RANK2)
    assert Graphon.rank_r([0.5, 0.1]) != RANK2 and Graphon.rank_r([0.5]) != Graphon.constant(0.5)
    config = lambda: ExperimentConfig(graphon=Graphon.sbm(pi, P), n_grid=[50], sparsity=SparsityRule("inverse-n"))
    assert config() == config()


def test_graphon_hash_agrees_with_equality_on_signed_zeros():
    # 0.0 == -0.0, so the two descriptors are one graphon and hash alike
    plus, minus = Graphon.sbm([0.5, 0.5], [[0.5, 0.0], [0.0, 0.5]]), Graphon.sbm([0.5, 0.5], [[0.5, -0.0], [-0.0, 0.5]])
    assert plus == minus and hash(plus) == hash(minus)
    assert Graphon.rank_r([0.5, 0.0]) == Graphon.rank_r([0.5, -0.0])
    assert hash(Graphon.rank_r([0.5, 0.0])) == hash(Graphon.rank_r([0.5, -0.0]))


@pytest.mark.parametrize("kind,param", [("inverse-n", 0.5), ("constant", None), ("constant", "0.5"), ("constant", True),
                                        ("custom", None), (["inverse-n"], None), ("constant", math.inf)])
def test_sparsity_rule_checks_its_fields(kind, param):
    with pytest.raises(InvalidSparsity, match="cannot interpret sparsity rule"):
        SparsityRule(kind, param)


def test_sparsity_rule_json_round_trip():
    kinds = ("inverse-n", "inverse-sqrt-n", "inverse-cbrt-n", "delocalization-threshold")
    for rule in (SparsityRule("constant", 1), *map(SparsityRule, kinds)):
        assert SparsityRule.from_descriptor(rule.to_json_dict()) == rule
    assert SparsityRule("constant", 1).to_json_dict() == {"kind": "constant", "p": 1.0}
