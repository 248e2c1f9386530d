"""Graphon construction, latent sampling, and adjacency generation."""

import numpy as np
import pytest

from centreg import (
    BlockWeightedMatrix,
    Graphon,
    SparsityRule,
    SymmetricBinaryMatrix,
    SymmetricWeightedMatrix,
    build_true_adjacency,
    leading_eigenpair,
    observe,
    sample_latent,
)
from centreg.errors import InvalidGraphon, InvalidSize, InvalidSparsity
from centreg.graph_model import _pair_from_index

SBM3 = Graphon.sbm([0.5, 0.3, 0.2], [[0.9, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.8]])


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
    # f(u, v) = u v; the identity eigenfunction has norm 1/sqrt(3), so the
    # orthonormality probe warns but construction succeeds
    with pytest.warns(UserWarning):
        g = Graphon.rank_r([1.0], [lambda u: np.asarray(u)])
    from centreg.graph_model import LatentSample

    u = LatentSample(u=np.array([0.5, 1.0]), seed=0)
    a = build_true_adjacency(g, u, 1.0)
    assert a.entries[0, 1] == pytest.approx(0.5)


def test_rank_r_orthonormality_probe_warns():
    with pytest.warns(UserWarning):
        Graphon.rank_r([0.5, 0.5], [lambda u: np.ones_like(u), lambda u: np.ones_like(u)])


def test_zero_graphon_rejected():
    with pytest.raises(InvalidGraphon):
        Graphon.constant(0.0)
    with pytest.raises(InvalidGraphon):
        Graphon.sbm([0.5, 0.5], [[0.0, 0.0], [0.0, 0.0]])


def test_sbm_validation():
    with pytest.raises(InvalidGraphon):
        Graphon.sbm([0.6, 0.6], [[0.5, 0.5], [0.5, 0.5]])
    with pytest.raises(InvalidGraphon):
        Graphon.sbm([0.5, 0.5], [[0.5, 0.2], [0.3, 0.5]])


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

    tiny = build_true_adjacency(g, u, 1e-12)  # effectively empty
    # exact empties need p = 0 which is rejected; check Bernoulli(1) instead
    deg = complete.row_sums()
    assert np.all(deg == 5)


def test_observe_density_concentrates():
    g = Graphon.constant(0.3)
    u = sample_latent(200, seed=5)
    a_hat = observe(build_true_adjacency(g, u, 1.0), seed=11)
    density = a_hat.n_edges / (200 * 199 / 2)
    assert 0.25 <= density <= 0.35


def test_symmetry_and_zero_diagonal_every_sample():
    g = Graphon.sbm([0.3, 0.7], [[0.9, 0.2], [0.2, 0.6]])
    for seed in range(5):
        u = sample_latent(50, seed=seed)
        a = build_true_adjacency(g, u, 0.8)
        assert np.array_equal(a.entries, a.entries.T)
        assert np.all(np.diag(a.entries) == 0)
        a_hat = observe(a, seed=seed + 100)
        dense = a_hat.toarray()
        assert np.array_equal(dense, dense.T)
        assert np.all(np.diag(dense) == 0)
        assert set(np.unique(dense)) <= {0.0, 1.0}


def test_observation_is_conditionally_unbiased():
    # entrywise empirical means over 1e4 draws within 3 binomial SEs
    g = Graphon.sbm([0.4, 0.6], [[0.7, 0.3], [0.3, 0.5]])
    u = sample_latent(5, seed=2)
    a = build_true_adjacency(g, u, 0.9)
    reps = 10_000
    acc = np.zeros((5, 5))
    for r in range(reps):
        acc += observe(a, seed=r).toarray()
    mean = acc / reps
    se = np.sqrt(a.entries * (1 - a.entries) / reps)
    mask = ~np.eye(5, dtype=bool)
    assert np.all(np.abs(mean - a.entries)[mask] <= 3 * se[mask] + 1e-12)


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
        (SparsityRule.constant(0.25), 123, 0.25),
        (SparsityRule.inverse_n(), 100, 0.01),
        (SparsityRule.inverse_sqrt_n(), 400, 0.05),
        (SparsityRule.inverse_cbrt_n(), 1000, 0.1),
    ],
)
def test_sparsity_rules(rule, n, expected):
    assert rule.resolve(n) == pytest.approx(expected)


def test_delocalization_threshold_rule():
    import math

    n = 1000
    p = SparsityRule.delocalization_threshold().resolve(n)
    assert p == pytest.approx(math.sqrt(math.log(n) / math.log(math.log(n))) / n)


def test_sparsity_rule_rejects_out_of_range():
    with pytest.raises(InvalidSparsity):
        SparsityRule.constant(0.0).resolve(10)
    with pytest.raises(InvalidSparsity):
        SparsityRule.custom(lambda n: 2.0).resolve(10)


def test_binary_matrix_edge_arrays_upper_only():
    m = SymmetricBinaryMatrix.from_edges(4, [2, 0], [1, 3])
    rows, cols = m.edge_arrays()
    assert np.all(rows < cols)
    assert m.total() == 4.0


# ---------------------------------------------------------------------------
# block graphons: implicit A and the edge-proportional sampler


def _dense_reference(g, u, p):
    """A_ij = p f(U_i, U_j) evaluated entry by entry, zero diagonal."""
    vals = p * g.evaluate(u.u[:, None], u.u[None, :])
    np.fill_diagonal(vals, 0.0)
    return SymmetricWeightedMatrix(vals)


@pytest.mark.parametrize("g", [Graphon.constant(0.7), SBM3], ids=["constant", "sbm3"])
def test_block_matrix_matches_dense_build(g):
    n, p = 120, 0.3
    u = sample_latent(n, seed=17)
    a = build_true_adjacency(g, u, p)
    ref = _dense_reference(g, u, p)
    assert isinstance(a, BlockWeightedMatrix)
    assert np.array_equal(a.entries, ref.entries)
    assert not a.entries.flags.writeable
    v = np.random.default_rng(0).standard_normal(n)
    assert np.allclose(a.matvec(v), ref.matvec(v), rtol=1e-12, atol=1e-12)
    assert np.allclose(a.row_sums(), ref.row_sums(), rtol=1e-12)
    assert a.total() == pytest.approx(ref.total(), rel=1e-12)
    assert a.frobenius() == pytest.approx(ref.frobenius(), rel=1e-12)
    assert a.noise_variance_total() == pytest.approx(ref.noise_variance_total(), rel=1e-12)
    lam, vec = leading_eigenpair(a)
    lam_ref, vec_ref = leading_eigenpair(ref)
    assert lam == pytest.approx(lam_ref, rel=1e-10)
    assert np.allclose(vec, vec_ref, atol=1e-8)


def test_pair_index_is_a_bijection_onto_pairs():
    for m in range(2, 10):
        i, j = _pair_from_index(np.arange(m * (m - 1) // 2), m)
        pairs = {(min(a, b), max(a, b)) for a, b in zip(i.tolist(), j.tolist())}
        assert len(pairs) == m * (m - 1) // 2
        assert all(a != b for a, b in pairs)


def test_block_edge_counts_match_binomial():
    # per block pair, the edge count over seeds has the Binomial(#pairs, q)
    # mean and variance
    n, p, reps = 40, 0.5, 2000
    a = build_true_adjacency(SBM3, sample_latent(n, seed=4), p)
    B = len(a.q)
    counts = np.zeros((reps, B, B))
    for r in range(reps):
        rows, cols = observe(a, seed=r).edge_arrays()
        x, y = a.labels[rows], a.labels[cols]
        np.add.at(counts[r], (np.minimum(x, y), np.maximum(x, y)), 1)
    sizes = a.sizes
    for x in range(B):
        for y in range(x, B):
            pairs = sizes[x] * (sizes[x] - 1) / 2 if x == y else sizes[x] * sizes[y]
            q = a.q[x, y]
            mean, var = pairs * q, pairs * q * (1 - q)
            got = counts[:, x, y]
            assert abs(got.mean() - mean) <= 5 * np.sqrt(var / reps), (x, y)
            assert abs(got.var(ddof=1) / var - 1.0) <= 5 * np.sqrt(2.0 / (reps - 1)), (x, y)


def test_from_edges_normalizes_like_from_dense():
    # reversed pairs, repeats and self-loops reduce to the same canonical CSR
    rng = np.random.default_rng(7)
    n = 30
    dense = np.triu(rng.random((n, n)) < 0.2, k=1)
    dense = dense | dense.T
    lo, hi = np.nonzero(np.triu(dense, k=1))
    flip = rng.random(len(lo)) < 0.5
    rows = np.concatenate([np.where(flip, hi, lo), hi[:10], [3, 3, 17]])
    cols = np.concatenate([np.where(flip, lo, hi), lo[:10], [3, 3, 17]])
    got = SymmetricBinaryMatrix.from_edges(n, rows, cols)
    want = SymmetricBinaryMatrix.from_dense(dense)
    for attr in ("indices", "indptr", "data"):
        assert np.array_equal(getattr(got.upper, attr), getattr(want.upper, attr)), attr
    assert got.upper.has_canonical_format and np.all(got.upper.data == 1.0)
    assert np.array_equal(got.toarray(), dense.astype(np.float64))
