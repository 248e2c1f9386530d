"""Centrality computations against closed forms and dense oracles."""

import argparse
import math
from dataclasses import fields

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.linalg import eigsh

from centreg import (
    Estimator,
    Graphon,
    SymmetricSparseMatrix,
    build_true_adjacency,
    degree,
    diffusion,
    eigenvector_centrality,
    leading_eigenpair,
    observe,
    regularize,
    regularized_eigenvector_centrality,
    sample_latent,
)
from centreg.centrality import _BASIS, SPEC_CHECKS
from centreg.cli import _add_estimator_flags
from centreg.errors import ConfigError, DegenerateSpectrum, EmptyGraph, NoConvergence
from centreg.graph_model import _WalkVectors

K3 = SymmetricSparseMatrix.from_edges(3, [0, 0, 1], [1, 2, 2])
PATH3 = SymmetricSparseMatrix.from_edges(3, [0, 1], [1, 2])
STAR5 = SymmetricSparseMatrix.from_edges(5, [0, 0, 0, 0], [1, 2, 3, 4])


def random_binary(n, p, seed):
    rng = np.random.default_rng(seed)
    dense = np.triu(rng.random((n, n)) < p, k=1)
    return SymmetricSparseMatrix.from_dense(dense | dense.T)


def test_degree_fixtures():
    assert np.array_equal(degree(K3).values, [2, 2, 2])
    assert np.array_equal(degree(PATH3).values, [1, 2, 1])
    w = SymmetricSparseMatrix.from_dense(0.5 * (np.ones((3, 3)) - np.eye(3)))
    assert np.allclose(degree(w).values, [1.0, 1.0, 1.0])


def test_diffusion_equals_degree_at_t1_delta1():
    d = diffusion(K3, delta=1.0, T=1)
    assert np.allclose(d.values, degree(K3).values)


def test_diffusion_k3_fixture():
    d = diffusion(K3, delta=0.5, T=2)
    assert np.allclose(d.values, [2.0, 2.0, 2.0], atol=1e-12)


def test_diffusion_empty_graph_zero():
    empty = SymmetricSparseMatrix.from_edges(4, [], [])
    d = diffusion(empty, delta=0.7, T=3)
    assert np.all(d.values == 0)


@pytest.mark.parametrize("seed", range(8))
def test_diffusion_matches_dense_powers(seed):
    # iterated mat-vec vs explicit dense matrix powers, n <= 20, T <= 5
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 21))
    m = random_binary(n, 0.3, seed + 50)
    dense = m.toarray()
    delta = float(rng.uniform(0.1, 1.0))
    T = int(rng.integers(1, 6))
    got = diffusion(m, delta=delta, T=T).values
    expect = np.zeros(n)
    power = np.eye(n)
    for t in range(1, T + 1):
        power = power @ dense
        expect += delta**t * power.sum(axis=1)
    assert np.allclose(got, expect, atol=1e-9)


def test_leading_eigenpair_k3():
    lam, v = leading_eigenpair(K3)
    assert lam == pytest.approx(2.0, abs=1e-10)
    assert np.allclose(v, np.ones(3) / np.sqrt(3), atol=1e-8)


def test_leading_eigenpair_single_edge():
    m = SymmetricSparseMatrix.from_edges(2, [0], [1])
    lam, v = leading_eigenpair(m)
    assert lam == pytest.approx(1.0, abs=1e-10)
    assert np.allclose(np.abs(v), np.ones(2) / np.sqrt(2), atol=1e-8)
    assert v.sum() > 0


def test_leading_eigenpair_star():
    # K_{1,4}: lambda1 = sqrt(4) = 2, center weight 1/sqrt(2)
    lam, v = leading_eigenpair(STAR5)
    assert lam == pytest.approx(2.0, abs=1e-9)
    assert abs(v[0]) == pytest.approx(1 / np.sqrt(2), abs=1e-8)
    w, V = np.linalg.eigh(STAR5.toarray())
    assert lam == pytest.approx(w[-1], abs=1e-9)


def test_leading_eigenpair_zero_matrix():
    with pytest.raises(EmptyGraph):
        leading_eigenpair(SymmetricSparseMatrix.from_edges(3, [], []))


@pytest.mark.parametrize("seed", range(10))
def test_eigenpair_matches_dense_eigensolve(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 31))
    m = random_binary(n, 0.35, seed + 500)
    if m.n_edges == 0:
        return
    lam, v = leading_eigenpair(m)
    dense = m.toarray()
    w, V = np.linalg.eigh(dense)
    idx = int(np.argmax(np.abs(w)))
    assert lam == pytest.approx(w[idx], abs=1e-8 * max(1.0, abs(w[idx])))
    assert abs(v @ V[:, idx]) == pytest.approx(1.0, abs=1e-7)
    # residual invariant
    assert np.linalg.norm(dense @ v - lam * v) <= 1e-10 * np.linalg.norm(dense)


def test_leading_eigenpair_near_tied_top_pair():
    # paths P51 and P50 side by side: lambda1 - lambda2 = 1.4e-4 and lambda2 -
    # lambda3 = 0.011; keeping the second Ritz vector separates the top pair,
    # while a restart from the top Ritz vector alone takes about 28 000 products
    lo = list(range(49)) + list(range(50, 100))
    m = SymmetricSparseMatrix.from_edges(101, lo, [i + 1 for i in lo])
    lam, v = leading_eigenpair(m, max_iter=2000)
    w, V = np.linalg.eigh(m.toarray())
    assert lam == pytest.approx(w[-1], abs=1e-12)
    assert abs(v @ V[:, -1]) == pytest.approx(1.0, abs=1e-9)


class CountingOperator(_WalkVectors):
    """Wraps a matrix and counts its matrix-vector products, the walk vectors' first one included."""

    def __init__(self, m):
        self.m, self.n, self.products, self._krylov = m, m.n, 0, [(), {}]

    def matvec(self, v):
        self.products += 1
        return self.m.matvec(v)

    def frobenius(self):
        return self.m.frobenius()


def test_lanczos_product_budget():
    # the second solve fills the basis and restarts
    for m, restarts in ((random_binary(40, 0.2, seed=77), False), (random_binary(200, 0.02, seed=2), True)):
        op = CountingOperator(m)
        lam, v = leading_eigenpair(op)
        products = op.products
        assert (products > _BASIS) == restarts
        # accepted on product `products`, so one fewer must fail with a finite residual
        with pytest.raises(NoConvergence) as failed:
            leading_eigenpair(m, max_iter=products - 1)
        assert np.isfinite(failed.value.residual) and failed.value.residual > 1e-10 * m.frobenius()
        lam_cap, v_cap = leading_eigenpair(m, max_iter=products)
        assert (lam_cap, v_cap.tobytes()) == (lam, v.tobytes())
        capped = CountingOperator(m)
        with pytest.raises(NoConvergence):
            leading_eigenpair(capped, tol=0.0, max_iter=5)
        assert capped.products == 5
    # on a star the Krylov space of iota is invariant: at tol = 0 the solve
    # starts again from its failed Ritz vector, and the cap still holds
    capped = CountingOperator(STAR5)
    with pytest.raises(NoConvergence) as failed:
        leading_eigenpair(capped, tol=0.0, max_iter=30)
    assert capped.products == 30 and np.isfinite(failed.value.residual)


@pytest.mark.parametrize("seed", range(3))
def test_leading_eigenpair_at_p_one_over_n(seed):
    # constant graphon at p = 1/n: a small gap below lambda1, so the solve restarts
    n = 2000
    a_hat = observe(build_true_adjacency(Graphon.constant(1.0), sample_latent(n, seed), 1.0 / n), seed + 100)
    op = CountingOperator(a_hat)
    lam, v = leading_eigenpair(op)
    assert op.products > _BASIS
    assert np.linalg.norm(a_hat.matvec(v) - lam * v) <= 1e-10 * a_hat.frobenius()
    i, j = a_hat.edge_arrays()
    upper = csr_matrix((a_hat.data, (i, j)), shape=(n, n))
    assert lam == pytest.approx(eigsh(upper + upper.T, k=1, which="LA")[0][0], rel=1e-10)


def test_eigenvector_centrality_scalings():
    c = eigenvector_centrality(K3, scaling="sqrt-lambda1")
    assert np.allclose(c.values, np.sqrt(2) / np.sqrt(3), atol=1e-9)
    c1 = eigenvector_centrality(K3, scaling="fixed", a=1.0)
    assert np.allclose(c1.values, 1 / np.sqrt(3), atol=1e-9)
    cn = eigenvector_centrality(K3, scaling="sqrt-n")
    assert np.allclose(cn.values, 1.0, atol=1e-9)
    assert np.linalg.norm(cn.values) == pytest.approx(np.sqrt(3), rel=1e-8)


@pytest.mark.parametrize("seed", range(6))
def test_sqrt_lambda1_outer_product_is_best_rank_one(seed):
    m = random_binary(int(np.random.default_rng(seed).integers(6, 31)), 0.4, seed + 900)
    if m.n_edges == 0:
        return
    c = eigenvector_centrality(m, scaling="sqrt-lambda1")
    outer = np.outer(c.values, c.values)
    w, V = np.linalg.eigh(m.toarray())
    idx = int(np.argmax(np.abs(w)))
    best = w[idx] * np.outer(V[:, idx], V[:, idx])
    assert np.allclose(outer, best, atol=1e-7)


def test_diffusion_approaches_eigenvector_in_t():
    # cosine similarity with the eigenvector direction increases in T and
    # exceeds 0.999 by T=200 once delta >= 1/lambda1
    k5 = SymmetricSparseMatrix.from_dense(np.ones((5, 5)) - np.eye(5))
    er20 = random_binary(20, 0.3, seed=4242)
    for m in (k5, er20):
        lam, v = leading_eigenpair(m)
        delta = 1.0 / lam
        prev = -1.0
        for T in (1, 5, 20, 80, 200):
            c = diffusion(m, delta=delta, T=T).values
            cos = float(c @ v / np.linalg.norm(c))
            assert cos >= prev - 1e-12
            prev = cos
        assert prev > 0.999


def test_inverse_lambda1_delta_rule():
    d = diffusion(K3, T=2, delta_rule="inverse-lambda1")
    assert d.recipe["delta"] == pytest.approx(0.5, abs=1e-9)
    d2 = diffusion(K3, T=2, delta_rule="inverse-sqrt-lambda1")
    assert d2.recipe["delta"] == pytest.approx(1 / np.sqrt(2), abs=1e-9)


# ---------------------------------------------------------------------------
# regularization


def test_regularize_passthrough_when_degrees_small():
    out = regularize(K3, reg_mode="oracle", p_n=0.9)  # tau = 2*3*0.9 = 5.4 > all degrees
    assert np.array_equal(out.toarray(), K3.toarray())
    assert np.all(out.node_weights == 1.0)


def test_regularize_shares_the_input_arrays_when_no_weight_binds():
    m = SymmetricSparseMatrix.from_dense(np.array([[0.0, 0.5, 0.25], [0.5, 0.0, 1.0], [0.25, 1.0, 0.0]]))
    out = regularize(m, reg_mode="oracle", p_n=0.9)  # tau = 5.4 > every degree: D = I
    for name in ("indptr", "cols", "data"):
        assert getattr(out, name) is getattr(m, name), name
    assert np.array_equal(out.toarray(), m.toarray())  # the weights, not ones
    assert np.all(out.node_weights == 1.0) and out.threshold == pytest.approx(5.4)


def test_regularize_scales_a_weighted_input():
    # weighted star: hub degree 0.5 * 10 = 5 against tau = 2.5, so lambda_hub = 0.5
    n = 11
    weights = np.linspace(0.1, 0.9, 10)
    weights *= 5.0 / weights.sum()
    dense = np.zeros((n, n))
    dense[0, 1:] = dense[1:, 0] = weights
    star = SymmetricSparseMatrix.from_dense(dense)
    out = regularize(star, reg_mode="oracle", p_n=2.5 / (2 * n))
    assert out.node_weights[0] == pytest.approx(0.5) and np.all(out.node_weights[1:] == 1.0)
    assert np.allclose(out.toarray()[0, 1:], np.sqrt(0.5) * weights, rtol=1e-15)
    assert out.indptr is star.indptr and out.cols is star.cols


def test_regularize_high_degree_node():
    # star with center degree 10 and tau = 5 -> lambda_center = 0.5
    n = 11
    star = SymmetricSparseMatrix.from_edges(n, [0] * 10, list(range(1, 11)))
    out = regularize(star, reg_mode="oracle", p_n=5.0 / (2 * n))
    lam = out.node_weights
    assert lam[0] == pytest.approx(0.5)
    assert np.all(lam[1:] == 1.0)
    assert out.toarray()[0, 1] == pytest.approx(np.sqrt(0.5))
    # guaranteed invariant: lambda_i * deg_i <= tau
    deg = star.row_sums()
    assert np.all(lam * deg <= 5.0 + 1e-9)


def test_regularize_empty_graph():
    empty = SymmetricSparseMatrix.from_edges(4, [], [])
    out = regularize(empty, reg_mode="oracle", p_n=0.5)
    assert np.all(out.toarray() == 0)
    assert np.all(out.node_weights == 1.0)


def test_regularize_sparse_matches_dense_formula():
    m = random_binary(60, 0.3, seed=31)
    out = regularize(m, reg_mode="oracle", p_n=0.1)  # tau = 12 < most degrees
    root = np.sqrt(out.node_weights)
    dense = m.toarray() * np.outer(root, root)
    assert (out.node_weights < 1.0).any()
    assert out.n_edges == m.n_edges and np.count_nonzero(out.toarray()) == 2 * m.n_edges
    assert np.array_equal(out.toarray(), dense)
    v = np.random.default_rng(0).standard_normal(m.n)
    assert np.allclose(out.matvec(v), dense @ v, rtol=1e-12, atol=1e-12)
    assert np.allclose(out.row_sums(), dense.sum(axis=1), rtol=1e-12)
    assert out.total() == pytest.approx(dense.sum(), rel=1e-12)
    assert out.frobenius() == pytest.approx(np.linalg.norm(dense), rel=1e-12)
    assert out.threshold == pytest.approx(12.0)


def test_regularize_plug_in_threshold():
    # K3: rho_hat = 6 / 6 = 1, tau = 3 * 3 * 1 / 1 = 9
    assert regularize(K3, reg_mode="plug-in", M=1.0).threshold == pytest.approx(9.0)
    with pytest.raises(ConfigError, match="^M: "):
        regularize(K3, reg_mode="plug-in", M=0.0)
    with pytest.raises(ConfigError, match="^M: "):
        regularize(K3, reg_mode="plug-in", M=1.5)


class NegatedIdentity(_WalkVectors):
    """-I on R^4: every eigenvalue is -1."""

    def __init__(self):
        self.n, self._krylov = 4, [(), {}]

    def matvec(self, v):
        return -v

    def frobenius(self):
        return 2.0


def test_sqrt_lambda1_rejects_nonpositive():
    # leading_eigenpair rejects lambda1 <= 0 before a_n = sqrt(lambda1) is taken
    with pytest.raises(DegenerateSpectrum):
        eigenvector_centrality(NegatedIdentity(), scaling="sqrt-lambda1")


# ---------------------------------------------------------------------------
# the estimator spec: one check per field, for configs, flags and keywords

CENTRALITY_OF = {
    "diffusion": diffusion,
    "eigenvector": eigenvector_centrality,
    "regularized-eigenvector": regularized_eigenvector_centrality,
}


@pytest.mark.parametrize(
    "kind,spec,field",
    [
        ("diffusion", {"T": 2.5}, "T"),
        ("diffusion", {"T": True}, "T"),
        ("diffusion", {"delta": 2}, "delta"),
        ("diffusion", {"delta": math.nan}, "delta"),
        ("diffusion", {"delta_rule": "x"}, "delta_rule"),
        ("eigenvector", {"scaling": "fixed", "a": math.nan}, "a"),
        ("eigenvector", {"scaling": "fixed", "a": math.inf}, "a"),
        ("eigenvector", {"scaling": "fixed"}, "a"),
        ("eigenvector", {"scaling": "x"}, "scaling"),
        ("regularized-eigenvector", {"reg_mode": "plug-in", "M": True}, "M"),
        ("regularized-eigenvector", {"reg_mode": "plug-in", "M": 0}, "M"),
        ("regularized-eigenvector", {"reg_mode": "plug-in"}, "M"),
        ("regularized-eigenvector", {"reg_mode": "oracle", "p_n": 0}, "p_n"),
        ("regularized-eigenvector", {"reg_mode": "x", "p_n": 0.5}, "reg_mode"),
    ],
)
def test_spec_and_keywords_reject_the_same_field(kind, spec, field):
    with pytest.raises(ConfigError, match=f"^/{field}: "):
        Estimator.from_spec({"kind": kind, **spec}, lambda name: "/" + name)
    with pytest.raises(ConfigError, match=f"^{field}: "):
        Estimator(kind=kind, **spec)
    with pytest.raises(ConfigError, match=f"^{field}: "):
        CENTRALITY_OF[kind](K3, **spec)


def test_oracle_p_n_is_required_at_call_time():
    est = Estimator.from_spec({"kind": "regularized-eigenvector"}, str)  # a cell's p stands in for it
    with pytest.raises(ConfigError, match="^p_n: oracle regularization needs p_n"):
        est.centrality(K3)
    assert est.centrality(K3, 0.5).recipe["mode"] == "oracle"


def test_each_spec_field_has_one_check_and_one_flag():
    parser = argparse.ArgumentParser()
    _add_estimator_flags(parser, "--kind")
    flags = {action.dest for action in parser._actions} - {"help", "kind"}
    assert {f.name for f in fields(Estimator)} - {"kind", "mode"} == set(SPEC_CHECKS) == flags
