"""OLS, bias/variance estimators, tests, and confidence sets."""

import math
import re

import numpy as np
import pytest

from centreg import (
    SymmetricSparseMatrix,
    bias_correct,
    confidence,
    degree,
    degree_bias_variance,
    diffusion,
    diffusion_bias_variance,
    eigen_bias_variance,
    eigenvector_centrality,
    leading_eigenpair,
    ols,
    regularize,
    test_beta,
)
from centreg.errors import (
    ConfigMismatch,
    DegenerateVariance,
    MissingComponents,
    NonFiniteCentrality,
    NonpositiveAttenuation,
    InvalidLevel,
    ZeroRegressor,
)
from centreg.inference import RegressionFit, critical_value

K3 = SymmetricSparseMatrix.from_edges(3, [0, 0, 1], [1, 2, 2])


def random_binary(n, p, seed):
    rng = np.random.default_rng(seed)
    dense = np.triu(rng.random((n, n)) < p, k=1)
    return SymmetricSparseMatrix.from_dense(dense | dense.T)


def make_fit(beta_hat=1.0, V0=1.0, B=None, V=None, mode="noisy-degree", n=10):
    return RegressionFit(
        beta_hat=beta_hat,
        ssq_c=1.0,
        residuals=np.zeros(n),
        V0_hat=V0,
        mode=mode,
        n=n,
        B_hat=B,
        V_hat=V,
    )


# ---------------------------------------------------------------------------
# OLS


def test_ols_perfect_fit():
    c = degree(K3)
    fit = ols(2.0 * c.values, c)
    assert fit.beta_hat == pytest.approx(2.0)
    assert np.allclose(fit.residuals, 0.0)
    assert fit.V0_hat == pytest.approx(0.0)


def test_ols_k3_example():
    fit = ols(np.array([1.0, 2.0, 3.0]), degree(K3))
    assert fit.beta_hat == pytest.approx(1.0)


def test_fits_compare_by_identity():
    # a fit holds arrays and is filled in after construction: == is identity, a bool
    y = np.array([1.0, 2.0, 3.0])
    fit, same = ols(y, degree(K3)), ols(y, degree(K3))
    assert (fit == same) is False and (fit == fit) is True and (fit != same) is True


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_ols_rejects_non_finite_centrality(bad):
    with pytest.raises(NonFiniteCentrality, match="centrality 1 "):
        ols([1.0, 2.0, 3.0], [1.0, bad, 2.0])


def test_ols_orthogonal_outcome():
    c = np.array([1.0, -1.0, 0.0])
    fit = ols(np.array([1.0, 1.0, 5.0]), c)
    assert fit.beta_hat == pytest.approx(0.0)


@pytest.mark.parametrize("mode", ["noisy-degree", "noisy-diffusion", "noisy-eigenvector-case-a",
                                  "noisy-eigenvector-case-b", "noisy-eigenvector-corollary-5"])
def test_ols_rejects_demeaning_outside_the_no_error_mode(mode):
    # B_hat and V_hat are derived for the regression through the origin: on one
    # draw at n = 500, p = n^-1/2, demeaning took the degree B_hat from 0.043 to 1.05
    c = degree(SymmetricSparseMatrix.from_edges(4, [0, 0, 1, 2], [1, 2, 2, 3]))
    y = 3.0 + 2.0 * c.values  # test_ols_demeaning_flag covers the no-error fit
    with pytest.raises(ConfigMismatch, match="demean=True needs the no-error mode"):
        ols(y, c, mode, demean=True)


def test_ols_zero_regressor():
    with pytest.raises(ZeroRegressor):
        ols(np.ones(3), np.zeros(3))


def test_residual_identity_and_orthogonality():
    rng = np.random.default_rng(0)
    for _ in range(20):
        n = int(rng.integers(5, 60))
        c = rng.random(n) * 3
        y = rng.standard_normal(n) + 0.7 * c
        fit = ols(y, c)
        assert np.allclose(fit.beta_hat * c + fit.residuals, y, rtol=1e-12, atol=1e-12)
        scale = max(1.0, float(np.abs(c @ y)))
        assert abs(float(c @ fit.residuals)) <= 1e-9 * scale


def test_scale_equivariance_of_statistic():
    # the nonzero-null statistic is 0-homogeneous in (beta_hat, beta0):
    # dividing both by kappa leaves it unchanged (self-normalization)
    rng = np.random.default_rng(3)
    n = 40
    m = random_binary(n, 0.3, 5)
    c = degree(m)
    y = 1.5 * c.values + rng.standard_normal(n)
    fit = ols(y, c, mode="noisy-degree")
    degree_bias_variance(m, fit)
    s1 = test_beta(fit, 2.0).statistic

    kappa = 3.7
    fit2 = make_fit(
        beta_hat=fit.beta_hat / kappa, V0=fit.V0_hat, B=fit.B_hat, V=fit.V_hat
    )
    s2 = test_beta(fit2, 2.0 / kappa).statistic
    assert s2 == pytest.approx(s1, rel=1e-10)


def test_eigenvector_statistic_invariant_to_a_n():
    # for the eigenvector case the full estimator pipeline is equivariant in
    # the scale a_n: recomputing everything under a_n -> kappa a_n leaves the
    # case-b statistic for beta0/kappa unchanged
    m = random_binary(30, 0.4, seed=21)
    rng = np.random.default_rng(9)
    lam, v = leading_eigenpair(m)
    y = v + rng.standard_normal(30) * 0.3
    stats = []
    for a_n in (2.0, 7.4):
        c = a_n * v
        fit = ols(y, _wrap(c, lam), mode="noisy-eigenvector-case-b")
        eigen_bias_variance(m, fit)
        stats.append(test_beta(fit, 0.5 / a_n).statistic)
    assert stats[0] == pytest.approx(stats[1], rel=1e-10)


def _wrap(values, lam):
    from centreg import CentralityVector

    return CentralityVector(values=values, recipe={"kind": "eigenvector"}, lambda1=lam)


# ---------------------------------------------------------------------------
# bias / variance estimators


def test_degree_bias_variance_k3():
    fit = ols(np.array([1.0, 2.0, 3.0]), degree(K3), mode="noisy-degree")
    B, V = degree_bias_variance(K3, fit)
    assert B == pytest.approx(0.5)
    assert V == pytest.approx(1.0 / 3.0)
    assert bias_correct(fit) == pytest.approx(2.0)


@pytest.mark.parametrize("seed", range(12))
def test_degree_diffusion_agreement_at_t1_delta1(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(10, 101))
    m = random_binary(n, 0.25, seed + 1000)
    if m.n_edges == 0:
        return
    y = rng.standard_normal(n) + degree(m).values
    fit_deg = ols(y, degree(m), mode="noisy-degree")
    Bd, Vd = degree_bias_variance(m, fit_deg)
    fit_dif = ols(y, diffusion(m, delta=1.0, T=1), mode="noisy-diffusion")
    Bt, Vt = diffusion_bias_variance(m, fit_dif)
    assert fit_deg.beta_hat == pytest.approx(fit_dif.beta_hat, rel=1e-12)
    assert Bd == pytest.approx(Bt, rel=1e-12)
    assert Vd == pytest.approx(Vt, rel=1e-12)
    assert fit_deg.V0_hat == pytest.approx(fit_dif.V0_hat, rel=1e-12)


def test_diffusion_bias_k3_t2():
    # numerator (d^2 - 3d^3 + 3d^4) m1 + (3d^3 - 2d^4) m2 + 2 d^4 m3
    # with m1, m2, m3 = 6, 12, 24 on K3
    d = 0.5
    c = diffusion(K3, delta=d, T=2)
    fit = ols(np.array([1.0, 2.0, 3.0]), c, mode="noisy-diffusion")
    B, _ = diffusion_bias_variance(K3, fit)
    numer = (d**2 - 3 * d**3 + 3 * d**4) * 6 + (3 * d**3 - 2 * d**4) * 12 + 2 * d**4 * 24
    assert B == pytest.approx(numer / fit.ssq_c, rel=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_diffusion_variance_matches_hadamard_formula(seed):
    # edge-local V-hat vs the literal dense Hadamard-product expression
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 16))
    T = int(rng.integers(1, 4))
    m = random_binary(n, 0.4, seed + 2000)
    if m.n_edges == 0:
        return
    delta = float(rng.uniform(0.2, 1.0))
    c = diffusion(m, delta=delta, T=T)
    y = rng.standard_normal(n) + c.values
    fit = ols(y, c, mode="noisy-diffusion")
    _, V = diffusion_bias_variance(m, fit)

    dense = m.toarray()
    iota = np.ones(n)
    M = np.zeros((n, n))
    for t in range(1, 2 * T + 1):
        u = np.linalg.matrix_power(dense, 2 * T - t) @ iota
        w = np.linalg.matrix_power(dense, t - 1) @ iota
        M += np.outer(u, w)
    literal = 0.5 * delta ** (2 * T) * float(iota @ ((dense * M**2) @ iota)) / fit.ssq_c**2
    assert V == pytest.approx(literal, rel=1e-9)


class CountingMatrix(SymmetricSparseMatrix):
    """A sparse matrix that counts its matrix-vector products."""

    products = 0

    def matvec(self, v):
        self.products += 1
        return super().matvec(v)


def test_walk_vectors_are_made_once_and_shared():
    # degree, diffusion (delta = 1, T = 2) and both B_hat/V_hat read iota,
    # Ahat iota, ..., Ahat^4 iota: four products in all, each made once
    a_hat = random_binary(80, 0.1, seed=12)
    m = CountingMatrix(a_hat.n, a_hat.indptr, a_hat.rows, a_hat.cols, a_hat.data)
    y = np.random.default_rng(13).standard_normal(m.n)
    deg, dif = degree(m), diffusion(m, delta=1.0, T=2)
    fit_deg, fit_dif = ols(y, deg, mode="noisy-degree"), ols(y, dif, mode="noisy-diffusion")
    degree_bias_variance(m, fit_deg)
    diffusion_bias_variance(m, fit_dif)
    assert m.products == 4
    reg = regularize(m, p_n=1.0)  # tau = 2n: no degree above it, so the input passes through
    assert all(x is w for x, w in zip(reg.powers(4), m.powers(4), strict=True)) and m.products == 4

    # the same figures from an explicit product chain on the uncached matrix
    chain = [np.ones(m.n)]
    for _ in range(4):
        chain.append(a_hat.matvec(chain[-1]))
    d, ssq = chain[1], fit_deg.ssq_c
    assert deg.values.tobytes() == d.tobytes()
    assert dif.values.tobytes() == (np.zeros(m.n) + chain[1] + chain[2]).tobytes()
    assert (fit_deg.B_hat, fit_deg.V_hat) == (float(d.sum()) / ssq,
                                              (float(d @ (d * d)) + float(d @ a_hat.matvec(d))) / ssq**2)
    # on a fresh copy of Ahat the diffusion estimators make their own chain
    alone = ols(y, diffusion(random_binary(80, 0.1, seed=12), delta=1.0, T=2), mode="noisy-diffusion")
    assert diffusion_bias_variance(random_binary(80, 0.1, seed=12), alone) == (fit_dif.B_hat, fit_dif.V_hat)


@pytest.mark.parametrize("seed", range(8))
def test_variance_estimators_match_two_sided_edge_sums(seed):
    # each V_hat against its sum over both orientations (i, j) and (j, i) of
    # every edge: degree to the bit, eigenvector and diffusion to 1e-12
    rng = np.random.default_rng(seed)
    n = int(rng.integers(5, 80))
    m = random_binary(n, float(rng.uniform(0.1, 0.5)), seed + 3000)
    i, j = m.edge_arrays()
    assert len(i) > 0
    rows, cols = np.concatenate([i, j]), np.concatenate([j, i])
    y = rng.standard_normal(n)

    deg = m.row_sums()
    fit = ols(y + deg, degree(m), mode="noisy-degree")
    _, V = degree_bias_variance(m, fit)
    assert V == 0.5 * float(np.sum((deg[rows] + deg[cols]) ** 2)) / fit.ssq_c**2

    c = eigenvector_centrality(m, scaling="sqrt-n")
    fit = ols(y + c.values, c, mode="noisy-eigenvector-case-b")
    _, V = eigen_bias_variance(m, fit)
    sq = c.values**2
    want = 2.0 * float(np.sum(sq[rows] + sq[cols])) / (c.lambda1 * fit.ssq_c) ** 2
    assert V == pytest.approx(want, rel=1e-12)

    T, delta = int(rng.integers(1, 4)), float(rng.uniform(0.1, 1.0))
    c = diffusion(m, delta=delta, T=T)
    fit = ols(y + c.values, c, mode="noisy-diffusion")
    _, V = diffusion_bias_variance(m, fit)
    powers = [np.ones(n)]
    for _ in range(2 * T):
        powers.append(m.matvec(powers[-1]))
    M = sum(powers[2 * T - t][rows] * powers[t - 1][cols] for t in range(1, 2 * T + 1))
    want = 0.5 * delta ** (2 * T) * float(np.sum(M**2)) / fit.ssq_c**2
    assert V == pytest.approx(want, rel=1e-12)


def test_eigen_bias_variance_k3():
    lam, _ = leading_eigenpair(K3)
    c = eigenvector_centrality(K3, scaling="sqrt-lambda1")
    fit = ols(c.values + 0.0, c, mode="noisy-eigenvector-case-b")
    B, V = eigen_bias_variance(K3, fit)
    assert B == pytest.approx(0.5, rel=1e-9)
    assert V == pytest.approx(1.0, rel=1e-9)


@pytest.mark.parametrize("estimator", [diffusion_bias_variance, eigen_bias_variance])
@pytest.mark.parametrize("regressor,got", [("degree", "a degree centrality"), ("array", "a plain array")])
def test_bias_variance_needs_a_fit_on_its_own_centrality(estimator, regressor, got):
    c = degree(K3)
    fit = ols(np.array([1.0, 2.0, 4.0]), c if regressor == "degree" else c.values, mode="noisy-degree")
    with pytest.raises(ConfigMismatch, match=f"got {got}$"):
        estimator(K3, fit)
    assert fit.B_hat is None and fit.V_hat is None


def test_degree_bias_variance_takes_a_degree_or_plain_array_fit_only():
    y = np.array([1.0, 2.0, 4.0])
    on_vector, on_array = ols(y, degree(K3), mode="noisy-degree"), ols(y, degree(K3).values, mode="noisy-degree")
    assert degree_bias_variance(K3, on_vector) == degree_bias_variance(K3, on_array)
    fit = ols(y, diffusion(K3, delta=0.5, T=2), mode="noisy-degree")
    with pytest.raises(ConfigMismatch, match="got a diffusion centrality$"):
        degree_bias_variance(K3, fit)


def test_bias_variance_reads_delta_t_and_lambda1_from_the_fit():
    # the diffusion fit at delta = 0.5, T = 2 gives the K3 numerator of
    # test_diffusion_bias_k3_t2; the eigenvector one divides by its own lambda1
    d = 0.5
    c = diffusion(K3, delta=d, T=2)
    fit = ols(np.array([1.0, 2.0, 3.0]), c, mode="noisy-diffusion")
    assert fit.centrality is c
    B, _ = diffusion_bias_variance(K3, fit)
    numer = (d**2 - 3 * d**3 + 3 * d**4) * 6 + (3 * d**3 - 2 * d**4) * 12 + 2 * d**4 * 24
    assert B == numer / fit.ssq_c
    c = eigenvector_centrality(K3, scaling="sqrt-n")
    fit = ols(np.array([1.0, 2.0, 3.0]), c, mode="noisy-eigenvector-case-a")
    B, _ = eigen_bias_variance(K3, fit)
    assert B == 1.0 / c.lambda1


# ---------------------------------------------------------------------------
# tests and intervals


def test_statistic_zero_null():
    fit = make_fit(beta_hat=0.0, V0=1.0)
    res = test_beta(fit, 0.0)
    assert res.statistic == pytest.approx(0.0)
    assert res.p_value == pytest.approx(1.0)
    assert res.branch == "null-zero"


def test_statistic_nonzero_null_arithmetic():
    fit = make_fit(beta_hat=1.0, B=0.5, V=0.25)
    res = test_beta(fit, 2.0)
    assert res.statistic == pytest.approx(0.0)
    assert res.p_value == pytest.approx(1.0)


def test_boundary_rejection_inclusive():
    fit = make_fit(beta_hat=1.96, V0=1.0)
    res = test_beta(fit, 0.0, alphas=(0.05,))
    assert res.p_value == pytest.approx(0.05, abs=5e-5)
    assert res.reject_at[0.05] is True


def test_nonzero_null_requires_components():
    fit = make_fit(beta_hat=1.0)
    with pytest.raises(MissingComponents):
        test_beta(fit, 1.0)


def test_no_error_mode_always_robust():
    fit = make_fit(beta_hat=1.3, V0=0.04, mode="no-error")
    res = test_beta(fit, 1.0)
    assert res.statistic == pytest.approx(0.3 / 0.2)
    assert res.branch == "robust"


def test_eigen_case_a_uses_robust_denominator():
    fit = make_fit(beta_hat=1.0, V0=0.25, B=0.2, V=99.0, mode="noisy-eigenvector-case-a")
    res = test_beta(fit, 1.0)
    assert res.statistic == pytest.approx((1.0 - 0.8) / 0.5)


def test_eigen_case_b_denominator_free_of_beta0():
    fit = make_fit(beta_hat=1.0, V0=99.0, B=0.2, V=0.25, mode="noisy-eigenvector-case-b")
    res = test_beta(fit, 2.0)
    assert res.statistic == pytest.approx((1.0 - 2.0 * 0.8) / 0.5)


def test_corollary5_mode_robust_t():
    fit = make_fit(beta_hat=1.5, V0=0.25, mode="noisy-eigenvector-corollary-5")
    res = test_beta(fit, 1.0)
    assert res.statistic == pytest.approx(1.0)
    assert res.branch == "corollary-5"


def test_bias_correct_guards():
    fit = make_fit(beta_hat=0.5, B=0.5, V=1.0)
    assert bias_correct(fit) == pytest.approx(1.0)
    fit0 = make_fit(beta_hat=0.5, B=0.0, V=1.0)
    assert bias_correct(fit0) == pytest.approx(0.5)
    fit1 = make_fit(beta_hat=0.5, B=1.0, V=1.0)
    with pytest.raises(NonpositiveAttenuation):
        bias_correct(fit1)


def test_confidence_coincides_when_b_zero():
    fit = make_fit(beta_hat=1.0, V0=0.04, B=0.0, V=0.04)
    iv = confidence(fit, 0.05)
    # C and C0 invert to slightly different shapes (division vs addition),
    # but with B=0 and matching variances they agree at first order; the
    # exact coincidence the spec asks for is C0 == C when the test inverts
    # linearly, i.e. in an eigenvector case-a fit
    fit_a = make_fit(beta_hat=1.0, V0=0.04, B=0.0, V=0.04, mode="noisy-eigenvector-case-a")
    iva = confidence(fit_a, 0.05)
    assert iva.c[0].lo == pytest.approx(iva.c0.lo)
    assert iva.c[0].hi == pytest.approx(iva.c0.hi)
    assert len(iva.c_star) == 1


def test_confidence_halfline_at_zero_denominator():
    z = critical_value(0.05)  # the z that confidence uses
    V = 0.25
    B = 1.0 - z * math.sqrt(V)  # makes 1 - B - z sqrt(V) == 0 exactly
    fit = make_fit(beta_hat=2.0, B=B, V=V, V0=0.01)
    iv = confidence(fit, 0.05)
    assert iv.c[0].hi == math.inf
    assert iv.c[0].lo == pytest.approx(2.0 / (1 - B + z * math.sqrt(V)))
    assert not iv.wraps


def test_confidence_wraps_when_denominators_straddle():
    fit = make_fit(beta_hat=2.0, B=0.9, V=1.0, V0=0.01)
    iv = confidence(fit, 0.05)
    assert iv.wraps
    assert len(iv.c) == 2
    assert iv.c[0].lo == -math.inf and iv.c[1].hi == math.inf


@pytest.mark.parametrize("mode", ["noisy-eigenvector-case-a", "noisy-eigenvector-case-b"])
def test_linear_confidence_beyond_full_attenuation(mode):
    # 1 - B_hat = -0.5: the set flips to [(b + z sd) / a, (b - z sd) / a]
    z = critical_value(0.05)  # the z that confidence uses
    fit = make_fit(beta_hat=1.0, V0=0.04, B=1.5, V=0.04, mode=mode)
    iv = confidence(fit, 0.05)
    assert iv.c == (Interval((1.0 + 0.2 * z) / -0.5, (1.0 - 0.2 * z) / -0.5),)
    assert test_beta(fit, 10.0).reject_at[0.05]
    assert not test_beta(fit, -2.0).reject_at[0.05]
    # 1 - B_hat = 0: the statistic is beta_hat / sd for every beta0
    assert confidence(make_fit(beta_hat=1.0, V0=0.04, B=1.0, V=0.04, mode=mode), 0.05).c == ()
    wide = confidence(make_fit(beta_hat=0.1, V0=0.04, B=1.0, V=0.04, mode=mode), 0.05)
    assert wide.c == (Interval(-math.inf, math.inf),)


@pytest.mark.parametrize(
    "call,message",
    [
        (lambda fit: confidence(fit, 0.05, c0_policy="x"), "unknown c0 policy 'x'"),
        (lambda fit: confidence(fit, 0.05, sided="x"), "interval sided must be two|upper|lower, got 'x'"),
        (lambda fit: test_beta(fit, 1.0, sided="x"), "sided must be two|left|right, got 'x'"),
    ],
    ids=["confidence-c0-policy", "confidence-sided", "test-sided"],
)
def test_unknown_option_is_rejected(call, message):
    with pytest.raises(ConfigMismatch, match=f"^{re.escape(message)}$"):
        call(make_fit(beta_hat=1.0, B=0.1, V=0.1))


def test_confidence_invalid_level():
    fit = make_fit(beta_hat=1.0, B=0.1, V=0.1)
    for alpha in (0.0, 1.0, -0.5):
        with pytest.raises(InvalidLevel):
            confidence(fit, alpha)


def test_level_without_finite_quantile_is_invalid():
    # at alpha <= 2^-53, 1 - alpha / 2 rounds to 1: no NaN interval ends, an error
    fit = make_fit(beta_hat=1.0, B=0.1, V=0.1)
    for alpha in (1e-300, 2.0**-53, math.nan):
        with pytest.raises(InvalidLevel):
            confidence(fit, alpha)
        with pytest.raises(InvalidLevel):
            critical_value(alpha)
    assert math.isfinite(critical_value(2.0**-52))
    assert math.isfinite(critical_value(2.0**-53, sided="upper"))  # 1 - 2^-53 is a double


def test_normal_quantile_and_p_value_match_scipy():
    from scipy.special import ndtr, ndtri

    alphas = np.concatenate([np.geomspace(1e-12, 0.5, 2000), np.linspace(1e-3, 0.5, 500)])
    for sided, q in (("two", 1.0 - alphas / 2.0), ("upper", 1.0 - alphas)):
        z = np.array([critical_value(float(a), sided) for a in alphas])
        want = ndtri(q)
        assert np.all(np.abs(z - want) <= 8 * np.spacing(want)), sided
    for t in np.concatenate([np.linspace(-12.0, 12.0, 4001), [0.0, 1e-300]]):
        p = test_beta(make_fit(beta_hat=float(t), V0=1.0), 0.0).p_value  # the robust t is beta_hat
        assert abs(p - 2.0 * (1.0 - ndtr(abs(t)))) <= 5e-16, t


def test_confidence_singleton_policy():
    fit = make_fit(beta_hat=1.0, B=0.2, V=0.001, V0=0.001)
    iv = confidence(fit, 0.1, c0_policy="singleton-zero")
    assert iv.c0.lo == iv.c0.hi == 0.0


@pytest.mark.parametrize("B,V", [(None, 0.1), (0.2, None)])
def test_confidence_requires_what_the_test_requires(B, V):
    fit = make_fit(beta_hat=1.0, V0=0.1, B=B, V=V)
    with pytest.raises(MissingComponents):
        test_beta(fit, 1.0)
    with pytest.raises(MissingComponents):
        confidence(fit, 0.05)


@pytest.mark.parametrize("V0,V", [(0.0, 0.1), (-0.1, 0.1), (0.1, 0.0), (0.1, -0.1)])
def test_confidence_rejects_a_degenerate_variance(V0, V):
    # the zero-null test reads V0_hat, the nonzero-null degree test V_hat
    fit = make_fit(beta_hat=1.0, V0=V0, B=0.2, V=V)
    with pytest.raises(DegenerateVariance):
        test_beta(fit, 0.0 if V0 <= 0.0 else 1.0)
    with pytest.raises(DegenerateVariance):
        confidence(fit, 0.05)


def test_one_sided_interval_shape():
    fit = make_fit(beta_hat=-11604.0, B=0.26, V=0.009, V0=1.0)
    iv = confidence(fit, 0.10, sided="lower", c0_policy="singleton-zero")
    assert iv.c[0].hi == math.inf
    assert iv.c[0].lo == pytest.approx(-11604.0 / (0.74 - 1.2815515655446004 * math.sqrt(0.009)))


@pytest.mark.parametrize("seed", range(25))
def test_interval_test_duality(seed):
    # beta0 in C_star(alpha) iff neither branch's test rejects at alpha
    rng = np.random.default_rng(seed)
    fit = make_fit(
        beta_hat=float(rng.normal(scale=2)),
        V0=float(rng.uniform(0.01, 1.0)),
        B=float(rng.uniform(-0.5, 0.9)),
        V=float(rng.uniform(0.01, 0.5)),
    )
    alpha = 0.05
    iv = confidence(fit, alpha)
    for beta0 in rng.normal(scale=3, size=12):
        if beta0 == 0.0:
            continue
        rej_c = test_beta(fit, float(beta0), alphas=(alpha,)).reject_at[alpha]
        stat0 = (fit.beta_hat - beta0) / math.sqrt(fit.V0_hat)
        from scipy.special import ndtri

        rej_c0 = abs(stat0) >= ndtri(1 - alpha / 2)
        union_rejects = rej_c and rej_c0
        assert iv.contains(float(beta0)) == (not union_rejects)


def test_fit_serialization_fields():
    fit = make_fit(beta_hat=1.0, B=0.5, V=0.3)
    d = fit.to_json_dict()
    assert set(d) == {
        "beta_hat",
        "B_hat",
        "attenuation",
        "beta_check",
        "V_hat",
        "V0_hat",
        "n",
        "mode",
    }
    assert d["attenuation"] == pytest.approx(0.5)
    assert d["beta_check"] == pytest.approx(2.0)


# ---------------------------------------------------------------------------
# properties: C inverts the test, C_star is a sorted disjoint union


from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.special import ndtri

from centreg.inference import MODES, Interval, _merge, statistic

_finite = dict(allow_nan=False, allow_infinity=False)


@pytest.mark.parametrize(
    "mode,c0_policy",
    [(m, "interval") for m in MODES] + [(m, "singleton-zero") for m in MODES],
    ids=list(MODES) + [f"{m}-singleton-zero" for m in MODES],
)
@settings(max_examples=300, deadline=None)
@given(
    beta_hat=st.floats(-5.0, 5.0, **_finite),
    V0=st.floats(1e-3, 4.0, **_finite),
    B=st.floats(-1.0, 3.0, **_finite),
    V=st.floats(1e-3, 4.0, **_finite),
    beta0=st.floats(-5.0, 5.0, **_finite).filter(lambda b: abs(b) > 1e-3),
    alpha=st.floats(0.01, 0.3, **_finite),
)
def test_c_is_the_set_the_two_sided_test_keeps(mode, c0_policy, beta_hat, V0, B, V, beta0, alpha):
    fit = make_fit(beta_hat=beta_hat, V0=V0, B=B, V=V, mode=mode)
    result = test_beta(fit, beta0, alphas=(alpha,))
    z = float(ndtri(1.0 - alpha / 2.0))
    assume(abs(abs(result.statistic) - z) > 1e-6 * z)  # away from the boundary
    iv = confidence(fit, alpha, c0_policy=c0_policy)
    assert any(piece.contains(beta0) for piece in iv.c) == (not result.reject_at[alpha])
    pieces = iv.c_star
    assert all(p.lo <= p.hi for p in pieces)
    assert all(a.hi < b.lo for a, b in zip(pieces, pieces[1:]))


@pytest.mark.parametrize("mode", ["noisy-eigenvector-case-a", "noisy-eigenvector-case-b"])
@pytest.mark.parametrize("sided,test_side", [("upper", "left"), ("lower", "right")])
@settings(max_examples=200, deadline=None)
@given(
    beta_hat=st.floats(-5.0, 5.0, **_finite),
    V=st.floats(1e-3, 4.0, **_finite),
    B=st.floats(-1.0, 3.0, **_finite),
    beta0=st.floats(-5.0, 5.0, **_finite).filter(lambda b: abs(b) > 1e-3),
    alpha=st.floats(0.01, 0.3, **_finite),
)
def test_linear_one_sided_c_is_the_set_the_test_keeps(mode, sided, test_side, beta_hat, V, B, beta0, alpha):
    # an upper bound keeps what the left-sided test keeps, a lower bound the right-sided
    fit = make_fit(beta_hat=beta_hat, V0=V, B=B, V=V, mode=mode)
    result = test_beta(fit, beta0, sided=test_side, alphas=(alpha,))
    z = float(ndtri(1.0 - alpha))
    assume(abs(abs(result.statistic) - z) > 1e-6 * z)
    iv = confidence(fit, alpha, sided=sided)
    assert any(piece.contains(beta0) for piece in iv.c) == (not result.reject_at[alpha])


_ends = st.floats(-10.0, 10.0, **_finite)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.tuples(_ends, _ends), min_size=1, max_size=3), st.lists(_ends, max_size=20))
def test_merge_gives_sorted_disjoint_union(ends, probes):
    ivs = [Interval(min(a, b), max(a, b)) for a, b in ends]
    merged = _merge(ivs[0], tuple(ivs[1:]))
    assert all(p.lo <= p.hi for p in merged)
    assert all(a.hi < b.lo for a, b in zip(merged, merged[1:]))
    for x in probes + [e for iv in ivs for e in (iv.lo, iv.hi)]:
        assert any(p.contains(x) for p in merged) == any(iv.contains(x) for iv in ivs)


def test_statistic_takes_draw_arrays():
    # the Monte Carlo tables call statistic on arrays; element k equals the
    # scalar statistic of draw k, and a failed draw's NaN passes through
    beta_hat = np.array([0.9, 1.1, np.nan])
    V0, B, V = np.array([0.04, 0.09, np.nan]), np.array([0.2, 0.1, np.nan]), np.array([0.05, 0.02, np.nan])
    for mode in MODES:
        stats, _ = statistic(mode, 1.0, beta_hat, V0, B, V)
        for k in range(2):
            one, _ = statistic(mode, 1.0, beta_hat[k], V0[k], B[k], V[k])
            assert stats[k] == one
        assert np.isnan(stats[2])
