"""Acceptance suite: one test per criterion, one printed line per check.

Runs the full pipeline at desk scale with a fixed master seed (1234) so the
stochastic criteria are deterministic.  The main simulation cell
(n = 500, p = n^-1/2, 2000 replications) is shared across criteria 4, 5,
6(d) and 7.  Criterion 7's first clause checks the feasible de-biased degree
statistic through the decomposition its theory gives: an oracle-centered
core that must pass a Kolmogorov-Smirnov test against N(0,1), plus a center
error whose mean must match the derived finite-sample shift
sum A_ij^2 / (sum C^2 sqrt(V_hat)).  The feasible center iota'Ahat iota has
expectation sum A_ij, which exceeds the noise term's conditional mean
sum A_ij (1 - A_ij) by sum A_ij^2; that shift vanishes as n grows along
p = n^-1/2 but is +0.14 sd at n = 500, so a KS test of the feasible
statistic itself would reject whether or not the program is right.  Two
deliberately wrong inputs show that the restated clause still rejects.
"""

import time

import numpy as np
import pytest
from scipy.stats import kstest, norm

from centreg import (
    DiffusionParams,
    ExperimentConfig,
    Graphon,
    RegularizationSpec,
    ScalingPolicy,
    SparsityRule,
    SymmetricSparseMatrix,
    bias_correct,
    build_true_adjacency,
    count_even_path_walks,
    count_even_path_walks_isomorphism,
    degree,
    degree_bias_variance,
    derive_b,
    derive_g,
    diffusion,
    diffusion_bias_variance,
    eigenvector_centrality,
    leading_eigenpair,
    observe,
    ols,
    reference_b,
    reference_g,
    regularize,
    run_cell,
    sample_latent,
)

MASTER_SEED = 1234
N_MAIN = 500
R_MAIN = 2000
R_TABLE = 1000  # table-style rates use the first 1000 replications
THREADS = 4
Z95 = float(norm.ppf(0.975))

pytestmark = pytest.mark.acceptance


def _check(lines, label, ok, detail):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {label}: {detail}"
    print(line)
    if not ok:
        lines.append(line)


def _flat_config(**kw):
    base = dict(
        graphon=Graphon.constant(1.0),
        n_grid=[N_MAIN],
        sparsity=SparsityRule("inverse-sqrt-n"),
        beta_true=1.0,
        replications=R_MAIN,
        master_seed=MASTER_SEED,
    )
    base.update(kw)
    return ExperimentConfig(**base)


@pytest.fixture(scope="module")
def main_cell():
    cfg = _flat_config(
        estimators=[
            {"kind": "degree"},
            {"kind": "diffusion", "delta": 1.0, "T": 2},
            {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
        ],
    )
    start = time.time()
    cell = run_cell(cfg, N_MAIN, cell_index=0, threads=THREADS)
    print(f"(main cell: {R_MAIN} replications in {time.time() - start:.0f}s)")
    return cell


@pytest.fixture(scope="module")
def diffusion_half_delta_cell():
    cfg = _flat_config(
        replications=R_TABLE,
        estimators=[{"kind": "diffusion", "delta": 0.5, "T": 2}],
    )
    return run_cell(cfg, N_MAIN, cell_index=1, threads=THREADS)


def _ours_stat(d, beta0, upto=None):
    s = slice(None, upto)
    return (d["beta_hat"][s] - beta0 * (1.0 - d["B_hat"][s])) / (
        beta0 * np.sqrt(d["V_hat"][s])
    )


def _robust_stat(d, beta0, upto=None):
    s = slice(None, upto)
    return (d["beta_hat"][s] - beta0) / np.sqrt(d["V0_hat"][s])


# ---------------------------------------------------------------------------
# 1. coefficient-table equality


def test_criterion_1_coefficient_tables():
    lines = []
    start = time.time()
    g_ok = all(derive_g(t).coeffs == reference_g(t).coeffs for t in range(1, 11))
    _check(lines, "1 g-table", g_ok, "derive_g(t) == reference for all t <= 10")
    b_ok = all(derive_b(T).coeffs == reference_b(T).coeffs for T in range(1, 5))
    _check(lines, "1 b-table", b_ok, "derive_b(T) == reference for all T <= 4")
    b5_ok = derive_b(5).coeffs == reference_b(5).coeffs
    _check(lines, "1 b-table extended", b5_ok, "derive_b(5) == reference (extended budget)")
    elapsed = time.time() - start
    _check(lines, "1 runtime", elapsed < 300, f"derivations took {elapsed:.1f}s < 300s")
    assert not lines, "\n".join(lines)


# ---------------------------------------------------------------------------
# 2. hand fixtures on the triangle


def test_criterion_2_triangle_fixtures():
    lines = []
    k3 = SymmetricSparseMatrix.from_edges(3, [0, 0, 1], [1, 2, 2])
    tol = 1e-12

    deg = degree(k3).values
    _check(lines, "2 degree", np.allclose(deg, [2, 2, 2], atol=tol), f"degree {deg}")

    dif = diffusion(k3, DiffusionParams(delta=0.5, T=2)).values
    _check(lines, "2 diffusion", np.allclose(dif, [2, 2, 2], atol=tol), f"delta=.5 T=2 {dif}")

    lam, v = leading_eigenpair(k3)
    _check(lines, "2 lambda1", abs(lam - 2.0) < tol, f"lambda1 = {lam}")
    _check(
        lines,
        "2 eigvec",
        np.allclose(v, np.ones(3) / np.sqrt(3), atol=1e-10),
        "v1 = iota/sqrt(3)",
    )

    fit = ols(np.array([1.0, 2.0, 3.0]), degree(k3), mode="noisy-degree")
    B, V = degree_bias_variance(k3, fit)
    _check(lines, "2 B-hat", abs(B - 0.5) < tol, f"B = {B}")
    _check(lines, "2 V-hat", abs(V - 1.0 / 3.0) < tol, f"V = {V}")
    _check(
        lines,
        "2 bias-corrected",
        abs(bias_correct(fit) - 2.0 * fit.beta_hat) < tol,
        "beta_check doubles beta_hat under B = 0.5",
    )
    assert not lines, "\n".join(lines)


# ---------------------------------------------------------------------------
# 3. oracle equivalences


def _random_binary(n, p, seed):
    rng = np.random.default_rng(seed)
    dense = np.triu(rng.random((n, n)) < p, k=1)
    return SymmetricSparseMatrix.from_dense(dense | dense.T)


def test_criterion_3_oracle_equivalences():
    lines = []
    rng = np.random.default_rng(5150)

    ok = True
    for _ in range(10):
        n = int(rng.integers(4, 21))
        T = int(rng.integers(1, 6))
        delta = float(rng.uniform(0.1, 1.0))
        m = _random_binary(n, 0.35, int(rng.integers(1 << 30)))
        got = diffusion(m, DiffusionParams(delta=delta, T=T)).values
        dense = m.toarray()
        expect = np.zeros(n)
        power = np.eye(n)
        for t in range(1, T + 1):
            power = power @ dense
            expect += delta**t * power.sum(axis=1)
        ok &= bool(np.allclose(got, expect, atol=1e-9))
    _check(lines, "3 diffusion", ok, "sparse mat-vec == dense powers (n<=20, T<=5, atol 1e-9)")

    ok = True
    for _ in range(10):
        n = int(rng.integers(5, 16))
        T = int(rng.integers(1, 4))
        delta = float(rng.uniform(0.2, 1.0))
        m = _random_binary(n, 0.4, int(rng.integers(1 << 30)))
        if m.n_edges == 0:
            continue
        params = DiffusionParams(delta=delta, T=T)
        c = diffusion(m, params)
        y = np.random.default_rng(1).standard_normal(n) + c.values
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
        ok &= bool(np.isclose(V, literal, rtol=1e-9))
    _check(lines, "3 V-hat(T)", ok, "edge-local variance == literal Hadamard formula (n<=15, T<=3)")

    ok = True
    for _ in range(10):
        n = int(rng.integers(5, 31))
        m = _random_binary(n, 0.35, int(rng.integers(1 << 30)))
        if m.n_edges == 0:
            continue
        lam, v = leading_eigenpair(m)
        w, V = np.linalg.eigh(m.toarray())
        idx = int(np.argmax(np.abs(w)))
        ok &= abs(lam - w[idx]) <= 1e-8 * max(1.0, abs(w[idx]))
        ok &= abs(abs(v @ V[:, idx]) - 1.0) <= 1e-7
    _check(lines, "3 eigenpair", ok, "leading_eigenpair == dense eigensolve (n<=30, tol 1e-8)")

    ok = all(
        count_even_path_walks(t).counts == count_even_path_walks_isomorphism(t).counts
        for t in (2, 4, 6)
    )
    _check(lines, "3 walk counts", ok, "canonical and isomorphism enumerators agree, t in {2,4,6}")
    assert not lines, "\n".join(lines)


# ---------------------------------------------------------------------------
# 4. size reproduction at desk scale


def test_criterion_4_sizes(main_cell, diffusion_half_delta_cell):
    lines = []
    deg = main_cell.draws["degree"]
    dif = main_cell.draws["diffusion(delta=1.0,T=2)"]
    eig = main_cell.draws["eigenvector(sqrt-lambda1)"]

    size_deg = float(np.mean(np.abs(_ours_stat(deg, 1.0, R_TABLE)) >= Z95))
    _check(lines, "4a degree ours", 0.021 <= size_deg <= 0.081,
           f"size {size_deg:.4f} in 0.051 +- 0.03")

    size_rob = float(np.mean(np.abs(_robust_stat(deg, 1.0, R_TABLE)) >= Z95))
    _check(lines, "4b degree robust", size_rob >= 0.80,
           f"size {size_rob:.4f} >= 0.80 (paper 0.944)")

    size_eig = float(np.mean(np.abs(_robust_stat(eig, 1.0, R_TABLE)) >= Z95))
    _check(lines, "4c eigenvector robust", 0.006 <= size_eig <= 0.066,
           f"size {size_eig:.4f} in 0.036 +- 0.03")

    # the paper does not print its diffusion (delta, T); per the build notes
    # the criterion is evaluated at delta = 1 and, if above tolerance, at
    # delta = 0.5 before declaring failure (T = 2 throughout)
    size_dif_1 = float(np.mean(np.abs(_ours_stat(dif, 1.0, R_TABLE)) >= Z95))
    half = diffusion_half_delta_cell.draws["diffusion(delta=0.5,T=2)"]
    size_dif_05 = float(np.mean(np.abs(_ours_stat(half, 1.0)) >= Z95))
    ok_d = size_dif_1 <= 0.03 or size_dif_05 <= 0.03
    _check(lines, "4d diffusion ours", ok_d,
           f"size {size_dif_1:.4f} at delta=1, {size_dif_05:.4f} at delta=0.5 (need <= 0.03)")
    assert not lines, "\n".join(lines)


# ---------------------------------------------------------------------------
# 5. power at the zero null


def test_criterion_5_power(main_cell):
    lines = []
    for label in main_cell.estimators:
        d = main_cell.draws[label]
        power = float(np.mean(np.abs(_robust_stat(d, 0.0, R_TABLE)) >= Z95))
        _check(lines, f"5 {label}", power >= 0.95, f"power {power:.4f} >= 0.95")
    assert not lines, "\n".join(lines)


# ---------------------------------------------------------------------------
# 6. consistency phenomena


def test_criterion_6_consistency(main_cell):
    lines = []

    # (a) no-error slope at p = 1/n concentrates as n grows
    gaps = []
    for i, n in enumerate((100, 500, 2000)):
        cfg = ExperimentConfig(
            graphon=Graphon.constant(1.0),
            n_grid=[n],
            sparsity=SparsityRule("inverse-n"),
            replications=200,
            master_seed=MASTER_SEED,
            fit_no_error=True,
            estimators=[{"kind": "degree"}],
        )
        cell = run_cell(cfg, n, cell_index=10 + i, threads=THREADS)
        gaps.append(abs(float(np.nanmean(cell.draws["degree"]["beta_tilde"])) - 1.0))
    _check(lines, "6a no-error", gaps[0] > gaps[1] > gaps[2],
           f"|mean-1| decreasing across n: {['%.5f' % g for g in gaps]}")

    # (b) noisy degree slope at p = 1/n attenuates to the 0.5 plim
    cfg_b = ExperimentConfig(
        graphon=Graphon.constant(1.0),
        n_grid=[2000],
        sparsity=SparsityRule("inverse-n"),
        replications=200,
        master_seed=MASTER_SEED,
        estimators=[{"kind": "degree"}],
    )
    cell_b = run_cell(cfg_b, 2000, cell_index=20, threads=THREADS)
    mean_b = float(np.nanmean(cell_b.draws["degree"]["beta_hat"]))
    _check(lines, "6b noisy degree", 0.4 <= mean_b <= 0.6,
           f"mean beta_hat {mean_b:.4f} in [0.4, 0.6] (plim 0.5)")

    # (c) eigenvector with a_n = sqrt(n) collapses toward zero at p = 1/n
    cfg_c = ExperimentConfig(
        graphon=Graphon.constant(1.0),
        n_grid=[2000],
        sparsity=SparsityRule("inverse-n"),
        replications=200,
        master_seed=MASTER_SEED,
        estimators=[{"kind": "eigenvector", "scaling": "sqrt-n"}],
        eig_max_iter=30000,
    )
    cell_c = run_cell(cfg_c, 2000, cell_index=21, threads=THREADS)
    vals = cell_c.draws["eigenvector(sqrt-n)"]["beta_hat"]
    mean_c = float(np.nanmean(vals))
    n_fail = len(cell_c.failures)
    _check(lines, "6c eigenvector", abs(mean_c) < 0.5,
           f"|mean beta_hat| = {abs(mean_c):.4f} < 0.5 ({n_fail} failures excluded)")

    # (d) bias correction improves RMSE at the main cell
    deg = main_cell.draws["degree"]
    rmse_hat = float(np.sqrt(np.nanmean((deg["beta_hat"] - 1.0) ** 2)))
    rmse_check = float(np.sqrt(np.nanmean((deg["beta_check"] - 1.0) ** 2)))
    _check(lines, "6d bias correction", rmse_check < rmse_hat,
           f"RMSE beta_check {rmse_check:.4f} < RMSE beta_hat {rmse_hat:.4f}")
    assert not lines, "\n".join(lines)


# ---------------------------------------------------------------------------
# 7. distributional calibration


def _calibration_clause(d, B_hat, V_hat, sum_a_sq):
    """Feasible statistic = oracle-centered core + center error e_r.

    The core must pass KS against N(0,1) at the 1% level, and the mean of
    e_r = (B_hat - oracle_center / ssq) / sqrt(V_hat) must match the mean of
    the derived shift sum A_ij^2 / (ssq sqrt(V_hat)) to within 4 Monte Carlo
    standard errors of their per-replication difference.
    """
    b_oracle = d["oracle_center"] / d["ssq"]
    sd = np.sqrt(V_hat)
    core = (d["beta_hat"] - (1.0 - b_oracle)) / sd
    err = (B_hat - b_oracle) / sd
    derived = sum_a_sq / (d["ssq"] * sd)
    gap = err - derived
    z = float(gap.mean() / (gap.std(ddof=1) / np.sqrt(gap.size)))
    ks_p = float(kstest(core, norm.cdf).pvalue)
    ok = ks_p >= 0.01 and abs(z) <= 4.0
    detail = (
        f"core KS p = {ks_p:.3g} (sd {core.std():.3f}); mean e_r {err.mean():+.4f} "
        f"vs derived {derived.mean():+.4f}, z = {z:+.2f}"
    )
    return ok, detail


def test_criterion_7_calibration(main_cell):
    lines = []
    deg = main_cell.draws["degree"]
    n, p = main_cell.n, main_cell.p

    # constant graphon c = 1: every off-diagonal A_ij equals p
    design_ok = bool(np.allclose(deg["oracle_center"], n * (n - 1) * p * (1.0 - p), rtol=1e-12))
    _check(lines, "7 design", design_ok, "oracle_center == n(n-1)p(1-p) in every replication")
    sum_a_sq = n * (n - 1) * p**2

    s_feasible = _ours_stat(deg, 1.0)
    ok, detail = _calibration_clause(deg, deg["B_hat"], deg["V_hat"], sum_a_sq)
    _check(
        lines,
        "7 feasible statistic",
        ok,
        f"{detail}; feasible mean {s_feasible.mean():+.3f}, sd {s_feasible.std():.3f}",
    )

    # power: the same clause must reject deliberately wrong B_hat and V_hat
    controls = {
        "one-orientation B-hat": (deg["B_hat"] / 2.0, deg["V_hat"]),
        "doubled V-hat": (deg["B_hat"], 2.0 * deg["V_hat"]),
    }
    for label, (b_bad, v_bad) in controls.items():
        bad_ok, bad_detail = _calibration_clause(deg, b_bad, v_bad, sum_a_sq)
        _check(lines, f"7 power control rejects {label}", not bad_ok, bad_detail)

    s_robust = _robust_stat(deg, 1.0)
    ks_rob = kstest(s_robust, norm.cdf)
    _check(lines, "7 robust t KS", ks_rob.pvalue < 0.01,
           f"robust t rejected as expected (KS p = {ks_rob.pvalue:.3g})")
    assert not lines, "\n".join(lines)


def test_criterion_7_companion_oracle_centered_clt(main_cell):
    # validates the central limit content itself: centering at the
    # simulator-known conditional mean sum A_ij (1 - A_ij) removes the
    # bias-estimation shift and the statistic is standard normal
    deg = main_cell.draws["degree"]
    b_oracle = deg["oracle_center"] / deg["ssq"]
    s_oracle = (deg["beta_hat"] - (1.0 - b_oracle)) / np.sqrt(deg["V_hat"])
    ks = kstest(s_oracle, norm.cdf)
    print(f"[INFO] oracle-centered KS p = {ks.pvalue:.3g} (D = {ks.statistic:.4f})")
    assert ks.pvalue >= 0.01


# ---------------------------------------------------------------------------
# 8. regularization


def test_criterion_8_regularization():
    lines = []
    n, p = 200, 0.05
    tau_oracle = 2 * n * p
    g = Graphon.constant(1.0)
    spec_oracle = RegularizationSpec(mode="oracle", p_n=p)
    spec_plug = RegularizationSpec(mode="plug-in", M=1.0)

    bound_ok = True
    passthrough_checked = 0
    passthrough_ok = True
    ratio_ok = True
    rho_devs = []
    sd_rho = np.sqrt(2 * p * (1 - p) / (n * (n - 1)))
    for draw in range(100):
        u = sample_latent(n, seed=draw)
        a_hat = observe(build_true_adjacency(g, u, p), seed=10_000 + draw)
        reg = regularize(a_hat, spec_oracle)
        lam = reg.node_weights
        degs = a_hat.row_sums()
        bound_ok &= bool(np.all(lam * degs <= tau_oracle + 1e-9))
        if degs.max() <= tau_oracle:
            passthrough_checked += 1
            passthrough_ok &= bool(np.array_equal(reg.toarray(), a_hat.toarray()))
        rho_hat = a_hat.total() / (n * (n - 1))
        rho_devs.append(rho_hat - p)
        # plug-in threshold is 1.5x the oracle up to the rho-hat sampling error
        ratio = spec_plug.threshold(a_hat) / (1.5 * tau_oracle)
        ratio_ok &= abs(ratio - 1.0) <= 5 * sd_rho / p

    _check(lines, "8 degree bound", bound_ok, "lambda_i * deg_i <= tau on all 100 draws")
    _check(lines, "8 pass-through", passthrough_ok and passthrough_checked > 0,
           f"{passthrough_checked} bounded-degree draws returned unchanged")
    mean_dev = abs(float(np.mean(rho_devs)))
    _check(lines, "8 plug-in threshold", ratio_ok and mean_dev <= 3 * sd_rho / np.sqrt(100),
           f"plug-in/oracle ratio within rho sampling error (mean |rho-p| dev {mean_dev:.2e})")
    assert not lines, "\n".join(lines)
