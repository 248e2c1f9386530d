"""Simulation harness: determinism, failure handling, and summaries."""

import copy
import dataclasses
import functools
import inspect
import json
import multiprocessing
import pickle
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from centreg import (
    Estimator,
    ExperimentConfig,
    FactoredMatrix,
    Graphon,
    SparsityRule,
    build_true_adjacency,
    leading_eigenpair,
    observe,
    rejection_table,
    run_cell,
    run_experiment,
    sample_latent,
)
from centreg import monte_carlo
from centreg.monte_carlo import ConfigError, write_outputs


def small_config(**overrides):
    base = dict(
        graphon=Graphon.constant(1.0),
        n_grid=[50],
        sparsity=SparsityRule("constant", 0.2),
        beta_true=1.0,
        replications=24,
        master_seed=424242,
        estimators=[{"kind": "degree"}, {"kind": "diffusion", "delta": 1.0, "T": 2}],
    )
    base.update(overrides)
    return ExperimentConfig(**base)


def test_parallel_replications_bit_identical():
    cfg = small_config()
    serial = run_cell(cfg, 50, threads=1)
    threaded = run_cell(cfg, 50, threads=4)
    for label in serial.estimators:
        for key in serial.draws[label]:
            a, b = serial.draws[label][key], threaded.draws[label][key]
            assert np.array_equal(a, b, equal_nan=True), (label, key)


def test_estimators_share_draws_within_replication():
    # same Ahat per replication: T=1, delta=1 diffusion equals the degree fit
    cfg = small_config(
        estimators=[{"kind": "degree"}, {"kind": "diffusion", "delta": 1.0, "T": 1}]
    )
    cell = run_cell(cfg, 50)
    assert np.allclose(
        cell.draws["degree"]["beta_hat"],
        cell.draws["diffusion(delta=1.0,T=1)"]["beta_hat"],
    )


def test_failures_recorded_not_raised():
    # at p = 1/n with tiny n some draws have no edges: eigenvector fails,
    # the cell completes, and failures are itemized
    cfg = small_config(
        n_grid=[8],
        sparsity=SparsityRule("constant", 0.02),
        replications=30,
        estimators=[{"kind": "eigenvector", "scaling": "sqrt-lambda1"}],
    )
    cell = run_cell(cfg, 8)
    label = cell.estimators[0]
    nan_count = int(np.isnan(cell.draws[label]["beta_hat"]).sum())
    assert nan_count == len([f for f in cell.failures if f[1] == label])
    assert nan_count > 0
    assert all(kind in ("EmptyGraph", "NoConvergence", "DegenerateSpectrum", "ZeroRegressor")
               for _, _, kind in cell.failures)


def test_rejection_table_self_consistent():
    cfg = small_config()
    cell = run_cell(cfg, 50)
    rows = rejection_table(cell, [0.0, 1.0], [0.05])
    assert all(0.0 <= r["reject_rate"] <= 1.0 for r in rows)
    power_rows = [r for r in rows if r["beta0"] == 0.0 and r["estimator"] == "degree:robust"]
    assert power_rows[0]["reject_rate"] > 0.9  # beta = 1 is far from zero here


def test_power_curve_grid():
    cfg = small_config()
    cell = run_cell(cfg, 50)
    rows = [r for r in rejection_table(cell, [0.5, 1.0, 2.0], [0.05]) if r["estimator"] == "degree:ours"]
    assert [r["beta0"] for r in rows] == [0.5, 1.0, 2.0]
    # rejection at the true value should be smallest
    rates = {r["beta0"]: r["reject_rate"] for r in rows}
    assert rates[1.0] <= rates[0.5] and rates[1.0] <= rates[2.0]


def test_config_json_validation_pointers():
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_dict({"graphon": {"kind": "constant", "c": 1.0}})
    assert "/n_grid" in str(err.value)

    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_dict(
            {"graphon": {"kind": "constant", "c": 1.0}, "n_grid": [100, 1]}
        )
    assert "/n_grid/1" in str(err.value)

    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_dict(
            {
                "graphon": {"kind": "constant", "c": 1.0},
                "n_grid": [10],
                "estimators": [{"kind": "pagerank"}],
            }
        )
    assert "/estimators/0/kind" in str(err.value)


_VALID = {
    "graphon": {"kind": "sbm", "pi": [0.5, 0.5], "P": [[0.6, 0.2], [0.2, 0.5]]},
    "n_grid": [30, 60],
    "sparsity": {"kind": "constant", "p": 0.3},
    "beta_true": 1.0,
    "beta0_grid": [0.0, 1.0],
    "alpha_grid": [0.05],
    "estimators": [{"kind": "degree"}, {"kind": "diffusion", "delta": 0.5, "T": 2}],
    "error_model": {"kind": "gaussian", "sigma": 1.0},
    "replications": 3,
    "master_seed": 5,
    "fit_no_error": False,
    "threads": 1,
    "eig_max_iter": 20000,
    "eig_tol": 1e-9,
}
# every field of _VALID, the nested ones included
_FIELDS = [(k,) for k in _VALID] + [
    ("graphon", "kind"), ("graphon", "pi"), ("graphon", "P"), ("graphon", "P", 0), ("sparsity", "kind"),
    ("sparsity", "p"), ("n_grid", 0), ("beta0_grid", 1), ("alpha_grid", 0), ("estimators", 0),
    ("estimators", 1, "delta"), ("estimators", 1, "T"), ("error_model", "kind"), ("error_model", "sigma"),
]
_JSON_VALUE = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=6)
    | st.sampled_from(["constant", "sbm", "gaussian", "degree", "inverse-n", "delocalization-threshold"]),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.sampled_from(["kind", "p", "c", "pi", "P", "sigma"])
                                                              | st.text(max_size=4), inner, max_size=4),
    max_leaves=12,
)


@settings(max_examples=400, deadline=None)
@given(path=st.sampled_from(_FIELDS), value=_JSON_VALUE)
def test_config_field_replaced_by_any_json_value(path, value):
    # a config or a ConfigError, never another exception
    d = copy.deepcopy(_VALID)
    parent = d
    for key in path[:-1]:
        parent = parent[key]
    parent[path[-1]] = value
    try:
        cfg = ExperimentConfig.from_json_dict(d)
    except ConfigError as err:
        assert err.pointer.startswith("/" + path[0])
        return
    assert isinstance(cfg.fit_no_error, bool) and all(isinstance(x, float) for x in cfg.beta0_grid)


def test_config_rejects_coercible_values():
    # a boolean or string is not a number, nor a string a boolean; nor is a solver field out of range.
    # Construction checks the values, so a config built directly is rejected at the same pointer
    direct = dict(graphon=Graphon.constant(1.0), n_grid=[30], sparsity=SparsityRule("constant", 0.3))
    for field, value in [("replications", True), ("fit_no_error", "false"), ("master_seed", "3"),
                         ("beta_true", None), ("threads", None), ("n_grid", [30.0]), ("eig_max_iter", 0),
                         ("eig_max_iter", 2.0), ("eig_max_iter", True), ("eig_tol", 0), ("eig_tol", -1e-10),
                         ("eig_tol", "1e-10"), ("eig_tol", -1.0), ("replications", 0), ("alpha_grid", [2.0]),
                         ("threads", -3), ("beta0_grid", [])]:
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json_dict({**_VALID, field: value})
        assert err.value.pointer.startswith("/" + field)
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**{**direct, field: value})
        assert built.value.pointer == err.value.pointer
    for sigma in (0, -1.0, "1", True):
        with pytest.raises(ConfigError) as err:
            ExperimentConfig.from_json_dict({**_VALID, "error_model": {"kind": "gaussian", "sigma": sigma}})
        with pytest.raises(ConfigError) as built:
            ExperimentConfig(**direct, sigma=sigma)
        assert err.value.pointer == built.value.pointer == "/error_model/sigma"
    # the benchmark's worker replaces the master seed per batch, and a replaced field is checked too
    cfg = ExperimentConfig(**direct)
    assert dataclasses.replace(cfg, master_seed=7).master_seed == 7
    with pytest.raises(ConfigError, match="^/master_seed: "):
        dataclasses.replace(cfg, master_seed=-1)


def test_config_rejects_a_repeated_n():
    # each cell's outputs are named by its n, so a repeated n would overwrite the first cell's
    with pytest.raises(ConfigError, match=r"^/n_grid/1: duplicate n 30, as /n_grid/0$"):
        ExperimentConfig.from_json_dict({**_VALID, "n_grid": [30, 30]})
    with pytest.raises(ConfigError) as err:
        small_config(n_grid=[50, 60, 50])
    assert err.value.pointer == "/n_grid/2"


def test_run_cell_checks_fields_assigned_after_construction():
    # the config is a plain dataclass, so a field may be assigned after __post_init__ ran
    cfg = small_config(replications=2)
    cfg.eig_max_iter = 30000  # the benchmark's worker assigns this one
    assert run_cell(cfg, 30).replications == 2
    cfg.replications = 0
    cfg.eig_tol = -1.0
    with pytest.raises(ConfigError, match="^/replications: "):
        run_cell(cfg, 30)


def test_manifest_keys_in_order(tmp_path):
    result = run_experiment(small_config(replications=2))
    write_outputs(result, tmp_path)
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert list(manifest) == ["master_seed", "replications", "cells", "resolved_p", "environment"]
    assert manifest == json.loads(json.dumps(result.manifest()))
    assert manifest["resolved_p"] == {"50": 0.2}


def test_config_rejects_an_unknown_field():
    # a misspelled field would otherwise leave its default (1000 replications) in place
    with pytest.raises(ConfigError, match="^/replicatoins: unknown field$") as err:
        ExperimentConfig.from_json_dict({**_VALID, "replicatoins": 5})
    assert err.value.pointer == "/replicatoins"


def test_config_applies_the_solver_fields():
    cfg = ExperimentConfig.from_json_dict({**_VALID, "eig_max_iter": 7, "eig_tol": 1})
    assert (cfg.eig_max_iter, cfg.eig_tol) == (7, 1)
    starved = {**_VALID, "replications": 2, "estimators": [{"kind": "eigenvector"}], "eig_max_iter": 2}
    assert [f[2] for f in run_cell(ExperimentConfig.from_json_dict(starved), 30).failures] == ["NoConvergence"] * 2
    default = ExperimentConfig.from_json_dict({k: v for k, v in _VALID.items() if not k.startswith("eig_")})
    assert (default.eig_max_iter, default.eig_tol) == (50_000, 1e-10)
    library = inspect.signature(leading_eigenpair).parameters  # a library solve has the same defaults
    assert (library["max_iter"].default, library["tol"].default) == (50_000, 1e-10)


def test_config_round_trip_from_json(tmp_path):
    payload = {
        "graphon": {"kind": "constant", "c": 1.0},
        "n_grid": [40],
        "sparsity": {"kind": "inverse-sqrt-n"},
        "replications": 5,
        "master_seed": 11,
        "estimators": [{"kind": "degree"}],
    }
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps(payload))
    cfg = ExperimentConfig.from_json_file(path)
    assert cfg.sparsity.resolve(40) == pytest.approx(40 ** -0.5)


@pytest.mark.parametrize("graphon", [Graphon.constant(1.0), Graphon.sbm([0.6, 0.4], [[0.6, 0.2], [0.2, 0.5]]),
                                     Graphon.rank_r([0.5, 0.15])], ids=["constant", "sbm", "rank-r"])
def test_config_pickles_and_its_copy_draws_the_same(graphon):
    cfg = small_config(graphon=graphon, replications=3, estimators=[{"kind": "degree"}, {"kind": "eigenvector"}])
    copied = pickle.loads(pickle.dumps(cfg))
    assert copied == cfg and copied.graphon == graphon
    want, got = run_experiment(cfg).cells[0], run_experiment(copied).cells[0]
    for label in want.estimators:
        for key in want.draws[label]:
            assert np.array_equal(got.draws[label][key], want.draws[label][key], equal_nan=True), (label, key)
    assert got.failure_detail == want.failure_detail


def test_config_error_pickles_with_its_pointer_and_message(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({**_VALID, "replications": 0}))
    with pytest.raises(ConfigError) as err:
        ExperimentConfig.from_json_file(path)
    assert str(err.value).startswith(f"{path}: /replications: ")  # the file's path leads the message
    for exc in (err.value, ConfigError("/n_grid", "missing required field"), ConfigError("", "no pointer")):
        copied = pickle.loads(pickle.dumps(exc))
        assert type(copied) is ConfigError and copied.pointer == exc.pointer and str(copied) == str(exc)


def test_replications_run_in_spawned_worker_processes():
    # a replication with its config bound pickles, so a process pool returns the in-process records
    cfg = small_config(graphon=Graphon.rank_r([0.5, 0.15]), replications=4,
                       estimators=[{"kind": "degree"}, {"kind": "eigenvector"}])
    replicate = functools.partial(monte_carlo._replicate, cfg, 50, cfg.sparsity.resolve(50), 0)
    with ProcessPoolExecutor(max_workers=2, mp_context=multiprocessing.get_context("spawn")) as pool:
        got = list(pool.map(replicate, range(cfg.replications), timeout=120))
    assert repr(got) == repr([replicate(rep) for rep in range(cfg.replications)])  # floats to the bit, NaN as NaN


_WALKS = [{"kind": "degree"}, {"kind": "diffusion", "delta": 1.0, "T": 2}]


@pytest.mark.parametrize("graphon", [Graphon.constant(1.0), Graphon.rank_r([0.5, 0.15])], ids=["constant", "rank-r"])
@pytest.mark.parametrize(
    "estimators",
    [
        [*_WALKS, {"kind": "eigenvector"}],
        [*_WALKS, {"kind": "regularized-eigenvector"}],
        [{"kind": "eigenvector"}, {"kind": "regularized-eigenvector", "reg_mode": "oracle"},
         {"kind": "diffusion", "delta_rule": "inverse-lambda1"}],
    ],
    ids=["eigenvector", "regularized", "eigenvector+regularized+diffusion-inverse-lambda1"],
)
def test_eigenvector_record_is_the_same_after_degree_and_diffusion(graphon, estimators, monkeypatch):
    # the estimators run first make Ahat's and A's walk vectors and eigenpairs
    # before the later ones read them; run alone, each estimator makes them
    # itself, to the same bits.  No degree here exceeds tau, so regularize
    # passes Ahat through and a replication solves Ahat and A once each
    from centreg import centrality

    together = small_config(graphon=graphon, estimators=estimators, fit_no_error=True)
    p = together.sparsity.resolve(50)
    real, solved = centrality._lanczos, []

    def spy(matvec, *args):
        solved.append(type(matvec.__self__))
        return real(matvec, *args)

    for rep in range(4):
        solved.clear()
        with monkeypatch.context() as patch:
            patch.setattr(centrality, "_lanczos", spy)
            shared, failures = monte_carlo._replicate(together, 50, p, 0, rep)
        assert failures == [] and sorted(t.__name__ for t in solved) == ["FactoredMatrix", "SymmetricSparseMatrix"]
        for spec, est in zip(estimators, together.estimators):
            alone = small_config(graphon=graphon, estimators=[spec], fit_no_error=True)
            solo, _ = monte_carlo._replicate(alone, 50, p, 0, rep)
            assert repr(solo[est.label]) == repr(shared[est.label])  # floats to the bit, NaN as NaN


def test_write_outputs_files(tmp_path):
    cfg = small_config(replications=6)
    result = run_experiment(cfg)
    written = write_outputs(result, tmp_path, dump_graph=True)
    names = {str(p).split("/")[-1] for p in written}
    assert "size.csv" in names and "power.csv" in names and "manifest.json" in names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == cfg.master_seed
    assert str(cfg.n_grid[0]) in manifest["resolved_p"]
    assert manifest["cells"][0]["modes"] == {
        "degree": "noisy-degree",
        "diffusion(delta=1.0,T=2)": "noisy-diffusion",
    }
    header = (tmp_path / "size.csv").read_text().splitlines()[0]
    assert header == "n,p,estimator,beta0,alpha,reject_rate,se,failures"
    assert (tmp_path / "graphs" / "cell0_rep0.csv").exists()


def test_draw_files_print_each_draw_as_its_numpy_scalar(tmp_path):
    # the rows are built from .tolist(): a Python float prints as the numpy scalar did
    from centreg.monte_carlo import _DIST_KEYS

    result = run_experiment(small_config(replications=6))
    d = result.cells[0].draws["degree"]
    d["B_hat"][:] = [np.nan, np.inf, -0.0, 1e-5, 1e16, 5e-324]
    d["V_hat"][:] = [0.1 + 0.2, 2.5, 1e-4, 123456789.123456789, 1e300, 1.0]
    write_outputs(result, tmp_path)
    lines = (tmp_path / "dist_degree_n50.csv").read_text().splitlines()
    assert lines[0] == ",".join(["replication", *_DIST_KEYS])
    assert lines[1:] == [",".join([str(r), *(str(d[key][r]) for key in _DIST_KEYS)]) for r in range(6)]


def test_manifest_records_environment(tmp_path):
    write_outputs(run_experiment(small_config(replications=2), threads=2), tmp_path)
    env = json.loads((tmp_path / "manifest.json").read_text())["environment"]
    assert set(env) == {"python", "numpy", "scipy", "blas", "cores", "threads"}
    assert env["numpy"] == np.__version__ and set(env["blas"]) == {"name", "version"}
    assert env["cores"] >= 1 and env["threads"] == {"0": 2}


def test_failure_detail_keeps_message_and_residual(tmp_path):
    cfg = small_config(
        replications=3,
        eig_max_iter=2,
        estimators=[{"kind": "eigenvector", "scaling": "sqrt-lambda1"}],
    )
    write_outputs(run_experiment(cfg), tmp_path)
    detail = json.loads((tmp_path / "manifest.json").read_text())["cells"][0]["failure_detail"]
    assert [d["replication"] for d in detail] == [0, 1, 2]
    for d in detail:
        assert d["error"] == "NoConvergence"
        assert "did not reach" in d["message"]
        assert isinstance(d["residual"], float) and np.isfinite(d["residual"])


def test_block_graphon_cell_never_builds_dense_a(monkeypatch):
    def no_dense(self):
        raise AssertionError("dense n x n A built on the simulation path")

    monkeypatch.setattr(FactoredMatrix, "entries", property(no_dense))
    for graphon in (
        Graphon.sbm([0.5, 0.3, 0.2], [[0.9, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.8]]),
        Graphon.rank_r([0.5, 0.15]),
    ):
        cfg = small_config(
            graphon=graphon,
            n_grid=[200],
            sparsity=SparsityRule("inverse-sqrt-n"),
            replications=3,
            fit_no_error=True,
            estimators=[
                {"kind": "degree"},
                {"kind": "diffusion", "delta": 0.5, "T": 2},
                {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
                {"kind": "regularized-eigenvector", "scaling": "sqrt-lambda1"},
            ],
        )
        cell = run_cell(cfg, 200)
        assert cell.failures == [], graphon.kind
        for label in cell.estimators:
            assert np.isfinite(cell.draws[label]["beta_hat"]).all()
            assert np.isfinite(cell.draws[label]["beta_tilde"]).all()
        assert np.isfinite(cell.draws["degree"]["oracle_center"]).all()


# ---------------------------------------------------------------------------
# one estimator spec, one statistic


def _replication_draws(cfg, n, p, rep, cell_index=0):
    """A, Ahat and eps of one replication, from the documented stream layout."""
    from centreg import build_true_adjacency, observe, sample_latent

    ss = np.random.SeedSequence(entropy=(cfg.master_seed, cell_index, rep))
    seed_latent, seed_obs, seed_eps = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    a_true = build_true_adjacency(cfg.graphon, sample_latent(n, seed_latent), p)
    eps = np.random.default_rng(np.random.SeedSequence(seed_eps)).standard_normal(n) * cfg.sigma
    return a_true, observe(a_true, seed_obs), eps


_TILDE_SPECS = [
    {"kind": "diffusion", "delta": 0.5, "T": 2},
    {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
    {"kind": "eigenvector", "scaling": "sqrt-n"},
    {"kind": "regularized-eigenvector", "scaling": "sqrt-lambda1"},
]


@pytest.mark.parametrize(
    "estimators",
    [[{"kind": "degree"}]]
    + [[spec] for spec in _TILDE_SPECS]
    + [[{"kind": "degree"}, spec] for spec in _TILDE_SPECS],
    ids=lambda ests: "+".join(e["kind"] + e.get("scaling", "") for e in ests),
)
def test_beta_tilde_regresses_y_on_the_centrality_that_generated_it(estimators):
    from centreg import leading_eigenpair, ols

    n, reps = 60, 4
    cfg = small_config(n_grid=[n], replications=reps, fit_no_error=True, estimators=estimators)
    cell = run_cell(cfg, n)
    est = cfg.estimators[-1]
    eig = {"max_iter": cfg.eig_max_iter, "tol": cfg.eig_tol}
    for rep in range(reps):
        a_true, a_hat, eps = _replication_draws(cfg, n, cell.p, rep)
        if est.spectral:
            # outcomes scale v1(A) by the a_n of the fit on Ahat
            a_n = est.centrality(a_hat, cell.p, **eig).recipe["a_n"]
            c_true = a_n * leading_eigenpair(a_true, **eig)[1]
        else:
            c_true = est.centrality(a_true).values
        want = ols(cfg.beta_true * c_true + eps, c_true, mode="no-error")
        assert cell.draws[est.label]["beta_tilde"][rep] == pytest.approx(want.beta_hat, rel=1e-12)
        assert cell.draws[est.label]["V0_tilde"][rep] == pytest.approx(want.V0_hat, rel=1e-12)


def test_true_eigenpair_solved_once_per_replication(monkeypatch):
    from centreg import centrality

    specs = [
        {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
        {"kind": "regularized-eigenvector", "scaling": "sqrt-n"},
    ]
    real = centrality._lanczos
    true_solves = []

    def counting(matvec, *args):
        true_solves.append(isinstance(matvec.__self__, FactoredMatrix))
        return real(matvec, *args)

    monkeypatch.setattr(centrality, "_lanczos", counting)
    cfg = small_config(n_grid=[80], replications=5, estimators=specs)
    both = run_cell(cfg, 80)
    assert sum(true_solves) == cfg.replications
    monkeypatch.undo()

    # the shared solve leaves every draw as it is with each estimator alone
    for spec in specs:
        alone = run_cell(small_config(n_grid=[80], replications=5, estimators=[spec]), 80)
        label = alone.estimators[0]
        for key, values in alone.draws[label].items():
            assert np.array_equal(values, both.draws[label][key], equal_nan=True), (label, key)


def test_every_eigensolve_gets_the_callers_settings(monkeypatch):
    # a spectral delta rule solves for lambda1 on Ahat and on A; both solves,
    # like the eigenvector kinds', take the cell's max_iter and tol
    from centreg import centrality, monte_carlo

    real = centrality.leading_eigenpair
    seen = []

    def spy(m, *args, **kwargs):
        seen.append(kwargs)
        return real(m, *args, **kwargs)

    monkeypatch.setattr(centrality, "leading_eigenpair", spy)
    monkeypatch.setattr(monte_carlo, "leading_eigenpair", spy)
    specs = [{"kind": "diffusion", "delta_rule": "inverse-lambda1", "T": 2},
             {"kind": "eigenvector", "scaling": "sqrt-lambda1"}]
    cfg = small_config(replications=3, eig_max_iter=4321, eig_tol=1e-9, fit_no_error=True, estimators=specs)
    cell = run_cell(cfg, 50)
    assert cell.failures == []
    # per replication: delta on Ahat and on A, v1(Ahat), and v1(A) once
    assert seen == [{"max_iter": 4321, "tol": 1e-9}] * (4 * cfg.replications)


# one estimator per inference mode, the last two by override
MODE_SPECS = [
    {"kind": "degree"},
    {"kind": "diffusion", "delta": 0.5, "T": 2},
    {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
    {"kind": "eigenvector", "scaling": "sqrt-n"},
    {"kind": "regularized-eigenvector", "scaling": "sqrt-n", "mode": "noisy-eigenvector-case-b"},
    {"kind": "eigenvector", "scaling": "fixed", "a": 5, "mode": "no-error"},
]


def test_rejection_table_is_test_beta_on_the_stored_draws():
    from centreg import test_beta
    from centreg.inference import MODES, RegressionFit

    n = 60
    cfg = small_config(n_grid=[n], replications=40, estimators=MODE_SPECS)
    cell = run_cell(cfg, n)
    assert sorted(cell.modes.values()) == sorted(MODES)
    rows = rejection_table(cell, [0.0, 0.8, 1.0, -1.5], [0.05, 0.2])
    assert len(rows) == len(MODE_SPECS) * 2 * 4 * 2
    for row in rows:
        label, statistic = row["estimator"].rsplit(":", 1)
        mode = cell.modes[label] if statistic == "ours" else "no-error"
        d = cell.draws[label]
        rejects = []
        for r in np.flatnonzero(cell.ok_mask(label)):
            fit = RegressionFit(
                beta_hat=d["beta_hat"][r], ssq_c=d["ssq"][r], residuals=np.empty(0),
                V0_hat=d["V0_hat"][r], mode=mode, n=n, B_hat=d["B_hat"][r], V_hat=d["V_hat"][r],
            )
            rejects.append(test_beta(fit, row["beta0"], alphas=(row["alpha"],)).reject_at[row["alpha"]])
        assert row["reject_rate"] == np.mean(rejects), row


def test_estimator_specs_parse_once_with_their_modes():
    from centreg import Estimator

    cfg = small_config(estimators=MODE_SPECS)
    assert all(isinstance(e, Estimator) for e in cfg.estimators)
    assert [e.mode for e in cfg.estimators] == [
        "noisy-degree",
        "noisy-diffusion",
        "noisy-eigenvector-corollary-5",
        "noisy-eigenvector-case-a",
        "noisy-eigenvector-case-b",
        "no-error",
    ]
    assert [e.label for e in cfg.estimators] == [
        "degree",
        "diffusion(delta=0.5,T=2)",
        "eigenvector(sqrt-lambda1)",
        "eigenvector(sqrt-n)",
        "regularized-eigenvector(sqrt-n)",
        "eigenvector(fixed)",
    ]


def test_estimator_instances_are_checked_at_construction():
    # an instance raises once, where it is built, instead of failing every replication
    with pytest.raises(ConfigError, match=r"^T: expected an integer >= 1, got 2\.5"):
        small_config(estimators=[Estimator(kind="diffusion", T=2.5), Estimator(kind="eigenvector")], replications=3)
    with pytest.raises(ConfigError, match="^a: fixed scaling needs a"):
        Estimator(kind="eigenvector", scaling="fixed")
    with pytest.raises(ConfigError, match=r"^T: expected an integer in \[1, 10\]"):
        Estimator(kind="diffusion", T=11)  # a fitted diffusion reads b from the reference table
    assert Estimator(kind="diffusion", T=11, fitted=False).T == 11
    with pytest.raises(ConfigError, match="^kind: expected one of"):
        Estimator(kind="pagerank")


def test_duplicate_estimator_labels_rejected():
    with pytest.raises(ConfigError) as err:
        small_config(
            estimators=[
                {"kind": "eigenvector", "scaling": "fixed", "a": 2},
                {"kind": "eigenvector", "scaling": "fixed", "a": 5},
            ]
        )
    assert err.value.pointer == "/estimators/1"
    assert "eigenvector(fixed)" in str(err.value)


def test_spectral_delta_rule_has_its_own_label():
    cfg = small_config(
        estimators=[{"kind": "diffusion"}, {"kind": "diffusion", "delta_rule": "inverse-lambda1"}]
    )
    assert [e.label for e in cfg.estimators] == [
        "diffusion(delta=1.0,T=2)",
        "diffusion(delta_rule=inverse-lambda1,T=2)",
    ]
