"""Simulation harness: determinism, failure handling, and summaries."""

import json

import numpy as np
import pytest

from centreg import (
    BlockWeightedMatrix,
    ExperimentConfig,
    Graphon,
    SparsityRule,
    attenuation_study,
    power_curve,
    rejection_table,
    run_cell,
    run_experiment,
)
from centreg.monte_carlo import ConfigError, write_outputs


def small_config(**overrides):
    base = dict(
        graphon=Graphon.constant(1.0),
        n_grid=[50],
        sparsity=SparsityRule.constant(0.2),
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
        sparsity=SparsityRule.constant(0.02),
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
    rows = power_curve(cell, "degree", [0.5, 1.0, 2.0], alpha=0.05)
    assert [r["beta0"] for r in rows] == [0.5, 1.0, 2.0]
    # rejection at the true value should be smallest
    rates = {r["beta0"]: r["reject_rate"] for r in rows}
    assert rates[1.0] <= rates[0.5] and rates[1.0] <= rates[2.0]


def test_attenuation_study_plim_reference():
    cfg = small_config(
        n_grid=[80, 160],
        sparsity=SparsityRule.inverse_n(),
        replications=40,
        estimators=[{"kind": "degree"}],
    )
    rows = attenuation_study(cfg)
    assert [r["n"] for r in rows] == [80, 160]
    for r in rows:
        assert r["plim_reference"] == pytest.approx(0.5)  # np = 1 under p = 1/n


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


def test_write_outputs_files(tmp_path):
    cfg = small_config(replications=6)
    result = run_experiment(cfg)
    written = write_outputs(result, tmp_path, dump_graph=True)
    names = {str(p).split("/")[-1] for p in written}
    assert "size.csv" in names and "power.csv" in names and "manifest.json" in names
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["master_seed"] == cfg.master_seed
    assert str(cfg.n_grid[0]) in manifest["resolved_p"]
    header = (tmp_path / "size.csv").read_text().splitlines()[0]
    assert header == "n,p,estimator,beta0,alpha,reject_rate,se,failures"
    assert (tmp_path / "graphs" / "cell0_rep0.csv").exists()


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
        raise AssertionError("dense n x n A built on the block-graphon path")

    monkeypatch.setattr(BlockWeightedMatrix, "entries", property(no_dense))
    cfg = small_config(
        graphon=Graphon.sbm([0.5, 0.3, 0.2], [[0.9, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.8]]),
        n_grid=[200],
        sparsity=SparsityRule.inverse_sqrt_n(),
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
    assert cell.failures == []
    for label in cell.estimators:
        assert np.isfinite(cell.draws[label]["beta_hat"]).all()
        assert np.isfinite(cell.draws[label]["beta_tilde"]).all()
    assert np.isfinite(cell.draws["degree"]["oracle_center"]).all()
