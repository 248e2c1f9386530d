"""CLI subcommands: exit codes, file outputs, reproducibility."""

import csv
import json

import numpy as np
import pytest

from centreg.cli import main


def write_k3(tmp_path):
    edges = tmp_path / "k3.csv"
    edges.write_text("i,j\n0,1\n0,2\n1,2\n")
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n0,1\n1,2\n2,3\n")
    return edges, outcomes


def test_derive_b_verify_exit_zero(tmp_path, capsys):
    out = tmp_path / "b.csv"
    code = main(["derive", "b", "--max", "2", "--verify", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    got = {(int(r["T"]), int(r["t"]), int(r["delta_power"])): int(r["coefficient"]) for r in rows}
    # table rows for T = 2
    assert got[(2, 1, 2)] == 1 and got[(2, 1, 3)] == -3 and got[(2, 1, 4)] == 3
    assert got[(2, 2, 3)] == 3 and got[(2, 2, 4)] == -2 and got[(2, 3, 4)] == 2


def test_derive_g_verify_exit_zero(tmp_path):
    code = main(["derive", "g", "--max", "4", "--verify", "--out", str(tmp_path / "g.csv")])
    assert code == 0


def test_derive_budget_exceeded_exit_two(tmp_path):
    code = main(["derive", "b", "--max", "99", "--out", str(tmp_path / "x.csv")])
    assert code == 2


def test_regress_k3_degree(tmp_path):
    edges, outcomes = write_k3(tmp_path)
    out = tmp_path / "fit.json"
    code = main(
        [
            "regress",
            "--edges", str(edges),
            "--outcomes", str(outcomes),
            "--centrality", "degree",
            "--beta0", "0",
            "--out", str(out),
        ]
    )
    assert code == 0
    fit = json.loads(out.read_text())
    assert fit["beta_hat"] == pytest.approx(1.0)
    assert fit["attenuation"] == pytest.approx(0.5)
    assert fit["beta_check"] == pytest.approx(2.0)
    assert fit["tests"][0]["beta0"] == 0.0
    assert fit["intervals"][0]["alpha"] == 0.05


def _strict_json(text):
    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    return json.loads(text, parse_constant=reject)


def test_regress_json_has_no_infinity(tmp_path):
    # on K3 the de-biased set wraps: two half-lines whose open ends are null
    edges, outcomes = write_k3(tmp_path)
    out = tmp_path / "fit.json"
    assert main(["regress", "--edges", str(edges), "--outcomes", str(outcomes), "--out", str(out)]) == 0
    interval = _strict_json(out.read_text())["intervals"][0]
    assert interval["wraps"]
    assert interval["c"][0][0] is None and interval["c"][1][1] is None


@pytest.mark.parametrize(
    "ys,message",
    [(["1", "nan", "3", "inf"], "y.csv:3"), (["0", "0", "0", "0"], "V0_hat")],
    ids=["non-finite", "all-zero"],
)
def test_regress_degenerate_outcomes_exit_two(tmp_path, capsys, ys, message):
    edges = tmp_path / "e.csv"
    edges.write_text("i,j\n0,1\n1,2\n2,3\n0,3\n0,2\n")
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n" + "".join(f"{i},{y}\n" for i, y in enumerate(ys)))
    code = main(["regress", "--edges", str(edges), "--outcomes", str(outcomes)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert message in captured.err and "Traceback" not in captured.err


def test_regress_diffusion_t1_matches_degree(tmp_path):
    edges, outcomes = write_k3(tmp_path)
    out_deg = tmp_path / "deg.json"
    out_dif = tmp_path / "dif.json"
    assert main(["regress", "--edges", str(edges), "--outcomes", str(outcomes),
                 "--centrality", "degree", "--out", str(out_deg)]) == 0
    assert main(["regress", "--edges", str(edges), "--outcomes", str(outcomes),
                 "--centrality", "diffusion", "--delta", "1.0", "--T", "1",
                 "--out", str(out_dif)]) == 0
    deg = json.loads(out_deg.read_text())
    dif = json.loads(out_dif.read_text())
    for key in ("beta_hat", "B_hat", "V_hat", "V0_hat", "beta_check"):
        assert deg[key] == pytest.approx(dif[key], rel=1e-12)


def test_regress_missing_outcome_exit_two(tmp_path):
    edges = tmp_path / "e.csv"
    edges.write_text("i,j\n0,1\n1,2\n")
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n0,1\n1,2\n")  # node 2 missing
    code = main(["regress", "--edges", str(edges), "--outcomes", str(outcomes)])
    assert code == 2


def test_regress_duplicate_edge_exit_two(tmp_path):
    edges = tmp_path / "e.csv"
    edges.write_text("i,j\n0,1\n1,0\n")
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n0,1\n1,2\n")
    code = main(["regress", "--edges", str(edges), "--outcomes", str(outcomes)])
    assert code == 2


def test_centrality_subcommand(tmp_path):
    edges, _ = write_k3(tmp_path)
    out = tmp_path / "cent.csv"
    code = main(["centrality", "--edges", str(edges), "--kind", "degree", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(r["value"]) for r in rows] == [2.0, 2.0, 2.0]


def test_simulate_minimal_config(tmp_path):
    cfg = {
        "graphon": {"kind": "constant", "c": 1.0},
        "n_grid": [100],
        "sparsity": {"kind": "inverse-n"},
        "replications": 10,
        "master_seed": 3,
        "estimators": [{"kind": "degree"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    assert code == 0
    header = (out_dir / "size.csv").read_text().splitlines()[0]
    assert header == "n,p,estimator,beta0,alpha,reject_rate,se,failures"
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["resolved_p"]["100"] == pytest.approx(0.01)


def test_simulate_malformed_json_exit_two(tmp_path, capsys):
    cfg_path = tmp_path / "bad.json"
    cfg_path.write_text('{"graphon": {"kind": "constant", }')
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    err = capsys.readouterr().err
    assert "line" in err and "column" in err


def test_simulate_schema_violation_pointer(tmp_path, capsys):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps({"graphon": {"kind": "constant", "c": 1.0}, "n_grid": [1]}))
    code = main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "o")])
    assert code == 2
    assert "/n_grid/0" in capsys.readouterr().err


def test_dump_graph_round_trip(tmp_path):
    cfg = {
        "graphon": {"kind": "constant", "c": 1.0},
        "n_grid": [40],
        "sparsity": {"kind": "constant", "p": 0.2},
        "replications": 2,
        "master_seed": 99,
        "estimators": [{"kind": "degree"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--dump-graph"]) == 0

    graph = out_dir / "graphs" / "cell0_rep0.csv"
    assert graph.exists()

    # recompute in memory and compare centralities after the file round trip
    from centreg import Graphon, SymmetricBinaryMatrix, build_true_adjacency, degree, observe, sample_latent
    from centreg.io import read_edge_list

    ss = np.random.SeedSequence(entropy=(99, 0, 0))
    seed_latent, seed_obs, _ = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    u = sample_latent(40, seed_latent)
    a_hat = observe(build_true_adjacency(Graphon.constant(1.0), u, 0.2), seed_obs)

    rows, cols = read_edge_list(graph)
    back = SymmetricBinaryMatrix.from_edges(40, rows, cols)
    assert np.array_equal(degree(back).values, degree(a_hat).values)


def test_seed_reproducibility(tmp_path):
    cfg = {
        "graphon": {"kind": "constant", "c": 1.0},
        "n_grid": [50],
        "sparsity": {"kind": "constant", "p": 0.1},
        "replications": 5,
        "estimators": [{"kind": "degree"}],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    outs = []
    for name in ("a", "b"):
        out_dir = tmp_path / name
        assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--seed", "123"]) == 0
        outs.append((out_dir / "size.csv").read_bytes())
    assert outs[0] == outs[1]


def _simulate_with(tmp_path, estimators):
    cfg = {
        "graphon": {"kind": "constant", "c": 1.0},
        "n_grid": [60],
        "sparsity": {"kind": "constant", "p": 0.2},
        "replications": 3,
        "master_seed": 5,
        "estimators": estimators,
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    out_dir = tmp_path / "out"
    return main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]), out_dir


@pytest.mark.parametrize(
    "estimators,pointer",
    [
        ([{"kind": "eigenvector", "scaling": "bogus"}], "/estimators/0/scaling"),
        ([{"kind": "diffusion", "delta": 5}], "/estimators/0/delta"),
        ([{"kind": "diffusion", "T": 1.5}], "/estimators/0/T"),
        ([{"kind": "regularized-eigenvector", "reg_mode": "plug-in"}], "/estimators/0/M"),
        ([{"kind": "eigenvector", "scaling": "fixed"}], "/estimators/0/a"),
        ([{"kind": "degree"}, {"kind": "degree", "mode": "noisy-sideways"}], "/estimators/1/mode"),
        (
            [{"kind": "eigenvector", "scaling": "fixed", "a": 2}, {"kind": "eigenvector", "scaling": "fixed", "a": 5}],
            "/estimators/1: duplicate label 'eigenvector(fixed)'",
        ),
    ],
    ids=["scaling", "delta", "T", "plug-in-M", "fixed-a", "mode", "duplicate"],
)
def test_simulate_bad_estimator_spec_exit_two(tmp_path, capsys, estimators, pointer):
    code, out_dir = _simulate_with(tmp_path, estimators)
    err = capsys.readouterr().err
    assert code == 2
    assert len(err.strip().splitlines()) == 1
    assert pointer in err and "Traceback" not in err
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "flags,flag",
    [
        (["--kind", "eigenvector", "--scaling", "fixed"], "--scale-a"),
        (["--kind", "regularized-eigenvector"], "--reg-p"),
        (["--kind", "regularized-eigenvector", "--reg-mode", "plug-in"], "--reg-M"),
        (["--kind", "diffusion", "--delta", "2"], "--delta"),
    ],
)
def test_centrality_bad_estimator_flags_exit_two(tmp_path, capsys, flags, flag):
    edges, _ = write_k3(tmp_path)
    code = main(["centrality", "--edges", str(edges), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert flag in captured.err and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "scaling,mode",
    [("sqrt-n", "noisy-eigenvector-case-a"), ("sqrt-lambda1", "noisy-eigenvector-corollary-5")],
)
def test_regress_reports_the_mode_simulate_uses(tmp_path, scaling, mode):
    edges, outcomes = write_k3(tmp_path)
    out = tmp_path / "fit.json"
    assert main(["regress", "--edges", str(edges), "--outcomes", str(outcomes),
                 "--centrality", "eigenvector", "--scaling", scaling, "--out", str(out)]) == 0
    assert json.loads(out.read_text())["mode"] == mode

    code, out_dir = _simulate_with(tmp_path, [{"kind": "eigenvector", "scaling": scaling}])
    assert code == 0
    manifest = json.loads((out_dir / "manifest.json").read_text())
    assert manifest["cells"][0]["modes"] == {f"eigenvector({scaling})": mode}
