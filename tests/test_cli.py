"""CLI subcommands: exit codes, file outputs, reproducibility."""

import csv
import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import scipy

from centreg.cli import _build_parser, main


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


def test_derive_b_json_is_the_csv_table(tmp_path, capsys):
    # the README's example: JSON rows on stdout, the verification on stderr
    assert main(["derive", "b", "--max", "4", "--verify", "--format", "json"]) == 0
    captured = capsys.readouterr()
    assert captured.err == "verification passed for all derived b tables\n"
    assert main(["derive", "b", "--max", "4", "--out", str(tmp_path / "b.csv")]) == 0
    want = [{k: int(v) for k, v in row.items()} for row in csv.DictReader((tmp_path / "b.csv").open())]
    assert json.loads(captured.out) == want and {row["T"] for row in want} == {1, 2, 3, 4}


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


def test_regress_zero_robust_variance_exit_two_at_a_nonzero_null(tmp_path, capsys):
    # y equal to the degrees fits exactly, so V0_hat = 0 leaves C0 without a
    # scale even when no zero null is tested
    edges = tmp_path / "e.csv"
    edges.write_text("i,j\n0,1\n1,2\n2,3\n0,3\n0,2\n")
    outcomes = tmp_path / "y.csv"
    outcomes.write_text("id,y\n0,3\n1,2\n2,3\n3,2\n")
    code = main(["regress", "--edges", str(edges), "--outcomes", str(outcomes), "--beta0", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == "error: V0_hat = 0: the test statistic has no scale\n"


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


def test_parser_is_built_once_and_keeps_no_state(tmp_path):
    # one parser serves every call in a process; repeated flags of one call
    # must not reach the next call's defaults
    edges, outcomes = write_k3(tmp_path)
    out = tmp_path / "fit.json"
    assert _build_parser() is _build_parser()
    base = ["regress", "--edges", str(edges), "--outcomes", str(outcomes), "--out", str(out)]
    assert main(base + ["--beta0", "0", "--beta0", "1", "--alpha", "0.1"]) == 0
    assert len(json.loads(out.read_text())["tests"]) == 2
    assert main(base) == 0
    fit = json.loads(out.read_text())
    assert [t["beta0"] for t in fit["tests"]] == [0.0]
    assert [iv["alpha"] for iv in fit["intervals"]] == [0.05]


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


@pytest.mark.parametrize(
    "command,bad",
    [("regress", "edges"), ("regress", "outcomes"), ("centrality", "edges")],
)
def test_id_beyond_int64_exit_two(tmp_path, capsys, command, bad):
    edges, outcomes = write_k3(tmp_path)
    big = "99999999999999999999"
    if bad == "edges":
        edges.write_text(f"i,j\n0,1\n{big},1\n")
    else:
        outcomes.write_text(f"id,y\n0,1\n{big},1\n")
    argv = [command, "--edges", str(edges)]
    if command == "regress":
        argv += ["--outcomes", str(outcomes)]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    path = edges if bad == "edges" else outcomes
    assert captured.err.startswith(f"error: {path}:3: ") and "Traceback" not in captured.err


@pytest.mark.parametrize(
    "edge,flags,message",
    [
        ("1000000000000000,1", [], "node count 1000000000000001 exceeds"),
        ("1000000000000000,1", ["--n", "3"], "edges.csv: edge endpoint 1000000000000000 is not below --n 3"),
        ("9223372036854775807,1", [], "node count 9223372036854775808 exceeds"),
        ("9223372036854775807,1", ["--n", "3"], "edges.csv: edge endpoint 9223372036854775807 is not below --n 3"),
        ("1,2", ["--n", "1000000000000000"], "node count 1000000000000000 exceeds"),
        ("5,1", ["--n", "3"], "edges.csv: edge endpoint 5 is not below --n 3"),
    ],
)
def test_centrality_huge_node_count_exit_two(tmp_path, capsys, edge, flags, message):
    # n = max id + 1 (or --n) must not reach the sparse constructor when its
    # index arrays could not be allocated, nor an endpoint that --n leaves out
    edges = tmp_path / "edges.csv"
    edges.write_text(f"i,j\n0,1\n{edge}\n")
    code = main(["centrality", "--edges", str(edges), *flags])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.strip().splitlines()) == 1
    assert captured.err.startswith("error: ") and message in captured.err


def test_centrality_header_only_edge_list_exit_two(tmp_path, capsys):
    # no rows, so no max id: the node count is 0, and no centrality is defined
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n")
    code = main(["centrality", "--edges", str(edges)])
    captured = capsys.readouterr()
    assert code == 2 and captured.out == ""
    assert captured.err == "error: need at least two nodes\n"


def test_centrality_out_of_memory_exit_two(tmp_path, capsys, monkeypatch):
    # an id just under 2^31 passes the size check, but its n-long CSR arrays
    # need about 8 GB each; the build is stubbed rather than attempted
    from centreg import graph_model

    def no_memory(n, keys, data=None):
        raise MemoryError

    monkeypatch.setattr(graph_model, "_from_keys", no_memory)
    edges = tmp_path / "edges.csv"
    edges.write_text("i,j\n0,1\n2147483646,1\n")
    code = main(["centrality", "--edges", str(edges)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {edges}: not enough memory for node count 2147483647\n"


def test_regress_has_no_format_flag(tmp_path, capsys):
    edges, outcomes = write_k3(tmp_path)
    with pytest.raises(SystemExit) as exit_:
        main(["regress", "--edges", str(edges), "--outcomes", str(outcomes), "--format", "csv"])
    err = capsys.readouterr().err
    assert exit_.value.code == 2
    assert err.startswith("usage: centreg") and "unrecognized arguments: --format csv" in err
    assert "Traceback" not in err


def test_centrality_subcommand(tmp_path):
    edges, _ = write_k3(tmp_path)
    out = tmp_path / "cent.csv"
    code = main(["centrality", "--edges", str(edges), "--kind", "degree", "--out", str(out)])
    assert code == 0
    rows = list(csv.DictReader(out.open()))
    assert [float(r["value"]) for r in rows] == [2.0, 2.0, 2.0]


def test_centrality_json_format(tmp_path):
    edges, _ = write_k3(tmp_path)
    for kind in ("degree", "eigenvector"):
        out = tmp_path / f"{kind}.json"
        assert main(["centrality", "--edges", str(edges), "--kind", kind, "--format", "json", "--out", str(out)]) == 0
    deg, eig = (json.loads((tmp_path / f"{kind}.json").read_text()) for kind in ("degree", "eigenvector"))
    assert deg.keys() == {"recipe", "values"} and deg["recipe"]["kind"] == "degree" and deg["values"] == [2.0] * 3
    assert eig.keys() == {"recipe", "values", "lambda1"} and eig["recipe"]["kind"] == "eigenvector"
    assert eig["lambda1"] == pytest.approx(2.0)
    assert eig["values"] == pytest.approx([(2.0 / 3.0) ** 0.5] * 3)  # sqrt(lambda1) v1, v1 = iota / sqrt(3)


def _simulate_json(tmp_path, **cfg):
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps({"graphon": {"kind": "constant", "c": 1.0}, "replications": 4, **cfg}))
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir), "--format", "json"])
    return code, out_dir


def test_simulate_json_format_writes_size_and_power(tmp_path):
    code, out_dir = _simulate_json(tmp_path, n_grid=[60], sparsity={"kind": "constant", "p": 0.2},
                                   beta0_grid=[0.0, 1.0], alpha_grid=[0.05, 0.1])
    assert code == 0 and not (out_dir / "size.csv").exists() and not (out_dir / "power.csv").exists()
    size, power = (json.loads((out_dir / name).read_text()) for name in ("size.json", "power.json"))
    keys = {"n", "p", "estimator", "beta0", "alpha", "reject_rate", "se", "failures"}
    assert all(row.keys() == keys and 0.0 <= row["reject_rate"] <= 1.0 for row in size + power)
    assert len(size) == 2 * 2 * 2 and len(power) == 21 * 2  # (beta0, alpha) by (ours, robust); 21 beta0 at one alpha
    assert {row["estimator"] for row in size} == {"degree:ours", "degree:robust"}


def test_simulate_json_cell_without_a_fit_writes_null_rates_and_exits_one(tmp_path, capsys):
    # at p = 1e-6 no replication draws an edge, so every eigenvector fit fails
    code, out_dir = _simulate_json(tmp_path, n_grid=[6], sparsity={"kind": "constant", "p": 1e-6},
                                   estimators=[{"kind": "eigenvector"}])
    assert code == 1 and "cells [0] produced no successful replication" in capsys.readouterr().err
    for name in ("size.json", "power.json"):
        rows = json.loads((out_dir / name).read_text())
        assert rows and all(row["reject_rate"] is None and row["se"] is None and row["failures"] == 4 for row in rows)


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


def test_simulate_rank2_config_draws_what_run_cell_draws(tmp_path):
    # a rank-r graphon is a JSON descriptor like the others
    from centreg import Graphon, SparsityRule
    from centreg.monte_carlo import ExperimentConfig, run_cell

    cfg = {
        "graphon": {"kind": "rank-r", "eigenvalues": [0.5, 0.15]},
        "n_grid": [200],
        "sparsity": {"kind": "inverse-sqrt-n"},
        "replications": 3,
        "master_seed": 11,
        "estimators": [
            {"kind": "degree"},
            {"kind": "diffusion", "delta": 0.5, "T": 2},
            {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
            {"kind": "regularized-eigenvector", "scaling": "sqrt-lambda1"},
        ],
    }
    cfg_path, out_dir = tmp_path / "cfg.json", tmp_path / "out"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)]) == 0
    assert set(json.loads((out_dir / "manifest.json").read_text())["cells"][0]["failures"].values()) == {0}
    cell = run_cell(ExperimentConfig(**{**cfg, "graphon": Graphon.rank_r([0.5, 0.15]),
                                        "sparsity": SparsityRule("inverse-sqrt-n")}), 200)
    assert cell.failures == []
    for label in cell.estimators:
        safe = label.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
        rows = list(csv.DictReader((out_dir / f"dist_{safe}_n200.csv").open()))
        for key in ("beta_hat", "beta_check", "B_hat", "V_hat", "V0_hat"):
            assert np.array_equal([float(r[key]) for r in rows], cell.draws[label][key]), (label, key)


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


_CONFIG = {
    "graphon": {"kind": "constant", "c": 1.0},
    "n_grid": [20],
    "sparsity": {"kind": "constant", "p": 0.3},
    "replications": 2,
    "estimators": [{"kind": "degree"}],
}


@pytest.mark.parametrize(
    "change,pointer",
    [
        ({"sparsity": {"kind": "bogus"}}, "/sparsity"),
        ({"sparsity": {"p": 0.5}}, "/sparsity"),
        ({"sparsity": {"kind": "constant"}}, "/sparsity"),
        ({"sparsity": {"kind": "constant", "p": 2}}, "/sparsity"),
        ({"beta0_grid": ["x"]}, "/beta0_grid/0"),
        ({"beta0_grid": 5}, "/beta0_grid"),
        ({"alpha_grid": [0.05, 1e-300]}, "/alpha_grid/1"),
        ({"error_model": {"kind": "gaussian", "sigma": "x"}}, "/error_model/sigma"),
        ({"master_seed": "abc"}, "/master_seed"),
        ({"threads": "x"}, "/threads"),
        ({"beta_true": None}, "/beta_true"),
        ({"graphon": {"kind": "constant"}}, "/graphon"),
        ({"graphon": {"kind": "constant", "c": "x"}}, "/graphon"),
        ({"graphon": {"kind": "sbm", "pi": [1.0]}}, "/graphon"),
        ({"graphon": {"kind": "sbm", "pi": [1.0], "P": [["x"]]}}, "/graphon"),
        ({"replications": True}, "/replications"),
        ({"fit_no_error": "false"}, "/fit_no_error"),
        ({"sparsity": {"kind": "delocalization-threshold"}, "n_grid": [2]}, "/sparsity"),
        ({"sparsity": "custom"}, "/sparsity"),
        ({"graphon": 5}, "/graphon"),
        (None, None),
    ],
    ids=["sparsity-kind", "sparsity-no-kind", "constant-no-p", "p-2", "beta0-item", "beta0-scalar", "alpha-1e-300", "sigma",
         "master-seed", "threads", "beta-true-null", "no-c", "c-string", "no-P", "P-string", "replications-bool",
         "fit-string", "delocalization-n2", "custom", "graphon-number", "not-an-object"],
)
def test_simulate_malformed_config_exit_two(tmp_path, capsys, change, pointer):
    # every malformed config is one error line naming the file and the pointer
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(5 if change is None else {**_CONFIG, **change}))
    out_dir = tmp_path / "out"
    code = main(["simulate", "--config", str(cfg_path), "--out", str(out_dir)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {cfg_path}: " + (f"{pointer}: " if pointer else ""))
    assert not out_dir.exists()


@pytest.mark.parametrize(
    "probe", ["edges-dir", "config-dir", "regress-out", "centrality-out", "derive-out", "simulate-out-file"]
)
def test_filesystem_errors_exit_two(tmp_path, capsys, monkeypatch, probe):
    import centreg.cli

    def no_replications(*args, **kwargs):
        raise AssertionError("a replication ran before the output directory was made")

    monkeypatch.setattr(centreg.cli, "run_experiment", no_replications)
    edges, outcomes = write_k3(tmp_path)
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(_CONFIG))
    missing = str(tmp_path / "missing" / "out")
    argv = {
        "edges-dir": ["regress", "--edges", str(tmp_path), "--outcomes", str(outcomes)],
        "config-dir": ["simulate", "--config", str(tmp_path), "--out", str(tmp_path / "out")],
        "regress-out": ["regress", "--edges", str(edges), "--outcomes", str(outcomes), "--out", missing],
        "centrality-out": ["centrality", "--edges", str(edges), "--out", missing],
        "derive-out": ["derive", "g", "--max", "2", "--out", missing],
        "simulate-out-file": ["simulate", "--config", str(cfg_path), "--out", str(edges)],
    }[probe]
    code = main(argv)
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.err.startswith("error: ")
    assert not (tmp_path / "out").exists() and not (tmp_path / "missing").exists()
    assert edges.read_text() == "i,j\n0,1\n0,2\n1,2\n"


def test_unclosed_quote_exit_two(tmp_path, capsys):
    # the quote would join the next line's text onto its cell: (0, 50)
    edges = tmp_path / "edges.csv"
    edges.write_text('i,j\n0,"5\n0\n')
    code = main(["centrality", "--edges", str(edges)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == f"error: {edges}:2: unclosed quote in row '0,\"5'\n"


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
    from centreg import Graphon, SymmetricSparseMatrix, build_true_adjacency, degree, observe, sample_latent
    from centreg.io import read_edge_list

    ss = np.random.SeedSequence(entropy=(99, 0, 0))
    seed_latent, seed_obs, _ = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    u = sample_latent(40, seed_latent)
    a_hat = observe(build_true_adjacency(Graphon.constant(1.0), u, 0.2), seed_obs)

    rows, cols = read_edge_list(graph)
    back = SymmetricSparseMatrix.from_edges(40, rows, cols)
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
        ([{"kind": "diffusion", "T": 11}], "/estimators/0/T: expected an integer in [1, 10]"),
    ],
    ids=["scaling", "delta", "T", "plug-in-M", "fixed-a", "mode", "duplicate", "T-beyond-b-table"],
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
    "argv,flag",
    [
        (["regress", "--beta0", "inf"], "--beta0"),
        (["regress", "--beta0", "1", "--beta0", "nan"], "--beta0"),
        (["regress", "--alpha", "2"], "--alpha"),
        (["regress", "--alpha", "0.05", "--alpha", "1e-300"], "--alpha"),
        (["regress", "--alpha", repr(2.0**-53)], "--alpha"),
        (["regress", "--centrality", "diffusion", "--T", "11"], "--T"),
        (["simulate", "--threads", "-1"], "--threads"),
        (["derive", "g", "--max", "-3"], "--max"),
        (["derive", "g", "--max", "-3", "--verify"], "--max"),
        (["derive", "b", "--max", "0", "--verify"], "--max"),
        (["centrality", "--n", "-5"], "--n"),
    ],
    ids=["beta0-inf", "beta0-nan", "alpha", "alpha-1e-300", "alpha-2^-53", "T-beyond-b-table", "threads", "derive-g-max",
         "derive-g-max-verify", "derive-b-max-verify", "centrality-n"],
)
def test_out_of_range_flag_exit_two_before_any_read(tmp_path, capsys, argv, flag):
    # the input paths do not exist: the flag must be rejected before they are read
    missing, out = str(tmp_path / "missing.csv"), str(tmp_path / "out")
    inputs = {"simulate": ["--config", missing, "--out", out], "centrality": ["--edges", missing, "--out", out],
              "derive": ["--out", out]}.get(argv[0], ["--edges", missing, "--outcomes", missing])
    code = main([argv[0], *inputs, *argv[1:]])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert len(captured.err.splitlines()) == 1 and "Traceback" not in captured.err
    assert captured.err.startswith(f"error: {flag}: expected ")
    assert not (tmp_path / "out").exists()


def test_centrality_fits_nothing_so_takes_any_diffusion_T(tmp_path, capsys):
    edges, _ = write_k3(tmp_path)
    assert main(["centrality", "--edges", str(edges), "--kind", "diffusion", "--T", "12"]) == 0
    assert capsys.readouterr().out.splitlines()[1] == "0,8190.0"  # 2 + 4 + ... + 2^12 walks


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


@pytest.mark.parametrize(
    "config_threads,flags,env,pools",
    [
        (3, [], None, [3]),
        (3, ["--threads", "1"], None, []),
        (None, ["--threads", "2"], None, [2]),
        (None, [], "2", [2]),
        (3, [], "2", [3]),
        (None, [], None, []),
    ],
    ids=["config", "flag-over-config", "flag", "env", "config-over-env", "serial"],
)
def test_simulate_thread_count(tmp_path, monkeypatch, config_threads, flags, env, pools):
    # the count comes from --threads, else the config, else CENTREG_THREADS, else 1
    import centreg.monte_carlo as mc

    seen = []

    class SpyPool(mc.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            seen.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(mc, "ThreadPoolExecutor", SpyPool)
    if env is None:
        monkeypatch.delenv("CENTREG_THREADS", raising=False)
    else:
        monkeypatch.setenv("CENTREG_THREADS", env)
    cfg = {
        "graphon": {"kind": "constant", "c": 1.0},
        "n_grid": [40],
        "sparsity": {"kind": "constant", "p": 0.2},
        "replications": 4,
        "master_seed": 8,
        "estimators": [{"kind": "degree"}],
    }
    if config_threads is not None:
        cfg["threads"] = config_threads
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main(["simulate", "--config", str(cfg_path), "--out", str(tmp_path / "out"), *flags]) == 0
    assert seen == pools
    serial = tmp_path / "serial"
    assert main(["simulate", "--config", str(cfg_path), "--out", str(serial), "--threads", "1"]) == 0
    tables = sorted(p.name for p in serial.glob("*.csv"))
    assert len(tables) == 3
    for name in tables:
        assert (tmp_path / "out" / name).read_bytes() == (serial / name).read_bytes()


def test_simulate_and_regress_never_import_sparse_linalg(tmp_path):
    # importing scipy.sparse.linalg alone adds about 6.6 MB to peak memory,
    # beyond the benchmark's 5% peak_rss_mb bound; no run needs it
    edges, outcomes = write_k3(tmp_path)
    cfg = {
        "graphon": {"kind": "constant", "c": 1.0},
        "n_grid": [30],
        "sparsity": {"kind": "constant", "p": 0.3},
        "replications": 2,
        "master_seed": 7,
        "estimators": [
            {"kind": "degree"},
            {"kind": "diffusion", "delta": 0.05, "T": 2},
            {"kind": "eigenvector", "scaling": "sqrt-n"},
            {"kind": "regularized-eigenvector", "scaling": "sqrt-n"},
        ],
    }
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    script = "\n".join(
        [
            "import sys",
            "from centreg.cli import main",
            f"assert main(['simulate', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0",
            f"assert main(['regress', '--edges', {str(edges)!r}, '--outcomes', {str(outcomes)!r},"
            f" '--beta0', '0', '--beta0', '1', '--out', {str(tmp_path / 'fit.json')!r}]) == 0",
            "print('scipy.sparse.linalg' in sys.modules)",
        ]
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


def test_runs_never_import_scipy_sparse_or_special(tmp_path):
    # the package inits of scipy.sparse and scipy.special (with the numpy.f2py and
    # numpy.testing they pull in) took over half of a cold start; the two product
    # kernels come from scipy's _sparsetools file and the normal quantile from statistics
    edges, outcomes = write_k3(tmp_path)
    cfg = {"graphon": {"kind": "constant", "c": 1.0}, "n_grid": [30], "sparsity": {"kind": "constant", "p": 0.3},
           "replications": 2, "estimators": [{"kind": "degree"}, {"kind": "eigenvector", "scaling": "sqrt-n"}]}
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(cfg))
    script = "\n".join(
        [
            "import sys",
            "from centreg import graph_model",
            "from centreg.cli import main",
            f"assert main(['simulate', '--config', {str(cfg_path)!r}, '--out', {str(tmp_path / 'out')!r}]) == 0",
            f"assert main(['regress', '--edges', {str(edges)!r}, '--outcomes', {str(outcomes)!r},"
            f" '--beta0', '1', '--out', {str(tmp_path / 'fit.json')!r}]) == 0",
            "print([m for m in ('scipy.sparse', 'scipy.special', 'numpy.f2py', 'numpy.testing') if m in sys.modules])",
            "print(graph_model.csr_matvec.__self__.__file__)",
            "print(graph_model.csc_matvec.__self__.__file__)",
        ]
    )
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parents[1] / "src")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    loaded, *kernel_files = proc.stdout.strip().splitlines()
    assert loaded == "[]"
    sparse_dir = Path(scipy.__path__[0]) / "sparse"
    for file in map(Path, kernel_files):
        assert file.parent == sparse_dir and file.name.startswith("_sparsetools"), file
