"""Workload definitions and the inputs the benchmark generates for them.

Simulation workloads are written as the JSON config that ``centreg simulate``
accepts.  The ``regress`` workload gets an edge list and outcomes drawn
with the benchmark's own numpy generator, never with centreg, together
with reference slopes computed here independently of the package.

``eigen_sparse`` is defined and runnable but is not listed in
BENCHMARK.json: its per-replication cost is heavy-tailed (power iteration
on a near-critical graph: p50 about 0.3 s, capped replications about 10 s)
and about 1 in 50 replications fails with NoConvergence, so its throughput
varies by a third between seeds at any run length the time budget allows.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

MAIN_ESTIMATORS = [
    {"kind": "degree"},
    {"kind": "diffusion", "delta": 1.0, "T": 2},
    {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
]


def _sim_config(graphon, n, sparsity, estimators):
    return {
        "graphon": graphon,
        "n_grid": [n],
        "sparsity": sparsity,
        "beta_true": 1.0,
        "beta0_grid": [0.0, 1.0],
        "alpha_grid": [0.05],
        "estimators": estimators,
        "error_model": {"kind": "gaussian", "sigma": 1.0},
    }


# The timed run of every workload uses one worker thread.
# parallel: the traced run also times the workload at one worker thread per
#   available core, and the timed run replays its first batch at that count.
# batch: replications per run_experiment + write_outputs call.
WORKLOADS = {
    "main_cell": {
        "kind": "simulate",
        "why": "the paper's desk-scale cell (n=500, p=n^-1/2, three estimators): cost is spread "
        "over every layer, and its traced run also times it at nproc threads",
        "config": _sim_config({"kind": "constant", "c": 1.0}, 500, {"kind": "inverse-sqrt-n"}, MAIN_ESTIMATORS),
        "parallel": True,
        "batch": 100,
    },
    "sbm_large": {
        "kind": "simulate",
        "why": "3-block SBM at n=5000: dense n x n generation, densifying regularize and "
        "dense eigenpairs dominate time and memory; the O(n+m) generator shows here",
        "config": _sim_config(
            {"kind": "sbm", "pi": [0.5, 0.3, 0.2], "P": [[0.9, 0.2, 0.1], [0.2, 0.7, 0.3], [0.1, 0.3, 0.8]]},
            5000,
            {"kind": "inverse-sqrt-n"},
            [{"kind": "degree"}, {"kind": "regularized-eigenvector", "reg_mode": "oracle", "scaling": "sqrt-lambda1"}],
        ),
        "batch": 1,
    },
    "eigen_sparse": {
        "kind": "simulate",
        "why": "constant graphon at n=2000, p=1/n: power iteration on Ahat stalls on a "
        "small eigengap, so the eigensolver sets throughput, tail and failures",
        "config": _sim_config(
            {"kind": "constant", "c": 1.0}, 2000, {"kind": "inverse-n"}, [{"kind": "eigenvector", "scaling": "sqrt-n"}]
        ),
        "batch": 1,
        "eig_max_iter": 30000,
    },
    "regress": {
        "kind": "regress",
        "why": "centreg regress on a 50k-node, 250k-edge edge list: the only path through "
        "io parsing, cli, tests and intervals, and it never builds a dense A",
        "n": 50_000,
        "edges": 250_000,
        "kinds": ["degree", "diffusion", "eigenvector"],
        "beta0": [0.0, 1.0],
    },
}

# master seed of batch b in a run with seed s
BATCH_STRIDE = 100_000


def batch_seed(seed: int, batch: int) -> int:
    return seed * BATCH_STRIDE + batch


def prepare(name: str, workdir: Path, seed: int):
    """Write the workload's inputs under ``workdir``.

    Returns (spec, reference): the spec tells the worker what to run, the
    reference holds values the correctness gates compare against.
    """
    wl = WORKLOADS[name]
    spec = {"workload": name, "kind": wl["kind"], "seed": seed, "workdir": str(workdir)}
    if wl["kind"] == "simulate":
        config = dict(wl["config"], replications=wl["batch"], master_seed=batch_seed(seed, 0))
        path = workdir / "config.json"
        path.write_text(json.dumps(config, indent=1))
        spec.update(config=str(path), eig_max_iter=wl.get("eig_max_iter"))
        return spec, {}
    edges, outcomes, reference = regress_inputs(wl["n"], wl["edges"], seed)
    spec.update(edges=str(workdir / "edges.csv"), outcomes=str(workdir / "outcomes.csv"),
                kinds=wl["kinds"], beta0=wl["beta0"])
    Path(spec["edges"]).write_text(edges)
    Path(spec["outcomes"]).write_text(outcomes)
    return spec, reference


def regress_inputs(n: int, m: int, seed: int):
    """A uniform random graph with exactly m edges on n nodes, and outcomes
    y = degree + N(0, 1).  Returns the two CSV texts and reference slopes."""
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0x7265]))
    keys = np.empty(0, dtype=np.int64)
    while len(keys) < m:
        i = rng.integers(0, n, size=m + m // 10)
        j = rng.integers(0, n, size=m + m // 10)
        lo, hi = np.minimum(i, j), np.maximum(i, j)
        keys = np.unique(np.concatenate([keys, (lo * n + hi)[lo != hi]]))
    keys = rng.permutation(keys)[:m]
    lo, hi = keys // n, keys % n
    y = _degree(n, lo, hi) + rng.standard_normal(n)

    edges = "i,j\n" + "".join(f"{a},{b}\n" for a, b in zip(lo.tolist(), hi.tolist()))
    outcomes = "id,y\n" + "".join(f"{k},{v!r}\n" for k, v in enumerate(y.tolist()))
    return edges, outcomes, {"beta_hat": reference_slopes(n, lo, hi, y)}


def _degree(n, lo, hi):
    return (np.bincount(lo, minlength=n) + np.bincount(hi, minlength=n)).astype(np.float64)


def reference_slopes(n, lo, hi, y):
    """OLS slopes through the origin on degree and on diffusion(delta=1, T=2),
    computed from the edge arrays without centreg."""
    deg = _degree(n, lo, hi)
    walk2 = np.bincount(lo, weights=deg[hi], minlength=n) + np.bincount(hi, weights=deg[lo], minlength=n)
    out = {}
    for kind, c in (("degree", deg), ("diffusion", deg + walk2)):
        out[kind] = float(y @ c) / float(c @ c)
    return out
