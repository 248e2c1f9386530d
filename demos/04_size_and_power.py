"""Small-scale size and power study.

Reproduces the qualitative story of the simulation tables at reduced scale
(n = 200, 300 replications): the robust t over-rejects a true nonzero null
under network noise while the de-biased test holds size, and both reject
the zero null essentially always.  Writes the plot-ready CSVs.
"""

import tempfile
from pathlib import Path

from centreg import ExperimentConfig, Graphon, SparsityRule, run_experiment
from centreg.monte_carlo import rejection_table, write_outputs

cfg = ExperimentConfig(
    graphon=Graphon.constant(1.0),
    n_grid=[200],
    sparsity=SparsityRule("inverse-sqrt-n"),
    beta_true=1.0,
    beta0_grid=[0.0, 1.0],
    alpha_grid=[0.05],
    estimators=[
        {"kind": "degree"},
        {"kind": "diffusion", "delta": 0.5, "T": 2},
        {"kind": "eigenvector", "scaling": "sqrt-lambda1"},
    ],
    replications=300,
    master_seed=2024,
)

result = run_experiment(cfg, threads=2)
cell = result.cells[0]

print(f"n = {cell.n}, p = {cell.p:.4f}, R = {cell.replications}\n")
print(f"{'estimator':<38}{'beta0':>6}{'rate':>8}{'se':>8}")
for row in rejection_table(cell, cfg.beta0_grid, cfg.alpha_grid):
    print(f"{row['estimator']:<38}{row['beta0']:>6.1f}{row['reject_rate']:>8.3f}{row['se']:>8.3f}")

out = Path(tempfile.mkdtemp(prefix="centreg_demo_"))
written = write_outputs(result, out)
print(f"\nwrote {len(written)} files under {out}")
print("size.csv / power.csv columns: n,p,estimator,beta0,alpha,reject_rate,se,failures")
