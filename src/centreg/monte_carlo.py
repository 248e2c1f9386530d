"""Replicated simulation experiments over (n, sparsity, estimator) grids.

Each replication draws latent types, the true adjacency A, the noisy
observation Ahat, and regression noise from independent streams derived
from (master_seed, cell_index, replication); results are therefore
bit-identical regardless of how replications are scheduled across workers.
Within a replication all estimators share the same draws, mirroring the
simulation design the tables are built on: outcomes are generated from
centralities computed on A, while estimation uses Ahat.
"""

from __future__ import annotations

import json
import math
import os
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inference
from .centrality import (
    DiffusionParams,
    RegularizationSpec,
    ScalingPolicy,
    degree,
    diffusion,
    eigenvector_centrality,
    leading_eigenpair,
    regularize,
)
from .errors import CentregError, ConfigMismatch
from .graph_model import Graphon, SparsityRule, build_true_adjacency, observe, sample_latent
from .io import write_edge_list
from .walks import reference_b

__all__ = [
    "ExperimentConfig",
    "CellResult",
    "ExperimentResult",
    "run_cell",
    "run_experiment",
    "rejection_table",
    "power_curve",
    "attenuation_study",
    "write_outputs",
]

_ESTIMATOR_KINDS = ("degree", "diffusion", "eigenvector", "regularized-eigenvector")


class ConfigError(ValueError):
    """Configuration problem; message carries a JSON-pointer-style path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


@dataclass
class ExperimentConfig:
    graphon: Graphon
    n_grid: List[int]
    sparsity: SparsityRule
    beta_true: float = 1.0
    beta0_grid: List[float] = field(default_factory=lambda: [0.0, 1.0])
    alpha_grid: List[float] = field(default_factory=lambda: [0.05])
    estimators: List[dict] = field(default_factory=lambda: [{"kind": "degree"}])
    sigma: float = 1.0
    replications: int = 1000
    master_seed: int = 0
    fit_no_error: bool = False
    fit_noisy: bool = True
    threads: int = 1
    eig_max_iter: int = 50_000
    eig_tol: float = 1e-10

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        def need(key, typ, pointer):
            if key not in d:
                raise ConfigError(pointer, "missing required field")
            val = d[key]
            if typ is float and isinstance(val, int):
                val = float(val)
            if not isinstance(val, typ):
                raise ConfigError(pointer, f"expected {typ.__name__}, got {type(val).__name__}")
            return val

        graphon_d = need("graphon", dict, "/graphon")
        try:
            graphon = Graphon.from_json_dict(graphon_d)
        except CentregError as exc:
            raise ConfigError("/graphon", str(exc)) from exc

        n_grid = need("n_grid", list, "/n_grid")
        if not n_grid:
            raise ConfigError("/n_grid", "must list at least one node count")
        for k, n in enumerate(n_grid):
            if not isinstance(n, int) or n < 2:
                raise ConfigError(f"/n_grid/{k}", f"expected integer >= 2, got {n!r}")

        sparsity_d = d.get("sparsity", {"kind": "constant", "p": 0.5})
        try:
            sparsity = SparsityRule.from_descriptor(sparsity_d)
        except CentregError as exc:
            raise ConfigError("/sparsity", str(exc)) from exc

        estimators = d.get("estimators", [{"kind": "degree"}])
        if not isinstance(estimators, list) or not estimators:
            raise ConfigError("/estimators", "must be a nonempty list")
        for k, est in enumerate(estimators):
            if not isinstance(est, dict) or est.get("kind") not in _ESTIMATOR_KINDS:
                raise ConfigError(f"/estimators/{k}/kind", f"expected one of {_ESTIMATOR_KINDS}")

        reps = d.get("replications", 1000)
        if not isinstance(reps, int) or reps < 1:
            raise ConfigError("/replications", f"expected integer >= 1, got {reps!r}")

        error_model = d.get("error_model", {"kind": "gaussian", "sigma": 1.0})
        if not isinstance(error_model, dict) or error_model.get("kind") != "gaussian":
            raise ConfigError("/error_model/kind", "only the gaussian error model is built in")
        sigma = float(error_model.get("sigma", 1.0))
        if sigma <= 0:
            raise ConfigError("/error_model/sigma", f"expected sigma > 0, got {sigma}")

        cfg = cls(
            graphon=graphon,
            n_grid=list(n_grid),
            sparsity=sparsity,
            beta_true=float(d.get("beta_true", 1.0)),
            beta0_grid=[float(b) for b in d.get("beta0_grid", [0.0, 1.0])],
            alpha_grid=[float(a) for a in d.get("alpha_grid", [0.05])],
            estimators=estimators,
            sigma=sigma,
            replications=reps,
            master_seed=int(d.get("master_seed", 0)),
            fit_no_error=bool(d.get("fit_no_error", False)),
            threads=int(d.get("threads", 0) or 0),
        )
        for k, a in enumerate(cfg.alpha_grid):
            if not (0 < a < 1):
                raise ConfigError(f"/alpha_grid/{k}", f"alpha must lie in (0,1), got {a}")
        for n in cfg.n_grid:
            cfg.sparsity.resolve(n)  # fails early if the rule leaves (0, 1]
        return cfg

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        with open(path) as fh:
            return cls.from_json_dict(json.load(fh))


def _estimator_label(est: dict) -> str:
    kind = est["kind"]
    if kind == "diffusion":
        return f"diffusion(delta={est.get('delta', 1.0)},T={est.get('T', 2)})"
    if kind == "eigenvector":
        return f"eigenvector({est.get('scaling', 'sqrt-lambda1')})"
    if kind == "regularized-eigenvector":
        return f"regularized-eigenvector({est.get('scaling', 'sqrt-lambda1')})"
    return kind


@dataclass
class CellResult:
    """Per-replication draws for one (n, p) cell, shared across estimators."""

    n: int
    p: float
    cell_index: int
    replications: int
    estimators: List[str]
    draws: Dict[str, Dict[str, np.ndarray]]
    failures: List[Tuple[int, str, str]]
    runtime: float = 0.0
    # one record per failure, in the order of ``failures``: the exception
    # message and, for NoConvergence, the last residual
    failure_detail: List[dict] = field(default_factory=list)

    def ok_mask(self, label: str) -> np.ndarray:
        return ~np.isnan(self.draws[label]["beta_hat"])


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    cells: List[CellResult]

    def manifest(self) -> dict:
        return {
            "master_seed": self.config.master_seed,
            "replications": self.config.replications,
            "cells": [
                {
                    "cell_index": c.cell_index,
                    "n": c.n,
                    "p": c.p,
                    "estimators": c.estimators,
                    "failures": {
                        label: sum(1 for _, l, _ in c.failures if l == label)
                        for label in c.estimators
                    },
                    "failure_detail": c.failure_detail,
                    "runtime_seconds": round(c.runtime, 3),
                }
                for c in self.cells
            ],
        }


# ---------------------------------------------------------------------------
# single replication


_DRAW_KEYS = (
    "beta_hat",
    "beta_check",
    "B_hat",
    "V_hat",
    "V0_hat",
    "ssq",
    "beta_tilde",
    "V0_tilde",
    "oracle_center",
    "lambda1",
)


def _replicate(cfg: ExperimentConfig, n: int, p: float, cell_index: int, rep: int):
    ss = np.random.SeedSequence(entropy=(cfg.master_seed, cell_index, rep))
    seed_latent, seed_obs, seed_eps = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]

    u = sample_latent(n, seed_latent)
    a_true = build_true_adjacency(cfg.graphon, u, p)
    a_hat = observe(a_true, seed_obs) if cfg.fit_noisy else None
    eps = np.random.default_rng(np.random.SeedSequence(seed_eps)).standard_normal(n) * cfg.sigma

    out: Dict[str, Dict[str, float]] = {}
    failures: List[Tuple[str, str, str, Optional[float]]] = []
    eig_kwargs = {"max_iter": cfg.eig_max_iter, "tol": cfg.eig_tol}

    for est in cfg.estimators:
        label = _estimator_label(est)
        rec: Dict[str, float] = {k: np.nan for k in _DRAW_KEYS}
        try:
            kind = est["kind"]
            if a_hat is None:
                # no-error benchmark only: fit on the true adjacency
                c_true = _true_centrality(cfg, est, a_true, n, eig_kwargs)
                y = cfg.beta_true * c_true.values + eps
                fit_t = inference.ols(y, c_true, mode="no-error")
                rec["beta_tilde"] = fit_t.beta_hat
                rec["V0_tilde"] = fit_t.V0_hat
                out[label] = rec
                continue
            if kind == "degree":
                c_true = degree(a_true)
                c_hat = degree(a_hat)
                y = cfg.beta_true * c_true.values + eps
                fit = inference.ols(y, c_hat, mode="noisy-degree")
                inference.degree_bias_variance(a_hat, fit)
                # conditional center of the degree noise term, available because the
                # simulator knows A: E[iota' xi^2 iota | U] = sum_{i != j} A_ij (1 - A_ij)
                rec["oracle_center"] = a_true.noise_variance_total()
            elif kind == "diffusion":
                params = DiffusionParams(
                    delta=est.get("delta", 1.0),
                    T=est.get("T", 2),
                    delta_rule=est.get("delta_rule", "fixed"),
                )
                c_true = diffusion(a_true, params)
                c_hat = diffusion(a_hat, params)
                y = cfg.beta_true * c_true.values + eps
                fit = inference.ols(y, c_hat, mode="noisy-diffusion")
                inference.diffusion_bias_variance(a_hat, params, fit, reference_b(params.T))
            elif kind == "eigenvector":
                scaling = _scaling_from(est)
                lam_hat, v_hat = leading_eigenpair(a_hat, **eig_kwargs)
                a_n = scaling.resolve(n, lam_hat)
                _, v_true = leading_eigenpair(a_true, **eig_kwargs)
                y = cfg.beta_true * a_n * v_true + eps
                mode = est.get("mode")
                if mode is None:
                    mode = (
                        "noisy-eigenvector-corollary-5"
                        if scaling.kind == "sqrt-lambda1"
                        else "noisy-eigenvector-case-a"
                    )
                fit = inference.ols(y, a_n * v_hat, mode=mode)
                fit.lambda1 = lam_hat
                c_hat_vec = _as_centrality(a_n * v_hat, lam_hat)
                inference.eigen_bias_variance(lam_hat, c_hat_vec, a_hat, fit)
                rec["lambda1"] = lam_hat
            elif kind == "regularized-eigenvector":
                scaling = _scaling_from(est)
                spec = _reg_spec_from(est, p)
                reg = regularize(a_hat, spec)
                lam_hat, v_hat = leading_eigenpair(reg, **eig_kwargs)
                a_n = scaling.resolve(n, lam_hat)
                _, v_true = leading_eigenpair(a_true, **eig_kwargs)
                y = cfg.beta_true * a_n * v_true + eps
                fit = inference.ols(y, a_n * v_hat, mode="noisy-eigenvector-corollary-5")
                fit.lambda1 = lam_hat
                c_hat_vec = _as_centrality(a_n * v_hat, lam_hat)
                inference.eigen_bias_variance(lam_hat, c_hat_vec, a_hat, fit)
                rec["lambda1"] = lam_hat
            else:  # pragma: no cover - validated at config time
                raise ConfigMismatch(f"unknown estimator kind {kind!r}")

            rec["beta_hat"] = fit.beta_hat
            rec["B_hat"] = np.nan if fit.B_hat is None else fit.B_hat
            rec["V_hat"] = np.nan if fit.V_hat is None else fit.V_hat
            rec["V0_hat"] = fit.V0_hat
            rec["ssq"] = fit.ssq_c
            bc = fit.beta_check
            rec["beta_check"] = np.nan if bc is None else bc

            if cfg.fit_no_error:
                fit_t = inference.ols(cfg.beta_true * c_true.values + eps, c_true, mode="no-error")
                rec["beta_tilde"] = fit_t.beta_hat
                rec["V0_tilde"] = fit_t.V0_hat
        except CentregError as exc:
            residual = _json_number(getattr(exc, "residual", None))
            failures.append((label, type(exc).__name__, str(exc), residual))
        out[label] = rec
    return rep, out, failures


def _true_centrality(cfg, est, a_true, n, eig_kwargs):
    kind = est["kind"]
    if kind == "degree":
        return degree(a_true)
    if kind == "diffusion":
        params = DiffusionParams(
            delta=est.get("delta", 1.0), T=est.get("T", 2), delta_rule=est.get("delta_rule", "fixed")
        )
        return diffusion(a_true, params)
    scaling = _scaling_from(est)
    return eigenvector_centrality(a_true, scaling, **eig_kwargs)


def _scaling_from(est: dict) -> ScalingPolicy:
    kind = est.get("scaling", "sqrt-lambda1")
    if kind == "fixed":
        return ScalingPolicy(kind="fixed", a=float(est["a"]))
    return ScalingPolicy(kind=kind)


def _reg_spec_from(est: dict, p: float) -> RegularizationSpec:
    mode = est.get("reg_mode", "oracle")
    if mode == "oracle":
        return RegularizationSpec(mode="oracle", p_n=float(est.get("p_n", p)))
    return RegularizationSpec(mode="plug-in", M=float(est["M"]))


def _json_number(x):
    """x, or None where JSON has no number for it (NaN, +-inf)."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


def _as_centrality(values, lam):
    from .centrality import CentralityVector

    return CentralityVector(values=values, recipe={"kind": "eigenvector"}, lambda1=lam)


# ---------------------------------------------------------------------------
# cells and experiments


def run_cell(
    cfg: ExperimentConfig,
    n: int,
    cell_index: int = 0,
    rep_range: Optional[range] = None,
    threads: Optional[int] = None,
) -> CellResult:
    """Run all replications of one (n, p) cell; failures never abort the cell."""
    p = cfg.sparsity.resolve(n)
    reps = rep_range if rep_range is not None else range(cfg.replications)
    labels = [_estimator_label(e) for e in cfg.estimators]
    draws = {label: {k: np.full(len(reps), np.nan) for k in _DRAW_KEYS} for label in labels}
    detail: List[dict] = []

    nthreads = threads if threads is not None else cfg.threads
    if nthreads <= 0:
        nthreads = int(os.environ.get("CENTREG_THREADS", "1"))
    start = time.perf_counter()

    def handle(result):
        rep, out, fails = result
        pos = rep - reps.start if isinstance(reps, range) else list(reps).index(rep)
        for label, rec in out.items():
            for key, val in rec.items():
                draws[label][key][pos] = val
        for label, err, message, residual in fails:
            detail.append(
                {
                    "replication": rep,
                    "estimator": label,
                    "error": err,
                    "message": message,
                    "residual": residual,
                }
            )

    if nthreads > 1:
        with ThreadPoolExecutor(max_workers=nthreads) as pool:
            for result in pool.map(
                lambda r: _replicate(cfg, n, p, cell_index, r), list(reps)
            ):
                handle(result)
    else:
        for r in reps:
            handle(_replicate(cfg, n, p, cell_index, r))

    detail.sort(key=lambda d: (d["replication"], d["estimator"]))
    return CellResult(
        n=n,
        p=p,
        cell_index=cell_index,
        replications=len(reps),
        estimators=labels,
        draws=draws,
        failures=[(d["replication"], d["estimator"], d["error"]) for d in detail],
        runtime=time.perf_counter() - start,
        failure_detail=detail,
    )


def run_experiment(cfg: ExperimentConfig, threads: Optional[int] = None) -> ExperimentResult:
    cells = [
        run_cell(cfg, n, cell_index=i, threads=threads) for i, n in enumerate(cfg.n_grid)
    ]
    return ExperimentResult(config=cfg, cells=cells)


# ---------------------------------------------------------------------------
# post-hoc statistics (deterministic functions of the stored draws)


def _statistics_for(label: str, d: Dict[str, np.ndarray], beta0: float):
    """(ours, robust) statistic arrays for testing H0: beta = beta0."""
    beta = d["beta_hat"]
    robust = (beta - beta0) / np.sqrt(d["V0_hat"])
    if beta0 == 0.0:
        return robust, robust
    if label.startswith("eigenvector") or label.startswith("regularized"):
        ours = robust  # corollary-5 regime: robust t is the proposed statistic
    else:
        ours = (beta - beta0 * (1.0 - d["B_hat"])) / (beta0 * np.sqrt(d["V_hat"]))
    return ours, robust


def rejection_table(
    cell: CellResult,
    beta0_grid: Sequence[float],
    alpha_grid: Sequence[float],
) -> List[dict]:
    """Rejection frequencies per (estimator, statistic, beta0, alpha)."""
    from scipy.special import ndtri

    rows = []
    for label in cell.estimators:
        d = cell.draws[label]
        ok = cell.ok_mask(label)
        n_ok = int(ok.sum())
        for beta0 in beta0_grid:
            ours, robust = _statistics_for(label, d, beta0)
            for stat_name, stat in (("ours", ours), ("robust", robust)):
                for alpha in alpha_grid:
                    z = ndtri(1.0 - alpha / 2.0)
                    rej = np.abs(stat[ok]) >= z
                    rate = float(rej.mean()) if n_ok else float("nan")
                    se = float(np.sqrt(rate * (1 - rate) / n_ok)) if n_ok else float("nan")
                    rows.append(
                        {
                            "n": cell.n,
                            "p": cell.p,
                            "estimator": f"{label}:{stat_name}",
                            "beta0": beta0,
                            "alpha": alpha,
                            "reject_rate": rate,
                            "se": se,
                            "failures": cell.replications - n_ok,
                        }
                    )
    return rows


def power_curve(
    cell: CellResult,
    estimator_label: str,
    beta0_grid: Sequence[float],
    alpha: float = 0.05,
    statistic: str = "ours",
) -> List[dict]:
    """Rejection rate of H0: beta = beta0 across a beta0 grid."""
    rows = rejection_table(cell, beta0_grid, [alpha])
    want = f"{estimator_label}:{statistic}"
    return [r for r in rows if r["estimator"] == want]


def attenuation_study(cfg: ExperimentConfig, threads: Optional[int] = None) -> List[dict]:
    """Mean degree-regression slope per n, next to the analytic plim.

    Intended for the flat graphon at p = 1/n, where the probability limit of
    the noisy slope is np / (np + 1) times the true coefficient.
    """
    result = run_experiment(cfg, threads=threads)
    rows = []
    for cell in result.cells:
        label = next((l for l in cell.estimators if l == "degree"), cell.estimators[0])
        ok = cell.ok_mask(label)
        mean_hat = float(np.nanmean(cell.draws[label]["beta_hat"][ok]))
        np_ = cell.n * cell.p
        rows.append(
            {
                "n": cell.n,
                "p": cell.p,
                "mean_beta_hat": mean_hat,
                "plim_reference": cfg.beta_true * np_ / (np_ + 1.0),
            }
        )
    return rows


# ---------------------------------------------------------------------------
# file outputs


def write_outputs(
    result: ExperimentResult,
    out_dir,
    fmt: str = "csv",
    dump_graph: bool = False,
) -> List[str]:
    """Write size.csv, power.csv, per-estimator draw files, and manifest.json."""
    import csv as _csv

    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg = result.config
    written = []

    size_rows, power_rows = [], []
    for cell in result.cells:
        size_rows.extend(rejection_table(cell, cfg.beta0_grid, cfg.alpha_grid))
        grid = np.linspace(min(cfg.beta0_grid), max(cfg.beta0_grid), 21)
        power_rows.extend(rejection_table(cell, [float(b) for b in grid], cfg.alpha_grid[:1]))

    header = ["n", "p", "estimator", "beta0", "alpha", "reject_rate", "se", "failures"]

    def emit(name, rows):
        path = out_dir / name
        if fmt == "json":
            path = path.with_suffix(".json")
            rows = [{k: _json_number(v) for k, v in row.items()} for row in rows]
            path.write_text(json.dumps(rows, indent=1, allow_nan=False))
        else:
            with open(path, "w", newline="") as fh:
                writer = _csv.DictWriter(fh, fieldnames=header)
                writer.writeheader()
                writer.writerows(rows)
        written.append(str(path))

    emit("size.csv", size_rows)
    emit("power.csv", power_rows)

    for cell in result.cells:
        for label in cell.estimators:
            d = cell.draws[label]
            safe = label.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
            path = out_dir / f"dist_{safe}_n{cell.n}.csv"
            with open(path, "w", newline="") as fh:
                writer = _csv.writer(fh)
                writer.writerow(["replication", "beta_hat", "beta_check", "B_hat", "V_hat", "V0_hat"])
                for r in range(cell.replications):
                    writer.writerow(
                        [
                            r,
                            d["beta_hat"][r],
                            d["beta_check"][r],
                            d["B_hat"][r],
                            d["V_hat"][r],
                            d["V0_hat"][r],
                        ]
                    )
            written.append(str(path))

    manifest = result.manifest()
    manifest["resolved_p"] = {str(c.n): c.p for c in result.cells}
    (out_dir / "manifest.json").write_text(json.dumps(manifest, indent=1, allow_nan=False))
    written.append(str(out_dir / "manifest.json"))

    if dump_graph:
        gdir = out_dir / "graphs"
        gdir.mkdir(exist_ok=True)
        for cell in result.cells:
            p = cell.p
            ss = np.random.SeedSequence(entropy=(cfg.master_seed, cell.cell_index, 0))
            seed_latent, seed_obs, _ = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
            u = sample_latent(cell.n, seed_latent)
            a_true = build_true_adjacency(cfg.graphon, u, p)
            a_hat = observe(a_true, seed_obs)
            path = gdir / f"cell{cell.cell_index}_rep0.csv"
            write_edge_list(a_hat, path)
            written.append(str(path))
    return written
