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
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inference
# ``regularize`` is not called here but stays a name of this module:
# perfbench/tracing.py wraps the centrality layer by these module attributes
from .centrality import (  # noqa: F401
    CentralityVector,
    DiffusionParams,
    RegularizationSpec,
    ScalingPolicy,
    degree,
    diffusion,
    eigenvector_centrality,
    leading_eigenpair,
    regularize,
    regularized_eigenvector_centrality,
)
from .errors import CentregError
from .graph_model import Graphon, SparsityRule, build_true_adjacency, observe, sample_latent
from .io import write_edge_list
from .walks import reference_b

__all__ = [
    "Estimator",
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

ESTIMATOR_KINDS = ("degree", "diffusion", "eigenvector", "regularized-eigenvector")
DELTA_RULES = ("fixed", "inverse-lambda1", "inverse-sqrt-lambda1")
SCALINGS = ("sqrt-lambda1", "sqrt-n", "fixed")
REG_MODES = ("oracle", "plug-in")


class ConfigError(ValueError):
    """Configuration problem; message carries a JSON-pointer-style path."""

    def __init__(self, pointer: str, message: str):
        super().__init__(f"{pointer}: {message}")
        self.pointer = pointer


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


# field -> (accepts, expectation) for the optional spec fields
_SPEC_CHECKS = {
    "delta": (lambda v: _is_number(v) and 0 <= v <= 1, "a number in [0, 1]"),
    "T": (lambda v: isinstance(v, int) and not isinstance(v, bool) and v >= 1, "an integer >= 1"),
    "delta_rule": (lambda v: v in DELTA_RULES, f"one of {DELTA_RULES}"),
    "scaling": (lambda v: v in SCALINGS, f"one of {SCALINGS}"),
    "a": (lambda v: _is_number(v) and v > 0, "a number > 0"),
    "reg_mode": (lambda v: v in REG_MODES, f"one of {REG_MODES}"),
    "p_n": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "M": (lambda v: _is_number(v) and 0 < v <= 1, "a number in (0, 1]"),
    "mode": (lambda v: v in inference.MODES, f"one of {inference.MODES}"),
}


@dataclass(frozen=True)
class Estimator:
    """One estimator: its centrality, inference mode and bias/variance estimator.

    The fields are those of an ``estimators`` entry in the experiment JSON
    and of the ``regress``/``centrality`` flags.  ``mode`` defaults by kind;
    for both eigenvector kinds it is ``noisy-eigenvector-corollary-5`` under
    sqrt-lambda1 scaling and ``noisy-eigenvector-case-a`` otherwise.  An
    oracle regularization without ``p_n`` uses the cell's sparsity scale.
    """

    kind: str = "degree"
    delta: float = 1.0
    T: int = 2
    delta_rule: str = "fixed"
    scaling: str = "sqrt-lambda1"
    a: Optional[float] = None
    reg_mode: str = "oracle"
    p_n: Optional[float] = None
    M: Optional[float] = None
    mode: Optional[str] = None

    def __post_init__(self):
        if self.mode is None:
            mode = {"degree": "noisy-degree", "diffusion": "noisy-diffusion"}.get(self.kind)
            if mode is None:
                mode = "noisy-eigenvector-" + ("corollary-5" if self.scaling == "sqrt-lambda1" else "case-a")
            object.__setattr__(self, "mode", mode)

    @classmethod
    def from_spec(cls, spec, where: Callable[[str], str]) -> "Estimator":
        """Validate a spec mapping; ``where(field)`` names a bad field in the error."""
        if not isinstance(spec, dict) or spec.get("kind") not in ESTIMATOR_KINDS:
            raise ConfigError(where("kind"), f"expected one of {ESTIMATOR_KINDS}")
        given = {k: v for k, v in spec.items() if k in _SPEC_CHECKS and v is not None}
        for name, value in given.items():
            accepts, expected = _SPEC_CHECKS[name]
            if not accepts(value):
                raise ConfigError(where(name), f"expected {expected}, got {value!r}")
        est = cls(kind=spec["kind"], **given)
        if est.spectral and est.scaling == "fixed" and est.a is None:
            raise ConfigError(where("a"), "fixed scaling needs a")
        if est.kind == "regularized-eigenvector" and est.reg_mode == "plug-in" and est.M is None:
            raise ConfigError(where("M"), "plug-in regularization needs M")
        return est

    @property
    def label(self) -> str:
        if self.kind == "diffusion":
            return f"diffusion(delta={self.delta},T={self.T})"
        if self.spectral:
            return f"{self.kind}({self.scaling})"
        return self.kind

    @property
    def spectral(self) -> bool:
        return self.kind in ("eigenvector", "regularized-eigenvector")

    @property
    def scaling_policy(self) -> ScalingPolicy:
        return ScalingPolicy(kind=self.scaling, a=self.a)

    @property
    def diffusion_params(self) -> DiffusionParams:
        return DiffusionParams(delta=self.delta, T=self.T, delta_rule=self.delta_rule)

    def centrality(self, m, p: Optional[float] = None, **eig_kwargs) -> CentralityVector:
        """This estimator's centrality of ``m``; ``p`` stands in for a missing oracle p_n."""
        if self.kind == "degree":
            return degree(m)
        if self.kind == "diffusion":
            return diffusion(m, self.diffusion_params)
        if self.kind == "eigenvector":
            return eigenvector_centrality(m, self.scaling_policy, **eig_kwargs)
        spec = RegularizationSpec(self.reg_mode, p_n=self.p_n if self.p_n is not None else p, M=self.M)
        return regularized_eigenvector_centrality(m, self.scaling_policy, spec, **eig_kwargs)

    def fit(self, y, a_hat, c_hat: CentralityVector) -> inference.RegressionFit:
        """OLS of y on c_hat in this estimator's mode, with B_hat and V_hat filled in."""
        fit = inference.ols(y, c_hat, mode=self.mode)
        if self.kind == "degree":
            inference.degree_bias_variance(a_hat, fit)
        elif self.kind == "diffusion":
            inference.diffusion_bias_variance(a_hat, self.diffusion_params, fit, reference_b(self.T))
        else:
            inference.eigen_bias_variance(c_hat.lambda1, c_hat, a_hat, fit)
        return fit


@dataclass
class ExperimentConfig:
    graphon: Graphon
    n_grid: List[int]
    sparsity: SparsityRule
    beta_true: float = 1.0
    beta0_grid: List[float] = field(default_factory=lambda: [0.0, 1.0])
    alpha_grid: List[float] = field(default_factory=lambda: [0.05])
    # Estimator objects; spec dicts are validated into Estimators on construction
    estimators: List[Estimator] = field(default_factory=lambda: [Estimator()])
    sigma: float = 1.0
    replications: int = 1000
    master_seed: int = 0
    fit_no_error: bool = False
    fit_noisy: bool = True
    threads: int = 1
    eig_max_iter: int = 50_000
    eig_tol: float = 1e-10

    def __post_init__(self):
        if not isinstance(self.estimators, list) or not self.estimators:
            raise ConfigError("/estimators", "must be a nonempty list")
        self.estimators = [
            e if isinstance(e, Estimator) else Estimator.from_spec(e, lambda name: f"/estimators/{k}/{name}")
            for k, e in enumerate(self.estimators)
        ]
        labels = [e.label for e in self.estimators]
        for k, label in enumerate(labels):
            if labels.index(label) < k:
                raise ConfigError(f"/estimators/{k}", f"duplicate label {label!r}, as /estimators/{labels.index(label)}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        def need(key, typ, pointer):
            if key not in d:
                raise ConfigError(pointer, "missing required field")
            val = d[key]
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
            estimators=d.get("estimators", [{"kind": "degree"}]),
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
    # label -> inference mode, the key of the "ours" statistic
    modes: Dict[str, str] = field(default_factory=dict)

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
                    "modes": c.modes,
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


def _draw(cfg: ExperimentConfig, n: int, p: float, cell_index: int, rep: int, noisy: bool = True):
    """Replication rep's true A, observed Ahat (None unless noisy) and outcome noise."""
    ss = np.random.SeedSequence(entropy=(cfg.master_seed, cell_index, rep))
    seed_latent, seed_obs, seed_eps = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    a_true = build_true_adjacency(cfg.graphon, sample_latent(n, seed_latent), p)
    a_hat = observe(a_true, seed_obs) if noisy else None
    eps = np.random.default_rng(np.random.SeedSequence(seed_eps)).standard_normal(n) * cfg.sigma
    return a_true, a_hat, eps


def _replicate(cfg: ExperimentConfig, n: int, p: float, cell_index: int, rep: int):
    a_true, a_hat, eps = _draw(cfg, n, p, cell_index, rep, cfg.fit_noisy)
    out: Dict[str, Dict[str, float]] = {}
    failures: List[dict] = []  # manifest failure records, less the replication
    eig_kwargs = {"max_iter": cfg.eig_max_iter, "tol": cfg.eig_tol}
    true_pair = []  # leading eigenpair of A, solved once for every eigenvector-type estimator

    for est in cfg.estimators:
        rec: Dict[str, float] = dict.fromkeys(_DRAW_KEYS, np.nan)
        try:
            c_hat = None if a_hat is None else est.centrality(a_hat, p, **eig_kwargs)
            # outcomes come from the centrality on A; with Ahat observed, the
            # eigenvector kinds scale v1(A) by the a_n resolved on Ahat
            if est.spectral:
                if not true_pair:
                    true_pair.append(leading_eigenpair(a_true, **eig_kwargs))
                lam_true, v_true = true_pair[0]
                a_n = est.scaling_policy.resolve(n, lam_true if c_hat is None else c_hat.lambda1)
                c_true, y = a_n * v_true, cfg.beta_true * a_n * v_true + eps
            else:
                c_true = est.centrality(a_true, p).values
                y = cfg.beta_true * c_true + eps

            if c_hat is not None:
                fit = est.fit(y, a_hat, c_hat)
                rec.update(beta_hat=fit.beta_hat, B_hat=fit.B_hat, V_hat=fit.V_hat, V0_hat=fit.V0_hat,
                           ssq=fit.ssq_c, beta_check=np.nan if fit.beta_check is None else fit.beta_check)
                if est.kind == "degree":
                    # conditional center of the degree noise term, available because the
                    # simulator knows A: E[iota' xi^2 iota | U] = sum_{i != j} A_ij (1 - A_ij)
                    rec["oracle_center"] = a_true.noise_variance_total()
                if est.spectral:
                    rec["lambda1"] = c_hat.lambda1
            if a_hat is None or cfg.fit_no_error:
                fit_t = inference.ols(y, c_true, mode="no-error")
                rec["beta_tilde"] = fit_t.beta_hat
                rec["V0_tilde"] = fit_t.V0_hat
        except CentregError as exc:
            failures.append({"estimator": est.label, "error": type(exc).__name__, "message": str(exc),
                             "residual": _json_number(getattr(exc, "residual", None))})
        out[est.label] = rec
    return rep, out, failures


def _json_number(x):
    """x, or None where JSON has no number for it (NaN, +-inf)."""
    if isinstance(x, float) and not math.isfinite(x):
        return None
    return x


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
    labels = [e.label for e in cfg.estimators]
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
        detail.extend({"replication": rep, **f} for f in fails)

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
        modes={e.label: e.mode for e in cfg.estimators},
    )


def run_experiment(cfg: ExperimentConfig, threads: Optional[int] = None) -> ExperimentResult:
    cells = [
        run_cell(cfg, n, cell_index=i, threads=threads) for i, n in enumerate(cfg.n_grid)
    ]
    return ExperimentResult(config=cfg, cells=cells)


# ---------------------------------------------------------------------------
# post-hoc statistics (deterministic functions of the stored draws)


def rejection_table(
    cell: CellResult,
    beta0_grid: Sequence[float],
    alpha_grid: Sequence[float],
) -> List[dict]:
    """Rejection frequencies per (estimator, statistic, beta0, alpha).

    "ours" is ``inference.statistic`` in the estimator's mode, the statistic
    ``test_beta`` computes; "robust" is the robust t (the no-error mode).
    """
    from scipy.special import ndtri

    rows = []
    for label in cell.estimators:
        d = cell.draws[label]
        ok = cell.ok_mask(label)
        n_ok = int(ok.sum())
        parts = {key: d[key][ok] for key in ("beta_hat", "V0_hat", "B_hat", "V_hat")}
        for beta0 in beta0_grid:
            for stat_name, mode in (("ours", cell.modes[label]), ("robust", "no-error")):
                stat, _ = inference.statistic(mode, beta0, **parts)
                for alpha in alpha_grid:
                    z = ndtri(1.0 - alpha / 2.0)
                    rej = np.abs(stat) >= z
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

_DIST_KEYS = ("beta_hat", "beta_check", "B_hat", "V_hat", "V0_hat")


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
                writer.writerow(["replication", *_DIST_KEYS])
                for r in range(cell.replications):
                    writer.writerow([r, *(d[key][r] for key in _DIST_KEYS)])
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
            _, a_hat, _ = _draw(cfg, cell.n, cell.p, cell.cell_index, 0)
            path = gdir / f"cell{cell.cell_index}_rep0.csv"
            write_edge_list(a_hat, path)
            written.append(str(path))
    return written
