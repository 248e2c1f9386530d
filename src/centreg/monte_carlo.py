"""Replicated simulation experiments over (n, sparsity, estimator) grids.

Each replication draws latent types, the true adjacency A, the noisy
observation Ahat, and regression noise from independent streams derived
from (master_seed, cell_index, replication); results are therefore
bit-identical however replications are scheduled across workers, as long
as the BLAS thread count is fixed: OpenBLAS splits its sums across its
threads, so the last bits of an eigenvector move with that count.
Within a replication all estimators share the same draws, mirroring the
simulation design the tables are built on: outcomes are generated from
centralities computed on A, while estimation uses Ahat.
"""

from __future__ import annotations

import contextlib
import functools
import json
import math
import os
import time
from dataclasses import InitVar, dataclass, field, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

from . import inference
from ._tables import B_ROWS
# ``regularize`` and ``reference_b`` are not called here but stay names of this module:
# perfbench/tracing.py wraps the centrality and walks layers by these module attributes
from .centrality import (  # noqa: F401
    EIG_MAX_ITER,
    EIG_TOL,
    SPEC_CHECKS,
    CentralityVector,
    check_spec,
    degree,
    diffusion,
    eigenvector_centrality,
    leading_eigenpair,
    regularize,
    regularized_eigenvector_centrality,
)
from .errors import CentregError, ConfigError, _checked, _is_number
from .graph_model import SCIPY_VERSION, Graphon, SparsityRule, build_true_adjacency, observe, sample_latent
from .io import write_edge_list, write_table
from .walks import reference_b  # noqa: F401

__all__ = [
    "Estimator",
    "ExperimentConfig",
    "CellResult",
    "ExperimentResult",
    "run_cell",
    "run_experiment",
    "rejection_table",
    "write_outputs",
]

ESTIMATOR_KINDS = ("degree", "diffusion", "eigenvector", "regularized-eigenvector")


# the estimator spec's inference mode next to its centrality fields (SPEC_CHECKS)
_SPEC_CHECKS = {**SPEC_CHECKS, "mode": (lambda v: v in inference.MODES, f"one of {inference.MODES}")}

# ExperimentConfig field -> (accepts, expectation), checked on construction;
# sigma is the error model's, so its JSON pointer is /error_model/sigma
_CONFIG_CHECKS = {
    "n_grid": ([lambda v: type(v) is int and 2 <= v < 2**31], "an integer in [2, 2^31)"),  # int32 ids
    "beta_true": (_is_number, "a finite number"),
    "beta0_grid": ([_is_number], "a finite number"),
    "alpha_grid": ([lambda v: _is_number(v) and inference.ALPHA_MIN < v < 1], "a number in (2^-53, 1)"),
    "sigma": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
    "replications": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "master_seed": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "fit_no_error": (lambda v: isinstance(v, bool), "true or false"),
    "threads": (lambda v: type(v) is int and v >= 0, "an integer >= 0"),
    "eig_max_iter": (lambda v: type(v) is int and v >= 1, "an integer >= 1"),
    "eig_tol": (lambda v: _is_number(v) and v > 0, "a finite number > 0"),
}
_ERROR_MODEL = {"error_model": (lambda v: isinstance(v, dict) and v.get("kind") == "gaussian",
                                "an object with kind 'gaussian', the one built-in error model")}


@dataclass(frozen=True)
class Estimator:
    """One estimator: its centrality, inference mode and bias/variance estimator.

    The fields are those of an ``estimators`` entry in the experiment JSON
    and of the ``regress``/``centrality`` flags.  ``mode`` defaults by kind;
    for both eigenvector kinds it is ``noisy-eigenvector-corollary-5`` under
    sqrt-lambda1 scaling and ``noisy-eigenvector-case-a`` otherwise.  An
    oracle regularization without ``p_n`` uses the cell's sparsity scale.
    Construction checks every field and raises ConfigError at
    ``where(field)`` (default: the field's name); a ``fitted`` diffusion,
    the default, needs T in the reference b table.
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
    where: InitVar[Callable[[str], str]] = str
    fitted: InitVar[bool] = True

    def __post_init__(self, where, fitted):
        if self.kind not in ESTIMATOR_KINDS:  # a tuple compares, so an unhashable kind is no TypeError
            raise ConfigError(where("kind"), f"expected one of {ESTIMATOR_KINDS}")
        _checked({f.name: getattr(self, f.name) for f in fields(self)
                  if not (getattr(self, f.name) is None and f.default is None)}, _SPEC_CHECKS, where)
        if fitted and self.kind == "diffusion" and self.T not in B_ROWS:
            raise ConfigError(where("T"), f"expected an integer in [1, {max(B_ROWS)}] (the reference b table)"
                                          f" for a diffusion fit, got {self.T}")
        # an oracle's p_n is checked at call time, where the cell's p stands in for it
        if self.spectral:
            check_spec(where, scaling=self.scaling, a=self.a)
        if self.kind == "regularized-eigenvector":
            check_spec(where, reg_mode=self.reg_mode, M=self.M)
        if self.mode is None:
            mode = {"degree": "noisy-degree", "diffusion": "noisy-diffusion"}.get(self.kind)
            if mode is None:
                mode = "noisy-eigenvector-" + ("corollary-5" if self.scaling == "sqrt-lambda1" else "case-a")
            object.__setattr__(self, "mode", mode)

    @classmethod
    def from_spec(cls, spec, where: Callable[[str], str], fitted: bool = True) -> "Estimator":
        """The estimator of a spec dict, checked as at construction; a field given as null or unknown is rejected."""
        return cls(kind=spec.get("kind"), **_checked(spec, _SPEC_CHECKS, where, ("kind",)), where=where, fitted=fitted)

    @property
    def label(self) -> str:
        if self.kind == "diffusion":
            rule = f"delta={self.delta}" if self.delta_rule == "fixed" else f"delta_rule={self.delta_rule}"
            return f"diffusion({rule},T={self.T})"
        if self.spectral:
            return f"{self.kind}({self.scaling})"
        return self.kind

    @property
    def spectral(self) -> bool:
        return self.kind in ("eigenvector", "regularized-eigenvector")

    def centrality(self, m, p: Optional[float] = None, **eig_kwargs) -> CentralityVector:
        """This estimator's centrality of ``m``; ``p`` stands in for a missing oracle p_n."""
        if self.kind == "degree":
            return degree(m)
        if self.kind == "diffusion":
            return diffusion(m, self.delta, self.T, self.delta_rule, **eig_kwargs)
        if self.kind == "eigenvector":
            return eigenvector_centrality(m, self.scaling, self.a, **eig_kwargs)
        p_n = self.p_n if self.p_n is not None else p
        return regularized_eigenvector_centrality(m, self.scaling, self.a, self.reg_mode, p_n, self.M, **eig_kwargs)

    def fit(self, y, a_hat, c_hat: CentralityVector) -> inference.RegressionFit:
        """OLS of y on c_hat in this estimator's mode, with B_hat and V_hat read off c_hat and Ahat."""
        fit = inference.ols(y, c_hat, mode=self.mode)
        # inference.<kind>_bias_variance, looked up at call time: perfbench/tracing.py wraps it there
        getattr(inference, f"{'eigen' if self.spectral else self.kind}_bias_variance")(a_hat, fit)
        return fit


@dataclass
class ExperimentConfig:
    graphon: Graphon
    n_grid: List[int]
    sparsity: SparsityRule
    beta_true: float = 1.0
    beta0_grid: List[float] = field(default_factory=lambda: [0.0, 1.0])
    alpha_grid: List[float] = field(default_factory=lambda: [0.05])
    # Estimator objects, checked on construction; spec dicts are turned into Estimators here
    estimators: List[Estimator] = field(default_factory=lambda: [Estimator()])
    sigma: float = 1.0
    replications: int = 1000
    master_seed: int = 0
    fit_no_error: bool = False
    threads: int = 0  # 0: CENTREG_THREADS, else 1
    eig_max_iter: int = EIG_MAX_ITER
    eig_tol: float = EIG_TOL

    def __post_init__(self):
        """Check every field, as from_json_dict reports it: a bad one raises ConfigError at its JSON pointer."""
        _checked({name: getattr(self, name) for name in _CONFIG_CHECKS}, _CONFIG_CHECKS,
                 lambda name: "/error_model/sigma" if name == "sigma" else f"/{name}")
        self.beta0_grid, self.alpha_grid = [float(x) for x in self.beta0_grid], [float(x) for x in self.alpha_grid]
        self.sigma = float(self.sigma)
        try:
            for n in self.n_grid:
                self.sparsity.resolve(n)  # fails early if the rule leaves (0, 1]
        except CentregError as exc:
            raise ConfigError("/sparsity", str(exc)) from exc
        if not isinstance(self.estimators, list) or not self.estimators:
            raise ConfigError("/estimators", "must be a nonempty list")
        for k, e in enumerate(self.estimators):
            if not isinstance(e, (Estimator, dict)):
                raise ConfigError(f"/estimators/{k}", f"expected an object, got {e!r}")
        self.estimators = [
            e if isinstance(e, Estimator) else Estimator.from_spec(e, lambda name: f"/estimators/{k}/{name}")
            for k, e in enumerate(self.estimators)
        ]
        # a cell's outputs are named by its n, and an estimator's by its label
        for pointer, what, items in (("/n_grid", "n", self.n_grid),
                                     ("/estimators", "label", [e.label for e in self.estimators])):
            for k, item in enumerate(items):
                if items.index(item) < k:
                    raise ConfigError(f"{pointer}/{k}", f"duplicate {what} {item!r}, as {pointer}/{items.index(item)}")

    @classmethod
    def from_json_dict(cls, d: dict) -> "ExperimentConfig":
        """A parsed JSON config: unknown fields fail and nested objects are read here; construction checks values."""
        if not isinstance(d, dict):
            raise ConfigError("", f"expected a JSON object, got {type(d).__name__}")
        for name in ("graphon", "n_grid"):
            if name not in d:
                raise ConfigError(f"/{name}", "missing required field")
        given = {k: v for k, v in d.items() if k != "error_model"}
        error_model = _checked(d, _ERROR_MODEL, lambda name: f"/{name}",
                               [f.name for f in fields(cls) if f.name != "sigma"]).get("error_model", {})
        _checked(error_model, {}, lambda name: f"/error_model/{name}", ("kind", "sigma"))
        try:
            given["graphon"] = Graphon.from_json_dict(d["graphon"])
        except CentregError as exc:
            raise ConfigError("/graphon", str(exc)) from exc
        try:
            given["sparsity"] = SparsityRule.from_descriptor(d.get("sparsity", {"kind": "constant", "p": 0.5}))
        except CentregError as exc:
            raise ConfigError("/sparsity", str(exc)) from exc
        return cls(**given, sigma=error_model.get("sigma", 1.0))

    @classmethod
    def from_json_file(cls, path) -> "ExperimentConfig":
        """Read and validate a config file; a ConfigError's message starts with the path."""
        try:
            with open(path) as fh:
                return cls.from_json_dict(json.load(fh))
        except json.JSONDecodeError as exc:
            raise ConfigError(str(path), f"invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}") from None
        except ConfigError as exc:
            exc.args = (f"{path}: {exc}",)
            raise


@dataclass
class CellResult:
    """Per-replication draws for one (n, p) cell, shared across estimators."""

    n: int
    p: float
    cell_index: int
    replications: int
    estimators: List[str]
    draws: Dict[str, Dict[str, np.ndarray]]
    runtime: float = 0.0
    # one record per failure, by replication and estimator: its replication,
    # estimator, error class, message and, for NoConvergence, the last residual
    failure_detail: List[dict] = field(default_factory=list)
    # label -> inference mode, the key of the "ours" statistic
    modes: Dict[str, str] = field(default_factory=dict)
    threads: int = 1  # worker threads the replications ran on

    @property
    def failures(self) -> List[Tuple[int, str, str]]:
        """(replication, estimator, error class) of each failure record."""
        return [(d["replication"], d["estimator"], d["error"]) for d in self.failure_detail]

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
            "resolved_p": {str(c.n): c.p for c in self.cells},
            "environment": _environment(self.cells),
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


def _draw(cfg: ExperimentConfig, n: int, p: float, cell_index: int, rep: int):
    """Replication rep's true A, observed Ahat and outcome noise."""
    ss = np.random.SeedSequence(entropy=(cfg.master_seed, cell_index, rep))
    seed_latent, seed_obs, seed_eps = [int(s.generate_state(1)[0]) for s in ss.spawn(3)]
    a_true = build_true_adjacency(cfg.graphon, sample_latent(n, seed_latent), p)
    a_hat = observe(a_true, seed_obs)
    eps = np.random.default_rng(np.random.SeedSequence(seed_eps)).standard_normal(n) * cfg.sigma
    return a_true, a_hat, eps


def _replicate(cfg: ExperimentConfig, n: int, p: float, cell_index: int, rep: int):
    """Replication rep's record per estimator label, and its failures (manifest records less the replication)."""
    a_true, a_hat, eps = _draw(cfg, n, p, cell_index, rep)
    out: Dict[str, Dict[str, float]] = {}
    failures: List[dict] = []
    eig_kwargs = {"max_iter": cfg.eig_max_iter, "tol": cfg.eig_tol}

    for est in cfg.estimators:
        rec: Dict[str, float] = dict.fromkeys(_DRAW_KEYS, np.nan)
        try:
            c_hat = est.centrality(a_hat, p, **eig_kwargs)
            # outcomes come from the centrality on A; the eigenvector kinds
            # scale v1(A), which A keeps once solved, by the a_n resolved on Ahat
            if est.spectral:
                a_n, v_true = c_hat.recipe["a_n"], leading_eigenpair(a_true, **eig_kwargs)[1]
                c_true, y = a_n * v_true, cfg.beta_true * a_n * v_true + eps
            else:
                c_true = est.centrality(a_true, p, **eig_kwargs).values
                y = cfg.beta_true * c_true + eps

            fit = est.fit(y, a_hat, c_hat)
            rec.update(beta_hat=fit.beta_hat, B_hat=fit.B_hat, V_hat=fit.V_hat, V0_hat=fit.V0_hat,
                       ssq=fit.ssq_c, beta_check=np.nan if fit.beta_check is None else fit.beta_check)
            if est.kind == "degree":
                # conditional center of the degree noise term, available because the
                # simulator knows A: E[iota' xi^2 iota | U] = sum_{i != j} A_ij (1 - A_ij)
                rec["oracle_center"] = a_true.noise_variance_total()
            if est.spectral:
                rec["lambda1"] = c_hat.lambda1
            if cfg.fit_no_error:
                fit_t = inference.ols(y, c_true, mode="no-error")
                rec["beta_tilde"] = fit_t.beta_hat
                rec["V0_tilde"] = fit_t.V0_hat
        except CentregError as exc:
            failures.append({"estimator": est.label, "error": type(exc).__name__, "message": str(exc),
                             "residual": _json_number(getattr(exc, "residual", None))})
        out[est.label] = rec
    return out, failures


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
    threads: Optional[int] = None,
) -> CellResult:
    """Run all replications of one (n, p) cell; failures never abort the cell."""
    cfg = replace(cfg)  # __post_init__ checks again any field assigned since cfg was built
    p = cfg.sparsity.resolve(n)
    labels = [e.label for e in cfg.estimators]
    nthreads = threads if threads is not None else cfg.threads
    if nthreads <= 0:
        raw = os.environ.get("CENTREG_THREADS", "1")
        nthreads = int(raw) if raw.isdecimal() else raw  # a string fails the check, which names it
        _checked({"threads": nthreads}, _CONFIG_CHECKS, lambda name: "CENTREG_THREADS")
    # _replicate is looked up at call time, where perfbench/tracing.py wraps it; the partial pickles
    replicate = functools.partial(_replicate, cfg, n, p, cell_index)
    start = time.perf_counter()
    if nthreads > 1:
        from concurrent.futures import ThreadPoolExecutor  # a serial run never imports it (logging, queue, ...)
    pool = ThreadPoolExecutor(max_workers=nthreads) if nthreads > 1 else None
    with pool or contextlib.nullcontext():
        results = list((pool.map if pool else map)(replicate, range(cfg.replications)))  # in replication order

    draws = {label: {key: np.array([out[label][key] for out, _ in results], dtype=np.float64) for key in _DRAW_KEYS}
             for label in labels}
    detail = [{"replication": rep, **f} for rep, (_, fails) in enumerate(results) for f in fails]
    detail.sort(key=lambda d: (d["replication"], d["estimator"]))
    return CellResult(
        n=n,
        p=p,
        cell_index=cell_index,
        replications=cfg.replications,
        estimators=labels,
        draws=draws,
        runtime=time.perf_counter() - start,
        failure_detail=detail,
        modes={e.label: e.mode for e in cfg.estimators},
        threads=max(nthreads, 1),
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
    rows = []
    beta0s = np.array(beta0_grid, dtype=np.float64)[:, None]  # a column of nulls against the row of draws
    zs = np.array([inference.critical_value(alpha) for alpha in alpha_grid])[:, None]
    for label in cell.estimators:
        d = cell.draws[label]
        ok = cell.ok_mask(label)
        n_ok = int(ok.sum())
        parts = {key: d[key][ok] for key in ("beta_hat", "V0_hat", "B_hat", "V_hat")}
        rejects = [(np.abs(inference.statistic(mode, beta0s, **parts)[0])[:, None, :] >= zs).sum(axis=2).tolist()
                   for mode in (cell.modes[label], "no-error")]  # per statistic, (beta0, alpha) -> rejections
        for g, beta0 in enumerate(beta0_grid):
            for stat_name, counts in zip(("ours", "robust"), rejects):
                for k, alpha in enumerate(alpha_grid):
                    rate = counts[g][k] / n_ok if n_ok else float("nan")
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


# ---------------------------------------------------------------------------
# file outputs

_DIST_KEYS = ("beta_hat", "beta_check", "B_hat", "V_hat", "V0_hat")


def _environment(cells: Sequence[CellResult]) -> dict:
    """Versions, BLAS, core count and each cell's worker threads, for the manifest."""
    import platform

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": SCIPY_VERSION,
        "blas": {"name": blas.get("name"), "version": blas.get("version")},
        "cores": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "threads": {str(c.cell_index): c.threads for c in cells},
    }


def write_outputs(
    result: ExperimentResult,
    out_dir,
    fmt: str = "csv",
    dump_graph: bool = False,
) -> List[str]:
    """Write size.csv, power.csv, per-estimator draw files, and manifest.json."""
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
            write_table(path, header, ([row[k] for k in header] for row in rows))
        written.append(str(path))

    emit("size.csv", size_rows)
    emit("power.csv", power_rows)

    for cell in result.cells:
        for label in cell.estimators:
            d = cell.draws[label]
            safe = label.replace("(", "_").replace(")", "").replace(",", "_").replace("=", "")
            path = out_dir / f"dist_{safe}_n{cell.n}.csv"
            rows = zip(range(cell.replications), *(d[key].tolist() for key in _DIST_KEYS))
            write_table(path, ["replication", *_DIST_KEYS], rows)
            written.append(str(path))

    (out_dir / "manifest.json").write_text(json.dumps(result.manifest(), indent=1, allow_nan=False))
    written.append(str(out_dir / "manifest.json"))

    if dump_graph:
        gdir = out_dir / "graphs"
        gdir.mkdir(exist_ok=True)
        for cell in result.cells:
            _, a_hat, _ = _draw(cfg, cell.n, cell.p, cell.cell_index, 0)
            path = gdir / f"cell{cell.cell_index}_rep0.csv"
            write_edge_list(a_hat, path)
            written.append(str(path))
    return written
