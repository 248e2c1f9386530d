"""Command-line front end: simulate, regress, centrality, derive.

Exit codes: 0 success, 1 verification mismatch, 2 usage or data error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import fields
from pathlib import Path

import numpy as np

from . import inference
# the four centralities are not called here but kept as names of this module:
# perfbench/tracing.py wraps the centrality layer by these module attributes
from .centrality import (  # noqa: F401
    DELTA_RULES,
    REG_MODES,
    SCALINGS,
    check_spec,
    degree,
    diffusion,
    eigenvector_centrality,
    regularized_eigenvector_centrality,
)
from .errors import CentregError, _checked, _is_number
from .graph_model import SymmetricSparseMatrix
from .io import binary_matrix_from_files, read_outcomes, write_table
from .monte_carlo import (
    ESTIMATOR_KINDS,
    Estimator,
    ExperimentConfig,
    run_experiment,
    write_outputs,
)
from .walks import derive_b, derive_g, reference_b, reference_g

EXIT_OK = 0
EXIT_MISMATCH = 1
EXIT_USAGE = 2


# estimator spec fields whose flag is not "--" + the field name
_FLAGS = {"a": "--scale-a", "p_n": "--reg-p", "M": "--reg-M"}


def _flag(field: str) -> str:
    return _FLAGS.get(field, "--" + field.replace("_", "-"))


def _add_estimator_flags(parser: argparse.ArgumentParser, kind_flag: str) -> None:
    """The estimator spec as flags; unset flags take the spec defaults (README)."""
    parser.add_argument(kind_flag, dest="kind", default="degree", choices=ESTIMATOR_KINDS)
    parser.add_argument("--delta", type=float)
    parser.add_argument("--T", type=int)
    parser.add_argument("--delta-rule", choices=DELTA_RULES)
    parser.add_argument("--scaling", choices=SCALINGS)
    parser.add_argument(_FLAGS["a"], dest="a", type=float, help="a_n for fixed scaling")
    parser.add_argument("--reg-mode", choices=REG_MODES)
    parser.add_argument(_FLAGS["p_n"], dest="p_n", type=float, help="oracle sparsity scale p_n")
    parser.add_argument(_FLAGS["M"], dest="M", type=float, help="plug-in graphon mass lower bound")


def _estimator(args) -> Estimator:
    spec = {f.name: getattr(args, f.name) for f in fields(Estimator) if getattr(args, f.name, None) is not None}
    est = Estimator.from_spec(spec, _flag, args.command == "regress")
    if est.kind == "regularized-eigenvector":  # no cell's p stands in for an oracle's p_n
        check_spec(_flag, reg_mode=est.reg_mode, p_n=est.p_n)
    return est


_FLAG_CHECKS = {  # numeric flags -> (accepts, expectation), checked by ``main`` before any command runs
    "beta0": (lambda v: all(map(_is_number, v)), "finite numbers"),
    "alpha": (lambda v: all(_is_number(a) and inference.ALPHA_MIN < a < 1 for a in v), "numbers in (2^-53, 1)"),
    "seed": (lambda v: v >= 0, "an integer >= 0"),
    "threads": (lambda v: v >= 0, "an integer >= 0"),
    "max": (lambda v: v >= 1, "an integer >= 1"),
    "n": (lambda v: v >= 2, "an integer >= 2"),
}


@functools.cache  # parse_args leaves the parser as it was; built once per process
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="centreg",
        description="OLS regression on network centralities under sparsity and measurement error",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    sim = sub.add_parser("simulate", help="run a replicated simulation experiment")
    sim.add_argument("--config", required=True, help="JSON experiment configuration")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--threads", type=int, default=None)
    sim.add_argument("--seed", type=int, default=None, help="override the config master seed")
    sim.add_argument("--dump-graph", action="store_true", help="write the first replication's edge list per cell")
    sim.add_argument("--format", choices=("csv", "json"), default="csv")

    reg = sub.add_parser("regress", help="fit a centrality regression on user data")
    reg.add_argument("--edges", required=True, help="edge-list CSV (header i,j)")
    reg.add_argument("--outcomes", required=True, help="outcomes CSV (header id,y)")
    _add_estimator_flags(reg, "--centrality")
    reg.add_argument("--mode", default=None,
                     help="inference mode override (default inferred from centrality)")
    reg.add_argument("--beta0", type=float, action="append", default=None)
    reg.add_argument("--alpha", type=float, action="append", default=None)
    reg.add_argument("--out", default=None, help="output file (default stdout)")

    cen = sub.add_parser("centrality", help="compute a centrality vector from an edge list")
    cen.add_argument("--edges", required=True)
    cen.add_argument("--n", type=int, default=None, help="node count (default: max id + 1)")
    _add_estimator_flags(cen, "--kind")
    cen.add_argument("--out", default=None)
    cen.add_argument("--format", choices=("csv", "json"), default="csv")

    der = sub.add_parser("derive", help="derive coefficient tables and verify against references",
                         aliases=["derive-coefficients"])
    der.add_argument("what", nargs="?", choices=("g", "b"))
    der.add_argument("--what", dest="what_opt", choices=("g", "b"),
                     help="alternative to the positional argument")
    der.add_argument("--max", type=int, default=None, help="largest t (for g) or T (for b)")
    der.add_argument("--verify", action="store_true", help="exit 1 on any mismatch with the embedded tables")
    der.add_argument("--format", choices=("csv", "json"), default="csv")
    der.add_argument("--out", default=None)

    return parser


# ---------------------------------------------------------------------------
# subcommands


def _cmd_simulate(args) -> int:
    cfg = ExperimentConfig.from_json_file(args.config)
    if args.seed is not None:
        cfg.master_seed = args.seed
    Path(args.out).mkdir(parents=True, exist_ok=True)  # a bad --out fails before any replication runs

    result = run_experiment(cfg, threads=args.threads)
    write_outputs(result, args.out, fmt=args.format, dump_graph=args.dump_graph)

    fully_failed = [
        c.cell_index
        for c in result.cells
        if all(not c.ok_mask(label).any() for label in c.estimators)
    ]
    if fully_failed:
        print(f"error: cells {fully_failed} produced no successful replication", file=sys.stderr)
        return EXIT_MISMATCH
    return EXIT_OK


def _emit(out, text: str) -> None:
    """Write text to the --out file, or print it."""
    if out:
        Path(out).write_text(text)
    else:
        print(text)


def _endpoints(iv) -> list:
    """[lo, hi] with an unbounded end written as null (JSON has no infinity)."""
    return [x if math.isfinite(x) else None for x in (iv.lo, iv.hi)]


def _cmd_regress(args) -> int:
    est = _estimator(args)
    ids, y = read_outcomes(args.outcomes)
    order = np.argsort(ids)
    ids, y = ids[order], y[order]
    a_hat = binary_matrix_from_files(args.edges, ids)
    c_hat = est.centrality(a_hat)
    fit = est.fit(y, a_hat, c_hat)

    beta0s = args.beta0 if args.beta0 else [0.0]
    alphas = args.alpha if args.alpha else [0.05]
    payload = fit.to_json_dict()
    payload["centrality"] = est.kind
    payload["tests"] = []
    for b0 in beta0s:
        tr = inference.test_beta(fit, b0, alphas=alphas)
        payload["tests"].append(
            {
                "beta0": b0,
                "statistic": tr.statistic,
                "p_value": tr.p_value,
                "branch": tr.branch,
                "reject_at": {str(a): r for a, r in tr.reject_at.items()},
            }
        )
    payload["intervals"] = []
    for a in alphas:
        iv = inference.confidence(fit, a)
        payload["intervals"].append(
            {
                "alpha": a,
                "c0": _endpoints(iv.c0),
                "c": [_endpoints(piece) for piece in iv.c],
                "c_star": [_endpoints(piece) for piece in iv.c_star],
                "wraps": iv.wraps,
            }
        )
    _emit(args.out, json.dumps(payload, indent=1, default=float, allow_nan=False))
    return EXIT_OK


def _cmd_centrality(args) -> int:
    from .io import read_edge_list

    est = _estimator(args)
    rows, cols = read_edge_list(args.edges)
    n = args.n if args.n is not None else (int(max(rows.max(), cols.max())) + 1 if len(rows) else 0)
    if n < 2:
        raise ValueError("need at least two nodes")
    if len(cols) and cols.max() >= n:
        raise ValueError(f"{args.edges}: edge endpoint {cols.max()} is not below --n {n}")
    try:
        vec = est.centrality(SymmetricSparseMatrix.from_edges(n, rows, cols))
    except MemoryError:
        print(f"error: {args.edges}: not enough memory for node count {n}", file=sys.stderr)
        return EXIT_USAGE
    if args.format == "json":
        payload = {"recipe": vec.recipe, "values": [float(v) for v in vec.values]}
        if vec.lambda1 is not None:
            payload["lambda1"] = vec.lambda1
        _emit(args.out, json.dumps(payload, indent=1, allow_nan=False))
    else:
        write_table(args.out, ["id", "value"], ([i, repr(float(v))] for i, v in enumerate(vec.values)))
    return EXIT_OK


def _cmd_derive(args) -> int:
    what = args.what or args.what_opt
    if what is None:
        raise ValueError("specify the table to derive (g or b)")
    if args.what and args.what_opt and args.what != args.what_opt:
        raise ValueError("conflicting positional and --what values")
    top = args.max if args.max is not None else (10 if what == "g" else 4)
    # the intrinsic budget caps (WALK_LENGTH_CAP, DERIVE_B_CAP) turn an
    # over-large --max into a BudgetExceeded usage error; they lie inside the
    # reference tables, so every derived key has a reference
    derived = {t: (derive_g if what == "g" else derive_b)(t) for t in range(1, top + 1)}
    reference = reference_g if what == "g" else reference_b
    mismatches = [key for key, poly in derived.items() if poly.coeffs != reference(key).coeffs] if args.verify else []

    rows = []
    if what == "g":
        for t, poly in derived.items():
            for r, c in sorted(poly.coeffs.items()):
                rows.append({"t": t, "r": r, "coefficient": c})
        header = ["t", "r", "coefficient"]
    else:
        for T, poly in derived.items():
            for (t, s), c in sorted(poly.coeffs.items()):
                rows.append({"T": T, "t": t, "delta_power": s, "coefficient": c})
        header = ["T", "t", "delta_power", "coefficient"]

    if args.format == "json":
        _emit(args.out, json.dumps(rows, indent=1, allow_nan=False))
    else:
        write_table(args.out, header, ([row[k] for k in header] for row in rows))

    if mismatches:
        print(f"verification FAILED for {what} at {mismatches}", file=sys.stderr)
        return EXIT_MISMATCH
    if args.verify:
        print(f"verification passed for all derived {what} tables", file=sys.stderr)
    return EXIT_OK


_COMMANDS = {"simulate": _cmd_simulate, "regress": _cmd_regress, "centrality": _cmd_centrality,
             "derive": _cmd_derive, "derive-coefficients": _cmd_derive}


def main(argv=None) -> int:
    """Run one subcommand; bad input of any kind is one ``error:`` line and exit 2."""
    args = _build_parser().parse_args(argv)
    try:
        _checked({k: v for k, v in vars(args).items() if v is not None}, _FLAG_CHECKS, lambda name: "--" + name)
        return _COMMANDS[args.command](args)
    except (CentregError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
