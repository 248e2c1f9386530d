"""Benchmark for centreg: one workload per call, end-to-end or traced.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; centreg is imported from its ``src``
directory.  The workload runs in a child interpreter (``worker.py``) with
every BLAS pool pinned to one thread, so worker threads are the only
threads.  With ``--trace 0`` the child runs the workload untimed-by-span
for S seconds and the end-to-end metrics are reported; set-up time is the
median over fresh interpreters.  With ``--trace 1`` the child runs the same
inputs untraced and then traced (S split between the phases) and the
per-layer metrics are reported.  Every run checks the program's outputs.

One line per metric goes to stdout, then the result as one JSON object on
the last line.  Scratch files and the full record of each run (spans,
environment, gates) go to ``.perfbench/`` in the checkout.  Exit code 0
means the gates passed, 1 that a gate failed, 2 a usage or checkout error.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import stats
from workloads import WORKLOADS, prepare

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_PROBES = 4  # fresh interpreters timed besides the worker itself
RUN_LIMIT_S = 170.0
EDGE_SD = 6.0
REGRESS_RTOL = 1e-9
MAX_PRINTED_PROBLEMS = 20

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "success_rate": "fraction",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "graph_model.sample_latent_ms": "ms",
    "graph_model.build_true_adjacency_ms": "ms",
    "graph_model.observe_ms": "ms",
    "graph_model.edges_per_op": "count",
    "centrality.eigenpair_true_ms": "ms",
    "centrality.eigenpair_hat_ms": "ms",
    "centrality.eigen_failures": "count",
    "centrality.eigen_attempts": "count",
    "centrality.eigen_residual_max": "ratio",
    "centrality.regularize_ms": "ms",
    "centrality.degree_ms": "ms",
    "centrality.diffusion_ms": "ms",
    "inference.ols_ms": "ms",
    "inference.bias_variance_ms": "ms",
    "inference.test_confidence_ms": "ms",
    "walks.reference_b_ms": "ms",
    "io.read_edge_list_ms": "ms",
    "io.read_outcomes_ms": "ms",
    "io.bytes_read": "bytes",
    "cli.self_ms": "ms",
    "monte_carlo.self_ms": "ms",
    "monte_carlo.write_outputs_ms": "ms",
    "monte_carlo.rejection_table_ms": "ms",
    "monte_carlo.parallel_efficiency": "ratio",
    "trace.overhead_ratio": "ratio",
}


class BenchError(RuntimeError):
    pass


def plan(parallel: int, seconds: float, trace: int) -> list:
    """Phases the worker runs, in order, each on the same input sequence.

    The timed run uses one worker thread.  ``parallel`` > 1 adds an
    untraced phase at that many threads to the traced run."""
    if not trace:
        return [{"name": "timed", "threads": 1, "traced": False, "seconds": seconds}]
    phases = []
    if parallel > 1:
        phases.append({"name": f"untraced{parallel}", "threads": parallel, "traced": False})
    phases += [
        {"name": "untraced1", "threads": 1, "traced": False},
        {"name": "traced1", "threads": 1, "traced": True},
    ]
    for p in phases:
        p["seconds"] = seconds / len(phases)
    return phases


def spawn(spec_path: Path, result_path: Path, setup_only: bool, deadline: float) -> float:
    """Start a worker and wait for it; return seconds from start until it
    reported ready.  A worker still running at ``deadline`` is killed."""
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1", MKL_NUM_THREADS="1")
    env.pop("CENTREG_THREADS", None)
    cmd = [sys.executable, str(HERE / "worker.py"), str(spec_path), str(result_path)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, cwd=ROOT, env=env)
    timer = threading.Timer(max(1.0, deadline - time.monotonic()), proc.kill)
    timer.start()
    try:
        line = proc.stdout.readline()
        ready = time.perf_counter() - t0
        proc.communicate()
    finally:
        timer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if time.monotonic() >= deadline:
        raise BenchError("worker exceeded the run's time limit")
    if line.strip() != b"ready" or proc.returncode != 0:
        raise BenchError(f"worker failed (exit {proc.returncode})")
    return ready


# ---------------------------------------------------------------------------
# gates


def _prefix_equal(a: list, b: list) -> bool:
    k = min(len(a), len(b))
    return a[:k] == b[:k]


def check(spec: dict, reference: dict, result: dict) -> tuple:
    """(problems, ops or fits the failed gates cover) over every phase."""
    problems, covered = [], 0
    phases = result["phases"]
    for ph in phases:
        tag = ph["name"]
        for edges, mean, var in ph["edge_checks"]:
            if abs(edges - mean) > EDGE_SD * math.sqrt(var):
                problems.append(f"{tag}: Ahat has {edges} edges, expected {mean:.1f} +- {EDGE_SD} sd")
                covered += 1
        for which, resid, tol in ph["solves"]:
            if not resid <= tol:
                problems.append(f"{tag}: eigenpair on {which} has residual {resid:.3g} > tol {tol:g}")
                covered += 1
        if spec["kind"] == "simulate" and ph["nonfinite"]:
            problems.append(f"{tag}: {ph['nonfinite']} successful fits with non-finite draws")
            covered += ph["nonfinite"]
        for op in ph.get("regress_ops", []):
            bad = _regress_problem(op, reference)
            if bad:
                problems.append(f"{tag}: {op['kind']}: {bad}")
                covered += 1

    if spec["kind"] == "simulate":
        first = phases[0]
        others = [(ph["name"], ph["digests"]) for ph in phases[1:]]
        if "replay_digest" in result:
            others.append((f"replay at {spec['replay_threads']} threads", [result["replay_digest"]]))
        for name, digests in others:
            if not _prefix_equal(first["digests"], digests):
                problems.append(f"draws of {name} differ from {first['name']}")
                covered += first["attempted"] // max(1, len(first["digests"]))
    else:
        slopes = [[op.get("beta_hat") for op in ph["regress_ops"]] for ph in phases]
        if any(not _prefix_equal(slopes[0], s) for s in slopes[1:]):
            problems.append("regress slopes differ between phases")
    return problems, covered


def _regress_problem(op: dict, reference: dict):
    if op["exit"] != 0:
        return f"exit code {op['exit']}"
    if "json_error" in op:
        return op["json_error"]
    want = reference["beta_hat"].get(op["kind"])
    if want is not None and not abs(op["beta_hat"] - want) <= REGRESS_RTOL * abs(want):
        return f"beta_hat {op['beta_hat']!r} != reference {want!r}"
    return None


# ---------------------------------------------------------------------------
# metrics


def counts(spec: dict, phase: dict, covered: int) -> tuple:
    """(attempted, failed): fits for simulations, calls for regress.

    A regress call that exits non-zero is one of the ops a failed gate
    covers, so ``covered`` already counts it."""
    if spec["kind"] == "simulate":
        attempted, failed = phase["attempted"], phase["failed"]
    else:
        attempted, failed = len(phase["regress_ops"]), 0
    return attempted, min(attempted, failed + covered)


def rate(spec: dict, phase: dict) -> float:
    """Ops per second over the time spent in ops (simulations: run_experiment
    plus write_outputs per batch; regress: the cli.main calls)."""
    busy = sum(phase["walls"]) if spec["kind"] == "simulate" else sum(phase["op_ms"]) / 1000.0
    return phase["ops"] / busy


def round_size(spec: dict, phase: dict) -> int:
    """Ops per round: one batch of replications, or one call per centrality."""
    if spec["kind"] == "simulate":
        return phase["ops"] // len(phase["walls"])
    return len(spec["kinds"])


def end_to_end(spec, phase, setup_samples, attempted, failed) -> tuple:
    op_ms = phase["op_ms"]
    tail, pct, segments = stats.segmented_tail(op_ms)
    p50, rounds = stats.round_median(op_ms, round_size(spec, phase))
    fr = stats.failure_rate(failed, attempted)
    values = {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": rate(spec, phase),
        "op_p50_ms": p50,
        "op_tail_ms": tail,
        "success_rate": 1.0 - fr,
        "peak_rss_mb": phase["peak_rss_mb"],
    }
    notes = {
        "setup_s": f"median of {len(setup_samples)} fresh interpreters",
        "ops_per_s": f"{phase['ops']} ops",
        "op_p50_ms": f"mean of {rounds} round medians, n={len(op_ms)}",
        "op_tail_ms": f"p{pct:.2f} mean over {segments} segment(s), n={len(op_ms)}",
        "success_rate": f"failure_rate={fr:.6g} ({failed}/{attempted})",
        "peak_rss_mb": f"worker at {phase['threads']} thread(s)",
    }
    return values, notes


def per_layer(spec, phases) -> tuple:
    traced = phases[-1]
    untraced1 = phases[-2]
    spans = [tuple(s) for s in traced["spans"]]
    ops = traced["ops"]
    selfs = stats.self_times(spans)
    total, own = {}, {}
    for (layer, name, start, end, parent, op), self_s in zip(spans, selfs):
        total[layer, name] = total.get((layer, name), 0.0) + (end - start)
        own[layer, name] = own.get((layer, name), 0.0) + self_s

    def ms(layer, *names, table=total):
        return sum(table.get((layer, n), 0.0) for n in names) * 1000.0 / ops

    resid = [r for _, r, _ in traced["solves"]]
    threads = phases[0]["threads"]
    values = {
        "graph_model.sample_latent_ms": ms("graph_model", "sample_latent"),
        "graph_model.build_true_adjacency_ms": ms("graph_model", "build_true_adjacency"),
        "graph_model.observe_ms": ms("graph_model", "observe"),
        "graph_model.edges_per_op": (sum(e for e, _, _ in traced["edge_checks"]) + traced["edges_read"]) / ops,
        "centrality.eigenpair_true_ms": ms("centrality", "leading_eigenpair:true"),
        "centrality.eigenpair_hat_ms": ms("centrality", "leading_eigenpair:hat"),
        "centrality.eigen_failures": traced["eigen_failures"],
        "centrality.eigen_attempts": traced["eigen_attempts"],
        "centrality.eigen_residual_max": max(resid, default=0.0),
        "centrality.regularize_ms": ms("centrality", "regularize"),
        "centrality.degree_ms": ms("centrality", "degree"),
        "centrality.diffusion_ms": ms("centrality", "diffusion"),
        "inference.ols_ms": ms("inference", "ols"),
        "inference.bias_variance_ms": ms(
            "inference", "degree_bias_variance", "diffusion_bias_variance", "eigen_bias_variance"
        ),
        "inference.test_confidence_ms": ms("inference", "test_beta", "confidence"),
        "walks.reference_b_ms": ms("walks", "reference_b"),
        "io.read_edge_list_ms": ms("io", "read_edge_list"),
        "io.read_outcomes_ms": ms("io", "read_outcomes"),
        "io.bytes_read": traced["bytes_read"] / ops,
        "cli.self_ms": ms("cli", "main", table=own),
        "monte_carlo.self_ms": ms("monte_carlo", "run_cell", "_replicate", table=own),
        "monte_carlo.write_outputs_ms": ms("monte_carlo", "write_outputs"),
        "monte_carlo.rejection_table_ms": ms("monte_carlo", "rejection_table"),
        "monte_carlo.parallel_efficiency": stats.parallel_efficiency(
            rate(spec, phases[0]), rate(spec, untraced1), threads
        ),
        "trace.overhead_ratio": stats.overhead_ratio(traced["op_ms"], untraced1["op_ms"]),
    }
    notes = {name: f"per op, {ops} traced ops" for name in values if name.endswith(("_ms", "_op", "bytes_read"))}
    notes["centrality.eigen_residual_max"] = f"max over {len(resid)} solves, ||Av - lv|| / ||A||_F"
    notes["monte_carlo.parallel_efficiency"] = (
        f"{phases[0]['ops']} ops at {threads} threads vs {untraced1['ops']} at 1, untraced"
    )
    notes["trace.overhead_ratio"] = f"first {min(ops, untraced1['ops'])} ops, traced vs untraced at 1 thread"
    return values, notes


# ---------------------------------------------------------------------------


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + RUN_LIMIT_S

    if not (ROOT / "src" / "centreg" / "__init__.py").is_file():
        print(f"error: no centreg source tree under {ROOT / 'src'}", file=sys.stderr)
        return 2
    if args.seconds <= 0 or args.seed < 0:
        print("error: --seconds must be positive and --seed nonnegative", file=sys.stderr)
        return 2

    workdir = ROOT / ".perfbench" / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir(parents=True)
    spec, reference = prepare(args.workload, workdir, args.seed)
    wl = WORKLOADS[args.workload]
    parallel = len(os.sched_getaffinity(0)) if wl.get("parallel") else 1
    spec["phases"] = plan(parallel, args.seconds, args.trace)
    if not args.trace and parallel > 1:
        spec["replay_threads"] = parallel
    spec_path, result_path = workdir / "spec.json", workdir / "worker_result.json"
    spec_path.write_text(json.dumps(spec, indent=1))

    try:
        setup_samples = []
        if not args.trace:
            # the first start may compile bytecode; it is not a sample
            for k in range(SETUP_PROBES + 1):
                ready = spawn(spec_path, result_path, True, deadline)
                if k:
                    setup_samples.append(ready)
        setup_samples.append(spawn(spec_path, result_path, False, deadline))
        result = json.loads(result_path.read_text())
    except BenchError as exc:
        print(f"error: {args.workload}: {exc}", file=sys.stderr)
        return 3
    finally:
        for name in ("edges.csv", "outcomes.csv"):
            (workdir / name).unlink(missing_ok=True)

    problems, covered = check(spec, reference, result)
    phases = result["phases"]
    attempted, failed = counts(spec, phases[-1], covered)
    if args.trace:
        values, notes = per_layer(spec, phases)
        units = PER_LAYER
    else:
        values, notes = end_to_end(spec, phases[0], setup_samples, attempted, failed)
        units = END_TO_END

    for key, val in sorted(result["env"].items()):
        print(f"{args.workload:<12} env.{key:<34} {val}")
    for name, unit in units.items():
        print(f"{args.workload:<12} {name:<38} {values[name]:>16.6g} {unit:<8} {notes.get(name, '')}")
    for problem in problems[:MAX_PRINTED_PROBLEMS]:
        print(f"{args.workload:<12} GATE FAILED: {problem}")
    if len(problems) > MAX_PRINTED_PROBLEMS:
        print(f"{args.workload:<12} GATE FAILED: {len(problems) - MAX_PRINTED_PROBLEMS} more, see result.json")
    errors = {}
    for ph in phases:
        for err, n in ph.get("errors", {}).items():
            errors[err] = errors.get(err, 0) + n
    record = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(values[name]), "unit": unit} for name, unit in units.items()},
    }
    full = dict(record, workload=args.workload, seed=args.seed, seconds=args.seconds, trace=args.trace,
                env=result["env"], notes=notes, setup_samples_s=setup_samples, gate_problems=problems,
                fit_errors=errors)
    (workdir / "result.json").write_text(json.dumps(full, indent=1))
    print(json.dumps(record))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
