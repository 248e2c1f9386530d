"""Run one workload in a fresh interpreter and write what it observed.

    python3 perfbench/worker.py SPEC.json RESULT.json [--setup-only]

The worker imports centreg from the checkout's ``src`` directory, loads the
workload's config (or checks its input files), prints ``ready`` and, unless
``--setup-only`` is given, runs the phases listed in the spec.  The parent
times the interval from process start to ``ready`` as set-up time; the
worker imports only the standard library and centreg before that point.
"""

from __future__ import annotations

import gc
import json
import os
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def setup(spec: dict):
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    import centreg

    if Path(centreg.__file__).resolve().parent != (src / "centreg").resolve():
        raise SystemExit(f"centreg imported from {centreg.__file__}, not from {src}")
    if spec["kind"] == "simulate":
        from centreg.monte_carlo import ExperimentConfig

        cfg = ExperimentConfig.from_json_file(spec["config"])
        if spec.get("eig_max_iter"):
            cfg.eig_max_iter = spec["eig_max_iter"]
        return centreg, cfg
    import centreg.cli

    for key in ("edges", "outcomes"):
        os.stat(spec[key])
    return centreg, None


def main(argv) -> int:
    spec = json.loads(Path(argv[1]).read_text())
    centreg, cfg = setup(spec)
    print("ready", flush=True)
    if "--setup-only" in argv:
        return 0

    import resource

    from tracing import Recorder

    rec = Recorder(centreg)
    workdir = Path(spec["workdir"])
    phases = []
    for phase in spec["phases"]:
        rec.install(traced=phase["traced"])
        try:
            if spec["kind"] == "simulate":
                out = simulate_phase(centreg, rec, cfg, spec, phase, workdir)
            else:
                out = regress_phase(centreg, rec, spec, phase, workdir)
        finally:
            rec.restore()
        out.update(
            name=phase["name"],
            threads=phase["threads"],
            traced=phase["traced"],
            op_ms=rec.op_ms,
            edge_checks=rec.edge_checks,
            solves=rec.solves,
            eigen_attempts=rec.eigen_attempts,
            eigen_failures=rec.eigen_failures,
            edges_read=rec.edges_read,
            bytes_read=rec.bytes_read,
            spans=rec.spans if phase["traced"] else [],
            peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        )
        phases.append(out)
    result = {"phases": phases, "env": environment(spec)}
    if spec.get("replay_threads"):
        # draws must not depend on the worker count: rerun the first batch
        import dataclasses

        from workloads import batch_seed

        first = dataclasses.replace(cfg, master_seed=batch_seed(spec["seed"], 0))
        result["replay_digest"] = _digest(centreg.monte_carlo.run_experiment(first, threads=spec["replay_threads"]))
    Path(argv[2]).write_text(json.dumps(result))
    return 0


def _digest(result) -> str:
    import hashlib

    h = hashlib.sha256()
    for cell in result.cells:
        for label in cell.estimators:
            for key in sorted(cell.draws[label]):
                h.update(cell.draws[label][key].tobytes())
        h.update(repr(cell.failures).encode())
    return h.hexdigest()


def _draw_checks(result) -> dict:
    """Attempted and failed fits, and successful fits with a non-finite draw."""
    import numpy as np

    attempted = failed = nonfinite = 0
    errors = {}
    for cell in result.cells:
        for label in cell.estimators:
            d = cell.draws[label]
            ok = ~np.isnan(d["beta_hat"])
            finite = np.ones_like(ok)
            for key in ("beta_hat", "V0_hat", "B_hat", "V_hat"):
                finite &= np.isfinite(d[key])
            attempted += cell.replications
            failed += int((~ok).sum())
            nonfinite += int((ok & ~finite).sum())
        for _, _, err in cell.failures:
            errors[err] = errors.get(err, 0) + 1
    return {"attempted": attempted, "failed": failed, "nonfinite": nonfinite, "errors": errors}


def simulate_phase(centreg, rec, cfg, spec, phase, workdir) -> dict:
    """Repeat run_experiment + write_outputs on fresh batches until time is up."""
    import dataclasses
    import shutil

    from workloads import batch_seed

    mc = centreg.monte_carlo
    threads = phase["threads"]
    outdir = workdir / f"out_{phase['name']}"

    # untimed warm-up on a small cell: lazy imports and first-call costs
    warm = dataclasses.replace(cfg, n_grid=[min(cfg.n_grid[0], 300)], replications=2)
    mc.write_outputs(mc.run_experiment(warm, threads=threads), outdir / "warm")
    rec.reset()

    totals = {"attempted": 0, "failed": 0, "nonfinite": 0, "errors": {}}
    walls, digests = [], []
    deadline = time.perf_counter() + phase["seconds"]
    batch = 0
    while True:
        rec.batch = batch
        bcfg = dataclasses.replace(cfg, master_seed=batch_seed(spec["seed"], batch))
        gc.collect()  # each batch starts from the same collector state
        t0 = time.perf_counter()
        result = mc.run_experiment(bcfg, threads=threads)
        mc.write_outputs(result, outdir / f"b{batch}")
        walls.append(time.perf_counter() - t0)
        digests.append(_digest(result))
        checks = _draw_checks(result)
        for key in ("attempted", "failed", "nonfinite"):
            totals[key] += checks[key]
        for err, count in checks["errors"].items():
            totals["errors"][err] = totals["errors"].get(err, 0) + count
        batch += 1
        if time.perf_counter() >= deadline:
            break
    shutil.rmtree(outdir, ignore_errors=True)
    totals.update(walls=walls, digests=digests, ops=len(rec.op_ms))
    return totals


def regress_phase(centreg, rec, spec, phase, workdir) -> dict:
    """Call ``centreg regress`` in process, cycling the centralities, until time is up."""
    cli = centreg.cli
    kinds = spec["kinds"]
    beta0 = [arg for b in spec["beta0"] for arg in ("--beta0", repr(b))]

    def argv(kind, out):
        return ["regress", "--edges", spec["edges"], "--outcomes", spec["outcomes"],
                "--centrality", kind, *beta0, "--out", str(out)]

    # untimed warm-up cycle: lazy imports and first-call costs
    for kind in kinds:
        cli.main(argv(kind, workdir / "warm.json"))
    rec.reset()

    ops = []
    deadline = time.perf_counter() + phase["seconds"]
    k = 0
    while True:
        kind = kinds[k % len(kinds)]
        out = workdir / f"regress_{phase['name']}.json"
        out.unlink(missing_ok=True)
        gc.collect()  # as in a fresh `centreg regress` process
        code = rec.call_op(k, cli.main, argv(kind, out))
        ops.append({"kind": kind, "exit": code, **_read_payload(out)})
        k += 1
        if k % len(kinds) == 0 and time.perf_counter() >= deadline:
            break
    return {"regress_ops": ops, "ops": len(ops)}


def _read_payload(path: Path) -> dict:
    """The regress JSON, parsed with NaN and Infinity rejected."""

    def reject(token):
        raise ValueError(f"non-finite JSON constant {token}")

    try:
        payload = json.loads(path.read_text(), parse_constant=reject)
    except (OSError, ValueError) as exc:
        return {"json_error": str(exc)}
    return {"beta_hat": payload.get("beta_hat")}


def environment(spec: dict) -> dict:
    import platform

    import numpy as np
    import scipy

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "l2_cache": _cache_size(2),
        "l3_cache": _cache_size(3),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "unset"),
        "worker_threads": max(p["threads"] for p in spec["phases"]),
        "seed": spec["seed"],
    }


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _cache_size(level: int) -> str:
    base = Path("/sys/devices/system/cpu/cpu0/cache")
    try:
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if (index / "level").read_text().strip() == str(level) and kind != "Instruction":
                return (index / "size").read_text().strip()
    except OSError:
        pass
    return "unknown"


if __name__ == "__main__":
    sys.exit(main(sys.argv))
