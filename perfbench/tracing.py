"""Layer-boundary instrumentation, installed from the benchmark's side.

The recorder replaces functions where ``centreg.monte_carlo``, ``centreg.cli``
and the other modules look them up, so every call into a layer passes
through a wrapper.  Untraced runs install only the wrappers that time ops
and feed the correctness gates; traced runs also record one span per call.
Spans stay in memory until the run ends.
"""

from __future__ import annotations

import importlib
import inspect
import os
import threading
import time
from typing import Callable, List, Optional

import numpy as np

# layer -> (module under centreg, attribute) pairs to wrap.  A function bound
# under several names is wrapped once, so no call is counted twice.
LAYER_TARGETS = {
    "graph_model": [
        ("monte_carlo", "sample_latent"),
        ("monte_carlo", "build_true_adjacency"),
        ("monte_carlo", "observe"),
    ],
    "centrality": [
        ("monte_carlo", "degree"),
        ("monte_carlo", "diffusion"),
        ("monte_carlo", "leading_eigenpair"),
        ("monte_carlo", "regularize"),
        ("monte_carlo", "eigenvector_centrality"),
        ("cli", "degree"),
        ("cli", "diffusion"),
        ("cli", "eigenvector_centrality"),
        ("cli", "regularized_eigenvector_centrality"),
        ("centrality", "leading_eigenpair"),
        ("centrality", "regularize"),
    ],
    "inference": [
        ("inference", "ols"),
        ("inference", "degree_bias_variance"),
        ("inference", "diffusion_bias_variance"),
        ("inference", "eigen_bias_variance"),
        ("inference", "test_beta"),
        ("inference", "confidence"),
    ],
    "walks": [("monte_carlo", "reference_b"), ("inference", "reference_b")],
    "io": [
        ("cli", "read_outcomes"),
        ("cli", "binary_matrix_from_files"),
        ("io", "read_edge_list"),
    ],
    "monte_carlo": [
        ("monte_carlo", "run_experiment"),
        ("monte_carlo", "run_cell"),
        ("monte_carlo", "_replicate"),
        ("monte_carlo", "write_outputs"),
        ("monte_carlo", "rejection_table"),
    ],
    "cli": [("cli", "main")],
}

# Wrapped in untraced runs too: the op timer and the correctness gates.
GATE_TARGETS = {
    ("monte_carlo", "_replicate"),
    ("monte_carlo", "build_true_adjacency"),
    ("monte_carlo", "observe"),
    ("monte_carlo", "leading_eigenpair"),
    ("centrality", "leading_eigenpair"),
}


def edge_moments(graphon_json: dict, u: np.ndarray, p: float):
    """(sum, variance) of the Ahat edge count, sum over i<j of A_ij and A_ij(1-A_ij).

    Computed from the graphon's JSON form and the latent types alone, so it
    holds for any faithful sampler and any representation of A.
    """
    n = len(u)
    kind = graphon_json["kind"]
    if kind == "constant":
        q = p * float(graphon_json["c"])
        pairs = n * (n - 1) / 2.0
        return q * pairs, q * (1.0 - q) * pairs
    if kind == "sbm":
        pi = np.asarray(graphon_json["pi"], dtype=np.float64)
        q = p * np.asarray(graphon_json["P"], dtype=np.float64)
        block = np.searchsorted(np.cumsum(pi)[:-1], u, side="right")
        counts = np.bincount(block, minlength=len(pi)).astype(np.float64)
        pairs = np.outer(counts, counts)
        np.fill_diagonal(pairs, counts * (counts - 1))
        pairs /= 2.0  # ordered block pairs, each unordered node pair once
        return float((pairs * q).sum()), float((pairs * q * (1.0 - q)).sum())
    raise ValueError(f"no edge-count reference for graphon kind {kind!r}")


class Recorder:
    """Spans, op latencies and gate observations for one phase of a run."""

    def __init__(self, package):
        self.package = package  # the imported ``centreg`` package
        self._sig_build = inspect.signature(package.graph_model.build_true_adjacency)
        self._sig_eigen = inspect.signature(package.centrality.leading_eigenpair)
        self._patched: List[tuple] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self.traced = False
        self.batch = 0
        self.reset()

    # -- state ---------------------------------------------------------------

    def reset(self) -> None:
        self.spans: List[list] = []
        self.op_ms: List[float] = []
        self.edge_checks: List[tuple] = []  # (edges, expected, variance)
        self.solves: List[tuple] = []  # (tag, residual / ||A||_F, tol)
        self.eigen_attempts = 0
        self.eigen_failures = 0
        self.edges_read = 0
        self.bytes_read = 0

    # -- spans ---------------------------------------------------------------

    def _stack(self) -> list:
        st = getattr(self._local, "stack", None)
        if st is None:
            st = self._local.stack = []
        return st

    def _open(self, layer: str, name: str) -> int:
        st = self._stack()
        rec = [layer, name, time.perf_counter(), 0.0, st[-1] if st else -1, getattr(self._local, "op", None)]
        with self._lock:
            idx = len(self.spans)
            self.spans.append(rec)
        st.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][3] = time.perf_counter()
        self._stack().pop()

    def _bench(self, fn: Callable, *args) -> None:
        """Run a benchmark-side check, as a span of its own when traced, so
        that no layer's self time includes it."""
        idx = self._open("bench", fn.__name__) if self.traced else None
        try:
            fn(*args)
        finally:
            if idx is not None:
                self._close(idx)

    def call_op(self, op_id, fn: Callable, *args):
        """Call ``fn`` as one op: its spans carry ``op_id`` and its latency is kept."""
        self._local.op = op_id
        t0 = time.perf_counter()
        try:
            return fn(*args)
        finally:
            self.op_ms.append((time.perf_counter() - t0) * 1000.0)
            self._local.op = None
            self._local.true_id = None

    # -- hooks (run after the wrapped call, outside its span) ----------------

    def _after_build_true(self, args, kwargs, result) -> None:
        g, u, p = _bound(self._sig_build, args, kwargs, ("g", "u", "p_n"))
        self._local.true_id = id(result)
        self._local.expected = edge_moments(g.to_json_dict(), u.u, p)

    def _after_observe(self, args, kwargs, result) -> None:
        mean, var = self._local.expected
        with self._lock:
            self.edge_checks.append((int(result.n_edges), mean, var))

    def _eigen_tag(self, args, kwargs) -> str:
        return "true" if id(args[0]) == getattr(self._local, "true_id", None) else "hat"

    def _after_eigen(self, args, kwargs, result, tag) -> None:
        m, tol = _bound(self._sig_eigen, args, kwargs, ("m", "tol"))
        lam, v = result
        resid = float(np.linalg.norm(m.matvec(v) - lam * v)) / m.frobenius()
        with self._lock:
            self.solves.append((tag, resid, float(tol)))

    def _after_matrix_read(self, args, kwargs, result) -> None:
        self.edges_read += int(result.n_edges)

    def _before_file_read(self, args, kwargs) -> None:
        self.bytes_read += os.path.getsize(args[0])

    # -- installation --------------------------------------------------------

    def install(self, traced: bool) -> None:
        """Wrap the layer functions; ``restore`` undoes it."""
        self.traced = traced
        wrappers = {}
        for layer, targets in LAYER_TARGETS.items():
            for modname, attr in targets:
                if not traced and (modname, attr) not in GATE_TARGETS:
                    continue
                mod = importlib.import_module(f"{self.package.__name__}.{modname}")
                fn = getattr(mod, attr)
                if fn not in wrappers:
                    wrappers[fn] = self._wrap(layer, fn)
                self._patched.append((mod, attr, fn))
                setattr(mod, attr, wrappers[fn])

    def restore(self) -> None:
        for mod, attr, fn in reversed(self._patched):
            setattr(mod, attr, fn)
        self._patched.clear()
        self.traced = False

    def _wrap(self, layer: str, fn: Callable) -> Callable:
        name = fn.__name__
        rec = self
        before: Optional[Callable] = None
        after: Optional[Callable] = None
        if name == "build_true_adjacency":
            after = self._after_build_true
        elif name == "observe":
            after = self._after_observe
        elif name == "binary_matrix_from_files":
            after = self._after_matrix_read
        elif name in ("read_edge_list", "read_outcomes"):
            before = self._before_file_read

        if name == "_replicate":

            def wrapper(*args, **kwargs):
                # _replicate(cfg, n, p, cell_index, rep): one op per replication
                return rec.call_op(f"{rec.batch}:{args[4]}", rec._spanned, layer, name, fn, args, kwargs)

        elif name == "leading_eigenpair":

            def wrapper(*args, **kwargs):
                tag = rec._eigen_tag(args, kwargs)
                with rec._lock:
                    rec.eigen_attempts += 1
                try:
                    result = rec._spanned(layer, f"{name}:{tag}", fn, args, kwargs)
                except Exception:
                    with rec._lock:
                        rec.eigen_failures += 1
                    raise
                rec._bench(rec._after_eigen, args, kwargs, result, tag)
                return result

        else:

            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args, kwargs)
                result = rec._spanned(layer, name, fn, args, kwargs)
                if after is not None:
                    rec._bench(after, args, kwargs, result)
                return result

        return wrapper

    def _spanned(self, layer, name, fn, args, kwargs):
        if not self.traced:
            return fn(*args, **kwargs)
        idx = self._open(layer, name)
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx)


def _bound(sig: inspect.Signature, args, kwargs, names):
    ba = sig.bind(*args, **kwargs)
    ba.apply_defaults()
    return tuple(ba.arguments[n] for n in names)
