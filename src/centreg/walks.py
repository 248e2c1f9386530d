"""Walk-counting combinatorics behind the de-biasing coefficient tables.

Three layers:

1. ``count_even_path_walks`` enumerates the walk counts that describe what a
   run of noise factors contributes in expectation: length-t walks, every
   edge traversed at least twice, whose deduplicated edge set is a simple
   path, binned by the number of unique edges.

2. ``derive_g`` builds, by recursion over even noise-run patterns, the exact
   integer polynomial g(t) in the observable moments iota' Ahat^r iota that
   estimates the unobservable iota' A^t iota.

3. ``derive_b`` assembles the diffusion de-biasing coefficients b_T(t, delta)
   from the same machinery, and ``reference_g`` / ``reference_b`` expose the
   published tables for verification.

All coefficient arithmetic is exact (Python ints).
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from typing import Dict, Iterable, Tuple

from . import _tables
from .errors import BudgetExceeded, OddLength, Unsupported

__all__ = [
    "WalkCountTable",
    "GPolynomial",
    "BiasPolynomial",
    "count_even_path_walks",
    "count_even_path_walks_isomorphism",
    "derive_g",
    "derive_b",
    "reference_g",
    "reference_b",
    "evaluate_g",
    "evaluate_b",
    "WALK_LENGTH_CAP",
    "DERIVE_B_CAP",
]

WALK_LENGTH_CAP = 14
DERIVE_B_CAP = 5

_derive_lock = threading.Lock()


@dataclass(frozen=True)
class WalkCountTable:
    """counts[s] = number of admissible length-t walks with s unique edges."""

    t: int
    counts: Dict[int, int]


@dataclass(frozen=True)
class GPolynomial:
    """g(t) = sum_r coeffs[r] * iota' Ahat^r iota, estimating iota' A^t iota."""

    t: int
    coeffs: Dict[int, int]


@dataclass(frozen=True)
class BiasPolynomial:
    """coeffs[(t, s)] = integer coefficient of delta^s * iota' Ahat^t iota."""

    T: int
    coeffs: Dict[Tuple[int, int], int]


# ---------------------------------------------------------------------------
# walk enumeration


def count_even_path_walks(t: int) -> WalkCountTable:
    """Enumerate admissible walks in canonical first-visit labeling.

    A prefix is abandoned as soon as its deduplicated edge set stops being a
    sub-path (degree > 2 or a cycle) or the remaining steps cannot lift every
    edge multiplicity to 2.
    """
    if t % 2 != 0:
        raise OddLength(f"no all-even-multiplicity walk has odd length {t}")
    if not 2 <= t <= WALK_LENGTH_CAP:
        raise BudgetExceeded(f"walk length {t} outside the enumeration budget [2, {WALK_LENGTH_CAP}]")
    return WalkCountTable(t=t, counts=dict(_walk_counts(t)))


@lru_cache(maxsize=None)
def _walk_counts(t: int) -> Tuple[Tuple[int, int], ...]:
    counts: Dict[int, int] = {}

    def step(cur: int, maxlab: int, mult: Dict[Tuple[int, int], int], deg: Dict[int, int], left: int):
        if left == 0:
            if all(m >= 2 for m in mult.values()):
                s = len(mult)
                counts[s] = counts.get(s, 0) + 1
            return
        deficit = sum(1 for m in mult.values() if m == 1)
        if deficit > left:
            return
        for nxt in range(maxlab + 2):
            if nxt == cur:
                continue
            e = (cur, nxt) if cur < nxt else (nxt, cur)
            if e in mult:
                mult[e] += 1
                step(nxt, maxlab, mult, deg, left - 1)
                mult[e] -= 1
                continue
            # new edge: a visited target always has degree >= 1, so an edge back
            # to any visited vertex closes a cycle; the current endpoint may not
            # exceed path degree 2
            if nxt <= maxlab:
                continue
            du = deg.get(cur, 0)
            if du >= 2:
                continue
            mult[e] = 1
            deg[cur] = du + 1
            deg[nxt] = 1
            step(nxt, nxt, mult, deg, left - 1)
            del mult[e]
            del deg[nxt]
            if du == 0:
                del deg[cur]
            else:
                deg[cur] = du

    step(0, 0, {}, {}, t)
    return tuple(sorted(counts.items()))


def count_even_path_walks_isomorphism(t: int) -> WalkCountTable:
    """Independent cross-check enumerator.

    Generates every walk over a fixed label pool without canonicality
    constraints, reduces each to its relabeling class, and filters the
    classes by brute multigraph inspection.  Exponentially slower than the
    canonical enumerator; intended for small t only.
    """
    if t % 2 != 0:
        raise OddLength(f"no all-even-multiplicity walk has odd length {t}")
    if not 2 <= t <= 8:
        raise BudgetExceeded("isomorphism enumerator capped at t <= 8")
    classes = set()
    labels = range(t + 1)
    for tail in product(labels, repeat=t):
        walk = (0,) + tail
        ok = all(walk[i] != walk[i + 1] for i in range(t))
        if not ok:
            continue
        classes.add(_first_visit_form(walk))
    counts: Dict[int, int] = {}
    for walk in classes:
        mult: Dict[Tuple[int, int], int] = {}
        for i in range(t):
            e = tuple(sorted((walk[i], walk[i + 1])))
            mult[e] = mult.get(e, 0) + 1
        if any(m < 2 for m in mult.values()):
            continue
        deg: Dict[int, int] = {}
        for a, b in mult:
            deg[a] = deg.get(a, 0) + 1
            deg[b] = deg.get(b, 0) + 1
        if len(deg) != len(mult) + 1 or max(deg.values()) > 2:
            continue
        s = len(mult)
        counts[s] = counts.get(s, 0) + 1
    return WalkCountTable(t=t, counts=counts)


def _first_visit_form(walk: Iterable[int]) -> Tuple[int, ...]:
    relabel: Dict[int, int] = {}
    out = []
    for v in walk:
        if v not in relabel:
            relabel[v] = len(relabel)
        out.append(relabel[v])
    return tuple(out)


# ---------------------------------------------------------------------------
# pattern machinery shared by derive_g / derive_b


def _blocks(pattern: Tuple[int, ...]):
    """Maximal runs of noise factors as (start, end) 1-based inclusive."""
    out = []
    start = None
    for i, x in enumerate(pattern, 1):
        if x and start is None:
            start = i
        elif not x and start is not None:
            out.append((start, i - 1))
            start = None
    if start is not None:
        out.append((start, len(pattern)))
    return out


def _even_patterns(length: int):
    """Patterns over {A: 0, noise: 1} with >= 1 noise and all runs even."""
    for pattern in product((0, 1), repeat=length):
        if not any(pattern):
            continue
        blocks = _blocks(pattern)
        if all((b - a + 1) % 2 == 0 for a, b in blocks):
            yield pattern, blocks


def _poly_mul(p: Dict[int, int], q: Dict[int, int]) -> Dict[int, int]:
    out: Dict[int, int] = {}
    for e1, c1 in p.items():
        for e2, c2 in q.items():
            out[e1 + e2] = out.get(e1 + e2, 0) + c1 * c2
    return out


def _pattern_power_poly(length: int, blocks) -> Dict[int, int]:
    """Polynomial (in powers of the true adjacency) contributed by a pattern."""
    tau = sum(b - a + 1 for a, b in blocks)
    poly = {length - tau: 1}
    for a, b in blocks:
        poly = _poly_mul(poly, dict(_walk_counts(b - a + 1)))
    return poly


# ---------------------------------------------------------------------------
# g(t)


def derive_g(t: int) -> GPolynomial:
    """Derive g(t) from first principles.

    Recursion: every even noise pattern inside the expansion of
    iota' Ahat^t iota contributes a product of per-run walk polynomials in
    powers of the true adjacency; substituting previously derived g(k) for
    each power and subtracting from iota' Ahat^t iota leaves an estimator
    of iota' A^t iota with exact integer coefficients.  A run is at most t
    long, so t <= WALK_LENGTH_CAP bounds every walk count it needs.
    """
    if t < 1:
        raise BudgetExceeded(f"g(t) needs t >= 1, got {t}")
    if t > WALK_LENGTH_CAP:
        raise BudgetExceeded(f"g({t}) exceeds the derivation budget cap {WALK_LENGTH_CAP}")
    with _derive_lock:
        coeffs = _derive_g_cached(t)
    return GPolynomial(t=t, coeffs=dict(coeffs))


@lru_cache(maxsize=None)
def _derive_g_cached(t: int) -> Tuple[Tuple[int, int], ...]:
    if t == 1:
        return ((1, 1),)
    correction: Dict[int, int] = {}
    for pattern, blocks in _even_patterns(t):
        for power, c in _pattern_power_poly(t, blocks).items():
            correction[power] = correction.get(power, 0) + c
    coeffs = {t: 1}
    for power, c in correction.items():
        for r, gr in _derive_g_cached(power):
            coeffs[r] = coeffs.get(r, 0) - c * gr
    return tuple(sorted((r, c) for r, c in coeffs.items() if c))


# ---------------------------------------------------------------------------
# b_T(t, delta)


def derive_b(T: int) -> BiasPolynomial:
    """Derive the diffusion de-biasing coefficients for horizon T.

    For every split (s, t) in [1, T]^2 the expansion of
    Ahat^s (Ahat^t - A^t) contributes the even patterns of length s + t
    whose noise runs touch the trailing-t window.  A run that overlaps the
    window in exactly one slot disqualifies its pattern once s >= 3 and
    t >= min(runlength - 1, 3); this suffix-overlap convention is what
    reproduces the published tables (see tests against ``reference_b``).
    Each admissible pattern contributes, via the per-run walk polynomials
    and the g substitution, integer coefficients on delta^(s+t) times the
    observable moments.  T <= DERIVE_B_CAP keeps patterns, and so runs,
    within 2T <= WALK_LENGTH_CAP.
    """
    if T < 1:
        raise BudgetExceeded(f"derive_b needs T >= 1, got {T}")
    if T > DERIVE_B_CAP:
        raise BudgetExceeded(f"derive_b({T}) exceeds the derivation budget cap {DERIVE_B_CAP}")
    acc: Dict[Tuple[int, int], int] = {}
    for s in range(1, T + 1):
        for t in range(1, T + 1):
            length = s + t
            for pattern, blocks in _even_patterns(length):
                if not _admissible(blocks, s, t):
                    continue
                for power, c in _pattern_power_poly(length, blocks).items():
                    for r, gr in _derive_g_cached(power):
                        key = (r, length)
                        acc[key] = acc.get(key, 0) + c * gr
    return BiasPolynomial(T=T, coeffs={k: v for k, v in sorted(acc.items()) if v})


def _admissible(blocks, s: int, t: int) -> bool:
    """Suffix-window rule for a pattern of length s + t split after slot s."""
    touches = False
    for a, b in blocks:
        overlap = b - max(a - 1, s)  # slots of [a, b] inside [s+1, s+t]
        if overlap >= 1:
            touches = True
        if overlap == 1 and s >= 3 and t >= min(b - a, 3):
            return False
    return touches


# ---------------------------------------------------------------------------
# reference tables and evaluation


def reference_g(t: int) -> GPolynomial:
    """Published g_r(t) coefficients, t <= 20."""
    if t not in _tables.G_TABLE:
        raise Unsupported(f"reference g table covers t in [1, 20], got {t}")
    return GPolynomial(t=t, coeffs={r + 1: c for r, c in enumerate(_tables.G_TABLE[t]) if c})


def reference_b(T: int) -> BiasPolynomial:
    """Published b_T(t, delta) coefficients, T <= 10."""
    if T not in _tables.B_ROWS:
        raise Unsupported(f"reference b table covers T in [1, 10], got {T}")
    return BiasPolynomial(T=T, coeffs=_tables.b_coefficients(T))


def evaluate_g(g: GPolynomial, moments) -> float:
    """Evaluate g at observed moments; moments[r] = iota' Ahat^r iota."""
    return float(sum(c * moments[r] for r, c in g.coeffs.items()))


def evaluate_b(b: BiasPolynomial, delta: float, moments) -> float:
    """Bias numerator sum_t b_T(t, delta) * iota' Ahat^t iota."""
    total = 0.0
    for (t, s), c in b.coeffs.items():
        total += c * delta**s * moments[t]
    return float(total)
