"""CSV and JSON interchange: edge lists, weighted matrices, outcomes, graphons."""

from __future__ import annotations

import csv
import json
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain, compress
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np

from .errors import DuplicateEdge, IdMismatch, NonFiniteOutcome
from .graph_model import Graphon, SymmetricBinaryMatrix, SymmetricWeightedMatrix

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_weighted_matrix",
    "write_weighted_matrix",
    "write_table",
    "read_outcomes",
    "binary_matrix_from_files",
    "graphon_from_json",
    "graphon_to_json",
]

PathLike = Union[str, Path]


def _read_table(path: PathLike, header: Sequence[str], types: Sequence[type]):
    """The rows under a CSV ``header`` line as one record array, and their line numbers.

    Header names match case-insensitively; later columns are ignored and blank
    lines skipped.  A row that does not parse raises ValueError naming the first.
    """
    with open(path) as fh:
        head, *body = fh.read().split("\n")
    got = next(csv.reader([head]))
    if [h.strip().lower() for h in got[: len(header)]] != list(header):
        raise ValueError(f"{path}: expected header '{','.join(header)}', got {got}")
    kept = np.fromiter(map(bool, map(str.strip, body)), dtype=bool, count=len(body))
    rows, lineno = list(compress(body, kept)), np.flatnonzero(kept) + 2
    dtype = np.dtype(list(zip(header, types)))
    parse = partial(np.loadtxt, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                    usecols=range(len(header)), ndmin=1)
    try:
        return (parse(rows) if rows else np.empty(0, dtype=dtype)), lineno
    except ValueError:
        lo, hi = 0, len(rows)  # bisect: rows[:lo] parse, rows[lo:hi] hold a bad row
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse(rows[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        raise ValueError(f"{path}:{lineno[lo]}: malformed row {rows[lo]!r}") from None


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key tuple equals that of an earlier row."""
    order = np.lexsort(keys[::-1])  # stable: equal keys keep their file order
    same = np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in keys])
    return np.bincount(order[1:][same], minlength=len(order)) > 0


def _first(mask: np.ndarray) -> Optional[int]:
    return int(np.argmax(mask)) if mask.any() else None


def write_table(path: Optional[PathLike], header: Sequence[str], rows: Iterable) -> None:
    """Write a CSV table, header line first, to ``path`` or, when it is None, to stdout."""
    with open(path, "w", newline="") if path else nullcontext(sys.stdout) as fh:
        csv.writer(fh).writerows(chain([header], rows))


def read_edge_list(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read an undirected edge list with header ``i,j`` and 0-based ids.

    Each edge must be listed exactly once in either orientation; a repeat
    (in any orientation) raises DuplicateEdge with the offending row number.
    Returns the (min, max) endpoints of each row in file order.
    """
    table, lineno = _read_table(path, ("i", "j"), (np.int64, np.int64))
    i, j = table["i"], table["j"]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    negative, loop, repeat = lo < 0, i == j, _repeats(lo, hi)
    k = _first(negative | loop | repeat)
    if k is not None:
        where = f"{path}:{lineno[k]}"
        if negative[k]:
            raise ValueError(f"{where}: node ids must be nonnegative")
        if loop[k]:
            raise ValueError(f"{where}: self-loop {i[k]},{j[k]} not allowed")
        raise DuplicateEdge(f"{where}: duplicate edge {i[k]},{j[k]}", row=int(lineno[k]))
    return lo, hi


def write_edge_list(m: SymmetricBinaryMatrix, path: PathLike) -> None:
    rows, cols = m.edge_arrays()
    write_table(path, ("i", "j"), zip(rows.tolist(), cols.tolist()))


def read_weighted_matrix(path: PathLike, n: int) -> SymmetricWeightedMatrix:
    """Read a weighted adjacency from rows ``i,j,w``; the last row for a pair wins."""
    table, lineno = _read_table(path, ("i", "j", "w"), (np.int64, np.int64, np.float64))
    i, j, w = table["i"], table["j"], table["w"]
    k = _first((i < 0) | (i >= n) | (j < 0) | (j >= n))
    if k is not None:
        raise IdMismatch(f"{path}:{lineno[k]}: id outside [0, {n})")
    last = ~_repeats(np.minimum(i, j)[::-1], np.maximum(i, j)[::-1])[::-1]
    out = np.zeros((n, n))
    out[i[last], j[last]] = out[j[last], i[last]] = w[last]
    np.fill_diagonal(out, 0.0)
    return SymmetricWeightedMatrix(out)


def write_weighted_matrix(m: SymmetricWeightedMatrix, path: PathLike) -> None:
    i, j = np.nonzero(np.triu(m.entries, 1))
    w = map(repr, m.entries[i, j].tolist())
    write_table(path, ("i", "j", "w"), zip(i.tolist(), j.tolist(), w))


def read_outcomes(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read outcomes with header ``id,y``; ids must be unique and y finite."""
    table, lineno = _read_table(path, ("id", "y"), (np.int64, np.float64))
    ids, y = np.ascontiguousarray(table["id"]), np.ascontiguousarray(table["y"])
    nonfinite, repeat = ~np.isfinite(y), _repeats(ids)
    k = _first(nonfinite | repeat)
    if k is not None and nonfinite[k]:
        raise NonFiniteOutcome(f"{path}:{lineno[k]}: outcome {float(y[k])} is not finite")
    if k is not None:
        raise IdMismatch(f"{path}:{lineno[k]}: repeated outcome id {ids[k]}")
    return ids, y


def binary_matrix_from_files(edges_path: PathLike, outcome_ids: Sequence[int]) -> SymmetricBinaryMatrix:
    """Assemble the observed adjacency; outcome ids define the node set.

    Ids must be exactly 0..n-1 (0-based, contiguous).  Every edge endpoint
    must be listed among the outcomes; isolated nodes are allowed as long
    as they carry an outcome row.
    """
    ids = np.sort(np.asarray(outcome_ids, dtype=np.int64))
    n = len(ids)
    if n < 2:
        raise IdMismatch("need at least two outcome rows")
    if not np.array_equal(ids, np.arange(n)):
        raise IdMismatch("outcome ids must be exactly 0..n-1")
    rows, cols = read_edge_list(edges_path)  # rows <= cols
    if len(cols) and cols.max() >= n:
        raise IdMismatch(f"edge endpoint {cols.max()} has no outcome row (n={n})")
    return SymmetricBinaryMatrix.from_edges(n, rows, cols)


def graphon_from_json(source: Union[str, dict, PathLike]) -> Graphon:
    """Accepts a JSON string, a parsed dict, or a path to a JSON file."""
    if not isinstance(source, dict):
        text = str(source)
        source = json.loads(text if text.strip().startswith("{") else Path(source).read_text())
    return Graphon.from_json_dict(source)


def graphon_to_json(g: Graphon) -> str:
    return json.dumps(g.to_json_dict())
