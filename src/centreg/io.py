"""CSV and JSON interchange: edge lists, weighted matrices, outcomes, graphons."""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path
from typing import Sequence, Tuple, Union

import numpy as np

from .errors import DuplicateEdge, IdMismatch, InvalidGraphon, NonFiniteOutcome
from .graph_model import Graphon, SymmetricBinaryMatrix, SymmetricWeightedMatrix

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "read_weighted_matrix",
    "write_weighted_matrix",
    "read_outcomes",
    "binary_matrix_from_files",
    "graphon_from_json",
    "graphon_to_json",
]

PathLike = Union[str, Path]


def read_edge_list(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read an undirected edge list with header ``i,j`` and 0-based ids.

    Each edge must be listed exactly once in either orientation; a repeat
    (in any orientation) raises DuplicateEdge with the offending row number.
    """
    seen = set()
    rows, cols = [], []
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["i", "j"]:
            raise ValueError(f"{path}: expected header 'i,j', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                i, j = int(row[0]), int(row[1])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed edge row {row!r}") from exc
            if i < 0 or j < 0:
                raise ValueError(f"{path}:{lineno}: node ids must be nonnegative")
            if i == j:
                raise ValueError(f"{path}:{lineno}: self-loop {i},{j} not allowed")
            key = (min(i, j), max(i, j))
            if key in seen:
                raise DuplicateEdge(f"{path}:{lineno}: duplicate edge {i},{j}", row=lineno)
            seen.add(key)
            rows.append(key[0])
            cols.append(key[1])
    return np.asarray(rows, dtype=np.int64), np.asarray(cols, dtype=np.int64)


def write_edge_list(m: SymmetricBinaryMatrix, path: PathLike) -> None:
    rows, cols = m.edge_arrays()
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j"])
        for i, j in zip(rows, cols):
            writer.writerow([int(i), int(j)])


def read_weighted_matrix(path: PathLike, n: int) -> SymmetricWeightedMatrix:
    """Read a weighted adjacency from rows ``i,j,w``."""
    out = np.zeros((n, n))
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:3]] != ["i", "j", "w"]:
            raise ValueError(f"{path}: expected header 'i,j,w', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                i, j, w = int(row[0]), int(row[1]), float(row[2])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed weighted row {row!r}") from exc
            if not (0 <= i < n and 0 <= j < n):
                raise IdMismatch(f"{path}:{lineno}: id outside [0, {n})")
            out[i, j] = w
            out[j, i] = w
    np.fill_diagonal(out, 0.0)
    return SymmetricWeightedMatrix(out)


def write_weighted_matrix(m: SymmetricWeightedMatrix, path: PathLike) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["i", "j", "w"])
        n = m.n
        for i in range(n):
            for j in range(i + 1, n):
                w = m.entries[i, j]
                if w != 0.0:
                    writer.writerow([i, j, repr(float(w))])


def read_outcomes(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read outcomes with header ``id,y``; ids must be unique and y finite."""
    ids, ys = [], []
    seen = set()
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or [h.strip().lower() for h in header[:2]] != ["id", "y"]:
            raise ValueError(f"{path}: expected header 'id,y', got {header}")
        for lineno, row in enumerate(reader, start=2):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            try:
                i, y = int(row[0]), float(row[1])
            except (IndexError, ValueError) as exc:
                raise ValueError(f"{path}:{lineno}: malformed outcome row {row!r}") from exc
            if not math.isfinite(y):
                raise NonFiniteOutcome(f"{path}:{lineno}: outcome {row[1].strip()!r} is not finite")
            if i in seen:
                raise IdMismatch(f"{path}:{lineno}: repeated outcome id {i}")
            seen.add(i)
            ids.append(i)
            ys.append(y)
    return np.asarray(ids, dtype=np.int64), np.asarray(ys, dtype=np.float64)


def binary_matrix_from_files(
    edges_path: PathLike, outcome_ids: Sequence[int]
) -> SymmetricBinaryMatrix:
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
    rows, cols = read_edge_list(edges_path)
    if len(rows) and (rows.max() >= n or cols.max() >= n):
        bad = max(int(rows.max()), int(cols.max()))
        raise IdMismatch(f"edge endpoint {bad} has no outcome row (n={n})")
    return SymmetricBinaryMatrix.from_edges(n, rows, cols)


def graphon_from_json(source: Union[str, dict, PathLike]) -> Graphon:
    """Accepts a JSON string, a parsed dict, or a path to a JSON file."""
    if isinstance(source, dict):
        return Graphon.from_json_dict(source)
    text = str(source)
    if text.strip().startswith("{"):
        return Graphon.from_json_dict(json.loads(text))
    with open(source) as fh:
        return Graphon.from_json_dict(json.load(fh))


def graphon_to_json(g: Graphon) -> str:
    try:
        return json.dumps(g.to_json_dict())
    except InvalidGraphon:
        raise
