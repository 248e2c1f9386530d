"""CSV interchange: edge lists and outcomes; an edge list loads as the binary Ahat."""

from __future__ import annotations

import csv
import sys
from contextlib import nullcontext
from functools import partial
from itertools import chain, compress, count, islice
from pathlib import Path
from typing import Iterable, Optional, Sequence, Tuple, Union

import numpy as np
from numpy._core._multiarray_umath import _load_from_filelike  # pinned by the tests

from .errors import DuplicateEdge, IdMismatch, InvalidSize, NonFiniteOutcome
from .graph_model import SymmetricSparseMatrix

__all__ = [
    "read_edge_list",
    "write_edge_list",
    "write_table",
    "read_outcomes",
    "binary_matrix_from_files",
]

PathLike = Union[str, Path]


def _read_table(path: PathLike, header: Sequence[str], types: Sequence[type]):
    """The rows under a CSV ``header`` line as one record array, and a line lookup.

    Header names match case-insensitively; later columns are ignored and blank
    lines skipped.  A row that does not parse raises ValueError naming the first.
    The file is read once, so a pipe works too.  numpy's chunked C reader (the
    one ``np.loadtxt`` runs on a path) parses the body straight from that text;
    it skips empty lines itself, and it stops at the last character that is not
    whitespace.  Two kinds of input take the line-list parse instead, which
    splits the body into lines, drops the whitespace-only ones and bisects for
    a bad row: a body holding a ``"`` (a quoted cell may hold a newline, which
    the C pass would read as part of the row), and a body the C pass rejects
    (a whitespace-only line between rows, or a malformed row).  There a row
    with an odd number of ``"`` is bad too: its quote is never closed.  The
    lookup ``line(k)`` gives the file line of row k, computed from the text
    only when a row is reported.
    """
    with open(path) as fh:
        text = fh.read()
    start = text.find("\n") + 1 or len(text) + 1  # the body's first character; past the end without a newline
    got = next(csv.reader([text[: start - 1]]))
    if [h.strip().lower() for h in got[: len(header)]] != list(header):
        raise ValueError(f"{path}: expected header '{','.join(header)}', got {got}")
    line = partial(_line_of, text, start)
    parse = partial(_load_from_filelike, delimiter=",", comment=None, quote='"', imaginary_unit="j",
                    usecols=list(range(len(header))), skiplines=0, max_rows=-1, converters=None,
                    dtype=np.dtype(list(zip(header, types))), encoding=None, byte_converters=False)
    if text.find('"', start) < 0:
        end = len(text)
        while end > start and text[end - 1].isspace():  # trailing blank lines need no fallback
            end -= 1
        try:
            return parse(_TextReader(text, start, end), filelike=True), line
        except ValueError:
            pass
    rows = list(filter(str.strip, text[start:].split("\n")))
    # numpy's tokenizer would carry an open quote on into the next row
    unclosed = next((k for k, row in enumerate(rows) if row.count('"') % 2), len(rows))
    lo, hi = 0, unclosed  # bisect: rows[:lo] parse, rows[lo:hi] hold a bad row
    try:
        table = parse(iter(rows[:hi]), filelike=False)
    except ValueError:
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                parse(iter(rows[lo:mid]), filelike=False)
                lo = mid
            except ValueError:
                hi = mid
        raise ValueError(f"{path}:{line(lo)}: malformed row {rows[lo]!r}") from None
    if unclosed < len(rows):
        raise ValueError(f"{path}:{line(unclosed)}: unclosed quote in row {rows[unclosed]!r}")
    return table, line


class _TextReader:
    """``read(size)`` over ``text[start:end]``, the file interface of numpy's C reader.

    ``io.StringIO`` would copy the text at 4 bytes per character first.
    """

    def __init__(self, text: str, start: int, end: int):
        self.text, self.pos, self.end = text, start, end

    def read(self, size: int) -> str:
        chunk = self.text[self.pos : min(self.pos + size, self.end)]
        self.pos += size
        return chunk


def _line_of(text: str, start: int, k: int) -> int:
    """The file line of row k: the (k + 1)-th line after the header that is not blank."""
    return next(islice(compress(count(2), map(str.strip, text[start:].split("\n"))), k, None))


# odd multiplier (2^64 / golden ratio) folding key columns into one hash
_HASH_MULT = np.uint64(0x9E3779B97F4A7C15)


def _repeats(*keys: np.ndarray) -> np.ndarray:
    """Mask of the rows whose key tuple equals that of an earlier row.

    The int64 key columns fold into one uint64 hash, h = h * _HASH_MULT + key,
    wrapping.  Equal tuples have equal hashes, so only rows whose hash occurs
    more than once can repeat: one value sort tells whether any hash does, and
    only then an index sort finds those rows.  The exact, stable compare runs
    on those candidate rows alone; a hash collision between distinct tuples
    only adds a candidate, which the compare then clears.
    """
    h = keys[0].astype(np.uint64)
    for k in keys[1:]:
        h *= _HASH_MULT
        h += k.view(np.uint64)
    s = np.sort(h)
    if not np.any(s[1:] == s[:-1]):
        return np.zeros(len(h), dtype=bool)
    by_hash = np.argsort(h)  # only now: it costs about 3x the value sort
    s = h[by_hash]
    eq = s[1:] == s[:-1]
    rep = np.zeros(len(h), dtype=bool)
    rep[1:] = eq
    rep[:-1] |= eq
    cand = np.sort(by_hash[rep])  # the rows whose hash occurs more than once, in file order
    sub = [k[cand] for k in keys]
    order = np.lexsort(sub[::-1])  # stable: equal keys keep their file order
    same = np.logical_and.reduce([k[order][1:] == k[order][:-1] for k in sub])
    out = np.zeros(len(h), dtype=bool)
    out[cand[order[1:][same]]] = True
    return out


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
    table, line = _read_table(path, ("i", "j"), (np.int64, np.int64))
    i, j = table["i"], table["j"]
    lo, hi = np.minimum(i, j), np.maximum(i, j)
    negative, loop, repeat = lo < 0, i == j, _repeats(lo, hi)
    k = _first(negative | loop | repeat)
    if k is not None:
        row = line(k)
        where = f"{path}:{row}"
        if negative[k]:
            raise ValueError(f"{where}: node ids must be nonnegative")
        if loop[k]:
            raise ValueError(f"{where}: self-loop {i[k]},{j[k]} not allowed")
        raise DuplicateEdge(f"{where}: duplicate edge {i[k]},{j[k]}", row=row)
    return lo, hi


def write_edge_list(m: SymmetricSparseMatrix, path: PathLike) -> None:
    rows, cols = m.edge_arrays()
    write_table(path, ("i", "j"), zip(rows.tolist(), cols.tolist()))


def read_outcomes(path: PathLike) -> Tuple[np.ndarray, np.ndarray]:
    """Read outcomes with header ``id,y``; ids must be unique and y finite."""
    table, line = _read_table(path, ("id", "y"), (np.int64, np.float64))
    ids, y = np.ascontiguousarray(table["id"]), np.ascontiguousarray(table["y"])
    nonfinite, repeat = ~np.isfinite(y), _repeats(ids)
    k = _first(nonfinite | repeat)
    if k is not None and nonfinite[k]:
        raise NonFiniteOutcome(f"{path}:{line(k)}: outcome {float(y[k])} is not finite")
    if k is not None:
        raise IdMismatch(f"{path}:{line(k)}: repeated outcome id {ids[k]}")
    return ids, y


def binary_matrix_from_files(edges_path: PathLike, n: Optional[int] = None) -> SymmetricSparseMatrix:
    """The observed adjacency Ahat of an edge list on nodes 0..n-1, n the largest id + 1 by default.

    Fewer than two nodes (InvalidSize), an edge endpoint at or above n
    (IdMismatch) and an n whose CSR arrays cannot be allocated (InvalidSize)
    each raise an error that names the edge file.  Nodes without an edge are
    isolated.
    """
    rows, cols = read_edge_list(edges_path)  # rows <= cols
    if n is None:
        n = int(cols.max()) + 1 if len(cols) else 0
    if n < 2:
        raise InvalidSize(f"{edges_path}: need at least two nodes")
    if len(cols) and cols.max() >= n:
        raise IdMismatch(f"{edges_path}: edge endpoint {cols.max()} is not below node count {n}")
    try:
        return SymmetricSparseMatrix.from_edges(n, rows, cols)
    except MemoryError:
        raise InvalidSize(f"{edges_path}: not enough memory for node count {n}") from None
