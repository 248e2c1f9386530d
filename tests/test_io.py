"""Edge-list, outcome, and graphon descriptor round trips."""

import json
import os
import re
import tracemalloc
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from numpy._core import _multiarray_umath

from centreg import Graphon, SymmetricSparseMatrix
from centreg import io
from centreg.errors import DuplicateEdge, IdMismatch, InvalidSize, NonFiniteOutcome
from centreg.io import (
    _HASH_MULT,
    _read_table,
    binary_matrix_from_files,
    read_edge_list,
    read_outcomes,
    write_edge_list,
)


def test_edge_list_round_trip(tmp_path):
    m = SymmetricSparseMatrix.from_edges(5, [0, 1, 3], [2, 4, 4])
    path = tmp_path / "edges.csv"
    write_edge_list(m, path)
    rows, cols = read_edge_list(path)
    back = SymmetricSparseMatrix.from_edges(5, rows, cols)
    assert np.array_equal(back.toarray(), m.toarray())


def test_edge_list_duplicate_detected(tmp_path):
    path = tmp_path / "dup.csv"
    path.write_text("i,j\n0,1\n1,2\n1,0\n")
    with pytest.raises(DuplicateEdge) as err:
        read_edge_list(path)
    assert err.value.row == 4


def test_edge_list_rejects_self_loop(tmp_path):
    path = tmp_path / "loop.csv"
    path.write_text("i,j\n0,0\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


def test_edge_list_header_required(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("a,b\n0,1\n")
    with pytest.raises(ValueError):
        read_edge_list(path)


@pytest.mark.parametrize("text,want", [("i,j", []), ("I, J,k", []), ("i,j\n", []), ("i,j\n0,1", [(0, 1)])])
def test_header_line_with_or_without_a_newline(tmp_path, text, want):
    # a file with no newline is its header alone
    path = tmp_path / "e.csv"
    path.write_text(text)
    table, _ = _read_table(path, ("i", "j"), (np.int64, np.int64))
    assert table.tolist() == want
    path.write_text(text.replace("i", "x", 1).replace("I", "x", 1))
    with pytest.raises(ValueError, match="expected header 'i,j', got "):
        _read_table(path, ("i", "j"), (np.int64, np.int64))


def test_outcomes_reader(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("id,y\n0,1.5\n2,2.5\n1,-3.0\n")
    ids, y = read_outcomes(path)
    assert list(ids) == [0, 2, 1]
    assert list(y) == [1.5, 2.5, -3.0]


def test_outcomes_repeated_id(tmp_path):
    path = tmp_path / "y.csv"
    path.write_text("id,y\n0,1\n0,2\n")
    with pytest.raises(IdMismatch):
        read_outcomes(path)


def test_binary_matrix_from_files_id_checks(tmp_path):
    edges = tmp_path / "e.csv"
    edges.write_text("i,j\n0,1\n1,2\n")
    assert binary_matrix_from_files(edges).n == 3  # the largest id + 1
    m = binary_matrix_from_files(edges, 4)  # node 3 isolated
    assert m.n == 4 and m.n_edges == 2
    with pytest.raises(IdMismatch, match=f"^{re.escape(str(edges))}: edge endpoint 2 is not below node count 2$"):
        binary_matrix_from_files(edges, 2)
    with pytest.raises(InvalidSize, match=f"^{re.escape(str(edges))}: need at least two nodes$"):
        binary_matrix_from_files(edges, 1)


def test_graphon_json_round_trip():
    for g in (Graphon.constant(0.7), Graphon.sbm([0.4, 0.6], [[0.9, 0.1], [0.1, 0.5]]), Graphon.rank_r([0.5, 0.15])):
        back = Graphon.from_json_dict(json.loads(json.dumps(g.to_json_dict())))
        assert back.kind == g.kind
        assert back == g and hash(back) == hash(g)
        u = np.linspace(0.01, 0.99, 17)
        assert np.allclose(back.evaluate(u, u[::-1]), g.evaluate(u, u[::-1]))


# ---------------------------------------------------------------------------
# one bad row per file: the error class and the file:line it names


def _edges(path):
    return read_edge_list(path)


def _outcomes(path):
    return read_outcomes(path)


@pytest.mark.parametrize(
    "read,text,error,where",
    [
        (_edges, "a,b\n0,1\n", ValueError, "f.csv: expected header 'i,j'"),
        (_edges, "i,j\n0,1\n\n  \n1,x\n", ValueError, "f.csv:5: malformed"),
        (_edges, "i,j\n0,1\n2\n", ValueError, "f.csv:3: malformed"),
        (_edges, "i,j\n0,1\n2.0,3\n", ValueError, "f.csv:3: malformed"),
        (_edges, "i,j\n0,1\n99999999999999999999,1\n", ValueError, "f.csv:3: malformed"),
        (_edges, "i,j\n0,1\n\n-1,2\n", ValueError, "f.csv:4: node ids must be nonnegative"),
        (_edges, "i,j\n0,1\n 3 , 3 \n", ValueError, "f.csv:3: self-loop 3,3"),
        (_edges, "i,j\n0,1\n1,2\n\n0,1\n", DuplicateEdge, "f.csv:5: duplicate edge 0,1"),
        (_edges, "i,j\n0,1\n1,2\n2,1\n0,1\n", DuplicateEdge, "f.csv:4: duplicate edge 2,1"),
        (_outcomes, "id,z\n0,1\n", ValueError, "f.csv: expected header 'id,y'"),
        (_outcomes, "id,y\n0,1\n1,abc\n", ValueError, "f.csv:3: malformed"),
        (_outcomes, "id,y\n0,1\n-99999999999999999999,1\n", ValueError, "f.csv:3: malformed"),
        (_outcomes, "id,y\n0,1\n\n1,nan\n", NonFiniteOutcome, "f.csv:4: outcome nan"),
        (_outcomes, "id,y\n0,1\n1,-Infinity\n", NonFiniteOutcome, "f.csv:3: outcome -inf"),
        (_outcomes, "id,y\n0,1\n1,2\n\n0,3\n", IdMismatch, "f.csv:5: repeated outcome id 0"),
    ],
)
def test_single_defect_names_its_line(tmp_path, read, text, error, where):
    path = tmp_path / "f.csv"
    path.write_text(text)
    with pytest.raises(error) as err:
        read(path)
    assert type(err.value) is error
    assert str(err.value).startswith(f"{tmp_path}/{where}")
    if error is DuplicateEdge:
        assert err.value.row == int(where.split(":")[1])


def test_first_bad_row_is_named(tmp_path):
    # the bisection over rows finds the earliest of several bad rows
    path = tmp_path / "e.csv"
    good = [f"{k},{k + 1}" for k in range(1000)]
    good[700], good[400], good[999] = "x,1", "1,y", "2"
    path.write_text("i,j\n" + "\n".join(good) + "\n")
    with pytest.raises(ValueError, match=r"e\.csv:402: malformed row '1,y'"):
        read_edge_list(path)


def test_bad_row_from_a_pipe_names_its_line():
    # the input is read once: a pipe cannot be read again for the line number
    r, w = os.pipe()
    os.write(w, b"i,j\n0,1\n\n \n1,x\n")
    os.close(w)
    try:
        with pytest.raises(ValueError, match=rf"^/dev/fd/{r}:5: malformed row '1,x'$"):
            read_edge_list(f"/dev/fd/{r}")
    finally:
        os.close(r)


def test_quoted_header_and_cells_and_extra_columns(tmp_path):
    path = tmp_path / "e.csv"
    path.write_text('"I","j" ,note\n"0",1,x\r\n\t\n 5 ,2,y\n')
    rows, cols = read_edge_list(path)
    assert rows.tolist() == [0, 2] and cols.tolist() == [1, 5]


# ---------------------------------------------------------------------------
# round trips through files with blank lines, padding and reversed rows


def _scramble(text, data, reverse):
    """Pad every data row, reverse the chosen ones, and put blank lines between rows."""
    lines = text.splitlines()
    out = [lines[0]]
    for line in lines[1:]:
        out.extend(data.draw(st.lists(st.sampled_from(["", " ", "\t", "  "]), max_size=2)))
        cells = line.split(",")
        if reverse and data.draw(st.booleans()):
            cells = cells[::-1]
        pad = data.draw(st.sampled_from(["", " ", "  "]))
        out.append(",".join(pad + c + pad for c in cells))
    out.extend(data.draw(st.lists(st.sampled_from(["", " "]), max_size=2)))
    return "\n".join(out) + "\n"


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 25), data=st.data())
def test_edge_list_round_trip_property(tmp_path_factory, n, data):
    pairs = data.draw(st.sets(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                              .filter(lambda e: e[0] != e[1]), max_size=40))
    rows = [min(e) for e in pairs]
    cols = [max(e) for e in pairs]
    m = SymmetricSparseMatrix.from_edges(n, rows, cols)
    path = tmp_path_factory.mktemp("edges") / "e.csv"
    write_edge_list(m, path)
    path.write_text(_scramble(path.read_text(), data, reverse=True))
    got = read_edge_list(path)
    want = m.edge_arrays()
    for g, w in zip(got, want):
        assert g.dtype == np.int64
        assert np.array_equal(g, w)


def _edge_list_by_loop(lines):
    """The row-by-row reader: (min, max) per row, or the line of the first repeat."""
    seen, out = set(), []
    for lineno, line in enumerate(lines, start=2):
        if not line.strip():
            continue
        i, j = (int(c) for c in line.split(","))
        key = (min(i, j), max(i, j))
        if key in seen:
            return lineno
        seen.add(key)
        out.append(key)
    return out


# small ids repeat often; ids near and up to 2^63 - 1 exercise the whole int64 range
_ID = st.one_of(st.integers(0, 6), st.integers(2**63 - 4, 2**63 - 1), st.integers(0, 2**63 - 1))


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.tuples(_ID, _ID).filter(lambda e: e[0] != e[1]),
                          st.lists(st.sampled_from(["", " ", "\t"]), max_size=2)), max_size=30))
def test_edge_list_reader_matches_row_loop(tmp_path_factory, rows):
    # repeats in either orientation, with blank lines between rows: the same
    # first repeated line as a row-by-row reader
    lines = [line for (i, j), blanks in rows for line in (*blanks, f"{i},{j}")]
    path = tmp_path_factory.mktemp("edges") / "e.csv"
    path.write_text("i,j\n" + "".join(line + "\n" for line in lines))
    want = _edge_list_by_loop(lines)
    if isinstance(want, int):
        with pytest.raises(DuplicateEdge) as err:
            read_edge_list(path)
        assert err.value.row == want
    else:
        rows, cols = read_edge_list(path)
        assert list(zip(rows.tolist(), cols.tolist())) == want


def test_edge_list_hash_collision_is_not_a_repeat(tmp_path):
    # (0, b) and (1, b - C mod 2^64) fold to the same hash b; only the exact
    # compare tells them apart, and it still finds the true repeat after them
    b = 12345
    b2 = (b - int(_HASH_MULT)) % 2**64
    assert 0 < b2 < 2**63
    path = tmp_path / "e.csv"
    path.write_text(f"i,j\n0,{b}\n1,{b2}\n")
    rows, cols = read_edge_list(path)
    assert rows.tolist() == [0, 1] and cols.tolist() == [b, b2]
    path.write_text(f"i,j\n0,{b}\n1,{b2}\n\n{b2},1\n")
    with pytest.raises(DuplicateEdge) as err:
        read_edge_list(path)
    assert err.value.row == 5


@settings(max_examples=60, deadline=None)
@given(data=st.data())
def test_outcomes_round_trip_property(tmp_path_factory, data):
    ids = data.draw(st.lists(st.integers(-(2**63), 2**63 - 1), unique=True, max_size=30))
    ys = data.draw(st.lists(st.floats(allow_nan=False, allow_infinity=False),
                            min_size=len(ids), max_size=len(ids)))
    path = tmp_path_factory.mktemp("outcomes") / "y.csv"
    path.write_text("id,y\n" + "".join(f"{i},{y!r}\n" for i, y in zip(ids, ys)))
    path.write_text(_scramble(path.read_text(), data, reverse=False))
    got_ids, got_y = read_outcomes(path)
    assert got_ids.dtype == np.int64 and got_y.dtype == np.float64
    assert got_ids.tolist() == ids
    assert np.array_equal(got_y, np.asarray(ys, dtype=np.float64))


# ---------------------------------------------------------------------------
# the C pass over the text and the line-list parse


def _line_list_table(path, header, types):
    """The line-list parse alone: np.loadtxt on the lines that are not blank,
    and their file lines, or the message naming the first row that does not
    parse (found by bisection, as the reader does) or, failing that, the
    first row with an unclosed quote (an odd number of '"')."""
    head, *body = path.read_text().split("\n")
    lines = [(k, line) for k, line in enumerate(body, start=2) if line.strip()]
    rows = [line for _, line in lines]
    dtype = np.dtype(list(zip(header, types)))
    load = partial(np.loadtxt, dtype=dtype, delimiter=",", quotechar='"', comments=None,
                   usecols=range(len(header)), ndmin=1)
    unclosed = next((k for k, row in enumerate(rows) if row.count('"') % 2), len(rows))
    try:
        table = load(rows[:unclosed]) if unclosed else np.empty(0, dtype=dtype)
        if unclosed < len(rows):
            return f"{path}:{lines[unclosed][0]}: unclosed quote in row {rows[unclosed]!r}", None
        return table, [k for k, _ in lines]
    except ValueError:
        lo, hi = 0, unclosed
        while hi - lo > 1:
            mid = (lo + hi) // 2
            try:
                load(rows[lo:mid])
                lo = mid
            except ValueError:
                hi = mid
        return f"{path}:{lines[lo][0]}: malformed row {rows[lo]!r}", None


_CELL = st.one_of(
    st.integers(-(2**63), 2**63 - 1).map(str),
    st.sampled_from(["0", "7", "-3", "1.5", "nan", "-inf", "1e3", "x", "", "99999999999999999999",
                     '"4"', '"1,2"', '"5', "\x00"]),
)
_PAD = st.sampled_from(["", " ", "\t", "  "])
_ROW = st.builds(lambda cells, pad: ",".join(pad + c + pad for c in cells), st.lists(_CELL, min_size=1, max_size=4), _PAD)
_LINE = st.one_of(_ROW, _ROW, _ROW, st.sampled_from(["", " ", "\t", "  "]))


@settings(max_examples=300, deadline=None)
@given(lines=st.lists(_LINE, max_size=12), eol=st.sampled_from(["\n", "\r\n"]), final=st.booleans(),
       floats=st.booleans(), extra=st.booleans())
@example(lines=["0,1", "", "2,3"], eol="\n", final=True, floats=False, extra=False)  # the C pass
@example(lines=["0,1", " ", "2,3"], eol="\n", final=True, floats=False, extra=False)  # whitespace-only line
@example(lines=['"0",1', "2,x"], eol="\r\n", final=False, floats=True, extra=True)  # quoted cell, bad row
@example(lines=["0,1", "", "x,3", "4"], eol="\n", final=True, floats=False, extra=False)  # first bad row
def test_c_pass_matches_line_list_parse(tmp_path_factory, lines, eol, final, floats, extra):
    # the same table, and the same file line for every row, or the same message
    header, types = (("id", "y"), (np.int64, np.float64)) if floats else (("i", "j"), (np.int64, np.int64))
    path = tmp_path_factory.mktemp("table") / "t.csv"
    text = eol.join([",".join(header) + (",note" if extra else ""), *lines]) + (eol if final else "")
    path.write_bytes(text.encode())
    want, want_lines = _line_list_table(path, header, types)
    try:
        got, line = _read_table(path, header, types)
    except ValueError as err:
        assert str(err) == want
        return
    assert not isinstance(want, str), want
    assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    # an unclosed quote joins the next lines into its cell, so rows can be fewer than lines
    assert [line(k) for k in range(len(got))] == want_lines[: len(got)]


def test_c_reader_is_pinned_and_serves_plain_bodies(tmp_path, monkeypatch):
    # _read_table runs numpy's private chunked reader on the text; a plain body
    # takes one C pass, a quoted one the line list, a rejected one both
    assert io._load_from_filelike is _multiarray_umath._load_from_filelike
    calls = []

    def spy(data, **kwargs):
        calls.append(kwargs["filelike"])
        return _multiarray_umath._load_from_filelike(data, **kwargs)

    monkeypatch.setattr(io, "_load_from_filelike", spy)
    path = tmp_path / "e.csv"
    for text, taken, want in [
        ("i,j\n0,1\n\n2,3\n", [True], [(0, 1), (2, 3)]),
        ('i,j\n"0",1\n2,3\n', [False], [(0, 1), (2, 3)]),
        ("i,j\n0,1\n \n2,3\n", [True, False], [(0, 1), (2, 3)]),
        ("i,j\n", [True], []),
        ("i,j\n0,1\n2,3\n \n\t\n", [True], [(0, 1), (2, 3)]),  # trailing whitespace-only lines
    ]:
        calls.clear()
        path.write_text(text)
        table, _ = _read_table(path, ("i", "j"), (np.int64, np.int64))
        assert calls == taken and table.tolist() == want


def test_edge_list_read_memory(tmp_path):
    # the regress workload's shape, 250 000 distinct edges on 50 000 nodes:
    # the text is read once and parsed in place, with no list of its lines
    n, m = 50_000, 250_000
    rng = np.random.default_rng(12)
    i, j = rng.integers(0, n, 2 * m), rng.integers(0, n, 2 * m)
    keys = np.unique((np.minimum(i, j) * n + np.maximum(i, j))[i != j])
    keys = rng.permutation(keys)[:m]
    path = tmp_path / "e.csv"
    path.write_text("i,j\n" + "".join(f"{a},{b}\n" for a, b in zip((keys // n).tolist(), (keys % n).tolist())))
    tracemalloc.start()
    try:
        lo, hi = read_edge_list(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(lo) == m
    assert peak < 18e6, peak
