"""The routes of ``parse_response_file`` against the per-cell parser
(``parse_response_rows``) they stand in for: the whole-file route for
canonical bytes, and the per-record route for every other file and for all
``str`` input, which converts canonical records in bulk and parses only
the others cell by cell.

Hypothesis starts from canonical files and applies the near misses a real
export produces.  Whatever the bytes, every route must return the same
ResponseSet and ValidationReport, or raise the same DataError, under both
missing-row policies.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
from unittest import mock

import pytest
from conftest import ALLOCATIONS, examples
from hypothesis import given, settings
from hypothesis import strategies as st

from satmetric import ingest
from satmetric.errors import DataError
from satmetric.ingest import (
    IMPORTANCE_COLUMNS,
    MissingPolicy,
    ResponseKind,
    parse_response_file,
    parse_response_rows,
)
from satmetric.instrument import build_instrument


def _instrument(k: int, lo: int, hi: int):
    return build_instrument({
        "scale": {"min": lo, "max": hi},
        "items": [{"id": i, "prompt": f"q{i}", "dimension": "empathy", "kano": "must_be"}
                  for i in range(1, k + 1)],
    })


@st.composite
def canonical_files(draw):
    """(instrument, kind, table, scale max, line end, trailing newline);
    ``table`` is the header followed by the data rows, as lists of cells."""
    kind = draw(st.sampled_from(list(ResponseKind)))
    if kind.is_likert:
        lo = draw(st.integers(0, 3))
        hi = draw(st.sampled_from([lo + 1, 5, 7, 10, 12]).filter(lambda h: h > lo))
        k = draw(st.integers(1, 8))
        row = st.lists(st.integers(lo, hi), min_size=k, max_size=k)
        header = ["respondent_id"] + [f"q{i}" for i in range(1, k + 1)]
    else:
        lo, hi, k = 1, 5, 3
        row = ALLOCATIONS
        header = ["respondent_id", *IMPORTANCE_COLUMNS]
    n = draw(st.integers(1, 30))
    ids = draw(st.lists(st.text(alphabet="abcXYZ0129_-.#+!~", min_size=1, max_size=6),
                        min_size=n, max_size=n, unique=True))
    rows = [[respondent_id, *map(str, draw(row))] for respondent_id in ids]
    eol = draw(st.sampled_from(["\n", "\r\n"]))
    return _instrument(k, lo, hi), kind, [header, *rows], hi, eol, draw(st.booleans())


#: Cell spellings that leave the canonical subset (most are still accepted
#: by the row-by-row parser) or break the row.
CELL_MUTATIONS = {
    "quote": lambda cell, hi: f'"{cell}"',
    "pad_space": lambda cell, hi: f" {cell} ",
    "pad_tab": lambda cell, hi: f"{cell}\t",
    "plus_sign": lambda cell, hi: f"+{cell}",
    "minus_sign": lambda cell, hi: f"-{cell}",
    "leading_zeros": lambda cell, hi: f"00{cell}",
    "many_leading_zeros": lambda cell, hi: "0" * 20 + cell,
    "out_of_range": lambda cell, hi: str(hi + 1),
    "huge": lambda cell, hi: "9" * 25,
    "empty": lambda cell, hi: "",
    "decimal": lambda cell, hi: f"{cell}.0",
    "non_ascii_digit": lambda cell, hi: "٣",
}
ROW_MUTATIONS = ("add_field", "drop_field", "empty_id", "blank_id", "duplicate_id",
                 "padded_duplicate_id", "padded_id", "non_ascii_id", "blank_line", "pad_header",
                 "header_case")
FILE_MUTATIONS = ("bare_cr", "mixed_crlf", "extra_trailing_newlines", "bom", "double_bom",
                  "invalid_utf8")
MUTATIONS = tuple(CELL_MUTATIONS) + ROW_MUTATIONS + FILE_MUTATIONS


def _render(table, eol, trailing, line_ends=None) -> str:
    lines = [",".join(row) for row in table]
    ends = line_ends or [eol] * len(lines)
    ends[-1] = ends[-1] if trailing else ""
    return "".join(line + end for line, end in zip(lines, ends))


def _mutate(draw, table, hi, eol, trailing, names) -> bytes:
    table = [list(row) for row in table]
    ends = [eol] * len(table)
    prefix, suffix = b"", ""
    for name in names:
        r = draw(st.integers(1, len(table) - 1))
        row = table[r]
        if not row:  # a blank line inserted earlier
            continue
        if name in CELL_MUTATIONS:
            if len(row) > 1:
                c = draw(st.integers(1, len(row) - 1))
                row[c] = CELL_MUTATIONS[name](row[c], hi)
        elif name == "add_field":
            row.append("1")
        elif name == "drop_field":
            row.pop()
        elif name == "empty_id":
            row[0] = ""
        elif name == "blank_id":
            row[0] = " \t"
        elif name in ("duplicate_id", "padded_duplicate_id"):
            other = table[draw(st.integers(1, len(table) - 1))]
            if other:
                row[0] = other[0] if name == "duplicate_id" else f" {other[0].strip()} "
        elif name == "padded_id":
            row[0] = f" {row[0]}"
        elif name == "non_ascii_id":
            row[0] = f"{row[0]}é"
        elif name == "blank_line":
            table.insert(r, [])
            ends.insert(r, eol)
        elif name == "pad_header":
            c = draw(st.integers(0, len(table[0]) - 1))
            table[0][c] = f" {table[0][c]}\t"
        elif name == "header_case":
            table[0][0] = table[0][0].upper()
        elif name == "bare_cr":
            ends[draw(st.integers(0, len(ends) - 1))] = "\r"
        elif name == "mixed_crlf":
            ends[draw(st.integers(0, len(ends) - 1))] = "\r\n" if eol == "\n" else "\n"
        elif name == "extra_trailing_newlines":
            suffix += eol * draw(st.integers(1, 2))
        elif name == "bom":
            prefix = codecs.BOM_UTF8
        elif name == "double_bom":
            prefix = codecs.BOM_UTF8 * 2
    data = prefix + (_render(table, eol, trailing, ends) + suffix).encode("utf-8")
    if "invalid_utf8" in names:
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\xed\xa0\x80"])) + data[at:]
    return data


def _outcome(parse, data, instrument, kind, policy):
    """Everything a caller can observe of one parse."""
    try:
        rs, report = parse(data, instrument, kind, policy)
    except DataError as exc:
        return "DataError", str(exc)
    return (rs.kind, rs.instrument_ref, rs.values.dtype, rs.values.tolist(),
            rs.respondent_ids, report)


class _Untouchable:
    """Stands in for the canonical row pattern: any use fails the test."""

    def __mod__(self, other):
        raise AssertionError("the per-cell parser used the canonical row pattern")


def _refuse(*args):
    raise AssertionError("the per-cell parser used the digit converter")


@contextlib.contextmanager
def _per_cell_only():
    """While active, the canonical matcher and the digit converter fail."""
    with mock.patch.object(ingest, "_CANONICAL_ROW", _Untouchable()), \
            mock.patch.object(ingest, "_digit_values", _refuse):
        yield


@settings(max_examples=examples(200), deadline=None)
@given(canonical_files(), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
def test_bulk_route_matches_row_by_row_parser(case, names, data):
    """parse_response_file on bytes (whole-file or per-record route) and on
    the decoded text (always the per-record route) against the per-cell
    parser, which runs the per-record checks on every csv.reader record."""
    instrument, kind, table, hi, eol, trailing = case
    canonical = _render(table, eol, trailing).encode("ascii")
    assert ingest._parse_canonical(canonical, instrument, kind) is not None
    mutated = _mutate(data.draw, table, hi, eol, trailing, names)
    payloads = [canonical, mutated]
    if len(table) > 2:  # a canonical file but for one repeated id
        repeated = [list(row) for row in table]
        first, later = sorted(data.draw(st.lists(st.integers(1, len(table) - 1), min_size=2,
                                                 max_size=2, unique=True)))
        repeated[later][0] = repeated[first][0]
        payloads.append(_render(repeated, eol, trailing).encode("ascii"))
    for payload in payloads:
        try:
            text = payload.decode("utf-8-sig")
        except UnicodeDecodeError:
            text = None
        for policy in MissingPolicy:
            with _per_cell_only():
                reference = _outcome(parse_response_rows, payload, instrument, kind, policy)
            assert _outcome(parse_response_file, payload, instrument, kind, policy) == reference
            if text is not None:
                assert _outcome(parse_response_file, text, instrument, kind, policy) == reference


@pytest.mark.parametrize("name", CELL_MUTATIONS)
def test_cell_mutations_leave_the_bulk_route_except_leading_zeros(name):
    """The bulk route declines every cell mutation the differential test
    draws, so the row parser decides, except short leading zeros: those are
    plain digits and read as the same value on both routes."""
    instrument = _instrument(3, 1, 5)
    table = [["respondent_id", "q1", "q2", "q3"], ["r1", "1", "2", "3"], ["r2", "4", "5", "1"]]
    table[2][2] = CELL_MUTATIONS[name](table[2][2], 5)
    data = _render(table, "\n", True).encode("utf-8")
    bulk = ingest._parse_canonical(data, instrument, ResponseKind.EXPECTATION)
    assert (bulk is not None) == (name == "leading_zeros")
    if bulk is not None:
        assert bulk[0].values.tolist() == [[1, 2, 3], [4, 5, 1]]


def test_field_over_the_csv_limit_takes_the_row_route():
    instrument = _instrument(1, 1, 5)
    long_id = "x" * (csv.field_size_limit() + 1)
    data = f"respondent_id,q1\nr1,1\n{long_id},2\n".encode("ascii")
    assert ingest._parse_canonical(data, instrument, ResponseKind.EXPECTATION) is None
    with pytest.raises(DataError, match="malformed CSV"):
        parse_response_file(data, instrument, ResponseKind.EXPECTATION)


def _count_cell_parses(monkeypatch) -> list[str]:
    calls: list[str] = []
    real = ingest._parse_int_cell

    def spy(cell: str):
        calls.append(cell)
        return real(cell)

    monkeypatch.setattr(ingest, "_parse_int_cell", spy)
    return calls


def _xyz_rows(n: int) -> tuple[str, list[str]]:
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 18))
    return header, [f"r{r:04d}," + ",".join(str(1 + (r + c) % 5) for c in range(17))
                    for r in range(n)]


def test_canonical_file_never_parses_a_cell(monkeypatch, xyz_instrument):
    calls = _count_cell_parses(monkeypatch)
    header, rows = _xyz_rows(1000)
    data = (header + "\n" + "\n".join(rows) + "\n").encode()
    rs, report = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)
    assert calls == []
    assert rs.n_respondents == 1000 and report.rejected_rows == 0

    # One padded cell sends the file to the per-record route, which parses
    # only that record cell by cell.
    padded = data.replace(b"\nr0500,", b"\nr0500, ", 1)
    assert parse_response_file(padded, xyz_instrument, ResponseKind.EXPECTATION)[1] == report
    assert calls == [" " + rows[500].split(",")[1], *rows[500].split(",")[2:]]
    calls.clear()
    assert parse_response_file(data.decode(), xyz_instrument, ResponseKind.EXPECTATION)[1] == \
        report
    assert calls == []


def test_per_record_route_parses_only_non_canonical_records(monkeypatch, xyz_instrument):
    """On a mixed file the per-cell parser sees the cells of the records
    that are not canonical once csv.reader has read them (dressed cells,
    a bad cell, a wrong field count is rejected before any cell) and of the
    canonical record whose value is out of the scale; the quoted and CRLF
    records are canonical once read and never reach it."""
    calls = _count_cell_parses(monkeypatch)
    header, rows = _xyz_rows(200)
    cells = [row.split(",") for row in rows]
    cells[10][3] = "+" + cells[10][3]       # dressed: every cell parsed
    cells[20][5] = f'"{cells[20][5]}"'      # quoted: canonical once read
    cells[30][2] = "x"                      # bad cell: parsed up to it
    cells[40][17] = "6"                     # out of range: canonical, then re-checked
    cells[50] = cells[50][:-1]              # row_length: no cell parsed
    lines = [",".join(row) for row in cells]
    lines[60] += "\r"                       # CRLF: canonical once read
    data = (header + "\n" + "\n".join(lines) + "\n").encode()
    rs, report = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)
    assert calls == [*cells[10][1:], *cells[30][1:3], *cells[40][1:]]
    assert [(err.row, err.code) for err in report.row_errors] == \
        [(31, "not_an_integer"), (41, "out_of_range"), (51, "row_length")]
    assert rs.respondent_ids == tuple(row[0] for at, row in enumerate(cells)
                                      if at not in (30, 40, 50))
