"""The two routes of ``parse_response_file``: the bulk route for canonical
files and the row-by-row parser (``parse_response_rows``) it stands in for.

Hypothesis starts from canonical files and applies the near misses a real
export produces.  Whatever the bytes, both routes must return the same
ResponseSet and ValidationReport, or raise the same DataError, under both
missing-row policies.
"""

from __future__ import annotations

import codecs
import csv

import pytest
from conftest import ALLOCATIONS
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
    ids = st.text(alphabet="abcXYZ0129_-.#+!~", min_size=1, max_size=6)
    n = draw(st.integers(1, 30))
    rows = [[draw(ids), *map(str, draw(row))] for _ in range(n)]
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
ROW_MUTATIONS = ("add_field", "drop_field", "empty_id", "padded_id", "non_ascii_id",
                 "blank_line", "pad_header", "header_case")
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


@settings(max_examples=200, deadline=None)
@given(canonical_files(), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
def test_bulk_route_matches_row_by_row_parser(case, names, data):
    instrument, kind, table, hi, eol, trailing = case
    canonical = _render(table, eol, trailing).encode("ascii")
    assert ingest._parse_canonical(canonical, instrument, kind) is not None
    mutated = _mutate(data.draw, table, hi, eol, trailing, names)
    for payload in (canonical, mutated):
        for policy in MissingPolicy:
            assert _outcome(parse_response_file, payload, instrument, kind, policy) == \
                _outcome(parse_response_rows, payload, instrument, kind, policy)


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


def test_canonical_file_never_parses_a_cell(monkeypatch, xyz_instrument):
    calls = _count_cell_parses(monkeypatch)
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 18))
    rows = [f"r{r:04d}," + ",".join(str(1 + (r + c) % 5) for c in range(17))
            for r in range(1000)]
    data = (header + "\n" + "\n".join(rows) + "\n").encode()
    rs, report = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)
    assert calls == []
    assert rs.n_respondents == 1000 and report.rejected_rows == 0

    padded = data.replace(b"\nr0500,", b"\nr0500, ", 1)
    assert parse_response_file(padded, xyz_instrument, ResponseKind.EXPECTATION)[1] == report
    assert len(calls) == 1000 * 17
