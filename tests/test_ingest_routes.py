"""The line route of ``parse_response_file`` against the per-cell parser
(``parse_response_rows``) it stands in for: its strict case reads a
canonical file, bytes or ``str``, at once; otherwise it reads every ASCII
line whose quotes all wrap a field from arrays, diagnostics included, and
only the other records with csv.reader and the per-cell checks.

Hypothesis starts from canonical files and applies the near misses a real
export produces.  Whatever the bytes, every route must return the same
ResponseSet and ValidationReport, or raise the same DataError, under both
missing-row policies.
"""

from __future__ import annotations

import codecs
import contextlib
import csv
import io
import itertools
import random
import re
from unittest import mock

import pytest
from conftest import ALLOCATIONS, examples, strict_result
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


#: A canonical data line: a respondent id of printable ASCII other than
#: space, comma and double quote, then k cells of 1 to 18 digits.  The
#: line route's strict case checks this form for a whole file, and its
#: bulk conversion line by line; both must accept exactly the lines it matches.
CANONICAL_ROW = r"[!#-+\--~]+(?:,[0-9]{1,18}){%d}"

#: A cell that the line route converts in bulk, once str.strip() has
#: removed its padding.
RELAXED_CELL = re.compile(r"[+-]?[0-9]{1,18}")

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
    "minus_zero": lambda cell, hi: "-0",
    "plus_zero": lambda cell, hi: "+0",
    "signed_18_digits": lambda cell, hi: "+" + cell.zfill(18),
    "signed_19_digits": lambda cell, hi: "-" + cell.zfill(19),
    "quoted_newline": lambda cell, hi: f'"{cell}\n"',
    "quoted_crlf": lambda cell, hi: f'" \r\n{cell}"',
    "mid_quote": lambda cell, hi: f'{cell}"{cell}',
    "doubled_quote": lambda cell, hi: f'"{cell}"""',
    "nul": lambda cell, hi: f"{cell}\x00",
    "inner_cr": lambda cell, hi: f"{cell}\r{cell}",
    "pad_before_quote": lambda cell, hi: f' "{cell}"',
    "pad_after_quote": lambda cell, hi: f'"{cell}" ',
    "pad_inside_quote": lambda cell, hi: f'" {cell}\t"',
    "empty_quote": lambda cell, hi: '""',
    "quoted_comma": lambda cell, hi: '"1,2"',
    "quoted_sign": lambda cell, hi: f'"+{cell}"',
}
#: Cells of these digit counts, the widths around the 18 that the line
#: route converts itself, each drawn with or without a sign and put in a row
#: that also holds a quoted or padded cell.
WIDE_CELLS = {f"digits_{width}": width for width in (2, 17, 18, 19, 25)}
DRESSINGS = ('"{}"', " {} ", "{}\t", '" {}\t"')
ROW_MUTATIONS = (*WIDE_CELLS, "add_field", "drop_field", "empty_id", "blank_id", "duplicate_id",
                 "padded_duplicate_id", "padded_id", "whitespace_padded_id", "non_ascii_id",
                 "blank_line", "whitespace_line", "blank_fields_line", "quoted_blank_line",
                 "quoted_id", "quoted_id_closing_later",
                 "unterminated_quote", "pad_header", "quote_header", "header_case")
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
        elif name in WIDE_CELLS:
            if len(row) > 1:
                c, d = (draw(st.integers(1, len(row) - 1)) for _ in range(2))
                width = WIDE_CELLS[name]
                digits = draw(st.one_of(st.just(row[c].zfill(width)), st.text(
                    alphabet="0123456789", min_size=width, max_size=width)))
                row[c] = draw(st.sampled_from(["", "+", "-"])) + digits
                row[d] = draw(st.sampled_from(DRESSINGS)).format(row[d])
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
        elif name == "whitespace_padded_id":  # \x1f: only str.strip removes it
            row[0] = f"\t{row[0]} \x1f"
        elif name == "non_ascii_id":
            row[0] = f"{row[0]}é"
        elif name in ("blank_line", "whitespace_line", "blank_fields_line",
                      "quoted_blank_line"):
            table.insert(r, {"blank_line": [], "whitespace_line": [" \t"],
                             "blank_fields_line": [" ", " ", ""],
                             "quoted_blank_line": ['""', '""']}[name])
            ends.insert(r, eol)
        elif name == "quoted_id":
            row[0] = f'"{row[0]}"'
        elif name == "quoted_id_closing_later":
            row[0] = f'"{row[0]}'
            later = r + draw(st.integers(1, 2))
            if later < len(table) and table[later]:
                table[later][0] += '"'
        elif name == "unterminated_quote":
            row[draw(st.integers(0, len(row) - 1))] += '"'
        elif name == "pad_header":
            c = draw(st.integers(0, len(table[0]) - 1))
            table[0][c] = f" {table[0][c]}\t"
        elif name == "quote_header":
            c = draw(st.integers(0, len(table[0]) - 1))
            table[0][c] = f'"{table[0][c]}"'
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


#: The helpers of the line route, which the per-cell parser must not use.
BULK_HELPERS = ("_digit_values", "_rows_with", "_texts", "_refused", "_invalid_allocations",
                "_parse_lines", "_line_input", "_quotes", "_bulk_values", "_strip_spans")


def _refuser(name: str):
    def refuse(*args):
        raise AssertionError(f"the per-cell parser used {name}")
    return refuse


@contextlib.contextmanager
def _checked_rows():
    """While active, the list of the data rows that reach _check_record."""
    rows: list[int] = []
    real = ingest._check_record

    def spy(raw, row, *args):
        rows.append(row)
        return real(raw, row, *args)

    with mock.patch.object(ingest, "_check_record", spy):
        yield rows


@contextlib.contextmanager
def _per_cell_only():
    """While active, every bulk helper fails."""
    with contextlib.ExitStack() as stack:
        for name in BULK_HELPERS:
            stack.enter_context(mock.patch.object(ingest, name, _refuser(name)))
        yield


@settings(max_examples=examples(200), deadline=None)
@given(canonical_files(), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
def test_bulk_route_matches_row_by_row_parser(case, names, data):
    """parse_response_file on bytes and on the decoded text against the
    per-cell parser, which runs the per-record checks on every csv.reader
    record.  A canonical file takes the strict case either way."""
    instrument, kind, table, hi, eol, trailing = case
    canonical = _render(table, eol, trailing).encode("ascii")
    for payload in (canonical, canonical.decode("ascii")):
        assert strict_result(payload, instrument, kind) is not None
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
    """Every cell mutation the differential test draws leaves the strict
    case, except the two that leave a cell plain digits: short leading
    zeros, which read as the same value on every route, and an out-of-range
    value, whose row the strict case rejects itself."""
    instrument = _instrument(3, 1, 5)
    table = [["respondent_id", "q1", "q2", "q3"], ["r1", "1", "2", "3"], ["r2", "4", "5", "1"]]
    table[2][2] = CELL_MUTATIONS[name](table[2][2], 5)
    data = _render(table, "\n", True).encode("utf-8")
    bulk = strict_result(data, instrument, ResponseKind.EXPECTATION)
    accepted = {"leading_zeros": [[1, 2, 3], [4, 5, 1]], "out_of_range": [[1, 2, 3]]}
    assert (bulk is not None) == (name in accepted)
    if bulk is not None:
        assert bulk[0].values.tolist() == accepted[name]


def test_field_over_the_csv_limit_takes_the_row_route():
    instrument = _instrument(1, 1, 5)
    long_id = "x" * (csv.field_size_limit() + 1)
    data = f"respondent_id,q1\nr1,1\n{long_id},2\n".encode("ascii")
    assert strict_result(data, instrument, ResponseKind.EXPECTATION) is None
    with pytest.raises(DataError, match="malformed CSV"):
        parse_response_file(data, instrument, ResponseKind.EXPECTATION)
    # A first or last data line of limit - 1 bytes, its line end included,
    # takes the strict case; one of exactly the limit leaves the line route,
    # for the same result.
    for shortfall in (1, 0):
        long_line = "x" * (csv.field_size_limit() - shortfall - 3) + ",2"
        assert len(long_line + "\n") == csv.field_size_limit() - shortfall
        for lines in ([long_line, "r1,1", "r2,3"], ["r1,1", "r2,3", long_line]):
            data = ("respondent_id,q1\n" + "\n".join(lines) + "\n").encode("ascii")
            bulk = strict_result(data, instrument, ResponseKind.EXPECTATION)
            assert (bulk is not None) == (shortfall == 1)
            rs, report = parse_response_file(data, instrument, ResponseKind.EXPECTATION)
            assert report.rejected_rows == 0
            assert rs.respondent_ids == tuple(line.partition(",")[0] for line in lines)


#: Any ASCII character, most of the time one at the edge of a byte class
#: that the canonical check tells apart.
ASCII = st.one_of(st.sampled_from("\x00\t\n\r !\",~\x7f"), st.sampled_from("/09:"),
                  st.characters(max_codepoint=0x7F))
DIGITS = st.integers(1, 18).flatmap(
    lambda n: st.text(alphabet="0123456789", min_size=n, max_size=n))
#: Runs of the ASCII characters that str.strip() removes within a line.
PADDING = st.text(alphabet=" \t\x0b\x0c\x1c\x1d\x1e\x1f", max_size=3)
LINE_FLAWS = ("any_id", "odd_id_byte", "empty_id", "fewer_cells", "more_cells", "empty_cell",
              "long_cell", "odd_cell_byte", "lead_comma", "trail_comma", "empty_line",
              "padded_id", "padded_cell", "signed_cell", "blank_cell", "quoted_id",
              "quoted_cell")


def _insert(draw, text: str) -> str:
    place = draw(st.integers(0, len(text)))
    return text[:place] + draw(ASCII) + text[place:]


@st.composite
def near_canonical_lines(draw, k: int) -> str:
    """A canonical data line of k cells, or, one time in three, one with a
    flaw: an id of any ASCII characters, one such character in an id or a
    cell, an empty id, k - 1 or k + 1 cells, an empty cell, a cell of 19
    digits that fits an int64, a leading or trailing comma, an empty line,
    padding around the id or a cell, a signed cell, a cell of padding
    alone, or quotes around the id or a padded cell.  Some flaws still draw
    a canonical line."""
    respondent_id = draw(st.text(alphabet="abz09_.#~!+-", min_size=1, max_size=4))
    cells = draw(st.lists(DIGITS, min_size=k, max_size=k))
    flaw = draw(st.sampled_from(LINE_FLAWS)) if draw(st.integers(0, 2)) == 0 else None
    at = draw(st.integers(0, k - 1))
    if flaw == "any_id":
        respondent_id = draw(st.text(alphabet=ASCII, max_size=4))
    elif flaw == "odd_id_byte":
        respondent_id = _insert(draw, respondent_id)
    elif flaw == "empty_id":
        respondent_id = ""
    elif flaw == "fewer_cells":
        cells.pop()
    elif flaw == "more_cells":
        cells.append(draw(DIGITS))
    elif flaw == "empty_cell":
        cells[at] = ""
    elif flaw == "long_cell":
        cells[at] = str(draw(st.integers(10**18, 2**63 - 1)))
    elif flaw == "odd_cell_byte":
        cells[at] = _insert(draw, cells[at])
    elif flaw == "padded_id":
        respondent_id = draw(PADDING) + respondent_id + draw(PADDING)
    elif flaw == "padded_cell":
        cells[at] = draw(PADDING) + cells[at] + draw(PADDING)
    elif flaw == "signed_cell":
        cells[at] = draw(st.sampled_from("+-")) + cells[at]
    elif flaw == "blank_cell":
        cells[at] = draw(PADDING)
    elif flaw == "quoted_id":
        respondent_id = f'"{respondent_id}"'
    elif flaw == "quoted_cell":
        cells[at] = f'"{draw(PADDING)}{cells[at]}{draw(PADDING)}"'
    line = ",".join([respondent_id, *cells])
    return {"lead_comma": "," + line, "trail_comma": line + ",", "empty_line": ""}.get(
        flaw, line)


def _assert_strict_iff_canonical(k: int, lines: list[str], trailing: bool) -> None:
    """The strict case reads the file of ``lines`` (under a scale that
    holds every int64, so that no value is refused for its size) exactly
    when every data line fullmatches ``CANONICAL_ROW``, and then to the
    values and ids that csv.reader reads, the first row of each id kept."""
    instrument = build_instrument({
        "scale": {"min": 0, "max": 2**63 - 1},
        "items": [{"id": i, "prompt": f"q{i}", "dimension": "empathy", "kano": "must_be"}
                  for i in range(1, k + 1)],
    })
    header = ",".join(["respondent_id", *(f"q{i}" for i in range(1, k + 1))])
    text = header + "\n" + "\n".join(lines) + ("\n" if trailing else "")
    if text == header + "\n":  # no data line: the strict case raises, as every route does
        with pytest.raises(DataError, match="no valid rows"):
            strict_result(text.encode("ascii"), instrument, ResponseKind.EXPECTATION)
        return
    bulk = strict_result(text.encode("ascii"), instrument, ResponseKind.EXPECTATION)
    # The route reads \r\n as \n, so the lines are those of the normalised text.
    body = text.replace("\r\n", "\n").partition("\n")[2].removesuffix("\n").split("\n")
    pattern = re.compile(CANONICAL_ROW % k)
    assert (bulk is not None) == all(pattern.fullmatch(line) for line in body), text
    if bulk is not None:
        records = list(csv.reader(io.StringIO(text, newline="")))[1:]
        kept: dict[str, list[int]] = {}
        for record in records:
            kept.setdefault(record[0], [int(cell) for cell in record[1:]])
        assert bulk[0].respondent_ids == tuple(kept)
        assert bulk[0].values.tolist() == list(kept.values())
        assert bulk[1].rejected_rows == len(records) - len(kept)


@settings(max_examples=examples(300), deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(near_canonical_lines(k), min_size=1, max_size=6))),
    st.booleans())
def test_canonical_check_matches_the_row_pattern(case, trailing):
    """The strict case's array checks against the pattern they stand in
    for, on the drawn file and on each of its lines alone."""
    k, lines = case
    for data_lines in [lines, *([line] for line in lines)]:
        _assert_strict_iff_canonical(k, data_lines, trailing)


def test_canonical_check_matches_the_row_pattern_on_every_byte():
    """Each ASCII byte before, inside and after an id, an inner cell and a
    last cell, on the first and on the last data line."""
    for char in map(chr, range(0x80)):
        for place in range(3):
            respondent_id = "ab"[:place] + char + "ab"[place:]
            cell = "12"[:place] + char + "12"[place:]
            for line in (f"{respondent_id},12,3", f"ab,{cell},3", f"ab,3,{cell}"):
                _assert_strict_iff_canonical(2, [line, "x,1,2"], False)
                _assert_strict_iff_canonical(2, ["x,1,2", line], False)


#: A cell that _parse_int_cell reads, once str.strip() has removed its padding.
INT_CELL = re.compile(r"[+-]?[0-9]+")


def _wraps(line: str) -> bool:
    """Every double quote of ``line`` is the first or the last byte of a
    comma-split field that holds no other quote."""
    return all('"' not in field or len(field) > 1 and field[0] == field[-1] == '"'
               and '"' not in field[1:-1] for field in line.split(","))


def _assert_bulk_iff_relaxed(k: int, lines: list[str], trailing: bool) -> None:
    """The line route, on the file of ``lines`` (under a scale that holds
    every int64, so that no value is refused for its size), reads from
    arrays every record of one ASCII line whose quotes all wrap a field,
    every line that fullmatches CANONICAL_ROW among them, unless its first
    cell that str.strip() does not leave as RELAXED_CELL is a longer run of
    digits; it sends exactly the other records to _check_record, declines
    exactly the inputs with a NUL, a \\r outside a \\r\\n or a quoted
    record that spans lines (a cell that holds a line end), and gives the
    per-cell result either way."""
    instrument = build_instrument({
        "scale": {"min": -(2**63 - 1), "max": 2**63 - 1},
        "items": [{"id": i, "prompt": f"q{i}", "dimension": "empathy", "kano": "must_be"}
                  for i in range(1, k + 1)],
    })
    header = ",".join(["respondent_id", *(f"q{i}" for i in range(1, k + 1))])
    text = header + "\n" + "\n".join(lines) + ("\n" if trailing else "")
    with _checked_rows() as checked:
        try:
            got = ingest._parse_lines(text.encode("ascii"), instrument,
                                      ResponseKind.EXPECTATION, MissingPolicy.DROP_ROW)
        except DataError:
            got = ()
    body = text.partition("\n")[2]
    records = csv.reader(io.StringIO(body, newline=""))
    declined = ("\x00" in text or "\r" in text.replace("\r\n", "")
                or any("\n" in cell for record in records for cell in record))
    assert (got is None) == declined, text
    assert _outcome(parse_response_file, text, instrument, ResponseKind.EXPECTATION,
                    MissingPolicy.DROP_ROW) == \
        _outcome(parse_response_rows, text, instrument, ResponseKind.EXPECTATION,
                 MissingPolicy.DROP_ROW)
    if declined:
        return
    canonical = re.compile(CANONICAL_ROW % k)
    reached = set()
    for number, (line, record) in enumerate(
            zip(body.split("\n"), csv.reader(io.StringIO(body, newline=""))), start=1):
        line = line.removesuffix("\r")
        bad = [cell.strip() for cell in record[1:] if not RELAXED_CELL.fullmatch(cell.strip())]
        if not (line.isascii() and _wraps(line)) or (
                any(cell.strip() for cell in record) and len(record) == k + 1
                and record[0].strip() and bad and INT_CELL.fullmatch(bad[0])):
            reached.add(number)
        if canonical.fullmatch(line):
            assert number not in reached, text
    assert set(checked) == reached, text


@settings(max_examples=examples(300), deadline=None)
@given(st.integers(1, 4).flatmap(
    lambda k: st.tuples(st.just(k), st.lists(near_canonical_lines(k), min_size=1, max_size=6))),
    st.booleans())
def test_line_check_matches_the_relaxed_pattern(case, trailing):
    """The line route's per-line checks against the patterns they stand in
    for, on the drawn file and on each of its lines alone."""
    k, lines = case
    for data_lines in [lines, *([line] for line in lines)]:
        _assert_bulk_iff_relaxed(k, data_lines, trailing)


def test_line_check_matches_the_relaxed_pattern_on_every_byte():
    """Each ASCII byte before, inside and after an id, an inner cell and a
    last cell, on the first and on the last data line.  Only str.strip(),
    not bytes.strip(), removes \\x1c to \\x1f, and the line route follows
    str.strip()."""
    for char in map(chr, range(0x80)):
        for place in range(3):
            respondent_id = "ab"[:place] + char + "ab"[place:]
            cell = "12"[:place] + char + "12"[place:]
            for line in (f"{respondent_id},12,3", f"ab,{cell},3", f"ab,3,{cell}"):
                _assert_bulk_iff_relaxed(2, [line, "x,1,2"], False)
                _assert_bulk_iff_relaxed(2, ["x,1,2", line], False)


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

    # Padded, signed and CRLF records leave the strict case, and the line
    # route converts them in bulk as well, bytes or str.
    dressed = data.replace(b"\nr0500,", b"\nr0500, ", 1).replace(b"\nr0600,", b"\nr0600,+", 1)
    dressed = dressed.replace(b"\nr0700,", b"\nr0700,\t", 1).replace(b"\nr0800", b"\r\nr0800", 1)
    assert strict_result(dressed, xyz_instrument, ResponseKind.EXPECTATION) is None
    for payload in (dressed, dressed.decode(), data.decode()):
        parsed, parsed_report = parse_response_file(payload, xyz_instrument,
                                                    ResponseKind.EXPECTATION)
        assert parsed_report == report and parsed.values.tolist() == rs.values.tolist()
    assert calls == []


def test_per_record_route_parses_only_non_canonical_records(monkeypatch, xyz_instrument):
    """On a mixed file csv.reader and the per-cell parser see only the
    records that the line route does not read from arrays: a line with a
    quote that wraps no field, a non-ASCII line and a row whose first cell
    that is not 1 to 18 digits is longer digits.  Signed, padded, quoted and
    CRLF records, bad, missing and out-of-range cells, a wrong field count,
    an empty quoted id and a blank quoted line never reach them."""
    calls = _count_cell_parses(monkeypatch)
    starts: list[str] = []
    real_reader = csv.reader

    def reader(lines):
        lines = iter(lines)
        first = next(lines)
        starts.append(first)
        return real_reader(itertools.chain([first], lines))

    monkeypatch.setattr(ingest.csv, "reader", reader)
    header, rows = _xyz_rows(200)
    cells = [row.split(",") for row in rows]
    cells[10][3] = "+" + cells[10][3]               # signed: converted in bulk
    cells[15][4] = f" {cells[15][4]}\t"             # padded: converted in bulk
    cells[20][5] = f'" {cells[20][5]}"'             # quoted: converted in bulk
    cells[25][5] = f'"{cells[25][5]}" '             # padding after a quote: csv.reader
    cells[30][2] = "x"                              # bad cell: from arrays
    cells[35][0] += "\u00e9"                        # non-ASCII: csv.reader
    cells[40][17] = "6"                             # out of range: converted, refused
    cells[45][3] = "0" * 20 + cells[45][3]          # 21 digits: csv.reader
    cells[50] = cells[50][:-1]                      # row_length: from arrays
    cells[55][0] = '""'                             # empty_id: from arrays
    cells[80][1] = ""                               # missing: from arrays
    lines = [",".join(row) for row in cells] + ['"",""']  # and a blank line
    lines[60] += "\r"                               # CRLF: converted in bulk
    data = (header + "\n" + "\n".join(lines) + "\n").encode()
    rs, report = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)
    read = [row[:] for row in cells]
    read[25][5] = read[25][5].replace('"', "")
    assert calls == [*read[25][1:], *read[35][1:], *read[45][1:]]
    assert starts == [lines[at] + "\n" for at in (25, 35, 45)]
    assert [(err.row, err.code) for err in report.row_errors] == \
        [(31, "not_an_integer"), (41, "out_of_range"), (51, "row_length"), (56, "empty_id"),
         (81, "missing")]
    assert rs.respondent_ids == tuple(row[0] for at, row in enumerate(cells)
                                      if at not in (30, 40, 50, 55, 80))
    assert rs.values[20].tolist() == [int(cell.strip('" ')) for cell in cells[20][1:]]


@pytest.mark.parametrize("cells, column, code, checked", [
    (["1", "x", "2", "", "3"], "q2", "not_an_integer", False),
    (["1", " ", "x", "3", "4"], "q2", "missing", False),
    (["1", "2", '"3.0"', "9" * 19, ""], "q3", "not_an_integer", False),
    (["1", "0" * 19 + "2", "x", "", "3"], "q3", "not_an_integer", True),
], ids=["bad_then_missing", "missing_then_bad", "quoted_then_long", "long_then_bad"])
def test_first_bad_cell_gives_the_diagnostic(cells, column, code, checked):
    """A row with several bad cells is rejected for the first, from arrays
    unless a longer run of digits comes before it."""
    instrument = _instrument(5, 1, 5)
    data = ("respondent_id,q1,q2,q3,q4,q5\nr1,1,2,3,4,5\nr2," + ",".join(cells) + "\n").encode()
    with _checked_rows() as calls:
        _, report = parse_response_file(data, instrument, ResponseKind.EXPECTATION)
    assert [(err.row, err.column, err.code) for err in report.row_errors] == [(2, column, code)]
    assert calls == ([2] if checked else [])
    assert _outcome(parse_response_file, data, instrument, ResponseKind.EXPECTATION,
                    MissingPolicy.DROP_ROW) == \
        _outcome(parse_response_rows, data, instrument, ResponseKind.EXPECTATION,
                 MissingPolicy.DROP_ROW)


def _assert_routes_agree(data, instrument, kind=ResponseKind.EXPECTATION):
    """parse_response_file gives the per-cell parser's outcome under both policies."""
    for policy in MissingPolicy:
        with _per_cell_only():
            reference = _outcome(parse_response_rows, data, instrument, kind, policy)
        assert _outcome(parse_response_file, data, instrument, kind, policy) == reference, data


@pytest.mark.parametrize("dressing", DRESSINGS)
@pytest.mark.parametrize("sign", ["", "+", "-"])
@pytest.mark.parametrize("width", sorted(WIDE_CELLS.values()))
def test_wide_cell_beside_a_dressed_cell(width, sign, dressing):
    """A cell of each width around 18 digits, signed or not, in a row with a
    quoted or padded cell: zero-padded to a value in the scale, and all
    nines, which lies outside it."""
    instrument = _instrument(3, -5, 5)
    for digits in ("3".zfill(width), "9" * width):
        rows = ["r1,1,2,3", f"r2,{sign}{digits},{dressing.format(4)},5", "r3,5,4,3"]
        _assert_routes_agree(("respondent_id,q1,q2,q3\n" + "\n".join(rows)).encode(),
                             instrument)


@pytest.mark.parametrize("cell", ["x", "3.0", "", " ", '"x"', '" "', "+", "1 2", "9" * 25,
                                  "+" + "0" * 18 + "4"])
@pytest.mark.parametrize("kind", list(ResponseKind))
def test_bad_last_cell_at_the_end_of_the_file(cell, kind, xyz_instrument):
    """The last cell of a file without a final newline, bad: its diagnostic
    comes from arrays, and a longer run of digits goes to the per-cell checks."""
    if kind.is_likert:
        instrument, rows = _instrument(3, 1, 5), ["r1,1,2,3", "r2,4,5," + cell]
    else:
        instrument, rows = xyz_instrument, ["r1,20,20,20,20,20", "r2,20,20,20,20," + cell]
    header = ",".join(ingest._expected_header(instrument, kind))
    data = (header + "\n" + "\n".join(rows)).encode()
    _assert_routes_agree(data, instrument, kind)
    with _checked_rows() as checked:
        parse_response_file(data, instrument, kind)
    assert checked == ([2] if cell.lstrip("+").isdigit() else [])


@pytest.mark.parametrize("digits", ["0" * 17 + "4", "9" * 18, "1" + "0" * 17])
def test_one_wide_cell_among_one_digit_cells(digits, xyz_instrument):
    """A file of one-digit cells but for one of 18 digits stays in the strict
    case; signed, it takes the line route's conversion of signed cells."""
    header, rows = _xyz_rows(300)
    cells = [row.split(",") for row in rows]
    cells[150][9] = digits
    data = (header + "\n" + "\n".join(",".join(row) for row in cells) + "\n").encode()
    assert strict_result(data, xyz_instrument, ResponseKind.EXPECTATION) is not None
    for payload in (data, data.replace(b"," + digits.encode(), b",+" + digits.encode())):
        _assert_routes_agree(payload, xyz_instrument)
    rs, report = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)
    assert (rs.values[150, 8] == 4) if digits.endswith("4") else report.rejected_rows == 1


@pytest.mark.parametrize("column", [0, 9], ids=["id", "cell"])
def test_quoted_record_over_two_lines_takes_the_per_cell_route(column, xyz_instrument):
    """A quoted id or cell that holds a line end makes its record span two
    lines: the line route declines the file, and parse_response_rows, which
    numbers the rows after it by record, reads it.  The same file with the
    quoted value on one line stays on the line route."""
    header, rows = _xyz_rows(200)
    cells = [row.split(",") for row in rows]
    cells[80][1] = ""  # missing: rejected after the quoted record
    for spans in (True, False):
        value = cells[70][column]
        quoted = [row[:] for row in cells]
        quoted[70][column] = f'"{value[:1]}\n{value[1:]}"' if spans else f'"{value}"'
        data = (header + "\n" + "\n".join(",".join(row) for row in quoted) + "\n").encode()
        for payload in (data, data.decode()):
            line_route = ingest._parse_lines(payload, xyz_instrument, ResponseKind.EXPECTATION,
                                             MissingPolicy.DROP_ROW)
            assert (line_route is None) == spans
            for policy in MissingPolicy:
                reference = _outcome(parse_response_rows, payload, xyz_instrument,
                                     ResponseKind.EXPECTATION, policy)
                assert _outcome(parse_response_file, payload, xyz_instrument,
                                ResponseKind.EXPECTATION, policy) == reference
            rs, report = parse_response_file(payload, xyz_instrument, ResponseKind.EXPECTATION)
            assert [(err.row, err.code) for err in report.row_errors] == [(81, "missing")]
            assert rs.respondent_ids[70] == quoted[70][0].strip('"')
            assert rs.values[70].tolist() == [int(cell.strip('"')) for cell in quoted[70][1:]]


#: Cells and allocation rows that trip one rejection code each, and accepted
#: spellings of a valid cell, as survey tools export them.
BAD_CELLS = {"missing": "", "not_an_integer": "3.0", "out_of_range": "6"}
BAD_ALLOCATIONS = {"out_of_range": ["105", "-5", "0", "0", "0"],
                   "sum_not_100": ["20", "20", "20", "20", "25"],
                   "not_multiple_of_five": ["22", "18", "20", "20", "20"]}
DRESSED = ('"{}"', " {} ", "+{}", "{}\t")


def _dirty_export(rng: random.Random, kind: ResponseKind, n: int) -> tuple[bytes, set[str]]:
    """An export of n rows and the codes of its rejected rows: about 2 % of
    the rows per code, one cell of a tenth of the others quoted, padded or
    signed, one line in 20 ended by \\r\\n and one blank line per 200."""
    if kind.is_likert:
        header = ["respondent_id"] + [f"q{i}" for i in range(1, 18)]
        rows = [[str(rng.randint(1, 5)) for _ in range(17)] for _ in range(n)]
        codes = ["missing", "not_an_integer", "out_of_range", "row_length"]
    else:
        header = ["respondent_id", *IMPORTANCE_COLUMNS]
        rows = [[str(5 * sum(rng.randrange(5) == c for _ in range(20))) for c in range(5)]
                for _ in range(n)]
        codes = ["missing", "not_an_integer", *BAD_ALLOCATIONS, "row_length"]
    for row in rows:
        draw = rng.random()
        code = codes[int(draw / 0.02)] if draw < 0.02 * len(codes) else None
        if code == "row_length":
            row.pop()
        elif code in BAD_ALLOCATIONS and not kind.is_likert:
            row[:] = BAD_ALLOCATIONS[code]
        elif code is not None:
            row[rng.randrange(len(row))] = BAD_CELLS[code]
        elif rng.random() < 0.1:
            at = rng.randrange(len(row))
            row[at] = rng.choice(DRESSED).format(row[at])
    lines = [",".join(header)] + [",".join([f"r{r:06d}", *row]) + "\r" * (rng.random() < 0.05)
                                  for r, row in enumerate(rows, start=1)]
    for at in sorted(rng.sample(range(2, len(lines)), n // 200), reverse=True):
        lines.insert(at, "")
    return ("\n".join(lines) + "\n").encode("ascii"), set(codes)


@pytest.mark.parametrize("kind", list(ResponseKind))
def test_dirty_export_is_read_from_arrays(kind, xyz_instrument):
    """A dirty survey export of 2,000 rows, every rejection code among them,
    gives the per-cell parser's result under both policies without a single
    record reaching the per-cell checks."""
    data, codes = _dirty_export(random.Random(17), kind, 2000)
    for policy in MissingPolicy:
        with _per_cell_only():
            reference = _outcome(parse_response_rows, data, xyz_instrument, kind, policy)
        with _checked_rows() as checked:
            assert _outcome(parse_response_file, data, xyz_instrument, kind, policy) == reference
        assert checked == []
        if policy is MissingPolicy.DROP_ROW:
            assert {err.code for err in reference[-1].row_errors} == codes
