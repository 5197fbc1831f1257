"""The line route of ``parse_response_file`` against the per-cell parser
(``parse_response_rows``) it stands in for: its strict case reads a
canonical file, bytes or ``str``, at once; otherwise it reads every UTF-8
line from arrays, diagnostics included, and never calls csv.reader or the
per-cell checks.  It declines a file with a quote that wraps no field, a
code point outside ASCII that str.strip() removes, or a row whose first bad
cell is more than 18 digits, and parse_response_rows reads that file.

Hypothesis starts from canonical files and applies the near misses a real
export produces.  Whatever the bytes, every route must return the same
ResponseSet and ValidationReport, or raise the same DataError, under both
missing-row policies.
"""

from __future__ import annotations

import codecs
import contextlib
import copy
import csv
import io
import itertools
import pickle
import random
import re
from unittest import mock

import numpy as np
import pytest
from conftest import ALLOCATIONS, dirty_xyz_csv, examples, strict_result
from hypothesis import example, given, settings
from hypothesis import strategies as st

from satmetric import ingest, psychometrics
from satmetric.errors import DataError
from satmetric.ingest import (
    IMPORTANCE_COLUMNS,
    MissingPolicy,
    ResponseKind,
    ResponseSet,
    RowError,
    ValidationReport,
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


#: Ids and cells outside ASCII, as survey tools export them: accented and
#: CJK ids, an id wider than one key, and a digit that is not ASCII.
NON_ASCII = ("\u00e9", "\u9867\u5ba2", "M\u00fcller-00042", "\u0663")
#: The code points outside ASCII that str.strip() removes.
WIDE_PADDING = tuple(char for char in map(chr, range(0x80, 0x110000)) if char.isspace())


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


def _dress_utf8(draw, table, eol, trailing) -> bytes:
    """The file of ``table`` after one to four edits outside ASCII, each to
    a field of a data row, which it may then quote: the field replaced by,
    or run into, one of NON_ASCII, or one of WIDE_PADDING put at its start,
    at its end or inside it."""
    table = [list(row) for row in table]
    for _ in range(draw(st.integers(1, 4))):
        row = table[draw(st.integers(1, len(table) - 1))]
        c = draw(st.integers(0, len(row) - 1))
        field = row[c]
        if draw(st.booleans()):
            text = draw(st.sampled_from(NON_ASCII))
            row[c] = draw(st.sampled_from((text, field + text, text + field)))
        else:
            at = draw(st.one_of(st.sampled_from((0, len(field))), st.integers(0, len(field))))
            row[c] = field[:at] + draw(st.sampled_from(WIDE_PADDING)) + field[at:]
        if draw(st.integers(0, 3)) == 0:
            row[c] = f'"{row[c]}"'
    return _render(table, eol, trailing).encode("utf-8")


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
                "_line_input", "_quotes", "_bulk_values", "_strip_spans", "_id_keys",
                "_key_texts", "_formatted", "_exact_moments", "cut_lines")


def _refuser(name: str):
    def refuse(*args):
        raise AssertionError(f"{name} was called")
    return refuse


def _line_route(data, instrument, kind, policy=MissingPolicy.DROP_ROW):
    """The line route's result, or None where it declines ``data``, with
    _check_record, _cell_error and csv.reader failing while it runs."""
    with mock.patch.object(ingest, "_check_record", _refuser("_check_record")), \
            mock.patch.object(ingest, "_cell_error", _refuser("_cell_error")), \
            mock.patch.object(csv, "reader", _refuser("csv.reader")):
        blocks = ingest.cut_lines(data, instrument, kind)
        if blocks is None:
            return None
        for at in range(len(blocks)):
            blocks.parse(at)
        return blocks.result(policy) if all(blocks.parts) else None


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
    record: the canonical file, which takes the strict case either way, the
    file after the drawn mutations, after edits outside ASCII and with one
    repeated id."""
    instrument, kind, table, hi, eol, trailing = case
    canonical = _render(table, eol, trailing).encode("ascii")
    for payload in (canonical, canonical.decode("ascii")):
        assert strict_result(payload, instrument, kind) is not None
    mutated = _mutate(data.draw, table, hi, eol, trailing, names)
    payloads = [canonical, mutated, _dress_utf8(data.draw, table, eol, trailing)]
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


#: Block budgets of the line route, in bytes: one line, a few lines and the whole file.
BLOCK_BYTES = (1, 40, 1 << 40)


def _declined(data, instrument, kind) -> bool:
    """Whether the line route declines ``data``, in its whole-file step or in a
    block.  Each block starts just after a line end."""
    blocks = ingest.cut_lines(data, instrument, kind)
    if blocks is None:
        return True
    for at in range(len(blocks)):
        assert blocks.raw[blocks.edges[blocks.firsts[at]] - 1] == ord("\n")
        blocks.parse(at)
    return not all(blocks.parts)


def _assert_blocks_agree(data, instrument, kind) -> None:
    """parse_response_file's outcome under both policies, and whether the
    line route declines the input, are the same for every block budget."""
    outcomes = []
    for budget in BLOCK_BYTES:
        with mock.patch.object(ingest, "BLOCK_BYTES", budget):
            outcomes.append([_declined(data, instrument, kind)] + [
                _outcome(parse_response_file, data, instrument, kind, policy)
                for policy in MissingPolicy])
    assert outcomes[0] == outcomes[1] == outcomes[2], data


@settings(max_examples=examples(100), deadline=None)
@given(canonical_files(), st.lists(st.sampled_from(MUTATIONS), max_size=3), st.data())
def test_block_budget_changes_nothing(case, names, data):
    """Blocks of one line, of three lines and of the whole file give the same
    sets, reports, DataErrors and declines, on the files that
    test_bulk_route_matches_row_by_row_parser draws."""
    instrument, kind, table, hi, eol, trailing = case
    for payload in (_render(table, eol, trailing).encode("ascii"),
                    _mutate(data.draw, table, hi, eol, trailing, names),
                    _dress_utf8(data.draw, table, eol, trailing)):
        _assert_blocks_agree(payload, instrument, kind)


@pytest.mark.parametrize("edge", ["repeated_id", "blank_line", "crlf_line", "short_line",
                                  "quoted_record"])
@pytest.mark.parametrize("at", [2, 3], ids=["before_cut", "after_cut"])
def test_block_boundary_cases(edge, at):
    """Blocks of about 18 bytes, two lines of 9, with the edge case on data
    line ``at`` beside a cut: an id that an earlier block holds, a blank
    line, a line ended by \\r\\n, a line of one field too few, and a quoted
    id that holds a line end, so that its record spans the cut when ``at``
    is 2.  The line route declines only the last, whatever the blocks; each
    gives the per-cell result."""
    instrument = _instrument(3, 1, 5)
    lines = [f"r{row},{row % 5 + 1},2,3" for row in range(1, 8)]
    if edge == "repeated_id":
        lines[at - 1] = "r1" + lines[at - 1][2:]
    elif edge == "blank_line":
        lines[at - 1] = ""
    elif edge == "crlf_line":
        lines[at - 1] += "\r"
    elif edge == "short_line":
        lines[at - 1] = lines[at - 1].rsplit(",", 1)[0]
    else:
        lines[at - 1] = f'"r{at}\nx"' + lines[at - 1][2:]
    data = ("respondent_id,q1,q2,q3\n" + "\n".join(lines) + "\n").encode()
    with mock.patch.object(ingest, "BLOCK_BYTES", 18):
        cuts = set(ingest.cut_lines(data, instrument, ResponseKind.EXPECTATION).firsts)
    last = at if edge == "quoted_record" else at - 1  # the edge case's last line
    assert cuts & set(range(at - 1, last + 2))  # a cut before, inside or just after it
    assert (at in cuts) >= (edge == "quoted_record" and at == 2)  # a cut inside the record
    for budget in (18, *BLOCK_BYTES):
        with mock.patch.object(ingest, "BLOCK_BYTES", budget):
            assert _declined(data, instrument, ResponseKind.EXPECTATION) == \
                (edge == "quoted_record")
            _assert_routes_agree(data, instrument)
    _assert_blocks_agree(data, instrument, ResponseKind.EXPECTATION)


def test_utf8_lines_are_read_from_arrays_but_wide_padding():
    """Ids and cells outside ASCII are read from arrays, with neither
    csv.reader nor the per-cell checks; each code point outside ASCII that
    str.strip() removes, at the start, at the end or inside the header, an
    id or a cell, makes the line route decline the file.  The result is the
    per-cell parser's either way, from bytes and from text."""
    assert len(WIDE_PADDING) == 19
    instrument = _instrument(3, 1, 5)
    table = [["respondent_id", "q1", "q2", "q3"], ["r1", "1", "2", "3"],
             ["\u00e9", "4", "5", "1"], ["\u9867\u5ba2", "2", "\u0663", "1"],
             ['"M\u00fcller-00042"', "3", "+3", "3"]]
    data = _render(table, "\n", True).encode("utf-8")
    assert _line_route(data, instrument, ResponseKind.EXPECTATION)[1].rejected_rows == 1
    for pad, (r, c), edge in itertools.product(WIDE_PADDING, ((0, 0), (3, 0), (4, 2)), range(3)):
        dressed = [list(row) for row in table]
        field = dressed[r][c]
        at = (0, 1, len(field))[edge]
        dressed[r][c] = field[:at] + pad + field[at:]
        payload = _render(dressed, "\n", True).encode("utf-8")
        for form in (payload, payload.decode("utf-8")):
            assert _line_route(form, instrument, ResponseKind.EXPECTATION) is None
            _assert_routes_agree(form, instrument)


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


def test_line_route_set_equals_the_per_cell_set():
    """A set whose ids the line route keeps as keys until read equals the
    per-cell parser's set of the same file, and a set that differs in one
    cell does not."""
    instrument = _instrument(3, 1, 5)
    data = b"respondent_id,q1,q2,q3\nr1,1,2,3\nr2,4,5,1\nr3, 2,2,2\nr4,9,1,1\n"
    bulk, bulk_report = parse_response_file(data, instrument, ResponseKind.EXPECTATION)
    assert "respondent_ids" not in vars(bulk)  # the ids are still keys
    with _per_cell_only():
        reference, report = parse_response_rows(data, instrument, ResponseKind.EXPECTATION)
    assert bulk == reference and bulk_report == report
    assert bulk != parse_response_file(data.replace(b"r2,4", b"r2,3"), instrument,
                                       ResponseKind.EXPECTATION)[0]


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
    every int64, so that no value is refused for its size), reads every
    record from arrays, with neither csv.reader nor _check_record, and
    gives the per-cell result.  It declines exactly the inputs with a NUL, a
    \\r outside a \\r\\n or a line whose quotes do not all wrap a field
    (which takes in a quoted record that spans lines), and those with a row
    whose first cell that str.strip() does not leave as RELAXED_CELL is a
    longer run of digits."""
    instrument = build_instrument({
        "scale": {"min": -(2**63 - 1), "max": 2**63 - 1},
        "items": [{"id": i, "prompt": f"q{i}", "dimension": "empathy", "kano": "must_be"}
                  for i in range(1, k + 1)],
    })
    header = ",".join(["respondent_id", *(f"q{i}" for i in range(1, k + 1))])
    text = header + "\n" + "\n".join(lines) + ("\n" if trailing else "")
    try:
        got = _line_route(text.encode("ascii"), instrument, ResponseKind.EXPECTATION)
    except DataError:
        got = ()
    body = text.partition("\n")[2]
    declined = ("\x00" in text or "\r" in text.replace("\r\n", "")
                or not all(_wraps(line.removesuffix("\r")) for line in body.split("\n")))
    if not declined:  # each line is one record
        for record in csv.reader(io.StringIO(body, newline="")):
            bad = [cell.strip() for cell in record[1:]
                   if not RELAXED_CELL.fullmatch(cell.strip())]
            if (any(cell.strip() for cell in record) and len(record) == k + 1
                    and record[0].strip() and bad and INT_CELL.fullmatch(bad[0])):
                declined = True
    assert (got is None) == declined, text
    assert _outcome(parse_response_file, text, instrument, ResponseKind.EXPECTATION,
                    MissingPolicy.DROP_ROW) == \
        _outcome(parse_response_rows, text, instrument, ResponseKind.EXPECTATION,
                 MissingPolicy.DROP_ROW)


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


def test_mixed_file_is_read_from_arrays(monkeypatch, xyz_instrument):
    """On a mixed file the line route reads every record from arrays, with
    neither csv.reader nor the per-cell parser: signed, padded, quoted,
    non-ASCII and CRLF records, bad, missing and out-of-range cells, a
    wrong field count, an empty quoted id and a blank quoted line.  Padding
    after a quote, which wraps no field, or a first bad cell of more than 18
    digits makes it decline the file, which parse_response_rows reads."""
    calls = _count_cell_parses(monkeypatch)
    header, rows = _xyz_rows(200)
    cells = [row.split(",") for row in rows]
    cells[10][3] = "+" + cells[10][3]               # signed
    cells[15][4] = f" {cells[15][4]}\t"             # padded
    cells[20][5] = f'" {cells[20][5]}"'             # quoted
    cells[30][2] = "x"                              # bad cell
    cells[35][0] += "\u00e9"                        # non-ASCII ids
    cells[36][0] = "\u9867\u5ba2"
    cells[37][0] = '"M\u00fcller-00042"'
    cells[40][17] = "6"                             # out of range
    cells[45][9] = "\u0663"                         # a digit outside ASCII
    cells[50] = cells[50][:-1]                      # row_length
    cells[55][0] = '""'                             # empty_id
    cells[80][1] = ""                               # missing
    lines = [",".join(row) for row in cells] + ['"",""']  # and a blank line
    lines[60] += "\r"                               # CRLF
    data = (header + "\n" + "\n".join(lines) + "\n").encode()
    rs, report = _line_route(data, xyz_instrument, ResponseKind.EXPECTATION)
    assert calls == []
    assert [(err.row, err.code) for err in report.row_errors] == \
        [(31, "not_an_integer"), (41, "out_of_range"), (46, "not_an_integer"), (51, "row_length"),
         (56, "empty_id"), (81, "missing")]
    assert rs.respondent_ids == tuple(row[0].strip('"') for at, row in enumerate(cells)
                                      if at not in (30, 40, 45, 50, 55, 80))
    assert rs.values[20].tolist() == [int(cell.strip('" ')) for cell in cells[20][1:]]
    _assert_routes_agree(data, xyz_instrument)
    for at, cell in ((25, f'"{cells[25][5]}" '), (65, "0" * 20 + cells[65][5])):
        declined = lines[:]
        declined[at] = ",".join([*cells[at][:5], cell, *cells[at][6:]])
        payload = (header + "\n" + "\n".join(declined) + "\n").encode()
        assert _line_route(payload, xyz_instrument, ResponseKind.EXPECTATION) is None
        _assert_routes_agree(payload, xyz_instrument)


@pytest.mark.parametrize("cells, column, code, declined", [
    (["1", "x", "2", "", "3"], "q2", "not_an_integer", False),
    (["1", " ", "x", "3", "4"], "q2", "missing", False),
    (["1", "2", '"3.0"', "9" * 19, ""], "q3", "not_an_integer", False),
    (["1", "0" * 19 + "2", "x", "", "3"], "q3", "not_an_integer", True),
], ids=["bad_then_missing", "missing_then_bad", "quoted_then_long", "long_then_bad"])
def test_first_bad_cell_gives_the_diagnostic(cells, column, code, declined):
    """A row with several bad cells is rejected for the first, from arrays
    unless a longer run of digits comes before it: the line route declines
    that file."""
    instrument = _instrument(5, 1, 5)
    data = ("respondent_id,q1,q2,q3,q4,q5\nr1,1,2,3,4,5\nr2," + ",".join(cells) + "\n").encode()
    _, report = parse_response_file(data, instrument, ResponseKind.EXPECTATION)
    assert [(err.row, err.column, err.code) for err in report.row_errors] == [(2, column, code)]
    assert (_line_route(data, instrument, ResponseKind.EXPECTATION) is None) == declined
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
    comes from arrays, and the line route declines a longer run of digits."""
    if kind.is_likert:
        instrument, rows = _instrument(3, 1, 5), ["r1,1,2,3", "r2,4,5," + cell]
    else:
        instrument, rows = xyz_instrument, ["r1,20,20,20,20,20", "r2,20,20,20,20," + cell]
    header = ",".join(ingest._expected_header(instrument, kind))
    data = (header + "\n" + "\n".join(rows)).encode()
    _assert_routes_agree(data, instrument, kind)
    assert (_line_route(data, instrument, kind) is None) == cell.lstrip("+").isdigit()


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
            line_route = _line_route(payload, xyz_instrument, ResponseKind.EXPECTATION)
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


#: Quote shapes on data row 2 of a three-item file, between rows r1 and r3
#: (a line without a final newline ends the file): the line, whether the
#: line route declines the file in its block, the ids accepted and the
#: (row, code) rejections.
QUOTE_SHAPES = {
    "quoted_cell": ('r2,"1",2,3\n', False, ("r1", "r2", "r3"), []),
    "empty_quoted_cell": ('r2,1,"",3\n', False, ("r1", "r3"), [(2, "missing")]),
    "padded_inside_quotes": ('r2,1," 1 ",3\n', False, ("r1", "r2", "r3"), []),
    "quoted_last_cell_before_crlf": ('r2,1,2,"3"\r\n', False, ("r1", "r2", "r3"), []),
    "quoted_last_cell_at_eof": ('r2,1,2,"3"', False, ("r1", "r2"), []),
    "doubled_quote_in_id": ('"a""b",1,2,3\n', True, ("r1", 'a"b', "r3"), []),
    "comma_in_id": ('"X, J",1,2,3\n', True, ("r1", "X, J", "r3"), []),
    "lone_quote": ('r2,1,",3\n', True, ("r1",), [(2, "row_length")]),
    "quote_inside_cell": ('r2,1"2,2,3\n', True, ("r1", "r3"), [(2, "not_an_integer")]),
    "text_after_closing_quote": ('r2,"1"2,2,3\n', True, ("r1", "r3"), [(2, "out_of_range")]),
    "escaped_quote_alone": ('r2,"""",2,3\n', True, ("r1", "r3"), [(2, "not_an_integer")]),
    "space_before_opening_quote": ('r2, "1",2,3\n', True, ("r1", "r3"),
                                   [(2, "not_an_integer")]),
}


@pytest.mark.parametrize("shape", QUOTE_SHAPES)
def test_quote_shapes(shape):
    """The line route reads an id or cell whose only quotes are its first and
    last byte, and declines any other quote in the block that holds it;
    either way parse_response_file gives parse_response_rows' outcome, from
    bytes and from str, under both policies (csv.reader reads '"1"2' as 12)."""
    line, declined, ids, rejected = QUOTE_SHAPES[shape]
    instrument = _instrument(3, 1, 5)
    text = "respondent_id,q1,q2,q3\nr1,1,2,3\n" + line
    text += "r3,4,5,1\n" if line.endswith("\n") else ""
    for payload in (text.encode(), text):
        assert ingest.cut_lines(payload, instrument, ResponseKind.EXPECTATION) is not None
        assert (_line_route(payload, instrument, ResponseKind.EXPECTATION) is None) == declined
        _assert_routes_agree(payload, instrument)
        rs, report = parse_response_file(payload, instrument, ResponseKind.EXPECTATION)
        assert rs.respondent_ids == ids
        assert [(err.row, err.code) for err in report.row_errors] == rejected


@pytest.mark.parametrize("form", ["str", "bytes", "bom_bytes"])
def test_block_decline_reads_the_input_as_given(form, monkeypatch):
    """A loose quote in the second block hands the input to
    parse_response_rows, which reads the bytes that cut_lines checked: the
    outcome is parse_response_rows' on the input as given, under both
    policies, for a str, for bytes and for bytes after a byte-order mark."""
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 30)
    instrument = _instrument(3, 1, 5)
    lines = ["r1,1,2,3", "\u00e92,4,5,1", "r3,1,,2", 'r4,1"2,2,3', "r5,2,2,2", "r6,3,3,3"]
    text = "respondent_id,q1,q2,q3\r\n" + "\n".join(lines) + "\n"
    payload = {"str": text, "bytes": text.encode(),
               "bom_bytes": codecs.BOM_UTF8 + text.encode()}[form]
    blocks = ingest.cut_lines(payload, instrument, ResponseKind.EXPECTATION)
    for at in range(len(blocks)):
        blocks.parse(at)
    assert [bool(part) for part in blocks.parts] == [True, False]
    for policy in MissingPolicy:
        assert _outcome(parse_response_file, payload, instrument, ResponseKind.EXPECTATION,
                        policy) == _outcome(parse_response_rows, payload, instrument,
                                            ResponseKind.EXPECTATION, policy)
    rs, report = parse_response_file(payload, instrument, ResponseKind.EXPECTATION)
    assert rs.respondent_ids == ("r1", "\u00e92", "r5", "r6")
    assert [(err.row, err.code) for err in report.row_errors] == \
        [(3, "missing"), (4, "not_an_integer")]


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
        assert _outcome(_line_route, data, xyz_instrument, kind, policy) == reference
        if policy is MissingPolicy.DROP_ROW:
            assert {err.code for err in reference[-1].row_errors} == codes


#: Ids around the 8 bytes that one key holds: 1 to 8 bytes, pairs that
#: differ only in byte 8, and wider ids that share their first 8 bytes;
#: UTF-8 ids of 2 to 13 bytes, one with a code point across bytes 8 and 9.
ID_SEEDS = ("a", "Z9", "r000001", "abcdefgh", "abcdefgi", "abcdefghX", "abcdefghY",
            "abcdefgiX", "#+!~.-_@", "r0000001234", "\u00e9", "\u9867\u5ba2", "abcdef\u00e9",
            "abcdefg\u00e9", "abcdefg\u00e8", "M\u00fcller-00042")
#: The ways an id is written that leave the same id once read: padded,
#: quoted, or both.
ID_DRESSINGS = ("{}", " {} ", "\t{}", '"{}"', '" {}"', '"{} "')


@st.composite
def id_files(draw):
    """(instrument, kind, file bytes): every data row valid but for its id,
    which may repeat another once stripped."""
    kind = draw(st.sampled_from(list(ResponseKind)))
    k = draw(st.integers(1, 3)) if kind.is_likert else 5
    header = ["respondent_id", *([f"q{i}" for i in range(1, k + 1)] if kind.is_likert
                                 else IMPORTANCE_COLUMNS)]
    ids = draw(st.lists(st.sampled_from(ID_SEEDS) | st.text(alphabet="ab8", min_size=1,
                                                             max_size=10), min_size=1,
                        max_size=25))
    lines = [",".join(header)]
    for respondent_id in ids:
        cells = draw(ALLOCATIONS) if not kind.is_likert else \
            draw(st.lists(st.integers(1, 5), min_size=k, max_size=k))
        lines.append(",".join([draw(st.sampled_from(ID_DRESSINGS)).format(respondent_id),
                               *map(str, cells)]))
    return _instrument(k, 1, 5), kind, ("\n".join(lines) + "\n").encode("utf-8")


@settings(max_examples=examples(200), deadline=None)
@given(id_files())
def test_line_route_ids_match_the_per_cell_parser(case):
    """The line route's ids, held as keys until read, against the per-cell
    parser's: its duplicate_id diagnostics are right before any read of the
    ids and stay so after it.  A set holds its ids unread exactly when they
    are all of 1 to 8 UTF-8 bytes and none repeats."""
    instrument, kind, data = case
    for payload, policy in itertools.product((data, data.decode("utf-8")), MissingPolicy):
        with _per_cell_only():
            reference = _outcome(parse_response_rows, payload, instrument, kind, policy)
        try:
            rs, report = parse_response_file(payload, instrument, kind, policy)
        except DataError as exc:
            assert ("DataError", str(exc)) == reference
            continue
        assert report == reference[-1]  # before any read of the ids
        ids = reference[-2]
        lazy = max(len(respondent_id.encode()) for respondent_id in ids) <= 8 \
            and report.rejected_rows == 0
        assert ("respondent_ids" not in vars(rs)) == lazy
        assert rs.respondent_ids == ids
        assert report == reference[-1]  # and after it


@settings(max_examples=examples(100), deadline=None)
@given(id_files())
def test_block_budget_changes_no_id(case):
    """The same across block budgets on the files of repeated and wide ids
    that test_line_route_ids_match_the_per_cell_parser draws."""
    instrument, kind, data = case
    _assert_blocks_agree(data, instrument, kind)


#: A data line that the one-byte case reads: a CANONICAL_ROW id, then k
#: cells of one digit each.
ONE_BYTE_ROW = r"[!#-+\--~]+(?:,[0-9]){%d}"
#: Near misses of a one-byte line, as edits of its fields: each leaves the
#: one-byte case to the strict case, the general case or the per-cell
#: parser.  ":" and "/" are the bytes just above and below the digits.
ONE_BYTE_MISSES = {
    "leading_zero": lambda fields: [fields[0], "0" + fields[1], *fields[2:]],
    "signed": lambda fields: [fields[0], "+" + fields[1], *fields[2:]],
    "extra_cell": lambda fields: [*fields, fields[1]],
    "missing_cell": lambda fields: fields[:-1],
    "quoted_cell": lambda fields: [*fields[:-1], f'"{fields[-1]}"'],
    "tab": lambda fields: [fields[0], fields[1] + "\t", *fields[2:]],
    "colon_cell": lambda fields: [*fields[:-1], ":"],
    "slash_cell": lambda fields: [fields[0], "/", *fields[2:]],
    "empty_id": lambda fields: ["", *fields[1:]],
    "quoted_id": lambda fields: [f'"{fields[0]}"', *fields[1:]],
    "blank_line": lambda fields: [""],
}
#: Ids of 1 to 12 UTF-8 bytes: printable ASCII but the comma and the
#: quote, or text outside ASCII.
ONE_BYTE_IDS = st.text(alphabet=[chr(c) for c in range(0x21, 0x7F) if chr(c) not in ',"'],
                       min_size=1, max_size=12) | \
    st.sampled_from([text for text in NON_ASCII if len(text.encode()) <= 12])


@st.composite
def one_byte_files(draw):
    """(instrument, kind, k, data lines, file bytes, block budget): a Likert
    file under a scale inside 0 to 9, its cells one digit each, inside or
    outside the scale, its ids repeating one another now and then, its lines
    ended by LF or CRLF, the last one maybe by neither, and a few lines
    edited into a ONE_BYTE_MISSES near miss."""
    lo = draw(st.integers(0, 8))
    hi = draw(st.integers(lo + 1, 9))
    k = draw(st.integers(1, 6))
    pool = draw(st.lists(ONE_BYTE_IDS, min_size=1, max_size=6))
    ids = draw(st.lists(st.sampled_from(pool) | ONE_BYTE_IDS, min_size=1, max_size=20))
    lines = []
    for respondent_id in ids:
        fields = [respondent_id, *map(str, draw(st.lists(st.integers(0, 9), min_size=k,
                                                         max_size=k)))]
        miss = draw(st.sampled_from([None] * 8 + list(ONE_BYTE_MISSES)))
        lines.append(",".join(ONE_BYTE_MISSES[miss](fields) if miss else fields))
    header = ",".join(["respondent_id", *(f"q{i}" for i in range(1, k + 1))])
    ends = [draw(st.sampled_from(["\n", "\r\n"])) for _ in lines]
    ends[-1] = ends[-1] if draw(st.booleans()) else ""
    text = header + "\n" + "".join(line + end for line, end in zip(lines, ends))
    kind = draw(st.sampled_from([ResponseKind.EXPECTATION, ResponseKind.PERCEPTION]))
    return (_instrument(k, lo, hi), kind, k, lines, text.encode("utf-8"),
            draw(st.integers(1, 120)))


@settings(max_examples=examples(200), deadline=None)
@given(one_byte_files())
# A header-only file: one empty block, which the one-byte case takes.
@example((_instrument(1, 0, 1), ResponseKind.EXPECTATION, 1, [""], b"respondent_id,q1\n", 1))
def test_one_byte_case_matches_the_per_cell_parser(case):
    """The one-byte case against the per-cell parser, bytes and ``str``,
    under both policies, in small blocks.  A block takes the one-byte case
    exactly when each of its lines matches ONE_BYTE_ROW, so that the case
    can neither read a near miss nor stop reading a clean block unseen."""
    instrument, kind, k, lines, data, budget = case
    took = {}
    real = ingest.LineBlocks._one_byte

    def spy(blocks, first, *args):
        result = real(blocks, first, *args)
        took[first] = result is not None
        return result

    pattern = re.compile(ONE_BYTE_ROW % k)
    with mock.patch.object(ingest, "BLOCK_BYTES", budget), \
            mock.patch.object(ingest.LineBlocks, "_one_byte", spy):
        blocks = ingest.cut_lines(data, instrument, kind)
        for at in range(len(blocks)):
            blocks.parse(at)
        for at, first in enumerate(blocks.firsts):
            last = blocks.firsts[at + 1] if at + 1 < len(blocks) else len(blocks.edges) - 1
            assert took.get(first, False) == \
                all(pattern.fullmatch(line) for line in lines[first:last]), (data, first)
        for payload, policy in itertools.product((data, data.decode("utf-8")), MissingPolicy):
            with _per_cell_only():
                reference = _outcome(parse_response_rows, payload, instrument, kind, policy)
            assert _outcome(parse_response_file, payload, instrument, kind, policy) == \
                reference, payload


def test_line_route_set_survives_copies_comparison_and_repr(xyz_instrument):
    """A set whose ids are still keys: every pickle protocol, copy and
    deepcopy keeps them unread (an unset attribute raises AttributeError
    rather than recursing while the copy is built) and reads the ids of the
    per-cell parser; == and repr match that parser's set."""
    header, rows = _xyz_rows(40)
    data = (header + "\n" + "\n".join(rows) + "\n").encode()
    rs, _ = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)
    reference, _ = parse_response_rows(data, xyz_instrument, ResponseKind.EXPECTATION)
    copies = [pickle.loads(pickle.dumps(rs, protocol)) for protocol in
              range(pickle.HIGHEST_PROTOCOL + 1)] + [copy.copy(rs), copy.deepcopy(rs)]
    for copied in [rs, *copies]:
        assert "respondent_ids" not in vars(copied)
        assert not hasattr(copied, "no_such_field")
    for copied in copies:
        assert copied.respondent_ids == reference.respondent_ids
        assert copied.values.tolist() == reference.values.tolist()
    assert repr(rs) == repr(reference)
    assert rs == rs
    one = b"respondent_id,q1\nr1,4\n"
    instrument = _instrument(1, 1, 5)
    single = parse_response_file(one, instrument, ResponseKind.EXPECTATION)[0]
    assert "respondent_ids" not in vars(single)
    assert single == parse_response_rows(one, instrument, ResponseKind.EXPECTATION)[0]


def test_unread_validation_report_matches_the_constructed_one(xyz_instrument):
    """A report whose RowErrors are not built yet: ==, hash, repr, every
    pickle protocol, copy and deepcopy match the report that the public
    constructor builds from the same RowErrors, and a copy holds the same
    state as that report.  Each of these reads row_errors once; a second
    read gives the same tuple."""
    data = dirty_xyz_csv()

    def unread():
        report = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)[1]
        assert "row_errors" not in vars(report)
        assert not hasattr(report, "no_such_field")
        return report

    reference = parse_response_rows(data, xyz_instrument, ResponseKind.EXPECTATION)[1]
    public = ValidationReport(row_errors=tuple(RowError(*vars(err).values())
                                               for err in reference.row_errors),
                              accepted_rows=reference.accepted_rows,
                              rejected_rows=reference.rejected_rows)
    assert public.rejected_rows == 6 and {err.code for err in public.row_errors} == {
        "row_length", "empty_id", "missing", "not_an_integer", "out_of_range", "duplicate_id"}
    assert unread().diagnostics == public.diagnostics == tuple(
        (err.row, err.column, err.code, err.message) for err in public.row_errors)
    assert unread() == public and public == unread()
    assert hash(unread()) == hash(public)
    assert repr(unread()) == repr(public)
    copies = [pickle.loads(pickle.dumps(unread(), protocol))
              for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    for copied in [*copies, copy.copy(unread()), copy.deepcopy(unread())]:
        assert vars(copied) == vars(public)
    report = unread()
    assert report.row_errors is report.row_errors
    assert report == public


#: Edits of a Likert line's fields that take its block out of the one-byte
#: case (to the strict or the general case) or refuse the row.
MOMENT_EDITS = {
    "two_digits": lambda fields, hi: [fields[0], f"0{fields[1]}", *fields[2:]],
    "quoted": lambda fields, hi: [*fields[:-1], f'"{fields[-1]}"'],
    "padded": lambda fields, hi: [fields[0], f" {fields[1]}\t", *fields[2:]],
    "signed": lambda fields, hi: [fields[0], f"+{fields[1]}", *fields[2:]],
    "out_of_scale": lambda fields, hi: [*fields[:-1], str(hi + 1)],
    "empty_cell": lambda fields, hi: [fields[0], "", *fields[2:]],
    "missing_cell": lambda fields, hi: fields[:-1],
}


@st.composite
def likert_block_files(draw):
    """(instrument, kind, file bytes, block budget): a Likert file whose
    blocks take each of the three cases, its scale inside 0 to 9 or wider,
    a negative minimum among them, a few of its lines edited by
    MOMENT_EDITS, its ids repeating now and then anywhere in the file, its
    lines ended by LF or CRLF."""
    lo = draw(st.sampled_from([0, 1, 1, 2, -3]))
    hi = draw(st.sampled_from([lo + 1, 5, 7, 9, 12, 99]).filter(lambda h: h > lo))
    k = draw(st.integers(1, 6))
    pool = draw(st.lists(st.text(alphabet="abcXYZ0129_-", min_size=1, max_size=6), min_size=1,
                         max_size=4))
    ids = draw(st.lists(st.sampled_from(pool) | st.text(alphabet="abcXYZ0129_-", min_size=1,
                                                        max_size=6), min_size=1, max_size=30))
    lines = []
    for respondent_id in ids:
        fields = [respondent_id, *map(str, draw(st.lists(st.integers(lo, hi), min_size=k,
                                                         max_size=k)))]
        edit = draw(st.sampled_from([None] * 10 + list(MOMENT_EDITS)))
        lines.append(",".join(MOMENT_EDITS[edit](fields, hi) if edit else fields))
    header = ",".join(["respondent_id", *(f"q{i}" for i in range(1, k + 1))])
    text = header + "\n" + "".join(line + draw(st.sampled_from(["\n", "\r\n"]))
                                   for line in lines)
    kind = draw(st.sampled_from([ResponseKind.EXPECTATION, ResponseKind.PERCEPTION]))
    budget = draw(st.integers(1, 120) | st.just(1 << 40))  # or one block, larger than the file
    return _instrument(k, lo, hi), kind, text.encode(), budget


def _assert_exact_moments(rs) -> None:
    """The S and X'X that a set's parse kept are its values' sums and cross
    products in Python integers, and psychometrics reads from them the
    moments that _moments reads from its values."""
    sums, gram = vars(rs)["_gram"]
    columns = list(zip(*rs.values.tolist()))
    assert sums.dtype == gram.dtype == np.int64
    assert sums.tolist() == [sum(column) for column in columns]
    assert gram.tolist() == [[sum(a * b for a, b in zip(ci, cj)) for cj in columns]
                             for ci in columns]
    shared = psychometrics._unpack(rs)[1]
    reference = psychometrics._moments(rs.values, cross=True)
    assert shared[2] == reference[2] == len(rs.values)
    assert [shared[0].tolist(), shared[1].tolist()] == \
        [reference[0].tolist(), reference[1].tolist()]


@settings(max_examples=examples(200), deadline=None)
@given(likert_block_files())
def test_parse_time_moments_are_exact(case):
    """Blocks parsed last to first, as the lanes may finish them: the set
    keeps the S and X'X its blocks summed exactly when no row was dropped
    at the join for a repeated id, and they are exact."""
    instrument, kind, data, budget = case
    with mock.patch.object(ingest, "BLOCK_BYTES", budget):
        blocks = ingest.cut_lines(data, instrument, kind)
        for at in reversed(range(len(blocks))):
            blocks.parse(at)
        try:
            rs, report = blocks.result(MissingPolicy.DROP_ROW)
        except DataError:  # no valid row
            return
    dropped = any(code == "duplicate_id" for _, _, code, _ in report.diagnostics)
    assert ("_gram" in vars(rs)) == (all(blocks.parts) and not dropped)
    if "_gram" in vars(rs):
        _assert_exact_moments(rs)


def test_sets_without_parse_time_moments_read_the_same_statistics(xyz_instrument):
    """A set whose rows were dropped at the join and one from a file that the
    line route declined keep no parse-time moments, and their descriptives
    and reliability report equal those of the set of the same rows that
    kept them."""
    header, rows = _xyz_rows(60)
    clean = (header + "\n" + "\n".join(rows) + "\n").encode()
    repeated = clean + rows[0].encode() + b"\n"
    declined = clean + b'late,3",' + b",".join([b"4"] * 16) + b"\n"
    kind = ResponseKind.EXPECTATION
    kept = parse_response_file(clean, xyz_instrument, kind)[0]
    _assert_exact_moments(kept)
    assert _line_route(declined, xyz_instrument, kind) is None

    def statistics(rs):
        return ([psychometrics.item_descriptives(rs, xyz_instrument, mode)
                 for mode in psychometrics.VarianceMode],
                psychometrics.reliability_report(rs, xyz_instrument))

    expected = statistics(kept)
    for data in (repeated, declined):
        rs, report = parse_response_file(data, xyz_instrument, kind)
        assert report.rejected_rows == 1 and rs == kept
        assert "_gram" not in vars(rs)
        assert statistics(rs) == expected


@pytest.mark.parametrize("budget", [500, 1 << 40], ids=["blocks", "one_block"])
@pytest.mark.parametrize("rejected", [0, 1])
@pytest.mark.parametrize("lines", [120, 121])
def test_parse_time_moments_stop_at_the_exact_route_by_line_count(lines, rejected, budget):
    """With a scale bound of 2**20 and k = 17, the exact route's guard holds
    for 120 rows and not for 121.  A file of 120 data lines keeps the S and
    X'X its blocks summed and one of 121 keeps none, whether or not a row
    is rejected, as the line count bounds the accepted rows; either way its
    descriptives and reliability report are those of the constructor's set
    of the same rows."""
    k, bound = 17, 2**20
    assert ingest._exact_route(120, k, bound) and not ingest._exact_route(121, k, bound)
    instrument, kind = _instrument(k, 1, bound), ResponseKind.EXPECTATION
    rng = np.random.default_rng(lines + rejected)
    rows = rng.integers(1, bound + 1, size=(lines, k)).tolist()
    rows[7][3] -= rows[7][3] * rejected  # a 0 lies outside the scale
    header = ",".join(["respondent_id", *(f"q{i}" for i in range(1, k + 1))])
    data = "\n".join([header, *(f"r{at},{','.join(map(str, row))}"
                                for at, row in enumerate(rows))]) + "\n"
    with mock.patch.object(ingest, "BLOCK_BYTES", budget):
        rs, report = parse_response_file(data.encode(), instrument, kind)
    assert report.rejected_rows == rejected and rs.n_respondents == lines - rejected
    assert ("_gram" in vars(rs)) == (lines == 120)
    if lines == 120:
        _assert_exact_moments(rs)
    built = ResponseSet(kind=kind, instrument_ref=rs.instrument_ref, values=rs.values,
                        respondent_ids=rs.respondent_ids)

    def statistics(responses):
        return ([psychometrics.item_descriptives(responses, instrument, mode)
                 for mode in psychometrics.VarianceMode],
                psychometrics.reliability_report(responses, instrument))

    assert statistics(rs) == statistics(built)


#: Cells that are not 1 to 18 ASCII digits, which _digit_values marks.
MISFITS = ("", "9" * 19, "1" * 25, "1a", "a1", ":", "/", "-1", " 7", "12 ")


@st.composite
def digit_cells(draw):
    """Cells of 1 to 18 digits, none, a few, half, most or all of them wider
    than one digit, and now and then one of MISFITS."""
    share = draw(st.sampled_from([0, 1, 5, 9, 10]))  # tenths of the cells wider than one digit
    cells = []
    for _ in range(draw(st.integers(1, 40))):
        if draw(st.integers(0, 15)) == 0:
            cells.append(draw(st.sampled_from(MISFITS)))
            continue
        width = draw(st.integers(2, 18)) if draw(st.integers(0, 9)) < share else 1
        cells.append(draw(st.text(alphabet="0123456789", min_size=width, max_size=width)))
    return cells


def _cell_bounds(cells: list[str]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The line of the cells, joined by commas, as bytes, and each cell's
    start and end."""
    widths = np.array([len(cell) for cell in cells])
    ends = np.cumsum(widths + 1) - 1
    return np.frombuffer((",".join(cells) + "\n").encode(), dtype=np.uint8), ends - widths, ends


@settings(max_examples=examples(200), deadline=None)
@given(digit_cells(), st.booleans())
def test_digit_values_reads_every_width(cells, grid):
    """Each cell of 1 to 18 digits reads as int(cell) and every other cell is
    marked, in a row of cells or a grid of two columns, whatever the share
    of wide cells."""
    raw, starts, ends = _cell_bounds(cells)
    if grid and len(cells) % 2 == 0:
        starts, ends = starts.reshape(-1, 2), ends.reshape(-1, 2)
    values, misfit = ingest._digit_values(raw, starts, ends)
    fits = [re.fullmatch(r"[0-9]{1,18}", cell) is not None for cell in cells]
    assert misfit.ravel().tolist() == [not fit for fit in fits]
    assert [value for value, fit in zip(values.ravel().tolist(), fits) if fit] == \
        [int(cell) for cell, fit in zip(cells, fits) if fit]


class _Gathers(np.ndarray):
    """Bytes that record the size of each gather from them."""

    def take(self, indices, *args, **kwargs):
        self.sizes.append(np.size(indices))
        return np.asarray(self).take(indices, *args, **kwargs)


@pytest.mark.parametrize("cells, dense", [
    (["7"] * 99 + ["1" * 18], 1),
    (["12"] * 60 + ["3"] * 40, 2),
    (["100"] * 51 + ["5"] * 49, 3),
    (["100"] * 10 + ["50"] * 50 + ["5"] * 40, 2),
], ids=["one_wide_cell", "most_two_digits", "most_three_digits", "few_three_digits"])
def test_digit_places_are_read_in_every_cell_only_while_most_cells_reach_them(cells, dense):
    """The first place and each later place that most cells reach are
    gathered over every cell, ``dense`` gathers in all; a later place that
    half the cells or fewer reach is gathered over those cells alone."""
    raw, starts, ends = _cell_bounds(cells)
    raw = raw.view(_Gathers)
    raw.sizes = []
    values, misfit = ingest._digit_values(raw, starts, ends)
    assert values.tolist() == list(map(int, cells)) and not misfit.any()
    assert raw.sizes.count(len(cells)) == dense
    assert all(size <= len(cells) // 2 for size in raw.sizes if size != len(cells))
