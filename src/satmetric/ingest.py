"""Response-file ingestion and synthetic response generation.

Three CSV schemas are accepted, all UTF-8 (a leading byte-order mark is
skipped) with a header row and plain integer cells:

* expectation / perception: ``respondent_id,q1,...,qk`` (k = item count)
* importance:  ``respondent_id,tangibles,reliability,responsiveness,assurance,empathy``
  where every row allocates 100 points in multiples of five

Parsing is a pure function of the file bytes; the returned ResponseSet is
immutable.  Rows that violate the schema are either dropped (listwise,
with a row-level diagnostic) or abort the parse, per MissingPolicy.

Two routes read a file; each yields its result, row diagnostics and
errors.

* Line route: bytes, and ``str`` input encoded to UTF-8 (with no byte-order
  mark removed).  Its strict case reads a strict file at once with array
  arithmetic over its bytes: no double quote, k commas to a line, no byte
  outside ``!`` to ``~`` in the body but the line ends, every id non-empty
  and every cell 1 to 18 digits; _value_error checks the values of each row
  that fails the scale or allocation check.  Any other file has all its
  lines classified at once, and each line is one record.  A line that
  holds a double quote is read by csv.reader; every other line is split
  on commas.  A quote-free ASCII line whose id str.strip() leaves
  non-empty and whose cells it leaves as an optional sign and 1 to 18
  digits is converted in bulk; _value_error checks the values of each
  converted row.  The rest go through _check_record, which parses their
  cells and calls _value_error, so every row diagnostic but
  ``duplicate_id`` comes from these two.  The route declines input that is
  not UTF-8, holds a NUL byte or a carriage return not followed by a
  newline, is empty, has a header line that holds a double quote or does
  not match, has a line of csv.field_size_limit() bytes or more, line end
  included, or has an id or a cell whose quotes take in a line end: a
  quoted record that spans lines, or a last line whose quote is not closed
  before its newline.
* Per-cell: parse_response_rows reads every record with csv.reader and
  checks it cell by cell.  It reads every input the line route declines.

tests/test_ingest_routes.py holds the line route to parse_response_rows
and its checks to the patterns they stand in for.
"""

from __future__ import annotations

import codecs
import csv
import io
import math
import random
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence

import numpy as np

from .errors import DataError
from .instrument import LikertScale, SurveyInstrument

#: Fixed importance-file column order (one column per dimension).
IMPORTANCE_COLUMNS: tuple[str, ...] = (
    "tangibles",
    "reliability",
    "responsiveness",
    "assurance",
    "empathy",
)

IMPORTANCE_TOTAL = 100
IMPORTANCE_STEP = 5


class ResponseKind(str, Enum):
    EXPECTATION = "expectation"
    PERCEPTION = "perception"
    IMPORTANCE = "importance"

    @property
    def is_likert(self) -> bool:
        return self is not ResponseKind.IMPORTANCE


class MissingPolicy(str, Enum):
    DROP_ROW = "drop_row"
    FAIL = "fail"


@dataclass(frozen=True)
class RowError:
    """One rejected row: 1-based data-row index, offending column, machine
    code, and a human-readable message."""

    row: int
    column: str
    code: str
    message: str


@dataclass(frozen=True)
class ValidationReport:
    row_errors: tuple[RowError, ...]
    accepted_rows: int
    rejected_rows: int

    @property
    def total_rows(self) -> int:
        return self.accepted_rows + self.rejected_rows


@dataclass(frozen=True)
class ResponseSet:
    """N x k integer response matrix of one kind, N >= 1, one respondent id
    per row.  ``values`` is read-only.

    The constructor checks the shape, the id count and, for importance (k
    is 5), that every row allocates exactly 100 points in multiples of
    five.  It does not check Likert cells against a scale:
    parse_response_file rejects the rows outside it, and generate_synthetic
    stays within it by construction.
    """

    kind: ResponseKind
    instrument_ref: str
    values: np.ndarray
    respondent_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        values = np.array(self.values, dtype=np.int64, copy=True, order="C")
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if values.ndim != 2 or values.shape[0] < 1:
            raise DataError("response matrix must be N x k with N >= 1")
        if len(self.respondent_ids) != values.shape[0]:
            raise DataError("respondent_ids length must match row count")
        if self.kind is ResponseKind.IMPORTANCE:
            if values.shape[1] != len(IMPORTANCE_COLUMNS):
                raise DataError("importance matrix must have exactly 5 columns")
            bad = np.flatnonzero(_invalid_allocations(values))
            if bad.size:
                violation = validate_importance_row([int(v) for v in values[bad[0]]])
                raise DataError(f"importance row {bad[0] + 1} violates {violation}")

    @property
    def n_respondents(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.values.shape[1])


def validate_importance_row(row: Sequence[int]) -> str | None:
    """Return None when the allocation is valid, else a violation code.

    Valid means: the five values sum to exactly 100 and each is a
    nonnegative multiple of five no greater than 100.
    """
    if len(row) != len(IMPORTANCE_COLUMNS):
        return "row_length"
    if sum(row) != IMPORTANCE_TOTAL:
        return "sum_not_100"
    for value in row:
        if value < 0 or value > IMPORTANCE_TOTAL:
            return "out_of_range"
    for value in row:
        if value % IMPORTANCE_STEP != 0:
            return "not_multiple_of_five"
    return None


def _invalid_allocations(values: np.ndarray) -> np.ndarray:
    """Row mask of an N x 5 integer matrix: True where
    validate_importance_row would report a violation."""
    out_of_step = (values < 0) | (values > IMPORTANCE_TOTAL) | (values % IMPORTANCE_STEP != 0)
    return out_of_step.any(axis=1) | (values.sum(axis=1) != IMPORTANCE_TOTAL)


def _expected_header(instrument: SurveyInstrument, kind: ResponseKind) -> list[str]:
    if kind.is_likert:
        return ["respondent_id"] + [f"q{item.id}" for item in instrument.items]
    return ["respondent_id", *IMPORTANCE_COLUMNS]


_INT_CELL = re.compile(r"[+-]?[0-9]+")


def _parse_int_cell(cell: str) -> int | None:
    """Strict ASCII integer parse; decimals, underscores, and other noise
    are rejected."""
    text = cell.strip()
    if not text or not _INT_CELL.fullmatch(text):
        return None
    return int(text, 10)


def parse_response_file(
    data: bytes | str,
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy = MissingPolicy.DROP_ROW,
) -> tuple[ResponseSet, ValidationReport]:
    """Parse one CSV response file into a validated ResponseSet.

    Returns the set built from accepted rows plus a report enumerating every
    rejection.  Raises DataError on malformed CSV, header mismatch, zero
    accepted rows, or (with policy=fail) the first bad row in file order.
    The line route reads the file unless it declines it, and then
    parse_response_rows does; the result, and any error, is the same.
    """
    parsed = _parse_lines(data, instrument, kind, policy)
    if parsed is not None:
        return parsed
    return parse_response_rows(data, instrument, kind, policy)


_ID_COLUMN = "respondent_id"


def _digit_values(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The N x k values of the cells ``raw[starts:ends]`` (elementwise) and
    the mask of the rows whose every cell is 1 to 18 digits (an int64 holds
    every 18-digit number); the values of other rows are meaningless.
    Advances ``starts`` and overwrites ``ends``: each large temporary is
    paid for in page faults, so callers hand over theirs."""
    widths = np.subtract(ends, starts, out=ends)
    valid = ~_rows_with((widths < 1) | (widths > 18))
    widths[~valid] = 0
    widths = widths.astype(np.int8)
    # Horner's rule, one gather per digit place: several times faster than
    # converting the split cells with astype.  Every cell of a valid row
    # has a first digit; the later places update only the cells that have
    # them.  A gather past the end of ``raw`` reads its last byte, unused.
    worst = raw.take(starts, mode="clip") - ord("0")  # other bytes wrap above 9
    values = worst.astype(np.int64)
    for place in range(1, int(widths.max(initial=0))):
        starts += 1
        has = widths > place
        digits = raw.take(starts, mode="clip") - ord("0")
        np.maximum(worst, digits, out=worst, where=has)
        np.multiply(values, 10, out=values, where=has)
        np.add(values, digits, out=values, where=has)
    valid &= ~_rows_with(worst > 9)
    return values, valid


def _rows_with(cells: np.ndarray) -> np.ndarray:
    """Row mask of an N x k cell mask: True where a row holds a True cell.
    The same as cells.any(axis=1), and faster when few cells are True."""
    rows = np.zeros(len(cells), dtype=bool)
    rows[np.flatnonzero(cells) // cells.shape[1]] = True
    return rows


def _texts(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The ASCII text of each span ``raw[starts:ends]``, none of which holds
    a newline: one gather takes each span and the byte at its end, which
    becomes the newline that one split cuts at."""
    if not len(starts):
        return []
    stops = np.cumsum(ends - starts + 1)
    # The offsets to gather step by one within a span, and jump from the
    # end of each span to the start of the next: one array, summed in place.
    steps = np.ones(stops[-1], dtype=np.int64)
    steps[0], steps[stops[:-1]] = starts[0], starts[1:] - ends[:-1]
    text = raw[np.cumsum(steps, out=steps)]
    text[stops - 1] = ord("\n")
    return text.tobytes().decode("ascii").split("\n")[:-1]


def _invalid_rows(values: np.ndarray, scale: LikertScale, kind: ResponseKind) -> np.ndarray:
    """Row mask: True where a row of values is outside the Likert scale or,
    for importance, not a valid allocation."""
    if kind.is_likert:
        return _rows_with((values < scale.min) | (values > scale.max))
    return _invalid_allocations(values)


def _refused(values: np.ndarray, valid: np.ndarray, rows: np.ndarray, expected: list[str],
             scale: LikertScale, kind: ResponseKind) -> list[RowError]:
    """The errors of the converted rows (``valid``) of ``values`` that fail
    the scale or allocation check, which are cleared from ``valid``; ``rows``
    holds the data-row numbers of ``values``."""
    refused = valid & _invalid_rows(values, scale, kind)
    valid &= ~refused
    return [_value_error(cells, row, expected, scale, kind)
            for cells, row in zip(values[refused].tolist(), rows[refused].tolist())]


#: The ASCII bytes that str.strip() removes, but for the line ends: within
#: a line's text, the padding a cell or an id may carry.
_PAD = np.array([b < 0x80 and chr(b).isspace() and b not in b"\r\n" for b in range(256)])


def _parse_lines(
    data: bytes | str,
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy,
) -> tuple[ResponseSet, ValidationReport] | None:
    """Line route (see the module docstring): the result of
    parse_response_rows, or None for an input it declines.  Data line i
    (from 0) is data row i + 1."""
    expected = _expected_header(instrument, kind)
    data = _line_input(data, expected)
    if data is None:
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    edges = np.append(0, np.flatnonzero(raw == ord("\n")) + 1)
    if edges[-1] < len(raw):
        edges = np.append(edges, len(raw))
    if np.diff(edges).max() >= csv.field_size_limit():
        return None
    # Data line i is raw[starts[i]:ends[i]], line end included, and its text
    # is raw[starts[i]:stops[i]].  Every \r precedes a \n.
    starts, ends = edges[1:-1], edges[2:]
    stops = ends - (raw[ends - 1] == ord("\n"))
    stops -= raw[stops - 1] == ord("\r")
    k = len(expected) - 1
    commas = np.flatnonzero(raw == ord(","))
    # Sparse offsets of the bytes outside "!" to "~" (the subtraction wraps
    # below "!"): the padding and the non-ASCII bytes are among them.
    odd = np.flatnonzero((raw - np.uint8(ord("!"))) > ord("~") - ord("!"))
    # A strict file: no quote, k commas to a line (the header holds k), and no
    # body byte outside "!" to "~" but the line ends.  Row i of the grid holds
    # line i's commas only if each line holds k of them, which the first-comma
    # check and the cell widths that _digit_values checks ensure only when
    # they hold on every line.
    if (b'"' not in data and len(commas) == k * (len(starts) + 1)
            and len(odd) - np.searchsorted(odd, edges[1]) == (ends - stops).sum()):
        grid = commas[k:].reshape(-1, k)
        if (grid[:, 0] > starts).all():
            values, valid = _digit_values(raw, grid + 1, np.column_stack((grid[:, 1:], stops)))
            if valid.all():
                rows = np.arange(1, len(starts) + 1)
                errors = _refused(values, valid, rows, expected, instrument.scale, kind)
                if errors:  # keep the rows that pass
                    rows, values, starts, grid = (a[valid] for a in (rows, values, starts, grid))
                return _result(instrument, kind, policy, rows,
                               _texts(raw, starts, grid[:, 0]), values, errors)

    quoted = np.zeros(len(starts), dtype=bool)  # the lines that hold a quote
    quoted[np.searchsorted(ends, np.flatnonzero(raw == ord('"')), side="right")] = True
    lead = np.searchsorted(commas, starts)
    plain = ~quoted & (np.searchsorted(commas, stops) - lead == k)
    high = odd[raw[odd] > 0x7F]
    plain &= np.searchsorted(high, stops) == np.searchsorted(high, starts)
    lines = np.flatnonzero(plain)
    values, valid, id_lo, id_hi = _bulk_values(
        raw, starts[lines], stops[lines], commas[lead[lines, None] + np.arange(k)],
        odd[_PAD[raw[odd]]])
    converted = np.zeros(len(starts), dtype=bool)
    converted[lines[valid]] = True
    errors = _refused(values, valid, lines + 1, expected, instrument.scale, kind)
    lines, values = lines[valid], values[valid]
    ids = _texts(raw, id_lo[valid], id_hi[valid])

    rest = np.flatnonzero(~converted)
    checked = []
    for at, start, stop, end in zip(rest.tolist(), starts[rest].tolist(),
                                    stops[rest].tolist(), ends[rest].tolist()):
        if quoted[at]:
            record = next(csv.reader([data[start:end].decode("utf-8")]))
            if record[-1].endswith("\n"):  # a quote still open at the line end
                return None
        else:
            record = data[start:stop].decode("utf-8").split(",")
        outcome = _check_record(record, at + 1, expected, instrument.scale, kind)
        if isinstance(outcome, RowError):
            errors.append(outcome)
        elif outcome is not None:
            checked.append((at, record[0].strip(), outcome))
    if checked:  # merge them into the converted rows, in line order
        more_lines, more_ids, more_values = zip(*checked)
        places = np.searchsorted(lines, more_lines)
        lines = np.insert(lines, places, more_lines)
        values = np.insert(values, places, more_values, axis=0)
        merged, done = [], 0
        for place, respondent_id in zip(places.tolist(), more_ids):
            merged += ids[done:place]
            merged.append(respondent_id)
            done = place
        ids = merged + ids[done:]
    return _result(instrument, kind, policy, lines + 1, ids, values, errors)


def _line_input(data: bytes | str, expected: list[str]) -> bytes | None:
    """The UTF-8 bytes of ``data`` (a byte-order mark removed from bytes),
    or None unless they are valid, non-empty, free of NUL bytes and of
    carriage returns outside ``\r\n``, and start with a header line that
    holds no double quote and matches ``expected`` once stripped."""
    if isinstance(data, str):
        try:
            data = data.encode("utf-8")
        except UnicodeEncodeError:
            return None
    else:
        data = data.removeprefix(codecs.BOM_UTF8)
    if not data or b"\0" in data or (
            b"\r" in data and data.count(b"\r") != data.count(b"\r\n")):
        return None
    if not data.isascii():
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    head = data.partition(b"\n")[0].removesuffix(b"\r")
    if b'"' in head or [cell.strip() for cell in head.decode("utf-8").split(",")] != expected:
        return None
    return data


def _bulk_values(
    raw: np.ndarray, starts: np.ndarray, stops: np.ndarray, commas: np.ndarray,
    pad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Convert the quote-free ASCII lines ``raw[starts:stops]``, whose N x k
    comma offsets are ``commas`` (consumed); ``pad`` holds the sorted
    offsets of the _PAD bytes.  A line converts when str.strip() leaves its
    id non-empty and each of its cells as an optional sign and 1 to 18
    digits.  Returns the values, the mask of the lines that convert, and
    the bounds of their stripped ids."""
    id_lo, id_hi = starts.copy(), commas[:, 0].copy()
    hi = np.empty_like(commas)
    hi[:, :-1], hi[:, -1] = commas[:, 1:], stops
    lo = np.add(commas, 1, out=commas)
    padded = np.flatnonzero(np.searchsorted(pad, stops) > np.searchsorted(pad, starts))
    if padded.size:
        id_lo[padded], id_hi[padded] = _strip_spans(id_lo[padded], id_hi[padded], pad)
        lo[padded], hi[padded] = _strip_spans(lo[padded], hi[padded], pad)
    sign = raw.take(lo, mode="clip")
    negative = sign == ord("-")
    lo += negative | (sign == ord("+"))
    values, valid = _digit_values(raw, lo, hi)
    np.negative(values, out=values, where=negative)
    valid &= id_hi > id_lo
    return values, valid, id_lo, id_hi


def _strip_spans(
    lo: np.ndarray, hi: np.ndarray, pad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Narrow each span raw[lo:hi] as str.strip() narrows its ASCII text,
    given the sorted offsets ``pad`` of the _PAD bytes of ``raw`` (not
    empty; no pad byte lies just outside a span).  A pad byte left inside a
    cell is not a digit, so the digit check refuses it.  An all-pad span
    comes back with hi < lo."""
    breaks = np.flatnonzero(np.diff(pad) != 1)
    never = np.iinfo(np.int64).max  # ends both run arrays, matching no offset
    run_lo = np.append(pad[np.append(0, breaks + 1)], never)
    run_hi = np.append(pad[np.append(breaks, -1)] + 1, never)
    at = np.searchsorted(run_lo, lo)
    lo = np.where(run_lo[at] == lo, run_hi[at], lo)
    at = np.searchsorted(run_hi, hi)
    return lo, np.where(run_hi[at] == hi, run_lo[at], hi)


def parse_response_rows(
    data: bytes | str,
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy = MissingPolicy.DROP_ROW,
) -> tuple[ResponseSet, ValidationReport]:
    """The per-cell route, for any file: reads each record with csv.reader
    and runs the per-cell checks on every one of them."""
    expected, records = _read_records(data, instrument, kind)
    rows, ids, values, errors = [], [], [], []
    for row, record in enumerate(records, start=1):
        checked = _check_record(record, row, expected, instrument.scale, kind)
        if isinstance(checked, RowError):
            errors.append(checked)
        elif checked is not None:
            rows.append(row)
            ids.append(record[0].strip())
            values.append(checked)
    return _result(instrument, kind, policy, rows, ids,
                   np.array(values, dtype=np.int64).reshape(-1, len(expected) - 1), errors)


def _read_records(
    data: bytes | str, instrument: SurveyInstrument, kind: ResponseKind,
) -> tuple[list[str], list[list[str]]]:
    """Decode ``data``, read it with csv.reader and check its header; returns
    the expected header and the data records."""
    if isinstance(data, bytes):
        try:
            text = data.decode("utf-8-sig")
        except UnicodeDecodeError as exc:
            raise DataError(f"response file is not valid UTF-8: {exc}") from None
    else:
        text = data

    try:
        rows = list(csv.reader(io.StringIO(text, newline="")))
    except csv.Error as exc:
        raise DataError(f"malformed CSV: {exc}") from None
    if not rows:
        raise DataError("empty response file")

    header = [cell.strip() for cell in rows[0]]
    expected = _expected_header(instrument, kind)
    if header != expected:
        raise DataError(
            f"header mismatch for {kind.value} file: expected "
            f"{','.join(expected)!r}, got {','.join(header)!r}"
        )
    return expected, rows[1:]


def _check_record(
    raw: list[str], row: int, expected: list[str], scale: LikertScale, kind: ResponseKind,
) -> list[int] | RowError | None:
    """The per-cell checks of one record, data row ``row``: its values, the
    first violation as a RowError, or None for a blank line."""
    if not any(map(str.strip, raw)):
        return None
    if len(raw) != len(expected):
        return RowError(row, "*", "row_length",
                        f"expected {len(expected)} fields, got {len(raw)}")
    if not raw[0].strip():
        return RowError(row, _ID_COLUMN, "empty_id", "respondent id is empty")
    values: list[int] = []
    for col_name, cell in zip(expected[1:], raw[1:]):
        value = _parse_int_cell(cell)
        if value is None:
            code = "missing" if not cell.strip() else "not_an_integer"
            return RowError(row, col_name, code, f"cell {cell.strip()!r} is not a plain integer")
        values.append(value)
    return _value_error(values, row, expected, scale, kind) or values


def _value_error(
    values: list[int], row: int, expected: list[str], scale: LikertScale, kind: ResponseKind,
) -> RowError | None:
    """The first scale or allocation violation of the values of data row
    ``row`` as a RowError, or None if they pass."""
    if kind.is_likert:
        for col_name, value in zip(expected[1:], values):
            if value < scale.min or value > scale.max:
                return RowError(row, col_name, "out_of_range",
                                f"value {value} outside scale [{scale.min}, {scale.max}]")
        return None
    violation = validate_importance_row(values)
    if violation is None:
        return None
    messages = {
        "sum_not_100": f"allocation sums to {sum(values)}, expected 100",
        "out_of_range": "allocation values must lie in [0, 100]",
        "not_multiple_of_five": "allocation values must be multiples of five",
    }
    return RowError(row, "*", violation, messages[violation])


def _result(
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy,
    rows: np.ndarray | Sequence[int],
    ids: list[str],
    values: np.ndarray,
    errors: list[RowError],
) -> tuple[ResponseSet, ValidationReport]:
    """Finish a parse from its accepted rows (data-row numbers, ids and
    values, in file order) and the errors of the rejected ones, in any
    order: reject each accepted row whose id an earlier accepted row holds,
    put the errors in file order, then raise the first under policy fail,
    else build the result."""
    if len(set(ids)) != len(ids):
        first: dict[str, int] = {}
        keep: list[int] = []
        for at, (row, respondent_id) in enumerate(zip(np.asarray(rows).tolist(), ids)):
            if respondent_id in first:
                errors.append(RowError(row, _ID_COLUMN, "duplicate_id",
                                       f"respondent id {respondent_id!r} repeats row "
                                       f"{first[respondent_id]}"))
            else:
                first[respondent_id] = row
                keep.append(at)
        ids = [ids[at] for at in keep]
        values = values[keep]
    errors.sort(key=lambda err: err.row)
    if errors and policy is MissingPolicy.FAIL:
        err = errors[0]
        raise DataError(f"row {err.row}, column {err.column}: {err.message} [{err.code}]")
    if not ids:
        raise DataError(f"no valid rows in {kind.value} file ({len(errors)} rejected)")
    response_set = _validated_set(instrument, kind, values, ids)
    report = ValidationReport(row_errors=tuple(errors), accepted_rows=len(ids),
                              rejected_rows=len(errors))
    return response_set, report


def _validated_set(
    instrument: SurveyInstrument, kind: ResponseKind, values: np.ndarray, ids: list[str],
) -> ResponseSet:
    """The ResponseSet of the rows that a route has checked, at least one:
    ``values`` is the route's own matrix, one row per id.  It skips the
    constructor, whose copy of ``values`` costs page faults in this and
    later stages and whose allocation check would check every row again."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    values.setflags(write=False)
    response_set = object.__new__(ResponseSet)
    for name, value in (("kind", kind), ("instrument_ref", instrument.fingerprint()),
                        ("values", values), ("respondent_ids", tuple(ids))):
        object.__setattr__(response_set, name, value)
    return response_set


def serialize_response_set(rs: ResponseSet, instrument: SurveyInstrument) -> bytes:
    """Render a ResponseSet back to its canonical CSV bytes (round-trips
    bit-exactly through parse_response_file)."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(_expected_header(instrument, rs.kind))
    for respondent_id, row in zip(rs.respondent_ids, rs.values):
        writer.writerow([respondent_id, *map(int, row)])
    return buf.getvalue().encode("utf-8")


def generate_synthetic(
    targets: Sequence[float],
    n_respondents: int,
    scale: LikertScale,
    seed: int = 0,
    kind: ResponseKind = ResponseKind.EXPECTATION,
    instrument_ref: str = "synthetic",
) -> ResponseSet:
    """Generate an integer response matrix whose column means hit the
    targets exactly.

    Each column starts at floor(target) and the residual sum is distributed
    one unit at a time to seeded-pseudorandomly chosen cells still below the
    scale maximum, so the column sum equals round(n * target) exactly.
    Requires every n * target to be integral (within 1e-6) and within
    [n * scale.min, n * scale.max].  Deterministic for a given seed.
    """
    if n_respondents < 1:
        raise DataError("n_respondents must be >= 1")
    if kind is ResponseKind.IMPORTANCE:
        raise DataError("synthetic generation covers Likert kinds only")
    rng = random.Random(seed)
    columns: list[list[int]] = []
    for col_idx, target in enumerate(targets, start=1):
        exact_sum = target * n_respondents
        col_sum = round(exact_sum)
        if abs(exact_sum - col_sum) > 1e-6:
            raise DataError(
                f"target mean {target!r} for column {col_idx} is infeasible: "
                f"{n_respondents} x mean = {exact_sum!r} is not an integer"
            )
        if col_sum < n_respondents * scale.min or col_sum > n_respondents * scale.max:
            raise DataError(
                f"target mean {target!r} for column {col_idx} is outside "
                f"the scale [{scale.min}, {scale.max}]"
            )
        base = min(scale.max, math.floor(target))
        cells = [base] * n_respondents
        residual = col_sum - base * n_respondents
        open_cells = [i for i in range(n_respondents) if cells[i] < scale.max]
        for _ in range(residual):
            pick = rng.randrange(len(open_cells))
            i = open_cells[pick]
            cells[i] += 1
            if cells[i] >= scale.max:
                open_cells[pick] = open_cells[-1]
                open_cells.pop()
        columns.append(cells)
    values = np.array(columns, dtype=np.int64).T
    ids = tuple(f"r{i:03d}" for i in range(1, n_respondents + 1))
    return ResponseSet(kind=kind, instrument_ref=instrument_ref,
                       values=values, respondent_ids=ids)
