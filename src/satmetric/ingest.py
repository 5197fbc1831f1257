"""Response-file ingestion and synthetic response generation.

Three CSV schemas are accepted, all UTF-8 (a leading byte-order mark is
skipped) with a header row and plain integer cells:

* expectation / perception: ``respondent_id,q1,...,qk`` (k = item count)
* importance:  ``respondent_id,tangibles,reliability,responsiveness,assurance,empathy``
  where every row allocates 100 points in multiples of five

Parsing is a pure function of the file bytes; the returned ResponseSet is
immutable.  Rows that violate the schema are either dropped (listwise,
with a row-level diagnostic) or abort the parse, per MissingPolicy.

A canonical file (unquoted ASCII, plain digit cells, distinct ids, every
row valid) is read whole with numpy.  Any other input is read record by
record with csv.reader: canonical records are converted in bulk and only
the others are parsed cell by cell.  Both routes yield the result, and the
row diagnostics, of parse_response_rows, which parses every record cell by
cell.  A canonical line is one that matches ``_CANONICAL_ROW``: the
per-record route matches records against that pattern, and the whole-file
route checks all lines at once with array arithmetic that must accept
exactly the lines the pattern matches
(tests/test_ingest_routes.py: test_canonical_check_matches_the_row_pattern
and ..._on_every_byte).
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
    """Validated N x k integer response matrix of one kind.

    For Likert kinds k equals the instrument item count and every cell lies
    within the scale; for importance k is 5 and every row allocates exactly
    100 points in multiples of five.  ``values`` is read-only.
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
    The result, and any error, equals that of parse_response_rows.
    """
    if isinstance(data, bytes):
        parsed = _parse_canonical(data, instrument, kind)
        if parsed is not None:
            return parsed
    return _parse_records(data, instrument, kind, policy)


#: A canonical data line: a respondent id of printable ASCII other than
#: space, comma and double quote, then k cells of 1 to 18 digits (an int64
#: holds every 18-digit number).  Neither part can match a comma or a
#: newline, so a failed match backtracks at most the length of its line.
#: The per-record route matches each record against it.  The whole-file
#: route checks the same form with array arithmetic and must accept exactly
#: the lines this pattern matches; the tests
#: test_canonical_check_matches_the_row_pattern and ..._on_every_byte
#: (tests/test_ingest_routes.py) hold the two together.
_CANONICAL_ROW = r"[!#-+\--~]+(?:,[0-9]{1,18}){%d}"

_ID_COLUMN = "respondent_id"


def _parse_canonical(
    data: bytes, instrument: SurveyInstrument, kind: ResponseKind,
) -> tuple[ResponseSet, ValidationReport] | None:
    """Whole-file route for a canonical file, else None.

    Canonical: ASCII after an optional byte-order mark, no double quote,
    ``\n`` or ``\r\n`` line ends, at most one trailing newline, a header
    equal to the expected one after stripping each cell, then one or more
    lines that each match ``_CANONICAL_ROW``, with distinct ids and values
    that all pass validation.  The lines are checked together, over arrays
    of the body's bytes: the only bytes outside ``!`` to ``~`` are the
    newlines; the N*k commas fall k to a line, each line's first after its
    start; every cell is 1 to 18 digits (checked by _digit_values); and no
    line reaches the csv.reader field limit.
    """
    data = data.removeprefix(codecs.BOM_UTF8)
    if b'"' in data or not data.isascii():
        return None
    if b"\r" in data:
        data = data.replace(b"\r\n", b"\n")
        if b"\r" in data:
            return None
    head, _, body = data.partition(b"\n")
    expected = _expected_header(instrument, kind)
    if [cell.strip() for cell in head.decode("ascii").split(",")] != expected:
        return None
    body = body.removesuffix(b"\n")
    raw = np.frombuffer(body, dtype=np.uint8)
    grid = _cell_grid(raw, len(expected) - 1)
    if grid is None:
        return None
    starts, commas, ends = grid
    # With the cell widths that _digit_values checks, these keep each row
    # of ``commas`` inside its own line.
    if (np.count_nonzero((raw <= ord(" ")) | (raw > ord("~"))) != len(ends) - 1
            or not (commas[:, 0] > starts).all()):
        return None
    # csv.reader refuses a field longer than its limit; so does this route.
    if max(len(head), int((ends - starts).max())) >= csv.field_size_limit():
        return None
    values = _digit_values(raw, commas, ends)
    if values is None or _invalid_rows(values, instrument.scale, kind).any():
        return None
    text = body.decode("ascii")
    ids = [text[start:comma] for start, comma in zip(starts.tolist(), commas[:, 0].tolist())]
    if len(set(ids)) != len(ids):
        return None
    response_set = ResponseSet(kind=kind, instrument_ref=instrument.fingerprint(),
                               values=values, respondent_ids=tuple(ids))
    return response_set, ValidationReport(row_errors=(), accepted_rows=len(ids),
                                          rejected_rows=0)


def _cell_grid(
    raw: np.ndarray, k: int,
) -> tuple[np.ndarray, np.ndarray, np.ndarray] | None:
    """The start offset of each of the N ``\n``-separated lines in ``raw``,
    its N x k comma offsets and its end offset; None unless ``raw`` holds
    exactly N*k commas.  Row i of the comma array is line i's commas only
    if each line holds k of them."""
    ends = np.append(np.flatnonzero(raw == ord("\n")), len(raw))
    commas = np.flatnonzero(raw == ord(","))
    if commas.size != ends.size * k:
        return None
    return np.append(0, ends[:-1] + 1), commas.reshape(-1, k), ends


def _digit_values(raw: np.ndarray, commas: np.ndarray, ends: np.ndarray) -> np.ndarray | None:
    """The N x k values of the cells of N lines of ``raw``: a cell follows
    each of the N x k ``commas`` and runs to the next comma or, for the
    last, to its line's end in ``ends``.  None unless every cell is 1 to 18
    digits (an int64 holds every 18-digit number)."""
    starts = commas + 1
    widths = np.column_stack((commas[:, 1:], ends))
    widths -= starts
    if widths.min() < 1 or widths.max() > 18:
        return None
    widths = widths.astype(np.int8)
    # Horner's rule, one gather per digit place, in place: several times
    # faster than converting the split cells with astype, and no N x k
    # int64 array besides the cursors and the result.  A gather past the
    # end of ``raw`` (a short last cell) reads its last byte, unused.
    values = np.zeros(widths.shape, dtype=np.int64)
    worst = np.zeros(widths.shape, dtype=np.uint8)
    for place in range(int(widths.max())):
        has = widths > place
        digits = raw.take(starts, mode="clip") - ord("0")  # other bytes wrap above 9
        np.maximum(worst, digits, out=worst, where=has)
        np.multiply(values, 10, out=values, where=has)
        np.add(values, digits, out=values, where=has)
        starts += 1
    if worst.max() > 9:
        return None
    return values


def _invalid_rows(values: np.ndarray, scale: LikertScale, kind: ResponseKind) -> np.ndarray:
    """Row mask: True where a row of values is outside the Likert scale or,
    for importance, not a valid allocation."""
    if kind.is_likert:
        return ((values < scale.min) | (values > scale.max)).any(axis=1)
    return _invalid_allocations(values)


def _parse_records(
    data: bytes | str,
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy,
) -> tuple[ResponseSet, ValidationReport]:
    """Per-record route: reads the records with csv.reader and converts the
    canonical ones (k+1 fields, a plain id, cells of 1 to 18 digits) in
    bulk.  Every other record, and every canonical record whose values fail
    validation, goes through the per-cell checks."""
    expected, records = _read_records(data, instrument, kind)
    k = len(expected) - 1
    match = re.compile(_CANONICAL_ROW % k).fullmatch
    lines = [",".join(raw) if len(raw) == k + 1 else "" for raw in records]
    bulk = [at for at, line in enumerate(lines) if match(line)]
    raw = np.frombuffer("\n".join([lines[at] for at in bulk]).encode("ascii"), dtype=np.uint8)
    # Each large intermediate is dropped once used, which keeps this route's
    # peak memory below the per-cell route's.
    del lines
    table = np.empty((len(records), k), dtype=np.int64)
    accepted = np.zeros(len(records), dtype=bool)
    if bulk:
        _, commas, ends = _cell_grid(raw, k)
        values = _digit_values(raw, commas, ends)
        del raw, commas, ends
        table[bulk] = values
        accepted[bulk] = ~_invalid_rows(values, instrument.scale, kind)
        del values
    positions, values, errors = _check_records(
        records, np.flatnonzero(~accepted).tolist(), expected, instrument.scale, kind)
    if positions:
        table[positions] = values
        accepted[positions] = True
    rows = np.flatnonzero(accepted)
    ids = [records[at][0].strip() for at in rows.tolist()]
    del records
    values = table[rows]
    del table
    return _result(instrument, kind, policy, (rows + 1).tolist(), ids, values, errors)


def parse_response_rows(
    data: bytes | str,
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy = MissingPolicy.DROP_ROW,
) -> tuple[ResponseSet, ValidationReport]:
    """The per-cell route, for any file: reads each record with csv.reader
    and runs the per-cell checks on every one of them."""
    expected, records = _read_records(data, instrument, kind)
    positions, values, errors = _check_records(
        records, range(len(records)), expected, instrument.scale, kind)
    return _result(instrument, kind, policy, [at + 1 for at in positions],
                   [records[at][0].strip() for at in positions],
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


def _check_records(
    records: list[list[str]],
    positions: Sequence[int],
    expected: list[str],
    scale: LikertScale,
    kind: ResponseKind,
) -> tuple[list[int], list[list[int]], list[RowError]]:
    """Run the per-cell checks on ``records[at]`` for each position, in
    ascending order; returns the accepted positions, their values and the
    errors of the rejected records."""
    accepted: list[int] = []
    values: list[list[int]] = []
    errors: list[RowError] = []
    for at in positions:
        checked = _check_record(records[at], at + 1, expected, scale, kind)
        if isinstance(checked, RowError):
            errors.append(checked)
        elif checked is not None:
            accepted.append(at)
            values.append(checked)
    return accepted, values, errors


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
    if kind.is_likert:
        for col_name, value in zip(expected[1:], values):
            if value < scale.min or value > scale.max:
                return RowError(row, col_name, "out_of_range",
                                f"value {value} outside scale [{scale.min}, {scale.max}]")
        return values
    violation = validate_importance_row(values)
    if violation is None:
        return values
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
    rows: list[int],
    ids: list[str],
    values: np.ndarray,
    errors: list[RowError],
) -> tuple[ResponseSet, ValidationReport]:
    """Finish a parse from its accepted rows (data-row numbers, ids and
    values, in file order) and the errors of the rejected ones: reject each
    accepted row whose id an earlier accepted row holds, then raise the
    first error in file order under policy fail, else build the result."""
    if len(set(ids)) != len(ids):
        first: dict[str, int] = {}
        keep: list[int] = []
        for at, (row, respondent_id) in enumerate(zip(rows, ids)):
            if respondent_id in first:
                errors.append(RowError(row, _ID_COLUMN, "duplicate_id",
                                       f"respondent id {respondent_id!r} repeats row "
                                       f"{first[respondent_id]}"))
            else:
                first[respondent_id] = row
                keep.append(at)
        errors.sort(key=lambda err: err.row)
        ids = [ids[at] for at in keep]
        values = values[keep]
    if errors and policy is MissingPolicy.FAIL:
        err = errors[0]
        raise DataError(f"row {err.row}, column {err.column}: {err.message} [{err.code}]")
    if not ids:
        raise DataError(f"no valid rows in {kind.value} file ({len(errors)} rejected)")
    response_set = ResponseSet(kind=kind, instrument_ref=instrument.fingerprint(),
                               values=values, respondent_ids=tuple(ids))
    report = ValidationReport(row_errors=tuple(errors), accepted_rows=len(ids),
                              rejected_rows=len(errors))
    return response_set, report


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
