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
  mark removed).  Its block step reads a block of lines by the first of
  three cases that takes it, each with array arithmetic over the block's
  bytes.  The one-byte and the strict case take only a block with no double
  quote and no byte outside ``!`` to ``~`` but the line ends.

  - One-byte: a block of a Likert kind whose scale lies in 0 to 9, every
    line a non-empty id and k cells of one digit.  Such a line ends in k
    ``,d`` pairs, so one gather of every line's last 2k bytes reads all its
    cells, with no comma offset (see LineBlocks._one_byte).
  - Strict: k commas to a line, every id non-empty and every cell 1 to 18
    digits.
  - General: any other block has all its lines classified at once, and
    each line is one record, read with array arithmetic too: its comma
    split without the quotes that wrap a field (its first and last byte;
    quotes pair by position, the block's quote 2j with quote 2j + 1, see
    _quotes), as csv.reader reads it, and so is its diagnostic: blank,
    ``row_length``, ``empty_id``, or its first cell that str.strip() does
    not leave as an optional sign and 1 to 18 digits.

  Every case leaves through one step, LineBlocks._accepted: _refused
  checks the values of the rows that the case converts, and the rows that
  pass keep their ids.  Non-ASCII lines take the general case: the input
  is valid UTF-8, whose multi-byte sequences hold no comma, quote, CR or
  LF byte, so every span ends at an ASCII byte and holds whole code
  points.  The route declines input that is not UTF-8, holds a NUL byte,
  a carriage return not followed by a newline or a code point outside
  ASCII that str.strip() removes, is empty, has a header line that holds a
  double quote or does not match, has a line of csv.field_size_limit()
  bytes or more, line end included, has a quote that wraps no field (such
  as a quoted record that spans lines), or has a row whose first such cell
  is more than 18 digits.

  Cost model.  Every byte costs the passes that find the bytes outside ``!``
  to ``~`` and the quotes, one compare for the commas in each case that
  looks for them, and a non-ASCII input one decode and a look at the lead
  bytes of the code points that str.strip() removes; every id of up to 8
  bytes one uint64 key, which checks repeats and is decoded into the ids
  when they are first read; every Likert cell that a case converts one
  minimum and one maximum in _refused, all that a block whose values pass
  the scale pays there; and every Likert block one product for its accepted
  rows' column sums S and cross products X'X (_exact_moments, chunks of at
  most 2**16 cells), which the join adds up and psychometrics reads in place
  of a pass over the set's values.  LineBlocks decides once per file whether
  its blocks compute them: when the exact route's guard holds for its
  data-line count with the scale's bound as the peak.  The line count bounds
  the accepted rows and the guard is monotone in N, so the joined set is on
  the exact route whenever the blocks computed its S and X'X.  The one-byte
  case costs every line a look at the byte where its first comma must lie
  and a gather of its last 2k bytes, every cell one subtraction and a
  maximum, and the block one count of its commas, which it makes itself and
  does not hand on.  A block it does not take has paid the look at each line
  and, only when those all hold a comma, the count, and the gather only when
  the count holds.  The strict and the general case cost every byte a comma
  mask and the comma offsets, found from it, every cell its first digit,
  and, in the general case, every line its comma count and one search of its
  bounds among the padding and quote offsets.  A later digit place costs
  every cell while more than half the cells reach it (an allocation's second
  place), and after that only the cells that wide.  The rest is paid only
  where its feature occurs: a sign by the cells whose first digit fails,
  stripping by padded lines, a diagnostic tuple by the row it rejects (its
  message is formatted once per distinct value in a block), and decoding at
  once by a file with a wider id or a repeated id.  A declined file pays for
  parse_response_rows on top of the passes made before the decline.

  The route runs in three steps.  cut_lines, the whole-file step, makes
  every check that declines the input as a whole (the input, the header, the
  line ends, wide padding and the field size limit) and cuts the data lines
  into blocks of about BLOCK_BYTES, each cut just after a line end.
  LineBlocks.parse, the block step, reads one block by its one-byte, strict
  or general case, or declines the input for a quote or a long cell in it.
  LineBlocks.result joins the blocks, one block by the same code as many
  (repeated ids across them, diagnostics in file order, the first error
  under fail and the sum of the blocks' S and X'X, which the set keeps
  unless a row was dropped at the join), or gives None if a block declined
  the input.  A block's temporaries, some of them several arrays of a
  block's cells, never grow with the file.  parse_response_file runs the
  blocks in order, and is the one exit to parse_response_rows: it reads the
  input there when cut_lines or a block declines it.  pipeline.surveys runs
  the blocks as jobs in its lanes and joins them through
  parse_response_file's ``blocks``, with the bytes that cut_lines checked as
  its input, which decode to the text of the input as given; it hands a
  file that cut_lines declines, whole, to parse_response_file in a lane,
  which cuts it once more and reads it with parse_response_rows.  So
  surveys reads every file through cut_lines and parse_response_file alone.
* Per-cell: parse_response_rows reads every record with csv.reader and
  checks it cell by cell.  It reads every input the line route declines.

tests/test_ingest_routes.py holds the line route to parse_response_rows
and its checks to the patterns they stand in for.
"""

from __future__ import annotations

import codecs
import csv
import io
import itertools
import math
import random
import re
import sys
from dataclasses import dataclass
from enum import Enum
from operator import itemgetter
from typing import Any, Callable, Sequence

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
    code, and a human-readable message.  The routes keep each as a plain
    ``(row, column, code, message)`` tuple; ValidationReport builds the
    RowErrors when its row_errors is first read."""

    row: int
    column: str
    code: str
    message: str


#: A RowError's fields as a plain tuple: (row, column, code, message).
_Diagnostic = tuple[int, str, str, str]


def diagnostic_text(row: int, column: str, code: str, message: str) -> str:
    """One rejected row as text: the error under policy fail and, after the
    file name, the CLI's stderr line."""
    return f"row {row}, column {column}: {message} [{code}]"


@dataclass(frozen=True)
class ValidationReport:
    """The rejected rows of one parse, in file order, and the row counts.

    A report that parse_response_file builds holds each rejected row as one
    plain tuple, ``diagnostics``, and builds the RowErrors of row_errors
    when it is first read, which equality, repr, hashing, copying and
    pickling do; a pickle holds row_errors, as the constructor's report
    does.  pipeline.surveys writes stderr from the tuples, so the CLI builds
    no RowError."""

    row_errors: tuple[RowError, ...]
    accepted_rows: int
    rejected_rows: int

    def __getattr__(self, name: str):
        # Only for an unset attribute, as in ResponseSet.
        if name != "row_errors" or "_diagnostics" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        errors = tuple(itertools.starmap(RowError, vars(self)["_diagnostics"]))
        object.__setattr__(self, "row_errors", errors)
        return errors

    def __getstate__(self) -> dict:
        return {"row_errors": self.row_errors, "accepted_rows": self.accepted_rows,
                "rejected_rows": self.rejected_rows}

    @property
    def diagnostics(self) -> tuple[_Diagnostic, ...]:
        """row_errors as plain ``(row, column, code, message)`` tuples, read
        without building the RowErrors."""
        if "_diagnostics" in vars(self):
            return vars(self)["_diagnostics"]
        return tuple((err.row, err.column, err.code, err.message) for err in self.row_errors)

    @property
    def total_rows(self) -> int:
        return self.accepted_rows + self.rejected_rows


@dataclass(frozen=True, eq=False)
class ResponseSet:
    """N x k integer response matrix of one kind, N >= 1, one respondent id
    per row.  ``values`` is read-only.

    The constructor checks the shape, that every cell is an integer or a
    float of integer value within int64 (no string, None or NaN), the id
    count and, for importance (k is 5), that every row allocates exactly
    100 points in multiples of five.  It does not check Likert cells
    against a scale:
    parse_response_file rejects the rows outside it, and generate_synthetic
    stays within it by construction.  A set that the line route builds
    holds its ids as _id_keys and decodes them when they are first read,
    and may hold its S and X'X as _gram (see _validated_set).
    Two sets are equal when their kind, instrument_ref, values and ids are;
    a set has no hash, as its values array has none.
    """

    kind: ResponseKind
    instrument_ref: str
    values: np.ndarray
    respondent_ids: tuple[str, ...]

    def __post_init__(self) -> None:
        values = _int64_matrix(self.values)
        values.setflags(write=False)
        object.__setattr__(self, "values", values)
        if len(self.respondent_ids) != values.shape[0]:
            raise DataError("respondent_ids length must match row count")
        if self.kind is ResponseKind.IMPORTANCE:
            if values.shape[1] != len(IMPORTANCE_COLUMNS):
                raise DataError("importance matrix must have exactly 5 columns")
            bad = np.flatnonzero(_invalid_allocations(values).any(axis=0))
            if bad.size:
                violation = validate_importance_row([int(v) for v in values[bad[0]]])
                raise DataError(f"importance row {bad[0] + 1} violates {violation}")

    def __getattr__(self, name: str):
        # Only for an unset attribute: a copy under construction raises at once.
        if name != "respondent_ids" or "_id_keys" not in vars(self):
            raise AttributeError(f"{type(self).__name__!r} object has no attribute {name!r}")
        ids = tuple(_key_texts(vars(self)["_id_keys"]))
        object.__setattr__(self, "respondent_ids", ids)
        return ids

    def __eq__(self, other) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.kind is other.kind and self.instrument_ref == other.instrument_ref
                and np.array_equal(self.values, other.values)
                and self.respondent_ids == other.respondent_ids)

    __hash__ = None

    @property
    def n_respondents(self) -> int:
        return int(self.values.shape[0])

    @property
    def n_columns(self) -> int:
        return int(self.values.shape[1])


def _int64_matrix(values) -> np.ndarray:
    """A new C-contiguous int64 copy of the N x k matrix ``values``, N >= 1,
    each of whose cells is an integer, or a float of integer value, within
    int64, so that the copy loses nothing; else DataError, naming the
    first row that holds another cell."""
    try:
        given = np.asarray(values)
    except ValueError:  # rows of unequal lengths
        given = None
    if given is None or given.ndim != 2 or given.shape[0] < 1:
        raise DataError("response matrix must be N x k with N >= 1")
    kind = given.dtype.kind
    if kind in "bi":
        exact = np.ones(given.shape, dtype=bool)
    elif kind == "f" and given is values:  # NaN fails every comparison
        top = np.float64(2**63)  # not cast to a narrower float, where it overflows
        exact = (given >= -top) & (given < top) & (np.trunc(given) == given)
    else:  # each cell as given, not as the text or the float numpy made of it
        given = np.array(values, dtype=object)
        exact = np.frompyfunc(_is_int64, 1, 1)(given).astype(bool)
    if not exact.all():
        row, column = np.argwhere(~exact)[0].tolist()
        raise DataError(f"response row {row + 1} holds {given[row].tolist()[column]!r}, "
                        "not an integer within int64")
    return np.array(given, dtype=np.int64, order="C")


def _is_int64(cell) -> bool:
    """Whether ``cell``, a Python object, is an integer or a finite float
    of integer value, within int64."""
    if isinstance(cell, (float, np.floating)):
        return math.isfinite(cell) and float(cell).is_integer() and -2**63 <= cell < 2**63
    return isinstance(cell, (int, np.integer)) and -2**63 <= cell < 2**63


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


#: The message of each violation code of validate_importance_row, in the
#: order it checks them; ``{sum}`` is the allocation's sum.
_ALLOCATION_MESSAGES = {
    "sum_not_100": "allocation sums to {sum}, expected 100",
    "out_of_range": "allocation values must lie in [0, 100]",
    "not_multiple_of_five": "allocation values must be multiples of five",
}
#: The messages of the row diagnostics that both routes give.  A cell that
#: is not a plain integer is "missing" when str.strip() leaves it empty,
#: else "not_an_integer".
_OUT_OF_SCALE = "value {} outside scale [{scale.min}, {scale.max}]"
_ROW_LENGTH = "expected {} fields, got {}"
_EMPTY_ID = "respondent id is empty"
_NOT_AN_INTEGER = "cell {!r} is not a plain integer"


def _invalid_allocations(values: np.ndarray) -> np.ndarray:
    """3 x N mask of an N x 5 integer matrix: row c is True where
    validate_importance_row finds the c-th violation of _ALLOCATION_MESSAGES
    (the int64 sum of five values of at most 18 digits is exact)."""
    return np.stack((np.einsum("ij->i", values) != IMPORTANCE_TOTAL,
                     _rows_with((values < 0) | (values > IMPORTANCE_TOTAL)),
                     _rows_with(values // IMPORTANCE_STEP * IMPORTANCE_STEP != values)))


def _expected_header(instrument: SurveyInstrument, kind: ResponseKind) -> list[str]:
    if kind.is_likert:
        return ["respondent_id"] + [f"q{item.id}" for item in instrument.items]
    return ["respondent_id", *IMPORTANCE_COLUMNS]


_INT_CELL = re.compile(r"[+-]?[0-9]+")


def _parse_int_cell(cell: str) -> int | None:
    """Strict ASCII integer parse; decimals, underscores, and other noise
    are rejected, and so is an integer of more significant digits than
    int() reads (sys.get_int_max_str_digits())."""
    text = cell.strip()
    if not text or not _INT_CELL.fullmatch(text):
        return None
    try:
        return int(text, 10)
    except ValueError:  # over the digit limit, maybe only by its leading zeros
        digits = text.lstrip("+-").lstrip("0") or "0"
        if len(digits) > sys.get_int_max_str_digits():
            return None
        return int(text[0] + digits if text[0] == "-" else digits)


def parse_response_file(
    data: bytes | str,
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy = MissingPolicy.DROP_ROW,
    *,
    blocks: LineBlocks | None = None,
) -> tuple[ResponseSet, ValidationReport]:
    """Parse one CSV response file into a validated ResponseSet.

    Returns the set built from accepted rows plus a report enumerating every
    rejection.  Raises DataError on malformed CSV, header mismatch, zero
    accepted rows, or (with policy=fail) the first bad row in file order.
    The line route reads the file, one block of lines after another, unless
    cut_lines or a block declines it, and then parse_response_rows reads
    ``data``; the result, and any error, is the same.  ``blocks`` is what
    cut_lines gave for ``data``, for a caller that parses its blocks
    itself, as pipeline.surveys does in its lanes; a block it has not
    parsed is parsed here.
    """
    blocks = blocks or cut_lines(data, instrument, kind)
    return blocks and blocks.result(policy) or parse_response_rows(data, instrument, kind, policy)


#: The most bytes, about, of one block of the line route; a file is cut
#: into as few blocks of equal size as this allows.  A byte budget, since a
#: line costs about the same whatever its cell count: with blocks of 2**17
#: cells, an importance block (k = 5) took three times an expectation
#: block's time (k = 17).  In-process sweep of one warm ``gap`` call with
#: the CLI heap setting on (2-vCPU host, 40 interleaved calls a setting):
#: 0.5, 0.75, 1, 1.5 and 2 MiB blocks and whole files read 115, 109, 108,
#: 113, 114 and 114 ms on tall_dirty and 55, 53, 53, 59, 60 and 60 ms on
#: tall.  Smaller blocks cost more: each pays a fixed 0.3-0.4 ms, and
#: lanes that parse many blocks hand the GIL to each other more often.
BLOCK_BYTES = 1 << 20

_ID_COLUMN = "respondent_id"


def _digit_values(
    raw: np.ndarray, starts: np.ndarray, ends: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """The values of the cells ``raw[starts:ends]`` (elementwise, any shape)
    and the mask of the cells that are not 1 to 18 digits (an int64 holds
    every 18-digit number), whose values are meaningless.  Overwrites
    ``ends`` with the cell widths: each large temporary is paid for in page
    faults, so callers hand over theirs."""
    widths = np.subtract(ends, starts, out=ends)
    misfit = (widths < 1) | (widths > 18)
    narrow = widths.astype(np.int8)  # a width that wraps is a misfit, set to 0
    np.copyto(narrow, 0, where=misfit)
    # Horner's rule, one gather per digit place: several times faster than
    # converting the split cells with astype.  Every cell of good width has
    # a first digit, and a gather past the end of ``raw`` reads its last
    # byte, unused.  A later place is read in every cell while most cells
    # reach it (as two-digit allocations do), and after that only in the
    # cells that reach it: index arrays cost more than a dense pass over a
    # place most cells have, and far less than one over a rare place.
    worst = raw.take(starts, mode="clip") - ord("0")  # other bytes wrap above 9
    np.maximum(worst, 10, out=worst, where=misfit)  # and so does a bad width
    values = worst.astype(np.int64)
    place, wide = 1, narrow > 1
    while 2 * (reach := np.count_nonzero(wide)) > wide.size:
        # Unmasked arithmetic: a ufunc masked by ``where`` runs several times
        # slower on a mask of short runs.  A cell short of the place gains a
        # zero digit and keeps its value, times 1.
        digits = raw.take(starts + place, mode="clip") - ord("0")
        digits *= wide
        np.maximum(worst, digits, out=worst)
        values *= wide * np.uint8(9) + np.uint8(1)
        values += digits
        place += 1
        wide = np.greater(narrow, place, out=wide)
    cells = np.flatnonzero(wide) if reach else []
    while len(cells):
        digits = raw.take(starts.take(cells) + place) - ord("0")
        values.put(cells, values.take(cells) * 10 + digits)
        worst.put(cells, np.maximum(worst.take(cells), digits))
        place += 1
        cells = cells[narrow.take(cells) > place]
    return values, worst > 9


def _exact_route(n: int, k: int, peak: int) -> bool:
    """Whether the moments of an n x k integer matrix whose values are at
    most ``peak`` in magnitude take psychometrics' exact route: its int64
    sums and X'X, and N times them, cannot overflow, and _exact_moments
    reads X'X exactly."""
    return n * peak * peak <= 2**53 and n * k * peak <= 2**31


def _gram_float(rows: int, bound: int) -> type:
    """The float type in which BLAS reads the column sums and X'X of
    ``rows`` rows, each value at most ``bound`` in magnitude, exactly:
    float32 where rows * bound**2 < 2**24, as every partial sum is then an
    integer that its 24-bit significand holds, else float64, exact on
    _exact_route's matrices."""
    return np.float32 if rows * bound * bound < 2**24 else np.float64


def _exact_moments(m: np.ndarray, bound: int) -> tuple[np.ndarray, np.ndarray]:
    """Column sums S and X'X of the integer matrix ``m``, each value at most
    ``bound`` in magnitude, as int64, exact on _exact_route's matrices: BLAS
    products over chunks of rows of at most 2**16 cells (no N x k float
    copy), in the _gram_float type of one chunk.  The products release the
    GIL, so the ingest lanes overlap them."""
    n, k = m.shape
    rows = min(n, 2**16 // k) or 1
    kind = _gram_float(rows, bound)
    ones = np.ones(rows, dtype=kind)
    sums, gram = np.zeros(k, dtype=np.int64), np.zeros((k, k), dtype=np.int64)
    for at in range(0, n, rows):
        chunk = m[at:at + rows].astype(kind)
        sums += (ones[:len(chunk)] @ chunk).astype(np.int64)
        gram += (chunk.T @ chunk).astype(np.int64)
    return sums, gram


def _rows_with(cells: np.ndarray) -> np.ndarray:
    """Row mask of an N x k cell mask: True where a row holds a True cell.
    The same as cells.any(axis=1), and faster when few cells are True."""
    rows = np.zeros(len(cells), dtype=bool)
    rows[np.flatnonzero(cells) // cells.shape[1]] = True
    return rows


def _texts(raw: np.ndarray, starts: np.ndarray, ends: np.ndarray) -> list[str]:
    """The UTF-8 text of each span ``raw[starts:ends]``, none of which holds
    a newline or splits a code point: one gather takes each span and the byte at its end (clipped to
    ``raw``), which becomes the newline that one split cuts at."""
    if not len(starts):
        return []
    stops = np.cumsum(ends - starts + 1)
    # The offsets to gather step by one within a span, and jump from the
    # end of each span to the start of the next: one array, summed in place.
    steps = np.ones(stops[-1], dtype=np.int64)
    steps[0], steps[stops[:-1]] = starts[0], starts[1:] - ends[:-1]
    text = raw.take(np.cumsum(steps, out=steps), mode="clip")
    text[stops - 1] = ord("\n")
    return text.tobytes().decode("utf-8").split("\n")[:-1]


def _id_keys(raw: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> np.ndarray | list[str]:
    """The UTF-8 ids ``raw[lo:hi]``, none empty, ``raw`` 8 bytes or more (a
    header holds 13): as uint64 keys, each id's bytes little-endian and
    zero-padded to 8, when none is wider than 8 bytes, else as _texts.  A
    key is one id only, as the line route declines NUL bytes, and two ids
    are equal exactly when their keys are, as each holds whole code points."""
    widths = hi - lo
    if widths.max(initial=0) > 8:
        return _texts(raw, lo, hi)
    # An 8-byte word starts at each offset; an id in the last 7 bytes reads
    # the last word and shifts its first byte down.
    words = np.ndarray((len(raw) - 7,), "<u8", raw, strides=(1,))
    at = np.minimum(lo, len(words) - 1)
    keep = np.uint64(2**64 - 1) >> (64 - 8 * widths).astype(np.uint64)
    return (words[at] >> (8 * (lo - at)).astype(np.uint64)) & keep


def _key_texts(keys: np.ndarray) -> list[str]:
    """The ids of _id_keys' ``keys``, in order (an S8 item drops its zero padding)."""
    return [key.decode("utf-8") for key in keys.astype("<u8").view("S8").tolist()]


def _formatted(render: Callable[[Any], str], values: list) -> dict:
    """``render(value)`` by each distinct one of ``values``: the rejected
    rows of a file share few messages, and a lookup costs a tenth of
    formatting one."""
    return {value: render(value) for value in set(values)}


def _refused(values: np.ndarray, valid: np.ndarray, rows: np.ndarray, expected: list[str],
             scale: LikertScale, kind: ResponseKind) -> list[_Diagnostic]:
    """The diagnostics that _value_error gives the converted rows (``valid``) of
    ``values`` that fail the scale or allocation check, found with array
    operations; those rows are cleared from ``valid``.  ``rows`` holds the
    data-row numbers of ``values``.  Likert values that all lie in the scale
    cost one minimum and one maximum."""
    if kind.is_likert:
        if scale.min <= values.min(initial=scale.min) and values.max(initial=0) <= scale.max:
            return []
        outside = (values < scale.min) | (values > scale.max)
        refused = np.flatnonzero(valid & _rows_with(outside))
        columns = outside[refused].argmax(axis=1)  # the first cell outside
        found = values[refused, columns].tolist()
        message = _formatted(_OUT_OF_SCALE.format("{}", scale=scale).format, found)
        errors = [(row, expected[column + 1], "out_of_range", message[value])
                  for row, column, value in zip(rows[refused].tolist(), columns.tolist(), found)]
    else:
        failed = _invalid_allocations(values)
        refused = np.flatnonzero(valid & failed.any(axis=0))
        codes = list(_ALLOCATION_MESSAGES.items())
        found = list(zip(failed[:, refused].argmax(axis=0).tolist(),
                         values[refused].sum(axis=1).tolist()))
        message = _formatted(lambda key: codes[key[0]][1].format(sum=key[1]), found)
        errors = [(row, "*", codes[at][0], message[at, total])
                  for row, (at, total) in zip(rows[refused].tolist(), found)]
    valid[refused] = False
    return errors


#: The ASCII bytes that str.strip() removes, but for the line ends: within
#: a line's text, the padding a cell or an id may carry.
_PAD = np.array([b < 0x80 and chr(b).isspace() and b not in b"\r\n" for b in range(256)])
#: The 19 code points outside ASCII that str.strip() removes: _PAD holds
#: bytes, so the line route declines the input that holds one.  Each is
#: kept as its UTF-8 bytes in a big-endian key of 3 bytes, a 2-byte one
#: zero-padded; _WIDE_LEAD marks their lead bytes, C2 (2 bytes) and E1 to E3.
_WIDE_PAD = "\x85\xa0\u1680" + "".join(map(chr, range(0x2000, 0x200B))) + \
    "\u2028\u2029\u202f\u205f\u3000"
_WIDE_KEYS = np.array([int.from_bytes(char.encode().ljust(3, b"\0"), "big")
                       for char in _WIDE_PAD])
_WIDE_LEAD = np.zeros(256, dtype=bool)
_WIDE_LEAD[[char.encode()[0] for char in _WIDE_PAD]] = True


def cut_lines(data: bytes | str, instrument: SurveyInstrument,
              kind: ResponseKind) -> LineBlocks | None:
    """The line route's whole-file step (see the module docstring): every
    check that declines the input as a whole, then the data lines cut into
    blocks.  None for an input it declines."""
    expected = _expected_header(instrument, kind)
    checked = _line_input(data, expected)
    if checked is None:
        return None
    encoded, is_ascii = checked
    raw = np.frombuffer(encoded, dtype=np.uint8)
    # Sparse offsets of the bytes outside "!" to "~" (the subtraction wraps
    # below "!"): the line ends, the padding and the non-ASCII bytes are among them.
    odd = np.flatnonzero((raw - np.uint8(ord("!"))) > ord("~") - ord("!"))
    kinds = raw[odd]
    if not is_ascii and _wide_padded(raw, odd[_WIDE_LEAD[kinds]]):
        return None
    if (raw.take(odd[kinds == ord("\r")] + 1, mode="clip") != ord("\n")).any():
        return None
    edges = np.append(0, odd[kinds == ord("\n")] + 1)
    if edges[-1] < len(raw):
        edges = np.append(edges, len(raw))
    if np.diff(edges).max() >= csv.field_size_limit():
        return None
    return LineBlocks(encoded, raw, odd, kinds, edges[1:], instrument, kind, expected)


class LineBlocks:
    """One input after the line route's whole-file step: its data lines cut
    into blocks of at most about BLOCK_BYTES bytes, each cut just after a
    line end.  ``parse(at)`` runs block ``at``'s step, in any order and from
    any thread; ``result`` then joins the blocks.  Data line i (from 0) is
    data row i + 1.

    The block step tries three cases in turn (see the module docstring for
    what each takes and costs): the one-byte case (_one_byte), one gather of
    every line's last 2k bytes, no comma offsets; the strict case, one grid
    of the block's comma offsets; and the general case, every line
    classified and each cell read from its stripped bounds.  A case that
    fails a check hands the block on; a case that reads the block leaves
    through _accepted.  LineBlocks never reads an input by the per-cell
    route: result gives None for an input that a block declines."""

    def __init__(self, data: bytes, raw: np.ndarray, odd: np.ndarray, kinds: np.ndarray,
                 edges: np.ndarray, instrument: SurveyInstrument, kind: ResponseKind,
                 expected: list[str]) -> None:
        self.data, self.raw, self.odd, self.kinds = data, raw, odd, kinds
        self.edges = edges  # data line i is raw[edges[i]:edges[i + 1]], line end included
        self.instrument, self.kind, self.expected = instrument, kind, expected
        # The bound of the S and X'X that each Likert block computes, or None
        # for none: the data lines bound the rows the blocks accept, and
        # _exact_route is monotone in N, so one check holds for the joined set.
        bound = max(-instrument.scale.min, instrument.scale.max)
        self.bound = bound if kind.is_likert and \
            _exact_route(len(edges) - 1, len(expected) - 1, bound) else None
        # n blocks of about equal size: block j starts with the line that
        # holds byte j / n of the data lines.  A file without one is one empty block.
        size = int(edges[-1] - edges[0])
        n = -(-size // BLOCK_BYTES) or 1
        self.firsts = sorted(set((np.searchsorted(
            edges, edges[0] + np.arange(n) * size // n, side="right") - 1).tolist()))
        self.parts: list = [None] * len(self.firsts)  # None until parsed

    def __len__(self) -> int:
        return len(self.firsts)

    def parse(self, at: int) -> None:
        """Read block ``at`` into ``parts[at]``: its accepted lines, their
        ids or _id_keys and values, the diagnostics of its rejected rows
        and its accepted rows' S and X'X (None unless ``bound`` is set), or
        False if it declines the input."""
        last = self.firsts[at + 1] if at + 1 < len(self) else len(self.edges) - 1
        read = self._block(self.firsts[at], last)
        # Once the case's temporaries are freed.
        self.parts[at] = False if not read else (
            *read, None if self.bound is None else _exact_moments(read[2], self.bound))

    def _block(self, first: int, last: int) -> tuple | None:
        raw, expected, k = self.raw, self.expected, len(self.expected) - 1
        edges = self.edges[first:last + 1]
        start, end = int(edges[0]), int(edges[-1])
        lo, hi = np.searchsorted(self.odd, (start, end))
        odd, kinds = self.odd[lo:hi], self.kinds[lo:hi]
        # Line i of the block is raw[starts[i]:ends[i]], line end included, and
        # its text is raw[starts[i]:stops[i]].
        starts, ends = edges[:-1], edges[1:]
        stops = ends - (raw[ends - 1] == ord("\n"))
        stops -= raw[stops - 1] == ord("\r")
        # The one-byte and the strict case read a block with no quote and no
        # byte outside "!" to "~" but the line ends.
        plain = self.data.find(b'"', start, end) < 0 and len(odd) == (ends - stops).sum()
        if plain and (read := self._one_byte(first, last, starts, stops)):
            return read
        commas = np.flatnonzero(raw[start:end] == ord(","))
        commas += start
        # A strict block: k commas to a line.  Row i of the grid holds line
        # i's commas only if each line holds k of them, which the first-comma
        # check and the cell widths that _digit_values checks ensure only when
        # they hold on every line.
        if plain and len(commas) == k * len(starts):
            grid = commas.reshape(-1, k)
            if (grid[:, 0] > starts).all():
                values, bad = _digit_values(raw, grid + 1, np.column_stack((grid[:, 1:], stops)))
                if not bad.any():
                    return self._accepted(np.arange(first, last), starts, grid[:, 0], values)

        quoted = _quotes(raw, edges, commas)
        if quoted is None:  # a quote that wraps no field, which only csv.reader reads
            return None
        pad = odd[_PAD[kinds]]
        pads = _per_line(pad, edges)
        lead = np.searchsorted(commas, edges)  # no comma lies between a stop and an end
        fields = np.diff(lead) + 1
        # A blank line holds only padding, commas and quotes.
        filled = stops - starts - quoted - fields + 1 > pads
        short = np.flatnonzero(filled & (fields != k + 1))
        counts = fields[short].tolist()
        message = _formatted(_ROW_LENGTH.format(k + 1, "{}").format, counts)
        errors = [(first + at + 1, "*", "row_length", message[count])
                  for at, count in zip(short.tolist(), counts)]
        lines = np.flatnonzero(filled & (fields == k + 1))
        # The k commas of line lines[i]: the window of k from its first.  A
        # block of fewer than k commas has no such line.
        windows = np.lib.stride_tricks.sliding_window_view(commas, k) if len(commas) >= k \
            else commas[:0].reshape(0, k)
        values, bad, id_lo, id_hi, lo, widths = _bulk_values(
            raw, starts[lines], stops[lines], windows[lead[lines]], quoted[lines] > 0,
            pads[lines] > 0, pad)
        lines += first
        valid = id_hi > id_lo
        errors += [(at + 1, _ID_COLUMN, "empty_id", _EMPTY_ID) for at in lines[~valid].tolist()]
        broken = np.flatnonzero(valid & _rows_with(bad))
        valid[broken] = False
        cells = bad[broken].argmax(axis=1)  # the first bad cell of each row
        width = np.maximum(widths[broken, cells], 0)  # an all-pad cell has hi < lo
        cell_lo = lo[broken, cells]
        del lo, widths  # let go of two lines x k arrays
        texts = _texts(raw, cell_lo, cell_lo + width)
        if any(_INT_CELL.fullmatch(texts[at]) for at in np.flatnonzero(width > 18).tolist()):
            return None  # more than 18 digits, which only _parse_int_cell reads
        # A bad cell that _INT_CELL matches is wider than 18 bytes, and those are
        # declined above: each one left is blank or not an integer.
        message = _formatted(_NOT_AN_INTEGER.format, texts)
        errors += [(at + 1, expected[cell + 1], "not_an_integer" if text else "missing",
                    message[text])
                   for at, cell, text in zip(lines[broken].tolist(), cells.tolist(), texts)]
        return self._accepted(lines, id_lo, id_hi, values, valid, errors)

    def _one_byte(self, first: int, last: int, starts: np.ndarray,
                  stops: np.ndarray) -> tuple | None:
        """_block's one-byte case, for a block with no quote and no byte
        outside "!" to "~" but the line ends, of a Likert kind whose scale
        lies in 0 to 9: it reads the block when every line is a non-empty id
        and k cells of one digit, that is, when every line ends in k ``,d``
        pairs after at least one byte and the block holds k commas to a
        line, which it counts itself.  None for any other block.  Its
        values are uint16, which _validated_set converts once."""
        raw, k, scale = self.raw, len(self.expected) - 1, self.instrument.scale
        if not self.kind.is_likert or scale.min < 0 or scale.max > 9:
            return None
        base = stops - 2 * k  # where line i's first comma lies, if it holds such cells
        # A cell of two bytes or more moves its line's base onto a digit, so
        # the first-comma check declines such a block before the gather.
        if not (base > starts).all() or (raw[base] != ord(",")).any() or np.count_nonzero(
                raw[self.edges[first]:self.edges[last]] == ord(",")) != k * len(starts):
            return None
        # Every line's 2k bytes from its base in one gather, read as k
        # big-endian pairs: "," then "0" to "9" is 0 to 9 once ",0" is taken
        # off, and every other pair wraps above 9.
        cells = np.lib.stride_tricks.sliding_window_view(raw, 2 * k)[base].view(">u2")
        values = cells - np.uint16(ord(",") << 8 | ord("0"))
        if values.max(initial=0) > 9:
            return None
        return self._accepted(np.arange(first, last), starts, base, values)

    def _accepted(self, lines: np.ndarray, id_lo: np.ndarray, id_hi: np.ndarray,
                  values: np.ndarray, valid: np.ndarray | None = None,
                  errors: list[_Diagnostic] | None = None) -> tuple:
        """A block's part, the one exit of its three cases: of its converted
        ``lines`` (every one unless ``valid`` marks some), with ids at
        raw[id_lo:id_hi] and ``values``, those that _refused passes, and the
        diagnostics of the rest after ``errors``."""
        valid = np.ones(len(lines), dtype=bool) if valid is None else valid
        errors = (errors or []) + _refused(values, valid, lines + 1, self.expected,
                                           self.instrument.scale, self.kind)
        if not valid.all():  # keep the rows that pass
            lines, id_lo, id_hi, values = (a[valid] for a in (lines, id_lo, id_hi, values))
        return lines, _id_keys(self.raw, id_lo, id_hi), values, errors

    def result(self, policy: MissingPolicy) -> tuple[ResponseSet, ValidationReport] | None:
        """parse_response_file's result, once each block not parsed yet has
        run, in order: _result on the blocks' accepted rows, in file order,
        or None if a block declined the input, which parse_response_file
        then reads with parse_response_rows."""
        for at, part in enumerate(self.parts):
            if part is None:
                self.parse(at)
        if not all(self.parts):
            return None
        lines, ids, values, errors, moments = zip(*self.parts)
        if all(isinstance(keys, np.ndarray) for keys in ids):
            ids = np.concatenate(ids)
        else:  # an id wider than one key: every block's ids as texts
            ids = [text for part in ids for text in (
                _key_texts(part) if isinstance(part, np.ndarray) else part)]
        lines, values = np.concatenate(lines), np.concatenate(values)
        errors = [error for part in errors for error in part]
        moments = None if self.bound is None else tuple(map(sum, zip(*moments)))
        return _result(self.instrument, self.kind, policy, lines + 1, ids, values, errors,
                       moments)


def _line_input(data: bytes | str, expected: list[str]) -> tuple[bytes, bool] | None:
    """The UTF-8 bytes of ``data`` (a byte-order mark removed from bytes)
    and whether they are all ASCII, or None unless they are valid, non-empty,
    free of NUL bytes, and start with a header line that holds no double
    quote and matches ``expected`` once stripped."""
    if isinstance(data, str):  # a lone surrogate fails the decode below
        data = data.encode("utf-8", "surrogatepass")
    else:
        data = data.removeprefix(codecs.BOM_UTF8)
    if not data or b"\0" in data:
        return None
    is_ascii = data.isascii()
    if not is_ascii:
        try:
            data.decode("utf-8")
        except UnicodeDecodeError:
            return None
    head = data.partition(b"\n")[0].removesuffix(b"\r")
    if b'"' in head or [cell.strip() for cell in head.decode("utf-8").split(",")] != expected:
        return None
    return data, is_ascii


def _wide_padded(raw: np.ndarray, lead: np.ndarray) -> bool:
    """Whether the valid UTF-8 ``raw`` holds a _WIDE_PAD code point, given
    the offsets ``lead`` of its _WIDE_LEAD bytes, each the lead byte of a
    sequence (no continuation byte is one)."""
    seq = raw.take(lead[:, None] + np.arange(3), mode="clip").astype(np.int32)
    seq[seq[:, 0] == 0xC2, 2] = 0  # a 2-byte sequence's key is zero-padded
    return bool(np.isin(seq @ np.array([1 << 16, 1 << 8, 1]), _WIDE_KEYS).any())


def _per_line(offsets: np.ndarray, edges: np.ndarray) -> np.ndarray:
    """How many of the sorted byte ``offsets`` lie on each line
    raw[edges[i]:edges[i + 1]]."""
    return np.diff(np.searchsorted(offsets, edges))


def _quotes(raw: np.ndarray, edges: np.ndarray, commas: np.ndarray) -> np.ndarray | None:
    """The quote count of each line raw[edges[i]:edges[i + 1]], or None if
    one of those quotes wraps no field.  Every quote wraps a field exactly
    when, for each j, quotes 2j and 2j + 1 are the first and last byte of
    one field: a comma or LF comes before the first, a comma, CR, LF or the
    end of the file after the second, and no comma or line end lies between
    them.  ``commas`` holds the lines' comma offsets."""
    quotes = np.flatnonzero(raw[edges[0]:edges[-1]] == ord('"')) + edges[0]
    if len(quotes) % 2:
        return None
    opens, shuts = quotes[0::2], quotes[1::2]
    before, after = raw[opens - 1], raw.take(shuts + 1, mode="clip")
    wraps = ((before == ord(",")) | (before == ord("\n"))) & (
        (after == ord(",")) | (after == ord("\r")) | (after == ord("\n"))
        | (shuts == len(raw) - 1))
    for bounds, side in ((commas, "left"), (edges, "right")):
        wraps &= np.searchsorted(bounds, opens, side) == np.searchsorted(bounds, shuts, side)
    return _per_line(quotes, edges) if wraps.all() else None


def _bulk_values(
    raw: np.ndarray, starts: np.ndarray, stops: np.ndarray, commas: np.ndarray,
    quoted: np.ndarray, padded: np.ndarray, pad: np.ndarray,
) -> tuple[np.ndarray, ...]:
    """Read the UTF-8 lines ``raw[starts:stops]``, whose N x k comma offsets
    are ``commas`` (consumed) and whose quotes all wrap a field; ``quoted``
    and ``padded`` mark the lines that hold a quote and a _PAD byte, and
    ``pad`` holds the sorted offsets of the _PAD bytes.  Each id and cell
    loses its quotes, as csv.reader reads it, and is narrowed as str.strip()
    narrows it; each cell is read as an optional sign and 1 to 18 digits.
    Returns the values, the mask of the cells that are not, the bounds of
    the stripped ids, and the starts and widths of the stripped cells."""
    id_lo, id_hi = starts.copy(), commas[:, 0].copy()
    hi = np.empty_like(commas)
    hi[:, :-1], hi[:, -1] = commas[:, 1:], stops
    lo = np.add(commas, 1, out=commas)
    quoted = np.flatnonzero(quoted)
    for first, last in ((id_lo, id_hi), (lo, hi)):
        wrapped = raw.take(first[quoted], mode="clip") == ord('"')
        first[quoted] += wrapped
        last[quoted] -= wrapped
    padded = np.flatnonzero(padded)
    if padded.size:
        id_lo[padded], id_hi[padded] = _strip_spans(id_lo[padded], id_hi[padded], pad)
        lo[padded], hi[padded] = _strip_spans(lo[padded], hi[padded], pad)
    values, bad = _digit_values(raw, lo, hi)
    # A sign fails the first digit: read those cells again without it.
    cells = np.flatnonzero(bad)
    sign = raw.take(lo.take(cells), mode="clip")
    cells = cells[(sign == ord("+")) | (sign == ord("-"))]
    start = lo.take(cells) + 1
    magnitude, wrong = _digit_values(raw, start, start + hi.take(cells) - 1)
    values.put(cells, np.where(raw[start - 1] == ord("-"), -magnitude, magnitude))
    bad.put(cells, wrong)
    return values, bad, id_lo, id_hi, lo, hi


def _strip_spans(
    lo: np.ndarray, hi: np.ndarray, pad: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Narrow each span raw[lo:hi] as str.strip() narrows its text, which
    holds no _WIDE_PAD code point, given the sorted offsets ``pad`` of the
    _PAD bytes of ``raw`` (not empty; no pad byte lies just outside a
    span).  A pad byte left inside a cell is not a digit, so the digit check
    refuses it.  An all-pad span comes back with hi < lo."""
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
        if isinstance(checked, tuple):
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
        try:
            data.encode("utf-8")
        except UnicodeEncodeError as exc:
            raise DataError(f"response text cannot be encoded as UTF-8: {exc}") from None
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
) -> list[int] | _Diagnostic | None:
    """The per-cell checks of one record, data row ``row``: its values, the
    first violation as a diagnostic tuple, or None for a blank line."""
    if not any(map(str.strip, raw)):
        return None
    if len(raw) != len(expected):
        return row, "*", "row_length", _ROW_LENGTH.format(len(expected), len(raw))
    if not raw[0].strip():
        return row, _ID_COLUMN, "empty_id", _EMPTY_ID
    values: list[int] = []
    for col_name, cell in zip(expected[1:], raw[1:]):
        value = _parse_int_cell(cell)
        if value is None:
            return _cell_error(row, col_name, cell.strip())
        values.append(value)
    return _value_error(values, row, expected, scale, kind) or values


def _cell_error(row: int, column: str, text: str) -> _Diagnostic:
    """The per-cell route's diagnostic of a cell that str.strip() leaves as
    ``text``, which _parse_int_cell does not read: not an integer, or one of
    too many digits."""
    if _INT_CELL.fullmatch(text):
        digits = len(text.lstrip("+-").lstrip("0"))
        return (row, column, "out_of_range", f"value of {digits} digits exceeds "
                f"the {sys.get_int_max_str_digits()}-digit integer limit")
    return row, column, "not_an_integer" if text else "missing", _NOT_AN_INTEGER.format(text)


def _value_error(
    values: list[int], row: int, expected: list[str], scale: LikertScale, kind: ResponseKind,
) -> _Diagnostic | None:
    """The first scale or allocation violation of the values of data row
    ``row`` as a diagnostic tuple, or None if they pass."""
    if kind.is_likert:
        for col_name, value in zip(expected[1:], values):
            if value < scale.min or value > scale.max:
                return row, col_name, "out_of_range", _OUT_OF_SCALE.format(value, scale=scale)
        return None
    violation = validate_importance_row(values)
    if violation is None:
        return None
    try:
        total = str(sum(values))
    except ValueError:  # more digits than str() writes
        total = f"a number of more than {sys.get_int_max_str_digits()} digits"
    return row, "*", violation, _ALLOCATION_MESSAGES[violation].format(sum=total)


def _result(
    instrument: SurveyInstrument,
    kind: ResponseKind,
    policy: MissingPolicy,
    rows: np.ndarray | Sequence[int],
    ids: list[str] | np.ndarray,
    values: np.ndarray,
    errors: list[_Diagnostic],
    moments: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[ResponseSet, ValidationReport]:
    """Finish a parse from its accepted rows (data-row numbers, ids or their
    _id_keys, and values, in file order, and maybe their S and X'X) and the
    diagnostics of the rejected ones, in any order: reject each accepted row
    whose id an earlier accepted row holds, put the diagnostics in file
    order, then raise the first under policy fail, else build the result,
    whose report builds no RowError until its row_errors is read."""
    if isinstance(ids, np.ndarray) and (np.diff(np.sort(ids)) == 0).any():  # a repeated key
        ids = _key_texts(ids)
    if isinstance(ids, list) and len(set(ids)) != len(ids):
        first: dict[str, int] = {}
        keep: list[int] = []
        for at, (row, respondent_id) in enumerate(zip(np.asarray(rows).tolist(), ids)):
            if respondent_id in first:
                errors.append((row, _ID_COLUMN, "duplicate_id", f"respondent id "
                               f"{respondent_id!r} repeats row {first[respondent_id]}"))
            else:
                first[respondent_id] = row
                keep.append(at)
        ids = [ids[at] for at in keep]
        values = values[keep]
        moments = None  # they count the dropped rows
    errors.sort(key=itemgetter(0))
    if errors and policy is MissingPolicy.FAIL:
        raise DataError(diagnostic_text(*errors[0]))
    if not len(ids):
        raise DataError(f"no valid rows in {kind.value} file ({len(errors)} rejected)")
    report = object.__new__(ValidationReport)
    vars(report).update(_diagnostics=tuple(errors), accepted_rows=len(ids),
                        rejected_rows=len(errors))
    return _validated_set(instrument, kind, values, ids, moments), report


def _validated_set(
    instrument: SurveyInstrument, kind: ResponseKind, values: np.ndarray, ids: list | np.ndarray,
    moments: tuple[np.ndarray, np.ndarray] | None,
) -> ResponseSet:
    """The ResponseSet of the rows that a route has checked, at least one:
    ``values`` is the route's own matrix, one row per id or _id_keys key,
    which the set keeps until its ids are read, and ``moments`` its S and
    X'X, or None.  It skips the constructor, whose copy of ``values`` costs
    page faults in this and later stages and whose allocation check would
    check every row again.  The set keeps ``moments`` as _gram."""
    values = np.ascontiguousarray(values, dtype=np.int64)
    values.setflags(write=False)
    response_set = object.__new__(ResponseSet)
    if moments is not None:
        object.__setattr__(response_set, "_gram", moments)
    named = ("_id_keys", ids) if isinstance(ids, np.ndarray) else ("respondent_ids", tuple(ids))
    for name, value in (("kind", kind), ("instrument_ref", instrument.fingerprint()),
                        ("values", values), named):
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
        if not math.isfinite(exact_sum):
            raise DataError(f"target mean {target!r} for column {col_idx} has no finite total")
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
