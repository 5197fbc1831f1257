import codecs
import re
import sys

import numpy as np
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
    ResponseSet,
    RowError,
    generate_synthetic,
    parse_response_file,
    parse_response_rows,
    serialize_response_set,
    validate_importance_row,
)
from satmetric.instrument import LikertScale, build_instrument

SMALL_INSTRUMENT = build_instrument({
    "scale": {"min": 1, "max": 5},
    "items": [
        {"id": 1, "prompt": "a", "dimension": "reliability", "kano": "must_be"},
        {"id": 2, "prompt": "b", "dimension": "responsiveness", "kano": "performance"},
        {"id": 3, "prompt": "c", "dimension": "assurance", "kano": "must_be"},
    ],
})


def likert_csv(rows, header="respondent_id,q1,q2,q3"):
    return (header + "\n" + "\n".join(rows) + "\n").encode()


def importance_csv(rows):
    header = "respondent_id," + ",".join(IMPORTANCE_COLUMNS)
    return (header + "\n" + "\n".join(rows) + "\n").encode()


def test_complete_file_parses_with_no_rejections(xyz_instrument):
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 18))
    rows = [f"p{r:02d}," + ",".join("4" for _ in range(17)) for r in range(81)]
    data = (header + "\n" + "\n".join(rows) + "\n").encode()
    rs, report = parse_response_file(data, xyz_instrument, ResponseKind.EXPECTATION)
    assert rs.n_respondents == 81
    assert report.row_errors == ()
    assert report.accepted_rows == 81 and report.rejected_rows == 0


def test_out_of_range_row_dropped_with_code():
    data = likert_csv(["r1,1,2,3", "r2,6,2,3", "r3,5,5,5"])
    rs, report = parse_response_file(data, SMALL_INSTRUMENT, ResponseKind.PERCEPTION)
    assert rs.n_respondents == 2
    assert report.rejected_rows == 1
    err = report.row_errors[0]
    assert err.row == 2 and err.code == "out_of_range" and err.column == "q1"
    assert report.accepted_rows + report.rejected_rows == 3


def test_out_of_range_fails_fast_under_fail_policy():
    data = likert_csv(["r1,1,2,3", "r2,0,2,3"])
    with pytest.raises(DataError, match="out_of_range"):
        parse_response_file(data, SMALL_INSTRUMENT, ResponseKind.PERCEPTION,
                            policy=MissingPolicy.FAIL)


@pytest.mark.parametrize("parse", [parse_response_file, parse_response_rows])
@pytest.mark.parametrize("policy", list(MissingPolicy))
def test_widest_scale_refuses_values_beyond_int64(parse, policy):
    """Under the widest scale an int64 holds, a value one past either bound
    is out of range on both routes, not an OverflowError."""
    instrument = build_instrument({
        "scale": {"min": -(2**63), "max": 2**63 - 1},
        "items": [{"id": 1, "prompt": "a", "dimension": "empathy", "kano": "must_be"}],
    })
    data = ("respondent_id,q1\nr1,11111111111111111111\nr2,9223372036854775807\n"
            "r3,-9223372036854775809\nr4,-9223372036854775808\n").encode()
    if policy is MissingPolicy.FAIL:
        with pytest.raises(DataError, match=r"row 1, column q1: value 11111111111111111111 "
                                            r"outside scale \[-9223372036854775808, "
                                            r"9223372036854775807\] \[out_of_range\]"):
            parse(data, instrument, ResponseKind.EXPECTATION, policy)
        return
    rs, report = parse(data, instrument, ResponseKind.EXPECTATION, policy)
    assert [(err.row, err.code) for err in report.row_errors] == \
        [(1, "out_of_range"), (3, "out_of_range")]
    assert rs.values.tolist() == [[2**63 - 1], [-(2**63)]]


def test_missing_and_decimal_cells_rejected():
    data = likert_csv(["r1,1,,3", "r2,2.0,3,3", "r3,1,2,3"])
    rs, report = parse_response_file(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
    assert rs.n_respondents == 1
    codes = [e.code for e in report.row_errors]
    assert codes == ["missing", "not_an_integer"]


ALL_ROUTES = (
    lambda data, *args: parse_response_file(data, *args),
    lambda data, *args: parse_response_file(data.decode(), *args),
    lambda data, *args: parse_response_rows(data, *args),
)


LIMIT = sys.get_int_max_str_digits()


@pytest.mark.parametrize("parse", ALL_ROUTES, ids=["bytes", "str", "per_cell"])
def test_cell_over_the_int_digit_limit_gets_a_row_diagnostic(parse):
    """A cell of more significant digits than int() reads is out of range on
    every route, and fails the parse under policy fail; leading zeros past
    the limit still read, and a cell at the limit keeps its message."""
    at_limit = "9" * LIMIT
    data = likert_csv([f"r1,1,-{'7' * (LIMIT + 700)},x", f"r2,{'0' * LIMIT}3,2,1",
                       f"r3,1,{at_limit},2", f"r4,2,+{'0' * 9}{'1' * (LIMIT + 1)},3"])
    rs, report = parse(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION, MissingPolicy.DROP_ROW)
    assert rs.respondent_ids == ("r2",) and rs.values.tolist() == [[3, 2, 1]]
    too_long = "value of {} digits exceeds the " + f"{LIMIT}-digit integer limit"
    assert report.row_errors == (
        RowError(1, "q2", "out_of_range", too_long.format(LIMIT + 700)),
        RowError(3, "q2", "out_of_range", f"value {at_limit} outside scale [1, 5]"),
        RowError(4, "q2", "out_of_range", too_long.format(LIMIT + 1)))
    with pytest.raises(DataError, match=r"^row 1, column q2: value of \d+ digits exceeds"):
        parse(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION, MissingPolicy.FAIL)


@pytest.mark.parametrize("parse", ALL_ROUTES, ids=["bytes", "str", "per_cell"])
def test_allocation_sum_over_the_int_digit_limit_is_not_written_out(parse):
    """Five cells at the digit limit sum to one digit more, which str()
    refuses: the message says so; a sum within the limit is written out."""
    nines, ten = "9" * LIMIT, "1" + "0" * (LIMIT - 1)
    data = importance_csv([",".join(["a", *[nines] * 5]), ",".join(["b", ten, *"0000"]),
                           "c,20,20,20,20,20"])
    rs, report = parse(data, SMALL_INSTRUMENT, ResponseKind.IMPORTANCE, MissingPolicy.DROP_ROW)
    assert rs.respondent_ids == ("c",)
    assert report.row_errors == (
        RowError(1, "*", "sum_not_100",
                 f"allocation sums to a number of more than {LIMIT} digits, expected 100"),
        RowError(2, "*", "sum_not_100", f"allocation sums to {ten}, expected 100"))
    with pytest.raises(DataError, match="^row 1, column [*]: allocation sums to a number of"):
        parse(data, SMALL_INSTRUMENT, ResponseKind.IMPORTANCE, MissingPolicy.FAIL)


@pytest.mark.parametrize("parse", ALL_ROUTES, ids=["bytes", "str", "per_cell"])
def test_empty_and_duplicate_ids_rejected(parse):
    """An empty id is rejected; a later accepted row that repeats an earlier
    accepted row's id (after stripping) is rejected, and the first kept."""
    data = likert_csv([" ,1,2,3", "r1,1,2,3", "r2,9,9,9", "r2,4,4,4", " r1 ,5,5,5",
                       "r3,1,1,1", "r2,2,2,2"])
    rs, report = parse(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION, MissingPolicy.DROP_ROW)
    assert rs.respondent_ids == ("r1", "r2", "r3")
    assert rs.values.tolist() == [[1, 2, 3], [4, 4, 4], [1, 1, 1]]
    assert [(e.row, e.column, e.code) for e in report.row_errors] == [
        (1, "respondent_id", "empty_id"), (3, "q1", "out_of_range"),
        (5, "respondent_id", "duplicate_id"), (7, "respondent_id", "duplicate_id")]
    assert report.row_errors[2].message == "respondent id 'r1' repeats row 2"
    assert report.accepted_rows == 3 and report.rejected_rows == 4


@pytest.mark.parametrize("parse", ALL_ROUTES, ids=["bytes", "str", "per_cell"])
def test_fail_policy_raises_on_the_first_bad_row_duplicates_included(parse):
    def first_error(rows):
        with pytest.raises(DataError) as exc:
            parse(likert_csv(rows), SMALL_INSTRUMENT, ResponseKind.EXPECTATION,
                  MissingPolicy.FAIL)
        return str(exc.value)

    assert first_error(["r1,1,2,3", "r1,3,2,1", "r2,9,2,3"]) == \
        "row 2, column respondent_id: respondent id 'r1' repeats row 1 [duplicate_id]"
    assert first_error(["r1,1,2,3", "r2,9,2,3", "r1,3,2,1"]) == \
        "row 2, column q1: value 9 outside scale [1, 5] [out_of_range]"
    assert first_error(["r1,1,2,3", ",3,2,1"]) == \
        "row 2, column respondent_id: respondent id is empty [empty_id]"


@pytest.mark.parametrize("rows", [["r1,1,2,3", "r2,1,2,3", "r1,3,2,1"],
                                  ["r1,1,2,3", "r2, 1,2,3", "r1,3,2,1"]],
                         ids=["strict", "padded"])
@pytest.mark.parametrize("parse", ALL_ROUTES, ids=["bytes", "str", "per_cell"])
def test_duplicate_id_rows_are_python_ints(parse, rows):
    """The line route hands its row numbers on as an int array; the row of
    a duplicate id's error is still a Python int on every route."""
    _, report = parse(likert_csv(rows), SMALL_INSTRUMENT, ResponseKind.EXPECTATION,
                      MissingPolicy.DROP_ROW)
    assert [(type(e.row), e.row, e.code) for e in report.row_errors] == \
        [(int, 3, "duplicate_id")]


def test_strict_file_with_a_repeated_id_matches_the_per_cell_parser():
    data = likert_csv(["r1,1,2,3", "r2,1,2,3", "r1,3,2,1", "r2,5,5,5"])
    rs, report = strict_result(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
    ref_rs, ref_report = parse_response_rows(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
    assert report == ref_report
    assert [(e.row, e.code) for e in report.row_errors] == \
        [(3, "duplicate_id"), (4, "duplicate_id")]
    assert rs.respondent_ids == ref_rs.respondent_ids == ("r1", "r2")
    assert rs.values.tolist() == ref_rs.values.tolist()
    with pytest.raises(DataError) as exc:
        strict_result(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION, MissingPolicy.FAIL)
    assert str(exc.value) == \
        "row 3, column respondent_id: respondent id 'r1' repeats row 1 [duplicate_id]"


def _spy(monkeypatch, calls, owner, name, rows_at=None):
    """Record each call of ``owner.name`` in ``calls`` as it returns: the row
    count of its argument ``rows_at``, or whether it returned a result."""
    real = getattr(owner, name)

    def record(*args):
        result = real(*args)
        calls.append((name, result is not None if rows_at is None else len(args[rows_at])))
        return result
    monkeypatch.setattr(owner, name, record)


@pytest.mark.parametrize("policy", list(MissingPolicy))
@pytest.mark.parametrize("kind, rows, one_byte", [
    (ResponseKind.EXPECTATION, ["r1,1,2,3", "r2,1,19,3", "r3,5,5,05", "r4,00,2,2"], False),
    (ResponseKind.EXPECTATION, ["r1,1,2,3", "r2,1,9,3", "r3,5,5,5", "r4,0,2,2"], True),
    (ResponseKind.IMPORTANCE, ["r1,40,30,10,10,10", "r2,22,18,20,20,20",
                               "r3,20,20,20,20,20", "r4,100,0,0,0,5"], False),
], ids=["likert", "likert_one_byte", "importance"])
def test_strict_file_with_refused_rows_converts_once(monkeypatch, xyz_instrument, kind, rows,
                                                     one_byte, policy):
    """A strict file whose only faults are values outside the scale or bad
    allocations stays in the strict case, or in the one-byte case when each
    Likert cell is one digit: its cells are converted once, their values
    checked once, and its result or error is the per-cell parser's.  Three
    of the four lines of the ``likert`` file have a cell of two digits, more
    than half, so that the one-byte case leaves the block to the strict case."""
    instrument = SMALL_INSTRUMENT if kind.is_likert else xyz_instrument
    data = (likert_csv if kind.is_likert else importance_csv)(rows)
    try:
        reference = parse_response_rows(data, instrument, kind, policy)
    except DataError as exc:
        reference = str(exc)
    calls = []
    _spy(monkeypatch, calls, ingest.LineBlocks, "_one_byte")
    _spy(monkeypatch, calls, ingest, "_digit_values", 1)
    _spy(monkeypatch, calls, ingest, "_refused", 0)
    try:
        rs, report = strict_result(data, instrument, kind, policy)
    except DataError as exc:
        assert str(exc) == reference
    else:
        ref_rs, ref_report = reference
        assert report == ref_report and report.rejected_rows == 2
        assert rs.respondent_ids == ref_rs.respondent_ids == ("r1", "r3")
        assert rs.values.tolist() == ref_rs.values.tolist()
    # A call is recorded as it returns: _one_byte calls _refused itself.
    assert calls == ([("_refused", 4), ("_one_byte", True)] if one_byte else
                     [("_one_byte", False), ("_digit_values", 4), ("_refused", 4)])


@pytest.mark.parametrize("policy", list(MissingPolicy))
def test_one_byte_block_reads_its_dirty_lines_once(monkeypatch, policy):
    """A Likert block with two lines of a two-digit cell among four: the
    one-byte case gathers the other two, and hands those two alone to the
    general case, whose cells are converted once (and read once more for a
    sign, in none of them).  _refused checks the dirty rows' values in int64,
    then the block's uint16 rows, where the dirty ones hold the scale's
    minimum or the values the general case read.  The result or error is the
    per-cell parser's."""
    data = likert_csv(["r1,1,2,3", "r2,1,19,3", "r3,5,5,05", "r4,0,2,2"])
    try:
        reference = parse_response_rows(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION, policy)
    except DataError as exc:
        reference = str(exc)
    calls = []
    _spy(monkeypatch, calls, ingest.LineBlocks, "_one_byte")
    _spy(monkeypatch, calls, ingest, "_digit_values", 1)
    _spy(monkeypatch, calls, ingest, "_refused", 0)
    try:
        rs, report = parse_response_file(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION, policy)
    except DataError as exc:
        assert str(exc) == reference
    else:
        assert report == reference[1] and report.rejected_rows == 2
        assert rs.respondent_ids == reference[0].respondent_ids == ("r1", "r3")
        assert rs.values.tolist() == reference[0].values.tolist() == [[1, 2, 3], [5, 5, 5]]
    assert calls == [("_digit_values", 2), ("_digit_values", 0), ("_refused", 2),
                     ("_refused", 4), ("_one_byte", True)]


def test_strict_str_input_takes_the_strict_case():
    data = likert_csv(["r1,1,2,3", "r2,4,5,1"]).decode()
    rs, report = strict_result(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
    ref_rs, ref_report = parse_response_rows(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
    assert report == ref_report and rs.respondent_ids == ref_rs.respondent_ids
    assert rs.values.tolist() == ref_rs.values.tolist() == [[1, 2, 3], [4, 5, 1]]


@pytest.mark.parametrize("parse", [parse_response_file, parse_response_rows])
def test_text_with_a_lone_surrogate_is_refused(parse):
    """A str that UTF-8 cannot encode is refused, as undecodable bytes are,
    rather than accepted into a set that serialize_response_set cannot write."""
    with pytest.raises(DataError, match="cannot be encoded as UTF-8"):
        parse("respondent_id,q1,q2,q3\n\ud800x,3,3,3\n", SMALL_INSTRUMENT,
              ResponseKind.EXPECTATION)


def test_texts_reads_spans_up_to_the_end_of_the_data():
    """_texts gathers the byte after each span; after the last byte of the
    data there is none."""
    raw = np.frombuffer(b"ab,cd", np.uint8)
    assert ingest._texts(raw, np.array([3]), np.array([5])) == ["cd"]
    assert ingest._texts(raw, np.array([0, 3, 5]), np.array([2, 5, 5])) == ["ab", "cd", ""]


def test_header_mismatch_rejected(xyz_instrument):
    data = likert_csv(["r1,1,2,3"], header="respondent_id,q1,q2,q4")
    with pytest.raises(DataError, match="header mismatch"):
        parse_response_file(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)


def test_zero_accepted_rows_is_an_error():
    data = likert_csv(["r1,9,9,9"])
    with pytest.raises(DataError, match="no valid rows"):
        parse_response_file(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)


def test_crlf_and_lf_both_accepted():
    lf = likert_csv(["r1,1,2,3"])
    crlf = lf.replace(b"\n", b"\r\n")
    rs_lf, _ = parse_response_file(lf, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
    rs_crlf, _ = parse_response_file(crlf, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
    assert np.array_equal(rs_lf.values, rs_crlf.values)


@pytest.mark.parametrize("rows", [
    ["r1,1,2,3", "r2,4,5,1"],      # strict file: the strict case
    ["r1,1,2,3", "r2, 4,5,1"],     # padded cell: converted in bulk
    ["r1,1,2,3", "r2,7,5,1"],      # rejected row: its diagnostic from _value_error
])
def test_leading_byte_order_mark_is_skipped(rows):
    data = likert_csv(rows)
    for parse in (parse_response_file, parse_response_rows):
        plain, plain_report = parse(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)
        bom, bom_report = parse(codecs.BOM_UTF8 + data, SMALL_INSTRUMENT,
                                ResponseKind.EXPECTATION)
        assert bom_report == plain_report
        assert bom.respondent_ids == plain.respondent_ids == ("r1", "r2")[:plain.n_respondents]
        assert np.array_equal(bom.values, plain.values)


def test_importance_row_sum_99_rejected(xyz_instrument):
    data = importance_csv(["r1,40,30,20,5,4", "r2,20,20,20,20,20"])
    rs, report = parse_response_file(data, xyz_instrument, ResponseKind.IMPORTANCE)
    assert rs.n_respondents == 1
    assert report.row_errors[0].code == "sum_not_100"


def test_allocations_are_checked_once_per_parse(monkeypatch, xyz_instrument):
    """The line route, strict case or not, checks the converted allocations
    once and builds its ResponseSet without checking them again; a
    ResponseSet built directly still checks every row."""
    calls = []
    real = ingest._invalid_allocations

    def spy(values):
        calls.append(len(values))
        return real(values)

    monkeypatch.setattr(ingest, "_invalid_allocations", spy)
    clean = importance_csv(["r1,40,30,10,10,10", "r2,20,20,20,20,20"])
    dirty = importance_csv(["r1, 40,30,10,10,10", "r2,20,20,20,20,20", "r3,20,20,20,20,25"])
    assert strict_result(clean, xyz_instrument, ResponseKind.IMPORTANCE) is not None
    calls.clear()
    for data, rows in ((clean, 2), (clean.decode(), 2), (dirty, 3)):
        rs, _ = parse_response_file(data, xyz_instrument, ResponseKind.IMPORTANCE)
        assert rs.n_respondents == 2
        assert calls == [rows]
        calls.clear()
    with pytest.raises(DataError, match="importance row 2 violates sum_not_100"):
        ResponseSet(ResponseKind.IMPORTANCE, "t", np.array([[20] * 5, [20, 20, 20, 20, 25]]),
                    ("r1", "r2"))
    assert calls == [2]


@pytest.mark.parametrize("data", [b"", codecs.BOM_UTF8, ""])
def test_empty_response_file_is_refused(data):
    with pytest.raises(DataError, match="^empty response file$"):
        parse_response_file(data, SMALL_INSTRUMENT, ResponseKind.EXPECTATION)


@pytest.mark.parametrize("kind, values, ids, message", [
    (ResponseKind.EXPECTATION, np.zeros((0, 3)), (), "response matrix must be N x k with N >= 1"),
    (ResponseKind.EXPECTATION, np.ones((2, 3)), ("r1",),
     "respondent_ids length must match row count"),
    (ResponseKind.IMPORTANCE, np.full((1, 4), 25), ("r1",),
     "importance matrix must have exactly 5 columns"),
], ids=["no_rows", "id_count", "importance_width"])
def test_response_set_constructor_refuses_a_bad_shape(kind, values, ids, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        ResponseSet(kind, "t", values, ids)


@pytest.mark.parametrize("cell, shown", [
    (1.9, "1.9"), (2**63, None), (None, "None"), ("a", "'a'"), (float("nan"), "nan"),
], ids=["fraction", "past_int64", "none", "text", "nan"])
def test_response_set_constructor_refuses_a_cell_that_is_no_int64(cell, shown):
    """A cell that an int64 cannot hold exactly raises DataError naming its
    row, where the constructor used to truncate it or let numpy's error out."""
    rows = [[1, 2, 3], [cell, 2, 3], [4.5, 2, 3]]
    with pytest.raises(DataError, match=r"^response row 2 holds (.+), not an integer within "
                                        r"int64$") as exc:
        ResponseSet(ResponseKind.EXPECTATION, "t", rows, ("r1", "r2", "r3"))
    assert shown is None or f"holds {shown}," in str(exc.value)


@pytest.mark.parametrize("call, message", [
    (lambda: ResponseSet(ResponseKind.EXPECTATION, "t", [[1, 2, 3], [4, 5]], ("r1", "r2")),
     "response matrix must be N x k with N >= 1"),
    (lambda: generate_synthetic([3.0], 0, LikertScale()), "n_respondents must be >= 1"),
    (lambda: generate_synthetic([20.0] * 5, 4, LikertScale(), kind=ResponseKind.IMPORTANCE),
     "synthetic generation covers Likert kinds only"),
], ids=["ragged_rows", "no_respondents", "importance_kind"])
def test_refused_sets_raise_data_error(call, message):
    with pytest.raises(DataError, match=f"^{re.escape(message)}$"):
        call()


def test_response_set_constructor_keeps_what_converts_exactly():
    """Integers, bools and floats of integer value within int64 are kept,
    as an int64 copy; an integer beside a float in a list is not read
    through the float64 that numpy would make of the row."""
    given = np.array([[2.0, -(2.0**63), 7]])
    rs = ResponseSet(ResponseKind.EXPECTATION, "t", given, ("r1",))
    assert rs.values.dtype == np.int64 and rs.values.tolist() == [[2, -2**63, 7]]
    for mixed, kept in (([True, np.int32(3), 2**63 - 1], [1, 3, 2**63 - 1]),
                        ([2**53 + 1, 1.0, 2**63 - 1], [2**53 + 1, 1, 2**63 - 1])):
        assert ResponseSet(ResponseKind.EXPECTATION, "t", [mixed], ("r1",)).values.tolist() == \
            [kept]


@pytest.mark.parametrize("row, expected", [
    ((20, 20, 20, 20, 20), None),
    ((40, 30, 10, 10, 10), None),
    ((100, 0, 0, 0, 0), None),
    ((33, 33, 34, 0, 0), "not_multiple_of_five"),
    ((40, 30, 20, 5, 4), "sum_not_100"),
    ((105, -5, 0, 0, 0), "out_of_range"),
    ((20, 20, 20, 20), "row_length"),
])
def test_validate_importance_row(row, expected):
    assert validate_importance_row(row) == expected


ANY_ROWS = st.lists(st.integers(-10, 110) | st.integers(-2**63, 2**63 - 1),
                    min_size=5, max_size=5)


@settings(max_examples=examples(100), deadline=None)
@given(st.lists(ALLOCATIONS | ANY_ROWS, min_size=1, max_size=6))
def test_importance_set_check_matches_row_validator(rows):
    """ResponseSet's bulk allocation check raises exactly when, and with the
    message that, validate_importance_row gives for the first bad row."""
    first_bad = next(((idx, v) for idx, row in enumerate(rows, start=1)
                      if (v := validate_importance_row(row)) is not None), None)
    args = (ResponseKind.IMPORTANCE, "t", np.array(rows, dtype=np.int64),
            tuple(map(str, range(len(rows)))))
    if first_bad is None:
        assert ResponseSet(*args).values.tolist() == rows
    else:
        with pytest.raises(DataError) as exc:
            ResponseSet(*args)
        assert str(exc.value) == f"importance row {first_bad[0]} violates {first_bad[1]}"


def test_response_sets_compare_by_value_and_have_no_hash():
    def two_by_two(values=((1, 2), (3, 4)), ids=("r1", "r2"), ref="t",
                   kind=ResponseKind.EXPECTATION):
        return ResponseSet(kind, ref, np.array(values), ids)

    a = two_by_two()
    assert a == two_by_two() and not a != two_by_two()
    for other in (two_by_two(values=((1, 2), (3, 5))), two_by_two(ids=("r1", "r3")),
                  two_by_two(ref="u"), two_by_two(kind=ResponseKind.PERCEPTION),
                  two_by_two(values=((1, 2), (3, 4), (5, 1)), ids=("r1", "r2", "r3"))):
        assert a != other and not a == other
    assert a != ((1, 2), (3, 4))
    with pytest.raises(TypeError, match="unhashable"):
        hash(a)


def test_serialize_parse_round_trip_is_bit_exact(xyz_instrument):
    rs = generate_synthetic([4.0, 3.5, 2.25] + [3.0] * 14, 4, xyz_instrument.scale, seed=3)
    payload = serialize_response_set(rs, xyz_instrument)
    reparsed, report = parse_response_file(payload, xyz_instrument, rs.kind)
    assert report.rejected_rows == 0
    assert np.array_equal(reparsed.values, rs.values)
    assert reparsed.respondent_ids == rs.respondent_ids
    assert serialize_response_set(reparsed, xyz_instrument) == payload


def test_synthetic_means_are_exact():
    target = 356 / 81  # 81 x mean = 356 exactly
    rs = generate_synthetic([target], 81, LikertScale(), seed=0)
    column = rs.values[:, 0]
    assert column.sum() == 356
    assert column.min() >= 1 and column.max() <= 5
    assert column.sum() / 81 == target


def test_synthetic_accepts_rounded_decimal_target():
    # a 9-digit decimal rendering of 356/81: 81 x mean is integral within 1e-6
    rs = generate_synthetic([4.395061728], 81, LikertScale(), seed=0)
    assert rs.values[:, 0].sum() == 356


def test_synthetic_max_mean_gives_constant_column():
    rs = generate_synthetic([5.0], 10, LikertScale(), seed=1)
    assert np.array_equal(rs.values[:, 0], np.full(10, 5))


def test_synthetic_non_integer_sum_is_infeasible():
    with pytest.raises(DataError, match="not an integer"):
        generate_synthetic([4.5], 81, LikertScale(), seed=0)


def test_synthetic_out_of_scale_target_is_infeasible():
    with pytest.raises(DataError, match="outside"):
        generate_synthetic([5.5], 10, LikertScale(), seed=0)


@pytest.mark.parametrize("target", [float("nan"), float("inf"), float("-inf"), 1e308])
def test_synthetic_non_finite_target_is_refused(target):
    """A target whose total over the respondents is not finite (nan,
    infinite or too large for a float) is refused for its column."""
    with pytest.raises(DataError, match=re.escape(f"target mean {target!r} for column 2 has "
                                                  "no finite total")):
        generate_synthetic([4.0, target], 10, LikertScale(), seed=0)


def test_synthetic_is_deterministic_per_seed():
    targets = [4.25, 2.5, 3.75]
    a = generate_synthetic(targets, 8, LikertScale(), seed=11)
    b = generate_synthetic(targets, 8, LikertScale(), seed=11)
    c = generate_synthetic(targets, 8, LikertScale(), seed=12)
    assert np.array_equal(a.values, b.values)
    assert not np.array_equal(a.values, c.values)
    # means still exact under every seed
    assert np.array_equal(c.values.sum(axis=0), (np.array(targets) * 8).round())


@settings(max_examples=examples(60), deadline=None)
@given(st.integers(1, 12), st.integers(1, 6), st.integers(0, 10_000), st.data())
def test_random_valid_matrices_parse_with_zero_rejections(n, k, seed, data):
    instrument = build_instrument({
        "scale": {"min": 1, "max": 5},
        "items": [{"id": i, "prompt": f"q{i}", "dimension": "empathy", "kano": "must_be"}
                  for i in range(1, k + 1)],
    })
    matrix = data.draw(st.lists(
        st.lists(st.integers(1, 5), min_size=k, max_size=k), min_size=n, max_size=n))
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, k + 1))
    body = "\n".join(f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(matrix))
    rs, report = parse_response_file((header + "\n" + body + "\n").encode(),
                                     instrument, ResponseKind.PERCEPTION)
    assert report.rejected_rows == 0
    assert rs.n_respondents == n
    assert np.array_equal(rs.values, np.array(matrix))
