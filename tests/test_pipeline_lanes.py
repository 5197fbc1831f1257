"""pipeline.surveys parses one call's files as block jobs in lanes: one lane
below ``pipeline.CONCURRENT_BYTES`` of input, ``pipeline.LANES`` (two) from
it on.

The test files are far below ``pipeline.CONCURRENT_BYTES`` and
``ingest.BLOCK_BYTES``, so each test moves the lane cut to 1 byte or out of
reach (one lane), reports four usable CPUs on the concurrent side and cuts
each file into blocks of about BLOCK_LINES lines.  Whatever the lanes, the
caller sees the same yields, output, errors and order."""

from __future__ import annotations

import itertools
import json
import os
import shutil
import sys
import threading
import time

import pytest
from conftest import dirty_xyz_csv

from satmetric import ingest, pipeline, xyz
from satmetric.cli import main
from satmetric.errors import SatmetricError
from satmetric.ingest import IMPORTANCE_COLUMNS, MissingPolicy, ResponseKind, \
    generate_synthetic, serialize_response_set
from satmetric.instrument import serialize_instrument
from satmetric.pipeline import surveys

ROLES = ("expect", "perceive", "importance")
#: Files per role: a clean one, one with rejected rows (``fail`` raises at
#: its first), and none at all.  A case names each role's file.
CASES = {
    "clean": ("good", "good", "good"),
    **{f"bad_{role}": tuple("bad" if at == pos else "good" for at in range(3))
       for pos, role in enumerate(ROLES)},
    "missing_expect": ("missing", "good", "good"),
    "bad_expect_missing_perceive": ("bad", "missing", "good"),
    "bad_expect_missing_importance": ("bad", "good", "missing"),
    "bad_perceive_missing_importance": ("good", "bad", "missing"),
}
#: The files each survey command reads.
COMMAND_ROLES = {"gap": ROLES, "validate": ROLES, "descriptives": ROLES[:2],
                 "reliability": ROLES[:2]}


def _importance_csv(bad: bool) -> bytes:
    rows = [[20, 20, 20, 20, 20], [10, 40, 25, 15, 10], [5, 45, 25, 15, 10]] * 10
    lines = [f"i{n:03d},{','.join(map(str, row))}" for n, row in enumerate(rows)]
    if bad:
        lines[4] = "i004,20,20,20,20,15"  # sum_not_100
        lines[7] = "i007,20,x,20,20,20"  # not_an_integer
        lines[9] = "i009,20,20"  # row_length
    return "\n".join(["respondent_id," + ",".join(IMPORTANCE_COLUMNS), *lines, ""]).encode()


@pytest.fixture(scope="module")
def study(tmp_path_factory):
    d = tmp_path_factory.mktemp("lanes")
    instrument = xyz.xyz_instrument()
    (d / "xyz.json").write_text(json.dumps(serialize_instrument(instrument)))
    for seed, (kind, means) in enumerate(((ResponseKind.EXPECTATION, xyz.expectation_means()),
                                          (ResponseKind.PERCEPTION, xyz.perception_means()))):
        rs = generate_synthetic(means, 81, instrument.scale, seed=seed, kind=kind)
        (d / f"good_{ROLES[seed]}.csv").write_bytes(serialize_response_set(rs, instrument))
        (d / f"bad_{ROLES[seed]}.csv").write_bytes(dirty_xyz_csv(40 + seed))
    (d / "good_importance.csv").write_bytes(_importance_csv(False))
    (d / "bad_importance.csv").write_bytes(_importance_csv(True))
    return d


def _paths(study, case: str) -> list[str]:
    return [str(study / f"{shape}_{role}.csv") for role, shape in zip(ROLES, CASES[case])]


#: About the lines to a block of a test file (17 items, about 40 bytes to a
#: line), so that each file is several jobs.
BLOCK_LINES = 10


def _lanes(monkeypatch, concurrent: bool, delay: float = 0.02, lane_delay: float = 0.02,
           kind_delays: dict | None = None) -> list[tuple[ResponseKind, int]]:
    """Set the lane cut for one side and blocks of about BLOCK_LINES lines; on the
    concurrent side, report four usable CPUs and return the list that each
    block job appends its file's kind and its thread to.  The spy sleeps
    ``delay`` in the calling thread and ``lane_delay`` in the others, or
    ``kind_delays[kind]`` for a block of that kind, releasing the GIL, so
    that another lane takes the next job."""
    monkeypatch.setattr(pipeline, "CONCURRENT_BYTES", 1 if concurrent else sys.maxsize)
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 40 * BLOCK_LINES)
    parsers: list[tuple[ResponseKind, int]] = []
    if concurrent:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        real = ingest.LineBlocks.parse

        def spy(blocks, at):
            parsers.append((blocks.kind, threading.get_ident()))
            main = threading.current_thread() is threading.main_thread()
            time.sleep((kind_delays or {}).get(blocks.kind, delay if main else lane_delay))
            return real(blocks, at)

        monkeypatch.setattr(ingest.LineBlocks, "parse", spy)
    return parsers


def _survey_outcome(study, case, policy, capsys):
    try:
        result = list(surveys(xyz.xyz_instrument(), policy, *_paths(study, case)))
    except SatmetricError as exc:
        result = type(exc), str(exc)
    return result, capsys.readouterr()


def _cli_outcome(study, case, policy, command, out, capsys):
    argv = [command, "--instrument", str(study / "xyz.json"), "--missing-policy", policy]
    for role, path in zip(COMMAND_ROLES[command], _paths(study, case)):
        argv += [f"--{role}", path]
    if command != "validate":
        argv += ["--out", str(out / "r")]
    if command == "gap":
        argv.append("--suppress-timestamp")
    out.mkdir()
    code = main(argv)
    files = {str(p.relative_to(out)): p.read_bytes() for p in sorted(out.rglob("*"))
             if p.is_file()}
    shutil.rmtree(out)
    return code, capsys.readouterr(), files


@pytest.mark.parametrize("policy", [p.value for p in MissingPolicy])
@pytest.mark.parametrize("case", CASES)
def test_concurrent_parse_gives_what_one_lane_gives(study, tmp_path, monkeypatch, capsys,
                                                    case, policy):
    """surveys yields, and gap, validate, descriptives and reliability write,
    the same with one lane as with concurrent lanes: yields, stdout, stderr,
    exit codes, output files and the first error in file order."""
    outcomes = {}
    for concurrent in (False, True):
        with monkeypatch.context() as patch:
            parsers = _lanes(patch, concurrent)
            outcomes[concurrent] = [_survey_outcome(study, case, policy, capsys)] + [
                _cli_outcome(study, case, policy, command, tmp_path / "out", capsys)
                for command in COMMAND_ROLES]
        if concurrent:
            assert len({thread for _, thread in parsers}) > 1, "one thread parsed every block"
    assert outcomes[True] == outcomes[False]
    if CASES[case] == ("bad", "missing", "good"):  # the bad file comes first in both
        surveyed = outcomes[False][0]
        if policy == "fail":
            assert surveyed[0][1] == "row 4, column *: expected 18 fields, got 3 [row_length]"
            assert surveyed[1].err == ""
        else:
            assert "cannot read" in surveyed[0][1] and "[row_length]" in surveyed[1].err


def test_first_file_blocks_run_in_several_lanes(study, monkeypatch, capsys):
    """The blocks of the first file alone are shared among the lanes, and
    what surveys yields is what one lane yields."""
    paths = _paths(study, "clean")
    with monkeypatch.context() as patch:
        _lanes(patch, False)
        expected = list(surveys(xyz.xyz_instrument(), "drop_row", *paths))
    parsers = _lanes(monkeypatch, True)
    assert list(surveys(xyz.xyz_instrument(), "drop_row", *paths)) == expected
    threads = {thread for kind, thread in parsers if kind is ResponseKind.EXPECTATION}
    assert len(threads) > 1, "one thread parsed every block of the first file"
    capsys.readouterr()


def test_fail_from_a_later_block_waits_for_its_turn(study, tmp_path, monkeypatch, capsys):
    """Under fail, a bad row in the third block of the first file raises the
    one-lane error at that file's turn, while the second file's blocks are
    still being parsed in other lanes, and every lane has ended once it is
    raised."""
    rows = xyz.xyz_instrument().n_items
    lines = (study / "good_expect.csv").read_bytes().split(b"\n")
    third = 2 * BLOCK_LINES + 5  # data row 25, in the third block
    lines[third] = lines[third].rsplit(b",", 1)[0] + b",9"  # out_of_range
    bad = tmp_path / "bad_third_block.csv"
    bad.write_bytes(b"\n".join(lines))
    paths = [str(bad), *_paths(study, "clean")[1:]]
    with monkeypatch.context() as patch:
        _lanes(patch, False)
        with pytest.raises(SatmetricError) as one_lane:
            list(surveys(xyz.xyz_instrument(), "fail", *paths))
    assert str(one_lane.value) == f"row {third}, column q{rows}: value 9 outside scale [1, 5] " \
        "[out_of_range]"
    parsers = _lanes(monkeypatch, True, kind_delays={ResponseKind.EXPECTATION: 0.01,
                                                     ResponseKind.PERCEPTION: 0.3})
    firsts = ingest.cut_lines(bad.read_bytes(), xyz.xyz_instrument(),
                              ResponseKind.EXPECTATION).firsts
    assert firsts[2] <= third - 1 < firsts[3]  # data line third - 1 is data row third
    busy = []  # at each join, the second file's blocks begun so far
    real = ingest.LineBlocks.result

    def joined(blocks, *args):
        busy.append(sum(kind is ResponseKind.PERCEPTION for kind, _ in parsers))
        return real(blocks, *args)

    monkeypatch.setattr(ingest.LineBlocks, "result", joined)
    before = threading.active_count()
    survey = surveys(xyz.xyz_instrument(), "fail", *paths)
    with pytest.raises(SatmetricError) as lanes:
        next(survey)
    assert str(lanes.value) == str(one_lane.value)
    assert busy and busy[0] > 0, "no block of the second file had begun at the first's join"
    assert threading.active_count() == before
    capsys.readouterr()


def test_one_lane_reads_each_file_at_its_turn(study, monkeypatch, capsys):
    """With one lane, no file is read before its turn: under fail, an error
    from the first file leaves the others unread."""
    _lanes(monkeypatch, False)
    read = []
    real = pipeline.read_bytes
    monkeypatch.setattr(pipeline, "read_bytes", lambda path: read.append(path) or real(path))
    with pytest.raises(SatmetricError, match="row_length"):
        list(surveys(xyz.xyz_instrument(), "fail", *_paths(study, "bad_expect")))
    assert read == _paths(study, "bad_expect")[:1]
    capsys.readouterr()


def test_no_lane_outlives_surveys(study, monkeypatch, capsys):
    """The lanes have ended after a full run, after a fail error raised from
    the second file, and after the caller closes the generator early.  The
    other lanes parse slower than the calling thread, so they are still at
    work when it raises or yields the first file."""
    _lanes(monkeypatch, True, delay=0.05, lane_delay=0.3)
    before = threading.active_count()
    assert len(list(surveys(xyz.xyz_instrument(), "drop_row", *_paths(study, "clean")))) == 3
    assert threading.active_count() == before
    with pytest.raises(SatmetricError, match="row_length"):
        list(surveys(xyz.xyz_instrument(), "fail", *_paths(study, "bad_perceive")))
    assert threading.active_count() == before
    survey = surveys(xyz.xyz_instrument(), "drop_row", *_paths(study, "clean"))
    assert next(survey)[0] is ResponseKind.EXPECTATION
    survey.close()
    assert threading.active_count() == before
    capsys.readouterr()


def test_every_block_runs_once_under_a_short_switch_interval(study, monkeypatch, capsys):
    """Eight lanes on blocks of one line each, with a short switch interval:
    every block of every file is parsed exactly once, no file falls back to
    parse_response_rows, and surveys yields what one lane yields, in every
    case and under both policies."""
    monkeypatch.setattr(ingest, "parse_response_rows", None)  # a call would raise
    expected = {}
    with monkeypatch.context() as patch:
        _lanes(patch, False)
        for case, policy in itertools.product(CASES, ("drop_row", "fail")):
            expected[case, policy] = _survey_outcome(study, case, policy, capsys)
    monkeypatch.setattr(pipeline, "CONCURRENT_BYTES", 1)
    monkeypatch.setattr(pipeline, "LANES", 8)
    monkeypatch.setattr(ingest, "BLOCK_BYTES", 1)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    parsed: list[tuple[ResponseKind, int]] = []
    real = ingest.LineBlocks.parse

    def spy(blocks, at):
        parsed.append((blocks.kind, at))
        return real(blocks, at)

    monkeypatch.setattr(ingest.LineBlocks, "parse", spy)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for (case, policy), outcome in expected.items():
            parsed.clear()
            before = threading.active_count()
            assert _survey_outcome(study, case, policy, capsys) == outcome, (case, policy)
            assert threading.active_count() == before
            assert len(parsed) == len(set(parsed)), "a block was parsed twice"
            assert parsed, "no block was parsed"
    finally:
        sys.setswitchinterval(interval)


@pytest.mark.parametrize("cpus, sizes, lanes", [
    (4, (10, 19), 1), (4, (10, 20), 2), (4, (30,), 2), (1, (10, 20), 1), (4, (10, None), 1),
    (4, (30, None), 2)])
def test_lanes_are_one_cut_on_the_total_size(tmp_path, monkeypatch, cpus, sizes, lanes):
    """One lane below CONCURRENT_BYTES of files in all, LANES or the usable
    CPUs from it on, one file or several; a file that cannot be read counts
    as empty."""
    monkeypatch.setattr(pipeline, "CONCURRENT_BYTES", 30)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)), raising=False)
    paths = []
    for at, size in enumerate(sizes):
        paths.append(str(tmp_path / f"{at}.csv"))
        if size is not None:
            (tmp_path / f"{at}.csv").write_bytes(b"x" * size)
    assert pipeline.LANES == 2
    assert pipeline._lanes(paths) == lanes


def test_declined_files_are_parsed_in_the_lanes(study, tmp_path, monkeypatch, capsys):
    """Files that the line route declines as a whole (a bare CR) are read
    and cut once each by surveys, and parsed by parse_response_rows in the
    lanes, more than one at a time; surveys yields what one lane yields."""
    paths = []
    for role in ROLES:
        lines = (study / f"good_{role}.csv").read_bytes().split(b"\n")
        lines[2:4] = [lines[2] + b"\r" + lines[3]]  # data row 2 ends in a lone CR
        paths.append(str(tmp_path / f"{role}.csv"))
        (tmp_path / f"{role}.csv").write_bytes(b"\n".join(lines))
    with monkeypatch.context() as patch:
        _lanes(patch, False)
        expected = list(surveys(xyz.xyz_instrument(), "drop_row", *paths))
    _lanes(monkeypatch, True)
    cut, parsed = [], []
    real_cut, real_rows = pipeline.cut_lines, ingest.parse_response_rows

    def cut_spy(data, instrument, kind):
        cut.append(kind)
        blocks = real_cut(data, instrument, kind)
        assert blocks is None
        return blocks

    def rows_spy(*args):
        parsed.append(threading.get_ident())
        time.sleep(0.05)
        return real_rows(*args)

    monkeypatch.setattr(pipeline, "cut_lines", cut_spy)
    monkeypatch.setattr(ingest, "parse_response_rows", rows_spy)
    assert list(surveys(xyz.xyz_instrument(), "drop_row", *paths)) == expected
    assert sorted(cut) == sorted(ResponseKind)
    assert len(parsed) == 3 and len(set(parsed)) > 1, "one thread parsed every declined file"
    capsys.readouterr()


@pytest.mark.parametrize("concurrent", [False, True], ids=["one_lane", "lanes"])
def test_each_file_meets_parse_response_file_once(study, tmp_path, monkeypatch, capsys,
                                                  concurrent):
    """surveys parses each file through parse_response_file exactly once:
    a file on the line route at its join, given its blocks, and a file that
    the line route declines as a whole (a bare CR) in its first job, with no
    blocks, so in a lane and not at the join."""
    lines = (study / "good_perceive.csv").read_bytes().split(b"\n")
    lines[2:4] = [lines[2] + b"\r" + lines[3]]
    declined = tmp_path / "declined.csv"
    declined.write_bytes(b"\n".join(lines))
    paths = [str(study / "good_expect.csv"), str(declined), str(study / "bad_importance.csv")]
    _lanes(monkeypatch, concurrent)
    calls = []
    real = pipeline.parse_response_file

    def spy(data, instrument, kind, policy, blocks=None):
        calls.append((kind, blocks is None, sys._getframe(1).f_code.co_name))
        return real(data, instrument, kind, policy, blocks=blocks)

    monkeypatch.setattr(pipeline, "parse_response_file", spy)
    assert len(list(surveys(xyz.xyz_instrument(), "drop_row", *paths))) == 3
    assert sorted(calls) == sorted([(ResponseKind.EXPECTATION, False, "surveys"),
                                    (ResponseKind.PERCEPTION, True, "run"),
                                    (ResponseKind.IMPORTANCE, False, "surveys")])
    capsys.readouterr()


@pytest.mark.parametrize("keys", [True, False], ids=["id_keys", "decoded_ids"])
def test_parse_response_file_is_thread_safe(xyz_instrument, keys):
    """One dirty CSV parsed by four threads at once, with a short switch
    interval, gives each thread the sequential result.  Half the threads
    read the respondent ids inside the thread; the others leave them unread
    until the comparison, where a file without a repeated id still holds
    them as keys.  With the repeated id kept, every id is decoded at once."""
    lines = dirty_xyz_csv(20_000).split(b"\n")
    if keys:
        lines[14] = b"r0013" + lines[14].removeprefix(b"r0001")  # no repeated id
    data = b"\n".join(lines)
    kind = ResponseKind.EXPECTATION
    expected_set, expected_report = ingest.parse_response_file(data, xyz_instrument, kind)
    results: list = [None] * 4
    start = threading.Barrier(len(results))

    def parse(at: int) -> None:
        start.wait(timeout=30)
        responses, report = ingest.parse_response_file(data, xyz_instrument, kind)
        if at % 2:
            responses.respondent_ids
        results[at] = responses, report

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=parse, args=(at,)) for at in range(len(results))]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    for at, (responses, report) in enumerate(results):
        assert ("respondent_ids" in vars(responses)) == (not keys or bool(at % 2))
        assert (responses.values == expected_set.values).all()
        assert responses.respondent_ids == expected_set.respondent_ids
        assert report.diagnostics == expected_report.diagnostics
        assert report.row_errors == expected_report.row_errors
        assert report == expected_report
