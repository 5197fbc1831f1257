"""pipeline.surveys parses large files concurrently, one lane per usable CPU.

The test files are far below ``pipeline.CONCURRENT_BYTES``, so each test
moves that cut to 0 (every file counts as large) or to infinity (one lane)
and, for the concurrent side, reports four usable CPUs.  Whatever the lanes,
the caller sees the same yields, output, errors and order."""

from __future__ import annotations

import json
import math
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


def _lanes(monkeypatch, concurrent: bool, delay: float = 0.02,
           lane_delay: float = 0.02) -> list[int]:
    """Set the size cut for one side; on the concurrent side, report four
    usable CPUs and return the list the threads that parse append to.  The
    spy sleeps ``delay`` in the calling thread and ``lane_delay`` in the
    others, releasing the GIL, so that another lane takes the next file."""
    monkeypatch.setattr(pipeline, "CONCURRENT_BYTES", 0 if concurrent else math.inf)
    parsers: list[int] = []
    if concurrent:
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2, 3}, raising=False)
        real = ingest.parse_response_file

        def spy(*args):
            parsers.append(threading.get_ident())
            time.sleep(delay if threading.current_thread() is threading.main_thread()
                       else lane_delay)
            return real(*args)

        monkeypatch.setattr(pipeline, "parse_response_file", spy)
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
        present = [shape != "missing" for shape in CASES[case]]
        if concurrent and present[0] and sum(present) > 1:
            assert len(set(parsers)) > 1, "one thread parsed every file"
    assert outcomes[True] == outcomes[False]
    if CASES[case] == ("bad", "missing", "good"):  # the bad file comes first in both
        surveyed = outcomes[False][0]
        if policy == "fail":
            assert surveyed[0][1] == "row 4, column *: expected 18 fields, got 3 [row_length]"
            assert surveyed[1].err == ""
        else:
            assert "cannot read" in surveyed[0][1] and "[row_length]" in surveyed[1].err


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
