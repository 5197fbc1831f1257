"""The input boundary: malformed outside input is rejected through
SatmetricError at every entry point, never by another exception."""

import json
import math
import re
import sys
import warnings
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from conftest import JSON_VALUES, examples, replace_at
from hypothesis import given, settings
from hypothesis import strategies as st

import satmetric
from satmetric.cli import main
from satmetric.errors import DefinitionError, SatmetricError
from satmetric.instrument import build_instrument, load_instrument, serialize_instrument
from satmetric.kano import resolve_multipliers
from satmetric.qfd import build_hoq, load_hoq
from satmetric.report import FORMATS, assemble, emit
from satmetric.rootcause import build_fishbone, load_fishbone
from satmetric.schema import integer, number, read
from satmetric.servqual import compute_gap_report, weights_from_means
from satmetric.xyz import xyz_instrument

INSTRUMENT = {
    "scale": {"min": 1, "max": 5, "anchor_low": "low", "anchor_high": "high"},
    "items": [
        {"id": i, "prompt": dim, "dimension": dim, "kano": kano, "source_key": dim}
        for i, (dim, kano) in enumerate((("reliability", "must_be"),
                                         ("responsiveness", "performance"),
                                         ("assurance", "must_be"),
                                         ("empathy", "delighter"),
                                         ("tangibles", "indifferent")), start=1)
    ],
}
HOQ = {
    "customer_reqs": [{"id": "c1", "name": "a", "importance": 40},
                      {"id": "c2", "importance": 60.5}],
    "tech_reqs": [{"id": "t1", "name": "x"}, {"id": "t2"}],
    "relationships": [[9, 3], [0, 1]],
    "roof": [{"i": 0, "j": 1, "sign": "negative"}],
    "benchmarks": {"us": [1, 2]},
    "ctq_tree": ["root"],
}
FISHBONE = {
    "effect": "late repairs",
    "branches": [
        {"name": "staff", "items": [1, 2],
         "causes": ["training", {"text": "rota", "causes": [{"text": "leave"}]}]},
        {"name": "parts"},
    ],
}
MEANS = {"reliability": 40, "responsiveness": 20, "assurance": 20, "empathy": 10,
         "tangibles": 10}
LIKERT = "respondent_id,q1,q2,q3,q4,q5\n" + "".join(
    f"r{n},{row}\n" for n, row in enumerate(
        ("4,4,5,3,4", "3,4,4,2,3", "5,5,4,4,5", "2,3,3,2,2", "4,3,4,3,4", "3,3,2,3,3")))


def _file(tmp_path: Path, name: str, content) -> str:
    path = tmp_path / name
    path.write_bytes(content if isinstance(content, bytes) else json.dumps(content).encode())
    return str(path)


def _with(doc: dict, **changes) -> dict:
    return {**json.loads(json.dumps(doc)), **changes}


def _branch(**changes) -> dict:
    return {"effect": "e", "branches": [{"name": "b", **changes}]}


LIBRARY_ESCAPES = {
    "instrument_not_utf8": lambda tmp: load_instrument(_file(tmp, "i.json", b"\xff{}")),
    "hoq_not_utf8": lambda tmp: load_hoq(_file(tmp, "h.json", b"\xff{}")),
    "fishbone_not_utf8": lambda tmp: load_fishbone(_file(tmp, "f.json", b"\xff{}")),
    "hoq_requirement_not_object": lambda tmp: build_hoq(_with(HOQ, customer_reqs=["c1", "c2"])),
    "hoq_importance_string": lambda tmp: build_hoq(_with(HOQ, customer_reqs=[
        {"id": "c1", "importance": "hi"}, {"id": "c2", "importance": 1}])),
    "hoq_importance_nan": lambda tmp: build_hoq(_with(HOQ, customer_reqs=[
        {"id": "c1", "importance": math.nan}, {"id": "c2", "importance": 1}])),
    "hoq_relationships_not_list": lambda tmp: build_hoq(_with(HOQ, relationships=9)),
    "hoq_roof_not_list": lambda tmp: build_hoq(_with(HOQ, roof=9)),
    "fishbone_items_string": lambda tmp: build_fishbone(_branch(items=["x"])),
    "fishbone_branches_not_list": lambda tmp: build_fishbone({"effect": "e", "branches": 9}),
    "fishbone_causes_not_list": lambda tmp: build_fishbone(_branch(causes=9)),
    "scale_min_string": lambda tmp: build_instrument(_with(INSTRUMENT, scale={"min": "a"})),
    "scale_min_fraction": lambda tmp: build_instrument(_with(INSTRUMENT, scale={"min": 1.5})),
    "weights_string": lambda tmp: weights_from_means({**MEANS, "empathy": "ten"}),
    "weights_nan": lambda tmp: weights_from_means({**MEANS, "empathy": math.nan}),
    "multiplier_nan": lambda tmp: resolve_multipliers({"must_be": math.nan}),
    "fishbone_lone_surrogate": lambda tmp: load_fishbone(_file(tmp, "f.json", _with(
        FISHBONE, effect="late \ud800 repairs"))),
}


def _gap(tmp_path: Path, *extra: str, weights=MEANS) -> list[str]:
    return ["gap", "--instrument", _file(tmp_path, "i.json", INSTRUMENT),
            "--expect", _file(tmp_path, "e.csv", LIKERT.encode()),
            "--perceive", _file(tmp_path, "p.csv", LIKERT.encode()),
            "--weights", _file(tmp_path, "w.json", weights),
            "--suppress-timestamp", "--out", str(tmp_path / "out" / "r"), *extra]


def _synth(tmp_path: Path, *targets: str) -> list[str]:
    return ["synth", "--instrument", _file(tmp_path, "i.json", INSTRUMENT), "--n", "4",
            *targets]


def _report_with_bad_alpha(tmp_path: Path) -> list[str]:
    assert main(_gap(tmp_path, "--formats", "json")) == 0
    doc = json.loads((tmp_path / "out" / "r.report.json").read_text())
    doc["reliability"]["expectation"]["alpha"] = "x"
    return ["report", "--input", _file(tmp_path, "saved.json", doc),
            "--formats", "json,csv,markdown", "--out", str(tmp_path / "re" / "r")]


def _report_with_lone_surrogate(tmp_path: Path) -> list[str]:
    assert main(_gap(tmp_path, "--formats", "json")) == 0
    doc = json.loads((tmp_path / "out" / "r.report.json").read_text())
    doc["metadata"]["tool"]["name"] = "\udc00"
    return ["report", "--input", _file(tmp_path, "saved.json", doc),
            "--out", str(tmp_path / "re" / "r")]


CLI_ESCAPES = {
    "gap_nan_weights": (1, lambda tmp: _gap(
        tmp, weights=json.dumps({**MEANS, "empathy": math.nan}).encode())),
    "gap_nan_multiplier": (1, lambda tmp: _gap(tmp, "--kano-multipliers", "must_be=nan")),
    "gap_nan_alpha_threshold": (2, lambda tmp: _gap(tmp, "--alpha-threshold", "nan")),
    "gap_inf_pareto_threshold": (2, lambda tmp: _gap(tmp, "--pareto-threshold", "inf")),
    "synth_nan_means": (1, lambda tmp: _synth(tmp, "--means", "4,4,nan,4,4")),
    "synth_string_targets": (1, lambda tmp: _synth(
        tmp, "--targets", _file(tmp, "t.json", ["a", 4, 4, 4, 4]))),
    "report_string_alpha": (1, _report_with_bad_alpha),
    "report_lone_surrogate": (1, _report_with_lone_surrogate),
}


@pytest.mark.parametrize("case", [*LIBRARY_ESCAPES, *CLI_ESCAPES])
def test_malformed_input_is_rejected_through_satmetric_error(case, tmp_path, capsys):
    if case in LIBRARY_ESCAPES:
        with pytest.raises(DefinitionError):
            LIBRARY_ESCAPES[case](tmp_path)
        return
    code, build_argv = CLI_ESCAPES[case]
    argv = build_argv(tmp_path)
    capsys.readouterr()
    assert main(argv) == code
    err = capsys.readouterr().err
    assert "error:" in err
    assert "Traceback" not in err
    if case == "report_string_alpha":  # rendering fails before any file is written
        assert not (tmp_path / "re").exists()


def test_surrogate_pair_escapes_still_decode():
    assert satmetric.schema.parse_json(b'["\\ud83d\\ude00", "\\\\ud800"]', "doc") == \
        ["\U0001f600", "\\ud800"]


@pytest.mark.parametrize("build, doc, message", [
    (build_hoq, _with(HOQ, customer_reqs=[{"id": ["c1"], "importance": 1}]),
     "hoq.customer_reqs[0].id must be a string, got ['c1']"),
    (build_hoq, _with(HOQ, tech_reqs=[{"id": "t1", "name": ["x"]}, {"id": "t2"}]),
     "hoq.tech_reqs[0].name must be a string, got ['x']"),
    (build_fishbone, {"effect": True}, "fishbone.effect must be a string, got True"),
    (build_fishbone, _branch(name=["late"]),
     "fishbone.branches[0].name must be a string, got ['late']"),
    (build_fishbone, _branch(causes=[{"text": None}]),
     "fishbone.branches[0].causes[0].text must be a string, got None"),
], ids=["requirement_id", "requirement_name", "fishbone_effect", "branch_name", "cause_text"])
def test_text_fields_must_be_json_strings(build, doc, message):
    """A text field is refused unless it is a JSON string, not turned into
    text by str() ("['late']", "None", "True")."""
    with pytest.raises(DefinitionError, match=f"^{re.escape(message)}$"):
        build(doc)


def test_valid_documents_still_build():
    assert build_instrument(INSTRUMENT).n_items == 5
    assert [t.rank for t in build_hoq(HOQ).importances] == [1, 2]
    assert build_fishbone(FISHBONE).branches[0].item_ids == (1, 2)
    assert weights_from_means(MEANS, n_respondents=3).sum_of_means == 100.0


def test_object_field_nested_beyond_the_recursion_limit_reads():
    """An ``object`` field is walked without recursion, whatever its depth."""
    depth = 3 * sys.getrecursionlimit()
    deep = leaf = []
    for _ in range(depth):
        leaf.append([])
        leaf = leaf[0]
    copy, levels = read(object, deep, "doc"), 0
    while copy:
        copy, levels = copy[0], levels + 1
        assert type(copy) is list
    assert copy == [] and levels == depth


def _paths(doc, path=()):
    """Every position in a JSON document, the whole document included."""
    yield path
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    for key, child in children:
        yield from _paths(child, path + (key,))


BUILDERS = {
    "instrument": (build_instrument, INSTRUMENT),
    "hoq": (build_hoq, HOQ),
    "fishbone": (build_fishbone, FISHBONE),
    "weights": (weights_from_means, MEANS),
}


@pytest.mark.parametrize("name", BUILDERS)
@settings(max_examples=examples(150), deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_structural_fuzz_only_satmetric_errors_escape(name, data, value):
    build, valid = BUILDERS[name]
    path = data.draw(st.sampled_from(list(_paths(valid))), label="path")
    try:
        build(replace_at(valid, path, value))
    except SatmetricError:
        pass
    if name == "weights":
        try:
            weights_from_means(MEANS, n_respondents=value)
        except SatmetricError:
            pass


def test_json_is_decoded_only_in_schema_module():
    package = Path(satmetric.__file__).parent
    decoders = [path.name for path in sorted(package.glob("*.py"))
                if re.search(r"\bjson\.loads?\(|from json import", path.read_text())]
    assert decoders == ["schema.py"]


def test_number_converts_before_it_compares():
    """A numpy float is converted before the range check, which would
    otherwise cast the float maximum to float32 and warn of an overflow; a
    number beyond the float range is refused, not an OverflowError."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for value, plain in ((np.float32(2.5), 2.5), (np.float64(0.1), 0.1),
                             (Fraction(1, 4), 0.25), (np.int64(3), 3.0), (7, 7.0)):
            got = number(value, "x")
            assert type(got) is float and got == plain
        for value in (np.float32("inf"), np.float64("nan"), 10**400, -(10**400),
                      Fraction(10**400, 3), "1", True, np.bool_(True), None):
            with pytest.raises(DefinitionError, match="^x must be a finite number, got "):
                number(value, "x")
        with pytest.raises(DefinitionError, match=r"^x must be >= 3, got 2\.5$"):
            number(np.float32(2.5), "x", minimum=3)
        assert type(integer(np.int64(3), "x")) is int


@pytest.mark.parametrize("tp, value, plain", [
    (float, 5, 5), (float, 2.5, 2.5), (float, np.float32(2.5), 2.5),
    (float, np.int16(5), 5.0), (float, Fraction(1, 2), 0.5),
    (int, np.uint8(3), 3), (int, np.int64(-2), -2), (bool, False, False),
])
def test_read_returns_plain_python_scalars(tp, value, plain):
    """A plain int or float is returned as given, so a JSON 5 stays 5; any
    other number as the int or float that its checker makes of it."""
    got = read(tp, value, "x")
    assert type(got) is type(plain) and got == plain


def _numpy_at(doc, paths, kind):
    """A copy of ``doc`` with the number at each of ``paths`` made a ``kind`` scalar."""
    doc = json.loads(json.dumps(doc))
    for path in paths:
        parent = doc
        for key in path[:-1]:
            parent = parent[key]
        parent[path[-1]] = kind(parent[path[-1]])
    return doc


#: Each builder's numbers given as numpy scalars: the report section it
#: builds, the places and the numpy type.
NUMPY_CASES = {
    "instrument_item_id": ("instrument", [("items", 0, "id"), ("items", 16, "id")], np.int64),
    "instrument_scale": ("instrument", [("scale", "min"), ("scale", "max")], np.int32),
    "hoq_importance": ("hoq", [("customer_reqs", 1, "importance")], np.float32),
    "hoq_relationship": ("hoq", [("relationships", 0, 0), ("relationships", 1, 1)], np.int64),
    "hoq_roof": ("hoq", [("roof", 0, "i"), ("roof", 0, "j")], np.int64),
    "fishbone_items": ("fishbone", [("branches", 0, "items", 1)], np.uint16),
}


@pytest.mark.parametrize("case", NUMPY_CASES)
def test_numpy_scalars_build_as_plain_numbers(case, xyz_weights, xyz_expect_desc,
                                              xyz_perceive_desc):
    """A document whose numbers are numpy scalars builds what its plain
    numbers build: the same instrument fingerprint and the same report in
    every format."""
    section, paths, kind = NUMPY_CASES[case]
    build, doc = {"instrument": (build_instrument, serialize_instrument(xyz_instrument())),
                  "hoq": (build_hoq, HOQ), "fishbone": (build_fishbone, FISHBONE)}[section]

    def emitted(built) -> dict:
        instrument = built if section == "instrument" else xyz_instrument()
        gap_report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc, xyz_weights,
                                        instrument)
        report = assemble(gap_report, instrument=instrument, importance_weights=xyz_weights,
                          timestamp=False, **({} if section == "instrument" else {section: built}))
        return {name: emit(report, name) for name in FORMATS}

    plain, numpy = build(doc), build(_numpy_at(doc, paths, kind))
    if section == "instrument":
        assert numpy == plain and numpy.fingerprint() == plain.fingerprint()
    assert emitted(numpy) == emitted(plain)
