import copy
import csv
import dataclasses
import io
import json
import re

import numpy as np
import pytest
from conftest import JSON_VALUES, empty_containers, examples, replace_at
from hypothesis import given, settings
from hypothesis import strategies as st

from satmetric.cli import main
from satmetric.errors import DefinitionError, SatmetricError
from satmetric.ingest import RowError, ValidationReport
from satmetric import report as report_module
from satmetric.ingest import ResponseKind, generate_synthetic, serialize_response_set
from satmetric.instrument import build_instrument
from satmetric.kano import prioritize
from satmetric.pipeline import Config, Inputs, run
from satmetric.psychometrics import OmittedItemStats, ReliabilityReport
from satmetric.instrument import serialize_instrument
from satmetric.qfd import build_hoq, serialize_hoq
from satmetric.report import (
    FORMATS,
    WARN_DEGENERATE_HOQ,
    WARN_IMPORTANCE_DRIFT,
    WARN_RELIABILITY_GATE,
    WARN_ROWS_REJECTED,
    _json_text,
    _md_prose,
    _pareto_chart_svg,
    assemble,
    csv_bytes,
    emit,
    format_cell,
    parse_report,
    report_to_dict,
    write_report,
)
from satmetric.rootcause import Contribution, build_fishbone, dissatisfaction_contributions, \
    pareto, serialize_fishbone
from satmetric.schema import parse_json
from satmetric.servqual import compute_gap_report, item_gaps
from satmetric import xyz


def fake_reliability(alpha, item_ids, threshold=0.6):
    return ReliabilityReport(
        alpha=alpha,
        n_items=len(item_ids),
        n_respondents=81,
        threshold=threshold,
        passes_gate=alpha > threshold,
        omitted=tuple(
            OmittedItemStats(item_id=i, adj_total_mean=60.0, adj_total_stdev=5.0,
                             item_adj_total_corr=0.2, squared_multiple_corr=0.1,
                             alpha_if_deleted=alpha)
            for i in item_ids
        ),
    )


@pytest.fixture()
def full_report(xyz_instrument, xyz_weights, xyz_expect_desc, xyz_perceive_desc):
    ids = xyz_instrument.item_ids
    gap_report = compute_gap_report(
        xyz_expect_desc, xyz_perceive_desc, xyz_weights, xyz_instrument,
        reliability_expectation=fake_reliability(0.7242, ids),
        reliability_perception=fake_reliability(0.7062, ids),
    )
    gaps = list(gap_report.item_gaps)
    contributions = dissatisfaction_contributions(gaps, xyz_weights, xyz_instrument)
    return assemble(
        gap_report,
        instrument=xyz_instrument,
        expectation_descriptives=xyz_expect_desc,
        perception_descriptives=xyz_perceive_desc,
        importance_weights=xyz_weights,
        kano_priorities=prioritize(gaps, xyz_weights, xyz_instrument),
        pareto=pareto(contributions),
        hoq=xyz.load_xyz_hoq(),
        fishbone=xyz.load_xyz_fishbone(),
        config={"variance_mode": "population"},
        timestamp=False,
    )


class TestAssemble:
    def test_gap_report_is_mandatory(self):
        with pytest.raises(DefinitionError, match="mandatory"):
            assemble(None)

    def test_reliability_gate_warning(self, xyz_instrument, xyz_weights,
                                      xyz_expect_desc, xyz_perceive_desc):
        gap_report = compute_gap_report(
            xyz_expect_desc, xyz_perceive_desc, xyz_weights, xyz_instrument,
            reliability_expectation=fake_reliability(0.55, xyz_instrument.item_ids),
        )
        report = assemble(gap_report, timestamp=False)
        assert [w.code for w in report.warnings] == [WARN_RELIABILITY_GATE]
        assert "0.55" in report.warnings[0].message

    def test_importance_drift_warning(self, full_report):
        codes = [w.code for w in full_report.warnings]
        assert WARN_IMPORTANCE_DRIFT in codes
        assert WARN_RELIABILITY_GATE not in codes  # both fixtures pass the gate

    def test_rejected_rows_warning(self, xyz_instrument, xyz_weights,
                                   xyz_expect_desc, xyz_perceive_desc):
        gap_report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                        xyz_weights, xyz_instrument)
        vr = ValidationReport(
            row_errors=(RowError(row=2, column="q1", code="out_of_range", message="bad"),),
            accepted_rows=80, rejected_rows=1)
        report = assemble(gap_report, validation={"expectation": vr}, timestamp=False)
        rejected = [w for w in report.warnings if w.code == WARN_ROWS_REJECTED]
        assert len(rejected) == 1 and "1 of 81" in rejected[0].message

    def test_degenerate_house_warning(self, xyz_instrument, xyz_weights,
                                      xyz_expect_desc, xyz_perceive_desc):
        gap_report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                        xyz_weights, xyz_instrument)
        hoq = build_hoq({"customer_reqs": [{"id": "c1", "importance": 1}],
                         "tech_reqs": [{"id": "t1"}], "relationships": [[0]]})
        report = assemble(gap_report, hoq=hoq, timestamp=False)
        assert hoq.degenerate
        assert [w.code for w in report.warnings] == [WARN_DEGENERATE_HOQ]

    def test_minimal_report_marks_absent_sections_null(self, xyz_instrument, xyz_weights,
                                                       xyz_expect_desc, xyz_perceive_desc):
        gap_report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                        xyz_weights, xyz_instrument)
        doc = report_to_dict(assemble(gap_report, timestamp=False))
        assert doc["descriptives"]["expectation"] is None
        assert doc["reliability"]["expectation"] is None
        assert doc["kano"] is None
        assert doc["pareto"] is None
        assert doc["hoq"] is None
        assert doc["fishbone"] is None


class TestJsonRoundTrip:
    def test_editing_the_document_leaves_the_report(self, full_report):
        """report_to_dict hands out new containers, the house's annotations
        too: emptying every dict and list of its document leaves the
        report's next document as it was."""
        doc = report_to_dict(full_report)
        before = copy.deepcopy(doc)
        empty_containers(doc)
        assert report_to_dict(full_report) == before

    def test_parse_of_emitted_json_is_structurally_identical(self, full_report):
        payload = emit(full_report, "json")
        reparsed = parse_report(payload)
        assert report_to_dict(reparsed) == report_to_dict(full_report)

    def test_json_is_a_fixed_point_after_one_pass(self, full_report):
        once = emit(full_report, "json")
        twice = emit(parse_report(once), "json")
        assert once == twice

    def test_numbers_keep_at_least_nine_significant_digits(self, full_report):
        doc = json.loads(emit(full_report, "json"))
        gap = doc["gap_analysis"]["dimensions"][1]["weighted"]
        assert gap == pytest.approx(-19.63765934, abs=1e-8)
        assert abs(gap - (-19.6376593)) > 0  # not truncated to fewer digits

    def test_section_order_is_fixed(self, full_report):
        doc = json.loads(emit(full_report, "json"))
        assert list(doc.keys()) == [
            "metadata", "descriptives", "reliability", "importance_weights",
            "gap_analysis", "kano", "pareto", "hoq", "fishbone",
            "fishbone_branch_magnitudes", "item_labels", "warnings",
        ]

    def test_branch_magnitudes_cover_annotated_items(self, full_report):
        doc = json.loads(emit(full_report, "json"))
        sums = doc["fishbone_branch_magnitudes"]
        assert set(sums) == {"staff social skills", "staff technical skills",
                             "staff response", "physical environment", "service cost"}
        total = sum(r["magnitude"] for r in doc["pareto"]["rows"])
        assert sum(sums.values()) == pytest.approx(total, rel=1e-12)


class TestCsvBundle:
    def test_manifest_contains_one_file_per_table(self, full_report):
        bundle = emit(full_report, "csv")
        assert set(bundle) == {"descriptives.csv", "reliability.csv", "gaps.csv",
                               "kano.csv", "pareto.csv", "hoq.csv"}

    def test_pareto_csv_schema(self, full_report):
        bundle = emit(full_report, "csv")
        lines = bundle["pareto.csv"].decode().splitlines()
        assert lines[0] == "rank,item,label,magnitude,cumulative,cumulative_pct"
        assert lines[1].startswith("1,4,")

    def test_reliability_fixture_row_format(self, full_report):
        lines = emit(full_report, "csv")["reliability.csv"].decode().splitlines()
        assert lines[1].startswith("expectation,0.7242,0.6,true,17,81")

    def test_published_omitted_row_renders_and_round_trips(
            self, xyz_instrument, xyz_weights, xyz_expect_desc, xyz_perceive_desc):
        # published first-row diagnostics, kept as a format fixture only
        # (the raw responses behind them are not available)
        q1 = OmittedItemStats(item_id=1, adj_total_mean=58.235, adj_total_stdev=5.114,
                              item_adj_total_corr=0.2089, squared_multiple_corr=0.1775,
                              alpha_if_deleted=0.7011)
        rel = ReliabilityReport(alpha=0.7242, n_items=17, n_respondents=81,
                                threshold=0.6, passes_gate=True, omitted=(q1,))
        gap_report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                        xyz_weights, xyz_instrument,
                                        reliability_expectation=rel)
        report = assemble(gap_report, timestamp=False)
        lines = emit(report, "csv")["reliability.csv"].decode().splitlines()
        assert lines[2] == "expectation,,,,,,1,58.235,5.114,0.2089,0.1775,0.7011"
        reparsed = parse_report(emit(report, "json"))
        assert reparsed.gap_report.reliability_expectation.omitted[0] == q1

    def test_float_cells_round_trip(self, full_report):
        lines = emit(full_report, "csv")["gaps.csv"].decode().splitlines()
        header = lines[0].split(",")
        gap_col = header.index("gap")
        first_item = lines[1].split(",")
        assert float(first_item[gap_col]) == full_report.gap_report.item_gaps[0].gap


class TestMarkdownAndCharts:
    def test_markdown_has_thesis_style_columns(self, full_report):
        text = emit(full_report, "markdown").decode()
        assert "| Item | Label | Expectation | Perception | Gap | Verdict |" in text
        assert "## Gap analysis" in text
        assert "Average importance score: 39.695121951" in text

    def test_markdown_cells_escape_pipes_and_line_breaks(self, full_report):
        # The loaders accept any prompt, Pareto label or requirement name: a |
        # or a line break in one must neither add a column nor split a row.
        odd = "Staff | availability\nnext line\r\nand\rmore"
        hoq = full_report.hoq
        report = dataclasses.replace(
            full_report,
            item_labels={item_id: odd for item_id in full_report.item_labels},
            pareto=dataclasses.replace(full_report.pareto, rows=tuple(
                dataclasses.replace(r, label=odd) for r in full_report.pareto.rows)),
            hoq=dataclasses.replace(hoq, tech_reqs=tuple(
                dataclasses.replace(t, name=odd) for t in hoq.tech_reqs)))
        text = emit(report, "markdown").decode()
        assert "\r" not in text
        tables = [[]]
        for line in text.split("\n"):
            if line.startswith("|"):
                tables[-1].append(len(re.split(r"(?<!\\)\|", line)))
            elif tables[-1]:
                tables.append([])
        assert all(len(set(cells)) == 1 for cells in tables if cells)
        rows = (sum(len(d.item_ids) for d in report.gap_report.dimension_scores)
                + len(report.kano_priorities) + len(report.pareto.rows) + len(hoq.tech_reqs))
        assert text.count(r" Staff \| availability next line and more |") == rows

    def test_weight_chart_shows_reliability_tallest(self, full_report):
        charts = emit(full_report, "svg-charts")
        svg = charts["dimension_weights.svg"].decode()
        assert "39.70" in svg  # the tallest bar's value label
        heights = [float(part.split('height="')[1].split('"')[0])
                   for part in svg.split("<rect")[2:]]  # skip background rect
        assert max(heights) == heights[0]  # reliability drawn first and tallest

    def test_chart_bundle_manifest(self, full_report):
        charts = emit(full_report, "svg-charts")
        assert set(charts) == {"expectation_items.svg", "perception_items.svg",
                               "dimension_weights.svg", "dimension_gaps.svg", "pareto.svg"}
        for payload in charts.values():
            assert payload.startswith(b"<svg ")

    def test_pareto_bars_of_zero_magnitude_stand_on_the_baseline(self):
        """Zero magnitudes (items of a dimension weighted 0) draw no height at
        the baseline, not at the top of the plot as a bar chart of zeros does."""
        svg = _pareto_chart_svg(pareto([Contribution(1, "a", 0.0), Contribution(2, "b", 0.0)]))
        lines = svg.decode().splitlines()
        assert lines[3] == ('<line x1="60" y1="290" x2="690" y2="290" stroke="black" '
                            'stroke-width="1"/>')
        bars = [line for line in lines if line.startswith("<rect x=")]
        assert len(bars) == 2 and all('y="290.00"' in b and 'height="0.00"' in b for b in bars)

    def test_empty_pareto_table_is_named_in_markdown(self, xyz_instrument, xyz_weights,
                                                     xyz_expect_desc, xyz_perceive_desc):
        gap_report = compute_gap_report(xyz_expect_desc, xyz_perceive_desc,
                                        xyz_weights, xyz_instrument)
        report = assemble(gap_report, pareto=pareto([]), timestamp=False)
        text = emit(report, "markdown").decode()
        assert "## Dissatisfaction Pareto\n\nNo negative gaps: nothing to prioritize.\n" in text


class TestDeterminism:
    def test_emit_is_pure(self, full_report):
        for fmt in ("json", "markdown"):
            assert emit(full_report, fmt) == emit(full_report, fmt)
        for fmt in ("csv", "svg-charts"):
            assert emit(full_report, fmt) == emit(full_report, fmt)

    def test_unknown_format_rejected(self, full_report):
        with pytest.raises(DefinitionError, match="unknown report format"):
            emit(full_report, "pdf")

    def test_write_report_file_naming(self, full_report, tmp_path):
        written = write_report(full_report, tmp_path / "xyz")
        names = {p.replace(str(tmp_path) + "/", "") for p in written}
        assert "xyz.report.json" in names
        assert "xyz.report.md" in names
        assert any(n.startswith("xyz.tables/") for n in names)
        assert any(n.startswith("xyz.charts/") for n in names)


def _json_file(path, doc) -> str:
    path.write_text(json.dumps(doc))
    return str(path)


@pytest.fixture(scope="module")
def saved_reports(tmp_path_factory) -> dict[str, tuple[dict, list[tuple]]]:
    """Report JSON, with the position of every leaf in it, of the demo-07 run
    (published means, weights file, HoQ, fishbone) and of an importance-CSV
    run with a rejected row per file and a zero-variance item."""
    work = tmp_path_factory.mktemp("saved")
    instrument = _json_file(work / "xyz.json", serialize_instrument(xyz.xyz_instrument()))
    for name, kind, targets, seed in (("e.csv", "expectation", xyz.expectation_means(), 1),
                                      ("p.csv", "perception", xyz.perception_means(), 2)):
        assert main(["synth", "--instrument", instrument, "--n", "81", "--seed", str(seed),
                     "--targets", _json_file(work / f"{name}.json", targets),
                     "--kind", kind, "--out", str(work / name)]) == 0
    rng = np.random.default_rng(5)
    header = "respondent_id," + ",".join(f"q{i}" for i in range(1, 18))
    for name in ("ze.csv", "zp.csv"):
        values = rng.integers(1, 6, size=(30, 17))
        values[:, 3] = 4
        rows = [f"r{i}," + ",".join(map(str, row)) for i, row in enumerate(values)]
        (work / name).write_text("\n".join([header, *rows, "bad," + ",".join(["9"] * 17)]) + "\n")
    (work / "zi.csv").write_text(
        "respondent_id,tangibles,reliability,responsiveness,assurance,empathy\n"
        "r1,10,40,25,15,10\nr2,20,30,20,15,15\nr3,10,10,10,10,10\n")
    runs = {
        "demo07": ["--expect", str(work / "e.csv"), "--perceive", str(work / "p.csv"),
                   "--weights", _json_file(work / "weights.json", {
                       "means": xyz.importance_means(), "n_respondents": xyz.N_IMPORTANCE}),
                   "--hoq", _json_file(work / "hoq.json", serialize_hoq(xyz.load_xyz_hoq())),
                   "--fishbone", _json_file(work / "fishbone.json",
                                            serialize_fishbone(xyz.load_xyz_fishbone()))],
        "importance_csv": ["--expect", str(work / "ze.csv"), "--perceive", str(work / "zp.csv"),
                           "--importance", str(work / "zi.csv")],
    }
    saved = {}
    for name, inputs in runs.items():
        assert main(["gap", "--instrument", instrument, *inputs, "--suppress-timestamp",
                     "--formats", "json", "--out", str(work / name)]) == 0
        doc = json.loads((work / f"{name}.report.json").read_text())
        saved[name] = (doc, list(_leaves(doc)))
    return saved


def _leaves(doc, path=()):
    """Positions of the scalars and empty containers of a JSON document."""
    children = doc.items() if isinstance(doc, dict) else \
        enumerate(doc) if isinstance(doc, list) else ()
    if not children:
        yield path
    for key, child in children:
        yield from _leaves(child, path + (key,))


@pytest.mark.parametrize("name", ["demo07", "importance_csv"])
@settings(max_examples=examples(200), deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_leaf_mutation_fuzz_only_satmetric_errors_escape(saved_reports, name, data, value):
    """Any leaf of a saved report set to any JSON value: parsing and every
    emit either succeed or raise SatmetricError."""
    doc, leaves = saved_reports[name]
    path = data.draw(st.sampled_from(leaves), label="path")
    try:
        report = parse_report(json.dumps(replace_at(doc, path, value)))
    except SatmetricError:
        return
    for fmt in FORMATS:
        try:
            emit(report, fmt)
        except SatmetricError:
            pass


#: The sections that report_from_dict reads against the annotations of
#: their result dataclasses.
TYPED_SECTIONS = frozenset({"descriptives", "reliability", "importance_weights", "gap_analysis",
                            "kano", "pareto", "fishbone_branch_magnitudes", "item_labels",
                            "warnings"})
#: The objects among them whose keys are data (item ids, dimension and branch names).
KEYED_BY_DATA = frozenset({("item_labels",), ("importance_weights", "means"),
                           ("fishbone_branch_magnitudes",)})


def _at(doc, path):
    for key in path:
        doc = doc[key]
    return doc


def _kind(value) -> str:
    """A JSON value's kind; an int and a float are both a number."""
    return "number" if type(value) in (int, float) else type(value).__name__


@pytest.mark.parametrize("name", ["demo07", "importance_csv"])
@settings(max_examples=examples(200), deadline=None)
@given(data=st.data(), value=JSON_VALUES)
def test_accepted_leaf_mutation_keeps_the_leaf_kind(saved_reports, name, data, value):
    """A non-null leaf of a typed section set to any JSON value: when the
    report still parses, the new value is null or of the old leaf's kind.
    The leaf is drawn by its shape (list indices and data keys ignored)
    first, so a field that the report holds once, such as ``passes_gate``,
    is drawn as often as a field of every row."""
    doc, leaves = saved_reports[name]
    shapes: dict[tuple, list[tuple]] = {}
    for path in leaves:
        if path[0] in TYPED_SECTIONS and path[-1] != "classification" \
                and _at(doc, path) is not None:
            shape = tuple("*" if isinstance(key, int) or path[:at] in KEYED_BY_DATA else key
                          for at, key in enumerate(path))
            shapes.setdefault(shape, []).append(path)
    shape = data.draw(st.sampled_from(list(shapes)), label="shape")
    path = data.draw(st.sampled_from(shapes[shape]), label="path")
    try:
        parse_report(json.dumps(replace_at(doc, path, value)))
    except SatmetricError:
        return
    assert value is None or _kind(value) == _kind(_at(doc, path)), path


GATE = ("reliability", "perception", "passes_gate")


@pytest.mark.parametrize("path, value, message", [
    (GATE, "yes", "gap_report.reliability_perception.passes_gate must be true or false, "
                  "got 'yes'"),
    (GATE, 0, "gap_report.reliability_perception.passes_gate must be true or false, got 0"),
    (GATE, None, "gap_report.reliability_perception.passes_gate must be true or false, "
                 "got None"),
    (("kano", 2, "note"), "x", "kano_priorities[2]: unknown fields ['note']"),
    (("kano", 1, "category"), "mandatory", "kano_priorities[1].category 'mandatory' is not "
                                           "one of: must_be, performance, delighter, indifferent"),
    (("metadata", "tool", "name"), 5, "metadata.tool.name must be a string, got 5"),
    (("metadata", "instrument", "n_items"), "x",
     "metadata.instrument.n_items must be an integer, got 'x'"),
    (("metadata", "respondents", "expectation"), "eighty",
     "metadata.respondents.expectation must be an integer, got 'eighty'"),
    (("metadata", "generated_at"), {"a": 1}, "metadata.generated_at must be a string, "
                                             "got {'a': 1}"),
    (("hoq",), [1], "hoq must be an object"),
    (("hoq", "customer_reqs", 0, "importance"), "high",
     "hoq.customer_reqs[0].importance must be a finite number, got 'high'"),
    (("hoq", "relationships", 0, 0), 2, "hoq.relationships[0][0] 2 is not a legal strength "
                                        "(expected one of (0, 1, 3, 9))"),
    (("fishbone",), "x", "fishbone must be an object"),
    (("fishbone", "effect"), 5, "fishbone.effect must be a string, got 5"),
    (("fishbone", "branches", 0, "name"), " ", "fishbone.branches[0].name must be non-empty"),
], ids=["passes_gate_text", "passes_gate_zero", "passes_gate_null", "unknown_field",
        "kano_category", "tool_name", "instrument_n_items", "respondents_expectation",
        "generated_at", "hoq_not_an_object", "hoq_importance", "hoq_strength",
        "fishbone_not_an_object", "fishbone_effect", "fishbone_branch_name"])
def test_refused_field_is_named_by_its_place(saved_reports, path, value, message):
    doc, _ = saved_reports["demo07"]
    with pytest.raises(DefinitionError, match=f"^report {re.escape(message)}$"):
        parse_report(json.dumps(replace_at(doc, path, value)))


@pytest.mark.parametrize("path", [("kano",), ("descriptives", "expectation"),
                                  ("descriptives", "perception")])
def test_empty_list_is_re_emitted_as_read(saved_reports, path):
    """A section that a saved report holds as an empty list stays one, not null."""
    doc = replace_at(saved_reports["demo07"][0], path, [])
    assert _at(json.loads(emit(parse_report(json.dumps(doc)), "json")), path) == []


def test_missing_field_is_named_by_its_place(saved_reports):
    doc = json.loads(json.dumps(saved_reports["demo07"][0]))
    del doc["reliability"]["perception"]["alpha"]
    with pytest.raises(DefinitionError, match=r"^report gap_report\.reliability_perception: "
                                              r"missing field 'alpha'$"):
        parse_report(json.dumps(doc))


def test_deep_cause_tree_is_refused_by_its_depth(saved_reports, tmp_path, capsys):
    """A cause tree nested 300 levels is refused as too deep by the builder and
    by ``satmetric report``, not by the stack of a reader recursing through it."""
    cause = {"text": "0"}
    for level in range(1, 300):
        cause = {"text": str(level), "causes": [cause]}
    fishbone = {"effect": "e", "branches": [{"name": "b", "causes": [cause]}]}
    with pytest.raises(DefinitionError, match="deeper than"):
        build_fishbone(parse_json(json.dumps(fishbone), "fishbone"))
    doc, _ = saved_reports["demo07"]
    (tmp_path / "deep.json").write_text(json.dumps({**doc, "fishbone": fishbone}))
    assert main(["report", "--input", str(tmp_path / "deep.json"),
                 "--out", str(tmp_path / "r")]) == 1
    err = capsys.readouterr().err
    assert "deeper than" in err and "Traceback" not in err


ROWS = ("pareto", "rows")
CUTOFF = ("pareto", "vital_few_cutoff")


@pytest.mark.parametrize("edits, message", [
    ({GATE: True, ("reliability", "perception", "alpha"): 0.14},
     "gap_report.reliability_perception.passes_gate True disagrees with alpha 0.14 against "
     "threshold 0.6"),
    ({GATE: False, ("reliability", "perception", "alpha"): 0.9},
     "gap_report.reliability_perception.passes_gate False disagrees with alpha 0.9 against "
     "threshold 0.6"),
    ({(*ROWS, 0, "magnitude"): -5}, "pareto.rows[0].magnitude must be >= 0, got -5.0"),
    ({("kano", 0, "rank"): 7}, "kano_priorities[0].rank must be 1, got 7"),
    ({(*ROWS, 1, "rank"): 1}, "pareto.rows[1].rank must be 2, got 1"),
    ({CUTOFF: None}, "pareto.vital_few_cutoff must be 1 to {n} for {n} rows, got None"),
    ({CUTOFF: 0}, "pareto.vital_few_cutoff must be 1 to {n} for {n} rows, got 0"),
    (lambda n: {CUTOFF: n + 1}, "pareto.vital_few_cutoff must be 1 to {n} for {n} rows, "
                                "got {past}"),
    ({ROWS: [], CUTOFF: 1}, "pareto.vital_few_cutoff must be null for 0 rows, got 1"),
], ids=["gate_true", "gate_false", "negative_magnitude", "kano_rank", "pareto_rank",
        "cutoff_null", "cutoff_zero", "cutoff_past_end", "cutoff_on_empty_table"])
def test_derived_field_must_agree_with_its_sources(saved_reports, edits, message):
    """A passes_gate, rank, magnitude or vital-few cutoff that the rest of
    the report contradicts is refused."""
    doc, _ = saved_reports["demo07"]
    n = len(doc["pareto"]["rows"])
    assert n >= 2 and doc["reliability"]["perception"]["threshold"] == 0.6
    for path, value in (edits(n) if callable(edits) else edits).items():
        doc = replace_at(doc, path, value)
    message = message.format(n=n, past=n + 1)
    with pytest.raises(DefinitionError, match=f"^report {re.escape(message)}$"):
        parse_report(json.dumps(doc))


@pytest.mark.parametrize("key", ["1_0", " 1", "+1", "01", "1 ", "-0", "1.0", "x", ""])
def test_item_label_key_must_be_an_integer_as_str_writes_it(saved_reports, key):
    """A key such as "1_0" that int() reads as 10 would merge with "10"."""
    doc, _ = saved_reports["demo07"]
    labels = {**doc["item_labels"], key: "another label"}
    with pytest.raises(DefinitionError, match=f"item_labels key {re.escape(repr(key))} must "
                                              r"be an integer as str\(\) writes it"):
        parse_report(json.dumps({**doc, "item_labels": labels}))


@pytest.mark.parametrize("text, prose", [
    ("1. x", "1\\. x"),
    ("12) x", "12\\) x"),
    ("  3.", "  3\\."),
    ("4.\tx", "4\\.\tx"),
    ("0.1.0", "0.1.0"),
    ("1.x", "1.x"),
    ("1234567890. x", "1234567890. x"),
    ("x 1. y", "x 1. y"),
])
def test_md_prose_escapes_ordered_list_openers_only(text, prose):
    assert _md_prose(text) == prose


# --- the JSON writer and the CSV cells against their oracles ------------------

def _dumps(doc) -> str:
    return json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False)


#: Strings that a writer splicing encoded text could get wrong: quotes,
#: backslashes, control characters, line separators, non-ASCII text and the
#: text of a boundary between two objects of a table at each depth.
AWKWARD_TEXT = st.sampled_from(['"', "\\", "\x00", "\x1f", "\n", "\r\n", "\u2028", "é ✓ 中",
                                "},\n  {", "},\n    {", "},\n      {", "{}", "[]", ""]) \
    | st.text(st.characters(codec="utf-8") | st.sampled_from('"\\\n{},[]'), max_size=8)
SCALARS = st.none() | st.booleans() | AWKWARD_TEXT \
    | st.integers() | st.sampled_from([10**100, -(2**64), 2**63]) \
    | st.floats(allow_nan=False, allow_infinity=False) \
    | st.sampled_from([-0.0, 5e-324, 1e16, 1.7976931348623157e308, -1.5e-7])
KEYS = AWKWARD_TEXT | st.integers(-5, 5) | st.booleans() | st.none() \
    | st.floats(allow_nan=False, allow_infinity=False)
FLAT_OBJECTS = st.dictionaries(KEYS, SCALARS, max_size=4)
#: JSON trees: every container may be empty, and lists of flat objects
#: (tables), an empty object among them now and then, are drawn on their own.
JSON_TREES = st.recursive(
    SCALARS | st.lists(FLAT_OBJECTS, max_size=4),
    lambda children: st.lists(children, max_size=4) | st.lists(children, max_size=3).map(tuple)
    | st.dictionaries(KEYS, children, max_size=4) | st.lists(FLAT_OBJECTS, max_size=3),
    max_leaves=20)


@settings(max_examples=examples(300), deadline=None)
@given(JSON_TREES)
def test_json_writer_matches_dumps_with_indent(doc):
    assert _json_text(doc) == _dumps(doc)


@st.composite
def trees_holding(draw, leaf):
    """A JSON tree that holds a ``leaf`` at a drawn depth among drawn siblings."""
    doc = draw(leaf)
    for _ in range(draw(st.integers(0, 4))):
        siblings = draw(st.lists(SCALARS | FLAT_OBJECTS, max_size=3))
        siblings.insert(draw(st.integers(0, len(siblings))), doc)
        if draw(st.booleans()):
            doc = dict(zip((f"k{at}" for at in range(len(siblings))), siblings))
        else:
            doc = siblings
    return doc


@settings(max_examples=examples(100), deadline=None)
@given(trees_holding(st.sampled_from([float("nan"), float("inf"), float("-inf")])))
def test_json_writer_refuses_a_non_finite_number_at_any_depth(doc):
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _dumps(doc)
    with pytest.raises(ValueError, match="Out of range float values are not JSON compliant"):
        _json_text(doc)


@settings(max_examples=examples(100), deadline=None)
@given(trees_holding(st.sampled_from([object(), {1, 2}, b"x", np.int64(3), 1j])))
def test_json_writer_refuses_an_unsupported_type_at_any_depth(doc):
    with pytest.raises(TypeError, match="is not JSON serializable"):
        _json_text(doc)


@pytest.fixture(scope="module")
def wide_report(tmp_path_factory):
    """The gap report of 150 items (30 per dimension), 60 respondents."""
    work = tmp_path_factory.mktemp("wide")
    dimensions = ("reliability", "responsiveness", "assurance", "empathy", "tangibles")
    kano = ("must_be", "performance", "delighter", "indifferent")
    instrument = build_instrument({"scale": {"min": 1, "max": 5}, "items": [
        {"id": i, "prompt": f'{dimensions[(i - 1) // 30]} item {i}, "quoted" é',
         "dimension": dimensions[(i - 1) // 30], "kano": kano[i % 4]} for i in range(1, 151)]})
    (work / "instrument.json").write_text(json.dumps(serialize_instrument(instrument)))
    for seed, (kind, shift) in enumerate(((ResponseKind.EXPECTATION, 0.8),
                                          (ResponseKind.PERCEPTION, 0.2))):
        targets = [3.0 + shift + ((i * 7) % 11 - 5) / 10 for i in range(150)]
        rs = generate_synthetic(targets, 60, instrument.scale, seed=seed, kind=kind)
        (work / f"{kind.value}.csv").write_bytes(serialize_response_set(rs, instrument))
    (work / "weights.json").write_text(json.dumps({"means": dict(zip(
        ("tangibles", "reliability", "responsiveness", "assurance", "empathy"),
        (10.0, 40.0, 20.0, 20.0, 10.0)))}))
    return run(Inputs(instrument=str(work / "instrument.json"),
                      expect=str(work / "expectation.csv"), perceive=str(work / "perception.csv"),
                      weights=str(work / "weights.json")), Config(), timestamp=False)


@pytest.mark.parametrize("name", ["full_report", "wide_report"])
def test_report_json_is_dumps_with_indent(request, name):
    report = request.getfixturevalue(name)
    assert emit(report, "json") == (_dumps(report_to_dict(report)) + "\n").encode("utf-8")


def _csv_per_cell(header, rows) -> bytes:
    """The CSV of every cell rendered by format_cell, as csv_bytes once wrote it."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    return buf.getvalue().encode("utf-8")


AWKWARD_CELLS = [True, False, None, np.float64(0.1), -0.0, 1e16, 5e-324, 2**70, np.int64(-3),
                 'a, "b"\nc', "", 1.7976931348623157e308]


def test_csv_cells_are_written_as_format_cell_renders_them():
    rows = [AWKWARD_CELLS, AWKWARD_CELLS[::-1], [None], [""], ["x"]]
    assert csv_bytes(["a", "b"], rows) == _csv_per_cell(["a", "b"], rows)


@pytest.mark.parametrize("name", ["full_report", "wide_report"])
def test_csv_bundle_is_the_per_cell_rendering(request, monkeypatch, name):
    """A report whose cells hold bools, None, numpy floats, -0.0, 1e16 and a
    label with a comma, a quote and a newline."""
    report = request.getfixturevalue(name)
    gr = report.gap_report
    rel = dataclasses.replace(fake_reliability(np.float64(0.7), [1, 2]), omitted=(
        OmittedItemStats(item_id=1, adj_total_mean=-0.0, adj_total_stdev=1e16,
                         item_adj_total_corr=np.float64(0.25), squared_multiple_corr=None,
                         alpha_if_deleted=5e-324),))
    report = dataclasses.replace(
        report, item_labels={**report.item_labels, gr.item_gaps[0].item_id: 'a, "b"\nc'},
        gap_report=dataclasses.replace(gr, reliability_perception=rel, item_gaps=(
            dataclasses.replace(gr.item_gaps[0], gap=np.float64(-0.1)), *gr.item_gaps[1:])))
    bundle = emit(report, "csv")
    monkeypatch.setattr(report_module, "csv_bytes", _csv_per_cell)
    assert bundle == emit(report, "csv")


def test_dimension_item_without_a_gap_row_is_refused(saved_reports):
    doc = json.loads(json.dumps(saved_reports["demo07"][0]))
    dimension = doc["gap_analysis"]["dimensions"][0]
    dimension["item_ids"].append(99)
    with pytest.raises(DefinitionError, match=f"^report dimension {dimension['dimension']!r} "
                                              r"lists items \[99\] that have no gap row$"):
        parse_report(json.dumps(doc))
