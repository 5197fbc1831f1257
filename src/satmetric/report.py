"""Report assembly and serialization.

An AnalysisReport bundles every analysis output in a fixed section order and
serializes deterministically to each format in FORMATS, the one table of
format names, file suffixes and renderers: JSON (round-trips losslessly), a
CSV table bundle, Markdown, and SVG charts whose bars, the Pareto chart's
too, come from one renderer.  Each table is declared once, as Columns that
the CSV bundle and Markdown both render.  Every string from outside the
program goes through one helper per format: _md_text in a Markdown table
cell, _md_prose in Markdown prose, _svg_text in a chart.  Saved JSON is read
back by schema.read through the result dataclasses' annotations; report_from_dict
adds the JSON layout, item cross-references and derived-field agreement.
Timestamps live only in the metadata block and can be suppressed, making
emitted bytes a pure function of the report.
"""

from __future__ import annotations

import csv
import io
import json
import re
from dataclasses import dataclass, field, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from pathlib import Path
from typing import Iterable, Mapping, Sequence

from . import __version__
from .errors import DefinitionError
from .ingest import ValidationReport
from .instrument import DIMENSION_ORDER, SurveyInstrument
from .kano import KanoPriority
from .psychometrics import ItemDescriptives, ReliabilityReport
from .qfd import HouseOfQuality, build_hoq, serialize_hoq
from .rootcause import FishboneTree, ParetoTable, branch_magnitudes, build_fishbone, \
    serialize_fishbone
from .schema import array, hints, mapping, number, parse_json, read
from .servqual import GapReport, ImportanceWeights, classify_satisfaction

WARN_RELIABILITY_GATE = "RELIABILITY_GATE_FAILED"
WARN_IMPORTANCE_DRIFT = "IMPORTANCE_SUM_DRIFT"
WARN_ROWS_REJECTED = "ROWS_REJECTED"
WARN_DEGENERATE_HOQ = "DEGENERATE_HOQ"


@dataclass(frozen=True)
class ReportWarning:
    code: str
    message: str


@dataclass(frozen=True)
class Tool:
    name: str
    version: str


@dataclass(frozen=True)
class InstrumentSummary:
    fingerprint: str
    n_items: int
    dimension_order: tuple[str, ...]
    items_per_dimension: Mapping[str, int]


@dataclass(frozen=True)
class RespondentCounts:
    expectation: int | None
    perception: int | None
    importance: int | None


@dataclass(frozen=True)
class ReportMetadata:
    """Where a report came from; ``generated_at`` is None without a timestamp."""

    tool: Tool
    generated_at: str | None
    instrument: InstrumentSummary | None
    respondents: RespondentCounts
    config: Mapping[str, object]


@dataclass(frozen=True)
class AnalysisReport:
    metadata: ReportMetadata
    gap_report: GapReport
    expectation_descriptives: tuple[ItemDescriptives, ...] | None = None
    perception_descriptives: tuple[ItemDescriptives, ...] | None = None
    importance_weights: ImportanceWeights | None = None
    kano_priorities: tuple[KanoPriority, ...] | None = None
    pareto: ParetoTable | None = None
    hoq: HouseOfQuality | None = None
    fishbone: FishboneTree | None = None
    # tool extension: dissatisfaction summed per annotated fishbone branch
    branch_magnitudes: Mapping[str, float] | None = None
    item_labels: Mapping[int, str] = field(default_factory=dict)
    warnings: tuple[ReportWarning, ...] = ()


def assemble(
    gap_report: GapReport,
    instrument: SurveyInstrument | None = None,
    expectation_descriptives: Sequence[ItemDescriptives] | None = None,
    perception_descriptives: Sequence[ItemDescriptives] | None = None,
    importance_weights: ImportanceWeights | None = None,
    kano_priorities: Sequence[KanoPriority] | None = None,
    pareto: ParetoTable | None = None,
    hoq: HouseOfQuality | None = None,
    fishbone: FishboneTree | None = None,
    validation: Mapping[str, ValidationReport] | None = None,
    config: Mapping | None = None,
    timestamp: bool = True,
) -> AnalysisReport:
    """Bundle analysis outputs into one report with populated warnings.

    ``gap_report`` is mandatory; every other section is optional and
    serialized as null when absent.  Set ``timestamp=False`` for
    byte-reproducible output.
    """
    if gap_report is None:
        raise DefinitionError("a gap report is mandatory to assemble an analysis report")

    warnings: list[ReportWarning] = []
    for survey, reliability in (
        ("expectation", gap_report.reliability_expectation),
        ("perception", gap_report.reliability_perception),
    ):
        if reliability is not None and not reliability.passes_gate:
            warnings.append(ReportWarning(
                code=WARN_RELIABILITY_GATE,
                message=(f"{survey} survey alpha {reliability.alpha:.4f} does not exceed "
                         f"the {reliability.threshold} reliability threshold"),
            ))
    if importance_weights is not None:
        drift = importance_weights.sum_of_means - 100.0
        if abs(drift) > 1e-9:
            warnings.append(ReportWarning(
                code=WARN_IMPORTANCE_DRIFT,
                message=(f"importance means sum to {importance_weights.sum_of_means!r} "
                         f"(drift {drift:+.6f} points from 100)"),
            ))
    if validation:
        for name in sorted(validation):
            vr = validation[name]
            if vr.rejected_rows:
                warnings.append(ReportWarning(
                    code=WARN_ROWS_REJECTED,
                    message=f"{name} file: {vr.rejected_rows} of {vr.total_rows} rows rejected",
                ))
    if hoq is not None and hoq.degenerate:
        warnings.append(ReportWarning(
            code=WARN_DEGENERATE_HOQ,
            message="all technical-importance weights are zero; relative weights reported as 0",
        ))

    branch_sums = None
    if fishbone is not None and pareto is not None and not pareto.is_empty \
            and any(b.item_ids for b in fishbone.branches):
        branch_sums = branch_magnitudes(fishbone, pareto.rows)

    return AnalysisReport(
        metadata=ReportMetadata(
            tool=Tool(name="satmetric", version=__version__),
            generated_at=datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")
            if timestamp else None,
            instrument=InstrumentSummary(
                fingerprint=instrument.fingerprint(), n_items=instrument.n_items,
                dimension_order=DIMENSION_ORDER,
                items_per_dimension=instrument.dimension_item_counts()) if instrument else None,
            respondents=RespondentCounts(
                expectation=expectation_descriptives[0].n if expectation_descriptives else None,
                perception=perception_descriptives[0].n if perception_descriptives else None,
                importance=importance_weights.n_respondents if importance_weights else None),
            config=dict(config) if config else {}),
        gap_report=gap_report,
        expectation_descriptives=tuple(expectation_descriptives) if expectation_descriptives else None,
        perception_descriptives=tuple(perception_descriptives) if perception_descriptives else None,
        importance_weights=importance_weights,
        kano_priorities=tuple(kano_priorities) if kano_priorities else None,
        pareto=pareto,
        hoq=hoq,
        fishbone=fishbone,
        branch_magnitudes=branch_sums,
        item_labels={item.id: item.prompt for item in instrument.items} if instrument else {},
        warnings=tuple(warnings),
    )


# --- JSON ------------------------------------------------------------------

#: The types of the values that _record returns as they are: most of them.
_PLAIN = frozenset((float, int, str, bool, type(None)))


def _record(value):
    """``value`` as JSON-ready data: a result dataclass as a dict of its fields
    in declaration order, a tuple as a list, an enum as its value."""
    if type(value) in _PLAIN:
        return value
    if is_dataclass(value):
        return {name: _record(getattr(value, name)) for name in hints(type(value))}
    if isinstance(value, tuple):
        return [_record(v) for v in value]
    return value.value if isinstance(value, Enum) else value


def report_to_dict(report: AnalysisReport) -> dict:
    """Serialize to a plain JSON-ready dict with fixed section order."""
    gr = report.gap_report
    hoq = report.hoq and {**serialize_hoq(report.hoq), "computed": {
        "degenerate": report.hoq.degenerate,
        "technical_importance": _record(report.hoq.importances)}}
    return {
        "metadata": _record(report.metadata),
        "descriptives": {"expectation": _record(report.expectation_descriptives),
                         "perception": _record(report.perception_descriptives)},
        "reliability": {"expectation": _record(gr.reliability_expectation),
                        "perception": _record(gr.reliability_perception)},
        "importance_weights": _record(report.importance_weights),
        "gap_analysis": {
            "items": [{**_record(g), "classification": classify_satisfaction(g.gap).value}
                      for g in gr.item_gaps],
            "dimensions": _record(gr.dimension_scores),
            "overall": {
                "weighted_sum": gr.overall_weighted_sum,
                "weighted_mean": gr.overall_weighted_mean,
                "unweighted_mean_of_dimensions": gr.unweighted_mean_of_dimensions,
            },
        },
        "kano": _record(report.kano_priorities),
        "pareto": _record(report.pareto),
        "hoq": hoq,
        "fishbone": serialize_fishbone(report.fishbone) if report.fishbone else None,
        "fishbone_branch_magnitudes": dict(report.branch_magnitudes)
        if report.branch_magnitudes is not None else None,
        "item_labels": {str(k): v for k, v in report.item_labels.items()},
        "warnings": _record(report.warnings),
    }


def _check_derived(gap: GapReport, kano, pareto: ParetoTable | None) -> None:
    """Refuse a derived field that disagrees with its sources.  Sums and
    cumulative_pct are not recomputed: sum() rounds differently from Python
    3.12 on, so a report saved on another version may differ in the last bit."""
    for name in ("reliability_expectation", "reliability_perception"):
        r = getattr(gap, name)
        if r is not None and r.passes_gate != (r.alpha > r.threshold):
            raise DefinitionError(f"report gap_report.{name}.passes_gate {r.passes_gate} disagrees "
                                  f"with alpha {r.alpha} against threshold {r.threshold}")
    rows = pareto.rows if pareto else ()
    for name, records in (("kano_priorities", kano or ()), ("pareto.rows", rows)):
        for at, record in enumerate(records):
            if record.rank != at + 1:
                raise DefinitionError(f"report {name}[{at}].rank must be {at + 1}, "
                                      f"got {record.rank}")
    for at, row in enumerate(rows):
        number(row.magnitude, f"report pareto.rows[{at}].magnitude", minimum=0)
    if pareto and pareto.vital_few_cutoff not in (range(1, len(rows) + 1) if rows else (None,)):
        raise DefinitionError(f"report pareto.vital_few_cutoff must be "
                              f"{f'1 to {len(rows)}' if rows else 'null'} for {len(rows)} rows, "
                              f"got {pareto.vital_few_cutoff!r}")


def report_from_dict(doc: Mapping) -> AnalysisReport:
    """Rebuild an AnalysisReport from its JSON form (inverse of
    report_to_dict up to tuple/list normalization): each field is read by
    schema.read, and an error names it by its path in the AnalysisReport."""
    ga, descriptives = doc["gap_analysis"], doc["descriptives"]
    parsed = {name: read(hints(AnalysisReport)[name], value, f"report {name}") for name, value in {
        "metadata": doc["metadata"],
        "gap_report": {
            "item_gaps": [{k: v for k, v in mapping(g, "report gap item").items()
                           if k != "classification"} for g in array(ga["items"], "report items")],
            "dimension_scores": ga["dimensions"],
            "overall_weighted_sum": ga["overall"]["weighted_sum"],
            "overall_weighted_mean": ga["overall"]["weighted_mean"],
            "unweighted_mean_of_dimensions": ga["overall"]["unweighted_mean_of_dimensions"],
            "reliability_expectation": doc["reliability"]["expectation"],
            "reliability_perception": doc["reliability"]["perception"]},
        "expectation_descriptives": descriptives["expectation"],
        "perception_descriptives": descriptives["perception"],
        "importance_weights": doc.get("importance_weights"),
        "kano_priorities": doc.get("kano"),
        "pareto": doc.get("pareto"),
        "branch_magnitudes": doc.get("fishbone_branch_magnitudes"),
        "item_labels": doc.get("item_labels", {}),
        "warnings": doc.get("warnings", []),
    }.items()}
    gap_ids = {g.item_id for g in parsed["gap_report"].item_gaps}
    for d in parsed["gap_report"].dimension_scores:
        unknown = [i for i in d.item_ids if i not in gap_ids]
        if unknown:
            raise DefinitionError(f"report dimension {d.dimension!r} lists items "
                                  f"{unknown} that have no gap row")
    _check_derived(parsed["gap_report"], parsed["kano_priorities"], parsed["pareto"])
    return AnalysisReport(
        hoq=_section(lambda hoq: build_hoq({k: v for k, v in hoq.items() if k != "computed"}),
                     doc.get("hoq"), "hoq"),
        fishbone=_section(build_fishbone, doc.get("fishbone"), "fishbone"),
        **parsed)


def _section(build, value, name: str):
    """``build`` applied to the report section ``name``, an object or null
    (None), with its errors named by their place in the report."""
    if value is None:
        return None
    try:
        return build(mapping(value, name))
    except DefinitionError as exc:
        raise DefinitionError(f"report {exc}") from None


# --- tables -----------------------------------------------------------------

@dataclass(frozen=True)
class Column:
    """One column of a report table: its CSV header; its Markdown header, or
    None for a column only the CSV shows; and the fixed-point digits of its
    Markdown numbers, or None for their str()."""

    csv: str
    md: str | None = None
    digits: int | None = None


_DESCRIPTIVES = tuple(map(Column, (
    "item_id", "label", "expectation_mean", "expectation_variance", "expectation_n",
    "perception_mean", "perception_variance", "perception_n")))
_OMITTED = (Column("item_id", "Item"), Column("adj_total_mean", "Adj. total mean", 3),
            Column("adj_total_stdev", "Adj. total stdev", 3),
            Column("item_adj_total_corr", "Item-total corr", 4),
            Column("squared_multiple_corr", "Squared multiple corr", 4),
            Column("alpha_if_deleted", "Alpha if deleted", 4))
_RELIABILITY = (*map(Column, ("survey", "alpha", "threshold", "passes_gate", "n_items",
                               "n_respondents")), *_OMITTED)
_GAPS = (Column("dimension"), Column("level"), Column("item_id", "Item"),
         Column("label", "Label"), Column("expectation_mean", "Expectation", 9),
         Column("perception_mean", "Perception", 9), Column("gap", "Gap", 9),
         Column("classification", "Verdict"),
         *map(Column, ("importance", "unweighted_score", "weighted_score")))
_KANO = (Column("rank", "Rank"), Column("item_id", "Item"), Column("label", "Label"),
         Column("category", "Category"), Column("raw_contribution", "Raw contribution", 6),
         Column("multiplier", "Multiplier", 2), Column("priority_score", "Score", 6))
_PARETO = (Column("rank", "Rank"), Column("item", "Item"), Column("label", "Label"),
           Column("magnitude", "Magnitude", 6), Column("cumulative", "Cumulative", 6),
           Column("cumulative_pct", "Cumulative %", 4))


def _values(obj) -> list:
    """A result dataclass's field values, in declaration order."""
    return [getattr(obj, name) for name in hints(type(obj))]


def _gap_rows(report: AnalysisReport) -> list[list]:
    """The gaps table's item rows, in the order of the item gaps."""
    dimension_of = {item_id: d.dimension for d in report.gap_report.dimension_scores
                    for item_id in d.item_ids}
    return [[dimension_of.get(g.item_id, ""), "item", g.item_id,
             report.item_labels.get(g.item_id, ""), g.expectation_mean, g.perception_mean,
             g.gap, classify_satisfaction(g.gap).value, None, None, None]
            for g in report.gap_report.item_gaps]


def _kano_rows(report: AnalysisReport) -> list[list]:
    return [[k.rank, k.item_id, report.item_labels.get(k.item_id, ""), k.category.value,
             k.raw_contribution, k.multiplier, k.priority_score]
            for k in report.kano_priorities]


# --- CSV bundle -------------------------------------------------------------

def format_cell(value) -> str:
    """Shortest round-trip text for numbers; empty string for None."""
    if value is None:
        return ""
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return repr(float(value))  # normalizes float subclasses (numpy scalars)
    return str(value)


def csv_bytes(header: Sequence[str], rows: Sequence[Sequence]) -> bytes:
    """UTF-8 CSV with newline line ends; every cell goes through format_cell."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    for row in rows:
        writer.writerow([format_cell(cell) for cell in row])
    return buf.getvalue().encode("utf-8")


def reliability_csv(surveys: Sequence[tuple[str, ReliabilityReport | None]]) -> bytes:
    """One summary row per (survey name, report) pair, then one row per
    omitted item; pairs whose report is None are skipped."""
    rows = []
    for survey, rel in surveys:
        if rel is None:
            continue
        rows.append([survey, rel.alpha, rel.threshold, rel.passes_gate,
                     rel.n_items, rel.n_respondents, *[None] * len(_OMITTED)])
        rows.extend([survey, None, None, None, None, None, *_values(o)] for o in rel.omitted)
    return csv_bytes([c.csv for c in _RELIABILITY], rows)


def _csv_tables(report: AnalysisReport) -> dict[str, bytes]:
    gr = report.gap_report
    expect = {d.item_id: [d.mean, d.variance, d.n] for d in report.expectation_descriptives or ()}
    perceive = {d.item_id: [d.mean, d.variance, d.n] for d in report.perception_descriptives or ()}
    missing = [None, None, None]
    gap_rows = _gap_rows(report)
    gap_rows += [[d.dimension, "dimension", None, "", None, None, None, "",
                  d.importance, d.unweighted, d.weighted] for d in gr.dimension_scores]
    gap_rows.append(["overall", "overall", None, "", None, None, None, "",
                     None, gr.unweighted_mean_of_dimensions, gr.overall_weighted_sum])
    tables = {
        "descriptives.csv": csv_bytes([c.csv for c in _DESCRIPTIVES], [
            [g.item_id, report.item_labels.get(g.item_id, ""),
             *expect.get(g.item_id, missing), *perceive.get(g.item_id, missing)]
            for g in gr.item_gaps]),
        "reliability.csv": reliability_csv((("expectation", gr.reliability_expectation),
                                            ("perception", gr.reliability_perception))),
        "gaps.csv": csv_bytes([c.csv for c in _GAPS], gap_rows),
    }
    if report.kano_priorities:
        tables["kano.csv"] = csv_bytes([c.csv for c in _KANO], _kano_rows(report))
    if report.pareto is not None:
        tables["pareto.csv"] = csv_bytes([c.csv for c in _PARETO],
                                         [_values(r) for r in report.pareto.rows])
    if report.hoq is not None:
        hoq = report.hoq
        header = ["customer_requirement", "importance"] + [t.id for t in hoq.tech_reqs]
        rows = [[cr.name, cr.importance, *[int(v) for v in rel_row]]
                for cr, rel_row in zip(hoq.customer_reqs, hoq.relationships)]
        rows.append(["absolute_weight", None, *[t.absolute for t in hoq.importances]])
        rows.append(["relative_weight_pct", None, *[t.relative_pct for t in hoq.importances]])
        rows.append(["rank", None, *[t.rank for t in hoq.importances]])
        tables["hoq.csv"] = csv_bytes(header, rows)
    return tables


# --- Markdown ---------------------------------------------------------------

_MD_OPENERS = frozenset("#-+*>|")  # what opens a heading, list item, quote or table row
#: The number of an ordered-list opener such as ``1.`` or ``12)``: 1-9 digits
#: before a ``.`` or ``)`` that a space, a tab or the end of the text follows.
_MD_ORDERED = re.compile(r"[0-9]{1,9}(?=[.)](?:[ \t]|$))")


def _one_line(text: str) -> str:
    """``text`` with each CRLF, LF or CR a space."""
    return text.replace("\r\n", " ").replace("\r", " ").replace("\n", " ")


def _md_text(value) -> str:
    """str(value) kept to one table cell: each | escaped, each CRLF, LF or CR a space."""
    return _one_line(str(value)).replace("|", r"\|")


def _md_prose(value) -> str:
    """str(value) kept inside its line of prose: each CRLF, LF or CR a space,
    and a leading #, -, +, *, > or | or the ``.``/``)`` of a leading
    ordered-list number (``1\\. x``) escaped, so that it opens no heading,
    list item, quote or table row."""
    text = _one_line(str(value))
    at = len(text) - len(text.lstrip())
    if text[at:at + 1] in _MD_OPENERS:
        return text[:at] + "\\" + text[at:]
    number = _MD_ORDERED.match(text, at)
    return text if number is None else text[:number.end()] + "\\" + text[number.end():]


def _md_table(columns: Sequence[Column], rows: Sequence[Sequence]) -> list[str]:
    """The columns that have a Markdown header: numbers with ``digits`` in
    fixed point, other values through _md_text, None as ``undefined``."""
    shown = [(at, c.md, _md_text if c.digits is None else f"{{:.{c.digits}f}}".format)
             for at, c in enumerate(columns) if c.md is not None]
    lines = ["| " + " | ".join(md for _, md, _ in shown) + " |",
             "|" + "|".join(" --- " for _ in shown) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(["undefined" if row[at] is None else text(row[at])
                                        for at, _, text in shown]) + " |")
    return lines


def _num(value: float, digits: int = 9) -> str:
    return f"{value:.{digits}f}"


def _markdown(report: AnalysisReport) -> bytes:
    gr = report.gap_report
    lines: list[str] = ["# Service quality analysis report", ""]
    meta = report.metadata
    lines.append(f"- Tool: {_md_prose(meta.tool.name)} {_md_prose(meta.tool.version)}")
    if meta.generated_at:
        lines.append(f"- Generated: {_md_prose(meta.generated_at)}")
    if meta.instrument:
        lines.append(f"- Instrument: {meta.instrument.n_items} items "
                     f"(fingerprint {_md_prose(meta.instrument.fingerprint)})")
    parts = [f"{k}={v}" for k, v in _record(meta.respondents).items() if v is not None]
    if parts:
        lines.append(f"- Respondents: {_md_prose(', '.join(parts))}")
    lines.append("")

    for survey, rel in (("expectation", gr.reliability_expectation),
                        ("perception", gr.reliability_perception)):
        if rel is None:
            continue
        verdict = "passes" if rel.passes_gate else "FAILS"
        lines.append(f"## Reliability ({survey})")
        lines.append("")
        lines.append(f"Cronbach's alpha = {_num(rel.alpha, 4)} over {rel.n_items} items, "
                     f"N = {rel.n_respondents}; {verdict} the > {rel.threshold} gate.")
        lines.append("")
        lines.extend(_md_table(_OMITTED, [_values(o) for o in rel.omitted]))
        lines.append("")

    lines.append("## Gap analysis")
    lines.append("")
    gap_rows = {g.item_id: row for g, row in zip(gr.item_gaps, _gap_rows(report))}
    for d in gr.dimension_scores:
        lines.append(f"### {_md_prose(d.dimension.capitalize())}")
        lines.append("")
        lines.extend(_md_table(_GAPS, [gap_rows[item_id] for item_id in d.item_ids]))
        lines.append("")
        lines.append(f"Average importance score: {_num(d.importance)} | "
                     f"unweighted score: {_num(d.unweighted)} | "
                     f"weighted score: {_num(d.weighted)}")
        lines.append("")

    lines.append("### Overall")
    lines.append("")
    lines.append(f"- Weighted sum: {_num(gr.overall_weighted_sum)}")
    lines.append(f"- Weighted mean (sum / 100): {_num(gr.overall_weighted_mean)}")
    lines.append(f"- Unweighted mean of dimensions: {_num(gr.unweighted_mean_of_dimensions)}")
    lines.append("")

    if report.kano_priorities:
        lines.append("## Improvement priorities (Kano-adjusted)")
        lines.append("")
        lines.extend(_md_table(_KANO, _kano_rows(report)))
        lines.append("")

    if report.pareto:
        lines.append("## Dissatisfaction Pareto")
        lines.append("")
        if report.pareto.is_empty:
            lines.append("No negative gaps: nothing to prioritize.")
        else:
            lines.extend(_md_table(_PARETO, [_values(r) for r in report.pareto.rows]))
            lines.append("")
            lines.append(f"Vital few: first {report.pareto.vital_few_cutoff} row(s) reach "
                         f"{_num(report.pareto.threshold_pct, 1)}% of total dissatisfaction.")
        lines.append("")

    if report.hoq:
        lines.append("## House of quality")
        lines.append("")
        names = {t.id: t.name for t in report.hoq.tech_reqs}
        lines.extend(_md_table(
            (Column("rank", "Rank"), Column("name", "Technical requirement"),
             Column("absolute", "Absolute weight", 6), Column("relative_pct", "Relative %", 4)),
            [[t.rank, names[t.tech_id], t.absolute, t.relative_pct]
             for t in sorted(report.hoq.importances, key=lambda t: t.rank)],
        ))
        lines.append("")

    if report.fishbone:
        lines.append("## Cause-and-effect tree")
        lines.append("")
        lines.append(f"Effect: {_md_prose(report.fishbone.effect)}")
        lines.append("")
        for branch in report.fishbone.branches:
            lines.append(f"- **{_md_prose(branch.name)}**"
                         + (f" (items {', '.join(map(str, branch.item_ids))})"
                            if branch.item_ids else ""))
            for cause in branch.causes:
                lines.append(f"  - {_md_prose(cause.text)}")
                for child in cause.children:
                    lines.append(f"    - {_md_prose(child.text)}")
        lines.append("")
        if report.branch_magnitudes:
            lines.append("Per-branch dissatisfaction (tool extension, summed from the "
                         "items annotated on each branch):")
            lines.append("")
            for name, magnitude in report.branch_magnitudes.items():
                lines.append(f"- {_md_prose(name)}: {_num(magnitude, 6)}")
            lines.append("")

    if report.warnings:
        lines.append("## Warnings")
        lines.append("")
        for w in report.warnings:
            lines.append(f"- `{_md_prose(w.code)}`: {_md_prose(w.message)}")
        lines.append("")

    return ("\n".join(lines).rstrip("\n") + "\n").encode("utf-8")


# --- SVG charts --------------------------------------------------------------

_CHART_W = 720
_CHART_H = 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 30, 40, 70
_PLOT_W = _CHART_W - _MARGIN_L - _MARGIN_R
_PLOT_H = _CHART_H - _MARGIN_T - _MARGIN_B


#: Characters that XML 1.0 forbids even as references.
_NOT_XML = re.compile("[\x00-\x08\x0b\x0c\x0e-\x1f\ufffe\uffff]")


def _svg_text(value) -> str:
    """str(value) as SVG character data: &, < and > escaped as
    xml.sax.saxutils.escape does (whose import, through urllib.request, would
    cost a cold call ~45 ms), and each character that XML 1.0 forbids
    replaced by U+FFFD."""
    text = _NOT_XML.sub("\ufffd", str(value))
    return text.replace("&", "&amp;").replace("<", "&lt;").replace(">", "&gt;")


def _svg(title: str, body: Sequence[str]) -> bytes:
    """A chart document: white background, centred title, then ``body``."""
    return "\n".join([
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{_CHART_H}" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<text x="{_CHART_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{_svg_text(title)}</text>',
        *body,
        "</svg>\n",
    ]).encode("utf-8")


def _rule(y, style: str = 'stroke="black" stroke-width="1"') -> str:
    """A horizontal line across the plot at ``y``, written as given."""
    return f'<line x1="{_MARGIN_L}" y1="{y}" x2="{_CHART_W - _MARGIN_R}" y2="{y}" {style}/>'


def _bars(labels: Sequence[str], values: Sequence[float], floor: float = 0.0,
          value_labels: bool = True) -> tuple[float, list[str], list[float]]:
    """Vertical bars from min(values, 0) up to max(values, floor), each with
    its label and, if ``value_labels``, its value: the zero line's y, the
    bars and the x of each bar's centre."""
    top = max([*values, floor])
    bottom = min([*values, 0.0])
    span = (top - bottom) or 1.0
    slot = _PLOT_W / max(len(values), 1)
    bar_w = slot * 0.7

    def y_of(value: float) -> float:
        return _MARGIN_T + (top - value) / span * _PLOT_H

    zero_y = y_of(0.0)
    parts, centres = [], []
    for idx, (label, value) in enumerate(zip(labels, values)):
        x = _MARGIN_L + idx * slot + (slot - bar_w) / 2
        y = min(zero_y, y_of(value))
        height = abs(y_of(value) - zero_y)
        centres.append(x + bar_w / 2)
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" height="{height:.2f}" '
                     f'fill="{"#4878a8" if value >= 0 else "#b0413e"}"/>')
        if value_labels:
            value_y = y - 4 if value >= 0 else y + height + 14
            parts.append(f'<text x="{centres[-1]:.2f}" y="{value_y:.2f}" text-anchor="middle" '
                         f'font-family="sans-serif" font-size="10">{value:.2f}</text>')
        parts.append(f'<text x="{centres[-1]:.2f}" y="{_CHART_H - _MARGIN_B + 16:.2f}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="10">'
                     f'{_svg_text(label)}</text>')
    return zero_y, parts, centres


def _bar_chart_svg(title: str, labels: Sequence[str], values: Sequence[float]) -> bytes:
    """Minimal deterministic vertical bar chart (positive and negative bars)."""
    zero_y, bars, _ = _bars(labels, values)
    return _svg(title, [_rule(f"{zero_y:.2f}"), *bars])


def _pareto_chart_svg(table: ParetoTable) -> bytes:
    """A non-empty table's magnitudes as bars without value labels, its
    cumulative-percentage polyline and, once a row reaches it, its threshold."""
    _, parts, centres = _bars([str(r.item_id) for r in table.rows],
                              [r.magnitude for r in table.rows], floor=1e-12, value_labels=False)
    parts.insert(0, _rule(_CHART_H - _MARGIN_B))
    points = [f"{x:.2f},{_MARGIN_T + (100.0 - r.cumulative_pct) / 100.0 * _PLOT_H:.2f}"
              for x, r in zip(centres, table.rows)]
    parts.append(f'<polyline points="{" ".join(points)}" fill="none" '
                 f'stroke="#b0413e" stroke-width="2"/>')
    if table.vital_few_cutoff is not None:
        threshold_y = _MARGIN_T + (100.0 - table.threshold_pct) / 100.0 * _PLOT_H
        parts.append(_rule(f"{threshold_y:.2f}",
                           'stroke="#b0413e" stroke-width="1" stroke-dasharray="4 3"'))
    return _svg("Dissatisfaction Pareto", parts)


def _svg_charts(report: AnalysisReport) -> dict[str, bytes]:
    charts: dict[str, bytes] = {}
    dims = report.gap_report.dimension_scores
    for name, title, desc in (
        ("expectation_items.svg", "Expected level per item", report.expectation_descriptives),
        ("perception_items.svg", "Perceived level per item", report.perception_descriptives),
    ):
        if desc:
            charts[name] = _bar_chart_svg(title, [str(d.item_id) for d in desc],
                                          [d.mean for d in desc])
    if report.importance_weights:
        means = report.importance_weights.means
        charts["dimension_weights.svg"] = _bar_chart_svg(
            "Dimension importance weight", list(means), list(means.values()))
    charts["dimension_gaps.svg"] = _bar_chart_svg(
        "Weighted dimension score", [d.dimension for d in dims], [d.weighted for d in dims])
    if report.pareto and not report.pareto.is_empty:
        charts["pareto.svg"] = _pareto_chart_svg(report.pareto)
    return charts


# --- emit --------------------------------------------------------------------

def _json(report: AnalysisReport) -> bytes:
    return (json.dumps(report_to_dict(report), indent=2, ensure_ascii=False, allow_nan=False)
            + "\n").encode("utf-8")


#: Each report format: the suffix of its file or directory after the stem, and its renderer.
FORMATS = {"json": (".report.json", _json), "csv": (".tables", _csv_tables),
           "markdown": (".report.md", _markdown), "svg-charts": (".charts", _svg_charts)}


def emit(report: AnalysisReport, format: str):
    """Serialize a report: bytes for ``json``/``markdown``, a relative
    filename -> bytes mapping for the ``csv`` and ``svg-charts`` bundles."""
    if format not in FORMATS:
        raise DefinitionError(
            f"unknown report format {format!r} (expected one of {tuple(FORMATS)})")
    return FORMATS[format][1](report)


def parse_report(data: bytes | str) -> AnalysisReport:
    """Parse report JSON bytes back into an AnalysisReport."""
    try:
        return report_from_dict(parse_json(data, "report"))
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DefinitionError(
            f"report JSON does not have the report shape ({type(exc).__name__}: {exc})"
        ) from None


def write_report(report: AnalysisReport, stem, formats: Iterable[str] = FORMATS) -> list[str]:
    """Write ``<stem>.report.json``, ``<stem>.report.md``, ``<stem>.tables/``
    and ``<stem>.charts/`` for the requested formats, each once, and only once
    every one has rendered; returns written paths."""
    stem = Path(stem)
    payloads = [(fmt, emit(report, fmt)) for fmt in dict.fromkeys(formats)]
    stem.parent.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for fmt, payload in payloads:
        target = stem.with_name(stem.name + FORMATS[fmt][0])
        if isinstance(payload, bytes):
            files = {target: payload}
        else:
            target.mkdir(parents=True, exist_ok=True)
            files = {target / name: content for name, content in payload.items()}
        for path, content in files.items():
            path.write_bytes(content)
            written.append(str(path))
    return written
