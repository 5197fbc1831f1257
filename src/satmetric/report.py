"""Report assembly and serialization.

An AnalysisReport bundles every analysis output in a fixed section order
and serializes deterministically: JSON (round-trips losslessly), a CSV
table bundle, Markdown, and minimal hand-constructed SVG bar/Pareto
charts.  Timestamps live only in the metadata block and can be
suppressed, making emitted bytes a pure function of the report.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass, field, fields, is_dataclass
from datetime import datetime, timezone
from enum import Enum
from functools import cache
from typing import Mapping, Sequence

from . import __version__
from .errors import DefinitionError
from .ingest import ValidationReport
from .instrument import KanoCategory, SurveyInstrument
from .kano import KanoPriority
from .psychometrics import ItemDescriptives, OmittedItemStats, ReliabilityReport
from .qfd import HouseOfQuality, serialize_hoq
from .rootcause import FishboneTree, ParetoRow, ParetoTable, serialize_fishbone
from .servqual import (
    DimensionScore,
    GapReport,
    ImportanceWeights,
    ItemGap,
    classify_satisfaction,
)

FORMATS = ("json", "csv", "markdown", "svg-charts")

WARN_RELIABILITY_GATE = "RELIABILITY_GATE_FAILED"
WARN_IMPORTANCE_DRIFT = "IMPORTANCE_SUM_DRIFT"
WARN_ROWS_REJECTED = "ROWS_REJECTED"
WARN_DEGENERATE_HOQ = "DEGENERATE_HOQ"


@dataclass(frozen=True)
class ReportWarning:
    code: str
    message: str


@dataclass(frozen=True)
class AnalysisReport:
    metadata: dict
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
        from .rootcause import Contribution, branch_magnitudes

        contribs = [Contribution(item_id=r.item_id, label=r.label, magnitude=r.magnitude)
                    for r in pareto.rows]
        branch_sums = branch_magnitudes(fishbone, contribs)

    metadata: dict = {
        "tool": {"name": "satmetric", "version": __version__},
        "generated_at": (
            datetime.now(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ") if timestamp else None
        ),
        "instrument": None,
        "respondents": {
            "expectation": expectation_descriptives[0].n if expectation_descriptives else None,
            "perception": perception_descriptives[0].n if perception_descriptives else None,
            "importance": importance_weights.n_respondents if importance_weights else None,
        },
        "config": dict(config) if config else {},
    }
    item_labels: dict[int, str] = {}
    if instrument is not None:
        metadata["instrument"] = {
            "fingerprint": instrument.fingerprint(),
            "n_items": instrument.n_items,
            "dimension_order": list(instrument.dimension_order),
            "items_per_dimension": instrument.dimension_item_counts(),
        }
        item_labels = {item.id: item.prompt for item in instrument.items}

    return AnalysisReport(
        metadata=metadata,
        gap_report=gap_report,
        expectation_descriptives=tuple(expectation_descriptives) if expectation_descriptives else None,
        perception_descriptives=tuple(perception_descriptives) if perception_descriptives else None,
        importance_weights=importance_weights,
        kano_priorities=tuple(kano_priorities) if kano_priorities else None,
        pareto=pareto,
        hoq=hoq,
        fishbone=fishbone,
        branch_magnitudes=branch_sums,
        item_labels=item_labels,
        warnings=tuple(warnings),
    )


# --- JSON ------------------------------------------------------------------

@cache
def _field_names(cls) -> tuple[str, ...]:
    return tuple(f.name for f in fields(cls))


def _record(obj) -> dict | None:
    """A result dataclass as a JSON-ready dict: fields in declaration order,
    enums as their values, tuples (of dataclasses) as lists (of records)."""
    if obj is None:
        return None
    doc = {}
    for name in _field_names(type(obj)):
        value = getattr(obj, name)
        if isinstance(value, tuple):
            value = [_record(v) if is_dataclass(v) else v for v in value]
        elif isinstance(value, Enum):
            value = value.value
        doc[name] = value
    return doc


def _records(objs) -> list[dict] | None:
    return [_record(o) for o in objs] if objs else None


def report_to_dict(report: AnalysisReport) -> dict:
    """Serialize to a plain JSON-ready dict with fixed section order."""
    gr = report.gap_report
    hoq = None
    if report.hoq:
        hoq = serialize_hoq(report.hoq)
        hoq["computed"] = {"degenerate": report.hoq.degenerate,
                           "technical_importance": [_record(t) for t in report.hoq.importances]}
    return {
        "metadata": report.metadata,
        "descriptives": {"expectation": _records(report.expectation_descriptives),
                         "perception": _records(report.perception_descriptives)},
        "reliability": {"expectation": _record(gr.reliability_expectation),
                        "perception": _record(gr.reliability_perception)},
        "importance_weights": _record(report.importance_weights),
        "gap_analysis": {
            "items": [{**_record(g), "classification": classify_satisfaction(g.gap).value}
                      for g in gr.item_gaps],
            "dimensions": [_record(d) for d in gr.dimension_scores],
            "overall": {
                "weighted_sum": gr.overall_weighted_sum,
                "weighted_mean": gr.overall_weighted_mean,
                "unweighted_mean_of_dimensions": gr.unweighted_mean_of_dimensions,
            },
        },
        "kano": _records(report.kano_priorities),
        "pareto": _record(report.pareto),
        "hoq": hoq,
        "fishbone": serialize_fishbone(report.fishbone) if report.fishbone else None,
        "fishbone_branch_magnitudes": dict(report.branch_magnitudes)
        if report.branch_magnitudes is not None else None,
        "item_labels": {str(k): v for k, v in report.item_labels.items()},
        "warnings": [_record(w) for w in report.warnings],
    }


def report_from_dict(doc: Mapping) -> AnalysisReport:
    """Rebuild an AnalysisReport from its JSON form (inverse of
    report_to_dict up to tuple/list normalization)."""
    from .qfd import build_hoq
    from .rootcause import build_fishbone

    def rows(cls, docs):
        return tuple(cls(**d) for d in docs) if docs is not None else None

    def reliability(d):
        return ReliabilityReport(**{**d, "omitted": rows(OmittedItemStats, d["omitted"])}) \
            if d is not None else None

    ga = doc["gap_analysis"]
    overall = ga["overall"]
    gap_report = GapReport(
        item_gaps=tuple(ItemGap(**{k: v for k, v in g.items() if k != "classification"})
                        for g in ga["items"]),
        dimension_scores=tuple(DimensionScore(**{**d, "item_ids": tuple(d["item_ids"])})
                               for d in ga["dimensions"]),
        overall_weighted_sum=overall["weighted_sum"],
        overall_weighted_mean=overall["weighted_mean"],
        unweighted_mean_of_dimensions=overall["unweighted_mean_of_dimensions"],
        reliability_expectation=reliability(doc["reliability"]["expectation"]),
        reliability_perception=reliability(doc["reliability"]["perception"]),
    )
    descriptives = doc["descriptives"]
    weights, kano, pareto_doc = doc.get("importance_weights"), doc.get("kano"), doc.get("pareto")
    hoq, fishbone = doc.get("hoq"), doc.get("fishbone")
    return AnalysisReport(
        metadata=dict(doc["metadata"]),
        gap_report=gap_report,
        expectation_descriptives=rows(ItemDescriptives, descriptives["expectation"]),
        perception_descriptives=rows(ItemDescriptives, descriptives["perception"]),
        importance_weights=ImportanceWeights(**weights) if weights else None,
        kano_priorities=tuple(KanoPriority(**{**k, "category": KanoCategory(k["category"])})
                              for k in kano) if kano else None,
        pareto=ParetoTable(**{**pareto_doc, "rows": rows(ParetoRow, pareto_doc["rows"])})
        if pareto_doc else None,
        hoq=build_hoq({k: v for k, v in hoq.items() if k != "computed"}) if hoq else None,
        fishbone=build_fishbone(fishbone) if fishbone else None,
        branch_magnitudes=doc.get("fishbone_branch_magnitudes"),
        item_labels={int(k): v for k, v in doc.get("item_labels", {}).items()},
        warnings=tuple(ReportWarning(**w) for w in doc.get("warnings", [])),
    )


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
                     rel.n_items, rel.n_respondents, None, None, None, None, None, None])
        for o in rel.omitted:
            rows.append([survey, None, None, None, None, None, o.item_id,
                         o.adj_total_mean, o.adj_total_stdev, o.item_adj_total_corr,
                         o.squared_multiple_corr, o.alpha_if_deleted])
    return csv_bytes(
        ["survey", "alpha", "threshold", "passes_gate", "n_items", "n_respondents",
         "item_id", "adj_total_mean", "adj_total_stdev", "item_adj_total_corr",
         "squared_multiple_corr", "alpha_if_deleted"],
        rows,
    )


def _csv_tables(report: AnalysisReport) -> dict[str, bytes]:
    tables: dict[str, bytes] = {}
    gr = report.gap_report

    expect = {d.item_id: d for d in report.expectation_descriptives or ()}
    perceive = {d.item_id: d for d in report.perception_descriptives or ()}
    item_ids = [g.item_id for g in gr.item_gaps]
    rows = []
    for item_id in item_ids:
        e, p = expect.get(item_id), perceive.get(item_id)
        rows.append([
            item_id,
            report.item_labels.get(item_id, ""),
            e.mean if e else None, e.variance if e else None, e.n if e else None,
            p.mean if p else None, p.variance if p else None, p.n if p else None,
        ])
    tables["descriptives.csv"] = csv_bytes(
        ["item_id", "label", "expectation_mean", "expectation_variance", "expectation_n",
         "perception_mean", "perception_variance", "perception_n"],
        rows,
    )

    tables["reliability.csv"] = reliability_csv((("expectation", gr.reliability_expectation),
                                                 ("perception", gr.reliability_perception)))

    gap_rows = []
    dim_of_item = {}
    for d in gr.dimension_scores:
        for item_id in d.item_ids:
            dim_of_item[item_id] = d
    for g in gr.item_gaps:
        d = dim_of_item.get(g.item_id)
        gap_rows.append([
            d.dimension if d else "", "item", g.item_id,
            report.item_labels.get(g.item_id, ""),
            g.expectation_mean, g.perception_mean, g.gap,
            classify_satisfaction(g.gap).value, None, None, None,
        ])
    for d in gr.dimension_scores:
        gap_rows.append([d.dimension, "dimension", None, "", None, None, None, "",
                         d.importance, d.unweighted, d.weighted])
    gap_rows.append(["overall", "overall", None, "", None, None, None, "",
                     None, gr.unweighted_mean_of_dimensions, gr.overall_weighted_sum])
    tables["gaps.csv"] = csv_bytes(
        ["dimension", "level", "item_id", "label", "expectation_mean", "perception_mean",
         "gap", "classification", "importance", "unweighted_score", "weighted_score"],
        gap_rows,
    )

    if report.kano_priorities is not None:
        tables["kano.csv"] = csv_bytes(
            ["rank", "item_id", "label", "category", "raw_contribution",
             "multiplier", "priority_score"],
            [[k.rank, k.item_id, report.item_labels.get(k.item_id, ""), k.category.value,
              k.raw_contribution, k.multiplier, k.priority_score]
             for k in report.kano_priorities],
        )

    if report.pareto is not None:
        tables["pareto.csv"] = csv_bytes(
            ["rank", "item", "label", "magnitude", "cumulative", "cumulative_pct"],
            [[r.rank, r.item_id, r.label, r.magnitude, r.cumulative, r.cumulative_pct]
             for r in report.pareto.rows],
        )

    if report.hoq is not None:
        hoq = report.hoq
        header = ["customer_requirement", "importance"] + [t.id for t in hoq.tech_reqs]
        rows = []
        for cr, rel_row in zip(hoq.customer_reqs, hoq.relationships):
            rows.append([cr.name, cr.importance, *[int(v) for v in rel_row]])
        rows.append(["absolute_weight", None, *[t.absolute for t in hoq.importances]])
        rows.append(["relative_weight_pct", None, *[t.relative_pct for t in hoq.importances]])
        rows.append(["rank", None, *[t.rank for t in hoq.importances]])
        tables["hoq.csv"] = csv_bytes(header, rows)

    return tables


# --- Markdown ---------------------------------------------------------------

def _md_table(header: Sequence[str], rows: Sequence[Sequence[str]]) -> list[str]:
    lines = ["| " + " | ".join(header) + " |",
             "|" + "|".join(" --- " for _ in header) + "|"]
    for row in rows:
        lines.append("| " + " | ".join(row) + " |")
    return lines


def _num(value, digits: int = 9) -> str:
    if value is None:
        return ""
    return f"{value:.{digits}f}"


def _markdown(report: AnalysisReport) -> bytes:
    gr = report.gap_report
    lines: list[str] = ["# Service quality analysis report", ""]
    meta = report.metadata
    lines.append(f"- Tool: {meta['tool']['name']} {meta['tool']['version']}")
    if meta.get("generated_at"):
        lines.append(f"- Generated: {meta['generated_at']}")
    instrument_meta = meta.get("instrument")
    if instrument_meta:
        lines.append(f"- Instrument: {instrument_meta['n_items']} items "
                     f"(fingerprint {instrument_meta['fingerprint']})")
    respondents = meta.get("respondents", {})
    parts = [f"{k}={v}" for k, v in respondents.items() if v is not None]
    if parts:
        lines.append(f"- Respondents: {', '.join(parts)}")
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
        lines.extend(_md_table(
            ["Item", "Adj. total mean", "Adj. total stdev", "Item-total corr",
             "Squared multiple corr", "Alpha if deleted"],
            [[str(o.item_id), _num(o.adj_total_mean, 3), _num(o.adj_total_stdev, 3),
              _num(o.item_adj_total_corr, 4) if o.item_adj_total_corr is not None else "undefined",
              _num(o.squared_multiple_corr, 4) if o.squared_multiple_corr is not None else "undefined",
              _num(o.alpha_if_deleted, 4) if o.alpha_if_deleted is not None else "undefined"]
             for o in rel.omitted],
        ))
        lines.append("")

    lines.append("## Gap analysis")
    lines.append("")
    gaps_by_id = {g.item_id: g for g in gr.item_gaps}
    for d in gr.dimension_scores:
        lines.append(f"### {d.dimension.capitalize()}")
        lines.append("")
        rows = []
        for item_id in d.item_ids:
            g = gaps_by_id[item_id]
            rows.append([
                f"{item_id}", report.item_labels.get(item_id, ""),
                _num(g.expectation_mean), _num(g.perception_mean), _num(g.gap),
                classify_satisfaction(g.gap).value,
            ])
        lines.extend(_md_table(
            ["Item", "Label", "Expectation", "Perception", "Gap", "Verdict"], rows))
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
        lines.extend(_md_table(
            ["Rank", "Item", "Label", "Category", "Raw contribution", "Multiplier", "Score"],
            [[str(k.rank), str(k.item_id), report.item_labels.get(k.item_id, ""),
              k.category.value, _num(k.raw_contribution, 6), _num(k.multiplier, 2),
              _num(k.priority_score, 6)]
             for k in report.kano_priorities],
        ))
        lines.append("")

    if report.pareto:
        lines.append("## Dissatisfaction Pareto")
        lines.append("")
        if report.pareto.is_empty:
            lines.append("No negative gaps: nothing to prioritize.")
        else:
            lines.extend(_md_table(
                ["Rank", "Item", "Label", "Magnitude", "Cumulative", "Cumulative %"],
                [[str(r.rank), str(r.item_id), r.label, _num(r.magnitude, 6),
                  _num(r.cumulative, 6), _num(r.cumulative_pct, 4)]
                 for r in report.pareto.rows],
            ))
            lines.append("")
            lines.append(f"Vital few: first {report.pareto.vital_few_cutoff} row(s) reach "
                         f"{_num(report.pareto.threshold_pct, 1)}% of total dissatisfaction.")
        lines.append("")

    if report.hoq:
        lines.append("## House of quality")
        lines.append("")
        ranked = sorted(report.hoq.importances, key=lambda t: t.rank)
        names = {t.id: t.name for t in report.hoq.tech_reqs}
        lines.extend(_md_table(
            ["Rank", "Technical requirement", "Absolute weight", "Relative %"],
            [[str(t.rank), names[t.tech_id], _num(t.absolute, 6), _num(t.relative_pct, 4)]
             for t in ranked],
        ))
        lines.append("")

    if report.fishbone:
        lines.append("## Cause-and-effect tree")
        lines.append("")
        lines.append(f"Effect: {report.fishbone.effect}")
        lines.append("")
        for branch in report.fishbone.branches:
            lines.append(f"- **{branch.name}**"
                         + (f" (items {', '.join(map(str, branch.item_ids))})"
                            if branch.item_ids else ""))
            for cause in branch.causes:
                lines.append(f"  - {cause.text}")
                for child in cause.children:
                    lines.append(f"    - {child.text}")
        lines.append("")
        if report.branch_magnitudes:
            lines.append("Per-branch dissatisfaction (tool extension, summed from the "
                         "items annotated on each branch):")
            lines.append("")
            for name, magnitude in report.branch_magnitudes.items():
                lines.append(f"- {name}: {_num(magnitude, 6)}")
            lines.append("")

    if report.warnings:
        lines.append("## Warnings")
        lines.append("")
        for w in report.warnings:
            lines.append(f"- `{w.code}`: {w.message}")
        lines.append("")

    return ("\n".join(lines).rstrip("\n") + "\n").encode("utf-8")


# --- SVG charts --------------------------------------------------------------

_CHART_W = 720
_CHART_H = 360
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 60, 30, 40, 70


def _bar_chart_svg(title: str, labels: Sequence[str], values: Sequence[float]) -> bytes:
    """Minimal deterministic vertical bar chart (positive and negative bars)."""
    top = max([*values, 0.0])
    bottom = min([*values, 0.0])
    span = (top - bottom) or 1.0
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B
    slot = plot_w / max(len(values), 1)
    bar_w = slot * 0.7

    def y_of(value: float) -> float:
        return _MARGIN_T + (top - value) / span * plot_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{_CHART_H}" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<text x="{_CHART_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">{title}</text>',
    ]
    zero_y = y_of(0.0)
    parts.append(f'<line x1="{_MARGIN_L}" y1="{zero_y:.2f}" x2="{_CHART_W - _MARGIN_R}" '
                 f'y2="{zero_y:.2f}" stroke="black" stroke-width="1"/>')
    for idx, (label, value) in enumerate(zip(labels, values)):
        x = _MARGIN_L + idx * slot + (slot - bar_w) / 2
        y = min(zero_y, y_of(value))
        height = abs(y_of(value) - zero_y)
        fill = "#4878a8" if value >= 0 else "#b0413e"
        parts.append(f'<rect x="{x:.2f}" y="{y:.2f}" width="{bar_w:.2f}" '
                     f'height="{height:.2f}" fill="{fill}"/>')
        value_y = y - 4 if value >= 0 else y + height + 14
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{value_y:.2f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{value:.2f}</text>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{_CHART_H - _MARGIN_B + 16:.2f}" '
                     f'text-anchor="middle" font-family="sans-serif" font-size="10">{label}</text>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _pareto_chart_svg(table: ParetoTable) -> bytes:
    """Bars of magnitudes with the cumulative-percentage polyline."""
    rows = table.rows
    labels = [str(r.item_id) for r in rows]
    values = [r.magnitude for r in rows]
    top = max([*values, 1e-12])
    plot_w = _CHART_W - _MARGIN_L - _MARGIN_R
    plot_h = _CHART_H - _MARGIN_T - _MARGIN_B
    slot = plot_w / max(len(values), 1)
    bar_w = slot * 0.7
    base_y = _CHART_H - _MARGIN_B
    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CHART_W}" height="{_CHART_H}" '
        f'viewBox="0 0 {_CHART_W} {_CHART_H}">',
        f'<rect width="{_CHART_W}" height="{_CHART_H}" fill="white"/>',
        f'<text x="{_CHART_W / 2:.1f}" y="24" text-anchor="middle" '
        f'font-family="sans-serif" font-size="16">Dissatisfaction Pareto</text>',
        f'<line x1="{_MARGIN_L}" y1="{base_y}" x2="{_CHART_W - _MARGIN_R}" '
        f'y2="{base_y}" stroke="black" stroke-width="1"/>',
    ]
    points = []
    for idx, row in enumerate(rows):
        x = _MARGIN_L + idx * slot + (slot - bar_w) / 2
        height = row.magnitude / top * plot_h
        parts.append(f'<rect x="{x:.2f}" y="{base_y - height:.2f}" width="{bar_w:.2f}" '
                     f'height="{height:.2f}" fill="#4878a8"/>')
        parts.append(f'<text x="{x + bar_w / 2:.2f}" y="{base_y + 16:.2f}" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="10">{labels[idx]}</text>')
        cum_y = _MARGIN_T + (100.0 - row.cumulative_pct) / 100.0 * plot_h
        points.append(f"{x + bar_w / 2:.2f},{cum_y:.2f}")
    if points:
        parts.append(f'<polyline points="{" ".join(points)}" fill="none" '
                     f'stroke="#b0413e" stroke-width="2"/>')
    if table.vital_few_cutoff is not None:
        threshold_y = _MARGIN_T + (100.0 - table.threshold_pct) / 100.0 * plot_h
        parts.append(f'<line x1="{_MARGIN_L}" y1="{threshold_y:.2f}" '
                     f'x2="{_CHART_W - _MARGIN_R}" y2="{threshold_y:.2f}" '
                     f'stroke="#b0413e" stroke-width="1" stroke-dasharray="4 3"/>')
    parts.append("</svg>")
    return ("\n".join(parts) + "\n").encode("utf-8")


def _svg_charts(report: AnalysisReport) -> dict[str, bytes]:
    charts: dict[str, bytes] = {}
    gr = report.gap_report
    if report.expectation_descriptives:
        charts["expectation_items.svg"] = _bar_chart_svg(
            "Expected level per item",
            [str(d.item_id) for d in report.expectation_descriptives],
            [d.mean for d in report.expectation_descriptives],
        )
    if report.perception_descriptives:
        charts["perception_items.svg"] = _bar_chart_svg(
            "Perceived level per item",
            [str(d.item_id) for d in report.perception_descriptives],
            [d.mean for d in report.perception_descriptives],
        )
    if report.importance_weights:
        charts["dimension_weights.svg"] = _bar_chart_svg(
            "Dimension importance weight",
            list(report.importance_weights.means.keys()),
            list(report.importance_weights.means.values()),
        )
    charts["dimension_gaps.svg"] = _bar_chart_svg(
        "Weighted dimension score",
        [d.dimension for d in gr.dimension_scores],
        [d.weighted for d in gr.dimension_scores],
    )
    if report.pareto and not report.pareto.is_empty:
        charts["pareto.svg"] = _pareto_chart_svg(report.pareto)
    return charts


# --- emit --------------------------------------------------------------------

def emit(report: AnalysisReport, format: str):
    """Serialize a report: bytes for ``json``/``markdown``, a relative
    filename -> bytes mapping for the ``csv`` and ``svg-charts`` bundles."""
    if format == "json":
        doc = report_to_dict(report)
        return (json.dumps(doc, indent=2, ensure_ascii=False, allow_nan=False)
                + "\n").encode("utf-8")
    if format == "markdown":
        return _markdown(report)
    if format == "csv":
        return _csv_tables(report)
    if format == "svg-charts":
        return _svg_charts(report)
    raise DefinitionError(f"unknown report format {format!r} (expected one of {FORMATS})")


def parse_report(data: bytes | str) -> AnalysisReport:
    """Parse report JSON bytes back into an AnalysisReport."""
    try:
        doc = json.loads(data.decode("utf-8") if isinstance(data, bytes) else data)
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise DefinitionError(f"report is not valid JSON ({exc})") from None
    try:
        return report_from_dict(doc)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise DefinitionError(
            f"report JSON does not have the report shape ({type(exc).__name__}: {exc})"
        ) from None


def write_report(report: AnalysisReport, stem, formats: Sequence[str] = FORMATS) -> list[str]:
    """Write ``<stem>.report.json``, ``<stem>.report.md``, ``<stem>.tables/``
    and ``<stem>.charts/`` for the requested formats; returns written paths."""
    from pathlib import Path

    stem = Path(stem)
    if stem.parent and not stem.parent.exists():
        stem.parent.mkdir(parents=True, exist_ok=True)
    written: list[str] = []
    for fmt in formats:
        payload = emit(report, fmt)
        if fmt == "json":
            path = stem.with_name(stem.name + ".report.json")
            path.write_bytes(payload)
            written.append(str(path))
        elif fmt == "markdown":
            path = stem.with_name(stem.name + ".report.md")
            path.write_bytes(payload)
            written.append(str(path))
        else:
            suffix = ".tables" if fmt == "csv" else ".charts"
            directory = stem.with_name(stem.name + suffix)
            directory.mkdir(parents=True, exist_ok=True)
            for name, content in payload.items():
                path = directory / name
                path.write_bytes(content)
                written.append(str(path))
    return written
