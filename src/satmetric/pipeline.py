"""The analysis pipeline: ``run`` takes survey files to one AnalysisReport.

``surveys``, its ingest step, also serves the CLI's survey subcommands.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

from .errors import ConfigError, DefinitionError, SatmetricError
from .ingest import MissingPolicy, ResponseKind, ResponseSet, ValidationReport, \
    parse_response_file
from .instrument import SurveyInstrument, load_instrument
from .kano import DEFAULT_MULTIPLIERS, parse_multiplier_spec, prioritize
from .psychometrics import DEFAULT_ALPHA_THRESHOLD, ReliabilityReport, VarianceMode, \
    item_descriptives, reliability_report
from .qfd import load_hoq
from .report import AnalysisReport, assemble
from .rootcause import DEFAULT_PARETO_THRESHOLD, dissatisfaction_contributions, load_fishbone, \
    pareto
from .schema import hints, read, read_bytes, read_json
from .servqual import compute_gap_report, importance_weights, normalize_weights, \
    weights_from_means


@dataclass(frozen=True)
class Inputs:
    """The files of one analysis: exactly one of ``importance`` and ``weights``."""
    instrument: str
    expect: str | None = None
    perceive: str | None = None
    importance: str | None = None  # importance-allocation CSV
    weights: str | None = None  # JSON of per-dimension mean allocations
    hoq: str | None = None
    fishbone: str | None = None


@dataclass(frozen=True)
class Config:
    """The settings of one analysis, with the CLI's defaults.  ``run`` reads each
    through schema.read, so an enum setting may also be given as its value."""
    variance_mode: VarianceMode = VarianceMode.POPULATION
    alpha_threshold: float = DEFAULT_ALPHA_THRESHOLD
    strict_gate: bool = False  # refuse to build a report when a survey fails the gate
    kano_multipliers: str | None = None  # spec text, e.g. "must_be=2,delighter=0"
    pareto_threshold: float = DEFAULT_PARETO_THRESHOLD
    normalize_weights: bool = False
    unweighted_contributions: bool = False
    missing_policy: MissingPolicy = MissingPolicy.DROP_ROW


def _setting(name: str, value):
    """``value`` read as the Config field ``name``; a ConfigError says why it is not one."""
    try:
        return read(hints(Config)[name], value, name)
    except DefinitionError as exc:
        raise ConfigError(str(exc)) from None


def surveys(instrument: SurveyInstrument, policy: MissingPolicy | str, *paths: str | None,
            ) -> Iterator[tuple[ResponseKind, str, ResponseSet, ValidationReport]]:
    """Read the CSVs at ``paths`` (expectation, perception, importance; None
    for one not given), yielding each one's kind, path, responses and validation
    once its row diagnostics are on stderr, in one write rather than one per row."""
    policy = _setting("missing_policy", policy)
    for kind, path in zip(ResponseKind, paths):
        if path is None:
            continue
        responses, validation = parse_response_file(read_bytes(path), instrument, kind, policy)
        if validation.rejected_rows:
            sys.stderr.write("".join(f"{path}: row {row}, column {column}: {message} [{code}]\n"
                                     for row, column, code, message in validation.diagnostics))
        yield kind, path, responses, validation


def gate_failure(survey: str, rel: ReliabilityReport) -> str:
    return f"{survey} survey alpha {rel.alpha:.4f} does not exceed {rel.threshold}"


@dataclass(frozen=True)
class WeightsDoc:
    """A weights file, unless it holds the bare ``means`` object alone."""
    means: Mapping[str, float]
    n_respondents: int | None = None


def _load_weights_file(path: str):
    doc = read_json(path)
    doc = read(WeightsDoc, doc if isinstance(doc, dict) and "means" in doc else {"means": doc},
               "weights")
    return weights_from_means(doc.means, n_respondents=doc.n_respondents)


def run(inputs: Inputs, config: Config = Config(), timestamp=True) -> AnalysisReport | None:
    """Ingest, descriptives, the reliability gate, gaps, Kano, Pareto, HoQ and
    fishbone, then the report; None when ``config.strict_gate`` refuses a
    survey, whose refusal is then on stderr.  The instrument, weights, HoQ
    and fishbone files are read and checked before the survey CSVs."""
    if None in (inputs.expect, inputs.perceive) or \
            (inputs.importance is None) == (inputs.weights is None):
        raise SatmetricError("the gap analysis needs an expectation CSV, a perception CSV "
                             "and exactly one of an importance CSV and a weights file")
    config = Config(**{f.name: _setting(f.name, getattr(config, f.name)) for f in fields(Config)})
    mode, policy = config.variance_mode, config.missing_policy
    instrument = load_instrument(inputs.instrument)
    weights = None if inputs.weights is None else _load_weights_file(inputs.weights)
    hoq = load_hoq(inputs.hoq) if inputs.hoq else None
    fishbone = load_fishbone(inputs.fishbone) if inputs.fishbone else None
    parsed = {kind.value: (responses, validation) for kind, _, responses, validation in surveys(
        instrument, policy, inputs.expect, inputs.perceive, inputs.importance)}
    if weights is None:
        weights = importance_weights(parsed["importance"][0])
    if config.normalize_weights:
        weights = normalize_weights(weights)
    likert = ("expectation", "perception")
    descriptives = [item_descriptives(parsed[s][0], instrument, mode) for s in likert]
    reliability = [reliability_report(parsed[s][0], instrument, threshold=config.alpha_threshold)
                   for s in likert]
    failed = [gate_failure(s, rel) for s, rel in zip(likert, reliability) if not rel.passes_gate]
    if config.strict_gate and failed:
        sys.stderr.write("".join(f"{message}; refusing to emit scores under --strict-gate\n"
                                 for message in failed))
        return None
    gap_report = compute_gap_report(*descriptives, weights, instrument, *reliability)
    multipliers = parse_multiplier_spec(config.kano_multipliers) if config.kano_multipliers \
        else DEFAULT_MULTIPLIERS
    priorities = prioritize(gap_report.item_gaps, weights, instrument, multipliers)
    contributions = dissatisfaction_contributions(
        gap_report.item_gaps, weights, instrument, weighted=not config.unweighted_contributions)
    pareto_table = pareto(contributions, threshold_pct=config.pareto_threshold)
    return assemble(
        gap_report, instrument=instrument, importance_weights=weights,
        expectation_descriptives=descriptives[0], perception_descriptives=descriptives[1],
        kano_priorities=priorities, pareto=pareto_table,
        hoq=hoq, fishbone=fishbone,
        validation={name: validation for name, (_, validation) in parsed.items()},
        config={"variance_mode": mode.value, "alpha_threshold": config.alpha_threshold,
                "strict_gate": config.strict_gate,
                "kano_multipliers": {c.value: v for c, v in multipliers.items()},
                "pareto_threshold_pct": config.pareto_threshold,
                "normalize_weights": config.normalize_weights,
                "contributions": "unweighted" if config.unweighted_contributions
                else "importance_weighted",
                "missing_policy": policy.value},
        timestamp=timestamp)
