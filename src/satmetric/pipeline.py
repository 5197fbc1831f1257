"""The analysis pipeline: ``run`` takes survey files to one AnalysisReport.

``surveys``, its ingest step, also serves the CLI's survey subcommands.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from enum import Enum
from typing import Iterator

from .errors import ConfigError, SatmetricError
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
from .schema import read_bytes, read_json
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
    """The settings of one analysis, with the CLI's defaults."""
    variance_mode: VarianceMode | str = VarianceMode.POPULATION
    alpha_threshold: float = DEFAULT_ALPHA_THRESHOLD
    strict_gate: bool = False  # refuse to build a report when a survey fails the gate
    kano_multipliers: str | None = None  # spec text, e.g. "must_be=2,delighter=0"
    pareto_threshold: float = DEFAULT_PARETO_THRESHOLD
    normalize_weights: bool = False
    unweighted_contributions: bool = False
    missing_policy: MissingPolicy | str = MissingPolicy.DROP_ROW


def _setting(kind: type[Enum], value, name: str):
    """``value`` as a member of ``kind``, or a ConfigError naming the allowed values."""
    try:
        return kind(value)
    except ValueError:
        allowed = ", ".join(member.value for member in kind)
        raise ConfigError(f"{name} {value!r} is not one of: {allowed}") from None


_NUMBER = (int, float)
#: The type of each Config field that is not an enum setting, and its name
#: in the error.  A bool is not a number here, and a number must be finite.
_FIELD_TYPES = {
    "alpha_threshold": (_NUMBER, "a number"),
    "strict_gate": (bool, "a bool"),
    "kano_multipliers": ((str, type(None)), "a string or None"),
    "pareto_threshold": (_NUMBER, "a number"),
    "normalize_weights": (bool, "a bool"),
    "unweighted_contributions": (bool, "a bool"),
}


def _check_types(config: Config) -> None:
    for name, (types, noun) in _FIELD_TYPES.items():
        value = getattr(config, name)
        if not isinstance(value, types) or (isinstance(value, bool) and types is not bool):
            raise ConfigError(f"{name} must be {noun}, got {value!r}")
        if types is _NUMBER and not abs(value) <= sys.float_info.max:  # False for NaN
            raise ConfigError(f"{name} must be finite, got {value!r}")


def surveys(instrument: SurveyInstrument, policy: MissingPolicy | str, *paths: str | None,
            ) -> Iterator[tuple[ResponseKind, str, ResponseSet, ValidationReport]]:
    """Read the CSVs at ``paths`` (expectation, perception, importance; None
    for one not given), yielding each one's kind, path, responses and validation
    once its row diagnostics are on stderr, in one write rather than one per row."""
    policy = _setting(MissingPolicy, policy, "missing_policy")
    for kind, path in zip(ResponseKind, paths):
        if path is None:
            continue
        responses, validation = parse_response_file(read_bytes(path), instrument, kind, policy)
        if validation.row_errors:
            sys.stderr.write("".join(
                f"{path}: row {err.row}, column {err.column}: {err.message} [{err.code}]\n"
                for err in validation.row_errors))
        yield kind, path, responses, validation


def gate_failure(survey: str, rel: ReliabilityReport) -> str:
    return f"{survey} survey alpha {rel.alpha:.4f} does not exceed {rel.threshold}"


def _load_weights_file(path: str):
    doc = read_json(path)
    if isinstance(doc, dict) and "means" in doc:
        return weights_from_means(doc["means"], n_respondents=doc.get("n_respondents"))
    return weights_from_means(doc)


def run(inputs: Inputs, config: Config = Config(), timestamp=True) -> AnalysisReport | None:
    """Ingest, descriptives, the reliability gate, gaps, Kano, Pareto, HoQ and
    fishbone, then the report; None when ``config.strict_gate`` refuses a
    survey, whose refusal is then on stderr."""
    if None in (inputs.expect, inputs.perceive) or \
            (inputs.importance is None) == (inputs.weights is None):
        raise SatmetricError("the gap analysis needs an expectation CSV, a perception CSV "
                             "and exactly one of an importance CSV and a weights file")
    _check_types(config)
    mode = _setting(VarianceMode, config.variance_mode, "variance_mode")
    policy = _setting(MissingPolicy, config.missing_policy, "missing_policy")
    instrument = load_instrument(inputs.instrument)
    read = {kind.value: (responses, validation) for kind, _, responses, validation in surveys(
        instrument, policy, inputs.expect, inputs.perceive, inputs.importance)}
    weights = importance_weights(read["importance"][0]) if inputs.importance \
        else _load_weights_file(inputs.weights)
    if config.normalize_weights:
        weights = normalize_weights(weights)
    likert = ("expectation", "perception")
    descriptives = [item_descriptives(read[s][0], instrument, mode) for s in likert]
    reliability = [reliability_report(read[s][0], instrument, threshold=config.alpha_threshold)
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
        hoq=load_hoq(inputs.hoq) if inputs.hoq else None,
        fishbone=load_fishbone(inputs.fishbone) if inputs.fishbone else None,
        validation={name: validation for name, (_, validation) in read.items()},
        config={"variance_mode": mode.value, "alpha_threshold": config.alpha_threshold,
                "strict_gate": bool(config.strict_gate),
                "kano_multipliers": {c.value: v for c, v in multipliers.items()},
                "pareto_threshold_pct": config.pareto_threshold,
                "normalize_weights": bool(config.normalize_weights),
                "contributions": "unweighted" if config.unweighted_contributions
                else "importance_weighted",
                "missing_policy": policy.value},
        timestamp=timestamp)
