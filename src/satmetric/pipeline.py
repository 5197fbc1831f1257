"""The analysis pipeline: ``run`` takes survey files to one AnalysisReport.

``surveys``, its ingest step, also serves the CLI's survey subcommands.
"""

from __future__ import annotations

import os
import sys
import threading
from dataclasses import dataclass, fields
from typing import Iterator, Mapping

from .errors import ConfigError, DefinitionError, SatmetricError
from .ingest import MissingPolicy, ResponseKind, ResponseSet, ValidationReport, cut_lines, \
    diagnostic_text, parse_response_file
from .instrument import SurveyInstrument, load_instrument
from .kano import parse_multiplier_spec, prioritize
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


#: The total size of one call's survey files from which ``surveys`` parses
#: them in more than one lane.  Below it, thread start-up and GIL handoffs
#: between many short numpy calls cost about what the overlap saves.  A
#: sweep of warm ``gap`` calls in-process with the CLI heap setting on (a
#: 2-vCPU host whose second CPU comes and goes; 20 to 30 interleaved pairs
#: a size, one lane against two): files with rejected rows gained from a
#: total of 1.5 MiB (13 of 20 pairs, 19 of 20 at 2.5 MiB) and lost at 0.5
#: to 1 MiB; clean files lost up to 1 MiB, were level at 1.5 to 2.5 MiB,
#: and at 5 MiB gained in 30 of 30 pairs in one run and 11 of 20 in another.
#: The cut sits at the smallest total where neither kind lost.
CONCURRENT_BYTES = 3 << 19  # 1.5 MiB
#: The lanes of a call from CONCURRENT_BYTES on, or the usable CPUs if
#: fewer.  Two, as swept: more lanes hand the GIL to each other more often,
#: and have not been measured.
LANES = 2


def _lanes(paths: list[str]) -> int:
    """How many lanes parse ``paths``: one below CONCURRENT_BYTES of their
    total size, else LANES or the usable CPUs, whichever is fewer.  A file
    that cannot be read counts as empty; its error comes at its turn."""
    total = 0
    for path in paths:
        try:
            total += os.stat(path).st_size
        except (OSError, ValueError):
            pass
    if total < CONCURRENT_BYTES:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return min(LANES, cpus)


class _Survey:
    """One file of ``surveys`` and its jobs: job 0 reads it and cuts its
    lines into blocks (ingest.cut_lines), or parses it with
    parse_response_file if the line route declines it as a whole; job
    j > 0 parses block j - 1."""

    def __init__(self, kind: ResponseKind, path: str) -> None:
        self.kind, self.path = kind, path
        self.blocks = self.parsed = self.error = None
        self.jobs, self.taken, self.done = 1, 0, 0  # its blocks are jobs once it is cut

    def run(self, job: int, instrument: SurveyInstrument,
            policy: MissingPolicy) -> BaseException | None:
        """Run job ``job``; returns what it raised, to be raised again by the
        calling thread at the file's turn."""
        try:
            if job:
                self.blocks.parse(job - 1)
            else:
                data = read_bytes(self.path)
                self.blocks = cut_lines(data, instrument, self.kind)
                if self.blocks is None:
                    self.parsed = parse_response_file(data, instrument, self.kind, policy)
        except BaseException as exc:
            return exc
        return None


def surveys(instrument: SurveyInstrument, policy: MissingPolicy | str, *paths: str | None,
            ) -> Iterator[tuple[ResponseKind, str, ResponseSet, ValidationReport]]:
    """Read the CSVs at ``paths`` (expectation, perception, importance; None
    for one not given), yielding each one's kind, path, responses and validation
    once its row diagnostics are on stderr, in one write rather than one per row.

    Each file is parsed as jobs (see ``_Survey``): the first reads it and
    cuts its lines into blocks, or parses it whole if the line route
    declines it; each of the others parses one block.  Either way a file
    meets parse_response_file once: whole in its first job, or at its
    join, given its blocks.  The calling thread and one thread per other
    lane (see ``_lanes``) each take the next job of the earliest file that
    has one, so the blocks of one file, or of several, are parsed at the
    same time, and with one lane the calling thread reads each file at its
    turn.  What the caller sees keeps file order either way: the calling
    thread joins a file's blocks, writes its diagnostics and raises an
    error from reading or parsing it when that file's turn comes.  Every
    thread has ended when the generator ends, raises or is closed."""
    policy = _setting("missing_policy", policy)
    files = [_Survey(kind, path) for kind, path in zip(ResponseKind, paths) if path is not None]
    stop = False
    turn = threading.Condition()

    def work(until: _Survey | None = None) -> None:
        """Run jobs one after another, each the next job of the earliest
        file that has one: in a lane, until none is left and every file is
        cut; in the calling thread, until file ``until`` has no job left to
        finish."""
        while True:
            with turn:
                while True:
                    if stop or until is not None and until.done == until.jobs:
                        return
                    survey = next((s for s in files if s.taken < s.jobs), None)
                    if survey is not None:
                        break
                    if until is None and all(s.done for s in files):
                        return
                    turn.wait()
                job = survey.taken
                survey.taken += 1
            error = survey.run(job, instrument, policy)
            with turn:
                if not job and survey.blocks is not None:
                    survey.jobs += len(survey.blocks)
                survey.error = survey.error or error
                survey.done += 1
                turn.notify_all()

    lanes = [threading.Thread(target=work) for _ in range(1, _lanes([s.path for s in files]))]
    try:
        for thread in lanes:
            thread.start()
        for survey in files:
            work(survey)
            blocks, parsed, error = survey.blocks, survey.parsed, survey.error
            # the caller alone holds a set once it is handed on
            survey.blocks = survey.parsed = None
            if error is not None:
                raise error
            responses, validation = parsed or parse_response_file(
                blocks.data, instrument, survey.kind, policy, blocks=blocks)
            if validation.rejected_rows:
                sys.stderr.write("".join(f"{survey.path}: {diagnostic_text(*diagnostic)}\n"
                                         for diagnostic in validation.diagnostics))
            yield survey.kind, survey.path, responses, validation
    finally:
        with turn:
            stop = True
            turn.notify_all()
        for thread in lanes:
            if thread.ident is not None:  # started
                thread.join()


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
    multipliers = parse_multiplier_spec(config.kano_multipliers or "")
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
