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


#: The file size from which ``surveys`` parses one call's files concurrently,
#: when at least two of them reach it.  Below it, thread start-up and GIL
#: handoffs between many short numpy calls cost about what the overlap saves.
#: A sweep of one ``gap`` call in-process (one setting per process, a 2-vCPU
#: host): files with rejected rows gained from about 0.5 MB; clean files
#: lost at 0.42 MB, were level from 0.5 to 1 MB and gained at 2.1 MB.  The
#: sweep ran while glibc trimmed freed heap after every parse; a CLI process
#: now keeps it after its first call (``cli._keep_freed_heap``), and the cut
#: has not been swept again under that.
CONCURRENT_BYTES = 512 * 1024


def _lanes(paths: list[str]) -> int:
    """How many lanes parse ``paths``: one unless two of the files reach
    CONCURRENT_BYTES, else one per file up to the usable CPUs.  A file that
    cannot be read counts as small; its error comes when it is parsed."""
    sizes = []
    for path in paths:
        try:
            sizes.append(os.stat(path).st_size)
        except (OSError, ValueError):
            sizes.append(0)
    if sum(size >= CONCURRENT_BYTES for size in sizes) < 2:
        return 1
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
        else os.cpu_count() or 1
    return min(len(paths), cpus)


def surveys(instrument: SurveyInstrument, policy: MissingPolicy | str, *paths: str | None,
            ) -> Iterator[tuple[ResponseKind, str, ResponseSet, ValidationReport]]:
    """Read the CSVs at ``paths`` (expectation, perception, importance; None
    for one not given), yielding each one's kind, path, responses and validation
    once its row diagnostics are on stderr, in one write rather than one per row.

    Large files are parsed concurrently (see ``_lanes``): the calling thread
    parses the first file, and it and up to one thread per other usable CPU
    each take the next file not yet taken.  What the caller sees keeps file
    order either way: a file's diagnostics are written, and an error from
    reading or parsing it is raised, by the calling thread when that file's
    turn comes.  Every thread has ended when the generator ends, raises or
    is closed."""
    policy = _setting("missing_policy", policy)
    jobs = [(kind, path) for kind, path in zip(ResponseKind, paths) if path is not None]
    done: list[tuple | None] = [None] * len(jobs)  # (responses, validation, error) per file
    taken, stop = 1, False  # the calling thread parses the first file
    turn = threading.Condition()

    def take() -> int | None:
        nonlocal taken
        with turn:
            if stop or taken >= len(jobs):
                return None
            taken += 1
            return taken - 1

    def parse(at: int) -> None:
        kind, path = jobs[at]
        try:
            result = (*parse_response_file(read_bytes(path), instrument, kind, policy), None)
        except BaseException as exc:  # raised again by the calling thread, in file order
            result = None, None, exc
        with turn:
            done[at] = result
            turn.notify_all()

    def lane() -> None:
        while (at := take()) is not None:
            parse(at)

    lanes = [threading.Thread(target=lane) for _ in range(1, _lanes([path for _, path in jobs]))]
    try:
        for thread in lanes:
            thread.start()
        if jobs:
            parse(0)
        for at, (kind, path) in enumerate(jobs):
            while done[at] is None:
                if (job := take()) is not None:
                    parse(job)
                else:
                    with turn:
                        turn.wait_for(lambda: done[at] is not None)
            responses, validation, error = done[at]
            done[at] = ()  # the caller alone holds a set once it is handed on
            if error is not None:
                raise error
            if validation.rejected_rows:
                sys.stderr.write("".join(f"{path}: row {row}, column {column}: {message} [{code}]\n"
                                         for row, column, code, message in validation.diagnostics))
            yield kind, path, responses, validation
    finally:
        with turn:
            stop = True
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
