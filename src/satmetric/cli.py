"""Command-line frontend: ``gap`` is a thin wrapper over ``satmetric.pipeline.run``.

Exit codes: 0 success, 1 validation failure (bad data or failed strict
gate), 2 usage error.  Diagnostics go to stderr; data and results go to
files or stdout.  All randomness sits behind an explicit --seed.
"""

from __future__ import annotations

import argparse
import ctypes
import functools
import os
import sys
from dataclasses import fields
from pathlib import Path

from . import __version__
from .errors import DefinitionError, SatmetricError
from .ingest import MissingPolicy, ResponseKind, generate_synthetic, serialize_response_set
from .instrument import load_instrument
from .pipeline import Config, Inputs, gate_failure, run, surveys
from .psychometrics import DEFAULT_ALPHA_THRESHOLD, VarianceMode, item_descriptives, \
    reliability_report
from .qfd import load_hoq, ranked_importances, roof_conflicts
from .report import FORMATS, csv_bytes, parse_report, reliability_csv, write_report
from .rootcause import DEFAULT_PARETO_THRESHOLD
from .schema import number, read, read_bytes, read_json


#: glibc's mallopt parameters (malloc.h) and the values ``main`` gives them:
#: the dynamic mmap threshold's own ceiling on 64-bit (DEFAULT_MMAP_THRESHOLD_MAX)
#: and the size of one thread arena's heap on 64-bit.
_M_TOP_PAD, _M_MMAP_THRESHOLD = -2, -3
_MMAP_THRESHOLD = 32 << 20
_TOP_PAD = 64 << 20


@functools.cache
def _keep_freed_heap() -> None:
    """Let glibc keep up to ``_TOP_PAD`` of freed heap in each malloc arena,
    the ingest lanes' included, so a later command's large arrays reuse pages
    already mapped instead of faulting fresh ones in one 4 KiB page at a time.

    By default glibc returns the free top of a heap to the kernel once it
    exceeds twice the largest mmap'd block freed so far, so every parse
    hands its arrays back.  Setting either parameter switches off glibc's
    dynamic mmap threshold (mallopt(3)), so the threshold is first fixed at
    that dynamic threshold's ceiling: blocks below it then come from the
    heap whatever the process allocated before.  Only on glibc; elsewhere,
    or if a call fails, nothing changes."""
    try:
        if not (os.confstr("CS_GNU_LIBC_VERSION") or "").startswith("glibc"):
            return
        libc = ctypes.CDLL(None)
        if libc.mallopt(_M_MMAP_THRESHOLD, _MMAP_THRESHOLD):
            libc.mallopt(_M_TOP_PAD, _TOP_PAD)
    except (AttributeError, OSError, ValueError):  # no confstr, name or mallopt
        pass


def _write_out(payload: bytes, out: str | None) -> None:
    """Write UTF-8 output to the ``--out`` file, or to stdout without one."""
    if out:
        try:
            Path(out).write_bytes(payload)
        except OSError as exc:
            raise SatmetricError(f"cannot write {out}: {exc.strerror}") from None
    elif hasattr(sys.stdout, "buffer"):  # the same bytes, whatever stdout's encoding
        sys.stdout.flush()
        sys.stdout.buffer.write(payload)
    else:  # a text stream, such as io.StringIO
        sys.stdout.write(payload.decode("utf-8", "surrogateescape"))


def _echo(line: str) -> None:
    """Write one line of text, which may hold a path, to stdout as UTF-8;
    a path's bytes that are not UTF-8 are written as they are."""
    _write_out(f"{line}\n".encode("utf-8", "surrogateescape"), None)


def _add_instrument_arg(parser) -> None:
    parser.add_argument("--instrument", required=True, help="instrument definition JSON")


def _add_survey_args(parser, required: bool = False) -> None:
    _add_instrument_arg(parser)
    parser.add_argument("--expect", required=required, help="expectation CSV")
    parser.add_argument("--perceive", required=required, help="perception CSV")


def _add_policy_arg(parser) -> None:
    parser.add_argument("--missing-policy", choices=[p.value for p in MissingPolicy],
                        default=MissingPolicy.DROP_ROW.value,
                        help="what to do with invalid rows (default: drop_row)")


def _add_variance_arg(parser) -> None:
    parser.add_argument("--variance-mode", choices=[m.value for m in VarianceMode],
                        default=VarianceMode.POPULATION.value)


def _add_gate_args(parser, strict_help: str) -> None:
    parser.add_argument("--alpha-threshold", type=_finite_arg, default=DEFAULT_ALPHA_THRESHOLD)
    parser.add_argument("--strict-gate", action="store_true", help=strict_help)


def _add_csv_out_arg(parser) -> None:
    parser.add_argument("--out", help="write CSV here instead of stdout")


def _add_formats_arg(parser) -> None:
    parser.add_argument("--formats", type=_formats_arg, default=list(FORMATS),
                        help="comma list from: " + ", ".join(FORMATS))


def _likert_surveys(args, instrument):
    """pipeline.surveys on ``--expect`` and ``--perceive``, at least one of
    which must be given."""
    if args.expect is None and args.perceive is None:
        raise SatmetricError("provide --expect and/or --perceive")
    return surveys(instrument, args.missing_policy, args.expect, args.perceive)


def cmd_validate(args) -> int:
    instrument = load_instrument(args.instrument)
    rejected = []
    for kind, path, _, vr in surveys(instrument, args.missing_policy,
                                     args.expect, args.perceive, args.importance):
        _echo(f"{path}: {vr.accepted_rows} accepted, {vr.rejected_rows} rejected "
              f"({kind.value})")
        rejected.append(vr.rejected_rows)
    if not rejected:
        _echo("instrument OK; no response files given")
    return 1 if any(rejected) else 0


def cmd_descriptives(args) -> int:
    instrument = load_instrument(args.instrument)
    mode = VarianceMode(args.variance_mode)
    rows = [[kind.value, d.item_id, d.mean, d.variance, d.n]
            for kind, _, rs, _ in _likert_surveys(args, instrument)
            for d in item_descriptives(rs, instrument, mode)]
    _write_out(csv_bytes(["survey", "item_id", "mean", "variance", "n"], rows), args.out)
    return 0


def cmd_reliability(args) -> int:
    instrument = load_instrument(args.instrument)
    results = []
    for kind, _, rs, _ in _likert_surveys(args, instrument):
        rel = reliability_report(rs, instrument, threshold=args.alpha_threshold)
        if not rel.passes_gate:
            print(gate_failure(kind.value, rel), file=sys.stderr)
        results.append((kind.value, rel))
    _write_out(reliability_csv(results), args.out)
    return 1 if args.strict_gate and not all(rel.passes_gate for _, rel in results) else 0


def cmd_gap(args) -> int:
    inputs, config = (cls(**{f.name: getattr(args, f.name) for f in fields(cls)})
                      for cls in (Inputs, Config))
    report = run(inputs, config, timestamp=not args.suppress_timestamp)
    return 1 if report is None else _write(report, args)


def cmd_qfd(args) -> int:
    hoq = load_hoq(args.hoq)
    if args.show_conflicts:
        _write_out(csv_bytes(["tech_i", "tech_j"], roof_conflicts(hoq)), args.out)
        return 0
    rows = [[t.tech_id, name, t.absolute, t.relative_pct, t.rank]
            for t, name in ranked_importances(hoq)]
    _write_out(csv_bytes(["tech_id", "name", "absolute", "relative_pct", "rank"], rows), args.out)
    if hoq.degenerate:
        print("warning: all technical weights are zero (degenerate house)", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    instrument = load_instrument(args.instrument)
    if args.targets:
        targets = read_json(args.targets)
    else:
        try:
            targets = [float(v) for v in args.means.split(",")]
        except ValueError:
            raise SatmetricError(f"bad --means list {args.means!r}") from None
    targets = [float(t) for t in read(tuple[float, ...], targets, "targets")]
    if len(targets) != instrument.n_items:
        raise SatmetricError(f"{len(targets)} target means for {instrument.n_items} items")
    rs = generate_synthetic(targets, args.n, instrument.scale, seed=args.seed,
                            kind=ResponseKind(args.kind),
                            instrument_ref=instrument.fingerprint())
    _write_out(serialize_response_set(rs, instrument), args.out)
    return 0


def cmd_report(args) -> int:
    return _write(parse_report(read_bytes(args.input)), args)


def _write(report, args) -> int:
    """Write the report's ``--formats`` under ``--out``; print each path."""
    for path in write_report(report, args.out, formats=args.formats):
        _echo(path)
    return 0


def _finite_arg(value: str) -> float:
    try:
        return number(float(value), "value")
    except (ValueError, DefinitionError):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {value!r}") from None


def _formats_arg(value: str) -> list[str]:
    """The named formats; empty items are skipped, and ``write_report`` writes
    a repeated one once."""
    formats = [v.strip() for v in value.split(",") if v.strip()]
    if not formats:
        raise argparse.ArgumentTypeError(
            f"no format named (expected any of: {', '.join(FORMATS)})")
    for fmt in formats:
        if fmt not in FORMATS:
            raise argparse.ArgumentTypeError(
                f"unknown format {fmt!r} (expected any of: {', '.join(FORMATS)})")
    return formats


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="satmetric",
        description="Survey analytics for service-quality gap studies.",
    )
    parser.add_argument("--version", action="version", version=f"satmetric {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="validate instrument and response files")
    _add_survey_args(p)
    p.add_argument("--importance", help="importance-allocation CSV")
    _add_policy_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("descriptives", help="per-item means and variances")
    _add_survey_args(p)
    _add_variance_arg(p)
    _add_csv_out_arg(p)
    _add_policy_arg(p)
    p.set_defaults(func=cmd_descriptives)

    p = sub.add_parser("reliability", help="Cronbach's alpha and omitted-item diagnostics")
    _add_survey_args(p)
    _add_gate_args(p, "exit 1 when a survey fails the alpha gate")
    _add_csv_out_arg(p)
    _add_policy_arg(p)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("gap", help="full gap-analysis pipeline (incl. Kano and Pareto)")
    _add_survey_args(p, required=True)
    weights_group = p.add_mutually_exclusive_group(required=True)
    weights_group.add_argument("--importance", help="importance-allocation CSV")
    weights_group.add_argument("--weights",
                               help="JSON file of per-dimension mean allocations")
    p.add_argument("--hoq", help="optional house-of-quality definition JSON")
    p.add_argument("--fishbone", help="optional fishbone definition JSON")
    _add_variance_arg(p)
    _add_gate_args(p, "refuse to emit scores when a survey fails the alpha gate")
    p.add_argument("--kano-multipliers",
                   help="per-category multipliers, e.g. must_be=2,performance=1,delighter=0")
    p.add_argument("--pareto-threshold", type=_finite_arg, default=DEFAULT_PARETO_THRESHOLD)
    p.add_argument("--normalize-weights", action="store_true",
                   help="rescale importance means to sum to exactly 100")
    p.add_argument("--unweighted-contributions", action="store_true",
                   help="Pareto magnitudes use |gap| instead of |gap| x importance")
    p.add_argument("--out", required=True, help="output stem for report files")
    _add_formats_arg(p)
    p.add_argument("--suppress-timestamp", action="store_true",
                   help="omit the generation timestamp for byte-stable output")
    _add_policy_arg(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("qfd", help="house-of-quality technical importance weights")
    p.add_argument("--hoq", required=True, help="house-of-quality definition JSON")
    p.add_argument("--show-conflicts", action="store_true",
                   help="list negatively correlated technical pairs instead")
    _add_csv_out_arg(p)
    p.set_defaults(func=cmd_qfd)

    p = sub.add_parser("synth", help="deterministic synthetic Likert responses")
    _add_instrument_arg(p)
    targets_group = p.add_mutually_exclusive_group(required=True)
    targets_group.add_argument("--targets", help="JSON array of per-item target means")
    targets_group.add_argument("--means", help="comma list of per-item target means")
    p.add_argument("--n", type=int, required=True, help="respondent count")
    p.add_argument("--kind", choices=["expectation", "perception"], default="expectation")
    p.add_argument("--seed", type=int, default=0)
    _add_csv_out_arg(p)
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="re-emit saved report JSON in other formats")
    p.add_argument("--input", required=True, help="saved .report.json file")
    p.add_argument("--out", required=True, help="output stem")
    _add_formats_arg(p)
    p.set_defaults(func=cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except SatmetricError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        # After the first command, not before it: a process that runs one
        # command has nothing to reuse, so its peak memory is glibc's default.
        _keep_freed_heap()


if __name__ == "__main__":
    sys.exit(main())
