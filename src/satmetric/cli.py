"""Command-line frontend.

Exit codes: 0 success, 1 validation failure (bad data or failed strict
gate), 2 usage error.  Diagnostics go to stderr; data and results go to
files or stdout.  All randomness sits behind an explicit --seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import __version__
from .errors import SatmetricError
from .ingest import MissingPolicy, ResponseKind, generate_synthetic, parse_response_file, \
    serialize_response_set
from .instrument import load_instrument
from .kano import DEFAULT_MULTIPLIERS, parse_multiplier_spec, prioritize
from .psychometrics import DEFAULT_ALPHA_THRESHOLD, VarianceMode, item_descriptives, \
    reliability_report
from .qfd import load_hoq, roof_conflicts
from .report import FORMATS, assemble, csv_bytes, parse_report, reliability_csv, write_report
from .rootcause import DEFAULT_PARETO_THRESHOLD, dissatisfaction_contributions, load_fishbone, \
    pareto
from .servqual import compute_gap_report, importance_weights, normalize_weights, \
    weights_from_means


def _read_bytes(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise SatmetricError(f"cannot read {path}: {exc.strerror}") from None


def _load_weights_file(path: str):
    try:
        doc = json.loads(_read_bytes(path).decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise SatmetricError(f"{path}: not valid JSON ({exc})") from None
    if isinstance(doc, dict) and "means" in doc:
        means = doc["means"]
        n = doc.get("n_respondents")
    else:
        means, n = doc, None
    if not isinstance(means, dict):
        raise SatmetricError(f"{path}: expected a dimension -> points object")
    return weights_from_means(means, n_respondents=n)


def _write_out(payload: bytes, out: str | None) -> None:
    """Write UTF-8 output to the ``--out`` file, or to stdout without one."""
    if out:
        Path(out).write_bytes(payload)
    else:
        sys.stdout.write(payload.decode("utf-8"))


def _parse_csv(args, instrument, kind: ResponseKind, path: str):
    rs, vr = parse_response_file(_read_bytes(path), instrument, kind,
                                 MissingPolicy(args.missing_policy))
    for err in vr.row_errors:
        print(f"{path}: row {err.row}, column {err.column}: {err.message} [{err.code}]",
              file=sys.stderr)
    return rs, vr


def _add_instrument_arg(parser) -> None:
    parser.add_argument("--instrument", required=True, help="instrument definition JSON")


def _add_policy_arg(parser) -> None:
    parser.add_argument("--missing-policy", choices=[p.value for p in MissingPolicy],
                        default=MissingPolicy.DROP_ROW.value,
                        help="what to do with invalid rows (default: drop_row)")


def cmd_validate(args) -> int:
    instrument = load_instrument(args.instrument)
    clean = True
    any_file = False
    for kind, path in ((ResponseKind.EXPECTATION, args.expect),
                       (ResponseKind.PERCEPTION, args.perceive),
                       (ResponseKind.IMPORTANCE, args.importance)):
        if path is None:
            continue
        any_file = True
        rs, vr = _parse_csv(args, instrument, kind, path)
        print(f"{path}: {vr.accepted_rows} accepted, {vr.rejected_rows} rejected "
              f"({kind.value})")
        if vr.rejected_rows:
            clean = False
    if not any_file:
        print("instrument OK; no response files given")
    return 0 if clean else 1


def cmd_descriptives(args) -> int:
    instrument = load_instrument(args.instrument)
    mode = VarianceMode(args.variance_mode)
    rows: list[list] = []
    for kind, path in ((ResponseKind.EXPECTATION, args.expect),
                       (ResponseKind.PERCEPTION, args.perceive)):
        if path is None:
            continue
        rs, _ = _parse_csv(args, instrument, kind, path)
        rows.extend([kind.value, d.item_id, d.mean, d.variance, d.n]
                    for d in item_descriptives(rs, instrument, mode))
    if not rows:
        raise SatmetricError("provide --expect and/or --perceive")
    _write_out(csv_bytes(["survey", "item_id", "mean", "variance", "n"], rows), args.out)
    return 0


def cmd_reliability(args) -> int:
    instrument = load_instrument(args.instrument)
    if args.expect is None and args.perceive is None:
        raise SatmetricError("provide --expect and/or --perceive")
    surveys = []
    for kind, path in ((ResponseKind.EXPECTATION, args.expect),
                       (ResponseKind.PERCEPTION, args.perceive)):
        if path is None:
            continue
        rs, _ = _parse_csv(args, instrument, kind, path)
        rel = reliability_report(rs, instrument, threshold=args.alpha_threshold)
        surveys.append((kind.value, rel))
        if not rel.passes_gate:
            print(f"{kind.value} survey alpha {rel.alpha:.4f} does not exceed "
                  f"{rel.threshold}", file=sys.stderr)
    _write_out(reliability_csv(surveys), args.out)
    if args.strict_gate and not all(rel.passes_gate for _, rel in surveys):
        return 1
    return 0


def cmd_gap(args) -> int:
    instrument = load_instrument(args.instrument)
    expect_rs, expect_vr = _parse_csv(args, instrument, ResponseKind.EXPECTATION, args.expect)
    perceive_rs, perceive_vr = _parse_csv(args, instrument, ResponseKind.PERCEPTION,
                                             args.perceive)
    validation = {"expectation": expect_vr, "perception": perceive_vr}

    if args.importance:
        importance_rs, importance_vr = _parse_csv(args, instrument,
                                                     ResponseKind.IMPORTANCE, args.importance)
        weights = importance_weights(importance_rs)
        validation["importance"] = importance_vr
    else:
        weights = _load_weights_file(args.weights)
    if args.normalize_weights:
        weights = normalize_weights(weights)

    mode = VarianceMode(args.variance_mode)
    expect_desc = item_descriptives(expect_rs, instrument, mode)
    perceive_desc = item_descriptives(perceive_rs, instrument, mode)

    rel_expect = reliability_report(expect_rs, instrument, threshold=args.alpha_threshold)
    rel_perceive = reliability_report(perceive_rs, instrument, threshold=args.alpha_threshold)
    if args.strict_gate and not (rel_expect.passes_gate and rel_perceive.passes_gate):
        for name, rel in (("expectation", rel_expect), ("perception", rel_perceive)):
            if not rel.passes_gate:
                print(f"{name} survey alpha {rel.alpha:.4f} does not exceed "
                      f"{rel.threshold}; refusing to emit scores under --strict-gate",
                      file=sys.stderr)
        return 1

    gap_report = compute_gap_report(expect_desc, perceive_desc, weights, instrument,
                                    reliability_expectation=rel_expect,
                                    reliability_perception=rel_perceive)
    multipliers = parse_multiplier_spec(args.kano_multipliers) if args.kano_multipliers \
        else DEFAULT_MULTIPLIERS
    priorities = prioritize(gap_report.item_gaps, weights, instrument, multipliers)
    contributions = dissatisfaction_contributions(
        gap_report.item_gaps, weights, instrument,
        weighted=not args.unweighted_contributions)
    pareto_table = pareto(contributions, threshold_pct=args.pareto_threshold)

    hoq = load_hoq(args.hoq) if args.hoq else None
    fishbone = load_fishbone(args.fishbone) if args.fishbone else None

    config = {
        "variance_mode": mode.value,
        "alpha_threshold": args.alpha_threshold,
        "strict_gate": bool(args.strict_gate),
        "kano_multipliers": {c.value: v for c, v in multipliers.items()},
        "pareto_threshold_pct": args.pareto_threshold,
        "normalize_weights": bool(args.normalize_weights),
        "contributions": "unweighted" if args.unweighted_contributions
        else "importance_weighted",
        "missing_policy": args.missing_policy,
    }
    report = assemble(
        gap_report,
        instrument=instrument,
        expectation_descriptives=expect_desc,
        perception_descriptives=perceive_desc,
        importance_weights=weights,
        kano_priorities=priorities,
        pareto=pareto_table,
        hoq=hoq,
        fishbone=fishbone,
        validation=validation,
        config=config,
        timestamp=not args.suppress_timestamp,
    )
    written = write_report(report, args.out, formats=args.formats)
    for path in written:
        print(path)
    return 0


def cmd_qfd(args) -> int:
    hoq = load_hoq(args.hoq)
    if args.show_conflicts:
        _write_out(csv_bytes(["tech_i", "tech_j"], roof_conflicts(hoq)), args.out)
        return 0
    names = {t.id: t.name for t in hoq.tech_reqs}
    ranked = sorted(hoq.importances, key=lambda t: t.rank)
    rows = [[t.tech_id, names[t.tech_id], t.absolute, t.relative_pct, t.rank] for t in ranked]
    _write_out(csv_bytes(["tech_id", "name", "absolute", "relative_pct", "rank"], rows), args.out)
    if hoq.degenerate:
        print("warning: all technical weights are zero (degenerate house)", file=sys.stderr)
    return 0


def cmd_synth(args) -> int:
    instrument = load_instrument(args.instrument)
    if args.targets:
        try:
            targets = json.loads(_read_bytes(args.targets).decode("utf-8"))
        except (UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise SatmetricError(f"{args.targets}: not valid JSON ({exc})") from None
        if not isinstance(targets, list):
            raise SatmetricError(f"{args.targets}: expected a JSON array of target means")
    else:
        try:
            targets = [float(v) for v in args.means.split(",")]
        except ValueError:
            raise SatmetricError(f"bad --means list {args.means!r}") from None
    if len(targets) != instrument.n_items:
        raise SatmetricError(f"{len(targets)} target means for {instrument.n_items} items")
    rs = generate_synthetic(targets, args.n, instrument.scale, seed=args.seed,
                            kind=ResponseKind(args.kind),
                            instrument_ref=instrument.fingerprint())
    _write_out(serialize_response_set(rs, instrument), args.out)
    return 0


def cmd_report(args) -> int:
    report = parse_report(_read_bytes(args.input))
    written = write_report(report, args.out, formats=args.formats)
    for path in written:
        print(path)
    return 0


def _formats_arg(value: str) -> list[str]:
    formats = [v.strip() for v in value.split(",") if v.strip()]
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
    _add_instrument_arg(p)
    p.add_argument("--expect", help="expectation CSV")
    p.add_argument("--perceive", help="perception CSV")
    p.add_argument("--importance", help="importance-allocation CSV")
    _add_policy_arg(p)
    p.set_defaults(func=cmd_validate)

    p = sub.add_parser("descriptives", help="per-item means and variances")
    _add_instrument_arg(p)
    p.add_argument("--expect", help="expectation CSV")
    p.add_argument("--perceive", help="perception CSV")
    p.add_argument("--variance-mode", choices=[m.value for m in VarianceMode],
                   default=VarianceMode.POPULATION.value)
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_policy_arg(p)
    p.set_defaults(func=cmd_descriptives)

    p = sub.add_parser("reliability", help="Cronbach's alpha and omitted-item diagnostics")
    _add_instrument_arg(p)
    p.add_argument("--expect", help="expectation CSV")
    p.add_argument("--perceive", help="perception CSV")
    p.add_argument("--alpha-threshold", type=float, default=DEFAULT_ALPHA_THRESHOLD)
    p.add_argument("--strict-gate", action="store_true",
                   help="exit 1 when a survey fails the alpha gate")
    p.add_argument("--out", help="write CSV here instead of stdout")
    _add_policy_arg(p)
    p.set_defaults(func=cmd_reliability)

    p = sub.add_parser("gap", help="full gap-analysis pipeline (incl. Kano and Pareto)")
    _add_instrument_arg(p)
    p.add_argument("--expect", required=True, help="expectation CSV")
    p.add_argument("--perceive", required=True, help="perception CSV")
    weights_group = p.add_mutually_exclusive_group(required=True)
    weights_group.add_argument("--importance", help="importance-allocation CSV")
    weights_group.add_argument("--weights",
                               help="JSON file of per-dimension mean allocations")
    p.add_argument("--hoq", help="optional house-of-quality definition JSON")
    p.add_argument("--fishbone", help="optional fishbone definition JSON")
    p.add_argument("--variance-mode", choices=[m.value for m in VarianceMode],
                   default=VarianceMode.POPULATION.value)
    p.add_argument("--alpha-threshold", type=float, default=DEFAULT_ALPHA_THRESHOLD)
    p.add_argument("--strict-gate", action="store_true",
                   help="refuse to emit scores when a survey fails the alpha gate")
    p.add_argument("--kano-multipliers",
                   help="per-category multipliers, e.g. must_be=2,performance=1,delighter=0")
    p.add_argument("--pareto-threshold", type=float, default=DEFAULT_PARETO_THRESHOLD)
    p.add_argument("--normalize-weights", action="store_true",
                   help="rescale importance means to sum to exactly 100")
    p.add_argument("--unweighted-contributions", action="store_true",
                   help="Pareto magnitudes use |gap| instead of |gap| x importance")
    p.add_argument("--out", required=True, help="output stem for report files")
    p.add_argument("--formats", type=_formats_arg, default=list(FORMATS),
                   help="comma list from: " + ", ".join(FORMATS))
    p.add_argument("--suppress-timestamp", action="store_true",
                   help="omit the generation timestamp for byte-stable output")
    _add_policy_arg(p)
    p.set_defaults(func=cmd_gap)

    p = sub.add_parser("qfd", help="house-of-quality technical importance weights")
    p.add_argument("--hoq", required=True, help="house-of-quality definition JSON")
    p.add_argument("--show-conflicts", action="store_true",
                   help="list negatively correlated technical pairs instead")
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_qfd)

    p = sub.add_parser("synth", help="deterministic synthetic Likert responses")
    _add_instrument_arg(p)
    targets_group = p.add_mutually_exclusive_group(required=True)
    targets_group.add_argument("--targets", help="JSON array of per-item target means")
    targets_group.add_argument("--means", help="comma list of per-item target means")
    p.add_argument("--n", type=int, required=True, help="respondent count")
    p.add_argument("--kind", choices=["expectation", "perception"], default="expectation")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--out", help="write CSV here instead of stdout")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("report", help="re-emit saved report JSON in other formats")
    p.add_argument("--input", required=True, help="saved .report.json file")
    p.add_argument("--out", required=True, help="output stem")
    p.add_argument("--formats", type=_formats_arg, default=list(FORMATS),
                   help="comma list from: " + ", ".join(FORMATS))
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


if __name__ == "__main__":
    sys.exit(main())
