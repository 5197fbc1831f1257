"""Print a SHA-256 for every output of the CLI's survey subcommands on the benchmark workloads.

For each workload of ``perfbench/workloads.py`` at the given seed, the script
runs ``satmetric gap`` with the default flags, again with
``--unweighted-contributions --kano-multipliers must_be=3,delighter=0.5``,
again with ``--strict-gate`` and again with ``--normalize-weights
--variance-mode sample --pareto-threshold 50``, then re-emits each saved
report with ``satmetric report``, in every format and in
``markdown,svg-charts`` alone.  On ``xyz_batch`` it also runs ``gap`` with the
weights file rewritten as the bare means object.  On the same inputs it runs ``validate``,
``descriptives`` with and without ``--variance-mode sample``,
``reliability`` with and without ``--strict-gate``, and ``qfd`` with and
without ``--show-conflicts`` on the workload's ``--hoq`` file, if it has
one.  Where the gap call sets ``--missing-policy`` (``tall_dirty``), ``gap``
and ``validate`` also run with ``--missing-policy fail``, whose first-row
error and exit code are digested.  It also parses each of the workload's
response CSVs with ``parse_response_file`` and prints the SHA-256 of the
parsed set written back by ``serialize_response_set`` and of the repr of its
ValidationReport, so that a change in the accepted ids or values or in a row
diagnostic shows even where no report reads them.  It does the same for the
shapes built from each CSV: ``é`` appended to every other id, which the line
route reads from arrays; a loose quote (``3"``) in one cell, which makes the
line route leave the file to ``parse_response_rows``; ``"3"`` in one cell,
and in a Likert CSV a ``07`` in one cell, each one dirty line of a clean
block, which the one-byte case hands to the general case alone; an
unquoted ``,x`` after one id, which the one-byte case finds only by its
block's comma count, and then leaves the whole block to the general case;
in an importance CSV, ``00`` prepended to one cell, whose value and
allocation stay valid and whose 3 to 5 digits the strict case reads place
by place over only the cells that wide, after the places that most cells
reach; and the header line alone, which the line route reads as one empty
block and which has no row to accept.  It prints one line per output file,
per parsed CSV and per call's stdout, stderr and exit code.  Every path is
relative to a temporary directory, so two source trees give the same lines
exactly when their outputs are byte-identical:

    PYTHONPATH=/elsewhere/src python3 tools/digest.py --seed 5 > before.txt
    PYTHONPATH=src python3 tools/digest.py --seed 5 > after.txt
    diff before.txt after.txt

``make digest-diff BASE=<rev> SEEDS="1 7"`` does this at each seed in turn
with the ``src`` of a git revision on the first line.  Run from the repository root (``make digest``
runs it on this checkout's ``src``).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from satmetric import cli  # noqa: E402
from satmetric.errors import DataError  # noqa: E402
from satmetric.ingest import (  # noqa: E402
    MissingPolicy, ResponseKind, parse_response_file, serialize_response_set)
from satmetric.instrument import load_instrument  # noqa: E402

VARIANTS = {
    "default": [],
    "flags": ["--unweighted-contributions", "--kano-multipliers", "must_be=3,delighter=0.5"],
    "strict": ["--strict-gate"],
    "options": ["--normalize-weights", "--variance-mode", "sample", "--pareto-threshold", "50"],
}
#: Response-CSV option of the gap call -> the kind of file it names.
RESPONSE_FILES = {"--expect": ResponseKind.EXPECTATION, "--perceive": ResponseKind.PERCEPTION,
                  "--importance": ResponseKind.IMPORTANCE}
#: Output directory of each ``satmetric report`` re-emit -> its ``--formats`` flags.
REEMITS = {"report": [], "report_md_svg": ["--formats", "markdown,svg-charts"]}
#: The extra run of ``gap`` and ``validate`` where the gap call sets ``--missing-policy``.
FAIL = {"fail": ["--missing-policy", "fail"]}
#: Survey subcommand -> the gap options it takes, whether it writes ``--out``, and
#: the flags of each run besides the default one.
SURVEY_COMMANDS = {
    "validate": (("--instrument", "--expect", "--perceive", "--importance",
                  "--missing-policy"), False, {}),
    "descriptives": (("--instrument", "--expect", "--perceive", "--missing-policy"), True,
                     {"sample": ["--variance-mode", "sample"]}),
    "reliability": (("--instrument", "--expect", "--perceive", "--missing-policy"), True,
                    {"strict": ["--strict-gate"]}),
}


def _sha(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def _call(name: str, argv: list[str]) -> list[str]:
    """Run the CLI in-process; the digest lines of its streams and exit code."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(argv)
    return [f"{name}/stdout {_sha(out.getvalue().encode('utf-8'))}",
            f"{name}/stderr {_sha(err.getvalue().encode('utf-8'))}",
            f"{name}/exit {code}"]


def _files(root: Path) -> list[str]:
    return [f"{path.as_posix()} {_sha(path.read_bytes())}"
            for path in sorted(root.rglob("*")) if path.is_file()]


def _shapes(data: bytes, kind: ResponseKind) -> dict[str, bytes]:
    """The shapes of a response CSV: ``é`` appended to the id of every other
    data line; the id of its middle line followed by an unquoted ``,x``; the
    first cell of its middle line replaced by ``3"``, by ``"3"`` and, for a
    Likert kind, by ``07``, else by itself after ``00``; and its header line
    alone."""
    lines = data.split(b"\n")
    accented = lines[:]
    accented[1::2] = [line.replace(b",", "é,".encode(), 1) for line in lines[1::2]]
    middle = lines[len(lines) // 2].split(b",")

    def with_first_cell(cell: bytes, at: int = 1) -> bytes:
        shaped = lines[:]
        shaped[len(lines) // 2] = b",".join([*middle[:at], cell, *middle[at + 1:]])
        return b"\n".join(shaped)

    shapes = {"accented": b"\n".join(accented), "loose_quote": with_first_cell(b'3"'),
              "quoted_cell": with_first_cell(b'"3"'),
              "comma_id": with_first_cell(middle[0] + b",x", 0),
              "header_only": lines[0] + b"\n"}
    if kind.is_likert:
        shapes["leading_zero"] = with_first_cell(b"07")
    else:
        shapes["zero_padded"] = with_first_cell(b"00" + b"".join(middle[1:2]))
    return shapes


def _parsed(gap: list[str]) -> list[str]:
    """The digest lines of each response CSV of a gap call and of each of
    its _shapes: the parsed set, ids included, as serialize_response_set
    writes it, and the repr of its ValidationReport, or the error."""
    instrument = load_instrument(gap[gap.index("--instrument") + 1])
    policy = MissingPolicy(gap[gap.index("--missing-policy") + 1]) \
        if "--missing-policy" in gap else MissingPolicy.DROP_ROW
    lines = []
    for option, kind in RESPONSE_FILES.items():
        if option in gap:
            path = Path(gap[gap.index(option) + 1])
            data = path.read_bytes()
            for shape, shaped in {"parsed": data, **_shapes(data, kind)}.items():
                try:
                    responses, report = parse_response_file(shaped, instrument, kind, policy)
                    out = serialize_response_set(responses, instrument) + repr(report).encode()
                except DataError as exc:
                    out = str(exc).encode()
                lines.append(f"{path.as_posix()} {shape} {_sha(out)}")
    return lines


def digest(name: str, seed: int) -> list[str]:
    """The digest lines of one workload, run in the current directory."""
    gap = workloads.make(name, Path(name) / "inputs", seed).argv  # --suppress-timestamp in it
    at = gap.index("--out")
    del gap[at:at + 2]
    lines = _parsed(gap)
    fail = FAIL if "--missing-policy" in gap else {}
    for variant, flags in {**VARIANTS, **fail}.items():
        run = Path(name) / variant
        lines += _call(f"{run}/gap", [*gap, *flags, "--out", str(run / "gap" / "report")])
        saved = run / "gap" / "report.report.json"
        if saved.exists():
            for out, formats in REEMITS.items():
                lines += _call(f"{run}/{out}", ["report", "--input", str(saved), *formats,
                                                "--out", str(run / out / "report")])
        lines += _files(run / "gap")
        for out in REEMITS:
            lines += _files(run / out)
    if name == "xyz_batch":  # the weights file again, as the bare means object
        weights = Path(gap[gap.index("--weights") + 1])
        bare = weights.with_name("bare_weights.json")
        bare.write_text(json.dumps(json.loads(weights.read_text())["means"]))
        run = Path(name) / "bare_weights"
        argv = [str(bare) if option == str(weights) else option for option in gap]
        lines += _call(f"{run}/gap", [*argv, "--out", str(run / "report")]) + _files(run)
    for command, (takes, writes, variants) in SURVEY_COMMANDS.items():
        argv = [command]
        for at, option in enumerate(gap):
            if option in takes:
                argv += gap[at:at + 2]
        if command == "validate":
            variants = {**variants, **fail}
        for variant, flags in {"default": [], **variants}.items():
            run = Path(name) / command / variant
            out = ["--out", str(run / "out.csv")] if writes else []
            run.mkdir(parents=True)
            lines += _call(str(run), [*argv, *flags, *out]) + _files(run)
    if "--hoq" in gap:
        hoq = gap[gap.index("--hoq") + 1]
        for variant, flags in (("default", []), ("conflicts", ["--show-conflicts"])):
            run = Path(name) / "qfd" / variant
            run.mkdir(parents=True)
            lines += _call(str(run), ["qfd", "--hoq", hoq, *flags,
                                      "--out", str(run / "out.csv")]) + _files(run)
    return lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    home = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="satmetric-digest-") as work:
        os.chdir(work)
        try:
            for name in workloads.WORKLOADS:
                print("\n".join(digest(name, args.seed)), flush=True)
        finally:
            os.chdir(home)
    return 0


if __name__ == "__main__":
    sys.exit(main())
