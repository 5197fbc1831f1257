"""Print a SHA-256 for every output of the CLI's survey subcommands on the benchmark workloads.

For each workload of ``perfbench/workloads.py`` at the given seed, the script
runs ``satmetric gap`` with the default flags, again with
``--unweighted-contributions --kano-multipliers must_be=3,delighter=0.5`` and
again with ``--strict-gate``, then re-emits each saved report with
``satmetric report``.  On the same inputs it runs ``validate``,
``descriptives``, and ``reliability`` with and without ``--strict-gate``.  It
prints one line per output file and per call's stdout, stderr and exit code.  Every
path is relative to a temporary directory, so two checkouts give the same
lines exactly when their outputs are byte-identical:

    make digest SEED=5 > before.txt     # in one checkout
    make digest SEED=5 > after.txt      # in the other
    diff before.txt after.txt

Run from the repository root with ``src`` on ``PYTHONPATH`` (``make digest``
does both).
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import os
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "perfbench"))
import workloads  # noqa: E402

from satmetric import cli  # noqa: E402

VARIANTS = {
    "default": [],
    "flags": ["--unweighted-contributions", "--kano-multipliers", "must_be=3,delighter=0.5"],
    "strict": ["--strict-gate"],
}
#: Survey subcommand -> the gap options it takes, and whether it writes ``--out``.
SURVEY_COMMANDS = {
    "validate": (("--instrument", "--expect", "--perceive", "--importance",
                  "--missing-policy"), False),
    "descriptives": (("--instrument", "--expect", "--perceive", "--missing-policy"), True),
    "reliability": (("--instrument", "--expect", "--perceive", "--missing-policy"), True),
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


def digest(name: str, seed: int) -> list[str]:
    """The digest lines of one workload, run in the current directory."""
    gap = workloads.make(name, Path(name) / "inputs", seed).argv  # --suppress-timestamp in it
    at = gap.index("--out")
    del gap[at:at + 2]
    lines = []
    for variant, flags in VARIANTS.items():
        run = Path(name) / variant
        lines += _call(f"{run}/gap", [*gap, *flags, "--out", str(run / "gap" / "report")])
        saved = run / "gap" / "report.report.json"
        if saved.exists():
            lines += _call(f"{run}/report", ["report", "--input", str(saved),
                                             "--out", str(run / "report" / "report")])
        lines += _files(run / "gap") + _files(run / "report")
    for command, (takes, writes) in SURVEY_COMMANDS.items():
        argv = [command]
        for at, option in enumerate(gap):
            if option in takes:
                argv += gap[at:at + 2]
        for variant, flags in (("default", []), ("strict", ["--strict-gate"])):
            if flags and command != "reliability":
                continue
            run = Path(name) / command / variant
            out = ["--out", str(run / "out.csv")] if writes else []
            run.mkdir(parents=True)
            lines += _call(str(run), [*argv, *flags, *out]) + _files(run)
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
