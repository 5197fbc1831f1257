"""Peak memory of one ``satmetric gap`` call: the ``VmHWM`` of a fresh process.

    python3 tools/peak.py --workload tall_dirty [--base <rev>] [--runs 3] [--seed 1]

A child process writes the workload's inputs (``perfbench/workloads.py``)
to a temporary directory and exits.  Then, for each side, fresh processes
each import satmetric, make one ``gap`` call on those inputs and print the
``VmHWM`` line of their own ``/proc/self/status``: the most resident memory
the process held, from interpreter start to the end of the call.  The sides
are the ``src/`` of git revision ``--base``, if given, and the working
tree's (uncommitted changes included); their runs alternate.  No process
that measures has held the inputs, so none starts from another's memory.
Linux only: ``VmHWM`` is read from ``/proc``.  Nothing is written inside
the repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Writes the inputs: argv is the src and perfbench directories, the
#: workload, the seed and the work directory; prints the gap argv as JSON.
MAKE = """
import json, sys
from pathlib import Path
sys.path[:0] = sys.argv[1:3]
import workloads
print(json.dumps(workloads.make(sys.argv[3], Path(sys.argv[5]), int(sys.argv[4])).argv))
"""

#: One gap call: argv is the src directory and the gap argv as JSON; prints
#: VmHWM in KiB.  The call's own output goes to /dev/null.
CALL = """
import contextlib, json, os, sys
sys.path.insert(0, sys.argv[1])
from satmetric.cli import main
with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \\
        contextlib.redirect_stderr(null):
    main(json.loads(sys.argv[2]))
status = open("/proc/self/status").read().split("\\n")
print(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
"""


def sides(tmp: str, base: str | None) -> dict[str, Path]:
    """The ``src/`` directories to measure, by side name: git revision
    ``base``'s, extracted under ``tmp``, if given, then the working tree's."""
    found = {"working tree": ROOT / "src"}
    if base:
        archive = subprocess.run(["git", "archive", base, "src"], cwd=ROOT,
                                 capture_output=True, check=True).stdout
        subprocess.run(["tar", "-x", "-C", tmp], input=archive, check=True)
        found = {f"base {base}": Path(tmp) / "src", **found}
    return found


def gap_argv(tmp: str, workload: str, seed: int) -> list[str]:
    """Writes the workload's inputs under ``tmp`` from another process;
    returns the gap argv."""
    return json.loads(subprocess.run(
        [sys.executable, "-c", MAKE, str(ROOT / "src"), str(ROOT / "perfbench"),
         workload, str(seed), str(Path(tmp) / "work")],
        capture_output=True, text=True, check=True).stdout)


def peak_mib(src: Path, argv: list[str]) -> float:
    kib = subprocess.run([sys.executable, "-c", CALL, str(src), json.dumps(argv)],
                         capture_output=True, text=True, check=True).stdout
    return int(kib) / 1024


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="tall")
    parser.add_argument("--base", help="git revision to measure beside the working tree")
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per side")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="peak-") as tmp:
        srcs = sides(tmp, args.base)
        gap = gap_argv(tmp, args.workload, args.seed)
        peaks: dict[str, list[float]] = {side: [] for side in srcs}
        for run in range(args.runs):
            for side in (list(srcs) if run % 2 == 0 else list(srcs)[::-1]):
                peaks[side].append(peak_mib(srcs[side], gap))
    print(f"{args.workload}, seed {args.seed}: VmHWM of a fresh process making one gap call, "
          f"MiB, {args.runs} runs per side")
    for side, values in peaks.items():
        print(f"{side:>20s}: median {statistics.median(values):7.1f}  runs "
              + " ".join(f"{v:.1f}" for v in values))
    if len(peaks) == 2:
        base, change = (statistics.median(v) for v in peaks.values())
        print(f"{'change':>20s}: {change - base:+.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
