"""Peak memory of one ``satmetric gap`` call, and the page faults, wall time
and CPU time of warm calls after it.

    python3 tools/faults.py --workload tall [--base <rev>] [--runs 3] [--calls 15] [--seed 1]

A child process writes the workload's inputs (``perfbench/workloads.py``)
to a temporary directory and exits.  Then, for each side, fresh processes
each import satmetric and make one untimed ``gap`` call through
``satmetric.cli.main``, after which each reads the ``VmHWM`` line of its
own ``/proc/self/status``: the most resident memory the process held, from
interpreter start to the end of that call.  No process that measures has
held the inputs, so none starts from another's memory.  Each then makes
``--calls`` more calls and reports the medians over those warm calls of
the wall time, the minor page faults and the CPU seconds (user plus
system, every thread of the process), read with ``resource.getrusage``
around each call.  The sides are the ``src/`` of git revision ``--base``,
if given, and the working tree's (uncommitted changes included); their
runs alternate.  Linux only: ``VmHWM`` is read from ``/proc``.  Nothing is
written inside the repository.
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

#: One gap call, then warm ones: argv is the src directory, the gap argv as
#: JSON and the number of warm calls; prints, as JSON, the VmHWM in KiB after
#: the first call and the medians over the warm calls.  The calls' own output
#: goes to /dev/null.
CALLS = """
import contextlib, json, os, resource, statistics, sys, time
sys.path.insert(0, sys.argv[1])
from satmetric.cli import main
argv = json.loads(sys.argv[2])

def call():
    before = resource.getrusage(resource.RUSAGE_SELF)
    start = time.perf_counter()
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null), \\
            contextlib.redirect_stderr(null):
        if main(list(argv)) != 0:
            raise SystemExit("gap call failed")
    wall = time.perf_counter() - start
    after = resource.getrusage(resource.RUSAGE_SELF)
    return (wall, after.ru_minflt - before.ru_minflt,
            after.ru_utime + after.ru_stime - before.ru_utime - before.ru_stime)

call()
status = open("/proc/self/status").read().split("\\n")
hwm = int(next(line.split()[1] for line in status if line.startswith("VmHWM:")))
calls = [call() for _ in range(int(sys.argv[3]))]
print(json.dumps([hwm, *(statistics.median(c[i] for c in calls) for i in range(3))]))
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


def fresh_process(src: Path, argv: list[str], calls: int) -> list[float]:
    """One process's VmHWM in MiB after its first call, then its warm-call medians."""
    out = subprocess.run([sys.executable, "-c", CALLS, str(src), json.dumps(argv), str(calls)],
                         capture_output=True, text=True, check=True).stdout
    hwm, *medians = json.loads(out)
    return [hwm / 1024, *medians]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="tall")
    parser.add_argument("--base", help="git revision to measure beside the working tree")
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per side")
    parser.add_argument("--calls", type=int, default=15, help="timed warm calls per process")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    if args.runs < 1 or args.calls < 1:
        parser.error("--runs and --calls must be at least 1")
    with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
        srcs = sides(tmp, args.base)
        gap = gap_argv(tmp, args.workload, args.seed)
        runs: dict[str, list[list[float]]] = {side: [] for side in srcs}
        for run in range(args.runs):
            for side in (list(srcs) if run % 2 == 0 else list(srcs)[::-1]):
                runs[side].append(fresh_process(srcs[side], gap, args.calls))
    print(f"{args.workload}, seed {args.seed}: {args.runs} fresh processes per side, each "
          f"the VmHWM after one gap call, then medians over {args.calls} warm gap calls")
    for side, measured in runs.items():
        peaks = [hwm for hwm, *_ in measured]
        print(f"{side:>20s}: VmHWM median {statistics.median(peaks):7.1f} MiB, runs "
              + " ".join(f"{v:.1f}" for v in peaks))
        for run, (_, wall, faults, cpu) in enumerate(measured, 1):
            print(f"{side:>20s} run {run}: wall {wall:.4f} s, {faults:6.0f} minor faults, "
                  f"CPU {cpu:.4f} s")
    if len(runs) == 2:
        base, change = (statistics.median(hwm for hwm, *_ in v) for v in runs.values())
        print(f"{'change':>20s}: VmHWM {change - base:+.1f} MiB")
    return 0


if __name__ == "__main__":
    sys.exit(main())
