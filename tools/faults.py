"""Page faults, wall time and CPU time of warm ``satmetric gap`` calls.

    python3 tools/faults.py --workload tall [--base <rev>] [--runs 3] [--calls 15] [--seed 1]

A child process writes the workload's inputs (``perfbench/workloads.py``)
to a temporary directory and exits, as in ``tools/peak.py``.  Then, for
each side, fresh processes each import satmetric, make one untimed ``gap``
call through ``satmetric.cli.main`` and then ``--calls`` more, and print
the medians over those warm calls of the wall time, the minor page faults
and the CPU seconds (user plus system, every thread of the process), read
with ``resource.getrusage`` around each call.  The sides are the ``src/``
of git revision ``--base``, if given, and the working tree's (uncommitted
changes included); their runs alternate.  Nothing is written inside the
repository.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

from peak import gap_argv, sides

#: Warm gap calls: argv is the src directory, the gap argv as JSON and the
#: number of timed calls; prints the medians as JSON.  The calls' own
#: output goes to /dev/null.
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
calls = [call() for _ in range(int(sys.argv[3]))]
print(json.dumps([statistics.median(c[i] for c in calls) for i in range(3)]))
"""


def warm_calls(src: Path, argv: list[str], calls: int) -> list[float]:
    out = subprocess.run([sys.executable, "-c", CALLS, str(src), json.dumps(argv), str(calls)],
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="tall")
    parser.add_argument("--base", help="git revision to measure beside the working tree")
    parser.add_argument("--runs", type=int, default=3, help="fresh processes per side")
    parser.add_argument("--calls", type=int, default=15, help="timed warm calls per process")
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    with tempfile.TemporaryDirectory(prefix="faults-") as tmp:
        srcs = sides(tmp, args.base)
        gap = gap_argv(tmp, args.workload, args.seed)
        runs: dict[str, list[list[float]]] = {side: [] for side in srcs}
        for run in range(args.runs):
            for side in (list(srcs) if run % 2 == 0 else list(srcs)[::-1]):
                runs[side].append(warm_calls(srcs[side], gap, args.calls))
    print(f"{args.workload}, seed {args.seed}: medians over {args.calls} warm gap calls "
          f"in each of {args.runs} fresh processes per side")
    for side, medians in runs.items():
        for run, (wall, faults, cpu) in enumerate(medians, 1):
            print(f"{side:>20s} run {run}: wall {wall:.4f} s, {faults:6.0f} minor faults, "
                  f"CPU {cpu:.4f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
