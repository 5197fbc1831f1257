"""Paired benchmark: the parent revision's ``src/`` against the working tree's.

    python3 tools/bench_pair.py --base <rev> --workload tall_dirty --pairs 10 --seed 1

Builds two temporary trees, each holding this tree's ``perfbench/`` and
``BENCHMARK.json``: one with ``src/`` from git revision ``--base``, the other
with the working tree's ``src/`` (uncommitted changes included).  Pair i runs
``perfbench/run.py --trace 0`` on both trees with seed ``--seed + i``,
alternating which tree runs first.  Every ``__pycache__`` is removed before
each run, so both trees start every run without bytecode, as a fresh checkout
does.  For each end-to-end metric of ``BENCHMARK.json`` it prints the base's
median and quartiles, the change's median and quartiles, in how many pairs
the change read lower, and the median of the per-pair differences (change
minus base); the last row does the same for the median gap call's
unadjusted wall time (``unadjusted_gap_s``), from perfbench's ``# unadjusted
wall times`` line.  A row whose median difference is smaller than the base's
interquartile range is marked ``unresolved``: the runs spread more than
the change moved them.  Nothing is written inside the repository; the
trees go to a temporary directory that is removed at the end.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
#: The start of perfbench's line of wall times, which no host-speed adjustment
#: has scaled: "# unadjusted wall times: gap median <s> s, ...".
UNADJUSTED = "# unadjusted wall times: gap median "
SKIP = shutil.ignore_patterns("__pycache__", ".perfbench_work")


def build_tree(tree: Path, base: str | None) -> None:
    """This checkout's perfbench/ and BENCHMARK.json, with src/ from git
    revision ``base``, or from the working tree when it is None."""
    shutil.copytree(ROOT / "perfbench", tree / "perfbench", ignore=SKIP)
    shutil.copy2(ROOT / "BENCHMARK.json", tree / "BENCHMARK.json")
    if base is None:
        shutil.copytree(ROOT / "src", tree / "src", ignore=SKIP)
        return
    archive = subprocess.run(["git", "archive", base, "src"], cwd=ROOT, capture_output=True,
                             check=True).stdout
    subprocess.run(["tar", "-x", "-C", str(tree)], input=archive, check=True)


def run(tree: Path, workload: str, seed: int) -> dict:
    """One untraced perfbench run on ``tree``: its final JSON line."""
    for cache in list(tree.rglob("__pycache__")):
        shutil.rmtree(cache)
    proc = subprocess.run([sys.executable, str(tree / "perfbench" / "run.py"), "--workload",
                           workload, "--seed", str(seed), "--trace", "0"],
                          cwd=tree, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise SystemExit(f"perfbench printed nothing in {tree.name}:\n{proc.stderr}")
    doc = json.loads(lines[-1])
    if not doc["correct"] or doc["failed"]:  # a figure of a failing run means nothing
        raise SystemExit(f"perfbench failed in {tree.name} at seed {seed}:\n{proc.stdout}")
    wall = next(line for line in lines if line.startswith(UNADJUSTED))
    wall_s = float(wall.removeprefix(UNADJUSTED).split()[0])
    doc["metrics"]["unadjusted_gap_s"] = {"value": wall_s, "unit": "s"}
    return doc


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--base", required=True, help="git revision of the parent")
    parser.add_argument("--workload", default="tall")
    parser.add_argument("--pairs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    args = parser.parse_args(argv)
    metrics = [(m["name"], m["unit"]) for m in
               json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]]
    metrics.append(("unadjusted_gap_s", "s"))
    with tempfile.TemporaryDirectory(prefix="bench-pair-") as tmp:
        trees = {"base": Path(tmp) / "base", "change": Path(tmp) / "change"}
        build_tree(trees["base"], args.base)
        build_tree(trees["change"], None)
        results: dict[str, list[dict]] = {"base": [], "change": []}
        for i in range(args.pairs):
            seed = args.seed + i
            order = ["base", "change"] if i % 2 == 0 else ["change", "base"]
            for side in order:
                results[side].append(run(trees[side], args.workload, seed)["metrics"])
            print(f"pair {i + 1} (seed {seed}, {order[0]} first): " + "; ".join(
                f"{name} {results['base'][-1][name]['value']:.4f} -> "
                f"{results['change'][-1][name]['value']:.4f}" for name, _ in metrics),
                flush=True)
    print(f"\n{args.workload}, {args.pairs} pairs, base {args.base} vs working tree, "
          f"seeds {args.seed}..{args.seed + args.pairs - 1}")
    print(f"{'metric':12s} {'unit':4s} {'base median [q1, q3]':>30s} "
          f"{'change median [q1, q3]':>30s}  change lower  median pair diff")
    for name, unit in metrics:
        base = [r[name]["value"] for r in results["base"]]
        change = [r[name]["value"] for r in results["change"]]
        bq1, bmed, bq3 = quartiles(base)
        cq1, cmed, cq3 = quartiles(change)
        lower = sum(c < b for b, c in zip(base, change))
        diff = statistics.median(c - b for b, c in zip(base, change))
        print(f"{name:12s} {unit:4s} {bmed:12.4f} [{bq1:.4f}, {bq3:.4f}] "
              f"{cmed:12.4f} [{cq1:.4f}, {cq3:.4f}]  {lower:>5d}/{args.pairs:<6d} "
              f"{diff:+.4f}  (medians differ by {cmed - bmed:+.4f}; base IQR {bq3 - bq1:.4f})"
              + ("  unresolved" if abs(diff) < bq3 - bq1 else ""))
    return 0


if __name__ == "__main__":
    sys.exit(main())
