"""`satmetric gap` benchmark: end-to-end timing of one workload, or a
traced run that splits each call into per-module self times.

    python3 perfbench/run.py --workload tall --seed 1 --seconds 8 --trace 0
    python3 perfbench/run.py            # every workload, untraced then traced

Run from anywhere inside a checkout that has ``src/satmetric``.  A closed
loop of one client makes back-to-back ``satmetric.cli.main(["gap", ...])``
calls in a fresh worker process per workload (see ``worker.py``); inputs
come from ``workloads.py`` and are written under ``.perfbench_work/``.
Every metric is printed as ``name = value unit``; the last line of stdout
is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics`` (end-to-end metrics untraced, per-layer metrics traced).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import select
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path[:0] = [str(HERE), str(SRC)]

import workloads  # noqa: E402
from hostprobe import HostProbe, adjust  # noqa: E402
from tracing import LAYERS, ROOT_SPAN, span_names  # noqa: E402

#: An untraced run is ROUNDS rounds.  Each sets up (writes the inputs,
#: starts a fresh worker, makes its warm-up call; ``setup_s`` is the median),
#: times warm calls until its share of ``--seconds`` is used, ends the
#: worker and then starts COLD_PER_ROUND fresh ``python -m satmetric.cli
#: gap`` processes on the case study (``cold_gap_s`` is their median).
#: Every time metric is in adjusted seconds (see ``hostprobe.py``).
#: Rounds spread every metric's samples over the whole run, so a slow spell
#: on a shared host moves them alike; cold runs sit between workers because
#: a process started between warm calls slows the calls that follow it.
ROUNDS = 3
COLD_PER_ROUND = 3
MIN_CALLS = 2
READ_TIMEOUT_S = 150

DIAGNOSTIC = re.compile(r"^(?P<path>.*): row \d+, column .*\[(?P<code>\w+)\]$")

TIMED_LAYERS = sorted({*LAYERS, ROOT_SPAN} - {"report.emit"}) + [
    f"report.emit.{fmt}" for fmt in ("json", "csv", "markdown", "svg")]


def environment(seed: int) -> dict:
    cpu = None
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), None)
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                              text=True, check=False)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted((SRC / "satmetric").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(path.relative_to(SRC).as_posix().encode() + path.read_bytes())
    import numpy

    return {"nproc": os.cpu_count(), "cpus_usable": len(os.sched_getaffinity(0)),
            "cpu_model": cpu or platform.processor() or None,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "commit": commit, "src_sha256": digest.hexdigest()[:16], "seed": seed,
            "PYTHONDONTWRITEBYTECODE": os.environ.get("PYTHONDONTWRITEBYTECODE")}


class Worker:
    """A running ``worker.py`` process and its line protocol."""

    def __init__(self, spec: dict, path: Path) -> None:
        path.write_text(json.dumps(spec), encoding="utf-8")
        self.proc = subprocess.Popen([sys.executable, str(HERE / "worker.py"), str(path)],
                                     stdin=subprocess.PIPE, stdout=subprocess.PIPE,
                                     text=True, cwd=ROOT)

    def __enter__(self) -> "Worker":
        return self

    def __exit__(self, *exc) -> None:
        if not self.proc.stdin.closed:
            self.proc.stdin.close()
        try:
            self.proc.wait(timeout=READ_TIMEOUT_S)
        finally:
            if self.proc.poll() is None:
                self.proc.kill()
                self.proc.wait()
            self.proc.stdout.close()

    def read(self) -> dict:
        ready, _, _ = select.select([self.proc.stdout], [], [], READ_TIMEOUT_S)
        line = self.proc.stdout.readline() if ready else ""
        if not line:
            raise RuntimeError(f"worker gave no answer (exit code {self.proc.poll()})")
        return json.loads(line)

    def measure(self, seconds: float) -> dict:
        self.proc.stdin.write(json.dumps({"seconds": seconds}) + "\n")
        self.proc.stdin.flush()
        return self.read()

    def finish(self) -> int:
        """End the worker; returns its last message (its peak RSS)."""
        self.proc.stdin.close()
        return self.read()


class ColdRuns:
    """Fresh ``python -m satmetric.cli gap`` processes on the case study."""

    def __init__(self, work: Path, seed: int) -> None:
        self.case = workloads.case_study(work, seed)
        self.samples = work / "probe.json"
        self.env = dict(os.environ, PYTHONPATH=str(SRC))
        self.times: list[float] = []
        self.adjusted: list[float] = []
        self.digests: list[str | None] = []

    def run(self) -> None:
        report = self.case.report
        report.unlink(missing_ok=True)
        start = perf_counter()
        with subprocess.Popen([sys.executable, str(HERE / "hostprobe.py"), str(self.samples),
                               "-m", "satmetric.cli", *self.case.argv],
                              cwd=ROOT, env=self.env, stdout=subprocess.PIPE,
                              stderr=subprocess.DEVNULL) as proc:
            # Read to end of output instead of wait(timeout=...), which polls
            # in steps of up to 50 ms and would round the time up to them.
            while select.select([proc.stdout], [], [], READ_TIMEOUT_S)[0]:
                if not os.read(proc.stdout.fileno(), 1 << 16):
                    break
            else:
                proc.kill()
            rc = proc.wait()
        end = perf_counter()
        self.times.append(end - start)
        self.adjusted.append(adjust(json.loads(self.samples.read_bytes()), start, end))
        self.digests.append(hashlib.sha256(report.read_bytes()).hexdigest()
                            if rc == 0 and report.exists() else None)

    def failures(self, same_as: bytes | None) -> tuple[int, list[str]]:
        """Failed runs and check problems; every run fails when the report
        misses the oracle or differs from ``same_as``."""
        failed = sum(d is None or d != self.digests[0] for d in self.digests)
        if self.digests[0] is None:
            return failed, ["cold CLI run failed"]
        problems = workloads.check_report(json.loads(self.case.report.read_bytes()), self.case)
        if same_as is not None and self.digests[0] != hashlib.sha256(same_as).hexdigest():
            problems.append("cold CLI report differs from the in-process report")
        return (len(self.digests) if problems else failed), problems


def _rejections(log: Path) -> dict[str, dict[str, int]]:
    counts: dict[str, dict[str, int]] = {}
    for line in log.read_text(encoding="utf-8").splitlines():
        m = DIAGNOSTIC.match(line)
        if m:
            per_file = counts.setdefault(Path(m["path"]).stem, {})
            per_file[m["code"]] = per_file.get(m["code"], 0) + 1
    return counts


def _p90(values: list[float]) -> float:
    return statistics.quantiles(values, n=10, method="inclusive")[-1]


def _layer_metrics(summaries: list[dict], times: list[float], traced_times: list[float],
                   inputs: workloads.Inputs) -> tuple[dict, str, list[str]]:
    """Per-layer metrics of a traced run: means per traced call."""
    metrics: dict[str, tuple[float, str]] = {}
    calls = len(summaries)
    problems = []
    expected = span_names(inputs.argv)
    short = [sorted(expected - set(s["spans"])) for s in summaries]
    if any(short):
        problems.append(f"{sum(map(bool, short))} of {calls} traced calls lack spans, "
                        f"e.g. {next(filter(None, short))}")
    for layer in TIMED_LAYERS:
        metrics[f"{layer}_s"] = (sum(s["self_s"].get(layer, 0.0) for s in summaries) / calls, "s")
    metrics["psychometrics.alpha_calls"] = (
        sum(s["spans"].get("psychometrics.alpha", 0) for s in summaries) / calls, "count")
    for key in ("bytes_in", "rows_accepted", "rows_rejected"):
        metrics[f"ingest.{key}"] = (sum(s[key] for s in summaries) / calls,
                                    "B" if key == "bytes_in" else "count")
    metrics["ingest.mb_per_s"] = (metrics["ingest.bytes_in"][0] / 1e6
                                  / metrics["ingest.parse_s"][0], "MB/s")
    files = [p for p in inputs.report.parent.rglob("*") if p.is_file()]
    metrics["report.bytes_out"] = (sum(p.stat().st_size for p in files), "B")
    metrics["report.files_out"] = (len(files), "count")
    traced = statistics.fmean(traced_times)
    untraced = statistics.fmean(times)
    metrics["trace.gap_s"] = (traced, "s")
    metrics["trace.untraced_gap_s"] = (untraced, "s")
    metrics["trace.overhead_s"] = (traced - untraced, "s")
    metrics["trace.calls"] = (calls, "count")
    self_sum = sum(metrics[f"{layer}_s"][0] for layer in TIMED_LAYERS)
    line = (f"# self times sum to {self_sum:.6f} s of {traced:.6f} s traced gap time "
            f"(unadjusted means over {calls} traced and {len(times)} untraced calls)")
    return metrics, line, problems


def run_workload(name: str, seed: int, seconds: float, trace: bool,
                 n: int | None = None) -> tuple[dict, list[str]]:
    """Run one workload; returns the result object and the printed lines."""
    work = ROOT / ".perfbench_work" / name
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    lines, problems = [], []
    setups, adjusted_setups, digests = [], [], []
    times, adjusted, traced_times, summaries = [], [], [], []
    failed = maxrss_kb = 0
    rounds = 1 if trace else ROUNDS
    cold = None if trace else ColdRuns(work / "case", seed)
    timed = 0.0
    for r in range(rounds):
        start = perf_counter()
        with HostProbe() as probe:
            inputs = workloads.make(name, work / "inputs", seed, n)
        spawn = perf_counter()
        spec = {"root": str(ROOT), "argv": inputs.argv, "report": str(inputs.report),
                "log": str(work / "program.log"), "trace": trace}
        with Worker(spec, work / "spec.json") as worker:
            ready = worker.read()
            end = perf_counter()
            digests.append(ready["digest"])
            setups.append(end - start)
            adjusted_setups.append(adjust(probe.samples, start, spawn)
                                   + adjust(ready["probe"], spawn, end))
            target = seconds * (r + 1) / rounds
            while timed < target or (r == rounds - 1 and len(times) < MIN_CALLS):
                batch = worker.measure(max(target - timed, 0.0))
                times += batch["times"]
                adjusted += batch["adjusted"]
                traced_times += batch["traced_times"]
                summaries += batch["summaries"]
                failed += batch["failed"]
                timed += sum(batch["times"]) + sum(batch["traced_times"])
            maxrss_kb = max(maxrss_kb, worker.finish()["maxrss_kb"])
        for _ in range(COLD_PER_ROUND if cold else 0):
            cold.run()
    attempted = rounds + len(times) + len(traced_times)
    failed += sum(d is None or d != digests[0] for d in digests)
    if failed:
        problems.append(f"{failed} gap calls failed or wrote other bytes than the first")
    report = inputs.report.read_bytes() if inputs.report.exists() else None
    if report is None:
        oracle = ["no report written"]
    else:
        oracle = workloads.check_report(json.loads(report), inputs)
        oracle += workloads.check_diagnostics(_rejections(work / "program.log"), inputs)
    if oracle:  # every call wrote these bytes, so every call missed the oracle
        failed = attempted
        problems += oracle

    metrics: dict[str, tuple[float, str]] = {}
    if trace and not summaries:
        problems.append("no traced call completed")
    elif trace:
        metrics, line, spans_problem = _layer_metrics(summaries, times, traced_times, inputs)
        lines.append(line)
        problems += spans_problem
    else:
        cold_failed, cold_problems = cold.failures(report if name == "xyz_batch" else None)
        attempted += len(cold.times)
        failed += cold_failed
        problems += cold_problems
        metrics["gap_s"] = (statistics.median(adjusted), "s")
        metrics["gap_p90_s"] = (_p90(adjusted), "s")
        metrics["cold_gap_s"] = (statistics.median(cold.adjusted), "s")
        metrics["peak_rss_mb"] = (maxrss_kb / 1024, "MiB")
        metrics["setup_s"] = (statistics.median(adjusted_setups), "s")
        lines.append(f"# {len(times)} timed gap calls, {len(cold.times)} cold CLI runs, "
                     f"{rounds} set-ups; failed_ratio = {failed}/{attempted}")
        lines.append(f"# unadjusted wall times: gap median {statistics.median(times):.6f} s, "
                     f"p90 {_p90(times):.6f} s; cold median "
                     f"{statistics.median(cold.times):.6f} s; set-up median "
                     f"{statistics.median(setups):.6f} s")
    if problems:
        failed = max(failed, 1)
    lines += [f"{key} = {value!r} {unit}" for key, (value, unit) in metrics.items()]
    lines.append(f"check: {'PASS' if not problems else 'FAIL'}")
    lines += [f"check problem: {p}" for p in problems]
    doc = {"correct": not problems, "attempted": attempted, "failed": failed,
           "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    return doc, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS,
                        help="one workload (default: all, untraced then traced)")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=8.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "satmetric" / "cli.py").is_file():
        print(f"error: no satmetric sources under {SRC}", file=sys.stderr)
        return 2
    print("env: " + json.dumps(environment(args.seed)))
    runs = [(args.workload, bool(args.trace))] if args.workload else \
        [(w, t) for w in workloads.WORKLOADS for t in (False, True)]
    ok = True
    for name, trace in runs:
        doc, lines = run_workload(name, args.seed, args.seconds, trace)
        print(f"== {name} (trace {int(trace)}, seed {args.seed})")
        print("\n".join(lines))
        ok = ok and doc["correct"]
    print(json.dumps(doc))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
