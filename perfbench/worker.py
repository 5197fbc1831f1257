"""One workload's process: imports satmetric from the checkout, makes an
untimed warm-up ``gap`` call, then times batches of ``gap`` calls through
``satmetric.cli.main`` on request.

Usage: ``python3 perfbench/worker.py SPEC.json``.  The spec names the
checkout root, the ``gap`` arguments, the report and log paths and whether
to trace.  The worker prints one JSON line when the warm-up call is done,
with the host-probe samples taken since it started (see ``hostprobe.py``).
Each line it then reads, ``{"seconds": s}``, asks for calls until ``s``
seconds have passed (at least one); it answers with one JSON line of call
times, wall and adjusted (untraced) or untraced and traced alternately
with their trace summaries (traced).  At end of input it prints its peak
RSS and exits.  The program's own stdout and stderr go to the log file,
which holds the output of the latest call only.
"""

from __future__ import annotations

import contextlib
import hashlib
import json
import resource
import sys
import traceback
from pathlib import Path
from time import perf_counter

from hostprobe import HostProbe, adjust


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class Runner:
    def __init__(self, spec: dict) -> None:
        src = Path(spec["root"]) / "src"
        sys.path.insert(0, str(src))
        import satmetric.cli

        if not Path(satmetric.cli.__file__).resolve().is_relative_to(src.resolve()):
            raise SystemExit(f"satmetric imported from {satmetric.cli.__file__}, not {src}")
        self.cli = satmetric.cli
        self.argv = spec["argv"]
        self.report = Path(spec["report"])
        self.log = open(spec["log"], "w", encoding="utf-8")
        self.out = sys.stdout
        self.failures = 0

    def call(self, tracer=None) -> tuple[float, float, str | None, dict | None]:
        """One ``gap`` call; returns its start and end, the digest of the
        report JSON and log (None when the call failed) and the trace summary."""
        self.report.unlink(missing_ok=True)
        self.log.seek(0)
        self.log.truncate()
        summary = None
        sys.stdout = sys.stderr = self.log
        start = perf_counter()
        try:
            if tracer is None:
                rc = self.cli.main(list(self.argv))
            else:
                rc, summary = tracer.call(self.cli.main, list(self.argv))
        except Exception:
            rc = traceback.format_exc()
        finally:
            end = perf_counter()
            sys.stdout, sys.stderr = self.out, sys.__stderr__
            self.log.flush()
        if rc != 0 or not self.report.exists():
            if not self.failures:
                print(f"gap call failed: {rc}", file=sys.stderr)
            self.failures += 1
            return start, end, None, summary
        return start, end, _digest(self.report) + _digest(Path(self.log.name)), summary

    def emit(self, doc: dict) -> None:
        self.out.write(json.dumps(doc) + "\n")
        self.out.flush()


def main() -> int:
    spec = json.loads(Path(sys.argv[1]).read_text(encoding="utf-8"))
    with HostProbe() as probe:
        runner = Runner(spec)
        _, _, warm_digest, _ = runner.call()
    runner.emit({"digest": warm_digest, "probe": probe.samples})
    tracer = None
    if spec["trace"]:
        from tracing import Tracer

        tracer = Tracer()
    for line in sys.stdin:
        spans, traced_times, summaries, failed = [], [], [], 0
        probe = HostProbe() if tracer is None else None
        deadline = perf_counter() + json.loads(line)["seconds"]
        with probe or contextlib.nullcontext():
            while not spans or perf_counter() < deadline:
                start, end, digest, _ = runner.call()
                spans.append((start, end))
                failed += digest != warm_digest
                if tracer is not None:
                    start, end, digest, summary = runner.call(tracer)
                    traced_times.append(end - start)
                    failed += digest != warm_digest
                    if summary is not None:
                        summaries.append(summary)
        runner.emit({"times": [end - start for start, end in spans],
                     "adjusted": [adjust(probe.samples, *span) for span in spans] if probe else [],
                     "traced_times": traced_times, "summaries": summaries, "failed": failed})
    runner.emit({"maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss})
    return 0


if __name__ == "__main__":
    sys.exit(main())
