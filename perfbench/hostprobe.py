"""Host-speed probe, and adjusted times.

On a shared host the same work runs up to twice as fast in one second as in
the next, and each of the two CPUs changes pace on its own.  Every process
that does timed work therefore samples a fixed pure-Python loop from a
SIGALRM handler every PROBE_INTERVAL_S.  An interval's adjusted time is its
wall time less the probe samples inside it, scaled by PROBE_REF_S over the
median sample within PROBE_WINDOW_S of it: the time the work would take on
a host that runs the probe loop in PROBE_REF_S.  The loop allocates no
containers, so it never triggers the program's garbage collection.

Run as ``python3 perfbench/hostprobe.py SAMPLES.json -m MODULE ARGS...`` to
run a module as ``python -m`` would, sampling the probe the whole time, and
write the samples to SAMPLES.json at exit.
"""

from __future__ import annotations

import signal
import sys
from time import perf_counter

PROBE_LOOPS = 1200
PROBE_REF_S = 1e-4
PROBE_INTERVAL_S = 0.02
PROBE_WINDOW_S = 0.25


class HostProbe:
    """Collects ``(start, seconds)`` probe samples while entered."""

    def __init__(self) -> None:
        self.samples: list[tuple[float, float]] = []

    def _sample(self, signum, frame) -> None:
        start = perf_counter()
        total = 0
        for i in range(PROBE_LOOPS):
            total += i * i
        self.samples.append((start, perf_counter() - start))

    def __enter__(self) -> "HostProbe":
        signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, PROBE_INTERVAL_S, PROBE_INTERVAL_S)
        return self

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def adjust(samples: list, start: float, end: float) -> float:
    """Adjusted seconds of work that ran from ``start`` to ``end`` in the
    process that took ``samples``."""
    inside = sum(d for t, d in samples if start <= t < end)
    near = sorted(d for t, d in samples if start - PROBE_WINDOW_S <= t < end + PROBE_WINDOW_S)
    if not near:
        near = sorted(d for _, d in samples) or [PROBE_REF_S]
    mid = len(near) // 2
    speed = near[mid] if len(near) % 2 else (near[mid - 1] + near[mid]) / 2
    return (end - start - inside) * PROBE_REF_S / speed


def _run_module() -> None:
    import json
    import runpy

    out, module = sys.argv[1], sys.argv[3]
    sys.argv = [module, *sys.argv[4:]]
    probe = HostProbe()
    try:
        with probe:
            runpy.run_module(module, run_name="__main__", alter_sys=True)
    finally:
        with open(out, "w", encoding="utf-8") as fh:
            json.dump(probe.samples, fh)


if __name__ == "__main__":
    _run_module()
