"""Span tracing of satmetric from outside the program.

Each layer is a set of public functions.  ``Tracer`` wraps every such
function wherever a ``satmetric.*`` module holds a reference to it, so the
trace follows a function when its caller moves to another module.  A span
records name, start, end and parent; a layer's self time is the length of
its spans minus the part covered by their children, so nesting such as
``reliability_report`` -> ``omitted_item_stats`` -> ``cronbach_alpha`` is
counted once.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
from time import perf_counter

#: Layer -> (module, public function) pairs whose calls are its spans.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "instrument.load": (("satmetric.instrument", "load_instrument"),),
    "ingest.parse": (("satmetric.ingest", "parse_response_file"),),
    "psychometrics.descriptives": (("satmetric.psychometrics", "item_descriptives"),),
    "psychometrics.reliability": (("satmetric.psychometrics", "reliability_report"),),
    "psychometrics.omitted": (("satmetric.psychometrics", "omitted_item_stats"),),
    "psychometrics.alpha": (("satmetric.psychometrics", "cronbach_alpha"),),
    "servqual.weights": (("satmetric.servqual", "importance_weights"),
                         ("satmetric.servqual", "weights_from_means"),
                         ("satmetric.servqual", "normalize_weights")),
    "servqual.gap_report": (("satmetric.servqual", "compute_gap_report"),),
    "kano.prioritize": (("satmetric.kano", "prioritize"),),
    "rootcause.pareto": (("satmetric.rootcause", "dissatisfaction_contributions"),
                         ("satmetric.rootcause", "pareto"),
                         ("satmetric.rootcause", "branch_magnitudes")),
    "qfd.load": (("satmetric.qfd", "load_hoq"),),
    "rootcause.fishbone_load": (("satmetric.rootcause", "load_fishbone"),),
    "report.assemble": (("satmetric.report", "assemble"),),
    "report.emit": (("satmetric.report", "emit"),),
    "report.write": (("satmetric.report", "write_report"),),
    "cli.parser": (("satmetric.cli", "build_parser"),),
}
#: Span name of the whole ``gap`` call; its self time is what the call
#: spends outside every other layer.
ROOT_SPAN = "cli.self"
EMIT_FORMATS = {"json": "json", "csv": "csv", "markdown": "markdown", "svg-charts": "svg"}


def span_names(argv: list[str]) -> set[str]:
    """Spans a ``gap`` call with these arguments must produce."""
    names = {ROOT_SPAN, *LAYERS} - {"report.emit"}
    names |= {f"report.emit.{fmt}" for fmt in EMIT_FORMATS.values()}
    if "--hoq" not in argv:
        names.discard("qfd.load")
    if "--fishbone" not in argv:
        names.discard("rootcause.fishbone_load")
    return names


class Tracer:
    """Records spans while installed; ``call`` traces one root call."""

    def __init__(self, package: str = "satmetric") -> None:
        root = importlib.import_module(package)
        for info in pkgutil.walk_packages(root.__path__, package + "."):
            importlib.import_module(info.name)
        self.spans: list[list] = []  # [name, start, end, parent index, info]
        self._stack: list[int] = []
        wrappers = {}
        for layer, targets in LAYERS.items():
            for module, name in targets:
                fn = getattr(sys.modules[module], name)
                wrappers[id(fn)] = (fn, self._wrap(layer, fn))
        self._patches = []
        for modname, module in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for attr, value in vars(module).items():
                hit = wrappers.get(id(value))
                if hit is not None and hit[0] is value:
                    self._patches.append((module, attr, value, hit[1]))

    def _open(self, name: str) -> list:
        span = [name, perf_counter(), None, self._stack[-1] if self._stack else None, None]
        self._stack.append(len(self.spans))
        self.spans.append(span)
        return span

    def _close(self, span: list) -> None:
        span[2] = perf_counter()
        self._stack.pop()

    def _wrap(self, layer: str, fn):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            name = layer
            if layer == "report.emit":
                fmt = kwargs.get("format", args[1] if len(args) > 1 else None)
                name = f"report.emit.{EMIT_FORMATS.get(fmt, fmt)}"
            span = tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(span)
            if layer == "ingest.parse":
                report = result[1]
                span[4] = (len(args[0]), report.accepted_rows, report.rejected_rows)
            elif layer == "cli.parser":
                result.parse_args = tracer._wrap("cli.parser.args", result.parse_args)
            return result

        return traced

    def install(self) -> None:
        for module, attr, _, wrapper in self._patches:
            setattr(module, attr, wrapper)

    def uninstall(self) -> None:
        for module, attr, original, _ in self._patches:
            setattr(module, attr, original)

    def call(self, fn, *args):
        """Run ``fn(*args)`` as the root span with every layer wrapped;
        returns its result and the per-layer summary of the call."""
        self.spans.clear()
        self.install()
        try:
            span = self._open(ROOT_SPAN)
            try:
                result = fn(*args)
            finally:
                self._close(span)
        finally:
            self.uninstall()
        return result, self.summary()

    def summary(self) -> dict:
        """Self time and span count per layer, plus ingest counters."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent, _ in self.spans:
            if parent is not None:
                child[parent] += end - start
        layers: dict[str, list] = {}
        ingest = [0, 0, 0]
        for (name, start, end, _, info), inner in zip(self.spans, child):
            name = "cli.parser" if name == "cli.parser.args" else name
            entry = layers.setdefault(name, [0.0, 0])
            entry[0] += end - start - inner
            entry[1] += 1
            if info is not None:
                ingest = [a + b for a, b in zip(ingest, info)]
        return {"self_s": {k: v[0] for k, v in layers.items()},
                "spans": {k: v[1] for k, v in layers.items()},
                "bytes_in": ingest[0], "rows_accepted": ingest[1],
                "rows_rejected": ingest[2]}
