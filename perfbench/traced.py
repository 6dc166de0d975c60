"""Run one cvcompare invocation in-process with spans around each layer.

Usage: python3 traced.py SPANS_JSON CLI_ARG...

Wraps every public function of each cvcompare module (plus the export
methods ``HierDraws.to_csv`` and ``Histogram.to_csv`` and the CLI's
``run``) and installs the wrapper under every name any cvcompare module
looks it up by, so calls made from ``cli``, ``hierarchical`` and ``dp``
are all seen.  Calls into ``kernels`` are hot (hundreds of thousands per
fit), so they are aggregated into a call count and total time instead of
one span each.  Spans stay in memory and are written to SPANS_JSON when
the invocation ends; the process exits with the CLI's exit code.

Times come from ``time.monotonic`` (CLOCK_MONOTONIC), the clock the
benchmark driver uses for the process's wall time, so the two can be
subtracted.  The call stack is kept per thread; the CLI's default
single-threaded runs give exact self times.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import threading
import time

LAYERS = (
    "data", "kernels", "bayes_ttest", "frequentist", "dp",
    "hierarchical", "decisions", "report", "cli",
)
AGGREGATED = {"kernels"}


class Tracer:
    """Spans (name, start, end, parent, self) and aggregated call counters."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.aggregates: dict[str, list[float]] = {}  # name -> [calls, seconds, self seconds]
        self.counts: dict[str, float] = {}
        self._local = threading.local()

    def _stack(self) -> list[list]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def wrap(self, name: str, fn, aggregate: bool, count=None):
        clock = time.monotonic

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            # frame: [name, start, time spent in traced children, span index];
            # an aggregated call has no span and passes on its caller's index
            if aggregate:
                index = stack[-1][3] if stack else None
            else:
                index = len(self.spans)
                self.spans.append(None)
            frame = [name, clock(), 0.0, index]
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[1]
                if stack:
                    stack[-1][2] += duration
                parent = stack[-1][3] if stack else None
                if aggregate:
                    agg = self.aggregates.setdefault(name, [0, 0.0, 0.0])
                    agg[0] += 1
                    agg[1] += duration
                    agg[2] += duration - frame[2]
                else:
                    self.spans[frame[3]] = [name, frame[1], end, parent, duration - frame[2]]
            if count is not None:
                for key, value in count(args, result).items():
                    self.counts[key] = self.counts.get(key, 0) + value
            return result

        return traced

    def dump(self, path: str, exit_code: int) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(
                {"spans": self.spans, "aggregates": self.aggregates,
                 "counts": self.counts, "exit_code": exit_code},
                fh,
            )


def _parse_count(args, table):
    return {"data.rows": len(table.entries) * table.runs * table.folds}


def _draws_count(args, samples):
    return {"dp.draws": samples.count}


def _sweeps_count(args, draws):
    cfg = args[1]
    return {"hierarchical.fit.sweeps": cfg.chains * (cfg.warmup + cfg.draws)}


def _bytes_count(key):
    return lambda args, text: {key: len(text.encode("utf-8"))}


COUNTS = {
    "data.parse_scores": _parse_count,
    "dp.signed_rank_samples": _draws_count,
    "dp.sign_test_samples": _draws_count,
    "hierarchical.fit": _sweeps_count,
    "hierarchical.to_csv": _bytes_count("hierarchical.to_csv.bytes"),
    "report.barycentric_csv": _bytes_count("report.barycentric_csv.bytes"),
}


def install(tracer: Tracer):
    """Patch the cvcompare modules in place; returns the patched ``cli`` module."""
    modules = {layer: importlib.import_module(f"cvcompare.{layer}") for layer in LAYERS}
    namespaces = list(modules.values()) + [importlib.import_module("cvcompare")]
    for layer, module in modules.items():
        for attr in getattr(module, "__all__", ()):
            fn = getattr(module, attr)
            if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                continue
            name = f"{layer}.{attr}"
            wrapper = tracer.wrap(name, fn, layer in AGGREGATED, COUNTS.get(name))
            for ns in namespaces:
                for key, value in list(vars(ns).items()):
                    if value is fn:
                        setattr(ns, key, wrapper)
    methods = (
        ("hierarchical", "HierDraws", "to_csv", "hierarchical.to_csv"),
        ("report", "Histogram", "to_csv", "report.histogram_csv"),
    )
    for layer, cls_name, method, name in methods:
        cls = getattr(modules[layer], cls_name)
        setattr(cls, method, tracer.wrap(name, getattr(cls, method), False, COUNTS.get(name)))
    cli = modules["cli"]
    cli.run = tracer.wrap("cli.run", cli.run, False)
    return cli


def main() -> int:
    out_path, argv = sys.argv[1], sys.argv[2:]
    tracer = Tracer()
    cli = install(tracer)
    code = cli.main(argv)
    tracer.dump(out_path, code)
    return code


if __name__ == "__main__":
    sys.exit(main())
