"""Per-layer tracing for the benchmark, installed from outside the package.

``Tracer.install()`` wraps the public functions of every stringdet layer
module, plus ``ARQuiver.hom`` and ``ARQuiver.identify``, and patches each
wrapper into every stringdet namespace that binds the original object:
the modules import each other's functions by name (``from .x import f``),
so patching only the defining module would miss most calls.  The program's
files are not changed; ``uninstall()`` restores the originals.

Every wrapped call records a span (name, start, end, parent span, CLI call
id) in flat arrays kept in memory; ``write_spans`` writes them out at the
end.  Counters are recorded at the same boundaries: calls per span name,
hom-cache hits, almost-factoring outcomes, indecomposables found and the
largest linear system handed to ``nullspace``.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import inspect
import time
from array import array
from collections import Counter

#: Layer modules in dependency order; a span's layer is its module.
LAYERS = ("algebra", "treewalk", "taxonomy", "engine", "strings", "modules",
          "linalg", "arquiver", "oracle", "cli")

#: Of the CLI module only the entry point is a span, so that ``cli.main``
#: self time is everything the front end does itself: argparse, file I/O,
#: JSON rendering.
CLI_ENTRY_POINTS = ("main",)


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("l")
        self.span_call = array("l")
        self.span_parent = array("l")
        self.span_start = array("q")
        self.span_end = array("q")
        self.counters: Counter = Counter()
        self.max_system_cells = 0
        self.call_id = -1
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording --------------------------------------------------------

    def _arrays(self) -> tuple[array, ...]:
        return (self.span_name, self.span_call, self.span_parent,
                self.span_start, self.span_end)

    def begin_call(self) -> None:
        """Mark the start of the next CLI call; its spans share the id."""
        self.call_id += 1

    def reset(self) -> None:
        """Drop everything recorded so far (used after warm-up calls)."""
        for arr in self._arrays():
            del arr[:]
        self.counters.clear()
        self.max_system_cells = 0
        self.call_id = -1

    def _wrap(self, name: str, fn, observe=None, work_counter: str | None = None):
        """Span-recording wrapper.  ``observe(args, result)`` runs after each
        call.  With ``work_counter``, a call that did not advance that
        counter is a cache hit: it is counted under ``<name>.hits`` and its
        span is dropped, since it did no work worth a span."""
        name_id = len(self.names)
        self.names.append(name)
        stack = self._stack
        counters = self.counters
        clock = time.perf_counter_ns
        arrays = self._arrays()
        starts, ends = self.span_start, self.span_end
        hits = f"{name}.hits"

        def traced(*args, **kwargs):
            idx = len(starts)
            self.span_name.append(name_id)
            self.span_call.append(self.call_id)
            self.span_parent.append(stack[-1] if stack else -1)
            ends.append(0)
            stack.append(idx)
            counters[name] += 1
            work_before = counters[work_counter] if work_counter else 0
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()
            if work_counter and counters[work_counter] == work_before:
                counters[hits] += 1
                for arr in arrays:
                    del arr[idx:]
            if observe is not None:
                observe(args, result)
            return result

        return functools.wraps(fn)(traced)

    # -- counters observed at span boundaries ----------------------------

    def _observe_nullspace(self, args, result) -> None:
        m = args[0]
        self.max_system_cells = max(self.max_system_cells, m.nrows * m.ncols)

    def _observe_almost(self, args, result) -> None:
        if result is True:
            self.counters["oracle.almost_factors_through.true"] += 1

    def _observe_strings(self, args, result) -> None:
        self.counters["strings.indecomposables"] += len(result)

    # -- installation -----------------------------------------------------

    def install(self) -> None:
        pkg = importlib.import_module("stringdet")
        modules = {layer: importlib.import_module(f"stringdet.{layer}") for layer in LAYERS}
        namespaces = [pkg] + list(modules.values())
        observers = {
            "linalg.nullspace": self._observe_nullspace,
            "oracle.almost_factors_through": self._observe_almost,
            "strings.enumerate_strings": self._observe_strings,
        }
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                if obj.__module__ != mod.__name__:
                    continue
                if layer == "cli" and attr not in CLI_ENTRY_POINTS:
                    continue
                name = f"{layer}.{attr}"
                wrapper = self._wrap(name, obj, observers.get(name))
                for ns in namespaces:
                    if vars(ns).get(attr) is obj:
                        self._patch(ns, attr, wrapper)
        arq = modules["arquiver"].ARQuiver
        self._patch(arq, "hom", self._wrap("arquiver.hom", arq.hom,
                                           work_counter="modules.hom_space"))
        self._patch(arq, "identify", self._wrap("arquiver.identify", arq.identify))

    def _patch(self, owner, attr, value) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    # -- results ----------------------------------------------------------

    def self_times_ns(self) -> tuple[Counter, int]:
        """Self time per span name (span minus the time its child spans
        cover) and the total time covered by root spans."""
        child_ns = [0] * len(self.span_start)
        root_ns = 0
        for idx, parent in enumerate(self.span_parent):
            dur = self.span_end[idx] - self.span_start[idx]
            if parent >= 0:
                child_ns[parent] += dur
            else:
                root_ns += dur
        self_ns: Counter = Counter()
        for idx, name_id in enumerate(self.span_name):
            self_ns[self.names[name_id]] += (self.span_end[idx] - self.span_start[idx]
                                             - child_ns[idx])
        return self_ns, root_ns

    def write_spans(self, path: str) -> None:
        """Gzipped CSV, one line per span: call id, span id, parent span id,
        name, start and end in nanoseconds of ``time.perf_counter_ns``."""
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("call,span,parent,name,start_ns,end_ns\n")
            for idx in range(len(self.span_start)):
                fh.write(f"{self.span_call[idx]},{idx},{self.span_parent[idx]},"
                         f"{self.names[self.span_name[idx]]},{self.span_start[idx]},"
                         f"{self.span_end[idx]}\n")
