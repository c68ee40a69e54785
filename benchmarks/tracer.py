"""Spans around calls into the cominuscule modules' public functions.

The package itself is not instrumented.  Instead, for the duration of a
`traced(...)` block, every module-level reference to a chosen public function
(in the defining module, in the modules that import it, and in the package
namespace) is rebound to a wrapper that records one span per call.  Calls made
inside the package, such as `verify.sweep` calling `grade_diagram`, are caught
the same way, so a traced run executes the real code paths.  Spans stay in
memory; `self_times` turns them into per-function self time.
"""

from __future__ import annotations

import functools
import importlib
from collections import Counter
from contextlib import contextmanager
from time import perf_counter

PACKAGE = "cominuscule"
MODULES = ("rootsys", "grading", "subsystem", "classify", "hasse", "verify", "cli")

# Span name -> (module, attribute).  These are the layer boundaries the
# per-layer metrics are built from; cheap per-root helpers such as
# `is_positive` are left out because wrapping them would cost more than they do.
TRACED = {
    "rootsys.build_root_system": ("rootsys", "build_root_system"),
    "grading.grade_diagram": ("grading", "grade_diagram"),
    "grading.box_union": ("grading", "box_union"),
    "grading.box": ("grading", "box"),
    "subsystem.generate_subsystem": ("subsystem", "generate_subsystem"),
    "subsystem.direct_subsystem": ("subsystem", "direct_subsystem"),
    "subsystem.decorated_diagram": ("subsystem", "decorated_diagram"),
    "subsystem.perpendicular_compacts": ("subsystem", "perpendicular_compacts"),
    "classify.recognize_labelings": ("classify", "recognize_labelings"),
    "classify.classify_cominuscule": ("classify", "classify_cominuscule"),
    "hasse.hasse": ("hasse", "hasse"),
    "hasse.flag_hasse": ("hasse", "flag_hasse"),
    "hasse.highest_component": ("hasse", "highest_component"),
    "hasse.export": ("hasse", "export"),
    "verify.expected_answer": ("verify", "expected_answer"),
    "verify.sweep": ("verify", "sweep"),
    "cli.main": ("cli", "main"),
}
# GradedRootSystem does the grading work in its constructor, and the CLI
# constructs it directly rather than through grade_diagram.
GRADING_INIT = "grading.GradedRootSystem"


def module(name: str):
    """A package submodule.  `cominuscule.hasse` is rebound to the function
    `hasse` by the package's __init__, so attribute access will not do."""
    return importlib.import_module(f"{PACKAGE}.{name}")


class Tracer:
    """Spans (name, start, end, parent index) and counters, kept in memory."""

    def __init__(self) -> None:
        self.spans: list[tuple[str, float, float, int] | None] = []
        self.counts: Counter[str] = Counter()
        self._stack = [-1]
        self._built: dict[int, object] = {}  # holds them, so ids stay unique

    def wrap(self, name, fn, on_result=None):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced_call(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[idx] = (name, start, end, parent)
            if on_result is not None:
                on_result(result)
            return result

        return traced_call

    def _on_build(self, rs) -> None:
        # caches are cleared before each pass, so a root system object seen
        # for the first time was built cold during this pass
        if id(rs) in self._built:
            return
        self._built[id(rs)] = rs
        m = len(rs.roots)
        self.counts["rootsys.builds"] += 1
        self.counts["rootsys.roots"] += m
        # the dense int32 m x m reflection table, computed rather than measured
        self.counts["rootsys.refl_table_mb"] += 4 * m * m / 1e6

    def _on_subsystem(self, sub) -> None:
        self.counts["subsystem.roots"] += len(sub.roots)

    def _on_export(self, data: bytes) -> None:
        self.counts["hasse.export_bytes"] += len(data)

    def self_times(self) -> dict[str, tuple[int, float]]:
        """Span name -> (calls, total self time in seconds)."""
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        out: dict[str, tuple[int, float]] = {}
        for (name, start, end, _), inner in zip(self.spans, child):
            calls, total = out.get(name, (0, 0.0))
            out[name] = (calls + 1, total + (end - start) - inner)
        return out


@contextmanager
def traced(tracer: Tracer):
    """Rebind every reference to the TRACED functions to recording wrappers."""
    namespaces = [importlib.import_module(PACKAGE)] + [module(m) for m in MODULES]
    hooks = {
        "rootsys.build_root_system": tracer._on_build,
        "subsystem.generate_subsystem": tracer._on_subsystem,
        "hasse.export": tracer._on_export,
    }
    undo = []
    for name, (mod, attr) in TRACED.items():
        original = getattr(module(mod), attr)
        wrapper = tracer.wrap(name, original, hooks.get(name))
        for ns in namespaces:
            for key, value in list(vars(ns).items()):
                if value is original:
                    undo.append((ns, key, original))
                    setattr(ns, key, wrapper)
    graded_cls = module("grading").GradedRootSystem
    original_init = graded_cls.__init__
    graded_cls.__init__ = tracer.wrap(GRADING_INIT, original_init)
    try:
        yield tracer
    finally:
        graded_cls.__init__ = original_init
        for ns, key, original in reversed(undo):
            setattr(ns, key, original)
