"""Span tracing from outside the package.

:class:`Tracer` replaces the package's public functions, wherever a module or
class of the package holds them, with wrappers that record a span per call
(name, start, end, parent span, op id) or, for calls too frequent to keep a
span each, a count.  Nothing inside ``popgraph`` changes: the wrappers sit in
the module attributes through which ``cli`` and the package's own modules
call each other, and :meth:`Tracer.remove` puts the originals back.

Spans stay in memory until the run ends.  A span's self time is its duration
minus the durations of its direct children, so nested calls are not counted
twice.
"""

from __future__ import annotations

import functools
import json
import sys
import time
from collections import defaultdict

import popgraph as pg
from popgraph.errors import PpgError
from workloads import y_overlap

# (module, attribute, span name): calls timed as spans.
SPANS = (
    ("core", "validate_progressive", "core.validate_progressive"),
    ("order", "validate_planar_order", "order.validate_planar_order"),
    ("order", "order_violations", "order.order_violations"),
    ("order", "conjugate_order", "order.conjugate_order"),
    ("order", "order_from_conjugate", "order.order_from_conjugate"),
    ("synthesis", "synthesize_order", "synthesis.synthesize_order"),
    ("synthesis", "extract_pa", "synthesis.extract_pa"),
    ("synthesis", "count_planar_orders", "synthesis.count_planar_orders"),
    ("composition", "elementary_decomposition", "composition.elementary_decomposition"),
    ("layout", "layout", "layout.layout"),
    ("layout", "layout_st", "layout.layout"),
    ("layout", "check_drawing", "layout.check_drawing"),
    ("layout", "read_back", "layout.read_back"),
    ("layout", "render_svg", "layout.render"),
    ("layout", "render_tikz", "layout.render"),
    ("ppgfile", "parse_ppg", "ppgfile.parse_ppg"),
    ("ppgfile", "emit_ppg", "ppgfile.emit_ppg"),
    ("cli", "main", "cli.main"),
)

# (module, attribute, counter): calls only counted.
COUNTS = (
    ("synthesis", "compare_edges", "synthesis.compare_edges.calls"),
    ("composition", "decompose_step", "composition.decompose_step.calls"),
)

# (class, method, counter): adjacency scans, counted where they are answered.
METHOD_COUNTS = (
    (pg.DirectedMultigraph, "in_edges", "core.adjacency.calls"),
    (pg.DirectedMultigraph, "out_edges", "core.adjacency.calls"),
)


class Tracer:
    """Records spans and counters while :attr:`op` is set to an op id."""

    def __init__(self):
        self.spans: list[tuple[str, float, float, int, int]] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.op: int | None = None
        self._stack: list[int] = []
        self._undo: list[tuple[object, str, object]] = []

    # -- installing -------------------------------------------------------

    def install(self) -> None:
        modules = [m for name, m in sorted(sys.modules.items())
                   if m is not None and (name == "popgraph" or name.startswith("popgraph."))]
        for mod, attr, name in SPANS:
            self._replace(modules, sys.modules["popgraph." + mod], attr,
                          self._span_wrapper(name))
        for mod, attr, name in COUNTS:
            self._replace(modules, sys.modules["popgraph." + mod], attr,
                          self._count_wrapper(name))
        for cls, attr, name in METHOD_COUNTS:
            original = cls.__dict__[attr]
            self._undo.append((cls, attr, original))
            setattr(cls, attr, self._count_wrapper(name)(original))

    def _replace(self, modules, home, attr, make) -> None:
        original = vars(home)[attr]
        wrapped = make(original)
        for mod in modules:
            for key, value in list(vars(mod).items()):
                if value is original:
                    self._undo.append((mod, key, original))
                    setattr(mod, key, wrapped)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- wrappers ---------------------------------------------------------

    def _span_wrapper(self, name: str):
        layer = name.split(".", 1)[0]
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.op is None:
                    return fn(*args, **kwargs)
                stack = self._stack
                parent = stack[-1] if stack else -1
                index = len(self.spans)
                self.spans.append((name, 0.0, 0.0, parent, self.op))
                stack.append(index)
                start = time.perf_counter()
                try:
                    try:
                        result = fn(*args, **kwargs)
                    finally:
                        end = time.perf_counter()
                        stack.pop()
                        self.spans[index] = (name, start, end, parent, self.op)
                except PpgError as err:
                    # an error counts once, where it leaves its layer
                    if parent < 0 or not self.spans[parent][0].startswith(layer + "."):
                        counts[layer + ".errors"] += 1
                        counts[layer + ".error_bytes"] += len(str(err).encode())
                    raise
                self._after(name, args, result)
                return result
            return wrapper
        return make

    def _count_wrapper(self, name: str):
        counts = self.counts

        def make(fn):
            @functools.wraps(fn)
            def wrapper(*args, **kwargs):
                if self.op is not None:
                    counts[name] += 1
                return fn(*args, **kwargs)
            return wrapper
        return make

    def _after(self, name: str, args, result) -> None:
        """Work counters read off a finished call's arguments and result."""
        counts = self.counts
        if name == "ppgfile.parse_ppg":
            counts["ppgfile.bytes"] += len(args[0].encode())
        elif name == "ppgfile.emit_ppg":
            counts["ppgfile.bytes"] += len(result.encode())
        elif name == "synthesis.count_planar_orders":
            counts["synthesis.orders_counted"] += result
        elif name == "composition.elementary_decomposition":
            counts["composition.factors"] += len(result)
        elif name == "layout.check_drawing":
            segments, pairs, overlapping = y_overlap(args[0])
            counts["layout.check_drawing.segments"] += segments
            counts["layout.check_drawing.pairs"] += pairs
            counts["layout.check_drawing.overlapping_pairs"] += overlapping
            counts["layout.check_drawing.problems"] += len(result.problems)

    # -- reading ----------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Span name -> (total self seconds, calls)."""
        child_time = [0.0] * len(self.spans)
        for name, start, end, parent, _op in self.spans:
            if parent >= 0:
                child_time[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0.0, 0])
        for (name, start, end, _parent, _op), inner in zip(self.spans, child_time):
            out[name][0] += end - start - inner
            out[name][1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}

    def validations_in_decomposition(self) -> int:
        """Validation spans that ran inside an elementary decomposition."""
        inside = [False] * len(self.spans)
        total = 0
        for i, (name, _start, _end, parent, _op) in enumerate(self.spans):
            inside[i] = parent >= 0 and (
                inside[parent] or self.spans[parent][0] == "composition.elementary_decomposition")
            if inside[i] and name in ("core.validate_progressive", "order.validate_planar_order"):
                total += 1
        return total

    def write(self, path) -> None:
        with open(path, "w", encoding="utf-8") as f:
            for span in self.spans:
                f.write(json.dumps(span) + "\n")
