"""In-process span tracing of qmonitor's layer entry points.

The tracer rebinds a short list of module attributes to timing wrappers and
restores them afterwards; nothing in the package is edited. Only entry
points are wrapped: wrapping every helper (``linalg.adjoint`` runs about
200k times in one large exact sweep) would distort the timings it reports.
Spans are kept in memory with a link to their parent and written out once,
when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import time
from dataclasses import dataclass
from pathlib import Path

ROOT_SPAN = "cli"

# (module, attribute) pairs whose calls become spans named "module.attribute".
ENTRY_POINTS = (
    ("cli", "read_trace_csv"),
    ("model", "build_model"),
    ("linalg", "eig_hermitian"),
    ("evolve", "run_exact"),
    ("markov", "build_transition_matrix"),
    ("markov", "propagate"),
    ("markov", "spectrum"),
    ("markov", "classify"),
    ("markov", "stationary_limit"),
    ("sample", "run_shots"),
    ("noisefit", "tau_average"),
    ("noisefit", "fit_gamma"),
    ("render", "heatmap_svg"),
)

SPAN_NAMES = (ROOT_SPAN, *(f"{mod}.{attr}" for mod, attr in ENTRY_POINTS))


@dataclass
class Span:
    name: str
    op: int  # index of the CLI operation that caused it
    parent: int  # index into Tracer.spans, -1 for a root span
    start: float
    end: float = 0.0
    error: bool = False


class Tracer:
    """Collects spans for one in-process run of a workload."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self.op = 0

    def call(self, name: str, fn, *args, **kwargs):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, self.op, parent, time.perf_counter())
        self.spans.append(span)
        self._stack.append(index)
        try:
            return fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()

    def install(self) -> list[tuple[object, str, object]]:
        """Wrap every entry point; returns what restore() needs to undo it."""
        saved = []
        for mod_name, attr in ENTRY_POINTS:
            module = importlib.import_module(f"qmonitor.{mod_name}")
            original = getattr(module, attr)
            saved.append((module, attr, original))
            setattr(module, attr, self._wrapper(f"{mod_name}.{attr}", original))
        return saved

    def _wrapper(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)

        return traced

    @staticmethod
    def restore(saved: list[tuple[object, str, object]]) -> None:
        for module, attr, original in saved:
            setattr(module, attr, original)

    def layer_stats(self) -> dict[str, dict[str, float]]:
        """Per span name: self time (duration minus direct children), calls, errors."""
        child_time = [0.0] * len(self.spans)
        for span in self.spans:
            if span.parent >= 0:
                child_time[span.parent] += span.end - span.start
        stats = {name: {"self_s": 0.0, "calls": 0, "errors": 0} for name in SPAN_NAMES}
        for span, children in zip(self.spans, child_time):
            entry = stats[span.name]
            entry["self_s"] += span.end - span.start - children
            entry["calls"] += 1
            entry["errors"] += int(span.error)
        return stats

    def write(self, path: Path) -> None:
        origin = self.spans[0].start if self.spans else 0.0
        rows = [
            {
                "name": s.name,
                "op": s.op,
                "parent": s.parent,
                "start_s": s.start - origin,
                "end_s": s.end - origin,
                "error": s.error,
            }
            for s in self.spans
        ]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(rows, fh)
