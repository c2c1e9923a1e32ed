"""Spans around the program's layer boundaries, recorded from outside.

The tracer replaces a function at the module attribute the program
calls it through (for instance ``sudap.solver.build_transform``, which
``solve_sudap`` looks up in its own module) with a wrapper that records
a span, and puts the original back when the ``installed`` block exits,
even on error. A target that no longer exists is recorded in
``Tracer.absent`` instead of raising, so a later rename of an import
drops the metrics built on it rather than the whole run.
"""

from __future__ import annotations

import functools
import importlib
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name), in call-tree order.
TARGETS = (
    ("sudap.cli", "main", "cli.unmix"),
    ("sudap.io", "read_cube", "io.read_cube"),
    ("sudap.io", "read_library_csv", "io.read_endmembers"),
    ("sudap.cli", "solve_sudap", "solver.solve_sudap"),
    ("sudap.solver", "build_transform", "subspace.build_transform"),
    ("sudap.solver", "forward_transform", "subspace.forward"),
    ("sudap.solver", "dykstra_project", "dykstra.project"),
    ("sudap.dykstra", "project_hyperplane", "projectors.hyperplane"),
    ("sudap.dykstra", "project_intersection_geometric", "projectors.kernel"),
    ("sudap.solver", "inverse_transform", "subspace.inverse"),
    ("sudap.io", "write_abundance", "io.write_abundance"),
    ("sudap.cli", "objective", "metrics.objective"),
    ("sudap.cli", "column_feasibility", "model.feasibility"),
)


class Tracer:
    """In-memory span list: [name, start, end, parent index or -1]."""

    def __init__(self):
        self.spans: list = []
        self.absent: list = []
        self._stack: list = []

    def wrap(self, fn, name: str):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(
                [name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                spans[idx][2] = perf_counter()
                stack.pop()

        return traced

    def totals(self) -> dict:
        """name -> {"s": summed duration, "calls": n, "self_s": ...}.

        A span's self time is its duration minus its direct children's.
        """
        child_s = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child_s[parent] += end - start
        out: dict = {}
        for (name, start, end, _), kids in zip(self.spans, child_s):
            agg = out.setdefault(name, {"s": 0.0, "calls": 0, "self_s": 0.0})
            agg["s"] += end - start
            agg["calls"] += 1
            agg["self_s"] += end - start - kids
        return out


@contextmanager
def installed(tracer: Tracer):
    """Wrap every one of TARGETS that exists; restore them all on exit."""
    saved = []
    try:
        for module_name, attr, name in TARGETS:
            try:
                module = importlib.import_module(module_name)
                original = getattr(module, attr)
            except (ImportError, AttributeError):
                tracer.absent.append(name)
                continue
            saved.append((module, attr, original))
            setattr(module, attr, tracer.wrap(original, name))
        yield tracer
    finally:
        for module, attr, original in reversed(saved):
            setattr(module, attr, original)
