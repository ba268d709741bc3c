"""In-memory spans around the public calls into each nbmf module.

A :class:`Tracer` replaces the public functions and methods listed in
:data:`TRACED` with wrappers that record one span per call, and puts the
originals back when it is closed.  Every span holds its name, start and end
(``time.perf_counter`` seconds), the id of the span that caused it, the run
id of the operation it belongs to, and a few work counts.  Spans stay in a
list until the benchmark writes them out at the end of the run.

Calls made on the pool threads of ``grid_search`` and ``test_evaluation``
start with an empty span stack; their parent is the innermost span open on
the thread that activated the tracer, which is blocked in that call.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import itertools
import threading
import time

# span name -> (module, attribute path).  Span names are "<layer>.<call>",
# the layer being the module under src/nbmf.
TRACED = {
    "binmat.load_coordinate_file": ("nbmf.binmat", "load_coordinate_file"),
    "binmat.split_observations": ("nbmf.binmat", "split_observations"),
    "binmat.save_mask": ("nbmf.binmat", "save_mask"),
    "binmat.load_mask": ("nbmf.binmat", "load_mask"),
    "binmat.BinaryMatrix.to_dense": ("nbmf.binmat", "BinaryMatrix.to_dense"),
    "binmat.ObservationMask.to_dense": ("nbmf.binmat", "ObservationMask.to_dense"),
    "binmat.ObservationMask.indices": ("nbmf.binmat", "ObservationMask.indices"),
    "solver.fit": ("nbmf.solver", "fit"),
    "solver.update_h": ("nbmf.solver", "update_h"),
    "solver.update_w": ("nbmf.solver", "update_w"),
    "solver.objective": ("nbmf.solver", "objective"),
    "evaluate.perplexity": ("nbmf.evaluate", "perplexity"),
    "evaluate.completion_report": ("nbmf.evaluate", "completion_report"),
    "io.write_factors": ("nbmf.io", "write_factors"),
    "io.read_factors": ("nbmf.io", "read_factors"),
    "io.write_report": ("nbmf.io", "write_report"),
    "tune.grid_search": ("nbmf.tune", "grid_search"),
    "tune.test_evaluation": ("nbmf.tune", "test_evaluation"),
    "tune.export_heatmap": ("nbmf.tune", "export_heatmap"),
    "tune.GridResult.to_csv": ("nbmf.tune", "GridResult.to_csv"),
}

# Modules whose namespaces may hold a reference to a traced function
# (``from .solver import fit`` binds a second name for the same object).
_NAMESPACES = (
    "nbmf", "nbmf.binmat", "nbmf.solver", "nbmf.evaluate", "nbmf.io",
    "nbmf.tune", "nbmf.cli",
)


class Span:
    __slots__ = ("id", "parent", "name", "run", "start", "end", "attrs")

    def __init__(self, span_id, parent, name, run):
        self.id = span_id
        self.parent = parent
        self.name = name
        self.run = run
        self.start = time.perf_counter()
        self.end = None
        self.attrs = {}

    @property
    def duration(self):
        return self.end - self.start

    def to_dict(self):
        return {
            "id": self.id, "parent": self.parent, "name": self.name,
            "run": self.run, "start": self.start, "end": self.end,
            "attrs": self.attrs,
        }


class Tracer:
    """Records spans while active; use as a context manager."""

    def __init__(self):
        self.spans = []
        self.run = None
        self._ids = itertools.count(1)
        self._lock = threading.Lock()
        self._local = threading.local()
        self._main_stack = None
        self._restore = []

    # -- span recording -------------------------------------------------

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextlib.contextmanager
    def span(self, name):
        """Record one span named ``name`` around the body of the block."""
        stack = self._stack()
        if stack:
            parent = stack[-1].id
        elif self._main_stack:
            parent = self._main_stack[-1].id
        else:
            parent = None
        with self._lock:
            span = Span(next(self._ids), parent, name, self.run)
            self.spans.append(span)
        stack.append(span)
        try:
            yield span
        finally:
            span.end = time.perf_counter()
            stack.pop()

    # -- patching ------------------------------------------------------

    def __enter__(self):
        self._main_stack = self._stack()
        for name, (module_name, path) in TRACED.items():
            self._install(name, importlib.import_module(module_name), path)
        return self

    def __exit__(self, *exc):
        for owner, attr, original in reversed(self._restore):
            setattr(owner, attr, original)
        self._restore.clear()
        return False

    def _install(self, name, module, path):
        owner_name, _, attr = path.rpartition(".")
        if owner_name:
            owner = getattr(module, owner_name)
            original = owner.__dict__[attr]
            self._patch(owner, attr, original, self._wrap(name, original))
            return
        original = getattr(module, attr)
        wrapper = self._wrap(name, original)
        for namespace in _NAMESPACES:
            target = importlib.import_module(namespace)
            for key, value in list(vars(target).items()):
                if value is original:
                    self._patch(target, key, original, wrapper)

    def _patch(self, owner, attr, original, wrapper):
        self._restore.append((owner, attr, original))
        setattr(owner, attr, wrapper)

    def _wrap(self, name, original):
        if name == "solver.fit":
            return self._wrap_fit(original)

        @functools.wraps(original)
        def wrapper(*args, **kwargs):
            with self.span(name):
                return original(*args, **kwargs)

        return wrapper

    def _wrap_fit(self, original):
        """``fit`` also records its sweep timestamps and work counts."""

        @functools.wraps(original)
        def fit(Y, mask, config, on_sweep=None):
            stamps = []

            def record(iteration, value, factors):
                stamps.append(time.perf_counter())
                if on_sweep is not None:
                    on_sweep(iteration, value, factors)

            with self.span("solver.fit") as span:
                factors, report = original(Y, mask, config, on_sweep=record)
            span.attrs.update(
                sweeps=report.n_iter,
                loop_s=report.wall_time,
                cells=mask.n_cells,
                sweep_s=[b - a for a, b in zip(stamps, stamps[1:])],
            )
            return factors, report

        return fit


def _covered(intervals):
    """Total length of the union of ``(start, end)`` intervals."""
    total = 0.0
    reach = None
    for start, end in sorted(intervals):
        if end <= start:
            continue
        if reach is None or start > reach:
            total += end - start
            reach = end
        elif end > reach:
            total += end - reach
            reach = end
    return total


def self_times(spans):
    """Per-layer self time: each span's duration minus what its children cover.

    Children on pool threads may overlap one another, so the covered part is
    the union of their intervals, clipped to the parent.  A layer's value is
    the sum over its spans, which can exceed wall time when pool threads run
    the same layer at once.
    """
    children = {}
    for span in spans:
        children.setdefault(span.parent, []).append(span)
    layers = {}
    for span in spans:
        covered = _covered(
            (max(child.start, span.start), min(child.end, span.end))
            for child in children.get(span.id, ())
        )
        layer = span.name.split(".", 1)[0]
        layers[layer] = layers.get(layer, 0.0) + span.duration - covered
    return layers
