"""Span tracer that wraps graphssl's public functions from outside the package.

Every public function defined in one of the layer modules is replaced, for
the duration of a traced invocation, by a wrapper that records a span. The
wrapper is installed at every name a caller looks the function up by: the
defining module, each graphssl module that imported it, and module-level
dicts such as the CLI's command table. Nothing under src/ changes, and
uninstall() puts every original object back.

Names outside the layer functions are patched too:

* numpy.linalg.eigh, scipy.linalg.eigh and scipy.sparse.linalg.eigsh only
  count their calls on the open spans of the calling thread, so an
  eigensolve span knows which path (dense or Lanczos) it took.
* concurrent.futures.ThreadPoolExecutor, where a graphssl module imported
  it, is replaced by a subclass that hands the submitting thread's open
  span to the worker thread, so cell spans have the sweep as their parent.

Spans are kept in memory (self.spans) and written out by the caller.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import os
import sys
import threading
from collections import defaultdict
from concurrent.futures import ThreadPoolExecutor
from time import perf_counter

import numpy as np

PACKAGE = "graphssl"
LAYERS = ("fileio", "graph", "linalg", "spectral", "solver", "ssl", "bow", "harness", "cli")

# (module, attribute, count key). Calls add 1 to that key on every open span.
MARKERS = (
    ("numpy.linalg", "eigh", "eigh"),
    ("scipy.linalg", "eigh", "eigh"),
    ("scipy.sparse.linalg", "eigsh", "eigsh"),
)

# Name of the spans that time the tracer's own bookkeeping after a call.
EXTRACT_SPAN = "tracer.extract"


class Span:
    """One call of a wrapped function: name, interval, parent, thread, invocation."""

    __slots__ = ("id", "name", "start", "end", "parent", "thread", "invocation",
                 "counts", "data")

    def __init__(self, span_id, name, parent, invocation):
        self.id = span_id
        self.name = name
        self.parent = parent
        self.thread = threading.get_ident()
        self.invocation = invocation
        self.start = 0.0
        self.end = 0.0
        self.counts = {}
        self.data = None  # arrays used to derive counts; never serialized

    @property
    def layer(self):
        return self.name.split(".", 1)[0]

    @property
    def duration(self):
        return self.end - self.start

    def record(self):
        return {
            "id": self.id, "name": self.name, "start": self.start, "end": self.end,
            "parent": self.parent, "thread": self.thread,
            "invocation": self.invocation, "counts": self.counts,
        }


# Count extractors. Each takes (args, kwargs, result) and returns
# (counts, data); they run after the span has ended and are timed as a
# sibling EXTRACT_SPAN, so their cost is not charged to any layer.

def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _read_bytes(args, kwargs, result):
    return {"bytes": os.path.getsize(_arg(args, kwargs, 0, "path"))}, None


def _kernel_bytes(args, kwargs, result):
    n = int(np.shape(_arg(args, kwargs, 0, "x"))[0])
    return {"kernel_bytes": n * n * 8}, None


def _laplacian_graph(args, kwargs, lap):
    import scipy.sparse as sp
    from scipy.sparse.csgraph import connected_components

    if sp.issparse(lap):
        pattern = lap
    else:
        ones = np.ones(lap.rows.size)
        pattern = sp.coo_matrix((ones, (lap.rows, lap.cols)), shape=(lap.n, lap.n))
    components, labels = connected_components(pattern, directed=False)
    return {"nnz": int(lap.nnz), "components": int(components)}, labels


def _labeled_indices(args, kwargs, result):
    assignments = _arg(args, kwargs, 0, "assignments")
    return {}, np.array([int(index) for index, _ in assignments], dtype=np.int64)


def _cg_iterations(args, kwargs, result):
    return {"iterations": int(result[1])}, None


def _fista_iterations(args, kwargs, result):
    return {"iterations": int(result[1].iterations)}, None


def _restored(args, kwargs, result):
    original = np.asarray(_arg(args, kwargs, 0, "y"))
    refined = np.asarray(result[0])
    return {"restored": int(np.count_nonzero(refined == original)),
            "entries": int(original.size)}, None


def _workers(args, kwargs, result):
    return {"workers": int(kwargs.get("workers", 1))}, None


EXTRACTORS = {
    "graph.linear_kernel": _kernel_bytes,
    "graph.normalized_laplacian": _laplacian_graph,
    "ssl.encode_labels": _labeled_indices,
    "linalg.cg_solve": _cg_iterations,
    "solver.fista_weighted_l1": _fista_iterations,
    "bow.refine": _restored,
    "harness.run_noise_sweep": _workers,
}


def extractor_for(qualname):
    if qualname.startswith("fileio.read"):
        return _read_bytes
    return EXTRACTORS.get(qualname)


def discover():
    """Public functions of each layer module: ({qualname: function}, {layer: reason}).

    A layer whose module cannot be imported is reported as missing rather
    than raising, so the benchmark keeps working when a later change
    deletes or renames a module.
    """
    functions = {}
    missing = {}
    for layer in LAYERS:
        try:
            module = importlib.import_module(f"{PACKAGE}.{layer}")
        except ImportError as exc:
            missing[layer] = f"{PACKAGE}.{layer} cannot be imported: {exc}"
            continue
        for attr, obj in vars(module).items():
            if (not attr.startswith("_") and inspect.isfunction(obj)
                    and obj.__module__ == module.__name__):
                functions[f"{layer}.{attr}"] = obj
    return functions, missing


def _package_modules():
    return [module for name, module in list(sys.modules.items())
            if module is not None and (name == PACKAGE or name.startswith(PACKAGE + "."))]


class Tracer:
    """Collects spans from wrapped graphssl functions while installed."""

    def __init__(self):
        self.functions, self.missing = discover()
        self.spans = []
        self.extract_errors = {}
        self.invocation = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._restore = []

    # Thread state: own open spans, plus a parent adopted from the thread
    # that submitted the current pool task.
    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.base = None
        return state

    def _current_id(self):
        state = self._state()
        return state.stack[-1].id if state.stack else state.base

    def _adopt(self, parent, fn, *args, **kwargs):
        state = self._state()
        saved = state.stack, state.base
        state.stack, state.base = [], parent
        try:
            return fn(*args, **kwargs)
        finally:
            state.stack, state.base = saved

    def _extract(self, span, extract, args, kwargs, result):
        mark = Span(next(self._ids), EXTRACT_SPAN, span.parent, self.invocation)
        mark.start = perf_counter()
        try:
            counts, span.data = extract(args, kwargs, result)
            span.counts.update(counts)
        except Exception as exc:  # a changed signature must not break the run
            self.extract_errors[span.name] = repr(exc)
        mark.end = perf_counter()
        self.spans.append(mark)

    def wrap(self, qualname, fn):
        tracer = self
        extract = extractor_for(qualname)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            span = Span(next(tracer._ids), qualname, tracer._current_id(), tracer.invocation)
            stack = tracer._state().stack
            stack.append(span)
            span.start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                span.counts["raised"] = 1
                raise
            finally:
                span.end = perf_counter()
                stack.pop()
                tracer.spans.append(span)
            if extract is not None:
                tracer._extract(span, extract, args, kwargs, result)
            return result

        return traced

    def _marker(self, fn, key):
        tracer = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            for span in tracer._state().stack:
                span.counts[key] = span.counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def _pool_class(self):
        tracer = self

        class SpanPool(ThreadPoolExecutor):
            def submit(self, fn, /, *args, **kwargs):
                return super().submit(tracer._adopt, tracer._current_id(), fn, *args, **kwargs)

        return SpanPool

    def _patch(self, owner, key, replacement):
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = replacement
            self._restore.append((owner.__setitem__, key, original))
        else:
            original = getattr(owner, key)
            setattr(owner, key, replacement)
            self._restore.append((functools.partial(setattr, owner), key, original))

    def bindings(self):
        """Every (owner, key, original) where a graphssl caller finds a wrapped name.

        Owners are graphssl modules and their module-level dicts; originals
        are layer functions and ThreadPoolExecutor.
        """
        targets = {id(fn): fn for fn in self.functions.values()}
        targets[id(ThreadPoolExecutor)] = ThreadPoolExecutor
        found = []
        for module in _package_modules():
            for attr, value in list(vars(module).items()):
                if id(value) in targets:
                    found.append((module, attr, value))
                elif isinstance(value, dict) and not attr.startswith("__"):
                    found.extend((value, key, item) for key, item in value.items()
                                 if id(item) in targets)
        return found

    def install(self):
        if self._restore:
            raise RuntimeError("tracer is already installed")
        names = {id(fn): name for name, fn in self.functions.items()}
        wrappers = {}
        pool = self._pool_class()
        try:
            for owner, key, original in self.bindings():
                if original is ThreadPoolExecutor:
                    self._patch(owner, key, pool)
                    continue
                if id(original) not in wrappers:
                    wrappers[id(original)] = self.wrap(names[id(original)], original)
                self._patch(owner, key, wrappers[id(original)])
            for module_name, attr, key in MARKERS:
                module = importlib.import_module(module_name)
                if hasattr(module, attr):
                    self._patch(module, attr, self._marker(getattr(module, attr), key))
        except BaseException:
            self.uninstall()
            raise

    def uninstall(self):
        while self._restore:
            setter, key, original = self._restore.pop()
            setter(key, original)

    @contextlib.contextmanager
    def installed(self, invocation):
        """Install the wrappers, tagging new spans with the invocation id."""
        self.invocation = invocation
        self.install()
        try:
            yield self
        finally:
            self.uninstall()
            self.invocation = None

    def spans_of(self, invocation):
        return [span for span in self.spans if span.invocation == invocation]


def self_times(spans):
    """{span id: duration minus the part of it that its child spans cover}.

    Children running in parallel worker threads overlap; the covered part is
    the union of their intervals, so a self time is never negative.
    """
    children = defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    out = {}
    for span in spans:
        covered = 0.0
        cursor = span.start
        for start, end in sorted(children.get(span.id, ())):
            start = max(start, cursor)
            end = min(end, span.end)
            if end > start:
                covered += end - start
                cursor = end
        out[span.id] = span.duration - covered
    return out
