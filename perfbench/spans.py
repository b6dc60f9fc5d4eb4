"""In-memory span tracer for the vdfourier modules.

:meth:`Tracer.installed` replaces every public function that a vdfourier
module holds in its namespace, whether defined there or imported with
``from .x import y``, by a wrapper that records one span per call, and
puts the originals back on exit. Calls resolve module globals at call
time, so wrapping each namespace catches calls between layers as well as
calls inside one module. Public methods of classes defined in those
modules are wrapped the same way. Private names (leading underscore) are
left alone.

A span is (name, start, end, parent, run). Spans are kept in flat arrays
while the benchmark runs; self time, the span's duration minus the time
its child spans cover, is computed afterwards by :meth:`Tracer.summary`.
"""

import functools
import importlib
import inspect
import time
from array import array
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "pgm", "phantoms", "sampling", "transforms", "image_core",
          "solvers", "coherence", "verify")
SOLVE_SPANS = ("solvers.tv_min_reconstruct", "solvers.l1_haar_reconstruct")


def _owner_layer(fn):
    module = getattr(fn, "__module__", None) or ""
    head, _, layer = module.partition(".")
    return layer if head == "vdfourier" and layer in LAYERS else None


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        self.runs = []
        self._run_ids = {}
        self.run = -1
        self._stack = []
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._run = array("i")
        self._saved = []

    def _intern(self, table, ids, key):
        if key not in ids:
            ids[key] = len(table)
            table.append(key)
        return ids[key]

    def _wrap(self, fn, name):
        nid = self._intern(self.names, self._name_ids, name)
        stack, names, starts, ends = self._stack, self._name, self._start, self._end
        parents, runs, clock = self._parent, self._run, time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(starts)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            runs.append(tracer.run)
            ends.append(0.0)
            stack.append(idx)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[idx] = clock()
                stack.pop()

        return traced

    def _install(self):
        for layer in LAYERS:
            module = importlib.import_module(f"vdfourier.{layer}")
            for attr, obj in list(vars(module).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and _owner_layer(obj):
                    self._replace(module, attr, self._wrap(obj, f"{_owner_layer(obj)}.{obj.__name__}"))
                elif inspect.isclass(obj) and obj.__module__ == module.__name__:
                    self._install_methods(layer, obj)

    def _install_methods(self, layer, cls):
        for attr, obj in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(obj):
                self._replace(cls, attr, self._wrap(obj, name))
            elif isinstance(obj, (classmethod, staticmethod)):
                self._replace(cls, attr, type(obj)(self._wrap(obj.__func__, name)), obj)

    def _replace(self, owner, attr, new, old=None):
        self._saved.append((owner, attr, vars(owner)[attr] if old is None else old))
        setattr(owner, attr, new)

    @contextmanager
    def installed(self, run_label):
        """Trace every call into vdfourier made inside the block as run ``run_label``."""
        self.run = self._intern(self.runs, self._run_ids, run_label)
        self._install()
        try:
            yield self
        finally:
            for owner, attr, original in reversed(self._saved):
                setattr(owner, attr, original)
            self._saved.clear()
            self.run = -1

    def arrays(self):
        """Spans as numpy arrays: name id, start, end, parent index, run id, self time."""
        name, parent, run = (np.asarray(a, dtype=np.int32) for a in (self._name, self._parent, self._run))
        start, end = np.asarray(self._start, dtype=float), np.asarray(self._end, dtype=float)
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        return name, start, end, parent, run, dur - child

    def summary(self):
        """Per span name: call count, total self time and total inclusive time."""
        name, start, end, _, _, self_time = self.arrays()
        k = len(self.names)
        calls = np.bincount(name, minlength=k)
        self_s = np.bincount(name, weights=self_time, minlength=k)
        incl_s = np.bincount(name, weights=end - start, minlength=k)
        return {nm: {"calls": int(calls[i]), "self_s": float(self_s[i]),
                     "incl_s": float(incl_s[i])} for i, nm in enumerate(self.names)}

    def calls_per_run(self, span_names):
        """Call counts of the given span names in each run, as {run: {name: count}}."""
        name, *_, run, _ = self.arrays()
        out = {}
        for r, label in enumerate(self.runs):
            in_run = name[run == r]
            out[label] = {nm: int((in_run == self._name_ids[nm]).sum()) if nm in self._name_ids else 0
                          for nm in span_names}
        return out

    def save(self, path):
        """Write every span to ``path`` (.npz) with the name and run tables."""
        name, start, end, parent, run, self_time = self.arrays()
        np.savez(path, names=np.array(self.names), runs=np.array(self.runs), name=name,
                 start=start, end=end, parent=parent, run=run, self_s=self_time)
